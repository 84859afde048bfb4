//! Hand-rolled JSON writer and parser for [`InspectNode`] trees.
//!
//! The workspace's vendored `serde` is a no-op shim (its derives expand to
//! nothing), so snapshots, bench artifacts and the lint report all
//! serialise through this module instead.  The
//! format is fixed and small:
//!
//! ```json
//! {"name": "root", "properties": {"requests": 7}, "children": [...]}
//! ```
//!
//! Numbers keep their kind through a round trip: values written with a
//! `.` or exponent parse back as [`InspectValue::Double`], a leading `-`
//! yields an [`InspectValue::Int`], anything else an
//! [`InspectValue::UInt`].  The parser is a plain recursive-descent walk
//! over the byte string — enough for CI to load a snapshot artifact and
//! assert on its structure without any external dependency.

use crate::inspect::{InspectNode, InspectValue};

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------- writing

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(v: f64, out: &mut String) {
    let v = if v.is_finite() { v } else { 0.0 };
    let s = format!("{v}");
    out.push_str(&s);
    // Keep the value recognisably floating-point so it parses back as a
    // Double.
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

fn write_value(value: &InspectValue, out: &mut String) {
    match value {
        InspectValue::UInt(v) => out.push_str(&v.to_string()),
        InspectValue::Int(v) => out.push_str(&v.to_string()),
        InspectValue::Double(v) => write_f64(*v, out),
        InspectValue::Text(v) => escape_into(v, out),
    }
}

/// Serialises a node tree into `out`.
pub fn write_node(node: &InspectNode, out: &mut String) {
    out.push_str("{\"name\": ");
    escape_into(&node.name, out);
    out.push_str(", \"properties\": {");
    for (i, (key, value)) in node.properties.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        escape_into(key, out);
        out.push_str(": ");
        write_value(value, out);
    }
    out.push_str("}, \"children\": [");
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_node(child, out);
    }
    out.push_str("]}");
}

/// Serialises a node tree to a JSON string.
pub fn node_to_json(node: &InspectNode) -> String {
    let mut out = String::new();
    write_node(node, &mut out);
    out
}

// ---------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            pos: self.pos,
            msg: msg.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", byte as char))
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.parse_hex4()?;
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    return self.err("lone high surrogate");
                                }
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid \\u escape"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte slice.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return self.err("invalid UTF-8 byte"),
                    };
                    let end = start + len;
                    let Some(slice) = self.bytes.get(start..end) else {
                        return self.err("truncated UTF-8 sequence");
                    };
                    match std::str::from_utf8(slice) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("invalid UTF-8 sequence"),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let Some(slice) = self.bytes.get(self.pos..self.pos + 4) else {
            return self.err("truncated \\u escape");
        };
        let Ok(s) = std::str::from_utf8(slice) else {
            return self.err("invalid \\u escape");
        };
        match u32::from_str_radix(s, 16) {
            Ok(v) => {
                self.pos += 4;
                Ok(v)
            }
            Err(_) => self.err("invalid \\u escape"),
        }
    }

    fn parse_value(&mut self) -> Result<InspectValue, JsonError> {
        if self.peek() == Some(b'"') {
            return Ok(InspectValue::Text(self.parse_string()?));
        }
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a number or string");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        if text.contains(['.', 'e', 'E']) {
            match text.parse::<f64>() {
                Ok(v) => Ok(InspectValue::Double(v)),
                Err(_) => self.err(format!("invalid float '{text}'")),
            }
        } else if text.starts_with('-') {
            match text.parse::<i64>() {
                Ok(v) => Ok(InspectValue::Int(v)),
                Err(_) => self.err(format!("invalid integer '{text}'")),
            }
        } else {
            match text.parse::<u64>() {
                Ok(v) => Ok(InspectValue::UInt(v)),
                Err(_) => self.err(format!("invalid integer '{text}'")),
            }
        }
    }

    fn parse_node(&mut self) -> Result<InspectNode, JsonError> {
        self.expect(b'{')?;
        let mut node = InspectNode::new("");
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(node);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            match key.as_str() {
                "name" => node.name = self.parse_string()?,
                "properties" => {
                    self.expect(b'{')?;
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                    } else {
                        loop {
                            let prop = self.parse_string()?;
                            self.expect(b':')?;
                            let value = self.parse_value()?;
                            node.properties.push((prop, value));
                            match self.peek() {
                                Some(b',') => self.pos += 1,
                                Some(b'}') => {
                                    self.pos += 1;
                                    break;
                                }
                                _ => return self.err("expected ',' or '}' in properties"),
                            }
                        }
                    }
                }
                "children" => {
                    self.expect(b'[')?;
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                    } else {
                        loop {
                            node.children.push(self.parse_node()?);
                            match self.peek() {
                                Some(b',') => self.pos += 1,
                                Some(b']') => {
                                    self.pos += 1;
                                    break;
                                }
                                _ => return self.err("expected ',' or ']' in children"),
                            }
                        }
                    }
                }
                other => return self.err(format!("unknown node key '{other}'")),
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(node);
                }
                _ => return self.err("expected ',' or '}' in node"),
            }
        }
    }
}

/// Parses a node tree from JSON produced by [`node_to_json`].
pub fn node_from_json(input: &str) -> Result<InspectNode, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let node = parser.parse_node()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing data after node");
    }
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InspectNode {
        let mut root = InspectNode::new("root");
        root.set("requests", InspectValue::UInt(7));
        root.set("delta", InspectValue::Int(-3));
        root.set("ratio", InspectValue::Double(0.875));
        root.set("label", InspectValue::Text("u64 \"pairs\"\nλ".into()));
        let child = root.child_mut("service");
        child.set("queue_depth", InspectValue::UInt(0));
        child.child_mut("class");
        root
    }

    #[test]
    fn round_trip_preserves_structure_and_value_kinds() {
        let node = sample();
        let json = node_to_json(&node);
        let parsed = node_from_json(&json).expect("round trip");
        assert_eq!(parsed, node);
    }

    #[test]
    fn doubles_stay_doubles() {
        let mut node = InspectNode::new("n");
        node.set("whole", InspectValue::Double(2.0));
        let json = node_to_json(&node);
        assert!(json.contains("2.0"), "whole doubles keep a decimal point");
        let parsed = node_from_json(&json).unwrap();
        assert_eq!(parsed.double("whole"), Some(2.0));
    }

    #[test]
    fn non_finite_doubles_are_sanitised() {
        let mut node = InspectNode::new("n");
        node.set("bad", InspectValue::Double(f64::NAN));
        let parsed = node_from_json(&node_to_json(&node)).unwrap();
        assert_eq!(parsed.double("bad"), Some(0.0));
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let json =
            "{ \"name\" : \"r\\u00e9\" ,\n \"properties\" : { \"k\" : -4 } , \"children\" : [ ] }";
        let node = node_from_json(json).unwrap();
        assert_eq!(node.name, "ré");
        assert_eq!(node.properties[0], ("k".to_string(), InspectValue::Int(-4)));
    }

    #[test]
    fn errors_carry_position() {
        let err = node_from_json("{\"name\": }").unwrap_err();
        assert!(err.pos > 0);
        assert!(node_from_json("").is_err());
        assert!(node_from_json("{\"bogus\": 1}").is_err());
        assert!(node_from_json("{} trailing").is_err());
    }
}
