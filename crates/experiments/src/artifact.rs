//! Shared plumbing of the `bench_*` bins: artifact trees, console tables
//! and flags.
//!
//! Every bench artifact is one [`InspectNode`] tree written with
//! [`InspectNode::to_json`], the telemetry snapshot's format.  The root
//! carries `bench` and `unit` properties and one child per row, or one
//! child per section whose children are the rows.  Every row of a table
//! has the same property keys, which head the console table's columns
//! ([`table`]).

use std::str::FromStr;
use telemetry::{InspectNode, InspectValue};

/// One row: a node whose properties are `cols`, in order.
pub fn row<const N: usize>(cols: [(&str, InspectValue); N]) -> InspectNode {
    let mut node = InspectNode::new("row");
    for (key, value) in cols {
        node.set(key, value);
    }
    node
}

/// A named section holding `rows`.
pub fn section(name: &str, rows: Vec<InspectNode>) -> InspectNode {
    InspectNode {
        children: rows,
        ..InspectNode::new(name)
    }
}

/// The root of the `bench` artifact: `bench` and `unit` properties over
/// `children` (rows, or sections of rows).
pub fn root(bench: &str, unit: &str, children: Vec<InspectNode>) -> InspectNode {
    let mut node = section(bench, children);
    node.set("bench", bench.into());
    node.set("unit", unit.into());
    node
}

/// The key of the first property of `node` (at any depth) holding a
/// non-finite `Double`.  The JSON writer would turn it into `0.0`, so
/// artifacts are checked before they are written.
pub fn non_finite(node: &InspectNode) -> Option<&str> {
    node.properties
        .iter()
        .find(|(_, v)| matches!(v, InspectValue::Double(d) if !d.is_finite()))
        .map(|(k, _)| k.as_str())
        .or_else(|| node.children.iter().find_map(non_finite))
}

/// Writes `tree` as JSON to `path`.  Panics if a `Double` in it is not
/// finite or the file cannot be written.
pub fn write(path: &str, tree: &InspectNode) {
    if let Some(key) = non_finite(tree) {
        panic!("{path}: `{key}` is not finite");
    }
    std::fs::write(path, tree.to_json()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

fn cell(value: &InspectValue) -> String {
    match value {
        InspectValue::UInt(v) => v.to_string(),
        InspectValue::Int(v) => v.to_string(),
        InspectValue::Double(v) if *v != 0.0 && v.abs() < 1e-3 => format!("{v:.3e}"),
        InspectValue::Double(v) if v.abs() >= 1e4 => format!("{v:.0}"),
        InspectValue::Double(v) => format!("{v:.4}"),
        InspectValue::Text(v) => v.clone(),
    }
}

/// Renders `rows` as an aligned text table: one column per property of the
/// first row, headed by its key; text columns are left-aligned, numbers
/// right-aligned.
pub fn table(rows: &[InspectNode]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let keys: Vec<&str> = first.properties.iter().map(|(k, _)| k.as_str()).collect();
    let text: Vec<bool> = first
        .properties
        .iter()
        .map(|(_, v)| matches!(v, InspectValue::Text(_)))
        .collect();
    let mut grid: Vec<Vec<String>> = vec![keys.iter().map(|k| k.to_string()).collect()];
    grid.extend(rows.iter().map(|r| {
        keys.iter()
            .map(|k| r.property(k).map(cell).unwrap_or_default())
            .collect()
    }));
    let widths: Vec<usize> = (0..keys.len())
        .map(|c| grid.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for r in &grid {
        let cols: Vec<String> = r
            .iter()
            .zip(widths.iter().zip(&text))
            .map(|(s, (&w, &left))| {
                if left {
                    format!("{s:<w$}")
                } else {
                    format!("{s:>w$}")
                }
            })
            .collect();
        out += cols.join(" | ").trim_end();
        out.push('\n');
    }
    out
}

/// The value following `flag` in `args`, parsed.  Panics when the value is
/// missing or does not parse.
pub fn flag<T: FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(raw) = args.get(i + 1) else {
        panic!("{flag} expects a value");
    };
    Some(
        raw.parse()
            .unwrap_or_else(|_| panic!("{flag} cannot parse {raw:?}")),
    )
}

/// The comma-separated integers following `flag` in `args`.
pub fn flag_list(args: &[String], flag: &str) -> Option<Vec<usize>> {
    let raw: String = self::flag(args, flag)?;
    let parse = |v: &str| v.trim().parse().ok();
    let list: Option<Vec<usize>> = raw.split(',').map(parse).collect();
    Some(list.unwrap_or_else(|| panic!("{flag} expects comma-separated integers, got {raw:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InspectNode {
        root(
            "demo",
            "secs",
            vec![
                row([
                    ("mode", "batched".into()),
                    ("n", 8u64.into()),
                    ("secs", 0.25.into()),
                ]),
                row([
                    ("mode", "unbatched".into()),
                    ("n", 16u64.into()),
                    ("secs", 2e-5.into()),
                ]),
            ],
        )
    }

    #[test]
    fn artifact_round_trips_through_the_telemetry_parser() {
        let tree = sample();
        let parsed = InspectNode::from_json(&tree.to_json()).unwrap();
        assert_eq!(parsed, tree);
        assert_eq!(parsed.text("bench"), Some("demo"));
        assert_eq!(parsed.children.len(), 2);
        assert_eq!(parsed.children[1].uint("n"), Some(16));
        assert!(non_finite(&parsed).is_none());
    }

    #[test]
    fn non_finite_doubles_are_found_at_any_depth() {
        let mut tree = sample();
        tree.children[1].set("secs", f64::NAN.into());
        let tree = root("outer", "secs", vec![section("inner", vec![tree])]);
        assert_eq!(non_finite(&tree), Some("secs"));
    }

    #[test]
    fn table_heads_columns_with_the_property_keys() {
        let table = table(&sample().children);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "mode      |  n |     secs");
        assert_eq!(lines[1], "batched   |  8 |   0.2500");
        assert_eq!(lines[2], "unbatched | 16 | 2.000e-5");
        assert_eq!(super::table(&[]), "");
    }

    #[test]
    fn flags_parse_values_and_lists() {
        let args: Vec<String> = ["bin", "--reps", "3", "--sizes", "20, 22", "--out", "x.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag::<usize>(&args, "--reps"), Some(3));
        assert_eq!(flag::<String>(&args, "--out").as_deref(), Some("x.json"));
        assert_eq!(flag::<usize>(&args, "--workers"), None);
        assert_eq!(flag_list(&args, "--sizes"), Some(vec![20, 22]));
    }
}
