//! `hrs-lint` — a hand-rolled, registry-free repo-invariant scanner.
//!
//! No `syn`, no proc-macro machinery: the scanner works at token/line
//! level on the workspace's own sources (`src/` plus every
//! `crates/*/src`, excluding `crates/vendor`).  A stateful stripper
//! removes comments and string-literal contents (preserving byte columns)
//! so rules match real code tokens, never prose; regions from a
//! `#[cfg(test)]` marker to end of file are exempt, as are doc-comment
//! examples (they live inside comments).
//!
//! Enforced invariants, as hard errors:
//!
//! * **[`Rule::SafetyComment`]** — every `unsafe` token carries a
//!   `// SAFETY:` comment on the same line or within the previous
//!   [`LintConfig::safety_window`] lines; `unsafe fn` / `unsafe trait`
//!   declarations may instead document a `# Safety` section in their doc
//!   block.
//! * **[`Rule::RelaxedJustification`]** — every `Ordering::Relaxed` site
//!   carries a `RELAXED:` justification within
//!   [`LintConfig::relaxed_window`] lines.
//! * **[`Rule::HotPathPanic`]** — no `.unwrap()` / `.expect(` / `panic!`
//!   (or `unreachable!`/`todo!`/`unimplemented!`) in the core hot-path
//!   modules ([`LintConfig::hot_modules`]) outside tests.
//! * **[`Rule::RoleIdUnique`]** — arena `const ROLE_*` names and values
//!   are unique repo-wide.
//! * **[`Rule::TelemetryPathUnique`]** — a telemetry path *literal* is
//!   registered at most once repo-wide (`.counter("…")` and friends);
//!   shared paths must go through named constants.
//!
//! The report also counts [`LintReport::non_test_lines`]: the lines of
//! every `.rs` file under `crates/` before the file's first
//! `#[cfg(test)]`, the size measure the project's simplification work is
//! tracked by.
//!
//! [`scan_repo`] walks the tree and returns a [`LintReport`];
//! `cargo run -p analysis --bin hrs-lint` wraps it for CI and emits
//! `LINT_report.json`, the report's [`LintReport::tree`] written by
//! `telemetry::json`.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use telemetry::InspectNode;

/// One enforced repo invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `unsafe` without an adjacent `// SAFETY:` (or `# Safety` doc).
    SafetyComment,
    /// `Ordering::Relaxed` without an adjacent `RELAXED:` justification.
    RelaxedJustification,
    /// `unwrap`/`expect`/`panic!` in a core hot-path module.
    HotPathPanic,
    /// Duplicate arena `ROLE_*` constant name or value.
    RoleIdUnique,
    /// Telemetry path literal registered more than once.
    TelemetryPathUnique,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 5] = [
        Rule::SafetyComment,
        Rule::RelaxedJustification,
        Rule::HotPathPanic,
        Rule::RoleIdUnique,
        Rule::TelemetryPathUnique,
    ];

    /// Stable kebab-case identifier used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::SafetyComment => "unsafe-needs-safety-comment",
            Rule::RelaxedJustification => "relaxed-needs-justification",
            Rule::HotPathPanic => "no-panic-in-hot-path",
            Rule::RoleIdUnique => "arena-role-ids-unique",
            Rule::TelemetryPathUnique => "telemetry-path-registered-once",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at one source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant was broken.
    pub rule: Rule,
    /// Path relative to the scanned root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// What to scan and how strict the adjacency windows are.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root (the directory holding `crates/` and `src/`).
    pub root: PathBuf,
    /// How many lines above an `unsafe` token a `SAFETY:` comment may sit.
    pub safety_window: usize,
    /// How many lines above an `Ordering::Relaxed` a `RELAXED:` comment
    /// may sit.
    pub relaxed_window: usize,
    /// File stems under `crates/core/src` where panics are banned.
    pub hot_modules: Vec<String>,
}

impl LintConfig {
    /// Default configuration rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LintConfig {
            root: root.into(),
            safety_window: 6,
            relaxed_window: 4,
            hot_modules: [
                "exec",
                "counting_sort",
                "scatter",
                "histogram",
                "prefix_sum",
                "digit",
                "local_sort",
                "bucket",
                "arena",
                "sorter",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        }
    }
}

/// Outcome of one [`scan_repo`] run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Lines of every `.rs` file under `crates/` (vendored shims, bins,
    /// benches and integration tests included) before the file's first
    /// `#[cfg(test)]` marker.
    pub non_test_lines: usize,
    /// Every violation found, in file/line order.
    pub violations: Vec<Violation>,
}

impl LintReport {
    /// Whether the scan found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation count for one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.violations.iter().filter(|v| v.rule == rule).count()
    }

    /// The report as an artifact tree (`LINT_report.json` is its JSON): the
    /// root carries `bench`, `unit`, `files_scanned`, `non_test_lines` and
    /// `clean` (0 or 1); a `rules` section holds one row per rule with its
    /// count, and a `violations` section, present when there are any, one
    /// row each.
    pub fn tree(&self) -> InspectNode {
        let mut root = InspectNode::new("lint");
        root.set("bench", "lint".into());
        root.set("unit", "violations".into());
        root.set("files_scanned", self.files_scanned.into());
        root.set("non_test_lines", self.non_test_lines.into());
        root.set("clean", self.is_clean().into());
        let rules = root.child_mut("rules");
        for rule in Rule::ALL {
            let mut row = InspectNode::new("row");
            row.set("rule", rule.name().into());
            row.set("violations", self.count(rule).into());
            rules.children.push(row);
        }
        for v in &self.violations {
            let mut row = InspectNode::new("row");
            row.set("rule", v.rule.name().into());
            row.set("file", v.file.as_str().into());
            row.set("line", v.line.into());
            row.set("message", v.message.as_str().into());
            root.child_mut("violations").children.push(row);
        }
        root
    }
}

/// Scans the workspace under [`LintConfig::root`] and reports every
/// invariant violation.
pub fn scan_repo(cfg: &LintConfig) -> io::Result<LintReport> {
    let mut files = Vec::new();
    let root_src = cfg.root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates = cfg.root.join("crates");
    let mut non_test_lines = 0;
    if crates.is_dir() {
        let mut every = Vec::new();
        collect_rs(&crates, &mut every)?;
        for file in &every {
            non_test_lines += first_test_line(&strip_lines(&fs::read_to_string(file)?));
        }
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            // Vendored shims stand in for external crates; their hygiene
            // is not this repo's invariant surface.
            if dir.file_name().is_some_and(|n| n == "vendor") {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();

    let mut violations = Vec::new();
    let mut paths = PathRegistrations::default();
    let mut roles = Vec::new();
    for file in &files {
        let rel = relative_slash(file, &cfg.root);
        let content = fs::read_to_string(file)?;
        scan_source(&rel, &content, cfg, &mut violations, &mut paths, &mut roles);
    }
    check_roles(&roles, &mut violations);
    check_paths(&paths, &mut violations);
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(LintReport {
        files_scanned: files.len(),
        non_test_lines,
        violations,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_slash(file: &Path, root: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Telemetry path literal → every `(file, line)` that registers it.
#[derive(Debug, Default)]
struct PathRegistrations(BTreeMap<String, Vec<(String, usize)>>);

/// One `const ROLE_*` definition.
#[derive(Debug)]
struct RoleDef {
    name: String,
    value: Option<u64>,
    file: String,
    line: usize,
}

/// Lexer state carried across lines while stripping one file.
#[derive(Clone, Copy)]
enum Strip {
    Code,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Copies `c` into the code view at byte offset `at` (the view starts as
/// all spaces, so everything not kept stays blanked).
fn keep(code: &mut [u8], at: usize, c: char) {
    let mut buf = [0u8; 4];
    let s = c.encode_utf8(&mut buf);
    code[at..at + s.len()].copy_from_slice(s.as_bytes());
}

/// Returns `content` line by line with comments and string-literal
/// contents blanked to spaces.  Byte columns are preserved (each stripped
/// byte becomes one space), so positions found in the code view index
/// directly into the raw line.  String/char delimiters are kept.
fn strip_lines(content: &str) -> Vec<String> {
    let mut state = Strip::Code;
    let mut out = Vec::new();
    for raw in content.lines() {
        let chars: Vec<(usize, char)> = raw.char_indices().collect();
        let mut code = vec![b' '; raw.len()];
        let mut i = 0;
        while i < chars.len() {
            let (at, c) = chars[i];
            let next = chars.get(i + 1).map(|&(_, c)| c);
            match state {
                Strip::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth <= 1 {
                            Strip::Code
                        } else {
                            Strip::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = Strip::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                Strip::Str => {
                    if c == '\\' {
                        i += 2;
                    } else if c == '"' {
                        keep(&mut code, at, '"');
                        state = Strip::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                Strip::RawStr(hashes) => {
                    let h = hashes as usize;
                    if c == '"'
                        && chars[i + 1..].len() >= h
                        && chars[i + 1..i + 1 + h].iter().all(|&(_, c)| c == '#')
                    {
                        keep(&mut code, at, '"');
                        state = Strip::Code;
                        i += 1 + h;
                    } else {
                        i += 1;
                    }
                }
                Strip::Code => {
                    if c == '/' && next == Some('/') {
                        break; // line comment: rest of the line is prose
                    } else if c == '/' && next == Some('*') {
                        state = Strip::BlockComment(1);
                        i += 2;
                    } else if c == '"' {
                        keep(&mut code, at, '"');
                        state = Strip::Str;
                        i += 1;
                    } else if c == 'r'
                        && matches!(next, Some('"') | Some('#'))
                        && !prev_is_ident(&chars, i)
                    {
                        // r"…" / r#"…"# raw string (possibly after `b`).
                        let mut j = i + 1;
                        let mut hashes = 0u32;
                        while chars.get(j).map(|&(_, c)| c) == Some('#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j).map(|&(_, c)| c) == Some('"') {
                            keep(&mut code, chars[j].0, '"');
                            state = Strip::RawStr(hashes);
                            i = j + 1;
                        } else {
                            keep(&mut code, at, c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal vs lifetime: 'x' or '\…' is a
                        // literal; anything else ('a in generics) is kept.
                        if next == Some('\\') {
                            let mut j = i + 2;
                            while j < chars.len() {
                                if chars[j].1 == '\\' {
                                    j += 2;
                                } else if chars[j].1 == '\'' {
                                    j += 1;
                                    break;
                                } else {
                                    j += 1;
                                }
                            }
                            i = j;
                        } else if chars.get(i + 2).map(|&(_, c)| c) == Some('\'') {
                            i += 3;
                        } else {
                            keep(&mut code, at, '\'');
                            i += 1;
                        }
                    } else {
                        keep(&mut code, at, c);
                        i += 1;
                    }
                }
            }
        }
        // Safe: retained chars are copied whole, stripped bytes are ASCII
        // spaces, so the buffer is valid UTF-8 by construction.
        out.push(String::from_utf8(code).expect("stripper preserves UTF-8"));
    }
    out
}

fn prev_is_ident(chars: &[(usize, char)], i: usize) -> bool {
    i.checked_sub(1)
        .and_then(|p| chars.get(p))
        .is_some_and(|&(_, c)| c.is_alphanumeric() || c == '_' || c == '"')
}

/// Byte positions where `needle` occurs in `hay` with non-identifier
/// characters (or boundaries) on both sides.
fn word_positions(hay: &str, needle: &str) -> Vec<usize> {
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = hay.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !ident(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !ident(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

/// Scans one file's source, appending violations and feeding the
/// repo-wide collectors (telemetry paths, role ids).
fn scan_source(
    rel: &str,
    content: &str,
    cfg: &LintConfig,
    out: &mut Vec<Violation>,
    paths: &mut PathRegistrations,
    roles: &mut Vec<RoleDef>,
) {
    let raw: Vec<&str> = content.lines().collect();
    let code = strip_lines(content);
    let hot = is_hot_module(rel, cfg);

    for (i, code_line) in code.iter().enumerate().take(first_test_line(&code)) {
        check_safety(rel, i, &raw, code_line, cfg, out);
        check_relaxed(rel, i, &raw, code_line, cfg, out);
        if hot {
            check_hot_panic(rel, i, code_line, out);
        }
        collect_role_defs(rel, i, code_line, roles);
        collect_path_registrations(rel, i, &raw, code_line, paths);
    }
}

/// The index of the first line of test code in a stripped file: everything
/// from a `#[cfg(test)]` marker to end of file is test code (this repo
/// keeps test modules at the bottom of each file).
fn first_test_line(code: &[String]) -> usize {
    code.iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(code.len())
}

fn is_hot_module(rel: &str, cfg: &LintConfig) -> bool {
    rel.strip_prefix("crates/core/src/")
        .and_then(|f| f.strip_suffix(".rs"))
        .is_some_and(|stem| cfg.hot_modules.iter().any(|m| m == stem))
}

fn window_has(raw: &[&str], i: usize, window: usize, marker: &str) -> bool {
    let lo = i.saturating_sub(window);
    raw[lo..=i].iter().any(|l| l.contains(marker))
}

fn check_safety(
    rel: &str,
    i: usize,
    raw: &[&str],
    code_line: &str,
    cfg: &LintConfig,
    out: &mut Vec<Violation>,
) {
    if word_positions(code_line, "unsafe").is_empty() {
        return;
    }
    if window_has(raw, i, cfg.safety_window, "SAFETY:") {
        return;
    }
    // An `unsafe fn` / `unsafe trait` declaration states its contract in a
    // `# Safety` doc section instead; accept that in the contiguous
    // doc/attribute block above.
    let declares = !word_positions(code_line, "fn").is_empty()
        || !word_positions(code_line, "trait").is_empty();
    if declares {
        let mut j = i;
        while j > 0 {
            let t = raw[j - 1].trim_start();
            if t.starts_with("///") || t.starts_with("#[") || t.starts_with("#!") {
                if t.contains("# Safety") {
                    return;
                }
                j -= 1;
            } else {
                break;
            }
        }
    }
    out.push(Violation {
        rule: Rule::SafetyComment,
        file: rel.to_string(),
        line: i + 1,
        message: format!(
            "`unsafe` without a `// SAFETY:` comment within {} lines (or a `# Safety` doc section)",
            cfg.safety_window
        ),
    });
}

fn check_relaxed(
    rel: &str,
    i: usize,
    raw: &[&str],
    code_line: &str,
    cfg: &LintConfig,
    out: &mut Vec<Violation>,
) {
    if !code_line.contains("Ordering::Relaxed") {
        return;
    }
    if window_has(raw, i, cfg.relaxed_window, "RELAXED:") {
        return;
    }
    out.push(Violation {
        rule: Rule::RelaxedJustification,
        file: rel.to_string(),
        line: i + 1,
        message: format!(
            "`Ordering::Relaxed` without a `// RELAXED:` justification within {} lines",
            cfg.relaxed_window
        ),
    });
}

const PANIC_PATTERNS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

fn check_hot_panic(rel: &str, i: usize, code_line: &str, out: &mut Vec<Violation>) {
    for pat in PANIC_PATTERNS {
        let hit = if let Some(word) = pat.strip_suffix('!') {
            !word_positions(code_line, word).is_empty()
        } else {
            code_line.contains(pat)
        };
        if hit {
            out.push(Violation {
                rule: Rule::HotPathPanic,
                file: rel.to_string(),
                line: i + 1,
                message: format!("`{pat}` in a hot-path module (return or propagate instead)"),
            });
        }
    }
}

fn collect_role_defs(rel: &str, i: usize, code_line: &str, roles: &mut Vec<RoleDef>) {
    let Some(pos) = code_line.find("const ROLE_") else {
        return;
    };
    let after = &code_line[pos + "const ".len()..];
    let Some(colon) = after.find(':') else { return };
    let name = after[..colon].trim().to_string();
    let value = after
        .find('=')
        .map(|eq| after[eq + 1..].trim_end().trim_end_matches(';').trim())
        .and_then(|v| v.parse::<u64>().ok());
    roles.push(RoleDef {
        name,
        value,
        file: rel.to_string(),
        line: i + 1,
    });
}

fn check_roles(roles: &[RoleDef], out: &mut Vec<Violation>) {
    for (idx, role) in roles.iter().enumerate() {
        for earlier in &roles[..idx] {
            if earlier.name == role.name {
                out.push(Violation {
                    rule: Rule::RoleIdUnique,
                    file: role.file.clone(),
                    line: role.line,
                    message: format!(
                        "arena role `{}` already defined at {}:{}",
                        role.name, earlier.file, earlier.line
                    ),
                });
            } else if role.value.is_some() && earlier.value == role.value {
                out.push(Violation {
                    rule: Rule::RoleIdUnique,
                    file: role.file.clone(),
                    line: role.line,
                    message: format!(
                        "arena role `{}` reuses id {} of `{}` ({}:{})",
                        role.name,
                        role.value.unwrap_or(0),
                        earlier.name,
                        earlier.file,
                        earlier.line
                    ),
                });
            }
        }
    }
}

const REGISTER_PATTERNS: [&str; 5] = [
    ".counter(",
    ".gauge(",
    ".float_gauge(",
    ".histogram(",
    ".text(",
];

fn collect_path_registrations(
    rel: &str,
    i: usize,
    raw: &[&str],
    code_line: &str,
    paths: &mut PathRegistrations,
) {
    let bytes = code_line.as_bytes();
    for pat in REGISTER_PATTERNS {
        let mut from = 0;
        while let Some(pos) = code_line[from..].find(pat) {
            let open = from + pos + pat.len();
            from = open;
            // Only literal first arguments count: skip spaces, require a
            // quote (path expressions/constants are the sanctioned way to
            // share a path).
            let mut q = open;
            while q < bytes.len() && bytes[q] == b' ' {
                q += 1;
            }
            if q >= bytes.len() || bytes[q] != b'"' {
                continue;
            }
            let Some(close) = code_line[q + 1..].find('"').map(|c| q + 1 + c) else {
                continue;
            };
            // The stripper blanked the contents in the code view; the raw
            // line still has them at the same byte columns.
            let literal = raw[i][q + 1..close].to_string();
            paths
                .0
                .entry(literal)
                .or_default()
                .push((rel.to_string(), i + 1));
        }
    }
}

fn check_paths(paths: &PathRegistrations, out: &mut Vec<Violation>) {
    for (path, sites) in &paths.0 {
        if sites.len() < 2 {
            continue;
        }
        let (first_file, first_line) = &sites[0];
        for (file, line) in &sites[1..] {
            out.push(Violation {
                rule: Rule::TelemetryPathUnique,
                file: file.clone(),
                line: *line,
                message: format!(
                    "telemetry path \"{path}\" already registered at {first_file}:{first_line}; \
                     share it through a named constant"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(rel: &str, content: &str) -> Vec<Violation> {
        let cfg = LintConfig::new(".");
        let mut out = Vec::new();
        let mut paths = PathRegistrations::default();
        let mut roles = Vec::new();
        scan_source(rel, content, &cfg, &mut out, &mut paths, &mut roles);
        check_roles(&roles, &mut out);
        check_paths(&paths, &mut out);
        out
    }

    #[test]
    fn stripper_blanks_comments_and_strings_preserving_columns() {
        let src = "let a = \"unsafe\"; // unsafe in prose\nlet b = 'x';\n/* unsafe\n   spans */ let c = 1;\n";
        let code = strip_lines(src);
        assert_eq!(code[0].len(), src.lines().next().unwrap().len());
        assert!(!code[0].contains("unsafe"), "{:?}", code[0]);
        assert!(code[0].contains("let a = "));
        assert!(code[1].contains("let b = "));
        assert!(!code[2].contains("unsafe"));
        assert!(code[3].contains("let c = 1;"));
    }

    #[test]
    fn stripper_handles_raw_strings_and_lifetimes() {
        let src = "let r = r#\"unsafe \" quote\"#;\nfn f<'a>(x: &'a str) {}\nlet esc = \"a\\\"unsafe\";\n";
        let code = strip_lines(src);
        assert!(!code[0].contains("unsafe"));
        assert!(code[1].contains("fn f<'a>(x: &'a str) {}"));
        assert!(!code[2].contains("unsafe"));
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let v = scan_str("crates/x/src/a.rs", "fn f() {\n    unsafe { work() };\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::SafetyComment);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn adjacent_safety_comment_satisfies_the_rule() {
        let src = "fn f() {\n    // SAFETY: index is in bounds by construction.\n    unsafe { work() };\n}\n";
        assert!(scan_str("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_with_safety_doc_section_is_accepted() {
        let src = "/// Does a thing.\n///\n/// # Safety\n///\n/// Caller must own the range.\npub unsafe fn f() {}\n";
        assert!(scan_str("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_comments_strings_and_identifiers_is_ignored() {
        let src = "// unsafe in a comment\nlet s = \"unsafe\";\n#![deny(unsafe_op_in_unsafe_fn)]\n/// doc example: unsafe { x() }\n";
        assert!(scan_str("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn relaxed_without_justification_is_flagged() {
        let src = "use std::sync::atomic::Ordering;\nfn f(c: &std::sync::atomic::AtomicU64) {\n    c.load(Ordering::Relaxed);\n}\n";
        let v = scan_str("crates/x/src/a.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::RelaxedJustification);
        let ok = "fn f(c: &A) {\n    // RELAXED: plain counter, no ordering needed.\n    c.load(Ordering::Relaxed);\n}\n";
        assert!(scan_str("crates/x/src/a.rs", ok).is_empty());
    }

    #[test]
    fn hot_path_panics_are_flagged_only_in_hot_modules() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let v = scan_str("crates/core/src/scatter.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::HotPathPanic);
        assert!(scan_str("crates/service/src/service.rs", src).is_empty());
        // unwrap_or_else is not unwrap; config.rs is not a hot module.
        let ok = "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock().unwrap_or_else(|p| p.into_inner())\n}\n";
        assert!(scan_str("crates/core/src/scatter.rs", ok).is_empty());
        assert!(scan_str("crates/core/src/config.rs", src).is_empty());
    }

    #[test]
    fn test_regions_are_exempt_from_every_rule() {
        let src = "fn shipped() {}\n#[cfg(test)]\nmod tests {\n    fn t() { unsafe { x() }; y.unwrap(); }\n}\n";
        assert!(scan_str("crates/core/src/scatter.rs", src).is_empty());
    }

    #[test]
    fn duplicate_role_names_and_values_are_flagged() {
        let src = "pub(crate) const ROLE_A: u8 = 0;\npub(crate) const ROLE_B: u8 = 1;\nconst ROLE_C: u8 = 0;\n";
        let v = scan_str("crates/core/src/arena.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::RoleIdUnique);
        assert_eq!(v[0].line, 3);
        let dup = "const ROLE_A: u8 = 0;\nconst ROLE_A: u8 = 1;\n";
        let v = scan_str("crates/core/src/arena.rs", dup);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn duplicate_telemetry_path_literals_are_flagged() {
        let src = "fn r(reg: &Registry) {\n    reg.counter(\"a/b\");\n    reg.gauge(\"a/b\");\n}\n";
        let v = scan_str("crates/x/src/a.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::TelemetryPathUnique);
        assert_eq!(v[0].line, 3);
        // Constants and non-literal arguments are the sanctioned way to
        // share paths — never flagged.
        let ok = "fn r(reg: &Registry, p: &str) {\n    reg.counter(p);\n    reg.gauge(PATH_B);\n    reg.counter(&format_path());\n}\n";
        assert!(scan_str("crates/x/src/a.rs", ok).is_empty());
    }

    #[test]
    fn report_json_round_trips_the_counts() {
        let message = "quote \" and backslash \\";
        let report = LintReport {
            files_scanned: 3,
            non_test_lines: 40,
            violations: vec![Violation {
                rule: Rule::SafetyComment,
                file: "crates/x/src/a.rs".into(),
                line: 7,
                message: message.into(),
            }],
        };
        let tree = InspectNode::from_json(&report.tree().to_json()).unwrap();
        assert_eq!(tree, report.tree());
        assert_eq!(tree.uint("files_scanned"), Some(3));
        assert_eq!(tree.uint("non_test_lines"), Some(40));
        assert_eq!(tree.uint("clean"), Some(0));
        let rules = &tree.node("rules").unwrap().children;
        assert_eq!(rules.len(), Rule::ALL.len());
        assert_eq!(rules[0].text("rule"), Some("unsafe-needs-safety-comment"));
        assert_eq!(rules[0].uint("violations"), Some(1));
        let violation = &tree.node("violations").unwrap().children[0];
        assert_eq!(violation.uint("line"), Some(7));
        assert_eq!(violation.text("message"), Some(message));

        let clean = LintReport {
            files_scanned: 0,
            non_test_lines: 0,
            violations: vec![],
        };
        assert!(clean.is_clean());
        let tree = clean.tree();
        assert_eq!(tree.uint("clean"), Some(1));
        assert!(tree.node("violations").is_none());
    }

    #[test]
    fn non_test_lines_count_every_crate_file_up_to_its_tests() {
        let root = std::env::temp_dir().join(format!("hrs-lint-fixture-{}", std::process::id()));
        let write = |rel: &str, content: &str| {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, content).unwrap();
        };
        // 3 lines, then tests; a marker in a comment or string is prose.
        write(
            "crates/a/src/lib.rs",
            "// #[cfg(test)] in prose\nlet s = \"#[cfg(test)]\";\nfn f() {}\n#[cfg(test)]\nmod tests {}\n",
        );
        // 2 lines, no tests.
        write("crates/a/src/bin/tool.rs", "fn main() {\n}\n");
        // Integration tests and vendored shims count too: 1 + 2 lines.
        write(
            "crates/a/tests/t.rs",
            "use a::f;\n    #[cfg(test)]\nfn t() {}\n",
        );
        write(
            "crates/vendor/shim/src/lib.rs",
            "pub fn shim() {}\npub fn other() {}\n",
        );
        // Outside `crates/`, and not Rust: not counted.
        write("src/lib.rs", "fn root() {}\n");
        write("crates/a/notes.md", "prose\n");
        let report = scan_repo(&LintConfig::new(&root));
        fs::remove_dir_all(&root).unwrap();
        let report = report.unwrap();
        assert_eq!(report.non_test_lines, 3 + 2 + 1 + 2);
        assert_eq!(report.tree().uint("non_test_lines"), Some(8));
        // The lint rules still scan only `src/` and each crate's `src/`.
        assert_eq!(report.files_scanned, 3);
    }
}
