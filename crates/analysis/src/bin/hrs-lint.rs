//! CI entry point for the repo-invariant lint.
//!
//! ```text
//! hrs-lint [--root <dir>] [--out <report.json>]
//! ```
//!
//! Scans the workspace (default: the current directory), prints every
//! violation and the non-test line count of `crates/`, writes
//! `LINT_report.json` (so regressions are diffable as a CI artifact) and
//! exits non-zero if the tree is not clean.

use analysis::{scan_repo, LintConfig, Rule};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = String::from(".");
    let mut out = String::from("LINT_report.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = v,
                None => return usage("--root needs a value"),
            },
            "--out" => match args.next() {
                Some(v) => out = v,
                None => return usage("--out needs a value"),
            },
            "--help" | "-h" => {
                eprintln!("usage: hrs-lint [--root <dir>] [--out <report.json>]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let report = match scan_repo(&LintConfig::new(&root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hrs-lint: scanning `{root}` failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, report.tree().to_json()) {
        eprintln!("hrs-lint: writing `{out}` failed: {e}");
        return ExitCode::FAILURE;
    }

    for v in &report.violations {
        eprintln!("{v}");
    }
    let per_rule: Vec<String> = Rule::ALL
        .iter()
        .map(|&r| format!("{}={}", r.name(), report.count(r)))
        .collect();
    eprintln!(
        "hrs-lint: {} files scanned, {} violation(s) [{}], {} non-test lines in crates/ -> {}",
        report.files_scanned,
        report.violations.len(),
        per_rule.join(", "),
        report.non_test_lines,
        out,
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("hrs-lint: {err}\nusage: hrs-lint [--root <dir>] [--out <report.json>]");
    ExitCode::FAILURE
}
