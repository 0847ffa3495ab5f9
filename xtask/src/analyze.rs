//! `xtask analyze` — the token-tree analysis driver (DESIGN.md §18).
//!
//! Pipeline: `lex` (lossless tokens) → `tree` (items, fn signatures,
//! bracket structure) → passes:
//!
//! * `taint`  — privacy-taint: raw values must not reach wire/log sinks
//! * `locks`  — static lock-order graph over felip-sync mutexes, no cycles
//! * `arith`  — explicit overflow semantics on count arithmetic
//! * `rules`  — the repo rules R1–R6 (no-panic, sync-shims,
//!   safety-comments, golden-constants, metric-registry,
//!   reactor-syscalls)
//!
//! Output is one `file:line: [rule] message` line per finding, or
//! `--format json` for tooling.

use std::path::{Path, PathBuf};

use crate::tree::Workspace;
use crate::{arith, locks, rules, taint};

/// One analyzer finding, with an optional flow trace (taint findings
/// explain where the raw value came from).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Finding {
    pub file: PathBuf,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
    /// `file:line: why` steps for dataflow findings; empty otherwise.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )?;
        for t in &self.trace {
            write!(f, "\n    via {t}")?;
        }
        Ok(())
    }
}

/// Everything one `analyze` run produces.
pub struct AnalyzeReport {
    pub findings: Vec<Finding>,
    /// Findings waived by `// TAINT-OK:` — catalogued, not failing.
    pub taint_ok: Vec<Finding>,
    /// The lock graph, for `--dump-locks`.
    pub locks: locks::LockReport,
}

/// Runs every pass against the workspace at `root`.
pub fn analyze_root(root: &Path) -> AnalyzeReport {
    let ws = Workspace::load(root);
    let mut findings: Vec<Finding> = Vec::new();

    // A file the lexer cannot tokenize is invisible to every pass — that
    // must fail loudly, not silently shrink coverage.
    for (path, msg) in &ws.lex_errors {
        findings.push(Finding {
            file: path.clone(),
            line: 1,
            rule: "lex",
            message: format!("file failed to tokenize ({msg}) — analyzer coverage hole"),
            trace: Vec::new(),
        });
    }

    let taint_report = taint::run(&ws);
    findings.extend(taint_report.findings);
    let lock_report = locks::run(&ws);
    findings.extend(lock_report.findings.iter().cloned());
    findings.extend(arith::run(&ws));
    findings.extend(rules::run(&ws, root));

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    AnalyzeReport {
        findings,
        taint_ok: taint_report.taint_ok,
        locks: lock_report,
    }
}

/// `--format json`: one self-describing object, stable field order, so CI
/// can diff finding sets across PRs.
pub fn to_json(report: &AnalyzeReport) -> String {
    let mut s = String::from("{\"t\":\"analyze\",\"version\":1,\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        finding_json(&mut s, f);
    }
    s.push_str("],\"taint_ok\":[");
    for (i, f) in report.taint_ok.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        finding_json(&mut s, f);
    }
    s.push_str("]}");
    s
}

fn finding_json(s: &mut String, f: &Finding) {
    s.push_str("{\"file\":");
    json_str(s, &f.file.display().to_string());
    s.push_str(&format!(",\"line\":{}", f.line));
    s.push_str(",\"rule\":");
    json_str(s, f.rule);
    s.push_str(",\"message\":");
    json_str(s, &f.message);
    s.push_str(",\"trace\":[");
    for (i, t) in f.trace.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json_str(s, t);
    }
    s.push_str("]}");
}

fn json_str(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shape() {
        let report = AnalyzeReport {
            findings: vec![Finding {
                file: PathBuf::from("a \"b\".rs"),
                line: 3,
                rule: "privacy-taint",
                message: "x\ny".to_string(),
                trace: vec!["t1".to_string()],
            }],
            taint_ok: Vec::new(),
            locks: Default::default(),
        };
        let j = to_json(&report);
        assert!(j.starts_with("{\"t\":\"analyze\",\"version\":1,"), "{j}");
        assert!(j.contains("\"file\":\"a \\\"b\\\".rs\""), "{j}");
        assert!(j.contains("\"message\":\"x\\ny\""), "{j}");
        assert!(j.contains("\"trace\":[\"t1\"]"), "{j}");
        assert!(j.ends_with("\"taint_ok\":[]}"), "{j}");
    }
}
