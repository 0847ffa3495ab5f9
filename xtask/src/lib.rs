//! `xtask` — workspace automation. Its one subcommand, `analyze`, is the
//! repo's zero-dependency static analyzer (DESIGN.md §18):
//!
//! ```text
//! cargo run -p xtask -- analyze [--format text|json] [--dump-locks]
//! ```
//!
//! A lossless lexer (`lex`) and item-tree builder (`tree`) feed four
//! passes: privacy-taint (raw attribute values must not reach the wire or
//! a log unperturbed), lock-order (the felip-sync acquisition graph stays
//! acyclic), checked-arith (count arithmetic states its overflow
//! semantics), and the repo rules R1–R6 (`rules`). Any finding exits 1;
//! a bad command line exits 2.

use std::path::{Path, PathBuf};

pub mod analyze;
mod arith;
pub mod lex;
mod locks;
mod rules;
mod taint;
pub mod tree;

const USAGE: &str = "usage: cargo run -p xtask -- analyze [--format text|json] [--dump-locks]";

/// `analyze` flags: `(json, dump_locks)`, or `None` for a bad command line.
fn analyze_flags(mut args: impl Iterator<Item = String>) -> Option<(bool, bool)> {
    let mut json = false;
    let mut dump_locks = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                _ => return None,
            },
            "--dump-locks" => dump_locks = true,
            _ => return None,
        }
    }
    Some((json, dump_locks))
}

/// CLI entry: returns the process exit code.
pub fn run(mut args: impl Iterator<Item = String>) -> i32 {
    let flags = match args.next().as_deref() {
        Some("analyze") => analyze_flags(args),
        _ => None,
    };
    let Some((json, dump_locks)) = flags else {
        felip_obs::diag::error(USAGE);
        return 2;
    };
    // xtask sits directly under the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let report = analyze::analyze_root(&root);
    if dump_locks {
        felip_obs::diag::line(report.locks.dump().trim_end());
    }
    if json {
        // JSON goes to stdout — it is the machine product.
        println!("{}", analyze::to_json(&report));
    } else {
        for f in &report.findings {
            felip_obs::diag::line(&f.to_string());
        }
        for f in &report.taint_ok {
            felip_obs::diag::line(&format!(
                "{}:{}: [taint-ok] waived: {}",
                f.file.display(),
                f.line,
                f.message
            ));
        }
    }
    if report.findings.is_empty() {
        if !json {
            felip_obs::diag::line(&format!(
                "xtask analyze: all passes clean ({} taint waiver(s) catalogued)",
                report.taint_ok.len()
            ));
        }
        0
    } else {
        if !json {
            felip_obs::diag::error(&format!(
                "xtask analyze: {} finding(s)",
                report.findings.len()
            ));
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Option<(bool, bool)> {
        analyze_flags(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn format_takes_exactly_one_value() {
        assert_eq!(flags(&[]), Some((false, false)));
        assert_eq!(flags(&["--format", "text"]), Some((false, false)));
        assert_eq!(flags(&["--format", "json"]), Some((true, false)));
        assert_eq!(
            flags(&["--dump-locks", "--format", "json"]),
            Some((true, true))
        );
        for bad in [
            &["--format"][..],
            &["json"],
            &["--format", "yaml"],
            &["--format", "--dump-locks"],
            &["--format=json"],
        ] {
            assert_eq!(flags(bad), None, "{bad:?} accepted");
            let argv = ["analyze"].iter().chain(bad).map(|a| a.to_string());
            assert_eq!(run(argv), 2, "{bad:?} must exit 2");
        }
    }
}
