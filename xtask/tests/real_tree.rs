//! The workspace itself must analyze clean: any finding introduced in
//! `crates/` (or catalogue drift in DESIGN.md §11) fails the test suite,
//! not just the CI lint job.

use std::path::Path;

#[test]
fn workspace_passes_every_analyzer_pass() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits under the workspace root");
    let rep = xtask::analyze::analyze_root(root);
    assert!(
        rep.findings.is_empty(),
        "xtask analyze found {} finding(s):\n{}",
        rep.findings.len(),
        rep.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The lock graph must be non-trivial: an empty graph would mean the
    // pass silently stopped seeing `.lock()` sites, not that the code
    // became lock-free.
    assert!(
        !rep.locks.edges.is_empty(),
        "lock-order pass saw no acquisition edges — scope regression"
    );
}
