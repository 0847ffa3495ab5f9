//! End-to-end fixture crates driven through `analyze_root` — the same
//! entry point CI uses — one violating and one clean fixture per pass,
//! plus the negative control showing that no rule without dataflow sees
//! the raw-report-to-wire flow the taint pass catches.
//!
//! Fixtures are written to per-test temp directories shaped like a real
//! workspace (`crates/<name>/src/*.rs`); findings are filtered by rule
//! because a bare fixture root legitimately trips the content-anchored
//! rules (missing DESIGN.md, missing golden files).

use std::fs;
use std::path::PathBuf;

use xtask::analyze::{analyze_root, to_json, Finding};

fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("xtask-fixture-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, src) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("mkdir fixture");
        fs::write(path, src).expect("write fixture");
    }
    root
}

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

const DATASET: (&str, &str) = (
    "crates/common/src/dataset.rs",
    "pub struct Dataset { flat: Vec<u32> }\n\
     impl Dataset {\n\
         pub fn row(&self, i: usize) -> &[u32] { &self.flat[i..i + 1] }\n\
     }\n",
);
const WIRE: (&str, &str) = (
    "crates/server/src/wire.rs",
    "pub fn encode_reports(buf: &mut Vec<u8>, reports: &[u32]) { buf.push(reports.len() as u8); }\n",
);
const FO: (&str, &str) = (
    "crates/fo/src/grr.rs",
    "pub fn perturb(cell: u32, r: u64) -> u32 { cell ^ r as u32 }\n",
);

// ---------------------------------------------------------------- taint

#[test]
fn raw_report_to_wire_flow_is_rejected() {
    let root = fixture(
        "taint-bad",
        &[
            DATASET,
            WIRE,
            (
                "crates/server/src/bad.rs",
                "fn leak(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let raw = d.row(0);\n\
                     encode_reports(buf, raw);\n\
                 }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    let taint = by_rule(&rep.findings, "privacy-taint");
    assert_eq!(taint.len(), 1, "{:?}", rep.findings);
    assert_eq!(taint[0].line, 3);
    assert!(
        !taint[0].trace.is_empty(),
        "taint finding must carry a flow trace"
    );
}

/// Negative control: on the same raw-report-to-wire fixture, every pass
/// without a dataflow concept stays silent about `bad.rs` — only the
/// taint pass sees the leak.
#[test]
fn old_string_lint_misses_the_taint_flow() {
    let root = fixture(
        "taint-control",
        &[
            DATASET,
            WIRE,
            (
                "crates/server/src/bad.rs",
                "fn leak(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let raw = d.row(0);\n\
                     encode_reports(buf, raw);\n\
                 }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    let on_bad = |rule: &str| -> Vec<&Finding> {
        by_rule(&rep.findings, rule)
            .into_iter()
            .filter(|f| f.file.ends_with("bad.rs"))
            .collect()
    };
    for rule in [
        "no-panic",
        "sync-shims",
        "safety-comments",
        "reactor-syscalls",
        "lock-order",
        "checked-arith",
    ] {
        assert!(on_bad(rule).is_empty(), "{rule} flagged the flow file");
    }
    assert!(
        !on_bad("privacy-taint").is_empty(),
        "taint pass should flag what the dataflow-free rules miss: {:?}",
        rep.findings
    );
}

#[test]
fn perturbed_flow_is_accepted() {
    let root = fixture(
        "taint-good",
        &[
            DATASET,
            WIRE,
            FO,
            (
                "crates/server/src/good.rs",
                "fn ok(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let raw = d.row(0);\n\
                     let report = perturb(raw[0], 7);\n\
                     let reports = vec![report];\n\
                     encode_reports(buf, &reports);\n\
                 }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    assert!(
        by_rule(&rep.findings, "privacy-taint").is_empty(),
        "{:?}",
        rep.findings
    );
}

#[test]
fn taint_ok_waiver_is_catalogued_not_failing() {
    let root = fixture(
        "taint-waived",
        &[
            DATASET,
            WIRE,
            (
                "crates/server/src/waived.rs",
                "fn waived(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let raw = d.row(0);\n\
                     // TAINT-OK: synthetic fixture data, never user input.\n\
                     encode_reports(buf, raw);\n\
                 }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    assert!(
        by_rule(&rep.findings, "privacy-taint").is_empty(),
        "{:?}",
        rep.findings
    );
    assert_eq!(rep.taint_ok.len(), 1, "waiver must land in the catalogue");
}

#[test]
fn stale_taint_ok_is_rejected() {
    let root = fixture(
        "taint-stale",
        &[(
            "crates/server/src/stale.rs",
            "// TAINT-OK: suppresses nothing.\nfn fine() {}\n",
        )],
    );
    let rep = analyze_root(&root);
    assert_eq!(by_rule(&rep.findings, "taint-ok-stale").len(), 1);
}

/// Catalogue defense: a sanitizer-named fn outside the allowed crates
/// would silently bless un-perturbed flows — it is flagged at its
/// definition instead.
#[test]
fn sanitizer_alias_outside_allowed_crates_is_rejected() {
    let root = fixture(
        "taint-alias",
        &[(
            "crates/server/src/alias.rs",
            "pub fn perturb(x: u32) -> u32 { x }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert_eq!(by_rule(&rep.findings, "taint-catalogue").len(), 1);
}

// ----------------------------------------------------------------- locks

#[test]
fn lock_order_cycle_is_rejected() {
    let root = fixture(
        "locks-cycle",
        &[(
            "crates/server/src/locky.rs",
            "impl S {\n\
                 fn a(&self) { let g = self.base.lock(); let h = self.shard.lock(); h.n(); g.n(); }\n\
                 fn b(&self) { let g = self.shard.lock(); let h = self.base.lock(); h.n(); g.n(); }\n\
             }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert!(
        !by_rule(&rep.findings, "lock-order").is_empty(),
        "{:?}",
        rep.findings
    );
}

#[test]
fn consistent_lock_order_is_accepted() {
    let root = fixture(
        "locks-clean",
        &[(
            "crates/server/src/locky.rs",
            "impl S {\n\
                 fn a(&self) { let g = self.base.lock(); let h = self.shard.lock(); h.n(); g.n(); }\n\
                 fn b(&self) { let g = self.base.lock(); let h = self.shard.lock(); h.n(); g.n(); }\n\
             }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert!(
        by_rule(&rep.findings, "lock-order").is_empty(),
        "{:?}",
        rep.findings
    );
}

// ----------------------------------------------------------------- arith

#[test]
fn bare_add_in_merge_path_is_rejected() {
    let root = fixture(
        "arith-bad",
        &[(
            "crates/felip/src/agg.rs",
            "impl Agg { pub fn merge(&mut self, o: &Agg) { self.n += o.n; } }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert_eq!(by_rule(&rep.findings, "checked-arith").len(), 1);
}

#[test]
fn checked_add_in_merge_path_is_accepted() {
    let root = fixture(
        "arith-good",
        &[(
            "crates/felip/src/agg.rs",
            "impl Agg { pub fn merge(&mut self, o: &Agg) -> Option<()> { \
             self.n = self.n.checked_add(o.n)?; Some(()) } }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert!(
        by_rule(&rep.findings, "checked-arith").is_empty(),
        "{:?}",
        rep.findings
    );
}

#[test]
fn wrapping_add_without_justification_is_rejected() {
    let root = fixture(
        "arith-wrap",
        &[(
            "crates/fo/src/k.rs",
            "fn accumulate(c: &mut [u64]) { c[0] = c[0].wrapping_add(1); }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert_eq!(by_rule(&rep.findings, "checked-arith").len(), 1);
}

// ------------------------------------------------------- token-rule ports

#[test]
fn unwrap_in_server_is_rejected() {
    let root = fixture(
        "rules-panic",
        &[
            (
                "crates/server/src/u.rs",
                "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
            // A file claimed by a test-gated `mod x;` is never analyzed.
            (
                "crates/server/src/lib.rs",
                "#[cfg(all(test, feature = \"model\"))]\nmod model_tests;\npub mod u;\n",
            ),
            (
                "crates/server/src/model_tests.rs",
                "fn t() { Some(1).unwrap(); panic!(\"test-only\"); std::thread::yield_now(); }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    let hits = by_rule(&rep.findings, "no-panic");
    assert_eq!(hits.len(), 1, "{:?}", rep.findings);
    assert!(hits[0].file.ends_with("u.rs"));
    assert!(
        rep.findings
            .iter()
            .all(|f| !f.file.ends_with("model_tests.rs")),
        "gated module file was analyzed: {:?}",
        rep.findings
    );
}

#[test]
fn token_rules_fire_with_file_and_line() {
    let root = fixture(
        "rules-ports",
        &[
            (
                "crates/cluster/src/s.rs",
                "fn f() {}\nfn g() { std::thread::spawn(|| {}); }\n",
            ),
            // Outside server/cluster raw std::sync is allowed.
            (
                "crates/fo/src/fine.rs",
                "use std::sync::Arc;\nfn g() -> Arc<u32> { Arc::new(1) }\n",
            ),
            (
                "crates/fo/src/kernels.rs",
                "// SAFETY: feature detected by the caller.\n\
                 #[target_feature(enable = \"avx2\")]\n\
                 unsafe fn ok() {}\n\
                 \n\
                 unsafe fn bad() {}\n",
            ),
            // The reactor module may speak the raw kernel ABI…
            (
                "crates/server/src/reactor.rs",
                "// SAFETY: fixture.\nunsafe fn w() { epoll_wait(); sched_setaffinity(); }\n",
            ),
            // …nothing else may, but prose and strings never count.
            (
                "crates/bench/src/sneaky.rs",
                "// mentioning epoll_wait in prose is fine\n\
                 fn f() {\n    let _ = \"epoll_wait asm!(\";\n    epoll_ctl();\n}\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    for (rule, file, line) in [
        ("sync-shims", "crates/cluster/src/s.rs", 2),
        ("safety-comments", "crates/fo/src/kernels.rs", 5),
        ("reactor-syscalls", "crates/bench/src/sneaky.rs", 4),
    ] {
        let hits = by_rule(&rep.findings, rule);
        assert_eq!(hits.len(), 1, "{rule}: {:?}", rep.findings);
        assert_eq!((hits[0].file.to_str(), hits[0].line), (Some(file), line));
    }
}

// ------------------------------------------------- content-anchored rules

/// The golden files, catalogue and emitter a fixture needs so the
/// content-anchored rules have nothing to say.
const GOLDEN_BASE: [(&str, &str); 4] = [
    (
        "crates/server/src/wire.rs",
        "pub const MAGIC: u32 = u32::from_le_bytes(*b\"FELP\");\n\
         pub const VERSION: u8 = 5;\n\
         enum FrameKind {\n    Delta = 7,\n    DeltaAck = 8,\n    \
         Query = 9,\n    QueryReply = 10,\n}\n",
    ),
    (
        "crates/cluster/src/state.rs",
        "pub const CLUSTER_MAGIC: u32 = u32::from_le_bytes(*b\"FCLU\");\n\
         pub const CLUSTER_VERSION: u8 = 1;\n",
    ),
    (
        "crates/server/src/snapshot.rs",
        "pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b\"FSNP\");\n\
         pub const SNAPSHOT_VERSION: u8 = 2;\n",
    ),
    (
        "crates/felip/src/plan.rs",
        "fn schema_hash() -> u64 { fold(0, 0x4645_4c49_505f_4831) }\n\
         fn emit() { felip_obs::counter!(\"server.accept\", 1, \"conns\"); }\n",
    ),
];

const CATALOGUE: &str = "## 11. Observability\n\n**Metric catalogue.**\n\n\
     | name | type (unit) | meaning |\n|---|---|---|\n\
     | `server.accept` | counter (conns) | accepted connections |\n";

#[test]
fn golden_constants_pass_clean_and_catch_drift() {
    let mut files = GOLDEN_BASE.to_vec();
    files.push(("DESIGN.md", CATALOGUE));
    let rep = analyze_root(&fixture("golden-clean", &files));
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);

    // Drifted magic and version, removed query verbs, missing snapshot.rs.
    files[0].1 = "pub const MAGIC: u32 = u32::from_le_bytes(*b\"XXXX\");\n\
                  pub const VERSION: u8 = 9;\n\
                  enum FrameKind {\n    Delta = 7,\n    DeltaAck = 8,\n}\n";
    files.remove(2);
    let rep = analyze_root(&fixture("golden-drift", &files));
    let got: Vec<String> = by_rule(&rep.findings, "golden-constants")
        .iter()
        .map(|f| f.to_string())
        .collect();
    assert_eq!(got.len(), 6, "{got:?}");
    for want in [
        "crates/server/src/wire.rs:1: [golden-constants] `pub const MAGIC` drifted",
        "crates/server/src/wire.rs:2: [golden-constants] `pub const VERSION` drifted",
        "crates/server/src/wire.rs:1: [golden-constants] golden constant `Query =` removed",
        "crates/server/src/wire.rs:1: [golden-constants] golden constant `QueryReply =` removed",
        "crates/server/src/snapshot.rs:1: [golden-constants] file missing — golden constant \
         `pub const SNAPSHOT_MAGIC`",
        "crates/server/src/snapshot.rs:1: [golden-constants] file missing — golden constant \
         `pub const SNAPSHOT_VERSION`",
    ] {
        assert!(
            got.iter().any(|m| m.starts_with(want)),
            "missing {want:?} in {got:?}"
        );
    }
}

#[test]
fn metric_registry_checks_both_directions() {
    let mut files = GOLDEN_BASE.to_vec();
    // The catalogue lists a metric that is never emitted…
    let design = format!("{CATALOGUE}| `ghost.metric` | counter | never emitted |\n");
    files.push(("DESIGN.md", &design));
    // …while code emits two that are not catalogued, one of them with
    // its name on a later line of the call.
    files.push((
        "crates/grid/src/x.rs",
        "fn f() { felip_obs::hist!(\"grid.unregistered\", 1, \"items\"); }\n",
    ));
    files.push((
        "crates/grid/src/y.rs",
        "fn f() {\n    felip_obs::hist!(\n        \"grid.wrapped\",\n        1,\n        \"items\",\n    );\n}\n",
    ));
    let rep = analyze_root(&fixture("metrics", &files));
    let got: Vec<String> = by_rule(&rep.findings, "metric-registry")
        .iter()
        .map(|f| f.to_string())
        .collect();
    assert_eq!(got.len(), 3, "{got:?}");
    for want in [
        "DESIGN.md:8: [metric-registry] metric `ghost.metric`",
        "crates/grid/src/x.rs:1: [metric-registry] metric `grid.unregistered`",
        "crates/grid/src/y.rs:3: [metric-registry] metric `grid.wrapped`",
    ] {
        assert!(
            got.iter().any(|m| m.starts_with(want)),
            "missing {want:?} in {got:?}"
        );
    }
}

// ------------------------------------------------------- driver plumbing

#[test]
fn lex_failure_is_a_coverage_hole_finding() {
    let root = fixture(
        "lex-hole",
        &[(
            "crates/server/src/broken.rs",
            "fn f() { let s = \"unterminated; }\n",
        )],
    );
    let rep = analyze_root(&root);
    assert_eq!(by_rule(&rep.findings, "lex").len(), 1);
}

#[test]
fn unknown_subcommand_exits_with_usage_code() {
    for argv in [&["frobnicate"][..], &["--format", "json"], &[]] {
        assert_eq!(
            xtask::run(argv.iter().map(|a| a.to_string())),
            2,
            "{argv:?}"
        );
    }
}

#[test]
fn json_output_carries_findings_and_traces() {
    let root = fixture(
        "json-out",
        &[
            DATASET,
            WIRE,
            (
                "crates/server/src/bad.rs",
                "fn leak(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let raw = d.row(0);\n\
                     encode_reports(buf, raw);\n\
                 }\n",
            ),
        ],
    );
    let rep = analyze_root(&root);
    let j = to_json(&rep);
    assert!(j.starts_with("{\"t\":\"analyze\",\"version\":1,"), "{j}");
    assert!(j.contains("\"rule\":\"privacy-taint\""), "{j}");
    assert!(
        j.contains("\"trace\":[\""),
        "taint finding should carry a trace: {j}"
    );
}
