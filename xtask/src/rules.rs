//! The six repo rules of DESIGN.md §18 (R1–R6), run by `xtask analyze`
//! beside the taint, lock-order and arith passes.
//!
//! Five of them work on the token tree: a `Str` token can never trip
//! `panic!(`, `forbid(unsafe_code)` is three tokens none of which is the
//! `unsafe` keyword, and test gating is the item tree's `#[cfg(test)]`
//! scopes. The other one — golden-constants (R4) — checks a constant's
//! anchored source line, so it reads those files directly: tokens add
//! nothing there.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::analyze::Finding;
use crate::lex::TokKind;
use crate::tree::{SourceFile, Workspace};

/// Sig-index ranges gated by `#[cfg(…test…)]` / `#[test]` in one file:
/// an attribute that gates tests claims the next braced block.
fn test_ranges(f: &SourceFile) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    let n = f.len();
    let mut pending_test = false;
    while i < n {
        if f.is_punct(i, "#") {
            let mut j = i + 1;
            if f.is_punct(j, "!") {
                j += 1;
            }
            if f.is_punct(j, "[") && f.close_of[j] != usize::MAX {
                let close = f.close_of[j];
                let text: Vec<&str> = (i..=close).map(|k| f.txt(k)).collect();
                let attr = text.join(" ");
                if attr.contains("test") && !attr.contains("not ( test") {
                    pending_test = true;
                }
                i = close + 1;
                continue;
            }
        }
        if pending_test {
            if f.is_punct(i, ";") {
                pending_test = false; // `mod x;` — handled at load time
            } else if f.is_punct(i, "{") && f.close_of[i] != usize::MAX {
                out.push((i, f.close_of[i]));
                pending_test = false;
            }
        }
        i += 1;
    }
    out
}

fn in_test(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| (a..=b).contains(&i))
}

pub fn run(ws: &Workspace, root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        let ranges = test_ranges(f);
        no_panic(f, &ranges, &mut out);
        sync_shims(f, &ranges, &mut out);
        safety_comments(f, &mut out);
        reactor_syscalls(f, &mut out);
    }
    metric_registry(ws, root, &mut out);
    golden_constants(root, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// R1: no `.unwrap()` / `.expect(` / `panic!(` in non-test ingestion-path
/// code (`server`, `fo`, `cli`, `cluster`).
fn no_panic(f: &SourceFile, ranges: &[(usize, usize)], out: &mut Vec<Finding>) {
    if !matches!(f.crate_name.as_str(), "server" | "fo" | "cli" | "cluster") {
        return;
    }
    for i in 0..f.len() {
        if f.tok(i).kind != TokKind::Ident || in_test(ranges, i) {
            continue;
        }
        let t = f.txt(i);
        let why = match t {
            "unwrap" if i > 0 && f.is_punct(i - 1, ".") && f.is_punct(i + 1, "(") => {
                Some("`unwrap()` aborts on Err/None")
            }
            "expect" if i > 0 && f.is_punct(i - 1, ".") && f.is_punct(i + 1, "(") => {
                Some("`expect()` aborts on Err/None")
            }
            "panic" if f.is_punct(i + 1, "!") && f.is_punct(i + 2, "(") => {
                Some("`panic!` aborts the worker")
            }
            _ => None,
        };
        if let Some(why) = why {
            out.push(Finding {
                file: f.path.clone(),
                line: f.line(i),
                rule: "no-panic",
                message: format!("{why} in non-test ingestion-path code; return a typed error"),
                trace: Vec::new(),
            });
        }
    }
}

/// R2: no raw `std::sync` / `std::thread` in `server` / `cluster` — every
/// synchronization point goes through the `felip-sync` shims.
fn sync_shims(f: &SourceFile, ranges: &[(usize, usize)], out: &mut Vec<Finding>) {
    if !matches!(f.crate_name.as_str(), "server" | "cluster") {
        return;
    }
    for i in 0..f.len() {
        if !f.is_ident(i, "std") || !f.is_punct(i + 1, "::") || in_test(ranges, i) {
            continue;
        }
        if i + 2 < f.len() && (f.is_ident(i + 2, "sync") || f.is_ident(i + 2, "thread")) {
            out.push(Finding {
                file: f.path.clone(),
                line: f.line(i),
                rule: "sync-shims",
                message: format!(
                    "raw `std::{}` in crates/{} — route it through `felip_sync` so the \
                     model checker can schedule it",
                    f.txt(i + 2),
                    f.crate_name
                ),
                trace: Vec::new(),
            });
        }
    }
}

/// R3: every `unsafe` keyword token has a `// SAFETY:` comment on its line
/// or in the comment block directly above (attribute lines allowed in
/// between). Tokenization makes `forbid(unsafe_code)` a non-issue.
fn safety_comments(f: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..f.len() {
        if !f.is_ident(i, "unsafe") {
            continue;
        }
        let line = f.line(i);
        if !f.comment_above_contains(line, "SAFETY:") {
            out.push(Finding {
                file: f.path.clone(),
                line,
                rule: "safety-comments",
                message: "`unsafe` without a preceding `// SAFETY:` comment justifying why \
                          the contract holds"
                    .to_string(),
                trace: Vec::new(),
            });
        }
    }
}

/// R6: raw syscall plumbing (`epoll_*`, `sched_*affinity`, inline `asm!`)
/// appears only in `crates/server/src/reactor.rs`.
fn reactor_syscalls(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.path == Path::new("crates/server/src/reactor.rs") {
        return;
    }
    for i in 0..f.len() {
        if f.tok(i).kind != TokKind::Ident {
            continue;
        }
        let t = f.txt(i);
        let hit = t.starts_with("epoll_")
            || t == "sched_setaffinity"
            || t == "sched_getaffinity"
            || (t == "asm" && f.is_punct(i + 1, "!") && f.is_punct(i + 2, "("));
        if hit {
            out.push(Finding {
                file: f.path.clone(),
                line: f.line(i),
                rule: "reactor-syscalls",
                message: format!(
                    "`{t}` outside crates/server/src/reactor.rs — all raw syscall \
                     plumbing lives in the reactor module (DESIGN.md §15)"
                ),
                trace: Vec::new(),
            });
        }
    }
}

/// The macro/function names that introduce a metric name (token form of
/// `felip_obs::<m>!(` call forms).
const METRIC_MACROS: &[&str] = &["counter", "gauge", "gauge_f64", "hist", "span"];

/// R5: metric/span names emitted in code equal the DESIGN.md §11 catalogue
/// in both directions. Emission sites are `felip_obs::<m>!("name", …)`,
/// `felip_obs::event("name", …)`, and `.span_child("name", …)`; the name
/// must be the first token after the paren.
fn metric_registry(ws: &Workspace, root: &Path, out: &mut Vec<Finding>) {
    let mut emitted: Vec<(String, std::path::PathBuf, u32)> = Vec::new();
    for f in &ws.files {
        if f.crate_name == "obs" {
            continue;
        }
        let ranges = test_ranges(f);
        for i in 0..f.len() {
            if in_test(&ranges, i) {
                continue;
            }
            let open = if f.is_ident(i, "felip_obs") && f.is_punct(i + 1, "::") {
                if i + 2 < f.len()
                    && METRIC_MACROS.contains(&f.txt(i + 2))
                    && f.is_punct(i + 3, "!")
                    && f.is_punct(i + 4, "(")
                {
                    Some(i + 4)
                } else if i + 2 < f.len() && f.is_ident(i + 2, "event") && f.is_punct(i + 3, "(") {
                    Some(i + 3)
                } else {
                    None
                }
            } else if i > 0
                && f.is_punct(i - 1, ".")
                && f.is_ident(i, "span_child")
                && f.is_punct(i + 1, "(")
            {
                Some(i + 1)
            } else {
                None
            };
            let Some(open) = open else { continue };
            if open + 1 < f.len() && f.tok(open + 1).kind == TokKind::Str {
                if let Some(name) = unquote(f.txt(open + 1)) {
                    emitted.push((name, f.path.clone(), f.line(open + 1)));
                }
            }
        }
    }
    let code_names: BTreeSet<&str> = emitted.iter().map(|(n, _, _)| n.as_str()).collect();

    let design = root.join("DESIGN.md");
    let Ok(text) = fs::read_to_string(&design) else {
        out.push(Finding {
            file: "DESIGN.md".into(),
            line: 1,
            rule: "metric-registry",
            message: "DESIGN.md missing — metric catalogue unverifiable".to_string(),
            trace: Vec::new(),
        });
        return;
    };
    let catalogue = parse_catalogue(&text);
    if catalogue.is_empty() {
        out.push(Finding {
            file: "DESIGN.md".into(),
            line: 1,
            rule: "metric-registry",
            message: "no metric-catalogue table rows found under §11".to_string(),
            trace: Vec::new(),
        });
        return;
    }
    let mut reported = BTreeSet::new();
    for (name, file, line) in &emitted {
        if !catalogue.contains_key(name.as_str()) && reported.insert(name.as_str()) {
            out.push(Finding {
                file: file.clone(),
                line: *line,
                rule: "metric-registry",
                message: format!(
                    "metric `{name}` emitted here but missing from the DESIGN.md §11 \
                     metric catalogue"
                ),
                trace: Vec::new(),
            });
        }
    }
    for (name, line) in &catalogue {
        if !code_names.contains(name.as_str()) {
            out.push(Finding {
                file: "DESIGN.md".into(),
                line: *line as u32,
                rule: "metric-registry",
                message: format!("metric `{name}` catalogued in §11 but never emitted in code"),
                trace: Vec::new(),
            });
        }
    }
}

/// Backticked names from the first column of the table that follows the
/// `**Metric catalogue.**` marker in §11 (other §11 tables — e.g. the
/// trace schema — are not catalogues). Returns name → line number.
fn parse_catalogue(design: &str) -> BTreeMap<String, usize> {
    let mut names = BTreeMap::new();
    let mut in_section = false;
    let mut in_table = false;
    for (i, line) in design.lines().enumerate() {
        if let Some(h) = line.strip_prefix("## ") {
            in_section = h.starts_with("11");
            in_table = false;
            continue;
        }
        if !in_section {
            continue;
        }
        if line.contains("**Metric catalogue.**") {
            in_table = true;
            continue;
        }
        let t = line.trim();
        if !in_table || !t.starts_with('|') {
            if in_table && !t.is_empty() && !t.starts_with('|') {
                in_table = false; // prose after the table ends it
            }
            continue;
        }
        let first_cell = t.trim_start_matches('|').split('|').next().unwrap_or("");
        let mut rest = first_cell;
        while let Some(open) = rest.find('`') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('`') else { break };
            let name = &after[..close];
            if !name.is_empty() {
                names.entry(name.to_string()).or_insert(i + 1);
            }
            rest = &after[close + 1..];
        }
    }
    names
}

/// R4 table, `(file, anchor, expected-fragment)`: the first line
/// containing `anchor` must also contain `expected`. A missing anchor
/// (constant removed or renamed) is equally a drift.
const GOLDEN: [(&str, &str, &str); 11] = [
    (
        "crates/server/src/wire.rs",
        "pub const MAGIC",
        "u32::from_le_bytes(*b\"FELP\")",
    ),
    (
        "crates/server/src/wire.rs",
        "pub const VERSION",
        ": u8 = 5;",
    ),
    // The cluster verbs' frame-kind discriminants: ingest nodes and
    // aggregators of mixed builds interoperate only if these never move.
    ("crates/server/src/wire.rs", "Delta =", "= 7,"),
    ("crates/server/src/wire.rs", "DeltaAck =", "= 8,"),
    // The online-query verbs (wire v5): clients and servers of mixed
    // builds interoperate only if these never move.
    ("crates/server/src/wire.rs", "Query =", "= 9,"),
    ("crates/server/src/wire.rs", "QueryReply =", "= 10,"),
    (
        "crates/cluster/src/state.rs",
        "pub const CLUSTER_MAGIC",
        "u32::from_le_bytes(*b\"FCLU\")",
    ),
    (
        "crates/cluster/src/state.rs",
        "pub const CLUSTER_VERSION",
        ": u8 = 1;",
    ),
    (
        "crates/server/src/snapshot.rs",
        "pub const SNAPSHOT_MAGIC",
        "u32::from_le_bytes(*b\"FSNP\")",
    ),
    (
        "crates/server/src/snapshot.rs",
        "pub const SNAPSHOT_VERSION",
        ": u8 = 2;",
    ),
    (
        "crates/felip/src/plan.rs",
        "fold(0, 0x",
        "0x4645_4c49_505f_4831", // "FELIP_H1" — the schema_hash domain tag
    ),
];

/// R4: wire/snapshot magic numbers, protocol versions and the
/// `schema_hash` domain tag must not drift — changing any of them
/// silently invalidates every snapshot and client in the field.
fn golden_constants(root: &Path, out: &mut Vec<Finding>) {
    for (file, anchor, expected) in GOLDEN {
        let Ok(src) = fs::read_to_string(root.join(file)) else {
            out.push(Finding {
                file: file.into(),
                line: 1,
                rule: "golden-constants",
                message: format!("file missing — golden constant `{anchor}` unverifiable"),
                trace: Vec::new(),
            });
            continue;
        };
        let (line, message) = match src.lines().enumerate().find(|(_, l)| l.contains(anchor)) {
            Some((_, l)) if l.contains(expected) => continue,
            Some((i, _)) => (
                i + 1,
                format!(
                    "`{anchor}` drifted from golden value `{expected}` — changing it \
                     invalidates deployed snapshots/clients; if intentional, bump the \
                     format version and update `GOLDEN` in xtask/src/rules.rs in the \
                     same change"
                ),
            ),
            None => (1, format!("golden constant `{anchor}` removed or renamed")),
        };
        out.push(Finding {
            file: file.into(),
            line: line as u32,
            rule: "golden-constants",
            message,
            trace: Vec::new(),
        });
    }
}

/// The content of a plain `"…"` string-literal token.
fn unquote(t: &str) -> Option<String> {
    let inner = t.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Workspace;

    fn findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let w = Workspace::from_sources(files);
        let mut out = Vec::new();
        for f in &w.files {
            let ranges = test_ranges(f);
            no_panic(f, &ranges, &mut out);
            sync_shims(f, &ranges, &mut out);
            safety_comments(f, &mut out);
            reactor_syscalls(f, &mut out);
        }
        out
    }

    #[test]
    fn unwrap_in_server_is_flagged_but_not_in_strings() {
        let out = findings(&[(
            "crates/server/src/a.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
             fn g() -> &'static str { \"don't .unwrap() me\" }\n",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "no-panic");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn unwrap_in_test_mod_is_allowed() {
        let out = findings(&[(
            "crates/server/src/a.rs",
            "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn std_sync_in_cluster_is_flagged() {
        let out = findings(&[("crates/cluster/src/a.rs", "use std::sync::Mutex;\n")]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "sync-shims");
    }

    #[test]
    fn unsafe_needs_safety_comment_but_forbid_attr_does_not() {
        let out = findings(&[(
            "crates/common/src/a.rs",
            "#![forbid(unsafe_code)]\nfn f() { let p = 0 as *const u8; \
             let _ = unsafe { *p }; }\n",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "safety-comments");
        let ok = findings(&[(
            "crates/common/src/b.rs",
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees validity.\n    \
             unsafe { *p }\n}\n",
        )]);
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn epoll_outside_reactor_is_flagged() {
        let out = findings(&[("crates/cluster/src/a.rs", "fn f() { epoll_wait(); }\n")]);
        assert!(out.iter().any(|f| f.rule == "reactor-syscalls"), "{out:?}");
        let ok = findings(&[("crates/server/src/reactor.rs", "fn f() { epoll_wait(); }\n")]);
        assert!(ok.iter().all(|f| f.rule != "reactor-syscalls"), "{ok:?}");
    }

    #[test]
    fn panic_in_doc_comment_is_ignored() {
        let out = findings(&[(
            "crates/fo/src/a.rs",
            "/// Never call `panic!(...)` here.\nfn f() {}\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }
}
