//! The privacy-taint pass (DESIGN.md §18): raw user values must never
//! reach a wire/snapshot/log sink without passing a perturbation
//! sanitizer.
//!
//! Taint is seeded at *sources* (dataset readers — the only place raw
//! records materialize), killed at *sanitizers* (each FO's `perturb`, the
//! client `respond` path, and `Query::true_answer`, the data-owner's
//! evaluation-only ground truth), and flagged when it reaches a *sink*
//! (wire encoders, frame builders, snapshot writers, `felip_obs::diag`
//! lines, flight-ring records).
//!
//! The engine is a name-resolved interprocedural dataflow: every function
//! gets a summary — a bitmask saying which parameters (bit 0 = `self`)
//! flow to its return value and which flow into a sink inside it — and
//! summaries are iterated to a fixpoint before a final reporting walk.
//! Unknown callees conservatively propagate the union of their argument
//! taints to their return value. `// TAINT-OK: <why>` on or directly
//! above a flagged line suppresses the finding and is itself catalogued;
//! a `TAINT-OK` that suppresses nothing is flagged as stale.

use std::collections::BTreeMap;

use crate::analyze::Finding;
use crate::lex::TokKind;
use crate::tree::{SourceFile, Workspace};

/// Bit marking "definitely raw" taint (vs. parameter-relative bits).
const SRC: u64 = 1 << 62;

/// Dataset readers: the calls where raw per-user values materialize.
/// (`crates/datasets` generators return whole `Dataset` containers; every
/// value *read* goes through these accessors, so seeding here covers them.)
const SOURCE_FNS: &[&str] = &["row", "rows", "value", "flat"];

/// Crates allowed to define fns with source names. Resolution is by name,
/// so a `fn value()` elsewhere would silently widen the taint seeding —
/// the pass flags such aliases instead of guessing (see `run`).
const SOURCE_CRATES: &[&str] = &["common", "datasets"];

/// Crates allowed to define sanitizer-named fns. An alias here is worse
/// than a source alias: it would silently *bless* un-perturbed flows.
const SANITIZER_CRATES: &[&str] = &["fo", "felip", "common", "baselines"];

/// Calls whose result is clean regardless of argument taint: the ε-LDP
/// perturbation path (`perturb`, `respond`) and the data-owner's
/// evaluation-only ground truth (`true_answer`), released by the party
/// that holds the raw data anyway (MAE/figure pipelines).
const SANITIZERS: &[&str] = &["perturb", "respond", "true_answer"];

/// Sink names and the crates allowed to define them. A call counts as a
/// sink only if a function of that name is actually defined in one of the
/// listed crates (name-and-signature resolution — keeps `encode_category`
/// in `datasets` from aliasing with the wire encoders).
const SINKS: &[(&str, &[&str])] = &[
    ("encode_reports", &["server"]),
    ("encode_batch", &["server"]),
    ("encode_ack", &["server"]),
    ("encode_retry", &["server"]),
    ("encode_delta", &["server"]),
    ("encode_delta_ack", &["server"]),
    ("encode_query", &["server"]),
    ("encode_query_reply", &["server"]),
    ("encode_hello", &["server"]),
    ("encode_stat", &["server"]),
    ("append_frame", &["server"]),
    ("append_frame_versioned", &["server"]),
    ("write_frame", &["server"]),
    ("encode", &["server", "cluster"]),
    ("encode_into", &["server"]),
    ("capture", &["server"]),
    ("capture_with_dedup", &["server"]),
    ("write_file_verified", &["server"]),
    ("write_verified", &["server", "cluster"]),
    ("line", &["obs"]),
    ("warn", &["obs"]),
    ("error", &["obs"]),
    ("usage_exit", &["obs"]),
    ("record", &["obs"]),
];

/// Per-function dataflow summary over parameter bits (bit 0 = `self` when
/// the fn has a receiver; SRC marks unconditional raw taint).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Summary {
    /// Parameter bits (and/or SRC) that flow into the return value.
    ret: u64,
    /// Parameter bits that flow into a sink inside this fn (transitively).
    to_sink: u64,
}

/// A (mask, origin-trace) pair — the unit the evaluator propagates.
#[derive(Debug, Clone, Default)]
struct Taint {
    mask: u64,
    /// Up to a few `file:line: why` steps explaining where SRC came from.
    trace: Vec<String>,
}

impl Taint {
    fn clean() -> Taint {
        Taint::default()
    }

    fn or(&mut self, other: &Taint) {
        self.mask |= other.mask;
        for t in &other.trace {
            if self.trace.len() >= 6 {
                break;
            }
            if !self.trace.contains(t) {
                self.trace.push(t.clone());
            }
        }
    }

    fn tainted(&self) -> bool {
        self.mask != 0
    }
}

/// Everything the evaluator needs while walking one function body.
struct Ctx<'a> {
    ws: &'a Workspace,
    f: &'a SourceFile,
    /// Variable name → taint, flat per function (no shadowing model).
    env: BTreeMap<String, Taint>,
    /// This fn's in-progress summary updates.
    ret: u64,
    to_sink: u64,
    /// Only the final (post-fixpoint) walk emits findings.
    report: bool,
    findings: Vec<Finding>,
    /// Suppressed findings (line, message) — the TAINT-OK catalogue.
    suppressed: Vec<Finding>,
}

/// The pass result: violations plus the catalogued escape hatches.
#[derive(Debug, Default)]
pub struct TaintReport {
    pub findings: Vec<Finding>,
    /// Findings suppressed by a `// TAINT-OK:` comment, catalogued so the
    /// escape hatch is visible in review and in the JSON output.
    pub taint_ok: Vec<Finding>,
}

/// Runs the privacy-taint pass over the workspace.
pub fn run(ws: &Workspace) -> TaintReport {
    let mut catalogue_findings = Vec::new();
    // Catalogue defense: the evaluator resolves sources and sanitizers by
    // bare name, so a same-named fn in an unrelated crate would silently
    // widen the seeding (source alias) or bless raw flows (sanitizer
    // alias). Flag the alias at its definition instead of guessing.
    for (names, crates, what) in [
        (SOURCE_FNS, SOURCE_CRATES, "source"),
        (SANITIZERS, SANITIZER_CRATES, "sanitizer"),
    ] {
        for name in names {
            for &id in ws.fns_named(name) {
                let fd = &ws.fns[id];
                if !fd.is_test && !crates.contains(&fd.crate_name.as_str()) {
                    catalogue_findings.push(Finding {
                        file: ws.files[fd.file].path.clone(),
                        line: fd.line,
                        rule: "taint-catalogue",
                        message: format!(
                            "`fn {name}` in crate `{}` aliases the taint {what} of the same \
                             name — rename it, or extend the analyzer catalogue if it really \
                             is one",
                            fd.crate_name
                        ),
                        trace: Vec::new(),
                    });
                }
            }
        }
    }
    // Fixpoint over function summaries: monotone |= on two u64s per fn,
    // so this terminates; 20 rounds is far beyond the call-graph depth.
    let mut summaries: Vec<Summary> = vec![Summary::default(); ws.fns.len()];
    for _ in 0..20 {
        let mut changed = false;
        for id in 0..ws.fns.len() {
            let (ret, to_sink) = analyze_fn(ws, id, &summaries, false)
                .map(|ctx| (ctx.ret, ctx.to_sink))
                .unwrap_or((0, 0));
            let s = &mut summaries[id];
            let next = Summary {
                ret: s.ret | ret,
                to_sink: s.to_sink | to_sink,
            };
            if next != *s {
                *s = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Reporting walk: only non-test fns outside the sanitizers themselves
    // (a sanitizer consumes raw values by definition).
    let mut report = TaintReport::default();
    report.findings.append(&mut catalogue_findings);
    for id in 0..ws.fns.len() {
        let fndef = &ws.fns[id];
        if fndef.is_test || SANITIZERS.contains(&fndef.name.as_str()) {
            continue;
        }
        if let Some(ctx) = analyze_fn(ws, id, &summaries, true) {
            report.findings.extend(ctx.findings);
            report.taint_ok.extend(ctx.suppressed);
        }
    }

    // Stale TAINT-OK detection: every TAINT-OK comment line must have
    // suppressed at least one finding.
    let used: Vec<(&std::path::PathBuf, u32)> =
        report.taint_ok.iter().map(|f| (&f.file, f.line)).collect();
    for file in &ws.files {
        for (&line, text) in &file.comments {
            if !text.contains("TAINT-OK:") {
                continue;
            }
            // The comment may sit on the flagged line or on the lines
            // above it: accept if any suppression within 3 lines below.
            let hit = used
                .iter()
                .any(|(p, l)| *p == &file.path && (line..=line + 3).contains(l));
            if !hit {
                report.findings.push(Finding {
                    file: file.path.clone(),
                    line,
                    rule: "taint-ok-stale",
                    message: "`TAINT-OK:` comment suppresses no taint finding — remove it \
                              or move it to the flagged line"
                        .to_string(),
                    trace: Vec::new(),
                });
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Walks one fn body, returning its context (None when there is no body).
fn analyze_fn<'a>(
    ws: &'a Workspace,
    id: usize,
    summaries: &[Summary],
    report: bool,
) -> Option<Ctx<'a>> {
    let fndef = &ws.fns[id];
    let (open, close) = fndef.body?;
    let f = &ws.files[fndef.file];
    let mut env = BTreeMap::new();
    let base = usize::from(fndef.has_self);
    if fndef.has_self {
        env.insert(
            "self".to_string(),
            Taint {
                mask: 1,
                trace: Vec::new(),
            },
        );
    }
    for (i, p) in fndef.params.iter().enumerate() {
        env.insert(
            p.name.clone(),
            Taint {
                mask: 1u64 << (i + base).min(60),
                trace: Vec::new(),
            },
        );
    }
    let mut ctx = Ctx {
        ws,
        f,
        env,
        ret: 0,
        to_sink: 0,
        report,
        findings: Vec::new(),
        suppressed: Vec::new(),
    };
    let ret = walk_block(&mut ctx, summaries, open + 1, close, true);
    ctx.ret |= ret.mask;
    Some(ctx)
}

/// Processes the statements of a block; returns the trailing-expr taint
/// when `value_position` (the block's value flows outward).
fn walk_block(
    ctx: &mut Ctx<'_>,
    summaries: &[Summary],
    a: usize,
    b: usize,
    value_position: bool,
) -> Taint {
    let mut i = a;
    let mut last = Taint::clean();
    while i < b {
        // Skip attributes and nested items the tree walker owns.
        if ctx.f.is_punct(i, "#") {
            let mut j = i + 1;
            if ctx.f.is_punct(j, "!") {
                j += 1;
            }
            if ctx.f.is_punct(j, "[") && ctx.f.close_of[j] != usize::MAX {
                i = ctx.f.close_of[j] + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if ctx.f.is_ident(i, "fn") {
            // Nested fn: analyzed as its own FnDef; skip its body here.
            let mut j = i;
            while j < b && !ctx.f.is_punct(j, "{") && !ctx.f.is_punct(j, ";") {
                j += 1;
            }
            i = if j < b && ctx.f.is_punct(j, "{") && ctx.f.close_of[j] != usize::MAX {
                ctx.f.close_of[j] + 1
            } else {
                j + 1
            };
            continue;
        }
        // Find the end of this statement: `;` at depth 0, or a top-level
        // block (control flow), or the block end.
        let (stmt_end, kind) = stmt_extent(ctx.f, i, b);
        match kind {
            StmtKind::Semi => {
                process_stmt(ctx, summaries, i, stmt_end, false);
                last = Taint::clean();
                i = stmt_end + 1;
            }
            StmtKind::Block(open) => {
                let close = ctx.f.close_of[open];
                let close = if close == usize::MAX || close > b {
                    b
                } else {
                    close
                };
                process_block_stmt(ctx, summaries, i, open, close);
                last = Taint::clean();
                i = close + 1;
                // `if {} else {}` / `else if` chains continue the statement.
                while ctx.f.is_ident(i, "else") {
                    let (e2, k2) = stmt_extent(ctx.f, i + 1, b);
                    match k2 {
                        StmtKind::Block(o2) => {
                            let c2 = ctx.f.close_of[o2];
                            let c2 = if c2 == usize::MAX || c2 > b { b } else { c2 };
                            process_block_stmt(ctx, summaries, i + 1, o2, c2);
                            i = c2 + 1;
                        }
                        _ => {
                            process_stmt(ctx, summaries, i + 1, e2, false);
                            i = e2 + 1;
                        }
                    }
                }
            }
            StmtKind::Trailing => {
                last = process_stmt(ctx, summaries, i, stmt_end, value_position);
                i = stmt_end;
            }
        }
    }
    last
}

enum StmtKind {
    /// Ends with `;` at `stmt_end`.
    Semi,
    /// Contains a top-level `{` at the given sig index (control flow).
    Block(usize),
    /// Runs to the end of the enclosing block (trailing expression).
    Trailing,
}

/// Scans from `i` for the statement boundary.
fn stmt_extent(f: &SourceFile, i: usize, b: usize) -> (usize, StmtKind) {
    let mut depth = 0i32;
    let mut j = i;
    // `let … = match/if/loop { … }` statements: a `{` after `=` belongs to
    // the RHS expression, which `eval` handles inline — only `{` before
    // any top-level `=` opens a control-flow block.
    let mut saw_assign = false;
    while j < b {
        match f.txt(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "=" | "+=" | "-=" if depth == 0 => saw_assign = true,
            ";" if depth == 0 => return (j, StmtKind::Semi),
            "{" if depth == 0 && !saw_assign => return (j, StmtKind::Block(j)),
            "{" if depth == 0 && saw_assign => {
                // Part of the RHS: skip over the braced expression.
                let c = f.close_of[j];
                if c == usize::MAX || c >= b {
                    return (b, StmtKind::Trailing);
                }
                j = c;
            }
            _ => {}
        }
        j += 1;
    }
    (b, StmtKind::Trailing)
}

/// A statement whose top level is a control-flow block:
/// `if`/`while`/`for`/`loop`/`match`/`unsafe`/bare block.
fn process_block_stmt(
    ctx: &mut Ctx<'_>,
    summaries: &[Summary],
    start: usize,
    open: usize,
    close: usize,
) {
    let f = ctx.f;
    if f.is_ident(start, "for") {
        // `for <pat> in <expr> { … }` — bind pattern idents to the
        // iterated expression's taint (covers `for r in reports`).
        let mut k = start + 1;
        let mut depth = 0i32;
        let mut in_kw = open;
        while k < open {
            match f.txt(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "in" if depth == 0 => {
                    in_kw = k;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let m = eval(ctx, summaries, in_kw + 1, open);
        bind_pattern(ctx, start + 1, in_kw, &m);
    } else if f.is_ident(start, "match") {
        let m = eval(ctx, summaries, start + 1, open);
        walk_match_body(ctx, summaries, open + 1, close, &m);
        return;
    } else if f.is_ident(start, "if") || f.is_ident(start, "while") {
        // `if let <pat> = <expr>` binds; a plain condition just evaluates.
        let mut hdr = start + 1;
        if f.is_ident(hdr, "let") {
            // Pattern up to the top-level `=`.
            let mut k = hdr + 1;
            let mut depth = 0i32;
            let mut eq = open;
            while k < open {
                match f.txt(k) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "=" if depth == 0 => {
                        eq = k;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let m = eval(ctx, summaries, eq + 1, open);
            bind_pattern(ctx, hdr + 1, eq, &m);
            hdr = open; // header consumed
        }
        if hdr < open {
            eval(ctx, summaries, hdr, open);
        }
    } else if !f.is_ident(start, "loop") && !f.is_ident(start, "unsafe") && start < open {
        // Some other header expression (e.g. `thread::scope(|s| …)` is a
        // Semi statement; this arm is rare) — evaluate it for sink calls.
        eval(ctx, summaries, start, open);
    }
    walk_block(ctx, summaries, open + 1, close, false);
}

/// Walks `pat => expr` arms, binding pattern idents to the scrutinee mask.
fn walk_match_body(ctx: &mut Ctx<'_>, summaries: &[Summary], a: usize, b: usize, scrut: &Taint) {
    let f = ctx.f;
    let mut i = a;
    while i < b {
        // Pattern: tokens up to `=>` at depth 0.
        let mut depth = 0i32;
        let mut j = i;
        let mut arrow = b;
        while j < b {
            match f.txt(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=>" if depth == 0 => {
                    arrow = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if arrow >= b {
            // No more arms; evaluate the remainder defensively.
            eval(ctx, summaries, i, b);
            return;
        }
        bind_pattern(ctx, i, arrow, scrut);
        // Arm body: a block, or an expression up to `,` at depth 0.
        let body_start = arrow + 1;
        if f.is_punct(body_start, "{") && f.close_of[body_start] != usize::MAX {
            let c = f.close_of[body_start].min(b);
            walk_block(ctx, summaries, body_start + 1, c, false);
            i = c + 1;
            if f.is_punct(i, ",") {
                i += 1;
            }
        } else {
            let mut depth = 0i32;
            let mut k = body_start;
            while k < b {
                match f.txt(k) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let v = eval(ctx, summaries, body_start, k);
            ctx.ret |= 0; // arm values feed the match value via the caller's eval
            let _ = v;
            i = k + 1;
        }
    }
}

/// Binds every plain ident in a pattern range to `m` (enum constructor
/// names get bound too — harmless, they are never read as variables).
fn bind_pattern(ctx: &mut Ctx<'_>, a: usize, b: usize, m: &Taint) {
    if !m.tainted() {
        return;
    }
    for k in a..b {
        if ctx.f.tok(k).kind == TokKind::Ident {
            let t = ctx.f.txt(k);
            if matches!(t, "mut" | "ref" | "box" | "_") {
                continue;
            }
            ctx.env.entry(t.to_string()).or_default().or(m);
        }
    }
}

/// One `;`-terminated (or trailing) statement.
fn process_stmt(
    ctx: &mut Ctx<'_>,
    summaries: &[Summary],
    a: usize,
    b: usize,
    value_position: bool,
) -> Taint {
    let f = ctx.f;
    if a >= b {
        return Taint::clean();
    }
    if f.is_ident(a, "let") {
        // `let <pat>[: ty] = <expr>` — bind pattern idents to the RHS.
        let mut depth = 0i32;
        let mut eq = b;
        let mut colon = b;
        for k in a + 1..b {
            match f.txt(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ":" if depth == 0 && colon == b => colon = k,
                "=" if depth == 0 => {
                    eq = k;
                    break;
                }
                _ => {}
            }
        }
        if eq < b {
            let m = eval(ctx, summaries, eq + 1, b);
            bind_pattern(ctx, a + 1, colon.min(eq), &m);
        }
        return Taint::clean();
    }
    if f.is_ident(a, "return") {
        let m = eval(ctx, summaries, a + 1, b);
        ctx.ret |= m.mask;
        return Taint::clean();
    }
    // Assignment / compound assignment: `lhs = rhs`, `lhs += rhs`,
    // `lhs.push(rhs)`-style mutation is handled inside eval.
    let mut depth = 0i32;
    for k in a..b {
        match f.txt(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" | "+=" | "-=" | "*=" | "/=" | "|=" | "&=" | "^=" if depth == 0 => {
                let m = eval(ctx, summaries, k + 1, b);
                // Taint the root variable of the LHS place expression
                // (`buffers[g]` → buffers, `node.agg` → node).
                if m.tainted() {
                    if let Some(root) = place_root(f, a, k) {
                        ctx.env.entry(root).or_default().or(&m);
                    }
                }
                eval(ctx, summaries, a, k); // index exprs may contain calls
                return Taint::clean();
            }
            "==" | "<=" | ">=" | "=>" => {}
            _ => {}
        }
    }
    let m = eval(ctx, summaries, a, b);
    if value_position {
        ctx.ret |= m.mask;
    }
    m
}

/// The root variable of a place expression (first ident, skipping `self`
/// when a field follows — `self.counts` mutates self's storage).
fn place_root(f: &SourceFile, a: usize, b: usize) -> Option<String> {
    for k in a..b {
        if f.tok(k).kind == TokKind::Ident {
            let t = f.txt(k);
            if t == "mut" {
                continue;
            }
            return Some(t.to_string());
        }
        if f.is_punct(k, "*") || f.is_punct(k, "&") {
            continue;
        }
    }
    None
}

/// Methods that fold argument taint into their receiver variable.
const GROWS_RECEIVER: &[&str] = &[
    "push",
    "extend",
    "extend_from_slice",
    "insert",
    "append",
    "push_str",
];

/// Evaluates an expression range: returns its taint, emitting findings for
/// tainted arguments reaching sinks. Conservative: the result is the OR of
/// every contributing sub-expression.
fn eval(ctx: &mut Ctx<'_>, summaries: &[Summary], a: usize, b: usize) -> Taint {
    let mut acc = Taint::clean();
    let mut i = a;
    // Root ident of the current postfix chain (for `.push(x)` mutation).
    let mut chain_root: Option<String> = None;
    // Taint of the chain receiver so far (for method calls / closures).
    let mut recv = Taint::clean();
    while i < b {
        let f = ctx.f;
        let t = f.txt(i);
        let kind = f.tok(i).kind;
        match kind {
            TokKind::Ident => {
                let is_call =
                    f.is_punct(i + 1, "(") || (f.is_punct(i + 1, "!") && f.is_punct(i + 2, "("));
                let is_method = i > a && f.is_punct(i.wrapping_sub(1), ".");
                if t == "match" {
                    // Inline match expression: scrutinee to the `{`.
                    let mut j = i + 1;
                    let mut depth = 0i32;
                    while j < b {
                        match f.txt(j) {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "{" if depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if j < b && f.is_punct(j, "{") && f.close_of[j] != usize::MAX {
                        let scrut = eval(ctx, summaries, i + 1, j);
                        acc.or(&scrut);
                        let c = f.close_of[j].min(b);
                        // Arm values flow into the expression value: OR
                        // everything the arms evaluate to.
                        walk_match_body(ctx, summaries, j + 1, c, &scrut);
                        let arms = eval_idents_only(ctx, j + 1, c);
                        acc.or(&arms);
                        i = c + 1;
                        continue;
                    }
                }
                if is_call {
                    let open = if f.is_punct(i + 1, "(") { i + 1 } else { i + 2 };
                    let close = f.close_of[open];
                    if close == usize::MAX || close > b {
                        i += 1;
                        continue;
                    }
                    let args = split_args(f, open + 1, close);
                    let mut arg_taints: Vec<Taint> = Vec::new();
                    for (s, e) in &args {
                        arg_taints.push(eval_arg(ctx, summaries, *s, *e, &recv));
                    }
                    let line = f.line(i);
                    let contribution =
                        apply_call(ctx, t, line, is_method, &recv, &arg_taints, summaries);
                    // Mutating container methods taint the receiver var.
                    if is_method && GROWS_RECEIVER.contains(&t) {
                        let mut m = Taint::clean();
                        for at in &arg_taints {
                            m.or(at);
                        }
                        if m.tainted() {
                            if let Some(root) = &chain_root {
                                ctx.env.entry(root.clone()).or_default().or(&m);
                            }
                        }
                    }
                    recv = contribution.clone();
                    acc.or(&contribution);
                    i = close + 1;
                    // `?` propagates the value into the fn's return path.
                    if f.is_punct(i, "?") {
                        ctx.ret |= contribution.mask;
                        i += 1;
                    }
                    continue;
                }
                // Plain ident: variable read (or path segment / keyword).
                if !matches!(
                    t,
                    "if" | "else"
                        | "loop"
                        | "while"
                        | "for"
                        | "in"
                        | "as"
                        | "mut"
                        | "ref"
                        | "move"
                        | "return"
                        | "break"
                        | "continue"
                        | "let"
                        | "unsafe"
                        | "true"
                        | "false"
                        | "dyn"
                        | "impl"
                        | "where"
                        | "box"
                        | "await"
                ) {
                    // Skip pure path prefixes (`felip_obs :: diag :: error`).
                    let is_path_prefix = f.is_punct(i + 1, "::");
                    if !is_path_prefix {
                        if let Some(v) = ctx.env.get(t) {
                            let v = v.clone();
                            if !is_method {
                                chain_root = Some(t.to_string());
                                recv = v.clone();
                            } else {
                                recv.or(&v);
                            }
                            acc.or(&v);
                        } else if !is_method {
                            chain_root = Some(t.to_string());
                            recv = Taint::clean();
                        }
                    }
                }
                i += 1;
            }
            TokKind::Punct => {
                match t {
                    "{" => {
                        // Struct literal or block expression: walk inside
                        // (conservative OR of contents).
                        let close = f.close_of[i];
                        if close != usize::MAX && close <= b {
                            let inner = walk_block(ctx, summaries, i + 1, close, true);
                            acc.or(&inner);
                            let rest = eval_idents_only(ctx, i + 1, close);
                            acc.or(&rest);
                            i = close + 1;
                            continue;
                        }
                        i += 1;
                    }
                    "|" => {
                        // Closure at expression level (not an arg): bind
                        // params clean and walk the body.
                        let end = closure_params_end(f, i, b);
                        i = end;
                    }
                    ";" => {
                        // Shouldn't appear (statement layer splits); skip.
                        i += 1;
                    }
                    "." => {
                        i += 1;
                    }
                    _ => {
                        if !matches!(t, "::") {
                            chain_root = chain_root.take();
                        }
                        i += 1;
                    }
                }
            }
            _ => {
                i += 1;
            }
        }
    }
    acc
}

/// OR of env lookups for every ident in a range (no call handling) — used
/// to fold match-arm values into an expression result.
fn eval_idents_only(ctx: &Ctx<'_>, a: usize, b: usize) -> Taint {
    let mut acc = Taint::clean();
    for k in a..b {
        if ctx.f.tok(k).kind == TokKind::Ident {
            if let Some(v) = ctx.env.get(ctx.f.txt(k)) {
                acc.or(&v.clone());
            }
        }
    }
    acc
}

/// Evaluates one call argument. A closure argument (`|x| …`) binds its
/// parameters to the receiver's taint — `.map(|x| …)` over a tainted
/// iterator taints `x`.
fn eval_arg(ctx: &mut Ctx<'_>, summaries: &[Summary], a: usize, b: usize, recv: &Taint) -> Taint {
    let f = ctx.f;
    let mut start = a;
    if f.is_ident(start, "move") {
        start += 1;
    }
    if start < b && (f.is_punct(start, "|") || f.is_punct(start, "||")) {
        let body_start = if f.is_punct(start, "||") {
            start + 1
        } else {
            let end = closure_params_end(f, start, b);
            // Bind closure params to the receiver taint.
            if recv.tainted() {
                bind_pattern(ctx, start + 1, end.saturating_sub(1), recv);
            }
            end
        };
        return eval(ctx, summaries, body_start, b);
    }
    eval(ctx, summaries, a, b)
}

/// Index just past the closing `|` of a closure's parameter list.
fn closure_params_end(f: &SourceFile, bar: usize, b: usize) -> usize {
    let mut k = bar + 1;
    let mut depth = 0i32;
    while k < b {
        match f.txt(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "|" if depth == 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    b
}

/// Splits a call's argument list at top-level commas.
fn split_args(f: &SourceFile, a: usize, b: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = a;
    for k in a..b {
        match f.txt(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                out.push((start, k));
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < b {
        out.push((start, b));
    }
    out
}

/// Applies the taint semantics of one call: sources return SRC, sanitizers
/// return clean, sinks flag tainted arguments, known fns substitute their
/// summaries, unknown fns propagate the OR of their inputs.
fn apply_call(
    ctx: &mut Ctx<'_>,
    name: &str,
    line: u32,
    is_method: bool,
    recv: &Taint,
    args: &[Taint],
    summaries: &[Summary],
) -> Taint {
    if SANITIZERS.contains(&name) {
        return Taint::clean();
    }
    if SOURCE_FNS.contains(&name) && is_method {
        let mut t = Taint {
            mask: SRC,
            trace: Vec::new(),
        };
        t.trace.push(format!(
            "{}:{}: raw values read via `{}()`",
            ctx.f.path.display(),
            line,
            name
        ));
        return t;
    }
    if let Some((_, crates)) = SINKS.iter().find(|(n, _)| *n == name) {
        // A sink only if a fn of this name is actually defined in one of
        // the sink crates (name resolution, not blind string match).
        let defined_in_sink_crate = ctx
            .ws
            .fns_named(name)
            .iter()
            .any(|&id| crates.contains(&ctx.ws.fns[id].crate_name.as_str()));
        if defined_in_sink_crate {
            for (idx, at) in args.iter().enumerate() {
                if at.mask & SRC != 0 {
                    emit_sink_finding(ctx, name, line, idx, at);
                } else if at.mask != 0 {
                    // Parameter-relative taint: the caller decides.
                    ctx.to_sink |= at.mask;
                }
            }
            return Taint::clean();
        }
    }
    // Known workspace fn(s): substitute summaries (union over candidates
    // that plausibly match the call shape).
    let candidates: Vec<usize> = ctx
        .ws
        .fns_named(name)
        .iter()
        .copied()
        .filter(|&id| {
            let fd = &ctx.ws.fns[id];
            fd.has_self == is_method || !is_method
        })
        .collect();
    if !candidates.is_empty() {
        let mut out = Taint::clean();
        for &id in &candidates {
            let fd = &ctx.ws.fns[id];
            let s = summaries[id];
            // Map call-site values onto the callee's param bits: the
            // receiver is bit 0 for methods, args follow.
            let mut site: Vec<&Taint> = Vec::new();
            if fd.has_self {
                site.push(recv);
            }
            site.extend(args.iter());
            for (bit_idx, at) in site.iter().enumerate() {
                let bit = 1u64 << bit_idx.min(60);
                if s.ret & bit != 0 {
                    out.or(at);
                }
                if s.to_sink & bit != 0 && at.mask != 0 {
                    if at.mask & SRC != 0 {
                        let mut via = (*at).clone();
                        via.trace.push(format!(
                            "{}:{}: flows into sink inside `{}`",
                            ctx.f.path.display(),
                            line,
                            fd.qual
                        ));
                        emit_sink_finding(ctx, &fd.qual, line, bit_idx, &via);
                    } else {
                        ctx.to_sink |= at.mask;
                    }
                }
            }
            if s.ret & SRC != 0 {
                out.mask |= SRC;
                out.trace.push(format!(
                    "{}:{}: `{}` returns raw values",
                    ctx.f.path.display(),
                    line,
                    fd.qual
                ));
            }
        }
        return out;
    }
    // Unknown callee: conservative passthrough of every input.
    let mut out = recv.clone();
    for at in args {
        out.or(at);
    }
    out
}

fn emit_sink_finding(ctx: &mut Ctx<'_>, sink: &str, line: u32, arg_idx: usize, taint: &Taint) {
    if !ctx.report {
        return;
    }
    let finding = Finding {
        file: ctx.f.path.clone(),
        line,
        rule: "privacy-taint",
        message: format!(
            "raw (un-perturbed) value reaches sink `{sink}` (argument {arg_idx}) without \
             passing a sanitizer — only ε-LDP perturbed reports may leave the pipeline"
        ),
        trace: taint.trace.clone(),
    };
    if ctx.f.comment_above_contains(line, "TAINT-OK:") {
        ctx.suppressed.push(finding);
    } else {
        ctx.findings.push(finding);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Workspace;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(files)
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

    #[test]
    fn direct_raw_to_wire_flow_is_flagged() {
        let w = ws(&[
            DATASET,
            WIRE,
            (
                "crates/server/src/bad.rs",
                "fn leak(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let raw = d.row(0);\n\
                     encode_reports(buf, raw);\n\
                 }\n",
            ),
        ]);
        let rep = run(&w);
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        let f = &rep.findings[0];
        assert_eq!(f.rule, "privacy-taint");
        assert_eq!(f.line, 3);
        assert!(!f.trace.is_empty(), "finding should carry a flow trace");
    }

    #[test]
    fn sanitized_flow_is_clean() {
        let w = ws(&[
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
        ]);
        let rep = run(&w);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    }

    #[test]
    fn interprocedural_flow_through_helper_is_flagged() {
        let w = ws(&[
            DATASET,
            WIRE,
            (
                "crates/server/src/indirect.rs",
                "fn fetch(d: &Dataset) -> &[u32] { d.row(0) }\n\
                 fn ship(buf: &mut Vec<u8>, vals: &[u32]) { encode_reports(buf, vals); }\n\
                 fn leak(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let vals = fetch(d);\n\
                     ship(buf, vals);\n\
                 }\n",
            ),
        ]);
        let rep = run(&w);
        assert!(
            rep.findings
                .iter()
                .any(|f| f.rule == "privacy-taint" && f.line == 5),
            "helper flow not flagged: {:?}",
            rep.findings
        );
    }

    #[test]
    fn taint_ok_suppresses_and_is_catalogued() {
        let w = ws(&[
            DATASET,
            WIRE,
            (
                "crates/server/src/waived.rs",
                "fn waived(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let raw = d.row(0);\n\
                     // TAINT-OK: fixture — synthetic data only.\n\
                     encode_reports(buf, raw);\n\
                 }\n",
            ),
        ]);
        let rep = run(&w);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(rep.taint_ok.len(), 1);
    }

    #[test]
    fn stale_taint_ok_is_flagged() {
        let w = ws(&[(
            "crates/server/src/stale.rs",
            "// TAINT-OK: nothing here needs this.\nfn fine() {}\n",
        )]);
        let rep = run(&w);
        assert!(
            rep.findings.iter().any(|f| f.rule == "taint-ok-stale"),
            "{:?}",
            rep.findings
        );
    }

    #[test]
    fn closure_over_tainted_iterator_taints_params() {
        let w = ws(&[
            DATASET,
            WIRE,
            (
                "crates/server/src/closure.rs",
                "fn leak(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let rows = d.rows();\n\
                     rows.for_each(|r| encode_reports(buf, r));\n\
                 }\n",
            ),
            (
                "crates/common/src/more.rs",
                "impl Dataset { pub fn rows(&self) -> &[u32] { &self.flat } }\n",
            ),
        ]);
        let rep = run(&w);
        assert!(
            rep.findings.iter().any(|f| f.line == 3),
            "closure flow not flagged: {:?}",
            rep.findings
        );
    }

    #[test]
    fn match_arm_bindings_carry_taint() {
        let w = ws(&[
            DATASET,
            WIRE,
            (
                "crates/server/src/matched.rs",
                "fn leak(d: &Dataset, buf: &mut Vec<u8>) {\n\
                     let v = Some(d.row(0));\n\
                     match v {\n\
                         Some(raw) => encode_reports(buf, raw),\n\
                         None => {}\n\
                     }\n\
                 }\n",
            ),
        ]);
        let rep = run(&w);
        assert!(
            rep.findings.iter().any(|f| f.line == 4),
            "match flow not flagged: {:?}",
            rep.findings
        );
    }
}
