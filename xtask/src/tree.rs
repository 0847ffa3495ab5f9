//! Item/expression-tree builder on top of the lossless lexer: finds every
//! `fn` (with its qualified path, parameters, return type, and body token
//! range), struct field tables, and test-gated regions — the shared
//! skeleton all `xtask analyze` passes walk (DESIGN.md §18).
//!
//! Resolution is name-and-signature based: no type inference, no trait
//! solving. For this workspace — where method names are distinctive and
//! arities short — that is enough to build call edges, taint summaries,
//! and the lock graph without ever guessing from stripped strings.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::lex::{lex, Tok, TokKind};

/// One function parameter (the `self` receiver is tracked separately).
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    /// The type text, whitespace-normalized (`& Mutex < Aggregator >`).
    pub ty: String,
}

/// One `fn` item anywhere in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the owning file in [`Workspace::files`].
    pub file: usize,
    /// `crate::module::Type::name` — segments joined from the scope stack.
    pub qual: String,
    /// The bare function name.
    pub name: String,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_self: bool,
    /// Non-`self` parameters, in order.
    pub params: Vec<Param>,
    /// Return-type text after `->` (empty when the fn returns `()`).
    pub ret: String,
    /// Significant-token range `[open_brace, close_brace]` of the body;
    /// `None` for trait-method signatures without a default body.
    pub body: Option<(usize, usize)>,
    /// Inside `#[cfg(test)]` / `#[test]` gated code.
    pub is_test: bool,
    pub line: u32,
    /// The crate directory name (`server`, `felip`, …).
    pub crate_name: String,
}

/// A struct definition's named fields (for lock-field discovery).
#[derive(Debug, Clone, Default)]
pub struct StructDef {
    pub fields: Vec<(String, String)>,
}

/// One lexed + item-indexed source file.
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: PathBuf,
    pub src: String,
    /// Every token, tiling the source.
    pub toks: Vec<Tok>,
    /// Indices into `toks` of significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// For each `sig` position holding `(`/`[`/`{`: the sig position of
    /// its matching closer (`usize::MAX` when unmatched).
    pub close_of: Vec<usize>,
    /// Comment text per line (for `SAFETY:` / `TAINT-OK:` checks).
    pub comments: BTreeMap<u32, String>,
    /// Lines carrying at least one significant token.
    pub code_lines: BTreeSet<u32>,
    /// Names from `#[cfg(…test…)] mod x;` declarations in this file.
    pub test_mods: Vec<String>,
    /// The crate directory name this file belongs to.
    pub crate_name: String,
}

impl SourceFile {
    /// The token at sig position `i`.
    pub fn tok(&self, i: usize) -> &Tok {
        &self.toks[self.sig[i]]
    }

    /// The text of the sig token at `i`.
    pub fn txt(&self, i: usize) -> &str {
        self.tok(i).text(&self.src)
    }

    /// Number of significant tokens.
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }

    /// Whether sig token `i` is an identifier with exactly this text.
    pub fn is_ident(&self, i: usize, s: &str) -> bool {
        i < self.len() && self.tok(i).kind == TokKind::Ident && self.txt(i) == s
    }

    /// Whether sig token `i` is punctuation with exactly this text.
    pub fn is_punct(&self, i: usize, s: &str) -> bool {
        i < self.len() && self.tok(i).kind == TokKind::Punct && self.txt(i) == s
    }

    /// The line of sig token `i`.
    pub fn line(&self, i: usize) -> u32 {
        self.tok(i).line
    }

    /// Whether `needle` appears in a comment on `line` or in the block of
    /// comment-only lines directly above it (attribute-only lines may sit
    /// in between) — the `SAFETY:` / `TAINT-OK:` adjacency rule.
    pub fn comment_above_contains(&self, line: u32, needle: &str) -> bool {
        if self.comments.get(&line).is_some_and(|c| c.contains(needle)) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let has_comment = self.comments.contains_key(&l);
            let has_code = self.code_lines.contains(&l);
            if has_code {
                // Attribute-only lines are allowed between the comment and
                // the checked line.
                let attr_only = self.line_is_attr_only(l);
                if !attr_only {
                    return false;
                }
                continue;
            }
            if has_comment {
                if self.comments[&l].contains(needle) {
                    return true;
                }
                continue;
            }
            return false; // blank line breaks adjacency
        }
        false
    }

    fn line_is_attr_only(&self, line: u32) -> bool {
        let mut saw_any = false;
        let mut first: Option<&str> = None;
        for &ti in &self.sig {
            let t = &self.toks[ti];
            if t.line == line {
                saw_any = true;
                if first.is_none() {
                    first = Some(t.text(&self.src));
                }
            }
        }
        saw_any && first == Some("#")
    }
}

/// The loaded workspace: every scanned file plus the global fn index.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnDef>,
    /// fn simple name → ids into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// struct name → named fields.
    pub structs: BTreeMap<String, StructDef>,
    /// Files that failed to lex (reported as diagnostics by the driver).
    pub lex_errors: Vec<(PathBuf, String)>,
}

impl Workspace {
    /// Loads and indexes every `crates/*/src` file under `root`, dropping
    /// files claimed by `#[cfg(…test…)] mod x;` declarations (integration
    /// `tests/` trees are never scanned).
    pub fn load(root: &Path) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            structs: BTreeMap::new(),
            lex_errors: Vec::new(),
        };
        let Ok(entries) = fs::read_dir(root.join("crates")) else {
            return ws;
        };
        let mut crate_dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let crate_name = dir
                .file_name()
                .and_then(|s| s.to_str())
                .unwrap_or("?")
                .to_string();
            let src_dir = dir.join("src");
            if !src_dir.is_dir() {
                continue;
            }
            ws.load_dir(root, &src_dir, &crate_name);
        }
        ws.drop_test_mod_files();
        ws.index();
        ws
    }

    /// Builds a workspace from in-memory sources — the fixture path used
    /// by pass self-tests. Paths should look like `crates/<name>/src/x.rs`
    /// so crate attribution works.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            structs: BTreeMap::new(),
            lex_errors: Vec::new(),
        };
        for (path, src) in sources {
            let p = PathBuf::from(path);
            let crate_name = p
                .components()
                .nth(1)
                .and_then(|c| c.as_os_str().to_str())
                .unwrap_or("?")
                .to_string();
            match lex(src) {
                Ok(toks) => {
                    let mut file = build_file(p, src.to_string(), toks, crate_name);
                    file.test_mods = scan_test_mods(&file);
                    ws.files.push(file);
                }
                Err(e) => ws.lex_errors.push((p, e.to_string())),
            }
        }
        ws.drop_test_mod_files();
        ws.index();
        ws
    }

    fn load_dir(&mut self, root: &Path, dir: &Path, crate_name: &str) {
        let mut stack = vec![dir.to_path_buf()];
        let mut paths = Vec::new();
        while let Some(d) = stack.pop() {
            let Ok(entries) = fs::read_dir(&d) else {
                continue;
            };
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|x| x == "rs") {
                    paths.push(p);
                }
            }
        }
        paths.sort();
        for p in paths {
            let Ok(src) = fs::read_to_string(&p) else {
                continue;
            };
            let rel = p.strip_prefix(root).unwrap_or(&p).to_path_buf();
            match lex(&src) {
                Ok(toks) => {
                    let mut file = build_file(rel, src, toks, crate_name.to_string());
                    file.test_mods = scan_test_mods(&file);
                    self.files.push(file);
                }
                Err(e) => self.lex_errors.push((rel, e.to_string())),
            }
        }
    }

    /// Removes files claimed whole by `#[cfg(…test…)] mod x;` decls.
    fn drop_test_mod_files(&mut self) {
        let gated: BTreeSet<(String, String)> = self
            .files
            .iter()
            .flat_map(|f| {
                f.test_mods
                    .iter()
                    .map(|m| (f.crate_name.clone(), m.clone()))
            })
            .collect();
        self.files.retain(|f| {
            let stem = f
                .path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("")
                .to_string();
            let dir = f
                .path
                .parent()
                .and_then(|d| d.file_name())
                .and_then(|s| s.to_str())
                .unwrap_or("")
                .to_string();
            let name = if stem == "mod" { dir } else { stem };
            !gated.contains(&(f.crate_name.clone(), name))
        });
    }

    fn index(&mut self) {
        for fi in 0..self.files.len() {
            let (fns, structs) = walk_items(&self.files[fi], fi);
            for f in fns {
                self.by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push(self.fns.len());
                self.fns.push(f);
            }
            for (name, def) in structs {
                self.structs.entry(name).or_insert(def);
            }
        }
    }

    /// All fn ids whose bare name is `name`.
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

fn build_file(path: PathBuf, src: String, toks: Vec<Tok>, crate_name: String) -> SourceFile {
    let sig: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_trivia())
        .map(|(i, _)| i)
        .collect();
    // Bracket matching over significant tokens.
    let mut close_of = vec![usize::MAX; sig.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (si, &ti) in sig.iter().enumerate() {
        let t = &toks[ti];
        if t.kind == TokKind::Punct {
            match t.text(&src) {
                "(" | "[" | "{" => stack.push(si),
                ")" | "]" | "}" => {
                    if let Some(open) = stack.pop() {
                        close_of[open] = si;
                    }
                }
                _ => {}
            }
        }
    }
    let mut comments: BTreeMap<u32, String> = BTreeMap::new();
    let mut code_lines = BTreeSet::new();
    for t in &toks {
        match t.kind {
            TokKind::LineComment | TokKind::BlockComment => {
                let entry = comments.entry(t.line).or_default();
                entry.push_str(t.text(&src));
                entry.push(' ');
            }
            TokKind::Whitespace => {}
            _ => {
                code_lines.insert(t.line);
            }
        }
    }
    SourceFile {
        path,
        src,
        toks,
        sig,
        close_of,
        comments,
        code_lines,
        test_mods: Vec::new(), // filled by walk_items via scan below
        crate_name,
    }
}

/// Whether an attribute's token text gates test code: `#[test]` or
/// `#[cfg(…test…)]` without `not(test)`.
fn attr_is_test(attr: &str) -> bool {
    if attr.starts_with("# [ test ]") || attr == "# [ test ]" {
        return true;
    }
    attr.contains("cfg") && attr.contains("test") && !attr.contains("not ( test")
}

struct Scope {
    /// Path segment this scope contributes (`None` for plain blocks).
    seg: Option<String>,
    /// Sig index of the closing `}`.
    close: usize,
    is_test: bool,
}

/// Walks a file's items, returning its fns and struct tables. Also fills
/// the file's `test_mods` (via interior mutability shim: returns them).
fn walk_items(f: &SourceFile, file_idx: usize) -> (Vec<FnDef>, BTreeMap<String, StructDef>) {
    let mut fns = Vec::new();
    let mut structs = BTreeMap::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_attrs: Vec<String> = Vec::new();
    let n = f.len();
    let mut i = 0usize;
    while i < n {
        // Pop any scopes closing here.
        if f.is_punct(i, "}") {
            while scopes.last().is_some_and(|s| s.close == i) {
                scopes.pop();
            }
            i += 1;
            pending_attrs.clear();
            continue;
        }
        let cur_test = scopes.iter().any(|s| s.is_test);

        // Attributes: `#[…]` / `#![…]`.
        if f.is_punct(i, "#") {
            let mut j = i + 1;
            if f.is_punct(j, "!") {
                j += 1;
            }
            if f.is_punct(j, "[") {
                let close = f.close_of[j];
                if close != usize::MAX {
                    let text: Vec<&str> = (i..=close).map(|k| f.txt(k)).collect();
                    pending_attrs.push(text.join(" "));
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }

        let tok_is_ident = f.tok(i).kind == TokKind::Ident;
        let word = if tok_is_ident { f.txt(i) } else { "" };

        match word {
            // Visibility / item modifiers: skip without clearing attrs.
            "pub" => {
                i += 1;
                if f.is_punct(i, "(") && f.close_of[i] != usize::MAX {
                    i = f.close_of[i] + 1;
                }
                continue;
            }
            "unsafe" | "async" | "const" | "default" => {
                // `const fn` / `unsafe fn` are fn modifiers; `const X: T = …;`
                // is an item — disambiguate by what follows.
                if word == "const" && !f.is_ident(i + 1, "fn") && !f.is_ident(i + 1, "unsafe") {
                    i = skip_to_semi(f, i);
                    pending_attrs.clear();
                    continue;
                }
                i += 1;
                continue;
            }
            "extern" => {
                // `extern "C" fn` or `extern crate x;`.
                i += 1;
                if f.tok(i).kind == TokKind::Str {
                    i += 1;
                }
                continue;
            }
            "use" | "static" | "type" => {
                i = skip_to_semi(f, i);
                pending_attrs.clear();
                continue;
            }
            "macro_rules" => {
                // macro_rules ! name { … }
                let mut j = i + 1;
                while j < n && !f.is_punct(j, "{") && !f.is_punct(j, "(") {
                    j += 1;
                }
                i = if j < n && f.close_of[j] != usize::MAX {
                    f.close_of[j] + 1
                } else {
                    j + 1
                };
                pending_attrs.clear();
                continue;
            }
            "mod" => {
                let attr_test = pending_attrs.iter().any(|a| attr_is_test(a));
                let name = if i + 1 < n {
                    f.txt(i + 1).to_string()
                } else {
                    String::new()
                };
                if f.is_punct(i + 2, "{") {
                    let close = f.close_of[i + 2];
                    scopes.push(Scope {
                        seg: Some(name),
                        close: if close == usize::MAX { n } else { close },
                        is_test: cur_test || attr_test,
                    });
                    i += 3;
                } else {
                    // `mod name;` — test-gated decls are handled by
                    // `scan_test_mods`, which runs at load time.
                    let _ = (attr_test, &name);
                    i += 3;
                }
                pending_attrs.clear();
                continue;
            }
            "struct" | "enum" | "union" => {
                let name = if i + 1 < n {
                    f.txt(i + 1).to_string()
                } else {
                    String::new()
                };
                let mut j = i + 2;
                j = skip_generics(f, j);
                // Skip a where clause.
                while j < n && !f.is_punct(j, "{") && !f.is_punct(j, "(") && !f.is_punct(j, ";") {
                    j += 1;
                }
                if word == "struct" && f.is_punct(j, "{") {
                    let close = f.close_of[j];
                    if close != usize::MAX {
                        let def = parse_struct_fields(f, j + 1, close);
                        structs.insert(name, def);
                        i = close + 1;
                        pending_attrs.clear();
                        continue;
                    }
                }
                if f.is_punct(j, "(") && f.close_of[j] != usize::MAX {
                    i = skip_to_semi(f, f.close_of[j]);
                } else if f.is_punct(j, "{") && f.close_of[j] != usize::MAX {
                    i = f.close_of[j] + 1;
                } else {
                    i = j + 1;
                }
                pending_attrs.clear();
                continue;
            }
            "trait" | "impl" => {
                let attr_test = pending_attrs.iter().any(|a| attr_is_test(a));
                let seg = if word == "trait" {
                    if i + 1 < n {
                        Some(f.txt(i + 1).to_string())
                    } else {
                        None
                    }
                } else {
                    parse_impl_type(f, i + 1)
                };
                // Find the opening brace of the item body.
                let mut j = i + 1;
                let mut angle = 0i32;
                while j < n {
                    angle += angle_step(f.txt(j));
                    if angle <= 0 && f.is_punct(j, "{") {
                        break;
                    }
                    if f.is_punct(j, ";") {
                        break; // e.g. `impl Trait for Type;` (never here)
                    }
                    j += 1;
                }
                if j < n && f.is_punct(j, "{") && f.close_of[j] != usize::MAX {
                    scopes.push(Scope {
                        seg,
                        close: f.close_of[j],
                        is_test: cur_test || attr_test,
                    });
                    i = j + 1;
                } else {
                    i = j + 1;
                }
                pending_attrs.clear();
                continue;
            }
            "fn" => {
                let attr_test = cur_test || pending_attrs.iter().any(|a| attr_is_test(a));
                if let Some((def, next)) = parse_fn(f, i, file_idx, &scopes, attr_test) {
                    // Descend into the body so nested fns are found too.
                    if let Some((open, close)) = def.body {
                        scopes.push(Scope {
                            seg: Some(def.name.clone()),
                            close,
                            is_test: attr_test,
                        });
                        fns.push(def);
                        i = open + 1;
                    } else {
                        fns.push(def);
                        i = next;
                    }
                } else {
                    i += 1;
                }
                pending_attrs.clear();
                continue;
            }
            _ => {}
        }
        i += 1;
        // Any other token invalidates pending attributes.
        pending_attrs.clear();
    }
    (fns, structs)
}

/// `i` points at `fn`. Parses through the signature; returns the def and
/// the sig index just past the item.
fn parse_fn(
    f: &SourceFile,
    i: usize,
    file_idx: usize,
    scopes: &[Scope],
    is_test: bool,
) -> Option<(FnDef, usize)> {
    let n = f.len();
    let name_idx = i + 1;
    if name_idx >= n || f.tok(name_idx).kind != TokKind::Ident {
        return None;
    }
    let name = f.txt(name_idx).trim_start_matches("r#").to_string();
    let line = f.line(i);
    let mut j = skip_generics(f, name_idx + 1);
    if !f.is_punct(j, "(") {
        return None;
    }
    let close_paren = f.close_of[j];
    if close_paren == usize::MAX {
        return None;
    }
    let (has_self, params) = parse_params(f, j + 1, close_paren);
    j = close_paren + 1;
    let mut ret = String::new();
    if f.is_punct(j, "->") {
        j += 1;
        let start = j;
        let mut angle = 0i32;
        while j < n {
            let t = f.txt(j);
            angle += angle_step(t);
            if angle <= 0 && (t == "{" || t == ";" || t == "where") && f.tok(j).kind != TokKind::Str
            {
                break;
            }
            j += 1;
        }
        ret = (start..j).map(|k| f.txt(k)).collect::<Vec<_>>().join(" ");
    }
    // Skip a where clause.
    while j < n && !f.is_punct(j, "{") && !f.is_punct(j, ";") {
        j += 1;
    }
    let body = if f.is_punct(j, "{") && f.close_of[j] != usize::MAX {
        Some((j, f.close_of[j]))
    } else {
        None
    };
    let next = match body {
        Some((_, close)) => close + 1,
        None => j + 1,
    };
    let mut qual_parts: Vec<String> = vec![f.crate_name.clone()];
    qual_parts.extend(scopes.iter().filter_map(|s| s.seg.clone()));
    qual_parts.push(name.clone());
    Some((
        FnDef {
            file: file_idx,
            qual: qual_parts.join("::"),
            name,
            has_self,
            params,
            ret,
            body,
            is_test,
            line,
            crate_name: f.crate_name.clone(),
        },
        next,
    ))
}

fn parse_params(f: &SourceFile, start: usize, end: usize) -> (bool, Vec<Param>) {
    let mut has_self = false;
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut cur: Vec<usize> = Vec::new();
    let flush = |cur: &mut Vec<usize>, has_self: &mut bool, params: &mut Vec<Param>| {
        if cur.is_empty() {
            return;
        }
        let texts: Vec<&str> = cur.iter().map(|&k| f.txt(k)).collect();
        if texts.contains(&"self") && !texts.contains(&":") {
            *has_self = true;
            cur.clear();
            return;
        }
        if let Some(colon) = texts.iter().position(|&t| t == ":") {
            // Name: last ident before the colon (handles `mut x`).
            let name = texts[..colon]
                .iter()
                .rev()
                .find(|t| {
                    t.chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                        && **t != "mut"
                        && **t != "ref"
                })
                .unwrap_or(&"_")
                .to_string();
            let ty = texts[colon + 1..].join(" ");
            params.push(Param { name, ty });
        }
        cur.clear();
    };
    let mut k = start;
    while k < end {
        let t = f.txt(k);
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            _ => angle += angle_step(t),
        }
        if t == "," && depth == 0 && angle <= 0 {
            flush(&mut cur, &mut has_self, &mut params);
            if angle < 0 {
                angle = 0;
            }
        } else {
            cur.push(k);
        }
        k += 1;
    }
    flush(&mut cur, &mut has_self, &mut params);
    (has_self, params)
}

fn parse_struct_fields(f: &SourceFile, start: usize, end: usize) -> StructDef {
    let mut def = StructDef::default();
    let mut k = start;
    let n = end.min(f.len());
    while k < n {
        // Skip attributes and visibility.
        if f.is_punct(k, "#") && f.is_punct(k + 1, "[") && f.close_of[k + 1] != usize::MAX {
            k = f.close_of[k + 1] + 1;
            continue;
        }
        if f.is_ident(k, "pub") {
            k += 1;
            if f.is_punct(k, "(") && f.close_of[k] != usize::MAX {
                k = f.close_of[k] + 1;
            }
            continue;
        }
        // field `name : type ,`
        if f.tok(k).kind == TokKind::Ident && f.is_punct(k + 1, ":") {
            let name = f.txt(k).to_string();
            let mut j = k + 2;
            let mut depth = 0i32;
            let mut angle = 0i32;
            let ty_start = j;
            while j < n {
                let t = f.txt(j);
                match t {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    _ => angle += angle_step(t),
                }
                if t == "," && depth == 0 && angle <= 0 {
                    break;
                }
                j += 1;
            }
            let ty = (ty_start..j)
                .map(|x| f.txt(x))
                .collect::<Vec<_>>()
                .join(" ");
            def.fields.push((name, ty));
            k = j + 1;
            continue;
        }
        k += 1;
    }
    def
}

/// `i` points just past `impl`. Returns the implemented type's name
/// (`impl Trait for Type` → `Type`; `impl<T> Foo<T>` → `Foo`).
fn parse_impl_type(f: &SourceFile, mut i: usize) -> Option<String> {
    let n = f.len();
    i = skip_generics(f, i);
    // Collect idents at angle depth 0 until `{` / `where`, noting `for`.
    let mut angle = 0i32;
    let mut last_path_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while i < n {
        let t = f.txt(i);
        if angle <= 0 {
            if t == "{" || t == "where" {
                break;
            }
            if t == "for" {
                saw_for = true;
                i += 1;
                continue;
            }
        }
        if f.tok(i).kind == TokKind::Ident && angle <= 0 && t != "dyn" && t != "mut" {
            if saw_for {
                if after_for.is_none() || f.is_punct(i.wrapping_sub(1), "::") {
                    after_for = Some(t.to_string());
                }
            } else if last_path_ident.is_none() || f.is_punct(i.wrapping_sub(1), "::") {
                last_path_ident = Some(t.to_string());
            }
        }
        angle += angle_step(t);
        i += 1;
    }
    after_for.or(last_path_ident)
}

fn skip_to_semi(f: &SourceFile, mut i: usize) -> usize {
    let n = f.len();
    let mut depth = 0i32;
    while i < n {
        match f.txt(i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// If `i` is `<`, skips the balanced generic-argument list.
fn skip_generics(f: &SourceFile, i: usize) -> usize {
    if !f.is_punct(i, "<") {
        return i;
    }
    let n = f.len();
    let mut depth = 0i32;
    let mut j = i;
    while j < n {
        depth += angle_step(f.txt(j));
        j += 1;
        if depth <= 0 {
            break;
        }
    }
    j
}

/// Angle-bracket depth contribution of one token (`>>` closes two).
pub fn angle_step(t: &str) -> i32 {
    match t {
        "<" => 1,
        "<<" => 2,
        ">" => -1,
        ">>" => -2,
        _ => 0,
    }
}

/// The `#[cfg(test)] mod x;` scan needs raw attr+mod pairs; run it over a
/// file directly (used by `Workspace::load` before indexing).
pub fn scan_test_mods(f: &SourceFile) -> Vec<String> {
    let n = f.len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        if f.is_punct(i, "#") && f.is_punct(i + 1, "[") && f.close_of[i + 1] != usize::MAX {
            let close = f.close_of[i + 1];
            let attr: Vec<&str> = (i..=close).map(|k| f.txt(k)).collect();
            let attr = attr.join(" ");
            let mut j = close + 1;
            // Allow more attributes / visibility between.
            loop {
                if f.is_punct(j, "#") && f.is_punct(j + 1, "[") && f.close_of[j + 1] != usize::MAX {
                    j = f.close_of[j + 1] + 1;
                    continue;
                }
                if f.is_ident(j, "pub") {
                    j += 1;
                    if f.is_punct(j, "(") && f.close_of[j] != usize::MAX {
                        j = f.close_of[j] + 1;
                    }
                    continue;
                }
                break;
            }
            if attr_is_test(&attr) && f.is_ident(j, "mod") && f.is_punct(j + 2, ";") {
                out.push(f.txt(j + 1).to_string());
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        let toks = lex(src).unwrap();
        let mut f = build_file(
            PathBuf::from("crates/x/src/lib.rs"),
            src.into(),
            toks,
            "x".into(),
        );
        f.test_mods = scan_test_mods(&f);
        f
    }

    fn fns(src: &str) -> Vec<FnDef> {
        walk_items(&file(src), 0).0
    }

    #[test]
    fn finds_free_and_method_fns() {
        let src = "fn free(a: u32) -> u32 { a }\n\
                   struct S { x: u64 }\n\
                   impl S { pub fn method(&self, b: &str) {} }\n\
                   impl Clone for S { fn clone(&self) -> S { S { x: self.x } } }";
        let fs = fns(src);
        let quals: Vec<&str> = fs.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["x::free", "x::S::method", "x::S::clone"]);
        assert!(fs[1].has_self);
        assert_eq!(fs[1].params.len(), 1);
        assert_eq!(fs[1].params[0].name, "b");
        assert_eq!(fs[0].ret, "u32");
    }

    #[test]
    fn struct_fields_are_tabled() {
        let src = "pub struct Q { pub inner: Mutex<Inner<T>>, not_empty: Condvar }";
        let (_, structs) = walk_items(&file(src), 0);
        let q = &structs["Q"];
        assert_eq!(q.fields.len(), 2);
        assert_eq!(q.fields[0].0, "inner");
        assert!(q.fields[0].1.contains("Mutex"));
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}";
        let fs = fns(src);
        assert!(!fs[0].is_test);
        assert!(fs[1].is_test, "{:?}", fs[1]);
        assert!(fs[2].is_test);
    }

    #[test]
    fn out_of_line_test_mods_are_scanned() {
        let f = file("#[cfg(all(test, feature = \"model\"))]\nmod model_tests;\npub mod live;\n");
        assert_eq!(f.test_mods, vec!["model_tests".to_string()]);
    }

    #[test]
    fn nested_fns_are_found() {
        let src = "fn outer() {\n    fn inner(x: u64) -> u64 { x }\n    inner(1);\n}";
        let fs = fns(src);
        let quals: Vec<&str> = fs.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["x::outer", "x::outer::inner"]);
    }

    #[test]
    fn generics_do_not_break_parsing() {
        let src =
            "impl<T: Clone> Wrapper<Vec<T>> {\n    fn get(&self) -> Option<Vec<T>> { None }\n}";
        let fs = fns(src);
        assert_eq!(fs[0].qual, "x::Wrapper::get");
        assert!(fs[0].ret.contains("Option"));
    }

    #[test]
    fn comment_adjacency_allows_attrs() {
        let f = file(
            "// SAFETY: justified here.\n#[inline]\nunsafe fn ok() {}\n\nunsafe fn bad() {}\n",
        );
        assert!(f.comment_above_contains(3, "SAFETY:"));
        assert!(!f.comment_above_contains(5, "SAFETY:"));
    }
}
