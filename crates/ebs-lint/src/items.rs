//! A lightweight item-tree parser on top of the lexer: function, impl,
//! mod, and use extraction with spans.
//!
//! This is deliberately **not** a Rust parser. It recovers just enough
//! structure for workspace-level analysis — which functions exist, which
//! module path each lives under, which calls each body makes — by walking
//! the token stream with a brace-matching scope stack. The trade-offs are
//! documented in `DESIGN.md` §18; the parser is total (arbitrary token
//! soup never panics, it just yields fewer items).

use crate::lexer::{Lexed, Tok, TokKind};

/// How a call site names its callee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(…)` — a bare name, resolved through imports then scope.
    Bare,
    /// `recv.foo(…)` — a method call with an unknown receiver type.
    Method,
    /// `path::to::foo(…)` — qualified by at least one path segment.
    Path,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Callee name (last path segment).
    pub name: String,
    /// Leading path segments for [`CallKind::Path`] calls (`["ebs_analysis",
    /// "batch"]` for `ebs_analysis::batch::f(…)`); empty otherwise.
    pub qual: Vec<String>,
    /// How the callee was named.
    pub kind: CallKind,
    /// 1-based line of the callee name token.
    pub line: u32,
    /// 1-based byte column of the callee name token.
    pub col: u32,
}

/// A panicking construct found inside a function body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Short description (`.unwrap()`, `panic!`, `[] indexing` …).
    pub what: String,
}

/// One function (free fn, method, or associated fn) extracted from a file.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl`/`trait` self-type name, if any (`StreamSummary`
    /// for `impl StreamSummary { fn merge … }`).
    pub owner: Option<String>,
    /// Module path: crate name (dashes kept) then file/inline modules,
    /// e.g. `["ebs-store", "stream"]`.
    pub module: Vec<String>,
    /// Whether the fn takes `self` (i.e. is a method).
    pub has_self: bool,
    /// Whether the fn sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// 1-based byte column of the `fn` name.
    pub col: u32,
    /// Token-index range of the body (`{`..=`}`), empty for bodyless fns.
    pub body: (usize, usize),
    /// Call sites inside the body (innermost-fn attribution).
    pub calls: Vec<Call>,
    /// Panicking constructs inside the body (pre-suppression).
    pub panics: Vec<PanicSite>,
}

/// A `use` import: local alias → full path segments.
#[derive(Clone, Debug)]
pub struct UseImport {
    /// The name the import binds locally (`ccr`, or the `as` alias).
    pub alias: String,
    /// Full path, e.g. `["ebs_analysis", "ccr"]`.
    pub path: Vec<String>,
}

/// The item tree of one file.
#[derive(Clone, Debug, Default)]
pub struct ItemTree {
    /// All functions, in source order.
    pub fns: Vec<FnItem>,
    /// All `use` imports.
    pub uses: Vec<UseImport>,
}

/// Derive the base module path of a file from its workspace-relative path:
/// `crates/ebs-store/src/stream.rs` → `["ebs-store", "stream"]`,
/// `crates/ebs-core/src/lib.rs` → `["ebs-core"]`,
/// `crates/ebs-workload/src/dist/zipf.rs` → `["ebs-workload", "dist", "zipf"]`,
/// `src/lib.rs` → `["ebs"]`.
pub fn module_path_of(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let (krate, rest): (&str, &[&str]) = match parts.as_slice() {
        ["crates", krate, "src", rest @ ..] => (krate, rest),
        ["src", rest @ ..] => ("ebs", rest),
        [_, ..] => ("ebs", &parts[..0]),
        [] => ("ebs", &[]),
    };
    let mut out = vec![krate.to_string()];
    for (i, seg) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if last {
            let base = seg.strip_suffix(".rs").unwrap_or(seg);
            if base != "lib" && base != "mod" && base != "main" {
                out.push(base.to_string());
            }
        } else {
            out.push((*seg).to_string());
        }
    }
    out
}

/// Method names the call-graph does **not** resolve, because they collide
/// with ubiquitous `std`/`core` methods: a `.get(…)` on a slice must not
/// create an edge to some workspace type's `get`. Explicit
/// `Type::name(…)` path calls still resolve. This is the analyzer's main
/// documented false-negative mode (`DESIGN.md` §18).
pub const STD_SHADOWED_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "bytes",
    "chain",
    "chars",
    "chunks",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "finish",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "index",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_some",
    "is_none",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "ne",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "product",
    "push",
    "read",
    "read_exact",
    "remove",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "seek",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "split",
    "starts_with",
    "step_by",
    "sum",
    "take",
    "then",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_from",
    "try_into",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "with_capacity",
    "write",
    "write_all",
    "zip",
];

/// Keywords that can be followed by `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// What kind of scope a `{` opened.
#[derive(Clone, Debug)]
enum Scope {
    /// `mod name { … }` — extends the module path.
    Mod(String),
    /// `impl Type { … }` / `trait Name { … }` — sets the owner.
    Impl(String),
    /// A function body: index into the output `fns`.
    Fn(usize),
    /// Any other brace (struct body, match arm, block, closure…).
    Plain,
}

/// Parse the item tree of one lexed file. `rel` is the workspace-relative
/// path (module-path derivation); `test_regions` are the `#[cfg(test)]`
/// line spans from [`crate::rules`].
pub fn parse(rel: &str, src: &str, lexed: &Lexed, test_regions: &[(u32, u32)]) -> ItemTree {
    let toks = &lexed.tokens;
    let base_module = module_path_of(rel);
    let in_test = |line: u32| -> bool { test_regions.iter().any(|&(a, b)| line >= a && line <= b) };

    let mut out = ItemTree::default();
    let mut scopes: Vec<Scope> = Vec::new();
    // Set when `mod`/`impl`/`trait`/`fn` announced an upcoming `{`.
    let mut pending: Option<Scope> = None;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => {
                let name = t.text(src);
                match name {
                    "use" if !prev_is_path_sep(toks, i) => {
                        let (imports, next) = parse_use(toks, src, i);
                        out.uses.extend(imports);
                        i = next;
                        continue;
                    }
                    "mod" if !prev_is_path_sep(toks, i) => {
                        if let Some(n) = toks.get(i + 1) {
                            if n.kind == TokKind::Ident {
                                // `mod name;` declares an out-of-line file;
                                // only `mod name {` opens an inline scope.
                                pending = Some(Scope::Mod(n.text(src).to_string()));
                                i += 2;
                                continue;
                            }
                        }
                    }
                    "impl" | "trait" if !prev_is_path_sep(toks, i) => {
                        let (owner, next) = parse_impl_head(toks, src, i + 1);
                        pending = Some(Scope::Impl(owner));
                        i = next;
                        continue;
                    }
                    "fn" if !prev_is_path_sep(toks, i) => {
                        if let Some((item, next)) =
                            parse_fn_head(toks, src, i, &scopes, &base_module, &in_test, &mut out)
                        {
                            pending = item.map(Scope::Fn);
                            i = next;
                            continue;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            TokKind::Punct(b'{') => {
                scopes.push(pending.take().unwrap_or(Scope::Plain));
                i += 1;
            }
            TokKind::Punct(b'}') => {
                if let Some(Scope::Fn(fx)) = scopes.last() {
                    if let Some(f) = out.fns.get_mut(*fx) {
                        f.body.1 = i;
                    }
                }
                scopes.pop();
                i += 1;
            }
            TokKind::Punct(b';') => {
                // `mod name;` / stray pending never materialized.
                pending = None;
                i += 1;
            }
            _ => i += 1,
        }
    }

    attach_calls_and_panics(&mut out, toks, src);
    out
}

/// Whether the token before `i` is a path separator / field dot, which
/// makes an identifier *not* a keyword position (`x.use_count` etc. cannot
/// occur, but `r#use`-free callers guard anyway).
fn prev_is_path_sep(toks: &[Tok], i: usize) -> bool {
    i > 0 && (toks[i - 1].is_punct(b':') || toks[i - 1].is_punct(b'.'))
}

/// Parse a `use …;` statement starting at `i` (the `use` token). Returns
/// the flattened imports and the index just past the closing `;`.
fn parse_use(toks: &[Tok], src: &str, i: usize) -> (Vec<UseImport>, usize) {
    // Collect the statement's tokens.
    let mut end = i;
    while end < toks.len() && !toks[end].is_punct(b';') {
        end += 1;
    }
    let stmt = &toks[i + 1..end.min(toks.len())];
    let mut out = Vec::new();
    flatten_use(stmt, src, &mut Vec::new(), &mut out);
    (out, end + 1)
}

/// Recursively flatten a use-tree token slice into (alias, path) pairs.
/// `prefix` carries the path segments accumulated so far.
fn flatten_use(stmt: &[Tok], src: &str, prefix: &mut Vec<String>, out: &mut Vec<UseImport>) {
    let mut i = 0usize;
    let depth_at_entry = prefix.len();
    while i < stmt.len() {
        let t = &stmt[i];
        match t.kind {
            TokKind::Ident => {
                let name = t.text(src);
                if name == "as" {
                    // `… as Alias`: rebind the last emitted import.
                    if let (Some(a), Some(last)) = (stmt.get(i + 1), out.last_mut()) {
                        if a.kind == TokKind::Ident {
                            last.alias = a.text(src).to_string();
                        }
                    }
                    i += 2;
                    continue;
                }
                // Lookahead: `name ::` extends the path; `name` alone (or
                // before `,`/`}`/`as`) is a leaf.
                let extends = stmt.get(i + 1).is_some_and(|n| n.is_punct(b':'))
                    && stmt.get(i + 2).is_some_and(|n| n.is_punct(b':'));
                prefix.push(name.to_string());
                if !extends {
                    out.push(UseImport {
                        alias: name.to_string(),
                        path: prefix.clone(),
                    });
                    prefix.pop();
                    i += 1;
                    continue;
                }
                i += 3;
                // `name::{…}` — recurse over the braced group.
                if stmt.get(i).is_some_and(|n| n.is_punct(b'{')) {
                    let mut depth = 0usize;
                    let open = i;
                    while i < stmt.len() {
                        match stmt[i].kind {
                            TokKind::Punct(b'{') => depth += 1,
                            TokKind::Punct(b'}') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                    let inner = &stmt[open + 1..i.min(stmt.len())];
                    split_use_group(inner, src, prefix, out);
                    prefix.truncate(depth_at_entry);
                    i += 1;
                }
            }
            TokKind::Punct(b'*') => {
                // Glob import: nothing nameable to record.
                prefix.truncate(depth_at_entry);
                i += 1;
            }
            TokKind::Punct(b',') => {
                prefix.truncate(depth_at_entry);
                i += 1;
            }
            _ => i += 1,
        }
    }
    prefix.truncate(depth_at_entry);
}

/// Split a `{a, b::c, d as e}` group on top-level commas and flatten each.
fn split_use_group(inner: &[Tok], src: &str, prefix: &mut Vec<String>, out: &mut Vec<UseImport>) {
    let mut start = 0usize;
    let mut depth = 0usize;
    for k in 0..=inner.len() {
        let at_comma = k < inner.len() && inner[k].is_punct(b',') && depth == 0;
        if k == inner.len() || at_comma {
            if start < k {
                flatten_use(&inner[start..k], src, prefix, out);
            }
            start = k + 1;
            continue;
        }
        match inner[k].kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
}

/// Parse an `impl`/`trait` head starting just after the keyword. Returns
/// the self-type (or trait) name and the index of the body `{` (or as far
/// as scanning got). For `impl Trait for Type`, the name is `Type`; for
/// `impl fmt::Display for S`, it is `S` (the last segment of the first
/// top-level path after `for`).
fn parse_impl_head(toks: &[Tok], src: &str, start: usize) -> (String, usize) {
    let mut i = start;
    let mut before_for: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut past_for = false;
    let mut angle = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct(b'{') | TokKind::Punct(b';') => break,
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') if !(i > 0 && toks[i - 1].is_punct(b'-')) => {
                angle = angle.saturating_sub(1);
            }
            TokKind::Ident if angle == 0 => {
                let name = t.text(src);
                if name == "for" {
                    past_for = true;
                } else if name == "where" {
                    break; // head is over; scan forward to the `{` below
                } else if !matches!(name, "dyn" | "mut" | "const" | "unsafe") {
                    // Only record the tail segment of a path: `fmt::Display`
                    // records `Display`.
                    let is_tail = !(toks.get(i + 1).is_some_and(|n| n.is_punct(b':'))
                        && toks.get(i + 2).is_some_and(|n| n.is_punct(b':')));
                    let slot = if past_for {
                        &mut after_for
                    } else {
                        &mut before_for
                    };
                    if is_tail && slot.is_none() {
                        *slot = Some(name.to_string());
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    while i < toks.len() && !toks[i].is_punct(b'{') && !toks[i].is_punct(b';') {
        i += 1;
    }
    let owner = after_for.or(before_for).unwrap_or_else(|| "?".to_string());
    (owner, i)
}

/// Parse a `fn` head at token `i` (the `fn` keyword). Registers the item
/// and returns `(Some(fn_index)` if a body follows, `None` for bodyless
/// declarations`)`, plus the index of the body `{` / past the `;`.
#[allow(clippy::too_many_arguments)]
fn parse_fn_head(
    toks: &[Tok],
    src: &str,
    i: usize,
    scopes: &[Scope],
    base_module: &[String],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut ItemTree,
) -> Option<(Option<usize>, usize)> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text(src).to_string();

    // Module path and owner from the scope stack.
    let mut module: Vec<String> = base_module.to_vec();
    let mut owner: Option<String> = None;
    for s in scopes {
        match s {
            Scope::Mod(m) => module.push(m.clone()),
            Scope::Impl(t) => owner = Some(t.clone()),
            _ => {}
        }
    }

    // Scan the signature for `self` (methods) and the body `{` or `;`.
    let mut j = i + 2;
    let mut has_self = false;
    let mut paren = 0usize;
    let mut seen_params = false;
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct(b'(') => {
                paren += 1;
                seen_params = true;
            }
            TokKind::Punct(b')') => paren = paren.saturating_sub(1),
            TokKind::Ident if paren >= 1 && t.text(src) == "self" => has_self = true,
            TokKind::Punct(b'{') if paren == 0 && seen_params => break,
            TokKind::Punct(b';') if paren == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let has_body = toks.get(j).is_some_and(|t| t.is_punct(b'{'));
    let idx = out.fns.len();
    out.fns.push(FnItem {
        name,
        owner,
        module,
        has_self,
        in_test: in_test(name_tok.line),
        line: name_tok.line,
        col: name_tok.col,
        body: if has_body { (j, j) } else { (0, 0) },
        calls: Vec::new(),
        panics: Vec::new(),
    });
    if has_body {
        Some((Some(idx), j))
    } else {
        Some((None, j + 1))
    }
}

/// Second pass: walk every fn body and record call sites and panicking
/// constructs, attributing each token to the innermost enclosing fn.
fn attach_calls_and_panics(tree: &mut ItemTree, toks: &[Tok], src: &str) {
    // Sort body ranges so innermost-enclosing lookup is a scan of starts.
    // Fn bodies nest strictly (token ranges are properly nested), so the
    // innermost enclosing body is the one with the greatest start ≤ i.
    let mut order: Vec<usize> = (0..tree.fns.len())
        .filter(|&k| {
            let (a, b) = tree.fns[k].body;
            b > a
        })
        .collect();
    order.sort_by_key(|&k| tree.fns[k].body.0);

    for idx in 0..toks.len() {
        let Some(&owner_fn) = order.iter().rev().find(|&&k| {
            let (a, b) = tree.fns[k].body;
            idx > a && idx < b
        }) else {
            continue;
        };
        let t = &toks[idx];
        match t.kind {
            TokKind::Ident => {
                let name = t.text(src);
                let next_paren = toks.get(idx + 1).is_some_and(|n| n.is_punct(b'('));
                let next_bang = toks.get(idx + 1).is_some_and(|n| n.is_punct(b'!'));
                if next_bang {
                    if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented") {
                        tree.fns[owner_fn].panics.push(PanicSite {
                            line: t.line,
                            col: t.col,
                            what: format!("`{name}!`"),
                        });
                    }
                    continue;
                }
                if !next_paren {
                    continue;
                }
                let prev_dot = idx > 0 && toks[idx - 1].is_punct(b'.');
                let prev_path =
                    idx > 1 && toks[idx - 1].is_punct(b':') && toks[idx - 2].is_punct(b':');
                if prev_dot {
                    if matches!(name, "unwrap" | "expect") {
                        tree.fns[owner_fn].panics.push(PanicSite {
                            line: t.line,
                            col: t.col,
                            what: format!("`.{name}()`"),
                        });
                        continue;
                    }
                    tree.fns[owner_fn].calls.push(Call {
                        name: name.to_string(),
                        qual: Vec::new(),
                        kind: CallKind::Method,
                        line: t.line,
                        col: t.col,
                    });
                } else if prev_path {
                    let qual = leading_path(toks, src, idx);
                    tree.fns[owner_fn].calls.push(Call {
                        name: name.to_string(),
                        qual,
                        kind: CallKind::Path,
                        line: t.line,
                        col: t.col,
                    });
                } else if !NON_CALL_KEYWORDS.contains(&name) {
                    tree.fns[owner_fn].calls.push(Call {
                        name: name.to_string(),
                        qual: Vec::new(),
                        kind: CallKind::Bare,
                        line: t.line,
                        col: t.col,
                    });
                }
            }
            TokKind::Punct(b'[') if crate::rules::is_index_expr(toks, src, idx) => {
                tree.fns[owner_fn].panics.push(PanicSite {
                    line: t.line,
                    col: t.col,
                    what: "`[]` indexing".to_string(),
                });
            }
            _ => {}
        }
    }
}

/// Collect the path segments leading into a `::name(` call at `idx`:
/// `a::b::name(` → `["a", "b"]`. Skips turbofish generics.
fn leading_path(toks: &[Tok], src: &str, idx: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut j = idx; // at the callee name
    loop {
        if j < 2 || !toks[j - 1].is_punct(b':') || !toks[j - 2].is_punct(b':') {
            break;
        }
        let mut k = j - 3; // candidate segment end
                           // Skip a generic-argument list `<…>` between `segment` and `::`.
        if toks.get(k).is_some_and(|t| t.is_punct(b'>')) {
            let mut angle = 0usize;
            loop {
                match toks.get(k).map(|t| t.kind) {
                    Some(TokKind::Punct(b'>')) => angle += 1,
                    Some(TokKind::Punct(b'<')) => {
                        angle -= 1;
                        if angle == 0 {
                            break;
                        }
                    }
                    None => break,
                    _ => {}
                }
                if k == 0 {
                    break;
                }
                k -= 1;
            }
            if k == 0 {
                break;
            }
            k -= 1;
        }
        match toks.get(k) {
            Some(t) if t.kind == TokKind::Ident => {
                segs.push(t.text(src).to_string());
                j = k;
            }
            _ => break,
        }
    }
    segs.reverse();
    segs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> ItemTree {
        let lexed = lex(src);
        let regions = crate::rules::cfg_test_regions(&lexed.tokens, src);
        parse("crates/ebs-x/src/m.rs", src, &lexed, &regions)
    }

    #[test]
    fn module_paths_follow_file_layout() {
        assert_eq!(
            module_path_of("crates/ebs-store/src/stream.rs"),
            vec!["ebs-store", "stream"]
        );
        assert_eq!(
            module_path_of("crates/ebs-core/src/lib.rs"),
            vec!["ebs-core"]
        );
        assert_eq!(
            module_path_of("crates/ebs-workload/src/dist/zipf.rs"),
            vec!["ebs-workload", "dist", "zipf"]
        );
        assert_eq!(module_path_of("src/lib.rs"), vec!["ebs"]);
    }

    #[test]
    fn fns_methods_and_mods_are_extracted() {
        let src = r#"
            pub fn free(x: u32) -> u32 { helper(x) }
            fn helper(x: u32) -> u32 { x }
            pub struct S { v: Vec<u32> }
            impl S {
                pub fn method(&self) -> usize { self.v.capacity() }
                fn assoc() -> S { S { v: Vec::new() } }
            }
            mod inner {
                pub fn nested() {}
            }
            impl std::fmt::Display for S {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
            }
        "#;
        let t = tree(src);
        let names: Vec<(&str, Option<&str>, bool)> = t
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref(), f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None, false),
                ("helper", None, false),
                ("method", Some("S"), true),
                ("assoc", Some("S"), false),
                ("nested", None, false),
                ("fmt", Some("S"), true),
            ]
        );
        let nested = &t.fns[4];
        assert_eq!(nested.module, vec!["ebs-x", "m", "inner"]);
    }

    #[test]
    fn calls_are_attributed_to_the_innermost_fn() {
        let src = r#"
            fn outer() {
                alpha();
                fn inner() { beta(); }
                let c = |x: u32| gamma(x);
                c(1);
            }
        "#;
        let t = tree(src);
        let outer = &t.fns[0];
        let inner = &t.fns[1];
        let outer_calls: Vec<&str> = outer.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(outer_calls.contains(&"alpha"));
        assert!(
            outer_calls.contains(&"gamma"),
            "closure body belongs to outer"
        );
        assert!(!outer_calls.contains(&"beta"));
        assert_eq!(
            inner
                .calls
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["beta"]
        );
    }

    #[test]
    fn call_kinds_and_paths() {
        let src = r#"
            fn f() {
                bare();
                recv.method_name(1);
                ebs_analysis::batch::keyed_sums(a, b, c);
                Self::assoc();
                EbsError::corrupt_store("x");
            }
        "#;
        let t = tree(src);
        let calls = &t.fns[0].calls;
        let find = |n: &str| calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(find("bare").kind, CallKind::Bare);
        assert_eq!(find("method_name").kind, CallKind::Method);
        let ks = find("keyed_sums");
        assert_eq!(ks.kind, CallKind::Path);
        assert_eq!(ks.qual, vec!["ebs_analysis", "batch"]);
        assert_eq!(find("assoc").qual, vec!["Self"]);
        assert_eq!(find("corrupt_store").qual, vec!["EbsError"]);
    }

    #[test]
    fn panic_sites_are_recorded_per_fn() {
        let src = r#"
            fn a(x: Option<u32>, v: &[u32]) -> u32 { x.unwrap() + v[0] }
            fn b() { panic!("no"); }
            fn clean(x: u32) -> u32 { x + 1 }
        "#;
        let t = tree(src);
        assert_eq!(t.fns[0].panics.len(), 2);
        assert_eq!(t.fns[1].panics.len(), 1);
        assert!(t.fns[2].panics.is_empty());
    }

    #[test]
    fn use_imports_flatten_groups_and_aliases() {
        let src = r#"
            use ebs_analysis::{ccr, p2a};
            use ebs_core::hash::FxHashMap as Map;
            use crate::columns::decode_events_into;
            use std::io::Read;
        "#;
        let t = tree(src);
        let find = |a: &str| t.uses.iter().find(|u| u.alias == a).unwrap();
        assert_eq!(find("ccr").path, vec!["ebs_analysis", "ccr"]);
        assert_eq!(find("p2a").path, vec!["ebs_analysis", "p2a"]);
        assert_eq!(find("Map").path, vec!["ebs_core", "hash", "FxHashMap"]);
        assert_eq!(
            find("decode_events_into").path,
            vec!["crate", "columns", "decode_events_into"]
        );
    }

    #[test]
    fn test_gated_fns_are_marked() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { live(); }\n}\n";
        let t = tree(src);
        assert!(!t.fns[0].in_test);
        assert!(t.fns[1].in_test);
    }

    #[test]
    fn totality_on_malformed_input() {
        for bad in [
            "fn",
            "fn {",
            "impl",
            "use ::{{{",
            "fn f(",
            "mod",
            "trait X",
            "fn f<const N: usize>()",
        ] {
            let _ = tree(bad);
        }
    }
}
