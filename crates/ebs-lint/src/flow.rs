//! Dataflow heuristics for the determinism rules that need more context
//! than a single token: D6 (hash-iteration order leaking into results) and
//! D7 (floating-point accumulation order in parallel regions and `merge`
//! reducers).
//!
//! Like the rest of the linter these are token-level approximations, not
//! type checking: a name is "hash-typed" if any annotation or initializer
//! in the file binds it to a `HashMap`/`HashSet`/`Fx*` type, and
//! "float-typed" if bound to `f64`/`f32` (with one propagation round
//! through `for`-loop bindings so `for (dst, src) in a.iter_mut().zip(&b)`
//! inherits `a`/`b`'s floatness). The known miss modes are documented in
//! `DESIGN.md` §18; every finding is ratcheted, so a false positive costs
//! one reasoned suppression or baseline entry, never a broken build.

use crate::diag::Violation;
use crate::items::ItemTree;
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// Methods that iterate a collection in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// Hash-ordered collection type names (std and the workspace's Fx shims).
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Order-independent consumers: iterating a hash collection into these is
/// fine without a sort.
const ORDER_FREE_CALLS: &[&str] = &["count", "any", "all"];

/// Re-sorting collectors: landing hash-iteration output in one of these
/// canonicalizes the order again.
const ORDERED_SINKS: &[&str] = &["BTreeMap", "BTreeSet", "BinaryHeap"];

/// Integer types: `sum::<u64>()` over any iteration order is exact.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Run D6/D7 over one lexed file. Returns ratchet-eligible findings
/// (the caller filters suppressions and `#[cfg(test)]` regions).
pub fn check(path: &str, src: &str, toks: &[Tok], items: &ItemTree) -> Vec<Violation> {
    let mut out = Vec::new();
    let (hashy, floaty) = typed_names(toks, src);
    d6_iteration_order(path, src, toks, &hashy, &mut out);
    d7_parallel_reduction(path, src, toks, items, &floaty, &mut out);
    out
}

fn mk(rule: &'static str, path: &str, t: &Tok, message: String) -> Violation {
    Violation {
        rule,
        path: path.to_string(),
        line: t.line,
        col: t.col,
        message,
        trace: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// name → approximate type classification
// ---------------------------------------------------------------------

/// Collect the names this file binds to hash-ordered collections and to
/// floats, from `name: Type` annotations (including struct fields) and
/// `name = HashType::…` initializers, plus one propagation round through
/// `for`-pattern bindings.
fn typed_names(toks: &[Tok], src: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut hashy: BTreeSet<String> = BTreeSet::new();
    let mut floaty: BTreeSet<String> = BTreeSet::new();

    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text(src);
        // `name : Type` (single colon) — annotation or struct field.
        let single_colon = toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
            && !(i > 0 && toks[i - 1].is_punct(b':'));
        if single_colon {
            let (is_hash, is_float) = scan_type_tokens(toks, src, i + 2);
            if is_hash {
                hashy.insert(name.to_string());
            }
            if is_float {
                floaty.insert(name.to_string());
            }
        }
        // `name = HashType::…` initializer.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(b'='))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(b'='))
        {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(b';') && j < i + 10 {
                if toks[j].kind == TokKind::Ident && HASH_TYPES.contains(&toks[j].text(src)) {
                    hashy.insert(name.to_string());
                    break;
                }
                j += 1;
            }
        }
    }

    // One propagation round: `for (a, b) in <expr mentioning a float name>`
    // marks `a`/`b` float (covers the zip-of-partials merge shape).
    for i in 0..toks.len() {
        if !toks[i].is_ident(src, "for") || (i > 0 && toks[i - 1].is_punct(b'.')) {
            continue;
        }
        let mut pat: Vec<String> = Vec::new();
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_ident(src, "in") && !toks[j].is_punct(b'{') {
            if toks[j].kind == TokKind::Ident {
                pat.push(toks[j].text(src).to_string());
            }
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_ident(src, "in")) {
            continue;
        }
        let expr_start = j + 1;
        let mut k = expr_start;
        let mut depth = 0usize;
        let mut mentions_float = false;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => depth = depth.saturating_sub(1),
                TokKind::Punct(b'{') if depth == 0 => break,
                TokKind::Ident if floaty.contains(toks[k].text(src)) => mentions_float = true,
                _ => {}
            }
            k += 1;
        }
        if mentions_float {
            floaty.extend(pat);
        }
    }

    (hashy, floaty)
}

/// Scan type tokens starting at `j` (just after `:`) until the annotation
/// ends at depth 0. Reports whether the type mentions a hash collection /
/// a float scalar.
fn scan_type_tokens(toks: &[Tok], src: &str, j: usize) -> (bool, bool) {
    let mut angle = 0i32;
    let mut nest = 0i32;
    let mut is_hash = false;
    let mut is_float = false;
    let mut k = j;
    while k < toks.len() {
        let t = &toks[k];
        match t.kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') if !(k > 0 && toks[k - 1].is_punct(b'-')) => {
                angle -= 1;
                if angle < 0 {
                    break;
                }
            }
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => nest += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => {
                nest -= 1;
                if nest < 0 {
                    break;
                }
            }
            TokKind::Punct(b',') | TokKind::Punct(b';') | TokKind::Punct(b'=')
                if angle == 0 && nest == 0 =>
            {
                break
            }
            TokKind::Punct(b'{') | TokKind::Punct(b'}') => break,
            TokKind::Ident => {
                let name = t.text(src);
                if HASH_TYPES.contains(&name) {
                    is_hash = true;
                }
                if name == "f64" || name == "f32" {
                    is_float = true;
                }
            }
            _ => {}
        }
        k += 1;
    }
    (is_hash, is_float)
}

// ---------------------------------------------------------------------
// D6 — hash-iteration order leaking into results
// ---------------------------------------------------------------------

fn d6_iteration_order(
    path: &str,
    src: &str,
    toks: &[Tok],
    hashy: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    for i in 0..toks.len() {
        // `map.iter()` — receiver is the ident right before the dot.
        let method_site = toks[i].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i].text(src))
            && i >= 2
            && toks[i - 1].is_punct(b'.')
            && toks[i - 2].kind == TokKind::Ident
            && hashy.contains(toks[i - 2].text(src))
            && toks.get(i + 1).is_some_and(|t| t.is_punct(b'('));
        // `for x in map {` / `for (k, v) in &self.map {` — only when the
        // loop expression is a plain place expression (calls are covered
        // by the method-site case).
        let for_site = toks[i].is_ident(src, "for")
            && !(i > 0 && (toks[i - 1].is_punct(b'.') || toks[i - 1].is_punct(b':')))
            && for_loop_over_hash(toks, src, i, hashy);
        if !(method_site || for_site) {
            continue;
        }
        if statement_is_order_free(toks, src, i) || let_binding_is_sorted(toks, src, i) {
            continue;
        }
        let recv = if method_site {
            toks[i - 2].text(src)
        } else {
            "the loop expression"
        };
        out.push(mk(
            "D6",
            path,
            &toks[i],
            format!(
                "iteration over hash-ordered `{recv}` can leak nondeterministic order into \
                 results; collect and sort (or use a BTree* collection / an order-free \
                 reduction) before emitting"
            ),
        ));
    }
}

/// Whether the `for` at `i` loops directly over a hash-named place
/// expression (`map`, `&map`, `&self.map` — no calls).
fn for_loop_over_hash(toks: &[Tok], src: &str, i: usize, hashy: &BTreeSet<String>) -> bool {
    let mut j = i + 1;
    while j < toks.len() && !toks[j].is_ident(src, "in") && !toks[j].is_punct(b'{') {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_ident(src, "in")) {
        return false;
    }
    let mut last_ident: Option<&str> = None;
    let mut k = j + 1;
    while k < toks.len() && !toks[k].is_punct(b'{') {
        match toks[k].kind {
            TokKind::Ident => last_ident = Some(toks[k].text(src)),
            TokKind::Punct(b'&') | TokKind::Punct(b'.') => {}
            // Any call, range, or index in the expression: not a plain
            // place; the method-site scan owns those.
            _ => return false,
        }
        k += 1;
    }
    last_ident.is_some_and(|n| hashy.contains(n))
}

/// Whether the statement containing token `i` ends in an order-independent
/// consumer: `count()/any()/all()`, an integer `sum::<uN>()`/`product`,
/// or a re-sorting `BTree*`/`BinaryHeap` collect.
fn statement_is_order_free(toks: &[Tok], src: &str, i: usize) -> bool {
    let (a, b) = statement_span(toks, i);
    let stmt = &toks[a..b];
    for (k, t) in stmt.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(src);
        if ORDERED_SINKS.contains(&name) {
            return true;
        }
        let called = stmt.get(k + 1).is_some_and(|n| n.is_punct(b'('));
        if called && ORDER_FREE_CALLS.contains(&name) {
            return true;
        }
        if (name == "sum" || name == "product")
            && stmt.get(k + 1).is_some_and(|n| n.is_punct(b':'))
            && stmt
                .iter()
                .skip(k + 2)
                .take(4)
                .any(|n| n.kind == TokKind::Ident && INT_TYPES.contains(&n.text(src)))
        {
            return true;
        }
    }
    false
}

/// If the statement containing `i` is a `let` binding, whether the bound
/// name is later sorted (`name.sort…`) anywhere in the file — the
/// collect-then-sort canonicalization pattern.
fn let_binding_is_sorted(toks: &[Tok], src: &str, i: usize) -> bool {
    let (a, _) = statement_span(toks, i);
    let mut j = a;
    if !toks.get(j).is_some_and(|t| t.is_ident(src, "let")) {
        return false;
    }
    j += 1;
    if toks.get(j).is_some_and(|t| t.is_ident(src, "mut")) {
        j += 1;
    }
    let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
        return false;
    };
    let name = name_tok.text(src);
    toks.windows(3).any(|w| {
        w[0].is_ident(src, name) && w[1].is_punct(b'.') && {
            w[2].kind == TokKind::Ident && w[2].text(src).starts_with("sort")
        }
    })
}

/// Token span `[start, end)` of the statement containing `i`: from just
/// after the previous `;`/`{`/`}` to the next `;` (or `{` for loop/if
/// headers) at paren depth 0.
fn statement_span(toks: &[Tok], i: usize) -> (usize, usize) {
    let mut a = i;
    while a > 0 {
        match toks[a - 1].kind {
            TokKind::Punct(b';') | TokKind::Punct(b'{') | TokKind::Punct(b'}') => break,
            _ => a -= 1,
        }
    }
    let mut b = i;
    let mut depth = 0usize;
    while b < toks.len() {
        match toks[b].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth = depth.saturating_sub(1),
            TokKind::Punct(b';') | TokKind::Punct(b'{') | TokKind::Punct(b'}') if depth == 0 => {
                break
            }
            _ => {}
        }
        b += 1;
    }
    (a, b.min(toks.len()))
}

// ---------------------------------------------------------------------
// D7 — float accumulation order in parallel regions and merge reducers
// ---------------------------------------------------------------------

fn d7_parallel_reduction(
    path: &str,
    src: &str,
    toks: &[Tok],
    items: &ItemTree,
    floaty: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    // --- inside par_map_deterministic / par_jobs argument lists ---------
    for i in 0..toks.len() {
        let is_par = toks[i].kind == TokKind::Ident
            && matches!(toks[i].text(src), "par_map_deterministic" | "par_jobs")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(b'('));
        if !is_par {
            continue;
        }
        let (open, close) = match match_paren(toks, i + 1) {
            Some(r) => r,
            None => continue,
        };
        let locals = closure_locals(toks, src, open, close);
        for k in open..close {
            if let Some(root) = float_compound_assign(toks, src, k, floaty) {
                if !locals.contains(root) {
                    out.push(mk(
                        "D7",
                        path,
                        &toks[k],
                        format!(
                            "float accumulation into captured `{root}` inside a parallel map; \
                             return per-item partials and reduce them in input order instead \
                             (the `StreamSummary::merge` exact-partials pattern)"
                        ),
                    ));
                }
            }
            if toks[k].kind == TokKind::Ident
                && toks[k].text(src) == "lock"
                && k > 0
                && toks[k - 1].is_punct(b'.')
                && toks.get(k + 1).is_some_and(|t| t.is_punct(b'('))
            {
                out.push(mk(
                    "D7",
                    path,
                    &toks[k],
                    "`.lock()` inside a parallel map closure: shared mutable state makes the \
                     reduction order scheduler-dependent; accumulate per item and merge in \
                     input order"
                        .to_string(),
                ));
            }
        }
    }

    // --- inside fns named `merge` (reducers) ----------------------------
    for f in &items.fns {
        if f.name != "merge" || f.body.1 <= f.body.0 {
            continue;
        }
        for k in f.body.0..f.body.1 {
            let Some(root) = float_compound_assign(toks, src, k, floaty) else {
                continue;
            };
            // The blessed exact-partials shape pairs partial vectors
            // positionally (`iter_mut().zip(…)`) so the adds happen in a
            // fixed sequential order; anything else must justify itself.
            let ctx_start = k.saturating_sub(40).max(f.body.0);
            let blessed = toks[ctx_start..k]
                .iter()
                .any(|t| t.kind == TokKind::Ident && matches!(t.text(src), "zip" | "iter_mut"));
            if !blessed {
                out.push(mk(
                    "D7",
                    path,
                    &toks[k],
                    format!(
                        "float accumulation into `{root}` in a `merge` reducer outside the \
                         exact-partials pattern; pair partial vectors positionally \
                         (`iter_mut().zip(…)`, as `StreamSummary::merge` does) so the \
                         addition order is fixed"
                    ),
                ));
            }
        }
    }
}

/// If token `k` starts a compound assignment (`+=`/`-=`/`*=`/`/=`) whose
/// statement touches floats, return the assigned place's root name.
fn float_compound_assign<'s>(
    toks: &'s [Tok],
    src: &'s str,
    k: usize,
    floaty: &BTreeSet<String>,
) -> Option<&'s str> {
    let op = matches!(
        toks[k].kind,
        TokKind::Punct(b'+') | TokKind::Punct(b'-') | TokKind::Punct(b'*') | TokKind::Punct(b'/')
    );
    let eq = toks.get(k + 1).is_some_and(|t| {
        t.is_punct(b'=') && t.start == toks[k].start + toks[k].len
            // not `==`/`=>` continuing
            && !toks.get(k + 2).is_some_and(|n| n.is_punct(b'=') && n.start == t.start + t.len)
    });
    if !(op && eq) {
        return None;
    }
    // `<<=`-style ops share the trailing byte check; exclude when the
    // previous token is the same punct glued on (`<<=`, `>>=` irrelevant
    // for floats anyway).
    let root = place_root(toks, src, k)?;
    let is_float = floaty.contains(root) || statement_touches_float(toks, src, k);
    if is_float {
        Some(root)
    } else {
        None
    }
}

/// Walk back from the operator at `k` over the assigned place expression
/// (`self.a[i] += …`, `*dst += …`) and return its root field/var name.
fn place_root<'s>(toks: &'s [Tok], src: &'s str, k: usize) -> Option<&'s str> {
    let mut j = k;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match toks[j].kind {
            TokKind::Punct(b']') | TokKind::Punct(b')') => {
                let close = if toks[j].is_punct(b']') { b']' } else { b')' };
                let open = if close == b']' { b'[' } else { b'(' };
                let mut depth = 0usize;
                loop {
                    match toks[j].kind {
                        TokKind::Punct(c) if c == close => depth += 1,
                        TokKind::Punct(c) if c == open => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == 0 {
                        return None;
                    }
                    j -= 1;
                }
            }
            TokKind::Ident => return Some(toks[j].text(src)),
            _ => return None,
        }
    }
}

/// Whether the statement containing `k` mentions a float literal, an
/// `f64`/`f32` ident, or an `as f64` cast.
fn statement_touches_float(toks: &[Tok], src: &str, k: usize) -> bool {
    let (a, b) = statement_span(toks, k);
    toks[a..b].iter().any(|t| match t.kind {
        TokKind::Number => t.text(src).contains('.'),
        TokKind::Ident => matches!(t.text(src), "f64" | "f32"),
        _ => false,
    })
}

/// Token range `(open, close)` of the parenthesized list opening at `open`.
fn match_paren(toks: &[Tok], open: usize) -> Option<(usize, usize)> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct(b'(') => depth += 1,
            TokKind::Punct(b')') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some((open, k));
                }
            }
            _ => {}
        }
    }
    None
}

/// Names bound locally inside a parallel-call argument range: closure
/// parameters, `let` bindings, and `for` patterns. Accumulating into these
/// is per-item state, which `par_map_deterministic` returns in input order.
fn closure_locals(toks: &[Tok], src: &str, open: usize, close: usize) -> BTreeSet<String> {
    let mut locals = BTreeSet::new();
    let mut k = open;
    while k < close {
        let t = &toks[k];
        // `|a, b|` closure heads (after `(`, `,`, or `move`).
        if t.is_punct(b'|')
            && k > 0
            && (toks[k - 1].is_punct(b'(')
                || toks[k - 1].is_punct(b',')
                || toks[k - 1].is_ident(src, "move"))
        {
            let mut j = k + 1;
            while j < close && !toks[j].is_punct(b'|') {
                if toks[j].kind == TokKind::Ident {
                    locals.insert(toks[j].text(src).to_string());
                }
                j += 1;
            }
            k = j + 1;
            continue;
        }
        // `let [mut] pat =` and `for pat in`.
        if t.is_ident(src, "let") || t.is_ident(src, "for") {
            let stop_for = t.is_ident(src, "for");
            let mut j = k + 1;
            while j < close {
                let n = &toks[j];
                if n.is_punct(b'=') || n.is_punct(b';') || n.is_punct(b'{') {
                    break;
                }
                if stop_for && n.is_ident(src, "in") {
                    break;
                }
                if n.kind == TokKind::Ident {
                    locals.insert(n.text(src).to_string());
                }
                j += 1;
            }
            k = j;
            continue;
        }
        k += 1;
    }
    locals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn flow(src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let tree = crate::items::parse("crates/ebs-x/src/m.rs", src, &lexed, &[]);
        check("crates/ebs-x/src/m.rs", src, &lexed.tokens, &tree)
    }

    fn rules(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn d6_flags_unsorted_hash_iteration() {
        let src = r#"
            fn f(m: FxHashMap<u64, u64>) -> Vec<u64> {
                m.values().copied().collect()
            }
        "#;
        assert_eq!(rules(&flow(src)), vec!["D6"]);
    }

    #[test]
    fn d6_accepts_collect_then_sort_and_order_free_reductions() {
        let src = r#"
            fn f(m: FxHashMap<u64, u64>) -> Vec<u64> {
                let mut out: Vec<u64> = m.values().copied().collect();
                out.sort_unstable();
                out
            }
            fn g(m: FxHashMap<u64, u64>) -> usize { m.keys().count() }
            fn h(m: FxHashMap<u64, u64>) -> u64 { m.values().copied().sum::<u64>() }
            fn b(m: FxHashMap<u64, u64>) -> BTreeMap<u64, u64> {
                m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<u64, u64>>()
            }
        "#;
        assert_eq!(rules(&flow(src)), Vec::<&str>::new());
    }

    #[test]
    fn d6_flags_bare_for_loops_over_hash_maps() {
        let src = r#"
            fn f(m: &FxHashMap<u64, u64>, out: &mut Vec<u64>) {
                for (_k, v) in m { out.push(*v); }
            }
        "#;
        assert_eq!(rules(&flow(src)), vec!["D6"]);
    }

    #[test]
    fn d7_flags_captured_float_accumulation_and_locks_in_par_closures() {
        let src = r#"
            fn f(items: &[f64], total: &Total) {
                par_map_deterministic(items, |i, x| {
                    total.sum += *x;
                });
            }
            fn g(items: &[u64], m: &Mutex<f64>) {
                par_map_deterministic(items, |i, x| {
                    *m.lock().unwrap() += *x as f64;
                });
            }
        "#;
        let got = rules(&flow(src));
        assert!(got.contains(&"D7"), "got {got:?}");
        assert!(got.len() >= 2, "both the += and the lock: {got:?}");
    }

    #[test]
    fn d7_accepts_local_accumulators_and_zip_merges() {
        let src = r#"
            fn f(items: &[f64]) -> Vec<f64> {
                par_map_deterministic(items, |i, x| {
                    let mut acc = 0.0f64;
                    acc += *x;
                    acc
                })
            }
            struct S { vd_bytes: Vec<f64> }
            impl S {
                fn merge(&mut self, other: &S) {
                    for (dst, src) in self.vd_bytes.iter_mut().zip(&other.vd_bytes) {
                        *dst += *src;
                    }
                }
            }
        "#;
        assert_eq!(rules(&flow(src)), Vec::<&str>::new());
    }

    #[test]
    fn d7_flags_non_positional_float_merge() {
        let src = r#"
            struct S { total: f64 }
            impl S {
                fn merge(&mut self, other: &S) {
                    self.total += other.total;
                }
            }
        "#;
        assert_eq!(rules(&flow(src)), vec!["D7"]);
    }
}
