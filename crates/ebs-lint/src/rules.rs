//! The rule engine: scans one lexed file and reports violations of the
//! workspace invariants.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | `D1` | No `std::collections::HashMap/HashSet` with the default (SipHash, per-process-seeded) hasher — use `ebs_core::hash::Fx*`. |
//! | `D3` | No `unwrap()/expect()/panic!/unreachable!/todo!/unimplemented!` and no unchecked slice indexing. Hard error in *total* modules; ratcheted via `lint-baseline.toml` elsewhere. |
//! | `D3v2` | Workspace-level: no fn in a total module may *reach* a panicking construct through the call graph ([`crate::graph`]). Ratcheted. |
//! | `D6` | No hash-ordered iteration flowing into results without a canonicalizing sort ([`crate::flow`]). Ratcheted. |
//! | `D7` | No float accumulation in parallel-map closures or `merge` reducers outside the exact-partials pattern ([`crate::flow`]). Ratcheted. |
//!
//! Wall clocks, printing, hasher seeds and env reads are clippy's
//! (`clippy.toml` and `[workspace.lints.clippy]`; `DESIGN.md` §13).
//!
//! Any finding can be silenced in place with
//! `// ebs-lint: allow(D3) -- <reason>` on the offending line or the line
//! above; the reason is mandatory (a bare `allow` is itself a violation,
//! rule `SUP`).

use crate::diag::Violation;
use crate::lexer::{lex, Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// How a file is classified for rule applicability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`ebs-obs` included): every rule applies.
    Lib,
    /// Binary targets (`src/bin/*`, `src/main.rs`) and `examples/`: may
    /// panic on bad input, but feed the gold masters (D1, D6, D7).
    Bin,
    /// Integration tests (`tests/` directories) and the offline test-harness
    /// shim (`proptest-shim`): D1 only.
    Test,
}

/// Per-file scan result, split by enforcement mode.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// Hard errors: not eligible for the baseline.
    pub strict: Vec<Violation>,
    /// Ratchet-eligible findings (D3 outside total modules, D6/D7):
    /// compared against `lint-baseline.toml` by the caller, per rule
    /// section (count may only decrease).
    pub ratchet: Vec<Violation>,
}

/// Full per-file scan: rule findings plus the parsed item tree the
/// workspace passes (call graph, D3v2) build on.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Strict + ratchet findings, suppressions already applied.
    pub outcome: CheckOutcome,
    /// The file's item tree. Panic sites inside `#[cfg(test)]` fns or
    /// covered by an `allow(D3)`/`allow(D3v2)` suppression are removed, so
    /// the reachability pass sees only live, unexcused sites.
    pub items: crate::items::ItemTree,
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`&mut [u8]`, `let [a, b] = …`, `dyn [T]`-ish positions).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while",
    "yield",
];

/// All valid rule ids, for suppression validation. `D3v2` is the
/// workspace-level transitive-totality rule ([`crate::graph`]); `D6` and
/// `D7` are the dataflow rules ([`crate::flow`]).
pub const RULE_IDS: &[&str] = &["D1", "D3", "D3v2", "D6", "D7"];

/// Rules whose findings ratchet through `lint-baseline.toml` (outside
/// total modules) instead of failing outright.
pub const RATCHET_RULES: &[&str] = &["D3", "D3v2", "D6", "D7"];

/// Scan `src` (at workspace-relative `path`, classified `class`;
/// `total` = D3-strict total module). Returns strict + ratchet findings,
/// already filtered through inline suppressions and `#[cfg(test)]` regions.
pub fn check_source(path: &str, class: FileClass, total: bool, src: &str) -> CheckOutcome {
    scan_file(path, class, total, src).outcome
}

/// Like [`check_source`], but also returns the parsed item tree for the
/// workspace-level passes (one lex, one parse per file).
pub fn scan_file(path: &str, class: FileClass, total: bool, src: &str) -> FileScan {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let test_regions = cfg_test_regions(toks, src);
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| line >= a && line <= b);
    let (suppressions, mut sup_violations) = parse_suppressions(path, &lexed, toks);
    for v in &mut sup_violations {
        v.path = path.to_string();
    }
    let mut items = crate::items::parse(path, src, &lexed, &test_regions);

    let mut raw: Vec<(Violation, bool)> = Vec::new(); // (violation, ratchetable)
    let mk = |rule: &'static str, t: &Tok, message: String| Violation {
        rule,
        path: path.to_string(),
        line: t.line,
        col: t.col,
        message,
        trace: Vec::new(),
    };

    // ---- D1: default-hasher std maps --------------------------------
    let use_ranges = use_statement_ranges(toks, src);
    let std_imports = std_collections_imports(toks, src, &use_ranges);
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(src);
        let base = match std_imports.iter().find(|(_, alias)| alias == name) {
            Some((orig, _)) => Some(orig.as_str()),
            None if (name == "HashMap" || name == "HashSet") && qualified_std(toks, src, i) => {
                Some(name)
            }
            None => None,
        };
        let Some(base) = base else { continue };
        if in_use_range(&use_ranges, i) {
            continue; // the import itself is not a use site
        }
        if !hasher_is_explicit(toks, src, i, base) {
            let fx = if base == "HashMap" {
                "FxHashMap"
            } else {
                "FxHashSet"
            };
            raw.push((
                mk(
                    "D1",
                    t,
                    format!(
                        "`std::collections::{base}` with the default SipHash hasher; \
                         use `ebs_core::hash::{fx}` (deterministic, ~2-3x faster on small keys)"
                    ),
                ),
                false,
            ));
        }
    }

    // ---- D3: panics and unchecked indexing --------------------------
    // A panic in a test harness, bin, or example aborts that run only —
    // the no-panic discipline targets library code consumed by others.
    if class == FileClass::Lib {
        for i in 0..toks.len() {
            let t = &toks[i];
            let finding = match t.kind {
                TokKind::Ident => {
                    let name = t.text(src);
                    let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct(b'!'));
                    let prev_dot = i > 0 && toks[i - 1].is_punct(b'.');
                    let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct(b'('));
                    match name {
                        "unwrap" | "expect" if prev_dot && next_paren => Some(format!(
                            "`.{name}()` can panic; return a typed `ebs_core::error::EbsError` \
                             instead"
                        )),
                        "panic" | "unreachable" | "todo" | "unimplemented" if next_bang => {
                            Some(format!("`{name}!` in library code; return a typed error"))
                        }
                        _ => None,
                    }
                }
                TokKind::Punct(b'[') if is_index_expr(toks, src, i) => Some(
                    "unchecked slice indexing can panic; use `.get()`/`.get_mut()` and map \
                     the `None` to a typed error"
                        .to_string(),
                ),
                _ => None,
            };
            if let Some(msg) = finding {
                raw.push((mk("D3", t, msg), !total));
            }
        }
    }

    // ---- D6/D7: dataflow rules --------------------------------------
    // Applied to everything that feeds deterministic output — including
    // bins and examples, which write the gold masters.
    if class != FileClass::Test {
        raw.extend(
            crate::flow::check(path, src, toks, &items)
                .into_iter()
                .map(|v| (v, true)),
        );
    }

    // ---- filter: cfg(test) regions + suppressions -------------------
    let mut out = CheckOutcome::default();
    out.strict.append(&mut sup_violations);
    for (v, ratchetable) in raw {
        // D1 guards determinism of the tests themselves; the rest are
        // production-path rules and skip test-gated code.
        if v.rule != "D1" && in_test(v.line) {
            continue;
        }
        if suppressions
            .iter()
            .any(|s| s.rule == v.rule && s.covers == v.line)
        {
            continue;
        }
        if ratchetable {
            out.ratchet.push(v);
        } else {
            out.strict.push(v);
        }
    }

    // Excused panic sites (suppressed D3/D3v2) drop out of the item tree
    // so the reachability pass does not re-report them.
    for f in &mut items.fns {
        f.panics.retain(|p| {
            !suppressions
                .iter()
                .any(|s| (s.rule == "D3" || s.rule == "D3v2") && s.covers == p.line)
        });
    }

    FileScan {
        outcome: out,
        items,
    }
}

/// A validated suppression directive: silences `rule` on line `covers`.
#[derive(Debug)]
struct Suppression {
    rule: String,
    covers: u32,
}

/// Parse `// ebs-lint: allow(D3) -- reason` directives out of the comment
/// list. A directive on a line with code covers that line; a standalone
/// comment covers the next line. Malformed directives (missing reason,
/// unknown rule) are violations themselves.
fn parse_suppressions(
    path: &str,
    lexed: &Lexed,
    toks: &[Tok],
) -> (Vec<Suppression>, Vec<Violation>) {
    let code_lines: BTreeSet<u32> = toks.iter().map(|t| t.line).collect();
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    for c in &lexed.comments {
        let Some(at) = c.text.find("ebs-lint:") else {
            continue;
        };
        let covers = if code_lines.contains(&c.line) {
            c.line
        } else {
            c.end_line + 1
        };
        let mut fail = |msg: String| {
            bad.push(Violation {
                rule: "SUP",
                path: path.to_string(),
                line: c.line,
                col: 1,
                message: msg,
                trace: Vec::new(),
            })
        };
        let rest = c.text[at + "ebs-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            fail(
                "malformed ebs-lint directive; expected \
                 `ebs-lint: allow(<rule>) -- <reason>`"
                    .to_string(),
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            fail("unclosed `allow(` in ebs-lint directive".to_string());
            continue;
        };
        let (rule_list, after) = rest.split_at(close);
        let after = after[1..].trim_start(); // drop ')'
        let reason = after.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            fail(
                "suppression without a reason; write \
                 `ebs-lint: allow(<rule>) -- <why this site is exempt>`"
                    .to_string(),
            );
            continue;
        }
        for rule in rule_list.split(',').map(str::trim) {
            if !RULE_IDS.contains(&rule) {
                fail(format!("unknown rule `{rule}` in ebs-lint directive"));
                continue;
            }
            sups.push(Suppression {
                rule: rule.to_string(),
                covers,
            });
        }
    }
    (sups, bad)
}

/// Compute `(start_line, end_line)` regions of items gated by
/// `#[cfg(test)]` or `#[test]`. Brace balancing over the token stream is
/// exact because strings and comments are already stripped.
pub fn cfg_test_regions(toks: &[Tok], src: &str) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_punct(b'#') {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct(b'!')) {
            j += 1; // inner attribute `#![…]`
        }
        if !toks.get(j).is_some_and(|t| t.is_punct(b'[')) {
            i += 1;
            continue;
        }
        // Find the matching `]`.
        let mut depth = 0usize;
        let mut k = j;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if k >= toks.len() {
            break;
        }
        let inner = &toks[j + 1..k];
        let gated = matches!(
            inner
                .iter()
                .map(|t| t.text(src))
                .collect::<Vec<_>>()
                .as_slice(),
            ["cfg", "(", "test", ")"] | ["test"]
        );
        if !gated {
            i = k + 1;
            continue;
        }
        // Skip any further attributes, then span the gated item.
        let mut m = k + 1;
        while toks.get(m).is_some_and(|t| t.is_punct(b'#'))
            && toks.get(m + 1).is_some_and(|t| t.is_punct(b'['))
        {
            let mut d = 0usize;
            while m < toks.len() {
                match toks[m].kind {
                    TokKind::Punct(b'[') => d += 1,
                    TokKind::Punct(b']') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            m += 1;
        }
        // Walk to the item's end: `;` before any body, or the matching `}`.
        let mut braces = 0usize;
        let mut end_line = toks.get(m).map_or(toks[k].line, |t| t.line);
        while m < toks.len() {
            match toks[m].kind {
                TokKind::Punct(b'{') => braces += 1,
                TokKind::Punct(b'}') => {
                    braces = braces.saturating_sub(1);
                    if braces == 0 {
                        end_line = toks[m].line;
                        break;
                    }
                }
                TokKind::Punct(b';') if braces == 0 => {
                    end_line = toks[m].line;
                    break;
                }
                _ => {}
            }
            end_line = toks[m].line;
            m += 1;
        }
        regions.push((toks[attr_start].line, end_line));
        i = m + 1;
    }
    regions
}

/// Token-index ranges `[start, end]` of `use …;` statements.
fn use_statement_ranges(toks: &[Tok], src: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_use = toks[i].is_ident(src, "use")
            && (i == 0 || !toks[i - 1].is_punct(b':') && !toks[i - 1].is_punct(b'.'));
        if is_use {
            let start = i;
            while i < toks.len() && !toks[i].is_punct(b';') {
                i += 1;
            }
            ranges.push((start, i));
        }
        i += 1;
    }
    ranges
}

fn in_use_range(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i <= b)
}

/// Names under which this file imports `std::collections::{HashMap,HashSet}`
/// (original, local-alias) — the alias differs for `… as Map` imports.
fn std_collections_imports(
    toks: &[Tok],
    src: &str,
    ranges: &[(usize, usize)],
) -> Vec<(String, String)> {
    let mut imports = Vec::new();
    for &(a, b) in ranges {
        let stmt = &toks[a..=b.min(toks.len() - 1)];
        let mentions_std_collections = stmt.windows(4).any(|w| {
            w[0].is_ident(src, "std")
                && w[1].is_punct(b':')
                && w[2].is_punct(b':')
                && w[3].is_ident(src, "collections")
        });
        if !mentions_std_collections {
            continue;
        }
        for (k, t) in stmt.iter().enumerate() {
            let name = if t.kind == TokKind::Ident {
                t.text(src)
            } else {
                continue;
            };
            if name != "HashMap" && name != "HashSet" {
                continue;
            }
            let alias = match (stmt.get(k + 1), stmt.get(k + 2)) {
                (Some(asn), Some(al)) if asn.is_ident(src, "as") && al.kind == TokKind::Ident => {
                    al.text(src)
                }
                _ => name,
            };
            imports.push((name.to_string(), alias.to_string()));
        }
    }
    imports
}

/// Whether the ident at `i` is reached through a `std::collections::` (or
/// `collections::`) path.
fn qualified_std(toks: &[Tok], src: &str, i: usize) -> bool {
    i >= 3
        && toks[i - 1].is_punct(b':')
        && toks[i - 2].is_punct(b':')
        && toks[i - 3].is_ident(src, "collections")
}

/// Whether the `HashMap`/`HashSet` use at token `i` explicitly supplies a
/// hasher: enough generic arguments (3 for maps, 2 for sets), or a
/// `with_hasher`-family constructor.
fn hasher_is_explicit(toks: &[Tok], src: &str, i: usize, base: &str) -> bool {
    let needed = if base == "HashMap" { 3 } else { 2 };
    let mut j = i + 1;
    // Turbofish `::<…>` or associated path `::name`.
    if toks.get(j).is_some_and(|t| t.is_punct(b':'))
        && toks.get(j + 1).is_some_and(|t| t.is_punct(b':'))
    {
        j += 2;
        if let Some(t) = toks.get(j) {
            if t.kind == TokKind::Ident {
                return matches!(t.text(src), "with_hasher" | "with_capacity_and_hasher");
            }
        }
    }
    match toks.get(j) {
        Some(t) if t.is_punct(b'<') => count_generic_args(toks, j) >= needed,
        _ => false,
    }
}

/// Count top-level generic arguments of the `<…>` opening at token `lt`.
fn count_generic_args(toks: &[Tok], lt: usize) -> usize {
    let mut angle = 1usize;
    let mut nest = 0usize; // (), [], {} nesting
    let mut commas = 0usize;
    let mut saw_any = false;
    let mut j = lt + 1;
    while j < toks.len() && angle > 0 {
        match toks[j].kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') => {
                // `->` in fn-pointer types does not close an angle bracket.
                if !(j > 0 && toks[j - 1].is_punct(b'-')) {
                    angle -= 1;
                }
            }
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => nest += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                nest = nest.saturating_sub(1)
            }
            TokKind::Punct(b',') if angle == 1 && nest == 0 => commas += 1,
            _ => saw_any = true,
        }
        j += 1;
    }
    if saw_any || commas > 0 {
        commas + 1
    } else {
        0
    }
}

/// Whether the `[` at token `i` opens an index expression (postfix
/// position) rather than a slice/array type, pattern, literal, or
/// attribute.
pub fn is_index_expr(toks: &[Tok], src: &str, i: usize) -> bool {
    if i == 0 {
        return false;
    }
    match toks[i - 1].kind {
        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&toks[i - 1].text(src)),
        // `)`/`]`/`?` end a postfix expression; a number is a tuple-field
        // access (`pair.0[k]`).
        TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'?') => true,
        TokKind::Number => true,
        _ => false,
    }
}
