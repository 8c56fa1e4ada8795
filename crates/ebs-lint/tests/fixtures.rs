//! End-to-end tests for the linter: fixture files with known violations
//! (and known traps), the suppression grammar, the baseline ratchet, and
//! a self-check over the real workspace.
//!
//! The fixture sources live in `tests/fixtures/` — cargo never compiles
//! them (only top-level files in `tests/` are targets) and the workspace
//! walker skips that directory for the same reason.

use ebs_lint::baseline::Baseline;
use ebs_lint::rules::{check_source, CheckOutcome, FileClass};
use std::path::PathBuf;

const D1: &str = include_str!("fixtures/d1.rs");
const D2_D4_D5: &str = include_str!("fixtures/d2_d4_d5.rs");
const D3: &str = include_str!("fixtures/d3.rs");
const D6_D7_D8: &str = include_str!("fixtures/d6_d7_d8.rs");
const FLOW_SUPPRESSED: &str = include_str!("fixtures/flow_suppressed.rs");
const TRAPS: &str = include_str!("fixtures/traps.rs");
const SUPPRESSED: &str = include_str!("fixtures/suppressed.rs");

fn scan(class: FileClass, total: bool, src: &str) -> CheckOutcome {
    check_source("fixture.rs", class, total, src)
}

/// `(rule, line, col)` triples of a violation list, for compact asserts.
fn spans(vs: &[ebs_lint::diag::Violation]) -> Vec<(&str, u32, u32)> {
    vs.iter().map(|v| (v.rule, v.line, v.col)).collect()
}

#[test]
fn d1_flags_default_hashers_and_spares_explicit_ones() {
    let out = scan(FileClass::Lib, false, D1);
    assert!(out.ratchet.is_empty());
    let got = spans(&out.strict);
    assert_eq!(
        got,
        vec![("D1", 7, 12), ("D1", 7, 32), ("D1", 8, 13), ("D1", 9, 31)],
        "got {got:?}"
    );
}

#[test]
fn d1_applies_even_in_test_files() {
    // Determinism of tests is part of the invariant: no class exemption.
    let out = scan(FileClass::TestFile, false, D1);
    assert_eq!(out.strict.len(), 4);
}

#[test]
fn d2_d4_d5_fire_in_library_code() {
    let out = scan(FileClass::Lib, false, D2_D4_D5);
    let got = spans(&out.strict);
    let rules_on = |rule: &str| -> Vec<u32> {
        got.iter()
            .filter(|(r, _, _)| *r == rule)
            .map(|&(_, l, _)| l)
            .collect()
    };
    assert_eq!(rules_on("D2"), vec![4, 5], "got {got:?}");
    assert_eq!(rules_on("D4"), vec![10, 11, 12], "got {got:?}");
    assert_eq!(rules_on("D5"), vec![16, 17, 18], "got {got:?}");
    assert_eq!(got.len(), 8, "no other rule should fire: {got:?}");
}

#[test]
fn clock_and_print_rules_respect_file_class() {
    // Harness and obs code own the clock and the terminal…
    for class in [FileClass::Harness, FileClass::Obs] {
        let out = scan(class, false, D2_D4_D5);
        let got = spans(&out.strict);
        assert!(
            got.iter().all(|(r, _, _)| *r == "D5"),
            "{class:?} should only see D5: {got:?}"
        );
        // …but ambient randomness is banned everywhere.
        assert_eq!(got.len(), 3, "{class:?}: {got:?}");
    }
    // Bins must stay deterministic (D2/D5) but may print (no D4) and
    // panic on bad CLI input (no D3).
    let out = scan(FileClass::Bin, false, D2_D4_D5);
    let got = spans(&out.strict);
    assert_eq!(got.iter().filter(|(r, _, _)| *r == "D2").count(), 2);
    assert_eq!(got.iter().filter(|(r, _, _)| *r == "D4").count(), 0);
}

#[test]
fn d3_ratchets_outside_total_modules_and_hard_errors_inside() {
    let legacy = scan(FileClass::Lib, false, D3);
    assert!(legacy.strict.is_empty(), "got {:?}", spans(&legacy.strict));
    assert_eq!(
        spans(&legacy.ratchet)
            .iter()
            .map(|&(_, l, _)| l)
            .collect::<Vec<_>>(),
        vec![5, 6, 8, 11, 12, 15, 16, 17],
        "got {:?}",
        spans(&legacy.ratchet)
    );

    let total = scan(FileClass::Lib, true, D3);
    assert!(total.ratchet.is_empty());
    assert_eq!(total.strict.len(), 8, "got {:?}", spans(&total.strict));

    // Bins and test files may panic freely.
    for class in [FileClass::Bin, FileClass::TestFile] {
        let out = scan(class, false, D3);
        assert!(out.strict.is_empty() && out.ratchet.is_empty(), "{class:?}");
    }
}

#[test]
fn d6_d7_d8_flag_leaks_and_spare_the_canonical_shapes() {
    let out = scan(FileClass::Lib, false, D6_D7_D8);
    assert!(out.strict.is_empty(), "got {:?}", spans(&out.strict));
    let got = spans(&out.ratchet);
    // The leaks fire: hash iteration into a collect (D6), the locked
    // accumulator in the parallel closure and the non-positional float
    // merge (D7), the off-surface env read (D8), plus the `expect` the D7
    // leak rides on (D3). The canonical shapes — collect-then-sort,
    // closure-local accumulator, zip-of-partials merge, `EBS_*` read —
    // stay silent.
    assert_eq!(
        got,
        vec![
            ("D3", 13, 23),
            ("D6", 2, 7),
            ("D7", 13, 16),
            ("D7", 31, 18),
            ("D8", 48, 15),
        ],
        "got {got:?}"
    );
}

#[test]
fn flow_rules_honour_reasoned_suppressions() {
    let out = scan(FileClass::Lib, false, FLOW_SUPPRESSED);
    assert!(
        out.strict.is_empty() && out.ratchet.is_empty(),
        "suppressed flow findings leaked: strict {:?} ratchet {:?}",
        spans(&out.strict),
        spans(&out.ratchet)
    );
}

#[test]
fn trigger_tokens_in_strings_comments_and_tests_are_ignored() {
    let out = scan(FileClass::Lib, false, TRAPS);
    assert!(
        out.strict.is_empty() && out.ratchet.is_empty(),
        "traps fired: strict {:?} ratchet {:?}",
        spans(&out.strict),
        spans(&out.ratchet)
    );
}

#[test]
fn suppressions_need_a_reason_and_a_known_rule() {
    let out = scan(FileClass::Lib, false, SUPPRESSED);
    // Reasoned directives silence lines 5 and 9; the reasonless one (13)
    // and the unknown-rule one (18) are SUP violations and leave their
    // unwraps (14, 19) live.
    let strict = spans(&out.strict);
    assert_eq!(
        strict.iter().map(|&(r, l, _)| (r, l)).collect::<Vec<_>>(),
        vec![("SUP", 13), ("SUP", 18)],
        "got {strict:?}"
    );
    assert_eq!(
        spans(&out.ratchet)
            .iter()
            .map(|&(_, l, _)| l)
            .collect::<Vec<_>>(),
        vec![14, 19]
    );
}

// ---------------------------------------------------------------------
// Baseline ratchet, end to end over a throwaway workspace on disk.
// ---------------------------------------------------------------------

struct TempWorkspace {
    root: ebs_core::TempDir,
}

impl TempWorkspace {
    fn new(name: &str, lib_rs: &str) -> Self {
        let root = ebs_core::TempDir::new(&format!("lint-{name}")).unwrap();
        let src = root.join("crates/foo/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(src.join("lib.rs"), lib_rs).unwrap();
        Self { root }
    }

    fn write_baseline(&self, text: &str) {
        std::fs::write(self.root.join(ebs_lint::BASELINE_FILE), text).unwrap();
    }

    /// Add another source file (workspace-relative path).
    fn write_file(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
}

const ONE_UNWRAP: &str = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
const TWO_UNWRAPS: &str =
    "pub fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n    x.unwrap() + y.unwrap()\n}\n";

#[test]
fn ratchet_rejects_new_unwraps_until_baselined() {
    let ws = TempWorkspace::new("ratchet", ONE_UNWRAP);

    // No baseline: the legacy site is a violation.
    let report = ebs_lint::run(&ws.root).unwrap();
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].rule, "D3");
    assert!(report.violations[0].message.contains("allows 0"));

    // `ebs-lint baseline` semantics: write the live counts, now clean.
    let (_, live) = ebs_lint::run_with_baseline(&ws.root, &Baseline::default()).unwrap();
    ws.write_baseline(&live.render());
    let report = ebs_lint::run(&ws.root).unwrap();
    assert!(report.violations.is_empty());
    assert_eq!(report.baselined, 1);
    assert!(report.stale.is_empty());

    // A NEW unwrap exceeds the allowance: every site in the file reports.
    std::fs::write(ws.root.join("crates/foo/src/lib.rs"), TWO_UNWRAPS).unwrap();
    let report = ebs_lint::run(&ws.root).unwrap();
    assert_eq!(report.violations.len(), 2);
    assert!(report.violations[0].message.contains("allows 1"));
}

#[test]
fn stale_baseline_entries_fail_only_under_strict() {
    let ws = TempWorkspace::new("stale", ONE_UNWRAP);
    ws.write_baseline("[D3]\n\"crates/foo/src/lib.rs\" = 3\n");
    let report = ebs_lint::run(&ws.root).unwrap();
    assert!(report.violations.is_empty());
    assert_eq!(report.stale.len(), 1, "allowance 3 vs live 1 is stale");
    assert!(report.ok(false), "stale is advisory by default");
    assert!(
        !report.ok(true),
        "--strict-baseline turns stale into failure"
    );
}

#[test]
fn fixing_the_last_site_leaves_an_orphan_stale_entry() {
    let ws = TempWorkspace::new("orphan", "pub fn f(x: u32) -> u32 {\n    x\n}\n");
    ws.write_baseline("[D3]\n\"crates/foo/src/lib.rs\" = 1\n");
    let report = ebs_lint::run(&ws.root).unwrap();
    assert!(report.violations.is_empty());
    assert_eq!(
        report.stale,
        vec![("D3".into(), "crates/foo/src/lib.rs".into(), 0, 1)]
    );
}

// ---------------------------------------------------------------------
// D3v2 end to end: a total module reaching a panic through another file.
// ---------------------------------------------------------------------

#[test]
fn transitive_panic_from_a_total_module_is_reported_with_a_trace() {
    // `crates/ebs-stack/src/route.rs` is on the TOTAL_MODULES list, so the
    // temp workspace inherits its totality; the panic lives one hop away.
    let ws = TempWorkspace::new("d3v2", "pub fn unrelated() {}\n");
    ws.write_file(
        "crates/ebs-stack/src/route.rs",
        "pub fn plan(x: u32) -> u32 { crate::depth::probe(x) }\n",
    );
    ws.write_file(
        "crates/ebs-stack/src/depth.rs",
        "pub fn probe(x: u32) -> u32 { x.checked_add(1).unwrap() }\n",
    );
    let report = ebs_lint::run(&ws.root).unwrap();
    let d3v2: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "D3v2")
        .collect();
    assert_eq!(d3v2.len(), 1, "got {:?}", report.violations);
    let v = d3v2[0];
    assert_eq!(v.path, "crates/ebs-stack/src/depth.rs");
    assert_eq!(v.trace.len(), 2, "root → helper: {:?}", v.trace);
    assert!(
        v.trace[0].contains("ebs-stack::route::plan"),
        "{:?}",
        v.trace
    );
    assert!(v.trace[1].contains("probe"), "{:?}", v.trace);
    // The helper's local site also ratchets under plain D3.
    assert!(report.violations.iter().any(|v| v.rule == "D3"));
}

#[test]
fn suppressing_the_helper_site_clears_both_d3_and_d3v2() {
    let ws = TempWorkspace::new("d3v2-sup", "pub fn unrelated() {}\n");
    ws.write_file(
        "crates/ebs-stack/src/route.rs",
        "pub fn plan(x: u32) -> u32 { crate::depth::probe(x) }\n",
    );
    ws.write_file(
        "crates/ebs-stack/src/depth.rs",
        "pub fn probe(x: u32) -> u32 {\n\
            // ebs-lint: allow(D3) -- x is bounded far below u32::MAX by the caller\n\
            x.checked_add(1).unwrap()\n\
         }\n",
    );
    let report = ebs_lint::run(&ws.root).unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn d3v2_findings_ratchet_through_the_baseline_like_d3() {
    let ws = TempWorkspace::new("d3v2-ratchet", "pub fn unrelated() {}\n");
    ws.write_file(
        "crates/ebs-stack/src/route.rs",
        "pub fn plan(x: u32) -> u32 { crate::depth::probe(x) }\n",
    );
    ws.write_file(
        "crates/ebs-stack/src/depth.rs",
        "pub fn probe(x: u32) -> u32 { x.checked_add(1).unwrap() }\n",
    );
    // Baseline both the local D3 site and the reachability finding: clean.
    ws.write_baseline(
        "[D3]\n\"crates/ebs-stack/src/depth.rs\" = 1\n\
         [D3v2]\n\"crates/ebs-stack/src/depth.rs\" = 1\n",
    );
    let report = ebs_lint::run(&ws.root).unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.baselined, 2);
    assert!(report.stale.is_empty());
}

// ---------------------------------------------------------------------
// Self-check: the real workspace is clean modulo its checked-in baseline.
// ---------------------------------------------------------------------

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .unwrap();
    assert!(root.join("Cargo.toml").exists(), "bad root {root:?}");
    root
}

#[test]
fn workspace_is_clean_modulo_baseline() {
    let report = ebs_lint::run(&workspace_root()).unwrap();
    let rendered =
        ebs_lint::diag::render_human(&report.violations, report.files_scanned, report.baselined);
    assert!(report.violations.is_empty(), "{rendered}");
    assert!(report.files_scanned > 100, "walker found too few files");
}

#[test]
fn report_is_byte_identical_at_every_thread_count() {
    // The per-file scans run through `par_map_deterministic`; the rendered
    // report must not depend on how many workers the map used.
    let root = workspace_root();
    let mut renders: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        ebs_core::parallel::set_thread_override(Some(threads));
        let report = ebs_lint::run(&root).unwrap();
        renders.push(ebs_lint::diag::render_json(
            &report.violations,
            report.files_scanned,
            report.baselined,
        ));
    }
    ebs_core::parallel::set_thread_override(None);
    assert!(!renders[0].is_empty());
    assert_eq!(renders[0], renders[1], "1 vs 2 threads");
    assert_eq!(renders[0], renders[2], "1 vs 8 threads");
}

// ---------------------------------------------------------------------
// Property tests: the lexer → parser → rules → graph stack is total.
// ---------------------------------------------------------------------

mod never_panics {
    use super::*;
    use proptest::prelude::*;

    /// Source fragments biased toward the constructs the analyzer cares
    /// about: item boundaries, suppression directives, panicking calls,
    /// unbalanced brackets, raw strings, and comment edges.
    const FRAGMENTS: &[&str] = &[
        "fn ",
        "pub ",
        "impl ",
        "struct ",
        "mod ",
        "use ",
        "for ",
        "in ",
        "match ",
        "{",
        "}",
        "(",
        ")",
        "[",
        "]",
        "::",
        ".",
        ";",
        ",",
        "->",
        "=>",
        "=",
        "+=",
        "a",
        "b",
        "f64",
        "unwrap()",
        "expect(\"x\")",
        "panic!(\"y\")",
        "#[cfg(test)]",
        "#[test]",
        "// ebs-lint: allow(D3) -- r\n",
        "// ebs-lint: allow(",
        "/*",
        "*/",
        "\"",
        "r#\"",
        "'",
        "\n",
        "env::var(\"EBS_X\")",
        "par_map_deterministic",
        "merge",
        "FxHashMap",
        ".iter()",
        ".values()",
    ];

    proptest! {
        #[test]
        fn analyzer_is_total_on_fragment_soup(
            idx in prop::collection::vec(0usize..44, 0..64),
            total in any::<bool>(),
        ) {
            let src: String = idx.iter().map(|&i| FRAGMENTS[i % FRAGMENTS.len()]).collect();
            let scan = ebs_lint::rules::scan_file("crates/ebs-x/src/fuzz.rs", FileClass::Lib, total, &src);
            let graph = ebs_lint::graph::build(&[ebs_lint::graph::FileItems {
                rel: "crates/ebs-x/src/fuzz.rs",
                total,
                items: &scan.items,
            }]);
            let _ = ebs_lint::graph::transitive_totality(&graph);
        }

        #[test]
        fn analyzer_is_total_on_arbitrary_bytes(
            bytes in prop::collection::vec(0u32..256, 0..256),
        ) {
            let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            let src = String::from_utf8_lossy(&raw);
            let _ = ebs_lint::rules::scan_file("crates/ebs-x/src/fuzz.rs", FileClass::Lib, false, &src);
        }
    }
}
