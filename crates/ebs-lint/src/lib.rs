//! `ebs-lint`: in-repo static analysis enforcing the workspace's
//! determinism, no-panic, and hot-path invariants.
//!
//! See [`rules`] for the rule catalogue (per-file D1 and D3 plus the
//! dataflow rules D6 and D7), [`items`]/[`graph`] for the workspace-level
//! item tree, call graph, and the transitive-totality rule D3v2,
//! [`baseline`] for the ratchet, and `DESIGN.md` §13/§18 for the policy
//! rationale. The crate depends only on `ebs-core` (for the deterministic
//! parallel map it both uses and polices) — its own lexer, TOML-subset
//! parser, and JSON writer keep it working whatever state the rest of the
//! workspace is in.

pub mod baseline;
pub mod diag;
pub mod flow;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod walk;

use baseline::Baseline;
use diag::Violation;
use std::collections::BTreeMap;
use std::path::Path;

/// Name of the checked-in ratchet file at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.toml";

/// The outcome of a full workspace check.
#[derive(Debug)]
pub struct Report {
    /// Violations to report (sorted; empty means the check passes).
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of legacy sites covered by the baseline.
    pub baselined: usize,
    /// `(rule, path, live, allowed)` entries where the baseline allows more
    /// than the live count — candidates for tightening.
    pub stale: Vec<(String, String, usize, usize)>,
}

impl Report {
    /// Whether the check passes (`strict_baseline` also fails on stale
    /// baseline entries, the CI ratchet-tightening guard).
    pub fn ok(&self, strict_baseline: bool) -> bool {
        self.violations.is_empty() && (!strict_baseline || self.stale.is_empty())
    }
}

/// A full workspace analysis: the reconciled report, the live ratchet
/// counts, and the call graph (for the `graph` CLI subcommand and tests).
#[derive(Debug)]
pub struct Analysis {
    /// The reconciled check report.
    pub report: Report,
    /// Live per-(rule, file) ratchet counts — what `ebs-lint baseline`
    /// writes.
    pub live: Baseline,
    /// The resolved workspace call graph.
    pub graph: graph::CallGraph,
}

/// Run every rule over the workspace at `root` and reconcile ratcheted
/// findings with the checked-in baseline.
pub fn run(root: &Path) -> Result<Report, String> {
    let baseline_path = root.join(BASELINE_FILE);
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text).map_err(|e| format!("{BASELINE_FILE}: {e}"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("{BASELINE_FILE}: {e}")),
    };
    let (report, _) = run_with_baseline(root, &baseline)?;
    Ok(report)
}

/// Like [`run`], but with an explicit baseline; also returns the live
/// per-file ratchet counts (what `ebs-lint baseline` writes).
pub fn run_with_baseline(root: &Path, baseline: &Baseline) -> Result<(Report, Baseline), String> {
    let analysis = analyze(root, baseline)?;
    Ok((analysis.report, analysis.live))
}

/// Full analysis: per-file scans (in parallel, results in deterministic
/// input order), the workspace call graph, the D3v2 reachability pass,
/// and baseline reconciliation.
pub fn analyze(root: &Path, baseline: &Baseline) -> Result<Analysis, String> {
    let files = walk::discover(root).map_err(|e| format!("walking {}: {e}", root.display()))?;

    // Per-file scans are independent; `par_map_deterministic` returns
    // results in input order, so the report is byte-identical at any
    // thread count (pinned by a test).
    let scans: Vec<Result<rules::FileScan, String>> =
        ebs_core::parallel::par_map_deterministic(&files, |_, f| {
            let src =
                std::fs::read_to_string(&f.abs).map_err(|e| format!("reading {}: {e}", f.rel))?;
            Ok(rules::scan_file(&f.rel, f.class, f.total, &src))
        });
    let mut violations: Vec<Violation> = Vec::new();
    let mut ratchet_by: BTreeMap<(String, String), Vec<Violation>> = BTreeMap::new();
    let mut ok_scans: Vec<(usize, rules::FileScan)> = Vec::new();
    for (i, scan) in scans.into_iter().enumerate() {
        let mut scan = scan?;
        violations.append(&mut scan.outcome.strict);
        for v in scan.outcome.ratchet.drain(..) {
            ratchet_by
                .entry((v.rule.to_string(), v.path.clone()))
                .or_default()
                .push(v);
        }
        ok_scans.push((i, scan));
    }

    // Workspace pass: build the call graph over library-shaped files and
    // run the transitive-totality analysis.
    let graph_inputs: Vec<graph::FileItems<'_>> = ok_scans
        .iter()
        .filter(|(i, _)| files[*i].class == rules::FileClass::Lib)
        .map(|(i, scan)| graph::FileItems {
            rel: &files[*i].rel,
            total: files[*i].total,
            items: &scan.items,
        })
        .collect();
    let call_graph = graph::build(&graph_inputs);
    for v in graph::transitive_totality(&call_graph) {
        ratchet_by
            .entry((v.rule.to_string(), v.path.clone()))
            .or_default()
            .push(v);
    }

    // Reconcile ratcheted findings with the baseline, per (rule, file).
    let mut baselined = 0usize;
    let mut stale = Vec::new();
    let mut live = Baseline::default();
    for ((rule, path), found) in &ratchet_by {
        live.counts
            .entry(rule.clone())
            .or_default()
            .insert(path.clone(), found.len());
        let allowed = baseline.allowed(rule, path);
        if found.len() > allowed {
            for v in found {
                let mut v = v.clone();
                v.message = format!(
                    "{} — file has {} ratcheted {rule} site(s) but {BASELINE_FILE} allows {}",
                    v.message,
                    found.len(),
                    allowed
                );
                violations.push(v);
            }
        } else {
            baselined += found.len();
            if found.len() < allowed {
                stale.push((rule.clone(), path.clone(), found.len(), allowed));
            }
        }
    }
    // Baseline entries for files with no remaining findings are stale too.
    for (rule, per_file) in &baseline.counts {
        for (path, &allowed) in per_file {
            let live_count = ratchet_by
                .get(&(rule.clone(), path.clone()))
                .map_or(0, Vec::len);
            if live_count == 0 {
                stale.push((rule.clone(), path.clone(), 0, allowed));
            }
        }
    }
    stale.sort();
    stale.dedup();

    diag::sort(&mut violations);
    Ok(Analysis {
        report: Report {
            violations,
            files_scanned: files.len(),
            baselined,
            stale,
        },
        live,
        graph: call_graph,
    })
}

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
