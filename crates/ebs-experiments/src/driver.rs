//! The experiment driver: one section table over one set of shared inputs.
//!
//! [`SECTIONS`] lists every table and figure of the reproduction in its
//! canonical print order. [`run_all`] (`bin/all`) renders the whole table
//! as parallel jobs on the [`ebs_core::parallel`] pool and returns the
//! texts in table order, whichever job finishes first; [`run_only`]
//! (`all --only <name>`) renders one entry of the same table.
//!
//! Sections never build the inputs they share. They borrow them from one
//! [`Shared`] value, which builds each input on first use, exactly once,
//! whichever section asks first:
//!
//! * the stack simulation's latency column (Figure 7, extensions);
//! * the event stream partitioned per compute node (Figure 2, the rebind
//!   ablation);
//! * the production balancer (S2) run per DC, and from those runs the
//!   busiest DC (Figures 4 and 5, ablations, extensions);
//! * the S1–S5 runs on the busiest DC (Figure 4(b), the S6 extension);
//! * each VD's hottest block at every [`BLOCK_SIZES`] entry (Figures 6 and
//!   7, ablations, extensions).
//!
//! Every input is a deterministic function of the dataset, so which
//! section builds it cannot move an output byte, and `--only` builds just
//! the inputs its section reads. With `EBS_OBS` on, each build records a
//! `driver.input.<name>` timer and each section a `driver.section.<name>`
//! timer; a section's span includes any input it built or waited for.

use crate::fig6::MIN_EVENTS;
use crate::scenario::stack_latency;
use crate::{ablations, extensions, fig2, fig3, fig4, fig5, fig6, fig7, table2, table3, table4};
use ebs_balance::bs_balancer::{run_balancer, BalancerConfig, BalancerRun};
use ebs_balance::importer::ImporterSelect;
use ebs_balance::wt_rebind::events_by_cn;
use ebs_cache::hottest_block::{hottest_block, HottestBlock, BLOCK_SIZES};
use ebs_core::hash::FxHashMap;
use ebs_core::ids::{DcId, VdId};
use ebs_core::io::IoEvent;
use ebs_core::parallel::{par_jobs, par_map_deterministic};
use ebs_core::trace::StageLatency;
use ebs_workload::Dataset;
use std::sync::OnceLock;

/// A section renderer: one table or figure over the shared inputs.
type Render = fn(&Shared<'_>) -> String;

/// Every section of `bin/all`, in canonical print order.
pub const SECTIONS: [(&str, Render); 11] = [
    ("table2", |sh| table2::render(&table2::run(sh.ds()))),
    ("table3", |sh| table3::render(&table3::run(sh.ds()))),
    ("table4", |sh| table4::render(&table4::run(sh.ds()))),
    ("fig2", |sh| fig2::render(&fig2::run(sh))),
    ("fig3", |sh| fig3::render(&fig3::run(sh.ds()))),
    ("fig4", |sh| fig4::render(&fig4::run(sh))),
    ("fig5", |sh| fig5::render(&fig5::run(sh))),
    ("fig6", |sh| fig6::render(&fig6::run(sh))),
    ("fig7", |sh| fig7::render(&fig7::run(sh))),
    ("ablations", ablations::render),
    ("extensions", extensions::render),
];

/// The inputs several sections share, each built lazily and exactly once
/// (the `OnceLock` pattern of [`Dataset::index`]).
pub struct Shared<'a> {
    ds: &'a Dataset,
    stack_lat: OnceLock<Vec<StageLatency>>,
    by_cn: OnceLock<Vec<Vec<IoEvent>>>,
    s2_runs: OnceLock<Vec<BalancerRun>>,
    /// The non-default importer runs on the busiest DC.
    importer_runs: OnceLock<Vec<(ImporterSelect, BalancerRun)>>,
    hot: [OnceLock<FxHashMap<VdId, HottestBlock>>; BLOCK_SIZES.len()],
}

impl<'a> Shared<'a> {
    /// Shared inputs over `ds`; nothing is built until first asked for.
    pub fn new(ds: &'a Dataset) -> Self {
        Self {
            ds,
            stack_lat: OnceLock::new(),
            by_cn: OnceLock::new(),
            s2_runs: OnceLock::new(),
            importer_runs: OnceLock::new(),
            hot: Default::default(),
        }
    }

    /// The dataset every input derives from.
    pub fn ds(&self) -> &'a Dataset {
        self.ds
    }

    /// The latency column of the dataset's stack simulation
    /// ([`stack_latency`]), row for row with the dataset's events.
    pub fn stack_lat(&self) -> &[StageLatency] {
        self.stack_lat
            .get_or_init(|| timed("input", "stack_sim", || stack_latency(self.ds)))
    }

    /// The event stream partitioned per compute node ([`events_by_cn`]).
    pub fn events_by_cn(&self) -> &[Vec<IoEvent>] {
        self.by_cn.get_or_init(|| {
            timed("input", "events_by_cn", || {
                events_by_cn(&self.ds.fleet, &self.ds.events)
            })
        })
    }

    /// The production balancer (S2, [`BalancerConfig::default`]) run on
    /// every DC, in DC order.
    pub fn s2_runs(&self) -> &[BalancerRun] {
        self.s2_runs.get_or_init(|| {
            timed("input", "s2_runs", || {
                let ds = self.ds;
                let dcs: Vec<DcId> = (0..ds.fleet.dcs.len()).map(DcId::from_index).collect();
                par_map_deterministic(&dcs, |_, &dc| {
                    run_balancer(&ds.fleet, &ds.storage, dc, &BalancerConfig::default())
                })
            })
        })
    }

    /// The DC with the most migrations under the production balancer —
    /// the paper's "cluster with the most frequent migrations". Ties go to
    /// the last such DC.
    pub fn busiest_dc(&self) -> DcId {
        self.s2_runs()
            .iter()
            .enumerate()
            .max_by_key(|(_, run)| run.migrations)
            .map(|(i, _)| DcId::from_index(i))
            .expect("at least one DC")
    }

    /// S1–S5 on the busiest DC, in [`ImporterSelect::ALL`] order. The S2
    /// run is that DC's entry of [`Self::s2_runs`].
    pub fn importer_runs(&self) -> Vec<(ImporterSelect, &BalancerRun)> {
        let dc = self.busiest_dc();
        let default = BalancerConfig::default();
        let others = self.importer_runs.get_or_init(|| {
            timed("input", "importer_runs", || {
                let ds = self.ds;
                let strategies: Vec<ImporterSelect> = ImporterSelect::ALL
                    .into_iter()
                    .filter(|&s| s != default.strategy)
                    .collect();
                par_map_deterministic(&strategies, |_, &strategy| {
                    let cfg = BalancerConfig {
                        strategy,
                        ..BalancerConfig::default()
                    };
                    (strategy, run_balancer(&ds.fleet, &ds.storage, dc, &cfg))
                })
            })
        });
        let s2 = self.s2_runs().get(dc.index());
        ImporterSelect::ALL
            .into_iter()
            .filter_map(|s| {
                let run = if s == default.strategy {
                    s2
                } else {
                    others.iter().find(|(x, _)| *x == s).map(|(_, run)| run)
                };
                run.map(|run| (s, run))
            })
            .collect()
    }

    /// Hottest blocks of every VD with at least [`MIN_EVENTS`] sampled IOs,
    /// at `block_size` (one of [`BLOCK_SIZES`]). VDs fan out in parallel
    /// over the shared event index's borrowed views.
    pub fn hot_map(&self, block_size: u64) -> &FxHashMap<VdId, HottestBlock> {
        let cell = BLOCK_SIZES
            .iter()
            .position(|&b| b == block_size)
            .and_then(|at| self.hot.get(at))
            .expect("block size is one of BLOCK_SIZES");
        cell.get_or_init(|| {
            let mib = block_size >> 20;
            timed("input", format_args!("hot_map.{mib}MiB"), || {
                let slices = self.ds.index().vd_slices();
                par_map_deterministic(&slices, |i, evs| {
                    if evs.len() < MIN_EVENTS {
                        return None;
                    }
                    hottest_block(VdId::from_index(i), evs, block_size).map(|hb| (hb.vd, hb))
                })
                .into_iter()
                .flatten()
                .collect()
            })
        })
    }
}

/// Run `f` under the stage timer `driver.<kind>.<name>` (a no-op when
/// `EBS_OBS` is off — no clock is read and no label string is built).
fn timed<T>(kind: &str, name: impl std::fmt::Display, f: impl FnOnce() -> T) -> T {
    let _span = ebs_obs::enabled().then(|| ebs_obs::timer(&format!("driver.{kind}.{name}")));
    f()
}

/// Render every section of `bin/all` over `ds`, returning the texts in
/// [`SECTIONS`] order. Parallel across sections (and, inside each
/// section, across its parameter grid), yet byte-identical to a serial
/// run at any thread count.
pub fn run_all(ds: &Dataset) -> Vec<String> {
    let run_started = ebs_obs::stopwatch();
    let whole_run = ebs_obs::timer("driver.run_all");
    let sh = Shared::new(ds);
    let sh = &sh;
    let jobs: Vec<_> = SECTIONS
        .iter()
        .map(|&(name, render)| move || timed("section", name, || render(sh)))
        .collect();
    let sections = par_jobs(jobs);
    drop(whole_run);
    if let Some(secs) = run_started.elapsed_secs() {
        let events = ds.events.len() as u64;
        ebs_obs::counter_add("driver.events_processed", events);
        ebs_obs::counter_add("driver.sections_rendered", sections.len() as u64);
        if secs > 0.0 {
            ebs_obs::gauge_set("driver.events_per_sec", events as f64 / secs);
        }
    }
    sections
}

/// Render the one section of [`SECTIONS`] called `name`, building only the
/// inputs it reads; `None` when no section has that name.
pub fn run_only(ds: &Dataset, name: &str) -> Option<String> {
    let &(name, render) = SECTIONS.iter().find(|(n, _)| *n == name)?;
    Some(timed("section", name, || render(&Shared::new(ds))))
}
