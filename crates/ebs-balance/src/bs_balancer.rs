//! The inter-BS segment balancer — Algorithm 1 of the paper.
//!
//! Periodically (every storage tick, 30 s by default): compute each
//! BlockServer's traffic for the period; any BS above `exporter_ratio` ×
//! cluster average exports its hottest segments (top-x until their summed
//! traffic exceeds `MOVE_QUOTA` = 0.2 × average) to an importer chosen by
//! the configured strategy (§6.1.2). The balancer operates per data center —
//! each DC's BlockServers form one storage cluster.

use crate::importer::{select_importer, ImporterContext, ImporterSelect};
use ebs_core::ids::{BsId, DcId, SegId};
use ebs_core::metric::{Measure, StorageMetrics};
use ebs_core::rng::SimRng;
use ebs_core::topology::Fleet;
use ebs_stack::segment::SegmentMap;

/// An exporter moves segments until their summed traffic exceeds this
/// multiple of the cluster average (Appendix A).
const MOVE_QUOTA: f64 = 0.2;

/// Balancer configuration (Algorithm 1 defaults).
#[derive(Clone, Debug)]
pub struct BalancerConfig {
    /// Export when a BS carries ≥ this multiple of the cluster average.
    pub exporter_ratio: f64,
    /// Importer-selection strategy.
    pub strategy: ImporterSelect,
    /// Traffic measure the balancer levels (the production balancer uses
    /// write traffic only, §2.2).
    pub measure: Measure,
    /// Seed for the Random strategy.
    pub seed: u64,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        Self {
            exporter_ratio: 1.2,
            strategy: ImporterSelect::MinTraffic,
            measure: Measure::WriteBytes,
            seed: 0xBA1A_7CE5,
        }
    }
}

/// Result of one balancer run over a cluster.
#[derive(Clone, Debug)]
pub struct BalancerRun {
    /// Final placement (with the migration log inside).
    pub seg_map: SegmentMap,
    /// Number of periods simulated.
    pub periods: u32,
    /// Per-period normalized CoV of BS traffic *as observed* (before that
    /// period's migrations take effect), for the balanced measure.
    pub cov_series: Vec<f64>,
    /// Total segments migrated.
    pub migrations: usize,
}

/// Sparse per-period view of segment traffic: `periods[p]` lists
/// `(segment, value)` for every segment active in period `p`.
pub struct PeriodTraffic {
    /// Per-period active segments and their traffic.
    pub periods: Vec<Vec<(SegId, f64)>>,
}

impl PeriodTraffic {
    /// Build from storage metrics for the segments of one DC.
    pub fn build(fleet: &Fleet, metrics: &StorageMetrics, dc: DcId, measure: Measure) -> Self {
        let mut periods = vec![Vec::new(); metrics.ticks.ticks as usize];
        for (i, series) in metrics.per_seg.iter().enumerate() {
            let seg = SegId::from_index(i);
            if series.is_empty() || fleet.dc_of_seg(seg) != dc {
                continue;
            }
            for s in series.samples() {
                let v = measure.of(&s.rw);
                if v > 0.0 {
                    // Ticks outside the grid (a malformed series) are
                    // dropped rather than panicking the balancer.
                    if let Some(bucket) = periods.get_mut(s.tick as usize) {
                        bucket.push((seg, v));
                    }
                }
            }
        }
        Self { periods }
    }

    /// Per-BS totals for period `p` under `map`, as a dense vector indexed
    /// by cluster-local BS position (`bss` gives the cluster's BSs).
    pub fn bs_totals(&self, p: usize, map: &SegmentMap, bss: &[BsId]) -> Vec<f64> {
        let mut local = vec![0.0; bss.len()];
        let pos: ebs_core::hash::FxHashMap<BsId, usize> =
            bss.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        if let Some(entries) = self.periods.get(p) {
            for &(seg, v) in entries {
                if let Some(slot) = pos.get(&map.home_of(seg)).and_then(|&i| local.get_mut(i)) {
                    *slot += v;
                }
            }
        }
        local
    }
}

/// One pass of Algorithm 1 over one cluster for one period.
///
/// `segs` lists the segments active this period with their traffic in
/// the balanced measure (segments homed outside `bss` are never
/// exported, so a caller may pass other clusters' too); `current` is the
/// per-BS traffic, cluster-local in `bss` order, under `placement`;
/// `history` is the per-BS traffic of past periods including this one
/// (read only by the S3, S4 and S6 importers). Exporters are the BSs at
/// `exporter_ratio` × the cluster average or more, taken hottest-first;
/// each exports its hottest segments until their traffic passes
/// `MOVE_QUOTA` (0.2) × the average, to the importer the strategy picks.
/// `current` takes each import as it happens.
///
/// `next` is the per-BS traffic of the next period under `placement`: the
/// S5 Ideal importer's oracle. An online caller cannot observe it and
/// passes `&[]`, and then every Ideal move aborts.
///
/// The pass reads `placement` and never writes it: a segment moved
/// earlier in the pass counts at its new home. Returns the moves, as
/// `(segment, destination)`, in the order they were made.
#[allow(clippy::too_many_arguments)]
pub fn balance_step(
    bss: &[BsId],
    segs: &[(SegId, f64)],
    placement: &SegmentMap,
    current: &mut [f64],
    history: &[Vec<f64>],
    next: &[f64],
    rng: &mut SimRng,
    config: &BalancerConfig,
) -> Vec<(SegId, BsId)> {
    let mut moves = Vec::new();
    let total: f64 = current.iter().sum();
    if total <= 0.0 {
        return moves;
    }
    let avg = total / bss.len() as f64;
    // Each active segment's home, with this pass's moves applied.
    let mut homes: Vec<BsId> = segs
        .iter()
        .map(|&(seg, _)| placement.home_of(seg))
        .collect();

    // Iterate exporters hottest-first for determinism. Sorting an
    // (index, value) snapshot — `total_cmp`, so the pass is total — keeps
    // the closure free of slice indexing; stale snapshot values are fine
    // because only the threshold check below reads the live view.
    let mut order: Vec<(usize, f64)> = current.iter().copied().enumerate().collect();
    order.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (exporter, _) in order {
        let Some(&exporter_load) = current.get(exporter) else {
            continue;
        };
        if exporter_load < config.exporter_ratio * avg {
            continue;
        }
        let Some(&exporter_bs) = bss.get(exporter) else {
            continue;
        };
        // This exporter's segments active this period, hottest first. A
        // pass has few exporters, so one scan each beats gathering per-BS
        // lists up front at the cluster sizes the experiments run.
        let mut mine: Vec<(usize, SegId, f64)> = (segs.iter().zip(&homes).enumerate())
            .filter(|&(_, (_, &home))| home == exporter_bs)
            .map(|(at, (&(seg, v), _))| (at, seg, v))
            .collect();
        mine.sort_by(|a, b| b.2.total_cmp(&a.2));
        let quota = MOVE_QUOTA * avg;
        let mut exported = 0.0;
        for (at, seg, v) in mine {
            if exported > quota {
                break;
            }
            let ctx = ImporterContext {
                current,
                history,
                next,
                exporter,
            };
            let Some(importer) = select_importer(config.strategy, rng, &ctx) else {
                ebs_obs::counter_add("balance.migrations_aborted", 1);
                break;
            };
            let Some(&importer_bs) = bss.get(importer) else {
                ebs_obs::counter_add("balance.migrations_aborted", 1);
                continue;
            };
            if let Some(home) = homes.get_mut(at) {
                *home = importer_bs;
            }
            moves.push((seg, importer_bs));
            // Per Algorithm 1, only the working view of the balanced
            // measure is updated (line 8); the oracle's `next` snapshot is
            // deliberately left untouched — empirically, "correcting" it
            // spreads hot segments across several about-to-be-cold BSs and
            // doubles the migration churn at fleet scale.
            if let Some(load) = current.get_mut(importer) {
                *load += v;
            }
            exported += v;
        }
    }
    moves
}

/// Algorithm 1's pass at period `p` of `traffic` ([`balance_step`], with
/// period `p + 1` as the Ideal importer's oracle), its moves applied to
/// `seg_map` at time `p`. Returns the number of segments migrated.
///
/// Exposed so multi-phase schemes (Write-then-Read, §6.2) can chain passes
/// with different measures inside one period.
#[allow(clippy::too_many_arguments)]
pub fn balance_period(
    fleet: &Fleet,
    bss: &[BsId],
    traffic: &PeriodTraffic,
    p: usize,
    seg_map: &mut SegmentMap,
    current: &mut [f64],
    history: &[Vec<f64>],
    rng: &mut SimRng,
    config: &BalancerConfig,
) -> usize {
    // Only the oracle reads the next period; past the last it is idle.
    let next = match config.strategy {
        ImporterSelect::Ideal => traffic.bs_totals(p + 1, seg_map, bss),
        _ => Vec::new(),
    };
    let segs = traffic
        .periods
        .get(p)
        .map(Vec::as_slice)
        .unwrap_or_default();
    let moves = balance_step(bss, segs, seg_map, current, history, &next, rng, config);
    for &(seg, to) in &moves {
        seg_map.migrate(fleet, p as u32, seg, to);
    }
    moves.len()
}

/// Run Algorithm 1 over the storage cluster of `dc`.
pub fn run_balancer(
    fleet: &Fleet,
    metrics: &StorageMetrics,
    dc: DcId,
    config: &BalancerConfig,
) -> BalancerRun {
    let traffic = PeriodTraffic::build(fleet, metrics, dc, config.measure);
    balance_traffic(fleet, dc, &traffic, config)
}

/// Run Algorithm 1 over the storage cluster of `dc` on `traffic`, the
/// cluster's per-period segment traffic in the balanced measure.
pub fn balance_traffic(
    fleet: &Fleet,
    dc: DcId,
    traffic: &PeriodTraffic,
    config: &BalancerConfig,
) -> BalancerRun {
    let bss: Vec<BsId> = fleet.bss_of_dc(dc).to_vec();
    let mut seg_map = SegmentMap::from_fleet(fleet);
    let mut rng = SimRng::seed_from_u64(config.seed);
    let mut history: Vec<Vec<f64>> = vec![Vec::new(); bss.len()];
    let mut cov_series = Vec::new();
    let periods = traffic.periods.len();

    for p in 0..periods {
        let mut current = traffic.bs_totals(p, &seg_map, &bss);
        if let Some(c) = ebs_analysis::normalized_cov(&current) {
            cov_series.push(c);
        }
        for (h, &c) in history.iter_mut().zip(current.iter()) {
            h.push(c);
        }
        balance_period(
            fleet,
            &bss,
            traffic,
            p,
            &mut seg_map,
            &mut current,
            &history,
            &mut rng,
            config,
        );
    }
    let migrations = seg_map.log().len();
    ebs_obs::counter_add("balance.migrations", migrations as u64);
    ebs_obs::counter_add("balance.balancer_runs", 1);
    BalancerRun {
        seg_map,
        periods: periods as u32,
        cov_series,
        migrations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workload::{generate, WorkloadConfig};

    fn dataset() -> ebs_workload::Dataset {
        generate(&WorkloadConfig::quick(61)).unwrap()
    }

    #[test]
    fn balancer_runs_and_conserves_segments() {
        let ds = dataset();
        let run = run_balancer(&ds.fleet, &ds.storage, DcId(0), &BalancerConfig::default());
        let counts = run.seg_map.load_counts(ds.fleet.block_servers.len());
        assert_eq!(counts.iter().sum::<usize>(), ds.fleet.segments.len());
        assert_eq!(run.migrations, run.seg_map.log().len());
        assert!(run.periods > 0);
    }

    #[test]
    fn hot_cluster_triggers_migrations() {
        let ds = dataset();
        let run = run_balancer(&ds.fleet, &ds.storage, DcId(0), &BalancerConfig::default());
        assert!(run.migrations > 0, "skewed traffic must trigger migrations");
    }

    #[test]
    fn strategies_produce_different_placements() {
        let ds = dataset();
        let mk = |strategy| {
            run_balancer(
                &ds.fleet,
                &ds.storage,
                DcId(0),
                &BalancerConfig {
                    strategy,
                    ..BalancerConfig::default()
                },
            )
        };
        let a = mk(ImporterSelect::MinTraffic);
        let b = mk(ImporterSelect::Ideal);
        // The placements should diverge somewhere.
        let diff = a
            .seg_map
            .as_slice()
            .iter()
            .zip(b.seg_map.as_slice())
            .filter(|(x, y)| x != y)
            .count();
        assert!(diff > 0, "MinTraffic and Ideal placed identically");
    }

    #[test]
    fn migrations_never_leave_the_dc() {
        let ds = dataset();
        let run = run_balancer(&ds.fleet, &ds.storage, DcId(0), &BalancerConfig::default());
        for m in run.seg_map.log() {
            let seg_dc = ds.fleet.dc_of_seg(m.seg);
            let to_dc = ds.fleet.storage_nodes[ds.fleet.block_servers[m.to].sn].dc;
            assert_eq!(seg_dc, to_dc);
        }
    }

    /// A BS that imports early in a pass and then crosses the trigger
    /// exports from its list as it stands: the imported segment counts at
    /// its new home, and its tie with the BS's own segment goes to the one
    /// earlier in `segs`.
    #[test]
    fn an_importer_that_crosses_the_trigger_exports_what_it_imported() {
        let ds = dataset();
        let placement = SegmentMap::from_fleet(&ds.fleet);
        let on = |bs: BsId| -> Vec<SegId> {
            let all = (0..ds.fleet.segments.len()).map(SegId::from_index);
            all.filter(|&s| placement.home_of(s) == bs)
                .take(3)
                .collect()
        };
        let bss = &ds.fleet.bss_of_dc(DcId(0))[..3];
        let (a, b, c) = (on(bss[0]), on(bss[1]), on(bss[2]));
        assert!(a.len() == 3 && b.len() == 3 && c.len() == 3);
        // A = 100, B = 45, C = 60: average 68.3, trigger 82, quota 13.7.
        let segs = [
            (a[0], 45.0),
            (b[0], 45.0),
            (a[1], 45.0),
            (a[2], 10.0),
            (c[0], 30.0),
            (c[1], 30.0),
        ];
        let mut current = [100.0, 45.0, 60.0];
        let mut rng = SimRng::seed_from_u64(1);
        let cfg = BalancerConfig::default();
        let moves = balance_step(
            bss,
            &segs,
            &placement,
            &mut current,
            &[],
            &[],
            &mut rng,
            &cfg,
        );
        // A's first hottest segment goes to the coolest BS, B (now 90);
        // C stays under the trigger; B then exports the 45 it imported,
        // ahead of its own 45 because it comes first in `segs`, to C.
        assert_eq!(moves, [(a[0], bss[1]), (a[0], bss[2])]);
        assert_eq!(current, [100.0, 90.0, 105.0]);
    }

    #[test]
    fn cov_series_is_bounded() {
        let ds = dataset();
        let run = run_balancer(&ds.fleet, &ds.storage, DcId(0), &BalancerConfig::default());
        for &c in &run.cov_series {
            assert!((0.0..=1.0).contains(&c));
        }
    }
}
