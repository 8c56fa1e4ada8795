//! Per-epoch statistics folded from one simulated epoch, and the
//! window-level SLO metrics derived from them.
//!
//! [`EpochStats`] is everything a policy may observe about one epoch:
//! the slice's [`SimStats`], per-entity traffic columns (worker threads,
//! BlockServers, segments, VDs), the latency distribution (exact p99 of
//! the epoch plus a log-linear histogram that merges across a window), and
//! optional cache hit counts. All sums are exact — byte counts are
//! integer-valued `f64`s well under 2^53 — so folds are independent of
//! accumulation grouping.

use ebs_analysis::Histogram;
use ebs_core::ids::{SegId, VdId};
use ebs_core::io::{IoEvent, Op};
use ebs_core::topology::Fleet;
use ebs_stack::route::RoutePlan;
use ebs_stack::sim::{SimOutput, SimStats};

use crate::window::{fold_sum, ratio};

/// Cache accesses/hits observed during one epoch (present only when the
/// serve loop runs its observational cache).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheEpoch {
    /// Page accesses offered to the cache.
    pub accesses: u64,
    /// Page hits.
    pub hits: u64,
}

/// Everything one epoch exposes to the policies and the metrics stream.
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: u64,
    /// First microsecond of the epoch.
    pub start_us: u64,
    /// The simulator's slice statistics (ios, throttled, slice mean
    /// latency).
    pub sim: SimStats,
    /// Total bytes moved this epoch.
    pub bytes: u64,
    /// Read IOs this epoch.
    pub reads: u64,
    /// Exact p99 of end-to-end latency within the epoch (0 when empty).
    pub p99_us: f64,
    /// Latency histogram (µs) for window-merged percentiles.
    pub lat_hist: Histogram,
    /// IOs per compute node (dense, indexed by CN).
    pub cn_ios: Vec<u64>,
    /// Bytes per worker thread (dense, indexed by WT).
    pub wt_bytes: Vec<f64>,
    /// Bytes per BlockServer (dense, indexed by BS).
    pub bs_bytes: Vec<f64>,
    /// Bytes per active segment, sorted by segment id.
    pub seg_bytes: Vec<(SegId, f64)>,
    /// Bytes per active VD, sorted by VD id.
    pub vd_bytes: Vec<(VdId, f64)>,
    /// Cache counters when the serve cache is enabled.
    pub cache: Option<CacheEpoch>,
}

impl EpochStats {
    /// Fold one simulated epoch into its observable statistics.
    pub fn fold(
        fleet: &Fleet,
        epoch: u64,
        start_us: u64,
        events: &[IoEvent],
        plan: &RoutePlan,
        out: &SimOutput,
    ) -> Self {
        let mut bytes = 0u64;
        let mut reads = 0u64;
        let mut cn_ios = vec![0u64; fleet.compute_nodes.len()];
        let mut wt_bytes = vec![0.0f64; fleet.wt_total as usize];
        let mut bs_bytes = vec![0.0f64; fleet.block_servers.len()];
        let mut seg_sums = DenseSums::new(fleet.segments.len());
        let mut vd_sums = DenseSums::new(fleet.vds.len());
        let mut routes = plan.routes().iter();
        for ev in events {
            let sz = ev.size as u64;
            bytes += sz;
            if ev.op == Op::Read {
                reads += 1;
            }
            if let Some(r) = routes.next() {
                if let Some(slot) = cn_ios.get_mut(r.cn.index()) {
                    *slot += 1;
                }
                if let Some(slot) = wt_bytes.get_mut(r.wt.index()) {
                    *slot += sz as f64;
                }
                if let Some(slot) = bs_bytes.get_mut(r.bs.index()) {
                    *slot += sz as f64;
                }
                seg_sums.add(r.seg.index(), sz as f64);
            }
            vd_sums.add(ev.vd.index(), sz as f64);
        }
        let seg_bytes = seg_sums.into_pairs(SegId);
        let vd_bytes = vd_sums.into_pairs(VdId);

        let mut lat_hist = Histogram::new();
        let mut lats: Vec<f64> = Vec::with_capacity(out.lat.len());
        for lat in &out.lat {
            let t = lat.total_us();
            lat_hist.add(t);
            lats.push(t);
        }
        let p99_us = ebs_analysis::quantile(&lats, 0.99).unwrap_or(0.0);

        Self {
            epoch,
            start_us,
            sim: out.stats,
            bytes,
            reads,
            p99_us,
            lat_hist,
            cn_ios,
            wt_bytes,
            bs_bytes,
            seg_bytes,
            vd_bytes,
            cache: None,
        }
    }
}

#[cfg(test)]
impl EpochStats {
    /// Epoch 0 with no traffic, for tests to fill in.
    pub(crate) fn idle() -> Self {
        Self {
            epoch: 0,
            start_us: 0,
            sim: SimStats::default(),
            bytes: 0,
            reads: 0,
            p99_us: 0.0,
            lat_hist: Histogram::new(),
            cn_ios: vec![],
            wt_bytes: vec![],
            bs_bytes: vec![],
            seg_bytes: vec![],
            vd_bytes: vec![],
            cache: None,
        }
    }
}

/// Per-id byte sums over one epoch, dense by id, that list the ids the
/// epoch touched in id order without hashing or sorting. A sum starts
/// at 0.0 and takes its adds in event order — exactly what a hash-map
/// entry would do — and the integer-valued sums are exact anyway.
struct DenseSums {
    sums: Vec<f64>,
    /// One bit per id: touched this epoch.
    touched: Vec<u64>,
}

impl DenseSums {
    fn new(ids: usize) -> Self {
        Self {
            sums: vec![0.0; ids],
            touched: vec![0; ids.div_ceil(64)],
        }
    }

    fn add(&mut self, id: usize, v: f64) {
        if id >= self.sums.len() {
            self.sums.resize(id + 1, 0.0);
            self.touched.resize(id / 64 + 1, 0);
        }
        if let Some(sum) = self.sums.get_mut(id) {
            *sum += v;
        }
        if let Some(word) = self.touched.get_mut(id / 64) {
            *word |= 1u64 << (id % 64);
        }
    }

    /// The touched ids and their sums, in id order.
    fn into_pairs<I>(self, id: impl Fn(u32) -> I) -> Vec<(I, f64)> {
        let mut out = Vec::new();
        for (w, &word) in self.touched.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.push((id(i as u32), self.sums.get(i).copied().unwrap_or(0.0)));
            }
        }
        out
    }
}

/// Rolling SLO metrics folded over a window of epochs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowMetrics {
    /// Epochs in the window.
    pub epochs: usize,
    /// IOs across the window.
    pub ios: u64,
    /// Windowed p99 of end-to-end latency (µs), from the merged
    /// histograms (upper edge of the p99's bucket, within 1/16 of the
    /// exact value; 0 when the window is idle).
    pub p99_us: f64,
    /// Throttle waste: throttled IOs / IOs over the window.
    pub throttle_waste: f64,
    /// Migration churn: segment migrations applied during the window.
    pub migrations: u64,
    /// QP rebinds applied during the window.
    pub rebinds: u64,
    /// Cache hit ratio over the window (0 when no cache or idle).
    pub cache_hit: f64,
}

/// Per-epoch control actions actually applied (for churn metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppliedActions {
    /// WT pair swaps (QP rebinds).
    pub rebinds: u64,
    /// Lending grants.
    pub lends: u64,
    /// Lending reclaims.
    pub reclaims: u64,
    /// Segment migrations.
    pub migrations: u64,
    /// Cache resizes/flushes.
    pub cache_ops: u64,
    /// Actions rejected by validation.
    pub rejected: u64,
}

impl AppliedActions {
    /// Accumulate another epoch's counts.
    pub fn add(&mut self, other: &AppliedActions) {
        self.rebinds += other.rebinds;
        self.lends += other.lends;
        self.reclaims += other.reclaims;
        self.migrations += other.migrations;
        self.cache_ops += other.cache_ops;
        self.rejected += other.rejected;
    }

    /// Total applied actions (rejections excluded).
    pub fn total(&self) -> u64 {
        self.rebinds + self.lends + self.reclaims + self.migrations + self.cache_ops
    }
}

/// Fold the window's epochs (plus the per-epoch applied-action log) into
/// rolling SLO metrics.
pub fn fold_window(epochs: &[EpochStats], actions: &[AppliedActions]) -> WindowMetrics {
    let ios = fold_sum(epochs, |e| e.sim.ios);
    let throttled = fold_sum(epochs, |e| e.sim.throttled);
    let mut merged = Histogram::new();
    for e in epochs {
        merged.merge(&e.lat_hist);
    }
    let accesses = fold_sum(epochs, |e| e.cache.map_or(0, |c| c.accesses));
    let hits = fold_sum(epochs, |e| e.cache.map_or(0, |c| c.hits));
    WindowMetrics {
        epochs: epochs.len(),
        ios,
        p99_us: merged.quantile(0.99),
        throttle_waste: ratio(throttled, ios),
        migrations: fold_sum(actions, |a| a.migrations),
        rebinds: fold_sum(actions, |a| a.rebinds),
        cache_hit: ratio(hits, accesses),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An epoch's sparse traffic columns and p99, as exact bit patterns.
    #[derive(Debug, PartialEq)]
    struct Sparse {
        segs: Vec<(u32, u64)>,
        vds: Vec<(u32, u64)>,
        p99: u64,
    }

    impl Sparse {
        fn of(stats: &EpochStats) -> Self {
            Self {
                segs: stats
                    .seg_bytes
                    .iter()
                    .map(|&(s, b)| (s.0, b.to_bits()))
                    .collect(),
                vds: stats
                    .vd_bytes
                    .iter()
                    .map(|&(v, b)| (v.0, b.to_bits()))
                    .collect(),
                p99: stats.p99_us.to_bits(),
            }
        }
    }

    /// The fold's pre-linear-time formulation: hash-map accumulation,
    /// sorted output, and a sort-based p99.
    fn reference_fold(events: &[IoEvent], plan: &RoutePlan, out: &SimOutput) -> Sparse {
        use ebs_core::hash::FxHashMap;
        let mut seg_map: FxHashMap<u32, f64> = FxHashMap::default();
        let mut vd_map: FxHashMap<u32, f64> = FxHashMap::default();
        for (i, ev) in events.iter().enumerate() {
            if let Some(r) = plan.routes().get(i) {
                *seg_map.entry(r.seg.0).or_insert(0.0) += ev.size as f64;
            }
            *vd_map.entry(ev.vd.0).or_insert(0.0) += ev.size as f64;
        }
        let sorted_bits = |m: FxHashMap<u32, f64>| {
            let mut v: Vec<(u32, u64)> = m.into_iter().map(|(id, b)| (id, b.to_bits())).collect();
            v.sort_unstable_by_key(|&(id, _)| id);
            v
        };
        // `quantiles` still sorts.
        let lats: Vec<f64> = out.lat.iter().map(|lat| lat.total_us()).collect();
        let p99 = ebs_analysis::quantile::quantiles(&lats, &[0.99])[0].unwrap_or(0.0);
        Sparse {
            segs: sorted_bits(seg_map),
            vds: sorted_bits(vd_map),
            p99: p99.to_bits(),
        }
    }

    #[test]
    fn fold_matches_hash_map_and_sort_oracle() {
        use ebs_core::rng::SimRng;
        use ebs_stack::sim::{SimSession, StackConfig};
        use ebs_stack::{Binding, SegmentMap};
        use ebs_workload::{generate, WorkloadConfig};

        for seed in [91u64, 92, 93] {
            let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
            let binding = Binding::from_fleet(&ds.fleet);
            let seg_map = SegmentMap::from_fleet(&ds.fleet);
            let mut session = SimSession::new(&ds.fleet, StackConfig::default()).unwrap();
            let mut rng = SimRng::seed_from_u64(seed);
            let n = ds.events.len();
            let (mut lo, mut epoch) = (0usize, 0u64);
            while lo < n {
                // Random epoch lengths, empty epochs included.
                let hi = (lo + rng.index(n / 8 + 1)).min(n);
                let slice = &ds.events[lo..hi];
                let plan = RoutePlan::build(&ds.fleet, &binding, &seg_map, slice).unwrap();
                let out = session.step(slice, &plan).unwrap();
                let stats = EpochStats::fold(&ds.fleet, epoch, 0, slice, &plan, &out);
                assert_eq!(
                    Sparse::of(&stats),
                    reference_fold(slice, &plan, &out),
                    "seed {seed} epoch {epoch}"
                );
                lo = hi;
                epoch += 1;
            }
        }
    }

    /// An epoch with the given IO counts and latencies; 5 of its 10 cache
    /// accesses hit.
    fn epoch(ios: u64, throttled: u64, lats: &[f64]) -> EpochStats {
        let mut lat_hist = Histogram::new();
        lat_hist.extend(lats.iter().copied());
        EpochStats {
            sim: SimStats {
                ios,
                throttled,
                mean_latency_us: 0.0,
            },
            lat_hist,
            cache: Some(CacheEpoch {
                accesses: 10,
                hits: 5,
            }),
            ..EpochStats::idle()
        }
    }

    #[test]
    fn window_p99_is_not_clamped_past_50_ms() {
        use ebs_core::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(7);
        let lats: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..400).map(|_| rng.f64_range(100.0, 400_000.0)).collect())
            .collect();
        let epochs: Vec<EpochStats> = lats.iter().map(|l| epoch(400, 0, l)).collect();
        let mut pooled: Vec<f64> = lats.concat();
        pooled.sort_by(f64::total_cmp);
        let exact = pooled[(0.99 * pooled.len() as f64).ceil() as usize - 1];
        assert!(exact > 50_000.0);
        let w = fold_window(&epochs, &[]);
        // The windowed p99 is the upper edge of the bucket holding the
        // exact nearest-rank p99.
        assert!(exact < w.p99_us && w.p99_us <= exact * (1.0 + 1.0 / 16.0));
    }

    #[test]
    fn window_fold_rates() {
        let mk = |ios: u64, throttled: u64| epoch(ios, throttled, &[]);
        let epochs = [mk(80, 8), mk(20, 2)];
        let actions = [
            AppliedActions {
                migrations: 2,
                rebinds: 1,
                ..AppliedActions::default()
            },
            AppliedActions::default(),
        ];
        let w = fold_window(&epochs, &actions);
        assert_eq!(w.ios, 100);
        assert_eq!(w.throttle_waste, 0.1);
        assert_eq!(w.migrations, 2);
        assert_eq!(w.rebinds, 1);
        assert_eq!(w.cache_hit, 0.5);
    }
}
