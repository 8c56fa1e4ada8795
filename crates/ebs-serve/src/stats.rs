//! Per-epoch statistics folded from one simulated epoch, and the
//! window-level SLO metrics derived from them.
//!
//! [`EpochStats`] is everything a policy may observe about one epoch:
//! the slice's [`SimStats`], per-entity traffic columns (worker threads,
//! BlockServers, segments, VDs), the latency distribution (exact p99 of
//! the epoch plus a fixed-bin histogram that merges across a window), and
//! optional cache hit counts. All sums are exact — byte counts are
//! integer-valued `f64`s well under 2^53 — so folds are independent of
//! accumulation grouping.

use ebs_analysis::Histogram;
use ebs_core::hash::FxHashMap;
use ebs_core::ids::{SegId, VdId};
use ebs_core::io::{IoEvent, Op};
use ebs_core::topology::Fleet;
use ebs_stack::route::RoutePlan;
use ebs_stack::sim::{SimOutput, SimStats};

use crate::window::{fold_sum, ratio};

/// Latency histogram bounds shared by every epoch so windows can merge
/// bin-by-bin (matches the `stack.lat.total_us` obs histogram).
pub const LAT_HIST_LO: f64 = 0.0;
/// Upper bound of the shared latency histogram (µs).
pub const LAT_HIST_HI: f64 = 50_000.0;
/// Bin count of the shared latency histogram.
pub const LAT_HIST_BINS: usize = 50;

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
    /// Fixed-bin latency histogram for window-merged percentiles.
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
        let mut seg_map: FxHashMap<u32, f64> = FxHashMap::default();
        let mut vd_map: FxHashMap<u32, f64> = FxHashMap::default();
        for (i, ev) in events.iter().enumerate() {
            let sz = ev.size as u64;
            bytes += sz;
            if ev.op == Op::Read {
                reads += 1;
            }
            if let Some(cn) = plan.cn().get(i) {
                if let Some(slot) = cn_ios.get_mut(cn.index()) {
                    *slot += 1;
                }
            }
            if let Some(wt) = plan.wt().get(i) {
                if let Some(slot) = wt_bytes.get_mut(wt.index()) {
                    *slot += sz as f64;
                }
            }
            if let Some(bs) = plan.bs().get(i) {
                if let Some(slot) = bs_bytes.get_mut(bs.index()) {
                    *slot += sz as f64;
                }
            }
            if let Some(seg) = plan.seg().get(i) {
                *seg_map.entry(seg.0).or_insert(0.0) += sz as f64;
            }
            *vd_map.entry(ev.vd.0).or_insert(0.0) += sz as f64;
        }
        let mut seg_bytes: Vec<(SegId, f64)> =
            seg_map.into_iter().map(|(s, b)| (SegId(s), b)).collect();
        seg_bytes.sort_unstable_by_key(|(s, _)| s.0);
        let mut vd_bytes: Vec<(VdId, f64)> =
            vd_map.into_iter().map(|(v, b)| (VdId(v), b)).collect();
        vd_bytes.sort_unstable_by_key(|(v, _)| v.0);

        let mut lat_hist = Histogram::new(LAT_HIST_LO, LAT_HIST_HI, LAT_HIST_BINS);
        let mut lats: Vec<f64> = Vec::with_capacity(out.traces.len());
        for r in out.traces.records() {
            let t = r.lat.total_us();
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

/// Rolling SLO metrics folded over a window of epochs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowMetrics {
    /// Epochs in the window.
    pub epochs: usize,
    /// IOs across the window.
    pub ios: u64,
    /// Windowed p99 of end-to-end latency (µs), from the merged
    /// fixed-bin histograms (upper bin edge; 0 when the window is idle).
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

/// Quantile from a fixed-bin histogram: the upper edge of the bin where
/// the cumulative count first reaches `q · total` (0 for an empty
/// histogram). Deterministic and merge-stable across any epoch grouping.
pub fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    let total = h.total();
    if total == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &c) in h.counts().iter().enumerate() {
        cum += c;
        if cum >= target {
            return h.bin_edges(i).1;
        }
    }
    h.hi()
}

/// Fold the window's epochs (plus the per-epoch applied-action log) into
/// rolling SLO metrics.
pub fn fold_window(epochs: &[EpochStats], actions: &[AppliedActions]) -> WindowMetrics {
    let ios = fold_sum(epochs, |e| e.sim.ios);
    let throttled = fold_sum(epochs, |e| e.sim.throttled);
    let mut merged = Histogram::new(LAT_HIST_LO, LAT_HIST_HI, LAT_HIST_BINS);
    for e in epochs {
        merged.merge(&e.lat_hist);
    }
    let accesses = fold_sum(epochs, |e| e.cache.map_or(0, |c| c.accesses));
    let hits = fold_sum(epochs, |e| e.cache.map_or(0, |c| c.hits));
    WindowMetrics {
        epochs: epochs.len(),
        ios,
        p99_us: hist_quantile(&merged, 0.99),
        throttle_waste: ratio(throttled, ios),
        migrations: fold_sum(actions, |a| a.migrations),
        rebinds: fold_sum(actions, |a| a.rebinds),
        cache_hit: ratio(hits, accesses),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantile_hits_the_right_bin() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for _ in 0..99 {
            h.add(5.0); // bin 0: (0, 10]
        }
        h.add(95.0); // bin 9
        assert_eq!(hist_quantile(&h, 0.5), 10.0);
        assert_eq!(hist_quantile(&h, 0.99), 10.0);
        assert_eq!(hist_quantile(&h, 1.0), 100.0);
        let empty = Histogram::new(0.0, 100.0, 10);
        assert_eq!(hist_quantile(&empty, 0.99), 0.0);
    }

    #[test]
    fn window_fold_rates() {
        let mk = |ios: u64, throttled: u64| EpochStats {
            epoch: 0,
            start_us: 0,
            sim: SimStats {
                ios,
                throttled,
                mean_latency_us: 0.0,
            },
            bytes: 0,
            reads: 0,
            p99_us: 0.0,
            lat_hist: Histogram::new(LAT_HIST_LO, LAT_HIST_HI, LAT_HIST_BINS),
            cn_ios: vec![],
            wt_bytes: vec![],
            bs_bytes: vec![],
            seg_bytes: vec![],
            vd_bytes: vec![],
            cache: Some(CacheEpoch {
                accesses: 10,
                hits: 5,
            }),
        };
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
