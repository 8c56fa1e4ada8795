//! The built-in online policies: the paper's four extension mechanisms
//! recast from offline batch sweeps into epoch-time controllers.
//!
//! The rebinder, the lender and the balancer decide through the same
//! kernels as the offline sweeps the figures evaluate, fed one epoch of
//! the sliding window as the period:
//!
//! * [`OnlineRebinder`] — §4.3 QP rebinding: [`rebind_step`] per
//!   compute node.
//! * [`OnlineLender`] — §5.3 limited lending (Algorithm 2): [`lend_step`]
//!   per VM's VD group, every grant taken back at the next epoch.
//! * [`OnlineBalancer`] — §6.1 inter-BS balancing (Algorithm 1):
//!   [`balance_step`] per data center.
//! * [`OnlineCacheTuner`] — §7 stack caches (`ebs_cache`): grow or
//!   shrink the serve-side LRU toward a hit-ratio band, flushing when
//!   the working set visibly shifts.
//!
//! Every decision is pure arithmetic over the window view, so policy
//! traces are seed-deterministic and thread/shard-count invariant.

use ebs_balance::bs_balancer::{balance_step, BalancerConfig};
use ebs_balance::wt_rebind::{rebind_step, RebindConfig};
use ebs_core::ids::{BsId, DcId, VdId, VmId, WtId};
use ebs_core::rng::SimRng;
use ebs_throttle::lending::lend_step;
use ebs_throttle::LendingConfig;

use crate::policy::{Action, Policy, WindowView};
use crate::stats::EpochStats;

// ---------------------------------------------------------------------

/// Online QP rebinder (§4.3): one [`rebind_step`] per compute node and
/// epoch, with the paper's trigger (the epoch is the period, so
/// `period_us` goes unread).
#[derive(Clone, Debug, Default)]
pub struct OnlineRebinder {
    cfg: RebindConfig,
}

impl Policy for OnlineRebinder {
    fn name(&self) -> &'static str {
        "rebind"
    }

    fn observe(&mut self, view: &WindowView<'_>) -> Vec<Action> {
        let Some(newest) = view.newest() else {
            return Vec::new();
        };
        let mut actions = Vec::new();
        for (node, &ios) in view.fleet.compute_nodes.iter().zip(&newest.cn_ios) {
            let base = node.wt_base as usize;
            let Some(traffic) = newest.wt_bytes.get(base..base + node.wt_count as usize) else {
                continue;
            };
            if let Some(Some((hot, cold))) = rebind_step(traffic, ios, &self.cfg) {
                actions.push(Action::SwapWts {
                    a: WtId(node.wt_base + hot as u32),
                    b: WtId(node.wt_base + cold as u32),
                });
            }
        }
        actions
    }
}

// ---------------------------------------------------------------------

/// Online limited lending (§5.3, Algorithm 2) over per-VM VD groups.
///
/// A member's demand is its newest-epoch bytes per second, and its cap
/// its subscribed throughput cap times the simulator's throttle scale
/// (caps are compared against the sampled stream, so demand must meet
/// the same scaled caps the gates enforce).
#[derive(Clone, Debug)]
pub struct OnlineLender {
    /// The newest epoch's bytes per VD, dense (rebuilt every epoch).
    vd_bytes: Vec<f64>,
    /// One VM's group, reused across VMs.
    group: LendGroup,
}

impl OnlineLender {
    /// A lender with Algorithm 2's rate from `cfg` (the epoch is the
    /// lending period) and the simulator's `throttle_scale`.
    pub fn new(cfg: LendingConfig, throttle_scale: f64) -> Self {
        Self {
            vd_bytes: Vec::new(),
            group: LendGroup::new(cfg.p, throttle_scale),
        }
    }
}

/// The lending rule and one group's columns, in member order.
#[derive(Clone, Debug, Default)]
struct LendGroup {
    /// Lending rate `p ∈ (0, 1)`.
    p: f64,
    throttle_scale: f64,
    demand: Vec<f64>,
    base: Vec<f64>,
    caps: Vec<f64>,
}

impl LendGroup {
    fn new(p: f64, throttle_scale: f64) -> Self {
        Self {
            p,
            throttle_scale,
            ..Self::default()
        }
    }

    /// Algorithm 2 over the group `vds`, member `vd` demanding
    /// `demand(vd)`: take back every outstanding grant (a grant lives one
    /// period), then set the caps [`lend_step`] grants, each lender
    /// keeping its demand. A member whose base cap is zero takes no scale.
    fn decide(
        &mut self,
        view: &WindowView<'_>,
        vds: &[VdId],
        demand: impl Fn(VdId) -> f64,
        actions: &mut Vec<Action>,
    ) {
        for &vd in vds {
            if view.cap_scales.get(vd.index()).is_some_and(|&s| s != 1.0) {
                actions.push(Action::ReclaimCap { vd });
            }
        }
        let cap = |vd| view.fleet.vds.get(vd).map_or(0.0, |v| v.spec.tput_cap);
        self.demand.clear();
        self.demand.extend(vds.iter().map(|&vd| demand(vd)));
        self.base.clear();
        self.base
            .extend(vds.iter().map(|&vd| cap(vd) * self.throttle_scale));
        self.caps.clone_from(&self.base);
        let kept = |i: usize| self.demand.get(i).copied().unwrap_or(0.0);
        if lend_step(&self.demand, &mut self.caps, self.p, kept).is_none() {
            return;
        }
        for ((&vd, &cap), &base) in vds.iter().zip(&self.caps).zip(&self.base) {
            let scale = cap / base;
            if cap != base && scale.is_finite() && scale > 0.0 {
                actions.push(Action::LendCap { vd, scale });
            }
        }
    }
}

impl Policy for OnlineLender {
    fn name(&self) -> &'static str {
        "lend"
    }

    fn observe(&mut self, view: &WindowView<'_>) -> Vec<Action> {
        let Some(newest) = view.newest() else {
            return Vec::new();
        };
        let epoch_secs = view.epoch.secs();
        self.vd_bytes.clear();
        self.vd_bytes.resize(view.fleet.vds.len(), 0.0);
        for &(vd, bytes) in &newest.vd_bytes {
            if let Some(slot) = self.vd_bytes.get_mut(vd.index()) {
                *slot = bytes;
            }
        }
        let mut actions = Vec::new();
        for vm in 0..view.fleet.vm_count() {
            let vds = view.fleet.vds_of_vm(VmId(vm as u32));
            if vds.len() >= 2 {
                let bytes = &self.vd_bytes;
                let demand = |vd: VdId| bytes.get(vd.index()).copied().unwrap_or(0.0) / epoch_secs;
                self.group.decide(view, vds, demand, &mut actions);
            }
        }
        actions
    }
}

// ---------------------------------------------------------------------

/// Online inter-BS balancer (§6.1): one [`balance_step`] per data center
/// and epoch.
///
/// The period is the newest epoch: per-BS bytes as the current traffic,
/// the DC's per-segment bytes as the segments to export, and the window
/// as the history. The epoch fold carries total bytes, so serve levels
/// total (read + write) traffic whatever `measure` the config names. With
/// the Random (S1) and MinTraffic (S2) importers serve moves what
/// [`balance_traffic`](ebs_balance::bs_balancer::balance_traffic) moves on
/// the same epochs; S3, S4 and S6 read only the window, not every period
/// so far. Next period's traffic is unobservable online, so an Ideal (S5)
/// importer aborts every move.
#[derive(Clone, Debug)]
pub struct OnlineBalancer {
    cfg: BalancerConfig,
    /// Each data center's Random (S1) stream, seeded as offline.
    rngs: Vec<SimRng>,
    /// Each segment's data center, built from the first view's fleet (a
    /// policy serves one fleet; a view whose fleet has another segment
    /// count rebuilds it).
    seg_dc: Vec<DcId>,
}

impl OnlineBalancer {
    /// A balancer with `cfg`'s trigger and importer.
    pub fn new(cfg: BalancerConfig) -> Self {
        Self {
            cfg,
            rngs: Vec::new(),
            seg_dc: Vec::new(),
        }
    }
}

impl Policy for OnlineBalancer {
    fn name(&self) -> &'static str {
        "balance"
    }

    fn observe(&mut self, view: &WindowView<'_>) -> Vec<Action> {
        let Some(newest) = view.newest() else {
            return Vec::new();
        };
        let (fleet, seed) = (view.fleet, self.cfg.seed);
        (self.rngs).resize_with(fleet.dcs.len(), || SimRng::seed_from_u64(seed));
        if self.seg_dc.len() != fleet.segments.len() {
            self.seg_dc = fleet
                .segments
                .iter()
                .map(|s| fleet.dc_of_vd(s.vd))
                .collect();
        }
        // Each DC's active segments (the fold keys them by fleet ids).
        let mut segs_of = vec![Vec::new(); fleet.dcs.len()];
        for &(seg, v) in &newest.seg_bytes {
            let dc = self.seg_dc.get(seg.index());
            if let Some(segs) = dc.and_then(|dc| segs_of.get_mut(dc.index())) {
                segs.push((seg, v));
            }
        }
        let bs_bytes =
            |e: &EpochStats, bs: &BsId| e.bs_bytes.get(bs.index()).copied().unwrap_or(0.0);
        let mut actions = Vec::new();
        for (dc, (segs, rng)) in segs_of.iter().zip(&mut self.rngs).enumerate() {
            let bss = fleet.bss_of_dc(DcId(dc as u32));
            let mut current: Vec<f64> = bss.iter().map(|bs| bs_bytes(newest, bs)).collect();
            // Only the S3, S4 and S6 importers read the history.
            let history: Vec<Vec<f64>> = if self.cfg.strategy.reads_history() {
                let window = |bs| view.epochs.iter().map(|e| bs_bytes(e, bs)).collect();
                bss.iter().map(window).collect()
            } else {
                Vec::new()
            };
            let moves = balance_step(
                bss,
                segs,
                view.placement,
                &mut current,
                &history,
                &[],
                rng,
                &self.cfg,
            );
            for (seg, to) in moves {
                actions.push(Action::MigrateSegment { seg, to });
            }
        }
        actions
    }
}

// ---------------------------------------------------------------------

/// Online cache sizing (§7): steer the serve-side LRU toward a hit band.
#[derive(Clone, Debug)]
pub struct OnlineCacheTuner {
    /// Pages currently requested (mirrors the controller's cache).
    pages: usize,
    /// Grow while the windowed hit ratio is below this.
    low: f64,
    /// Shrink once the windowed hit ratio exceeds this.
    high: f64,
    /// Never shrink below this.
    min_pages: usize,
    /// Never grow past this.
    max_pages: usize,
}

impl OnlineCacheTuner {
    /// A tuner starting at `pages`, targeting hit ratios in
    /// `[0.10, 0.60]`, bounded to `[64, 1 Mi]` pages.
    pub fn new(pages: usize) -> Self {
        Self {
            pages: pages.max(1),
            low: 0.10,
            high: 0.60,
            min_pages: 64,
            max_pages: 1 << 20,
        }
    }
}

impl Policy for OnlineCacheTuner {
    fn name(&self) -> &'static str {
        "cache"
    }

    fn observe(&mut self, view: &WindowView<'_>) -> Vec<Action> {
        let epochs = view.epochs;
        let (mut accesses, mut hits) = (0u64, 0u64);
        for e in epochs {
            if let Some(c) = e.cache {
                accesses += c.accesses;
                hits += c.hits;
            }
        }
        if accesses == 0 {
            return Vec::new();
        }
        let window_hit = hits as f64 / accesses as f64;
        // A newest-epoch collapse against the window average means the
        // working set moved: flush so the cache relearns it.
        if let Some(c) = view.newest().and_then(|e| e.cache) {
            if c.accesses > 0 && window_hit > 0.0 {
                let newest_hit = c.hits as f64 / c.accesses as f64;
                if epochs.len() >= 2 && newest_hit < 0.25 * window_hit {
                    return vec![Action::FlushCache];
                }
            }
        }
        if window_hit < self.low && self.pages < self.max_pages {
            self.pages = (self.pages * 2).min(self.max_pages);
            return vec![Action::ResizeCache { pages: self.pages }];
        }
        if window_hit > self.high && self.pages / 2 >= self.min_pages {
            self.pages /= 2;
            return vec![Action::ResizeCache { pages: self.pages }];
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::stats::CacheEpoch;
    use ebs_stack::hypervisor::Binding;
    use ebs_stack::segment::SegmentMap;
    use ebs_workload::{build_fleet, WorkloadConfig};

    #[test]
    fn sparse_get_finds_and_defaults() {
        let col = [(VdId(2), 10.0), (VdId(7), 20.0)];
        assert_eq!(sparse_get(&col, VdId(2)), 10.0);
        assert_eq!(sparse_get(&col, VdId(7)), 20.0);
        assert_eq!(sparse_get(&col, VdId(3)), 0.0);
    }

    /// Look up a sparse per-VD byte column (sorted by id).
    fn sparse_get(col: &[(VdId, f64)], id: VdId) -> f64 {
        col.binary_search_by_key(&id.0, |&(i, _)| i.0)
            .ok()
            .and_then(|at| col.get(at))
            .map_or(0.0, |&(_, b)| b)
    }

    /// The lender before it kept a dense demand column and a reused
    /// group buffer: one binary search per VD and one group per VM. The
    /// oracle for [`OnlineLender`]'s demand lookup; both decide through
    /// [`LendGroup::decide`].
    fn sparse_lender(view: &WindowView<'_>, p: f64, throttle_scale: f64) -> Vec<Action> {
        let Some(newest) = view.newest() else {
            return Vec::new();
        };
        let mut actions = Vec::new();
        for vm in 0..view.fleet.vm_count() {
            let vds = view.fleet.vds_of_vm(VmId(vm as u32));
            if vds.len() >= 2 {
                let demand = |vd| sparse_get(&newest.vd_bytes, vd) / view.epoch.secs();
                LendGroup::new(p, throttle_scale).decide(view, vds, demand, &mut actions);
            }
        }
        actions
    }

    #[test]
    fn dense_lender_matches_the_sparse_lookup_oracle() {
        let epoch = crate::epoch::EpochSpec::from_us(30_000_000).unwrap();
        let secs = epoch.secs();
        let mut lent_out = 0;
        for seed in 0..6u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut fleet = build_fleet(&WorkloadConfig::quick(seed)).unwrap();
            // Zero caps: a few disks subscribe none, and one seed scales
            // every cap to zero.
            for vd in fleet.vds.iter_mut() {
                if rng.chance(0.1) {
                    vd.spec.tput_cap = 0.0;
                }
            }
            let throttle_scale = [1.0 / 3200.0, 1.0, 0.0][seed as usize % 3];
            let cfg = LendingConfig::default();
            let mut dense = OnlineLender::new(cfg, throttle_scale);
            let (binding, placement) =
                (Binding::from_fleet(&fleet), SegmentMap::from_fleet(&fleet));
            let vd_count = fleet.vds.len();
            for e in 0..12u64 {
                // VDs missing from `vd_bytes`, demand from idle to 3x the
                // cap, and an entry past the fleet now and then.
                let mut vd_bytes = Vec::new();
                for vd in fleet.vds.iter() {
                    if rng.chance(0.6) {
                        let cap = vd.spec.tput_cap * throttle_scale;
                        let bytes = (cap.max(1.0) * secs * rng.f64_range(0.0, 3.0)).round();
                        vd_bytes.push((vd.id, bytes));
                    }
                }
                if rng.chance(0.3) {
                    vd_bytes.push((VdId(vd_count as u32 + 5), 1e12));
                }
                // Outstanding grants from last epoch, lent out and
                // borrowed; sometimes a short column.
                let mut cap_scales: Vec<f64> = (0..vd_count)
                    .map(|_| {
                        if rng.chance(0.3) {
                            rng.f64_range(0.5, 4.0)
                        } else {
                            1.0
                        }
                    })
                    .collect();
                if rng.chance(0.2) {
                    cap_scales.truncate(vd_count / 2);
                }
                let epochs = [EpochStats {
                    vd_bytes,
                    ..EpochStats::idle()
                }];
                let view = WindowView {
                    fleet: &fleet,
                    epoch: &epoch,
                    epochs: &epochs,
                    binding: &binding,
                    placement: &placement,
                    cap_scales: &cap_scales,
                };
                let want = sparse_lender(&view, cfg.p, throttle_scale);
                let got = dense.observe(&view);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "seed {seed} epoch {e}"
                );
                lent_out += want
                    .iter()
                    .filter(|a| matches!(a, Action::LendCap { scale, .. } if *scale < 1.0))
                    .count();
            }
        }
        // The windows must reach the lending arm, not only the resets.
        assert!(lent_out > 0);
    }

    #[test]
    fn cache_tuner_grows_then_shrinks() {
        let fleet = build_fleet(&WorkloadConfig::quick(1)).unwrap();
        let epoch = crate::epoch::EpochSpec::from_us(60_000_000).unwrap();
        let (binding, placement) = (Binding::from_fleet(&fleet), SegmentMap::from_fleet(&fleet));
        // The tuner's actions on a window of epochs with these (accesses,
        // hits), oldest first.
        let observe = |tuner: &mut OnlineCacheTuner, window: &[(u64, u64)]| {
            let epochs: Vec<EpochStats> = window
                .iter()
                .map(|&(accesses, hits)| EpochStats {
                    cache: Some(CacheEpoch { accesses, hits }),
                    ..EpochStats::idle()
                })
                .collect();
            tuner.observe(&WindowView {
                fleet: &fleet,
                epoch: &epoch,
                epochs: &epochs,
                binding: &binding,
                placement: &placement,
                cap_scales: &[],
            })
        };
        let resize = |pages| vec![Action::ResizeCache { pages }];
        let mut t = OnlineCacheTuner::new(256);
        // Below a 10 % windowed hit ratio it doubles, above 60 % it
        // halves, and in between it holds.
        assert_eq!(observe(&mut t, &[(100, 9)]), resize(512));
        assert_eq!(observe(&mut t, &[(100, 10), (100, 60)]), []);
        assert_eq!(observe(&mut t, &[(100, 61)]), resize(256));
        // A newest epoch under 0.25× the window's ratio flushes, ahead of
        // any resize.
        let collapse = [(100, 90), (100, 90), (100, 15)];
        assert_eq!(observe(&mut t, &collapse), [Action::FlushCache]);
        let dip = [(100, 90), (100, 90), (100, 17)];
        assert_eq!(observe(&mut t, &dip), resize(128));
        // No accesses, no action.
        assert_eq!(observe(&mut t, &[(0, 0), (0, 0)]), []);
        // Clamped at 1 Mi pages and at 64.
        let mut t = OnlineCacheTuner::new((1 << 20) - 1);
        assert_eq!(observe(&mut t, &[(100, 0)]), resize(1 << 20));
        assert_eq!(observe(&mut t, &[(100, 0)]), []);
        let mut t = OnlineCacheTuner::new(128);
        assert_eq!(observe(&mut t, &[(100, 100)]), resize(64));
        assert_eq!(observe(&mut t, &[(100, 100)]), []);
    }
}
