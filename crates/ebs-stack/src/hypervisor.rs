//! The hypervisor model: polling worker threads with QP bindings.
//!
//! Each compute node runs `wt_count` worker threads pinned to cores; each
//! VD queue pair is statically bound to exactly one WT ("single-WT
//! hosting", §2.2). A WT is a single server: IOs bound to it queue when it
//! is busy. The simulator uses that queueing delay as the compute-node
//! share of end-to-end latency, which is what makes WT-level skew visible
//! in tail latency.
//!
//! The QP→WT [`Binding`] is a slot permutation, so the rebinders' move —
//! swap two WTs' QP sets, tens of thousands of times per run — costs O(1)
//! instead of a scan over every QP.

use ebs_core::ids::{QpId, WtId};
use ebs_core::topology::Fleet;

/// Mutable QP→WT binding table, initialised from the fleet's round-robin
/// attach-time binding. Rebinding algorithms (`ebs-balance::wt_rebind`,
/// the serve loop's `SwapWts` action) swap whole WTs many times per run,
/// so a swap must not touch every QP.
///
/// The table is a two-level map. Each QP holds a *slot*, which starts as
/// its attach-time WT; a permutation maps each slot to the WT serving it,
/// and its inverse maps each WT back to its slot. The invariant is
/// `wt_at[slot_of[w]] == w` for every WT `w`, and a QP's WT is
/// `wt_at[slot[qp]]`. Swapping two WTs' QP sets exchanges two entries of
/// each permutation (O(1)). Slots cover every fleet WT and every WT the
/// attach-time binding names, so every QP's WT stays inside the table.
#[derive(Clone, Debug)]
pub struct Binding {
    /// Each QP's slot, indexed by [`QpId`].
    slot: Vec<u32>,
    /// Slot → the WT serving it.
    wt_at: Vec<WtId>,
    /// WT → its slot (the inverse of `wt_at`).
    slot_of: Vec<u32>,
}

impl Binding {
    /// The fleet's attach-time round-robin binding.
    pub fn from_fleet(fleet: &Fleet) -> Self {
        let slot: Vec<u32> = fleet.qp_binding.iter().map(|wt| wt.0).collect();
        let wts = slot
            .iter()
            .map(|&s| s.saturating_add(1))
            .fold(fleet.wt_total, u32::max);
        Self {
            slot,
            wt_at: (0..wts).map(WtId).collect(),
            slot_of: (0..wts).collect(),
        }
    }

    /// The worker thread currently serving `qp`; `None` if `qp` is not a
    /// fleet QP.
    pub fn wt_of(&self, qp: QpId) -> Option<WtId> {
        let &slot = self.slot.get(qp.index())?;
        self.wt_at.get(slot as usize).copied()
    }

    /// Swap the QP sets of two worker threads on the same node (the rebind
    /// simulator's move, §4.3) in O(1). A WT outside the table serves no
    /// QP, and a swap with it is a no-op: moving QPs onto it would strand
    /// them on a WT the fleet does not have.
    pub fn swap_wts(&mut self, a: WtId, b: WtId) {
        let (Some(&sa), Some(&sb)) = (self.slot_of.get(a.index()), self.slot_of.get(b.index()))
        else {
            return;
        };
        self.slot_of.swap(a.index(), b.index());
        if let Some(wt) = self.wt_at.get_mut(sa as usize) {
            *wt = b;
        }
        if let Some(wt) = self.wt_at.get_mut(sb as usize) {
            *wt = a;
        }
    }
}

/// Single-server queueing state of all worker threads: for each WT, the
/// time at which it becomes free. Events must be offered in non-decreasing
/// arrival order.
#[derive(Clone, Debug)]
pub struct WtQueues {
    free_at_us: Vec<f64>,
}

impl WtQueues {
    /// Queues for `wt_total` worker threads, all initially idle.
    pub fn new(wt_total: u32) -> Self {
        Self {
            free_at_us: vec![0.0; wt_total as usize],
        }
    }

    /// Serve one IO arriving at `arrival_us` on `wt` with service time
    /// `service_us`. Returns the queueing delay (time spent waiting for the
    /// WT, excluding service).
    pub fn serve(&mut self, wt: WtId, arrival_us: f64, service_us: f64) -> f64 {
        let free = &mut self.free_at_us[wt.index()];
        let start = free.max(arrival_us);
        let wait = start - arrival_us;
        *free = start + service_us;
        wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::apps::AppClass;
    use ebs_core::spec::VdTier;
    use ebs_core::topology::FleetBuilder;
    use ebs_core::units::GIB;

    fn fleet() -> Fleet {
        let mut b = FleetBuilder::new();
        let dc = b.add_dc("DC-1");
        let sn = b.add_sn(dc);
        b.add_bs(sn);
        let u = b.add_user();
        let cn = b.add_cn(dc, 2, false);
        let vm = b.add_vm(cn, u, AppClass::Database);
        b.add_vd(vm, VdTier::Performance.spec(64 * GIB)); // 4 QPs → wt 0,1,0,1
        b.finish().unwrap()
    }

    /// Number of `f`'s QPs that `b` binds to `wt`.
    fn qp_count(f: &Fleet, b: &Binding, wt: WtId) -> usize {
        (0..f.qps.len() as u32)
            .filter(|&q| b.wt_of(QpId(q)) == Some(wt))
            .count()
    }

    #[test]
    fn binding_starts_round_robin() {
        let f = fleet();
        let b = Binding::from_fleet(&f);
        assert_eq!(b.wt_of(QpId(0)), Some(WtId(0)));
        assert_eq!(b.wt_of(QpId(1)), Some(WtId(1)));
        assert_eq!(b.wt_of(QpId(2)), Some(WtId(0)));
        assert_eq!(qp_count(&f, &b, WtId(0)), 2);
    }

    #[test]
    fn swap_exchanges_qp_sets() {
        let f = fleet();
        let mut b = Binding::from_fleet(&f);
        b.swap_wts(WtId(0), WtId(1));
        assert_eq!(b.wt_of(QpId(0)), Some(WtId(1)));
        assert_eq!(b.wt_of(QpId(1)), Some(WtId(0)));
        assert_eq!(qp_count(&f, &b, WtId(0)), 2);
        assert_eq!(qp_count(&f, &b, WtId(1)), 2);
    }

    /// The per-swap scan table `Binding` replaced: the oracle for the
    /// slot/permutation table.
    struct ScanBinding {
        map: Vec<WtId>,
    }

    impl ScanBinding {
        fn swap_wts(&mut self, a: WtId, b: WtId) {
            for wt in self.map.iter_mut() {
                if *wt == a {
                    *wt = b;
                } else if *wt == b {
                    *wt = a;
                }
            }
        }

        fn qp_count_of(&self, wt: WtId) -> usize {
            self.map.iter().filter(|&&w| w == wt).count()
        }
    }

    /// Three nodes of 1, 3 and 5 WTs, each hosting VDs of several sizes.
    fn multi_node_fleet() -> Fleet {
        let mut b = FleetBuilder::new();
        let dc = b.add_dc("DC-1");
        let sn = b.add_sn(dc);
        b.add_bs(sn);
        let u = b.add_user();
        for wts in [1, 3, 5] {
            let cn = b.add_cn(dc, wts, false);
            for gib in [16, 64, 256] {
                let vm = b.add_vm(cn, u, AppClass::Database);
                b.add_vd(vm, VdTier::Performance.spec(gib * GIB));
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn permutation_table_matches_the_scan_table() {
        let f = multi_node_fleet();
        let nodes: Vec<(u32, u32)> = f
            .compute_nodes
            .iter()
            .map(|n| (n.wt_base, n.wt_count as u32))
            .collect();
        let qps = f.qps.len();
        for seed in 0..8 {
            let mut rng = ebs_core::rng::SimRng::seed_from_u64(seed);
            let mut fast = Binding::from_fleet(&f);
            let mut scan = ScanBinding {
                map: f.qp_binding.iter().copied().collect(),
            };
            for _ in 0..400 {
                // `a == b` included: single-WT nodes always draw it.
                let &(base, count) = rng.choose(&nodes);
                let a = WtId(base + rng.below(count as u64) as u32);
                let b = WtId(base + rng.below(count as u64) as u32);
                fast.swap_wts(a, b);
                scan.swap_wts(a, b);
                for (i, &wt) in scan.map.iter().enumerate() {
                    assert_eq!(fast.wt_of(QpId(i as u32)), Some(wt));
                }
                assert_eq!(fast.wt_of(QpId(qps as u32)), None);
                assert_eq!(fast.wt_of(QpId(u32::MAX)), None);
                for w in 0..f.wt_total {
                    assert_eq!(qp_count(&f, &fast, WtId(w)), scan.qp_count_of(WtId(w)));
                }
            }
        }
    }

    #[test]
    fn swapping_with_a_wt_outside_the_fleet_is_a_no_op() {
        let f = fleet();
        let mut b = Binding::from_fleet(&f);
        b.swap_wts(WtId(0), WtId(f.wt_total));
        b.swap_wts(WtId(u32::MAX), WtId(1));
        assert_eq!(b.wt_of(QpId(0)), Some(WtId(0)));
        assert_eq!(b.wt_of(QpId(1)), Some(WtId(1)));
        assert_eq!(qp_count(&f, &b, WtId(f.wt_total)), 0);
    }

    #[test]
    fn queueing_accumulates_under_load() {
        let mut q = WtQueues::new(1);
        // Three back-to-back IOs, each 10 µs of service, arriving together.
        assert_eq!(q.serve(WtId(0), 100.0, 10.0), 0.0);
        assert_eq!(q.serve(WtId(0), 100.0, 10.0), 10.0);
        assert_eq!(q.serve(WtId(0), 100.0, 10.0), 20.0);
        assert_eq!(q.serve(WtId(0), 100.0, 10.0), 30.0);
    }

    #[test]
    fn idle_wt_serves_immediately() {
        let mut q = WtQueues::new(2);
        q.serve(WtId(0), 0.0, 50.0);
        // Different WT: no interference.
        assert_eq!(q.serve(WtId(1), 10.0, 5.0), 0.0);
        // Same WT after it drained: no wait.
        assert_eq!(q.serve(WtId(0), 100.0, 5.0), 0.0);
    }
}
