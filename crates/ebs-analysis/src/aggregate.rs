//! Rolling per-QP / per-segment metric data up the entity hierarchy.
//!
//! Table 3 aggregates traffic at the compute-node, VM, storage-node, and
//! segment levels; §4 needs worker-thread and VD levels, §6 the BlockServer
//! level. This module maps every base series (QP or segment) to its owning
//! entity at the requested level and sums, producing either per-entity
//! totals (for CCR) or per-entity dense time series (for P2A / CoV).

use ebs_core::ids::{BsId, QpId, SegId};
use ebs_core::metric::{ComputeMetrics, Measure, StorageMetrics};
use ebs_core::topology::Fleet;

/// Aggregation levels reachable from the compute-domain (per-QP) metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ComputeLevel {
    /// Queue pair (no aggregation).
    Qp,
    /// Hypervisor worker thread (via the fleet's QP→WT binding).
    Wt,
    /// Virtual disk.
    Vd,
    /// Virtual machine.
    Vm,
    /// Compute node.
    Cn,
    /// Tenant.
    User,
}

/// Aggregation levels reachable from the storage-domain (per-segment)
/// metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StorageLevel {
    /// Segment (no aggregation).
    Seg,
    /// BlockServer (via a segment→BS placement map).
    Bs,
    /// Storage node (via the BlockServer's host).
    Sn,
}

/// The result of a roll-up: one entry per entity that had at least one kept
/// base series, sorted by entity key.
#[derive(Clone, Debug)]
pub struct Rollup {
    /// `(entity index at the chosen level, dense per-tick series)`.
    pub series: Vec<(usize, Vec<f64>)>,
}

impl Rollup {
    /// Window-total traffic per entity (sum of each dense series).
    pub fn totals(&self) -> Vec<f64> {
        self.series.iter().map(|(_, s)| s.iter().sum()).collect()
    }

    /// Just the dense series, entity order preserved.
    pub fn dense(&self) -> Vec<&[f64]> {
        self.series.iter().map(|(_, s)| s.as_slice()).collect()
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether no entity had traffic-bearing series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Series for one entity key, if present.
    pub fn get(&self, key: usize) -> Option<&[f64]> {
        self.series
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| self.series[i].1.as_slice())
    }
}

/// Entity key of `qp` at `level`.
pub fn compute_key(fleet: &Fleet, level: ComputeLevel, qp: QpId) -> usize {
    match level {
        ComputeLevel::Qp => qp.index(),
        ComputeLevel::Wt => fleet.qp_binding[qp].index(),
        ComputeLevel::Vd => fleet.qps[qp].vd.index(),
        ComputeLevel::Vm => fleet.vm_of_qp(qp).index(),
        ComputeLevel::Cn => fleet.cn_of_qp(qp).index(),
        ComputeLevel::User => fleet.vms[fleet.vm_of_qp(qp)].user.index(),
    }
}

/// Entity key of `seg` at `level`, under the placement `seg_home`
/// (`None` = the fleet's initial placement).
pub fn storage_key(
    fleet: &Fleet,
    level: StorageLevel,
    seg: SegId,
    seg_home: Option<&[BsId]>,
) -> usize {
    let home = |s: SegId| -> BsId {
        match seg_home {
            Some(map) => map[s.index()],
            None => fleet.seg_home[s],
        }
    };
    match level {
        StorageLevel::Seg => seg.index(),
        StorageLevel::Bs => home(seg).index(),
        StorageLevel::Sn => fleet.block_servers[home(seg)].sn.index(),
    }
}

/// Roll compute-domain metrics up to `level`, keeping only QPs for which
/// `keep` returns true (e.g. one data center). Entities appear only if at
/// least one of their kept QPs has traffic.
pub fn rollup_compute(
    fleet: &Fleet,
    metrics: &ComputeMetrics,
    level: ComputeLevel,
    measure: Measure,
    keep: impl Fn(QpId) -> bool,
) -> Rollup {
    let ticks = metrics.ticks.ticks as usize;
    let mut map: std::collections::BTreeMap<usize, Vec<f64>> = std::collections::BTreeMap::new();
    for (i, series) in metrics.per_qp.iter().enumerate() {
        let qp = QpId::from_index(i);
        if series.is_empty() || !keep(qp) {
            continue;
        }
        let key = compute_key(fleet, level, qp);
        let acc = map.entry(key).or_insert_with(|| vec![0.0; ticks]);
        series.accumulate_into(acc, measure);
    }
    Rollup {
        series: map.into_iter().collect(),
    }
}

/// Roll storage-domain metrics up to `level`, keeping only segments for
/// which `keep` returns true, under an optional segment→BS placement map.
pub fn rollup_storage(
    fleet: &Fleet,
    metrics: &StorageMetrics,
    level: StorageLevel,
    measure: Measure,
    seg_home: Option<&[BsId]>,
    keep: impl Fn(SegId) -> bool,
) -> Rollup {
    let ticks = metrics.ticks.ticks as usize;
    let mut map: std::collections::BTreeMap<usize, Vec<f64>> = std::collections::BTreeMap::new();
    for (i, series) in metrics.per_seg.iter().enumerate() {
        let seg = SegId::from_index(i);
        if series.is_empty() || !keep(seg) {
            continue;
        }
        let key = storage_key(fleet, level, seg, seg_home);
        let acc = map.entry(key).or_insert_with(|| vec![0.0; ticks]);
        series.accumulate_into(acc, measure);
    }
    Rollup {
        series: map.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::apps::AppClass;
    use ebs_core::metric::{Flow, Series};
    use ebs_core::spec::VdTier;
    use ebs_core::time::TickSpec;
    use ebs_core::topology::FleetBuilder;
    use ebs_core::units::GIB;

    fn fleet_and_metrics() -> (Fleet, ComputeMetrics, StorageMetrics) {
        let mut b = FleetBuilder::new();
        let dc = b.add_dc("DC-1");
        let sn = b.add_sn(dc);
        b.add_bs(sn);
        b.add_bs(sn);
        let user = b.add_user();
        let cn = b.add_cn(dc, 2, false);
        let vm = b.add_vm(cn, user, AppClass::Database);
        b.add_vd(vm, VdTier::Performance.spec(100 * GIB)); // 4 QPs, 4 segs
        let fleet = b.finish().unwrap();
        let ticks = TickSpec::new(1.0, 4);
        let mut cm = ComputeMetrics::empty(ticks, fleet.qps.len());
        // One read sample of `rb` bytes at `tick`.
        let read = |tick: u32, rb: f64| {
            let flow = Flow {
                bytes: rb,
                ops: 1.0,
            };
            Series::from_sides([(tick, flow)], []).unwrap()
        };
        cm.per_qp[QpId(0)] = read(0, 10.0);
        cm.per_qp[QpId(1)] = read(1, 20.0);
        cm.per_qp[QpId(2)] = read(1, 30.0);
        let mut sm = StorageMetrics::empty(ticks, fleet.segments.len());
        sm.per_seg[SegId(0)] = read(0, 5.0);
        sm.per_seg[SegId(1)] = read(2, 7.0);
        (fleet, cm, sm)
    }

    #[test]
    fn qp_level_is_identity() {
        let (fleet, cm, _) = fleet_and_metrics();
        let r = rollup_compute(&fleet, &cm, ComputeLevel::Qp, Measure::ReadBytes, |_| true);
        assert_eq!(r.len(), 3); // QP 3 had no traffic
        assert_eq!(r.totals(), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn wt_level_folds_round_robin_binding() {
        let (fleet, cm, _) = fleet_and_metrics();
        // 4 QPs round-robin onto 2 WTs: qp0,qp2 → wt0; qp1,qp3 → wt1.
        let r = rollup_compute(&fleet, &cm, ComputeLevel::Wt, Measure::ReadBytes, |_| true);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0).unwrap(), &[10.0, 30.0, 0.0, 0.0]);
        assert_eq!(r.get(1).unwrap(), &[0.0, 20.0, 0.0, 0.0]);
    }

    #[test]
    fn vm_level_sums_everything() {
        let (fleet, cm, _) = fleet_and_metrics();
        let r = rollup_compute(&fleet, &cm, ComputeLevel::Vm, Measure::ReadBytes, |_| true);
        assert_eq!(r.len(), 1);
        assert_eq!(r.totals(), vec![60.0]);
    }

    #[test]
    fn keep_filter_restricts() {
        let (fleet, cm, _) = fleet_and_metrics();
        let r = rollup_compute(&fleet, &cm, ComputeLevel::Qp, Measure::ReadBytes, |qp| {
            qp.index() != 1
        });
        assert_eq!(r.totals(), vec![10.0, 30.0]);
    }

    #[test]
    fn storage_levels_follow_placement() {
        let (fleet, _, sm) = fleet_and_metrics();
        let r = rollup_storage(
            &fleet,
            &sm,
            StorageLevel::Bs,
            Measure::ReadBytes,
            None,
            |_| true,
        );
        // seg0 → bs0, seg1 → bs1 (round-robin placement).
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0).unwrap(), &[5.0, 0.0, 0.0, 0.0]);
        assert_eq!(r.get(1).unwrap(), &[0.0, 0.0, 7.0, 0.0]);
        // Override placement: both segments on bs1.
        let map = vec![BsId(1), BsId(1), BsId(0), BsId(0), BsId(1), BsId(0)];
        let r = rollup_storage(
            &fleet,
            &sm,
            StorageLevel::Bs,
            Measure::ReadBytes,
            Some(&map),
            |_| true,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.totals(), vec![12.0]);
    }

    #[test]
    fn sn_level_uses_bs_host() {
        let (fleet, _, sm) = fleet_and_metrics();
        let r = rollup_storage(
            &fleet,
            &sm,
            StorageLevel::Sn,
            Measure::ReadBytes,
            None,
            |_| true,
        );
        assert_eq!(r.len(), 1); // both BSs are on the single SN
        assert_eq!(r.totals(), vec![12.0]);
    }
}
