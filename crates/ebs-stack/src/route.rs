//! Precomputed per-event routing, resolved once per event slice.
//!
//! Routing an IO — QP → worker thread, QP → compute node, (VD, offset) →
//! segment → BlockServer → storage node — depends only on the fleet, the
//! QP binding, and the segment placement, never on simulator
//! configuration. [`RoutePlan`] resolves it once for a whole event slice
//! into one [`Route`] per event that every simulation run *borrows*:
//! config sweeps that keep the binding and segment map fixed share one
//! plan instead of re-running `segment_at` per event per config point.
//!
//! This module is in the ebs-lint D3 *total* set: it must never panic, so
//! every lookup is `get`-based and malformed input surfaces as
//! [`EbsError`].

use crate::hypervisor::Binding;
use crate::segment::SegmentMap;
use ebs_core::error::EbsError;
use ebs_core::ids::{BsId, CnId, SegId, SnId, WtId};
use ebs_core::io::IoEvent;
use ebs_core::topology::Fleet;
use ebs_core::units::SEGMENT_BYTES;

/// Validate that `events` are in non-decreasing time order.
///
/// The simulator's state machines (WT queues, token buckets, link EWMAs)
/// require it; hoisting the O(n) scan here lets callers that run one
/// slice under several configs validate it once instead of once per run.
pub fn ensure_time_sorted(events: &[IoEvent]) -> Result<(), EbsError> {
    let sorted = events
        .iter()
        .zip(events.iter().skip(1))
        .all(|(a, b)| a.t_us <= b.t_us);
    if sorted {
        Ok(())
    } else {
        Err(EbsError::invalid_config("events must be time-sorted"))
    }
}

/// The five stack entities one IO traverses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Worker thread (hypervisor binding).
    pub wt: WtId,
    /// Compute node (frontend uplink).
    pub cn: CnId,
    /// Segment (BlockServer address translation).
    pub seg: SegId,
    /// BlockServer (current segment placement).
    pub bs: BsId,
    /// Storage node (backend link + ChunkServer).
    pub sn: SnId,
}

/// Routing table: one [`Route`] per event. Built once per (fleet,
/// binding, segment map); borrowed by every run over the slice.
#[derive(Clone, Debug)]
pub struct RoutePlan {
    routes: Vec<Route>,
}

impl RoutePlan {
    /// Resolve routing for `events` (must be time-sorted) under `binding`
    /// and `seg_map`.
    pub fn build(
        fleet: &Fleet,
        binding: &Binding,
        seg_map: &SegmentMap,
        events: &[IoEvent],
    ) -> Result<Self, EbsError> {
        ensure_time_sorted(events)?;
        let mut routes = Vec::with_capacity(events.len());
        let homes = seg_map.as_slice();
        for ev in events {
            let wt = binding
                .wt_of(ev.qp)
                .ok_or_else(|| EbsError::unknown_entity(format!("{} has no WT binding", ev.qp)))?;
            let vm = fleet
                .qps
                .get(ev.qp)
                .and_then(|q| fleet.vds.get(q.vd))
                .map(|d| d.vm)
                .ok_or_else(|| EbsError::unknown_entity(format!("{} not in fleet", ev.qp)))?;
            let cn = fleet
                .vms
                .get(vm)
                .map(|m| m.cn)
                .ok_or_else(|| EbsError::unknown_entity(format!("{vm} not in fleet")))?;
            let vd = fleet
                .vds
                .get(ev.vd)
                .ok_or_else(|| EbsError::unknown_entity(format!("{} not in fleet", ev.vd)))?;
            let seg_base = vd.seg_base;
            if ev.offset >= vd.spec.capacity_bytes {
                return Err(EbsError::unknown_entity(format!(
                    "offset {} in {}",
                    ev.offset, ev.vd
                )));
            }
            let seg = SegId(seg_base + (ev.offset / SEGMENT_BYTES) as u32);
            let bs = homes.get(seg.index()).copied().ok_or_else(|| {
                EbsError::unknown_entity(format!("{seg} has no home BlockServer"))
            })?;
            let sn = fleet
                .block_servers
                .get(bs)
                .map(|b| b.sn)
                .ok_or_else(|| EbsError::unknown_entity(format!("{bs} not in fleet")))?;
            routes.push(Route {
                wt,
                cn,
                seg,
                bs,
                sn,
            });
        }
        Ok(Self { routes })
    }

    /// Number of routed events.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the plan covers no events.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Per-event routes, in event order.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }
}
