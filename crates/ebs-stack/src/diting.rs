//! DiTing: the distributed tracer (§2.3).
//!
//! DiTing assembles per-IO trace records — block-layer info, the stack
//! entities the IO traversed, and the five-stage latency breakdown. In
//! production DiTing also performs the 1/3200 sampling; in this
//! reproduction the workload generator already emits the sampled stream,
//! and the simulator emits only the latency column, so the tracer's job
//! is record assembly and ids: [`assemble`] joins the events, their
//! routes and their latencies, for the callers that read records.

use crate::route::RoutePlan;
use crate::sim::SimOutput;
use ebs_core::error::EbsError;
use ebs_core::ids::TraceId;
use ebs_core::io::IoEvent;
use ebs_core::topology::Fleet;
use ebs_core::trace::{TraceRecord, TraceSet};

/// Assemble the trace records of one simulated slice: `events` routed by
/// `plan` (the plan the slice was simulated under) with `out`'s latency
/// column. Records carry ids `out.first_id..`, in event order, which is
/// time order, so the set is never re-sorted.
///
/// Fails when the three columns differ in length or an event's VD or VM
/// is not in `fleet`.
pub fn assemble(
    fleet: &Fleet,
    events: &[IoEvent],
    plan: &RoutePlan,
    out: &SimOutput,
) -> Result<TraceSet, EbsError> {
    if plan.len() != events.len() || out.lat.len() != events.len() {
        return Err(EbsError::invalid_config(
            "events, route plan and latency column differ in length",
        ));
    }
    let mut records = Vec::with_capacity(events.len());
    let rows = events.iter().zip(plan.routes()).zip(&out.lat);
    for (id, ((ev, route), &lat)) in (out.first_id..).zip(rows) {
        let vm = fleet
            .vds
            .get(ev.vd)
            .map(|vd| vd.vm)
            .ok_or_else(|| EbsError::unknown_entity(format!("{} not in fleet", ev.vd)))?;
        let cn = fleet
            .vms
            .get(vm)
            .map(|m| m.cn)
            .ok_or_else(|| EbsError::unknown_entity(format!("{vm} not in fleet")))?;
        records.push(TraceRecord {
            id: TraceId(id),
            t_us: ev.t_us,
            op: ev.op,
            size: ev.size,
            offset: ev.offset,
            qp: ev.qp,
            vd: ev.vd,
            vm,
            cn,
            wt: route.wt,
            seg: route.seg,
            bs: route.bs,
            sn: route.sn,
            lat,
        });
    }
    Ok(TraceSet::from_records(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimStats, StackConfig, StackSim};
    use ebs_core::apps::AppClass;
    use ebs_core::ids::{QpId, VdId};
    use ebs_core::io::Op;
    use ebs_core::spec::VdTier;
    use ebs_core::topology::FleetBuilder;
    use ebs_core::trace::StageLatency;
    use ebs_core::units::GIB;

    fn fleet() -> Fleet {
        let mut b = FleetBuilder::new();
        let dc = b.add_dc("DC-1");
        let sn = b.add_sn(dc);
        b.add_bs(sn);
        let u = b.add_user();
        let cn = b.add_cn(dc, 4, false);
        let vm = b.add_vm(cn, u, AppClass::WebApp);
        b.add_vd(vm, VdTier::Standard.spec(64 * GIB));
        b.finish().unwrap()
    }

    fn event(t_us: u64, offset: u64) -> IoEvent {
        IoEvent {
            t_us,
            vd: VdId(0),
            qp: QpId(0),
            op: Op::Write,
            size: 4096,
            offset,
        }
    }

    /// `events`' plan under the fleet's initial binding, and a latency
    /// column numbered from `first_id`.
    fn simulated(f: &Fleet, events: &[IoEvent], first_id: u64) -> (RoutePlan, SimOutput) {
        let plan = StackSim::new(f, StackConfig::default())
            .plan(events)
            .unwrap();
        let out = SimOutput {
            lat: vec![StageLatency::default(); events.len()],
            first_id,
            stats: SimStats::default(),
        };
        (plan, out)
    }

    #[test]
    fn records_fill_stack_entities_and_number_from_first_id() {
        let f = fleet();
        let events = [event(123, 40 * GIB), event(124, 0)];
        let (plan, out) = simulated(&f, &events, 7);
        let set = assemble(&f, &events, &plan, &out).unwrap();
        let r = set.records();
        assert_eq!(r.len(), 2);
        assert_eq!((r[0].id, r[1].id), (TraceId(7), TraceId(8)));
        assert_eq!(r[0].seg.0, 1); // 40 GiB falls in segment 1
        assert_eq!(r[1].seg.0, 0);
        assert_eq!((r[0].sn.0, r[0].cn.0, r[0].vm.0), (0, 0, 0));
        assert_eq!(r[0].wt, plan.routes()[0].wt);
    }

    #[test]
    fn mismatched_columns_are_an_error_not_a_panic() {
        let f = fleet();
        let events = [event(1, 0), event(2, 0)];
        let (plan, mut out) = simulated(&f, &events, 0);
        out.lat.pop();
        assert!(assemble(&f, &events, &plan, &out).is_err());
        let (short, _) = simulated(&f, &events[..1], 0);
        assert!(assemble(&f, &events, &short, &out).is_err());
    }
}
