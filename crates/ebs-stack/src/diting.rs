//! DiTing: the distributed tracer (§2.3).
//!
//! DiTing assembles per-IO trace records — block-layer info, the stack
//! entities the IO traversed, and the five-stage latency breakdown. In
//! production DiTing also performs the 1/3200 sampling; in this
//! reproduction the workload generator already emits the sampled stream,
//! so the tracer's job is record assembly and ids.

use crate::route::Route;
use ebs_core::ids::TraceId;
use ebs_core::io::IoEvent;
use ebs_core::topology::Fleet;
use ebs_core::trace::{StageLatency, TraceRecord};

/// Trace-record assembler with monotonically increasing trace ids.
#[derive(Clone, Debug, Default)]
pub struct Diting {
    next_id: u64,
}

impl Diting {
    /// Fresh tracer starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assemble the trace record for an IO whose route (worker thread,
    /// segment, BlockServer, storage node) is already resolved — see
    /// [`crate::route::RoutePlan`].
    pub fn record(
        &mut self,
        fleet: &Fleet,
        ev: &IoEvent,
        route: Route,
        lat: StageLatency,
    ) -> TraceRecord {
        let id = TraceId(self.next_id);
        self.next_id += 1;
        let vd = &fleet.vds[ev.vd];
        TraceRecord {
            id,
            t_us: ev.t_us,
            op: ev.op,
            size: ev.size,
            offset: ev.offset,
            qp: ev.qp,
            vd: ev.vd,
            vm: vd.vm,
            cn: fleet.vms[vd.vm].cn,
            wt: route.wt,
            seg: route.seg,
            bs: route.bs,
            sn: route.sn,
            lat,
        }
    }

    /// Number of records issued so far.
    pub fn issued(&self) -> u64 {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::apps::AppClass;
    use ebs_core::ids::{BsId, QpId, WtId};
    use ebs_core::io::Op;
    use ebs_core::spec::VdTier;
    use ebs_core::topology::FleetBuilder;
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

    /// Resolve `ev`'s route in `f` onto worker thread `wt` and BS 0.
    fn route(f: &Fleet, ev: &IoEvent, wt: WtId) -> Route {
        let bs = BsId(0);
        Route {
            wt,
            cn: f.cn_of_qp(ev.qp),
            seg: f.segment_at(ev.vd, ev.offset).unwrap(),
            bs,
            sn: f.block_servers[bs].sn,
        }
    }

    #[test]
    fn record_fills_stack_entities() {
        let f = fleet();
        let mut d = Diting::new();
        let ev = IoEvent {
            t_us: 123,
            vd: ebs_core::ids::VdId(0),
            qp: QpId(0),
            op: Op::Write,
            size: 4096,
            offset: 40 * GIB,
        };
        let r = d.record(&f, &ev, route(&f, &ev, WtId(2)), StageLatency::default());
        assert_eq!(r.id, TraceId(0));
        assert_eq!(r.seg.0, 1); // 40 GiB falls in segment 1
        assert_eq!(r.sn.0, 0);
        assert_eq!(r.cn.0, 0);
        assert_eq!(d.issued(), 1);
    }

    #[test]
    fn ids_are_monotone() {
        let f = fleet();
        let mut d = Diting::new();
        let ev = IoEvent {
            t_us: 0,
            vd: ebs_core::ids::VdId(0),
            qp: QpId(0),
            op: Op::Read,
            size: 512,
            offset: 0,
        };
        let a = d.record(&f, &ev, route(&f, &ev, WtId(0)), StageLatency::default());
        let b = d.record(&f, &ev, route(&f, &ev, WtId(0)), StageLatency::default());
        assert!(b.id > a.id);
    }
}
