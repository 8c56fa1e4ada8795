//! Property tests pinning [`ebs_stack::RoutePlan`] to the per-event
//! resolution it replaces: for every event of a generated fleet, the
//! plan's route must equal what `Binding::wt_of`, `Fleet::cn_of_qp`,
//! `Fleet::segment_at`, the segment map, and `Fleet::sn_of_seg` would
//! have produced one call at a time, and it must be consistent with the
//! fleet topology.

use ebs_stack::{Binding, RoutePlan, SegmentMap};
use ebs_workload::{generate, WorkloadConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Column-for-column agreement with the scalar accessors, and each
    /// route's entities nest as the topology does: the WT belongs to the
    /// route's CN, that CN hosts the VM of the event's VD, and the BS sits
    /// on the route's SN.
    #[test]
    fn plan_matches_scalar_resolution(seed in 0u64..1000) {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let binding = Binding::from_fleet(&ds.fleet);
        let seg_map = SegmentMap::from_fleet(&ds.fleet);
        let plan = RoutePlan::build(&ds.fleet, &binding, &seg_map, &ds.events).unwrap();
        prop_assert_eq!(plan.len(), ds.events.len());
        for (i, ev) in ds.events.iter().enumerate() {
            let seg = ds.fleet.segment_at(ev.vd, ev.offset).unwrap();
            let r = plan.routes()[i];
            prop_assert_eq!(Some(r.wt), binding.wt_of(ev.qp));
            prop_assert_eq!(r.cn, ds.fleet.cn_of_qp(ev.qp));
            prop_assert_eq!(r.seg, seg);
            prop_assert_eq!(r.bs, seg_map.as_slice()[seg.index()]);
            prop_assert_eq!(r.sn, ds.fleet.sn_of_seg(seg));
            prop_assert_eq!(ds.fleet.cn_of_wt(r.wt), r.cn);
            prop_assert_eq!(ds.fleet.vms[ds.fleet.vds[ev.vd].vm].cn, r.cn);
            prop_assert_eq!(ds.fleet.block_servers[r.bs].sn, r.sn);
        }
    }

    /// A plan built for any sub-slice (the serve loop plans one epoch at
    /// a time) equals the same rows of the whole-stream plan.
    #[test]
    fn slice_plans_match_whole_stream_rows(seed in 0u64..1000, a in 0usize..10_000, b in 0usize..10_000) {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let binding = Binding::from_fleet(&ds.fleet);
        let seg_map = SegmentMap::from_fleet(&ds.fleet);
        let whole = RoutePlan::build(&ds.fleet, &binding, &seg_map, &ds.events).unwrap();
        let n = ds.events.len();
        let (lo, hi) = ((a % (n + 1)).min(b % (n + 1)), (a % (n + 1)).max(b % (n + 1)));
        let part = RoutePlan::build(&ds.fleet, &binding, &seg_map, &ds.events[lo..hi]).unwrap();
        prop_assert_eq!(part.routes(), &whole.routes()[lo..hi]);
    }

    /// Swapping two out-of-order timestamps must be rejected with a
    /// typed error.
    #[test]
    fn unsorted_events_are_rejected(seed in 0u64..1000, pivot in 1usize..64) {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let mut events = ds.events.clone();
        let pivot = pivot % (events.len() - 1) + 1;
        // Force a strict inversion at the pivot.
        events[pivot - 1].t_us = events[pivot].t_us + 1;
        let binding = Binding::from_fleet(&ds.fleet);
        let seg_map = SegmentMap::from_fleet(&ds.fleet);
        let err = RoutePlan::build(&ds.fleet, &binding, &seg_map, &events).unwrap_err();
        prop_assert!(err.to_string().contains("time-sorted"));
    }

    /// An offset past the VD's capacity surfaces as an error, never a
    /// panic (route is in the lint D3 total set).
    #[test]
    fn out_of_capacity_offsets_are_rejected(seed in 0u64..1000) {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let mut events = ds.events.clone();
        let last = events.len() - 1;
        let vd = events[last].vd;
        let spec = &ds.fleet.vds[vd].spec;
        events[last].offset = spec.capacity_bytes;
        let binding = Binding::from_fleet(&ds.fleet);
        let seg_map = SegmentMap::from_fleet(&ds.fleet);
        let err = RoutePlan::build(&ds.fleet, &binding, &seg_map, &events).unwrap_err();
        prop_assert!(err.to_string().contains("offset"));
    }
}

/// Deterministic (non-property) pin: one plan serves many simulator runs.
#[test]
fn one_plan_serves_many_runs() {
    use ebs_stack::sim::{StackConfig, StackSim};
    let ds = generate(&WorkloadConfig::quick(41)).unwrap();
    let sim = StackSim::new(&ds.fleet, StackConfig::default());
    let plan = sim.plan(&ds.events).unwrap();
    let a = sim.run_planned(&ds.events, &plan).unwrap();
    let b = sim.run_planned(&ds.events, &plan).unwrap();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.lat, b.lat);
}
