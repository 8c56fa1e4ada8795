//! The preserved event-at-a-time simulator (differential oracle).
//!
//! [`ReferenceSim::run`] is the original `StackSim::run` per-event loop,
//! kept when the production simulator moved to the staged columnar
//! pipeline in [`crate::sim`]. It exists so differential tests
//! (and `bench --mode sim`) can pin the staged output byte-identical to
//! the straightforward formulation — the same pattern as the PR 3
//! reference kernels. Any behavioural change must land in both or the
//! differential test fails.

use crate::diting::Diting;
use crate::hypervisor::{Binding, WtQueues};
use crate::network::FabricModel;
use crate::segment::SegmentMap;
use crate::sim::{SimOutput, SimStats, StackConfig, StackObs};
use crate::throttle_gate::VdGate;
use ebs_core::error::EbsError;
use ebs_core::io::{IoEvent, Op};
use ebs_core::rng::RngFactory;
use ebs_core::topology::Fleet;
use ebs_core::trace::{StageLatency, TraceRecord, TraceSet};

/// The event-at-a-time simulator. One instance per run; identical
/// configuration surface to [`crate::sim::StackSim`].
pub struct ReferenceSim<'a> {
    fleet: &'a Fleet,
    config: StackConfig,
    binding: Binding,
    seg_map: SegmentMap,
}

impl<'a> ReferenceSim<'a> {
    /// A simulator over `fleet` with the fleet's initial QP binding and
    /// segment placement.
    pub fn new(fleet: &'a Fleet, config: StackConfig) -> Self {
        Self {
            fleet,
            config,
            binding: Binding::from_fleet(fleet),
            seg_map: SegmentMap::from_fleet(fleet),
        }
    }

    /// Replace the QP→WT binding (for rebinding experiments).
    pub fn with_binding(mut self, binding: Binding) -> Self {
        self.binding = binding;
        self
    }

    /// Replace the segment placement (for balancer experiments).
    pub fn with_segment_map(mut self, seg_map: SegmentMap) -> Self {
        self.seg_map = seg_map;
        self
    }

    /// Route `events` (must be time-sorted) through the stack, one event
    /// at a time.
    pub fn run(&mut self, events: &[IoEvent]) -> Result<SimOutput, EbsError> {
        if events.windows(2).any(|w| w[0].t_us > w[1].t_us) {
            return Err(EbsError::invalid_config("events must be time-sorted"));
        }
        let rngf = RngFactory::new(self.config.seed).child("stack");
        let mut rng = rngf.stream("latency");

        let mut queues = WtQueues::new(self.fleet.wt_total);
        let mut gates: Vec<Option<VdGate>> = if self.config.apply_throttle {
            self.fleet
                .vds
                .iter()
                .map(|vd| {
                    let mut spec = vd.spec;
                    spec.tput_cap *= self.config.throttle_scale;
                    spec.iops_cap *= self.config.throttle_scale;
                    Some(VdGate::for_spec(&spec))
                })
                .collect()
        } else {
            vec![None; self.fleet.vds.len()]
        };
        let mut fabric = FabricModel::new(
            self.fleet.compute_nodes.len(),
            self.fleet.storage_nodes.len(),
        );
        let mut diting = Diting::new();
        let mut records: Vec<TraceRecord> = Vec::with_capacity(events.len());
        let mut stats = SimStats::default();
        let mut total_latency = 0.0;
        let mut obs = ebs_obs::enabled().then(StackObs::new);

        for ev in events {
            let t = ev.t_us as f64;
            stats.ios += 1;

            // --- hypervisor: throttle, then WT queueing + service.
            let throttle_us = match &mut gates[ev.vd.index()] {
                Some(gate) => {
                    let d = gate.admit(t, ev.size);
                    if d > 0.0 {
                        stats.throttled += 1;
                    }
                    d
                }
                None => 0.0,
            };
            let wt = self.binding.wt_of(ev.qp);
            let service = self.config.latency.compute.sample(&mut rng, ev.size);
            let wait = queues.serve(wt, t + throttle_us, service);
            let compute_us = throttle_us + wait + service;

            // --- frontend network (plus uplink congestion).
            let cn = self.fleet.cn_of_qp(ev.qp);
            let congestion_f = if self.config.model_congestion {
                fabric.frontend_transfer(cn.index(), t, ev.size as f64)
            } else {
                1.0
            };
            let frontend_us = self.config.latency.frontend.sample(&mut rng, ev.size) * congestion_f;

            // --- BlockServer: map the segment to its home, forward.
            let seg = self.fleet.segment_at(ev.vd, ev.offset).ok_or_else(|| {
                EbsError::unknown_entity(format!("offset {} in {}", ev.offset, ev.vd))
            })?;
            let bs = self.seg_map.home_of(seg);
            let block_server_us = self.config.latency.block_server.sample(&mut rng, ev.size);

            // --- backend network + ChunkServer.
            let sn = self.fleet.block_servers[bs].sn;
            let congestion_b = if self.config.model_congestion {
                fabric.backend_transfer(sn.index(), t, ev.size as f64)
            } else {
                1.0
            };
            let backend_us = self.config.latency.backend.sample(&mut rng, ev.size) * congestion_b;
            let chunk_server_us = match ev.op {
                // Replicated append: slowest required ack.
                Op::Write => self.config.replication.write_latency_us(
                    &mut rng,
                    &self.config.latency.cs_write,
                    ev.size,
                ),
                Op::Read => self
                    .config
                    .latency
                    .chunk_server_us(&mut rng, ev.op, ev.size),
            };
            let lat = StageLatency {
                compute_us,
                frontend_us,
                block_server_us,
                backend_us,
                chunk_server_us,
            };
            total_latency += lat.total_us();
            if let Some(o) = obs.as_mut() {
                o.record_io(wait, &lat);
            }
            records.push(diting.record(self.fleet, ev, wt, bs, lat));
        }
        if let Some(o) = obs {
            o.finish(&stats);
        }
        stats.mean_latency_us = if stats.ios > 0 {
            total_latency / stats.ios as f64
        } else {
            0.0
        };
        Ok(SimOutput {
            traces: TraceSet::from_records(records),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workload::{generate, WorkloadConfig};

    #[test]
    fn reference_is_deterministic() {
        let ds = generate(&WorkloadConfig::quick(34)).unwrap();
        let run = || {
            ReferenceSim::new(&ds.fleet, StackConfig::default())
                .run(&ds.events)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.traces.records(), b.traces.records());
    }

    #[test]
    fn reference_rejects_unsorted_events() {
        let ds = generate(&WorkloadConfig::quick(35)).unwrap();
        let mut events = ds.events;
        let last = events.len() - 1;
        events.swap(0, last);
        assert!(ReferenceSim::new(&ds.fleet, StackConfig::default())
            .run(&events)
            .is_err());
    }
}
