//! The end-to-end stack simulator.
//!
//! [`StackSim::run`] routes a time-ordered stream of sampled IO events
//! through the full path of Figure 1: QP → worker thread (with single-
//! server queueing), optional per-VD throttle, frontend network,
//! BlockServer (segment → home mapping), backend network, and ChunkServer
//! (three-way replicated writes) — and emits each IO's five-stage latency
//! breakdown, in event order: zipped with the events and their
//! [`RoutePlan`], that column is the paper's per-IO trace data.
//!
//! [`SimSession::step`], and so [`StackSim::run`] (a one-step session),
//! is the simulator's one schedule (DESIGN.md §16): a single pass over
//! the events. Each event goes through its throttle gate and fabric
//! links, draws its stage samples from the `stack/latency` stream in a
//! fixed order, then goes through its WT queue. The output is one
//! [`StageLatency`] per event, in event order.

use crate::hypervisor::{Binding, WtQueues};
use crate::latency::LatencyModel;
use crate::network::FabricModel;
use crate::route::{Route, RoutePlan};
use crate::segment::SegmentMap;
use crate::throttle_gate::VdGate;
use ebs_core::error::EbsError;
use ebs_core::io::{IoEvent, Op};
use ebs_core::rng::{RngFactory, SimRng};
use ebs_core::topology::Fleet;
use ebs_core::trace::StageLatency;
use ebs_core::units::TRACE_SAMPLE_RATE;

/// Stack-simulation configuration.
#[derive(Clone, Debug)]
pub struct StackConfig {
    /// Seed for latency jitter and tail draws.
    pub seed: u64,
    /// Apply the per-VD dual token-bucket throttle.
    pub apply_throttle: bool,
    /// Because the simulator sees the 1/3200-sampled stream, throttle caps
    /// are scaled by this factor so the gates fire at the same relative
    /// load as they would on the full population. Set to 1.0 when feeding
    /// unsampled streams. Must be positive and finite.
    pub throttle_scale: f64,
    /// Latency model.
    pub latency: LatencyModel,
}

impl Default for StackConfig {
    fn default() -> Self {
        Self {
            seed: 0x57AC_C0DE,
            apply_throttle: true,
            throttle_scale: TRACE_SAMPLE_RATE,
            latency: LatencyModel::default(),
        }
    }
}

/// Aggregate statistics of one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// IOs routed.
    pub ios: u64,
    /// IOs delayed by the throttle.
    pub throttled: u64,
    /// Mean end-to-end latency in microseconds.
    pub mean_latency_us: f64,
}

impl SimStats {
    fn from_totals(ios: u64, throttled: u64, total_latency_us: f64) -> Self {
        Self {
            ios,
            throttled,
            mean_latency_us: if ios > 0 {
                total_latency_us / ios as f64
            } else {
                0.0
            },
        }
    }
}

/// Result of a simulation: the per-IO latency column plus run statistics.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Five-stage latency of each event, in event order.
    pub lat: Vec<StageLatency>,
    /// Aggregate statistics.
    pub stats: SimStats,
}

/// Local per-run metric recorder, allocated only when `EBS_OBS` is on.
/// Records into private histograms during the event loop (no shared lock
/// on the hot path) and merges into the global registry once at the end,
/// so instrumentation can never reorder or perturb the simulation.
#[derive(Default)]
struct StackObs {
    queue_wait: ebs_obs::Histogram,
    stage_compute: ebs_obs::Histogram,
    stage_frontend: ebs_obs::Histogram,
    stage_block_server: ebs_obs::Histogram,
    stage_backend: ebs_obs::Histogram,
    stage_chunk_server: ebs_obs::Histogram,
    total: ebs_obs::Histogram,
}

impl StackObs {
    fn record_io(&mut self, wait_us: f64, lat: &StageLatency) {
        self.queue_wait.add(wait_us);
        self.stage_compute.add(lat.compute_us);
        self.stage_frontend.add(lat.frontend_us);
        self.stage_block_server.add(lat.block_server_us);
        self.stage_backend.add(lat.backend_us);
        self.stage_chunk_server.add(lat.chunk_server_us);
        self.total.add(lat.total_us());
    }

    /// Publish the run's metrics to the global registry in one merge.
    fn finish(self, stats: &SimStats) {
        let mut reg = ebs_obs::Registry::new();
        reg.counter_add("stack.sim.ios", stats.ios);
        reg.counter_add("stack.throttle_gate.fires", stats.throttled);
        reg.merge_hist("stack.queue.wait_us", &self.queue_wait);
        reg.merge_hist("stack.lat.compute_us", &self.stage_compute);
        reg.merge_hist("stack.lat.frontend_us", &self.stage_frontend);
        reg.merge_hist("stack.lat.block_server_us", &self.stage_block_server);
        reg.merge_hist("stack.lat.backend_us", &self.stage_backend);
        reg.merge_hist("stack.lat.chunk_server_us", &self.stage_chunk_server);
        reg.merge_hist("stack.lat.total_us", &self.total);
        ebs_obs::merge(&reg);
    }
}

/// The RNG-free state machines — per-VD throttle gates and the fabric
/// links. A [`SimSession`] carries them across epoch steps: replaying a
/// stream slice-by-slice drives exactly the same machine trajectory as
/// one batch pass.
struct Machines {
    gates: Vec<Option<VdGate>>,
    /// Per-VD lending multiplier currently applied on top of the
    /// subscribed caps (1.0 = no grant outstanding).
    cap_scale: Vec<f64>,
    fabric: FabricModel,
}

/// What one event met in the state machines: its throttle delay and the
/// congestion multipliers of its frontend and backend links.
#[derive(Clone, Copy)]
struct Admitted {
    throttle_us: f64,
    congestion_f: f64,
    congestion_b: f64,
}

impl Machines {
    fn new(fleet: &Fleet, config: &StackConfig) -> Self {
        let gates: Vec<Option<VdGate>> = if config.apply_throttle {
            fleet
                .vds
                .iter()
                .map(|vd| {
                    let mut spec = vd.spec;
                    spec.tput_cap *= config.throttle_scale;
                    spec.iops_cap *= config.throttle_scale;
                    Some(VdGate::for_spec(&spec))
                })
                .collect()
        } else {
            vec![None; fleet.vds.len()]
        };
        Self {
            gates,
            cap_scale: vec![1.0; fleet.vds.len()],
            fabric: FabricModel::new(fleet.compute_nodes.len(), fleet.storage_nodes.len()),
        }
    }

    /// The gate/fabric step: pass one event through its VD's throttle
    /// gate and its CN uplink and SN backend link, in event order.
    #[inline]
    fn admit(&mut self, ev: &IoEvent, route: Route) -> Admitted {
        let t = ev.t_us as f64;
        let throttle_us = match self.gates.get_mut(ev.vd.index()) {
            Some(Some(gate)) => gate.admit(t, ev.size),
            _ => 0.0,
        };
        let bytes = ev.size as f64;
        Admitted {
            throttle_us,
            congestion_f: self.fabric.frontend_transfer(route.cn.index(), t, bytes),
            congestion_b: self.fabric.backend_transfer(route.sn.index(), t, bytes),
        }
    }
}

/// The draw schedule of one event: compute, frontend, BlockServer and
/// backend, then one ChunkServer read sample or the three replica write
/// samples ([`LatencyModel::replicated_write`]). Every sample consumes the
/// `stack/latency` stream in this order. Returns the five stage samples,
/// before queueing and congestion.
#[inline]
fn draw_event(latency: &LatencyModel, rng: &mut SimRng, ev: &IoEvent) -> [f64; 5] {
    let size = ev.size;
    [
        latency.compute.sample(rng, size),
        latency.frontend.sample(rng, size),
        latency.block_server.sample(rng, size),
        latency.backend.sample(rng, size),
        match ev.op {
            Op::Write => latency.replicated_write(rng, size),
            Op::Read => latency.cs_read.sample(rng, size),
        },
    ]
}

/// The persistent half of latency assembly: WT busy-until clocks, the
/// optional obs recorder, and the running aggregates. A [`SimSession`]
/// carries one across epoch steps so slice-by-slice serving accumulates
/// *exactly* the batch totals (same u64 sums, same f64 summation order).
struct SimCore {
    queues: WtQueues,
    obs: Option<StackObs>,
    ios: u64,
    throttled: u64,
    total_latency: f64,
}

/// One slice's output under assembly.
struct SliceOut {
    lat: Vec<StageLatency>,
    throttled: u64,
    total_latency: f64,
}

impl SliceOut {
    fn with_capacity(n: usize) -> Self {
        Self {
            lat: Vec::with_capacity(n),
            throttled: 0,
            total_latency: 0.0,
        }
    }

    /// Close the slice: add its counts to `core` and return its output.
    fn finish(self, core: &mut SimCore) -> SimOutput {
        let ios = self.lat.len() as u64;
        core.ios += ios;
        core.throttled += self.throttled;
        SimOutput {
            lat: self.lat,
            stats: SimStats::from_totals(ios, self.throttled, self.total_latency),
        }
    }
}

impl SimCore {
    fn new(fleet: &Fleet) -> Self {
        Self {
            queues: WtQueues::new(fleet.wt_total),
            obs: ebs_obs::enabled().then(StackObs::default),
            ios: 0,
            throttled: 0,
            total_latency: 0.0,
        }
    }

    /// Latency assembly: WT queueing, fabric congestion, obs, and the
    /// event's entry in the latency column.
    #[inline]
    fn assemble(
        &mut self,
        out: &mut SliceOut,
        ev: &IoEvent,
        route: Route,
        a: Admitted,
        draws: [f64; 5],
    ) {
        let [service, frontend, block_server_us, backend, chunk_server_us] = draws;
        let wait = self
            .queues
            .serve(route.wt, ev.t_us as f64 + a.throttle_us, service);
        let lat = StageLatency {
            compute_us: a.throttle_us + wait + service,
            frontend_us: frontend * a.congestion_f,
            block_server_us,
            backend_us: backend * a.congestion_b,
            chunk_server_us,
        };
        if a.throttle_us > 0.0 {
            out.throttled += 1;
        }
        out.total_latency += lat.total_us();
        // Aggregate per event, not per slice: the session's running total
        // must follow the exact f64 summation order of a batch run.
        self.total_latency += lat.total_us();
        if let Some(o) = self.obs.as_mut() {
            o.record_io(wait, &lat);
        }
        out.lat.push(lat);
    }

    /// Publish the accumulated obs metrics (if recording) and return the
    /// aggregate stats. Consumes the core: a run publishes exactly once.
    fn finish(self) -> SimStats {
        let stats = SimStats::from_totals(self.ios, self.throttled, self.total_latency);
        if let Some(o) = self.obs {
            o.finish(&stats);
        }
        stats
    }
}

/// The simulator itself. One instance per run.
pub struct StackSim<'a> {
    fleet: &'a Fleet,
    config: StackConfig,
    binding: Binding,
    seg_map: SegmentMap,
}

impl<'a> StackSim<'a> {
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

    /// Resolve the routing of `events` under this simulator's binding and
    /// segment map (validates time-sortedness once). The plan can be
    /// shared by every run over the same slice.
    pub fn plan(&self, events: &[IoEvent]) -> Result<RoutePlan, EbsError> {
        RoutePlan::build(self.fleet, &self.binding, &self.seg_map, events)
    }

    /// Route `events` (must be time-sorted) through the stack.
    pub fn run(&self, events: &[IoEvent]) -> Result<SimOutput, EbsError> {
        let plan = self.plan(events)?;
        self.run_planned(events, &plan)
    }

    /// Route `events` through the stack using a prebuilt [`RoutePlan`]
    /// (already validated as time-sorted at plan construction).
    ///
    /// Implemented as a one-step [`SimSession`], which is what guarantees
    /// that serving the same stream epoch-by-epoch reproduces this batch
    /// run bit-for-bit: both paths are the same code.
    pub fn run_planned(&self, events: &[IoEvent], plan: &RoutePlan) -> Result<SimOutput, EbsError> {
        let mut session = SimSession::new(self.fleet, self.config.clone())?;
        let out = session.step(events, plan)?;
        session.finish();
        Ok(out)
    }
}

/// A *resumable* simulation: the simulator's schedule with every piece of
/// cross-event state — throttle-gate buckets, fabric links, the
/// `stack/latency` RNG stream, WT busy-until clocks, and the aggregate
/// accumulators — held in the session between calls to [`Self::step`].
///
/// Stepping a time-sorted stream through a session slice-by-slice (in
/// order, with each slice's own route plan) produces the identical
/// latency column and identical [`Self::finish`] aggregate as one batch
/// `run_planned` over the concatenation: the serve mode's foundational
/// invariant, pinned by the `ebs-serve` differential tests.
///
/// Between steps the caller may change the *routing* (rebuild the next
/// plan from an updated [`Binding`] or [`SegmentMap`]) and the *caps*
/// ([`Self::scale_vd_caps`]); both model online control-plane actions and
/// intentionally diverge from the batch run.
pub struct SimSession<'a> {
    fleet: &'a Fleet,
    config: StackConfig,
    machines: Machines,
    rng: SimRng,
    core: SimCore,
}

impl<'a> SimSession<'a> {
    /// Start a session over `fleet` with `config`. A `throttle_scale`
    /// that is not a positive finite number is an invalid config.
    pub fn new(fleet: &'a Fleet, config: StackConfig) -> Result<Self, EbsError> {
        if !(config.throttle_scale > 0.0 && config.throttle_scale.is_finite()) {
            return Err(EbsError::invalid_config(format!(
                "throttle_scale {} is not a positive finite number",
                config.throttle_scale
            )));
        }
        Ok(Self {
            fleet,
            machines: Machines::new(fleet, &config),
            rng: RngFactory::new(config.seed)
                .child("stack")
                .stream("latency"),
            core: SimCore::new(fleet),
            config,
        })
    }

    /// Simulate the next slice of the stream under `plan`. Slices must
    /// arrive in stream order; the returned output carries the *slice's*
    /// latency column and stats (its `mean_latency_us` is the slice mean).
    ///
    /// One fused pass: per event, the gate/fabric step, the stage samples
    /// in draw order, then latency assembly.
    pub fn step(&mut self, events: &[IoEvent], plan: &RoutePlan) -> Result<SimOutput, EbsError> {
        if plan.len() != events.len() {
            return Err(EbsError::invalid_config(
                "route plan does not cover the event slice",
            ));
        }
        let mut out = SliceOut::with_capacity(events.len());
        for (ev, &route) in events.iter().zip(plan.routes()) {
            let a = self.machines.admit(ev, route);
            let draws = draw_event(&self.config.latency, &mut self.rng, ev);
            self.core.assemble(&mut out, ev, route, a, draws);
        }
        Ok(out.finish(&mut self.core))
    }

    /// Scale one VD's throttle caps to `scale ×` its subscribed caps (an
    /// online lending grant when `> 1`, a reclaim at `1.0`). Takes effect
    /// from the next admitted IO; banked tokens are clamped, never
    /// refunded. Returns `false` (and does nothing) when throttling is
    /// off, the VD is unknown, or `scale` is not a positive finite number.
    pub fn scale_vd_caps(&mut self, vd: ebs_core::ids::VdId, scale: f64) -> bool {
        if !self.config.apply_throttle || scale <= 0.0 || !scale.is_finite() {
            return false;
        }
        let Some(vd_state) = self.fleet.vds.get(vd) else {
            return false;
        };
        let Some(Some(gate)) = self.machines.gates.get_mut(vd.index()) else {
            return false;
        };
        let mut spec = vd_state.spec;
        spec.tput_cap *= self.config.throttle_scale * scale;
        spec.iops_cap *= self.config.throttle_scale * scale;
        gate.retarget(&spec);
        if let Some(slot) = self.machines.cap_scale.get_mut(vd.index()) {
            *slot = scale;
        }
        true
    }

    /// The lending multiplier currently applied to each VD (dense, indexed
    /// by VD; 1.0 = none).
    pub fn cap_scales(&self) -> &[f64] {
        &self.machines.cap_scale
    }

    /// End the session: publish obs metrics (exactly once, like a batch
    /// run) and return the aggregate stats.
    pub fn finish(self) -> SimStats {
        self.core.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workload::{generate, WorkloadConfig};

    fn simulate(seed: u64) -> (SimOutput, usize) {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let sim = StackSim::new(&ds.fleet, StackConfig::default());
        let out = sim.run(&ds.events).unwrap();
        (out, ds.events.len())
    }

    #[test]
    fn every_event_gets_a_latency() {
        let (out, n) = simulate(31);
        assert_eq!(out.lat.len(), n);
        assert_eq!(out.stats.ios as usize, n);
    }

    #[test]
    fn latencies_are_positive_and_structured() {
        let (out, _) = simulate(32);
        for lat in &out.lat {
            assert!(lat.total_us() > 0.0);
            assert!(lat.compute_us > 0.0);
            // CN-cache latency ≤ BS-cache latency ≤ total.
            assert!(lat.cn_cache_us() <= lat.bs_cache_us() + 1e-9);
            assert!(lat.bs_cache_us() <= lat.total_us() + 1e-9);
        }
        assert!(out.stats.mean_latency_us > 0.0);
    }

    #[test]
    fn writes_slower_than_reads_on_average() {
        // Compare the raw device path: disable throttling so huge read
        // bursts don't pick up multi-second throttle queueing.
        let ds = generate(&WorkloadConfig::quick(33)).unwrap();
        let cfg = StackConfig {
            apply_throttle: false,
            ..StackConfig::default()
        };
        let out = StackSim::new(&ds.fleet, cfg).run(&ds.events).unwrap();
        let (mut rsum, mut rcnt, mut wsum, mut wcnt) = (0.0, 0u32, 0.0, 0u32);
        for (ev, lat) in ds.events.iter().zip(&out.lat) {
            if ev.op.is_read() {
                rsum += lat.total_us();
                rcnt += 1;
            } else {
                wsum += lat.total_us();
                wcnt += 1;
            }
        }
        assert!(rcnt > 0 && wcnt > 0);
        assert!(wsum / wcnt as f64 > rsum / rcnt as f64);
    }

    #[test]
    fn simulation_is_deterministic() {
        let (a, _) = simulate(34);
        let (b, _) = simulate(34);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.lat, b.lat);
    }

    #[test]
    fn unsorted_events_are_rejected() {
        let ds = generate(&WorkloadConfig::quick(35)).unwrap();
        let mut events = ds.events;
        let last = events.len() - 1;
        assert!(last > 0, "need at least two events");
        events.swap(0, last);
        let sim = StackSim::new(&ds.fleet, StackConfig::default());
        assert!(sim.run(&events).is_err());
    }

    #[test]
    fn disabling_throttle_removes_throttle_delays() {
        let ds = generate(&WorkloadConfig::quick(36)).unwrap();
        let cfg = StackConfig {
            apply_throttle: false,
            ..StackConfig::default()
        };
        let out = StackSim::new(&ds.fleet, cfg).run(&ds.events).unwrap();
        assert_eq!(out.stats.throttled, 0);
    }

    /// Each simulated write's ChunkServer latency is the largest of its
    /// three replica draws, and each read's is its one draw: the draws
    /// replayed off the `stack/latency` stream, bit for bit.
    #[test]
    fn chunk_server_latency_is_the_slowest_of_the_replica_draws() {
        let ds = generate(&WorkloadConfig::quick(39)).unwrap();
        let config = StackConfig::default();
        let out = StackSim::new(&ds.fleet, config.clone())
            .run(&ds.events)
            .unwrap();
        let mut rng = RngFactory::new(config.seed)
            .child("stack")
            .stream("latency");
        let m = &config.latency;
        let mut writes = 0;
        for (ev, lat) in ds.events.iter().zip(&out.lat) {
            for stage in [&m.compute, &m.frontend, &m.block_server, &m.backend] {
                stage.sample(&mut rng, ev.size);
            }
            let want = if ev.op.is_write() {
                writes += 1;
                let mut draws: Vec<f64> = (0..3)
                    .map(|_| m.cs_write.sample(&mut rng, ev.size))
                    .collect();
                draws.sort_by(f64::total_cmp);
                draws[2]
            } else {
                m.cs_read.sample(&mut rng, ev.size)
            };
            assert_eq!(lat.chunk_server_us.to_bits(), want.to_bits());
        }
        assert!(writes > 0);
    }

    /// A throttle scale that is zero, negative or not finite is rejected
    /// as an invalid config before any gate is built.
    #[test]
    fn bad_throttle_scales_are_invalid_configs() {
        let ds = generate(&WorkloadConfig::quick(41)).unwrap();
        for throttle_scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = StackConfig {
                throttle_scale,
                ..StackConfig::default()
            };
            assert!(matches!(
                SimSession::new(&ds.fleet, config.clone()),
                Err(EbsError::InvalidConfig(_))
            ));
            assert!(StackSim::new(&ds.fleet, config).run(&ds.events).is_err());
        }
    }

    #[test]
    fn shared_plan_reproduces_per_run_output() {
        let ds = generate(&WorkloadConfig::quick(40)).unwrap();
        let sim = StackSim::new(&ds.fleet, StackConfig::default());
        let direct = sim.run(&ds.events).unwrap();
        let plan = sim.plan(&ds.events).unwrap();
        let planned = sim.run_planned(&ds.events, &plan).unwrap();
        assert_eq!(direct.stats, planned.stats);
        assert_eq!(direct.lat, planned.lat);
    }

    #[test]
    fn session_steps_concatenate_to_batch_run() {
        let ds = generate(&WorkloadConfig::quick(43)).unwrap();
        let sim = StackSim::new(&ds.fleet, StackConfig::default());
        let batch = sim.run(&ds.events).unwrap();

        let mut session = SimSession::new(&ds.fleet, StackConfig::default()).unwrap();
        let mut lat = Vec::new();
        // Uneven slice boundaries, including an empty slice.
        let n = ds.events.len();
        let cuts = [0, n / 3, n / 3, n / 2, (3 * n) / 4, n];
        for pair in cuts.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            let slice = &ds.events[lo..hi];
            // Per-slice plans, exactly how the serve loop routes epochs.
            let sub = sim.plan(slice).unwrap();
            let out = session.step(slice, &sub).unwrap();
            lat.extend_from_slice(&out.lat);
        }
        let agg = session.finish();
        assert_eq!(agg, batch.stats);
        assert_eq!(lat, batch.lat);
    }

    #[test]
    fn session_cap_scaling_reduces_throttling() {
        let ds = generate(&WorkloadConfig::quick(44)).unwrap();
        let base = {
            let mut s = SimSession::new(&ds.fleet, StackConfig::default()).unwrap();
            let plan = StackSim::new(&ds.fleet, StackConfig::default())
                .plan(&ds.events)
                .unwrap();
            s.step(&ds.events, &plan).unwrap();
            s.finish()
        };
        assert!(base.throttled > 0, "quick workload must throttle somewhere");
        let mut s = SimSession::new(&ds.fleet, StackConfig::default()).unwrap();
        for vd in 0..ds.fleet.vd_count() {
            let id = ebs_core::ids::VdId(vd as u32);
            assert!(s.scale_vd_caps(id, 100.0));
        }
        assert!(s.cap_scales().iter().all(|&c| c == 100.0));
        let plan = StackSim::new(&ds.fleet, StackConfig::default())
            .plan(&ds.events)
            .unwrap();
        s.step(&ds.events, &plan).unwrap();
        let scaled = s.finish();
        assert!(
            scaled.throttled < base.throttled,
            "100x caps should throttle less: {} vs {}",
            scaled.throttled,
            base.throttled
        );
    }
}
