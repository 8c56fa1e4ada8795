//! The end-to-end stack simulator, as a staged columnar pipeline.
//!
//! [`StackSim::run`] routes a time-ordered stream of sampled IO events
//! through the full path of Figure 1: QP → worker thread (with single-
//! server queueing), optional per-VD throttle, frontend network,
//! BlockServer (segment → home mapping), backend network, and ChunkServer
//! (replicated writes) — and hands each IO to DiTing to produce the
//! paper's trace dataset with the five-stage latency breakdown.
//!
//! Internally the run is three passes over routing columns from a
//! [`RoutePlan`] (DESIGN.md §16), byte-identical to the preserved
//! event-at-a-time loop in [`crate::reference`]:
//!
//! * **Pass A** (no RNG) replays the throttle gates and fabric links in
//!   event order, producing per-event throttle-delay and congestion
//!   columns.
//! * **Pass B1** drains the single `stack/latency` RNG stream in exactly
//!   the per-event order the reference uses (which samples occur depends
//!   only on each event's op and the replica count) into
//!   *parameter-independent* columns: the standard-normal deviate and
//!   tail uniform of every sample.
//! * **Pass B2** evaluates each latency stage as a tight column kernel
//!   over those units; because the units don't depend on the latency
//!   model, a [`StackSweep`] caches evaluated columns per stage-parameter
//!   value and re-evaluates only the stages a config point changes.
//! * **Pass C** runs the WT queues, congestion/replication arithmetic,
//!   and DiTing record assembly over the columns.

use crate::diting::Diting;
use crate::hypervisor::{Binding, WtQueues};
use crate::latency::{LatencyModel, StageParams};
use crate::network::FabricModel;
use crate::replication::ReplicationPolicy;
use crate::route::RoutePlan;
use crate::segment::SegmentMap;
use crate::throttle_gate::VdGate;
use ebs_core::error::EbsError;
use ebs_core::hash::FxHashMap;
use ebs_core::index::EventIndex;
use ebs_core::io::{IoEvent, Op};
use ebs_core::rng::RngFactory;
use ebs_core::topology::Fleet;
use ebs_core::trace::{StageLatency, TraceRecord, TraceSet};
use ebs_core::units::TRACE_SAMPLE_RATE;
use std::rc::Rc;

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
    /// unsampled streams.
    pub throttle_scale: f64,
    /// Latency model.
    pub latency: LatencyModel,
    /// Write-path replication (EBS persists with redundancy before acking).
    pub replication: ReplicationPolicy,
    /// Model shared-link congestion on the frontend/backend fabrics.
    pub model_congestion: bool,
}

impl Default for StackConfig {
    fn default() -> Self {
        Self {
            seed: 0x57AC_C0DE,
            apply_throttle: true,
            throttle_scale: TRACE_SAMPLE_RATE,
            latency: LatencyModel::default(),
            replication: ReplicationPolicy::THREE_WAY,
            model_congestion: true,
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

/// Result of a simulation: the trace dataset plus run statistics.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Per-IO traces with five-stage latencies, time-sorted.
    pub traces: TraceSet,
    /// Aggregate statistics.
    pub stats: SimStats,
}

/// Local per-run metric recorder, allocated only when `EBS_OBS` is on.
/// Records into private histograms during the event loop (no shared lock
/// on the hot path) and merges into the global registry once at the end,
/// so instrumentation can never reorder or perturb the simulation.
pub(crate) struct StackObs {
    queue_wait: ebs_obs::Histogram,
    stage_compute: ebs_obs::Histogram,
    stage_frontend: ebs_obs::Histogram,
    stage_block_server: ebs_obs::Histogram,
    stage_backend: ebs_obs::Histogram,
    stage_chunk_server: ebs_obs::Histogram,
    total: ebs_obs::Histogram,
}

impl StackObs {
    pub(crate) fn new() -> Self {
        Self {
            queue_wait: ebs_obs::Histogram::new(0.0, 10_000.0, 40),
            stage_compute: ebs_obs::Histogram::new(0.0, 20_000.0, 40),
            stage_frontend: ebs_obs::Histogram::new(0.0, 2_000.0, 40),
            stage_block_server: ebs_obs::Histogram::new(0.0, 2_000.0, 40),
            stage_backend: ebs_obs::Histogram::new(0.0, 2_000.0, 40),
            stage_chunk_server: ebs_obs::Histogram::new(0.0, 5_000.0, 40),
            total: ebs_obs::Histogram::new(0.0, 50_000.0, 50),
        }
    }

    pub(crate) fn record_io(&mut self, wait_us: f64, lat: &StageLatency) {
        self.queue_wait.add(wait_us);
        self.stage_compute.add(lat.compute_us);
        self.stage_frontend.add(lat.frontend_us);
        self.stage_block_server.add(lat.block_server_us);
        self.stage_backend.add(lat.backend_us);
        self.stage_chunk_server.add(lat.chunk_server_us);
        self.total.add(lat.total_us());
    }

    /// Publish the run's metrics to the global registry in one merge.
    pub(crate) fn finish(self, stats: &SimStats) {
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

// ---------------------------------------------------------------------
// Stage classes: the six latency columns a run draws from, in the order
// the reference samples them within one event.

const STAGE_COMPUTE: usize = 0;
const STAGE_FRONTEND: usize = 1;
const STAGE_BLOCK_SERVER: usize = 2;
const STAGE_BACKEND: usize = 3;
const STAGE_CS_READ: usize = 4;
const STAGE_CS_WRITE: usize = 5;
const STAGE_COUNT: usize = 6;

fn stage_params(latency: &LatencyModel) -> [&StageParams; STAGE_COUNT] {
    [
        &latency.compute,
        &latency.frontend,
        &latency.block_server,
        &latency.backend,
        &latency.cs_read,
        &latency.cs_write,
    ]
}

/// The RNG-free state machines of pass A — per-VD throttle gates and the
/// fabric links. They live *outside* the per-slice pass so a
/// [`SimSession`] can carry them across epoch steps: replaying a stream
/// slice-by-slice drives exactly the same machine trajectory as one batch
/// pass.
struct Machines {
    gates: Vec<Option<VdGate>>,
    /// Per-VD lending multiplier currently applied on top of the
    /// subscribed caps (1.0 = no grant outstanding).
    cap_scale: Vec<f64>,
    fabric: FabricModel,
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
}

/// Pass A output: per-event columns from the RNG-free state machines,
/// plus the slice's counters (the machines themselves persist in
/// [`Machines`]).
struct StateCols {
    throttle_us: Vec<f64>,
    congestion_f: Vec<f64>,
    congestion_b: Vec<f64>,
    throttled: u64,
}

/// Replay the deterministic (RNG-free) state machines — throttle gates and
/// fabric links — in event order, advancing `machines` in place.
fn pass_a(
    machines: &mut Machines,
    config: &StackConfig,
    plan: &RoutePlan,
    events: &[IoEvent],
) -> StateCols {
    let n = events.len();
    let mut cols = StateCols {
        throttle_us: Vec::with_capacity(n),
        congestion_f: Vec::with_capacity(n),
        congestion_b: Vec::with_capacity(n),
        throttled: 0,
    };
    for (i, ev) in events.iter().enumerate() {
        let t = ev.t_us as f64;
        let throttle_us = match &mut machines.gates[ev.vd.index()] {
            Some(gate) => {
                let d = gate.admit(t, ev.size);
                if d > 0.0 {
                    cols.throttled += 1;
                }
                d
            }
            None => 0.0,
        };
        cols.throttle_us.push(throttle_us);
        let congestion_f = if config.model_congestion {
            machines
                .fabric
                .frontend_transfer(plan.cn()[i].index(), t, ev.size as f64)
        } else {
            1.0
        };
        cols.congestion_f.push(congestion_f);
        let sn = plan.sn()[i].index();
        let congestion_b = if config.model_congestion {
            machines.fabric.backend_transfer(sn, t, ev.size as f64)
        } else {
            1.0
        };
        cols.congestion_b.push(congestion_b);
    }
    cols
}

/// Pass B1 output: the raw randomness of every latency sample, grouped by
/// stage class (within a class, slots appear in event order). These
/// columns depend on the seed, the draw schedule (op + replica count), and
/// nothing else — no latency parameter touches them.
struct DrawCols {
    g: [Vec<f64>; STAGE_COUNT],
    u_tail: [Vec<f64>; STAGE_COUNT],
    size: [Vec<u32>; STAGE_COUNT],
}

impl DrawCols {
    fn draw(&mut self, class: usize, rng: &mut ebs_core::rng::SimRng, size: u32) {
        let (g, u_tail) = StageParams::draw_units(rng);
        self.g[class].push(g);
        self.u_tail[class].push(u_tail);
        self.size[class].push(size);
    }
}

/// Drain the `stack/latency` RNG stream in exactly the reference's
/// per-event order into parameter-independent unit columns, starting from
/// a fresh stream (the batch path).
fn pass_b1(config: &StackConfig, events: &[IoEvent]) -> DrawCols {
    let rngf = RngFactory::new(config.seed).child("stack");
    let mut rng = rngf.stream("latency");
    pass_b1_with(&mut rng, config, events)
}

/// [`pass_b1`] over a caller-owned RNG stream: a [`SimSession`] advances
/// one persistent stream across epoch steps, so the draws of slice k+1
/// continue exactly where slice k stopped — the whole point of the
/// session being bit-identical to a batch run.
fn pass_b1_with(
    rng: &mut ebs_core::rng::SimRng,
    config: &StackConfig,
    events: &[IoEvent],
) -> DrawCols {
    let mut d = DrawCols {
        g: Default::default(),
        u_tail: Default::default(),
        size: Default::default(),
    };
    let n = events.len();
    let replicas = config.replication.replicas as usize;
    let writes = events.iter().filter(|ev| ev.op == Op::Write).count();
    for (c, cap) in [
        (STAGE_COMPUTE, n),
        (STAGE_FRONTEND, n),
        (STAGE_BLOCK_SERVER, n),
        (STAGE_BACKEND, n),
        (STAGE_CS_READ, n - writes),
        (STAGE_CS_WRITE, writes * replicas),
    ] {
        d.g[c].reserve(cap);
        d.u_tail[c].reserve(cap);
        d.size[c].reserve(cap);
    }
    for ev in events {
        d.draw(STAGE_COMPUTE, rng, ev.size);
        d.draw(STAGE_FRONTEND, rng, ev.size);
        d.draw(STAGE_BLOCK_SERVER, rng, ev.size);
        d.draw(STAGE_BACKEND, rng, ev.size);
        match ev.op {
            Op::Write => {
                for _ in 0..replicas {
                    d.draw(STAGE_CS_WRITE, rng, ev.size);
                }
            }
            Op::Read => d.draw(STAGE_CS_READ, rng, ev.size),
        }
    }
    d
}

/// Evaluated stage columns: one latency value per drawn sample, before
/// congestion / quorum arithmetic (pass C's job).
struct StageCols {
    values: [Rc<Vec<f64>>; STAGE_COUNT],
}

/// Cache of evaluated stage columns keyed by the stage's parameter bits.
/// A sweep point that leaves a stage's parameters untouched reuses the
/// column instead of re-running the `exp`-heavy kernel.
#[derive(Default)]
struct StageCache {
    map: [FxHashMap<[u64; 5], Rc<Vec<f64>>>; STAGE_COUNT],
}

/// Bound on retained columns per stage before the cache resets; sweeps
/// vary a handful of parameter points, so this is never hit in practice.
const STAGE_CACHE_MAX: usize = 64;

fn stage_key(p: &StageParams) -> [u64; 5] {
    [
        p.base_us.to_bits(),
        p.bytes_per_us.to_bits(),
        p.jitter_sigma.to_bits(),
        p.tail_prob.to_bits(),
        p.tail_mult.to_bits(),
    ]
}

/// Evaluate all six stage columns from the pre-drawn units, reusing
/// cached columns for stages whose parameters match a prior evaluation.
fn pass_b2(
    latency: &LatencyModel,
    draws: &DrawCols,
    mut cache: Option<&mut StageCache>,
) -> StageCols {
    let params = stage_params(latency);
    let values = std::array::from_fn(|c| {
        let p = params[c];
        if let Some(cache) = cache.as_deref_mut() {
            let slot = &mut cache.map[c];
            if let Some(col) = slot.get(&stage_key(p)) {
                return Rc::clone(col);
            }
            if slot.len() >= STAGE_CACHE_MAX {
                slot.clear();
            }
        }
        let col = Rc::new(eval_stage(p, draws, c));
        if let Some(cache) = cache.as_deref_mut() {
            cache.map[c].insert(stage_key(p), Rc::clone(&col));
        }
        col
    });
    StageCols { values }
}

/// The tight column kernel: evaluate one stage's samples from its units.
fn eval_stage(p: &StageParams, draws: &DrawCols, class: usize) -> Vec<f64> {
    draws.g[class]
        .iter()
        .zip(&draws.u_tail[class])
        .zip(&draws.size[class])
        .map(|((&g, &u_tail), &size)| p.eval(g, u_tail, size))
        .collect()
}

/// The persistent half of pass C: WT busy-until clocks, the DiTing id
/// counter, the optional obs recorder, and the running aggregates. A batch
/// run owns one for the duration of the run; a [`SimSession`] carries one
/// across epoch steps so slice-by-slice serving accumulates *exactly* the
/// batch totals (same u64 sums, same f64 summation order).
struct SimCore {
    queues: WtQueues,
    diting: Diting,
    obs: Option<StackObs>,
    ios: u64,
    throttled: u64,
    total_latency: f64,
}

impl SimCore {
    fn new(fleet: &Fleet) -> Self {
        Self {
            queues: WtQueues::new(fleet.wt_total),
            diting: Diting::new(),
            obs: ebs_obs::enabled().then(StackObs::new),
            ios: 0,
            throttled: 0,
            total_latency: 0.0,
        }
    }

    /// Aggregate statistics accumulated so far.
    fn aggregate(&self) -> SimStats {
        SimStats {
            ios: self.ios,
            throttled: self.throttled,
            mean_latency_us: if self.ios > 0 {
                self.total_latency / self.ios as f64
            } else {
                0.0
            },
        }
    }

    /// Publish the accumulated obs metrics (if recording) and return the
    /// aggregate stats. Consumes the core: a run publishes exactly once.
    fn finish(self) -> SimStats {
        let stats = self.aggregate();
        if let Some(o) = self.obs {
            o.finish(&stats);
        }
        stats
    }
}

/// Pass C: WT queueing, congestion/replication arithmetic, and DiTing
/// record assembly over the columns. Returns the *slice's* output (for a
/// batch run the slice is the whole stream) while accumulating aggregates
/// into `core`.
fn pass_c(
    fleet: &Fleet,
    config: &StackConfig,
    events: &[IoEvent],
    plan: &RoutePlan,
    a: &StateCols,
    cols: &StageCols,
    core: &mut SimCore,
) -> SimOutput {
    let mut records: Vec<TraceRecord> = Vec::with_capacity(events.len());
    let mut stats = SimStats {
        ios: events.len() as u64,
        throttled: a.throttled,
        mean_latency_us: 0.0,
    };
    let mut total_latency = 0.0;
    let replicas = config.replication.replicas as usize;
    let quorum = config.replication.quorum as usize;
    // Cursors into the per-op columns (slots are in event order).
    let (mut j_cs_read, mut j_cs_write) = (0usize, 0usize);
    let mut write_acks: Vec<f64> = Vec::with_capacity(replicas);
    for (i, ev) in events.iter().enumerate() {
        let t = ev.t_us as f64;
        let throttle_us = a.throttle_us[i];
        let wt = plan.wt()[i];
        let service = cols.values[STAGE_COMPUTE][i];
        let wait = core.queues.serve(wt, t + throttle_us, service);
        let compute_us = throttle_us + wait + service;
        let frontend_us = cols.values[STAGE_FRONTEND][i] * a.congestion_f[i];
        let block_server_us = cols.values[STAGE_BLOCK_SERVER][i];
        let backend_us = cols.values[STAGE_BACKEND][i] * a.congestion_b[i];
        let chunk_server_us = match ev.op {
            Op::Write => {
                // Replicated append: slowest required ack.
                write_acks.clear();
                write_acks.extend_from_slice(
                    &cols.values[STAGE_CS_WRITE][j_cs_write..j_cs_write + replicas],
                );
                j_cs_write += replicas;
                write_acks.sort_by(|x, y| x.partial_cmp(y).expect("latencies are finite"));
                write_acks[quorum - 1]
            }
            Op::Read => {
                let v = cols.values[STAGE_CS_READ][j_cs_read];
                j_cs_read += 1;
                v
            }
        };
        let lat = StageLatency {
            compute_us,
            frontend_us,
            block_server_us,
            backend_us,
            chunk_server_us,
        };
        total_latency += lat.total_us();
        // Aggregate per event, not per slice: the session's running total
        // must follow the exact f64 summation order of a batch run.
        core.total_latency += lat.total_us();
        if let Some(o) = core.obs.as_mut() {
            o.record_io(wait, &lat);
        }
        records.push(core.diting.record_routed(
            fleet,
            ev,
            wt,
            plan.seg()[i],
            plan.bs()[i],
            plan.sn()[i],
            lat,
        ));
    }
    core.ios += stats.ios;
    core.throttled += stats.throttled;
    stats.mean_latency_us = if stats.ios > 0 {
        total_latency / stats.ios as f64
    } else {
        0.0
    };
    SimOutput {
        traces: TraceSet::from_records(records),
        stats,
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

    /// Resolve the routing of `events` under this simulator's binding and
    /// segment map (validates time-sortedness once). The plan can be
    /// shared by every run over the same slice.
    pub fn plan(&self, events: &[IoEvent]) -> Result<RoutePlan, EbsError> {
        RoutePlan::build(self.fleet, &self.binding, &self.seg_map, events)
    }

    /// Like [`Self::plan`], reusing the shared [`EventIndex`]'s per-VD
    /// segment table.
    pub fn plan_with_index(
        &self,
        events: &[IoEvent],
        idx: &EventIndex,
    ) -> Result<RoutePlan, EbsError> {
        RoutePlan::build_with_index(self.fleet, &self.binding, &self.seg_map, events, idx)
    }

    /// Route `events` (must be time-sorted) through the stack.
    pub fn run(&mut self, events: &[IoEvent]) -> Result<SimOutput, EbsError> {
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

/// A *resumable* simulation: the same staged pipeline as
/// [`StackSim::run_planned`], but with every piece of cross-event state —
/// throttle-gate buckets, fabric links, the `stack/latency` RNG stream, WT busy-until clocks, DiTing trace ids,
/// and the aggregate accumulators — held in the session between calls to
/// [`Self::step`].
///
/// Stepping a time-sorted stream through a session slice-by-slice (in
/// order, with each slice's own route plan) produces the identical record
/// stream and identical [`Self::finish`] aggregate as one batch
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
    rng: ebs_core::rng::SimRng,
    core: SimCore,
}

impl<'a> SimSession<'a> {
    /// Start a session over `fleet` with `config` (validates the
    /// replication policy once, like a batch run).
    pub fn new(fleet: &'a Fleet, config: StackConfig) -> Result<Self, EbsError> {
        config.replication.validate()?;
        let machines = Machines::new(fleet, &config);
        let rng = RngFactory::new(config.seed)
            .child("stack")
            .stream("latency");
        Ok(Self {
            fleet,
            config,
            machines,
            rng,
            core: SimCore::new(fleet),
        })
    }

    /// The session's configuration.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Simulate the next slice of the stream under `plan`. Slices must
    /// arrive in stream order; the returned output carries the *slice's*
    /// traces and stats (its `mean_latency_us` is the slice mean).
    pub fn step(&mut self, events: &[IoEvent], plan: &RoutePlan) -> Result<SimOutput, EbsError> {
        if plan.len() != events.len() {
            return Err(EbsError::invalid_config(
                "route plan does not cover the event slice",
            ));
        }
        let a = pass_a(&mut self.machines, &self.config, plan, events);
        let draws = pass_b1_with(&mut self.rng, &self.config, events);
        let cols = pass_b2(&self.config.latency, &draws, None);
        Ok(pass_c(
            self.fleet,
            &self.config,
            events,
            plan,
            &a,
            &cols,
            &mut self.core,
        ))
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

    /// The lending multiplier currently applied to `vd` (1.0 = none).
    pub fn vd_cap_scale(&self, vd: ebs_core::ids::VdId) -> f64 {
        self.machines
            .cap_scale
            .get(vd.index())
            .copied()
            .unwrap_or(1.0)
    }

    /// Aggregate statistics over every step so far.
    pub fn aggregate(&self) -> SimStats {
        self.core.aggregate()
    }

    /// End the session: publish obs metrics (exactly once, like a batch
    /// run) and return the aggregate stats.
    pub fn finish(self) -> SimStats {
        self.core.finish()
    }
}

/// A config sweep over one event slice: pass A and pass B1 run once, and
/// every [`Self::run_point`] reuses them (plus any stage columns whose
/// parameters it doesn't change), so a K-point latency sweep costs one
/// state-machine replay + one RNG drain + K cheap evaluate/assemble
/// passes instead of K full simulations.
///
/// Sweep points may vary the latency model and the replication *quorum*;
/// everything that shapes pass A or the draw schedule (seed, throttle,
/// congestion, replica count) must match the base config, enforced by
/// [`Self::run_point`].
pub struct StackSweep<'a> {
    fleet: &'a Fleet,
    events: &'a [IoEvent],
    plan: &'a RoutePlan,
    base: StackConfig,
    a: StateCols,
    draws: DrawCols,
    cache: StageCache,
}

impl<'a> StackSweep<'a> {
    /// Prepare a sweep over `events` with `plan` routing and `base`
    /// config. Runs pass A and pass B1 once.
    pub fn new(
        fleet: &'a Fleet,
        events: &'a [IoEvent],
        plan: &'a RoutePlan,
        base: StackConfig,
    ) -> Result<Self, EbsError> {
        if plan.len() != events.len() {
            return Err(EbsError::invalid_config(
                "route plan does not cover the event slice",
            ));
        }
        base.replication.validate()?;
        let mut machines = Machines::new(fleet, &base);
        let a = pass_a(&mut machines, &base, plan, events);
        let draws = pass_b1(&base, events);
        Ok(Self {
            fleet,
            events,
            plan,
            base,
            a,
            draws,
            cache: StageCache::default(),
        })
    }

    /// Simulate one config point, byte-identical to a full
    /// [`StackSim::run`] with `config`.
    pub fn run_point(&mut self, config: &StackConfig) -> Result<SimOutput, EbsError> {
        let b = &self.base;
        let compatible = config.seed == b.seed
            && config.apply_throttle == b.apply_throttle
            && config.throttle_scale == b.throttle_scale
            && config.model_congestion == b.model_congestion
            && config.replication.replicas == b.replication.replicas;
        if !compatible {
            return Err(EbsError::invalid_config(
                "sweep point changes non-sweepable config \
                 (seed/throttle/congestion/replica count)",
            ));
        }
        config.replication.validate()?;
        let cols = pass_b2(&config.latency, &self.draws, Some(&mut self.cache));
        let mut core = SimCore::new(self.fleet);
        let out = pass_c(
            self.fleet,
            config,
            self.events,
            self.plan,
            &self.a,
            &cols,
            &mut core,
        );
        core.finish();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workload::{generate, WorkloadConfig};

    fn simulate(seed: u64) -> (SimOutput, usize) {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let mut sim = StackSim::new(&ds.fleet, StackConfig::default());
        let out = sim.run(&ds.events).unwrap();
        (out, ds.events.len())
    }

    #[test]
    fn every_event_becomes_a_trace() {
        let (out, n) = simulate(31);
        assert_eq!(out.traces.len(), n);
        assert_eq!(out.stats.ios as usize, n);
    }

    #[test]
    fn latencies_are_positive_and_structured() {
        let (out, _) = simulate(32);
        for r in out.traces.records() {
            assert!(r.lat.total_us() > 0.0);
            assert!(r.lat.compute_us > 0.0);
            // CN-cache latency ≤ BS-cache latency ≤ total.
            assert!(r.lat.cn_cache_us() <= r.lat.bs_cache_us() + 1e-9);
            assert!(r.lat.bs_cache_us() <= r.lat.total_us() + 1e-9);
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
        let mut sim = StackSim::new(&ds.fleet, cfg);
        let out = sim.run(&ds.events).unwrap();
        let (mut rsum, mut rcnt, mut wsum, mut wcnt) = (0.0, 0u32, 0.0, 0u32);
        for r in out.traces.records() {
            if r.op.is_read() {
                rsum += r.lat.total_us();
                rcnt += 1;
            } else {
                wsum += r.lat.total_us();
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
        assert_eq!(a.traces.records()[0], b.traces.records()[0]);
    }

    #[test]
    fn unsorted_events_are_rejected() {
        let ds = generate(&WorkloadConfig::quick(35)).unwrap();
        let mut events = ds.events;
        let last = events.len() - 1;
        assert!(last > 0, "need at least two events");
        events.swap(0, last);
        let mut sim = StackSim::new(&ds.fleet, StackConfig::default());
        assert!(sim.run(&events).is_err());
    }

    #[test]
    fn disabling_throttle_removes_throttle_delays() {
        let ds = generate(&WorkloadConfig::quick(36)).unwrap();
        let cfg = StackConfig {
            apply_throttle: false,
            ..StackConfig::default()
        };
        let mut sim = StackSim::new(&ds.fleet, cfg);
        let out = sim.run(&ds.events).unwrap();
        assert_eq!(out.stats.throttled, 0);
    }

    #[test]
    fn replication_lengthens_write_latency() {
        let ds = generate(&WorkloadConfig::quick(38)).unwrap();
        let mean_write = |policy| {
            let cfg = StackConfig {
                apply_throttle: false,
                replication: policy,
                ..StackConfig::default()
            };
            let mut sim = StackSim::new(&ds.fleet, cfg);
            let out = sim.run(&ds.events).unwrap();
            let (sum, n) = out
                .traces
                .records()
                .iter()
                .filter(|r| r.op.is_write())
                .fold((0.0, 0u32), |(s, n), r| (s + r.lat.chunk_server_us, n + 1));
            sum / n as f64
        };
        let single = mean_write(crate::replication::ReplicationPolicy::NONE);
        let triple = mean_write(crate::replication::ReplicationPolicy::THREE_WAY);
        assert!(
            triple > single * 1.1,
            "3-way {triple:.0} vs 1-way {single:.0}"
        );
    }

    #[test]
    fn trace_entities_match_fleet_topology() {
        let (out, _) = simulate(37);
        let ds = generate(&WorkloadConfig::quick(37)).unwrap();
        for r in out.traces.records().iter().take(500) {
            assert_eq!(ds.fleet.vds[r.vd].vm, r.vm);
            assert_eq!(ds.fleet.vms[r.vm].cn, r.cn);
            assert_eq!(ds.fleet.cn_of_wt(r.wt), r.cn);
            assert_eq!(ds.fleet.block_servers[r.bs].sn, r.sn);
        }
    }

    #[test]
    fn shared_plan_reproduces_per_run_output() {
        let ds = generate(&WorkloadConfig::quick(40)).unwrap();
        let mut sim = StackSim::new(&ds.fleet, StackConfig::default());
        let direct = sim.run(&ds.events).unwrap();
        let plan = sim.plan(&ds.events).unwrap();
        let planned = sim.run_planned(&ds.events, &plan).unwrap();
        assert_eq!(direct.stats, planned.stats);
        assert_eq!(direct.traces.records(), planned.traces.records());
    }

    #[test]
    fn sweep_points_match_standalone_runs() {
        let ds = generate(&WorkloadConfig::quick(41)).unwrap();
        let base = StackConfig::default();
        let sim = StackSim::new(&ds.fleet, base.clone());
        let plan = sim.plan(&ds.events).unwrap();
        let mut sweep = StackSweep::new(&ds.fleet, &ds.events, &plan, base.clone()).unwrap();
        for k in 0..4u32 {
            let mut cfg = base.clone();
            cfg.latency.cs_write.base_us *= 1.0 + 0.25 * k as f64;
            cfg.latency.frontend.jitter_sigma *= 1.0 + 0.1 * k as f64;
            let swept = sweep.run_point(&cfg).unwrap();
            let mut standalone = StackSim::new(&ds.fleet, cfg);
            let full = standalone.run(&ds.events).unwrap();
            assert_eq!(full.stats, swept.stats);
            assert_eq!(full.traces.records(), swept.traces.records());
        }
    }

    #[test]
    fn session_steps_concatenate_to_batch_run() {
        let ds = generate(&WorkloadConfig::quick(43)).unwrap();
        let mut sim = StackSim::new(&ds.fleet, StackConfig::default());
        let batch = sim.run(&ds.events).unwrap();

        let mut session = SimSession::new(&ds.fleet, StackConfig::default()).unwrap();
        let mut records = Vec::new();
        // Uneven slice boundaries, including an empty slice.
        let n = ds.events.len();
        let cuts = [0, n / 3, n / 3, n / 2, (3 * n) / 4, n];
        for pair in cuts.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            let slice = &ds.events[lo..hi];
            // Per-slice plans, exactly how the serve loop routes epochs.
            let sub = sim.plan(slice).unwrap();
            let out = session.step(slice, &sub).unwrap();
            records.extend_from_slice(out.traces.records());
        }
        let agg = session.finish();
        assert_eq!(agg, batch.stats);
        assert_eq!(records.len(), batch.traces.records().len());
        assert_eq!(records, batch.traces.records());
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
            assert_eq!(s.vd_cap_scale(id), 100.0);
        }
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

    #[test]
    fn sweep_rejects_non_sweepable_changes() {
        let ds = generate(&WorkloadConfig::quick(42)).unwrap();
        let base = StackConfig::default();
        let sim = StackSim::new(&ds.fleet, base.clone());
        let plan = sim.plan(&ds.events).unwrap();
        let mut sweep = StackSweep::new(&ds.fleet, &ds.events, &plan, base.clone()).unwrap();
        let mut bad_seed = base.clone();
        bad_seed.seed ^= 1;
        assert!(sweep.run_point(&bad_seed).is_err());
        let mut bad_replicas = base.clone();
        bad_replicas.replication = ReplicationPolicy::NONE;
        assert!(sweep.run_point(&bad_replicas).is_err());
        // Quorum-only changes are sweepable.
        let mut majority = base;
        majority.replication = ReplicationPolicy::THREE_WAY_MAJORITY;
        assert!(sweep.run_point(&majority).is_ok());
    }
}
