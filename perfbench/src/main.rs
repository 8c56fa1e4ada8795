//! Repository benchmark for the ebs-skew workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds [`INPUTS`] medium-scale synthetic traces from `--seed` (the
//! set-up, timed [`SETUP_REPS`] times), warms up with one untimed
//! operation, then repeats the workload's operation over all of them for
//! `--seconds`:
//!
//! * `serve`: the epoch-time control plane under its default online
//!   policies (`bin/serve --policies rebind,lend,balance`);
//! * `ingest`: `Dataset::save` to an ebs-store container, then
//!   `Dataset::load` back.
//!
//! Every operation's output is checked against the warm-up's (run-to-run
//! determinism), and each workload checks one more invariant: serve under
//! no-op policies equal to the batch simulation, and a loaded store equal
//! to the saved dataset. The last stdout line is one JSON object:
//! `--trace 0` reports the end-to-end metrics, `--trace 1` runs the same
//! operations with spans around each layer call and reports the per-layer
//! metrics.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use ebs_core::parallel::set_thread_override;
use ebs_serve::{
    serve, Action, EpochStats, NoopPolicy, OnlineBalancer, OnlineLender, OnlineRebinder, Policy,
    ServeConfig, ServeReport, WindowView,
};
use ebs_stack::{Binding, RoutePlan, SegmentMap, SimSession, SimStats, StackConfig, StackSim};
use ebs_workload::{build_fleet, generate_for_fleet, Dataset, WorkloadConfig};

const USAGE: &str = "usage: ebs-perfbench --workload <serve|ingest> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Operations timed per run even when `--seconds` runs out sooner.
const MIN_OPS: usize = 5;
/// Traces per input. Costs differ between traces of one fleet by tens of
/// percent (which disks run hot, how often the throttle and the policies
/// engage); an operation over several averages that out.
const INPUTS: u64 = 4;
/// Worker threads of the ebs-core pool, pinned so that a result does not
/// depend on how many cores the host has. One thread keeps timings steady
/// on a shared host.
const THREADS: usize = 1;
/// Serve epoch length and window of `serve`'s defaults. The observational
/// page cache stays off, as in `serve` by default: its cost follows the
/// bytes moved, which the traces do not hold steady.
const EPOCH_SECS: f64 = 60.0;
const WINDOW_EPOCHS: usize = 5;
/// Sampled events in each trace (a medium trace holds about this many at
/// the canonical seed).
const TARGET_EVENTS: f64 = 50_000.0;
/// Seed of the fleet topology every trace shares: the canonical
/// experiment seed.
const FLEET_SEED: u64 = 0xEB5_2025;
/// Where `ingest` writes its store, relative to the working directory.
const SCRATCH_DIR: &str = ".perfbench-tmp";

/// Per-layer metrics (`--trace 1`) with units. Both workloads report all
/// of them: 0 for a layer a workload does not call.
const LAYER_METRICS: [(&str, &str); 11] = [
    ("generate_ms", "ms"),
    ("serve_ms", "ms"),
    ("route_plan_ms", "ms"),
    ("sim_step_ms", "ms"),
    ("epoch_fold_ms", "ms"),
    ("policy_observe_ms", "ms"),
    ("store_encode_ms", "ms"),
    ("store_decode_ms", "ms"),
    ("store_bytes", "bytes"),
    ("throttled_ios", "count"),
    ("actions_rejected", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?.to_string();
    if !["serve", "ingest"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer".to_string())?;
    let seconds = get("--seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .ok_or_else(|| "--seconds must be a positive number".to_string())?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| {
        eprintln!("{msg}\n{USAGE}");
        std::process::exit(2);
    });
    set_thread_override(Some(THREADS));
    let report = match args.workload.as_str() {
        "serve" => serve_workload(&args),
        _ => ingest(&args),
    };
    match report {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Generates the traces every workload starts from, under a `generate_ms`
/// span: [`INPUTS`] seeded traffic traces over the medium fleet of
/// [`FLEET_SEED`].
///
/// A seed's fleet shape (disks, queue pairs, segments) and its
/// heavy-tailed intensities each swing the cost of every workload by tens
/// of percent, which would drown the differences the benchmark exists to
/// show. So the fleet is pinned, and each trace's traffic scale is refitted
/// twice to land near [`TARGET_EVENTS`] sampled events. The number of
/// generations is fixed, so set-up does the same work for every seed.
fn generate_inputs(seed: u64, l: &mut Layers) -> Result<Vec<Dataset>, String> {
    let fleet_config = WorkloadConfig::medium(FLEET_SEED);
    l.time("generate_ms", || {
        let fleet = build_fleet(&fleet_config)?;
        (0..INPUTS)
            .map(|i| {
                let mut config = WorkloadConfig {
                    seed: seed.wrapping_mul(INPUTS).wrapping_add(i),
                    ..fleet_config.clone()
                };
                let mut ds = generate_for_fleet(&config, fleet.clone())?;
                for _ in 0..2 {
                    config.traffic_scale *= TARGET_EVENTS / ds.events.len().max(1) as f64;
                    ds = generate_for_fleet(&config, fleet.clone())?;
                }
                // A stored dataset's loader rebuilds the fleet from the
                // stored config, so the config names the fleet's seed.
                ds.config.seed = FLEET_SEED;
                Ok(ds)
            })
            .collect::<Result<Vec<_>, ebs_core::error::EbsError>>()
    })
    .map_err(err)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Spans (in ms) and counts, summed within one operation; a metric reports
/// the median over operations.
#[derive(Default)]
struct Layers {
    current: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64() * 1e3);
        out
    }

    fn add(&mut self, name: &str, value: f64) {
        *self.current.entry(name.to_string()).or_insert(0.0) += value;
    }

    fn end_op(&mut self) {
        for (name, value) in std::mem::take(&mut self.current) {
            self.samples.entry(name).or_default().push(value);
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }
}

/// Operations run and operations whose output failed its check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Builds the input [`SETUP_REPS`] times; returns the last one and the
/// median wall time in seconds.
fn setup<T>(
    layers: &mut Layers,
    mut build: impl FnMut(&mut Layers) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // One input alive at a time, so peak memory is that of one input.
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build(layers)?);
        secs.push(t0.elapsed().as_secs_f64());
        layers.end_op();
    }
    Ok((built.expect("SETUP_REPS > 0"), median(&secs)))
}

/// Runs `op` once untimed (warm-up and reference output), then repeats it
/// for `seconds`, at least [`MIN_OPS`] times, checking each output with
/// `same(reference, output)`. Returns the reference and each timed
/// operation's wall time in ms.
fn measure<T>(
    seconds: f64,
    layers: &mut Layers,
    tally: &mut Tally,
    mut op: impl FnMut(&mut Layers) -> Result<T, String>,
    same: impl Fn(&T, &T) -> bool,
) -> Result<(T, Vec<f64>), String> {
    let reference = op(layers)?;
    tally.attempted += 1;
    layers.current.clear();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let out = op(layers);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        layers.end_op();
        match out {
            Ok(out) => tally.record(same(&reference, &out), "output differs from the warm-up's"),
            Err(e) => tally.record(false, &e),
        }
    }
    Ok((reference, times))
}

/// One run's result: the last line of stdout.
struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new(
        args: &Args,
        tally: Tally,
        invariants_hold: bool,
        setup_s: f64,
        times_ms: &[f64],
        layers: &Layers,
    ) -> Result<Report, String> {
        let metrics: Vec<(String, f64, &'static str)> = if args.trace {
            LAYER_METRICS
                .iter()
                .map(|&(name, unit)| (name.to_string(), layers.median(name), unit))
                .collect()
        } else {
            vec![
                ("latency_ms".into(), median(times_ms), "ms"),
                ("setup_s".into(), setup_s, "s"),
                ("peak_rss_mib".into(), peak_rss_mib()?, "MiB"),
            ]
        };
        let finite = metrics.iter().all(|m| m.1.is_finite());
        Ok(Report {
            attempted: tally.attempted,
            failed: tally.failed,
            correct: tally.failed == 0 && invariants_hold && finite,
            metrics,
        })
    }

    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig::fast_forward(EPOCH_SECS, WINDOW_EPOCHS, StackConfig::default())
        .expect("the epoch length is positive")
}

/// The default online policies of `serve`: rebind, lend, balance.
fn online_policies(stack: &StackConfig) -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(OnlineRebinder::default()),
        Box::new(OnlineLender::new(
            ebs_throttle::LendingConfig::default(),
            stack.throttle_scale,
        )),
        Box::new(OnlineBalancer::new(
            ebs_balance::bs_balancer::BalancerConfig::default(),
        )),
    ]
}

/// Sums the wall time a policy spends in `observe`.
struct TimedPolicy {
    inner: Box<dyn Policy>,
    ms: Rc<Cell<f64>>,
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, view: &WindowView<'_>) -> Vec<Action> {
        let t0 = Instant::now();
        let actions = self.inner.observe(view);
        self.ms
            .set(self.ms.get() + t0.elapsed().as_secs_f64() * 1e3);
        actions
    }
}

/// The serve loop under no-op policies, with a span around each layer
/// call: route plan, simulator step, epoch fold. Returns the aggregate.
fn traced_noop_serve(
    ds: &Dataset,
    config: &ServeConfig,
    l: &mut Layers,
) -> Result<SimStats, String> {
    let horizon = ds.events.last().map_or(0, |ev| ev.t_us + 1);
    let binding = Binding::from_fleet(&ds.fleet);
    let seg_map = SegmentMap::from_fleet(&ds.fleet);
    let mut session = SimSession::new(&ds.fleet, config.stack.clone()).map_err(err)?;
    for slice in config
        .epoch
        .cuts(&ds.events, config.epoch.count_for(horizon))
    {
        let plan = l
            .time("route_plan_ms", || {
                RoutePlan::build(&ds.fleet, &binding, &seg_map, slice.events)
            })
            .map_err(err)?;
        let out = l
            .time("sim_step_ms", || session.step(slice.events, &plan))
            .map_err(err)?;
        let stats = l.time("epoch_fold_ms", || {
            EpochStats::fold(
                &ds.fleet,
                slice.epoch,
                slice.start_us,
                slice.events,
                &plan,
                &out,
            )
        });
        std::hint::black_box(stats);
    }
    Ok(session.finish())
}

/// Serves one trace under the online policies; with `trace`, also records
/// per-layer spans and counts, and runs the traced no-op loop.
fn serve_once(
    ds: &Dataset,
    config: &ServeConfig,
    trace: bool,
    l: &mut Layers,
) -> Result<(ServeReport, Option<SimStats>), String> {
    let policy_ms = Rc::new(Cell::new(0.0));
    let mut policies = online_policies(&config.stack);
    if trace {
        policies = policies
            .into_iter()
            .map(|inner| {
                Box::new(TimedPolicy {
                    inner,
                    ms: Rc::clone(&policy_ms),
                }) as Box<dyn Policy>
            })
            .collect();
    }
    let report = l
        .time("serve_ms", || {
            serve(&ds.fleet, config, &ds.events, &mut policies)
        })
        .map_err(err)?;
    if !trace {
        return Ok((report, None));
    }
    l.add("policy_observe_ms", policy_ms.get());
    l.add("throttled_ios", report.aggregate.throttled as f64);
    let rejected: u64 = report.epochs.iter().map(|e| e.applied.rejected).sum();
    l.add("actions_rejected", rejected as f64);
    let noop = traced_noop_serve(ds, config, l)?;
    Ok((report, Some(noop)))
}

/// `serve`: the online control plane over each trace.
fn serve_workload(args: &Args) -> Result<Report, String> {
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let (inputs, setup_s) = setup(&mut layers, |l| generate_inputs(args.seed, l))?;
    let config = serve_config();
    let (reference, times) = measure(
        args.seconds,
        &mut layers,
        &mut tally,
        |l| {
            inputs
                .iter()
                .map(|ds| serve_once(ds, &config, args.trace, l))
                .collect::<Result<Vec<_>, String>>()
        },
        |a, b| {
            a.iter().zip(b).all(|((a, a_noop), (b, b_noop))| {
                a.metrics_jsonl == b.metrics_jsonl
                    && a.aggregate == b.aggregate
                    && a.consumed == b.consumed
                    && a_noop == b_noop
            })
        },
    )?;
    let mut conserved = true;
    for (ds, (report, traced_noop)) in inputs.iter().zip(&reference) {
        // Serving under no-op policies must reproduce the batch simulation.
        let batch = StackSim::new(&ds.fleet, config.stack.clone())
            .run(&ds.events)
            .map_err(err)?
            .stats;
        let mut noop: Vec<Box<dyn Policy>> = vec![Box::new(NoopPolicy)];
        let served = serve(&ds.fleet, &config, &ds.events, &mut noop).map_err(err)?;
        tally.record(
            served.aggregate == batch,
            "no-op serve differs from the batch run",
        );
        let epoch_ios: u64 = report.epochs.iter().map(|e| e.ios).sum();
        conserved &= report.consumed == ds.events.len()
            && epoch_ios == report.aggregate.ios
            && traced_noop.is_none_or(|stats| stats == batch);
    }
    if !conserved {
        eprintln!("check failed: served IOs do not add up to the trace");
    }
    Report::new(args, tally, conserved, setup_s, &times, &layers)
}

/// Removes the run's scratch directory, also on an early return.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Left in place while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn same_dataset(a: &Dataset, b: &Dataset) -> bool {
    a.events == b.events
        && a.compute.ticks == b.compute.ticks
        && a.compute.per_qp == b.compute.per_qp
        && a.storage.ticks == b.storage.ticks
        && a.storage.per_seg == b.storage.per_seg
        && a.fleet.vd_count() == b.fleet.vd_count()
        && a.config.seed == b.config.seed
}

/// `ingest`: persist each trace as an ebs-store container and load it back.
fn ingest(args: &Args) -> Result<Report, String> {
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let (inputs, setup_s) = setup(&mut layers, |l| generate_inputs(args.seed, l))?;
    let scratch = ScratchDir(PathBuf::from(SCRATCH_DIR).join(std::process::id().to_string()));
    std::fs::create_dir_all(&scratch.0).map_err(err)?;
    let path = scratch.0.join("trace.ebs");
    let (reference, times) = measure(
        args.seconds,
        &mut layers,
        &mut tally,
        |l| {
            let mut loaded = Vec::with_capacity(inputs.len());
            for ds in &inputs {
                l.time("store_encode_ms", || ds.save(&path)).map_err(err)?;
                loaded.push(
                    l.time("store_decode_ms", || Dataset::load(&path))
                        .map_err(err)?,
                );
                l.add(
                    "store_bytes",
                    std::fs::metadata(&path).map_err(err)?.len() as f64,
                );
            }
            Ok(loaded)
        },
        |_, loaded| inputs.iter().zip(loaded).all(|(a, b)| same_dataset(a, b)),
    )?;
    let round_trips = inputs
        .iter()
        .zip(&reference)
        .all(|(a, b)| same_dataset(a, b));
    if !round_trips {
        eprintln!("check failed: a loaded store differs from the saved dataset");
    }
    Report::new(args, tally, round_trips, setup_s, &times, &layers)
}
