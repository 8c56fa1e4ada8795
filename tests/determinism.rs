//! Cross-crate determinism: one seed must reproduce every artifact bit-
//! for-bit — datasets, stack traces, balancer placements, lending gains —
//! and the parallel execution layer must never perturb any of them: the
//! same seed yields byte-identical outputs at 1, 2, and N worker threads.
//! The observability layer rides the same contract: flipping `EBS_OBS`
//! records metrics but must never move a single output byte.

use ebs::balance::bs_balancer::{run_balancer, BalancerConfig};
use ebs::balance::importer::ImporterSelect;
use ebs::balance::wt_rebind::{events_by_cn, simulate_fleet, RebindConfig};
use ebs::core::ids::DcId;
use ebs::core::parallel::set_thread_override;
use ebs::stack::route::RoutePlan;
use ebs::stack::sim::{SimOutput, StackConfig, StackSim};
use ebs::throttle::lending::{lending_gains, LendingConfig};
use ebs::throttle::scenario::{build_groups, CapDim};
use ebs::workload::{generate, Dataset, WorkloadConfig};
use std::sync::{Mutex, OnceLock};

/// Serializes the tests that flip the process-wide thread override.
fn override_guard() -> &'static Mutex<()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD.get_or_init(|| Mutex::new(()))
}

/// Serializes the tests that flip the process-wide observability override
/// against every test that would record into the global registry while it
/// is on (i.e. any test that runs a simulator). Lock ordering: obs guard
/// first, then the thread-override guard, never the reverse.
fn obs_guard() -> &'static Mutex<()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD.get_or_init(|| Mutex::new(()))
}

/// Run `f` at 1, 2, and N(=8) worker threads and assert all three results
/// are identical. The 1-thread run takes the pure serial path, so this
/// pins "parallel == serial" for every seed it is called with.
fn assert_thread_count_invariant<T, F>(f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    let _guard = override_guard().lock().unwrap();
    set_thread_override(Some(1));
    let serial = f();
    for threads in [2, 8] {
        set_thread_override(Some(threads));
        let parallel = f();
        assert_eq!(serial, parallel, "output diverged at {threads} threads");
    }
    set_thread_override(None);
    serial
}

/// Datasets compared field by field (fleet topology is seed-determined
/// before any parallel fan-out, so events + metric series are the parts
/// the parallel generator could plausibly perturb).
fn assert_same_dataset(a: &Dataset, b: &Dataset) {
    assert_eq!(a.events, b.events);
    for (x, y) in a.compute.per_qp.iter().zip(b.compute.per_qp.iter()) {
        assert_eq!(x, y);
    }
    for (x, y) in a.storage.per_seg.iter().zip(b.storage.per_seg.iter()) {
        assert_eq!(x, y);
    }
}

#[test]
fn datasets_are_bitwise_reproducible() {
    let cfg = WorkloadConfig::quick(777);
    let a = generate(&cfg).unwrap();
    let b = generate(&cfg).unwrap();
    assert_eq!(a.events, b.events);
    for (x, y) in a.compute.per_qp.iter().zip(b.compute.per_qp.iter()) {
        assert_eq!(x, y);
    }
    for (x, y) in a.storage.per_seg.iter().zip(b.storage.per_seg.iter()) {
        assert_eq!(x, y);
    }
}

#[test]
fn different_seeds_produce_different_traffic() {
    let a = generate(&WorkloadConfig::quick(1)).unwrap();
    let b = generate(&WorkloadConfig::quick(2)).unwrap();
    assert_ne!(a.total_bytes(), b.total_bytes());
}

#[test]
fn stack_traces_are_reproducible() {
    let ds = generate(&WorkloadConfig::quick(778)).unwrap();
    let run = |seed| {
        let cfg = StackConfig {
            seed,
            ..StackConfig::default()
        };
        let sim = StackSim::new(&ds.fleet, cfg);
        let plan = sim.plan(&ds.events).unwrap();
        (sim.run_planned(&ds.events, &plan).unwrap(), plan)
    };
    let (a, a_plan) = run(9);
    let (b, b_plan) = run(9);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.lat, b.lat);
    assert_eq!(a_plan.routes(), b_plan.routes());
    // A different latency seed changes latencies but not routing.
    let (c, c_plan) = run(10);
    assert_eq!(a.lat.len(), c.lat.len());
    assert_eq!(a_plan.routes(), c_plan.routes());
    assert_ne!(a.lat[0].total_us(), c.lat[0].total_us());
}

#[test]
fn balancer_runs_are_reproducible_even_with_random_importers() {
    let ds = generate(&WorkloadConfig::quick(779)).unwrap();
    let cfg = BalancerConfig {
        strategy: ImporterSelect::Random,
        ..BalancerConfig::default()
    };
    let a = run_balancer(&ds.fleet, &ds.storage, DcId(0), &cfg);
    let b = run_balancer(&ds.fleet, &ds.storage, DcId(0), &cfg);
    assert_eq!(a.seg_map.log(), b.seg_map.log());
    assert_eq!(a.cov_series, b.cov_series);
}

#[test]
fn lending_gains_are_reproducible() {
    let ds = generate(&WorkloadConfig::quick(780)).unwrap();
    let groups = build_groups(&ds.fleet, &ds.compute, CapDim::Throughput);
    let cfg = LendingConfig::default();
    assert_eq!(lending_gains(&groups, &cfg), lending_gains(&groups, &cfg));
}

/// The seeds the parallel == serial contract is pinned for: the default
/// workload seed, the experiment harness seed, and an arbitrary third.
const PARALLEL_SEEDS: [u64; 3] = [0xEB5_5EED, ebs::experiments::EXPERIMENT_SEED, 424_242];

#[test]
fn parallel_generation_matches_serial_for_every_seed() {
    let _guard = override_guard().lock().unwrap();
    for seed in PARALLEL_SEEDS {
        let cfg = WorkloadConfig::quick(seed);
        set_thread_override(Some(1));
        let serial = generate(&cfg).unwrap();
        for threads in [2, 8] {
            set_thread_override(Some(threads));
            let parallel = generate(&cfg).unwrap();
            assert_same_dataset(&serial, &parallel);
        }
        set_thread_override(None);
    }
}

#[test]
fn parallel_rebind_sweep_matches_serial() {
    for seed in PARALLEL_SEEDS {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let per_cn = events_by_cn(&ds.fleet, &ds.events);
        assert_thread_count_invariant(|| {
            simulate_fleet(&ds.fleet, &per_cn, &RebindConfig::default())
        });
    }
}

#[test]
fn parallel_cache_sweep_matches_serial() {
    use ebs::experiments::{driver::Shared, fig7};
    for seed in PARALLEL_SEEDS {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let rows = assert_thread_count_invariant(|| {
            fig7::panel_a(&Shared::new(&ds))
                .into_iter()
                .map(|r| (r.algo.label(), r.block_size, r.hit_ratio.p50, r.hit_ratio.n))
                .collect::<Vec<_>>()
        });
        assert!(
            !rows.is_empty(),
            "panel A produced no rows for seed {seed:#x}"
        );
    }
}

#[test]
fn parallel_experiment_driver_matches_serial() {
    use ebs::experiments::{dataset, driver, Scale};
    let ds = dataset(Scale::Quick);
    let sections = assert_thread_count_invariant(|| driver::run_all(&ds));
    assert_eq!(sections.len(), 11, "every section must render");
}

#[test]
fn obs_toggle_never_changes_driver_output() {
    use ebs::experiments::{dataset, driver, Scale};
    let _guard = obs_guard().lock().unwrap();
    let _threads = override_guard().lock().unwrap();
    let ds = dataset(Scale::Quick);
    ebs::obs::set_obs_override(Some(false));
    let off = driver::run_all(&ds);
    ebs::obs::set_obs_override(Some(true));
    ebs::obs::reset();
    let on = driver::run_all(&ds);
    let snap = ebs::obs::snapshot();
    ebs::obs::set_obs_override(None);
    assert_eq!(off, on, "EBS_OBS must not move a single output byte");
    // The run report must actually observe the simulators: at least the
    // four instrumented subsystems plus the driver itself.
    for prefix in ["stack.", "balance.", "throttle.", "cache.", "driver."] {
        assert!(
            snap.rows().iter().any(|r| r.name().starts_with(prefix)),
            "no {prefix}* metric in the run report"
        );
    }
    assert!(snap.counter("stack.sim.ios") > 0);
    assert_eq!(
        snap.counter("driver.events_processed"),
        ds.events.len() as u64
    );
}

#[test]
fn obs_metrics_are_thread_count_invariant() {
    use ebs::experiments::{dataset, driver, Scale};
    let _obs = obs_guard().lock().unwrap();
    let _threads = override_guard().lock().unwrap();
    let ds = dataset(Scale::Quick);
    ebs::obs::set_obs_override(Some(true));
    let deterministic_rows = |threads| {
        set_thread_override(Some(threads));
        ebs::obs::reset();
        driver::run_all(&ds);
        let snap = ebs::obs::snapshot();
        set_thread_override(None);
        // Wall-clock timers and the derived rate gauge legitimately vary;
        // every counter and histogram must not.
        snap.rows()
            .into_iter()
            .filter(|r| {
                matches!(
                    r,
                    ebs::obs::Row::Counter { .. } | ebs::obs::Row::Hist { .. }
                )
            })
            .collect::<Vec<_>>()
    };
    let serial = deterministic_rows(1);
    let parallel = deterministic_rows(8);
    ebs::obs::set_obs_override(None);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "recorded metrics diverged across threads");
}

/// Replaying the canonical dataset from an ebs-store file must be
/// indistinguishable from generating it in memory: same dataset fields,
/// and byte-identical driver output at 1, 2, and 8 worker threads, with
/// observability both off and on. This is the contract that makes
/// `bin/all --trace <path>` safe to use for the gold-master runs.
#[test]
fn replay_from_store_is_byte_identical_to_generation() {
    use ebs::experiments::{dataset, dataset_or_replay, driver, Scale};
    let _obs = obs_guard().lock().unwrap();
    let _threads = override_guard().lock().unwrap();
    let tmp = ebs::core::TempDir::new("replay").unwrap();
    let path = tmp.join("trace.ebs");

    set_thread_override(Some(1));
    ebs::obs::set_obs_override(Some(false));
    let generated = dataset(Scale::Quick);
    let baseline = driver::run_all(&generated);
    // First call generates and saves; all later calls replay from the file.
    let saved = dataset_or_replay(Scale::Quick, &path, None).unwrap();
    assert_same_dataset(&generated, &saved);

    for threads in [1, 2, 8] {
        set_thread_override(Some(threads));
        let replayed = dataset_or_replay(Scale::Quick, &path, None).unwrap();
        assert_same_dataset(&generated, &replayed);
        assert_eq!(
            baseline,
            driver::run_all(&replayed),
            "replayed output diverged at {threads} threads, obs off"
        );
        ebs::obs::set_obs_override(Some(true));
        ebs::obs::reset();
        assert_eq!(
            baseline,
            driver::run_all(&replayed),
            "replayed output diverged at {threads} threads, obs on"
        );
        ebs::obs::set_obs_override(Some(false));
    }

    set_thread_override(None);
    ebs::obs::set_obs_override(None);
}

/// One batch run (`StackSim::run_planned`, itself a one-step session)
/// and the route plan it ran under.
fn batch_run(ds: &Dataset, cfg: &StackConfig) -> (SimOutput, RoutePlan) {
    let sim = StackSim::new(&ds.fleet, cfg.clone());
    let plan = sim.plan(&ds.events).unwrap();
    let out = sim.run_planned(&ds.events, &plan).unwrap();
    (out, plan)
}

/// The simulator's stats, latency column and routes do not depend on the
/// worker thread count (1, 2, 8) or on whether observability records, for
/// every pinned seed.
#[test]
fn stack_sim_is_thread_and_obs_invariant() {
    let _obs = obs_guard().lock().unwrap();
    for seed in PARALLEL_SEEDS {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let cfg = StackConfig::default();
        let run = || {
            let (out, plan) = batch_run(&ds, &cfg);
            (out.stats, out.lat, plan.routes().to_vec())
        };
        ebs::obs::set_obs_override(Some(false));
        let off = assert_thread_count_invariant(run);
        ebs::obs::set_obs_override(Some(true));
        let on = assert_thread_count_invariant(run);
        ebs::obs::set_obs_override(None);
        assert!(
            off == on,
            "seed={seed:#x}: EBS_OBS moved the simulator output"
        );
    }
}

/// A session stepped over uneven epoch slices — random lengths, empty
/// slices included, each routed by its own plan as the serve loop does —
/// reproduces one batch run's latency column, routes and aggregate over
/// the whole stream.
#[test]
fn session_slices_match_batch_run() {
    use ebs::core::rng::SimRng;
    use ebs::stack::SimSession;
    let _obs = obs_guard().lock().unwrap();
    for seed in PARALLEL_SEEDS {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let n = ds.events.len();
        let unthrottled = StackConfig {
            apply_throttle: false,
            ..StackConfig::default()
        };
        for cfg in [StackConfig::default(), unthrottled] {
            let (whole, whole_plan) = batch_run(&ds, &cfg);
            let sim = StackSim::new(&ds.fleet, cfg.clone());
            let mut session = SimSession::new(&ds.fleet, cfg.clone()).unwrap();
            let mut rng = SimRng::seed_from_u64(seed);
            // An empty first slice, then random lengths (0 included).
            let first = session.step(&[], &sim.plan(&[]).unwrap()).unwrap();
            assert_eq!(first.lat.len(), 0);
            let (mut lat, mut routes, mut lo, mut slices) = (Vec::new(), Vec::new(), 0, 0);
            while lo < n {
                let hi = (lo + rng.index(n / 6 + 1)).min(n);
                let slice = &ds.events[lo..hi];
                let plan = sim.plan(slice).unwrap();
                let out = session.step(slice, &plan).unwrap();
                lat.extend_from_slice(&out.lat);
                routes.extend_from_slice(plan.routes());
                (lo, slices) = (hi, slices + 1);
            }
            assert!(slices > 3, "seed={seed:#x}: too few slices");
            assert_eq!(session.finish(), whole.stats, "seed={seed:#x} {cfg:?}");
            assert_eq!(lat, whole.lat, "seed={seed:#x} {cfg:?}");
            assert_eq!(routes, whole_plan.routes(), "seed={seed:#x} {cfg:?}");
        }
    }
}

/// An independent oracle for the draw order. With the throttle off,
/// every stage but compute is a pure function of the `stack/latency`
/// stream and the fabric links: per event, one `StageParams::sample` each
/// for compute, frontend, BlockServer and backend, then one ChunkServer
/// read sample or three write samples, the write completing at the
/// slowest. The frontend and backend samples are scaled by the congestion
/// of the event's CN uplink and SN backend link, replayed on a fresh
/// `FabricModel` over the route plan. This re-derives those four stages
/// from a fresh stream, bit for bit; compute adds WT queueing to its
/// service draw, so it can only be larger.
#[test]
fn stage_latencies_follow_the_documented_draw_order() {
    use ebs::core::io::Op;
    use ebs::core::rng::RngFactory;
    use ebs::stack::FabricModel;
    let _obs = obs_guard().lock().unwrap();
    for seed in PARALLEL_SEEDS {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let cfg = StackConfig {
            apply_throttle: false,
            ..StackConfig::default()
        };
        let sim = StackSim::new(&ds.fleet, cfg.clone());
        let plan = sim.plan(&ds.events).unwrap();
        let out = sim.run_planned(&ds.events, &plan).unwrap();
        let m = &cfg.latency;
        let mut rng = RngFactory::new(cfg.seed).child("stack").stream("latency");
        let mut fabric =
            FabricModel::new(ds.fleet.compute_nodes.len(), ds.fleet.storage_nodes.len());
        assert_eq!(out.lat.len(), ds.events.len());
        let events = ds.events.iter().zip(plan.routes()).zip(&out.lat);
        for (i, ((ev, route), lat)) in events.enumerate() {
            let (t, bytes) = (ev.t_us as f64, ev.size as f64);
            let congestion_f = fabric.frontend_transfer(route.cn.index(), t, bytes);
            let congestion_b = fabric.backend_transfer(route.sn.index(), t, bytes);
            let service = m.compute.sample(&mut rng, ev.size);
            let frontend = m.frontend.sample(&mut rng, ev.size);
            let block_server = m.block_server.sample(&mut rng, ev.size);
            let backend = m.backend.sample(&mut rng, ev.size);
            let chunk_server = match ev.op {
                Op::Read => m.cs_read.sample(&mut rng, ev.size),
                Op::Write => {
                    let mut acks: Vec<f64> = (0..3)
                        .map(|_| m.cs_write.sample(&mut rng, ev.size))
                        .collect();
                    acks.sort_by(f64::total_cmp);
                    acks[2]
                }
            };
            let got = [
                lat.frontend_us,
                lat.block_server_us,
                lat.backend_us,
                lat.chunk_server_us,
            ];
            let want = [
                frontend * congestion_f,
                block_server,
                backend * congestion_b,
                chunk_server,
            ];
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "seed={seed:#x} event {i}"
            );
            assert!(lat.compute_us >= service, "seed={seed:#x} event {i}");
        }
    }
}

/// Run the whole experiment driver at `scale` with observability ON and
/// render it as `bin/all` prints it: sections joined with blank lines,
/// plus the final newline `println!` appends.
fn driver_output_with_obs_on(scale: ebs::experiments::Scale) -> String {
    use ebs::experiments::{dataset, driver};
    let ds = dataset(scale);
    ebs::obs::set_obs_override(Some(true));
    let out = format!("{}\n", driver::run_all(&ds).join("\n\n"));
    ebs::obs::set_obs_override(None);
    out
}

/// The tier-1 gold master pin: the medium-scale driver with
/// observability ON must reproduce `medium_run_output.txt` (the stdout
/// of `all --medium`) byte for byte. This is the test that makes
/// "observability is free" an enforced property rather than a comment.
#[test]
fn medium_driver_with_obs_on_matches_gold_master() {
    let _guard = obs_guard().lock().unwrap();
    let gold = std::fs::read_to_string("medium_run_output.txt").expect("gold master present");
    let out = driver_output_with_obs_on(ebs::experiments::Scale::Medium);
    assert_eq!(gold, out, "medium-scale output moved with EBS_OBS on");
}

/// The full-scale gold master pin: `full_run_output.txt` with
/// observability ON. Minutes in a debug build, so it is ignored by
/// default and CI runs it in release:
/// `cargo test --release --test determinism -- --ignored`.
#[test]
#[ignore = "full scale: minutes unoptimized; CI runs it in release"]
fn full_scale_driver_with_obs_on_matches_gold_master() {
    let _guard = obs_guard().lock().unwrap();
    let gold = std::fs::read_to_string("full_run_output.txt").expect("gold master present");
    let out = driver_output_with_obs_on(ebs::experiments::Scale::Full);
    assert_eq!(gold, out, "full-scale output moved with EBS_OBS on");
}

/// The serve gold master pin: the medium-scale control plane with all
/// four online policies must reproduce `serve_epochs_gold.jsonl` byte
/// for byte (the file records the per-epoch metrics stream of
/// `serve --medium --epoch 60 --policies rebind,lend,balance,cache`,
/// whose window is 5 epochs). Epoch cuts, window folds, and every
/// policy decision are pinned across versions by this file, on top of
/// the run-to-run/thread/shard invariance the ebs-serve suite asserts.
#[test]
fn serve_metrics_stream_matches_gold_master() {
    use ebs::serve::{
        serve, OnlineBalancer, OnlineCacheTuner, OnlineLender, OnlineRebinder, Policy, ServeConfig,
    };
    let gold = std::fs::read_to_string("serve_epochs_gold.jsonl").expect("gold master present");
    let ds = generate(&WorkloadConfig::medium(0xEB5_2025)).unwrap();
    let stack = StackConfig::default();
    let mut config = ServeConfig::fast_forward(60.0, 5, stack.clone()).unwrap();
    config.cache_pages = Some(4096); // bin/serve's default when `cache` is selected
    let mut policies: Vec<Box<dyn Policy>> = vec![
        Box::new(OnlineRebinder::default()),
        Box::new(OnlineLender::new(
            ebs::throttle::LendingConfig::default(),
            stack.throttle_scale,
        )),
        Box::new(OnlineBalancer::new(
            ebs::balance::bs_balancer::BalancerConfig::default(),
        )),
        Box::new(OnlineCacheTuner::new(4096)),
    ];
    let report = serve(&ds.fleet, &config, &ds.events, &mut policies).unwrap();
    assert_eq!(
        gold, report.metrics_jsonl,
        "serve per-epoch metrics moved against the gold master"
    );
}

/// Saved containers of two quick datasets and one medium dataset (the
/// shape the repository benchmark's `ingest` saves and loads), pinned by
/// length and `seal32` fingerprint. The store format is a compatibility
/// contract: a codec rewrite must reproduce these files byte for byte, and
/// only a deliberate format change (with a `VERSION` bump) may re-record
/// the constants.
#[test]
fn store_containers_match_pinned_fingerprints() {
    const PINS: [(&str, u64, u64, u32); 3] = [
        ("quick", 21, 850_501, 0x8617_96a7),
        ("quick", 505, 1_118_855, 0xd212_1e94),
        ("medium", 0xEB5_2025, 5_650_654, 0xcbc9_b583),
    ];
    let tmp = ebs::core::TempDir::new("store-pin").unwrap();
    let got = PINS.map(|(scale, seed, _, _)| {
        let path = tmp.join(format!("{scale}-{seed}.ebs"));
        let config = match scale {
            "quick" => WorkloadConfig::quick(seed),
            _ => WorkloadConfig::medium(seed),
        };
        generate(&config).unwrap().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (
            scale,
            seed,
            bytes.len() as u64,
            ebs::store::seal::seal32(&bytes),
        )
    });
    assert_eq!(
        got, PINS,
        "container bytes moved: (scale, seed, length, seal32)"
    );
}

/// `Dataset::load` decodes the metric chunks through a fixed window, yet
/// publishes the store counters a whole-chunk walk of the same file does:
/// every chunk, and every byte of the file.
#[test]
fn store_load_counters_match_a_whole_chunk_walk() {
    use ebs::store::ChunkReader;
    let _obs = obs_guard().lock().unwrap();
    let tmp = ebs::core::TempDir::new("store-counters").unwrap();
    let path = tmp.join("medium.ebs");
    generate(&WorkloadConfig::medium(1))
        .unwrap()
        .save(&path)
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let counters = |read: &dyn Fn()| {
        ebs::obs::reset();
        read();
        let snap = ebs::obs::snapshot();
        (
            snap.counter("store.chunks_read"),
            snap.counter("store.bytes_read"),
        )
    };
    ebs::obs::set_obs_override(Some(true));
    let windowed = counters(&|| {
        Dataset::load(&path).unwrap();
    });
    let whole = counters(&|| {
        let mut reader = ChunkReader::new(bytes.as_slice()).unwrap();
        while reader.next_frame().unwrap().is_some() {
            reader.read_payload_into(&mut Vec::new()).unwrap();
        }
    });
    ebs::obs::set_obs_override(None);
    assert_eq!(windowed, whole);
    assert_eq!(whole.1, bytes.len() as u64);
    assert!(whole.0 > 4, "{whole:?}");
}

/// The store's size gate: a container is at most half the size of the CSV
/// export of the same data. Sizes are deterministic, so this is a check on
/// byte counts: the medium container pinned above against the four CSV
/// tables, and an events-only container against `events.csv`.
#[test]
fn store_is_at_most_half_the_size_of_the_csv_export() {
    use ebs::store::{StoreWriter, EVENTS_PER_CHUNK};
    use ebs::workload::export::{
        write_compute_metrics_csv, write_events_csv, write_specs_csv, write_storage_metrics_csv,
    };
    let ds = generate(&WorkloadConfig::medium(0xEB5_2025)).unwrap();
    let tmp = ebs::core::TempDir::new("store-size").unwrap();
    let path = tmp.join("medium.ebs");
    ds.save(&path).unwrap();
    let container = std::fs::metadata(&path).unwrap().len() as f64;
    let mut events_csv = Vec::new();
    write_events_csv(&ds, &mut events_csv).unwrap();
    let mut tables = events_csv.clone();
    write_compute_metrics_csv(&ds, &mut tables).unwrap();
    write_storage_metrics_csv(&ds, &mut tables).unwrap();
    write_specs_csv(&ds, &mut tables).unwrap();
    let mut w = StoreWriter::new(Vec::new()).unwrap();
    w.write_events_chunked(&ds.events, EVENTS_PER_CHUNK)
        .unwrap();
    let events_store = w.finish().unwrap();

    let full_ratio = container / tables.len() as f64;
    let events_ratio = events_store.len() as f64 / events_csv.len() as f64;
    assert!(
        full_ratio <= 0.5,
        "container {container} B vs {} B of CSV tables: {full_ratio:.3}",
        tables.len()
    );
    assert!(
        events_ratio <= 0.5,
        "events-only container {} B vs {} B of events.csv: {events_ratio:.3}",
        events_store.len(),
        events_csv.len()
    );
}
