//! Cross-crate determinism: one seed must reproduce every artifact bit-
//! for-bit — datasets, stack traces, balancer placements, lending gains —
//! and the parallel execution layer must never perturb any of them: the
//! same seed yields byte-identical outputs at 1, 2, and N worker threads.
//! The observability layer rides the same contract: flipping `EBS_OBS`
//! records metrics but must never move a single output byte.

use ebs::balance::bs_balancer::{run_balancer, BalancerConfig};
use ebs::balance::importer::ImporterSelect;
use ebs::balance::wt_rebind::{simulate_fleet, RebindConfig};
use ebs::core::ids::DcId;
use ebs::core::parallel::set_thread_override;
use ebs::stack::sim::{StackConfig, StackSim};
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
        let mut sim = StackSim::new(&ds.fleet, cfg);
        sim.run(&ds.events).unwrap()
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.traces.records(), b.traces.records());
    // A different latency seed changes latencies but not routing.
    let c = run(10);
    assert_eq!(a.traces.len(), c.traces.len());
    assert_ne!(
        a.traces.records()[0].lat.total_us(),
        c.traces.records()[0].lat.total_us()
    );
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
        assert_thread_count_invariant(|| {
            simulate_fleet(&ds.fleet, &ds.events, &RebindConfig::default())
        });
    }
}

#[test]
fn parallel_cache_sweep_matches_serial() {
    use ebs::experiments::fig7;
    for seed in PARALLEL_SEEDS {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let idx = ds.index();
        let rows = assert_thread_count_invariant(|| {
            fig7::panel_a(idx)
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
    let path = std::env::temp_dir().join(format!("ebs-replay-{}.ebs", std::process::id()));
    let _ = std::fs::remove_file(&path);

    set_thread_override(Some(1));
    ebs::obs::set_obs_override(Some(false));
    let generated = dataset(Scale::Quick);
    let baseline = driver::run_all(&generated);
    // First call generates and saves; all later calls replay from the file.
    let saved = dataset_or_replay(Scale::Quick, &path).unwrap();
    assert_same_dataset(&generated, &saved);

    for threads in [1, 2, 8] {
        set_thread_override(Some(threads));
        let replayed = dataset_or_replay(Scale::Quick, &path).unwrap();
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
    let _ = std::fs::remove_file(&path);
}

/// The staged columnar pipeline must be indistinguishable from the
/// preserved event-at-a-time reference simulator: identical stats and
/// trace records for every seed, at 1, 2, and 8 worker threads, with
/// observability both off and on. This is the differential oracle that
/// lets the staged pipeline evolve without ever moving an output bit.
#[test]
fn staged_pipeline_matches_reference_simulator() {
    use ebs::stack::ReferenceSim;
    let _obs = obs_guard().lock().unwrap();
    let _threads = override_guard().lock().unwrap();
    for seed in PARALLEL_SEEDS {
        let ds = generate(&WorkloadConfig::quick(seed)).unwrap();
        let cfg = StackConfig::default();
        for obs_on in [false, true] {
            ebs::obs::set_obs_override(Some(obs_on));
            for threads in [1, 2, 8] {
                set_thread_override(Some(threads));
                let reference = ReferenceSim::new(&ds.fleet, cfg.clone())
                    .run(&ds.events)
                    .unwrap();
                let mut sim = StackSim::new(&ds.fleet, cfg.clone());
                let staged = sim.run(&ds.events).unwrap();
                assert_eq!(
                    reference.stats, staged.stats,
                    "stats diverged: seed={seed:#x} threads={threads} obs={obs_on}"
                );
                assert_eq!(
                    reference.traces.records(),
                    staged.traces.records(),
                    "traces diverged: seed={seed:#x} threads={threads} obs={obs_on}"
                );
            }
            set_thread_override(None);
        }
        ebs::obs::set_obs_override(None);
        // Configs that change the pipeline's shape: no throttle gates,
        // a majority write quorum, no fabric congestion. The loop above
        // covers thread counts, so these run once each.
        for variant in [
            StackConfig {
                apply_throttle: false,
                ..StackConfig::default()
            },
            StackConfig {
                replication: ebs::stack::ReplicationPolicy::THREE_WAY_MAJORITY,
                ..StackConfig::default()
            },
            StackConfig {
                model_congestion: false,
                ..StackConfig::default()
            },
        ] {
            let reference = ReferenceSim::new(&ds.fleet, variant.clone())
                .run(&ds.events)
                .unwrap();
            let staged = StackSim::new(&ds.fleet, variant.clone())
                .run(&ds.events)
                .unwrap();
            assert_eq!(
                reference.stats, staged.stats,
                "stats diverged: seed={seed:#x} config={variant:?}"
            );
            assert_eq!(
                reference.traces.records(),
                staged.traces.records(),
                "traces diverged: seed={seed:#x} config={variant:?}"
            );
        }
    }
}

/// The gold master pin: the full-scale driver with observability ON must
/// reproduce `full_run_output.txt` byte for byte (the file records
/// `bin/all`'s stdout, which joins sections with blank lines and ends with
/// the final newline `println!` appends). This is the slowest test of the
/// suite (~2 min on one core) and the one that makes "observability is
/// free" an enforced property rather than a comment.
#[test]
fn full_driver_with_obs_on_matches_gold_master() {
    use ebs::experiments::{dataset, driver, Scale};
    let _guard = obs_guard().lock().unwrap();
    let gold = std::fs::read_to_string("full_run_output.txt").expect("gold master present");
    let ds = dataset(Scale::Full);
    ebs::obs::set_obs_override(Some(true));
    let out = format!("{}\n", driver::run_all(&ds).join("\n\n"));
    ebs::obs::set_obs_override(None);
    assert_eq!(gold, out, "full-scale output moved with EBS_OBS on");
}

/// The serve gold master pin: the medium-scale control plane with all
/// four online policies must reproduce `serve_epochs_gold.jsonl` byte
/// for byte (the file records the per-epoch metrics stream of
/// `serve --medium --epoch 60 --window 5 --policies
/// rebind,lend,balance,cache`). Epoch cuts, window folds, and every
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
