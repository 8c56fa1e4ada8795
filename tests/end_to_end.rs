//! Workspace integration test: the full generate → simulate → analyze
//! pipeline, asserting the fidelity targets of DESIGN.md §5 on one
//! medium-scale dataset, and the exact-size memory model of every
//! dataset builder.

use ebs::analysis::aggregate::{rollup_compute, rollup_storage, ComputeLevel, StorageLevel};
use ebs::analysis::{ccr, median, p2a};
use ebs::core::metric::Measure;
use ebs::stack::sim::{StackConfig, StackSim};
use ebs::workload::{calibration, generate, WorkloadConfig};

fn dataset() -> ebs::workload::Dataset {
    generate(&WorkloadConfig::medium(0xE2E)).expect("medium config validates")
}

#[test]
fn calibration_invariants_hold() {
    let ds = dataset();
    let problems = calibration::check_shape(&ds);
    assert!(problems.is_empty(), "shape violations: {problems:?}");
}

#[test]
fn vm_level_read_skew_beats_prior_work() {
    let ds = dataset();
    let reads = rollup_compute(
        &ds.fleet,
        &ds.compute,
        ComputeLevel::Vm,
        Measure::ReadBytes,
        |_| true,
    );
    let writes = rollup_compute(
        &ds.fleet,
        &ds.compute,
        ComputeLevel::Vm,
        Measure::WriteBytes,
        |_| true,
    );
    let r1 = ccr(&reads.totals(), 0.01).unwrap();
    let w1 = ccr(&writes.totals(), 0.01).unwrap();
    // Observation 1: far above Lee et al.'s 16.6 %.
    assert!(r1 > 0.2, "read 1%-CCR {r1:.3}");
    // Observation 2: reads skew harder than writes.
    assert!(r1 > w1, "read {r1:.3} vs write {w1:.3}");
}

#[test]
fn temporal_skew_read_dominates_and_segments_are_skewed() {
    let ds = dataset();
    let p2a_median = |measure| {
        let roll = rollup_compute(&ds.fleet, &ds.compute, ComputeLevel::Vm, measure, |_| true);
        let v: Vec<f64> = roll.series.iter().filter_map(|(_, s)| p2a(s)).collect();
        median(&v).unwrap()
    };
    let r = p2a_median(Measure::ReadBytes);
    let w = p2a_median(Measure::WriteBytes);
    assert!(r > 3.0 * w, "median VM P2A: read {r:.0} vs write {w:.0}");

    let segs = rollup_storage(
        &ds.fleet,
        &ds.storage,
        StorageLevel::Seg,
        Measure::TotalBytes,
        None,
        |_| true,
    );
    let s1 = ccr(&segs.totals(), 0.01).unwrap();
    assert!(s1 > 0.1, "segment 1%-CCR {s1:.3} — hotspots must exist");
}

#[test]
fn stack_simulation_is_lossless_and_consistent() {
    let ds = dataset();
    let sim = StackSim::new(
        &ds.fleet,
        StackConfig {
            apply_throttle: false,
            ..StackConfig::default()
        },
    );
    let plan = sim.plan(&ds.events).expect("sorted events");
    let out = sim.run_planned(&ds.events, &plan).expect("planned");
    // Every IO gets a route and a latency, row for row.
    assert_eq!(plan.len(), ds.events.len(), "every IO is routed");
    assert_eq!(out.lat.len(), ds.events.len(), "every IO gets a latency");
    assert_eq!(out.stats.ios, ds.events.len() as u64);
    // Every latency is positive and stage-ordered.
    for lat in out.lat.iter().take(2000) {
        assert!(lat.total_us() > 0.0);
        assert!(lat.cn_cache_us() <= lat.bs_cache_us());
    }
}

#[test]
fn sampled_stream_matches_metric_population() {
    let ds = dataset();
    let t = ds.compute.total();
    let expected = (t.read.ops + t.write.ops) * ebs::core::units::TRACE_SAMPLE_RATE;
    let got = ds.trace_count() as f64;
    assert!(
        (got - expected).abs() / expected < 0.25,
        "sampled {got} vs expected {expected}"
    );
}

/// Spare capacity, in elements, of a dataset's event vector. (A metric
/// series is a boxed slice, exact-size by its type.)
fn slack(ds: &ebs::workload::Dataset) -> usize {
    ds.events.capacity() - ds.events.len()
}

/// Memory guard for the side-split series: a series keeps an entry only
/// for the directions a tick actually moved, 18 bytes each (a `u16` tick
/// and two `f64`s), where a row of four `f64`s beside a padded tick took
/// 40 bytes per active tick.
#[test]
fn metric_series_hold_at_most_19_bytes_per_active_tick() {
    use ebs::core::io::IoEvent;
    use ebs::core::metric::Series;
    use std::mem::size_of;

    let ds = generate(&WorkloadConfig::quick(33)).unwrap();
    let series = || ds.compute.per_qp.iter().chain(ds.storage.per_seg.iter());
    let active: usize = series().map(|s| s.active_ticks()).sum();
    let entries: usize = series().map(|s| s.heap_bytes()).sum();
    let per_tick = entries as f64 / active as f64;
    assert!(
        per_tick <= 19.0,
        "{per_tick:.2} B per active tick over {active} ticks"
    );
    let headers = series().count() * size_of::<Series>();
    let events = ds.events.capacity() * size_of::<IoEvent>();
    assert_eq!(ds.heap_bytes(), entries + headers + events);
}

#[test]
fn every_dataset_builder_leaves_no_growth_slack() {
    use ebs::workload::{generate_sharded, load_events, Dataset};

    for seed in [31u64, 32] {
        // Enough traffic for several event chunks per store and shard, so
        // the loaders' chunk-by-chunk growth is exercised.
        let config = WorkloadConfig {
            traffic_scale: 80.0,
            ..WorkloadConfig::quick(seed)
        };
        let generated = generate(&config).unwrap();
        assert!(generated.events.len() > 3 * ebs::store::EVENTS_PER_CHUNK);
        assert_eq!(slack(&generated), 0, "generate, seed {seed}");

        let dir = ebs::core::TempDir::new("exact-size").unwrap();
        let path = dir.join("trace.ebs");
        generated.save(&path).unwrap();
        assert_eq!(
            slack(&Dataset::load(&path).unwrap()),
            0,
            "load, seed {seed}"
        );

        let mut stores = vec![path];
        // Uneven shard sizes: some concatenations grow by exact fits, so
        // two shard counts are needed to leave slack in a naive loader.
        for shards in [3, 7] {
            let sharded = dir.join(format!("shards-{shards}"));
            generate_sharded(&config, &sharded, shards, true).unwrap();
            let loaded = Dataset::open(&sharded).unwrap();
            assert_eq!(slack(&loaded), 0, "open x{shards}, seed {seed}");
            stores.push(sharded);
        }
        for store in &stores {
            let (_, _, events) = load_events(store).unwrap();
            assert_eq!(events.len(), generated.events.len());
            assert_eq!(events.capacity(), events.len(), "load_events, seed {seed}");
        }
    }
}
