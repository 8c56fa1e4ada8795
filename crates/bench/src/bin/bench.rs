//! Wall-clock baselines for the performance-critical layers, in three modes.
//!
//! **`--mode parallel`** (default) times the parallelized hot paths —
//! dataset generation, the full `bin/all` experiment driver, the
//! cache/balance sweeps, and the sharded generate/replay pipeline — once
//! with the pool pinned to one thread (the pure serial path) and once
//! pinned to an **explicit** multi-thread count, then writes the timings,
//! speedups, both thread counts, and the host's physical cpu count to
//! `BENCH_parallel.json`. Every leg takes one untimed warmup pass before
//! the best-of-N timing. (An earlier version ran the "parallel" leg at
//! the ambient thread count, which on a 1-CPU container is also 1 — every
//! recorded speedup was a vacuous ≈1.0 and the JSON did not say so;
//! `host_cpus` now makes that visible.) `--assert-scaling` fails the run
//! if any parallel leg is slower than serial — for CI on multi-core
//! runners; it degrades to a warning on single-cpu hosts.
//!
//! **`--mode hotpath`** times the zero-copy event index and the O(1) cache
//! kernels against the pre-optimization implementations, which are kept
//! verbatim in `ebs_cache::reference` — so every before/after pair runs in
//! the *same binary on the same host*, serial (1 thread pinned), and each
//! pair asserts the two legs produce identical results before a speedup is
//! recorded. Results go to `BENCH_hotpath.json`.
//!
//! **`--mode store`** races the `ebs-store` columnar container against the
//! CSV export for the same trace: encode, decode, and streaming-aggregate
//! throughput, plus on-disk size. Each pair asserts both legs reconstruct
//! the same events (or the same statistics) before a speedup is recorded.
//! Results go to `BENCH_store.json` with `host_cpus`; the run fails if
//! decode is not ≥3x faster than CSV parse, or the store is not ≤0.5x the
//! CSV size.
//!
//! Usage: `bench [--mode parallel|hotpath|store]
//! [--quick|--medium|--full] [--iters N] [--threads N] [--out PATH]`.
//! `--threads` (parallel mode only) defaults to `max(4, available cores)`
//! so the parallel leg genuinely exercises the fan-out even on small
//! hosts.

use ebs_balance::wt_rebind::{simulate_fleet, RebindConfig};
use ebs_cache::hottest_block::{
    events_by_vd, hot_rate, hottest_block, HottestBlock, BLOCK_SIZES, HOT_RATE_WINDOW_US,
};
use ebs_cache::policy::{CachePolicy, PAGE_BYTES};
use ebs_cache::reference::{ref_hot_rate, RefFifoCache, RefLruCache};
use ebs_cache::simulate::{simulate, Algorithm};
use ebs_cache::{FifoCache, FrozenCache, LruCache};
use ebs_core::ids::VdId;
use ebs_core::index::EventIndex;
use ebs_core::io::Op;
use ebs_core::parallel::{current_threads, set_thread_override};
use ebs_experiments::{dataset, driver, fig7, Scale, EXPERIMENT_SEED};
use ebs_workload::{generate, Dataset};
use std::time::Instant;

/// Best-of-`iters` wall time of `f` after one untimed warmup pass, in
/// seconds, plus the last result. The warmup absorbs one-time costs —
/// page faults, lazy allocations, file-cache population — that would
/// otherwise land in the first timed iteration and, with few iters,
/// survive the min.
fn time_best<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = Some(f());
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best, out.expect("at least one iteration"))
}

/// One before/after (or serial/parallel) measurement.
struct Entry {
    name: &'static str,
    base_s: f64,
    new_s: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.base_s / self.new_s
    }
}

/// Measure `f` at 1 thread and at `par_threads` threads, asserting the
/// outputs match.
fn measure<T: PartialEq>(
    name: &'static str,
    iters: usize,
    par_threads: usize,
    mut f: impl FnMut() -> T,
) -> Entry {
    set_thread_override(Some(1));
    let (serial_s, serial_out) = time_best(iters, &mut f);
    set_thread_override(Some(par_threads));
    let (parallel_s, parallel_out) = time_best(iters, &mut f);
    set_thread_override(None);
    assert!(
        serial_out == parallel_out,
        "{name}: parallel output diverged from serial"
    );
    Entry {
        name,
        base_s: serial_s,
        new_s: parallel_s,
    }
}

/// Measure a before/after pair on the same inputs, asserting both legs
/// produce the same value. Caller is responsible for thread pinning.
fn measure_pair<T: PartialEq>(
    name: &'static str,
    iters: usize,
    mut before: impl FnMut() -> T,
    mut after: impl FnMut() -> T,
) -> Entry {
    let (base_s, base_out) = time_best(iters, &mut before);
    let (new_s, new_out) = time_best(iters, &mut after);
    assert!(
        base_out == new_out,
        "{name}: optimized output diverged from the reference"
    );
    Entry {
        name,
        base_s,
        new_s,
    }
}

/// Emit the measured entries as JSON (plus a console table) and write the
/// file. `labels` names the two timing columns.
fn write_report(out_path: &str, header: &str, labels: (&str, &str), entries: &[Entry]) {
    let mut json = String::from("{\n");
    json.push_str(header);
    json.push_str("  \"paths\": [\n");
    for (i, e) in entries.iter().enumerate() {
        eprintln!(
            "{:>20}: {} {:8.3}s  {} {:8.3}s  speedup {:5.2}x",
            e.name,
            labels.0,
            e.base_s,
            labels.1,
            e.new_s,
            e.speedup()
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"{}_s\": {:.6}, \"{}_s\": {:.6}, \"speedup\": {:.3}}}{}\n",
            e.name,
            labels.0,
            e.base_s,
            labels.1,
            e.new_s,
            e.speedup(),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, json).expect("write baseline");
    eprintln!("wrote {out_path}");
}

/// Physical parallelism of this host, recorded next to every speedup so
/// a ≈1.0x figure from a 1-CPU container is never mistaken for a
/// regression (threads > cores can only timeslice, never speed up).
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The serial-vs-parallel baseline (BENCH_parallel.json).
fn run_parallel_mode(
    scale: Scale,
    iters: usize,
    par_threads: usize,
    assert_scaling: bool,
    out_path: &str,
) {
    let scale_name = format!("{scale:?}").to_lowercase();
    let cpus = host_cpus();
    eprintln!(
        "benchmarking at scale {scale_name}, serial (1 thread) vs parallel ({par_threads} threads), \
         best of {iters} after warmup, host has {cpus} cpu(s)"
    );

    let cfg = scale.config(EXPERIMENT_SEED);
    let mut entries = Vec::new();

    entries.push(measure("workload_generate", iters, par_threads, || {
        let ds = generate(&cfg).expect("canonical config must validate");
        let (read, write) = ds.total_bytes();
        (ds.events.len(), read.to_bits(), write.to_bits())
    }));

    let ds = dataset(scale);
    entries.push(measure("experiments_all", iters, par_threads, || {
        driver::run_all(&ds)
    }));

    let idx = ds.index();
    entries.push(measure("cache_sweep", iters, par_threads, || {
        fig7::panel_a(idx)
            .into_iter()
            .map(|r| (r.block_size, r.hit_ratio.p50.to_bits()))
            .collect::<Vec<_>>()
    }));
    entries.push(measure("balance_sweep", iters, par_threads, || {
        simulate_fleet(&ds.fleet, &ds.events, &RebindConfig::default())
    }));

    // The sharded fleet path: per-shard generation and streaming replay.
    // The shard count is fixed at `par_threads` for both legs, so the
    // measured difference is pure thread fan-out, not work partitioning;
    // the store bytes are identical either way.
    let shard_dir = ebs_core::TempDir::new("bench-shards").expect("scratch dir");
    entries.push(measure("sharded_generate", iters, par_threads, || {
        std::fs::remove_dir_all(&shard_dir).ok();
        let m = ebs_workload::generate_sharded(&cfg, &shard_dir, par_threads, false)
            .expect("sharded generate");
        (m.total_events(), m.total_bytes())
    }));
    entries.push(measure("sharded_replay", iters, par_threads, || {
        let (m, s) = ebs_workload::replay_summary(&shard_dir).expect("sharded replay");
        (
            m.total_events(),
            s.ccr(0.2).map(f64::to_bits),
            s.p2a().map(f64::to_bits),
        )
    }));
    drop(shard_dir);

    let header = format!(
        "  \"scale\": \"{scale_name}\",\n  \"host_cpus\": {cpus},\n  \"serial_threads\": 1,\n  \"parallel_threads\": {par_threads},\n  \"iters\": {iters},\n"
    );
    write_report(out_path, &header, ("serial", "parallel"), &entries);

    if assert_scaling {
        // Meaningful only when the parallel leg had real cores to use;
        // on a smaller host the flag degrades to a warning so one CI
        // recipe works everywhere.
        if cpus >= 2 {
            for e in &entries {
                assert!(
                    e.speedup() >= 1.0,
                    "{}: parallel leg slower than serial ({:.2}x) on a {cpus}-cpu host",
                    e.name,
                    e.speedup()
                );
            }
        } else {
            eprintln!("--assert-scaling skipped: host has a single cpu, speedups are vacuous");
        }
    }
}

/// A deterministic skewed page stream for the cache-kernel micros:
/// 70 % in a hot set, 30 % over a wide range (mirrors the paper's
/// hot-block pattern at page granularity).
fn page_stream(n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
            if h % 10 < 7 {
                h % 8192
            } else {
                h % 4_000_000
            }
        })
        .collect()
}

/// Replay `stream` through `policy`, returning (hits, final residency).
fn replay<P: CachePolicy + ?Sized>(policy: &mut P, stream: &[u64]) -> u64 {
    let mut hits = 0u64;
    for &p in stream {
        if policy.access(p, Op::Read) {
            hits += 1;
        }
    }
    hits
}

/// The pre-optimization Figure 7(a) inner loop: dynamic dispatch over the
/// old LRU/FIFO kernels, per-VD event `Vec`s. Kept here (not in the
/// library) because it exists only to be raced against `fig7::panel_a`.
fn panel_a_reference(ds: &Dataset) -> Vec<(Algorithm, u64, u64)> {
    let by_vd = events_by_vd(&ds.fleet, &ds.events);
    let mut out = Vec::new();
    for &bs in &BLOCK_SIZES {
        for algo in Algorithm::ALL {
            let mut hits = 0u64;
            let mut accesses = 0u64;
            for (i, evs) in by_vd.iter().enumerate() {
                if evs.len() < ebs_experiments::fig6::MIN_EVENTS {
                    continue;
                }
                let Some(hb) = hottest_block(VdId::from_index(i), evs, bs) else {
                    continue;
                };
                let pages = (hb.block_size / PAGE_BYTES).max(1) as usize;
                let mut policy: Box<dyn CachePolicy> = match algo {
                    Algorithm::Fifo => Box::new(RefFifoCache::new(pages)),
                    Algorithm::Lru => Box::new(RefLruCache::new(pages)),
                    Algorithm::Frozen => Box::new(FrozenCache::covering_bytes(
                        hb.block * hb.block_size,
                        hb.block_size,
                    )),
                };
                let stats = simulate(policy.as_mut(), evs);
                hits += stats.hits;
                accesses += stats.accesses;
            }
            out.push((
                algo,
                bs,
                hits.wrapping_mul(1_000_003).wrapping_add(accesses),
            ));
        }
    }
    out
}

/// The optimized Figure 7(a) inner loop on the shared index, folded to the
/// same digest as [`panel_a_reference`] for the output-equality assert.
fn panel_a_indexed(idx: &EventIndex) -> Vec<(Algorithm, u64, u64)> {
    let mut out = Vec::new();
    for &bs in &BLOCK_SIZES {
        for algo in Algorithm::ALL {
            let mut hits = 0u64;
            let mut accesses = 0u64;
            for (i, evs) in idx.vd_slices().into_iter().enumerate() {
                if evs.len() < ebs_experiments::fig6::MIN_EVENTS {
                    continue;
                }
                let Some(hb) = hottest_block(VdId::from_index(i), evs, bs) else {
                    continue;
                };
                let pages = (hb.block_size / PAGE_BYTES).max(1) as usize;
                let stats = match algo {
                    Algorithm::Fifo => {
                        let mut p = FifoCache::new(pages);
                        simulate(&mut p, evs)
                    }
                    Algorithm::Lru => {
                        let mut p = LruCache::new(pages);
                        simulate(&mut p, evs)
                    }
                    Algorithm::Frozen => {
                        let mut p =
                            FrozenCache::covering_bytes(hb.block * hb.block_size, hb.block_size);
                        simulate(&mut p, evs)
                    }
                };
                hits += stats.hits;
                accesses += stats.accesses;
            }
            out.push((
                algo,
                bs,
                hits.wrapping_mul(1_000_003).wrapping_add(accesses),
            ));
        }
    }
    out
}

/// Per-VD hottest blocks over owned per-VD `Vec`s (before leg input).
fn hot_blocks_of(by_vd: &[Vec<ebs_core::io::IoEvent>], bs: u64) -> Vec<(usize, HottestBlock)> {
    by_vd
        .iter()
        .enumerate()
        .filter_map(|(i, evs)| hottest_block(VdId::from_index(i), evs, bs).map(|hb| (i, hb)))
        .collect()
}

/// The old-vs-new kernel baseline (BENCH_hotpath.json). Everything is
/// pinned to one thread: this mode measures single-core kernel cost, not
/// fan-out.
fn run_hotpath_mode(scale: Scale, iters: usize, out_path: &str) {
    let scale_name = format!("{scale:?}").to_lowercase();
    eprintln!(
        "benchmarking hot-path kernels at scale {scale_name}, before (reference) vs after (optimized), serial, best of {iters}"
    );
    set_thread_override(Some(1));

    let ds = dataset(scale);
    let mut entries = Vec::new();

    // Tentpole: one shared index build vs the per-VD copying partition.
    entries.push(measure_pair(
        "partition_build",
        iters,
        || {
            let by_vd = events_by_vd(&ds.fleet, &ds.events);
            by_vd.iter().map(Vec::len).collect::<Vec<_>>()
        },
        || {
            let idx = EventIndex::build(&ds.fleet, &ds.events);
            (0..idx.vd_count())
                .map(|i| idx.vd(VdId::from_index(i)).len())
                .collect::<Vec<_>>()
        },
    ));

    // Satellite: Dataset::events_for_vd, old linear filter vs index view.
    let idx = ds.index();
    entries.push(measure_pair(
        "vd_lookup",
        iters,
        || {
            (0..ds.fleet.vd_count())
                .map(|i| {
                    let vd = VdId::from_index(i);
                    ds.events.iter().filter(|e| e.vd == vd).count()
                })
                .sum::<usize>()
        },
        || {
            (0..ds.fleet.vd_count())
                .map(|i| idx.vd(VdId::from_index(i)).len())
                .sum::<usize>()
        },
    ));

    // Cache-kernel micros on a fixed skewed stream.
    let stream = page_stream(2_000_000);
    let capacity = (256 << 20) / PAGE_BYTES as usize; // 256 MiB of 4 KiB pages
    entries.push(measure_pair(
        "lru_access",
        iters,
        || {
            let mut c = RefLruCache::new(capacity);
            (replay(&mut c, &stream), c.residency())
        },
        || {
            let mut c = LruCache::new(capacity);
            (replay(&mut c, &stream), c.residency())
        },
    ));
    entries.push(measure_pair(
        "fifo_access",
        iters,
        || {
            let mut c = RefFifoCache::new(capacity);
            (replay(&mut c, &stream), c.residency())
        },
        || {
            let mut c = FifoCache::new(capacity);
            (replay(&mut c, &stream), c.residency())
        },
    ));

    // hot_rate: per-window hash map vs linear run-scan, over real VD data.
    let by_vd = events_by_vd(&ds.fleet, &ds.events);
    let hot = hot_blocks_of(&by_vd, 64 << 20);
    entries.push(measure_pair(
        "hot_rate",
        iters,
        || {
            hot.iter()
                .filter_map(|(i, hb)| ref_hot_rate(&by_vd[*i], hb, HOT_RATE_WINDOW_US, 3))
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        },
        || {
            hot.iter()
                .filter_map(|(i, hb)| {
                    hot_rate(idx.vd(VdId::from_index(*i)), hb, HOT_RATE_WINDOW_US, 3)
                })
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        },
    ));
    drop(by_vd);
    drop(hot);

    // The headline: the full Figure 7(a) policy × block-size sweep.
    entries.push(measure_pair(
        "cache_sweep",
        iters,
        || panel_a_reference(&ds),
        || panel_a_indexed(idx),
    ));

    // experiments_all has no in-binary "before" leg (the old partition
    // path is gone from the driver); record its absolute time so runs can
    // be compared across commits.
    let (run_all_s, _) = time_best(iters, || driver::run_all(&ds));
    eprintln!(
        "{:>20}: {:8.3}s (absolute, for cross-commit comparison)",
        "experiments_all", run_all_s
    );

    set_thread_override(None);

    let header = format!(
        "  \"scale\": \"{scale_name}\",\n  \"host_cpus\": {},\n  \"threads\": 1,\n  \"iters\": {iters},\n  \"experiments_all_s\": {run_all_s:.6},\n",
        host_cpus()
    );
    write_report(out_path, &header, ("before", "after"), &entries);
}

/// The store-vs-CSV baseline (BENCH_store.json): same trace, columnar
/// container against the CSV pipeline, serial.
fn run_store_mode(scale: Scale, iters: usize, out_path: &str) {
    use ebs_store::{
        decode_events_into, fold_store, ChunkReader, StoreWriter, StreamSummary, EVENTS_PER_CHUNK,
    };
    use ebs_workload::export::{
        read_events_csv, write_compute_metrics_csv, write_events_csv, write_specs_csv,
        write_storage_metrics_csv,
    };

    let scale_name = format!("{scale:?}").to_lowercase();
    eprintln!(
        "benchmarking trace store at scale {scale_name}, csv vs ebs-store, serial, best of {iters}"
    );
    set_thread_override(Some(1));
    let ds = dataset(scale);
    let events = ds.events.len();

    // The CSV side of the size comparison: all four tables, since the
    // store holds config + specs + both metric domains + events.
    let mut csv_events = Vec::new();
    write_events_csv(&ds, &mut csv_events).expect("csv encode");
    let mut csv_total = csv_events.len();
    type CsvLeg = fn(&Dataset, &mut Vec<u8>) -> std::io::Result<()>;
    let legs: [CsvLeg; 3] = [
        |ds, w| write_compute_metrics_csv(ds, w),
        |ds, w| write_storage_metrics_csv(ds, w),
        |ds, w| write_specs_csv(ds, w),
    ];
    for writer in legs {
        let mut buf = Vec::new();
        writer(&ds, &mut buf).expect("csv encode");
        csv_total += buf.len();
    }

    // Events-only store container, the counterpart of events.csv.
    let store_trace = {
        let mut w = StoreWriter::new(Vec::new()).expect("store header");
        w.write_events_chunked(&ds.events, EVENTS_PER_CHUNK)
            .expect("store encode");
        w.finish().expect("store finish")
    };
    // The full container, the counterpart of the 4-file CSV export.
    let store_full = {
        use ebs_store::format::kind;
        use ebs_workload::store::{encode_config, spec_rows};
        let mut w = StoreWriter::new(Vec::new()).expect("store header");
        w.write_chunk(kind::CONFIG, &encode_config(&ds.config))
            .expect("config chunk");
        w.write_specs(&spec_rows(&ds.fleet).expect("generated fleet is well-formed"))
            .expect("specs chunk");
        w.write_series(
            kind::COMPUTE_METRICS,
            ds.compute.ticks,
            ds.compute.per_qp.as_slice(),
        )
        .expect("compute chunk");
        w.write_series(
            kind::STORAGE_METRICS,
            ds.storage.ticks,
            ds.storage.per_seg.as_slice(),
        )
        .expect("storage chunk");
        w.write_events_chunked(&ds.events, EVENTS_PER_CHUNK)
            .expect("event chunks");
        w.finish().expect("store finish")
    };

    let mut entries = Vec::new();
    entries.push(measure_pair(
        "trace_encode",
        iters,
        || {
            let mut buf = Vec::new();
            write_events_csv(&ds, &mut buf).expect("csv encode");
            events
        },
        || {
            let mut w = StoreWriter::new(Vec::new()).expect("store header");
            w.write_events_chunked(&ds.events, EVENTS_PER_CHUNK)
                .expect("store encode");
            w.finish().expect("store finish");
            events
        },
    ));
    // Store decode walks the image the way the loaders do: `ChunkReader`
    // verifies each chunk's seal into one reused payload buffer, and
    // `decode_events_into` decodes it through one reused column scratch
    // into one reused output vector — zero allocation per chunk, and zero
    // per-iteration, in steady state. Legs are compared by an O(1) digest
    // so the output buffer can be reused across iterations.
    let trace_digest =
        |evs: &[ebs_core::io::IoEvent]| (evs.len(), evs.first().copied(), evs.last().copied());
    let mut payload = Vec::new();
    let mut scratch = ebs_store::EventScratch::new();
    let mut rows: Vec<ebs_core::io::IoEvent> = Vec::with_capacity(events);
    entries.push(measure_pair(
        "trace_decode",
        iters,
        || trace_digest(&read_events_csv(csv_events.as_slice()).expect("csv parse")),
        || {
            rows.clear();
            let mut r = ChunkReader::new(store_trace.as_slice()).expect("store header");
            while let Some(chunk_kind) = r.next_chunk_into(&mut payload).expect("store walk") {
                if chunk_kind == ebs_store::format::kind::EVENTS {
                    decode_events_into(&payload, &mut scratch, &mut rows).expect("store decode");
                }
            }
            trace_digest(&rows)
        },
    ));
    // Streaming aggregation: CCR / P2A / median request size straight off
    // the serialized bytes, without materializing the trace.
    let ticks = ds.config.storage_ticks();
    let vd_count = ds.fleet.vd_count();
    let digest = |s: &StreamSummary| {
        (
            s.ccr(0.2).map(f64::to_bits),
            s.p2a().map(f64::to_bits),
            s.size_quantile(0.5).map(f64::to_bits),
        )
    };
    entries.push(measure_pair(
        "stream_aggregate",
        iters,
        || {
            let evs = read_events_csv(csv_events.as_slice()).expect("csv parse");
            let mut s = StreamSummary::new(vd_count, ticks);
            s.fold_chunk(&evs).expect("fold");
            digest(&s)
        },
        || {
            let mut s = StreamSummary::new(vd_count, ticks);
            let reader = ChunkReader::new(store_trace.as_slice()).expect("store header");
            fold_store(reader, &mut s).expect("fold");
            digest(&s)
        },
    ));
    set_thread_override(None);

    // Per-column byte accounting for both containers, so a future size
    // regression points at a specific column instead of an opaque ratio.
    let trace_stats =
        ebs_store::StoreStats::scan(store_trace.as_slice()).expect("trace store scan");
    let full_stats = ebs_store::StoreStats::scan(store_full.as_slice()).expect("full store scan");
    for line in full_stats.render() {
        eprintln!("{line}");
    }

    // The asserted ratio compares equivalent data: the events-only container
    // against events.csv. Since v2 packs integral metric samples as integer
    // columns, the full 4-table comparison is gated too.
    let size_ratio = store_trace.len() as f64 / csv_events.len() as f64;
    let full_ratio = store_full.len() as f64 / csv_total as f64;
    let decode = &entries[1];
    let decode_rate = events as f64 / decode.new_s;
    eprintln!("decode: store {:.1}M ev/s", decode_rate / 1e6);
    eprintln!(
        "on-disk: trace store {} bytes vs events.csv {} bytes (ratio {:.3}); \
         full store {} bytes vs all csv tables {} bytes (ratio {:.3})",
        store_trace.len(),
        csv_events.len(),
        size_ratio,
        store_full.len(),
        csv_total,
        full_ratio
    );
    assert!(
        decode.speedup() >= 3.0,
        "store decode must be >=3x faster than CSV parse, measured {:.2}x",
        decode.speedup()
    );
    assert!(
        size_ratio <= 0.5,
        "trace store must be <=0.5x the size of events.csv, measured {size_ratio:.3}"
    );
    if scale != Scale::Quick {
        // Quick-scale containers are dominated by the dense metric grids
        // (hundreds of KB of series over <1k events), so the full-tables
        // ratio says nothing about the event codecs there.
        assert!(
            full_ratio <= 0.5,
            "full store must be <=0.5x the size of the CSV tables, measured {full_ratio:.3}"
        );
    }

    let col = &trace_stats.columns;
    let cpus = host_cpus();
    let header = format!(
        "  \"scale\": \"{scale_name}\",\n  \"host_cpus\": {cpus},\n  \"threads\": 1,\n  \
         \"iters\": {iters},\n  \"events\": {events},\n  \"csv_bytes\": {},\n  \
         \"store_bytes\": {},\n  \"size_ratio\": {size_ratio:.4},\n  \
         \"full_csv_bytes\": {csv_total},\n  \"full_store_bytes\": {},\n  \
         \"full_size_ratio\": {full_ratio:.4},\n  \
         \"encode_events_per_s\": {:.0},\n  \"decode_events_per_s\": {:.0},\n  \
         \"stream_events_per_s\": {:.0},\n  \
         \"event_column_bytes\": {{\"header\": {}, \"timestamps\": {}, \"vd\": {}, \
         \"qp\": {}, \"size\": {}, \"offset\": {}}},\n  \
         \"full_chunk_bytes\": {{\"events\": {}, \"compute\": {}, \"storage\": {}, \
         \"specs\": {}, \"config\": {}, \"frames\": {}}},\n",
        csv_events.len(),
        store_trace.len(),
        store_full.len(),
        events as f64 / entries[0].new_s,
        decode_rate,
        events as f64 / entries[2].new_s,
        col.header,
        col.timestamps,
        col.vd,
        col.qp,
        col.size,
        col.offset,
        full_stats.events_bytes,
        full_stats.compute_bytes,
        full_stats.storage_bytes,
        full_stats.specs_bytes,
        full_stats.config_bytes,
        full_stats.frame_bytes + full_stats.end_bytes + full_stats.other_bytes,
    );
    write_report(out_path, &header, ("csv", "store"), &entries);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Medium
    };
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let iters: usize = flag("--iters")
        .map(|v| v.parse().expect("--iters N"))
        .unwrap_or(3);
    let mode = flag("--mode").unwrap_or_else(|| "parallel".to_string());

    match mode.as_str() {
        "parallel" => {
            let par_threads: usize = flag("--threads")
                .map(|v| v.parse().expect("--threads N"))
                .filter(|&n| n > 1)
                .unwrap_or_else(|| current_threads().max(4));
            let out_path = flag("--out").unwrap_or_else(|| "BENCH_parallel.json".to_string());
            let assert_scaling = args.iter().any(|a| a == "--assert-scaling");
            run_parallel_mode(scale, iters, par_threads, assert_scaling, &out_path);
        }
        "hotpath" => {
            let out_path = flag("--out").unwrap_or_else(|| "BENCH_hotpath.json".to_string());
            run_hotpath_mode(scale, iters, &out_path);
        }
        "store" => {
            let out_path = flag("--out").unwrap_or_else(|| "BENCH_store.json".to_string());
            run_store_mode(scale, iters, &out_path);
        }
        other => {
            eprintln!(
                "unknown --mode {other:?} (expected \"parallel\", \"hotpath\", or \"store\")"
            );
            std::process::exit(2);
        }
    }
    // With EBS_OBS=1 the timed runs also populated the metrics registry;
    // drop the run report next to the baseline.
    ebs_obs::report::emit_global();
}
