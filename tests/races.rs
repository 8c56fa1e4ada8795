//! Same-run speed races, release mode only. Every test is `#[ignore]`d so
//! tier-1 stays fast; run them with
//! `cargo test --release -q --test races -- --ignored --test-threads=1`
//! (one at a time: the scaling race pins the process-wide thread count).
//!
//! A race times two legs over the same input in one process: one warm-up
//! of each, then at least five timed pairs that alternate which leg goes
//! first. Every pair asserts the legs agree, and the gate compares the two
//! medians, never an absolute rate, so it holds on any host class.

use ebs::core::hash::FxBuildHasher;
use ebs::core::parallel::set_thread_override;
use ebs::experiments::{dataset, driver, fig7, Scale, EXPERIMENT_SEED};
use std::hash::BuildHasher;
use std::time::Instant;

/// Fewest timed pairs per race.
const MIN_PAIRS: usize = 5;
/// Seconds of timing a race aims for: legs of a few milliseconds get more
/// pairs than `MIN_PAIRS`, so host noise moves their medians less.
const BUDGET_S: f64 = 2.0;

/// Median seconds of leg `a` over median seconds of leg `b`: how many
/// times faster `b` ran.
fn race<T: PartialEq>(name: &str, mut a: impl FnMut() -> T, mut b: impl FnMut() -> T) -> f64 {
    let timed = |leg: &mut dyn FnMut() -> T| {
        let t0 = Instant::now();
        let out = leg();
        (t0.elapsed().as_secs_f64(), out)
    };
    let ((wa, oa), (wb, ob)) = (timed(&mut a), timed(&mut b));
    assert!(oa == ob, "{name}: the legs disagree");
    let pairs = MIN_PAIRS.max((BUDGET_S / (wa + wb)) as usize);
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for pair in 0..pairs {
        let ((sa, oa), (sb, ob)) = if pair % 2 == 0 {
            let first = timed(&mut a);
            (first, timed(&mut b))
        } else {
            let first = timed(&mut b);
            (timed(&mut a), first)
        };
        assert!(oa == ob, "{name}: the legs disagree in pair {pair}");
        ta.push(sa);
        tb.push(sb);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (ma, mb) = (median(&mut ta), median(&mut tb));
    eprintln!(
        "{name:>18}: {ma:8.4} s vs {mb:8.4} s over {pairs} pairs, {:5.2}x",
        ma / mb
    );
    ma / mb
}

/// Store decode (`ChunkReader` + `decode_events_into`, one reused payload
/// buffer and column scratch) against `read_events_csv`, serially, on the
/// medium trace: the store must decode at least 3x faster.
#[test]
#[ignore = "release-mode timing race"]
fn store_decode_beats_csv_parse() {
    use ebs::store::{decode_events_into, format::kind, ChunkReader, EventScratch};
    use ebs::store::{StoreWriter, EVENTS_PER_CHUNK};
    use ebs::workload::export::{read_events_csv, write_events_csv};
    set_thread_override(Some(1));
    let ds = dataset(Scale::Medium);
    let mut csv = Vec::new();
    write_events_csv(&ds, &mut csv).unwrap();
    let mut w = StoreWriter::new(Vec::new()).unwrap();
    w.write_events_chunked(&ds.events, EVENTS_PER_CHUNK)
        .unwrap();
    let store = w.finish().unwrap();
    let (mut payload, mut scratch) = (Vec::new(), EventScratch::new());
    let speedup = race(
        "store_decode",
        || read_events_csv(csv.as_slice()).unwrap(),
        || {
            let mut rows = Vec::with_capacity(ds.events.len());
            let mut r = ChunkReader::new(store.as_slice()).unwrap();
            while let Some(chunk) = r.next_chunk_into(&mut payload).unwrap() {
                if chunk == kind::EVENTS {
                    decode_events_into(&payload, &mut scratch, &mut rows).unwrap();
                }
            }
            rows
        },
    );
    set_thread_override(None);
    assert!(speedup >= 3.0, "store decode only {speedup:.2}x CSV parse");
}

/// The medium-scale legs long enough to time, each run serially and at
/// the host's parallelism: no parallel leg may be slower than its serial
/// one. `simulate_fleet` and the sharded replay are left out: they run
/// 1–2 ms at medium, below timer noise.
#[test]
#[ignore = "release-mode timing race"]
fn parallel_legs_are_not_slower_than_serial() {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cpus < 2 {
        eprintln!("scaling race skipped: the host has one cpu, so no speedup is possible");
        return;
    }
    let cfg = Scale::Medium.config(EXPERIMENT_SEED);
    let ds = dataset(Scale::Medium);
    let dir = ebs::core::TempDir::new("race-shards").unwrap();
    let legs: [(&str, &dyn Fn() -> Vec<u64>); 4] = [
        ("workload_generate", &|| {
            let ds = ebs::workload::generate(&cfg).unwrap();
            let (read, write) = ds.total_bytes();
            vec![ds.events.len() as u64, read.to_bits(), write.to_bits()]
        }),
        ("driver_run_all", &|| {
            vec![FxBuildHasher.hash_one(driver::run_all(&ds))]
        }),
        ("fig7_panel_a", &|| {
            let rows = fig7::panel_a(&driver::Shared::new(&ds));
            rows.iter()
                .flat_map(|r| [r.block_size, r.hit_ratio.p50.to_bits()])
                .collect()
        }),
        // The shard count is the same in both legs, so only the fan-out
        // differs; the store bytes are identical either way.
        ("sharded_generate", &|| {
            std::fs::remove_dir_all(&dir).ok();
            let m = ebs::workload::generate_sharded(&cfg, &dir, cpus, false).unwrap();
            vec![m.total_events(), m.total_bytes()]
        }),
    ];
    let mut slow = Vec::new();
    for (name, leg) in legs {
        let at = |threads| {
            move || {
                set_thread_override(Some(threads));
                leg()
            }
        };
        let speedup = race(name, at(1), at(cpus));
        if speedup < 1.0 {
            slow.push(format!("{name} {speedup:.2}x"));
        }
    }
    set_thread_override(None);
    assert!(
        slow.is_empty(),
        "parallel slower than serial at {cpus} threads: {slow:?}"
    );
}
