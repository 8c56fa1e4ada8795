//! Bounded-memory store reading: `Dataset::load` may hold little beyond
//! the dataset it returns, and the streaming readers little at all. The
//! metric chunks, most of a store's bytes, decode through a fixed window
//! instead of being read whole, so the load peaks well under one metric
//! payload (about 2.4 MB at medium scale) above its result: about 1 MiB,
//! where a whole-chunk read peaked about 4.9 MiB above it. `StoreStats::scan`
//! and `fold_store` skip the metric chunks, sealing them in small pieces,
//! so each holds one EVENTS chunk at a time; reading every payload whole,
//! they peaked about 4.3 MiB above their start.
//!
//! The heap is measured by a counting global allocator, which sees every
//! allocation in the process; this file is its own test binary with one
//! test, so nothing else allocates while a reader runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use ebs::store::{fold_store, ChunkReader, StoreStats, StreamSummary};
use ebs::workload::{generate, Dataset, WorkloadConfig};

/// The system allocator, counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    /// Count `bytes` coming live.
    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Counted by its size change alone; a copying realloc briefly
            // holds both blocks, which the bound below does not charge.
            match new_size.checked_sub(layout.size()) {
                Some(more) => Self::grow(more),
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
                }
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: f64 = (1 << 20) as f64;

/// Run `read`: its result, the bytes it left live, and how far the heap
/// peaked above where it started.
fn measure<T>(read: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = read();
    let after = LIVE.load(Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed);
    (out, after.saturating_sub(before), peak - before)
}

fn open(path: &Path) -> BufReader<File> {
    BufReader::new(File::open(path).unwrap())
}

#[test]
fn medium_load_peaks_at_most_2_mib_above_its_dataset() {
    let ds = generate(&WorkloadConfig::medium(1)).unwrap();
    let dir = ebs::core::TempDir::new("bounded-load").unwrap();
    let path = dir.join("medium.ebs");
    ds.save(&path).unwrap();

    let (loaded, dataset, peak) = measure(|| Dataset::load(&path).unwrap());
    let transient = peak - dataset;
    println!(
        "medium load: dataset {:.2} MiB live, peak {:.2} MiB above it",
        dataset as f64 / MIB,
        transient as f64 / MIB
    );
    assert!(loaded.events == ds.events && loaded.compute.per_qp == ds.compute.per_qp);
    assert!(
        transient as f64 <= 2.0 * MIB,
        "Dataset::load peaked {:.2} MiB above the {:.2} MiB it returned",
        transient as f64 / MIB,
        dataset as f64 / MIB
    );

    let events = ds.events.len() as u64;
    let (stats, _, scan_peak) = measure(|| StoreStats::scan(open(&path)).unwrap());
    assert_eq!(stats.events, events);
    let mut summary = StreamSummary::new(ds.fleet.vd_count(), ds.config.storage_ticks());
    let (end, _, fold_peak) =
        measure(|| fold_store(ChunkReader::new(open(&path)).unwrap(), &mut summary).unwrap());
    assert_eq!((end.events, summary.events()), (events, events));
    for (reader, peak) in [("StoreStats::scan", scan_peak), ("fold_store", fold_peak)] {
        println!(
            "medium {reader}: peak {:.2} MiB above its start",
            peak as f64 / MIB
        );
        assert!(
            peak as f64 <= MIB,
            "{reader} peaked {:.2} MiB above its start",
            peak as f64 / MIB
        );
    }
}
