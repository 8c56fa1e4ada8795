//! Deterministic parallel execution.
//!
//! Every sweep in this workspace — per-VD dataset generation, cache policy
//! × capacity grids, importer-strategy grids, throttle scenarios — is a map
//! over independent units whose outputs must not depend on scheduling.
//! This module provides that primitive: [`par_map_deterministic`] fans a
//! slice out over worker threads and returns results **in input order**, so
//! a parallel run is byte-identical to a serial one whenever the per-unit
//! work is itself deterministic (which the workspace guarantees by deriving
//! one [`crate::rng::RngFactory`] stream per unit, never sharing streams
//! across units).
//!
//! The external `rayon` crate is not available in the offline build
//! environment, so the implementation uses `std::thread::scope` with a
//! shared block cursor instead of a persistent pool. Scoped spawns cost a
//! few tens of microseconds — noise next to the millisecond-scale units the
//! workspace parallelises — and let workers borrow the input slice without
//! `Arc` plumbing.
//!
//! Scheduling is **block self-scheduling**: the input is cut into
//! contiguous blocks (a few per worker) and workers claim whole blocks
//! from one atomic cursor. Compared to the per-item claim/slot scheme this
//! replaced, a worker touches shared state once per block instead of twice
//! per item, each block's results land in a worker-local `Vec` (no per-item
//! `Mutex` slots, no interleaved writes into one shared results array —
//! the false-sharing pattern behind the recorded cache_sweep regression),
//! and adjacent items go to the *same* worker, so sweeps that walk
//! contiguous arena slices keep their spatial locality. Results are
//! reassembled in block order after the scope joins, which is what keeps
//! output identical to the serial map.
//!
//! Thread count resolution, highest priority first:
//!
//! 1. a programmatic override ([`set_thread_override`], used by tests and
//!    the speed races to pin 1/2/N threads),
//! 2. the `EBS_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide programmatic override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `EBS_THREADS` / hardware default, resolved once.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Environment variable selecting the worker-thread count.
pub const THREADS_ENV: &str = "EBS_THREADS";

/// Blocks handed out per worker thread. Small enough that the per-block
/// cursor traffic is negligible, large enough that a straggler block
/// cannot idle the other workers for long.
const BLOCKS_PER_THREAD: usize = 8;

/// Override the thread count for this process (tests, speed races).
/// `None` restores the `EBS_THREADS` / hardware default.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The number of worker threads parallel maps will use right now.
#[allow(clippy::disallowed_methods, reason = "the named `EBS_THREADS` read")]
pub fn current_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Map `f` over `items` on up to [`current_threads`] workers, returning the
/// results **in input order**. `f` receives `(index, &item)`.
///
/// Scheduling cannot influence the output: workers claim contiguous blocks
/// of indexes from a shared cursor, compute each block into a worker-local
/// buffer, and the blocks are concatenated in block order after the joins.
/// With one thread (or one item) this degenerates to a plain serial map
/// with no thread spawn at all.
pub fn par_map_deterministic<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let len = items.len();
    let threads = current_threads().min(len);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Cut the input into contiguous blocks, a few per worker, so claiming
    // costs one atomic op per block and adjacent items stay on one worker.
    let block_size = len.div_ceil(threads * BLOCKS_PER_THREAD).max(1);
    let block_count = len.div_ceil(block_size);
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let done: Vec<Vec<(usize, Vec<U>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine: Vec<(usize, Vec<U>)> = Vec::new();
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= block_count {
                            break;
                        }
                        let lo = b * block_size;
                        let hi = (lo + block_size).min(len);
                        let mut out = Vec::with_capacity(hi - lo);
                        for (i, item) in items[lo..hi].iter().enumerate() {
                            out.push(f(lo + i, item));
                        }
                        mine.push((b, out));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    let mut blocks: Vec<Option<Vec<U>>> = Vec::with_capacity(block_count);
    blocks.resize_with(block_count, || None);
    for (b, out) in done.into_iter().flatten() {
        if let Some(slot) = blocks.get_mut(b) {
            *slot = Some(out);
        }
    }
    let mut results = Vec::with_capacity(len);
    for block in blocks {
        results.extend(block.expect("every block was claimed exactly once"));
    }
    results
}

/// Run a batch of heterogeneous jobs in parallel, returning their results
/// in job order. The driver uses this to run independent figures/tables of
/// an experiment suite concurrently.
///
/// Jobs are claimed one at a time (the block scheduler degenerates to
/// per-item claiming when there are fewer items than blocks), which is the
/// right granularity for a handful of unequal-sized jobs.
pub fn par_jobs<R, F>(jobs: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    let threads = current_threads().min(jobs.len());
    if threads <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let pending: Vec<std::sync::Mutex<Option<F>>> = jobs
        .into_iter()
        .map(|j| std::sync::Mutex::new(Some(j)))
        .collect();
    let results = par_map_deterministic(&pending, |_, slot| {
        // ebs-lint: allow(D7) -- the lock hands out each job exactly once; results land in per-index slots, there is no shared accumulator
        let job = slot.lock().expect("job lock poisoned").take();
        job.map(|job| job())
    });
    results
        .into_iter()
        .map(|r| r.expect("each job slot is taken exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that touch the process-wide thread override.
    static OVERRIDE_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map_deterministic(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let _guard = OVERRIDE_GUARD.lock().unwrap();
        let items: Vec<u64> = (0..100).collect();
        let work = |_: usize, &x: &u64| {
            // Deterministic per-item stream, order-independent across items.
            let mut rng = crate::rng::RngFactory::new(7).stream_n("item", x);
            (0..50)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let mut outputs = Vec::new();
        for threads in [1, 2, 5, 16] {
            set_thread_override(Some(threads));
            outputs.push(par_map_deterministic(&items, work));
        }
        set_thread_override(None);
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn block_boundaries_cover_every_length() {
        let _guard = OVERRIDE_GUARD.lock().unwrap();
        set_thread_override(Some(3));
        // Exercise lengths around block-size boundaries (3 threads × 8
        // blocks = 24-way cuts) so off-by-one in the block math shows up.
        for len in [2usize, 3, 23, 24, 25, 47, 48, 49, 100, 257] {
            let items: Vec<usize> = (0..len).collect();
            let out = par_map_deterministic(&items, |i, &x| i * 1000 + x);
            assert_eq!(
                out,
                (0..len).map(|i| i * 1000 + i).collect::<Vec<_>>(),
                "len={len}"
            );
        }
        set_thread_override(None);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_deterministic(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map_deterministic(&[42], |_, &x| x + 1), vec![43]);
    }

    #[test]
    fn jobs_return_in_order() {
        let _guard = OVERRIDE_GUARD.lock().unwrap();
        set_thread_override(Some(4));
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = par_jobs(jobs);
        set_thread_override(None);
        assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn override_wins_over_default() {
        let _guard = OVERRIDE_GUARD.lock().unwrap();
        set_thread_override(Some(3));
        assert_eq!(current_threads(), 3);
        set_thread_override(None);
        assert!(current_threads() >= 1);
    }
}
