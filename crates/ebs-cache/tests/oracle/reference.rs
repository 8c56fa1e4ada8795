//! Reference implementations of the cache kernels, kept verbatim from
//! before the O(1) rewrite.
//!
//! These are deliberately the *old* data structures — logical-clock LRU
//! over `HashMap` + `BTreeMap`, FIFO over `VecDeque` + `HashSet`, hot-rate
//! over a per-window `HashMap` — kept as test-only differential oracles:
//! the `ebs-cache` unit tests replay random access streams and the quick
//! dataset's per-VD streams through the production kernels and these
//! references and require identical hits, residency and hot rates.
//! The crate includes this file under `#[cfg(test)]` only, so nothing
//! outside its own tests can call into it.

use crate::policy::CachePolicy;
use ebs_core::hash::{fx_map_with_capacity, fx_set_with_capacity, FxHashMap, FxHashSet};
use ebs_core::io::{IoEvent, Op};
use std::collections::{BTreeMap, VecDeque};

/// The pre-rewrite LRU: logical clock with `HashMap` page → stamp plus a
/// `BTreeMap` stamp → page (O(log n) per access).
#[derive(Clone, Debug)]
pub struct RefLruCache {
    capacity: usize,
    clock: u64,
    stamp_of: FxHashMap<u64, u64>,
    by_stamp: BTreeMap<u64, u64>,
}

impl RefLruCache {
    /// An LRU cache of `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache needs capacity");
        Self {
            capacity,
            clock: 0,
            stamp_of: fx_map_with_capacity(capacity),
            by_stamp: BTreeMap::new(),
        }
    }

    fn refresh(&mut self, page: u64) {
        if let Some(old) = self.stamp_of.insert(page, self.clock) {
            self.by_stamp.remove(&old);
        }
        self.by_stamp.insert(self.clock, page);
        self.clock += 1;
    }

    /// Resident pages in eviction order (least-recent first).
    pub fn residency(&self) -> Vec<u64> {
        self.by_stamp.values().copied().collect()
    }
}

impl CachePolicy for RefLruCache {
    fn name(&self) -> String {
        "LRU(ref)".into()
    }

    fn capacity_pages(&self) -> usize {
        self.capacity
    }

    fn access(&mut self, page: u64, _op: Op) -> bool {
        let hit = self.stamp_of.contains_key(&page);
        if !hit && self.stamp_of.len() == self.capacity {
            let (&stale_stamp, &victim) =
                self.by_stamp.iter().next().expect("non-empty at capacity");
            self.by_stamp.remove(&stale_stamp);
            self.stamp_of.remove(&victim);
        }
        self.refresh(page);
        hit
    }

    fn len(&self) -> usize {
        self.stamp_of.len()
    }
}

/// The pre-rewrite FIFO: `VecDeque` admission queue plus a redundant
/// `HashSet` residency map.
#[derive(Clone, Debug)]
pub struct RefFifoCache {
    capacity: usize,
    queue: VecDeque<u64>,
    resident: FxHashSet<u64>,
}

impl RefFifoCache {
    /// A FIFO cache of `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache needs capacity");
        Self {
            capacity,
            queue: VecDeque::with_capacity(capacity),
            resident: fx_set_with_capacity(capacity),
        }
    }

    /// Resident pages in eviction order (oldest admitted first).
    pub fn residency(&self) -> Vec<u64> {
        self.queue.iter().copied().collect()
    }
}

impl CachePolicy for RefFifoCache {
    fn name(&self) -> String {
        "FIFO(ref)".into()
    }

    fn capacity_pages(&self) -> usize {
        self.capacity
    }

    fn access(&mut self, page: u64, _op: Op) -> bool {
        if self.resident.contains(&page) {
            return true;
        }
        if self.queue.len() == self.capacity {
            let evicted = self.queue.pop_front().expect("non-empty at capacity");
            self.resident.remove(&evicted);
        }
        self.queue.push_back(page);
        self.resident.insert(page);
        false
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// The pre-rewrite hot-rate: bucket every event into a per-window
/// `HashMap`, then count windows where the block beats its long-run rate.
/// Works on unsorted streams (the production run-scan requires time order).
pub fn ref_hot_rate(
    events: &[IoEvent],
    hb: &crate::hottest_block::HottestBlock,
    window_us: u64,
    min_windows: usize,
) -> Option<f64> {
    if events.is_empty() {
        return None;
    }
    let mut per_window: FxHashMap<u64, (usize, usize)> = FxHashMap::default(); // window → (block, total)
    for ev in events {
        let w = ev.t_us / window_us;
        let e = per_window.entry(w).or_default();
        if ev.offset / hb.block_size == hb.block {
            e.0 += 1;
        }
        e.1 += 1;
    }
    if per_window.len() < min_windows {
        return None;
    }
    let above = per_window
        .values()
        .filter(|&&(blk, tot)| blk as f64 / tot as f64 > hb.access_rate)
        .count();
    Some(above as f64 / per_window.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_lru_recency_protects_pages() {
        let mut c = RefLruCache::new(2);
        c.access(1, Op::Write);
        c.access(2, Op::Write);
        assert!(c.access(1, Op::Write));
        c.access(3, Op::Write); // evicts 2
        assert!(c.access(1, Op::Write));
        assert!(!c.access(2, Op::Write));
        assert_eq!(c.residency().len(), 2);
    }

    #[test]
    fn ref_fifo_evicts_in_admission_order() {
        let mut c = RefFifoCache::new(2);
        c.access(1, Op::Read);
        c.access(2, Op::Read);
        assert!(c.access(1, Op::Read)); // no recency protection
        c.access(3, Op::Read); // evicts 1
        assert_eq!(c.residency(), vec![2, 3]);
    }
}
