//! First-In-First-Out cache.

use crate::policy::CachePolicy;
use ebs_core::hash::{fx_set_with_capacity, FxHashSet};
use ebs_core::io::Op;

/// FIFO: pages are evicted in admission order, irrespective of re-use.
///
/// Implemented as a fixed ring buffer plus a deterministic fast-hash
/// residency set: admission overwrites the oldest slot and advances a wrap
/// cursor, so there is no deque shuffling and no allocation after warm-up.
/// The original `VecDeque` + std `HashSet` design survives as the
/// test-only oracle `RefFifoCache` (`tests/oracle/reference.rs`).
#[derive(Clone, Debug)]
pub struct FifoCache {
    capacity: usize,
    ring: Vec<u64>,
    /// Oldest slot once the ring is full — the next eviction target.
    cursor: usize,
    resident: FxHashSet<u64>,
}

impl FifoCache {
    /// A FIFO cache of `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache needs capacity");
        Self {
            capacity,
            ring: Vec::with_capacity(capacity),
            cursor: 0,
            resident: fx_set_with_capacity(capacity),
        }
    }

    /// Resident pages in eviction order (oldest admitted first).
    pub fn residency(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.ring.len());
        for i in 0..self.ring.len() {
            out.push(self.ring[(self.cursor + i) % self.ring.len()]);
        }
        out
    }
}

impl CachePolicy for FifoCache {
    fn name(&self) -> String {
        "FIFO".into()
    }

    fn capacity_pages(&self) -> usize {
        self.capacity
    }

    fn access(&mut self, page: u64, _op: Op) -> bool {
        if self.resident.contains(&page) {
            return true;
        }
        if self.ring.len() == self.capacity {
            let evicted = std::mem::replace(&mut self.ring[self.cursor], page);
            self.resident.remove(&evicted);
            self.cursor = (self.cursor + 1) % self.capacity;
        } else {
            self.ring.push(page);
        }
        self.resident.insert(page);
        false
    }

    fn len(&self) -> usize {
        self.ring.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn touch(c: &mut FifoCache, page: u64) -> bool {
        c.access(page, Op::Read)
    }

    #[test]
    fn hits_after_admission() {
        let mut c = FifoCache::new(2);
        assert!(!touch(&mut c, 1));
        assert!(touch(&mut c, 1));
    }

    #[test]
    fn evicts_in_admission_order() {
        let mut c = FifoCache::new(2);
        touch(&mut c, 1);
        touch(&mut c, 2);
        // Re-touching page 1 does NOT protect it in FIFO.
        assert!(touch(&mut c, 1));
        touch(&mut c, 3); // evicts 1 (oldest admitted)
        assert!(!touch(&mut c, 1)); // this miss re-admits 1, evicting 2
        assert!(!touch(&mut c, 2)); // and this one re-admits 2, evicting 3
        assert!(touch(&mut c, 1)); // 1 survived both: [1, 2] resident
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = FifoCache::new(3);
        for p in 0..100 {
            touch(&mut c, p);
            assert!(c.len() <= 3);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.capacity_pages(), 3);
    }

    #[test]
    fn sequential_stream_never_hits() {
        let mut c = FifoCache::new(8);
        let hits = (0..100).filter(|&p| touch(&mut c, p)).count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn residency_is_in_admission_order_across_wraps() {
        let mut c = FifoCache::new(3);
        for p in [1, 2, 3] {
            touch(&mut c, p);
        }
        assert_eq!(c.residency(), vec![1, 2, 3]);
        touch(&mut c, 4); // wraps: evicts 1
        assert_eq!(c.residency(), vec![2, 3, 4]);
        touch(&mut c, 5); // evicts 2
        assert_eq!(c.residency(), vec![3, 4, 5]);
    }

    proptest! {
        #[test]
        fn ring_fifo_agrees_with_the_reference_implementation(
            capacity in 1usize..24,
            accesses in prop::collection::vec(0u64..48, 1..500),
        ) {
            let mut ring = FifoCache::new(capacity);
            let mut reference = crate::reference::RefFifoCache::new(capacity);
            for (i, &page) in accesses.iter().enumerate() {
                let op = if page % 2 == 0 { Op::Write } else { Op::Read };
                let a = ring.access(page, op);
                let b = reference.access(page, op);
                prop_assert_eq!(a, b, "access {} (page {}) diverged", i, page);
                prop_assert_eq!(ring.len(), reference.len(), "len diverged at access {}", i);
            }
            // Same resident pages in the same admission order.
            prop_assert_eq!(ring.residency(), reference.residency());
        }
    }
}
