//! Least-Recently-Used cache.

use crate::policy::CachePolicy;
use ebs_core::hash::{fx_map_with_capacity, FxHashMap};
use ebs_core::io::Op;

/// Sentinel slot index for "no node".
const NIL: u32 = u32::MAX;

/// One slab slot of the recency list.
#[derive(Clone, Copy, Debug)]
struct Node {
    page: u64,
    prev: u32,
    next: u32,
}

/// LRU: every access refreshes recency; the stalest page is evicted.
///
/// Implemented as an intrusive doubly-linked list threaded through a slab
/// of pre-allocated nodes, with a deterministic fast-hash map page → slot.
/// Every operation — hit refresh, miss admission, eviction — is O(1):
/// unlink/relink is three pointer writes, and the evicted victim's slot is
/// reused in place for the admitted page (no allocation after warm-up).
/// This replaces the original logical-clock design (`HashMap` stamps plus
/// a `BTreeMap` recency order, O(log n) per access), which survives as the
/// test-only oracle `RefLruCache` (`tests/oracle/reference.rs`).
#[derive(Clone, Debug)]
pub struct LruCache {
    capacity: usize,
    slot_of: FxHashMap<u64, u32>,
    nodes: Vec<Node>,
    /// Most-recently-used slot.
    head: u32,
    /// Least-recently-used slot (the eviction victim).
    tail: u32,
}

impl LruCache {
    /// An LRU cache of `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache needs capacity");
        Self {
            capacity,
            slot_of: fx_map_with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
        }
    }

    /// Detach `slot` from the list (its prev/next become dangling).
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Attach `slot` at the head (most-recent end).
    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let node = &mut self.nodes[slot as usize];
            node.prev = NIL;
            node.next = old_head;
        }
        match old_head {
            NIL => self.tail = slot,
            h => self.nodes[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Resident pages in eviction order (least-recent first).
    pub fn residency(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut slot = self.tail;
        while slot != NIL {
            let node = self.nodes[slot as usize];
            out.push(node.page);
            slot = node.prev;
        }
        out
    }
}

impl CachePolicy for LruCache {
    fn name(&self) -> String {
        "LRU".into()
    }

    fn capacity_pages(&self) -> usize {
        self.capacity
    }

    fn access(&mut self, page: u64, _op: Op) -> bool {
        if let Some(&slot) = self.slot_of.get(&page) {
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return true;
        }
        let slot = if self.nodes.len() == self.capacity {
            // At capacity: evict the tail and reuse its slot in place.
            let victim = self.tail;
            let old_page = self.nodes[victim as usize].page;
            self.slot_of.remove(&old_page);
            self.unlink(victim);
            self.nodes[victim as usize].page = page;
            victim
        } else {
            let slot = self.nodes.len() as u32;
            self.nodes.push(Node {
                page,
                prev: NIL,
                next: NIL,
            });
            slot
        };
        self.slot_of.insert(page, slot);
        self.push_front(slot);
        false
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn touch(c: &mut LruCache, page: u64) -> bool {
        c.access(page, Op::Write)
    }

    #[test]
    fn recency_protects_pages() {
        let mut c = LruCache::new(2);
        touch(&mut c, 1);
        touch(&mut c, 2);
        assert!(touch(&mut c, 1)); // 1 is now most recent
        touch(&mut c, 3); // evicts 2 (least recent)
        assert!(touch(&mut c, 1));
        assert!(!touch(&mut c, 2));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = LruCache::new(4);
        for p in 0..1000 {
            touch(&mut c, p % 10);
            assert!(c.len() <= 4);
        }
    }

    #[test]
    fn working_set_within_capacity_always_hits() {
        let mut c = LruCache::new(4);
        for p in 0..4 {
            touch(&mut c, p);
        }
        let hits = (0..100).filter(|i| touch(&mut c, i % 4)).count();
        assert_eq!(hits, 100);
    }

    #[test]
    fn list_and_map_stay_consistent() {
        let mut c = LruCache::new(3);
        for i in 0..500u64 {
            touch(&mut c, (i * 7) % 11);
            let resident = c.residency();
            assert_eq!(resident.len(), c.slot_of.len());
            for page in resident {
                assert!(c.slot_of.contains_key(&page));
            }
        }
    }

    #[test]
    fn residency_is_in_recency_order() {
        let mut c = LruCache::new(3);
        touch(&mut c, 1);
        touch(&mut c, 2);
        touch(&mut c, 3);
        touch(&mut c, 1); // refresh 1 → order is now 2, 3, 1
        assert_eq!(c.residency(), vec![2, 3, 1]);
        touch(&mut c, 4); // evicts 2
        assert_eq!(c.residency(), vec![3, 1, 4]);
    }

    #[test]
    fn lru_equals_fifo_on_sequential_writes() {
        // The paper's §7.3.1 observation: hot blocks see sequential writes,
        // where LRU degenerates to FIFO (no re-references to exploit).
        let mut lru = LruCache::new(8);
        let mut fifo = crate::fifo::FifoCache::new(8);
        for p in 0..200u64 {
            assert_eq!(lru.access(p, Op::Write), fifo.access(p, Op::Write));
        }
    }

    proptest! {
        #[test]
        fn slab_lru_agrees_with_the_reference_implementation(
            capacity in 1usize..24,
            accesses in prop::collection::vec(0u64..48, 1..500),
        ) {
            let mut slab = LruCache::new(capacity);
            let mut reference = crate::reference::RefLruCache::new(capacity);
            for (i, &page) in accesses.iter().enumerate() {
                let op = if page % 3 == 0 { Op::Write } else { Op::Read };
                let a = slab.access(page, op);
                let b = reference.access(page, op);
                prop_assert_eq!(a, b, "access {} (page {}) diverged", i, page);
                prop_assert_eq!(slab.len(), reference.len(), "len diverged at access {}", i);
            }
            // Same resident pages in the same eviction order.
            prop_assert_eq!(slab.residency(), reference.residency());
        }
    }
}
