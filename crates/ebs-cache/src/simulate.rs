//! Trace-driven cache simulation (§7.3.1, Figure 7(a)).
//!
//! Protocol from the paper: 4 KiB pages; the cache is sized to the VD's
//! hottest block; the frozen cache is pinned at the hottest block's LBA.
//! Hit ratios are measured per VD over its sampled IO stream.

use crate::fifo::FifoCache;
use crate::frozen::FrozenCache;
use crate::hottest_block::HottestBlock;
use crate::lru::LruCache;
use crate::policy::{pages_of, CachePolicy, PAGE_BYTES};
use ebs_core::io::IoEvent;

/// The three algorithms compared by Figure 7(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// First-in-first-out.
    Fifo,
    /// Least-recently-used.
    Lru,
    /// Frozen cache pinned at the hottest block.
    Frozen,
}

impl Algorithm {
    /// All three, in the figure's order.
    pub const ALL: [Algorithm; 3] = [Algorithm::Fifo, Algorithm::Lru, Algorithm::Frozen];

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Fifo => "FIFO",
            Algorithm::Lru => "LRU",
            Algorithm::Frozen => "FrozenHot",
        }
    }
}

/// Result of simulating one policy over one VD.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HitStats {
    /// Page accesses offered.
    pub accesses: u64,
    /// Page hits.
    pub hits: u64,
}

impl HitStats {
    /// Hit ratio in `[0, 1]`; `None` when no accesses were offered.
    pub fn ratio(&self) -> Option<f64> {
        if self.accesses == 0 {
            None
        } else {
            Some(self.hits as f64 / self.accesses as f64)
        }
    }
}

/// Cache pages per the paper's protocol for a VD whose hottest block is
/// `hb`: the cache is sized to the hottest block.
fn policy_pages(hb: &HottestBlock) -> usize {
    (hb.block_size / PAGE_BYTES).max(1) as usize
}

/// Run one policy over a VD's event stream, counting page-level hits.
///
/// Generic over the policy type: called with a concrete `FifoCache` /
/// `LruCache` / `FrozenCache` the access loop monomorphizes and inlines.
pub fn simulate<P: CachePolicy>(policy: &mut P, events: &[IoEvent]) -> HitStats {
    let mut stats = HitStats {
        accesses: 0,
        hits: 0,
    };
    for ev in events {
        for page in pages_of(ev.offset, ev.size) {
            stats.accesses += 1;
            if policy.access(page, ev.op) {
                stats.hits += 1;
            }
        }
    }
    stats
}

/// Simulate every algorithm of Figure 7(a) over one **shared, immutable**
/// event stream. Policy state is private per run; the stream is only ever
/// borrowed, so a policy × capacity sweep never clones events. Each
/// algorithm runs through a statically-dispatched `simulate` instance.
pub fn sweep_policies(hb: &HottestBlock, events: &[IoEvent]) -> Vec<(Algorithm, HitStats)> {
    let obs_on = ebs_obs::enabled();
    Algorithm::ALL
        .iter()
        .map(|&algo| {
            let (stats, resident) = match algo {
                Algorithm::Fifo => {
                    let mut policy = FifoCache::new(policy_pages(hb));
                    (simulate(&mut policy, events), policy.len())
                }
                Algorithm::Lru => {
                    let mut policy = LruCache::new(policy_pages(hb));
                    (simulate(&mut policy, events), policy.len())
                }
                Algorithm::Frozen => {
                    let mut policy =
                        FrozenCache::covering_bytes(hb.block * hb.block_size, hb.block_size);
                    (simulate(&mut policy, events), policy.len())
                }
            };
            if obs_on {
                let misses = stats.accesses - stats.hits;
                let key = algo.label().to_lowercase();
                let mut reg = ebs_obs::Registry::new();
                reg.counter_add(&format!("cache.{key}.accesses"), stats.accesses);
                reg.counter_add(&format!("cache.{key}.hits"), stats.hits);
                reg.counter_add(&format!("cache.{key}.misses"), misses);
                // FIFO/LRU admit every miss, so evictions are the misses
                // that no longer fit. FrozenHot never admits or evicts, so
                // it has no eviction counter.
                if matches!(algo, Algorithm::Fifo | Algorithm::Lru) {
                    let evictions = misses - resident.min(misses as usize) as u64;
                    reg.counter_add(&format!("cache.{key}.evictions"), evictions);
                }
                ebs_obs::merge(&reg);
            }
            (algo, stats)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hottest_block::hottest_block;
    use ebs_core::ids::{QpId, VdId};
    use ebs_core::io::Op;

    fn ev(t: u64, op: Op, offset: u64, size: u32) -> IoEvent {
        IoEvent {
            t_us: t,
            vd: VdId(0),
            qp: QpId(0),
            op,
            size,
            offset,
        }
    }

    fn hot_write_stream(block_size: u64) -> Vec<IoEvent> {
        // 80% of IOs loop inside one block; 20% scattered far away.
        let mut events = Vec::new();
        for i in 0..500u64 {
            if i % 5 == 4 {
                events.push(ev(i, Op::Read, (i * 131) % 64 * (1 << 30), 4096));
            } else {
                events.push(ev(
                    i,
                    Op::Write,
                    block_size * 2 + (i * 4096) % block_size,
                    4096,
                ));
            }
        }
        events
    }

    #[test]
    fn frozen_hits_exactly_the_hot_block() {
        let bs = 64u64 << 20;
        let events = hot_write_stream(bs);
        let hb = hottest_block(VdId(0), &events, bs).unwrap();
        assert_eq!(hb.block, 2);
        let mut frozen = FrozenCache::covering_bytes(hb.block * hb.block_size, hb.block_size);
        let stats = simulate(&mut frozen, &events);
        let ratio = stats.ratio().unwrap();
        assert!((ratio - 0.8).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn fifo_and_lru_agree_on_sequential_hot_writes() {
        let bs = 64u64 << 20;
        let events = hot_write_stream(bs);
        let hb = hottest_block(VdId(0), &events, bs).unwrap();
        let mut fifo = FifoCache::new(policy_pages(&hb));
        let mut lru = LruCache::new(policy_pages(&hb));
        let f = simulate(&mut fifo, &events).ratio().unwrap();
        let l = simulate(&mut lru, &events).ratio().unwrap();
        assert!((f - l).abs() < 0.05, "FIFO {f} vs LRU {l}");
    }

    #[test]
    fn multi_page_ios_count_each_page() {
        let hb = HottestBlock {
            vd: VdId(0),
            block: 0,
            block_size: 64 << 20,
            access_rate: 1.0,
            total_accesses: 1,
            reads: 0,
            writes: 1,
        };
        let mut lru = LruCache::new(policy_pages(&hb));
        // One 64 KiB IO = 16 page accesses, all cold.
        let stats = simulate(&mut lru, &[ev(0, Op::Write, 0, 65536)]);
        assert_eq!(stats.accesses, 16);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn empty_stream_has_no_ratio() {
        let stats = HitStats {
            accesses: 0,
            hits: 0,
        };
        assert_eq!(stats.ratio(), None);
    }
}
