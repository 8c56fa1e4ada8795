//! Cache deployment location: CN-cache versus BS-cache (§7.3.2).
//!
//! A compute-node cache serves hits without touching the storage cluster
//! (latency = compute stage only); a BlockServer cache still pays the
//! frontend network and BS processing but skips the backend network and
//! ChunkServer. The *latency gain* at percentile q is
//! `q%ile(with cache) / q%ile(without)` — smaller is better.

use crate::frozen::FrozenCache;
use crate::hottest_block::HottestBlock;
use crate::policy::pages_of;
use ebs_core::hash::FxHashMap;
use ebs_core::ids::VdId;
use ebs_core::io::{IoEvent, Op};
use ebs_core::trace::StageLatency;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Where the frozen cache is deployed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheSite {
    /// On the compute node (hits skip the entire storage cluster).
    ComputeNode,
    /// On the BlockServer (hits skip the backend network + ChunkServer).
    BlockServer,
}

impl CacheSite {
    /// Both sites.
    pub const ALL: [CacheSite; 2] = [CacheSite::ComputeNode, CacheSite::BlockServer];

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            CacheSite::ComputeNode => "CN-cache",
            CacheSite::BlockServer => "BS-cache",
        }
    }
}

/// Latency gain at the percentiles Figure 7(b/c) reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyGain {
    /// Gain at the 0th percentile (best case).
    pub p0: f64,
    /// Gain at the median.
    pub p50: f64,
    /// Gain at the 99th percentile (tail).
    pub p99: f64,
}

/// Per-IO cache-hit oracle: which events hit a frozen cache pinned at
/// each cacheable VD's hottest block. VDs whose hottest-block access rate
/// is below `threshold` get no cache.
///
/// Builds each cacheable VD's frozen range once, then scans the events in
/// a single pass.
pub fn hit_oracle<S: BuildHasher>(
    hot: &HashMap<VdId, HottestBlock, S>,
    events: &[IoEvent],
    threshold: f64,
) -> Vec<bool> {
    let caches: FxHashMap<VdId, FrozenCache> = hot
        // ebs-lint: allow(D6) -- collects into a keyed map; insertion order cannot affect its contents
        .iter()
        .filter(|(_, hb)| hb.access_rate >= threshold)
        .map(|(&vd, hb)| {
            (
                vd,
                FrozenCache::covering_bytes(hb.block * hb.block_size, hb.block_size),
            )
        })
        .collect();
    events
        .iter()
        .map(|ev| match caches.get(&ev.vd) {
            // An IO is a hit when every page it touches is frozen.
            Some(cache) => pages_of(ev.offset, ev.size).all(|p| cache.contains(p)),
            None => false,
        })
        .collect()
}

/// Latency gain of deploying frozen caches at `site`, for `op` traffic,
/// over the given events, their simulated latencies (row for row) and hit
/// oracle. `None` when no events of that op exist.
pub fn latency_gain(
    events: &[IoEvent],
    lat: &[StageLatency],
    hits: &[bool],
    site: CacheSite,
    op: Op,
) -> Option<LatencyGain> {
    gain_where(events, lat, hits, op, |_| Some(site))
}

/// Latency gain when each cache hit of `op` traffic is served at its VD's
/// site (`site_of`, `None` = uncached) and every other IO pays the full
/// path: `q%ile(with) / q%ile(without)` at p0, p50 and p99. `None` when
/// no events of `op` exist.
///
/// # Panics
/// Panics when `events`, `lat` and `hits` differ in length.
pub(crate) fn gain_where(
    events: &[IoEvent],
    lat: &[StageLatency],
    hits: &[bool],
    op: Op,
    site_of: impl Fn(VdId) -> Option<CacheSite>,
) -> Option<LatencyGain> {
    assert!(events.len() == lat.len() && lat.len() == hits.len());
    let mut without = Vec::new();
    let mut with = Vec::new();
    for ((ev, lat), &hit) in events.iter().zip(lat).zip(hits) {
        if ev.op != op {
            continue;
        }
        let full = lat.total_us();
        without.push(full);
        with.push(match (hit, site_of(ev.vd)) {
            (true, Some(CacheSite::ComputeNode)) => lat.cn_cache_us(),
            (true, Some(CacheSite::BlockServer)) => lat.bs_cache_us(),
            _ => full,
        });
    }
    if without.is_empty() {
        return None;
    }
    let gain = |q: f64| -> f64 {
        let w = ebs_analysis::quantile(&with, q).expect("non-empty");
        let o = ebs_analysis::quantile(&without, q).expect("non-empty");
        if o > 0.0 {
            w / o
        } else {
            1.0
        }
    };
    Some(LatencyGain {
        p0: gain(0.0),
        p50: gain(0.5),
        p99: gain(0.99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::ids::QpId;

    /// One 4 KiB event of `vd` at `offset` and its latency, with a slow
    /// ChunkServer when `tail`.
    fn io(i: u64, vd: u32, op: Op, offset: u64, tail: bool) -> (IoEvent, StageLatency) {
        let ev = IoEvent {
            t_us: i,
            vd: VdId(vd),
            qp: QpId(0),
            op,
            size: 4096,
            offset,
        };
        let lat = StageLatency {
            compute_us: 10.0,
            frontend_us: 40.0,
            block_server_us: 10.0,
            backend_us: 20.0,
            chunk_server_us: if tail { 2000.0 } else { 120.0 },
        };
        (ev, lat)
    }

    fn columns(ios: Vec<(IoEvent, StageLatency)>) -> (Vec<IoEvent>, Vec<StageLatency>) {
        ios.into_iter().unzip()
    }

    fn hot_for(vd: u32, rate: f64) -> (VdId, HottestBlock) {
        (
            VdId(vd),
            HottestBlock {
                vd: VdId(vd),
                block: 0,
                block_size: 64 << 20,
                access_rate: rate,
                total_accesses: 100,
                reads: 10,
                writes: 90,
            },
        )
    }

    #[test]
    fn oracle_marks_in_block_ios_of_cacheable_vds() {
        let hot: FxHashMap<_, _> = [hot_for(0, 0.5)].into_iter().collect();
        let (events, _) = columns(vec![
            io(0, 0, Op::Write, 0, false),       // in block → hit
            io(1, 0, Op::Write, 1 << 30, false), // outside → miss
            io(2, 1, Op::Write, 0, false),       // VD without cache
        ]);
        let hits = hit_oracle(&hot, &events, 0.25);
        assert_eq!(hits, vec![true, false, false]);
    }

    #[test]
    fn threshold_disables_cold_vds() {
        let hot: FxHashMap<_, _> = [hot_for(0, 0.1)].into_iter().collect();
        let (events, _) = columns(vec![io(0, 0, Op::Write, 0, false)]);
        let hits = hit_oracle(&hot, &events, 0.25);
        assert_eq!(hits, vec![false]);
    }

    #[test]
    fn cn_gain_beats_bs_gain() {
        let hot: FxHashMap<_, _> = [hot_for(0, 0.9)].into_iter().collect();
        let (events, lat) = columns((0..100).map(|i| io(i, 0, Op::Write, 0, false)).collect());
        let hits = hit_oracle(&hot, &events, 0.25);
        let cn = latency_gain(&events, &lat, &hits, CacheSite::ComputeNode, Op::Write).unwrap();
        let bs = latency_gain(&events, &lat, &hits, CacheSite::BlockServer, Op::Write).unwrap();
        assert!(cn.p50 < bs.p50, "CN {cn:?} vs BS {bs:?}");
        assert!(bs.p50 < 1.0);
    }

    #[test]
    fn tail_unaffected_when_tail_ios_miss() {
        // 95 cached fast IOs + tail IOs outside the hot block: the 99%ile
        // barely moves (the Figure 7(b/c) tail result).
        let hot: FxHashMap<_, _> = [hot_for(0, 0.9)].into_iter().collect();
        let mut ios: Vec<_> = (0..95).map(|i| io(i, 0, Op::Write, 0, false)).collect();
        for i in 95..100 {
            ios.push(io(i, 0, Op::Write, 1 << 30, true));
        }
        let (events, lat) = columns(ios);
        let hits = hit_oracle(&hot, &events, 0.25);
        let g = latency_gain(&events, &lat, &hits, CacheSite::ComputeNode, Op::Write).unwrap();
        assert!(g.p50 < 0.5, "median should improve: {g:?}");
        assert!(g.p99 > 0.9, "tail should not: {g:?}");
    }

    #[test]
    fn missing_op_returns_none() {
        let (events, lat) = columns(vec![io(0, 0, Op::Write, 0, false)]);
        let hits = vec![false];
        assert!(latency_gain(&events, &lat, &hits, CacheSite::ComputeNode, Op::Read).is_none());
    }
}
