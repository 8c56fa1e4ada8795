//! Hottest-block analysis (§7.1–7.2, Figure 6).
//!
//! Divide each VD's LBA space into fixed-size blocks and find the block
//! with the highest access rate; then characterise it: LBA share,
//! write-to-read ratio, and *hot rate* — the fraction of 5-minute windows
//! in which the block beats its own long-run access rate.

use ebs_core::hash::FxHashMap;
use ebs_core::ids::VdId;
use ebs_core::index::window_runs;
use ebs_core::io::IoEvent;

/// The block sizes swept by Figure 6/7, in bytes.
pub const BLOCK_SIZES: [u64; 6] = [
    64 << 20,
    128 << 20,
    256 << 20,
    512 << 20,
    1024 << 20,
    2048 << 20,
];

/// Window width for the hot-rate analysis (5 minutes, §7.2).
pub const HOT_RATE_WINDOW_US: u64 = 300 * 1_000_000;

/// Group a time-sorted event stream by VD (order preserved), copying every
/// event into per-VD `Vec`s: the test-only counterpart of the zero-copy
/// [`ebs_core::EventIndex`] views production code borrows.
#[cfg(test)]
pub(crate) fn events_by_vd(
    fleet: &ebs_core::topology::Fleet,
    events: &[IoEvent],
) -> Vec<Vec<IoEvent>> {
    let mut out = vec![Vec::new(); fleet.vds.len()];
    for ev in events {
        out[ev.vd.index()].push(*ev);
    }
    out
}

/// The hottest block of one VD at one block size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HottestBlock {
    /// The disk.
    pub vd: VdId,
    /// Block index (offset / block_size).
    pub block: u64,
    /// Block size used.
    pub block_size: u64,
    /// Share of the VD's accesses landing in this block, in `[0, 1]`.
    pub access_rate: f64,
    /// Accesses observed on the VD in total.
    pub total_accesses: usize,
    /// Reads / writes hitting the block.
    pub reads: usize,
    /// Writes hitting the block.
    pub writes: usize,
}

impl HottestBlock {
    /// Share of the VD's LBA space this block covers, in `(0, 1]`.
    pub fn lba_share(&self, capacity_bytes: u64) -> f64 {
        (self.block_size as f64 / capacity_bytes as f64).min(1.0)
    }

    /// Normalized write-to-read ratio of the block (`None` if untouched).
    pub fn wr_ratio(&self) -> Option<f64> {
        ebs_analysis::wr_ratio(self.writes as f64, self.reads as f64)
    }
}

/// Find the hottest block of a VD's event stream; `None` when the stream
/// is empty. Access rate counts IOs (each IO attributed to the block of
/// its starting offset, as the datasets do).
pub fn hottest_block(vd: VdId, events: &[IoEvent], block_size: u64) -> Option<HottestBlock> {
    if events.is_empty() {
        return None;
    }
    let mut counts: FxHashMap<u64, (usize, usize)> = FxHashMap::default(); // block → (reads, writes)
    for ev in events {
        let e = counts.entry(ev.offset / block_size).or_default();
        if ev.op.is_read() {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    let (&block, &(reads, writes)) = counts
        // ebs-lint: allow(D6) -- the max key embeds the unique block id, so the winner is iteration-order-independent
        .iter()
        .max_by_key(|&(b, &(r, w))| (r + w, std::cmp::Reverse(*b)))?;
    let total = events.len();
    Some(HottestBlock {
        vd,
        block,
        block_size,
        access_rate: (reads + writes) as f64 / total as f64,
        total_accesses: total,
        reads,
        writes,
    })
}

/// Hot rate of a VD's hottest block (Figure 6(d)): the fraction of
/// 5-minute windows (among windows where the VD saw any traffic) in which
/// the block's within-window access rate exceeds its long-run rate.
/// `None` when fewer than `min_windows` active windows exist.
///
/// `events` must be time-sorted (every per-VD view of the shared event
/// index is): each active window is then one contiguous run, so a single
/// linear scan replaces the old per-window hash map (kept as the test-only
/// oracle `ref_hot_rate`, which the tests check against).
pub fn hot_rate(
    events: &[IoEvent],
    hb: &HottestBlock,
    window_us: u64,
    min_windows: usize,
) -> Option<f64> {
    if events.is_empty() {
        return None;
    }
    debug_assert!(
        events.windows(2).all(|w| w[0].t_us <= w[1].t_us),
        "hot_rate needs a time-sorted stream"
    );
    let mut windows = 0usize;
    let mut above = 0usize;
    for (_w, run) in window_runs(events, window_us) {
        let blk = run
            .iter()
            .filter(|e| e.offset / hb.block_size == hb.block)
            .count();
        windows += 1;
        if blk as f64 / run.len() as f64 > hb.access_rate {
            above += 1;
        }
    }
    if windows < min_windows {
        return None;
    }
    Some(above as f64 / windows as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::ids::QpId;
    use ebs_core::io::Op;

    fn ev(t_us: u64, op: Op, offset: u64) -> IoEvent {
        IoEvent {
            t_us,
            vd: VdId(0),
            qp: QpId(0),
            op,
            size: 4096,
            offset,
        }
    }

    #[test]
    fn hottest_block_finds_the_mode() {
        let bs = 64 << 20;
        let mut events = Vec::new();
        for i in 0..70 {
            events.push(ev(i, Op::Write, bs * 3 + (i % 16) * 4096)); // block 3
        }
        for i in 0..30 {
            events.push(ev(i, Op::Read, bs * 10));
        }
        let hb = hottest_block(VdId(0), &events, bs).unwrap();
        assert_eq!(hb.block, 3);
        assert!((hb.access_rate - 0.7).abs() < 1e-12);
        assert_eq!(hb.writes, 70);
        assert_eq!(hb.reads, 0);
        assert_eq!(hb.wr_ratio(), Some(1.0));
    }

    #[test]
    fn lba_share_is_block_over_capacity() {
        let hb = HottestBlock {
            vd: VdId(0),
            block: 0,
            block_size: 64 << 20,
            access_rate: 0.5,
            total_accesses: 10,
            reads: 5,
            writes: 5,
        };
        let cap = 100u64 << 30;
        assert!((hb.lba_share(cap) - (64.0 / (100.0 * 1024.0))).abs() < 1e-9);
        // Tiny disk: share clamps at 1.
        assert_eq!(hb.lba_share(32 << 20), 1.0);
    }

    #[test]
    fn empty_stream_has_no_hottest_block() {
        assert_eq!(hottest_block(VdId(0), &[], 64 << 20), None);
    }

    #[test]
    fn hot_rate_is_half_for_alternating_windows() {
        let bs = 64u64 << 20;
        let w = HOT_RATE_WINDOW_US;
        let mut events = Vec::new();
        // 4 windows; block 0 gets 100% of accesses in windows 0 and 2,
        // 0% in windows 1 and 3. Long-run rate is 50%.
        for win in 0..4u64 {
            for i in 0..10u64 {
                let offset = if win % 2 == 0 { 0 } else { bs * 5 };
                events.push(ev(win * w + i, Op::Write, offset));
            }
        }
        let hb = hottest_block(VdId(0), &events, bs).unwrap();
        assert!((hb.access_rate - 0.5).abs() < 1e-12);
        let hr = hot_rate(&events, &hb, w, 2).unwrap();
        assert!((hr - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hot_rate_requires_enough_windows() {
        let events = vec![ev(0, Op::Read, 0)];
        let hb = hottest_block(VdId(0), &events, 64 << 20).unwrap();
        assert_eq!(hot_rate(&events, &hb, HOT_RATE_WINDOW_US, 2), None);
    }

    #[test]
    fn events_by_vd_partitions() {
        let ds = ebs_workload::generate(&ebs_workload::WorkloadConfig::quick(95)).unwrap();
        let by_vd = events_by_vd(&ds.fleet, &ds.events);
        let total: usize = by_vd.iter().map(Vec::len).sum();
        assert_eq!(total, ds.events.len());
        let idx = ds.index();
        for (i, evs) in by_vd.iter().enumerate() {
            for e in evs {
                assert_eq!(e.vd.index(), i);
            }
            // The shared index's zero-copy view holds the same events.
            assert_eq!(idx.vd(VdId::from_index(i)), evs.as_slice(), "VD {i}");
        }
    }

    #[test]
    fn cache_kernels_agree_with_the_references_on_every_hot_block() {
        use crate::reference::{RefFifoCache, RefLruCache};
        use crate::simulate::simulate;
        use crate::{FifoCache, LruCache};
        let ds = ebs_workload::generate(&ebs_workload::WorkloadConfig::quick(95)).unwrap();
        for (i, evs) in ds.index().vd_slices().into_iter().enumerate() {
            for bs in BLOCK_SIZES {
                if hottest_block(VdId::from_index(i), evs, bs).is_none() {
                    continue;
                }
                let pages = (bs / crate::policy::PAGE_BYTES) as usize;
                assert_eq!(
                    simulate(&mut LruCache::new(pages), evs),
                    simulate(&mut RefLruCache::new(pages), evs),
                    "LRU, VD {i}, block {bs}"
                );
                assert_eq!(
                    simulate(&mut FifoCache::new(pages), evs),
                    simulate(&mut RefFifoCache::new(pages), evs),
                    "FIFO, VD {i}, block {bs}"
                );
            }
        }
    }

    #[test]
    fn run_scan_hot_rate_matches_the_reference() {
        let ds = ebs_workload::generate(&ebs_workload::WorkloadConfig::quick(95)).unwrap();
        for (i, evs) in events_by_vd(&ds.fleet, &ds.events).iter().enumerate() {
            let Some(hb) = hottest_block(VdId::from_index(i), evs, 64 << 20) else {
                continue;
            };
            for min_windows in [1usize, 2, 8] {
                assert_eq!(
                    hot_rate(evs, &hb, HOT_RATE_WINDOW_US, min_windows),
                    crate::reference::ref_hot_rate(evs, &hb, HOT_RATE_WINDOW_US, min_windows),
                    "VD {i}, min_windows {min_windows}"
                );
            }
        }
    }

    #[test]
    fn generated_hot_blocks_are_write_dominant() {
        // The workload generator's LBA model should reproduce §7.2: most
        // hottest blocks are write-dominant.
        let ds = ebs_workload::generate(&ebs_workload::WorkloadConfig::quick(96)).unwrap();
        let by_vd = events_by_vd(&ds.fleet, &ds.events);
        let mut write_dom = 0;
        let mut total = 0;
        for (i, evs) in by_vd.iter().enumerate() {
            if evs.len() < 50 {
                continue;
            }
            let hb = hottest_block(VdId::from_index(i), evs, 64 << 20).unwrap();
            if let Some(r) = hb.wr_ratio() {
                total += 1;
                if r > ebs_analysis::wr_ratio::WRITE_DOMINANT {
                    write_dom += 1;
                }
            }
        }
        assert!(total > 3, "not enough busy VDs ({total})");
        assert!(
            write_dom * 2 > total,
            "only {write_dom}/{total} hottest blocks write-dominant"
        );
    }
}
