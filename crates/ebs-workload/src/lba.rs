//! Per-VD logical-block-address model (§7).
//!
//! The paper finds that each VD's IO concentrates on a small "hottest
//! block": for the median VD a 64 MiB block covering 3 % of the LBA absorbs
//! 18 % of accesses; hot blocks are write-dominant (sequential writes with
//! journal-style overwrite churn, which is why FIFO ≈ LRU in Figure 7(a))
//! and stay hot in roughly half of the 5-minute windows (hot rate ≈ 50 %,
//! Figure 6(d)). At the segment level, traffic is overwhelmingly
//! single-sided — a segment is either read-dominant or write-dominant
//! (Figure 5(b)).
//!
//! [`LbaModel`] reproduces that structure with several independent hot
//! *spots* per direction — a VD hosts a handful of hot files, not one:
//!
//! * **write spots** are streamed sequentially (per-spot cursor, wrapping)
//!   with a configurable fraction of journal-style rewrites of recent
//!   offsets;
//! * **read spots** are re-referenced uniformly;
//! * spot placement is independent, so the segments they land in are
//!   usually single-sided, and a frozen cache pinned at the single hottest
//!   block covers only the top spot — the reason FrozenHot trails FIFO/LRU
//!   at small cache sizes and only catches up once the cache spans every
//!   spot (Figure 7(a)).
//!
//! The fraction of traffic hitting the hot set is modulated per 5-minute
//! window so the hot rate lands near 50 %.

use crate::profile::HotSpotProfile;
use ebs_core::io::Op;
use ebs_core::rng::{SimRng, WeightTable};
use ebs_core::units::{KIB, MIB, SEGMENT_BYTES};

/// Smallest / largest hot-spot size the model will generate.
const MIN_REGION: u64 = 8 * MIB;
const MAX_REGION: u64 = 2048 * MIB;

/// Window width used for hot-fraction modulation (the paper re-checks the
/// hottest block over 5-minute windows).
pub const HOT_WINDOW_SECS: f64 = 300.0;

/// Span behind a spot's cursor that journal-style rewrites target.
const REWRITE_WINDOW: u64 = 8 * MIB;

/// One contiguous hot spot, fully inside a single segment.
#[derive(Clone, Copy, Debug)]
struct HotSpot {
    start: u64,
    len: u64,
    cursor: u64,
}

impl HotSpot {
    fn generate(rng: &mut SimRng, capacity: u64, mu: f64, sigma: f64) -> HotSpot {
        let raw = crate::dist::gaussian::lognormal(rng, mu, sigma);
        let len = (raw as u64)
            .clamp(MIN_REGION, MAX_REGION)
            .min(capacity / 2)
            .max(MIN_REGION.min(capacity / 2).max(4 * KIB));
        let seg_count = capacity.div_ceil(SEGMENT_BYTES).max(1);
        let seg = rng.below(seg_count);
        let seg_start = seg * SEGMENT_BYTES;
        let seg_len = SEGMENT_BYTES.min(capacity - seg_start);
        let len = len.min(seg_len);
        let slack = seg_len.saturating_sub(len);
        let start = seg_start + if slack > 0 { rng.below(slack + 1) } else { 0 };
        HotSpot {
            start,
            len,
            cursor: 0,
        }
    }

    fn segment_index(&self) -> u32 {
        (self.start / SEGMENT_BYTES) as u32
    }
}

/// LBA access model of one virtual disk.
#[derive(Clone, Debug)]
pub struct LbaModel {
    capacity: u64,
    write_spots: Vec<HotSpot>,
    read_spots: Vec<HotSpot>,
    /// Popularity weights over spots (shared shape for both directions;
    /// index 0 is the dominant spot).
    write_weights: WeightTable,
    read_weights: WeightTable,
    hot_frac_write: f64,
    hot_frac_read: f64,
    rewrite_frac: f64,
    noise_seed: u64,
}

impl LbaModel {
    /// Build the model for a VD of `capacity` bytes under a hot-spot
    /// profile. Each spot fits in one segment; write and read spots are
    /// placed independently (and so usually land in different segments).
    pub fn generate(rng: &mut SimRng, capacity: u64, profile: &HotSpotProfile) -> Self {
        let n_write = 2 + rng.below(3) as usize; // 2..=4 hot write files
        let n_read = 1 + rng.below(2) as usize; // 1..=2 hot read sets
        let spots = |rng: &mut SimRng, n: usize, mu: f64| -> Vec<HotSpot> {
            (0..n)
                .map(|_| HotSpot::generate(rng, capacity, mu, profile.region_sigma))
                .collect()
        };
        let write_spots = spots(rng, n_write, profile.region_mu);
        let read_spots = spots(rng, n_read, profile.region_mu - 0.3);
        let weights = |n: usize| WeightTable::new(crate::dist::zipf::zipf_weights(n, 0.6));
        Self {
            capacity,
            write_weights: weights(n_write),
            read_weights: weights(n_read),
            write_spots,
            read_spots,
            hot_frac_write: profile.hot_frac_write,
            hot_frac_read: profile.hot_frac_read,
            rewrite_frac: profile.rewrite_frac,
            noise_seed: rng.next_u64(),
        }
    }

    fn spots(&self, op: Op) -> &[HotSpot] {
        match op {
            Op::Write => &self.write_spots,
            Op::Read => &self.read_spots,
        }
    }

    fn weights(&self, op: Op) -> &WeightTable {
        match op {
            Op::Write => &self.write_weights,
            Op::Read => &self.read_weights,
        }
    }

    /// Index of the segment containing the dominant hot spot for `op`.
    pub fn hot_segment_index(&self, op: Op) -> u32 {
        self.spots(op).first().map_or(0, HotSpot::segment_index)
    }

    /// Baseline (unmodulated) fraction of `op` traffic hitting its spots.
    pub fn base_hot_frac(&self, op: Op) -> f64 {
        match op {
            Op::Read => self.hot_frac_read,
            Op::Write => self.hot_frac_write,
        }
    }

    /// Hot fraction during 5-minute window `window_idx`: the baseline
    /// scaled by a deterministic per-(VD, op, window) factor in
    /// `[0.2, 1.8]`, so over many windows the hot set beats its own
    /// long-run rate about half the time (Figure 6(d)).
    pub fn hot_frac_at(&self, op: Op, window_idx: u32) -> f64 {
        let salt = match op {
            Op::Write => 0x57u64,
            Op::Read => 0x52u64,
        };
        let mut h = self.noise_seed
            ^ salt.rotate_left(41)
            ^ (window_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        (self.base_hot_frac(op) * (0.2 + 1.6 * u)).clamp(0.0, 0.95)
    }

    /// Draw the offset of one IO, which hits the hot spots with
    /// probability `hot_frac` (the window's [`LbaModel::hot_frac_at`]).
    /// Hot writes pick a spot by popularity and
    /// either stream sequentially (advancing that spot's cursor, wrapping)
    /// or rewrite a recent offset behind the cursor; hot reads re-reference
    /// a popularity-weighted spot uniformly; cold IOs are uniform over the
    /// whole LBA. All offsets are 4 KiB-aligned and clipped so
    /// `offset + size <= capacity`.
    pub fn offset(&mut self, rng: &mut SimRng, op: Op, size: u32, hot_frac: f64) -> u64 {
        let hot = rng.chance(hot_frac);
        // `choose_from` picks an index of the weight table, which has one
        // weight per spot; a pick without a spot would serve as cold.
        let hot_spot = if hot {
            let k = rng.choose_from(self.weights(op));
            let spots = match op {
                Op::Write => &mut self.write_spots,
                Op::Read => &mut self.read_spots,
            };
            spots.get_mut(k)
        } else {
            None
        };
        let offset = if let Some(spot) = hot_spot {
            match op {
                Op::Write => {
                    if rng.chance(self.rewrite_frac) && spot.cursor > 0 {
                        // Journal-style overwrite: rewrite a recently
                        // written offset behind this spot's cursor.
                        let span = spot.cursor.min(REWRITE_WINDOW);
                        let back = rng.below(span.max(1));
                        (spot.start + spot.cursor.saturating_sub(back + size as u64))
                            .min(spot.start + spot.len.saturating_sub(size as u64))
                    } else {
                        let pos = spot.start + spot.cursor;
                        spot.cursor += size as u64;
                        if spot.cursor >= spot.len {
                            spot.cursor = 0;
                        }
                        pos.min(spot.start + spot.len.saturating_sub(size as u64))
                    }
                }
                Op::Read => {
                    let span = spot.len.saturating_sub(size as u64).max(1);
                    spot.start + rng.below(span)
                }
            }
        } else {
            let span = self.capacity.saturating_sub(size as u64).max(1);
            rng.below(span)
        };
        let aligned = offset & !(4 * KIB - 1);
        aligned.min(self.capacity.saturating_sub(size as u64))
    }

    /// Long-run traffic weights over the VD's segments for `op`: each hot
    /// spot's segment receives its popularity share of the hot fraction;
    /// every segment receives its proportional share of the cold
    /// remainder. Weights sum to 1.
    pub fn segment_weights(&self, op: Op) -> Vec<f64> {
        let seg_count = self.capacity.div_ceil(SEGMENT_BYTES).max(1) as usize;
        let hf = self.base_hot_frac(op);
        let mut w = Vec::with_capacity(seg_count);
        for i in 0..seg_count {
            let start = i as u64 * SEGMENT_BYTES;
            let len = SEGMENT_BYTES.min(self.capacity - start);
            w.push((1.0 - hf) * len as f64 / self.capacity as f64);
        }
        for (spot, pop) in self.spots(op).iter().zip(self.weights(op).weights()) {
            // Every spot fits inside the VD, so its segment is in range.
            if let Some(x) = w.get_mut(spot.segment_index() as usize) {
                *x += hf * pop;
            }
        }
        let total: f64 = w.iter().sum();
        for x in &mut w {
            *x /= total;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::units::GIB;

    fn profile() -> HotSpotProfile {
        HotSpotProfile {
            hot_frac_write: 0.7,
            hot_frac_read: 0.3,
            region_mu: (64.0 * MIB as f64).ln(),
            region_sigma: 0.5,
            rewrite_frac: 0.4,
        }
    }

    fn model(seed: u64, capacity: u64) -> LbaModel {
        let mut rng = SimRng::seed_from_u64(seed);
        LbaModel::generate(&mut rng, capacity, &profile())
    }

    /// Whether `offset` falls inside one of `spots`.
    fn in_spots(spots: &[HotSpot], offset: u64) -> bool {
        spots
            .iter()
            .any(|s| offset >= s.start && offset < s.start + s.len)
    }

    #[test]
    fn every_spot_fits_one_segment() {
        for seed in 0..20 {
            let m = model(seed, 100 * GIB);
            for op in [Op::Read, Op::Write] {
                for spot in m.spots(op) {
                    let seg_of_start = spot.start / SEGMENT_BYTES;
                    let seg_of_end = (spot.start + spot.len - 1) / SEGMENT_BYTES;
                    assert_eq!(seg_of_start, seg_of_end, "seed {seed} {op}");
                    assert!(spot.start + spot.len <= 100 * GIB);
                }
                assert!((1..=4).contains(&m.spots(op).len()));
            }
        }
    }

    #[test]
    fn read_and_write_top_spots_usually_differ() {
        let mut distinct = 0;
        for seed in 0..40 {
            let m = model(seed, 500 * GIB);
            if m.hot_segment_index(Op::Read) != m.hot_segment_index(Op::Write) {
                distinct += 1;
            }
        }
        assert!(distinct > 25, "only {distinct}/40 VDs have split regions");
    }

    #[test]
    fn multiple_spots_appear_across_vds() {
        let multi = (0..40)
            .filter(|&s| model(s, 200 * GIB).spots(Op::Write).len() > 1)
            .count();
        assert_eq!(multi, 40, "write spots must always be plural");
    }

    #[test]
    fn offsets_stay_in_bounds_and_aligned() {
        let mut m = model(1, 40 * GIB);
        let mut rng = SimRng::seed_from_u64(99);
        for i in 0..5000 {
            for op in [Op::Read, Op::Write] {
                let size = 64 * KIB as u32;
                let off = m.offset(&mut rng, op, size, m.hot_frac_at(op, i / 100));
                assert_eq!(off % (4 * KIB), 0);
                assert!(off + size as u64 <= 40 * GIB);
            }
        }
    }

    #[test]
    fn writes_hit_their_spots_more_than_reads_hit_theirs() {
        let mut m = model(2, 200 * GIB);
        let mut rng = SimRng::seed_from_u64(5);
        let mut hot_w = 0;
        let mut hot_r = 0;
        let n = 20_000;
        for i in 0..n {
            let w = m.offset(&mut rng, Op::Write, 4096, m.hot_frac_at(Op::Write, i / 500));
            if in_spots(m.spots(Op::Write), w) {
                hot_w += 1;
            }
            let r = m.offset(&mut rng, Op::Read, 4096, m.hot_frac_at(Op::Read, i / 500));
            if in_spots(m.spots(Op::Read), r) {
                hot_r += 1;
            }
        }
        let fw = hot_w as f64 / n as f64;
        let fr = hot_r as f64 / n as f64;
        assert!(fw > fr, "write hot {fw} vs read hot {fr}");
        assert!(fw > 0.5, "write hot fraction {fw}");
    }

    #[test]
    fn top_spot_dominates_spot_traffic() {
        let mut m = model(3, 200 * GIB);
        let mut rng = SimRng::seed_from_u64(7);
        let mut top = 0usize;
        let mut any = 0usize;
        for i in 0..20_000 {
            let off = m.offset(&mut rng, Op::Write, 4096, m.hot_frac_at(Op::Write, i / 500));
            if in_spots(m.spots(Op::Write), off) {
                any += 1;
                if in_spots(&m.spots(Op::Write)[..1], off) {
                    top += 1;
                }
            }
        }
        assert!(any > 5_000);
        // Zipf(0.6) over ≤4 spots: the top spot still leads with ≥ ~25 %.
        assert!(
            top as f64 / any as f64 > 0.25,
            "top share {:.3}",
            top as f64 / any as f64
        );
    }

    #[test]
    fn hot_writes_are_locally_sequential() {
        let mut m = model(4, 100 * GIB);
        let mut rng = SimRng::seed_from_u64(7);
        // Offsets inside the top write spot form mostly forward-moving
        // runs (rewrites step back a little, the cursor wraps rarely).
        let mut top_offsets = Vec::new();
        for i in 0..4000 {
            let off = m.offset(&mut rng, Op::Write, 4096, m.hot_frac_at(Op::Write, i / 50));
            if in_spots(&m.spots(Op::Write)[..1], off) {
                top_offsets.push(off);
            }
        }
        assert!(
            top_offsets.len() > 100,
            "too few top-spot writes: {}",
            top_offsets.len()
        );
        let increasing = top_offsets.windows(2).filter(|w| w[1] > w[0]).count();
        let frac = increasing as f64 / (top_offsets.len() - 1) as f64;
        assert!(frac > 0.35, "sequentiality broken: {frac}");
    }

    #[test]
    fn rewrites_retouch_recent_pages() {
        let mut m = model(8, 100 * GIB);
        let mut rng = SimRng::seed_from_u64(13);
        let mut recent_hits = 0usize;
        let mut hot = 0usize;
        let mut seen: Vec<u64> = Vec::new();
        for i in 0..4000u32 {
            let off = m.offset(&mut rng, Op::Write, 4096, m.hot_frac_at(Op::Write, i / 100));
            if in_spots(m.spots(Op::Write), off) {
                hot += 1;
                if seen.iter().rev().take(512).any(|&p| p == off) {
                    recent_hits += 1;
                }
                seen.push(off);
            }
        }
        assert!(hot > 500, "not enough hot writes: {hot}");
        let frac = recent_hits as f64 / hot as f64;
        assert!(frac > 0.05, "rewrite locality too weak: {frac:.3}");
    }

    #[test]
    fn hot_frac_modulation_brackets_mean() {
        let m = model(5, 100 * GIB);
        let base = m.base_hot_frac(Op::Write);
        let mut above = 0;
        let windows = 1000;
        for w in 0..windows {
            let f = m.hot_frac_at(Op::Write, w);
            assert!((0.0..=0.95).contains(&f));
            if f > base {
                above += 1;
            }
        }
        let frac = above as f64 / windows as f64;
        assert!((0.3..0.7).contains(&frac), "above-baseline fraction {frac}");
    }

    #[test]
    fn segment_weights_sum_to_one_and_favor_spot_segments() {
        let m = model(6, 200 * GIB);
        for op in [Op::Read, Op::Write] {
            let w = m.segment_weights(op);
            assert_eq!(w.len(), 7); // ceil(200/32)
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            let top = m.hot_segment_index(op) as usize;
            let cold_max = w
                .iter()
                .enumerate()
                .filter(|(i, _)| !m.spots(op).iter().any(|s| s.segment_index() as usize == *i))
                .map(|(_, &x)| x)
                .fold(0.0, f64::max);
            assert!(
                w[top] > cold_max,
                "top spot segment must beat cold segments ({op})"
            );
        }
    }

    #[test]
    fn tiny_vd_still_works() {
        let mut m = model(7, GIB); // single segment
        let mut rng = SimRng::seed_from_u64(1);
        let off = m.offset(&mut rng, Op::Write, 4096, m.hot_frac_at(Op::Write, 0));
        assert!(off < GIB);
        assert_eq!(m.segment_weights(Op::Read).len(), 1);
        assert_eq!(
            m.hot_segment_index(Op::Read),
            m.hot_segment_index(Op::Write)
        );
    }
}
