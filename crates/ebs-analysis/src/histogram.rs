//! The one histogram: log-linear buckets over a fixed domain, so no call
//! site picks a range and no sample is ever clamped.
//!
//! A bucket index is read straight from the `f64` bits — the binary
//! exponent plus the top 4 mantissa bits — so each power of two
//! splits into 16 linear sub-buckets and a bucket's upper edge is at most
//! `1 + 1/16` times its lower edge. The buckets cover `[2^-10, 2^54)`;
//! smaller non-negative samples count as underflow, larger ones (and +∞)
//! as overflow, NaN and negative samples as invalid. Counts are integers,
//! so merging is an exact bucket-wise add in any order.

/// Mantissa bits kept in a bucket index (16 sub-buckets per power of two).
const SUB_BITS: u32 = 4;
/// Power-of-two exponent of the domain's lower edge.
const MIN_EXP: i32 = -10;
/// Power-of-two exponent of the domain's upper edge.
const MAX_EXP: i32 = 54;
/// Number of buckets covering `[2^MIN_EXP, 2^MAX_EXP)`.
const BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) << SUB_BITS;
/// Right shift that keeps the exponent and the top `SUB_BITS` mantissa bits.
const SHIFT: u32 = 52 - SUB_BITS;
/// `bits >> SHIFT` of the domain's lower edge, `2^MIN_EXP`.
const BASE: u64 = ((1023 + MIN_EXP) as u64) << SUB_BITS;

/// A log-linear histogram. See the module docs for the bucket layout.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    invalid: u64,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            underflow: 0,
            overflow: 0,
            invalid: 0,
            total: 0,
        }
    }

    /// Insert one observation.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x.is_nan() || x < 0.0 {
            self.invalid += 1;
        } else if x < Self::lower_edge(0) {
            self.underflow += 1;
        } else if x >= Self::lower_edge(BUCKETS) {
            self.overflow += 1;
        } else if let Some(c) = self.counts.get_mut(Self::index(x)) {
            *c += 1;
        }
    }

    /// Insert many observations.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.add(x);
        }
    }

    /// Bucket of an in-domain sample.
    fn index(x: f64) -> usize {
        ((x.to_bits() >> SHIFT) - BASE) as usize
    }

    /// Lower edge of bucket `i` (`i == BUCKETS` gives the domain's upper
    /// edge, `2^54`).
    fn lower_edge(i: usize) -> f64 {
        f64::from_bits((BASE + i as u64) << SHIFT)
    }

    /// The non-empty buckets as `(lower edge, upper edge, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (Self::lower_edge(i), Self::lower_edge(i + 1), c))
    }

    /// Samples in `[0, 2^-10)` (−0.0 included).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `2^54`, +∞ included.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// NaN and negative samples.
    pub fn invalid(&self) -> u64 {
        self.invalid
    }

    /// Total observations, invalid ones included.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Add `other`'s mass bucket-wise. Addition commutes, so merging a set
    /// of histograms yields the same result in any order — the property
    /// the observability layer relies on when workers record locally and
    /// merge at the end.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.invalid += other.invalid;
        self.total += other.total;
    }

    /// The nearest-rank `q`-quantile of the valid samples, reported as the
    /// upper edge of the range that holds it: `2^-10` for underflow, the
    /// bucket's upper edge (at most `1 + 1/16` times the exact quantile),
    /// or +∞ for overflow. 0 when there are no valid samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let valid = self.total - self.invalid;
        if valid == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * valid as f64).ceil().max(1.0) as u64;
        let mut cum = self.underflow;
        if cum >= target {
            return Self::lower_edge(0);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::lower_edge(i + 1);
            }
        }
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_tile_the_domain() {
        assert_eq!(Histogram::lower_edge(0), 2f64.powi(MIN_EXP));
        assert_eq!(Histogram::lower_edge(BUCKETS), 2f64.powi(MAX_EXP));
        assert_eq!(Histogram::lower_edge(16), 2f64.powi(MIN_EXP + 1));
        assert_eq!(
            Histogram::lower_edge(17),
            2f64.powi(MIN_EXP + 1) * 17.0 / 16.0
        );
        for i in 0..BUCKETS {
            let (lo, hi) = (Histogram::lower_edge(i), Histogram::lower_edge(i + 1));
            assert_eq!(Histogram::index(lo), i);
            assert!(hi > lo && hi <= lo * (1.0 + 1.0 / 16.0));
        }
    }

    #[test]
    fn values_land_in_their_buckets() {
        let mut h = Histogram::new();
        h.extend([1.0, 1.06, 1.07, 97.0]);
        let got: Vec<(f64, f64, u64)> = h.buckets().collect();
        assert_eq!(
            got,
            vec![(1.0, 1.0625, 2), (1.0625, 1.125, 1), (96.0, 100.0, 1)]
        );
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn out_of_domain_samples_are_counted_not_clamped() {
        let mut h = Histogram::new();
        h.extend([0.0, -0.0, 2f64.powi(-11), 2f64.powi(54), f64::INFINITY]);
        h.extend([f64::NAN, -1.0, f64::NEG_INFINITY]);
        assert_eq!((h.underflow(), h.overflow(), h.invalid()), (3, 2, 3));
        assert_eq!(h.buckets().count(), 0);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn quantile_is_the_upper_edge_of_the_nearest_rank_bucket() {
        let mut h = Histogram::new();
        h.extend(std::iter::repeat_n(5.0, 99));
        h.add(95.0);
        assert_eq!(h.quantile(0.5), 5.25);
        assert_eq!(h.quantile(0.99), 5.25);
        assert_eq!(h.quantile(1.0), 96.0);
        h.add(f64::NAN); // invalid samples take no rank
        assert_eq!(h.quantile(0.99), 5.25);
        h.add(f64::INFINITY);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
        assert_eq!(Histogram::new().quantile(0.99), 0.0);
        let mut tiny = Histogram::new();
        tiny.add(0.0);
        assert_eq!(tiny.quantile(0.5), 2f64.powi(MIN_EXP));
    }

    #[test]
    fn merge_adds_counts_in_any_order() {
        let mut a = Histogram::new();
        a.extend([0.1, 0.6, f64::NAN]);
        let mut b = Histogram::new();
        b.extend([0.3, 0.6, 1e300]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut whole = Histogram::new();
        whole.extend([0.1, 0.6, f64::NAN, 0.3, 0.6, 1e300]);
        assert_eq!(ab, whole);
    }
}
