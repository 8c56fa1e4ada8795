//! Deterministic random-number streams.
//!
//! Every experiment in the workspace must be exactly reproducible from one
//! `u64` master seed. [`RngFactory`] derives independent named streams from
//! that seed (SplitMix64 over a hash of the stream tag), and [`SimRng`] is a
//! small, fast xoshiro256++ generator used by all library code, so results
//! do not depend on an external crate's stream layout staying stable.

/// SplitMix64 step: the standard seeding/derivation mixer.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string; used to turn stream tags into seed material.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A xoshiro256++ pseudo-random generator.
///
/// Small (32 bytes of state), fast, and with well-studied statistical
/// quality; more than adequate for simulation workloads.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed a generator. The seed is expanded with SplitMix64 so that
    /// similar seeds produce unrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not start from the all-zero state.
        let s = if s == [0, 0, 0, 0] { [1, 2, 3, 4] } else { s };
        Self { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // Destructuring proves every state access in-bounds at compile
        // time, keeping the workspace's hottest helper index-free.
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Choose a random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose on empty slice");
        &slice[self.index(slice.len())]
    }

    /// Sample an index according to non-negative weights. Falls back to the
    /// last index under floating-point shortfall. Panics if all weights are
    /// zero or the slice is empty.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        self.choose_summed(weights, weights.iter().sum())
    }

    /// [`SimRng::choose_weighted`] over a table whose total was summed once:
    /// the same draw, index for index, without re-summing the weights.
    #[inline]
    pub fn choose_from(&mut self, table: &WeightTable) -> usize {
        self.choose_summed(&table.weights, table.total)
    }

    fn choose_summed(&mut self, weights: &[f64], total: f64) -> usize {
        assert!(
            total > 0.0,
            "choose_weighted requires positive total weight"
        );
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// Non-negative weights prepared for repeated [`SimRng::choose_from`]
/// draws: the total is summed once, in slice order, exactly as
/// [`SimRng::choose_weighted`] sums it on every call.
#[derive(Clone, Debug)]
pub struct WeightTable {
    weights: Vec<f64>,
    total: f64,
}

impl WeightTable {
    /// Prepare `weights`.
    pub fn new(weights: Vec<f64>) -> Self {
        let total = weights.iter().sum();
        Self { weights, total }
    }

    /// The weights, in the order they were given.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// Derives independent, reproducible [`SimRng`] streams from a master seed.
///
/// Streams are identified by string tags (and an optional numeric
/// discriminator), so the generator that models, say, VD intensities cannot
/// perturb the stream that models LBA offsets even if the amount of
/// randomness either consumes changes.
#[derive(Clone, Copy, Debug)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// A factory rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// An independent stream named `tag`.
    pub fn stream(&self, tag: &str) -> SimRng {
        self.stream_n(tag, 0)
    }

    /// An independent stream named `tag` with numeric discriminator `n`
    /// (e.g. one stream per VD).
    pub fn stream_n(&self, tag: &str, n: u64) -> SimRng {
        let mut state = self.seed
            ^ fnv1a(tag.as_bytes()).rotate_left(17)
            ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Mix before seeding so that (seed, tag, n) triples decorrelate.
        let derived = splitmix64(&mut state) ^ splitmix64(&mut state).rotate_left(32);
        SimRng::seed_from_u64(derived)
    }

    /// A child factory, for handing a subsystem its own seed space.
    pub fn child(&self, tag: &str) -> RngFactory {
        let mut state = self.seed ^ fnv1a(tag.as_bytes());
        RngFactory::new(splitmix64(&mut state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let f = RngFactory::new(42);
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(f.stream("x"), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(f.stream("x"), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_tags_decorrelate() {
        let f = RngFactory::new(42);
        let a = f.stream("alpha").next_u64();
        let b = f.stream("beta").next_u64();
        assert_ne!(a, b);
        let c = f.stream_n("alpha", 1).next_u64();
        assert_ne!(a, c);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::seed_from_u64(3);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[r.below(5) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "non-uniform: {counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "100 elements should not shuffle to identity");
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut r = SimRng::seed_from_u64(11);
        let mut hits = [0usize; 3];
        for _ in 0..30_000 {
            hits[r.choose_weighted(&[1.0, 0.0, 9.0])] += 1;
        }
        assert_eq!(hits[1], 0);
        assert!(hits[2] > hits[0] * 5);
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = SimRng::seed_from_u64(5);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "p=0.25 measured {frac}");
    }

    #[test]
    fn child_factories_diverge() {
        let f = RngFactory::new(1);
        assert_ne!(f.child("a").seed(), f.child("b").seed());
        assert_ne!(f.child("a").seed(), f.seed());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn below_always_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
            let mut r = SimRng::seed_from_u64(seed);
            for _ in 0..32 {
                prop_assert!(r.below(n) < n);
            }
        }

        #[test]
        fn next_f64_always_in_unit_interval(seed in any::<u64>()) {
            let mut r = SimRng::seed_from_u64(seed);
            for _ in 0..64 {
                let x = r.next_f64();
                prop_assert!((0.0..1.0).contains(&x));
            }
        }

        #[test]
        fn streams_with_same_tag_agree(seed in any::<u64>(), n in 0u64..1000) {
            let f = RngFactory::new(seed);
            let a = f.stream_n("tag", n).next_u64();
            let b = f.stream_n("tag", n).next_u64();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in prop::collection::vec(0u32..100, 0..50)) {
            let mut r = SimRng::seed_from_u64(seed);
            let mut original = v.clone();
            r.shuffle(&mut v);
            original.sort_unstable();
            v.sort_unstable();
            prop_assert_eq!(original, v);
        }

        #[test]
        fn prepared_choice_draws_what_choose_weighted_draws(
            seed in any::<u64>(),
            weights in prop::collection::vec(0.0f64..10.0, 1..12),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let table = WeightTable::new(weights.clone());
            let mut a = SimRng::seed_from_u64(seed);
            let mut b = a.clone();
            for _ in 0..64 {
                prop_assert_eq!(a.choose_weighted(&weights), b.choose_from(&table));
            }
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }

        #[test]
        fn weighted_choice_never_picks_zero_weight(
            seed in any::<u64>(),
            idx in 0usize..4,
        ) {
            let mut weights = [1.0f64; 4];
            weights[idx] = 0.0;
            let mut r = SimRng::seed_from_u64(seed);
            for _ in 0..64 {
                prop_assert_ne!(r.choose_weighted(&weights), idx);
            }
        }
    }
}
