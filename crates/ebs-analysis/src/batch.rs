//! Column-at-a-time batch kernels: the streaming-aggregation inner loops
//! of the store replay path, operating on whole decoded columns instead of
//! one event at a time.
//!
//! The kernels are shaped for the two properties the v2 store decode
//! guarantees: timestamps arrive **sorted** (so per-tick accumulation is
//! run-batched — one `f64` add per run of equal ticks, not per event) and
//! VD ids arrive **dictionary-compressed** (so per-VD accumulation sums
//! into a chunk-local partial array that fits in cache, then scatters once
//! per distinct VD).
//!
//! Exactness: every weight is an integer (request sizes are `u32`), and
//! all realistic totals stay far below 2^53, where `f64` addition of
//! integers is exact and therefore associative. Reordering the adds —
//! per-key partials, per-run batching — produces bit-identical results to
//! the per-event reference loop, which is what lets the streaming summary
//! assert equality against the materialized [`crate::quantile()`] /
//! [`crate::ccr()`] / [`crate::p2a()`] answers.
//!
//! All kernels are total: out-of-range keys report `false` (or `None`)
//! instead of panicking, because their inputs come from disk.

use ebs_core::time::TickSpec;
use std::collections::BTreeMap;

/// Sum `weights[i]` into `partials[keys[i]]` for every `i`. Returns
/// `false` (leaving `partials` partially updated) if the slices differ in
/// length or any key falls outside `partials`.
pub fn keyed_sums(keys: &[u64], weights: &[u64], partials: &mut [f64]) -> bool {
    if keys.len() != weights.len() {
        return false;
    }
    for (&k, &w) in keys.iter().zip(weights) {
        match usize::try_from(k).ok().and_then(|i| partials.get_mut(i)) {
            Some(p) => *p += w as f64,
            None => return false,
        }
    }
    true
}

/// Scatter chunk-local per-key `partials` into a global accumulator:
/// `dst[ids[k]] += partials[k]`. Returns `false` if the slices differ in
/// length or any id falls outside `dst`.
pub fn scatter_add(dst: &mut [f64], ids: &[u32], partials: &[f64]) -> bool {
    if ids.len() != partials.len() {
        return false;
    }
    for (&id, &p) in ids.iter().zip(partials) {
        match dst.get_mut(id as usize) {
            Some(d) => *d += p,
            None => return false,
        }
    }
    true
}

/// Accumulate per-tick weight totals from **sorted** timestamps: runs of
/// events landing on the same tick are summed as integers and added to
/// the grid with a single `f64` add per run. Returns `false` if the
/// slices differ in length or the grid is smaller than `ticks` declares.
pub fn tick_sums(ticks: TickSpec, t_us: &[u64], weights: &[u64], out: &mut [f64]) -> bool {
    if t_us.len() != weights.len() {
        return false;
    }
    let mut run_tick = u32::MAX;
    let mut run_sum = 0u64;
    for (&t, &w) in t_us.iter().zip(weights) {
        let tick = ticks.tick_of_us(t);
        if tick != run_tick {
            if run_sum > 0 {
                match out.get_mut(run_tick as usize) {
                    Some(slot) => *slot += run_sum as f64,
                    None => return false,
                }
            }
            run_tick = tick;
            run_sum = 0;
        }
        run_sum += w;
    }
    if run_sum > 0 {
        match out.get_mut(run_tick as usize) {
            Some(slot) => *slot += run_sum as f64,
            None => return false,
        }
    }
    true
}

/// Count each value into a `u32`-keyed histogram, coalescing adjacent
/// runs of equal values into one map update. Returns `false` if a value
/// does not fit in `u32`. The histogram is a `BTreeMap` so downstream
/// iteration is canonically ordered (rule D6), not hash-ordered.
pub fn count_values(values: &[u64], counts: &mut BTreeMap<u32, u64>) -> bool {
    let mut run_value = u64::MAX;
    let mut run_count = 0u64;
    for &v in values {
        if v != run_value {
            if run_count > 0 {
                match u32::try_from(run_value) {
                    Ok(key) => *counts.entry(key).or_insert(0) += run_count,
                    Err(_) => return false,
                }
            }
            run_value = v;
            run_count = 0;
        }
        run_count += 1;
    }
    if run_count > 0 {
        match u32::try_from(run_value) {
            Ok(key) => *counts.entry(key).or_insert(0) += run_count,
            Err(_) => return false,
        }
    }
    true
}

/// The `q`-quantile of a weighted histogram given as **sorted**
/// `(value, count)` pairs, linear-interpolated between order statistics
/// exactly like [`crate::quantile()`] on the expanded multiset. `total`
/// is the sum of all counts; `None` when it is zero or the pairs do not
/// cover it.
pub fn weighted_quantile(pairs: &[(u32, u64)], total: u64, q: f64) -> Option<f64> {
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (total - 1) as f64;
    let lo_rank = pos.floor() as u64;
    let hi_rank = pos.ceil() as u64;
    let lo = value_at_rank(pairs, lo_rank)?;
    if lo_rank == hi_rank {
        return Some(lo);
    }
    let hi = value_at_rank(pairs, hi_rank)?;
    let frac = pos - lo_rank as f64;
    Some(lo * (1.0 - frac) + hi * frac)
}

/// Fraction of the weighted histogram at or below `x` (the empirical CDF
/// of the expanded multiset, matching [`crate::Cdf`]). Pairs must be
/// sorted by value; `None` when `total` is zero.
pub fn weighted_cdf_at(pairs: &[(u32, u64)], total: u64, x: f64) -> Option<f64> {
    if total == 0 {
        return None;
    }
    let below: u64 = pairs
        .iter()
        .take_while(|&&(value, _)| f64::from(value) <= x)
        .map(|&(_, count)| count)
        .sum();
    Some(below as f64 / total as f64)
}

/// The value holding the `rank`-th position (0-based) of the expanded
/// multiset.
fn value_at_rank(pairs: &[(u32, u64)], rank: u64) -> Option<f64> {
    let mut seen = 0u64;
    for &(value, count) in pairs {
        seen += count;
        if rank < seen {
            return Some(f64::from(value));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::quantile;
    use crate::Cdf;

    #[test]
    fn keyed_sums_then_scatter_matches_direct_accumulation() {
        let keys = [0u64, 2, 2, 1, 0, 2];
        let weights = [10u64, 20, 30, 40, 50, 60];
        let ids = [5u32, 0, 9];
        let mut partials = vec![0.0; 3];
        assert!(keyed_sums(&keys, &weights, &mut partials));
        let mut dst = vec![0.0; 10];
        assert!(scatter_add(&mut dst, &ids, &partials));
        let mut want = vec![0.0; 10];
        for (&k, &w) in keys.iter().zip(&weights) {
            want[ids[k as usize] as usize] += w as f64;
        }
        assert_eq!(dst, want);
    }

    #[test]
    fn out_of_range_keys_report_false() {
        let mut partials = vec![0.0; 2];
        assert!(!keyed_sums(&[0, 5], &[1, 1], &mut partials));
        assert!(!keyed_sums(&[0], &[1, 2], &mut partials));
        let mut dst = vec![0.0; 2];
        assert!(!scatter_add(&mut dst, &[7], &[1.0]));
        assert!(!scatter_add(&mut dst, &[0], &[1.0, 2.0]));
    }

    #[test]
    fn tick_sums_run_batching_matches_per_event() {
        let ticks = TickSpec::new(1.0, 4);
        // Sorted timestamps crossing tick boundaries, with a clamped tail.
        let t_us: Vec<u64> = vec![0, 10, 999_999, 1_000_000, 1_000_001, 2_500_000, 9_999_999];
        let weights: Vec<u64> = vec![1, 2, 3, 4, 5, 6, 7];
        let mut batched = vec![0.0; 4];
        assert!(tick_sums(ticks, &t_us, &weights, &mut batched));
        let mut reference = vec![0.0; 4];
        for (&t, &w) in t_us.iter().zip(&weights) {
            reference[ticks.tick_of_us(t) as usize] += w as f64;
        }
        assert_eq!(batched, reference);
    }

    #[test]
    fn tick_sums_rejects_a_grid_smaller_than_the_spec() {
        let ticks = TickSpec::new(1.0, 4);
        let mut short = vec![0.0; 1];
        assert!(!tick_sums(ticks, &[0, 3_500_000], &[1, 1], &mut short));
    }

    #[test]
    fn count_values_coalesces_runs_correctly() {
        let values = [4096u64, 4096, 4096, 8192, 4096, 8192, 8192];
        let mut counts = BTreeMap::new();
        assert!(count_values(&values, &mut counts));
        assert_eq!(counts.get(&4096), Some(&4));
        assert_eq!(counts.get(&8192), Some(&3));
        assert_eq!(counts.len(), 2);
        assert!(!count_values(&[u64::MAX], &mut counts));
    }

    #[test]
    fn weighted_quantile_and_cdf_match_expanded_multiset() {
        let pairs = [(4096u32, 5u64), (8192, 2), (65536, 1)];
        let total: u64 = pairs.iter().map(|&(_, c)| c).sum();
        let expanded: Vec<f64> = pairs
            .iter()
            .flat_map(|&(v, c)| std::iter::repeat_n(f64::from(v), c as usize))
            .collect();
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(weighted_quantile(&pairs, total, q), quantile(&expanded, q));
        }
        let cdf = Cdf::new(&expanded);
        for x in [0.0, 4095.0, 4096.0, 9000.0, 65536.0, 1e9] {
            assert_eq!(weighted_cdf_at(&pairs, total, x), cdf.at(x));
        }
        assert_eq!(weighted_quantile(&[], 0, 0.5), None);
        assert_eq!(weighted_cdf_at(&[], 0, 1.0), None);
    }
}
