//! Quantiles with linear interpolation (the "50 %ile", "99 %ile" values the
//! paper reports everywhere).

/// The `q`-quantile (`q ∈ [0, 1]`) of `values`, using linear interpolation
/// between order statistics (the same convention as NumPy's default).
/// Returns `None` for an empty slice; NaNs are ignored.
///
/// Runs in O(n) by selection, and returns exactly the bits a stable sort
/// of `values` would give (see [`stable_order_stat`]).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut lo_v, above) = v.select_nth_unstable_by(lo, f64::total_cmp);
    let lo_v = stable_order_stat(values, lo, lo_v);
    if lo == hi {
        return Some(lo_v);
    }
    // Everything above `lo` sits in `above`; the next order statistic is
    // its minimum.
    let hi_v = above.iter().copied().min_by(f64::total_cmp)?;
    let hi_v = stable_order_stat(values, hi, hi_v);
    let frac = pos - lo as f64;
    Some(lo_v * (1.0 - frac) + hi_v * frac)
}

/// The `k`-th order statistic as a stable sort by `partial_cmp` (the
/// convention of [`quantiles`]) would place it, given the value
/// `selected` that a total-order selection found at rank `k`.
///
/// The two orders differ only on ±0.0, which compare equal: a stable sort
/// keeps zeros in input order, while `total_cmp` puts every −0.0 first.
/// So a zero at rank `k` is the `(k − #negatives)`-th zero of the input.
fn stable_order_stat(values: &[f64], k: usize, selected: f64) -> f64 {
    if selected != 0.0 {
        return selected;
    }
    let negatives = values.iter().filter(|&&x| x < 0.0).count();
    values
        .iter()
        .copied()
        .filter(|&x| x == 0.0)
        .nth(k.saturating_sub(negatives))
        .unwrap_or(selected)
}

/// Median (50th percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Several quantiles of the same data in one sorting pass.
pub fn quantiles(values: &[f64], qs: &[f64]) -> Vec<Option<f64>> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return vec![None; qs.len()];
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
    qs.iter()
        .map(|&q| {
            let q = q.clamp(0.0, 1.0);
            let pos = q * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            Some(if lo == hi {
                v[lo]
            } else {
                let frac = pos - lo as f64;
                v[lo] * (1.0 - frac) + v[hi] * frac
            })
        })
        .collect()
}

/// Arithmetic mean; `None` for empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn extremes_are_min_and_max() {
        let v = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(9.0));
    }

    #[test]
    fn interpolates_between_points() {
        let v = [0.0, 10.0];
        assert_eq!(quantile(&v, 0.25), Some(2.5));
        assert_eq!(quantile(&v, 0.75), Some(7.5));
    }

    #[test]
    fn empty_and_nan_handling() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[f64::NAN, 4.0], 0.5), Some(4.0));
        assert_eq!(quantiles(&[], &[0.1, 0.9]), vec![None, None]);
    }

    #[test]
    fn quantiles_matches_quantile() {
        let v = [2.0, 7.0, 1.0, 9.0, 4.0];
        let qs = [0.0, 0.25, 0.5, 0.9, 1.0];
        let batch = quantiles(&v, &qs);
        for (i, &q) in qs.iter().enumerate() {
            assert_eq!(batch[i], quantile(&v, q));
        }
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn signed_zeros_follow_input_order() {
        assert_eq!(
            quantile(&[0.0, -0.0], 0.0).map(f64::to_bits),
            Some(0.0f64.to_bits())
        );
        assert_eq!(
            quantile(&[-0.0, 0.0], 0.0).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(
            quantile(&[0.0, -0.0], 1.0).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
    }

    #[test]
    fn out_of_range_q_clamps() {
        let v = [1.0, 2.0];
        assert_eq!(quantile(&v, -1.0), Some(1.0));
        assert_eq!(quantile(&v, 2.0), Some(2.0));
    }
}
