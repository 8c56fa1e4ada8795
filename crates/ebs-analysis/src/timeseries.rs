//! Dense time-series helpers: differences, top-k and duty cycle.

/// First-order difference `x[t] − x[t−1]` (length `n − 1`).
pub fn diff(series: &[f64]) -> Vec<f64> {
    series.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Indexes of the `k` largest values (ties broken by earlier index).
pub fn top_k_indexes(series: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..series.len()).collect();
    idx.sort_by(|&a, &b| {
        series[b]
            .partial_cmp(&series[a])
            .expect("no NaNs")
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

/// Fraction of samples that are non-zero (the generator's duty cycle).
pub fn duty_cycle(series: &[f64]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    series.iter().filter(|&&x| x != 0.0).count() as f64 / series.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_takes_successive_differences() {
        assert_eq!(diff(&[3.0, 5.0, 4.0, 9.0]), vec![2.0, -1.0, 5.0]);
    }

    #[test]
    fn top_k_orders_by_value() {
        assert_eq!(top_k_indexes(&[1.0, 9.0, 5.0, 9.0], 2), vec![1, 3]);
        assert_eq!(top_k_indexes(&[1.0], 5), vec![0]);
    }

    #[test]
    fn duty_cycle_counts_active() {
        assert_eq!(duty_cycle(&[0.0, 1.0, 0.0, 2.0]), 0.5);
        assert_eq!(duty_cycle(&[]), 0.0);
    }
}
