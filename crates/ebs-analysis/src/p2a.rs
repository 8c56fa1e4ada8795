//! Peak-to-Average ratio (P2A), the paper's temporal-skewness metric (§3.1).

/// P2A of a dense time series: `max / mean`. A flat series gives 1.0; a
/// series with one huge spike and long idle stretches gives very large
/// values (the paper reports 50 %ile VM-level read P2A above 30 000).
///
/// Returns `None` when the series is empty or carries no traffic (mean 0).
pub fn p2a(series: &[f64]) -> Option<f64> {
    if series.is_empty() {
        return None;
    }
    let sum: f64 = series.iter().sum();
    if sum <= 0.0 {
        return None;
    }
    let mean = sum / series.len() as f64;
    let max = series.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some(max / mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_series_has_unit_p2a() {
        assert!((p2a(&[3.0, 3.0, 3.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_spike_scales_with_length() {
        // One spike of 10 over 10 slots: mean 1, max 10 → P2A 10.
        let mut v = vec![0.0; 9];
        v.push(10.0);
        assert!((p2a(&v).unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_or_zero_series_is_none() {
        assert_eq!(p2a(&[]), None);
        assert_eq!(p2a(&[0.0, 0.0]), None);
    }

    #[test]
    fn windowing_smooths_bursts() {
        // Alternating 0/2: fine-grain P2A = 2, window-2 P2A = 1.
        let v = [0.0, 2.0, 0.0, 2.0, 0.0, 2.0];
        assert!((p2a(&v).unwrap() - 2.0).abs() < 1e-12);
        let binned: Vec<f64> = v.chunks(2).map(|c| c.iter().sum()).collect();
        assert!((p2a(&binned).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p2a_at_least_one_for_nonnegative_series() {
        let v = [0.5, 1.5, 1.0, 0.0, 2.0];
        assert!(p2a(&v).unwrap() >= 1.0);
    }
}
