//! Mean squared error and relatives, used to score the traffic predictors
//! of §6.1.3 (Figure 4(c)).

/// Mean squared error between predictions and ground truth.
/// `None` when the slices are empty or of different length.
pub fn mse(pred: &[f64], truth: &[f64]) -> Option<f64> {
    if pred.is_empty() || pred.len() != truth.len() {
        return None;
    }
    let s: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t).powi(2)).sum();
    Some(s / pred.len() as f64)
}

/// MSE normalized by the variance of the ground truth — 1.0 means "no
/// better than predicting the mean"; comparable across clusters with very
/// different traffic magnitudes.
pub fn normalized_mse(pred: &[f64], truth: &[f64]) -> Option<f64> {
    let e = mse(pred, truth)?;
    let n = truth.len() as f64;
    let mean = truth.iter().sum::<f64>() / n;
    let var = truth.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / n;
    if var <= 0.0 {
        None
    } else {
        Some(e / var)
    }
}

/// Mean absolute error.
pub fn mae(pred: &[f64], truth: &[f64]) -> Option<f64> {
    if pred.is_empty() || pred.len() != truth.len() {
        return None;
    }
    let s: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t).abs()).sum();
    Some(s / pred.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_is_zero() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(mse(&v, &v), Some(0.0));
        assert_eq!(mae(&v, &v), Some(0.0));
    }

    #[test]
    fn known_error() {
        let e = mse(&[1.0, 2.0], &[2.0, 4.0]).unwrap();
        assert!((e - 2.5).abs() < 1e-12); // (1 + 4) / 2
        assert!((mae(&[1.0, 2.0], &[2.0, 4.0]).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mismatched_or_empty_is_none() {
        assert_eq!(mse(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(mse(&[], &[]), None);
    }

    #[test]
    fn normalized_mse_baseline_is_one() {
        // Predicting the mean everywhere scores exactly 1.0.
        let truth = [1.0, 3.0, 5.0, 7.0];
        let mean = 4.0;
        let pred = [mean; 4];
        let n = normalized_mse(&pred, &truth).unwrap();
        assert!((n - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_mse_constant_truth_is_none() {
        assert_eq!(normalized_mse(&[1.0, 1.0], &[2.0, 2.0]), None);
    }
}
