//! Mean squared error, used to score the traffic predictors
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_is_zero() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(mse(&v, &v), Some(0.0));
    }

    #[test]
    fn known_error() {
        let e = mse(&[1.0, 2.0], &[2.0, 4.0]).unwrap();
        assert!((e - 2.5).abs() < 1e-12); // (1 + 4) / 2
    }

    #[test]
    fn mismatched_or_empty_is_none() {
        assert_eq!(mse(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(mse(&[], &[]), None);
    }
}
