//! Coefficient of variation (CoV) and the normalized CoV the paper uses to
//! score inter-entity skewness (§4.1).
//!
//! For `n` non-negative values with a fixed positive sum, the plain CoV
//! (`σ/μ`, population standard deviation) is maximised at `√(n−1)` — when a
//! single entity carries everything. The paper's *normalized* CoV divides by
//! that bound so the statistic lands in `(0, 1]`, with 1 meaning "one entity
//! takes all traffic".

/// Plain coefficient of variation `σ/μ` (population σ). `None` if fewer than
/// two values or the mean is not positive.
pub fn cov(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return None;
    }
    let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    Some(var.sqrt() / mean)
}

/// Normalized CoV in `[0, 1]`: [`cov`] divided by its maximum `√(n−1)`.
pub fn normalized_cov(values: &[f64]) -> Option<f64> {
    let c = cov(values)?;
    let bound = ((values.len() - 1) as f64).sqrt();
    Some((c / bound).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_values_have_zero_cov() {
        assert_eq!(cov(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(normalized_cov(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn single_hot_entity_maximises_normalized_cov() {
        let v = [10.0, 0.0, 0.0, 0.0];
        let nc = normalized_cov(&v).unwrap();
        assert!((nc - 1.0).abs() < 1e-12, "got {nc}");
    }

    #[test]
    fn normalized_cov_is_bounded() {
        let v = [5.0, 1.0, 0.5, 3.0, 0.0, 9.0];
        let nc = normalized_cov(&v).unwrap();
        assert!((0.0..=1.0).contains(&nc));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(cov(&[1.0]), None);
        assert_eq!(cov(&[]), None);
        assert_eq!(cov(&[0.0, 0.0]), None);
        assert_eq!(normalized_cov(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn cov_known_value() {
        // values 2, 4: mean 3, population σ = 1 → CoV = 1/3.
        let c = cov(&[2.0, 4.0]).unwrap();
        assert!((c - 1.0 / 3.0).abs() < 1e-12);
        // bound for n=2 is 1, so normalized equals plain here.
        let nc = normalized_cov(&[2.0, 4.0]).unwrap();
        assert!((nc - c).abs() < 1e-12);
    }
}
