//! Empirical cumulative distribution functions, used by every "CDF of …"
//! figure in the paper.

/// An empirical CDF over a finite sample.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from a sample (NaNs dropped). The sample may be empty; all
    /// queries on an empty CDF return `None`.
    pub fn new(values: &[f64]) -> Self {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        Self { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`.
    pub fn at(&self, x: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        Some(idx as f64 / self.sorted.len() as f64)
    }

    /// Fraction of samples strictly above `x` (the "proportion of nodes
    /// whose hottest QP contributes more than 80 %" style of statement).
    pub fn above(&self, x: f64) -> Option<f64> {
        self.at(x).map(|p| 1.0 - p)
    }

    /// Inverse CDF (quantile).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        crate::quantile::quantile(&self.sorted, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_steps_through_sample() {
        let c = Cdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.at(0.5), Some(0.0));
        assert_eq!(c.at(1.0), Some(0.25));
        assert_eq!(c.at(2.5), Some(0.5));
        assert_eq!(c.at(4.0), Some(1.0));
        assert_eq!(c.above(3.0), Some(0.25));
    }

    #[test]
    fn empty_cdf_returns_none() {
        let c = Cdf::new(&[]);
        assert_eq!(c.at(1.0), None);
        assert_eq!(c.quantile(0.5), None);
        assert!(c.is_empty());
    }

    #[test]
    fn quantile_inverts() {
        let c = Cdf::new(&[10.0, 20.0, 30.0]);
        assert_eq!(c.quantile(0.5), Some(20.0));
        assert_eq!(c.len(), 3);
    }
}
