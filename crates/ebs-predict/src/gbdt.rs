//! P3 — gradient-boosted regression trees (the paper's XGBoost stand-in,
//! Appendix C).
//!
//! Squared-loss gradient boosting over depth-limited regression trees, with
//! lagged traffic values as features. Matches the paper's protocol: fed a
//! window of historical traffic (120 s = 4 lags of 30 s periods), trained
//! once per 200-period epoch, one-step rolling forecast.

use crate::eval::Predictor;

/// A node of a regression tree, stored in a flat arena.
#[derive(Clone, Debug)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A depth-limited least-squares regression tree.
#[derive(Clone, Debug)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fit a tree of depth ≤ `max_depth` to rows `x` (sample-major) with
    /// targets `y`. Splits minimise the summed squared error; leaves carry
    /// the mean target.
    pub fn fit(x: &[Vec<f64>], y: &[f64], max_depth: usize, min_leaf: usize) -> Self {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty());
        let mut nodes = Vec::new();
        let idx: Vec<usize> = (0..x.len()).collect();
        Self::build(&mut nodes, x, y, &idx, max_depth, min_leaf);
        Self { nodes }
    }

    fn build(
        nodes: &mut Vec<Node>,
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[usize],
        depth: usize,
        min_leaf: usize,
    ) -> usize {
        let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
        if depth == 0 || idx.len() < 2 * min_leaf {
            nodes.push(Node::Leaf(mean));
            return nodes.len() - 1;
        }
        let n_features = x[0].len();
        let mut best: Option<(f64, usize, f64)> = None; // (sse, feature, threshold)
        let base_sse: f64 = idx.iter().map(|&i| (y[i] - mean).powi(2)).sum();
        #[allow(clippy::needless_range_loop)] // x is indexed via `idx`, not iterated
        for feature_idx in 0..n_features {
            let mut vals: Vec<(f64, f64)> =
                idx.iter().map(|&i| (x[i][feature_idx], y[i])).collect();
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaNs"));
            // Prefix sums for O(n) split scan.
            let total_sum: f64 = vals.iter().map(|v| v.1).sum();
            let total_sq: f64 = vals.iter().map(|v| v.1 * v.1).sum();
            let mut lsum = 0.0;
            let mut lsq = 0.0;
            for k in 0..vals.len() - 1 {
                lsum += vals[k].1;
                lsq += vals[k].1 * vals[k].1;
                if vals[k].0 == vals[k + 1].0 {
                    continue; // cannot split between equal values
                }
                let ln = (k + 1) as f64;
                let rn = (vals.len() - k - 1) as f64;
                if (ln as usize) < min_leaf || (rn as usize) < min_leaf {
                    continue;
                }
                let lsse = lsq - lsum * lsum / ln;
                let rsum = total_sum - lsum;
                let rsse = (total_sq - lsq) - rsum * rsum / rn;
                let sse = lsse + rsse;
                if best
                    .as_ref()
                    .map(|(b, _, _)| sse < *b)
                    .unwrap_or(sse < base_sse)
                {
                    best = Some((sse, feature_idx, (vals[k].0 + vals[k + 1].0) / 2.0));
                }
            }
        }
        match best {
            None => {
                nodes.push(Node::Leaf(mean));
                nodes.len() - 1
            }
            Some((_, feature, threshold)) => {
                let (li, ri): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| x[i][feature] <= threshold);
                let left = Self::build(nodes, x, y, &li, depth - 1, min_leaf);
                let right = Self::build(nodes, x, y, &ri, depth - 1, min_leaf);
                nodes.push(Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                });
                nodes.len() - 1
            }
        }
    }

    /// Predict one sample. The root is the last node pushed.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut i = self.nodes.len() - 1;
        loop {
            match &self.nodes[i] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Gradient-boosted tree ensemble on lagged traffic features.
#[derive(Clone, Debug)]
pub struct Gbdt {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Tree depth.
    pub max_depth: usize,
    /// Shrinkage.
    pub learning_rate: f64,
    /// Number of lagged periods used as features (paper: 120 s of history
    /// = 4 thirty-second periods).
    pub lags: usize,
    base: f64,
    trees: Vec<RegressionTree>,
}

impl Default for Gbdt {
    fn default() -> Self {
        Self::new(50, 3, 0.1, 4)
    }
}

impl Gbdt {
    /// A GBDT with the given hyper-parameters.
    pub fn new(n_trees: usize, max_depth: usize, learning_rate: f64, lags: usize) -> Self {
        assert!(n_trees >= 1 && lags >= 1 && learning_rate > 0.0);
        Self {
            n_trees,
            max_depth,
            learning_rate,
            lags,
            base: 0.0,
            trees: Vec::new(),
        }
    }

    fn lag_features(history: &[f64], lags: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for t in lags..history.len() {
            x.push((1..=lags).map(|k| history[t - k]).collect());
            y.push(history[t]);
        }
        (x, y)
    }

    fn raw_predict(&self, features: &[f64]) -> f64 {
        self.base
            + self
                .trees
                .iter()
                .map(|t| self.learning_rate * t.predict(features))
                .sum::<f64>()
    }
}

impl Predictor for Gbdt {
    fn name(&self) -> String {
        format!("gbdt(trees={}, depth={})", self.n_trees, self.max_depth)
    }

    fn fit(&mut self, history: &[f64]) {
        self.trees.clear();
        let (x, y) = Self::lag_features(history, self.lags);
        if x.is_empty() {
            self.base = history.last().copied().unwrap_or(0.0);
            return;
        }
        self.base = y.iter().sum::<f64>() / y.len() as f64;
        let mut residuals: Vec<f64> = y.iter().map(|&v| v - self.base).collect();
        for _ in 0..self.n_trees {
            let tree = RegressionTree::fit(&x, &residuals, self.max_depth, 3);
            for (i, r) in residuals.iter_mut().enumerate() {
                *r -= self.learning_rate * tree.predict(&x[i]);
            }
            self.trees.push(tree);
        }
    }

    fn predict_next(&self, recent: &[f64]) -> f64 {
        if recent.len() < self.lags {
            return recent.last().copied().unwrap_or(0.0);
        }
        let features: Vec<f64> = (1..=self.lags).map(|k| recent[recent.len() - k]).collect();
        self.raw_predict(&features).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{forecast_mse, rolling_forecast, Cadence};

    #[test]
    fn tree_fits_a_step_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let t = RegressionTree::fit(&x, &y, 2, 1);
        assert!((t.predict(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[15.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tree_respects_min_leaf() {
        let x: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let y = vec![0.0, 0.0, 10.0, 10.0];
        // min_leaf = 3 forbids any split of 4 samples (needs ≥ 6).
        let t = RegressionTree::fit(&x, &y, 3, 3);
        assert!((t.predict(&[0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gbdt_learns_periodic_pattern() {
        // Period-4 sawtooth: perfectly predictable from 4 lags.
        let series: Vec<f64> = (0..200).map(|i| (i % 4) as f64 * 10.0).collect();
        let mut m = Gbdt::new(80, 3, 0.2, 4);
        m.fit(&series);
        let pred = m.predict_next(&series);
        let truth = (200 % 4) as f64 * 10.0;
        assert!((pred - truth).abs() < 2.0, "pred {pred} truth {truth}");
    }

    #[test]
    fn gbdt_beats_mean_baseline_on_ar_series() {
        let mut series = vec![20.0, 25.0];
        for i in 2..300 {
            let noise = (((i * 40503) % 89) as f64 - 44.0) * 0.1;
            series.push(0.7 * series[i - 1] + 0.2 * series[i - 2] + 3.0 + noise);
        }
        let mut m = Gbdt::default();
        let pairs = rolling_forecast(&mut m, &series, 50, Cadence::Epoch(50));
        let gbdt_mse = forecast_mse(&pairs).unwrap();
        // Mean-only baseline.
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        let base_mse =
            pairs.iter().map(|(_, t)| (t - mean).powi(2)).sum::<f64>() / pairs.len() as f64;
        assert!(gbdt_mse < base_mse, "gbdt {gbdt_mse} vs mean {base_mse}");
    }

    #[test]
    fn short_history_falls_back() {
        let m = Gbdt::default();
        assert_eq!(m.predict_next(&[7.0]), 7.0);
        assert_eq!(m.predict_next(&[]), 0.0);
    }

    #[test]
    fn predictions_are_nonnegative() {
        let series = vec![5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.1];
        let mut m = Gbdt::new(10, 2, 0.5, 3);
        m.fit(&series);
        assert!(m.predict_next(&series) >= 0.0);
    }

    #[test]
    fn fit_is_deterministic() {
        let series: Vec<f64> = (0..100).map(|i| ((i * 7) % 13) as f64).collect();
        let mut a = Gbdt::default();
        let mut b = Gbdt::default();
        a.fit(&series);
        b.fit(&series);
        assert_eq!(a.predict_next(&series), b.predict_next(&series));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::eval::Predictor;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn predictions_are_finite_and_nonnegative(
            series in prop::collection::vec(0.0f64..1e6, 0..60),
        ) {
            let mut m = Gbdt::new(10, 2, 0.3, 4);
            m.fit(&series);
            let p = m.predict_next(&series);
            prop_assert!(p.is_finite() && p >= 0.0);
        }

        #[test]
        fn tree_predictions_interpolate_targets(
            ys in prop::collection::vec(-100.0f64..100.0, 2..40),
        ) {
            let x: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
            let tree = RegressionTree::fit(&x, &ys, 4, 1);
            let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for xi in &x {
                let p = tree.predict(xi);
                prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "leaf mean out of hull");
            }
        }
    }
}
