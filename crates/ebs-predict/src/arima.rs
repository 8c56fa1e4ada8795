//! P2 — ARIMA (Appendix C).
//!
//! An auto-ARIMA in the spirit of `pmdarima`: a small grid search over
//! AR order `p ∈ 1..=max_p` and differencing `d ∈ 0..=max_d`, with AR
//! coefficients fitted by least squares on the lagged design matrix and
//! model selection by AIC. The moving-average order is fixed at 0 — with
//! per-period refitting, AR(p) on differenced data captures what matters
//! for one-step traffic forecasts, and the paper's result only needs
//! ARIMA's *relative* accuracy (best of the classic methods, still far
//! from ground truth).

use crate::eval::Predictor;
use crate::matrix::{ridge, Mat};

/// Fitted ARIMA(p, d, 0) parameters.
#[derive(Clone, Debug, PartialEq)]
struct FittedArima {
    p: usize,
    d: usize,
    intercept: f64,
    coefs: Vec<f64>,
}

/// Auto-ARIMA predictor.
#[derive(Clone, Debug)]
pub struct Arima {
    /// Largest AR order tried.
    pub max_p: usize,
    /// Largest differencing order tried.
    pub max_d: usize,
    fitted: Option<FittedArima>,
}

impl Default for Arima {
    fn default() -> Self {
        Self::new(4, 1)
    }
}

impl Arima {
    /// An auto-ARIMA searching `p ∈ 1..=max_p`, `d ∈ 0..=max_d`.
    pub fn new(max_p: usize, max_d: usize) -> Self {
        assert!(max_p >= 1);
        Self {
            max_p,
            max_d,
            fitted: None,
        }
    }

    fn difference(series: &[f64], d: usize) -> Vec<f64> {
        let mut v = series.to_vec();
        for _ in 0..d {
            v = v.windows(2).map(|w| w[1] - w[0]).collect();
        }
        v
    }

    /// Fit AR(p) with intercept on `z` by least squares. Returns
    /// `(intercept, coefs, sse, n_obs)`.
    fn fit_ar(z: &[f64], p: usize) -> Option<(f64, Vec<f64>, f64, usize)> {
        if z.len() < p + 2 {
            return None;
        }
        let n = z.len() - p;
        let mut data = Vec::with_capacity(n * (p + 1));
        let mut y = Vec::with_capacity(n);
        for t in p..z.len() {
            data.push(1.0);
            for k in 1..=p {
                data.push(z[t - k]);
            }
            y.push(z[t]);
        }
        let x = Mat::from_vec(n, p + 1, data);
        let beta = ridge(&x, &y, 1e-8)?;
        let mut sse = 0.0;
        for i in 0..n {
            let pred: f64 = beta[0] + (1..=p).map(|k| beta[k] * x[(i, k)]).sum::<f64>();
            sse += (y[i] - pred).powi(2);
        }
        Some((beta[0], beta[1..].to_vec(), sse, n))
    }

    fn one_step(fitted: &FittedArima, recent: &[f64]) -> f64 {
        let z = Self::difference(recent, fitted.d);
        if z.len() < fitted.p {
            return recent.last().copied().unwrap_or(0.0);
        }
        let mut pred = fitted.intercept;
        for (k, &c) in fitted.coefs.iter().enumerate() {
            pred += c * z[z.len() - 1 - k];
        }
        // Undifference: add back the last d levels.
        match fitted.d {
            0 => pred.max(0.0),
            _ => {
                // For d = 1: next = last + predicted diff. Higher d handled
                // by repeated partial sums of the tail.
                let mut levels = recent.to_vec();
                for _ in 0..fitted.d - 1 {
                    levels = levels.windows(2).map(|w| w[1] - w[0]).collect();
                }
                (levels.last().copied().unwrap_or(0.0) + pred).max(0.0)
            }
        }
    }
}

impl Predictor for Arima {
    fn name(&self) -> String {
        format!("arima(max_p={}, max_d={})", self.max_p, self.max_d)
    }

    fn fit(&mut self, history: &[f64]) {
        let mut best: Option<(f64, FittedArima)> = None;
        for d in 0..=self.max_d {
            let z = Self::difference(history, d);
            for p in 1..=self.max_p {
                if let Some((intercept, coefs, sse, n)) = Self::fit_ar(&z, p) {
                    if n < 3 {
                        continue;
                    }
                    // AIC with k = p + 1 parameters (+1 for differencing).
                    let k = (p + 1 + d) as f64;
                    let aic = n as f64 * ((sse / n as f64).max(1e-300)).ln() + 2.0 * k;
                    let candidate = FittedArima {
                        p,
                        d,
                        intercept,
                        coefs,
                    };
                    if best.as_ref().map(|(a, _)| aic < *a).unwrap_or(true) {
                        best = Some((aic, candidate));
                    }
                }
            }
        }
        self.fitted = best.map(|(_, f)| f);
    }

    fn predict_next(&self, recent: &[f64]) -> f64 {
        match &self.fitted {
            Some(f) => Self::one_step(f, recent),
            None => recent.last().copied().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{forecast_mse, rolling_forecast, Cadence};

    #[test]
    fn recovers_ar1_process() {
        // x_t = 0.8 x_{t−1} + c, deterministic: converges geometrically.
        let mut series = vec![100.0];
        for _ in 0..60 {
            let last = *series.last().unwrap();
            series.push(0.8 * last + 5.0);
        }
        let mut m = Arima::new(3, 1);
        m.fit(&series);
        let pred = m.predict_next(&series);
        let truth = 0.8 * series.last().unwrap() + 5.0;
        assert!(
            (pred - truth).abs() / truth < 0.05,
            "pred {pred} truth {truth}"
        );
    }

    #[test]
    fn differencing_handles_trends() {
        // Pure linear trend: d=1 makes it stationary and exact.
        let series: Vec<f64> = (0..50).map(|i| 10.0 + 3.0 * i as f64).collect();
        let mut m = Arima::default();
        m.fit(&series);
        let pred = m.predict_next(&series);
        assert!((pred - 160.0).abs() < 1.0, "pred {pred}");
    }

    #[test]
    fn beats_persistence_on_ar_series() {
        // Noisy AR(2) with deterministic pseudo-noise.
        let mut series = vec![50.0, 52.0];
        for i in 2..200 {
            let noise = (((i * 2654435761u64 as usize) % 97) as f64 - 48.0) * 0.3;
            let next = 0.6 * series[i - 1] + 0.3 * series[i - 2] + 5.0 + noise;
            series.push(next);
        }
        let mut arima = Arima::default();
        let a = rolling_forecast(&mut arima, &series, 30, Cadence::PerPeriod);
        let mut pers = crate::eval::Persistence;
        let p = rolling_forecast(&mut pers, &series, 30, Cadence::PerPeriod);
        let ae = forecast_mse(&a).unwrap();
        let pe = forecast_mse(&p).unwrap();
        assert!(ae < pe, "arima {ae} vs persistence {pe}");
    }

    #[test]
    fn difference_roundtrip() {
        let v = [1.0, 4.0, 9.0, 16.0];
        assert_eq!(Arima::difference(&v, 1), vec![3.0, 5.0, 7.0]);
        assert_eq!(Arima::difference(&v, 2), vec![2.0, 2.0]);
        assert_eq!(Arima::difference(&v, 0), v.to_vec());
    }

    #[test]
    fn unfitted_model_falls_back_to_persistence() {
        let m = Arima::default();
        assert_eq!(m.predict_next(&[3.0, 7.0]), 7.0);
        assert_eq!(m.predict_next(&[]), 0.0);
    }

    #[test]
    fn orders_are_reported_after_fit() {
        let series: Vec<f64> = (0..40).map(|i| (i % 5) as f64).collect();
        let mut m = Arima::new(4, 1);
        assert!(m.fitted.is_none());
        m.fit(&series);
        let f = m.fitted.as_ref().unwrap();
        let (p, d) = (f.p, f.d);
        assert!((1..=4).contains(&p));
        assert!(d <= 1);
    }

    #[test]
    fn predictions_are_nonnegative() {
        // Crashing series would extrapolate negative without the clamp.
        let series = vec![100.0, 50.0, 10.0, 1.0];
        let mut m = Arima::default();
        m.fit(&series);
        assert!(m.predict_next(&series) >= 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::eval::Predictor;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn fit_and_predict_never_panic_and_stay_finite(
            series in prop::collection::vec(0.0f64..1e9, 0..80),
        ) {
            let mut m = Arima::default();
            m.fit(&series);
            let p = m.predict_next(&series);
            prop_assert!(p.is_finite());
            prop_assert!(p >= 0.0);
        }
    }
}
