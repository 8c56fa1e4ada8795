//! Prediction-guided lending — the fix §5.3 calls for.
//!
//! Plain limited lending backfires when a lender bursts right after giving
//! cap away (the negative-gain tail of Figure 3(f)). The paper's takeaway:
//! *"a practical lending requires traffic prediction to adjust the lending
//! rate, ensuring the VD lending cap does not get throttled again."* This
//! module implements exactly that: before lending, each potential lender's
//! near-future demand is forecast from its history, and its contributed
//! headroom is computed against the *larger* of current and predicted
//! demand (padded by a safety margin). Lenders about to burst lend
//! nothing.

use crate::lending::{lend_ticks, LendingConfig, LendingOutcome};
use crate::scenario::ThrottleGroup;
use ebs_predict::eval::Predictor;
use ebs_predict::LinearFit;

/// Safety multiplier on a lender's forecast demand: assume it may need
/// 20 % more than forecast.
const SAFETY: f64 = 1.2;

/// Simulate prediction-guided lending under `config` (rate `p`, period
/// length) over one group, forecasting each lender's next-tick demand with
/// `make_predictor` (one fresh model per member; the default harness uses
/// the paper's P1 linear fit, which is cheap enough to refit per tick).
pub fn simulate_predictive_lending(
    group: &ThrottleGroup,
    config: &LendingConfig,
    make_predictor: &dyn Fn() -> Box<dyn Predictor>,
) -> LendingOutcome {
    let mut predictors: Vec<Box<dyn Predictor>> =
        group.members.iter().map(|_| make_predictor()).collect();
    let demand: Vec<Vec<f64>> = (group.members.iter())
        .map(|m| (0..group.ticks).map(|t| m.demand(t)).collect())
        .collect();
    // Prediction-guided headroom: a lender is charged for the worst of
    // what it uses now and what it is forecast to use next, times the
    // `SAFETY` margin. The history includes tick `t`, so the one-step
    // forecast targets tick t+1 (what the lender needs *after* lending).
    lend_ticks(group, config, |i, t| {
        let history = demand.get(i).and_then(|d| d.get(..=t)).unwrap_or_default();
        let (Some(&now), Some(predictor)) = (history.last(), predictors.get_mut(i)) else {
            return 0.0;
        };
        let predicted = if history.len() >= 2 {
            predictor.fit(history);
            predictor.predict_next(history)
        } else {
            now
        };
        now.max(predicted) * SAFETY
    })
    .0
}

/// Gains across many groups with the default (linear-fit) forecaster.
pub fn predictive_lending_gains(groups: &[ThrottleGroup], config: &LendingConfig) -> Vec<f64> {
    groups
        .iter()
        .filter_map(|g| {
            simulate_predictive_lending(g, config, &|| Box::new(LinearFit::default())).gain
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lending::simulate_lending;
    use crate::scenario::fixture::{group, vd};
    use crate::scenario::CapDim;
    use ebs_predict::eval::Persistence;

    #[test]
    fn predictive_lender_refuses_when_ramping_up() {
        // Member 1 ramps 20, 40, 60, 80, then needs 99 — plain lending at
        // tick 3 (when member 0 bursts) would hand away the headroom that
        // member 1 is about to need; linear fit sees the ramp (forecast
        // 100, reserve 120) and withholds it.
        let g = group(vec![
            vd(vec![0.0, 0.0, 0.0, 150.0, 0.0, 0.0], 100.0),
            vd(vec![20.0, 40.0, 60.0, 80.0, 99.0, 99.0], 100.0),
        ]);
        let base = LendingConfig { p: 0.9 };
        let plain = simulate_lending(&g, &base);
        let predictive = simulate_predictive_lending(&g, &base, &|| Box::new(LinearFit::default()));
        assert!(
            predictive.throttled_with <= plain.throttled_with,
            "prediction must not be worse: {predictive:?} vs {plain:?}"
        );
        // And the lender never gets burned under prediction.
        assert_eq!(predictive.throttled_with, predictive.throttled_without);
        // The forecast is what protects it: a lender that only pads what
        // it uses now reserves 1.2 × 80 = 96, lends 4, and is throttled
        // at 99 on ticks 4 and 5.
        let unforecast = simulate_predictive_lending(&g, &base, &|| Box::new(Persistence));
        assert_eq!(
            unforecast.throttled_with,
            unforecast.throttled_without + 2,
            "{unforecast:?}"
        );
    }

    #[test]
    fn predictive_still_lends_to_relieve_sustained_throttle() {
        let g = group(vec![vd(vec![150.0; 6], 100.0), vd(vec![5.0; 6], 300.0)]);
        let out = simulate_predictive_lending(&g, &LendingConfig::default(), &|| {
            Box::new(LinearFit::default())
        });
        assert!(out.throttled_with < out.throttled_without, "{out:?}");
        assert!(out.gain.unwrap() > 0.0);
    }

    #[test]
    fn predictive_cuts_the_negative_tail_fleet_wide() {
        let ds = ebs_workload::generate(&ebs_workload::WorkloadConfig::medium(111)).unwrap();
        let groups = crate::scenario::build_groups(&ds.fleet, &ds.compute, CapDim::Throughput);
        // p = 0.8 over 6-tick periods, with the 1.2× safety margin.
        let config = LendingConfig::default();
        let plain = crate::lending::lending_gains(&groups, &config);
        let predictive = predictive_lending_gains(&groups, &config);
        let neg = |v: &[f64]| v.iter().filter(|&&g| g < 0.0).count() as f64 / v.len() as f64;
        assert!(!plain.is_empty() && !predictive.is_empty());
        assert!(
            neg(&predictive) <= neg(&plain) + 1e-9,
            "prediction should shrink the backfire tail: {:.3} vs {:.3}",
            neg(&predictive),
            neg(&plain)
        );
    }

    #[test]
    fn quiet_groups_still_produce_no_gain() {
        let g = group(vec![vd(vec![1.0; 6], 100.0), vd(vec![1.0; 6], 100.0)]);
        let out = simulate_predictive_lending(&g, &LendingConfig::default(), &|| {
            Box::new(LinearFit::default())
        });
        assert_eq!(out.gain, None);
    }
}
