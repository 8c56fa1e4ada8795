//! Figure 4 — frequent segment migration (§6.1).
//!
//! (a) proportion of frequent migrations per cluster at several window
//! scales; (b) normalized migration interval under the five importer
//! selections S1–S5; (c) MSE of the five traffic predictors P1–P5.

use crate::driver::Shared;
use ebs_analysis::table::Table;
use ebs_balance::bs_balancer::BalancerRun;
use ebs_balance::importer::ImporterSelect;
use ebs_balance::migration::{frequent_migration_proportion, segment_residency_intervals};
use ebs_core::ids::{BsId, DcId};
use ebs_core::metric::Measure;
use ebs_predict::eval::{
    forecast_nmse, rolling_forecast_capped, Cadence, Predictor, EPOCH_PERIODS,
};
use ebs_predict::{Arima, AttentionRegressor, Gbdt, LinearFit};
use ebs_workload::Dataset;

/// Window scales for the frequent-migration analysis, in seconds.
pub const WINDOW_SECS: [f64; 3] = [15.0, 30.0, 60.0];

/// History cap for per-period retraining of learned models.
const MAX_HISTORY: usize = 200;

/// The whole figure.
#[derive(Clone, Debug)]
pub struct Fig4 {
    /// Panel (a): `(window_secs, dc name, frequent proportion)`.
    pub a: Vec<(f64, String, f64)>,
    /// Panel (b): `(strategy, median normalized migration interval,
    /// migration count)` on the busiest cluster.
    pub b: Vec<(ImporterSelect, f64, usize)>,
    /// Panel (c): `(predictor label, mean normalized MSE across BSs)`.
    pub c: Vec<(String, f64)>,
    /// The cluster panel (b)/(c) ran on.
    pub cluster: String,
}

/// Panel (a): the frequent-migration proportion of the production
/// balancer's (S2) run on each DC, at each window scale.
pub fn panel_a(sh: &Shared) -> Vec<(f64, String, f64)> {
    let ds = sh.ds();
    let mut out = Vec::new();
    let period_secs = ds.storage.ticks.tick_secs;
    for (dc, run) in ds.fleet.dcs.iter().zip(sh.s2_runs()) {
        for &w in &WINDOW_SECS {
            let periods = ((w / period_secs).round() as u32).max(1);
            let prop = frequent_migration_proportion(run.seg_map.log(), periods);
            out.push((w, dc.name.clone(), prop));
        }
    }
    out
}

/// Mean normalized residency interval of a run's segments. The mean (not
/// the median) rewards strategies that avoid re-migration through their
/// censored long stays.
pub fn mean_residency(run: &BalancerRun) -> f64 {
    let intervals = segment_residency_intervals(run.seg_map.log(), run.periods);
    if intervals.is_empty() {
        f64::NAN
    } else {
        intervals.iter().sum::<f64>() / intervals.len() as f64
    }
}

/// Panel (b): migration intervals per importer strategy (S1–S5) on the
/// busiest DC.
pub fn panel_b(sh: &Shared) -> Vec<(ImporterSelect, f64, usize)> {
    sh.importer_runs()
        .into_iter()
        .map(|(strategy, run)| (strategy, mean_residency(run), run.migrations))
        .collect()
}

/// Per-BS write-traffic series (one per BlockServer of `dc`) on the
/// balancer's period grid, under the initial placement.
pub fn bs_series(ds: &Dataset, dc: DcId) -> Vec<Vec<f64>> {
    let bss: Vec<BsId> = ds.fleet.bss_of_dc(dc).to_vec();
    let traffic = ebs_balance::bs_balancer::PeriodTraffic::build(
        &ds.fleet,
        &ds.storage,
        dc,
        Measure::WriteBytes,
    );
    let map = ebs_stack::segment::SegmentMap::from_fleet(&ds.fleet);
    let periods = traffic.periods.len();
    let mut series = vec![Vec::with_capacity(periods); bss.len()];
    for p in 0..periods {
        let totals = traffic.bs_totals(p, &map, &bss);
        for (i, v) in totals.into_iter().enumerate() {
            series[i].push(v);
        }
    }
    series
}

/// Panel (c): evaluate P1–P5 on the per-BS series of `dc`. Scores are the
/// mean *normalized* MSE across BSs (normalizing by each BS's variance
/// makes BSs of different magnitude commensurable).
/// Factory building a fresh predictor instance per BlockServer series.
type PredictorFactory = Box<dyn Fn() -> Box<dyn Predictor>>;

/// Panel (c): evaluate P1–P5 on the per-BS series of `dc`. Scores are the
/// mean *normalized* MSE across BSs.
pub fn panel_c(ds: &Dataset, dc: DcId) -> Vec<(String, f64)> {
    let series = bs_series(ds, dc);
    let warmup = 16usize;
    let lineup: Vec<(String, PredictorFactory, Cadence)> = vec![
        (
            "P1-LinearFit".into(),
            Box::new(|| Box::new(LinearFit::default())),
            Cadence::PerPeriod,
        ),
        (
            "P2-ARIMA".into(),
            Box::new(|| Box::new(Arima::default())),
            Cadence::PerPeriod,
        ),
        (
            "P3-GBDT(epoch)".into(),
            Box::new(|| Box::new(Gbdt::default())),
            Cadence::Epoch(EPOCH_PERIODS),
        ),
        (
            "P4-Attention(epoch)".into(),
            Box::new(|| Box::new(AttentionRegressor::default())),
            Cadence::Epoch(EPOCH_PERIODS),
        ),
        (
            "P5-Attention(period)".into(),
            Box::new(|| Box::new(AttentionRegressor::default())),
            Cadence::PerPeriod,
        ),
    ];
    lineup
        .into_iter()
        .map(|(name, make, cadence)| {
            let mut scores = Vec::new();
            for s in &series {
                if s.iter().sum::<f64>() <= 0.0 || s.len() <= warmup + 4 {
                    continue;
                }
                let mut model = make();
                let pairs =
                    rolling_forecast_capped(model.as_mut(), s, warmup, cadence, MAX_HISTORY);
                if let Some(nmse) = forecast_nmse(&pairs) {
                    scores.push(nmse);
                }
            }
            let mean = if scores.is_empty() {
                f64::NAN
            } else {
                scores.iter().sum::<f64>() / scores.len() as f64
            };
            (name, mean)
        })
        .collect()
}

/// Run the whole figure.
pub fn run(sh: &Shared) -> Fig4 {
    let dc = sh.busiest_dc();
    Fig4 {
        a: panel_a(sh),
        b: panel_b(sh),
        c: panel_c(sh.ds(), dc),
        cluster: sh.ds().fleet.dcs[dc].name.clone(),
    }
}

/// Render all panels.
pub fn render(f: &Fig4) -> String {
    let mut out = String::new();
    let mut a = Table::new(["window (s)", "cluster", "frequent migration %"])
        .with_title("Figure 4(a): proportion of frequent migrations");
    for (w, dc, prop) in &f.a {
        a.row([
            format!("{w:.0}"),
            dc.clone(),
            format!("{:.1}", prop * 100.0),
        ]);
    }
    out.push_str(&a.render());

    let mut b = Table::new(["strategy", "mean norm. residency", "migrations"]).with_title(format!(
        "Figure 4(b): segment residency interval by importer selection ({})",
        f.cluster
    ));
    for (s, med, n) in &f.b {
        b.row([s.label().to_string(), format!("{med:.3}"), n.to_string()]);
    }
    out.push('\n');
    out.push_str(&b.render());

    let mut c = Table::new(["predictor", "mean normalized MSE"]).with_title(format!(
        "Figure 4(c): traffic-prediction error ({})",
        f.cluster
    ));
    for (name, mse) in &f.c {
        c.row([name.clone(), format!("{mse:.3}")]);
    }
    out.push('\n');
    out.push_str(&c.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{dataset, Scale};

    #[test]
    fn frequent_migrations_exist_somewhere() {
        let ds = dataset(Scale::Medium);
        let a = panel_a(&Shared::new(&ds));
        assert!(!a.is_empty());
        for (_, _, prop) in &a {
            assert!((0.0..=1.0).contains(prop));
        }
        // Wider windows can only widen (or keep) the frequent set per DC.
        for dc in ds.fleet.dcs.iter() {
            let vals: Vec<f64> = a
                .iter()
                .filter(|(_, name, _)| *name == dc.name)
                .map(|&(_, _, p)| p)
                .collect();
            assert!(vals.windows(2).all(|w| w[1] >= w[0] - 1e-12), "{vals:?}");
        }
    }

    #[test]
    fn ideal_importer_beats_min_traffic_on_intervals() {
        let ds = dataset(Scale::Medium);
        let b = panel_b(&Shared::new(&ds));
        let get = |s: ImporterSelect| b.iter().find(|(x, _, _)| *x == s).unwrap();
        let ideal = get(ImporterSelect::Ideal);
        let min_traffic = get(ImporterSelect::MinTraffic);
        if ideal.1.is_finite() && min_traffic.1.is_finite() {
            assert!(
                ideal.1 >= min_traffic.1 * 0.9,
                "Ideal residency {:.3} should not trail MinTraffic {:.3}",
                ideal.1,
                min_traffic.1
            );
        }
        // (Migration *counts* are not asserted: with the oracle-coherent
        // `next` view, Ideal may trade a few extra migrations for longer
        // residencies; the residency metric above is the paper's lens.)
    }

    #[test]
    fn predictors_rank_plausibly() {
        let ds = dataset(Scale::Medium);
        let c = panel_c(&ds, Shared::new(&ds).busiest_dc());
        let get = |tag: &str| c.iter().find(|(n, _)| n.starts_with(tag)).unwrap().1;
        let linear = get("P1");
        let arima = get("P2");
        let p4 = get("P4");
        let p5 = get("P5");
        assert!(arima.is_finite() && linear.is_finite());
        // ARIMA beats the linear fit (Figure 4(c)).
        assert!(arima < linear, "ARIMA {arima:.3} vs linear {linear:.3}");
        // Per-period attention beats per-epoch attention.
        assert!(p5 <= p4 * 1.05, "P5 {p5:.3} vs P4 {p4:.3}");
    }

    #[test]
    fn render_lists_all_strategies_and_predictors() {
        let ds = dataset(Scale::Quick);
        let text = render(&run(&Shared::new(&ds)));
        for s in ImporterSelect::ALL {
            assert!(text.contains(s.label()));
        }
        for p in ["P1", "P2", "P3", "P4", "P5"] {
            assert!(text.contains(p));
        }
    }
}
