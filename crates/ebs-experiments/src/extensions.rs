//! Beyond the paper's evaluation: the fixes its discussion sections
//! propose, implemented and measured.
//!
//! * **S6 — ARIMA importer** (§6.1.3): replace the oracle with the best
//!   deployable predictor from Figure 4(c).
//! * **Prediction-guided lending** (§5.3): forecast each lender's demand
//!   before taking its headroom, shrinking the backfire tail of
//!   Figure 3(f).
//! * **Hybrid CN+BS cache** (§7.3.2): a few CN-cache slots per node for
//!   the hottest disks, BS-cache as the backup tier.

use crate::driver::Shared;
use crate::fig4;
use ebs_analysis::table::Table;
use ebs_balance::bs_balancer::{run_balancer, BalancerConfig};
use ebs_balance::importer::ImporterSelect;
use ebs_cache::hybrid::{assign_sites, cn_slot_usage, hybrid_latency_gain, HybridConfig};
use ebs_cache::location::{hit_oracle, latency_gain, CacheSite};
use ebs_cache::utilization::CACHEABLE_THRESHOLD;
use ebs_core::io::Op;
use ebs_core::parallel::par_map_deterministic;
use ebs_throttle::lending::{lending_gains, LendingConfig};
use ebs_throttle::predictive::predictive_lending_gains;
use ebs_throttle::scenario::{build_groups, CapDim};
use ebs_workload::Dataset;

/// S6 versus the paper's lineup on the busiest cluster:
/// `(strategy, mean residency, migrations)`. S1–S5 are Figure 4(b)'s
/// shared runs; only S6 runs here.
pub fn importer_extension(sh: &Shared) -> Vec<(ImporterSelect, f64, usize)> {
    let ds = sh.ds();
    let cfg = BalancerConfig {
        strategy: ImporterSelect::ArimaPredict,
        ..BalancerConfig::default()
    };
    let s6 = run_balancer(&ds.fleet, &ds.storage, sh.busiest_dc(), &cfg);
    let mut rows = fig4::panel_b(sh);
    rows.push((cfg.strategy, fig4::mean_residency(&s6), s6.migrations));
    rows
}

/// Plain versus prediction-guided lending at several rates:
/// `(p, plain negative-gain %, predictive negative-gain %,
///   plain median gain, predictive median gain)`.
pub fn lending_extension(ds: &Dataset) -> Vec<(f64, f64, f64, f64, f64)> {
    let groups = build_groups(&ds.fleet, &ds.compute, CapDim::Throughput);
    par_map_deterministic(&[0.4, 0.6, 0.8], |_, &p| {
        let base = LendingConfig { p };
        let plain = lending_gains(&groups, &base);
        let predictive = predictive_lending_gains(&groups, &base);
        let neg = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                v.iter().filter(|&&g| g < 0.0).count() as f64 / v.len() as f64
            }
        };
        (
            p,
            neg(&plain),
            neg(&predictive),
            ebs_analysis::median(&plain).unwrap_or(f64::NAN),
            ebs_analysis::median(&predictive).unwrap_or(f64::NAN),
        )
    })
}

/// Hybrid deployment sweep: `(cn_slots, write p50 gain, max CN slots used)`
/// plus the pure CN / BS baselines. The slot sweep fans out in parallel
/// over the borrowed events and latency column.
pub fn hybrid_extension(sh: &Shared) -> (Vec<(usize, f64, usize)>, f64, f64) {
    let ds = sh.ds();
    let hot = sh.hot_map(2048 << 20);
    let (events, lat) = (ds.events.as_slice(), sh.stack_lat());
    let hits = hit_oracle(hot, events, CACHEABLE_THRESHOLD);
    let sweep = par_map_deterministic(&[0usize, 1, 2, 4, 8], |_, &slots| {
        let sites = assign_sites(
            &ds.fleet,
            hot,
            &HybridConfig {
                cn_slots_per_node: slots,
                threshold: CACHEABLE_THRESHOLD,
            },
        );
        let gain = hybrid_latency_gain(events, lat, &hits, &sites, Op::Write)
            .map(|g| g.p50)
            .unwrap_or(f64::NAN);
        let used = cn_slot_usage(&ds.fleet, &sites)
            .into_iter()
            .max()
            .unwrap_or(0);
        (slots, gain, used)
    });
    let cn = latency_gain(events, lat, &hits, CacheSite::ComputeNode, Op::Write)
        .map(|g| g.p50)
        .unwrap_or(f64::NAN);
    let bs = latency_gain(events, lat, &hits, CacheSite::BlockServer, Op::Write)
        .map(|g| g.p50)
        .unwrap_or(f64::NAN);
    (sweep, cn, bs)
}

/// Run and render all three extensions.
pub fn render(sh: &Shared) -> String {
    let mut out = String::new();

    let mut t = Table::new(["strategy", "mean norm. residency", "migrations"])
        .with_title("Extension: S6 ARIMA importer vs the paper's lineup (§6.1.3)");
    for (s, mean, n) in importer_extension(sh) {
        t.row([s.label().to_string(), format!("{mean:.3}"), n.to_string()]);
    }
    out.push_str(&t.render());

    let mut t = Table::new([
        "p",
        "plain negative %",
        "predictive negative %",
        "plain median gain",
        "predictive median gain",
    ])
    .with_title("Extension: prediction-guided lending (§5.3)");
    for (p, pn, qn, pm, qm) in lending_extension(sh.ds()) {
        t.row([
            format!("{p:.1}"),
            format!("{:.1}", pn * 100.0),
            format!("{:.1}", qn * 100.0),
            format!("{pm:.3}"),
            format!("{qm:.3}"),
        ]);
    }
    out.push('\n');
    out.push_str(&t.render());

    let (sweep, cn, bs) = hybrid_extension(sh);
    let mut t = Table::new(["CN slots/node", "write p50 gain", "max slots used"])
        .with_title("Extension: hybrid CN+BS cache deployment (§7.3.2)");
    for (slots, gain, used) in sweep {
        t.row([slots.to_string(), format!("{gain:.3}"), used.to_string()]);
    }
    out.push('\n');
    out.push_str(&t.render());
    out.push_str(&format!(
        "pure CN-cache write p50 gain: {cn:.3}; pure BS-cache: {bs:.3}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{dataset, Scale};

    #[test]
    fn arima_importer_is_competitive() {
        let ds = dataset(Scale::Medium);
        let rows = importer_extension(&Shared::new(&ds));
        assert_eq!(rows.len(), 6);
        let get = |s: ImporterSelect| rows.iter().find(|(x, _, _)| *x == s).unwrap();
        let arima = get(ImporterSelect::ArimaPredict);
        let min_traffic = get(ImporterSelect::MinTraffic);
        // S6 should not churn more than the production default.
        assert!(
            arima.2 <= (min_traffic.2 as f64 * 1.1) as usize,
            "S6 migrations {} vs S2 {}",
            arima.2,
            min_traffic.2
        );
    }

    #[test]
    fn predictive_lending_shrinks_the_backfire_tail() {
        let ds = dataset(Scale::Medium);
        let rows = lending_extension(&ds);
        for (p, plain_neg, pred_neg, _, _) in rows {
            if plain_neg.is_finite() && pred_neg.is_finite() {
                assert!(
                    pred_neg <= plain_neg + 1e-9,
                    "p={p}: predictive negative {pred_neg:.3} vs plain {plain_neg:.3}"
                );
            }
        }
    }

    #[test]
    fn hybrid_interpolates_between_pure_sites() {
        let ds = dataset(Scale::Medium);
        let (sweep, cn, bs) = hybrid_extension(&Shared::new(&ds));
        // Gains improve (shrink) monotonically with more CN slots…
        for w in sweep.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "{:?} vs {:?}", w[1], w[0]);
        }
        // …bounded by the pure deployments.
        let zero_slots = sweep.first().unwrap().1;
        let many_slots = sweep.last().unwrap().1;
        assert!(zero_slots <= bs + 1e-9);
        assert!(many_slots >= cn - 1e-9);
    }

    #[test]
    fn render_mentions_all_three_extensions() {
        let ds = dataset(Scale::Quick);
        let text = render(&Shared::new(&ds));
        for tag in ["S6", "prediction-guided", "hybrid"] {
            assert!(
                text.to_lowercase().contains(&tag.to_lowercase()),
                "missing {tag}"
            );
        }
    }
}
