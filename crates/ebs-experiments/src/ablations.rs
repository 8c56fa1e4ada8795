//! Ablation sweeps for the design constants the paper (and DESIGN.md §4)
//! call out: the rebind trigger ratio, the lending rate, the balancer's
//! exporter threshold, and the frozen-cache placement threshold.

use crate::driver::Shared;
use ebs_analysis::table::Table;
use ebs_balance::bs_balancer::{run_balancer, BalancerConfig};
use ebs_balance::wt_rebind::{simulate_fleet, RebindConfig};
use ebs_cache::frozen::FrozenCache;
use ebs_cache::hottest_block::BLOCK_SIZES;
use ebs_cache::simulate::simulate;
use ebs_cache::utilization::{cacheable_vds, per_cn_counts, std_dev};
use ebs_core::parallel::par_map_deterministic;
use ebs_throttle::lending::{lending_gains, LendingConfig};
use ebs_throttle::scenario::{build_groups, CapDim};
use ebs_workload::Dataset;

/// Rebind trigger ratios swept.
pub const TRIGGER_RATIOS: [f64; 4] = [1.1, 1.2, 1.5, 2.0];
/// Lending rates swept.
pub const LEND_RATES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
/// Balancer exporter thresholds swept.
pub const EXPORT_RATIOS: [f64; 4] = [1.1, 1.2, 1.5, 2.0];
/// Frozen-cache placement thresholds swept.
pub const CACHE_THRESHOLDS: [f64; 4] = [0.10, 0.25, 0.40, 0.60];

/// Sweep the rebind trigger ratio over the shared per-CN partition:
/// `(ratio, median rebind ratio, fraction of nodes improved)`.
pub fn rebind_trigger_sweep(sh: &Shared) -> Vec<(f64, f64, f64)> {
    let by_cn = sh.events_by_cn();
    par_map_deterministic(&TRIGGER_RATIOS, |_, &trigger_ratio| {
        let cfg = RebindConfig {
            trigger_ratio,
            ..RebindConfig::default()
        };
        let outcomes = simulate_fleet(&sh.ds().fleet, by_cn, &cfg);
        let ratios: Vec<f64> = outcomes.iter().map(|o| o.rebind_ratio).collect();
        let improved = if outcomes.is_empty() {
            f64::NAN
        } else {
            outcomes.iter().filter(|o| o.gain < 1.0).count() as f64 / outcomes.len() as f64
        };
        (
            trigger_ratio,
            ebs_analysis::median(&ratios).unwrap_or(f64::NAN),
            improved,
        )
    })
}

/// Sweep the lending rate: `(p, positive-gain fraction, median gain)`.
pub fn lending_rate_sweep(ds: &Dataset) -> Vec<(f64, f64, f64)> {
    let groups = build_groups(&ds.fleet, &ds.compute, CapDim::Throughput);
    par_map_deterministic(&LEND_RATES, |_, &p| {
        let gains = lending_gains(&groups, &LendingConfig { p, period_ticks: 6 });
        let pos = if gains.is_empty() {
            f64::NAN
        } else {
            gains.iter().filter(|&&g| g > 0.0).count() as f64 / gains.len() as f64
        };
        (p, pos, ebs_analysis::median(&gains).unwrap_or(f64::NAN))
    })
}

/// Sweep the exporter threshold on the busiest DC: `(ratio, migrations,
/// mean per-period CoV)`. Every ratio, the default one included, runs its
/// own balancer.
pub fn exporter_threshold_sweep(sh: &Shared) -> Vec<(f64, usize, f64)> {
    let ds = sh.ds();
    let dc = sh.busiest_dc();
    par_map_deterministic(&EXPORT_RATIOS, |_, &exporter_ratio| {
        let cfg = BalancerConfig {
            exporter_ratio,
            ..BalancerConfig::default()
        };
        let run = run_balancer(&ds.fleet, &ds.storage, dc, &cfg);
        let mean_cov = if run.cov_series.is_empty() {
            f64::NAN
        } else {
            run.cov_series.iter().sum::<f64>() / run.cov_series.len() as f64
        };
        (exporter_ratio, run.migrations, mean_cov)
    })
}

/// Sweep the frozen-cache placement threshold at 512 MiB blocks:
/// `(threshold, cacheable VDs, CN-count std, mean frozen hit ratio among
/// cacheable VDs)`. Every threshold borrows the same per-VD views of the
/// shared event index (no event copies).
pub fn cache_threshold_sweep(sh: &Shared) -> Vec<(f64, usize, f64, f64)> {
    let ds = sh.ds();
    let idx = ds.index();
    let hot = sh.hot_map(BLOCK_SIZES[3]); // 512 MiB
    par_map_deterministic(&CACHE_THRESHOLDS, |_, &threshold| {
        let vds = cacheable_vds(hot, threshold);
        let counts = per_cn_counts(&ds.fleet, hot, threshold);
        let mut ratios = Vec::new();
        for &vd in &vds {
            let hb = &hot[&vd];
            let mut policy = FrozenCache::covering_bytes(hb.block * hb.block_size, hb.block_size);
            if let Some(r) = simulate(&mut policy, idx.vd(vd)).ratio() {
                ratios.push(r);
            }
        }
        let mean_hit = if ratios.is_empty() {
            f64::NAN
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        (threshold, vds.len(), std_dev(&counts), mean_hit)
    })
}

/// Run and render every sweep. The four sweeps are independent, so they
/// run as parallel jobs; their tables concatenate in the fixed ablation
/// order regardless of which finishes first.
pub fn render(sh: &Shared) -> String {
    type Job<'a> = Box<dyn FnOnce() -> String + Send + 'a>;
    let jobs: Vec<Job<'_>> = vec![
        Box::new(|| {
            let mut t = Table::new(["trigger ratio", "median rebind ratio", "nodes improved %"])
                .with_title("Ablation: rebind trigger ratio (§4.3)");
            for (r, med, imp) in rebind_trigger_sweep(sh) {
                t.row([
                    format!("{r:.1}"),
                    format!("{med:.3}"),
                    format!("{:.1}", imp * 100.0),
                ]);
            }
            t.render()
        }),
        Box::new(|| {
            let mut t = Table::new(["p", "positive gain %", "median gain"])
                .with_title("Ablation: lending rate (§5.3)");
            for (p, pos, med) in lending_rate_sweep(sh.ds()) {
                t.row([
                    format!("{p:.1}"),
                    format!("{:.1}", pos * 100.0),
                    format!("{med:.3}"),
                ]);
            }
            t.render()
        }),
        Box::new(|| {
            let mut t = Table::new(["exporter ratio", "migrations", "mean period CoV"])
                .with_title("Ablation: balancer exporter threshold (§6.1)");
            for (r, n, cov) in exporter_threshold_sweep(sh) {
                t.row([format!("{r:.1}"), n.to_string(), format!("{cov:.3}")]);
            }
            t.render()
        }),
        Box::new(|| {
            let mut t = Table::new([
                "threshold",
                "cacheable VDs",
                "CN count std",
                "mean frozen hit",
            ])
            .with_title("Ablation: frozen-cache placement threshold (§7.3, 512 MiB)");
            for (th, n, std, hit) in cache_threshold_sweep(sh) {
                t.row([
                    format!("{th:.2}"),
                    n.to_string(),
                    format!("{std:.2}"),
                    format!("{hit:.3}"),
                ]);
            }
            t.render()
        }),
    ];
    ebs_core::parallel::par_jobs(jobs).join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{dataset, Scale};

    #[test]
    fn looser_trigger_rebinds_less() {
        let ds = dataset(Scale::Quick);
        let sweep = rebind_trigger_sweep(&Shared::new(&ds));
        let first = sweep.first().unwrap().1;
        let last = sweep.last().unwrap().1;
        assert!(
            last <= first + 1e-9,
            "trigger 2.0 must rebind no more than 1.1"
        );
    }

    #[test]
    fn higher_exporter_threshold_migrates_less() {
        let ds = dataset(Scale::Quick);
        let sweep = exporter_threshold_sweep(&Shared::new(&ds));
        let first = sweep.first().unwrap().1;
        let last = sweep.last().unwrap().1;
        assert!(last <= first, "threshold 2.0 must migrate no more than 1.1");
    }

    #[test]
    fn stricter_cache_threshold_shrinks_the_cacheable_set() {
        let ds = dataset(Scale::Quick);
        let sweep = cache_threshold_sweep(&Shared::new(&ds));
        for w in sweep.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    fn lending_sweep_is_complete() {
        let ds = dataset(Scale::Quick);
        let sweep = lending_rate_sweep(&ds);
        assert_eq!(sweep.len(), LEND_RATES.len());
    }

    #[test]
    fn render_contains_all_sweeps() {
        let ds = dataset(Scale::Quick);
        let text = render(&Shared::new(&ds));
        for tag in [
            "rebind trigger",
            "lending rate",
            "exporter threshold",
            "placement threshold",
        ] {
            assert!(text.contains(tag), "missing {tag}");
        }
    }
}
