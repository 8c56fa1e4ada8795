//! Tune the inter-BS segment balancer: compare the five importer-selection
//! strategies (§6.1 of the paper) and the effect of the exporter threshold
//! on migration churn.
//!
//! ```sh
//! cargo run --example balancer_tuning
//! ```
#![allow(clippy::print_stdout, reason = "examples print results")]

use ebs::balance::bs_balancer::{run_balancer, BalancerConfig};
use ebs::balance::importer::ImporterSelect;
use ebs::balance::migration::{frequent_migration_proportion, segment_residency_intervals};
use ebs::core::ids::DcId;
use ebs::workload::{generate, WorkloadConfig};

fn main() {
    let ds = generate(&WorkloadConfig::quick(11)).expect("config validates");
    let dc = DcId(0);

    println!("strategy         migrations  frequent%  mean residency");
    for strategy in ImporterSelect::ALL {
        let cfg = BalancerConfig {
            strategy,
            ..BalancerConfig::default()
        };
        let run = run_balancer(&ds.fleet, &ds.storage, dc, &cfg);
        let freq = frequent_migration_proportion(run.seg_map.log(), 1);
        let residency = segment_residency_intervals(run.seg_map.log(), run.periods);
        let mean = if residency.is_empty() {
            0.0
        } else {
            residency.iter().sum::<f64>() / residency.len() as f64
        };
        println!(
            "{:<16} {:>10}  {:>8.1}  {:>14.3}",
            strategy.label(),
            run.migrations,
            freq * 100.0,
            mean
        );
    }

    println!("\nexporter threshold sweep (S2 importer):");
    for ratio in [1.1, 1.2, 1.5, 2.0] {
        let cfg = BalancerConfig {
            exporter_ratio: ratio,
            ..BalancerConfig::default()
        };
        let run = run_balancer(&ds.fleet, &ds.storage, dc, &cfg);
        let mean_cov = if run.cov_series.is_empty() {
            0.0
        } else {
            run.cov_series.iter().sum::<f64>() / run.cov_series.len() as f64
        };
        println!(
            "  {ratio:.1}x avg -> {:>5} migrations, mean period CoV {mean_cov:.3}",
            run.migrations
        );
    }
}
