//! Throttle headroom and limited lending (§5 of the paper): measure how
//! much cap headroom exists when a disk throttles, then simulate
//! Algorithm 2's limited lending at several lending rates.
//!
//! ```sh
//! cargo run --example throttle_lending
//! ```
#![allow(clippy::print_stdout, reason = "examples print results")]

use ebs::analysis::median;
use ebs::throttle::lending::{lending_gains, LendingConfig};
use ebs::throttle::rar::rar_samples;
use ebs::throttle::reduction::reduction_rates;
use ebs::throttle::scenario::{build_groups, CapDim};
use ebs::workload::{generate, WorkloadConfig};

fn main() {
    let ds = generate(&WorkloadConfig::quick(23)).expect("config validates");
    let groups = build_groups(&ds.fleet, &ds.compute, CapDim::Throughput);
    println!(
        "{} poolable groups (multi-VD VMs and multi-VM nodes)",
        groups.len()
    );

    // How much headroom exists at throttle instants?
    let rar: Vec<f64> = groups.iter().flat_map(rar_samples).collect();
    match median(&rar) {
        Some(m) => println!(
            "median resource-available rate under throttling: {:.0}% ({} samples)",
            m * 100.0,
            rar.len()
        ),
        None => println!("no throttle events at this scale — try a larger fleet"),
    }

    // Theoretical reduction rate and realistic lending gain per p.
    println!("\np    median RR   positive-gain%   median gain");
    for p in [0.2, 0.4, 0.6, 0.8] {
        let rr: Vec<f64> = groups.iter().flat_map(|g| reduction_rates(g, p)).collect();
        let gains = lending_gains(&groups, &LendingConfig { p });
        let pos = if gains.is_empty() {
            f64::NAN
        } else {
            gains.iter().filter(|&&g| g > 0.0).count() as f64 / gains.len() as f64
        };
        println!(
            "{p:.1}  {:>9.3}  {:>14.1}  {:>12.3}",
            median(&rr).unwrap_or(f64::NAN),
            pos * 100.0,
            median(&gains).unwrap_or(f64::NAN)
        );
    }
    println!("\n(RR < 1: lending would shorten throttles; gain < 0: lending backfired)");
}
