//! Quickstart: generate a synthetic EBS dataset, route it through the
//! stack simulator, and print the headline skewness statistics.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ebs::analysis::aggregate::{rollup_compute, ComputeLevel};
use ebs::analysis::{ccr, median, p2a};
use ebs::core::metric::Measure;
use ebs::core::units::format_bytes;
use ebs::stack::sim::{StackConfig, StackSim};
use ebs::workload::{generate, summarize, WorkloadConfig};

fn main() {
    // A small single-DC fleet over 30 simulated minutes.
    let config = WorkloadConfig::quick(42);
    let ds = generate(&config).expect("config validates");

    let s = summarize(&ds.fleet);
    println!(
        "fleet: {} users, {} VMs, {} VDs, {} QPs",
        s.users, s.vms, s.vds, s.qps
    );

    let (read, write) = ds.total_bytes();
    println!(
        "traffic: {} read, {} write ({} sampled traces)",
        format_bytes(read),
        format_bytes(write),
        ds.trace_count()
    );

    // Spatial skewness: how much of the read traffic do the top 1% of VMs carry?
    let vm_reads = rollup_compute(
        &ds.fleet,
        &ds.compute,
        ComputeLevel::Vm,
        Measure::ReadBytes,
        |_| true,
    );
    let totals = vm_reads.totals();
    if let Some(c) = ccr(&totals, 0.01) {
        println!("VM-level 1%-CCR (read): {:.1}%", c * 100.0);
    }

    // Temporal skewness: the median VM's peak-to-average ratio.
    let p2as: Vec<f64> = vm_reads.series.iter().filter_map(|(_, s)| p2a(s)).collect();
    if let Some(m) = median(&p2as) {
        println!("median VM read P2A: {m:.1}");
    }

    // Route the sampled IOs through the full stack: hypervisor worker
    // threads, networks, BlockServer, ChunkServer. (Throttling is studied
    // separately — see the throttle_lending example — so the latency here
    // is the raw device path.)
    let cfg = StackConfig {
        apply_throttle: false,
        ..StackConfig::default()
    };
    let out = StackSim::new(&ds.fleet, cfg)
        .run(&ds.events)
        .expect("events are time-sorted");
    println!(
        "stack: {} IOs routed, mean end-to-end latency {:.0} us",
        out.stats.ios, out.stats.mean_latency_us
    );
}
