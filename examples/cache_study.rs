//! Cache study on one virtual disk: find its hottest block, compare
//! FIFO / LRU / FrozenHot hit ratios, and check where a frozen cache
//! saves the most latency (§7 of the paper).
//!
//! ```sh
//! cargo run --example cache_study
//! ```
#![allow(clippy::print_stdout, reason = "examples print results")]

use ebs::cache::hottest_block::{hot_rate, hottest_block, HOT_RATE_WINDOW_US};
use ebs::cache::location::{hit_oracle, latency_gain, CacheSite};
use ebs::cache::simulate::sweep_policies;
use ebs::core::ids::VdId;
use ebs::core::io::Op;
use ebs::core::units::format_bytes;
use ebs::stack::sim::{StackConfig, StackSim};
use ebs::workload::{generate, WorkloadConfig};
use ebs_core::hash::FxHashMap;

fn main() {
    let ds = generate(&WorkloadConfig::quick(7)).expect("config validates");
    // Per-VD views come from the dataset's shared event index (built once,
    // no event copies).
    let by_vd = ds.index().vd_slices();

    // The busiest disk in the sample.
    let (vd_idx, &events) = by_vd
        .iter()
        .enumerate()
        .max_by_key(|(_, evs)| evs.len())
        .expect("non-empty fleet");
    let vd = VdId::from_index(vd_idx);
    println!("busiest disk: {vd} with {} sampled IOs", events.len());

    // Its hottest 256 MiB block.
    let block_size = 256u64 << 20;
    let hb = hottest_block(vd, events, block_size).expect("disk has traffic");
    println!(
        "hottest {} block: #{} absorbing {:.1}% of accesses (wr_ratio {:+.2})",
        format_bytes(block_size as f64),
        hb.block,
        hb.access_rate * 100.0,
        hb.wr_ratio().unwrap_or(0.0),
    );
    if let Some(hr) = hot_rate(events, &hb, HOT_RATE_WINDOW_US, 2) {
        println!("hot rate over 5-minute windows: {:.0}%", hr * 100.0);
    }

    // Hit ratios of the three policies, cache sized to the block.
    for (algo, stats) in sweep_policies(&hb, events) {
        println!(
            "{:<9} hit ratio: {:.1}%",
            algo.label(),
            stats.ratio().unwrap_or(0.0) * 100.0
        );
    }

    // Where should the cache live? Compare CN- and BS-cache latency gains
    // over stack-simulated five-stage latencies.
    let cfg = StackConfig {
        apply_throttle: false,
        ..StackConfig::default()
    };
    let lat = StackSim::new(&ds.fleet, cfg)
        .run(&ds.events)
        .expect("sorted events")
        .lat;
    let hot: FxHashMap<_, _> = [(vd, hb)].into_iter().collect();
    let hits = hit_oracle(&hot, &ds.events, 0.0);
    for site in CacheSite::ALL {
        if let Some(g) = latency_gain(&ds.events, &lat, &hits, site, Op::Write) {
            println!(
                "{}: write latency gain p50 {:.2} (p99 {:.2}) — lower is better",
                site.label(),
                g.p50,
                g.p99
            );
        }
    }
}
