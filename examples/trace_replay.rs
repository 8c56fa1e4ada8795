//! Replay a trace through the stack: export the synthetic dataset's
//! sampled IO stream to CSV, read it back (the same path a *real* trace
//! would take), and route it through the simulator.
//!
//! ```sh
//! cargo run --example trace_replay
//! ```
#![allow(clippy::print_stdout, reason = "examples print results")]

use ebs::core::trace::StageLatency;
use ebs::stack::sim::{StackConfig, StackSim};
use ebs::workload::export::{read_events_csv, write_events_csv};
use ebs::workload::{generate, WorkloadConfig};
use std::io::BufReader;

fn main() {
    // 1. Generate and export — in a real deployment this CSV would come
    //    from your own tracing infrastructure.
    let ds = generate(&WorkloadConfig::quick(99)).expect("config validates");
    let mut csv = Vec::new();
    write_events_csv(&ds, &mut csv).expect("in-memory write");
    println!(
        "exported {} sampled IOs ({} bytes of CSV)",
        ds.trace_count(),
        csv.len()
    );

    // 2. Import: the parser only needs the six block-layer columns.
    let events = read_events_csv(BufReader::new(csv.as_slice())).expect("well-formed CSV");
    assert_eq!(events.len(), ds.events.len());

    // 3. Replay through the full stack. The fleet supplies the topology;
    //    the events supply the traffic.
    let cfg = StackConfig {
        apply_throttle: false,
        ..StackConfig::default()
    };
    let out = StackSim::new(&ds.fleet, cfg)
        .run(&events)
        .expect("time-sorted");
    println!(
        "replayed {} IOs: mean latency {:.0} us",
        out.stats.ios, out.stats.mean_latency_us
    );

    // 4. The five-stage latency column, row for row with the events, is
    //    ready for any of the paper's analyses — here, the write-latency
    //    breakdown by stage.
    let writes: Vec<&StageLatency> = events
        .iter()
        .zip(&out.lat)
        .filter(|(ev, _)| ev.op.is_write())
        .map(|(_, lat)| lat)
        .collect();
    let mean = |f: &dyn Fn(&StageLatency) -> f64| -> f64 {
        writes.iter().map(|lat| f(lat)).sum::<f64>() / writes.len() as f64
    };
    println!("write-latency breakdown (mean us):");
    println!("  compute      {:8.1}", mean(&|lat| lat.compute_us));
    println!("  frontend net {:8.1}", mean(&|lat| lat.frontend_us));
    println!("  block server {:8.1}", mean(&|lat| lat.block_server_us));
    println!("  backend net  {:8.1}", mean(&|lat| lat.backend_us));
    println!("  chunk server {:8.1}", mean(&|lat| lat.chunk_server_us));
}
