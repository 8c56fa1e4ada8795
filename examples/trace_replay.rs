//! Replay a trace through the stack: export the synthetic dataset's
//! sampled IO stream to CSV, read it back (the same path a *real* trace
//! would take), and route it through the simulator.
//!
//! ```sh
//! cargo run --example trace_replay
//! ```
#![allow(clippy::print_stdout, reason = "examples print results")]

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
    let (stats, traces) = StackSim::new(&ds.fleet, cfg)
        .run_traced(&events)
        .expect("time-sorted");
    println!(
        "replayed {} IOs: mean latency {:.0} us",
        stats.ios, stats.mean_latency_us
    );

    // 4. The five-stage trace records are ready for any of the paper's
    //    analyses — here, the write-latency breakdown by stage.
    let writes: Vec<_> = traces
        .records()
        .iter()
        .filter(|r| r.op.is_write())
        .collect();
    let mean = |f: &dyn Fn(&ebs::core::trace::TraceRecord) -> f64| -> f64 {
        writes.iter().map(|r| f(r)).sum::<f64>() / writes.len() as f64
    };
    println!("write-latency breakdown (mean us):");
    println!("  compute      {:8.1}", mean(&|r| r.lat.compute_us));
    println!("  frontend net {:8.1}", mean(&|r| r.lat.frontend_us));
    println!("  block server {:8.1}", mean(&|r| r.lat.block_server_us));
    println!("  backend net  {:8.1}", mean(&|r| r.lat.backend_us));
    println!("  chunk server {:8.1}", mean(&|r| r.lat.chunk_server_us));
}
