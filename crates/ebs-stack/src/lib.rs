//! # ebs-stack — a discrete-event simulator of the EBS data path
//!
//! The paper measures a production Elastic Block Storage stack; this crate
//! is the substitute substrate (DESIGN.md §2): a simulator of the full IO
//! path of Figure 1, from the VM's queue pair down to the ChunkServer's
//! SSDs, with the same structural pieces the paper's analyses depend on:
//!
//! * **[`hypervisor`]** — polling worker threads, static round-robin QP→WT
//!   binding ("single-WT hosting"), and single-server queueing per WT.
//! * **[`throttle_gate`]** — the per-VD dual token bucket (throughput +
//!   IOPS caps) of §5.
//! * **[`latency`]** — per-component latency models for the five stages
//!   DiTing reports.
//! * **[`segment`]** — the mutable segment → BlockServer placement that the
//!   inter-BS balancer (§6) migrates.
//! * **[`route`]** — the precomputed per-event routing table
//!   ([`route::RoutePlan`]), shareable across simulation runs.
//! * **[`sim`]** — [`sim::StackSim`] and the resumable
//!   [`sim::SimSession`], which route a sampled IO stream through all of
//!   the above in one per-event pass and emit one five-stage latency per
//!   IO. The events, their [`route::RoutePlan`] and that latency column,
//!   row for row, are this reproduction of the paper's DiTing trace data.
//!
//! The §2.2 BlockServer prefetcher and ChunkServer garbage collection are
//! not modelled: the 1/3200-sampled stream never has the sequential-read
//! runs that arm the former nor the overwrite volume that triggers the
//! latter (DESIGN.md §2).
//!
//! ```
//! use ebs_stack::sim::{StackConfig, StackSim};
//! use ebs_workload::{generate, WorkloadConfig};
//!
//! let ds = generate(&WorkloadConfig::quick(1)).unwrap();
//! let sim = StackSim::new(&ds.fleet, StackConfig::default());
//! let out = sim.run(&ds.events).unwrap();
//! assert_eq!(out.lat.len(), ds.events.len());
//! // Row i of the plan holds the stack entities event i passed through.
//! let plan = sim.plan(&ds.events).unwrap();
//! assert_eq!(plan.len(), out.lat.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hypervisor;
pub mod latency;
pub mod network;
pub mod route;
pub mod segment;
pub mod sim;
pub mod throttle_gate;

pub use hypervisor::Binding;
pub use latency::LatencyModel;
pub use network::{FabricModel, Link};
pub use route::{Route, RoutePlan};
pub use segment::{Migration, SegmentMap};
pub use sim::{SimOutput, SimSession, SimStats, StackConfig, StackSim};
pub use throttle_gate::{TokenBucket, VdGate};
