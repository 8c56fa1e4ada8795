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
//! * **[`diting`]** — the tracer that assembles the paper's per-IO trace
//!   records (and exports CSV).
//! * **[`route`]** — the precomputed per-event routing table
//!   ([`route::RoutePlan`]) shared across simulation runs and sweeps.
//! * **[`sim`]** — [`sim::StackSim`], which routes a sampled IO stream
//!   through all of the above as a staged columnar pipeline, and
//!   [`sim::StackSweep`] for config sweeps that share routing and RNG
//!   columns.
//! * **[`reference`]** — the preserved event-at-a-time simulator, the
//!   differential oracle the staged pipeline is pinned against.
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
//! let mut sim = StackSim::new(&ds.fleet, StackConfig::default());
//! let out = sim.run(&ds.events).unwrap();
//! assert_eq!(out.traces.len(), ds.events.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diting;
pub mod hypervisor;
pub mod latency;
pub mod network;
pub mod reference;
pub mod replication;
pub mod route;
pub mod segment;
pub mod sim;
pub mod throttle_gate;

pub use hypervisor::Binding;
pub use latency::LatencyModel;
pub use network::{FabricModel, Link};
pub use reference::ReferenceSim;
pub use replication::ReplicationPolicy;
pub use route::RoutePlan;
pub use segment::{Migration, SegmentMap};
pub use sim::{SimOutput, SimSession, SimStats, StackConfig, StackSim, StackSweep};
pub use throttle_gate::{TokenBucket, VdGate};
