//! # ebs-workload — calibrated synthetic EBS dataset generator
//!
//! The paper's datasets come from a production cloud and cannot be
//! redistributed at full fidelity; this crate is the substitution (see
//! DESIGN.md): a generator that reproduces the *statistical structure* the
//! paper measures, so every downstream analysis — load balancing, throttle,
//! segment migration, caching — runs against traffic with the right shape.
//!
//! The generative model, bottom to top:
//!
//! * **[`fleet`]** — tenants with Zipf-skewed VM ownership; compute nodes
//!   with 4–16 worker threads (some bare-metal); VMs tagged with one of the
//!   six application classes of Table 5; VDs whose count/tier/capacity
//!   follow per-class distributions.
//! * **[`profile`]** — per-application parameters calibrated to Table 4:
//!   BigData moves the most traffic with the least skew, Docker is the most
//!   skewed, reads are burstier and more concentrated than writes.
//! * **[`spatial`]** — lognormal per-VM intensities (heavy spatial tail),
//!   Zipf VM→VD and VD→QP weight splits.
//! * **[`dist::onoff`]** — heavy-tailed ON/OFF temporal envelopes (the
//!   source of the paper's extreme P2A values).
//! * **[`lba`]** — per-VD hot regions: sequential write-dominant hottest
//!   blocks with ≈50 % hot rate (§7).
//! * **[`generator`]** — combines all of the above into the two datasets of
//!   §2.3: full-population *metric* data (per-QP and per-segment tick
//!   series) and 1/3200-sampled *trace* events.
//!
//! ```
//! use ebs_workload::{generate, WorkloadConfig};
//!
//! let ds = generate(&WorkloadConfig::quick(7)).unwrap();
//! assert!(ds.trace_count() > 0);
//! let (read, write) = ds.total_bytes();
//! assert!(write > read); // EBS traffic is write-dominant in volume
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod config;
pub mod dataset;
pub mod dist;
pub mod export;
pub mod fleet;
pub mod generator;
pub mod lba;
pub mod profile;
pub mod sampler;
// `shard` and `store` are total modules (ebs-lint rule D3): they decode
// external bytes, so every failure must be a typed error, never a panic.
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod shard;
pub mod spatial;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod store;

pub use config::WorkloadConfig;
pub use dataset::Dataset;
pub use fleet::{build_fleet, summarize, FleetSummary};
pub use generator::{generate, generate_for_fleet};
pub use lba::LbaModel;
pub use profile::AppProfile;
pub use shard::{
    generate_sharded, generate_sharded_plan, load_manifest, load_sharded_events, replay_summary,
    resolve_shards, ShardPlan, SHARDS_ENV,
};
pub use spatial::{build_plan, TrafficPlan};
pub use store::spec_rows;
