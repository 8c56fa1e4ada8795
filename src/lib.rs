//! # ebs — facade crate for the `ebs-skew` workspace
//!
//! A production-quality Rust reproduction of *"Hey Hey, My My, Skewness Is
//! Here to Stay: Challenges and Opportunities in Cloud Block Store
//! Traffic"* (EuroSys '25). This crate simply re-exports the workspace
//! members under short names so examples and downstream users can depend
//! on one crate:
//!
//! ```
//! use ebs::workload::{generate, WorkloadConfig};
//! use ebs::stack::sim::{StackConfig, StackSim};
//!
//! let ds = generate(&WorkloadConfig::quick(7)).unwrap();
//! let sim = StackSim::new(&ds.fleet, StackConfig::default());
//! let out = sim.run(&ds.events).unwrap();
//! assert_eq!(out.lat.len(), ds.events.len());
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory and substitution argument, and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![forbid(unsafe_code)]

pub use ebs_analysis as analysis;
pub use ebs_balance as balance;
pub use ebs_cache as cache;
pub use ebs_core as core;
pub use ebs_experiments as experiments;
pub use ebs_obs as obs;
pub use ebs_predict as predict;
pub use ebs_serve as serve;
pub use ebs_stack as stack;
pub use ebs_store as store;
pub use ebs_throttle as throttle;
pub use ebs_workload as workload;
