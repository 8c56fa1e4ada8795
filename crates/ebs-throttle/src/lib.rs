//! # ebs-throttle — the hypervisor throttle study (§5)
//!
//! Per-VD throughput/IOPS caps protect SLOs but waste headroom: when one
//! disk of a VM throttles, its siblings almost always have spare cap. This
//! crate reproduces the whole §5 pipeline:
//!
//! * [`scenario`] — extract the poolable groups (multi-VD VMs and
//!   same-tenant multi-VM nodes) with per-tick demand and caps;
//! * [`rar`] — the Resource Available Rate of Equation 1 and the
//!   write/read attribution of throttles (Figure 3(b/c));
//! * [`reduction`] — the theoretical reduction rate of Equation 3
//!   (Figure 3(d/e));
//! * [`lending`] — the runtime limited-lending mechanism of Algorithm 2
//!   and its gain distribution, including the backfire case where a lender
//!   bursts after lending (Figure 3(f/g));
//! * [`predictive`] — the fix §5.3 proposes: lending guided by per-lender
//!   traffic forecasts, which shrinks the backfire tail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lending;
pub mod predictive;
pub mod rar;
pub mod reduction;
pub mod scenario;

pub use lending::{lending_gains, simulate_lending, LendingConfig, LendingOutcome};
pub use predictive::{predictive_lending_gains, simulate_predictive_lending};
pub use rar::{rar_samples, throttle_event_count, throttled_wr_ratios};
pub use reduction::reduction_rates;
pub use scenario::{build_groups, CapDim, GroupKind, ThrottleGroup, VdSeries};
