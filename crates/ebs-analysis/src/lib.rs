//! # ebs-analysis — statistics kernels for the skewness study
//!
//! The paper quantifies traffic skewness with a small set of statistics that
//! recur in every section; this crate implements them once:
//!
//! * **CCR** — Cumulative Contribution Rate: share of total traffic carried
//!   by the top *x* % of entities (spatial skewness, Table 3/4).
//! * **P2A** — Peak-to-Average ratio of a time series (temporal skewness).
//! * **Normalized CoV** — coefficient of variation scaled into `(0, 1]`
//!   (inter-entity skewness, §4, §6.2).
//! * **wr_ratio** — normalized write-to-read ratio `(W−R)/(W+R)` (§5.2, §7.2).
//! * Quantiles, empirical CDFs, histograms, and MSE.
//!
//! [`aggregate`] rolls the per-QP / per-segment metric data up to any level
//! of the hierarchy (WT, VD, VM, CN, user; BS, SN), which is how every table
//! in the paper is produced, and [`table`] renders aligned text tables for
//! the experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod batch;
pub mod ccr;
pub mod cdf;
pub mod cov;
pub mod histogram;
pub mod mse;
pub mod p2a;
pub mod quantile;
pub mod table;
pub mod wr_ratio;

pub use aggregate::{ComputeLevel, StorageLevel};
pub use batch::{
    count_values, keyed_sums, scatter_add, tick_sums, weighted_cdf_at, weighted_quantile,
};
pub use ccr::ccr;
pub use cdf::Cdf;
pub use cov::{cov, normalized_cov};
pub use histogram::Histogram;
pub use mse::mse;
pub use p2a::p2a;
pub use quantile::{median, quantile};
pub use table::Table;
pub use wr_ratio::wr_ratio;
