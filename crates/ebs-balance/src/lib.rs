//! # ebs-balance — the paper's load-balancing algorithms
//!
//! Two balancing layers are studied:
//!
//! * **Hypervisor (§4)** — [`wt_rebind`] simulates the periodic QP→WT
//!   rebinding of §4.3 (10 ms periods, 1.2× trigger, hottest/coldest swap)
//!   and reproduces its failure mode under sub-period bursts.
//! * **Storage cluster (§6)** — [`bs_balancer`] is Algorithm 1 (the
//!   HDFS/Ceph-style periodic segment balancer) with the five importer-
//!   selection strategies of [`importer`]; [`migration`] detects the
//!   frequent-migration pathology of §6.1.1; [`read_write`] compares
//!   Write-Only against Write-then-Read migration (§6.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bs_balancer;
pub mod importer;
pub mod migration;
pub mod read_write;
pub mod wt_rebind;

pub use bs_balancer::{run_balancer, BalancerConfig, BalancerRun, PeriodTraffic};
pub use importer::ImporterSelect;
pub use migration::{frequent_migration_proportion, migration_intervals};
pub use read_write::{run_scheme, MigrationScheme};
pub use wt_rebind::{simulate_fleet, simulate_node, RebindConfig, RebindOutcome};
