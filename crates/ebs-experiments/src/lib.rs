//! # ebs-experiments — the reproduction harness
//!
//! One module per table/figure of the paper's evaluation. The driver
//! ([`driver::SECTIONS`]) lists them as one section table over shared,
//! lazily built inputs; `bin/all` generates the canonical dataset
//! ([`scenario`]) and prints every section, and `all --only <id>` prints
//! one:
//!
//! | Invocation | Paper artifact |
//! |------------|----------------|
//! | `all --only table2` | Table 2 — dataset summary |
//! | `all --only table3` | Table 3 — CCR / P2A at four aggregation levels × 3 DCs |
//! | `all --only table4` | Table 4 — skewness by application class |
//! | `all --only fig2` | Figure 2 — hypervisor load balancing & rebinding |
//! | `all --only fig3` | Figure 3 — throttle, RAR, limited lending |
//! | `all --only fig4` | Figure 4 — segment migration & traffic prediction |
//! | `all --only fig5` | Figure 5 — balanced write, skewed read |
//! | `all --only fig6` | Figure 6 — LBA hotspots |
//! | `all --only fig7` | Figure 7 — cache algorithms, location, utilization |
//! | `all --only ablations` | design-choice sweeps DESIGN.md calls out |
//! | `all --only extensions` | the fixes the paper proposes: S6 ARIMA importer, prediction-guided lending, hybrid CN+BS cache |
//! | `all` | everything above in one run |
//! | `gendata` | export the synthetic dataset as CSV |
//! | `fleetscale` | bounded-memory million-VD sharded run + skew report |
//!
//! Pass `--quick` or `--medium` to any binary for smaller fleets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod driver;
pub mod extensions;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fleetscale;
pub mod scenario;
pub mod table2;
pub mod table3;
pub mod table4;

pub use scenario::{
    dataset, dataset_or_replay, scale_from_args, shards_from_args, stack_latency,
    trace_path_from_args, Scale, EXPERIMENT_SEED,
};
