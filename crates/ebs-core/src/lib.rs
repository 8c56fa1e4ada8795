//! # ebs-core — shared domain model for the `ebs-skew` workspace
//!
//! This crate defines the vocabulary that every other crate in the workspace
//! speaks: typed identifiers for the entities of an Elastic Block Storage
//! (EBS) deployment, the fleet topology that connects them, IO events, the
//! two datasets the paper's tracer produces (per-IO *trace* data and
//! second-level *metric* aggregates), virtual-disk specifications, the
//! application taxonomy of Table 5, simulated time, byte/throughput units,
//! and deterministic RNG stream derivation.
//!
//! The entity hierarchy mirrors Figure 1 of the paper:
//!
//! ```text
//! compute side                       storage side
//! ------------                       ------------
//! DataCenter                         DataCenter
//!   └─ ComputeNode (CN)                └─ StorageNode (SN)
//!        ├─ WorkerThread (WT)               └─ BlockServer (BS)
//!        └─ VirtualMachine (VM)                  └─ Segment (32 GiB stripe)
//!             └─ VirtualDisk (VD)
//!                  └─ QueuePair (QP)
//! ```
//!
//! A `Fleet` value owns one consistent snapshot of this hierarchy, including
//! the round-robin QP→WT binding the production hypervisor would have
//! produced and the initial segment→BlockServer placement.
//!
//! Everything here is plain data with cheap accessors; the algorithms that
//! operate on it live in the sibling crates (`ebs-workload`, `ebs-stack`,
//! `ebs-analysis`, `ebs-balance`, `ebs-predict`, `ebs-throttle`,
//! `ebs-cache`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Lets the test-only reference series (`tests/oracle/`) name this crate by
// its public paths from inside the crate's own unit tests.
#[cfg(test)]
extern crate self as ebs_core;

pub mod apps;
pub mod error;
pub mod hash;
pub mod ids;
pub mod index;
pub mod io;
pub mod metric;
pub mod parallel;
pub mod rng;
pub mod spec;
pub mod tempdir;
pub mod time;
pub mod topology;
pub mod trace;
pub mod units;

pub use apps::AppClass;
pub use error::EbsError;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{BsId, CnId, DcId, IdVec, QpId, SegId, SnId, UserId, VdId, VmId, WtId};
pub use index::EventIndex;
pub use io::{IoEvent, Op};
pub use metric::{ComputeMetrics, Flow, Measure, RwFlow, Series, SeriesSample, StorageMetrics};
pub use parallel::{par_jobs, par_map_deterministic};
pub use rng::RngFactory;
pub use spec::VdSpec;
pub use spec::VdTier;
pub use tempdir::TempDir;
pub use time::TickSpec;
pub use topology::Fleet;
pub use trace::StageLatency;

/// Convenient glob-import surface: `use ebs_core::prelude::*;`.
pub mod prelude {
    pub use crate::apps::AppClass;
    pub use crate::hash::{FxBuildHasher, FxHashMap, FxHashSet};
    pub use crate::ids::{BsId, CnId, DcId, IdVec, QpId, SegId, SnId, UserId, VdId, VmId, WtId};
    pub use crate::index::EventIndex;
    pub use crate::io::{IoEvent, Op};
    pub use crate::metric::{
        ComputeMetrics, Flow, Measure, RwFlow, Series, SeriesSample, StorageMetrics,
    };
    pub use crate::rng::RngFactory;
    pub use crate::spec::VdSpec;
    pub use crate::spec::VdTier;
    pub use crate::time::TickSpec;
    pub use crate::topology::Fleet;
    pub use crate::trace::StageLatency;
    pub use crate::units::{GIB, KIB, MIB, TIB};
}
