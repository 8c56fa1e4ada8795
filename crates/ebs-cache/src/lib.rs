//! # ebs-cache — the §7 cache study
//!
//! The paper finds persistent LBA-level hotspots under the VM page cache
//! and asks where and how to cache in the EBS stack. This crate holds the
//! full toolkit:
//!
//! * [`mod@hottest_block`] — find each VD's hottest block at 64 MiB–2 GiB
//!   granularities, its access rate, write/read mix, and ≈50 % *hot rate*
//!   (Figure 6);
//! * [`fifo`] / [`lru`] / [`frozen`] — the three policies of Figure 7(a),
//!   behind the [`policy::CachePolicy`] trait;
//! * [`mod@simulate`] — trace-driven, 4 KiB-page hit-ratio simulation with
//!   caches sized to the hottest block;
//! * [`location`] — CN-cache vs BS-cache latency gains over the stack
//!   simulator's five-stage trace latencies (Figure 7(b/c));
//! * [`utilization`] — per-node cacheable-VD dispersion, the paper's
//!   provisioning-cost argument for the BS side (Figure 7(d));
//! * [`hybrid`] — the deployment §7.3.2 closes on: a few CN-cache slots
//!   per node for the hottest disks, BS-cache as the backup tier.
//!
//! The hot kernels are O(1) per access (slab-list LRU, ring FIFO) and all
//! hot-path maps use the deterministic fast hasher from
//! [`ebs_core::hash`]; event streams are borrowed from the shared
//! [`ebs_core::EventIndex`], never copied. The pre-rewrite kernels they
//! replaced live on as test-only oracles (`tests/oracle/reference.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fifo;
pub mod frozen;
pub mod hottest_block;
pub mod hybrid;
pub mod location;
pub mod lru;
pub mod policy;
pub mod simulate;
pub mod utilization;

/// The pre-rewrite LRU/FIFO/hot-rate kernels: the differential oracle for
/// the tests.
#[cfg(test)]
#[path = "../tests/oracle/reference.rs"]
mod reference;

pub use fifo::FifoCache;
pub use frozen::FrozenCache;
pub use hottest_block::{hot_rate, hottest_block, HottestBlock, BLOCK_SIZES};
pub use hybrid::{assign_sites, hybrid_latency_gain, HybridConfig};
pub use location::{hit_oracle, latency_gain, CacheSite, LatencyGain};
pub use lru::LruCache;
pub use policy::CachePolicy;
pub use simulate::{simulate, Algorithm, HitStats};
pub use utilization::{per_bs_counts, per_cn_counts, CACHEABLE_THRESHOLD};
