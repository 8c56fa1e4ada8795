//! `ebs-serve`: an online control plane driving the stack simulator in
//! epoch time (DESIGN.md §17).
//!
//! The offline pipeline answers "what happened over the whole window";
//! this crate answers "what would a controller *do*, and when". It slices
//! a trace (generated live, or replayed from a store of either layout
//! through [`ebs_workload::load_events`]) into fixed virtual-time epochs,
//! advances the resumable [`ebs_stack::SimSession`] one epoch at a time,
//! and lets online [`Policy`] implementations — adapted from the paper's
//! four extension mechanisms — observe a sliding window of per-epoch
//! stats and steer the next epoch: rebinding queue pairs, lending
//! throttle caps, migrating segments, resizing the serve-side cache.
//!
//! Everything the loop emits is seed-deterministic and invariant to
//! thread count and shard count; with only no-op policies a serve run's
//! aggregate equals the batch simulation bit-for-bit.

pub mod epoch;
pub mod policies;
pub mod policy;
pub mod serve;
pub mod stats;
pub mod window;

pub use epoch::{EpochCuts, EpochSlice, EpochSpec};
pub use policies::{OnlineBalancer, OnlineCacheTuner, OnlineLender, OnlineRebinder};
pub use policy::{Action, NoopPolicy, Policy, WindowView};
pub use serve::{serve, EpochReport, ServeConfig, ServeReport};
pub use stats::{fold_window, AppliedActions, CacheEpoch, EpochStats, WindowMetrics};
pub use window::SlidingWindow;
