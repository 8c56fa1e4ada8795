//! The epoch-time serve loop: stream events through the resumable stack
//! session, fold per-epoch stats, let policies act, emit rolling metrics.
//!
//! One [`serve`] call is the whole control-plane lifetime. Per epoch it
//! (1) routes the epoch's events under the *current* binding and segment
//! placement, (2) advances the persistent [`SimSession`] over them —
//! carrying throttle-gate levels, link rates, queue clocks, and the latency
//! RNG across the cut, so a run under no-op policies is bit-identical to
//! one batch [`ebs_stack::sim::StackSim::run_planned`] call — (3) folds the epoch into
//! [`EpochStats`], pushes the sliding window, and (4) applies whatever
//! [`Action`]s the policies emit *before* the next epoch is simulated.
//!
//! Determinism: every epoch cut, fold, and policy decision is pure
//! arithmetic over the event stream and the seed-pinned session, so serve
//! output is invariant to thread count, shard count, pacing mode, and
//! `EBS_OBS`. The optional pacing sleep only slows wall-clock delivery —
//! it reads no clock and moves no output byte.

use std::fmt::Write as _;

use ebs_cache::lru::LruCache;
use ebs_cache::policy::{pages_of, CachePolicy};
use ebs_core::error::EbsError;
use ebs_core::io::IoEvent;
use ebs_core::topology::Fleet;
use ebs_core::trace::TraceRecord;
use ebs_stack::diting::assemble;
use ebs_stack::hypervisor::Binding;
use ebs_stack::route::RoutePlan;
use ebs_stack::segment::SegmentMap;
use ebs_stack::sim::{SimSession, SimStats, StackConfig};

use crate::epoch::EpochSpec;
use crate::policy::{Action, Policy, WindowView};
use crate::stats::{fold_window, AppliedActions, CacheEpoch, EpochStats, WindowMetrics};
use crate::window::SlidingWindow;

/// How the serve loop advances virtual time relative to wall time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pacing {
    /// Run epochs back-to-back (tests, CI, batch analysis).
    FastForward,
    /// Sleep `epoch_secs / speedup` wall seconds between epochs, emulating
    /// a live control plane at `speedup ×` accelerated virtual time.
    Paced {
        /// Virtual-to-wall time acceleration (must be positive).
        speedup: f64,
    },
}

/// Serve-loop configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Virtual-time epoch length.
    pub epoch: EpochSpec,
    /// Sliding-window length in epochs.
    pub window: usize,
    /// Stack simulator configuration (seed, throttle, latency model…).
    pub stack: StackConfig,
    /// Serve only `[0, duration_us)` of the trace (`None` = everything).
    pub duration_us: Option<u64>,
    /// Wall-clock pacing.
    pub pacing: Pacing,
    /// Run an observational page cache of this many 4 KiB pages.
    pub cache_pages: Option<usize>,
    /// Assemble and keep every per-IO trace record in the report
    /// (differential tests).
    pub collect_traces: bool,
}

impl ServeConfig {
    /// A fast-forward config with a `epoch_secs`-second epoch and
    /// `window`-epoch sliding window over `stack`.
    pub fn fast_forward(
        epoch_secs: f64,
        window: usize,
        stack: StackConfig,
    ) -> Result<Self, EbsError> {
        Ok(Self {
            epoch: EpochSpec::from_secs(epoch_secs)?,
            window,
            stack,
            duration_us: None,
            pacing: Pacing::FastForward,
            cache_pages: None,
            collect_traces: false,
        })
    }
}

/// One epoch's row in the serve report.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: u64,
    /// First microsecond of the epoch.
    pub start_us: u64,
    /// IOs simulated this epoch.
    pub ios: u64,
    /// IOs throttled this epoch.
    pub throttled: u64,
    /// Bytes moved this epoch.
    pub bytes: u64,
    /// Exact in-epoch p99 latency (µs).
    pub p99_us: f64,
    /// Rolling window metrics as of this epoch.
    pub window: WindowMetrics,
    /// Actions applied at this epoch's boundary.
    pub applied: AppliedActions,
}

/// The outcome of a serve run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-epoch rows, in epoch order.
    pub epochs: Vec<EpochReport>,
    /// Aggregate simulator statistics over every served epoch — under
    /// no-op policies, bit-identical to the batch run's [`SimStats`].
    pub aggregate: SimStats,
    /// Every per-IO trace record (only when `collect_traces`).
    pub records: Vec<TraceRecord>,
    /// Events served (events past `duration_us` are not).
    pub consumed: usize,
    /// The per-epoch metrics stream as JSONL, one record per epoch (built
    /// unconditionally; written to disk only under `EBS_OBS`).
    pub metrics_jsonl: String,
}

/// Serve `events` (time-sorted) over `fleet` under `config`, consulting
/// `policies` at every epoch boundary.
pub fn serve(
    fleet: &Fleet,
    config: &ServeConfig,
    events: &[IoEvent],
    policies: &mut [Box<dyn Policy>],
) -> Result<ServeReport, EbsError> {
    let horizon = match config.duration_us {
        Some(d) => d,
        None => events.last().map_or(0, |ev| ev.t_us.saturating_add(1)),
    };
    let count = config.epoch.count_for(horizon);

    let mut session = SimSession::new(fleet, config.stack.clone())?;
    let mut binding = Binding::from_fleet(fleet);
    let mut seg_map = SegmentMap::from_fleet(fleet);
    let mut cache: Option<LruCache> = match config.cache_pages {
        Some(pages) if pages > 0 => Some(LruCache::new(pages)),
        _ => None,
    };

    let mut window: SlidingWindow<EpochStats> = SlidingWindow::new(config.window);
    let mut actions_window: SlidingWindow<AppliedActions> = SlidingWindow::new(config.window);
    let mut report = ServeReport {
        epochs: Vec::with_capacity(usize::try_from(count).unwrap_or(0)),
        aggregate: SimStats::default(),
        records: Vec::new(),
        consumed: 0,
        metrics_jsonl: String::new(),
    };

    let mut cuts = config.epoch.cuts(events, count);
    for slice in cuts.by_ref() {
        // (1) Route under the *current* binding and placement: actions
        // applied at earlier boundaries steer this epoch.
        let plan = RoutePlan::build(fleet, &binding, &seg_map, slice.events)?;
        // (2) Advance the persistent session over the epoch.
        let out = session.step(slice.events, &plan)?;
        // Observational cache, fed in stream order.
        let cache_epoch = cache.as_mut().map(|c| {
            let mut ce = CacheEpoch::default();
            for ev in slice.events {
                for page in pages_of(ev.offset, ev.size) {
                    ce.accesses += 1;
                    if c.access(page, ev.op) {
                        ce.hits += 1;
                    }
                }
            }
            ce
        });
        // (3) Fold the epoch and advance the window.
        let mut stats = EpochStats::fold(
            fleet,
            slice.epoch,
            slice.start_us,
            slice.events,
            &plan,
            &out,
        );
        stats.cache = cache_epoch;
        if config.collect_traces {
            let traces = assemble(fleet, slice.events, &plan, &out)?;
            report.records.extend_from_slice(traces.records());
        }
        let row_seed = (
            stats.sim.ios,
            stats.sim.throttled,
            stats.bytes,
            stats.p99_us,
        );
        window.push(stats);
        // (4) Policies observe, then the controller validates and applies.
        let mut applied = AppliedActions::default();
        {
            let view = WindowView {
                fleet,
                epoch: &config.epoch,
                epochs: window.as_slice(),
                binding: &binding,
                placement: &seg_map,
                cap_scales: session.cap_scales(),
            };
            let mut batch: Vec<Action> = Vec::new();
            for policy in policies.iter_mut() {
                batch.extend(policy.observe(&view));
            }
            for action in batch {
                apply_action(
                    fleet,
                    action,
                    slice.epoch,
                    &mut session,
                    &mut binding,
                    &mut seg_map,
                    &mut cache,
                    &mut applied,
                );
            }
        }
        actions_window.push(applied);
        let metrics = fold_window(window.as_slice(), actions_window.as_slice());
        let newest = window.newest();
        append_jsonl(
            &mut report.metrics_jsonl,
            slice.epoch,
            slice.start_us,
            newest,
            &metrics,
            &applied,
        );
        report.epochs.push(EpochReport {
            epoch: slice.epoch,
            start_us: slice.start_us,
            ios: row_seed.0,
            throttled: row_seed.1,
            bytes: row_seed.2,
            p99_us: row_seed.3,
            window: metrics,
            applied,
        });
        // Pace wall-clock delivery; virtual time is untouched.
        if let Pacing::Paced { speedup } = config.pacing {
            if speedup.is_finite() && speedup > 0.0 {
                let wall_secs = config.epoch.secs() / speedup;
                if wall_secs > 0.0 {
                    std::thread::sleep(std::time::Duration::from_secs_f64(wall_secs.min(60.0)));
                }
            }
        }
    }
    report.consumed = cuts.consumed();
    report.aggregate = session.finish();
    Ok(report)
}

/// Validate and apply one action; invalid actions count as `rejected` and
/// change nothing.
#[allow(clippy::too_many_arguments)]
fn apply_action(
    fleet: &Fleet,
    action: Action,
    epoch: u64,
    session: &mut SimSession<'_>,
    binding: &mut Binding,
    seg_map: &mut SegmentMap,
    cache: &mut Option<LruCache>,
    applied: &mut AppliedActions,
) {
    match action {
        Action::SwapWts { a, b } => {
            let wt_total = fleet.wt_total as usize;
            let valid = a != b
                && a.index() < wt_total
                && b.index() < wt_total
                && fleet.cn_of_wt(a) == fleet.cn_of_wt(b);
            if valid {
                binding.swap_wts(a, b);
                applied.rebinds += 1;
            } else {
                applied.rejected += 1;
            }
        }
        Action::LendCap { vd, scale } => {
            if session.scale_vd_caps(vd, scale) {
                applied.lends += 1;
            } else {
                applied.rejected += 1;
            }
        }
        Action::ReclaimCap { vd } => {
            if session.scale_vd_caps(vd, 1.0) {
                applied.reclaims += 1;
            } else {
                applied.rejected += 1;
            }
        }
        Action::MigrateSegment { seg, to } => {
            let same_dc = seg.index() < fleet.segments.len()
                && fleet
                    .block_servers
                    .get(to)
                    .and_then(|b| fleet.storage_nodes.get(b.sn))
                    .is_some_and(|sn| sn.dc == fleet.dc_of_seg(seg));
            if same_dc && seg_map.home_of(seg) != to {
                let at = u32::try_from(epoch).unwrap_or(u32::MAX);
                seg_map.migrate(fleet, at, seg, to);
                applied.migrations += 1;
            } else {
                applied.rejected += 1;
            }
        }
        Action::ResizeCache { pages } => match cache {
            Some(c) if pages > 0 => {
                // A real resize restarts cold.
                *c = LruCache::new(pages);
                applied.cache_ops += 1;
            }
            _ => applied.rejected += 1,
        },
        Action::FlushCache => match cache {
            Some(c) => {
                *c = LruCache::new(c.capacity_pages());
                applied.cache_ops += 1;
            }
            None => applied.rejected += 1,
        },
    }
}

/// Append one epoch's JSONL metrics record (all-ASCII keys, values from
/// deterministic folds, so the stream is byte-stable across runs).
fn append_jsonl(
    out: &mut String,
    epoch: u64,
    start_us: u64,
    newest: Option<&EpochStats>,
    metrics: &WindowMetrics,
    applied: &AppliedActions,
) {
    let (ios, throttled, bytes, reads, p99) = newest.map_or((0, 0, 0, 0, 0.0), |e| {
        (e.sim.ios, e.sim.throttled, e.bytes, e.reads, e.p99_us)
    });
    let cache = newest.and_then(|e| e.cache);
    let _ = write!(
        out,
        "{{\"epoch\":{epoch},\"start_us\":{start_us},\"ios\":{ios},\
         \"throttled\":{throttled},\"bytes\":{bytes},\"reads\":{reads},\
         \"p99_us\":{p99},\"win_epochs\":{},\"win_ios\":{},\"win_p99_us\":{},\
         \"win_throttle_waste\":{},\"win_migrations\":{},\"win_rebinds\":{},\
         \"win_cache_hit\":{}",
        metrics.epochs,
        metrics.ios,
        metrics.p99_us,
        metrics.throttle_waste,
        metrics.migrations,
        metrics.rebinds,
        metrics.cache_hit,
    );
    if let Some(c) = cache {
        let _ = write!(
            out,
            ",\"cache_accesses\":{},\"cache_hits\":{}",
            c.accesses, c.hits
        );
    }
    let _ = writeln!(
        out,
        ",\"applied\":{{\"rebinds\":{},\"lends\":{},\"reclaims\":{},\
         \"migrations\":{},\"cache_ops\":{},\"rejected\":{}}}}}",
        applied.rebinds,
        applied.lends,
        applied.reclaims,
        applied.migrations,
        applied.cache_ops,
        applied.rejected,
    );
}
