//! Canonical scenarios for the reproduction harness.
//!
//! Every experiment binary runs against the same generated dataset so the
//! numbers across tables/figures are mutually consistent, exactly like the
//! paper's single 12-hour collection window.

use std::path::{Path, PathBuf};

use ebs_core::error::EbsError;
use ebs_core::trace::StageLatency;
use ebs_stack::sim::{StackConfig, StackSim};
use ebs_workload::{generate, generate_sharded, requested_shards, Dataset, StoreLayout};
pub use ebs_workload::{Scale, EXPERIMENT_SEED};

/// Parse the scale from CLI args: `--quick` or `--medium` anywhere
/// selects the smaller scales; default is full.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else if args.iter().any(|a| a == "--medium") {
        Scale::Medium
    } else {
        Scale::Full
    }
}

/// Parse a `--trace <path>` argument: the store to replay from (or to
/// create on the first run). `None` when the flag is absent.
#[allow(clippy::print_stderr, reason = "a CLI usage error for the bins")]
pub fn trace_path_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == "--trace")?;
    match args.get(at + 1) {
        Some(p) if !p.starts_with("--") => Some(PathBuf::from(p)),
        _ => {
            eprintln!("--trace requires a path argument");
            std::process::exit(2);
        }
    }
}

/// Parse a `--shards <n>` argument: an explicit shard count for a new
/// store. `None` when the flag is absent (callers fall back to
/// [`ebs_workload::requested_shards`], which consults `EBS_SHARDS`).
#[allow(clippy::print_stderr, reason = "a CLI usage error for the bins")]
pub fn shards_from_args() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == "--shards")?;
    match args.get(at + 1).and_then(|p| p.parse::<usize>().ok()) {
        Some(n) if n > 0 => Some(n),
        _ => {
            eprintln!("--shards requires a positive integer argument");
            std::process::exit(2);
        }
    }
}

/// Generate the canonical dataset at `scale`.
pub fn dataset(scale: Scale) -> Dataset {
    generate(&scale.config(EXPERIMENT_SEED)).expect("canonical config must validate")
}

/// The canonical dataset at `scale`, persisted at `path`.
///
/// If `path` holds a store, in either layout, the dataset is *replayed*
/// from it (no generation). Otherwise it is generated once and saved
/// there for the next run: as a sharded store (DESIGN.md §15), written
/// shard by shard with bounded memory, when `shards` or `EBS_SHARDS`
/// asks for one, else as a single file. Either way the returned dataset
/// is identical to [`dataset`]`(scale)` — the store round trips are
/// byte-exact and sharding is shard-count invariant — so every
/// experiment's output is unchanged by the flag. Status goes to stderr;
/// stdout stays reserved for experiment output.
///
/// A present-but-unreadable store (truncated, corrupt, version-skewed) is
/// a hard error: silently regenerating would mask data loss.
#[allow(clippy::print_stderr, reason = "store status for the bins, off stdout")]
pub fn dataset_or_replay(
    scale: Scale,
    path: &Path,
    shards: Option<usize>,
) -> Result<Dataset, EbsError> {
    if StoreLayout::probe(path) != StoreLayout::Absent {
        let ds = Dataset::open(path)?;
        eprintln!(
            "replayed {} events from {}",
            ds.trace_count(),
            path.display()
        );
        emit_store_stats(path);
        return Ok(ds);
    }
    let ds = match requested_shards(shards) {
        Some(shards) => {
            generate_sharded(&scale.config(EXPERIMENT_SEED), path, shards, true)?;
            Dataset::open(path)?
        }
        None => {
            let ds = dataset(scale);
            ds.save(path)?;
            ds
        }
    };
    eprintln!(
        "generated {} events and saved them to {}",
        ds.trace_count(),
        path.display()
    );
    emit_store_stats(path);
    Ok(ds)
}

/// Print a single-file store's per-chunk and per-column byte accounting
/// to stderr. Best-effort: the store was just read or written
/// successfully, so a failing rescan only costs the stats lines, never
/// the run.
#[allow(clippy::print_stderr, reason = "store status for the bins, off stdout")]
fn emit_store_stats(path: &Path) {
    if StoreLayout::probe(path) != StoreLayout::File {
        return;
    }
    let Ok(file) = std::fs::File::open(path) else {
        return;
    };
    if let Ok(stats) = ebs_store::StoreStats::scan(std::io::BufReader::new(file)) {
        for line in stats.render() {
            eprintln!("{line}");
        }
    }
}

/// Route the dataset's sampled events through the stack simulator,
/// producing the five-stage latency column (one entry per event, in event
/// order) used by the cache-location study. Throttling is disabled so
/// latency percentiles reflect the device path (the throttle study works
/// on metric data instead).
pub fn stack_latency(ds: &Dataset) -> Vec<StageLatency> {
    let cfg = StackConfig {
        apply_throttle: false,
        ..StackConfig::default()
    };
    StackSim::new(&ds.fleet, cfg)
        .run(&ds.events)
        .expect("generated events are time-sorted and in the fleet")
        .lat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_is_reproducible() {
        let a = dataset(Scale::Quick);
        let b = dataset(Scale::Quick);
        assert_eq!(a.trace_count(), b.trace_count());
    }

    #[test]
    fn stack_latency_covers_all_events() {
        let ds = dataset(Scale::Quick);
        let lat = stack_latency(&ds);
        assert_eq!(lat.len(), ds.events.len());
        assert!(lat.iter().all(|l| l.total_us() > 0.0));
    }
}
