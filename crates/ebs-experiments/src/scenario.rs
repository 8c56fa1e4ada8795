//! Canonical scenarios for the reproduction harness.
//!
//! Every experiment binary runs against the same generated dataset so the
//! numbers across tables/figures are mutually consistent, exactly like the
//! paper's single 12-hour collection window.

use ebs_core::error::EbsError;
use ebs_core::trace::StageLatency;
use ebs_stack::sim::{StackConfig, StackSim};
use ebs_workload::{generate, resolve_shards, Dataset, WorkloadConfig};

/// Scenario scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny single-DC fleet over 30 minutes; used by tests and `--quick`.
    Quick,
    /// Two DCs over two hours; integration-test scale.
    Medium,
    /// The default three-DC, 12-hour scenario of DESIGN.md.
    Full,
}

impl Scale {
    /// Parse from CLI args: `--quick` or `--medium` anywhere selects the
    /// smaller scales; default is full.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--medium") {
            Scale::Medium
        } else {
            Scale::Full
        }
    }

    /// Parse a `--trace <path>` argument: the store file to replay from
    /// (or to create on the first run). `None` when the flag is absent.
    #[allow(clippy::print_stderr, reason = "a CLI usage error for the bins")]
    pub fn trace_path_from_args() -> Option<std::path::PathBuf> {
        let args: Vec<String> = std::env::args().collect();
        let at = args.iter().position(|a| a == "--trace")?;
        match args.get(at + 1) {
            Some(p) if !p.starts_with("--") => Some(std::path::PathBuf::from(p)),
            _ => {
                eprintln!("--trace requires a path argument");
                std::process::exit(2);
            }
        }
    }

    /// Parse a `--shards <n>` argument: an explicit shard count for the
    /// sharded trace path. `None` when the flag is absent (callers fall
    /// back to [`ebs_workload::resolve_shards`], which consults
    /// `EBS_SHARDS` and then the thread count).
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

    /// The workload configuration for this scale.
    pub fn config(self, seed: u64) -> WorkloadConfig {
        match self {
            Scale::Quick => WorkloadConfig::quick(seed),
            Scale::Medium => WorkloadConfig::medium(seed),
            Scale::Full => WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            },
        }
    }
}

/// The master seed shared by all experiment binaries.
pub const EXPERIMENT_SEED: u64 = 0xEB5_2025;

/// Generate the canonical dataset at `scale`.
pub fn dataset(scale: Scale) -> Dataset {
    generate(&scale.config(EXPERIMENT_SEED)).expect("canonical config must validate")
}

/// The canonical dataset at `scale`, persisted at `path`.
///
/// If `path` exists the dataset is *replayed* from the store (no
/// generation); otherwise it is generated once and saved there for the
/// next run. Either way the returned dataset is identical to
/// [`dataset`]`(scale)` — the store round-trip is byte-exact — so every
/// experiment's output is unchanged by the flag. Status goes to stderr;
/// stdout stays reserved for experiment output.
///
/// A present-but-unreadable store (truncated, corrupt, version-skewed) is
/// a hard error: silently regenerating would mask data loss.
#[allow(clippy::print_stderr, reason = "store status for the bins, off stdout")]
pub fn dataset_or_replay(scale: Scale, path: &std::path::Path) -> Result<Dataset, EbsError> {
    if path.exists() {
        let ds = Dataset::load(path)?;
        eprintln!(
            "replayed {} events from {}",
            ds.trace_count(),
            path.display()
        );
        emit_store_stats(path);
        return Ok(ds);
    }
    let ds = dataset(scale);
    ds.save(path)?;
    eprintln!(
        "generated {} events and saved them to {}",
        ds.trace_count(),
        path.display()
    );
    emit_store_stats(path);
    Ok(ds)
}

/// The canonical dataset at `scale`, persisted as a *sharded* store in
/// the directory `dir` (see DESIGN.md §15).
///
/// The sharded analogue of [`dataset_or_replay`]: if `dir` holds a
/// manifest the shards are replayed (streamed shard-parallel, never
/// materializing more than one decode buffer per worker); otherwise the
/// dataset is generated shard-by-shard into `dir` with bounded memory
/// and then loaded back. Both paths return a dataset byte-identical to
/// [`dataset`]`(scale)` regardless of the shard count.
#[allow(clippy::print_stderr, reason = "store status for the bins, off stdout")]
pub fn dataset_or_replay_sharded(
    scale: Scale,
    dir: &std::path::Path,
    shards: Option<usize>,
) -> Result<Dataset, EbsError> {
    if dir.join(ebs_store::MANIFEST_FILE).exists() {
        let ds = Dataset::load_sharded(dir)?;
        eprintln!(
            "replayed {} events from sharded store {}",
            ds.trace_count(),
            dir.display()
        );
        return Ok(ds);
    }
    let config = scale.config(EXPERIMENT_SEED);
    let manifest = ebs_workload::generate_sharded(&config, dir, resolve_shards(shards), true)?;
    let ds = Dataset::load_sharded(dir)?;
    eprintln!(
        "generated {} events into {} shard(s) at {}",
        manifest.total_events(),
        manifest.shards.len(),
        dir.display()
    );
    Ok(ds)
}

/// Print the store's per-chunk and per-column byte accounting to stderr.
/// Best-effort: the store was just read or written successfully, so a
/// failing rescan only costs the stats lines, never the run.
#[allow(clippy::print_stderr, reason = "store status for the bins, off stdout")]
fn emit_store_stats(path: &std::path::Path) {
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

    #[test]
    fn scale_configs_validate() {
        for s in [Scale::Quick, Scale::Medium, Scale::Full] {
            s.config(1).validate().unwrap();
        }
    }
}
