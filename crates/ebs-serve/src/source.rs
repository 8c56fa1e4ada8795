//! Trace ingestion for the serve loop: live generation, single-file
//! stores, and sharded store directories.
//!
//! The sharded path reads *events only*
//! ([`ebs_workload::load_sharded_events`]), so it accepts metricless
//! shards (which `Dataset::load_sharded` rejects — serving needs no
//! metric series); per DESIGN.md §15 the merged stream is exactly the
//! unsharded one, for any shard count and any thread count.

use std::path::{Path, PathBuf};

use ebs_core::error::EbsError;
use ebs_core::io::IoEvent;
use ebs_core::topology::Fleet;
use ebs_store::MANIFEST_FILE;
use ebs_workload::{generate, load_sharded_events, Dataset, WorkloadConfig};

/// Where the serve loop's traffic comes from.
#[derive(Clone, Debug)]
pub enum ServeSource {
    /// Generate the trace live from a workload config (no store on disk).
    Generate(Box<WorkloadConfig>),
    /// Replay a single-file ebs-store container.
    Store(PathBuf),
    /// Replay a sharded store directory (events-only streaming read;
    /// metricless shards are fine).
    ShardedStore(PathBuf),
}

impl ServeSource {
    /// Classify a `--trace` path: a directory holding a shard manifest is
    /// a sharded store, anything else a single-file store.
    pub fn from_path(path: &Path) -> ServeSource {
        if path.join(MANIFEST_FILE).exists() {
            ServeSource::ShardedStore(path.to_path_buf())
        } else {
            ServeSource::Store(path.to_path_buf())
        }
    }
}

/// A loaded trace ready to serve: the rebuilt fleet plus the time-sorted
/// event stream.
pub struct LoadedTrace {
    /// The fleet rebuilt from the stored (or given) workload config.
    pub fleet: Fleet,
    /// The workload config the trace was generated with.
    pub config: WorkloadConfig,
    /// The full event stream, time-sorted.
    pub events: Vec<IoEvent>,
}

/// Load the serve trace from `source`.
pub fn load(source: &ServeSource) -> Result<LoadedTrace, EbsError> {
    match source {
        ServeSource::Generate(config) => {
            let ds = generate(config)?;
            Ok(LoadedTrace {
                fleet: ds.fleet,
                config: ds.config,
                events: ds.events,
            })
        }
        ServeSource::Store(path) => {
            let ds = Dataset::load(path)?;
            Ok(LoadedTrace {
                fleet: ds.fleet,
                config: ds.config,
                events: ds.events,
            })
        }
        ServeSource::ShardedStore(dir) => {
            let (config, fleet, events) = load_sharded_events(dir)?;
            Ok(LoadedTrace {
                fleet,
                config,
                events,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> ebs_core::TempDir {
        ebs_core::TempDir::new(&format!("serve-source-{name}")).unwrap()
    }

    #[test]
    fn sharded_and_generated_streams_are_identical() {
        let config = WorkloadConfig::quick(77);
        let dir = tmp_dir("quick");
        // Metricless shards: Dataset::load_sharded would refuse these, the
        // serve reader must not.
        ebs_workload::generate_sharded(&config, &dir, 3, false).unwrap();
        let loaded = load(&ServeSource::ShardedStore(dir.to_path_buf())).unwrap();
        let direct = load(&ServeSource::Generate(Box::new(config))).unwrap();
        assert_eq!(loaded.events, direct.events);
        assert_eq!(loaded.fleet.vd_count(), direct.fleet.vd_count());
    }

    #[test]
    fn from_path_detects_sharded_dirs() {
        let config = WorkloadConfig::quick(78);
        let dir = tmp_dir("detect");
        ebs_workload::generate_sharded(&config, &dir, 2, false).unwrap();
        assert!(matches!(
            ServeSource::from_path(&dir),
            ServeSource::ShardedStore(_)
        ));
        assert!(matches!(
            ServeSource::from_path(Path::new("/no/such/file.ebs")),
            ServeSource::Store(_)
        ));
    }
}
