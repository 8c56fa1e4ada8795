//! Trace ingestion for the serve loop: live generation, single-file
//! stores, and sharded store directories.
//!
//! The sharded path reads *events only* through the chunk layer, so it
//! accepts metricless shards (which `Dataset::load_sharded` rejects —
//! serving needs no metric series). Shards are decoded in parallel with
//! [`par_map_deterministic`] and concatenated in shard order — which is
//! VD-major order — then stable-sorted by timestamp; per DESIGN.md §15
//! this reproduces the unsharded event stream exactly, for any shard
//! count and any thread count.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use ebs_core::error::EbsError;
use ebs_core::io::IoEvent;
use ebs_core::parallel::par_map_deterministic;
use ebs_core::topology::Fleet;
use ebs_store::format::kind;
use ebs_store::{
    decode_events_into, ChunkReader, EventScratch, ShardEntry, ShardMeta, MANIFEST_FILE,
};
use ebs_workload::store::decode_config;
use ebs_workload::{build_fleet, generate, load_manifest, Dataset, WorkloadConfig};

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

/// Read one shard file's event chunks (validating its SHARD_META header
/// and manifest-pinned event count), skipping any metric chunks.
fn read_shard_events(
    dir: &Path,
    index: usize,
    entry: &ShardEntry,
) -> Result<Vec<IoEvent>, EbsError> {
    let file = File::open(dir.join(&entry.name))?;
    let mut reader = ChunkReader::new(BufReader::new(file))?;
    let mut events: Vec<IoEvent> = Vec::new();
    let mut scratch = EventScratch::new();
    let mut payload = Vec::new();
    let mut saw_meta = false;
    while let Some(chunk_kind) = reader.next_chunk_into(&mut payload)? {
        if !saw_meta {
            if chunk_kind != kind::SHARD_META {
                return Err(EbsError::corrupt_store(format!(
                    "shard file {} does not start with a SHARD_META chunk",
                    entry.name
                )));
            }
            let meta = ShardMeta::decode(&payload)?;
            if !meta.matches(index, entry) {
                return Err(EbsError::corrupt_store(format!(
                    "shard file {} claims shard {} over vds [{}, {}) but manifest entry \
                     {index} expects [{}, {})",
                    entry.name, meta.shard_index, meta.vd_lo, meta.vd_hi, entry.vd_lo, entry.vd_hi
                )));
            }
            saw_meta = true;
            continue;
        }
        if chunk_kind == kind::EVENTS {
            decode_events_into(&payload, &mut scratch, &mut events)?;
        }
    }
    if events.len() as u64 != entry.events {
        return Err(EbsError::corrupt_store(format!(
            "manifest pins {} events for shard {} but its chunks held {}",
            entry.events,
            entry.name,
            events.len()
        )));
    }
    Ok(events)
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
            let manifest = load_manifest(dir)?;
            let config = decode_config(&manifest.config)?;
            let fleet = build_fleet(&config)?;
            if fleet.vd_count() as u64 != manifest.vd_count {
                return Err(EbsError::corrupt_store(format!(
                    "manifest names a {}-disk fleet but the stored config rebuilds {} disks",
                    manifest.vd_count,
                    fleet.vd_count()
                )));
            }
            let loads = par_map_deterministic(manifest.shards.as_slice(), |index, entry| {
                read_shard_events(dir, index, entry)
            })
            .into_iter()
            .collect::<Result<Vec<_>, EbsError>>()?;
            // Sized from what the shards held, so the stream is exact-size.
            let mut events: Vec<IoEvent> = Vec::with_capacity(loads.iter().map(Vec::len).sum());
            for load in loads {
                events.extend(load);
            }
            // Shard order is VD-major; a stable sort by time therefore
            // reproduces the unsharded stream (DESIGN.md §15).
            events.sort_by_key(|e| e.t_us);
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
