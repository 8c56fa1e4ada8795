//! The two store layouts behind a trace path: a single-file container
//! ([`crate::store`]) or a sharded directory ([`crate::shard`], DESIGN.md
//! §15). [`StoreLayout::probe`] is the one place that tells them apart;
//! [`Dataset::open`] loads either whole and [`load_events`] reads only
//! either's events, so no caller needs to know which it was given.

use std::path::Path;

use ebs_core::error::EbsError;
use ebs_core::io::IoEvent;
use ebs_core::topology::Fleet;
use ebs_store::manifest::MANIFEST_FILE;

use crate::config::WorkloadConfig;
use crate::dataset::Dataset;
use crate::shard::load_shards;
use crate::store::load_file_events;

/// What a trace path holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreLayout {
    /// A directory holding a shard manifest.
    Sharded,
    /// A single-file container.
    File,
    /// No store: the path does not exist, or is a directory without a
    /// manifest (which a sharded generation may fill).
    Absent,
}

impl StoreLayout {
    /// Probe what `path` holds.
    pub fn probe(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref();
        if path.join(MANIFEST_FILE).exists() {
            StoreLayout::Sharded
        } else if path.exists() && !path.is_dir() {
            StoreLayout::File
        } else {
            StoreLayout::Absent
        }
    }
}

impl Dataset {
    /// Load the whole dataset stored at `path`, in either layout: a
    /// sharded directory (whose shards must carry metrics), else a
    /// single-file container through [`Dataset::load`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, EbsError> {
        let path = path.as_ref();
        match StoreLayout::probe(path) {
            StoreLayout::Sharded => Dataset::load_sharded(path),
            StoreLayout::File | StoreLayout::Absent => Dataset::load(path),
        }
    }
}

/// Load the event stream of the store at `path`, in either layout, with
/// the config the store holds and the fleet that config rebuilds.
///
/// The metric chunks are skipped, so a metricless sharded store loads
/// too; a single-file container's skipped chunks are still read and
/// sealed. The stream is exactly the one [`crate::generate`] returns for
/// the config, in an exact-size vector.
pub fn load_events(
    path: impl AsRef<Path>,
) -> Result<(WorkloadConfig, Fleet, Vec<IoEvent>), EbsError> {
    let path = path.as_ref();
    match StoreLayout::probe(path) {
        StoreLayout::Sharded => {
            let (config, fleet, events, _) = load_shards(path, false)?;
            Ok((config, fleet, events))
        }
        StoreLayout::File | StoreLayout::Absent => load_file_events(path),
    }
}
