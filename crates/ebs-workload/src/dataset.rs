//! The generated dataset: everything the paper's analyses consume.

use crate::config::WorkloadConfig;
use ebs_core::index::EventIndex;
use ebs_core::io::IoEvent;
use ebs_core::metric::{ComputeMetrics, Series, StorageMetrics};
use ebs_core::topology::Fleet;
use std::sync::OnceLock;

/// Lazily-built [`EventIndex`] cache. Cloning a dataset resets the cache
/// (the clone rebuilds on first use); equality/debug ignore it.
#[derive(Default)]
pub(crate) struct IndexCell(OnceLock<EventIndex>);

impl Clone for IndexCell {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for IndexCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(idx) => write!(f, "IndexCell(built, {} events)", idx.len()),
            None => f.write_str("IndexCell(unbuilt)"),
        }
    }
}

/// One complete synthetic dataset, the stand-in for the paper's production
/// collection (§2.3): fleet topology + specification data, compute- and
/// storage-domain metric data, and the 1/3200-sampled IO events.
///
/// The metric data records *demand* (pre-throttle traffic); the throttle
/// study in `ebs-throttle` applies caps on top, exactly as the paper's
/// simulations do.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Fleet topology and per-VD specifications.
    pub fleet: Fleet,
    /// Compute-domain metric data (per QP).
    pub compute: ComputeMetrics,
    /// Storage-domain metric data (per segment).
    pub storage: StorageMetrics,
    /// Sampled IO events, sorted by timestamp.
    pub events: Vec<IoEvent>,
    /// The generating configuration.
    pub config: WorkloadConfig,
    /// Shared event index over `events`, built on first use (see
    /// [`Dataset::index`]).
    pub(crate) index: IndexCell,
}

impl Dataset {
    /// Number of sampled trace events.
    pub fn trace_count(&self) -> usize {
        self.events.len()
    }

    /// Sampled trace counts by direction `(reads, writes)`.
    pub fn trace_rw_counts(&self) -> (usize, usize) {
        let reads = self.events.iter().filter(|e| e.op.is_read()).count();
        (reads, self.events.len() - reads)
    }

    /// Total metric-data traffic `(read_bytes, write_bytes)` over the
    /// window, from the compute domain (the full population, not the
    /// sample).
    pub fn total_bytes(&self) -> (f64, f64) {
        let t = self.compute.total();
        (t.read.bytes, t.write.bytes)
    }

    /// Heap bytes of the dataset's bulk data, by capacity: every metric
    /// series (its header in the per-entity vector, and its entries) and
    /// the sampled event vector. The fleet and the event index are not
    /// counted.
    pub fn heap_bytes(&self) -> usize {
        let series = self
            .compute
            .per_qp
            .iter()
            .chain(self.storage.per_seg.iter());
        series
            .map(|s| std::mem::size_of::<Series>() + s.heap_bytes())
            .sum::<usize>()
            + self.events.capacity() * std::mem::size_of::<IoEvent>()
    }

    /// The shared [`EventIndex`] over this dataset's sampled events — the
    /// per-VD and per-window views every trace-driven analysis borrows.
    /// Built exactly once per dataset instance (lazily, thread-safe); every
    /// later call is a pointer read.
    pub fn index(&self) -> &EventIndex {
        self.index
            .0
            .get_or_init(|| EventIndex::build(&self.fleet, &self.events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-index per-VD event lookup: a full-stream linear filter.
    fn filter_events_for_vd(ds: &Dataset, vd: ebs_core::ids::VdId) -> Vec<IoEvent> {
        ds.events.iter().filter(|e| e.vd == vd).copied().collect()
    }

    #[test]
    fn indexed_vd_events_match_the_linear_filter() {
        let ds = crate::generate(&crate::WorkloadConfig::quick(4242)).unwrap();
        for i in 0..ds.fleet.vd_count() {
            let vd = ebs_core::ids::VdId::from_index(i);
            assert_eq!(
                ds.index().vd(vd),
                filter_events_for_vd(&ds, vd).as_slice(),
                "VD {i}: index lookup disagrees with the linear filter"
            );
        }
    }

    #[test]
    fn index_is_built_once_and_survives_clone() {
        let ds = crate::generate(&crate::WorkloadConfig::quick(4243)).unwrap();
        let first = ds.index() as *const EventIndex;
        assert_eq!(ds.index() as *const EventIndex, first, "index rebuilt");
        let cloned = ds.clone();
        assert_eq!(cloned.index().len(), ds.index().len());
    }
}
