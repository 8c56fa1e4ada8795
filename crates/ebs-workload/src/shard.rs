//! Sharded streaming generation and replay: bounded-memory trace
//! production at fleet scale (DESIGN.md §15).
//!
//! [`generate`](crate::generate) materializes every sampled event in one
//! `Vec<IoEvent>` before anything runs, which caps the reachable fleet
//! size far below the paper's ~140k VDs. This module removes that cap by
//! giving each worker *ownership* of a contiguous VD range — a shard.
//! A shard generates its VDs one at a time, streams their events into its
//! own `ebs-store` container chunk by chunk, and never holds more than
//! one chunk's worth of events plus one VD's partial; shards share only
//! the read-only fleet and traffic plan, never event buffers. A
//! [`ShardManifest`] written alongside the shard files records the fleet
//! dimensions and per-shard VD ranges, so replay can size its
//! accumulators and fan shards back out without rebuilding the fleet.
//!
//! Determinism is inherited, not re-proved: every VD draws from its own
//! RNG stream keyed by `(master seed, vd id)`, so the events a VD emits
//! do not depend on which shard — or how many shards — generated it.
//! Within a shard, events are buffered VD-major (the same order the
//! unsharded generator concatenates partials) and each flushed chunk is
//! stable-sorted by timestamp, which the v2 event codec requires. Since
//! a stable sort never reorders equal keys, globally stable-sorting the
//! concatenated shard streams by timestamp reproduces *exactly* the event
//! order of [`generate`](crate::generate) — that is what makes
//! [`Dataset::open`] of a sharded store byte-identical to in-memory
//! generation, and the streaming [`replay_summary`] is shard-count
//! invariant besides because every [`StreamSummary`] accumulator is an
//! integer-valued `f64` below 2^53, where addition is exact and
//! associative.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use ebs_core::error::EbsError;
use ebs_core::ids::{IdVec, VdId};
use ebs_core::io::IoEvent;
use ebs_core::metric::{ComputeMetrics, Series, StorageMetrics};
use ebs_core::parallel::par_map_deterministic;
use ebs_core::rng::RngFactory;
use ebs_core::time::TickSpec;
use ebs_core::topology::Fleet;
use ebs_store::format::{kind, EVENTS_PER_CHUNK};
use ebs_store::manifest::{shard_file_name, ShardEntry, ShardManifest, ShardMeta, MANIFEST_FILE};
use ebs_store::stream::{fold_store, StreamSummary};
use ebs_store::{ChunkReader, StoreWriter};

use crate::config::WorkloadConfig;
use crate::dataset::Dataset;
use crate::fleet::build_fleet;
use crate::generator::{generate_vd, Grid};
use crate::spatial::{build_plan, TrafficPlan};
use crate::store::{
    check_metric_grid, decode_config, encode_config, read_chunks, validate_events, Chunks,
};

/// Environment variable selecting the shard count for sharded runs.
const SHARDS_ENV: &str = "EBS_SHARDS";

/// The shard count a run asks for: `requested` (a `--shards` flag) wins,
/// then `EBS_SHARDS`. `None` when neither is given, which is how a binary
/// tells that a new store is to be a single file; an `EBS_SHARDS` that is
/// not a positive count asks for one shard per worker thread.
#[allow(clippy::disallowed_methods, reason = "the named `EBS_SHARDS` read")]
pub fn requested_shards(requested: Option<usize>) -> Option<usize> {
    requested.filter(|&n| n > 0).or_else(|| {
        let value = std::env::var_os(SHARDS_ENV)?;
        let count = value.to_str().and_then(|v| v.parse::<usize>().ok());
        Some(
            count
                .filter(|&n| n > 0)
                .unwrap_or_else(ebs_core::parallel::current_threads),
        )
    })
}

/// Shard count resolution: [`requested_shards`], else one shard per
/// worker thread (the natural ownership grain).
pub fn resolve_shards(requested: Option<usize>) -> usize {
    requested_shards(requested).unwrap_or_else(ebs_core::parallel::current_threads)
}

/// A partition of the fleet's VD id space into contiguous, disjoint,
/// covering ranges — one per shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<(u64, u64)>,
}

impl ShardPlan {
    /// Split `[0, vd_count)` into `shards` near-equal contiguous ranges
    /// (proportional cuts, so sizes differ by at most one VD). The shard
    /// count is clamped to the VD count — a shard always owns at least
    /// one VD.
    pub fn balanced(vd_count: u64, shards: usize) -> Self {
        if vd_count == 0 {
            return Self { ranges: Vec::new() };
        }
        let shards = (shards.max(1) as u64).min(vd_count);
        let ranges = (0..shards)
            .map(|i| (i * vd_count / shards, (i + 1) * vd_count / shards))
            .collect();
        Self { ranges }
    }

    /// One shard per data center. Fleet construction adds VDs DC by DC,
    /// so each DC's VDs form one contiguous id range.
    pub fn per_dc(fleet: &Fleet) -> Self {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let mut prev_dc = None;
        for vd in fleet.vds.iter() {
            let dc = fleet.dc_of_vd(vd.id);
            let id = vd.id.index() as u64;
            match ranges.last_mut() {
                Some(last) if prev_dc == Some(dc) => last.1 = id + 1,
                _ => ranges.push((id, id + 1)),
            }
            prev_dc = Some(dc);
        }
        Self { ranges }
    }

    /// The shard ranges, in VD order.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the plan holds no shards (empty fleet).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Generate a sharded trace into `dir` with a [`ShardPlan::balanced`]
/// split over `shards` shards. See [`generate_sharded_plan`].
pub fn generate_sharded(
    config: &WorkloadConfig,
    dir: impl AsRef<Path>,
    shards: usize,
    with_metrics: bool,
) -> Result<ShardManifest, EbsError> {
    config.validate()?;
    let fleet = build_fleet(config)?;
    let plan = ShardPlan::balanced(fleet.vd_count() as u64, shards);
    generate_sharded_fleet(config, fleet, &plan, dir, with_metrics)
}

/// Generate a sharded trace into `dir`, one shard file per range of
/// `shard_plan`, plus a `manifest.ebs` describing the set.
///
/// Each shard worker owns its range end to end: it generates the range's
/// VDs one at a time, streams their events into `dir/shard-NNNN.ebs` in
/// [`EVENTS_PER_CHUNK`]-sized chunks (each chunk stable-sorted by
/// timestamp for the v2 codec), and returns only its manifest entry.
/// Peak memory per worker is one chunk buffer plus one VD partial —
/// independent of the fleet size — so the run's RSS is bounded by the
/// fleet/plan structures, not by the trace.
///
/// With `with_metrics` the per-QP and per-segment metric series are also
/// accumulated (shard-local, contiguous entity ranges) and written to the
/// shard file, which is what [`Dataset::open`] needs to rebuild a full
/// [`Dataset`]; without it they are dropped as they are generated and
/// memory stays bounded even at millions of VDs
/// ([`crate::load_events`] and [`replay_summary`] read such a store).
pub fn generate_sharded_plan(
    config: &WorkloadConfig,
    dir: impl AsRef<Path>,
    shard_plan: &ShardPlan,
    with_metrics: bool,
) -> Result<ShardManifest, EbsError> {
    config.validate()?;
    let fleet = build_fleet(config)?;
    generate_sharded_fleet(config, fleet, shard_plan, dir, with_metrics)
}

/// Shared body of the sharded generators, over an already-built fleet.
fn generate_sharded_fleet(
    config: &WorkloadConfig,
    fleet: Fleet,
    shard_plan: &ShardPlan,
    dir: impl AsRef<Path>,
    with_metrics: bool,
) -> Result<ShardManifest, EbsError> {
    let dir = dir.as_ref();
    let vd_count = fleet.vd_count() as u64;
    let mut expect_lo = 0u64;
    for &(lo, hi) in shard_plan.ranges() {
        if lo != expect_lo || hi <= lo || hi > vd_count {
            return Err(EbsError::invalid_config(format!(
                "shard plan range [{lo}, {hi}) does not partition [0, {vd_count}) in order"
            )));
        }
        expect_lo = hi;
    }
    if expect_lo != vd_count {
        return Err(EbsError::invalid_config(format!(
            "shard plan covers [0, {expect_lo}) but the fleet has {vd_count} VDs"
        )));
    }
    std::fs::create_dir_all(dir)?;
    let traffic = build_plan(config, &fleet);
    let rngf = RngFactory::new(config.seed).child("traffic");
    let grid = Grid::new(config);
    let shard_count = shard_plan.len();
    let results = par_map_deterministic(shard_plan.ranges(), |index, &range| {
        write_shard(
            config,
            &fleet,
            &traffic,
            &rngf,
            &grid,
            dir,
            index,
            shard_count,
            range,
            with_metrics,
        )
    });
    let shards = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let sticks = config.storage_ticks();
    let manifest = ShardManifest {
        vd_count,
        tick_secs: sticks.tick_secs,
        ticks: sticks.ticks,
        config: encode_config(config),
        shards,
    };
    manifest.save(BufWriter::new(File::create(dir.join(MANIFEST_FILE))?))?;
    Ok(manifest)
}

/// Generate and persist one shard: the worker body of the sharded
/// generators. Returns the shard's manifest entry.
#[allow(clippy::too_many_arguments)]
fn write_shard(
    config: &WorkloadConfig,
    fleet: &Fleet,
    traffic: &TrafficPlan,
    rngf: &RngFactory,
    grid: &Grid,
    dir: &Path,
    index: usize,
    shard_count: usize,
    (vd_lo, vd_hi): (u64, u64),
    with_metrics: bool,
) -> Result<ShardEntry, EbsError> {
    let name = shard_file_name(index);
    let file = File::create(dir.join(&name))?;
    let mut writer = StoreWriter::new(BufWriter::new(file))?;
    let meta = ShardMeta {
        shard_index: index as u64,
        shard_count: shard_count as u64,
        vd_lo,
        vd_hi,
    };
    writer.write_chunk(kind::SHARD_META, &meta.encode())?;

    // Shard-local metric accumulators. Entity ids are assigned in VD
    // order, so a contiguous VD range owns contiguous QP and segment
    // ranges and the shard's series are simply the concatenation of its
    // per-VD series in order.
    let mut qp_series: Vec<Series> = Vec::new();
    let mut seg_series: Vec<Series> = Vec::new();
    let mut buf: Vec<IoEvent> = Vec::with_capacity(2 * EVENTS_PER_CHUNK);
    let mut chunk: Vec<IoEvent> = Vec::with_capacity(EVENTS_PER_CHUNK);
    let mut events = 0u64;
    let mut bytes = 0u64;
    for raw_id in vd_lo..vd_hi {
        let id = u32::try_from(raw_id).map_err(|_| {
            EbsError::invalid_config(format!("vd id {raw_id} does not fit the id space"))
        })?;
        let vd = fleet.vds.get(VdId(id)).ok_or_else(|| {
            EbsError::invalid_config(format!(
                "shard range names vd {id} but the fleet has {} disks",
                fleet.vd_count()
            ))
        })?;
        let mut partial = generate_vd(fleet, traffic, rngf, grid, vd)?;
        events += partial.events.len() as u64;
        bytes += partial
            .events
            .iter()
            .map(|e| u64::from(e.size))
            .sum::<u64>();
        buf.append(&mut partial.events);
        if with_metrics {
            qp_series.extend(partial.qp_series);
            seg_series.extend(partial.seg_series);
        }
        while buf.len() >= EVENTS_PER_CHUNK {
            chunk.clear();
            chunk.extend(buf.drain(..EVENTS_PER_CHUNK));
            // The v2 codec requires each chunk time-sorted; the sort is
            // stable, so equal timestamps keep their VD-major order and
            // a global stable re-sort reproduces the unsharded stream.
            chunk.sort_by_key(|e| e.t_us);
            writer.write_events(&chunk)?;
        }
    }
    if !buf.is_empty() {
        buf.sort_by_key(|e| e.t_us);
        writer.write_events(&buf)?;
    }
    if with_metrics {
        writer.write_series(kind::COMPUTE_METRICS, config.compute_ticks(), &qp_series)?;
        writer.write_series(kind::STORAGE_METRICS, config.storage_ticks(), &seg_series)?;
    }
    writer.finish()?;
    Ok(ShardEntry {
        name,
        vd_lo,
        vd_hi,
        events,
        bytes,
    })
}

/// Open a shard file and verify its SHARD_META chunk against the
/// manifest entry that names it. Returns the reader positioned after the
/// meta chunk.
fn open_shard(
    dir: &Path,
    index: usize,
    entry: &ShardEntry,
) -> Result<ChunkReader<BufReader<File>>, EbsError> {
    let file = File::open(dir.join(&entry.name))?;
    let mut reader = ChunkReader::new(BufReader::new(file))?;
    let frame = reader.next_frame()?.ok_or_else(|| {
        EbsError::corrupt_store(format!("shard file {} holds no chunks", entry.name))
    })?;
    if frame.kind != kind::SHARD_META {
        return Err(EbsError::corrupt_store(format!(
            "shard file {} does not start with a SHARD_META chunk",
            entry.name
        )));
    }
    let meta = ShardMeta::decode(reader.read_payload_into(&mut Vec::new())?)?;
    if !meta.matches(index, entry) {
        return Err(EbsError::corrupt_store(format!(
            "shard file {} claims shard {} over vds [{}, {}) but the manifest entry \
             {index} expects [{}, {})",
            entry.name, meta.shard_index, meta.vd_lo, meta.vd_hi, entry.vd_lo, entry.vd_hi
        )));
    }
    Ok(reader)
}

/// Load the manifest of the sharded trace in `dir`.
pub fn load_manifest(dir: impl AsRef<Path>) -> Result<ShardManifest, EbsError> {
    ShardManifest::load(BufReader::new(File::open(
        dir.as_ref().join(MANIFEST_FILE),
    )?))
}

/// Stream-replay a sharded trace: fold every shard's EVENTS chunks into a
/// per-shard [`StreamSummary`] (shards fan out across worker threads,
/// each reading only its own file) and merge the partials in shard order.
///
/// Memory is bounded by one chunk per worker plus the O(vd_count + ticks)
/// summaries — the trace itself is never materialized. The merged summary
/// is bit-identical for any shard count and any thread count.
pub fn replay_summary(dir: impl AsRef<Path>) -> Result<(ShardManifest, StreamSummary), EbsError> {
    let dir = dir.as_ref();
    let manifest = load_manifest(dir)?;
    let vd_count = usize::try_from(manifest.vd_count).map_err(|_| {
        EbsError::corrupt_store(format!(
            "manifest names a {}-disk fleet, beyond this platform's address space",
            manifest.vd_count
        ))
    })?;
    let ticks = manifest.tick_spec();
    let results = par_map_deterministic(manifest.shards.as_slice(), |index, entry| {
        let reader = open_shard(dir, index, entry)?;
        let mut summary = StreamSummary::new(vd_count, ticks);
        let end = fold_store(reader, &mut summary)?;
        if end.events != entry.events {
            return Err(EbsError::corrupt_store(format!(
                "manifest pins {} events for shard {} but the file holds {}",
                entry.events, entry.name, end.events
            )));
        }
        Ok(summary)
    });
    let mut total = StreamSummary::new(vd_count, ticks);
    for partial in results {
        total.merge(&partial?)?;
    }
    Ok((manifest, total))
}

/// Read and decode one shard file through the dataset loader's chunk
/// loop. `grids` holds the compute and storage tick grids when the caller
/// wants metric series, which the shard must then carry; without it the
/// metric chunks are skipped, so metricless shards load too.
fn load_shard(
    dir: &Path,
    index: usize,
    entry: &ShardEntry,
    grids: Option<(TickSpec, TickSpec)>,
) -> Result<Chunks, EbsError> {
    let chunks = read_chunks(open_shard(dir, index, entry)?, grids.is_some())?;
    if chunks.events.len() as u64 != entry.events {
        return Err(EbsError::corrupt_store(format!(
            "manifest pins {} events for shard {} but its chunks held {}",
            entry.events,
            entry.name,
            chunks.events.len()
        )));
    }
    if let Some((cticks, sticks)) = grids {
        let (Some((ct, qp)), Some((st, seg))) = (&chunks.compute, &chunks.storage) else {
            return Err(EbsError::corrupt_store(format!(
                "shard {} carries no metric chunks: it was generated without metrics \
                 and can only be replayed through the streaming summary",
                entry.name
            )));
        };
        check_metric_grid(&format!("shard {} compute", entry.name), *ct, cticks, qp)?;
        check_metric_grid(&format!("shard {} storage", entry.name), *st, sticks, seg)?;
    }
    Ok(chunks)
}

/// Read every shard of the trace in `dir` (in parallel, one worker per
/// shard file): the config its manifest stores, the fleet that config
/// rebuilds, the merged event stream, and the per-shard loads with their
/// events moved out. The metric chunks are read only `with_metrics`.
///
/// Shard streams are concatenated in shard order — which is VD-major
/// order — and stable-sorted by timestamp; since each shard chunk was
/// itself stable-sorted, equal timestamps sit in VD-major order
/// throughout and the final sort reproduces exactly the unsharded event
/// stream, for any shard count and any thread count.
pub(crate) fn load_shards(
    dir: &Path,
    with_metrics: bool,
) -> Result<(WorkloadConfig, Fleet, Vec<IoEvent>, Vec<Chunks>), EbsError> {
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
    let grids = with_metrics.then(|| (config.compute_ticks(), config.storage_ticks()));
    let mut loads = par_map_deterministic(manifest.shards.as_slice(), |index, entry| {
        load_shard(dir, index, entry, grids)
    })
    .into_iter()
    .collect::<Result<Vec<_>, EbsError>>()?;
    // Sized from what the shards held, so the stream is exact-size; each
    // shard's buffer is freed as soon as it is copied.
    let mut events: Vec<IoEvent> = Vec::with_capacity(loads.iter().map(|l| l.events.len()).sum());
    for load in &mut loads {
        events.extend(std::mem::take(&mut load.events));
    }
    events.sort_by_key(|e| e.t_us);
    validate_events(&events, &fleet)?;
    Ok((config, fleet, events, loads))
}

impl Dataset {
    /// Load a sharded trace directory back into a full in-memory
    /// [`Dataset`], byte-identical to the one [`crate::generate`] returns
    /// for the stored config ([`Dataset::open`]'s sharded layout).
    ///
    /// Events merge as in [`load_shards`]. Metric series concatenate in
    /// shard order because entity ids are assigned in VD order. Requires
    /// shards generated `with_metrics`.
    pub(crate) fn load_sharded(dir: &Path) -> Result<Self, EbsError> {
        let (config, fleet, events, loads) = load_shards(dir, true)?;
        // Sized from the fleet, which the check below holds the shards to.
        let mut per_qp: Vec<Series> = Vec::with_capacity(fleet.qps.len());
        let mut per_seg: Vec<Series> = Vec::with_capacity(fleet.segments.len());
        for load in loads {
            per_qp.extend(load.compute.into_iter().flat_map(|(_, qp)| qp));
            per_seg.extend(load.storage.into_iter().flat_map(|(_, seg)| seg));
        }
        if per_qp.len() != fleet.qps.len() || per_seg.len() != fleet.segments.len() {
            return Err(EbsError::corrupt_store(format!(
                "shards carry {} QP / {} segment series but the fleet has {} / {}",
                per_qp.len(),
                per_seg.len(),
                fleet.qps.len(),
                fleet.segments.len()
            )));
        }
        Ok(Dataset {
            fleet,
            compute: ComputeMetrics {
                ticks: config.compute_ticks(),
                per_qp: IdVec::from_vec(per_qp),
            },
            storage: StorageMetrics {
                ticks: config.storage_ticks(),
                per_seg: IdVec::from_vec(per_seg),
            },
            events,
            config,
            index: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn tmp_dir(name: &str) -> ebs_core::TempDir {
        ebs_core::TempDir::new(&format!("shard-test-{name}")).unwrap()
    }

    #[test]
    fn balanced_plan_partitions_the_id_space() {
        for (vds, shards) in [(10u64, 3usize), (1, 8), (8, 8), (7, 2), (1000, 16)] {
            let plan = ShardPlan::balanced(vds, shards);
            assert!(plan.len() <= shards && !plan.is_empty());
            let mut next = 0;
            for &(lo, hi) in plan.ranges() {
                assert_eq!(lo, next);
                assert!(hi > lo);
                next = hi;
            }
            assert_eq!(next, vds, "vds={vds} shards={shards}");
        }
        assert!(ShardPlan::balanced(0, 4).is_empty());
    }

    #[test]
    fn per_dc_plan_matches_dc_boundaries() {
        let cfg = WorkloadConfig::medium(5);
        let fleet = build_fleet(&cfg).unwrap();
        let plan = ShardPlan::per_dc(&fleet);
        assert_eq!(plan.len(), cfg.dc_count as usize);
        for &(lo, hi) in plan.ranges() {
            let dc = fleet.dc_of_vd(VdId(lo as u32));
            for id in lo..hi {
                assert_eq!(fleet.dc_of_vd(VdId(id as u32)), dc);
            }
        }
        let total: u64 = plan.ranges().iter().map(|&(lo, hi)| hi - lo).sum();
        assert_eq!(total, fleet.vd_count() as u64);
    }

    #[test]
    fn sharded_store_reloads_byte_identical_to_generation() {
        let cfg = WorkloadConfig::quick(91);
        let ds = generate(&cfg).unwrap();
        for shards in [1usize, 3] {
            let dir = tmp_dir(&format!("reload-{shards}"));
            let manifest = generate_sharded(&cfg, &dir, shards, true).unwrap();
            assert_eq!(manifest.total_events(), ds.events.len() as u64);
            let loaded = Dataset::open(&dir).unwrap();
            assert_eq!(loaded.events, ds.events, "shards={shards}");
            assert_eq!(
                loaded.compute.per_qp.as_slice(),
                ds.compute.per_qp.as_slice()
            );
            assert_eq!(
                loaded.storage.per_seg.as_slice(),
                ds.storage.per_seg.as_slice()
            );
        }
    }

    #[test]
    fn replay_summary_is_shard_count_invariant() {
        let cfg = WorkloadConfig::quick(92);
        let mut reports = Vec::new();
        for shards in [1usize, 2, 8] {
            let dir = tmp_dir(&format!("invariant-{shards}"));
            generate_sharded(&cfg, &dir, shards, false).unwrap();
            let (manifest, summary) = replay_summary(&dir).unwrap();
            assert_eq!(
                manifest.shards.len(),
                shards.min(manifest.vd_count as usize)
            );
            reports.push((
                summary.events(),
                summary.bytes(),
                summary.vd_bytes().to_vec(),
                summary.tick_bytes().to_vec(),
                summary.ccr(0.8).map(f64::to_bits),
                summary.p2a().map(f64::to_bits),
                summary.size_quantile(0.5).map(f64::to_bits),
            ));
        }
        for pair in reports.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn metricless_shards_refuse_full_load_but_stream_fine() {
        let cfg = WorkloadConfig::quick(93);
        let dir = tmp_dir("metricless");
        generate_sharded(&cfg, &dir, 2, false).unwrap();
        let err = Dataset::open(&dir).unwrap_err();
        assert!(matches!(err, EbsError::CorruptStore(_)), "{err}");
        let (_, summary) = replay_summary(&dir).unwrap();
        let ds = generate(&cfg).unwrap();
        assert_eq!(summary.events(), ds.events.len() as u64);
    }

    #[test]
    fn truncated_shard_is_detected() {
        let cfg = WorkloadConfig::quick(95);
        let dir = tmp_dir("truncated");
        generate_sharded(&cfg, &dir, 2, false).unwrap();
        let path = dir.join(shard_file_name(1));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let err = replay_summary(&dir).unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn resolve_shards_prefers_explicit_request() {
        assert_eq!(requested_shards(Some(5)), Some(5));
        assert_eq!(resolve_shards(Some(5)), 5);
        assert!(resolve_shards(None) >= 1);
    }
}
