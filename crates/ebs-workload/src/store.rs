//! Dataset persistence: [`Dataset::save`] / [`Dataset::load`] over the
//! `ebs-store` columnar container. The chunk loop that decodes a
//! container is shared with the shard loader; analyses that never need
//! the whole trace in memory fold it with [`ebs_store::fold_store`].
//!
//! The fleet is *not* stored: it is a deterministic function of the
//! [`WorkloadConfig`] (`build_fleet` draws from seeded RNG streams), so the
//! store carries the config as its own chunk and the loader rebuilds the
//! fleet. The generator's traffic plan is not rebuilt at all: the loaded
//! metric and event chunks are its only products. The specification chunk is still
//! written — the loader cross-checks it row-for-row against the rebuilt
//! fleet, so a store paired with the wrong code version (or a tampered
//! config chunk) fails loudly instead of silently re-deriving different
//! subscriptions.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::path::Path;

use ebs_core::error::EbsError;
use ebs_core::ids::IdVec;
use ebs_core::io::IoEvent;
use ebs_core::metric::{ComputeMetrics, Series, StorageMetrics};
use ebs_core::time::TickSpec;
use ebs_core::topology::Fleet;
use ebs_store::columns::{decode_specs, SpecRow};
use ebs_store::format::{kind, EVENTS_PER_CHUNK};
use ebs_store::{
    decode_events_into, ByteReader, ByteWriter, ChunkReader, EventScratch, StoreWriter,
};

use crate::config::WorkloadConfig;
use crate::dataset::Dataset;
use crate::fleet::build_fleet;

/// Encode a [`WorkloadConfig`] as a store payload. Floats travel as raw
/// bits, so the round trip is exact even for non-decimal-representable
/// values.
pub fn encode_config(config: &WorkloadConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_varint(config.seed);
    w.put_varint(u64::from(config.dc_count));
    w.put_varint(u64::from(config.cns_per_dc));
    w.put_varint(u64::from(config.sns_per_dc));
    w.put_varint(u64::from(config.bss_per_sn));
    w.put_varint(u64::from(config.users_per_dc));
    w.put_varint(u64::from(config.vms_per_dc));
    w.put_f64_bits(config.duration_secs);
    w.put_f64_bits(config.compute_tick_secs);
    w.put_f64_bits(config.storage_tick_secs);
    w.put_f64_bits(config.traffic_scale);
    w.put_varint(config.dc_skew.len() as u64);
    for &s in &config.dc_skew {
        w.put_f64_bits(s);
    }
    w.put_u8(u8::from(config.whale_tenant));
    w.into_bytes()
}

/// Decode a [`WorkloadConfig`] payload. The decoded config is validated —
/// a store whose config cannot generate a fleet is reported as corrupt,
/// not handed to the generator to panic on.
pub fn decode_config(payload: &[u8]) -> Result<WorkloadConfig, EbsError> {
    let mut r = ByteReader::new(payload, "config chunk");
    let seed = r.get_varint()?;
    let dc_count = r.get_varint_u32()?;
    let cns_per_dc = r.get_varint_u32()?;
    let sns_per_dc = r.get_varint_u32()?;
    let bss_per_sn = r.get_varint_u32()?;
    let users_per_dc = r.get_varint_u32()?;
    let vms_per_dc = r.get_varint_u32()?;
    let duration_secs = r.get_f64_bits()?;
    let compute_tick_secs = r.get_f64_bits()?;
    let storage_tick_secs = r.get_f64_bits()?;
    let traffic_scale = r.get_f64_bits()?;
    let declared = r.get_varint()?;
    let skew_len = r.check_count(declared, 8)?;
    let mut dc_skew = Vec::with_capacity(skew_len);
    for _ in 0..skew_len {
        dc_skew.push(r.get_f64_bits()?);
    }
    let whale_tenant = match r.get_u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(EbsError::corrupt_store(format!(
                "config chunk: whale_tenant flag is {other}, not 0/1"
            )))
        }
    };
    r.expect_end()?;
    let config = WorkloadConfig {
        seed,
        dc_count,
        cns_per_dc,
        sns_per_dc,
        bss_per_sn,
        users_per_dc,
        vms_per_dc,
        duration_secs,
        compute_tick_secs,
        storage_tick_secs,
        traffic_scale,
        dc_skew,
        whale_tenant,
    };
    config.validate().map_err(|e| {
        EbsError::corrupt_store(format!("config chunk decodes to an invalid config: {e}"))
    })?;
    Ok(config)
}

/// The specification dataset of a fleet, one [`SpecRow`] per VD in id
/// order — what [`Dataset::save`] writes and the loader cross-checks.
///
/// A VD naming a VM outside the fleet is [`EbsError::InvalidSpec`]: every
/// builder-produced fleet satisfies the invariant, but fleets can also
/// arrive from imported CSVs, so this stays total instead of panicking.
pub fn spec_rows(fleet: &Fleet) -> Result<Vec<SpecRow>, EbsError> {
    fleet
        .vds
        .iter()
        .map(|vd| {
            let vm = fleet.vms.get(vd.vm).ok_or_else(|| {
                EbsError::invalid_spec(format!(
                    "vd names vm {} but the fleet has {} VMs",
                    vd.vm.0,
                    fleet.vms.len()
                ))
            })?;
            Ok(SpecRow {
                vm: vd.vm.0,
                app: vm.app,
                capacity_bytes: vd.spec.capacity_bytes,
                qp_count: vd.spec.qp_count,
                tput_cap: vd.spec.tput_cap,
                iops_cap: vd.spec.iops_cap,
            })
        })
        .collect()
}

impl Dataset {
    /// Persist this dataset to `path` as an ebs-store container.
    ///
    /// Chunk order is canonical (config, specs, compute metrics, storage
    /// metrics, event chunks, end), so saving the same dataset twice —
    /// or saving a loaded dataset — produces byte-identical files.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), EbsError> {
        let file = File::create(path.as_ref())?;
        let mut w = StoreWriter::new(BufWriter::new(file))?;
        w.write_chunk(kind::CONFIG, &encode_config(&self.config))?;
        w.write_specs(&spec_rows(&self.fleet)?)?;
        w.write_series(
            kind::COMPUTE_METRICS,
            self.compute.ticks,
            self.compute.per_qp.as_slice(),
        )?;
        w.write_series(
            kind::STORAGE_METRICS,
            self.storage.ticks,
            self.storage.per_seg.as_slice(),
        )?;
        w.write_events_chunked(&self.events, EVENTS_PER_CHUNK)?;
        w.finish()?;
        Ok(())
    }

    /// Load a dataset from an ebs-store container at `path`.
    ///
    /// The fleet is rebuilt deterministically from the stored
    /// config; the stored specification chunk is verified against the
    /// rebuilt fleet and every event is range-checked against it, so a
    /// corrupt or mismatched store surfaces as a typed error — never as a
    /// panic in a downstream consumer like `EventIndex::build`.
    ///
    /// The file is consumed in one streaming pass (`read_chunks`), and
    /// no metric payload is ever held whole: the metric chunks, most of
    /// the file, decode series by series through the reader's fixed window
    /// ([`ChunkReader::read_series_set`]), and the config, spec and event
    /// chunks through one small reused buffer.
    /// Peak memory is the decoded dataset plus about 1 MiB, where a
    /// whole-chunk read held a 4 MiB metric payload beside its series.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, EbsError> {
        let file = File::open(path.as_ref())?;
        let chunks = read_chunks(ChunkReader::new(BufReader::new(file))?, true)?;

        let (config, fleet) = rebuild_fleet(chunks.config, chunks.specs)?;

        let (cticks, per_qp) = require_chunk(chunks.compute, "compute metrics")?;
        check_entity_count("compute", per_qp.len(), fleet.qps.len())?;
        check_metric_grid("compute", cticks, config.compute_ticks(), &per_qp)?;
        let (sticks, per_seg) = require_chunk(chunks.storage, "storage metrics")?;
        check_entity_count("storage", per_seg.len(), fleet.segments.len())?;
        check_metric_grid("storage", sticks, config.storage_ticks(), &per_seg)?;

        let mut events = chunks.events;
        validate_events(&events, &fleet)?;
        // The vector grew chunk by chunk; the dataset keeps it exact-size.
        events.shrink_to_fit();

        Ok(Dataset {
            fleet,
            compute: ComputeMetrics {
                ticks: cticks,
                per_qp: IdVec::from_vec(per_qp),
            },
            storage: StorageMetrics {
                ticks: sticks,
                per_seg: IdVec::from_vec(per_seg),
            },
            events,
            config,
            index: Default::default(),
        })
    }
}

/// The events-only read of a single-file container (the file layout of
/// [`crate::load_events`]): the metric chunks are skipped, yet read and
/// sealed, and the config, spec-row and event checks are
/// [`Dataset::load`]'s. The vector is exact-size.
pub(crate) fn load_file_events(
    path: &Path,
) -> Result<(WorkloadConfig, Fleet, Vec<IoEvent>), EbsError> {
    let file = File::open(path)?;
    let chunks = read_chunks(ChunkReader::new(BufReader::new(file))?, false)?;
    let (config, fleet) = rebuild_fleet(chunks.config, chunks.specs)?;
    let mut events = chunks.events;
    validate_events(&events, &fleet)?;
    events.shrink_to_fit();
    Ok((config, fleet, events))
}

/// The prologue of both single-file loaders: the stored config, the fleet
/// it rebuilds, and the check that the stored spec rows describe that
/// fleet, so a store paired with another generator fails loudly.
fn rebuild_fleet(
    config: Option<WorkloadConfig>,
    specs: Option<Vec<SpecRow>>,
) -> Result<(WorkloadConfig, Fleet), EbsError> {
    let config = require_chunk(config, "config")?;
    let fleet = build_fleet(&config)?;
    let stored_specs = require_chunk(specs, "specs")?;
    let rebuilt_specs = spec_rows(&fleet)?;
    if stored_specs != rebuilt_specs {
        return Err(EbsError::corrupt_store(format!(
            "specification chunk ({} rows) does not match the fleet rebuilt \
             from the stored config ({} VDs): store and generator disagree",
            stored_specs.len(),
            rebuilt_specs.len()
        )));
    }
    Ok((config, fleet))
}

/// The chunks of one container as [`read_chunks`] decodes them: a slot
/// for each singleton chunk, and the events of every EVENTS chunk in file
/// order.
#[derive(Default)]
pub(crate) struct Chunks {
    pub(crate) config: Option<WorkloadConfig>,
    pub(crate) specs: Option<Vec<SpecRow>>,
    pub(crate) compute: Option<(TickSpec, Vec<Series>)>,
    pub(crate) storage: Option<(TickSpec, Vec<Series>)>,
    pub(crate) events: Vec<IoEvent>,
}

/// Walk `reader`'s frames to its END chunk, the one chunk loop of the
/// dataset and shard loaders: each singleton chunk fills its slot (a
/// second one is corruption), each EVENTS chunk appends its events, and
/// unknown chunks are skipped — the metric chunks too, unless
/// `with_metrics`. The events must add up to the END chunk's total.
pub(crate) fn read_chunks<R: Read>(
    mut reader: ChunkReader<R>,
    with_metrics: bool,
) -> Result<Chunks, EbsError> {
    let mut chunks = Chunks::default();
    let mut scratch = EventScratch::new();
    let mut payload = Vec::new();
    while let Some(frame) = reader.next_frame()? {
        match frame.kind {
            kind::COMPUTE_METRICS if with_metrics => set_unique(
                &mut chunks.compute,
                reader.read_series_set("compute")?,
                "compute metrics",
            )?,
            kind::STORAGE_METRICS if with_metrics => set_unique(
                &mut chunks.storage,
                reader.read_series_set("storage")?,
                "storage metrics",
            )?,
            kind::CONFIG => set_unique(
                &mut chunks.config,
                decode_config(reader.read_payload_into(&mut payload)?)?,
                "config",
            )?,
            kind::SPECS => set_unique(
                &mut chunks.specs,
                decode_specs(reader.read_payload_into(&mut payload)?)?,
                "specs",
            )?,
            kind::EVENTS => decode_events_into(
                reader.read_payload_into(&mut payload)?,
                &mut scratch,
                &mut chunks.events,
            )?,
            _ => {}
        }
    }
    let end = reader.end_summary().unwrap_or_default();
    if chunks.events.len() as u64 != end.events {
        return Err(EbsError::truncated(format!(
            "end chunk pins {} events but chunks held {}",
            end.events,
            chunks.events.len()
        )));
    }
    Ok(chunks)
}

/// Record a decoded singleton chunk; a second sighting is corruption.
fn set_unique<T>(slot: &mut Option<T>, value: T, what: &str) -> Result<(), EbsError> {
    if slot.is_some() {
        return Err(EbsError::corrupt_store(format!(
            "store has more than one {what} chunk"
        )));
    }
    *slot = Some(value);
    Ok(())
}

/// Unwrap a singleton chunk slot; absence is corruption.
fn require_chunk<T>(slot: Option<T>, what: &str) -> Result<T, EbsError> {
    slot.ok_or_else(|| EbsError::corrupt_store(format!("store has no {what} chunk")))
}

/// A metric chunk must carry exactly one series per fleet entity.
fn check_entity_count(domain: &str, got: usize, want: usize) -> Result<(), EbsError> {
    if got != want {
        return Err(EbsError::corrupt_store(format!(
            "{domain} metrics carry {got} series but the fleet has {want} entities"
        )));
    }
    Ok(())
}

/// A metric chunk must use the tick grid its config implies (`want`), and
/// every series must end inside it. The codec checks neither: it carries
/// whatever grid and ticks it is given.
pub(crate) fn check_metric_grid(
    domain: &str,
    got: TickSpec,
    want: TickSpec,
    series: &[Series],
) -> Result<(), EbsError> {
    if got != want {
        return Err(EbsError::corrupt_store(format!(
            "{domain} metrics use a {} s x {} grid but the config implies {} s x {}",
            got.tick_secs, got.ticks, want.tick_secs, want.ticks
        )));
    }
    let past = series
        .iter()
        .enumerate()
        .find_map(|(i, s)| s.last_tick().filter(|&t| t >= want.ticks).map(|t| (i, t)));
    match past {
        Some((entity, tick)) => Err(EbsError::corrupt_store(format!(
            "{domain} metrics: entity {entity} has tick {tick}, past its {}-tick grid",
            want.ticks
        ))),
        None => Ok(()),
    }
}

/// Range-check loaded events against the rebuilt fleet: timestamps sorted
/// across chunks, VD ids in range, QPs owned by the event's VD. Everything
/// `EventIndex::build` asserts is verified here first with typed errors.
pub(crate) fn validate_events(events: &[IoEvent], fleet: &Fleet) -> Result<(), EbsError> {
    let mut prev = 0u64;
    for (i, ev) in events.iter().enumerate() {
        if ev.t_us < prev {
            return Err(EbsError::corrupt_store(format!(
                "event {i} at {} us breaks the global time sort (previous {prev})",
                ev.t_us
            )));
        }
        prev = ev.t_us;
        let vd = fleet.vds.get(ev.vd).ok_or_else(|| {
            EbsError::corrupt_store(format!(
                "event {i} names vd {} but the fleet has {} disks",
                ev.vd.0,
                fleet.vds.len()
            ))
        })?;
        let qp_ok = ev.qp.0 >= vd.qp_base && ev.qp.0 < vd.qp_base + u32::from(vd.spec.qp_count);
        if !qp_ok {
            return Err(EbsError::corrupt_store(format!(
                "event {i} books qp {} which vd {} does not own",
                ev.qp.0, ev.vd.0
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    /// A scratch file path, and the directory guard that removes it.
    fn tmp(name: &str) -> (ebs_core::TempDir, std::path::PathBuf) {
        let dir = ebs_core::TempDir::new("store-test").unwrap();
        let path = dir.join(name);
        (dir, path)
    }

    #[test]
    fn config_round_trips_exactly() {
        for config in [
            WorkloadConfig::default(),
            WorkloadConfig::quick(7),
            WorkloadConfig::medium(0xDEAD_BEEF),
        ] {
            let payload = encode_config(&config);
            let back = decode_config(&payload).unwrap();
            assert_eq!(format!("{config:?}"), format!("{back:?}"));
            assert_eq!(payload, encode_config(&back));
        }
    }

    #[test]
    fn invalid_decoded_config_is_corrupt_store() {
        let mut config = WorkloadConfig::quick(1);
        config.dc_count = 0; // encodes fine, validates never
        let payload = encode_config(&config);
        assert!(matches!(
            decode_config(&payload),
            Err(EbsError::CorruptStore(_))
        ));
    }

    #[test]
    fn spec_rows_reject_vd_naming_a_missing_vm() {
        let ds = generate(&WorkloadConfig::quick(3)).unwrap();
        assert!(spec_rows(&ds.fleet).is_ok());
        let mut fleet = ds.fleet;
        fleet.vms = ebs_core::ids::IdVec::new(); // every VD now dangles
        assert!(matches!(spec_rows(&fleet), Err(EbsError::InvalidSpec(_))));
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let ds = generate(&WorkloadConfig::quick(11)).unwrap();
        let (_p1_dir, p1) = tmp("first.ebs");
        let (_p2_dir, p2) = tmp("second.ebs");
        ds.save(&p1).unwrap();
        let loaded = Dataset::load(&p1).unwrap();
        loaded.save(&p2).unwrap();
        let b1 = std::fs::read(&p1).unwrap();
        let b2 = std::fs::read(&p2).unwrap();
        assert_eq!(b1, b2, "save -> load -> save changed bytes");
    }

    #[test]
    fn loaded_dataset_matches_generated() {
        let ds = generate(&WorkloadConfig::quick(23)).unwrap();
        let (_p_dir, p) = tmp("roundtrip.ebs");
        ds.save(&p).unwrap();
        let loaded = Dataset::load(&p).unwrap();
        assert_eq!(loaded.events, ds.events);
        assert_eq!(
            loaded.compute.per_qp.as_slice(),
            ds.compute.per_qp.as_slice()
        );
        assert_eq!(
            loaded.storage.per_seg.as_slice(),
            ds.storage.per_seg.as_slice()
        );
        assert_eq!(loaded.fleet.vd_count(), ds.fleet.vd_count());
        // The rebuilt index works over loaded events (same shape as fresh).
        assert_eq!(loaded.index().len(), ds.index().len());
    }

    #[test]
    fn streaming_fold_sees_the_full_trace() {
        use ebs_store::{fold_store, StreamSummary};
        let ds = generate(&WorkloadConfig::quick(31)).unwrap();
        let (_p_dir, p) = tmp("stream.ebs");
        ds.save(&p).unwrap();
        let ticks = ds.config.storage_ticks();
        let mut streamed = StreamSummary::new(ds.fleet.vd_count(), ticks);
        let reader = ChunkReader::new(BufReader::new(File::open(&p).unwrap())).unwrap();
        let end = fold_store(reader, &mut streamed).unwrap();
        assert_eq!(end.events, ds.events.len() as u64);
        let mut direct = StreamSummary::new(ds.fleet.vd_count(), ticks);
        direct.fold_chunk(&ds.events).unwrap();
        assert_eq!(streamed.bytes(), direct.bytes());
        assert_eq!(streamed.vd_bytes(), direct.vd_bytes());
        assert_eq!(streamed.tick_bytes(), direct.tick_bytes());
    }

    #[test]
    fn tampered_spec_chunk_is_detected() {
        // Save the dataset under a config whose seed differs: the fleet
        // rebuilt from it then disagrees with the stored specs.
        let mut ds = generate(&WorkloadConfig::quick(47)).unwrap();
        ds.config.seed ^= 1;
        let (_p2_dir, p2) = tmp("tamper-forged.ebs");
        ds.save(&p2).unwrap();
        let err = Dataset::load(&p2).unwrap_err();
        assert!(matches!(err, EbsError::CorruptStore(_)), "{err}");
    }
}
