//! Failure-injection and degenerate-input coverage: the library must fail
//! loudly on malformed input and degrade gracefully on empty input — never
//! panic, never fabricate numbers.

use ebs::core::error::EbsError;
use ebs::core::ids::VdId;
use ebs::core::io::{IoEvent, Op};
use ebs::core::metric::Series;
use ebs::core::time::TickSpec;
use ebs::stack::sim::{StackConfig, StackSim};
use ebs::workload::{generate, WorkloadConfig};

/// The per-value v2 series codec the batch kernels replaced, shared with
/// `ebs-store`'s own unit tests as their differential oracle.
#[path = "../crates/ebs-store/tests/oracle/series_v2.rs"]
mod series_oracle;

/// Decode a metric payload as the loaders do: sealed as a chunk of its
/// own and read through `ChunkReader::read_series_set`'s window.
fn decode_sealed(payload: &[u8]) -> Result<(TickSpec, Vec<Series>), EbsError> {
    let mut w = ebs::store::StoreWriter::new(Vec::new()).unwrap();
    w.write_chunk(ebs::store::format::kind::COMPUTE_METRICS, payload)
        .unwrap();
    let bytes = w.finish().unwrap();
    let mut r = ebs::store::ChunkReader::new(&bytes[..]).unwrap();
    r.next_frame().unwrap().expect("one chunk");
    r.read_series_set("compute")
}

#[test]
fn stack_rejects_out_of_range_offsets() {
    let ds = generate(&WorkloadConfig::quick(500)).unwrap();
    let capacity = ds.fleet.vds[VdId(0)].spec.capacity_bytes;
    let rogue = IoEvent {
        t_us: 0,
        vd: VdId(0),
        qp: ds.fleet.vds[VdId(0)].qps().next().unwrap(),
        op: Op::Write,
        size: 4096,
        offset: capacity + (1 << 30), // far past the disk
    };
    let sim = StackSim::new(&ds.fleet, StackConfig::default());
    let err = sim.run(&[rogue]).unwrap_err();
    assert!(err.to_string().contains("unknown entity"), "{err}");
}

#[test]
fn stack_rejects_unsorted_streams_before_doing_work() {
    let ds = generate(&WorkloadConfig::quick(501)).unwrap();
    let mut events = ds.events.clone();
    let last = events.len() - 1;
    events.swap(0, last);
    let sim = StackSim::new(&ds.fleet, StackConfig::default());
    assert!(sim.run(&events).is_err());
}

#[test]
fn empty_event_stream_yields_empty_traces() {
    let ds = generate(&WorkloadConfig::quick(502)).unwrap();
    let sim = StackSim::new(&ds.fleet, StackConfig::default());
    let out = sim.run(&[]).unwrap();
    assert!(out.lat.is_empty());
    assert!(sim.run_traced(&[]).unwrap().1.is_empty());
    assert_eq!(out.stats.ios, 0);
    assert_eq!(out.stats.mean_latency_us, 0.0);
}

#[test]
fn analyses_handle_empty_and_degenerate_inputs() {
    assert_eq!(ebs::analysis::ccr(&[], 0.01), None);
    assert_eq!(ebs::analysis::p2a(&[]), None);
    assert_eq!(ebs::analysis::normalized_cov(&[0.0, 0.0]), None);
    assert_eq!(ebs::analysis::wr_ratio(0.0, 0.0), None);
    assert_eq!(ebs::analysis::median(&[]), None);
    assert_eq!(ebs::analysis::mse(&[1.0], &[1.0, 2.0]), None);
}

#[test]
fn predictors_survive_pathological_series() {
    use ebs::predict::eval::Predictor;
    let nasty: Vec<Vec<f64>> = vec![
        vec![],
        vec![0.0],
        vec![0.0; 50],
        vec![1e15; 30],
        (0..40)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1e12 })
            .collect(),
    ];
    for series in &nasty {
        let mut models: Vec<Box<dyn Predictor>> = vec![
            Box::new(ebs::predict::LinearFit::default()),
            Box::new(ebs::predict::Arima::default()),
            Box::new(ebs::predict::Gbdt::default()),
            Box::new(ebs::predict::AttentionRegressor::default()),
        ];
        for m in &mut models {
            m.fit(series);
            let p = m.predict_next(series);
            assert!(
                p.is_finite() && p >= 0.0,
                "{} on {:?}…",
                m.name(),
                series.first()
            );
        }
    }
}

#[test]
fn bad_workload_configs_are_rejected_not_misgenerated() {
    let mut c = WorkloadConfig::quick(1);
    c.vms_per_dc = 0;
    assert!(generate(&c).is_err());

    let mut c = WorkloadConfig::quick(1);
    c.compute_tick_secs = -1.0;
    assert!(generate(&c).is_err());

    let mut c = WorkloadConfig::quick(1);
    c.dc_count = 3; // dc_skew only has one entry in quick()
    assert!(generate(&c).is_err());
}

#[test]
fn non_finite_durations_and_traffic_scales_are_invalid_configs() {
    let lasting = |duration_secs| WorkloadConfig {
        duration_secs,
        ..WorkloadConfig::quick(1)
    };
    let scaled = |traffic_scale| WorkloadConfig {
        traffic_scale,
        ..WorkloadConfig::quick(1)
    };
    for c in [
        lasting(f64::NAN),
        lasting(f64::INFINITY),
        scaled(f64::NAN),
        scaled(f64::INFINITY),
        scaled(f64::NEG_INFINITY),
    ] {
        let invalid = |r: Result<(), EbsError>| matches!(r, Err(EbsError::InvalidConfig(_)));
        // `generate` runs only once `validate` has rejected the config, so
        // no generation ever sees an infinite window or scale.
        assert!(invalid(c.validate()), "validate accepted {c:?}");
        assert!(invalid(generate(&c).map(drop)), "generate accepted {c:?}");
    }
}

#[test]
fn store_config_with_a_nan_duration_is_corrupt_store() {
    let dir = ebs::core::TempDir::new("failinj-nan-duration").unwrap();
    let path = dir.join("nan.ebs");
    let mut ds = generate(&WorkloadConfig::quick(3)).unwrap();
    ds.config.duration_secs = f64::NAN;
    ds.save(&path).unwrap();
    let err = ebs::workload::Dataset::load(&path).expect_err("a NaN duration must not load");
    assert!(
        matches!(&err, EbsError::CorruptStore(msg) if msg.contains("invalid config")),
        "{err}"
    );
}

#[test]
fn csv_import_rejects_garbage() {
    use ebs::workload::export::read_events_csv;
    use std::io::BufReader;
    for bad in [
        "t_us,vd,qp,op,size,offset\nnot,a,number,R,1,2\n",
        "t_us,vd,qp,op,size,offset\n1,0,0,Q,4096,0\n",
        "t_us,vd,qp,op,size,offset\n1,0,0,R\n",
    ] {
        assert!(
            read_events_csv(BufReader::new(bad.as_bytes())).is_err(),
            "{bad:?}"
        );
    }
}

/// Bytes of a saved quick-scale store, for corruption experiments.
fn saved_store_bytes() -> Vec<u8> {
    let dir = ebs::core::TempDir::new("failinj-saved").unwrap();
    let path = dir.join("saved.ebs");
    let ds = generate(&WorkloadConfig::quick(503)).unwrap();
    ds.save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

/// Write `bytes` to a fresh temp file and run `Dataset::load` on it.
fn load_bytes(
    bytes: &[u8],
    tag: &str,
) -> Result<ebs::workload::Dataset, ebs::core::error::EbsError> {
    let dir = ebs::core::TempDir::new("failinj").unwrap();
    let path = dir.join(format!("{tag}.ebs"));
    std::fs::write(&path, bytes).unwrap();
    ebs::workload::Dataset::load(&path)
}

#[test]
fn store_truncated_at_any_sampled_prefix_is_a_typed_error_not_a_panic() {
    let bytes = saved_store_bytes();
    // Sample ~60 cut points across the file, plus the structural boundaries
    // (mid-magic, mid-version, mid-frame, first payload byte).
    let mut cuts = vec![0, 4, 10, 12, 15, 22];
    cuts.extend((1..60).map(|i| i * bytes.len() / 60));
    for cut in cuts {
        let cut = cut.min(bytes.len() - 1);
        let err = load_bytes(&bytes[..cut], &format!("cut{cut}"))
            .expect_err("a strict prefix must never load");
        assert!(
            matches!(err, EbsError::Truncated(_) | EbsError::CorruptStore(_)),
            "cut at {cut}: unexpected error class {err}"
        );
    }
}

#[test]
fn store_flipped_payload_byte_is_a_checksum_mismatch() {
    use ebs::store::{FRAME_LEN, HEADER_LEN};
    let mut bytes = saved_store_bytes();
    let at = HEADER_LEN + FRAME_LEN + 3; // inside the first chunk's payload
    bytes[at] ^= 0x20;
    let err = load_bytes(&bytes, "flip").expect_err("corrupted payload must not load");
    assert!(matches!(err, EbsError::ChecksumMismatch(_)), "{err}");
}

/// The span of the payload of the first chunk of kind `want` in a store
/// file's `bytes`.
fn payload_span(bytes: &[u8], want: u8) -> std::ops::Range<usize> {
    use ebs::store::{FRAME_LEN, HEADER_LEN};
    let mut at = HEADER_LEN;
    loop {
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
        let payload = at + FRAME_LEN..at + FRAME_LEN + len;
        if bytes[at] == want {
            return payload;
        }
        at = payload.end;
    }
}

/// Flip, in the metric payload at `span` of `bytes`, the first byte from
/// its 100th on whose flip the payload alone fails to decode.
fn flip_to_a_decode_error(bytes: &mut [u8], span: std::ops::Range<usize>) {
    let payload = &bytes[span.clone()];
    let at = (100..payload.len())
        .find(|&i| {
            let mut flipped = payload.to_vec();
            flipped[i] ^= 0x40;
            decode_sealed(&flipped).is_err()
        })
        .expect("some flip breaks the decode");
    bytes[span.start + at] ^= 0x40;
}

/// A flipped byte in a metric chunk, one its payload alone would fail to
/// decode with, is a checksum mismatch for every loader: the metric
/// chunks decode through a window, and at medium scale they span several,
/// but the seal settles before any decode error is reported.
#[test]
fn store_flipped_metric_byte_is_a_checksum_mismatch_not_a_decode_error() {
    use ebs::store::format::kind;
    use ebs::store::SERIES_WINDOW;
    let config = WorkloadConfig::medium(1);
    let dir = ebs::core::TempDir::new("failinj-metric-flip").unwrap();
    let path = dir.join("medium.ebs");
    generate(&config).unwrap().save(&path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    let sharded = dir.join("sharded");
    ebs::workload::generate_sharded(&config, &sharded, 2, true).unwrap();
    let shard = sharded.join(ebs::store::shard_file_name(1));
    let shard_bytes = std::fs::read(&shard).unwrap();
    for chunk in [kind::COMPUTE_METRICS, kind::STORAGE_METRICS] {
        let mut bytes = saved.clone();
        let span = payload_span(&bytes, chunk);
        assert!(
            span.len() > 2 * SERIES_WINDOW,
            "kind {chunk}: {} bytes",
            span.len()
        );
        flip_to_a_decode_error(&mut bytes, span);
        let err = load_bytes(&bytes, "metric-flip").expect_err("corrupted payload must not load");
        assert!(
            matches!(err, EbsError::ChecksumMismatch(_)),
            "kind {chunk}: {err}"
        );

        let mut bytes = shard_bytes.clone();
        let span = payload_span(&bytes, chunk);
        assert!(
            span.len() > SERIES_WINDOW,
            "shard kind {chunk}: {} bytes",
            span.len()
        );
        flip_to_a_decode_error(&mut bytes, span);
        std::fs::write(&shard, bytes).unwrap();
        let err =
            ebs::workload::Dataset::load_sharded(&sharded).expect_err("corrupted shard loaded");
        assert!(
            matches!(err, EbsError::ChecksumMismatch(_)),
            "shard kind {chunk}: {err}"
        );
    }
}

#[test]
fn store_wrong_magic_is_corrupt_store() {
    let mut bytes = saved_store_bytes();
    bytes[..8].copy_from_slice(b"NOTEBSST");
    let err = load_bytes(&bytes, "magic").expect_err("wrong magic must not load");
    assert!(matches!(err, EbsError::CorruptStore(_)), "{err}");
}

#[test]
fn store_future_version_is_version_skew() {
    use ebs::store::VERSION;
    // The retired v1 and any newer version are skew, reported with the one
    // version this reader reads; v0 was never a format, so it is corrupt.
    let mut bytes = saved_store_bytes();
    for version in [1, VERSION + 7, 0] {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let err = load_bytes(&bytes, "version").expect_err("foreign version must not load");
        match err {
            EbsError::VersionSkew(msg) if version != 0 => {
                assert!(msg.contains(&format!("reads only v{VERSION}")), "{msg}");
            }
            EbsError::CorruptStore(_) if version == 0 => {}
            other => panic!("header v{version}: {other}"),
        }
    }
}

#[test]
fn store_metric_grid_contradicting_the_config_is_corrupt_store() {
    use ebs::core::ids::QpId;
    use ebs::core::metric::{Flow, Series};
    use ebs::core::time::TickSpec;
    let dir = ebs::core::TempDir::new("failinj-grid").unwrap();
    let path = dir.join("grid.ebs");
    let mut ds = generate(&WorkloadConfig::quick(3)).unwrap();
    let grid = ds.compute.ticks;
    assert_eq!(grid, ds.config.compute_ticks());
    // A grid the stored config does not imply, which the series overrun.
    ds.compute.ticks = TickSpec::new(35.0, 2);
    ds.save(&path).unwrap();
    let err = ebs::workload::Dataset::load(&path).expect_err("a foreign grid must not load");
    assert!(matches!(err, EbsError::CorruptStore(_)), "{err}");
    // The config's own grid, with one series ticking past its end.
    ds.compute.ticks = grid;
    let flow = Flow {
        bytes: 4096.0,
        ops: 1.0,
    };
    ds.compute.per_qp[QpId(0)] = Series::from_sides([(grid.ticks, flow)], []).unwrap();
    ds.save(&path).unwrap();
    let err = ebs::workload::Dataset::load(&path).expect_err("a tick past the grid must not load");
    assert!(
        matches!(&err, EbsError::CorruptStore(msg) if msg.contains("past its")),
        "{err}"
    );
}

/// A quick-scale config whose compute grid is one tick longer than a
/// series can address.
fn config_past_the_tick_range() -> WorkloadConfig {
    let mut c = WorkloadConfig::quick(3);
    c.duration_secs = f64::from(ebs::core::time::MAX_TICKS + 1);
    c.compute_tick_secs = 1.0;
    assert_eq!(c.compute_ticks().ticks, 65_537);
    c
}

#[test]
fn store_generate_rejects_a_grid_past_the_series_tick_range() {
    let err = generate(&config_past_the_tick_range()).expect_err("a 65,537-tick grid");
    assert!(
        matches!(&err, EbsError::InvalidConfig(msg) if msg.contains("65537 ticks")),
        "{err}"
    );
}

#[test]
fn store_config_declaring_a_grid_past_the_series_tick_range_is_corrupt_store() {
    let dir = ebs::core::TempDir::new("failinj-tick-range").unwrap();
    let path = dir.join("range.ebs");
    let mut ds = generate(&WorkloadConfig::quick(3)).unwrap();
    // The config and the compute metrics agree on the grid; only its
    // length is past what a series tick addresses.
    ds.config = config_past_the_tick_range();
    ds.compute.ticks = ds.config.compute_ticks();
    ds.save(&path).unwrap();
    let err = ebs::workload::Dataset::load(&path).expect_err("a 65,537-tick grid must not load");
    assert!(
        matches!(&err, EbsError::CorruptStore(msg) if msg.contains("invalid config")),
        "{err}"
    );
}

/// A quick-scale sharded store (two shards, with metrics, so every
/// reader gets past the metric checks), for tampering.
fn sharded_store(tag: &str) -> ebs::core::TempDir {
    let dir = ebs::core::TempDir::new(&format!("failinj-{tag}")).unwrap();
    ebs::workload::generate_sharded(&WorkloadConfig::quick(505), &dir, 2, true).unwrap();
    dir
}

/// Rewrite shard file `index` of the sharded store in `dir`, writing the
/// chunk at each position `copies(position, kind)` times. Event chunks
/// are re-encoded, so the END chunk pins exactly the events kept and only
/// the manifest can tell a shard lost some.
fn rewrite_shard(dir: &std::path::Path, index: usize, copies: impl Fn(usize, u8) -> usize) {
    use ebs::store::format::kind;
    use ebs::store::{decode_events_into, ChunkReader, EventScratch, StoreWriter};
    let path = dir.join(ebs::store::shard_file_name(index));
    let bytes = std::fs::read(&path).unwrap();
    let mut reader = ChunkReader::new(bytes.as_slice()).unwrap();
    let mut writer = StoreWriter::new(Vec::new()).unwrap();
    let (mut buf, mut scratch) = (Vec::new(), EventScratch::new());
    let mut position = 0;
    while let Some(frame) = reader.next_frame().unwrap() {
        let payload = reader.read_payload_into(&mut buf).unwrap();
        for _ in 0..copies(position, frame.kind) {
            if frame.kind == kind::EVENTS {
                let mut events = Vec::new();
                decode_events_into(payload, &mut scratch, &mut events).unwrap();
                writer.write_events(&events).unwrap();
            } else {
                writer.write_chunk(frame.kind, payload).unwrap();
            }
        }
        position += 1;
    }
    std::fs::write(&path, writer.finish().unwrap()).unwrap();
}

/// Every sharded-store reader — the full load, the streaming summary and
/// the serve loop's events-only load — refuses the store in `dir` with a
/// typed `CorruptStore` that names `shard` and says `why`.
fn assert_every_sharded_reader_blames(dir: &std::path::Path, shard: usize, why: &str) {
    use ebs::serve::{load, ServeSource};
    let name = ebs::store::shard_file_name(shard);
    let results = [
        (
            "Dataset::load_sharded",
            ebs::workload::Dataset::load_sharded(dir).map(drop),
        ),
        (
            "replay_summary",
            ebs::workload::replay_summary(dir).map(drop),
        ),
        (
            "serve load",
            load(&ServeSource::ShardedStore(dir.to_path_buf())).map(drop),
        ),
    ];
    for (reader, result) in results {
        match result {
            Err(EbsError::CorruptStore(msg)) => assert!(
                msg.contains(&name) && msg.contains(why),
                "{reader}: {msg} does not name {name} or say {why:?}"
            ),
            other => panic!("{reader}: expected a CorruptStore naming {name}, got {other:?}"),
        }
    }
}

#[test]
fn sharded_store_with_swapped_shard_files_is_corrupt_store() {
    let dir = sharded_store("swapped");
    let a = dir.join(ebs::store::shard_file_name(0));
    let b = dir.join(ebs::store::shard_file_name(1));
    let tmp = dir.join("swap.tmp");
    std::fs::rename(&a, &tmp).unwrap();
    std::fs::rename(&b, &a).unwrap();
    std::fs::rename(&tmp, &b).unwrap();
    // Shard 0's file now holds shard 1's SHARD_META.
    assert_every_sharded_reader_blames(&dir, 0, "claims shard 1");
}

#[test]
fn sharded_store_shard_not_opening_with_its_meta_is_corrupt_store() {
    let dir = sharded_store("no-meta");
    rewrite_shard(&dir, 1, |at, _| usize::from(at != 0)); // chunk 0 is the SHARD_META
    assert_every_sharded_reader_blames(&dir, 1, "does not start with a SHARD_META chunk");
}

#[test]
fn sharded_store_shard_short_of_its_pinned_events_is_corrupt_store() {
    let dir = sharded_store("short");
    rewrite_shard(&dir, 1, |at, _| usize::from(at != 1)); // chunk 1 is the first EVENTS chunk
    assert_every_sharded_reader_blames(&dir, 1, "manifest pins");
}

/// A shard holding its storage metrics twice does not load: the loader
/// refuses a second singleton chunk instead of keeping the last one. The
/// events-only readers skip metric chunks, so only the full load sees it.
#[test]
fn sharded_store_shard_with_a_duplicated_metric_chunk_is_corrupt_store() {
    use ebs::store::format::kind;
    let dir = sharded_store("duplicated-metrics");
    rewrite_shard(
        &dir,
        1,
        |_, k| if k == kind::STORAGE_METRICS { 2 } else { 1 },
    );
    let err = ebs::workload::Dataset::load_sharded(&dir).map(drop);
    assert!(
        matches!(&err, Err(EbsError::CorruptStore(msg)) if msg.contains("more than one storage")),
        "{err:?}"
    );
}

/// `bytes` of a store file with its END chunk rewritten to pin `extra`
/// more events than it did: every chunk and seal stays intact, so only
/// the event total can show that events went missing.
fn with_end_pinning_more_events(bytes: &[u8], extra: u64) -> Vec<u8> {
    use ebs::store::format::kind;
    use ebs::store::{ByteReader, ByteWriter, FRAME_LEN, HEADER_LEN};
    let mut at = HEADER_LEN;
    while bytes[at] != kind::END {
        at += FRAME_LEN + u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
    }
    let mut end = ByteReader::new(&bytes[at + FRAME_LEN..], "end chunk");
    let (chunks, events) = (end.get_varint().unwrap(), end.get_varint().unwrap());
    let mut w = ByteWriter::new();
    w.put_varint(chunks);
    w.put_varint(events + extra);
    let payload = w.into_bytes();
    let mut out = bytes[..at].to_vec();
    out.push(kind::END);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&ebs::store::seal::seal32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// A store or a shard whose END chunk pins more events than its chunks
/// hold is `Truncated`: the one chunk loop checks the total for both.
#[test]
fn store_and_shard_short_of_their_end_event_total_are_truncated() {
    let bytes = with_end_pinning_more_events(&saved_store_bytes(), 1);
    let err = load_bytes(&bytes, "end-total").map(drop);
    assert!(matches!(err, Err(EbsError::Truncated(_))), "{err:?}");

    let dir = sharded_store("end-total");
    let path = dir.join(ebs::store::shard_file_name(1));
    let forged = with_end_pinning_more_events(&std::fs::read(&path).unwrap(), 1);
    std::fs::write(&path, forged).unwrap();
    let err = ebs::workload::Dataset::load_sharded(&dir).map(drop);
    assert!(matches!(err, Err(EbsError::Truncated(_))), "{err:?}");
}

/// A flipped byte in a metric chunk that the streaming readers skip is
/// still a checksum mismatch: a skipped payload is read and sealed.
#[test]
fn store_flipped_byte_in_a_skipped_metric_chunk_is_a_checksum_mismatch() {
    use ebs::store::format::kind;
    use ebs::store::{fold_store, ChunkReader, StoreStats, StreamSummary};
    let mut bytes = saved_store_bytes();
    let span = payload_span(&bytes, kind::STORAGE_METRICS);
    bytes[span.start + span.len() / 2] ^= 0x10;
    let mut summary = StreamSummary::new(1 << 16, TickSpec::new(1.0, 1));
    let folded = fold_store(ChunkReader::new(bytes.as_slice()).unwrap(), &mut summary);
    assert!(
        matches!(folded, Err(EbsError::ChecksumMismatch(_))),
        "{folded:?}"
    );
    let scanned = StoreStats::scan(bytes.as_slice());
    assert!(
        matches!(scanned, Err(EbsError::ChecksumMismatch(_))),
        "{scanned:?}"
    );
}

/// One real v2 EVENTS payload (a few hundred events), for decoder fuzzing
/// below the frame-seal layer — the corruption the seal cannot catch.
fn v2_events_payload() -> Vec<u8> {
    use ebs::store::EventScratch;
    let ds = generate(&WorkloadConfig::quick(504)).unwrap();
    let slice = &ds.events[..ds.events.len().min(700)];
    let mut scratch = EventScratch::new();
    let (payload, _) = ebs::store::columns::encode_events_v2(slice, &mut scratch).unwrap();
    payload
}

#[test]
fn v2_event_decoder_rejects_truncation_at_every_length() {
    use ebs::store::decode_events;
    let payload = v2_events_payload();
    assert!(!decode_events(&payload)
        .expect("intact payload decodes")
        .is_empty());
    for cut in 0..payload.len() {
        // Every strict prefix starves some column of bytes: a typed error,
        // never a panic, never a silently shortened batch.
        assert!(
            decode_events(&payload[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
}

#[test]
fn v2_event_decoder_survives_every_single_byte_flip() {
    use ebs::store::{decode_events, MAX_CHUNK_EVENTS};
    let payload = v2_events_payload();
    for at in 0..payload.len() {
        for flip in [0x01u8, 0x80] {
            let mut corrupt = payload.clone();
            corrupt[at] ^= flip;
            // The frame seal catches these in a real container; fed straight
            // to the decoder they must still produce a typed error or a
            // well-formed batch — never a panic or an unbounded allocation.
            if let Ok(events) = decode_events(&corrupt) {
                assert!(
                    events.len() <= MAX_CHUNK_EVENTS,
                    "flip at {at} over-allocated"
                );
            }
        }
    }
}

#[test]
fn v2_column_shift_corruptions_are_typed_errors() {
    use ebs::store::codec::{column_tag, decode_column_into, encode_column, encode_group_varint};
    use ebs::store::{ByteReader, ByteWriter};

    // A 12-bit-aligned column carries its alignment in the shift byte.
    let vals: Vec<u64> = (1..200u64).map(|v| v << 12).collect();
    let mut w = ByteWriter::new();
    encode_column(&mut w, &vals);
    let bytes = w.into_bytes();
    assert_eq!(bytes[1], 12, "encoder should detect the 12-bit alignment");

    // Shift byte pushed out of range → CorruptStore.
    let mut wide = bytes;
    wide[1] = 64;
    let mut out = Vec::new();
    let err = decode_column_into(&mut ByteReader::new(&wide, "shift"), vals.len(), &mut out)
        .expect_err("shift 64 must not decode");
    assert!(matches!(err, EbsError::CorruptStore(_)), "{err}");

    // A nonzero shift over an all-even body is non-canonical → CorruptStore.
    let packed: Vec<u64> = (1..100u64).map(|v| v * 2).collect();
    let mut w = ByteWriter::new();
    w.put_u8(column_tag::GROUP_VARINT);
    w.put_u8(4);
    encode_group_varint(&mut w, &packed);
    let noncanon = w.into_bytes();
    let err = decode_column_into(
        &mut ByteReader::new(&noncanon, "canon"),
        packed.len(),
        &mut out,
    )
    .expect_err("non-canonical shift must not decode");
    assert!(matches!(err, EbsError::CorruptStore(_)), "{err}");

    // An unknown codec tag → CorruptStore.
    let unknown = [9u8, 0, 1, 2, 3];
    let err = decode_column_into(&mut ByteReader::new(&unknown, "tag"), 1, &mut out)
        .expect_err("unknown tag must not decode");
    assert!(matches!(err, EbsError::CorruptStore(_)), "{err}");
}

/// Every sample of a decoded domain as bits, so flipped payloads that
/// decode to NaNs still compare.
fn series_bits(series: &[ebs::core::metric::Series]) -> Vec<(u32, [u64; 4])> {
    series
        .iter()
        .flat_map(|s| s.samples())
        .map(|sm| {
            let f = [
                sm.rw.read.bytes,
                sm.rw.read.ops,
                sm.rw.write.bytes,
                sm.rw.write.ops,
            ];
            (sm.tick, f.map(f64::to_bits))
        })
        .collect()
}

#[test]
fn v2_series_decoder_survives_truncation_and_flips() {
    use ebs::store::encode_series_set;
    let ds = generate(&WorkloadConfig::quick(505)).unwrap();
    let payload = encode_series_set(ds.compute.ticks, ds.compute.per_qp.as_slice());
    assert_eq!(
        payload,
        series_oracle::encode(ds.compute.ticks, ds.compute.per_qp.as_slice()),
        "batch encoder diverged from the per-value reference"
    );
    let (ticks, series) = decode_sealed(&payload).expect("intact payload decodes");
    assert_eq!(ticks, ds.compute.ticks);
    assert_eq!(series.as_slice(), ds.compute.per_qp.as_slice());
    // Sampled strict prefixes must fail typed; sampled bit flips must fail
    // typed or decode to a well-formed set — never panic. Either way the
    // loaders' windowed decoder must land where the per-value reference
    // lands: the same error variant, or the same bits. The
    // sparse/raw/integral mode bytes all fall inside the sampled window.
    let same_outcome = |bytes: &[u8], what: &str| match (
        decode_sealed(bytes),
        series_oracle::decode(bytes, "compute"),
    ) {
        (Ok((gt, got)), Ok((wt, want))) => {
            assert_eq!(gt, wt, "{what}");
            assert_eq!(series_bits(&got), series_bits(&want), "{what}");
        }
        (Err(got), Err(want)) => assert_eq!(
            std::mem::discriminant(&got),
            std::mem::discriminant(&want),
            "{what}: loader {got} vs reference {want}"
        ),
        (got, want) => panic!("{what}: loader {got:?} vs reference {want:?}"),
    };
    let stride = (payload.len() / 512).max(1);
    for cut in (0..payload.len()).step_by(stride) {
        assert!(
            decode_sealed(&payload[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
        same_outcome(&payload[..cut], &format!("prefix of {cut} bytes"));
    }
    for at in (0..payload.len()).step_by(stride) {
        let mut corrupt = payload.clone();
        corrupt[at] ^= 0x01;
        same_outcome(&corrupt, &format!("flip at {at}"));
    }
}

#[test]
fn cache_simulation_of_idle_vd_reports_no_ratio() {
    use ebs::cache::simulate::{simulate, HitStats};
    use ebs::cache::LruCache;
    let mut lru = LruCache::new(16);
    let stats = simulate(&mut lru, &[]);
    assert_eq!(
        stats,
        HitStats {
            accesses: 0,
            hits: 0
        }
    );
    assert_eq!(stats.ratio(), None);
}

#[test]
fn throttle_groups_with_zero_caps_never_divide_by_zero() {
    // rar_samples guards total_cap <= 0 explicitly.
    use ebs::throttle::rar::rar_samples;
    use ebs::throttle::scenario::{GroupKind, ThrottleGroup, VdSeries};
    let g = ThrottleGroup {
        kind: GroupKind::MultiVdVm(ebs::core::ids::VmId(0)),
        members: vec![VdSeries {
            vd: VdId(0),
            read: vec![1.0],
            write: vec![1.0],
            cap: 0.0,
        }],
        ticks: 1,
    };
    assert!(rar_samples(&g).is_empty());
}
