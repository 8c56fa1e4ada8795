//! Failure-injection and degenerate-input coverage: the library must fail
//! loudly on malformed input and degrade gracefully on empty input — never
//! panic, never fabricate numbers.

use ebs::core::ids::VdId;
use ebs::core::io::{IoEvent, Op};
use ebs::stack::sim::{StackConfig, StackSim};
use ebs::workload::{generate, WorkloadConfig};

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
    let mut sim = StackSim::new(&ds.fleet, StackConfig::default());
    let err = sim.run(&[rogue]).unwrap_err();
    assert!(err.to_string().contains("unknown entity"), "{err}");
}

#[test]
fn stack_rejects_unsorted_streams_before_doing_work() {
    let ds = generate(&WorkloadConfig::quick(501)).unwrap();
    let mut events = ds.events.clone();
    let last = events.len() - 1;
    events.swap(0, last);
    let mut sim = StackSim::new(&ds.fleet, StackConfig::default());
    assert!(sim.run(&events).is_err());
}

#[test]
fn empty_event_stream_yields_empty_traces() {
    let ds = generate(&WorkloadConfig::quick(502)).unwrap();
    let mut sim = StackSim::new(&ds.fleet, StackConfig::default());
    let out = sim.run(&[]).unwrap();
    assert!(out.traces.is_empty());
    assert_eq!(out.stats.ios, 0);
    assert_eq!(out.stats.mean_latency_us, 0.0);
}

#[test]
fn analyses_handle_empty_and_degenerate_inputs() {
    assert_eq!(ebs::analysis::ccr(&[], 0.01), None);
    assert_eq!(ebs::analysis::p2a(&[]), None);
    assert_eq!(ebs::analysis::normalized_cov(&[0.0, 0.0]), None);
    assert_eq!(ebs::analysis::gini(&[]), None);
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

/// Bytes of a saved quick-scale store, for corruption experiments. Tests
/// run concurrently, so every call writes its own file.
fn saved_store_bytes() -> Vec<u8> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "ebs-failinj-{}-saved{call}.ebs",
        std::process::id()
    ));
    let ds = generate(&WorkloadConfig::quick(503)).unwrap();
    ds.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// Write `bytes` to a fresh temp file, run `Dataset::load` on it, clean up.
fn load_bytes(
    bytes: &[u8],
    tag: &str,
) -> Result<ebs::workload::Dataset, ebs::core::error::EbsError> {
    let path = std::env::temp_dir().join(format!("ebs-failinj-{}-{tag}.ebs", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let out = ebs::workload::Dataset::load(&path);
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn store_truncated_at_any_sampled_prefix_is_a_typed_error_not_a_panic() {
    use ebs::core::error::EbsError;
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
    use ebs::core::error::EbsError;
    use ebs::store::{FRAME_LEN, HEADER_LEN};
    let mut bytes = saved_store_bytes();
    let at = HEADER_LEN + FRAME_LEN + 3; // inside the first chunk's payload
    bytes[at] ^= 0x20;
    let err = load_bytes(&bytes, "flip").expect_err("corrupted payload must not load");
    assert!(matches!(err, EbsError::ChecksumMismatch(_)), "{err}");
}

#[test]
fn store_wrong_magic_is_corrupt_store() {
    use ebs::core::error::EbsError;
    let mut bytes = saved_store_bytes();
    bytes[..8].copy_from_slice(b"NOTEBSST");
    let err = load_bytes(&bytes, "magic").expect_err("wrong magic must not load");
    assert!(matches!(err, EbsError::CorruptStore(_)), "{err}");
}

#[test]
fn store_future_version_is_version_skew() {
    use ebs::core::error::EbsError;
    let mut bytes = saved_store_bytes();
    bytes[8..12].copy_from_slice(&(ebs::store::VERSION + 7).to_le_bytes());
    let err = load_bytes(&bytes, "version").expect_err("future version must not load");
    assert!(matches!(err, EbsError::VersionSkew(_)), "{err}");
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
    assert!(!decode_events(2, &payload)
        .expect("intact payload decodes")
        .is_empty());
    for cut in 0..payload.len() {
        // Every strict prefix starves some column of bytes: a typed error,
        // never a panic, never a silently shortened batch.
        assert!(
            decode_events(2, &payload[..cut]).is_err(),
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
            if let Ok(events) = decode_events(2, &corrupt) {
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
    use ebs::core::error::EbsError;
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

#[test]
fn v2_series_decoder_survives_truncation_and_flips() {
    use ebs::store::{decode_series_set, encode_series_set};
    let ds = generate(&WorkloadConfig::quick(505)).unwrap();
    let payload = encode_series_set(ds.compute.ticks, ds.compute.per_qp.as_slice());
    let (ticks, series) =
        decode_series_set(2, &payload, "compute").expect("intact payload decodes");
    assert_eq!(ticks, ds.compute.ticks);
    assert_eq!(series.as_slice(), ds.compute.per_qp.as_slice());
    // Sampled strict prefixes must fail typed; sampled bit flips must fail
    // typed or decode to a well-formed set — never panic. The sparse/raw/
    // integral mode bytes all fall inside the sampled window.
    let stride = (payload.len() / 512).max(1);
    for cut in (0..payload.len()).step_by(stride) {
        assert!(
            decode_series_set(2, &payload[..cut], "compute").is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
    for at in (0..payload.len()).step_by(stride) {
        let mut corrupt = payload.clone();
        corrupt[at] ^= 0x01;
        let _ = decode_series_set(2, &corrupt, "compute");
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
