//! Workspace-level property tests: invariants that must hold for *any*
//! input, not just the canonical scenarios.

use ebs::analysis::{ccr, normalized_cov, p2a, quantile, Histogram};
use ebs::cache::policy::CachePolicy;
use ebs::cache::{FifoCache, FrozenCache, LruCache};
use ebs::core::io::Op;
use ebs::stack::TokenBucket;
use proptest::prelude::*;

/// The row-per-sample reference series, which builds series row by row;
/// its readers go unused here.
#[allow(dead_code)]
#[path = "../crates/ebs-core/tests/oracle/series.rs"]
mod series_oracle;

proptest! {
    #[test]
    fn ccr_is_monotone_in_fraction(
        values in prop::collection::vec(0.0f64..1e9, 2..50),
        f1 in 0.01f64..0.5,
        f2 in 0.5f64..1.0,
    ) {
        prop_assume!(values.iter().sum::<f64>() > 0.0);
        let a = ccr(&values, f1).unwrap();
        let b = ccr(&values, f2).unwrap();
        prop_assert!(b >= a - 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&a));
    }

    #[test]
    fn normalized_cov_stays_in_unit_interval(
        values in prop::collection::vec(0.0f64..1e9, 2..40),
    ) {
        if let Some(c) = normalized_cov(&values) {
            prop_assert!((0.0..=1.0).contains(&c), "CoV {c}");
        }
    }

    #[test]
    fn p2a_at_least_one(values in prop::collection::vec(0.0f64..1e6, 1..100)) {
        if let Some(p) = p2a(&values) {
            prop_assert!(p >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        values in prop::collection::vec(-1e6f64..1e6, 1..60),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&values, lo).unwrap();
        let b = quantile(&values, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
    }

    #[test]
    fn lru_capacity_and_residency_invariants(
        capacity in 1usize..32,
        accesses in prop::collection::vec(0u64..64, 1..400),
    ) {
        let mut lru = LruCache::new(capacity);
        for (i, &page) in accesses.iter().enumerate() {
            lru.access(page, Op::Read);
            prop_assert!(lru.len() <= capacity, "step {i}: over capacity");
            // A page accessed twice in a row always hits the second time.
            prop_assert!(lru.access(page, Op::Read), "immediate re-access must hit");
        }
    }

    #[test]
    fn fifo_never_exceeds_capacity_and_repeats_hit_within_capacity(
        capacity in 1usize..32,
        accesses in prop::collection::vec(0u64..16, 1..300),
    ) {
        let mut fifo = FifoCache::new(capacity);
        for &page in &accesses {
            fifo.access(page, Op::Write);
            prop_assert!(fifo.len() <= capacity);
        }
        // With 16 distinct pages and capacity >= 16, everything is resident.
        if capacity >= 16 {
            for &page in &accesses {
                prop_assert!(fifo.access(page, Op::Read));
            }
        }
    }

    #[test]
    fn frozen_cache_is_exactly_its_range(
        first in 0u64..1000,
        pages in 1u64..64,
        probes in prop::collection::vec(0u64..2000, 1..100),
    ) {
        let mut frozen = FrozenCache::new(first, pages);
        for &p in &probes {
            let expect = p >= first && p < first + pages;
            prop_assert_eq!(frozen.access(p, Op::Read), expect);
        }
        prop_assert_eq!(frozen.len(), pages as usize);
    }

    #[test]
    fn token_bucket_never_admits_above_rate(
        rate in 100.0f64..1e6,
        amounts in prop::collection::vec(1.0f64..1e5, 1..200),
    ) {
        let mut bucket = TokenBucket::new(rate, rate);
        let mut t_us = 0.0;
        let mut admitted = 0.0;
        for &a in &amounts {
            let delay = bucket.admit(t_us, a);
            admitted += a;
            t_us += delay;
        }
        // Long-run throughput ≤ rate plus the initial burst allowance.
        let elapsed_secs = t_us / 1e6;
        prop_assert!(
            admitted <= rate * elapsed_secs + rate + 1e-6,
            "admitted {admitted} over {elapsed_secs}s at rate {rate}"
        );
    }

    #[test]
    fn zipf_weights_normalize_for_any_shape(
        n in 1usize..200,
        s in 0.0f64..4.0,
    ) {
        let w = ebs::workload::dist::zipf::zipf_weights(n, s);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        for pair in w.windows(2) {
            prop_assert!(pair[0] >= pair[1] - 1e-15);
        }
    }

    #[test]
    fn fx_hash_is_stable_and_outputs_are_insertion_order_independent(
        keys in prop::collection::vec(0u64..100_000, 1..150),
    ) {
        use ebs::core::hash::{FxBuildHasher, FxHashMap};
        use std::hash::BuildHasher;
        let hash_of = |k: &u64| FxBuildHasher.hash_one(k);
        // No hidden per-instance or per-process state: rehashing agrees.
        for k in &keys {
            prop_assert_eq!(hash_of(k), hash_of(k));
        }
        // Populate two maps in opposite insertion orders; every
        // order-independent reduction the hot paths rely on must agree.
        let mut fwd: FxHashMap<u64, u64> = FxHashMap::default();
        let mut rev: FxHashMap<u64, u64> = FxHashMap::default();
        for &k in &keys {
            fwd.insert(k, k.wrapping_mul(3));
        }
        for &k in keys.iter().rev() {
            rev.insert(k, k.wrapping_mul(3));
        }
        prop_assert_eq!(fwd.len(), rev.len());
        let sorted = |m: &FxHashMap<u64, u64>| {
            let mut v: Vec<(u64, u64)> = m.iter().map(|(&k, &x)| (k, x)).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(sorted(&fwd), sorted(&rev));
        // Max over a total order (the hottest-block reduction shape).
        prop_assert_eq!(
            fwd.iter().max_by_key(|&(&k, &x)| (x, std::cmp::Reverse(k))).map(|(&k, _)| k),
            rev.iter().max_by_key(|&(&k, &x)| (x, std::cmp::Reverse(k))).map(|(&k, _)| k)
        );
    }

    #[test]
    fn wr_ratio_bounds_hold(w in 0.0f64..1e12, r in 0.0f64..1e12) {
        if let Some(x) = ebs::analysis::wr_ratio(w, r) {
            prop_assert!((-1.0..=1.0).contains(&x));
            if w > r {
                prop_assert!(x > 0.0);
            }
        }
    }
}

/// A histogram sample drawn from raw bits: one in eight is a special
/// value (signed zeros, NaN, +∞, just under and far over the bucket
/// domain), the rest log-uniform over [2^-12, 2^56), which straddles both
/// of its edges.
fn hist_sample(u: u64) -> f64 {
    if u.is_multiple_of(8) {
        let special = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            2f64.powi(-11),
            2f64.powi(60),
        ];
        return special[(u / 8 % 6) as usize];
    }
    f64::from_bits(((1023 - 12 + (u >> 52) % 68) << 52) | (u & ((1 << 52) - 1)))
}

proptest! {
    #[test]
    fn histogram_counts_merge_and_quantiles_hold(
        raw in prop::collection::vec(any::<u64>(), 0..300),
        cut in 0usize..300,
        q in 0.0f64..1.0,
    ) {
        let xs: Vec<f64> = raw.iter().map(|&u| hist_sample(u)).collect();
        let mut whole = Histogram::new();
        whole.extend(xs.iter().copied());
        let in_buckets: u64 = whole.buckets().map(|(_, _, c)| c).sum();
        prop_assert_eq!(
            whole.total(),
            whole.underflow() + whole.overflow() + whole.invalid() + in_buckets
        );
        prop_assert_eq!(whole.total(), xs.len() as u64);

        let (left, right) = xs.split_at(cut.min(xs.len()));
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        a.extend(left.iter().copied());
        b.extend(right.iter().copied());
        let mut ba = b.clone();
        ba.merge(&a);
        a.merge(&b);
        prop_assert_eq!(&a, &whole);
        prop_assert_eq!(&ba, &whole);

        // Nearest-rank oracle over the valid (non-NaN, non-negative) samples.
        let mut valid: Vec<f64> = xs.iter().copied().filter(|x| *x >= 0.0).collect();
        valid.sort_by(f64::total_cmp);
        for q in [q, 0.5, 0.99, 1.0] {
            let got = whole.quantile(q);
            let rank = ((q * valid.len() as f64).ceil() as usize).max(1);
            let Some(&exact) = valid.get(rank - 1) else {
                prop_assert_eq!(got, 0.0);
                continue;
            };
            if (2f64.powi(-10)..2f64.powi(54)).contains(&exact) {
                prop_assert!(
                    exact < got && got <= exact * (1.0 + 1.0 / 16.0),
                    "q {q}: exact {exact}, bucket edge {got}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Store codec properties (DESIGN.md §14): the v2 column kernels must
// round-trip any column, price themselves exactly, and re-encode decoded
// data byte-identically (the canonicality contract).
// ---------------------------------------------------------------------------

/// Encode → decode → re-encode one tagged column, checking value equality,
/// both size oracles, and byte-identical re-encoding.
fn assert_column_roundtrip(vals: &[u64]) {
    use ebs::store::codec::{decode_column_into, encode_column, encoded_column_size};
    use ebs::store::{ByteReader, ByteWriter};
    let mut w = ByteWriter::new();
    let written = encode_column(&mut w, vals);
    let bytes = w.into_bytes();
    assert_eq!(written as usize, bytes.len());
    assert_eq!(
        encoded_column_size(vals),
        bytes.len(),
        "size oracle diverged"
    );
    let mut r = ByteReader::new(&bytes, "prop column");
    let mut out = Vec::new();
    let consumed = decode_column_into(&mut r, vals.len(), &mut out).expect("round-trip decode");
    assert_eq!(
        consumed as usize,
        bytes.len(),
        "decoder left trailing bytes"
    );
    assert_eq!(out, vals);
    let mut w2 = ByteWriter::new();
    encode_column(&mut w2, &out);
    assert_eq!(w2.into_bytes(), bytes, "re-encode not byte-identical");
}

/// Mask `raw` down to `width` significant bits (1..=64).
fn masked(raw: &[u64], width: u32) -> Vec<u64> {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    raw.iter().map(|&v| v & mask).collect()
}

proptest! {
    #[test]
    fn zigzag_is_a_bijection(u in any::<u64>()) {
        use ebs::store::codec::{unzigzag, zigzag};
        prop_assert_eq!(zigzag(unzigzag(u)), u);
        let v = u as i64;
        prop_assert_eq!(unzigzag(zigzag(v)), v);
    }

    #[test]
    fn group_varint_roundtrips_any_width_mix(
        raw in prop::collection::vec(any::<u64>(), 0..260),
        width in 1u32..65,
    ) {
        use ebs::store::codec::{decode_group_varint_into, encode_group_varint, group_varint_size};
        use ebs::store::{ByteReader, ByteWriter};
        let vals = masked(&raw, width);
        let mut w = ByteWriter::new();
        encode_group_varint(&mut w, &vals);
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len(), group_varint_size(&vals), "size oracle diverged");
        let mut r = ByteReader::new(&bytes, "gv prop");
        let mut out = Vec::new();
        decode_group_varint_into(&mut r, vals.len(), &mut out).expect("gv decode");
        prop_assert_eq!(out, vals);
    }

    #[test]
    fn frame_of_reference_roundtrips_any_width_mix(
        raw in prop::collection::vec(any::<u64>(), 0..260),
        width in 1u32..65,
    ) {
        use ebs::store::codec::{decode_for_into, encode_for, for_size};
        use ebs::store::{ByteReader, ByteWriter};
        let vals = masked(&raw, width);
        let mut w = ByteWriter::new();
        encode_for(&mut w, &vals);
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len(), for_size(&vals), "size oracle diverged");
        let mut r = ByteReader::new(&bytes, "for prop");
        let mut out = Vec::new();
        decode_for_into(&mut r, vals.len(), &mut out).expect("for decode");
        prop_assert_eq!(out, vals);
    }

    #[test]
    fn tagged_column_roundtrips_with_any_alignment(
        raw in prop::collection::vec(any::<u64>(), 0..260),
        width in 1u32..65,
        shift in 0u32..16,
    ) {
        // Shifting left after masking plants the alignment the encoder's
        // shift byte is meant to recover.
        let vals: Vec<u64> = masked(&raw, width)
            .iter()
            .map(|&v| v.wrapping_shl(shift))
            .collect();
        assert_column_roundtrip(&vals);
    }

    #[test]
    fn v2_event_batches_roundtrip(
        raw in prop::collection::vec(any::<u64>(), 0..300),
    ) {
        use ebs::core::ids::{QpId, VdId};
        use ebs::core::io::{IoEvent, Op};
        use ebs::store::columns::encode_events_v2;
        use ebs::store::{decode_events, EventScratch};
        // Derive every field from one u64 so timestamps stay sorted while
        // offsets mix alignments (0/9/18/27-bit) across VDs.
        let mut t = 0u64;
        let events: Vec<IoEvent> = raw
            .iter()
            .map(|&bits| {
                t += bits & 0xFFFF;
                IoEvent {
                    t_us: t,
                    vd: VdId((bits >> 16) as u32 & 0x3F),
                    qp: QpId((bits >> 22) as u32 & 0xFF),
                    op: if (bits >> 30) & 1 == 1 { Op::Write } else { Op::Read },
                    size: ((bits >> 31) & 0xF_FFFF) as u32,
                    offset: (bits >> 40) << ((bits & 3) * 9),
                }
            })
            .collect();
        let mut scratch = EventScratch::new();
        let (v2, _) = encode_events_v2(&events, &mut scratch).expect("v2 encode");
        prop_assert_eq!(decode_events(&v2).expect("v2 decode"), events);
    }
}

/// The quick dataset the store round-trip cases edit, generated once.
fn quick_dataset() -> &'static ebs::workload::Dataset {
    static DS: std::sync::OnceLock<ebs::workload::Dataset> = std::sync::OnceLock::new();
    DS.get_or_init(|| ebs::workload::generate(&ebs::workload::WorkloadConfig::quick(4243)).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Dataset::load(save(ds)) == ds` for a dataset whose first compute
    /// and storage series are rebuilt from rows pushed into the reference
    /// series: repeated ticks, signed zeros, and flows that cancel a tick
    /// to zero.
    #[test]
    fn dataset_store_roundtrip_is_the_identity(
        pushes in prop::collection::vec((0u32..3, 0usize..6, 0usize..6), 1..80),
    ) {
        use ebs::core::metric::{Flow, RwFlow};
        const FIELD: [f64; 6] = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0];
        let flow = |i: usize| Flow { bytes: FIELD[i], ops: FIELD[(i + 2) % 6] };
        let mut reference = series_oracle::Series::new();
        let mut tick = 0;
        for &(step, read, write) in &pushes {
            tick += step;
            reference.push(tick, RwFlow { read: flow(read), write: flow(write) });
        }
        let series = reference.to_split();
        let mut ds = quick_dataset().clone();
        *ds.compute.per_qp.iter_mut().next().unwrap() = series.clone();
        *ds.storage.per_seg.iter_mut().next().unwrap() = series;
        let tmp = ebs::core::TempDir::new("prop-roundtrip").unwrap();
        let path = tmp.join("ds.ebs");
        ds.save(&path).unwrap();
        let loaded = ebs::workload::Dataset::load(&path).unwrap();
        prop_assert_eq!(loaded.compute.per_qp.as_slice(), ds.compute.per_qp.as_slice());
        prop_assert_eq!(loaded.storage.per_seg.as_slice(), ds.storage.per_seg.as_slice());
        prop_assert_eq!(loaded.events, ds.events);
    }
}

#[test]
fn adversarial_columns_roundtrip_exactly() {
    let mut columns: Vec<Vec<u64>> = vec![
        vec![],
        vec![0],
        vec![u64::MAX],
        vec![42; 513],
        (0..400).collect(),
        (0..400).rev().collect(),
        (0..300)
            .map(|i| if i % 2 == 0 { 0 } else { u64::MAX })
            .collect(),
        (0..130).map(|i| 1u64 << (i % 64)).collect(),
        vec![1u64 << 63; 129],
        (0..257).map(|i| (i as u64) << 20).collect(),
    ];
    // Lengths straddling the FOR miniblock and group-varint group sizes
    // catch tail-masking bugs the round-number cases miss.
    for n in [3usize, 4, 5, 127, 128, 129, 255, 256] {
        columns.push((0..n as u64).map(|i| i.wrapping_mul(0x9E37)).collect());
    }
    for vals in &columns {
        assert_column_roundtrip(vals);
    }
}

#[test]
fn balancer_conserves_segments_under_random_strategies() {
    use ebs::balance::bs_balancer::{run_balancer, BalancerConfig};
    use ebs::balance::importer::ImporterSelect;
    let ds = ebs::workload::generate(&ebs::workload::WorkloadConfig::quick(4242)).unwrap();
    for strategy in ImporterSelect::ALL {
        let cfg = BalancerConfig {
            strategy,
            ..BalancerConfig::default()
        };
        let run = run_balancer(&ds.fleet, &ds.storage, ebs::core::ids::DcId(0), &cfg);
        let counts = run.seg_map.load_counts(ds.fleet.block_servers.len());
        assert_eq!(
            counts.iter().sum::<usize>(),
            ds.fleet.segments.len(),
            "{strategy:?} lost or duplicated segments"
        );
    }
}

/// `StreamSummary::merge` identity and order-invariance: merging an empty
/// summary changes nothing, and folding a stream through any shard split,
/// merged in any order, is bit-identical to folding it whole. (Every
/// accumulator is an integer-valued f64 far below 2^53, so the elementwise
/// adds are exact — the property DESIGN.md §15 rests on.)
mod stream_summary_merge {
    use ebs::core::ids::{QpId, VdId};
    use ebs::core::io::{IoEvent, Op};
    use ebs::core::time::TickSpec;
    use ebs::store::StreamSummary;
    use proptest::prelude::*;

    const VD_COUNT: usize = 6;

    fn ticks() -> TickSpec {
        TickSpec::new(15.0, 8)
    }

    fn event(t_us: u64, vd: u32, size: u32) -> IoEvent {
        IoEvent {
            t_us,
            vd: VdId(vd),
            qp: QpId(0),
            op: Op::Read,
            size,
            offset: 0,
        }
    }

    /// Compare two summaries through their full accessor surface
    /// (`StreamSummary` has no `PartialEq`).
    fn assert_summaries_equal(a: &StreamSummary, b: &StreamSummary, label: &str) {
        assert_eq!(a.events(), b.events(), "{label}: events");
        assert_eq!(a.bytes(), b.bytes(), "{label}: bytes");
        assert_eq!(a.vd_bytes(), b.vd_bytes(), "{label}: vd_bytes");
        assert_eq!(a.tick_bytes(), b.tick_bytes(), "{label}: tick_bytes");
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(a.size_quantile(q), b.size_quantile(q), "{label}: q{q}");
        }
        assert_eq!(a.ccr(0.1), b.ccr(0.1), "{label}: ccr");
        assert_eq!(a.p2a(), b.p2a(), "{label}: p2a");
    }

    proptest! {
        #[test]
        fn merge_with_empty_is_identity(
            raw in prop::collection::vec(
                (0u64..150_000_000u64, 0u32..VD_COUNT as u32, 1u32..2_000_000u32),
                0..200,
            ),
        ) {
            let events: Vec<IoEvent> =
                raw.iter().map(|&(t, vd, size)| event(t, vd, size)).collect();
            let mut folded = StreamSummary::new(VD_COUNT, ticks());
            folded.fold_chunk(&events).unwrap();
            let mut merged = StreamSummary::new(VD_COUNT, ticks());
            merged.fold_chunk(&events).unwrap();
            merged.merge(&StreamSummary::new(VD_COUNT, ticks())).unwrap();
            assert_summaries_equal(&merged, &folded, "a ⊕ empty");
            // empty ⊕ a == a as well (identity on both sides).
            let mut left = StreamSummary::new(VD_COUNT, ticks());
            left.merge(&folded).unwrap();
            assert_summaries_equal(&left, &folded, "empty ⊕ a");
        }

        #[test]
        fn merge_is_order_invariant_over_shard_splits(
            raw in prop::collection::vec(
                (0u64..150_000_000u64, 0u32..VD_COUNT as u32, 1u32..2_000_000u32, 0usize..3),
                1..300,
            ),
        ) {
            // Fold the whole stream into one summary…
            let events: Vec<IoEvent> =
                raw.iter().map(|&(t, vd, size, _)| event(t, vd, size)).collect();
            let mut whole = StreamSummary::new(VD_COUNT, ticks());
            whole.fold_chunk(&events).unwrap();
            // …and through a random 3-way shard split.
            let mut shards = [
                StreamSummary::new(VD_COUNT, ticks()),
                StreamSummary::new(VD_COUNT, ticks()),
                StreamSummary::new(VD_COUNT, ticks()),
            ];
            for &(t, vd, size, shard) in &raw {
                shards[shard].fold_chunk(&[event(t, vd, size)]).unwrap();
            }
            for order in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
                let mut total = StreamSummary::new(VD_COUNT, ticks());
                for &i in &order {
                    total.merge(&shards[i]).unwrap();
                }
                assert_summaries_equal(&total, &whole, &format!("order {order:?}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Selection (`quantile`) must return the bits of a stable sort, on
    /// inputs rich in what selection could get wrong: NaNs, both zeros,
    /// infinities and heavy ties.
    #[test]
    fn quantile_by_selection_matches_sorted_oracle_bit_for_bit(
        codes in prop::collection::vec(0u32..30, 0..120),
    ) {
        let palette = [f64::NAN, -0.0, -0.0, 0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, 1.5, -2.0];
        let values: Vec<f64> = codes
            .iter()
            .map(|&c| palette.get(c as usize).copied().unwrap_or((c as f64 - 20.0) * 0.37))
            .collect();
        let mut sorted: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.5, 0.99, 1.0] {
            let oracle = (!sorted.is_empty()).then(|| {
                let pos = q * (sorted.len() - 1) as f64;
                let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
                let frac = pos - lo as f64;
                if lo == hi { sorted[lo] } else { sorted[lo] * (1.0 - frac) + sorted[hi] * frac }
            });
            prop_assert_eq!(
                quantile(&values, q).map(f64::to_bits),
                oracle.map(f64::to_bits),
                "q={} values={:?}", q, values
            );
        }
    }
}

/// Token-bucket oracle: the closed-form bounds of a (burst, rate)
/// regulator, over random non-decreasing arrival streams with bursts,
/// short gaps and idle periods.
mod token_bucket_oracle {
    use ebs::stack::TokenBucket;
    use proptest::prelude::*;

    /// One IO through the bucket: arrival, amount, admission (µs).
    struct Admitted {
        arrive_us: f64,
        amount: f64,
        admit_us: f64,
    }

    /// Feeds `(gap class, gap fraction, amount fraction)` triples through
    /// a fresh bucket. Gaps are 0, up to 1 ms, up to 100 ms or up to 3 s,
    /// so arrivals never decrease; each amount is `fraction × burst`.
    fn run(rate: f64, burst: f64, stream: &[(u32, f64, f64)]) -> Vec<Admitted> {
        let mut bucket = TokenBucket::new(rate, burst);
        let mut t = 0.0;
        stream
            .iter()
            .map(|&(class, gap, frac)| {
                t += gap * [0.0, 1e3, 1e5, 3e6][class as usize];
                let amount = frac * burst;
                let delay = bucket.admit(t, amount);
                Admitted {
                    arrive_us: t,
                    amount,
                    admit_us: t + delay,
                }
            })
            .collect()
    }

    /// Admissions are FIFO, and every window `[admit_i, admit_j]` admits
    /// at most `rate × window + lead(i)`, where `lead(i)` bounds the
    /// tokens banked just before IO `i` is admitted.
    fn check_windows(rate: f64, ios: &[Admitted], lead: impl Fn(&Admitted) -> f64) {
        for pair in ios.windows(2) {
            assert!(pair[0].admit_us <= pair[1].admit_us, "admissions reordered");
        }
        for (i, first) in ios.iter().enumerate() {
            let mut admitted = 0.0;
            for last in &ios[i..] {
                admitted += last.amount;
                let bound = rate * (last.admit_us - first.admit_us) / 1e6 + lead(first);
                assert!(
                    admitted <= bound * (1.0 + 1e-9) + 1e-9,
                    "admitted {} in [{}, {}] µs over the bound {}",
                    admitted,
                    first.admit_us,
                    last.admit_us,
                    bound
                );
            }
        }
    }

    /// Each delay is at most the backlog still queued ahead of the IO
    /// when it arrives, plus the IO itself, drained at `rate`.
    fn check_delays(rate: f64, ios: &[Admitted]) {
        for (i, io) in ios.iter().enumerate() {
            let backlog: f64 = ios[..i]
                .iter()
                .filter(|ahead| ahead.admit_us > io.arrive_us)
                .map(|ahead| ahead.amount)
                .sum();
            let bound = (backlog + io.amount) / rate * 1e6;
            let delay = io.admit_us - io.arrive_us;
            assert!(
                delay <= bound * (1.0 + 1e-9) + 1e-6,
                "IO {} waited {} µs; backlog {} + {} at rate {} allows {} µs",
                i,
                delay,
                backlog,
                io.amount,
                rate,
                bound
            );
        }
    }

    proptest! {
        /// IOs that fit the burst: admitted in any window ≤ rate × window
        /// + burst, and delay ≤ (backlog + IO) / rate.
        #[test]
        fn token_bucket_admits_at_most_rate_times_window_plus_burst(
            rate in 100.0f64..1e6,
            burst_secs in 0.01f64..2.0,
            stream in prop::collection::vec((0u32..4, 0.0f64..1.0, 0.001f64..1.0), 1..160),
        ) {
            let burst = rate * burst_secs;
            let ios = run(rate, burst, &stream);
            check_windows(rate, &ios, |_| burst);
            check_delays(rate, &ios);
        }

        /// An IO larger than the burst is admitted whole once its deficit
        /// has accrued, so a window it leads may admit its own size
        /// instead of the burst: the bucket acts as one whose burst is
        /// that IO. (The simulator meets this case: 1/3200-scaled caps
        /// give small disks an IOPS burst below one IO.) The delay bound
        /// holds unchanged.
        #[test]
        fn token_bucket_lets_an_oversized_io_lead_by_its_own_size(
            rate in 100.0f64..1e6,
            burst_secs in 0.01f64..2.0,
            stream in prop::collection::vec((0u32..4, 0.0f64..1.0, 0.001f64..4.0), 1..160),
        ) {
            let burst = rate * burst_secs;
            let ios = run(rate, burst, &stream);
            check_windows(rate, &ios, |first| burst.max(first.amount));
            check_delays(rate, &ios);
        }
    }
}

/// Serve-loop conservation, under no-op and under the online policies:
/// every IO of the trace is simulated in exactly one epoch, each epoch's
/// latency column covers exactly its slice (seen through the epoch's
/// exact p99), and the aggregate mean latency is the in-order f64 sum of
/// the per-IO totals over the concatenated columns, divided by the IO
/// count.
#[test]
fn serve_loop_conserves_ios_and_latency() {
    use ebs::serve::ServeConfig;
    use ebs::serve::{serve, NoopPolicy, OnlineBalancer, OnlineLender, OnlineRebinder, Policy};
    use ebs::stack::StackConfig;
    let ds = quick_dataset();
    let horizon = ds.events.last().unwrap().t_us + 1;
    for online in [false, true] {
        let stack = StackConfig::default();
        let mut policies: Vec<Box<dyn Policy>> = if online {
            vec![
                Box::new(OnlineRebinder::default()),
                Box::new(OnlineLender::new(
                    ebs::throttle::LendingConfig::default(),
                    stack.throttle_scale,
                )),
                Box::new(OnlineBalancer::new(
                    ebs::balance::bs_balancer::BalancerConfig::default(),
                )),
            ]
        } else {
            vec![Box::new(NoopPolicy)]
        };
        let mut config = ServeConfig::fast_forward(60.0, 5, stack).unwrap();
        config.collect_latency = true;
        let report = serve(&ds.fleet, &config, &ds.events, &mut policies).unwrap();
        let label = format!("online={online}");
        if online {
            let applied: u64 = report.epochs.iter().map(|e| e.applied.total()).sum();
            assert!(applied > 0, "{label}: the online policies never acted");
        }

        assert_eq!(report.consumed, ds.events.len(), "{label}");
        let epoch_ios: u64 = report.epochs.iter().map(|e| e.ios).sum();
        assert_eq!(epoch_ios, report.consumed as u64, "{label}");
        assert_eq!(report.aggregate.ios, report.consumed as u64, "{label}");
        assert_eq!(report.lat.len(), report.consumed, "{label}");

        // Each epoch's IOs are its slice's events, in order, and its
        // rows of the latency column are the ones its p99 was taken
        // over.
        let count = config.epoch.count_for(horizon);
        let slices: Vec<_> = config.epoch.cuts(&ds.events, count).collect();
        assert_eq!(slices.len(), report.epochs.len(), "{label}");
        let mut rows = report.lat.iter();
        for (slice, epoch) in slices.iter().zip(&report.epochs) {
            assert_eq!(epoch.ios, slice.events.len() as u64, "{label}");
            let totals: Vec<f64> = rows
                .by_ref()
                .take(slice.events.len())
                .map(|lat| lat.total_us())
                .collect();
            let p99 = ebs::analysis::quantile(&totals, 0.99).unwrap_or(0.0);
            assert_eq!(epoch.p99_us.to_bits(), p99.to_bits(), "{label}");
        }

        let total = report.lat.iter().fold(0.0, |sum, lat| sum + lat.total_us());
        assert_eq!(
            report.aggregate.mean_latency_us.to_bits(),
            (total / report.aggregate.ios as f64).to_bits(),
            "{label}"
        );
    }
}
