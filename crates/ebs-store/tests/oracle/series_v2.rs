//! Reference v2 metric-series codec: the per-series, per-value kernels the
//! batch passes in `ebs_store::columns` replaced, kept as a differential
//! oracle. The batch encoder must emit these exact bytes and
//! the batch decoder must return these exact values — or, on hostile
//! input, the same `EbsError` variant.
//!
//! Test-only, and self-contained on purpose: it reaches the store only
//! through public paths, so both the crate's unit tests and the workspace
//! integration tests can include it with `#[path]`, and it never drifts
//! along with the private helpers of the code it checks.

use ebs_core::error::EbsError;
use ebs_core::metric::{Flow, RwFlow, Series, SeriesSample};
use ebs_core::time::TickSpec;
use ebs_store::bytes::{ByteReader, ByteWriter};
use ebs_store::codec::{decode_column_into, encode_column, encoded_column_size};
use ebs_store::format::MAX_CHUNK_EVENTS;

const RAW_BITS: u8 = 0;
const INTEGRAL: u8 = 1;
const SPARSE_BITS: u8 = 2;

fn is_integral(v: f64) -> bool {
    v.to_bits() == ((v as u64) as f64).to_bits()
}

/// Encode one metric domain, one series and one value at a time.
pub fn encode(ticks: TickSpec, series: &[Series]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_f64_bits(ticks.tick_secs);
    w.put_varint(ticks.ticks as u64);
    w.put_varint(series.len() as u64);
    let mut col = Vec::new();
    for s in series {
        let samples: Vec<SeriesSample> = s.samples().collect();
        w.put_varint(samples.len() as u64);
        col.clear();
        let mut prev = 0u32;
        for sample in &samples {
            col.push(u64::from(sample.tick - prev));
            prev = sample.tick;
        }
        encode_column(&mut w, &col);
        let fields: [fn(&RwFlow) -> f64; 4] = [
            |rw| rw.read.bytes,
            |rw| rw.read.ops,
            |rw| rw.write.bytes,
            |rw| rw.write.ops,
        ];
        for field in fields {
            let nonzero = samples
                .iter()
                .filter(|sm| field(&sm.rw).to_bits() != 0)
                .count();
            let raw_body = 8 * samples.len();
            let sparse_body = samples.len().div_ceil(8) + 8 * nonzero;
            let integral_body = if samples.iter().all(|sm| is_integral(field(&sm.rw))) {
                col.clear();
                col.extend(samples.iter().map(|sm| field(&sm.rw) as u64));
                encoded_column_size(&col)
            } else {
                usize::MAX
            };
            if integral_body <= sparse_body.min(raw_body) {
                w.put_u8(INTEGRAL);
                encode_column(&mut w, &col);
            } else if sparse_body < raw_body {
                w.put_u8(SPARSE_BITS);
                let mut bits = 0u8;
                for (i, sm) in samples.iter().enumerate() {
                    if field(&sm.rw).to_bits() != 0 {
                        bits |= 1 << (i % 8);
                    }
                    if i % 8 == 7 {
                        w.put_u8(bits);
                        bits = 0;
                    }
                }
                if !samples.len().is_multiple_of(8) {
                    w.put_u8(bits);
                }
                for sm in &samples {
                    let v = field(&sm.rw);
                    if v.to_bits() != 0 {
                        w.put_f64_bits(v);
                    }
                }
            } else {
                w.put_u8(RAW_BITS);
                for sm in &samples {
                    w.put_f64_bits(field(&sm.rw));
                }
            }
        }
    }
    w.into_bytes()
}

/// Decode one metric domain, one value and one `Series::push` at a time.
pub fn decode(payload: &[u8], domain: &str) -> Result<(TickSpec, Vec<Series>), EbsError> {
    let mut r = ByteReader::new(payload, "metric chunk");
    let tick_secs = r.get_f64_bits()?;
    let ticks = r.get_varint_u32()?;
    if !(tick_secs.is_finite() && tick_secs > 0.0) || ticks == 0 {
        return Err(EbsError::corrupt_store(format!(
            "{domain} metrics: invalid tick grid ({tick_secs} s x {ticks})"
        )));
    }
    let spec = TickSpec::new(tick_secs, ticks);
    let declared_entities = r.get_varint()?;
    let entities = r.check_count(declared_entities, 1)?;
    let mut out = Vec::with_capacity(entities);
    let mut ticks_col = Vec::new();
    let mut values = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for entity in 0..entities {
        let declared_samples = r.get_varint()?;
        let samples = usize::try_from(declared_samples)
            .ok()
            .filter(|&c| c <= MAX_CHUNK_EVENTS)
            .ok_or_else(|| {
                EbsError::corrupt_store(format!(
                    "{domain} metrics: entity {entity} declares {declared_samples} samples"
                ))
            })?;
        decode_column_into(&mut r, samples, &mut ticks_col)?;
        for col in values.iter_mut() {
            col.clear();
            match r.get_u8()? {
                RAW_BITS => {
                    col.reserve(samples);
                    for _ in 0..samples {
                        col.push(r.get_f64_bits()?);
                    }
                }
                INTEGRAL => {
                    let mut ints = Vec::with_capacity(samples);
                    decode_column_into(&mut r, samples, &mut ints)?;
                    col.extend(ints.iter().map(|&u| u as f64));
                }
                SPARSE_BITS => {
                    let bitset = r.get_bytes(samples.div_ceil(8))?;
                    if samples % 8 != 0 {
                        if let Some(&last) = bitset.last() {
                            if last >> (samples % 8) != 0 {
                                return Err(EbsError::corrupt_store(format!(
                                    "{domain} metrics: sparse bitset sets bits past the sample count"
                                )));
                            }
                        }
                    }
                    col.reserve(samples);
                    for i in 0..samples {
                        if bitset.get(i / 8).is_some_and(|&b| b >> (i % 8) & 1 == 1) {
                            let v = r.get_f64_bits()?;
                            if v.to_bits() == 0 {
                                return Err(EbsError::corrupt_store(format!(
                                    "{domain} metrics: sparse column stores an explicit zero"
                                )));
                            }
                            col.push(v);
                        } else {
                            col.push(0.0);
                        }
                    }
                }
                other => {
                    return Err(EbsError::corrupt_store(format!(
                        "{domain} metrics: unknown value-column mode {other}"
                    )))
                }
            }
        }
        // Each row's sides, as `Series::from_sides` takes them: a row that
        // is `±0.0` throughout is no sample, and a side of a kept row is
        // an entry where its flow has nonzero bits.
        let (mut read, mut write) = (Vec::new(), Vec::new());
        let mut tick = 0u16;
        let [rb, ro, wb, wo] = &values;
        let cols = ticks_col.iter().zip(rb).zip(ro).zip(wb).zip(wo);
        for (k, ((((&delta, &read_bytes), &read_ops), &write_bytes), &write_ops)) in
            cols.enumerate()
        {
            let delta = u16::try_from(delta).map_err(|_| {
                EbsError::corrupt_store(format!(
                    "{domain} metrics: entity {entity} tick delta overflows u16"
                ))
            })?;
            if k > 0 && delta == 0 {
                return Err(EbsError::corrupt_store(format!(
                    "{domain} metrics: entity {entity} repeats tick {tick}"
                )));
            }
            tick = tick.checked_add(delta).ok_or_else(|| {
                EbsError::corrupt_store(format!(
                    "{domain} metrics: entity {entity} tick overflows u16"
                ))
            })?;
            let rw = RwFlow {
                read: Flow {
                    bytes: read_bytes,
                    ops: read_ops,
                },
                write: Flow {
                    bytes: write_bytes,
                    ops: write_ops,
                },
            };
            if !rw.is_zero() {
                for (side, flow) in [(&mut read, rw.read), (&mut write, rw.write)] {
                    if flow.bytes.to_bits() | flow.ops.to_bits() != 0 {
                        side.push((u32::from(tick), flow));
                    }
                }
            }
        }
        out.push(Series::from_sides(read, write).ok_or_else(|| {
            EbsError::corrupt_store(format!("{domain} metrics: entity {entity} is no series"))
        })?);
    }
    r.expect_end()?;
    Ok((spec, out))
}
