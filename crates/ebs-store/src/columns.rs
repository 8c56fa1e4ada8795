//! Column codecs for the three paper datasets.
//!
//! Each payload is column-major: all timestamps, then all VD ids, then all
//! QP ids, … — so same-typed values sit adjacent and the encoders see
//! short, similar integers. Every payload is format v2, built from the
//! batched [`crate::codec`] columns. Events carry a per-chunk VD
//! dictionary, a per-VD zigzag offset-delta column, and five tagged
//! group-varint / frame-of-reference columns; metric series store
//! integral-valued `f64` columns as packed integers instead of raw bits.
//! Decode lands in a reusable [`EventScratch`] so the steady-state
//! streaming path allocates nothing per chunk. The series kernels work on
//! a [`Series`]' two sides directly: encode merges the sides' ticks once
//! and packs each value column from its own side's entries, and decode
//! reads each value column as a borrowed view and fills each side, once
//! and exactly sized, from the views. No merged sample row and no dense
//! value column is built either way. The bytes are those the per-value
//! kernels wrote; those kernels stay as a test-only oracle
//! (`tests/oracle/series_v2.rs`).
//!
//! Floats always travel bit-exactly (raw IEEE-754 bits, or integers whose
//! `f64` round-trip is exact); a save→load→save cycle is byte-identical.
//! The header version is checked once, by [`crate::reader::ChunkReader`];
//! the decoders here take a payload and nothing else.

use crate::bytes::{ByteReader, ByteWriter};
use crate::codec::{decode_column_into, encode_column, unzigzag, zigzag, ColumnPlan, MINIBLOCK};
use crate::format::{MAX_CHUNK_EVENTS, MAX_CHUNK_LEN};
use ebs_core::apps::AppClass;
use ebs_core::error::EbsError;
use ebs_core::hash::FxHashMap;
use ebs_core::ids::{QpId, VdId};
use ebs_core::io::{IoEvent, Op};
use ebs_core::metric::{Entry, Flow, Series};
use ebs_core::time::TickSpec;

/// One row of the specification dataset: the per-VD subscription facts the
/// paper's Table 1 lists, flattened for storage. `ebs-workload` maps these
/// to/from its `Fleet`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpecRow {
    /// Owning VM (dense id).
    pub vm: u32,
    /// Inferred application class of the owning VM.
    pub app: AppClass,
    /// VD capacity in bytes.
    pub capacity_bytes: u64,
    /// Queue pairs of the VD.
    pub qp_count: u8,
    /// Throughput cap (bytes/s).
    pub tput_cap: f64,
    /// IOPS cap.
    pub iops_cap: f64,
}

/// Bytes of a v2 EVENTS payload broken down by column — the accounting
/// `bin/all --trace` reports so a compression regression points at a
/// column instead of an opaque ratio.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventColumnBytes {
    /// Count varint + VD dictionary + op bitset.
    pub header: u64,
    /// Timestamp-delta column.
    pub timestamps: u64,
    /// VD dictionary-index column.
    pub vd: u64,
    /// QP id column.
    pub qp: u64,
    /// Request-size column.
    pub size: u64,
    /// Per-VD zigzag offset-delta column (the LBA column).
    pub offset: u64,
}

impl EventColumnBytes {
    /// Sum of all per-column byte counts.
    pub fn total(&self) -> u64 {
        self.header + self.timestamps + self.vd + self.qp + self.size + self.offset
    }

    /// Accumulate another chunk's accounting into this one.
    pub fn merge(&mut self, other: &EventColumnBytes) {
        self.header += other.header;
        self.timestamps += other.timestamps;
        self.vd += other.vd;
        self.qp += other.qp;
        self.size += other.size;
        self.offset += other.offset;
    }
}

/// Reusable encode/decode target for v2 event chunks. Holding one of
/// these across a streaming pass means steady-state decode does zero
/// allocation per chunk — every column vector is cleared and refilled in
/// place.
#[derive(Debug, Default)]
pub struct EventScratch {
    dict: Vec<u32>,
    t_us: Vec<u64>,
    vd_idx: Vec<u64>,
    qp: Vec<u64>,
    write_bits: Vec<u8>,
    size: Vec<u64>,
    offset: Vec<u64>,
    last_offset: Vec<u64>,
    /// Encode only: VD id → first-seen slot, and the distinct
    /// `(id, slot)` pairs sorted into dictionary order.
    slots: FxHashMap<u32, u32>,
    ranked: Vec<(u32, u32)>,
}

impl EventScratch {
    /// Fresh scratch with no reserved capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow the decoded columns of the most recent chunk.
    pub fn columns(&self) -> EventColumns<'_> {
        EventColumns {
            dict: &self.dict,
            t_us: &self.t_us,
            vd_idx: &self.vd_idx,
            qp: &self.qp,
            write_bits: &self.write_bits,
            size: &self.size,
            offset: &self.offset,
        }
    }

    fn clear(&mut self) {
        self.dict.clear();
        self.t_us.clear();
        self.vd_idx.clear();
        self.qp.clear();
        self.write_bits.clear();
        self.size.clear();
        self.offset.clear();
    }
}

/// Borrowed view of one decoded chunk's event columns — the unit the
/// column-at-a-time kernels in [`crate::stream`] and `ebs-analysis`
/// operate on.
///
/// Invariants established by [`decode_events_v2_into`] (and required of
/// hand-built views): all five value columns have equal length,
/// `write_bits` holds at least one bit per event, `t_us` is
/// non-decreasing, every `vd_idx` entry indexes `dict`, and `qp`/`size`
/// values fit in `u32`.
#[derive(Clone, Copy, Debug)]
pub struct EventColumns<'a> {
    /// Sorted, distinct VD ids present in the chunk; `vd_idx` points here.
    pub dict: &'a [u32],
    /// Absolute timestamps (µs), non-decreasing.
    pub t_us: &'a [u64],
    /// Per-event index into `dict`.
    pub vd_idx: &'a [u64],
    /// Per-event QP id.
    pub qp: &'a [u64],
    /// One bit per event, LSB-first per byte; 1 = write.
    pub write_bits: &'a [u8],
    /// Per-event request size in bytes.
    pub size: &'a [u64],
    /// Per-event absolute byte offset.
    pub offset: &'a [u64],
}

impl EventColumns<'_> {
    /// Events in the chunk.
    pub fn len(&self) -> usize {
        self.t_us.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.t_us.is_empty()
    }
}

/// Encode a time-sorted batch of events in the v2 layout:
///
/// ```text
/// count | dict_len dict-deltas… | op-bitset | offset-shift
///       | t-delta col | vd-idx col | qp col | size col | offset-delta col
/// ```
///
/// The VD dictionary is the sorted distinct VD ids of the chunk; the
/// offset column stores zigzagged deltas against the previous offset *of
/// the same VD* (hot-spot locality makes those small where raw LBAs are
/// ~30-bit). Offsets are block-aligned, so the trailing zero bits every
/// offset shares (the shift byte) are stripped *before* the delta —
/// zigzag makes negative deltas odd, which would otherwise hide the
/// alignment from the column codec's own shift. Each value column is a
/// tagged [`crate::codec`] column. Returns the payload plus its
/// per-column byte accounting.
pub fn encode_events_v2(
    events: &[IoEvent],
    scratch: &mut EventScratch,
) -> Result<(Vec<u8>, EventColumnBytes), EbsError> {
    if events.len() > MAX_CHUNK_EVENTS {
        return Err(EbsError::invalid_spec(format!(
            "event chunk of {} events exceeds the {MAX_CHUNK_EVENTS}-event limit",
            events.len()
        )));
    }
    let mut w = ByteWriter::new();
    w.put_varint(events.len() as u64);
    let mut bytes = EventColumnBytes::default();
    if events.is_empty() {
        bytes.header = w.len() as u64;
        return Ok((w.into_bytes(), bytes));
    }
    scratch.clear();
    // Column scratch fill. Each event's VD takes a slot in first-seen
    // order from one hash probe; the per-VD offset state is keyed by that
    // slot, and the slots become dictionary ranks once the chunk's
    // distinct ids are known and sorted.
    let mut prev_t = 0u64;
    scratch.last_offset.clear();
    scratch.slots.clear();
    scratch.ranked.clear();
    let off_or = events.iter().fold(0u64, |acc, e| acc | e.offset);
    let off_shift = if off_or == 0 {
        0
    } else {
        off_or.trailing_zeros()
    };
    for e in events {
        if e.t_us < prev_t {
            return Err(EbsError::invalid_spec(format!(
                "event batch not time-sorted: {} after {prev_t}",
                e.t_us
            )));
        }
        scratch.t_us.push(e.t_us - prev_t);
        prev_t = e.t_us;
        let next = scratch.ranked.len() as u32;
        let slot = *scratch.slots.entry(e.vd.0).or_insert(next);
        if slot == next {
            scratch.ranked.push((e.vd.0, slot));
            scratch.last_offset.push(0);
        }
        scratch.vd_idx.push(u64::from(slot));
        scratch.qp.push(u64::from(e.qp.0));
        scratch.size.push(u64::from(e.size));
        // Wrapping delta arithmetic round-trips every u64 bit pattern; the
        // decoder mirrors it with a wrapping add.
        let last = scratch.last_offset.get_mut(slot as usize).ok_or_else(|| {
            EbsError::invalid_spec("event VD missing from its own dictionary".to_string())
        })?;
        let off = e.offset >> off_shift;
        scratch.offset.push(zigzag(off.wrapping_sub(*last) as i64));
        *last = off;
    }
    // VD dictionary: the sorted distinct ids, stored as first + deltas
    // (≥1). Sorting only the distinct ids, then remapping each slot to its
    // rank, replaces a sort of the whole id column and a binary search per
    // event. `last_offset` is spent, so it holds the slot → rank map.
    scratch.ranked.sort_unstable();
    scratch
        .dict
        .extend(scratch.ranked.iter().map(|&(id, _)| id));
    for (rank, &(_, slot)) in scratch.ranked.iter().enumerate() {
        if let Some(r) = scratch.last_offset.get_mut(slot as usize) {
            *r = rank as u64;
        }
    }
    for x in scratch.vd_idx.iter_mut() {
        *x = scratch.last_offset.get(*x as usize).copied().unwrap_or(0);
    }
    w.put_varint(scratch.dict.len() as u64);
    let mut prev_id = 0u32;
    for (k, &id) in scratch.dict.iter().enumerate() {
        let delta = if k == 0 { id } else { id - prev_id };
        w.put_varint(u64::from(delta));
        prev_id = id;
    }
    for group in events.chunks(8) {
        let mut byte = 0u8;
        for (bit, e) in group.iter().enumerate() {
            if e.op.is_write() {
                byte |= 1 << bit;
            }
        }
        w.put_u8(byte);
    }
    w.put_u8(off_shift as u8);
    bytes.header = w.len() as u64;
    bytes.timestamps = encode_column(&mut w, &scratch.t_us);
    bytes.vd = encode_column(&mut w, &scratch.vd_idx);
    bytes.qp = encode_column(&mut w, &scratch.qp);
    bytes.size = encode_column(&mut w, &scratch.size);
    bytes.offset = encode_column(&mut w, &scratch.offset);
    Ok((w.into_bytes(), bytes))
}

/// Decode one v2 event chunk into `scratch`, returning the per-column
/// byte accounting. On success the scratch columns satisfy every
/// [`EventColumns`] invariant: timestamps are prefix-summed (overflow is
/// corruption), offsets are reconstructed per VD, `vd_idx` is
/// dictionary-checked, and `qp`/`size` fit in `u32`.
pub fn decode_events_v2_into(
    payload: &[u8],
    scratch: &mut EventScratch,
) -> Result<EventColumnBytes, EbsError> {
    let mut r = ByteReader::new(payload, "events chunk");
    let declared = r.get_varint()?;
    let count = usize::try_from(declared)
        .ok()
        .filter(|&c| c <= MAX_CHUNK_EVENTS)
        .ok_or_else(|| {
            EbsError::corrupt_store(format!(
                "events chunk declares {declared} events, over the {MAX_CHUNK_EVENTS} limit"
            ))
        })?;
    scratch.clear();
    let mut bytes = EventColumnBytes::default();
    if count == 0 {
        r.expect_end()?;
        bytes.header = payload.len() as u64;
        return Ok(bytes);
    }
    let declared_dict = r.get_varint()?;
    let dict_len = r.check_count(declared_dict, 1)?;
    if dict_len == 0 || dict_len > count {
        return Err(EbsError::corrupt_store(format!(
            "events chunk: dictionary of {dict_len} VDs for {count} events"
        )));
    }
    scratch.dict.reserve(dict_len);
    let mut prev_id = 0u64;
    for k in 0..dict_len {
        let delta = r.get_varint()?;
        if k > 0 && delta == 0 {
            return Err(EbsError::corrupt_store(
                "events chunk: VD dictionary not strictly increasing".to_string(),
            ));
        }
        let id = prev_id
            .checked_add(delta)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| {
                EbsError::corrupt_store("events chunk: VD dictionary id overflows u32".to_string())
            })?;
        prev_id = u64::from(id);
        scratch.dict.push(id);
    }
    scratch
        .write_bits
        .extend_from_slice(r.get_bytes(count.div_ceil(8))?);
    let off_shift = u32::from(r.get_u8()?);
    if off_shift >= 64 {
        return Err(EbsError::corrupt_store(format!(
            "events chunk: offset alignment shift {off_shift} is out of range"
        )));
    }
    let header_end = payload.len() - r.remaining();
    bytes.header = header_end as u64;
    bytes.timestamps = decode_column_into(&mut r, count, &mut scratch.t_us)?;
    bytes.vd = decode_column_into(&mut r, count, &mut scratch.vd_idx)?;
    bytes.qp = decode_column_into(&mut r, count, &mut scratch.qp)?;
    bytes.size = decode_column_into(&mut r, count, &mut scratch.size)?;
    bytes.offset = decode_column_into(&mut r, count, &mut scratch.offset)?;
    r.expect_end()?;
    // Timestamps: delta → absolute, overflow is corruption. One
    // vectorizable max-fold proves most chunks can never overflow, which
    // strips the per-value branch from the serial prefix sum; hostile
    // wide deltas take the checked loop instead.
    let max_delta = column_max(&scratch.t_us);
    if max_delta.checked_mul(count as u64).is_some() {
        let mut prev_t = 0u64;
        for t in scratch.t_us.iter_mut() {
            prev_t = prev_t.wrapping_add(*t);
            *t = prev_t;
        }
    } else {
        let mut prev_t = 0u64;
        for t in scratch.t_us.iter_mut() {
            prev_t = prev_t.checked_add(*t).ok_or_else(|| {
                EbsError::corrupt_store("events chunk: timestamp overflows u64".to_string())
            })?;
            *t = prev_t;
        }
    }
    // Offsets: per-VD zigzag delta → absolute, running in the shifted
    // domain and shifting the alignment back in as each value lands. The
    // vd_idx range check happens once, on the column max, so the loop body
    // carries no Result plumbing — its `else` arm is unreachable after the
    // check and exists only to stay panic-free. The OR accumulator
    // enforces shift canonicality: when the shift is nonzero, some
    // shifted-domain offset must be odd, or the encoder would have
    // stripped more bits.
    let max_vx = column_max(&scratch.vd_idx);
    if usize::try_from(max_vx)
        .ok()
        .filter(|&i| i < dict_len)
        .is_none()
    {
        return Err(EbsError::corrupt_store(format!(
            "events chunk: vd index {max_vx} outside the {dict_len}-entry dictionary"
        )));
    }
    scratch.last_offset.clear();
    scratch.last_offset.resize(dict_len, 0);
    let mut off_or = 0u64;
    for (o, &vx) in scratch.offset.iter_mut().zip(scratch.vd_idx.iter()) {
        let Some(slot) = scratch.last_offset.get_mut(vx as usize) else {
            continue;
        };
        let v = slot.wrapping_add(unzigzag(*o) as u64);
        off_or |= v;
        *o = v.wrapping_shl(off_shift);
        *slot = v;
    }
    if off_shift > 0 && off_or & 1 == 0 {
        return Err(EbsError::corrupt_store(format!(
            "events chunk: offset alignment shift {off_shift} is not canonical"
        )));
    }
    // Max-folds instead of `any`: no early exit means the scans vectorize,
    // and honest columns run to the end anyway.
    for (name, col) in [("qp", &scratch.qp), ("size", &scratch.size)] {
        if column_max(col) > u64::from(u32::MAX) {
            return Err(EbsError::corrupt_store(format!(
                "events chunk: {name} column value does not fit in u32"
            )));
        }
    }
    Ok(bytes)
}

/// Column max via eight independent accumulator lanes. A plain
/// `fold(0, max)` carries one serial dependency per value and does not
/// vectorize; the lanes turn it into wide `umax` on the ~1M-value columns
/// the range checks scan.
#[inline]
fn column_max(col: &[u64]) -> u64 {
    let (chunks, rem) = col.as_chunks::<8>();
    let mut acc = [0u64; 8];
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a = (*a).max(v);
        }
    }
    let wide = acc.iter().fold(0u64, |a, &v| a.max(v));
    rem.iter().fold(wide, |a, &v| a.max(v))
}

/// Fuse decoded columns back into row-major [`IoEvent`]s, appending to
/// `out`. All lookups are fallible so a hand-built view that violates the
/// [`EventColumns`] invariants yields [`EbsError::CorruptStore`], never a
/// panic.
pub fn events_from_columns(
    cols: &EventColumns<'_>,
    out: &mut Vec<IoEvent>,
) -> Result<(), EbsError> {
    let n = cols.len();
    if cols.vd_idx.len() != n
        || cols.qp.len() != n
        || cols.size.len() != n
        || cols.offset.len() != n
        || cols.write_bits.len() < n.div_ceil(8)
    {
        return Err(EbsError::corrupt_store(
            "event columns have mismatched lengths".to_string(),
        ));
    }
    // Range-check the dictionary indices once up front so the fuse loop
    // below is infallible: its per-row `dict.get` fallback can then never
    // fire, and the whole zip lowers to straight-line extends with no
    // per-row branch to an error path.
    let max_vx = column_max(cols.vd_idx);
    if n > 0
        && usize::try_from(max_vx)
            .ok()
            .filter(|&x| x < cols.dict.len())
            .is_none()
    {
        return Err(EbsError::corrupt_store(format!(
            "vd index {max_vx} outside the chunk dictionary"
        )));
    }
    let rows = cols
        .t_us
        .iter()
        .zip(cols.vd_idx)
        .zip(cols.qp)
        .zip(cols.size)
        .zip(cols.offset);
    out.extend(
        rows.enumerate()
            .map(|(i, ((((&t_us, &vx), &qp), &size), &offset))| {
                let vd = cols.dict.get(vx as usize).copied().unwrap_or(0);
                let bit = cols.write_bits.get(i / 8).map_or(0, |b| b >> (i % 8) & 1);
                IoEvent {
                    t_us,
                    vd: VdId(vd),
                    qp: QpId(qp as u32),
                    op: if bit == 1 { Op::Write } else { Op::Read },
                    size: size as u32,
                    offset,
                }
            }),
    );
    Ok(())
}

/// Encode events in the current format version (v2), with throwaway
/// scratch. Writers on the hot path hold an [`EventScratch`] and call
/// [`encode_events_v2`] directly.
pub fn encode_events(events: &[IoEvent]) -> Result<Vec<u8>, EbsError> {
    let mut scratch = EventScratch::new();
    Ok(encode_events_v2(events, &mut scratch)?.0)
}

/// Decode one event batch into row-major events, with throwaway scratch.
pub fn decode_events(payload: &[u8]) -> Result<Vec<IoEvent>, EbsError> {
    let mut out = Vec::new();
    decode_events_into(payload, &mut EventScratch::new(), &mut out)?;
    Ok(out)
}

/// [`decode_events`], appending to `out` instead of returning a fresh
/// vector. A loader holds one `scratch` and one `out` across all of a
/// store's event chunks, so chunks decode with no per-chunk allocation
/// beyond `out`'s own growth. On error `out` is left as it was.
pub fn decode_events_into(
    payload: &[u8],
    scratch: &mut EventScratch,
    out: &mut Vec<IoEvent>,
) -> Result<(), EbsError> {
    decode_events_v2_into(payload, scratch)?;
    events_from_columns(&scratch.columns(), out)
}

/// Encode the specification dataset (one row per VD, VD-id order).
pub fn encode_specs(rows: &[SpecRow]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_varint(rows.len() as u64);
    for row in rows {
        w.put_varint(row.vm as u64);
        w.put_u8(row.app.index() as u8);
        w.put_varint(row.capacity_bytes);
        w.put_u8(row.qp_count);
        w.put_f64_bits(row.tput_cap);
        w.put_f64_bits(row.iops_cap);
    }
    w.into_bytes()
}

/// Decode the specification dataset.
pub fn decode_specs(payload: &[u8]) -> Result<Vec<SpecRow>, EbsError> {
    let mut r = ByteReader::new(payload, "specs chunk");
    let declared = r.get_varint()?;
    let count = r.check_count(declared, 20)?;
    let mut rows = Vec::with_capacity(count);
    for i in 0..count {
        let vm = r.get_varint_u32()?;
        let app_idx = r.get_u8()?;
        let app = AppClass::from_index(app_idx as usize).ok_or_else(|| {
            EbsError::corrupt_store(format!(
                "specs chunk: row {i} has unknown app class {app_idx}"
            ))
        })?;
        rows.push(SpecRow {
            vm,
            app,
            capacity_bytes: r.get_varint()?,
            qp_count: r.get_u8()?,
            tput_cap: r.get_f64_bits()?,
            iops_cap: r.get_f64_bits()?,
        });
    }
    r.expect_end()?;
    Ok(rows)
}

/// The per-series, per-value v2 series codec the batch kernels replaced:
/// the differential oracle for the tests below.
#[cfg(test)]
#[path = "../tests/oracle/series_v2.rs"]
mod oracle;

/// The row-per-sample reference series, which builds the test series
/// below row by row; its readers go unused here.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../ebs-core/tests/oracle/series.rs"]
mod series_oracle;

/// Value-column mode tags of the v2 series layout.
mod series_mode {
    /// Raw IEEE-754 bits, 8 bytes per sample.
    pub const RAW_BITS: u8 = 0;
    /// Integer-valued samples as a packed [`crate::codec`] column.
    pub const INTEGRAL: u8 = 1;
    /// Zero-dominant samples: an LSB-first presence bitset, then raw
    /// IEEE-754 bits for the nonzero samples only. Roughly half of all
    /// metric samples are exactly `+0.0` (an entity idle on one side of
    /// the read/write split for a whole tick), and the nonzero rates are
    /// full-entropy fractions no integer codec touches — so one bit per
    /// zero is the right spend. `-0.0` has nonzero bits and stays raw.
    pub const SPARSE_BITS: u8 = 2;
}

/// Samples per series the decoder sizes its scratch for up front, at
/// most: a full-scale compute grid (4,320 ticks) fits, and a forged grid
/// cannot make it reserve more.
const SCRATCH_SAMPLES: usize = 1 << 14;

/// Whether the `f64` with these bits survives an exact `f64 → u64 → f64`
/// round trip. True for every byte/op total the simulator produces
/// (integer-valued, < 2^53); false for fractions, negatives, `-0.0`, NaN,
/// and integers too large to represent — those fall back to raw bits.
#[inline]
fn is_integral(bits: u64) -> bool {
    bits == ((f64::from_bits(bits) as u64) as f64).to_bits()
}

/// Reused per-series scratch of the side-native encoder: the merge of a
/// series' two sides, so a whole domain encodes with no per-series
/// allocation.
#[derive(Debug, Default)]
struct SideMerge {
    /// Tick deltas of the merged samples.
    deltas: Vec<u64>,
    /// Per side (read, write): its presence bitset over the merged
    /// positions, as `u64` words.
    present: [Vec<u64>; 2],
    /// Integral-mode candidate values of the field being encoded.
    ints: Vec<u64>,
    /// The frame-of-reference block headers of the column being planned.
    blocks: Vec<(u64, usize)>,
}

impl SideMerge {
    /// Merge the ticks of a series' two sides, filling the tick-delta
    /// column and each side's presence bitset over the merged positions.
    ///
    /// The side with more entries is walked in runs: between two
    /// consecutive ticks of the other side, its entries are merged samples
    /// of their own, taken by a scan that decides nothing per entry but
    /// whether the run goes on. A series whose sides alternate tick by
    /// tick gets runs of one; a series mostly one-sided, as generated
    /// series are, gets long ones.
    fn fill(&mut self, sides: [&[Entry]; 2]) {
        let [read, write] = sides;
        self.deltas.clear();
        // At most one sample per entry: the column grows at most once.
        self.deltas.reserve(read.len() + write.len());
        let [read_present, write_present] = &mut self.present;
        read_present.clear();
        write_present.clear();
        let (long, short, present) = if write.len() >= read.len() {
            (write, read, [write_present, read_present])
        } else {
            (read, write, [read_present, write_present])
        };
        let mut merged = Merged {
            deltas: &mut self.deltas,
            present,
            word: [0; 2],
            filled: 0,
            prev: 0,
        };
        let tick = |e: &Entry| u64::from(e.tick());
        let mut rest = long;
        // `u64::MAX`, past every tick, ends the last run.
        for t in short.iter().map(tick).chain([u64::MAX]) {
            let run = rest.iter().position(|e| tick(e) >= t).unwrap_or(rest.len());
            let (before, after) = rest.split_at_checked(run).unwrap_or((rest, &[]));
            merged.push_run(before);
            if t == u64::MAX {
                break;
            }
            let shared = after.first().is_some_and(|e| tick(e) == t);
            merged.push(t, [shared, true]);
            rest = after.get(usize::from(shared)..).unwrap_or(&[]);
        }
        merged.finish();
    }
}

/// The merged samples of a series as [`SideMerge::fill`] writes them: tick
/// deltas, and presence bits for the longer and the shorter side,
/// collected a word at a time.
struct Merged<'a> {
    deltas: &'a mut Vec<u64>,
    /// Presence words of the longer side, then of the shorter one.
    present: [&'a mut Vec<u64>; 2],
    /// The presence bits of the word being filled, and how many it holds.
    word: [u64; 2],
    filled: u32,
    prev: u64,
}

impl Merged<'_> {
    /// Append the sample at tick `t`, present on the sides `on` marks.
    /// Ticks strictly increase, so each delta is positive after the first.
    #[inline]
    fn push(&mut self, t: u64, on: [bool; 2]) {
        self.deltas.push(t - self.prev);
        self.prev = t;
        for (word, on) in self.word.iter_mut().zip(on) {
            *word |= u64::from(on) << self.filled;
        }
        self.filled += 1;
        if self.filled == 64 {
            self.flush();
        }
    }

    /// Append samples of the longer side alone, one per entry of `run`.
    fn push_run(&mut self, run: &[Entry]) {
        let mut prev = self.prev;
        self.deltas.extend(run.iter().map(|e| {
            let t = u64::from(e.tick());
            let delta = t - prev;
            prev = t;
            delta
        }));
        self.prev = prev;
        // Their presence bits: ones for the longer side, zeros (already
        // there) for the shorter, a word at a time.
        let mut left = run.len();
        while left > 0 {
            let take = left.min(64 - self.filled as usize);
            let [long, _] = &mut self.word;
            *long |= (u64::MAX >> (64 - take)) << self.filled;
            self.filled += take as u32;
            left -= take;
            if self.filled == 64 {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        for (present, word) in self.present.iter_mut().zip(&mut self.word) {
            present.push(std::mem::take(word));
        }
        self.filled = 0;
    }

    /// Flush a partly filled last word.
    fn finish(mut self) {
        if self.filled > 0 {
            self.flush();
        }
    }
}

/// The positions of the set bits of `words`, in order.
fn set_positions(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    let mut words = words.iter();
    let (mut base, mut bits) = (0usize, words.next().copied().unwrap_or(0));
    std::iter::from_fn(move || {
        while bits == 0 {
            bits = *words.next()?;
            base += 64;
        }
        let bit = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(base + bit)
    })
}

/// Upper bound on a v2 series payload, capped at the format's chunk limit:
/// the tick grid, and per series its count varint, a tick column (no
/// larger than its frame-of-reference packing) and four value columns
/// (never larger than their raw bits). The encoder reserves this once.
fn series_payload_bound(series: &[Series]) -> usize {
    let body: usize = series
        .iter()
        .map(|s| {
            // At most one sample per side entry.
            let n = s.side(Op::Read).len() + s.side(Op::Write).len();
            10 + 2 + 11 * n.div_ceil(MINIBLOCK) + 8 * n + 4 * (1 + 8 * n)
        })
        .sum();
    (8 + 5 + 10 + body).min(MAX_CHUNK_LEN as usize)
}

/// Encode one metric domain in the v2 layout. Tick deltas are a packed
/// [`crate::codec`] column; each of the four value columns (read
/// bytes/ops, write bytes/ops) takes whichever of three modes is smallest
/// by exact byte count — integral codec column, zero-bitset sparse, or
/// raw bits (ties prefer that order). The choice is a pure function of
/// the sample values, so a save→load→save cycle is byte-identical. At
/// full scale this roughly halves the metric chunks, which dominate the
/// container (~92% of its bytes).
///
/// The columns are written from the series' sides ([`Series::side`]): one
/// walk merges the two sides' ticks, and each value column is then packed
/// from its own side's entries, where every merged position the side has
/// no entry at is `+0.0`.
pub fn encode_series_set(ticks: TickSpec, series: &[Series]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(series_payload_bound(series));
    w.put_f64_bits(ticks.tick_secs);
    w.put_varint(ticks.ticks as u64);
    w.put_varint(series.len() as u64);
    let mut merge = SideMerge::default();
    for s in series {
        let sides = [s.side(Op::Read), s.side(Op::Write)];
        merge.fill(sides);
        let n = merge.deltas.len();
        w.put_varint(n as u64);
        let SideMerge {
            deltas,
            present,
            ints,
            blocks,
        } = &mut merge;
        ColumnPlan::new(deltas, blocks).write(&mut w, deltas, blocks);
        for (side, present) in sides.into_iter().zip(present.iter()) {
            encode_value_column(&mut w, n, side, present, |f| f.bytes, ints, blocks);
            encode_value_column(&mut w, n, side, present, |f| f.ops, ints, blocks);
        }
    }
    w.into_bytes()
}

/// Append the value column of one field of one side in the smallest of
/// the three [`series_mode`] layouts. The column spans the series' `n`
/// merged samples; `present` marks the positions of the side's entries,
/// and every other position is `+0.0`.
fn encode_value_column(
    w: &mut ByteWriter,
    n: usize,
    side: &[Entry],
    present: &[u64],
    field: impl Fn(Flow) -> f64,
    ints: &mut Vec<u64>,
    blocks: &mut Vec<(u64, usize)>,
) {
    let bits = |e: &Entry| field(e.flow()).to_bits();
    let nonzero: usize = side.iter().map(|e| usize::from(bits(e) != 0)).sum();
    let raw_body = 8 * n;
    let sparse_body = n.div_ceil(8) + 8 * nonzero;
    // `all` stops at the first fraction, which for rate columns is
    // usually their first value; the absent `+0.0`s are integral.
    if side.iter().all(|e| is_integral(bits(e))) {
        ints.clear();
        ints.resize(n, 0);
        for (e, p) in side.iter().zip(set_positions(present)) {
            if let Some(slot) = ints.get_mut(p) {
                *slot = f64::from_bits(bits(e)) as u64;
            }
        }
        let plan = ColumnPlan::new(ints, blocks);
        if plan.size() <= sparse_body.min(raw_body) {
            w.put_u8(series_mode::INTEGRAL);
            plan.write(w, ints, blocks);
            return;
        }
    }
    if sparse_body < raw_body {
        w.put_u8(series_mode::SPARSE_BITS);
        let bitset = w.put_slot(n.div_ceil(8));
        if nonzero == side.len() {
            // Every entry is nonzero here: the side's presence bitset.
            let bytes = present.iter().flat_map(|word| word.to_le_bytes());
            for (byte, b) in bitset.iter_mut().zip(bytes) {
                *byte = b;
            }
        } else {
            for (e, p) in side.iter().zip(set_positions(present)) {
                if let Some(byte) = bitset.get_mut(p / 8) {
                    *byte |= u8::from(bits(e) != 0) << (p % 8);
                }
            }
        }
        // Branch-free compaction: every value is stored at the cursor, and
        // the cursor only moves past nonzero ones, so a zero is overwritten
        // by the next nonzero value (or, past the last, not stored at all).
        let (words, _) = w.put_slot(8 * nonzero).as_chunks_mut::<8>();
        let mut at = 0usize;
        for e in side {
            let b = bits(e);
            if let Some(word) = words.get_mut(at) {
                *word = b.to_le_bytes();
            }
            at += usize::from(b != 0);
        }
    } else {
        w.put_u8(series_mode::RAW_BITS);
        let (words, _) = w.put_slot(8 * n).as_chunks_mut::<8>();
        for (e, p) in side.iter().zip(set_positions(present)) {
            if let Some(word) = words.get_mut(p) {
                *word = bits(e).to_le_bytes();
            }
        }
    }
}

/// One value column of a series as read from the payload, never expanded
/// to one value per sample. Its masks are `u64` words over the merged
/// positions, bit `p % 64` of word `p / 64` for position `p`.
#[derive(Debug, Default)]
struct ValueColumn {
    /// Positions whose value is the next one stored: the sparse bitset,
    /// or every position of a raw or integral column.
    step: Vec<u64>,
    /// Positions whose value has a nonzero bit pattern.
    bits: Vec<u64>,
    /// Positions whose value is neither `+0.0` nor `-0.0`.
    nonzero: Vec<u64>,
    /// An integral column's values, as `f64` bits.
    ints: Vec<u64>,
    owned: Vec<[u8; 8]>,
    /// Whether the stored values are `owned` rather than a payload window.
    integral: bool,
    /// Whether the column stores a value per position (raw or integral).
    dense: bool,
}

impl ValueColumn {
    /// Scratch for columns of up to `n` samples.
    fn with_capacity(n: usize) -> Self {
        let words = n.div_ceil(64);
        Self {
            step: Vec::with_capacity(words),
            bits: Vec::with_capacity(words),
            nonzero: Vec::with_capacity(words),
            ints: Vec::with_capacity(n),
            owned: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// The column's values at the positions `member` marks, in order. When
    /// the column stores exactly those positions (a sparse column of a
    /// side whose bytes and ops are zero together, or a raw one of a side
    /// active at every sample) that is its stored values as they are: its
    /// payload `window`, or the decoded integral column. Otherwise they are
    /// gathered into `out`, walking the member positions and the stored
    /// ones of a sparse column, with a cursor into its values; a member
    /// position off `step` is `+0.0`.
    fn at_members<'a>(
        &'a self,
        window: &'a [[u8; 8]],
        member: &[u64],
        out: &'a mut Vec<[u8; 8]>,
    ) -> &'a [[u8; 8]] {
        let vals = if self.integral { &self.owned } else { window };
        if self.step == member {
            return vals;
        }
        out.clear();
        let sparse = u64::from(!self.dense).wrapping_neg();
        let mut at = 0usize;
        for (k, (&word, &step)) in member.iter().zip(&self.step).enumerate() {
            let mut visit = word | (step & sparse);
            while visit != 0 {
                let bit = visit.trailing_zeros();
                visit &= visit - 1;
                let stored = step >> bit & 1;
                let index = if self.dense {
                    64 * k + bit as usize
                } else {
                    at
                };
                at += stored as usize;
                if word >> bit & 1 == 1 {
                    let v = vals.get(index).map_or(0, |v| u64::from_le_bytes(*v));
                    out.push((v & stored.wrapping_neg()).to_le_bytes());
                }
            }
        }
        out
    }

    /// Masks of a column storing one value per position.
    fn fill_dense(&mut self, vals: &[[u8; 8]], n: usize) {
        let words = n.div_ceil(64);
        self.step.clear();
        self.step.extend((0..words).map(|k| match n - 64 * k {
            rest @ 0..64 => (1u64 << rest) - 1,
            _ => u64::MAX,
        }));
        self.bits.clear();
        self.nonzero.clear();
        for (chunk, &step) in vals.chunks(64).zip(&self.step) {
            // A raw column is nearly all nonzero: a word holding no `±0.0`
            // is its step word in both masks, found by one fold that
            // vectorizes; only a word holding one is built bit by bit.
            let zeros = chunk
                .iter()
                .fold(false, |z, v| z | (u64::from_le_bytes(*v) << 1 == 0));
            let (mut bits, mut nonzero) = (step, step);
            if zeros {
                (bits, nonzero) = (0, 0);
                for (i, v) in chunk.iter().enumerate() {
                    let v = u64::from_le_bytes(*v);
                    bits |= u64::from(v != 0) << i;
                    nonzero |= u64::from(v << 1 != 0) << i;
                }
            }
            self.bits.push(bits);
            self.nonzero.push(nonzero);
        }
    }

    /// Read one value column (mode byte, then body) of `n` samples,
    /// returning its payload window (empty for an integral column, whose
    /// values are decoded into `owned`).
    fn read<'p>(
        &mut self,
        r: &mut ByteReader<'p>,
        n: usize,
        domain: &str,
    ) -> Result<&'p [[u8; 8]], EbsError> {
        let mode = r.get_u8()?;
        self.integral = mode == series_mode::INTEGRAL;
        self.dense = mode != series_mode::SPARSE_BITS;
        match mode {
            series_mode::RAW_BITS => {
                let (window, _) = r.get_bytes(8 * n)?.as_chunks::<8>();
                self.fill_dense(window, n);
                Ok(window)
            }
            series_mode::INTEGRAL => {
                decode_column_into(r, n, &mut self.ints)?;
                self.owned.clear();
                self.owned.extend(
                    self.ints
                        .iter()
                        .map(|&u| (u as f64).to_bits().to_le_bytes()),
                );
                let owned = std::mem::take(&mut self.owned);
                self.fill_dense(&owned, n);
                self.owned = owned;
                Ok(&[])
            }
            series_mode::SPARSE_BITS => {
                let bitset = r.get_bytes(n.div_ceil(8))?;
                if !n.is_multiple_of(8) && bitset.last().is_some_and(|&last| last >> (n % 8) != 0) {
                    return Err(EbsError::corrupt_store(format!(
                        "{domain} metrics: sparse bitset sets bits past the sample count"
                    )));
                }
                self.step.clear();
                let (words, tail) = bitset.as_chunks::<8>();
                self.step
                    .extend(words.iter().map(|w| u64::from_le_bytes(*w)));
                if !tail.is_empty() {
                    let mut word = [0u8; 8];
                    for (w, &b) in word.iter_mut().zip(tail) {
                        *w = b;
                    }
                    self.step.push(u64::from_le_bytes(word));
                }
                let stored: usize = self.step.iter().map(|w| w.count_ones() as usize).sum();
                // A stored zero is reported before a truncation that comes
                // after it, as the per-value reader did: scan what is present
                // of the window first, then take it whole.
                let rest = r.rest();
                let (present, _) = rest.get(..8 * stored).unwrap_or(rest).as_chunks::<8>();
                // A whole-window fold, with no early exit, so it vectorizes.
                let signed_zero = present
                    .iter()
                    .fold(false, |z, v| z | (u64::from_le_bytes(*v) << 1 == 0));
                if signed_zero && present.iter().any(|v| u64::from_le_bytes(*v) == 0) {
                    return Err(EbsError::corrupt_store(format!(
                        "{domain} metrics: sparse column stores an explicit zero"
                    )));
                }
                let (window, _) = r.get_bytes(8 * stored)?.as_chunks::<8>();
                self.bits.clone_from(&self.step);
                self.nonzero.clone_from(&self.step);
                if signed_zero {
                    // The stored positions less those of the `-0.0`s.
                    let mut at = 0usize;
                    for word in self.nonzero.iter_mut() {
                        let mut set = *word;
                        while set != 0 {
                            let bit = set & set.wrapping_neg();
                            if window
                                .get(at)
                                .is_some_and(|v| u64::from_le_bytes(*v) << 1 == 0)
                            {
                                *word &= !bit;
                            }
                            set &= set - 1;
                            at += 1;
                        }
                    }
                }
                Ok(window)
            }
            other => Err(EbsError::corrupt_store(format!(
                "{domain} metrics: unknown value-column mode {other}"
            ))),
        }
    }
}

/// The ticks of the member positions `member` marks, in order, into `out`.
fn member_ticks(member: &[u64], ticks: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.extend(set_positions(member).map(|p| ticks.get(p).copied().unwrap_or(0)));
}

/// One side's entries from its columns over the entries: ticks, then the
/// bits of bytes and of ops.
fn side_entries<'a>(
    ticks: &'a [u32],
    [bytes, ops]: [&'a [[u8; 8]]; 2],
) -> impl ExactSizeIterator<Item = (u32, Flow)> + 'a {
    let value = |v: &[u8; 8]| f64::from_bits(u64::from_le_bytes(*v));
    ticks
        .iter()
        .zip(bytes)
        .zip(ops)
        .map(move |((&tick, b), o)| {
            (
                tick,
                Flow {
                    bytes: value(b),
                    ops: value(o),
                },
            )
        })
}

/// Decode one v2 metric domain back into a tick grid and per-entity
/// series, one `SeriesDecoder::decode` per entity, from the whole payload.
/// The loaders read metric chunks through a window instead
/// ([`crate::reader::ChunkReader::read_series_set`]); this is that
/// reader's test oracle.
#[cfg(test)]
pub(crate) fn decode_series_set(
    payload: &[u8],
    domain: &str,
) -> Result<(TickSpec, Vec<Series>), EbsError> {
    let mut r = ByteReader::new(payload, SERIES_CHUNK);
    let (spec, entities) = decode_series_header(&mut r, domain)?;
    let mut out = Vec::with_capacity(entities);
    let mut decoder = SeriesDecoder::new(spec);
    for entity in 0..entities {
        out.push(decoder.decode(&mut r, entity, domain)?);
    }
    r.expect_end()?;
    Ok((spec, out))
}

/// The label of a metric payload's errors.
pub(crate) const SERIES_CHUNK: &str = "metric chunk";

/// The per-series decoder of a v2 metric domain, with its reused scratch.
///
/// Each series decodes into the scratch: the tick column is prefix-summed
/// once, and each value column is read as a borrowed view (a raw window,
/// a sparse bitset beside its value window, or the decoded integral
/// column) with word masks of its nonzero positions. A position belongs
/// to a side when that side's bytes or ops has nonzero bits, unless the
/// whole sample is `±0.0` (no series holds such a sample), and
/// [`Series::from_sides`] fills the series once, at its exact size, by
/// walking the member bits. Validation runs per series in the order the
/// per-value decoder ran it — every column is read before the ticks are
/// checked — so hostile input fails with the same error.
///
/// A decode reads only forward and writes only the scratch until it
/// succeeds, so a series cut short by the end of a window can be decoded
/// again from its start once the window holds more of the payload.
#[derive(Debug)]
pub(crate) struct SeriesDecoder {
    deltas: Vec<u64>,
    ticks: Vec<u32>,
    cols: [ValueColumn; 4],
    member: [Vec<u64>; 2],
    side_ticks: [Vec<u32>; 2],
    gathered: [Vec<[u8; 8]>; 4],
}

impl SeriesDecoder {
    /// Scratch for the series of a `spec` grid.
    ///
    /// A valid series holds at most one sample per tick of its grid, so
    /// the scratch is sized for that once, before any series: a scratch
    /// vector that grew mid-domain would leave freed holes between the
    /// decoded series, which fragment the heap.
    pub(crate) fn new(spec: TickSpec) -> Self {
        let cap = (spec.ticks as usize).min(SCRATCH_SAMPLES);
        Self {
            deltas: Vec::with_capacity(cap),
            ticks: Vec::with_capacity(cap),
            cols: std::array::from_fn(|_| ValueColumn::with_capacity(cap)),
            member: std::array::from_fn(|_| Vec::with_capacity(cap.div_ceil(64))),
            side_ticks: std::array::from_fn(|_| Vec::with_capacity(cap)),
            gathered: std::array::from_fn(|_| Vec::with_capacity(cap)),
        }
    }

    /// Decode the series of `entity` from `r`.
    pub(crate) fn decode(
        &mut self,
        r: &mut ByteReader<'_>,
        entity: usize,
        domain: &str,
    ) -> Result<Series, EbsError> {
        let declared_samples = r.get_varint()?;
        let samples = usize::try_from(declared_samples)
            .ok()
            .filter(|&c| c <= MAX_CHUNK_EVENTS)
            .ok_or_else(|| {
                EbsError::corrupt_store(format!(
                    "{domain} metrics: entity {entity} declares {declared_samples} samples"
                ))
            })?;
        let deltas = &mut self.deltas;
        decode_column_into(r, samples, deltas)?;
        // A saturating prefix sum is monotone, so its final value bounds
        // every tick: one compare after the loop stands in for a per-row
        // overflow check.
        let mut tick = 0u64;
        self.ticks.clear();
        self.ticks.extend(deltas.iter().map(|&d| {
            tick = tick.saturating_add(d);
            tick as u32
        }));
        let mut windows: [&[[u8; 8]]; 4] = [&[]; 4];
        for (col, window) in self.cols.iter_mut().zip(&mut windows) {
            *window = col.read(r, samples, domain)?;
        }
        // A whole-column fold, with no early exit, so it vectorizes.
        let repeats = (deltas.iter().skip(1)).fold(false, |z, &d| z | (d == 0));
        if tick > u64::from(u16::MAX) || repeats {
            return Err(tick_column_error(deltas, entity, domain));
        }
        // A side's member positions: its bytes or ops has nonzero bits
        // there, and the sample is not `±0.0` throughout.
        let [rb, ro, wb, wo] = &self.cols;
        let [read, write] = &mut self.member;
        read.clear();
        write.clear();
        let word = |mask: &[u64], k: usize| mask.get(k).copied().unwrap_or(0);
        for k in 0..samples.div_ceil(64) {
            let keep = [rb, ro, wb, wo]
                .iter()
                .fold(0, |acc, c| acc | word(&c.nonzero, k));
            read.push((word(&rb.bits, k) | word(&ro.bits, k)) & keep);
            write.push((word(&wb.bits, k) | word(&wo.bits, k)) & keep);
        }
        let [read, write] = &self.member;
        let [read_ticks, write_ticks] = &mut self.side_ticks;
        member_ticks(read, &self.ticks, read_ticks);
        member_ticks(write, &self.ticks, write_ticks);
        let [rb_out, ro_out, wb_out, wo_out] = &mut self.gathered;
        let [rb_win, ro_win, wb_win, wo_win] = windows;
        let series = Series::from_sides(
            side_entries(
                read_ticks,
                [
                    rb.at_members(rb_win, read, rb_out),
                    ro.at_members(ro_win, read, ro_out),
                ],
            ),
            side_entries(
                write_ticks,
                [
                    wb.at_members(wb_win, write, wb_out),
                    wo.at_members(wo_win, write, wo_out),
                ],
            ),
        );
        series.ok_or_else(|| {
            EbsError::corrupt_store(format!(
                "{domain} metrics: entity {entity} decodes to an invalid series"
            ))
        })
    }
}

/// The error for a tick column the batch check rejected: the first
/// failure of the per-sample walk, replayed off the hot path so the
/// message names the offending tick.
#[cold]
fn tick_column_error(deltas: &[u64], entity: usize, domain: &str) -> EbsError {
    let mut tick = 0u16;
    for (k, &delta) in deltas.iter().enumerate() {
        let step = u16::try_from(delta)
            .map_err(|_| {
                EbsError::corrupt_store(format!(
                    "{domain} metrics: entity {entity} tick delta overflows u16"
                ))
            })
            .and_then(|delta| next_tick(tick, delta, k, entity, domain));
        match step {
            Ok(next) => tick = next,
            Err(e) => return e,
        }
    }
    EbsError::corrupt_store(format!(
        "{domain} metrics: entity {entity} has an invalid tick column"
    ))
}

/// Shared series-payload header: tick grid plus entity count, validated.
pub(crate) fn decode_series_header(
    r: &mut ByteReader<'_>,
    domain: &str,
) -> Result<(TickSpec, usize), EbsError> {
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
    Ok((spec, entities))
}

/// Advance the running tick by a decoded delta, rejecting repeats and
/// ticks past the `u16` range a series addresses.
#[inline]
fn next_tick(
    tick: u16,
    delta: u16,
    k: usize,
    entity: usize,
    domain: &str,
) -> Result<u16, EbsError> {
    if k > 0 && delta == 0 {
        return Err(EbsError::corrupt_store(format!(
            "{domain} metrics: entity {entity} repeats tick {tick}"
        )));
    }
    tick.checked_add(delta).ok_or_else(|| {
        EbsError::corrupt_store(format!(
            "{domain} metrics: entity {entity} tick overflows u16"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::metric::RwFlow;

    /// The series `rows` make, pushed in order into the reference series.
    fn series_of(rows: impl IntoIterator<Item = (u32, RwFlow)>) -> Series {
        let mut reference = series_oracle::Series::new();
        for (tick, rw) in rows {
            reference.push(tick, rw);
        }
        reference.to_split()
    }

    fn sample_events() -> Vec<IoEvent> {
        (0..1000u64)
            .map(|i| IoEvent {
                t_us: i * 37,
                vd: VdId((i % 7) as u32),
                qp: QpId((i % 13) as u32),
                op: if i % 3 == 0 { Op::Write } else { Op::Read },
                size: 4096 * ((i % 5) as u32 + 1),
                offset: i * 8192 + (i % 11) * (1 << 30),
            })
            .collect()
    }

    #[test]
    fn events_round_trip() {
        let events = sample_events();
        let payload = encode_events(&events).unwrap();
        assert_eq!(decode_events(&payload).unwrap(), events);
    }

    #[test]
    fn v2_column_accounting_sums_to_the_payload() {
        let events = sample_events();
        let mut scratch = EventScratch::new();
        let (payload, enc_bytes) = encode_events_v2(&events, &mut scratch).unwrap();
        assert_eq!(enc_bytes.total(), payload.len() as u64);
        let mut dec = EventScratch::new();
        let dec_bytes = decode_events_v2_into(&payload, &mut dec).unwrap();
        assert_eq!(dec_bytes, enc_bytes);
    }

    #[test]
    fn v2_scratch_reuse_is_equivalent_to_fresh_scratch() {
        let events = sample_events();
        let mut scratch = EventScratch::new();
        for chunk in events.chunks(300) {
            let (payload, _) = encode_events_v2(chunk, &mut scratch).unwrap();
            let mut dec = EventScratch::new();
            decode_events_v2_into(&payload, &mut dec).unwrap();
            let mut out = Vec::new();
            events_from_columns(&dec.columns(), &mut out).unwrap();
            assert_eq!(out, chunk);
        }
        // Re-decode the full batch through one reused scratch as well.
        let mut reused = EventScratch::new();
        let (payload, _) = encode_events_v2(&events, &mut scratch).unwrap();
        decode_events_v2_into(&payload, &mut reused).unwrap();
        decode_events_v2_into(&payload, &mut reused).unwrap();
        let mut out = Vec::new();
        events_from_columns(&reused.columns(), &mut out).unwrap();
        assert_eq!(out, events);
    }

    #[test]
    fn empty_event_batch_round_trips() {
        let payload = encode_events(&[]).unwrap();
        assert!(decode_events(&payload).unwrap().is_empty());
    }

    #[test]
    fn unsorted_batch_is_rejected_at_encode_time() {
        let mut events = sample_events();
        events.swap(0, 500);
        assert!(matches!(
            encode_events(&events),
            Err(EbsError::InvalidSpec(_))
        ));
    }

    #[test]
    fn event_encoding_is_compact() {
        let events = sample_events();
        let payload = encode_events(&events).unwrap();
        // Struct size is 32 bytes; the column encoding should be well
        // under half of that per event for realistic streams.
        assert!(
            payload.len() < events.len() * 16,
            "{} bytes for {} events",
            payload.len(),
            events.len()
        );
    }

    #[test]
    fn truncated_event_payload_is_typed_not_panic() {
        let payload = encode_events(&sample_events()).unwrap();
        for cut in [0, 1, 2, payload.len() / 2, payload.len() - 1] {
            let err = decode_events(&payload[..cut]).unwrap_err();
            assert!(
                matches!(err, EbsError::Truncated(_) | EbsError::CorruptStore(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn v2_reencoding_decoded_events_is_byte_identical() {
        let events = sample_events();
        let first = encode_events(&events).unwrap();
        let decoded = decode_events(&first).unwrap();
        let second = encode_events(&decoded).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn hostile_v2_headers_are_corruption() {
        let events = sample_events();
        let payload = encode_events(&events).unwrap();
        // Absurd event count.
        let mut w = ByteWriter::new();
        w.put_varint((MAX_CHUNK_EVENTS as u64) + 1);
        let mut scratch = EventScratch::new();
        assert!(matches!(
            decode_events_v2_into(&w.into_bytes(), &mut scratch),
            Err(EbsError::CorruptStore(_))
        ));
        // Dictionary bigger than the event count.
        let mut w = ByteWriter::new();
        w.put_varint(2); // count
        w.put_varint(3); // dict_len > count
        w.put_bytes(&[0; 16]);
        assert!(matches!(
            decode_events_v2_into(&w.into_bytes(), &mut scratch),
            Err(EbsError::CorruptStore(_))
        ));
        // Non-increasing dictionary: flip the second dict delta to zero.
        // (Header layout: count varint, dict_len varint, then deltas.)
        let mut broken = payload;
        // count=1000 is a 2-byte varint; dict_len=7 is 1 byte; first dict
        // delta (id 0) is 1 byte; second delta starts at offset 4.
        broken[4] = 0;
        assert!(matches!(
            decode_events_v2_into(&broken, &mut scratch),
            Err(EbsError::CorruptStore(_))
        ));
    }

    #[test]
    fn hand_built_columns_with_bad_indices_are_rejected() {
        let dict = [3u32];
        let t_us = [0u64, 1];
        let vd_idx = [0u64, 9]; // second entry points past the dictionary
        let qp = [0u64, 0];
        let size = [4096u64, 4096];
        let offset = [0u64, 0];
        let bits = [0u8];
        let cols = EventColumns {
            dict: &dict,
            t_us: &t_us,
            vd_idx: &vd_idx,
            qp: &qp,
            write_bits: &bits,
            size: &size,
            offset: &offset,
        };
        let mut out = Vec::new();
        assert!(matches!(
            events_from_columns(&cols, &mut out),
            Err(EbsError::CorruptStore(_))
        ));
        // Mismatched column lengths are rejected up front.
        let cols = EventColumns {
            dict: &dict,
            t_us: &t_us,
            vd_idx: &vd_idx[..1],
            qp: &qp,
            write_bits: &bits,
            size: &size,
            offset: &offset,
        };
        assert!(matches!(
            events_from_columns(&cols, &mut out),
            Err(EbsError::CorruptStore(_))
        ));
    }

    #[test]
    fn specs_round_trip() {
        let rows = vec![
            SpecRow {
                vm: 3,
                app: AppClass::Database,
                capacity_bytes: 100 << 30,
                qp_count: 4,
                tput_cap: 3.2e8,
                iops_cap: 12_000.0,
            },
            SpecRow {
                vm: 0,
                app: AppClass::Docker,
                capacity_bytes: 40 << 30,
                qp_count: 1,
                tput_cap: 1.0e8,
                iops_cap: 2_400.0,
            },
        ];
        let payload = encode_specs(&rows);
        assert_eq!(decode_specs(&payload).unwrap(), rows);
    }

    #[test]
    fn bad_app_class_is_corruption() {
        let rows = vec![SpecRow {
            vm: 0,
            app: AppClass::BigData,
            capacity_bytes: 1 << 30,
            qp_count: 1,
            tput_cap: 1.0,
            iops_cap: 1.0,
        }];
        let mut payload = encode_specs(&rows);
        payload[2] = 42; // app byte of row 0 (after count varint + vm varint)
        assert!(matches!(
            decode_specs(&payload),
            Err(EbsError::CorruptStore(_))
        ));
    }

    fn sample_series() -> (TickSpec, Vec<Series>) {
        let a = series_of([
            (
                3,
                RwFlow {
                    read: Flow {
                        bytes: 1.5e9,
                        ops: 366.0,
                    },
                    write: Flow::ZERO,
                },
            ),
            (
                9,
                RwFlow {
                    read: Flow::ZERO,
                    write: Flow {
                        bytes: 7.25e8,
                        ops: 177.0,
                    },
                },
            ),
        ]);
        (TickSpec::new(10.0, 360), vec![a, Series::new()])
    }

    #[test]
    fn series_sets_round_trip_bit_exactly() {
        let (ticks, series) = sample_series();
        let payload = encode_series_set(ticks, &series);
        let (spec, decoded) = decode_series_set(&payload, "compute").unwrap();
        assert_eq!(spec, ticks);
        assert_eq!(decoded, series);
    }

    #[test]
    fn fractional_and_pathological_floats_fall_back_to_raw_bits() {
        let s = series_of([(
            1,
            RwFlow {
                read: Flow {
                    bytes: 0.5, // fractional: not integral
                    ops: -0.0,  // sign bit must survive
                },
                write: Flow {
                    bytes: 1e300, // far past 2^53
                    ops: f64::INFINITY,
                },
            },
        )]);
        let ticks = TickSpec::new(1.0, 4);
        let payload = encode_series_set(ticks, std::slice::from_ref(&s));
        let (_, decoded) = decode_series_set(&payload, "compute").unwrap();
        let got = decoded.first().and_then(|d| d.samples().next()).unwrap();
        let want = s.samples().next().unwrap();
        assert_eq!(got.rw.read.bytes.to_bits(), want.rw.read.bytes.to_bits());
        assert_eq!(got.rw.read.ops.to_bits(), want.rw.read.ops.to_bits());
        assert_eq!(got.rw.write.bytes.to_bits(), want.rw.write.bytes.to_bits());
        assert_eq!(got.rw.write.ops.to_bits(), want.rw.write.ops.to_bits());
    }

    #[test]
    fn v2_series_encode_integral_values_compactly() {
        // 500 samples of integer-valued flows: v2 should take under half
        // of the raw layout's 32 bytes per sample (four f64 fields).
        let s = series_of((0..500u32).map(|k| {
            (
                k,
                RwFlow {
                    read: Flow {
                        bytes: f64::from(k) * 4096.0,
                        ops: f64::from(k % 50),
                    },
                    write: Flow {
                        bytes: 4096.0,
                        ops: 1.0,
                    },
                },
            )
        }));
        let ticks = TickSpec::new(1.0, 500);
        let raw = 500 * 32;
        let v2 = encode_series_set(ticks, &[s]);
        assert!(
            v2.len() * 2 < raw,
            "v2 {} bytes vs {raw} raw bytes",
            v2.len()
        );
    }

    #[test]
    fn zero_tick_grid_is_corruption() {
        let payload = encode_series_set(TickSpec::new(1.0, 5), &[]);
        // Flip the tick_secs field to -1.0 bits.
        let mut bad = payload.clone();
        bad[..8].copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        assert!(matches!(
            decode_series_set(&bad, "compute"),
            Err(EbsError::CorruptStore(_))
        ));
        let mut bad = payload;
        bad[8] = 0; // ticks varint -> 0
        assert!(matches!(
            decode_series_set(&bad, "storage"),
            Err(EbsError::CorruptStore(_))
        ));
    }

    #[test]
    fn truncated_series_payloads_are_typed_errors() {
        let (ticks, series) = sample_series();
        let payload = encode_series_set(ticks, &series);
        for cut in [0, 4, 8, 9, payload.len() / 2, payload.len() - 1] {
            let err = decode_series_set(&payload[..cut], "compute").unwrap_err();
            assert!(
                matches!(err, EbsError::Truncated(_) | EbsError::CorruptStore(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    /// SplitMix64 stream for the series generator.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Values the codec must carry bit-exactly that the simulator never
    /// produces: signed zero, NaN payloads, infinities, subnormals.
    const ODD_VALUES: [u64; 9] = [
        0x8000_0000_0000_0000, // -0.0
        0x7FF8_0000_0000_0000, // quiet NaN
        0x7FF8_DEAD_BEEF_0001, // NaN with a payload
        0xFFF0_0000_0000_0001, // negative signalling NaN
        0x7FF0_0000_0000_0000, // +inf
        0xFFF0_0000_0000_0000, // -inf
        0x0000_0000_0000_0001, // smallest subnormal
        0x000F_FFFF_FFFF_FFFF, // largest subnormal
        0xBFF8_0000_0000_0000, // -1.5
    ];

    /// One field value of the given column flavour.
    fn field_value(g: &mut Gen, flavour: u64) -> f64 {
        match flavour {
            // All-zero column.
            0 => 0.0,
            // Zero-dominant fractional rates: the sparse mode.
            1 if g.below(2) == 0 => 0.0,
            1 => g.below(1 << 30) as f64 / 7.0,
            // Aligned integers: the integral mode.
            2 => (g.below(1 << 12) * 4096) as f64,
            // Integers at and above 2^53, where `f64 → u64` stops being exact
            // for odd values and saturates past 2^64.
            3 => [
                (1u64 << 53) as f64,
                ((1u64 << 53) + 2) as f64,
                (1u64 << 63) as f64,
                u64::MAX as f64,
                1e300,
            ][g.below(5) as usize],
            4 => f64::from_bits(ODD_VALUES[g.below(ODD_VALUES.len() as u64) as usize]),
            // Mixed: any flavour per value.
            _ => {
                let f = g.below(5);
                field_value(g, f)
            }
        }
    }

    /// One direction's flow in the generator's shape: active at `active`
    /// in 32 ticks, its bytes and ops then nonzero together (full-entropy
    /// rates, or now and then whole numbers), idle otherwise.
    fn side_flow(g: &mut Gen, active: u64) -> Flow {
        if g.below(32) >= active {
            return Flow::ZERO;
        }
        let bytes = if g.below(8) == 0 {
            ((g.below(1 << 12) + 1) * 4096) as f64
        } else {
            (g.below(1 << 30) + 1) as f64 / 7.0
        };
        Flow {
            bytes,
            ops: bytes / 4096.0,
        }
    }

    /// A random domain of series covering empty and single-sample series,
    /// series spanning several frame-of-reference miniblocks, and every
    /// column flavour above. Besides series whose fields draw their zeros
    /// independently, it holds series in the generator's shape (each
    /// side's bytes and ops zero together, read and write ticks
    /// interleaved, most ticks one-sided) and read-only and write-only
    /// ones.
    fn random_domain(g: &mut Gen, max_len: u64) -> Vec<Series> {
        (0..g.below(6))
            .map(|_| {
                let len = match g.below(6) {
                    0 => 0,
                    1 => 1,
                    2 => 127 + g.below(3),
                    _ => g.below(max_len),
                };
                let flavours = [0; 4].map(|_| g.below(6));
                let shape = g.below(6);
                let fields = |g: &mut Gen, [bytes, ops]: [u64; 2]| Flow {
                    bytes: field_value(g, bytes),
                    ops: field_value(g, ops),
                };
                let mut rows = Vec::new();
                let mut tick = g.below(3) as u32;
                for _ in 0..len {
                    let (read, write) = match shape {
                        0 | 1 => (side_flow(g, 5), side_flow(g, 29)),
                        2 => (fields(g, [flavours[0], flavours[1]]), Flow::ZERO),
                        3 => (Flow::ZERO, fields(g, [flavours[2], flavours[3]])),
                        _ => (
                            fields(g, [flavours[0], flavours[1]]),
                            fields(g, [flavours[2], flavours[3]]),
                        ),
                    };
                    rows.push((tick, RwFlow { read, write }));
                    // Jumps of 4,096 ticks reach 2-byte FOR widths; they
                    // stop past tick 60,000, which keeps 600 samples
                    // below 63,300 and inside the `u16` tick range.
                    tick += 1 + if tick < 60_000 && g.below(8) == 0 {
                        1 << 12
                    } else {
                        g.below(3) as u32
                    };
                }
                series_of(rows)
            })
            .collect()
    }

    /// Every sample of a domain as bits, so NaNs and signed zeros compare.
    fn sample_bits(series: &[Series]) -> Vec<Vec<(u32, [u64; 4])>> {
        series
            .iter()
            .map(|s| {
                s.samples()
                    .map(|sm| {
                        let rw = sm.rw;
                        let f = [rw.read.bytes, rw.read.ops, rw.write.bytes, rw.write.ops];
                        (sm.tick, f.map(f64::to_bits))
                    })
                    .collect()
            })
            .collect()
    }

    type Decoded = Result<(TickSpec, Vec<Series>), EbsError>;

    /// The batch and reference decoders agree: both succeed with the same
    /// bits, or both fail with the same error variant.
    fn assert_same_outcome(got: Decoded, want: Decoded, what: &str) {
        match (got, want) {
            (Ok((gs, g)), Ok((ws, w))) => {
                assert_eq!(gs, ws, "{what}: tick grid");
                assert_eq!(sample_bits(&g), sample_bits(&w), "{what}: samples");
            }
            (Err(g), Err(w)) => assert_eq!(
                std::mem::discriminant(&g),
                std::mem::discriminant(&w),
                "{what}: batch error {g} vs reference error {w}"
            ),
            (g, w) => panic!("{what}: batch {g:?} vs reference {w:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(miri) { 2 } else { 256 }
        ))]

        #[test]
        fn batch_series_codec_matches_the_reference(seed in proptest::prelude::any::<u64>()) {
            let mut g = Gen(seed);
            let ticks = TickSpec::new(10.0, 360);
            let series = random_domain(&mut g, if cfg!(miri) { 20 } else { 600 });
            let payload = encode_series_set(ticks, &series);
            assert_eq!(payload, oracle::encode(ticks, &series), "encoded bytes");
            let (spec, decoded) = decode_series_set(&payload, "compute").unwrap();
            assert_eq!(spec, ticks);
            assert_eq!(sample_bits(&decoded), sample_bits(&series), "round trip");
            assert!(decoded.iter().all(|s| s.spare_capacity() == 0), "growth slack");
            assert_same_outcome(
                Ok((spec, decoded)),
                oracle::decode(&payload, "compute"),
                "intact",
            );
            // Hostile copies: cuts and single-bit flips.
            for _ in 0..4 {
                let cut = g.below(payload.len() as u64 + 1) as usize;
                assert_same_outcome(
                    decode_series_set(&payload[..cut], "compute"),
                    oracle::decode(&payload[..cut], "compute"),
                    &format!("cut at {cut}"),
                );
                let mut flipped = payload.clone();
                let at = g.below(payload.len() as u64) as usize;
                flipped[at] ^= 1 << g.below(8);
                assert_same_outcome(
                    decode_series_set(&flipped, "compute"),
                    oracle::decode(&flipped, "compute"),
                    &format!("flip at {at}"),
                );
            }
        }
    }

    /// The windowed loader, through a 64-byte window, against
    /// `decode_series_set` on the whole payload: the same `Result`, error
    /// messages included, for the intact payload, at every cut and with a
    /// bit flipped in every byte (each sealed as its own chunk); and the
    /// same chunk and byte counts as the whole-chunk reader.
    #[test]
    fn windowed_series_decode_matches_the_whole_payload() {
        use crate::format::kind;
        use crate::reader::ChunkReader;
        use crate::writer::StoreWriter;

        let container = |payload: &[u8]| {
            let mut w = StoreWriter::new(Vec::new()).unwrap();
            w.write_chunk(kind::COMPUTE_METRICS, payload).unwrap();
            w.write_chunk(kind::CONFIG, b"after").unwrap();
            w.finish().unwrap()
        };
        fn windowed(bytes: &[u8]) -> (Decoded, ChunkReader<&[u8]>) {
            let mut r = ChunkReader::new(bytes).unwrap();
            assert!(r.next_frame().unwrap().is_some());
            let got = r.read_series_set_through("compute", 64);
            (got, r)
        }
        let same = |payload: &[u8], what: &str| {
            let (got, _) = windowed(&container(payload));
            match (got, decode_series_set(payload, "compute")) {
                (Ok((gs, g)), Ok((ws, w))) => {
                    assert_eq!(gs, ws, "{what}: tick grid");
                    assert_eq!(sample_bits(&g), sample_bits(&w), "{what}: samples");
                }
                (Err(g), Err(w)) => assert_eq!(g, w, "{what}"),
                (g, w) => panic!("{what}: windowed {:?} vs whole {:?}", g.err(), w.err()),
            }
        };

        let mut g = Gen(0x5EED);
        let mut series = Vec::new();
        while series.len() < 8 {
            series.extend(random_domain(&mut g, 40));
        }
        let payload = encode_series_set(TickSpec::new(10.0, 360), &series);
        assert!(payload.len() > 16 * 64, "the window must refill");
        same(&payload, "intact");
        let stride = if cfg!(miri) { 61 } else { 1 };
        for cut in (0..payload.len()).step_by(stride) {
            same(&payload[..cut], &format!("cut at {cut}"));
        }
        for at in (0..payload.len()).step_by(stride) {
            let mut flipped = payload.clone();
            flipped[at] ^= 1 << (at % 8);
            same(&flipped, &format!("flip at {at}"));
        }

        let bytes = container(&payload);
        let (got, mut r) = windowed(&bytes);
        assert_eq!(sample_bits(&got.unwrap().1), sample_bits(&series));
        while r.next_frame().unwrap().is_some() {}
        let mut whole = ChunkReader::new(bytes.as_slice()).unwrap();
        while whole.next_frame().unwrap().is_some() {
            whole.read_payload_into(&mut Vec::new()).unwrap();
        }
        assert_eq!(r.end_summary(), whole.end_summary());
        assert_eq!(r.counts(), whole.counts());
        assert_eq!(r.counts(), (2, bytes.len() as u64));
    }

    /// A one-entity payload with raw value columns, built by hand so it can
    /// hold what no encoder emits.
    fn raw_payload(deltas: &[u64], rows: &[[f64; 4]]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_f64_bits(1.0);
        w.put_varint(100);
        w.put_varint(1);
        w.put_varint(deltas.len() as u64);
        encode_column(&mut w, deltas);
        for field in 0..4 {
            w.put_u8(series_mode::RAW_BITS);
            for row in rows {
                w.put_f64_bits(row[field]);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn all_zero_rows_are_dropped_like_the_reference_drops_them() {
        // The middle row is all zeros, one of them negative: the reference
        // decoder drops it, and so must the batch decoder.
        let payload = raw_payload(&[2, 1, 1], &[[1.0; 4], [0.0, -0.0, 0.0, 0.0], [2.0; 4]]);
        let (_, got) = decode_series_set(&payload, "storage").unwrap();
        let ticks: Vec<u32> = got[0].samples().map(|s| s.tick).collect();
        assert_eq!(ticks, [2, 4]);
        assert_same_outcome(
            Ok((TickSpec::new(1.0, 100), got)),
            oracle::decode(&payload, "storage"),
            "zero row",
        );
    }

    #[test]
    fn bad_tick_columns_report_what_the_reference_reports() {
        let row = [1.0; 4];
        for deltas in [
            &[3, 0][..],               // repeated tick
            &[65_535, 1],              // running tick overflows u16
            &[65_536],                 // delta overflows u16
            &[u64::from(u32::MAX), 1], // delta at u32::MAX
            &[1 << 33],                // delta past u32
            &[u64::MAX, u64::MAX],     // saturating sum
        ] {
            let payload = raw_payload(deltas, &vec![row; deltas.len()]);
            let got = decode_series_set(&payload, "compute").unwrap_err();
            let want = oracle::decode(&payload, "compute").unwrap_err();
            assert_eq!(got.to_string(), want.to_string(), "deltas {deltas:?}");
        }
    }

    #[test]
    fn a_stored_zero_outranks_a_later_truncation() {
        // Sparse column of three present values whose second is an
        // explicit zero, cut inside the third: the per-value reader met
        // the zero first, so this is corruption, not truncation.
        let mut w = ByteWriter::new();
        w.put_f64_bits(1.0);
        w.put_varint(100);
        w.put_varint(1);
        w.put_varint(3);
        encode_column(&mut w, &[1, 1, 1]);
        w.put_u8(series_mode::SPARSE_BITS);
        w.put_u8(0b111);
        for v in [1.0, 0.0, 2.0] {
            w.put_f64_bits(v);
        }
        let payload = w.into_bytes();
        let cut = &payload[..payload.len() - 3];
        let got = decode_series_set(cut, "compute").unwrap_err();
        assert!(matches!(got, EbsError::CorruptStore(_)), "{got}");
        assert_same_outcome(Err(got), oracle::decode(cut, "compute"), "zero then cut");
    }
}
