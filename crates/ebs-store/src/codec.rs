//! Batched integer column codecs for the container: group varint and
//! byte-granular frame-of-reference packing, plus the zigzag map that turns
//! signed deltas into small unsigned values.
//!
//! Both codecs decode in groups — a control byte or block header is
//! validated once, then 4–128 values are unpacked from a single
//! bounds-checked byte window with no per-value branching on the payload
//! length. That is what moves decode from ~19M events/s (a per-value
//! LEB128 loop) to the 14-16x CSV parse speed the decode race in
//! `tests/races.rs` measures on a 2-CPU host (it gates at 3x): the inner
//! loops are fixed-width little-endian loads that the compiler unrolls and
//! vectorizes.
//!
//! Wire formats (DESIGN.md §14):
//!
//! * **Group varint** (`column_tag::GROUP_VARINT`): values in groups of
//!   [`GROUP`] = 4. Each group is one control byte — four 2-bit length
//!   classes mapping to 1, 2, 4 or 8 little-endian bytes — followed by the
//!   packed values. A tail group of fewer than 4 values keeps its unused
//!   control bits zero (decoders reject anything else, so the encoding of
//!   a column is canonical).
//! * **Frame of reference** (`column_tag::FOR_BYTES`): values in blocks of
//!   [`MINIBLOCK`] = 128. Each block is `min` as a LEB128 varint, a width
//!   byte `W ∈ 0..=8`, then `W × block_len` bytes of little-endian
//!   `value − min` deltas. `W = 0` encodes an all-equal block in just the
//!   header. Widths are byte-granular rather than bit-granular on purpose:
//!   the ~12% size a bit-packer would save costs ~3x in decode throughput,
//!   and decode is the gating path.
//!
//! [`encode_column`] prefixes either codec with a two-byte column header:
//! the codec tag and an **alignment shift**. Block-device columns are
//! dominated by 4 KiB-aligned offsets and sizes, so the encoder strips the
//! longest run of trailing zero bits shared by every value (the trailing
//! zeros of their OR) before packing and records that shift; the decoder
//! shifts back. A 4 KiB-aligned LBA column loses 12 bits — 1.5 bytes —
//! per value for one header byte per column. The shift is canonical: when
//! it is nonzero the decoder requires some stored value to be odd (the OR
//! of the packed values has bit 0 set), otherwise the encoder would have
//! chosen a larger shift. Codec choice is decode-speed biased: group
//! varint must beat frame-of-reference by more than one part in sixteen
//! to be picked, since FOR's fixed-width inner loops decode ~3x faster —
//! tag, shift and codec are all pure functions of the values, so
//! re-encoding decoded data is byte-identical.
//!
//! Failure model: decoders return typed [`EbsError`]s and never panic.
//! Hostile block headers can make a value wrap (`min + delta` is a
//! wrapping add — honest encoders never overflow since `delta = v − min`);
//! the semantic validation layered above (range checks, fleet lookup,
//! END-chunk totals) rejects the result, and no memory unsafety or panic
//! is reachable.

use crate::bytes::{ByteReader, ByteWriter};
use ebs_core::error::EbsError;

/// Values per group-varint group (one control byte each).
pub const GROUP: usize = 4;

/// Values per frame-of-reference miniblock (one `min`/width header each).
pub const MINIBLOCK: usize = 128;

/// First byte of every encoded column: which codec follows.
pub mod column_tag {
    /// Group-varint encoding (groups of 4, 2-bit length classes).
    pub const GROUP_VARINT: u8 = 1;
    /// Byte-granular frame-of-reference encoding (miniblocks of 128).
    pub const FOR_BYTES: u8 = 2;
}

/// Map a signed value onto the small-unsigned range varints and FOR like:
/// 0, -1, 1, -2, … become 0, 1, 2, 3, …
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// 2-bit group-varint length class of a value: 0..=3 for 1/2/4/8 bytes.
#[inline]
fn len_class(v: u64) -> u8 {
    if v < 1 << 8 {
        0
    } else if v < 1 << 16 {
        1
    } else if v < 1 << 32 {
        2
    } else {
        3
    }
}

/// Little-endian load of up to `N` bytes, zero-padded (the panic-free
/// spelling of `try_into().unwrap()` for a prefix already length-checked
/// by the caller's byte-window split).
#[inline]
fn le_array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    for (dst, src) in a.iter_mut().zip(bytes) {
        *dst = *src;
    }
    a
}

/// Decode one packed little-endian value of `len ∈ {1,2,4,8}` bytes.
#[inline]
fn load_le(bytes: &[u8]) -> u64 {
    match bytes.len() {
        1 => u64::from(bytes.first().copied().unwrap_or(0)),
        2 => u64::from(u16::from_le_bytes(le_array::<2>(bytes))),
        4 => u64::from(u32::from_le_bytes(le_array::<4>(bytes))),
        _ => u64::from_le_bytes(le_array::<8>(bytes)),
    }
}

/// Bytes one LEB128 varint takes.
#[inline]
fn varint_len(v: u64) -> usize {
    let bits = (64 - v.leading_zeros()).max(1) as usize;
    bits.div_ceil(7)
}

/// Exact encoded size of `vals` under group varint.
pub fn group_varint_size(vals: &[u64]) -> usize {
    vals.len().div_ceil(GROUP) + group_varint_data_len(vals, 0)
}

/// Packed data bytes (control bytes excluded) of `vals >> shift` under
/// group varint.
#[inline]
fn group_varint_data_len(vals: &[u64], shift: u32) -> usize {
    vals.iter().map(|&v| 1usize << len_class(v >> shift)).sum()
}

/// Append `vals` in group-varint form (no tag byte; see [`encode_column`]).
pub fn encode_group_varint(w: &mut ByteWriter, vals: &[u64]) {
    write_group_varint(w, vals, 0);
}

/// Append `vals >> shift` in group-varint form: the shift is applied as
/// each value is packed, so no shifted copy of the column is built.
fn write_group_varint(w: &mut ByteWriter, vals: &[u64], shift: u32) {
    for group in vals.chunks(GROUP) {
        let mut ctrl = 0u8;
        for (k, &v) in group.iter().enumerate() {
            ctrl |= len_class(v >> shift) << (2 * k);
        }
        w.put_u8(ctrl);
        for &v in group {
            let v = v >> shift;
            match len_class(v) {
                0 => w.put_u8(v as u8),
                1 => w.put_bytes(&(v as u16).to_le_bytes()),
                2 => w.put_bytes(&(v as u32).to_le_bytes()),
                _ => w.put_bytes(&v.to_le_bytes()),
            }
        }
    }
}

/// Total packed bytes a full group's control byte declares.
#[inline]
fn group_data_len(ctrl: u8) -> usize {
    (1usize << (ctrl & 3))
        + (1usize << (ctrl >> 2 & 3))
        + (1usize << (ctrl >> 4 & 3))
        + (1usize << (ctrl >> 6 & 3))
}

/// Unpack one group's byte window into `out`. The window length was
/// derived from the control byte, so the per-value splits cannot fail;
/// the typed error is the totality fallback. While ≥8 window bytes
/// remain, each value is one unconditional 8-byte load masked down to
/// its length class — no per-value branching on the payload.
#[inline]
fn unpack_group(
    what: &str,
    mut window: &[u8],
    ctrl: u8,
    n: usize,
    out: &mut Vec<u64>,
) -> Result<(), EbsError> {
    let mut c = ctrl;
    for _ in 0..n {
        let len = 1usize << (c & 3);
        c >>= 2;
        if let Some(head) = window.first_chunk::<8>() {
            let mask = if len == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * len)) - 1
            };
            out.push(u64::from_le_bytes(*head) & mask);
            window = window.get(len..).unwrap_or(&[]);
        } else {
            let (head, rest) = window.split_at_checked(len).ok_or_else(|| {
                EbsError::corrupt_store(format!(
                    "{what}: group window shorter than its control byte"
                ))
            })?;
            out.push(load_le(head));
            window = rest;
        }
    }
    Ok(())
}

/// Decode `count` group-varint values, appending to `out`.
///
/// Tail groups must keep unused control bits zero — anything else is
/// [`EbsError::CorruptStore`], which keeps the encoding canonical.
pub fn decode_group_varint_into(
    r: &mut ByteReader<'_>,
    count: usize,
    out: &mut Vec<u64>,
) -> Result<(), EbsError> {
    // Every value takes ≥1 data byte plus its share of a control byte, so
    // a count the remaining bytes cannot possibly hold is corruption —
    // checked before the reserve, like `ByteReader::check_count`.
    let min_bytes = count.saturating_add(count.div_ceil(GROUP));
    if r.remaining() < min_bytes {
        return Err(EbsError::corrupt_store(format!(
            "group-varint column declares {count} values but only {} bytes remain",
            r.remaining()
        )));
    }
    out.reserve(count);
    let full = count / GROUP;
    let tail = count % GROUP;
    // Decode against the whole remaining payload as one bounds-checked
    // window: as long as ≥33 bytes remain (control byte plus the largest
    // possible group), every value is an unconditional 8-byte load masked
    // to its length class — the per-value splits only reappear for the
    // last few groups before the end of the payload.
    let data = r.rest();
    let mut pos = 0usize;
    let mut groups_left = full;
    while groups_left > 0 {
        let Some(window) = data.get(pos..).filter(|w| w.len() > 4 * 8) else {
            break;
        };
        let (&ctrl, mut body) = window.split_first().unwrap_or((&0, &[]));
        if ctrl == 0 {
            // All four values are single bytes — the common case for
            // dictionary-index columns; skip the per-value class walk.
            out.extend(body.iter().take(GROUP).map(|&b| u64::from(b)));
            pos += 1 + GROUP;
        } else {
            let mut c = ctrl;
            for _ in 0..GROUP {
                let len = 1usize << (c & 3);
                c >>= 2;
                let Some(head) = body.first_chunk::<8>() else {
                    return Err(EbsError::corrupt_store(
                        "group-varint column: group window shorter than its control byte"
                            .to_string(),
                    ));
                };
                let mask = if len == 8 {
                    u64::MAX
                } else {
                    (1u64 << (8 * len)) - 1
                };
                out.push(u64::from_le_bytes(*head) & mask);
                body = body.get(len..).unwrap_or(&[]);
            }
            pos += 1 + group_data_len(ctrl);
        }
        groups_left -= 1;
    }
    r.skip(pos)?;
    for _ in 0..groups_left {
        let ctrl = r.get_u8()?;
        let window = r.get_bytes(group_data_len(ctrl))?;
        unpack_group("group-varint column", window, ctrl, GROUP, out)?;
    }
    if tail > 0 {
        let ctrl = r.get_u8()?;
        if ctrl >> (2 * tail) != 0 {
            return Err(EbsError::corrupt_store(
                "group-varint column: tail control byte sets bits for absent values".to_string(),
            ));
        }
        let mut data_len = 0usize;
        let mut c = ctrl;
        for _ in 0..tail {
            data_len += 1usize << (c & 3);
            c >>= 2;
        }
        let window = r.get_bytes(data_len)?;
        unpack_group("group-varint column", window, ctrl, tail, out)?;
    }
    Ok(())
}

/// Bytes needed to hold `x` little-endian (0 for `x == 0`).
#[inline]
fn byte_width(x: u64) -> usize {
    ((64 - x.leading_zeros()) as usize).div_ceil(8)
}

/// Per-block (min, width) header of a FOR miniblock of `block >> shift`.
/// Shifting is monotone, so the shifted block's extremes are the shifted
/// extremes — no shifted copy is needed.
#[inline]
fn block_header(block: &[u64], shift: u32) -> (u64, usize) {
    let mut min = u64::MAX;
    let mut max = 0u64;
    for &v in block {
        min = min.min(v);
        max = max.max(v);
    }
    if block.is_empty() {
        return (0, 0);
    }
    let (min, max) = (min >> shift, max >> shift);
    (min, byte_width(max - min))
}

/// Exact encoded size of `vals` under frame-of-reference packing.
pub fn for_size(vals: &[u64]) -> usize {
    vals.chunks(MINIBLOCK)
        .map(|block| for_block_len(block.len(), block_header(block, 0)))
        .sum()
}

/// Encoded bytes of a FOR miniblock of `len` values under its (min,
/// width) header.
#[inline]
fn for_block_len(len: usize, (min, width): (u64, usize)) -> usize {
    varint_len(min) + 1 + width * len
}

/// Append `vals` in frame-of-reference form (no tag byte; see
/// [`encode_column`]).
pub fn encode_for(w: &mut ByteWriter, vals: &[u64]) {
    let headers = vals.chunks(MINIBLOCK).map(|block| block_header(block, 0));
    write_for(w, vals, 0, headers);
}

/// Append `vals >> shift` in frame-of-reference form, shifting as each
/// value is packed; `headers` yields each block's (min, width) header.
fn write_for(
    w: &mut ByteWriter,
    vals: &[u64],
    shift: u32,
    headers: impl Iterator<Item = (u64, usize)>,
) {
    for (block, (min, width)) in vals.chunks(MINIBLOCK).zip(headers) {
        w.put_varint(min);
        w.put_u8(width as u8);
        let slot = w.put_slot(width * block.len());
        match width {
            0 => {}
            1 => pack_deltas::<1>(slot, block, min, shift),
            2 => pack_deltas::<2>(slot, block, min, shift),
            3 => pack_deltas::<3>(slot, block, min, shift),
            4 => pack_deltas::<4>(slot, block, min, shift),
            5 => pack_deltas::<5>(slot, block, min, shift),
            6 => pack_deltas::<6>(slot, block, min, shift),
            7 => pack_deltas::<7>(slot, block, min, shift),
            _ => pack_deltas::<8>(slot, block, min, shift),
        }
    }
}

/// Write each `(v >> shift) − min` of a block as its low `W` little-endian
/// bytes into `slot` (`W × block.len()` bytes). One const-width kernel
/// serves every width, so the odd widths get the same fixed-size stores
/// as the power-of-two ones — the mirror of [`decode_for_into`]'s arms.
#[inline]
fn pack_deltas<const W: usize>(slot: &mut [u8], block: &[u64], min: u64, shift: u32) {
    let (chunks, _) = slot.as_chunks_mut::<W>();
    for (dst, &v) in chunks.iter_mut().zip(block) {
        if let Some(low) = ((v >> shift).wrapping_sub(min))
            .to_le_bytes()
            .first_chunk::<W>()
        {
            *dst = *low;
        }
    }
}

/// Decode `count` frame-of-reference values, appending to `out`.
pub fn decode_for_into(
    r: &mut ByteReader<'_>,
    count: usize,
    out: &mut Vec<u64>,
) -> Result<(), EbsError> {
    // Each block of ≤128 values costs ≥2 header bytes, so a count beyond
    // 64x the remaining payload is corruption — checked before the reserve.
    let min_bytes = count.div_ceil(MINIBLOCK).saturating_mul(2);
    if r.remaining() < min_bytes {
        return Err(EbsError::corrupt_store(format!(
            "frame-of-reference column declares {count} values but only {} bytes remain",
            r.remaining()
        )));
    }
    out.reserve(count);
    let mut left = count;
    while left > 0 {
        let n = left.min(MINIBLOCK);
        let min = r.get_varint()?;
        let width = usize::from(r.get_u8()?);
        if width > 8 {
            return Err(EbsError::corrupt_store(format!(
                "frame-of-reference block declares width {width}, max is 8"
            )));
        }
        if width == 0 {
            for _ in 0..n {
                out.push(min);
            }
        } else {
            // One const-width arm per width: `as_chunks` + array
            // destructuring keeps the inner loops free of bounds checks
            // and per-value capacity checks (the iterators are exact-size,
            // so `extend` reserves once), and the fixed shifts let the
            // compiler unroll and vectorize. The remainders are empty —
            // the window is exactly `n * width` bytes.
            let bytes = r.get_bytes(n * width)?;
            match width {
                1 => out.extend(bytes.iter().map(|&b| min.wrapping_add(u64::from(b)))),
                2 => {
                    let (chunks, _) = bytes.as_chunks::<2>();
                    out.extend(
                        chunks
                            .iter()
                            .map(|&c| min.wrapping_add(u64::from(u16::from_le_bytes(c)))),
                    );
                }
                3 => {
                    let (chunks, _) = bytes.as_chunks::<3>();
                    out.extend(chunks.iter().map(|&[a, b, c]| {
                        min.wrapping_add(u64::from(a) | u64::from(b) << 8 | u64::from(c) << 16)
                    }));
                }
                4 => {
                    let (chunks, _) = bytes.as_chunks::<4>();
                    out.extend(
                        chunks
                            .iter()
                            .map(|&c| min.wrapping_add(u64::from(u32::from_le_bytes(c)))),
                    );
                }
                5 => {
                    let (chunks, _) = bytes.as_chunks::<5>();
                    out.extend(chunks.iter().map(|&[a, b, c, d, e]| {
                        let lo = u64::from(u32::from_le_bytes([a, b, c, d]));
                        min.wrapping_add(lo | u64::from(e) << 32)
                    }));
                }
                6 => {
                    let (chunks, _) = bytes.as_chunks::<6>();
                    out.extend(chunks.iter().map(|&[a, b, c, d, e, f]| {
                        let lo = u64::from(u32::from_le_bytes([a, b, c, d]));
                        let hi = u64::from(u16::from_le_bytes([e, f]));
                        min.wrapping_add(lo | hi << 32)
                    }));
                }
                7 => {
                    let (chunks, _) = bytes.as_chunks::<7>();
                    out.extend(chunks.iter().map(|&[a, b, c, d, e, f, g]| {
                        let lo = u64::from(u32::from_le_bytes([a, b, c, d]));
                        let hi = u64::from(u32::from_le_bytes([e, f, g, 0]));
                        min.wrapping_add(lo | hi << 32)
                    }));
                }
                _ => {
                    let (chunks, _) = bytes.as_chunks::<8>();
                    out.extend(
                        chunks
                            .iter()
                            .map(|&c| min.wrapping_add(u64::from_le_bytes(c))),
                    );
                }
            }
        }
        left -= n;
    }
    Ok(())
}

/// Whether group varint earns its slower decode for this column: the
/// frame-of-reference inner loops are fixed-width and vectorize, so FOR
/// wins unless group varint is smaller by more than one part in sixteen.
/// Like the rest of the encoding, the rule is a pure function of the
/// values, so re-encoding decoded data stays byte-identical.
#[inline]
fn pick_group_varint(gv_size: usize, for_size: usize) -> bool {
    gv_size.saturating_mul(16) < for_size.saturating_mul(15)
}

/// Trailing zero bits shared by every value in the column: the alignment
/// shift stripped before packing. An all-zero (or empty) column shifts by
/// zero so its encoding stays canonical.
#[inline]
fn column_shift(vals: &[u64]) -> u32 {
    let or_all = vals.iter().fold(0u64, |acc, &v| acc | v);
    if or_all == 0 {
        0
    } else {
        or_all.trailing_zeros()
    }
}

/// How [`encode_column`] packs a column, planned once before any byte is
/// written: the alignment shift, the codec [`pick_group_varint`] selects,
/// and the exact encoded size including the tag and shift header. Both
/// codecs are sized off the unshifted values, frame-of-reference first:
/// group varint is sized only when its floor (one data byte per value
/// plus its control bytes) could still beat it. Sizing frame-of-reference
/// finds every block's header, which the plan keeps for the writer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ColumnPlan {
    shift: u32,
    group_varint: bool,
    size: usize,
}

impl ColumnPlan {
    /// Plan `vals`, leaving each frame-of-reference block's (min, width)
    /// header in `blocks` (cleared first).
    pub(crate) fn new(vals: &[u64], blocks: &mut Vec<(u64, usize)>) -> Self {
        let shift = column_shift(vals);
        blocks.clear();
        blocks.extend(
            vals.chunks(MINIBLOCK)
                .map(|block| block_header(block, shift)),
        );
        let fo: usize = vals
            .chunks(MINIBLOCK)
            .zip(blocks.iter())
            .map(|(block, &header)| for_block_len(block.len(), header))
            .sum();
        let control = vals.len().div_ceil(GROUP);
        let gv = pick_group_varint(control + vals.len(), fo)
            .then(|| control + group_varint_data_len(vals, shift))
            .filter(|&gv| pick_group_varint(gv, fo));
        let group_varint = gv.is_some();
        let size = 2 + gv.unwrap_or(fo);
        Self {
            shift,
            group_varint,
            size,
        }
    }

    /// The exact bytes [`ColumnPlan::write`] appends.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Append `vals` as planned, `blocks` being the headers
    /// [`ColumnPlan::new`] left. Returns the bytes appended.
    pub(crate) fn write(&self, w: &mut ByteWriter, vals: &[u64], blocks: &[(u64, usize)]) -> u64 {
        let before = w.len();
        if self.group_varint {
            w.put_u8(column_tag::GROUP_VARINT);
            w.put_u8(self.shift as u8);
            write_group_varint(w, vals, self.shift);
        } else {
            w.put_u8(column_tag::FOR_BYTES);
            w.put_u8(self.shift as u8);
            write_for(w, vals, self.shift, blocks.iter().copied());
        }
        (w.len() - before) as u64
    }
}

/// Append `vals` as a tagged column: the codec tag, the alignment shift,
/// then the shifted column under the codec [`pick_group_varint`] selects
/// (frame-of-reference unless group varint is meaningfully smaller).
/// Returns the bytes appended, for the per-column accounting the
/// `--trace` stats report.
pub fn encode_column(w: &mut ByteWriter, vals: &[u64]) -> u64 {
    let mut blocks = Vec::new();
    ColumnPlan::new(vals, &mut blocks).write(w, vals, &blocks)
}

/// Exact size [`encode_column`] would produce for `vals`, without writing
/// anything. (The metric encoder, which picks between integral-column and
/// sparse/raw float packings by this cost, plans the column once through
/// `ColumnPlan` and writes it from the same plan.)
pub fn encoded_column_size(vals: &[u64]) -> usize {
    ColumnPlan::new(vals, &mut Vec::new()).size
}

/// Decode one tagged column of `count` values into `out` (cleared first).
/// Returns the bytes consumed including the tag and shift header.
///
/// The shift is validated for canonicality: when it is nonzero, the OR of
/// the packed values must be odd (a larger shift would otherwise have been
/// available to the encoder), which also rules out a nonzero shift on an
/// empty or all-zero column. Shifting back uses `wrapping_shl`, so hostile
/// wide values wrap rather than panic and are rejected by the semantic
/// validation above this layer.
pub fn decode_column_into(
    r: &mut ByteReader<'_>,
    count: usize,
    out: &mut Vec<u64>,
) -> Result<u64, EbsError> {
    let before = r.remaining();
    out.clear();
    let tag = r.get_u8()?;
    let shift = u32::from(r.get_u8()?);
    if shift >= 64 {
        return Err(EbsError::corrupt_store(format!(
            "column alignment shift {shift} is out of range"
        )));
    }
    match tag {
        column_tag::GROUP_VARINT => decode_group_varint_into(r, count, out)?,
        column_tag::FOR_BYTES => decode_for_into(r, count, out)?,
        other => {
            return Err(EbsError::corrupt_store(format!(
                "unknown column codec tag {other}"
            )))
        }
    }
    if shift > 0 {
        let mut or_all = 0u64;
        for v in out.iter_mut() {
            or_all |= *v;
            *v = v.wrapping_shl(shift);
        }
        if or_all & 1 == 0 {
            return Err(EbsError::corrupt_store(format!(
                "column alignment shift {shift} is not canonical"
            )));
        }
    }
    Ok((before - r.remaining()) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random column (SplitMix64, fixed seed).
    fn random_column(len: usize, seed: u64, mask: u64) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) & mask
            })
            .collect()
    }

    fn adversarial_columns() -> Vec<Vec<u64>> {
        vec![
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![7; 1000],
            (0..1000u64).collect(),
            (0..500u64).map(|i| i * (1 << 40)).collect(),
            (0..999u64)
                .map(|i| if i % 2 == 0 { 0 } else { u64::MAX })
                .collect(),
            random_column(4096, 1, u64::MAX),
            random_column(4097, 2, 0xFF),
            random_column(130, 3, 0xFFFF_FFFF),
            random_column(3, 4, u64::MAX),
        ]
    }

    #[test]
    fn zigzag_is_a_bijection_on_edge_values() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
        // Small magnitudes map to small codes, which is the whole point.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn group_varint_round_trips_and_sizes_exactly() {
        for vals in adversarial_columns() {
            let mut w = ByteWriter::new();
            encode_group_varint(&mut w, &vals);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), group_varint_size(&vals), "{} vals", vals.len());
            let mut r = ByteReader::new(&bytes, "test");
            let mut out = Vec::new();
            decode_group_varint_into(&mut r, vals.len(), &mut out).unwrap();
            r.expect_end().unwrap();
            assert_eq!(out, vals);
        }
    }

    #[test]
    fn for_round_trips_and_sizes_exactly() {
        for vals in adversarial_columns() {
            let mut w = ByteWriter::new();
            encode_for(&mut w, &vals);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), for_size(&vals), "{} vals", vals.len());
            let mut r = ByteReader::new(&bytes, "test");
            let mut out = Vec::new();
            decode_for_into(&mut r, vals.len(), &mut out).unwrap();
            r.expect_end().unwrap();
            assert_eq!(out, vals);
        }
    }

    #[test]
    fn tagged_columns_round_trip_and_account_their_bytes() {
        for vals in adversarial_columns() {
            let mut w = ByteWriter::new();
            let written = encode_column(&mut w, &vals);
            let bytes = w.into_bytes();
            assert_eq!(written as usize, bytes.len());
            let mut r = ByteReader::new(&bytes, "test");
            let mut out = Vec::new();
            let consumed = decode_column_into(&mut r, vals.len(), &mut out).unwrap();
            r.expect_end().unwrap();
            assert_eq!(consumed, written);
            assert_eq!(out, vals);
        }
    }

    #[test]
    fn all_equal_blocks_collapse_to_headers_only() {
        let vals = vec![123_456u64; 1000];
        // ceil(1000/128) = 8 blocks, each varint(123456)=3 bytes + width 0.
        assert_eq!(for_size(&vals), 8 * 4);
        // The tagged column also strips the shared alignment: 123456 has
        // six trailing zero bits, so each block header holds varint(1929)
        // = 2 bytes + width 0, after the 2-byte tag/shift header.
        let mut w = ByteWriter::new();
        assert_eq!(encode_column(&mut w, &vals), 2 + 8 * 3);
    }

    #[test]
    fn aligned_columns_shed_their_trailing_zero_bits() {
        // 4 KiB-aligned offsets spanning ~1 GiB: raw values need 4-byte
        // classes, shifted ones fit 2 bytes. The shift must round-trip.
        let vals: Vec<u64> = (0..1000u64).map(|i| i * 17 * 4096).collect();
        let mut w = ByteWriter::new();
        let written = encode_column(&mut w, &vals);
        assert_eq!(written as usize, encoded_column_size(&vals));
        let bytes = w.into_bytes();
        assert_eq!(bytes.get(1), Some(&12u8), "shift byte");
        assert!(
            (written as usize) < 2 + 3 * vals.len(),
            "shifted column should pack under 3 bytes/value, got {written}"
        );
        let mut r = ByteReader::new(&bytes, "aligned");
        let mut out = Vec::new();
        decode_column_into(&mut r, vals.len(), &mut out).unwrap();
        r.expect_end().unwrap();
        assert_eq!(out, vals);
    }

    #[test]
    fn non_canonical_shifts_are_rejected() {
        // Hand-build a column whose packed values are all even under a
        // nonzero shift — the encoder could never emit this (it would
        // have folded that factor of two into the shift itself).
        let mut w = ByteWriter::new();
        w.put_u8(column_tag::GROUP_VARINT);
        w.put_u8(1);
        encode_group_varint(&mut w, &[2, 4, 6]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "even-packed");
        let mut out = Vec::new();
        assert!(matches!(
            decode_column_into(&mut r, 3, &mut out),
            Err(EbsError::CorruptStore(_))
        ));
        // A nonzero shift on an empty column is equally impossible.
        let mut r = ByteReader::new(&[column_tag::FOR_BYTES, 5], "empty-shifted");
        assert!(matches!(
            decode_column_into(&mut r, 0, &mut out),
            Err(EbsError::CorruptStore(_))
        ));
        // A shift past the word size is rejected before any decode work.
        let mut r = ByteReader::new(&[column_tag::FOR_BYTES, 64, 0, 0], "wide-shift");
        assert!(matches!(
            decode_column_into(&mut r, 1, &mut out),
            Err(EbsError::CorruptStore(_))
        ));
    }

    #[test]
    fn encoder_picks_the_smaller_codec() {
        // Tight range around a huge base: FOR wins (1 byte/val vs 8).
        let narrow: Vec<u64> = (0..512u64).map(|i| (1 << 50) + (i % 100)).collect();
        let mut w = ByteWriter::new();
        encode_column(&mut w, &narrow);
        assert_eq!(w.into_bytes().first(), Some(&column_tag::FOR_BYTES));
        // One huge outlier per group ruins FOR's width; group varint wins.
        let spiky: Vec<u64> = (0..512u64)
            .map(|i| if i % 4 == 0 { u64::MAX } else { 1 })
            .collect();
        let mut w = ByteWriter::new();
        encode_column(&mut w, &spiky);
        assert_eq!(w.into_bytes().first(), Some(&column_tag::GROUP_VARINT));
    }

    #[test]
    fn truncated_columns_are_typed_errors_not_panics() {
        let vals = random_column(1000, 9, u64::MAX);
        let mut w = ByteWriter::new();
        encode_column(&mut w, &vals);
        let bytes = w.into_bytes();
        for cut in [0, 1, 2, bytes.len() / 2, bytes.len() - 1] {
            let slice = bytes.get(..cut).unwrap_or(&[]);
            let mut r = ByteReader::new(slice, "cut");
            let mut out = Vec::new();
            let err = decode_column_into(&mut r, vals.len(), &mut out).unwrap_err();
            assert!(
                matches!(err, EbsError::Truncated(_) | EbsError::CorruptStore(_)),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn hostile_headers_are_corruption_not_allocation() {
        // Unknown tag.
        let mut r = ByteReader::new(&[9, 0, 0], "tag");
        let mut out = Vec::new();
        assert!(matches!(
            decode_column_into(&mut r, 2, &mut out),
            Err(EbsError::CorruptStore(_))
        ));
        // FOR width over 8.
        let mut w = ByteWriter::new();
        w.put_varint(0);
        w.put_u8(9);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "width");
        assert!(matches!(
            decode_for_into(&mut r, 4, &mut out),
            Err(EbsError::CorruptStore(_))
        ));
        // Declared counts far past the payload fail before reserving.
        let mut r = ByteReader::new(&[0u8; 8], "count");
        assert!(matches!(
            decode_group_varint_into(&mut r, usize::MAX / 2, &mut out),
            Err(EbsError::CorruptStore(_))
        ));
        let mut r = ByteReader::new(&[0u8; 8], "count");
        assert!(matches!(
            decode_for_into(&mut r, usize::MAX / 2, &mut out),
            Err(EbsError::CorruptStore(_))
        ));
    }

    #[test]
    fn nonzero_tail_control_bits_are_rejected() {
        // 5 values: one full group + a tail of 1. Corrupt the tail control
        // byte so it claims a length class for an absent value.
        let vals = [1u64, 2, 3, 4, 5];
        let mut w = ByteWriter::new();
        encode_group_varint(&mut w, &vals);
        let mut bytes = w.into_bytes();
        let tail_ctrl_at = bytes.len() - 2; // [ctrl, value] tail layout
        if let Some(b) = bytes.get_mut(tail_ctrl_at) {
            *b |= 0b1100;
        }
        let mut r = ByteReader::new(&bytes, "tail");
        let mut out = Vec::new();
        let err = decode_group_varint_into(&mut r, vals.len(), &mut out).unwrap_err();
        assert!(
            matches!(err, EbsError::CorruptStore(_) | EbsError::Truncated(_)),
            "{err}"
        );
    }

    /// The frame-of-reference writer before the const-width kernel: the
    /// power-of-two widths as whole integers, the odd ones a byte at a
    /// time. Kept as the byte-identity oracle for [`encode_for`].
    fn per_byte_for(vals: &[u64]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for block in vals.chunks(MINIBLOCK) {
            let (min, width) = block_header(block, 0);
            w.put_varint(min);
            w.put_u8(width as u8);
            match width {
                0 => {}
                1 => block.iter().for_each(|&v| w.put_u8((v - min) as u8)),
                2 => block
                    .iter()
                    .for_each(|&v| w.put_bytes(&((v - min) as u16).to_le_bytes())),
                4 => block
                    .iter()
                    .for_each(|&v| w.put_bytes(&((v - min) as u32).to_le_bytes())),
                _ => {
                    for &v in block {
                        for &b in (v - min).to_le_bytes().iter().take(width) {
                            w.put_u8(b);
                        }
                    }
                }
            }
        }
        w.into_bytes()
    }

    #[test]
    fn for_every_width_round_trips_and_matches_the_per_byte_writer() {
        for width in 0..=8usize {
            // Every miniblock (two full, one partial) spans exactly
            // `width` bytes: it holds its min and its min + spread.
            let spread = match width {
                0 => 0,
                8 => u64::MAX,
                w => (1u64 << (8 * w)) - 1,
            };
            let min = if width == 8 { 0 } else { 1_000_003 };
            let noise = random_column(300, width as u64, u64::MAX);
            let vals: Vec<u64> = noise
                .iter()
                .enumerate()
                .map(|(i, &r)| match i % MINIBLOCK {
                    0 => min,
                    1 => min + spread,
                    _ => min + r % spread.saturating_add(1).max(1),
                })
                .collect();
            let mut w = ByteWriter::new();
            encode_for(&mut w, &vals);
            let bytes = w.into_bytes();
            assert_eq!(bytes, per_byte_for(&vals), "width {width}");
            assert_eq!(bytes.len(), for_size(&vals), "width {width}");
            let mut r = ByteReader::new(&bytes, "width");
            r.get_varint().unwrap();
            assert_eq!(usize::from(r.get_u8().unwrap()), width);
            let mut r = ByteReader::new(&bytes, "width");
            let mut out = Vec::new();
            decode_for_into(&mut r, vals.len(), &mut out).unwrap();
            r.expect_end().unwrap();
            assert_eq!(out, vals, "width {width}");
        }
    }
}
