//! Payload-level primitives: LEB128 varints, fixed-width little-endian
//! scalars, and bit-exact `f64` transport, over plain byte buffers.
//!
//! Every multi-byte integer that can be small in practice (timestamps
//! deltas, ids, sizes, counts) travels as an unsigned LEB128 varint; floats
//! travel as their raw IEEE-754 bits so a save→load→save cycle is
//! byte-identical even for payloads like `-0.0` or values that do not
//! round-trip through decimal text. The reader is bounds-checked
//! everywhere and returns typed [`EbsError`]s — hostile input can make it
//! fail, never panic.

use ebs_core::error::EbsError;

/// Append-only payload encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh empty buffer with room for `cap` bytes, for encoders that can
    /// bound their payload up front and so grow it at most once.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append an unsigned LEB128 varint (1–10 bytes).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Append an `f64` as its raw IEEE-754 bits (8 bytes, little-endian).
    pub fn put_f64_bits(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append `len` zero bytes and return them for the caller to fill —
    /// the batch kernels size a whole window once, then write fixed-width
    /// values into it with no per-value capacity check.
    pub fn put_slot(&mut self, len: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + len, 0);
        self.buf.get_mut(start..).unwrap_or_default()
    }
}

/// Bounds-checked payload decoder over a borrowed byte slice.
///
/// The slice may be a window of a longer payload (`ByteReader::window`):
/// reads stop at the window's end, while offsets in error messages and
/// [`ByteReader::remaining`] count from the payload's start and to its
/// end, so a decode that fails once the window reaches the payload's end
/// reports what a decode of the whole payload would.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Payload offset of `buf[0]`.
    base: usize,
    /// Payload length.
    len: usize,
    /// Context string used in error messages ("events chunk 3" …).
    what: &'a str,
}

impl<'a> ByteReader<'a> {
    /// Decode `buf`, labelling errors with `what`.
    pub fn new(buf: &'a [u8], what: &'a str) -> Self {
        Self::window(buf, what, 0, buf.len())
    }

    /// Decode `buf`, the bytes at offset `base` of a payload of `len`
    /// bytes, labelling errors with `what`.
    pub(crate) fn window(buf: &'a [u8], what: &'a str, base: usize, len: usize) -> Self {
        Self {
            buf,
            pos: 0,
            base,
            len,
            what,
        }
    }

    /// Bytes left to read in the payload.
    pub fn remaining(&self) -> usize {
        self.len.saturating_sub(self.base + self.pos)
    }

    /// Bytes read from the window so far.
    pub(crate) fn consumed(&self) -> usize {
        self.pos
    }

    /// Error for a read past the end of the payload.
    fn short(&self, need: usize) -> EbsError {
        EbsError::truncated(format!(
            "{}: need {need} more bytes at offset {}, payload has {}",
            self.what,
            self.base + self.pos,
            self.len
        ))
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, EbsError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.short(1))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read the next `N` bytes into a fixed array (the panic-free spelling
    /// of `slice.try_into()` — offset arithmetic is checked too).
    fn get_array<const N: usize>(&mut self) -> Result<[u8; N], EbsError> {
        let end = self.pos.checked_add(N).ok_or_else(|| self.short(N))?;
        let bytes = self.buf.get(self.pos..end).ok_or_else(|| self.short(N))?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        self.pos = end;
        Ok(out)
    }

    /// Read a fixed-width little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, EbsError> {
        Ok(u32::from_le_bytes(self.get_array::<4>()?))
    }

    /// Read an unsigned LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64, EbsError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(EbsError::corrupt_store(format!(
                    "{}: varint overflows u64 at offset {}",
                    self.what,
                    self.base + self.pos
                )));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(EbsError::corrupt_store(format!(
                    "{}: varint longer than 10 bytes at offset {}",
                    self.what,
                    self.base + self.pos
                )));
            }
        }
    }

    /// Read a varint expected to fit in `u32` (ids, counts, sizes).
    pub fn get_varint_u32(&mut self) -> Result<u32, EbsError> {
        let v = self.get_varint()?;
        u32::try_from(v).map_err(|_| {
            EbsError::corrupt_store(format!("{}: value {v} does not fit in u32", self.what))
        })
    }

    /// Borrow everything left to read without consuming it. Batch decoders
    /// use this to run masked wide loads against one bounds-checked window,
    /// then account for what they consumed with [`ByteReader::skip`].
    pub fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or(&[])
    }

    /// Consume `len` bytes previously inspected through [`ByteReader::rest`].
    pub fn skip(&mut self, len: usize) -> Result<(), EbsError> {
        let end = self.pos.checked_add(len).ok_or_else(|| self.short(len))?;
        if end > self.buf.len() {
            return Err(self.short(len));
        }
        self.pos = end;
        Ok(())
    }

    /// Borrow the next `len` raw bytes without copying.
    pub fn get_bytes(&mut self, len: usize) -> Result<&'a [u8], EbsError> {
        let end = self.pos.checked_add(len).ok_or_else(|| self.short(len))?;
        let bytes = self.buf.get(self.pos..end).ok_or_else(|| self.short(len))?;
        self.pos = end;
        Ok(bytes)
    }

    /// Read a bit-exact `f64`.
    pub fn get_f64_bits(&mut self) -> Result<f64, EbsError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.get_array::<8>()?)))
    }

    /// Assert the payload is fully consumed (trailing garbage is corruption,
    /// not padding).
    pub fn expect_end(&self) -> Result<(), EbsError> {
        if self.remaining() != 0 {
            return Err(EbsError::corrupt_store(format!(
                "{}: {} trailing bytes after the last field",
                self.what,
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Validate a declared element count against the bytes actually
    /// available, given a minimum encoded size per element. This caps
    /// allocations on hostile input: a forged "4 billion events" header in
    /// a 100-byte chunk fails here instead of in `Vec::with_capacity`.
    pub fn check_count(&self, count: u64, min_bytes_each: usize) -> Result<usize, EbsError> {
        let count = usize::try_from(count).map_err(|_| {
            EbsError::corrupt_store(format!("{}: count {count} overflows", self.what))
        })?;
        if count.saturating_mul(min_bytes_each) > self.remaining() {
            return Err(EbsError::corrupt_store(format!(
                "{}: declared {count} elements but only {} payload bytes remain",
                self.what,
                self.remaining()
            )));
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_across_widths() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        for &v in &values {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn floats_are_bit_exact() {
        let values = [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1e300, f64::INFINITY];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_f64_bits(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        for &v in &values {
            assert_eq!(r.get_f64_bits().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_reads_return_typed_errors() {
        let bytes = 7u32.to_le_bytes();
        let mut r = ByteReader::new(&bytes[..2], "short");
        assert!(matches!(r.get_u32(), Err(EbsError::Truncated(_))));
        let mut r = ByteReader::new(&[], "empty");
        assert!(matches!(r.get_u8(), Err(EbsError::Truncated(_))));
    }

    #[test]
    fn overlong_varint_is_corruption_not_panic() {
        // 11 continuation bytes can never be a valid u64 varint.
        let bytes = [0x80u8; 11];
        let mut r = ByteReader::new(&bytes, "overlong");
        assert!(matches!(r.get_varint(), Err(EbsError::CorruptStore(_))));
        // 10 bytes whose top nibble overflows bit 64.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        let mut r = ByteReader::new(&bytes, "overflow");
        assert!(matches!(r.get_varint(), Err(EbsError::CorruptStore(_))));
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        let bytes = [0u8; 16];
        let r = ByteReader::new(&bytes, "hostile");
        assert!(r.check_count(16, 1).is_ok());
        assert!(matches!(
            r.check_count(u64::MAX, 1),
            Err(EbsError::CorruptStore(_))
        ));
        assert!(matches!(
            r.check_count(17, 1),
            Err(EbsError::CorruptStore(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_flagged() {
        let bytes = [1u8, 2];
        let mut r = ByteReader::new(&bytes, "tail");
        r.get_u8().unwrap();
        assert!(matches!(r.expect_end(), Err(EbsError::CorruptStore(_))));
    }
}
