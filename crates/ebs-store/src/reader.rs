//! Chunk-level store reader: validates the header and walks the sealed
//! chunk sequence one frame at a time.
//!
//! Every reader of a container follows one protocol: ask for the next
//! frame ([`ChunkReader::next_frame`]), then read its payload whole
//! ([`ChunkReader::read_payload_into`]), decode it as a metric series set
//! ([`ChunkReader::read_series_set`]), or skip it by asking for the next
//! frame. A skipped payload is still read and sealed, in 4 KiB pieces, so
//! a reader that decodes only some chunk kinds holds none of the others.
//! Metric chunks, most of a store's bytes, decode series by series
//! through a fixed window, so a loader never holds a whole metric payload
//! beside the series it decodes to.
//!
//! [`ChunkReader::new`] is the one place that reads the header version;
//! everything past the header decodes format v2 only.

use std::io::Read;

use ebs_core::error::EbsError;
use ebs_core::metric::Series;
use ebs_core::time::TickSpec;

use crate::bytes::ByteReader;
use crate::columns::{decode_series_header, SeriesDecoder, SERIES_CHUNK};
use crate::format::{kind, FRAME_LEN, MAGIC, MAX_CHUNK_LEN, VERSION};
use crate::seal::Sealer;

/// Totals pinned by the END chunk, used to detect truncation at a chunk
/// boundary (a cut file would otherwise parse cleanly).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EndSummary {
    /// Number of chunks that preceded the END chunk.
    pub chunks: u64,
    /// Total events across all EVENTS chunks.
    pub events: u64,
}

/// A chunk's frame, as [`ChunkReader::next_frame`] returns it: the kind
/// tag (see [`crate::format::kind`]) and the payload length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkFrame {
    /// Chunk kind tag.
    pub kind: u8,
    /// Payload bytes that follow the frame.
    pub len: u32,
}

/// The chunk whose payload is being read: its frame, the bytes not read
/// yet, and the seal of the bytes read so far.
#[derive(Clone, Debug)]
struct Pending {
    frame: ChunkFrame,
    want_seal: u32,
    left: u32,
    sealer: Sealer,
}

/// Bytes of a metric payload [`ChunkReader::read_series_set`] decodes
/// through at once. The window grows only to hold a single series that
/// does not fit: a series takes at most about 35 bytes per sample, so
/// one on a full-scale grid (4,320 ticks) fits with room to spare.
pub const SERIES_WINDOW: usize = 256 << 10;

/// Streaming reader over the chunk sequence of an ebs-store container.
///
/// A chunk is read as its frame ([`ChunkReader::next_frame`]) and then its
/// payload: whole ([`ChunkReader::read_payload_into`]), decoded through a
/// window ([`ChunkReader::read_series_set`]), or skipped by the next
/// `next_frame`. The seal is computed as the pieces arrive and settled
/// with the payload's last byte: the read that delivers it is the one
/// that returns [`EbsError::ChecksumMismatch`].
#[derive(Debug)]
pub struct ChunkReader<R: Read> {
    input: R,
    chunks_read: u64,
    bytes_read: u64,
    end: Option<EndSummary>,
    done: bool,
    pending: Option<Pending>,
}

impl<R: Read> ChunkReader<R> {
    /// Open a store: reads and validates the magic and version header.
    ///
    /// A bad magic or a version-0 header is [`EbsError::CorruptStore`].
    /// Any other version but [`VERSION`] — the retired v1 or a newer
    /// format — is [`EbsError::VersionSkew`].
    pub fn new(mut input: R) -> Result<Self, EbsError> {
        let mut magic = [0u8; 8];
        read_exact(&mut input, &mut magic, "file header magic")?;
        if magic != MAGIC {
            return Err(EbsError::corrupt_store(format!(
                "bad magic {magic:02x?}: not an ebs-store file"
            )));
        }
        let mut ver = [0u8; 4];
        read_exact(&mut input, &mut ver, "file header version")?;
        let version = u32::from_le_bytes(ver);
        if version == 0 {
            return Err(EbsError::corrupt_store(
                "store claims format v0".to_string(),
            ));
        }
        if version != VERSION {
            return Err(EbsError::version_skew(format!(
                "store is format v{version} but this reader reads only v{VERSION}"
            )));
        }
        Ok(Self {
            input,
            chunks_read: 0,
            bytes_read: (MAGIC.len() + 4) as u64,
            end: None,
            done: false,
            pending: None,
        })
    }

    /// The END summary, available once the END chunk has been consumed.
    pub fn end_summary(&self) -> Option<EndSummary> {
        self.end
    }

    /// The `store.chunks_read` and `store.bytes_read` totals so far.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.chunks_read, self.bytes_read)
    }

    /// Read the next chunk's frame, or `Ok(None)` after the END chunk,
    /// whose payload this reads and checks itself. What is left of the
    /// previous chunk's payload is read and sealed first, so a caller
    /// skips a chunk by asking for the next frame.
    pub fn next_frame(&mut self) -> Result<Option<ChunkFrame>, EbsError> {
        let mut skip = [0u8; 4096];
        while self.pending.is_some() {
            self.read_payload(&mut skip)?;
        }
        if self.done {
            return Ok(None);
        }
        let mut frame = [0u8; 9];
        read_exact(&mut self.input, &mut frame, "chunk frame")?;
        let mut fr = ByteReader::new(&frame, "chunk frame");
        let chunk_kind = fr.get_u8()?;
        let len = fr.get_u32()?;
        let want_seal = fr.get_u32()?;
        if len > MAX_CHUNK_LEN {
            return Err(EbsError::corrupt_store(format!(
                "chunk {} declares a {len}-byte payload, over the {MAX_CHUNK_LEN}-byte limit",
                self.chunks_read
            )));
        }
        let frame = ChunkFrame {
            kind: chunk_kind,
            len,
        };
        self.pending = Some(Pending {
            frame,
            want_seal,
            left: len,
            sealer: Sealer::new(),
        });
        if chunk_kind != kind::END {
            return Ok(Some(frame));
        }
        let mut payload = Vec::new();
        self.read_payload_into(&mut payload)?;
        let mut r = ByteReader::new(&payload, "end chunk");
        let chunks = r.get_varint()?;
        let events = r.get_varint()?;
        r.expect_end()?;
        if chunks != self.chunks_read {
            return Err(EbsError::truncated(format!(
                "end chunk pins {chunks} chunks but only {} were present",
                self.chunks_read
            )));
        }
        self.end = Some(EndSummary { chunks, events });
        self.done = true;
        ebs_obs::counter_add("store.chunks_read", self.chunks_read);
        ebs_obs::counter_add("store.bytes_read", self.bytes_read);
        Ok(None)
    }

    /// Read the rest of the current chunk's payload into `payload`
    /// (cleared first), settle its seal, and return it. Reserves exactly
    /// the payload's length, at most 1 MiB up front, so a forged length
    /// cannot reserve [`MAX_CHUNK_LEN`] before the bytes arrive.
    pub fn read_payload_into<'p>(
        &mut self,
        payload: &'p mut Vec<u8>,
    ) -> Result<&'p [u8], EbsError> {
        payload.clear();
        let Some(pending) = &self.pending else {
            return Ok(payload);
        };
        let left = pending.left;
        // Read via `take` so a short file yields Truncated instead of an
        // over-allocated buffer half-filled with zeros.
        payload.reserve_exact(left.min(1 << 20) as usize);
        (&mut self.input)
            .take(u64::from(left))
            .read_to_end(payload)
            .map_err(EbsError::from)?;
        self.consume(payload, left as usize)?;
        Ok(payload)
    }

    /// Read the next bytes of the current chunk's payload into `buf`:
    /// as many as fit, or all that are left. Returns how many were read;
    /// the read that takes the payload's last byte settles its seal.
    fn read_payload(&mut self, buf: &mut [u8]) -> Result<usize, EbsError> {
        let Some(pending) = &self.pending else {
            return Ok(0);
        };
        let want = buf.len().min(pending.left as usize);
        let mut got = 0;
        while got < want {
            let Some(rest) = buf.get_mut(got..want) else {
                break;
            };
            match self.input.read(rest) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(EbsError::from(e)),
            }
        }
        self.consume(buf.get(..got).unwrap_or_default(), want)?;
        Ok(got)
    }

    /// Seal `bytes`, just read from the current payload where `asked`
    /// were asked for. Fewer than asked is [`EbsError::Truncated`]; once
    /// the last byte is in, a seal mismatch is
    /// [`EbsError::ChecksumMismatch`].
    fn consume(&mut self, bytes: &[u8], asked: usize) -> Result<(), EbsError> {
        let Some(pending) = &mut self.pending else {
            return Ok(());
        };
        pending.sealer.update(bytes);
        // `asked` never exceeds what is left, so neither can `bytes`.
        pending.left = pending.left.saturating_sub(bytes.len() as u32);
        if bytes.len() < asked {
            return Err(EbsError::truncated(format!(
                "chunk {}: payload cut short at {} of {} bytes",
                self.chunks_read,
                pending.frame.len - pending.left,
                pending.frame.len
            )));
        }
        if pending.left > 0 {
            return Ok(());
        }
        let have_seal = pending.sealer.seal32();
        let (frame, want_seal) = (pending.frame, pending.want_seal);
        self.pending = None;
        if have_seal != want_seal {
            ebs_obs::counter_add("store.checksum_failures", 1);
            return Err(EbsError::checksum_mismatch(format!(
                "chunk {} (kind {}): seal {have_seal:08x} != stored {want_seal:08x}",
                self.chunks_read, frame.kind
            )));
        }
        self.bytes_read += (FRAME_LEN + frame.len as usize) as u64;
        if frame.kind != kind::END {
            self.chunks_read += 1;
        }
        Ok(())
    }

    /// Decode the payload of the metric chunk whose frame
    /// [`ChunkReader::next_frame`] just returned, through a window of
    /// [`SERIES_WINDOW`] bytes: what the whole-payload decoder (the test
    /// oracle `columns::decode_series_set`) returns, errors and their
    /// messages included, without holding the payload.
    ///
    /// The seal is settled before any result or error is returned: a
    /// payload that does not match its seal is
    /// [`EbsError::ChecksumMismatch`], whatever its bytes decode to.
    pub fn read_series_set(&mut self, domain: &str) -> Result<(TickSpec, Vec<Series>), EbsError> {
        self.read_series_set_through(domain, SERIES_WINDOW)
    }

    /// [`ChunkReader::read_series_set`] through a window of `window` bytes.
    pub(crate) fn read_series_set_through(
        &mut self,
        domain: &str,
        window: usize,
    ) -> Result<(TickSpec, Vec<Series>), EbsError> {
        let len = self.pending.as_ref().map_or(0, |p| p.frame.len as usize);
        let mut win = Window {
            buf: vec![0; window.min(len)],
            start: 0,
            filled: 0,
            base: 0,
            len,
        };
        win.filled = self.read_payload(&mut win.buf)?;
        let (spec, entities) = win.next_decoded(self, |r| decode_series_header(r, domain))?;
        let mut out = Vec::with_capacity(entities);
        let mut decoder = SeriesDecoder::new(spec);
        for entity in 0..entities {
            out.push(win.next_decoded(self, |r| decoder.decode(r, entity, domain))?);
        }
        win.next_decoded(self, |r| r.expect_end())?;
        Ok((spec, out))
    }
}

/// The part of a chunk payload a windowed decode holds: `buf[..filled]`
/// is the payload from offset `base`, and the decode has consumed it up
/// to `buf[start]`.
struct Window {
    buf: Vec<u8>,
    start: usize,
    filled: usize,
    base: usize,
    /// Payload length.
    len: usize,
}

impl Window {
    /// Run `decode` on the unconsumed bytes and consume what it read.
    ///
    /// A decode that fails before the window holds the payload's last
    /// byte may have met the window's edge, so it runs again from the
    /// same start after a refill: the unconsumed bytes move to the front
    /// and the rest fills from `reader`, and a window holding nothing but
    /// unconsumed bytes grows first. Its error is final only once the
    /// window reaches the payload's end, where the reader has settled the
    /// seal and the decode sees what it would see in the whole payload.
    fn next_decoded<R: Read, T>(
        &mut self,
        reader: &mut ChunkReader<R>,
        mut decode: impl FnMut(&mut ByteReader<'_>) -> Result<T, EbsError>,
    ) -> Result<T, EbsError> {
        loop {
            let held = self.buf.get(self.start..self.filled).unwrap_or_default();
            let mut r = ByteReader::window(held, SERIES_CHUNK, self.base + self.start, self.len);
            let err = match decode(&mut r) {
                Ok(value) => {
                    self.start += r.consumed();
                    return Ok(value);
                }
                Err(e) => e,
            };
            if self.base + self.filled >= self.len {
                return Err(err);
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.filled, 0);
                self.base += self.start;
                self.filled -= self.start;
                self.start = 0;
            } else {
                let grown = (2 * self.buf.len()).max(1).min(self.len - self.base);
                self.buf.resize(grown, 0);
            }
            let free = self.buf.get_mut(self.filled..).unwrap_or_default();
            self.filled += reader.read_payload(free)?;
        }
    }
}

/// `read_exact` with EOF mapped to a labelled [`EbsError::Truncated`].
fn read_exact<R: Read>(input: &mut R, buf: &mut [u8], what: &str) -> Result<(), EbsError> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            EbsError::truncated(format!("{what}: file ends mid-field"))
        } else {
            EbsError::from(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seal::seal32;
    use crate::writer::StoreWriter;
    use ebs_core::ids::{QpId, VdId};
    use ebs_core::io::{IoEvent, Op};

    fn sample_events(n: u64) -> Vec<IoEvent> {
        (0..n)
            .map(|i| IoEvent {
                t_us: i * 10,
                vd: VdId((i % 3) as u32),
                qp: QpId((i % 5) as u32),
                op: if i % 2 == 0 { Op::Read } else { Op::Write },
                size: 4096 + (i as u32 % 7) * 512,
                offset: i * 8192,
            })
            .collect()
    }

    /// Every `(kind, payload)` chunk up to END, each payload read whole.
    fn read_all<R: Read>(r: &mut ChunkReader<R>) -> Result<Vec<(u8, Vec<u8>)>, EbsError> {
        let mut out = Vec::new();
        let mut payload = Vec::new();
        while let Some(frame) = r.next_frame()? {
            out.push((frame.kind, r.read_payload_into(&mut payload)?.to_vec()));
        }
        Ok(out)
    }

    fn store_with(events: &[IoEvent], per_chunk: usize) -> Vec<u8> {
        let mut w = StoreWriter::new(Vec::new()).unwrap();
        w.write_chunk(kind::CONFIG, b"unused-config").unwrap();
        w.write_events_chunked(events, per_chunk).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn round_trips_chunks_and_end_summary() {
        let events = sample_events(100);
        let bytes = store_with(&events, 32);
        let mut r = ChunkReader::new(bytes.as_slice()).unwrap();
        let chunks = read_all(&mut r).unwrap();
        assert_eq!(chunks.len(), 1 + 4); // config + ceil(100/32) event chunks
        assert_eq!(chunks[0], (kind::CONFIG, b"unused-config".to_vec()));
        assert_eq!(
            r.end_summary(),
            Some(EndSummary {
                chunks: 5,
                events: 100
            })
        );
    }

    #[test]
    fn bad_magic_is_corrupt_store() {
        let mut bytes = store_with(&sample_events(4), 8);
        bytes[0] = b'X';
        assert!(matches!(
            ChunkReader::new(bytes.as_slice()),
            Err(EbsError::CorruptStore(_))
        ));
    }

    #[test]
    fn future_version_is_version_skew() {
        // The retired v1 and any newer version are skew; v0 was never a
        // format, so it is corruption.
        let mut bytes = store_with(&sample_events(4), 8);
        for version in [1, VERSION + 1, VERSION + 7, u32::MAX, 0] {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            match ChunkReader::new(bytes.as_slice()) {
                Err(EbsError::VersionSkew(msg)) if version != 0 => {
                    assert!(msg.contains(&format!("reads only v{VERSION}")), "{msg}");
                }
                Err(EbsError::CorruptStore(_)) if version == 0 => {}
                other => panic!("header v{version}: {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_payload_byte_is_checksum_mismatch() {
        // Flip one byte inside the first event payload (past header+frame).
        let mut broken = store_with(&sample_events(50), 16);
        let at = crate::format::HEADER_LEN + crate::format::FRAME_LEN + 2;
        broken[at] ^= 0x40;
        let mut r = ChunkReader::new(broken.as_slice()).unwrap();
        let err = read_all(&mut r).unwrap_err();
        assert!(matches!(err, EbsError::ChecksumMismatch(_)), "{err}");
    }

    #[test]
    fn truncation_mid_chunk_is_truncated() {
        let bytes = store_with(&sample_events(50), 16);
        let cut = &bytes[..bytes.len() - 7];
        let mut r = ChunkReader::new(cut).unwrap();
        let err = read_all(&mut r).unwrap_err();
        assert!(matches!(err, EbsError::Truncated(_)), "{err}");
    }

    #[test]
    fn missing_end_chunk_is_truncated() {
        // A file that was never finish()ed: header + one event chunk, no END.
        let events = sample_events(20);
        let payload = crate::columns::encode_events(&events).unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(kind::EVENTS);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&seal32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let mut r = ChunkReader::new(bytes.as_slice()).unwrap();
        r.next_frame().unwrap().unwrap();
        let err = r.next_frame().unwrap_err();
        assert!(matches!(err, EbsError::Truncated(_)), "{err}");
    }
}
