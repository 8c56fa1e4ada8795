//! Chunk-level store reader: validates the header, walks the sealed chunk
//! sequence, and exposes a streaming event iterator that decodes one chunk
//! at a time — aggregations over a large trace never hold more than one
//! chunk's events live.
//!
//! [`ChunkReader::new`] is the one place that reads the header version;
//! everything past the header decodes format v2 only.

use std::io::Read;

use ebs_core::error::EbsError;
use ebs_core::io::IoEvent;

use crate::bytes::ByteReader;
use crate::columns::{decode_events_v2_into, events_from_columns, EventColumnBytes, EventScratch};
use crate::format::{kind, MAGIC, MAX_CHUNK_LEN, VERSION};
use crate::seal::seal32;

/// Totals pinned by the END chunk, used to detect truncation at a chunk
/// boundary (a cut file would otherwise parse cleanly).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EndSummary {
    /// Number of chunks that preceded the END chunk.
    pub chunks: u64,
    /// Total events across all EVENTS chunks.
    pub events: u64,
}

/// Streaming reader over the chunk sequence of an ebs-store container.
#[derive(Debug)]
pub struct ChunkReader<R: Read> {
    input: R,
    chunks_read: u64,
    bytes_read: u64,
    end: Option<EndSummary>,
    done: bool,
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
        })
    }

    /// The END summary, available once the END chunk has been consumed.
    pub fn end_summary(&self) -> Option<EndSummary> {
        self.end
    }

    /// Read the next chunk's checksum-verified payload into `payload` and
    /// return its kind tag (see [`crate::format::kind`]), or `Ok(None)`
    /// after the END chunk. Streaming passes reuse one buffer across every
    /// chunk, so steady-state reads allocate nothing.
    ///
    /// EOF anywhere before the END chunk is [`EbsError::Truncated`]; a
    /// payload that does not match its frame seal is
    /// [`EbsError::ChecksumMismatch`].
    pub fn next_chunk_into(&mut self, payload: &mut Vec<u8>) -> Result<Option<u8>, EbsError> {
        payload.clear();
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
        // Read via `take` so a short file yields Truncated instead of an
        // over-allocated buffer half-filled with zeros. Pre-size up to 1 MiB
        // so honest chunks avoid regrow copies without letting a forged
        // length reserve MAX_CHUNK_LEN up front.
        payload.reserve(len.min(1 << 20) as usize);
        let got = (&mut self.input)
            .take(u64::from(len))
            .read_to_end(payload)
            .map_err(EbsError::from)?;
        if got != len as usize {
            return Err(EbsError::truncated(format!(
                "chunk {}: payload cut short at {got} of {len} bytes",
                self.chunks_read
            )));
        }
        let have_seal = seal32(payload);
        if have_seal != want_seal {
            ebs_obs::counter_add("store.checksum_failures", 1);
            return Err(EbsError::checksum_mismatch(format!(
                "chunk {} (kind {chunk_kind}): seal {have_seal:08x} != stored {want_seal:08x}",
                self.chunks_read
            )));
        }
        self.bytes_read += (frame.len() + payload.len()) as u64;
        if chunk_kind == kind::END {
            let mut r = ByteReader::new(payload, "end chunk");
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
            return Ok(None);
        }
        self.chunks_read += 1;
        Ok(Some(chunk_kind))
    }

    /// Turn this reader into a streaming iterator over decoded event
    /// batches, skipping non-event chunks. Each `next()` call decodes one
    /// chunk's events; the full trace is never materialized at once.
    pub fn into_event_chunks(self) -> EventChunks<R> {
        EventChunks {
            reader: self,
            payload: Vec::new(),
            scratch: EventScratch::new(),
            column_bytes: EventColumnBytes::default(),
            events_seen: 0,
            failed: false,
        }
    }
}

/// Streaming iterator over the EVENTS chunks of a store.
///
/// Yields `Result<Vec<IoEvent>, EbsError>` batches, decoding each chunk
/// through the batched column kernels (one payload buffer and one column
/// scratch are reused across every chunk). After the END chunk it
/// cross-checks the pinned event total; a mismatch surfaces as a final
/// `Err`. After the first error the iterator fuses to `None`.
#[derive(Debug)]
pub struct EventChunks<R: Read> {
    reader: ChunkReader<R>,
    payload: Vec<u8>,
    scratch: EventScratch,
    column_bytes: EventColumnBytes,
    events_seen: u64,
    failed: bool,
}

impl<R: Read> EventChunks<R> {
    /// Events decoded so far across all yielded batches.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The END summary, once the stream has completed cleanly.
    pub fn end_summary(&self) -> Option<EndSummary> {
        self.reader.end_summary()
    }

    /// Per-column byte accounting of the EVENTS chunks decoded so far.
    pub fn column_bytes(&self) -> EventColumnBytes {
        self.column_bytes
    }

    fn decode_payload(&mut self) -> Result<Vec<IoEvent>, EbsError> {
        let acct = decode_events_v2_into(&self.payload, &mut self.scratch)?;
        let mut events = Vec::new();
        events_from_columns(&self.scratch.columns(), &mut events)?;
        self.column_bytes.merge(&acct);
        Ok(events)
    }
}

impl<R: Read> Iterator for EventChunks<R> {
    type Item = Result<Vec<IoEvent>, EbsError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            let mut payload = std::mem::take(&mut self.payload);
            let next = self.reader.next_chunk_into(&mut payload);
            self.payload = payload;
            match next {
                Ok(Some(chunk_kind)) => {
                    if chunk_kind != kind::EVENTS {
                        continue;
                    }
                    match self.decode_payload() {
                        Ok(events) => {
                            self.events_seen += events.len() as u64;
                            ebs_obs::counter_add("store.events_streamed", events.len() as u64);
                            ebs_obs::counter_add("store.bytes_streamed", self.payload.len() as u64);
                            return Some(Ok(events));
                        }
                        Err(e) => {
                            self.failed = true;
                            return Some(Err(e));
                        }
                    }
                }
                Ok(None) => {
                    let end = self.reader.end_summary().unwrap_or_default();
                    if end.events != self.events_seen {
                        self.failed = true;
                        return Some(Err(EbsError::truncated(format!(
                            "end chunk pins {} events but the stream held {}",
                            end.events, self.events_seen
                        ))));
                    }
                    return None;
                }
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
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
    use crate::writer::StoreWriter;
    use ebs_core::ids::{QpId, VdId};
    use ebs_core::io::Op;

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

    /// Every `(kind, payload)` chunk up to END, through `next_chunk_into`.
    fn read_all<R: Read>(r: &mut ChunkReader<R>) -> Result<Vec<(u8, Vec<u8>)>, EbsError> {
        let mut out = Vec::new();
        let mut payload = Vec::new();
        while let Some(chunk_kind) = r.next_chunk_into(&mut payload)? {
            out.push((chunk_kind, payload.clone()));
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
        assert_eq!(
            r.end_summary(),
            Some(EndSummary {
                chunks: 5,
                events: 100
            })
        );
    }

    #[test]
    fn streaming_iterator_reassembles_the_trace() {
        let events = sample_events(100);
        let bytes = store_with(&events, 32);
        let reader = ChunkReader::new(bytes.as_slice()).unwrap();
        let mut streamed = Vec::new();
        for batch in reader.into_event_chunks() {
            streamed.extend(batch.unwrap());
        }
        assert_eq!(streamed, events);
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
        let mut payload = Vec::new();
        r.next_chunk_into(&mut payload).unwrap().unwrap();
        let err = r.next_chunk_into(&mut payload).unwrap_err();
        assert!(matches!(err, EbsError::Truncated(_)), "{err}");
    }

    #[test]
    fn streaming_detects_events_dropped_at_chunk_boundary() {
        // Build a store whose END chunk pins more events than present by
        // splicing out one event chunk and patching the chunk count.
        let events = sample_events(64);
        let bytes = store_with(&events, 16);
        let mut r = ChunkReader::new(bytes.as_slice()).unwrap();
        let chunks = read_all(&mut r).unwrap();
        let end = r.end_summary().unwrap();
        // Re-emit without the last event chunk but with the original totals.
        let mut forged = Vec::new();
        forged.extend_from_slice(&MAGIC);
        forged.extend_from_slice(&VERSION.to_le_bytes());
        for (chunk_kind, payload) in &chunks[..chunks.len() - 1] {
            forged.push(*chunk_kind);
            forged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            forged.extend_from_slice(&seal32(payload).to_le_bytes());
            forged.extend_from_slice(payload);
        }
        let mut endw = crate::bytes::ByteWriter::new();
        endw.put_varint(end.chunks - 1); // chunk count matches, event total lies
        endw.put_varint(end.events);
        let end_payload = endw.into_bytes();
        forged.push(kind::END);
        forged.extend_from_slice(&(end_payload.len() as u32).to_le_bytes());
        forged.extend_from_slice(&seal32(&end_payload).to_le_bytes());
        forged.extend_from_slice(&end_payload);
        let stream = ChunkReader::new(forged.as_slice())
            .unwrap()
            .into_event_chunks();
        let last = stream.last().unwrap();
        assert!(matches!(last, Err(EbsError::Truncated(_))));
    }

    #[test]
    fn unknown_chunk_kinds_are_skipped_by_the_event_stream() {
        let events = sample_events(10);
        let mut w = StoreWriter::new(Vec::new()).unwrap();
        w.write_chunk(0x7E, b"future optional chunk").unwrap();
        w.write_events(&events).unwrap();
        let bytes = w.finish().unwrap();
        let streamed: Vec<IoEvent> = ChunkReader::new(bytes.as_slice())
            .unwrap()
            .into_event_chunks()
            .flat_map(|b| b.unwrap())
            .collect();
        assert_eq!(streamed, events);
    }
}
