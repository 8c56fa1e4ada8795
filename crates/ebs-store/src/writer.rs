//! Chunked store writer: frames column-encoded payloads with a kind tag,
//! a length, and a frame seal ([`crate::seal::seal32`] in format v2), and
//! terminates the file with an END chunk that pins the chunk count and
//! event total.
//!
//! The writer is generic over [`std::io::Write`] so callers pick the
//! buffering policy; `Dataset::save` wraps a `BufWriter` around the file.

use std::io::Write;

use ebs_core::error::EbsError;
use ebs_core::io::IoEvent;
use ebs_core::metric::Series;
use ebs_core::time::TickSpec;

use crate::bytes::ByteWriter;
use crate::columns::{
    encode_events_v2, encode_series_set, encode_specs, EventColumnBytes, EventScratch, SpecRow,
};
use crate::format::{kind, MAGIC, MAX_CHUNK_EVENTS, MAX_CHUNK_LEN, VERSION};
use crate::seal::seal32;

/// Writes an ebs-store container to any [`Write`] sink.
///
/// Construction emits the file header; [`finish`](Self::finish) must be
/// called to seal the file — a store without an END chunk reads back as
/// truncated by design.
#[derive(Debug)]
pub struct StoreWriter<W: Write> {
    out: W,
    chunks_written: u64,
    events_written: u64,
    bytes_written: u64,
    scratch: EventScratch,
    column_bytes: EventColumnBytes,
}

impl<W: Write> StoreWriter<W> {
    /// Start a new store on `out`, writing the magic and version header.
    pub fn new(mut out: W) -> Result<Self, EbsError> {
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        Ok(Self {
            out,
            chunks_written: 0,
            events_written: 0,
            bytes_written: (MAGIC.len() + 4) as u64,
            scratch: EventScratch::new(),
            column_bytes: EventColumnBytes::default(),
        })
    }

    /// Number of chunks framed so far (END excluded until `finish`).
    pub fn chunks_written(&self) -> u64 {
        self.chunks_written
    }

    /// Total events written across all event chunks so far.
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Per-column byte accounting summed across every EVENTS chunk written
    /// so far (payload bytes only; frames are 9 bytes per chunk).
    pub fn column_bytes(&self) -> EventColumnBytes {
        self.column_bytes
    }

    /// Frame `payload` as a chunk of `chunk_kind`: tag, length, the v2
    /// frame seal of the payload, then the payload itself.
    pub fn write_chunk(&mut self, chunk_kind: u8, payload: &[u8]) -> Result<(), EbsError> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_CHUNK_LEN)
            .ok_or_else(|| {
                EbsError::invalid_spec(format!(
                    "chunk payload of {} bytes exceeds the {MAX_CHUNK_LEN}-byte frame limit",
                    payload.len()
                ))
            })?;
        self.out.write_all(&[chunk_kind])?;
        self.out.write_all(&len.to_le_bytes())?;
        self.out.write_all(&seal32(payload).to_le_bytes())?;
        self.out.write_all(payload)?;
        self.chunks_written += 1;
        self.bytes_written += (crate::format::FRAME_LEN + payload.len()) as u64;
        Ok(())
    }

    /// Write one EVENTS chunk holding all of `events` (at most
    /// [`MAX_CHUNK_EVENTS`]; callers with more use
    /// [`write_events_chunked`](Self::write_events_chunked)).
    pub fn write_events(&mut self, events: &[IoEvent]) -> Result<(), EbsError> {
        let (payload, acct) = encode_events_v2(events, &mut self.scratch)?;
        self.write_chunk(kind::EVENTS, &payload)?;
        self.column_bytes.merge(&acct);
        self.events_written += events.len() as u64;
        Ok(())
    }

    /// Write `events` split into chunks of at most `per_chunk` events
    /// (callers normally pass [`crate::format::EVENTS_PER_CHUNK`]); an
    /// empty slice still
    /// produces one empty chunk so the dataset shape is explicit on disk.
    pub fn write_events_chunked(
        &mut self,
        events: &[IoEvent],
        per_chunk: usize,
    ) -> Result<(), EbsError> {
        let per_chunk = per_chunk.clamp(1, MAX_CHUNK_EVENTS);
        if events.is_empty() {
            return self.write_events(events);
        }
        for chunk in events.chunks(per_chunk) {
            self.write_events(chunk)?;
        }
        Ok(())
    }

    /// Write the SPECS chunk (one row per virtual disk).
    pub fn write_specs(&mut self, rows: &[SpecRow]) -> Result<(), EbsError> {
        let payload = encode_specs(rows);
        self.write_chunk(kind::SPECS, &payload)
    }

    /// Write a metric-series chunk (`COMPUTE_METRICS` or `STORAGE_METRICS`).
    pub fn write_series(
        &mut self,
        chunk_kind: u8,
        ticks: TickSpec,
        series: &[Series],
    ) -> Result<(), EbsError> {
        let payload = encode_series_set(ticks, series);
        self.write_chunk(chunk_kind, &payload)
    }

    /// Write the END chunk (chunk count + event total), flush, and hand the
    /// sink back. Records store counters into the observability registry.
    pub fn finish(mut self) -> Result<W, EbsError> {
        let mut w = ByteWriter::new();
        w.put_varint(self.chunks_written);
        w.put_varint(self.events_written);
        let payload = w.into_bytes();
        self.write_chunk(kind::END, &payload)?;
        self.out.flush()?;
        ebs_obs::counter_add("store.chunks_written", self.chunks_written);
        ebs_obs::counter_add("store.events_written", self.events_written);
        ebs_obs::counter_add("store.bytes_written", self.bytes_written);
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{FRAME_LEN, HEADER_LEN};

    #[test]
    fn header_then_framed_chunks_then_end() {
        let mut w = StoreWriter::new(Vec::new()).unwrap();
        w.write_chunk(kind::CONFIG, b"cfg").unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(&bytes[..8], b"EBSSTORE");
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            VERSION
        );
        // First chunk frame.
        assert_eq!(bytes[HEADER_LEN], kind::CONFIG);
        let len = u32::from_le_bytes(bytes[HEADER_LEN + 1..HEADER_LEN + 5].try_into().unwrap());
        assert_eq!(len, 3);
        let seal = u32::from_le_bytes(bytes[HEADER_LEN + 5..HEADER_LEN + 9].try_into().unwrap());
        assert_eq!(seal, seal32(b"cfg"));
        // END chunk follows directly.
        let end_at = HEADER_LEN + FRAME_LEN + 3;
        assert_eq!(bytes[end_at], kind::END);
    }

    #[test]
    fn chunked_event_writes_split_and_count() {
        let events: Vec<IoEvent> = (0..10)
            .map(|i| IoEvent {
                t_us: i as u64,
                vd: ebs_core::ids::VdId(0),
                qp: ebs_core::ids::QpId(0),
                op: ebs_core::io::Op::Read,
                size: 4096,
                offset: 0,
            })
            .collect();
        let mut w = StoreWriter::new(Vec::new()).unwrap();
        w.write_events_chunked(&events, 4).unwrap();
        assert_eq!(w.chunks_written(), 3); // 4 + 4 + 2
        assert_eq!(w.events_written(), 10);
        w.finish().unwrap();
    }

    #[test]
    fn empty_event_set_still_gets_a_chunk() {
        let mut w = StoreWriter::new(Vec::new()).unwrap();
        w.write_events_chunked(&[], 1024).unwrap();
        assert_eq!(w.chunks_written(), 1);
        assert_eq!(w.events_written(), 0);
    }
}
