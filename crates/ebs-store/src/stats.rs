//! Store-level byte accounting: one streaming pass over a container that
//! attributes every byte to a chunk kind, and every EVENTS payload byte to
//! its column. This is what `bin/all --trace` prints after a replay, so a
//! compression regression points at a specific column (timestamps, LBA
//! offsets, sizes…) instead of an opaque whole-file ratio.

use std::io::Read;

use ebs_core::error::EbsError;

use crate::columns::{decode_events_v2_into, EventColumnBytes, EventScratch};
use crate::format::{kind, FRAME_LEN, HEADER_LEN, VERSION};
use crate::reader::ChunkReader;

/// Per-chunk-kind and per-column byte totals for one container.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Chunks preceding the END chunk.
    pub chunks: u64,
    /// Events pinned by the END chunk.
    pub events: u64,
    /// Whole-file size: header, frames, payloads, END chunk.
    pub file_bytes: u64,
    /// Frame overhead: file header plus one frame per chunk (END included).
    pub frame_bytes: u64,
    /// CONFIG chunk payload bytes.
    pub config_bytes: u64,
    /// SPECS chunk payload bytes.
    pub specs_bytes: u64,
    /// COMPUTE_METRICS chunk payload bytes.
    pub compute_bytes: u64,
    /// STORAGE_METRICS chunk payload bytes.
    pub storage_bytes: u64,
    /// EVENTS chunk payload bytes.
    pub events_bytes: u64,
    /// Payload bytes of unknown chunk kinds (skipped by decoders).
    pub other_bytes: u64,
    /// END chunk payload bytes.
    pub end_bytes: u64,
    /// EVENTS payload bytes split by column.
    pub columns: EventColumnBytes,
}

impl StoreStats {
    /// Scan a container from `input`, decoding each EVENTS chunk once
    /// to attribute its payload bytes per column. One payload buffer and
    /// one column scratch are reused, so the scan allocates O(chunk), not
    /// O(file).
    pub fn scan<R: Read>(input: R) -> Result<StoreStats, EbsError> {
        let mut reader = ChunkReader::new(input)?;
        let mut stats = StoreStats {
            frame_bytes: HEADER_LEN as u64,
            file_bytes: HEADER_LEN as u64,
            ..StoreStats::default()
        };
        let mut payload = Vec::new();
        let mut scratch = EventScratch::new();
        while let Some(chunk_kind) = reader.next_chunk_into(&mut payload)? {
            let len = payload.len() as u64;
            stats.chunks += 1;
            stats.frame_bytes += FRAME_LEN as u64;
            stats.file_bytes += FRAME_LEN as u64 + len;
            match chunk_kind {
                kind::CONFIG => stats.config_bytes += len,
                kind::SPECS => stats.specs_bytes += len,
                kind::COMPUTE_METRICS => stats.compute_bytes += len,
                kind::STORAGE_METRICS => stats.storage_bytes += len,
                kind::EVENTS => {
                    stats.events_bytes += len;
                    let acct = decode_events_v2_into(&payload, &mut scratch)?;
                    stats.columns.merge(&acct);
                }
                _ => stats.other_bytes += len,
            }
        }
        let end = reader
            .end_summary()
            .ok_or_else(|| EbsError::truncated("store has no end chunk".to_string()))?;
        stats.events = end.events;
        // The END chunk is not yielded by the iterator; account for it from
        // the summary frame: its payload is two varints.
        let end_payload = varint_len(end.chunks) + varint_len(end.events);
        stats.end_bytes = end_payload;
        stats.frame_bytes += FRAME_LEN as u64;
        stats.file_bytes += FRAME_LEN as u64 + end_payload;
        Ok(stats)
    }

    /// Render the accounting as aligned text lines (callers decide the
    /// sink; the replay path sends them to stderr).
    pub fn render(&self) -> Vec<String> {
        let col = &self.columns;
        vec![
            format!(
                "store v{VERSION}: {} bytes, {} chunks, {} events",
                self.file_bytes, self.chunks, self.events
            ),
            format!(
                "  chunk bytes: events {} | compute {} | storage {} | specs {} | config {} | frames {}",
                self.events_bytes,
                self.compute_bytes,
                self.storage_bytes,
                self.specs_bytes,
                self.config_bytes,
                self.frame_bytes + self.end_bytes + self.other_bytes
            ),
            format!(
                "  event columns: timestamps {} | lba {} | size {} | qp {} | vd {} | header {}",
                col.timestamps, col.offset, col.size, col.qp, col.vd, col.header
            ),
        ]
    }
}

/// LEB128-encoded size of `v` in bytes.
fn varint_len(v: u64) -> u64 {
    (64 - v.leading_zeros() as u64).max(1).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::StoreWriter;
    use ebs_core::ids::{QpId, VdId};
    use ebs_core::io::{IoEvent, Op};

    fn sample_store() -> (Vec<u8>, EventColumnBytes) {
        let events: Vec<IoEvent> = (0..500)
            .map(|i| IoEvent {
                t_us: i * 3,
                vd: VdId((i % 4) as u32),
                qp: QpId((i % 2) as u32),
                op: if i % 3 == 0 { Op::Write } else { Op::Read },
                size: 4096 << (i % 3),
                offset: i * 4096,
            })
            .collect();
        let mut w = StoreWriter::new(Vec::new()).unwrap();
        w.write_chunk(kind::CONFIG, b"cfg-bytes").unwrap();
        w.write_events_chunked(&events, 128).unwrap();
        let acct = w.column_bytes();
        (w.finish().unwrap(), acct)
    }

    #[test]
    fn scan_accounts_for_every_file_byte() {
        let (bytes, written_columns) = sample_store();
        let stats = StoreStats::scan(bytes.as_slice()).unwrap();
        assert_eq!(stats.events, 500);
        assert_eq!(stats.file_bytes, bytes.len() as u64);
        assert_eq!(stats.config_bytes, 9);
        // Payload accounting is exhaustive: frames + payloads == file.
        let payloads = stats.config_bytes
            + stats.specs_bytes
            + stats.compute_bytes
            + stats.storage_bytes
            + stats.events_bytes
            + stats.other_bytes
            + stats.end_bytes;
        assert_eq!(stats.frame_bytes + payloads, stats.file_bytes);
        // Column accounting is exhaustive over the events payloads and
        // matches what the writer recorded.
        assert_eq!(stats.columns.total(), stats.events_bytes);
        assert_eq!(stats.columns, written_columns);
    }

    #[test]
    fn render_names_every_column() {
        let (bytes, _) = sample_store();
        let stats = StoreStats::scan(bytes.as_slice()).unwrap();
        let text = stats.render().join("\n");
        for needle in ["timestamps", "lba", "size", "qp", "vd", "header"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn truncated_store_reports_typed_error() {
        let (bytes, _) = sample_store();
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(StoreStats::scan(cut), Err(EbsError::Truncated(_))));
    }
}
