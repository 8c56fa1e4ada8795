//! Shard-set manifest: the on-disk description of a trace split across
//! shard files (DESIGN.md §15).
//!
//! A sharded trace is a directory of independent containers: one
//! `manifest.ebs` plus one `shard-NNNN.ebs` per shard. Each shard owns a
//! contiguous, disjoint VD range and holds only that range's EVENTS
//! chunks, so shards generate, persist, and replay with zero cross-shard
//! coordination. The manifest carries what a replayer needs *before*
//! opening any shard — fleet size, tick grid, the opaque generation
//! config, and one [`ShardEntry`] per file — so a streaming analysis can
//! size its accumulators and fan shards out to workers without rebuilding
//! the fleet.
//!
//! Both the manifest payload and the per-shard [`ShardMeta`] chunk are
//! ordinary sealed chunks inside ordinary containers, which buys them the
//! existing truncation/checksum/END-total defenses for free. Decoding is
//! total: a hostile manifest yields a typed [`EbsError`], never a panic,
//! and structural invariants (shard ranges must partition `[0, vd_count)`
//! in order, file names must be bare names, not paths) are enforced at
//! decode time so a tampered manifest cannot make a replayer read outside
//! its directory or double-count a VD.

use std::io::Read;

use ebs_core::error::EbsError;
use ebs_core::time::TickSpec;

use crate::bytes::{ByteReader, ByteWriter};
use crate::format::kind;
use crate::reader::ChunkReader;
use crate::writer::StoreWriter;

/// Canonical file name of the manifest container inside a shard directory.
pub const MANIFEST_FILE: &str = "manifest.ebs";

/// Canonical file name for shard `index` (`shard-0000.ebs`, …).
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:04}.ebs")
}

/// One shard file's entry in the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    /// Bare file name of the shard container, relative to the manifest.
    pub name: String,
    /// First VD id owned by the shard (inclusive).
    pub vd_lo: u64,
    /// One past the last VD id owned by the shard.
    pub vd_hi: u64,
    /// Events stored in the shard (cross-checked against its END chunk).
    pub events: u64,
    /// Total bytes moved by the shard's events.
    pub bytes: u64,
}

/// The decoded manifest of a sharded trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    /// Number of VDs in the fleet; shard ranges partition `[0, vd_count)`.
    pub vd_count: u64,
    /// Storage-domain tick length in seconds (bit-exact f64 transport).
    pub tick_secs: f64,
    /// Number of ticks in the observation window.
    pub ticks: u32,
    /// Opaque generation-config payload (encoded by `ebs-workload`, same
    /// bytes as a CONFIG chunk), so a sharded trace can be re-validated
    /// against the config that produced it.
    pub config: Vec<u8>,
    /// Per-shard entries, in VD-range order.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// The tick grid the trace was generated over.
    pub fn tick_spec(&self) -> TickSpec {
        TickSpec::new(self.tick_secs, self.ticks)
    }

    /// Total events across all shards.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Total traffic bytes across all shards.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes).sum()
    }

    /// Encode the manifest chunk payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(self.vd_count);
        w.put_f64_bits(self.tick_secs);
        w.put_varint(u64::from(self.ticks));
        w.put_varint(self.config.len() as u64);
        w.put_bytes(&self.config);
        w.put_varint(self.shards.len() as u64);
        for shard in &self.shards {
            w.put_varint(shard.name.len() as u64);
            w.put_bytes(shard.name.as_bytes());
            w.put_varint(shard.vd_lo);
            w.put_varint(shard.vd_hi);
            w.put_varint(shard.events);
            w.put_varint(shard.bytes);
        }
        w.into_bytes()
    }

    /// Decode and validate a manifest chunk payload.
    pub fn decode(payload: &[u8]) -> Result<Self, EbsError> {
        let mut r = ByteReader::new(payload, "shard manifest");
        let vd_count = r.get_varint()?;
        let tick_secs = r.get_f64_bits()?;
        let ticks = r.get_varint_u32()?;
        let config_len = r.get_varint()?;
        let config_len = usize::try_from(config_len)
            .ok()
            .filter(|&n| n <= r.remaining())
            .ok_or_else(|| {
                EbsError::truncated(format!(
                    "shard manifest declares a {config_len}-byte config but only {} bytes remain",
                    r.remaining()
                ))
            })?;
        let config = r.get_bytes(config_len)?.to_vec();
        let shard_count = r.get_varint()?;
        // Each entry costs at least 5 bytes (empty name is rejected below),
        // so the declared count is bounded by the bytes actually present.
        let shard_count = r.check_count(shard_count, 5)?;
        let mut shards = Vec::with_capacity(shard_count);
        let mut next_lo = 0u64;
        for i in 0..shard_count {
            let name_len = r.get_varint()?;
            let name_len = usize::try_from(name_len)
                .ok()
                .filter(|&n| n <= r.remaining())
                .ok_or_else(|| {
                    EbsError::truncated(format!("shard {i} declares an oversized file name"))
                })?;
            let name_bytes = r.get_bytes(name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| {
                    EbsError::corrupt_store(format!("shard {i} file name is not valid UTF-8"))
                })?
                .to_string();
            if name.is_empty() || name.contains(['/', '\\']) || name == "." || name == ".." {
                return Err(EbsError::corrupt_store(format!(
                    "shard {i} file name {name:?} is not a bare file name"
                )));
            }
            let vd_lo = r.get_varint()?;
            let vd_hi = r.get_varint()?;
            if vd_lo != next_lo || vd_hi <= vd_lo || vd_hi > vd_count {
                return Err(EbsError::corrupt_store(format!(
                    "shard {i} owns vds [{vd_lo}, {vd_hi}) but the shard ranges must \
                     partition [0, {vd_count}) in order (expected lo {next_lo})"
                )));
            }
            next_lo = vd_hi;
            let events = r.get_varint()?;
            let bytes = r.get_varint()?;
            shards.push(ShardEntry {
                name,
                vd_lo,
                vd_hi,
                events,
                bytes,
            });
        }
        if next_lo != vd_count {
            return Err(EbsError::corrupt_store(format!(
                "shard ranges cover [0, {next_lo}) but the fleet has {vd_count} disks"
            )));
        }
        r.expect_end()?;
        Ok(Self {
            vd_count,
            tick_secs,
            ticks,
            config,
            shards,
        })
    }

    /// Write the manifest as its own sealed container.
    pub fn save<W: std::io::Write>(&self, out: W) -> Result<W, EbsError> {
        let mut writer = StoreWriter::new(out)?;
        writer.write_chunk(kind::MANIFEST, &self.encode())?;
        writer.finish()
    }

    /// Load a manifest container (the inverse of [`save`](Self::save)).
    pub fn load<R: Read>(input: R) -> Result<Self, EbsError> {
        let mut reader = ChunkReader::new(input)?;
        let mut payload = Vec::new();
        let mut found = None;
        while let Some(frame) = reader.next_frame()? {
            if frame.kind == kind::MANIFEST {
                if found.is_some() {
                    return Err(EbsError::corrupt_store(
                        "manifest container holds more than one MANIFEST chunk".to_string(),
                    ));
                }
                found = Some(Self::decode(reader.read_payload_into(&mut payload)?)?);
            }
        }
        found.ok_or_else(|| {
            EbsError::corrupt_store("manifest container holds no MANIFEST chunk".to_string())
        })
    }
}

/// Per-shard self-description, stored as the first chunk of each shard
/// file so a shard can be validated against the manifest entry that names
/// it (wrong-file swaps show up as a range mismatch, not silent
/// double-counting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// This shard's position in the shard set.
    pub shard_index: u64,
    /// Total number of shards in the set.
    pub shard_count: u64,
    /// First VD id owned by the shard (inclusive).
    pub vd_lo: u64,
    /// One past the last VD id owned by the shard.
    pub vd_hi: u64,
}

impl ShardMeta {
    /// Encode the SHARD_META chunk payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(self.shard_index);
        w.put_varint(self.shard_count);
        w.put_varint(self.vd_lo);
        w.put_varint(self.vd_hi);
        w.into_bytes()
    }

    /// Decode and validate a SHARD_META chunk payload.
    pub fn decode(payload: &[u8]) -> Result<Self, EbsError> {
        let mut r = ByteReader::new(payload, "shard meta");
        let shard_index = r.get_varint()?;
        let shard_count = r.get_varint()?;
        let vd_lo = r.get_varint()?;
        let vd_hi = r.get_varint()?;
        r.expect_end()?;
        if shard_index >= shard_count || vd_hi <= vd_lo {
            return Err(EbsError::corrupt_store(format!(
                "shard meta claims shard {shard_index}/{shard_count} owning \
                 vds [{vd_lo}, {vd_hi})"
            )));
        }
        Ok(Self {
            shard_index,
            shard_count,
            vd_lo,
            vd_hi,
        })
    }

    /// Whether this meta matches the manifest `entry` at `index`.
    pub fn matches(&self, index: usize, entry: &ShardEntry) -> bool {
        self.shard_index == index as u64 && self.vd_lo == entry.vd_lo && self.vd_hi == entry.vd_hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> ShardManifest {
        ShardManifest {
            vd_count: 10,
            tick_secs: 10.0,
            ticks: 360,
            config: vec![1, 2, 3, 4],
            shards: vec![
                ShardEntry {
                    name: shard_file_name(0),
                    vd_lo: 0,
                    vd_hi: 4,
                    events: 100,
                    bytes: 4096,
                },
                ShardEntry {
                    name: shard_file_name(1),
                    vd_lo: 4,
                    vd_hi: 10,
                    events: 200,
                    bytes: 8192,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = manifest();
        let decoded = ShardManifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.total_events(), 300);
        assert_eq!(decoded.total_bytes(), 12288);
        assert_eq!(decoded.tick_spec().ticks, 360);
    }

    #[test]
    fn save_load_roundtrip_through_a_container() {
        let m = manifest();
        let bytes = m.save(Vec::new()).unwrap();
        let loaded = ShardManifest::load(bytes.as_slice()).unwrap();
        assert_eq!(loaded, m);
    }

    #[test]
    fn rejects_gapped_overlapping_or_short_ranges() {
        let mut gapped = manifest();
        gapped.shards[1].vd_lo = 5;
        assert!(ShardManifest::decode(&gapped.encode()).is_err());
        let mut overlapping = manifest();
        overlapping.shards[1].vd_lo = 3;
        assert!(ShardManifest::decode(&overlapping.encode()).is_err());
        let mut short = manifest();
        short.shards[1].vd_hi = 9;
        assert!(ShardManifest::decode(&short.encode()).is_err());
        let mut empty = manifest();
        empty.shards[0].vd_hi = 0;
        assert!(ShardManifest::decode(&empty.encode()).is_err());
    }

    #[test]
    fn rejects_path_traversal_names() {
        for bad in ["", "a/b.ebs", "..", "c:\\x.ebs"] {
            let mut m = manifest();
            m.shards[0].name = bad.to_string();
            assert!(
                ShardManifest::decode(&m.encode()).is_err(),
                "name {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn truncation_of_every_prefix_is_detected() {
        let payload = manifest().encode();
        for cut in 0..payload.len() {
            assert!(
                ShardManifest::decode(&payload[..cut]).is_err(),
                "prefix of {cut} bytes decoded cleanly"
            );
        }
    }

    #[test]
    fn shard_meta_roundtrip_and_matching() {
        let meta = ShardMeta {
            shard_index: 1,
            shard_count: 2,
            vd_lo: 4,
            vd_hi: 10,
        };
        let decoded = ShardMeta::decode(&meta.encode()).unwrap();
        assert_eq!(decoded, meta);
        let m = manifest();
        assert!(meta.matches(1, &m.shards[1]));
        assert!(!meta.matches(0, &m.shards[0]));
        assert!(ShardMeta::decode(&[]).is_err());
        let bad = ShardMeta {
            shard_index: 2,
            shard_count: 2,
            vd_lo: 0,
            vd_hi: 1,
        };
        assert!(ShardMeta::decode(&bad.encode()).is_err());
    }
}
