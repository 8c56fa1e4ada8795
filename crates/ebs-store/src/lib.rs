//! # ebs-store — persistent columnar trace store with streaming replay
//!
//! The paper's three datasets (trace events, performance metrics,
//! specifications; §2.3) are expensive to regenerate and much too large to
//! re-derive per experiment. This crate gives them a durable on-disk form:
//! a versioned, chunked, column-major binary container in which each chunk
//! is sealed by a length header and the multiply-rotate [`seal::seal32`]
//! frame seal.
//!
//! Layout (DESIGN.md §12, §14):
//!
//! ```text
//! file   := magic "EBSSTORE" version(u32 LE) chunk* end-chunk
//! chunk  := kind(u8) payload_len(u32 LE) seal(u32 LE) payload
//! ```
//!
//! Payloads are column-major. Format v2 (DESIGN.md §14), the only format
//! the store reads or writes, batch-encodes each column through the
//! [`codec`] kernels: group-varint for spiky columns, zigzag +
//! frame-of-reference byte-packing for narrow-range ones, with the encoder
//! picking the smaller representation per column. Timestamps are
//! delta-encoded (events are globally time-sorted, so deltas are small),
//! VD ids are dictionary-compressed per chunk, offsets are per-VD wrapping
//! deltas, and integral metric samples pack as integer columns; floats
//! that are not integral travel as raw IEEE-754 bits, so a save→load→save
//! cycle is byte-identical. The metric-series codec, which carries most of
//! a container's bytes, works on each series' read and write sides
//! directly: encode packs every value column from its own side's entries,
//! and decode fills each side, once and exactly sized, from borrowed views
//! of the value columns. That layout is the same one the per-value kernels
//! wrote (DESIGN.md §14). The
//! [`writer::StoreWriter`] produces v2 containers; the
//! [`reader::ChunkReader`] reads them back (a header of any other version
//! is [`VersionSkew`]) and either materializes chunks fully or streams
//! them one at a time into a [`stream::StreamSummary`], whose
//! column-at-a-time fold computes the paper's CCR / P2A / size-quantile
//! statistics without ever holding the whole trace in memory — or
//! allocating per chunk in steady state.
//!
//! Failure model: every decode path returns a typed
//! [`ebs_core::error::EbsError`] — [`Truncated`], [`ChecksumMismatch`],
//! [`VersionSkew`], or [`CorruptStore`] — and hostile input can never
//! panic or trigger an unbounded allocation (declared counts are validated
//! against the bytes actually present before any `Vec` is reserved).
//!
//! The crate is dependency-free by design (the build environment is
//! offline): the frame seal and varints are implemented in-repo, the same
//! way `ebs_core::hash` carries its own FxHash.
//!
//! [`Truncated`]: ebs_core::error::EbsError::Truncated
//! [`ChecksumMismatch`]: ebs_core::error::EbsError::ChecksumMismatch
//! [`VersionSkew`]: ebs_core::error::EbsError::VersionSkew
//! [`CorruptStore`]: ebs_core::error::EbsError::CorruptStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The whole crate is a total module (ebs-lint rule D3): decode paths must
// return typed errors, never panic. Test code is exempt — the cfg_attr
// keeps `cargo test` usable while CI's `-D warnings` enforces the rest.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

// Lets the test-only reference codec (`tests/oracle/`) name this crate by
// its public paths from inside the crate's own unit tests, as it does from
// the workspace integration tests.
#[cfg(test)]
extern crate self as ebs_store;

pub mod bytes;
pub mod codec;
pub mod columns;
pub mod format;
pub mod manifest;
pub mod reader;
pub mod seal;
pub mod stats;
pub mod stream;
pub mod writer;

pub use bytes::{ByteReader, ByteWriter};
pub use columns::{
    decode_events, decode_events_into, decode_specs, encode_events, encode_series_set,
    encode_specs, events_from_columns, EventColumnBytes, EventColumns, EventScratch, SpecRow,
};
pub use format::{
    EVENTS_PER_CHUNK, FRAME_LEN, HEADER_LEN, MAGIC, MAX_CHUNK_EVENTS, MAX_CHUNK_LEN, VERSION,
};
pub use manifest::{shard_file_name, ShardEntry, ShardManifest, ShardMeta, MANIFEST_FILE};
pub use reader::{ChunkFrame, ChunkReader, EndSummary, EventChunks, SERIES_WINDOW};
pub use stats::StoreStats;
pub use stream::{fold_store, StreamSummary};
pub use writer::StoreWriter;
