//! On-disk layout constants of the `ebs-store` container (DESIGN.md §12,
//! §14).
//!
//! ```text
//! file   := magic(8) version(u32 LE) chunk* end-chunk
//! chunk  := kind(u8) payload_len(u32 LE) seal(u32 LE) payload
//! ```
//!
//! The frame seal, [`crate::seal::seal32`], covers exactly the payload
//! bytes. The end chunk carries the
//! number of preceding chunks and the total event count, so a file cut at
//! a chunk boundary — which would otherwise parse cleanly — is still
//! detected as truncated.

/// File magic: identifies an ebs-store container independent of version.
pub const MAGIC: [u8; 8] = *b"EBSSTORE";

/// The one format version: payloads are the batched group-varint /
/// frame-of-reference columns of [`crate::codec`] (DESIGN.md §14).
/// Readers reject any other header version as [version skew] — the
/// retired v1 included.
///
/// [version skew]: ebs_core::error::EbsError::VersionSkew
pub const VERSION: u32 = 2;

/// Hard ceiling on the event count a single v2 EVENTS chunk may declare.
/// Writers chunk far below this ([`EVENTS_PER_CHUNK`]); readers treat a
/// bigger declared count as corruption before sizing any scratch column —
/// a v2 chunk of all-constant columns is a few hundred bytes regardless of
/// its count, so the byte-budget check alone cannot bound allocations.
pub const MAX_CHUNK_EVENTS: usize = 1 << 22;

/// Upper bound on a single chunk's payload (writers stay far below; a
/// declared length past this is corruption, not an allocation request).
pub const MAX_CHUNK_LEN: u32 = 256 << 20;

/// Default number of events per chunk written by
/// [`crate::writer::StoreWriter::write_events_chunked`]: large enough to
/// amortize framing and keep the per-chunk dictionary small, small enough
/// that a chunk's five decoded u64 columns (~320 KB) stay L2-resident —
/// the post-decode passes and row fuse re-scan them, and at 64 Ki events
/// per chunk that rescan spills to L3 and costs ~15% of decode throughput.
pub const EVENTS_PER_CHUNK: usize = 8_192;

/// Chunk kind tags. Unknown kinds are skipped by readers, so an optional
/// chunk kind can be added without a version bump.
pub mod kind {
    /// Opaque generation-config payload (encoded by `ebs-workload`).
    pub const CONFIG: u8 = 1;
    /// Specification data: one row per VD (§2.3 "specification dataset").
    pub const SPECS: u8 = 2;
    /// A column-major batch of sampled IO events (trace dataset).
    pub const EVENTS: u8 = 3;
    /// Compute-domain metric series (per QP).
    pub const COMPUTE_METRICS: u8 = 4;
    /// Storage-domain metric series (per segment).
    pub const STORAGE_METRICS: u8 = 5;
    /// Shard self-description: which contiguous VD range this shard file
    /// owns, and its position in the shard set (DESIGN.md §15).
    pub const SHARD_META: u8 = 6;
    /// Shard-set manifest: fleet dimensions plus one entry per shard file,
    /// stored in its own container alongside the shards (DESIGN.md §15).
    pub const MANIFEST: u8 = 7;
    /// Terminal chunk: chunk count + event total for truncation detection.
    pub const END: u8 = 0xFF;
}

/// Bytes of the fixed file header (magic + version).
pub const HEADER_LEN: usize = MAGIC.len() + 4;

/// Bytes of a chunk frame header (kind + length + seal).
pub const FRAME_LEN: usize = 1 + 4 + 4;
