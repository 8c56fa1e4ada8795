//! Byte-size and throughput units.
//!
//! All sizes in the workspace are plain `u64` byte counts and all rates are
//! `f64` bytes-per-second / ops-per-second; this module provides the named
//! constants and formatting helpers that keep call sites readable.

/// One kibibyte (2^10 bytes).
pub const KIB: u64 = 1 << 10;
/// One mebibyte (2^20 bytes).
pub const MIB: u64 = 1 << 20;
/// One gibibyte (2^30 bytes).
pub const GIB: u64 = 1 << 30;
/// One tebibyte (2^40 bytes).
pub const TIB: u64 = 1 << 40;

/// Size of one virtual-disk segment: the paper's EBS splits each VD's
/// address space into fixed 32 GiB stripes managed by BlockServers (§2.1).
pub const SEGMENT_BYTES: u64 = 32 * GIB;

/// Cache page size used throughout §7 of the paper.
pub const PAGE_BYTES: u64 = 4 * KIB;

/// The DiTing trace sampling rate: one in 3200 IOs is recorded (§2.3).
pub const TRACE_SAMPLE_RATE: f64 = 1.0 / 3200.0;

/// Render a byte count with a binary-unit suffix, e.g. `"1.50 GiB"`.
pub fn format_bytes(bytes: f64) -> String {
    let abs = bytes.abs();
    if abs >= TIB as f64 {
        format!("{:.2} TiB", bytes / TIB as f64)
    } else if abs >= GIB as f64 {
        format!("{:.2} GiB", bytes / GIB as f64)
    } else if abs >= MIB as f64 {
        format!("{:.2} MiB", bytes / MIB as f64)
    } else if abs >= KIB as f64 {
        format!("{:.2} KiB", bytes / KIB as f64)
    } else {
        format!("{bytes:.0} B")
    }
}

/// Number of whole segments needed to cover `capacity_bytes` of VD address
/// space (always at least one).
pub fn segments_for_capacity(capacity_bytes: u64) -> u32 {
    let segs = capacity_bytes.div_ceil(SEGMENT_BYTES);
    segs.max(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_powers_of_two() {
        assert_eq!(MIB, 1024 * KIB);
        assert_eq!(GIB, 1024 * MIB);
        assert_eq!(TIB, 1024 * GIB);
        assert_eq!(SEGMENT_BYTES, 32 * GIB);
    }

    #[test]
    fn format_bytes_picks_unit() {
        assert_eq!(format_bytes(512.0), "512 B");
        assert_eq!(format_bytes(1536.0), "1.50 KiB");
        assert_eq!(format_bytes(3.0 * MIB as f64), "3.00 MiB");
        assert_eq!(format_bytes(2.5 * GIB as f64), "2.50 GiB");
        assert_eq!(format_bytes(1.25 * TIB as f64), "1.25 TiB");
    }

    #[test]
    fn segment_count_rounds_up_and_floors_at_one() {
        assert_eq!(segments_for_capacity(GIB), 1);
        assert_eq!(segments_for_capacity(SEGMENT_BYTES), 1);
        assert_eq!(segments_for_capacity(SEGMENT_BYTES + 1), 2);
        assert_eq!(segments_for_capacity(10 * SEGMENT_BYTES), 10);
        assert_eq!(segments_for_capacity(0), 1);
    }

    #[test]
    fn sample_rate_matches_paper() {
        assert!((TRACE_SAMPLE_RATE * 3200.0 - 1.0).abs() < 1e-12);
    }
}
