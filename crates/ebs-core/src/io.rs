//! Block IO model: opcodes and IO events.

use crate::ids::{QpId, VdId};

/// Block IO opcode. EBS traffic is read/write only (no discard/flush in the
/// paper's datasets).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read from the virtual disk.
    Read,
    /// Write to the virtual disk.
    Write,
}

impl Op {
    /// Both opcodes, in `[Read, Write]` order (the paper's "R / W" column
    /// order).
    pub const ALL: [Op; 2] = [Op::Read, Op::Write];

    /// `true` for [`Op::Read`].
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, Op::Read)
    }

    /// `true` for [`Op::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, Op::Write)
    }

    /// One-letter label used in table output ("R" / "W").
    pub fn letter(self) -> &'static str {
        match self {
            Op::Read => "R",
            Op::Write => "W",
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Op::Read => "read",
            Op::Write => "write",
        })
    }
}

/// A single block IO issued by a VM to one queue pair of a virtual disk.
///
/// This is the unit the workload generator emits and the stack simulator
/// consumes, emitting one [`crate::trace::StageLatency`] per event once it
/// has routed the event through the stack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoEvent {
    /// Submission timestamp, microseconds from the observation-window origin.
    pub t_us: u64,
    /// Target virtual disk.
    pub vd: VdId,
    /// Queue pair the guest submitted to.
    pub qp: QpId,
    /// Read or write.
    pub op: Op,
    /// Transfer size in bytes.
    pub size: u32,
    /// Byte offset within the VD's logical block address space.
    pub offset: u64,
}

impl IoEvent {
    /// Exclusive end offset of the transfer.
    #[inline]
    pub fn end_offset(&self) -> u64 {
        self.offset + self.size as u64
    }

    /// Segment index within the VD that the *starting* offset falls in.
    /// (EBS splits VDs into 32 GiB segments; IOs in the datasets never span
    /// a segment boundary because guest IO sizes are ≤ a few MiB.)
    #[inline]
    pub fn segment_index(&self) -> u32 {
        (self.offset / crate::units::SEGMENT_BYTES) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::GIB;

    #[test]
    fn op_predicates() {
        assert!(Op::Read.is_read());
        assert!(!Op::Read.is_write());
        assert!(Op::Write.is_write());
        assert_eq!(Op::Read.letter(), "R");
        assert_eq!(Op::Write.to_string(), "write");
    }

    #[test]
    fn event_geometry() {
        let ev = IoEvent {
            t_us: 10,
            vd: VdId(0),
            qp: QpId(0),
            op: Op::Write,
            size: 4096,
            offset: 33 * GIB,
        };
        assert_eq!(ev.end_offset(), 33 * GIB + 4096);
        assert_eq!(ev.segment_index(), 1);
    }

    #[test]
    fn segment_index_boundary() {
        let mk = |offset| IoEvent {
            t_us: 0,
            vd: VdId(0),
            qp: QpId(0),
            op: Op::Read,
            size: 512,
            offset,
        };
        assert_eq!(mk(0).segment_index(), 0);
        assert_eq!(mk(32 * GIB - 1).segment_index(), 0);
        assert_eq!(mk(32 * GIB).segment_index(), 1);
    }
}
