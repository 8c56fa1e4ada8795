//! Per-IO trace records (the paper's *trace data*, §2.3).
//!
//! DiTing samples one in 3200 IOs and records, per sampled IO: the block-
//! layer information (opcode, size, LBA offset), the EBS-stack entities the
//! IO passed through, and its latency across the five major components of
//! the stack (compute node, frontend network, BlockServer, backend network,
//! ChunkServer).

use crate::ids::{BsId, CnId, QpId, SegId, SnId, TraceId, VdId, VmId, WtId};
use crate::io::Op;

/// Latency of one IO broken down by the five major stack components (§2.3),
/// all in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageLatency {
    /// Time spent in the compute node (hypervisor queueing + worker thread).
    pub compute_us: f64,
    /// Frontend network (compute ↔ storage cluster RPC transit).
    pub frontend_us: f64,
    /// BlockServer processing (address translation, forwarding).
    pub block_server_us: f64,
    /// Backend network (BS ↔ CS, RDMA).
    pub backend_us: f64,
    /// ChunkServer persistence / retrieval.
    pub chunk_server_us: f64,
}

impl StageLatency {
    /// End-to-end latency: the sum of the five stages.
    pub fn total_us(&self) -> f64 {
        self.compute_us
            + self.frontend_us
            + self.block_server_us
            + self.backend_us
            + self.chunk_server_us
    }

    /// Latency with everything below the compute node removed — what the IO
    /// would cost if served from a compute-node cache (§7.3.2).
    pub fn cn_cache_us(&self) -> f64 {
        self.compute_us
    }

    /// Latency with everything below the BlockServer removed — what the IO
    /// would cost if served from a BlockServer cache (§7.3.2).
    pub fn bs_cache_us(&self) -> f64 {
        self.compute_us + self.frontend_us + self.block_server_us
    }
}

/// One sampled IO trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Unique trace id.
    pub id: TraceId,
    /// Submission timestamp, microseconds from the window origin.
    pub t_us: u64,
    /// Opcode.
    pub op: Op,
    /// Transfer size in bytes.
    pub size: u32,
    /// Byte offset within the VD's LBA space.
    pub offset: u64,
    /// Queue pair the IO was submitted to.
    pub qp: QpId,
    /// Virtual disk.
    pub vd: VdId,
    /// Virtual machine.
    pub vm: VmId,
    /// Compute node.
    pub cn: CnId,
    /// Worker thread that served the IO.
    pub wt: WtId,
    /// Segment the offset falls in.
    pub seg: SegId,
    /// BlockServer that handled the IO.
    pub bs: BsId,
    /// Storage node hosting that BlockServer.
    pub sn: SnId,
    /// Per-component latency breakdown.
    pub lat: StageLatency,
}

impl TraceRecord {
    /// Transfer size in bytes as `f64` (convenient for traffic sums).
    pub fn bytes(&self) -> f64 {
        self.size as f64
    }
}

/// A collection of trace records covering one observation window, kept
/// sorted by timestamp.
#[derive(Clone, Debug, Default)]
pub struct TraceSet {
    records: Vec<TraceRecord>,
}

impl TraceSet {
    /// Wrap a vector of records, sorting by timestamp unless they already
    /// are (stable, so equal timestamps keep generation order).
    pub fn from_records(mut records: Vec<TraceRecord>) -> Self {
        if !records.is_sorted_by_key(|r| r.t_us) {
            records.sort_by_key(|r| r.t_us);
        }
        Self { records }
    }

    /// All records in timestamp order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total read and write bytes `(read, write)`.
    pub fn rw_bytes(&self) -> (f64, f64) {
        let mut read = 0.0;
        let mut write = 0.0;
        for r in &self.records {
            if r.op.is_read() {
                read += r.bytes();
            } else {
                write += r.bytes();
            }
        }
        (read, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_us: u64, op: Op, size: u32) -> TraceRecord {
        TraceRecord {
            id: TraceId(t_us),
            t_us,
            op,
            size,
            offset: 0,
            qp: QpId(0),
            vd: VdId(0),
            vm: VmId(0),
            cn: CnId(0),
            wt: WtId(0),
            seg: SegId(0),
            bs: BsId(0),
            sn: SnId(0),
            lat: StageLatency {
                compute_us: 10.0,
                frontend_us: 20.0,
                block_server_us: 5.0,
                backend_us: 15.0,
                chunk_server_us: 50.0,
            },
        }
    }

    #[test]
    fn stage_latency_sums() {
        let lat = rec(0, Op::Read, 4096).lat;
        assert!((lat.total_us() - 100.0).abs() < 1e-12);
        assert!((lat.cn_cache_us() - 10.0).abs() < 1e-12);
        assert!((lat.bs_cache_us() - 35.0).abs() < 1e-12);
        assert!(lat.cn_cache_us() < lat.bs_cache_us());
        assert!(lat.bs_cache_us() < lat.total_us());
    }

    #[test]
    fn trace_set_sorts_and_counts() {
        let set = TraceSet::from_records(vec![
            rec(30, Op::Write, 8192),
            rec(10, Op::Read, 4096),
            rec(20, Op::Write, 4096),
        ]);
        let ts: Vec<u64> = set.records().iter().map(|r| r.t_us).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        let (rb, wb) = set.rw_bytes();
        assert_eq!(rb, 4096.0);
        assert_eq!(wb, 12288.0);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
    }
}
