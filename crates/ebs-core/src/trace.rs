//! The per-IO latency breakdown of the paper's *trace data* (§2.3).
//!
//! DiTing samples one in 3200 IOs and records, per sampled IO: the block-
//! layer information (opcode, size, LBA offset), the EBS-stack entities the
//! IO passed through, and its latency across the five major components of
//! the stack (compute node, frontend network, BlockServer, backend network,
//! ChunkServer). Here that dataset is three parallel columns: the sampled
//! [`crate::io::IoEvent`]s carry the block-layer fields, the stack
//! simulator's route plan resolves the entities, and the simulator emits
//! one [`StageLatency`] per event, in event order.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_latency_sums() {
        let lat = StageLatency {
            compute_us: 10.0,
            frontend_us: 20.0,
            block_server_us: 5.0,
            backend_us: 15.0,
            chunk_server_us: 50.0,
        };
        assert!((lat.total_us() - 100.0).abs() < 1e-12);
        assert!((lat.cn_cache_us() - 10.0).abs() < 1e-12);
        assert!((lat.bs_cache_us() - 35.0).abs() < 1e-12);
        assert!(lat.cn_cache_us() < lat.bs_cache_us());
        assert!(lat.bs_cache_us() < lat.total_us());
    }
}
