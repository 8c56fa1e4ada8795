//! Per-component latency models.
//!
//! The DiTing trace records latency across five components (§2.3): compute
//! node, frontend network, BlockServer, backend network, ChunkServer. Each
//! component here has a base cost, a size-dependent transfer term, lognormal
//! jitter, and a small probability of a long-tail excursion — enough
//! structure for the §7 cache-location study, where the *relative*
//! magnitudes of the stages decide how much latency a CN- or BS-cache can
//! save.

use ebs_core::rng::SimRng;

/// Parameters of one latency stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageParams {
    /// Fixed cost in microseconds.
    pub base_us: f64,
    /// Effective bandwidth for the size-dependent term, bytes/µs.
    pub bytes_per_us: f64,
    /// Lognormal σ of the multiplicative jitter.
    pub jitter_sigma: f64,
    /// Probability of a long-tail excursion.
    pub tail_prob: f64,
    /// Multiplier applied during an excursion.
    pub tail_mult: f64,
}

impl StageParams {
    /// Draw one latency for an IO of `size` bytes: a standard-normal
    /// deviate, then the tail uniform, in that order.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng, size: u32) -> f64 {
        let g = gauss(rng);
        let u_tail = rng.next_f64();
        let mean = self.base_us + size as f64 / self.bytes_per_us;
        // Lognormal jitter with unit median.
        let jitter = (self.jitter_sigma * g).exp();
        let tail = if u_tail < self.tail_prob {
            self.tail_mult
        } else {
            1.0
        };
        mean * jitter * tail
    }
}

#[inline]
fn gauss(rng: &mut SimRng) -> f64 {
    let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The full latency model: one stage per component, per direction where it
/// matters (ChunkServer writes pay replication + persistence).
#[derive(Clone, Debug)]
pub struct LatencyModel {
    /// Hypervisor worker-thread service cost (excluding queueing, which the
    /// simulator adds from its per-WT queues).
    pub compute: StageParams,
    /// Frontend network (compute ↔ storage RPC).
    pub frontend: StageParams,
    /// BlockServer translation/forwarding.
    pub block_server: StageParams,
    /// Backend network (BS ↔ CS, RDMA).
    pub backend: StageParams,
    /// ChunkServer read path (SSD read).
    pub cs_read: StageParams,
    /// ChunkServer write path (append + replication + persistence).
    pub cs_write: StageParams,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            compute: StageParams {
                base_us: 6.0,
                bytes_per_us: 4000.0,
                jitter_sigma: 0.25,
                tail_prob: 0.002,
                tail_mult: 8.0,
            },
            frontend: StageParams {
                base_us: 35.0,
                bytes_per_us: 3000.0,
                jitter_sigma: 0.3,
                tail_prob: 0.005,
                tail_mult: 6.0,
            },
            block_server: StageParams {
                base_us: 12.0,
                bytes_per_us: 8000.0,
                jitter_sigma: 0.25,
                tail_prob: 0.003,
                tail_mult: 5.0,
            },
            backend: StageParams {
                base_us: 20.0,
                bytes_per_us: 5000.0,
                jitter_sigma: 0.25,
                tail_prob: 0.004,
                tail_mult: 5.0,
            },
            cs_read: StageParams {
                base_us: 90.0,
                bytes_per_us: 2500.0,
                jitter_sigma: 0.35,
                tail_prob: 0.01,
                tail_mult: 10.0,
            },
            cs_write: StageParams {
                base_us: 160.0,
                bytes_per_us: 1800.0,
                jitter_sigma: 0.35,
                tail_prob: 0.01,
                tail_mult: 10.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_positive_and_size_sensitive() {
        let m = LatencyModel::default();
        let mut rng = SimRng::seed_from_u64(1);
        let mut small = 0.0;
        let mut large = 0.0;
        for _ in 0..2000 {
            small += m.frontend.sample(&mut rng, 4096);
            large += m.frontend.sample(&mut rng, 1 << 20);
        }
        assert!(small > 0.0);
        assert!(
            large > small * 2.0,
            "1 MiB should cost much more than 4 KiB"
        );
    }

    #[test]
    fn writes_cost_more_than_reads_at_chunk_server() {
        let m = LatencyModel::default();
        let mut rng = SimRng::seed_from_u64(2);
        let r: f64 = (0..2000).map(|_| m.cs_read.sample(&mut rng, 4096)).sum();
        let w: f64 = (0..2000).map(|_| m.cs_write.sample(&mut rng, 4096)).sum();
        assert!(w > r, "write {w} read {r}");
    }

    #[test]
    fn tails_appear_at_the_configured_rate() {
        let p = StageParams {
            base_us: 10.0,
            bytes_per_us: 1e12,
            jitter_sigma: 0.0,
            tail_prob: 0.1,
            tail_mult: 100.0,
        };
        let mut rng = SimRng::seed_from_u64(4);
        let n = 50_000;
        let tails = (0..n).filter(|_| p.sample(&mut rng, 0) > 500.0).count();
        let frac = tails as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "tail fraction {frac}");
    }

    #[test]
    fn stage_ordering_matches_stack_expectations() {
        // The CS dominates, CN is cheapest — the pre-condition for the §7
        // result that a CN cache saves more than a BS cache.
        let m = LatencyModel::default();
        assert!(m.compute.base_us < m.block_server.base_us);
        assert!(m.block_server.base_us < m.cs_read.base_us);
        assert!(m.cs_read.base_us < m.cs_write.base_us);
    }
}
