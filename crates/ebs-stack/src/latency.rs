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

/// Replicas a write is persisted to before it is acknowledged.
const WRITE_REPLICAS: usize = 3;

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

impl LatencyModel {
    /// One write's ChunkServer latency: a `cs_write` draw per replica, in
    /// turn, completing at the slowest. EBS acknowledges a write only once
    /// every replica has persisted it (§7.3.2), so one slow replica drags
    /// the IO — which is why production write tails are long.
    #[inline]
    pub fn replicated_write(&self, rng: &mut SimRng, size: u32) -> f64 {
        let mut slowest = self.cs_write.sample(rng, size);
        for _ in 1..WRITE_REPLICAS {
            slowest = slowest.max(self.cs_write.sample(rng, size));
        }
        slowest
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

    /// Standard normal CDF, through the complementary error function
    /// (Numerical Recipes' `erfcc`, fractional error below 1.2e-7).
    fn normal_cdf(z: f64) -> f64 {
        let x = z.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * x);
        let poly = [
            -1.265_512_23,
            1.000_023_68,
            0.374_091_96,
            0.096_784_18,
            -0.186_288_06,
            0.278_868_07,
            -1.135_203_98,
            1.488_515_87,
            -0.822_152_23,
            0.170_872_77,
        ]
        .iter()
        .rev()
        .fold(0.0, |acc, c| acc * t + c);
        let erfc = t * (-x * x + poly).exp();
        if z >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    /// The closed-form CDF of one 4 KiB draw of `s`: a median-`mean`
    /// lognormal, scaled by `tail_mult` with probability `tail_prob`.
    fn stage_cdf(s: &StageParams, x: f64) -> f64 {
        let mean = s.base_us + 4096.0 / s.bytes_per_us;
        let lognormal = |median: f64| normal_cdf((x / median).ln() / s.jitter_sigma);
        (1.0 - s.tail_prob) * lognormal(mean) + s.tail_prob * lognormal(mean * s.tail_mult)
    }

    /// A replicated write completes at the slowest of its three i.i.d.
    /// replica draws, so its latency has CDF F(x)³ over the write stage's
    /// exact CDF F: the empirical CDF matches within five standard
    /// errors, at probes across the body and the tail.
    #[test]
    fn replicated_write_latency_follows_the_slowest_of_three_law() {
        let s = StageParams {
            base_us: 100.0,
            bytes_per_us: 2000.0,
            jitter_sigma: 0.4,
            tail_prob: 0.02,
            tail_mult: 10.0,
        };
        let m = LatencyModel {
            cs_write: s,
            ..LatencyModel::default()
        };
        let mean = s.base_us + 4096.0 / s.bytes_per_us;
        let n = 20_000;
        let mut rng = SimRng::seed_from_u64(4);
        let draws: Vec<f64> = (0..n).map(|_| m.replicated_write(&mut rng, 4096)).collect();
        for scale in [0.5, 0.8, 1.0, 1.25, 1.6, 2.5, 8.0, 15.0] {
            let x = mean * scale;
            let want = stage_cdf(&s, x).powi(3);
            let got = draws.iter().filter(|&&d| d <= x).count() as f64 / n as f64;
            let band = 5.0 * (want * (1.0 - want) / n as f64).sqrt() + 1e-4;
            assert!(
                (got - want).abs() <= band,
                "at {x:.0} µs: P = {got:.4}, closed form {want:.4} ± {band:.4}"
            );
        }
    }
}
