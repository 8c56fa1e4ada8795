//! Replicated write path.
//!
//! EBS write durability requires persisting with redundancy before acking
//! (§7.3.2): the BlockServer fans a write out to `r` ChunkServer replicas
//! and completes when the slowest of the required acks arrives. This
//! module models that quorum: per-replica latency draws from the CS write
//! stage, completion at the `k`-th order statistic. Replication is why
//! production write tails are long — one slow replica drags the IO.

/// Replication policy of the write path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicationPolicy {
    /// Number of replicas written.
    pub replicas: u8,
    /// Acks required before the write completes (quorum), `<= replicas`.
    pub quorum: u8,
}

impl ReplicationPolicy {
    /// Three-way replication, all acks required — the classic EBS setting.
    pub const THREE_WAY: ReplicationPolicy = ReplicationPolicy {
        replicas: 3,
        quorum: 3,
    };

    /// Majority quorum over three replicas.
    pub const THREE_WAY_MAJORITY: ReplicationPolicy = ReplicationPolicy {
        replicas: 3,
        quorum: 2,
    };

    /// Single copy (no redundancy) — what the unreplicated latency model
    /// alone would give.
    pub const NONE: ReplicationPolicy = ReplicationPolicy {
        replicas: 1,
        quorum: 1,
    };

    /// Validate `1 <= quorum <= replicas`.
    pub fn validate(&self) -> Result<(), ebs_core::error::EbsError> {
        if self.replicas == 0 || self.quorum == 0 || self.quorum > self.replicas {
            return Err(ebs_core::error::EbsError::invalid_config(format!(
                "replication {}/{} invalid",
                self.quorum, self.replicas
            )));
        }
        Ok(())
    }

    /// The completing ack among per-replica latencies `acks`: the
    /// `quorum`-th smallest (0 when there are fewer acks than the quorum).
    /// Reorders `acks`.
    pub fn completing_ack(&self, acks: &mut [f64]) -> f64 {
        acks.sort_unstable_by(f64::total_cmp);
        acks.get(usize::from(self.quorum).wrapping_sub(1))
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::StageParams;
    use ebs_core::rng::SimRng;

    fn stage() -> StageParams {
        StageParams {
            base_us: 100.0,
            bytes_per_us: 2000.0,
            jitter_sigma: 0.4,
            tail_prob: 0.02,
            tail_mult: 10.0,
        }
    }

    /// One replicated 4 KiB write under `p`: a latency draw per replica
    /// from `s`, completing at the quorum's ack.
    fn write_latency_us(p: ReplicationPolicy, rng: &mut SimRng, s: &StageParams) -> f64 {
        let mut acks: Vec<f64> = (0..p.replicas).map(|_| s.sample(rng, 4096)).collect();
        p.completing_ack(&mut acks)
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

    /// P(the `k`-th smallest of `r` i.i.d. draws ≤ x) when one draw is
    /// ≤ x with probability `f`: at least `k` of the `r` draws are.
    fn order_statistic_cdf(r: u8, k: u8, f: f64) -> f64 {
        let r = i32::from(r);
        (i32::from(k)..=r)
            .map(|j| {
                let choose = (0..j).fold(1.0, |c, i| c * f64::from(r - i) / f64::from(i + 1));
                choose * f.powi(j) * (1.0 - f).powi(r - j)
            })
            .sum()
    }

    /// Write latency under an r-way, k-ack quorum is the k-th order
    /// statistic of the replica draws: its empirical CDF matches the
    /// binomial closed form over the stage's exact CDF, within five
    /// standard errors, at probes across the body and the tail.
    #[test]
    fn quorum_write_latency_follows_the_order_statistic_law() {
        let s = stage();
        let mean = s.base_us + 4096.0 / s.bytes_per_us;
        let n = 20_000;
        let mut rng = SimRng::seed_from_u64(4);
        for replicas in 1..=5u8 {
            for quorum in 1..=replicas {
                let p = ReplicationPolicy { replicas, quorum };
                let draws: Vec<f64> = (0..n).map(|_| write_latency_us(p, &mut rng, &s)).collect();
                for scale in [0.5, 0.8, 1.0, 1.25, 1.6, 2.5, 8.0, 15.0] {
                    let x = mean * scale;
                    let want = order_statistic_cdf(replicas, quorum, stage_cdf(&s, x));
                    let got = draws.iter().filter(|&&d| d <= x).count() as f64 / n as f64;
                    let band = 5.0 * (want * (1.0 - want) / n as f64).sqrt() + 1e-4;
                    assert!(
                        (got - want).abs() <= band,
                        "{quorum}-of-{replicas} at {x:.0} µs: P = {got:.4}, closed form {want:.4} ± {band:.4}"
                    );
                }
            }
        }
    }

    #[test]
    fn validation_catches_bad_policies() {
        assert!(ReplicationPolicy {
            replicas: 0,
            quorum: 0
        }
        .validate()
        .is_err());
        assert!(ReplicationPolicy {
            replicas: 2,
            quorum: 3
        }
        .validate()
        .is_err());
        assert!(ReplicationPolicy::THREE_WAY.validate().is_ok());
        assert!(ReplicationPolicy::NONE.validate().is_ok());
    }

    #[test]
    fn full_quorum_is_slower_than_single_copy() {
        let s = stage();
        let mut rng = SimRng::seed_from_u64(1);
        let n = 5000;
        let three: f64 = (0..n)
            .map(|_| write_latency_us(ReplicationPolicy::THREE_WAY, &mut rng, &s))
            .sum();
        let one: f64 = (0..n)
            .map(|_| write_latency_us(ReplicationPolicy::NONE, &mut rng, &s))
            .sum();
        assert!(three > one * 1.15, "3-way {three:.0} vs 1-way {one:.0}");
    }

    #[test]
    fn majority_quorum_beats_full_quorum_and_hedges_the_tail() {
        let s = stage();
        let mut rng = SimRng::seed_from_u64(2);
        let n = 20_000;
        let draws = |p: ReplicationPolicy, rng: &mut SimRng| -> Vec<f64> {
            let mut v: Vec<f64> = (0..n).map(|_| write_latency_us(p, rng, &s)).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        let one = draws(ReplicationPolicy::NONE, &mut rng);
        let maj = draws(ReplicationPolicy::THREE_WAY_MAJORITY, &mut rng);
        let all = draws(ReplicationPolicy::THREE_WAY, &mut rng);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let p99 = |v: &[f64]| v[(v.len() as f64 * 0.99) as usize];
        // Waiting for all three acks is strictly slower than a majority.
        assert!(
            mean(&maj) < mean(&all),
            "{:.0} vs {:.0}",
            mean(&maj),
            mean(&all)
        );
        // The classic "tail at scale" effect: a 2-of-3 quorum needs two
        // slow replicas to be slow, so its p99 undercuts even a single
        // copy's p99.
        assert!(
            p99(&maj) < p99(&one),
            "{:.0} vs {:.0}",
            p99(&maj),
            p99(&one)
        );
    }

    #[test]
    fn replication_amplifies_the_tail() {
        // The paper's motivation for long write tails: p99 grows faster
        // than the mean under full-quorum replication.
        let s = stage();
        let mut rng = SimRng::seed_from_u64(3);
        let n = 20_000;
        let mut one: Vec<f64> = (0..n)
            .map(|_| write_latency_us(ReplicationPolicy::NONE, &mut rng, &s))
            .collect();
        let mut three: Vec<f64> = (0..n)
            .map(|_| write_latency_us(ReplicationPolicy::THREE_WAY, &mut rng, &s))
            .collect();
        one.sort_by(|a, b| a.partial_cmp(b).unwrap());
        three.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99 = |v: &[f64]| v[(v.len() as f64 * 0.99) as usize];
        assert!(
            p99(&three) > p99(&one),
            "replication must lengthen the tail"
        );
    }
}
