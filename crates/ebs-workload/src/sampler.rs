//! Trace sampling: thinning the full IO population to the 1/3200 DiTing
//! sample, and placing sampled IOs at sub-tick timestamps.
//!
//! Real EBS traffic is bursty well below metric-tick resolution — §4.3 shows
//! bursts shorter than 10 ms defeating QP rebinding. Sampled IOs are
//! therefore clustered around a per-(entity, tick) burst center with an
//! exponential spread of a few tens of milliseconds, with a uniform
//! background component.

use crate::dist::poisson::poisson;
use ebs_core::rng::SimRng;
use ebs_core::units::TRACE_SAMPLE_RATE;

/// Number of sampled traces for a tick carrying `ops` operations, at the
/// DiTing sampling rate.
pub fn sampled_count(rng: &mut SimRng, ops: f64) -> u64 {
    poisson(rng, ops * TRACE_SAMPLE_RATE)
}

/// Sub-tick timestamp generator: one burst center per instance, exponential
/// spread, 30 % uniform background.
#[derive(Clone, Copy, Debug)]
pub struct BurstClock {
    start_us: u64,
    len_us: u64,
    center_us: u64,
    spread_us: f64,
}

impl BurstClock {
    /// A clock for the tick `[start_us, start_us + len_us)`. The burst
    /// center is uniform in the tick; `spread_us` controls how tightly IOs
    /// cluster (the paper's sub-10 ms bursts ⇒ spreads of 5–50 ms).
    pub fn new(rng: &mut SimRng, start_us: u64, len_us: u64, spread_us: f64) -> Self {
        assert!(len_us > 0);
        let center_us = start_us + rng.below(len_us);
        Self {
            start_us,
            len_us,
            center_us,
            spread_us: spread_us.max(1.0),
        }
    }

    /// Draw one timestamp inside the tick.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let end = self.start_us + self.len_us - 1;
        if rng.chance(0.3) {
            // Background: uniform over the tick.
            return self.start_us + rng.below(self.len_us);
        }
        // Two-sided exponential around the burst center.
        let mag = -(1.0 - rng.next_f64()).ln() * self.spread_us;
        let t = if rng.chance(0.5) {
            self.center_us.saturating_add(mag as u64)
        } else {
            self.center_us.saturating_sub(mag as u64)
        };
        t.clamp(self.start_us, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_count_mean_matches_rate() {
        let mut rng = SimRng::seed_from_u64(1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| sampled_count(&mut rng, 32_000.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}"); // 32000/3200 = 10
    }

    #[test]
    fn zero_ops_never_sample() {
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(sampled_count(&mut rng, 0.0), 0);
    }

    #[test]
    fn timestamps_stay_inside_tick() {
        let mut rng = SimRng::seed_from_u64(4);
        let clock = BurstClock::new(&mut rng, 5_000_000, 10_000_000, 20_000.0);
        for _ in 0..5000 {
            let t = clock.sample(&mut rng);
            assert!((5_000_000..15_000_000).contains(&t));
        }
    }

    #[test]
    fn timestamps_cluster_near_center() {
        let mut rng = SimRng::seed_from_u64(5);
        let clock = BurstClock::new(&mut rng, 0, 10_000_000, 10_000.0);
        let n = 10_000;
        let near = (0..n)
            .filter(|_| {
                let t = clock.sample(&mut rng) as i64;
                (t - clock.center_us as i64).abs() < 100_000 // within 100 ms
            })
            .count();
        // 70 % burst mass × nearly-all within 10 spreads ⇒ clearly over half.
        assert!(
            near as f64 / n as f64 > 0.55,
            "near fraction {}",
            near as f64 / n as f64
        );
    }
}
