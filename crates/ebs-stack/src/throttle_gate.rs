//! Per-VD token-bucket throttle (§5).
//!
//! The hypervisor caps each VD's throughput *and* IOPS; whichever bucket
//! empties first delays the IO. The gate is a classic dual token bucket:
//! tokens refill continuously at the cap rate up to one second of burst
//! allowance, and an IO that finds the bucket short waits until enough
//! tokens accrue.

use ebs_core::spec::VdSpec;

/// One token bucket refilling at `rate` per second with `burst` capacity.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_us: f64,
}

impl TokenBucket {
    /// A bucket refilling at `rate` units/second holding at most `burst`
    /// units (commonly one second of rate).
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0 && burst > 0.0);
        Self {
            rate,
            burst,
            tokens: burst,
            last_us: 0.0,
        }
    }

    /// Admit a demand of `amount` units arriving at `now_us`. Returns the
    /// delay in microseconds before the IO may proceed (0 when tokens are
    /// available). Arrivals earlier than the bucket's clock (IOs queued
    /// behind a previously delayed one) are FIFO-queued: they are treated
    /// as arriving when the bucket frees up, and their reported delay
    /// includes that queueing time.
    pub fn admit(&mut self, now_us: f64, amount: f64) -> f64 {
        let queued_us = (self.last_us - now_us).max(0.0);
        let now_us = now_us.max(self.last_us);
        let dt = (now_us - self.last_us) / 1e6;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        self.last_us = now_us;
        if self.tokens >= amount {
            self.tokens -= amount;
            queued_us
        } else {
            let deficit = amount - self.tokens;
            self.tokens = 0.0;
            // The IO waits for the deficit to refill.
            let wait_us = deficit / self.rate * 1e6;
            self.last_us = now_us + wait_us;
            queued_us + wait_us
        }
    }

    /// Change the refill rate and burst allowance in place, keeping the
    /// bucket's clock and clamping banked tokens to the new burst. This is
    /// how online cap changes (lending grants/reclaims) take effect
    /// without refunding a full burst: a gate that was drained stays
    /// drained. Non-positive targets are ignored — a bucket never stalls.
    pub fn retarget(&mut self, rate: f64, burst: f64) {
        if rate > 0.0 && burst > 0.0 {
            self.rate = rate;
            self.burst = burst;
            self.tokens = self.tokens.min(burst);
        }
    }
}

/// The dual throughput + IOPS gate of one VD.
#[derive(Clone, Debug)]
pub struct VdGate {
    bytes: TokenBucket,
    ops: TokenBucket,
}

impl VdGate {
    /// A gate enforcing the caps of `spec` with one second of burst.
    pub fn for_spec(spec: &VdSpec) -> Self {
        Self {
            bytes: TokenBucket::new(spec.tput_cap, spec.tput_cap),
            ops: TokenBucket::new(spec.iops_cap, spec.iops_cap),
        }
    }

    /// Admit one IO of `size` bytes at `now_us`; returns the throttle delay
    /// in microseconds (the max of the two buckets' delays — both must
    /// clear).
    pub fn admit(&mut self, now_us: f64, size: u32) -> f64 {
        let d1 = self.bytes.admit(now_us, size as f64);
        let d2 = self.ops.admit(now_us, 1.0);
        d1.max(d2)
    }

    /// Re-aim both buckets at the caps of `spec` (with one second of
    /// burst), preserving clock and banked tokens (clamped).
    /// See [`TokenBucket::retarget`].
    pub fn retarget(&mut self, spec: &VdSpec) {
        self.bytes.retarget(spec.tput_cap, spec.tput_cap);
        self.ops.retarget(spec.iops_cap, spec.iops_cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::spec::VdTier;
    use ebs_core::units::GIB;

    #[test]
    fn under_rate_traffic_is_never_delayed() {
        let mut b = TokenBucket::new(1000.0, 1000.0);
        let mut t = 0.0;
        for _ in 0..100 {
            assert_eq!(b.admit(t, 5.0), 0.0);
            t += 10_000.0; // 10 ms apart → 500/s demand vs 1000/s rate
        }
    }

    #[test]
    fn burst_beyond_bucket_delays() {
        let mut b = TokenBucket::new(1000.0, 1000.0);
        // Drain the whole burst instantly…
        assert_eq!(b.admit(0.0, 1000.0), 0.0);
        // …then the next unit must wait 1/1000 s = 1000 µs.
        let d = b.admit(0.0, 1.0);
        assert!((d - 1000.0).abs() < 1e-6, "delay {d}");
    }

    #[test]
    fn tokens_refill_up_to_burst() {
        let mut b = TokenBucket::new(100.0, 50.0);
        b.admit(0.0, 50.0);
        // After 10 s, refilled but capped at burst: 50 pass, the next
        // unit waits 1/100 s.
        assert_eq!(b.admit(10_000_000.0, 50.0), 0.0);
        assert!((b.admit(10_000_000.0, 1.0) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn long_run_throughput_matches_rate() {
        let mut b = TokenBucket::new(1_000_000.0, 1_000_000.0);
        let mut t = 0.0;
        let mut admitted = 0.0;
        // Offer far more than the rate for 10 simulated seconds.
        while t < 10_000_000.0 {
            let d = b.admit(t, 10_000.0);
            admitted += 10_000.0;
            t += d.max(1.0);
        }
        let rate = admitted / (t / 1e6);
        assert!(
            (rate - 1_000_000.0).abs() / 1_000_000.0 < 0.15,
            "rate {rate}"
        );
    }

    #[test]
    fn gate_throttles_on_either_dimension() {
        let spec = VdTier::Standard.spec(100 * GIB);
        let mut gate = VdGate::for_spec(&spec);
        // Tiny IOs in a tight loop: IOPS bucket trips first.
        let (mut delayed, mut total) = (0, 0);
        let mut t = 0.0;
        for _ in 0..(spec.iops_cap as usize * 2) {
            let d = gate.admit(t, 512);
            delayed += usize::from(d > 0.0);
            total += 1;
            t += d;
        }
        assert!(delayed > 0, "IOPS cap never engaged");
        assert!(total > delayed);
    }
}
