//! Congestion-aware fabric model for the frontend and backend networks.
//!
//! The latency stages in [`crate::latency`] capture per-IO transfer cost;
//! this module adds the *shared-link* effect: a compute node's uplink (or a
//! storage node's backend link) under high utilization inflates every IO
//! crossing it. Utilization is tracked as an exponentially-decayed byte
//! rate per link, and the congestion multiplier follows the classic M/M/1
//! `1/(1−ρ)` shape, capped so a transient overshoot cannot produce
//! unbounded latencies.

/// One shared link with EWMA utilization tracking.
#[derive(Clone, Debug)]
pub struct Link {
    capacity_bps: f64,
    /// Decay time constant in microseconds.
    tau_us: f64,
    rate_bps: f64,
    last_us: f64,
}

impl Link {
    /// A link of `capacity_bps` with utilization averaged over `tau_us`.
    pub fn new(capacity_bps: f64, tau_us: f64) -> Self {
        assert!(capacity_bps > 0.0 && tau_us > 0.0);
        Self {
            capacity_bps,
            tau_us,
            rate_bps: 0.0,
            last_us: 0.0,
        }
    }

    /// Record `bytes` crossing the link at `now_us` and return the
    /// congestion multiplier the transfer experiences (≥ 1). Time may not
    /// go backwards.
    pub fn transfer(&mut self, now_us: f64, bytes: f64) -> f64 {
        let now_us = now_us.max(self.last_us);
        let dt = now_us - self.last_us;
        // Exponential decay of the rate estimate.
        let decay = (-dt / self.tau_us).exp();
        self.rate_bps *= decay;
        self.last_us = now_us;
        // The transfer adds its bytes, spread over the time constant.
        self.rate_bps += bytes / (self.tau_us / 1e6);
        let rho = (self.rate_bps / self.capacity_bps).min(0.95);
        1.0 / (1.0 - rho)
    }
}

/// The two fabrics of Figure 1: per-CN frontend uplinks and per-SN backend
/// links.
#[derive(Clone, Debug)]
pub struct FabricModel {
    frontend: Vec<Link>,
    backend: Vec<Link>,
}

impl FabricModel {
    /// A fabric with `cn_count` frontend uplinks and `sn_count` backend
    /// links. Defaults: 25 Gb/s frontend, 100 Gb/s backend (RDMA), 10 ms
    /// utilization window.
    pub fn new(cn_count: usize, sn_count: usize) -> Self {
        Self {
            frontend: (0..cn_count)
                .map(|_| Link::new(25e9 / 8.0, 10_000.0))
                .collect(),
            backend: (0..sn_count)
                .map(|_| Link::new(100e9 / 8.0, 10_000.0))
                .collect(),
        }
    }

    /// Congestion multiplier for a frontend transfer from compute node
    /// `cn_idx`.
    pub fn frontend_transfer(&mut self, cn_idx: usize, now_us: f64, bytes: f64) -> f64 {
        self.frontend[cn_idx].transfer(now_us, bytes)
    }

    /// Congestion multiplier for a backend transfer to storage node
    /// `sn_idx`.
    pub fn backend_transfer(&mut self, sn_idx: usize, now_us: f64, bytes: f64) -> f64 {
        self.backend[sn_idx].transfer(now_us, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_link_has_unit_multiplier() {
        let mut l = Link::new(1e9, 10_000.0);
        let m = l.transfer(0.0, 1500.0);
        assert!((1.0..1.1).contains(&m), "near-idle multiplier {m}");
    }

    #[test]
    fn sustained_load_inflates_latency() {
        let mut l = Link::new(1e6, 10_000.0); // 1 MB/s capacity
        let mut m_last = 1.0;
        // Offer ~5 MB/s for 50 ms.
        for i in 0..500u32 {
            m_last = l.transfer(i as f64 * 100.0, 500.0);
        }
        assert!(m_last > 5.0, "hot link multiplier {m_last}");
    }

    #[test]
    fn multiplier_is_capped() {
        let mut l = Link::new(1.0, 10_000.0); // absurdly small capacity
        let m = l.transfer(0.0, 1e12);
        assert!(m <= 20.0 + 1e-9, "cap broken: {m}"); // 1/(1-0.95) = 20
    }

    #[test]
    fn utilization_decays_when_idle() {
        let mut l = Link::new(1e6, 10_000.0);
        let busy = l.transfer(0.0, 10_000.0); // one time constant's capacity
        assert!(busy > 10.0, "loaded multiplier {busy}");
        let later = l.transfer(100_000.0, 10.0); // 10 time constants later
        assert!(
            (1.0..1.01).contains(&later),
            "decay broken: {busy} → {later}"
        );
    }

    #[test]
    fn links_are_independent() {
        let mut fabric = FabricModel::new(2, 1);
        for i in 0..200u32 {
            fabric.frontend_transfer(0, i as f64 * 50.0, (1u64 << 20) as f64);
        }
        let hot = fabric.frontend_transfer(0, 10_000.0, 4096.0);
        let cold = fabric.frontend_transfer(1, 10_000.0, 4096.0);
        assert!(hot > cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn time_never_goes_backwards_internally() {
        let mut l = Link::new(1e9, 1_000.0);
        l.transfer(1_000.0, 100.0);
        // An out-of-order timestamp is clamped, not panicked on.
        let m = l.transfer(500.0, 100.0);
        assert!(m >= 1.0);
    }
}
