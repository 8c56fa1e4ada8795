//! Workload-generator configuration.
//!
//! The paper's fleet (60k VMs, 140k VDs, 12 h at 1 s granularity) does not
//! fit a laptop-scale reproduction, so the generator is parameterized: the
//! default config keeps the 12-hour window but uses a few hundred VMs per
//! data center at 10 s compute-metric / 30 s storage-metric granularity —
//! enough entities and ticks for every skewness statistic to have the
//! paper's shape. [`WorkloadConfig::quick`] is a miniature for tests.

use ebs_core::error::EbsError;
use ebs_core::time::{TickSpec, MAX_TICKS, OBSERVATION_SECS};

/// The master seed of the canonical dataset, shared by the experiment
/// binaries and `serve`.
pub const EXPERIMENT_SEED: u64 = 0xEB5_2025;

/// Scenario scale: the three fleet sizes every binary offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny single-DC fleet over 30 minutes; used by tests and `--quick`.
    Quick,
    /// Two DCs over two hours; integration-test scale.
    Medium,
    /// The default three-DC, 12-hour scenario of DESIGN.md.
    Full,
}

impl Scale {
    /// The workload configuration for this scale.
    pub fn config(self, seed: u64) -> WorkloadConfig {
        match self {
            Scale::Quick => WorkloadConfig::quick(seed),
            Scale::Medium => WorkloadConfig::medium(seed),
            Scale::Full => WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            },
        }
    }
}

/// Configuration of one synthetic-dataset generation run.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Master seed; everything else is derived deterministically.
    pub seed: u64,
    /// Number of data centers ("DC-1" … ).
    pub dc_count: u32,
    /// Compute nodes per DC.
    pub cns_per_dc: u32,
    /// Storage nodes per DC.
    pub sns_per_dc: u32,
    /// BlockServer processes per storage node.
    pub bss_per_sn: u32,
    /// Tenants per DC (tenants are global; this scales the pool).
    pub users_per_dc: u32,
    /// Target VMs per DC (clamped to the hosting capacity of the nodes).
    pub vms_per_dc: u32,
    /// Observation-window length in seconds (paper: 12 h).
    pub duration_secs: f64,
    /// Compute-domain metric tick width in seconds.
    pub compute_tick_secs: f64,
    /// Storage-domain metric tick width in seconds (the balancer operates
    /// on 30 s periods, so this defaults to 30).
    pub storage_tick_secs: f64,
    /// Global multiplier on traffic intensities.
    pub traffic_scale: f64,
    /// Per-DC skewness multiplier applied to the lognormal σ of VM
    /// intensities; the paper's DC-2 is visibly less skewed than DC-1/DC-3.
    pub dc_skew: Vec<f64>,
    /// Give tenant 0 a "whale" VM mounting many VDs (the 32-VD VM of
    /// Figure 3(a)).
    pub whale_tenant: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            seed: 0xEB5_5EED,
            dc_count: 3,
            cns_per_dc: 48,
            sns_per_dc: 20,
            bss_per_sn: 1,
            users_per_dc: 110,
            vms_per_dc: 170,
            duration_secs: OBSERVATION_SECS,
            compute_tick_secs: 10.0,
            storage_tick_secs: 30.0,
            traffic_scale: 1.0,
            dc_skew: vec![1.0, 0.65, 1.15],
            whale_tenant: true,
        }
    }
}

impl WorkloadConfig {
    /// A miniature config for unit/integration tests: one DC, a couple of
    /// minutes, a handful of nodes.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            dc_count: 1,
            cns_per_dc: 8,
            sns_per_dc: 4,
            bss_per_sn: 1,
            users_per_dc: 12,
            vms_per_dc: 24,
            duration_secs: 1800.0,
            compute_tick_secs: 5.0,
            storage_tick_secs: 15.0,
            traffic_scale: 1.0,
            dc_skew: vec![1.0],
            whale_tenant: true,
        }
    }

    /// A mid-size config for integration tests that need real statistics
    /// without the full default cost.
    pub fn medium(seed: u64) -> Self {
        Self {
            seed,
            dc_count: 2,
            cns_per_dc: 20,
            sns_per_dc: 8,
            bss_per_sn: 1,
            users_per_dc: 40,
            vms_per_dc: 60,
            duration_secs: 2.0 * 3600.0,
            compute_tick_secs: 10.0,
            storage_tick_secs: 30.0,
            traffic_scale: 1.0,
            dc_skew: vec![1.0, 0.7],
            whale_tenant: true,
        }
    }

    /// Compute-domain tick grid.
    pub fn compute_ticks(&self) -> TickSpec {
        TickSpec::covering(self.duration_secs, self.compute_tick_secs)
    }

    /// Storage-domain tick grid.
    pub fn storage_ticks(&self) -> TickSpec {
        TickSpec::covering(self.duration_secs, self.storage_tick_secs)
    }

    /// Validate ranges and cross-field consistency.
    pub fn validate(&self) -> Result<(), EbsError> {
        if self.dc_count == 0 || self.cns_per_dc == 0 || self.sns_per_dc == 0 {
            return Err(EbsError::invalid_config("need at least one DC, CN, and SN"));
        }
        if self.bss_per_sn == 0 {
            return Err(EbsError::invalid_config("need at least one BS per SN"));
        }
        if self.users_per_dc == 0 || self.vms_per_dc == 0 {
            return Err(EbsError::invalid_config("need users and VMs"));
        }
        // Each check is written so that NaN fails it.
        if !(self.duration_secs > 0.0 && self.duration_secs.is_finite()) {
            return Err(EbsError::invalid_config(
                "duration must be positive and finite",
            ));
        }
        // A NaN tick width would panic in `TickSpec::new`.
        if !(self.compute_tick_secs > 0.0 && self.storage_tick_secs > 0.0) {
            return Err(EbsError::invalid_config("tick widths must be positive"));
        }
        for (domain, grid) in [
            ("compute", self.compute_ticks()),
            ("storage", self.storage_ticks()),
        ] {
            if grid.ticks > MAX_TICKS {
                return Err(EbsError::invalid_config(format!(
                    "{domain} grid has {} ticks, more than the {MAX_TICKS} a series addresses",
                    grid.ticks
                )));
            }
        }
        if !(self.traffic_scale > 0.0 && self.traffic_scale.is_finite()) {
            return Err(EbsError::invalid_config(
                "traffic scale must be positive and finite",
            ));
        }
        if self.dc_skew.len() < self.dc_count as usize {
            return Err(EbsError::invalid_config(format!(
                "dc_skew has {} entries for {} DCs",
                self.dc_skew.len(),
                self.dc_count
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        for s in [Scale::Quick, Scale::Medium, Scale::Full] {
            s.config(1).validate().unwrap();
        }
    }

    #[test]
    fn tick_grids_cover_window() {
        let c = WorkloadConfig::default();
        assert_eq!(c.compute_ticks().ticks, 4320);
        assert_eq!(c.storage_ticks().ticks, 1440);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = WorkloadConfig::quick(1);
        c.dc_count = 0;
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::quick(1);
        c.duration_secs = -1.0;
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::quick(1);
        c.dc_count = 2; // dc_skew only has one entry
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::quick(1);
        c.traffic_scale = 0.0;
        assert!(c.validate().is_err());

        let mut c = WorkloadConfig::quick(1);
        c.storage_tick_secs = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn grids_past_the_series_tick_range_are_rejected() {
        let mut c = WorkloadConfig::quick(1);
        c.compute_tick_secs = c.duration_secs / f64::from(MAX_TICKS);
        assert_eq!(c.compute_ticks().ticks, MAX_TICKS);
        c.validate().unwrap();
        c.storage_tick_secs = c.duration_secs / f64::from(MAX_TICKS + 1);
        assert!(matches!(c.validate(), Err(EbsError::InvalidConfig(_))));
    }
}
