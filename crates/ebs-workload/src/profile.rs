//! Per-application workload profiles.
//!
//! Table 4 of the paper shows that skewness varies strongly by application
//! class: BigData carries the most traffic but is the least skewed, Docker
//! the most skewed; reads are consistently more skewed and more bursty than
//! writes. Each [`AppProfile`] encodes those shapes for one class: traffic
//! intensity (lognormal across VMs), temporal envelopes (ON/OFF), intra-VM
//! weight skew (VM→VD and VD→QP Zipf exponents), IO-size mixtures, and the
//! LBA hot-spot model of §7.

use crate::dist::onoff::OnOffParams;
use ebs_core::apps::AppClass;
use ebs_core::rng::{SimRng, WeightTable};
use ebs_core::units::{KIB, MIB};

/// IO-size mixture: weights over the fixed size classes
/// 4 KiB / 16 KiB / 64 KiB / 256 KiB / 1 MiB.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SizeMix {
    /// Mixture weights, one per size class (need not be normalized).
    pub weights: [f64; 5],
}

/// The size classes the mixture draws from, in bytes.
pub const SIZE_CLASSES: [u32; 5] = [
    (4 * KIB) as u32,
    (16 * KIB) as u32,
    (64 * KIB) as u32,
    (256 * KIB) as u32,
    MIB as u32,
];

impl SizeMix {
    /// Mean IO size of the mixture in bytes.
    pub fn mean(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights
            .iter()
            .zip(SIZE_CLASSES)
            .map(|(w, s)| w * s as f64)
            .sum::<f64>()
            / total
    }

    /// The mixture prepared for repeated draws.
    pub fn sampler(&self) -> SizeSampler {
        SizeSampler(WeightTable::new(self.weights.to_vec()))
    }
}

/// A [`SizeMix`] prepared for repeated draws: its weight total is summed
/// once, not on every draw.
#[derive(Clone, Debug)]
pub struct SizeSampler(WeightTable);

impl SizeSampler {
    /// Draw one IO size.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        // ebs-lint: allow(D3) -- choose_from index is below weights().len() == SIZE_CLASSES.len()
        SIZE_CLASSES[rng.choose_from(&self.0)]
    }
}

/// LBA hot-spot parameters (§7): a contiguous hot region per VD absorbs a
/// large share of traffic; writes hit it sequentially, reads mostly
/// re-reference it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HotSpotProfile {
    /// Fraction of write bytes landing in the hot region.
    pub hot_frac_write: f64,
    /// Fraction of read bytes landing in the hot region.
    pub hot_frac_read: f64,
    /// Lognormal μ of the hot-region size (bytes).
    pub region_mu: f64,
    /// Lognormal σ of the hot-region size.
    pub region_sigma: f64,
    /// Probability that a hot write *rewrites* a recently written offset
    /// instead of advancing the sequential cursor (journal-style
    /// overwrite churn — the re-reference locality that makes FIFO/LRU
    /// caches effective in Figure 7(a)).
    pub rewrite_frac: f64,
}

/// Complete generative profile for one application class.
#[derive(Clone, Copy, Debug)]
pub struct AppProfile {
    /// The class this profile describes.
    pub app: AppClass,
    /// Share of VMs running this class (population mix).
    pub population_weight: f64,
    /// Mean per-VM write throughput in bytes/second.
    pub write_mean_bps: f64,
    /// Mean per-VM read throughput in bytes/second.
    pub read_mean_bps: f64,
    /// Lognormal σ of per-VM write intensity (spatial write skew).
    pub sigma_write: f64,
    /// Lognormal σ of per-VM read intensity (spatial read skew).
    pub sigma_read: f64,
    /// Temporal envelope of write traffic.
    pub write_onoff: OnOffParams,
    /// Temporal envelope of read traffic.
    pub read_onoff: OnOffParams,
    /// Zipf exponent of VM→VD *read* traffic weights. Reads concentrate
    /// on very few disks (§4.2's ≈0.97 median CoV; §3.2's read skew).
    pub vd_zipf_read: f64,
    /// Zipf exponent of VM→VD *write* traffic weights.
    pub vd_zipf_write: f64,
    /// Zipf exponent of VD→QP write weights (writes concentrate hard).
    pub qp_zipf_write: f64,
    /// Zipf exponent of VD→QP read weights (reads spread a bit more).
    pub qp_zipf_read: f64,
    /// Write IO-size mixture.
    pub write_sizes: SizeMix,
    /// Read IO-size mixture.
    pub read_sizes: SizeMix,
    /// LBA hot-spot model.
    pub hot: HotSpotProfile,
    /// Weights over mounting 1..=6 VDs per VM.
    pub vd_count_weights: [f64; 6],
    /// Weights over VD tiers `[Standard, Performance, Premium]`.
    pub tier_weights: [f64; 3],
    /// Lognormal μ of VD capacity in GiB.
    pub capacity_mu_gib: f64,
    /// Lognormal σ of VD capacity.
    pub capacity_sigma: f64,
}

impl AppProfile {
    /// The profile for an application class.
    pub fn for_app(app: AppClass) -> AppProfile {
        match app {
            AppClass::BigData => AppProfile {
                app,
                population_weight: 0.18,
                write_mean_bps: 30.0e6,
                read_mean_bps: 8.4e6,
                sigma_write: 1.0,
                sigma_read: 1.2,
                write_onoff: OnOffParams {
                    duty: 0.7,
                    max_on: 300.0,
                    on_alpha: 0.9,
                    max_amp: 6.0,
                    amp_alpha: 2.0,
                },
                read_onoff: OnOffParams {
                    duty: 0.15,
                    max_on: 100.0,
                    on_alpha: 1.0,
                    max_amp: 60.0,
                    amp_alpha: 1.3,
                },
                vd_zipf_read: 2.6,
                vd_zipf_write: 2.0,
                qp_zipf_write: 2.2,
                qp_zipf_read: 0.7,
                write_sizes: SizeMix {
                    weights: [0.05, 0.10, 0.20, 0.30, 0.35],
                },
                read_sizes: SizeMix {
                    weights: [0.05, 0.10, 0.20, 0.30, 0.35],
                },
                hot: HotSpotProfile {
                    hot_frac_write: 0.45,
                    hot_frac_read: 0.25,
                    region_mu: (512.0 * MIB as f64).ln(),
                    region_sigma: 0.8,
                    rewrite_frac: 0.50,
                },
                vd_count_weights: [0.25, 0.25, 0.2, 0.15, 0.1, 0.05],
                tier_weights: [0.2, 0.5, 0.3],
                capacity_mu_gib: 5.3, // median ≈ 200 GiB
                capacity_sigma: 0.9,
            },
            AppClass::WebApp => AppProfile {
                app,
                population_weight: 0.25,
                write_mean_bps: 4.0e6,
                read_mean_bps: 0.21e6,
                sigma_write: 1.6,
                sigma_read: 2.2,
                write_onoff: OnOffParams {
                    duty: 0.5,
                    max_on: 200.0,
                    on_alpha: 1.0,
                    max_amp: 20.0,
                    amp_alpha: 1.6,
                },
                read_onoff: OnOffParams {
                    duty: 0.04,
                    max_on: 30.0,
                    on_alpha: 1.2,
                    max_amp: 300.0,
                    amp_alpha: 1.0,
                },
                vd_zipf_read: 3.6,
                vd_zipf_write: 2.6,
                qp_zipf_write: 2.8,
                qp_zipf_read: 0.9,
                write_sizes: SizeMix {
                    weights: [0.60, 0.20, 0.15, 0.05, 0.0],
                },
                read_sizes: SizeMix {
                    weights: [0.55, 0.25, 0.15, 0.05, 0.0],
                },
                hot: HotSpotProfile {
                    hot_frac_write: 0.65,
                    hot_frac_read: 0.35,
                    region_mu: (160.0 * MIB as f64).ln(),
                    region_sigma: 1.0,
                    rewrite_frac: 0.55,
                },
                vd_count_weights: [0.6, 0.25, 0.1, 0.05, 0.0, 0.0],
                tier_weights: [0.7, 0.25, 0.05],
                capacity_mu_gib: 4.0, // median ≈ 55 GiB
                capacity_sigma: 0.8,
            },
            AppClass::Middleware => AppProfile {
                app,
                population_weight: 0.18,
                write_mean_bps: 15.0e6,
                read_mean_bps: 3.8e6,
                sigma_write: 1.8,
                sigma_read: 2.3,
                write_onoff: OnOffParams {
                    duty: 0.6,
                    max_on: 250.0,
                    on_alpha: 0.9,
                    max_amp: 12.0,
                    amp_alpha: 1.8,
                },
                read_onoff: OnOffParams {
                    duty: 0.06,
                    max_on: 50.0,
                    on_alpha: 1.1,
                    max_amp: 250.0,
                    amp_alpha: 1.0,
                },
                vd_zipf_read: 3.2,
                vd_zipf_write: 2.4,
                qp_zipf_write: 2.5,
                qp_zipf_read: 0.8,
                write_sizes: SizeMix {
                    weights: [0.20, 0.20, 0.30, 0.20, 0.10],
                },
                read_sizes: SizeMix {
                    weights: [0.30, 0.25, 0.25, 0.15, 0.05],
                },
                hot: HotSpotProfile {
                    hot_frac_write: 0.70,
                    hot_frac_read: 0.30,
                    region_mu: (256.0 * MIB as f64).ln(),
                    region_sigma: 0.9,
                    rewrite_frac: 0.60,
                },
                vd_count_weights: [0.4, 0.3, 0.15, 0.1, 0.05, 0.0],
                tier_weights: [0.35, 0.45, 0.2],
                capacity_mu_gib: 4.6, // median ≈ 100 GiB
                capacity_sigma: 0.9,
            },
            AppClass::FileSystem => AppProfile {
                app,
                population_weight: 0.04,
                write_mean_bps: 1.5e6,
                read_mean_bps: 1.7e6,
                sigma_write: 2.8,
                sigma_read: 2.4,
                write_onoff: OnOffParams {
                    duty: 0.08,
                    max_on: 60.0,
                    on_alpha: 1.0,
                    max_amp: 150.0,
                    amp_alpha: 1.1,
                },
                read_onoff: OnOffParams {
                    duty: 0.05,
                    max_on: 40.0,
                    on_alpha: 1.1,
                    max_amp: 200.0,
                    amp_alpha: 1.0,
                },
                vd_zipf_read: 2.8,
                vd_zipf_write: 2.6,
                qp_zipf_write: 2.0,
                qp_zipf_read: 0.8,
                write_sizes: SizeMix {
                    weights: [0.05, 0.10, 0.25, 0.30, 0.30],
                },
                read_sizes: SizeMix {
                    weights: [0.05, 0.10, 0.25, 0.30, 0.30],
                },
                hot: HotSpotProfile {
                    hot_frac_write: 0.50,
                    hot_frac_read: 0.30,
                    region_mu: (768.0 * MIB as f64).ln(),
                    region_sigma: 1.0,
                    rewrite_frac: 0.45,
                },
                vd_count_weights: [0.45, 0.3, 0.15, 0.1, 0.0, 0.0],
                tier_weights: [0.5, 0.4, 0.1],
                capacity_mu_gib: 5.8, // median ≈ 330 GiB
                capacity_sigma: 1.0,
            },
            AppClass::Database => AppProfile {
                app,
                population_weight: 0.20,
                write_mean_bps: 11.0e6,
                read_mean_bps: 4.7e6,
                sigma_write: 2.0,
                sigma_read: 2.4,
                write_onoff: OnOffParams {
                    duty: 0.8,
                    max_on: 400.0,
                    on_alpha: 0.8,
                    max_amp: 8.0,
                    amp_alpha: 2.0,
                },
                read_onoff: OnOffParams {
                    duty: 0.08,
                    max_on: 40.0,
                    on_alpha: 1.2,
                    max_amp: 350.0,
                    amp_alpha: 0.95,
                },
                vd_zipf_read: 3.8,
                vd_zipf_write: 2.8,
                qp_zipf_write: 3.0,
                qp_zipf_read: 0.9,
                write_sizes: SizeMix {
                    weights: [0.50, 0.30, 0.15, 0.05, 0.0],
                },
                read_sizes: SizeMix {
                    weights: [0.45, 0.30, 0.20, 0.05, 0.0],
                },
                hot: HotSpotProfile {
                    hot_frac_write: 0.75,
                    hot_frac_read: 0.40,
                    region_mu: (224.0 * MIB as f64).ln(),
                    region_sigma: 0.9,
                    rewrite_frac: 0.65,
                },
                vd_count_weights: [0.3, 0.35, 0.2, 0.1, 0.04, 0.01],
                tier_weights: [0.2, 0.45, 0.35],
                capacity_mu_gib: 5.0, // median ≈ 150 GiB
                capacity_sigma: 0.9,
            },
            AppClass::Docker => AppProfile {
                app,
                population_weight: 0.15,
                write_mean_bps: 14.0e6,
                read_mean_bps: 5.2e6,
                sigma_write: 2.2,
                sigma_read: 2.8,
                write_onoff: OnOffParams {
                    duty: 0.35,
                    max_on: 150.0,
                    on_alpha: 1.0,
                    max_amp: 30.0,
                    amp_alpha: 1.4,
                },
                read_onoff: OnOffParams {
                    duty: 0.03,
                    max_on: 25.0,
                    on_alpha: 1.2,
                    max_amp: 500.0,
                    amp_alpha: 0.9,
                },
                vd_zipf_read: 4.0,
                vd_zipf_write: 3.0,
                qp_zipf_write: 3.0,
                qp_zipf_read: 1.0,
                write_sizes: SizeMix {
                    weights: [0.35, 0.25, 0.25, 0.10, 0.05],
                },
                read_sizes: SizeMix {
                    weights: [0.30, 0.25, 0.25, 0.15, 0.05],
                },
                hot: HotSpotProfile {
                    hot_frac_write: 0.70,
                    hot_frac_read: 0.45,
                    region_mu: (160.0 * MIB as f64).ln(),
                    region_sigma: 1.1,
                    rewrite_frac: 0.60,
                },
                vd_count_weights: [0.35, 0.3, 0.2, 0.1, 0.04, 0.01],
                tier_weights: [0.3, 0.45, 0.25],
                capacity_mu_gib: 4.4, // median ≈ 80 GiB
                capacity_sigma: 0.9,
            },
        }
    }

    /// All six profiles in Table 4 row order.
    pub fn all() -> Vec<AppProfile> {
        AppClass::ALL
            .iter()
            .map(|&a| AppProfile::for_app(a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_weights_roughly_normalize() {
        let total: f64 = AppProfile::all().iter().map(|p| p.population_weight).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "population weights sum to {total}"
        );
    }

    #[test]
    fn reads_are_more_skewed_and_burstier_than_writes() {
        for p in AppProfile::all() {
            assert!(
                p.sigma_read >= p.sigma_write || p.app == AppClass::FileSystem,
                "{}: read σ should dominate (except FS, Table 4)",
                p.app
            );
            assert!(
                p.read_onoff.duty <= p.write_onoff.duty,
                "{}: read duty",
                p.app
            );
            assert!(
                p.read_onoff.max_amp >= p.write_onoff.max_amp,
                "{}: read amp",
                p.app
            );
        }
    }

    #[test]
    fn bigdata_hottest_docker_most_skewed() {
        let bd = AppProfile::for_app(AppClass::BigData);
        let dk = AppProfile::for_app(AppClass::Docker);
        // BigData: largest mean traffic (share leader), smallest σ.
        for p in AppProfile::all() {
            assert!(bd.write_mean_bps >= p.write_mean_bps);
            assert!(bd.sigma_read <= p.sigma_read);
        }
        // Docker: largest read σ (most skewed reads in Table 4).
        for p in AppProfile::all() {
            assert!(dk.sigma_read >= p.sigma_read);
        }
    }

    #[test]
    fn writes_concentrate_on_fewer_qps_than_reads() {
        for p in AppProfile::all() {
            assert!(p.qp_zipf_write > p.qp_zipf_read, "{}", p.app);
        }
    }

    #[test]
    fn size_mix_mean_and_samples() {
        let mut rng = SimRng::seed_from_u64(1);
        for p in AppProfile::all() {
            let m = p.write_sizes.mean();
            assert!(m >= 4096.0 && m <= MIB as f64);
            let sizes = p.read_sizes.sampler();
            for _ in 0..100 {
                let s = sizes.sample(&mut rng);
                assert!(SIZE_CLASSES.contains(&s));
            }
        }
    }

    #[test]
    fn hot_fractions_are_probabilities() {
        for p in AppProfile::all() {
            assert!((0.0..=1.0).contains(&p.hot.hot_frac_write));
            assert!((0.0..=1.0).contains(&p.hot.hot_frac_read));
            assert!(p.hot.hot_frac_write > p.hot.hot_frac_read, "{}", p.app);
        }
    }
}
