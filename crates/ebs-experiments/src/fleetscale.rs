//! Fleet-scale sharded runs: size a workload config to a target VD count
//! and summarize skewness from a streamed sharded trace.
//!
//! The paper's fleet is ~60k VMs / ~140k VDs — far past what the
//! materialized [`ebs_workload::generate`] path reaches in memory. The
//! sharded pipeline (`ebs_workload::shard`, DESIGN.md §15) removes the
//! cap; this module supplies the two pieces an experiment at that scale
//! still needs: a config scaled to a requested VD count
//! ([`config_for_vds`]), and the paper's headline skewness statistics
//! (CCR, P2A, size quantiles) rendered from the merged
//! [`StreamSummary`] a sharded replay produces ([`skew_report`]) —
//! without ever materializing the trace.

use ebs_store::manifest::ShardManifest;
use ebs_store::StreamSummary;
use ebs_workload::WorkloadConfig;

/// Average VDs mounted per VM under the default application-class
/// profiles (Table 5 weights), used to size the VM population for a VD
/// target. The realized count lands within a few percent; exactness is
/// not required — reports print the realized fleet size.
const VDS_PER_VM: f64 = 2.0;

/// A config whose generated fleet holds approximately `target_vds`
/// virtual disks, over a `duration_secs` observation window.
///
/// Keeps the default three-DC topology and per-DC skew multipliers, and
/// scales the VM / compute-node / storage-node / tenant populations
/// together so hosting-capacity clamps do not silently shrink the fleet.
/// The window defaults short in callers (fleet-scale runs answer
/// population-skew questions, which need entities, not hours).
pub fn config_for_vds(target_vds: u64, seed: u64, duration_secs: f64) -> WorkloadConfig {
    let dc_count = 3u32;
    let per_dc = (target_vds as f64 / (f64::from(dc_count) * VDS_PER_VM)).ceil();
    let vms_per_dc = (per_dc as u32).max(8);
    WorkloadConfig {
        seed,
        dc_count,
        // Non-bare CNs host 2–8 VMs (mean ≈4.5) and 12% are bare-metal
        // single-VM nodes; a quarter of the VM count in CNs keeps the
        // capacity clamp comfortably slack.
        cns_per_dc: vms_per_dc.div_ceil(3).max(4),
        sns_per_dc: (vms_per_dc / 8).max(4),
        bss_per_sn: 1,
        users_per_dc: (vms_per_dc / 2).max(8),
        vms_per_dc,
        duration_secs,
        compute_tick_secs: 10.0,
        storage_tick_secs: 30.0,
        traffic_scale: 1.0,
        dc_skew: vec![1.0, 0.65, 1.15],
        whale_tenant: true,
    }
}

/// Render the paper's skewness statistics from a sharded replay:
/// deterministic text lines (stable across shard counts and thread
/// counts, because the merged summary is).
pub fn skew_report(manifest: &ShardManifest, summary: &StreamSummary) -> Vec<String> {
    let mut out = Vec::new();
    out.push(format!(
        "fleet: {} VDs across {} shard(s); {} sampled events, {} trace bytes",
        manifest.vd_count,
        manifest.shards.len(),
        summary.events(),
        summary.bytes()
    ));
    out.push(format!(
        "ccr: top 1% of VDs carry {} of traffic | top 10% carry {} | top 20% carry {} | top 50% carry {}",
        pct(summary.ccr(0.01)),
        pct(summary.ccr(0.1)),
        pct(summary.ccr(0.2)),
        pct(summary.ccr(0.5)),
    ));
    out.push(format!(
        "p2a: {} over {} ticks of {}s",
        num(summary.p2a()),
        manifest.ticks,
        manifest.tick_secs
    ));
    out.push(format!(
        "sizes: p50 {} | p90 {} | p99 {} bytes; <=4KiB {} | <=64KiB {}",
        num(summary.size_quantile(0.5)),
        num(summary.size_quantile(0.9)),
        num(summary.size_quantile(0.99)),
        pct(summary.size_cdf_at(4096.0)),
        pct(summary.size_cdf_at(65536.0)),
    ));
    out
}

/// Format an optional fraction as a percentage.
fn pct(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), |v| format!("{:.3}%", v * 100.0))
}

/// Format an optional value with stable precision.
fn num(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workload::{build_fleet, generate_sharded, replay_summary};

    #[test]
    fn config_scales_to_the_requested_fleet() {
        for target in [200u64, 2_000] {
            let config = config_for_vds(target, 7, 900.0);
            config.validate().unwrap();
            let fleet = build_fleet(&config).unwrap();
            let got = fleet.vd_count() as f64;
            assert!(
                (got - target as f64).abs() / (target as f64) < 0.35,
                "target {target}, got {got}"
            );
        }
    }

    #[test]
    fn skew_report_is_deterministic_and_complete() {
        let config = config_for_vds(120, 9, 600.0);
        let mut reports = Vec::new();
        for shards in [1usize, 4] {
            let dir = ebs_core::TempDir::new("fleetscale-test").unwrap();
            generate_sharded(&config, &dir, shards, false).unwrap();
            let (manifest, summary) = replay_summary(&dir).unwrap();
            let mut lines = skew_report(&manifest, &summary);
            // The shard count is allowed to differ between runs; mask it.
            lines[0] = lines[0].replace(&format!("{} shard(s)", shards), "N shard(s)");
            reports.push(lines);
        }
        assert_eq!(reports[0], reports[1]);
        assert!(reports[0].iter().all(|l| !l.contains("n/a")), "{reports:?}");
    }
}
