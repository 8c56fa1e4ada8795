//! Figure 7 — cache across the EBS stack (§7.3).
//!
//! (a) hit ratios of FIFO / LRU / FrozenHot with the cache sized to the
//! hottest block; (b/c) latency gain of CN- vs BS-cache for reads and
//! writes; (d) cache-space utilization (cacheable-VD dispersion per node).

use crate::driver::Shared;
use crate::fig3::Dist;
use ebs_analysis::table::Table;
use ebs_cache::hottest_block::BLOCK_SIZES;
use ebs_cache::location::{hit_oracle, latency_gain, CacheSite, LatencyGain};
use ebs_cache::simulate::{sweep_policies, Algorithm};
use ebs_cache::utilization::{per_bs_counts, per_cn_counts, std_dev, CACHEABLE_THRESHOLD};
use ebs_core::hash::{FxHashMap, FxHashSet};
use ebs_core::ids::VdId;
use ebs_core::io::{IoEvent, Op};
use ebs_core::parallel::par_map_deterministic;
use ebs_core::trace::StageLatency;

/// Panel (a): one row per (algorithm, block size).
#[derive(Clone, Debug)]
pub struct HitRow {
    /// Algorithm.
    pub algo: Algorithm,
    /// Block size (cache size) in bytes.
    pub block_size: u64,
    /// Hit-ratio distribution across VDs.
    pub hit_ratio: Dist,
}

/// Panel (d): per-site dispersion of cacheable-VD counts.
#[derive(Clone, Debug)]
pub struct UtilRow {
    /// Block size.
    pub block_size: u64,
    /// Standard deviation of per-CN cacheable counts.
    pub cn_std: f64,
    /// Standard deviation of per-BS cacheable counts.
    pub bs_std: f64,
    /// Relative dispersion (std / mean) of per-CN counts — the fair
    /// comparison when CN and BS populations differ in size.
    pub cn_rel: f64,
    /// Relative dispersion of per-BS counts.
    pub bs_rel: f64,
    /// Total cacheable VDs.
    pub cacheable: usize,
}

/// The whole figure.
#[derive(Clone, Debug)]
pub struct Fig7 {
    /// Panel (a).
    pub a: Vec<HitRow>,
    /// Panels (b/c): `(site, op, gain)`.
    pub bc: Vec<(CacheSite, Op, LatencyGain)>,
    /// Panel (d).
    pub d: Vec<UtilRow>,
}

/// Panel (a): simulate the three policies per VD per block size, each
/// cache sized to the VD's shared hottest block. The policy × capacity
/// grid runs VDs in parallel over the shared event index — no per-run
/// event clones — and merges ratios in VD order.
pub fn panel_a(sh: &Shared) -> Vec<HitRow> {
    let slices = sh.ds().index().vd_slices();
    let mut rows = Vec::new();
    for &bs in &BLOCK_SIZES {
        let hot = sh.hot_map(bs);
        let per_vd = par_map_deterministic(&slices, |i, evs| {
            let hb = hot.get(&VdId::from_index(i))?;
            Some(
                sweep_policies(hb, evs)
                    .into_iter()
                    .filter_map(|(algo, stats)| stats.ratio().map(|r| (algo, r)))
                    .collect::<Vec<_>>(),
            )
        });
        let mut ratios: FxHashMap<Algorithm, Vec<f64>> = FxHashMap::default();
        for vd_ratios in per_vd.into_iter().flatten() {
            for (algo, r) in vd_ratios {
                ratios.entry(algo).or_default().push(r);
            }
        }
        for algo in Algorithm::ALL {
            rows.push(HitRow {
                algo,
                block_size: bs,
                hit_ratio: Dist::of(ratios.get(&algo).map(Vec::as_slice).unwrap_or(&[])),
            });
        }
    }
    rows
}

/// Panels (b/c): latency gains with frozen caches at the 2 GiB hottest
/// block (the size where FrozenHot matches LRU, per the paper's choice).
pub fn panel_bc(sh: &Shared) -> Vec<(CacheSite, Op, LatencyGain)> {
    let hot = sh.hot_map(2048 << 20);
    // Gains are evaluated over the IOs of *cacheable* VDs — the disks a
    // deployment would actually equip with a cache; mixing in the cold
    // majority would only dilute every site identically.
    let cacheable: FxHashSet<VdId> = hot
        .iter()
        .filter(|(_, hb)| hb.access_rate >= CACHEABLE_THRESHOLD)
        .map(|(&vd, _)| vd)
        .collect();
    let (events, lat): (Vec<IoEvent>, Vec<StageLatency>) = sh
        .ds()
        .events
        .iter()
        .zip(sh.stack_lat())
        .filter(|(ev, _)| cacheable.contains(&ev.vd))
        .unzip();
    let hits = hit_oracle(hot, &events, CACHEABLE_THRESHOLD);
    let mut out = Vec::new();
    for site in CacheSite::ALL {
        for op in Op::ALL {
            if let Some(g) = latency_gain(&events, &lat, &hits, site, op) {
                out.push((site, op, g));
            }
        }
    }
    out
}

/// Panel (d): cacheable-VD dispersion per provisioning unit.
pub fn panel_d(sh: &Shared) -> Vec<UtilRow> {
    let fleet = &sh.ds().fleet;
    BLOCK_SIZES
        .iter()
        .map(|&bs| {
            let hot = sh.hot_map(bs);
            let cn = per_cn_counts(fleet, hot, CACHEABLE_THRESHOLD);
            let bsc = per_bs_counts(fleet, hot, CACHEABLE_THRESHOLD, None);
            let rel = |counts: &[usize]| -> f64 {
                let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
                if mean > 0.0 {
                    std_dev(counts) / mean
                } else {
                    0.0
                }
            };
            UtilRow {
                block_size: bs,
                cn_std: std_dev(&cn),
                bs_std: std_dev(&bsc),
                cn_rel: rel(&cn),
                bs_rel: rel(&bsc),
                cacheable: cn.iter().sum(),
            }
        })
        .collect()
}

/// Run the whole figure over the shared inputs.
pub fn run(sh: &Shared) -> Fig7 {
    Fig7 {
        a: panel_a(sh),
        bc: panel_bc(sh),
        d: panel_d(sh),
    }
}

/// Render all panels.
pub fn render(f: &Fig7) -> String {
    let mut out = String::new();
    let mut a = Table::new(["algorithm", "block size", "hit ratio p25", "p50", "p75"])
        .with_title("Figure 7(a): cache hit ratio (cache sized to hottest block)");
    for r in &f.a {
        a.row([
            r.algo.label().to_string(),
            ebs_core::units::format_bytes(r.block_size as f64),
            format!("{:.3}", r.hit_ratio.p25),
            format!("{:.3}", r.hit_ratio.p50),
            format!("{:.3}", r.hit_ratio.p75),
        ]);
    }
    out.push_str(&a.render());

    let mut bc = Table::new(["site", "op", "gain p0", "gain p50", "gain p99"])
        .with_title("Figure 7(b/c): latency gain (with-cache / without, lower = better)");
    for (site, op, g) in &f.bc {
        bc.row([
            site.label().to_string(),
            op.to_string(),
            format!("{:.3}", g.p0),
            format!("{:.3}", g.p50),
            format!("{:.3}", g.p99),
        ]);
    }
    out.push('\n');
    out.push_str(&bc.render());

    let mut d = Table::new([
        "block size",
        "CN std",
        "BS std",
        "CN std/mean",
        "BS std/mean",
        "cacheable VDs",
    ])
    .with_title("Figure 7(d): cache space utilization (per-node cacheable-VD dispersion)");
    for r in &f.d {
        d.row([
            ebs_core::units::format_bytes(r.block_size as f64),
            format!("{:.2}", r.cn_std),
            format!("{:.2}", r.bs_std),
            format!("{:.2}", r.cn_rel),
            format!("{:.2}", r.bs_rel),
            r.cacheable.to_string(),
        ]);
    }
    out.push('\n');
    out.push_str(&d.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{dataset, Scale};

    fn fig() -> Fig7 {
        run(&Shared::new(&dataset(Scale::Medium)))
    }

    fn p50(f: &Fig7, algo: Algorithm, bs: u64) -> f64 {
        f.a.iter()
            .find(|r| r.algo == algo && r.block_size == bs)
            .map(|r| r.hit_ratio.p50)
            .unwrap()
    }

    #[test]
    fn fifo_and_lru_are_close() {
        let f = fig();
        for &bs in &BLOCK_SIZES {
            let fifo = p50(&f, Algorithm::Fifo, bs);
            let lru = p50(&f, Algorithm::Lru, bs);
            assert!(
                (fifo - lru).abs() < 0.1,
                "at {bs}: FIFO {fifo:.3} vs LRU {lru:.3}"
            );
        }
    }

    #[test]
    fn frozen_catches_up_at_large_blocks() {
        let f = fig();
        let small_gap = p50(&f, Algorithm::Lru, 64 << 20) - p50(&f, Algorithm::Frozen, 64 << 20);
        let large_gap =
            p50(&f, Algorithm::Lru, 2048 << 20) - p50(&f, Algorithm::Frozen, 2048 << 20);
        assert!(
            large_gap < small_gap + 0.02,
            "FrozenHot must close the gap: 64MiB gap {small_gap:.3}, 2GiB gap {large_gap:.3}"
        );
    }

    #[test]
    fn cn_cache_gains_more_than_bs_cache_on_writes() {
        let f = fig();
        let get = |site: CacheSite, op: Op| {
            f.bc.iter()
                .find(|(s, o, _)| *s == site && *o == op)
                .map(|(_, _, g)| *g)
        };
        let cn = get(CacheSite::ComputeNode, Op::Write).unwrap();
        let bs = get(CacheSite::BlockServer, Op::Write).unwrap();
        // §7.3.2: CN-cache beats BS-cache at the 0th and 50th percentile
        // for writes…
        assert!(cn.p0 < bs.p0, "CN p0 {:.3} vs BS p0 {:.3}", cn.p0, bs.p0);
        assert!(
            cn.p50 <= bs.p50 + 1e-9,
            "CN p50 {:.3} vs BS p50 {:.3}",
            cn.p50,
            bs.p50
        );
        // …and neither site fixes the 99th percentile.
        assert!(cn.p99 > 0.8, "p99 gain {:.3} should stay near 1", cn.p99);
        assert!(bs.p99 > 0.8, "p99 gain {:.3} should stay near 1", bs.p99);
    }

    #[test]
    fn bs_cache_disperses_less_than_cn_cache() {
        let f = fig();
        let large = f.d.last().unwrap();
        // CN and BS populations differ in size, so the fair comparison is
        // relative dispersion (std/mean) — the BS side must be tighter.
        assert!(
            large.bs_rel <= large.cn_rel,
            "BS std/mean {:.2} should not exceed CN std/mean {:.2}",
            large.bs_rel,
            large.cn_rel
        );
        assert!(large.cacheable > 0, "no cacheable VDs at 2 GiB");
    }

    #[test]
    fn render_mentions_every_algorithm_and_site() {
        let text = render(&fig());
        for label in ["FIFO", "LRU", "FrozenHot", "CN-cache", "BS-cache"] {
            assert!(text.contains(label), "missing {label}");
        }
    }
}
