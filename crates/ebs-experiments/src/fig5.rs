//! Figure 5 — balanced write but skewed read (§6.2).
//!
//! (a) read-CoV vs write-CoV per storage-cluster sample; (b) histogram of
//! the per-cluster median |wr_ratio| of the top-traffic segments; (c)
//! per-period read/write CoV under Write-Only vs Write-then-Read
//! migration.

use crate::driver::Shared;
use ebs_analysis::aggregate::{rollup_storage, StorageLevel};
use ebs_analysis::table::Table;
use ebs_analysis::{median, normalized_cov, wr_ratio};
use ebs_balance::bs_balancer::BalancerConfig;
use ebs_balance::importer::ImporterSelect;
use ebs_balance::read_write::{run_scheme, MigrationScheme};
use ebs_core::metric::Measure;
use ebs_workload::Dataset;

/// One scatter point of panel (a): a (cluster, time-slice) sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CovPoint {
    /// Normalized CoV of per-BS write traffic.
    pub write_cov: f64,
    /// Normalized CoV of per-BS read traffic.
    pub read_cov: f64,
    /// The slice's total write traffic (the figure's color dimension).
    pub write_traffic: f64,
}

/// The whole figure.
#[derive(Clone, Debug)]
pub struct Fig5 {
    /// Panel (a) scatter points.
    pub a: Vec<CovPoint>,
    /// Fraction of points with read CoV ≥ write CoV.
    pub above_diagonal: f64,
    /// Panel (b): histogram fractions over |wr_ratio| ∈ [0, 1] (10 bins).
    pub b: Vec<f64>,
    /// Fraction of clusters with median |wr_ratio| > 0.9.
    pub b_above_09: f64,
    /// Panel (c): median per-period CoV `(write-only W, write-only R,
    /// write-then-read W, write-then-read R)`.
    pub c: (f64, f64, f64, f64),
}

/// Panel (a): one point per (DC, hour slice) — slicing time multiplies the
/// cluster sample the way the paper's many clusters do.
pub fn panel_a(ds: &Dataset) -> Vec<CovPoint> {
    let fleet = &ds.fleet;
    let ticks = ds.storage.ticks;
    // Slice width: an hour, but at least 8 slices per window so small
    // test scenarios still yield a scatter.
    let slice_secs = (ticks.total_secs() / 8.0).min(3600.0).max(ticks.tick_secs);
    let slice_ticks = ticks.ticks_per_window(slice_secs) as usize;
    let mut points = Vec::new();
    for dc in fleet.dcs.iter() {
        let read = rollup_storage(
            fleet,
            &ds.storage,
            StorageLevel::Bs,
            Measure::ReadBytes,
            None,
            |seg| fleet.dc_of_seg(seg) == dc.id,
        );
        let write = rollup_storage(
            fleet,
            &ds.storage,
            StorageLevel::Bs,
            Measure::WriteBytes,
            None,
            |seg| fleet.dc_of_seg(seg) == dc.id,
        );
        if read.is_empty() || write.is_empty() {
            continue;
        }
        let n_slices = (ticks.ticks as usize).div_ceil(slice_ticks);
        for s in 0..n_slices {
            let span = |series: &[f64]| -> f64 {
                series[s * slice_ticks..((s + 1) * slice_ticks).min(series.len())]
                    .iter()
                    .sum()
            };
            let w: Vec<f64> = write.series.iter().map(|(_, x)| span(x)).collect();
            let r: Vec<f64> = read.series.iter().map(|(_, x)| span(x)).collect();
            if let (Some(wc), Some(rc)) = (normalized_cov(&w), normalized_cov(&r)) {
                points.push(CovPoint {
                    write_cov: wc,
                    read_cov: rc,
                    write_traffic: w.iter().sum(),
                });
            }
        }
    }
    points
}

/// Panel (b): per cluster, the median |wr_ratio| over the segments that
/// cumulatively contribute 80 % of its traffic.
pub fn panel_b(ds: &Dataset) -> Vec<f64> {
    let fleet = &ds.fleet;
    let mut medians = Vec::new();
    for dc in fleet.dcs.iter() {
        // Per-segment totals (read, write).
        let mut segs: Vec<(f64, f64)> = Vec::new();
        for (i, series) in ds.storage.per_seg.iter().enumerate() {
            let seg = ebs_core::ids::SegId::from_index(i);
            if series.is_empty() || fleet.dc_of_seg(seg) != dc.id {
                continue;
            }
            let t = series.total();
            segs.push((t.read.bytes, t.write.bytes));
        }
        // Keep the top contributors to 80 % of traffic.
        segs.sort_by(|a, b| (b.0 + b.1).partial_cmp(&(a.0 + a.1)).expect("no NaNs"));
        let total: f64 = segs.iter().map(|(r, w)| r + w).sum();
        let mut acc = 0.0;
        let mut ratios = Vec::new();
        for (r, w) in &segs {
            if acc > 0.8 * total {
                break;
            }
            acc += r + w;
            if let Some(x) = wr_ratio(*w, *r) {
                ratios.push(x.abs());
            }
        }
        if let Some(m) = median(&ratios) {
            medians.push(m);
        }
    }
    medians
}

/// Run the whole figure.
pub fn run(sh: &Shared) -> Fig5 {
    let ds = sh.ds();
    let a = panel_a(ds);
    let above = if a.is_empty() {
        f64::NAN
    } else {
        a.iter().filter(|p| p.read_cov >= p.write_cov).count() as f64 / a.len() as f64
    };
    let b_medians = panel_b(ds);
    // Ten linear bins over [0, 1.0001), edge-clamped, NaN skipped.
    let mut bins = [0u64; 10];
    for &m in b_medians.iter().filter(|m| !m.is_nan()) {
        if let Some(c) = bins.get_mut(((m / 1.0001 * 10.0) as usize).min(9)) {
            *c += 1;
        }
    }
    let binned: u64 = bins.iter().sum();
    let b_above = if b_medians.is_empty() {
        f64::NAN
    } else {
        b_medians.iter().filter(|&&m| m > 0.9).count() as f64 / b_medians.len() as f64
    };

    // Panel (c): busiest cluster, Ideal importer (the paper's setup).
    let dc = sh.busiest_dc();
    let cfg = BalancerConfig {
        strategy: ImporterSelect::Ideal,
        ..BalancerConfig::default()
    };
    let wo = run_scheme(&ds.fleet, &ds.storage, dc, MigrationScheme::WriteOnly, &cfg);
    let wr = run_scheme(
        &ds.fleet,
        &ds.storage,
        dc,
        MigrationScheme::WriteThenRead,
        &cfg,
    );
    let c = (
        median(&wo.write).unwrap_or(f64::NAN),
        median(&wo.read).unwrap_or(f64::NAN),
        median(&wr.write).unwrap_or(f64::NAN),
        median(&wr.read).unwrap_or(f64::NAN),
    );
    Fig5 {
        a,
        above_diagonal: above,
        b: bins
            .iter()
            .map(|&c| c as f64 / binned.max(1) as f64)
            .collect(),
        b_above_09: b_above,
        c,
    }
}

/// Render all panels.
pub fn render(f: &Fig5) -> String {
    let mut out = String::new();
    let mut a = Table::new(["write CoV", "read CoV", "write traffic"])
        .with_title("Figure 5(a): per-cluster-slice read vs write CoV");
    for p in &f.a {
        a.row([
            format!("{:.3}", p.write_cov),
            format!("{:.3}", p.read_cov),
            ebs_core::units::format_bytes(p.write_traffic),
        ]);
    }
    out.push_str(&a.render());
    out.push_str(&format!(
        "points with read CoV >= write CoV: {:.1}%\n",
        f.above_diagonal * 100.0
    ));

    let mut b = Table::new(["|wr_ratio| bin", "fraction of clusters"])
        .with_title("Figure 5(b): median |wr_ratio| of top-traffic segments");
    for (i, frac) in f.b.iter().enumerate() {
        b.row([
            format!("{:.1}-{:.1}", i as f64 / 10.0, (i + 1) as f64 / 10.0),
            format!("{frac:.2}"),
        ]);
    }
    out.push('\n');
    out.push_str(&b.render());
    out.push_str(&format!(
        "clusters with median |wr_ratio| > 0.9: {:.1}%\n",
        f.b_above_09 * 100.0
    ));

    let mut c = Table::new(["scheme", "median write CoV", "median read CoV"])
        .with_title("Figure 5(c): Write-Only vs Write-then-Read migration");
    c.row([
        "Write-Only".to_string(),
        format!("{:.3}", f.c.0),
        format!("{:.3}", f.c.1),
    ]);
    c.row([
        "Write-then-Read".to_string(),
        format!("{:.3}", f.c.2),
        format!("{:.3}", f.c.3),
    ]);
    out.push('\n');
    out.push_str(&c.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{dataset, Scale};

    #[test]
    fn reads_skew_harder_than_writes_across_clusters() {
        let ds = dataset(Scale::Medium);
        let f = run(&Shared::new(&ds));
        assert!(!f.a.is_empty());
        assert!(
            f.above_diagonal >= 0.5,
            "points above the diagonal: {:.2}",
            f.above_diagonal
        );
        // And the average gap favours reads.
        let mean_gap: f64 =
            f.a.iter().map(|p| p.read_cov - p.write_cov).sum::<f64>() / f.a.len() as f64;
        assert!(mean_gap > 0.0, "mean read-write CoV gap {mean_gap:.3}");
    }

    #[test]
    fn segments_are_single_sided() {
        let ds = dataset(Scale::Medium);
        let f = run(&Shared::new(&ds));
        // The mass of the |wr_ratio| histogram sits in the top bins
        // (|wr_ratio| ≥ 0.7: traffic at least 5.7x one-sided).
        let top: f64 = f.b[7] + f.b[8] + f.b[9];
        assert!(top > 0.5, "top-bin mass {top:.2} (hist {:?})", f.b);
        assert!(f.b_above_09 >= 0.0);
    }

    #[test]
    fn read_pass_does_not_hurt_write_and_keeps_read_in_noise() {
        let ds = dataset(Scale::Medium);
        let f = run(&Shared::new(&ds));
        let (wo_w, wo_r, wr_w, wr_r) = f.c;
        assert!(
            wr_w <= wo_w * 1.05,
            "write CoV must not degrade: {wo_w:.3} → {wr_w:.3}"
        );
        assert!(
            wr_r <= wo_r * 1.08,
            "read CoV outside noise band: {wo_r:.3} → {wr_r:.3}"
        );
    }

    #[test]
    fn render_has_three_panels() {
        let ds = dataset(Scale::Quick);
        let text = render(&run(&Shared::new(&ds)));
        for tag in ["5(a)", "5(b)", "5(c)"] {
            assert!(text.contains(tag));
        }
    }
}
