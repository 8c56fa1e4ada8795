//! Figure 2 — load balancing in the hypervisor (§4).
//!
//! (a) WT-CoV at several time scales; (b) the "VM-VD-QP" CoV breakdown;
//! (c) CDF of the hottest QP's traffic share; (d) the rebinding
//! ratio-vs-gain scatter; (e/f) hottest-WT time series of a bursty versus a
//! smooth node.

use crate::driver::Shared;
use ebs_analysis::aggregate::{rollup_compute, ComputeLevel};
use ebs_analysis::table::Table;
use ebs_analysis::{median, normalized_cov, p2a, Cdf};
use ebs_balance::wt_rebind::{hottest_wt_series, simulate_fleet, RebindConfig, RebindOutcome};
use ebs_core::ids::CnId;
use ebs_core::io::Op;
use ebs_core::metric::Measure;
use ebs_workload::Dataset;

/// Panel (a): median WT-CoV per time scale, read and write.
#[derive(Clone, Debug)]
pub struct PanelA {
    /// `(scale_minutes, median read CoV, median write CoV)`.
    pub rows: Vec<(u32, f64, f64)>,
}

/// Panel (b): medians of the three-tier CoV breakdown, read and write.
#[derive(Clone, Copy, Debug)]
pub struct PanelB {
    /// CoV of QP traffic within the hottest VM `(read, write)`.
    pub vm2qp: (f64, f64),
    /// CoV of VD traffic within the hottest VM.
    pub vm2vd: (f64, f64),
    /// CoV of QP traffic within multi-QP VDs.
    pub vd2qp: (f64, f64),
}

/// Panel (c): hottest-QP share distribution.
#[derive(Clone, Debug)]
pub struct PanelC {
    /// Median hottest-QP share `(read, write)`.
    pub median_share: (f64, f64),
    /// Fraction of nodes whose hottest QP exceeds 80 % `(read, write)`.
    pub frac_above_80: (f64, f64),
}

/// Panels (d–f): rebinding simulation.
#[derive(Clone, Debug)]
pub struct PanelDef {
    /// Per-node outcomes (the scatter of (d)).
    pub outcomes: Vec<RebindOutcome>,
    /// Fraction of nodes with gain < 1 (rebinding helped).
    pub improved_frac: f64,
    /// P2A of the bursty exemplar's hottest-WT 10 ms series (node-b).
    pub bursty_p2a: f64,
    /// P2A of the smooth exemplar (node-r).
    pub smooth_p2a: f64,
    /// Gains of the two exemplars `(bursty, smooth)`.
    pub exemplar_gains: (f64, f64),
}

/// The whole figure.
#[derive(Clone, Debug)]
pub struct Fig2 {
    /// Panel (a).
    pub a: PanelA,
    /// Panel (b).
    pub b: PanelB,
    /// Panel (c).
    pub c: PanelC,
    /// Panels (d–f).
    pub def: PanelDef,
}

fn per_cn_wt_series(ds: &Dataset, op: Op) -> Vec<(CnId, Vec<Vec<f64>>)> {
    let fleet = &ds.fleet;
    let roll = rollup_compute(
        fleet,
        &ds.compute,
        ComputeLevel::Wt,
        Measure::bytes(op),
        |_| true,
    );
    let mut by_cn: std::collections::BTreeMap<CnId, Vec<Vec<f64>>> =
        std::collections::BTreeMap::new();
    for (wt_idx, series) in &roll.series {
        let cn = fleet.cn_of_wt(ebs_core::ids::WtId(*wt_idx as u32));
        by_cn.entry(cn).or_default().push(series.clone());
    }
    // Pad with idle WTs so CoV accounts for them.
    let ticks = ds.compute.ticks.ticks as usize;
    for (cn, list) in by_cn.iter_mut() {
        let want = fleet.compute_nodes[*cn].wt_count as usize;
        while list.len() < want {
            list.push(vec![0.0; ticks]);
        }
    }
    by_cn.into_iter().collect()
}

/// Panel (a): WT-CoV per node per window, at 1/30/60-minute scales.
pub fn panel_a(ds: &Dataset) -> PanelA {
    let tick_secs = ds.compute.ticks.tick_secs;
    let scales: Vec<u32> = [1u32, 30, 60]
        .into_iter()
        .filter(|&m| (m as f64 * 60.0) >= tick_secs)
        .collect();
    let mut rows = Vec::new();
    for scale in scales {
        let win = ((scale as f64 * 60.0) / tick_secs).round().max(1.0) as usize;
        let mut med = [0.0; 2];
        for (k, op) in Op::ALL.iter().enumerate() {
            let mut covs = Vec::new();
            for (_, wt_series) in per_cn_wt_series(ds, *op) {
                if wt_series.len() < 2 {
                    continue;
                }
                let windows = wt_series[0].len().div_ceil(win);
                for w in 0..windows {
                    let sums: Vec<f64> = wt_series
                        .iter()
                        .map(|s| s[w * win..((w + 1) * win).min(s.len())].iter().sum::<f64>())
                        .collect();
                    if let Some(c) = normalized_cov(&sums) {
                        covs.push(c);
                    }
                }
            }
            med[k] = median(&covs).unwrap_or(f64::NAN);
        }
        rows.push((scale, med[0], med[1]));
    }
    PanelA { rows }
}

/// Panel (b): the VM-VD-QP breakdown over per-entity window totals.
pub fn panel_b(ds: &Dataset) -> PanelB {
    let fleet = &ds.fleet;
    let mut results = [[f64::NAN; 2]; 3]; // [vm2qp, vm2vd, vd2qp][read, write]
    for (k, op) in Op::ALL.iter().enumerate() {
        let measure = Measure::bytes(*op);
        let qp_roll = rollup_compute(fleet, &ds.compute, ComputeLevel::Qp, measure, |_| true);
        let qp_total = |qp: ebs_core::ids::QpId| -> f64 {
            qp_roll
                .get(qp.index())
                .map(|s| s.iter().sum())
                .unwrap_or(0.0)
        };
        let mut vm2qp = Vec::new();
        let mut vm2vd = Vec::new();
        let mut vd2qp = Vec::new();
        for cn in fleet.compute_nodes.iter() {
            // Hottest VM of the node for this op.
            let hottest = fleet
                .vms_of_cn(cn.id)
                .iter()
                .map(|&vm| {
                    let total: f64 = fleet
                        .vds_of_vm(vm)
                        .iter()
                        .flat_map(|&vd| fleet.vds[vd].qps())
                        .map(qp_total)
                        .sum();
                    (vm, total)
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaNs"));
            let Some((vm, total)) = hottest else { continue };
            if total <= 0.0 {
                continue;
            }
            let qps: Vec<f64> = fleet
                .vds_of_vm(vm)
                .iter()
                .flat_map(|&vd| fleet.vds[vd].qps())
                .map(qp_total)
                .collect();
            if let Some(c) = normalized_cov(&qps) {
                vm2qp.push(c);
            }
            let vds: Vec<f64> = fleet
                .vds_of_vm(vm)
                .iter()
                .map(|&vd| fleet.vds[vd].qps().map(qp_total).sum())
                .collect();
            if let Some(c) = normalized_cov(&vds) {
                vm2vd.push(c);
            }
            for &vd in fleet.vds_of_vm(vm) {
                let q: Vec<f64> = fleet.vds[vd].qps().map(qp_total).collect();
                if q.len() >= 2 && q.iter().sum::<f64>() > 0.0 {
                    if let Some(c) = normalized_cov(&q) {
                        vd2qp.push(c);
                    }
                }
            }
        }
        results[0][k] = median(&vm2qp).unwrap_or(f64::NAN);
        results[1][k] = median(&vm2vd).unwrap_or(f64::NAN);
        results[2][k] = median(&vd2qp).unwrap_or(f64::NAN);
    }
    PanelB {
        vm2qp: (results[0][0], results[0][1]),
        vm2vd: (results[1][0], results[1][1]),
        vd2qp: (results[2][0], results[2][1]),
    }
}

/// Panel (c): hottest-QP traffic share per compute node.
pub fn panel_c(ds: &Dataset) -> PanelC {
    let fleet = &ds.fleet;
    let mut med = [f64::NAN; 2];
    let mut above = [f64::NAN; 2];
    for (k, op) in Op::ALL.iter().enumerate() {
        let roll = rollup_compute(
            fleet,
            &ds.compute,
            ComputeLevel::Qp,
            Measure::bytes(*op),
            |_| true,
        );
        let mut per_cn: std::collections::BTreeMap<CnId, Vec<f64>> =
            std::collections::BTreeMap::new();
        for (qp_idx, series) in &roll.series {
            let cn = fleet.cn_of_qp(ebs_core::ids::QpId(*qp_idx as u32));
            per_cn.entry(cn).or_default().push(series.iter().sum());
        }
        let shares: Vec<f64> = per_cn
            .values()
            .filter_map(|qps| {
                let total: f64 = qps.iter().sum();
                let max = qps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if total > 0.0 {
                    Some(max / total)
                } else {
                    None
                }
            })
            .collect();
        let cdf = Cdf::new(&shares);
        med[k] = cdf.quantile(0.5).unwrap_or(f64::NAN);
        above[k] = cdf.above(0.8).unwrap_or(f64::NAN);
    }
    PanelC {
        median_share: (med[0], med[1]),
        frac_above_80: (above[0], above[1]),
    }
}

/// Panels (d–f): the rebinding simulation and its exemplars, over the
/// shared per-CN event partition.
pub fn panel_def(sh: &Shared) -> PanelDef {
    let ds = sh.ds();
    let by_cn = sh.events_by_cn();
    let outcomes = simulate_fleet(&ds.fleet, by_cn, &RebindConfig::default());
    let improved = outcomes.iter().filter(|o| o.gain < 1.0).count();
    let improved_frac = if outcomes.is_empty() {
        0.0
    } else {
        improved as f64 / outcomes.len() as f64
    };

    // Exemplars (the paper's node-b / node-r): among nodes with an
    // above-median rebind ratio, the one with the spikiest hottest-WT
    // 10 ms series (bursty) and the flattest one (smooth).
    let ratios: Vec<f64> = outcomes.iter().map(|o| o.rebind_ratio).collect();
    let cut = median(&ratios).unwrap_or(0.0);
    let p2a_of = |o: &RebindOutcome| -> f64 {
        let s = hottest_wt_series(&ds.fleet, o.cn, &by_cn[o.cn.index()], 10_000);
        p2a(&s).unwrap_or(f64::NAN)
    };
    let busy: Vec<(f64, &RebindOutcome)> = outcomes
        .iter()
        .filter(|o| o.rebind_ratio >= cut)
        .map(|o| (p2a_of(o), o))
        .filter(|(p, _)| p.is_finite())
        .collect();
    let bursty = busy
        .iter()
        .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
        .copied();
    let smooth = busy
        .iter()
        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
        .copied();
    PanelDef {
        bursty_p2a: bursty.map(|(p, _)| p).unwrap_or(f64::NAN),
        smooth_p2a: smooth.map(|(p, _)| p).unwrap_or(f64::NAN),
        exemplar_gains: (
            bursty.map(|(_, o)| o.gain).unwrap_or(f64::NAN),
            smooth.map(|(_, o)| o.gain).unwrap_or(f64::NAN),
        ),
        outcomes,
        improved_frac,
    }
}

/// Run the whole figure.
pub fn run(sh: &Shared) -> Fig2 {
    Fig2 {
        a: panel_a(sh.ds()),
        b: panel_b(sh.ds()),
        c: panel_c(sh.ds()),
        def: panel_def(sh),
    }
}

/// Render all panels.
pub fn render(f: &Fig2) -> String {
    let mut out = String::new();
    let mut a = Table::new(["scale (min)", "median WT-CoV R", "median WT-CoV W"])
        .with_title("Figure 2(a): WT-CoV by time scale");
    for (scale, r, w) in &f.a.rows {
        a.row([scale.to_string(), format!("{r:.3}"), format!("{w:.3}")]);
    }
    out.push_str(&a.render());

    let mut b = Table::new(["breakdown", "median CoV R", "median CoV W"])
        .with_title("Figure 2(b): VM-VD-QP CoV breakdown (hottest VM per node)");
    b.row([
        "VM→QP".to_string(),
        format!("{:.3}", f.b.vm2qp.0),
        format!("{:.3}", f.b.vm2qp.1),
    ]);
    b.row([
        "VM→VD".to_string(),
        format!("{:.3}", f.b.vm2vd.0),
        format!("{:.3}", f.b.vm2vd.1),
    ]);
    b.row([
        "VD→QP".to_string(),
        format!("{:.3}", f.b.vd2qp.0),
        format!("{:.3}", f.b.vd2qp.1),
    ]);
    out.push('\n');
    out.push_str(&b.render());

    let mut c = Table::new(["metric", "read", "write"])
        .with_title("Figure 2(c): hottest-QP traffic share per node");
    c.row([
        "median share".to_string(),
        format!("{:.3}", f.c.median_share.0),
        format!("{:.3}", f.c.median_share.1),
    ]);
    c.row([
        "fraction of nodes > 80%".to_string(),
        format!("{:.3}", f.c.frac_above_80.0),
        format!("{:.3}", f.c.frac_above_80.1),
    ]);
    out.push('\n');
    out.push_str(&c.render());

    let mut d = Table::new(["node", "rebind ratio", "gain (CoV after/before)"])
        .with_title("Figure 2(d): rebinding simulation scatter (per compute node)");
    for o in &f.def.outcomes {
        d.row([
            o.cn.to_string(),
            format!("{:.3}", o.rebind_ratio),
            format!("{:.3}", o.gain),
        ]);
    }
    out.push('\n');
    out.push_str(&d.render());
    out.push_str(&format!(
        "nodes improved by rebinding (gain < 1): {:.1}%\n",
        f.def.improved_frac * 100.0
    ));
    out.push_str(&format!(
        "Figure 2(e/f): hottest-WT 10ms P2A — bursty node {:.1} (gain {:.3}) vs smooth node {:.1} (gain {:.3}); ratio {:.1}x\n",
        f.def.bursty_p2a,
        f.def.exemplar_gains.0,
        f.def.smooth_p2a,
        f.def.exemplar_gains.1,
        f.def.bursty_p2a / f.def.smooth_p2a,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{dataset, Scale};

    #[test]
    fn read_wt_cov_exceeds_write() {
        let ds = dataset(Scale::Medium);
        let a = panel_a(&ds);
        assert!(!a.rows.is_empty());
        let (_, r, w) = a.rows[0];
        assert!(r > w, "1-min WT-CoV: read {r:.3} vs write {w:.3}");
        assert!(r > 0.3, "read WT-CoV should be substantial: {r:.3}");
    }

    #[test]
    fn vm2vd_is_the_most_extreme_breakdown() {
        let ds = dataset(Scale::Medium);
        let b = panel_b(&ds);
        // §4.2: VM→VD CoV is extreme (median ≈ 0.97 in the paper).
        assert!(b.vm2vd.0 > 0.6, "VM→VD read CoV {:.3}", b.vm2vd.0);
        assert!(b.vm2vd.0 >= b.vm2qp.0 - 0.15);
        // Writes concentrate on fewer QPs than reads (VD→QP, §4.2).
        assert!(
            b.vd2qp.1 > b.vd2qp.0,
            "VD→QP: W {:.3} vs R {:.3}",
            b.vd2qp.1,
            b.vd2qp.0
        );
    }

    #[test]
    fn hottest_qp_dominates_many_nodes() {
        let ds = dataset(Scale::Medium);
        let c = panel_c(&ds);
        assert!(
            c.frac_above_80.0 > c.frac_above_80.1,
            "read should concentrate more"
        );
        assert!(
            c.frac_above_80.0 > 0.15,
            "read >80% fraction {:.3}",
            c.frac_above_80.0
        );
        assert!(c.median_share.0 > 0.3);
    }

    #[test]
    fn rebinding_helps_only_some_nodes() {
        let ds = dataset(Scale::Medium);
        let def = panel_def(&Shared::new(&ds));
        assert!(!def.outcomes.is_empty());
        assert!(def.improved_frac > 0.05, "someone must benefit");
        assert!(
            def.improved_frac < 0.95,
            "rebinding must not be a silver bullet"
        );
        // The bursty exemplar out-bursts the smooth one (by construction)
        // — and by a wide factor, like the paper's 7.7x node-b vs node-r.
        assert!(
            def.bursty_p2a > def.smooth_p2a * 2.0,
            "bursty {:.1} vs smooth {:.1}",
            def.bursty_p2a,
            def.smooth_p2a
        );
    }

    #[test]
    fn render_contains_all_panels() {
        let ds = dataset(Scale::Quick);
        let text = render(&run(&Shared::new(&ds)));
        for tag in ["2(a)", "2(b)", "2(c)", "2(d)", "2(e/f)"] {
            assert!(text.contains(tag), "missing panel {tag}");
        }
    }
}
