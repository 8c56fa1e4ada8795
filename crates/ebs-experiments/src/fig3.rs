//! Figure 3 — traffic throttle in the hypervisor (§5).
//!
//! (a) a real multi-VD VM hitting a single-VD cap while the VM-level total
//! has headroom; (b) the RAR distribution under throttling; (c) the
//! write-to-read attribution of throttles; (d/e) the theoretical reduction
//! rate of limited lending; (f/g) the runtime lending-gain distribution.

use ebs_analysis::quantile;
use ebs_analysis::table::Table;
use ebs_throttle::lending::{lending_gains, LendingConfig};
use ebs_throttle::rar::{rar_samples, throttle_event_count, throttled_wr_ratios};
use ebs_throttle::reduction::reduction_rates;
use ebs_throttle::scenario::{build_groups, CapDim, GroupKind, ThrottleGroup};
use ebs_workload::Dataset;

/// Panel (a): the single-VD throttle case study.
#[derive(Clone, Debug)]
pub struct PanelA {
    /// Members of the exemplar VM.
    pub vd_count: usize,
    /// Tick of the throttle event.
    pub tick: usize,
    /// Throttled VD's demand / its cap at that tick.
    pub vd_utilization: f64,
    /// VM total demand / VM total cap at that tick (the headroom story).
    pub vm_utilization: f64,
}

/// Distribution summary used by several panels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Sample count.
    pub n: usize,
}

impl Dist {
    /// Summarise a sample; NaN-filled when empty.
    pub fn of(values: &[f64]) -> Dist {
        Dist {
            p25: quantile(values, 0.25).unwrap_or(f64::NAN),
            p50: quantile(values, 0.50).unwrap_or(f64::NAN),
            p75: quantile(values, 0.75).unwrap_or(f64::NAN),
            n: values.len(),
        }
    }
}

/// Panel (c): throttle attribution.
#[derive(Clone, Copy, Debug)]
pub struct PanelC {
    /// Fraction of throttled samples that are write-dominant
    /// (`wr_ratio > 1/3`), for throughput / IOPS caps.
    pub write_dominant: (f64, f64),
    /// Fraction of samples in the mixed band `[-1/3, 1/3]`.
    pub mixed: (f64, f64),
    /// Ratio of throughput-cap to IOPS-cap throttle events.
    pub tput_over_iops_events: f64,
}

/// The whole figure.
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// Panel (a).
    pub a: Option<PanelA>,
    /// Panel (b): RAR distributions `(dim, group kind label, dist)`.
    pub b: Vec<(CapDim, &'static str, Dist)>,
    /// Panel (c).
    pub c: PanelC,
    /// Panels (d/e): reduction rate per lending rate p, for multi-VD VMs
    /// and multi-VM nodes `(p, dim, kind, dist)`.
    pub de: Vec<(f64, CapDim, &'static str, Dist)>,
    /// Panels (f/g): lending gain per p `(p, kind, positive fraction, dist)`.
    pub fg: Vec<(f64, &'static str, f64, Dist)>,
}

/// The lending rates swept by the figure.
pub const LENDING_RATES: [f64; 3] = [0.4, 0.6, 0.8];

fn kind_label(g: &ThrottleGroup) -> &'static str {
    match g.kind {
        GroupKind::MultiVdVm(_) => "multi-VD VM",
        GroupKind::MultiVmNode(..) => "multi-VM node",
    }
}

/// Panel (a): pick the multi-VD VM with the most disks (the whale) and the
/// first tick where a member throttles while the VM has ≥ 30 % headroom.
pub fn panel_a(groups: &[ThrottleGroup]) -> Option<PanelA> {
    let mut vm_groups: Vec<&ThrottleGroup> = groups
        .iter()
        .filter(|g| matches!(g.kind, GroupKind::MultiVdVm(_)))
        .collect();
    vm_groups.sort_by_key(|g| std::cmp::Reverse(g.members.len()));
    for whale in vm_groups {
        let cap = whale.total_cap();
        for t in 0..whale.ticks {
            for m in &whale.members {
                if m.throttled(t) {
                    let vm_util = whale.total_demand(t).min(cap) / cap;
                    if vm_util < 0.7 {
                        return Some(PanelA {
                            vd_count: whale.members.len(),
                            tick: t,
                            vd_utilization: (m.demand(t) / m.cap).max(1.0),
                            vm_utilization: vm_util,
                        });
                    }
                }
            }
        }
    }
    None
}

/// Run the whole figure.
pub fn run(ds: &Dataset) -> Fig3 {
    let tput = build_groups(&ds.fleet, &ds.compute, CapDim::Throughput);
    let iops = build_groups(&ds.fleet, &ds.compute, CapDim::Iops);

    // (b) RAR distributions per dim and group kind.
    let mut b = Vec::new();
    for (dim, groups) in [(CapDim::Throughput, &tput), (CapDim::Iops, &iops)] {
        for kind in ["multi-VD VM", "multi-VM node"] {
            let samples: Vec<f64> = groups
                .iter()
                .filter(|g| kind_label(g) == kind)
                .flat_map(rar_samples)
                .collect();
            b.push((dim, kind, Dist::of(&samples)));
        }
    }

    // (c) attribution.
    let frac = |groups: &[ThrottleGroup], pred: &dyn Fn(f64) -> bool| -> f64 {
        let ratios: Vec<f64> = groups.iter().flat_map(throttled_wr_ratios).collect();
        if ratios.is_empty() {
            return f64::NAN;
        }
        ratios.iter().filter(|&&r| pred(r)).count() as f64 / ratios.len() as f64
    };
    let wd = 1.0 / 3.0;
    let tput_events: usize = tput.iter().map(throttle_event_count).sum();
    let iops_events: usize = iops.iter().map(throttle_event_count).sum();
    let c = PanelC {
        write_dominant: (frac(&tput, &|r| r > wd), frac(&iops, &|r| r > wd)),
        mixed: (
            frac(&tput, &|r| r.abs() <= wd),
            frac(&iops, &|r| r.abs() <= wd),
        ),
        tput_over_iops_events: tput_events as f64 / (iops_events.max(1)) as f64,
    };

    // (d/e) reduction rates.
    let mut de = Vec::new();
    for &p in &LENDING_RATES {
        for (dim, groups) in [(CapDim::Throughput, &tput), (CapDim::Iops, &iops)] {
            for kind in ["multi-VD VM", "multi-VM node"] {
                let samples: Vec<f64> = groups
                    .iter()
                    .filter(|g| kind_label(g) == kind)
                    .flat_map(|g| reduction_rates(g, p))
                    .collect();
                de.push((p, dim, kind, Dist::of(&samples)));
            }
        }
    }

    // (f/g) lending gains (throughput dimension, as in the paper's sim).
    let mut fg = Vec::new();
    for &p in &LENDING_RATES {
        for kind in ["multi-VD VM", "multi-VM node"] {
            let subset: Vec<ThrottleGroup> = tput
                .iter()
                .filter(|g| kind_label(g) == kind)
                .cloned()
                .collect();
            let gains = lending_gains(&subset, &LendingConfig { p, period_ticks: 6 });
            let pos = if gains.is_empty() {
                f64::NAN
            } else {
                gains.iter().filter(|&&g| g > 0.0).count() as f64 / gains.len() as f64
            };
            fg.push((p, kind, pos, Dist::of(&gains)));
        }
    }

    Fig3 {
        a: panel_a(&tput),
        b,
        c,
        de,
        fg,
    }
}

/// Render all panels.
pub fn render(f: &Fig3) -> String {
    let mut out = String::new();
    match &f.a {
        Some(a) => out.push_str(&format!(
            "Figure 3(a): a {}-VD VM throttles one disk at tick {} \
             (VD at {:.0}% of its cap) while the VM uses only {:.1}% of its total cap\n",
            a.vd_count,
            a.tick,
            a.vd_utilization * 100.0,
            a.vm_utilization * 100.0
        )),
        None => out.push_str("Figure 3(a): no single-VD throttle case found at this scale\n"),
    }

    let mut b = Table::new(["dimension", "group", "RAR p25", "p50", "p75", "samples"])
        .with_title("Figure 3(b): resource available rate under throttling");
    for (dim, kind, d) in &f.b {
        b.row([
            dim.label().to_string(),
            kind.to_string(),
            format!("{:.3}", d.p25),
            format!("{:.3}", d.p50),
            format!("{:.3}", d.p75),
            d.n.to_string(),
        ]);
    }
    out.push('\n');
    out.push_str(&b.render());

    out.push_str(&format!(
        "\nFigure 3(c): write-dominant throttles: {:.1}% (tput) / {:.1}% (IOPS); \
         mixed band: {:.1}% / {:.1}%; throughput-cap events {:.1}x the IOPS-cap events\n",
        f.c.write_dominant.0 * 100.0,
        f.c.write_dominant.1 * 100.0,
        f.c.mixed.0 * 100.0,
        f.c.mixed.1 * 100.0,
        f.c.tput_over_iops_events,
    ));

    let mut de = Table::new(["p", "dimension", "group", "RR p25", "p50", "p75"])
        .with_title("Figure 3(d/e): reduction rate of throttle duration");
    for (p, dim, kind, d) in &f.de {
        de.row([
            format!("{p:.1}"),
            dim.label().to_string(),
            kind.to_string(),
            format!("{:.3}", d.p25),
            format!("{:.3}", d.p50),
            format!("{:.3}", d.p75),
        ]);
    }
    out.push('\n');
    out.push_str(&de.render());

    let mut fg = Table::new(["p", "group", "positive gain %", "gain p25", "p50", "p75"])
        .with_title("Figure 3(f/g): lending gain");
    for (p, kind, pos, d) in &f.fg {
        fg.row([
            format!("{p:.1}"),
            kind.to_string(),
            format!("{:.1}", pos * 100.0),
            format!("{:.3}", d.p25),
            format!("{:.3}", d.p50),
            format!("{:.3}", d.p75),
        ]);
    }
    out.push('\n');
    out.push_str(&fg.render());
    out
}

/// Median RAR across throughput multi-VD-VM samples; convenience accessor
/// used by tests.
pub fn median_rar(f: &Fig3) -> Option<f64> {
    f.b.iter()
        .find(|(dim, kind, _)| *dim == CapDim::Throughput && *kind == "multi-VD VM")
        .map(|(_, _, d)| d.p50)
        .filter(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{dataset, Scale};

    fn fig() -> Fig3 {
        run(&dataset(Scale::Medium))
    }

    #[test]
    fn rar_is_high_under_throttling() {
        let f = fig();
        let m = median_rar(&f).expect("throttle events must exist");
        assert!(m > 0.4, "median RAR {m:.3} — headroom should be abundant");
    }

    #[test]
    fn throttles_are_write_dominated_and_single_sided() {
        let f = fig();
        assert!(
            f.c.write_dominant.0 > 0.5,
            "write-dominant fraction {:.3}",
            f.c.write_dominant.0
        );
        assert!(
            f.c.mixed.0 < 0.3,
            "mixed band should be small: {:.3}",
            f.c.mixed.0
        );
        assert!(
            f.c.tput_over_iops_events > 1.0,
            "throughput caps fire more often"
        );
    }

    #[test]
    fn reduction_rate_falls_with_p() {
        let f = fig();
        let median_at = |p: f64| {
            f.de.iter()
                .find(|(pp, dim, kind, _)| {
                    *pp == p && *dim == CapDim::Throughput && *kind == "multi-VD VM"
                })
                .map(|(_, _, _, d)| d.p50)
                .unwrap()
        };
        assert!(
            median_at(0.8) < median_at(0.4),
            "more lending → more reduction"
        );
    }

    #[test]
    fn lending_mostly_gains_but_not_always() {
        let f = fig();
        let (_, _, pos, d) =
            f.fg.iter()
                .find(|(p, kind, _, _)| *p == 0.8 && *kind == "multi-VD VM")
                .unwrap();
        assert!(*pos > 0.5, "most groups should gain: {pos:.3}");
        assert!(d.n > 0);
    }

    #[test]
    fn whale_case_study_exists() {
        let f = fig();
        let a =
            f.a.expect("a multi-VD VM should produce a Figure 3(a) case");
        assert!(a.vd_count >= 2);
        assert!(a.vm_utilization < 0.7);
        assert!(a.vd_utilization >= 1.0);
    }

    #[test]
    fn render_has_all_panels() {
        let text = render(&fig());
        for tag in ["3(a)", "3(b)", "3(c)", "3(d/e)", "3(f/g)"] {
            assert!(text.contains(tag), "missing {tag}");
        }
    }
}
