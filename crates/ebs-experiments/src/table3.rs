//! Table 3 — baseline skewness statistics: 1 %-CCR, 20 %-CCR, and 50 %ile
//! P2A at the CN / VM / SN / Segment levels, per data center, read/write.

use ebs_analysis::aggregate::{rollup_compute, rollup_storage, ComputeLevel, StorageLevel};
use ebs_analysis::table::{pct, rw_pair, Table};
use ebs_analysis::{ccr, median, p2a};
use ebs_core::ids::DcId;
use ebs_core::io::Op;
use ebs_core::metric::Measure;
use ebs_workload::Dataset;

/// One cell group: CCR at 1 % and 20 %, and the median per-entity P2A.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelStats {
    /// 1 %-CCR in `[0, 1]`.
    pub ccr1: f64,
    /// 20 %-CCR in `[0, 1]`.
    pub ccr20: f64,
    /// 50 %ile of per-entity P2A.
    pub p2a50: f64,
    /// Number of entities at this level with traffic.
    pub entities: usize,
}

/// The four aggregation levels of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Level {
    /// Compute node.
    Cn,
    /// Virtual machine.
    Vm,
    /// Storage node.
    Sn,
    /// Segment.
    Seg,
}

impl Level {
    /// Table row order.
    pub const ALL: [Level; 4] = [Level::Cn, Level::Vm, Level::Sn, Level::Seg];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Level::Cn => "CN",
            Level::Vm => "VM",
            Level::Sn => "SN",
            Level::Seg => "Seg",
        }
    }
}

/// Compute the stats for one (DC, level, op) cell.
pub fn level_stats(ds: &Dataset, dc: DcId, level: Level, op: Op) -> Option<LevelStats> {
    let fleet = &ds.fleet;
    let measure = Measure::bytes(op);
    let roll = match level {
        Level::Cn => rollup_compute(fleet, &ds.compute, ComputeLevel::Cn, measure, |qp| {
            fleet.compute_nodes[fleet.cn_of_qp(qp)].dc == dc
        }),
        Level::Vm => rollup_compute(fleet, &ds.compute, ComputeLevel::Vm, measure, |qp| {
            fleet.compute_nodes[fleet.cn_of_qp(qp)].dc == dc
        }),
        Level::Sn => rollup_storage(fleet, &ds.storage, StorageLevel::Sn, measure, None, |seg| {
            fleet.dc_of_seg(seg) == dc
        }),
        Level::Seg => rollup_storage(
            fleet,
            &ds.storage,
            StorageLevel::Seg,
            measure,
            None,
            |seg| fleet.dc_of_seg(seg) == dc,
        ),
    };
    let totals = roll.totals();
    let ccr1 = ccr(&totals, 0.01)?;
    let ccr20 = ccr(&totals, 0.20)?;
    let p2as: Vec<f64> = roll.series.iter().filter_map(|(_, s)| p2a(s)).collect();
    let p2a50 = median(&p2as)?;
    Some(LevelStats {
        ccr1,
        ccr20,
        p2a50,
        entities: totals.len(),
    })
}

/// Full Table 3: `stats[dc][level] = (read, write)`.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// DC names in order.
    pub dcs: Vec<String>,
    /// `per_dc[dc][level_idx] = (read_stats, write_stats)`.
    pub per_dc: Vec<Vec<(Option<LevelStats>, Option<LevelStats>)>>,
}

/// Compute Table 3 for every DC.
pub fn run(ds: &Dataset) -> Table3 {
    let dcs: Vec<String> = ds.fleet.dcs.iter().map(|d| d.name.clone()).collect();
    let per_dc = (0..dcs.len())
        .map(|i| {
            let dc = DcId::from_index(i);
            Level::ALL
                .iter()
                .map(|&lvl| {
                    (
                        level_stats(ds, dc, lvl, Op::Read),
                        level_stats(ds, dc, lvl, Op::Write),
                    )
                })
                .collect()
        })
        .collect();
    Table3 { dcs, per_dc }
}

/// Render the paper-style table (one block per DC).
pub fn render(t: &Table3) -> String {
    let mut out = String::new();
    for (i, dc) in t.dcs.iter().enumerate() {
        let mut tab = Table::new([
            "Agg. level",
            "1%-CCR (R/W)",
            "20%-CCR (R/W)",
            "50%ile P2A (R/W)",
        ])
        .with_title(format!("Table 3 — {dc}"));
        for (k, &lvl) in Level::ALL.iter().enumerate() {
            let (r, w) = &t.per_dc[i][k];
            let cell = |f: &dyn Fn(&LevelStats) -> String| {
                rw_pair(
                    r.as_ref().map(f).unwrap_or_else(|| "-".into()),
                    w.as_ref().map(f).unwrap_or_else(|| "-".into()),
                )
            };
            tab.row([
                lvl.label().to_string(),
                cell(&|s| pct(s.ccr1)),
                cell(&|s| pct(s.ccr20)),
                cell(&|s| format!("{:.1}", s.p2a50)),
            ]);
        }
        out.push_str(&tab.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{dataset, Scale};

    #[test]
    fn table3_reproduces_the_headline_shapes() {
        let ds = dataset(Scale::Medium);
        let t = run(&ds);
        for (i, dc) in t.dcs.iter().enumerate() {
            let vm = &t.per_dc[i][1];
            let (vm_r, vm_w) = (vm.0.unwrap(), vm.1.unwrap());
            // Observation 1: VM-level read CCR far above the prior-work
            // 16.6 % figure.
            assert!(vm_r.ccr1 > 0.166, "{dc}: VM read 1%-CCR {:.3}", vm_r.ccr1);
            // Observation 2: read skewness above write skewness.
            assert!(vm_r.ccr1 > vm_w.ccr1, "{dc}: read vs write CCR");
            assert!(vm_r.p2a50 > vm_w.p2a50, "{dc}: read vs write P2A");
            // SN is the least skewed level (Table 3's striking contrast).
            // Entity counts differ wildly between levels at our scale, so
            // compare each level's 1 %-CCR relative to its uniform-traffic
            // baseline `ceil(0.01·n)/n`.
            let excess = |s: LevelStats| {
                let n = s.entities.max(1) as f64;
                s.ccr1 / ((0.01 * n).ceil().max(1.0) / n)
            };
            let sn = t.per_dc[i][2].0.unwrap();
            assert!(
                excess(sn) < excess(vm_r),
                "{dc}: SN skew excess {:.1} must be below VM's {:.1}",
                excess(sn),
                excess(vm_r)
            );
        }
    }

    #[test]
    fn ccr_columns_are_ordered() {
        let ds = dataset(Scale::Quick);
        let t = run(&ds);
        for per_level in &t.per_dc {
            for (r, w) in per_level {
                for s in [r, w].into_iter().flatten() {
                    assert!(s.ccr20 >= s.ccr1);
                    assert!(s.ccr1 > 0.0 && s.ccr20 <= 1.0);
                    assert!(s.p2a50 >= 1.0);
                }
            }
        }
    }

    #[test]
    fn render_produces_one_block_per_dc() {
        let ds = dataset(Scale::Quick);
        let t = run(&ds);
        let text = render(&t);
        assert_eq!(text.matches("Table 3 —").count(), t.dcs.len());
        assert!(text.contains("Seg"));
    }
}
