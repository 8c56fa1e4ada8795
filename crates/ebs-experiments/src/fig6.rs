//! Figure 6 — LBA hotspots (§7.1–7.2).
//!
//! (a) access rate of the hottest block vs block size; (b) the block's
//! share of the VD's LBA; (c) the hottest block's write-to-read ratio; (d)
//! the hot-rate distribution over 5-minute windows.

use crate::driver::Shared;
use crate::fig3::Dist;
use ebs_analysis::table::Table;
use ebs_analysis::wr_ratio::{READ_DOMINANT, WRITE_DOMINANT};
use ebs_cache::hottest_block::{hot_rate, BLOCK_SIZES, HOT_RATE_WINDOW_US};
use ebs_core::ids::VdId;

/// Minimum sampled IOs for a VD to enter the per-VD statistics.
pub const MIN_EVENTS: usize = 50;

/// Per-block-size statistics across VDs.
#[derive(Clone, Debug)]
pub struct SizeRow {
    /// Block size in bytes.
    pub block_size: u64,
    /// Hottest-block access-rate distribution.
    pub access_rate: Dist,
    /// Median LBA share of the block.
    pub median_lba_share: f64,
    /// Fraction of hottest blocks that are write-dominant.
    pub write_dominant: f64,
    /// Fraction that are read-dominant.
    pub read_dominant: f64,
    /// Hot-rate distribution.
    pub hot_rate: Dist,
    /// VDs included.
    pub vds: usize,
}

/// The whole figure.
#[derive(Clone, Debug)]
pub struct Fig6 {
    /// One row per block size.
    pub rows: Vec<SizeRow>,
}

/// What one VD contributes to a [`SizeRow`].
struct VdStats {
    access_rate: f64,
    lba_share: f64,
    wr_ratio: Option<f64>,
    hot_rate: Option<f64>,
}

/// Run the whole figure over the shared hottest-block maps. VDs fan out
/// in parallel per block size over the event index's borrowed views;
/// their statistics fold in VD order, so the rows match a serial pass
/// exactly.
pub fn run(sh: &Shared) -> Fig6 {
    let ds = sh.ds();
    let slices = ds.index().vd_slices();
    let mut rows = Vec::new();
    for &bs in &BLOCK_SIZES {
        let hot = sh.hot_map(bs);
        let per_vd = ebs_core::parallel::par_map_deterministic(&slices, |i, evs| {
            let vd = VdId::from_index(i);
            let hb = hot.get(&vd)?;
            Some(VdStats {
                access_rate: hb.access_rate,
                lba_share: hb.lba_share(ds.fleet.vds[vd].spec.capacity_bytes),
                wr_ratio: hb.wr_ratio(),
                hot_rate: hot_rate(evs, hb, HOT_RATE_WINDOW_US, 3),
            })
        });
        let mut rates = Vec::new();
        let mut shares = Vec::new();
        let mut wd = 0usize;
        let mut rd = 0usize;
        let mut classified = 0usize;
        let mut hot_rates = Vec::new();
        for stats in per_vd.into_iter().flatten() {
            rates.push(stats.access_rate);
            shares.push(stats.lba_share);
            if let Some(r) = stats.wr_ratio {
                classified += 1;
                if r > WRITE_DOMINANT {
                    wd += 1;
                } else if r < READ_DOMINANT {
                    rd += 1;
                }
            }
            if let Some(hr) = stats.hot_rate {
                hot_rates.push(hr);
            }
        }
        rows.push(SizeRow {
            block_size: bs,
            access_rate: Dist::of(&rates),
            median_lba_share: ebs_analysis::median(&shares).unwrap_or(f64::NAN),
            write_dominant: if classified > 0 {
                wd as f64 / classified as f64
            } else {
                f64::NAN
            },
            read_dominant: if classified > 0 {
                rd as f64 / classified as f64
            } else {
                f64::NAN
            },
            hot_rate: Dist::of(&hot_rates),
            vds: rates.len(),
        });
    }
    Fig6 { rows }
}

/// Render all panels.
pub fn render(f: &Fig6) -> String {
    let mut tab = Table::new([
        "block size",
        "access rate p50",
        "LBA share p50",
        "write-dom %",
        "read-dom %",
        "hot rate p50",
        "VDs",
    ])
    .with_title("Figure 6: the hottest block per VD (a: access rate, b: LBA share, c: wr_ratio, d: hot rate)");
    for r in &f.rows {
        tab.row([
            ebs_core::units::format_bytes(r.block_size as f64),
            format!("{:.3}", r.access_rate.p50),
            format!("{:.4}", r.median_lba_share),
            format!("{:.1}", r.write_dominant * 100.0),
            format!("{:.1}", r.read_dominant * 100.0),
            format!("{:.3}", r.hot_rate.p50),
            r.vds.to_string(),
        ]);
    }
    tab.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{dataset, Scale};

    fn fig() -> Fig6 {
        run(&Shared::new(&dataset(Scale::Medium)))
    }

    #[test]
    fn hottest_block_outweighs_its_lba_share() {
        let f = fig();
        let row = &f.rows[0]; // 64 MiB
        assert!(row.vds > 5, "need enough busy VDs: {}", row.vds);
        // The paper's headline: a ~3% LBA share absorbing ~18% of accesses.
        assert!(
            row.access_rate.p50 > row.median_lba_share * 3.0,
            "access rate {:.3} vs LBA share {:.4}",
            row.access_rate.p50,
            row.median_lba_share
        );
    }

    #[test]
    fn access_rate_grows_with_block_size() {
        let f = fig();
        let first = f.rows.first().unwrap().access_rate.p50;
        let last = f.rows.last().unwrap().access_rate.p50;
        assert!(
            last >= first,
            "2048 MiB blocks must absorb at least as much"
        );
    }

    #[test]
    fn hottest_blocks_are_mostly_write_dominant() {
        let f = fig();
        let row = &f.rows[0];
        assert!(
            row.write_dominant > 0.5,
            "write-dominant {:.2}",
            row.write_dominant
        );
        assert!(row.read_dominant < row.write_dominant);
    }

    #[test]
    fn hot_rate_centers_near_half() {
        let f = fig();
        let row = &f.rows[0];
        assert!(row.hot_rate.n > 3, "need hot-rate samples");
        assert!(
            (0.25..=0.75).contains(&row.hot_rate.p50),
            "hot rate median {:.3} should sit near 0.5",
            row.hot_rate.p50
        );
    }

    #[test]
    fn render_lists_every_block_size() {
        let text = render(&fig());
        for label in ["64.00 MiB", "2.00 GiB"] {
            assert!(text.contains(label), "missing {label}");
        }
    }
}
