//! The consolidated DESIGN.md §5 fidelity checklist, executed end-to-end
//! on the medium-scale canonical scenario. Each assertion names the paper
//! claim it guards; together they are the contract that "the shapes hold".

use ebs::experiments::*;

fn ds() -> ebs::workload::Dataset {
    dataset(Scale::Medium)
}

#[test]
fn observation_1_and_2_vm_level_skew() {
    let t3 = table3::run(&ds());
    for (i, dc) in t3.dcs.iter().enumerate() {
        let (r, w) = (t3.per_dc[i][1].0.unwrap(), t3.per_dc[i][1].1.unwrap());
        assert!(r.ccr1 > 0.166, "{dc}: VM read CCR must beat prior work");
        assert!(r.ccr1 > w.ccr1, "{dc}: read spatial skew over write");
        assert!(r.p2a50 > w.p2a50, "{dc}: read temporal skew over write");
    }
}

#[test]
fn table4_bigdata_vs_docker_contrast() {
    let rows = table4::run(&ds());
    let bd = rows
        .iter()
        .find(|r| r.app == ebs::core::AppClass::BigData)
        .unwrap();
    let max_write_share = rows.iter().map(|r| r.share.1).fold(0.0, f64::max);
    assert!(
        bd.share.1 >= max_write_share - 1e-9,
        "BigData leads write share"
    );
    let min_read_ccr = rows
        .iter()
        .filter(|r| r.ccr1.0.is_finite())
        .map(|r| r.ccr1.0)
        .fold(f64::INFINITY, f64::min);
    assert!(
        bd.ccr1.0 <= min_read_ccr + 0.12,
        "BigData among the least skewed"
    );
}

#[test]
fn section4_wt_skew_and_rebinding_limits() {
    let d = ds();
    let a = fig2::panel_a(&d);
    let (_, r, w) = a.rows[0];
    assert!(r > w, "finest-scale WT-CoV: read {r:.3} over write {w:.3}");
    let def = fig2::panel_def(&driver::Shared::new(&d));
    assert!(
        def.improved_frac > 0.05 && def.improved_frac < 0.95,
        "rebinding helps only some nodes: {:.2}",
        def.improved_frac
    );
}

#[test]
fn section5_headroom_and_lending() {
    let f3 = fig3::run(&ds());
    let rar = fig3::median_rar(&f3).expect("throttle events exist");
    assert!(
        rar > 0.4,
        "median RAR {rar:.3} — headroom abundant under throttle"
    );
    assert!(f3.c.mixed.0 < 0.3, "throttles are single-sided");
    assert!(f3.c.tput_over_iops_events > 1.0, "throughput caps dominate");
    let (_, _, pos, _) = f3
        .fg
        .iter()
        .find(|(p, k, _, _)| *p == 0.8 && *k == "multi-VD VM")
        .unwrap();
    assert!(
        *pos > 0.5,
        "most groups gain from lending at p=0.8: {pos:.2}"
    );
}

#[test]
fn section6_importers_and_predictors() {
    let d = ds();
    let sh = driver::Shared::new(&d);
    let dc = sh.busiest_dc();
    let b = fig4::panel_b(&sh);
    let res = |s| b.iter().find(|(x, _, _)| *x == s).unwrap().1;
    assert!(
        res(ebs::balance::ImporterSelect::Ideal)
            >= res(ebs::balance::ImporterSelect::MinTraffic) * 0.9,
        "the oracle importer must not trail the production default"
    );
    let c = fig4::panel_c(&d, dc);
    let score = |tag: &str| c.iter().find(|(n, _)| n.starts_with(tag)).unwrap().1;
    assert!(score("P2") < score("P1"), "ARIMA beats linear fit");
    assert!(
        score("P5") <= score("P4") * 1.05,
        "per-period attention beats per-epoch"
    );
}

#[test]
fn section7_hotspots_and_caches() {
    let d = ds();
    let sh = driver::Shared::new(&d);
    let f6 = fig6::run(&sh);
    let row = &f6.rows[0];
    assert!(
        row.access_rate.p50 > row.median_lba_share * 3.0,
        "LBA hotspot exists"
    );
    assert!(row.write_dominant > 0.5, "hottest blocks write-dominant");
    assert!(
        (0.25..=0.75).contains(&row.hot_rate.p50),
        "hot rate near one half"
    );

    let f7a = fig7::panel_a(&sh);
    let p50 = |algo, bs: u64| {
        f7a.iter()
            .find(|r| r.algo == algo && r.block_size == bs)
            .unwrap()
            .hit_ratio
            .p50
    };
    use ebs::cache::simulate::Algorithm::*;
    // FIFO ≈ LRU everywhere; FrozenHot trails at 64 MiB and closes the gap
    // (with a higher floor) by 2 GiB.
    assert!((p50(Fifo, 64 << 20) - p50(Lru, 64 << 20)).abs() < 0.05);
    let small_gap = p50(Lru, 64 << 20) - p50(Frozen, 64 << 20);
    let large_gap = p50(Lru, 2048 << 20) - p50(Frozen, 2048 << 20);
    assert!(
        small_gap > 0.0,
        "FrozenHot must trail at 64 MiB (gap {small_gap:.3})"
    );
    assert!(
        large_gap < small_gap,
        "FrozenHot must close the gap at 2 GiB"
    );
}
