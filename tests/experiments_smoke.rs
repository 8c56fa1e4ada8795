//! Smoke test: every experiment module runs end-to-end at quick scale and
//! renders non-trivial output mentioning its paper artifact.

use ebs::experiments::*;

#[test]
fn every_table_and_figure_renders() {
    let ds = dataset(Scale::Quick);
    let sh = driver::Shared::new(&ds);

    let t2 = table2::render(&table2::run(&ds));
    assert!(t2.contains("Table 2") && t2.lines().count() > 5);

    let t3 = table3::render(&table3::run(&ds));
    assert!(t3.contains("Table 3") && t3.contains("1%-CCR"));

    let t4 = table4::render(&table4::run(&ds));
    assert!(t4.contains("Table 4") && t4.contains("BigData"));

    let f2 = fig2::render(&fig2::run(&sh));
    assert!(f2.contains("Figure 2(a)") && f2.contains("rebind"));

    let f3 = fig3::render(&fig3::run(&ds));
    assert!(f3.contains("Figure 3(b)") && f3.contains("lending"));

    let f4 = fig4::render(&fig4::run(&sh));
    assert!(f4.contains("Figure 4(c)") && f4.contains("ARIMA"));

    let f5 = fig5::render(&fig5::run(&sh));
    assert!(f5.contains("Figure 5(c)") && f5.contains("Write-then-Read"));

    let f6 = fig6::render(&fig6::run(&sh));
    assert!(f6.contains("Figure 6") && f6.contains("hot rate"));

    let f7 = fig7::render(&fig7::run(&sh));
    assert!(f7.contains("Figure 7(a)") && f7.contains("FrozenHot"));

    let ab = ablations::render(&sh);
    assert!(ab.contains("Ablation") && ab.contains("lending rate"));
}

/// `all --only <name>` renders one entry of the driver's section table:
/// each must be byte-identical to its slice of the full run, in table
/// order, and an unknown name renders nothing.
#[test]
fn each_section_alone_matches_its_slice_of_run_all() {
    let ds = dataset(Scale::Quick);
    let all = driver::run_all(&ds);
    assert_eq!(all.len(), driver::SECTIONS.len());
    for ((name, _), text) in driver::SECTIONS.iter().zip(&all) {
        let alone = driver::run_only(&ds, name);
        assert_eq!(alone.as_ref(), Some(text), "section {name}");
    }
    assert_eq!(driver::run_only(&ds, "fig8"), None);
    // Spot-check the canonical sequence by the sections' titles.
    for (at, title) in [
        (0, "Table 2"),
        (8, "Figure 7"),
        (9, "Ablation"),
        (10, "Extension"),
    ] {
        assert!(all[at].contains(title), "section {at}:\n{}", all[at]);
    }
}

#[test]
fn experiments_share_one_canonical_dataset() {
    let a = dataset(Scale::Quick);
    let b = dataset(Scale::Quick);
    assert_eq!(a.trace_count(), b.trace_count());
    assert_eq!(a.total_bytes(), b.total_bytes());
}
