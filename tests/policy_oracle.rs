//! Differential oracle: serve's online rebind, lend and balance policies
//! against the offline mechanisms the figures evaluate, with the decision
//! period equal to the serve epoch.
//!
//! Serve runs one policy at a time, wrapped to record what the policy saw
//! and what it decided each epoch. The offline code then replays the same
//! per-epoch inputs and must decide the same:
//!
//! - rebind: per compute node, `simulate_fleet`'s swap count and the CoV
//!   of its rebound per-WT cumulative traffic;
//! - balance: with the S1 and S2 importers, Algorithm 1's migration
//!   sequence (segment, destination, epoch) over a `PeriodTraffic` built
//!   from serve's per-epoch segment bytes, and serve's per-BS bytes as
//!   `bs_totals` under the placement in force;
//! - lend: per VM group and epoch, the caps `LendCap` sets are
//!   `lend_step`'s caps on the same demands, and the next epoch runs
//!   under them.

use std::cell::RefCell;
use std::rc::Rc;

use ebs::analysis::cov;
use ebs::balance::bs_balancer::{balance_traffic, BalancerConfig, PeriodTraffic};
use ebs::balance::importer::ImporterSelect;
use ebs::balance::wt_rebind::{events_by_cn, simulate_fleet, RebindConfig};
use ebs::core::ids::{DcId, VdId, VmId};
use ebs::serve::{
    serve, Action, EpochStats, OnlineBalancer, OnlineLender, OnlineRebinder, Policy, ServeConfig,
    WindowView,
};
use ebs::stack::segment::SegmentMap;
use ebs::stack::StackConfig;
use ebs::throttle::lending::lend_step;
use ebs::throttle::LendingConfig;
use ebs::workload::{generate, Dataset, WorkloadConfig};

/// One epoch as the policy saw it, and what it decided.
struct Seen {
    stats: EpochStats,
    placement: SegmentMap,
    cap_scales: Vec<f64>,
    actions: Vec<Action>,
}

/// A policy that records every epoch its inner policy observes.
struct Recorder {
    inner: Box<dyn Policy>,
    log: Rc<RefCell<Vec<Seen>>>,
}

impl Policy for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&mut self, view: &WindowView<'_>) -> Vec<Action> {
        let actions = self.inner.observe(view);
        let newest = view.newest().expect("observed after an epoch");
        self.log.borrow_mut().push(Seen {
            stats: newest.clone(),
            placement: view.placement.clone(),
            cap_scales: view.cap_scales.to_vec(),
            actions: actions.clone(),
        });
        actions
    }
}

/// Serve `ds` under `policy` alone, one record per epoch.
fn serve_one(ds: &Dataset, epoch_secs: f64, policy: Box<dyn Policy>) -> Vec<Seen> {
    let log = Rc::new(RefCell::new(Vec::new()));
    let config = ServeConfig::fast_forward(epoch_secs, 5, StackConfig::default()).unwrap();
    let recorder = Recorder {
        inner: policy,
        log: Rc::clone(&log),
    };
    serve(&ds.fleet, &config, &ds.events, &mut [Box::new(recorder)]).unwrap();
    let seen = log.take();
    for (k, s) in seen.iter().enumerate() {
        assert_eq!(s.stats.epoch, k as u64, "one record per epoch");
    }
    seen
}

fn rebind_matches_the_offline_sweep(ds: &Dataset, epoch_secs: f64) {
    let fleet = &ds.fleet;
    let seen = serve_one(ds, epoch_secs, Box::new(OnlineRebinder::default()));
    let mut swaps = vec![0u64; fleet.compute_nodes.len()];
    let mut wt_total = vec![0.0; fleet.wt_total as usize];
    for s in &seen {
        for a in &s.actions {
            let &Action::SwapWts { a, .. } = a else {
                panic!("{a:?}")
            };
            swaps[fleet.cn_of_wt(a).index()] += 1;
        }
        for (total, bytes) in wt_total.iter_mut().zip(&s.stats.wt_bytes) {
            *total += bytes;
        }
    }
    let config = RebindConfig {
        period_us: (epoch_secs * 1e6) as u64,
        ..RebindConfig::default()
    };
    let offline = simulate_fleet(fleet, &events_by_cn(fleet, &ds.events), &config);
    assert!(offline.iter().any(|o| o.rebinds > 0), "no CN rebinds");
    for o in &offline {
        let node = &fleet.compute_nodes[o.cn];
        let wts = &wt_total[node.wt_base as usize..][..node.wt_count as usize];
        assert_eq!(swaps[o.cn.index()], o.rebinds, "{} swaps", o.cn);
        assert_eq!(cov(wts).unwrap_or(0.0), o.cov_rebound, "{} WT share", o.cn);
    }
    // No serve swap on a node the offline sweep reports nothing for.
    let offline_swaps: u64 = offline.iter().map(|o| o.rebinds).sum();
    assert_eq!(swaps.iter().sum::<u64>(), offline_swaps);
}

fn balance_matches_algorithm_1(ds: &Dataset, epoch_secs: f64, strategy: ImporterSelect) {
    let fleet = &ds.fleet;
    let config = BalancerConfig {
        strategy,
        ..BalancerConfig::default()
    };
    let balancer = OnlineBalancer::new(config.clone());
    let seen = serve_one(ds, epoch_secs, Box::new(balancer));
    let mut migrations = 0;
    for dc in (0..fleet.dcs.len()).map(|d| DcId(d as u32)) {
        let bss = fleet.bss_of_dc(dc);
        let in_dc = |seg| fleet.dc_of_seg(seg) == dc;
        let traffic = PeriodTraffic {
            periods: seen
                .iter()
                .map(|s| {
                    let segs = s.stats.seg_bytes.iter();
                    segs.filter(|&&(seg, _)| in_dc(seg)).copied().collect()
                })
                .collect(),
        };
        for (p, s) in seen.iter().enumerate() {
            let served: Vec<f64> = bss.iter().map(|bs| s.stats.bs_bytes[bs.index()]).collect();
            let offline = traffic.bs_totals(p, &s.placement, bss);
            assert_eq!(served, offline, "{dc} epoch {p}: per-BS bytes");
        }
        let run = balance_traffic(fleet, dc, &traffic, &config);
        let log = run.seg_map.log().iter();
        let offline: Vec<_> = log.map(|m| (m.seg, m.to, m.at)).collect();
        let served: Vec<_> = seen
            .iter()
            .flat_map(|s| s.actions.iter().map(move |a| (a, s.stats.epoch as u32)))
            .filter_map(|(a, at)| match *a {
                Action::MigrateSegment { seg, to } if in_dc(seg) => Some((seg, to, at)),
                _ => None,
            })
            .collect();
        assert_eq!(served, offline, "{strategy:?} {dc}: migrations");
        migrations += served.len();
    }
    assert!(migrations > 0, "{strategy:?}: no migrations");
}

fn lend_matches_lend_step(ds: &Dataset, epoch_secs: f64) {
    let fleet = &ds.fleet;
    let (stack, config) = (StackConfig::default(), LendingConfig::default());
    let lender = OnlineLender::new(config, stack.throttle_scale);
    let seen = serve_one(ds, epoch_secs, Box::new(lender));
    let mut grants = 0;
    for (k, s) in seen.iter().enumerate() {
        let bytes = |vd| {
            let at = s.stats.vd_bytes.binary_search_by_key(&vd, |e| e.0);
            at.map_or(0.0, |at| s.stats.vd_bytes[at].1)
        };
        for vds in (0..fleet.vm_count()).map(|vm| fleet.vds_of_vm(VmId(vm as u32))) {
            if vds.len() < 2 {
                continue;
            }
            let demand: Vec<f64> = vds.iter().map(|&vd| bytes(vd) / epoch_secs).collect();
            let cap = |&vd: &VdId| fleet.vds[vd].spec.tput_cap * stack.throttle_scale;
            let base: Vec<f64> = vds.iter().map(cap).collect();
            let mut caps = base.clone();
            grants += usize::from(lend_step(&demand, &mut caps, config.p, |i| demand[i]).is_some());
            for (i, &vd) in vds.iter().enumerate() {
                let set = s.actions.iter().find_map(|a| match *a {
                    Action::LendCap { vd: v, scale } if v == vd => Some(scale),
                    _ => None,
                });
                let want = (caps[i] != base[i]).then(|| caps[i] / base[i]);
                assert_eq!(set, want, "{vd} epoch {k}: cap scale");
                if let Some(next) = seen.get(k + 1) {
                    let in_force = next.cap_scales[vd.index()];
                    assert_eq!(in_force, set.unwrap_or(1.0), "{vd} epoch {}", k + 1);
                }
            }
        }
    }
    assert!(grants > 0, "no grants");
}

fn decide_alike(ds: &Dataset, epoch_secs: f64) {
    rebind_matches_the_offline_sweep(ds, epoch_secs);
    for strategy in [ImporterSelect::MinTraffic, ImporterSelect::Random] {
        balance_matches_algorithm_1(ds, epoch_secs, strategy);
    }
    lend_matches_lend_step(ds, epoch_secs);
}

#[test]
fn online_policies_decide_as_the_offline_mechanisms_at_quick_scale() {
    // 10 s epochs: at 30 s and longer no quick VM group throttles.
    decide_alike(&generate(&WorkloadConfig::quick(0xEB5_2025)).unwrap(), 10.0);
}

/// The medium-scale case (release; CI's online serve step runs it).
#[test]
#[ignore]
fn online_policies_decide_as_the_offline_mechanisms_at_medium_scale() {
    decide_alike(
        &generate(&WorkloadConfig::medium(0xEB5_2025)).unwrap(),
        30.0,
    );
}
