//! Hybrid cache deployment (§7.3.2's closing proposal).
//!
//! CN-cache gives the best latency but disperses badly (some nodes would
//! need many cache slots, most none); BS-cache provisions tightly but
//! saves less latency. The paper suggests deploying both: a fixed number
//! of CN-cache slots per compute node for the hottest disks, with the
//! BS-cache as backup for cacheable disks that don't win a slot.
//!
//! [`assign_sites`] performs that placement and
//! [`hybrid_latency_gain`] evaluates it over stack-simulated latencies.

use crate::hottest_block::HottestBlock;
use crate::location::{gain_where, CacheSite, LatencyGain};
use ebs_core::hash::FxHashMap;
use ebs_core::ids::{CnId, VdId};
use ebs_core::io::{IoEvent, Op};
use ebs_core::topology::Fleet;
use ebs_core::trace::StageLatency;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Hybrid-deployment configuration.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// CN-cache slots per compute node (each slot pins one VD's hottest
    /// block).
    pub cn_slots_per_node: usize,
    /// Hottest-block access rate a VD needs to be cached at all.
    pub threshold: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            cn_slots_per_node: 2,
            threshold: crate::utilization::CACHEABLE_THRESHOLD,
        }
    }
}

/// Assign each cacheable VD a cache site: the `cn_slots_per_node` hottest
/// disks of every node win CN slots; the rest fall back to the BS-cache.
pub fn assign_sites<S: BuildHasher>(
    fleet: &Fleet,
    hot: &HashMap<VdId, HottestBlock, S>,
    config: &HybridConfig,
) -> FxHashMap<VdId, CacheSite> {
    let mut per_cn: FxHashMap<CnId, Vec<(f64, VdId)>> = FxHashMap::default();
    // ebs-lint: allow(D6) -- per-CN lists are fully sorted (rate, then vd) below, so fill order cannot leak
    for (&vd, hb) in hot {
        if hb.access_rate < config.threshold {
            continue;
        }
        let cn = fleet.vms[fleet.vds[vd].vm].cn;
        per_cn.entry(cn).or_default().push((hb.access_rate, vd));
    }
    let mut sites = FxHashMap::default();
    // ebs-lint: allow(D6) -- each VD's site depends only on its own node's sorted list; `sites` is a keyed map, so fill order is immaterial
    for (_, mut vds) in per_cn {
        vds.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("no NaNs").then(a.1.cmp(&b.1)));
        for (rank, (_, vd)) in vds.into_iter().enumerate() {
            let site = if rank < config.cn_slots_per_node {
                CacheSite::ComputeNode
            } else {
                CacheSite::BlockServer
            };
            sites.insert(vd, site);
        }
    }
    sites
}

/// Latency gain of a hybrid deployment: each cache hit is served at its
/// VD's assigned site; IOs of uncached VDs (or cache misses) pay the full
/// path. `events`, their simulated latencies `lat` and `hits` are
/// parallel columns. `None` when no events of `op` exist.
pub fn hybrid_latency_gain<S: BuildHasher>(
    events: &[IoEvent],
    lat: &[StageLatency],
    hits: &[bool],
    sites: &HashMap<VdId, CacheSite, S>,
    op: Op,
) -> Option<LatencyGain> {
    gain_where(events, lat, hits, op, |vd| sites.get(&vd).copied())
}

/// CN-cache slots actually consumed per compute node — the provisioning
/// footprint a hybrid deployment needs (bounded by `cn_slots_per_node`, by
/// construction).
pub fn cn_slot_usage<S: BuildHasher>(
    fleet: &Fleet,
    sites: &HashMap<VdId, CacheSite, S>,
) -> Vec<usize> {
    let mut counts = vec![0usize; fleet.compute_nodes.len()];
    // ebs-lint: allow(D6) -- commutative integer increments; iteration order cannot affect the counts
    for (&vd, &site) in sites {
        if site == CacheSite::ComputeNode {
            counts[fleet.vms[fleet.vds[vd].vm].cn.index()] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hottest_block::{events_by_vd, hottest_block};
    use crate::location::{hit_oracle, latency_gain};
    use ebs_stack::sim::{StackConfig, StackSim};
    use ebs_workload::{generate, WorkloadConfig};

    fn setup() -> (
        ebs_workload::Dataset,
        FxHashMap<VdId, HottestBlock>,
        Vec<StageLatency>,
        Vec<bool>,
    ) {
        let ds = generate(&WorkloadConfig::quick(201)).unwrap();
        let hot: FxHashMap<VdId, HottestBlock> = events_by_vd(&ds.fleet, &ds.events)
            .iter()
            .enumerate()
            .filter(|(_, e)| e.len() >= 30)
            .filter_map(|(i, e)| {
                hottest_block(VdId::from_index(i), e, 1024 << 20).map(|hb| (hb.vd, hb))
            })
            .collect();
        let cfg = StackConfig {
            apply_throttle: false,
            ..StackConfig::default()
        };
        let lat = StackSim::new(&ds.fleet, cfg).run(&ds.events).unwrap().lat;
        let hits = hit_oracle(&hot, &ds.events, 0.1);
        (ds, hot, lat, hits)
    }

    #[test]
    fn slot_budget_is_respected() {
        let (ds, hot, _, _) = setup();
        for slots in [0usize, 1, 2, 4] {
            let sites = assign_sites(
                &ds.fleet,
                &hot,
                &HybridConfig {
                    cn_slots_per_node: slots,
                    threshold: 0.1,
                },
            );
            let usage = cn_slot_usage(&ds.fleet, &sites);
            for (i, &u) in usage.iter().enumerate() {
                assert!(u <= slots, "cn {i} uses {u} > {slots} slots");
            }
        }
    }

    #[test]
    fn hotter_vds_win_the_cn_slots() {
        let (ds, hot, _, _) = setup();
        let sites = assign_sites(
            &ds.fleet,
            &hot,
            &HybridConfig {
                cn_slots_per_node: 1,
                threshold: 0.0,
            },
        );
        // For every node, any CN-sited VD must be at least as hot as every
        // BS-sited VD of the same node.
        for cn in ds.fleet.compute_nodes.iter() {
            let of_node = |site: CacheSite| -> Vec<f64> {
                sites
                    .iter()
                    .filter(|(&vd, &s)| s == site && ds.fleet.vms[ds.fleet.vds[vd].vm].cn == cn.id)
                    .map(|(vd, _)| hot[vd].access_rate)
                    .collect()
            };
            let cn_rates = of_node(CacheSite::ComputeNode);
            let bs_rates = of_node(CacheSite::BlockServer);
            for &c in &cn_rates {
                for &b in &bs_rates {
                    assert!(c >= b, "node {}: CN {c:.3} < BS {b:.3}", cn.id);
                }
            }
        }
    }

    #[test]
    fn hybrid_gain_sits_between_pure_deployments() {
        let (ds, hot, lat, hits) = setup();
        let events = &ds.events;
        let sites = assign_sites(
            &ds.fleet,
            &hot,
            &HybridConfig {
                cn_slots_per_node: 1,
                threshold: 0.1,
            },
        );
        let hybrid = hybrid_latency_gain(events, &lat, &hits, &sites, Op::Write).unwrap();
        let cn_only = latency_gain(events, &lat, &hits, CacheSite::ComputeNode, Op::Write).unwrap();
        let bs_only = latency_gain(events, &lat, &hits, CacheSite::BlockServer, Op::Write).unwrap();
        assert!(
            hybrid.p50 >= cn_only.p50 - 1e-9,
            "hybrid {:.3} cannot beat all-CN {:.3}",
            hybrid.p50,
            cn_only.p50
        );
        assert!(
            hybrid.p50 <= bs_only.p50 + 1e-9,
            "hybrid {:.3} must not trail all-BS {:.3}",
            hybrid.p50,
            bs_only.p50
        );
    }

    #[test]
    fn more_slots_means_more_gain() {
        let (ds, hot, lat, hits) = setup();
        let events = &ds.events;
        let gain_at = |slots: usize| {
            let sites = assign_sites(
                &ds.fleet,
                &hot,
                &HybridConfig {
                    cn_slots_per_node: slots,
                    threshold: 0.1,
                },
            );
            hybrid_latency_gain(events, &lat, &hits, &sites, Op::Write)
                .unwrap()
                .p50
        };
        assert!(gain_at(4) <= gain_at(1) + 1e-9);
        assert!(gain_at(1) <= gain_at(0) + 1e-9);
    }
}
