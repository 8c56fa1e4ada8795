//! Multi-WT dispatch ablation (§4.4).
//!
//! The paper argues that no rebinding cadence can fix single-WT hosting
//! when one QP carries nearly all traffic, and that a per-IO *dispatch*
//! model (multiple WTs sharing a QP, ideally in hardware) is the way out.
//! This module quantifies that claim: it replays a node's IO stream under
//! (a) the static single-WT binding and (b) per-IO dispatch to the
//! least-loaded worker thread, and compares the WT traffic CoV and the
//! single-server queueing delay.

use ebs_core::ids::CnId;
use ebs_core::io::IoEvent;
use ebs_core::topology::Fleet;
use ebs_stack::hypervisor::WtQueues;

/// Hosting models compared by the ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostingModel {
    /// Production: each QP statically bound to one WT.
    SingleWt,
    /// Per-IO dispatch to the WT that frees up first.
    Dispatch,
}

/// Outcome of replaying one node under one hosting model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DispatchOutcome {
    /// The node.
    pub cn: CnId,
    /// CoV of cumulative per-WT bytes.
    pub wt_cov: f64,
    /// Mean queueing delay per IO in microseconds (excludes service).
    pub mean_wait_us: f64,
    /// 99th-percentile queueing delay in microseconds.
    pub p99_wait_us: f64,
}

/// Fixed per-IO service cost used by the ablation (µs); small against the
/// 10 ms burst scale, so queueing differences come from load placement.
const SERVICE_US: f64 = 5.0;

/// Replay `events` (time-sorted, all on node `cn`) under `model`.
/// Returns `None` for nodes with fewer than two WTs or no traffic.
pub fn replay_node(
    fleet: &Fleet,
    cn: CnId,
    events: &[IoEvent],
    model: HostingModel,
) -> Option<DispatchOutcome> {
    let node = &fleet.compute_nodes[cn];
    let wt_count = node.wt_count as usize;
    if wt_count < 2 || events.is_empty() {
        return None;
    }
    let mut queues = WtQueues::new(fleet.wt_total);
    let mut bytes = vec![0.0; wt_count];
    let mut waits = Vec::with_capacity(events.len());
    for ev in events {
        let wt = match model {
            HostingModel::SingleWt => fleet.qp_binding[ev.qp],
            HostingModel::Dispatch => {
                // The WT that frees up first takes the IO.
                node.wts()
                    .min_by(|&a, &b| {
                        queues
                            .free_at(a)
                            .partial_cmp(&queues.free_at(b))
                            .expect("no NaNs")
                    })
                    .expect("wt_count >= 2")
            }
        };
        let wait = queues.serve(wt, ev.t_us as f64, SERVICE_US);
        bytes[wt.index() - node.wt_base as usize] += ev.size as f64;
        waits.push(wait);
    }
    let cov = {
        let n = bytes.len() as f64;
        let mean = bytes.iter().sum::<f64>() / n;
        if mean <= 0.0 {
            return None;
        }
        let var = bytes.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        var.sqrt() / mean
    };
    waits.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let mean_wait = waits.iter().sum::<f64>() / waits.len() as f64;
    let p99 = waits[((waits.len() - 1) as f64 * 0.99) as usize];
    Some(DispatchOutcome {
        cn,
        wt_cov: cov,
        mean_wait_us: mean_wait,
        p99_wait_us: p99,
    })
}

/// Replay every node of the fleet under both models; returns
/// `(single_wt, dispatch)` outcome pairs for nodes where both apply.
pub fn compare_fleet(fleet: &Fleet, events: &[IoEvent]) -> Vec<(DispatchOutcome, DispatchOutcome)> {
    let by_cn = crate::wt_rebind::events_by_cn(fleet, events);
    let mut out = Vec::new();
    for (i, evs) in by_cn.iter().enumerate() {
        let cn = CnId::from_index(i);
        if let (Some(s), Some(d)) = (
            replay_node(fleet, cn, evs, HostingModel::SingleWt),
            replay_node(fleet, cn, evs, HostingModel::Dispatch),
        ) {
            out.push((s, d));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workload::{generate, WorkloadConfig};

    #[test]
    fn dispatch_levels_wt_traffic() {
        let ds = generate(&WorkloadConfig::quick(81)).unwrap();
        let pairs = compare_fleet(&ds.fleet, &ds.events);
        assert!(!pairs.is_empty());
        let mean_cov = |f: &dyn Fn(&(DispatchOutcome, DispatchOutcome)) -> f64| {
            pairs.iter().map(f).sum::<f64>() / pairs.len() as f64
        };
        let single = mean_cov(&|p| p.0.wt_cov);
        let dispatch = mean_cov(&|p| p.1.wt_cov);
        assert!(
            dispatch < single * 0.8,
            "dispatch CoV {dispatch:.3} should be well below single-WT {single:.3}"
        );
    }

    #[test]
    fn dispatch_never_increases_mean_wait() {
        let ds = generate(&WorkloadConfig::quick(82)).unwrap();
        for (s, d) in compare_fleet(&ds.fleet, &ds.events) {
            assert!(
                d.mean_wait_us <= s.mean_wait_us + 1e-9,
                "{}: dispatch wait {} vs single {}",
                s.cn,
                d.mean_wait_us,
                s.mean_wait_us
            );
        }
    }
}
