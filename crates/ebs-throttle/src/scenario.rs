//! Throttle-study scenarios: multi-VD VMs and multi-VM nodes (§5.1).
//!
//! The paper's observation is about *groups* of disks whose caps could be
//! pooled: the VDs of one VM, or the VDs of one tenant's VMs co-located on
//! one compute node. This module extracts those groups from the metric
//! data as dense per-tick demand series (read/write split) plus each
//! member's cap in the studied dimension.

use ebs_core::ids::{CnId, QpId, UserId, VdId, VmId};
use ebs_core::metric::{ComputeMetrics, Measure};
use ebs_core::topology::Fleet;

/// Which cap dimension is studied (either can trigger the throttle, §5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CapDim {
    /// Bytes/second against `VdSpec::tput_cap`.
    Throughput,
    /// Operations/second against `VdSpec::iops_cap`.
    Iops,
}

impl CapDim {
    /// Both dimensions.
    pub const ALL: [CapDim; 2] = [CapDim::Throughput, CapDim::Iops];

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            CapDim::Throughput => "throughput",
            CapDim::Iops => "IOPS",
        }
    }
}

/// Demand series of one virtual disk in one dimension.
#[derive(Clone, Debug)]
pub struct VdSeries {
    /// The disk.
    pub vd: VdId,
    /// Per-tick read demand (rate: bytes/s or ops/s).
    pub read: Vec<f64>,
    /// Per-tick write demand.
    pub write: Vec<f64>,
    /// The cap in this dimension.
    pub cap: f64,
}

impl VdSeries {
    /// Total demand (read + write) at tick `t`.
    #[inline]
    pub fn demand(&self, t: usize) -> f64 {
        self.read[t] + self.write[t]
    }

    /// Whether the disk's demand hits its cap at tick `t`.
    #[inline]
    pub fn throttled(&self, t: usize) -> bool {
        self.demand(t) >= self.cap
    }
}

/// What kind of group this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupKind {
    /// All VDs of one VM (the VM mounts ≥ 2 disks).
    MultiVdVm(VmId),
    /// All VDs of one tenant's VMs co-located on one compute node
    /// (≥ 2 VMs of that tenant on the node).
    MultiVmNode(CnId, UserId),
}

/// A poolable group of disks.
#[derive(Clone, Debug)]
pub struct ThrottleGroup {
    /// Group identity.
    pub kind: GroupKind,
    /// Member demand series.
    pub members: Vec<VdSeries>,
    /// Number of ticks.
    pub ticks: usize,
}

impl ThrottleGroup {
    /// Sum of member caps.
    pub fn total_cap(&self) -> f64 {
        self.members.iter().map(|m| m.cap).sum()
    }

    /// Group demand at tick `t`.
    pub fn total_demand(&self, t: usize) -> f64 {
        self.members.iter().map(|m| m.demand(t)).sum()
    }

    /// Whether any member is throttled at tick `t`.
    pub fn any_throttled(&self, t: usize) -> bool {
        self.members.iter().any(|m| m.throttled(t))
    }
}

/// Build dense per-VD demand series for one dimension.
fn vd_series(fleet: &Fleet, metrics: &ComputeMetrics, dim: CapDim, vd: VdId) -> VdSeries {
    let ticks = metrics.ticks.ticks as usize;
    let dt = metrics.ticks.tick_secs;
    let (rm, wm) = match dim {
        CapDim::Throughput => (Measure::ReadBytes, Measure::WriteBytes),
        CapDim::Iops => (Measure::ReadOps, Measure::WriteOps),
    };
    let mut read = vec![0.0; ticks];
    let mut write = vec![0.0; ticks];
    for qp in fleet.vds[vd].qps() {
        let series = &metrics.per_qp[QpId(qp.0)];
        series.accumulate_into(&mut read, rm);
        series.accumulate_into(&mut write, wm);
    }
    for v in read.iter_mut().chain(write.iter_mut()) {
        *v /= dt; // volumes → rates
    }
    let spec = fleet.vds[vd].spec;
    let cap = match dim {
        CapDim::Throughput => spec.tput_cap,
        CapDim::Iops => spec.iops_cap,
    };
    VdSeries {
        vd,
        read,
        write,
        cap,
    }
}

/// Extract all multi-VD-VM and multi-VM-node groups of the fleet.
pub fn build_groups(fleet: &Fleet, metrics: &ComputeMetrics, dim: CapDim) -> Vec<ThrottleGroup> {
    let ticks = metrics.ticks.ticks as usize;
    let mut groups = Vec::new();

    // Multi-VD VMs.
    for vm in fleet.vms.iter() {
        let vds = fleet.vds_of_vm(vm.id);
        if vds.len() < 2 {
            continue;
        }
        groups.push(ThrottleGroup {
            kind: GroupKind::MultiVdVm(vm.id),
            members: vds
                .iter()
                .map(|&vd| vd_series(fleet, metrics, dim, vd))
                .collect(),
            ticks,
        });
    }

    // Multi-VM nodes: same tenant, same compute node, ≥ 2 VMs.
    let mut by_node_user: std::collections::BTreeMap<(CnId, UserId), Vec<VmId>> =
        std::collections::BTreeMap::new();
    for vm in fleet.vms.iter() {
        by_node_user
            .entry((vm.cn, vm.user))
            .or_default()
            .push(vm.id);
    }
    for ((cn, user), vms) in by_node_user {
        if vms.len() < 2 {
            continue;
        }
        let members: Vec<VdSeries> = vms
            .iter()
            .flat_map(|&vm| fleet.vds_of_vm(vm).iter().copied())
            .map(|vd| vd_series(fleet, metrics, dim, vd))
            .collect();
        if members.len() < 2 {
            continue;
        }
        groups.push(ThrottleGroup {
            kind: GroupKind::MultiVmNode(cn, user),
            members,
            ticks,
        });
    }
    groups
}

/// Hand-written groups for the unit tests of this crate.
#[cfg(test)]
pub(crate) mod fixture {
    use super::*;

    /// One VM's group of `members`, over the first member's ticks.
    pub(crate) fn group(members: Vec<VdSeries>) -> ThrottleGroup {
        let ticks = members.first().map_or(0, |m| m.read.len());
        ThrottleGroup {
            kind: GroupKind::MultiVdVm(VmId(0)),
            members,
            ticks,
        }
    }

    /// A member with per-tick `read` and `write` demand and cap `cap`.
    pub(crate) fn rw(read: Vec<f64>, write: Vec<f64>, cap: f64) -> VdSeries {
        VdSeries {
            vd: VdId(0),
            read,
            write,
            cap,
        }
    }

    /// A write-only member.
    pub(crate) fn vd(write: Vec<f64>, cap: f64) -> VdSeries {
        rw(vec![0.0; write.len()], write, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workload::{generate, WorkloadConfig};

    fn dataset() -> ebs_workload::Dataset {
        generate(&WorkloadConfig::quick(91)).unwrap()
    }

    #[test]
    fn groups_have_at_least_two_members() {
        let ds = dataset();
        for dim in CapDim::ALL {
            let groups = build_groups(&ds.fleet, &ds.compute, dim);
            assert!(!groups.is_empty());
            for g in &groups {
                assert!(g.members.len() >= 2, "{:?}", g.kind);
                assert!(g.total_cap() > 0.0);
            }
        }
    }

    #[test]
    fn whale_vm_forms_the_biggest_group() {
        let ds = dataset();
        let groups = build_groups(&ds.fleet, &ds.compute, CapDim::Throughput);
        let max = groups.iter().map(|g| g.members.len()).max().unwrap();
        assert_eq!(max, ebs_workload::fleet::WHALE_VD_COUNT);
    }

    #[test]
    fn demand_matches_metric_totals() {
        let ds = dataset();
        let groups = build_groups(&ds.fleet, &ds.compute, CapDim::Throughput);
        // Sum of all multi-VD-VM member demand-volumes must not exceed the
        // fleet total (each VD appears in at most one VM group).
        let dt = ds.compute.ticks.tick_secs;
        let vm_groups: f64 = groups
            .iter()
            .filter(|g| matches!(g.kind, GroupKind::MultiVdVm(_)))
            .flat_map(|g| g.members.iter())
            .map(|m| (m.read.iter().sum::<f64>() + m.write.iter().sum::<f64>()) * dt)
            .sum();
        let (r, w) = ds.total_bytes();
        assert!(vm_groups <= (r + w) * 1.000001);
        assert!(vm_groups > 0.0);
    }

    #[test]
    fn throttling_detection_uses_cap() {
        let m = VdSeries {
            vd: VdId(0),
            read: vec![5.0, 60.0],
            write: vec![5.0, 50.0],
            cap: 100.0,
        };
        assert!(!m.throttled(0));
        assert!(m.throttled(1));
    }

    #[test]
    fn some_group_sees_throttling() {
        // With bursty demand and real caps, at least one group should hit a
        // cap at some tick.
        let ds = dataset();
        let groups = build_groups(&ds.fleet, &ds.compute, CapDim::Throughput);
        let any = groups
            .iter()
            .any(|g| (0..g.ticks).any(|t| g.any_throttled(t)));
        assert!(any, "no throttling anywhere — caps unrealistically loose");
    }
}
