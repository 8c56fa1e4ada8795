//! Fleet topology: one consistent snapshot of the EBS entity hierarchy.
//!
//! A [`Fleet`] owns the data centers, compute nodes, worker threads, users,
//! VMs, VDs, QPs, storage nodes, BlockServers, and segments of a deployment,
//! together with the two placement decisions the paper studies:
//!
//! * the round-robin **QP → worker-thread binding** the hypervisor performs
//!   at attach time (§2.2, "inter-WT load balancer"), and
//! * the initial **segment → BlockServer placement** in the storage cluster
//!   (§2.1), which keeps segments of one VD spread over distinct BSs.
//!
//! Fleets are built with [`FleetBuilder`] (used by `ebs-workload::fleet`) and
//! immutable afterwards; algorithms that *change* placements (rebinding,
//! segment migration) keep their own mutable copies of the relevant maps.

use crate::apps::AppClass;
use crate::error::EbsError;
use crate::ids::{BsId, CnId, DcId, IdVec, QpId, SegId, SnId, UserId, VdId, VmId, WtId};
use crate::spec::VdSpec;

/// A data center.
#[derive(Clone, Debug)]
pub struct Dc {
    /// Id of this DC.
    pub id: DcId,
    /// Human-readable name ("DC-1" …).
    pub name: String,
}

/// A compute node hosting VMs and hypervisor worker threads.
#[derive(Clone, Debug)]
pub struct ComputeNode {
    /// Id of this node.
    pub id: CnId,
    /// Data center the node lives in.
    pub dc: DcId,
    /// Global id of this node's first worker thread.
    pub wt_base: u32,
    /// Number of worker threads (each pinned to one CPU core).
    pub wt_count: u8,
    /// Whether the node is sold as bare metal (hosts exactly one VM).
    pub bare_metal: bool,
}

impl ComputeNode {
    /// Global ids of this node's worker threads.
    pub fn wts(&self) -> impl ExactSizeIterator<Item = WtId> {
        (self.wt_base..self.wt_base + self.wt_count as u32).map(WtId)
    }
}

/// A virtual machine.
#[derive(Clone, Debug)]
pub struct Vm {
    /// Id of this VM.
    pub id: VmId,
    /// Hosting compute node.
    pub cn: CnId,
    /// Owning tenant.
    pub user: UserId,
    /// Inferred application class (specification data, §2.3).
    pub app: AppClass,
}

/// A virtual disk.
#[derive(Clone, Debug)]
pub struct Vd {
    /// Id of this VD.
    pub id: VdId,
    /// VM the disk is mounted in.
    pub vm: VmId,
    /// Subscription specification.
    pub spec: VdSpec,
    /// Global id of this VD's first queue pair.
    pub qp_base: u32,
    /// Global id of this VD's first segment.
    pub seg_base: u32,
}

impl Vd {
    /// Queue pairs of this disk.
    pub fn qps(&self) -> impl ExactSizeIterator<Item = QpId> {
        (self.qp_base..self.qp_base + self.spec.qp_count as u32).map(QpId)
    }

    /// Segments of this disk.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = SegId> {
        (self.seg_base..self.seg_base + self.spec.segment_count()).map(SegId)
    }
}

/// A queue pair.
#[derive(Clone, Debug)]
pub struct Qp {
    /// Id of this QP.
    pub id: QpId,
    /// Owning virtual disk.
    pub vd: VdId,
    /// Index of this QP within the disk (0-based).
    pub index_in_vd: u8,
}

/// A storage node.
#[derive(Clone, Debug)]
pub struct StorageNode {
    /// Id of this node.
    pub id: SnId,
    /// Data center the node lives in.
    pub dc: DcId,
}

/// A BlockServer process (forwarding layer).
#[derive(Clone, Debug)]
pub struct BlockServer {
    /// Id of this BlockServer.
    pub id: BsId,
    /// Storage node the process runs on.
    pub sn: SnId,
}

/// One 32 GiB segment of a VD's address space.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Id of this segment.
    pub id: SegId,
    /// Owning virtual disk.
    pub vd: VdId,
    /// Index within the disk (segment k covers bytes `[32 GiB·k, 32 GiB·(k+1))`).
    pub index_in_vd: u32,
}

/// An immutable fleet snapshot. See the module docs for what it contains.
#[derive(Clone, Debug)]
pub struct Fleet {
    /// Data centers.
    pub dcs: IdVec<DcId, Dc>,
    /// Number of tenants (users carry no other state).
    pub user_count: u32,
    /// Compute nodes.
    pub compute_nodes: IdVec<CnId, ComputeNode>,
    /// Virtual machines.
    pub vms: IdVec<VmId, Vm>,
    /// Virtual disks.
    pub vds: IdVec<VdId, Vd>,
    /// Queue pairs.
    pub qps: IdVec<QpId, Qp>,
    /// Storage nodes.
    pub storage_nodes: IdVec<SnId, StorageNode>,
    /// BlockServers.
    pub block_servers: IdVec<BsId, BlockServer>,
    /// Segments.
    pub segments: IdVec<SegId, Segment>,
    /// Round-robin QP → WT binding produced at attach time.
    pub qp_binding: IdVec<QpId, WtId>,
    /// Initial segment → BlockServer placement.
    pub seg_home: IdVec<SegId, BsId>,
    /// Total number of worker threads across all compute nodes.
    pub wt_total: u32,
    vms_by_cn: Vec<Vec<VmId>>,
    vds_by_vm: Vec<Vec<VdId>>,
    bss_by_dc: Vec<Vec<BsId>>,
    cn_by_wt: Vec<CnId>,
}

impl Fleet {
    /// Compute node that owns worker thread `wt`.
    pub fn cn_of_wt(&self, wt: WtId) -> CnId {
        // ebs-lint: allow(D3) -- fleet-minted id; the index covers every minted id by construction
        self.cn_by_wt[wt.index()]
    }

    /// VMs hosted on compute node `cn`.
    pub fn vms_of_cn(&self, cn: CnId) -> &[VmId] {
        // ebs-lint: allow(D3) -- fleet-minted id; the index covers every minted id by construction
        &self.vms_by_cn[cn.index()]
    }

    /// Virtual disks mounted in VM `vm`.
    pub fn vds_of_vm(&self, vm: VmId) -> &[VdId] {
        // ebs-lint: allow(D3) -- fleet-minted id; the index covers every minted id by construction
        &self.vds_by_vm[vm.index()]
    }

    /// BlockServers in data center `dc`.
    pub fn bss_of_dc(&self, dc: DcId) -> &[BsId] {
        // ebs-lint: allow(D3) -- fleet-minted id; the index covers every minted id by construction
        &self.bss_by_dc[dc.index()]
    }

    /// Data center of VM `vm` (via its compute node).
    pub fn dc_of_vm(&self, vm: VmId) -> DcId {
        // ebs-lint: allow(D3) -- fleet-minted id; the index covers every minted id by construction
        self.compute_nodes[self.vms[vm].cn].dc
    }

    /// Data center of VD `vd`.
    pub fn dc_of_vd(&self, vd: VdId) -> DcId {
        // ebs-lint: allow(D3) -- fleet-minted id; the index covers every minted id by construction
        self.dc_of_vm(self.vds[vd].vm)
    }

    /// Data center of a segment (the DC of its owning VD).
    pub fn dc_of_seg(&self, seg: SegId) -> DcId {
        // ebs-lint: allow(D3) -- fleet-minted id; the index covers every minted id by construction
        self.dc_of_vd(self.segments[seg].vd)
    }

    /// VM that owns QP `qp`.
    pub fn vm_of_qp(&self, qp: QpId) -> VmId {
        // ebs-lint: allow(D3) -- fleet-minted id; the index covers every minted id by construction
        self.vds[self.qps[qp].vd].vm
    }

    /// Compute node of QP `qp`.
    pub fn cn_of_qp(&self, qp: QpId) -> CnId {
        // ebs-lint: allow(D3) -- fleet-minted id; the index covers every minted id by construction
        self.vms[self.vm_of_qp(qp)].cn
    }

    /// Storage node hosting segment `seg` under the *initial* placement.
    pub fn sn_of_seg(&self, seg: SegId) -> SnId {
        // ebs-lint: allow(D3) -- fleet-minted id; the index covers every minted id by construction
        self.block_servers[self.seg_home[seg]].sn
    }

    /// The segment of `vd` covering byte `offset`, if in range.
    pub fn segment_at(&self, vd: VdId, offset: u64) -> Option<SegId> {
        // ebs-lint: allow(D3) -- fleet-minted id; the index covers every minted id by construction
        let d = &self.vds[vd];
        if offset >= d.spec.capacity_bytes {
            return None;
        }
        let idx = (offset / crate::units::SEGMENT_BYTES) as u32;
        Some(SegId(d.seg_base + idx))
    }

    /// Number of virtual disks.
    pub fn vd_count(&self) -> usize {
        self.vds.len()
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Total variant of [`Fleet::dc_of_vd`] for walks over
    /// possibly-inconsistent fleets: `None` instead of a panic on any
    /// dangling id along the VD → VM → CN → DC chain.
    fn dc_of_vd_checked(&self, vd: VdId) -> Option<DcId> {
        let vm = self.vds.get(vd)?.vm;
        let cn = self.vms.get(vm)?.cn;
        Some(self.compute_nodes.get(cn)?.dc)
    }

    /// Validate internal consistency; used by tests and the builder.
    ///
    /// This is the designated checker for fleets of dubious provenance
    /// (imports, mutation tests), so every lookup here is checked — a
    /// dangling id becomes a typed error, never a panic.
    pub fn validate(&self) -> Result<(), EbsError> {
        for vd in self.vds.iter() {
            vd.spec.validate()?;
            for qp in vd.qps() {
                if self.qps.get(qp).is_none() {
                    return Err(EbsError::unknown_entity(format!("{qp} of {}", vd.id)));
                }
            }
        }
        for (i, qp) in self.qps.iter().enumerate() {
            let qp_id = QpId(i as u32);
            let wt = *self
                .qp_binding
                .get(qp_id)
                .ok_or_else(|| EbsError::unknown_entity(format!("binding of {qp_id}")))?;
            let cn = *self
                .cn_by_wt
                .get(wt.index())
                .ok_or_else(|| EbsError::unknown_entity(format!("{wt} bound by {}", qp.id)))?;
            let vm = self
                .vds
                .get(qp.vd)
                .ok_or_else(|| EbsError::unknown_entity(format!("{} of {}", qp.vd, qp.id)))?
                .vm;
            let vm_cn = self
                .vms
                .get(vm)
                .ok_or_else(|| EbsError::unknown_entity(format!("{vm} of {}", qp.id)))?
                .cn;
            if vm_cn != cn {
                return Err(EbsError::invalid_config(format!(
                    "{} bound to {wt} on foreign node {cn}",
                    qp.id
                )));
            }
        }
        for (i, seg) in self.segments.iter().enumerate() {
            let seg_id = SegId(i as u32);
            let bs = *self
                .seg_home
                .get(seg_id)
                .ok_or_else(|| EbsError::unknown_entity(format!("home of {seg_id}")))?;
            let sn = self
                .block_servers
                .get(bs)
                .ok_or_else(|| EbsError::unknown_entity(format!("{bs} for {}", seg.id)))?
                .sn;
            let seg_dc = self
                .dc_of_vd_checked(seg.vd)
                .ok_or_else(|| EbsError::unknown_entity(format!("{} of {}", seg.vd, seg.id)))?;
            let bs_dc = self
                .storage_nodes
                .get(sn)
                .ok_or_else(|| EbsError::unknown_entity(format!("{sn} under {bs}")))?
                .dc;
            if seg_dc != bs_dc {
                return Err(EbsError::invalid_config(format!(
                    "{} placed in {bs_dc} but its VD lives in {seg_dc}",
                    seg.id
                )));
            }
        }
        Ok(())
    }
}

/// Incremental fleet constructor.
///
/// Entities must be added parent-first (DC before CN, CN before VM, …); each
/// `add_*` returns the minted id. QP→WT binding and segment placement happen
/// automatically, mirroring production behaviour:
///
/// * QPs attach to the owning node's worker threads in round-robin order
///   over the node's attach history;
/// * segments are placed on the owning DC's BlockServers round-robin, which
///   both levels initial load and keeps one VD's segments on distinct BSs.
#[derive(Debug, Default)]
pub struct FleetBuilder {
    dcs: Vec<Dc>,
    user_count: u32,
    compute_nodes: Vec<ComputeNode>,
    vms: Vec<Vm>,
    vds: Vec<Vd>,
    qps: Vec<Qp>,
    storage_nodes: Vec<StorageNode>,
    block_servers: Vec<BlockServer>,
    segments: Vec<Segment>,
    qp_binding: Vec<WtId>,
    seg_home: Vec<BsId>,
    wt_total: u32,
    rr_qp_cursor: Vec<u32>,
    rr_seg_cursor: Vec<u32>,
}

impl FleetBuilder {
    /// Fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a data center.
    pub fn add_dc(&mut self, name: impl Into<String>) -> DcId {
        let id = DcId::from_index(self.dcs.len());
        self.dcs.push(Dc {
            id,
            name: name.into(),
        });
        self.rr_seg_cursor.push(0);
        id
    }

    /// Add a tenant.
    pub fn add_user(&mut self) -> UserId {
        let id = UserId(self.user_count);
        self.user_count += 1;
        id
    }

    /// Add a compute node with `wt_count` worker threads.
    pub fn add_cn(&mut self, dc: DcId, wt_count: u8, bare_metal: bool) -> CnId {
        assert!(
            wt_count > 0,
            "compute node needs at least one worker thread"
        );
        let id = CnId::from_index(self.compute_nodes.len());
        self.compute_nodes.push(ComputeNode {
            id,
            dc,
            wt_base: self.wt_total,
            wt_count,
            bare_metal,
        });
        self.wt_total += wt_count as u32;
        self.rr_qp_cursor.push(0);
        id
    }

    /// Add a VM on `cn`, owned by `user`, running an `app`-class workload.
    pub fn add_vm(&mut self, cn: CnId, user: UserId, app: AppClass) -> VmId {
        let id = VmId::from_index(self.vms.len());
        self.vms.push(Vm { id, cn, user, app });
        id
    }

    /// Add a storage node.
    pub fn add_sn(&mut self, dc: DcId) -> SnId {
        let id = SnId::from_index(self.storage_nodes.len());
        self.storage_nodes.push(StorageNode { id, dc });
        id
    }

    /// Add a BlockServer process on storage node `sn`.
    pub fn add_bs(&mut self, sn: SnId) -> BsId {
        let id = BsId::from_index(self.block_servers.len());
        self.block_servers.push(BlockServer { id, sn });
        id
    }

    /// Mount a virtual disk in `vm`: mints the VD, its QPs (round-robin
    /// bound to the host node's worker threads), and its segments (placed
    /// round-robin on the DC's BlockServers).
    ///
    /// # Panics
    /// Panics where [`FleetBuilder::try_add_vd`] would return an error: an
    /// invalid spec, an unknown `vm`, or a DC with no BlockServers yet
    /// (add storage before disks).
    pub fn add_vd(&mut self, vm: VmId, spec: VdSpec) -> VdId {
        // ebs-lint: allow(D3) -- documented panicking convenience; hostile inputs go through `try_add_vd`
        self.try_add_vd(vm, spec).expect("VD must mount")
    }

    /// Total variant of [`FleetBuilder::add_vd`]: typed errors instead of
    /// panics, for callers fed by hostile inputs (spec imports, store
    /// loads). Everything fallible is resolved before the first mutation,
    /// so an `Err` leaves the builder exactly as it was.
    pub fn try_add_vd(&mut self, vm: VmId, spec: VdSpec) -> Result<VdId, EbsError> {
        spec.validate()?;
        let id = VdId::from_index(self.vds.len());
        let cn = self
            .vms
            .get(vm.index())
            .ok_or_else(|| EbsError::unknown_entity(format!("{vm} mounting {id}")))?
            .cn;
        let node = self
            .compute_nodes
            .get(cn.index())
            .ok_or_else(|| EbsError::unknown_entity(format!("{cn} hosting {vm}")))?;
        let (dc, wt_base, wt_count) = (node.dc, node.wt_base, node.wt_count);
        let dc_bss: Vec<BsId> = self
            .block_servers
            .iter()
            .filter(|bs| {
                self.storage_nodes
                    .get(bs.sn.index())
                    .is_some_and(|sn| sn.dc == dc)
            })
            .map(|bs| bs.id)
            .collect();
        if dc_bss.is_empty() {
            return Err(EbsError::invalid_config(format!(
                "{dc} has no BlockServers; add storage before disks"
            )));
        }
        if self.rr_seg_cursor.get(dc.index()).is_none() {
            return Err(EbsError::unknown_entity(format!("{dc} hosting {cn}")));
        }
        let qp_base = self.qps.len() as u32;
        for k in 0..spec.qp_count {
            let qp = QpId::from_index(self.qps.len());
            self.qps.push(Qp {
                id: qp,
                vd: id,
                index_in_vd: k,
            });
            let cursor = self
                .rr_qp_cursor
                .get_mut(cn.index())
                .ok_or_else(|| EbsError::unknown_entity(format!("QP cursor for {cn}")))?;
            let wt = WtId(wt_base + (*cursor % wt_count as u32));
            *cursor += 1;
            self.qp_binding.push(wt);
        }
        let seg_base = self.segments.len() as u32;
        for k in 0..spec.segment_count() {
            let seg = SegId::from_index(self.segments.len());
            self.segments.push(Segment {
                id: seg,
                vd: id,
                index_in_vd: k,
            });
            let cursor = self
                .rr_seg_cursor
                .get_mut(dc.index())
                .ok_or_else(|| EbsError::unknown_entity(format!("segment cursor for {dc}")))?;
            // ebs-lint: allow(D3) -- cursor % len is in bounds of the non-empty dc_bss
            let bs = dc_bss[(*cursor as usize) % dc_bss.len()];
            *cursor += 1;
            self.seg_home.push(bs);
        }
        self.vds.push(Vd {
            id,
            vm,
            spec,
            qp_base,
            seg_base,
        });
        Ok(id)
    }

    /// Finish construction, building reverse indexes and validating.
    pub fn finish(self) -> Result<Fleet, EbsError> {
        let mut vms_by_cn = vec![Vec::new(); self.compute_nodes.len()];
        for vm in &self.vms {
            vms_by_cn[vm.cn.index()].push(vm.id);
        }
        let mut vds_by_vm = vec![Vec::new(); self.vms.len()];
        for vd in &self.vds {
            vds_by_vm[vd.vm.index()].push(vd.id);
        }
        let mut bss_by_dc = vec![Vec::new(); self.dcs.len()];
        for bs in &self.block_servers {
            bss_by_dc[self.storage_nodes[bs.sn.index()].dc.index()].push(bs.id);
        }
        let mut cn_by_wt = vec![CnId(0); self.wt_total as usize];
        for cn in &self.compute_nodes {
            for wt in cn.wts() {
                cn_by_wt[wt.index()] = cn.id;
            }
        }
        let fleet = Fleet {
            dcs: IdVec::from_vec(self.dcs),
            user_count: self.user_count,
            compute_nodes: IdVec::from_vec(self.compute_nodes),
            vms: IdVec::from_vec(self.vms),
            vds: IdVec::from_vec(self.vds),
            qps: IdVec::from_vec(self.qps),
            storage_nodes: IdVec::from_vec(self.storage_nodes),
            block_servers: IdVec::from_vec(self.block_servers),
            segments: IdVec::from_vec(self.segments),
            qp_binding: IdVec::from_vec(self.qp_binding),
            seg_home: IdVec::from_vec(self.seg_home),
            wt_total: self.wt_total,
            vms_by_cn,
            vds_by_vm,
            bss_by_dc,
            cn_by_wt,
        };
        fleet.validate()?;
        Ok(fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::VdTier;
    use crate::units::GIB;

    fn tiny_fleet() -> Fleet {
        let mut b = FleetBuilder::new();
        let dc = b.add_dc("DC-1");
        let sn = b.add_sn(dc);
        let _bs0 = b.add_bs(sn);
        let _bs1 = b.add_bs(sn);
        let user = b.add_user();
        let cn = b.add_cn(dc, 4, false);
        let vm = b.add_vm(cn, user, AppClass::Database);
        b.add_vd(vm, VdTier::Performance.spec(100 * GIB));
        b.add_vd(vm, VdTier::Standard.spec(40 * GIB));
        b.finish().unwrap()
    }

    #[test]
    fn builder_mints_contiguous_ids() {
        let f = tiny_fleet();
        assert_eq!(f.vd_count(), 2);
        assert_eq!(f.qps.len(), 5); // 4 + 1
        assert_eq!(f.segments.len(), 4 + 2); // ceil(100/32)=4, ceil(40/32)=2
        assert_eq!(f.wt_total, 4);
    }

    #[test]
    fn qp_binding_is_round_robin_per_node() {
        let f = tiny_fleet();
        let wts: Vec<u32> = (0..5).map(|i| f.qp_binding[QpId(i)].0).collect();
        assert_eq!(wts, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn segments_of_one_vd_spread_over_bss() {
        let f = tiny_fleet();
        let vd0 = &f.vds[VdId(0)];
        let homes: Vec<BsId> = vd0.segments().map(|s| f.seg_home[s]).collect();
        // 4 segments round-robin over 2 BSs: alternating.
        assert_eq!(homes, vec![BsId(0), BsId(1), BsId(0), BsId(1)]);
    }

    #[test]
    fn reverse_indexes_agree_with_forward_links() {
        let f = tiny_fleet();
        assert_eq!(f.vms_of_cn(CnId(0)), &[VmId(0)]);
        assert_eq!(f.vds_of_vm(VmId(0)), &[VdId(0), VdId(1)]);
        assert_eq!(f.cn_of_wt(WtId(3)), CnId(0));
        assert_eq!(f.vm_of_qp(QpId(4)), VmId(0));
        assert_eq!(f.dc_of_vd(VdId(1)), DcId(0));
    }

    #[test]
    fn segment_at_maps_offsets() {
        let f = tiny_fleet();
        assert_eq!(f.segment_at(VdId(0), 0), Some(SegId(0)));
        assert_eq!(f.segment_at(VdId(0), 33 * GIB), Some(SegId(1)));
        assert_eq!(f.segment_at(VdId(0), 100 * GIB), None); // past capacity
        assert_eq!(f.segment_at(VdId(1), 0), Some(SegId(4)));
    }

    #[test]
    fn validate_passes_for_built_fleet() {
        tiny_fleet().validate().unwrap();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::spec::VdTier;
    use crate::units::GIB;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn arbitrary_fleets_validate_and_conserve(
            wt_count in 1u8..16,
            vd_caps in prop::collection::vec(1u64..500, 1..12),
            bs_count in 1usize..5,
        ) {
            let mut b = FleetBuilder::new();
            let dc = b.add_dc("DC-T");
            let sn = b.add_sn(dc);
            for _ in 0..bs_count {
                b.add_bs(sn);
            }
            let user = b.add_user();
            let cn = b.add_cn(dc, wt_count, false);
            let vm = b.add_vm(cn, user, crate::apps::AppClass::Database);
            let mut expected_qps = 0usize;
            let mut expected_segs = 0usize;
            for &cap in &vd_caps {
                let spec = VdTier::Performance.spec(cap * GIB);
                expected_qps += spec.qp_count as usize;
                expected_segs += spec.segment_count() as usize;
                b.add_vd(vm, spec);
            }
            let fleet = b.finish().expect("builder output must validate");
            prop_assert_eq!(fleet.qps.len(), expected_qps);
            prop_assert_eq!(fleet.segments.len(), expected_segs);
            // Every QP is bound to a WT on its own node.
            for (i, _) in fleet.qps.iter().enumerate() {
                let qp = QpId::from_index(i);
                let wt = fleet.qp_binding[qp];
                prop_assert_eq!(fleet.cn_of_wt(wt), fleet.cn_of_qp(qp));
            }
            // Segment placement is balanced to within one per BS.
            let mut counts = vec![0usize; bs_count];
            for bs in fleet.seg_home.iter() {
                counts[bs.index()] += 1;
            }
            let min = counts.iter().min().copied().unwrap_or(0);
            let max = counts.iter().max().copied().unwrap_or(0);
            prop_assert!(max - min <= 1, "round-robin broken: {:?}", counts);
        }
    }
}
