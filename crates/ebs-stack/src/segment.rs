//! Mutable segment → BlockServer placement (the forwarding layer's map).
//!
//! The fleet carries the *initial* placement; the inter-BS balancer (§6)
//! migrates segments between BlockServers at runtime. [`SegmentMap`] is
//! that mutable map plus a migration log, with the invariant that a segment
//! is always owned by exactly one BlockServer in its own data center.

use ebs_core::ids::{BsId, SegId};
use ebs_core::topology::Fleet;

/// One recorded migration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Migration {
    /// When the migration happened (balancer period index or tick).
    pub at: u32,
    /// The segment moved.
    pub seg: SegId,
    /// Source BlockServer.
    pub from: BsId,
    /// Destination BlockServer.
    pub to: BsId,
}

/// Mutable segment placement with a migration log.
#[derive(Clone, Debug)]
pub struct SegmentMap {
    home: Vec<BsId>,
    log: Vec<Migration>,
}

impl SegmentMap {
    /// Start from the fleet's initial placement.
    pub fn from_fleet(fleet: &Fleet) -> Self {
        Self {
            home: fleet.seg_home.as_slice().to_vec(),
            log: Vec::new(),
        }
    }

    /// Current owner of `seg`.
    pub fn home_of(&self, seg: SegId) -> BsId {
        self.home[seg.index()]
    }

    /// The full placement as a slice indexed by segment.
    pub fn as_slice(&self) -> &[BsId] {
        &self.home
    }

    /// Move `seg` to `to` at logical time `at`. No-op if already there.
    ///
    /// # Panics
    /// In debug builds, panics if the destination BlockServer is in a
    /// different data center than the segment.
    pub fn migrate(&mut self, fleet: &Fleet, at: u32, seg: SegId, to: BsId) {
        let from = self.home_of(seg);
        if from == to {
            return;
        }
        debug_assert_eq!(
            fleet.dc_of_seg(seg),
            fleet.storage_nodes[fleet.block_servers[to].sn].dc,
            "cross-DC migration is not a thing"
        );
        self.home[seg.index()] = to;
        self.log.push(Migration { at, seg, from, to });
    }

    /// All migrations so far, in order.
    pub fn log(&self) -> &[Migration] {
        &self.log
    }

    /// Number of segments per BlockServer, indexed by BS.
    pub fn load_counts(&self, bs_total: usize) -> Vec<usize> {
        let mut counts = vec![0usize; bs_total];
        for &h in &self.home {
            counts[h.index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::apps::AppClass;
    use ebs_core::spec::VdTier;
    use ebs_core::topology::FleetBuilder;
    use ebs_core::units::GIB;

    fn fleet() -> Fleet {
        let mut b = FleetBuilder::new();
        let dc = b.add_dc("DC-1");
        let sn = b.add_sn(dc);
        let _ = b.add_bs(sn);
        let _ = b.add_bs(sn);
        let _ = b.add_bs(sn);
        let u = b.add_user();
        let cn = b.add_cn(dc, 2, false);
        let vm = b.add_vm(cn, u, AppClass::BigData);
        b.add_vd(vm, VdTier::Standard.spec(160 * GIB)); // 5 segments
        b.finish().unwrap()
    }

    #[test]
    fn starts_from_fleet_placement() {
        let f = fleet();
        let m = SegmentMap::from_fleet(&f);
        for (i, &bs) in f.seg_home.iter().enumerate() {
            assert_eq!(m.home_of(SegId::from_index(i)), bs);
        }
        assert!(m.log().is_empty());
    }

    #[test]
    fn migrate_updates_home_and_log() {
        let f = fleet();
        let mut m = SegmentMap::from_fleet(&f);
        let seg = SegId(0);
        let from = m.home_of(seg);
        let to = BsId((from.0 + 1) % 3);
        m.migrate(&f, 7, seg, to);
        assert_eq!(m.home_of(seg), to);
        assert_eq!(
            m.log(),
            &[Migration {
                at: 7,
                seg,
                from,
                to
            }]
        );
    }

    #[test]
    fn self_migration_is_a_noop() {
        let f = fleet();
        let mut m = SegmentMap::from_fleet(&f);
        let seg = SegId(1);
        m.migrate(&f, 0, seg, m.home_of(seg));
        assert!(m.log().is_empty());
    }

    #[test]
    fn conservation_total_segments_constant() {
        let f = fleet();
        let mut m = SegmentMap::from_fleet(&f);
        m.migrate(&f, 0, SegId(0), BsId(2));
        m.migrate(&f, 1, SegId(3), BsId(2));
        let counts = m.load_counts(3);
        assert_eq!(counts.iter().sum::<usize>(), f.segments.len());
    }
}
