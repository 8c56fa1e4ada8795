//! Zero-copy event indexing for the trace-driven hot paths.
//!
//! Every per-VD analysis in the workspace consumes the same time-sorted
//! event stream sliced by VD (cache studies, Figures 6/7, the hottest-block
//! maps) or by time window (hot-rate analysis). Historically each consumer
//! regrouped the stream into its own `Vec<Vec<IoEvent>>`, copying every
//! event per consumer per run. [`EventIndex`] replaces those ad-hoc
//! partitions: built **once** over the stream, it stores a single VD-major
//! arena, and every consumer borrows contiguous `&[IoEvent]` slices of it —
//! per VD through [`EventIndex::vd`], per time window through
//! [`window_runs`]. No consumer copies an event.
//!
//! Ownership model: the index is self-contained (it owns the gathered
//! arena, no borrowed lifetimes), so it can be cached inside a dataset and
//! lent across threads freely. Within each VD's slice the original time
//! order of the stream is preserved: the gather is a stable counting sort.

use crate::ids::VdId;
use crate::io::IoEvent;
use crate::topology::Fleet;

/// Precomputed per-VD views over one time-sorted event stream. See the
/// module docs for the ownership model.
#[derive(Clone, Debug, Default)]
pub struct EventIndex {
    /// Events regrouped VD-major; time-sorted within each VD's range.
    arena: Vec<IoEvent>,
    /// `arena[vd_starts[v] .. vd_starts[v + 1]]` holds VD `v`'s events.
    vd_starts: Vec<u32>,
}

impl EventIndex {
    /// Build the index over `events` (must be time-sorted, as the workload
    /// generator and every dataset in the workspace guarantee). One O(E)
    /// counting-sort gather into the VD-major arena; no per-consumer work
    /// ever again.
    pub fn build(fleet: &Fleet, events: &[IoEvent]) -> Self {
        let n = u32::try_from(events.len()).expect("event count exceeds u32 index range");
        let n_vds = fleet.vds.len();

        // VD-major arena (stable gather keeps time order per VD): count
        // each VD's events, then prefix-sum the counts into start offsets,
        // the extra last slot holding the total.
        let mut vd_starts = vec![0u32; n_vds + 1];
        for ev in events {
            vd_starts[ev.vd.index()] += 1;
        }
        let mut acc = 0u32;
        for start in vd_starts.iter_mut() {
            let count = *start;
            *start = acc;
            acc += count;
        }
        debug_assert_eq!(vd_starts[n_vds], n);
        // Stable scatter straight into the arena: one sequential read pass
        // over the stream (the placeholder fill keeps the code safe — the
        // scatter overwrites every slot).
        let mut arena = match events.first() {
            Some(first) => vec![*first; events.len()],
            None => Vec::new(),
        };
        let mut cursor = vd_starts.clone();
        for ev in events {
            let slot = &mut cursor[ev.vd.index()];
            arena[*slot as usize] = *ev;
            *slot += 1;
        }

        Self { arena, vd_starts }
    }

    /// Total indexed events.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the index holds no events.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Number of VDs the index covers.
    pub fn vd_count(&self) -> usize {
        self.vd_starts.len() - 1
    }

    /// One VD's events, time-sorted, as a contiguous borrowed slice.
    #[inline]
    pub fn vd(&self, vd: VdId) -> &[IoEvent] {
        let lo = self.vd_starts[vd.index()] as usize;
        let hi = self.vd_starts[vd.index() + 1] as usize;
        &self.arena[lo..hi]
    }

    /// Every VD's slice, in VD order — the fan-out surface for parallel
    /// per-VD sweeps (fat pointers only, no event is copied).
    pub fn vd_slices(&self) -> Vec<&[IoEvent]> {
        (0..self.vd_count())
            .map(|i| self.vd(VdId::from_index(i)))
            .collect()
    }
}

/// Split a time-sorted event slice into maximal runs sharing the same
/// `t_us / window_us` bucket, yielding `(window, run)` pairs in time order.
/// The linear-scan replacement for per-window hash maps on sorted input.
pub fn window_runs(events: &[IoEvent], window_us: u64) -> impl Iterator<Item = (u64, &[IoEvent])> {
    debug_assert!(window_us > 0, "window width must be positive");
    debug_assert!(
        events.windows(2).all(|p| p[0].t_us <= p[1].t_us),
        "window_runs requires a time-sorted slice"
    );
    let mut rest = events;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let w = first.t_us / window_us;
        let end = rest.partition_point(|e| e.t_us / window_us == w);
        let (run, tail) = rest.split_at(end);
        rest = tail;
        Some((w, run))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::QpId;
    use crate::io::Op;

    fn dataset() -> (Fleet, Vec<IoEvent>) {
        use crate::apps::AppClass;
        use crate::spec::VdTier;
        use crate::topology::FleetBuilder;
        use crate::units::GIB;
        let mut b = FleetBuilder::new();
        let dc = b.add_dc("DC-1");
        let sn = b.add_sn(dc);
        b.add_bs(sn);
        b.add_bs(sn);
        let user = b.add_user();
        let cn = b.add_cn(dc, 4, false);
        let vm = b.add_vm(cn, user, AppClass::Database);
        b.add_vd(vm, VdTier::Performance.spec(100 * GIB));
        b.add_vd(vm, VdTier::Standard.spec(40 * GIB));
        b.add_vd(vm, VdTier::Premium.spec(200 * GIB));
        let ds = b.finish().unwrap();
        // Build a deterministic time-sorted stream across the fleet's VDs
        // and QPs using a tiny xorshift generator.
        let mut events = Vec::new();
        let mut x = 88172645463325252u64;
        for t in 0..2000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let vd = VdId((x % ds.vds.len() as u64) as u32);
            let d = &ds.vds[vd];
            let qp = QpId(d.qp_base + (x >> 8) as u32 % d.spec.qp_count as u32);
            events.push(IoEvent {
                t_us: t * 500,
                vd,
                qp,
                op: if x.is_multiple_of(3) {
                    Op::Read
                } else {
                    Op::Write
                },
                size: 4096,
                offset: (x >> 16) % d.spec.capacity_bytes,
            });
        }
        (ds, events)
    }

    #[test]
    fn vd_views_match_the_legacy_partition() {
        let (fleet, events) = dataset();
        let idx = EventIndex::build(&fleet, &events);
        assert_eq!(idx.len(), events.len());
        // Reference partition: the old per-consumer Vec<Vec<_>> regroup.
        let mut by_vd = vec![Vec::new(); fleet.vds.len()];
        for ev in &events {
            by_vd[ev.vd.index()].push(*ev);
        }
        for (i, expect) in by_vd.iter().enumerate() {
            assert_eq!(idx.vd(VdId::from_index(i)), expect.as_slice());
        }
        let total: usize = idx.vd_slices().iter().map(|s| s.len()).sum();
        assert_eq!(total, events.len());
    }

    #[test]
    fn window_runs_cover_the_slice_in_order() {
        let (fleet, events) = dataset();
        let idx = EventIndex::build(&fleet, &events);
        let evs = idx.vd(VdId(0));
        let mut seen = 0;
        let mut last_w = None;
        for (w, run) in window_runs(evs, 100_000) {
            assert!(!run.is_empty());
            assert!(last_w.is_none_or(|lw| w > lw), "windows must ascend");
            for ev in run {
                assert_eq!(ev.t_us / 100_000, w);
            }
            seen += run.len();
            last_w = Some(w);
        }
        assert_eq!(seen, evs.len());
    }

    #[test]
    fn empty_stream_yields_empty_views() {
        let (fleet, _) = dataset();
        let idx = EventIndex::build(&fleet, &[]);
        assert!(idx.is_empty());
        assert!(idx.vd(VdId(0)).is_empty());
    }
}
