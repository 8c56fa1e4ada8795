//! Zero-copy event indexing for the trace-driven hot paths.
//!
//! Every analysis in the workspace consumes the same time-sorted event
//! stream sliced along one entity axis: per VD (cache studies, Figures 6/7),
//! per QP (hypervisor balancing), per segment (storage-side placement), or
//! per time window (hot-rate analysis). Historically each consumer regrouped
//! the stream into its own `Vec<Vec<IoEvent>>`, copying every event per
//! consumer per run. [`EventIndex`] replaces those ad-hoc partitions: built
//! **once** over the stream, it stores a single VD-major arena plus `u32`
//! permutation tables for the other axes, and every consumer borrows views —
//! contiguous `&[IoEvent]` slices for VDs and time windows, permutation
//! slices ([`PermutedEvents`]) for QPs and segments. No consumer copies an
//! event.
//!
//! Ownership model: the index is self-contained (it owns the gathered arena
//! and the permutation tables, no borrowed lifetimes), so it can be cached
//! inside a dataset and lent across threads freely. Within each view the
//! original time order of the stream is preserved: the gather is a stable
//! counting sort, and QPs/segments each belong to exactly one VD.
//!
//! The VD-major arena is the one structure every consumer touches, so
//! [`EventIndex::build`] materializes it eagerly; the QP and segment
//! permutation tables are derived lazily on first use (thread-safe, built
//! at most once) so runs that never slice those axes pay nothing for them.

use crate::ids::{QpId, SegId, VdId};
use crate::io::IoEvent;
use crate::topology::Fleet;
use std::sync::OnceLock;

/// One lazily-built permutation axis: arena positions grouped by entity,
/// `perm[starts[e] .. starts[e + 1]]` holding entity `e`'s events.
#[derive(Clone, Debug, Default)]
struct Axis {
    perm: Vec<u32>,
    starts: Vec<u32>,
}

/// Precomputed per-VD / per-QP / per-segment / per-window views over one
/// time-sorted event stream. See the module docs for the ownership model.
#[derive(Clone, Debug, Default)]
pub struct EventIndex {
    /// Events regrouped VD-major; time-sorted within each VD's range.
    arena: Vec<IoEvent>,
    /// `arena[vd_starts[v] .. vd_starts[v + 1]]` holds VD `v`'s events.
    vd_starts: Vec<u32>,
    /// Per-VD `(seg_base, capacity_bytes)`: the slice of fleet topology
    /// the lazy segment axis needs, captured so the index stays free of
    /// borrowed lifetimes.
    vd_seg_info: Vec<(u32, u64)>,
    /// Total QPs in the fleet (axis width).
    n_qps: usize,
    /// Total segments in the fleet (axis width).
    n_segs: usize,
    /// Arena positions grouped by QP, built on first [`Self::qp`] call.
    qp_axis: OnceLock<Axis>,
    /// Arena positions grouped by segment, built on first
    /// [`Self::segment`] call.
    seg_axis: OnceLock<Axis>,
}

/// A borrowed, permutation-backed event view (per-QP / per-segment): the
/// events in time order, read through an index table instead of a copy.
#[derive(Clone, Copy, Debug)]
pub struct PermutedEvents<'a> {
    arena: &'a [IoEvent],
    positions: &'a [u32],
}

impl<'a> PermutedEvents<'a> {
    /// Number of events in the view.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The `i`-th event of the view (time order).
    #[inline]
    pub fn get(&self, i: usize) -> &'a IoEvent {
        &self.arena[self.positions[i] as usize]
    }

    /// Iterate the events in time order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a IoEvent> + '_ {
        self.positions.iter().map(|&p| &self.arena[p as usize])
    }
}

/// Prefix-sum a count table in place into start offsets (the classic
/// counting-sort layout step); returns nothing, `counts[i]` becomes the
/// start of bucket `i` and one extra slot holds the total.
fn counts_to_starts(counts: &mut [u32]) {
    let mut acc = 0u32;
    for c in counts.iter_mut() {
        let n = *c;
        *c = acc;
        acc += n;
    }
}

impl EventIndex {
    /// Build the index over `events` (must be time-sorted, as the workload
    /// generator and every dataset in the workspace guarantee). One O(E)
    /// counting-sort gather per axis; no per-consumer work ever again.
    pub fn build(fleet: &Fleet, events: &[IoEvent]) -> Self {
        let n = u32::try_from(events.len()).expect("event count exceeds u32 index range");
        let n_vds = fleet.vds.len();

        // Axis 1: VD-major arena (stable gather keeps time order per VD).
        let mut vd_starts = vec![0u32; n_vds + 1];
        for ev in events {
            vd_starts[ev.vd.index()] += 1;
        }
        counts_to_starts(&mut vd_starts);
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

        Self {
            arena,
            vd_starts,
            vd_seg_info: fleet
                .vds
                .iter()
                .map(|d| (d.seg_base, d.spec.capacity_bytes))
                .collect(),
            n_qps: fleet.qps.len(),
            n_segs: fleet.segments.len(),
            qp_axis: OnceLock::new(),
            seg_axis: OnceLock::new(),
        }
    }

    /// The QP permutation over the arena, built on first use. Each QP
    /// lives inside one VD's contiguous range, so arena order is already
    /// time order.
    fn qp_axis(&self) -> &Axis {
        self.qp_axis.get_or_init(|| {
            let mut starts = vec![0u32; self.n_qps + 1];
            for ev in &self.arena {
                starts[ev.qp.index()] += 1;
            }
            counts_to_starts(&mut starts);
            let mut cursor = starts.clone();
            let mut perm = vec![0u32; self.arena.len()];
            for (pos, ev) in self.arena.iter().enumerate() {
                let slot = &mut cursor[ev.qp.index()];
                perm[*slot as usize] = pos as u32;
                *slot += 1;
            }
            Axis { perm, starts }
        })
    }

    /// The segment permutation over the arena, built on first use.
    /// Segments are global ids carved out of each VD's address space;
    /// events never span segment boundaries (IO sizes ≪ 32 GiB), so the
    /// starting offset decides the segment. Events addressed past a VD's
    /// declared capacity have no segment and are not indexed on this axis.
    fn seg_axis(&self) -> &Axis {
        self.seg_axis.get_or_init(|| {
            let seg_of = |ev: &IoEvent| {
                let (seg_base, capacity) = self.vd_seg_info[ev.vd.index()];
                (ev.offset < capacity)
                    .then(|| seg_base as usize + (ev.offset / crate::units::SEGMENT_BYTES) as usize)
            };
            let mut starts = vec![0u32; self.n_segs + 1];
            let mut in_range = 0usize;
            for ev in &self.arena {
                if let Some(seg) = seg_of(ev) {
                    starts[seg] += 1;
                    in_range += 1;
                }
            }
            counts_to_starts(&mut starts);
            let mut cursor = starts.clone();
            let mut perm = vec![0u32; in_range];
            for (pos, ev) in self.arena.iter().enumerate() {
                if let Some(seg) = seg_of(ev) {
                    let slot = &mut cursor[seg];
                    perm[*slot as usize] = pos as u32;
                    *slot += 1;
                }
            }
            Axis { perm, starts }
        })
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

    /// One QP's events, time-sorted, as a permutation view (the QP axis
    /// materializes on the first call and is shared thereafter).
    pub fn qp(&self, qp: QpId) -> PermutedEvents<'_> {
        let axis = self.qp_axis();
        let lo = axis.starts[qp.index()] as usize;
        let hi = axis.starts[qp.index() + 1] as usize;
        PermutedEvents {
            arena: &self.arena,
            positions: &axis.perm[lo..hi],
        }
    }

    /// One segment's events, time-sorted, as a permutation view (the
    /// segment axis materializes on the first call and is shared
    /// thereafter). Events addressed past a VD's declared capacity are
    /// not indexed here.
    pub fn segment(&self, seg: SegId) -> PermutedEvents<'_> {
        let axis = self.seg_axis();
        let lo = axis.starts[seg.index()] as usize;
        let hi = axis.starts[seg.index() + 1] as usize;
        PermutedEvents {
            arena: &self.arena,
            positions: &axis.perm[lo..hi],
        }
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
    fn qp_views_are_time_sorted_and_complete() {
        let (fleet, events) = dataset();
        let idx = EventIndex::build(&fleet, &events);
        let mut total = 0;
        for q in 0..fleet.qps.len() {
            let view = idx.qp(QpId::from_index(q));
            total += view.len();
            let mut last = 0;
            for ev in view.iter() {
                assert_eq!(ev.qp.index(), q);
                assert!(ev.t_us >= last, "QP view out of time order");
                last = ev.t_us;
            }
        }
        assert_eq!(total, events.len());
    }

    #[test]
    fn segment_views_partition_in_range_events() {
        let (fleet, events) = dataset();
        let idx = EventIndex::build(&fleet, &events);
        let mut total = 0;
        for s in 0..fleet.segments.len() {
            let view = idx.segment(SegId::from_index(s));
            total += view.len();
            for ev in view.iter() {
                assert_eq!(
                    fleet.segment_at(ev.vd, ev.offset),
                    Some(SegId::from_index(s))
                );
            }
        }
        // Every generated offset is inside its VD's capacity, so the
        // segment axis must account for the full stream.
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
        assert!(idx.qp(QpId(0)).is_empty());
        assert!(idx.segment(SegId(0)).is_empty());
    }
}
