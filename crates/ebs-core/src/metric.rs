//! Second-level metric aggregates (the paper's *metric data*, §2.3).
//!
//! Unlike the sampled trace, the metric dataset covers **every** IO: per
//! tick it records bytes and operation counts, split by read/write, for each
//! queue pair (compute domain) and each segment (storage domain) — the
//! format of Table 1. Series are stored sparsely (only ticks with traffic),
//! which matches the bursty ON/OFF shape of real EBS traffic.
//!
//! The series are most of a dataset's memory, so a [`Series`] keeps each
//! direction apart: per side, a run of 18-byte entries (a `u16` tick
//! beside that direction's [`Flow`]), with an entry only where that
//! direction moved traffic, both runs in one allocation behind a 24-byte
//! header. A `u16` tick addresses a grid of up to
//! [`MAX_TICKS`](crate::time::MAX_TICKS) ticks, past the paper's 43,200-tick window (12 h at one
//! second). The read and write ON/OFF envelopes are drawn independently,
//! so most active ticks carry one direction only, and a series holds
//! about 19 bytes per active tick where a [`SeriesSample`] row (a `u32`
//! tick padded beside four `f64`s) takes 40, and a sampled event 32.
//! Every series is built exact-size, by [`Series::from_sides`], which
//! allocates both sides once at their exact count, so no series carries
//! doubling slack. The store codec works on the sides directly: it
//! encodes from [`Series::side`] and decodes through
//! [`Series::from_sides`].

use crate::ids::{IdVec, QpId, SegId};
use crate::io::Op;
use crate::time::TickSpec;

/// Traffic volume within one tick: bytes moved and operations completed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Flow {
    /// Bytes transferred during the tick.
    pub bytes: f64,
    /// IO operations completed during the tick.
    pub ops: f64,
}

impl Flow {
    /// Zero flow.
    pub const ZERO: Flow = Flow {
        bytes: 0.0,
        ops: 0.0,
    };

    /// Whether the flow carries no traffic.
    pub fn is_zero(&self) -> bool {
        self.bytes == 0.0 && self.ops == 0.0
    }
}

impl std::ops::Add for Flow {
    type Output = Flow;
    fn add(self, rhs: Flow) -> Flow {
        Flow {
            bytes: self.bytes + rhs.bytes,
            ops: self.ops + rhs.ops,
        }
    }
}

impl std::ops::AddAssign for Flow {
    fn add_assign(&mut self, rhs: Flow) {
        self.bytes += rhs.bytes;
        self.ops += rhs.ops;
    }
}

/// Read and write flow within one tick.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RwFlow {
    /// Read traffic.
    pub read: Flow,
    /// Write traffic.
    pub write: Flow,
}

impl RwFlow {
    /// Zero flow in both directions.
    pub const ZERO: RwFlow = RwFlow {
        read: Flow::ZERO,
        write: Flow::ZERO,
    };

    /// The flow for one opcode.
    pub fn get(&self, op: Op) -> Flow {
        match op {
            Op::Read => self.read,
            Op::Write => self.write,
        }
    }

    /// Mutable flow for one opcode.
    pub fn get_mut(&mut self, op: Op) -> &mut Flow {
        match op {
            Op::Read => &mut self.read,
            Op::Write => &mut self.write,
        }
    }

    /// Read + write combined.
    pub fn total(&self) -> Flow {
        self.read + self.write
    }

    /// Whether both directions are zero.
    pub fn is_zero(&self) -> bool {
        self.read.is_zero() && self.write.is_zero()
    }
}

impl std::ops::AddAssign for RwFlow {
    fn add_assign(&mut self, rhs: RwFlow) {
        self.read += rhs.read;
        self.write += rhs.write;
    }
}

/// A named scalar measure over an [`RwFlow`]; lets experiment configs say
/// *which* traffic dimension they aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Measure {
    /// Read bytes per tick.
    ReadBytes,
    /// Write bytes per tick.
    WriteBytes,
    /// Read + write bytes per tick.
    TotalBytes,
    /// Read ops per tick.
    ReadOps,
    /// Write ops per tick.
    WriteOps,
    /// Read + write ops per tick.
    TotalOps,
}

impl Measure {
    /// Extract the measure from a flow sample.
    pub fn of(self, rw: &RwFlow) -> f64 {
        match self {
            Measure::ReadBytes => rw.read.bytes,
            Measure::WriteBytes => rw.write.bytes,
            Measure::TotalBytes => rw.read.bytes + rw.write.bytes,
            Measure::ReadOps => rw.read.ops,
            Measure::WriteOps => rw.write.ops,
            Measure::TotalOps => rw.read.ops + rw.write.ops,
        }
    }

    /// The byte-volume measure for one opcode.
    pub fn bytes(op: Op) -> Measure {
        match op {
            Op::Read => Measure::ReadBytes,
            Op::Write => Measure::WriteBytes,
        }
    }

    /// The operation-count measure for one opcode.
    pub fn ops(op: Op) -> Measure {
        match op {
            Op::Read => Measure::ReadOps,
            Op::Write => Measure::WriteOps,
        }
    }
}

/// One sparse sample: the flow observed during `tick`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SeriesSample {
    /// Tick index.
    pub tick: u32,
    /// Traffic during that tick.
    pub rw: RwFlow,
}

/// One entry of a series side ([`Series::side`]): a tick and that
/// direction's flow in it.
///
/// Packed to 2-byte alignment, so the `u16` tick sits beside the two
/// `f64`s in 18 bytes with no padding. A `u16` addresses every tick of a
/// grid of up to [`MAX_TICKS`](crate::time::MAX_TICKS) ticks, the limit [`Series::from_sides`]
/// enforces. Its fields are only ever copied, never borrowed, as packed
/// fields must be.
#[derive(Clone, Copy, Debug)]
#[repr(C, packed(2))]
pub struct Entry {
    tick: u16,
    flow: Flow,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 18);
const _: () = assert!(std::mem::size_of::<Series>() == 24);

impl Entry {
    /// The entry's tick.
    #[inline]
    pub fn tick(&self) -> u32 {
        u32::from(self.tick)
    }

    /// The side's flow in that tick.
    #[inline]
    pub fn flow(&self) -> Flow {
        self.flow
    }
}

/// Check one side's entries: `None` unless the ticks strictly increase
/// and every flow has a nonzero bit pattern; otherwise whether an entry
/// is `±0.0` throughout.
fn check_side(entries: &[Entry]) -> Option<bool> {
    // One pass, on the OR of each flow's two fields' bits: nonzero bits,
    // and nonzero bits once the sign is dropped (not `±0.0` throughout).
    // `next` is one past the previous tick, so any first tick fits.
    let (mut next, mut valid, mut zero) = (0u32, true, false);
    for e in entries {
        let (tick, flow) = (e.tick(), e.flow());
        let bits = flow.bytes.to_bits() | flow.ops.to_bits();
        valid &= (tick >= next) & (bits != 0);
        zero |= bits << 1 == 0;
        next = tick + 1;
    }
    valid.then_some(zero)
}

/// Whether every entry of `side` that is `±0.0` throughout sits beside a
/// nonzero entry of `other` at its tick, so that no merged sample is
/// all-zero.
fn zeros_covered_by(side: &[Entry], other: &[Entry]) -> bool {
    side.iter().filter(|e| e.flow().is_zero()).all(|e| {
        let at = other.binary_search_by_key(&e.tick(), Entry::tick);
        at.ok()
            .and_then(|i| other.get(i))
            .is_some_and(|o| !o.flow().is_zero())
    })
}

fn side_sum(side: &[Entry]) -> Flow {
    side.iter().fold(Flow::ZERO, |acc, e| acc + e.flow)
}

fn side_accumulate_into(side: &[Entry], acc: &mut [f64], field: impl Fn(Flow) -> f64) {
    for e in side {
        if let Some(slot) = acc.get_mut(usize::from(e.tick)) {
            *slot += field(e.flow);
        }
    }
}

/// The tick merge of a series' two sides: one sample per tick at which
/// either side holds an entry, the other side [`Flow::ZERO`].
#[derive(Clone, Debug)]
struct Samples<'a> {
    /// The entries of each side not merged yet.
    read: &'a [Entry],
    write: &'a [Entry],
}

impl Iterator for Samples<'_> {
    type Item = SeriesSample;

    #[inline]
    fn next(&mut self) -> Option<SeriesSample> {
        // The side with the smaller next tick goes first; equal ticks
        // merge into one sample.
        let (tick, read, write) = match (self.read.split_first(), self.write.split_first()) {
            (Some((r, read)), Some((w, write))) if r.tick == w.tick => {
                (self.read, self.write) = (read, write);
                (r.tick, r.flow, w.flow)
            }
            (Some((r, read)), Some((w, _))) if r.tick < w.tick => {
                self.read = read;
                (r.tick, r.flow, Flow::ZERO)
            }
            (Some((r, read)), None) => {
                self.read = read;
                (r.tick, r.flow, Flow::ZERO)
            }
            (_, Some((w, write))) => {
                self.write = write;
                (w.tick, Flow::ZERO, w.flow)
            }
            (None, None) => return None,
        };
        Some(SeriesSample {
            tick: u32::from(tick),
            rw: RwFlow { read, write },
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (r, w) = (self.read.len(), self.write.len());
        (r.max(w), Some(r + w))
    }
}

/// A sparse per-entity time series, sorted by tick, holding only ticks with
/// non-zero traffic.
///
/// The series is stored side-split: the read and the write direction each
/// keep their own tick-sorted entries (a tick beside a [`Flow`]), with an
/// entry only where that direction's flow has a nonzero bit pattern (so
/// `-0.0` is kept). Both sides share one exact-size allocation, the read
/// entries first, so a series is a 24-byte header (the entries and the
/// read count) over one heap block. [`Series::samples`] merges the sides
/// back into one [`SeriesSample`] per active tick, the idle side `+0.0`,
/// and equality is equality of that merged sequence.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// The read side's entries, then the write side's.
    entries: Box<[Entry]>,
    /// How many of `entries` are the read side's.
    reads: usize,
}

impl PartialEq for Series {
    fn eq(&self, other: &Self) -> bool {
        self.samples().eq(other.samples())
    }
}

impl Series {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a series from each side's entries, tick-sorted, without
    /// panicking: the one way a series gets entries. Both sides go into
    /// one allocation, made once, at the count their iterators report.
    ///
    /// `None` unless every tick lies below
    /// [`MAX_TICKS`](crate::time::MAX_TICKS), within a side
    /// ticks strictly increase and every flow has a nonzero bit pattern,
    /// and no tick is `±0.0` on both sides (an all-zero sample, which a
    /// series never holds). An entry of one side may share its tick with
    /// one of the other; the two are one merged sample.
    pub fn from_sides<R, W>(read: R, write: W) -> Option<Self>
    where
        R: IntoIterator<Item = (u32, Flow)>,
        R::IntoIter: ExactSizeIterator,
        W: IntoIterator<Item = (u32, Flow)>,
        W::IntoIter: ExactSizeIterator,
    {
        let (read, write) = (read.into_iter(), write.into_iter());
        let mut entries = Vec::with_capacity(read.len() + write.len());
        let mut fits = true;
        let mut narrow = |(tick, flow): (u32, Flow)| {
            let tick = u16::try_from(tick);
            fits &= tick.is_ok();
            Entry {
                tick: tick.unwrap_or(u16::MAX),
                flow,
            }
        };
        entries.extend(read.map(&mut narrow));
        let reads = entries.len();
        entries.extend(write.map(&mut narrow));
        if !fits {
            return None;
        }
        let series = Self {
            entries: entries.into_boxed_slice(),
            reads,
        };
        let (read, write) = (series.side(Op::Read), series.side(Op::Write));
        let read_zero = check_side(read)?;
        let write_zero = check_side(write)?;
        let covered = (!read_zero || zeros_covered_by(read, write))
            && (!write_zero || zeros_covered_by(write, read));
        covered.then_some(series)
    }

    /// Heap bytes the series' entries hold.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<[Entry]>(&self.entries)
    }

    /// One direction's entries, tick-sorted: a read-only view of a side,
    /// holding only the ticks at which that direction's flow has a nonzero
    /// bit pattern.
    pub fn side(&self, op: Op) -> &[Entry] {
        let (read, write) = self
            .entries
            .split_at_checked(self.reads)
            .unwrap_or((&self.entries, &[]));
        match op {
            Op::Read => read,
            Op::Write => write,
        }
    }

    /// Sparse samples, tick-sorted: the tick merge of the two sides.
    pub fn samples(&self) -> impl Iterator<Item = SeriesSample> + Clone + '_ {
        Samples {
            read: self.side(Op::Read),
            write: self.side(Op::Write),
        }
    }

    /// Whether the entity never saw traffic.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum over the whole window. Each side sums its own entries in tick
    /// order. Skipping the `+0.0` a sample holds on its idle side keeps
    /// every bit of the per-sample sum: adding `+0.0` changes only `-0.0`,
    /// which no sum that starts from `+0.0` ever reaches.
    pub fn total(&self) -> RwFlow {
        RwFlow {
            read: side_sum(self.side(Op::Read)),
            write: side_sum(self.side(Op::Write)),
        }
    }

    /// Densify one measure over a grid of `ticks` ticks (zeros where the
    /// entity was idle).
    pub fn dense(&self, ticks: u32, measure: Measure) -> Vec<f64> {
        let mut out = vec![0.0; ticks as usize];
        self.accumulate_into(&mut out, measure);
        out
    }

    /// Add one measure of this series into a dense accumulator (used by
    /// level aggregation without materialising intermediate vectors);
    /// ticks past its end are skipped.
    ///
    /// A one-direction measure walks that side alone. The result equals
    /// adding the measure of every merged sample for any accumulator free
    /// of `-0.0`, the one value the idle side's `+0.0` would change, and an
    /// accumulator that starts at `+0.0` never reaches it. A total measure
    /// walks the merged samples.
    pub fn accumulate_into(&self, acc: &mut [f64], measure: Measure) {
        match measure {
            Measure::ReadBytes => side_accumulate_into(self.side(Op::Read), acc, |f| f.bytes),
            Measure::ReadOps => side_accumulate_into(self.side(Op::Read), acc, |f| f.ops),
            Measure::WriteBytes => side_accumulate_into(self.side(Op::Write), acc, |f| f.bytes),
            Measure::WriteOps => side_accumulate_into(self.side(Op::Write), acc, |f| f.ops),
            Measure::TotalBytes | Measure::TotalOps => {
                for s in self.samples() {
                    if let Some(slot) = acc.get_mut(s.tick as usize) {
                        *slot += measure.of(&s.rw);
                    }
                }
            }
        }
    }

    /// Number of active (non-zero) ticks: the length of the tick merge.
    pub fn active_ticks(&self) -> usize {
        self.samples().count()
    }

    /// The newest tick either side holds, in O(1): `None` for an empty
    /// series.
    pub fn last_tick(&self) -> Option<u32> {
        let last = |op| self.side(op).last().map(Entry::tick);
        last(Op::Read).max(last(Op::Write))
    }
}

/// Compute-domain metric data: one series per queue pair. The fleet supplies
/// the QP → (VD, VM, user, WT, CN) joins of Table 1.
#[derive(Clone, Debug)]
pub struct ComputeMetrics {
    /// Tick grid the series live on.
    pub ticks: TickSpec,
    /// Per-QP series, indexed by [`QpId`].
    pub per_qp: IdVec<QpId, Series>,
}

/// Storage-domain metric data: one series per segment. The fleet supplies
/// the segment → (VD, VM, user, BS, SN) joins of Table 1.
#[derive(Clone, Debug)]
pub struct StorageMetrics {
    /// Tick grid the series live on.
    pub ticks: TickSpec,
    /// Per-segment series, indexed by [`SegId`].
    pub per_seg: IdVec<SegId, Series>,
}

impl ComputeMetrics {
    /// Empty metrics for `qp_count` queue pairs.
    pub fn empty(ticks: TickSpec, qp_count: usize) -> Self {
        Self {
            ticks,
            per_qp: IdVec::from_vec(vec![Series::new(); qp_count]),
        }
    }

    /// Fleet-wide total flow.
    pub fn total(&self) -> RwFlow {
        let mut acc = RwFlow::ZERO;
        for s in self.per_qp.iter() {
            acc += s.total();
        }
        acc
    }
}

impl StorageMetrics {
    /// Empty metrics for `seg_count` segments.
    pub fn empty(ticks: TickSpec, seg_count: usize) -> Self {
        Self {
            ticks,
            per_seg: IdVec::from_vec(vec![Series::new(); seg_count]),
        }
    }

    /// Cluster-wide total flow.
    pub fn total(&self) -> RwFlow {
        let mut acc = RwFlow::ZERO;
        for s in self.per_seg.iter() {
            acc += s.total();
        }
        acc
    }
}

/// The row-per-sample series the side-split storage replaced: the
/// differential oracle for the tests below.
#[cfg(test)]
#[path = "../tests/oracle/series.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::MAX_TICKS;

    /// Whether either field of `flow` has a nonzero bit pattern: unlike
    /// [`Flow::is_zero`], this counts `-0.0`.
    fn has_bits(flow: &Flow) -> bool {
        (flow.bytes.to_bits() | flow.ops.to_bits()) != 0
    }

    fn rw(rb: f64, wb: f64) -> RwFlow {
        RwFlow {
            read: Flow {
                bytes: rb,
                ops: rb / 4096.0,
            },
            write: Flow {
                bytes: wb,
                ops: wb / 4096.0,
            },
        }
    }

    #[test]
    fn flow_arithmetic() {
        let mut f = Flow {
            bytes: 1.0,
            ops: 2.0,
        };
        f += Flow {
            bytes: 3.0,
            ops: 4.0,
        };
        assert_eq!(
            f,
            Flow {
                bytes: 4.0,
                ops: 6.0
            }
        );
        assert!(Flow::ZERO.is_zero());
        assert!(!f.is_zero());
    }

    #[test]
    fn measure_extracts_dimensions() {
        let x = rw(4096.0, 8192.0);
        assert_eq!(Measure::ReadBytes.of(&x), 4096.0);
        assert_eq!(Measure::WriteBytes.of(&x), 8192.0);
        assert_eq!(Measure::TotalBytes.of(&x), 12288.0);
        assert_eq!(Measure::ReadOps.of(&x), 1.0);
        assert_eq!(Measure::WriteOps.of(&x), 2.0);
        assert_eq!(Measure::TotalOps.of(&x), 3.0);
        assert_eq!(Measure::bytes(Op::Read), Measure::ReadBytes);
        assert_eq!(Measure::ops(Op::Write), Measure::WriteOps);
    }

    /// A side's entries as `(tick, flow)` pairs.
    fn pairs(side: &[Entry]) -> Vec<(u32, Flow)> {
        side.iter().map(|e| (e.tick(), e.flow())).collect()
    }

    #[test]
    fn from_sides_matches_the_oracle_and_rejects_what_a_series_never_holds() {
        let rows = [(1, rw(1.0, 0.0)), (2, RwFlow::ZERO), (4, rw(0.0, 2.0))];
        let (built, reference) = both(&rows);
        let [read, write] = [Op::Read, Op::Write].map(|op| pairs(built.side(op)));
        let rebuilt = Series::from_sides(read, write).unwrap();
        assert_eq!(rebuilt, built);
        assert_eq!(rebuilt.samples().collect::<Vec<_>>(), reference.samples());
        assert_eq!(Series::from_sides([], []), Some(Series::new()));
        let f = |bytes| Flow { bytes, ops: 1.0 };
        // A repeat or a step back within a side, or an entry with no bits.
        assert_eq!(Series::from_sides([(1, f(1.0)), (1, f(2.0))], []), None);
        assert_eq!(Series::from_sides([], [(3, f(1.0)), (2, f(1.0))]), None);
        assert_eq!(Series::from_sides([(1, Flow::ZERO)], []), None);
        // A `-0.0` entry is kept only beside a nonzero one: alone it is an
        // all-zero sample, which a series never holds.
        let negative = Flow {
            bytes: -0.0,
            ops: 0.0,
        };
        assert_eq!(Series::from_sides([(1, negative)], [(2, f(1.0))]), None);
        assert!(Series::from_sides([(2, f(1.0))], [(2, negative)]).is_some());
        let kept = Series::from_sides([(1, negative)], [(1, f(1.0))]).unwrap();
        let merged: Vec<SeriesSample> = kept.samples().collect();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].rw.read.bytes.to_bits(), (-0.0f64).to_bits());
        assert_eq!(kept.last_tick(), Some(1));
    }

    #[test]
    fn from_sides_takes_ticks_up_to_the_u16_range() {
        let f = Flow {
            bytes: 1.0,
            ops: 1.0,
        };
        let last = MAX_TICKS - 1;
        let s = Series::from_sides([(0, f), (last, f)], [(last, f)]).unwrap();
        assert_eq!(s.last_tick(), Some(last));
        assert_eq!(pairs(s.side(Op::Write)), [(last, f)]);
        assert_eq!(Series::from_sides([(0, f), (MAX_TICKS, f)], []), None);
        assert_eq!(Series::from_sides([], [(MAX_TICKS, f)]), None);
        assert_eq!(Series::from_sides([(u32::MAX, f)], []), None);
    }

    #[test]
    fn dense_fills_zeros() {
        let s = Series::from_sides([(1, rw(10.0, 0.0).read), (3, rw(30.0, 0.0).read)], []).unwrap();
        let d = s.dense(5, Measure::ReadBytes);
        assert_eq!(d, vec![0.0, 10.0, 0.0, 30.0, 0.0]);
        let mut acc = vec![1.0; 5];
        s.accumulate_into(&mut acc, Measure::ReadBytes);
        assert_eq!(acc, vec![1.0, 11.0, 1.0, 31.0, 1.0]);
    }

    #[test]
    fn metrics_totals_sum_entities() {
        let ticks = TickSpec::new(1.0, 4);
        let mut m = ComputeMetrics::empty(ticks, 2);
        m.per_qp[QpId(0)] = Series::from_sides([(0, rw(5.0, 0.0).read)], []).unwrap();
        m.per_qp[QpId(1)] = Series::from_sides([], [(2, rw(0.0, 9.0).write)]).unwrap();
        let t = m.total();
        assert_eq!(t.read.bytes, 5.0);
        assert_eq!(t.write.bytes, 9.0);
        let sm = StorageMetrics::empty(ticks, 1);
        assert!(sm.total().is_zero());
    }

    const MEASURES: [Measure; 6] = [
        Measure::ReadBytes,
        Measure::WriteBytes,
        Measure::TotalBytes,
        Measure::ReadOps,
        Measure::WriteOps,
        Measure::TotalOps,
    ];

    /// A field value: mostly zeros of either sign and small values that
    /// cancel across pushes of one tick, some fractions.
    fn field(g: &mut SimRng) -> f64 {
        match g.below(8) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 => 1.0,
            4 => -1.0,
            5 => 4096.0,
            6 => 0.1,
            _ => g.f64_range(-1e6, 1e6),
        }
    }

    /// One direction of a push: idle half the time.
    fn side(g: &mut SimRng) -> Flow {
        if g.chance(0.5) {
            Flow::ZERO
        } else {
            Flow {
                bytes: field(g),
                ops: field(g),
            }
        }
    }

    /// A random push sequence: repeated ticks, pushes with both sides,
    /// one side, or neither, and signed zeros.
    fn pushes(g: &mut SimRng, len: u64) -> Vec<(u32, RwFlow)> {
        let mut tick = g.below(3) as u32;
        (0..g.below(len))
            .map(|_| {
                tick += match g.below(3) {
                    0 => 0,
                    _ => 1 + g.below(3) as u32,
                };
                (
                    tick,
                    RwFlow {
                        read: side(g),
                        write: side(g),
                    },
                )
            })
            .collect()
    }

    fn flow_bits(rw: RwFlow) -> [u64; 4] {
        [rw.read.bytes, rw.read.ops, rw.write.bytes, rw.write.ops].map(f64::to_bits)
    }

    fn sample_bits<'a>(samples: impl Iterator<Item = &'a SeriesSample>) -> Vec<(u32, [u64; 4])> {
        samples.map(|s| (s.tick, flow_bits(s.rw))).collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The oracle built by `rows` pushed in order, and the side-split
    /// series built from its samples' sides.
    fn both(rows: &[(u32, RwFlow)]) -> (Series, oracle::Series) {
        let mut reference = oracle::Series::new();
        for &(tick, rw) in rows {
            reference.push(tick, rw);
        }
        (reference.to_split(), reference)
    }

    /// Every read of the side-split series matches the reference bit for
    /// bit.
    fn assert_same_reads(split: &Series, reference: &oracle::Series, other: &oracle::Series) {
        let merged: Vec<SeriesSample> = split.samples().collect();
        assert_eq!(
            sample_bits(merged.iter()),
            sample_bits(reference.samples().iter())
        );
        assert_eq!(split.active_ticks(), reference.active_ticks());
        assert_eq!(split.is_empty(), reference.samples().is_empty());
        assert_eq!(flow_bits(split.total()), flow_bits(reference.total()));
        let last = reference.samples().last().map_or(0, |s| s.tick);
        for measure in MEASURES {
            // A grid past the last tick, and one that cuts the series.
            for ticks in [last + 2, last / 2] {
                let want = reference.dense(ticks, measure);
                assert_eq!(bits(&split.dense(ticks, measure)), bits(&want));
                // Accumulate on top of another series, as a rollup does.
                let mut acc = other.dense(ticks, measure);
                let mut want_acc = acc.clone();
                split.accumulate_into(&mut acc, measure);
                reference.accumulate_into(&mut want_acc, measure);
                assert_eq!(bits(&acc), bits(&want_acc), "{measure:?}");
            }
        }
    }

    /// Each side's entries of some rows: every flow with a nonzero bit
    /// pattern, all-zero samples and repeated ticks included.
    fn sides_of(rows: &[SeriesSample]) -> [Vec<(u32, Flow)>; 2] {
        [|rw: RwFlow| rw.read, |rw: RwFlow| rw.write].map(|side| {
            rows.iter()
                .map(|s| (s.tick, side(s.rw)))
                .filter(|(_, flow)| has_bits(flow))
                .collect()
        })
    }

    /// `built` is what `from_sides` must make of these sides: `None`
    /// unless each side strictly increases with nonzero bits in every flow
    /// and no merged sample is all-zero, and otherwise the push of their
    /// tick merge, exact-size.
    fn assert_same_build(
        built: Option<Series>,
        read: &[(u32, Flow)],
        write: &[(u32, Flow)],
        other: &oracle::Series,
    ) {
        let valid = |side: &[(u32, Flow)]| {
            side.windows(2).all(|w| w[0].0 < w[1].0) && side.iter().all(|(_, f)| has_bits(f))
        };
        let mut merged = std::collections::BTreeMap::<u32, RwFlow>::new();
        for &(tick, flow) in read {
            merged.entry(tick).or_default().read = flow;
        }
        for &(tick, flow) in write {
            merged.entry(tick).or_default().write = flow;
        }
        let want =
            (valid(read) && valid(write) && !merged.values().any(RwFlow::is_zero)).then(|| {
                let mut s = oracle::Series::new();
                for (&tick, &rw) in &merged {
                    s.push(tick, rw);
                }
                s
            });
        assert_eq!(built.is_some(), want.is_some());
        if let (Some(built), Some(want)) = (&built, &want) {
            assert_same_reads(built, want, other);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(miri) { 4 } else { 512 }
        ))]

        #[test]
        fn side_split_series_matches_the_row_oracle(seed in proptest::prelude::any::<u64>()) {
            let mut g = SimRng::seed_from_u64(seed);
            let len = if cfg!(miri) { 12 } else { 200 };
            let (split, reference) = both(&pushes(&mut g, len));
            let (_, other) = both(&pushes(&mut g, len));
            assert_same_reads(&split, &reference, &other);

            // `from_sides` over the sides of rows that may repeat a tick,
            // step back, or hold all-zero samples: the same `None`, or the
            // same series.
            let mut rows: Vec<SeriesSample> = reference.samples().to_vec();
            match g.below(4) {
                0 if !rows.is_empty() => {
                    let at = g.index(rows.len());
                    rows.insert(at, rows[at]);
                }
                1 if rows.len() > 1 => rows.swap(0, 1),
                _ => {
                    // All-zero rows, some with a signed zero on one side.
                    let negative = Flow { bytes: -0.0, ops: 0.0 };
                    for s in rows.iter_mut() {
                        s.rw = match g.below(8) {
                            0 => RwFlow::ZERO,
                            1 => RwFlow { read: negative, write: Flow::ZERO },
                            2 => RwFlow { read: Flow::ZERO, write: negative },
                            _ => s.rw,
                        };
                    }
                }
            }
            let [read, write] = sides_of(&rows);
            assert_same_build(Series::from_sides(read.clone(), write.clone()), &read, &write, &other);

            // A series' own sides rebuild it, cancelled ticks included.
            let [read, write] = [Op::Read, Op::Write].map(|op| pairs(split.side(op)));
            let rebuilt = Series::from_sides(read.clone(), write.clone());
            assert_same_build(rebuilt.clone(), &read, &write, &other);
            assert_eq!(rebuilt.as_ref(), Some(&split));
            assert_eq!(split.last_tick(), reference.samples().last().map(|s| s.tick));

            // Equality is that of the merged samples: flipping the sign of
            // an idle zero adds a column entry but keeps the series equal.
            let mut twin: Vec<(u32, RwFlow)> =
                reference.samples().iter().map(|s| (s.tick, s.rw)).collect();
            for (_, rw) in twin.iter_mut() {
                let f = if g.chance(0.5) {
                    &mut rw.read.bytes
                } else {
                    &mut rw.write.ops
                };
                match g.below(3) {
                    0 if *f == 0.0 => *f = -*f,
                    1 => *f += 1.0,
                    _ => {}
                }
            }
            let (twin_split, twin_ref) = both(&twin);
            assert_eq!(split == twin_split, reference == twin_ref);
        }
    }
}
