//! Second-level metric aggregates (the paper's *metric data*, §2.3).
//!
//! Unlike the sampled trace, the metric dataset covers **every** IO: per
//! tick it records bytes and operation counts, split by read/write, for each
//! queue pair (compute domain) and each segment (storage domain) — the
//! format of Table 1. Series are stored sparsely (only ticks with traffic),
//! which matches the bursty ON/OFF shape of real EBS traffic.
//!
//! The series are most of a dataset's memory: one [`SeriesSample`] is 40
//! bytes (a `u32` tick padded beside four `f64`s), against 32 bytes per
//! sampled event, and a medium dataset holds several samples per event.
//! Every dataset builder therefore finishes its series exact-size
//! ([`Series::shrink_to_fit`], or [`Series::from_samples`] over an
//! exactly sized vector); a `push`-grown series would otherwise keep up
//! to half its capacity as doubling slack.

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

/// A sparse per-entity time series, sorted by tick, holding only ticks with
/// non-zero traffic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    samples: Vec<SeriesSample>,
}

impl Series {
    /// Empty series.
    pub fn new() -> Self {
        Self {
            samples: Vec::new(),
        }
    }

    /// Append traffic for `tick`. Ticks must be pushed in non-decreasing
    /// order; traffic for a repeated tick accumulates into the last sample.
    pub fn push(&mut self, tick: u32, rw: RwFlow) {
        if rw.is_zero() {
            return;
        }
        if let Some(last) = self.samples.last_mut() {
            assert!(tick >= last.tick, "ticks must be pushed in order");
            if last.tick == tick {
                last.rw += rw;
                return;
            }
        }
        self.samples.push(SeriesSample { tick, rw });
    }

    /// Build a series from whole columns of samples, the non-panicking
    /// counterpart of a [`Series::push`] loop: ticks must strictly
    /// increase (`None` otherwise, where `push` would panic or merge), and
    /// all-zero samples are dropped exactly as `push` drops them. The
    /// vector is kept as is, so a caller that sizes it exactly gets a
    /// series with no growth slack.
    pub fn from_samples(mut samples: Vec<SeriesSample>) -> Option<Self> {
        let increasing = samples
            .iter()
            .zip(samples.iter().skip(1))
            .all(|(a, b)| a.tick < b.tick);
        if !increasing {
            return None;
        }
        samples.retain(|s| !s.rw.is_zero());
        Some(Self { samples })
    }

    /// Drop the growth slack a [`Series::push`] loop leaves behind, so the
    /// series holds exactly its samples. The samples are unchanged.
    pub fn shrink_to_fit(&mut self) {
        self.samples.shrink_to_fit();
    }

    /// Samples the series can hold without reallocating; equals
    /// [`Series::active_ticks`] once the series is exact-size.
    pub fn capacity(&self) -> usize {
        self.samples.capacity()
    }

    /// Sparse samples, tick-sorted.
    pub fn samples(&self) -> &[SeriesSample] {
        &self.samples
    }

    /// Whether the entity never saw traffic.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum over the whole window.
    pub fn total(&self) -> RwFlow {
        let mut acc = RwFlow::ZERO;
        for s in &self.samples {
            acc += s.rw;
        }
        acc
    }

    /// Densify one measure over a grid of `ticks` ticks (zeros where the
    /// entity was idle).
    pub fn dense(&self, ticks: u32, measure: Measure) -> Vec<f64> {
        let mut out = vec![0.0; ticks as usize];
        for s in &self.samples {
            if (s.tick as usize) < out.len() {
                out[s.tick as usize] += measure.of(&s.rw);
            }
        }
        out
    }

    /// Add one measure of this series into a dense accumulator (used by
    /// level aggregation without materialising intermediate vectors).
    pub fn accumulate_into(&self, acc: &mut [f64], measure: Measure) {
        for s in &self.samples {
            if (s.tick as usize) < acc.len() {
                acc[s.tick as usize] += measure.of(&s.rw);
            }
        }
    }

    /// Number of active (non-zero) ticks.
    pub fn active_ticks(&self) -> usize {
        self.samples.len()
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn series_push_merges_equal_ticks_and_skips_zero() {
        let mut s = Series::new();
        s.push(0, rw(1.0, 0.0));
        s.push(0, rw(2.0, 0.0));
        s.push(3, RwFlow::ZERO);
        s.push(5, rw(0.0, 7.0));
        assert_eq!(s.active_ticks(), 2);
        assert_eq!(s.samples()[0].rw.read.bytes, 3.0);
        assert_eq!(s.samples()[1].tick, 5);
        let t = s.total();
        assert_eq!(t.read.bytes, 3.0);
        assert_eq!(t.write.bytes, 7.0);
    }

    #[test]
    fn from_samples_matches_push_and_rejects_disorder() {
        let rows = [(1, rw(1.0, 0.0)), (2, RwFlow::ZERO), (4, rw(0.0, 2.0))];
        let mut pushed = Series::new();
        for &(tick, flow) in &rows {
            pushed.push(tick, flow);
        }
        let samples = |rows: &[(u32, RwFlow)]| -> Vec<SeriesSample> {
            rows.iter()
                .map(|&(tick, rw)| SeriesSample { tick, rw })
                .collect()
        };
        assert_eq!(Series::from_samples(samples(&rows)), Some(pushed));
        assert_eq!(Series::from_samples(Vec::new()), Some(Series::new()));
        // A repeat or a step back is `None`, even on a row `push` would
        // drop as all-zero.
        let repeat = [(1, rw(1.0, 0.0)), (1, RwFlow::ZERO)];
        assert_eq!(Series::from_samples(samples(&repeat)), None);
        let back = [(3, rw(1.0, 0.0)), (2, rw(1.0, 0.0))];
        assert_eq!(Series::from_samples(samples(&back)), None);
    }

    #[test]
    #[should_panic(expected = "ticks must be pushed in order")]
    fn series_rejects_out_of_order_ticks() {
        let mut s = Series::new();
        s.push(5, rw(1.0, 0.0));
        s.push(4, rw(1.0, 0.0));
    }

    #[test]
    fn dense_fills_zeros() {
        let mut s = Series::new();
        s.push(1, rw(10.0, 0.0));
        s.push(3, rw(30.0, 0.0));
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
        m.per_qp[QpId(0)].push(0, rw(5.0, 0.0));
        m.per_qp[QpId(1)].push(2, rw(0.0, 9.0));
        let t = m.total();
        assert_eq!(t.read.bytes, 5.0);
        assert_eq!(t.write.bytes, 9.0);
        let sm = StorageMetrics::empty(ticks, 1);
        assert!(sm.total().is_zero());
    }
}
