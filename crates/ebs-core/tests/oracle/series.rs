//! Reference metric series: the row-per-sample `Vec<SeriesSample>`
//! implementation the side-split storage of `ebs_core::metric::Series`
//! replaced, kept as a differential oracle; its one change since is that a
//! repeated tick whose traffic cancels to zero is dropped. The side-split
//! series must return these exact samples, sums and dense vectors, bit for
//! bit. Tests that need a series built row by row push the rows here and
//! take [`Series::to_split`].
//!
//! Test-only, and self-contained on purpose: it reaches the crate only
//! through public paths, so it never drifts along with the private helpers
//! of the code it checks.

use ebs_core::metric::{Flow, Measure, RwFlow, SeriesSample};

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
    /// order; traffic for a repeated tick accumulates into the last sample,
    /// which is dropped if it cancels to zero.
    pub fn push(&mut self, tick: u32, rw: RwFlow) {
        if rw.is_zero() {
            return;
        }
        if let Some(last) = self.samples.last_mut() {
            assert!(tick >= last.tick, "ticks must be pushed in order");
            if last.tick == tick {
                last.rw += rw;
                if last.rw.is_zero() {
                    self.samples.pop();
                }
                return;
            }
        }
        self.samples.push(SeriesSample { tick, rw });
    }

    /// Sparse samples, tick-sorted.
    pub fn samples(&self) -> &[SeriesSample] {
        &self.samples
    }

    /// Sum over the whole window.
    pub fn total(&self) -> RwFlow {
        let mut acc = RwFlow::ZERO;
        for s in &self.samples {
            acc += s.rw;
        }
        acc
    }

    /// Densify one measure over a grid of `ticks` ticks.
    pub fn dense(&self, ticks: u32, measure: Measure) -> Vec<f64> {
        let mut out = vec![0.0; ticks as usize];
        for s in &self.samples {
            if (s.tick as usize) < out.len() {
                out[s.tick as usize] += measure.of(&s.rw);
            }
        }
        out
    }

    /// Add one measure of this series into a dense accumulator.
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

    /// The side-split series of these samples, built by
    /// `Series::from_sides` from each side's flows with nonzero bits.
    pub fn to_split(&self) -> ebs_core::metric::Series {
        let side = |flow: fn(&RwFlow) -> Flow| -> Vec<(u32, Flow)> {
            self.samples
                .iter()
                .map(|s| (s.tick, flow(&s.rw)))
                .filter(|(_, f)| f.bytes.to_bits() | f.ops.to_bits() != 0)
                .collect()
        };
        ebs_core::metric::Series::from_sides(side(|rw| rw.read), side(|rw| rw.write))
            .expect("a reference series holds no all-zero sample")
    }
}
