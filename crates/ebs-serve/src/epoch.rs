//! Epoch arithmetic: slicing virtual time into fixed half-open windows.
//!
//! The serve loop advances in *epochs* — `[k·E, (k+1)·E)` microsecond
//! windows of virtual time. Every cut here is pure integer arithmetic so
//! the schedule is trivially deterministic and invariant to thread or
//! shard counts; an event whose timestamp lands exactly on a boundary
//! belongs to the *later* epoch (half-open intervals), so it is counted
//! exactly once.
//!
//! This module is in the `ebs-lint` D3 *total* set: malformed input
//! yields typed errors or saturating arithmetic, never a panic.

use ebs_core::error::EbsError;
use ebs_core::io::IoEvent;

/// Length of one virtual-time epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochSpec {
    epoch_us: u64,
}

impl EpochSpec {
    /// An epoch of `epoch_us` microseconds (must be ≥ 1).
    pub fn from_us(epoch_us: u64) -> Result<Self, EbsError> {
        if epoch_us == 0 {
            return Err(EbsError::invalid_config(
                "epoch length must be at least 1 µs",
            ));
        }
        Ok(Self { epoch_us })
    }

    /// An epoch of `secs` virtual seconds (must be positive and finite;
    /// rounded to whole microseconds, minimum 1 µs).
    pub fn from_secs(secs: f64) -> Result<Self, EbsError> {
        if !secs.is_finite() || secs <= 0.0 {
            return Err(EbsError::invalid_config(
                "epoch length must be a positive number of seconds",
            ));
        }
        let us = (secs * 1e6).round();
        if us >= u64::MAX as f64 {
            return Err(EbsError::invalid_config("epoch length overflows u64 µs"));
        }
        Self::from_us((us as u64).max(1))
    }

    /// Epoch length in microseconds.
    pub fn epoch_us(&self) -> u64 {
        self.epoch_us
    }

    /// Epoch length in virtual seconds.
    pub fn secs(&self) -> f64 {
        self.epoch_us as f64 / 1e6
    }

    /// First microsecond of epoch `k` (saturating).
    pub fn start_us(&self, k: u64) -> u64 {
        k.saturating_mul(self.epoch_us)
    }

    /// One past the last microsecond of epoch `k` (saturating).
    pub fn end_us(&self, k: u64) -> u64 {
        self.start_us(k).saturating_add(self.epoch_us)
    }

    /// Number of epochs needed to cover `[0, horizon_us)` (zero for an
    /// empty horizon).
    pub fn count_for(&self, horizon_us: u64) -> u64 {
        horizon_us.div_ceil(self.epoch_us)
    }

    /// Cut a time-sorted event slice into `count` consecutive epoch
    /// slices (empty epochs included). Events at or past `count · E` are
    /// not yielded; [`EpochCuts::consumed`] reports how many were.
    pub fn cuts<'a>(&self, events: &'a [IoEvent], count: u64) -> EpochCuts<'a> {
        EpochCuts {
            events,
            spec: *self,
            k: 0,
            count,
            pos: 0,
        }
    }
}

/// One epoch's share of the stream.
#[derive(Clone, Copy, Debug)]
pub struct EpochSlice<'a> {
    /// Epoch index.
    pub epoch: u64,
    /// First microsecond of the epoch.
    pub start_us: u64,
    /// The epoch's events, in stream order (possibly empty).
    pub events: &'a [IoEvent],
}

/// Iterator over consecutive epoch slices of a time-sorted stream.
#[derive(Clone, Debug)]
pub struct EpochCuts<'a> {
    events: &'a [IoEvent],
    spec: EpochSpec,
    k: u64,
    count: u64,
    pos: usize,
}

impl<'a> EpochCuts<'a> {
    /// Events handed out so far (after exhaustion: events within the
    /// horizon; the remainder fell at or past `count · E`).
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for EpochCuts<'a> {
    type Item = EpochSlice<'a>;

    fn next(&mut self) -> Option<EpochSlice<'a>> {
        if self.k >= self.count {
            return None;
        }
        let k = self.k;
        self.k += 1;
        let end = self.spec.end_us(k);
        let lo = self.pos;
        while self.events.get(self.pos).is_some_and(|ev| ev.t_us < end) {
            self.pos += 1;
        }
        Some(EpochSlice {
            epoch: k,
            start_us: self.spec.start_us(k),
            events: self.events.get(lo..self.pos).unwrap_or(&[]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::ids::{QpId, VdId};
    use ebs_core::io::Op;

    fn ev(t_us: u64) -> IoEvent {
        IoEvent {
            t_us,
            vd: VdId(0),
            qp: QpId(0),
            op: Op::Read,
            size: 4096,
            offset: 0,
        }
    }

    #[test]
    fn spec_rejects_degenerate_lengths() {
        assert!(EpochSpec::from_us(0).is_err());
        assert!(EpochSpec::from_secs(0.0).is_err());
        assert!(EpochSpec::from_secs(-1.0).is_err());
        assert!(EpochSpec::from_secs(f64::NAN).is_err());
        assert!(EpochSpec::from_secs(f64::INFINITY).is_err());
        assert_eq!(EpochSpec::from_secs(1.0).unwrap().epoch_us(), 1_000_000);
        // Sub-microsecond epochs clamp to the 1 µs floor.
        assert_eq!(EpochSpec::from_secs(1e-9).unwrap().epoch_us(), 1);
    }

    #[test]
    fn boundary_event_lands_in_exactly_one_epoch() {
        let spec = EpochSpec::from_us(100).unwrap();
        // t = 100 is *exactly* the edge between epochs 0 and 1.
        let events = [ev(0), ev(99), ev(100), ev(101), ev(199), ev(200)];
        let slices: Vec<_> = spec.cuts(&events, 3).collect();
        assert_eq!(slices.len(), 3);
        let lens: Vec<usize> = slices.iter().map(|s| s.events.len()).collect();
        assert_eq!(lens, vec![2, 3, 1]);
        // Each event appears exactly once, in order.
        let total: usize = lens.iter().sum();
        assert_eq!(total, events.len());
        assert_eq!(slices[1].events[0].t_us, 100, "edge event opens epoch 1");
    }

    #[test]
    fn empty_epochs_are_yielded() {
        let spec = EpochSpec::from_us(10).unwrap();
        let events = [ev(0), ev(35)];
        let slices: Vec<_> = spec.cuts(&events, 4).collect();
        let lens: Vec<usize> = slices.iter().map(|s| s.events.len()).collect();
        assert_eq!(lens, vec![1, 0, 0, 1]);
        assert_eq!(slices[2].start_us, 20);
    }

    #[test]
    fn horizon_truncates_and_reports_consumption() {
        let spec = EpochSpec::from_us(10).unwrap();
        let events = [ev(0), ev(5), ev(25)];
        let mut cuts = spec.cuts(&events, 1);
        assert_eq!(cuts.by_ref().count(), 1);
        assert_eq!(cuts.consumed(), 2, "event at t=25 is past the horizon");
    }

    #[test]
    fn count_for_covers_the_horizon() {
        let spec = EpochSpec::from_us(60_000_000).unwrap();
        assert_eq!(spec.count_for(0), 0);
        assert_eq!(spec.count_for(1), 1);
        assert_eq!(spec.count_for(60_000_000), 1);
        assert_eq!(spec.count_for(60_000_001), 2);
        // The last event is *covered* by count_for(last + 1).
        let last = 7_200_000_000u64;
        let count = spec.count_for(last + 1);
        assert!(spec.start_us(count - 1) <= last && last < spec.end_us(count - 1));
    }

    #[test]
    fn saturating_edges_do_not_wrap() {
        let spec = EpochSpec::from_us(u64::MAX).unwrap();
        assert_eq!(spec.end_us(1), u64::MAX);
        assert_eq!(spec.start_us(u64::MAX), u64::MAX);
    }
}
