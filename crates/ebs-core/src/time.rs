//! Simulated time.
//!
//! The metric dataset is a sequence of fixed-width *ticks* (the paper
//! aggregates at one-second granularity; our scale-reduced fleets default to
//! a few seconds per tick). [`TickSpec`] describes a tick grid; latencies and
//! event timestamps are carried in microseconds (`u64`).

/// Description of a uniform tick grid covering the observation window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TickSpec {
    /// Width of one tick in seconds.
    pub tick_secs: f64,
    /// Number of ticks in the observation window.
    pub ticks: u32,
}

impl TickSpec {
    /// A grid of `ticks` ticks, each `tick_secs` seconds wide.
    pub fn new(tick_secs: f64, ticks: u32) -> Self {
        assert!(tick_secs > 0.0, "tick width must be positive");
        assert!(ticks > 0, "need at least one tick");
        Self { tick_secs, ticks }
    }

    /// Grid covering `total_secs` seconds with `tick_secs`-wide ticks
    /// (rounding the tick count up so the window is fully covered).
    pub fn covering(total_secs: f64, tick_secs: f64) -> Self {
        let ticks = (total_secs / tick_secs).ceil().max(1.0) as u32;
        Self::new(tick_secs, ticks)
    }

    /// Total length of the observation window in seconds.
    pub fn total_secs(&self) -> f64 {
        self.tick_secs * self.ticks as f64
    }

    /// Tick containing the microsecond timestamp `t_us` (clamped to the
    /// final tick for timestamps at or past the window end).
    pub fn tick_of_us(&self, t_us: u64) -> u32 {
        let t = (t_us as f64 / (self.tick_secs * 1e6)).floor() as u32;
        t.min(self.ticks - 1)
    }

    /// Number of ticks per aggregation window of `window_secs` seconds
    /// (at least one).
    pub fn ticks_per_window(&self, window_secs: f64) -> u32 {
        ((window_secs / self.tick_secs).round() as u32).max(1)
    }
}

/// Longest tick grid a metric series can address: series entries store
/// their tick as a `u16`, so ticks run `0..MAX_TICKS`. The paper's metric
/// window (12 h at one-second ticks, §2.3) is 43,200 ticks.
pub const MAX_TICKS: u32 = 1 << 16;

/// The paper's observation window: a 12-hour daytime span (§3.1).
pub const OBSERVATION_SECS: f64 = 12.0 * 3600.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_rounds_up() {
        let spec = TickSpec::covering(100.0, 30.0);
        assert_eq!(spec.ticks, 4);
        assert!((spec.total_secs() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn tick_of_us_maps_and_clamps() {
        let spec = TickSpec::new(5.0, 10);
        assert_eq!(spec.tick_of_us(0), 0);
        assert_eq!(spec.tick_of_us(4_999_999), 0);
        assert_eq!(spec.tick_of_us(5_000_000), 1);
        assert_eq!(spec.tick_of_us(u64::MAX / 2), 9);
    }

    #[test]
    fn windows_partition_the_grid() {
        let spec = TickSpec::new(5.0, 9);
        assert_eq!(spec.ticks_per_window(15.0), 3);
    }

    #[test]
    #[should_panic(expected = "tick width must be positive")]
    fn zero_tick_width_rejected() {
        let _ = TickSpec::new(0.0, 5);
    }
}
