//! The metrics registry: counters, gauges, log-linear histograms, and
//! accumulated stage timers, all keyed by dotted metric names.
//!
//! The registry is a plain value type — the global instance lives in
//! [`crate::global`] behind a mutex, but simulators that run on worker
//! threads record into a private `Registry` and [`Registry::merge`] it in
//! at the end, so the hot path never touches a shared lock per event.
//!
//! Determinism contract: counters and histogram buckets merge by addition and
//! timer stats by `(sum, count, max)`, all commutative, so the merged
//! totals are identical no matter which worker finished first. Export
//! ordering is canonical (kind, then name), never insertion order. The one
//! intentionally non-deterministic *value* is wall-clock seconds inside
//! [`TimerStat`]; its `count` is deterministic and its seconds never feed
//! back into any simulation.

use ebs_analysis::Histogram;
use std::collections::BTreeMap;

/// Accumulated wall-clock time of one named stage.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimerStat {
    /// Total seconds across all recorded spans.
    pub seconds: f64,
    /// Number of spans recorded.
    pub count: u64,
    /// Longest single span in seconds.
    pub max_seconds: f64,
}

impl TimerStat {
    /// Fold one span into the stat.
    pub fn record(&mut self, seconds: f64) {
        self.seconds += seconds;
        self.count += 1;
        self.max_seconds = self.max_seconds.max(seconds);
    }

    /// Fold another stat into this one (commutative).
    pub fn merge(&mut self, other: &TimerStat) {
        // ebs-lint: allow(D7) -- wall-clock telemetry fold; spans are nondeterministic by nature and never reach deterministic output (rule D2)
        self.seconds += other.seconds;
        self.count += other.count;
        self.max_seconds = self.max_seconds.max(other.max_seconds);
    }
}

/// One exported metric row, in canonical order.
#[derive(Clone, Debug, PartialEq)]
pub enum Row {
    /// Monotonic count.
    Counter {
        /// Metric name.
        name: String,
        /// Current count.
        value: u64,
    },
    /// Point-in-time value (last write wins).
    Gauge {
        /// Metric name.
        name: String,
        /// Current value.
        value: f64,
    },
    /// Log-linear histogram.
    Hist {
        /// Metric name.
        name: String,
        /// The histogram itself.
        hist: Histogram,
    },
    /// Accumulated stage timer.
    Timer {
        /// Stage name.
        name: String,
        /// Accumulated spans.
        stat: TimerStat,
    },
}

impl Row {
    /// The metric name.
    pub fn name(&self) -> &str {
        match self {
            Row::Counter { name, .. }
            | Row::Gauge { name, .. }
            | Row::Hist { name, .. }
            | Row::Timer { name, .. } => name,
        }
    }

    /// The metric kind as a lowercase label.
    pub fn kind(&self) -> &'static str {
        match self {
            Row::Counter { .. } => "counter",
            Row::Gauge { .. } => "gauge",
            Row::Hist { .. } => "histogram",
            Row::Timer { .. } => "timer",
        }
    }
}

/// A set of named metrics. See the module docs for the merge/ordering
/// contract.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    timers: BTreeMap<String, TimerStat>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.timers.is_empty()
    }

    /// Add `n` to the counter `name` (created at zero on first use).
    pub fn counter_add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Set the gauge `name` to `v` (last write wins).
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Record `v` into the histogram `name` (created empty on first use).
    pub fn observe(&mut self, name: &str, v: f64) {
        self.observe_many(name, &[v]);
    }

    /// Record a batch into the histogram `name` (one lookup).
    pub fn observe_many(&mut self, name: &str, vs: &[f64]) {
        self.hists
            .entry(name.to_string())
            .or_default()
            .extend(vs.iter().copied());
    }

    /// Fold a pre-built histogram into `name` (created as a copy on first
    /// use, merged bucket-wise after).
    pub fn merge_hist(&mut self, name: &str, hist: &Histogram) {
        match self.hists.entry(name.to_string()) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(hist),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(hist.clone());
            }
        }
    }

    /// Record one wall-clock span for the stage `name`.
    pub fn timer_record(&mut self, name: &str, seconds: f64) {
        self.timers
            .entry(name.to_string())
            .or_default()
            .record(seconds);
    }

    /// Current value of the counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, if one was recorded.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// The timer stat `name`, if one was recorded.
    pub fn timer(&self, name: &str) -> Option<&TimerStat> {
        self.timers.get(name)
    }

    /// Fold `other` into `self`: counters and histogram buckets add, timers
    /// accumulate, gauges take `other`'s value. Merging is commutative for
    /// everything except gauges (documented; gauges are meant to be set
    /// once per run from a single site).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists {
            self.merge_hist(k, h);
        }
        for (k, t) in &other.timers {
            self.timers.entry(k.clone()).or_default().merge(t);
        }
    }

    /// Every metric in canonical export order: counters, then gauges, then
    /// histograms, then timers, each sorted by name. Insertion order never
    /// leaks into the export.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(
            self.counters.len() + self.gauges.len() + self.hists.len() + self.timers.len(),
        );
        rows.extend(self.counters.iter().map(|(name, &value)| Row::Counter {
            name: name.clone(),
            value,
        }));
        rows.extend(self.gauges.iter().map(|(name, &value)| Row::Gauge {
            name: name.clone(),
            value,
        }));
        rows.extend(self.hists.iter().map(|(name, hist)| Row::Hist {
            name: name.clone(),
            hist: hist.clone(),
        }));
        rows.extend(self.timers.iter().map(|(name, &stat)| Row::Timer {
            name: name.clone(),
            stat,
        }));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.counter_add("a.x", 2);
        r.counter_add("a.x", 3);
        assert_eq!(r.counter("a.x"), 5);
        assert_eq!(r.counter("never"), 0);
    }

    #[test]
    fn merge_is_commutative_for_counters_and_hists() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.observe("h", 0.1);
        a.timer_record("t", 1.0);
        let mut b = Registry::new();
        b.counter_add("c", 41);
        b.observe("h", 0.9);
        b.timer_record("t", 2.0);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);

        assert_eq!(ab.counter("c"), 42);
        assert_eq!(ab.counter("c"), ba.counter("c"));
        assert_eq!(ab.hist("h").unwrap(), ba.hist("h").unwrap());
        assert_eq!(ab.timer("t").unwrap().count, 2);
        assert_eq!(ab.timer("t").unwrap(), ba.timer("t").unwrap());
    }

    #[test]
    fn export_order_is_kind_then_name_not_insertion() {
        let mut r = Registry::new();
        // Deliberately inserted out of order and across kinds.
        r.timer_record("z.timer", 0.5);
        r.counter_add("b.count", 1);
        r.gauge_set("m.gauge", 7.0);
        r.counter_add("a.count", 1);
        r.observe("k.hist", 0.5);
        let names: Vec<(&'static str, String)> = r
            .rows()
            .iter()
            .map(|row| (row.kind(), row.name().to_string()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("counter", "a.count".to_string()),
                ("counter", "b.count".to_string()),
                ("gauge", "m.gauge".to_string()),
                ("histogram", "k.hist".to_string()),
                ("timer", "z.timer".to_string()),
            ]
        );
    }

    #[test]
    fn merge_into_empty_equals_clone() {
        let mut a = Registry::new();
        a.counter_add("x", 9);
        a.gauge_set("g", 1.5);
        a.observe_many("h", &[1.0, 2.0, 9.0]);
        let mut empty = Registry::new();
        empty.merge(&a);
        assert_eq!(empty.rows(), a.rows());
    }

    #[test]
    fn timer_stats_track_sum_count_max() {
        let mut t = TimerStat::default();
        t.record(1.0);
        t.record(3.0);
        t.record(2.0);
        assert_eq!(t.count, 3);
        assert!((t.seconds - 6.0).abs() < 1e-12);
        assert!((t.max_seconds - 3.0).abs() < 1e-12);
    }
}
