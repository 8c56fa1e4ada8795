//! # ebs-obs — deterministic observability for the simulators
//!
//! The paper's measurement apparatus is the DiTing tracer (§2.3); this
//! crate is the equivalent lens pointed at our own simulators. It provides
//! a metrics registry (counters, gauges, log-linear histograms reusing
//! [`ebs_analysis::Histogram`], accumulated stage timers), scoped timers,
//! and a structured run report with JSONL/CSV exporters.
//!
//! ## Gating
//!
//! Everything is gated by the `EBS_OBS` environment variable (any value
//! other than `0`/empty enables it) with a programmatic override for tests
//! and harnesses, mirroring `ebs-core::parallel`'s `EBS_THREADS` pattern.
//! When off, every instrumentation call is a single relaxed atomic load
//! and a branch — no allocation, no locking, no clock read.
//!
//! ## Determinism contract
//!
//! Instrumentation must never change simulation output: no RNG draws, no
//! reordering, no stdout writes. Counters and histograms merge by
//! addition (commutative), so the recorded totals are identical at any
//! thread count; only wall-clock timer *seconds* vary between runs, and
//! they never feed back into a simulation. `tests/determinism.rs` pins
//! `EBS_OBS=1` output byte-identical to an instrumented-off run.
//!
//! ## Typical use
//!
//! ```
//! // A simulator records locally (no lock per event)…
//! let mut local = ebs_obs::Registry::new();
//! local.counter_add("stack.sim.ios", 1);
//! local.observe("stack.lat.total_us", 812.0);
//! // …and merges once at the end of the run.
//! ebs_obs::merge(&local);
//!
//! // Coarse-grained sites record straight into the global registry.
//! ebs_obs::counter_add("balance.migrations", 3);
//! let _span = ebs_obs::timer("driver.section.table2"); // records on drop
//! ```

pub mod registry;
pub mod report;

pub use ebs_analysis::Histogram;
pub use registry::{Registry, Row, TimerStat};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable enabling the observability layer.
pub const OBS_ENV: &str = "EBS_OBS";

/// Environment variable selecting the run-report base path (the report is
/// written as `<base>.jsonl`; default `OBS_report`).
pub const OBS_OUT_ENV: &str = "EBS_OBS_OUT";

/// Process-wide programmatic override: 0 = not set, 1 = forced off,
/// 2 = forced on.
static OBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `EBS_OBS` value, resolved once.
static DEFAULT_ENABLED: OnceLock<bool> = OnceLock::new();

/// The global registry instrumentation sites record into.
static GLOBAL: OnceLock<Mutex<Registry>> = OnceLock::new();

fn global() -> &'static Mutex<Registry> {
    GLOBAL.get_or_init(|| Mutex::new(Registry::new()))
}

/// Force observability on/off for this process (tests, harnesses).
/// `None` restores the `EBS_OBS` environment default.
pub fn set_obs_override(enabled: Option<bool>) {
    let v = match enabled {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    OBS_OVERRIDE.store(v, Ordering::SeqCst);
}

/// Whether instrumentation is live right now.
#[inline]
#[allow(clippy::disallowed_methods, reason = "the named `EBS_OBS` read")]
pub fn enabled() -> bool {
    match OBS_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => *DEFAULT_ENABLED.get_or_init(|| {
            std::env::var(OBS_ENV)
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false)
        }),
    }
}

/// Add `n` to the global counter `name`. No-op when disabled.
///
/// Telemetry is best-effort: a poisoned registry mutex (some thread
/// panicked while recording) drops the sample instead of cascading the
/// panic into the — otherwise total — caller. This holds for every
/// global-registry entry point below.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        if let Ok(mut g) = global().lock() {
            g.counter_add(name, n);
        }
    }
}

/// Set the global gauge `name`. No-op when disabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        if let Ok(mut g) = global().lock() {
            g.gauge_set(name, v);
        }
    }
}

/// Record a batch into the global histogram `name` under one lock
/// acquisition. No-op when disabled.
#[inline]
pub fn observe_many(name: &str, vs: &[f64]) {
    if enabled() {
        if let Ok(mut g) = global().lock() {
            g.observe_many(name, vs);
        }
    }
}

/// Merge a locally recorded registry into the global one. This is the
/// hot-path pattern: record into a private [`Registry`] (or plain local
/// counters), then merge once. No-op when disabled.
pub fn merge(local: &Registry) {
    if enabled() {
        if let Ok(mut g) = global().lock() {
            g.merge(local);
        }
    }
}

/// Snapshot the global registry (a deep copy; empty if poisoned).
pub fn snapshot() -> Registry {
    global()
        .lock()
        .map(|g| g.clone())
        .unwrap_or_else(|_| Registry::new())
}

/// Clear the global registry (tests, or between independent runs in one
/// process).
pub fn reset() {
    if let Ok(mut g) = global().lock() {
        *g = Registry::new();
    }
}

/// A scoped stage timer: records wall-clock seconds into the global
/// registry's timer `name` when dropped. When observability is off the
/// construction is free — no clock is read.
#[must_use = "the span is measured from construction to drop"]
pub struct StageTimer {
    armed: Option<(String, Instant)>,
}

/// Start a scoped timer for stage `name`.
#[allow(clippy::disallowed_methods, reason = "obs owns the wall clock")]
pub fn timer(name: &str) -> StageTimer {
    StageTimer {
        armed: enabled().then(|| (name.to_string(), Instant::now())),
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some((name, start)) = self.armed.take() {
            let secs = start.elapsed().as_secs_f64();
            // Re-check: if obs was force-disabled mid-span, drop the sample.
            if enabled() {
                if let Ok(mut g) = global().lock() {
                    g.timer_record(&name, secs);
                }
            }
        }
    }
}

/// A manual stopwatch for derived rates (events/sec and friends): armed
/// only while observability is on, so deterministic code paths never read
/// a clock. Unlike [`StageTimer`] it records nothing on its own — callers
/// read [`Stopwatch::elapsed_secs`] and feed whatever gauge they like.
///
/// This is the only sanctioned way for code outside `ebs-obs` and tests to
/// touch wall time (`clippy::disallowed_methods` bans `Instant::now`
/// elsewhere; `DESIGN.md` §13).
#[derive(Debug)]
pub struct Stopwatch {
    started: Option<Instant>,
}

/// Start a stopwatch (a no-op, clock-free value when observability is off).
#[allow(clippy::disallowed_methods, reason = "obs owns the wall clock")]
pub fn stopwatch() -> Stopwatch {
    Stopwatch {
        started: enabled().then(Instant::now),
    }
}

impl Stopwatch {
    /// Seconds since construction, or `None` when observability was off at
    /// construction time.
    pub fn elapsed_secs(&self) -> Option<f64> {
        self.started.map(|t0| t0.elapsed().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the process-wide override / registry.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_sites_record_nothing() {
        let _g = GUARD.lock().unwrap();
        set_obs_override(Some(false));
        reset();
        counter_add("x", 5);
        gauge_set("g", 1.0);
        observe_many("h", &[0.5]);
        let _t = timer("t");
        drop(_t);
        assert!(snapshot().is_empty());
        set_obs_override(None);
    }

    #[test]
    fn enabled_sites_reach_the_global_registry() {
        let _g = GUARD.lock().unwrap();
        set_obs_override(Some(true));
        reset();
        counter_add("x", 5);
        counter_add("x", 2);
        observe_many("h", &[0.1, 0.9]);
        {
            let _t = timer("stage");
        }
        let mut local = Registry::new();
        local.counter_add("x", 3);
        merge(&local);
        let snap = snapshot();
        assert_eq!(snap.counter("x"), 10);
        assert_eq!(snap.hist("h").unwrap().total(), 2);
        assert_eq!(snap.timer("stage").unwrap().count, 1);
        reset();
        set_obs_override(None);
    }

    #[test]
    fn override_beats_environment() {
        let _g = GUARD.lock().unwrap();
        set_obs_override(Some(true));
        assert!(enabled());
        set_obs_override(Some(false));
        assert!(!enabled());
        set_obs_override(None);
    }
}
