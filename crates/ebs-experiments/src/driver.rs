//! The experiment driver: every table and figure of the reproduction as a
//! deterministic parallel job graph.
//!
//! `bin/all` used to run eleven sections back to back; they are almost all
//! independent, so the driver fans them out on the [`ebs_core::parallel`]
//! pool instead. Two properties hold regardless of thread count:
//!
//! * **Shared inputs are borrowed, never cloned.** The dataset, its shared
//!   [`ebs_core::EventIndex`] (built once, zero event copies), and the
//!   stack simulation output are each produced once and lent to every job.
//! * **Output is canonical.** Each job is tagged with its print position;
//!   the driver reassembles sections in the order the serial harness
//!   printed them, no matter which job finishes first.
//!
//! The only real dependency is honored as a phase split: Figure 7 and the
//! extensions consume the simulated latency traces, so they wait for the
//! stack simulation; everything else — including the ablation sweeps and
//! the simulation itself — runs in the first wave.

use crate::scenario::stack_traces;
use crate::{ablations, extensions, fig2, fig3, fig4, fig5, fig6, fig7, table2, table3, table4};
use ebs_core::parallel::par_jobs;
use ebs_stack::SimOutput;
use ebs_workload::Dataset;
use std::sync::Mutex;

/// A section's canonical print position paired with its rendered text.
type Section = (usize, String);

/// Render every section of `bin/all` over `ds`, returning the texts in
/// canonical print order. Parallel across sections (and, inside each
/// section, across its parameter grid), yet byte-identical to the serial
/// harness at any thread count.
pub fn run_all(ds: &Dataset) -> Vec<String> {
    let run_started = ebs_obs::stopwatch();
    let whole_run = ebs_obs::timer("driver.run_all");
    // Build the shared event index up front (one pass over the events);
    // every section that needs a per-VD view borrows slices from it.
    let idx = ds.index();

    type Job<'a> = Box<dyn FnOnce() -> Option<Section> + Send + 'a>;

    /// Run one section under a named stage timer (a no-op when `EBS_OBS`
    /// is off — no clock is read and no label string is built).
    fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
        let _span = ebs_obs::enabled().then(|| ebs_obs::timer(&format!("driver.section.{name}")));
        f()
    }

    // Wave 1: everything that only needs the dataset, plus the stack
    // simulation that wave 2 consumes.
    let sim_slot: Mutex<Option<SimOutput>> = Mutex::new(None);
    let wave1: Vec<Job<'_>> = vec![
        Box::new(|| Some((0, timed("table2", || table2::render(&table2::run(ds)))))),
        Box::new(|| Some((1, timed("table3", || table3::render(&table3::run(ds)))))),
        Box::new(|| Some((2, timed("table4", || table4::render(&table4::run(ds)))))),
        Box::new(|| Some((3, timed("fig2", || fig2::render(&fig2::run(ds)))))),
        Box::new(|| Some((4, timed("fig3", || fig3::render(&fig3::run(ds)))))),
        Box::new(|| Some((5, timed("fig4", || fig4::render(&fig4::run(ds)))))),
        Box::new(|| Some((6, timed("fig5", || fig5::render(&fig5::run(ds)))))),
        Box::new(|| Some((7, timed("fig6", || fig6::render(&fig6::run_with(ds, idx)))))),
        Box::new(|| Some((9, timed("ablations", || ablations::render_with(ds, idx))))),
        Box::new(|| {
            *sim_slot.lock().expect("sim slot") = Some(timed("stack_sim", || stack_traces(ds)));
            None
        }),
    ];
    let mut sections: Vec<Section> = par_jobs(wave1).into_iter().flatten().collect();

    // Wave 2: the sections that consume the simulated traces.
    let sim = sim_slot
        .into_inner()
        .expect("sim slot")
        .expect("sim job ran in wave 1");
    let sim = &sim;
    let wave2: Vec<Job<'_>> = vec![
        Box::new(move || {
            Some((
                8,
                timed("fig7", || fig7::render(&fig7::run_with(ds, sim, idx))),
            ))
        }),
        Box::new(move || {
            Some((
                10,
                timed("extensions", || extensions::render_with(ds, sim, idx)),
            ))
        }),
    ];
    sections.extend(par_jobs(wave2).into_iter().flatten());

    sections.sort_by_key(|&(pos, _)| pos);
    drop(whole_run);
    if let Some(secs) = run_started.elapsed_secs() {
        let events = ds.events.len() as u64;
        ebs_obs::counter_add("driver.events_processed", events);
        ebs_obs::counter_add("driver.sections_rendered", sections.len() as u64);
        if secs > 0.0 {
            ebs_obs::gauge_set("driver.events_per_sec", events as f64 / secs);
        }
    }
    sections.into_iter().map(|(_, text)| text).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{dataset, Scale};
    use ebs_core::parallel::set_thread_override;
    use std::sync::{Mutex, OnceLock};

    /// Serializes tests that flip the global thread override.
    fn override_guard() -> &'static Mutex<()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn sections_come_back_in_canonical_order() {
        let ds = dataset(Scale::Quick);
        let sections = run_all(&ds);
        assert_eq!(sections.len(), 11);
        // Spot-check the canonical sequence by their table titles.
        assert!(
            sections[0].contains("Table 2"),
            "section 0:\n{}",
            sections[0]
        );
        assert!(
            sections[8].contains("Figure 7"),
            "section 8:\n{}",
            sections[8]
        );
        assert!(
            sections[9].contains("Ablation"),
            "section 9:\n{}",
            sections[9]
        );
        assert!(
            sections[10].contains("Extension"),
            "section 10:\n{}",
            sections[10]
        );
    }

    #[test]
    fn driver_output_is_thread_count_invariant() {
        let _guard = override_guard().lock().unwrap();
        let ds = dataset(Scale::Quick);
        set_thread_override(Some(1));
        let serial = run_all(&ds);
        set_thread_override(Some(4));
        let parallel = run_all(&ds);
        set_thread_override(None);
        assert_eq!(serial, parallel);
    }
}
