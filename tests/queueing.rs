//! Queueing oracles for the worker-thread queues: closed-form answers the
//! simulator must reproduce, after the queueing view of data-access load
//! in Aktaş & Soljanin (PAPERS.md).
//!
//! - Pollaczek–Khinchine: one `WtQueues` worker fed seeded Poisson
//!   arrivals, with service drawn from the compute stage of the default
//!   latency model. Its mean wait must match `λE[S²] / (2(1 − ρ))`.
//! - Little's law: at medium scale, for every WT queue, the
//!   time-integral of the queue length (read off the arrival and
//!   departure counting processes) equals the sum of the waits the
//!   simulator charged on that queue.

use ebs::core::ids::WtId;
use ebs::core::rng::SimRng;
use ebs::stack::hypervisor::WtQueues;
use ebs::stack::latency::StageParams;
use ebs::stack::{LatencyModel, StackConfig, StackSim};
use ebs::workload::{generate, WorkloadConfig};

/// First two moments of one stage's latency at `size` bytes:
/// `mean · J · T`, with `J` the unit-median lognormal jitter and `T` the
/// two-point tail (`tail_mult` with probability `tail_prob`, else 1).
fn stage_moments(p: &StageParams, size: u32) -> (f64, f64) {
    let mean = p.base_us + size as f64 / p.bytes_per_us;
    let s2 = p.jitter_sigma * p.jitter_sigma;
    let (j1, j2) = ((s2 / 2.0).exp(), (2.0 * s2).exp());
    let q = p.tail_prob;
    let t1 = 1.0 - q + q * p.tail_mult;
    let t2 = 1.0 - q + q * p.tail_mult * p.tail_mult;
    (mean * j1 * t1, mean * mean * j2 * t2)
}

#[test]
fn mean_wait_matches_pollaczek_khinchine() {
    const SIZE: u32 = 4096;
    const WARMUP: usize = 20_000;
    const BATCHES: usize = 40;
    const BATCH: usize = 25_000;
    // Half-width of the band in batch standard errors: two-sided
    // p ≈ 3e-4 under Student's t with 39 degrees of freedom.
    const T_BAND: f64 = 4.0;
    let stage = LatencyModel::default().compute;
    let (es, es2) = stage_moments(&stage, SIZE);
    for (rho, seed) in [(0.5, 0x9C_0005), (0.7, 0x9C_0007)] {
        let lambda = rho / es;
        let expected = lambda * es2 / (2.0 * (1.0 - rho));
        let mut arrivals = SimRng::seed_from_u64(seed);
        let mut service = SimRng::seed_from_u64(seed ^ 0x5E4_71CE);
        let mut queue = WtQueues::new(1);
        let mut t = 0.0;
        let mut next_wait = || {
            t += -(1.0 - arrivals.next_f64()).ln() / lambda;
            queue.serve(WtId(0), t, stage.sample(&mut service, SIZE))
        };
        for _ in 0..WARMUP {
            next_wait();
        }
        let means: Vec<f64> = (0..BATCHES)
            .map(|_| (0..BATCH).map(|_| next_wait()).sum::<f64>() / BATCH as f64)
            .collect();
        let mean = means.iter().sum::<f64>() / BATCHES as f64;
        let var = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (BATCHES - 1) as f64;
        let se = (var / BATCHES as f64).sqrt();
        assert!(
            se < 0.03 * expected,
            "ρ={rho}: batch SE {se:.4} µs is too wide to test against {expected:.4} µs"
        );
        assert!(
            (mean - expected).abs() <= T_BAND * se,
            "ρ={rho}: mean wait {mean:.4} µs vs P-K {expected:.4} µs (±{:.4})",
            T_BAND * se
        );
    }
}

#[test]
fn every_wt_queue_obeys_littles_law_at_medium_scale() {
    let ds = generate(&WorkloadConfig::medium(0x11771E)).expect("medium config validates");
    // Deterministic compute service, so each IO's charged wait is its
    // compute latency minus a known service time; no throttle, so the
    // compute latency is exactly wait + service. A 10 ms service makes
    // the sampled stream's bursts queue on most busy WTs.
    let mut config = StackConfig {
        apply_throttle: false,
        ..StackConfig::default()
    };
    config.latency.compute.jitter_sigma = 0.0;
    config.latency.compute.tail_prob = 0.0;
    config.latency.compute.base_us = 10_000.0;
    let stage = config.latency.compute;
    let sim = StackSim::new(&ds.fleet, config);
    let plan = sim.plan(&ds.events).expect("time-sorted events");
    let out = sim.run_planned(&ds.events, &plan).expect("planned run");

    // Per WT: (arrival, departure, service) of every IO it served.
    let mut per_wt: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); ds.fleet.wt_total as usize];
    for ((ev, route), lat) in ds.events.iter().zip(plan.routes()).zip(&out.lat) {
        let arrival = ev.t_us as f64;
        let service = stage.base_us + ev.size as f64 / stage.bytes_per_us;
        per_wt[route.wt.index()].push((arrival, arrival + lat.compute_us, service));
    }
    let (mut busy_wts, mut queued_wts) = (0, 0);
    for (wt, ios) in per_wt.iter().enumerate() {
        let charged: f64 = ios.iter().map(|&(a, d, s)| d - a - s).sum();
        // Sweep the counting processes: N(t) = arrivals − departures so
        // far; one IO is in service whenever N > 0, the rest queue.
        let mut marks: Vec<(f64, i64)> = ios
            .iter()
            .flat_map(|&(a, d, _)| [(a, 1), (d, -1)])
            .collect();
        marks.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        let (mut in_system, mut last, mut integral) = (0i64, 0.0, 0.0);
        for (t, step) in marks {
            integral += (in_system - 1).max(0) as f64 * (t - last);
            in_system += step;
            last = t;
        }
        assert_eq!(in_system, 0, "wt {wt}: the queue must drain");
        // Rounding only: every time carries an ulp of the horizon.
        let tol = 8.0 * f64::EPSILON * last * ios.len() as f64;
        assert!(
            (integral - charged).abs() <= tol,
            "wt {wt}: ∫Q dt = {integral} µs but the simulator charged {charged} µs of waits"
        );
        busy_wts += usize::from(!ios.is_empty());
        queued_wts += usize::from(charged > 1_000.0);
    }
    assert!(
        3 * queued_wts >= busy_wts,
        "only {queued_wts} of {busy_wts} busy WTs queued for over 1 ms: the oracle tests little"
    );
}
