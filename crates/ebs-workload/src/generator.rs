//! The dataset generator: ties fleet, spatial plan, temporal envelopes, and
//! the LBA model together into metric data and sampled traces.
//!
//! For every VD and direction the generator:
//!
//! 1. draws an ON/OFF envelope on the compute-tick grid (temporal shape),
//! 2. scales it by the VD's window-total bytes from the spatial plan,
//! 3. books each active tick's flow onto one QP (drawn from the VD's
//!    per-op QP weights) in the compute-domain metrics,
//! 4. books the hot-fraction share onto the VD's hot segment and the cold
//!    remainder onto one weighted-random cold segment in the
//!    storage-domain metrics (coarser tick grid), and
//! 5. thins the tick's operations at 1/3200 into sampled [`IoEvent`]s with
//!    burst-clustered sub-tick timestamps, mixture-drawn sizes, and
//!    LBA-model offsets.
//!
//! All randomness comes from per-VD streams of the master seed, so
//! generation is deterministic and order-independent across VDs. That
//! guarantee is what lets the generator fan VDs out across worker threads
//! ([`ebs_core::parallel`]): each VD books its traffic into private partial
//! accumulators which are merged in VD order, so parallel generation is
//! byte-identical to serial at any thread count.

use crate::config::WorkloadConfig;
use crate::dataset::Dataset;
use crate::dist::onoff::OnOffEnvelope;
use crate::fleet::build_fleet;
use crate::lba::{LbaModel, HOT_WINDOW_SECS};
use crate::profile::AppProfile;
use crate::sampler::{sampled_count, BurstClock};
use crate::spatial::{build_plan, TrafficPlan};
use ebs_core::error::EbsError;
use ebs_core::io::{IoEvent, Op};
use ebs_core::metric::{ComputeMetrics, Flow, RwFlow, Series, StorageMetrics};
use ebs_core::parallel::par_map_deterministic;
use ebs_core::rng::RngFactory;
use ebs_core::topology::{Fleet, Vd};

/// Generate a complete synthetic dataset from `config`.
pub fn generate(config: &WorkloadConfig) -> Result<Dataset, EbsError> {
    let fleet = build_fleet(config)?;
    generate_for_fleet(config, fleet)
}

/// Generate a dataset over an existing fleet (lets callers customise the
/// topology before generation).
///
/// VDs are generated in parallel (`EBS_THREADS` workers). Each VD's RNG
/// stream is derived solely from the master seed and the VD id, and each VD
/// books traffic only onto its own QPs and segments, so the per-VD partials
/// merge in VD order into exactly the dataset a serial pass produces.
pub fn generate_for_fleet(config: &WorkloadConfig, fleet: Fleet) -> Result<Dataset, EbsError> {
    config.validate()?;
    let plan = build_plan(config, &fleet);
    let rngf = RngFactory::new(config.seed).child("traffic");

    let cticks = config.compute_ticks();
    let sticks = config.storage_ticks();
    let mut compute = ComputeMetrics::empty(cticks, fleet.qps.len());
    let mut storage = StorageMetrics::empty(sticks, fleet.segments.len());

    // Per-VD fan-out: independent units, each with a private accumulator.
    // Each partial drops its growth slack as soon as its VD is done: every
    // partial lives until the merge, and the dataset keeps its series.
    let partials = par_map_deterministic(fleet.vds.as_slice(), |_, vd| {
        let mut partial = generate_vd(config, &fleet, &plan, &rngf, vd);
        partial.shrink_to_fit();
        partial
    });

    // Merge in VD order. QP and segment ranges are disjoint across VDs, so
    // installing each partial's series is exactly the booking the serial
    // loop performed.
    let mut events: Vec<IoEvent> =
        Vec::with_capacity(partials.iter().map(|p| p.events.len()).sum());
    for partial in partials {
        let vd = &fleet.vds[partial.vd];
        for (qp_local, series) in partial.qp_series.into_iter().enumerate() {
            if !series.is_empty() {
                compute.per_qp[vd.qps().nth(qp_local).expect("local QP index")] = series;
            }
        }
        for (seg_local, series) in partial.seg_series.into_iter().enumerate() {
            if !series.is_empty() {
                storage.per_seg[vd.segments().nth(seg_local).expect("local segment index")] =
                    series;
            }
        }
        events.extend(partial.events);
    }

    // Pre-sort order is VD-major exactly like the serial loop's pushes, and
    // the sort is stable, so ties resolve identically.
    events.sort_by_key(|e| e.t_us);
    Ok(Dataset {
        fleet,
        plan,
        compute,
        storage,
        events,
        config: config.clone(),
        index: Default::default(),
    })
}

/// One VD's generated traffic, indexed by the VD-local QP/segment position.
pub(crate) struct VdPartial {
    /// The VD this partial belongs to.
    vd: ebs_core::ids::VdId,
    /// Compute-domain series, one per VD QP (local order).
    pub(crate) qp_series: Vec<Series>,
    /// Storage-domain series, one per VD segment (local order).
    pub(crate) seg_series: Vec<Series>,
    /// Sampled IO events in tick order.
    pub(crate) events: Vec<IoEvent>,
}

impl VdPartial {
    /// Drop the `push` growth slack from every series and the events.
    fn shrink_to_fit(&mut self) {
        for series in self.qp_series.iter_mut().chain(&mut self.seg_series) {
            series.shrink_to_fit();
        }
        self.events.shrink_to_fit();
    }
}

/// Generate one VD's envelopes, bookings, and sampled events from its own
/// RNG stream. Pure function of `(config, fleet, plan, master seed, vd)` —
/// the parallel fan-out relies on that, and the sharded generator
/// ([`crate::shard`]) reuses it so sharded and in-memory generation emit
/// identical per-VD event streams.
pub(crate) fn generate_vd(
    config: &WorkloadConfig,
    fleet: &Fleet,
    plan: &TrafficPlan,
    rngf: &RngFactory,
    vd: &Vd,
) -> VdPartial {
    let cticks = config.compute_ticks();
    let sticks = config.storage_ticks();
    let tick_us = (config.compute_tick_secs * 1e6) as u64;
    let hot_windows_per_tick = config.compute_tick_secs / HOT_WINDOW_SECS;

    let vm = &fleet.vms[vd.vm];
    let profile = AppProfile::for_app(vm.app);
    let mut rng = rngf.stream_n("vd", vd.id.index() as u64);

    let mut lba = LbaModel::generate(&mut rng, vd.spec.capacity_bytes, &profile.hot);

    // Per-op envelopes on the compute grid.
    let env_r = OnOffEnvelope::generate(&mut rng, cticks.ticks, &profile.read_onoff);
    let env_w = OnOffEnvelope::generate(&mut rng, cticks.ticks, &profile.write_onoff);
    let bytes = plan.vd_bytes[vd.id];

    // Merge the two sparse envelopes into one tick-ordered stream.
    let merged = merge_envelopes(&env_r, &env_w);

    // Cumulative QP weights for per-tick QP draws.
    let qps: Vec<_> = vd.qps().collect();
    let qw_read: Vec<f64> = qps.iter().map(|&q| plan.qp_weights[q].read).collect();
    let qw_write: Vec<f64> = qps.iter().map(|&q| plan.qp_weights[q].write).collect();

    // Per-op segment weights; cold draw excludes the hot share.
    let seg_count = vd.segments().len();
    let segw_read = lba.segment_weights(Op::Read);
    let segw_write = lba.segment_weights(Op::Write);
    let hot_seg_read = lba.hot_segment_index(Op::Read) as usize;
    let hot_seg_write = lba.hot_segment_index(Op::Write) as usize;

    let mean_r = profile.read_sizes.mean();
    let mean_w = profile.write_sizes.mean();

    let mut qp_series: Vec<Series> = (0..qps.len()).map(|_| Series::new()).collect();
    let mut seg_series: Vec<Series> = (0..seg_count).map(|_| Series::new()).collect();
    let mut events: Vec<IoEvent> = Vec::new();

    for (tick, wr, ww) in merged {
        let read_bytes = bytes.read * wr;
        let write_bytes = bytes.write * ww;
        let read_ops = read_bytes / mean_r;
        let write_ops = write_bytes / mean_w;
        let t_start_us = tick as u64 * tick_us;
        let window_idx = (tick as f64 * hot_windows_per_tick) as u32;
        let storage_tick = sticks.tick_of_us(t_start_us);

        // --- compute domain: one QP per op per tick.
        if read_bytes > 0.0 {
            let qp = rng.choose_weighted(&qw_read);
            qp_series[qp].push(
                tick,
                RwFlow {
                    read: Flow {
                        bytes: read_bytes,
                        ops: read_ops,
                    },
                    write: Flow::ZERO,
                },
            );
        }
        if write_bytes > 0.0 {
            let qp = rng.choose_weighted(&qw_write);
            qp_series[qp].push(
                tick,
                RwFlow {
                    read: Flow::ZERO,
                    write: Flow {
                        bytes: write_bytes,
                        ops: write_ops,
                    },
                },
            );
        }

        // --- storage domain: hot segment + one cold segment per op.
        for (op, op_bytes, op_ops, segw, hot_seg_local) in [
            (Op::Read, read_bytes, read_ops, &segw_read, hot_seg_read),
            (
                Op::Write,
                write_bytes,
                write_ops,
                &segw_write,
                hot_seg_write,
            ),
        ] {
            if op_bytes <= 0.0 {
                continue;
            }
            let hf = lba.hot_frac_at(op, window_idx);
            let hot_bytes = op_bytes * hf;
            let cold_bytes = op_bytes - hot_bytes;
            let flow_of = |b: f64| {
                let mut rw = RwFlow::ZERO;
                *rw.get_mut(op) = Flow {
                    bytes: b,
                    ops: op_ops * b / op_bytes,
                };
                rw
            };
            if hot_bytes > 0.0 {
                seg_series[hot_seg_local].push(storage_tick, flow_of(hot_bytes));
            }
            if cold_bytes > 0.0 {
                let pick = if seg_count == 1 {
                    0
                } else {
                    // Redraw once if the hot segment comes up, to bias
                    // cold traffic away from it without a second
                    // weight table.
                    let first = rng.choose_weighted(segw);
                    if first == hot_seg_local {
                        rng.choose_weighted(segw)
                    } else {
                        first
                    }
                };
                seg_series[pick].push(storage_tick, flow_of(cold_bytes));
            }
        }

        // --- sampled traces.
        for (op, op_ops, sizes, qw) in [
            (Op::Read, read_ops, &profile.read_sizes, &qw_read),
            (Op::Write, write_ops, &profile.write_sizes, &qw_write),
        ] {
            let n = sampled_count(&mut rng, op_ops);
            if n == 0 {
                continue;
            }
            let clock = BurstClock::new(&mut rng, t_start_us, tick_us, 20_000.0);
            for _ in 0..n {
                let size = sizes.sample(&mut rng);
                let offset = lba.offset(&mut rng, op, size, window_idx);
                let qp = qps[rng.choose_weighted(qw)];
                events.push(IoEvent {
                    t_us: clock.sample(&mut rng),
                    vd: vd.id,
                    qp,
                    op,
                    size,
                    offset,
                });
            }
        }
    }

    VdPartial {
        vd: vd.id,
        qp_series,
        seg_series,
        events,
    }
}

/// Merge two sparse `(tick, weight)` envelopes into tick-ordered
/// `(tick, read_weight, write_weight)` triples.
fn merge_envelopes(read: &[(u32, f64)], write: &[(u32, f64)]) -> Vec<(u32, f64, f64)> {
    let mut out = Vec::with_capacity(read.len() + write.len());
    let mut i = 0;
    let mut j = 0;
    while i < read.len() || j < write.len() {
        let rt = read.get(i).map(|&(t, _)| t);
        let wt = write.get(j).map(|&(t, _)| t);
        match (rt, wt) {
            (Some(a), Some(b)) if a == b => {
                out.push((a, read[i].1, write[j].1));
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                out.push((a, read[i].1, 0.0));
                i += 1;
            }
            (Some(_), Some(_)) => {
                out.push((wt.expect("checked"), 0.0, write[j].1));
                j += 1;
            }
            (Some(a), None) => {
                out.push((a, read[i].1, 0.0));
                i += 1;
            }
            (None, Some(b)) => {
                out.push((b, 0.0, write[j].1));
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::units::TRACE_SAMPLE_RATE;

    #[test]
    fn merge_preserves_both_streams() {
        let r = vec![(1, 0.5), (3, 0.5)];
        let w = vec![(1, 0.2), (2, 0.3), (5, 0.5)];
        let m = merge_envelopes(&r, &w);
        assert_eq!(
            m,
            vec![(1, 0.5, 0.2), (2, 0.0, 0.3), (3, 0.5, 0.0), (5, 0.0, 0.5)]
        );
    }

    #[test]
    fn quick_dataset_generates() {
        let cfg = WorkloadConfig::quick(21);
        let ds = generate(&cfg).unwrap();
        assert!(!ds.compute.per_qp.is_empty());
        let (r, w) = ds.total_bytes();
        assert!(r > 0.0 && w > 0.0);
        // Events are time-sorted.
        for pair in ds.events.windows(2) {
            assert!(pair[0].t_us <= pair[1].t_us);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::quick(22);
        let a = generate(&cfg).unwrap();
        let b = generate(&cfg).unwrap();
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.total_bytes(), b.total_bytes());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn compute_totals_match_plan() {
        let cfg = WorkloadConfig::quick(23);
        let ds = generate(&cfg).unwrap();
        let (pr, pw) = ds.plan.totals();
        let (mr, mw) = ds.total_bytes();
        // Envelope weights sum to exactly 1, so metric totals equal the plan.
        assert!((mr - pr).abs() / pr < 1e-6, "read {mr} vs plan {pr}");
        assert!((mw - pw).abs() / pw < 1e-6, "write {mw} vs plan {pw}");
    }

    #[test]
    fn storage_totals_match_compute_totals() {
        let cfg = WorkloadConfig::quick(24);
        let ds = generate(&cfg).unwrap();
        let ct = ds.compute.total();
        let st = ds.storage.total();
        assert!((ct.read.bytes - st.read.bytes).abs() / ct.read.bytes < 1e-6);
        assert!((ct.write.bytes - st.write.bytes).abs() / ct.write.bytes < 1e-6);
    }

    #[test]
    fn sampled_trace_volume_tracks_population() {
        let mut cfg = WorkloadConfig::quick(25);
        cfg.vms_per_dc = 40;
        cfg.duration_secs = 3600.0;
        let ds = generate(&cfg).unwrap();
        let total_ops = {
            let t = ds.compute.total();
            t.read.ops + t.write.ops
        };
        let expected = total_ops * TRACE_SAMPLE_RATE;
        let got = ds.trace_count() as f64;
        assert!(
            expected > 30.0,
            "workload too small for the check: {expected}"
        );
        // Poisson thinning: within ±40 % of expectation is comfortable.
        assert!(
            (got - expected).abs() / expected < 0.4,
            "sampled {got} vs expected {expected}"
        );
    }

    #[test]
    fn events_respect_vd_geometry() {
        let cfg = WorkloadConfig::quick(26);
        let ds = generate(&cfg).unwrap();
        for e in &ds.events {
            let vd = &ds.fleet.vds[e.vd];
            assert!(e.end_offset() <= vd.spec.capacity_bytes, "{e:?}");
            assert!(vd.qps().any(|q| q == e.qp), "event QP not owned by VD");
        }
    }
}
