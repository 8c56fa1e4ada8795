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
//!
//! Every series is built once, at its exact size: a VD books its flows
//! into one keyed list and builds each series side from it in one pass
//! ([`Series::from_sides`]). The per-VD event streams merge by compute
//! tick (`merge_by_tick`) rather than by one sort over every event.

use crate::config::WorkloadConfig;
use crate::dataset::Dataset;
use crate::dist::onoff::OnOffEnvelope;
use crate::fleet::build_fleet;
use crate::lba::{LbaModel, HOT_WINDOW_SECS};
use crate::profile::AppProfile;
use crate::sampler::{sampled_count, BurstClock};
use crate::spatial::{build_plan, TrafficPlan};
use ebs_core::error::EbsError;
use ebs_core::ids::{IdVec, QpId};
use ebs_core::io::{IoEvent, Op};
use ebs_core::metric::{ComputeMetrics, Flow, Series, StorageMetrics};
use ebs_core::parallel::par_map_deterministic;
use ebs_core::rng::{RngFactory, WeightTable};
use ebs_core::topology::{Fleet, Vd};
use ebs_core::units::TRACE_SAMPLE_RATE;

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
/// With `EBS_OBS` on, the fan-out and the merge are timed as
/// `layer.generate.vds` and `layer.generate.merge`.
pub fn generate_for_fleet(config: &WorkloadConfig, fleet: Fleet) -> Result<Dataset, EbsError> {
    config.validate()?;
    let plan = build_plan(config, &fleet);
    let rngf = RngFactory::new(config.seed).child("traffic");
    let grid = Grid::new(config);

    // Per-VD fan-out: independent units, each with a private accumulator.
    let fan_out = ebs_obs::timer("layer.generate.vds");
    let partials = par_map_deterministic(fleet.vds.as_slice(), |_, vd| {
        generate_vd(&fleet, &plan, &rngf, &grid, vd)
    });
    drop(fan_out);

    // Merge in VD order. QP and segment ranges are disjoint across VDs, so
    // installing each partial's series is exactly the booking the serial
    // loop performed.
    let merge = ebs_obs::timer("layer.generate.merge");
    let mut compute = ComputeMetrics::empty(config.compute_ticks(), fleet.qps.len());
    let mut storage = StorageMetrics::empty(config.storage_ticks(), fleet.segments.len());
    let mut streams = Vec::with_capacity(partials.len());
    for (vd, partial) in fleet.vds.iter().zip(partials) {
        let partial = partial?;
        install(&mut compute.per_qp, vd.qps(), partial.qp_series)?;
        install(&mut storage.per_seg, vd.segments(), partial.seg_series)?;
        streams.push(partial.events);
    }
    let events = merge_by_tick(streams, grid.tick_us, grid.ticks);
    drop(merge);
    Ok(Dataset {
        fleet,
        compute,
        storage,
        events,
        config: config.clone(),
        index: Default::default(),
    })
}

/// Move one VD's series into the fleet-wide table, at the ids `ids` names.
fn install<I: Copy + Into<usize> + std::fmt::Debug>(
    table: &mut IdVec<I, Series>,
    ids: impl Iterator<Item = I>,
    series: Vec<Series>,
) -> Result<(), EbsError> {
    for (id, series) in ids.zip(series) {
        *table.get_mut(id).ok_or_else(|| {
            EbsError::unknown_entity(format!("{id:?} is past the fleet's metric table"))
        })? = series;
    }
    Ok(())
}

/// Merge per-VD event streams, given in VD order, into one time-sorted
/// stream: exactly `sort_by_key(|e| e.t_us)` of their concatenation,
/// without sorting the whole of it.
///
/// Each event belongs to the bucket of its compute tick, `t_us / tick_us`
/// clamped to the last of `ticks` buckets. A counting pass sizes the
/// output exactly and places each bucket; a scatter of the streams in VD
/// order keeps every bucket in concatenation order; a stable sort inside
/// each bucket finishes. The result is the global stable sort's because
/// the bucket index never falls as `t_us` grows: an event in an earlier
/// bucket has a strictly earlier timestamp, and inside a bucket the
/// stable sort breaks ties by concatenation order, as the global one
/// does. Each stream is freed as soon as it is scattered.
fn merge_by_tick(streams: Vec<Vec<IoEvent>>, tick_us: u64, ticks: u32) -> Vec<IoEvent> {
    let last = ticks.max(1) as usize - 1;
    let width = tick_us.max(1);
    let bucket = |e: &IoEvent| usize::try_from(e.t_us / width).map_or(last, |b| b.min(last));
    let mut counts = vec![0usize; last + 1];
    for e in streams.iter().flatten() {
        if let Some(count) = counts.get_mut(bucket(e)) {
            *count += 1;
        }
    }
    let Some(&filler) = streams.iter().flatten().next() else {
        return Vec::new();
    };
    let mut out = vec![filler; counts.iter().sum()];
    let mut next: Vec<usize> = counts
        .iter()
        .scan(0, |start, &count| {
            let at = *start;
            *start += count;
            Some(at)
        })
        .collect();
    for stream in streams {
        for e in stream {
            if let Some(at) = next.get_mut(bucket(&e)) {
                if let Some(slot) = out.get_mut(*at) {
                    *slot = e;
                }
                *at += 1;
            }
        }
    }
    let mut rest = out.as_mut_slice();
    for &count in &counts {
        let Some((events, tail)) = std::mem::take(&mut rest).split_at_mut_checked(count) else {
            break;
        };
        events.sort_by_key(|e| e.t_us);
        rest = tail;
    }
    out
}

/// What every VD of one generation shares: the compute grid and the
/// storage tick of each compute tick, looked up once per generation
/// instead of once per active tick.
pub(crate) struct Grid {
    /// Compute ticks in the window.
    ticks: u32,
    /// Width of one compute tick in microseconds.
    tick_us: u64,
    /// Hot-fraction windows per compute tick.
    hot_windows_per_tick: f64,
    /// The storage tick holding each compute tick's start.
    storage_tick: Vec<u32>,
}

impl Grid {
    /// The grids of `config`.
    pub(crate) fn new(config: &WorkloadConfig) -> Self {
        let cticks = config.compute_ticks();
        let sticks = config.storage_ticks();
        let tick_us = (config.compute_tick_secs * 1e6) as u64;
        Self {
            ticks: cticks.ticks,
            tick_us,
            hot_windows_per_tick: config.compute_tick_secs / HOT_WINDOW_SECS,
            storage_tick: (0..cticks.ticks)
                .map(|tick| sticks.tick_of_us(u64::from(tick) * tick_us))
                .collect(),
        }
    }

    /// The storage tick holding compute tick `tick`'s start. A tick past
    /// the grid starts past the window, which the storage grid clamps to
    /// its final tick.
    fn storage_tick(&self, tick: u32) -> u32 {
        let table = &self.storage_tick;
        table
            .get(tick as usize)
            .or(table.last())
            .copied()
            .unwrap_or(0)
    }
}

/// One VD's generated traffic, indexed by the VD-local QP/segment position.
pub(crate) struct VdPartial {
    /// Compute-domain series, one per VD QP (local order).
    pub(crate) qp_series: Vec<Series>,
    /// Storage-domain series, one per VD segment (local order).
    pub(crate) seg_series: Vec<Series>,
    /// Sampled IO events in tick order.
    pub(crate) events: Vec<IoEvent>,
}

/// One booking: a flow onto one side of one VD-local series at a tick.
#[derive(Clone, Copy)]
struct Booking {
    /// `2 × slot + side`: slots number the VD's QPs, then its segments;
    /// side 0 is read and 1 is write.
    key: u32,
    tick: u32,
    flow: Flow,
}

/// One VD's metric bookings: one entry per (series side, tick), flows
/// that repeat a tick accumulated in booking order, so every sum keeps
/// the bits a per-tick accumulation gives it.
struct Bookings {
    entries: Vec<Booking>,
    /// Per key, the position of its newest entry (`usize::MAX` for none).
    newest: Vec<usize>,
}

impl Bookings {
    /// Bookings over `slots` series, with room for `capacity` entries.
    fn new(slots: usize, capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            newest: vec![usize::MAX; 2 * slots],
        }
    }

    /// Book `flow` onto `op`'s side of series `slot` at `tick`. One side's
    /// ticks arrive in non-decreasing order, so a repeated tick is the
    /// side's newest entry, and the flow adds onto it.
    fn book(&mut self, slot: usize, op: Op, tick: u32, flow: Flow) {
        let key = 2 * slot
            + match op {
                Op::Read => 0,
                Op::Write => 1,
            };
        if let Some(newest) = self.newest.get_mut(key) {
            if let Some(entry) = self.entries.get_mut(*newest).filter(|e| e.tick == tick) {
                entry.flow += flow;
                return;
            }
            *newest = self.entries.len();
        }
        // A key past the slots keeps its entry, so the build rejects it.
        let key = u32::try_from(key).unwrap_or(u32::MAX);
        self.entries.push(Booking { key, tick, flow });
    }

    /// Build every series once, exact-size: a stable counting pass by key
    /// lays each side's entries out in one buffer, in booking (so tick)
    /// order, and each side is allocated once from its run. `None` if a
    /// key is past the slots or a side is one `Series::from_sides`
    /// rejects.
    fn into_series(self, slots: usize) -> Option<Vec<Series>> {
        let mut counts = vec![0usize; 2 * slots];
        for b in &self.entries {
            *counts.get_mut(b.key as usize)? += 1;
        }
        let mut next: Vec<usize> = counts
            .iter()
            .scan(0, |start, &count| {
                let at = *start;
                *start += count;
                Some(at)
            })
            .collect();
        let mut sides = vec![(0u32, Flow::ZERO); self.entries.len()];
        for b in &self.entries {
            let at = next.get_mut(b.key as usize)?;
            *sides.get_mut(*at)? = (b.tick, b.flow);
            *at += 1;
        }
        let mut rest = sides.as_slice();
        let (pairs, _) = counts.as_chunks::<2>();
        pairs
            .iter()
            .map(|&[reads, writes]| {
                let (read, tail) = rest.split_at_checked(reads)?;
                let (write, tail) = tail.split_at_checked(writes)?;
                rest = tail;
                Series::from_sides(read.iter().copied(), write.iter().copied())
            })
            .collect()
    }
}

/// Generate one VD's envelopes, bookings, and sampled events from its own
/// RNG stream. Pure function of `(fleet, plan, grid, master seed, vd)` —
/// the parallel fan-out relies on that, and the sharded generator
/// ([`crate::shard`]) reuses it so sharded and in-memory generation emit
/// identical per-VD event streams.
pub(crate) fn generate_vd(
    fleet: &Fleet,
    plan: &TrafficPlan,
    rngf: &RngFactory,
    grid: &Grid,
    vd: &Vd,
) -> Result<VdPartial, EbsError> {
    let unknown = |what: &str| {
        EbsError::unknown_entity(format!(
            "vd {} names {what} outside the fleet or its traffic plan",
            vd.id
        ))
    };
    let vm = fleet.vms.get(vd.vm).ok_or_else(|| unknown("a vm"))?;
    let profile = AppProfile::for_app(vm.app);
    let mut rng = rngf.stream_n("vd", vd.id.index() as u64);

    let mut lba = LbaModel::generate(&mut rng, vd.spec.capacity_bytes, &profile.hot);

    // Per-op envelopes on the compute grid.
    let env_r = OnOffEnvelope::generate(&mut rng, grid.ticks, &profile.read_onoff);
    let env_w = OnOffEnvelope::generate(&mut rng, grid.ticks, &profile.write_onoff);
    let bytes = *plan.vd_bytes.get(vd.id).ok_or_else(|| unknown("bytes"))?;

    // Merge the two sparse envelopes into one tick-ordered stream.
    let merged = merge_envelopes(&env_r, &env_w);

    // Per-op QP weights for per-tick QP draws.
    let qps: Vec<QpId> = vd.qps().collect();
    let qp_weights = qps
        .iter()
        .map(|&q| plan.qp_weights.get(q).copied())
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| unknown("a queue pair"))?;
    let qw_read = WeightTable::new(qp_weights.iter().map(|w| w.read).collect());
    let qw_write = WeightTable::new(qp_weights.iter().map(|w| w.write).collect());

    // Per-op segment weights; cold draw excludes the hot share.
    let seg_count = vd.segments().len();
    let segw_read = WeightTable::new(lba.segment_weights(Op::Read));
    let segw_write = WeightTable::new(lba.segment_weights(Op::Write));
    let hot_seg_read = lba.hot_segment_index(Op::Read) as usize;
    let hot_seg_write = lba.hot_segment_index(Op::Write) as usize;

    let (sizes_read, sizes_write) = (profile.read_sizes.sampler(), profile.write_sizes.sampler());
    let mean_r = profile.read_sizes.mean();
    let mean_w = profile.write_sizes.mean();

    // Slots number the QPs, then the segments. A tick books at most one
    // QP and two segments per op.
    let slots = qps.len() + seg_count;
    let mut bookings = Bookings::new(slots, 6 * merged.len());
    // Each tick's sampled-event count is Poisson with a mean the envelope
    // fixes: reserve the total mean plus three standard deviations, so
    // the stream is allocated once and seldom regrows; it is cut to its
    // exact length once the ticks are done.
    let mean_events = TRACE_SAMPLE_RATE
        * merged
            .iter()
            .map(|&(_, wr, ww)| bytes.read * wr / mean_r + bytes.write * ww / mean_w)
            .sum::<f64>();
    let mut events: Vec<IoEvent> =
        Vec::with_capacity((mean_events + 3.0 * mean_events.sqrt()) as usize + 8);

    for (tick, wr, ww) in merged {
        let read_bytes = bytes.read * wr;
        let write_bytes = bytes.write * ww;
        let read_ops = read_bytes / mean_r;
        let write_ops = write_bytes / mean_w;
        let t_start_us = tick as u64 * grid.tick_us;
        let window_idx = (tick as f64 * grid.hot_windows_per_tick) as u32;
        let storage_tick = grid.storage_tick(tick);
        let hf_read = lba.hot_frac_at(Op::Read, window_idx);
        let hf_write = lba.hot_frac_at(Op::Write, window_idx);

        // --- compute domain: one QP per op per tick.
        for (op, qw, op_bytes, op_ops) in [
            (Op::Read, &qw_read, read_bytes, read_ops),
            (Op::Write, &qw_write, write_bytes, write_ops),
        ] {
            if op_bytes > 0.0 {
                let qp = rng.choose_from(qw);
                let flow = Flow {
                    bytes: op_bytes,
                    ops: op_ops,
                };
                bookings.book(qp, op, tick, flow);
            }
        }

        // --- storage domain: hot segment + one cold segment per op.
        for (op, op_bytes, op_ops, hf, segw, hot_seg_local) in [
            (
                Op::Read,
                read_bytes,
                read_ops,
                hf_read,
                &segw_read,
                hot_seg_read,
            ),
            (
                Op::Write,
                write_bytes,
                write_ops,
                hf_write,
                &segw_write,
                hot_seg_write,
            ),
        ] {
            if op_bytes <= 0.0 {
                continue;
            }
            let hot_bytes = op_bytes * hf;
            let cold_bytes = op_bytes - hot_bytes;
            let flow_of = |b: f64| Flow {
                bytes: b,
                ops: op_ops * b / op_bytes,
            };
            if hot_bytes > 0.0 {
                bookings.book(
                    qps.len() + hot_seg_local,
                    op,
                    storage_tick,
                    flow_of(hot_bytes),
                );
            }
            if cold_bytes > 0.0 {
                let pick = if seg_count == 1 {
                    0
                } else {
                    // Redraw once if the hot segment comes up, to bias
                    // cold traffic away from it without a second
                    // weight table.
                    let first = rng.choose_from(segw);
                    if first == hot_seg_local {
                        rng.choose_from(segw)
                    } else {
                        first
                    }
                };
                bookings.book(qps.len() + pick, op, storage_tick, flow_of(cold_bytes));
            }
        }

        // --- sampled traces.
        for (op, op_ops, hf, sizes, qw) in [
            (Op::Read, read_ops, hf_read, &sizes_read, &qw_read),
            (Op::Write, write_ops, hf_write, &sizes_write, &qw_write),
        ] {
            let n = sampled_count(&mut rng, op_ops);
            if n == 0 {
                continue;
            }
            let clock = BurstClock::new(&mut rng, t_start_us, grid.tick_us, 20_000.0);
            for _ in 0..n {
                let size = sizes.sample(&mut rng);
                let offset = lba.offset(&mut rng, op, size, hf);
                // ebs-lint: allow(D3) -- choose_from index is below qw.weights().len() == qps.len()
                let qp = qps[rng.choose_from(qw)];
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
    events.shrink_to_fit();

    let mut qp_series = bookings.into_series(slots).ok_or_else(|| {
        EbsError::invalid_spec(format!(
            "vd {}: a booking falls outside its series or their tick range",
            vd.id
        ))
    })?;
    let seg_series = qp_series.split_off(qps.len());
    Ok(VdPartial {
        qp_series,
        seg_series,
        events,
    })
}

/// Merge two sparse `(tick, weight)` envelopes into tick-ordered
/// `(tick, read_weight, write_weight)` triples.
fn merge_envelopes(read: &[(u32, f64)], write: &[(u32, f64)]) -> Vec<(u32, f64, f64)> {
    let mut out = Vec::with_capacity(read.len() + write.len());
    let (mut read, mut write) = (read, write);
    loop {
        // The envelope with the smaller next tick goes first; equal ticks
        // merge into one triple.
        let next = match (read.split_first(), write.split_first()) {
            (Some((&(rt, rw), r_rest)), Some((&(wt, ww), w_rest))) if rt == wt => {
                (read, write) = (r_rest, w_rest);
                (rt, rw, ww)
            }
            (Some((&(rt, rw), rest)), Some((&(wt, _), _))) if rt < wt => {
                read = rest;
                (rt, rw, 0.0)
            }
            (Some((&(rt, rw), rest)), None) => {
                read = rest;
                (rt, rw, 0.0)
            }
            (_, Some((&(wt, ww), rest))) => {
                write = rest;
                (wt, 0.0, ww)
            }
            (None, None) => return out,
        };
        out.push(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_core::ids::VdId;
    use ebs_core::rng::SimRng;

    /// Random per-VD event streams over a grid of `ticks` ticks of
    /// `tick_us` µs: timestamps that tie within and across streams, sit on
    /// a tick's first or last microsecond, fall in the last tick or past
    /// the grid (which clamps into the last bucket), in any order within a
    /// stream; some streams are empty. Offsets number the events, so a
    /// reordering of equal timestamps shows.
    fn random_streams(g: &mut SimRng, tick_us: u64, ticks: u32) -> Vec<Vec<IoEvent>> {
        let mut serial = 0;
        (0..g.below(7))
            .map(|vd| {
                let len = if g.chance(0.25) { 0 } else { g.below(48) };
                (0..len)
                    .map(|_| {
                        let tick = match g.below(6) {
                            0 => u64::from(ticks - 1),
                            1 => u64::from(ticks) + g.below(2),
                            _ => g.below(u64::from(ticks)),
                        };
                        let within = match g.below(4) {
                            0 => 0,
                            1 => tick_us - 1,
                            _ => g.below(tick_us),
                        };
                        serial += 1;
                        IoEvent {
                            t_us: tick * tick_us + within,
                            vd: VdId(vd as u32),
                            qp: QpId(0),
                            op: Op::Read,
                            size: 4096,
                            offset: serial,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn tick_bucket_merge_is_the_stable_sort_of_the_concatenation(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut g = SimRng::seed_from_u64(seed);
            let tick_us = [1, 2, 3, 1_000, 10_000_000][g.index(5)];
            let ticks = 1 + g.below(6) as u32;
            let streams = random_streams(&mut g, tick_us, ticks);
            let mut want = streams.concat();
            want.sort_by_key(|e| e.t_us);
            proptest::prelude::prop_assert_eq!(merge_by_tick(streams, tick_us, ticks), want);
        }
    }

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
        let (pr, pw) = build_plan(&cfg, &ds.fleet).totals();
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
