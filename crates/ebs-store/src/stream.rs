//! Streaming aggregation over event chunks: the paper's headline
//! skewness statistics (CCR, P2A, size quantiles) computed one chunk at a
//! time, so a multi-gigabyte trace never has to materialize as a single
//! `Vec<IoEvent>`.
//!
//! The summary keeps O(vd_count + ticks + distinct sizes) state — per-VD
//! byte totals feed [`ebs_analysis::ccr`], per-tick byte totals feed
//! [`ebs_analysis::p2a`], and a size histogram answers quantiles with the
//! same linear-interpolation convention as [`ebs_analysis::quantile`].
//!
//! Two ingestion paths produce bit-identical summaries: the row-major
//! [`fold_chunk`](StreamSummary::fold_chunk) reference loop, and the
//! column-at-a-time [`fold_columns`](StreamSummary::fold_columns) hot
//! path, which runs the [`ebs_analysis::batch`] kernels directly on a
//! chunk's decoded columns (per-VD partials over the chunk dictionary,
//! run-batched tick accumulation over the sorted timestamp column). The
//! two agree exactly because every weight is an integer-valued `f64`
//! below 2^53, where addition is exact and therefore associative.
//! [`fold_store`] drives the column path over a whole container, reusing
//! one payload buffer and one column scratch — steady-state replay does
//! zero allocation per chunk.

use std::collections::BTreeMap;
use std::io::Read;

use ebs_analysis::batch;
use ebs_analysis::{ccr, p2a};
use ebs_core::error::EbsError;
use ebs_core::io::IoEvent;
use ebs_core::time::TickSpec;

use crate::columns::{decode_events_v2_into, EventColumns, EventScratch};
use crate::format::kind;
use crate::reader::{ChunkReader, EndSummary};

/// Incremental trace summary, fed by [`fold_chunk`](Self::fold_chunk) or
/// [`fold_columns`](Self::fold_columns).
#[derive(Clone, Debug)]
pub struct StreamSummary {
    ticks: TickSpec,
    vd_bytes: Vec<f64>,
    tick_bytes: Vec<f64>,
    size_counts: BTreeMap<u32, u64>,
    events: u64,
    bytes: u64,
    /// Per-dictionary-slot partial sums, reused across chunks.
    dict_partials: Vec<f64>,
}

impl StreamSummary {
    /// Empty summary for a fleet of `vd_count` disks over the `ticks` grid.
    pub fn new(vd_count: usize, ticks: TickSpec) -> Self {
        Self {
            ticks,
            vd_bytes: vec![0.0; vd_count],
            tick_bytes: vec![0.0; ticks.ticks as usize],
            size_counts: BTreeMap::new(),
            events: 0,
            bytes: 0,
            dict_partials: Vec::new(),
        }
    }

    /// Absorb one decoded chunk of row-major events: the row-major
    /// reference that [`fold_columns`](Self::fold_columns) must match bit
    /// for bit, and the path for traces that are already materialized.
    ///
    /// A `vd` index outside the fleet is [`EbsError::CorruptStore`] — the
    /// summary is fed from disk, so out-of-range ids mean a damaged or
    /// mismatched file, not a programming error.
    pub fn fold_chunk(&mut self, events: &[IoEvent]) -> Result<(), EbsError> {
        for ev in events {
            let vd = ev.vd.0 as usize;
            let size = f64::from(ev.size);
            let fleet_size = self.vd_bytes.len();
            *self.vd_bytes.get_mut(vd).ok_or_else(|| {
                EbsError::corrupt_store(format!(
                    "event names vd {vd} but the fleet has {fleet_size} disks"
                ))
            })? += size;
            // `tick_of_us` clamps to the grid, so this lookup cannot miss on
            // any input; the typed error is the totality fallback.
            let tick = self.ticks.tick_of_us(ev.t_us) as usize;
            *self.tick_bytes.get_mut(tick).ok_or_else(|| {
                EbsError::corrupt_store(format!("tick {tick} outside the summary grid"))
            })? += size;
            *self.size_counts.entry(ev.size).or_insert(0) += 1;
            self.events += 1;
            self.bytes += u64::from(ev.size);
        }
        Ok(())
    }

    /// Absorb one decoded chunk column-at-a-time: per-VD byte sums go
    /// through chunk-local dictionary partials
    /// ([`ebs_analysis::batch::keyed_sums`] + `scatter_add`), per-tick
    /// sums through the run-batched [`ebs_analysis::batch::tick_sums`],
    /// and the size histogram through run-coalesced
    /// [`ebs_analysis::batch::count_values`]. Produces results
    /// bit-identical to [`fold_chunk`](Self::fold_chunk) on the same
    /// events, with no per-event map lookups and no allocation once the
    /// partial buffer has grown to the largest chunk dictionary.
    pub fn fold_columns(&mut self, cols: &EventColumns<'_>) -> Result<(), EbsError> {
        let n = cols.len();
        if cols.vd_idx.len() != n || cols.size.len() != n {
            return Err(EbsError::corrupt_store(
                "event columns have mismatched lengths".to_string(),
            ));
        }
        self.dict_partials.clear();
        self.dict_partials.resize(cols.dict.len(), 0.0);
        if !batch::keyed_sums(cols.vd_idx, cols.size, &mut self.dict_partials) {
            return Err(EbsError::corrupt_store(
                "vd index column points outside the chunk dictionary".to_string(),
            ));
        }
        if !batch::scatter_add(&mut self.vd_bytes, cols.dict, &self.dict_partials) {
            let fleet_size = self.vd_bytes.len();
            return Err(EbsError::corrupt_store(format!(
                "chunk dictionary names a vd outside the {fleet_size}-disk fleet"
            )));
        }
        if !batch::tick_sums(self.ticks, cols.t_us, cols.size, &mut self.tick_bytes) {
            return Err(EbsError::corrupt_store(
                "tick column outside the summary grid".to_string(),
            ));
        }
        if !batch::count_values(cols.size, &mut self.size_counts) {
            return Err(EbsError::corrupt_store(
                "size column value does not fit in u32".to_string(),
            ));
        }
        self.events += n as u64;
        self.bytes += cols.size.iter().sum::<u64>();
        Ok(())
    }

    /// Merge another summary into this one (per-shard partials folding
    /// into a fleet total). Exact and order-independent: every
    /// accumulator is an integer-valued `f64` far below 2^53, so the
    /// elementwise adds are associative and the merged summary is
    /// bit-identical to folding all the events into one summary in any
    /// order — which is what makes replayed analyses invariant to the
    /// shard count. Mismatched grids are [`EbsError::CorruptStore`]:
    /// shard summaries come from disk, so a shape clash means a damaged
    /// or mismatched shard set.
    pub fn merge(&mut self, other: &StreamSummary) -> Result<(), EbsError> {
        if self.vd_bytes.len() != other.vd_bytes.len()
            || self.tick_bytes.len() != other.tick_bytes.len()
        {
            return Err(EbsError::corrupt_store(format!(
                "cannot merge a {}-disk/{}-tick summary into a {}-disk/{}-tick one",
                other.vd_bytes.len(),
                other.tick_bytes.len(),
                self.vd_bytes.len(),
                self.tick_bytes.len(),
            )));
        }
        for (dst, src) in self.vd_bytes.iter_mut().zip(&other.vd_bytes) {
            *dst += src;
        }
        for (dst, src) in self.tick_bytes.iter_mut().zip(&other.tick_bytes) {
            *dst += src;
        }
        for (&size, &count) in &other.size_counts {
            *self.size_counts.entry(size).or_insert(0) += count;
        }
        self.events += other.events;
        self.bytes += other.bytes;
        Ok(())
    }

    /// Events absorbed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total bytes moved by absorbed events.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Per-VD byte contributions (index = vd id).
    pub fn vd_bytes(&self) -> &[f64] {
        &self.vd_bytes
    }

    /// Per-tick byte series over the configured grid.
    pub fn tick_bytes(&self) -> &[f64] {
        &self.tick_bytes
    }

    /// Capacity contribution ratio: the share of traffic carried by the
    /// top `frac` of disks (paper §3.1). `None` while no bytes absorbed.
    pub fn ccr(&self, frac: f64) -> Option<f64> {
        ccr(&self.vd_bytes, frac)
    }

    /// Peak-to-average ratio of the per-tick byte series (paper §3.2).
    pub fn p2a(&self) -> Option<f64> {
        p2a(&self.tick_bytes)
    }

    /// The `q`-quantile of request sizes, linear-interpolated between order
    /// statistics exactly like [`ebs_analysis::quantile`] — but computed
    /// from the weighted histogram, without expanding one value per event.
    pub fn size_quantile(&self, q: f64) -> Option<f64> {
        batch::weighted_quantile(&self.sorted_sizes(), self.events, q)
    }

    /// Fraction of events with size ≤ `x` (the empirical CDF at `x`).
    pub fn size_cdf_at(&self, x: f64) -> Option<f64> {
        batch::weighted_cdf_at(&self.sorted_sizes(), self.events, x)
    }

    /// The histogram as sorted pairs (the `BTreeMap` already iterates in
    /// key order, so this is a plain collect).
    fn sorted_sizes(&self) -> Vec<(u32, u64)> {
        self.size_counts.iter().map(|(&s, &c)| (s, c)).collect()
    }
}

/// Stream every EVENTS chunk of `reader` into `summary` through the
/// batched column kernels and [`StreamSummary::fold_columns`] — one
/// payload buffer and one [`EventScratch`] reused throughout, so the
/// steady state allocates nothing per chunk. Cross-checks the END-chunk
/// event total and returns it.
pub fn fold_store<R: Read>(
    mut reader: ChunkReader<R>,
    summary: &mut StreamSummary,
) -> Result<EndSummary, EbsError> {
    let mut payload = Vec::new();
    let mut scratch = EventScratch::new();
    let mut seen = 0u64;
    while let Some(chunk_kind) = reader.next_chunk_into(&mut payload)? {
        if chunk_kind != kind::EVENTS {
            continue;
        }
        decode_events_v2_into(&payload, &mut scratch)?;
        let cols = scratch.columns();
        summary.fold_columns(&cols)?;
        seen += cols.len() as u64;
    }
    let end = reader.end_summary().unwrap_or_default();
    if end.events != seen {
        return Err(EbsError::truncated(format!(
            "end chunk pins {} events but the stream held {seen}",
            end.events
        )));
    }
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::encode_events_v2;
    use crate::writer::StoreWriter;
    use ebs_analysis::{quantile, Cdf};
    use ebs_core::ids::{QpId, VdId};
    use ebs_core::io::Op;

    fn events() -> Vec<IoEvent> {
        // Skewed on purpose: vd 0 carries most of the bytes, and traffic
        // bunches into the first tick.
        let sizes = [4096u32, 8192, 4096, 65536, 4096, 16384, 8192, 4096];
        sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| IoEvent {
                t_us: if i < 6 { 100 + i as u64 } else { 2_000_000 },
                vd: VdId(if i == 3 { 1 } else { 0 }),
                qp: QpId(0),
                op: Op::Read,
                size,
                offset: 0,
            })
            .collect()
    }

    fn grid() -> TickSpec {
        TickSpec::new(1.0, 4)
    }

    #[test]
    fn folding_in_chunks_equals_folding_at_once() {
        let evs = events();
        let mut whole = StreamSummary::new(2, grid());
        whole.fold_chunk(&evs).unwrap();
        let mut parts = StreamSummary::new(2, grid());
        for chunk in evs.chunks(3) {
            parts.fold_chunk(chunk).unwrap();
        }
        assert_eq!(whole.vd_bytes(), parts.vd_bytes());
        assert_eq!(whole.tick_bytes(), parts.tick_bytes());
        assert_eq!(whole.events(), parts.events());
        assert_eq!(whole.size_quantile(0.5), parts.size_quantile(0.5));
    }

    #[test]
    fn column_fold_is_bit_identical_to_row_fold() {
        let evs = events();
        let mut rows = StreamSummary::new(2, grid());
        let mut cols_summary = StreamSummary::new(2, grid());
        let mut scratch = EventScratch::new();
        let mut dec = EventScratch::new();
        for chunk in evs.chunks(3) {
            rows.fold_chunk(chunk).unwrap();
            let (payload, _) = encode_events_v2(chunk, &mut scratch).unwrap();
            decode_events_v2_into(&payload, &mut dec).unwrap();
            cols_summary.fold_columns(&dec.columns()).unwrap();
        }
        assert_eq!(rows.vd_bytes(), cols_summary.vd_bytes());
        assert_eq!(rows.tick_bytes(), cols_summary.tick_bytes());
        assert_eq!(rows.events(), cols_summary.events());
        assert_eq!(rows.bytes(), cols_summary.bytes());
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(rows.size_quantile(q), cols_summary.size_quantile(q));
        }
        assert_eq!(rows.size_cdf_at(8192.0), cols_summary.size_cdf_at(8192.0));
    }

    #[test]
    fn fold_store_streams_a_container_end_to_end() {
        let evs = events();
        let mut w = StoreWriter::new(Vec::new()).unwrap();
        w.write_events_chunked(&evs, 3).unwrap();
        let bytes = w.finish().unwrap();
        let mut streamed = StreamSummary::new(2, grid());
        let end = fold_store(ChunkReader::new(bytes.as_slice()).unwrap(), &mut streamed).unwrap();
        assert_eq!(end.events, evs.len() as u64);
        let mut direct = StreamSummary::new(2, grid());
        direct.fold_chunk(&evs).unwrap();
        assert_eq!(streamed.vd_bytes(), direct.vd_bytes());
        assert_eq!(streamed.tick_bytes(), direct.tick_bytes());
        assert_eq!(streamed.size_quantile(0.5), direct.size_quantile(0.5));
    }

    #[test]
    fn matches_batch_analysis_on_materialized_events() {
        let evs = events();
        let mut s = StreamSummary::new(2, grid());
        s.fold_chunk(&evs).unwrap();

        let mut vd_bytes = vec![0.0f64; 2];
        let mut tick_bytes = vec![0.0f64; 4];
        let sizes: Vec<f64> = evs.iter().map(|e| f64::from(e.size)).collect();
        for e in &evs {
            vd_bytes[e.vd.0 as usize] += f64::from(e.size);
            tick_bytes[grid().tick_of_us(e.t_us) as usize] += f64::from(e.size);
        }
        assert_eq!(s.ccr(0.8), ccr(&vd_bytes, 0.8));
        assert_eq!(s.p2a(), p2a(&tick_bytes));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.size_quantile(q), quantile(&sizes, q), "q={q}");
        }
        let cdf = Cdf::new(&sizes);
        for x in [0.0, 4096.0, 8192.0, 9000.0, 65536.0, 1e9] {
            assert_eq!(s.size_cdf_at(x), cdf.at(x), "x={x}");
        }
    }

    #[test]
    fn merging_shard_partials_equals_folding_everything_into_one() {
        let evs = events();
        let mut whole = StreamSummary::new(2, grid());
        whole.fold_chunk(&evs).unwrap();
        // Split the events across "shards", fold each independently, merge.
        let mut merged = StreamSummary::new(2, grid());
        for shard in evs.chunks(3) {
            let mut partial = StreamSummary::new(2, grid());
            partial.fold_chunk(shard).unwrap();
            merged.merge(&partial).unwrap();
        }
        assert_eq!(whole.vd_bytes(), merged.vd_bytes());
        assert_eq!(whole.tick_bytes(), merged.tick_bytes());
        assert_eq!(whole.events(), merged.events());
        assert_eq!(whole.bytes(), merged.bytes());
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(whole.size_quantile(q), merged.size_quantile(q));
        }
        assert_eq!(whole.ccr(0.8), merged.ccr(0.8));
        assert_eq!(whole.p2a(), merged.p2a());
    }

    #[test]
    fn merge_rejects_mismatched_grids() {
        let mut a = StreamSummary::new(2, grid());
        let b = StreamSummary::new(3, grid());
        assert!(matches!(a.merge(&b), Err(EbsError::CorruptStore(_))));
        let c = StreamSummary::new(2, TickSpec::new(1.0, 9));
        assert!(matches!(a.merge(&c), Err(EbsError::CorruptStore(_))));
    }

    #[test]
    fn out_of_range_vd_is_corrupt_store() {
        let mut s = StreamSummary::new(1, grid());
        let mut evs = events();
        evs[0].vd = VdId(7);
        assert!(matches!(s.fold_chunk(&evs), Err(EbsError::CorruptStore(_))));
        // The column path rejects the same fleet mismatch at scatter time.
        let mut scratch = EventScratch::new();
        let mut dec = EventScratch::new();
        let (payload, _) = encode_events_v2(&evs, &mut scratch).unwrap();
        decode_events_v2_into(&payload, &mut dec).unwrap();
        let mut s = StreamSummary::new(1, grid());
        assert!(matches!(
            s.fold_columns(&dec.columns()),
            Err(EbsError::CorruptStore(_))
        ));
    }

    #[test]
    fn empty_summary_yields_none_everywhere() {
        let s = StreamSummary::new(4, grid());
        assert_eq!(s.ccr(0.8), None);
        assert_eq!(s.size_quantile(0.5), None);
        assert_eq!(s.size_cdf_at(4096.0), None);
    }
}
