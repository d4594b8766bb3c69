//! Engine observability: cheap atomic counters threaded through every
//! [`crate::engine::QueryEngine`].
//!
//! Each engine owns an [`EngineStats`] whose counters are bumped with
//! `Relaxed` atomics on the hot paths (record scans, bbox rejections,
//! R-tree probes, overlay cache lookups, trajectory leg cutting) plus
//! per-phase wall times. Relaxed ordering is sufficient: the counters
//! are monotone tallies read only through [`EngineStats::snapshot`],
//! never used for synchronization — and atomics keep them sound under
//! the parallel evaluation paths.

use std::sync::atomic::Ordering;
use std::time::Instant;

use gisolap_obs::Span;

gisolap_obs::counters! {
    /// A point-in-time copy of an engine's [`EngineStats`]. Each event
    /// counter is published as `gisolap_<field>_total` with its doc
    /// comment as help; the `*_ns` timings go to
    /// `gisolap_phase_seconds_total` (see [`crate::metrics`]).
    pub struct StatsSnapshot {
        /// MOFT records examined by time filtering.
        records_scanned => add_records_scanned,
        /// Geometry elements discarded on bounding box alone.
        bbox_rejections => add_bbox_rejections,
        /// R-tree searches issued.
        rtree_probes => add_rtree_probes,
        /// Layer-pair lookups answered from the precomputed overlay.
        overlay_hits => add_overlay_hits,
        /// Layer-pair requests computed per call (no precomputation).
        overlay_misses => add_overlay_misses,
        /// Trajectory sub-legs produced by time-window cutting.
        legs_cut => add_legs_cut,
        /// Region evaluations started.
        queries,
        /// Wall time (ns) filtering the MOFT by time predicates.
        time_filter_ns,
        /// Wall time (ns) resolving geometric sub-queries.
        filter_resolve_ns,
        /// Wall time (ns) matching records/trajectories spatially.
        spatial_match_ns,
        /// Stream records accepted into ingest buffers.
        records_ingested,
        /// Stream records dead-lettered as later than the watermark.
        records_late_dropped,
        /// Stream segments sealed.
        segments_sealed,
        /// Partial-aggregate entries merged into the delta cube.
        partials_merged,
        /// Live tail records scanned by incremental rollups.
        tail_records_scanned,
        /// Interval-tree window searches over object time extents.
        index_interval_probes => add_index_interval_probes,
        /// BVH searches over object bounding boxes.
        index_bvh_probes => add_index_bvh_probes,
        /// Zone-map blocks scanned after index pruning.
        index_zones_scanned => add_index_zones_scanned,
        /// Zone-map blocks skipped wholesale by index pruning.
        index_zones_pruned => add_index_zones_pruned,
        /// Records excluded by index pruning before exact tests.
        index_records_pruned => add_index_records_pruned,
    }
    /// Monotone evaluation counters owned by an engine. Cheap to bump from
    /// parallel workers; read via [`EngineStats::snapshot`].
    mirror pub struct EngineStats;
}

impl EngineStats {
    /// A fresh, all-zero counter set.
    pub fn new() -> EngineStats {
        EngineStats::default()
    }

    /// Region evaluations started.
    pub fn add_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds wall time spent filtering the MOFT by time predicates.
    pub fn add_time_filter_ns(&self, since: Instant) {
        self.time_filter_ns
            .fetch_add(elapsed_ns(since), Ordering::Relaxed);
    }

    /// Adds wall time spent resolving geometric sub-queries.
    pub fn add_filter_resolve_ns(&self, since: Instant) {
        self.filter_resolve_ns
            .fetch_add(elapsed_ns(since), Ordering::Relaxed);
    }

    /// Adds wall time spent matching records/trajectories spatially.
    pub fn add_spatial_match_ns(&self, since: Instant) {
        self.spatial_match_ns
            .fetch_add(elapsed_ns(since), Ordering::Relaxed);
    }

    /// Seeds the ingest counters from a streaming pipeline's tallies —
    /// used by the `from_snapshot` engine constructors so stream-fed
    /// engines surface ingestion work next to their query work.
    pub fn set_ingest_counters(
        &self,
        ingested: u64,
        late_dropped: u64,
        sealed: u64,
        merged: u64,
        tail_scanned: u64,
    ) {
        self.records_ingested.store(ingested, Ordering::Relaxed);
        self.records_late_dropped
            .store(late_dropped, Ordering::Relaxed);
        self.segments_sealed.store(sealed, Ordering::Relaxed);
        self.partials_merged.store(merged, Ordering::Relaxed);
        self.tail_records_scanned
            .store(tail_scanned, Ordering::Relaxed);
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl StatsSnapshot {
    /// Whether a [`StatsSnapshot::fields`] name is a wall-time tally
    /// (nanoseconds) rather than an event count. Timing fields are the
    /// ones excluded from "identical counts" comparisons between
    /// parallel and sequential runs.
    pub fn is_timing_field(name: &str) -> bool {
        name.ends_with("_ns")
    }

    /// A copy with every timing field zeroed — what the parallel-vs-
    /// sequential determinism tests compare.
    pub fn zero_timings(mut self) -> StatsSnapshot {
        self.time_filter_ns = 0;
        self.filter_resolve_ns = 0;
        self.spatial_match_ns = 0;
        self
    }
}

/// Collects one query's phase spans from [`EngineStats`] snapshots.
///
/// The engine's counters are cumulative; a `PhaseTrace` turns them into
/// per-phase **deltas** by snapshotting at each phase boundary. Phases
/// run sequentially within one query, so as long as no other query runs
/// on the same engine concurrently, the phase deltas plus the root's
/// residual partition the query's total delta exactly — the
/// counter-conservation invariant `explain_analyze` is property-tested
/// on.
///
/// Disabled traces ([`PhaseTrace::disabled`]) skip the snapshots
/// entirely; each hook is then a single `Option` check.
#[derive(Debug)]
pub struct PhaseTrace {
    state: Option<PhaseState>,
}

#[derive(Debug)]
struct PhaseState {
    last: StatsSnapshot,
    spans: Vec<Span>,
}

impl PhaseTrace {
    /// A no-op trace: every hook returns immediately.
    pub fn disabled() -> PhaseTrace {
        PhaseTrace { state: None }
    }

    /// Starts collecting, baselining against the engine's current
    /// counters.
    pub fn enabled(stats: &EngineStats) -> PhaseTrace {
        PhaseTrace {
            state: Some(PhaseState {
                last: stats.snapshot(),
                // Eval runs three named phases; pre-sizing skips the
                // 1→2→4 realloc chain on every traced query.
                spans: Vec::with_capacity(4),
            }),
        }
    }

    /// Whether this trace is collecting.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Closes a phase that began at `started`: attributes every counter
    /// bumped since the previous boundary to a new span named `name`.
    pub fn phase(&mut self, stats: &EngineStats, name: &'static str, started: Instant) {
        let Some(state) = &mut self.state else {
            return;
        };
        let now = stats.snapshot();
        let delta = now.delta(&state.last);
        state.last = now;
        state.spans.push(Span {
            name,
            duration_ns: elapsed_ns(started),
            counters: nonzero_fields(&delta),
            children: Vec::new(),
        });
    }

    /// Finishes the query: returns the root span (duration measured from
    /// `started`, own counters = the residual bumped outside any phase,
    /// children = the recorded phases), or `None` if disabled.
    pub fn finish(self, stats: &EngineStats, name: &'static str, started: Instant) -> Option<Span> {
        let state = self.state?;
        let residual = stats.snapshot().delta(&state.last);
        Some(Span {
            name,
            duration_ns: elapsed_ns(started),
            counters: nonzero_fields(&residual),
            children: state.spans,
        })
    }
}

/// The non-zero counters of a snapshot, for span attribution. Runs once
/// per phase boundary on the traced hot path, so it counts first and
/// allocates exactly — an all-zero delta (common for fast phases) costs
/// no allocation at all.
fn nonzero_fields(snap: &StatsSnapshot) -> Vec<(&'static str, u64)> {
    let fields = snap.fields();
    let n = fields.iter().filter(|(_, v)| *v > 0).count();
    if n == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(n);
    out.extend(fields.into_iter().filter(|(_, v)| *v > 0));
    out
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queries={} records_scanned={} bbox_rejections={} rtree_probes={} \
             overlay_hits={} overlay_misses={} legs_cut={} \
             time_filter={:.3}ms filter_resolve={:.3}ms spatial_match={:.3}ms",
            self.queries,
            self.records_scanned,
            self.bbox_rejections,
            self.rtree_probes,
            self.overlay_hits,
            self.overlay_misses,
            self.legs_cut,
            self.time_filter_ns as f64 / 1e6,
            self.filter_resolve_ns as f64 / 1e6,
            self.spatial_match_ns as f64 / 1e6,
        )?;
        // Index counters only appear once index-assisted evaluation ran,
        // so scan-only engines (and the pinned explain goldens) keep the
        // compact line.
        if self.index_interval_probes > 0
            || self.index_bvh_probes > 0
            || self.index_zones_scanned > 0
            || self.index_zones_pruned > 0
            || self.index_records_pruned > 0
        {
            write!(
                f,
                " index_interval_probes={} index_bvh_probes={} index_zones_scanned={} \
                 index_zones_pruned={} index_records_pruned={}",
                self.index_interval_probes,
                self.index_bvh_probes,
                self.index_zones_scanned,
                self.index_zones_pruned,
                self.index_records_pruned,
            )?;
        }
        // Ingest counters only appear for stream-fed engines.
        if self.records_ingested > 0 || self.segments_sealed > 0 {
            write!(
                f,
                " ingested={} late_dropped={} segments_sealed={} partials_merged={} \
                 tail_scanned={}",
                self.records_ingested,
                self.records_late_dropped,
                self.segments_sealed,
                self.partials_merged,
                self.tail_records_scanned,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let stats = EngineStats::new();
        stats.add_records_scanned(10);
        stats.add_records_scanned(5);
        stats.add_bbox_rejections(3);
        stats.add_rtree_probes(2);
        stats.add_overlay_hits(1);
        stats.add_overlay_misses(4);
        stats.add_legs_cut(7);
        stats.add_query();
        let snap = stats.snapshot();
        assert_eq!(snap.records_scanned, 15);
        assert_eq!(snap.bbox_rejections, 3);
        assert_eq!(snap.rtree_probes, 2);
        assert_eq!(snap.overlay_hits, 1);
        assert_eq!(snap.overlay_misses, 4);
        assert_eq!(snap.legs_cut, 7);
        assert_eq!(snap.queries, 1);
        stats.reset();
        assert_eq!(stats.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn phase_timers_record_elapsed() {
        let stats = EngineStats::new();
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        stats.add_time_filter_ns(t0);
        assert!(stats.snapshot().time_filter_ns >= 1_000_000);
    }

    #[test]
    fn fields_cover_every_counter() {
        let stats = EngineStats::new();
        stats.add_records_scanned(2);
        stats.add_query();
        stats.set_ingest_counters(5, 1, 3, 4, 6);
        stats.add_index_interval_probes(1);
        stats.add_index_bvh_probes(2);
        stats.add_index_zones_scanned(3);
        stats.add_index_zones_pruned(4);
        stats.add_index_records_pruned(9);
        let snap = stats.snapshot();
        let fields = snap.fields();
        assert_eq!(fields.len(), 20);
        assert!(fields.contains(&("index_interval_probes", 1)));
        assert!(fields.contains(&("index_zones_pruned", 4)));
        assert!(fields.contains(&("index_records_pruned", 9)));
        assert!(fields.contains(&("records_scanned", 2)));
        assert!(fields.contains(&("queries", 1)));
        assert!(fields.contains(&("records_ingested", 5)));
        assert!(fields.contains(&("tail_records_scanned", 6)));
        assert!(StatsSnapshot::is_timing_field("time_filter_ns"));
        assert!(!StatsSnapshot::is_timing_field("records_scanned"));
    }

    #[test]
    fn delta_subtracts_and_saturates() {
        let stats = EngineStats::new();
        stats.add_records_scanned(10);
        let before = stats.snapshot();
        stats.add_records_scanned(7);
        stats.add_rtree_probes(2);
        let delta = stats.snapshot().delta(&before);
        assert_eq!(delta.records_scanned, 7);
        assert_eq!(delta.rtree_probes, 2);
        assert_eq!(delta.queries, 0);
        // A reset between snapshots saturates to zero, never wraps.
        stats.reset();
        let after_reset = stats.snapshot().delta(&before);
        assert_eq!(after_reset, StatsSnapshot::default());
    }

    #[test]
    fn zero_timings_clears_only_ns_fields() {
        let stats = EngineStats::new();
        stats.add_records_scanned(3);
        stats.add_time_filter_ns(Instant::now());
        stats.add_filter_resolve_ns(Instant::now());
        stats.add_spatial_match_ns(Instant::now());
        let snap = stats.snapshot().zero_timings();
        assert_eq!(snap.time_filter_ns, 0);
        assert_eq!(snap.filter_resolve_ns, 0);
        assert_eq!(snap.spatial_match_ns, 0);
        assert_eq!(snap.records_scanned, 3);
    }

    #[test]
    fn phase_trace_partitions_the_delta() {
        let stats = EngineStats::new();
        stats.add_records_scanned(100); // pre-existing work, not this query's
        let before = stats.snapshot();

        let t0 = Instant::now();
        let mut trace = PhaseTrace::enabled(&stats);
        assert!(trace.is_enabled());

        let p = Instant::now();
        stats.add_records_scanned(40);
        trace.phase(&stats, "time-filter", p);

        let p = Instant::now();
        stats.add_rtree_probes(3);
        stats.add_records_scanned(2);
        trace.phase(&stats, "spatial-match", p);

        stats.add_query(); // residual: bumped outside any named phase
        let root = trace.finish(&stats, "eval", t0).expect("enabled trace");

        assert_eq!(root.name, "eval");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "time-filter");
        assert_eq!(root.children[0].counter("records_scanned"), 40);
        assert_eq!(root.children[1].counter("rtree_probes"), 3);
        assert_eq!(root.counter("queries"), 1);

        // Counter conservation: subtree totals == the snapshot delta.
        let delta = stats.snapshot().delta(&before);
        for (name, value) in delta.fields() {
            assert_eq!(root.total(name), value, "counter {name} not conserved");
        }
    }

    #[test]
    fn disabled_phase_trace_is_inert() {
        let stats = EngineStats::new();
        let mut trace = PhaseTrace::disabled();
        assert!(!trace.is_enabled());
        trace.phase(&stats, "time-filter", Instant::now());
        assert!(trace.finish(&stats, "eval", Instant::now()).is_none());
    }

    #[test]
    fn snapshot_is_display() {
        let stats = EngineStats::new();
        stats.add_query();
        let text = stats.snapshot().to_string();
        assert!(text.contains("queries=1"), "{text}");
        // Index counters stay hidden until index-assisted work happens.
        assert!(!text.contains("index_"), "{text}");
        stats.add_index_zones_pruned(2);
        let text = stats.snapshot().to_string();
        assert!(text.contains("index_zones_pruned=2"), "{text}");
    }
}
