//! Property tests for the observability layer.
//!
//! Two invariants from DESIGN.md §5d, checked on random cities, traffic
//! and filters across all three engines:
//!
//! 1. **Counter conservation** — the span tree returned by
//!    [`explain_analyze`] partitions the query's [`StatsSnapshot`] delta:
//!    for every counter, the subtree total (children plus the root's
//!    residual) equals the snapshot difference taken around the query.
//! 2. **Thread-count independence** — the counter delta of a query
//!    (timings zeroed) is identical whether evaluation runs on one
//!    worker or four.
//!
//! Plus docs-coverage checks — every counter-set field and span name
//! must appear in `OBSERVABILITY.md` — and a golden of the Prometheus
//! exposition of every counter set.

use gisolap_core::engine::{
    explain_analyze, IndexedEngine, NaiveEngine, OverlayEngine, QueryEngine,
};
use gisolap_core::region::{CmpOp, GeoFilter, RegionC, SpatialPredicate, TimePredicate};
use gisolap_core::stats::StatsSnapshot;
use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{CityConfig, CityScenario};
use gisolap_olap::time::TimeOfDay;
use gisolap_olap::value::Value;
use proptest::prelude::*;

fn geo_filter() -> impl Strategy<Value = GeoFilter> {
    prop_oneof![
        Just(GeoFilter::All),
        Just(GeoFilter::IntersectsLayer { layer: "Lr".into() }),
        Just(GeoFilter::ContainsNodeOf {
            layer: "Lstores".into()
        }),
        (900i64..3500).prop_map(|v| GeoFilter::AttrCompare {
            category: "neighborhood".into(),
            attr: "income".into(),
            op: CmpOp::Lt,
            value: Value::Int(v),
        }),
    ]
}

fn time_preds() -> impl Strategy<Value = Vec<TimePredicate>> {
    prop_oneof![
        Just(vec![]),
        Just(vec![TimePredicate::TimeOfDayIs(TimeOfDay::Morning)]),
        (6u32..12).prop_map(|h| vec![TimePredicate::HourOfDayIn { lo: h, hi: h + 2 }]),
    ]
}

fn scenario(seed: u64) -> (CityScenario, gisolap_traj::moft::Moft) {
    let city = CityScenario::generate(CityConfig {
        blocks_x: 4,
        blocks_y: 2,
        schools: 4,
        stores: 6,
        gas_stations: 2,
        seed,
        ..CityConfig::default()
    });
    let moft = RandomWaypoint {
        seed: seed.wrapping_add(5),
        ..RandomWaypoint::new(city.bbox, 10, 15)
    }
    .generate(0);
    (city, moft)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn span_totals_partition_the_stats_delta(
        seed in 0u64..1000,
        filter in geo_filter(),
        time in time_preds(),
        interpolated in proptest::bool::ANY,
    ) {
        let (city, moft) = scenario(seed);
        let mut region = RegionC::all()
            .with_spatial(SpatialPredicate::in_layer("Ln", filter));
        region.time = time;
        if interpolated {
            region = region.interpolated();
        }

        let naive = NaiveEngine::new(&city.gis, &moft);
        let indexed = IndexedEngine::new(&city.gis, &moft);
        let overlay = OverlayEngine::new(&city.gis, &moft);
        for engine in [&naive as &dyn QueryEngine, &indexed, &overlay] {
            let ea = explain_analyze(engine, &region).unwrap();
            prop_assert_eq!(ea.delta.queries, 1, "engine {}", engine.name());
            // The span tree partitions the delta: for every counter, the
            // subtree total equals the snapshot difference.
            for (name, expected) in ea.delta.fields() {
                prop_assert_eq!(
                    ea.root.total(name),
                    expected,
                    "counter {} on engine {}",
                    name,
                    engine.name()
                );
            }
            // And the recorded row counts match a direct evaluation.
            let direct = engine.eval(&region).unwrap();
            prop_assert_eq!(ea.rows, direct.len(), "engine {}", engine.name());
        }
    }

    #[test]
    // Flips GISOLAP_THREADS: the rayon shim has no in-process override.
    #[allow(clippy::disallowed_methods)]
    fn counter_deltas_are_thread_count_independent(
        seed in 0u64..1000,
        filter in geo_filter(),
        interpolated in proptest::bool::ANY,
    ) {
        let (city, moft) = scenario(seed.wrapping_add(17));
        let mut region = RegionC::all()
            .with_spatial(SpatialPredicate::in_layer("Ln", filter));
        if interpolated {
            region = region.interpolated();
        }

        let naive = NaiveEngine::new(&city.gis, &moft);
        let indexed = IndexedEngine::new(&city.gis, &moft);
        let overlay = OverlayEngine::new(&city.gis, &moft);
        for engine in [&naive as &dyn QueryEngine, &indexed, &overlay] {
            let delta_at = |threads: &str| -> StatsSnapshot {
                std::env::set_var("GISOLAP_THREADS", threads);
                let before = engine.stats().snapshot();
                engine.eval(&region).unwrap();
                let after = engine.stats().snapshot();
                std::env::remove_var("GISOLAP_THREADS");
                after.delta(&before).zero_timings()
            };
            let parallel = delta_at("4");
            let sequential = delta_at("1");
            prop_assert_eq!(
                parallel.fields(),
                sequential.fields(),
                "engine {}",
                engine.name()
            );
        }
    }
}

#[test]
fn observability_doc_covers_every_snapshot_field() {
    let doc = include_str!("../../OBSERVABILITY.md");
    let snap = StatsSnapshot::default();
    let ingest = gisolap_stream::IngestStats::default();
    let missing: Vec<&str> = snap
        .fields()
        .iter()
        .chain(ingest.fields().iter())
        .map(|(name, _)| *name)
        .filter(|name| !doc.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "OBSERVABILITY.md does not document: {missing:?}"
    );
    assert!(
        doc.contains("gisolap_ingest_<field>_total"),
        "OBSERVABILITY.md missing `gisolap_ingest_<field>_total`"
    );
}

#[test]
fn observability_doc_covers_every_span_name() {
    let doc = include_str!("../../OBSERVABILITY.md");
    for span in [
        "eval",
        "time-filter",
        "filter-resolve",
        "index-prune",
        "spatial-match",
        "aggregate",
        "segment-seal",
        "partial-merge",
        "wal-append",
        "segment-flush",
        "recover-replay",
    ] {
        assert!(doc.contains(span), "OBSERVABILITY.md missing span `{span}`");
    }
    for extra in ["records_sealed", "cells_created", "GISOLAP_SLOW_QUERY_MS"] {
        assert!(doc.contains(extra), "OBSERVABILITY.md missing `{extra}`");
    }
}

#[test]
fn observability_doc_covers_every_store_stat_field() {
    let doc = include_str!("../../OBSERVABILITY.md");
    let stats = gisolap_store::StoreStats::default();
    let missing: Vec<&str> = stats
        .fields()
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !doc.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "OBSERVABILITY.md does not document store counters: {missing:?}"
    );
}

#[test]
fn observability_doc_covers_every_repl_stat_field() {
    let doc = include_str!("../../OBSERVABILITY.md");
    let follower = gisolap_repl::ReplStats::default();
    let leader = gisolap_repl::LeaderStats::default();
    let missing: Vec<&str> = follower
        .fields()
        .iter()
        .chain(leader.fields().iter())
        .map(|(name, _)| *name)
        .filter(|name| !doc.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "OBSERVABILITY.md does not document replication counters: {missing:?}"
    );
    for name in [
        "gisolap_repl_<field>_total",
        "gisolap_repl_leader_<field>_total",
        "gisolap_repl_lag_seqs",
    ] {
        assert!(doc.contains(name), "OBSERVABILITY.md missing `{name}`");
    }
}

#[test]
fn observability_doc_covers_every_serve_stat_field() {
    let doc = include_str!("../../OBSERVABILITY.md");
    let stats = gisolap_serve::ServeStats::default();
    let missing: Vec<&str> = stats
        .fields()
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !doc.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "OBSERVABILITY.md does not document serving counters: {missing:?}"
    );
    assert!(
        doc.contains("gisolap_serve_<field>_total"),
        "OBSERVABILITY.md missing `gisolap_serve_<field>_total`"
    );
}

#[test]
fn observability_doc_covers_every_shard_stat_field() {
    let doc = include_str!("../../OBSERVABILITY.md");
    let coord = gisolap_shard::ShardStats::default();
    let route = gisolap_shard::RouteStats::default();
    let missing: Vec<&str> = coord
        .fields()
        .iter()
        .chain(route.fields().iter())
        .map(|(name, _)| *name)
        .filter(|name| !doc.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "OBSERVABILITY.md does not document shard counters: {missing:?}"
    );
    assert!(
        doc.contains("gisolap_shard_<field>_total"),
        "OBSERVABILITY.md missing `gisolap_shard_<field>_total`"
    );
}

#[test]
fn observability_doc_covers_every_shard_span_name() {
    let doc = include_str!("../../OBSERVABILITY.md");
    for span in ["shard-eval", "shard-scatter", "shard-gather"] {
        assert!(doc.contains(span), "OBSERVABILITY.md missing span `{span}`");
    }
    // The span-only counters the scatter/gather legs report.
    for extra in ["cells_gathered", "cells_window_pruned", "gather_merges"] {
        assert!(doc.contains(extra), "OBSERVABILITY.md missing `{extra}`");
    }
}

#[test]
fn observability_doc_covers_every_sub_stat_field() {
    let doc = include_str!("../../OBSERVABILITY.md");
    let stats = gisolap_sub::SubStats::default();
    let missing: Vec<&str> = stats
        .fields()
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !doc.contains(name))
        .collect();
    assert!(
        missing.is_empty(),
        "OBSERVABILITY.md does not document standing-query counters: {missing:?}"
    );
    for name in ["gisolap_sub_<field>_total", "gisolap_sub_value"] {
        assert!(doc.contains(name), "OBSERVABILITY.md missing `{name}`");
    }
}

#[test]
fn observability_doc_covers_the_sub_span() {
    let doc = include_str!("../../OBSERVABILITY.md");
    assert!(
        doc.contains("sub-fold"),
        "OBSERVABILITY.md missing span `sub-fold`"
    );
    // The span-only counters one standing-query fold reports.
    for extra in ["subs_evaluated", "cells_folded", "sub_notifications"] {
        assert!(doc.contains(extra), "OBSERVABILITY.md missing `{extra}`");
    }
}

#[test]
fn observability_doc_covers_every_repl_span_name() {
    let doc = include_str!("../../OBSERVABILITY.md");
    for span in [
        "repl-poll",
        "repl-fetch",
        "repl-apply",
        "repl-snapshot-install",
    ] {
        assert!(doc.contains(span), "OBSERVABILITY.md missing span `{span}`");
    }
    // The span-only counters replication rounds report.
    for extra in ["reply_bytes", "entries_applied", "segments"] {
        assert!(doc.contains(extra), "OBSERVABILITY.md missing `{extra}`");
    }
}

/// Fills one registry from every counter set — each field carrying a
/// distinct non-zero value, so a swapped name/value pair shows — and
/// renders it. Timing fields hold wall time, so their samples are
/// rounded to whole seconds before the comparison.
fn render_every_counter_set() -> String {
    use gisolap_core::gis::Gis;
    use gisolap_core::metrics::fill_engine_metrics;
    use gisolap_obs::MetricsRegistry;
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::{TimeId, TimeLevel};
    use gisolap_stream::{Measure, RollupQuery, StreamConfig, StreamIngest};
    use gisolap_traj::moft::Moft;
    use gisolap_traj::{ObjectId, Record};
    use std::time::{Duration, Instant};

    let mut registry = MetricsRegistry::new();

    let (gis, moft) = (Gis::new(), Moft::new());
    let engine = NaiveEngine::new(&gis, &moft);
    let stats = engine.stats();
    stats.add_records_scanned(1);
    stats.add_bbox_rejections(2);
    stats.add_rtree_probes(3);
    stats.add_overlay_hits(4);
    stats.add_overlay_misses(5);
    stats.add_legs_cut(6);
    for _ in 0..7 {
        stats.add_query();
    }
    let ago = |secs| Instant::now() - Duration::from_secs(secs);
    stats.add_time_filter_ns(ago(1));
    stats.add_filter_resolve_ns(ago(2));
    stats.add_spatial_match_ns(ago(3));
    stats.set_ingest_counters(8, 9, 10, 11, 12);
    stats.add_index_interval_probes(13);
    stats.add_index_bvh_probes(14);
    stats.add_index_zones_scanned(15);
    stats.add_index_zones_pruned(16);
    stats.add_index_records_pruned(17);
    fill_engine_metrics(&mut registry, &engine);

    // Two-hour segments: segment 0 seals with two hour cells, three
    // records stay in the tail (scanned once by a rollup), and four
    // records arrive behind the sealed frontier.
    let rec = |t: i64| Record {
        oid: ObjectId(t as u64),
        t: TimeId(t),
        x: 1.0,
        y: 2.0,
    };
    let mut ingest = StreamIngest::new(StreamConfig {
        lateness_seconds: 0,
        segment_seconds: 7200,
    })
    .unwrap();
    ingest.ingest(&[rec(100), rec(3700), rec(7300), rec(7400), rec(7500)]);
    ingest.ingest(&[rec(10), rec(20), rec(30), rec(40)]);
    ingest
        .rollup(&RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
        .unwrap();
    let ingest_stats = ingest.stats();
    let mut values: Vec<u64> = ingest_stats.fields().iter().map(|(_, v)| *v).collect();
    values.sort_unstable();
    assert_eq!(values, [1, 2, 3, 4, 5], "ingest counters must be distinct");
    ingest_stats.fill_metrics(&mut registry);

    gisolap_store::StoreStats {
        wal_appends: 101,
        wal_records: 102,
        wal_bytes: 103,
        wal_syncs: 104,
        segments_flushed: 105,
        flush_bytes: 106,
        checkpoints: 107,
        delta_checkpoints: 108,
        recoveries: 109,
        wal_entries_replayed: 110,
        wal_records_replayed: 111,
        wal_truncated_bytes: 112,
        compactions: 113,
        segments_compacted: 114,
        corruption_detected: 115,
    }
    .fill_metrics(&mut registry);
    gisolap_repl::LeaderStats {
        requests: 201,
        frames_shipped: 202,
        compacted_replies: 203,
        snapshots_shipped: 204,
        bad_requests: 205,
        fenced_rejections: 206,
    }
    .fill_metrics(&mut registry);
    gisolap_repl::ReplStats {
        polls: 301,
        entries_applied: 302,
        records_applied: 303,
        duplicates_skipped: 304,
        seq_gaps: 305,
        corrupt_frames: 306,
        corrupt_replies: 307,
        transport_errors: 308,
        retries: 309,
        reconnects: 310,
        snapshot_fallbacks: 311,
        snapshots_installed: 312,
        stale_epoch_rejections: 313,
    }
    .fill_metrics(&mut registry);
    gisolap_serve::ServeStats {
        connections_accepted: 401,
        connections_rejected: 402,
        requests: 403,
        rollup_requests: 404,
        repl_requests: 405,
        ping_requests: 406,
        partials_requests: 407,
        sharded_requests: 408,
        subscribe_requests: 409,
        notifications_requests: 410,
        busy_rejections: 411,
        quota_rejections: 412,
        bad_requests: 413,
        bytes_in: 414,
        bytes_out: 415,
    }
    .fill_metrics(&mut registry);
    gisolap_shard::RouteStats {
        routed_batches: 501,
        routed_records: 502,
    }
    .fill_metrics(&mut registry);
    gisolap_shard::ShardStats {
        queries: 601,
        shards_queried: 602,
        shards_pruned: 603,
        cells_gathered: 604,
        cells_window_pruned: 605,
        gather_merges: 606,
        stale_fetches: 607,
        leadership_retries: 608,
    }
    .fill_metrics(&mut registry);
    gisolap_shard::ElasticStats {
        probes: 701,
        probe_failures: 702,
        lease_renewals: 703,
        failovers: 704,
        rebalances_committed: 705,
        rebalance_rollbacks: 706,
        rebalance_rollforwards: 707,
        cells_reassigned: 708,
    }
    .fill_metrics(&mut registry);
    gisolap_sub::SubStats {
        registered: 801,
        notifications: 802,
        seals_folded: 803,
        threshold_fires: 804,
    }
    .fill_metrics(&mut registry);

    registry
        .render_prometheus()
        .lines()
        .map(|line| match line.split_once("} ") {
            Some((series, secs)) if series.starts_with("gisolap_phase_seconds_total") => {
                let secs: f64 = secs.parse().expect("phase seconds");
                format!("{series}}} {}\n", secs.floor())
            }
            _ => format!("{line}\n"),
        })
        .collect()
}

/// The full Prometheus exposition of every counter set: metric names,
/// HELP and TYPE lines, label sets, order and values are all pinned.
#[test]
fn prometheus_exposition_of_every_counter_set_is_golden() {
    let text = render_every_counter_set();
    assert_eq!(text, PROMETHEUS_GOLDEN, "rendered:\n{text}");
}

const PROMETHEUS_GOLDEN: &str = r#"# HELP gisolap_records_scanned_total MOFT records examined by time filtering.
# TYPE gisolap_records_scanned_total counter
gisolap_records_scanned_total{engine="naive"} 1
# HELP gisolap_bbox_rejections_total Geometry elements discarded on bounding box alone.
# TYPE gisolap_bbox_rejections_total counter
gisolap_bbox_rejections_total{engine="naive"} 2
# HELP gisolap_rtree_probes_total R-tree searches issued.
# TYPE gisolap_rtree_probes_total counter
gisolap_rtree_probes_total{engine="naive"} 3
# HELP gisolap_overlay_hits_total Layer-pair lookups answered from the precomputed overlay.
# TYPE gisolap_overlay_hits_total counter
gisolap_overlay_hits_total{engine="naive"} 4
# HELP gisolap_overlay_misses_total Layer-pair requests computed per call (no precomputation).
# TYPE gisolap_overlay_misses_total counter
gisolap_overlay_misses_total{engine="naive"} 5
# HELP gisolap_legs_cut_total Trajectory sub-legs produced by time-window cutting.
# TYPE gisolap_legs_cut_total counter
gisolap_legs_cut_total{engine="naive"} 6
# HELP gisolap_queries_total Region evaluations started.
# TYPE gisolap_queries_total counter
gisolap_queries_total{engine="naive"} 7
# HELP gisolap_phase_seconds_total Wall time spent per evaluation phase, seconds.
# TYPE gisolap_phase_seconds_total counter
gisolap_phase_seconds_total{engine="naive",phase="time_filter"} 1
gisolap_phase_seconds_total{engine="naive",phase="filter_resolve"} 2
gisolap_phase_seconds_total{engine="naive",phase="spatial_match"} 3
# HELP gisolap_records_ingested_total Stream records accepted into ingest buffers.
# TYPE gisolap_records_ingested_total counter
gisolap_records_ingested_total{engine="naive"} 8
# HELP gisolap_records_late_dropped_total Stream records dead-lettered as later than the watermark.
# TYPE gisolap_records_late_dropped_total counter
gisolap_records_late_dropped_total{engine="naive"} 9
# HELP gisolap_segments_sealed_total Stream segments sealed.
# TYPE gisolap_segments_sealed_total counter
gisolap_segments_sealed_total{engine="naive"} 10
# HELP gisolap_partials_merged_total Partial-aggregate entries merged into the delta cube.
# TYPE gisolap_partials_merged_total counter
gisolap_partials_merged_total{engine="naive"} 11
# HELP gisolap_tail_records_scanned_total Live tail records scanned by incremental rollups.
# TYPE gisolap_tail_records_scanned_total counter
gisolap_tail_records_scanned_total{engine="naive"} 12
# HELP gisolap_index_interval_probes_total Interval-tree window searches over object time extents.
# TYPE gisolap_index_interval_probes_total counter
gisolap_index_interval_probes_total{engine="naive"} 13
# HELP gisolap_index_bvh_probes_total BVH searches over object bounding boxes.
# TYPE gisolap_index_bvh_probes_total counter
gisolap_index_bvh_probes_total{engine="naive"} 14
# HELP gisolap_index_zones_scanned_total Zone-map blocks scanned after index pruning.
# TYPE gisolap_index_zones_scanned_total counter
gisolap_index_zones_scanned_total{engine="naive"} 15
# HELP gisolap_index_zones_pruned_total Zone-map blocks skipped wholesale by index pruning.
# TYPE gisolap_index_zones_pruned_total counter
gisolap_index_zones_pruned_total{engine="naive"} 16
# HELP gisolap_index_records_pruned_total Records excluded by index pruning before exact tests.
# TYPE gisolap_index_records_pruned_total counter
gisolap_index_records_pruned_total{engine="naive"} 17
# HELP gisolap_ingest_records_ingested_total Streaming ingest counter.
# TYPE gisolap_ingest_records_ingested_total counter
gisolap_ingest_records_ingested_total 5
# HELP gisolap_ingest_records_late_dropped_total Streaming ingest counter.
# TYPE gisolap_ingest_records_late_dropped_total counter
gisolap_ingest_records_late_dropped_total 4
# HELP gisolap_ingest_segments_sealed_total Streaming ingest counter.
# TYPE gisolap_ingest_segments_sealed_total counter
gisolap_ingest_segments_sealed_total 1
# HELP gisolap_ingest_partials_merged_total Streaming ingest counter.
# TYPE gisolap_ingest_partials_merged_total counter
gisolap_ingest_partials_merged_total 2
# HELP gisolap_ingest_tail_records_scanned_total Streaming ingest counter.
# TYPE gisolap_ingest_tail_records_scanned_total counter
gisolap_ingest_tail_records_scanned_total 3
# HELP gisolap_store_wal_appends_total Durable segment store counter.
# TYPE gisolap_store_wal_appends_total counter
gisolap_store_wal_appends_total 101
# HELP gisolap_store_wal_records_total Durable segment store counter.
# TYPE gisolap_store_wal_records_total counter
gisolap_store_wal_records_total 102
# HELP gisolap_store_wal_bytes_total Durable segment store counter.
# TYPE gisolap_store_wal_bytes_total counter
gisolap_store_wal_bytes_total 103
# HELP gisolap_store_wal_syncs_total Durable segment store counter.
# TYPE gisolap_store_wal_syncs_total counter
gisolap_store_wal_syncs_total 104
# HELP gisolap_store_segments_flushed_total Durable segment store counter.
# TYPE gisolap_store_segments_flushed_total counter
gisolap_store_segments_flushed_total 105
# HELP gisolap_store_flush_bytes_total Durable segment store counter.
# TYPE gisolap_store_flush_bytes_total counter
gisolap_store_flush_bytes_total 106
# HELP gisolap_store_checkpoints_total Durable segment store counter.
# TYPE gisolap_store_checkpoints_total counter
gisolap_store_checkpoints_total 107
# HELP gisolap_store_delta_checkpoints_total Durable segment store counter.
# TYPE gisolap_store_delta_checkpoints_total counter
gisolap_store_delta_checkpoints_total 108
# HELP gisolap_store_recoveries_total Durable segment store counter.
# TYPE gisolap_store_recoveries_total counter
gisolap_store_recoveries_total 109
# HELP gisolap_store_wal_entries_replayed_total Durable segment store counter.
# TYPE gisolap_store_wal_entries_replayed_total counter
gisolap_store_wal_entries_replayed_total 110
# HELP gisolap_store_wal_records_replayed_total Durable segment store counter.
# TYPE gisolap_store_wal_records_replayed_total counter
gisolap_store_wal_records_replayed_total 111
# HELP gisolap_store_wal_truncated_bytes_total Durable segment store counter.
# TYPE gisolap_store_wal_truncated_bytes_total counter
gisolap_store_wal_truncated_bytes_total 112
# HELP gisolap_store_compactions_total Durable segment store counter.
# TYPE gisolap_store_compactions_total counter
gisolap_store_compactions_total 113
# HELP gisolap_store_segments_compacted_total Durable segment store counter.
# TYPE gisolap_store_segments_compacted_total counter
gisolap_store_segments_compacted_total 114
# HELP gisolap_store_corruption_detected_total Durable segment store counter.
# TYPE gisolap_store_corruption_detected_total counter
gisolap_store_corruption_detected_total 115
# HELP gisolap_repl_leader_requests_total Replication leader counter.
# TYPE gisolap_repl_leader_requests_total counter
gisolap_repl_leader_requests_total 201
# HELP gisolap_repl_leader_frames_shipped_total Replication leader counter.
# TYPE gisolap_repl_leader_frames_shipped_total counter
gisolap_repl_leader_frames_shipped_total 202
# HELP gisolap_repl_leader_compacted_replies_total Replication leader counter.
# TYPE gisolap_repl_leader_compacted_replies_total counter
gisolap_repl_leader_compacted_replies_total 203
# HELP gisolap_repl_leader_snapshots_shipped_total Replication leader counter.
# TYPE gisolap_repl_leader_snapshots_shipped_total counter
gisolap_repl_leader_snapshots_shipped_total 204
# HELP gisolap_repl_leader_bad_requests_total Replication leader counter.
# TYPE gisolap_repl_leader_bad_requests_total counter
gisolap_repl_leader_bad_requests_total 205
# HELP gisolap_repl_leader_fenced_rejections_total Replication leader counter.
# TYPE gisolap_repl_leader_fenced_rejections_total counter
gisolap_repl_leader_fenced_rejections_total 206
# HELP gisolap_repl_polls_total Replication follower counter.
# TYPE gisolap_repl_polls_total counter
gisolap_repl_polls_total 301
# HELP gisolap_repl_entries_applied_total Replication follower counter.
# TYPE gisolap_repl_entries_applied_total counter
gisolap_repl_entries_applied_total 302
# HELP gisolap_repl_records_applied_total Replication follower counter.
# TYPE gisolap_repl_records_applied_total counter
gisolap_repl_records_applied_total 303
# HELP gisolap_repl_duplicates_skipped_total Replication follower counter.
# TYPE gisolap_repl_duplicates_skipped_total counter
gisolap_repl_duplicates_skipped_total 304
# HELP gisolap_repl_seq_gaps_total Replication follower counter.
# TYPE gisolap_repl_seq_gaps_total counter
gisolap_repl_seq_gaps_total 305
# HELP gisolap_repl_corrupt_frames_total Replication follower counter.
# TYPE gisolap_repl_corrupt_frames_total counter
gisolap_repl_corrupt_frames_total 306
# HELP gisolap_repl_corrupt_replies_total Replication follower counter.
# TYPE gisolap_repl_corrupt_replies_total counter
gisolap_repl_corrupt_replies_total 307
# HELP gisolap_repl_transport_errors_total Replication follower counter.
# TYPE gisolap_repl_transport_errors_total counter
gisolap_repl_transport_errors_total 308
# HELP gisolap_repl_retries_total Replication follower counter.
# TYPE gisolap_repl_retries_total counter
gisolap_repl_retries_total 309
# HELP gisolap_repl_reconnects_total Replication follower counter.
# TYPE gisolap_repl_reconnects_total counter
gisolap_repl_reconnects_total 310
# HELP gisolap_repl_snapshot_fallbacks_total Replication follower counter.
# TYPE gisolap_repl_snapshot_fallbacks_total counter
gisolap_repl_snapshot_fallbacks_total 311
# HELP gisolap_repl_snapshots_installed_total Replication follower counter.
# TYPE gisolap_repl_snapshots_installed_total counter
gisolap_repl_snapshots_installed_total 312
# HELP gisolap_repl_stale_epoch_rejections_total Replication follower counter.
# TYPE gisolap_repl_stale_epoch_rejections_total counter
gisolap_repl_stale_epoch_rejections_total 313
# HELP gisolap_serve_connections_accepted_total Query/replication server counter.
# TYPE gisolap_serve_connections_accepted_total counter
gisolap_serve_connections_accepted_total 401
# HELP gisolap_serve_connections_rejected_total Query/replication server counter.
# TYPE gisolap_serve_connections_rejected_total counter
gisolap_serve_connections_rejected_total 402
# HELP gisolap_serve_requests_total Query/replication server counter.
# TYPE gisolap_serve_requests_total counter
gisolap_serve_requests_total 403
# HELP gisolap_serve_rollup_requests_total Query/replication server counter.
# TYPE gisolap_serve_rollup_requests_total counter
gisolap_serve_rollup_requests_total 404
# HELP gisolap_serve_repl_requests_total Query/replication server counter.
# TYPE gisolap_serve_repl_requests_total counter
gisolap_serve_repl_requests_total 405
# HELP gisolap_serve_ping_requests_total Query/replication server counter.
# TYPE gisolap_serve_ping_requests_total counter
gisolap_serve_ping_requests_total 406
# HELP gisolap_serve_partials_requests_total Query/replication server counter.
# TYPE gisolap_serve_partials_requests_total counter
gisolap_serve_partials_requests_total 407
# HELP gisolap_serve_sharded_requests_total Query/replication server counter.
# TYPE gisolap_serve_sharded_requests_total counter
gisolap_serve_sharded_requests_total 408
# HELP gisolap_serve_subscribe_requests_total Query/replication server counter.
# TYPE gisolap_serve_subscribe_requests_total counter
gisolap_serve_subscribe_requests_total 409
# HELP gisolap_serve_notifications_requests_total Query/replication server counter.
# TYPE gisolap_serve_notifications_requests_total counter
gisolap_serve_notifications_requests_total 410
# HELP gisolap_serve_busy_rejections_total Query/replication server counter.
# TYPE gisolap_serve_busy_rejections_total counter
gisolap_serve_busy_rejections_total 411
# HELP gisolap_serve_quota_rejections_total Query/replication server counter.
# TYPE gisolap_serve_quota_rejections_total counter
gisolap_serve_quota_rejections_total 412
# HELP gisolap_serve_bad_requests_total Query/replication server counter.
# TYPE gisolap_serve_bad_requests_total counter
gisolap_serve_bad_requests_total 413
# HELP gisolap_serve_bytes_in_total Query/replication server counter.
# TYPE gisolap_serve_bytes_in_total counter
gisolap_serve_bytes_in_total 414
# HELP gisolap_serve_bytes_out_total Query/replication server counter.
# TYPE gisolap_serve_bytes_out_total counter
gisolap_serve_bytes_out_total 415
# HELP gisolap_shard_routed_batches_total Shard routing counter.
# TYPE gisolap_shard_routed_batches_total counter
gisolap_shard_routed_batches_total 501
# HELP gisolap_shard_routed_records_total Shard routing counter.
# TYPE gisolap_shard_routed_records_total counter
gisolap_shard_routed_records_total 502
# HELP gisolap_shard_queries_total Shard coordinator counter.
# TYPE gisolap_shard_queries_total counter
gisolap_shard_queries_total 601
# HELP gisolap_shard_shards_queried_total Shard coordinator counter.
# TYPE gisolap_shard_shards_queried_total counter
gisolap_shard_shards_queried_total 602
# HELP gisolap_shard_shards_pruned_total Shard coordinator counter.
# TYPE gisolap_shard_shards_pruned_total counter
gisolap_shard_shards_pruned_total 603
# HELP gisolap_shard_cells_gathered_total Shard coordinator counter.
# TYPE gisolap_shard_cells_gathered_total counter
gisolap_shard_cells_gathered_total 604
# HELP gisolap_shard_cells_window_pruned_total Shard coordinator counter.
# TYPE gisolap_shard_cells_window_pruned_total counter
gisolap_shard_cells_window_pruned_total 605
# HELP gisolap_shard_gather_merges_total Shard coordinator counter.
# TYPE gisolap_shard_gather_merges_total counter
gisolap_shard_gather_merges_total 606
# HELP gisolap_shard_stale_fetches_total Shard coordinator counter.
# TYPE gisolap_shard_stale_fetches_total counter
gisolap_shard_stale_fetches_total 607
# HELP gisolap_shard_leadership_retries_total Shard coordinator counter.
# TYPE gisolap_shard_leadership_retries_total counter
gisolap_shard_leadership_retries_total 608
# HELP gisolap_elastic_probes_total Shard elasticity counter.
# TYPE gisolap_elastic_probes_total counter
gisolap_elastic_probes_total 701
# HELP gisolap_elastic_probe_failures_total Shard elasticity counter.
# TYPE gisolap_elastic_probe_failures_total counter
gisolap_elastic_probe_failures_total 702
# HELP gisolap_elastic_lease_renewals_total Shard elasticity counter.
# TYPE gisolap_elastic_lease_renewals_total counter
gisolap_elastic_lease_renewals_total 703
# HELP gisolap_elastic_failovers_total Shard elasticity counter.
# TYPE gisolap_elastic_failovers_total counter
gisolap_elastic_failovers_total 704
# HELP gisolap_elastic_rebalances_committed_total Shard elasticity counter.
# TYPE gisolap_elastic_rebalances_committed_total counter
gisolap_elastic_rebalances_committed_total 705
# HELP gisolap_elastic_rebalance_rollbacks_total Shard elasticity counter.
# TYPE gisolap_elastic_rebalance_rollbacks_total counter
gisolap_elastic_rebalance_rollbacks_total 706
# HELP gisolap_elastic_rebalance_rollforwards_total Shard elasticity counter.
# TYPE gisolap_elastic_rebalance_rollforwards_total counter
gisolap_elastic_rebalance_rollforwards_total 707
# HELP gisolap_elastic_cells_reassigned_total Shard elasticity counter.
# TYPE gisolap_elastic_cells_reassigned_total counter
gisolap_elastic_cells_reassigned_total 708
# HELP gisolap_sub_registered_total Standing-query counter.
# TYPE gisolap_sub_registered_total counter
gisolap_sub_registered_total 801
# HELP gisolap_sub_notifications_total Standing-query counter.
# TYPE gisolap_sub_notifications_total counter
gisolap_sub_notifications_total 802
# HELP gisolap_sub_seals_folded_total Standing-query counter.
# TYPE gisolap_sub_seals_folded_total counter
gisolap_sub_seals_folded_total 803
# HELP gisolap_sub_threshold_fires_total Standing-query counter.
# TYPE gisolap_sub_threshold_fires_total counter
gisolap_sub_threshold_fires_total 804
"#;
