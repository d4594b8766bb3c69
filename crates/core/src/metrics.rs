//! Prometheus-style exposition of engine and ingest counters.
//!
//! Bridges the domain side (engines, [`crate::stats::StatsSnapshot`],
//! [`gisolap_obs::QueryObs`]) to the generic
//! [`gisolap_obs::MetricsRegistry`]: [`fill_engine_metrics`] publishes
//! every counter of one engine under a stable metric name, and
//! [`engine_metrics`] is the one-shot convenience that returns the
//! rendered exposition text. Metric names, labels and units are
//! documented exhaustively in `OBSERVABILITY.md`.

use gisolap_obs::MetricsRegistry;

use crate::engine::QueryEngine;
use crate::stats::StatsSnapshot;

/// Publishes one engine's counters into `registry`, labelled
/// `engine="<name>"`:
///
/// * every event counter of [`StatsSnapshot::fields`] as
///   `gisolap_<field>_total`;
/// * every `*_ns` timing field as
///   `gisolap_phase_seconds_total{engine, phase}` (seconds, fractional);
/// * with a [`gisolap_obs::QueryObs`] attached: the
///   `gisolap_eval_latency_seconds` histogram and
///   `gisolap_slow_queries_total`.
///
/// Re-filling with the same engine replaces the samples in place, so one
/// long-lived registry can serve repeated scrapes over several engines.
pub fn fill_engine_metrics<E: QueryEngine + ?Sized>(registry: &mut MetricsRegistry, engine: &E) {
    let name = engine.name();
    let snap = engine.stats().snapshot();
    for (field, value) in snap.fields() {
        if StatsSnapshot::is_timing_field(field) {
            let phase = field.trim_end_matches("_ns");
            registry.set_counter(
                "gisolap_phase_seconds_total",
                "Wall time spent per evaluation phase, seconds.",
                &[("engine", name), ("phase", phase)],
                value as f64 / 1e9,
            );
        } else {
            // Metric names must be 'static-ish strings; build the
            // conventional `_total` name from the field name.
            let metric = format!("gisolap_{field}_total");
            let help = StatsSnapshot::field_help(field).unwrap_or_default();
            registry.set_counter_u64(&metric, help, &[("engine", name)], value);
        }
    }
    if let Some(obs) = engine.obs() {
        registry.set_histogram(
            "gisolap_eval_latency_seconds",
            "Per-query evaluation wall time, seconds (log2 buckets).",
            &[("engine", name)],
            obs.latency().snapshot(),
        );
        registry.set_counter_u64(
            "gisolap_slow_queries_total",
            "Queries exceeding the GISOLAP_SLOW_QUERY_MS threshold.",
            &[("engine", name)],
            obs.slow_queries().total(),
        );
    }
}

/// One-shot exposition: fills a fresh registry from `engine` and returns
/// the rendered Prometheus text.
pub fn engine_metrics<E: QueryEngine + ?Sized>(engine: &E) -> String {
    let mut registry = MetricsRegistry::new();
    fill_engine_metrics(&mut registry, engine);
    registry.render_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NaiveEngine;
    use crate::gis::Gis;
    use gisolap_obs::QueryObs;
    use gisolap_traj::moft::Moft;

    fn empty_world() -> (Gis, Moft) {
        (Gis::new(), Moft::new())
    }

    #[test]
    fn every_snapshot_field_is_exported() {
        let (gis, moft) = empty_world();
        let engine = NaiveEngine::new(&gis, &moft);
        engine.stats().add_records_scanned(3);
        let text = engine_metrics(&engine);
        for (field, _) in engine.stats().snapshot().fields() {
            if StatsSnapshot::is_timing_field(field) {
                let phase = field.trim_end_matches("_ns");
                assert!(
                    text.contains(&format!("phase=\"{phase}\"")),
                    "missing phase {phase} in:\n{text}"
                );
            } else {
                assert!(
                    text.contains(&format!("gisolap_{field}_total")),
                    "missing field {field} in:\n{text}"
                );
            }
        }
        assert!(text.contains("gisolap_records_scanned_total{engine=\"naive\"} 3\n"));
    }

    #[test]
    fn obs_metrics_appear_only_when_attached() {
        let (gis, moft) = empty_world();
        let bare = NaiveEngine::new(&gis, &moft);
        assert!(!engine_metrics(&bare).contains("gisolap_eval_latency_seconds"));

        let engine = NaiveEngine::new(&gis, &moft).with_obs(QueryObs::from_env());
        let text = engine_metrics(&engine);
        assert!(
            text.contains("# TYPE gisolap_eval_latency_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("gisolap_slow_queries_total{engine=\"naive\"} 0\n"),
            "{text}"
        );
    }

    #[test]
    fn refill_replaces_samples() {
        let (gis, moft) = empty_world();
        let engine = NaiveEngine::new(&gis, &moft);
        let mut registry = MetricsRegistry::new();
        fill_engine_metrics(&mut registry, &engine);
        engine.stats().add_rtree_probes(9);
        fill_engine_metrics(&mut registry, &engine);
        let text = registry.render_prometheus();
        assert!(
            text.contains("gisolap_rtree_probes_total{engine=\"naive\"} 9\n"),
            "{text}"
        );
        assert_eq!(text.matches("# TYPE gisolap_rtree_probes_total").count(), 1);
    }
}
