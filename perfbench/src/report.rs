//! Metric names, percentile selection and the result line.
//!
//! Every metric the benchmark can print is declared once in
//! [`END_TO_END`] or [`PER_LAYER`]; `BENCHMARK.json` lists the same
//! names (a test pins the two together).

use std::collections::BTreeMap;
use std::time::Duration;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the `BENCHMARK.json` consistency test.
    #[allow(dead_code)]
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// Metrics a user of the system sees, printed by every untraced run of
/// every workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("read_p50_us", "us"),
    lower("read_p99_us", "us"),
    higher("read_ops_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// Metrics of single layers (and of the benchmark itself), printed by
/// every traced run. A workload that never reaches a layer reports 0
/// for that layer's metrics.
pub const PER_LAYER: &[MetricDef] = &[
    // core, index, pietql, rayon: the `regions` workload.
    lower("core.time_filter_us", "us"),
    lower("core.index_prune_us", "us"),
    lower("core.filter_resolve_us", "us"),
    lower("core.spatial_match_us", "us"),
    lower("core.aggregate_us", "us"),
    lower("core.records_examined_per_row", "count"),
    lower("core.rtree_probes_per_row", "count"),
    lower("core.legs_cut_per_query", "count"),
    higher("core.overlay_hit_ratio", "ratio"),
    higher("index.records_pruned_ratio", "ratio"),
    higher("index.zones_pruned_ratio", "ratio"),
    lower("pietql.parse_us", "us"),
    lower("pietql.execute_us", "us"),
    lower("rayon.par_over_seq", "ratio"),
    // stream, store, repl, sub, serve: the `live` workload.
    lower("write_p50_us", "us"),
    lower("write_p99_us", "us"),
    lower("recover_ms", "ms"),
    lower("disk_bytes_per_record", "B"),
    lower("stream.ingest_us", "us"),
    lower("stream.rollup_us", "us"),
    lower("stream.tail_records_per_read", "count"),
    lower("stream.segments_sealed", "count"),
    lower("stream.partials_merged", "count"),
    lower("store.wal_syncs_per_batch", "count"),
    lower("store.wal_bytes_per_record", "B"),
    lower("store.flush_us", "us"),
    lower("store.flush_bytes_per_record", "B"),
    lower("store.wal_records_replayed", "count"),
    lower("repl.sync_us", "us"),
    lower("repl.lag_seqs_max", "count"),
    lower("sub.poll_us", "us"),
    lower("sub.notifications_per_poll", "count"),
    lower("serve.lock_wait_us", "us"),
    lower("live.generator_late_ms", "ms"),
    // serve on `live` and `scatter`; shard on `scatter`.
    lower("serve.overhead_us", "us"),
    lower("serve.bytes_out_per_read", "B"),
    lower("serve.busy_rejections", "count"),
    higher("shard.prune_ratio", "ratio"),
    lower("shard.fetch_us", "us"),
    lower("shard.gather_us", "us"),
    lower("shard.cells_gathered_per_read", "count"),
    higher("shard.cells_window_pruned_ratio", "ratio"),
    lower("shard.slowest_fetch_share", "ratio"),
    lower("stream.extract_partials_us", "us"),
    // The benchmark's own cost: traced over untraced op time.
    lower("bench.trace_overhead_pct", "%"),
];

/// Whether `name` is a well-formed metric name: `[A-Za-z0-9_.-]+`,
/// starting with a letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The nearest-rank `pct` percentile of `sorted` (ascending), refusing a
/// percentile with fewer than ten samples beyond it: such a tail is too
/// thin to report.
pub fn percentile(sorted: &[f64], pct: f64) -> Result<f64, String> {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < 10 {
        return Err(format!(
            "p{pct} of {n} samples has {} samples beyond it; at least 10 are needed",
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

/// Latency samples of one kind of operation, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.0.push(us(d));
    }

    pub fn push_us(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn total_us(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The mean, or 0 without samples.
    pub fn mean(&self) -> f64 {
        ratio(self.total_us(), self.0.len() as f64)
    }

    pub fn percentile(&self, pct: f64) -> Result<f64, String> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, pct)
    }

    /// The median, whatever the sample count (at least one sample).
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// The median of a non-empty slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts printed before the result line: sample counts, rows per
    /// query class, sizes.
    pub facts: Vec<(String, String)>,
    /// Failed correctness checks; any entry fails the run.
    pub violations: Vec<String>,
    /// Smoke runs are too short for a p99: a thin tail is noted as a
    /// fact instead of failing the run.
    pub smoke: bool,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn fact(&mut self, key: impl Into<String>, value: impl ToString) {
        self.facts.push((key.into(), value.to_string()));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Sets a percentile metric, recording a violation instead when the
    /// tail is too thin.
    pub fn set_percentile(&mut self, name: &'static str, lat: &Latencies, pct: f64) {
        match lat.percentile(pct) {
            Ok(v) => self.set(name, v),
            Err(e) if self.smoke => self.fact(name, e),
            Err(e) => self.violations.push(format!("{name}: {e}")),
        }
    }

    /// The read metrics of a single-caller closed loop: p50, p99 and
    /// reads per second of time spent in reads.
    pub fn set_reads(&mut self, lat: &Latencies) {
        self.set_percentile("read_p50_us", lat, 50.0);
        self.set_percentile("read_p99_us", lat, 99.0);
        self.set("read_ops_per_s", lat.len() as f64 / (lat.total_us() / 1e6));
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, holding every metric of `defs` (0 for a
/// metric the run did not reach).
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> String {
    debug_assert!(defs.iter().all(|m| valid_metric_name(m.name)));
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            let v = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Ok(990.0));
        assert_eq!(percentile(&v, 50.0), Ok(500.0));
        // 999 samples leave only 9 beyond the p99 rank.
        assert!(percentile(&v[..999], 99.0).is_err());
        assert!(percentile(&v[..10], 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&v[..20], 50.0).is_ok());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "metric {} declared twice", m.name);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
        }
        assert!(!valid_metric_name("bad name"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        let line = result_line(&o, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\"", m.name)));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }
}
