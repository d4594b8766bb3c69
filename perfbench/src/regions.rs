//! `regions`: in-process analytic queries on an [`OverlayEngine`] (with
//! its `MoftIndex`), closed loop, one caller.
//!
//! The query pool is drawn from the seed; a fixed 100-slot cycle picks
//! the class of each operation, so every run sees the same class mix:
//!
//! | class         | slots | what it is |
//! |---------------|------:|------------|
//! | `selective`   | 83 | Between window, 0.05%–2% of the span, over an income-filtered district |
//! | `index_prune` |  1 | the old `index_prune` bench window: 0.05% mid-span, expected 0 rows |
//! | `wide`        |  5 | 25% window over the district: per-record R-tree stabs dominate |
//! | `lit`         |  4 | interpolated (LIT) window over the district: legs are cut |
//! | `pietql`      |  2 | the §5 Piet-QL query through `gisolap_pietql::exec::run` |
//! | `gamma`       |  5 | `MoQuery` count per hour granule over a 5% window |
//!
//! Every pool entry's answer is checked against [`NaiveEngine`] after
//! the measured phase, and every repeat of an entry must return exactly
//! its first answer.

use std::process::Command;
use std::time::{Duration, Instant};

use gisolap_core::engine::{explain_analyze, NaiveEngine, OverlayEngine, QueryEngine};
use gisolap_core::query::{MoAggSpec, MoQuery, MoQueryResult};
use gisolap_core::region::{CmpOp, GeoFilter, RegionC, SpatialPredicate, TimePredicate};
use gisolap_core::result::CTuple;
use gisolap_core::stats::StatsSnapshot;
use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{CityConfig, CityScenario};
use gisolap_obs::Span;
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_olap::value::Value;
use gisolap_pietql::exec::QueryOutput;
use gisolap_traj::Moft;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{peak_rss_mb, schedule, RunConfig};
use crate::report::{median, ratio, us, Latencies, Outcome};

/// The §5 query of the paper: cars passing through cities crossed by a
/// river and containing at least one store.
pub const PIET_QUERY: &str = "SELECT layer.Ln; FROM City; \
     WHERE intersection(layer.Ln, layer.Lr, subplevel.Linestring) \
     AND (layer.Ln) CONTAINS (layer.Ln, layer.Lstores, subplevel.Point) \
     | COUNT(PASSES)";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Selective,
    IndexPrune,
    Wide,
    Lit,
    Pietql,
    Gamma,
}

/// Classes with their slots in the 100-slot cycle.
const CYCLE: [(Class, usize); 6] = [
    (Class::Selective, 83),
    (Class::IndexPrune, 1),
    (Class::Wide, 5),
    (Class::Lit, 4),
    (Class::Pietql, 2),
    (Class::Gamma, 5),
];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Selective => "selective",
            Class::IndexPrune => "index_prune",
            Class::Wide => "wide",
            Class::Lit => "lit",
            Class::Pietql => "pietql",
            Class::Gamma => "gamma",
        }
    }

    /// Pool entries drawn for the class.
    fn pool_size(self) -> usize {
        match self {
            Class::Selective => 96,
            Class::IndexPrune | Class::Pietql => 1,
            Class::Wide | Class::Lit => 8,
            Class::Gamma => 4,
        }
    }
}

/// Rows each class returns over its whole pool, pinned for the seeds
/// `BENCHMARK.json` names (default, then held-out), in `CYCLE` order.
const PINNED_ROWS: [(u64, [u64; 6]); 2] = [
    (1, [94463, 0, 448696, 31091, 1, 4]),
    (7, [91089, 0, 449597, 31140, 1, 5]),
];

enum Op {
    Region(RegionC),
    Piet,
    Gamma(MoQuery),
}

struct Entry {
    class: Class,
    op: Op,
}

#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Tuples(Vec<CTuple>),
    Piet(QueryOutput),
    Gamma(MoQueryResult),
}

impl Answer {
    fn rows(&self) -> u64 {
        match self {
            Answer::Tuples(t) => t.len() as u64,
            Answer::Piet(QueryOutput::Table(rows)) => rows.len() as u64,
            Answer::Piet(QueryOutput::GeoIds(ids)) => ids.len() as u64,
            Answer::Piet(_) => 1,
            Answer::Gamma(MoQueryResult::PerGranule(rows)) => rows.len() as u64,
            Answer::Gamma(_) => 1,
        }
    }

    /// Engine-independent form: tuple sets compare as sorted
    /// `(oid, t, geo)` keys, the equivalence the engine suites use.
    fn canonical(&self) -> Answer {
        match self {
            Answer::Tuples(t) => {
                let mut t = t.clone();
                t.sort_by_key(|c| (c.oid, c.t, c.geo));
                Answer::Tuples(t)
            }
            other => other.clone(),
        }
    }
}

struct Data {
    city: CityScenario,
    moft: Moft,
}

fn generate(cfg: &RunConfig) -> Data {
    // The city (the GIS) is fixed; the fleet and the query pool follow
    // the seed.
    let city = CityScenario::generate(CityConfig {
        blocks_x: 4,
        blocks_y: 2,
        schools: 6,
        stores: 10,
        gas_stations: 4,
        seed: 23,
        ..CityConfig::default()
    });
    let (objects, samples) = if cfg.smoke { (60, 48) } else { (1200, 320) };
    let moft = RandomWaypoint {
        seed: cfg.sub_seed(1),
        ..RandomWaypoint::new(city.bbox, objects, samples)
    }
    .generate(0);
    Data { city, moft }
}

fn district(income_below: i64) -> SpatialPredicate {
    SpatialPredicate::in_layer(
        "Ln",
        GeoFilter::AttrCompare {
            category: "neighborhood".into(),
            attr: "income".into(),
            op: CmpOp::Lt,
            value: Value::Int(income_below),
        },
    )
}

fn pool(cfg: &RunConfig, moft: &Moft) -> Vec<Entry> {
    let records = moft.records();
    let t_min = records
        .iter()
        .map(|r| r.t.0)
        .min()
        .expect("non-empty fleet");
    let t_max = records
        .iter()
        .map(|r| r.t.0)
        .max()
        .expect("non-empty fleet");
    let span = t_max - t_min;
    let mut rng = SmallRng::seed_from_u64(cfg.sub_seed(2));
    let window = |rng: &mut SmallRng, frac: f64| {
        let width = ((span as f64) * frac).round().max(1.0) as i64;
        let lo = t_min + rng.gen_range(0..=(span - width).max(0));
        TimePredicate::Between(TimeId(lo), TimeId(lo + width))
    };
    let mut entries = Vec::new();
    for (class, _) in CYCLE {
        let n = class.pool_size();
        for k in 0..n {
            let op = match class {
                Class::Selective => {
                    // Widths stratified log-uniformly between 0.05% and 2%
                    // of the span, so only positions (and the fleet)
                    // change with the seed.
                    let (lo, hi) = (0.0005f64.ln(), 0.02f64.ln());
                    let frac = (lo + (hi - lo) * (k as f64 + 0.5) / n as f64).exp();
                    let income = [1800, 2200, 2600, 3000][k % 4];
                    let w = window(&mut rng, frac);
                    Op::Region(RegionC::all().with_time(w).with_spatial(district(income)))
                }
                Class::IndexPrune => {
                    // Exactly the window of the `index_prune` bench.
                    let lo = t_min + span / 2;
                    let hi = lo + span / 2000 + 1;
                    Op::Region(
                        RegionC::all()
                            .with_time(TimePredicate::Between(TimeId(lo), TimeId(hi)))
                            .with_spatial(district(2200)),
                    )
                }
                Class::Wide => {
                    let w = window(&mut rng, 0.25);
                    Op::Region(RegionC::all().with_time(w).with_spatial(district(2600)))
                }
                Class::Lit => {
                    let frac = 0.005 + 0.015 * (k as f64 + 0.5) / n as f64;
                    let w = window(&mut rng, frac);
                    Op::Region(
                        RegionC::all()
                            .with_time(w)
                            .with_spatial(district(2200))
                            .interpolated(),
                    )
                }
                Class::Pietql => Op::Piet,
                Class::Gamma => {
                    let w = window(&mut rng, 0.05);
                    let region = RegionC::all().with_time(w).with_spatial(district(2600));
                    Op::Gamma(MoQuery::new(
                        region,
                        MoAggSpec::CountPerGranule(TimeLevel::Hour),
                    ))
                }
            };
            entries.push(Entry { class, op });
        }
    }
    entries
}

/// One cycle of the mix, as pool indices.
fn order(entries: &[Entry]) -> Vec<usize> {
    let classes: Vec<Class> = entries.iter().map(|e| e.class).collect();
    schedule(&CYCLE, &classes, 1)
}

fn execute<E: QueryEngine + ?Sized>(engine: &E, op: &Op) -> Result<Answer, String> {
    match op {
        Op::Region(region) => engine
            .eval(region)
            .map(Answer::Tuples)
            .map_err(|e| e.to_string()),
        Op::Piet => gisolap_pietql::exec::run(engine, PIET_QUERY)
            .map(Answer::Piet)
            .map_err(|e| e.to_string()),
        Op::Gamma(q) => q.run(engine).map(Answer::Gamma).map_err(|e| e.to_string()),
    }
}

/// Per-layer tallies of the traced passes.
#[derive(Default)]
struct Traced {
    region_ops: u64,
    phase_ns: [u64; 5],
    rows: u64,
    /// Counter deltas of the region queries (the per-row ratios).
    region_delta: StatsSnapshot,
    /// Counter deltas of every traced query (the overlay hit ratio).
    all_delta: StatsSnapshot,
    piet_ops: u64,
    parse_ns: u64,
    execute_ns: u64,
    traced_time: f64,
    untraced_time: f64,
}

const PHASES: [&str; 5] = [
    "time-filter",
    "index-prune",
    "filter-resolve",
    "spatial-match",
    "aggregate",
];

fn add_spans(span: &Span, phase_ns: &mut [u64; 5]) {
    if let Some(i) = PHASES.iter().position(|p| *p == span.name) {
        phase_ns[i] += span.duration_ns;
    }
    for child in &span.children {
        add_spans(child, phase_ns);
    }
}

fn add_delta(acc: &mut StatsSnapshot, d: &StatsSnapshot) {
    acc.records_scanned += d.records_scanned;
    acc.rtree_probes += d.rtree_probes;
    acc.overlay_hits += d.overlay_hits;
    acc.overlay_misses += d.overlay_misses;
    acc.legs_cut += d.legs_cut;
    acc.index_records_pruned += d.index_records_pruned;
    acc.index_zones_pruned += d.index_zones_pruned;
    acc.index_zones_scanned += d.index_zones_scanned;
}

/// Runs `op` traced: region ops through `explain_analyze`, the Piet-QL
/// query as separately timed parse and execute, γ queries with the
/// engine counters read around them. Returns the op's wall time.
fn execute_traced(
    engine: &OverlayEngine<'_>,
    entry: &Entry,
    t: &mut Traced,
) -> Result<Duration, String> {
    let before = engine.stats().snapshot();
    let t0 = Instant::now();
    match &entry.op {
        Op::Region(region) => {
            let analyzed = explain_analyze(engine, region).map_err(|e| e.to_string())?;
            let took = t0.elapsed();
            t.region_ops += 1;
            t.rows += analyzed.rows as u64;
            add_spans(&analyzed.root, &mut t.phase_ns);
            add_delta(&mut t.region_delta, &analyzed.delta);
            add_delta(&mut t.all_delta, &analyzed.delta);
            Ok(took)
        }
        Op::Piet => {
            let parsed = gisolap_pietql::parse(PIET_QUERY).map_err(|e| e.to_string())?;
            let parse_ns = t0.elapsed().as_nanos() as u64;
            let e0 = Instant::now();
            std::hint::black_box(
                gisolap_pietql::execute(engine, &parsed).map_err(|e| e.to_string())?,
            );
            t.piet_ops += 1;
            t.parse_ns += parse_ns;
            t.execute_ns += e0.elapsed().as_nanos() as u64;
            add_delta(&mut t.all_delta, &engine.stats().snapshot().delta(&before));
            Ok(t0.elapsed())
        }
        Op::Gamma(q) => {
            std::hint::black_box(q.run(engine).map_err(|e| e.to_string())?);
            let took = t0.elapsed();
            add_delta(&mut t.all_delta, &engine.stats().snapshot().delta(&before));
            Ok(took)
        }
    }
}

/// Wall time of `passes` untraced passes over one cycle; the median.
fn mix_seconds(engine: &OverlayEngine<'_>, entries: &[Entry], passes: usize) -> f64 {
    let order = order(entries);
    let times: Vec<f64> = (0..passes)
        .map(|_| {
            let t0 = Instant::now();
            for &i in &order {
                let _ = std::hint::black_box(execute(engine, &entries[i].op));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

const MIX_PASSES: usize = 3;

/// The child side of `rayon.par_over_seq`: spawned with
/// `GISOLAP_THREADS=1`, it times the same mix on the same inputs.
pub fn child_seq_mix(cfg: &RunConfig) -> f64 {
    let data = generate(cfg);
    let entries = pool(cfg, &data.moft);
    let engine = OverlayEngine::new(&data.city.gis, &data.moft);
    mix_seconds(&engine, &entries, 1); // warm-up
    mix_seconds(&engine, &entries, MIX_PASSES)
}

fn spawn_seq_mix(cfg: &RunConfig) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", "regions", "--seed", &cfg.seed.to_string()])
        .arg("--child-seq-mix")
        .env("GISOLAP_THREADS", "1")
        .output()
        .map_err(|e| format!("spawn sequential child: {e}"))?;
    if !out.status.success() {
        return Err(format!("sequential child failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("seq_mix_s="))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "sequential child printed no seq_mix_s".to_string())
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome {
        smoke: cfg.smoke,
        ..Outcome::default()
    };
    let data = generate(cfg);
    let entries = pool(cfg, &data.moft);
    let (gis, moft) = (&data.city.gis, &data.moft);
    out.fact("records", moft.records().len());
    out.fact("record_bytes", std::mem::size_of_val(moft.records()));
    out.fact("pool_entries", entries.len());

    // Set-up: R-trees, overlay and MOFT index, built several times.
    let mut setups = Vec::new();
    let mut engine = None;
    // The build takes milliseconds: more repeats keep the median steady.
    for _ in 0..cfg.setup_repeats() * 3 {
        drop(engine.take());
        let t0 = Instant::now();
        let e = OverlayEngine::new(gis, moft);
        setups.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    out.set("setup_s", median(&setups));

    // Warm-up: every pool entry once; its answer is the reference its
    // repeats must match.
    let mut first: Vec<Answer> = Vec::with_capacity(entries.len());
    for e in &entries {
        first.push(execute(&engine, &e.op).map_err(|err| format!("warm-up query: {err}"))?);
    }

    let order = order(&entries);
    let mut lat = Latencies::default();
    let mut per_class: Vec<Latencies> = vec![Latencies::default(); CYCLE.len()];
    let mut traced = Traced::default();
    let deadline = cfg.measure();
    let started = Instant::now();
    let mut slot = 0usize;
    while started.elapsed() < deadline || lat.len() < 64 {
        let i = order[slot % order.len()];
        slot += 1;
        let entry = &entries[i];
        out.attempted += 1;
        let t0 = Instant::now();
        let answer = execute(&engine, &entry.op);
        let took = t0.elapsed();
        match answer {
            Ok(a) => {
                if a != first[i] {
                    out.check(false, || {
                        format!(
                            "{} entry {i}: a repeat returned a different answer",
                            entry.class.name()
                        )
                    });
                }
            }
            Err(_) => {
                out.failed += 1;
                continue;
            }
        }
        lat.push(took);
        let c = CYCLE
            .iter()
            .position(|&(k, _)| k == entry.class)
            .expect("class");
        per_class[c].push(took);
        if cfg.trace {
            match execute_traced(&engine, entry, &mut traced) {
                Ok(d) => {
                    traced.traced_time += us(d);
                    traced.untraced_time += us(took);
                }
                Err(e) => out.check(false, || format!("traced query failed: {e}")),
            }
        }
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out.fact("read_samples", lat.len());
    if cfg.trace {
        report_traced(cfg, &mut out, &engine, &entries, &traced)?;
    } else {
        out.set_reads(&lat);
    }
    for (c, (class, _)) in CYCLE.iter().enumerate() {
        if per_class[c].len() > 0 {
            out.fact(format!("p50_us.{}", class.name()), per_class[c].median());
        }
    }

    // Oracle: every pool entry against the naive engine.
    let naive = NaiveEngine::new(gis, moft);
    let mut rows = [0u64; 6];
    for (i, e) in entries.iter().enumerate() {
        let want = execute(&naive, &e.op).map_err(|err| format!("naive query: {err}"))?;
        out.check(first[i].canonical() == want.canonical(), || {
            format!(
                "{} entry {i}: overlay answer differs from the naive engine",
                e.class.name()
            )
        });
        let c = CYCLE
            .iter()
            .position(|&(k, _)| k == e.class)
            .expect("class");
        rows[c] += first[i].rows();
    }
    for (c, (class, _)) in CYCLE.iter().enumerate() {
        out.fact(format!("rows.{}", class.name()), rows[c]);
        if *class == Class::IndexPrune {
            out.check(rows[c] == 0, || {
                format!("index_prune returned {} rows; 0 expected", rows[c])
            });
        } else {
            out.check(rows[c] > 0, || {
                format!("class {} returned no rows", class.name())
            });
        }
    }
    if !cfg.smoke {
        if let Some((_, pinned)) = PINNED_ROWS.iter().find(|(s, _)| *s == cfg.seed) {
            out.check(rows == *pinned, || {
                format!("rows per class {rows:?} differ from the pinned {pinned:?}")
            });
        }
    }
    Ok(out)
}

fn report_traced(
    cfg: &RunConfig,
    out: &mut Outcome,
    engine: &OverlayEngine<'_>,
    entries: &[Entry],
    t: &Traced,
) -> Result<(), String> {
    let q = t.region_ops.max(1) as f64;
    let per_query_us = |i: usize| t.phase_ns[i] as f64 / 1e3 / q;
    out.set("core.time_filter_us", per_query_us(0));
    out.set("core.index_prune_us", per_query_us(1));
    out.set("core.filter_resolve_us", per_query_us(2));
    out.set("core.spatial_match_us", per_query_us(3));
    out.set("core.aggregate_us", per_query_us(4));
    let d = &t.region_delta;
    let rows = t.rows as f64;
    out.set(
        "core.records_examined_per_row",
        ratio(d.records_scanned as f64, rows),
    );
    out.set(
        "core.rtree_probes_per_row",
        ratio(d.rtree_probes as f64, rows),
    );
    out.set("core.legs_cut_per_query", d.legs_cut as f64 / q);
    out.set(
        "core.overlay_hit_ratio",
        ratio(
            t.all_delta.overlay_hits as f64,
            (t.all_delta.overlay_hits + t.all_delta.overlay_misses) as f64,
        ),
    );
    out.set(
        "index.records_pruned_ratio",
        ratio(
            d.index_records_pruned as f64,
            (d.index_records_pruned + d.records_scanned) as f64,
        ),
    );
    out.set(
        "index.zones_pruned_ratio",
        ratio(
            d.index_zones_pruned as f64,
            (d.index_zones_pruned + d.index_zones_scanned) as f64,
        ),
    );
    let p = t.piet_ops.max(1) as f64;
    out.set("pietql.parse_us", t.parse_ns as f64 / 1e3 / p);
    out.set("pietql.execute_us", t.execute_ns as f64 / 1e3 / p);
    out.set(
        "bench.trace_overhead_pct",
        ratio(t.traced_time - t.untraced_time, t.untraced_time) * 100.0,
    );
    out.fact("traced_region_ops", t.region_ops);
    if !cfg.smoke {
        mix_seconds(engine, entries, 1); // warm-up, as in the child
        let par = mix_seconds(engine, entries, MIX_PASSES);
        let seq = spawn_seq_mix(cfg)?;
        out.fact("mix_s.default_threads", par);
        out.fact("mix_s.one_thread", seq);
        out.set("rayon.par_over_seq", par / seq);
    }
    Ok(())
}
