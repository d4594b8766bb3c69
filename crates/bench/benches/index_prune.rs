//! Index pruning payoff: selective region × time queries through the
//! [`MoftIndex`] bundle versus the forced scan (`.without_index()`) on
//! the *same* engine class — so R-trees, overlay caches and the rest of
//! the pipeline are held constant and only the MOFT-side index varies.
//!
//! The workload is a large random-waypoint fleet; the query restricts
//! to a tiny absolute time window over an income-filtered district.
//! The interval tree narrows the scan to per-object binary-searched
//! record slices, so indexed evaluation must beat the scan by **≥5× at
//! p50** (hard-asserted; the acceptance bar in `docs/indexing.md`).
//!
//! Reports p50/p99 per path plus the engine's `index_*` counters and
//! writes `BENCH_index.json` (override with `BENCH_INDEX_OUT`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

use gisolap_bench::percentile;
use gisolap_core::engine::{IndexedEngine, QueryEngine};
use gisolap_core::region::{CmpOp, GeoFilter, RegionC, SpatialPredicate, TimePredicate};
use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{CityConfig, CityScenario};
use gisolap_olap::time::TimeId;
use gisolap_olap::value::Value;
use gisolap_traj::Moft;

const QUERY_REPS: usize = 120;

fn scenario() -> (CityScenario, Moft) {
    let city = CityScenario::generate(CityConfig {
        blocks_x: 4,
        blocks_y: 2,
        schools: 6,
        stores: 10,
        gas_stations: 4,
        seed: 23,
        ..CityConfig::default()
    });
    let moft = RandomWaypoint {
        seed: 24,
        ..RandomWaypoint::new(city.bbox, 1200, 320)
    }
    .generate(0);
    (city, moft)
}

/// A ~0.05% absolute window in the middle of the fleet's time extent.
fn selective_window(moft: &Moft) -> (TimeId, TimeId) {
    let records = moft.records();
    let t_min = records.iter().map(|r| r.t.0).min().unwrap();
    let t_max = records.iter().map(|r| r.t.0).max().unwrap();
    let span = t_max - t_min;
    (
        TimeId(t_min + span / 2),
        TimeId(t_min + span / 2 + span / 2000 + 1),
    )
}

/// Selective region × time: a low-income district during the window.
fn selective_region(moft: &Moft) -> RegionC {
    let (lo, hi) = selective_window(moft);
    RegionC::all()
        .with_time(TimePredicate::Between(lo, hi))
        .with_spatial(SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::AttrCompare {
                category: "neighborhood".into(),
                attr: "income".into(),
                op: CmpOp::Lt,
                value: Value::Int(2200),
            },
        ))
}

/// Latency distribution of `reps` evaluations of `region` on `engine`
/// (one warm-up evaluation first).
fn measure(engine: &IndexedEngine, region: &RegionC, reps: usize) -> Vec<u64> {
    let warm = engine.eval(region).unwrap();
    black_box(warm.len());
    let mut lat = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let tuples = engine.eval(region).unwrap();
        lat.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        black_box(tuples.len());
    }
    lat.sort_unstable();
    lat
}

fn bench_indexed_eval(c: &mut Criterion) {
    let (city, moft) = scenario();
    let region = selective_region(&moft);
    let engine = IndexedEngine::new(&city.gis, &moft);

    let mut group = c.benchmark_group("index_prune");
    group.throughput(Throughput::Elements(1));
    group.bench_function("selective_indexed", |b| {
        b.iter(|| engine.eval(black_box(&region)).unwrap().len())
    });
    group.finish();
}

fn emit_artifact() {
    let (city, moft) = scenario();
    let region = selective_region(&moft);
    let (lo, hi) = selective_window(&moft);

    let indexed = IndexedEngine::new(&city.gis, &moft);
    let scan = IndexedEngine::new(&city.gis, &moft).without_index();

    // Identical answers first (the determinism contract), then timing.
    assert_eq!(
        indexed.eval(&region).unwrap(),
        scan.eval(&region).unwrap(),
        "index-assisted evaluation must be bit-identical to the scan"
    );

    let lat_idx = measure(&indexed, &region, QUERY_REPS);
    let lat_scan = measure(&scan, &region, QUERY_REPS);
    let snap = indexed.stats().snapshot();
    assert!(
        snap.index_interval_probes > 0,
        "window must probe the interval tree"
    );
    assert!(
        snap.index_records_pruned > 0,
        "the selective window must prune records ({snap:?})"
    );
    // The scan side must touch no index at all.
    let scan_snap = scan.stats().snapshot();
    assert_eq!(
        scan_snap.index_interval_probes
            + scan_snap.index_bvh_probes
            + scan_snap.index_zones_scanned
            + scan_snap.index_zones_pruned
            + scan_snap.index_records_pruned,
        0,
        "the scan side consulted an index ({scan_snap:?})"
    );

    let p = |v: &[u64], pct| percentile(v, pct);
    let speedup_p50 = p(&lat_scan, 50) as f64 / p(&lat_idx, 50).max(1) as f64;
    let speedup_p99 = p(&lat_scan, 99) as f64 / p(&lat_idx, 99).max(1) as f64;
    eprintln!(
        "index_prune: records={} window=[{},{}] | scan p50={:.1}us p99={:.1}us | \
         indexed p50={:.1}us p99={:.1}us | speedup p50={speedup_p50:.2}x p99={speedup_p99:.2}x | \
         interval_probes={} records_pruned={}",
        moft.records().len(),
        lo.0,
        hi.0,
        p(&lat_scan, 50) as f64 / 1e3,
        p(&lat_scan, 99) as f64 / 1e3,
        p(&lat_idx, 50) as f64 / 1e3,
        p(&lat_idx, 99) as f64 / 1e3,
        snap.index_interval_probes,
        snap.index_records_pruned,
    );
    // The acceptance bar: on selective region × time queries the index
    // must buy at least 5x at p50.
    assert!(
        speedup_p50 >= 5.0,
        "indexed p50 speedup {speedup_p50:.2}x is under the 5x bar"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"index_prune\",\n",
            "  \"records\": {},\n",
            "  \"query_reps\": {},\n",
            "  \"window_lo\": {},\n",
            "  \"window_hi\": {},\n",
            "  \"scan_p50_ns\": {},\n",
            "  \"scan_p99_ns\": {},\n",
            "  \"indexed_p50_ns\": {},\n",
            "  \"indexed_p99_ns\": {},\n",
            "  \"index_interval_probes\": {},\n",
            "  \"index_records_pruned\": {},\n",
            "  \"speedup_p50\": {:.2},\n",
            "  \"speedup_p99\": {:.2}\n",
            "}}\n"
        ),
        moft.records().len(),
        QUERY_REPS,
        lo.0,
        hi.0,
        p(&lat_scan, 50),
        p(&lat_scan, 99),
        p(&lat_idx, 50),
        p(&lat_idx, 99),
        snap.index_interval_probes,
        snap.index_records_pruned,
        speedup_p50,
        speedup_p99,
    );
    let out = std::env::var("BENCH_INDEX_OUT").unwrap_or_else(|_| "BENCH_index.json".to_string());
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("index_prune: could not write {out}: {e}");
    } else {
        eprintln!("index_prune: wrote {out}");
    }
}

fn bench_all(c: &mut Criterion) {
    bench_indexed_eval(c);
    emit_artifact();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_all
}
criterion_main!(benches);
