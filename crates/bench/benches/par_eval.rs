//! Parallel vs sequential evaluation (tentpole of the parallelism PR).
//!
//! Compares `eval` / `eval_many` with `GISOLAP_THREADS=1` (sequential)
//! against the machine's full parallelism on the E7-scaling workload.
//! Results are bit-identical by construction (see the engine module
//! docs); this bench measures the wall-clock side of that bargain. The
//! ≥2× speedup expectation only applies on ≥4 physical cores — on
//! smaller machines the parallel groups are skipped so the numbers
//! never report thread overhead as a regression.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use gisolap_bench::scenario;
use gisolap_core::engine::{IndexedEngine, NaiveEngine, OverlayEngine, QueryEngine};
use gisolap_core::region::{CmpOp, GeoFilter, RegionC, SpatialPredicate};
use gisolap_olap::value::Value;

fn regions() -> Vec<RegionC> {
    let intersects = GeoFilter::IntersectsLayer { layer: "Lr".into() };
    let wealthy = GeoFilter::AttrCompare {
        category: "neighborhood".into(),
        attr: "income".into(),
        op: CmpOp::Ge,
        value: Value::Int(2000),
    };
    vec![
        RegionC::all().with_spatial(SpatialPredicate::in_layer("Ln", intersects.clone())),
        RegionC::all()
            .with_spatial(SpatialPredicate::in_layer("Ln", intersects.clone()))
            .interpolated(),
        RegionC::all().with_spatial(SpatialPredicate::in_layer("Ln", wealthy)),
        RegionC::all().with_spatial(SpatialPredicate::in_layer(
            "Ln",
            GeoFilter::ContainsNodeOf {
                layer: "Lstores".into(),
            },
        )),
        // Duplicate filter: exercises eval_many's shared resolution.
        RegionC::all().with_spatial(SpatialPredicate::in_layer("Ln", intersects)),
    ]
}

fn physical_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

// Flips GISOLAP_THREADS: the rayon shim has no in-process override.
#[allow(clippy::disallowed_methods)]
fn bench_eval_many(c: &mut Criterion) {
    let cores = physical_parallelism();
    let mut group = c.benchmark_group("par_eval_many");
    for objects in [400usize, 1600] {
        let s = scenario(8, 4, objects, 20);
        let naive = NaiveEngine::new(&s.gis, &s.moft);
        let indexed = IndexedEngine::new(&s.gis, &s.moft);
        let overlay = OverlayEngine::new(&s.gis, &s.moft);
        let rs = regions();
        group.throughput(Throughput::Elements((s.moft.len() * rs.len()) as u64));
        for engine in [&naive as &dyn QueryEngine, &indexed, &overlay] {
            std::env::set_var("GISOLAP_THREADS", "1");
            group.bench_with_input(
                BenchmarkId::new(format!("{}/seq", engine.name()), objects),
                &engine,
                |b, engine| b.iter(|| engine.eval_many(black_box(&rs)).expect("evaluates")),
            );
            std::env::remove_var("GISOLAP_THREADS");
            if cores >= 2 {
                group.bench_with_input(
                    BenchmarkId::new(format!("{}/par{cores}", engine.name()), objects),
                    &engine,
                    |b, engine| b.iter(|| engine.eval_many(black_box(&rs)).expect("evaluates")),
                );
            }
        }
    }
    group.finish();
    if cores < 2 {
        eprintln!("par_eval: single core detected, parallel groups skipped");
    }
}

// Flips GISOLAP_THREADS: the rayon shim has no in-process override.
#[allow(clippy::disallowed_methods)]
fn bench_engine_build(c: &mut Criterion) {
    // OverlayEngine construction runs R-tree builds and the overlay
    // precompute concurrently; measure both thread settings.
    let cores = physical_parallelism();
    let mut group = c.benchmark_group("par_engine_build");
    let s = scenario(16, 8, 100, 10);
    std::env::set_var("GISOLAP_THREADS", "1");
    group.bench_function(BenchmarkId::new("overlay_new", "seq"), |b| {
        b.iter(|| OverlayEngine::new(black_box(&s.gis), black_box(&s.moft)))
    });
    std::env::remove_var("GISOLAP_THREADS");
    if cores >= 2 {
        group.bench_function(
            BenchmarkId::new("overlay_new", format!("par{cores}")),
            |b| b.iter(|| OverlayEngine::new(black_box(&s.gis), black_box(&s.moft))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_eval_many, bench_engine_build
}
criterion_main!(benches);
