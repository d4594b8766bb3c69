//! Standing-query payoff: seal→notification latency of the incremental
//! fold versus rebuilding the same subscription state from scratch at
//! the same seal frontier.
//!
//! The workload is a large [`EventCrowd`] day — 24 sealed hours over a
//! 2×2 overlay grid — with the DESIGN.md §5j subscription mix (global
//! sum, a windowed + thresholded venue count, a regional min). The
//! incremental path pays only for the one newly sealed partition; the
//! from-scratch path replays every sealed segment, so at a 24-hour
//! history the fold must win by **≥5× at p50** (hard-asserted; the
//! acceptance bar in DESIGN.md §5j).
//!
//! Identical answers are asserted first (the bit-identity contract of
//! `tests/tests/sub_equivalence.rs`), then timing. Reports p50/p99 per
//! path and writes `BENCH_sub.json` (override with `BENCH_SUB_OUT`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

use gisolap_bench::percentile;
use gisolap_datagen::EventCrowd;
use gisolap_geom::BBox;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::TimeLevel;
use gisolap_shard::GridSpec;
use gisolap_stream::{Measure, StreamConfig, StreamIngest};
use gisolap_sub::{window_value, StandingEvaluator, SubId, Subscription};
use gisolap_traj::Record;

const QUERY_REPS: usize = 80;

fn area() -> BBox {
    BBox::new(0.0, 0.0, 64.0, 64.0)
}

/// Sits inside the top-right cell of the 2×2 grid.
fn venue() -> BBox {
    BBox::new(36.0, 36.0, 44.0, 44.0)
}

fn grid() -> GridSpec {
    GridSpec::new(area(), 2, 2).unwrap()
}

/// One crowd day: 64 objects sampled every 15 minutes, time-sorted so
/// the zero-lateness pipeline seals all 24 hours eagerly.
fn workload() -> Vec<Record> {
    let crowd = EventCrowd::new(area(), venue(), 64);
    let mut records = crowd.generate(0).records().to_vec();
    records.sort_by_key(|r| (r.t, r.oid));
    records
}

/// The §5j subscription mix: global sum, burst detector over the venue,
/// regional min over the quiet corner.
fn subscriptions() -> Vec<Subscription> {
    vec![
        Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum),
        Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count)
            .in_region(venue())
            .over_hours(2)
            .with_threshold(16.0, 4.0),
        Subscription::new(TimeLevel::Hour, Measure::Y, AggFn::Min)
            .in_region(BBox::new(0.0, 0.0, 8.0, 8.0)),
    ]
}

/// The fully sealed pipeline every measurement reads from.
fn sealed_pipeline() -> StreamIngest {
    let mut pipeline = StreamIngest::new(StreamConfig::new(0, 3600).unwrap())
        .unwrap()
        .with_resolver(grid().resolver());
    pipeline.ingest(&workload());
    pipeline.finish();
    pipeline
}

/// A fresh evaluator with the full mix registered.
fn fresh_evaluator() -> (StandingEvaluator, Vec<SubId>) {
    let mut evaluator = StandingEvaluator::new(Some(grid()));
    let ids = subscriptions()
        .into_iter()
        .map(|sub| evaluator.register(sub).expect("register"))
        .collect();
    (evaluator, ids)
}

/// An evaluator caught up to everything **except** the final seal — the
/// state an attached hook holds the instant before the seal fires.
fn prefix_evaluator(pipeline: &StreamIngest) -> StandingEvaluator {
    let (mut evaluator, _) = fresh_evaluator();
    let segs = pipeline.segments();
    for seg in &segs[..segs.len() - 1] {
        evaluator.fold(seg.meta().partition, seg.partials());
    }
    evaluator
}

fn bench_rebuild(c: &mut Criterion) {
    let pipeline = sealed_pipeline();
    let mut group = c.benchmark_group("sub_latency");
    group.throughput(Throughput::Elements(1));
    group.bench_function("from_scratch_rebuild", |b| {
        b.iter(|| {
            let (mut evaluator, ids) = fresh_evaluator();
            evaluator.sync_pipeline(black_box(&pipeline));
            black_box(evaluator.value(ids[0]))
        })
    });
    group.finish();
}

fn emit_artifact() {
    let pipeline = sealed_pipeline();
    let segs = pipeline.segments();
    let last = segs.last().expect("sealed history");

    // Identical answers first (the §5j bit-identity contract): the
    // incrementally folded state and a from-scratch replay land on the
    // same bits, cell for cell and value for value — and the global
    // subscription's state is exactly the pipeline's own cube.
    let mut incremental = prefix_evaluator(&pipeline);
    let folded_notifications = incremental.fold(last.meta().partition, last.partials());
    assert!(
        folded_notifications > 0,
        "the final seal must notify at least the global subscription"
    );
    let (mut scratch, ids) = fresh_evaluator();
    scratch.sync_pipeline(&pipeline);
    for id in &ids {
        assert_eq!(
            incremental.cells(*id).expect("registered"),
            scratch.cells(*id).expect("registered"),
            "incremental state diverged from the from-scratch rebuild"
        );
        assert_eq!(
            incremental.value(*id).map(f64::to_bits),
            scratch.value(*id).map(f64::to_bits),
            "incremental window value diverged"
        );
    }
    let global = incremental.cells(ids[0]).expect("registered");
    let want: std::collections::BTreeMap<_, _> =
        pipeline.cube().cells().map(|(k, c)| (*k, *c)).collect();
    assert_eq!(global, &want, "global subscription must mirror the cube");
    let (_, cube_value) = window_value(&subscriptions()[0], &want);
    assert_eq!(
        incremental.value(ids[0]).map(f64::to_bits),
        cube_value.map(f64::to_bits)
    );

    // Seal→notification latency: fold the one new partition into a
    // hook-current evaluator (prefix rebuilt outside the timed region).
    let mut lat_fold = Vec::with_capacity(QUERY_REPS);
    for _ in 0..QUERY_REPS {
        let mut evaluator = prefix_evaluator(&pipeline);
        let t0 = Instant::now();
        let emitted = evaluator.fold(last.meta().partition, last.partials());
        lat_fold.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        black_box(emitted);
    }
    lat_fold.sort_unstable();

    // The alternative a subscriber without incremental state pays:
    // rebuild everything at the same frontier.
    let mut lat_scratch = Vec::with_capacity(QUERY_REPS);
    for _ in 0..QUERY_REPS {
        let t0 = Instant::now();
        let (mut evaluator, ids) = fresh_evaluator();
        evaluator.sync_pipeline(&pipeline);
        lat_scratch.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        black_box(evaluator.value(ids[0]));
    }
    lat_scratch.sort_unstable();

    let stats = incremental.stats();
    let p = |v: &[u64], pct| percentile(v, pct);
    let speedup_p50 = p(&lat_scratch, 50) as f64 / p(&lat_fold, 50).max(1) as f64;
    let speedup_p99 = p(&lat_scratch, 99) as f64 / p(&lat_fold, 99).max(1) as f64;
    eprintln!(
        "sub_latency: records={} seals={} subs={} | fold p50={:.1}us p99={:.1}us | \
         scratch p50={:.1}us p99={:.1}us | speedup p50={speedup_p50:.2}x p99={speedup_p99:.2}x | \
         notifications={} threshold_fires={}",
        workload().len(),
        segs.len(),
        ids.len(),
        p(&lat_fold, 50) as f64 / 1e3,
        p(&lat_fold, 99) as f64 / 1e3,
        p(&lat_scratch, 50) as f64 / 1e3,
        p(&lat_scratch, 99) as f64 / 1e3,
        stats.notifications,
        stats.threshold_fires,
    );
    // The acceptance bar: at a day of history the incremental fold must
    // beat rebuilding from scratch by at least 5x at p50.
    assert!(
        speedup_p50 >= 5.0,
        "incremental p50 speedup {speedup_p50:.2}x is under the 5x bar"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sub_latency\",\n",
            "  \"records\": {},\n",
            "  \"seals\": {},\n",
            "  \"subscriptions\": {},\n",
            "  \"query_reps\": {},\n",
            "  \"fold_p50_ns\": {},\n",
            "  \"fold_p99_ns\": {},\n",
            "  \"scratch_p50_ns\": {},\n",
            "  \"scratch_p99_ns\": {},\n",
            "  \"notifications\": {},\n",
            "  \"threshold_fires\": {},\n",
            "  \"speedup_p50\": {:.2},\n",
            "  \"speedup_p99\": {:.2}\n",
            "}}\n"
        ),
        workload().len(),
        segs.len(),
        ids.len(),
        QUERY_REPS,
        p(&lat_fold, 50),
        p(&lat_fold, 99),
        p(&lat_scratch, 50),
        p(&lat_scratch, 99),
        stats.notifications,
        stats.threshold_fires,
        speedup_p50,
        speedup_p99,
    );
    let out = std::env::var("BENCH_SUB_OUT").unwrap_or_else(|_| "BENCH_sub.json".to_string());
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("sub_latency: could not write {out}: {e}");
    } else {
        eprintln!("sub_latency: wrote {out}");
    }
}

fn bench_all(c: &mut Criterion) {
    bench_rebuild(c);
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
