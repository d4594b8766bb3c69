//! Scatter-gather scaling: the same skewed fleet behind 1 shard versus
//! N spatial shards, measuring selective region rollups where pruning
//! pays (the coordinator skips every shard the region misses).
//!
//! The fleet is tail-heavy (lateness far beyond the data's span, so
//! nothing seals): every fetch re-buckets the shard's live records,
//! making fetch cost proportional to the records a shard holds — the
//! regime where pruning translates directly into latency. A selective
//! query over a *cold* region on the 4-shard cluster must beat the
//! 1-shard baseline by >1.5× at p50 (hard-asserted; the acceptance bar).
//!
//! Reports p50/p99 per configuration and writes `BENCH_shard.json`
//! (override with `BENCH_SHARD_OUT`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gisolap_bench::percentile;
use gisolap_datagen::movers::SkewedFleet;
use gisolap_geom::BBox;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::TimeLevel;
use gisolap_shard::{
    ClusterExecutor, Coordinator, GridSpec, PartitionerSpec, ShardQuery, ShardedIngest,
};
use gisolap_store::{RealFs, ScratchDir, StoreConfig, SyncPolicy, Vfs};
use gisolap_stream::{Measure, RollupQuery, StreamConfig};
use gisolap_traj::Record;

const SHARDS: u32 = 4;
const QUERY_REPS: usize = 120;

fn area() -> BBox {
    BBox::new(0.0, 0.0, 64.0, 64.0)
}

/// The hot district sits in the bottom row-block of the grid; the
/// selective query below targets the *top* row-block, so pruning skips
/// the heavy shards.
fn hot() -> BBox {
    BBox::new(4.0, 4.0, 24.0, 12.0)
}

fn cold_region() -> BBox {
    BBox::new(8.0, 49.0, 40.0, 63.0)
}

fn grid() -> GridSpec {
    GridSpec::new(area(), 4, 4).unwrap()
}

fn workload() -> Vec<Record> {
    SkewedFleet {
        seed: 17,
        objects: 150,
        samples_per_object: 96,
        ..SkewedFleet::new(area(), hot(), 0)
    }
    .generate(0)
    .records()
    .to_vec()
}

/// Lateness far beyond the fleet's one-day span: every record stays in
/// the live tail, so fetches re-bucket them (the pruning-sensitive
/// regime this bench isolates).
fn stream_config() -> StreamConfig {
    StreamConfig::new(30 * 86_400, 3600).unwrap()
}

fn cluster_with(root: &ScratchDir, shards: u32, records: &[Record]) -> ShardedIngest {
    let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
    let spec = PartitionerSpec::Spatial {
        shards,
        grid: grid(),
    };
    let mut cluster = ShardedIngest::create(
        vfs,
        root.path(),
        spec,
        stream_config(),
        StoreConfig {
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    cluster.ingest(records).unwrap();
    cluster
}

/// Latency distribution of `reps` evaluations of `q` on `cluster`.
fn measure(cluster: &ShardedIngest, q: &ShardQuery, reps: usize) -> (Vec<u64>, u64, u64) {
    let mut coord = Coordinator::new(ClusterExecutor::new(cluster), cluster.spec()).unwrap();
    // One warm-up evaluation, which also yields the explain counters.
    let explain = coord.eval(q).unwrap().explain;
    let mut lat = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let rows = coord.eval(q).unwrap().rows;
        lat.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        black_box(rows.len());
    }
    lat.sort_unstable();
    (lat, explain.shards_pruned, explain.shards_queried)
}

fn bench_selective_eval(c: &mut Criterion) {
    let root = ScratchDir::new("shard-bench-crit");
    let records = workload();
    let cluster = cluster_with(&root, SHARDS, &records);
    let mut coord = Coordinator::new(ClusterExecutor::new(&cluster), cluster.spec()).unwrap();
    let q = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
        .in_region(cold_region());

    let mut group = c.benchmark_group("shard_scaling");
    group.throughput(Throughput::Elements(1));
    group.bench_function("selective_4_shards", |b| {
        b.iter(|| coord.eval(black_box(&q)).unwrap().rows.len())
    });
    group.finish();
}

fn emit_artifact() {
    let records = workload();
    let selective = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum))
        .in_region(cold_region());
    let whole = ShardQuery::new(RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum));

    let base_root = ScratchDir::new("shard-bench-1");
    let baseline = cluster_with(&base_root, 1, &records);
    let sharded_root = ScratchDir::new("shard-bench-n");
    let sharded = cluster_with(&sharded_root, SHARDS, &records);

    let (base_sel, _, base_q) = measure(&baseline, &selective, QUERY_REPS);
    let (shard_sel, pruned, queried) = measure(&sharded, &selective, QUERY_REPS);
    let (base_whole, _, _) = measure(&baseline, &whole, QUERY_REPS);
    let (shard_whole, _, _) = measure(&sharded, &whole, QUERY_REPS);

    assert_eq!(base_q, 1);
    assert!(
        pruned > 0,
        "the selective region must prune shards (got {queried} queried, {pruned} pruned)"
    );

    let p = |v: &[u64], pct| percentile(v, pct);
    let speedup_p50 = p(&base_sel, 50) as f64 / p(&shard_sel, 50).max(1) as f64;
    let speedup_p99 = p(&base_sel, 99) as f64 / p(&shard_sel, 99).max(1) as f64;
    eprintln!(
        "shard_scaling: records={} selective 1-shard p50={:.1}us p99={:.1}us | \
         {SHARDS}-shard p50={:.1}us p99={:.1}us (pruned {pruned}/{SHARDS}) | speedup p50={speedup_p50:.2}x",
        records.len(),
        p(&base_sel, 50) as f64 / 1e3,
        p(&base_sel, 99) as f64 / 1e3,
        p(&shard_sel, 50) as f64 / 1e3,
        p(&shard_sel, 99) as f64 / 1e3,
    );
    // The acceptance bar: pruning must buy a real speedup on selective
    // queries, not a rounding error.
    assert!(
        speedup_p50 > 1.5,
        "selective {SHARDS}-shard p50 speedup {speedup_p50:.2}x is under the 1.5x bar"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"shard_scaling\",\n",
            "  \"records\": {},\n",
            "  \"shards\": {},\n",
            "  \"query_reps\": {},\n",
            "  \"selective_1shard_p50_ns\": {},\n",
            "  \"selective_1shard_p99_ns\": {},\n",
            "  \"selective_{}shard_p50_ns\": {},\n",
            "  \"selective_{}shard_p99_ns\": {},\n",
            "  \"whole_1shard_p50_ns\": {},\n",
            "  \"whole_{}shard_p50_ns\": {},\n",
            "  \"shards_pruned\": {},\n",
            "  \"shards_queried\": {},\n",
            "  \"selective_speedup_p50\": {:.2},\n",
            "  \"selective_speedup_p99\": {:.2}\n",
            "}}\n"
        ),
        records.len(),
        SHARDS,
        QUERY_REPS,
        p(&base_sel, 50),
        p(&base_sel, 99),
        SHARDS,
        p(&shard_sel, 50),
        SHARDS,
        p(&shard_sel, 99),
        p(&base_whole, 50),
        SHARDS,
        p(&shard_whole, 50),
        pruned,
        queried,
        speedup_p50,
        speedup_p99,
    );
    let out = std::env::var("BENCH_SHARD_OUT").unwrap_or_else(|_| "BENCH_shard.json".to_string());
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("shard_scaling: could not write {out}: {e}");
    } else {
        eprintln!("shard_scaling: wrote {out}");
    }
}

fn bench_all(c: &mut Criterion) {
    bench_selective_eval(c);
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
