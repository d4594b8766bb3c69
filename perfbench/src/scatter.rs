//! `scatter`: sharded rollups, closed loop, one `Client` calling
//! `sharded_rollup` against a server-hosted 4-shard spatial
//! `ShardedIngest` tenant (a `SkewedFleet`, mostly sealed, with a live
//! tail).
//!
//! Of every hundred operations 96 are `cold`, 2 `windowed`, 2 `full`:
//! * `cold` — a region inside the top row-block, away from the hot
//!   district: pruning skips three of the four shards;
//! * `windowed` — a cold region restricted to a few hours: the window
//!   prunes cells before the gather;
//! * `full` — whole-area rollups at Hour and Day, over every shard.
//!
//! Every answer must be bit-identical to `eval_single` over one
//! unsharded pipeline holding the same records.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use gisolap_datagen::movers::SkewedFleet;
use gisolap_geom::BBox;
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_serve::{Client, ServeConfig, Server};
use gisolap_shard::{
    eval_single, ClusterExecutor, Coordinator, GridSpec, PartitionerSpec, ShardExecutor,
    ShardQuery, ShardedIngest,
};
use gisolap_store::{RealFs, StoreConfig, SyncPolicy};
use gisolap_stream::{
    CellPartial, GroupKey, Measure, RollupQuery, RollupRow, StreamConfig, StreamIngest,
};
use gisolap_traj::Record;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    fleet_area, hot_district, peak_rss_mb, refused, same_bits, schedule, RunConfig, WorkDir,
};
use crate::report::{median, ratio, us, Latencies, Outcome};

const TENANT: &str = "fleet";
const SHARDS: u32 = 4;
const CHUNK: usize = 8192;

/// 16 × 16 cells, four rows per shard: a shard holds 64 cells per hour,
/// so even a one-shard query gathers thousands of cells.
fn grid() -> GridSpec {
    GridSpec::new(fleet_area(), 16, 16).expect("valid grid")
}

fn spec() -> PartitionerSpec {
    PartitionerSpec::Spatial {
        shards: SHARDS,
        grid: grid(),
    }
}

/// One hour of lateness: all but the last hour or two seal.
fn stream_config() -> StreamConfig {
    StreamConfig::new(3600, 3600).expect("valid stream config")
}

/// No WAL fsync: the read phase writes nothing, and per-append fsyncs
/// in set-up only added disk jitter to `setup_s` (flushes still sync).
fn store_config() -> StoreConfig {
    StoreConfig {
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Full,
    Windowed,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Full => "full",
            Class::Windowed => "windowed",
        }
    }
}

/// Slots per 100-operation cycle. The median falls inside the cold
/// class and p99 inside `full`, the only class that fetches from every
/// shard, so neither sits on a class boundary.
const CYCLE: [(Class, usize); 3] = [(Class::Cold, 96), (Class::Windowed, 2), (Class::Full, 2)];
/// Cycles per period: a whole number of passes over every class's pool
/// entries (cold 24 entries, windowed 6, full 6).
const PERIOD_CYCLES: usize = 3;

struct Entry {
    class: Class,
    rollup: RollupQuery,
    region: Option<BBox>,
    window: Option<(TimeId, TimeId)>,
}

impl Entry {
    /// The query the server evaluates: the client ships the rollup (with
    /// its `between`) and the region.
    fn served(&self) -> ShardQuery {
        ShardQuery {
            rollup: self.rollup,
            region: self.region,
            window: None,
        }
    }

    /// The same query with the coordinator's cell-level window prune.
    fn pruned(&self) -> ShardQuery {
        let q = self.served();
        match self.window {
            Some((lo, hi)) => q.in_window(lo, hi),
            None => q,
        }
    }
}

/// Days of history: a week, so each shard's sealed cube holds 168 hours.
fn days(cfg: &RunConfig) -> i64 {
    if cfg.smoke {
        1
    } else {
        7
    }
}

/// A fleet dense enough that almost every (hour, cell) of the cold rows
/// holds records: half the homes in the hot district instead of the
/// default 70%, so cube sizes, and with them query costs, do not change
/// with the seed.
fn records(cfg: &RunConfig) -> Vec<Record> {
    let objects = if cfg.smoke { 40 } else { 600 };
    let mut records = SkewedFleet {
        seed: cfg.sub_seed(1),
        objects,
        hot_share: 0.5,
        samples_per_object: 96 * days(cfg) as usize,
        ..SkewedFleet::new(fleet_area(), hot_district(), 0)
    }
    .generate(0)
    .records()
    .to_vec();
    records.sort_by_key(|r| (r.t, r.oid));
    records
}

fn pool(cfg: &RunConfig, start: i64) -> Vec<Entry> {
    let mut rng = SmallRng::seed_from_u64(cfg.sub_seed(2));
    let fs = [
        (AggFn::Count, Measure::X),
        (AggFn::Sum, Measure::X),
        (AggFn::Avg, Measure::Y),
    ];
    // Sizes and window lengths are stratified over each class; only
    // positions (and the fleet) follow the seed.
    let mut entries = Vec::new();
    for k in 0..24 {
        // Cold: inside the top row-block (y >= 48), one shard's cells.
        let width = 6.0 + 14.0 * (k as f64 + 0.5) / 24.0;
        let height = 4.0 + 4.0 * ((k * 7 % 24) as f64 + 0.5) / 24.0;
        let x0 = rng.gen_range(0.0..64.0 - width);
        let y0 = rng.gen_range(48.0..64.0 - height);
        let (f, m) = fs[k % 3];
        entries.push(Entry {
            class: Class::Cold,
            rollup: RollupQuery::new(TimeLevel::Hour, m, f),
            region: Some(BBox::new(x0, y0, x0 + width, y0 + height)),
            window: None,
        });
    }
    for k in 0..6 {
        let (f, m) = fs[k % 3];
        let level = if k < 3 {
            TimeLevel::Hour
        } else {
            TimeLevel::Day
        };
        entries.push(Entry {
            class: Class::Full,
            rollup: RollupQuery::new(level, m, f),
            region: None,
            window: None,
        });
    }
    for k in 0..6 {
        let (f, m) = fs[k % 3];
        let hours = 2 + (k as i64 % 6);
        let day = rng.gen_range(0..days(cfg));
        let lo = start + day * 86_400 + rng.gen_range(0..=24 - hours) * 3600;
        let hi = lo + hours * 3600 - 1;
        let x0 = rng.gen_range(0.0..40.0);
        let region = Some(BBox::new(x0, 48.0, x0 + 24.0, 60.0));
        entries.push(Entry {
            class: Class::Windowed,
            rollup: RollupQuery::new(TimeLevel::Hour, m, f).between(TimeId(lo), TimeId(hi)),
            region,
            window: Some((TimeId(lo), TimeId(hi))),
        });
    }
    entries
}

/// Set-up: lay the cluster out, bind the server, ingest and flush
/// through the served cluster handle.
fn setup(
    root: &std::path::Path,
    records: &[Record],
) -> Result<(Server, Arc<Mutex<ShardedIngest>>, Client), String> {
    ShardedIngest::create(
        Arc::new(RealFs),
        &root.join(TENANT),
        spec(),
        stream_config(),
        store_config(),
    )
    .map_err(|e| format!("create cluster: {e}"))?;
    let server = Server::bind(
        "127.0.0.1:0",
        root,
        ServeConfig::with_caps(stream_config(), store_config(), 4, 8, 0),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let cluster = server.cluster(TENANT)?;
    {
        let mut c = cluster.lock().expect("cluster lock");
        for chunk in records.chunks(CHUNK) {
            c.ingest(chunk).map_err(|e| format!("ingest: {e}"))?;
        }
        c.flush().map_err(|e| format!("flush: {e}"))?;
    }
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    client.ping(TENANT).map_err(|e| format!("ping: {e}"))?;
    Ok((server, cluster, client))
}

/// A timing [`ShardExecutor`] around [`ClusterExecutor`]: records each
/// fetch's shard and wall time.
struct TimedExecutor<'a> {
    inner: ClusterExecutor<'a>,
    fetches: Mutex<Vec<(usize, f64)>>,
}

impl ShardExecutor for TimedExecutor<'_> {
    fn shards(&self) -> usize {
        self.inner.shards()
    }

    fn fetch(
        &self,
        shard: usize,
        region: Option<&BBox>,
    ) -> gisolap_store::Result<Vec<(GroupKey, CellPartial)>> {
        let t0 = Instant::now();
        let cells = self.inner.fetch(shard, region);
        let took = us(t0.elapsed());
        self.fetches.lock().expect("fetch log").push((shard, took));
        cells
    }
}

/// Per-layer tallies of the traced operations.
#[derive(Default)]
struct Traced {
    reads: u64,
    fetch: Latencies,
    slowest_share: Vec<f64>,
    gather_ns: u64,
    cells_gathered: u64,
    window_pruned: u64,
    window_seen: u64,
    extract: Latencies,
    overhead: Latencies,
    traced_lat: Latencies,
    untraced_lat: Latencies,
    violations: Vec<String>,
}

fn trace_one(
    cluster: &ShardedIngest,
    entry: &Entry,
    served: &[RollupRow],
    took: f64,
    t: &mut Traced,
) {
    let exec = TimedExecutor {
        inner: ClusterExecutor::new(cluster),
        fetches: Mutex::new(Vec::new()),
    };
    let mut coord = match Coordinator::new(exec, cluster.spec()) {
        Ok(c) => c,
        Err(e) => {
            t.violations.push(format!("coordinator: {e}"));
            return;
        }
    };
    coord.set_traced(true);
    let q = entry.pruned();
    let t0 = Instant::now();
    let result = coord.eval(&q);
    let local = us(t0.elapsed());
    let res = match result {
        Ok(r) => r,
        Err(e) => {
            t.violations.push(format!("in-process scatter: {e}"));
            return;
        }
    };
    if !same_bits(&res.rows, served) {
        t.violations.push(format!(
            "in-process scatter of a {} query differs from the served one",
            entry.class.name()
        ));
    }
    t.reads += 1;
    t.overhead.push_us(took - local);
    let fetches = coord.executor().fetches.lock().expect("fetch log").clone();
    let sum: f64 = fetches.iter().map(|f| f.1).sum();
    for &(_, f) in &fetches {
        t.fetch.push_us(f);
    }
    if fetches.len() > 1 && sum > 0.0 {
        let slowest = fetches.iter().map(|f| f.1).fold(0.0, f64::max);
        t.slowest_share.push(slowest / sum);
    }
    t.gather_ns += coord
        .spans()
        .iter()
        .flat_map(|s| &s.children)
        .filter(|c| c.name == "shard-gather")
        .map(|c| c.duration_ns)
        .sum::<u64>();
    t.cells_gathered += res.explain.cells_gathered;
    if entry.window.is_some() {
        t.window_pruned += res.explain.cells_window_pruned;
        t.window_seen += res.explain.cells_gathered + res.explain.cells_window_pruned;
    }
    for &(shard, _) in &fetches {
        let e0 = Instant::now();
        std::hint::black_box(cluster.shards()[shard].extract_partials());
        t.extract.push(e0.elapsed());
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome {
        smoke: cfg.smoke,
        ..Outcome::default()
    };
    let records = records(cfg);
    let start = records.first().map_or(0, |r| r.t.0);
    let entries = pool(cfg, start);
    out.fact("records", records.len());
    out.fact("shards", SHARDS);
    out.fact("pool_entries", entries.len());
    let work = WorkDir::create(cfg.work.clone()).map_err(|e| format!("work dir: {e}"))?;

    let mut setups = Vec::new();
    let mut served = None;
    for attempt in 0..cfg.setup_repeats() {
        drop(served.take());
        let root = work.path().join(format!("setup-{attempt}"));
        let t0 = Instant::now();
        let s = setup(&root, &records)?;
        setups.push(t0.elapsed().as_secs_f64());
        served = Some(s);
    }
    let (mut server, cluster, mut client) = served.expect("at least one set-up");
    out.set("setup_s", median(&setups));
    {
        let c = cluster.lock().expect("cluster lock");
        let tail: usize = c.shards().iter().map(|s| s.pipeline().tail_len()).sum();
        out.fact("tail_records", tail);
    }

    // Warm-up: each entry once; the answer its repeats must match.
    let mut first = Vec::with_capacity(entries.len());
    for e in &entries {
        let r = client
            .sharded_rollup(TENANT, &e.rollup, e.region.as_ref())
            .map_err(|err| format!("warm-up: {err}"))?;
        first.push(r.rows);
    }

    let classes: Vec<Class> = entries.iter().map(|e| e.class).collect();
    let order = schedule(&CYCLE, &classes, PERIOD_CYCLES);
    let stats_before = server.stats();
    let mut lat = Latencies::default();
    let mut per_class = vec![Latencies::default(); CYCLE.len()];
    let mut pruned = 0u64;
    let mut scattered = 0u64;
    let mut traced = Traced::default();
    let started = Instant::now();
    let mut k = 0usize;
    while started.elapsed() < cfg.measure() || lat.len() < 64 {
        let i = order[k % order.len()];
        let entry = &entries[i];
        let class = entry.class;
        let c = CYCLE.iter().position(|&(x, _)| x == class).expect("class");
        // Traced and untraced periods alternate; both hold the same
        // queries.
        let is_traced = cfg.trace && (k / order.len()) % 2 == 1;
        k += 1;
        out.attempted += 1;
        let t0 = Instant::now();
        let reply = client.sharded_rollup(TENANT, &entry.rollup, entry.region.as_ref());
        let took = t0.elapsed();
        let Ok(reply) = reply else {
            out.failed += 1;
            continue;
        };
        lat.push(took);
        per_class[c].push(took);
        pruned += u64::from(reply.shards_pruned);
        scattered += u64::from(reply.shards_pruned + reply.shards_queried);
        if class == Class::Cold && reply.shards_pruned == 0 {
            out.check(false, || format!("cold entry {i} pruned no shard"));
        }
        if !same_bits(&reply.rows, &first[i]) {
            out.check(false, || {
                format!(
                    "{} entry {i}: a repeat returned a different answer",
                    class.name()
                )
            });
        }
        if cfg.trace {
            if is_traced {
                traced.traced_lat.push(took);
                let c = cluster.lock().expect("cluster lock");
                trace_one(&c, entry, &reply.rows, us(took), &mut traced);
            } else {
                traced.untraced_lat.push(took);
            }
        }
    }
    out.set("peak_rss_mb", peak_rss_mb());
    let stats_after = server.stats();
    out.fact("read_samples", lat.len());
    for (c, (class, _)) in CYCLE.iter().enumerate() {
        if per_class[c].len() > 0 {
            out.fact(format!("p50_us.{}", class.name()), per_class[c].median());
        }
    }

    // Oracle: every pool entry against one unsharded pipeline.
    let mut single = StreamIngest::new(stream_config())
        .map_err(|e| e.to_string())?
        .with_resolver(grid().resolver());
    for chunk in records.chunks(CHUNK) {
        single.ingest(chunk);
    }
    for (i, e) in entries.iter().enumerate() {
        let want =
            eval_single(&single, Some(grid()), &e.served()).map_err(|err| err.to_string())?;
        out.check(same_bits(&first[i], &want), || {
            format!(
                "{} entry {i}: served answer differs from eval_single",
                e.class.name()
            )
        });
    }
    let busy = refused(&stats_after) - refused(&stats_before);
    out.check(busy == 0, || {
        format!("{busy} requests were refused as Busy")
    });
    drop(client);
    server.stop();

    if !cfg.trace {
        out.set_reads(&lat);
        return Ok(out);
    }
    out.violations.extend(traced.violations.iter().cloned());
    let reads = traced.reads.max(1) as f64;
    out.set("shard.prune_ratio", ratio(pruned as f64, scattered as f64));
    out.set("shard.fetch_us", traced.fetch.mean());
    out.set("shard.gather_us", traced.gather_ns as f64 / 1e3 / reads);
    out.set(
        "shard.cells_gathered_per_read",
        traced.cells_gathered as f64 / reads,
    );
    out.set(
        "shard.cells_window_pruned_ratio",
        ratio(traced.window_pruned as f64, traced.window_seen as f64),
    );
    out.set(
        "shard.slowest_fetch_share",
        if traced.slowest_share.is_empty() {
            0.0
        } else {
            median(&traced.slowest_share)
        },
    );
    out.set("stream.extract_partials_us", traced.extract.mean());
    out.set("serve.overhead_us", traced.overhead.mean());
    out.set(
        "serve.bytes_out_per_read",
        ratio(
            (stats_after.bytes_out - stats_before.bytes_out) as f64,
            lat.len() as f64,
        ),
    );
    out.set("serve.busy_rejections", busy as f64);
    out.set(
        "bench.trace_overhead_pct",
        ratio(
            traced.traced_lat.mean() - traced.untraced_lat.mean(),
            traced.untraced_lat.mean(),
        ) * 100.0,
    );
    Ok(out)
}
