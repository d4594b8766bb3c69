//! `live`: writes beside reads through a real [`Server`] over loopback.
//!
//! * The writer (the main thread) replays an out-of-order fleet
//!   (`stream_batches`) through the tenant's `Leader` handle, open loop
//!   at [`RATE`] batches per second; each batch is timed from its due
//!   time to its acknowledgement, lock wait included. Every
//!   [`SYNC_EVERY`] batches it flushes the store and syncs a follower
//!   over `TcpTransport`.
//! * The reader (a second thread) is one closed-loop `Client`: a rollup
//!   mix (Hour/Day × Count/Sum/Avg, windowed and unwindowed), with every
//!   fourth operation a poll of the subscriptions' notifications. Every
//!   [`ARCHIVE_EVERY`]th operation (2%) is the same rollup mix on a
//!   second tenant of the same server, [`ARCHIVE`]: a day of a fleet four
//!   times as large, with no writer, whose rollups re-bucket a four times
//!   longer tail. Those reads are the slowest class, so read p99 is the
//!   middle of that class. With every read costing the same, p99 was the
//!   tail of host stalls and moved 20–30% between runs.
//! * The reader moves between the CPUs every 100 ms ([`CpuRotation`]).
//!   Left alone, the reader and the server thread answering it shared one
//!   CPU for the whole run, so a run measured that one CPU's speed on a
//!   shared host. Now the server thread runs opposite the reader and
//!   alternates with it, and every run samples both CPUs.
//!
//! The tenant has a grid, so cells are (hour, geo); its seed history is
//! one day. The WAL is synced every [`SYNC_BATCHES`] appends, once a
//! second: with `SyncPolicy::Always` every read waited behind a batch's
//! fsync often enough that read p99 followed the disk's fsync jitter
//! (spreads of 40–140% between runs), not the program. Six hours of
//! lateness keep a ~22,000-record live tail, so a rollup is milliseconds
//! of re-bucketing rather than microseconds of round trip, and the tail
//! barely changes size as hours seal.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gisolap_datagen::movers::SkewedFleet;
use gisolap_datagen::{stream_batches, ReplayConfig};
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_repl::{Follower, FollowerConfig, Leader, SharedResolver};
use gisolap_serve::wire::{encode_reply, ServeReply};
use gisolap_serve::{Client, ServeConfig, Server, TcpTransport};
use gisolap_store::{DurableIngest, RealFs, StoreConfig, SyncPolicy};
use gisolap_stream::{Measure, RollupQuery, RollupRow, StreamConfig, StreamIngest};
use gisolap_sub::Subscription;
use gisolap_traj::Record;

use crate::common::{
    dir_bytes, fleet_area, fleet_grid, hot_district, peak_rss_mb, refused, same_bits, CpuRotation,
    RunConfig, WorkDir,
};
use crate::report::{median, ratio, us, Latencies, Outcome};

const TENANT: &str = "fleet";
/// A second tenant on the same server: a bigger fleet's day, no writer.
const ARCHIVE: &str = "archive";
/// Objects of the archive fleet (four times the live fleet, so a rollup
/// re-buckets a four times longer tail).
const ARCHIVE_OBJECTS: usize = 1200;
/// Reader operations per archive rollup (2% of reads).
const ARCHIVE_EVERY: usize = 50;
/// Writer rate, batches per second.
const RATE: f64 = 50.0;
/// Records per replayed batch.
const BATCH: usize = 64;
/// Records per batch of the seed-history ingest.
const SEED_BATCH: usize = 8192;
/// Batches between flush + follower sync (two seconds).
const SYNC_EVERY: usize = 100;
/// WAL appends per fsync (`SyncPolicy::EveryN`).
const SYNC_BATCHES: u32 = 50;
const SEED_HOURS: i64 = 24;
const SAMPLE_INTERVAL: i64 = 300;
/// Reopens of the tenant store after the run, for `recover_ms`.
const REOPENS: usize = 5;

/// Six hours of lateness, one-hour segments.
fn stream_config() -> StreamConfig {
    StreamConfig::new(6 * 3600, 3600).expect("valid stream config")
}

/// Keep two retired WAL generations so the follower tails across a
/// flush instead of re-bootstrapping.
fn store_config() -> StoreConfig {
    StoreConfig {
        sync: SyncPolicy::EveryN(SYNC_BATCHES),
        retain_wal_generations: 2,
        ..StoreConfig::default()
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig::with_caps(stream_config(), store_config(), 4, 8, 0)
}

fn shared_resolver() -> SharedResolver {
    Arc::from(fleet_grid().resolver())
}

struct Data {
    seed: Vec<Vec<Record>>,
    run: Vec<Vec<Record>>,
    archive: Vec<Vec<Record>>,
    start: i64,
}

fn generate(cfg: &RunConfig) -> Data {
    let objects = if cfg.smoke { 24 } else { 300 };
    let per_hour = (objects as i64) * 3600 / SAMPLE_INTERVAL;
    let run_records = (RATE * cfg.seconds * BATCH as f64 * 1.2) as i64;
    let hours = SEED_HOURS + run_records / per_hour + 2;
    let fleet = SkewedFleet {
        seed: cfg.sub_seed(1),
        objects,
        samples_per_object: (hours * 3600 / SAMPLE_INTERVAL) as usize,
        sample_interval: SAMPLE_INTERVAL,
        ..SkewedFleet::new(fleet_area(), hot_district(), 0)
    }
    .generate(0);
    let start = fleet
        .records()
        .iter()
        .map(|r| r.t.0)
        .min()
        .expect("non-empty fleet");
    let batches = stream_batches(
        &fleet,
        &ReplayConfig {
            shuffle_seconds: 300,
            batch_size: BATCH,
            seed: cfg.sub_seed(2),
        },
    );
    let cut = start + SEED_HOURS * 3600;
    let split = batches
        .iter()
        .position(|b| b.iter().any(|r| r.t.0 >= cut))
        .unwrap_or(batches.len());
    let seed_records: Vec<Record> = batches[..split].concat();
    Data {
        seed: seed_records
            .chunks(SEED_BATCH)
            .map(<[Record]>::to_vec)
            .collect(),
        run: batches[split..].to_vec(),
        archive: archive(cfg),
        start,
    }
}

/// The archive tenant's history: one day of a fleet four times the live
/// one, replayed out of order in seed-ingest batches.
fn archive(cfg: &RunConfig) -> Vec<Vec<Record>> {
    let objects = if cfg.smoke { 48 } else { ARCHIVE_OBJECTS };
    let fleet = SkewedFleet {
        seed: cfg.sub_seed(3),
        objects,
        samples_per_object: (SEED_HOURS * 3600 / SAMPLE_INTERVAL) as usize,
        sample_interval: SAMPLE_INTERVAL,
        ..SkewedFleet::new(fleet_area(), hot_district(), 0)
    }
    .generate(0);
    stream_batches(
        &fleet,
        &ReplayConfig {
            shuffle_seconds: 300,
            batch_size: SEED_BATCH,
            seed: cfg.sub_seed(4),
        },
    )
}

/// The reader's rollup mix.
fn mix(start: i64) -> Vec<RollupQuery> {
    let window = (TimeId(start + 12 * 3600), TimeId(start + 30 * 3600));
    let mut out = Vec::new();
    for level in [TimeLevel::Hour, TimeLevel::Day] {
        for (f, m) in [
            (AggFn::Count, Measure::X),
            (AggFn::Sum, Measure::X),
            (AggFn::Avg, Measure::Y),
        ] {
            out.push(RollupQuery::new(level, m, f));
            out.push(RollupQuery::new(level, m, f).between(window.0, window.1));
        }
    }
    out
}

fn subscriptions() -> Vec<Subscription> {
    vec![
        Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Count),
        Subscription::new(TimeLevel::Hour, Measure::X, AggFn::Sum).over_hours(3),
        Subscription::new(TimeLevel::Day, Measure::Y, AggFn::Avg),
    ]
}

fn total_count(rows: &[RollupRow]) -> f64 {
    rows.iter().map(|r| r.value).sum()
}

/// Opens `tenant` on `server`, ingests `history` and flushes it.
fn load(
    server: &Server,
    tenant: &str,
    history: &[Vec<Record>],
) -> Result<Arc<Mutex<Leader>>, String> {
    let leader = server.leader_with_grid(tenant, Some(fleet_grid()))?;
    {
        let mut l = leader.lock().expect("leader lock");
        for batch in history {
            l.ingest(batch)
                .map_err(|e| format!("{tenant} seed ingest: {e}"))?;
        }
        l.flush().map_err(|e| format!("{tenant} seed flush: {e}"))?;
    }
    Ok(leader)
}

/// Everything up to the first servable operation: bind, open both
/// tenants, ingest and flush their histories, register the
/// subscriptions.
fn setup(root: &Path, data: &Data) -> Result<(Server, Arc<Mutex<Leader>>, Client), String> {
    let server =
        Server::bind("127.0.0.1:0", root, serve_config()).map_err(|e| format!("bind: {e}"))?;
    let leader = load(&server, TENANT, &data.seed)?;
    load(&server, ARCHIVE, &data.archive)?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for sub in subscriptions() {
        client
            .subscribe(TENANT, &sub)
            .map_err(|e| format!("subscribe: {e}"))?;
    }
    Ok((server, leader, client))
}

/// What the writer measured.
#[derive(Default)]
struct Writer {
    lat: Latencies,
    late_ms: Vec<f64>,
    lock_wait: Latencies,
    ingest: Latencies,
    flush: Latencies,
    sync: Latencies,
    lag_max: u64,
    flushed_records: u64,
    batches_acked: Vec<usize>,
    failed: u64,
}

/// What the reader measured.
#[derive(Default)]
struct Reader {
    lat: Latencies,
    /// Rollup latencies by level and windowing: hour, hour windowed,
    /// day, day windowed.
    by_kind: [Latencies; 4],
    traced_lat: Latencies,
    untraced_lat: Latencies,
    polls: Latencies,
    archive: Latencies,
    /// Each archive query's first answer, which its repeats must match.
    archive_first: Vec<Option<Vec<RollupRow>>>,
    notifications: u64,
    in_process: Latencies,
    overhead: Latencies,
    bytes_out: u64,
    rollups: u64,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    /// CPUs the reader rotated over.
    cpus: usize,
}

fn write_loop(
    cfg: &RunConfig,
    leader: &Mutex<Leader>,
    follower: &mut Follower<TcpTransport>,
    batches: &[Vec<Record>],
    acked: &AtomicU64,
) -> Writer {
    let mut w = Writer::default();
    let t0 = Instant::now();
    let end = t0 + cfg.measure();
    for (i, batch) in batches.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let started = Instant::now();
        w.late_ms.push((started - due).as_secs_f64() * 1e3);
        let mut l = leader.lock().expect("leader lock");
        let locked = Instant::now();
        let result = l.ingest(batch);
        let ingested = locked.elapsed();
        match result {
            Ok(_) => {
                // Published under the lock: a rollup that sees the batch
                // also sees it acknowledged.
                acked.fetch_add(batch.len() as u64, Ordering::SeqCst);
                w.batches_acked.push(i);
            }
            Err(_) => w.failed += 1,
        }
        drop(l);
        w.lat.push(due.elapsed());
        w.lock_wait.push(locked - started);
        w.ingest.push(ingested);
        // Mid-period phase: a run of a whole number of periods still ends
        // with half a period in the WAL for the reopen to replay.
        if i % SYNC_EVERY == SYNC_EVERY / 2 {
            let f0 = Instant::now();
            let flushed = leader.lock().expect("leader lock").flush();
            match flushed {
                Ok(report) => {
                    w.flush.push(f0.elapsed());
                    w.flushed_records += report.records_flushed;
                }
                Err(_) => w.failed += 1,
            }
            let next = leader.lock().expect("leader lock").next_seq();
            w.lag_max = w.lag_max.max(next.saturating_sub(follower.cursor()));
            let s0 = Instant::now();
            match follower.sync(10_000) {
                Ok(_) if follower.caught_up() => w.sync.push(s0.elapsed()),
                _ => w.failed += 1,
            }
        }
    }
    w
}

fn read_loop(
    cfg: &RunConfig,
    client: &mut Client,
    leader: &Mutex<Leader>,
    queries: &[RollupQuery],
    acked: &AtomicU64,
    stop: &AtomicBool,
) -> Reader {
    let mut r = Reader {
        archive_first: vec![None; queries.len()],
        ..Reader::default()
    };
    let mut last_total = [0.0f64; 2];
    let mut cursor = 0u64;
    let mut last_seq = None;
    let mut k = 0usize;
    let mut rotation = CpuRotation::new();
    r.cpus = rotation.cpus();
    while !stop.load(Ordering::SeqCst) {
        rotation.tick();
        // Whole passes over the mix alternate between traced and
        // untraced, so both halves hold the same queries.
        let traced = cfg.trace && (r.rollups as usize / queries.len()) % 2 == 1;
        r.attempted += 1;
        if k % ARCHIVE_EVERY == ARCHIVE_EVERY - 1 {
            let qi = r.archive.len() % queries.len();
            let t0 = Instant::now();
            match client.rollup(ARCHIVE, &queries[qi]) {
                Ok(rows) => {
                    let took = t0.elapsed();
                    r.lat.push(took);
                    r.archive.push(took);
                    match &r.archive_first[qi] {
                        Some(first) if !same_bits(first, &rows) => r.violations.push(format!(
                            "archive query {qi}: a repeat returned a different answer"
                        )),
                        Some(_) => {}
                        None => r.archive_first[qi] = Some(rows),
                    }
                }
                Err(_) => r.failed += 1,
            }
        } else if k % 4 == 3 {
            let t0 = Instant::now();
            match client.notifications(TENANT, cursor) {
                Ok((items, next)) => {
                    let took = t0.elapsed();
                    r.lat.push(took);
                    r.polls.push(took);
                    r.notifications += items.len() as u64;
                    for n in &items {
                        if last_seq.is_some_and(|s| n.seq <= s) {
                            r.violations
                                .push(format!("notification seq {} not ascending", n.seq));
                        }
                        last_seq = Some(n.seq);
                    }
                    if next < cursor {
                        r.violations.push("notification cursor moved back".into());
                    }
                    cursor = next;
                }
                Err(_) => r.failed += 1,
            }
        } else {
            let qi = r.rollups as usize % queries.len();
            let q = &queries[qi];
            r.rollups += 1;
            let t0 = Instant::now();
            match client.rollup(TENANT, q) {
                Ok(rows) => {
                    let took = t0.elapsed();
                    r.lat.push(took);
                    let kind = 2 * usize::from(q.level == TimeLevel::Day)
                        + usize::from(q.between.is_some());
                    r.by_kind[kind].push(took);
                    if cfg.trace {
                        if traced {
                            r.traced_lat.push(took);
                        } else {
                            r.untraced_lat.push(took);
                        }
                    }
                    // Unwindowed counts: monotone, never above what was
                    // acknowledged.
                    if q.f == AggFn::Count && q.between.is_none() {
                        let total = total_count(&rows);
                        let slot = usize::from(q.level == TimeLevel::Day);
                        let ack = acked.load(Ordering::SeqCst) as f64;
                        if total < last_total[slot] || total > ack {
                            r.violations.push(format!(
                                "count {total} after {} with {ack} acknowledged",
                                last_total[slot]
                            ));
                        }
                        last_total[slot] = total;
                    }
                    if traced {
                        r.bytes_out += encode_reply(&ServeReply::Rows(rows)).len() as u64;
                        let l = leader.lock().expect("leader lock");
                        let i0 = Instant::now();
                        let local = l.rollup(q);
                        let local_took = i0.elapsed();
                        drop(l);
                        if local.is_ok() {
                            r.in_process.push(local_took);
                            r.overhead.push_us(us(took) - us(local_took));
                        }
                    }
                }
                Err(_) => r.failed += 1,
            }
        }
        k += 1;
    }
    r
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome {
        smoke: cfg.smoke,
        ..Outcome::default()
    };
    let data = generate(cfg);
    let seed_records: usize = data.seed.iter().map(Vec::len).sum();
    out.fact("seed_records", seed_records);
    out.fact(
        "archive_records",
        data.archive.iter().map(Vec::len).sum::<usize>(),
    );
    out.fact("run_batches_available", data.run.len());
    out.fact("rate_batches_per_s", RATE);
    out.fact("batch_records", BATCH);
    out.fact("sync_policy", format!("every {SYNC_BATCHES} appends"));
    let queries = mix(data.start);
    let work = WorkDir::create(cfg.work.clone()).map_err(|e| format!("work dir: {e}"))?;

    let mut setups = Vec::new();
    let mut served = None;
    for attempt in 0..cfg.setup_repeats() {
        drop(served.take());
        let root = work.path().join(format!("setup-{attempt}"));
        let t0 = Instant::now();
        let s = setup(&root, &data)?;
        setups.push(t0.elapsed().as_secs_f64());
        served = Some((s, root));
    }
    let ((mut server, leader, mut client), root) = served.expect("at least one set-up");
    out.set("setup_s", median(&setups));

    let mut follower = Follower::memory(
        TcpTransport::new(server.addr().to_string(), TENANT),
        Some(shared_resolver()),
        FollowerConfig::default(),
    );
    follower
        .sync(10_000)
        .map_err(|e| format!("follower bootstrap: {e}"))?;
    if !follower.caught_up() {
        return Err("follower did not bootstrap".into());
    }

    let (store_before, ingest_before, wal_spans_before) = {
        let l = leader.lock().expect("leader lock");
        l.durable().set_traced(cfg.trace);
        (
            l.durable().store_stats(),
            l.durable().ingest_stats(),
            l.durable().store().spans().len(),
        )
    };
    let serve_before = server.stats();
    let acked = AtomicU64::new(seed_records as u64);
    let stop = AtomicBool::new(false);
    let (writer, reader) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(cfg, &mut client, &leader, &queries, &acked, &stop));
        let writer = write_loop(cfg, &leader, &mut follower, &data.run, &acked);
        stop.store(true, Ordering::SeqCst);
        (writer, reader.join().expect("reader thread"))
    });
    out.set("peak_rss_mb", peak_rss_mb());
    out.attempted = reader.attempted + writer.lat.len() as u64;
    out.failed = reader.failed + writer.failed;
    out.violations.extend(reader.violations.iter().cloned());
    out.fact("read_samples", reader.lat.len());
    out.fact(
        "reader_cpus",
        format!(
            "{} (rotated every {} ms)",
            reader.cpus,
            CpuRotation::EVERY.as_millis()
        ),
    );
    out.fact("p50_us.poll", reader.polls.median());
    out.fact("archive_samples", reader.archive.len());
    out.fact("p50_us.archive", reader.archive.median());
    for (kind, lat) in ["hour", "hour_window", "day", "day_window"]
        .iter()
        .zip(&reader.by_kind)
    {
        out.fact(format!("p50_us.{kind}"), lat.median());
    }
    out.fact("write_samples", writer.lat.len());

    // Final answers: served rollups against a rebuild from every
    // acknowledged record, in acknowledgement order.
    let mut rebuild = StreamIngest::new(stream_config())
        .map_err(|e| e.to_string())?
        .with_resolver(fleet_grid().resolver());
    for batch in &data.seed {
        rebuild.ingest(batch);
    }
    for &i in &writer.batches_acked {
        rebuild.ingest(&data.run[i]);
    }
    for q in &queries {
        let got = client
            .rollup(TENANT, q)
            .map_err(|e| format!("final rollup: {e}"))?;
        let want = rebuild.rollup(q).map_err(|e| e.to_string())?;
        out.check(same_bits(&got, &want), || {
            format!("served {q:?} differs from the rebuild")
        });
    }
    // The archive's answers, served now and first served in the run,
    // against a rebuild of its history.
    let mut archive = StreamIngest::new(stream_config())
        .map_err(|e| e.to_string())?
        .with_resolver(fleet_grid().resolver());
    for batch in &data.archive {
        archive.ingest(batch);
    }
    for (q, first) in queries.iter().zip(&reader.archive_first) {
        let want = archive.rollup(q).map_err(|e| e.to_string())?;
        let got = client
            .rollup(ARCHIVE, q)
            .map_err(|e| format!("final archive rollup: {e}"))?;
        let first_ok = first.as_ref().is_none_or(|f| same_bits(f, &want));
        out.check(same_bits(&got, &want) && first_ok, || {
            format!("archive {q:?} differs from the rebuild")
        });
    }

    // The follower converges to the leader. No final flush: the reopen
    // below replays the WAL written since the last periodic one.
    follower
        .sync(10_000)
        .map_err(|e| format!("final sync: {e}"))?;
    out.check(follower.caught_up(), || "follower did not catch up".into());
    for q in &queries {
        let want = leader
            .lock()
            .expect("leader lock")
            .rollup(q)
            .map_err(|e| e.to_string())?;
        let got = follower.rollup(q).map_err(|e| e.to_string())?;
        out.check(same_bits(&got, &want), || format!("follower {q:?} differs"));
    }

    let (store_after, ingest_after, wal_ns) = {
        let l = leader.lock().expect("leader lock");
        let spans = &l.durable().store().spans()[wal_spans_before..];
        let wal_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "wal-append")
            .map(|s| s.duration_ns)
            .sum();
        (
            l.durable().store_stats(),
            l.durable().ingest_stats(),
            wal_ns,
        )
    };
    drop(client);
    drop(follower);
    let serve_after = server.stop();
    drop(leader);
    drop(server);

    // Recovery: reopen the tenant store; every acknowledged record must
    // be back.
    let acked_records = acked.load(Ordering::SeqCst);
    let tenant_dir = root.join(TENANT);
    let mut reopens = Vec::new();
    let mut replayed = 0;
    for _ in 0..REOPENS {
        let t0 = Instant::now();
        let (durable, report) = DurableIngest::open(
            Arc::new(RealFs),
            &tenant_dir,
            stream_config(),
            store_config(),
            Some(fleet_grid().resolver()),
        )
        .map_err(|e| format!("reopen: {e}"))?;
        reopens.push(t0.elapsed().as_secs_f64() * 1e3);
        replayed = report.map_or(0, |r| r.wal_records_replayed);
        let all = RollupQuery::new(TimeLevel::All, Measure::X, AggFn::Count);
        let total = total_count(&durable.rollup(&all).map_err(|e| e.to_string())?);
        out.check(total == acked_records as f64, || {
            format!("reopened store holds {total} records, {acked_records} acknowledged")
        });
    }
    let disk = dir_bytes(&tenant_dir);

    // The write-side figures are facts of every run and metrics of the
    // traced one.
    for (name, pct) in [("write_p50_us", 50.0), ("write_p99_us", 99.0)] {
        match writer.lat.percentile(pct) {
            Ok(v) => out.fact(name, v),
            Err(e) => out.fact(name, e),
        }
    }
    out.fact("recover_ms", median(&reopens));
    out.fact("disk_bytes_per_record", disk as f64 / acked_records as f64);
    out.fact("acked_records", acked_records);
    out.fact("notifications", reader.notifications);
    let busy = refused(&serve_after) - refused(&serve_before);
    out.check(busy == 0, || {
        format!("{busy} requests were refused as Busy")
    });

    if !cfg.trace {
        out.set_reads(&reader.lat);
        return Ok(out);
    }
    out.set_percentile("write_p50_us", &writer.lat, 50.0);
    out.set_percentile("write_p99_us", &writer.lat, 99.0);
    out.set("recover_ms", median(&reopens));
    out.set("disk_bytes_per_record", disk as f64 / acked_records as f64);
    let batches = writer.ingest.len().max(1) as f64;
    out.set(
        "stream.ingest_us",
        (writer.ingest.total_us() - wal_ns as f64 / 1e3) / batches,
    );
    let d_wal_appends = store_after.wal_appends - store_before.wal_appends;
    out.set(
        "store.wal_syncs_per_batch",
        ratio(
            (store_after.wal_syncs - store_before.wal_syncs) as f64,
            d_wal_appends as f64,
        ),
    );
    out.set(
        "store.wal_bytes_per_record",
        ratio(
            (store_after.wal_bytes - store_before.wal_bytes) as f64,
            (store_after.wal_records - store_before.wal_records) as f64,
        ),
    );
    out.set("store.flush_us", writer.flush.mean());
    out.set(
        "store.flush_bytes_per_record",
        ratio(
            (store_after.flush_bytes - store_before.flush_bytes) as f64,
            writer.flushed_records as f64,
        ),
    );
    out.set("store.wal_records_replayed", replayed as f64);
    out.set(
        "stream.segments_sealed",
        (ingest_after.segments_sealed - ingest_before.segments_sealed) as f64,
    );
    out.set(
        "stream.partials_merged",
        (ingest_after.partials_merged - ingest_before.partials_merged) as f64,
    );
    out.set("stream.rollup_us", reader.in_process.mean());
    // Served and in-process rollups both scan the tail.
    let rollup_calls = reader.rollups + reader.in_process.len() as u64 + 2 * queries.len() as u64;
    out.set(
        "stream.tail_records_per_read",
        ratio(
            (ingest_after.tail_records_scanned - ingest_before.tail_records_scanned) as f64,
            rollup_calls as f64,
        ),
    );
    out.set("repl.sync_us", writer.sync.mean());
    out.set("repl.lag_seqs_max", writer.lag_max as f64);
    out.set("sub.poll_us", reader.polls.mean());
    out.set(
        "sub.notifications_per_poll",
        ratio(reader.notifications as f64, reader.polls.len() as f64),
    );
    out.set("serve.lock_wait_us", writer.lock_wait.mean());
    out.set("serve.overhead_us", reader.overhead.mean());
    out.set(
        "serve.bytes_out_per_read",
        ratio(reader.bytes_out as f64, reader.in_process.len() as f64),
    );
    out.set("serve.busy_rejections", busy as f64);
    out.set(
        "live.generator_late_ms",
        writer.late_ms.iter().sum::<f64>() / writer.late_ms.len().max(1) as f64,
    );
    out.set(
        "bench.trace_overhead_pct",
        ratio(
            reader.traced_lat.mean() - reader.untraced_lat.mean(),
            reader.untraced_lat.mean(),
        ) * 100.0,
    );
    Ok(out)
}
