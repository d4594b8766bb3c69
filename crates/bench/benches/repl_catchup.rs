//! Replication catch-up: WAL-tail shipping vs full snapshot transfer.
//!
//! A city-traffic replay is WAL-logged into two durable [`Leader`]s
//! (WAL retention on, so followers can tail across flush rotations):
//! one frozen at 90% of the log, one fully loaded. Because sequence
//! numbers are assigned deterministically per ingest call, a follower
//! bootstrapped from the prefix leader holds exactly the state a real
//! replica would have at that seq — repointing its transport at the
//! full leader turns it into a 10%-behind follower. Two catch-up paths
//! are then measured:
//!
//! * **wal_tail** — the 10%-behind follower catches up through
//!   `Frames` replies (the steady-state path);
//! * **snapshot** — a fresh follower bootstraps via a full snapshot
//!   transfer (the cold / fallen-behind path).
//!
//! Tailing ships and applies only the missing suffix, while a snapshot
//! re-encodes and re-installs the whole state, so for a slightly-behind
//! follower the tail must win; the artifact asserts the ≥2× acceptance
//! bar. Besides the Criterion groups, the bench emits a
//! machine-readable summary to the path in `BENCH_REPL_OUT` (default
//! `BENCH_repl.json` in the package root) so CI can archive the
//! artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{stream_batches, CityConfig, CityScenario, ReplayConfig};
use gisolap_repl::{Follower, FollowerConfig, Leader, Transport, TransportError};
use gisolap_store::{DurableIngest, RealFs, ScratchDir, StoreConfig, SyncPolicy};
use gisolap_stream::StreamConfig;
use gisolap_traj::Record;

const LATENESS: i64 = 300;
const SEGMENT: i64 = 3600;
/// Flush every this many batches — rotates the WAL several times so
/// tailing actually crosses retained generations.
const FLUSH_EVERY: usize = 16;
/// Fraction of the log the lagging follower already holds, in percent.
const BEHIND_AT: usize = 90;

/// A transport whose target leader can be swapped between polls: the
/// bench bootstraps a follower against the prefix leader, then points
/// the slot at the fully-loaded one to model a replica that fell 10%
/// behind.
#[derive(Clone)]
struct SwappableTransport {
    slot: Arc<Mutex<Arc<Mutex<Leader>>>>,
}

impl SwappableTransport {
    fn new(leader: Arc<Mutex<Leader>>) -> SwappableTransport {
        SwappableTransport {
            slot: Arc::new(Mutex::new(leader)),
        }
    }

    fn point_at(&self, leader: Arc<Mutex<Leader>>) {
        *self.slot.lock().unwrap() = leader;
    }
}

impl Transport for SwappableTransport {
    fn exchange(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        let leader = self.slot.lock().unwrap().clone();
        let mut l = leader.lock().unwrap();
        l.handle(request)
            .map_err(|e| TransportError::Remote(e.to_string()))
    }
}

fn replay(objects: usize, samples: usize) -> Vec<Vec<Record>> {
    let city = CityScenario::generate(CityConfig {
        blocks_x: 6,
        blocks_y: 4,
        seed: 99,
        ..CityConfig::default()
    });
    let moft = RandomWaypoint {
        sample_interval: 300,
        ..RandomWaypoint::new(city.bbox, objects, samples)
    }
    .generate(0);
    stream_batches(
        &moft,
        &ReplayConfig {
            shuffle_seconds: LATENESS,
            batch_size: 256,
            seed: 11,
        },
    )
}

fn store_config() -> StoreConfig {
    // fsync would measure the device, not the protocol; retention keeps
    // every retired WAL so the tail path never degrades to a snapshot.
    StoreConfig {
        sync: SyncPolicy::Never,
        retain_wal_generations: 1024,
        ..StoreConfig::default()
    }
}

fn follower_config() -> FollowerConfig {
    FollowerConfig {
        backoff_base_ms: 0,
        ..FollowerConfig::default()
    }
}

/// Loads `batches` into a leader homed at a fresh scratch store,
/// flushing periodically so followers see sealed segments + a WAL tail.
fn build_leader(scratch: &ScratchDir, tag: &str, batches: &[Vec<Record>]) -> Arc<Mutex<Leader>> {
    let (durable, recovered) = DurableIngest::open(
        Arc::new(RealFs),
        &scratch.path().join(tag),
        StreamConfig::new(LATENESS, SEGMENT).unwrap(),
        store_config(),
        None,
    )
    .unwrap();
    assert!(recovered.is_none(), "bench dir must start empty");
    let mut leader = Leader::new(durable);
    for (i, b) in batches.iter().enumerate() {
        leader.ingest(b).unwrap();
        if (i + 1) % FLUSH_EVERY == 0 {
            leader.flush().unwrap();
        }
    }
    leader.flush().unwrap();
    Arc::new(Mutex::new(leader))
}

/// The bench fixture: a prefix leader frozen at `BEHIND_AT`% of the
/// replay and a fully-loaded leader over the same batch sequence.
struct Fixture {
    prefix: Arc<Mutex<Leader>>,
    full: Arc<Mutex<Leader>>,
    behind_seq: u64,
    tip_seq: u64,
}

fn build_fixture(scratch: &ScratchDir, batches: &[Vec<Record>]) -> Fixture {
    let cut = batches.len() * BEHIND_AT / 100;
    let prefix = build_leader(scratch, "prefix", &batches[..cut]);
    let full = build_leader(scratch, "full", batches);
    let behind_seq = prefix.lock().unwrap().next_seq();
    let tip_seq = full.lock().unwrap().next_seq();
    assert!(behind_seq < tip_seq, "the suffix must be non-empty");
    Fixture {
        prefix,
        full,
        behind_seq,
        tip_seq,
    }
}

impl Fixture {
    /// A follower that already holds the first `behind_seq` entries:
    /// bootstrapped (untimed) from the prefix leader, then repointed at
    /// the full leader so its next poll tails the missing suffix.
    fn behind_follower(&self) -> Follower<SwappableTransport> {
        let transport = SwappableTransport::new(self.prefix.clone());
        let mut f = Follower::memory(transport.clone(), None, follower_config());
        f.sync(1000).unwrap();
        assert!(f.caught_up() && f.cursor() == self.behind_seq);
        transport.point_at(self.full.clone());
        f
    }

    /// A fresh follower whose first poll is a full snapshot transfer.
    fn fresh_follower(&self) -> Follower<SwappableTransport> {
        Follower::memory(
            SwappableTransport::new(self.full.clone()),
            None,
            follower_config(),
        )
    }
}

/// Times one full catch-up sync against the (static) full leader.
fn timed_sync(f: &mut Follower<SwappableTransport>, tip: u64) -> u128 {
    let t = Instant::now();
    f.sync(1_000_000).unwrap();
    let ns = t.elapsed().as_nanos();
    assert!(
        f.caught_up() && f.cursor() == tip,
        "sync must converge on a static leader"
    );
    ns
}

fn bench_catchup(c: &mut Criterion) {
    let batches = replay(120, 30);
    let records: usize = batches.iter().map(Vec::len).sum();
    let scratch = ScratchDir::new("bench-repl-catchup");
    let fx = build_fixture(&scratch, &batches);

    let mut group = c.benchmark_group("repl_catchup");
    group.throughput(Throughput::Elements(records as u64));
    group.bench_with_input(BenchmarkId::new("wal_tail", records), &fx, |b, fx| {
        b.iter(|| {
            let mut f = fx.behind_follower();
            black_box(timed_sync(&mut f, fx.tip_seq))
        })
    });
    group.bench_with_input(BenchmarkId::new("snapshot", records), &fx, |b, fx| {
        b.iter(|| {
            let mut f = fx.fresh_follower();
            black_box(timed_sync(&mut f, fx.tip_seq))
        })
    });
    group.finish();
}

/// Best-of-three timed passes per path on larger workloads, written as
/// the CI artifact. Asserts the acceptance bar: WAL-tail catch-up of
/// the missing 10% ≥2× faster than a full snapshot transfer.
fn emit_artifact() {
    let mut entries = Vec::new();
    for (objects, samples) in [(400, 160), (600, 240)] {
        let batches = replay(objects, samples);
        let records: usize = batches.iter().map(Vec::len).sum();
        let scratch = ScratchDir::new("bench-repl-artifact");
        let fx = build_fixture(&scratch, &batches);

        // Best of three passes each: the artifact records capability,
        // not scheduler noise on a shared CI box.
        let (mut tail_ns, mut snap_ns) = (u128::MAX, u128::MAX);
        let mut tail_records = 0;
        for _ in 0..3 {
            let mut f = fx.behind_follower();
            let before = f.stats().records_applied;
            tail_ns = tail_ns.min(timed_sync(&mut f, fx.tip_seq));
            tail_records = f.stats().records_applied - before;
        }
        let mut replica_records = 0;
        for _ in 0..3 {
            let mut f = fx.fresh_follower();
            snap_ns = snap_ns.min(timed_sync(&mut f, fx.tip_seq));
            replica_records = f.snapshot().unwrap().moft().records().len();
        }
        assert_eq!(
            replica_records,
            fx.full
                .lock()
                .unwrap()
                .durable()
                .snapshot()
                .unwrap()
                .moft()
                .records()
                .len(),
            "both paths must land on the leader's record set"
        );

        let speedup = snap_ns as f64 / tail_ns.max(1) as f64;
        assert!(
            speedup >= 2.0,
            "WAL-tail catch-up of the last {}% must be ≥2x faster than a \
             full snapshot transfer, got {speedup:.2}x",
            100 - BEHIND_AT,
        );

        entries.push(format!(
            concat!(
                "    {{\"records\": {}, \"behind_seq\": {}, \"tip_seq\": {}, ",
                "\"wal_tail_ns\": {}, \"wal_tail_records_applied\": {}, ",
                "\"snapshot_ns\": {}, \"replica_records\": {}, ",
                "\"tail_speedup\": {:.2}}}"
            ),
            records,
            fx.behind_seq,
            fx.tip_seq,
            tail_ns,
            tail_records,
            snap_ns,
            replica_records,
            speedup,
        ));
        eprintln!(
            "repl_catchup: records={records} behind={}/{} tail={:.1}ms \
             snapshot={:.1}ms speedup={speedup:.2}x",
            fx.behind_seq,
            fx.tip_seq,
            tail_ns as f64 / 1e6,
            snap_ns as f64 / 1e6,
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"repl_catchup\",\n  \"lateness_seconds\": {LATENESS},\n  \
         \"segment_seconds\": {SEGMENT},\n  \"flush_every_batches\": {FLUSH_EVERY},\n  \
         \"behind_at_percent\": {BEHIND_AT},\n  \"runs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let out = std::env::var("BENCH_REPL_OUT").unwrap_or_else(|_| "BENCH_repl.json".to_string());
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("repl_catchup: could not write {out}: {e}");
    } else {
        eprintln!("repl_catchup: wrote {out}");
    }
}

fn bench_all(c: &mut Criterion) {
    bench_catchup(c);
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
