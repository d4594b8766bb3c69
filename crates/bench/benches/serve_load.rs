//! Load generator for the network front door: N concurrent clients
//! hammering rollup queries at one [`gisolap_serve::Server`] over real
//! sockets.
//!
//! Reports request-latency percentiles (p50/p99) and demonstrates the
//! backpressure contract: with every admitted connection held open, a
//! connection over the cap is answered an explicit `Busy` reply — never
//! a silent drop. Besides the Criterion group (single-request round
//! trip), the bench writes `BENCH_serve.json` (override with
//! `BENCH_SERVE_OUT`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

use gisolap_bench::percentile;
use gisolap_datagen::movers::RandomWaypoint;
use gisolap_datagen::{CityConfig, CityScenario};
use gisolap_olap::agg::AggFn;
use gisolap_olap::time::TimeLevel;
use gisolap_serve::{Client, ClientError, ServeConfig, Server};
use gisolap_store::{ScratchDir, StoreConfig, SyncPolicy};
use gisolap_stream::{Measure, RollupQuery, StreamConfig};

const TENANT: &str = "bench";
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 200;
const CONNECTION_CAP: usize = CLIENTS;

fn serve_config() -> ServeConfig {
    ServeConfig::with_caps(
        StreamConfig::new(0, 3600).unwrap(),
        StoreConfig {
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        },
        CONNECTION_CAP,
        CONNECTION_CAP,
        0,
    )
}

/// Binds a server over a fresh store root and seeds the bench tenant.
fn server_fixture(root: &ScratchDir) -> (Server, usize) {
    let server = Server::bind("127.0.0.1:0", root.path(), serve_config()).unwrap();
    let city = CityScenario::generate(CityConfig {
        blocks_x: 3,
        blocks_y: 2,
        seed: 7,
        ..CityConfig::default()
    });
    let moft = RandomWaypoint {
        seed: 8,
        ..RandomWaypoint::new(city.bbox, 40, 60)
    }
    .generate(0);
    let leader = server.leader(TENANT).unwrap();
    let mut l = leader.lock().unwrap();
    l.ingest(moft.records()).unwrap();
    l.finish().unwrap();
    let records = moft.records().len();
    drop(l);
    (server, records)
}

/// The query mix every client cycles through.
fn query_mix() -> Vec<RollupQuery> {
    let mut mix = Vec::new();
    for level in [TimeLevel::Hour, TimeLevel::Day] {
        for f in [AggFn::Count, AggFn::Sum, AggFn::Avg] {
            mix.push(RollupQuery::new(level, Measure::X, f));
        }
    }
    mix
}

/// One client's run: per-request latencies in nanoseconds.
fn client_run(addr: std::net::SocketAddr, requests: usize) -> Vec<u64> {
    let mut client = Client::connect(addr).expect("connect load client");
    let mix = query_mix();
    let mut latencies = Vec::with_capacity(requests);
    for i in 0..requests {
        let q = &mix[i % mix.len()];
        let t0 = Instant::now();
        let rows = client.rollup(TENANT, q).expect("load rollup");
        latencies.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        black_box(rows.len());
    }
    latencies
}

fn bench_round_trip(c: &mut Criterion) {
    let root = ScratchDir::new("serve-bench-rt");
    let (mut server, _records) = server_fixture(&root);
    let mut client = Client::connect(server.addr()).unwrap();
    let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum);

    let mut group = c.benchmark_group("serve_round_trip");
    group.throughput(Throughput::Elements(1));
    group.bench_function("rollup", |b| {
        b.iter(|| client.rollup(TENANT, black_box(&q)).unwrap().len())
    });
    group.finish();
    drop(client);
    server.stop();
}

fn emit_artifact() {
    let root = ScratchDir::new("serve-bench-load");
    let (mut server, records) = server_fixture(&root);
    let addr = server.addr();

    // Concurrent load: every client gets its own connection and thread.
    let t0 = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| std::thread::spawn(move || client_run(addr, REQUESTS_PER_CLIENT)))
        .collect();
    let mut latencies: Vec<u64> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("load client panicked"))
        .collect();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    latencies.sort_unstable();
    let total = latencies.len();
    let p50 = percentile(&latencies, 50);
    let p99 = percentile(&latencies, 99);
    let mean = latencies.iter().sum::<u64>() / total.max(1) as u64;
    let rps = total as f64 / (wall_ns as f64 / 1e9);

    // Backpressure probe: hold every admitted connection open, then
    // demand one more — the server must answer an explicit Busy.
    let held: Vec<Client> = (0..CONNECTION_CAP)
        .map(|_| Client::connect(addr).expect("held connection"))
        .collect();
    let mut over = Client::connect(addr).expect("over-cap connect");
    let busy_observed = matches!(over.ping(TENANT), Err(ClientError::Busy(_)));
    drop(over);
    drop(held);

    let stats = server.stop();
    let busy_replies = stats.connections_rejected + stats.busy_rejections + stats.quota_rejections;
    eprintln!(
        "serve_load: clients={CLIENTS} requests={total} p50={:.1}us p99={:.1}us \
         mean={:.1}us rps={rps:.0} busy_replies={busy_replies} busy_observed={busy_observed}",
        p50 as f64 / 1e3,
        p99 as f64 / 1e3,
        mean as f64 / 1e3,
    );
    assert!(
        busy_observed && busy_replies > 0,
        "over-cap connection must be answered an explicit Busy"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve_load\",\n",
            "  \"clients\": {},\n",
            "  \"requests_per_client\": {},\n",
            "  \"records_seeded\": {},\n",
            "  \"connection_cap\": {},\n",
            "  \"p50_ns\": {},\n",
            "  \"p99_ns\": {},\n",
            "  \"mean_ns\": {},\n",
            "  \"throughput_rps\": {:.0},\n",
            "  \"busy_replies\": {},\n",
            "  \"requests_served\": {},\n",
            "  \"bytes_in\": {},\n",
            "  \"bytes_out\": {}\n",
            "}}\n"
        ),
        CLIENTS,
        REQUESTS_PER_CLIENT,
        records,
        CONNECTION_CAP,
        p50,
        p99,
        mean,
        rps,
        busy_replies,
        stats.requests,
        stats.bytes_in,
        stats.bytes_out,
    );
    let out = std::env::var("BENCH_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("serve_load: could not write {out}: {e}");
    } else {
        eprintln!("serve_load: wrote {out}");
    }
}

fn bench_all(c: &mut Criterion) {
    bench_round_trip(c);
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
