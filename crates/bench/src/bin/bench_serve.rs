//! Serving-path smoke: boots an in-process `vtrain serve` daemon on an
//! ephemeral port, drives it with concurrent wire-frame clients, and
//! writes `results/BENCH_serve.json` (request throughput, latency
//! percentiles, cross-request cache hit-rate, degraded-mode throughput,
//! snapshot warm-restart hit-rate) for the CI perf gate.
//!
//! Four phases over the same scenario: a cold round that populates the
//! shared profile cache; warm rounds (best of 3) that are the headline
//! number — the daemon's whole value is that repeat traffic runs out of
//! cache; a degraded round against a `--degrade bound-only` daemon
//! forced to answer every sweep from the busy floor, one slot pricing
//! per candidate through the shared profile cache (the load-shedding
//! fallback must itself be fast); and a snapshot
//! kill-and-restart measuring how much of the first batch a
//! warm-restored cache absorbs.
//!
//! ```sh
//! cargo run --release -p vtrain-bench --bin bench_serve
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Instant;

use serde::Serialize;
use vtrain::api::{Outcome, Report, Request, RequestKind, Response, ServerStats};
use vtrain::prelude::*;
use vtrain::serve::{DegradeMode, Server, ServerConfig};
use vtrain_bench::report;

/// The same small megatron-1.7B sweep the serve e2e tests use: big
/// enough to exercise lowering and profiling, small enough that a round
/// of requests finishes in seconds.
const SCENARIO: &str = r#"{
    "model": { "preset": "megatron-1.7B" },
    "cluster": { "preset": "aws-p4d", "total_gpus": 16 },
    "sweep": { "global_batch": 16,
               "limits": { "max_tensor": 2, "max_data": 2,
                           "max_pipeline": 2, "max_micro_batch": 1 } }
}"#;

const CLIENTS: usize = 4;
const WARM_REQUESTS_PER_CLIENT: usize = 4;

#[derive(Serialize)]
struct ServeBench {
    requests: u64,
    concurrent_clients: u64,
    workers: u64,
    requests_per_sec: f64,
    latency_p50_ms: u64,
    latency_p95_ms: u64,
    latency_p99_ms: u64,
    cache_hit_rate: f64,
    degraded_requests_per_sec: f64,
    snapshot_warm_hit_rate: f64,
}

/// Sends one request frame and blocks for its response.
fn round_trip(addr: SocketAddr, request: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.write_all(request.to_frame().as_bytes()).expect("write frame");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read response");
    serde_json::from_str(&line).expect("response parses")
}

fn sweep_request(id: String) -> Request {
    let scenario = Scenario::from_json(SCENARIO).expect("fixture parses");
    Request::new(id, RequestKind::Sweep, scenario)
}

fn stats(addr: SocketAddr) -> ServerStats {
    let frame = r#"{"v":1,"id":"stats","kind":"Stats"}"#;
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.write_all(frame.as_bytes()).expect("write frame");
    stream.write_all(b"\n").expect("write newline");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read response");
    let response: Response = serde_json::from_str(&line).expect("stats parses");
    match response.outcome {
        Outcome::Ok(Report::Stats(s)) => s,
        other => panic!("expected stats, got {other:?}"),
    }
}

fn shutdown(addr: SocketAddr) {
    let bye = Request {
        v: vtrain::api::WIRE_VERSION,
        id: "bye".to_owned(),
        kind: RequestKind::Shutdown,
        scenario: None,
        budget: None,
        attempt: 0,
    };
    let ack = round_trip(addr, &bye);
    assert!(matches!(ack.outcome, Outcome::Ok(Report::Shutdown(_))), "shutdown acks");
}

/// One round: every client sends `per_client` sweeps concurrently.
fn round(addr: SocketAddr, per_client: usize, tag: &str) {
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let tag = tag.to_owned();
            thread::spawn(move || {
                for r in 0..per_client {
                    let response = round_trip(addr, &sweep_request(format!("{tag}-{c}-{r}")));
                    assert!(
                        matches!(response.outcome, Outcome::Ok(Report::Sweep(_))),
                        "bench sweep must succeed: {response:?}"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
}

fn spawn(config: ServerConfig) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig { addr: "127.0.0.1:0".to_owned(), ..config })
        .expect("ephemeral bind succeeds");
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run().expect("serve loop")))
}

/// Phase 3: every sweep answered from the busy floor (`--degrade
/// bound-only` with a 0 high-water mark), best-of-3 rounds.
fn degraded_phase(workers: usize) -> f64 {
    let (addr, daemon) = spawn(ServerConfig {
        workers,
        threads: Some(1),
        degrade: Some(DegradeMode::BoundOnly),
        degrade_high_water: Some(0),
        ..ServerConfig::default()
    });
    let total = CLIENTS * WARM_REQUESTS_PER_CLIENT;
    let mut best_rps = 0.0f64;
    for arm in 0..3 {
        let start = Instant::now();
        round(addr, WARM_REQUESTS_PER_CLIENT, &format!("deg{arm}"));
        let wall = start.elapsed().as_secs_f64();
        best_rps = best_rps.max(total as f64 / wall.max(1e-9));
    }
    let after = stats(addr);
    assert_eq!(
        after.degraded_responses,
        3 * total as u64,
        "a 0 high-water mark degrades every sweep"
    );
    shutdown(addr);
    daemon.join().expect("degraded daemon thread");
    best_rps
}

/// Phase 4: populate a snapshotting daemon, drain it (which persists),
/// then measure what fraction of a fresh daemon's first batch the
/// warm-restored cache absorbs.
fn snapshot_phase(workers: usize) -> f64 {
    let path = std::env::temp_dir().join(format!("vtrain-bench-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let snapshotting = || ServerConfig {
        workers,
        threads: Some(1),
        snapshot: Some(path.clone()),
        ..ServerConfig::default()
    };
    let (addr, daemon) = spawn(snapshotting());
    round(addr, 1, "snap-populate");
    shutdown(addr);
    daemon.join().expect("snapshot daemon thread");

    let (addr, daemon) = spawn(snapshotting());
    let before = stats(addr);
    assert_eq!(before.snapshot_loads, 1, "restart warm-restores the snapshot");
    round(addr, 1, "snap-warm");
    let after = stats(addr);
    shutdown(addr);
    daemon.join().expect("restarted daemon thread");
    let _ = std::fs::remove_file(&path);

    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    hits as f64 / (hits + misses).max(1) as f64
}

fn main() {
    report::banner("Serving-path smoke (CI gate input)");
    let workers = vtrain_bench::threads().clamp(2, 4);
    // One estimator thread per request: concurrency comes from the
    // worker pool, so per-request fan-out would only oversubscribe.
    let (addr, daemon) =
        spawn(ServerConfig { workers, threads: Some(1), ..ServerConfig::default() });

    // Cold round: populate the shared profile cache.
    round(addr, 1, "cold");
    let after_cold = stats(addr);

    // Warm rounds: the headline. Identical scenarios must run almost
    // entirely out of cache, so this measures the serving overhead —
    // framing, admission, scheduling — not profiling. Best-of-3 damps
    // scheduler noise, as elsewhere in the bench suite.
    let warm_total = CLIENTS * WARM_REQUESTS_PER_CLIENT;
    let mut best_rps = 0.0f64;
    for arm in 0..3 {
        let start = Instant::now();
        round(addr, WARM_REQUESTS_PER_CLIENT, &format!("warm{arm}"));
        let wall = start.elapsed().as_secs_f64();
        best_rps = best_rps.max(warm_total as f64 / wall.max(1e-9));
    }
    let after_warm = stats(addr);
    shutdown(addr);
    daemon.join().expect("daemon thread");

    let degraded_rps = degraded_phase(workers);
    let snapshot_hit_rate = snapshot_phase(workers);

    let hits = after_warm.cache_hits - after_cold.cache_hits;
    let misses = after_warm.cache_misses - after_cold.cache_misses;
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let record = ServeBench {
        requests: warm_total as u64,
        concurrent_clients: CLIENTS as u64,
        workers: workers as u64,
        requests_per_sec: best_rps,
        latency_p50_ms: after_warm.latency_p50_ms,
        latency_p95_ms: after_warm.latency_p95_ms,
        latency_p99_ms: after_warm.latency_p99_ms,
        cache_hit_rate: hit_rate,
        degraded_requests_per_sec: degraded_rps,
        snapshot_warm_hit_rate: snapshot_hit_rate,
    };

    println!(
        "{} warm requests over {} clients / {} workers: {:.1} req/s, \
         p50 {} ms p95 {} ms p99 {} ms, warm hit-rate {:.4}, \
         degraded {:.1} req/s, snapshot warm hit-rate {:.4}",
        record.requests,
        record.concurrent_clients,
        record.workers,
        record.requests_per_sec,
        record.latency_p50_ms,
        record.latency_p95_ms,
        record.latency_p99_ms,
        record.cache_hit_rate,
        record.degraded_requests_per_sec,
        record.snapshot_warm_hit_rate
    );
    report::dump_json("BENCH_serve", &record);
}
