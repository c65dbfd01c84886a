//! End-to-end tests of the `vtrain serve` daemon: a real TCP listener
//! on an ephemeral port, std-socket clients speaking newline-delimited
//! wire frames, and the full admission/backpressure/deadline/drain
//! lifecycle.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};

use vtrain::api::{Outcome, Report, Response, WIRE_VERSION};
use vtrain::serve::{Server, ServerConfig};

/// A scenario small enough that a debug-build sweep finishes in tens of
/// milliseconds.
const SCENARIO: &str = r#"{
    "model": { "preset": "megatron-1.7B" },
    "cluster": { "preset": "aws-p4d", "total_gpus": 16 },
    "sweep": { "global_batch": 16,
               "limits": { "max_tensor": 2, "max_data": 2,
                           "max_pipeline": 2, "max_micro_batch": 1 } }
}"#;

/// Binds an ephemeral port and runs the daemon on a background thread.
fn spawn_server(mut config: ServerConfig) -> (SocketAddr, JoinHandle<()>) {
    config.addr = "127.0.0.1:0".to_owned();
    let server = Server::bind(config).expect("ephemeral bind succeeds");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("serve loop exits cleanly"));
    (addr, handle)
}

/// One connection: write frames, read response lines.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to daemon");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { writer, reader }
    }

    fn send_raw(&mut self, frame: &str) {
        self.writer.write_all(frame.as_bytes()).expect("write frame");
        self.writer.write_all(b"\n").expect("write newline");
    }

    fn send(&mut self, id: &str, kind: &str, scenario: Option<&str>, budget: Option<&str>) {
        let mut frame = format!(r#"{{"v":{WIRE_VERSION},"id":"{id}","kind":"{kind}""#);
        if let Some(s) = scenario {
            frame.push_str(",\"scenario\":");
            frame.push_str(s);
        }
        if let Some(b) = budget {
            frame.push_str(",\"budget\":");
            frame.push_str(b);
        }
        frame.push('}');
        // One frame per line: flatten the pretty-printed scenario.
        self.send_raw(&frame.replace('\n', " "));
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response line");
        serde_json::from_str(&line).expect("response parses")
    }
}

fn stats_of(response: &Response) -> vtrain::api::ServerStats {
    match &response.outcome {
        Outcome::Ok(Report::Stats(s)) => *s,
        other => panic!("expected stats, got {other:?}"),
    }
}

fn shutdown(client: &mut Client) {
    client.send("bye", "Shutdown", None, None);
    let ack = client.recv();
    assert!(matches!(ack.outcome, Outcome::Ok(Report::Shutdown(_))), "shutdown acks");
}

#[test]
fn concurrent_sweeps_echo_ids_and_share_the_cache() {
    const CONCURRENT: usize = 8;
    let (addr, server) =
        spawn_server(ServerConfig { workers: 4, threads: Some(1), ..ServerConfig::default() });

    // N concurrent connections, each one sweep; every response must
    // carry its request's id (the envelope's correlation contract).
    let clients: Vec<_> = (0..CONCURRENT)
        .map(|i| {
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                let id = format!("req-{i}");
                client.send(&id, "Sweep", Some(SCENARIO), None);
                let response = client.recv();
                assert_eq!(response.id, id);
                assert_eq!(response.v, WIRE_VERSION);
                assert!(
                    matches!(response.outcome, Outcome::Ok(Report::Sweep(_))),
                    "sweep succeeds: {response:?}"
                );
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // The daemon's whole point: a request identical to earlier traffic
    // runs almost entirely out of the shared profile cache.
    let mut client = Client::connect(addr);
    client.send("stats-before", "Stats", None, None);
    let before = stats_of(&client.recv());
    assert_eq!(before.completed, CONCURRENT as u64);
    client.send("again", "Sweep", Some(SCENARIO), None);
    assert!(matches!(client.recv().outcome, Outcome::Ok(Report::Sweep(_))));
    client.send("stats-after", "Stats", None, None);
    let after = stats_of(&client.recv());
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    assert!(
        hit_rate > 0.96,
        "repeated scenario must be nearly all cache hits, got {hit_rate:.3} \
         ({hits} hits / {misses} misses)"
    );

    shutdown(&mut client);
    server.join().expect("server thread");
}

#[test]
fn admission_queue_rejects_beyond_its_depth() {
    // Depth 0: no waiting room at all, so every scenario request is
    // rejected at admission — the backpressure path with no timing race.
    let (addr, server) = spawn_server(ServerConfig {
        workers: 1,
        queue_depth: 0,
        threads: Some(1),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr);
    client.send("full", "Sweep", Some(SCENARIO), None);
    let response = client.recv();
    match response.outcome {
        Outcome::Err(body) => {
            assert_eq!(body.code, vtrain::api::ErrorCode::Busy);
            assert_eq!(body.code.exit_code(), 3);
            assert!(body.message.contains("queue"), "{}", body.message);
        }
        Outcome::Ok(_) => panic!("a depth-0 queue must reject"),
    }
    client.send("stats", "Stats", None, None);
    assert_eq!(stats_of(&client.recv()).busy_rejections, 1);
    shutdown(&mut client);
    server.join().expect("server thread");
}

#[test]
fn budgets_are_enforced_with_the_deadline_code() {
    let (addr, server) = spawn_server(ServerConfig { threads: Some(1), ..ServerConfig::default() });
    let mut client = Client::connect(addr);

    // A 1-point budget cannot cover the grid: cooperative cancellation
    // stops the sweep and the request fails with the deadline code.
    client.send("points", "Sweep", Some(SCENARIO), Some(r#"{"max_points":1}"#));
    match client.recv().outcome {
        Outcome::Err(body) => {
            assert_eq!(body.code, vtrain::api::ErrorCode::DeadlineExceeded);
            assert_eq!(body.code.exit_code(), 4);
        }
        Outcome::Ok(_) => panic!("a 1-point budget must fail this sweep"),
    }

    // A 0 ms deadline expires while the request waits in the queue; it
    // must be answered without being executed.
    client.send("expired", "Sweep", Some(SCENARIO), Some(r#"{"deadline_ms":0}"#));
    match client.recv().outcome {
        Outcome::Err(body) => {
            assert_eq!(body.code, vtrain::api::ErrorCode::DeadlineExceeded);
            assert!(body.message.contains("deadline"), "{}", body.message);
        }
        Outcome::Ok(_) => panic!("a 0 ms deadline must fail"),
    }
    client.send("stats", "Stats", None, None);
    assert_eq!(stats_of(&client.recv()).deadline_exceeded, 2);
    shutdown(&mut client);
    server.join().expect("server thread");
}

#[test]
fn malformed_and_unversioned_frames_fail_cleanly() {
    let (addr, server) = spawn_server(ServerConfig { threads: Some(1), ..ServerConfig::default() });
    let mut client = Client::connect(addr);

    // Not JSON at all: answered with an empty id (nothing to echo).
    client.send_raw("this is not a frame");
    let response = client.recv();
    assert_eq!(response.id, "");
    assert!(
        matches!(&response.outcome, Outcome::Err(b) if b.code == vtrain::api::ErrorCode::BadRequest)
    );

    // Unknown envelope field: rejected, not ignored.
    client.send_raw(r#"{"v":1,"id":"x","kind":"Stats","surprise":true}"#);
    assert!(matches!(&client.recv().outcome, Outcome::Err(_)));

    // Future wire version: classified as bad request.
    client.send_raw(&format!(
        r#"{{"v":{},"id":"future","kind":"Sweep","scenario":{}}}"#,
        WIRE_VERSION + 1,
        SCENARIO.replace(['\n', ' '], "")
    ));
    let response = client.recv();
    assert_eq!(response.id, "future");
    match response.outcome {
        Outcome::Err(body) => assert!(body.message.contains("wire version"), "{}", body.message),
        Outcome::Ok(_) => panic!("future versions must be rejected"),
    }

    // A server-state kind addressed to the execution path is an error
    // (e.g. a client replaying a recorded Stats frame as a scenario).
    client.send("mis", "Predict", None, None);
    assert!(
        matches!(&client.recv().outcome, Outcome::Err(b) if b.code == vtrain::api::ErrorCode::BadRequest)
    );

    shutdown(&mut client);
    server.join().expect("server thread");
}

#[test]
fn shutdown_drains_inflight_work_before_acking() {
    let (addr, server) =
        spawn_server(ServerConfig { workers: 1, threads: Some(1), ..ServerConfig::default() });
    let mut client = Client::connect(addr);
    // The sweep is admitted first; the shutdown frame that follows on
    // the same connection must wait for it — and its response must hit
    // the wire before the shutdown ack.
    client.send("work", "Sweep", Some(SCENARIO), None);
    client.send("bye", "Shutdown", None, None);
    let first = client.recv();
    assert_eq!(first.id, "work");
    assert!(matches!(first.outcome, Outcome::Ok(Report::Sweep(_))), "drained work completes");
    let second = client.recv();
    assert_eq!(second.id, "bye");
    match second.outcome {
        Outcome::Ok(Report::Shutdown(report)) => assert_eq!(report.completed, 1),
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    server.join().expect("accept loop exits after the drain");

    // After shutdown a new scenario on a fresh connection (raced
    // against the dying listener) must never execute; both observable
    // outcomes are acceptable: connection refused, or a Busy rejection.
    if let Ok(stream) = TcpStream::connect(addr) {
        let mut late =
            Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream };
        late.send("late", "Sweep", Some(SCENARIO), None);
        let mut line = String::new();
        if late.reader.read_line(&mut line).is_ok() && !line.is_empty() {
            let response: Response = serde_json::from_str(&line).expect("late response parses");
            assert!(
                matches!(&response.outcome, Outcome::Err(b) if b.code == vtrain::api::ErrorCode::Busy),
                "a post-drain request must not run: {response:?}"
            );
        }
    }
}

#[test]
fn warm_request_latency_resolves_below_a_millisecond() {
    // Warm 1.7B predictions take well under a millisecond: whole-ms
    // quantiles read 0, the µs quantiles do not.
    const PREDICT: &str = r#"{
        "model": { "preset": "megatron-1.7B" },
        "cluster": { "preset": "aws-p4d", "total_gpus": 16 },
        "parallelism": { "tensor": 2, "data": 2, "pipeline": 2,
                         "micro_batch": 1, "global_batch": 64 }
    }"#;
    let (addr, server) =
        spawn_server(ServerConfig { workers: 1, threads: Some(1), ..ServerConfig::default() });
    let mut client = Client::connect(addr);
    for i in 0..5 {
        client.send(&format!("p{i}"), "Predict", Some(PREDICT), None);
        let response = client.recv();
        assert!(matches!(response.outcome, Outcome::Ok(Report::Predict(_))), "{response:?}");
    }
    client.send("stats", "Stats", None, None);
    let stats = stats_of(&client.recv());
    assert!(stats.latency_p50_us > 0, "{stats:?}");
    assert!(stats.latency_p50_us <= stats.latency_p95_us);
    assert!(stats.latency_p95_us <= stats.latency_p99_us);
    assert_eq!(stats.latency_p50_ms, stats.latency_p50_us / 1000);
    shutdown(&mut client);
    server.join().expect("server thread");
}
