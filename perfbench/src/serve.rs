//! `serve_mixed`: an in-process `vtrain serve` daemon driven closed-loop
//! by `nproc` clients on persistent connections with a seeded mix of
//! small predictions, validations, a small sweep and invalid frames.
//! Every response must equal, byte for byte, `api::execute` of the same
//! frame run in-process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use vtrain::api::{self, ErrorBody, Outcome as ApiOutcome, Report, Request, Response, ServerStats};
use vtrain::parallel::ParallelConfig;
use vtrain::profile::{CacheStats, ProfileCache};
use vtrain::serve::{Server, ServerConfig};
use vtrain::Scenario;

use crate::layers::{self, CacheView, Layers};
use crate::util::{fnv1a, median, off_main, Rng, Tracer};
use crate::{Ctx, Outcome, Window, SETUPS};

/// The serve layer's figures: client round trip minus in-process
/// execution, worker busy share, and requests the daemon completed.
pub struct ServeView {
    pub overhead_us: f64,
    pub busy_ratio: f64,
    pub completed: f64,
}

/// One client connection speaking newline-delimited frames.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// Writes one frame (newline terminated) and reads one response line.
    pub fn round_trip(&mut self, frame: &str) -> std::io::Result<String> {
        self.writer.write_all(frame.as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "daemon hung up"));
        }
        Ok(line)
    }

    pub fn stats(&mut self) -> ServerStats {
        let line = self
            .round_trip("{\"v\":1,\"id\":\"stats\",\"kind\":\"Stats\"}\n")
            .expect("stats frame");
        match serde_json::from_str::<Response>(&line).map(|r| r.outcome) {
            Ok(ApiOutcome::Ok(Report::Stats(s))) => s,
            other => panic!("expected a Stats report, got {other:?}"),
        }
    }

    /// Drains the daemon; returns once it acknowledged.
    pub fn shutdown(&mut self) {
        let ack = self
            .round_trip("{\"v\":1,\"id\":\"bye\",\"kind\":\"Shutdown\"}\n")
            .expect("shutdown frame");
        assert!(ack.contains("Shutdown"), "daemon acknowledges shutdown: {ack}");
    }
}

/// A daemon on an ephemeral port: `workers` request workers, one sweep
/// thread per request.
pub struct Daemon {
    pub addr: SocketAddr,
    handle: thread::JoinHandle<()>,
}

impl Daemon {
    pub fn start(workers: usize) -> Daemon {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            threads: Some(1),
            ..ServerConfig::default()
        };
        let server = Server::bind(config).expect("ephemeral bind");
        let addr = server.local_addr();
        let handle = thread::spawn(move || server.run().expect("serve loop"));
        Daemon { addr, handle }
    }

    /// Shuts the daemon down over `conn` and waits for its threads.
    pub fn stop(self, conn: &mut Conn) {
        conn.shutdown();
        self.handle.join().expect("daemon thread");
    }
}

/// The layer pass's serve figures for workloads without a daemon: their
/// frames sent in order by one client to a fresh daemon, each right after
/// the same frame ran in-process on the warm `cache`. Both sides run once
/// unmeasured first, and the in-process side runs off the main thread,
/// as the daemon's workers do: the main thread's allocator arena is
/// measurably slower for large requests and would bias the difference.
pub fn probe(
    frames: &[String],
    cache: &Arc<ProfileCache>,
    workers: usize,
    tr: &mut Tracer,
) -> ServeView {
    let daemon = Daemon::start(workers);
    let mut conn = Conn::connect(daemon.addr).expect("connect to daemon");
    let view = off_main(|| {
        for frame in frames {
            reference(frame, cache);
            conn.round_trip(frame).expect("probe warm-up round trip");
        }
        let before = conn.stats().completed;
        let (mut overhead, mut exec_total, mut wall_total) = (Vec::new(), 0.0, 0.0);
        for frame in frames {
            let (_, exec) = reference(frame, cache);
            let t = Instant::now();
            tr.span("serve.round_trip", |_| conn.round_trip(frame)).expect("probe round trip");
            let rt = t.elapsed().as_nanos() as f64;
            overhead.push(rt - exec);
            exec_total += exec;
            wall_total += rt;
        }
        ServeView {
            overhead_us: median(&overhead) / 1e3,
            busy_ratio: exec_total / (workers as f64 * wall_total),
            completed: (conn.stats().completed - before) as f64,
        }
    });
    daemon.stop(&mut conn);
    view
}

const MODEL: &str =
    r#""model": {"preset": "megatron-1.7B"}, "cluster": {"preset": "aws-p4d", "total_gpus": 64}"#;

/// `(t, d, p, m, global batch)`.
type PlanBatch = (usize, usize, usize, usize, usize);

/// `((t, d, p, m, global batch), copies per pass)` of the predictions.
/// Copies are chosen so that the median and the 90th percentile of the
/// mix each fall inside a run of one frame's copies (cost ranks: 20
/// cheap error/validate frames, 20 sweeps and small predictions, 20 of
/// the median frame, 25 larger predictions, 15 of the largest).
const PREDICTS: [(PlanBatch, usize); 7] = [
    ((1, 32, 2, 1, 256), 5),
    ((1, 16, 4, 1, 1024), 20),
    ((8, 8, 1, 1, 512), 5),
    ((2, 16, 2, 2, 2048), 5),
    ((2, 8, 4, 1, 512), 5),
    ((4, 8, 2, 1, 1024), 10),
    ((2, 8, 4, 1, 2048), 15),
];

fn plan_scenario(t: usize, d: usize, p: usize, m: usize, b: usize) -> String {
    format!(
        r#"{{{MODEL}, "parallelism": {{"tensor": {t}, "data": {d}, "pipeline": {p}, "micro_batch": {m}, "global_batch": {b}}}}}"#
    )
}

/// The small sweep `bench_serve` uses: megatron-1.7B on 16 GPUs.
const SWEEP: &str = r#"{"model": {"preset": "megatron-1.7B"}, "cluster": {"preset": "aws-p4d", "total_gpus": 16}, "sweep": {"global_batch": 16, "limits": {"max_tensor": 2, "max_data": 2, "max_pipeline": 2, "max_micro_batch": 1}}}"#;

/// One distinct frame of the mix and how often it appears per pass.
struct Entry {
    key: String,
    scenario: String,
    frame: String,
    copies: usize,
}

/// `extra` is spliced into the envelope before the scenario.
fn entry(id: &str, kind: &str, scenario: String, copies: usize, extra: &str) -> Entry {
    let frame = format!(
        "{{\"v\": 1, \"id\": \"{id}\", \"kind\": \"{kind}\", {extra}\"scenario\": {scenario}}}\n"
    );
    Entry { key: format!("serve_mixed.{id}"), scenario, frame, copies }
}

/// The mix, per pass of 100 frames: 65 predictions, 10 validations, 15
/// sweeps, 5 frames with an unknown field and 5 infeasible plans (about
/// 10% invalid).
fn catalogue() -> Vec<Entry> {
    let mut entries: Vec<Entry> = PREDICTS
        .iter()
        .enumerate()
        .map(|(i, &((t, d, p, m, b), copies))| {
            entry(&format!("predict-{i:02}"), "Predict", plan_scenario(t, d, p, m, b), copies, "")
        })
        .collect();
    entries.extend([
        entry("validate-plan", "Validate", plan_scenario(2, 8, 4, 1, 512), 5, ""),
        entry("validate-sweep", "Validate", SWEEP.to_owned(), 5, ""),
        entry("sweep", "Sweep", SWEEP.to_owned(), 15, ""),
        // An envelope field the wire API does not know.
        entry("unknown-field", "Predict", plan_scenario(2, 8, 4, 1, 128), 5, "\"priority\": 1, "),
        // Tensor parallelism wider than an 8-GPU node.
        entry("infeasible", "Predict", plan_scenario(16, 2, 2, 1, 64), 5, ""),
    ]);
    entries
}

/// In-process answer to one frame — what the daemon must send back —
/// and the execution time (ns, 0 for a frame that does not decode).
fn reference(frame: &str, cache: &Arc<ProfileCache>) -> (String, f64) {
    match serde_json::from_str::<Request>(frame) {
        Ok(request) => {
            let start = Instant::now();
            let response = api::execute(&request, cache, Some(1));
            (response.to_frame(), start.elapsed().as_nanos() as f64)
        }
        Err(e) => {
            (Response::err("", ErrorBody::from_error(&vtrain::Error::from(e))).to_frame(), 0.0)
        }
    }
}

/// Design points a response priced.
fn points(response: &str) -> u64 {
    match serde_json::from_str::<Response>(response).map(|r| r.outcome) {
        Ok(ApiOutcome::Ok(Report::Predict(_))) => 1,
        Ok(ApiOutcome::Ok(Report::Sweep(s))) => {
            s.variants.iter().map(|v| v.points.len() as u64).sum()
        }
        _ => 0,
    }
}

pub fn golden_lines() -> Vec<String> {
    let cache = Arc::new(ProfileCache::new());
    catalogue()
        .iter()
        .map(|e| format!("{} {:016x}", e.key, fnv1a(reference(&e.frame, &cache).0.as_bytes())))
        .collect()
}

/// One load client's share of the window.
struct Client {
    window: Window,
    /// Sum of in-process execution time of the frames it sent.
    exec_ns: f64,
    /// Round trip minus in-process execution, per request.
    overhead_ns: Vec<f64>,
    tracer: Tracer,
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let catalogue = catalogue();
    // The checker's answers, from a cache of its own (warmed first, so
    // the execution times are warm).
    let ref_cache = Arc::new(ProfileCache::new());
    // `(response, execution ns, points priced)` of each frame, computed
    // off the main thread like the daemon's (see `probe`).
    let refs: Vec<(String, f64, u64)> = off_main(|| {
        for e in &catalogue {
            reference(&e.frame, &ref_cache);
        }
        catalogue
            .iter()
            .map(|e| {
                let runs: Vec<(String, f64)> =
                    (0..3).map(|_| reference(&e.frame, &ref_cache)).collect();
                let exec = median(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
                (runs[0].0.clone(), exec, points(&runs[0].0))
            })
            .collect()
    });
    let golden_ok: Vec<bool> = catalogue
        .iter()
        .zip(&refs)
        .map(|(e, r)| ctx.golden.matches(&e.key, &format!("{:016x}", fnv1a(r.0.as_bytes()))))
        .collect();
    let expect = |i: usize, got: &str| golden_ok[i] && got == refs[i].0;

    let mut setup_s = Vec::new();
    let mut checked = (0, 0);
    let mut state: Option<(Daemon, Vec<Conn>)> = None;
    for _ in 0..SETUPS {
        if let Some((daemon, mut conns)) = state.take() {
            daemon.stop(&mut conns[0]);
        }
        let start = Instant::now();
        let daemon = Daemon::start(ctx.nproc);
        let mut conns: Vec<Conn> = (0..ctx.nproc)
            .map(|_| Conn::connect(daemon.addr).expect("connect to daemon"))
            .collect();
        for (i, e) in catalogue.iter().enumerate() {
            let ok = conns[0].round_trip(&e.frame).is_ok_and(|got| expect(i, &got));
            checked.0 += 1;
            checked.1 += u64::from(!ok);
        }
        setup_s.push(start.elapsed().as_secs_f64());
        state = Some((daemon, conns));
    }
    let (daemon, conns) = state.expect("at least one set-up");
    let mut admin = Conn::connect(daemon.addr).expect("connect to daemon");
    let before = admin.stats();

    let mix: Vec<usize> =
        catalogue.iter().enumerate().flat_map(|(i, e)| std::iter::repeat_n(i, e.copies)).collect();
    let start = Instant::now();
    let clients: Vec<Client> = thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let (mix, catalogue, refs, expect) = (&mix, &catalogue, &refs, &expect);
                scope.spawn(move || {
                    let mut rng = Rng::new(ctx.seed.wrapping_mul(31).wrapping_add(c as u64));
                    let mut order = mix.clone();
                    let mut me = Client {
                        window: Window::default(),
                        exec_ns: 0.0,
                        overhead_ns: Vec::new(),
                        tracer: Tracer::new(false),
                    };
                    let (mut pass, mut op) = (0u64, 0u64);
                    while pass == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
                        rng.shuffle(&mut order);
                        me.tracer.on = ctx.trace && pass.is_multiple_of(2);
                        pass += 1;
                        for &i in &order {
                            let tr = &mut me.tracer;
                            tr.req = (c as u64) << 32 | op;
                            let t = Instant::now();
                            let got = tr.span("request", |_| conn.round_trip(&catalogue[i].frame));
                            let ns = t.elapsed().as_nanos() as f64;
                            let ok = got.as_deref().is_ok_and(|g| expect(i, g));
                            if ok {
                                me.window.points += refs[i].2;
                            }
                            me.window.record(ns, tr.on, ok);
                            me.exec_ns += refs[i].1;
                            me.overhead_ns.push(ns - refs[i].1);
                            op += 1;
                        }
                    }
                    me
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = admin.stats();
    daemon.stop(&mut admin);

    let mut window = Window { wall_s, ..Window::default() };
    let (mut exec_ns, mut overhead) = (0.0, Vec::new());
    for c in clients {
        window.lat_ns.extend(c.window.lat_ns);
        window.traced_lat_ns.extend(c.window.traced_lat_ns);
        window.points += c.window.points;
        window.attempted += c.window.attempted;
        window.failed += c.window.failed;
        exec_ns += c.exec_ns;
        overhead.extend(c.overhead_ns);
        tr.absorb(c.tracer);
    }
    tr.on = ctx.trace;

    let layers = if ctx.trace {
        let valid: Vec<&Entry> = catalogue
            .iter()
            .filter(|e| serde_json::from_str::<Request>(&e.frame).is_ok())
            .collect();
        let plans: Vec<ParallelConfig> = PREDICTS
            .iter()
            .map(|&((t, d, p, m, b), _)| {
                Scenario::from_json(&plan_scenario(t, d, p, m, b))
                    .and_then(|s| s.plan())
                    .expect("plan")
            })
            .collect();
        layers::measure(
            Layers {
                nproc: ctx.nproc,
                cache: ref_cache,
                texts: valid.iter().map(|e| e.scenario.clone()).collect(),
                frames: valid.iter().map(|e| e.frame.clone()).collect(),
                scenario: Scenario::from_json(&plan_scenario(2, 8, 4, 1, 512)).expect("parses"),
                candidates: plans,
                profile: CacheView {
                    stats: CacheStats { hits: after.cache_hits, misses: after.cache_misses },
                    entries: after.cache_entries,
                },
                sweeps: None,
                serve: Some(ServeView {
                    overhead_us: median(&overhead) / 1e3,
                    busy_ratio: exec_ns / (ctx.nproc as f64 * wall_s * 1e9),
                    completed: (after.completed - before.completed) as f64,
                }),
            },
            tr,
        )
    } else {
        Vec::new()
    };
    Outcome { setup_s, setup_checked: checked, window, layers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_one_hundred_frames() {
        assert_eq!(catalogue().iter().map(|e| e.copies).sum::<usize>(), 100);
    }
}
