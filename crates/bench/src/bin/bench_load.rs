//! Closed-loop load generator for the multi-tenant TCP front-end: drives
//! two registered models over real sockets with three arrival processes
//! (Poisson, bursty on/off, diurnal ramp), tallies every response code,
//! reconciles shed accounting end to end, and writes
//! `results/bench_load.json`. With `--gate` the cross-checks *assert*.
//!
//! The Poisson scenario is quasi-open: `EINET_LOAD_CLIENTS` clients each
//! sample exponential think times at `1/N`-th of a fixed aggregate rate,
//! so their superposition approximates a Poisson arrival stream while
//! every client still waits for its response (no unbounded in-flight
//! buildup). Its tenant serves on real compute, with no throttle.
//!
//! Environment:
//! * `EINET_LOAD_REQUESTS` — Poisson-scenario requests (default 300).
//! * `EINET_LOAD_CLIENTS` — concurrent client connections (default 8).
//! * `EINET_LOAD_BURST` / `EINET_LOAD_RAMP` — request counts for the
//!   bursty and ramp scenarios (defaults 120 each).
//!
//! After the arrival-process scenarios, a **connection-scaling sweep**
//! loads the same reactor with open-but-idle connections: at each level
//! (default 100 → 1000 → 5000) it records the process thread count, the
//! VmRSS proxy, and the p50/p99 of a fixed closed-loop load driven over a
//! handful of active connections. With `--gate` the sweep asserts the
//! reactor holds the top level without adding a single thread and that
//! its latency there stays comparable to the lowest level's.
//!
//! * `EINET_LOAD_SWEEP_CONNS` — comma list of idle-connection levels
//!   (default `100,1000,5000`; the fd budget is 2 per connection since
//!   client and server share the process).
//! * `EINET_LOAD_SWEEP_REQUESTS` — fixed-load requests per level
//!   (default 120).
//!
//! With `--trace-out DIR` the run starts with a **distributed-tracing
//! phase**: a dedicated server is driven by clients that mint a
//! [`einet_trace::TraceContext`] per request and carry it in the wire
//! `trace` field, while a [`einet_trace::TraceStreamer`] exports the
//! server-side trace to `DIR/server_trace.jsonl` and the clients write
//! their own per-request spans (`gen` think time, `request` send→response)
//! to `DIR/client_trace.jsonl`. The two streams share one trace-id space
//! and merge into a single Chrome trace; `trace_check --distributed` joins
//! them and decomposes end-to-end latency per stage. `--trace-only` skips
//! the load scenarios and the connection sweep after the traced phase.
//!
//! * `EINET_LOAD_TRACE_REQUESTS` / `EINET_LOAD_TRACE_CLIENTS` — traced
//!   phase size (defaults 96 requests over 6 connections).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use einet_core::ExitPlan;
use einet_edge::{PoolConfig, StaticSource};
use einet_models::{zoo, BranchSpec};
use einet_server::{ModelRegistry, ModelSpec, ReactorConfig, ReactorServer};
use einet_trace::json::{self, JsonWriter};
use einet_trace::{context, next_trace_id, StreamConfig, TraceConfig, TraceStreamer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SIDE: usize = 16;
/// Aggregate rate of the Poisson scenario and peak of the ramp.
const POISSON_HZ: f64 = 40.0;

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// An inter-arrival process, evaluated per client (each client runs the
/// process at `1/N`-th of the aggregate rate so the superposition matches).
#[derive(Clone, Copy)]
enum Arrival {
    /// Exponential gaps: a Poisson stream at `rate_hz` aggregate.
    Poisson { rate_hz: f64 },
    /// On/off bursts: Poisson at `on_rate_hz` for `on_ms`, silent for
    /// `off_ms`, repeating.
    OnOff {
        on_rate_hz: f64,
        on_ms: u64,
        off_ms: u64,
    },
    /// A diurnal-style triangle: the rate climbs linearly from
    /// `low_hz` to `high_hz` over the first half of `period_ms` and back
    /// down over the second half.
    Ramp {
        low_hz: f64,
        high_hz: f64,
        period_ms: u64,
    },
}

impl Arrival {
    /// The next think-time for one of `clients` concurrent clients,
    /// `elapsed` into the run.
    fn gap(&self, rng: &mut SmallRng, clients: usize, elapsed: Duration) -> Duration {
        let exp = |rng: &mut SmallRng, rate_hz: f64| {
            let u: f64 = rng.gen();
            Duration::from_secs_f64((-(1.0 - u).ln()) / (rate_hz / clients as f64))
        };
        match *self {
            Arrival::Poisson { rate_hz } => exp(rng, rate_hz),
            Arrival::OnOff {
                on_rate_hz,
                on_ms,
                off_ms,
            } => {
                let cycle = on_ms + off_ms;
                let pos = elapsed.as_millis() as u64 % cycle;
                if pos < on_ms {
                    exp(rng, on_rate_hz)
                } else {
                    // Sleep to the start of the next burst, then a first
                    // sample of the burst's own process.
                    Duration::from_millis(cycle - pos) + exp(rng, on_rate_hz)
                }
            }
            Arrival::Ramp {
                low_hz,
                high_hz,
                period_ms,
            } => {
                let pos = elapsed.as_millis() as u64 % period_ms;
                let half = period_ms as f64 / 2.0;
                let frac = 1.0 - ((pos as f64 - half).abs() / half); // 0→1→0
                exp(rng, low_hz + (high_hz - low_hz) * frac)
            }
        }
    }
}

/// What one request should look like: the tenant mix and deadline policy.
#[derive(Clone, Copy)]
struct RequestMix {
    /// Probability of targeting the primary model (the rest goes to the
    /// secondary).
    primary_share: f64,
    /// Deadline attached to every request, if any.
    deadline_ms: Option<u64>,
}

/// Per-scenario response-code tallies, summed over clients.
#[derive(Default, Clone, Copy)]
struct Tally {
    sent: u64,
    ok: u64,                // 200 — an answer, possibly from an early stop
    expired_no_answer: u64, // 504 — deadline hit before the first exit
    shed_queue_full: u64,   // 429 reason=queue_full
    shed_expired: u64,      // 429 reason=expired_in_queue
    errors: u64,            // anything else (should stay 0)
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.expired_no_answer += other.expired_no_answer;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_expired += other.shed_expired;
        self.errors += other.errors;
    }

    fn answered(&self) -> u64 {
        self.ok + self.expired_no_answer + self.shed_queue_full + self.shed_expired + self.errors
    }
}

/// Runs one scenario: `clients` connections, `total` requests split
/// between them, arrivals from `arrival`, targets from `mix`. Returns the
/// summed tally.
fn run_scenario(
    addr: std::net::SocketAddr,
    models: (&'static str, &'static str),
    clients: usize,
    total: usize,
    arrival: Arrival,
    mix: RequestMix,
    seed: u64,
) -> Tally {
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let n = total / clients + usize::from(c < total % clients);
        handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(seed * 1000 + c as u64);
            let stream = TcpStream::connect(addr).expect("connect to load target");
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            let mut tally = Tally::default();
            let mut line = String::new();
            for i in 0..n {
                std::thread::sleep(arrival.gap(&mut rng, clients, start.elapsed()));
                let model = if rng.gen::<f64>() < mix.primary_share {
                    models.0
                } else {
                    models.1
                };
                let deadline = mix
                    .deadline_ms
                    .map(|ms| format!(r#""deadline_ms": {ms}, "#))
                    .unwrap_or_default();
                let request = format!(
                    r#"{{"id": {i}, "model": "{model}", {deadline}"input": {{"shape": [1, 1, {SIDE}, {SIDE}], "fill": 0.2}}}}"#
                );
                writer.write_all(request.as_bytes()).expect("send");
                writer.write_all(b"\n").expect("send");
                writer.flush().expect("flush");
                tally.sent += 1;
                line.clear();
                reader.read_line(&mut line).expect("response");
                let v = json::parse(line.trim()).expect("JSON response");
                let code = v.get("code").and_then(|c| c.as_u64()).unwrap_or(0);
                let reason = v.get("reason").and_then(|r| r.as_str()).unwrap_or("");
                match (code, reason) {
                    (200, _) => tally.ok += 1,
                    (504, _) => tally.expired_no_answer += 1,
                    (429, "queue_full") => tally.shed_queue_full += 1,
                    (429, "expired_in_queue") => tally.shed_expired += 1,
                    _ => tally.errors += 1,
                }
            }
            tally
        }));
    }
    let mut tally = Tally::default();
    for h in handles {
        tally.add(&h.join().expect("client thread"));
    }
    tally
}

/// Reads `Threads:` and `VmRSS:` (kB) from `/proc/self/status`. Returns
/// zeros on platforms without procfs — the sweep still runs, the
/// resource columns just stay empty.
fn proc_threads_and_rss_kb() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("Threads:"), field("VmRSS:"))
}

/// One measurement of a fixed closed-loop load: `total` sequential
/// round-trips spread over `conns` connections, every response required.
/// Returns (throughput rps, p50 ms, p99 ms).
fn fixed_load(addr: std::net::SocketAddr, total: usize, conns: usize) -> (f64, f64, f64) {
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..conns {
        let n = total / conns + usize::from(c < total % conns);
        handles.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect fixed-load");
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let mut lat_us = Vec::with_capacity(n);
            for i in 0..n {
                let request = format!(
                    r#"{{"id": {i}, "model": "alexnet", "input": {{"shape": [1, 1, {SIDE}, {SIDE}], "fill": 0.2}}}}"#
                );
                let t0 = Instant::now();
                writer.write_all(request.as_bytes()).expect("send");
                writer.write_all(b"\n").expect("send");
                writer.flush().expect("flush");
                line.clear();
                assert!(reader.read_line(&mut line).expect("response") > 0);
                lat_us.push(t0.elapsed().as_micros() as u64);
                let v = json::parse(line.trim()).expect("JSON response");
                assert_eq!(
                    v.get("code").and_then(|c| c.as_u64()),
                    Some(200),
                    "fixed load must be fully served"
                );
            }
            lat_us
        }));
    }
    let mut lat_us: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("fixed-load client"))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    lat_us.sort_unstable();
    let q = |f: f64| lat_us[((lat_us.len() - 1) as f64 * f) as usize] as f64 / 1e3;
    (total as f64 / elapsed, q(0.50), q(0.99))
}

/// One row of the connection-scaling sweep.
struct SweepRow {
    idle_conns: usize,
    threads: u64,
    vm_rss_kb: u64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Opens `level` idle connections, waits until the front-end has actually
/// registered them (via the `open_connections` gauge), measures resources,
/// then drives the fixed load over separate active connections. The idle
/// pool is dropped before returning.
fn sweep_level(
    addr: std::net::SocketAddr,
    level: usize,
    requests: usize,
    open_gauge: &dyn Fn() -> u64,
) -> SweepRow {
    let mut idle = Vec::with_capacity(level);
    for _ in 0..level {
        idle.push(TcpStream::connect(addr).expect("idle connection"));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while open_gauge() < level as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        open_gauge() >= level as u64,
        "front-end never registered all {level} idle connections"
    );
    let (threads, vm_rss_kb) = proc_threads_and_rss_kb();
    let (throughput_rps, p50_ms, p99_ms) = fixed_load(addr, requests, 2);
    println!(
        "  sweep: {level} idle conns | {threads} threads, {vm_rss_kb} kB RSS | \
         {throughput_rps:.0} rps, p50 {p50_ms:.2} ms, p99 {p99_ms:.2} ms"
    );
    drop(idle);
    SweepRow {
        idle_conns: level,
        threads,
        vm_rss_kb,
        throughput_rps,
        p50_ms,
        p99_ms,
    }
}

fn write_sweep_row(w: &mut JsonWriter, row: &SweepRow) {
    w.begin_object();
    w.key("front_end");
    w.string("reactor");
    w.key("idle_conns");
    w.number_u64(row.idle_conns as u64);
    w.key("threads");
    w.number_u64(row.threads);
    w.key("vm_rss_kb");
    w.number_u64(row.vm_rss_kb);
    w.key("throughput_rps");
    w.number_f64(row.throughput_rps);
    w.key("p50_ms");
    w.number_f64(row.p50_ms);
    w.key("p99_ms");
    w.number_f64(row.p99_ms);
    w.end_object();
}

/// One hand-written client-side span: the client is its own "process" in
/// the merged trace (pid 2; the server's events carry pid 1).
struct ClientSpan {
    name: &'static str,
    tid: u64,
    ts_us: u64,
    dur_us: u64,
    trace: u64,
    code: u64,
}

/// Appends one client span as a stream `event` record (the same JSONL
/// schema [`einet_trace::stream::read_stream`] parses back).
fn write_client_event(out: &mut String, s: &ClientSpan) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("type");
    w.string("event");
    w.key("name");
    w.string(s.name);
    w.key("cat");
    w.string("client");
    w.key("ph");
    w.string("X");
    w.key("ts");
    w.number_u64(s.ts_us);
    w.key("dur");
    w.number_u64(s.dur_us);
    w.key("pid");
    w.number_u64(2);
    w.key("tid");
    w.number_u64(s.tid);
    w.key("args");
    w.begin_object();
    w.key("trace");
    w.number_u64(s.trace);
    w.key("code");
    w.number_u64(s.code);
    w.end_object();
    w.end_object();
    out.push_str(&w.finish());
    out.push('\n');
}

/// The distributed-tracing phase: every request carries a client-minted
/// trace context, the server trace streams to `DIR/server_trace.jsonl`,
/// and the clients' own spans land in `DIR/client_trace.jsonl`. Both
/// streams share the process trace epoch, so `trace_check --distributed`
/// can join them by trace id and decompose end-to-end latency.
fn run_distributed_trace(dir: &Path) {
    let requests: usize = env_or("EINET_LOAD_TRACE_REQUESTS", 96);
    let clients: usize = env_or("EINET_LOAD_TRACE_CLIENTS", 6).max(1);

    einet_trace::init(TraceConfig::on());
    let streamer = TraceStreamer::start(dir.join("server_trace.jsonl"), StreamConfig::default())
        .expect("start server trace stream");

    // One batched tenant: a single throttled worker with max_batch 4, so
    // queue waits and batch-assembly gaps are visible in the breakdown.
    let mut registry = ModelRegistry::new();
    registry.register(
        "alexnet",
        zoo::b_alexnet([1, SIDE, SIDE], 10, &BranchSpec::paper_default(), 21),
        |_r, _w| Box::new(StaticSource::new(ExitPlan::full(3))),
        ModelSpec {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 64,
                block_delay: Duration::from_millis(2),
                max_batch: 4,
                ..PoolConfig::default()
            },
            ..ModelSpec::default()
        },
    );
    let registry = Arc::new(registry);
    let server = ReactorServer::start(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ReactorConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for c in 0..clients {
        let n = requests / clients + usize::from(c < requests % clients);
        handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(40 + c as u64);
            let stream = TcpStream::connect(addr).expect("connect traced target");
            // The request span must measure serving latency, not Nagle's
            // buffer: send each line as one segment, immediately.
            stream.set_nodelay(true).expect("set nodelay");
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let mut spans = Vec::with_capacity(2 * n);
            let mut tally = Tally::default();
            let tid = c as u64 + 1;
            for i in 0..n {
                // Think time between requests: the client-wait stage.
                let gen_ts = context::now_us();
                std::thread::sleep(Duration::from_micros(rng.gen_range(500..4000)));
                let trace = next_trace_id();
                spans.push(ClientSpan {
                    name: "gen",
                    tid,
                    ts_us: gen_ts,
                    dur_us: context::now_us().saturating_sub(gen_ts),
                    trace,
                    code: 0,
                });
                // A tight deadline on every sixth request provokes the
                // shed paths, which must join like any other response.
                let deadline = if i % 6 == 5 {
                    r#""deadline_ms": 2, "#
                } else {
                    ""
                };
                let request = format!(
                    r#"{{"id": {i}, "model": "alexnet", "trace": {{"id": {trace}, "parent": 0}}, {deadline}"input": {{"shape": [1, 1, {SIDE}, {SIDE}], "fill": 0.2}}}}{}"#,
                    '\n'
                );
                let req_ts = context::now_us();
                writer.write_all(request.as_bytes()).expect("send");
                writer.flush().expect("flush");
                tally.sent += 1;
                line.clear();
                reader.read_line(&mut line).expect("response");
                let dur_us = context::now_us().saturating_sub(req_ts);
                let v = json::parse(line.trim()).expect("JSON response");
                let code = v.get("code").and_then(|c| c.as_u64()).unwrap_or(0);
                let reason = v.get("reason").and_then(|r| r.as_str()).unwrap_or("");
                match (code, reason) {
                    (200, _) => tally.ok += 1,
                    (504, _) => tally.expired_no_answer += 1,
                    (429, "queue_full") => tally.shed_queue_full += 1,
                    (429, "expired_in_queue") => tally.shed_expired += 1,
                    _ => tally.errors += 1,
                }
                let echoed = v.get("trace").and_then(|t| t.as_u64());
                assert_eq!(echoed, Some(trace), "response must echo the trace id");
                spans.push(ClientSpan {
                    name: "request",
                    tid,
                    ts_us: req_ts,
                    dur_us,
                    trace,
                    code,
                });
            }
            (spans, tally)
        }));
    }
    let mut spans = Vec::new();
    let mut tally = Tally::default();
    for h in handles {
        let (s, t) = h.join().expect("traced client thread");
        spans.extend(s);
        tally.add(&t);
    }
    // Every response has been read, so every server-side event exists by
    // now; the final sweep in stop() flushes them all to the stream.
    server.shutdown();
    let stats = streamer.stop().expect("close server trace stream");
    einet_trace::init(TraceConfig::off());

    spans.sort_by_key(|s| s.ts_us);
    let mut out = String::new();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("type");
    w.string("header");
    w.key("producer");
    w.string("einet-bench");
    w.key("version");
    w.number_u64(1);
    w.key("period_ms");
    w.number_u64(0);
    w.end_object();
    out.push_str(&w.finish());
    out.push('\n');
    for s in &spans {
        write_client_event(&mut out, s);
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("type");
    w.string("footer");
    w.key("sweeps");
    w.number_u64(0);
    w.key("events");
    w.number_u64(spans.len() as u64);
    w.key("dropped");
    w.number_u64(0);
    w.end_object();
    out.push_str(&w.finish());
    out.push('\n');
    std::fs::write(dir.join("client_trace.jsonl"), out).expect("write client trace stream");

    assert_eq!(
        tally.answered(),
        tally.sent,
        "every traced request answered"
    );
    assert_eq!(tally.errors, 0, "no unexpected responses in traced phase");
    println!(
        "bench_load: traced phase {} requests over {clients} clients → {} ok, {} shed, \
         {} expired | server stream {} events ({} dropped), client stream {} spans",
        tally.sent,
        tally.ok,
        tally.shed_queue_full + tally.shed_expired,
        tally.expired_no_answer,
        stats.events,
        stats.dropped,
        spans.len(),
    );
    println!(
        "wrote {} and {}",
        dir.join("server_trace.jsonl").display(),
        dir.join("client_trace.jsonl").display()
    );
}

fn write_tally(w: &mut JsonWriter, t: &Tally) {
    w.begin_object();
    w.key("sent");
    w.number_u64(t.sent);
    w.key("ok");
    w.number_u64(t.ok);
    w.key("expired_no_answer");
    w.number_u64(t.expired_no_answer);
    w.key("shed_queue_full");
    w.number_u64(t.shed_queue_full);
    w.key("shed_expired_in_queue");
    w.number_u64(t.shed_expired);
    w.key("errors");
    w.number_u64(t.errors);
    w.end_object();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");
    let trace_only = args.iter().any(|a| a == "--trace-only");
    let trace_out: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    if let Some(dir) = &trace_out {
        std::fs::create_dir_all(dir).expect("create trace-out dir");
        run_distributed_trace(dir);
        if trace_only {
            return;
        }
    }
    let requests: usize = env_or("EINET_LOAD_REQUESTS", 300);
    let clients: usize = env_or("EINET_LOAD_CLIENTS", 8).max(1);
    let burst_requests: usize = env_or("EINET_LOAD_BURST", 120);
    let ramp_requests: usize = env_or("EINET_LOAD_RAMP", 120);
    let sweep_levels: Vec<usize> = std::env::var("EINET_LOAD_SWEEP_CONNS")
        .unwrap_or_else(|_| "100,1000,5000".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    let sweep_requests: usize = env_or("EINET_LOAD_SWEEP_REQUESTS", 120);

    // The primary tenant: one worker, no batching, no throttle — its
    // service time is the real forward through all 3 blocks.
    let mut registry = ModelRegistry::new();
    registry.register(
        "alexnet",
        zoo::b_alexnet([1, SIDE, SIDE], 10, &BranchSpec::paper_default(), 11),
        |_r, _w| Box::new(StaticSource::new(ExitPlan::full(3))),
        ModelSpec {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch: 1,
                ..PoolConfig::default()
            },
            ..ModelSpec::default()
        },
    );
    // The second tenant: a deeper model behind a shallow queue, so the
    // bursty scenario actually sheds.
    registry.register(
        "vgg",
        zoo::flex_vgg16([1, SIDE, SIDE], 10, &BranchSpec::paper_default(), 12),
        |_r, _w| Box::new(StaticSource::new(ExitPlan::full(5))),
        ModelSpec {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 3,
                block_delay: Duration::from_millis(2),
                max_batch: 1,
                ..PoolConfig::default()
            },
            ..ModelSpec::default()
        },
    );
    let registry = Arc::new(registry);
    // One listener for the scenarios and the sweep, so its connection cap
    // has to clear the sweep's top level.
    let server = ReactorServer::start(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ReactorConfig {
            max_conns: sweep_levels.iter().copied().max().unwrap_or(5000) + 64,
            ..ReactorConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    println!(
        "bench_load: {clients} clients against {addr} ({} backend) | poisson {requests} reqs at \
         ~{POISSON_HZ:.0}/s, burst {burst_requests}, ramp {ramp_requests}",
        server.backend()
    );

    // Scenario 1 — Poisson onto the primary tenant.
    let poisson = run_scenario(
        addr,
        ("alexnet", "vgg"),
        clients,
        requests,
        Arrival::Poisson {
            rate_hz: POISSON_HZ,
        },
        RequestMix {
            primary_share: 1.0,
            deadline_ms: None,
        },
        1,
    );
    println!("  poisson: {} sent, {} ok", poisson.sent, poisson.ok);

    // Scenario 2 — bursty on/off onto the shallow-queue tenant, with
    // deadlines, so both shed reasons (queue_full, expired_in_queue) show
    // up as explicit 429s at the client.
    let bursty = run_scenario(
        addr,
        ("vgg", "alexnet"),
        clients,
        burst_requests,
        Arrival::OnOff {
            on_rate_hz: 400.0,
            on_ms: 300,
            off_ms: 200,
        },
        RequestMix {
            primary_share: 1.0,
            deadline_ms: Some(60),
        },
        2,
    );
    println!(
        "  bursty: {} sent | {} ok, {} shed(queue_full), {} shed(expired), {} expired(504)",
        bursty.sent,
        bursty.ok,
        bursty.shed_queue_full,
        bursty.shed_expired,
        bursty.expired_no_answer
    );

    // Scenario 3 — diurnal ramp across a 70/30 tenant mix.
    let ramp = run_scenario(
        addr,
        ("alexnet", "vgg"),
        clients,
        ramp_requests,
        Arrival::Ramp {
            low_hz: 10.0,
            high_hz: POISSON_HZ,
            period_ms: 4000,
        },
        RequestMix {
            primary_share: 0.7,
            deadline_ms: None,
        },
        3,
    );
    println!("  ramp: {} sent, {} ok", ramp.sent, ramp.ok);

    // End-to-end shed accounting: every 429 the clients saw must match a
    // registry- or pool-level shed counter, tenant by tenant in aggregate.
    // Taken *now*, before the connection sweep adds its own traffic to the
    // same route counters.
    let mut total = Tally::default();
    total.add(&poisson);
    total.add(&bursty);
    total.add(&ramp);
    let mut routed = 0u64;
    let mut shed_full = 0u64;
    let mut shed_expired = 0u64;
    let mut all_reconcile = true;
    for name in ["alexnet", "vgg"] {
        let rs = registry.route_stats(name).expect("registered");
        let snap = registry.model_snapshot(name).expect("registered");
        routed += rs.routed;
        shed_full += rs.shed_queue_full;
        shed_expired += snap.shed_expired_at_dequeue;
        all_reconcile &= snap.reconciles();
    }
    let accounting_ok = total.answered() == total.sent
        && total.errors == 0
        && shed_full == total.shed_queue_full
        && shed_expired == total.shed_expired
        && routed == total.sent - total.shed_queue_full
        && all_reconcile;
    println!(
        "  accounting: {} sent = {} answered | sheds client {}+{} vs server {}+{} | \
         reconciles {all_reconcile}",
        total.sent,
        total.answered(),
        total.shed_queue_full,
        total.shed_expired,
        shed_full,
        shed_expired,
    );

    // --- connection-scaling sweep -------------------------------------
    let ingest = server.metrics_handle();
    let (threads_before_sweep, _) = proc_threads_and_rss_kb();
    let gauge = || ingest.snapshot().open_connections;
    let mut sweep_rows = Vec::new();
    for &level in &sweep_levels {
        // Let the previous level's closed connections drain out of the
        // gauge so each level's readiness wait counts only its own.
        let drained = Instant::now() + Duration::from_secs(30);
        while gauge() > 0 && Instant::now() < drained {
            std::thread::sleep(Duration::from_millis(5));
        }
        sweep_rows.push(sweep_level(addr, level, sweep_requests, &gauge));
    }
    server.shutdown();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("clients");
    w.number_u64(clients as u64);
    w.key("poisson");
    write_tally(&mut w, &poisson);
    w.key("bursty");
    write_tally(&mut w, &bursty);
    w.key("ramp");
    write_tally(&mut w, &ramp);
    w.key("accounting_ok");
    w.boolean(accounting_ok);
    w.key("conn_sweep");
    w.begin_object();
    w.key("reactor_threads_before_sweep");
    w.number_u64(threads_before_sweep);
    w.key("levels");
    w.begin_array();
    for row in &sweep_rows {
        write_sweep_row(&mut w, row);
    }
    w.end_array();
    w.end_object();
    w.end_object();
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/bench_load.json", w.finish()).expect("write results/bench_load.json");
    println!("wrote results/bench_load.json");

    if gate {
        assert!(
            accounting_ok,
            "shed accounting does not reconcile end to end"
        );
        assert!(
            bursty.shed_queue_full + bursty.shed_expired > 0,
            "the bursty scenario should provoke at least one shed"
        );
        // Connection-scaling gates. Thread counts from /proc are exact;
        // skip on platforms without procfs (both reads return 0).
        let top = sweep_rows.last().expect("at least one sweep level");
        if threads_before_sweep > 0 && top.threads > 0 {
            assert!(
                top.threads <= threads_before_sweep,
                "reactor grew threads under load: {} before sweep, {} while holding {} \
                 connections — idle connections must not cost threads",
                threads_before_sweep,
                top.threads,
                top.idle_conns
            );
        }
        // Idle connections must not cost latency either: p99 at the top
        // level stays comparable to the lowest level's (generous bound —
        // the shared 1-core CI box is noisy).
        let low = &sweep_rows[0];
        let p99_limit = (low.p99_ms * 2.5).max(low.p99_ms + 20.0);
        assert!(
            top.p99_ms <= p99_limit,
            "reactor p99 {:.2} ms holding {} conns regressed past {:.2} ms at {} conns \
             (limit {:.2} ms)",
            top.p99_ms,
            top.idle_conns,
            low.p99_ms,
            low.idle_conns,
            p99_limit
        );
        println!(
            "load gate passed: accounting exact, reactor held {} conns with no thread growth \
             and p99 {:.2} ms ({:.2} ms at {} conns)",
            top.idle_conns, top.p99_ms, low.p99_ms, low.idle_conns
        );
    }
}
