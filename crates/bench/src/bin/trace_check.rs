//! Validates the observability artifacts the CLI writes: a Chrome
//! `trace_event` JSON file and (optionally) a serving-metrics snapshot, or
//! — with `--stream` — a whole `einet demo --stream-out` directory.
//!
//! ```text
//! trace_check <trace.json> [serve_metrics.json]
//! trace_check --serve <trace.json> <serve_metrics.json> [metrics.prom]
//! trace_check --stream <dir>
//! trace_check --distributed <client.jsonl> <server.jsonl> [breakdown.json]
//! ```
//!
//! Drain mode checks, exiting non-zero with a message on the first failure:
//! * the trace parses and holds a non-empty `traceEvents` array;
//! * every event has the `ph`/`ts`/`pid`/`tid`/`cat`/`name` fields Chrome
//!   requires, with sane values (complete spans carry `dur >= 0`, flow
//!   phases carry an `id`);
//! * at least four categories appear, including `block`, `search` and one
//!   of `predictor`/`exit` — the end-to-end coverage bar; `queue` too when
//!   a metrics file is given (serving traces must show queue wait, but an
//!   `einet eval` trace has no pool);
//! * `--serve` applies the same structural and metrics checks to a trace
//!   from the serving front-end, where a static exit plan is legitimate:
//!   `queue`, `service` and `block` must appear, but no planner categories
//!   (`search`/`predictor`) are required; the serving snapshot's
//!   `open_connections`/`inflight_requests` gauges must both be zero (a
//!   drained front-end owes nothing), and every `task_flow` start must be
//!   matched by exactly one end — multiplexed completions, wherever their
//!   out-of-order responses went, all terminate. With the optional
//!   `metrics.prom` third argument, the `ingest` span count must equal the
//!   routed + shed route counters summed over models (every request the
//!   front-end parsed was either routed to a pool or explicitly shed);
//! * with a metrics file: the `service`/`task` span count equals the
//!   snapshot's serviced-task count and their summed duration lands within
//!   5% of the service histogram's total; the `shed_expired`,
//!   `task_preempted` and `task_deadline_expired` instants equal the
//!   snapshot's shed/preempt/expiry counters; when the snapshot carries
//!   batch-occupancy data, the `batch` spans' `batch_size` args sum to the
//!   serviced-task count and their count equals the dispatch count.
//!
//! Stream mode reads `DIR/trace.jsonl` (the JSONL stream) plus
//! `DIR/serve_metrics.json`, checks the footer/sweep overflow accounting is
//! consistent, every task flow is balanced (one start, one end), and the
//! flow-linked spans reconcile with the same metrics counters as above —
//! including the batch-occupancy reconciliation when the snapshot carries
//! batch data.
//!
//! Distributed mode is the cross-process reconciler: it joins a client-side
//! stream (written by `bench_load --trace-out`) against the server-side
//! stream **by trace id** and fails unless
//! * every client `request` span matches exactly one balanced server
//!   `task_flow` (sheds and expiries included) — a 100% join rate — and no
//!   server flow is left without a client request;
//! * every joined request decomposes into server-side stages (ingest
//!   framing, route, queue wait, batch assembly, service, reply write) and
//!   the stage sums reconcile with the client-observed latency: the
//!   attributed fraction must land within `EINET_DIST_TOL` (default 10%)
//!   of 1, so the unattributed wire/network residual stays small;
//! * the queue-wait, batch-assembly, service and wire histograms are all
//!   non-empty.
//!
//! The per-stage breakdown (counts, quantiles, log-bucket histograms) is
//! written to the optional third path (default `latency_breakdown.json`
//! beside the client stream) for `einet report` to render.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use einet_trace::json::{parse, JsonValue};
use einet_trace::stream::read_stream;

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace_check: FAIL: {msg}");
    ExitCode::FAILURE
}

/// Pulls the pool counters out of a serving-metrics JSON document.
struct PoolCounters {
    submitted: u64,
    serviced: u64,
    shed: u64,
    preempted: u64,
    deadline_expired: u64,
    service_sum_us: u64,
    /// Batch dispatch count and summed occupancy, when the snapshot carries
    /// the batch histogram (older snapshots may predate it).
    batch: Option<(u64, u64)>,
    /// Ingest gauges (0 when the snapshot predates them): a drained
    /// front-end must leave both at zero.
    open_connections: u64,
    inflight_requests: u64,
}

fn read_pool_counters(path: &Path) -> Result<PoolCounters, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let m = parse(&raw).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    let counter = |key: &str| {
        m.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("metrics missing counter {key:?}"))
    };
    let finished = counter("finished")?;
    let shed = counter("shed_expired_at_dequeue")?;
    Ok(PoolCounters {
        submitted: counter("submitted")?,
        serviced: finished - shed,
        shed,
        preempted: counter("preempted")?,
        deadline_expired: counter("deadline_expired")?,
        service_sum_us: m
            .get("service")
            .and_then(|s| s.get("sum_us"))
            .and_then(JsonValue::as_u64)
            .ok_or("metrics missing service.sum_us")?,
        batch: m.get("batch").and_then(|b| {
            Some((
                b.get("count").and_then(JsonValue::as_u64)?,
                b.get("sum").and_then(JsonValue::as_u64)?,
            ))
        }),
        open_connections: m
            .get("open_connections")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        inflight_requests: m
            .get("inflight_requests")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
    })
}

/// Batch-occupancy reconciliation: every dispatch emits exactly one `batch`
/// span whose `batch_size` arg is its live-member count, so the spans must
/// sum to the serviced-task count and tally with the dispatch counter.
fn check_batch_spans_against_metrics(
    batch_spans: u64,
    batch_size_sum: u64,
    pool: &PoolCounters,
) -> Result<(), String> {
    let Some((dispatches, occupancy_sum)) = pool.batch else {
        return Ok(()); // snapshot predates batch telemetry
    };
    if batch_spans != dispatches {
        return Err(format!(
            "trace has {batch_spans} batch spans but metrics say {dispatches} dispatches"
        ));
    }
    if batch_size_sum != occupancy_sum {
        return Err(format!(
            "batch spans sum to {batch_size_sum} members but metrics say {occupancy_sum}"
        ));
    }
    if batch_size_sum != pool.serviced {
        return Err(format!(
            "batch spans cover {batch_size_sum} members but metrics say {} serviced tasks",
            pool.serviced
        ));
    }
    Ok(())
}

/// The instants that must reconcile one-to-one with pool counters. The
/// pool emits `task_preempted`/`task_deadline_expired` (distinct from the
/// solo executor's `preempted`/`deadline_expired`) exactly so this check
/// can be exact even when a demo drives both executors in one trace.
fn check_instants_against_metrics(
    shed_instants: u64,
    preempt_instants: u64,
    expired_instants: u64,
    pool: &PoolCounters,
) -> Result<(), String> {
    if shed_instants != pool.shed {
        return Err(format!(
            "trace has {shed_instants} shed_expired instants but metrics say {} shed tasks",
            pool.shed
        ));
    }
    if preempt_instants != pool.preempted {
        return Err(format!(
            "trace has {preempt_instants} task_preempted instants but metrics say {} preempted",
            pool.preempted
        ));
    }
    if expired_instants != pool.deadline_expired {
        return Err(format!(
            "trace has {expired_instants} task_deadline_expired instants but metrics say {} expired",
            pool.deadline_expired
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, dir] if flag == "--stream" => check_stream(Path::new(dir)),
        [flag, t, m] if flag == "--serve" => check_drain(t, Some(m), true, None),
        [flag, t, m, p] if flag == "--serve" => check_drain(t, Some(m), true, Some(p)),
        [flag, c, s] if flag == "--distributed" => check_distributed(c, s, None),
        [flag, c, s, o] if flag == "--distributed" => check_distributed(c, s, Some(o)),
        [t] => check_drain(t, None, false, None),
        [t, m] => check_drain(t, Some(m), false, None),
        _ => fail(
            "usage: trace_check <trace.json> [serve_metrics.json] | \
             trace_check --serve <trace.json> <serve_metrics.json> [metrics.prom] | \
             trace_check --stream <dir> | \
             trace_check --distributed <client.jsonl> <server.jsonl> [breakdown.json]",
        ),
    }
}

/// Sums every sample of a counter family (`name{labels} value`) in a
/// Prometheus exposition, skipping `# HELP`/`# TYPE` lines.
fn prom_counter_sum(text: &str, metric: &str) -> u64 {
    let mut sum = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('#') || !line.starts_with(metric) {
            continue;
        }
        // The name must end exactly at a label block or a space, so
        // `einet_route_requests_total` never matches a longer name.
        let rest = &line[metric.len()..];
        if !(rest.starts_with('{') || rest.starts_with(' ')) {
            continue;
        }
        if let Some(value) = line.rsplit(' ').next() {
            sum += value.parse::<f64>().unwrap_or(0.0) as u64;
        }
    }
    sum
}

fn check_drain(
    trace_path: &str,
    metrics_path: Option<&String>,
    serve_mode: bool,
    prom_path: Option<&String>,
) -> ExitCode {
    let raw = match std::fs::read_to_string(trace_path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot read {trace_path}: {e}")),
    };
    let doc = match parse(&raw) {
        Ok(v) => v,
        Err(e) => return fail(&format!("{trace_path} is not valid JSON: {e}")),
    };
    let events = match doc.get("traceEvents").and_then(JsonValue::as_array) {
        Some(evs) if !evs.is_empty() => evs,
        Some(_) => return fail("traceEvents is empty"),
        None => return fail("missing traceEvents array"),
    };

    let mut cats: BTreeSet<String> = BTreeSet::new();
    let mut service_spans = 0u64;
    let mut service_dur_us = 0u64;
    let mut shed_instants = 0u64;
    let mut preempt_instants = 0u64;
    let mut expired_instants = 0u64;
    let mut batch_spans = 0u64;
    let mut batch_size_sum = 0u64;
    let mut ingest_spans = 0u64;
    let mut flow_starts = 0u64;
    let mut flow_ends = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let ph = match ev.get("ph").and_then(JsonValue::as_str) {
            Some(p) => p,
            None => return fail(&format!("event {i}: missing ph")),
        };
        for field in ["ts", "pid", "tid"] {
            if ev.get(field).and_then(JsonValue::as_u64).is_none() {
                return fail(&format!("event {i}: missing numeric {field}"));
            }
        }
        let cat = match ev.get("cat").and_then(JsonValue::as_str) {
            Some(c) => c,
            None => return fail(&format!("event {i}: missing cat")),
        };
        let name = match ev.get("name").and_then(JsonValue::as_str) {
            Some(n) => n,
            None => return fail(&format!("event {i}: missing name")),
        };
        cats.insert(cat.to_string());
        match ph {
            "X" => {
                let dur = match ev.get("dur").and_then(JsonValue::as_u64) {
                    Some(d) => d,
                    None => return fail(&format!("event {i}: complete span without dur")),
                };
                if cat == "service" && name == "task" {
                    service_spans += 1;
                    service_dur_us += dur;
                }
                if cat == "queue" && name == "ingest" {
                    ingest_spans += 1;
                }
                if cat == "queue" && name == "batch" {
                    let size = match ev
                        .get("args")
                        .and_then(|a| a.get("batch_size"))
                        .and_then(JsonValue::as_u64)
                    {
                        Some(s) => s,
                        None => {
                            return fail(&format!("event {i}: batch span without batch_size arg"))
                        }
                    };
                    batch_spans += 1;
                    batch_size_sum += size;
                }
            }
            "i" => match name {
                "shed_expired" => shed_instants += 1,
                "task_preempted" => preempt_instants += 1,
                "task_deadline_expired" => expired_instants += 1,
                _ => {}
            },
            "C" => {}
            "s" | "t" | "f" => {
                if ev.get("id").and_then(JsonValue::as_u64).is_none() {
                    return fail(&format!("event {i}: flow phase {ph:?} without id"));
                }
                if name == "task_flow" {
                    match ph {
                        "s" => flow_starts += 1,
                        "f" => flow_ends += 1,
                        _ => {}
                    }
                }
            }
            other => return fail(&format!("event {i}: unexpected phase {other:?}")),
        }
    }
    println!(
        "trace_check: {} events across categories {:?}",
        events.len(),
        cats
    );
    if serve_mode {
        // A serving trace under a static plan never touches the planner, so
        // the coverage bar is the serving path itself.
        for required in ["queue", "service", "block"] {
            if !cats.contains(required) {
                return fail(&format!("missing required serving category {required:?}"));
            }
        }
    } else {
        if cats.len() < 4 {
            return fail(&format!("only {} categories, need >= 4", cats.len()));
        }
        for required in ["block", "search"] {
            if !cats.contains(required) {
                return fail(&format!("missing required category {required:?}"));
            }
        }
        if !cats.contains("predictor") && !cats.contains("exit") {
            return fail("missing both predictor and exit categories");
        }
        if metrics_path.is_some() && !cats.contains("queue") {
            return fail("serving trace missing the queue category");
        }
    }

    if let Some(metrics_path) = metrics_path {
        let pool = match read_pool_counters(Path::new(metrics_path)) {
            Ok(p) => p,
            Err(e) => return fail(&e),
        };
        if service_spans != pool.serviced {
            return fail(&format!(
                "trace has {service_spans} service spans but metrics say {} serviced tasks",
                pool.serviced
            ));
        }
        if let Err(e) =
            check_instants_against_metrics(shed_instants, preempt_instants, expired_instants, &pool)
        {
            return fail(&e);
        }
        if let Err(e) = check_batch_spans_against_metrics(batch_spans, batch_size_sum, &pool) {
            return fail(&e);
        }
        let diff = service_dur_us.abs_diff(pool.service_sum_us);
        let tolerance = (pool.service_sum_us as f64 * 0.05).max(500.0) as u64;
        if diff > tolerance {
            return fail(&format!(
                "service span time {service_dur_us} us vs histogram {} us: \
                 differ by {diff} us (> {tolerance} us)",
                pool.service_sum_us
            ));
        }
        println!(
            "trace_check: {service_spans} service spans + {shed_instants} sheds + \
             {preempt_instants} preempts + {expired_instants} expiries reconcile with metrics \
             ({service_dur_us} us vs {} us, tolerance {tolerance} us)",
            pool.service_sum_us
        );
        if pool.batch.is_some() {
            println!(
                "trace_check: {batch_spans} batch spans covering {batch_size_sum} members \
                 reconcile with dispatch metrics"
            );
        }
        if serve_mode {
            // A drained front-end owes nothing: both ingest gauges zero.
            if pool.open_connections != 0 || pool.inflight_requests != 0 {
                return fail(&format!(
                    "front-end not drained: {} open connections, {} inflight requests",
                    pool.open_connections, pool.inflight_requests
                ));
            }
            // Every submitted task opened a flow; traced requests that were
            // shed at the route layer open (and immediately end) a trivial
            // flow too, so the start count is a floor, not an equality —
            // the prom cross-check below pins it exactly.
            if flow_starts < pool.submitted {
                return fail(&format!(
                    "trace has {flow_starts} task_flow starts but metrics say {} submitted",
                    pool.submitted
                ));
            }
            if flow_ends != flow_starts {
                return fail(&format!(
                    "{flow_starts} task_flow starts but {flow_ends} ends — \
                     some completions never landed"
                ));
            }
            println!(
                "trace_check: {flow_starts} task flows all terminated; \
                 ingest gauges drained to zero"
            );
        }
    }
    if let Some(prom_path) = prom_path {
        let prom = match std::fs::read_to_string(prom_path) {
            Ok(s) => s,
            Err(e) => return fail(&format!("cannot read {prom_path}: {e}")),
        };
        // Every request the front-end parsed (one `ingest` span each) was
        // either routed into a pool or explicitly shed at the route layer.
        // (Unknown-model requests would break this — the self-test and
        // smoke harness never send any.)
        let routed = prom_counter_sum(&prom, "einet_route_requests_total");
        let shed = prom_counter_sum(&prom, "einet_route_shed_total");
        if ingest_spans != routed + shed {
            return fail(&format!(
                "trace has {ingest_spans} ingest spans but route counters say \
                 {routed} routed + {shed} shed"
            ));
        }
        // Routed requests open their flow in the pool; route-shed requests
        // open a trivial one at the registry. Together they pin the start
        // count exactly.
        if flow_starts != routed + shed {
            return fail(&format!(
                "trace has {flow_starts} task_flow starts but route counters say \
                 {routed} routed + {shed} shed"
            ));
        }
        println!(
            "trace_check: {ingest_spans} ingest spans and {flow_starts} task flows reconcile \
             with route counters ({routed} routed + {shed} shed)"
        );
    }
    println!("trace_check: OK");
    ExitCode::SUCCESS
}

fn check_stream(dir: &Path) -> ExitCode {
    let stream_path = dir.join("trace.jsonl");
    let streamed = match read_stream(&stream_path) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    if streamed.events.is_empty() {
        return fail("stream holds no events");
    }
    // Overflow accounting must be internally consistent: the footer totals
    // are the sum of what each sweep record reported.
    let swept_dropped: u64 = streamed.sweeps.iter().map(|s| s.dropped).sum();
    match &streamed.footer {
        Some(f) => {
            if f.dropped != swept_dropped {
                return fail(&format!(
                    "footer says {} dropped but sweep records sum to {swept_dropped}",
                    f.dropped
                ));
            }
            if f.events != streamed.events.len() as u64 {
                return fail(&format!(
                    "footer says {} events but the stream holds {}",
                    f.events,
                    streamed.events.len()
                ));
            }
        }
        None => println!("trace_check: note: no footer (stream still live or truncated)"),
    }

    let summary = streamed.summary();
    if summary.flows.is_empty() {
        return fail("stream recorded no task flows");
    }
    let unbalanced = summary.unbalanced_flows();
    if !unbalanced.is_empty() {
        return fail(&format!(
            "{} of {} task flows are unbalanced (ids {:?})",
            unbalanced.len(),
            summary.flows.len(),
            &unbalanced[..unbalanced.len().min(8)],
        ));
    }
    println!(
        "trace_check: stream {} — {} events over {} sweeps ({} dropped), {} balanced flows",
        stream_path.display(),
        streamed.events.len(),
        streamed.sweeps.len(),
        streamed.dropped(),
        summary.flows.len(),
    );

    let pool = match read_pool_counters(&dir.join("serve_metrics.json")) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let (task_spans, _) = summary.spans_named("service", "task");
    if task_spans != pool.serviced {
        return fail(&format!(
            "stream has {task_spans} service spans but metrics say {} serviced tasks",
            pool.serviced
        ));
    }
    if summary.flows.len() as u64 != pool.submitted {
        return fail(&format!(
            "stream has {} task flows but metrics say {} submitted tasks",
            summary.flows.len(),
            pool.submitted
        ));
    }
    if let Err(e) = check_instants_against_metrics(
        summary.instants_named("shed_expired"),
        summary.instants_named("task_preempted"),
        summary.instants_named("task_deadline_expired"),
        &pool,
    ) {
        return fail(&e);
    }
    // The summary doesn't keep span args, so walk the raw event records for
    // the batch-occupancy reconciliation.
    let mut batch_spans = 0u64;
    let mut batch_size_sum = 0u64;
    for ev in &streamed.events {
        let is_batch = ev.get("ph").and_then(JsonValue::as_str) == Some("X")
            && ev.get("cat").and_then(JsonValue::as_str) == Some("queue")
            && ev.get("name").and_then(JsonValue::as_str) == Some("batch");
        if is_batch {
            let Some(size) = ev
                .get("args")
                .and_then(|a| a.get("batch_size"))
                .and_then(JsonValue::as_u64)
            else {
                return fail("stream batch span without batch_size arg");
            };
            batch_spans += 1;
            batch_size_sum += size;
        }
    }
    if let Err(e) = check_batch_spans_against_metrics(batch_spans, batch_size_sum, &pool) {
        return fail(&e);
    }
    if pool.batch.is_some() {
        println!(
            "trace_check: {batch_spans} batch spans covering {batch_size_sum} members \
             reconcile with dispatch metrics"
        );
    }
    println!(
        "trace_check: {} flows / {task_spans} service spans reconcile with pool metrics \
         ({} submitted, {} serviced, {} shed, {} preempted, {} expired)",
        pool.submitted,
        pool.submitted,
        pool.serviced,
        pool.shed,
        pool.preempted,
        pool.deadline_expired
    );
    println!("trace_check: OK");
    ExitCode::SUCCESS
}

/// One request as the client observed it.
struct ClientReq {
    dur_us: u64,
    code: u64,
}

/// The server-side stage spans recorded for one trace id.
#[derive(Default)]
struct ServerStages {
    /// `(ts, dur)` of the ingest span (parse + route framing).
    ingest: Option<(u64, u64)>,
    /// Summed `route` span time (nested inside ingest).
    route_us: u64,
    /// `(ts, dur)` of the queue-wait span (admission → dequeue).
    queue_wait: Option<(u64, u64)>,
    /// `(ts, dur)` of the service (`task`) span.
    task: Option<(u64, u64)>,
    /// Summed reply-write span time.
    reply_us: u64,
    /// Whether any reply span was seen (a zero-duration write is legal).
    reply_seen: bool,
}

/// Per-stage samples of the end-to-end decomposition (µs).
#[derive(Default)]
struct StageSamples {
    samples: Vec<u64>,
}

impl StageSamples {
    fn push(&mut self, us: u64) {
        self.samples.push(us);
    }

    fn quantile(&self, sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[((sorted.len() - 1) as f64 * q) as usize]
    }

    /// Writes this stage as `{count, sum_us, quantiles, buckets}` under the
    /// already-written key. Buckets are cumulative (`le_us` upper bounds,
    /// Prometheus-style) over a fixed log-ish grid.
    fn write_into(&self, w: &mut einet_trace::json::JsonWriter) {
        const BOUNDS_US: [u64; 10] = [
            50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
        ];
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        w.begin_object();
        w.key("count");
        w.number_u64(sorted.len() as u64);
        w.key("sum_us");
        w.number_u64(sorted.iter().sum());
        w.key("min_us");
        w.number_u64(sorted.first().copied().unwrap_or(0));
        w.key("p50_us");
        w.number_u64(self.quantile(&sorted, 0.50));
        w.key("p95_us");
        w.number_u64(self.quantile(&sorted, 0.95));
        w.key("max_us");
        w.number_u64(sorted.last().copied().unwrap_or(0));
        w.key("buckets");
        w.begin_array();
        for bound in BOUNDS_US {
            let count = sorted.partition_point(|&v| v <= bound) as u64;
            w.begin_object();
            w.key("le_us");
            w.number_u64(bound);
            w.key("count");
            w.number_u64(count);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

/// The cross-process reconciler: joins the client stream against the
/// server stream by trace id, verifies the 1:1 flow correspondence, and
/// decomposes client-observed latency into server-side stages.
fn check_distributed(client_path: &str, server_path: &str, out: Option<&String>) -> ExitCode {
    let client = match read_stream(Path::new(client_path)) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let server = match read_stream(Path::new(server_path)) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let arg_u64 = |ev: &JsonValue, key: &str| {
        ev.get("args")
            .and_then(|a| a.get(key))
            .and_then(JsonValue::as_u64)
    };

    // Client side: one `request` span per trace id, plus the think-time
    // `gen` spans feeding the client-wait histogram.
    let mut reqs: BTreeMap<u64, ClientReq> = BTreeMap::new();
    let mut gens: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in &client.events {
        if ev.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("");
        let Some(trace) = arg_u64(ev, "trace").filter(|&t| t != 0) else {
            continue;
        };
        let dur = ev.get("dur").and_then(JsonValue::as_u64).unwrap_or(0);
        match name {
            "request" => {
                let code = arg_u64(ev, "code").unwrap_or(0);
                if reqs
                    .insert(trace, ClientReq { dur_us: dur, code })
                    .is_some()
                {
                    return fail(&format!(
                        "client stream has duplicate request span for trace {trace}"
                    ));
                }
            }
            "gen" => {
                gens.insert(trace, dur);
            }
            _ => {}
        }
    }
    if reqs.is_empty() {
        return fail("client stream has no request spans");
    }

    // Server side: stage spans keyed by the trace id each span carries.
    let mut stages: BTreeMap<u64, ServerStages> = BTreeMap::new();
    for ev in &server.events {
        if ev.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let cat = ev.get("cat").and_then(JsonValue::as_str).unwrap_or("");
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("");
        let Some(trace) = arg_u64(ev, "trace").filter(|&t| t != 0) else {
            continue;
        };
        let ts = ev.get("ts").and_then(JsonValue::as_u64).unwrap_or(0);
        let dur = ev.get("dur").and_then(JsonValue::as_u64).unwrap_or(0);
        let entry = stages.entry(trace).or_default();
        // Per-request stage spans must be unique per trace id; a duplicate
        // means two requests shared an id and the join would be ambiguous.
        let slot = match (cat, name) {
            ("queue", "ingest") => Some(&mut entry.ingest),
            ("queue", "queue_wait") => Some(&mut entry.queue_wait),
            ("service", "task") => Some(&mut entry.task),
            ("queue", "route") => {
                entry.route_us += dur;
                None
            }
            ("queue", "reply") => {
                entry.reply_us += dur;
                entry.reply_seen = true;
                None
            }
            _ => None,
        };
        if let Some(slot) = slot {
            if slot.replace((ts, dur)).is_some() {
                return fail(&format!(
                    "server stream has duplicate {cat}/{name} span for trace {trace}"
                ));
            }
        }
    }

    // The join: every client request must land on exactly one balanced
    // server flow — sheds included — and no server flow may be orphaned.
    let summary = server.summary();
    let mut unjoined = Vec::new();
    let mut unbalanced = Vec::new();
    for &trace in reqs.keys() {
        match summary.flows.get(&trace) {
            Some(trail) if trail.balanced() => {}
            Some(_) => unbalanced.push(trace),
            None => unjoined.push(trace),
        }
    }
    if !unjoined.is_empty() {
        return fail(&format!(
            "{} of {} client requests never joined a server flow (trace ids {:?})",
            unjoined.len(),
            reqs.len(),
            &unjoined[..unjoined.len().min(8)],
        ));
    }
    if !unbalanced.is_empty() {
        return fail(&format!(
            "{} client requests joined unbalanced server flows (trace ids {:?})",
            unbalanced.len(),
            &unbalanced[..unbalanced.len().min(8)],
        ));
    }
    for &id in summary.flows.keys() {
        if !reqs.contains_key(&id) {
            return fail(&format!("server flow {id} has no matching client request"));
        }
    }
    println!(
        "trace_check: {} client requests all joined balanced server flows (100% join rate)",
        reqs.len()
    );

    // Stage decomposition per joined request. Stage order matters only for
    // the report table; the names are the JSON keys.
    let mut client_wait = StageSamples::default();
    let mut wire = StageSamples::default();
    let mut ingest = StageSamples::default();
    let mut route = StageSamples::default();
    let mut queue_wait = StageSamples::default();
    let mut batch_assembly = StageSamples::default();
    let mut service = StageSamples::default();
    let mut reply = StageSamples::default();
    let mut client_total_us = 0u64;
    let mut attributed_us = 0u64;
    let mut sheds = 0u64;
    for (&trace, req) in &reqs {
        let Some(s) = stages.get(&trace) else {
            return fail(&format!("no server-side stage spans for trace {trace}"));
        };
        let Some((_, ingest_dur)) = s.ingest else {
            return fail(&format!("no ingest span for trace {trace}"));
        };
        if !s.reply_seen {
            return fail(&format!("no reply span for trace {trace}"));
        }
        let mut attr = ingest_dur + s.reply_us;
        ingest.push(ingest_dur.saturating_sub(s.route_us));
        route.push(s.route_us);
        reply.push(s.reply_us);
        if let Some((q_ts, q_dur)) = s.queue_wait {
            queue_wait.push(q_dur);
            attr += q_dur;
            if let Some((t_ts, t_dur)) = s.task {
                let gap = t_ts.saturating_sub(q_ts + q_dur);
                batch_assembly.push(gap);
                service.push(t_dur);
                attr += gap + t_dur;
            }
        }
        if req.code == 429 {
            sheds += 1;
        }
        wire.push(req.dur_us.saturating_sub(attr));
        if let Some(&g) = gens.get(&trace) {
            client_wait.push(g);
        }
        client_total_us += req.dur_us;
        attributed_us += attr;
    }

    // Reconciliation: the server-attributed stages must account for the
    // client-observed latency within tolerance — the residual is genuine
    // wire/network + scheduling time, and it must stay small on loopback.
    let tol: f64 = std::env::var("EINET_DIST_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.10);
    let frac = attributed_us as f64 / client_total_us.max(1) as f64;
    if (frac - 1.0).abs() > tol {
        return fail(&format!(
            "stage sums do not reconcile: server attributed {attributed_us} us of \
             {client_total_us} us client-observed ({:.1}%, tolerance ±{:.0}%)",
            frac * 100.0,
            tol * 100.0
        ));
    }
    for (name, stage) in [
        ("queue_wait", &queue_wait),
        ("batch_assembly", &batch_assembly),
        ("service", &service),
        ("wire", &wire),
    ] {
        if stage.samples.is_empty() {
            return fail(&format!("stage histogram {name:?} is empty"));
        }
    }
    println!(
        "trace_check: stage sums reconcile — {attributed_us} us attributed of \
         {client_total_us} us observed ({:.1}%, tolerance ±{:.0}%), {sheds} sheds joined",
        frac * 100.0,
        tol * 100.0
    );

    let out_path = out.map_or_else(
        || Path::new(client_path).with_file_name("latency_breakdown.json"),
        PathBuf::from,
    );
    let mut w = einet_trace::json::JsonWriter::new();
    w.begin_object();
    w.key("requests");
    w.number_u64(reqs.len() as u64);
    w.key("joined");
    w.number_u64(reqs.len() as u64);
    w.key("sheds");
    w.number_u64(sheds);
    w.key("client_total_us");
    w.number_u64(client_total_us);
    w.key("server_attributed_us");
    w.number_u64(attributed_us);
    w.key("attributed_fraction");
    w.number_f64(frac);
    w.key("stages");
    w.begin_object();
    for (name, stage) in [
        ("client_wait", &client_wait),
        ("wire", &wire),
        ("ingest", &ingest),
        ("route", &route),
        ("queue_wait", &queue_wait),
        ("batch_assembly", &batch_assembly),
        ("service", &service),
        ("reply", &reply),
    ] {
        w.key(name);
        stage.write_into(&mut w);
    }
    w.end_object();
    w.end_object();
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                return fail(&format!("cannot create {}: {e}", parent.display()));
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, w.finish()) {
        return fail(&format!("cannot write {}: {e}", out_path.display()));
    }
    println!("trace_check: wrote {}", out_path.display());
    println!("trace_check: OK");
    ExitCode::SUCCESS
}
