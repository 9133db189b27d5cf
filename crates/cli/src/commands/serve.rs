//! `einet serve` — the multi-tenant TCP serving front-end.
//!
//! Registers zoo models (untrained weights; serving infrastructure, not
//! accuracy, is what this command exercises) behind a [`ModelRegistry`],
//! binds the line-oriented JSON listener — the readiness-driven
//! [`ReactorServer`]: one epoll/poll thread for every connection, clients
//! may pipeline and multiplex by `id` — and either serves until the process
//! is interrupted or, with `--self-test N`, drives a real loopback client
//! through three phases (`N` sequential requests, a multiplexed pipeline on
//! one connection, a shutdown under load that must answer every in-flight
//! id), prints the per-model serving report and exits, failing if any
//! accounting check breaks. `--autoscale` starts the [`ReplicaScaler`]
//! control loop, growing and shrinking each model's replica set from the
//! windowed SLO metrics.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use einet_core::ExitPlan;
use einet_edge::{PoolConfig, ServeMetrics, StaticSource};
use einet_models::BranchSpec;
use einet_server::{
    ModelRegistry, ModelSpec, ReactorConfig, ReactorServer, ReplicaScaler, ScalerConfig,
};
use einet_trace::json::{self, JsonValue};

use super::{parse_model, CmdResult};
use crate::args::ParsedArgs;

const SIDE: usize = 16;
const CLASSES: usize = 10;

/// Runs `einet serve`.
pub fn run(args: &ParsedArgs) -> CmdResult {
    let addr = args.get_or("addr", "127.0.0.1:0").to_string();
    let replicas: usize = args.get_parsed_or("replicas", 1)?;
    let workers: usize = args.get_parsed_or("workers", 2)?;
    let queue_capacity: usize = args.get_parsed_or("queue-capacity", 32)?;
    let max_batch: usize = args.get_parsed_or("max-batch", 4)?;
    let block_delay = Duration::from_millis(args.get_parsed_or("block-delay-ms", 0)?);
    let self_test: usize = args.get_parsed_or("self-test", 0)?;
    let autoscale = args.has_flag("autoscale");
    let max_conns: usize = args.get_parsed_or("max-conns", 8192)?;
    let idle_timeout = Duration::from_millis(args.get_parsed_or("idle-timeout-ms", 0)?);
    let max_replicas: usize = args.get_parsed_or("max-replicas", 4)?;
    let metrics_out = args.get("metrics-out").map(std::path::PathBuf::from);
    let prom_out = args.get("prom-out").map(std::path::PathBuf::from);

    let model_list = args.get_or("models", "b-alexnet,flex-vgg16").to_string();
    let trace_path = super::start_tracing(args);

    let mut registry = ModelRegistry::new();
    let mut names = Vec::new();
    for (i, raw) in model_list.split(',').enumerate() {
        let name = raw.trim();
        if name.is_empty() {
            continue;
        }
        let kind = parse_model(name)?;
        let net = kind.build(
            [1, SIDE, SIDE],
            CLASSES,
            &BranchSpec::paper_default(),
            7 + i as u64,
        );
        let exits = kind.exits();
        registry.register(
            name,
            net,
            move |_replica, _worker| Box::new(StaticSource::new(ExitPlan::full(exits))),
            ModelSpec {
                replicas,
                weights: Vec::new(),
                pool: PoolConfig {
                    workers,
                    queue_capacity,
                    max_batch,
                    block_delay,
                    ..PoolConfig::default()
                },
            },
        );
        names.push(name.to_string());
    }
    if names.is_empty() {
        return Err("no models given (--models a,b,...)".into());
    }

    let registry = Arc::new(registry);
    let scaler = if autoscale {
        Some(ReplicaScaler::spawn(
            Arc::clone(&registry),
            ScalerConfig {
                max_replicas,
                ..ScalerConfig::default()
            },
        ))
    } else {
        None
    };
    let front = ReactorServer::start(
        Arc::clone(&registry),
        &addr,
        ReactorConfig {
            max_conns,
            idle_timeout,
            ..ReactorConfig::default()
        },
    )?;
    println!(
        "reactor ingest: {} backend, max {} connections{}",
        front.backend(),
        max_conns,
        if idle_timeout.is_zero() {
            String::new()
        } else {
            format!(", idle timeout {} ms", idle_timeout.as_millis())
        }
    );
    println!(
        "serving {} model(s) [{}] on {} — {} replica(s) × {} worker(s), queue {}, max-batch {}{}",
        names.len(),
        names.join(", "),
        front.local_addr(),
        replicas,
        workers,
        queue_capacity,
        max_batch,
        if autoscale {
            format!(", autoscaling up to {max_replicas} replicas")
        } else {
            String::new()
        }
    );

    let ingest_metrics = front.metrics_handle();
    if self_test > 0 {
        self_test_loop(&registry, front.local_addr(), &names, self_test)?;
        // The reactor's contract goes beyond one-in-one-out: pipelined
        // multiplexing and a graceful drain under load.
        self_test_multiplexed(front.local_addr(), &names, self_test.clamp(8, 64))?;
        self_test_shutdown_under_load(front, &names, ingest_metrics.clone())?;
    } else {
        println!("send one JSON request per line (see DESIGN.md §10); ctrl-c to stop");
        // Park this thread forever; the reactor thread does the work. The
        // process exits via the user's interrupt signal.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    if let Some(scaler) = scaler {
        scaler.stop();
    }

    report(
        &registry,
        &names,
        &ingest_metrics.snapshot(),
        metrics_out.as_deref(),
        prom_out.as_deref(),
    )?;
    if let Some(path) = trace_path {
        super::finish_tracing(&path)?;
    }
    Ok(())
}

/// Drives `total` requests through a real loopback connection: a 70/30
/// split over the first two models (all to the first when only one is
/// registered), every sixth request carrying a 1 ms deadline so the
/// shed-expired path is exercised too. Fails on any unexpected response.
#[allow(clippy::needless_range_loop)]
fn self_test_loop(
    registry: &Arc<ModelRegistry>,
    addr: SocketAddr,
    names: &[String],
    total: usize,
) -> CmdResult {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut tallies = [0u64; 6]; // 200, 429qf, 429exp, 504, 503, other
    for i in 0..total {
        let model = if names.len() > 1 && i % 10 >= 7 {
            &names[1]
        } else {
            &names[0]
        };
        let deadline = if i % 6 == 5 {
            r#""deadline_ms": 1, "#
        } else {
            ""
        };
        let request = format!(
            r#"{{"id": {i}, "model": "{model}", {deadline}"input": {{"shape": [1, 1, {SIDE}, {SIDE}], "fill": 0.3}}}}"#
        );
        writer.write_all(request.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        line.clear();
        reader.read_line(&mut line)?;
        let v = json::parse(line.trim()).map_err(|e| format!("bad response JSON: {e}"))?;
        let code = v.get("code").and_then(JsonValue::as_u64).unwrap_or(0);
        let reason = v.get("reason").and_then(JsonValue::as_str).unwrap_or("");
        match (code, reason) {
            (200, _) => tallies[0] += 1,
            (429, "queue_full") => tallies[1] += 1,
            (429, "expired_in_queue") => tallies[2] += 1,
            (504, _) => tallies[3] += 1,
            (503, _) => tallies[4] += 1,
            _ => tallies[5] += 1,
        }
    }
    println!(
        "self-test: {total} requests → {} ok, {} shed(queue_full), {} shed(expired), \
         {} expired(504), {} unavailable(503), {} other",
        tallies[0], tallies[1], tallies[2], tallies[3], tallies[4], tallies[5]
    );
    if tallies[5] != 0 {
        return Err(format!("{} unexpected responses", tallies[5]).into());
    }
    let answered: u64 = tallies.iter().sum();
    if answered != total as u64 {
        return Err(format!("sent {total} requests but got {answered} responses").into());
    }
    // Client-side sheds must match the server's own accounting exactly.
    let (mut shed_full, mut shed_expired) = (0u64, 0u64);
    for name in names {
        let rs = registry.route_stats(name).expect("registered model");
        let snap = registry.model_snapshot(name).expect("registered model");
        shed_full += rs.shed_queue_full;
        shed_expired += snap.shed_expired_at_dequeue;
        if !snap.reconciles() {
            return Err(format!("model {name:?} metrics do not reconcile after drain").into());
        }
    }
    if shed_full != tallies[1] || shed_expired != tallies[2] {
        return Err(format!(
            "shed accounting mismatch: client saw {}+{} but server counted {shed_full}+{shed_expired}",
            tallies[1], tallies[2]
        )
        .into());
    }
    println!(
        "self-test: shed accounting reconciles ({shed_full} queue-full, {shed_expired} expired)"
    );
    Ok(())
}

/// Reads `expect` response lines and checks off each id against `pending`
/// (id → times still owed). Fails on an id that was never sent or already
/// fully answered.
fn read_and_check_ids(
    reader: &mut BufReader<TcpStream>,
    expect: usize,
    pending: &mut HashMap<u64, i64>,
) -> CmdResult {
    let mut line = String::new();
    for _ in 0..expect {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err("connection closed with responses still owed".into());
        }
        let v = json::parse(line.trim()).map_err(|e| format!("bad response JSON: {e}"))?;
        let id = v
            .get("id")
            .and_then(JsonValue::as_u64)
            .ok_or("response without id")?;
        match pending.get_mut(&id) {
            Some(owed) if *owed > 0 => *owed -= 1,
            _ => return Err(format!("id {id} answered more times than sent").into()),
        }
    }
    Ok(())
}

/// Pipelines `burst` requests (ids `first_id..`) down one fresh connection
/// without reading a single response. Returns the reader to collect them
/// from and how many times each id is still owed.
fn pipeline_burst(
    addr: SocketAddr,
    names: &[String],
    first_id: u64,
    burst: usize,
) -> std::io::Result<(BufReader<TcpStream>, HashMap<u64, i64>)> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut pending = HashMap::new();
    let mut lines = String::new();
    for i in 0..burst {
        let id = first_id + i as u64;
        let model = &names[i % names.len()];
        pending.insert(id, 1i64);
        lines.push_str(&format!(
            r#"{{"id": {id}, "model": "{model}", "input": {{"shape": [1, 1, {SIDE}, {SIDE}], "fill": 0.3}}}}"#
        ));
        lines.push('\n');
    }
    writer.write_all(lines.as_bytes())?;
    writer.flush()?;
    Ok((BufReader::new(stream), pending))
}

/// Multiplexing phase: a pipelined burst, then collect every response —
/// every id must come back exactly once, in whatever order completions
/// arrived.
fn self_test_multiplexed(addr: SocketAddr, names: &[String], burst: usize) -> CmdResult {
    let (mut reader, mut pending) = pipeline_burst(addr, names, 100_000, burst)?;
    read_and_check_ids(&mut reader, burst, &mut pending)?;
    if pending.values().any(|&owed| owed != 0) {
        return Err("multiplexed phase: some ids were never answered".into());
    }
    println!("self-test: {burst} multiplexed ids round-tripped exactly once");
    Ok(())
}

/// Shutdown-under-load phase: pipelines a burst, shuts the front-end down
/// mid-flight, and verifies the graceful drain still answers every id
/// before closing — and that the ingest gauges land back at zero.
fn self_test_shutdown_under_load(
    front: ReactorServer,
    names: &[String],
    metrics: Arc<ServeMetrics>,
) -> CmdResult {
    let burst = 16usize;
    let (mut reader, mut pending) = pipeline_burst(front.local_addr(), names, 200_000, burst)?;
    // One response first proves the reactor swept the burst (a single
    // loopback write lands whole) — then pull the rug.
    read_and_check_ids(&mut reader, 1, &mut pending)?;
    front.shutdown();
    read_and_check_ids(&mut reader, burst - 1, &mut pending)?;
    if pending.values().any(|&owed| owed != 0) {
        return Err("shutdown-under-load: some ids were never answered".into());
    }
    let snap = metrics.snapshot();
    if snap.open_connections != 0 || snap.inflight_requests != 0 {
        return Err(format!(
            "shutdown-under-load: gauges not drained ({} connections, {} inflight)",
            snap.open_connections, snap.inflight_requests
        )
        .into());
    }
    println!("self-test: graceful drain answered all {burst} in-flight ids and zeroed the gauges");
    Ok(())
}

/// Prints the per-model serving table and writes the optional artifacts:
/// the merged-snapshot JSON (`--metrics-out`, with the ingest gauges
/// folded in) and the labeled Prometheus exposition (`--prom-out`, the
/// ingest registry as one more block of every family).
fn report(
    registry: &Arc<ModelRegistry>,
    names: &[String],
    ingest: &einet_edge::MetricsSnapshot,
    metrics_out: Option<&std::path::Path>,
    prom_out: Option<&std::path::Path>,
) -> CmdResult {
    println!("\nper-model serving metrics:");
    let mut snaps = Vec::new();
    for name in names {
        let rs = registry.route_stats(name).expect("registered model");
        let snap = registry.model_snapshot(name).expect("registered model");
        println!(
            "  {name:>12}: {} routed, {} shed | {} completed | wait p50 {:.2} ms p99 {:.2} ms | \
             service p50 {:.2} ms",
            rs.routed,
            rs.shed_queue_full,
            snap.completed,
            snap.queue_wait.quantile_ms(0.5),
            snap.queue_wait.quantile_ms(0.99),
            snap.service.quantile_ms(0.5),
        );
        snaps.push(snap);
    }
    if let Some(path) = metrics_out {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut merged = einet_edge::MetricsSnapshot::merged(snaps.iter());
        // Pool snapshots carry zero connection gauges; the ingest registry
        // owns them, so the merge grafts them into the one artifact.
        merged.merge(ingest);
        std::fs::write(path, merged.to_json())?;
        println!("wrote serving metrics to {}", path.display());
    }
    if let Some(path) = prom_out {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // The connection/inflight gauges live on the ingest front-end, not
        // on any model pool: they go out under their own scope label.
        let text = registry.to_prom_text(&[(&[("scope", "ingest")], ingest)]);
        std::fs::write(path, text)?;
        println!("wrote Prometheus exposition to {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::run;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn full_self_test_with_autoscale_and_artifacts() {
        let _guard = super::super::tracing_test_lock();
        let dir = std::env::temp_dir().join(format!("einet-serve-test-{}", std::process::id()));
        let trace = dir.join("trace.json");
        let metrics = dir.join("serve_metrics.json");
        let prom = dir.join("metrics.prom");
        // Sequential sweep, multiplexed pipeline and drain under load all
        // run; any phase failing its accounting makes the exit code 1.
        let code = crate::run(&v(&[
            "serve",
            "--models",
            "b-alexnet",
            "--workers",
            "1",
            "--autoscale",
            "--self-test",
            "12",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--prom-out",
            prom.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let m = einet_trace::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(m.get("submitted").is_some());
        // The drained front-end leaves both ingest gauges at zero in the
        // merged artifact — present, not merely defaulted.
        assert_eq!(m.get("open_connections").unwrap().as_u64(), Some(0));
        assert_eq!(m.get("inflight_requests").unwrap().as_u64(), Some(0));
        let prom_raw = std::fs::read_to_string(&prom).unwrap();
        assert!(prom_raw.contains("einet_tasks_submitted_total{model=\"b-alexnet\"}"));
        assert!(prom_raw.contains("einet_server_open_connections{scope=\"ingest\"} 0"));
        assert!(prom_raw.contains("einet_route_shed_total"));
        assert!(prom_raw.contains("einet_replicas{model=\"b-alexnet\"}"));
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("traceEvents"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_model_name_fails_fast() {
        assert_eq!(
            run(&v(&["serve", "--models", "nope", "--self-test", "1"])),
            1
        );
    }
}
