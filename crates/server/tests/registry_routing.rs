//! Integration tests for the multi-tenant front-end: weighted routing,
//! tenant isolation under overload, and the TCP/JSON wire loop.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use einet_core::ExitPlan;
use einet_edge::{InferenceRequest, PoolConfig, StaticSource, TaskStatus};
use einet_models::{zoo, BranchSpec};
use einet_server::{ModelRegistry, ModelSpec, ReactorConfig, ReactorServer, RouteError};
use einet_tensor::Tensor;
use einet_trace::json;

const SIDE: usize = 16;

fn tiny_net(seed: u64) -> einet_models::MultiExitNet {
    zoo::b_alexnet([1, SIDE, SIDE], 10, &BranchSpec::paper_default(), seed)
}

fn request() -> InferenceRequest {
    InferenceRequest::new(Tensor::zeros(&[1, 1, SIDE, SIDE]))
}

fn full_plan_source() -> Box<dyn einet_edge::PlannerSource> {
    Box::new(StaticSource::new(ExitPlan::full(3)))
}

#[test]
fn weighted_round_robin_skews_traffic_by_weight() {
    let mut registry = ModelRegistry::new();
    registry.register(
        "weighted",
        tiny_net(1),
        |_r, _w| full_plan_source(),
        ModelSpec {
            replicas: 2,
            weights: vec![3, 1],
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 64,
                ..PoolConfig::default()
            },
        },
    );

    let mut replies = Vec::new();
    for _ in 0..40 {
        replies.push(registry.submit("weighted", request()).unwrap());
    }
    for rx in replies {
        assert!(rx.recv().unwrap().unwrap().is_complete());
    }

    let a = registry.replica_snapshot("weighted", 0).unwrap();
    let b = registry.replica_snapshot("weighted", 1).unwrap();
    // 3:1 over 40 requests is exactly 30/10 when nothing spills; allow a
    // little spillover slack but require the skew to be unmistakable.
    assert_eq!(a.submitted + b.submitted, 40);
    assert!(
        a.submitted >= 25 && b.submitted <= 15,
        "expected ~30/10 split, got {}/{}",
        a.submitted,
        b.submitted
    );
    let merged = registry.model_snapshot("weighted").unwrap();
    assert_eq!(merged.submitted, 40);
    assert!(
        merged.reconciles(),
        "merged snapshot reconciles after drain"
    );
    assert_eq!(registry.route_stats("weighted").unwrap().routed, 40);
}

#[test]
fn saturating_one_model_does_not_touch_the_other_tenant() {
    let mut registry = ModelRegistry::new();
    // "victim": one slow worker (forced per-block delay), a 2-deep queue.
    registry.register(
        "victim",
        tiny_net(2),
        |_r, _w| full_plan_source(),
        ModelSpec {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 2,
                block_delay: Duration::from_millis(15),
                ..PoolConfig::default()
            },
            ..ModelSpec::default()
        },
    );
    // "bystander": a healthy tenant sharing the registry.
    registry.register(
        "bystander",
        tiny_net(3),
        |_r, _w| full_plan_source(),
        ModelSpec {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 32,
                ..PoolConfig::default()
            },
            ..ModelSpec::default()
        },
    );
    let registry = Arc::new(registry);

    // Flood the victim from a side thread until it sheds, while the
    // bystander serves a steady trickle from this thread.
    let flood = {
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || {
            let mut sheds = 0u32;
            let mut accepted = Vec::new();
            for _ in 0..64 {
                match registry.submit("victim", request()) {
                    Ok(rx) => accepted.push(rx),
                    Err(RouteError::Shed) => sheds += 1,
                    Err(e) => panic!("unexpected route error: {e:?}"),
                }
            }
            for rx in accepted {
                let _ = rx.recv();
            }
            sheds
        })
    };

    let mut bystander_ok = 0u32;
    for _ in 0..10 {
        let rx = registry
            .submit("bystander", request())
            .expect("bystander must never shed while the victim is flooded");
        assert!(rx.recv().unwrap().unwrap().is_complete());
        bystander_ok += 1;
    }
    let sheds = flood.join().unwrap();

    assert!(
        sheds > 0,
        "the flood must overflow the victim's 2-deep queue"
    );
    assert_eq!(bystander_ok, 10);

    // Shed accounting reconciles per tenant: the victim's registry-level
    // counters match its pool-level rejections one-to-one (single replica,
    // so no spillover multi-counting), and the bystander saw none of it.
    let victim_route = registry.route_stats("victim").unwrap();
    let victim = registry.model_snapshot("victim").unwrap();
    assert_eq!(victim_route.shed_queue_full, u64::from(sheds));
    assert_eq!(victim.rejected, u64::from(sheds));
    assert_eq!(victim_route.routed + victim_route.shed_queue_full, 64);
    assert!(victim.reconciles());

    let bystander_route = registry.route_stats("bystander").unwrap();
    let bystander = registry.model_snapshot("bystander").unwrap();
    assert_eq!(bystander_route.shed_queue_full, 0);
    assert_eq!(bystander.rejected, 0);
    assert_eq!(bystander.submitted, 10);
    assert_eq!(bystander.completed, 10);
    assert!(bystander.reconciles());

    // The labeled exposition carries both tenants under distinct labels.
    let prom = registry.to_prom_text(&[]);
    assert!(prom.contains("einet_tasks_submitted_total{model=\"victim\"}"));
    assert!(prom.contains("einet_tasks_submitted_total{model=\"bystander\"} 10"));
    assert!(prom.contains("einet_route_shed_total{model=\"bystander\"} 0"));
}

#[test]
fn prom_text_keeps_each_family_contiguous_across_models_and_ingest() {
    let mut registry = ModelRegistry::new();
    for (name, seed) in [("a", 11), ("b", 12)] {
        registry.register(
            name,
            tiny_net(seed),
            |_r, _w| full_plan_source(),
            ModelSpec::default(),
        );
    }
    for name in ["a", "b", "b"] {
        let reply = registry.submit(name, request()).unwrap();
        assert_eq!(reply.recv().unwrap().unwrap().status, TaskStatus::Completed);
    }
    let ingest = einet_edge::ServeMetrics::new();
    ingest.conn_opened();
    let ingest = ingest.snapshot();
    let text = registry.to_prom_text(&[(&[("scope", "ingest")], &ingest)]);

    // Each family is declared exactly once ...
    let mut types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    let declared = types.len();
    types.sort_unstable();
    types.dedup();
    assert_eq!(types.len(), declared, "a # TYPE line repeats:\n{text}");
    // ... and its samples (histogram series fold into their family) follow
    // in one group: a family never resumes after another one started.
    let mut seen: Vec<&str> = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let name = line.split(['{', ' ']).next().unwrap();
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix))
            .unwrap_or(name);
        if seen.last() != Some(&family) {
            assert!(!seen.contains(&family), "family {family} is split:\n{text}");
            seen.push(family);
        }
    }
    // Models first, in registration order, then the caller's block.
    let completed: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("einet_tasks_completed_total"))
        .collect();
    assert_eq!(
        completed,
        [
            "einet_tasks_completed_total{model=\"a\"} 1",
            "einet_tasks_completed_total{model=\"b\"} 2",
            "einet_tasks_completed_total{scope=\"ingest\"} 0",
        ]
    );
    assert!(text.contains("einet_server_open_connections{scope=\"ingest\"} 1\n"));
    // The registry's own families still close the exposition.
    assert!(text.contains("einet_route_requests_total{model=\"b\"} 2\n"));
    assert!(text.ends_with("einet_replicas{model=\"b\"} 1\n"));
}

#[test]
fn unknown_models_are_rejected_without_side_effects() {
    let mut registry = ModelRegistry::new();
    registry.register(
        "only",
        tiny_net(4),
        |_r, _w| full_plan_source(),
        ModelSpec::default(),
    );
    assert_eq!(
        registry.submit("nope", request()).unwrap_err(),
        RouteError::UnknownModel
    );
    assert_eq!(registry.model_snapshot("only").unwrap().submitted, 0);
    assert!(registry.route_stats("nope").is_none());
}

/// Spins until the model's queue is empty — i.e. every admitted task has
/// been pulled by a worker, which is then busy for its full service time.
fn wait_until_drained_into_service(registry: &ModelRegistry, model: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while registry.model_snapshot(model).unwrap().queue_depth > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never dequeued the parked task"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn start_server(registry: &Arc<ModelRegistry>) -> ReactorServer {
    ReactorServer::start(
        Arc::clone(registry),
        "127.0.0.1:0",
        ReactorConfig::default(),
    )
    .unwrap()
}

/// One line out, one line back.
fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &str,
) -> json::JsonValue {
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    json::parse(response.trim()).expect("response is one JSON object per line")
}

#[test]
fn tcp_round_trip_serves_responses_in_order() {
    let mut registry = ModelRegistry::new();
    registry.register(
        "alexnet",
        tiny_net(5),
        |_r, _w| full_plan_source(),
        ModelSpec {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 8,
                ..PoolConfig::default()
            },
            ..ModelSpec::default()
        },
    );
    let registry = Arc::new(registry);
    let server = start_server(&registry);

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // A well-formed request completes with a prediction.
    let ok = roundtrip(
        &mut reader,
        &mut writer,
        &format!(
            r#"{{"id": 7, "model": "alexnet", "label": 3, "input": {{"shape": [1, 1, {SIDE}, {SIDE}], "fill": 0.5}}}}"#
        ),
    );
    assert_eq!(ok.get("id").unwrap().as_u64(), Some(7));
    assert_eq!(ok.get("code").unwrap().as_u64(), Some(200));
    assert_eq!(ok.get("status").unwrap().as_str(), Some("completed"));
    assert!(ok.get("prediction").unwrap().as_u64().is_some());
    assert!(ok.get("correct").is_some(), "label in, accuracy bit out");

    // Unknown model → 404 on the same connection, which stays usable.
    let missing = roundtrip(
        &mut reader,
        &mut writer,
        r#"{"id": 8, "model": "ghost", "input": {"shape": [1, 1, 4, 4], "fill": 0}}"#,
    );
    assert_eq!(missing.get("code").unwrap().as_u64(), Some(404));

    // Garbage → 400 with the salvaged id.
    let bad = roundtrip(&mut reader, &mut writer, r#"{"id": 9, "model": 42}"#);
    assert_eq!(bad.get("id").unwrap().as_u64(), Some(9));
    assert_eq!(bad.get("code").unwrap().as_u64(), Some(400));

    // And the connection still serves real work afterwards.
    let again = roundtrip(
        &mut reader,
        &mut writer,
        &format!(
            r#"{{"id": 10, "model": "alexnet", "input": {{"shape": [1, 1, {SIDE}, {SIDE}], "fill": 0.1}}}}"#
        ),
    );
    assert_eq!(again.get("code").unwrap().as_u64(), Some(200));

    server.shutdown();
    let snap = registry.model_snapshot("alexnet").unwrap();
    assert_eq!(snap.completed, 2);
    assert!(snap.reconciles());
}

#[test]
fn tcp_surfaces_queue_full_sheds_as_429_responses() {
    let mut registry = ModelRegistry::new();
    // One slow worker and a 1-deep queue: easy to saturate deterministically.
    registry.register(
        "narrow",
        tiny_net(6),
        |_r, _w| full_plan_source(),
        ModelSpec {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 1,
                block_delay: Duration::from_millis(60),
                ..PoolConfig::default()
            },
            ..ModelSpec::default()
        },
    );
    let registry = Arc::new(registry);
    let server = start_server(&registry);

    // Connect first so only the write → submit window races against the
    // (~180ms) service time.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Deterministic saturation: park one task, wait until the worker has
    // pulled it (and is busy for the full ~180ms service), then fill the
    // 1-deep queue behind it. Shedding is now guaranteed for the window.
    let mut parked = vec![registry.submit("narrow", request()).unwrap()];
    wait_until_drained_into_service(&registry, "narrow");
    parked.push(registry.submit("narrow", request()).unwrap());
    assert_eq!(
        registry.submit("narrow", request()).unwrap_err(),
        RouteError::Shed,
        "queue is full from here on"
    );
    let shed = roundtrip(
        &mut reader,
        &mut writer,
        &format!(
            r#"{{"id": 1, "model": "narrow", "input": {{"shape": [1, 1, {SIDE}, {SIDE}], "fill": 0}}}}"#
        ),
    );
    assert_eq!(
        shed.get("code").unwrap().as_u64(),
        Some(429),
        "explicit shed, not an error"
    );
    assert_eq!(shed.get("status").unwrap().as_str(), Some("shed"));
    assert_eq!(shed.get("reason").unwrap().as_str(), Some("queue_full"));

    for rx in parked {
        let _ = rx.recv();
    }
    server.shutdown();
}

#[test]
fn tcp_delivers_expired_in_queue_sheds_distinctly() {
    let mut registry = ModelRegistry::new();
    registry.register(
        "deadline",
        tiny_net(7),
        |_r, _w| full_plan_source(),
        ModelSpec {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 8,
                block_delay: Duration::from_millis(40),
                ..PoolConfig::default()
            },
            ..ModelSpec::default()
        },
    );
    let registry = Arc::new(registry);
    let server = start_server(&registry);

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Park one long task and wait until the worker is actually servicing
    // it (~120ms), so the deadline request below queues behind it and its
    // 1ms deadline expires while waiting.
    let busy = registry.submit("deadline", request()).unwrap();
    wait_until_drained_into_service(&registry, "deadline");
    let shed = roundtrip(
        &mut reader,
        &mut writer,
        &format!(
            r#"{{"id": 2, "model": "deadline", "deadline_ms": 1, "input": {{"shape": [1, 1, {SIDE}, {SIDE}], "fill": 0}}}}"#
        ),
    );
    assert_eq!(shed.get("code").unwrap().as_u64(), Some(429));
    assert_eq!(
        shed.get("reason").unwrap().as_str(),
        Some("expired_in_queue")
    );

    assert_eq!(busy.recv().unwrap().unwrap().status, TaskStatus::Completed);
    server.shutdown();
    let snap = registry.model_snapshot("deadline").unwrap();
    assert_eq!(snap.shed_expired_at_dequeue, 1);
    assert!(snap.reconciles());
}
