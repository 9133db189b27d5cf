//! Registry-driven replica scaling: manual grow/shrink keeps routing and
//! metrics reconciliation exact, and the [`ReplicaScaler`] control loop
//! demonstrably adds replicas under bursty load and shrinks back when the
//! burst passes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use einet_core::ExitPlan;
use einet_edge::{InferenceRequest, PoolConfig, StaticSource};
use einet_models::{zoo, BranchSpec};
use einet_server::{ModelRegistry, ModelSpec, ReplicaScaler, ScalerConfig};
use einet_tensor::Tensor;

fn registry_with(pool: PoolConfig) -> Arc<ModelRegistry> {
    let mut registry = ModelRegistry::new();
    let net = zoo::b_alexnet([1, 16, 16], 10, &BranchSpec::paper_default(), 1);
    registry.register(
        "m",
        net,
        |_replica, _worker| Box::new(StaticSource::new(ExitPlan::full(3))),
        ModelSpec {
            replicas: 1,
            pool,
            ..ModelSpec::default()
        },
    );
    Arc::new(registry)
}

fn request() -> InferenceRequest {
    InferenceRequest::new(Tensor::zeros(&[1, 1, 16, 16]))
}

fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for: {what}");
}

#[test]
fn manual_scaling_keeps_routing_and_reconciliation_exact() {
    let registry = registry_with(PoolConfig {
        workers: 1,
        queue_capacity: 16,
        ..PoolConfig::default()
    });
    assert_eq!(registry.replica_count("m"), Some(1));

    // Serve a little on one replica.
    for _ in 0..4 {
        let reply = registry.submit("m", request()).expect("routed");
        assert!(reply.recv().expect("answer").expect("ok").is_complete());
    }

    // Grow twice; routing spreads over the new replicas transparently.
    assert_eq!(registry.scale_up("m"), Some(2));
    assert_eq!(registry.scale_up("m"), Some(3));
    assert_eq!(registry.replica_count("m"), Some(3));
    for _ in 0..9 {
        let reply = registry.submit("m", request()).expect("routed");
        assert!(reply.recv().expect("answer").expect("ok").is_complete());
    }

    // Shrink back down to one. Work done by retired replicas must stay
    // visible in the merged model snapshot (exact reconciliation).
    assert_eq!(registry.scale_down("m"), Some(2));
    assert_eq!(registry.scale_down("m"), Some(1));
    assert_eq!(registry.scale_down("m"), None, "never below one replica");
    let stats = registry.route_stats("m").expect("stats");
    assert_eq!(stats.scale_ups, 2);
    assert_eq!(stats.scale_downs, 2);
    assert_eq!(stats.routed, 13);
    let snap = registry.model_snapshot("m").expect("snapshot");
    assert_eq!(snap.completed, 13, "retired replicas' work is not lost");
    assert!(snap.reconciles(), "merged accounting stays exact");

    // Prometheus exposition reflects the scale events and live set.
    let prom = registry.to_prom_text(&[]);
    assert!(prom.contains("einet_scale_up_total{model=\"m\"} 2"));
    assert!(prom.contains("einet_scale_down_total{model=\"m\"} 2"));
    assert!(prom.contains("einet_replicas{model=\"m\"} 1"));

    let registry = Arc::try_unwrap(registry).expect("sole owner");
    registry.shutdown();
}

#[test]
fn scaler_grows_under_burst_and_shrinks_back_when_calm() {
    // One deliberately slow worker (per-block delay) so a burst piles up
    // in the admission queue — the scaler's leading indicator.
    let registry = registry_with(PoolConfig {
        workers: 1,
        queue_capacity: 64,
        block_delay: Duration::from_millis(4),
        ..PoolConfig::default()
    });
    let scaler = ReplicaScaler::spawn(
        Arc::clone(&registry),
        ScalerConfig {
            min_replicas: 1,
            max_replicas: 3,
            queue_depth_high: 4,
            breaches_to_scale: 2,
            idle_ticks_to_shrink: 3,
            cooldown: Duration::from_millis(50),
            tick: Duration::from_millis(20),
            ..ScalerConfig::default()
        },
    );

    // Burst: flood the queue faster than one slow worker drains it,
    // topping it back up until the scaler reacts.
    let mut replies = Vec::new();
    wait_until(
        "scaler grows the replica set",
        Duration::from_secs(20),
        || {
            let depth = registry
                .model_snapshot("m")
                .map(|s| s.queue_depth)
                .unwrap_or(0);
            if depth < 16 {
                for _ in 0..16 {
                    if let Ok(r) = registry.submit("m", request()) {
                        replies.push(r);
                    }
                }
            }
            registry.replica_count("m") > Some(1)
        },
    );
    let grown = registry.replica_count("m").expect("model exists");
    assert!(grown > 1, "burst must add replicas, got {grown}");
    assert!(registry.route_stats("m").expect("stats").scale_ups >= 1);

    // Let the burst finish, then stop sending entirely: sustained calm
    // (empty queue, healthy SLO) must shrink the set back to the floor.
    for r in replies {
        let _ = r.recv();
    }
    wait_until(
        "scaler shrinks back to one replica",
        Duration::from_secs(20),
        || registry.replica_count("m") == Some(1),
    );
    assert!(registry.route_stats("m").expect("stats").scale_downs >= 1);
    let snap = registry.model_snapshot("m").expect("snapshot");
    assert!(snap.reconciles(), "scaling never breaks accounting");

    scaler.stop();
    let registry = Arc::try_unwrap(registry).expect("sole owner");
    registry.shutdown();
}
