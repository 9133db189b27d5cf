//! The traced ladder: where a request's time goes, measured from outside.
//!
//! Each request line is replayed at concurrency 1 down a ladder of rungs,
//! each rung entering the stack one layer lower through that layer's public
//! functions: the TCP round trip through the reactor, `ModelRegistry::
//! submit`, `ExecutorPool::submit`, `ElasticExecutor::submit`, and finally
//! the blocks, branches and planner calls the request executed, one by one.
//! Every call is one in-memory span; a rung's span is the child of the rung
//! above it, so a layer's self time is its span minus its child — the part
//! of the interval the layer beneath does not account for.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use einet_core::{ExitPlan, ExpectationCache, PlanContext, PlannerDecision, TimeDistribution};
use einet_edge::{
    ElasticExecutor, ExecutorPool, InferenceRequest, PlannerSource, PreemptionGate, TaskOutcome,
};
use einet_models::MultiExitNet;
use einet_predictor::ActivationCache;
use einet_profile::{measure_distribution, EtProfile};
use einet_server::wire;
use einet_tensor::{mm_into, softmax_rows, Layer, Mode, Tensor};
use einet_trace::json::JsonWriter;

use crate::affinity::spawning_on;
use crate::client::Conn;
use crate::judge::{judge_reply, Verdict};
use crate::setup::{PlannerParts, Prepared, Serving};
use crate::stats::{median, percentile, sorted};
use crate::workload::Request;

/// Request lines replayed down the ladder.
const LADDER_REQUESTS: usize = 500;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The crate the call enters.
    pub layer: &'static str,
    /// Start, µs since the tracer's epoch.
    pub start_us: f64,
    /// End, µs since the tracer's epoch.
    pub end_us: f64,
    /// Index of the span one rung up, whose interval this call explains.
    pub parent: Option<usize>,
    /// Wire id of the request replayed.
    pub request: u64,
}

/// In-memory span recorder; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as one span; returns its result, the span's index and its
    /// duration in ms.
    fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize, f64) {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            layer,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
            parent,
            request,
        });
        (out, self.spans.len() - 1, (end - start).as_secs_f64() * 1e3)
    }

    /// Writes one JSON object per span.
    fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("span");
            w.number_u64(index as u64);
            w.key("name");
            w.string(span.name);
            w.key("layer");
            w.string(span.layer);
            w.key("start_us");
            w.number_f64(span.start_us);
            w.key("end_us");
            w.number_f64(span.end_us);
            w.key("parent");
            match span.parent {
                Some(p) => w.number_u64(p as u64),
                None => w.null(),
            }
            w.key("request");
            w.number_u64(span.request);
            w.end_object();
            writeln!(out, "{}", w.finish())?;
        }
        out.flush()
    }
}

/// One rung's self time.
#[derive(Debug, Clone, PartialEq)]
pub struct RungSelf {
    /// Rung name.
    pub name: &'static str,
    /// Rung minus the rung beneath it, ms.
    pub self_ms: f64,
    /// `self_ms` over the top rung.
    pub share: f64,
}

/// Self times of a ladder given top-down as `(name, ms)`: each rung minus
/// the rung beneath it, the bottom rung whole. Shares are of the top rung
/// and sum to 1.
pub fn self_times(rungs: &[(&'static str, f64)]) -> Vec<RungSelf> {
    let top = rungs.first().map_or(1.0, |r| r.1);
    rungs
        .iter()
        .enumerate()
        .map(|(i, &(name, ms))| {
            let self_ms = ms - rungs.get(i + 1).map_or(0.0, |below| below.1);
            RungSelf {
                name,
                self_ms,
                share: self_ms / top,
            }
        })
        .collect()
}

/// What one request's compute replay cost, by layer.
#[derive(Debug, Clone, Copy, Default)]
struct ReplayCost {
    models_ms: f64,
    predictor_ms: f64,
    core_ms: f64,
    predictor_calls: usize,
    planner_calls: usize,
    flops: u64,
}

/// Replays the blocks, branches and planner calls a finished task executed,
/// timing each call into `models`, `predictor` and `core` directly.
struct Replayer {
    net: MultiExitNet,
    flops: Vec<(u64, u64)>,
    et: EtProfile,
    dist: TimeDistribution,
    planner: PlannerParts,
    source: Box<dyn PlannerSource>,
    search_cache: ExpectationCache,
    /// Per-call µs of the cached variants the serving path does not use
    /// yet: `ActivationCache::update` and `SearchEngine::search_cached`.
    shadow_update_us: Vec<f64>,
    shadow_search_cached_us: Vec<f64>,
    /// Outputs or plans that disagreed with the executor's outcome.
    divergences: usize,
}

impl Replayer {
    fn new(prepared: &Prepared) -> Self {
        let pool = prepared.pool_config();
        Replayer {
            flops: prepared.net.block_flops(),
            et: EtProfile::from_cost_model(&prepared.net, pool.platform),
            dist: pool.dist,
            net: prepared.net.clone(),
            planner: prepared.planner.clone(),
            source: prepared.planner.source(),
            search_cache: ExpectationCache::new(),
            shadow_update_us: Vec::new(),
            shadow_search_cached_us: Vec::new(),
            divergences: 0,
        }
    }

    fn replay(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        request: u64,
        input: &Tensor,
        outcome: &TaskOutcome,
    ) -> ReplayCost {
        let mut cost = ReplayCost::default();
        if outcome.blocks_run == 0 && !outcome.is_complete() {
            // Killed on arrival: the executor never planned or computed.
            return cost;
        }
        let n = self.net.num_exits();
        let mut executed: Vec<Option<f32>> = vec![None; n];
        let mut history = ExitPlan::empty(n);
        let mut activations = match &self.planner {
            PlannerParts::Einet { predictor, .. } => Some(ActivationCache::new(predictor)),
            _ => None,
        };
        let mut planner = self.source.make();
        let mut outputs = outcome.outputs.iter().peekable();
        let mut x = input.clone();
        let mut newest: Option<(usize, f32)> = None;
        for i in 0..=outcome.blocks_run.min(n) {
            // Plan before block `i`: the initial plan, or the replan that
            // followed the output of block `i - 1`.
            if i == 0 || newest.is_some() {
                let ctx = PlanContext {
                    et: &self.et,
                    dist: &self.dist,
                    executed: &executed,
                    history: &history,
                    next_exit: i,
                };
                cost.planner_calls += 1;
                let plan = if let PlannerParts::Einet {
                    predictor,
                    prior,
                    engine,
                } = &self.planner
                {
                    let confidences = match newest.take() {
                        None => prior.clone(),
                        Some((exit, confidence)) => {
                            let (c, _, ms) = tracer.time(
                                "CsPredictor::predict_masked",
                                "predictor",
                                Some(parent),
                                request,
                                || predictor.predict_masked(&executed),
                            );
                            cost.predictor_ms += ms;
                            cost.predictor_calls += 1;
                            let cache = activations.as_mut().expect("einet has a cache");
                            let t = Instant::now();
                            std::hint::black_box(cache.update(predictor, exit, confidence));
                            self.shadow_update_us.push(t.elapsed().as_secs_f64() * 1e6);
                            c
                        }
                    };
                    let ((plan, _), _, ms) = tracer.time(
                        "SearchEngine::search",
                        "core",
                        Some(parent),
                        request,
                        || engine.search(ctx.et, ctx.dist, &confidences, i, Some(ctx.history)),
                    );
                    cost.core_ms += ms;
                    let t = Instant::now();
                    let cached = engine.search_cached(
                        ctx.et,
                        ctx.dist,
                        &confidences,
                        i,
                        Some(ctx.history),
                        &mut self.search_cache,
                    );
                    self.shadow_search_cached_us
                        .push(t.elapsed().as_secs_f64() * 1e6);
                    self.divergences += usize::from(cached.0 != plan);
                    Some(plan)
                } else {
                    newest = None;
                    let (decision, _, ms) =
                        tracer.time("Planner::plan", "core", Some(parent), request, || {
                            planner.plan(&ctx)
                        });
                    cost.core_ms += ms;
                    match decision {
                        PlannerDecision::Plan(plan) => Some(plan),
                        PlannerDecision::Stop => None,
                    }
                };
                // Every exit the executor went on to run must be in the
                // plan replayed here, or the replay times the wrong work.
                let next_output = outputs.peek().map(|o| o.exit);
                let agrees = match (&plan, next_output) {
                    (Some(plan), Some(exit)) => plan.get(exit),
                    (None, Some(_)) => false,
                    (_, None) => true,
                };
                self.divergences += usize::from(!agrees);
                if plan.is_none() {
                    break;
                }
            }
            if i == outcome.blocks_run.min(n) {
                break;
            }
            let (next, _, ms) =
                tracer.time("Block::conv_part", "models", Some(parent), request, || {
                    self.net.blocks_mut()[i].conv_part.forward(&x, Mode::Eval)
                });
            x = next;
            cost.models_ms += ms;
            cost.flops += self.flops[i].0;
            let Some(expected) = outputs.next_if(|o| o.exit == i) else {
                continue;
            };
            let ((predicted, confidence), _, ms) =
                tracer.time("Block::branch", "models", Some(parent), request, || {
                    let logits = self.net.blocks_mut()[i].branch.forward(&x, Mode::Eval);
                    let probs = softmax_rows(&logits);
                    let predicted = probs.row_argmax(0);
                    (predicted, probs.at2(0, predicted))
                });
            cost.models_ms += ms;
            cost.flops += self.flops[i].1;
            self.divergences += usize::from(predicted != expected.predicted);
            executed[i] = Some(confidence);
            history.set(i, true);
            if i + 1 < n {
                newest = Some((i, confidence));
            }
        }
        cost
    }
}

/// Per-layer metrics, in reporting order: `(name, unit, value)`.
pub type LayerMetrics = Vec<(&'static str, &'static str, f64)>;

/// What the ladder run hands back.
pub struct LadderReport {
    /// The per-layer metrics the ladder measures.
    pub metrics: LayerMetrics,
    /// Self time and share of every rung, top-down.
    pub rungs: Vec<RungSelf>,
    /// Median TCP round trip with spans being recorded, ms.
    pub traced_round_trip_ms: f64,
    /// Replies judged (one per replayed line).
    pub attempted: usize,
    /// Replies that failed their check.
    pub failed: usize,
    /// Violated checks, as text.
    pub violations: Vec<String>,
}

fn task_outcome(result: Result<einet_edge::TaskResult, std::sync::mpsc::RecvError>) -> TaskOutcome {
    result
        .expect("worker replies")
        .expect("no task panics on benchmark inputs")
}

/// Runs the ladder over `requests` and the layer micro-measurements, and
/// writes the spans to `trace_path`.
///
/// # Errors
///
/// Propagates connection and trace-file failures.
pub fn run(
    prepared: &Prepared,
    serving: &Serving,
    requests: impl Iterator<Item = Request>,
    trace_path: &Path,
) -> io::Result<LadderReport> {
    let workload = prepared.workload;
    let kills_expected = workload.kills_expected();
    let mut tracer = Tracer::new();
    let mut conn = Conn::connect(serving.addr())?;
    let registry = Arc::clone(&serving.registry);
    let planner = prepared.planner.clone();
    // The lower rungs' workers live where the served pool's worker lives.
    let (pool, executor) = spawning_on(workload.worker_cpu, || {
        let pool = ExecutorPool::spawn(
            prepared.net.clone(),
            move |_worker| planner.source(),
            PreemptionGate::new(),
            prepared.pool_config(),
        );
        let executor = ElasticExecutor::spawn(
            prepared.net.clone(),
            prepared.planner.source(),
            PreemptionGate::new(),
        );
        (pool, executor)
    });
    let mut replayer = Replayer::new(prepared);

    // Per-request ms of every rung and call, for the medians below.
    let mut tcp = Vec::new();
    let mut parse = Vec::new();
    let mut registry_ms = Vec::new();
    let mut render = Vec::new();
    let mut pool_ms = Vec::new();
    let mut executor_ms = Vec::new();
    let mut costs: Vec<ReplayCost> = Vec::new();
    let (mut failed, mut violations) = (0usize, Vec::new());

    let parsed = |line: &str| wire::parse_request(line).expect("generated lines parse");
    for request in requests.take(LADDER_REQUESTS) {
        let (id, line) = (request.id, request.line.trim_end());
        let (reply, tcp_span, ms) = tracer.time("tcp round trip", "server", None, id, || {
            conn.round_trip(&request.line)
        });
        tcp.push(ms);
        match reply {
            Ok(reply) => {
                let (verdict, violation) = judge_reply(
                    &reply,
                    request.deadline_ms.is_some(),
                    kills_expected,
                    &prepared.refs[request.sample],
                    prepared.wires[request.sample].label,
                );
                failed += usize::from(verdict == Verdict::Failed);
                violations.extend(violation);
            }
            Err(e) => {
                failed += 1;
                violations.push(format!("id {id}: {e}"));
            }
        }

        let (wire_request, _, ms) =
            tracer.time("wire::parse_request", "server", Some(tcp_span), id, || {
                parsed(line)
            });
        parse.push(ms);
        let (outcome, registry_span, ms) = tracer.time(
            "ModelRegistry::submit",
            "server",
            Some(tcp_span),
            id,
            || {
                let reply = registry
                    .submit(&wire_request.model, wire_request.request)
                    .expect("an idle registry admits");
                task_outcome(reply.recv())
            },
        );
        registry_ms.push(ms);
        let (_, _, ms) = tracer.time("wire::render_outcome", "server", Some(tcp_span), id, || {
            std::hint::black_box(wire::render_outcome(id, &outcome, 0))
        });
        render.push(ms);

        let pool_request = parsed(line).request;
        let (_, pool_span, ms) = tracer.time(
            "ExecutorPool::submit",
            "edge",
            Some(registry_span),
            id,
            || {
                task_outcome(
                    pool.submit(pool_request)
                        .expect("an idle pool admits")
                        .recv(),
                )
            },
        );
        pool_ms.push(ms);

        let solo_request: InferenceRequest = parsed(line).request;
        let (outcome, executor_span, ms) = tracer.time(
            "ElasticExecutor::submit",
            "edge",
            Some(pool_span),
            id,
            || {
                executor
                    .submit(solo_request)
                    .expect("executor alive")
                    .recv()
                    .expect("executor replies")
            },
        );
        executor_ms.push(ms);

        costs.push(replayer.replay(
            &mut tracer,
            executor_span,
            id,
            &prepared.inputs[request.sample],
            &outcome,
        ));
    }
    pool.shutdown();
    executor.shutdown();
    tracer.write_jsonl(trace_path)?;
    if replayer.divergences > 0 {
        violations.push(format!(
            "{} replayed outputs or plans disagree with the executor",
            replayer.divergences
        ));
    }

    let attempted = tcp.len();
    let per_request = |f: fn(&ReplayCost) -> f64| median(costs.iter().map(f).collect());
    let mean = |f: fn(&ReplayCost) -> f64| costs.iter().map(f).sum::<f64>() / attempted as f64;
    let calls_us = |total_ms: f64, calls: f64| {
        if calls == 0.0 {
            0.0
        } else {
            total_ms * 1e3 / calls
        }
    };
    let (models, predictor, core) = (
        per_request(|c| c.models_ms),
        per_request(|c| c.predictor_ms),
        per_request(|c| c.core_ms),
    );
    let (tcp, parse, render) = (median(tcp), median(parse), median(render));
    let registry_ms = median(registry_ms);
    let rungs = self_times(&[
        ("server (reactor)", tcp),
        ("server (wire parse + render)", parse + render + registry_ms),
        ("server (registry route)", registry_ms),
        ("edge (pool)", median(pool_ms)),
        ("edge (executor)", median(executor_ms)),
        ("core (planner)", models + predictor + core),
        ("predictor", models + predictor),
        ("models + tensor", models),
    ]);
    let self_of = |i: usize| rungs[i].self_ms;
    let compute_share: f64 = rungs[5..].iter().map(|r| r.share).sum();
    let frontend_share: f64 = rungs[..3].iter().map(|r| r.share).sum();

    let mut metrics: LayerMetrics = vec![
        ("tensor.gemm_gflops", "GFLOP/s", gemm_gflops()),
        ("tensor.flops_per_req", "count", mean(|c| c.flops as f64)),
        ("models.forward_ms", "ms", models),
    ];
    metrics.extend(model_metrics(prepared));
    metrics.extend([
        (
            "predictor.predict_us",
            "us",
            calls_us(mean(|c| c.predictor_ms), mean(|c| c.predictor_calls as f64)),
        ),
        (
            "predictor.update_us",
            "us",
            mean_or_zero(&replayer.shadow_update_us),
        ),
        (
            "predictor.calls_per_req",
            "count",
            mean(|c| c.predictor_calls as f64),
        ),
        (
            "core.search_us",
            "us",
            calls_us(mean(|c| c.core_ms), mean(|c| c.planner_calls as f64)),
        ),
        (
            "core.search_cached_us",
            "us",
            mean_or_zero(&replayer.shadow_search_cached_us),
        ),
        (
            "core.replans_per_req",
            "count",
            mean(|c| c.planner_calls as f64),
        ),
        (
            "core.cache_hit_rate",
            "ratio",
            replayer.search_cache.stats().hit_rate(),
        ),
        ("edge.executor_self_ms", "ms", self_of(4)),
        ("edge.pool_self_ms", "ms", self_of(3)),
        ("server.parse_us", "us", parse * 1e3),
        ("server.render_us", "us", render * 1e3),
        ("server.route_us", "us", self_of(2) * 1e3),
        ("server.reactor_self_ms", "ms", self_of(0)),
        ("ladder.round_trip_ms", "ms", tcp),
        ("ladder.compute_share", "ratio", compute_share),
        ("ladder.frontend_share", "ratio", frontend_share),
    ]);
    Ok(LadderReport {
        metrics,
        rungs,
        traced_round_trip_ms: tcp,
        attempted,
        failed,
        violations,
    })
}

fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// GEMM throughput at three shapes `(m, k, n)` taken from the zoo's
/// convolutions as im2col products (`out_c × in_c·9 × oh·ow`): b_alexnet's
/// first conv, a mid vgg16_fine conv, a mid msdnet40 dense conv. Total
/// FLOPs over total time.
fn gemm_gflops() -> f64 {
    const SHAPES: [(usize, usize, usize); 3] = [(12, 27, 256), (24, 216, 16), (3, 180, 64)];
    const REPS: usize = 2000;
    let (mut flops, mut seconds) = (0.0, 0.0);
    for (m, k, n) in SHAPES {
        let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 * 0.1).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.2).collect();
        let mut c = vec![0.0_f32; m * n];
        let t = Instant::now();
        for _ in 0..REPS {
            mm_into(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                &mut c,
                m,
                k,
                n,
            );
            std::hint::black_box(&mut c);
        }
        seconds += t.elapsed().as_secs_f64();
        flops += (2 * m * k * n * REPS) as f64;
    }
    flops / seconds / 1e9
}

/// Block times and their per-sample spread (Fig. 4 on this host), and what
/// a stacked forward gains per sample over a solo one.
fn model_metrics(prepared: &Prepared) -> LayerMetrics {
    const SPREAD_SAMPLES: usize = 64;
    const GAIN_REPS: usize = 20;
    let mut net = prepared.net.clone();
    let samples: Vec<&Tensor> = prepared.inputs.iter().take(SPREAD_SAMPLES).collect();
    let stacked = Tensor::stack_batch(&samples);
    // One pass to warm caches, one measured.
    measure_distribution(&mut net, &stacked);
    let per_block = measure_distribution(&mut net, &stacked);
    let (mut p50_sum, mut p95_sum) = (0.0, 0.0);
    for times in per_block {
        let times = sorted(times);
        p50_sum += percentile(&times, 0.50);
        p95_sum += percentile(&times, 0.95);
    }

    let full = vec![true; net.num_exits()];
    let mut timed = |batch: usize| {
        let input = Tensor::stack_batch(&samples[..batch]);
        let runs = (0..GAIN_REPS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(net.forward_plan_batch(&input, &full));
                t.elapsed().as_secs_f64() * 1e3 / batch as f64
            })
            .collect();
        median(runs)
    };
    let solo = timed(1);
    vec![
        ("models.block_ms_sum", "ms", p50_sum),
        ("models.block_p95_width", "ratio", p95_sum / p50_sum - 1.0),
        ("models.batch_gain_b2", "ratio", solo / timed(2)),
        ("models.batch_gain_b4", "ratio", solo / timed(4)),
        ("models.batch_gain_b8", "ratio", solo / timed(8)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_rung_minus_child_and_shares_sum_to_one() {
        let rungs = self_times(&[
            ("tcp", 2.0),
            ("registry", 1.7),
            ("pool", 1.6),
            ("executor", 1.5),
            ("compute", 1.2),
        ]);
        let selfs: Vec<f64> = rungs.iter().map(|r| r.self_ms).collect();
        for (got, want) in selfs.iter().zip([0.3, 0.1, 0.1, 0.3, 1.2]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        assert!((rungs[4].share - 0.6).abs() < 1e-12);
        let total: f64 = rungs.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        // A noisy rung beneath a thin layer may come out slower than the
        // rung above it: the self time goes negative, the sum still holds.
        let noisy = self_times(&[("a", 1.0), ("b", 1.02), ("c", 0.5)]);
        assert!(noisy[0].self_ms < 0.0);
        let total: f64 = noisy.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spans_round_trip_through_jsonl() {
        let mut tracer = Tracer::new();
        let (_, top, _) = tracer.time("tcp round trip", "server", None, 7, || ());
        tracer.time("ModelRegistry::submit", "server", Some(top), 7, || ());
        let path = std::env::temp_dir().join(format!("einet-ladder-{}.jsonl", std::process::id()));
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = einet_trace::json::parse(lines[1]).unwrap();
        assert_eq!(child.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(child.get("layer").unwrap().as_str(), Some("server"));
        assert_eq!(child.get("request").unwrap().as_u64(), Some(7));
        let root = einet_trace::json::parse(lines[0]).unwrap();
        assert_eq!(
            root.get("parent"),
            Some(&einet_trace::json::JsonValue::Null)
        );
        assert!(root.get("end_us").unwrap().as_f64() >= root.get("start_us").unwrap().as_f64());
    }
}
