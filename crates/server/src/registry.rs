//! The model registry: named models, replicated pools, weighted routing,
//! and SLO-driven replica autoscaling.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use einet_edge::{
    CompletionFn, ExecutorPool, InferenceRequest, MetricsSnapshot, PlannerSource, PoolConfig,
    PreemptionGate, PromBlock, SubmitError, TaskResult,
};
use einet_models::MultiExitNet;
use einet_trace::{self as trace, Args, Category};

/// How a model is deployed: how many pool replicas, their relative routing
/// weights, and the per-pool sizing.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Independent [`ExecutorPool`]s for this model, each owning its own
    /// clone of the network (≥ 1).
    pub replicas: usize,
    /// Relative routing weight per replica. Empty means equal weights;
    /// otherwise the length must equal `replicas` and every weight must be
    /// positive. A weight-3 replica receives 3× the requests of a weight-1
    /// one, interleaved smoothly (never 3 in a row when avoidable).
    /// Replicas added later by the autoscaler always join with weight 1.
    pub weights: Vec<u32>,
    /// Sizing and cost-model configuration applied to every replica.
    pub pool: PoolConfig,
}

impl Default for ModelSpec {
    fn default() -> Self {
        ModelSpec {
            replicas: 1,
            weights: Vec::new(),
            pool: PoolConfig::default(),
        }
    }
}

/// Why the registry could not place a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No model with that name is registered (a 404, not a shed).
    UnknownModel,
    /// Every replica's admission queue is at capacity: the request is shed
    /// with backpressure — the 429-style signal the wire layer reports.
    Shed,
    /// The model's pools are shutting down.
    Closed,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownModel => write!(f, "unknown model"),
            RouteError::Shed => write!(f, "all replicas at capacity"),
            RouteError::Closed => write!(f, "model is shutting down"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Registry-level routing counters for one model. These count *logical*
/// requests, one per [`ModelRegistry::submit`] call — unlike the pool-level
/// `rejected` counter, which counts per-replica attempts and therefore
/// grows by more than one when a request spills over several full replicas
/// before being shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteStats {
    /// Requests accepted by some replica.
    pub routed: u64,
    /// Requests shed because every replica was at capacity.
    pub shed_queue_full: u64,
    /// Replicas added by [`ModelRegistry::scale_up`].
    pub scale_ups: u64,
    /// Replicas retired by [`ModelRegistry::scale_down`].
    pub scale_downs: u64,
}

/// The replicas of one model plus their routing schedule; swapped under a
/// write lock only when the autoscaler acts, read on every submit.
struct ReplicaSet {
    replicas: Vec<ExecutorPool>,
    gates: Vec<PreemptionGate>,
    weights: Vec<u32>,
    /// Smooth weighted-round-robin schedule over replica indices; the
    /// cursor walks it forever. Precomputed so the hot path is one
    /// `fetch_add` and an index.
    schedule: Vec<u32>,
}

type SourceFactory = Box<dyn FnMut(usize, usize) -> Box<dyn PlannerSource> + Send>;

struct ModelEntry {
    name: String,
    set: RwLock<ReplicaSet>,
    cursor: AtomicU64,
    routed: AtomicU64,
    shed_queue_full: AtomicU64,
    scale_ups: AtomicU64,
    scale_downs: AtomicU64,
    /// Total replicas ever spawned for this model: the next replica index
    /// handed to the source factory (so planner sources stay distinct
    /// across scale-up/scale-down cycles).
    spawned: AtomicU64,
    /// Final snapshots of retired replicas, folded in so model-level
    /// reconciliation stays exact across scale-downs.
    retired: Mutex<MetricsSnapshot>,
    /// The pristine network; every replica (initial or scaled-up) starts
    /// from its own clone.
    template: MultiExitNet,
    make_source: Mutex<SourceFactory>,
    pool_cfg: PoolConfig,
}

/// Named models, each backed by one or more [`ExecutorPool`] replicas, with
/// weighted round-robin routing, per-model metrics and runtime scaling. See
/// the crate docs for the full picture.
///
/// Registration is a build-time concern (`&mut self`); routing is
/// lock-free apart from a read lock on the replica set (`&self`), so the
/// registry is shared behind an `Arc` once serving starts. The replica set
/// only takes its write lock when [`ModelRegistry::scale_up`] /
/// [`ModelRegistry::scale_down`] swap the schedule.
pub struct ModelRegistry {
    models: Vec<ModelEntry>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry { models: Vec::new() }
    }

    /// Registers `net` under `name`, spawning `spec.replicas` pools, each
    /// with its own clone of the network and its own [`PreemptionGate`].
    /// `make_source` mints a planner source per `(replica, worker)`; it is
    /// kept for the lifetime of the registry so the autoscaler can mint
    /// sources for replicas added later.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name, zero replicas, a weight vector whose
    /// length differs from `replicas`, or a zero weight — all configuration
    /// bugs, not runtime conditions.
    pub fn register(
        &mut self,
        name: &str,
        net: MultiExitNet,
        mut make_source: impl FnMut(usize, usize) -> Box<dyn PlannerSource> + Send + 'static,
        spec: ModelSpec,
    ) {
        assert!(
            self.models.iter().all(|m| m.name != name),
            "model {name:?} is already registered"
        );
        assert!(spec.replicas >= 1, "a model needs at least one replica");
        let weights = if spec.weights.is_empty() {
            vec![1; spec.replicas]
        } else {
            assert_eq!(spec.weights.len(), spec.replicas, "one weight per replica");
            assert!(
                spec.weights.iter().all(|&w| w > 0),
                "weights must be positive"
            );
            spec.weights.clone()
        };
        let mut replicas = Vec::with_capacity(spec.replicas);
        let mut gates = Vec::with_capacity(spec.replicas);
        for r in 0..spec.replicas {
            let gate = PreemptionGate::new();
            // Every replica owns its own copy of the network
            // (`MultiExitNet: Clone` via `Layer::clone_box`).
            let pool = ExecutorPool::spawn(
                net.clone(),
                |w| make_source(r, w),
                gate.clone(),
                spec.pool.clone(),
            );
            replicas.push(pool);
            gates.push(gate);
        }
        self.models.push(ModelEntry {
            name: name.to_string(),
            set: RwLock::new(ReplicaSet {
                replicas,
                gates,
                schedule: smooth_wrr_schedule(&weights),
                weights,
            }),
            cursor: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            scale_ups: AtomicU64::new(0),
            scale_downs: AtomicU64::new(0),
            spawned: AtomicU64::new(spec.replicas as u64),
            retired: Mutex::new(MetricsSnapshot::default()),
            template: net,
            make_source: Mutex::new(Box::new(make_source)),
            pool_cfg: spec.pool,
        });
    }

    /// The registered model names, in registration order.
    pub fn model_names(&self) -> Vec<&str> {
        self.models.iter().map(|m| m.name.as_str()).collect()
    }

    /// Number of replicas behind `name` (`None` for an unknown model).
    pub fn replica_count(&self, name: &str) -> Option<usize> {
        Some(self.entry(name)?.set.read().expect("lock").replicas.len())
    }

    /// The preemption gate of one replica, for operators that emulate a
    /// high-priority claim on a specific device.
    pub fn gate(&self, name: &str, replica: usize) -> Option<PreemptionGate> {
        self.entry(name)?
            .set
            .read()
            .expect("lock")
            .gates
            .get(replica)
            .cloned()
    }

    fn entry(&self, name: &str) -> Option<&ModelEntry> {
        self.models.iter().find(|m| m.name == name)
    }

    /// [`ModelRegistry::submit_callback`] with a callback that sends on the
    /// returned channel, which yields the task's [`TaskResult`].
    ///
    /// # Errors
    ///
    /// The same routing errors as [`ModelRegistry::submit_callback`].
    pub fn submit(
        &self,
        name: &str,
        request: InferenceRequest,
    ) -> Result<Receiver<TaskResult>, RouteError> {
        let (tx, rx) = channel();
        // A vanished receiver is fine: the requester gave up.
        let reply = Box::new(move |result| drop(tx.send(result)));
        self.submit_callback(name, request, reply)
            .map(|_task_id| rx)
            .map_err(|(err, _reply)| err)
    }

    /// Routes `request` to a replica of `name`: the weighted-round-robin
    /// pick first, then spillover through the remaining replicas when it is
    /// full. The result is delivered through `on_complete` (invoked exactly
    /// once, on the worker thread that finishes the task), so no thread
    /// parks per request — the readiness-driven ingest path. Returns the
    /// pool-assigned task id.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnknownModel`] for an unregistered name;
    /// [`RouteError::Shed`] when every replica refused with `QueueFull`
    /// (the explicit 429-style outcome); [`RouteError::Closed`] when the
    /// pools are shutting down — each with the unused callback handed back
    /// so the caller can answer the requester directly.
    pub fn submit_callback(
        &self,
        name: &str,
        request: InferenceRequest,
        on_complete: CompletionFn,
    ) -> Result<u64, (RouteError, CompletionFn)> {
        let _route = trace::span_args(
            Category::Queue,
            "route",
            Args::one("trace", request.trace()),
        );
        let Some(entry) = self.entry(name) else {
            trivial_flow(request.trace());
            return Err((RouteError::UnknownModel, on_complete));
        };
        let set = entry.set.read().expect("lock");
        let slot = entry.cursor.fetch_add(1, Ordering::Relaxed) as usize % set.schedule.len();
        let first = set.schedule[slot] as usize;
        let n = set.replicas.len();
        let mut closed = false;
        let mut cb = on_complete;
        // The scheduled replica, then the others in ring order: a full
        // queue on one replica spills to its siblings before shedding.
        // Requests are cheap to clone (the tensor buffer is the payload and
        // spillover is the cold path).
        for offset in 0..n {
            let idx = (first + offset) % n;
            match set.replicas[idx].submit_with(request.clone(), cb) {
                Ok(task_id) => {
                    entry.routed.fetch_add(1, Ordering::Relaxed);
                    return Ok(task_id);
                }
                Err((SubmitError::QueueFull, c)) => cb = c,
                Err((SubmitError::WorkerGone, c)) => {
                    cb = c;
                    closed = true;
                }
            }
        }
        trivial_flow(request.trace());
        if closed {
            return Err((RouteError::Closed, cb));
        }
        entry.shed_queue_full.fetch_add(1, Ordering::Relaxed);
        trace::instant(Category::Queue, "route_shed", Args::none());
        Err((RouteError::Shed, cb))
    }

    /// Adds one replica to `name` (weight 1), cloning the pristine network
    /// and minting fresh planner sources. Returns the new replica count,
    /// `None` for an unknown model. The pool is spawned outside the write
    /// lock, so routing stalls only for the schedule swap.
    pub fn scale_up(&self, name: &str) -> Option<usize> {
        let entry = self.entry(name)?;
        let r = entry.spawned.fetch_add(1, Ordering::Relaxed) as usize;
        let gate = PreemptionGate::new();
        let pool = {
            let mut source = entry.make_source.lock().expect("lock");
            ExecutorPool::spawn(
                entry.template.clone(),
                |w| (source)(r, w),
                gate.clone(),
                entry.pool_cfg.clone(),
            )
        };
        let mut set = entry.set.write().expect("lock");
        set.replicas.push(pool);
        set.gates.push(gate);
        set.weights.push(1);
        set.schedule = smooth_wrr_schedule(&set.weights);
        let count = set.replicas.len();
        drop(set);
        entry.scale_ups.fetch_add(1, Ordering::Relaxed);
        trace::instant(
            Category::Queue,
            "scale_up",
            Args::one("replicas", count as u64),
        );
        Some(count)
    }

    /// Retires the last replica of `name`: removes it from routing, drains
    /// it (queued tasks still answer their requesters) and folds its final
    /// metrics into the model's retired accumulator so
    /// [`ModelRegistry::model_snapshot`] keeps reconciling. Returns the new
    /// replica count; `None` for an unknown model or when only one replica
    /// remains (a model never scales to zero).
    pub fn scale_down(&self, name: &str) -> Option<usize> {
        let entry = self.entry(name)?;
        let (pool, count) = {
            let mut set = entry.set.write().expect("lock");
            if set.replicas.len() <= 1 {
                return None;
            }
            let pool = set.replicas.pop().expect("non-empty");
            set.gates.pop();
            set.weights.pop();
            set.schedule = smooth_wrr_schedule(&set.weights);
            (pool, set.replicas.len())
        };
        // Drain outside the lock: routing continues on the survivors while
        // the retired pool finishes its queue.
        let final_snap = {
            let metrics = pool.metrics_handle();
            pool.shutdown();
            metrics.snapshot()
        };
        entry.retired.lock().expect("lock").merge(&final_snap);
        entry.scale_downs.fetch_add(1, Ordering::Relaxed);
        trace::instant(
            Category::Queue,
            "scale_down",
            Args::one("replicas", count as u64),
        );
        Some(count)
    }

    /// Registry-level routing counters for `name`.
    pub fn route_stats(&self, name: &str) -> Option<RouteStats> {
        self.entry(name).map(|m| RouteStats {
            routed: m.routed.load(Ordering::Relaxed),
            shed_queue_full: m.shed_queue_full.load(Ordering::Relaxed),
            scale_ups: m.scale_ups.load(Ordering::Relaxed),
            scale_downs: m.scale_downs.load(Ordering::Relaxed),
        })
    }

    /// The metrics snapshot of one replica of `name` — the unmerged view,
    /// for per-replica dashboards and routing-distribution checks.
    pub fn replica_snapshot(&self, name: &str, replica: usize) -> Option<MetricsSnapshot> {
        let entry = self.entry(name)?;
        let set = entry.set.read().expect("lock");
        Some(set.replicas.get(replica)?.metrics().snapshot())
    }

    /// The merged metrics snapshot of every replica of `name` — live ones
    /// plus the accumulated totals of replicas retired by the autoscaler
    /// (see [`MetricsSnapshot::merge`] for per-field semantics).
    pub fn model_snapshot(&self, name: &str) -> Option<MetricsSnapshot> {
        let entry = self.entry(name)?;
        let set = entry.set.read().expect("lock");
        let mut out = entry.retired.lock().expect("lock").clone();
        for p in &set.replicas {
            out.merge(&p.metrics().snapshot());
        }
        Some(out)
    }

    /// The merged snapshot across every model and replica — the fleet view.
    pub fn aggregate_snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for m in &self.models {
            if let Some(snap) = self.model_snapshot(&m.name) {
                out.merge(&snap);
            }
        }
        out
    }

    /// One Prometheus exposition for the whole registry: every serving
    /// series labeled `model="<name>"`, then `extra`'s blocks under their own
    /// labels (the ingest front-end's gauges, say) — family by family, so
    /// each family's samples stay contiguous under one header — plus
    /// registry-level routing, replica and scaling counters.
    pub fn to_prom_text(&self, extra: &[PromBlock<'_>]) -> String {
        use std::fmt::Write as _;
        let models: Vec<([(&str, &str); 1], MetricsSnapshot)> = self
            .models
            .iter()
            .map(|m| {
                let snap = self.model_snapshot(&m.name).expect("registered model");
                ([("model", m.name.as_str())], snap)
            })
            .collect();
        let mut blocks: Vec<PromBlock<'_>> = models.iter().map(|(l, s)| (&l[..], s)).collect();
        blocks.extend_from_slice(extra);
        let mut out = einet_edge::prom_text(&blocks);
        let mut counter = |name: &str, help: &str, value: &dyn Fn(&ModelEntry) -> u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for m in &self.models {
                let _ = writeln!(out, "{name}{{model=\"{}\"}} {}", m.name, value(m));
            }
        };
        counter(
            "einet_route_requests_total",
            "Logical requests accepted by some replica.",
            &|m| m.routed.load(Ordering::Relaxed),
        );
        counter(
            "einet_route_shed_total",
            "Logical requests shed with every replica at capacity.",
            &|m| m.shed_queue_full.load(Ordering::Relaxed),
        );
        counter(
            "einet_scale_up_total",
            "Replicas added by the autoscaler.",
            &|m| m.scale_ups.load(Ordering::Relaxed),
        );
        counter(
            "einet_scale_down_total",
            "Replicas retired by the autoscaler.",
            &|m| m.scale_downs.load(Ordering::Relaxed),
        );
        let _ = writeln!(out, "# HELP einet_replicas Live replicas behind the model.");
        let _ = writeln!(out, "# TYPE einet_replicas gauge");
        for m in &self.models {
            let _ = writeln!(
                out,
                "einet_replicas{{model=\"{}\"}} {}",
                m.name,
                m.set.read().expect("lock").replicas.len()
            );
        }
        out
    }

    /// Shuts every pool down: stops admissions, drains queued tasks (their
    /// replies still arrive) and joins every worker.
    pub fn shutdown(self) {
        for m in self.models {
            let set = m.set.into_inner().expect("lock");
            for pool in set.replicas {
                pool.shutdown();
            }
        }
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.model_names())
            .finish()
    }
}

/// A traced request that never reaches a pool still gets a server-side
/// flow — an immediate start/end pair under its global trace id — so the
/// distributed reconciler can join shed, unknown-model and closed
/// responses to a server flow just like served ones. Untraced requests
/// (trace 0) skip it, preserving the single-process flow set.
fn trivial_flow(trace: u64) {
    if trace != 0 {
        trace::flow_start(Category::Service, "task_flow", trace);
        trace::flow_end(Category::Service, "task_flow", trace);
    }
}

/// Smooth weighted round-robin: a schedule of `Σ weights` slots where
/// replica `i` appears `weights[i]` times, interleaved (the classic
/// nginx-style algorithm), so bursts to one replica are avoided even with
/// skewed weights.
fn smooth_wrr_schedule(weights: &[u32]) -> Vec<u32> {
    let total: i64 = weights.iter().map(|&w| i64::from(w)).sum();
    let mut credit = vec![0i64; weights.len()];
    let mut schedule = Vec::with_capacity(total as usize);
    for _ in 0..total {
        for (c, &w) in credit.iter_mut().zip(weights) {
            *c += i64::from(w);
        }
        let best = credit
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .expect("non-empty weights");
        credit[best] -= total;
        schedule.push(best as u32);
    }
    schedule
}

/// Autoscaler policy knobs. Defaults favour stability over reaction speed:
/// two consecutive breach observations before growing, a longer calm streak
/// before shrinking, and a cooldown after every action so the loop never
/// flaps on its own transient.
#[derive(Debug, Clone)]
pub struct ScalerConfig {
    /// Never shrink below this many replicas (≥ 1).
    pub min_replicas: usize,
    /// Never grow beyond this many replicas.
    pub max_replicas: usize,
    /// Scale up when windowed SLO attainment drops below this fraction.
    pub slo_target: f64,
    /// Deadline-carrying samples the window must hold before its
    /// attainment is trusted (avoids scaling on one early miss).
    pub min_window_samples: u64,
    /// Scale up when the merged queue depth exceeds this many tasks,
    /// regardless of SLO (queue delay is the leading indicator).
    pub queue_depth_high: u64,
    /// Consecutive overloaded ticks required before growing.
    pub breaches_to_scale: u32,
    /// Consecutive calm ticks (empty queue, healthy SLO) before shrinking.
    pub idle_ticks_to_shrink: u32,
    /// Minimum time between two scaling actions on the same model.
    pub cooldown: Duration,
    /// Evaluation period.
    pub tick: Duration,
}

impl Default for ScalerConfig {
    fn default() -> Self {
        ScalerConfig {
            min_replicas: 1,
            max_replicas: 4,
            slo_target: 0.9,
            min_window_samples: 8,
            queue_depth_high: 16,
            breaches_to_scale: 2,
            idle_ticks_to_shrink: 5,
            cooldown: Duration::from_millis(500),
            tick: Duration::from_millis(100),
        }
    }
}

/// Hysteresis state for one model.
struct ModelScalerState {
    up_breaches: u32,
    calm_ticks: u32,
    last_action: Instant,
}

/// A background control loop that grows and shrinks each model's replica
/// set from the rolling-window SLO-attainment and queue-depth gauges
/// [`einet_edge::ServeMetrics`] already exports.
///
/// Policy per tick and model: *overloaded* (windowed attainment below
/// target with enough samples, or queue depth above the high-water knob)
/// for [`ScalerConfig::breaches_to_scale`] consecutive ticks →
/// [`ModelRegistry::scale_up`]; *calm* (empty queue, healthy SLO) for
/// [`ScalerConfig::idle_ticks_to_shrink`] consecutive ticks →
/// [`ModelRegistry::scale_down`]. A cooldown separates any two actions on
/// the same model; bounds come from min/max replicas.
#[derive(Debug)]
pub struct ReplicaScaler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ReplicaScaler {
    /// Spawns the control loop over `registry`.
    pub fn spawn(registry: Arc<ModelRegistry>, cfg: ScalerConfig) -> ReplicaScaler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("einet-replica-scaler".to_string())
            .spawn(move || scaler_loop(&registry, &cfg, &stop_flag))
            .expect("spawn replica scaler");
        ReplicaScaler {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the loop and joins it.
    pub fn stop(mut self) {
        self.stop_in_place();
    }

    fn stop_in_place(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicaScaler {
    fn drop(&mut self) {
        self.stop_in_place();
    }
}

fn scaler_loop(registry: &ModelRegistry, cfg: &ScalerConfig, stop: &AtomicBool) {
    let names: Vec<String> = registry
        .model_names()
        .into_iter()
        .map(String::from)
        .collect();
    let mut states: Vec<ModelScalerState> = names
        .iter()
        .map(|_| ModelScalerState {
            up_breaches: 0,
            calm_ticks: 0,
            // Allow an immediate first action once hysteresis is satisfied.
            last_action: Instant::now() - cfg.cooldown,
        })
        .collect();
    while !stop.load(Ordering::Relaxed) {
        // Sleep in small slices so stop() never waits a full tick.
        let wake = Instant::now() + cfg.tick;
        while Instant::now() < wake && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(5).min(cfg.tick));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        for (name, state) in names.iter().zip(states.iter_mut()) {
            let Some(snap) = registry.model_snapshot(name) else {
                continue;
            };
            let Some(replicas) = registry.replica_count(name) else {
                continue;
            };
            let slo_samples = snap.window.slo_met + snap.window.slo_missed;
            let overloaded = (slo_samples >= cfg.min_window_samples
                && snap.window.slo_attainment() < cfg.slo_target)
                || snap.queue_depth > cfg.queue_depth_high;
            let calm = snap.queue_depth == 0
                && (slo_samples == 0 || snap.window.slo_attainment() >= cfg.slo_target);
            if overloaded {
                state.calm_ticks = 0;
                state.up_breaches = state.up_breaches.saturating_add(1);
                if state.up_breaches >= cfg.breaches_to_scale
                    && state.last_action.elapsed() >= cfg.cooldown
                    && replicas < cfg.max_replicas
                {
                    registry.scale_up(name);
                    state.up_breaches = 0;
                    state.last_action = Instant::now();
                }
            } else if calm {
                state.up_breaches = 0;
                state.calm_ticks = state.calm_ticks.saturating_add(1);
                if state.calm_ticks >= cfg.idle_ticks_to_shrink
                    && state.last_action.elapsed() >= cfg.cooldown
                    && replicas > cfg.min_replicas.max(1)
                {
                    registry.scale_down(name);
                    // Keep the calm streak: sustained idleness shrinks all
                    // the way back down, one cooldown apart.
                    state.calm_ticks = 0;
                    state.last_action = Instant::now();
                }
            } else {
                state.up_breaches = 0;
                state.calm_ticks = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smooth_wrr_interleaves_rather_than_bursts() {
        assert_eq!(smooth_wrr_schedule(&[1, 1]), vec![0, 1]);
        // Weight 3:1 → a appears 3 times in 4 slots, never 3 in a row.
        let s = smooth_wrr_schedule(&[3, 1]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().filter(|&&r| r == 0).count(), 3);
        // The classic smooth-WRR order: a a b a.
        assert_eq!(s, vec![0, 0, 1, 0]);
        // 5:1:1 spreads the heavy replica across the cycle.
        let s = smooth_wrr_schedule(&[5, 1, 1]);
        assert_eq!(s.len(), 7);
        assert_eq!(s.iter().filter(|&&r| r == 0).count(), 5);
        assert_ne!(&s[0..3], &[0, 0, 0], "no opening burst");
    }
}
