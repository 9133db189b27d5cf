//! The multi-worker serving substrate: N elastic workers behind a bounded,
//! deadline-aware scheduler queue.
//!
//! [`crate::ElasticExecutor`] is the single-worker primitive; this module is
//! what a deployment actually runs. Both execute a task the same way — the
//! live machine of `batch.rs` under [`einet_core::step_plan`], where a
//! lone task is a batch of one — and this module adds everything around it:
//!
//! * **Bounded admission.** Submissions go through a fixed-capacity
//!   [`crate::SchedQueue`]; when it is full, [`ExecutorPool::submit`]
//!   returns [`SubmitError::QueueFull`] immediately (backpressure, never
//!   blocking and never unbounded memory).
//! * **EDF dispatch.** Runnable tasks leave the queue earliest-deadline
//!   first; tasks without deadlines go FIFO after every deadline-carrying
//!   task.
//! * **Adaptive batching.** A worker wakeup coalesces compatible queued
//!   requests (same input shape) into one stacked elastic forward, up to
//!   [`PoolConfig::max_batch`]; an online gain model decides when holding
//!   the queue head briefly for one more arrival pays for itself
//!   ([`einet_core::BatchGainModel`]).
//! * **Deadlines are preemptions.** A request's deadline is fused with the
//!   shared [`PreemptionGate`] into one per-task
//!   [`crate::gate::TaskGuard`], so an expired deadline stops a task
//!   exactly like the paper's unpredictable exit — within one block,
//!   keeping its latest checkpointed answer. In a batch this holds **per
//!   member**: one member expiring finalizes that member only.
//! * **Panic isolation.** Each dispatch runs under `catch_unwind`; a
//!   panicking planner (or any other task-level fault) surfaces as
//!   [`TaskError::Panicked`] on the affected reply channels, the worker
//!   rebuilds its network from the pristine template, and the pool keeps
//!   serving.
//! * **Metrics.** Every admission, rejection, dequeue, outcome and batch
//!   occupancy feeds the shared [`ServeMetrics`] registry.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use einet_core::TimeDistribution;
use einet_models::MultiExitNet;
use einet_profile::{EdgePlatform, EtProfile};
use einet_trace::{self as trace, Args, Category};

use crate::batch::{run_elastic_batch, BatchMember};
use crate::executor::{next_task_id, InferenceRequest, SubmitError, TaskOutcome};
use crate::gate::{PreemptionGate, TaskGuard};
use crate::metrics::ServeMetrics;
use crate::sched::{PushError, SchedQueue, SchedTask};
use crate::source::PlannerSource;
use crate::TaskStatus;

/// A task-level failure: the task is lost but the pool (and every other
/// task) keeps running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task panicked on its worker (message attached); the worker was
    /// rebuilt from the pristine network template.
    Panicked(String),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked(msg) => write!(f, "task panicked on its worker: {msg}"),
        }
    }
}

impl std::error::Error for TaskError {}

/// What a pool task's reply channel yields.
pub type TaskResult = Result<TaskOutcome, TaskError>;

/// A boxed completion callback for [`ExecutorPool::submit_with`]: invoked
/// exactly once, on the worker thread that finishes (or loses) the task.
pub type CompletionFn = Box<dyn FnOnce(TaskResult) + Send>;

/// Sizing and cost-model configuration for an [`ExecutorPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads, each owning a full copy of the network (≥ 1).
    pub workers: usize,
    /// Admission-queue capacity; beyond it submissions bounce with
    /// [`SubmitError::QueueFull`] (≥ 1).
    pub queue_capacity: usize,
    /// Platform cost model the per-worker ET-profiles are derived from.
    pub platform: EdgePlatform,
    /// Assumed kill-time distribution handed to planners.
    pub dist: TimeDistribution,
    /// Artificial per-block delay (slow-device emulation; demos/tests).
    pub block_delay: Duration,
    /// Most compatible tasks one worker wakeup may coalesce into a single
    /// stacked forward (≥ 1; 1 disables batching).
    pub max_batch: usize,
    /// Upper bound on how long a worker may hold an under-filled batch
    /// waiting for one more compatible arrival. The adaptive gain model
    /// usually stops far earlier; this caps its worst case.
    pub batch_window: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 2,
            queue_capacity: 32,
            platform: EdgePlatform::JetsonClass,
            dist: TimeDistribution::Uniform,
            block_delay: Duration::ZERO,
            max_batch: 1,
            batch_window: Duration::from_millis(2),
        }
    }
}

pub(crate) struct PoolTask {
    id: u64,
    request: InferenceRequest,
    deadline_at: Option<Instant>,
    admitted_at: Instant,
    /// Runs exactly once, on the worker that finishes (or loses) the task.
    reply: CompletionFn,
}

impl PoolTask {
    /// The id this task's `task_flow` events are keyed by: the
    /// cross-process trace id when the request carried one, otherwise the
    /// process-local task id (see [`einet_trace::context::flow_id`]). This
    /// is what lets a client-side stream join the server's flow points.
    fn flow_id(&self) -> u64 {
        einet_trace::context::flow_id(self.request.trace, self.id)
    }
}

impl SchedTask for PoolTask {
    fn deadline_at(&self) -> Option<Instant> {
        self.deadline_at
    }

    fn compat_key(&self) -> u64 {
        // Tasks can share a stacked forward iff their inputs stack: same
        // [c, h, w]. Every worker runs a clone of the same network, so the
        // shape is the whole story.
        let mut h = DefaultHasher::new();
        self.request.input.shape().hash(&mut h);
        h.finish()
    }
}

/// N elastic workers behind a bounded, deadline-aware scheduler queue — the
/// serving-side entry point of the crate.
///
/// # Example
///
/// ```
/// use einet_edge::{ExecutorPool, InferenceRequest, PoolConfig, PreemptionGate, StaticSource};
/// use einet_models::{zoo, BranchSpec};
/// use einet_core::ExitPlan;
/// use einet_tensor::Tensor;
///
/// let net = zoo::b_alexnet([1, 16, 16], 10, &BranchSpec::paper_default(), 1);
/// let pool = ExecutorPool::spawn(
///     net,
///     |_worker| Box::new(StaticSource::new(ExitPlan::full(3))),
///     PreemptionGate::new(),
///     PoolConfig { workers: 2, max_batch: 4, ..PoolConfig::default() },
/// );
/// let reply = pool.submit(InferenceRequest::new(Tensor::zeros(&[1, 1, 16, 16]))).unwrap();
/// let outcome = reply.recv().unwrap().unwrap();
/// assert!(outcome.is_complete());
/// assert!(pool.metrics().snapshot().reconciles());
/// pool.shutdown();
/// ```
#[derive(Debug)]
pub struct ExecutorPool {
    queue: Arc<SchedQueue<PoolTask>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<ServeMetrics>,
    gate: PreemptionGate,
}

impl ExecutorPool {
    /// Spawns the pool. The trained `net` is the pristine template: every
    /// worker starts from its own clone of it and re-clones it after a
    /// panic. `make_source` mints one [`PlannerSource`] per worker.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers`, `cfg.queue_capacity` or `cfg.max_batch` is
    /// zero.
    pub fn spawn(
        net: MultiExitNet,
        mut make_source: impl FnMut(usize) -> Box<dyn PlannerSource>,
        gate: PreemptionGate,
        cfg: PoolConfig,
    ) -> Self {
        assert!(cfg.workers >= 1, "pool needs at least one worker");
        assert!(cfg.max_batch >= 1, "max_batch must be positive");
        // Capacity ≥ 1 is asserted by the queue itself.
        let queue = Arc::new(SchedQueue::new(cfg.queue_capacity));
        let metrics = Arc::new(ServeMetrics::new());
        let template = Arc::new(net);
        let workers = (0..cfg.workers)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let gate = gate.clone();
                let source = make_source(w);
                let template = Arc::clone(&template);
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("einet-pool-{w}"))
                    .spawn(move || worker_loop(&template, source, &gate, &queue, &metrics, &cfg))
                    .expect("spawn pool worker")
            })
            .collect();
        ExecutorPool {
            queue,
            workers,
            metrics,
            gate,
        }
    }

    /// Submits a task without blocking. The returned channel yields the
    /// task's [`TaskResult`] once a worker finishes (or loses) it.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the admission queue is at capacity —
    /// the backpressure signal — and [`SubmitError::WorkerGone`] when the
    /// pool is shutting down.
    pub fn submit(&self, request: InferenceRequest) -> Result<Receiver<TaskResult>, SubmitError> {
        let (reply_tx, reply_rx) = channel();
        // A vanished receiver is fine: the requester gave up.
        let reply = Box::new(move |result| drop(reply_tx.send(result)));
        self.submit_with(request, reply)
            .map(|_id| reply_rx)
            .map_err(|(err, _reply)| err)
    }

    /// Submits a task without blocking and without a reply channel: when a
    /// worker finishes (or loses) the task, `on_complete` runs **on that
    /// worker thread** with the [`TaskResult`]. This is the readiness-driven
    /// ingest path — thousands of in-flight requests cost no parked threads.
    ///
    /// Keep the callback small and non-blocking (hand the result to a queue
    /// or channel); it runs inline on the worker's dispatch loop. Returns
    /// the pool-assigned task id.
    ///
    /// # Errors
    ///
    /// The same conditions as [`ExecutorPool::submit`], with the unused
    /// callback handed back so the caller can retry another replica or
    /// answer the requester directly.
    pub fn submit_with(
        &self,
        request: InferenceRequest,
        on_complete: CompletionFn,
    ) -> Result<u64, (SubmitError, CompletionFn)> {
        let now = Instant::now();
        let task = PoolTask {
            id: next_task_id(),
            deadline_at: request.deadline.map(|d| now + d),
            admitted_at: now,
            request,
            reply: on_complete,
        };
        let task_id = task.id;
        let flow_id = task.flow_id();
        self.metrics.begin_admission();
        match self.queue.push(task) {
            Ok(()) => {
                self.metrics.commit_admission();
                // Open the task's cross-thread flow on the submitting
                // thread; the worker that picks it up steps and ends it.
                // Traced requests key the flow by their global trace id.
                trace::flow_start(Category::Service, "task_flow", flow_id);
                Ok(task_id)
            }
            Err((PushError::Full, task)) => {
                self.metrics.abort_admission(true);
                Err((SubmitError::QueueFull, task.reply))
            }
            Err((PushError::Closed, task)) => {
                self.metrics.abort_admission(false);
                Err((SubmitError::WorkerGone, task.reply))
            }
        }
    }

    /// The shared metrics registry (live; take a
    /// [`crate::MetricsSnapshot`] to read consistently).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// An owned handle to the metrics registry, for consumers that outlive
    /// borrows of the pool — e.g. a [`crate::MetricsReporter`].
    pub fn metrics_handle(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The shared preemption gate all workers poll.
    pub fn gate(&self) -> &PreemptionGate {
        &self.gate
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Stops admissions, drains the queue (already-admitted tasks still get
    /// their replies) and joins every worker.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(
    template: &Arc<MultiExitNet>,
    source: Box<dyn PlannerSource>,
    gate: &PreemptionGate,
    queue: &Arc<SchedQueue<PoolTask>>,
    metrics: &Arc<ServeMetrics>,
    cfg: &PoolConfig,
) {
    let mut net = (**template).clone();
    let et = EtProfile::from_cost_model(&net, cfg.platform);
    while let Some(batch) = queue.pop_batch(cfg.max_batch, cfg.batch_window) {
        // Close out each member's queue wait, shedding the ones whose
        // deadline already passed while they queued: they would only burn
        // worker time to report "expired". A shed task still answers its
        // requester — with the explicit `ShedExpiredInQueue` status, so the
        // caller can tell "refused without running" apart from both a
        // mid-service expiry and a worker crash — and still records its
        // queue wait, but not a service time.
        let mut live: Vec<PoolTask> = Vec::with_capacity(batch.len());
        for task in batch {
            trace::complete_span(
                Category::Queue,
                "queue_wait",
                task.admitted_at,
                Args::two("task", task.id, "trace", task.request.trace),
            );
            if task.deadline_at.is_some_and(|d| Instant::now() >= d) {
                metrics.on_shed_expired(task.admitted_at.elapsed(), task.request.trace);
                trace::instant(Category::Queue, "shed_expired", Args::one("task", task.id));
                // The task never reaches a worker slice; its flow ends here.
                trace::flow_end(Category::Service, "task_flow", task.flow_id());
                (task.reply)(Ok(TaskOutcome {
                    outputs: Vec::new(),
                    status: TaskStatus::ShedExpiredInQueue,
                    blocks_run: 0,
                    correct: None,
                }));
            } else {
                metrics.on_dequeued(task.admitted_at.elapsed(), task.request.trace);
                live.push(task);
            }
        }
        if live.is_empty() {
            continue;
        }
        let size = live.len();
        metrics.on_batch(size);
        let started = Instant::now();
        // Per-member service spans cover the same interval as the dispatch —
        // that is exactly what each member's service-histogram entry
        // records, keeping trace ↔ metrics duration reconciliation exact.
        // (Members of one batch nest on this thread; the outermost span
        // carries the true interval, inner ones are within microseconds.)
        let member_spans: Vec<_> = live
            .iter()
            .map(|t| {
                trace::span_args(
                    Category::Service,
                    "task",
                    Args::two("task", t.id, "trace", t.request.trace),
                )
            })
            .collect();
        for t in &live {
            // Land the flow on this worker inside the service slice so the
            // causal arrow points submit → service.
            trace::flow_step(Category::Service, "task_flow", t.flow_id());
        }
        // One machine for every dispatch; a lone task is a batch of one.
        let result = {
            let members: Vec<BatchMember<'_>> = live
                .iter()
                .map(|t| BatchMember {
                    id: t.id,
                    request: &t.request,
                    guard: TaskGuard::new(gate.clone(), t.deadline_at),
                })
                .collect();
            catch_unwind(AssertUnwindSafe(|| {
                run_elastic_batch(
                    &mut net,
                    &et,
                    &cfg.dist,
                    source.as_ref(),
                    &members,
                    cfg.block_delay,
                )
            }))
        };
        let service_time = started.elapsed();
        // End each flow while the service slices are still open: the "f"
        // point binds to the slice's end (bp = "e").
        for t in &live {
            trace::flow_end(Category::Service, "task_flow", t.flow_id());
        }
        drop(member_spans);
        // One batch-scoped span per dispatch (size 1 included), carrying the
        // occupancy; trace_check reconciles Σ batch_size == serviced. Queue
        // category, so the Service span total still equals the service
        // histogram's.
        trace::complete_span(
            Category::Queue,
            "batch",
            started,
            Args::two("batch_size", size as u64, "task", live[0].id),
        );
        match result {
            Ok(outcomes) => {
                // Only dispatches that ran their plan out teach the service
                // curve: one a gate raise or deadline cut short is quicker
                // than the work it stands for, and would make the hold's
                // feasibility bound too permissive.
                if outcomes.iter().all(TaskOutcome::is_complete) {
                    queue.observe_service(size, service_time);
                }
                for (task, outcome) in live.into_iter().zip(outcomes) {
                    metrics.on_outcome(
                        outcome.status,
                        service_time,
                        task.deadline_at.is_some(),
                        task.request.trace,
                    );
                    // Pool-scoped outcome markers, distinct from the
                    // executor-level "preempted"/"deadline_expired" instants
                    // (which solo runs also emit): these count pool tasks
                    // only, so trace ↔ metrics reconciliation can be exact.
                    match outcome.status {
                        TaskStatus::Preempted => trace::instant(
                            Category::Preempt,
                            "task_preempted",
                            Args::one("task", task.id),
                        ),
                        TaskStatus::DeadlineExpired => trace::instant(
                            Category::Preempt,
                            "task_deadline_expired",
                            Args::one("task", task.id),
                        ),
                        // The machine never sheds — that happens at
                        // dequeue, above — so that arm is unreachable here.
                        TaskStatus::Completed | TaskStatus::ShedExpiredInQueue => {}
                    }
                    // The requester may have given up; that is fine.
                    (task.reply)(Ok(outcome));
                }
            }
            Err(payload) => {
                let msg = panic_message(payload);
                for task in live {
                    metrics.on_panicked(service_time, task.request.trace);
                    trace::instant(
                        Category::Preempt,
                        "task_panicked",
                        Args::one("task", task.id),
                    );
                    (task.reply)(Err(TaskError::Panicked(msg.clone())));
                }
                // The unwound network may hold half-written caches; respawn
                // the worker state from the pristine template.
                net = (**template).clone();
            }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::StaticSource;
    use einet_core::ExitPlan;
    use einet_models::{zoo, BranchSpec};
    use einet_tensor::Tensor;

    fn net() -> MultiExitNet {
        zoo::b_alexnet([1, 16, 16], 10, &BranchSpec::paper_default(), 5)
    }

    fn input() -> Tensor {
        Tensor::filled(&[1, 1, 16, 16], 0.2)
    }

    #[test]
    fn pool_serves_many_tasks_across_workers() {
        let pool = ExecutorPool::spawn(
            net(),
            |_| Box::new(StaticSource::new(ExitPlan::full(3))),
            PreemptionGate::new(),
            PoolConfig {
                workers: 3,
                queue_capacity: 64,
                ..PoolConfig::default()
            },
        );
        let replies: Vec<_> = (0..12)
            .map(|_| pool.submit(InferenceRequest::new(input())).unwrap())
            .collect();
        for r in replies {
            let outcome = r.recv().unwrap().unwrap();
            assert!(outcome.is_complete());
            assert_eq!(outcome.outputs.len(), 3);
        }
        let snap = pool.metrics().snapshot();
        assert_eq!(snap.submitted, 12);
        assert_eq!(snap.completed, 12);
        assert!(snap.reconciles());
        pool.shutdown();
    }

    #[test]
    fn batched_pool_serves_and_accounts_every_task() {
        use einet_core::{PlanContext, Planner, PlannerDecision, StaticPlanner};
        use std::sync::mpsc::Sender;
        use std::sync::Mutex;

        /// Full plan; parks the worker inside its first call until
        /// released, so that every task submitted meanwhile is queued when
        /// the worker next pops a batch — a backlog with no wall clock.
        struct Turnstile {
            entered: Sender<()>,
            release: Receiver<()>,
            parked: bool,
        }
        impl Planner for Turnstile {
            fn name(&self) -> String {
                "turnstile".into()
            }
            fn plan(&mut self, _ctx: &PlanContext<'_>) -> PlannerDecision {
                if !self.parked {
                    self.parked = true;
                    self.entered.send(()).unwrap();
                    self.release.recv().unwrap();
                }
                PlannerDecision::Plan(ExitPlan::full(3))
            }
        }

        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        let turnstile = Mutex::new(Some(Turnstile {
            entered: entered_tx,
            release: release_rx,
            parked: false,
        }));
        // The first planner minted is the turnstile, every later one plans
        // the full network too.
        let mut source = Some(crate::FnSource::new("turnstile", move || {
            match turnstile.lock().unwrap().take() {
                Some(t) => Box::new(t) as Box<dyn Planner>,
                None => Box::new(StaticPlanner::new(ExitPlan::full(3), "static")),
            }
        }));
        let pool = ExecutorPool::spawn(
            net(),
            |_| Box::new(source.take().expect("one worker")),
            PreemptionGate::new(),
            PoolConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch: 4,
                ..PoolConfig::default()
            },
        );
        // Generous next to any service time: batching must not cost a
        // deadline.
        let submit = || {
            pool.submit(InferenceRequest::new(input()).with_deadline(Duration::from_secs(10)))
                .unwrap()
        };
        let mut replies = vec![submit()];
        entered.recv().unwrap();
        replies.extend((1..16).map(|_| submit()));
        release.send(()).unwrap();
        for r in replies {
            let outcome = r.recv().unwrap().unwrap();
            assert!(outcome.is_complete());
            assert_eq!(outcome.outputs.len(), 3);
        }
        let snap = pool.metrics().snapshot();
        assert_eq!(snap.completed, 16);
        assert!(snap.reconciles());
        // Every serviced task is accounted to exactly one batch.
        assert_eq!(snap.batch.sum, 16);
        // The parked task ran alone; the 15-task backlog behind it coalesced
        // into full batches of 4: 1 + ⌈15/4⌉ dispatches.
        assert!(snap.batch.count <= 5, "{} dispatches", snap.batch.count);
        assert_eq!(snap.deadline_met, 16);
        pool.shutdown();
    }

    #[test]
    fn incompatible_shapes_are_served_in_separate_batches() {
        // The compat key depends on the input shape alone: equal shapes
        // may share a stacked forward, different shapes never do.
        let task = |id: u64, shape: &[usize]| PoolTask {
            id,
            request: InferenceRequest::new(Tensor::zeros(shape)),
            deadline_at: None,
            admitted_at: Instant::now(),
            reply: Box::new(|_| {}),
        };
        let a = task(1, &[1, 1, 16, 16]);
        let b = task(2, &[1, 3, 16, 16]);
        let c = task(3, &[1, 1, 16, 16]);
        assert_eq!(a.compat_key(), c.compat_key());
        assert_ne!(a.compat_key(), b.compat_key());
    }

    #[test]
    fn shutdown_drains_admitted_tasks() {
        let pool = ExecutorPool::spawn(
            net(),
            |_| Box::new(StaticSource::new(ExitPlan::full(3))),
            PreemptionGate::new(),
            PoolConfig {
                workers: 1,
                queue_capacity: 16,
                ..PoolConfig::default()
            },
        );
        let replies: Vec<_> = (0..6)
            .map(|_| pool.submit(InferenceRequest::new(input())).unwrap())
            .collect();
        pool.shutdown();
        for r in replies {
            assert!(r.recv().unwrap().unwrap().is_complete());
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let _ = ExecutorPool::spawn(
            net(),
            |_| Box::new(StaticSource::new(ExitPlan::full(3))),
            PreemptionGate::new(),
            PoolConfig {
                workers: 0,
                ..PoolConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_queue_capacity_is_rejected() {
        let _ = ExecutorPool::spawn(
            net(),
            |_| Box::new(StaticSource::new(ExitPlan::full(3))),
            PreemptionGate::new(),
            PoolConfig {
                queue_capacity: 0,
                ..PoolConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_max_batch_is_rejected() {
        let _ = ExecutorPool::spawn(
            net(),
            |_| Box::new(StaticSource::new(ExitPlan::full(3))),
            PreemptionGate::new(),
            PoolConfig {
                max_batch: 0,
                ..PoolConfig::default()
            },
        );
    }

    #[test]
    fn mid_batch_gate_raise_finalizes_every_member_with_checkpoints() {
        let gate = PreemptionGate::new();
        let pool = ExecutorPool::spawn(
            net(),
            |_| Box::new(StaticSource::new(ExitPlan::full(3))),
            gate.clone(),
            PoolConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 4,
                block_delay: Duration::from_millis(40),
                ..PoolConfig::default()
            },
        );
        let replies: Vec<_> = (0..4)
            .map(|_| pool.submit(InferenceRequest::new(input())).unwrap())
            .collect();
        // Let the batch get past the first block, then preempt.
        std::thread::sleep(Duration::from_millis(60));
        gate.raise();
        let outcomes: Vec<TaskOutcome> =
            replies.iter().map(|r| r.recv().unwrap().unwrap()).collect();
        assert!(
            outcomes.iter().any(|o| o.status == TaskStatus::Preempted),
            "at least the in-flight batch must observe the raise"
        );
        // Every preempted member keeps whatever checkpoints it had and a
        // consistent blocks_run, and no member is lost.
        for o in &outcomes {
            assert!(o.blocks_run <= 3);
            assert!(o.outputs.len() <= 3);
        }
        gate.lower();
        let snap = pool.metrics().snapshot();
        assert_eq!(snap.finished(), 4);
        assert!(snap.reconciles());
        pool.shutdown();
    }

    #[test]
    fn mid_batch_deadline_finalizes_only_the_expiring_member() {
        // 3 blocks × 30 ms delay ≈ 90 ms total. One member's deadline lands
        // mid-batch; the others run to completion.
        let pool = ExecutorPool::spawn(
            net(),
            |_| Box::new(StaticSource::new(ExitPlan::full(3))),
            PreemptionGate::new(),
            PoolConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 4,
                block_delay: Duration::from_millis(30),
                ..PoolConfig::default()
            },
        );
        let hurried = pool
            .submit(InferenceRequest::new(input()).with_deadline(Duration::from_millis(45)))
            .unwrap();
        let relaxed: Vec<_> = (0..3)
            .map(|_| pool.submit(InferenceRequest::new(input())).unwrap())
            .collect();
        let hurried = hurried.recv().unwrap().unwrap();
        assert_eq!(hurried.status, TaskStatus::DeadlineExpired);
        assert!(
            hurried.blocks_run < 3,
            "the deadline must land mid-batch, ran {} blocks",
            hurried.blocks_run
        );
        for r in relaxed {
            let o = r.recv().unwrap().unwrap();
            assert!(o.is_complete(), "relaxed members finish: {:?}", o.status);
            assert_eq!(o.outputs.len(), 3);
        }
        let snap = pool.metrics().snapshot();
        assert_eq!(snap.finished(), 4);
        assert!(snap.reconciles());
        pool.shutdown();
    }

    #[test]
    fn truncated_dispatches_never_teach_the_service_curve() {
        use einet_core::{PlanContext, Planner, PlannerDecision};
        use std::sync::atomic::{AtomicBool, Ordering};

        /// Full plan; once armed, raises the gate from inside its second
        /// call — the dispatch is cut after one block and one exit, with no
        /// wall clock involved.
        struct CutAfterFirstExit {
            gate: PreemptionGate,
            armed: Arc<AtomicBool>,
            calls: usize,
        }
        impl Planner for CutAfterFirstExit {
            fn name(&self) -> String {
                "cut-after-first-exit".into()
            }
            fn plan(&mut self, _ctx: &PlanContext<'_>) -> PlannerDecision {
                self.calls += 1;
                if self.calls == 2 && self.armed.load(Ordering::SeqCst) {
                    self.gate.raise();
                }
                PlannerDecision::Plan(ExitPlan::full(3))
            }
        }

        let gate = PreemptionGate::new();
        let armed = Arc::new(AtomicBool::new(false));
        let (planner_gate, planner_armed) = (gate.clone(), Arc::clone(&armed));
        let pool = ExecutorPool::spawn(
            net(),
            move |_| {
                let (gate, armed) = (planner_gate.clone(), Arc::clone(&planner_armed));
                Box::new(crate::FnSource::new("cutter", move || {
                    Box::new(CutAfterFirstExit {
                        gate: gate.clone(),
                        armed: Arc::clone(&armed),
                        calls: 0,
                    }) as Box<dyn Planner>
                }))
            },
            gate.clone(),
            PoolConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 2,
                // Makes a full run (3 blocks) plainly longer than a cut one.
                block_delay: Duration::from_millis(5),
                ..PoolConfig::default()
            },
        );
        let run_pair = || -> Vec<TaskOutcome> {
            let replies: Vec<_> = (0..2)
                .map(|_| pool.submit(InferenceRequest::new(input())).unwrap())
                .collect();
            replies
                .into_iter()
                .map(|r| r.recv().unwrap().unwrap())
                .collect()
        };
        for _ in 0..3 {
            assert!(run_pair().iter().all(TaskOutcome::is_complete));
        }
        // Whether the pairs ran stacked or one by one is the hold policy's
        // business; either way both sizes now have an estimate.
        let learned = |b| pool.queue.expected_service_us(b).expect("dispatches ran");
        let before = [learned(1), learned(2)];
        assert!(before[1] >= 15_000.0, "three delayed blocks: {before:?} us");
        // Cut the next pair short: mid-flight if it runs stacked, the second
        // task on arrival if it runs one by one.
        armed.store(true, Ordering::SeqCst);
        for o in run_pair() {
            assert_eq!(o.status, TaskStatus::Preempted);
            assert!(o.blocks_run <= 1);
        }
        gate.lower();
        // A dispatch cut short is not a sample of what its size costs.
        assert_eq!([learned(1), learned(2)], before);
        pool.shutdown();
    }
}
