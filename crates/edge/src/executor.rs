//! The elastic-inference worker.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use einet_core::TimeDistribution;
use einet_models::{ExitOutput, MultiExitNet};
use einet_profile::{EdgePlatform, EtProfile};
use einet_tensor::Tensor;
use einet_trace::{self as trace, Args, Category};

use crate::batch::{run_elastic_batch, BatchMember};
use crate::gate::{PreemptionGate, StopCause, TaskGuard};
use crate::source::PlannerSource;

/// Process-wide task-id sequence, shared by every executor and pool so
/// trace spans from concurrent pools never collide.
pub(crate) fn next_task_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One inference task: a single `[1, c, h, w]` input, optionally with its
/// label for on-line accuracy accounting and a deadline for admission
/// control.
#[derive(Debug, Clone)]
pub struct InferenceRequest {
    pub(crate) input: Tensor,
    pub(crate) label: Option<usize>,
    pub(crate) deadline: Option<Duration>,
    /// Cross-process trace id (0 = untraced); see
    /// [`einet_trace::context`]. When set, the pool binds the request's
    /// flow events to this id instead of the process-local task id, so
    /// client- and server-side streams join under one global id.
    pub(crate) trace: u64,
}

impl InferenceRequest {
    /// Creates a request for one sample.
    ///
    /// # Panics
    ///
    /// Panics unless the input is a single-sample 4-D batch.
    pub fn new(input: Tensor) -> Self {
        assert_eq!(input.shape().len(), 4, "input must be [1, c, h, w]");
        assert_eq!(input.shape()[0], 1, "one sample per request");
        InferenceRequest {
            input,
            label: None,
            deadline: None,
            trace: 0,
        }
    }

    /// Attaches the true label (for [`TaskOutcome::correct`]).
    #[must_use]
    pub fn with_label(mut self, label: usize) -> Self {
        self.label = Some(label);
        self
    }

    /// Attaches a deadline, measured from admission. When it elapses the
    /// task is stopped exactly like a preemption — within one block, handing
    /// over its latest checkpoint — and reported as
    /// [`TaskStatus::DeadlineExpired`].
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Attaches a cross-process trace id (from a wire-level
    /// [`einet_trace::TraceContext`]). The pool then keys this request's
    /// `task_flow` events by the global id so a client-side stream can join
    /// them; `0` (the default) keeps process-local task-id flows.
    #[must_use]
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = trace;
        self
    }

    /// The cross-process trace id (0 = untraced).
    pub fn trace(&self) -> u64 {
        self.trace
    }
}

/// How an elastic task ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// The task ran to the end of its plan.
    Completed,
    /// The shared preemption gate stopped it mid-flight.
    Preempted,
    /// Its own deadline stopped it mid-flight.
    DeadlineExpired,
    /// Its deadline had already passed when a worker dequeued it, so the
    /// pool shed it without ever touching the network. Distinct from
    /// [`TaskStatus::DeadlineExpired`] (which ran and may carry a partial
    /// answer) and from a worker crash (which is a `TaskError`): a shed is
    /// an explicit, zero-work refusal the requester can retry elsewhere.
    ShedExpiredInQueue,
}

impl From<StopCause> for TaskStatus {
    fn from(cause: StopCause) -> Self {
        match cause {
            StopCause::Preempted => TaskStatus::Preempted,
            StopCause::DeadlineExpired => TaskStatus::DeadlineExpired,
        }
    }
}

/// What an elastic task produced before it finished or was stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskOutcome {
    /// Every output emitted, in depth order; the last one is the task's
    /// answer.
    pub outputs: Vec<ExitOutput>,
    /// How the task ended.
    pub status: TaskStatus,
    /// Blocks whose conv part executed before the end.
    pub blocks_run: usize,
    /// `Some(prediction == label)` when the request carried a label and at
    /// least one output exists.
    pub correct: Option<bool>,
}

impl TaskOutcome {
    /// The answer the application receives: the latest output, if any.
    pub fn answer(&self) -> Option<&ExitOutput> {
        self.outputs.last()
    }

    /// Whether the task ran to the end of its plan.
    pub fn is_complete(&self) -> bool {
        self.status == TaskStatus::Completed
    }

    /// Whether the task was shed from the queue without running at all.
    pub fn was_shed(&self) -> bool {
        self.status == TaskStatus::ShedExpiredInQueue
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded admission queue is at capacity; retry later or shed the
    /// request (backpressure, never blocking).
    QueueFull,
    /// The executor's worker(s) are gone — the executor was shut down or its
    /// only worker died.
    WorkerGone,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue is full"),
            SubmitError::WorkerGone => write!(f, "executor worker is gone"),
        }
    }
}

impl Error for SubmitError {}

enum WorkerMsg {
    Task(u64, InferenceRequest, Option<Instant>, Sender<TaskOutcome>),
    Shutdown,
}

/// A worker thread owning a trained multi-exit network, executing tasks
/// elastically under a shared [`PreemptionGate`].
///
/// The worker profiles the network once at spawn (cost model) so planners
/// have an ET-profile, and runs every task through the same machine as
/// [`crate::ExecutorPool`] — [`einet_core::step_plan`] over a stacked batch,
/// here always a batch of one — re-planning through its [`PlannerSource`]
/// after every emitted output: the online loop of Section V, on real
/// forward passes instead of a simulated clock.
///
/// This is the single-worker primitive: a thread and a channel around that
/// machine. Production serving goes through [`crate::ExecutorPool`], which
/// adds a bounded admission queue, batching, panic isolation and metrics.
#[derive(Debug)]
pub struct ElasticExecutor {
    tx: Sender<WorkerMsg>,
    handle: Option<JoinHandle<()>>,
}

impl ElasticExecutor {
    /// Spawns the worker with the default platform model
    /// ([`EdgePlatform::JetsonClass`]) and a uniform assumed kill-time
    /// distribution.
    pub fn spawn(net: MultiExitNet, source: Box<dyn PlannerSource>, gate: PreemptionGate) -> Self {
        Self::spawn_throttled(
            net,
            source,
            gate,
            EdgePlatform::JetsonClass,
            TimeDistribution::Uniform,
            Duration::ZERO,
        )
    }

    /// Spawns the worker with an explicit platform cost model and assumed
    /// kill-time distribution (what the planners optimise against),
    /// sleeping `block_delay` after every conv part — emulating a slower
    /// device (or making preemption demos land mid-inference on fast hosts)
    /// without touching the model.
    pub fn spawn_throttled(
        mut net: MultiExitNet,
        source: Box<dyn PlannerSource>,
        gate: PreemptionGate,
        platform: EdgePlatform,
        dist: TimeDistribution,
        block_delay: Duration,
    ) -> Self {
        let (tx, rx): (Sender<WorkerMsg>, Receiver<WorkerMsg>) = channel();
        let handle = std::thread::spawn(move || {
            let et = EtProfile::from_cost_model(&net, platform);
            while let Ok(msg) = rx.recv() {
                match msg {
                    WorkerMsg::Shutdown => break,
                    WorkerMsg::Task(task_id, request, deadline_at, reply) => {
                        let member = BatchMember {
                            id: task_id,
                            request: &request,
                            guard: TaskGuard::new(gate.clone(), deadline_at),
                        };
                        // "solo_task", not "task": pool-serviced spans must
                        // stay countable against the pool's ServeMetrics.
                        let service = trace::span_args(
                            Category::Service,
                            "solo_task",
                            Args::one("task", task_id),
                        );
                        // Solo is a batch of one.
                        let outcome = run_elastic_batch(
                            &mut net,
                            &et,
                            &dist,
                            source.as_ref(),
                            std::slice::from_ref(&member),
                            block_delay,
                        )
                        .pop()
                        .expect("one outcome per member");
                        drop(service);
                        // The requester may have given up; that is fine.
                        let _ = reply.send(outcome);
                    }
                }
            }
        });
        ElasticExecutor {
            tx,
            handle: Some(handle),
        }
    }

    /// Submits a task; the returned channel yields its outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::WorkerGone`] when the worker thread has exited
    /// (e.g. it panicked on a poisoned task) instead of panicking — the
    /// caller decides whether to respawn or shed load.
    pub fn submit(&self, request: InferenceRequest) -> Result<Receiver<TaskOutcome>, SubmitError> {
        let (reply_tx, reply_rx) = channel();
        let deadline_at = request.deadline.map(|d| Instant::now() + d);
        self.tx
            .send(WorkerMsg::Task(
                next_task_id(),
                request,
                deadline_at,
                reply_tx,
            ))
            .map_err(|_| SubmitError::WorkerGone)?;
        Ok(reply_rx)
    }

    /// Whether the worker thread is still running. A worker that panicked
    /// mid-task reports `false` here and [`SubmitError::WorkerGone`] from
    /// [`ElasticExecutor::submit`].
    pub fn is_alive(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// Stops the worker after the current task and joins it.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(WorkerMsg::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ElasticExecutor {
    fn drop(&mut self) {
        let _ = self.tx.send(WorkerMsg::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FnSource, StaticSource};
    use einet_core::{ExitPlan, StaticPlanner};
    use einet_models::{zoo, BranchSpec};

    fn net() -> MultiExitNet {
        zoo::b_alexnet([1, 16, 16], 10, &BranchSpec::paper_default(), 5)
    }

    fn input() -> Tensor {
        Tensor::filled(&[1, 1, 16, 16], 0.2)
    }

    #[test]
    fn unpreempted_task_completes_with_all_outputs() {
        let gate = PreemptionGate::new();
        let exec =
            ElasticExecutor::spawn(net(), Box::new(StaticSource::new(ExitPlan::full(3))), gate);
        let outcome = exec
            .submit(InferenceRequest::new(input()))
            .unwrap()
            .recv()
            .unwrap();
        assert!(outcome.is_complete());
        assert_eq!(outcome.status, TaskStatus::Completed);
        assert_eq!(outcome.outputs.len(), 3);
        assert_eq!(outcome.blocks_run, 3);
        assert_eq!(outcome.answer().unwrap().exit, 2);
        exec.shutdown();
    }

    #[test]
    fn pre_raised_gate_yields_no_output() {
        let gate = PreemptionGate::new();
        gate.raise();
        let exec = ElasticExecutor::spawn(
            net(),
            Box::new(StaticSource::new(ExitPlan::full(3))),
            gate.clone(),
        );
        let outcome = exec
            .submit(InferenceRequest::new(input()))
            .unwrap()
            .recv()
            .unwrap();
        assert_eq!(outcome.status, TaskStatus::Preempted);
        assert!(outcome.outputs.is_empty());
        // Lower the gate: the next task runs normally.
        gate.lower();
        let outcome = exec
            .submit(InferenceRequest::new(input()))
            .unwrap()
            .recv()
            .unwrap();
        assert!(outcome.is_complete());
        exec.shutdown();
    }

    #[test]
    fn plan_skips_are_respected_on_real_execution() {
        let gate = PreemptionGate::new();
        let exec = ElasticExecutor::spawn(
            net(),
            Box::new(StaticSource::new(ExitPlan::from_indices(3, &[1]))),
            gate,
        );
        let outcome = exec
            .submit(InferenceRequest::new(input()))
            .unwrap()
            .recv()
            .unwrap();
        assert!(outcome.is_complete());
        assert_eq!(outcome.outputs.len(), 1);
        assert_eq!(outcome.outputs[0].exit, 1);
        assert_eq!(outcome.blocks_run, 3, "backbone always runs");
        exec.shutdown();
    }

    #[test]
    fn labels_flow_into_correctness() {
        let gate = PreemptionGate::new();
        let exec =
            ElasticExecutor::spawn(net(), Box::new(StaticSource::new(ExitPlan::full(3))), gate);
        let outcome = exec
            .submit(InferenceRequest::new(input()).with_label(3))
            .unwrap()
            .recv()
            .unwrap();
        assert!(outcome.correct.is_some());
        exec.shutdown();
    }

    #[test]
    fn wide_labels_never_alias() {
        // Labels used to be compared through a truncating `as u16` cast, so
        // label `predicted + 65536` would alias to "correct". Learn the
        // prediction once, then resubmit with the aliasing label.
        let gate = PreemptionGate::new();
        let exec =
            ElasticExecutor::spawn(net(), Box::new(StaticSource::new(ExitPlan::full(3))), gate);
        let first = exec
            .submit(InferenceRequest::new(input()))
            .unwrap()
            .recv()
            .unwrap();
        let predicted = first.answer().unwrap().predicted;
        let outcome = exec
            .submit(InferenceRequest::new(input()).with_label(predicted + (u16::MAX as usize + 1)))
            .unwrap()
            .recv()
            .unwrap();
        assert_eq!(outcome.correct, Some(false));
        exec.shutdown();
    }

    #[test]
    fn many_tasks_in_sequence() {
        let gate = PreemptionGate::new();
        let exec =
            ElasticExecutor::spawn(net(), Box::new(StaticSource::new(ExitPlan::full(3))), gate);
        let replies: Vec<_> = (0..8)
            .map(|_| exec.submit(InferenceRequest::new(input())).unwrap())
            .collect();
        for r in replies {
            assert!(r.recv().unwrap().is_complete());
        }
        exec.shutdown();
    }

    #[test]
    fn submit_after_worker_death_errors_instead_of_panicking() {
        let gate = PreemptionGate::new();
        // A planner that panics kills the (unpooled) worker thread.
        let exec = ElasticExecutor::spawn(
            net(),
            Box::new(FnSource::new("poison", || panic!("poisoned planner"))),
            gate,
        );
        let reply = exec.submit(InferenceRequest::new(input())).unwrap();
        // The worker died mid-task, so its reply sender was dropped.
        assert!(reply.recv().is_err());
        // Wait for the thread to be fully gone, then submit again: an error,
        // not a panic.
        for _ in 0..200 {
            if !exec.is_alive() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!exec.is_alive());
        let err = exec
            .submit(InferenceRequest::new(input()))
            .expect_err("dead worker must reject");
        assert_eq!(err, SubmitError::WorkerGone);
    }

    #[test]
    fn wrong_length_plan_is_rejected_like_the_simulator() {
        let gate = PreemptionGate::new();
        // 2-exit plan against a 3-exit network: the live loop must enforce
        // the same contract as the simulated runtime.
        let exec = ElasticExecutor::spawn(
            net(),
            Box::new(FnSource::new("short-plan", || {
                Box::new(StaticPlanner::new(ExitPlan::full(2), "short"))
            })),
            gate,
        );
        let reply = exec.submit(InferenceRequest::new(input())).unwrap();
        // The length assertion kills the bare worker; the reply channel
        // reports the loss instead of returning a mis-planned outcome.
        assert!(reply.recv().is_err());
    }

    #[test]
    fn deadline_expires_mid_task() {
        let gate = PreemptionGate::new();
        let exec = ElasticExecutor::spawn_throttled(
            net(),
            Box::new(StaticSource::new(ExitPlan::full(3))),
            gate,
            EdgePlatform::JetsonClass,
            TimeDistribution::Uniform,
            Duration::from_millis(25),
        );
        let outcome = exec
            .submit(InferenceRequest::new(input()).with_deadline(Duration::from_millis(30)))
            .unwrap()
            .recv()
            .unwrap();
        assert_eq!(outcome.status, TaskStatus::DeadlineExpired);
        assert!(!outcome.is_complete());
        assert!(outcome.blocks_run < 3);
        exec.shutdown();
    }

    #[test]
    fn drop_shuts_worker_down() {
        let gate = PreemptionGate::new();
        let exec =
            ElasticExecutor::spawn(net(), Box::new(StaticSource::new(ExitPlan::full(3))), gate);
        drop(exec); // must not hang or panic
    }
}
