//! # einet-edge
//!
//! A threaded **elastic-inference executor**: the deployment-side runtime
//! that the paper's scenario implies (Fig. 1 — a high-priority 5G vRAN task
//! preempts AI inference at an unpredictable moment).
//!
//! Where `einet-core`'s [`einet_core::ElasticRuntime`] *simulates* inference
//! timelines from profiles (the evaluation methodology), this crate runs the
//! **real network** on worker threads. Both are the same loop:
//! [`einet_core::step_plan`] follows the plan and re-plans after every
//! output, and drives a machine that runs one step at a time. The simulator
//! is one such machine; this crate's is a stacked batch of requests on real
//! forward passes, and every executor here runs it (a solo task is a batch
//! of one):
//!
//! * [`ElasticExecutor`] owns a trained multi-exit network and processes
//!   [`InferenceRequest`]s submitted over a channel;
//! * before every conv part and branch the machine checks each member's
//!   [`TaskGuard`] — the shared [`PreemptionGate`] fused with the request's
//!   deadline; raising the gate makes the in-flight task stop within one
//!   block and hand over its **latest checkpointed result** — the
//!   elastic-inference guarantee;
//! * plans come from any [`PlannerSource`] — EINet with a trained
//!   CS-Predictor ([`EinetSource`]), a fixed plan ([`StaticSource`]), or the
//!   run-everything default;
//! * [`Preemptor`] drives a gate from a kill-time distribution, emulating an
//!   unpredictable high-priority workload;
//! * [`ExecutorPool`] is the serving substrate: N workers (each owning a
//!   clone of the trained network) behind a **bounded, deadline-aware
//!   scheduler queue** ([`SchedQueue`]) — earliest-deadline-first dispatch,
//!   adaptive batch coalescing of compatible requests into one stacked
//!   forward (capped by [`PoolConfig::max_batch`], held open only while an
//!   online [`einet_core::BatchGainModel`] predicts the wait pays off) —
//!   with explicit backpressure ([`SubmitError::QueueFull`]), per-task
//!   deadlines unified with preemption ([`TaskStatus::DeadlineExpired`]),
//!   panic isolation ([`TaskError::Panicked`]) and a lock-free metrics
//!   registry ([`ServeMetrics`]).
//!
//! # Example
//!
//! ```
//! use einet_edge::{ElasticExecutor, InferenceRequest, PreemptionGate, StaticSource};
//! use einet_models::{zoo, BranchSpec};
//! use einet_core::ExitPlan;
//! use einet_tensor::Tensor;
//!
//! let net = zoo::b_alexnet([1, 16, 16], 10, &BranchSpec::paper_default(), 1);
//! let gate = PreemptionGate::new();
//! let exec = ElasticExecutor::spawn(net, Box::new(StaticSource::new(ExitPlan::full(3))), gate);
//! let reply = exec.submit(InferenceRequest::new(Tensor::zeros(&[1, 1, 16, 16]))).unwrap();
//! let outcome = reply.recv().expect("executor reply");
//! assert!(outcome.is_complete());
//! assert_eq!(outcome.outputs.len(), 3);
//! exec.shutdown();
//! ```
//!
//! See [`ExecutorPool`] for the multi-worker serving example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod executor;
mod gate;
mod metrics;
mod pool;
mod preemptor;
mod sched;
mod source;

pub use executor::{ElasticExecutor, InferenceRequest, SubmitError, TaskOutcome, TaskStatus};
pub use gate::{PreemptionGate, StopCause, TaskGuard};
pub use metrics::{
    prom_text, BatchHistogram, BatchSnapshot, HistogramSnapshot, LatencyHistogram, MetricsReporter,
    MetricsSnapshot, PromBlock, RollingWindow, ServeMetrics, WindowSample, WindowSnapshot,
    BATCH_BUCKETS, DEFAULT_WINDOW_BUCKET_MS, LATENCY_BUCKETS_US, NUM_WINDOW_SHARDS,
};
pub use pool::{CompletionFn, ExecutorPool, PoolConfig, TaskError, TaskResult};
pub use preemptor::Preemptor;
pub use sched::{PushError, SchedQueue, SchedTask};
pub use source::{EinetSource, FnSource, PlannerSource, StaticSource};
