//! # einet-server
//!
//! The multi-tenant serving front-end over [`einet_edge::ExecutorPool`]:
//! what stands between "millions of users" and the elastic executor.
//!
//! * [`ModelRegistry`] owns every registered model: one pool per replica
//!   (replicas minted by cloning the trained [`einet_models::MultiExitNet`]),
//!   a smooth **weighted round-robin** schedule across replicas, spillover
//!   to sibling replicas when the scheduled one is at capacity, and an
//!   explicit [`RouteError::Shed`] only when *every* replica refuses —
//!   backpressure surfaces as a typed response, never as a blocked caller.
//! * [`ReactorServer`] is the one listener: a dependency-free,
//!   line-oriented TCP/JSON ingest loop — one JSON request per line in, one
//!   JSON response per line out (see [`wire`] for the exact format) — with
//!   every connection multiplexed on **one** reactor thread behind an epoll
//!   shim (portable poll(2) fallback, see `sys`). Clients may pipeline
//!   requests; responses return in completion order correlated by `id`.
//!   Queue-full and expired-in-queue sheds map to 429-style responses; a
//!   worker panic to a 500; an unknown model to a 404.
//! * [`ReplicaScaler`] closes the loop from the rolling-window SLO metrics
//!   back to capacity: it grows a model's replica set when windowed SLO
//!   attainment degrades or queues stay deep, and shrinks it back (with
//!   hysteresis and cooldown) when the burst passes.
//! * Per-model [`einet_edge::ServeMetrics`] stay per-pool and are merged on
//!   demand ([`ModelRegistry::model_snapshot`]); the registry renders one
//!   Prometheus exposition with a `model` label per series
//!   ([`ModelRegistry::to_prom_text`]). Trace spans and cross-thread flows
//!   keep flowing from the pools, so `trace_check` reconciliation holds
//!   per model.
//!
//! # Example
//!
//! ```
//! use einet_server::{ModelRegistry, ModelSpec};
//! use einet_edge::{InferenceRequest, PoolConfig, StaticSource};
//! use einet_models::{zoo, BranchSpec};
//! use einet_core::ExitPlan;
//! use einet_tensor::Tensor;
//!
//! let mut registry = ModelRegistry::new();
//! let net = zoo::b_alexnet([1, 16, 16], 10, &BranchSpec::paper_default(), 1);
//! registry.register(
//!     "alexnet",
//!     net,
//!     |_replica, _worker| Box::new(StaticSource::new(ExitPlan::full(3))),
//!     ModelSpec { pool: PoolConfig { workers: 1, ..PoolConfig::default() }, ..ModelSpec::default() },
//! );
//! let reply = registry
//!     .submit("alexnet", InferenceRequest::new(Tensor::zeros(&[1, 1, 16, 16])))
//!     .unwrap();
//! assert!(reply.recv().unwrap().unwrap().is_complete());
//! assert!(registry.model_snapshot("alexnet").unwrap().reconciles());
//! ```

// Unsafe is denied everywhere except the `sys` module, which owns the raw
// epoll/poll/pipe FFI (std links libc; no new dependencies).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod reactor;
mod registry;
mod sys;
pub mod wire;

pub use reactor::{ReactorConfig, ReactorServer};
pub use registry::{ModelRegistry, ModelSpec, ReplicaScaler, RouteError, RouteStats, ScalerConfig};
