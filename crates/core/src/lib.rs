//! # einet-core
//!
//! The primary contribution of the EINet paper: a **sample-wise planner for
//! elastic DNN inference with unpredictable exit**.
//!
//! A real-time inference task may be killed at any moment (power outage, 5G
//! vRAN preemption, user abort). EINet keeps a best-effort result ready at
//! all times by deciding, per sample and continuously, *which exit branches
//! of a multi-exit network to execute and which to skip*:
//!
//! * [`ExitPlan`] — a bitset over exits: bit `i` set ⇒ execute branch `i`.
//! * [`TimeDistribution`] — the assumed distribution of the kill time
//!   (uniform, truncated Gaussian, or arbitrary piecewise density —
//!   Section V-A and Fig. 7).
//! * [`AccuracyExpectation`] — Algorithm 1: scores a plan by the expected
//!   confidence of the result held when the kill occurs.
//! * [`SearchEngine`] — Algorithm 2: hybrid enumeration + greedy search for
//!   a near-optimal plan; plus [`search`] building blocks (pure enumeration,
//!   greedy, random) used as baselines.
//! * [`Planner`] implementations — EINet itself ([`EinetPlanner`]) and every
//!   baseline of Section VI: static percentage plans, the offline-optimal
//!   static plan, confidence-threshold early exit, random-search EINet,
//!   classic single-exit, compressed single-exit, and the no-skip multi-exit
//!   network.
//! * [`step_plan`] — the Section V online loop, written once over a
//!   [`PlanMachine`]; [`ElasticRuntime`] is the simulated-clock machine that
//!   records a sample's planned run ([`Trajectory`]), cuts it at a kill
//!   time ([`ElasticOutcome`]) and scores overall accuracy with the kill
//!   integrated exactly; `einet-edge` supplies the live one.
//! * [`eval`] — fixed-plan accuracy forms and baseline transforms used by
//!   the experiment runners.
//! * [`BatchGainModel`] — the online service-time/arrival cost model behind
//!   the serving layer's adaptive batch coalescing (`einet-edge`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batching;
mod expectation;
mod plan;
mod planner;
mod runtime;
mod time_dist;

pub mod eval;
pub mod search;

pub use batching::{BatchGainModel, MAX_TRACKED_BATCH};
pub use expectation::{expectation, expectation_reference, AccuracyExpectation};
pub use plan::ExitPlan;
pub use planner::{
    AllExitsPlanner, ClassicPlanner, ConfidenceThresholdPlanner, EinetPlanner, PlanContext,
    Planner, PlannerDecision, ProfilePriorPlanner, RandomSearchPlanner, StaticPlanner,
};
pub use runtime::{
    step_plan, ElasticOutcome, ElasticRuntime, PlanMachine, SampleTable, Trajectory,
};
pub use search::{CacheStats, ExpectationCache, SearchEngine};
pub use time_dist::TimeDistribution;
