//! The elastic-inference runtime (Section V).
//!
//! [`step_plan`] is the online loop, written once: conv parts always
//! advance, branches run only when the current plan executes them, the
//! planner re-plans after every output, and a cut keeps the last
//! checkpoint. It drives a [`PlanMachine`] that only knows how to run one
//! step; the live executors in `einet-edge` are one such machine, and
//! [`ElasticRuntime`] is the other — a simulated clock that records the
//! planned run of a sample as a [`Trajectory`].
//!
//! No planner reads the clock or the kill, so a sample's trajectory is the
//! same whenever the kill lands; a kill only cuts it short. The paper's
//! evaluation draws a random kill per sample and scores the last result
//! produced before it; [`ElasticRuntime::overall_accuracy`] integrates that
//! draw exactly over each trajectory instead of sampling it.
//!
//! Because profiling already captured each exit's prediction and confidence
//! for every test sample ([`SampleTable`]), the simulation never re-runs the
//! network — only the *planner* (CS-Predictor + Search Engine) runs live,
//! exactly the component under evaluation.

use einet_profile::{CsProfile, EtProfile};
use einet_trace::{self as trace, Args, Category};

use crate::plan::ExitPlan;
use crate::planner::{PlanContext, Planner, PlannerDecision};
use crate::time_dist::TimeDistribution;

/// Everything the simulator needs about one test sample: the confidence and
/// prediction every exit *would* produce, plus the label.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleTable {
    /// Confidence score at each exit.
    pub confidences: Vec<f32>,
    /// Predicted class at each exit.
    pub predictions: Vec<u16>,
    /// Ground-truth label.
    pub label: u16,
}

impl SampleTable {
    /// Extracts sample `i` from a CS-profile.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn from_profile(profile: &CsProfile, i: usize) -> Self {
        SampleTable {
            confidences: profile.confidences(i).to_vec(),
            predictions: profile.predictions(i).to_vec(),
            label: profile.label(i),
        }
    }

    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.confidences.len()
    }
}

/// The result at one exit as recorded by the runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmittedOutput {
    /// Which exit produced the result.
    pub exit: usize,
    /// The predicted class.
    pub predicted: u16,
    /// The confidence score.
    pub confidence: f32,
}

/// The outcome of one elastic run against one kill time.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticOutcome {
    /// The most recent output available when the run ended, if any — the
    /// elastic-inference guarantee is that this is what the application
    /// receives instead of nothing.
    pub last: Option<EmittedOutput>,
    /// Whether that output matches the label (`false` when there is none).
    pub correct: bool,
    /// Total outputs produced before the end.
    pub outputs: usize,
    /// Whether inference ran to completion before the kill.
    pub finished: bool,
    /// The kill time used, in milliseconds.
    pub kill_ms: f64,
}

/// One sample's planned run to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Every checkpointed output with the clock time its branch ended
    /// (before any replanning overhead), in commit order.
    pub checkpoints: Vec<(f64, EmittedOutput)>,
    /// When the run ended: the end of its plan, or the replan that stopped.
    pub end_ms: f64,
}

/// Simulated-clock elastic executor binding a profile and a kill-time
/// distribution.
#[derive(Debug, Clone, Copy)]
pub struct ElasticRuntime<'a> {
    et: &'a EtProfile,
    dist: &'a TimeDistribution,
    replan_overhead_ms: f64,
}

impl<'a> ElasticRuntime<'a> {
    /// Creates a runtime with zero replanning overhead (the paper's C search
    /// engine costs ~0.13 ms, negligible against block times; see Table I).
    pub fn new(et: &'a EtProfile, dist: &'a TimeDistribution) -> Self {
        ElasticRuntime {
            et,
            dist,
            replan_overhead_ms: 0.0,
        }
    }

    /// Charges `ms` of clock time at every replanning step, for studying
    /// planner-overhead sensitivity.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative.
    #[must_use]
    pub fn with_replan_overhead(mut self, ms: f64) -> Self {
        assert!(ms >= 0.0, "overhead must be non-negative");
        self.replan_overhead_ms = ms;
        self
    }

    /// The profile horizon: the kill time is drawn from `[0, horizon]`.
    pub fn horizon_ms(&self) -> f64 {
        self.et.total_ms()
    }

    /// The profile driving this runtime.
    pub fn profile(&self) -> &EtProfile {
        self.et
    }

    /// The kill-time distribution.
    pub fn distribution(&self) -> &TimeDistribution {
        self.dist
    }

    /// Runs one sample to completion under `planner`: the shared
    /// [`step_plan`] loop over a virtual-clock machine that never dies.
    ///
    /// # Panics
    ///
    /// Panics if the sample's exit count differs from the profile's.
    pub fn trajectory(&self, table: &SampleTable, planner: &mut dyn Planner) -> Trajectory {
        assert_eq!(
            table.num_exits(),
            self.et.num_exits(),
            "sample/profile exit count mismatch"
        );
        planner.reset();
        let mut sim = SimMachine {
            rt: self,
            table,
            t: 0.0,
            executed: vec![None; table.num_exits()],
            checkpoints: Vec::new(),
        };
        step_plan(self.et, self.dist, planner, &mut sim);
        Trajectory {
            checkpoints: sim.checkpoints,
            end_ms: sim.t,
        }
    }

    /// Runs one sample against one kill time under `planner`: its
    /// [`Trajectory`] cut at `kill_ms`, keeping every checkpoint committed
    /// by then.
    ///
    /// # Panics
    ///
    /// Panics if the sample's exit count differs from the profile's.
    pub fn run_sample(
        &self,
        table: &SampleTable,
        planner: &mut dyn Planner,
        kill_ms: f64,
    ) -> ElasticOutcome {
        let run = self.trajectory(table, planner);
        let outputs = run
            .checkpoints
            .iter()
            .take_while(|(t, _)| *t <= kill_ms)
            .count();
        let last = outputs.checked_sub(1).map(|k| run.checkpoints[k].1);
        ElasticOutcome {
            last,
            correct: last.is_some_and(|o| o.predicted == table.label),
            outputs,
            finished: run.end_ms <= kill_ms,
            kill_ms,
        }
    }

    /// Overall accuracy of `planner` over `tables` (Section VI's metric),
    /// with the kill integrated exactly: each checkpoint scores
    /// `[prediction == label]` weighted by the kill-time mass between its
    /// commit and the next one (the horizon after the last). A kill before
    /// the first checkpoint yields no result and scores 0.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or a sample's exit count differs from the
    /// profile's.
    pub fn overall_accuracy(&self, tables: &[SampleTable], planner: &mut dyn Planner) -> f64 {
        assert!(!tables.is_empty(), "no samples to evaluate");
        let horizon = self.horizon_ms();
        let sum: f64 = tables
            .iter()
            .map(|table| {
                let run = self.trajectory(table, planner);
                let cps = &run.checkpoints;
                cps.iter()
                    .enumerate()
                    .filter(|(_, (_, out))| out.predicted == table.label)
                    .map(|(k, &(t, _))| {
                        // With replan overhead a checkpoint may land past
                        // the horizon; its interval then has no mass.
                        let next = cps.get(k + 1).map_or(horizon.max(t), |c| c.0);
                        self.dist.mass_between(t, next, horizon)
                    })
                    .sum::<f64>()
            })
            .sum();
        sum / tables.len() as f64
    }
}

/// What [`step_plan`] drives: something that can run a multi-exit network
/// one step at a time and be cut short at any step. The simulator implements
/// it on a virtual clock over a [`SampleTable`]; `einet-edge` implements it
/// on real forward passes over a stacked batch under per-member guards.
pub trait PlanMachine {
    /// Whether anything is still running. Polled once before the initial
    /// plan, so a run that is dead on arrival never consults the planner.
    fn running(&mut self) -> bool;

    /// Advances the conv part of block `i`. `false` means the step was cut
    /// short (simulator: it would end after the kill; live: every member's
    /// guard had fired before it started) and the run is over.
    fn advance(&mut self, i: usize) -> bool;

    /// Evaluates exit branch `i` and checkpoints its output. `false` as for
    /// [`PlanMachine::advance`]; an output checkpointed before the cut
    /// stays.
    fn exit(&mut self, i: usize) -> bool;

    /// Per exit, the confidence the planner should see there: `None` until
    /// the exit has executed, then its output's — in a batch the current
    /// leader's, so the context follows a leadership hand-over. Read before
    /// every (re)plan.
    fn confidences(&self) -> &[Option<f32>];
}

/// The online loop of Section V, once: conv parts always advance, branches
/// follow the live plan, the planner re-plans after every output (its past
/// frozen to what actually ran), and a cut keeps whatever `machine` has
/// checkpointed. Returns `true` when the run reached the end of its plan or
/// the planner said [`PlannerDecision::Stop`], `false` when `machine` cut
/// it short.
///
/// # Panics
///
/// Panics when the planner returns a plan whose length differs from the
/// profile's exit count.
pub fn step_plan<M: PlanMachine + ?Sized>(
    et: &EtProfile,
    dist: &TimeDistribution,
    planner: &mut dyn Planner,
    machine: &mut M,
) -> bool {
    let n = et.num_exits();
    if !machine.running() {
        return false;
    }
    let mut history = ExitPlan::empty(n);
    let mut plan = ExitPlan::empty(n);
    // A (re)plan is due before the first block and after every output.
    let mut plan_due = true;
    for i in 0..n {
        if plan_due {
            let ctx = PlanContext {
                et,
                dist,
                executed: machine.confidences(),
                history: &history,
                next_exit: i,
            };
            let _replan = match i.checked_sub(1) {
                None => trace::span_args(Category::Replan, "initial_plan", Args::none()),
                Some(after) => trace::span_args(
                    Category::Replan,
                    "replan",
                    Args::one("after_exit", after as u64),
                ),
            };
            match planner.plan(&ctx) {
                PlannerDecision::Plan(p) => {
                    assert_eq!(p.len(), n, "planner returned wrong plan length");
                    plan = p.with_frozen_prefix(&history, i);
                }
                PlannerDecision::Stop => return true,
            }
            plan_due = false;
        }
        if !machine.advance(i) {
            return false;
        }
        if plan.get(i) {
            if !machine.exit(i) {
                return false;
            }
            history.set(i, true);
            plan_due = true;
        }
    }
    true
}

/// The simulator as a [`PlanMachine`]: a virtual clock that always runs
/// and records every checkpoint with its commit time.
struct SimMachine<'a> {
    rt: &'a ElasticRuntime<'a>,
    table: &'a SampleTable,
    t: f64,
    executed: Vec<Option<f32>>,
    checkpoints: Vec<(f64, EmittedOutput)>,
}

impl SimMachine<'_> {
    fn sim_args(&self, i: usize) -> Args {
        Args::two("exit", i as u64, "sim_us", (self.t * 1_000.0) as u64)
    }
}

impl PlanMachine for SimMachine<'_> {
    fn running(&mut self) -> bool {
        true
    }

    fn advance(&mut self, i: usize) -> bool {
        // The span's wall time is the simulation cost of this block; the
        // simulated clock rides along in the args.
        let _block = trace::span_args(Category::Block, "sim_block", self.sim_args(i));
        self.t += self.rt.et.conv_ms()[i];
        true
    }

    fn exit(&mut self, i: usize) -> bool {
        self.t += self.rt.et.branch_ms()[i];
        self.executed[i] = Some(self.table.confidences[i]);
        let out = EmittedOutput {
            exit: i,
            predicted: self.table.predictions[i],
            confidence: self.table.confidences[i],
        };
        self.checkpoints.push((self.t, out));
        trace::instant(Category::Exit, "sim_exit", self.sim_args(i));
        // The replan that follows every output but the last costs clock
        // time too; an output already emitted survives a kill inside it.
        if i + 1 < self.table.num_exits() {
            self.t += self.rt.replan_overhead_ms;
        }
        true
    }

    fn confidences(&self) -> &[Option<f32>] {
        &self.executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::StaticPlanner;

    fn table() -> SampleTable {
        SampleTable {
            confidences: vec![0.4, 0.6, 0.9],
            predictions: vec![2, 7, 7],
            label: 7,
        }
    }

    fn et() -> EtProfile {
        EtProfile::new(vec![1.0, 1.0, 1.0], vec![0.5, 0.5, 0.5]).unwrap()
    }

    #[test]
    fn full_plan_emits_every_output() {
        let et = et();
        let dist = TimeDistribution::Uniform;
        let rt = ElasticRuntime::new(&et, &dist);
        let mut planner = StaticPlanner::new(ExitPlan::full(3), "all");
        let out = rt.run_sample(&table(), &mut planner, 100.0);
        assert!(out.finished);
        assert_eq!(out.outputs, 3);
        assert!(out.correct);
        assert_eq!(out.last.unwrap().exit, 2);
    }

    #[test]
    fn kill_before_first_output_yields_nothing() {
        let et = et();
        let dist = TimeDistribution::Uniform;
        let rt = ElasticRuntime::new(&et, &dist);
        let mut planner = StaticPlanner::new(ExitPlan::full(3), "all");
        // First output needs conv(1.0) + branch(0.5).
        let out = rt.run_sample(&table(), &mut planner, 1.2);
        assert!(out.last.is_none());
        assert!(!out.correct);
        assert_eq!(out.outputs, 0);
    }

    #[test]
    fn kill_mid_branch_keeps_previous_output() {
        let et = et();
        let dist = TimeDistribution::Uniform;
        let rt = ElasticRuntime::new(&et, &dist);
        let mut planner = StaticPlanner::new(ExitPlan::full(3), "all");
        // Exit 0 completes at 1.5; exit 1 would complete at 3.0.
        let out = rt.run_sample(&table(), &mut planner, 2.9);
        let last = out.last.unwrap();
        assert_eq!(last.exit, 0);
        assert_eq!(last.predicted, 2);
        assert!(!out.correct, "exit 0 predicts the wrong class");
    }

    #[test]
    fn skipping_branches_reaches_deep_exit_sooner() {
        let et = et();
        let dist = TimeDistribution::Uniform;
        let rt = ElasticRuntime::new(&et, &dist);
        // With all branches, exit 2 completes at 4.5; last-only completes
        // it at 3.5.
        let mut all = StaticPlanner::new(ExitPlan::full(3), "all");
        let mut last_only = StaticPlanner::new(ExitPlan::last_only(3), "classic");
        let kill = 4.0;
        let out_all = rt.run_sample(&table(), &mut all, kill);
        let out_last = rt.run_sample(&table(), &mut last_only, kill);
        assert_eq!(out_all.last.unwrap().exit, 1);
        assert_eq!(out_last.last.unwrap().exit, 2);
        assert!(out_last.correct);
    }

    #[test]
    fn replan_overhead_delays_outputs() {
        let et = et();
        let dist = TimeDistribution::Uniform;
        let rt = ElasticRuntime::new(&et, &dist).with_replan_overhead(10.0);
        let mut planner = StaticPlanner::new(ExitPlan::full(3), "all");
        // First output at 1.5 still fine; the replanning after it costs 10,
        // so the second output never lands before kill=5.
        let out = rt.run_sample(&table(), &mut planner, 5.0);
        assert_eq!(out.outputs, 1);
    }

    #[test]
    fn zero_kill_time_produces_no_result() {
        let et = et();
        let dist = TimeDistribution::Uniform;
        let rt = ElasticRuntime::new(&et, &dist);
        let mut planner = StaticPlanner::new(ExitPlan::full(3), "all");
        let out = rt.run_sample(&table(), &mut planner, 0.0);
        assert!(out.last.is_none());
        assert!(!out.finished);
    }

    #[test]
    fn horizon_is_total_profile_time() {
        let et = et();
        let dist = TimeDistribution::Uniform;
        let rt = ElasticRuntime::new(&et, &dist);
        assert_eq!(rt.horizon_ms(), 4.5);
    }
}
