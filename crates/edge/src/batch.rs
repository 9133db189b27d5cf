//! The live elastic execution machine.
//!
//! The online loop itself — follow the plan, re-plan after every output,
//! stop on a cut — is [`einet_core::step_plan`], shared with the simulator.
//! This module is the [`PlanMachine`] it drives on real forward passes: one
//! conv pass per block over a *stacked* `[b, c, h, w]` batch of compatible
//! requests, exits evaluated per-sample. A solo task is a batch of one;
//! [`crate::ElasticExecutor`] and [`crate::ExecutorPool`] both run through
//! [`run_elastic_batch`]. The elastic-inference guarantee holds **per
//! member**:
//!
//! * every member carries its own [`TaskGuard`], polled before each conv
//!   part and each branch (a step starts iff the guard has not fired); a
//!   member whose deadline expires mid-batch is finalized right there with
//!   its latest checkpointed outputs, while the rest of the batch keeps
//!   running;
//! * raising the shared gate finalizes every still-active member within
//!   one block;
//! * planning is **leader-driven**: the most urgent member (the EDF head,
//!   index 0) feeds its confidences to the planner; when the leader is
//!   finalized mid-batch, leadership passes to the next active member and
//!   the planner sees that member's own confidences from then on.
//!
//! Per-sample results do not depend on the batch size. Convolution lowers
//! the whole batch into one column matrix and runs one GEMM over it — that
//! is where stacking pays: the weights are packed once per batch and tiny
//! feature maps fill the kernel's vector lanes together — but every output
//! element is still one `p = 0..k` accumulation chain over its own column,
//! so which other samples share the matrix cannot change a bit of it. The
//! linear layers accumulate in the same k-order regardless of the row
//! count, batch norm runs in `Eval` mode on running statistics, and
//! softmax/argmax are row-local. `crates/models/tests/batch_equivalence.rs`
//! pins this on every zoo model the benchmark serves.

use std::time::Duration;

use einet_core::{step_plan, PlanMachine, TimeDistribution};
use einet_models::{exit_outputs_from_logits, ExitOutput, MultiExitNet};
use einet_profile::EtProfile;
use einet_tensor::{Layer, Mode, Tensor};
use einet_trace::{self as trace, Args, Category};

use crate::executor::{InferenceRequest, TaskOutcome, TaskStatus};
use crate::gate::{StopCause, TaskGuard};
use crate::source::PlannerSource;

/// One member of a dispatch.
pub(crate) struct BatchMember<'a> {
    /// Process-wide task id (for trace instants).
    pub id: u64,
    /// The member's request (input row, label, deadline).
    pub request: &'a InferenceRequest,
    /// The member's stop condition (shared gate ∪ own deadline).
    pub guard: TaskGuard,
}

/// Per-member execution state while the batch runs.
#[derive(Default)]
struct MemberState {
    outputs: Vec<ExitOutput>,
    blocks_run: usize,
    /// `Some(status)` once the member's guard has fired; its row still
    /// flows through remaining conv parts but receives no further outputs.
    stopped: Option<TaskStatus>,
}

/// The stacked batch as a [`PlanMachine`].
struct BatchMachine<'a> {
    net: &'a mut MultiExitNet,
    members: &'a [BatchMember<'a>],
    states: Vec<MemberState>,
    /// The activations after the last conv part; stacked from the members'
    /// inputs on the first advance, so a dispatch that is dead on arrival
    /// never copies them.
    x: Option<Tensor>,
    /// The leader's confidence at every exit executed so far.
    seen: Vec<Option<f32>>,
    block_delay: Duration,
}

impl BatchMachine<'_> {
    fn step_args(&self, i: usize) -> Args {
        Args::two("exit", i as u64, "batch_size", self.members.len() as u64)
    }
}

impl PlanMachine for BatchMachine<'_> {
    /// Polls every active member's guard and finalizes the ones whose stop
    /// condition fired.
    fn running(&mut self) -> bool {
        let mut any_active = false;
        for (m, st) in self.members.iter().zip(&mut self.states) {
            if st.stopped.is_some() {
                continue;
            }
            if let Some(cause) = m.guard.check() {
                // The member's global trace id rides along so a cross-process
                // reconciler can attribute the stop to its request.
                let name = match cause {
                    StopCause::Preempted => "preempted",
                    StopCause::DeadlineExpired => "deadline_expired",
                };
                trace::instant(
                    Category::Preempt,
                    name,
                    Args::two("task", m.id, "trace", m.request.trace),
                );
                st.stopped = Some(cause.into());
            } else {
                any_active = true;
            }
        }
        any_active
    }

    fn advance(&mut self, i: usize) -> bool {
        if !self.running() {
            return false;
        }
        let _block = trace::span_args(Category::Block, "block", self.step_args(i));
        let x = self.x.take().unwrap_or_else(|| {
            Tensor::stack_batch(
                &self
                    .members
                    .iter()
                    .map(|m| &m.request.input)
                    .collect::<Vec<_>>(),
            )
        });
        // The full stacked tensor advances even when some rows are already
        // finalized: slicing survivors out would break row alignment and
        // re-stacking costs more than the wasted FLOPs for the rare
        // mid-batch stop.
        self.x = Some(self.net.blocks_mut()[i].conv_part.forward(&x, Mode::Eval));
        for st in self.states.iter_mut().filter(|s| s.stopped.is_none()) {
            st.blocks_run += 1;
        }
        if !self.block_delay.is_zero() {
            std::thread::sleep(self.block_delay);
        }
        true
    }

    fn exit(&mut self, i: usize) -> bool {
        if !self.running() {
            return false;
        }
        let _exit = trace::span_args(Category::Exit, "exit", self.step_args(i));
        let x = self.x.as_ref().expect("exit follows its conv part");
        let logits = self.net.blocks_mut()[i].branch.forward(x, Mode::Eval);
        for (row, st) in exit_outputs_from_logits(i, &logits)
            .into_iter()
            .zip(&mut self.states)
        {
            if st.stopped.is_none() {
                st.outputs.push(row);
            }
        }
        // Leadership: the planner follows the most urgent still-active
        // member, which — being active — holds an output for every exit
        // executed so far. Rewriting all of them (not just exit `i`) is what
        // makes a hand-over since the last exit take effect.
        let leader = self.states.iter().find(|s| s.stopped.is_none());
        for o in &leader.expect("polled active above").outputs {
            self.seen[o.exit] = Some(o.confidence);
        }
        true
    }

    fn confidences(&self) -> &[Option<f32>] {
        &self.seen
    }
}

/// Runs plan-driven elastic inference over all members as one stacked
/// forward. Returns one [`TaskOutcome`] per member, in input order.
///
/// # Panics
///
/// Panics when the planner returns a plan whose length differs from the
/// network's exit count — the contract [`step_plan`] enforces for the
/// simulator too. Inside [`crate::ExecutorPool`] this surfaces as a task
/// error, not a dead worker.
pub(crate) fn run_elastic_batch(
    net: &mut MultiExitNet,
    et: &EtProfile,
    dist: &TimeDistribution,
    source: &dyn PlannerSource,
    members: &[BatchMember<'_>],
    block_delay: Duration,
) -> Vec<TaskOutcome> {
    assert!(!members.is_empty(), "batch must be non-empty");
    let mut machine = BatchMachine {
        net,
        members,
        states: members.iter().map(|_| MemberState::default()).collect(),
        x: None,
        seen: vec![None; et.num_exits()],
        block_delay,
    };
    step_plan(et, dist, source.make().as_mut(), &mut machine);
    members
        .iter()
        .zip(machine.states)
        .map(|(m, st)| {
            let correct = m
                .request
                .label
                .and_then(|l| st.outputs.last().map(|o| o.predicted == l));
            TaskOutcome {
                outputs: st.outputs,
                // Whoever no guard stopped ran to the end of the plan.
                status: st.stopped.unwrap_or(TaskStatus::Completed),
                blocks_run: st.blocks_run,
                correct,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use einet_core::{ExitPlan, PlanContext, Planner, PlannerDecision};
    use einet_models::{zoo, BranchSpec};
    use einet_profile::EdgePlatform;

    use super::*;
    use crate::gate::PreemptionGate;
    use crate::source::FnSource;

    /// Full plan; records what it is shown, and stops member 0 (alone) from
    /// inside its second call, i.e. right after exit 0.
    struct Recorder {
        seen: Arc<Mutex<Vec<Vec<Option<f32>>>>>,
        leader_gate: PreemptionGate,
    }

    impl Planner for Recorder {
        fn name(&self) -> String {
            "recorder".into()
        }

        fn plan(&mut self, ctx: &PlanContext<'_>) -> PlannerDecision {
            let mut seen = self.seen.lock().unwrap();
            seen.push(ctx.executed.to_vec());
            if seen.len() == 2 {
                self.leader_gate.raise();
            }
            PlannerDecision::Plan(ExitPlan::full(3))
        }
    }

    #[test]
    fn a_hand_over_shows_the_planner_the_new_leaders_own_confidences() {
        let mut net = zoo::b_alexnet([1, 16, 16], 10, &BranchSpec::paper_default(), 5);
        let et = EtProfile::from_cost_model(&net, EdgePlatform::JetsonClass);
        let requests =
            [0.2, 0.9].map(|v| InferenceRequest::new(Tensor::filled(&[1, 1, 16, 16], v)));
        // One gate per member, so the test can stop the leader alone.
        let gates = [PreemptionGate::new(), PreemptionGate::new()];
        let members: Vec<BatchMember<'_>> = (0..2)
            .map(|m| BatchMember {
                id: m as u64 + 1,
                request: &requests[m],
                guard: TaskGuard::new(gates[m].clone(), None),
            })
            .collect();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (planner_seen, leader_gate) = (Arc::clone(&seen), gates[0].clone());
        let source = FnSource::new("recorder", move || {
            Box::new(Recorder {
                seen: Arc::clone(&planner_seen),
                leader_gate: leader_gate.clone(),
            }) as Box<dyn Planner>
        });
        let outcomes = run_elastic_batch(
            &mut net,
            &et,
            &TimeDistribution::Uniform,
            &source,
            &members,
            Duration::ZERO,
        );
        assert_eq!(outcomes[0].status, TaskStatus::Preempted);
        assert_eq!((outcomes[0].outputs.len(), outcomes[0].blocks_run), (1, 1));
        assert!(outcomes[1].is_complete());
        let conf = |m: usize, exit: usize| Some(outcomes[m].outputs[exit].confidence);
        assert_ne!(conf(0, 0), conf(1, 0), "the members must differ");
        assert_eq!(
            *seen.lock().unwrap(),
            vec![
                vec![None, None, None],
                // Member 0 leads until the planner itself stops it ...
                vec![conf(0, 0), None, None],
                // ... and then exit 0 reads as member 1 saw it.
                vec![conf(1, 0), conf(1, 1), None],
            ]
        );
    }
}
