//! The one loop is the right loop: a kill placed exactly at a step boundary
//! yields the same checkpoint from the solo executor, a one-member pool
//! dispatch, every member of a four-member pool batch — and the simulator.
//!
//! No wall clock decides anything here. The live kill is a planner that
//! raises the [`PreemptionGate`] inside its `k`-th `plan` call, i.e. on the
//! worker thread, right after the `(k−1)`-th output was checkpointed and
//! before the next conv part polls its guard; the simulated kill sits at
//! the virtual time of that same boundary.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use einet_core::{
    ElasticRuntime, ExitPlan, PlanContext, Planner, PlannerDecision, SampleTable, StaticPlanner,
    TimeDistribution,
};
use einet_edge::{
    ElasticExecutor, ExecutorPool, FnSource, InferenceRequest, PlannerSource, PoolConfig,
    PreemptionGate, TaskOutcome, TaskStatus,
};
use einet_models::{zoo, BranchSpec, MultiExitNet};
use einet_profile::EtProfile;
use einet_tensor::Tensor;

const EXITS: usize = 3;

fn net() -> MultiExitNet {
    zoo::b_alexnet([1, 16, 16], 10, &BranchSpec::paper_default(), 5)
}

fn request() -> InferenceRequest {
    InferenceRequest::new(Tensor::filled(&[1, 1, 16, 16], 0.2))
}

/// Always answers `plan`; raises `gate` during its `k`-th call (1-based).
struct KillAtCall {
    gate: PreemptionGate,
    plan: ExitPlan,
    k: usize,
    calls: usize,
}

impl Planner for KillAtCall {
    fn name(&self) -> String {
        format!("kill-at-call-{}", self.k)
    }

    fn plan(&mut self, _ctx: &PlanContext<'_>) -> PlannerDecision {
        self.calls += 1;
        if self.calls == self.k {
            self.gate.raise();
        }
        PlannerDecision::Plan(self.plan)
    }
}

fn killer(gate: &PreemptionGate, plan: ExitPlan, k: usize) -> Box<dyn Planner> {
    Box::new(KillAtCall {
        gate: gate.clone(),
        plan,
        k,
        calls: 0,
    })
}

/// Parks the worker inside a `plan` call until released, so that tasks
/// submitted meanwhile are all queued when it next pops a batch.
struct Turnstile {
    entered: Sender<()>,
    release: Receiver<()>,
}

impl Planner for Turnstile {
    fn name(&self) -> String {
        "turnstile".into()
    }

    fn plan(&mut self, _ctx: &PlanContext<'_>) -> PlannerDecision {
        self.entered.send(()).unwrap();
        self.release.recv().unwrap();
        PlannerDecision::Stop
    }
}

fn solo(plan: ExitPlan, k: usize) -> TaskOutcome {
    let gate = PreemptionGate::new();
    let source_gate = gate.clone();
    let exec = ElasticExecutor::spawn(
        net(),
        Box::new(FnSource::new("killer", move || {
            killer(&source_gate, plan, k)
        })),
        gate,
    );
    let outcome = exec.submit(request()).unwrap().recv().unwrap();
    exec.shutdown();
    outcome
}

/// One dispatch of exactly `members` tasks through a one-worker pool.
fn pooled(plan: ExitPlan, k: usize, members: usize) -> Vec<TaskOutcome> {
    let gate = PreemptionGate::new();
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let turnstile = Mutex::new(Some(Turnstile {
        entered: entered_tx,
        release: release_rx,
    }));
    let source_gate = gate.clone();
    // The first planner minted is the turnstile, every later one the killer.
    let mut source = Some(Box::new(FnSource::new("killer", move || {
        match turnstile.lock().unwrap().take() {
            Some(t) => Box::new(t) as Box<dyn Planner>,
            None => killer(&source_gate, plan, k),
        }
    })) as Box<dyn PlannerSource>);
    let pool = ExecutorPool::spawn(
        net(),
        |_| source.take().expect("one worker"),
        gate,
        PoolConfig {
            workers: 1,
            max_batch: members,
            ..PoolConfig::default()
        },
    );
    let parked = pool.submit(request()).unwrap();
    entered.recv().unwrap();
    let replies: Vec<_> = (0..members)
        .map(|_| pool.submit(request()).unwrap())
        .collect();
    release.send(()).unwrap();
    assert!(parked.recv().unwrap().unwrap().outputs.is_empty());
    let outcomes: Vec<TaskOutcome> = replies
        .into_iter()
        .map(|r| r.recv().unwrap().unwrap())
        .collect();
    let snap = pool.metrics().snapshot();
    assert_eq!(snap.batch.sum, 1 + members as u64);
    assert_eq!(snap.batch.count, 2, "the members ran as one dispatch");
    pool.shutdown();
    outcomes
}

#[test]
fn a_kill_at_a_step_boundary_hands_over_the_same_checkpoint_everywhere() {
    // Dyadic times: every sum below is exact, in any order.
    let et = EtProfile::new(vec![1.0, 2.0, 4.0], vec![0.25, 0.5, 0.75]).unwrap();
    let dist = TimeDistribution::Uniform;
    let table = SampleTable {
        confidences: vec![0.3, 0.6, 0.9],
        predictions: vec![1, 2, 3],
        label: 3,
    };
    for plan in [ExitPlan::full(EXITS), ExitPlan::from_indices(EXITS, &[1])] {
        let planned: Vec<usize> = plan.iter_executed().collect();
        // Call 1 is the initial plan; call j + 1 follows the j-th output,
        // except that no replan follows the last exit's. One call more than
        // the run makes is the unkilled case.
        let calls = 1 + planned.iter().filter(|&&e| e + 1 < EXITS).count();
        for k in 1..=calls + 1 {
            let killed = k <= calls;
            // What survives: the outputs before the k-th call, and the
            // blocks up to the last of them.
            let kept: Vec<usize> = planned.iter().copied().take(k - 1).collect();
            let blocks = match (killed, kept.last()) {
                (false, _) => EXITS,
                (true, Some(&e)) => e + 1,
                (true, None) => 0,
            };

            // The simulator, killed at the virtual time of that boundary.
            let boundary_ms: f64 = (0..blocks)
                .map(|i| et.conv_ms()[i] + if plan.get(i) { et.branch_ms()[i] } else { 0.0 })
                .sum();
            let kill_ms = if killed { boundary_ms } else { et.total_ms() };
            let sim = ElasticRuntime::new(&et, &dist).run_sample(
                &table,
                &mut StaticPlanner::new(plan, "fixed"),
                kill_ms,
            );
            assert_eq!(sim.outputs, kept.len(), "sim, plan {plan} k {k}");
            assert_eq!(sim.last.map(|o| o.exit), kept.last().copied());
            assert_eq!(sim.finished, !killed);

            // The live machine, as every call site runs it.
            let mut live = vec![solo(plan, k)];
            live.extend(pooled(plan, k, 1));
            live.extend(pooled(plan, k, 4));
            assert_eq!(live.len(), 6);
            for (who, o) in live.iter().enumerate() {
                let what = format!("runner {who}, plan {plan}, k {k}");
                let exits: Vec<usize> = o.outputs.iter().map(|x| x.exit).collect();
                assert_eq!(exits, kept, "{what}");
                assert_eq!(o.blocks_run, blocks, "{what}");
                let status = if killed {
                    TaskStatus::Preempted
                } else {
                    TaskStatus::Completed
                };
                assert_eq!(o.status, status, "{what}");
                assert_eq!(o.answer().map(|x| x.exit), sim.last.map(|x| x.exit));
                // Same input everywhere: not just the same exits, the same
                // numbers.
                assert_eq!(o.outputs, live[0].outputs, "{what}");
            }
        }
    }
}
