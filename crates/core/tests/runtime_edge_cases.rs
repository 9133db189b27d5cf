//! Failure-injection and edge-case tests for the elastic runtime and
//! planners.

use einet_core::{
    AllExitsPlanner, ClassicPlanner, ConfidenceThresholdPlanner, EinetPlanner, ElasticRuntime,
    ExitPlan, PlanContext, Planner, PlannerDecision, ProfilePriorPlanner, SampleTable,
    SearchEngine, StaticPlanner, TimeDistribution,
};
use einet_predictor::CsPredictor;
use einet_profile::EtProfile;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn single_exit_profile() -> EtProfile {
    EtProfile::new(vec![2.0], vec![1.0]).unwrap()
}

fn single_exit_table(correct: bool) -> SampleTable {
    SampleTable {
        confidences: vec![0.9],
        predictions: vec![if correct { 3 } else { 4 }],
        label: 3,
    }
}

#[test]
fn single_exit_model_works_end_to_end() {
    let et = single_exit_profile();
    let dist = TimeDistribution::Uniform;
    let rt = ElasticRuntime::new(&et, &dist);
    let mut planner = AllExitsPlanner;
    // Kill after completion (conv 2.0 + branch 1.0 = 3.0).
    let out = rt.run_sample(&single_exit_table(true), &mut planner, 3.5);
    assert!(out.finished);
    assert!(out.correct);
    // Kill during the branch.
    let out = rt.run_sample(&single_exit_table(true), &mut planner, 2.5);
    assert!(out.last.is_none());
}

#[test]
fn planners_handle_single_exit_models() {
    let et = single_exit_profile();
    let dist = TimeDistribution::Uniform;
    let executed = [None];
    let history = ExitPlan::empty(1);
    let ctx = PlanContext {
        et: &et,
        dist: &dist,
        executed: &executed,
        history: &history,
        next_exit: 0,
    };
    let mut planners: Vec<Box<dyn Planner>> = vec![
        Box::new(AllExitsPlanner),
        Box::new(ClassicPlanner),
        Box::new(ConfidenceThresholdPlanner::new(0.5)),
        Box::new(StaticPlanner::percent(1, 1.0)),
        Box::new(ProfilePriorPlanner::new(vec![0.7], SearchEngine::default())),
    ];
    for p in planners.iter_mut() {
        match p.plan(&ctx) {
            PlannerDecision::Plan(plan) => assert_eq!(plan.len(), 1, "{}", p.name()),
            PlannerDecision::Stop => {}
        }
    }
}

#[test]
fn einet_survives_degenerate_confidences() {
    // All-zero and all-one confidence tables must not panic or divide by
    // zero anywhere in the planner stack.
    let et = EtProfile::new(vec![1.0; 4], vec![0.5; 4]).unwrap();
    let dist = TimeDistribution::Uniform;
    let predictor = CsPredictor::new(4, 16, 1);
    for conf in [0.0_f32, 1.0] {
        let tables = vec![SampleTable {
            confidences: vec![conf; 4],
            predictions: vec![0; 4],
            label: 0,
        }];
        let mut planner = EinetPlanner::new(&predictor, vec![conf; 4], SearchEngine::default());
        let acc = ElasticRuntime::new(&et, &dist).overall_accuracy(&tables, &mut planner);
        assert!((0.0..=1.0).contains(&acc));
    }
}

#[test]
fn piecewise_distribution_with_spike_drives_early_plans() {
    // All kill mass in the first third of the horizon: the planner should
    // strongly prefer an early output (a later-only plan scores zero).
    let et = EtProfile::new(vec![1.0; 10], vec![0.5; 10]).unwrap();
    let mut weights = vec![0.0; 10];
    weights[..3].fill(1.0);
    let dist = TimeDistribution::piecewise(weights);
    let prior = vec![0.5_f32; 10];
    let engine = SearchEngine::default();
    let (plan, _) = engine.search(&et, &dist, &prior, 0, None);
    assert!(
        plan.get(0),
        "with all kill mass up front, exit 0 must be executed: {plan}"
    );
}

#[test]
fn late_spike_distribution_prefers_deep_output() {
    let et = EtProfile::new(vec![1.0; 10], vec![0.5; 10]).unwrap();
    let mut weights = vec![0.0; 10];
    weights[9] = 1.0;
    let dist = TimeDistribution::piecewise(weights);
    // Deeper exits are better for this cohort.
    let prior: Vec<f32> = (0..10).map(|i| 0.3 + 0.07 * i as f32).collect();
    let engine = SearchEngine::default();
    let (plan, _) = engine.search(&et, &dist, &prior, 0, None);
    // The plan must execute at least one exit deep enough to matter; the
    // early exits are useless under a late-only kill.
    let deepest = plan.iter_executed().last().unwrap();
    assert!(deepest >= 5, "plan {plan} too shallow for late kills");
}

#[test]
fn replanning_cannot_rewrite_history() {
    // A malicious planner that always demands the full plan must still see
    // its past skips preserved by the runtime merge.
    struct FlipFlop;
    impl Planner for FlipFlop {
        fn name(&self) -> String {
            "flipflop".into()
        }
        fn plan(&mut self, ctx: &PlanContext<'_>) -> PlannerDecision {
            // First call: skip exit 0, execute exit 1; later calls: demand
            // everything (including the already-passed exit 0).
            if ctx.next_exit == 0 {
                PlannerDecision::Plan(ExitPlan::from_indices(3, &[1]))
            } else {
                PlannerDecision::Plan(ExitPlan::full(3))
            }
        }
    }
    let et = EtProfile::new(vec![1.0; 3], vec![0.5; 3]).unwrap();
    let dist = TimeDistribution::Uniform;
    let rt = ElasticRuntime::new(&et, &dist);
    let table = SampleTable {
        confidences: vec![0.2, 0.5, 0.9],
        predictions: vec![1, 1, 1],
        label: 1,
    };
    let out = rt.run_sample(&table, &mut FlipFlop, 100.0);
    // Exit 0 was skipped and stays skipped; exits 1 and 2 execute.
    assert_eq!(out.outputs, 2);
    assert_eq!(out.last.unwrap().exit, 2);
}

#[test]
fn exact_accuracy_agrees_with_sampled_kills() {
    // The paper's sampled metric, written out: draw kills, cut each run,
    // count correct answers. With 4000 draws per sample it must land within
    // four standard errors of the exact integral.
    let et = EtProfile::new(vec![1.0, 0.7, 1.3], vec![0.5, 0.4, 0.6]).unwrap();
    let tables: Vec<SampleTable> = (0..50)
        .map(|s| SampleTable {
            confidences: vec![0.4, 0.6, 0.8],
            predictions: vec![(s % 2) as u16, (s % 3 == 0) as u16, 0],
            label: 0,
        })
        .collect();
    let draws = 4000;
    for dist in [
        TimeDistribution::Uniform,
        TimeDistribution::gaussian(0.5),
        TimeDistribution::piecewise(vec![3.0, 0.0, 1.0, 2.0]),
    ] {
        let rt = ElasticRuntime::new(&et, &dist);
        let exact = rt.overall_accuracy(&tables, &mut AllExitsPlanner);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut correct = 0usize;
        for table in &tables {
            for _ in 0..draws {
                let kill = dist.sample(rt.horizon_ms(), &mut rng);
                correct += usize::from(rt.run_sample(table, &mut AllExitsPlanner, kill).correct);
            }
        }
        let n = (tables.len() * draws) as f64;
        let sampled = correct as f64 / n;
        // Bernoulli bound on the standard error: per-sample variances
        // average to at most p(1-p).
        let se = (exact * (1.0 - exact) / n).sqrt();
        assert!(
            (sampled - exact).abs() <= 4.0 * se,
            "{}: sampled {sampled} vs exact {exact} (se {se})",
            dist.id()
        );
    }
}
