//! Cross-crate planner/runtime invariants on synthetic profiles (no
//! training, fast).

use einet::core::eval::{plan_expected, plan_ground_truth};
use einet::core::{
    expectation, AllExitsPlanner, ClassicPlanner, ConfidenceThresholdPlanner, ElasticRuntime,
    ExitPlan, SampleTable, StaticPlanner, TimeDistribution,
};
use einet::profile::EtProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A synthetic cohort where deeper exits are more accurate and more
/// confident — the shape real multi-exit networks produce.
fn cohort(n_exits: usize, n_samples: usize, seed: u64) -> (EtProfile, Vec<SampleTable>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let conv: Vec<f64> = (0..n_exits).map(|_| rng.gen_range(0.6..1.4)).collect();
    let branch: Vec<f64> = (0..n_exits).map(|_| rng.gen_range(0.15..0.4)).collect();
    let et = EtProfile::new(conv, branch).unwrap();
    let tables = (0..n_samples)
        .map(|s| {
            let label = (s % 7) as u16;
            let mut confidences = Vec::with_capacity(n_exits);
            let mut predictions = Vec::with_capacity(n_exits);
            for e in 0..n_exits {
                let depth = e as f32 / (n_exits - 1).max(1) as f32;
                let p_correct = 0.4 + 0.5 * depth;
                let correct = rng.gen::<f32>() < p_correct;
                predictions.push(if correct { label } else { label + 1 });
                confidences.push((p_correct + rng.gen_range(-0.1..0.1)).clamp(0.05, 1.0));
            }
            SampleTable {
                confidences,
                predictions,
                label,
            }
        })
        .collect();
    (et, tables)
}

#[test]
fn any_multi_exit_plan_beats_classic_on_deep_horizons() {
    let (et, tables) = cohort(8, 60, 1);
    let dist = TimeDistribution::Uniform;
    let mut classic = ClassicPlanner;
    let mut all = AllExitsPlanner;
    let mut half = StaticPlanner::percent(8, 0.5);
    let rt = ElasticRuntime::new(&et, &dist);
    let acc_classic = rt.overall_accuracy(&tables, &mut classic);
    let acc_all = rt.overall_accuracy(&tables, &mut all);
    let acc_half = rt.overall_accuracy(&tables, &mut half);
    assert!(acc_all > acc_classic);
    assert!(acc_half > acc_classic);
}

#[test]
fn expectation_orders_plans_like_ground_truth() {
    let (et, tables) = cohort(10, 80, 2);
    let dist = TimeDistribution::Uniform;
    let plans = [
        ExitPlan::full(10),
        ExitPlan::static_percent(10, 0.5),
        ExitPlan::static_percent(10, 0.25),
        ExitPlan::last_only(10),
    ];
    let expected: Vec<f64> = plans
        .iter()
        .map(|p| plan_expected(&et, &dist, &tables, p))
        .collect();
    let truth: Vec<f64> = plans
        .iter()
        .map(|p| plan_ground_truth(&et, &dist, &tables, p))
        .collect();
    // Rank correlation between the metric and reality: the best and worst
    // plan by expectation must match the best and worst by ground truth.
    let argmax = |xs: &[f64]| {
        xs.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
    };
    let argmin = |xs: &[f64]| {
        xs.iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
    };
    assert_eq!(argmax(&expected), argmax(&truth));
    assert_eq!(argmin(&expected), argmin(&truth));
}

#[test]
fn confidence_threshold_commits_and_stops() {
    let (et, tables) = cohort(6, 1, 3).clone();
    let dist = TimeDistribution::Uniform;
    let runtime = ElasticRuntime::new(&et, &dist);
    // Threshold so low the very first exit triggers a stop.
    let mut planner = ConfidenceThresholdPlanner::new(0.05);
    let out = runtime.run_sample(&tables[0], &mut planner, et.total_ms() * 10.0);
    assert!(out.finished);
    assert_eq!(out.outputs, 1, "stops right after the first confident exit");
    assert_eq!(out.last.unwrap().exit, 0);
}

#[test]
fn kill_beyond_horizon_always_finishes_full_plan() {
    let (et, tables) = cohort(5, 20, 4);
    let dist = TimeDistribution::Uniform;
    let runtime = ElasticRuntime::new(&et, &dist);
    let mut planner = AllExitsPlanner;
    for t in &tables {
        let out = runtime.run_sample(t, &mut planner, et.total_ms() + 1.0);
        assert!(out.finished);
        assert_eq!(out.outputs, 5);
        assert_eq!(out.last.unwrap().exit, 4);
    }
}

#[test]
fn expectation_of_full_plan_matches_reference_cohort_average() {
    let (et, tables) = cohort(7, 30, 5);
    let dist = TimeDistribution::gaussian(0.5);
    let plan = ExitPlan::full(7);
    let avg = plan_expected(&et, &dist, &tables, &plan);
    let manual: f64 = tables
        .iter()
        .map(|t| expectation(&et, &dist, &plan, &t.confidences))
        .sum::<f64>()
        / tables.len() as f64;
    assert!((avg - manual).abs() < 1e-12);
}

#[test]
fn zero_and_tiny_kill_times_never_panic() {
    let (et, tables) = cohort(4, 5, 6);
    let dist = TimeDistribution::Uniform;
    let runtime = ElasticRuntime::new(&et, &dist);
    let mut planner = AllExitsPlanner;
    for kill in [0.0, 1e-9, 0.1] {
        for t in &tables {
            let out = runtime.run_sample(t, &mut planner, kill);
            assert!(!out.correct || out.last.is_some());
        }
    }
}
