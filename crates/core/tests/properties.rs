//! Property-based tests for the planner core: expectation, search, plans,
//! and time distributions.

use einet_core::eval::plan_ground_truth;
use einet_core::search::{enumerate_best, greedy_augment, hybrid_search, random_search};
use einet_core::{
    expectation, expectation_reference, AllExitsPlanner, ClassicPlanner,
    ConfidenceThresholdPlanner, EinetPlanner, ElasticRuntime, ExitPlan, Planner,
    ProfilePriorPlanner, RandomSearchPlanner, SampleTable, SearchEngine, StaticPlanner,
    TimeDistribution,
};
use einet_predictor::CsPredictor;
use einet_profile::EtProfile;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const N: usize = 6;

fn arb_profile() -> impl Strategy<Value = EtProfile> {
    (
        proptest::collection::vec(0.1_f64..3.0, N),
        proptest::collection::vec(0.05_f64..1.0, N),
    )
        .prop_map(|(c, b)| EtProfile::new(c, b).expect("strategy emits valid times"))
}

fn arb_confs() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(0.01_f32..1.0, N)
}

fn arb_plan() -> impl Strategy<Value = ExitPlan> {
    (0u64..(1 << N)).prop_map(|bits| {
        let mut p = ExitPlan::empty(N);
        for i in 0..N {
            p.set(i, (bits >> i) & 1 == 1);
        }
        p
    })
}

fn arb_tables() -> impl Strategy<Value = Vec<SampleTable>> {
    proptest::collection::vec((arb_confs(), proptest::collection::vec(0u16..3, N)), 1..5).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(confidences, predictions)| SampleTable {
                    confidences,
                    predictions,
                    label: 1,
                })
                .collect()
        },
    )
}

fn arb_dist() -> impl Strategy<Value = TimeDistribution> {
    prop_oneof![
        Just(TimeDistribution::Uniform),
        (0.2_f64..2.0).prop_map(TimeDistribution::gaussian),
        proptest::collection::vec(0.0_f64..5.0, 1..6).prop_filter_map("nonzero", |w| {
            if w.iter().sum::<f64>() > 0.0 {
                Some(TimeDistribution::piecewise(w))
            } else {
                None
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The optimized expectation kernel and the naive reference always agree.
    #[test]
    fn expectation_matches_reference(et in arb_profile(), confs in arb_confs(),
                                     plan in arb_plan(), dist in arb_dist()) {
        let fast = expectation(&et, &dist, &plan, &confs);
        let slow = expectation_reference(&et, &dist, &plan, &confs);
        prop_assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
    }

    /// Expectation is bounded by [0, max confidence].
    #[test]
    fn expectation_bounds(et in arb_profile(), confs in arb_confs(),
                          plan in arb_plan(), dist in arb_dist()) {
        let e = expectation(&et, &dist, &plan, &confs);
        let max_c = confs.iter().cloned().fold(0.0_f32, f32::max) as f64;
        prop_assert!(e >= -1e-12);
        prop_assert!(e <= max_c + 1e-9);
    }

    /// Expectation is monotone in confidences: raising every confidence
    /// cannot lower the expectation.
    #[test]
    fn expectation_monotone_in_confidence(et in arb_profile(), confs in arb_confs(),
                                          plan in arb_plan()) {
        let dist = TimeDistribution::Uniform;
        let raised: Vec<f32> = confs.iter().map(|c| (c + 0.1).min(1.0)).collect();
        let lo = expectation(&et, &dist, &plan, &confs);
        let hi = expectation(&et, &dist, &plan, &raised);
        prop_assert!(hi >= lo - 1e-9);
    }

    /// Hybrid search with a full enumeration budget equals brute force.
    #[test]
    fn full_budget_hybrid_is_optimal(et in arb_profile(), confs in arb_confs(), dist in arb_dist()) {
        let free: Vec<usize> = (0..N).collect();
        let eval = |p: &ExitPlan| expectation(&et, &dist, p, &confs);
        let (_, found) = hybrid_search(&ExitPlan::empty(N), &free, N, &eval);
        let mut best = f64::NEG_INFINITY;
        for bits in 0..(1u64 << N) {
            let mut p = ExitPlan::empty(N);
            for i in 0..N {
                p.set(i, (bits >> i) & 1 == 1);
            }
            best = best.max(eval(&p));
        }
        prop_assert!((found - best).abs() < 1e-9, "hybrid {found} vs brute {best}");
    }

    /// Every searcher improves on (or matches) its starting point, and the
    /// brute-force optimum bounds them all. (Hybrid and pure greedy follow
    /// different trajectories, so neither dominates the other point-wise —
    /// Fig. 12/13 compare them statistically.)
    #[test]
    fn search_dominance(et in arb_profile(), confs in arb_confs(), dist in arb_dist(),
                        m in 0usize..=N) {
        let free: Vec<usize> = (0..N).collect();
        let eval = |p: &ExitPlan| expectation(&et, &dist, p, &confs);
        let empty = ExitPlan::empty(N);
        let empty_score = eval(&empty);
        let (_, greedy) = greedy_augment(&empty, empty_score, &free, &eval);
        let (_, hybrid) = hybrid_search(&empty, &free, m, &eval);
        let (_, best) = hybrid_search(&empty, &free, N, &eval); // exhaustive
        prop_assert!(greedy >= empty_score - 1e-12);
        prop_assert!(hybrid >= empty_score - 1e-12);
        prop_assert!(greedy <= best + 1e-9);
        prop_assert!(hybrid <= best + 1e-9);
    }

    /// Enumeration with a larger budget never finds a worse plan.
    #[test]
    fn enumeration_budget_monotone(et in arb_profile(), confs in arb_confs()) {
        let dist = TimeDistribution::Uniform;
        let free: Vec<usize> = (0..N).collect();
        let eval = |p: &ExitPlan| expectation(&et, &dist, p, &confs);
        let mut last = f64::NEG_INFINITY;
        for m in 0..=N {
            let (_, score) = enumerate_best(&ExitPlan::empty(N), &free, m, &eval);
            prop_assert!(score >= last - 1e-12);
            last = score;
        }
    }

    /// Random search result is bounded by the true optimum and at least the
    /// base score.
    #[test]
    fn random_search_bounds(et in arb_profile(), confs in arb_confs(), seed in 0u64..1000) {
        let dist = TimeDistribution::Uniform;
        let free: Vec<usize> = (0..N).collect();
        let eval = |p: &ExitPlan| expectation(&et, &dist, p, &confs);
        let base = ExitPlan::empty(N);
        let mut rng = SmallRng::seed_from_u64(seed);
        let (_, found) = random_search(&base, &free, 64, &eval, &mut rng);
        let (_, best) = hybrid_search(&base, &free, N, &eval);
        prop_assert!(found >= eval(&base) - 1e-12);
        prop_assert!(found <= best + 1e-9);
    }

    /// Interval masses of any distribution sum to one over a partition.
    #[test]
    fn distribution_masses_partition(dist in arb_dist(),
                                     cuts in proptest::collection::vec(0.0_f64..1.0, 1..8)) {
        let horizon = 11.0;
        let mut points: Vec<f64> = cuts.into_iter().map(|c| c * horizon).collect();
        points.push(0.0);
        points.push(horizon);
        points.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let total: f64 = points
            .windows(2)
            .map(|w| dist.mass_between(w[0], w[1], horizon))
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    /// Samples always land inside [0, horizon].
    #[test]
    fn distribution_samples_in_range(dist in arb_dist(), seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..32 {
            let t = dist.sample(9.0, &mut rng);
            prop_assert!((0.0..=9.0).contains(&t));
        }
    }

    /// with_frozen_prefix keeps exactly the history below the cut and the
    /// candidate above it.
    #[test]
    fn frozen_prefix_law(a in arb_plan(), b in arb_plan(), prefix in 0usize..=N) {
        let merged = a.with_frozen_prefix(&b, prefix);
        for i in 0..N {
            if i < prefix {
                prop_assert_eq!(merged.get(i), b.get(i));
            } else {
                prop_assert_eq!(merged.get(i), a.get(i));
            }
        }
    }

    /// Plan bit operations are consistent with the executed count.
    #[test]
    fn plan_count_consistency(plan in arb_plan()) {
        prop_assert_eq!(plan.count_executed(), plan.iter_executed().count());
        prop_assert_eq!(plan.to_bools().iter().filter(|&&b| b).count(), plan.count_executed());
    }

    /// Under a static plan the simulator has a closed form: lay the steps
    /// out on a timeline (every conv part, the planned branches, the replan
    /// overhead after each output but the last exit's) and an output exists
    /// iff its branch ends by the kill; the run finished iff the whole
    /// timeline does. Pins the simulator's results across loop refactors.
    #[test]
    fn run_sample_matches_the_closed_form_oracle(
        et in arb_profile(), confs in arb_confs(), plan in arb_plan(),
        preds in proptest::collection::vec(0u16..4, N),
        kill_frac in 0.0_f64..1.2, overhead in prop_oneof![Just(0.0_f64), 0.0_f64..0.4],
    ) {
        let kill_ms = kill_frac * et.total_ms();
        let dist = TimeDistribution::Uniform;
        let table = SampleTable { confidences: confs, predictions: preds, label: 1 };
        let rt = ElasticRuntime::new(&et, &dist).with_replan_overhead(overhead);
        let mut planner = StaticPlanner::new(plan, "fixed");
        let got = rt.run_sample(&table, &mut planner, kill_ms);

        // Step end times in execution order, summed in the runtime's order.
        let mut t = 0.0_f64;
        let mut output_ends: Vec<(usize, f64)> = Vec::new();
        for i in 0..N {
            t += et.conv_ms()[i];
            if plan.get(i) {
                t += et.branch_ms()[i];
                output_ends.push((i, t));
                if i + 1 < N {
                    t += overhead;
                }
            }
        }
        let alive: Vec<usize> = output_ends.iter().filter(|(_, end)| *end <= kill_ms)
            .map(|(i, _)| *i).collect();
        prop_assert_eq!(got.outputs, alive.len());
        prop_assert_eq!(got.last.map(|o| o.exit), alive.last().copied());
        if let Some(o) = got.last {
            prop_assert_eq!(o.predicted, table.predictions[o.exit]);
            prop_assert_eq!(o.confidence, table.confidences[o.exit]);
        }
        prop_assert_eq!(got.correct, got.last.is_some_and(|o| o.predicted == table.label));
        prop_assert_eq!(got.finished, t <= kill_ms);
        prop_assert_eq!(got.kill_ms, kill_ms);
    }

    /// Exact accuracy is the kill integrated over the trajectory: cutting
    /// each sample's run at the midpoint of every interval between
    /// checkpoints (and the horizon), weighted by that interval's kill mass,
    /// sums to `overall_accuracy` — for every planner of `einet_core`, with
    /// and without replan overhead.
    #[test]
    fn overall_accuracy_equals_the_midpoint_cuts(
        et in arb_profile(), tables in arb_tables(), plan in arb_plan(),
        dist in arb_dist(), threshold in 0.1_f32..0.95,
        overhead in prop_oneof![Just(0.0_f64), 0.0_f64..0.4],
    ) {
        let rt = ElasticRuntime::new(&et, &dist).with_replan_overhead(overhead);
        let horizon = rt.horizon_ms();
        let predictor = CsPredictor::new(N, 8, 3);
        let prior = vec![0.5_f32; N];
        let planners: Vec<Box<dyn Planner + '_>> = vec![
            Box::new(StaticPlanner::new(plan, "fixed")),
            Box::new(AllExitsPlanner),
            Box::new(ClassicPlanner),
            Box::new(ConfidenceThresholdPlanner::new(threshold)),
            Box::new(ProfilePriorPlanner::new(prior.clone(), SearchEngine::default())),
            Box::new(EinetPlanner::new(&predictor, prior.clone(), SearchEngine::default())),
            Box::new(RandomSearchPlanner::new(&predictor, prior, 20, 5)),
        ];
        for mut planner in planners {
            let exact = rt.overall_accuracy(&tables, planner.as_mut());
            let mut sum = 0.0;
            for table in &tables {
                let run = rt.trajectory(table, planner.as_mut());
                let mut bounds = vec![0.0];
                bounds.extend(run.checkpoints.iter().map(|c| c.0));
                bounds.push(horizon);
                for w in bounds.windows(2).filter(|w| w[0] < w[1]) {
                    let mid = 0.5 * (w[0] + w[1]);
                    if rt.run_sample(table, planner.as_mut(), mid).correct {
                        sum += dist.mass_between(w[0], w[1], horizon);
                    }
                }
            }
            let cuts = sum / tables.len() as f64;
            prop_assert!((exact - cuts).abs() < 1e-12,
                "{}: exact {exact} vs midpoint cuts {cuts}", planner.name());
        }
    }

    /// The fixed-plan closed form (Eq. 5 over per-exit correctness) and the
    /// simulator under a static planner are the same score.
    #[test]
    fn plan_ground_truth_equals_static_planner_accuracy(
        et in arb_profile(), tables in arb_tables(), plan in arb_plan(), dist in arb_dist(),
    ) {
        let truth = plan_ground_truth(&et, &dist, &tables, &plan);
        let mut planner = StaticPlanner::new(plan, "fixed");
        let sim = ElasticRuntime::new(&et, &dist).overall_accuracy(&tables, &mut planner);
        prop_assert!((truth - sim).abs() < 1e-12, "closed form {truth} vs simulator {sim}");
    }
}
