//! End-to-end integration tests across every crate of the workspace:
//! data → model → training → profiling → predictor → planner → runtime.

use einet::core::eval::tables_from_profile;
use einet::core::{
    AllExitsPlanner, ClassicPlanner, EinetPlanner, ElasticRuntime, SearchEngine, TimeDistribution,
};
use einet::data::{Dataset, SynthDigits};
use einet::models::{train_multi_exit, zoo, BranchSpec, MultiExitNet, TrainConfig};
use einet::predictor::{build_training_set, train_predictor, CsPredictor, PredictorTrainConfig};
use einet::profile::{CsProfile, EdgePlatform, EtProfile};
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Pipeline {
    et: EtProfile,
    cs: CsProfile,
    predictor: CsPredictor,
}

/// One small trained pipeline, shared by several tests (trained once per
/// test binary run).
fn pipeline() -> Pipeline {
    let ds = SynthDigits::generate(200, 80, 3);
    let mut net = zoo::b_alexnet(ds.input_shape(), 10, &BranchSpec::paper_default(), 3);
    train_multi_exit(
        &mut net,
        ds.train(),
        &TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        },
    );
    let et = EtProfile::from_cost_model(&net, EdgePlatform::JetsonClass);
    let cs = CsProfile::generate(&mut net, ds.test());
    let mut predictor = CsPredictor::new(net.num_exits(), 64, 3);
    train_predictor(
        &mut predictor,
        &build_training_set(&cs),
        &PredictorTrainConfig {
            epochs: 30,
            ..PredictorTrainConfig::default()
        },
    );
    Pipeline { et, cs, predictor }
}

#[test]
fn full_pipeline_einet_beats_classic_and_is_deterministic() {
    let p = pipeline();
    let tables = tables_from_profile(&p.cs);
    let dist = TimeDistribution::Uniform;
    let prior = p.cs.exit_mean_confidence();

    let mut classic = ClassicPlanner;
    let rt = ElasticRuntime::new(&p.et, &dist);
    let acc_classic = rt.overall_accuracy(&tables, &mut classic);

    let mut einet = EinetPlanner::new(&p.predictor, prior.clone(), SearchEngine::default());
    let acc_einet = rt.overall_accuracy(&tables, &mut einet);

    // The headline claim of the paper: elastic inference with a planner
    // massively beats the single-exit classic model under preemption.
    assert!(
        acc_einet > acc_classic + 0.2,
        "einet {acc_einet} vs classic {acc_classic}"
    );

    // Same seeds → identical result.
    let mut einet2 = EinetPlanner::new(&p.predictor, prior, SearchEngine::default());
    let again = rt.overall_accuracy(&tables, &mut einet2);
    assert_eq!(acc_einet, again);
}

#[test]
fn einet_at_least_matches_no_skip_baseline() {
    let p = pipeline();
    let tables = tables_from_profile(&p.cs);
    let dist = TimeDistribution::Uniform;
    let mut all = AllExitsPlanner;
    let rt = ElasticRuntime::new(&p.et, &dist);
    let acc_all = rt.overall_accuracy(&tables, &mut all);
    let mut einet = EinetPlanner::new(
        &p.predictor,
        p.cs.exit_mean_confidence(),
        SearchEngine::default(),
    );
    let acc_einet = rt.overall_accuracy(&tables, &mut einet);
    // Small slack: EINet should not lose to blindly executing everything.
    assert!(
        acc_einet >= acc_all - 0.03,
        "einet {acc_einet} vs no-skip {acc_all}"
    );
}

#[test]
fn elastic_runtime_monotone_in_kill_time() {
    // More time can only help: an outcome at kill t2 >= t1 must have at
    // least as many outputs under a static plan.
    let p = pipeline();
    let tables = tables_from_profile(&p.cs);
    let dist = TimeDistribution::Uniform;
    let runtime = ElasticRuntime::new(&p.et, &dist);
    let mut planner = AllExitsPlanner;
    let horizon = runtime.horizon_ms();
    for sample in tables.iter().take(10) {
        let mut last_outputs = 0;
        for step in 1..=8 {
            let kill = horizon * step as f64 / 8.0;
            let out = runtime.run_sample(sample, &mut planner, kill);
            assert!(out.outputs >= last_outputs, "outputs must grow with time");
            last_outputs = out.outputs;
        }
    }
}

#[test]
fn profiles_round_trip_through_disk() {
    let p = pipeline();
    let dir = std::env::temp_dir().join("einet-e2e-profiles");
    std::fs::create_dir_all(&dir).unwrap();
    let et_path = dir.join("model.et");
    let cs_path = dir.join("model.cs");
    p.et.save(&et_path).unwrap();
    p.cs.save(&cs_path).unwrap();
    let et = EtProfile::load(&et_path).unwrap();
    let cs = CsProfile::load(&cs_path).unwrap();
    assert_eq!(et, p.et);
    assert_eq!(cs.exit_accuracy(), p.cs.exit_accuracy());
    // A loaded profile drives the evaluation identically.
    let dist = TimeDistribution::Uniform;
    let mut a = AllExitsPlanner;
    let from_mem =
        ElasticRuntime::new(&p.et, &dist).overall_accuracy(&tables_from_profile(&p.cs), &mut a);
    let from_disk =
        ElasticRuntime::new(&et, &dist).overall_accuracy(&tables_from_profile(&cs), &mut a);
    assert_eq!(from_mem, from_disk);
}

#[test]
fn every_zoo_model_survives_one_training_step_and_profiling() {
    let ds = SynthDigits::generate(32, 16, 5);
    let spec = BranchSpec::paper_default();
    for kind in einet::models::ModelKind::all() {
        let mut net: MultiExitNet = kind.build(ds.input_shape(), 10, &spec, 5);
        train_multi_exit(
            &mut net,
            ds.train(),
            &TrainConfig {
                epochs: 1,
                batch_size: 16,
                ..TrainConfig::default()
            },
        );
        let et = EtProfile::from_cost_model(&net, EdgePlatform::PiClass);
        let cs = CsProfile::generate(&mut net, ds.test());
        assert_eq!(et.num_exits(), kind.exits(), "{kind}");
        assert_eq!(cs.num_exits(), kind.exits(), "{kind}");
        assert!(et.total_ms() > 0.0);
        // Confidences must be sane probabilities everywhere.
        for i in 0..cs.len() {
            assert!(cs
                .confidences(i)
                .iter()
                .all(|&c| (0.0..=1.0001).contains(&c)));
        }
    }
}

#[test]
fn measured_et_profile_also_drives_runtime() {
    let ds = SynthDigits::generate(16, 8, 6);
    let mut net = zoo::b_alexnet(ds.input_shape(), 10, &BranchSpec::paper_default(), 6);
    let sample = ds.test().images().batch_slice(0, 1);
    let et = EtProfile::measure(&mut net, &sample, 2);
    let cs = CsProfile::generate(&mut net, ds.test());
    let dist = TimeDistribution::gaussian(0.5);
    let runtime = ElasticRuntime::new(&et, &dist);
    let tables = tables_from_profile(&cs);
    let mut rng = SmallRng::seed_from_u64(8);
    let kill = dist.sample(runtime.horizon_ms(), &mut rng);
    let mut planner = AllExitsPlanner;
    let out = runtime.run_sample(&tables[0], &mut planner, kill);
    assert!(out.kill_ms >= 0.0);
}
