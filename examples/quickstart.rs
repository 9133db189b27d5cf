//! End-to-end EINet quickstart: train a small multi-exit network, profile
//! it, train a CS-Predictor, and run elastic inference against unpredictable
//! kill times.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use einet::core::eval::tables_from_profile;
use einet::core::{
    AllExitsPlanner, ClassicPlanner, EinetPlanner, ElasticRuntime, SearchEngine, TimeDistribution,
};
use einet::data::{Dataset, SynthDigits};
use einet::models::{train_multi_exit, zoo, BranchSpec, TrainConfig};
use einet::predictor::{build_training_set, train_predictor, PredictorTrainConfig};
use einet::profile::{CsProfile, EdgePlatform, EtProfile};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // 1. Data: a seeded synthetic MNIST stand-in.
    let ds = SynthDigits::generate(300, 100, 7);
    println!(
        "dataset: {} ({} train / {} test, {} classes)",
        ds.name(),
        ds.train().len(),
        ds.test().len(),
        ds.num_classes()
    );

    // 2. Model: BranchyNet-style AlexNet with three exits (Section IV-A).
    let mut net = zoo::b_alexnet(
        ds.input_shape(),
        ds.num_classes(),
        &BranchSpec::paper_default(),
        7,
    );
    println!("model: {} with {} exits", net.name(), net.num_exits());
    let report = train_multi_exit(
        &mut net,
        ds.train(),
        &TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
    );
    println!(
        "trained {} epochs, loss {:.3} -> {:.3}",
        report.epoch_losses.len(),
        report.epoch_losses.first().unwrap(),
        report.epoch_losses.last().unwrap()
    );

    // 3. Block-wise model profiling (Section IV-B).
    let et = EtProfile::from_cost_model(&net, EdgePlatform::JetsonClass);
    let cs = CsProfile::generate(&mut net, ds.test());
    println!(
        "profiles: horizon {:.2} ms, exit accuracy {:?}",
        et.total_ms(),
        cs.exit_accuracy()
            .iter()
            .map(|a| format!("{:.0}%", a * 100.0))
            .collect::<Vec<_>>()
    );

    // 4. CS-Predictor (Section IV-C).
    let mut predictor = einet::predictor::CsPredictor::new(net.num_exits(), 64, 7);
    train_predictor(
        &mut predictor,
        &build_training_set(&cs),
        &PredictorTrainConfig::default(),
    );

    // 5. Elastic inference with unpredictable exits (Section V).
    let dist = TimeDistribution::Uniform;
    let runtime = ElasticRuntime::new(&et, &dist);
    let tables = tables_from_profile(&cs);
    let mut rng = SmallRng::seed_from_u64(99);
    let mut einet_planner = EinetPlanner::new(
        &predictor,
        cs.exit_mean_confidence(),
        SearchEngine::default(),
    );
    println!("\nthree random kills on the first test sample:");
    for _ in 0..3 {
        let kill = dist.sample(runtime.horizon_ms(), &mut rng);
        let out = runtime.run_sample(&tables[0], &mut einet_planner, kill);
        match out.last {
            Some(o) => println!(
                "  killed at {kill:>5.2} ms -> exit {} answered class {} (conf {:.2}, {})",
                o.exit,
                o.predicted,
                o.confidence,
                if out.correct { "correct" } else { "wrong" }
            ),
            None => println!("  killed at {kill:>5.2} ms -> no output yet"),
        }
    }

    // 6. Overall accuracy vs the baselines of the paper.
    let mut classic = ClassicPlanner;
    let mut all_exits = AllExitsPlanner;
    let acc_classic = runtime.overall_accuracy(&tables, &mut classic);
    let acc_all = runtime.overall_accuracy(&tables, &mut all_exits);
    let acc_einet = runtime.overall_accuracy(&tables, &mut einet_planner);
    println!("\noverall accuracy under uniform unpredictable exits:");
    println!("  classic single-exit : {:.1}%", acc_classic * 100.0);
    println!("  multi-exit, no skip : {:.1}%", acc_all * 100.0);
    println!("  EINet               : {:.1}%", acc_einet * 100.0);
}
