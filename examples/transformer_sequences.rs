//! Elastic inference on a multi-exit Transformer — the extension sketched in
//! the paper's Discussion section. An exit branch after every encoder block
//! turns a sequence classifier into an elastic model; everything else
//! (profiling, CS-Predictor, Search Engine) is reused unchanged.
//!
//! ```sh
//! cargo run --release --example transformer_sequences
//! ```

use einet::core::eval::tables_from_profile;
use einet::core::{
    AllExitsPlanner, ClassicPlanner, EinetPlanner, ElasticRuntime, SearchEngine, TimeDistribution,
};
use einet::data::{Dataset, SynthSequences};
use einet::models::{train_multi_exit, zoo, BranchSpec, OptimizerKind, TrainConfig};
use einet::predictor::{build_training_set, train_predictor, CsPredictor, PredictorTrainConfig};
use einet::profile::{CsProfile, EdgePlatform, EtProfile};

fn main() {
    let ds = SynthSequences::generate(400, 150, 0x5e9);
    println!(
        "dataset: {} ({} steps x {} features, {} classes)",
        ds.name(),
        SynthSequences::STEPS,
        SynthSequences::DIMS,
        ds.num_classes()
    );
    let mut net = zoo::transformer(
        ds.input_shape(),
        ds.num_classes(),
        6,  // encoder blocks = exits
        24, // model width
        &BranchSpec::paper_default(),
        9,
    );
    println!("model: {} with {} exits", net.name(), net.num_exits());
    // Transformers train far better under Adam than the CNN SGD default.
    train_multi_exit(
        &mut net,
        ds.train(),
        &TrainConfig {
            epochs: 18,
            lr: 2e-3,
            clip_norm: Some(5.0),
            optimizer: OptimizerKind::Adam,
            ..TrainConfig::default()
        },
    );
    let et = EtProfile::from_cost_model(&net, EdgePlatform::JetsonClass);
    let cs = CsProfile::generate(&mut net, ds.test());
    println!(
        "exit accuracies: {:?}",
        cs.exit_accuracy()
            .iter()
            .map(|a| format!("{:.0}%", a * 100.0))
            .collect::<Vec<_>>()
    );
    let mut predictor = CsPredictor::new(net.num_exits(), 64, 9);
    train_predictor(
        &mut predictor,
        &build_training_set(&cs),
        &PredictorTrainConfig::default(),
    );
    let dist = TimeDistribution::Uniform;
    let tables = tables_from_profile(&cs);
    let mut classic = ClassicPlanner;
    let mut all = AllExitsPlanner;
    let mut einet = EinetPlanner::new(
        &predictor,
        cs.exit_mean_confidence(),
        SearchEngine::default(),
    );
    println!("\noverall accuracy under uniform unpredictable exits:");
    let rt = ElasticRuntime::new(&et, &dist);
    println!(
        "  classic single-exit : {:.1}%",
        rt.overall_accuracy(&tables, &mut classic) * 100.0
    );
    println!(
        "  multi-exit, no skip : {:.1}%",
        rt.overall_accuracy(&tables, &mut all) * 100.0
    );
    println!(
        "  EINet               : {:.1}%",
        rt.overall_accuracy(&tables, &mut einet) * 100.0
    );
}
