//! Bringing your own backbone: build a custom CNN out of `einet-tensor`
//! layers, insert exit branches per the paper's recipe (one conv part +
//! branch = one block), and get elastic inference for free.
//!
//! ```sh
//! cargo run --release --example custom_model
//! ```

use einet::core::eval::tables_from_profile;
use einet::core::{ClassicPlanner, EinetPlanner, ElasticRuntime, SearchEngine, TimeDistribution};
use einet::data::{Dataset, SynthDigits};
use einet::models::{build_branch, train_multi_exit, Block, BranchSpec, MultiExitNet, TrainConfig};
use einet::predictor::{build_training_set, train_predictor, CsPredictor, PredictorTrainConfig};
use einet::profile::{CsProfile, EdgePlatform, EtProfile};
use einet::tensor::{BatchNorm2d, Conv2d, Layer, MaxPool2d, ReLu, Sequential};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A hand-rolled 4-stage CNN turned into a 4-exit elastic model.
fn build_custom(input: [usize; 3], classes: usize, seed: u64) -> MultiExitNet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spec = BranchSpec::paper_default();
    let mut blocks = Vec::new();
    let mut shape = vec![1, input[0], input[1], input[2]];
    for (out_c, pool) in [(10_usize, true), (20, true), (28, true), (36, false)] {
        let in_c = shape[1];
        let mut part = Sequential::new();
        part.push(Conv2d::new(in_c, out_c, 3, 1, 1, &mut rng));
        part.push(BatchNorm2d::new(out_c));
        part.push(ReLu::new());
        if pool {
            part.push(MaxPool2d::new(2, 2));
        }
        shape = part.output_shape(&shape);
        // The paper's branch: one convolution + two FC layers, sized for
        // this insertion point's feature shape.
        let branch = build_branch(&spec, [shape[1], shape[2], shape[3]], classes, &mut rng);
        blocks.push(Block {
            conv_part: part,
            branch,
        });
    }
    MultiExitNet::new("custom-cnn", blocks, input, classes)
}

fn main() {
    let ds = SynthDigits::generate(300, 100, 23);
    let mut net = build_custom(ds.input_shape(), ds.num_classes(), 23);
    println!(
        "custom model: {} exits, {} parameters",
        net.num_exits(),
        net.param_count()
    );
    train_multi_exit(
        &mut net,
        ds.train(),
        &TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
    );
    let et = EtProfile::from_cost_model(&net, EdgePlatform::PiClass);
    let cs = CsProfile::generate(&mut net, ds.test());
    println!(
        "exit accuracies: {:?}",
        cs.exit_accuracy()
            .iter()
            .map(|a| format!("{:.0}%", a * 100.0))
            .collect::<Vec<_>>()
    );
    let mut predictor = CsPredictor::new(net.num_exits(), 64, 23);
    train_predictor(
        &mut predictor,
        &build_training_set(&cs),
        &PredictorTrainConfig::default(),
    );
    let dist = TimeDistribution::gaussian(0.5); // bursty preemption profile
    let tables = tables_from_profile(&cs);
    let mut einet = EinetPlanner::new(
        &predictor,
        cs.exit_mean_confidence(),
        SearchEngine::default(),
    );
    let mut classic = ClassicPlanner;
    let rt = ElasticRuntime::new(&et, &dist);
    let acc_einet = rt.overall_accuracy(&tables, &mut einet);
    let acc_classic = rt.overall_accuracy(&tables, &mut classic);
    println!(
        "under Gaussian preemption on a Pi-class device: einet {:.1}% vs classic {:.1}%",
        acc_einet * 100.0,
        acc_classic * 100.0
    );
}
