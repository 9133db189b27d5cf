//! Deploying one multi-exit model across a fleet of heterogeneous edge
//! devices: ET-profiles are regenerated per platform (Section IV-B1), and
//! EINet's plans adapt to each device's timing — slow devices get sparser
//! plans.
//!
//! ```sh
//! cargo run --release --example edge_fleet
//! ```

use einet::core::eval::tables_from_profile;
use einet::core::{
    AllExitsPlanner, EinetPlanner, ElasticRuntime, ExitPlan, SearchEngine, TimeDistribution,
};
use einet::data::{Dataset, SynthObjects};
use einet::models::{train_multi_exit, zoo, BranchSpec, TrainConfig};
use einet::predictor::{build_training_set, train_predictor, CsPredictor, PredictorTrainConfig};
use einet::profile::{CsProfile, EdgePlatform, EtProfile};

fn main() {
    let ds = SynthObjects::generate(300, 100, 11);
    let mut net = zoo::vgg16_fine(
        ds.input_shape(),
        ds.num_classes(),
        &BranchSpec::paper_default(),
        11,
    );
    println!("training {} ({} exits)...", net.name(), net.num_exits());
    train_multi_exit(
        &mut net,
        ds.train(),
        &TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
    );

    // CS-profiles are platform-independent: generated once.
    let cs = CsProfile::generate(&mut net, ds.test());
    let tables = tables_from_profile(&cs);
    let mut predictor = CsPredictor::new(net.num_exits(), 128, 11);
    train_predictor(
        &mut predictor,
        &build_training_set(&cs),
        &PredictorTrainConfig::default(),
    );

    // ET-profiles are regenerated per device class.
    let dist = TimeDistribution::Uniform;
    println!("\nper-platform plans (initial plan for the average sample) and accuracy:");
    for platform in EdgePlatform::all() {
        let et = EtProfile::from_cost_model(&net, platform);
        // What plan does the search engine pick up front on this device?
        let avg_conf = cs.exit_mean_confidence();
        let engine = SearchEngine::default();
        let (plan, score) = engine.search(&et, &dist, &avg_conf, 0, None);
        let mut einet = EinetPlanner::new(&predictor, cs.exit_mean_confidence(), engine);
        let mut all = AllExitsPlanner;
        let rt = ElasticRuntime::new(&et, &dist);
        let acc_einet = rt.overall_accuracy(&tables, &mut einet);
        let acc_all = rt.overall_accuracy(&tables, &mut all);
        println!(
            "  {:<14} horizon {:>8.2} ms  plan {} ({} of {} exits, E={:.3})",
            platform.to_string(),
            et.total_ms(),
            plan,
            plan.count_executed(),
            ExitPlan::full(net.num_exits()).count_executed(),
            score,
        );
        println!(
            "  {:<14} accuracy: einet {:.1}% vs no-skip {:.1}%",
            "",
            acc_einet * 100.0,
            acc_all * 100.0
        );
    }
    println!("\nslower platforms make branch time relatively costlier, so EINet prunes harder.");
}
