//! The Discussion-section extension: elastic inference on a multi-exit
//! Transformer (sequence classification).

use einet_core::{
    AllExitsPlanner, ClassicPlanner, EinetPlanner, ElasticRuntime, SearchEngine, TimeDistribution,
};
use einet_data::{Dataset, SynthSequences};
use einet_models::{zoo, BranchSpec, OptimizerKind, TrainConfig};

use crate::configs::Scale;
use crate::pipeline::prepare_with_config;
use crate::report::{pct, Report};

/// Multi-exit Transformer: per-exit accuracy plus elastic-inference accuracy
/// of EINet vs the classic and no-skip baselines.
pub fn transformer_exits(scale: &Scale) -> Report {
    let mut report = Report::new(
        "Extension — multi-exit Transformer on synthetic sequences (Discussion section)",
    );
    let dist = TimeDistribution::Uniform;
    let spec = BranchSpec::paper_default();
    for blocks in [4_usize, 8] {
        let key = format!("transformer{blocks}-sequences");
        // Transformers train far better under Adam than the CNN SGD default.
        let train_cfg = TrainConfig {
            epochs: scale.epochs + 6,
            lr: 2e-3,
            clip_norm: Some(5.0),
            optimizer: OptimizerKind::Adam,
            ..TrainConfig::default()
        };
        let art = prepare_with_config(&key, scale, &spec, &train_cfg, || {
            let ds: Box<dyn Dataset> =
                Box::new(SynthSequences::generate(scale.train_n, scale.test_n, 0x5e9));
            let net = zoo::transformer(ds.input_shape(), ds.num_classes(), blocks, 24, &spec, 7);
            (net, ds)
        });
        let tables = art.tables();
        let acc = art.exit_accuracy();
        report.row(
            &format!("transformer-{blocks}blk exits"),
            &[
                ("first", pct(f64::from(acc[0]))),
                ("last", pct(f64::from(*acc.last().unwrap()))),
            ],
        );
        let rt = ElasticRuntime::new(&art.et, &dist);
        let mut einet = EinetPlanner::new(&art.predictor, art.prior(), SearchEngine::default());
        let c = rt.overall_accuracy(&tables, &mut ClassicPlanner);
        let a = rt.overall_accuracy(&tables, &mut AllExitsPlanner);
        let e = rt.overall_accuracy(&tables, &mut einet);
        report.row(
            &format!("transformer-{blocks}blk elastic"),
            &[("classic", pct(c)), ("me-nn", pct(a)), ("einet", pct(e))],
        );
    }
    report
}
