//! The shared train → profile → predictor pipeline with artifact caching.

use std::fs;
use std::path::PathBuf;

use einet_core::eval::tables_from_profile;
use einet_core::SampleTable;
use einet_models::{train_multi_exit, BranchSpec, ModelKind, MultiExitNet, TrainConfig};
use einet_predictor::{build_training_set, train_predictor, CsPredictor, PredictorTrainConfig};
use einet_profile::{CsProfile, EdgePlatform, EtProfile};

use crate::configs::{DatasetKind, Scale};

/// Everything an experiment needs about one trained (model, dataset) pair.
#[derive(Debug)]
pub struct Artifacts {
    /// Cost-model ET-profile on the default evaluation platform.
    pub et: EtProfile,
    /// CS-profile over the test split.
    pub cs: CsProfile,
    /// Trained CS-Predictor for this model.
    pub predictor: CsPredictor,
}

impl Artifacts {
    /// Per-sample simulation tables derived from the CS-profile.
    pub fn tables(&self) -> Vec<SampleTable> {
        tables_from_profile(&self.cs)
    }

    /// Accuracy at every exit on the test split.
    pub fn exit_accuracy(&self) -> Vec<f32> {
        self.cs.exit_accuracy()
    }

    /// The mean per-exit confidence, used as the planners' pre-first-output
    /// prior.
    pub fn prior(&self) -> Vec<f32> {
        self.cs.exit_mean_confidence()
    }
}

/// The artifact cache directory (`target/einet-artifacts`).
pub fn cache_dir() -> PathBuf {
    let dir = PathBuf::from(
        std::env::var("EINET_ARTIFACTS").unwrap_or_else(|_| "target/einet-artifacts".to_string()),
    );
    fs::create_dir_all(&dir).expect("create artifact cache dir");
    dir
}

/// The results directory (`results/`) where experiment binaries write their
/// reports.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

fn spec_id(spec: &BranchSpec) -> String {
    format!(
        "c{}f{}w{}h{}",
        spec.convs, spec.fcs, spec.conv_channels, spec.fc_hidden
    )
}

/// Builds and trains the model, generates both profiles and the predictor —
/// or loads the profiles from cache when this (model, dataset, scale,
/// branch-spec) combination ran before. The predictor is retrained from the
/// cached CS-profile (cheap relative to model training).
pub fn prepare(
    model: ModelKind,
    dataset: DatasetKind,
    scale: &Scale,
    spec: &BranchSpec,
) -> Artifacts {
    prepare_named(
        &format!("{}-{}", model.id(), dataset.id()),
        scale,
        spec,
        || build_model(model, dataset, scale, spec),
    )
}

/// Like [`prepare`], but for a custom network built by `build` — used by the
/// Fig. 14 structure sweeps. `key` must uniquely identify the configuration.
pub fn prepare_named(
    key: &str,
    scale: &Scale,
    spec: &BranchSpec,
    build: impl FnOnce() -> (MultiExitNet, Box<dyn einet_data::Dataset>),
) -> Artifacts {
    let cfg = TrainConfig {
        epochs: scale.epochs,
        ..TrainConfig::default()
    };
    prepare_with_config(key, scale, spec, &cfg, build)
}

/// Like [`prepare_named`] with explicit training hyper-parameters —
/// architectures with different training dynamics (e.g. the Transformer
/// extension, which needs a lower learning rate) pass their own config.
pub fn prepare_with_config(
    key: &str,
    scale: &Scale,
    spec: &BranchSpec,
    train_cfg: &TrainConfig,
    build: impl FnOnce() -> (MultiExitNet, Box<dyn einet_data::Dataset>),
) -> Artifacts {
    let cache = cache_dir();
    let stem = format!("{key}-{}-{}", scale.id, spec_id(spec));
    let et_path = cache.join(format!("{stem}.et"));
    let cs_path = cache.join(format!("{stem}.cs"));
    let (et, cs) = match (EtProfile::load(&et_path), CsProfile::load(&cs_path)) {
        (Ok(et), Ok(cs)) => (et, cs),
        _ => {
            let t0 = std::time::Instant::now();
            let (mut net, ds) = build();
            train_multi_exit(&mut net, ds.train(), train_cfg);
            let et = EtProfile::from_cost_model(&net, EdgePlatform::JetsonClass);
            let cs = CsProfile::generate(&mut net, ds.test());
            et.save(&et_path).expect("cache et profile");
            cs.save(&cs_path).expect("cache cs profile");
            eprintln!(
                "[pipeline] trained {key} in {:.1}s (exit acc {:.3} -> {:.3})",
                t0.elapsed().as_secs_f64(),
                cs.exit_accuracy().first().copied().unwrap_or(0.0),
                cs.exit_accuracy().last().copied().unwrap_or(0.0),
            );
            (et, cs)
        }
    };
    let predictor = trained_predictor(&cs, scale);
    Artifacts { et, cs, predictor }
}

fn build_model(
    model: ModelKind,
    dataset: DatasetKind,
    scale: &Scale,
    spec: &BranchSpec,
) -> (MultiExitNet, Box<dyn einet_data::Dataset>) {
    let ds = dataset.generate(scale);
    let net = model.build(ds.input_shape(), ds.num_classes(), spec, 0xA11CE);
    (net, ds)
}

/// Trains a CS-Predictor from a CS-profile at the scale's epoch budget.
pub fn trained_predictor(cs: &CsProfile, scale: &Scale) -> CsPredictor {
    let n = cs.num_exits();
    let hidden = CsPredictor::default_hidden(n);
    let mut predictor = CsPredictor::new(n, hidden, 0x9E0);
    if n >= 2 {
        let data = build_training_set(cs);
        let cfg = PredictorTrainConfig {
            epochs: scale.predictor_epochs,
            ..PredictorTrainConfig::for_hidden(hidden)
        };
        train_predictor(&mut predictor, &data, &cfg);
    }
    predictor
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            train_n: 60,
            test_n: 30,
            epochs: 2,
            predictor_epochs: 5,
            id: "test",
        }
    }

    #[test]
    fn prepare_trains_and_caches() {
        let scale = tiny_scale();
        let spec = BranchSpec::paper_default();
        // Use a unique cache dir to avoid clashes between test runs.
        std::env::set_var(
            "EINET_ARTIFACTS",
            std::env::temp_dir().join("einet-bench-test-cache"),
        );
        let a1 = prepare(ModelKind::BAlexNet, DatasetKind::Digits, &scale, &spec);
        assert_eq!(a1.et.num_exits(), 3);
        assert_eq!(a1.cs.num_exits(), 3);
        assert_eq!(a1.tables().len(), 30);
        // Second call must hit the cache and agree exactly.
        let a2 = prepare(ModelKind::BAlexNet, DatasetKind::Digits, &scale, &spec);
        assert_eq!(a1.et, a2.et);
        assert_eq!(a1.cs.exit_accuracy(), a2.cs.exit_accuracy());
        std::env::remove_var("EINET_ARTIFACTS");
    }
}
