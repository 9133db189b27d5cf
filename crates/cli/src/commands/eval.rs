//! `einet eval` — compare planners on trained profiles under unpredictable
//! exits.

use std::path::PathBuf;

use einet_core::eval::tables_from_profile;
use einet_core::{
    AllExitsPlanner, ClassicPlanner, ConfidenceThresholdPlanner, EinetPlanner, ElasticRuntime,
    Planner, SearchEngine, StaticPlanner,
};
use einet_predictor::{build_training_set, train_predictor, CsPredictor, PredictorTrainConfig};
use einet_profile::{CsProfile, EtProfile};

use crate::args::ParsedArgs;
use crate::commands::{finish_tracing, parse_dist, start_tracing, ArtifactPaths, CmdResult};

/// Runs the subcommand.
pub fn run(args: &ParsedArgs) -> CmdResult {
    let trace_out = start_tracing(args);
    let dir = PathBuf::from(args.require("dir")?);
    let paths = ArtifactPaths::in_dir(&dir);
    let et = EtProfile::load(&paths.et)?;
    let cs = CsProfile::load(&paths.cs)?;
    let dist = parse_dist(args.get_or("dist", "uniform"))?;
    let predictor_epochs: usize = args.get_parsed_or("predictor-epochs", 40)?;

    println!(
        "profiles: {} exits, {} samples, horizon {:.2} ms, distribution {}",
        et.num_exits(),
        cs.len(),
        et.total_ms(),
        dist.id()
    );
    let n = et.num_exits();
    let mut predictor = CsPredictor::new(n, CsPredictor::default_hidden(n), 7);
    if n >= 2 {
        train_predictor(
            &mut predictor,
            &build_training_set(&cs),
            &PredictorTrainConfig {
                epochs: predictor_epochs,
                ..PredictorTrainConfig::default()
            },
        );
    }
    let tables = tables_from_profile(&cs);
    let runtime = ElasticRuntime::new(&et, &dist);
    let prior = cs.exit_mean_confidence();
    let mut planners: Vec<Box<dyn Planner>> = vec![
        Box::new(ClassicPlanner),
        Box::new(StaticPlanner::percent(n, 0.25)),
        Box::new(StaticPlanner::percent(n, 0.5)),
        Box::new(AllExitsPlanner),
        Box::new(ConfidenceThresholdPlanner::new(0.9)),
        Box::new(EinetPlanner::new(
            &predictor,
            prior,
            SearchEngine::default(),
        )),
    ];
    println!(
        "\noverall accuracy ({} samples, kill integrated exactly):",
        cs.len()
    );
    for planner in planners.iter_mut() {
        let acc = runtime.overall_accuracy(&tables, planner.as_mut());
        println!("  {:<24} {:.2}%", planner.name(), acc * 100.0);
    }
    if let Some(path) = &trace_out {
        finish_tracing(path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use einet_core::SampleTable;

    fn fixture_dir() -> PathBuf {
        let dir = std::env::temp_dir().join("einet-cli-eval-test");
        std::fs::create_dir_all(&dir).unwrap();
        let paths = ArtifactPaths::in_dir(&dir);
        let et = EtProfile::new(vec![1.0; 4], vec![0.5; 4]).unwrap();
        et.save(&paths.et).unwrap();
        let tables: Vec<SampleTable> = Vec::new();
        let _ = tables;
        let cs = CsProfile::new(
            (0..10)
                .map(|i| vec![0.3 + 0.01 * i as f32, 0.5, 0.7, 0.9])
                .collect(),
            (0..10).map(|i| vec![(i % 3) as u16, 0, 0, 0]).collect(),
            (0..10).map(|_| 0u16).collect(),
            4,
        );
        cs.save(&paths.cs).unwrap();
        dir
    }

    #[test]
    fn eval_runs_on_saved_profiles() {
        let dir = fixture_dir();
        let args = ParsedArgs::parse(
            &[
                "eval".to_string(),
                "--dir".to_string(),
                dir.to_str().unwrap().to_string(),
                "--predictor-epochs".to_string(),
                "2".to_string(),
            ],
            &[],
        )
        .unwrap();
        run(&args).unwrap();
    }

    #[test]
    fn missing_dir_is_an_error() {
        let args = ParsedArgs::parse(
            &[
                "eval".to_string(),
                "--dir".to_string(),
                "/nonexistent/einet".to_string(),
            ],
            &[],
        )
        .unwrap();
        assert!(run(&args).is_err());
    }
}
