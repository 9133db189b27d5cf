//! Overall-accuracy experiments: Fig. 8, Table II, Fig. 9, Fig. 10.

use einet_core::eval::{compressed_profile, degrade_final_exit, plan_ground_truth};
use einet_core::search::hybrid_search;
use einet_core::{
    expectation, AllExitsPlanner, ClassicPlanner, ConfidenceThresholdPlanner, EinetPlanner,
    ElasticRuntime, ExitPlan, RandomSearchPlanner, SearchEngine, StaticPlanner, TimeDistribution,
};
use einet_models::{BranchSpec, ModelKind};

use crate::configs::{DatasetKind, Scale};
use crate::pipeline::{prepare, Artifacts};
use crate::report::{bar, pct, Report};

/// Average confidence per exit over the profile — the offline "average
/// accuracy profile" used to pick static-optimal plans (Table II).
fn average_confidences(art: &Artifacts) -> Vec<f32> {
    art.cs.exit_mean_confidence()
}

/// Fig. 8 (a–c): EINet vs the 25%/50%/100% static plans, on every model and
/// dataset.
pub fn fig8_static_plans(scale: &Scale) -> Report {
    let mut report =
        Report::new("Fig. 8 — overall accuracy: static exit plans vs EINet (per dataset/model)");
    let dist = TimeDistribution::Uniform;
    let spec = BranchSpec::paper_default();
    for dataset in DatasetKind::all() {
        report.line(format!("## dataset {dataset}"));
        for model in ModelKind::all() {
            let art = prepare(model, dataset, scale, &spec);
            let tables = art.tables();
            let n = art.et.num_exits();
            let rt = ElasticRuntime::new(&art.et, &dist);
            let mut values = Vec::new();
            for pctg in [0.25, 0.5, 1.0] {
                let mut planner = StaticPlanner::percent(n, pctg);
                let acc = rt.overall_accuracy(&tables, &mut planner);
                values.push((
                    if pctg == 0.25 {
                        "static25"
                    } else if pctg == 0.5 {
                        "static50"
                    } else {
                        "static100"
                    },
                    pct(acc),
                ));
            }
            let mut einet = EinetPlanner::new(&art.predictor, art.prior(), SearchEngine::default());
            let acc = rt.overall_accuracy(&tables, &mut einet);
            values.push(("einet", pct(acc)));
            values.push(("viz", bar(acc, 20)));
            report.row(&format!("{model}"), &values);
        }
    }
    report
}

/// Table II: EINet vs the offline static-*optimal* plan (enumerated on the
/// average time/confidence profiles without a time budget).
pub fn table2_static_optimal(scale: &Scale) -> Report {
    let mut report =
        Report::new("Table II — EINet vs theoretically-optimal static plans (offline enumerated)");
    let dist = TimeDistribution::Uniform;
    let spec = BranchSpec::paper_default();
    for dataset in [DatasetKind::Objects, DatasetKind::Objects100] {
        report.line(format!("## dataset {dataset}"));
        for model in ModelKind::all() {
            let art = prepare(model, dataset, scale, &spec);
            let tables = art.tables();
            let n = art.et.num_exits();
            let avg_conf = average_confidences(&art);
            // Offline search: full enumeration for small models, a generous
            // hybrid budget for the 21/40-exit ones (true enumeration over
            // 2^40 plans is the paper's "no time constraint" luxury; hybrid
            // with a large budget is within noise of it at these sizes).
            let budget = if n <= 14 { n } else { 5 };
            let base = ExitPlan::empty(n);
            let free: Vec<usize> = (0..n).collect();
            let eval = |p: &ExitPlan| expectation(&art.et, &dist, p, &avg_conf);
            let (static_opt, _) = hybrid_search(&base, &free, budget, &eval);
            let static_acc = plan_ground_truth(&art.et, &dist, &tables, &static_opt);
            let mut einet = EinetPlanner::new(&art.predictor, art.prior(), SearchEngine::default());
            let einet_acc =
                ElasticRuntime::new(&art.et, &dist).overall_accuracy(&tables, &mut einet);
            report.row(
                &format!("{model}"),
                &[
                    ("static_opt", pct(static_acc)),
                    ("einet", pct(einet_acc)),
                    (
                        "gain",
                        format!("{:+.2}pp", (einet_acc - static_acc) * 100.0),
                    ),
                    ("plan", static_opt.to_string()),
                ],
            );
        }
    }
    report
}

/// Fig. 9: dynamic plans (confidence-threshold, EINet-random, EINet-hybrid)
/// reported as the gain over the no-skip (100% static) plan.
pub fn fig9_dynamic_plans(scale: &Scale) -> Report {
    let mut report =
        Report::new("Fig. 9 — dynamic exit plans: gain over the 100%-output static plan");
    let dist = TimeDistribution::Uniform;
    let spec = BranchSpec::paper_default();
    // Random-search tries per replanning round. The paper samples 10,000
    // offline; online per-round budgets must stay small, which is exactly
    // why random search loses to hybrid.
    let tries = 300;
    for dataset in [DatasetKind::Objects, DatasetKind::Objects100] {
        report.line(format!("## dataset {dataset}"));
        for model in [ModelKind::Vgg16Fine, ModelKind::MsdNet21] {
            let art = prepare(model, dataset, scale, &spec);
            let tables = art.tables();
            let rt = ElasticRuntime::new(&art.et, &dist);
            let n = art.et.num_exits();
            let mut base_planner = StaticPlanner::percent(n, 1.0);
            let base = rt.overall_accuracy(&tables, &mut base_planner);
            let mut rows = Vec::new();
            for threshold in [0.7_f32, 0.9] {
                let mut planner = ConfidenceThresholdPlanner::new(threshold);
                let acc = rt.overall_accuracy(&tables, &mut planner);
                rows.push((
                    if threshold < 0.8 {
                        "conf0.70"
                    } else {
                        "conf0.90"
                    },
                    format!("{:+.2}pp", (acc - base) * 100.0),
                ));
            }
            let mut random = RandomSearchPlanner::new(&art.predictor, art.prior(), tries, 77);
            let acc = rt.overall_accuracy(&tables, &mut random);
            rows.push(("einet-random", format!("{:+.2}pp", (acc - base) * 100.0)));
            let mut einet = EinetPlanner::new(&art.predictor, art.prior(), SearchEngine::default());
            let acc = rt.overall_accuracy(&tables, &mut einet);
            rows.push(("einet-hybrid", format!("{:+.2}pp", (acc - base) * 100.0)));
            rows.push(("static100", pct(base)));
            report.row(&format!("{model}"), &rows);
        }
    }
    report
}

/// Fig. 10: EINet vs common neural networks (classic single-exit,
/// compressed, plain multi-exit).
pub fn fig10_common_nns(scale: &Scale) -> Report {
    let mut report = Report::new("Fig. 10 — EINet vs common NNs (classic / compressed / ME-NN)");
    let dist = TimeDistribution::Uniform;
    let spec = BranchSpec::paper_default();
    for model in [
        ModelKind::FlexVgg16,
        ModelKind::Vgg16Fine,
        ModelKind::MsdNet21,
        ModelKind::MsdNet40,
    ] {
        let art = prepare(model, DatasetKind::Objects, scale, &spec);
        let tables = art.tables();
        let rt = ElasticRuntime::new(&art.et, &dist);
        // The compressed baseline: 0.6x inference time, ~6% accuracy drop at
        // the (single) final exit — typical pruning/distillation trade-off.
        let comp_et = compressed_profile(&art.et, 0.6);
        let mut comp_tables = tables.clone();
        degrade_final_exit(&mut comp_tables, 0.06, 42);
        let classic = rt.overall_accuracy(&tables, &mut ClassicPlanner);
        let compressed = ElasticRuntime::new(&comp_et, &dist)
            .overall_accuracy(&comp_tables, &mut ClassicPlanner);
        let menn = rt.overall_accuracy(&tables, &mut AllExitsPlanner);
        let mut einet = EinetPlanner::new(&art.predictor, art.prior(), SearchEngine::default());
        let einet_acc = rt.overall_accuracy(&tables, &mut einet);
        report.row(
            &format!("{model}"),
            &[
                ("classic", pct(classic)),
                ("compressed", pct(compressed)),
                ("me-nn", pct(menn)),
                ("einet", pct(einet_acc)),
            ],
        );
    }
    report
}
