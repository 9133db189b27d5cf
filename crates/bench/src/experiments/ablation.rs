//! Ablation studies beyond the paper's figures, covering the design choices
//! DESIGN.md calls out: the CS-Predictor's contribution, the search budget,
//! and sensitivity to the planner's own replanning cost.

use einet_core::{
    AllExitsPlanner, EinetPlanner, ElasticRuntime, ProfilePriorPlanner, SearchEngine,
    TimeDistribution,
};
use einet_models::{BranchSpec, ModelKind};

use crate::configs::{DatasetKind, Scale};
use crate::pipeline::prepare;
use crate::report::{pct, Report};

/// Ablation 1 — remove the CS-Predictor (plan on profile means only) and
/// sweep the hybrid enumeration budget.
pub fn ablation_components(scale: &Scale) -> Report {
    let mut report =
        Report::new("Ablation — CS-Predictor contribution and search budget (MSDNet-21, objects)");
    let dist = TimeDistribution::Uniform;
    let art = prepare(
        ModelKind::MsdNet21,
        DatasetKind::Objects,
        scale,
        &BranchSpec::paper_default(),
    );
    let tables = art.tables();
    let rt = ElasticRuntime::new(&art.et, &dist);
    let no_planner = rt.overall_accuracy(&tables, &mut AllExitsPlanner);
    report.row("no planner (all exits)", &[("acc", pct(no_planner))]);
    let mut prior_only = ProfilePriorPlanner::new(art.prior(), SearchEngine::default());
    let acc = rt.overall_accuracy(&tables, &mut prior_only);
    report.row("search, no predictor", &[("acc", pct(acc))]);
    for m in [0_usize, 2, 4, 6] {
        let mut einet = EinetPlanner::new(&art.predictor, art.prior(), SearchEngine::new(m));
        let acc = rt.overall_accuracy(&tables, &mut einet);
        report.row(&format!("einet, enum budget m={m}"), &[("acc", pct(acc))]);
    }
    report
}

/// Ablation 2 — charge the planner's own search time to the inference clock
/// and watch accuracy degrade gracefully.
pub fn ablation_replan_overhead(scale: &Scale) -> Report {
    let mut report =
        Report::new("Ablation — sensitivity to replanning overhead charged to the clock");
    let dist = TimeDistribution::Uniform;
    let art = prepare(
        ModelKind::MsdNet21,
        DatasetKind::Objects,
        scale,
        &BranchSpec::paper_default(),
    );
    let tables = art.tables();
    let horizon = art.et.total_ms();
    report.line(format!("profile horizon: {horizon:.2} ms"));
    for overhead_ms in [0.0, 0.01, 0.05, 0.2, 1.0] {
        let mut einet = EinetPlanner::new(&art.predictor, art.prior(), SearchEngine::default());
        let acc = ElasticRuntime::new(&art.et, &dist)
            .with_replan_overhead(overhead_ms)
            .overall_accuracy(&tables, &mut einet);
        report.row(
            &format!("overhead {overhead_ms:>5.2} ms"),
            &[("acc", pct(acc))],
        );
    }
    report
}
