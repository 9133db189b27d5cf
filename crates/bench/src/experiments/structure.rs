//! Multi-exit design studies: Fig. 14a (model structures) and Fig. 14b
//! (branch structures).

use einet_core::{EinetPlanner, ElasticRuntime, SearchEngine, TimeDistribution};
use einet_models::zoo::{self, MsdConfig};
use einet_models::BranchSpec;

use crate::configs::{DatasetKind, Scale};
use crate::pipeline::prepare_named;
use crate::report::{pct, Report};

/// Fig. 14a: MSDNet structural sweep — blocks/step/base/channel versus total
/// inference time and elastic accuracy.
pub fn fig14a_model_structures(scale: &Scale) -> Report {
    let mut report =
        Report::new("Fig. 14a — MSDNet structure sweep: accuracy vs total inference time");
    let dist = TimeDistribution::Uniform;
    let spec = BranchSpec::paper_default();
    let configs = [
        MsdConfig {
            blocks: 10,
            step: 1,
            base: 2,
            channel: 8,
        },
        MsdConfig {
            blocks: 10,
            step: 2,
            base: 4,
            channel: 16,
        },
        MsdConfig {
            blocks: 21,
            step: 1,
            base: 2,
            channel: 8,
        },
        MsdConfig::msd21(),
        MsdConfig::msd40(),
        MsdConfig {
            blocks: 40,
            step: 2,
            base: 4,
            channel: 16,
        },
    ];
    for cfg in configs {
        let key = format!(
            "msd-b{}s{}ba{}c{}-objects",
            cfg.blocks, cfg.step, cfg.base, cfg.channel
        );
        let art = prepare_named(&key, scale, &spec, || {
            let ds = DatasetKind::Objects.generate(scale);
            let net = zoo::msdnet(ds.input_shape(), ds.num_classes(), cfg, &spec, 0xA11CE);
            (net, ds)
        });
        let tables = art.tables();
        let mut einet = EinetPlanner::new(&art.predictor, art.prior(), SearchEngine::default());
        let acc = ElasticRuntime::new(&art.et, &dist).overall_accuracy(&tables, &mut einet);
        let final_acc = *art.exit_accuracy().last().unwrap_or(&0.0);
        report.row(
            &format!(
                "blocks={} step={} base={} ch={}",
                cfg.blocks, cfg.step, cfg.base, cfg.channel
            ),
            &[
                ("total_ms", format!("{:.2}", art.et.total_ms())),
                ("elastic_acc", pct(acc)),
                ("final_exit_acc", pct(f64::from(final_acc))),
            ],
        );
    }
    report
}

/// Fig. 14b: branch-structure sweep — convolution/FC counts in the exit
/// branches of the 21-block MSDNet.
pub fn fig14b_branch_structures(scale: &Scale) -> Report {
    let mut report = Report::new("Fig. 14b — branch structure sweep on MSDNet-21 (convs x FCs)");
    let dist = TimeDistribution::Uniform;
    for (convs, fcs) in [(1_usize, 1_usize), (1, 2), (1, 3), (2, 1), (2, 2)] {
        let spec = BranchSpec::with_layout(convs, fcs);
        let key = format!("msd21-branch-c{convs}f{fcs}-objects");
        let art = prepare_named(&key, scale, &spec, || {
            let ds = DatasetKind::Objects.generate(scale);
            let net = zoo::msdnet21(ds.input_shape(), ds.num_classes(), &spec, 0xA11CE);
            (net, ds)
        });
        let tables = art.tables();
        let mut einet = EinetPlanner::new(&art.predictor, art.prior(), SearchEngine::default());
        let acc = ElasticRuntime::new(&art.et, &dist).overall_accuracy(&tables, &mut einet);
        let final_acc = *art.exit_accuracy().last().unwrap_or(&0.0);
        report.row(
            &format!("{convs} conv x {fcs} fc"),
            &[
                ("total_ms", format!("{:.2}", art.et.total_ms())),
                ("elastic_acc", pct(acc)),
                ("final_exit_acc", pct(f64::from(final_acc))),
            ],
        );
    }
    report
}
