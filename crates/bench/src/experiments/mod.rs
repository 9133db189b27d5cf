//! One function per table/figure of the paper's evaluation.
//!
//! Every function returns a [`crate::report::Report`] that `exp_all` and
//! `einet experiments` print and write under `results/`, both reading the
//! one registry [`ALL`]. See DESIGN.md for the experiment-to-paper map.

mod ablation;
mod accuracy;
mod engine;
mod structure;
mod transformer;

pub use ablation::{ablation_components, ablation_replan_overhead};
pub use accuracy::{
    fig10_common_nns, fig8_static_plans, fig9_dynamic_plans, table2_static_optimal,
};
pub use engine::{
    fig11_expectation_vs_truth, fig12_enum_budget, fig13_distributions, fig4_block_times,
    table1_implementation_gap, table3_activation_cache,
};
pub use structure::{fig14a_model_structures, fig14b_branch_structures};
pub use transformer::transformer_exits;

use crate::configs::Scale;
use crate::report::Report;

/// A report generator at one scale.
pub type Experiment = fn(&Scale) -> Report;

/// Every experiment, named by the stem of the `results/<name>.txt` report it
/// writes, in the order a full regeneration runs them.
pub const ALL: [(&str, Experiment); 15] = [
    ("fig4", fig4_block_times),
    ("table1", table1_implementation_gap),
    ("fig8", fig8_static_plans),
    ("table2", table2_static_optimal),
    ("fig9", fig9_dynamic_plans),
    ("fig10", fig10_common_nns),
    ("fig11", fig11_expectation_vs_truth),
    ("fig12", fig12_enum_budget),
    ("fig13", fig13_distributions),
    ("table3", table3_activation_cache),
    ("fig14a", fig14a_model_structures),
    ("fig14b", fig14b_branch_structures),
    ("ablation_components", ablation_components),
    ("ablation_overhead", ablation_replan_overhead),
    ("transformer", transformer_exits),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<_> = ALL.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }

    #[test]
    fn every_experiment_has_a_committed_report() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for (name, _) in ALL {
            let path = results.join(format!("{name}.txt"));
            assert!(path.is_file(), "{} is missing", path.display());
        }
    }
}
