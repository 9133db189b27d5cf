//! Accuracy-evaluation helpers (Section VI methodology).
//!
//! The paper's metric — draw a random kill time per sample and score the
//! last output held then — is computed exactly by
//! [`ElasticRuntime::overall_accuracy`](crate::ElasticRuntime::overall_accuracy);
//! this module holds the fixed-plan forms of it and the profile transforms
//! the experiments build their baselines from.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use einet_profile::{CsProfile, EtProfile};

use crate::expectation::expectation;
use crate::plan::ExitPlan;
use crate::runtime::SampleTable;
use crate::time_dist::TimeDistribution;

/// Converts a whole CS-profile into per-sample simulation tables.
pub fn tables_from_profile(profile: &CsProfile) -> Vec<SampleTable> {
    (0..profile.len())
        .map(|i| SampleTable::from_profile(profile, i))
        .collect()
}

/// Ground-truth overall accuracy of a *fixed* plan (used by Fig. 11 to
/// validate the expectation metric): Eq. 5 with each exit's correctness
/// (1 or 0) in place of its confidence, averaged over samples. It equals
/// [`ElasticRuntime::overall_accuracy`](crate::ElasticRuntime::overall_accuracy)
/// under a [`StaticPlanner`](crate::StaticPlanner) of the same plan.
///
/// # Panics
///
/// Panics if `tables` is empty.
pub fn plan_ground_truth(
    et: &EtProfile,
    dist: &TimeDistribution,
    tables: &[SampleTable],
    plan: &ExitPlan,
) -> f64 {
    assert!(!tables.is_empty(), "no samples to evaluate");
    let sum: f64 = tables
        .iter()
        .map(|t| {
            let correct: Vec<f32> = t
                .predictions
                .iter()
                .map(|&p| if p == t.label { 1.0 } else { 0.0 })
                .collect();
            expectation(et, dist, plan, &correct)
        })
        .sum();
    sum / tables.len() as f64
}

/// The *calculated expectation* of a fixed plan averaged over samples, using
/// each sample's actual confidence list — the metric Fig. 11 compares
/// against ground truth.
///
/// # Panics
///
/// Panics if `tables` is empty.
pub fn plan_expected(
    et: &EtProfile,
    dist: &TimeDistribution,
    tables: &[SampleTable],
    plan: &ExitPlan,
) -> f64 {
    assert!(!tables.is_empty(), "no samples to evaluate");
    let sum: f64 = tables
        .iter()
        .map(|t| expectation(et, dist, plan, &t.confidences))
        .sum();
    sum / tables.len() as f64
}

/// Like [`plan_expected`], but with per-exit calibration factors applied to
/// every confidence (`c'ᵢ = cᵢ · calibration[i]`), mapping over-confident
/// scores onto the accuracy scale before the expectation is computed.
///
/// # Panics
///
/// Panics if `tables` is empty or the calibration width mismatches.
pub fn plan_expected_calibrated(
    et: &EtProfile,
    dist: &TimeDistribution,
    tables: &[SampleTable],
    plan: &ExitPlan,
    calibration: &[f32],
) -> f64 {
    assert!(!tables.is_empty(), "no samples to evaluate");
    assert_eq!(
        calibration.len(),
        et.num_exits(),
        "calibration width mismatch"
    );
    let sum: f64 = tables
        .iter()
        .map(|t| {
            let scaled: Vec<f32> = t
                .confidences
                .iter()
                .zip(calibration)
                .map(|(&c, &k)| (c * k).clamp(0.0, 1.0))
                .collect();
            expectation(et, dist, plan, &scaled)
        })
        .sum();
    sum / tables.len() as f64
}

/// Derives the profile of a *compressed* single-exit model from the base
/// model's profile: the timeline shrinks by `time_factor` (compression makes
/// inference faster) while only the final exit exists.
///
/// # Panics
///
/// Panics unless `0 < time_factor <= 1`.
pub fn compressed_profile(et: &EtProfile, time_factor: f64) -> EtProfile {
    assert!(
        time_factor > 0.0 && time_factor <= 1.0,
        "time factor must be in (0, 1]"
    );
    let conv: Vec<f64> = et.conv_ms().iter().map(|t| t * time_factor).collect();
    let branch: Vec<f64> = et.branch_ms().iter().map(|t| t * time_factor).collect();
    EtProfile::new(conv, branch).expect("scaled profile stays valid")
}

/// Degrades the final-exit predictions of a `fraction` of samples to model
/// the accuracy loss of model compression (Section VI-B3's compressed
/// baseline). Deterministic given the seed.
///
/// # Panics
///
/// Panics unless `0 <= fraction <= 1`.
pub fn degrade_final_exit(tables: &mut [SampleTable], fraction: f64, seed: u64) {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    use rand::Rng;
    let mut rng = SmallRng::seed_from_u64(seed);
    for table in tables.iter_mut() {
        if rng.gen_bool(fraction) {
            let last = table.predictions.len() - 1;
            // Force an incorrect final answer.
            table.predictions[last] = table.label.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{AllExitsPlanner, ClassicPlanner};
    use crate::runtime::ElasticRuntime;

    fn fixture() -> (EtProfile, TimeDistribution, Vec<SampleTable>) {
        let et = EtProfile::new(vec![1.0; 5], vec![0.5; 5]).unwrap();
        let dist = TimeDistribution::Uniform;
        // 20 samples: exits get progressively more accurate.
        let tables: Vec<SampleTable> = (0..20)
            .map(|s| {
                let label = (s % 4) as u16;
                let predictions: Vec<u16> = (0..5)
                    .map(|e| {
                        // Exit e correct for samples with s % 5 <= e.
                        if s % 5 <= e {
                            label
                        } else {
                            label + 1
                        }
                    })
                    .collect();
                let confidences: Vec<f32> = (0..5).map(|e| 0.3 + 0.15 * e as f32).collect();
                SampleTable {
                    confidences,
                    predictions,
                    label,
                }
            })
            .collect();
        (et, dist, tables)
    }

    #[test]
    fn accuracy_in_unit_range_and_deterministic() {
        let (et, dist, tables) = fixture();
        let rt = ElasticRuntime::new(&et, &dist);
        let mut p = AllExitsPlanner;
        let a1 = rt.overall_accuracy(&tables, &mut p);
        let a2 = rt.overall_accuracy(&tables, &mut p);
        assert!((0.0..=1.0).contains(&a1));
        assert_eq!(a1, a2, "one trajectory per sample must reproduce");
    }

    #[test]
    fn multi_exit_beats_classic_under_preemption() {
        let (et, dist, tables) = fixture();
        let rt = ElasticRuntime::new(&et, &dist);
        let acc_all = rt.overall_accuracy(&tables, &mut AllExitsPlanner);
        let acc_classic = rt.overall_accuracy(&tables, &mut ClassicPlanner);
        assert!(
            acc_all > acc_classic,
            "elastic inference must beat single-exit: {acc_all} vs {acc_classic}"
        );
    }

    #[test]
    fn expectation_tracks_ground_truth_direction() {
        let (et, dist, tables) = fixture();
        let full = ExitPlan::full(5);
        let sparse = ExitPlan::from_indices(5, &[4]);
        let gt_full = plan_ground_truth(&et, &dist, &tables, &full);
        let gt_sparse = plan_ground_truth(&et, &dist, &tables, &sparse);
        let ex_full = plan_expected(&et, &dist, &tables, &full);
        let ex_sparse = plan_expected(&et, &dist, &tables, &sparse);
        // Both metrics should order the two plans the same way.
        assert_eq!(gt_full > gt_sparse, ex_full > ex_sparse);
    }

    #[test]
    fn compressed_profile_shrinks_time() {
        let (et, _, _) = fixture();
        let fast = compressed_profile(&et, 0.5);
        assert!((fast.total_ms() - et.total_ms() * 0.5).abs() < 1e-9);
    }

    #[test]
    fn degrade_final_exit_lowers_last_exit_accuracy() {
        let (_, _, mut tables) = fixture();
        let before: usize = tables
            .iter()
            .filter(|t| t.predictions[4] == t.label)
            .count();
        degrade_final_exit(&mut tables, 1.0, 5);
        let after: usize = tables
            .iter()
            .filter(|t| t.predictions[4] == t.label)
            .count();
        assert_eq!(after, 0);
        assert!(before > 0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn rejects_empty_tables() {
        let (et, dist, _) = fixture();
        ElasticRuntime::new(&et, &dist).overall_accuracy(&[], &mut AllExitsPlanner);
    }
}
