//! `SearchEngine::search` scores candidates by resuming shared scan
//! prefixes; it must find exactly the plan, and exactly the score bits, of
//! the same hybrid search over a closure calling `expectation()` — across
//! model sizes up to the 64-exit plan word, every enumeration budget the
//! engine is run with, random frozen histories and all three kill-time
//! distribution families.

use einet_core::search::hybrid_search;
use einet_core::{expectation, ExitPlan, SearchEngine, TimeDistribution};
use einet_profile::EtProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_profile(n: usize, rng: &mut SmallRng) -> EtProfile {
    let conv: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..3.0)).collect();
    let branch: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.5)).collect();
    EtProfile::new(conv, branch).unwrap()
}

/// Confidences in `[0, 1)` with the occasional exact zero (an exit that has
/// produced nothing usable).
fn random_confidences(n: usize, rng: &mut SmallRng) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.1) {
                0.0
            } else {
                rng.gen_range(0.0..1.0)
            }
        })
        .collect()
}

fn distributions(rng: &mut SmallRng) -> [TimeDistribution; 3] {
    let segments = rng.gen_range(1..8);
    [
        TimeDistribution::Uniform,
        TimeDistribution::gaussian(rng.gen_range(0.2..1.5)),
        TimeDistribution::piecewise((0..segments).map(|_| rng.gen_range(0.1..4.0)).collect()),
    ]
}

#[test]
fn resumed_search_matches_the_expectation_closure_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0x5EA2C4);
    for n in [1, 2, 5, 21, 40, 63, 64] {
        for trial in 0..6 {
            let et = random_profile(n, &mut rng);
            let confs = random_confidences(n, &mut rng);
            let history =
                ExitPlan::from_bools(&(0..n).map(|_| rng.gen_bool(0.5)).collect::<Vec<_>>());
            // Trial 0 plans from scratch; the others replan mid-inference,
            // including with the whole history frozen.
            let frozen = match trial {
                0 => 0,
                5 => n,
                _ => rng.gen_range(0..=n),
            };
            for dist in distributions(&mut rng) {
                let base = ExitPlan::empty(n).with_frozen_prefix(&history, frozen);
                let free: Vec<usize> = (frozen..n).collect();
                let oracle = |p: &ExitPlan| expectation(&et, &dist, p, &confs);
                for m in 0..=6 {
                    let engine = SearchEngine::new(m);
                    let (plan, score) = engine.search(&et, &dist, &confs, frozen, Some(&history));
                    let (want_plan, want_score) = hybrid_search(&base, &free, m, &oracle);
                    let case = format!("n={n} frozen={frozen} m={m} dist={dist:?}");
                    assert_eq!(plan, want_plan, "{case}");
                    assert_eq!(score.to_bits(), want_score.to_bits(), "{case}");
                }
            }
        }
    }
}

#[test]
fn deepest_exit_of_a_full_word_resumes_correctly() {
    // Plans whose only executed exit is bit 63: resuming there must neither
    // shift a u64 by 64 nor lose the final interval.
    let n = 64;
    let mut rng = SmallRng::seed_from_u64(64);
    let et = random_profile(n, &mut rng);
    let confs = random_confidences(n, &mut rng);
    let dist = TimeDistribution::Uniform;
    let mut history = ExitPlan::empty(n);
    history.set(10, true);
    for frozen in [62, 63, 64] {
        let (plan, score) = SearchEngine::new(1).search(&et, &dist, &confs, frozen, Some(&history));
        let base = ExitPlan::empty(n).with_frozen_prefix(&history, frozen);
        let free: Vec<usize> = (frozen..n).collect();
        let oracle = |p: &ExitPlan| expectation(&et, &dist, p, &confs);
        let (want_plan, want_score) = hybrid_search(&base, &free, 1, &oracle);
        assert_eq!(plan, want_plan, "frozen={frozen}");
        assert_eq!(score.to_bits(), want_score.to_bits(), "frozen={frozen}");
    }
}
