//! Greedy plan augmentation.

use crate::plan::ExitPlan;
use crate::search::PlanObjective;

/// Starting from `start`, repeatedly sets the single remaining free bit that
/// yields the highest expectation, until every free bit is set; returns the
/// best plan seen along the whole trajectory (Algorithm 2, lines 5–11).
///
/// The paper's greedy keeps adding outputs even past the local peak (it
/// "performs traversal and selection until all branches are selected") and
/// reports the best plan encountered — matching that exactly matters,
/// because the expectation surface is non-monotone in the output count.
///
/// # Panics
///
/// Panics if any free index is out of range.
pub fn greedy_augment(
    start: &ExitPlan,
    start_score: f64,
    free: &[usize],
    eval: &dyn PlanObjective,
) -> (ExitPlan, f64) {
    for &i in free {
        assert!(i < start.len(), "free index {i} out of range");
    }
    let mut remaining: Vec<usize> = free.iter().copied().filter(|&i| !start.get(i)).collect();
    let mut current = *start;
    let mut best_plan = *start;
    let mut best_score = start_score;
    let mut scores = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        eval.score_additions(&current, &remaining, &mut scores);
        let mut round_best: Option<(usize, f64)> = None;
        for (slot, &score) in scores.iter().enumerate() {
            if round_best.is_none_or(|(_, best)| score > best) {
                round_best = Some((slot, score));
            }
        }
        let (slot, score) = round_best.expect("remaining is non-empty");
        current = current.with(remaining.swap_remove(slot), true);
        if score > best_score {
            best_score = score;
            best_plan = current;
        }
    }
    (best_plan, best_score)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn climbs_to_separable_optimum() {
        // Independent bit rewards: greedy is exact.
        let rewards = [0.5, -0.2, 0.8, -0.1];
        let eval = |p: &ExitPlan| p.iter_executed().map(|i| rewards[i]).sum::<f64>();
        let start = ExitPlan::empty(4);
        let (plan, score) = greedy_augment(&start, 0.0, &[0, 1, 2, 3], &eval);
        assert_eq!(plan, ExitPlan::from_indices(4, &[0, 2]));
        assert!((score - 1.3).abs() < 1e-12);
    }

    #[test]
    fn keeps_best_seen_not_final() {
        // Every added bit costs 1: the best plan is the start itself.
        let eval = |p: &ExitPlan| -(p.count_executed() as f64);
        let start = ExitPlan::empty(3);
        let (plan, score) = greedy_augment(&start, 0.0, &[0, 1, 2], &eval);
        assert_eq!(plan, start);
        assert_eq!(score, 0.0);
    }

    #[test]
    fn continues_past_plateau() {
        // Reward only when exactly bits {0,1,2} are all set; the path there
        // passes through worse plans — greedy still reaches it because it
        // runs to exhaustion.
        let eval = |p: &ExitPlan| {
            if p.count_executed() == 3 {
                10.0
            } else {
                -(p.count_executed() as f64)
            }
        };
        let start = ExitPlan::empty(3);
        let (plan, score) = greedy_augment(&start, 0.0, &[0, 1, 2], &eval);
        assert_eq!(plan, ExitPlan::full(3));
        assert_eq!(score, 10.0);
    }

    #[test]
    fn respects_already_set_bits() {
        let start = ExitPlan::from_indices(4, &[1]);
        let eval = |p: &ExitPlan| p.count_executed() as f64;
        let (plan, _) = greedy_augment(&start, 1.0, &[2, 3], &eval);
        assert!(plan.get(1));
        assert!(plan.get(2) && plan.get(3));
        assert!(!plan.get(0), "bit 0 was not free");
    }

    #[test]
    fn empty_free_set_is_identity() {
        let start = ExitPlan::from_indices(3, &[0]);
        let (plan, score) = greedy_augment(&start, 42.0, &[], &|_: &ExitPlan| 0.0);
        assert_eq!(plan, start);
        assert_eq!(score, 42.0);
    }
}
