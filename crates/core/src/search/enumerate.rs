//! Exhaustive enumeration over bounded-output plans.

use crate::plan::ExitPlan;
use crate::search::PlanObjective;

/// Enumerates every plan obtained by executing **at most** `max_outputs` of
/// the `free` positions on top of `base`, returning the best plan and score.
///
/// With `max_outputs = free.len()` this is a full `2^|free|` exhaustive
/// search — optimal but exponential, which is why the paper bounds the
/// budget (a 40-exit model would take ~40 days to enumerate fully).
///
/// # Panics
///
/// Panics if any free index is out of range of `base`.
pub fn enumerate_best(
    base: &ExitPlan,
    free: &[usize],
    max_outputs: usize,
    eval: &dyn Fn(&ExitPlan) -> f64,
) -> (ExitPlan, f64) {
    for &i in free {
        assert!(i < base.len(), "free index {i} out of range");
    }
    let mut best_plan = *base;
    let mut best_score = eval(base);
    let budget = max_outputs.min(free.len());
    // Depth-first over combinations of free positions with ≤ budget set.
    let mut chosen: Vec<usize> = Vec::with_capacity(budget);
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        base: &ExitPlan,
        free: &[usize],
        start: usize,
        budget: usize,
        chosen: &mut Vec<usize>,
        eval: &dyn Fn(&ExitPlan) -> f64,
        best_plan: &mut ExitPlan,
        best_score: &mut f64,
    ) {
        if chosen.len() == budget || start == free.len() {
            return;
        }
        for k in start..free.len() {
            chosen.push(free[k]);
            let mut plan = *base;
            for &i in chosen.iter() {
                plan.set(i, true);
            }
            let score = eval(&plan);
            if score > *best_score {
                *best_score = score;
                *best_plan = plan;
            }
            recurse(
                base,
                free,
                k + 1,
                budget,
                chosen,
                eval,
                best_plan,
                best_score,
            );
            chosen.pop();
        }
    }
    recurse(
        base,
        free,
        0,
        budget,
        &mut chosen,
        eval,
        &mut best_plan,
        &mut best_score,
    );
    (best_plan, best_score)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Score = number of executed bits among {1, 3} minus executed bits
    /// elsewhere — optimum is exactly {1, 3}.
    fn toy_eval(p: &ExitPlan) -> f64 {
        let mut s = 0.0;
        for i in p.iter_executed() {
            s += if i == 1 || i == 3 { 1.0 } else { -1.0 };
        }
        s
    }

    #[test]
    fn finds_exact_optimum_with_enough_budget() {
        let base = ExitPlan::empty(5);
        let free: Vec<usize> = (0..5).collect();
        let (plan, score) = enumerate_best(&base, &free, 5, &toy_eval);
        assert_eq!(score, 2.0);
        assert_eq!(plan, ExitPlan::from_indices(5, &[1, 3]));
    }

    #[test]
    fn budget_limits_outputs() {
        let base = ExitPlan::empty(5);
        let free: Vec<usize> = (0..5).collect();
        let (plan, score) = enumerate_best(&base, &free, 1, &toy_eval);
        assert_eq!(score, 1.0);
        assert_eq!(plan.count_executed(), 1);
    }

    #[test]
    fn respects_base_bits() {
        let base = ExitPlan::from_indices(5, &[0]);
        let free = [1_usize, 2, 3];
        let (plan, _) = enumerate_best(&base, &free, 3, &toy_eval);
        assert!(plan.get(0), "base bits must persist");
        assert!(!plan.get(4), "non-free bits must stay clear");
    }

    #[test]
    fn zero_budget_returns_base() {
        let base = ExitPlan::from_indices(4, &[2]);
        let (plan, score) = enumerate_best(&base, &[0, 1, 3], 0, &toy_eval);
        assert_eq!(plan, base);
        assert_eq!(score, toy_eval(&base));
    }

    #[test]
    fn visits_every_combination() {
        // Count evaluations: sum of C(4, k) for k=1..=2 is 4 + 6 = 10, plus
        // the base evaluation.
        use std::cell::Cell;
        let count = Cell::new(0usize);
        let eval = |_: &ExitPlan| {
            count.set(count.get() + 1);
            0.0
        };
        let base = ExitPlan::empty(4);
        enumerate_best(&base, &[0, 1, 2, 3], 2, &eval);
        assert_eq!(count.get(), 11);
    }
}

/// Enumerates **all** `2^positions.len()` execute/skip assignments of the
/// given positions on top of `base` — the first stage of the paper's hybrid
/// search, which exhaustively decides the *first m branches* (Algorithm 2,
/// line 1) rather than bounding the output count.
///
/// # Panics
///
/// Panics if any position is out of range or more than 20 positions are
/// given (2^20 plans is already far past the practical budget).
pub fn enumerate_prefix(
    base: &ExitPlan,
    positions: &[usize],
    eval: &dyn PlanObjective,
) -> (ExitPlan, f64) {
    assert!(
        positions.len() <= 20,
        "prefix enumeration over {} positions is intractable",
        positions.len()
    );
    for &i in positions {
        assert!(i < base.len(), "position {i} out of range");
    }
    let mut best_plan = *base;
    let mut best_score = f64::NEG_INFINITY;
    for bits in 0..(1_u64 << positions.len()) {
        let mut plan = *base;
        for (k, &i) in positions.iter().enumerate() {
            plan.set(i, (bits >> k) & 1 == 1);
        }
        let score = eval.score(&plan);
        if score > best_score {
            best_score = score;
            best_plan = plan;
        }
    }
    (best_plan, best_score)
}

#[cfg(test)]
mod prefix_tests {
    use super::*;

    #[test]
    fn prefix_enumeration_is_exhaustive_over_positions() {
        // Optimum over bits {0,2} with bit 1 frozen off.
        let eval = |p: &ExitPlan| {
            let b = p.to_bools();
            (if b[0] { 2.0 } else { 0.0 }) + (if b[2] { -1.0 } else { 0.5 })
        };
        let base = ExitPlan::empty(3);
        let (plan, score) = enumerate_prefix(&base, &[0, 2], &eval);
        assert_eq!(plan, ExitPlan::from_indices(3, &[0]));
        assert!((score - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_positions_return_base() {
        let base = ExitPlan::from_indices(4, &[1]);
        let eval = |p: &ExitPlan| p.count_executed() as f64;
        let (plan, score) = enumerate_prefix(&base, &[], &eval);
        assert_eq!(plan, base);
        assert_eq!(score, 1.0);
    }
}
