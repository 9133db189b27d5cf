//! The hybrid search algorithm (Algorithm 2).

use std::cell::Cell;

use einet_trace::{self as trace, Args, Category};

use crate::plan::ExitPlan;
use crate::search::enumerate::enumerate_prefix;
use crate::search::greedy::greedy_augment;
use crate::search::PlanObjective;

/// Counts the candidates an objective scores, for the `candidates_scored`
/// trace counter.
struct Counted<'a> {
    inner: &'a dyn PlanObjective,
    scored: Cell<u64>,
}

impl PlanObjective for Counted<'_> {
    fn score(&self, plan: &ExitPlan) -> f64 {
        self.scored.set(self.scored.get() + 1);
        self.inner.score(plan)
    }

    fn score_additions(&self, current: &ExitPlan, candidates: &[usize], scores: &mut Vec<f64>) {
        self.scored.set(self.scored.get() + candidates.len() as u64);
        self.inner.score_additions(current, candidates, scores);
    }
}

/// Two-stage search (Algorithm 2): exhaustively enumerate all `2^m`
/// execute/skip assignments of the **first `m` free branches** (guaranteed
/// optimal over that prefix), then greedily augment the winner over the
/// remaining free positions, keeping the best plan seen anywhere.
///
/// For models with few exits this degenerates to full enumeration (optimal);
/// for the 40-exit MSDNet it finds near-optimal plans in `2^m + (n-m)^2`
/// expectation evaluations instead of `2^n` — sub-millisecond at the
/// paper's `m = 4..5` sweet spot (Fig. 12).
///
/// Each stage is a `search` trace span, and the candidates scored are a
/// `candidates_scored` counter; both are no-ops while tracing is off.
///
/// # Panics
///
/// Panics if any free index is out of range.
pub fn hybrid_search(
    base: &ExitPlan,
    free: &[usize],
    enum_outputs: usize,
    eval: &dyn PlanObjective,
) -> (ExitPlan, f64) {
    let m = enum_outputs.min(free.len());
    let counted = Counted {
        inner: eval,
        scored: Cell::new(0),
    };
    // Stage 1: exhaustive enumeration over the first m free branches
    // (Algorithm 2, lines 1-2).
    let (enum_plan, enum_score) = {
        let _s = trace::span_args(
            Category::Search,
            "enumerate",
            Args::one("branches", m as u64),
        );
        enumerate_prefix(base, &free[..m], &counted)
    };
    // Stage 2: greedy over the remaining branches from the enumeration
    // optimum (lines 3-11).
    let result = {
        let _s = trace::span_args(
            Category::Search,
            "greedy",
            Args::one("branches", (free.len() - m) as u64),
        );
        greedy_augment(&enum_plan, enum_score, &free[m..], &counted)
    };
    trace::counter(Category::Search, "candidates_scored", counted.scored.get());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately deceptive objective: pairs (0,1) and (2,3) only pay
    /// when complete, single bits cost a little. Pure greedy from the empty
    /// plan stalls; enumeration over 2 outputs finds a pair first.
    fn paired_eval(p: &ExitPlan) -> f64 {
        let b: Vec<bool> = p.to_bools();
        let mut score = 0.0;
        if b[0] && b[1] {
            score += 2.0;
        }
        if b[2] && b[3] {
            score += 2.0;
        }
        score - 0.1 * p.count_executed() as f64
    }

    #[test]
    fn hybrid_beats_pure_greedy_on_deceptive_objective() {
        let base = ExitPlan::empty(4);
        let free = [0_usize, 1, 2, 3];
        let (_, greedy_score) =
            crate::search::greedy::greedy_augment(&base, paired_eval(&base), &free, &paired_eval);
        let (hybrid_plan, hybrid_score) = hybrid_search(&base, &free, 2, &paired_eval);
        assert!(hybrid_score >= greedy_score);
        assert_eq!(hybrid_plan, ExitPlan::full(4));
        assert!((hybrid_score - 3.6).abs() < 1e-12);
    }

    #[test]
    fn full_budget_is_exhaustive() {
        let base = ExitPlan::empty(4);
        let free = [0_usize, 1, 2, 3];
        let (plan, score) = hybrid_search(&base, &free, 4, &paired_eval);
        // Brute force.
        let mut best = f64::NEG_INFINITY;
        for bits in 0..16_u64 {
            let mut p = ExitPlan::empty(4);
            for i in 0..4 {
                p.set(i, (bits >> i) & 1 == 1);
            }
            best = best.max(paired_eval(&p));
        }
        assert!((score - best).abs() < 1e-12);
        let _ = plan;
    }

    #[test]
    fn zero_budget_reduces_to_greedy() {
        let base = ExitPlan::empty(3);
        let eval = |p: &ExitPlan| p.iter_executed().map(|i| [0.3, -0.5, 0.7][i]).sum::<f64>();
        let (plan, score) = hybrid_search(&base, &[0, 1, 2], 0, &eval);
        assert_eq!(plan, ExitPlan::from_indices(3, &[0, 2]));
        assert!((score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_free_returns_base() {
        let base = ExitPlan::from_indices(3, &[1]);
        let eval = |p: &ExitPlan| p.count_executed() as f64;
        let (plan, score) = hybrid_search(&base, &[], 4, &eval);
        assert_eq!(plan, base);
        assert_eq!(score, 1.0);
    }
}
