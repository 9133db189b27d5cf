//! Exit-plan search (Algorithm 2 and its baselines).
//!
//! The search space over `n` exits has `2ⁿ` plans; the hybrid search of the
//! paper combines exhaustive enumeration over the *first few branches* with
//! greedy augmentation over the rest, bringing the cost to
//! `2^m + O(n²)` expectation evaluations while staying near-optimal.
//!
//! All searchers operate through a plan-scoring objective ([`PlanObjective`],
//! implemented by any `Fn(&ExitPlan) -> f64` closure) so the same code
//! serves offline planning (average profiles), online replanning (frozen
//! history prefix + predicted future confidences), and ground-truth studies.
//! [`SearchEngine::search`] scores through a resuming expectation objective
//! that shares scan prefixes between candidates (`objective.rs`).

mod cache;
mod enumerate;
mod greedy;
mod hybrid;
mod objective;
mod random;

pub use cache::{CacheStats, ExpectationCache};
pub use enumerate::{enumerate_best, enumerate_prefix};
pub use greedy::greedy_augment;
pub use hybrid::hybrid_search;
pub use objective::PlanObjective;
pub use random::random_search;

use std::cell::RefCell;

use einet_profile::EtProfile;

use crate::plan::ExitPlan;
use crate::search::objective::ExpectationObjective;
use crate::time_dist::TimeDistribution;

/// The online Search Engine of EINet: hybrid search configured with the
/// number of leading branches to enumerate exhaustively (Fig. 12 shows 4-5
/// to be the sweet spot).
///
/// # Example
///
/// ```
/// use einet_core::{SearchEngine, TimeDistribution};
/// use einet_profile::EtProfile;
///
/// let et = EtProfile::new(vec![1.0; 6], vec![0.4; 6])?;
/// let dist = TimeDistribution::Uniform;
/// let engine = SearchEngine::new(4);
/// let confs = [0.3, 0.45, 0.6, 0.7, 0.85, 0.95];
/// let (plan, score) = engine.search(&et, &dist, &confs, 0, None);
/// assert!(score > 0.0);
/// assert_eq!(plan.len(), 6);
/// # Ok::<(), einet_profile::ProfileIoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchEngine {
    enum_outputs: usize,
}

impl SearchEngine {
    /// Creates an engine that exhaustively enumerates the first
    /// `enum_outputs` free branches before greedy augmentation.
    pub fn new(enum_outputs: usize) -> Self {
        SearchEngine { enum_outputs }
    }

    /// The number of leading branches enumerated exhaustively.
    pub fn enum_outputs(&self) -> usize {
        self.enum_outputs
    }

    /// Searches for a near-optimal plan.
    ///
    /// * `confidences` — actual scores for executed exits, predicted for the
    ///   rest (the `O'` list of Eq. 1).
    /// * `frozen_prefix` — the first `frozen_prefix` exits already lie in
    ///   the past; their bits are pinned to `history` and only deeper bits
    ///   are searched.
    /// * `history` — the plan actually executed so far (required when
    ///   `frozen_prefix > 0`).
    ///
    /// Returns the best plan found and its expectation.
    ///
    /// # Panics
    ///
    /// Panics if `frozen_prefix > 0` but `history` is `None`, or lengths
    /// disagree.
    pub fn search(
        &self,
        et: &EtProfile,
        dist: &TimeDistribution,
        confidences: &[f32],
        frozen_prefix: usize,
        history: Option<&ExitPlan>,
    ) -> (ExitPlan, f64) {
        let n = et.num_exits();
        let base = frozen_base(n, frozen_prefix, history);
        let free: Vec<usize> = (frozen_prefix..n).collect();
        let eval = ExpectationObjective::new(et, dist, confidences, &base, frozen_prefix);
        hybrid_search(&base, &free, self.enum_outputs, &eval)
    }

    /// [`SearchEngine::search`] scoring plans through a prefix-expectation
    /// memo. Returns the same plan and a bit-identical score (the memo
    /// resumes the identical scan op sequence; see `search::cache`), while
    /// skipping the shared-prefix part of most scans — the hybrid search's
    /// stages re-score thousands of plans that differ only in deep bits.
    ///
    /// The cache is invalidated (`begin_step`) on entry, because each call
    /// carries fresh confidences; pass the same cache across calls so its
    /// cumulative [`CacheStats`] track a whole run.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SearchEngine::search`].
    pub fn search_cached(
        &self,
        et: &EtProfile,
        dist: &TimeDistribution,
        confidences: &[f32],
        frozen_prefix: usize,
        history: Option<&ExitPlan>,
        cache: &mut ExpectationCache,
    ) -> (ExitPlan, f64) {
        let n = et.num_exits();
        let base = frozen_base(n, frozen_prefix, history);
        cache.begin_step();
        let stats_before = cache.stats();
        let free: Vec<usize> = (frozen_prefix..n).collect();
        let cache = RefCell::new(cache);
        let eval = |p: &ExitPlan| cache.borrow_mut().evaluate(et, dist, p, confidences);
        let result = hybrid_search(&base, &free, self.enum_outputs, &eval);
        if einet_trace::enabled() {
            let delta_stats = cache.borrow().stats();
            einet_trace::counter(
                einet_trace::Category::Search,
                "cache_hits",
                delta_stats.hits - stats_before.hits,
            );
            einet_trace::counter(
                einet_trace::Category::Search,
                "cache_misses",
                delta_stats.misses - stats_before.misses,
            );
        }
        result
    }
}

/// The plan a search starts from: `history`'s first `frozen_prefix` bits,
/// everything deeper clear.
fn frozen_base(n: usize, frozen_prefix: usize, history: Option<&ExitPlan>) -> ExitPlan {
    assert!(frozen_prefix <= n, "prefix out of range");
    match history {
        Some(h) => {
            assert_eq!(h.len(), n, "history length mismatch");
            ExitPlan::empty(n).with_frozen_prefix(h, frozen_prefix)
        }
        None => {
            assert_eq!(frozen_prefix, 0, "frozen prefix requires history");
            ExitPlan::empty(n)
        }
    }
}

impl Default for SearchEngine {
    /// The Fig. 12 sweet spot: enumerate the first four branches.
    fn default() -> Self {
        SearchEngine::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expectation::expectation;

    fn setup() -> (EtProfile, TimeDistribution, Vec<f32>) {
        let et = EtProfile::new(
            vec![1.0, 0.8, 1.2, 0.9, 1.1, 1.0],
            vec![0.3, 0.4, 0.35, 0.5, 0.3, 0.45],
        )
        .unwrap();
        (
            et,
            TimeDistribution::Uniform,
            vec![0.35, 0.5, 0.55, 0.7, 0.8, 0.93],
        )
    }

    #[test]
    fn engine_matches_exhaustive_on_small_models() {
        let (et, dist, confs) = setup();
        let engine = SearchEngine::new(6); // full enumeration budget
        let (plan, score) = engine.search(&et, &dist, &confs, 0, None);
        // Brute force over all 2^6 plans.
        let mut best = f64::NEG_INFINITY;
        let mut best_plan = ExitPlan::empty(6);
        for bits in 0..64_u64 {
            let mut p = ExitPlan::empty(6);
            for i in 0..6 {
                p.set(i, (bits >> i) & 1 == 1);
            }
            let e = expectation(&et, &dist, &p, &confs);
            if e > best {
                best = e;
                best_plan = p;
            }
        }
        assert!(
            (score - best).abs() < 1e-12,
            "engine {score} vs brute {best}"
        );
        assert_eq!(plan, best_plan);
    }

    #[test]
    fn frozen_prefix_is_respected() {
        let (et, dist, confs) = setup();
        let engine = SearchEngine::default();
        let mut history = ExitPlan::empty(6);
        history.set(0, true);
        history.set(1, false);
        let (plan, _) = engine.search(&et, &dist, &confs, 2, Some(&history));
        assert!(plan.get(0));
        assert!(!plan.get(1));
    }

    #[test]
    fn larger_budget_never_worse() {
        let (et, dist, confs) = setup();
        let (_, small) = SearchEngine::new(1).search(&et, &dist, &confs, 0, None);
        let (_, large) = SearchEngine::new(6).search(&et, &dist, &confs, 0, None);
        assert!(large >= small - 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires history")]
    fn prefix_without_history_panics() {
        let (et, dist, confs) = setup();
        SearchEngine::default().search(&et, &dist, &confs, 1, None);
    }
}
