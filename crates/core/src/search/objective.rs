//! What the searches maximise: a plan-scoring objective.
//!
//! Any `Fn(&ExitPlan) -> f64` closure is an objective, and the greedy stage
//! scores its candidates through [`PlanObjective::score_additions`], whose
//! default rescans every candidate from scratch. The expectation objective
//! of [`SearchEngine::search`](crate::SearchEngine::search) overrides it to
//! *resume* the Algorithm 1 scan instead: the scan state after exit `d`
//! depends only on the plan bits `< d`, so
//!
//! * the frozen history prefix is scanned once per search;
//! * a greedy round scans the current plan's prefix once, and the candidate
//!   `current ∪ {i}` resumes from the state before exit `i`. Past `i` every
//!   candidate has `current`'s bits, so their replays run side by side, one
//!   exit at a time (`expectation::Lanes`);
//! * a scan stops after the plan's deepest executed exit — the skipped
//!   exits beyond it only advance the elapsed time, which closing the scan
//!   never reads.
//!
//! Each resumed score replays exactly the floating-point ops of a fresh
//! [`expectation`](crate::expectation) call, so plans and scores are
//! bit-identical to a closure over it (`tests/search_resume.rs`).

use einet_profile::EtProfile;

use crate::expectation::{low_mask, scan_end, Lanes, Scan, ScanState};
use crate::plan::ExitPlan;
use crate::time_dist::TimeDistribution;

/// A plan-scoring objective for [`hybrid_search`](super::hybrid_search),
/// [`greedy_augment`](super::greedy_augment) and
/// [`enumerate_prefix`](super::enumerate_prefix). Implemented by every
/// `Fn(&ExitPlan) -> f64`.
pub trait PlanObjective {
    /// Scores one plan.
    fn score(&self, plan: &ExitPlan) -> f64;

    /// Replaces `scores` with the score of `current` with bit `i` set, for
    /// each `i` of `candidates` in order. The default scores each candidate
    /// with [`PlanObjective::score`].
    fn score_additions(&self, current: &ExitPlan, candidates: &[usize], scores: &mut Vec<f64>) {
        scores.clear();
        scores.extend(
            candidates
                .iter()
                .map(|&i| self.score(&current.with(i, true))),
        );
    }
}

impl<F: Fn(&ExitPlan) -> f64> PlanObjective for F {
    fn score(&self, plan: &ExitPlan) -> f64 {
        self(plan)
    }
}

/// Algorithm 1 as a resuming objective: scores equal
/// [`expectation`](crate::expectation) bit for bit (see the module docs).
pub(crate) struct ExpectationObjective<'a> {
    scan: Scan<'a>,
    /// Depth of the prefix every plan of this search shares.
    frozen: usize,
    /// The shared prefix's bits (all below `frozen`).
    frozen_bits: u64,
    /// The scan state after the shared prefix.
    frozen_state: ScanState,
}

impl<'a> ExpectationObjective<'a> {
    /// An objective over one `(profile, distribution, confidences)` triple
    /// whose plans share `base`'s bits below `frozen`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree or `frozen` exceeds the exit count.
    pub(crate) fn new(
        et: &'a EtProfile,
        dist: &'a TimeDistribution,
        confidences: &'a [f32],
        base: &ExitPlan,
        frozen: usize,
    ) -> Self {
        let scan = Scan::new(et, dist, confidences);
        assert_eq!(base.len(), scan.len(), "plan/profile length mismatch");
        assert!(frozen <= scan.len(), "prefix out of range");
        let frozen_bits = base.bits() & low_mask(frozen);
        ExpectationObjective {
            frozen_state: scan.exits(frozen_bits, ScanState::START, 0, frozen),
            scan,
            frozen,
            frozen_bits,
        }
    }

    /// The deepest precomputed state a plan with `bits` may resume from,
    /// and its depth.
    fn resume_point(&self, bits: u64) -> (ScanState, usize) {
        if bits & low_mask(self.frozen) == self.frozen_bits {
            (self.frozen_state, self.frozen)
        } else {
            (ScanState::START, 0)
        }
    }
}

impl PlanObjective for ExpectationObjective<'_> {
    fn score(&self, plan: &ExitPlan) -> f64 {
        assert_eq!(plan.len(), self.scan.len(), "plan/profile length mismatch");
        let bits = plan.bits();
        let (state, from) = self.resume_point(bits);
        let end = scan_end(bits).max(from);
        self.scan.close(self.scan.exits(bits, state, from, end))
    }

    fn score_additions(&self, current: &ExitPlan, candidates: &[usize], scores: &mut Vec<f64>) {
        let n = self.scan.len();
        assert_eq!(current.len(), n, "plan/profile length mismatch");
        scores.clear();
        let mut wanted = 0_u64;
        for &i in candidates {
            assert!(i < n, "exit {i} out of range for {n} exits");
            wanted |= 1 << i;
        }
        if wanted == 0 {
            return;
        }
        let bits = current.bits();
        let (mut state, mut at) = match self.resume_point(bits) {
            (state, from) if from <= wanted.trailing_zeros() as usize => (state, from),
            _ => (ScanState::START, 0),
        };
        // One walk carries `current`'s prefix state across the candidates in
        // ascending order; each candidate branches off it at its own exit:
        // lane `l` holds `current ∪ {exit[l]}` after its branching exit.
        let mut lanes = Lanes::new();
        let mut exit = [0_usize; ExitPlan::MAX_EXITS];
        while wanted != 0 {
            let i = wanted.trailing_zeros() as usize;
            state = self.scan.exits(bits, state, at, i);
            at = i;
            exit[lanes.len()] = i;
            lanes.push(self.scan.execute(state, i));
            wanted &= wanted - 1;
        }
        // Past its own exit every candidate has `current`'s bits, so the
        // lanes replay exit by exit side by side, up to `current`'s deepest
        // executed exit (nothing after it is observable).
        let mut active = 0;
        for k in exit[0] + 1..scan_end(bits) {
            while active < lanes.len() && exit[active] < k {
                active += 1;
            }
            self.scan
                .step_lanes(&mut lanes, active, k, (bits >> k) & 1 == 1);
        }
        let mut by_exit = [0.0; ExitPlan::MAX_EXITS];
        for (l, &i) in exit[..lanes.len()].iter().enumerate() {
            by_exit[i] = self.scan.close(lanes.get(l));
        }
        scores.extend(candidates.iter().map(|&i| by_exit[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expectation::expectation;

    fn fixture(n: usize) -> (EtProfile, Vec<f32>) {
        let conv: Vec<f64> = (0..n).map(|i| 0.6 + 0.17 * ((i * 5) % 7) as f64).collect();
        let branch: Vec<f64> = (0..n).map(|i| 0.1 + 0.09 * ((i * 3) % 4) as f64).collect();
        let confs: Vec<f32> = (0..n).map(|i| 0.25 + 0.7 * (i as f32 / n as f32)).collect();
        (EtProfile::new(conv, branch).unwrap(), confs)
    }

    #[test]
    fn resumed_scores_are_bitwise_fresh_scores() {
        for n in [1, 7, 40, 64] {
            let (et, confs) = fixture(n);
            let dist = TimeDistribution::gaussian(0.4);
            let history = ExitPlan::from_indices(n, &[0, n / 2]);
            for frozen in [0, n / 3, n] {
                let obj = ExpectationObjective::new(&et, &dist, &confs, &history, frozen);
                let current =
                    ExitPlan::from_indices(n, &[n - 1]).with_frozen_prefix(&history, frozen);
                let candidates: Vec<usize> = (frozen..n).collect();
                let mut scores = Vec::new();
                obj.score_additions(&current, &candidates, &mut scores);
                for (&i, &got) in candidates.iter().zip(&scores) {
                    let plan = current.with(i, true);
                    let fresh = expectation(&et, &dist, &plan, &confs);
                    assert_eq!(
                        got.to_bits(),
                        fresh.to_bits(),
                        "n={n} frozen={frozen} i={i}"
                    );
                    assert_eq!(obj.score(&plan).to_bits(), fresh.to_bits());
                }
            }
        }
    }

    #[test]
    fn plans_off_the_frozen_prefix_rescan() {
        let (et, confs) = fixture(9);
        let dist = TimeDistribution::Uniform;
        let obj = ExpectationObjective::new(&et, &dist, &confs, &ExitPlan::full(9), 5);
        let stranger = ExitPlan::from_indices(9, &[1, 6]);
        let fresh = expectation(&et, &dist, &stranger, &confs);
        assert_eq!(obj.score(&stranger).to_bits(), fresh.to_bits());
        let mut scores = Vec::new();
        obj.score_additions(&stranger, &[0, 8], &mut scores);
        for (&i, &got) in [0_usize, 8].iter().zip(&scores) {
            let want = expectation(&et, &dist, &stranger.with(i, true), &confs);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn closures_are_objectives() {
        let eval = |p: &ExitPlan| p.count_executed() as f64;
        let mut scores = Vec::new();
        eval.score_additions(&ExitPlan::from_indices(4, &[0]), &[1, 0, 3], &mut scores);
        assert_eq!(scores, vec![2.0, 1.0, 2.0]);
    }
}
