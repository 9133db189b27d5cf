//! A prefix-expectation memo for plan search.
//!
//! Every plan score is a left-to-right scan over the exits
//! (`expectation::Scan`), and the scan state after depth `d` depends
//! only on the plan bits `< d`. Search evaluates thousands of plans per
//! re-plan step that share long prefixes — the hybrid search's greedy stage
//! holds the first `m` bits fixed while toggling deeper ones — so the memo
//! stores scan states keyed by `(depth, prefix bits)` at fixed checkpoint
//! depths and resumes from the deepest matching checkpoint instead of
//! rescanning from exit 0.
//!
//! **Invariant: cached states are only valid for one `(profile,
//! distribution, confidences)` triple.** The online loop re-plans with fresh
//! confidences after every output, so [`ExpectationCache::begin_step`] must
//! run (and does, inside [`SearchEngine::search_cached`]) at every step; it
//! clears the map but keeps the cumulative hit/miss counters that
//! `table3_cache` reports.
//!
//! **Invariant: resumed scans are bit-identical to fresh scans.** A resume
//! replays exactly the op sequence a full scan would execute from that
//! depth, and the stored state is itself the product of the same ops — so
//! plans and scores are unchanged whether the cache is on or off (asserted
//! in `tests/search_cache_parity.rs`).
//!
//! [`SearchEngine::search_cached`]: crate::SearchEngine::search_cached

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use einet_profile::EtProfile;

use crate::expectation::{Scan, ScanState};
use crate::plan::ExitPlan;
use crate::time_dist::TimeDistribution;

/// Checkpoint spacing in exits. Coarser spacing means fewer map probes and
/// inserts per evaluation (the overhead side of the trade), finer spacing
/// skips more of the scan on a hit. 16 is the break-even sweet spot measured
/// on the paper's 21- and 40-exit MSDNets (`table3_cache` bench).
const CHECKPOINT_EVERY: usize = 16;

/// Cumulative cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Evaluations that resumed from a cached prefix state.
    pub hits: u64,
    /// Evaluations that scanned from exit 0.
    pub misses: u64,
    /// Exits skipped thanks to resumed scans (scan work saved).
    pub exits_skipped: u64,
}

impl CacheStats {
    /// Hits over total lookups, or 0 when nothing was evaluated.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Multiply-rotate hasher for the `(depth, prefix bits)` key. The default
/// SipHash costs more than the 8-exit scan a checkpoint hit saves; this
/// folds the two words in a handful of cycles. Keys are not
/// attacker-controlled (they come from the search's own plan enumeration),
/// so a non-hardened hash is fine.
#[derive(Default)]
struct PrefixKeyHasher(u64);

impl PrefixKeyHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }
}

impl Hasher for PrefixKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
}

/// The prefix-expectation memo. See the module docs for the validity
/// invariants.
#[derive(Debug, Default)]
pub struct ExpectationCache {
    /// `(checkpoint depth, plan bits below that depth)` → scan state.
    states: HashMap<(u32, u64), ScanState, BuildHasherDefault<PrefixKeyHasher>>,
    stats: CacheStats,
}

impl ExpectationCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Invalidates all cached states (new confidences / profile /
    /// distribution). Counters are cumulative and survive.
    pub fn begin_step(&mut self) {
        self.states.clear();
    }

    /// Cumulative hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Cached states currently held.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the cache currently holds no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Scores `plan`, resuming from the deepest cached prefix state and
    /// recording checkpoints along the way. Identical result to
    /// [`expectation`](crate::expectation) — see the module invariants.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn evaluate(
        &mut self,
        et: &EtProfile,
        dist: &TimeDistribution,
        plan: &ExitPlan,
        confidences: &[f32],
    ) -> f64 {
        let n = et.num_exits();
        assert_eq!(plan.len(), n, "plan/profile length mismatch");
        let scan = Scan::new(et, dist, confidences);
        let bits = plan.bits();
        // Deepest checkpoint depth first.
        let mut depth = (n / CHECKPOINT_EVERY) * CHECKPOINT_EVERY;
        let mut state = ScanState::START;
        let mut resumed = false;
        while depth > 0 {
            if let Some(&s) = self.states.get(&(depth as u32, prefix_bits(bits, depth))) {
                state = s;
                resumed = true;
                break;
            }
            depth -= CHECKPOINT_EVERY;
        }
        if resumed {
            self.stats.hits += 1;
            self.stats.exits_skipped += depth as u64;
        } else {
            self.stats.misses += 1;
        }
        // Scan the rest, dropping a checkpoint at every multiple of the
        // spacing we pass through.
        let mut at = depth;
        while at + CHECKPOINT_EVERY <= n {
            let next = at + CHECKPOINT_EVERY;
            state = scan.exits(bits, state, at, next);
            self.states
                .entry((next as u32, prefix_bits(bits, next)))
                .or_insert(state);
            at = next;
        }
        scan.close(scan.exits(bits, state, at, n))
    }
}

/// The plan bits strictly below `depth` (the part of the key a prefix state
/// depends on).
fn prefix_bits(bits: u64, depth: usize) -> u64 {
    if depth >= 64 {
        bits
    } else {
        bits & ((1_u64 << depth) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expectation::expectation;

    fn profile(n: usize) -> EtProfile {
        let conv: Vec<f64> = (0..n).map(|i| 0.7 + 0.1 * (i % 5) as f64).collect();
        let branch: Vec<f64> = (0..n).map(|i| 0.2 + 0.05 * (i % 3) as f64).collect();
        EtProfile::new(conv, branch).unwrap()
    }

    fn confs(n: usize) -> Vec<f32> {
        (0..n).map(|i| 0.3 + 0.6 * (i as f32 / n as f32)).collect()
    }

    #[test]
    fn cached_scores_are_bitwise_equal_to_uncached() {
        let n = 20;
        let (et, dist, c) = (profile(n), TimeDistribution::gaussian(0.4), confs(n));
        let mut cache = ExpectationCache::new();
        cache.begin_step();
        for base in (0..4000_u64).map(|b| b.wrapping_mul(0x9E37_79B9) % (1 << n)) {
            // The second plan of each pair toggles a bit past the checkpoint
            // depth, so it shares the 16-bit prefix and must hit.
            for bits in [base, base ^ (1 << (n - 1))] {
                let mut plan = ExitPlan::empty(n);
                for i in 0..n {
                    plan.set(i, (bits >> i) & 1 == 1);
                }
                let cached = cache.evaluate(&et, &dist, &plan, &c);
                let direct = expectation(&et, &dist, &plan, &c);
                assert_eq!(
                    cached.to_bits(),
                    direct.to_bits(),
                    "plan {plan}: cached {cached} vs direct {direct}"
                );
            }
        }
        assert!(cache.stats().hits >= 4000, "shared prefixes must hit");
    }

    #[test]
    fn repeat_evaluations_hit() {
        let n = 16;
        let (et, dist, c) = (profile(n), TimeDistribution::Uniform, confs(n));
        let mut cache = ExpectationCache::new();
        let plan = ExitPlan::from_indices(n, &[2, 9, 15]);
        cache.evaluate(&et, &dist, &plan, &c);
        assert_eq!(cache.stats().misses, 1);
        cache.evaluate(&et, &dist, &plan, &c);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.exits_skipped, 16);
    }

    #[test]
    fn begin_step_clears_states_but_not_counters() {
        let n = 18; // past the checkpoint spacing so a state gets stored

        let (et, dist, c) = (profile(n), TimeDistribution::Uniform, confs(n));
        let mut cache = ExpectationCache::new();
        cache.evaluate(&et, &dist, &ExitPlan::full(n), &c);
        assert!(!cache.is_empty());
        let before = cache.stats();
        cache.begin_step();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), before);
    }

    #[test]
    fn short_plans_never_checkpoint_but_still_score() {
        let n = 5; // below the checkpoint spacing
        let (et, dist, c) = (profile(n), TimeDistribution::Uniform, confs(n));
        let mut cache = ExpectationCache::new();
        let plan = ExitPlan::from_indices(n, &[1, 4]);
        let got = cache.evaluate(&et, &dist, &plan, &c);
        assert_eq!(got.to_bits(), expectation(&et, &dist, &plan, &c).to_bits());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn hit_rate_arithmetic() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            exits_skipped: 24,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
