//! Online cost model for adaptive batch coalescing.
//!
//! The serving pool can hold the queue head briefly to let compatible
//! requests accumulate into one batched forward. Holding is only worth it
//! when the per-sample service-time saving from a larger batch exceeds the
//! queue delay the hold adds. [`BatchGainModel`] learns both sides of that
//! trade-off online from observed service times and inter-arrival gaps, and
//! answers one question: *given `b` tasks in hand, how long may I wait for
//! a `(b+1)`-th?*
//!
//! The model is deliberately tiny — EWMAs only, no allocation after
//! construction — because it is consulted under the scheduler lock.

/// EWMA smoothing factor: new observations carry 20% weight.
const EWMA_ALPHA: f64 = 0.2;

/// Maximum batch size the model keeps statistics for. Larger batches are
/// rescaled into the last slot; extrapolation covers the tail.
pub const MAX_TRACKED_BATCH: usize = 32;

/// Arrival gaps larger than `IDLE_GAP_FACTOR ×` the current EWMA are treated
/// as idle-period boundaries rather than arrival-rate evidence and discarded.
const IDLE_GAP_FACTOR: f64 = 8.0;

/// Absolute ceiling (µs) below which a gap is always admitted, so the model
/// can still learn genuinely slow-but-steady streams from a cold start and
/// recover after its EWMA has drifted low. Several × the default batch
/// window: no hold budget ever approaches this, so admitting such gaps can
/// only *disable* holding, never cause a bad hold.
const IDLE_GAP_FLOOR_US: f64 = 5_000.0;

/// Learns batch service-time curves and arrival rates online, and converts
/// them into a hold budget for the batch coalescer.
#[derive(Debug, Clone)]
pub struct BatchGainModel {
    /// `service_us[b-1]` = EWMA of *total* wall time for a batch of `b`,
    /// in microseconds. `None` until first observation.
    service_us: [Option<f64>; MAX_TRACKED_BATCH],
    /// EWMA of the gap between consecutive task arrivals, microseconds.
    arrival_gap_us: Option<f64>,
}

impl Default for BatchGainModel {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchGainModel {
    /// Creates an empty model. With no observations the model never holds:
    /// cold-start is conservative, and batches still form naturally from
    /// queue backlog under load, which in turn warms the model.
    pub fn new() -> Self {
        Self {
            service_us: [None; MAX_TRACKED_BATCH],
            arrival_gap_us: None,
        }
    }

    /// Records that a batch of `batch` samples took `total_us` of service
    /// time end to end.
    ///
    /// Batches beyond [`MAX_TRACKED_BATCH`] are rescaled proportionally into
    /// the last slot (a 42-sample batch's time is recorded as 32/42 of it)
    /// rather than written verbatim, which would inflate the tail of the
    /// curve and skew every interpolation anchored on it.
    pub fn observe_service(&mut self, batch: usize, total_us: u64) {
        if batch == 0 {
            return;
        }
        let mut x = total_us as f64;
        if batch > MAX_TRACKED_BATCH {
            x *= MAX_TRACKED_BATCH as f64 / batch as f64;
        }
        let slot = batch.min(MAX_TRACKED_BATCH) - 1;
        self.service_us[slot] = Some(match self.service_us[slot] {
            Some(prev) => prev + EWMA_ALPHA * (x - prev),
            None => x,
        });
    }

    /// Records the gap since the previous task arrival.
    ///
    /// Gaps that look like idle-period boundaries — more than
    /// [`IDLE_GAP_FACTOR`]× the learned gap, and above [`IDLE_GAP_FLOOR_US`]
    /// — are discarded: one long lull would otherwise drag the EWMA up and
    /// disable batch holding for many requests after traffic resumes, even
    /// though the underlying arrival rate is unchanged.
    pub fn observe_arrival_gap(&mut self, gap_us: u64) {
        let x = gap_us as f64;
        let bound = match self.arrival_gap_us {
            Some(prev) => (prev * IDLE_GAP_FACTOR).max(IDLE_GAP_FLOOR_US),
            None => IDLE_GAP_FLOOR_US,
        };
        if x > bound {
            return;
        }
        self.arrival_gap_us = Some(match self.arrival_gap_us {
            Some(prev) => prev + EWMA_ALPHA * (x - prev),
            None => x,
        });
    }

    /// Expected total service time for a batch of `batch`, in µs.
    ///
    /// Uses the nearest observed sizes: exact slot if seen, otherwise
    /// linear inter-/extrapolation from the observed curve, falling back to
    /// proportional scaling from the closest single point. Returns `None`
    /// when nothing has been observed yet.
    pub fn expected_service_us(&self, batch: usize) -> Option<f64> {
        if batch == 0 {
            return Some(0.0);
        }
        let b = batch.min(MAX_TRACKED_BATCH);
        if let Some(v) = self.service_us[b - 1] {
            return Some(v);
        }
        // The observed (size, time) points nearest to `b` on either side,
        // then the next one out: scans of the fixed array, no allocation.
        let point = |i: usize| self.service_us[i].map(|t| (i, t));
        let below = (0..b - 1).rev().find_map(point);
        let above = (b..MAX_TRACKED_BATCH).find_map(point);
        let (lo, hi) = match (below, above) {
            (None, None) => return None,
            // Interpolate between the two nearest observed sizes ...
            (Some(lo), Some(hi)) => (lo, hi),
            // ... or extrapolate from the closest pair at either end.
            (None, Some(lo)) => match (lo.0 + 1..MAX_TRACKED_BATCH).find_map(point) {
                Some(hi) => (lo, hi),
                None => return Some(proportional(lo, b)),
            },
            (Some(hi), None) => match (0..hi.0).rev().find_map(point) {
                Some(lo) => (lo, hi),
                None => return Some(proportional(hi, b)),
            },
        };
        let (lo_size, hi_size) = ((lo.0 + 1) as f64, (hi.0 + 1) as f64);
        let slope = (hi.1 - lo.1) / (hi_size - lo_size);
        Some((lo.1 + slope * (b as f64 - lo_size)).max(0.0))
    }

    /// Expected arrival gap in µs, if any arrivals have been observed.
    pub fn expected_arrival_gap_us(&self) -> Option<f64> {
        self.arrival_gap_us
    }

    /// How long the coalescer may hold `in_hand` runnable tasks waiting for
    /// one more, in µs. Zero means "dispatch now".
    ///
    /// The rule: adding a sample to the batch is worth at most the service
    /// time it saves versus running that sample alone,
    /// `saving = t(1) + t(b) − t(b+1)`. Holding delays all `in_hand` tasks,
    /// so the budget is `saving / in_hand` — total added queue delay never
    /// exceeds the expected saving. The budget is further gated on the
    /// arrival process: if the expected gap exceeds the budget, the next
    /// task likely won't arrive in time and we don't hold at all.
    pub fn hold_budget_us(&self, in_hand: usize) -> u64 {
        if in_hand == 0 || in_hand >= MAX_TRACKED_BATCH {
            return 0;
        }
        let (Some(t1), Some(tb), Some(tb1)) = (
            self.expected_service_us(1),
            self.expected_service_us(in_hand),
            self.expected_service_us(in_hand + 1),
        ) else {
            return 0;
        };
        let saving = t1 + tb - tb1;
        if saving <= 0.0 {
            return 0;
        }
        let budget = saving / in_hand as f64;
        match self.arrival_gap_us {
            Some(gap) if gap <= budget => budget as u64,
            _ => 0,
        }
    }
}

/// One observed point `(slot, time)` scaled to a batch of `b`: per-sample
/// cost assumed constant (no batching gain assumed until proven).
fn proportional((slot, t): (usize, f64), b: usize) -> f64 {
    t / (slot + 1) as f64 * b as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `expected_service_us` as it was written before the neighbour search
    /// became a scan: collect the observed points, then pick by position.
    fn expected_by_collecting(m: &BatchGainModel, batch: usize) -> Option<f64> {
        if batch == 0 {
            return Some(0.0);
        }
        let b = batch.min(MAX_TRACKED_BATCH);
        if let Some(v) = m.service_us[b - 1] {
            return Some(v);
        }
        let pts: Vec<(f64, f64)> = m
            .service_us
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|t| ((i + 1) as f64, t)))
            .collect();
        match pts.len() {
            0 => None,
            1 => Some(pts[0].1 / pts[0].0 * b as f64),
            _ => {
                let bf = b as f64;
                let (lo, hi) = match pts.iter().position(|&(sz, _)| sz > bf) {
                    Some(0) => (pts[0], pts[1]),
                    Some(i) => (pts[i - 1], pts[i]),
                    None => (pts[pts.len() - 2], pts[pts.len() - 1]),
                };
                let slope = (hi.1 - lo.1) / (hi.0 - lo.0);
                Some((lo.1 + slope * (bf - lo.0)).max(0.0))
            }
        }
    }

    #[test]
    fn scanning_matches_collecting_on_random_observed_subsets() {
        let mut rng = SmallRng::seed_from_u64(0x6261_7463);
        for case in 0..400 {
            // From empty to nearly full curves, not monotone on purpose.
            let density = rng.gen_range(0.0..1.0) * (case % 4) as f64 / 3.0;
            let mut m = BatchGainModel::new();
            for b in 1..=MAX_TRACKED_BATCH {
                if rng.gen_range(0.0..1.0) < density {
                    m.observe_service(b, rng.gen_range(1..50_000));
                }
            }
            for batch in 0..=MAX_TRACKED_BATCH + 3 {
                let (got, want) = (
                    m.expected_service_us(batch),
                    expected_by_collecting(&m, batch),
                );
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "case {case}, batch {batch}: {got:?} vs {want:?} on {:?}",
                    m.service_us
                );
            }
        }
    }

    #[test]
    fn cold_model_never_holds() {
        let m = BatchGainModel::new();
        assert_eq!(m.hold_budget_us(1), 0);
        assert_eq!(m.hold_budget_us(4), 0);
        assert_eq!(m.expected_service_us(3), None);
    }

    #[test]
    fn single_point_scales_linearly() {
        let mut m = BatchGainModel::new();
        m.observe_service(2, 1000);
        assert_eq!(m.expected_service_us(1), Some(500.0));
        assert_eq!(m.expected_service_us(4), Some(2000.0));
        // Linear curve ⇒ zero saving ⇒ no hold.
        m.observe_arrival_gap(10);
        assert_eq!(m.hold_budget_us(1), 0);
    }

    #[test]
    fn sublinear_curve_yields_hold_budget() {
        let mut m = BatchGainModel::new();
        // Strongly sublinear: t(1)=1000, t(2)=1200, t(3)=1400.
        m.observe_service(1, 1000);
        m.observe_service(2, 1200);
        m.observe_service(3, 1400);
        m.observe_arrival_gap(100);
        // saving for 1→2 = t(1)+t(1)−t(2) = 800; budget = 800/1 = 800.
        assert_eq!(m.hold_budget_us(1), 800);
        // saving for 2→3 = t(1)+t(2)−t(3) = 800; budget = 800/2 = 400.
        assert_eq!(m.hold_budget_us(2), 400);
    }

    #[test]
    fn slow_arrivals_disable_holding() {
        let mut m = BatchGainModel::new();
        m.observe_service(1, 1000);
        m.observe_service(2, 1200);
        m.observe_arrival_gap(50_000); // arrivals far slower than any gain
        assert_eq!(m.hold_budget_us(1), 0);
    }

    #[test]
    fn interpolates_between_observed_sizes() {
        let mut m = BatchGainModel::new();
        m.observe_service(1, 1000);
        m.observe_service(4, 2500);
        // b=2 interpolated: 1000 + (2500-1000)/3 = 1500.
        assert_eq!(m.expected_service_us(2), Some(1500.0));
        // b=8 extrapolated along the same slope: 2500 + 4*500 = 4500.
        assert_eq!(m.expected_service_us(8), Some(4500.0));
    }

    #[test]
    fn ewma_tracks_shifting_service_times() {
        let mut m = BatchGainModel::new();
        m.observe_service(1, 1000);
        for _ in 0..50 {
            m.observe_service(1, 2000);
        }
        let t = m.expected_service_us(1).unwrap();
        assert!((t - 2000.0).abs() < 50.0, "EWMA should converge: {t}");
    }

    #[test]
    fn oversized_batches_rescale_into_tracked_range() {
        let mut m = BatchGainModel::new();
        let batch = MAX_TRACKED_BATCH + 10;
        m.observe_service(batch, 5000);
        // The 42-sample total is recorded as its 32-sample proportional
        // share, not verbatim — verbatim would make every interpolation
        // anchored on the last slot overestimate.
        let expect = 5000.0 * MAX_TRACKED_BATCH as f64 / batch as f64;
        let got = m.expected_service_us(MAX_TRACKED_BATCH).unwrap();
        assert!((got - expect).abs() < 1e-9, "got {got}, want {expect}");
        assert_eq!(m.hold_budget_us(MAX_TRACKED_BATCH), 0);
    }

    #[test]
    fn oversized_batch_does_not_corrupt_interpolation() {
        let mut m = BatchGainModel::new();
        // Perfectly linear true curve: 100 µs/sample.
        m.observe_service(1, 100);
        m.observe_service(42, 4200);
        // With verbatim clamping the last slot would read 4200 for b=32 and
        // b=16 would interpolate to ~2078; with rescaling the curve stays
        // linear and b=16 reads 1600.
        let got = m.expected_service_us(16).unwrap();
        assert!((got - 1600.0).abs() < 1.0, "corrupted curve: {got}");
    }

    #[test]
    fn idle_gap_does_not_poison_arrival_rate() {
        let mut m = BatchGainModel::new();
        m.observe_service(1, 1000);
        m.observe_service(2, 1200);
        for _ in 0..20 {
            m.observe_arrival_gap(100);
        }
        let before = m.hold_budget_us(1);
        assert!(before > 0, "steady stream should enable holding");
        // A 10-second lull (queue drained, no traffic) must not erase the
        // learned arrival rate.
        m.observe_arrival_gap(10_000_000);
        assert_eq!(m.hold_budget_us(1), before);
        assert!((m.expected_arrival_gap_us().unwrap() - 100.0).abs() < 1.0);
    }

    #[test]
    fn first_gap_observation_ignores_idle_boundary() {
        let mut m = BatchGainModel::new();
        // Cold model whose very first "gap" is an idle period: discarded,
        // so the EWMA starts from the first real inter-arrival gap instead.
        m.observe_arrival_gap(60_000_000);
        assert_eq!(m.expected_arrival_gap_us(), None);
        m.observe_arrival_gap(200);
        assert_eq!(m.expected_arrival_gap_us(), Some(200.0));
    }

    #[test]
    fn moderately_slow_gaps_still_update_the_model() {
        let mut m = BatchGainModel::new();
        for _ in 0..10 {
            m.observe_arrival_gap(100);
        }
        // 4 ms is slow but under the idle floor: it must be admitted so the
        // model can track genuine slowdowns (which correctly disable holds).
        m.observe_arrival_gap(4_000);
        assert!(m.expected_arrival_gap_us().unwrap() > 100.0);
    }
}
