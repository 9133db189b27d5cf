//! The accuracy-expectation algorithm (Algorithm 1, Eq. 5).

use einet_profile::EtProfile;

use crate::plan::ExitPlan;
use crate::time_dist::{uniform_mass, TimeDistribution};

/// Scores exit plans by the expected quality of the result held at the
/// (random) kill time.
///
/// The inference timeline of a plan alternates conv parts (always run) and
/// executed branches; between two outputs the task holds the older result,
/// whose confidence stands in for its accuracy. The expectation is
///
/// ```text
/// E = Σᵢ Cᵢ · P(kill ∈ intervalᵢ)
/// ```
///
/// with `C = 0` before the first output (a kill then yields *no result*) and
/// the final output's confidence covering the remainder of the horizon. The
/// horizon `T` is the full-plan execution time, matching the evaluation's
/// kill-time draw.
///
/// # Example
///
/// ```
/// use einet_core::{AccuracyExpectation, ExitPlan, TimeDistribution};
/// use einet_profile::EtProfile;
///
/// let et = EtProfile::new(vec![1.0, 1.0], vec![1.0, 1.0])?;
/// let dist = TimeDistribution::Uniform;
/// let scorer = AccuracyExpectation::new(&et, &dist);
/// let e = scorer.evaluate(&ExitPlan::full(2), &[0.5, 1.0]);
/// // Output 0 at t=2 covers [2,3); output 1 at t=4 covers nothing further.
/// assert!((e - (0.5 * 0.5 + 0.0)).abs() < 1e-9);
/// # Ok::<(), einet_profile::ProfileIoError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AccuracyExpectation<'a> {
    et: &'a EtProfile,
    dist: &'a TimeDistribution,
}

impl<'a> AccuracyExpectation<'a> {
    /// Creates a scorer over a profile and kill-time distribution.
    pub fn new(et: &'a EtProfile, dist: &'a TimeDistribution) -> Self {
        AccuracyExpectation { et, dist }
    }

    /// Evaluates a plan given the (actual or predicted) confidence at every
    /// exit.
    ///
    /// # Panics
    ///
    /// Panics if `confidences.len()` differs from the profile's exit count
    /// or the plan length mismatches.
    pub fn evaluate(&self, plan: &ExitPlan, confidences: &[f32]) -> f64 {
        expectation(self.et, self.dist, plan, confidences)
    }

    /// The profile this scorer reads.
    pub fn profile(&self) -> &EtProfile {
        self.et
    }

    /// The kill-time distribution this scorer assumes.
    pub fn distribution(&self) -> &TimeDistribution {
        self.dist
    }
}

/// The left-to-right scan state of the expectation kernel after consuming a
/// prefix of the exits. The state after exit `d` depends only on the plan
/// bits `< d`, which is what makes prefix states shareable across plans
/// (see `search::objective` and `search::ExpectationCache`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ScanState {
    /// Elapsed execution time.
    t: f64,
    /// Time of the latest output.
    t_last: f64,
    /// Confidence of the latest output (0 = none yet).
    c_last: f64,
    /// Expectation mass accumulated over closed intervals.
    e: f64,
}

impl ScanState {
    /// The state before any exit has been consumed.
    pub(crate) const START: ScanState = ScanState {
        t: 0.0,
        t_last: 0.0,
        c_last: 0.0,
        e: 0.0,
    };
}

/// Scan states of plans that share every bit from some exit on, stored
/// field by field so that one step over all of them vectorises. Each lane
/// still performs exactly the ops of its own scan.
pub(crate) struct Lanes {
    t: [f64; ExitPlan::MAX_EXITS],
    t_last: [f64; ExitPlan::MAX_EXITS],
    c_last: [f64; ExitPlan::MAX_EXITS],
    e: [f64; ExitPlan::MAX_EXITS],
    len: usize,
}

impl Lanes {
    pub(crate) fn new() -> Self {
        Lanes {
            t: [0.0; ExitPlan::MAX_EXITS],
            t_last: [0.0; ExitPlan::MAX_EXITS],
            c_last: [0.0; ExitPlan::MAX_EXITS],
            e: [0.0; ExitPlan::MAX_EXITS],
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Adds a lane.
    ///
    /// # Panics
    ///
    /// Panics when all [`ExitPlan::MAX_EXITS`] lanes are in use.
    pub(crate) fn push(&mut self, s: ScanState) {
        let l = self.len;
        (self.t[l], self.t_last[l], self.c_last[l], self.e[l]) = (s.t, s.t_last, s.c_last, s.e);
        self.len += 1;
    }

    pub(crate) fn get(&self, l: usize) -> ScanState {
        assert!(l < self.len, "lane {l} out of range");
        ScanState {
            t: self.t[l],
            t_last: self.t_last[l],
            c_last: self.c_last[l],
            e: self.e[l],
        }
    }
}

/// The inputs of one scan — profile, kill distribution, confidences and the
/// horizon, read once — shared by every plan scored against them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scan<'a> {
    conv: &'a [f64],
    branch: &'a [f64],
    dist: &'a TimeDistribution,
    confidences: &'a [f32],
    horizon: f64,
}

impl<'a> Scan<'a> {
    /// # Panics
    ///
    /// Panics if `confidences.len()` differs from the profile's exit count.
    pub(crate) fn new(
        et: &'a EtProfile,
        dist: &'a TimeDistribution,
        confidences: &'a [f32],
    ) -> Self {
        assert_eq!(
            confidences.len(),
            et.num_exits(),
            "confidence/profile length mismatch"
        );
        Scan {
            conv: et.conv_ms(),
            branch: et.branch_ms(),
            dist,
            confidences,
            horizon: et.total_ms(),
        }
    }

    /// Number of exits.
    pub(crate) fn len(&self) -> usize {
        self.conv.len()
    }

    /// Consumes exit `i` under a plan that executes it.
    #[inline]
    pub(crate) fn execute(&self, mut s: ScanState, i: usize) -> ScanState {
        s.t += self.conv[i];
        s.t += self.branch[i];
        if s.c_last > 0.0 {
            s.e += s.c_last * self.dist.mass_between(s.t_last, s.t, self.horizon);
        }
        s.c_last = f64::from(self.confidences[i]);
        s.t_last = s.t;
        s
    }

    /// Advances lanes `..active` over exit `i`, executed (`run`) or skipped
    /// by all of them.
    pub(crate) fn step_lanes(&self, lanes: &mut Lanes, active: usize, i: usize, run: bool) {
        assert!(active <= lanes.len, "lane {active} out of range");
        if !run {
            let conv = self.conv[i];
            for t in &mut lanes.t[..active] {
                *t += conv;
            }
            return;
        }
        match self.dist {
            TimeDistribution::Uniform => {
                self.execute_lanes(lanes, active, i, |a, b| uniform_mass(a, b, self.horizon));
            }
            dist => {
                self.execute_lanes(lanes, active, i, |a, b| {
                    dist.mass_between(a, b, self.horizon)
                });
            }
        }
    }

    /// [`Scan::execute`] on lanes `..active`, with the kill distribution's
    /// interval mass `mass(t0, t1)`. The mass is computed for every lane and
    /// kept where `c_last > 0`, so the loop has no branch.
    #[inline(always)]
    fn execute_lanes(
        &self,
        lanes: &mut Lanes,
        active: usize,
        i: usize,
        mass: impl Fn(f64, f64) -> f64,
    ) {
        let (conv, branch) = (self.conv[i], self.branch[i]);
        let c = f64::from(self.confidences[i]);
        let Lanes {
            t,
            t_last,
            c_last,
            e,
            ..
        } = lanes;
        let lanes = t[..active]
            .iter_mut()
            .zip(&mut t_last[..active])
            .zip(&mut c_last[..active])
            .zip(&mut e[..active]);
        for (((t, t_last), c_last), e) in lanes {
            *t += conv;
            *t += branch;
            let m = mass(*t_last, *t);
            *e = if *c_last > 0.0 { *e + *c_last * m } else { *e };
            *c_last = c;
            *t_last = *t;
        }
    }

    /// Advances a state over exits `from..to` of the plan whose bit `i` is
    /// `bits >> i & 1`. Running this in pieces replays exactly the op
    /// sequence of a whole-plan scan, so resumed evaluations are
    /// bit-identical to fresh ones. It visits the executed exits by bit
    /// position; a skipped exit only adds its conv time.
    pub(crate) fn exits(&self, bits: u64, mut s: ScanState, from: usize, to: usize) -> ScanState {
        let mut at = from;
        let mut run = bits & low_mask(to) & !low_mask(from);
        while run != 0 {
            let i = run.trailing_zeros() as usize;
            for conv in &self.conv[at..i] {
                s.t += conv;
            }
            s = self.execute(s, i);
            at = i + 1;
            run &= run - 1;
        }
        for conv in self.conv.get(at..to).unwrap_or_default() {
            s.t += conv;
        }
        s
    }

    /// Closes a state: the last output covers the remaining horizon. Reads
    /// `e`, `t_last` and `c_last` only — never `t` — so a scan may stop
    /// after the plan's last executed exit: the skipped exits beyond it
    /// only advance `t`.
    pub(crate) fn close(&self, s: ScanState) -> f64 {
        if s.c_last > 0.0 {
            s.e + s.c_last * self.dist.mass_between(s.t_last, self.horizon, self.horizon)
        } else {
            s.e
        }
    }
}

/// The bits strictly below `depth`.
#[inline]
pub(crate) fn low_mask(depth: usize) -> u64 {
    if depth >= 64 {
        u64::MAX
    } else {
        (1_u64 << depth) - 1
    }
}

/// One past the deepest executed exit of `bits` (0 for an empty plan): the
/// end of the part of a scan that [`Scan::close`] can observe.
#[inline]
pub(crate) fn scan_end(bits: u64) -> usize {
    64 - bits.leading_zeros() as usize
}

/// The optimized accuracy-expectation kernel: one pass over the exits, no
/// allocation. This is the "C implementation" of Table I.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn expectation(
    et: &EtProfile,
    dist: &TimeDistribution,
    plan: &ExitPlan,
    confidences: &[f32],
) -> f64 {
    let n = et.num_exits();
    assert_eq!(plan.len(), n, "plan/profile length mismatch");
    let scan = Scan::new(et, dist, confidences);
    scan.close(scan.exits(plan.bits(), ScanState::START, 0, n))
}

/// A deliberately naive reference implementation of Algorithm 1 that builds
/// the full interval list with heap allocations and per-interval closures —
/// the "Python implementation" of Table I. Semantically identical to
/// [`expectation`]; used to reproduce the naive-vs-optimized gap and as a
/// differential-testing oracle.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn expectation_reference(
    et: &EtProfile,
    dist: &TimeDistribution,
    plan: &ExitPlan,
    confidences: &[f32],
) -> f64 {
    #[derive(Debug, Clone)]
    struct Interval {
        start: f64,
        end: f64,
        confidence: f64,
    }
    let n = et.num_exits();
    assert_eq!(plan.len(), n, "plan/profile length mismatch");
    assert_eq!(confidences.len(), n, "confidence/profile length mismatch");
    let horizon = et.total_ms();
    // Build the event timeline as owned vectors (naively).
    let mut events: Vec<(f64, f64)> = Vec::new(); // (output time, confidence)
    let mut t = 0.0;
    for (i, &conf) in confidences.iter().enumerate() {
        t += et.conv_ms()[i];
        if plan.to_bools()[i] {
            t += et.branch_ms()[i];
            events.push((t, f64::from(conf)));
        }
    }
    let mut intervals: Vec<Interval> = Vec::new();
    let mut t_last = 0.0;
    let mut c_last = 0.0;
    for (time, conf) in events {
        intervals.push(Interval {
            start: t_last,
            end: time,
            confidence: c_last,
        });
        t_last = time;
        c_last = conf;
    }
    intervals.push(Interval {
        start: t_last,
        end: horizon,
        confidence: c_last,
    });
    intervals
        .iter()
        .map(|iv| {
            let weight: Box<dyn Fn() -> f64> =
                Box::new(|| dist.mass_between(iv.start, iv.end, horizon));
            iv.confidence * weight()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn et3() -> EtProfile {
        EtProfile::new(vec![1.0, 1.0, 1.0], vec![0.5, 0.5, 0.5]).unwrap()
    }

    #[test]
    fn empty_plan_scores_zero() {
        let et = et3();
        let dist = TimeDistribution::Uniform;
        let e = expectation(&et, &dist, &ExitPlan::empty(3), &[0.9, 0.9, 0.9]);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn closed_form_single_exit() {
        // conv=1,1,1 branch=.5,.5,.5 => horizon=4.5.
        // Plan executes only exit 0: output at t=1.5 with confidence 0.8,
        // held until 4.5 => E = 0.8 * 3/4.5.
        let et = et3();
        let dist = TimeDistribution::Uniform;
        let plan = ExitPlan::from_indices(3, &[0]);
        let e = expectation(&et, &dist, &plan, &[0.8, 0.0, 0.0]);
        assert!((e - 0.8 * (3.0 / 4.5)).abs() < 1e-7);
    }

    #[test]
    fn deeper_single_exit_covers_less_mass() {
        let et = et3();
        let dist = TimeDistribution::Uniform;
        let shallow = expectation(&et, &dist, &ExitPlan::from_indices(3, &[0]), &[0.8; 3]);
        let deep = expectation(&et, &dist, &ExitPlan::from_indices(3, &[2]), &[0.8; 3]);
        assert!(shallow > deep);
    }

    #[test]
    fn higher_confidence_scores_higher() {
        let et = et3();
        let dist = TimeDistribution::Uniform;
        let plan = ExitPlan::full(3);
        let low = expectation(&et, &dist, &plan, &[0.2, 0.3, 0.4]);
        let high = expectation(&et, &dist, &plan, &[0.6, 0.7, 0.8]);
        assert!(high > low);
    }

    #[test]
    fn expectation_bounded_by_max_confidence() {
        let et = et3();
        let dist = TimeDistribution::Uniform;
        let plan = ExitPlan::full(3);
        let confs = [0.3_f32, 0.9, 0.7];
        let e = expectation(&et, &dist, &plan, &confs);
        assert!(e <= 0.9 + 1e-12);
        assert!(e >= 0.0);
    }

    #[test]
    fn reference_matches_optimized() {
        let et = EtProfile::new(
            vec![0.8, 1.3, 0.4, 2.0, 0.9],
            vec![0.2, 0.3, 0.1, 0.5, 0.25],
        )
        .unwrap();
        let confs = [0.31_f32, 0.52, 0.48, 0.77, 0.93];
        for dist in [
            TimeDistribution::Uniform,
            TimeDistribution::gaussian(0.5),
            TimeDistribution::piecewise(vec![1.0, 4.0, 2.0]),
        ] {
            for bits in 0..32_u64 {
                let mut plan = ExitPlan::empty(5);
                for i in 0..5 {
                    plan.set(i, (bits >> i) & 1 == 1);
                }
                let fast = expectation(&et, &dist, &plan, &confs);
                let slow = expectation_reference(&et, &dist, &plan, &confs);
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "plan {plan} dist {dist:?}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn scan_is_bitwise_the_serial_per_exit_loop() {
        use rand::{Rng, SeedableRng};
        // Algorithm 1 written as one branchy pass over every exit.
        fn serial(et: &EtProfile, dist: &TimeDistribution, plan: &ExitPlan, c: &[f32]) -> f64 {
            let horizon = et.conv_ms().iter().sum::<f64>() + et.branch_ms().iter().sum::<f64>();
            let (mut t, mut t_last, mut c_last, mut e) = (0.0, 0.0, 0.0, 0.0);
            let exits = et.conv_ms().iter().zip(et.branch_ms()).zip(c);
            for (i, ((&conv, &branch), &conf)) in exits.enumerate() {
                t += conv;
                if plan.get(i) {
                    t += branch;
                    if c_last > 0.0 {
                        e += c_last * dist.mass_between(t_last, t, horizon);
                    }
                    c_last = f64::from(conf);
                    t_last = t;
                }
            }
            if c_last > 0.0 {
                e += c_last * dist.mass_between(t_last, horizon, horizon);
            }
            e
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5CA1);
        for n in [1, 2, 9, 40, 63, 64] {
            let conv: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..3.0)).collect();
            let branch: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
            let et = EtProfile::new(conv, branch).unwrap();
            let confs: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            for dist in [
                TimeDistribution::Uniform,
                TimeDistribution::gaussian(0.6),
                TimeDistribution::piecewise(vec![2.0, 1.0, 3.0]),
            ] {
                for _ in 0..50 {
                    let bools: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
                    let plan = ExitPlan::from_bools(&bools);
                    let want = serial(&et, &dist, &plan, &confs);
                    let got = expectation(&et, &dist, &plan, &confs);
                    assert_eq!(got.to_bits(), want.to_bits(), "n={n} plan {plan}");
                }
            }
        }
    }

    #[test]
    fn skipping_a_weak_branch_can_win() {
        // A slow, low-confidence middle branch: skipping it lets the strong
        // final output arrive sooner — the core insight of the paper
        // (executing all branches is not always optimal).
        let et = EtProfile::new(vec![1.0, 1.0, 1.0], vec![0.2, 5.0, 0.2]).unwrap();
        let dist = TimeDistribution::Uniform;
        let confs = [0.5_f32, 0.52, 0.95];
        let all = expectation(&et, &dist, &ExitPlan::full(3), &confs);
        let skip_mid = expectation(&et, &dist, &ExitPlan::from_indices(3, &[0, 2]), &confs);
        assert!(
            skip_mid > all,
            "skipping should win: skip={skip_mid} all={all}"
        );
    }

    #[test]
    fn scorer_wrapper_delegates() {
        let et = et3();
        let dist = TimeDistribution::Uniform;
        let scorer = AccuracyExpectation::new(&et, &dist);
        let plan = ExitPlan::full(3);
        let confs = [0.4_f32, 0.6, 0.8];
        assert_eq!(
            scorer.evaluate(&plan, &confs),
            expectation(&et, &dist, &plan, &confs)
        );
    }
}
