//! Execution-time profiles (Section IV-B1).

use std::time::Instant;

use einet_tensor::{Layer, Mode, Tensor};

use einet_models::MultiExitNet;

use crate::platform::EdgePlatform;

/// Average execution time of each conv part (`T_c`) and branch (`T_b`) of a
/// multi-exit network on a particular platform, in milliseconds.
///
/// The paper justifies recording *averages* with Fig. 4: per-sample
/// variation within a block is under 0.1 ms for 95% of samples.
///
/// # Example
///
/// ```
/// use einet_profile::EtProfile;
///
/// let et = EtProfile::new(vec![1.0, 2.0], vec![0.5, 0.5])?;
/// assert_eq!(et.num_exits(), 2);
/// assert_eq!(et.total_ms(), 4.0);
/// # Ok::<(), einet_profile::ProfileIoError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EtProfile {
    conv_ms: Vec<f64>,
    branch_ms: Vec<f64>,
    /// `Σ conv_ms + Σ branch_ms`, fixed at construction: the planner reads
    /// the horizon on every scored plan.
    total_ms: f64,
}

impl EtProfile {
    /// Wraps per-block conv and branch times.
    ///
    /// # Errors
    ///
    /// Returns an error if lengths differ, are zero, or any time is not a
    /// positive finite number.
    pub fn new(conv_ms: Vec<f64>, branch_ms: Vec<f64>) -> Result<Self, crate::ProfileIoError> {
        if conv_ms.is_empty() || conv_ms.len() != branch_ms.len() {
            return Err(crate::ProfileIoError::Malformed(
                "conv/branch time vectors must be equal-length and non-empty".into(),
            ));
        }
        if conv_ms
            .iter()
            .chain(branch_ms.iter())
            .any(|&t| !(t.is_finite() && t > 0.0))
        {
            return Err(crate::ProfileIoError::Malformed(
                "profiled times must be positive and finite".into(),
            ));
        }
        Ok(EtProfile::from_parts(conv_ms, branch_ms))
    }

    /// The one place a profile is assembled, so the stored horizon always
    /// matches the vectors.
    fn from_parts(conv_ms: Vec<f64>, branch_ms: Vec<f64>) -> Self {
        let total_ms = conv_ms.iter().sum::<f64>() + branch_ms.iter().sum::<f64>();
        EtProfile {
            conv_ms,
            branch_ms,
            total_ms,
        }
    }

    /// Number of exits covered by the profile.
    pub fn num_exits(&self) -> usize {
        self.conv_ms.len()
    }

    /// Average conv-part times (`T_c`), one entry per block.
    pub fn conv_ms(&self) -> &[f64] {
        &self.conv_ms
    }

    /// Average branch times (`T_b`), one entry per block.
    pub fn branch_ms(&self) -> &[f64] {
        &self.branch_ms
    }

    /// Total time of the *full* plan: all conv parts and all branches. This
    /// is the horizon `T` in the accuracy-expectation formula (Eq. 5) and
    /// the upper bound of the unpredictable-exit time draw in the
    /// evaluation.
    pub fn total_ms(&self) -> f64 {
        self.total_ms
    }

    /// Time to reach (and fully execute, branch included if `execute[i]`)
    /// each exit under a plan; the returned value is the time the plan
    /// finishes its deepest conv part and any executed branch.
    ///
    /// # Panics
    ///
    /// Panics if `execute.len()` differs from the exit count.
    pub fn plan_time_ms(&self, execute: &[bool]) -> f64 {
        assert_eq!(execute.len(), self.num_exits(), "plan length mismatch");
        let mut t = 0.0;
        for (i, &run_branch) in execute.iter().enumerate() {
            t += self.conv_ms[i];
            if run_branch {
                t += self.branch_ms[i];
            }
        }
        t
    }

    /// Derives a profile from the FLOP counts of `net` under a platform cost
    /// model: `time = flops / throughput + overhead`.
    ///
    /// This substitutes for the paper's on-device measurement, keeping the
    /// relative block weights of the real model while being deterministic.
    pub fn from_cost_model(net: &MultiExitNet, platform: EdgePlatform) -> Self {
        let mut conv_ms = Vec::with_capacity(net.num_exits());
        let mut branch_ms = Vec::with_capacity(net.num_exits());
        for (conv_flops, branch_flops) in net.block_flops() {
            conv_ms.push(platform.ms_for_flops(conv_flops) + platform.overhead_ms());
            branch_ms.push(platform.ms_for_flops(branch_flops) + platform.overhead_ms());
        }
        EtProfile::from_parts(conv_ms, branch_ms)
    }

    /// Measures wall-clock per-block times on this host by running `reps`
    /// single-sample forward passes over `sample` and averaging.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero or `sample` is not a single-sample batch.
    pub fn measure(net: &mut MultiExitNet, sample: &Tensor, reps: usize) -> Self {
        assert!(reps > 0, "need at least one repetition");
        assert_eq!(sample.shape()[0], 1, "measure expects a single sample");
        let n = net.num_exits();
        let mut conv_ms = vec![0.0_f64; n];
        let mut branch_ms = vec![0.0_f64; n];
        for _ in 0..reps {
            let mut x = sample.clone();
            for (i, block) in net.blocks_mut().iter_mut().enumerate() {
                let t0 = Instant::now();
                x = block.conv_part.forward(&x, Mode::Eval);
                conv_ms[i] += t0.elapsed().as_secs_f64() * 1e3;
                let t1 = Instant::now();
                let _ = block.branch.forward(&x, Mode::Eval);
                branch_ms[i] += t1.elapsed().as_secs_f64() * 1e3;
            }
        }
        let inv = 1.0 / reps as f64;
        for t in conv_ms.iter_mut().chain(branch_ms.iter_mut()) {
            *t = (*t * inv).max(1e-6);
        }
        EtProfile::from_parts(conv_ms, branch_ms)
    }
}

/// Measures the per-sample execution-time *distribution* of every block
/// (Fig. 4 of the paper): returns `[block][sample] -> ms`, where each entry
/// is the combined conv-part + branch time for one sample.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn measure_distribution(net: &mut MultiExitNet, samples: &Tensor) -> Vec<Vec<f64>> {
    let n_samples = samples.shape()[0];
    assert!(n_samples > 0, "need at least one sample");
    let n = net.num_exits();
    let mut dist = vec![Vec::with_capacity(n_samples); n];
    for s in 0..n_samples {
        let mut x = samples.batch_slice(s, s + 1);
        for (i, block) in net.blocks_mut().iter_mut().enumerate() {
            let t0 = Instant::now();
            x = block.conv_part.forward(&x, Mode::Eval);
            let _ = block.branch.forward(&x, Mode::Eval);
            dist[i].push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use einet_models::{zoo, BranchSpec};

    fn net() -> MultiExitNet {
        zoo::b_alexnet([1, 16, 16], 10, &BranchSpec::paper_default(), 1)
    }

    #[test]
    fn new_validates() {
        assert!(EtProfile::new(vec![1.0], vec![1.0]).is_ok());
        assert!(EtProfile::new(vec![], vec![]).is_err());
        assert!(EtProfile::new(vec![1.0, 2.0], vec![1.0]).is_err());
        assert!(EtProfile::new(vec![-1.0], vec![1.0]).is_err());
        assert!(EtProfile::new(vec![f64::NAN], vec![1.0]).is_err());
    }

    #[test]
    fn totals_and_plan_times() {
        let et = EtProfile::new(vec![1.0, 2.0, 3.0], vec![0.5, 0.5, 0.5]).unwrap();
        assert_eq!(et.total_ms(), 7.5);
        assert_eq!(et.plan_time_ms(&[false, false, false]), 6.0);
        assert_eq!(et.plan_time_ms(&[true, false, true]), 7.0);
    }

    #[test]
    fn stored_total_is_bitwise_the_summed_horizon() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x707);
        for _ in 0..500 {
            let n = rng.gen_range(1..=64);
            let conv: Vec<f64> = (0..n).map(|_| rng.gen_range(1e-4..5.0)).collect();
            let branch: Vec<f64> = (0..n).map(|_| rng.gen_range(1e-4..2.0)).collect();
            let summed = conv.iter().sum::<f64>() + branch.iter().sum::<f64>();
            let et = EtProfile::new(conv, branch).unwrap();
            assert_eq!(et.total_ms().to_bits(), summed.to_bits());
        }
    }

    #[test]
    fn cost_model_matches_flops_ratios() {
        let net = net();
        let et = EtProfile::from_cost_model(&net, EdgePlatform::JetsonClass);
        assert_eq!(et.num_exits(), 3);
        assert!(et.conv_ms().iter().all(|&t| t > 0.0));
        // Faster platform gives strictly smaller times.
        let fast = EtProfile::from_cost_model(&net, EdgePlatform::ServerClass);
        for (a, b) in et.conv_ms().iter().zip(fast.conv_ms()) {
            assert!(b < a);
        }
    }

    #[test]
    fn measure_produces_positive_times() {
        let mut net = net();
        let x = Tensor::zeros(&[1, 1, 16, 16]);
        let et = EtProfile::measure(&mut net, &x, 2);
        assert_eq!(et.num_exits(), 3);
        assert!(et.total_ms() > 0.0);
    }

    #[test]
    fn distribution_shape() {
        let mut net = net();
        let x = Tensor::zeros(&[4, 1, 16, 16]);
        let dist = measure_distribution(&mut net, &x);
        assert_eq!(dist.len(), 3);
        assert!(dist.iter().all(|d| d.len() == 4));
    }

    #[test]
    #[should_panic(expected = "plan length")]
    fn plan_time_rejects_bad_length() {
        let et = EtProfile::new(vec![1.0], vec![1.0]).unwrap();
        et.plan_time_ms(&[true, false]);
    }
}
