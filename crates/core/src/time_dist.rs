//! Kill-time distributions (Section V-A, Fig. 7; Section VI-C3, Fig. 13).

use rand::rngs::SmallRng;
use rand::Rng;

/// The distribution of the unpredictable exit (kill) time over the inference
/// horizon `[0, T]`.
///
/// The accuracy-expectation algorithm weights each inter-output interval by
/// the probability mass the kill time puts on it; real-world preemption can
/// follow "arbitrary curves" (the paper cites automotive benchmarks), which
/// the [`TimeDistribution::Piecewise`] variant models.
#[derive(Debug, Clone, PartialEq)]
pub enum TimeDistribution {
    /// Kill time uniform over `[0, T]` (the paper's default evaluation
    /// setting).
    Uniform,
    /// Truncated Gaussian: mean and standard deviation given as fractions of
    /// the horizon, truncated to `[0, T]`. Fig. 13 uses mean ½ and σ of 0.5
    /// and 1.
    Gaussian {
        /// Mean as a fraction of the horizon.
        mean_frac: f64,
        /// Standard deviation as a fraction of the horizon.
        sigma_frac: f64,
    },
    /// Arbitrary density given as weights over equal-width segments of
    /// `[0, T]`; weights are normalised internally.
    Piecewise {
        /// Non-negative per-segment weights, at least one positive.
        weights: Vec<f64>,
    },
}

impl TimeDistribution {
    /// The Fig. 13 Gaussian with mean `T/2` and the given σ fraction.
    pub fn gaussian(sigma_frac: f64) -> Self {
        assert!(sigma_frac > 0.0, "sigma must be positive");
        TimeDistribution::Gaussian {
            mean_frac: 0.5,
            sigma_frac,
        }
    }

    /// A piecewise density from segment weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, has a negative entry, or sums to zero.
    pub fn piecewise(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "need at least one segment");
        assert!(
            weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "weights must be non-negative and finite"
        );
        assert!(
            weights.iter().sum::<f64>() > 0.0,
            "weights must not all be zero"
        );
        TimeDistribution::Piecewise { weights }
    }

    /// Probability that the kill time falls in `[t0, t1]`, with the
    /// distribution truncated/normalised to `[0, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive or `t0 > t1`.
    pub fn mass_between(&self, t0: f64, t1: f64, horizon: f64) -> f64 {
        assert!(horizon > 0.0, "horizon must be positive");
        assert!(t0 <= t1 + 1e-12, "interval must be ordered: {t0} > {t1}");
        let a = t0.clamp(0.0, horizon);
        let b = t1.clamp(0.0, horizon);
        if b <= a {
            return 0.0;
        }
        match self {
            TimeDistribution::Uniform => uniform_mass(a, b, horizon),
            TimeDistribution::Gaussian {
                mean_frac,
                sigma_frac,
            } => {
                let mu = mean_frac * horizon;
                let sigma = sigma_frac * horizon;
                let total = phi((horizon - mu) / sigma) - phi((0.0 - mu) / sigma);
                if total <= 0.0 {
                    return (b - a) / horizon;
                }
                (phi((b - mu) / sigma) - phi((a - mu) / sigma)) / total
            }
            TimeDistribution::Piecewise { weights } => {
                let total: f64 = weights.iter().sum();
                let seg = horizon / weights.len() as f64;
                let mut mass = 0.0;
                for (i, &w) in weights.iter().enumerate() {
                    let lo = i as f64 * seg;
                    let hi = lo + seg;
                    let overlap = (b.min(hi) - a.max(lo)).max(0.0);
                    mass += w * overlap / seg;
                }
                mass / total
            }
        }
    }

    /// Draws a kill time in `[0, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive.
    pub fn sample(&self, horizon: f64, rng: &mut SmallRng) -> f64 {
        assert!(horizon > 0.0, "horizon must be positive");
        match self {
            TimeDistribution::Uniform => rng.gen_range(0.0..horizon),
            TimeDistribution::Gaussian {
                mean_frac,
                sigma_frac,
            } => {
                let mu = mean_frac * horizon;
                let sigma = sigma_frac * horizon;
                // Rejection-sample the truncated normal; the acceptance rate
                // is high for the σ values the paper uses.
                for _ in 0..256 {
                    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    let t = mu + sigma * z;
                    if (0.0..horizon).contains(&t) {
                        return t;
                    }
                }
                rng.gen_range(0.0..horizon)
            }
            TimeDistribution::Piecewise { weights } => {
                let total: f64 = weights.iter().sum();
                let mut u = rng.gen_range(0.0..total);
                let seg = horizon / weights.len() as f64;
                for (i, &w) in weights.iter().enumerate() {
                    if u < w {
                        return i as f64 * seg + seg * (u / w.max(f64::MIN_POSITIVE));
                    }
                    u -= w;
                }
                horizon * (1.0 - f64::EPSILON)
            }
        }
    }

    /// Short identifier for reports.
    pub fn id(&self) -> String {
        match self {
            TimeDistribution::Uniform => "uniform".to_string(),
            TimeDistribution::Gaussian { sigma_frac, .. } => format!("gauss-s{sigma_frac}"),
            TimeDistribution::Piecewise { weights } => format!("piecewise-{}", weights.len()),
        }
    }
}

/// [`TimeDistribution::mass_between`] for [`TimeDistribution::Uniform`],
/// without the argument checks: small enough that a loop over many
/// intervals inlines it and vectorises.
#[inline]
pub(crate) fn uniform_mass(t0: f64, t1: f64, horizon: f64) -> f64 {
    let a = t0.clamp(0.0, horizon);
    let b = t1.clamp(0.0, horizon);
    if b <= a {
        0.0
    } else {
        (b - a) / horizon
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max error ~1.5e-7, ample for interval weighting).
fn phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_mass_is_length_ratio() {
        let d = TimeDistribution::Uniform;
        assert!((d.mass_between(0.0, 5.0, 10.0) - 0.5).abs() < 1e-12);
        assert!((d.mass_between(0.0, 10.0, 10.0) - 1.0).abs() < 1e-12);
        assert_eq!(d.mass_between(3.0, 3.0, 10.0), 0.0);
    }

    #[test]
    fn masses_partition_to_one() {
        for dist in [
            TimeDistribution::Uniform,
            TimeDistribution::gaussian(0.5),
            TimeDistribution::gaussian(1.0),
            TimeDistribution::piecewise(vec![1.0, 3.0, 0.5, 2.0]),
        ] {
            let horizon = 7.0;
            let cuts = [0.0, 1.3, 2.0, 4.5, 6.1, 7.0];
            let total: f64 = cuts
                .windows(2)
                .map(|w| dist.mass_between(w[0], w[1], horizon))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "{dist:?}: total {total}");
        }
    }

    #[test]
    fn gaussian_concentrates_at_center() {
        let d = TimeDistribution::gaussian(0.25);
        let center = d.mass_between(4.0, 6.0, 10.0);
        let edge = d.mass_between(0.0, 2.0, 10.0);
        assert!(center > 2.0 * edge, "center {center} vs edge {edge}");
    }

    #[test]
    fn wide_gaussian_approaches_uniform() {
        let wide = TimeDistribution::gaussian(10.0);
        let m = wide.mass_between(0.0, 5.0, 10.0);
        assert!((m - 0.5).abs() < 0.02, "wide gaussian mass {m}");
    }

    #[test]
    fn piecewise_weights_shape_mass() {
        let d = TimeDistribution::piecewise(vec![0.0, 1.0]);
        assert_eq!(d.mass_between(0.0, 5.0, 10.0), 0.0);
        assert!((d.mass_between(5.0, 10.0, 10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn samples_within_range_and_match_distribution() {
        let mut rng = SmallRng::seed_from_u64(1);
        for dist in [
            TimeDistribution::Uniform,
            TimeDistribution::gaussian(0.5),
            TimeDistribution::piecewise(vec![1.0, 0.0, 2.0]),
        ] {
            let horizon = 12.0;
            let mut below_half = 0;
            let n = 4000;
            for _ in 0..n {
                let t = dist.sample(horizon, &mut rng);
                assert!((0.0..=horizon).contains(&t), "{dist:?} sampled {t}");
                if t < horizon / 2.0 {
                    below_half += 1;
                }
            }
            let empirical = below_half as f64 / n as f64;
            let expected = dist.mass_between(0.0, horizon / 2.0, horizon);
            assert!(
                (empirical - expected).abs() < 0.05,
                "{dist:?}: empirical {empirical} vs expected {expected}"
            );
        }
    }

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
        assert!((erf(3.0) - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn rejects_zero_horizon() {
        TimeDistribution::Uniform.mass_between(0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "all be zero")]
    fn rejects_zero_weights() {
        TimeDistribution::piecewise(vec![0.0, 0.0]);
    }
}
