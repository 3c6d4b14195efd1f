//! How many repetitions does an experiment need? (§III, Table IV)
//!
//! Two estimators, exactly as the paper compares them:
//!
//! * [`jain_sample_size`] — the parametric closed form (Jain, *The Art of
//!   Computer Systems Performance Analysis*, 1991), Eq. (3) of the paper.
//! * [`confirm`] — the non-parametric CONFIRM resampling procedure
//!   (Maricq et al., OSDI '18), which the paper runs with c = 200 shuffles
//!   and a minimum subset size of 10.

use crate::ci::nonparametric_median_ci;
use crate::desc::{mean, median, std_dev};
use crate::dist_fn::norm_quantile;
use tpv_sim::SimRng;

/// Jain's parametric repetition count — paper Eq. (3):
///
/// ```text
/// n = (100 · z · s / (r · x̄))²
/// ```
///
/// where `z` is the normal critical value for the confidence `level`, `s`
/// the sample standard deviation, `x̄` the sample mean, and `r` the desired
/// half-width as a *percentage* of the mean.
///
/// Returns the rounded-up number of repetitions, minimum 1.
///
/// # Panics
///
/// Panics unless `level ∈ (0,1)`, `r_pct > 0` and `mean != 0`.
///
/// # Example
///
/// ```
/// use tpv_stats::jain_sample_size;
/// // cv = s/x̄ = 8.66 % at 95 %/1 % target ⇒ ~288 iterations — the
/// // LP-SMToff 10K row of the paper's Table IV.
/// let n = jain_sample_size(100.0, 8.66, 1.0, 0.95);
/// assert!((285..=292).contains(&n));
/// ```
pub fn jain_sample_size(mean: f64, std_dev: f64, r_pct: f64, level: f64) -> usize {
    assert!(level > 0.0 && level < 1.0, "confidence level must be in (0,1), got {level}");
    assert!(r_pct > 0.0, "relative error must be positive, got {r_pct}");
    assert!(mean != 0.0, "mean of zero makes relative error undefined");
    let z = norm_quantile(0.5 + level / 2.0);
    let n = (100.0 * z * std_dev / (r_pct * mean)).powi(2);
    (n.ceil() as usize).max(1)
}

/// Convenience: Jain's Eq. (3) evaluated on a sample set.
///
/// # Panics
///
/// Panics if the sample mean is zero or fewer than 2 samples are given.
pub fn jain_sample_size_of(samples: &[f64], r_pct: f64, level: f64) -> usize {
    assert!(samples.len() >= 2, "need at least 2 samples to estimate variance");
    jain_sample_size(mean(samples), std_dev(samples), r_pct, level)
}

/// Outcome of the CONFIRM procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfirmOutcome {
    /// The error target is met with this many repetitions.
    Converged(usize),
    /// Even the full sample set does not meet the target; more than this
    /// many repetitions are required (rendered as "> n" in Table IV).
    MoreThan(usize),
}

impl ConfirmOutcome {
    /// A lower bound on the repetitions required (the count itself when
    /// converged).
    pub fn lower_bound(self) -> usize {
        match self {
            ConfirmOutcome::Converged(n) | ConfirmOutcome::MoreThan(n) => n,
        }
    }
}

impl std::fmt::Display for ConfirmOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfirmOutcome::Converged(n) => write!(f, "{n}"),
            ConfirmOutcome::MoreThan(n) => write!(f, ">{n}"),
        }
    }
}

/// Parameters for [`confirm`]; defaults match the original paper
/// (c = 200, s ≥ 10, ≤1 % error at 95 % confidence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfirmConfig {
    /// Number of shuffled subsets evaluated per subset size.
    pub shuffles: usize,
    /// Smallest subset size considered ("smaller subsets cannot estimate
    /// non-parametric CIs reliably").
    pub min_subset: usize,
    /// Target half-width as a percentage of the median.
    pub target_error_pct: f64,
    /// Confidence level of the underlying non-parametric CI.
    pub level: f64,
}

impl Default for ConfirmConfig {
    fn default() -> Self {
        ConfirmConfig { shuffles: 200, min_subset: 10, target_error_pct: 1.0, level: 0.95 }
    }
}

/// The CONFIRM repetition estimator (Maricq et al., OSDI '18).
///
/// For each candidate subset size `s` (from `min_subset` to `n`):
/// shuffle the full sample set `c` times, take the first `s` samples each
/// time, compute the non-parametric median CI, then average the lower and
/// upper bounds across shuffles. If the averaged interval's half-width is
/// within `target_error_pct` of the full-set median, `s` repetitions
/// suffice.
///
/// # Panics
///
/// Panics if `samples` is empty or the full-set median is zero.
pub fn confirm(samples: &[f64], cfg: &ConfirmConfig, rng: &mut SimRng) -> ConfirmOutcome {
    assert!(!samples.is_empty(), "CONFIRM needs samples");
    let n = samples.len();
    let med = median(samples);
    assert!(med != 0.0, "zero median makes relative error undefined");

    let mut pool = samples.to_vec();
    let mut s = cfg.min_subset.max(1);
    while s <= n {
        let mut lower_sum = 0.0;
        let mut upper_sum = 0.0;
        let mut valid = 0usize;
        for _ in 0..cfg.shuffles {
            rng.shuffle(&mut pool);
            if let Some(ci) = nonparametric_median_ci(&pool[..s], cfg.level) {
                lower_sum += ci.low;
                upper_sum += ci.high;
                valid += 1;
            }
        }
        if valid == cfg.shuffles {
            let mean_low = lower_sum / valid as f64;
            let mean_high = upper_sum / valid as f64;
            let err_pct = ((mean_high - mean_low) / 2.0) / med.abs() * 100.0;
            if err_pct <= cfg.target_error_pct {
                return ConfirmOutcome::Converged(s);
            }
        }
        s += 1;
    }
    ConfirmOutcome::MoreThan(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpv_sim::dist::{Normal, Sampler};

    #[test]
    fn jain_matches_hand_computation() {
        // n = (100·1.96·s/(r·x̄))² with s/x̄ = 1 %, r = 1 % ⇒ (1.96·1)² ≈ 3.84 ⇒ 4.
        assert_eq!(jain_sample_size(100.0, 1.0, 1.0, 0.95), 4);
        // cv = 5.7 % ⇒ ~125 (the HP-SMToff 400K regime of Table IV).
        let n = jain_sample_size(100.0, 5.7, 1.0, 0.95);
        assert!((120..=130).contains(&n), "n = {n}");
        // Tiny variance ⇒ 1 iteration.
        assert_eq!(jain_sample_size(100.0, 0.01, 1.0, 0.95), 1);
    }

    #[test]
    fn jain_scales_quadratically_with_cv_and_inverse_r() {
        let base = jain_sample_size(100.0, 2.0, 1.0, 0.95);
        let double_cv = jain_sample_size(100.0, 4.0, 1.0, 0.95);
        assert!((double_cv as f64 / base as f64 - 4.0).abs() < 0.2);
        let half_r = jain_sample_size(100.0, 2.0, 0.5, 0.95);
        assert!((half_r as f64 / base as f64 - 4.0).abs() < 0.2);
    }

    #[test]
    fn jain_of_samples() {
        let xs = [10.0, 10.1, 9.9, 10.05, 9.95];
        let n = jain_sample_size_of(&xs, 1.0, 0.95);
        assert!(n <= 3, "n = {n}");
    }

    #[test]
    #[should_panic(expected = "relative error must be positive")]
    fn jain_rejects_bad_r() {
        jain_sample_size(1.0, 1.0, 0.0, 0.95);
    }

    #[test]
    fn confirm_converges_fast_for_tight_data() {
        // Extremely tight data: the minimum subset (10) already suffices —
        // this is the "CONFIRM = 10" floor visible all over Table IV.
        let xs: Vec<f64> = (0..50).map(|i| 100.0 + 0.001 * (i % 5) as f64).collect();
        let mut rng = SimRng::seed_from_u64(1);
        let out = confirm(&xs, &ConfirmConfig::default(), &mut rng);
        assert_eq!(out, ConfirmOutcome::Converged(10));
        assert_eq!(out.to_string(), "10");
    }

    #[test]
    fn confirm_reports_more_than_n_for_noisy_data() {
        // cv ~ 20 %: 50 samples cannot pin the median to 1 %.
        let d = Normal::new(100.0, 20.0);
        let mut rng = SimRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..50).map(|_| d.sample(&mut rng)).collect();
        let out = confirm(&xs, &ConfirmConfig::default(), &mut rng);
        assert_eq!(out, ConfirmOutcome::MoreThan(50));
        assert_eq!(out.lower_bound(), 50);
        assert_eq!(out.to_string(), ">50");
    }

    #[test]
    fn confirm_needs_more_reps_for_noisier_data() {
        let mut rng = SimRng::seed_from_u64(3);
        let tight: Vec<f64> = {
            let d = Normal::new(100.0, 0.8);
            (0..50).map(|_| d.sample(&mut rng)).collect()
        };
        let loose: Vec<f64> = {
            let d = Normal::new(100.0, 2.5);
            (0..50).map(|_| d.sample(&mut rng)).collect()
        };
        let r_tight = confirm(&tight, &ConfirmConfig::default(), &mut rng).lower_bound();
        let r_loose = confirm(&loose, &ConfirmConfig::default(), &mut rng).lower_bound();
        assert!(r_tight < r_loose, "tight {r_tight} !< loose {r_loose}");
    }

    #[test]
    fn confirm_is_deterministic_given_seed() {
        let d = Normal::new(50.0, 1.0);
        let mut gen = SimRng::seed_from_u64(4);
        let xs: Vec<f64> = (0..50).map(|_| d.sample(&mut gen)).collect();
        let a = confirm(&xs, &ConfirmConfig::default(), &mut SimRng::seed_from_u64(9));
        let b = confirm(&xs, &ConfirmConfig::default(), &mut SimRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
