//! Confidence intervals — the heart of the paper's methodology (§III).
//!
//! The paper uses **non-parametric CIs on the median** (Eq. 1/2) because
//! roughly half the measured configurations fail normality testing (§V-C).

use crate::desc::sorted;
use crate::dist_fn::norm_quantile;

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub low: f64,
    /// Point estimate the interval is centred on.
    pub mid: f64,
    /// Upper bound.
    pub high: f64,
    /// Confidence level in `(0, 1)`, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// True if the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        self.low <= x && x <= self.high
    }

    /// True if two intervals overlap.
    ///
    /// The paper's decision rule: two configurations are only declared
    /// different when their CIs do **not** overlap.
    pub fn overlaps(&self, other: &ConfidenceInterval) -> bool {
        self.low <= other.high && other.low <= self.high
    }
}

/// The sorted-order indices used by the paper's non-parametric CI.
///
/// Implements Eq. (1) and Eq. (2) exactly:
///
/// ```text
/// lower = ⌊(n − z·√n)/2⌋        upper = ⌈1 + (n + z·√n)/2⌉
/// ```
///
/// Indices are 1-based ranks into the sorted sample. Returns `None` when
/// the formulas fall outside `[1, n]` — i.e. when there are too few samples
/// to support the requested confidence level.
pub fn nonparametric_ci_ranks(n: usize, level: f64) -> Option<(usize, usize)> {
    assert!(level > 0.0 && level < 1.0, "confidence level must be in (0,1), got {level}");
    if n == 0 {
        return None;
    }
    let z = norm_quantile(0.5 + level / 2.0);
    let nf = n as f64;
    let lower = ((nf - z * nf.sqrt()) / 2.0).floor();
    let upper = (1.0 + (nf + z * nf.sqrt()) / 2.0).ceil();
    if lower < 1.0 || upper > nf {
        return None;
    }
    Some((lower as usize, upper as usize))
}

/// Non-parametric confidence interval for the **median** (paper Eq. 1/2).
///
/// Returns `None` when the sample is too small for the requested level
/// (e.g. fewer than ~6 samples at 95 %).
///
/// # Example
///
/// ```
/// use tpv_stats::ci::nonparametric_median_ci;
/// let xs: Vec<f64> = (1..=50).map(|i| i as f64).collect();
/// let ci = nonparametric_median_ci(&xs, 0.95).unwrap();
/// assert!(ci.contains(ci.mid));
/// assert!(ci.low >= 18.0 && ci.high <= 33.0);
/// ```
pub fn nonparametric_median_ci(xs: &[f64], level: f64) -> Option<ConfidenceInterval> {
    let (lo_rank, hi_rank) = nonparametric_ci_ranks(xs.len(), level)?;
    let v = sorted(xs);
    let mid = crate::desc::median(xs);
    let ci = ConfidenceInterval { low: v[lo_rank - 1], mid, high: v[hi_rank - 1], level };
    debug_assert!(ci.low <= ci.mid && ci.mid <= ci.high, "median escaped its CI");
    Some(ci)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_formula_matches_hand_computation_n50() {
        // n=50, z=1.96: lower = floor((50 - 13.859)/2) = floor(18.07) = 18,
        // upper = ceil(1 + (50+13.859)/2) = ceil(32.93) = 33.
        let (lo, hi) = nonparametric_ci_ranks(50, 0.95).unwrap();
        assert_eq!((lo, hi), (18, 33));
    }

    #[test]
    fn rank_formula_matches_hand_computation_n10() {
        // n=10, z=1.96: lower = floor((10-6.198)/2) = 1, upper = ceil(1+8.099) = 10.
        let (lo, hi) = nonparametric_ci_ranks(10, 0.95).unwrap();
        assert_eq!((lo, hi), (1, 10));
    }

    #[test]
    fn too_few_samples_yields_none() {
        // CONFIRM's premise: below ~6 samples the 95 % CI is undefined.
        assert!(nonparametric_ci_ranks(5, 0.95).is_none());
        assert!(nonparametric_ci_ranks(0, 0.95).is_none());
        assert!(nonparametric_median_ci(&[1.0, 2.0, 3.0], 0.95).is_none());
    }

    #[test]
    fn higher_confidence_widens_interval() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let ci90 = nonparametric_median_ci(&xs, 0.90).unwrap();
        let ci99 = nonparametric_median_ci(&xs, 0.99).unwrap();
        assert!(ci99.high - ci99.low >= ci90.high - ci90.low);
        assert!(ci90.contains(ci90.mid));
    }

    #[test]
    fn median_lies_within_nonparametric_ci() {
        // Property required by the paper: "The sample's median should be
        // within the CI bounds."
        let mut rng = tpv_sim::SimRng::seed_from_u64(1);
        for trial in 0..50 {
            let n = 6 + (trial % 60);
            let xs: Vec<f64> = (0..n).map(|_| rng.next_f64() * 100.0).collect();
            if let Some(ci) = nonparametric_median_ci(&xs, 0.95) {
                assert!(ci.contains(ci.mid), "median outside CI for n={n}");
            }
        }
    }

    #[test]
    fn overlap_is_symmetric_and_strict() {
        let a = ConfidenceInterval { low: 1.0, mid: 2.0, high: 3.0, level: 0.95 };
        let b = ConfidenceInterval { low: 2.5, mid: 3.0, high: 4.0, level: 0.95 };
        let c = ConfidenceInterval { low: 3.5, mid: 4.0, high: 5.0, level: 0.95 };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn coverage_of_nonparametric_ci_is_approximately_nominal() {
        // Draw many datasets from a known distribution (median = 0) and
        // check the CI covers the true median ≈95 % of the time.
        let mut rng = tpv_sim::SimRng::seed_from_u64(7);
        let trials = 400;
        let mut covered = 0;
        for _ in 0..trials {
            let xs: Vec<f64> = (0..40).map(|_| rng.next_f64() - 0.5).collect();
            let ci = nonparametric_median_ci(&xs, 0.95).unwrap();
            if ci.contains(0.0) {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!(rate > 0.90 && rate <= 1.0, "coverage {rate}");
    }
}
