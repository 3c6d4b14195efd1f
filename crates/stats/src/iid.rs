//! Diagnostics for the iid assumption (§III "IID samples").
//!
//! Confidence intervals require independent, identically distributed
//! samples. The paper gets independence by resetting the environment
//! between runs, and lists the standard checks for doubtful cases:
//! autocorrelation, lag plots and the turning-point test. This module
//! implements the turning-point test and Lancet's Spearman-based lag-1
//! independence check, which the fidelity checks run.

use crate::desc::mean;
use crate::dist_fn::{norm_sf, t_cdf};

/// Result of the turning-point test for randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurningPointTest {
    /// Observed number of turning points.
    pub turning_points: usize,
    /// Expected count under randomness: `2(n−2)/3`.
    pub expected: f64,
    /// The standardized statistic.
    pub z: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// The turning-point test: counts local extrema in the series and compares
/// against the `2(n−2)/3` expectation of an iid sequence.
///
/// Returns `None` for n < 3.
pub fn turning_point_test(xs: &[f64]) -> Option<TurningPointTest> {
    let n = xs.len();
    if n < 3 {
        return None;
    }
    let mut t = 0usize;
    for w in xs.windows(3) {
        if (w[1] > w[0] && w[1] > w[2]) || (w[1] < w[0] && w[1] < w[2]) {
            t += 1;
        }
    }
    let nf = n as f64;
    let expected = 2.0 * (nf - 2.0) / 3.0;
    let variance = (16.0 * nf - 29.0) / 90.0;
    let z = (t as f64 - expected) / variance.sqrt();
    let p_value = (2.0 * norm_sf(z.abs())).min(1.0);
    Some(TurningPointTest { turning_points: t, expected, z, p_value })
}

/// Result of a Spearman rank-correlation test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpearmanTest {
    /// The rank correlation coefficient ρ in `[-1, 1]`.
    pub rho: f64,
    /// Two-sided p-value from the t approximation.
    pub p_value: f64,
}

fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN sample"));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        // Average ranks over ties.
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &slot in &idx[i..=j] {
            out[slot] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation between two equal-length series — Lancet uses
/// this between consecutive samples to check independence.
///
/// Returns `None` if the series differ in length, have fewer than 3
/// elements, or either has zero rank variance.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<SpearmanTest> {
    if xs.len() != ys.len() || xs.len() < 3 {
        return None;
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    let mx = mean(&rx);
    let my = mean(&ry);
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for i in 0..rx.len() {
        let a = rx[i] - mx;
        let b = ry[i] - my;
        num += a * b;
        dx += a * a;
        dy += b * b;
    }
    if dx <= 0.0 || dy <= 0.0 {
        return None;
    }
    let rho = (num / (dx * dy).sqrt()).clamp(-1.0, 1.0);
    let n = xs.len() as f64;
    let p_value = if rho.abs() >= 1.0 {
        0.0
    } else {
        let t = rho * ((n - 2.0) / (1.0 - rho * rho)).sqrt();
        (2.0 * (1.0 - t_cdf(t.abs(), n - 2.0))).min(1.0)
    };
    Some(SpearmanTest { rho, p_value })
}

/// Lag-1 Spearman independence check on a single series.
pub fn spearman_lag1(xs: &[f64]) -> Option<SpearmanTest> {
    if xs.len() < 4 {
        return None;
    }
    spearman(&xs[..xs.len() - 1], &xs[1..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpv_sim::SimRng;

    fn white_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64()).collect()
    }

    #[test]
    fn turning_points_of_random_series_match_expectation() {
        let xs = white_noise(1_000, 3);
        let t = turning_point_test(&xs).unwrap();
        assert!((t.turning_points as f64 - t.expected).abs() < 40.0);
        assert!(t.p_value > 0.01, "p = {}", t.p_value);
    }

    #[test]
    fn turning_points_of_monotone_series_reject() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let t = turning_point_test(&xs).unwrap();
        assert_eq!(t.turning_points, 0);
        assert!(t.p_value < 1e-6);
        assert!(turning_point_test(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn spearman_perfect_monotone() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 4.0, 9.0, 16.0, 100.0]; // monotone, nonlinear
        let s = spearman(&xs, &ys).unwrap();
        assert!((s.rho - 1.0).abs() < 1e-12);
        assert!(s.p_value < 0.01);
        let inv: Vec<f64> = ys.iter().map(|y| -y).collect();
        let s2 = spearman(&xs, &inv).unwrap();
        assert!((s2.rho + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 1.0, 2.0, 3.0];
        let ys = [4.0, 4.0, 5.0, 6.0];
        let s = spearman(&xs, &ys).unwrap();
        assert!(s.rho > 0.9);
        assert!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(spearman(&[1.0, 2.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn spearman_lag1_on_independent_runs_is_weak() {
        let xs = white_noise(300, 5);
        let s = spearman_lag1(&xs).unwrap();
        assert!(s.rho.abs() < 0.15, "rho = {}", s.rho);
        assert!(s.p_value > 0.01);
        assert!(spearman_lag1(&[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn ranks_average_over_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }
}
