//! Descriptive statistics over sample sets, plus Little's law.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n−1 denominator). Returns 0 for n < 2.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// The finite values of `xs`, sorted ascending — the edge-case guard
/// shared by [`median`], [`percentile`] and
/// [`coefficient_of_variation`]: NaN (and ±∞) samples are *dropped*, not
/// propagated, so a single poisoned sample cannot silently turn these
/// three summary statistics into NaN or a panic. (The guard is local to
/// them: [`sorted`] keeps its documented panic-on-NaN contract, and
/// [`mean`]/[`std_dev`] still propagate NaN like every float sum.)
fn finite_sorted(xs: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Coefficient of variation, `std_dev / mean`, over the finite samples.
/// Returns 0 for empty or single-element input and when the mean is 0
/// (a CoV of a degenerate sample set carries no information).
pub fn coefficient_of_variation(xs: &[f64]) -> f64 {
    let v = finite_sorted(xs);
    let m = mean(&v);
    if m == 0.0 {
        0.0
    } else {
        std_dev(&v) / m
    }
}

/// Returns a sorted copy of the samples.
///
/// # Panics
///
/// Panics if any value is NaN (samples must be comparable).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample set"));
    v
}

/// Median of the finite samples (mean of the two central order
/// statistics for even n). Returns 0 when no finite sample remains —
/// non-finite values are dropped, never propagated.
pub fn median(xs: &[f64]) -> f64 {
    let v = finite_sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (nearest-rank on the sorted finite samples).
/// Returns 0 when no finite sample remains — non-finite values are
/// dropped, never propagated, and an empty sample set is reported as 0
/// rather than a panic so a single starved cell cannot abort a whole
/// report.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` (a caller bug, unlike empty
/// data).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let v = finite_sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Sample skewness (adjusted Fisher–Pearson). Returns 0 for n < 3.
///
/// Positive skew — a long right tail — is the signature of the queueing-
/// dominated high-QPS configurations in the paper's Fig. 9.
pub fn skewness(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 3 {
        return 0.0;
    }
    let m = mean(xs);
    let s = std_dev(xs);
    if s == 0.0 {
        return 0.0;
    }
    let nf = n as f64;
    let m3 = xs.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>();
    m3 * nf / ((nf - 1.0) * (nf - 2.0))
}

/// Little's law: mean concurrency `L = λ·W`.
///
/// The paper uses this to bound the synthetic-workload QPS so that the
/// offered concurrency stays below the worker count (§V-B).
pub fn littles_law_concurrency(arrival_rate_per_sec: f64, mean_latency_secs: f64) -> f64 {
    arrival_rate_per_sec * mean_latency_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(median(&xs), 4.5);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn median_odd_length() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn empty_and_single_element_are_total() {
        // Degenerate inputs answer with the neutral 0 / identity instead
        // of panicking: a starved cell must not abort a whole report.
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(percentile(&[42.0], 1.0), 42.0);
        assert_eq!(percentile(&[42.0], 100.0), 42.0);
        assert_eq!(median(&[42.0]), 42.0);
        assert_eq!(coefficient_of_variation(&[42.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_out_of_range_panics() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn nan_samples_are_dropped_not_propagated() {
        let clean = [1.0, 2.0, 3.0, 4.0];
        let poisoned = [1.0, f64::NAN, 2.0, 3.0, f64::INFINITY, 4.0, f64::NEG_INFINITY];
        assert_eq!(median(&poisoned), median(&clean));
        assert_eq!(percentile(&poisoned, 99.0), percentile(&clean, 99.0));
        assert!((coefficient_of_variation(&poisoned) - coefficient_of_variation(&clean)).abs() < 1e-12);
        // All-NaN collapses to the empty case, still without panicking.
        let all_nan = [f64::NAN, f64::NAN];
        assert_eq!(median(&all_nan), 0.0);
        assert_eq!(percentile(&all_nan, 50.0), 0.0);
        assert_eq!(coefficient_of_variation(&all_nan), 0.0);
    }

    #[test]
    fn skewness_signs() {
        let right_skewed = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 10.0, 20.0];
        assert!(skewness(&right_skewed) > 1.0);
        let symmetric = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert!(skewness(&symmetric).abs() < 1e-12);
        assert_eq!(skewness(&[1.0, 2.0]), 0.0);
        assert_eq!(skewness(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn littles_law_round_trip() {
        // 10 workers, 500 µs latency ⇒ max 20 000 QPS — the paper's bound
        // for the synthetic workload sweep — and L = λ·W recovers the 10.
        let max_rate: f64 = 10.0 / 500e-6;
        assert!((max_rate - 20_000.0).abs() < 1e-9);
        assert!((littles_law_concurrency(max_rate, 500e-6) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cv_is_scale_free() {
        let xs = [10.0, 12.0, 8.0, 11.0, 9.0];
        let scaled: Vec<f64> = xs.iter().map(|x| x * 7.0).collect();
        assert!((coefficient_of_variation(&xs) - coefficient_of_variation(&scaled)).abs() < 1e-12);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
    }
}
