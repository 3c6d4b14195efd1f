//! Normality testing (§III "Hypothesis Testing - Shapiro-Wilk Test").
//!
//! The paper screens every configuration's 50 run samples with the
//! Shapiro–Wilk test before choosing between parametric and non-parametric
//! repetition estimators (Fig. 8, Table IV). We implement the standard
//! algorithm **AS R94** (Royston, 1995, *Applied Statistics* 44) — the same
//! algorithm behind R's `shapiro.test` and SciPy's `shapiro` — without the
//! censoring path, for sample sizes 3 ≤ n ≤ 5000.

use crate::dist_fn::{norm_quantile, norm_sf};

/// Result of a Shapiro–Wilk test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapiroWilk {
    /// The W statistic in `(0, 1]`; values near 1 indicate normality.
    pub w: f64,
    /// The p-value for the null hypothesis "the sample is normal".
    pub p_value: f64,
}

impl ShapiroWilk {
    /// Whether the null hypothesis of normality is rejected at
    /// significance level `alpha` (the paper uses 0.05 — the red dashed
    /// threshold in Fig. 8).
    pub fn rejects_normality(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Errors from [`shapiro_wilk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapiroWilkError {
    /// Fewer than 3 samples.
    TooFewSamples,
    /// More than 5000 samples (outside AS R94's calibrated range).
    TooManySamples,
    /// All samples identical — W is undefined.
    ZeroRange,
}

impl std::fmt::Display for ShapiroWilkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapiroWilkError::TooFewSamples => write!(f, "shapiro-wilk requires at least 3 samples"),
            ShapiroWilkError::TooManySamples => write!(f, "shapiro-wilk supports at most 5000 samples"),
            ShapiroWilkError::ZeroRange => write!(f, "all samples are identical"),
        }
    }
}

impl std::error::Error for ShapiroWilkError {}

fn poly(coeffs: &[f64], x: f64) -> f64 {
    // coeffs[0] + coeffs[1]·x + coeffs[2]·x² + …
    coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

/// The Shapiro–Wilk W test for normality (AS R94).
///
/// # Errors
///
/// Returns an error for n < 3, n > 5000, or a zero-range sample.
///
/// # Example
///
/// ```
/// use tpv_stats::shapiro_wilk;
/// // Strongly right-skewed data: normality is rejected.
/// let skewed: Vec<f64> = (1..=40).map(|i| (i as f64).exp2() / 1e6).collect();
/// let r = shapiro_wilk(&skewed).unwrap();
/// assert!(r.p_value < 0.01);
/// ```
pub fn shapiro_wilk(samples: &[f64]) -> Result<ShapiroWilk, ShapiroWilkError> {
    let n = samples.len();
    if n < 3 {
        return Err(ShapiroWilkError::TooFewSamples);
    }
    if n > 5000 {
        return Err(ShapiroWilkError::TooManySamples);
    }
    let mut x = samples.to_vec();
    x.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let range = x[n - 1] - x[0];
    if range <= 0.0 {
        return Err(ShapiroWilkError::ZeroRange);
    }

    let an = n as f64;
    let n2 = n / 2;

    // --- Weights (Royston's approximation to the normalized Blom scores).
    // `m[i]` are the expected order statistics of the lower half (negative);
    // `a` holds the positive weights applied antisymmetrically.
    let mut a = vec![0.0f64; n2];
    if n == 3 {
        a[0] = std::f64::consts::FRAC_1_SQRT_2;
    } else {
        const C1: [f64; 6] = [0.0, 0.221_157, -0.147_981, -2.071_190, 4.434_685, -2.706_056];
        const C2: [f64; 6] = [0.0, 0.042_981, -0.293_762, -1.752_461, 5.682_633, -3.582_633];
        let an25 = an + 0.25;
        let mut m = vec![0.0f64; n2];
        let mut summ2 = 0.0;
        for (i, mi) in m.iter_mut().enumerate() {
            *mi = norm_quantile((i as f64 + 1.0 - 0.375) / an25);
            summ2 += *mi * *mi;
        }
        summ2 *= 2.0;
        let ssumm2 = summ2.sqrt();
        let rsn = 1.0 / an.sqrt();
        let a1 = poly(&C1, rsn) - m[0] / ssumm2;
        let (first_unadjusted, fac) = if n > 5 {
            let a2 = poly(&C2, rsn) - m[1] / ssumm2;
            let fac = ((summ2 - 2.0 * m[0] * m[0] - 2.0 * m[1] * m[1])
                / (1.0 - 2.0 * a1 * a1 - 2.0 * a2 * a2))
                .sqrt();
            a[1] = a2;
            (2usize, fac)
        } else {
            let fac = ((summ2 - 2.0 * m[0] * m[0]) / (1.0 - 2.0 * a1 * a1)).sqrt();
            (1usize, fac)
        };
        a[0] = a1;
        for i in first_unadjusted..n2 {
            a[i] = -m[i] / fac;
        }
    }

    // --- W statistic: W = b² / Σ(x − x̄)², with Σ aᵢ² = 1 by construction.
    let mean = x.iter().sum::<f64>() / an;
    let ssq: f64 = x.iter().map(|v| (v - mean) * (v - mean)).sum();
    let mut b = 0.0;
    for i in 0..n2 {
        b += a[i] * (x[n - 1 - i] - x[i]);
    }
    let w = ((b * b) / ssq).min(1.0);

    // --- p-value (Royston's normalizing transformations).
    const C3: [f64; 4] = [0.544, -0.399_78, 0.025_054, -6.714e-4];
    const C4: [f64; 4] = [1.3822, -0.778_57, 0.062_767, -0.002_032_2];
    const C5: [f64; 4] = [-1.5861, -0.310_82, -0.083_751, 0.003_891_5];
    const C6: [f64; 3] = [-0.4803, -0.082_676, 0.003_030_2];
    const G: [f64; 2] = [-2.273, 0.459];
    const PI6: f64 = 1.909_859_317_102_744; // 6/π
    const STQR: f64 = 1.047_197_551_196_597_6; // π/3

    let p_value = if n == 3 {
        (PI6 * (w.sqrt().asin() - STQR)).clamp(0.0, 1.0)
    } else {
        let one_minus_w = (1.0 - w).max(1e-300);
        let (y, mu, sigma) = if n <= 11 {
            let gamma = poly(&G, an);
            let arg = gamma - one_minus_w.ln();
            if arg <= 0.0 {
                // W so small the transform saturates: overwhelming rejection.
                return Ok(ShapiroWilk { w, p_value: 0.0 });
            }
            (-arg.ln(), poly(&C3, an), poly(&C4, an).exp())
        } else {
            let ln_n = an.ln();
            (one_minus_w.ln(), poly(&C5, ln_n), poly(&C6, ln_n).exp())
        };
        norm_sf((y - mu) / sigma).clamp(0.0, 1.0)
    };

    Ok(ShapiroWilk { w, p_value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpv_sim::dist::{Exponential, Normal, Sampler};
    use tpv_sim::SimRng;

    #[test]
    fn n3_symmetric_is_perfectly_normal() {
        // For n=3, W = 1 for any symmetric triple, and the exact p is 1.
        let r = shapiro_wilk(&[1.0, 2.0, 3.0]).unwrap();
        assert!((r.w - 1.0).abs() < 1e-12);
        assert!((r.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn n3_asymmetric_has_lower_w() {
        let r = shapiro_wilk(&[1.0, 1.1, 10.0]).unwrap();
        assert!(r.w < 0.8, "W = {}", r.w);
        assert!(r.p_value < 0.2);
    }

    #[test]
    fn input_validation() {
        assert_eq!(shapiro_wilk(&[1.0, 2.0]).unwrap_err(), ShapiroWilkError::TooFewSamples);
        assert_eq!(shapiro_wilk(&vec![0.0; 5001]).unwrap_err(), ShapiroWilkError::TooManySamples);
        assert_eq!(shapiro_wilk(&[5.0; 10]).unwrap_err(), ShapiroWilkError::ZeroRange);
        let msg = format!("{}", ShapiroWilkError::ZeroRange);
        assert!(msg.contains("identical"));
    }

    #[test]
    fn normal_samples_usually_pass() {
        // Under H0 the p-value is ~Uniform(0,1): at α=0.05 we expect ~5 %
        // rejections. Allow a generous band for a 200-trial estimate.
        let dist = Normal::new(50.0, 4.0);
        let mut rng = SimRng::seed_from_u64(2024);
        let trials = 200;
        let mut rejected = 0;
        for _ in 0..trials {
            let xs: Vec<f64> = (0..50).map(|_| dist.sample(&mut rng)).collect();
            let r = shapiro_wilk(&xs).unwrap();
            assert!(r.w > 0.8, "W suspiciously low for normal data: {}", r.w);
            if r.rejects_normality(0.05) {
                rejected += 1;
            }
        }
        let rate = rejected as f64 / trials as f64;
        assert!(rate < 0.13, "false rejection rate {rate}");
        assert!(rate > 0.0, "test never rejects — p-values look broken");
    }

    #[test]
    fn p_values_are_roughly_uniform_under_h0() {
        // Finer check of the Royston transform calibration: the empirical
        // CDF of p at 0.1/0.5/0.9 should be near nominal.
        let dist = Normal::new(0.0, 1.0);
        let mut rng = SimRng::seed_from_u64(7);
        let trials = 300;
        let mut ps = Vec::with_capacity(trials);
        for _ in 0..trials {
            let xs: Vec<f64> = (0..30).map(|_| dist.sample(&mut rng)).collect();
            ps.push(shapiro_wilk(&xs).unwrap().p_value);
        }
        for (q, nominal) in [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)] {
            let frac = ps.iter().filter(|&&p| p <= q).count() as f64 / trials as f64;
            assert!((frac - nominal).abs() < 0.12, "F({q}) = {frac}, expected ≈{nominal}");
        }
    }

    #[test]
    fn exponential_samples_are_rejected() {
        let dist = Exponential::with_mean(10.0);
        let mut rng = SimRng::seed_from_u64(5);
        let mut rejected = 0;
        let trials = 100;
        for _ in 0..trials {
            let xs: Vec<f64> = (0..50).map(|_| dist.sample(&mut rng)).collect();
            if shapiro_wilk(&xs).unwrap().rejects_normality(0.05) {
                rejected += 1;
            }
        }
        // SW has ~high power against exponential at n=50.
        assert!(rejected >= 90, "only {rejected}/{trials} rejections");
    }

    #[test]
    fn small_sample_branch_n_le_11() {
        let dist = Normal::new(0.0, 1.0);
        let mut rng = SimRng::seed_from_u64(11);
        let mut rejected = 0;
        let trials = 200;
        for _ in 0..trials {
            let xs: Vec<f64> = (0..9).map(|_| dist.sample(&mut rng)).collect();
            if shapiro_wilk(&xs).unwrap().rejects_normality(0.05) {
                rejected += 1;
            }
        }
        let rate = rejected as f64 / trials as f64;
        assert!(rate < 0.13, "n=9 false rejection rate {rate}");
    }

    #[test]
    fn w_decreases_with_increasing_skew() {
        // Monotone sanity: heavier right tail ⇒ smaller W.
        let base: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mild: Vec<f64> = base.iter().map(|x| x * x).collect();
        let heavy: Vec<f64> = base.iter().map(|x| (x / 6.0).exp()).collect();
        let w_base = shapiro_wilk(&base).unwrap().w;
        let w_mild = shapiro_wilk(&mild).unwrap().w;
        let w_heavy = shapiro_wilk(&heavy).unwrap().w;
        assert!(w_base > w_mild, "{w_base} vs {w_mild}");
        assert!(w_mild > w_heavy, "{w_mild} vs {w_heavy}");
    }

    #[test]
    fn large_n_branch_works() {
        let dist = Normal::new(5.0, 2.0);
        let mut rng = SimRng::seed_from_u64(99);
        let xs: Vec<f64> = (0..2000).map(|_| dist.sample(&mut rng)).collect();
        let r = shapiro_wilk(&xs).unwrap();
        assert!(r.w > 0.995, "W = {}", r.w);
        assert!(r.p_value > 0.01, "p = {}", r.p_value);
    }

    #[test]
    fn scale_and_shift_invariance() {
        let mut rng = SimRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..30).map(|_| rng.next_f64() * 10.0).collect();
        let shifted: Vec<f64> = xs.iter().map(|x| x * 1e6 + 42.0).collect();
        let a = shapiro_wilk(&xs).unwrap();
        let b = shapiro_wilk(&shifted).unwrap();
        assert!((a.w - b.w).abs() < 1e-9);
        assert!((a.p_value - b.p_value).abs() < 1e-9);
    }
}
