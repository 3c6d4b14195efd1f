//! Special functions underlying the statistical tests.
//!
//! Implemented locally (no external math crate is in the allowed set):
//!
//! * standard normal PDF/CDF/quantile — CDF via Marsaglia's Taylor series
//!   with an asymptotic tail, quantile via Acklam's rational approximation
//!   polished by one Halley step (≈1e-14 absolute accuracy);
//! * `ln Γ` via the Lanczos approximation;
//! * the regularized incomplete beta function via Lentz's continued
//!   fraction, from which the Student-t CDF follows.

/// Standard normal probability density function.
pub fn norm_pdf(x: f64) -> f64 {
    const INV_SQRT_TAU: f64 = 0.398_942_280_401_432_7; // 1/sqrt(2π)
    INV_SQRT_TAU * (-0.5 * x * x).exp()
}

/// Standard normal cumulative distribution function Φ(x).
///
/// Accuracy is ~1e-15 over the practically relevant range; underflows to
/// 0/1 smoothly in the far tails.
pub fn norm_cdf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < -38.0 {
        return 0.0;
    }
    if x > 38.0 {
        return 1.0;
    }
    let ax = x.abs();
    if ax < 7.0 {
        // Marsaglia (2004): Φ(x) = 1/2 + φ(x) · Σ x^(2k+1) / (1·3·5···(2k+1))
        let mut sum = ax;
        let mut term = ax;
        let x2 = ax * ax;
        let mut k = 1.0f64;
        while term.abs() > 1e-18 * sum.abs() {
            term *= x2 / (2.0 * k + 1.0);
            sum += term;
            k += 1.0;
            if k > 500.0 {
                break;
            }
        }
        // Symmetry applied before the subtraction, so the tail keeps full
        // relative precision for negative x.
        if x >= 0.0 {
            0.5 + norm_pdf(ax) * sum
        } else {
            0.5 - norm_pdf(ax) * sum
        }
    } else {
        // Asymptotic expansion of the upper tail Q(x) = φ(x)/x · (1 - 1/x² + 3/x⁴ - …)
        let inv_x2 = 1.0 / (ax * ax);
        let mut s = 1.0;
        let mut term = 1.0;
        for k in 1..=8u32 {
            term *= -((2 * k - 1) as f64) * inv_x2;
            s += term;
        }
        let tail = norm_pdf(ax) / ax * s;
        if x >= 0.0 {
            1.0 - tail
        } else {
            tail
        }
    }
}

/// Upper-tail probability 1 − Φ(x), accurate in the right tail.
pub fn norm_sf(x: f64) -> f64 {
    norm_cdf(-x)
}

/// Standard normal quantile Φ⁻¹(p).
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
pub fn norm_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "norm_quantile requires p in (0,1), got {p}");
    // Acklam's rational approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] =
        [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the accurate CDF.
    let e = norm_cdf(x) - p;
    let u = e * (std::f64::consts::TAU).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Natural log of the gamma function (Lanczos, g = 7, n = 9).
pub fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (std::f64::consts::TAU).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function I_x(a, b).
///
/// Computed with Lentz's continued fraction; relative accuracy ~1e-14.
///
/// # Panics
///
/// Panics unless `a > 0`, `b > 0` and `0 <= x <= 1`.
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta_inc needs positive shape parameters, got ({a}, {b})");
    assert!((0.0..=1.0).contains(&x), "beta_inc needs x in [0,1], got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let bt = ln_front.exp();
    // Apply the symmetry relation at most once (decided here, no
    // recursion) to keep the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0) {
        bt * beta_cf(a, b, x) / a
    } else {
        1.0 - bt * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Student-t cumulative distribution function with `df` degrees of freedom.
///
/// # Panics
///
/// Panics unless `df > 0`.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "t_cdf needs positive degrees of freedom, got {df}");
    if t.is_nan() {
        return f64::NAN;
    }
    let x = df / (df + t * t);
    let p_tail = 0.5 * beta_inc(df / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - p_tail
    } else {
        p_tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_cdf_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((norm_cdf(1.0) - 0.841_344_746_068_542_9).abs() < 1e-12);
        assert!((norm_cdf(-1.0) - 0.158_655_253_931_457_05).abs() < 1e-12);
        assert!((norm_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-12);
        assert!((norm_cdf(3.0) - 0.998_650_101_968_369_9).abs() < 1e-12);
        // Deep tail (value from standard tables: Q(8) ≈ 6.22096e-16).
        let q8 = norm_sf(8.0);
        assert!((q8 / 6.220_960_574_271_78e-16 - 1.0).abs() < 1e-6, "Q(8) = {q8}");
        assert_eq!(norm_cdf(-40.0), 0.0);
        assert_eq!(norm_cdf(40.0), 1.0);
    }

    #[test]
    fn norm_quantile_inverts_cdf() {
        for &p in &[1e-10, 1e-6, 0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1.0 - 1e-9] {
            let x = norm_quantile(p);
            let back = norm_cdf(x);
            assert!((back - p).abs() < 1e-12 * (1.0 + 1.0 / p.min(1.0 - p)), "p={p} x={x} back={back}");
        }
        // The paper's z for 95 %: 1.96.
        assert!((norm_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "p in (0,1)")]
    fn norm_quantile_rejects_bad_p() {
        norm_quantile(0.0);
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-13);
        assert!((ln_gamma(2.0)).abs() < 1e-13);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        // Γ(10.3) via recurrence check: lnΓ(x+1) = lnΓ(x) + ln(x).
        assert!((ln_gamma(11.3) - ln_gamma(10.3) - 10.3f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn beta_inc_basic_identities() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
        // I_x(1,1) = x.
        for &x in &[0.1, 0.37, 0.92] {
            assert!((beta_inc(1.0, 1.0, x) - x).abs() < 1e-13);
        }
        // Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
        let v = beta_inc(2.5, 4.5, 0.3);
        let w = 1.0 - beta_inc(4.5, 2.5, 0.7);
        assert!((v - w).abs() < 1e-12);
        // I_x(1,b) = 1 − (1−x)^b.
        let got = beta_inc(1.0, 3.0, 0.2);
        assert!((got - (1.0 - 0.8f64.powi(3))).abs() < 1e-12);
    }

    #[test]
    fn t_cdf_matches_known_values() {
        // t with df → ∞ approaches normal.
        assert!((t_cdf(1.96, 1e7) - norm_cdf(1.96)).abs() < 1e-6);
        // Cauchy (df=1): CDF(t) = 1/2 + atan(t)/π.
        for &t in &[-2.0f64, -0.5, 0.0, 1.0, 5.0] {
            let expect = 0.5 + t.atan() / std::f64::consts::PI;
            assert!((t_cdf(t, 1.0) - expect).abs() < 1e-12, "t={t}");
        }
        // Symmetry.
        assert!((t_cdf(1.3, 7.0) + t_cdf(-1.3, 7.0) - 1.0).abs() < 1e-13);
    }
}
