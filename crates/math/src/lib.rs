//! # tpv-math — deterministic, platform-pinned transcendentals
//!
//! The simulator's contract is bit-for-bit reproducibility: every golden
//! table, permutation-invariance proof and merge-invariance proof pins
//! `f64` outputs exactly. libm is the weakest link in that contract —
//! `ln`/`exp`/`cos`/`pow` are *not* required to be correctly rounded by
//! IEEE 754, so their bit patterns legally vary across platforms, libc
//! versions and compilers (the software-stack analogue of the
//! client-side hardware variability the source paper measures; see
//! "Multi-level analysis of compiler-induced variability and performance
//! tradeoffs", arXiv:1811.05618). This crate replaces every hot-path
//! transcendental with a branch-light, table-free polynomial kernel
//! built **only** from operations IEEE 754 pins exactly on every
//! platform: `+`, `-`, `*`, `/`, `sqrt`, comparisons, rounding and
//! integer bit manipulation. No fused multiply-add, no lookup tables,
//! no libm — so every platform produces identical bits *by
//! construction*, and the golden tables pin *our* math rather than a
//! particular libc's.
//!
//! Accuracy is verified by sweep tests against libm (`tests/accuracy.rs`)
//! over each function's hot domain; the documented bounds leave two
//! orders of magnitude of headroom under the ≤ 1e-9 target:
//!
//! | function | hot domain | max relative error (measured) |
//! | --- | --- | --- |
//! | [`fast_exp`] | `[-40, 40]` and full `[-745, 709]` | < 1e-12 |
//! | [`fast_ln`] | `(0, 1e9]`, incl. `(0,1]` uniforms | < 5e-14 |
//! | [`fast_sincos`] | `[-2π, 2π]` (Box–Muller feeds `2π·u`) | < 5e-14 abs, < 1e-11 rel away from zeros |
//! | [`fast_pow`] | `x > 0`, `|y·ln x| ≤ 40` | < 1e-11 |
//!
//! `fast_pow` composes `fast_exp(y · fast_ln(x))`, so its relative error
//! grows like `|y·ln x| · relerr(ln) + relerr(exp)` — bounded by
//! ~40·5e-14 + 4e-13 ≈ 2.4e-12 on the hot domain (Zipf tables,
//! Pareto/GPD/GEV inversions), far inside the 1e-9 budget.
//!
//! [`box_muller`] is the one unit-domain kernel: for raw uniforms
//! `a, b ∈ [0, 1)` (its precondition, `debug_assert`ed) it returns the
//! bits of `(-2.0 * fast_ln(1.0 - a)).sqrt() * fast_sincos(TAU * b).1`
//! from the same polynomial cores, without guards, data-dependent
//! branches or int↔float conversions: the `ln` exponent is read as a
//! float from the exponent bits placed under 2⁵², and `round` is
//! `(y + 2⁵²) − 2⁵²` (ties to even) plus one on an exact tie below, with
//! the cosine quadrant in the low mantissa bits of `n + 2⁵²`. A loop
//! over a block of uniform pairs is therefore straight-line code that
//! packs into SSE2 lanes. Every normal variate in the simulator goes
//! through it.
//!
//! Every polynomial is evaluated in **Estrin form** — a fixed, pinned
//! expression tree, so the bits are as deterministic as Horner's, but
//! with ~4 dependent levels instead of one per degree, which matters
//! when FMA is off the table.
//!
//! # Example
//!
//! ```
//! let x = 2.5_f64;
//! assert!((tpv_math::fast_ln(x) - x.ln()).abs() < 1e-12);
//! assert!((tpv_math::fast_exp(x) - x.exp()).abs() / x.exp() < 1e-12);
//! let (s, c) = tpv_math::fast_sincos(x);
//! assert!((s - x.sin()).abs() < 1e-12 && (c - x.cos()).abs() < 1e-12);
//! assert!((tpv_math::fast_pow(x, 1.5) - x.powf(1.5)).abs() < 1e-11);
//! ```

/// log2(e), for `exp`'s power-of-two argument split.
const LOG2E: f64 = std::f64::consts::LOG2_E;

/// High part of ln 2 (top 32 bits of the mantissa; `k * LN2_HI` is exact
/// for `|k| < 2^20`, the Cody–Waite property the reduction relies on).
/// The literal spells the split value's full decimal expansion.
#[allow(clippy::excessive_precision)]
const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;

/// Low part of ln 2: `ln 2 - LN2_HI`, rounded to f64.
#[allow(clippy::excessive_precision)]
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;

/// High part of π/2 (33 significant bits, exact times small integers).
#[allow(clippy::excessive_precision)]
const PIO2_HI: f64 = 1.570_796_326_734_125_614_17;

/// Low part of π/2: `π/2 - PIO2_HI`, rounded to f64.
#[allow(clippy::excessive_precision)]
const PIO2_LO: f64 = 6.077_100_506_506_192_249_32e-11;

/// 2/π, for the sincos quadrant reduction.
const FRAC_2_PI: f64 = std::f64::consts::FRAC_2_PI;

/// 2⁵², the smallest `f64` whose ulp is 1: adding it to a number in
/// `[0, 2⁵²)` rounds that number to an integer (ties to even), which
/// the sum then holds in its low mantissa bits.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `2^k` for `k ∈ [-1022, 1023]`, built directly from exponent bits —
/// exact, no rounding, no libm.
#[inline]
fn pow2(k: i64) -> f64 {
    debug_assert!((-1022..=1023).contains(&k), "pow2 exponent {k} outside the normal range");
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// `y.round()` — to the nearest integer, half away from zero — with the
/// same bits for every input, but without the libm call `f64::round`
/// compiles to on baseline x86-64 (it has no instruction there). For
/// `|y| < 2⁵²`, `(|y| + 2⁵²) − 2⁵²` rounds `|y|` to an integer with
/// ties to even, and both steps are exact otherwise; `|y|` minus that
/// integer is exact too, so an exact `0.5` marks a tie rounded down,
/// which takes one more. The sign is copied back, so `-0.3` gives
/// `-0.0` as `f64::round` does. Larger magnitudes are already integers,
/// and they, infinities and NaN round to themselves.
#[inline]
pub fn round_half_away(y: f64) -> f64 {
    let a = y.abs();
    if a >= TWO_52 || a.is_nan() {
        return y;
    }
    let t = (a + TWO_52) - TWO_52;
    let r = if a - t == 0.5 { t + 1.0 } else { t };
    r.copysign(y)
}

/// Deterministic `e^x`.
///
/// Cody–Waite reduction `x = k·ln2 + r` with `|r| ≤ ln2/2`, a
/// degree-10 Taylor polynomial on the reduced interval (truncation error
/// < 4e-13 relative — two orders inside the ≤1e-9 budget, and the
/// shortest polynomial that stays there; this is the most-called kernel,
/// so its degree is the one that was trimmed for latency), and exact
/// `2^k` scaling via exponent-bit construction. Overflow saturates to
/// `+∞` above ~709.78; results in the subnormal range are produced by a
/// two-step scale (correctly rounded per IEEE, hence still
/// deterministic) and flush to `0.0` below ~-745.2. `NaN` propagates.
///
/// Max relative error over the hot domain: < 1e-12 (see
/// `tests/accuracy.rs`).
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x > 709.782_712_893_384 {
        return f64::INFINITY;
    }
    if x < -745.2 {
        return 0.0;
    }
    let kf = round_half_away(x * LOG2E);
    let k = kf as i64;
    // Two-part reduction keeps r's absolute error ~|k|·2^-84 — far
    // below what a single ln2 constant would leak into the result.
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    // Taylor: e^r = Σ r^n / n!, n = 0..=10 (truncation < 4e-13 relative
    // at |r| ≤ ln2/2, two orders inside the ≤1e-9 budget), evaluated in
    // Estrin form: adjacent coefficient pairs combine independently,
    // then merge through powers r², r⁴, r⁸. A plain Horner chain is a
    // serially dependent multiply-add per degree (FMA is forbidden);
    // Estrin's tree is ~4 levels deep and the pairs all issue in
    // parallel. The expression tree is fixed, so the rounding pattern —
    // and therefore the output bits — is still pinned.
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let p01 = 1.0 + r;
    let p23 = 1.0 / 2.0 + r * (1.0 / 6.0);
    let p45 = 1.0 / 24.0 + r * (1.0 / 120.0);
    let p67 = 1.0 / 720.0 + r * (1.0 / 5_040.0);
    let p89 = 1.0 / 40_320.0 + r * (1.0 / 362_880.0);
    let p10 = 1.0 / 3_628_800.0;
    let lo = (p01 + r2 * p23) + r4 * (p45 + r2 * p67);
    let p = lo + r8 * (p89 + r2 * p10);
    // 2^k scaling: direct exponent bits in the normal range; overflow
    // and subnormal tails take a second multiply (still exact / IEEE
    // correctly rounded respectively).
    if k >= -1022 {
        if k > 1023 {
            return p * pow2(1023) * 2.0;
        }
        p * pow2(k)
    } else {
        p * pow2(k + 1022) * pow2(-1022)
    }
}

/// Deterministic natural logarithm.
///
/// Decomposes `x = m·2^e` with the mantissa bracketed into
/// `[√2/2, √2)` — which forces `e = 0` for all `x ∈ [√2/2, √2)`, so
/// there is no catastrophic `e·ln2 − ln m` cancellation near `x = 1` —
/// then evaluates `ln m = 2·atanh(t)`, `t = (m−1)/(m+1)`, `|t| ≤ 0.172`,
/// as an odd series through `t¹⁵` (truncation < 4e-14 relative), plus
/// the exact two-part `e·ln2`. Subnormal inputs are pre-scaled by
/// `2^54`. `ln(0) = -∞`, `ln(x<0) = NaN`, `ln(∞) = ∞`, NaN propagates.
///
/// Max relative error over the hot domain: < 5e-14 (see
/// `tests/accuracy.rs`).
#[inline]
pub fn fast_ln(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x == f64::INFINITY {
        return f64::INFINITY;
    }
    let mut e: i64 = 0;
    let mut bits = x.to_bits();
    if x < f64::MIN_POSITIVE {
        // Subnormal: renormalize with an exact power-of-two scale.
        bits = (x * 18_014_398_509_481_984.0).to_bits(); // 2^54
        e -= 54;
    }
    e += ((bits >> 52) as i64) - 1023;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    if m >= std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    ln_bracketed(m, e as f64)
}

/// `ln(m · 2^e)` for a mantissa `m` bracketed into `[√2/2, √2)` and an
/// integral exponent `e`: the polynomial core [`fast_ln`] and
/// [`box_muller`] share, so each coefficient exists once.
#[inline]
fn ln_bracketed(m: f64, e: f64) -> f64 {
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // atanh series: ln m = 2t·(1 + t²/3 + t⁴/5 + … + t¹⁴/15), in Estrin
    // form (pairs in t², merged through t⁴ and t⁸) — a fixed tree, so
    // the bits stay pinned, but only ~4 dependent levels after the
    // division instead of 7.
    let t4 = t2 * t2;
    let t8 = t4 * t4;
    let q01 = 1.0 + t2 * (1.0 / 3.0);
    let q23 = 1.0 / 5.0 + t2 * (1.0 / 7.0);
    let q45 = 1.0 / 9.0 + t2 * (1.0 / 11.0);
    let q67 = 1.0 / 13.0 + t2 * (1.0 / 15.0);
    let s = (q01 + t4 * q23) + t8 * (q45 + t4 * q67);
    (2.0 * t * s + e * LN2_LO) + e * LN2_HI
}

/// Deterministic simultaneous `(sin x, cos x)`.
///
/// Quadrant reduction `n = round(x·2/π)` with a two-part Cody–Waite
/// π/2 (exact `n·PIO2_HI` for `|n| < 2^20`, i.e. `|x| ≲ 8e5`), Taylor
/// polynomials of degree 13 (sin) / 14 (cos) on `[-π/4, π/4]`, and a
/// quadrant swap. The hot domain is Box–Muller's `2π·u, u ∈ [0,1)` and
/// the diurnal rate table's `2π·frac`; both sit far inside the exact
/// reduction range. Non-finite inputs return `(NaN, NaN)`.
///
/// Max error over `[-2π, 2π]`: < 5e-14 absolute on both components
/// (equivalently, < 5e-14 relative on the unit circle); relative error
/// where the true value exceeds 1e-3 is < 1e-11 (see
/// `tests/accuracy.rs`).
#[inline]
pub fn fast_sincos(x: f64) -> (f64, f64) {
    if !x.is_finite() {
        return (f64::NAN, f64::NAN);
    }
    let nf = round_half_away(x * FRAC_2_PI);
    let (s, c) = sincos_reduced(x, nf);
    // Two's-complement masking maps negative n to the right quadrant.
    match (nf as i64) & 3 {
        0 => (s, c),
        1 => (c, -s),
        2 => (-s, -c),
        _ => (-c, s),
    }
}

/// `(sin r, cos r)` for `r = x − nf·π/2`, the guard-free core
/// [`fast_sincos`] and [`box_muller`] share; the caller picks the
/// quadrant.
#[inline]
fn sincos_reduced(x: f64, nf: f64) -> (f64, f64) {
    let r = (x - nf * PIO2_HI) - nf * PIO2_LO;
    let r2 = r * r;
    // Both polynomials in Estrin form (pairs in r², merged through r⁴
    // and r⁸): fixed trees, pinned bits, ~4 dependent levels each, and
    // the sin and cos trees share r²/r⁴/r⁸ and execute concurrently.
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    // sin r = r·(1 − r²/3! + r⁴/5! − … + r¹²/13!).
    let s01 = 1.0 + r2 * (-1.0 / 6.0);
    let s23 = 1.0 / 120.0 + r2 * (-1.0 / 5_040.0);
    let s45 = 1.0 / 362_880.0 + r2 * (-1.0 / 39_916_800.0);
    let s6 = 1.0 / 6_227_020_800.0;
    let s = r * ((s01 + r4 * s23) + r8 * (s45 + r4 * s6));
    // cos r = 1 − r²/2! + r⁴/4! − … − r¹⁴/14!.
    let c01 = 1.0 + r2 * (-1.0 / 2.0);
    let c23 = 1.0 / 24.0 + r2 * (-1.0 / 720.0);
    let c45 = 1.0 / 40_320.0 + r2 * (-1.0 / 3_628_800.0);
    let c67 = 1.0 / 479_001_600.0 + r2 * (-1.0 / 87_178_291_200.0);
    let c = (c01 + r4 * c23) + r8 * (c45 + r4 * c67);
    (s, c)
}

/// Deterministic `x^y` for positive bases, as `exp(y·ln x)`.
///
/// Edge cases: `y == 0` returns `1.0` (for any `x`, including `0` and
/// `NaN` — matching `powf`), `0^y` is `0` for `y > 0` and `+∞` for
/// `y < 0`, and negative bases return `NaN` (the simulator only raises
/// positive quantities — uniforms, ranks, utilizations — to real
/// powers).
///
/// Relative error ≈ `|y·ln x| · relerr(fast_ln) + relerr(fast_exp)`:
/// < 1e-11 for `|y·ln x| ≤ 40`, the documented hot domain (see
/// `tests/accuracy.rs`).
#[inline]
pub fn fast_pow(x: f64, y: f64) -> f64 {
    if y == 0.0 {
        return 1.0;
    }
    if x == 0.0 {
        return if y > 0.0 { 0.0 } else { f64::INFINITY };
    }
    if x < 0.0 {
        return f64::NAN;
    }
    fast_exp(y * fast_ln(x))
}

/// Deterministic Box–Muller transform of two uniforms `a, b ∈ [0, 1)`
/// into one standard-normal variate: the bits of
/// `(-2.0 * fast_ln(1.0 - a)).sqrt() * fast_sincos(TAU * b).1`.
///
/// **Precondition:** `a` and `b` lie in `[0, 1)` (checked by a
/// `debug_assert`), the range of a raw uniform draw. On that domain
/// `1 − a` is a normal number in `[2⁻⁵³, 1]` and `2π·b·2/π` lies in
/// `[0, 4]`, so the kernel needs none of the general functions' guards
/// and has no data-dependent branch: the `ln` mantissa bracket is a
/// select, and the cosine quadrant is a select plus a sign-bit xor.
/// Nor does it convert between integers and floats, which x86-64 does
/// one scalar at a time below AVX-512. The exponent is the float
/// `2⁵² + biased exponent`, built from the exponent bits, minus
/// `2⁵² + 1023`. `round` is `t = (y + 2⁵²) − 2⁵²` (round to nearest,
/// ties to even) plus one where that left an exact tie below
/// (`y − t = 0.5`, which happens at `b` = 1/8, 3/8, 5/8 and 7/8), so it
/// is `f64::round`'s half-up rule on these non-negative arguments. The
/// quadrant is the low mantissa bits of `n + 2⁵²`. Every step is exact,
/// so the bits are those of the guarded expression, and a loop over a
/// block of pairs is straight-line float and bit arithmetic the
/// compiler packs into SSE2 lanes; every lane still runs the one pinned
/// expression tree.
#[inline]
pub fn box_muller(a: f64, b: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&a) && (0.0..1.0).contains(&b), "box_muller({a}, {b}) outside [0, 1)");
    // 1 − a is a normal number in [2⁻⁵³, 1]: no subnormal rescale.
    let bits = (1.0 - a).to_bits();
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    let high = m >= std::f64::consts::SQRT_2;
    let m = if high { m * 0.5 } else { m };
    // The sign bit is clear, so `bits >> 52` is the biased exponent.
    let e = f64::from_bits((bits >> 52) | TWO_52.to_bits()) - (TWO_52 + 1023.0);
    let e = if high { e + 1.0 } else { e };
    let radius = (-2.0 * ln_bracketed(m, e)).sqrt();
    let x = std::f64::consts::TAU * b;
    let y = x * FRAC_2_PI;
    let t = (y + TWO_52) - TWO_52;
    let n = if y - t == 0.5 { t + 1.0 } else { t };
    let (s, c) = sincos_reduced(x, n);
    // cos(r + n·π/2) is c, −s, −c, s for n mod 4 = 0, 1, 2, 3.
    let q = (n + TWO_52).to_bits();
    let leg = if q & 1 == 0 { c } else { s };
    let flip = (q ^ (q >> 1)) & 1;
    radius * f64::from_bits(leg.to_bits() ^ (flip << 63))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_anchor_points() {
        // Values IEEE arithmetic pins exactly: the kernels must hit them
        // bit for bit, not merely approximately.
        assert_eq!(fast_exp(0.0), 1.0);
        assert_eq!(fast_ln(1.0), 0.0);
        assert_eq!(fast_pow(1.0, 123.456), 1.0);
        assert_eq!(fast_pow(123.456, 0.0), 1.0);
        assert_eq!(fast_sincos(0.0), (0.0, 1.0));
    }

    #[test]
    fn edge_cases_match_ieee_conventions() {
        assert!(fast_exp(f64::NAN).is_nan());
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp(1000.0), f64::INFINITY);
        assert_eq!(fast_exp(-1000.0), 0.0);
        assert!(fast_ln(f64::NAN).is_nan());
        assert!(fast_ln(-1.0).is_nan());
        assert_eq!(fast_ln(0.0), f64::NEG_INFINITY);
        assert_eq!(fast_ln(f64::INFINITY), f64::INFINITY);
        assert!(fast_sincos(f64::NAN).0.is_nan());
        assert!(fast_sincos(f64::INFINITY).1.is_nan());
        assert_eq!(fast_pow(0.0, 2.0), 0.0);
        assert_eq!(fast_pow(0.0, -2.0), f64::INFINITY);
        assert!(fast_pow(-2.0, 0.5).is_nan());
    }

    #[test]
    fn subnormals_round_trip() {
        // ln of a subnormal goes through the 2^54 renormalization.
        let tiny = f64::MIN_POSITIVE / 1024.0;
        let got = fast_ln(tiny);
        let want = tiny.ln();
        assert!((got - want).abs() / want.abs() < 1e-12, "ln(subnormal): {got} vs {want}");
        // exp into the subnormal range takes the two-step scale.
        let x = -720.0;
        let got = fast_exp(x);
        assert!(got > 0.0 && got < f64::MIN_POSITIVE, "exp(-720) must be subnormal, got {got}");
        let rel = (got - x.exp()).abs() / x.exp();
        assert!(rel < 1e-9, "exp(-720) rel err {rel}");
    }

    #[test]
    fn quadrants_cover_negative_arguments() {
        for k in -9i64..=9 {
            let x = k as f64 * std::f64::consts::FRAC_PI_3;
            let (s, c) = fast_sincos(x);
            assert!((s - x.sin()).abs() < 1e-12, "sin({x})");
            assert!((c - x.cos()).abs() < 1e-12, "cos({x})");
        }
    }

    #[test]
    fn round_half_away_has_the_bits_of_f64_round() {
        let same = |y: f64| {
            assert_eq!(round_half_away(y).to_bits(), y.round().to_bits(), "round({y:e})");
            assert_eq!(round_half_away(-y).to_bits(), (-y).round().to_bits(), "round({:e})", -y);
        };
        // Exact ties, up to where halves stop being representable.
        for k in (0..2_000u64).chain([1 << 20, (1 << 51) - 1]) {
            same(k as f64 + 0.5);
        }
        // Just below a half (`+ 0.5` would round up), signed zeros, the
        // largest non-integers, integers from 2⁵² on, and non-finite.
        for y in
            [0.499_999_999_999_999_94, 0.0, 0.3, 1e-300, 2.5e-324, TWO_52 - 0.5, TWO_52 - 1.5, TWO_52, 1e300]
        {
            same(y);
        }
        assert_eq!(round_half_away(-0.3).to_bits(), (-0.0f64).to_bits());
        same(f64::INFINITY);
        assert!(round_half_away(f64::NAN).is_nan());
        // Random y in [-1100, 1100], the exponent range `fast_exp` rounds.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..100_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            same(((state >> 11) as f64 / (1u64 << 53) as f64) * 1_100.0);
        }
    }

    #[test]
    fn bit_determinism_across_calls() {
        // Same input, same bits — trivially true for pure code, but this
        // is the contract the whole crate exists for, so pin it.
        for i in 0..1000 {
            let x = 0.001 + i as f64 * 0.7318;
            assert_eq!(fast_ln(x).to_bits(), fast_ln(x).to_bits());
            assert_eq!(fast_exp(x % 40.0).to_bits(), fast_exp(x % 40.0).to_bits());
        }
    }
}
