//! Statistical distributions used by the workload and hardware models.
//!
//! Everything samples through the [`Sampler`] trait from a [`SimRng`], via
//! inverse-CDF or classical transforms, so streams stay reproducible.
//!
//! The set is driven by the paper's workloads:
//!
//! * [`Exponential`] — open-loop Poisson inter-arrival times (§II, §IV-B).
//! * [`Normal`] / [`LogNormal`] — service-time jitter and per-run drift.
//! * [`GeneralizedPareto`] / [`Gev`] — Facebook ETC value/key sizes
//!   (Atikoglu et al., SIGMETRICS'12). The Memcached workload transforms
//!   value sizes and consumes, without transforming, the key-size draw.
//! * [`Zipf`] — key popularity.
//!
//! Every transcendental step goes through [`tpv_math`]'s deterministic
//! kernels (never libm, whose bits legally vary across platforms), and
//! every sampler exposes its inverse transform as a pure
//! `from_unit` function of raw `[0, 1)` uniforms. The `sample` path
//! draws from the RNG and calls the same transform, so bulk pre-drawn
//! uniforms produce bit-identical variates to sequential sampling.

use crate::rng::SimRng;
use crate::SimDuration;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use tpv_math::{box_muller, fast_exp, fast_ln, fast_pow};

/// A distribution over `f64` that can be sampled with a [`SimRng`].
pub trait Sampler {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// Draws one sample and interprets it as a duration in microseconds.
    ///
    /// Negative samples clamp to zero — convenient for jittered duration
    /// models where the jitter may dip below zero.
    fn sample_us(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_us_f64(self.sample(rng))
    }
}

/// Exponential with rate `lambda` (mean `1/lambda`), via inverse CDF.
///
/// This is the inter-arrival distribution of an open-loop Poisson workload
/// generator — the configuration used by mutilate, the µSuite client and
/// wrk2 in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Exponential with the given rate (events per unit time).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn with_rate(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "exponential rate must be positive, got {rate}");
        Exponential { mean: 1.0 / rate }
    }

    /// Exponential with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "exponential mean must be positive, got {mean}");
        Exponential { mean }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The superposition of `members` independent copies of this process.
    ///
    /// Superposing k Poisson processes of rate λ yields one Poisson
    /// process of rate kλ — the identity behind cohort-compressed fleets,
    /// where a population of identical open-loop clients is simulated as
    /// a single pooled arrival stream. `superposed(1)` is exactly `self`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero.
    pub fn superposed(&self, members: u32) -> Self {
        assert!(members > 0, "superposition needs at least one member process");
        Exponential { mean: self.mean / f64::from(members) }
    }

    /// The inverse-CDF transform of one raw `[0, 1)` uniform (as drawn
    /// by [`SimRng::next_f64`]) into an exponential variate. Pure — the
    /// scalar [`Sampler::sample`] path and bulk pre-drawn uniforms run
    /// the identical arithmetic.
    #[inline]
    pub fn from_unit(&self, u: f64) -> f64 {
        // 1 - u maps [0, 1) onto (0, 1] — safe as input to ln.
        -self.mean * fast_ln(1.0 - u)
    }
}

impl Sampler for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.from_unit(rng.next_f64())
    }
}

/// Normal (Gaussian) via the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Normal with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "bad normal parameters ({mean}, {std_dev})"
        );
        Normal { mean, std_dev }
    }

    /// Draws a standard-normal variate.
    pub fn standard_sample(rng: &mut SimRng) -> f64 {
        // Box–Muller consumes exactly two uniforms; we deliberately
        // discard the second variate to keep the stream position
        // independent of caller interleaving.
        let a = rng.next_f64();
        let b = rng.next_f64();
        Normal::standard_from_units(a, b)
    }

    /// The Box–Muller transform of two raw `[0, 1)` uniforms into a
    /// standard-normal variate (the cosine leg; the sine leg is
    /// discarded by convention): [`tpv_math::box_muller`]. Pure —
    /// shared by the scalar and bulk sampling paths.
    #[inline]
    pub fn standard_from_units(a: f64, b: f64) -> f64 {
        box_muller(a, b)
    }

    /// Fills `out` with standard-normal variates, bit-identical to
    /// calling [`standard_sample`](Self::standard_sample) `out.len()`
    /// times in order and leaving `rng` at the same stream position.
    /// Each chunk of 64 variates draws its 128 uniforms in one
    /// [`SimRng::fill_f64`] call, then maps the branch-free kernel over
    /// the pairs — a contiguous loop the compiler may pack into vector
    /// lanes. Pinned by `tests/math_portability.rs`.
    pub fn fill_standard(rng: &mut SimRng, out: &mut [f64]) {
        let mut units = [0.0; 2 * NORMAL_BLOCK];
        for chunk in out.chunks_mut(NORMAL_BLOCK) {
            let units = &mut units[..2 * chunk.len()];
            rng.fill_f64(units);
            for (z, pair) in chunk.iter_mut().zip(units.chunks_exact(2)) {
                *z = box_muller(pair[0], pair[1]);
            }
        }
    }
}

/// Normal variates per [`Normal::fill_standard`] block (its uniforms
/// take 1 KiB of stack).
const NORMAL_BLOCK: usize = 64;

impl Sampler for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mean + self.std_dev * Normal::standard_sample(rng)
    }
}

/// Whether `sigma` is a usable spread: finite and non-negative (0 turns
/// its noise source off). The one rule behind the [`LogNormal`]
/// constructors' asserts and topology validation's sigma checks.
pub fn usable_sigma(sigma: f64) -> bool {
    sigma.is_finite() && sigma >= 0.0
}

/// Log-normal: `exp(Normal(mu, sigma))`.
///
/// Used for right-skewed per-run interference — exactly the shape that
/// makes high-QPS configurations fail the Shapiro–Wilk test in §V-C.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Log-normal with log-space mean `mu` and log-space std dev `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && usable_sigma(sigma), "bad lognormal parameters ({mu}, {sigma})");
        LogNormal { mu, sigma }
    }

    /// Log-normal parameterised by its *linear-space* mean and the
    /// log-space sigma — convenient for calibration.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`, `sigma < 0` or either is non-finite.
    pub fn with_mean(mean: f64, sigma: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0 && usable_sigma(sigma),
            "bad lognormal mean/sigma ({mean}, {sigma})"
        );
        LogNormal { mu: fast_ln(mean) - sigma * sigma / 2.0, sigma }
    }

    /// The transform of two raw `[0, 1)` uniforms (Box–Muller pair) into
    /// a log-normal variate. Pure — shared by the scalar and bulk
    /// sampling paths.
    #[inline]
    pub fn from_units(&self, a: f64, b: f64) -> f64 {
        fast_exp(self.mu + self.sigma * Normal::standard_from_units(a, b))
    }

    /// Advances `rng` past one [`sample`](Sampler::sample) without
    /// transforming it, leaving the stream exactly where `sample` leaves
    /// it. For a caller that knows the variate cannot change its result
    /// (a jitter that multiplies a zero latency) — the draw is consumed,
    /// not transformed.
    #[inline]
    pub fn consume(&self, rng: &mut SimRng) {
        LogNormal::units(rng);
    }

    /// The uniforms one variate takes: the single place both
    /// [`sample`](Sampler::sample) and [`consume`](Self::consume) draw
    /// them from.
    #[inline]
    fn units(rng: &mut SimRng) -> (f64, f64) {
        let a = rng.next_f64();
        let b = rng.next_f64();
        (a, b)
    }
}

impl Sampler for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let (a, b) = LogNormal::units(rng);
        self.from_units(a, b)
    }
}

/// Generalized Pareto distribution (GPD).
///
/// Atikoglu et al. model Facebook ETC *value sizes* as
/// GP(θ = 0, σ = 214.48, k = 0.348); the ETC workload model in
/// `tpv-services` relies on this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralizedPareto {
    location: f64,
    scale: f64,
    shape: f64,
}

impl GeneralizedPareto {
    /// GPD with location θ, scale σ and shape k.
    ///
    /// # Panics
    ///
    /// Panics unless `scale > 0`.
    pub fn new(location: f64, scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0, "GPD scale must be positive, got {scale}");
        GeneralizedPareto { location, scale, shape }
    }

    /// The inverse-CDF transform of one raw `[0, 1)` uniform (as drawn
    /// by [`SimRng::next_f64`]) into a GPD variate. Pure — the scalar
    /// [`Sampler::sample`] path and uniforms drawn in bulk and
    /// transformed later (the KV store's on-read preload) run the
    /// identical arithmetic.
    #[inline]
    pub fn from_unit(&self, a: f64) -> f64 {
        let u = 1.0 - a; // in (0,1]
        if self.shape.abs() < 1e-12 {
            self.location - self.scale * fast_ln(u)
        } else {
            self.location + self.scale * (fast_pow(u, -self.shape) - 1.0) / self.shape
        }
    }
}

impl Sampler for GeneralizedPareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.from_unit(rng.next_f64())
    }
}

/// Generalized extreme value (GEV) distribution.
///
/// Atikoglu et al. model Facebook ETC *key sizes* as
/// GEV(µ = 30.7984, σ = 8.20449, k = 0.078688).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gev {
    location: f64,
    scale: f64,
    shape: f64,
}

impl Gev {
    /// GEV with location µ, scale σ and shape k.
    ///
    /// # Panics
    ///
    /// Panics unless `scale > 0`.
    pub fn new(location: f64, scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0, "GEV scale must be positive, got {scale}");
        Gev { location, scale, shape }
    }
}

impl Sampler for Gev {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = 1.0 - rng.next_f64(); // in (0,1]
        let ln_u = -fast_ln(u); // Exp(1)
        if self.shape.abs() < 1e-12 {
            self.location - self.scale * fast_ln(ln_u)
        } else {
            self.location + self.scale * (fast_pow(ln_u, -self.shape) - 1.0) / self.shape
        }
    }
}

/// Zipf-distributed ranks over `{1, …, n}` with exponent `s`.
///
/// Sampled by inverting the CDF over a precomputed prefix table (O(log n)
/// per draw), which is exact and deterministic. The inversion is
/// *tiered*: Zipf mass concentrates in the first ranks (Zipf(0.99) puts
/// ~40 % of draws in the first 32 ranks and ~75 % in the first 1024), so
/// most draws binary-search a few hundred bytes that stay L1-resident
/// instead of walking a multi-hundred-KiB table. The computed rank is
/// identical to a plain binary search over the whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Arc<[f64]>,
}

/// Process-wide memo of Zipf prefix tables, keyed by `(n, s bits)`.
///
/// A table is a pure function of `(n, s)` — `fast_pow` is deterministic
/// and the summation order is fixed — so every `Zipf::new` with the same
/// parameters produces identical bits, and building it once per process
/// is invisible to results. It is very visible to setup cost: the ETC
/// workload's Zipf(100 000, 0.99) is 100 000 `fast_pow` calls (~3 ms),
/// rebuilt per service instance per run before memoization; a sharded
/// fleet builds the identical table once instead of once per shard, and
/// repeated trials reuse it outright. Shared `Arc`s also deduplicate the
/// ~800 KiB table across instances. The memo never evicts: the workspace
/// constructs a handful of distinct `(n, s)` pairs per process.
fn zipf_cache() -> &'static Mutex<ZipfCache> {
    static CACHE: OnceLock<Mutex<ZipfCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Memoized Zipf prefix tables: `(n, s bits)` → shared CDF.
type ZipfCache = HashMap<(usize, u64), Arc<[f64]>>;

/// First (hottest) search tier, in ranks.
const ZIPF_TIER1: usize = 32;

/// Second search tier, in ranks.
const ZIPF_TIER2: usize = 1024;

impl Zipf {
    /// Zipf over `n` ranks with exponent `s` (s = 0 is uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative, got {s}");
        let mut cache = zipf_cache().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let cdf = cache.entry((n, s.to_bits())).or_insert_with(|| Zipf::build_cdf(n, s)).clone();
        Zipf { cdf }
    }

    /// Builds the normalized prefix table — the summation order is part
    /// of the determinism contract (see [`zipf_cache`]).
    ///
    /// The table is collected straight into its `Arc` (an exact-length
    /// iterator allocates once) rather than through a `Vec`: freeing an
    /// 800 KB temporary would hand an mmapped block back to glibc, which
    /// then raises its mmap and trim thresholds for the whole process,
    /// so every thread arena could keep up to 1.6 MB of freed memory and
    /// peak RSS would depend on which threads did the work.
    fn build_cdf(n: usize, s: f64) -> Arc<[f64]> {
        let mut acc = 0.0;
        let mut cdf: Arc<[f64]> = (1..=n)
            .map(|k| {
                acc += 1.0 / fast_pow(k as f64, s);
                acc
            })
            .collect();
        let total = acc;
        for v in Arc::get_mut(&mut cdf).expect("a fresh table is unshared") {
            *v /= total;
        }
        cdf
    }

    /// Draws a rank in `[0, n)` (0-based; rank 0 is the most popular).
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        self.rank_from_unit(rng.next_f64())
    }

    /// The inverse-CDF transform of one raw `[0, 1)` uniform (as drawn
    /// by [`SimRng::next_f64`]) into a rank. Pure — a caller may keep
    /// the uniform and resolve the rank only when something reads it
    /// (the ETC workload's lazily keyed descriptors).
    #[inline]
    pub fn rank_from_unit(&self, u: f64) -> usize {
        let n = self.cdf.len();
        // `partition_point(p < u)` is the first index with cdf >= u —
        // exactly what inverting a strictly increasing CDF needs. A
        // search confined to `..t` agrees with the global one whenever
        // `cdf[t - 1] >= u`.
        let lower = if ZIPF_TIER1 <= n && self.cdf[ZIPF_TIER1 - 1] >= u {
            self.cdf[..ZIPF_TIER1].partition_point(|p| *p < u)
        } else if ZIPF_TIER2 <= n && self.cdf[ZIPF_TIER2 - 1] >= u {
            self.cdf[..ZIPF_TIER2].partition_point(|p| *p < u)
        } else {
            self.cdf.partition_point(|p| *p < u)
        };
        lower.min(n - 1)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is empty (it never is; kept for API
    /// symmetry with collections).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

impl Sampler for Zipf {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_rank(rng) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(s: &impl Sampler, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| s.sample(&mut rng)).sum::<f64>() / n as f64
    }

    fn var_of(s: &impl Sampler, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| s.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64
    }

    #[test]
    fn exponential_moments() {
        let e = Exponential::with_rate(0.1); // mean 10
        let m = mean_of(&e, 200_000, 1);
        assert!((m - 10.0).abs() < 0.15, "mean {m}");
        let v = var_of(&e, 200_000, 2);
        assert!((v - 100.0).abs() < 5.0, "variance {v}");
        assert_eq!(Exponential::with_mean(10.0).mean(), 10.0);
    }

    #[test]
    fn superposition_matches_the_pooled_rate() {
        // k independent rate-λ processes merge into one rate-kλ process:
        // the pooled gap distribution equals Exponential::with_rate(kλ)
        // exactly, and empirically the min-of-k gap matches its mean.
        let base = Exponential::with_rate(0.25); // mean 4
        let pooled = base.superposed(8);
        assert_eq!(pooled, Exponential::with_rate(8.0 * 0.25));
        assert_eq!(base.superposed(1), base, "one member is the identity");
        let m = mean_of(&pooled, 200_000, 11);
        assert!((m - 0.5).abs() < 0.01, "pooled mean {m}");
        // Cross-check against a literal superposition: the mean gap of
        // min-of-8 independent exponentials is mean/8.
        let mut rng = SimRng::seed_from_u64(12);
        let n = 50_000;
        let literal: f64 =
            (0..n).map(|_| (0..8).map(|_| base.sample(&mut rng)).fold(f64::INFINITY, f64::min)).sum::<f64>()
                / n as f64;
        assert!((literal - 0.5).abs() < 0.02, "literal superposition mean {literal}");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn superposition_rejects_zero_members() {
        let _ = Exponential::with_mean(1.0).superposed(0);
    }

    #[test]
    fn exponential_is_nonnegative() {
        let e = Exponential::with_mean(1.0);
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(e.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn normal_moments() {
        let n = Normal::new(5.0, 2.0);
        let m = mean_of(&n, 200_000, 4);
        assert!((m - 5.0).abs() < 0.05, "mean {m}");
        let v = var_of(&n, 200_000, 5);
        assert!((v - 4.0).abs() < 0.15, "variance {v}");
    }

    #[test]
    fn lognormal_with_mean_hits_linear_mean() {
        let ln = LogNormal::with_mean(3.0, 0.5);
        let m = mean_of(&ln, 400_000, 6);
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..1_000 {
            assert!(ln.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "bad lognormal mean/sigma")]
    fn lognormal_with_mean_rejects_a_non_finite_sigma() {
        let _ = LogNormal::with_mean(1.0, f64::INFINITY);
    }

    #[test]
    fn lognormal_consume_leaves_the_stream_where_sample_does() {
        let ln = LogNormal::with_mean(1.0, 0.7);
        for seed in 0..64 {
            let mut sampled = SimRng::seed_from_u64(seed);
            let mut consumed = sampled.clone();
            for _ in 0..3 {
                ln.sample(&mut sampled);
                ln.consume(&mut consumed);
            }
            assert_eq!(sampled.next_u64(), consumed.next_u64(), "seed {seed}");
        }
    }

    #[test]
    fn usable_sigma_is_finite_and_non_negative() {
        assert!(usable_sigma(0.0) && usable_sigma(1.8));
        for bad in [-0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!usable_sigma(bad), "{bad}");
        }
    }

    #[test]
    fn gpd_shape_zero_degenerates_to_exponential() {
        let g = GeneralizedPareto::new(0.0, 5.0, 0.0);
        let m = mean_of(&g, 200_000, 10);
        assert!((m - 5.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn gpd_etc_value_sizes_are_plausible() {
        // ETC value sizes: GP(0, 214.48, 0.348); mean = sigma/(1-k) ~ 329.
        let g = GeneralizedPareto::new(0.0, 214.48, 0.348);
        let m = mean_of(&g, 400_000, 11);
        assert!((m - 329.0).abs() < 25.0, "mean {m}");
        let mut rng = SimRng::seed_from_u64(12);
        for _ in 0..10_000 {
            assert!(g.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn gev_etc_key_sizes_are_plausible() {
        // ETC key sizes: GEV(30.7984, 8.20449, 0.078688); median = mu + sigma*((ln2)^-k - 1)/k.
        let g = Gev::new(30.7984, 8.20449, 0.078688);
        let mut rng = SimRng::seed_from_u64(13);
        let mut xs: Vec<f64> = (0..100_001).map(|_| g.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[50_000];
        let k = 0.078688f64;
        let expected = 30.7984 + 8.20449 * ((std::f64::consts::LN_2.powf(-k)) - 1.0) / k;
        assert!((med - expected).abs() < 0.5, "median {med} vs expected {expected}");
    }

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SimRng::seed_from_u64(14);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample_rank(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[500]);
        assert_eq!(z.len(), 1000);
        assert!(!z.is_empty());
    }

    #[test]
    fn zipf_tiered_matches_plain_binary_search() {
        // The tiered search is a pure speed change: every draw must
        // produce the exact rank a binary search over the whole prefix
        // table produces, for the same RNG stream. Sizes straddle both
        // tier boundaries.
        for &(n, s) in &[
            (1usize, 0.7),
            (2, 0.99),
            (31, 0.5),
            (32, 0.5),
            (33, 0.5),
            (10, 0.0),
            (1000, 0.99),
            (1024, 0.99),
            (1025, 0.99),
            (4096, 1.2),
        ] {
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0;
            for k in 1..=n {
                acc += 1.0 / fast_pow(k as f64, s);
                cdf.push(acc);
            }
            for v in &mut cdf {
                *v /= acc;
            }
            let z = Zipf::new(n, s);
            let mut rng = SimRng::seed_from_u64(42);
            let mut reference_rng = SimRng::seed_from_u64(42);
            for _ in 0..2_000 {
                let got = z.sample_rank(&mut rng);
                let u = reference_rng.next_f64();
                assert_eq!(z.rank_from_unit(u), got, "n={n} s={s} u={u}");
                let expect = match cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
                    Ok(i) => i,
                    Err(i) => i.min(n - 1),
                };
                assert_eq!(got, expect, "n={n} s={s} u={u}");
            }
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = SimRng::seed_from_u64(15);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample_rank(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket {c}");
        }
    }

    #[test]
    fn sample_us_clamps_negatives() {
        let n = Normal::new(-100.0, 0.1);
        let mut rng = SimRng::seed_from_u64(19);
        assert_eq!(n.sample_us(&mut rng), SimDuration::ZERO);
        let d = Normal::new(2.5, 0.0);
        assert_eq!(d.sample_us(&mut rng).as_ns(), 2_500);
    }
}
