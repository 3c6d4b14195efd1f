//! Stream-position and bulk-generation contracts behind `tpv_math`.
//!
//! The PR that introduced `tpv_math` swapped every hot-path sampler from
//! libm onto pinned polynomial kernels and added bulk uniform generation
//! plus batched gap pre-sampling. Both changes are only safe if they are
//! *invisible to the RNG stream*: a sampler must consume exactly as many
//! draws as before, and a bulk fill must produce exactly the bits the
//! scalar path would. These tests pin those two contracts so a future
//! "optimization" cannot silently shift every downstream stream.
//!
//! The same holds for the block normal path: the unit-domain
//! `box_muller` kernel, `Normal::fill_standard` and the HDSearch dataset
//! and LSH index built on them must reproduce, bit for bit, what the
//! scalar Box–Muller expression and the scalar build produce. Run with
//! `RUSTFLAGS="-C target-cpu=native"` this file also checks that packing
//! the block loop into wide vector lanes keeps every lane's bits.

use std::collections::HashMap;
use tpv::loadgen::{ArrivalKind, ArrivalProcess, GapBuffer};
use tpv::math::box_muller;
use tpv::services::hdsearch::{clustered_dataset, LshIndex, Vector};
use tpv::sim::dist::{Exponential, GeneralizedPareto, Gev, LogNormal, Normal, Sampler, Zipf};
use tpv::sim::{SimDuration, SimRng};

/// Counts the `next_u64` draws `f` consumed from `rng`'s stream.
///
/// Works by probing: advance a pristine clone k draws and check whether
/// its next few outputs match the used generator's. Four consecutive
/// equal xoshiro256++ outputs make a state collision astronomically
/// unlikely, so the first matching k is the draw count.
fn draws_consumed(pristine: &SimRng, used: &SimRng) -> usize {
    for k in 0..=8 {
        let mut probe = pristine.clone();
        for _ in 0..k {
            probe.next_u64();
        }
        let mut b = used.clone();
        if (0..4).all(|_| probe.next_u64() == b.next_u64()) {
            return k;
        }
    }
    panic!("sampler consumed more than 8 draws");
}

fn assert_draws<S: Sampler>(dist: &S, expected: usize, what: &str) {
    for seed in [1u64, 2024, 77] {
        let pristine = SimRng::seed_from_u64(seed);
        let mut rng = pristine.clone();
        dist.sample(&mut rng);
        let got = draws_consumed(&pristine, &rng);
        assert_eq!(got, expected, "{what} consumed {got} draws, contract says {expected}");
    }
}

/// Every sampler's draws-per-sample is part of the determinism contract:
/// Exponential/GPD/GEV/Zipf = 1, Normal and LogNormal = 2 (Box–Muller
/// pair, second variate discarded). The tpv_math swap must not have
/// changed any of them — a different count would shift every later draw
/// on the stream.
#[test]
fn samplers_consume_the_pinned_number_of_draws() {
    assert_draws(&Exponential::with_mean(10.0), 1, "Exponential");
    assert_draws(&Normal::new(5.0, 2.0), 2, "Normal (Box-Muller pair)");
    assert_draws(&LogNormal::with_mean(100.0, 0.5), 2, "LogNormal (Box-Muller pair)");
    assert_draws(&GeneralizedPareto::new(0.0, 1.0, 0.2), 1, "GeneralizedPareto");
    assert_draws(&GeneralizedPareto::new(0.0, 1.0, 0.0), 1, "GeneralizedPareto (shape 0)");
    assert_draws(&Gev::new(0.0, 1.0, 0.3), 1, "Gev");
    assert_draws(&Gev::new(0.0, 1.0, 0.0), 1, "Gev (Gumbel)");
    assert_draws(&Zipf::new(1000, 0.99), 1, "Zipf");
}

/// `GeneralizedPareto::from_unit` is the transform `sample` applies: fed
/// the uniform `sample` would draw, it returns the same bits, and
/// `sample` still consumes exactly one draw. The KV store's on-read
/// preload relies on this to size values it never sampled.
#[test]
fn gpd_from_unit_is_bit_identical_to_sample() {
    for dist in [
        GeneralizedPareto::new(0.0, 214.476, 0.348238),
        GeneralizedPareto::new(3.0, 1.0, -0.2),
        GeneralizedPareto::new(0.0, 5.0, 0.0),
    ] {
        assert_draws(&dist, 1, "GeneralizedPareto");
        let mut sampled = SimRng::seed_from_u64(31);
        let mut units = sampled.clone();
        for i in 0..10_000 {
            let a = dist.sample(&mut sampled);
            let b = dist.from_unit(units.next_f64());
            assert_eq!(a.to_bits(), b.to_bits(), "{dist:?}, draw {i}");
        }
    }
}

/// Arrival gap draws follow the same contract, expressed through
/// `uniforms_per_gap` (which the batching layer trusts for stride math).
#[test]
fn arrival_gap_strides_match_actual_consumption() {
    let gap = SimDuration::from_us(50);
    for (kind, what) in [
        (ArrivalKind::Exponential, "Exponential arrivals"),
        (ArrivalKind::Deterministic, "Deterministic arrivals"),
        (ArrivalKind::LogNormal(0.7), "LogNormal arrivals"),
    ] {
        let process = ArrivalProcess::new(kind, gap);
        let pristine = SimRng::seed_from_u64(42);
        let mut rng = pristine.clone();
        process.next_gap(&mut rng);
        let got = draws_consumed(&pristine, &rng);
        assert_eq!(got, process.uniforms_per_gap(), "{what}: stride disagrees with consumption");
    }
}

/// Bulk uniform generation is a pure loop-shape change: `fill_f64` must
/// produce, bit for bit, the values `next_f64` would produce called
/// sequentially, leaving the generator at the identical stream position.
#[test]
fn bulk_fill_is_bit_identical_to_sequential_draws() {
    for seed in [0u64, 7, 2024, u64::MAX] {
        for len in [0usize, 1, 2, 63, 64, 65, 1024] {
            let mut bulk_rng = SimRng::seed_from_u64(seed);
            let mut scalar_rng = SimRng::seed_from_u64(seed);
            let mut bulk = vec![0.0f64; len];
            bulk_rng.fill_f64(&mut bulk);
            let scalar: Vec<f64> = (0..len).map(|_| scalar_rng.next_f64()).collect();
            for (i, (a, b)) in bulk.iter().zip(&scalar).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} len {len} slot {i}");
            }
            assert_eq!(
                bulk_rng.next_u64(),
                scalar_rng.next_u64(),
                "stream positions diverged after fill (seed {seed}, len {len})"
            );
        }
    }
}

/// The batched gap path (`GapBuffer`) pre-draws uniforms in blocks but
/// must emit the exact gap sequence the scalar `next_gap` path emits
/// from the same stream — including when the process is swapped
/// mid-stream at a phase boundary and the unconsumed tail is
/// re-transformed.
#[test]
fn gap_buffer_reproduces_the_scalar_gap_sequence() {
    let p1 = ArrivalProcess::new(ArrivalKind::LogNormal(0.6), SimDuration::from_us(40));
    let p2 = ArrivalProcess::new(ArrivalKind::LogNormal(0.6), SimDuration::from_us(10));
    for switch_at in [0usize, 5, 64, 100] {
        let mut buf_rng = SimRng::seed_from_u64(9000 + switch_at as u64);
        let mut scalar_rng = buf_rng.clone();
        let mut buf = GapBuffer::new();
        let mut process = p1;
        for i in 0..200 {
            if i == switch_at {
                process = p2;
                buf.reconfigure(&process);
            }
            let batched = buf.next_gap(&process, &mut buf_rng);
            let scalar = process.next_gap(&mut scalar_rng);
            assert_eq!(batched, scalar, "switch_at {switch_at}, gap {i}");
        }
    }
}

/// The Box–Muller expression through the general `fast_ln` and
/// `fast_sincos` as they stood before the unit-domain kernel, with
/// their guards, the mantissa bracket as a branch, `round` and the
/// quadrant `match`: the bits every normal variate must keep.
mod reference {
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
    #[allow(clippy::excessive_precision)]
    const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
    #[allow(clippy::excessive_precision)]
    const PIO2_HI: f64 = 1.570_796_326_734_125_614_17;
    #[allow(clippy::excessive_precision)]
    const PIO2_LO: f64 = 6.077_100_506_506_192_249_32e-11;

    pub fn ln(x: f64) -> f64 {
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
            bits = (x * 18_014_398_509_481_984.0).to_bits();
            e -= 54;
        }
        e += ((bits >> 52) as i64) - 1023;
        let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
        if m >= std::f64::consts::SQRT_2 {
            m *= 0.5;
            e += 1;
        }
        let t = (m - 1.0) / (m + 1.0);
        let t2 = t * t;
        let t4 = t2 * t2;
        let t8 = t4 * t4;
        let q01 = 1.0 + t2 * (1.0 / 3.0);
        let q23 = 1.0 / 5.0 + t2 * (1.0 / 7.0);
        let q45 = 1.0 / 9.0 + t2 * (1.0 / 11.0);
        let q67 = 1.0 / 13.0 + t2 * (1.0 / 15.0);
        let s = (q01 + t4 * q23) + t8 * (q45 + t4 * q67);
        let ef = e as f64;
        (2.0 * t * s + ef * LN2_LO) + ef * LN2_HI
    }

    pub fn sincos(x: f64) -> (f64, f64) {
        if !x.is_finite() {
            return (f64::NAN, f64::NAN);
        }
        let nf = (x * std::f64::consts::FRAC_2_PI).round();
        let r = (x - nf * PIO2_HI) - nf * PIO2_LO;
        let r2 = r * r;
        let r4 = r2 * r2;
        let r8 = r4 * r4;
        let s01 = 1.0 + r2 * (-1.0 / 6.0);
        let s23 = 1.0 / 120.0 + r2 * (-1.0 / 5_040.0);
        let s45 = 1.0 / 362_880.0 + r2 * (-1.0 / 39_916_800.0);
        let s6 = 1.0 / 6_227_020_800.0;
        let s = r * ((s01 + r4 * s23) + r8 * (s45 + r4 * s6));
        let c01 = 1.0 + r2 * (-1.0 / 2.0);
        let c23 = 1.0 / 24.0 + r2 * (-1.0 / 720.0);
        let c45 = 1.0 / 40_320.0 + r2 * (-1.0 / 3_628_800.0);
        let c67 = 1.0 / 479_001_600.0 + r2 * (-1.0 / 87_178_291_200.0);
        let c = (c01 + r4 * c23) + r8 * (c45 + r4 * c67);
        match (nf as i64) & 3 {
            0 => (s, c),
            1 => (c, -s),
            2 => (-s, -c),
            _ => (-c, s),
        }
    }

    pub fn box_muller(a: f64, b: f64) -> f64 {
        (-2.0 * ln(1.0 - a)).sqrt() * sincos(std::f64::consts::TAU * b).1
    }
}

/// `f64`s within `ulps` representable steps of `x`, both sides.
fn around(x: f64, ulps: i64) -> impl Iterator<Item = f64> {
    (-ulps..=ulps).map(move |i| f64::from_bits((x.to_bits() as i64 + i) as u64))
}

fn assert_box_muller_bits(a: f64, b: f64) {
    let want = reference::box_muller(a, b);
    assert_eq!(box_muller(a, b).to_bits(), want.to_bits(), "box_muller({a:e}, {b:e})");
    assert_eq!(
        Normal::standard_from_units(a, b).to_bits(),
        want.to_bits(),
        "standard_from_units({a:e}, {b:e})"
    );
}

/// The unit-domain kernel keeps the bits of the guarded expression at
/// every seam its branch-free rewrite touches: `b` within 16 ulps either
/// side of each quadrant boundary (`4b ≈ k + 0.5`, where `round` turns
/// into truncate-plus-one), `a` at both ends of `[0, 1)` and around every
/// `√2` mantissa seam of `1 − a` (the select that replaced the bracket),
/// plus a million random pairs.
#[test]
fn box_muller_matches_the_scalar_expression_bit_for_bit() {
    let ends = [0.0, 1.0 - f64::EPSILON / 2.0, 0.5, f64::EPSILON / 2.0, 1e-300];
    let mut seam_a: Vec<f64> = ends.to_vec();
    for k in 1..=8 {
        let seam = std::f64::consts::SQRT_2 / f64::from(1u32 << k);
        seam_a.extend(around(seam, 16).map(|x| 1.0 - x));
    }
    for k in 0..4 {
        let seam = (f64::from(k) + 0.5) / 4.0;
        let quadrants: std::collections::BTreeSet<i64> = around(seam, 16)
            .map(|b| (std::f64::consts::TAU * b * std::f64::consts::FRAC_2_PI).round() as i64)
            .collect();
        assert_eq!(quadrants.len(), 2, "the window around b = {seam} does not straddle a quadrant seam");
        for b in around(seam, 16) {
            for &a in &seam_a {
                assert_box_muller_bits(a, b);
            }
        }
    }
    for &a in &seam_a {
        for b in [0.0, 0.25, 0.5, 0.75, 1.0 - f64::EPSILON / 2.0, f64::EPSILON / 2.0] {
            assert_box_muller_bits(a, b);
        }
    }
    let mut rng = SimRng::seed_from_u64(0xB0C5);
    for _ in 0..1_000_000 {
        let (a, b) = (rng.next_f64(), rng.next_f64());
        assert_box_muller_bits(a, b);
    }
}

/// The general kernels share their polynomial cores with `box_muller`;
/// sharing them must not have moved their own bits either.
#[test]
fn general_ln_and_sincos_keep_their_bits() {
    let mut rng = SimRng::seed_from_u64(0x1D);
    let specials = [0.0, -0.0, 1.0, f64::MIN_POSITIVE, f64::MIN_POSITIVE / 3.0, 1e300, f64::INFINITY, -1.0];
    for x in specials.into_iter().chain((0..100_000).map(|_| (rng.next_f64() - 0.3) * 50.0)) {
        let (ln, want_ln) = (tpv::math::fast_ln(x), reference::ln(x));
        assert!(ln.to_bits() == want_ln.to_bits() || (ln.is_nan() && want_ln.is_nan()), "ln({x:e})");
        let (s, c) = tpv::math::fast_sincos(x);
        let (ws, wc) = reference::sincos(x);
        assert_eq!((s.to_bits(), c.to_bits()), (ws.to_bits(), wc.to_bits()), "sincos({x:e})");
    }
}

/// `fill_standard` is the scalar `standard_sample` loop in blocks: the
/// same variates and the same stream position afterwards, across block
/// boundaries (64 variates, 128 uniforms).
#[test]
fn fill_standard_is_bit_identical_to_standard_sample() {
    for seed in [0u64, 7, 2024] {
        for len in [0usize, 1, 63, 64, 65, 200] {
            let pristine = SimRng::seed_from_u64(seed);
            let mut block_rng = pristine.clone();
            let mut scalar_rng = pristine.clone();
            let mut block = vec![0.0; len];
            Normal::fill_standard(&mut block_rng, &mut block);
            for (i, z) in block.iter().enumerate() {
                let want = Normal::standard_sample(&mut scalar_rng);
                assert_eq!(z.to_bits(), want.to_bits(), "seed {seed} len {len} variate {i}");
            }
            let mut advanced = pristine.clone();
            for _ in 0..2 * len {
                advanced.next_u64();
            }
            for probe in [&mut block_rng, &mut scalar_rng] {
                assert_eq!(
                    probe.next_u64(),
                    advanced.clone().next_u64(),
                    "seed {seed} len {len}: not 2·len draws"
                );
            }
        }
    }
}

/// The scalar build the block paths replaced: every normal drawn by
/// `standard_sample`, and each table's buckets filled while hashing.
mod scalar_build {
    use super::*;

    pub fn dataset(n: usize, dim: usize, clusters: usize, rng: &mut SimRng) -> Vec<Vector> {
        let centers: Vec<Vector> = (0..clusters)
            .map(|_| (0..dim).map(|_| Normal::standard_sample(rng) as f32 * 4.0).collect())
            .collect();
        (0..n)
            .map(|i| {
                centers[i % clusters].iter().map(|&x| x + Normal::standard_sample(rng) as f32 * 0.6).collect()
            })
            .collect()
    }

    fn unit_vector(dim: usize, rng: &mut SimRng) -> Vector {
        let mut v: Vector = (0..dim).map(|_| Normal::standard_sample(rng) as f32).collect();
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
        v.iter_mut().for_each(|x| *x /= norm);
        v
    }

    fn hash(planes: &[Vector], v: &[f32]) -> u64 {
        planes.iter().enumerate().fold(0, |sig, (p, plane)| {
            let dot: f32 = plane.iter().zip(v).map(|(a, b)| a * b).sum();
            if dot >= 0.0 {
                sig | 1 << p
            } else {
                sig
            }
        })
    }

    /// Per table: its hyperplanes and its buckets.
    pub type Tables = Vec<(Vec<Vector>, HashMap<u64, Vec<u32>>)>;

    pub fn index(data: &[Vector], tables: usize, planes: usize, rng: &mut SimRng) -> Tables {
        (0..tables)
            .map(|_| {
                let hyperplanes: Vec<Vector> = (0..planes).map(|_| unit_vector(data[0].len(), rng)).collect();
                let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
                for (id, v) in data.iter().enumerate() {
                    buckets.entry(hash(&hyperplanes, v)).or_default().push(id as u32);
                }
                (hyperplanes, buckets)
            })
            .collect()
    }

    pub fn candidates(tables: &Tables, q: &[f32]) -> Vec<u32> {
        let mut ids: Vec<u32> = tables
            .iter()
            .filter_map(|(planes, buckets)| buckets.get(&hash(planes, q)))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// The HDSearch dataset and LSH index, drawn through `fill_standard`
/// and built hash-then-bucket, equal the scalar build: every component
/// bit, every query's candidates and shard counts, and the stream
/// position the build leaves behind.
#[test]
fn hdsearch_block_build_matches_the_scalar_build() {
    for (seed, n, dim, clusters, planes) in [(3u64, 700, 64, 8, 8), (11, 333, 37, 5, 13), (29, 65, 65, 1, 3)]
    {
        let mut block_rng = SimRng::seed_from_u64(seed);
        let mut scalar_rng = block_rng.clone();
        let data = clustered_dataset(n, dim, clusters, &mut block_rng);
        let expected = scalar_build::dataset(n, dim, clusters, &mut scalar_rng);
        assert_eq!(data.len(), expected.len());
        for (id, (v, w)) in data.iter().zip(&expected).enumerate() {
            let bits = |x: &Vector| x.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(v), bits(w), "seed {seed}: vector {id}");
        }
        let index = LshIndex::build(data, 4, planes, 3, &mut block_rng);
        let reference = scalar_build::index(&expected, 4, planes, &mut scalar_rng);
        assert_eq!(block_rng.next_u64(), scalar_rng.next_u64(), "seed {seed}: stream positions diverged");
        for (t, q) in expected.iter().enumerate() {
            let query: Vector =
                q.iter().map(|&x| x + Normal::standard_sample(&mut scalar_rng) as f32 * 0.3).collect();
            for probe in [q, &query] {
                let want = scalar_build::candidates(&reference, probe);
                assert_eq!(index.candidates(probe), want, "seed {seed}: query {t}");
                let mut counts = vec![0u32; 3];
                for &id in &want {
                    counts[index.shard_of(id)] += 1;
                }
                assert_eq!(index.shard_candidate_counts(probe), counts, "seed {seed}: query {t}");
            }
        }
    }
}
