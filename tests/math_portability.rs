//! Stream-position and bulk-generation contracts behind `tpv_math`.
//!
//! The PR that introduced `tpv_math` swapped every hot-path sampler from
//! libm onto pinned polynomial kernels and added bulk uniform generation
//! plus batched gap pre-sampling. Both changes are only safe if they are
//! *invisible to the RNG stream*: a sampler must consume exactly as many
//! draws as before, and a bulk fill must produce exactly the bits the
//! scalar path would. These tests pin those two contracts so a future
//! "optimization" cannot silently shift every downstream stream.

use tpv::loadgen::{ArrivalKind, ArrivalProcess, GapBuffer};
use tpv::sim::dist::{
    Deterministic, Empirical, Exponential, GeneralizedPareto, Gev, LogNormal, Normal, Pareto, Sampler,
    Uniform, Zipf,
};
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
/// Exponential/Pareto/GPD/GEV/Uniform/Zipf/Empirical = 1, Normal and
/// LogNormal = 2 (Box–Muller pair, second variate discarded),
/// Deterministic = 0. The tpv_math swap must not have changed any of
/// them — a different count would shift every later draw on the stream.
#[test]
fn samplers_consume_the_pinned_number_of_draws() {
    assert_draws(&Deterministic::new(3.0), 0, "Deterministic");
    assert_draws(&Uniform::new(2.0, 5.0), 1, "Uniform");
    assert_draws(&Exponential::with_mean(10.0), 1, "Exponential");
    assert_draws(&Normal::new(5.0, 2.0), 2, "Normal (Box-Muller pair)");
    assert_draws(&LogNormal::with_mean(100.0, 0.5), 2, "LogNormal (Box-Muller pair)");
    assert_draws(&Pareto::new(1.0, 1.5), 1, "Pareto");
    assert_draws(&GeneralizedPareto::new(0.0, 1.0, 0.2), 1, "GeneralizedPareto");
    assert_draws(&GeneralizedPareto::new(0.0, 1.0, 0.0), 1, "GeneralizedPareto (shape 0)");
    assert_draws(&Gev::new(0.0, 1.0, 0.3), 1, "Gev");
    assert_draws(&Gev::new(0.0, 1.0, 0.0), 1, "Gev (Gumbel)");
    assert_draws(&Zipf::new(1000, 0.99), 1, "Zipf");
    assert_draws(&Empirical::new(vec![1.0, 2.0, 3.0]), 1, "Empirical");
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
