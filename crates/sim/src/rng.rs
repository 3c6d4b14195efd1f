//! Deterministic pseudo-random number generation.
//!
//! The simulator needs bit-for-bit reproducible randomness across platforms
//! and across dependency upgrades, because every experiment "run" is defined
//! by its seed and every paper claim is asserted against simulated output.
//! We therefore implement the generator here rather than relying on an
//! external crate whose stream may change between versions:
//!
//! * [`SimRng`] — xoshiro256++ (Blackman & Vigna, 2019), seeded through
//!   SplitMix64 as its authors recommend.
//! * [`SimRng::split`] — derives an independent child stream, so each
//!   simulation component (arrival process, service times, network jitter,
//!   per-run environment drift, …) owns a private generator and adding a
//!   consumer never perturbs another component's stream.

/// The SplitMix64 generator, used for seeding and stream derivation.
///
/// # Example
///
/// ```
/// use tpv_sim::rng::SplitMix64;
/// let mut sm = SplitMix64::new(0);
/// // First output of SplitMix64(0), a published reference value.
/// assert_eq!(sm.next_u64(), 0xe220a8397b1dcdaf);
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the simulation's random number generator.
///
/// All stochastic model components draw from a `SimRng`. Streams are
/// reproducible: the same seed yields the same sequence on every platform.
///
/// # Example
///
/// ```
/// use tpv_sim::SimRng;
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seeds the generator from a single 64-bit value via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state is invalid (the only fixed point). SplitMix64
        // cannot produce four zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e3779b97f4a7c15;
        }
        SimRng { s }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Standard 53-bit mantissa technique.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills `out` with uniform `[0, 1)` draws, bit-identical to calling
    /// [`next_f64`](Self::next_f64) `out.len()` times in order — bulk
    /// generation moves no stream position and changes no value, it only
    /// gives the compiler a contiguous loop to optimize. Pinned by a
    /// property test in `tests/math_portability.rs`.
    #[inline]
    pub fn fill_f64(&mut self, out: &mut [f64]) {
        for slot in out {
            *slot = self.next_f64();
        }
    }

    /// A uniform integer in `[0, bound)` using Lemire's rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0) is meaningless");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let threshold = bound.wrapping_neg() % bound;
            while l < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn next_index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Derives an independent child generator.
    ///
    /// The child is seeded from the parent's output through SplitMix64 with
    /// a distinct mixing constant, so parent and child streams are
    /// statistically independent and the parent advances by exactly one
    /// draw regardless of how much the child is used.
    pub fn split(&mut self) -> SimRng {
        let seed = self.next_u64() ^ 0x6a09e667f3bcc909; // sqrt(2) fractional bits
        SimRng::seed_from_u64(seed)
    }

    /// Derives a child generator for a named component.
    ///
    /// Unlike [`split`](Self::split), forking does not advance the
    /// parent, so sibling forks taken at the same stream position receive
    /// the same streams whatever order they are created in. The child is
    /// keyed by the label and the parent's *current* state (`s[0]` and
    /// `s[2]`, which every draw changes): a fork taken after the parent
    /// has drawn differs from one taken before.
    pub fn fork(&self, label: u64) -> SimRng {
        let mut sm = SplitMix64::new(self.s[0] ^ self.s[2].rotate_left(17) ^ label);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        SimRng { s }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public domain
        // implementation by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_deterministic_and_nondegenerate() {
        let mut r = SimRng::seed_from_u64(42);
        let seq: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        let mut r2 = SimRng::seed_from_u64(42);
        let seq2: Vec<u64> = (0..8).map(|_| r2.next_u64()).collect();
        assert_eq!(seq, seq2);
        // All distinct in a short window (collision probability ~0).
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seq.len());
    }

    #[test]
    fn f64_is_in_unit_interval_and_roughly_uniform() {
        let mut r = SimRng::seed_from_u64(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn bounded_draws_are_unbiased_enough() {
        let mut r = SimRng::seed_from_u64(11);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.next_below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "next_below(0)")]
    fn zero_bound_panics() {
        SimRng::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn split_streams_differ_and_parent_advances_once() {
        let mut a = SimRng::seed_from_u64(5);
        let mut b = SimRng::seed_from_u64(5);
        let mut child = a.split();
        b.next_u64(); // consume the draw split() made
        assert_eq!(a.next_u64(), b.next_u64(), "parent advanced by one draw");
        // Child stream differs from parent stream.
        let mut parent_fresh = SimRng::seed_from_u64(5);
        assert_ne!(child.next_u64(), parent_fresh.next_u64());
    }

    #[test]
    fn fork_is_order_independent() {
        let r = SimRng::seed_from_u64(77);
        let mut c1 = r.fork(1);
        let mut c2 = r.fork(2);
        let r2 = SimRng::seed_from_u64(77);
        let mut c2b = r2.fork(2);
        let mut c1b = r2.fork(1);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_eq!(c2.next_u64(), c2b.next_u64());
    }

    #[test]
    fn fork_reads_the_live_state_and_leaves_the_parent_alone() {
        let mut parent = SimRng::seed_from_u64(77);
        let untouched = parent.clone();
        let mut before = parent.fork(1);
        assert_eq!(parent.next_u64(), untouched.clone().next_u64(), "fork advanced the parent");
        let mut after = parent.fork(1);
        assert_ne!(before.next_u64(), after.next_u64(), "fork ignored the parent's draws");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(100);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 50 elements left them sorted");
    }

    #[test]
    fn bool_probability_is_respected() {
        let mut r = SimRng::seed_from_u64(8);
        let hits = (0..100_000).filter(|_| r.next_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
        assert!(!r.next_bool(0.0));
        assert!(r.next_bool(1.0));
    }
}
