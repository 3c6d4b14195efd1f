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
//! * [`SimRng::advance`] and [`IndexedRng`] — exact jump-ahead and random
//!   access into a stream.
//!
//! # Jumping ahead
//!
//! xoshiro256's state update `T` is linear over GF(2), so the state
//! before draw `k` is `p_k(T)·s₀` with `p_k = xᵏ mod P`, where `P` is the
//! degree-256 characteristic polynomial of `T`, a constant here, which
//! the tests pin against the `JUMP` and `LONG_JUMP` constants of the
//! reference `jump()` (`x^(2¹²⁸)` and `x^(2¹⁹²)` mod `P`). Two tables make
//! a jump cheap:
//!
//! * a process-wide table of `x^(64·d) mod P` for `d < 2048` (64 KiB,
//!   built once in ~0.6 ms), so `xᵏ mod P` for `k < 2¹⁷` is one lookup
//!   and fewer than 64 shifts; a larger `k` squares its way up from
//!   there (one product mod `P`, ~2.5 µs, per doubling);
//! * per [`IndexedRng`], the XORs of each group of four states
//!   `T^i·s₀` (32 KiB, built on the first read in ~4 µs), so applying a
//!   polynomial to `s₀` is 64 four-bit lookups and XORs. The table
//!   holds the states `T^i·s₀` for `i < 256` themselves, so the first
//!   256 draws are one lookup each.
//!
//! A read at `k < 2¹⁷` thus costs ~0.1 µs whatever `k` is (64 lookups,
//! then fewer than 64 state steps from `T^(k − k mod 64)·s₀`), and
//! [`SimRng::advance`], which has no per-stream table, applies the
//! polynomial with the reference's 256 steps instead (~0.2 µs).

use std::sync::OnceLock;

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
        let result = output(&self.s);
        step(&mut self.s);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Moves the stream `n` draws ahead in O(log n), exactly as `n` calls
    /// of [`next_u64`](Self::next_u64) would (see the module docs).
    ///
    /// # Example
    ///
    /// ```
    /// use tpv_sim::SimRng;
    /// let mut stepped = SimRng::seed_from_u64(3);
    /// for _ in 0..1_000 {
    ///     stepped.next_u64();
    /// }
    /// let mut jumped = SimRng::seed_from_u64(3);
    /// jumped.advance(1_000);
    /// assert_eq!(jumped.next_u64(), stepped.next_u64());
    /// ```
    pub fn advance(&mut self, n: u64) {
        let poly = JumpTable::get().x_pow(n);
        let mut acc = [0u64; 4];
        for bit in 0..256 {
            if poly[bit / 64] >> (bit % 64) & 1 == 1 {
                xor_into(&mut acc, &self.s);
            }
            step(&mut self.s);
        }
        self.s = acc;
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

/// The xoshiro256++ output of a state.
#[inline(always)]
fn output(s: &[u64; 4]) -> u64 {
    s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0])
}

/// The xoshiro256 state update `T`, linear over GF(2).
#[inline(always)]
fn step(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// A 64-bit output as a uniform in `[0, 1)`: its top 53 bits as the
/// mantissa.
#[inline(always)]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[inline(always)]
fn xor_into(acc: &mut [u64; 4], v: &[u64; 4]) {
    for (a, b) in acc.iter_mut().zip(v) {
        *a ^= b;
    }
}

/// A polynomial over GF(2) of degree below 256, the coefficient of `xⁱ`
/// at bit `i % 64` of word `i / 64`.
type Poly = [u64; 4];

/// Powers `x^(64·d) mod P` in the table, `d < POWERS`: `xᵏ mod P` for
/// `k < 64 · POWERS = 2¹⁷` is a lookup and fewer than 64 shifts.
const POWERS: usize = 2048;

/// The characteristic polynomial `P` of the state update less its
/// leading `x²⁵⁶`. The tests pin it through the reference `JUMP` and
/// `LONG_JUMP`.
const P_LOW: Poly = [0x9d116f2bb0f0f001, 0x0280002bcefd1a5e, 0x04b4edcf26259f85, 0x0003c03c3f3ecb19];

/// The powers `x^(64·d) mod P` for `d < POWERS`.
struct JumpTable {
    powers: Box<[Poly]>,
}

impl JumpTable {
    /// The process-wide table, built on first use.
    fn get() -> &'static JumpTable {
        static TABLE: OnceLock<JumpTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut power = [1, 0, 0, 0];
            let powers = (0..POWERS)
                .map(|_| {
                    let this = power;
                    (0..64).for_each(|_| power = Self::times_x(power));
                    this
                })
                .collect();
            JumpTable { powers }
        })
    }

    /// `p·x mod P`.
    #[inline]
    fn times_x(p: Poly) -> Poly {
        let carry = (p[3] >> 63).wrapping_neg();
        [
            p[0] << 1 ^ (P_LOW[0] & carry),
            (p[1] << 1 | p[0] >> 63) ^ (P_LOW[1] & carry),
            (p[2] << 1 | p[1] >> 63) ^ (P_LOW[2] & carry),
            (p[3] << 1 | p[2] >> 63) ^ (P_LOW[3] & carry),
        ]
    }

    /// `a·b mod P`, Horner over the bits of `a`.
    fn times(&self, a: Poly, b: Poly) -> Poly {
        let mut acc = [0u64; 4];
        for bit in (0..256).rev() {
            acc = Self::times_x(acc);
            if a[bit / 64] >> (bit % 64) & 1 == 1 {
                xor_into(&mut acc, &b);
            }
        }
        acc
    }

    /// `xⁿ mod P`: a table lookup and fewer than 64 shifts below
    /// `64 · POWERS`, one squaring per halving of `n` above.
    #[inline]
    fn x_pow(&self, n: u64) -> Poly {
        if n >= 64 * POWERS as u64 {
            return self.x_pow_beyond(n);
        }
        let mut p = self.powers[(n / 64) as usize];
        for _ in 0..n % 64 {
            p = Self::times_x(p);
        }
        p
    }

    /// [`x_pow`](Self::x_pow) past the table: `(x^⌊n/2⌋)²·x^(n mod 2)`.
    #[inline(never)]
    fn x_pow_beyond(&self, n: u64) -> Poly {
        let half = self.x_pow(n / 2);
        let square = self.times(half, half);
        if n % 2 == 1 {
            Self::times_x(square)
        } else {
            square
        }
    }
}

/// Random access into one [`SimRng`] stream: the `k`-th draw of the
/// stream it was built from, for any `k`, without drawing the ones
/// before it. The stream itself is never advanced.
///
/// The first read builds a 32 KiB table of the stream's first 256
/// states in groups of four (see the module docs); from then on a read
/// at `k < 2¹⁷` costs ~0.1 µs.
///
/// # Example
///
/// ```
/// use tpv_sim::rng::{IndexedRng, SimRng};
/// let mut stream = SimRng::seed_from_u64(5);
/// let mut index = IndexedRng::new(stream.clone());
/// let draws: Vec<f64> = (0..100).map(|_| stream.next_f64()).collect();
/// assert_eq!(index.f64_at(99), draws[99]);
/// assert_eq!(index.f64_at(7), draws[7]);
/// ```
#[derive(Debug)]
pub struct IndexedRng {
    origin: [u64; 4],
    /// `groups[g][m]`: the XOR of the states `T^(4g + j)·origin` over
    /// the set bits `j` of `m`; built on the first read.
    groups: Option<Box<[[[u64; 4]; 16]]>>,
}

impl IndexedRng {
    /// Random access into `stream` from its current position: draw `k`
    /// is the one `stream` would give after `k` draws.
    pub fn new(stream: SimRng) -> Self {
        IndexedRng { origin: stream.s, groups: None }
    }

    /// The `k`-th 64-bit output, as [`SimRng::next_u64`] gives it.
    fn u64_at(&mut self, k: u64) -> u64 {
        let origin = self.origin;
        let groups = self.groups.get_or_insert_with(|| {
            let mut s = origin;
            (0..64)
                .map(|_| {
                    let mut group = [[0u64; 4]; 16];
                    for j in 0..4 {
                        for m in 1usize << j..2 << j {
                            group[m] = group[m - (1 << j)];
                            xor_into(&mut group[m], &s);
                        }
                        step(&mut s);
                    }
                    group
                })
                .collect()
        });
        // The table holds the first 256 states themselves, 4 to a group;
        // past them, apply x^(k − k mod 64) to the origin.
        let (mut s, steps) = if k < 256 {
            (groups[(k / 4) as usize][1 << (k % 4)], 0)
        } else {
            let poly = JumpTable::get().x_pow(k & !63);
            let mut s = [0u64; 4];
            for (&word, groups) in poly.iter().zip(groups.chunks_exact(16)) {
                for (n, group) in groups.iter().enumerate() {
                    xor_into(&mut s, &group[(word >> (4 * n) & 15) as usize]);
                }
            }
            (s, k % 64)
        };
        for _ in 0..steps {
            step(&mut s);
        }
        output(&s)
    }

    /// The `k`-th uniform, as [`SimRng::next_f64`] gives it.
    pub fn f64_at(&mut self, k: u64) -> f64 {
        unit_f64(self.u64_at(k))
    }

    /// Heap bytes held: none before the first read, the 32 KiB table
    /// after it, whatever the reads reached.
    pub fn heap_bytes(&self) -> usize {
        self.groups.as_deref().map_or(0, std::mem::size_of_val)
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
    fn jump_polynomials_match_the_reference_constants() {
        // `JUMP` and `LONG_JUMP` of Vigna's xoshiro256++ `jump()` and
        // `long_jump()`: x^(2^128) and x^(2^192) mod P, bit i the
        // coefficient of x^i.
        const JUMP: Poly = [0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c];
        const LONG_JUMP: Poly =
            [0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635];
        let table = JumpTable::get();
        let mut p = [2, 0, 0, 0]; // x
        for _ in 0..128 {
            p = table.times(p, p);
        }
        assert_eq!(p, JUMP);
        for _ in 0..64 {
            p = table.times(p, p);
        }
        assert_eq!(p, LONG_JUMP);
        assert_eq!(table.x_pow(1 << 40), {
            let mut p = table.x_pow(1 << 16);
            (0..24).for_each(|_| p = table.times(p, p));
            p
        });
    }

    #[test]
    fn random_access_matches_sequential_draws() {
        for seed in [0, 1, 7, 2024] {
            let mut stream = SimRng::seed_from_u64(seed);
            let mut index = IndexedRng::new(stream.clone());
            assert_eq!(index.heap_bytes(), 0, "seed {seed}: building drew");
            for k in 0..1 << 14 {
                assert_eq!(index.f64_at(k).to_bits(), stream.next_f64().to_bits(), "seed {seed}: draw {k}");
            }
            assert_eq!(index.heap_bytes(), 32 << 10);
        }
        // Sampled indices up to 2^20, reaching past the table of powers.
        let mut stream = SimRng::seed_from_u64(99).split();
        let mut index = IndexedRng::new(stream.clone());
        let mut picks = SimRng::seed_from_u64(100);
        for k in 0..1u64 << 20 {
            let x = stream.next_u64();
            if k % 4093 == 0 || picks.next_below(2048) == 0 {
                assert_eq!(index.u64_at(k), x, "draw {k}");
            }
        }
    }

    #[test]
    fn advance_composes_with_random_access() {
        let origin = SimRng::seed_from_u64(31);
        let mut index = IndexedRng::new(origin.clone());
        let mut picks = SimRng::seed_from_u64(32);
        let mut jumps = vec![0, 1, 63, 64, 255, 256, 131_071, 131_072, 1 << 20, (1 << 40) - 1, 1 << 40];
        jumps.extend((0..6).map(|_| picks.next_below(1 << 40)));
        for a in jumps {
            let mut jumped = origin.clone();
            jumped.advance(a);
            let mut from_a = IndexedRng::new(jumped.clone());
            for b in [0, 1, 100, 131_071 - (a % 64)] {
                assert_eq!(from_a.u64_at(b), index.u64_at(a + b), "advance({a}) then draw {b}");
            }
            assert_eq!(jumped.next_u64(), index.u64_at(a), "advance({a}) then next_u64");
        }
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
