//! A mergeable, log-bucketed latency histogram.
//!
//! The load generators record every request's end-to-end latency. Keeping
//! raw vectors of tens of millions of samples per run would dominate memory,
//! so — like mutilate, wrk2 and Lancet — we use an HDR-style histogram:
//! buckets grow geometrically so relative error is bounded (~1.6 % with the
//! default 6 sub-bucket bits) across the full nanosecond-to-minute range.
//!
//! Histograms from different agent machines [`merge`](LatencyHistogram::merge)
//! losslessly, mirroring the paper's master/agent mutilate deployment.
//! The mean and standard deviation come from integer sums of the
//! nanosecond samples beside the buckets, so every field is an integer
//! and a merge gives the same bits in any order.

use crate::SimDuration;

/// Number of linear sub-buckets per power of two (2^6 = 64 ⇒ ≤1.6 % error).
const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// A fixed-precision histogram of durations with exact count semantics.
///
/// # Example
///
/// ```
/// use tpv_sim::{LatencyHistogram, SimDuration};
///
/// let mut h = LatencyHistogram::new();
/// for us in [10u64, 20, 30, 40, 1000] {
///     h.record(SimDuration::from_us(us));
/// }
/// assert_eq!(h.count(), 5);
/// let p99 = h.percentile(99.0);
/// assert!(p99 >= SimDuration::from_us(990) && p99 <= SimDuration::from_us(1020));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    /// Σx over the samples in ns: below `total × max < 2¹²⁸`, so exact.
    sum: u128,
    /// Σx² over the samples in ns², saturating at `u128::MAX`.
    sum_sq: u128,
}

fn bucket_index(value_ns: u64) -> usize {
    // Values below SUB_BUCKETS map 1:1; above, each power of two is split
    // into SUB_BUCKETS linear slices.
    let v = value_ns;
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64; // >= SUB_BUCKET_BITS
    let exp = msb - SUB_BUCKET_BITS as u64;
    let offset = (v >> exp) - SUB_BUCKETS; // in [0, SUB_BUCKETS)
    ((exp + 1) * SUB_BUCKETS + offset) as usize
}

fn bucket_high(index: usize) -> u64 {
    // Upper inclusive bound of bucket `index` (the representative value we
    // report for percentiles, giving a conservative estimate).
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let exp = index / SUB_BUCKETS - 1;
    let offset = index % SUB_BUCKETS;
    ((SUB_BUCKETS + offset + 1) << exp) - 1
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: Vec::new(), total: 0, min: u64::MAX, max: 0, sum: 0, sum_sq: 0 }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_ns();
        let idx = bucket_index(ns);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
        self.sum += u128::from(ns);
        self.sum_sq = self.sum_sq.saturating_add(u128::from(ns) * u128::from(ns));
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact arithmetic mean of the recorded durations, rounded half up
    /// to the nanosecond (`(2·Σx + n) / 2n`, in integers).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let n = u128::from(self.total);
        let (q, r) = (self.sum / n, self.sum % n);
        // q ≤ max, and q = u64::MAX only when every sample is, so r = 0.
        SimDuration::from_ns(q as u64 + u64::from(2 * r >= n))
    }

    /// Sample standard deviation of the recorded durations (0 below two
    /// samples): one f64 division and `sqrt` of the exact integer
    /// `n·Σx² − (Σx)²` over `n(n − 1)`.
    ///
    /// That integer fits in `u128` while `count × max < 2⁶⁴` (e.g. 10⁹
    /// samples of up to 18 s). Past that bound the variance is evaluated
    /// in f64 as `(Σx² − (Σx)²/n) / (n − 1)`, clamped at 0; it rounds,
    /// and understates once Σx² saturates, but it is still a function of
    /// the merged sums alone, so it too is the same in any merge order.
    pub fn std_dev(&self) -> SimDuration {
        if self.total < 2 {
            return SimDuration::ZERO;
        }
        let n = u128::from(self.total);
        let exact = n.checked_mul(self.sum_sq).and_then(|nq| nq.checked_sub(self.sum.checked_mul(self.sum)?));
        let variance = match exact {
            Some(num) => num as f64 / (n * (n - 1)) as f64,
            None => {
                let (n, s) = (n as f64, self.sum as f64);
                ((self.sum_sq as f64 - s * s / n) / (n - 1.0)).max(0.0)
            }
        };
        SimDuration::from_us_f64(variance.sqrt() / 1_000.0)
    }

    /// Smallest recorded duration ([`SimDuration::ZERO`] when empty).
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ns(self.min)
        }
    }

    /// Largest recorded duration ([`SimDuration::ZERO`] when empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_ns(self.max)
    }

    /// The value at or below which `p` percent of samples fall.
    ///
    /// Reported as the upper bound of the containing bucket (≤1.6 % above
    /// the true quantile), clamped to the exact observed maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_ns(bucket_high(i).min(self.max).max(self.min));
            }
        }
        SimDuration::from_ns(self.max)
    }

    /// Median (50th percentile).
    pub fn median(&self) -> SimDuration {
        self.percentile(50.0)
    }

    /// Merges another histogram into this one: exact, no resampling, and
    /// the same bits in any merge order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_sane() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for ns in 0..64u64 {
            h.record(SimDuration::from_ns(ns));
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min().as_ns(), 0);
        assert_eq!(h.max().as_ns(), 63);
        assert_eq!(h.percentile(100.0).as_ns(), 63);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        let value = 123_456_789u64;
        h.record(SimDuration::from_ns(value));
        let got = h.percentile(50.0).as_ns();
        let err = (got as f64 - value as f64).abs() / value as f64;
        assert!(err <= 0.016, "relative error {err}");
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut rng = crate::SimRng::seed_from_u64(1);
        for _ in 0..50_000 {
            h.record(SimDuration::from_ns(rng.next_below(10_000_000)));
        }
        let mut last = SimDuration::ZERO;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p} = {v} < previous {last}");
            last = v;
        }
    }

    #[test]
    fn percentile_matches_exact_sort_within_bound() {
        let mut h = LatencyHistogram::new();
        let mut rng = crate::SimRng::seed_from_u64(2);
        let mut raw: Vec<u64> = Vec::new();
        for _ in 0..20_000 {
            let v = 1_000 + rng.next_below(1_000_000);
            raw.push(v);
            h.record(SimDuration::from_ns(v));
        }
        raw.sort_unstable();
        for p in [50.0, 90.0, 99.0] {
            let idx = (((p / 100.0) * raw.len() as f64).ceil() as usize - 1).min(raw.len() - 1);
            let exact = raw[idx] as f64;
            let got = h.percentile(p).as_ns() as f64;
            assert!(got >= exact * 0.999, "p{p}: {got} < {exact}");
            assert!(got <= exact * 1.017, "p{p}: {got} >> {exact}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        for us in [10u64, 20, 30] {
            h.record(SimDuration::from_us(us));
        }
        assert_eq!(h.mean().as_ns(), 20_000);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        let mut rng = crate::SimRng::seed_from_u64(3);
        for i in 0..10_000 {
            let v = SimDuration::from_ns(rng.next_below(5_000_000));
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for p in [50.0, 90.0, 99.0, 99.9] {
            assert_eq!(a.percentile(p), all.percentile(p), "p{p}");
        }
        assert_eq!(a.mean(), all.mean());
        assert_eq!(a.std_dev(), all.std_dev());
    }

    fn of_ns(samples: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        samples.iter().for_each(|&ns| h.record(SimDuration::from_ns(ns)));
        h
    }

    #[test]
    fn small_moments_are_exact() {
        let one = of_ns(&[7_654]);
        assert_eq!((one.mean().as_ns(), one.std_dev()), (7_654, SimDuration::ZERO));
        let us = [2u64, 4, 4, 4, 5, 5, 7, 9];
        let h = of_ns(&us.map(|v| v * 1_000));
        assert_eq!(h.mean(), SimDuration::from_us(5));
        // Sample std dev √(32/7) µs ≈ 2,138 ns; the same values in ns
        // give √(32/7) ≈ 2.138, which rounds to 2 ns.
        assert_eq!(h.std_dev().as_ns(), 2_138);
        assert_eq!(of_ns(&us).std_dev().as_ns(), 2);
        // Half a nanosecond rounds up.
        assert_eq!(of_ns(&[1, 2]).mean().as_ns(), 2);
    }

    #[test]
    fn moments_past_the_exact_range_neither_wrap_nor_depend_on_order() {
        let merged_both_ways = |a: &LatencyHistogram, b: &LatencyHistogram| {
            let (mut ab, mut ba) = (a.clone(), b.clone());
            ab.merge(b);
            ba.merge(a);
            let moments = |h: &LatencyHistogram| (h.count(), h.mean(), h.std_dev());
            assert_eq!(moments(&ab), moments(&ba));
            moments(&ab)
        };
        // Two u64::MAX samples: Σx² saturates, the mean stays exact and
        // the f64 fallback clamps at 0, here the true spread.
        let top = of_ns(&[u64::MAX]);
        let (count, mean, sd) = merged_both_ways(&top, &top);
        assert_eq!((count, mean.as_ns(), sd), (2, u64::MAX, SimDuration::ZERO));
        assert_eq!(of_ns(&[u64::MAX, u64::MAX]).std_dev(), SimDuration::ZERO);
        // A merge that crosses count × max = 2⁶⁴: 3 × 2⁶³. The mean is
        // 2⁶⁴/3 rounded; the sample variance (2·2¹²⁶ − 2¹²⁸/3)/2 = 2¹²⁷/6.
        let (count, mean, sd) = merged_both_ways(&of_ns(&[0]), &of_ns(&[1 << 63, 1 << 63]));
        assert_eq!((count, mean.as_ns()), (3, 6_148_914_691_236_517_205));
        let exact = (2f64.powi(127) / 6.0).sqrt();
        let got = sd.as_ns() as f64;
        assert!((got - exact).abs() <= exact * 1e-12, "std dev {got} vs {exact}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_out_of_range_panics() {
        LatencyHistogram::new().percentile(101.0);
    }

    #[test]
    fn bucket_round_trip_bounds() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1_000, 65_535, 1 << 20, (1 << 40) + 12345] {
            let idx = bucket_index(v);
            let hi = bucket_high(idx);
            assert!(hi >= v, "bucket_high({idx}) = {hi} < {v}");
            if v >= SUB_BUCKETS {
                assert!(hi as f64 <= v as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64), "v={v} hi={hi}");
            }
        }
    }
}
