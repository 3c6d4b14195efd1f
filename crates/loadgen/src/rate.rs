//! Piecewise (phase-scheduled) offered-load rates.
//!
//! Real traffic is not stationary: production load is diurnal, canary
//! traffic steps, interference bursts. A [`PhasedRate`] expresses a
//! node's offered load as a base QPS times one multiplier per phase of a
//! [`PhaseSchedule`]. The topology kernel rebuilds the node's arrival
//! process at every boundary, and each phase's arrival gaps are drawn
//! from the node's single content-addressed arrival stream — the rate
//! changes, the determinism and permutation-invariance contracts do not.

use serde::{Deserialize, Serialize};
use tpv_sim::{PhaseSchedule, SimDuration, SimTime};

/// A per-phase multiplier over a node's base offered load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasedRate {
    schedule: PhaseSchedule,
    multipliers: Vec<f64>,
}

impl PhasedRate {
    /// Rate `base_qps * multipliers[i]` during phase `i` of `schedule`.
    ///
    /// # Panics
    ///
    /// Panics unless `multipliers.len() == schedule.phase_count()` and
    /// every multiplier is finite and positive.
    pub fn new(schedule: PhaseSchedule, multipliers: Vec<f64>) -> Self {
        assert_eq!(multipliers.len(), schedule.phase_count(), "phased rate needs one multiplier per phase");
        for &m in &multipliers {
            assert!(m.is_finite() && m > 0.0, "rate multipliers must be positive, got {m}");
        }
        PhasedRate { schedule, multipliers }
    }

    /// Like [`PhasedRate::new`] but without the finite-and-positive
    /// multiplier check — the shape a plan deserialized from external
    /// config arrives in, where nothing has audited the numbers yet.
    /// [`TopologySpec::validate`] backstops this seam with
    /// `TopologyError::NonFinitePhaseRate`, so callers building specs
    /// from untrusted data should run plans through a spec rather than
    /// trusting them directly.
    ///
    /// [`TopologySpec::validate`]: https://docs.rs/tpv-core
    ///
    /// # Panics
    ///
    /// Panics unless `multipliers.len() == schedule.phase_count()`; the
    /// phase↔multiplier pairing is structural, not a data question.
    pub fn unchecked(schedule: PhaseSchedule, multipliers: Vec<f64>) -> Self {
        assert_eq!(multipliers.len(), schedule.phase_count(), "phased rate needs one multiplier per phase");
        PhasedRate { schedule, multipliers }
    }

    /// A stepped approximation of one diurnal cycle over `period`:
    /// `steps` equal phases whose multipliers follow
    /// `1 + amplitude * sin(2π · midpoint)`, so the run sweeps through a
    /// trough (`1 - amplitude`) and a peak (`1 + amplitude`) and the
    /// *time-average* load stays the base rate.
    ///
    /// # Panics
    ///
    /// Panics unless `steps ≥ 2`, `period` is non-zero and
    /// `amplitude ∈ [0, 1)` (a multiplier must stay positive).
    pub fn diurnal(period: SimDuration, steps: usize, amplitude: f64) -> Self {
        assert!(steps >= 2, "a diurnal cycle needs at least 2 steps");
        assert!((0.0..1.0).contains(&amplitude), "amplitude must be in [0,1), got {amplitude}");
        let step = SimDuration::from_ns(period.as_ns() / steps as u64);
        assert!(!step.is_zero(), "diurnal period too short for {steps} steps");
        let mult = (0..steps)
            .map(|k| {
                let angle = std::f64::consts::TAU * (k as f64 + 0.5) / steps as f64;
                1.0 + amplitude * tpv_math::fast_sincos(angle).0
            })
            .collect();
        PhasedRate::new(PhaseSchedule::stepped(step, steps), mult)
    }

    /// The phase schedule this rate follows.
    pub fn schedule(&self) -> &PhaseSchedule {
        &self.schedule
    }

    /// The multiplier in effect during `phase`.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn multiplier(&self, phase: usize) -> f64 {
        self.multipliers[phase]
    }

    /// The multiplier in effect at instant `t`.
    pub fn multiplier_at(&self, t: SimTime) -> f64 {
        self.multipliers[self.schedule.phase_at(t)]
    }

    /// The rate restricted to the window `[start, end)`, re-anchored so
    /// `start` becomes the new `t = 0` (see `PhaseSchedule::slice`).
    /// Multipliers are *copied*, never recomputed, so a sliced diurnal
    /// plan reproduces the original phases' rates bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics unless `start < end`.
    pub fn slice(&self, start: SimTime, end: SimTime) -> PhasedRate {
        let schedule = self.schedule.slice(start, end);
        let multipliers = (0..schedule.phase_count())
            .map(|p| self.multiplier_at(start + schedule.phase_start(p).since(SimTime::ZERO)))
            .collect();
        PhasedRate { schedule, multipliers }
    }

    /// Time-weighted mean multiplier over the window `[start, end)` —
    /// what a run's *effective* offered load is relative to the base
    /// rate. Exactly `multiplier(0)` for a single-phase rate.
    ///
    /// # Panics
    ///
    /// Panics unless `start < end`.
    pub fn mean_multiplier(&self, start: SimTime, end: SimTime) -> f64 {
        if self.schedule.is_single() {
            return self.multipliers[0];
        }
        self.schedule.overlap_weights(start, end).iter().zip(&self.multipliers).map(|(w, m)| w * m).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_is_exactly_one() {
        let r = PhasedRate::new(PhaseSchedule::single(), vec![1.0]);
        assert_eq!(r.multiplier_at(SimTime::from_secs(5)), 1.0);
        assert_eq!(r.mean_multiplier(SimTime::ZERO, SimTime::from_secs(1)), 1.0);
        assert!(r.schedule().is_single());
    }

    #[test]
    fn stepped_rate_resolves_per_phase() {
        let r = PhasedRate::new(PhaseSchedule::stepped(SimDuration::from_ms(10), 3), vec![0.5, 2.0, 1.0]);
        assert_eq!(r.multiplier_at(SimTime::from_ms(5)), 0.5);
        assert_eq!(r.multiplier_at(SimTime::from_ms(10)), 2.0);
        assert_eq!(r.multiplier_at(SimTime::from_ms(25)), 1.0);
        assert_eq!(r.multiplier(1), 2.0);
        // [0,20ms) covers phases 0 and 1 equally.
        let mean = r.mean_multiplier(SimTime::ZERO, SimTime::from_ms(20));
        assert!((mean - 1.25).abs() < 1e-12, "{mean}");
    }

    #[test]
    fn diurnal_sweeps_trough_and_peak_with_unit_mean() {
        let r = PhasedRate::diurnal(SimDuration::from_secs(1), 8, 0.6);
        assert_eq!(r.schedule().phase_count(), 8);
        let mults: Vec<f64> = (0..8).map(|p| r.multiplier(p)).collect();
        let max = mults.iter().cloned().fold(f64::MIN, f64::max);
        let min = mults.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 1.5 && max <= 1.6, "peak {max}");
        assert!((0.4..0.5).contains(&min), "trough {min}");
        // Midpoint sampling of a full sine cycle averages to 1.
        let mean = r.mean_multiplier(SimTime::ZERO, SimTime::from_secs(1));
        assert!((mean - 1.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn slice_copies_the_covering_phases_multipliers() {
        let r =
            PhasedRate::new(PhaseSchedule::stepped(SimDuration::from_ms(10), 4), vec![0.5, 2.0, 1.0, 3.0]);
        // Window [10ms, 30ms) covers phases 1 and 2.
        let w = r.slice(SimTime::from_ms(10), SimTime::from_ms(30));
        assert_eq!(w.schedule().phase_count(), 2);
        assert_eq!(w.multiplier(0), 2.0);
        assert_eq!(w.multiplier(1), 1.0);
        assert_eq!(w.multiplier_at(SimTime::from_ms(9)), 2.0);
        assert_eq!(w.multiplier_at(SimTime::from_ms(10)), 1.0);
        // A window inside one phase is a constant rate at that phase's value.
        let w = r.slice(SimTime::from_ms(31), SimTime::from_ms(39));
        assert!(w.schedule().is_single());
        assert_eq!(w.multiplier(0), 3.0);
    }

    #[test]
    #[should_panic(expected = "one multiplier per phase")]
    fn mismatched_lengths_rejected() {
        PhasedRate::new(PhaseSchedule::stepped(SimDuration::from_ms(5), 3), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_multiplier_rejected() {
        PhasedRate::new(PhaseSchedule::single(), vec![0.0]);
    }
}
