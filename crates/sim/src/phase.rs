//! Phase schedules: deterministic partitions of simulated time.
//!
//! Real runs are not stationary — turbo budgets exhaust, governors ramp,
//! traffic is diurnal. A [`PhaseSchedule`] carves a run into consecutive
//! *phases* separated by fixed boundary instants, giving every layer
//! above (hardware state in `tpv-hw`, generator rates in `tpv-loadgen`,
//! topology nodes in `tpv-core`) one shared vocabulary for "what is in
//! effect at time *t*". Boundaries are plain [`SimTime`]s, so schedules
//! are deterministic by construction: the same schedule partitions every
//! seeded run identically.
//!
//! Phase `0` always starts at [`SimTime::ZERO`]; a schedule with no
//! boundaries is the degenerate single phase covering the whole run —
//! the static world every pre-phase experiment lives in.
//!
//! A schedule says nothing about *where* a run executes: because a
//! phase is just a time interval, per-phase aggregation composes with
//! partitioned (sharded) execution — each partition buckets its own
//! samples by the shared schedule and the partials merge afterwards.
//! Both sides are exact: boundary instants are integers, and so is every
//! field of each phase bucket's histogram, so the merge order is free.
//!
//! # Example
//!
//! ```
//! use tpv_sim::{PhaseSchedule, SimTime, SimDuration};
//!
//! let s = PhaseSchedule::stepped(SimDuration::from_ms(10), 3);
//! assert_eq!(s.phase_count(), 3);
//! assert_eq!(s.phase_at(SimTime::from_ms(5)), 0);
//! assert_eq!(s.phase_at(SimTime::from_ms(10)), 1);
//! assert_eq!(s.phase_at(SimTime::from_ms(25)), 2);
//! ```

use serde::{Deserialize, Serialize};

use crate::{SimDuration, SimTime};

/// A sorted set of phase-boundary instants partitioning simulated time
/// into `boundaries.len() + 1` consecutive phases.
///
/// Phase `i` covers `[boundary(i-1), boundary(i))` with phase 0 starting
/// at [`SimTime::ZERO`] and the last phase extending to the end of time.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PhaseSchedule {
    boundaries: Vec<SimTime>,
}

impl PhaseSchedule {
    /// The degenerate schedule: one phase covering all of time. Runs
    /// under this schedule are exactly the static runs of the pre-phase
    /// testbed.
    pub fn single() -> Self {
        PhaseSchedule { boundaries: Vec::new() }
    }

    /// A schedule with the given boundary instants.
    ///
    /// # Panics
    ///
    /// Panics unless the boundaries are strictly increasing and the first
    /// one is after [`SimTime::ZERO`] (a boundary at t=0 would make phase
    /// 0 empty).
    pub fn new(boundaries: Vec<SimTime>) -> Self {
        if let Some(&first) = boundaries.first() {
            assert!(first > SimTime::ZERO, "first phase boundary must be after t=0, got {first}");
        }
        for pair in boundaries.windows(2) {
            assert!(
                pair[0] < pair[1],
                "phase boundaries must be strictly increasing: {} !< {}",
                pair[0],
                pair[1]
            );
        }
        PhaseSchedule { boundaries }
    }

    /// `phases` equal-length phases of `step` each (the last phase is
    /// open-ended like every schedule's). `stepped(d, 1)` is
    /// [`PhaseSchedule::single`].
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or `phases` is zero.
    pub fn stepped(step: SimDuration, phases: usize) -> Self {
        assert!(!step.is_zero(), "phase step must be positive");
        assert!(phases > 0, "a schedule needs at least one phase");
        PhaseSchedule::new((1..phases).map(|k| SimTime::ZERO + step * k as u64).collect())
    }

    /// The boundary instants, in increasing order.
    pub fn boundaries(&self) -> &[SimTime] {
        &self.boundaries
    }

    /// Number of phases (`boundaries + 1`).
    pub fn phase_count(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// True for the degenerate single-phase schedule.
    pub fn is_single(&self) -> bool {
        self.boundaries.is_empty()
    }

    /// The phase in effect at instant `t` (boundaries belong to the
    /// phase they open).
    pub fn phase_at(&self, t: SimTime) -> usize {
        self.boundaries.partition_point(|&b| b <= t)
    }

    /// First instant of `phase`.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn phase_start(&self, phase: usize) -> SimTime {
        assert!(phase < self.phase_count(), "phase {phase} out of range");
        if phase == 0 {
            SimTime::ZERO
        } else {
            self.boundaries[phase - 1]
        }
    }

    /// First instant after `phase` ([`SimTime::MAX`] for the last phase).
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn phase_end(&self, phase: usize) -> SimTime {
        assert!(phase < self.phase_count(), "phase {phase} out of range");
        self.boundaries.get(phase).copied().unwrap_or(SimTime::MAX)
    }

    /// The union of two schedules: every boundary of either, deduplicated
    /// — the finest partition both schedules are refinements of.
    pub fn merged(&self, other: &PhaseSchedule) -> PhaseSchedule {
        let mut all: Vec<SimTime> = self.boundaries.iter().chain(other.boundaries.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        PhaseSchedule { boundaries: all }
    }

    /// The schedule restricted to the window `[start, end)`, re-anchored
    /// so the window's `start` becomes the new [`SimTime::ZERO`].
    ///
    /// Only boundaries strictly inside the window survive (a boundary at
    /// exactly `start` would open an empty phase 0; one at or past `end`
    /// is never reached). This is the seam segmented execution uses: a
    /// controller that replays a long phased run window by window hands
    /// each window the slice of the original schedule it will live under.
    ///
    /// # Panics
    ///
    /// Panics unless `start < end`.
    pub fn slice(&self, start: SimTime, end: SimTime) -> PhaseSchedule {
        assert!(start < end, "empty slice window [{start}, {end})");
        PhaseSchedule {
            boundaries: self
                .boundaries
                .iter()
                .filter(|&&b| b > start && b < end)
                .map(|&b| SimTime::ZERO + b.since(start))
                .collect(),
        }
    }

    /// Per-phase fraction of the window `[start, end)` each phase covers
    /// (sums to 1). Used to time-average per-phase quantities — e.g. the
    /// effective offered load of a stepped-rate run.
    ///
    /// Single-phase schedules return exactly `[1.0]`, so static runs see
    /// no floating-point perturbation.
    ///
    /// # Panics
    ///
    /// Panics unless `start < end`.
    pub fn overlap_weights(&self, start: SimTime, end: SimTime) -> Vec<f64> {
        assert!(start < end, "empty window [{start}, {end})");
        if self.is_single() {
            return vec![1.0];
        }
        let total = end.since(start).as_secs();
        (0..self.phase_count())
            .map(|p| {
                let s = self.phase_start(p).max(start);
                let e = self.phase_end(p).min(end);
                s.until(e).as_secs() / total
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_schedule_is_one_phase_everywhere() {
        let s = PhaseSchedule::single();
        assert!(s.is_single());
        assert_eq!(s.phase_count(), 1);
        assert_eq!(s.phase_at(SimTime::ZERO), 0);
        assert_eq!(s.phase_at(SimTime::from_secs(1_000)), 0);
        assert_eq!(s.phase_start(0), SimTime::ZERO);
        assert_eq!(s.phase_end(0), SimTime::MAX);
        assert_eq!(s.overlap_weights(SimTime::ZERO, SimTime::from_ms(1)), vec![1.0]);
    }

    #[test]
    fn phase_lookup_respects_boundaries() {
        let s = PhaseSchedule::new(vec![SimTime::from_ms(10), SimTime::from_ms(30)]);
        assert_eq!(s.phase_count(), 3);
        assert_eq!(s.phase_at(SimTime::from_ms(9)), 0);
        // A boundary belongs to the phase it opens.
        assert_eq!(s.phase_at(SimTime::from_ms(10)), 1);
        assert_eq!(s.phase_at(SimTime::from_ms(29)), 1);
        assert_eq!(s.phase_at(SimTime::from_ms(30)), 2);
        assert_eq!(s.phase_start(1), SimTime::from_ms(10));
        assert_eq!(s.phase_end(1), SimTime::from_ms(30));
        assert_eq!(s.phase_end(2), SimTime::MAX);
    }

    #[test]
    fn stepped_builds_equal_phases() {
        let s = PhaseSchedule::stepped(SimDuration::from_ms(20), 4);
        assert_eq!(s.phase_count(), 4);
        assert_eq!(s.boundaries(), &[SimTime::from_ms(20), SimTime::from_ms(40), SimTime::from_ms(60)]);
        assert!(PhaseSchedule::stepped(SimDuration::from_ms(5), 1).is_single());
    }

    #[test]
    fn merged_is_the_boundary_union() {
        let a = PhaseSchedule::new(vec![SimTime::from_ms(10), SimTime::from_ms(30)]);
        let b = PhaseSchedule::new(vec![SimTime::from_ms(10), SimTime::from_ms(20)]);
        let m = a.merged(&b);
        assert_eq!(m.boundaries(), &[SimTime::from_ms(10), SimTime::from_ms(20), SimTime::from_ms(30)]);
        // Merging with the single schedule is the identity.
        assert_eq!(a.merged(&PhaseSchedule::single()), a);
    }

    #[test]
    fn overlap_weights_sum_to_one_and_track_the_window() {
        let s = PhaseSchedule::new(vec![SimTime::from_ms(10), SimTime::from_ms(30)]);
        // Window [5ms, 35ms): 5ms of phase 0, 20ms of phase 1, 5ms of phase 2.
        let w = s.overlap_weights(SimTime::from_ms(5), SimTime::from_ms(35));
        assert_eq!(w.len(), 3);
        assert!((w[0] - 5.0 / 30.0).abs() < 1e-12);
        assert!((w[1] - 20.0 / 30.0).abs() < 1e-12);
        assert!((w[2] - 5.0 / 30.0).abs() < 1e-12);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // A window entirely inside one phase weighs only that phase.
        let w = s.overlap_weights(SimTime::from_ms(12), SimTime::from_ms(20));
        assert_eq!(w, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn slice_reanchors_interior_boundaries() {
        let s = PhaseSchedule::new(vec![SimTime::from_ms(10), SimTime::from_ms(30), SimTime::from_ms(50)]);
        // Window [10ms, 50ms): the 10ms boundary opens the window (dropped),
        // 30ms survives re-anchored to 20ms, 50ms is never reached.
        let w = s.slice(SimTime::from_ms(10), SimTime::from_ms(50));
        assert_eq!(w.boundaries(), &[SimTime::from_ms(20)]);
        // A window inside one phase degenerates to the single schedule.
        assert!(s.slice(SimTime::from_ms(31), SimTime::from_ms(49)).is_single());
        // Slicing the whole of time is the identity.
        assert_eq!(s.slice(SimTime::ZERO, SimTime::MAX), s);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_boundaries_rejected() {
        PhaseSchedule::new(vec![SimTime::from_ms(30), SimTime::from_ms(10)]);
    }

    #[test]
    #[should_panic(expected = "after t=0")]
    fn zero_boundary_rejected() {
        PhaseSchedule::new(vec![SimTime::ZERO]);
    }
}
