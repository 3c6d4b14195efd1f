//! Time-varying machine state: a hardware configuration per phase.
//!
//! The paper's knobs are static per run, but on real machines they are
//! not static over a run's lifetime: turbo/power budgets exhaust and the
//! platform falls back to nominal frequency, governors ramp up or re-arm
//! deep idle once power capping kicks in, firmware flips policies under
//! thermal pressure. A [`DynamicMachine`] expresses that as one
//! [`MachineConfig`] per phase of a [`PhaseSchedule`]: given a timestamp,
//! it resolves the configuration in effect — the testbed's kernel swaps a
//! node's effective hardware state at every boundary.
//!
//! A `DynamicMachine` built with [`DynamicMachine::fixed`] (or whose
//! per-phase configs are all equal) is exactly a static machine.

use serde::{Deserialize, Serialize};
use tpv_sim::{PhaseSchedule, SimTime};

use crate::machine::MachineConfig;

/// A machine whose effective configuration is a function of time: one
/// [`MachineConfig`] per phase of a shared [`PhaseSchedule`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicMachine {
    schedule: PhaseSchedule,
    configs: Vec<MachineConfig>,
}

impl DynamicMachine {
    /// A machine that never changes — the degenerate single-phase plan.
    pub fn fixed(config: MachineConfig) -> Self {
        DynamicMachine { schedule: PhaseSchedule::single(), configs: vec![config] }
    }

    /// A machine following `configs[i]` during phase `i` of `schedule`.
    ///
    /// # Panics
    ///
    /// Panics unless `configs.len() == schedule.phase_count()`.
    pub fn new(schedule: PhaseSchedule, configs: Vec<MachineConfig>) -> Self {
        assert_eq!(configs.len(), schedule.phase_count(), "dynamic machine needs one config per phase");
        DynamicMachine { schedule, configs }
    }

    /// The phase schedule this plan follows.
    pub fn schedule(&self) -> &PhaseSchedule {
        &self.schedule
    }

    /// The configuration in effect during `phase`.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn config(&self, phase: usize) -> &MachineConfig {
        &self.configs[phase]
    }

    /// The configuration in effect at instant `t`.
    pub fn at(&self, t: SimTime) -> &MachineConfig {
        &self.configs[self.schedule.phase_at(t)]
    }

    /// The plan restricted to the window `[start, end)`, re-anchored so
    /// `start` becomes the new `t = 0` (see `PhaseSchedule::slice`).
    /// Configurations are copied from the phases the window covers, so a
    /// sliced decay plan reproduces the original timeline exactly.
    ///
    /// # Panics
    ///
    /// Panics unless `start < end`.
    pub fn slice(&self, start: SimTime, end: SimTime) -> DynamicMachine {
        let schedule = self.schedule.slice(start, end);
        let configs = (0..schedule.phase_count())
            .map(|p| *self.at(start + schedule.phase_start(p).since(SimTime::ZERO)))
            .collect();
        DynamicMachine { schedule, configs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpv_sim::SimDuration;

    #[test]
    fn fixed_machine_is_static_everywhere() {
        let m = DynamicMachine::fixed(MachineConfig::high_performance());
        assert_eq!(*m.at(SimTime::ZERO), MachineConfig::high_performance());
        assert_eq!(*m.at(SimTime::from_secs(100)), MachineConfig::high_performance());
        assert_eq!(m.schedule().phase_count(), 1);
    }

    #[test]
    fn resolution_follows_the_schedule() {
        let s = PhaseSchedule::stepped(SimDuration::from_ms(10), 2);
        let m = DynamicMachine::new(s, vec![MachineConfig::high_performance(), MachineConfig::low_power()]);
        assert_eq!(*m.at(SimTime::from_ms(9)), MachineConfig::high_performance());
        assert_eq!(*m.at(SimTime::from_ms(10)), MachineConfig::low_power());
        assert_eq!(*m.config(0), MachineConfig::high_performance());
        assert_eq!(*m.config(1), MachineConfig::low_power());
    }

    #[test]
    fn slice_replays_the_covered_timeline() {
        let base = MachineConfig::high_performance();
        let m = DynamicMachine::new(
            PhaseSchedule::new(vec![SimTime::from_ms(50)]),
            vec![base, base.with_turbo(false)],
        );
        // A window straddling the decay keeps the boundary, re-anchored.
        let w = m.slice(SimTime::from_ms(40), SimTime::from_ms(60));
        assert_eq!(w.schedule().boundaries(), &[SimTime::from_ms(10)]);
        assert!(w.at(SimTime::from_ms(9)).turbo.enabled);
        assert!(!w.at(SimTime::from_ms(10)).turbo.enabled);
        // A window entirely after the decay is statically exhausted.
        let w = m.slice(SimTime::from_ms(50), SimTime::from_ms(70));
        assert!((0..w.schedule().phase_count()).all(|p| !w.config(p).turbo.enabled));
    }

    #[test]
    #[should_panic(expected = "one config per phase")]
    fn mismatched_lengths_rejected() {
        DynamicMachine::new(
            PhaseSchedule::stepped(SimDuration::from_ms(5), 3),
            vec![MachineConfig::high_performance()],
        );
    }
}
