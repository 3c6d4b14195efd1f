//! DVFS: the CPUFreq frequency driver and governor of §IV-C.
//!
//! Two knobs from Table II:
//!
//! * **Frequency driver** — who talks to the hardware. `acpi-cpufreq`
//!   performs legacy voltage/frequency transitions (~tens of µs, the paper
//!   cites ~30 µs via I-DVFS); `intel_pstate` uses hardware-managed
//!   P-states with much faster transitions.
//! * **Frequency governor** — who decides the target frequency.
//!   `powersave` lets the clock fall toward the minimum while a core is
//!   idle or lightly loaded; `performance` pins it at the maximum.
//!
//! The model: when a core wakes after an idle span under a frequency-
//! dropping governor, it (i) stalls for the driver's transition latency
//! and (ii) executes the first instants of work at the lower frequency
//! until the ramp completes. Under `performance` neither cost applies.

use serde::{Deserialize, Serialize};
use tpv_sim::SimDuration;

use crate::spec::CpuSpec;

/// The CPUFreq scaling driver (Table II "Frequency Driver").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FreqDriver {
    /// Hardware-managed P-states; fast (~1 µs) transitions.
    IntelPstate,
    /// Legacy ACPI interface; slow (~30 µs) voltage/frequency transitions.
    AcpiCpufreq,
}

impl FreqDriver {
    /// Latency of one frequency/voltage transition.
    ///
    /// The ~30 µs legacy figure is the one the paper quotes for DVFS
    /// transitions ("legacy DVFS takes several microseconds (i.e., 30us)").
    pub fn transition_latency(self) -> SimDuration {
        match self {
            FreqDriver::IntelPstate => SimDuration::from_us(1),
            FreqDriver::AcpiCpufreq => SimDuration::from_us(30),
        }
    }
}

impl std::fmt::Display for FreqDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreqDriver::IntelPstate => write!(f, "intel_pstate"),
            FreqDriver::AcpiCpufreq => write!(f, "acpi-cpufreq"),
        }
    }
}

/// The CPUFreq scaling governor (Table II "Frequency Governor").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FreqGovernor {
    /// Frequency follows load; drops toward minimum when idle.
    Powersave,
    /// Frequency pinned at maximum.
    Performance,
    /// Legacy on-demand governor: like `powersave` but with a slower
    /// sampling period (kept for ablation studies).
    Ondemand,
}

impl FreqGovernor {
    /// Whether this governor lets the frequency fall during idle periods.
    pub fn drops_frequency_when_idle(self) -> bool {
        !matches!(self, FreqGovernor::Performance)
    }

    /// How much idleness before the governor has dropped the clock to the
    /// minimum. `ondemand` reacts on its sampling period; `powersave`
    /// (intel_pstate's default algorithm) decays faster.
    pub fn idle_to_min_frequency(self) -> SimDuration {
        match self {
            FreqGovernor::Powersave => SimDuration::from_us(200),
            FreqGovernor::Ondemand => SimDuration::from_ms(10),
            FreqGovernor::Performance => SimDuration::MAX,
        }
    }
}

impl std::fmt::Display for FreqGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreqGovernor::Powersave => write!(f, "powersave"),
            FreqGovernor::Performance => write!(f, "performance"),
            FreqGovernor::Ondemand => write!(f, "ondemand"),
        }
    }
}

/// What a wake-up costs in DVFS terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DvfsWakeCost {
    /// Stall before any work executes (the voltage transition).
    pub stall: SimDuration,
    /// While ramping, work executes this much slower (≥ 1.0 factor on
    /// nominal-frequency work).
    pub slowdown_factor_x1000: u64,
    /// Window (of wall time after the stall) during which the slowdown
    /// applies.
    pub slow_window: SimDuration,
}

impl DvfsWakeCost {
    /// No cost at all (performance governor, or the core never idled).
    pub const NONE: DvfsWakeCost = DvfsWakeCost {
        stall: SimDuration::ZERO,
        slowdown_factor_x1000: 1000,
        slow_window: SimDuration::ZERO,
    };

    /// The slowdown as a float factor.
    pub fn slowdown_factor(&self) -> f64 {
        self.slowdown_factor_x1000 as f64 / 1000.0
    }
}

/// The composed driver+governor model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvfsConfig {
    /// The scaling driver.
    pub driver: FreqDriver,
    /// The scaling governor.
    pub governor: FreqGovernor,
}

impl DvfsConfig {
    /// Cost of resuming work after `idle` under this configuration.
    ///
    /// `dvfs_bias` is the per-run drift factor from
    /// [`crate::RunEnvironment`]; 1.0 means no drift.
    pub fn wake_cost(&self, spec: &CpuSpec, idle: SimDuration, dvfs_bias: f64) -> DvfsWakeCost {
        if !self.governor.drops_frequency_when_idle() || idle.is_zero() {
            return DvfsWakeCost::NONE;
        }
        // How far the clock has fallen: linear decay toward f_min over the
        // governor's reaction horizon.
        let horizon = self.governor.idle_to_min_frequency();
        let depth = (idle.as_ns() as f64 / horizon.as_ns() as f64).min(1.0);
        if depth <= 0.0 {
            return DvfsWakeCost::NONE;
        }
        let f_now = spec.nominal_ghz - depth * (spec.nominal_ghz - spec.min_ghz);
        let slowdown = (spec.nominal_ghz / f_now).max(1.0) * dvfs_bias.max(0.1);
        let stall = self.driver.transition_latency().scale(depth * dvfs_bias.max(0.1));
        DvfsWakeCost {
            stall,
            slowdown_factor_x1000: tpv_sim::round_half_away(slowdown * 1000.0) as u64,
            // The ramp completes within roughly one transition plus the
            // governor's evaluation interval; 30 µs captures the legacy path.
            slow_window: SimDuration::from_us(30).scale(depth),
        }
    }
}

impl std::fmt::Display for DvfsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.driver, self.governor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CpuSpec {
        CpuSpec::xeon_silver_4114()
    }

    #[test]
    fn performance_governor_never_pays() {
        let cfg = DvfsConfig { driver: FreqDriver::AcpiCpufreq, governor: FreqGovernor::Performance };
        let c = cfg.wake_cost(&spec(), SimDuration::from_ms(100), 1.0);
        assert_eq!(c, DvfsWakeCost::NONE);
        assert_eq!(c.slowdown_factor(), 1.0);
    }

    #[test]
    fn powersave_pays_after_long_idle() {
        let cfg = DvfsConfig { driver: FreqDriver::IntelPstate, governor: FreqGovernor::Powersave };
        let c = cfg.wake_cost(&spec(), SimDuration::from_ms(5), 1.0);
        assert!(c.stall > SimDuration::ZERO);
        // 0.8 GHz vs 2.2 GHz nominal: slowdown 2.75x.
        assert!((c.slowdown_factor() - 2.75).abs() < 0.01, "slowdown {}", c.slowdown_factor());
        assert!(c.slow_window > SimDuration::ZERO);
    }

    #[test]
    fn short_idle_costs_less_than_long_idle() {
        let cfg = DvfsConfig { driver: FreqDriver::AcpiCpufreq, governor: FreqGovernor::Powersave };
        let short = cfg.wake_cost(&spec(), SimDuration::from_us(20), 1.0);
        let long = cfg.wake_cost(&spec(), SimDuration::from_ms(1), 1.0);
        assert!(short.stall < long.stall);
        assert!(short.slowdown_factor() < long.slowdown_factor());
        assert_eq!(cfg.wake_cost(&spec(), SimDuration::ZERO, 1.0), DvfsWakeCost::NONE);
    }

    #[test]
    fn legacy_driver_stalls_longer_than_pstate() {
        let legacy = DvfsConfig { driver: FreqDriver::AcpiCpufreq, governor: FreqGovernor::Powersave };
        let modern = DvfsConfig { driver: FreqDriver::IntelPstate, governor: FreqGovernor::Powersave };
        let idle = SimDuration::from_ms(2);
        assert!(legacy.wake_cost(&spec(), idle, 1.0).stall > modern.wake_cost(&spec(), idle, 1.0).stall);
        // The paper's quoted figure: legacy DVFS ~30 µs.
        assert_eq!(FreqDriver::AcpiCpufreq.transition_latency(), SimDuration::from_us(30));
    }

    #[test]
    fn bias_scales_the_cost() {
        let cfg = DvfsConfig { driver: FreqDriver::AcpiCpufreq, governor: FreqGovernor::Powersave };
        let idle = SimDuration::from_ms(2);
        let lo = cfg.wake_cost(&spec(), idle, 0.5);
        let hi = cfg.wake_cost(&spec(), idle, 1.5);
        assert!(lo.stall < hi.stall);
    }

    #[test]
    fn ondemand_reacts_slower_than_powersave() {
        assert!(
            FreqGovernor::Ondemand.idle_to_min_frequency() > FreqGovernor::Powersave.idle_to_min_frequency()
        );
        assert!(FreqGovernor::Ondemand.drops_frequency_when_idle());
        assert!(!FreqGovernor::Performance.drops_frequency_when_idle());
    }

    #[test]
    fn display_matches_linux_names() {
        let cfg = DvfsConfig { driver: FreqDriver::IntelPstate, governor: FreqGovernor::Powersave };
        assert_eq!(cfg.to_string(), "intel_pstate/powersave");
    }
}
