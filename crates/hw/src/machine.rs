//! Whole-machine configurations — the rows of the paper's Table II.
//!
//! [`MachineConfig`] composes every knob in this crate. Three presets
//! reproduce Table II exactly:
//!
//! | Knob | LP client | HP client | Server baseline |
//! |---|---|---|---|
//! | C-states | C0,C1,C1E,C6 | off | C0,C1 |
//! | Frequency driver | intel_pstate | acpi-cpufreq | acpi-cpufreq |
//! | Frequency governor | powersave | performance | performance |
//! | Turbo | on | on | off |
//! | SMT | on | on | off |
//! | Uncore frequency | dynamic | fixed | fixed |
//! | Tickless | off | off | on |

use serde::{Deserialize, Serialize};
use tpv_sim::{SimDuration, SimRng};

use crate::cstate::{CStatePolicy, CStateTable};
use crate::dvfs::{DvfsConfig, FreqDriver, FreqGovernor};
use crate::env::{RunEnvironment, VariabilityProfile};
use crate::smt::SmtConfig;
use crate::spec::CpuSpec;
use crate::tick::TickConfig;
use crate::turbo::TurboConfig;
use crate::uncore::UncoreMode;

/// A complete hardware configuration for one machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Allowed C-states (`intel_idle.max_cstate` / `idle=poll`).
    pub cstates: CStatePolicy,
    /// C-state timing table of the processor.
    pub cstate_table: CStateTable,
    /// Frequency driver + governor.
    pub dvfs: DvfsConfig,
    /// Turbo mode.
    pub turbo: TurboConfig,
    /// SMT.
    pub smt: SmtConfig,
    /// Uncore frequency mode.
    pub uncore: UncoreMode,
    /// Scheduler tick behaviour.
    pub tick: TickConfig,
    /// The processor.
    pub spec: CpuSpec,
    /// OS cost of waking a blocked thread (interrupt + scheduler + context
    /// switch). The paper's narrative quotes ~25 µs for the untuned path;
    /// with `idle=poll` the wake path collapses to a couple of µs.
    pub thread_wake_cost: SimDuration,
    /// Magnitudes of run-to-run / wake-to-wake variation.
    pub variability: VariabilityProfile,
}

impl MachineConfig {
    /// Table II **LP** (low-power) client: "the default configuration of
    /// the system and thus the case where a user is agnostic of the
    /// client-side configuration".
    pub fn low_power() -> Self {
        MachineConfig {
            cstates: CStatePolicy::UpToC6,
            cstate_table: CStateTable::skylake_server(),
            dvfs: DvfsConfig { driver: FreqDriver::IntelPstate, governor: FreqGovernor::Powersave },
            turbo: TurboConfig::on(),
            smt: SmtConfig::on(),
            uncore: UncoreMode::Dynamic,
            tick: TickConfig::ticking(),
            spec: CpuSpec::xeon_silver_4114(),
            thread_wake_cost: SimDuration::from_us(25),
            variability: VariabilityProfile {
                governor_bias_sigma: 0.35,
                prediction_sigma: 1.8,
                wake_jitter_sigma: 0.15,
                dvfs_bias_sigma: 0.20,
                thermal_sigma: 0.012,
                wake_bias_sigma: 0.02,
            },
        }
    }

    /// Table II **HP** (high-performance) client: "tuned empirically to
    /// achieve high performance".
    pub fn high_performance() -> Self {
        MachineConfig {
            cstates: CStatePolicy::PollIdle,
            cstate_table: CStateTable::skylake_server(),
            dvfs: DvfsConfig { driver: FreqDriver::AcpiCpufreq, governor: FreqGovernor::Performance },
            turbo: TurboConfig::on(),
            smt: SmtConfig::on(),
            uncore: UncoreMode::Fixed,
            tick: TickConfig::ticking(),
            spec: CpuSpec::xeon_silver_4114(),
            thread_wake_cost: SimDuration::from_us(2),
            variability: VariabilityProfile {
                governor_bias_sigma: 0.0,
                prediction_sigma: 0.0,
                wake_jitter_sigma: 0.05,
                dvfs_bias_sigma: 0.0,
                thermal_sigma: 0.006,
                wake_bias_sigma: 0.0,
            },
        }
    }

    /// Table II **server baseline**: "a configuration that does not
    /// introduce high variability and achieves good performance".
    pub fn server_baseline() -> Self {
        MachineConfig {
            cstates: CStatePolicy::UpToC1,
            cstate_table: CStateTable::skylake_server(),
            dvfs: DvfsConfig { driver: FreqDriver::AcpiCpufreq, governor: FreqGovernor::Performance },
            turbo: TurboConfig::off(),
            smt: SmtConfig::off(),
            uncore: UncoreMode::Fixed,
            tick: TickConfig::tickless(),
            spec: CpuSpec::xeon_silver_4114(),
            thread_wake_cost: SimDuration::from_us(3),
            variability: VariabilityProfile {
                governor_bias_sigma: 0.0,
                prediction_sigma: 0.25,
                wake_jitter_sigma: 0.10,
                dvfs_bias_sigma: 0.0,
                thermal_sigma: 0.004,
                wake_bias_sigma: 0.0,
            },
        }
    }

    /// Returns a copy with a different C-state policy (the §V-A server
    /// C1E study flips exactly this knob).
    pub fn with_cstates(mut self, policy: CStatePolicy) -> Self {
        self.cstates = policy;
        self
    }

    /// Returns a copy with SMT enabled or disabled (the §V-A SMT study).
    pub fn with_smt(mut self, enabled: bool) -> Self {
        self.smt = if enabled { SmtConfig::on() } else { SmtConfig::off() };
        self
    }

    /// Returns a copy with turbo enabled or disabled.
    pub fn with_turbo(mut self, enabled: bool) -> Self {
        self.turbo = if enabled { TurboConfig::on() } else { TurboConfig::off() };
        self
    }

    /// Returns a copy with a different DVFS driver/governor pair.
    pub fn with_dvfs(mut self, driver: FreqDriver, governor: FreqGovernor) -> Self {
        self.dvfs = DvfsConfig { driver, governor };
        self
    }

    /// Returns a copy with a different uncore mode.
    pub fn with_uncore(mut self, mode: UncoreMode) -> Self {
        self.uncore = mode;
        self
    }

    /// Draws the per-run environment for this machine.
    pub fn draw_environment(&self, rng: &mut SimRng) -> RunEnvironment {
        RunEnvironment::draw(&self.variability, rng)
    }

    /// Work-time scale factor (relative to nominal frequency) for a core
    /// of this machine running with roughly `active_cores` busy cores.
    ///
    /// < 1.0 means faster than nominal (turbo); includes the run's thermal
    /// drift and the scheduler-tick steal.
    pub fn work_scale(&self, active_cores: u32, env: &RunEnvironment) -> f64 {
        let total = self.spec.logical_cpus_per_socket(self.smt.enabled);
        self.turbo.work_scale(&self.spec, active_cores, total, env.thermal) * self.tick.work_stretch()
    }

    /// A short human-readable label ("LP"-style presets get their Table II
    /// names; everything else is described by its C-state policy).
    pub fn label(&self) -> String {
        if *self == MachineConfig::low_power() {
            "LP".to_string()
        } else if *self == MachineConfig::high_performance() {
            "HP".to_string()
        } else if *self == MachineConfig::server_baseline() {
            "server-baseline".to_string()
        } else {
            format!("custom(cstates={})", self.cstates)
        }
    }
}

impl std::fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cstates={} dvfs={} turbo={} smt={} uncore={} tickless={}",
            self.cstates, self.dvfs, self.turbo, self.smt, self.uncore, self.tick
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cstate::CState;

    #[test]
    fn lp_preset_matches_table_ii() {
        let lp = MachineConfig::low_power();
        assert_eq!(lp.cstates, CStatePolicy::UpToC6);
        assert_eq!(lp.dvfs.driver, FreqDriver::IntelPstate);
        assert_eq!(lp.dvfs.governor, FreqGovernor::Powersave);
        assert!(lp.turbo.enabled);
        assert!(lp.smt.enabled);
        assert_eq!(lp.uncore, UncoreMode::Dynamic);
        assert!(!lp.tick.tickless);
        assert_eq!(lp.label(), "LP");
    }

    #[test]
    fn hp_preset_matches_table_ii() {
        let hp = MachineConfig::high_performance();
        assert_eq!(hp.cstates, CStatePolicy::PollIdle);
        assert_eq!(hp.dvfs.driver, FreqDriver::AcpiCpufreq);
        assert_eq!(hp.dvfs.governor, FreqGovernor::Performance);
        assert!(hp.turbo.enabled);
        assert!(hp.smt.enabled);
        assert_eq!(hp.uncore, UncoreMode::Fixed);
        assert!(!hp.tick.tickless);
        assert_eq!(hp.label(), "HP");
    }

    #[test]
    fn server_preset_matches_table_ii() {
        let srv = MachineConfig::server_baseline();
        assert_eq!(srv.cstates, CStatePolicy::UpToC1);
        assert_eq!(srv.dvfs.governor, FreqGovernor::Performance);
        assert!(!srv.turbo.enabled);
        assert!(!srv.smt.enabled);
        assert_eq!(srv.uncore, UncoreMode::Fixed);
        assert!(srv.tick.tickless);
        assert_eq!(srv.label(), "server-baseline");
    }

    #[test]
    fn builders_flip_single_knobs() {
        let srv = MachineConfig::server_baseline();
        let smt_on = srv.with_smt(true);
        assert!(smt_on.smt.enabled);
        assert_eq!(smt_on.cstates, srv.cstates);

        let c1e = srv.with_cstates(CStatePolicy::UpToC1E);
        assert!(c1e.cstates.allows(CState::C1E));
        assert_eq!(c1e.smt.enabled, srv.smt.enabled);

        let nt = srv.with_turbo(true).with_uncore(UncoreMode::Dynamic);
        assert!(nt.turbo.enabled);
        assert_eq!(nt.uncore, UncoreMode::Dynamic);
        assert!(nt.label().starts_with("custom"));

        let dv = srv.with_dvfs(FreqDriver::IntelPstate, FreqGovernor::Ondemand);
        assert_eq!(dv.dvfs.governor, FreqGovernor::Ondemand);
    }

    #[test]
    fn hp_wake_path_is_cheaper_than_lp() {
        // The crux of the paper: the tuned client's wake path is orders of
        // magnitude cheaper.
        let lp = MachineConfig::low_power();
        let hp = MachineConfig::high_performance();
        assert!(hp.thread_wake_cost < lp.thread_wake_cost);
        assert!(hp.variability.governor_bias_sigma < lp.variability.governor_bias_sigma);
    }

    #[test]
    fn work_scale_reflects_turbo_and_tick() {
        let mut rng = SimRng::seed_from_u64(1);
        let hp = MachineConfig::high_performance();
        let env = hp.draw_environment(&mut rng);
        // Turbo on, few active cores: faster than nominal even with ticks.
        assert!(hp.work_scale(1, &env) < 1.0);
        let srv = MachineConfig::server_baseline();
        let env_s = srv.draw_environment(&mut rng);
        // Turbo off + tickless: very close to exactly nominal.
        assert!((srv.work_scale(5, &env_s) - 1.0).abs() < 0.05);
    }

    #[test]
    fn display_is_informative() {
        let s = MachineConfig::low_power().to_string();
        assert!(s.contains("powersave"));
        assert!(s.contains("C6"));
    }
}
