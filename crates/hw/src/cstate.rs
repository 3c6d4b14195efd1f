//! C-states: the idle power states of §IV-C.
//!
//! "Skylake-based processors support 4 C-states C0, C1, C1E and C6" — each
//! deeper state saves more power but costs more to leave. The timing
//! parameters below are the published Linux `intel_idle` table for
//! Skylake-SP servers (the paper's Xeon Silver 4114), and they bracket the
//! "2us to 200us" wake-up range the paper quotes.

use serde::{Deserialize, Serialize};
use tpv_sim::SimDuration;

/// A processor core idle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CState {
    /// Active — not an idle state; zero wake cost.
    C0,
    /// Halt: clock gating only.
    C1,
    /// Enhanced halt: clock gating plus a voltage/frequency drop.
    C1E,
    /// Deep sleep: core caches flushed, power gated.
    C6,
}

impl CState {
    /// All states, shallowest to deepest.
    pub const ALL: [CState; 4] = [CState::C0, CState::C1, CState::C1E, CState::C6];

    /// Short name as shown by cpuidle (`C0`, `C1`, `C1E`, `C6`).
    pub fn name(self) -> &'static str {
        match self {
            CState::C0 => "C0",
            CState::C1 => "C1",
            CState::C1E => "C1E",
            CState::C6 => "C6",
        }
    }
}

impl std::fmt::Display for CState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-state timing/power parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CStateParams {
    /// Time to resume execution after a wake event.
    pub exit_latency: SimDuration,
    /// Minimum profitable residency: the governor only enters the state if
    /// it predicts at least this much idleness.
    pub target_residency: SimDuration,
    /// Core power relative to C0 (1.0 = active power), for the energy
    /// accounting extension.
    pub relative_power: f64,
}

/// The per-state parameter table of a processor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CStateTable {
    c1: CStateParams,
    c1e: CStateParams,
    c6: CStateParams,
}

impl CStateTable {
    /// The Linux `intel_idle` table for Skylake-SP (Xeon Silver 4114):
    /// C1 = 2 µs exit / 2 µs residency, C1E = 10 µs / 20 µs,
    /// C6 = 133 µs / 600 µs.
    pub fn skylake_server() -> Self {
        CStateTable {
            c1: CStateParams {
                exit_latency: SimDuration::from_us(2),
                target_residency: SimDuration::from_us(2),
                relative_power: 0.40,
            },
            c1e: CStateParams {
                exit_latency: SimDuration::from_us(10),
                target_residency: SimDuration::from_us(20),
                relative_power: 0.25,
            },
            c6: CStateParams {
                exit_latency: SimDuration::from_us(133),
                target_residency: SimDuration::from_us(600),
                relative_power: 0.05,
            },
        }
    }

    /// Parameters for a state.
    ///
    /// C0 has zero exit latency and residency by definition.
    pub fn params(&self, state: CState) -> CStateParams {
        match state {
            CState::C0 => CStateParams {
                exit_latency: SimDuration::ZERO,
                target_residency: SimDuration::ZERO,
                relative_power: 1.0,
            },
            CState::C1 => self.c1,
            CState::C1E => self.c1e,
            CState::C6 => self.c6,
        }
    }

    /// Exit latency of a state.
    pub fn exit_latency(&self, state: CState) -> SimDuration {
        self.params(state).exit_latency
    }

    /// Target residency of a state.
    pub fn target_residency(&self, state: CState) -> SimDuration {
        self.params(state).target_residency
    }
}

impl Default for CStateTable {
    fn default() -> Self {
        CStateTable::skylake_server()
    }
}

/// Which C-states the OS is allowed to use — the grub-level knob
/// (`intel_idle.max_cstate=…` / `idle=poll`) from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CStatePolicy {
    /// `idle=poll`: never leave C0. The HP client column of Table II
    /// ("C-states off").
    PollIdle,
    /// States up to and including C1 (the paper's server baseline:
    /// "C0, C1").
    UpToC1,
    /// States up to and including C1E (the server "C1E enabled" scenario
    /// of §V-A).
    UpToC1E,
    /// All states including C6 (the LP client default:
    /// "C0, C1, C1E, C6").
    UpToC6,
}

impl CStatePolicy {
    /// The deepest state this policy may enter.
    pub fn deepest(self) -> CState {
        match self {
            CStatePolicy::PollIdle => CState::C0,
            CStatePolicy::UpToC1 => CState::C1,
            CStatePolicy::UpToC1E => CState::C1E,
            CStatePolicy::UpToC6 => CState::C6,
        }
    }

    /// Whether a state is permitted under this policy.
    pub fn allows(self, state: CState) -> bool {
        state <= self.deepest()
    }

    /// Menu-governor-style retrospective state selection: the deepest
    /// allowed state whose target residency fits inside the (bias-scaled)
    /// idle span.
    ///
    /// `predicted_idle` is the actual idle gap scaled by the per-run
    /// governor bias ([`crate::RunEnvironment::governor_bias`]) — the
    /// governor's learned prediction error.
    pub fn select_state(self, table: &CStateTable, predicted_idle: SimDuration) -> CState {
        let mut chosen = CState::C0;
        for &s in CState::ALL.iter().skip(1) {
            if self.allows(s) && table.target_residency(s) <= predicted_idle {
                chosen = s;
            }
        }
        chosen
    }
}

impl std::fmt::Display for CStatePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CStatePolicy::PollIdle => write!(f, "off"),
            CStatePolicy::UpToC1 => write!(f, "C0,C1"),
            CStatePolicy::UpToC1E => write!(f, "C0,C1,C1E"),
            CStatePolicy::UpToC6 => write!(f, "C0,C1,C1E,C6"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_table_matches_published_values() {
        let t = CStateTable::skylake_server();
        assert_eq!(t.exit_latency(CState::C1), SimDuration::from_us(2));
        assert_eq!(t.exit_latency(CState::C1E), SimDuration::from_us(10));
        assert_eq!(t.exit_latency(CState::C6), SimDuration::from_us(133));
        assert_eq!(t.target_residency(CState::C6), SimDuration::from_us(600));
        assert_eq!(t.exit_latency(CState::C0), SimDuration::ZERO);
        // The paper's quoted range: wake-up takes 2 µs – 200 µs.
        for s in [CState::C1, CState::C1E, CState::C6] {
            let e = t.exit_latency(s);
            assert!(e >= SimDuration::from_us(2) && e <= SimDuration::from_us(200));
        }
    }

    #[test]
    fn deeper_states_cost_more_and_save_more() {
        let t = CStateTable::default();
        let mut last_exit = SimDuration::ZERO;
        let mut last_power = 2.0;
        for s in CState::ALL {
            let p = t.params(s);
            assert!(p.exit_latency >= last_exit, "{s}: exit latency not monotone");
            assert!(p.relative_power < last_power, "{s}: power not monotone");
            assert!(p.target_residency >= p.exit_latency || s == CState::C0);
            last_exit = p.exit_latency;
            last_power = p.relative_power;
        }
    }

    #[test]
    fn policy_allows_matches_table_ii() {
        // LP client: C0,C1,C1E,C6 — everything allowed.
        assert!(CStatePolicy::UpToC6.allows(CState::C6));
        // HP client: off.
        let hp = CStatePolicy::PollIdle;
        assert_eq!(hp.deepest(), CState::C0);
        assert!(!hp.allows(CState::C1));
        // Server baseline: C0,C1.
        let srv = CStatePolicy::UpToC1;
        assert!(srv.allows(CState::C1));
        assert!(!srv.allows(CState::C1E));
    }

    #[test]
    fn selection_respects_residency_gates() {
        let t = CStateTable::skylake_server();
        let p = CStatePolicy::UpToC6;
        assert_eq!(p.select_state(&t, SimDuration::from_us(1)), CState::C0);
        assert_eq!(p.select_state(&t, SimDuration::from_us(5)), CState::C1);
        assert_eq!(p.select_state(&t, SimDuration::from_us(100)), CState::C1E);
        assert_eq!(p.select_state(&t, SimDuration::from_us(600)), CState::C6);
        assert_eq!(p.select_state(&t, SimDuration::from_ms(10)), CState::C6);
    }

    #[test]
    fn selection_respects_policy_caps() {
        let t = CStateTable::skylake_server();
        // Server baseline never goes deeper than C1 even for long idleness.
        assert_eq!(CStatePolicy::UpToC1.select_state(&t, SimDuration::from_ms(50)), CState::C1);
        // C1E-enabled server stops at C1E.
        assert_eq!(CStatePolicy::UpToC1E.select_state(&t, SimDuration::from_ms(50)), CState::C1E);
        // Poll idle never sleeps.
        assert_eq!(CStatePolicy::PollIdle.select_state(&t, SimDuration::from_ms(50)), CState::C0);
    }

    #[test]
    fn display_names() {
        assert_eq!(CState::C1E.to_string(), "C1E");
        assert_eq!(CStatePolicy::UpToC6.to_string(), "C0,C1,C1E,C6");
        assert_eq!(CStatePolicy::PollIdle.to_string(), "off");
    }
}
