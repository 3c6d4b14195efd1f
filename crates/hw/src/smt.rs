//! Simultaneous multithreading (Table II "SMT", §V-A's server case study).
//!
//! SMT's two competing effects, both visible in the paper's Fig. 2:
//!
//! * **more logical CPUs** — with SMT on, kernel network processing
//!   (softirqs) can run on sibling threads instead of preempting the
//!   pinned service workers, which is why the paper's HP client measures a
//!   ~13 % p99 *improvement* from enabling SMT under load;
//! * **resource sharing** — two busy siblings share the core's pipelines,
//!   inflating each thread's service time.

use serde::{Deserialize, Serialize};

/// SMT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmtConfig {
    /// Whether SMT is enabled (sysfs knob in the paper).
    pub enabled: bool,
    /// Slowdown of a thread when its sibling is simultaneously busy
    /// (≥ 1.0; typical for short cache-resident service loops).
    pub sibling_inflation: f64,
}

impl SmtConfig {
    /// SMT on with the default sibling inflation (1.12×).
    pub fn on() -> Self {
        SmtConfig { enabled: true, sibling_inflation: 1.12 }
    }

    /// SMT off.
    pub fn off() -> Self {
        SmtConfig { enabled: false, sibling_inflation: 1.0 }
    }

    /// Expected service-time inflation for a worker given the probability
    /// that its sibling is busy (≈ per-core utilisation).
    ///
    /// With SMT off there is no sibling, so no inflation.
    pub fn service_inflation(&self, sibling_busy_probability: f64) -> f64 {
        if !self.enabled {
            return 1.0;
        }
        let p = sibling_busy_probability.clamp(0.0, 1.0);
        1.0 + p * (self.sibling_inflation - 1.0)
    }
}

impl Default for SmtConfig {
    fn default() -> Self {
        SmtConfig::on()
    }
}

impl std::fmt::Display for SmtConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", if self.enabled { "on" } else { "off" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smt_off_never_inflates() {
        let s = SmtConfig::off();
        assert_eq!(s.service_inflation(1.0), 1.0);
    }

    #[test]
    fn inflation_grows_with_sibling_occupancy() {
        let s = SmtConfig::on();
        assert_eq!(s.service_inflation(0.0), 1.0);
        let half = s.service_inflation(0.5);
        let full = s.service_inflation(1.0);
        assert!(half > 1.0 && half < full);
        assert!((full - 1.12).abs() < 1e-12);
    }

    #[test]
    fn occupancy_is_clamped() {
        let s = SmtConfig::on();
        assert_eq!(s.service_inflation(-1.0), 1.0);
        assert_eq!(s.service_inflation(2.0), s.service_inflation(1.0));
    }

    #[test]
    fn display() {
        assert_eq!(SmtConfig::on().to_string(), "on");
        assert_eq!(SmtConfig::off().to_string(), "off");
    }
}
