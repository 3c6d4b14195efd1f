//! Per-run environment state.
//!
//! The paper collects **one sample per run** and resets the environment
//! between runs so samples are iid (§III). What actually differs between
//! runs of the *same* configuration on real hardware: the idle governor's
//! learned prediction state, DVFS/HWP internal state, package thermals,
//! and background activity. [`RunEnvironment`] captures those as per-run
//! draws; the experiment harness redraws it for every run.

use serde::{Deserialize, Serialize};
use tpv_sim::dist::{usable_sigma, LogNormal, Normal, Sampler};
use tpv_sim::SimRng;

/// Magnitudes of run-to-run and wake-to-wake variation for a machine
/// configuration.
///
/// Two kinds of sigma, each centred on a factor of 1.0:
///
/// * `prediction_sigma`, `wake_jitter_sigma` and `thermal_sigma` are
///   log-space standard deviations of log-normal factors with mean 1;
/// * `governor_bias_sigma`, `dvfs_bias_sigma` and `wake_bias_sigma` are
///   standard deviations of a Normal around 1, clamped to `[0.05, 3]`
///   ([`RunEnvironment::draw`]).
///
/// 0.0 disables a source entirely. A negative or non-finite sigma is
/// rejected by [`VariabilityProfile::invalid_sigma`], which topology
/// validation runs on every machine it names.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariabilityProfile {
    /// Per-run bias of the idle governor's residency prediction. Large on
    /// machines that sleep a lot (the governor's learned correction factor
    /// dominates which C-state each idle period lands in). Drawn as a
    /// clamped Normal around 1 (symmetric), matching the near-normal
    /// run-sample distributions the paper observes for the LP client at
    /// low load.
    pub governor_bias_sigma: f64,
    /// Per-wake noise on the governor's idle-length prediction — this is
    /// what occasionally sends a 40 µs idle period into C6 and produces
    /// the LP client's tail inflation.
    pub prediction_sigma: f64,
    /// Per-wake jitter on C-state exit latency.
    pub wake_jitter_sigma: f64,
    /// Per-run bias on DVFS ramp behaviour.
    pub dvfs_bias_sigma: f64,
    /// Per-run thermal headroom drift affecting turbo frequency.
    pub thermal_sigma: f64,
    /// Per-run bias on the whole wake path (timer/IRQ affinity and
    /// scheduler state differ run to run); symmetric around 1.
    pub wake_bias_sigma: f64,
}

impl VariabilityProfile {
    /// No variation at all (useful for deterministic unit tests).
    pub fn none() -> Self {
        VariabilityProfile {
            governor_bias_sigma: 0.0,
            prediction_sigma: 0.0,
            wake_jitter_sigma: 0.0,
            dvfs_bias_sigma: 0.0,
            thermal_sigma: 0.0,
            wake_bias_sigma: 0.0,
        }
    }

    /// The first sigma that is negative or not finite, as `(field name,
    /// value)`; `None` when every sigma is usable. Such a value would
    /// panic in a sampler's constructor, or — compared with `> 0` —
    /// silently switch its noise source off.
    pub fn invalid_sigma(&self) -> Option<(&'static str, f64)> {
        [
            ("governor_bias_sigma", self.governor_bias_sigma),
            ("prediction_sigma", self.prediction_sigma),
            ("wake_jitter_sigma", self.wake_jitter_sigma),
            ("dvfs_bias_sigma", self.dvfs_bias_sigma),
            ("thermal_sigma", self.thermal_sigma),
            ("wake_bias_sigma", self.wake_bias_sigma),
        ]
        .into_iter()
        .find(|&(_, sigma)| !usable_sigma(sigma))
    }
}

/// One run's worth of environment state, drawn fresh per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunEnvironment {
    /// Multiplier the idle governor applies to observed idle gaps when
    /// predicting residency (per-run learned bias).
    pub governor_bias: f64,
    /// Multiplier on DVFS wake costs this run.
    pub dvfs_bias: f64,
    /// Thermal headroom factor for turbo this run (1.0 = nominal).
    pub thermal: f64,
    /// Multiplier on the whole wake path this run.
    pub wake_bias: f64,
}

impl RunEnvironment {
    /// The neutral environment (all factors 1.0).
    pub fn neutral() -> Self {
        RunEnvironment { governor_bias: 1.0, dvfs_bias: 1.0, thermal: 1.0, wake_bias: 1.0 }
    }

    /// Draws a run environment from a variability profile.
    pub fn draw(profile: &VariabilityProfile, rng: &mut SimRng) -> Self {
        // Symmetric factors: clamped Normal around 1. These shape the LP
        // client's run-sample distribution, which the paper finds *normal*
        // at low load (Table IV) — a log-normal here would skew it.
        fn symmetric(sigma: f64, rng: &mut SimRng) -> f64 {
            if sigma <= 0.0 {
                1.0
            } else {
                Normal::new(1.0, sigma).sample(rng).clamp(0.05, 3.0)
            }
        }
        // One-sided factor: hot runs lose turbo headroom; the skew is what
        // makes tightly-measuring (HP) configurations fail normality.
        fn skewed(sigma: f64, rng: &mut SimRng) -> f64 {
            if sigma <= 0.0 {
                1.0
            } else {
                LogNormal::with_mean(1.0, sigma).sample(rng)
            }
        }
        RunEnvironment {
            governor_bias: symmetric(profile.governor_bias_sigma, rng),
            dvfs_bias: symmetric(profile.dvfs_bias_sigma, rng),
            thermal: skewed(profile.thermal_sigma, rng),
            wake_bias: symmetric(profile.wake_bias_sigma, rng),
        }
    }
}

impl Default for RunEnvironment {
    fn default() -> Self {
        RunEnvironment::neutral()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sigma_gives_neutral_environment() {
        let mut rng = SimRng::seed_from_u64(1);
        let env = RunEnvironment::draw(&VariabilityProfile::none(), &mut rng);
        assert_eq!(env, RunEnvironment::neutral());
    }

    #[test]
    fn draws_vary_run_to_run() {
        let profile = VariabilityProfile {
            governor_bias_sigma: 0.3,
            prediction_sigma: 1.0,
            wake_jitter_sigma: 0.2,
            dvfs_bias_sigma: 0.2,
            thermal_sigma: 0.02,
            wake_bias_sigma: 0.15,
        };
        let mut rng = SimRng::seed_from_u64(2);
        let a = RunEnvironment::draw(&profile, &mut rng);
        let b = RunEnvironment::draw(&profile, &mut rng);
        assert_ne!(a, b);
        assert!(a.governor_bias > 0.0 && b.governor_bias > 0.0);
    }

    #[test]
    fn factors_are_centred_near_one() {
        let profile = VariabilityProfile {
            governor_bias_sigma: 0.3,
            prediction_sigma: 0.0,
            wake_jitter_sigma: 0.0,
            dvfs_bias_sigma: 0.3,
            thermal_sigma: 0.05,
            wake_bias_sigma: 0.0,
        };
        let mut rng = SimRng::seed_from_u64(3);
        let n = 4000;
        let mean: f64 =
            (0..n).map(|_| RunEnvironment::draw(&profile, &mut rng).governor_bias).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean governor bias {mean}");
    }
}
