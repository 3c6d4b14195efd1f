//! Ready-made paper studies (§V) and the scenario taxonomy of Table III.

use tpv_hw::MachineConfig;
use tpv_loadgen::{LoopMode, PointOfMeasurement, TimingMode};
use tpv_sim::SimDuration;

use crate::experiment::{Benchmark, Experiment, ExperimentBuilder, ServerScenario};

/// The paper's Memcached QPS sweep: 10K–500K (§V-A).
pub const MEMCACHED_QPS: [f64; 7] =
    [10_000.0, 50_000.0, 100_000.0, 200_000.0, 300_000.0, 400_000.0, 500_000.0];

/// The paper's HDSearch QPS sweep: 500–2500 (§V-B).
pub const HDSEARCH_QPS: [f64; 5] = [500.0, 1000.0, 1500.0, 2000.0, 2500.0];

/// The paper's Social Network QPS sweep: 100–600 (§V-B).
pub const SOCIALNET_QPS: [f64; 6] = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0];

/// The paper's synthetic delay sweep: 0–400 µs (§V-B).
pub const SYNTHETIC_DELAYS_US: [u64; 5] = [0, 100, 200, 300, 400];

/// The paper's synthetic QPS points: 5K–20K (bounded by Little's law so
/// concurrency stays below the 10 workers).
pub const SYNTHETIC_QPS: [f64; 4] = [5_000.0, 10_000.0, 15_000.0, 20_000.0];

/// Every §V experiment: LP and HP clients × `servers` × `qps` on one
/// benchmark, `runs` runs of `duration` per cell from master `seed`.
pub fn paper_study(
    benchmark: Benchmark,
    servers: &[ServerScenario],
    qps: &[f64],
    runs: usize,
    duration: SimDuration,
    seed: u64,
) -> Experiment {
    let builder = Experiment::builder(benchmark)
        .client(MachineConfig::low_power())
        .client(MachineConfig::high_performance());
    servers
        .iter()
        .cloned()
        .fold(builder, ExperimentBuilder::server)
        .qps(qps)
        .runs(runs)
        .run_duration(duration)
        .seed(seed)
        .build()
}

/// Fig. 2: Memcached, SMT on/off server, LP/HP clients, 10K–500K QPS.
pub fn memcached_smt_study(qps: &[f64], runs: usize, duration: SimDuration, seed: u64) -> Experiment {
    let servers = [ServerScenario::baseline(), ServerScenario::smt_on()];
    paper_study(Benchmark::memcached(), &servers, qps, runs, duration, seed)
}

/// Fig. 3: Memcached, C1E on/off server, LP/HP clients.
pub fn memcached_c1e_study(qps: &[f64], runs: usize, duration: SimDuration, seed: u64) -> Experiment {
    let servers = [ServerScenario::baseline(), ServerScenario::c1e_on()];
    paper_study(Benchmark::memcached(), &servers, qps, runs, duration, seed)
}

/// Fig. 4 (left): HDSearch with SMT on/off.
pub fn hdsearch_smt_study(qps: &[f64], runs: usize, duration: SimDuration, seed: u64) -> Experiment {
    let servers = [ServerScenario::baseline(), ServerScenario::smt_on()];
    paper_study(Benchmark::hdsearch(), &servers, qps, runs, duration, seed)
}

/// Fig. 6: Social Network with the baseline server, LP/HP clients.
pub fn socialnet_study(qps: &[f64], runs: usize, duration: SimDuration, seed: u64) -> Experiment {
    paper_study(Benchmark::social_network(), &[ServerScenario::baseline()], qps, runs, duration, seed)
}

/// Fig. 7: the synthetic service at one added delay, LP/HP clients
/// (§V-B runs 20 repetitions).
pub fn synthetic_study(
    delay: SimDuration,
    qps: &[f64],
    runs: usize,
    duration: SimDuration,
    seed: u64,
) -> Experiment {
    paper_study(Benchmark::synthetic(delay), &[ServerScenario::baseline()], qps, runs, duration, seed)
}

/// One row of the paper's Table III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Open/closed loop of the generator design.
    pub loop_mode: LoopMode,
    /// Inter-arrival timing implementation.
    pub timing: TimingMode,
    /// Point of measurement.
    pub pom: PointOfMeasurement,
    /// Whether the client configuration is tuned (HP) or default (LP).
    pub client_tuned: bool,
    /// Whether the service's response time is small (µs-scale) or big
    /// (ms-scale).
    pub small_response_time: bool,
    /// Whether the paper flags this scenario as risking wrong conclusions.
    pub risk: bool,
    /// Paper sections evaluating the scenario.
    pub sections: &'static str,
}

impl Scenario {
    /// Taxonomy label like
    /// `"open-loop time-sensitive / in-app / not-tuned / small"`.
    pub fn label(&self) -> String {
        format!(
            "{} {} / {} / {} / {}",
            match self.loop_mode {
                LoopMode::Open => "open-loop",
                LoopMode::Closed => "closed-loop",
            },
            match self.timing {
                TimingMode::BlockWait => "time-sensitive",
                TimingMode::BusyWait => "time-insensitive",
            },
            match self.pom {
                PointOfMeasurement::InApp => "in-app",
                PointOfMeasurement::Kernel => "kernel",
                PointOfMeasurement::Nic => "nic",
            },
            if self.client_tuned { "tuned" } else { "not-tuned" },
            if self.small_response_time { "small" } else { "big" },
        )
    }
}

/// The four scenarios of Table III.
pub fn table_iii() -> Vec<Scenario> {
    vec![
        Scenario {
            loop_mode: LoopMode::Open,
            timing: TimingMode::BlockWait,
            pom: PointOfMeasurement::InApp,
            client_tuned: true,
            small_response_time: true,
            risk: false,
            sections: "5.1,5.3",
        },
        Scenario {
            loop_mode: LoopMode::Open,
            timing: TimingMode::BlockWait,
            pom: PointOfMeasurement::InApp,
            client_tuned: false,
            small_response_time: true,
            risk: true,
            sections: "5.1,5.3",
        },
        Scenario {
            loop_mode: LoopMode::Open,
            timing: TimingMode::BusyWait,
            pom: PointOfMeasurement::InApp,
            client_tuned: true,
            small_response_time: false,
            risk: false,
            sections: "5.2",
        },
        Scenario {
            loop_mode: LoopMode::Open,
            timing: TimingMode::BusyWait,
            pom: PointOfMeasurement::InApp,
            client_tuned: false,
            small_response_time: false,
            risk: false,
            sections: "5.2",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_match_the_paper() {
        assert_eq!(MEMCACHED_QPS.len(), 7);
        assert_eq!(MEMCACHED_QPS[0], 10_000.0);
        assert_eq!(MEMCACHED_QPS[6], 500_000.0);
        assert_eq!(HDSEARCH_QPS[4], 2_500.0);
        assert_eq!(SOCIALNET_QPS[5], 600.0);
        assert_eq!(SYNTHETIC_DELAYS_US.to_vec(), vec![0, 100, 200, 300, 400]);
        assert_eq!(SYNTHETIC_QPS[3], 20_000.0);
    }

    #[test]
    fn table_iii_has_exactly_one_risky_scenario() {
        let rows = table_iii();
        assert_eq!(rows.len(), 4);
        let risky: Vec<&Scenario> = rows.iter().filter(|s| s.risk).collect();
        assert_eq!(risky.len(), 1);
        // The risky one: time-sensitive, in-app, not tuned, small response.
        let r = risky[0];
        assert_eq!(r.timing, TimingMode::BlockWait);
        assert!(!r.client_tuned);
        assert!(r.small_response_time);
        assert!(r.label().contains("not-tuned"));
        assert!(r.label().contains("time-sensitive"));
    }

    #[test]
    fn study_constructors_build_expected_matrices() {
        let e = memcached_smt_study(&[10_000.0], 2, SimDuration::from_ms(20), 1);
        let r = e.run();
        // 2 clients × 2 servers × 1 qps.
        assert_eq!(r.cells().len(), 4);
        assert!(r.cell("LP", "SMTon", 10_000.0).is_some());
        assert!(r.cell("HP", "SMToff", 10_000.0).is_some());
    }

    #[test]
    fn c1e_study_uses_c1e_scenario() {
        let e = memcached_c1e_study(&[10_000.0], 1, SimDuration::from_ms(10), 2);
        let r = e.run();
        assert!(r.cell("LP", "C1Eon", 10_000.0).is_some());
        assert!(r.cell("LP", "SMToff", 10_000.0).is_some(), "baseline is labelled SMToff per Table IV");
    }
}
