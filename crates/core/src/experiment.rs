//! Experiments: scenario matrices of (benchmark × client × server × load).
//!
//! An [`Experiment`] is the unit of the paper's §V studies: it sweeps a
//! QPS range for every (client-config, server-scenario) pair, executing
//! `runs` independent seeded runs per cell — "each experiment is the
//! average of 50 runs … In between runs we reset the environment".

use tpv_hw::{CStatePolicy, MachineConfig};
use tpv_loadgen::GeneratorSpec;
use tpv_net::LinkConfig;
use tpv_services::hdsearch::HdSearchConfig;
use tpv_services::kv::KvConfig;
use tpv_services::socialnet::SocialConfig;
use tpv_services::synthetic::SyntheticConfig;
use tpv_services::{ServiceConfig, ServiceKind};
use tpv_sim::SimDuration;

use crate::analysis::Summary;
use crate::engine::{fingerprint, Engine, JobPlan};
use crate::runtime::{RunResult, RunSpec};

/// A benchmark: the service under test plus the generator that drives it.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Human-readable name used in reports.
    pub name: String,
    /// The service and its interference profile.
    pub service: ServiceConfig,
    /// The workload generator deployment (§II taxonomy).
    pub generator: GeneratorSpec,
    /// The client↔server network.
    pub link: LinkConfig,
}

impl Benchmark {
    /// Memcached with the ETC workload driven by mutilate (§IV-B).
    pub fn memcached() -> Self {
        Benchmark {
            name: "memcached".into(),
            service: ServiceConfig::new(ServiceKind::Memcached(KvConfig::default())),
            generator: GeneratorSpec::mutilate(),
            link: LinkConfig::cloudlab_lan(),
        }
    }

    /// HDSearch driven by the µSuite busy-wait client (§IV-B).
    pub fn hdsearch() -> Self {
        Benchmark {
            name: "hdsearch".into(),
            service: ServiceConfig::new(ServiceKind::HdSearch(HdSearchConfig::default())),
            generator: GeneratorSpec::microsuite_client(),
            link: LinkConfig::cloudlab_lan(),
        }
    }

    /// Social Network (read-user-timeline) driven by wrk2 (§IV-B).
    pub fn social_network() -> Self {
        Benchmark {
            name: "socialnet".into(),
            service: ServiceConfig::new(ServiceKind::SocialNetwork(SocialConfig::default())),
            generator: GeneratorSpec::wrk2(),
            link: LinkConfig::cloudlab_lan(),
        }
    }

    /// The synthetic service with the given added busy-wait delay (§IV-B).
    pub fn synthetic(added_delay: SimDuration) -> Self {
        Benchmark {
            name: format!("synthetic+{}us", added_delay.as_us()),
            service: ServiceConfig::new(ServiceKind::Synthetic(SyntheticConfig::with_delay(added_delay))),
            generator: GeneratorSpec::synthetic_client(),
            link: LinkConfig::cloudlab_lan(),
        }
    }
}

/// A named server-side configuration, the variable of the §V-A studies.
#[derive(Debug, Clone)]
pub struct ServerScenario {
    /// Name used in reports ("SMToff", "C1Eon", …).
    pub name: String,
    /// The configuration.
    pub config: MachineConfig,
}

impl ServerScenario {
    /// The paper's server baseline (Table II): SMT off, C-states C0/C1.
    pub fn baseline() -> Self {
        ServerScenario { name: "SMToff".into(), config: MachineConfig::server_baseline() }
    }

    /// Baseline with SMT enabled (the §V-A SMT study variant).
    pub fn smt_on() -> Self {
        ServerScenario { name: "SMTon".into(), config: MachineConfig::server_baseline().with_smt(true) }
    }

    /// Baseline with C1E enabled (the §V-A C1E study variant).
    pub fn c1e_on() -> Self {
        ServerScenario {
            name: "C1Eon".into(),
            config: MachineConfig::server_baseline().with_cstates(CStatePolicy::UpToC1E),
        }
    }
}

/// A fully specified experiment (built via [`Experiment::builder`]).
#[derive(Debug, Clone)]
pub struct Experiment {
    benchmark: Benchmark,
    clients: Vec<(String, MachineConfig)>,
    servers: Vec<ServerScenario>,
    qps: Vec<f64>,
    runs: usize,
    duration: SimDuration,
    warmup: SimDuration,
    seed: u64,
}

/// Builder for [`Experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    inner: Experiment,
}

impl Experiment {
    /// Starts building an experiment on a benchmark.
    pub fn builder(benchmark: Benchmark) -> ExperimentBuilder {
        ExperimentBuilder {
            inner: Experiment {
                benchmark,
                clients: Vec::new(),
                servers: Vec::new(),
                qps: Vec::new(),
                runs: 20,
                duration: SimDuration::from_ms(200),
                warmup: SimDuration::from_ms(20),
                seed: 0xC1DE,
            },
        }
    }

    /// Executes every cell of the matrix on a fresh [`Engine`] using
    /// every available core.
    ///
    /// # Panics
    ///
    /// Panics if no client, server or QPS point was configured.
    pub fn run(&self) -> ExperimentResults {
        self.run_with(&Engine::new())
    }

    /// Executes every cell of the matrix through the given engine.
    ///
    /// Results are bit-identical whatever the engine's parallelism or
    /// cache temperature: the [`JobPlan`] binds a content-derived seed to
    /// every `(cell, run)` pair and the engine reassembles results in
    /// `(cell, run)` order. Two cells with identical content (say, the
    /// same client added twice) are therefore the same jobs and return
    /// bit-identical samples — see [`JobPlan::new`].
    ///
    /// # Panics
    ///
    /// Panics if no client, server or QPS point was configured.
    pub fn run_with(&self, engine: &Engine) -> ExperimentResults {
        assert!(!self.clients.is_empty(), "experiment needs at least one client config");
        assert!(!self.servers.is_empty(), "experiment needs at least one server scenario");
        assert!(!self.qps.is_empty(), "experiment needs at least one QPS point");
        assert!(self.runs >= 1, "experiment needs at least one run");

        // Enumerate cells.
        let mut cells: Vec<Cell> = Vec::new();
        for (client_label, client) in &self.clients {
            for server in &self.servers {
                for &qps in &self.qps {
                    cells.push(Cell {
                        client_label: client_label.clone(),
                        client: *client,
                        server_label: server.name.clone(),
                        server: server.config,
                        qps,
                        samples: Vec::with_capacity(self.runs),
                    });
                }
            }
        }

        let specs: Vec<RunSpec<'_>> = cells.iter().map(|cell| self.spec_for(cell)).collect();
        let fingerprints: Vec<u64> = specs.iter().map(fingerprint).collect();
        let plan = JobPlan::new(self.seed, &fingerprints, self.runs);

        let results = engine.execute(&plan, |ci| specs[ci]);

        // `execute` returns (cell, run)-ordered triples; distribute them.
        let mut samples: Vec<Vec<RunResult>> = vec![Vec::with_capacity(self.runs); cells.len()];
        for (ci, _, r) in results {
            samples[ci].push(r);
        }
        for (cell, runs) in cells.iter_mut().zip(samples) {
            cell.samples = runs;
        }

        ExperimentResults { cells }
    }

    /// The fully-bound spec for one cell (what the engine fingerprints,
    /// seeds and executes).
    fn spec_for<'a>(&'a self, cell: &'a Cell) -> RunSpec<'a> {
        RunSpec {
            service: &self.benchmark.service,
            server: &cell.server,
            client: &cell.client,
            generator: &self.benchmark.generator,
            link: &self.benchmark.link,
            qps: cell.qps,
            duration: self.duration,
            warmup: self.warmup,
        }
    }
}

impl ExperimentBuilder {
    /// Adds a client configuration (labelled LP/HP automatically for the
    /// Table II presets).
    pub fn client(mut self, config: MachineConfig) -> Self {
        self.inner.clients.push((config.label(), config));
        self
    }

    /// Adds a client configuration with an explicit label.
    pub fn client_labelled(mut self, label: impl Into<String>, config: MachineConfig) -> Self {
        self.inner.clients.push((label.into(), config));
        self
    }

    /// Adds a server scenario.
    pub fn server(mut self, scenario: ServerScenario) -> Self {
        self.inner.servers.push(scenario);
        self
    }

    /// Sets the QPS sweep.
    pub fn qps(mut self, qps: &[f64]) -> Self {
        self.inner.qps = qps.to_vec();
        self
    }

    /// Sets the number of runs per cell (the paper: 50).
    pub fn runs(mut self, runs: usize) -> Self {
        self.inner.runs = runs;
        self
    }

    /// Sets the per-run duration (the paper: 2 minutes).
    pub fn run_duration(mut self, duration: SimDuration) -> Self {
        self.inner.duration = duration;
        self.inner.warmup = duration / 10;
        self
    }

    /// Sets the experiment master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Finalizes the experiment.
    pub fn build(self) -> Experiment {
        self.inner
    }
}

/// One matrix cell: a (client, server, qps) combination and its runs.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Label of the client configuration ("LP"/"HP"/custom).
    pub client_label: String,
    /// The client configuration.
    pub client: MachineConfig,
    /// Label of the server scenario.
    pub server_label: String,
    /// The server configuration.
    pub server: MachineConfig,
    /// Offered load.
    pub qps: f64,
    /// One [`RunResult`] per run.
    pub samples: Vec<RunResult>,
}

impl Cell {
    /// Statistical summary of this cell's runs.
    pub fn summary(&self) -> Summary {
        Summary::from_runs(&self.samples)
    }

    /// `"LP-SMToff"`-style key matching the paper's figure legends.
    pub fn key(&self) -> String {
        format!("{}-{}", self.client_label, self.server_label)
    }
}

/// All cells of an executed experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    cells: Vec<Cell>,
}

impl ExperimentResults {
    /// All cells, in (client, server, qps) declaration order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The cell for an exact (client, server, qps) coordinate.
    pub fn cell(&self, client_label: &str, server_label: &str, qps: f64) -> Option<&Cell> {
        self.cells.iter().find(|c| {
            c.client_label == client_label && c.server_label == server_label && (c.qps - qps).abs() < 1e-9
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_experiment() -> Experiment {
        let mut bench = Benchmark::memcached();
        bench.service = ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
            preload_keys: 1_000,
            ..KvConfig::default()
        }));
        Experiment::builder(bench)
            .client(MachineConfig::low_power())
            .client(MachineConfig::high_performance())
            .server(ServerScenario::baseline())
            .qps(&[50_000.0])
            .runs(3)
            .run_duration(SimDuration::from_ms(30))
            .seed(11)
            .build()
    }

    #[test]
    fn matrix_has_expected_cells() {
        let results = tiny_experiment().run();
        assert_eq!(results.cells().len(), 2);
        let lp = results.cell("LP", "SMToff", 50_000.0).unwrap();
        assert_eq!(lp.samples.len(), 3);
        assert_eq!(lp.key(), "LP-SMToff");
        assert!(results.cell("XX", "SMToff", 50_000.0).is_none());
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let exp = tiny_experiment();
        let par = exp.run_with(&Engine::with_workers(4));
        let seq = exp.run_with(&Engine::serial());
        for (a, b) in par.cells().iter().zip(seq.cells()) {
            assert_eq!(a.samples, b.samples, "cell {} differs", a.key());
        }
    }

    #[test]
    fn seeds_differ_across_runs_and_cells() {
        let results = tiny_experiment().run();
        let lp = &results.cells()[0];
        assert_ne!(lp.samples[0], lp.samples[1], "runs must differ (fresh environment)");
        let hp = &results.cells()[1];
        assert_ne!(lp.samples[0], hp.samples[0], "cells must differ");
    }

    #[test]
    #[should_panic(expected = "at least one QPS")]
    fn empty_sweep_panics() {
        let bench = Benchmark::memcached();
        Experiment::builder(bench)
            .client(MachineConfig::low_power())
            .server(ServerScenario::baseline())
            .build()
            .run();
    }

    #[test]
    fn scenario_presets() {
        assert_eq!(ServerScenario::baseline().name, "SMToff");
        assert!(ServerScenario::smt_on().config.smt.enabled);
        assert!(ServerScenario::c1e_on().config.cstates.allows(tpv_hw::CState::C1E));
        // Benchmarks expose the right generators.
        assert_eq!(Benchmark::hdsearch().generator.timing, tpv_loadgen::TimingMode::BusyWait);
        assert_eq!(Benchmark::social_network().generator.connections, 20);
        assert!(Benchmark::synthetic(SimDuration::from_us(100)).name.contains("100"));
    }
}
