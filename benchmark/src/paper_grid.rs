//! `paper_grid`: the paper's single-client study cells — hundreds of
//! short runs through one cached `Engine`, then the paper's statistics on
//! every cell. This is where `all_experiments` spends its time, so per-run
//! set-up, job scheduling, the run cache and `tpv_stats` carry weight
//! here, while shard pools and collector merges do no work.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tpv_core::collect::NullCollector;
use tpv_core::engine::{fingerprint, Engine, JobPlan, RunCache};
use tpv_core::experiment::{Benchmark, Experiment, ServerScenario};
use tpv_core::runtime::{run_collected, RunResult, RunSpec};
use tpv_core::scenarios;
use tpv_core::topology::TopologySpec;
use tpv_hw::MachineConfig;
use tpv_sim::{SimDuration, SimRng};
use tpv_stats::desc;

use crate::trace::{digest, StatsTimer, Timed};
use crate::workload::{guarded, Group, GroupWork, Layers, Rep, Workload};

/// Runs per cell: enough for Shapiro–Wilk (n ≥ 3) and Mann–Whitney.
const RUNS: usize = 6;
const MEMCACHED_QPS: [f64; 3] = [50_000.0, 200_000.0, 400_000.0];
const MEMCACHED_MS: u64 = 20;
const HDSEARCH_QPS: [f64; 3] = [500.0, 1_500.0, 2_500.0];
const HDSEARCH_MS: u64 = 200;
const SOCIALNET_QPS: [f64; 3] = [100.0, 300.0, 600.0];
const SOCIALNET_MS: u64 = 400;

/// One study of the grid: the experiment as the scenario builder makes
/// it, plus the coordinates of its cells in the builder's enumeration
/// order (clients × servers × qps), which the traced pass re-binds into
/// the same `RunSpec`s the experiment fingerprints.
struct Study {
    experiment: Experiment,
    benchmark: Benchmark,
    group: usize,
    servers: Vec<ServerScenario>,
    qps: Vec<f64>,
    duration: SimDuration,
}

impl Study {
    fn cells(&self) -> Vec<(MachineConfig, MachineConfig, f64)> {
        let clients = [MachineConfig::low_power(), MachineConfig::high_performance()];
        let mut cells = Vec::new();
        for client in clients {
            for server in &self.servers {
                for &qps in &self.qps {
                    cells.push((client, server.config, qps));
                }
            }
        }
        cells
    }
}

/// The `paper_grid` workload.
pub struct PaperGrid {
    studies: Vec<Study>,
    seed: u64,
    workers: usize,
}

impl PaperGrid {
    /// Builds the grid's four studies from `seed`.
    pub fn new(seed: u64, workers: usize) -> Self {
        let ms = SimDuration::from_ms;
        let study = |experiment, benchmark, group, servers, qps: &[f64], duration| Study {
            experiment,
            benchmark,
            group,
            servers,
            qps: qps.to_vec(),
            duration,
        };
        let base_smt = vec![ServerScenario::baseline(), ServerScenario::smt_on()];
        let studies = vec![
            study(
                scenarios::memcached_smt_study(&MEMCACHED_QPS, RUNS, ms(MEMCACHED_MS), seed),
                Benchmark::memcached(),
                0,
                base_smt.clone(),
                &MEMCACHED_QPS,
                ms(MEMCACHED_MS),
            ),
            // Shares its SMToff baseline cells with the SMT study, so
            // those jobs come from the run cache.
            study(
                scenarios::memcached_c1e_study(&MEMCACHED_QPS, RUNS, ms(MEMCACHED_MS), seed),
                Benchmark::memcached(),
                0,
                vec![ServerScenario::baseline(), ServerScenario::c1e_on()],
                &MEMCACHED_QPS,
                ms(MEMCACHED_MS),
            ),
            study(
                scenarios::hdsearch_smt_study(&HDSEARCH_QPS, RUNS, ms(HDSEARCH_MS), seed),
                Benchmark::hdsearch(),
                1,
                base_smt,
                &HDSEARCH_QPS,
                ms(HDSEARCH_MS),
            ),
            study(
                scenarios::socialnet_study(&SOCIALNET_QPS, RUNS, ms(SOCIALNET_MS), seed),
                Benchmark::social_network(),
                2,
                vec![ServerScenario::baseline()],
                &SOCIALNET_QPS,
                ms(SOCIALNET_MS),
            ),
        ];
        PaperGrid { studies, seed, workers }
    }

    fn jobs(&self) -> u64 {
        self.studies.iter().map(|s| (s.cells().len() * RUNS) as u64).sum()
    }
}

/// The paper's statistics on every cell: normality of the p99s, a
/// bootstrap CI of the median mean latency, Jain's repetition count, and
/// an LP-vs-HP Mann–Whitney test per (server, qps). Returns the results'
/// `Debug` text for the digest.
fn analyse(samples: &[Vec<RunResult>], timer: &mut StatsTimer) -> String {
    let avgs: Vec<Vec<f64>> =
        samples.iter().map(|runs| runs.iter().map(RunResult::avg_us).collect()).collect();
    let p99s: Vec<Vec<f64>> =
        samples.iter().map(|runs| runs.iter().map(RunResult::p99_us).collect()).collect();
    let mut out = String::new();
    for (cell, (avg, p99)) in avgs.iter().zip(&p99s).enumerate() {
        let mut rng = SimRng::seed_from_u64(cell as u64);
        let normal = timer.call(|| tpv_stats::shapiro_wilk(p99));
        let ci = timer.call(|| tpv_stats::bootstrap_ci(avg, desc::median, 0.95, 1_000, &mut rng));
        let reps = timer.call(|| tpv_stats::repetitions::jain_sample_size_of(avg, 5.0, 0.95));
        out += &format!("{normal:?}{ci:?}{reps}");
    }
    // Cells enumerate clients (LP, HP) outermost: LP cell i pairs with
    // HP cell i + half.
    let half = p99s.len() / 2;
    for i in 0..half {
        let verdict = timer.call(|| tpv_stats::mann_whitney_u(&p99s[i], &p99s[i + half]));
        out += &format!("{verdict:?}");
    }
    out
}

fn rep_digest(per_study: &[Vec<Vec<RunResult>>], analyses: &[String]) -> u64 {
    digest(&(per_study, analyses))
}

impl Workload for PaperGrid {
    fn warm_up(&self) {
        let throwaway = Engine::with_workers(1);
        let exp =
            scenarios::memcached_smt_study(&MEMCACHED_QPS[..1], 1, SimDuration::from_ms(MEMCACHED_MS), 0);
        exp.run_with(&throwaway);
    }

    fn run(&self) -> Rep {
        let start = Instant::now();
        let mut rep = Rep { jobs: self.jobs(), ..Rep::default() };
        let outcome = guarded(|| {
            let cache = RunCache::new();
            let engine = Engine::with_workers(self.workers).with_cache(Arc::clone(&cache));
            let mut per_study = Vec::with_capacity(self.studies.len());
            let mut analyses = Vec::with_capacity(self.studies.len());
            let mut timer = StatsTimer::default();
            for study in &self.studies {
                let t = Instant::now();
                let results = study.experiment.run_with(&engine);
                rep.sim += t.elapsed();
                let samples: Vec<Vec<RunResult>> =
                    results.cells().iter().map(|c| c.samples.clone()).collect();
                analyses.push(analyse(&samples, &mut timer));
                per_study.push(samples);
            }
            (per_study, analyses, cache.stats().hits)
        });
        rep.wall = start.elapsed();
        match outcome {
            Some((per_study, analyses, hits)) => {
                rep.cache_hits = hits;
                rep.digest = rep_digest(&per_study, &analyses);
            }
            None => rep.failed = rep.jobs,
        }
        rep
    }

    fn trace(&self) -> (Rep, Layers) {
        let start = Instant::now();
        let mut rep = Rep { jobs: self.jobs(), ..Rep::default() };
        let mut layers =
            Layers { workers: self.workers, groups: vec![GroupWork::default(); 3], ..Layers::default() };
        // The benchmark's stand-in for the engine's `RunCache`: the same
        // `(fingerprint, seed)` key, so hits land on the same jobs.
        let memo: Mutex<HashMap<(u64, u64), RunResult>> = Mutex::new(HashMap::new());
        let engine = Engine::with_workers(self.workers);
        let mut per_study = Vec::with_capacity(self.studies.len());
        let mut analyses = Vec::with_capacity(self.studies.len());
        let mut timer = StatsTimer::default();
        for study in &self.studies {
            let cells = study.cells();
            let specs: Vec<RunSpec<'_>> = cells
                .iter()
                .map(|(client, server, qps)| RunSpec {
                    service: &study.benchmark.service,
                    server,
                    client,
                    generator: &study.benchmark.generator,
                    link: &study.benchmark.link,
                    qps: *qps,
                    duration: study.duration,
                    warmup: study.duration / 10,
                })
                .collect();
            let fingerprints: Vec<u64> = specs.iter().map(fingerprint).collect();
            let plan = JobPlan::new(self.seed, &fingerprints, RUNS);
            let t = Instant::now();
            let out = engine.execute_jobs(&plan, |job| {
                let job_start = Instant::now();
                let key = (job.fingerprint, job.seed);
                let hit = memo.lock().expect("memo poisoned").get(&key).cloned();
                if let Some(result) = hit {
                    return (Some(result), None, job_start.elapsed());
                }
                let spec = &specs[job.cell];
                let nodes = [spec.client_node()];
                let topo = TopologySpec {
                    shards: None,
                    service: spec.service,
                    server: spec.server,
                    nodes: &nodes,
                    duration: spec.duration,
                    warmup: spec.warmup,
                    cohorts: &[],
                };
                let mut collector = Timed::new(NullCollector);
                let entry = Instant::now();
                let result = guarded(|| run_collected(&topo, job.seed, &mut collector));
                let exit = Instant::now();
                if let Some(r) = &result {
                    memo.lock().expect("memo poisoned").insert(key, r.clone());
                }
                (result, Some((collector.hooks, collector.span(entry, exit))), job_start.elapsed())
            });
            let pool = t.elapsed();
            rep.sim += pool;
            layers.pool_wall += pool;
            let mut samples: Vec<Vec<RunResult>> = vec![Vec::with_capacity(RUNS); cells.len()];
            for (cell, _, (result, traced, took)) in out {
                layers.job_ms.push(took.as_secs_f64() * 1e3);
                layers.pool_busy += took;
                match traced {
                    None => rep.cache_hits += 1,
                    Some((hooks, span)) => {
                        let work = &mut layers.groups[study.group];
                        work.hooks.add(&hooks);
                        work.event_loop += span.event_loop;
                        layers.span.add(&span);
                        layers.kernel_calls += 1;
                        if !result.as_ref().is_some_and(|r| hooks.balance(r)) {
                            rep.failed += 1;
                        }
                    }
                }
                // A missing result already failed its books above.
                if let Some(r) = result {
                    samples[cell].push(r);
                }
            }
            analyses.push(analyse(&samples, &mut timer));
            per_study.push(samples);
        }
        rep.wall = start.elapsed();
        rep.digest = rep_digest(&per_study, &analyses);
        layers.stats = (timer.calls, timer.busy);
        (rep, layers)
    }

    fn groups(&self) -> Vec<Group> {
        let group = |bench: Benchmark, qps: &[f64], ms: u64, staged| {
            let mean_qps = qps.iter().sum::<f64>() / qps.len() as f64;
            Group {
                service: bench.service,
                server: MachineConfig::server_baseline(),
                clients: vec![MachineConfig::low_power(), MachineConfig::high_performance()],
                generator: bench.generator,
                link: bench.link,
                node_qps: mean_qps,
                server_qps: mean_qps,
                duration: SimDuration::from_ms(ms),
                staged,
            }
        };
        vec![
            group(Benchmark::memcached(), &MEMCACHED_QPS, MEMCACHED_MS, false),
            group(Benchmark::hdsearch(), &HDSEARCH_QPS, HDSEARCH_MS, true),
            group(Benchmark::social_network(), &SOCIALNET_QPS, SOCIALNET_MS, true),
        ]
    }
}
