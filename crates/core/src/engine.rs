//! The execution engine: deterministic, parallel, cache-aware running of
//! simulation jobs.
//!
//! Everything that executes runs — [`Experiment`](crate::experiment::Experiment)
//! sweeps, the ready-made [`scenarios`](crate::scenarios) studies and the
//! artefact-regeneration suite in `tpv-bench` — funnels through this
//! module:
//!
//! * [`JobPlan`] enumerates the `(cell, run)` grid and binds each job to a
//!   seed derived from the master seed, the **content** of the cell and
//!   the run index. Because seeds depend on what a job *is* rather than
//!   where it sits in a sweep, execution order cannot change any result,
//!   and the same cell appearing in two different experiments (a shared
//!   baseline across figures, a sub-sweep re-run) draws identical seeds.
//! * [`Engine`] executes a plan on the crate's one thread pool
//!   (`run_indexed`: scoped threads claiming the next task from a shared
//!   counter — no external dependencies), the same pool the sharded
//!   kernel runs its partitions on. Results are reassembled in
//!   `(cell, run)` order, so serial, parallel and shuffled execution are
//!   bit-identical. The scheduling core ([`Engine::execute_jobs`]) is
//!   payload-generic: cached single-client cells ([`Engine::execute`])
//!   and any fleet entry point of [`crate::runtime`] ride the same pool,
//!   the latter handing leftover workers to the shards inside each run
//!   ([`Engine::shard_workers`]).
//! * [`RunCache`] memoizes results keyed by a [`RunSpec`] fingerprint and
//!   seed. Identical jobs shared across experiments — the paper's
//!   baseline cells appear in several figures — execute once per process
//!   when the artefact suite shares one cache.
//!
//! # Example
//!
//! Seeds are content-addressed: the same cell fingerprint draws the same
//! seeds wherever the cell sits in the plan, so reordering or sharing
//! cells across experiments cannot change any result:
//!
//! ```
//! use tpv_core::engine::{Engine, JobPlan};
//!
//! let plan = JobPlan::new(99, &[0xAAAA, 0xBBBB, 0xAAAA], 2);
//! let seeds: Vec<u64> = Engine::serial()
//!     .execute_jobs(&plan, |job| job.seed)
//!     .into_iter()
//!     .map(|(_cell, _run, seed)| seed)
//!     .collect();
//! assert_eq!(seeds[0..2], seeds[4..6]); // cells 0 and 2 share content
//! assert_ne!(seeds[0..2], seeds[2..4]); // cell 1 differs
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use tpv_sim::SimRng;

use crate::runtime::{run_once, RunResult, RunSpec};
use crate::topology::TopologySpec;

/// One schedulable unit of work: a single seeded run of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Index of the cell this job belongs to (caller-defined order).
    pub cell: usize,
    /// Run index within the cell.
    pub run: usize,
    /// The seed `run_once` executes with.
    pub seed: u64,
    /// Content fingerprint of the cell's [`RunSpec`] (cache key half).
    pub fingerprint: u64,
}

/// The deterministic schedule of an experiment: every `(cell, run)` pair
/// with its derived seed.
#[derive(Debug, Clone)]
pub struct JobPlan {
    jobs: Vec<Job>,
}

impl JobPlan {
    /// Builds the plan for `fingerprints.len()` cells × `runs` runs.
    ///
    /// Seeds are a pure function of `(master_seed, cell fingerprint, run
    /// index)`: independent of cell position, sweep shape and execution
    /// order.
    ///
    /// Corollary: two cells with **identical content** (the same
    /// fingerprint twice in one plan) are the same jobs and produce
    /// bit-identical samples — duplicates are deduplicated, not
    /// replicated. An A/A comparison therefore needs distinct master
    /// seeds (or more runs per cell), not a repeated cell.
    pub fn new(master_seed: u64, fingerprints: &[u64], runs: usize) -> Self {
        let seeder = SimRng::seed_from_u64(master_seed);
        let mut jobs = Vec::with_capacity(fingerprints.len() * runs);
        for (cell, &fp) in fingerprints.iter().enumerate() {
            let cell_seeder = seeder.fork(fp);
            for run in 0..runs {
                let mut s = cell_seeder.fork(run as u64);
                jobs.push(Job { cell, run, seed: s.next_u64(), fingerprint: fp });
            }
        }
        JobPlan { jobs }
    }

    /// Randomizes job execution order (OrderSage-style). Seeds travel
    /// with their jobs, so this cannot change any result — the method
    /// exists to document and test that property.
    pub fn shuffled(mut self, order_seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(order_seed);
        rng.shuffle(&mut self.jobs);
        self
    }

    /// The jobs in scheduled order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }
}

/// Counters describing how a [`RunCache`] performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Jobs answered from the cache.
    pub hits: u64,
    /// Jobs that had to execute.
    pub misses: u64,
    /// Distinct results currently stored.
    pub entries: usize,
}

/// A memoizing store of run results keyed by `(spec fingerprint, seed)`.
///
/// Shared (via [`Arc`]) across experiments, it deduplicates the baseline
/// cells that recur across the paper's figures: the same `(spec, seed)`
/// job executes once per process.
#[derive(Debug, Default)]
pub struct RunCache {
    map: Mutex<HashMap<(u64, u64), RunResult>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RunCache {
    /// Creates an empty shareable cache.
    pub fn new() -> Arc<Self> {
        Arc::new(RunCache::default())
    }

    /// Hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("run cache poisoned").len(),
        }
    }

    /// Drops every stored result (counters are kept).
    pub fn clear(&self) {
        self.map.lock().expect("run cache poisoned").clear();
    }

    fn get(&self, key: (u64, u64)) -> Option<RunResult> {
        let found = self.map.lock().expect("run cache poisoned").get(&key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: (u64, u64), result: RunResult) {
        self.map.lock().expect("run cache poisoned").insert(key, result);
    }
}

/// FNV-1a over a value's debug representation — the content digest
/// behind [`fingerprint`], [`fingerprint_topology`] and per-node stream
/// keys.
pub(crate) fn fnv64_debug<T: std::fmt::Debug>(value: &T) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("fingerprint formatting cannot fail");
    h.0
}

/// Content fingerprint of a [`RunSpec`]: a stable 64-bit digest of the
/// spec's full debug representation (configs, load, durations — not the
/// seed).
///
/// Two cells fingerprint equal exactly when every knob that can influence
/// `run_once` is equal, which is what makes the fingerprint a sound cache
/// key and a sound seed-derivation label.
pub fn fingerprint(spec: &RunSpec<'_>) -> u64 {
    fnv64_debug(spec)
}

/// Content fingerprint of a [`TopologySpec`]: the multi-node counterpart
/// of [`fingerprint`], digesting every node (label, machine, generator,
/// link, load) plus the shared service/server/window knobs. Used to
/// content-address fleet cells in a [`JobPlan`], so a fleet cell's seeds
/// are independent of its position in a study's sweep.
pub fn fingerprint_topology(spec: &TopologySpec<'_>) -> u64 {
    fnv64_debug(spec)
}

/// Content fingerprint of a controlled-run cell: the
/// [`ControlSpec`](crate::control::ControlSpec) (fleet, tier, window
/// geometry) plus the policy's stable name. Policies are identified by
/// name rather than digested structurally — a policy is code, and its
/// parameters belong to the study that instantiates it, so studies
/// comparing parameterizations should fold the parameters into `policy`
/// themselves.
pub fn fingerprint_control(spec: &crate::control::ControlSpec, policy: &str) -> u64 {
    fnv64_debug(&(spec, policy))
}

/// The executor: runs a [`JobPlan`] on a pool of `workers` threads,
/// optionally through a shared [`RunCache`].
///
/// Determinism contract: for a fixed plan and specs, [`Engine::execute`]
/// returns bit-identical results whatever the worker count, job order or
/// cache temperature — the paper's "same seed ⇒ same measurement"
/// property survives every execution strategy.
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
    cache: Option<Arc<RunCache>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine using every available core.
    pub fn new() -> Self {
        Engine::with_workers(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
    }

    /// An engine that executes jobs in plan order on the calling thread.
    pub fn serial() -> Self {
        Engine::with_workers(1)
    }

    /// An engine with an explicit worker count (`1` behaves like
    /// [`Engine::serial`]).
    pub fn with_workers(workers: usize) -> Self {
        Engine { workers: workers.max(1), cache: None }
    }

    /// Attaches a shared run cache.
    pub fn with_cache(mut self, cache: Arc<RunCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<RunCache>> {
        self.cache.as_ref()
    }

    /// The worker budget left for the shards *inside* each run of
    /// `plan`: the job pool takes as many workers as the plan has jobs,
    /// and whatever is left over parallelizes each run's shards — a plan
    /// with one job on an 8-way engine runs its shards 8 wide, while a
    /// 50-job study keeps job-level parallelism and runs each job's
    /// shards serially. Pass it as the `workers` of a sharded entry point
    /// of [`crate::runtime`]; results are bit-identical at any split.
    pub fn shard_workers(&self, plan: &JobPlan) -> usize {
        let outer = self.workers.min(plan.jobs().len().max(1));
        (self.workers / outer).max(1)
    }

    /// Runs an arbitrary per-job function over every job of `plan` on
    /// the worker pool (`run_indexed`) and returns `(cell, run,
    /// result)` triples sorted in `(cell, run)` order, independent of
    /// scheduling.
    ///
    /// This is the engine's scheduling core; [`Engine::execute`] (cached
    /// `RunSpec` jobs) is a thin layer over it. Use it directly for fleet
    /// runs and custom job payloads that should inherit the engine's
    /// determinism contract. Fleet jobs bypass the [`RunCache`]: per-node
    /// payloads are large relative to an aggregate [`RunResult`] and
    /// fleet cells are study-specific, so memoization would trade memory
    /// for no reuse.
    pub fn execute_jobs<R, F>(&self, plan: &JobPlan, run: F) -> Vec<(usize, usize, R)>
    where
        R: Send,
        F: Fn(&Job) -> R + Sync,
    {
        let jobs = plan.jobs();
        let mut results = run_indexed(jobs.len(), self.workers, |i| {
            let job = &jobs[i];
            (job.cell, job.run, run(job))
        });
        results.sort_by_key(|&(cell, run, _)| (cell, run));
        results
    }

    /// Executes every job of `plan`, materialising each cell's spec with
    /// `spec_of`, and returns `(cell, run, result)` triples sorted in
    /// `(cell, run)` order — independent of scheduling.
    pub fn execute<'s, F>(&self, plan: &JobPlan, spec_of: F) -> Vec<(usize, usize, RunResult)>
    where
        F: Fn(usize) -> RunSpec<'s> + Sync,
    {
        self.execute_jobs(plan, |job| self.execute_job(job, &spec_of))
    }

    /// Runs one job, consulting the cache when one is attached.
    fn execute_job<'s, F>(&self, job: &Job, spec_of: &F) -> RunResult
    where
        F: Fn(usize) -> RunSpec<'s>,
    {
        let key = (job.fingerprint, job.seed);
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.get(key) {
                return hit;
            }
        }
        let result = run_once(&spec_of(job.cell), job.seed);
        if let Some(cache) = &self.cache {
            cache.insert(key, result.clone());
        }
        result
    }
}

/// The workspace's one thread pool: runs `task(i)` for every `i` in
/// `0..tasks` on `min(workers, tasks)` scoped threads and returns the
/// results in index order, whatever the schedule.
///
/// Each worker claims the next unclaimed index from one shared counter,
/// so a long task cannot idle the pool. With one worker the tasks run in
/// index order on the calling thread. A panicking task re-raises its own
/// payload on the calling thread.
pub(crate) fn run_indexed<R, F>(tasks: usize, workers: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(tasks);
    if workers <= 1 {
        return (0..tasks).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, task) = (&next, &task);
                scope.spawn(move || {
                    let mut claimed = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            return claimed;
                        }
                        claimed.push((i, task(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpv_hw::MachineConfig;
    use tpv_loadgen::GeneratorSpec;
    use tpv_net::LinkConfig;
    use tpv_services::kv::KvConfig;
    use tpv_services::{ServiceConfig, ServiceKind};
    use tpv_sim::SimDuration;

    fn service() -> ServiceConfig {
        ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
            preload_keys: 1_000,
            ..KvConfig::default()
        }))
    }

    struct SpecParts {
        service: ServiceConfig,
        client: MachineConfig,
        server: MachineConfig,
        generator: GeneratorSpec,
        link: LinkConfig,
    }

    fn parts(client: MachineConfig) -> SpecParts {
        SpecParts {
            service: service(),
            client,
            server: MachineConfig::server_baseline(),
            generator: GeneratorSpec::mutilate(),
            link: LinkConfig::cloudlab_lan(),
        }
    }

    fn spec_of(p: &SpecParts, qps: f64) -> RunSpec<'_> {
        RunSpec {
            service: &p.service,
            server: &p.server,
            client: &p.client,
            generator: &p.generator,
            link: &p.link,
            qps,
            duration: SimDuration::from_ms(20),
            warmup: SimDuration::from_ms(2),
        }
    }

    #[test]
    fn fingerprint_separates_content_not_identity() {
        let lp = parts(MachineConfig::low_power());
        let lp2 = parts(MachineConfig::low_power());
        let hp = parts(MachineConfig::high_performance());
        assert_eq!(fingerprint(&spec_of(&lp, 1000.0)), fingerprint(&spec_of(&lp2, 1000.0)));
        assert_ne!(fingerprint(&spec_of(&lp, 1000.0)), fingerprint(&spec_of(&hp, 1000.0)));
        assert_ne!(fingerprint(&spec_of(&lp, 1000.0)), fingerprint(&spec_of(&lp, 2000.0)));
    }

    #[test]
    fn plan_seeds_are_content_addressed() {
        let a = JobPlan::new(7, &[11, 22], 3);
        assert_eq!(a.jobs().len(), 6);
        // Same fingerprint at a different position ⇒ same seeds.
        let b = JobPlan::new(7, &[99, 11], 3);
        let seeds_a: Vec<u64> = a.jobs().iter().filter(|j| j.fingerprint == 11).map(|j| j.seed).collect();
        let seeds_b: Vec<u64> = b.jobs().iter().filter(|j| j.fingerprint == 11).map(|j| j.seed).collect();
        assert_eq!(seeds_a, seeds_b);
        // Distinct runs and distinct cells get distinct seeds.
        let mut all: Vec<u64> = a.jobs().iter().map(|j| j.seed).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn shuffle_keeps_the_job_set() {
        let plan = JobPlan::new(1, &[5, 6, 7], 4);
        let mut original = plan.jobs().to_vec();
        let shuffled = plan.clone().shuffled(99);
        let mut reordered = shuffled.jobs().to_vec();
        original.sort_by_key(|j| (j.cell, j.run));
        reordered.sort_by_key(|j| (j.cell, j.run));
        assert_eq!(original, reordered);
    }

    #[test]
    fn engine_modes_agree_and_cache_replays() {
        let p = parts(MachineConfig::high_performance());
        let spec = spec_of(&p, 50_000.0);
        let plan = JobPlan::new(3, &[fingerprint(&spec)], 4);

        let serial = Engine::serial().execute(&plan, |_| spec);
        let parallel = Engine::with_workers(4).execute(&plan, |_| spec);
        assert_eq!(serial, parallel);

        let cache = RunCache::new();
        let engine = Engine::with_workers(4).with_cache(Arc::clone(&cache));
        let cold = engine.execute(&plan, |_| spec);
        assert_eq!(serial, cold);
        let after_cold = cache.stats();
        assert_eq!(after_cold.misses, 4);
        assert_eq!(after_cold.entries, 4);

        let warm = engine.execute(&plan, |_| spec);
        assert_eq!(serial, warm);
        let after_warm = cache.stats();
        assert_eq!(after_warm.hits, 4);
        assert_eq!(after_warm.misses, 4, "warm pass must not re-execute");

        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn execute_jobs_reassembles_in_cell_run_order() {
        let plan = JobPlan::new(5, &[1, 2, 3], 4).shuffled(17);
        // A cheap payload that records which job ran.
        let serial = Engine::serial().execute_jobs(&plan, |job| job.seed);
        let parallel = Engine::with_workers(4).execute_jobs(&plan, |job| job.seed);
        assert_eq!(serial, parallel, "scheduling must not reorder results");
        let coords: Vec<(usize, usize)> = serial.iter().map(|&(c, r, _)| (c, r)).collect();
        let mut sorted = coords.clone();
        sorted.sort_unstable();
        assert_eq!(coords, sorted, "results must arrive in (cell, run) order");
    }

    #[test]
    fn pool_runs_every_index_once_and_returns_index_order() {
        for tasks in [0, 1, 17] {
            for workers in 1..=8 {
                let runs: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
                let out = run_indexed(tasks, workers, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * 10
                });
                let expected: Vec<usize> = (0..tasks).map(|i| i * 10).collect();
                assert_eq!(out, expected, "{tasks} tasks on {workers} workers: results out of index order");
                for (i, n) in runs.iter().enumerate() {
                    assert_eq!(n.load(Ordering::Relaxed), 1, "{tasks} tasks on {workers} workers: task {i}");
                }
            }
        }
    }

    #[test]
    fn pool_returns_index_order_when_task_zero_finishes_last() {
        const TASKS: usize = 17;
        for workers in 1..=8 {
            let finished = AtomicUsize::new(0);
            let out = run_indexed(TASKS, workers, |i| {
                if i == 0 && workers > 1 {
                    // The long task: it outlasts every other task, which
                    // the other workers drain meanwhile.
                    while finished.load(Ordering::Acquire) < TASKS - 1 {
                        std::thread::yield_now();
                    }
                }
                finished.fetch_add(1, Ordering::Release);
                i
            });
            assert_eq!(out, (0..TASKS).collect::<Vec<_>>(), "{workers} workers: results out of index order");
        }
    }

    #[test]
    #[should_panic(expected = "task 3 failed")]
    fn pool_reraises_a_task_panic() {
        run_indexed(8, 4, |i| assert!(i != 3, "task {i} failed"));
    }

    #[test]
    fn topology_execution_is_parallelism_invariant() {
        use crate::runtime::run_fleet;
        use crate::topology::{uniform_fleet, TopologySpec};
        use tpv_loadgen::GeneratorSpec;
        use tpv_net::LinkConfig;

        let service = service();
        let server = MachineConfig::server_baseline();
        let nodes = uniform_fleet(
            "agent",
            MachineConfig::high_performance(),
            GeneratorSpec::mutilate(),
            LinkConfig::cloudlab_lan(),
            60_000.0,
            3,
        );
        let topo = TopologySpec {
            shards: None,
            service: &service,
            server: &server,
            nodes: &nodes,
            duration: SimDuration::from_ms(25),
            warmup: SimDuration::from_ms(3),
            cohorts: &[],
        };
        let plan = JobPlan::new(9, &[fingerprint_topology(&topo)], 3);
        let run = |seed| run_fleet(&topo, seed, 1).expect("valid topology");
        let serial = Engine::serial().execute_jobs(&plan, |job| run(job.seed));
        let parallel = Engine::with_workers(4).execute_jobs(&plan, |job| run(job.seed));
        assert_eq!(serial, parallel, "fleet runs must be bit-identical across parallelism");
        assert_eq!(serial.len(), 3);
        assert_eq!(serial[0].2.nodes.len(), 3);
        // Distinct seeds per run: fresh environments per fleet run.
        assert_ne!(serial[0].2.aggregate, serial[1].2.aggregate);
    }

    #[test]
    fn topology_fingerprint_is_content_addressed() {
        use crate::topology::{uniform_fleet, ClientNode, TopologySpec};
        use tpv_loadgen::GeneratorSpec;
        use tpv_net::LinkConfig;

        fn spec<'a>(
            service: &'a ServiceConfig,
            server: &'a MachineConfig,
            nodes: &'a [ClientNode],
        ) -> TopologySpec<'a> {
            TopologySpec {
                shards: None,
                service,
                server,
                nodes,
                duration: SimDuration::from_ms(20),
                warmup: SimDuration::from_ms(2),
                cohorts: &[],
            }
        }

        let svc = service();
        let server = MachineConfig::server_baseline();
        let mk = |count: usize, qps: f64| {
            uniform_fleet(
                "n",
                MachineConfig::high_performance(),
                GeneratorSpec::mutilate(),
                LinkConfig::cloudlab_lan(),
                qps,
                count,
            )
        };
        let a = mk(2, 50_000.0);
        let b = mk(2, 50_000.0);
        let c = mk(4, 50_000.0);
        let fa = fingerprint_topology(&spec(&svc, &server, &a));
        assert_eq!(fa, fingerprint_topology(&spec(&svc, &server, &b)));
        assert_ne!(fa, fingerprint_topology(&spec(&svc, &server, &c)));
    }
}
