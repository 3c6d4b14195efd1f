//! Tier-1 engine determinism: `Experiment::run` must produce
//! bit-identical `ExperimentResults` whatever the execution strategy —
//! serial, parallel, shuffled job order, and run-cache cold vs. warm —
//! at a fixed seed. This is the contract the whole artefact-regeneration
//! suite (shared caches across figures) rests on.

use std::sync::Arc;

use tpv::core::engine::{fingerprint, Engine, JobPlan, RunCache};
use tpv::core::experiment::{Benchmark, Experiment, ExperimentResults, ServerScenario};
use tpv::core::runtime::RunSpec;
use tpv::hw::MachineConfig;
use tpv::services::kv::KvConfig;
use tpv::services::{ServiceConfig, ServiceKind};
use tpv::sim::SimDuration;

fn experiment(qps: &[f64]) -> Experiment {
    let mut bench = Benchmark::memcached();
    bench.service = ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
        preload_keys: 1_000,
        ..KvConfig::default()
    }));
    Experiment::builder(bench)
        .client(MachineConfig::low_power())
        .client(MachineConfig::high_performance())
        .server(ServerScenario::baseline())
        .qps(qps)
        .runs(3)
        .run_duration(SimDuration::from_ms(30))
        .seed(2024)
        .build()
}

fn assert_identical(a: &ExperimentResults, b: &ExperimentResults, what: &str) {
    assert_eq!(a.cells().len(), b.cells().len(), "{what}: cell counts differ");
    for (ca, cb) in a.cells().iter().zip(b.cells()) {
        assert_eq!(ca.key(), cb.key(), "{what}: cell order differs");
        assert_eq!(ca.samples, cb.samples, "{what}: cell {} differs", ca.key());
    }
}

#[test]
fn parallel_serial_and_cached_execution_are_bit_identical() {
    let exp = experiment(&[50_000.0]);

    let serial = exp.run_with(&Engine::serial());
    let parallel = exp.run_with(&Engine::with_workers(8));
    assert_identical(&serial, &parallel, "serial vs parallel");

    let default = exp.run();
    assert_identical(&serial, &default, "serial vs default engine");

    let cache = RunCache::new();
    let cached_engine = Engine::with_workers(8).with_cache(Arc::clone(&cache));
    let cold = exp.run_with(&cached_engine);
    assert_identical(&serial, &cold, "serial vs cache-cold");
    let jobs = (serial.cells().len() * 3) as u64;
    assert_eq!(cache.stats().misses, jobs, "cold pass must execute every job");
    assert_eq!(cache.stats().hits, 0);

    let warm = exp.run_with(&cached_engine);
    assert_identical(&serial, &warm, "serial vs cache-warm");
    assert_eq!(cache.stats().hits, jobs, "warm pass must replay every job from cache");
    assert_eq!(cache.stats().misses, jobs, "warm pass must not re-execute");
}

#[test]
fn shuffled_job_order_cannot_change_results() {
    // Seeds travel with their jobs, so a shuffled plan on a pool must
    // return what the plan in order returns on one thread.
    let service = ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
        preload_keys: 1_000,
        ..KvConfig::default()
    }));
    let server = MachineConfig::server_baseline();
    let clients = [MachineConfig::low_power(), MachineConfig::high_performance()];
    let generator = tpv::loadgen::GeneratorSpec::mutilate();
    let link = tpv::net::LinkConfig::cloudlab_lan();
    let specs: Vec<RunSpec<'_>> = clients
        .iter()
        .map(|client| RunSpec {
            service: &service,
            server: &server,
            client,
            generator: &generator,
            link: &link,
            qps: 50_000.0,
            duration: SimDuration::from_ms(30),
            warmup: SimDuration::from_ms(3),
        })
        .collect();
    let fingerprints: Vec<u64> = specs.iter().map(fingerprint).collect();
    let plan = JobPlan::new(2024, &fingerprints, 3);
    let shuffled = plan.clone().shuffled(0x0D0E);
    assert_ne!(shuffled.jobs(), plan.jobs(), "the shuffle must reorder the jobs");

    let in_order = Engine::serial().execute(&plan, |cell| specs[cell]);
    let reordered = Engine::with_workers(4).execute(&shuffled, |cell| specs[cell]);
    assert_eq!(in_order, reordered, "plain vs shuffled");
}

#[test]
fn cache_replay_is_bit_identical_across_sweep_shapes() {
    // Seeds are derived from cell *content*, so the 50K cells of a
    // two-point sweep are the same jobs as a one-point sweep's — a warm
    // cache must replay them bit-identically in the smaller experiment.
    let cache = RunCache::new();
    let engine = Engine::new().with_cache(Arc::clone(&cache));

    let wide = experiment(&[50_000.0, 100_000.0]).run_with(&engine);
    let before = cache.stats();
    let narrow = experiment(&[50_000.0]).run_with(&engine);
    let after = cache.stats();
    assert_eq!(after.misses, before.misses, "narrow sweep must be fully cache-served");
    assert_eq!(after.hits, before.hits + narrow.cells().len() as u64 * 3);

    let fresh = experiment(&[50_000.0]).run_with(&Engine::serial());
    assert_identical(&narrow, &fresh, "cache-served vs freshly-computed");
    for cell in narrow.cells() {
        let wide_cell = wide.cell(&cell.client_label, "SMToff", cell.qps).unwrap();
        assert_eq!(cell.samples, wide_cell.samples, "shared cell must be the same jobs");
    }
}

#[test]
fn fingerprints_are_stable_across_identical_specs() {
    let service = ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig::default()));
    let client = MachineConfig::low_power();
    let server = MachineConfig::server_baseline();
    let generator = tpv::loadgen::GeneratorSpec::mutilate();
    let link = tpv::net::LinkConfig::cloudlab_lan();
    let spec = RunSpec {
        service: &service,
        server: &server,
        client: &client,
        generator: &generator,
        link: &link,
        qps: 10_000.0,
        duration: SimDuration::from_ms(10),
        warmup: SimDuration::from_ms(1),
    };
    assert_eq!(fingerprint(&spec), fingerprint(&spec.clone()));
}
