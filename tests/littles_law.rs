//! Validates the testbed against Little's law and the paper's synthetic-
//! workload linearity check ("the response time increases linearly with
//! the increase of the added delay which validates the implementation"),
//! at three levels: the 1×1 testbed, pooled multi-node fleets, and the
//! per-phase regimes of a stepped-load dynamic run.

use tpv::core::runtime::run_fleet;
use tpv::core::topology::{uniform_fleet, ClientNode, NodeDynamics, TopologySpec};
use tpv::loadgen::GeneratorSpec;
use tpv::net::LinkConfig;
use tpv::prelude::*;
use tpv::services::kv::KvConfig;
use tpv::services::{ServiceConfig, ServiceKind};
use tpv::sim::{PhaseSchedule, SimTime};
use tpv::stats::desc::littles_law_concurrency;

fn synthetic_avg_us(delay_us: u64, qps: f64, seed: u64) -> (f64, f64) {
    let results = Experiment::builder(Benchmark::synthetic(SimDuration::from_us(delay_us)))
        .client(MachineConfig::high_performance())
        .server(ServerScenario::baseline())
        .qps(&[qps])
        .runs(5)
        .run_duration(SimDuration::from_ms(80))
        .seed(seed)
        .build()
        .run();
    let cell = results.cell("HP", "SMToff", qps).unwrap();
    let achieved = cell.samples.iter().map(|r| r.achieved_qps).sum::<f64>() / cell.samples.len() as f64;
    (cell.summary().avg_median_us(), achieved)
}

#[test]
fn response_grows_linearly_with_added_delay_at_low_load() {
    // 2K QPS: negligible queueing; each 200us of delay adds ~200us
    // end-to-end (mild queueing growth is expected and bounded).
    let (a0, _) = synthetic_avg_us(0, 2_000.0, 1);
    let (a200, _) = synthetic_avg_us(200, 2_000.0, 2);
    let (a400, _) = synthetic_avg_us(400, 2_000.0, 3);
    let d1 = a200 - a0;
    let d2 = a400 - a200;
    assert!((d1 - 200.0).abs() < 40.0, "0->200us step added {d1:.1}us");
    assert!((d2 - 200.0).abs() < 40.0, "200->400us step added {d2:.1}us");
}

#[test]
fn littles_law_concurrency_stays_below_worker_count() {
    // The paper bounds its synthetic QPS so concurrency < 10 workers.
    for (delay_us, qps) in [(400u64, 20_000.0f64), (100, 20_000.0), (400, 5_000.0)] {
        let (avg_us, achieved) = synthetic_avg_us(delay_us, qps, 7 + delay_us);
        // Use the server-side portion (approximately service time) for L.
        let service_secs = (delay_us as f64 + 10.0) * 1e-6;
        let concurrency = littles_law_concurrency(achieved, service_secs);
        assert!(
            concurrency < 10.5,
            "delay {delay_us}us @ {qps} QPS: concurrency {concurrency:.1} exceeds workers"
        );
        assert!(avg_us > delay_us as f64, "avg must include the added delay");
    }
}

#[test]
fn achieved_rate_tracks_offered_rate_when_unsaturated() {
    let (_, achieved) = synthetic_avg_us(100, 10_000.0, 42);
    let ratio = achieved / 10_000.0;
    assert!((0.9..1.1).contains(&ratio), "achieved/offered = {ratio:.3}");
}

fn kv_service() -> ServiceConfig {
    ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig::default()))
}

/// Pooling a fleet must conserve Little's law: the pooled concurrency
/// `λ_pooled · W_pooled` equals the sum of per-node `λ_i · W_i` (mean
/// concurrency is additive across independent request streams).
#[test]
fn fleet_pooling_conserves_littles_law() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes = uniform_fleet(
        "agent",
        MachineConfig::high_performance(),
        GeneratorSpec::mutilate(),
        LinkConfig::cloudlab_lan(),
        120_000.0,
        4,
    );
    let topo = TopologySpec {
        shards: None,
        service: &service,
        server: &server,
        nodes: &nodes,
        duration: SimDuration::from_ms(80),
        warmup: SimDuration::from_ms(8),
        cohorts: &[],
    };
    let fleet = run_fleet(&topo, 11, 1).expect("valid topology");
    let agg = &fleet.aggregate;
    let pooled_l = littles_law_concurrency(agg.achieved_qps, agg.avg.as_secs());
    let summed_l: f64 = fleet
        .nodes
        .iter()
        .map(|n| littles_law_concurrency(n.result.achieved_qps, n.result.avg.as_secs()))
        .sum();
    assert!(pooled_l > 1.0, "the fleet must hold real concurrency, got {pooled_l:.2}");
    let rel = (pooled_l - summed_l).abs() / summed_l;
    assert!(rel < 0.02, "pooled L {pooled_l:.3} vs per-node sum {summed_l:.3} ({rel:.3} off)");
    // Sanity: every node achieved its share of the offered load.
    for n in &fleet.nodes {
        let ratio = n.result.achieved_qps / n.result.target_qps;
        assert!((0.85..1.15).contains(&ratio), "{}: achieved/target {ratio:.3}", n.label);
    }
}

/// Per-phase conformance: in a stepped-load run each phase obeys
/// `L = λ·W` with its *own* rate, so the high-load phase holds
/// proportionally more concurrency than the low-load phase.
#[test]
fn stepped_load_phases_obey_littles_law_per_phase() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let duration = SimDuration::from_ms(80);
    let dynamics =
        NodeDynamics::new(PhaseSchedule::new(vec![SimTime::from_ms(40)])).with_rates(vec![0.5, 2.0]);
    let nodes = [ClientNode::new(
        "stepped",
        MachineConfig::high_performance(),
        GeneratorSpec::mutilate(),
        LinkConfig::cloudlab_lan(),
        100_000.0,
    )
    .with_dynamics(dynamics)];
    let topo = TopologySpec {
        shards: None,
        service: &service,
        server: &server,
        nodes: &nodes,
        duration,
        warmup: SimDuration::from_ms(8),
        cohorts: &[],
    };
    let phased = run_fleet(&topo, 29, 1).expect("valid phased topology");
    let low = phased.phase(0).unwrap();
    let high = phased.phase(1).unwrap();
    // Each phase achieves its own offered rate...
    assert!((low.achieved_qps / 50_000.0 - 1.0).abs() < 0.1, "low {:.0}", low.achieved_qps);
    assert!((high.achieved_qps / 200_000.0 - 1.0).abs() < 0.1, "high {:.0}", high.achieved_qps);
    // ...and holds the concurrency Little's law predicts for it.
    let l_low = littles_law_concurrency(low.achieved_qps, low.avg.as_secs());
    let l_high = littles_law_concurrency(high.achieved_qps, high.avg.as_secs());
    let rate_ratio = high.achieved_qps / low.achieved_qps;
    let l_ratio = l_high / l_low;
    assert!(
        l_ratio >= rate_ratio * 0.9,
        "4x the arrival rate must hold at least ~4x the concurrency: L ratio {l_ratio:.2}, rate ratio {rate_ratio:.2}"
    );
    // The whole-run aggregate blends the two regimes: its concurrency
    // sits strictly between the per-phase extremes.
    let agg = &phased.aggregate;
    let l_agg = littles_law_concurrency(agg.achieved_qps, agg.avg.as_secs());
    assert!(l_low < l_agg && l_agg < l_high, "blend {l_agg:.2} outside ({l_low:.2}, {l_high:.2})");
}
