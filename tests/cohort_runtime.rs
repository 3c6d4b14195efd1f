//! Conformance contracts of the cohort layer: a pooled superposed
//! arrival process is aggregation, not new physics, so cohort
//! declaration order, execution strategy (worker count) and
//! split/merge refactors of the cohort list must not change what the
//! simulation measures.
//!
//! Complements `tests/golden_runtime.rs`, which pins cohorted values
//! bit-for-bit (`GOLDEN_COHORT`) and checks the `population: 1`
//! identity against every static golden row.

use tpv_core::collect::EventCountCollector;
use tpv_core::runtime::{run_collected, run_fleet, RunResult};
use tpv_core::topology::{
    ClientNode, CohortSpec, FleetResult, NodeDynamics, ShardPolicy, ShardSpec, TopologySpec,
};
use tpv_hw::MachineConfig;
use tpv_loadgen::GeneratorSpec;
use tpv_net::LinkConfig;
use tpv_services::kv::KvConfig;
use tpv_services::{ServiceConfig, ServiceKind};
use tpv_sim::{PhaseSchedule, SimDuration, SimTime};

/// [`run_fleet`] on a topology these tests build valid.
fn fleet(spec: &TopologySpec<'_>, seed: u64, workers: usize) -> FleetResult {
    run_fleet(spec, seed, workers).expect("valid topology")
}

fn kv_service() -> ServiceConfig {
    ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
        preload_keys: 1_000,
        ..KvConfig::default()
    }))
}

/// A cohort template: label, machine class and per-member load.
fn template(label: &str, lp: bool, qps: f64) -> ClientNode {
    let gen = GeneratorSpec::mutilate().with_connections(20);
    let machine = if lp { MachineConfig::low_power() } else { MachineConfig::high_performance() };
    ClientNode::new(label, machine, gen, LinkConfig::cloudlab_lan(), qps)
}

fn topo<'a>(
    service: &'a ServiceConfig,
    server: &'a MachineConfig,
    nodes: &'a [ClientNode],
    cohorts: &'a [CohortSpec],
    shards: Option<&'a ShardSpec>,
) -> TopologySpec<'a> {
    TopologySpec {
        shards,
        service,
        server,
        nodes,
        duration: SimDuration::from_ms(40),
        warmup: SimDuration::from_ms(4),
        cohorts,
    }
}

#[test]
fn cohort_declaration_order_is_presentation() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let a = CohortSpec::new(template("alpha", true, 3_000.0), 30).with_tracked(2);
    let b = CohortSpec::new(template("beta", false, 5_000.0), 20).with_tracked(1);
    let c = CohortSpec::new(template("gamma", false, 2_000.0), 10);
    let forward = [a.clone(), b.clone(), c.clone()];
    let permuted = [c, a, b];

    let x = fleet(&topo(&service, &server, &[], &forward, None), 77, 2);
    let y = fleet(&topo(&service, &server, &[], &permuted, None), 77, 2);

    // The aggregate is merged in content-key order, not declaration
    // order, so permuting the cohort list cannot move a single bit.
    assert_eq!(x.aggregate, y.aggregate, "aggregate depends on cohort order");
    assert_eq!(x.shards, y.shards, "shard breakdown depends on cohort order");
    // Per-cohort rollups follow declaration order; matched by label
    // they are identical.
    for cohort in &x.cohorts {
        let twin = y
            .cohorts
            .iter()
            .find(|t| t.label == cohort.label)
            .expect("every cohort appears under both orders");
        assert_eq!(cohort, twin, "cohort '{}' drifted under permutation", cohort.label);
    }
    // Same lowered nodes too, as a label-keyed set.
    let mut xs: Vec<_> = x.nodes.iter().map(|n| (n.label.clone(), n.result.clone())).collect();
    let mut ys: Vec<_> = y.nodes.iter().map(|n| (n.label.clone(), n.result.clone())).collect();
    xs.sort_by(|p, q| p.0.cmp(&q.0));
    ys.sort_by(|p, q| p.0.cmp(&q.0));
    assert_eq!(xs, ys, "per-node breakdowns depend on cohort order");
}

#[test]
fn serial_and_parallel_cohort_execution_are_bit_identical() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let shards = ShardSpec::uniform(server, 4);
    let cohorts = [
        CohortSpec::new(template("lp-pool", true, 2_500.0), 24).with_tracked(2),
        CohortSpec::new(template("hp-pool", false, 4_000.0), 16).with_tracked(1),
    ];
    let spec = topo(&service, &server, &[], &cohorts, Some(&shards));
    let serial = fleet(&spec, 13, 1);
    for workers in [2, 4, 64] {
        let parallel = fleet(&spec, 13, workers);
        assert_eq!(serial, parallel, "{workers} workers drifted from serial cohort execution");
    }
    // Rollups pool exactly the cohort's lowered nodes: tracked members
    // plus the pooled remainder, nothing else.
    let pooled: u64 = serial.cohorts.iter().map(|c| c.result.samples).sum();
    assert_eq!(serial.aggregate.samples, pooled, "cohort rollups must pool to the aggregate");
}

#[test]
fn cohort_rollups_are_invariant_under_shard_rotation() {
    // Three distinct backends, every cohort's lowered nodes spread over
    // all of them, so each rollup folds partials from three shards.
    // Rotating the machine list — with the explicit assignment remapped
    // so every node keeps its backend — changes only the shards'
    // declaration order; the runner folds partitions in canonical
    // content order, so no rollup may notice.
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let machines = [server, server.with_smt(true), server.with_turbo(true)];
    assert!(machines[0] != machines[1] && machines[1] != machines[2] && machines[0] != machines[2]);
    let cohorts = [
        CohortSpec::new(template("lp-pool", true, 2_500.0), 24).with_tracked(2),
        CohortSpec::new(template("hp-pool", false, 4_000.0), 16).with_tracked(2),
    ];
    let lowered = topo(&service, &server, &[], &cohorts, None).lowered_node_count();
    let assignment: Vec<usize> = (0..lowered).map(|i| i % 3).collect();
    let forward =
        ShardSpec { machines: machines.to_vec(), policy: ShardPolicy::Explicit(assignment.clone()) };
    let rotated = ShardSpec {
        machines: vec![machines[1], machines[2], machines[0]],
        policy: ShardPolicy::Explicit(assignment.iter().map(|&s| (s + 2) % 3).collect()),
    };
    for seed in 7..=11 {
        let a = fleet(&topo(&service, &server, &[], &cohorts, Some(&forward)), seed, 3);
        let b = fleet(&topo(&service, &server, &[], &cohorts, Some(&rotated)), seed, 3);
        assert_eq!(a.cohorts, b.cohorts, "seed {seed}: cohort rollups depend on shard enumeration");
        assert_eq!(a.aggregate, b.aggregate, "seed {seed}: aggregate depends on shard enumeration");
        for (s, shard) in a.shards.iter().enumerate() {
            assert_eq!(shard.result, b.shards[(s + 2) % 3].result, "seed {seed}: shard {s} moved physics");
        }
    }
}

/// Satellite contract: superposition is associative in distribution. A
/// population-k cohort drives one pooled process at k·λ; k identical
/// population-1 cohorts drive k independent processes at λ. The two are
/// different event interleavings of the same offered load, so their
/// sample counts must agree statistically (the bit-level identity is
/// pinned separately, for `population: 1`, in the golden suite).
#[test]
fn one_pooled_cohort_matches_k_singleton_cohorts_statistically() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let merged = [CohortSpec::new(template("pool", false, 5_000.0), 8)];
    let split: Vec<CohortSpec> =
        (0..8).map(|_| CohortSpec::new(template("pool", false, 5_000.0), 1)).collect();

    let big = fleet(&topo(&service, &server, &[], &merged, None), 99, 2);
    let many = fleet(&topo(&service, &server, &[], &split, None), 99, 2);

    assert_eq!(big.nodes.len(), 1, "population-k cohort must lower to one pooled node");
    assert_eq!(many.nodes.len(), 8, "k singleton cohorts must lower to k nodes");
    let (a, b) = (big.aggregate.samples as f64, many.aggregate.samples as f64);
    let rel = (a - b).abs() / b;
    assert!(rel < 0.10, "pooled ({a}) and superposed-by-hand ({b}) sample counts diverged by {rel:.3}");
    let (qa, qb) = (big.aggregate.achieved_qps, many.aggregate.achieved_qps);
    assert!(((qa - qb) / qb).abs() < 0.10, "achieved qps diverged: {qa:.0} vs {qb:.0}");
}

/// Satellite contract: splitting a cohort in half (or merging two
/// halves) keeps the aggregate event count deterministic — byte-equal
/// across repeated runs and across worker counts — and statistically
/// unchanged between the split and merged declarations.
#[test]
fn cohort_split_and_merge_keep_event_counts_deterministic() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let merged = [CohortSpec::new(template("class", false, 4_000.0), 12)];
    let halves = [
        CohortSpec::new(template("class", false, 4_000.0), 6),
        CohortSpec::new(template("class", false, 4_000.0), 6),
    ];

    let count = |cohorts: &[CohortSpec]| {
        let spec = topo(&service, &server, &[], cohorts, None);
        let mut counter = EventCountCollector::new();
        let result = run_collected(&spec, 31, &mut counter);
        (counter.events(), result.samples)
    };

    let merged_counts = count(&merged);
    let split_counts = count(&halves);
    // Determinism: the same declaration replays to the same counters.
    assert_eq!(merged_counts, count(&merged), "merged cohort run is not deterministic");
    assert_eq!(split_counts, count(&halves), "split cohort run is not deterministic");
    // And worker count is presentation: the cohorted runner dispatches
    // the same requests serial or parallel.
    let spec = topo(&service, &server, &[], &halves, None);
    assert_eq!(fleet(&spec, 31, 1).aggregate.samples, fleet(&spec, 31, 8).aggregate.samples,);
    // The two declarations offer identical load; their realized counts
    // differ only by arrival interleaving.
    let (_, merged_samples) = merged_counts;
    let (_, split_samples) = split_counts;
    let rel = (merged_samples as f64 - split_samples as f64).abs() / split_samples as f64;
    assert!(rel < 0.10, "split vs merged sample counts diverged by {rel:.3}");
}

#[test]
fn tracked_members_expose_exact_drilldown_next_to_the_pool() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let solo = [template("solo", false, 8_000.0)];
    let cohorts = [CohortSpec::new(template("lp", true, 1_000.0), 50).with_tracked(2)];
    let run = fleet(&topo(&service, &server, &solo, &cohorts, None), 5, 2);

    let labels: Vec<&str> = run.nodes.iter().map(|n| n.label.as_str()).collect();
    assert_eq!(labels, ["solo", "lp#0", "lp#1", "lp#pooled(48)"]);
    // Tracked members are exact per-node streams at the template's own
    // rate; the pooled node carries the superposed remainder.
    assert_eq!(run.nodes[1].result.target_qps, 1_000.0);
    assert_eq!(run.nodes[2].result.target_qps, 1_000.0);
    assert_eq!(run.nodes[3].result.target_qps, 48_000.0);
    // The rollup pools exactly the cohort's three nodes — the explicit
    // node never leaks in.
    assert_eq!(run.cohorts.len(), 1);
    assert_eq!(run.cohorts[0].population, 50);
    assert_eq!(run.cohorts[0].tracked, 2);
    let member_samples: u64 = run.nodes[1..].iter().map(|n| n.result.samples).sum();
    assert_eq!(run.cohorts[0].result.samples, member_samples);
    assert_eq!(run.aggregate.samples, member_samples + run.nodes[0].result.samples,);
    assert_eq!(run.cohort("lp"), Some(&run.cohorts[0]));
}

/// Every view of one `run_fleet` pass accounts for the aggregate's
/// books exactly: its samples, client wakes and truncated requests are
/// the sums over the nodes and over the shards (its samples also over
/// the phases), and its offered load and energy are the sorted sums of
/// the per-node values, bit for bit. Pins the invariant that lets one
/// pool type build every result, independently of the golden tables.
#[test]
fn fleet_views_balance_the_books() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let phases = || NodeDynamics::new(PhaseSchedule::new(vec![SimTime::from_ms(20)]));
    let explicit = [
        template("decay", false, 6_000.0).with_dynamics(
            phases().with_machines(vec![MachineConfig::high_performance(), MachineConfig::low_power()]),
        ),
        template("surge", false, 5_000.0).with_dynamics(phases().with_rates(vec![0.7, 1.4])),
        template("flat", true, 4_000.0),
    ];
    let cohorts = [
        CohortSpec::new(template("lp-pool", true, 2_500.0), 24).with_tracked(2),
        CohortSpec::new(template("hp-pool", false, 4_000.0), 16).with_tracked(1),
    ];
    let shards = ShardSpec::uniform(server, 3);
    let spec = topo(&service, &server, &explicit, &cohorts, Some(&shards));
    let sorted_sum = |mut values: Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values.iter().sum::<f64>()
    };
    for workers in [1, 3] {
        let run = fleet(&spec, 29, workers);
        let total = &run.aggregate;
        assert_eq!(run.phases.len(), 2, "the merged schedule has two phases");
        assert_eq!(run.cohorts.len(), 2);
        assert!(total.samples > 0 && total.client_wakes.iter().sum::<u64>() > 0);
        let nodes: Vec<&RunResult> = run.nodes.iter().map(|n| &n.result).collect();
        let shards: Vec<&RunResult> = run.shards.iter().map(|s| &s.result).collect();
        for (view, parts) in [("nodes", &nodes), ("shards", &shards)] {
            let samples: u64 = parts.iter().map(|r| r.samples).sum();
            assert_eq!(total.samples, samples, "{workers} workers: samples over {view}");
            let truncated: u64 = parts.iter().map(|r| r.truncated_inflight).sum();
            assert_eq!(total.truncated_inflight, truncated, "{workers} workers: truncations over {view}");
            let wakes =
                parts.iter().fold([0u64; 4], |acc, r| std::array::from_fn(|i| acc[i] + r.client_wakes[i]));
            assert_eq!(total.client_wakes, wakes, "{workers} workers: wakes over {view}");
        }
        let phase_samples: u64 = run.phases.iter().map(|p| p.samples).sum();
        assert_eq!(total.samples, phase_samples, "{workers} workers: samples over phases");
        let targets = sorted_sum(nodes.iter().map(|r| r.target_qps).collect());
        assert_eq!(total.target_qps.to_bits(), targets.to_bits(), "{workers} workers: offered load");
        let energy = sorted_sum(nodes.iter().map(|r| r.client_energy_core_secs).collect());
        assert_eq!(total.client_energy_core_secs.to_bits(), energy.to_bits(), "{workers} workers: energy");
    }
}
