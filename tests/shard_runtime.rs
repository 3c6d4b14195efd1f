//! Determinism contracts of the sharded server tier: shards are
//! independent sub-simulations, so execution strategy (thread count,
//! schedule, enumeration order) is presentation, not physics.
//!
//! Complements `tests/golden_runtime.rs`, which pins the sharded kernel's
//! values bit-for-bit (`GOLDEN_SHARDED`) and checks the degenerate K=1
//! tier against every static golden row.

use tpv_core::collect::{Collector, EventCountCollector, MergeCollector, PerNodeCollector, PhaseCollector};
use tpv_core::engine::{fingerprint_topology, Engine, JobPlan};
use tpv_core::runtime::{run_collected, run_fleet, run_sharded_collected_hedged_with};
use tpv_core::topology::{
    ClientNode, FleetResult, NodeDynamics, NodeResult, ShardPolicy, ShardSpec, TopologySpec,
};
use tpv_core::PinPolicy;
use tpv_hw::MachineConfig;
use tpv_loadgen::GeneratorSpec;
use tpv_net::LinkConfig;
use tpv_services::kv::KvConfig;
use tpv_services::{ServiceConfig, ServiceKind};
use tpv_sim::{PhaseSchedule, SimDuration, SimTime, Welford};

fn kv_service() -> ServiceConfig {
    ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
        preload_keys: 1_000,
        ..KvConfig::default()
    }))
}

/// A deliberately heterogeneous 8-node fleet: HP and LP machines, two
/// link classes, uneven loads.
fn mixed_fleet() -> Vec<ClientNode> {
    let gen = GeneratorSpec::mutilate().with_connections(20);
    (0..8)
        .map(|i| {
            let machine =
                if i % 3 == 0 { MachineConfig::low_power() } else { MachineConfig::high_performance() };
            let link = if i % 2 == 0 { LinkConfig::cloudlab_lan() } else { LinkConfig::cross_rack() };
            ClientNode::new(format!("n{i}"), machine, gen, link, 10_000.0 + 1_000.0 * i as f64)
        })
        .collect()
}

fn topo<'a>(
    service: &'a ServiceConfig,
    server: &'a MachineConfig,
    nodes: &'a [ClientNode],
    shards: Option<&'a ShardSpec>,
) -> TopologySpec<'a> {
    TopologySpec {
        shards,
        service,
        server,
        nodes,
        duration: SimDuration::from_ms(40),
        warmup: SimDuration::from_ms(4),
        cohorts: &[],
    }
}

/// [`run_fleet`] on a topology these tests build valid.
fn fleet(spec: &TopologySpec<'_>, seed: u64, workers: usize) -> FleetResult {
    run_fleet(spec, seed, workers).expect("valid topology")
}

/// [`run_fleet`] on up to `workers` threads pinned round-robin: the same
/// per-node and per-phase collectors, through the pin-taking kernel
/// (these topologies have no cohorts).
fn pinned_fleet(spec: &TopologySpec<'_>, seed: u64, workers: usize) -> FleetResult {
    let n = spec.nodes.len();
    let window = (SimTime::ZERO + spec.warmup, SimTime::ZERO + spec.duration);
    let schedule = spec.merged_schedule();
    let (aggregate, shards, (per_node, phases)) =
        run_sharded_collected_hedged_with(spec, seed, workers, PinPolicy::RoundRobin, None, |_, _| {
            (PerNodeCollector::new(n), PhaseCollector::new(schedule.clone(), window.0, window.1))
        });
    let nodes = spec
        .nodes
        .iter()
        .zip(per_node.into_results())
        .map(|(node, result)| NodeResult { label: node.label.clone(), result })
        .collect();
    FleetResult { aggregate, nodes, shards, phases: phases.into_stats(), cohorts: Vec::new() }
}

#[test]
fn serial_and_parallel_shard_execution_are_bit_identical() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes = mixed_fleet();
    let shards = ShardSpec::uniform(server, 4);
    let spec = topo(&service, &server, &nodes, Some(&shards));
    let serial = fleet(&spec, 11, 1);
    for workers in [2, 4, 8, 64] {
        let parallel = fleet(&spec, 11, workers);
        assert_eq!(serial, parallel, "{workers} workers drifted from serial execution");
    }
    // The serial single-collector kernel (`run_collected`) must agree
    // with the partition-merged path too.
    let mut per_node = PerNodeCollector::new(nodes.len());
    assert_eq!(serial.aggregate, run_collected(&spec, 11, &mut per_node), "run_collected disagrees");
    let node_results: Vec<_> = serial.nodes.iter().map(|n| n.result.clone()).collect();
    assert_eq!(node_results, per_node.into_results(), "run_collected per-node results disagree");
    // Shape: every node appears on exactly one shard.
    let mut seen: Vec<usize> = serial.shards.iter().flat_map(|s| s.nodes.iter().copied()).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..nodes.len()).collect::<Vec<_>>());
    let pooled: u64 = serial.shards.iter().map(|s| s.result.samples).sum();
    assert_eq!(serial.aggregate.samples, pooled, "shard breakdowns must pool to the aggregate");
}

#[test]
fn shard_enumeration_order_is_presentation_not_physics() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes = mixed_fleet();
    // Two distinct backends; swap their enumeration and remap the
    // explicit assignment so the same nodes land on the same machines.
    let fast = MachineConfig::server_baseline();
    let slow = MachineConfig::server_baseline().with_smt(true);
    let assignment: Vec<usize> = (0..nodes.len()).map(|i| i % 2).collect();
    let forward = ShardSpec { machines: vec![fast, slow], policy: ShardPolicy::Explicit(assignment.clone()) };
    let swapped = ShardSpec {
        machines: vec![slow, fast],
        policy: ShardPolicy::Explicit(assignment.iter().map(|&s| 1 - s).collect()),
    };
    let a = fleet(&topo(&service, &server, &nodes, Some(&forward)), 7, 4);
    let b = fleet(&topo(&service, &server, &nodes, Some(&swapped)), 7, 4);
    // Per-node results are invariant under the relabeling...
    for label in nodes.iter().map(|n| &n.label) {
        assert_eq!(
            a.node(label).unwrap().result,
            b.node(label).unwrap().result,
            "{label} differs under shard enumeration permutation"
        );
    }
    // ...the aggregate is bit-identical (float merges happen in
    // canonical content order, not enumeration order)...
    assert_eq!(a.aggregate, b.aggregate);
    // ...and the shard breakdowns swap along with the enumeration.
    assert_eq!(a.shards[0].result, b.shards[1].result);
    assert_eq!(a.shards[1].result, b.shards[0].result);
}

#[test]
fn node_to_shard_assignment_travels_with_the_nodes() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let base = mixed_fleet();
    let shards = ShardSpec::uniform(server, 3);
    let assignment = shards.assign(base.len());
    let spec_a =
        ShardSpec { machines: shards.machines.clone(), policy: ShardPolicy::Explicit(assignment.clone()) };
    let a = fleet(&topo(&service, &server, &base, Some(&spec_a)), 21, 4);
    // Permute the declaration order and permute the explicit assignment
    // identically: every node keeps its shard, so every per-node result
    // and the aggregate must be unchanged.
    let order = [5usize, 2, 7, 0, 3, 6, 1, 4];
    let permuted: Vec<ClientNode> = order.iter().map(|&i| base[i].clone()).collect();
    let spec_b = ShardSpec {
        machines: shards.machines.clone(),
        policy: ShardPolicy::Explicit(order.iter().map(|&i| assignment[i]).collect()),
    };
    let b = fleet(&topo(&service, &server, &permuted, Some(&spec_b)), 21, 4);
    for label in base.iter().map(|n| &n.label) {
        assert_eq!(
            a.node(label).unwrap().result,
            b.node(label).unwrap().result,
            "{label} differs under node permutation"
        );
    }
    assert_eq!(a.aggregate, b.aggregate);
}

#[test]
fn one_shard_tier_is_the_unsharded_kernel() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes = mixed_fleet();
    let unsharded = fleet(&topo(&service, &server, &nodes, None), 5, 1);
    let one = ShardSpec::uniform(server, 1);
    let sharded = fleet(&topo(&service, &server, &nodes, Some(&one)), 5, 4);
    assert_eq!(sharded, unsharded, "K=1 must be bit-identical to the unsharded kernel");
    assert_eq!(sharded.shards.len(), 1);
    assert_eq!(sharded.shards[0].result.samples, unsharded.aggregate.samples);
}

#[test]
fn empty_shards_are_inert() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes: Vec<ClientNode> = mixed_fleet().into_iter().take(3).collect();
    // Round-robin over 8 shards leaves shards 3..8 without nodes; their
    // streams are never consumed, so the loaded shards must behave
    // exactly as in the 3-shard tier.
    let wide = ShardSpec::uniform(server, 8);
    let narrow = ShardSpec::uniform(server, 3);
    let a = fleet(&topo(&service, &server, &nodes, Some(&wide)), 9, 4);
    let b = fleet(&topo(&service, &server, &nodes, Some(&narrow)), 9, 4);
    assert_eq!(
        (&a.aggregate, &a.nodes, &a.phases),
        (&b.aggregate, &b.nodes, &b.phases),
        "idle shards must not perturb loaded ones"
    );
    for idle in &a.shards[3..] {
        assert_eq!(idle.result.samples, 0);
        assert!(idle.nodes.is_empty());
        assert_eq!(idle.result.target_qps, 0.0);
    }
}

#[test]
fn hot_shard_policy_skews_the_per_shard_tail() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let gen = GeneratorSpec::mutilate().with_connections(20);
    let nodes: Vec<ClientNode> = (0..16)
        .map(|i| {
            ClientNode::new(
                format!("agent{i}"),
                MachineConfig::high_performance(),
                gen,
                LinkConfig::cloudlab_lan(),
                60_000.0,
            )
        })
        .collect();
    let uniform = ShardSpec::uniform(server, 4);
    let hot = ShardSpec::uniform(server, 4).with_policy(ShardPolicy::HotShard { hot: 1, share: 0.5 });
    let u = fleet(&topo(&service, &server, &nodes, Some(&uniform)), 13, 4);
    let h = fleet(&topo(&service, &server, &nodes, Some(&hot)), 13, 4);
    // The hot backend serves half the fleet on one machine: its tail
    // must exceed the cold shards' and widen the per-shard spread well
    // beyond the uniform tier's.
    assert_eq!(h.shards[1].nodes.len(), 8);
    assert_eq!(h.worst_shard_p99(), h.shards[1].result.p99, "the hot shard owns the worst tail");
    let h_spread = h.worst_shard_p99().as_us() / h.best_shard_p99().as_us();
    let u_spread = u.worst_shard_p99().as_us() / u.best_shard_p99().as_us();
    assert!(h_spread > u_spread, "hot-shard spread {h_spread:.2}x must exceed uniform spread {u_spread:.2}x");
}

#[test]
fn work_stealing_and_pinning_are_schedule_invariant_under_hot_shard_skew() {
    // A HotShard tier is the worst case for the worker pool: one shard
    // carries half the fleet, so LPT seeding leaves most workers
    // underloaded and the steal path actually fires. Whatever the
    // worker count, the stolen schedule — and a core-pinned one — must
    // reproduce the serial execution bit for bit: scheduling is
    // presentation, not physics.
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let gen = GeneratorSpec::mutilate().with_connections(20);
    let nodes: Vec<ClientNode> = (0..16)
        .map(|i| {
            ClientNode::new(
                format!("agent{i}"),
                MachineConfig::high_performance(),
                gen,
                LinkConfig::cloudlab_lan(),
                40_000.0 + 5_000.0 * i as f64, // uneven loads sharpen the imbalance
            )
        })
        .collect();
    let hot = ShardSpec::uniform(server, 4).with_policy(ShardPolicy::HotShard { hot: 1, share: 0.5 });
    let spec = topo(&service, &server, &nodes, Some(&hot));
    let serial = fleet(&spec, 29, 1);
    for workers in [2, 3, 4, 8] {
        let stolen = fleet(&spec, 29, workers);
        assert_eq!(serial, stolen, "{workers}-worker stolen schedule drifted from serial");
        let pinned = pinned_fleet(&spec, 29, workers);
        assert_eq!(serial, pinned, "{workers}-worker pinned schedule drifted from serial");
    }
}

#[test]
fn merged_event_counts_match_the_serial_collector() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes = mixed_fleet();
    let shards = ShardSpec::uniform(server, 4);
    let spec = topo(&service, &server, &nodes, Some(&shards));
    let mut serial = EventCountCollector::new();
    let serial_result = run_collected(&spec, 3, &mut serial);
    let (parallel_result, shard_results, merged) =
        run_sharded_collected_hedged_with(&spec, 3, 4, PinPolicy::Off, None, |_, _| {
            EventCountCollector::new()
        });
    assert_eq!(serial_result, parallel_result);
    assert_eq!(serial.events(), merged.events(), "per-shard event counts must merge to the serial count");
    assert_eq!(shard_results.len(), 4);
}

/// Latency moments in fold order: every sample is pushed into a
/// [`Welford`] and partitions merge with [`Welford::merge`]. Unlike a
/// histogram, whose bucket counts add exactly, these float bits depend
/// on the order the samples and partitions are folded in.
#[derive(Default)]
struct MomentCollector(Welford);

impl Collector for MomentCollector {
    fn on_latency(&mut self, _node: usize, _stamp: SimTime, measured: SimDuration) {
        self.0.push(measured.as_us());
    }
}

impl MergeCollector for MomentCollector {
    fn merge(&mut self, other: Self) {
        self.0.merge(&other.0);
    }
}

/// The canonical `(shard_key, shard)` merge order is fixed by content,
/// not by enumeration: rotating a 3-shard tier of distinct machines
/// (with the explicit assignment remapped so every node keeps its
/// machine) leaves the merged moments' bits unchanged, through the
/// serial single-collector path and the per-shard merge path alike.
#[test]
fn merged_moments_are_bit_identical_under_shard_rotation() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes: Vec<ClientNode> = mixed_fleet().into_iter().take(6).collect();
    let machines = [
        MachineConfig::server_baseline(),
        MachineConfig::server_baseline().with_smt(true),
        MachineConfig::server_baseline().with_turbo(true),
    ];
    let assignment: Vec<usize> = (0..nodes.len()).map(|i| i % 3).collect();
    let forward =
        ShardSpec { machines: machines.to_vec(), policy: ShardPolicy::Explicit(assignment.clone()) };
    // Machine `s` moves to slot `(s + 2) % 3`.
    let rotated = ShardSpec {
        machines: vec![machines[1], machines[2], machines[0]],
        policy: ShardPolicy::Explicit(assignment.iter().map(|&s| (s + 2) % 3).collect()),
    };
    let spec = |shards| TopologySpec {
        duration: SimDuration::from_ms(20),
        warmup: SimDuration::from_ms(2),
        ..topo(&service, &server, &nodes, Some(shards))
    };
    let bits = |w: &Welford| (w.count(), w.mean().to_bits(), w.population_variance().to_bits());
    for seed in 1..=3 {
        let mut serial = [MomentCollector::default(), MomentCollector::default()];
        for (collector, shards) in serial.iter_mut().zip([&forward, &rotated]) {
            run_collected(&spec(shards), seed, collector);
        }
        assert!(serial[0].0.count() > 0, "seed {seed}: no samples");
        assert_eq!(
            bits(&serial[0].0),
            bits(&serial[1].0),
            "seed {seed}: serial moments moved under rotation"
        );

        let merged = [&forward, &rotated].map(|shards| {
            run_sharded_collected_hedged_with(&spec(shards), seed, 3, PinPolicy::Off, None, |_, _| {
                MomentCollector::default()
            })
            .2
        });
        assert_eq!(
            bits(&merged[0].0),
            bits(&merged[1].0),
            "seed {seed}: merged moments moved under rotation"
        );
    }
}

#[test]
fn engine_execute_sharded_is_parallelism_invariant() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes = mixed_fleet();
    let shards = ShardSpec::uniform(server, 4);
    let spec = topo(&service, &server, &nodes, Some(&shards));
    let plan = JobPlan::new(17, &[fingerprint_topology(&spec)], 3).shuffled(99);
    let execute = |engine: Engine| {
        let shard_workers = engine.shard_workers(&plan);
        engine.execute_jobs(&plan, |job| fleet(&spec, job.seed, shard_workers))
    };
    let serial = execute(Engine::serial());
    let parallel = execute(Engine::with_workers(8));
    assert_eq!(serial, parallel, "engine scheduling must not change sharded results");
    assert_eq!(serial.len(), 3);
    let direct: Vec<(usize, usize, FleetResult)> =
        plan.jobs().iter().map(|j| (j.cell, j.run, fleet(&spec, j.seed, 1))).collect();
    let mut direct_sorted = direct;
    direct_sorted.sort_by_key(|&(c, r, _)| (c, r));
    assert_eq!(serial, direct_sorted, "engine jobs must equal direct sharded runs");
}

// ---------------------------------------------------------------------
// Phased × sharded: per-phase pooled stats merge in canonical
// `(shard_key, shard_index)` order, so the same presentation-not-physics
// contracts hold with a phase schedule in play.
// ---------------------------------------------------------------------

/// [`mixed_fleet`] with mid-run dynamics layered on: every third node
/// decays HP -> LP at the boundary, every `i % 3 == 1` node steps its
/// offered rate. The merged schedule has two phases.
fn phased_fleet() -> Vec<ClientNode> {
    let boundary = SimTime::from_ms(20);
    mixed_fleet()
        .into_iter()
        .enumerate()
        .map(|(i, node)| match i % 3 {
            0 => node.with_dynamics(
                NodeDynamics::new(PhaseSchedule::new(vec![boundary]))
                    .with_machines(vec![MachineConfig::high_performance(), MachineConfig::low_power()]),
            ),
            1 => node.with_dynamics(
                NodeDynamics::new(PhaseSchedule::new(vec![boundary])).with_rates(vec![0.7, 1.4]),
            ),
            _ => node,
        })
        .collect()
}

#[test]
fn phased_serial_and_parallel_shard_execution_are_bit_identical() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes = phased_fleet();
    let shards = ShardSpec::uniform(server, 4);
    let spec = topo(&service, &server, &nodes, Some(&shards));
    let serial = fleet(&spec, 19, 1);
    assert_eq!(serial.phases.len(), 2, "the merged schedule has two phases");
    assert!(serial.phases.iter().all(|p| p.samples > 0));
    for workers in [2, 3, 4, 8] {
        let parallel = fleet(&spec, 19, workers);
        assert_eq!(serial, parallel, "{workers}-worker phased schedule drifted from serial");
        let pinned = pinned_fleet(&spec, 19, workers);
        assert_eq!(serial, pinned, "{workers}-worker pinned phased schedule drifted from serial");
    }
    // The phase lens is only a collector: a pass collecting per node
    // alone must give the same aggregate, nodes and shards, bit for bit.
    let (aggregate, shards, per_node) =
        run_sharded_collected_hedged_with(&spec, 19, 4, PinPolicy::Off, None, |_, _| {
            PerNodeCollector::new(nodes.len())
        });
    assert_eq!(serial.aggregate, aggregate, "the phase lens must not perturb the aggregate");
    assert_eq!(serial.shards, shards, "the phase lens must not perturb the shard breakdown");
    let node_results: Vec<_> = serial.nodes.iter().map(|n| n.result.clone()).collect();
    assert_eq!(node_results, per_node.into_results(), "the phase lens must not perturb the nodes");
    // Phases partition the window: per-phase counts pool to the aggregate.
    let pooled: u64 = serial.phases.iter().map(|p| p.samples).sum();
    assert_eq!(pooled, serial.aggregate.samples, "phase buckets must partition the window");
}

#[test]
fn phased_shard_enumeration_order_is_presentation_not_physics() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes = phased_fleet();
    // Same relabeling as the static test: swap backend enumeration and
    // remap the explicit assignment so physics is unchanged. The
    // per-phase pooled stats must not notice — they merge in canonical
    // content order, not enumeration order.
    let fast = MachineConfig::server_baseline();
    let slow = MachineConfig::server_baseline().with_smt(true);
    let assignment: Vec<usize> = (0..nodes.len()).map(|i| i % 2).collect();
    let forward = ShardSpec { machines: vec![fast, slow], policy: ShardPolicy::Explicit(assignment.clone()) };
    let swapped = ShardSpec {
        machines: vec![slow, fast],
        policy: ShardPolicy::Explicit(assignment.iter().map(|&s| 1 - s).collect()),
    };
    let a = fleet(&topo(&service, &server, &nodes, Some(&forward)), 7, 4);
    let b = fleet(&topo(&service, &server, &nodes, Some(&swapped)), 7, 4);
    assert_eq!(a.phases, b.phases, "per-phase stats differ under shard enumeration permutation");
    assert_eq!(a.aggregate, b.aggregate);
    for label in nodes.iter().map(|n| &n.label) {
        assert_eq!(
            a.node(label).unwrap().result,
            b.node(label).unwrap().result,
            "{label} differs under shard enumeration permutation"
        );
    }
    assert_eq!(a.shards[0].result, b.shards[1].result);
    assert_eq!(a.shards[1].result, b.shards[0].result);
}

#[test]
fn phased_node_permutation_is_presentation_not_physics() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let base = phased_fleet();
    let shards = ShardSpec::uniform(server, 3);
    let assignment = shards.assign(base.len());
    let spec_a =
        ShardSpec { machines: shards.machines.clone(), policy: ShardPolicy::Explicit(assignment.clone()) };
    let a = fleet(&topo(&service, &server, &base, Some(&spec_a)), 21, 4);
    let order = [5usize, 2, 7, 0, 3, 6, 1, 4];
    let permuted: Vec<ClientNode> = order.iter().map(|&i| base[i].clone()).collect();
    let spec_b = ShardSpec {
        machines: shards.machines.clone(),
        policy: ShardPolicy::Explicit(order.iter().map(|&i| assignment[i]).collect()),
    };
    let b = fleet(&topo(&service, &server, &permuted, Some(&spec_b)), 21, 4);
    assert_eq!(a.phases, b.phases, "per-phase stats must ignore node declaration order");
    assert_eq!(a.aggregate, b.aggregate);
    for label in base.iter().map(|n| &n.label) {
        assert_eq!(
            a.node(label).unwrap().result,
            b.node(label).unwrap().result,
            "{label} differs under node permutation"
        );
    }
}

#[test]
fn phased_one_shard_tier_is_the_unsharded_phased_kernel() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes = phased_fleet();
    let unsharded = fleet(&topo(&service, &server, &nodes, None), 5, 1);
    let one = ShardSpec::uniform(server, 1);
    let sharded = fleet(&topo(&service, &server, &nodes, Some(&one)), 5, 4);
    assert_eq!(sharded, unsharded, "K=1 must be bit-identical to the unsharded phased kernel");
    assert_eq!(sharded.shards.len(), 1);
    // Worker count on an unsharded phased topology is a no-op too.
    let wide = fleet(&topo(&service, &server, &nodes, None), 5, 8);
    assert_eq!(wide, unsharded);
}

#[test]
fn phase_boundary_event_counts_merge_exactly_under_hot_shard_skew() {
    // The hot shard carries half the fleet, so the steal path fires and
    // partitions finish out of order; the per-phase buckets must still
    // merge to exactly the serial collector's counts and stats.
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let boundary = SimTime::from_ms(20);
    let gen = GeneratorSpec::mutilate().with_connections(20);
    let nodes: Vec<ClientNode> = (0..16)
        .map(|i| {
            ClientNode::new(
                format!("agent{i}"),
                MachineConfig::high_performance(),
                gen,
                LinkConfig::cloudlab_lan(),
                40_000.0 + 5_000.0 * i as f64,
            )
            .with_dynamics(
                NodeDynamics::new(PhaseSchedule::new(vec![boundary]))
                    .with_machines(vec![MachineConfig::high_performance(), MachineConfig::low_power()]),
            )
        })
        .collect();
    let hot = ShardSpec::uniform(server, 4).with_policy(ShardPolicy::HotShard { hot: 1, share: 0.5 });
    let spec = topo(&service, &server, &nodes, Some(&hot));
    let schedule = spec.merged_schedule();
    let window = (SimTime::ZERO + spec.warmup, SimTime::ZERO + spec.duration);

    let mut serial = (EventCountCollector::new(), PhaseCollector::new(schedule.clone(), window.0, window.1));
    let serial_result = run_collected(&spec, 29, &mut serial);
    let (parallel_result, shard_results, (events, phases)) =
        run_sharded_collected_hedged_with(&spec, 29, 4, PinPolicy::Off, None, |_, _| {
            (EventCountCollector::new(), PhaseCollector::new(schedule.clone(), window.0, window.1))
        });
    assert_eq!(serial_result, parallel_result);
    assert_eq!(serial.0.events(), events.events(), "per-shard event counts must merge to the serial count");
    assert_eq!(shard_results.len(), 4);
    let serial_phases = serial.1.into_stats();
    let merged_phases = phases.into_stats();
    assert_eq!(serial_phases, merged_phases, "canonical-order merge must reproduce the serial buckets");
    assert_eq!(merged_phases.len(), 2);
    let pooled: u64 = merged_phases.iter().map(|p| p.samples).sum();
    assert_eq!(pooled, parallel_result.samples, "phase buckets must partition the window exactly");
}
