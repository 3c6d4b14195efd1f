//! Determinism contracts of the topology kernel: content-addressed
//! per-node randomness means a fleet's declaration order is presentation,
//! not physics.

use tpv_core::runtime::{run_fleet, run_once, RunSpec};
use tpv_core::topology::{ClientNode, TopologySpec};
use tpv_hw::MachineConfig;
use tpv_loadgen::GeneratorSpec;
use tpv_net::LinkConfig;
use tpv_services::kv::KvConfig;
use tpv_services::{ServiceConfig, ServiceKind};
use tpv_sim::SimDuration;

fn kv_service() -> ServiceConfig {
    ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
        preload_keys: 1_000,
        ..KvConfig::default()
    }))
}

/// Three deliberately heterogeneous nodes: different machines, links and
/// loads.
fn mixed_nodes() -> Vec<ClientNode> {
    let gen = GeneratorSpec::mutilate().with_connections(40);
    vec![
        ClientNode::new("lp-lan", MachineConfig::low_power(), gen, LinkConfig::cloudlab_lan(), 20_000.0),
        ClientNode::new(
            "hp-lan",
            MachineConfig::high_performance(),
            gen,
            LinkConfig::cloudlab_lan(),
            30_000.0,
        ),
        ClientNode::new(
            "hp-xrack",
            MachineConfig::high_performance(),
            gen,
            LinkConfig::cross_rack(),
            10_000.0,
        ),
    ]
}

fn run_with_order(order: &[usize], seed: u64) -> tpv_core::topology::FleetResult {
    let base = mixed_nodes();
    let nodes: Vec<ClientNode> = order.iter().map(|&i| base[i].clone()).collect();
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let topo = TopologySpec {
        shards: None,
        service: &service,
        server: &server,
        nodes: &nodes,
        duration: SimDuration::from_ms(50),
        warmup: SimDuration::from_ms(5),
        cohorts: &[],
    };
    run_fleet(&topo, seed, 1).expect("valid topology")
}

#[test]
fn node_declaration_order_cannot_change_per_node_results() {
    for seed in [1u64, 2024] {
        let a = run_with_order(&[0, 1, 2], seed);
        let b = run_with_order(&[2, 0, 1], seed);
        let c = run_with_order(&[1, 2, 0], seed);
        for label in ["lp-lan", "hp-lan", "hp-xrack"] {
            let ra = &a.node(label).unwrap().result;
            let rb = &b.node(label).unwrap().result;
            let rc = &c.node(label).unwrap().result;
            assert_eq!(ra, rb, "{label} differs under permutation (seed {seed})");
            assert_eq!(ra, rc, "{label} differs under permutation (seed {seed})");
        }
        // The pooled aggregate is the same measurement too.
        assert_eq!(a.aggregate, b.aggregate);
        assert_eq!(a.aggregate, c.aggregate);
    }
}

#[test]
fn identical_configs_with_distinct_labels_are_independent_machines() {
    let gen = GeneratorSpec::mutilate().with_connections(40);
    let link = LinkConfig::cloudlab_lan();
    let nodes = vec![
        ClientNode::new("twin-a", MachineConfig::high_performance(), gen, link, 25_000.0),
        ClientNode::new("twin-b", MachineConfig::high_performance(), gen, link, 25_000.0),
    ];
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let topo = TopologySpec {
        shards: None,
        service: &service,
        server: &server,
        nodes: &nodes,
        duration: SimDuration::from_ms(50),
        warmup: SimDuration::from_ms(5),
        cohorts: &[],
    };
    let fleet = run_fleet(&topo, 3, 1).expect("valid topology");
    let a = &fleet.node("twin-a").unwrap().result;
    let b = &fleet.node("twin-b").unwrap().result;
    // Independent randomness: equal configuration must not mean equal
    // measurements (perfectly correlated clones would understate fleet
    // variance).
    assert_ne!(a, b, "identically configured nodes must draw independent randomness");
    // But they are statistically alike.
    assert!((a.avg.as_us() / b.avg.as_us() - 1.0).abs() < 0.5, "{} vs {}", a.avg, b.avg);
}

#[test]
fn replica_nodes_with_equal_labels_are_also_independent() {
    let gen = GeneratorSpec::mutilate().with_connections(40);
    let link = LinkConfig::cloudlab_lan();
    let clone = ClientNode::new("twin", MachineConfig::high_performance(), gen, link, 25_000.0);
    let nodes = vec![clone.clone(), clone];
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let topo = TopologySpec {
        shards: None,
        service: &service,
        server: &server,
        nodes: &nodes,
        duration: SimDuration::from_ms(50),
        warmup: SimDuration::from_ms(5),
        cohorts: &[],
    };
    let fleet = run_fleet(&topo, 4, 1).expect("valid topology");
    assert_ne!(
        fleet.nodes[0].result, fleet.nodes[1].result,
        "replica disambiguation must keep duplicate declarations independent"
    );
}

#[test]
fn single_node_topology_is_run_once() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let client = MachineConfig::low_power();
    let generator = GeneratorSpec::mutilate();
    let link = LinkConfig::cloudlab_lan();
    let spec = RunSpec {
        service: &service,
        server: &server,
        client: &client,
        generator: &generator,
        link: &link,
        qps: 60_000.0,
        duration: SimDuration::from_ms(40),
        warmup: SimDuration::from_ms(4),
    };
    let solo = run_once(&spec, 77);
    let nodes = [spec.client_node()];
    let topo = TopologySpec {
        shards: None,
        service: &service,
        server: &server,
        nodes: &nodes,
        duration: spec.duration,
        warmup: spec.warmup,
        cohorts: &[],
    };
    let fleet = run_fleet(&topo, 77, 1).expect("valid topology");
    assert_eq!(fleet.aggregate, solo);
}

#[test]
fn fleet_runs_are_seed_deterministic() {
    let a = run_with_order(&[0, 1, 2], 99);
    let b = run_with_order(&[0, 1, 2], 99);
    assert_eq!(a, b, "same topology, same seed ⇒ bit-identical fleet result");
    let c = run_with_order(&[0, 1, 2], 100);
    assert_ne!(a.aggregate, c.aggregate, "different seed ⇒ fresh environments");
}
