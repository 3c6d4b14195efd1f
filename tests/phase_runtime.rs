//! Conformance tests of the phase-scheduled dynamic kernel: degenerate
//! schedules collapse to the static runtime bit for bit, real schedules
//! produce visible regime changes, and every determinism contract of the
//! static topology kernel (same-seed reproducibility, permutation
//! invariance) survives the phase layer.

use tpv_core::collect::PerNodeCollector;
use tpv_core::runtime::{run_collected, run_fleet, run_once, RunSpec};
use tpv_core::topology::{ClientNode, NodeDynamics, TopologyError, TopologySpec};
use tpv_hw::{DynamicMachine, MachineConfig};
use tpv_loadgen::{GeneratorSpec, PhasedRate};
use tpv_net::LinkConfig;
use tpv_services::kv::KvConfig;
use tpv_services::{ServiceConfig, ServiceKind};
use tpv_sim::{PhaseSchedule, SimDuration, SimTime};

fn kv_service() -> ServiceConfig {
    ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
        preload_keys: 1_000,
        ..KvConfig::default()
    }))
}

const DURATION: SimDuration = SimDuration::from_ms(60);
const WARMUP: SimDuration = SimDuration::from_ms(6);

fn topo<'a>(
    service: &'a ServiceConfig,
    server: &'a MachineConfig,
    nodes: &'a [ClientNode],
) -> TopologySpec<'a> {
    TopologySpec { shards: None, service, server, nodes, duration: DURATION, warmup: WARMUP, cohorts: &[] }
}

/// A single all-covering phase — even with every aspect spelled out
/// redundantly — must reproduce the static kernel bit for bit.
#[test]
fn degenerate_single_phase_schedule_is_bit_identical_to_static() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let machine = MachineConfig::low_power();
    let generator = GeneratorSpec::mutilate();
    let link = LinkConfig::cloudlab_lan();
    let spec = RunSpec {
        service: &service,
        server: &server,
        client: &machine,
        generator: &generator,
        link: &link,
        qps: 80_000.0,
        duration: DURATION,
        warmup: WARMUP,
    };
    let static_result = run_once(&spec, 17);

    let dynamics = NodeDynamics::new(PhaseSchedule::single())
        .with_machines(vec![machine])
        .with_rates(vec![1.0])
        .with_links(vec![link]);
    let nodes = [spec.client_node().with_dynamics(dynamics)];
    let phased = run_fleet(&topo(&service, &server, &nodes), 17, 1).expect("valid phased topology");
    assert_eq!(phased.aggregate, static_result, "a degenerate schedule must not perturb the static kernel");
    // The whole run is one phase whose stats match the aggregate.
    assert_eq!(phased.phases.len(), 1);
    assert_eq!(phased.phases[0].samples, static_result.samples);
    assert_eq!(phased.phases[0].p99, static_result.p99);
    assert_eq!(phased.phases[0].p50, static_result.p50);
}

/// `run_fleet` on a static topology reports one all-covering phase next
/// to the aggregate and per-node results of a plain per-node pass — the
/// phase lens is a collector, so it cannot move a bit.
#[test]
fn static_topology_has_one_phase_and_matches_run_collected() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let gen = GeneratorSpec::mutilate().with_connections(40);
    let nodes: Vec<ClientNode> = (0..3)
        .map(|i| {
            ClientNode::new(
                format!("n{i}"),
                MachineConfig::high_performance(),
                gen,
                LinkConfig::cloudlab_lan(),
                30_000.0,
            )
        })
        .collect();
    let spec = topo(&service, &server, &nodes);
    let mut per_node = PerNodeCollector::new(nodes.len());
    let aggregate = run_collected(&spec, 23, &mut per_node);
    let fleet = run_fleet(&spec, 23, 1).expect("valid topology");
    assert_eq!(fleet.aggregate, aggregate, "the phase lens must not perturb the aggregate");
    let node_results: Vec<_> = fleet.nodes.iter().map(|n| n.result.clone()).collect();
    assert_eq!(node_results, per_node.into_results(), "the phase lens must not perturb the nodes");
    assert_eq!(fleet.phases.len(), 1, "static topology has one merged phase");
    assert_eq!(fleet.phases[0].samples, aggregate.samples);
}

/// A mid-run machine decay (HP -> LP) is visible as a latency regime
/// change exactly at the boundary.
#[test]
fn two_phase_machine_flip_shows_a_regime_change() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let boundary = SimTime::ZERO + DURATION / 2;
    let plan = DynamicMachine::new(
        PhaseSchedule::new(vec![boundary]),
        vec![MachineConfig::high_performance(), MachineConfig::low_power()],
    );
    let dynamics = NodeDynamics::new(plan.schedule().clone()).with_machine_plan(plan);
    let nodes = [ClientNode::new(
        "decaying",
        MachineConfig::high_performance(),
        GeneratorSpec::mutilate(),
        LinkConfig::cloudlab_lan(),
        100_000.0,
    )
    .with_dynamics(dynamics)];
    let phased = run_fleet(&topo(&service, &server, &nodes), 5, 1).expect("valid phased topology");
    assert_eq!(phased.phases.len(), 2);
    let before = phased.phase(0).unwrap();
    let after = phased.phase(1).unwrap();
    assert!(before.samples > 500 && after.samples > 500);
    assert!(
        after.p99.as_us() > before.p99.as_us() * 1.5,
        "LP phase p99 {} must dwarf HP phase p99 {}",
        after.p99,
        before.p99
    );
    assert!(after.avg > before.avg);
    // The whole-run per-node result blends both regimes and reports the
    // deep wakes only the decayed half can produce.
    let node = &phased.nodes[0].result;
    assert!(node.client_wakes[2] + node.client_wakes[3] > 0);
}

/// Stepped load: each phase's achieved rate tracks its multiplier.
#[test]
fn stepped_load_tracks_the_multipliers() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let rate = PhasedRate::new(PhaseSchedule::new(vec![SimTime::ZERO + DURATION / 2]), vec![0.5, 2.0]);
    let dynamics = NodeDynamics::new(rate.schedule().clone()).with_rate_plan(rate);
    let nodes = [ClientNode::new(
        "stepped",
        MachineConfig::high_performance(),
        GeneratorSpec::mutilate(),
        LinkConfig::cloudlab_lan(),
        80_000.0,
    )
    .with_dynamics(dynamics)];
    let spec = topo(&service, &server, &nodes);
    let phased = run_fleet(&spec, 9, 1).expect("valid phased topology");
    let low = phased.phase(0).unwrap();
    let high = phased.phase(1).unwrap();
    assert!((low.achieved_qps / 40_000.0 - 1.0).abs() < 0.1, "low phase {}", low.achieved_qps);
    assert!((high.achieved_qps / 160_000.0 - 1.0).abs() < 0.1, "high phase {}", high.achieved_qps);
    // The reported target is the time-weighted offered load. Phase 0
    // covers [6ms, 30ms) of the 54ms window, phase 1 covers [30ms, 60ms).
    let expected = 80_000.0 * (0.5 * 24.0 + 2.0 * 30.0) / 54.0;
    let agg = &phased.aggregate;
    assert!((agg.target_qps / expected - 1.0).abs() < 1e-9, "target {}", agg.target_qps);
    assert!((agg.achieved_qps / agg.target_qps - 1.0).abs() < 0.1);
}

/// Dynamic nodes keep the fleet's permutation-invariance contract: the
/// declaration order of a mixed static/dynamic fleet is presentation.
#[test]
fn dynamic_fleets_are_permutation_invariant() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let gen = GeneratorSpec::mutilate().with_connections(40);
    let link = LinkConfig::cloudlab_lan();
    let decay = NodeDynamics::new(PhaseSchedule::new(vec![SimTime::from_ms(30)]))
        .with_machines(vec![MachineConfig::high_performance(), MachineConfig::low_power()]);
    let surge = NodeDynamics::new(PhaseSchedule::new(vec![SimTime::from_ms(20)])).with_rates(vec![1.0, 1.5]);
    let base = [
        ClientNode::new("decay", MachineConfig::high_performance(), gen, link, 20_000.0).with_dynamics(decay),
        ClientNode::new("steady", MachineConfig::high_performance(), gen, link, 30_000.0),
        ClientNode::new("surge", MachineConfig::high_performance(), gen, link, 10_000.0).with_dynamics(surge),
    ];
    let run_order = |order: &[usize]| {
        let nodes: Vec<ClientNode> = order.iter().map(|&i| base[i].clone()).collect();
        run_fleet(&topo(&service, &server, &nodes), 31, 1).expect("valid phased topology")
    };
    let fwd = run_order(&[0, 1, 2]);
    let rev = run_order(&[2, 1, 0]);
    assert_eq!(fwd.aggregate, rev.aggregate, "aggregate must ignore declaration order");
    assert_eq!(fwd.phases, rev.phases, "per-phase stats must ignore declaration order");
    for label in ["decay", "steady", "surge"] {
        assert_eq!(
            fwd.node(label).unwrap().result,
            rev.node(label).unwrap().result,
            "node '{label}' must be order-independent"
        );
    }
    // A dynamic node and its static twin are different content: the
    // static "steady" node's stream is unchanged by its neighbours'
    // dynamics being declared at all.
    let static_node = &base[1];
    let twin = static_node.clone().with_dynamics(NodeDynamics::new(PhaseSchedule::single()));
    assert_ne!(static_node.content_key(), twin.content_key());
}

/// Same seed, same dynamic topology: bit-identical, and distinct seeds
/// differ.
#[test]
fn dynamic_runs_are_deterministic_per_seed() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let dynamics = NodeDynamics::new(PhaseSchedule::stepped(SimDuration::from_ms(20), 3))
        .with_rates(vec![0.8, 1.4, 1.0])
        .with_machines(vec![
            MachineConfig::high_performance(),
            MachineConfig::high_performance(),
            MachineConfig::low_power(),
        ])
        .with_links(vec![LinkConfig::cloudlab_lan(), LinkConfig::cross_rack(), LinkConfig::cloudlab_lan()]);
    let nodes = [ClientNode::new(
        "busy",
        MachineConfig::high_performance(),
        GeneratorSpec::mutilate(),
        LinkConfig::cloudlab_lan(),
        60_000.0,
    )
    .with_dynamics(dynamics)];
    let spec = topo(&service, &server, &nodes);
    let a = run_fleet(&spec, 42, 1).expect("valid phased topology");
    let b = run_fleet(&spec, 42, 1).expect("valid phased topology");
    assert_eq!(a, b);
    let c = run_fleet(&spec, 43, 1).expect("valid phased topology");
    assert_ne!(a.aggregate, c.aggregate);
}

/// A phased rate on a closed-loop generator is rejected with a typed
/// error: closed loops pace by think time, so the rate plan could not
/// change the offered load it would be reported as.
#[test]
fn phased_rate_on_closed_loop_is_rejected() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let dynamics =
        NodeDynamics::new(PhaseSchedule::new(vec![SimTime::from_ms(30)])).with_rates(vec![0.5, 2.0]);
    let nodes = [ClientNode::new(
        "closed",
        MachineConfig::high_performance(),
        GeneratorSpec::mutilate().closed_loop(SimDuration::from_us(100)),
        LinkConfig::cloudlab_lan(),
        10_000.0,
    )
    .with_dynamics(dynamics)];
    let err = run_fleet(&topo(&service, &server, &nodes), 1, 1).unwrap_err();
    assert_eq!(err, TopologyError::PhasedRateClosedLoop { label: "closed".into() });
    assert!(err.to_string().contains("require an open-loop generator"), "{err}");
}

/// A rate plan carrying a non-finite or non-positive multiplier is
/// rejected with a typed error before it can poison the offered load and
/// every mean-multiplier fold with NaN. `PhasedRate::new` panics on
/// these, so the hole is plans built through the unchecked
/// (deserialization-shaped) seam.
#[test]
fn non_finite_phase_rates_are_rejected() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let schedule = PhaseSchedule::new(vec![SimTime::from_ms(30)]);
    let build = |multipliers: Vec<f64>| {
        let rate = PhasedRate::unchecked(schedule.clone(), multipliers);
        let dynamics = NodeDynamics::new(schedule.clone()).with_rate_plan(rate);
        [ClientNode::new(
            "poisoned",
            MachineConfig::high_performance(),
            GeneratorSpec::mutilate(),
            LinkConfig::cloudlab_lan(),
            10_000.0,
        )
        .with_dynamics(dynamics)]
    };

    let nan_nodes = build(vec![1.0, f64::NAN]);
    let err = run_fleet(&topo(&service, &server, &nan_nodes), 1, 1).unwrap_err();
    assert!(
        matches!(
            err,
            TopologyError::NonFinitePhaseRate { ref label, phase: 1, multiplier } if label == "poisoned" && multiplier.is_nan()
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("finite and positive"), "{err}");
    assert!(err.to_string().contains("NaN"), "{err}");

    let negative_nodes = build(vec![-0.5, 2.0]);
    let err = run_fleet(&topo(&service, &server, &negative_nodes), 1, 1).unwrap_err();
    assert_eq!(
        err,
        TopologyError::NonFinitePhaseRate { label: "poisoned".into(), phase: 0, multiplier: -0.5 }
    );
    assert!(err.to_string().contains("-0.5"), "{err}");

    let inf_nodes = build(vec![1.0, f64::INFINITY]);
    let err = run_fleet(&topo(&service, &server, &inf_nodes), 1, 1).unwrap_err();
    assert!(matches!(err, TopologyError::NonFinitePhaseRate { phase: 1, .. }), "{err:?}");

    // A well-formed plan through the same seam still validates.
    let fine_nodes = build(vec![0.5, 2.0]);
    assert!(run_fleet(&topo(&service, &server, &fine_nodes), 1, 1).is_ok());
}

/// The merged schedule is the union of node schedules, and per-phase
/// stats follow it.
#[test]
fn merged_schedule_unions_node_boundaries() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let gen = GeneratorSpec::mutilate().with_connections(40);
    let link = LinkConfig::cloudlab_lan();
    let nodes = vec![
        ClientNode::new("a", MachineConfig::high_performance(), gen, link, 20_000.0).with_dynamics(
            NodeDynamics::new(PhaseSchedule::new(vec![SimTime::from_ms(20)])).with_rates(vec![1.0, 1.3]),
        ),
        ClientNode::new("b", MachineConfig::high_performance(), gen, link, 20_000.0).with_dynamics(
            NodeDynamics::new(PhaseSchedule::new(vec![SimTime::from_ms(40)])).with_rates(vec![1.3, 1.0]),
        ),
    ];
    let spec = topo(&service, &server, &nodes);
    let merged = spec.merged_schedule();
    assert_eq!(merged.boundaries(), &[SimTime::from_ms(20), SimTime::from_ms(40)]);
    let phased = run_fleet(&spec, 3, 1).expect("valid phased topology");
    assert_eq!(phased.phases.len(), 3);
    assert!(phased.phases.iter().all(|p| p.samples > 0));
}
