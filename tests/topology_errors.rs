//! Message audit of [`TopologyError`]'s `Display` arms: every arm must
//! name the offending entity *and* print the value it rejects, so a log
//! line from a thousand-cell sweep identifies the broken cell without a
//! debugger. Historically `EmptyWindow` printed no numbers at all —
//! this table pins each arm's payload into its message. Also checks
//! that loads too high to pace are rejected by `validate` instead of
//! panicking inside the kernel.

use tpv_core::runtime::run_phased;
use tpv_core::topology::{uniform_fleet, ClientNode, NodeDynamics, TopologyError, TopologySpec};
use tpv_hw::MachineConfig;
use tpv_loadgen::{GeneratorSpec, PhasedRate};
use tpv_net::LinkConfig;
use tpv_services::kv::KvConfig;
use tpv_services::{ServiceConfig, ServiceKind};
use tpv_sim::{PhaseSchedule, SimDuration, SimTime};

#[test]
fn every_display_arm_prints_the_values_it_rejects() {
    let warmup = SimDuration::from_ms(60);
    let duration = SimDuration::from_ms(60);
    let cases: Vec<(TopologyError, Vec<String>)> = vec![
        (TopologyError::EmptyFleet, vec!["at least one client node".into()]),
        (TopologyError::TooManyNodes { lowered: 70_000 }, vec!["70000".into(), u16::MAX.to_string()]),
        (
            TopologyError::NonPositiveQps { label: "idle".into(), qps: -3.5 },
            vec!["'idle'".into(), "-3.5".into(), "must be positive".into()],
        ),
        (
            TopologyError::TooManyPhases { label: "busy".into(), phases: 100_000 },
            vec!["'busy'".into(), "100000".into(), u16::MAX.to_string()],
        ),
        (
            TopologyError::PhasedRateClosedLoop { label: "closed".into() },
            vec!["'closed'".into(), "open-loop".into()],
        ),
        (
            TopologyError::NonFinitePhaseRate { label: "poisoned".into(), phase: 3, multiplier: f64::NAN },
            vec!["'poisoned'".into(), "phase 3".into(), "NaN".into(), "finite and positive".into()],
        ),
        (
            TopologyError::NonFinitePhaseRate { label: "drained".into(), phase: 0, multiplier: -2.0 },
            vec!["'drained'".into(), "phase 0".into(), "-2".into()],
        ),
        (
            TopologyError::EmptyWindow { warmup, duration },
            vec![format!("{warmup}"), format!("{duration}"), "warmup must be shorter".into()],
        ),
        (
            TopologyError::EmptyCohort { label: "ghost".into() },
            vec!["'ghost'".into(), "population of at least one".into()],
        ),
        (
            TopologyError::TrackedExceedsPopulation { label: "over".into(), tracked: 9, population: 4 },
            vec!["'over'".into(), "9".into(), "4".into()],
        ),
        (
            TopologyError::PooledClosedLoop { label: "pool".into() },
            vec!["'pool'".into(), "open-loop".into(), "track every member".into()],
        ),
        (
            TopologyError::UnschedulableLoad { label: "flood".into(), phase: None, qps: 1e13 },
            vec!["'flood'".into(), "offered load".into(), "10000000000000".into(), "zero gap".into()],
        ),
        (
            TopologyError::UnschedulableLoad { label: "surge".into(), phase: Some(1), qps: f64::INFINITY },
            vec!["'surge'".into(), "phase 1".into(), "inf".into()],
        ),
    ];
    for (err, needles) in cases {
        let message = err.to_string();
        for needle in needles {
            assert!(message.contains(&needle), "{err:?}: message {message:?} must contain {needle:?}");
        }
    }
}

/// The window message carries both ends of the rejected interval even
/// when they differ — not just the equal-boundary case above.
#[test]
fn empty_window_message_orders_its_bounds() {
    let err =
        TopologyError::EmptyWindow { warmup: SimDuration::from_ms(90), duration: SimDuration::from_ms(60) };
    let message = err.to_string();
    let warmup_at = message.find(&format!("{}", SimDuration::from_ms(90))).expect("warmup in message");
    let duration_at = message.find(&format!("{}", SimDuration::from_ms(60))).expect("duration in message");
    assert!(warmup_at < duration_at, "warmup should precede duration: {message}");
}

fn kv_service() -> ServiceConfig {
    ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
        preload_keys: 1_000,
        ..KvConfig::default()
    }))
}

fn fleet_topo<'a>(
    service: &'a ServiceConfig,
    server: &'a MachineConfig,
    nodes: &'a [ClientNode],
) -> TopologySpec<'a> {
    TopologySpec {
        shards: None,
        service,
        server,
        nodes,
        duration: SimDuration::from_ms(30),
        warmup: SimDuration::from_ms(3),
        cohorts: &[],
    }
}

fn memcached_pair(total_qps: f64) -> Vec<ClientNode> {
    uniform_fleet(
        "agent",
        MachineConfig::high_performance(),
        GeneratorSpec::mutilate(),
        LinkConfig::cloudlab_lan(),
        total_qps,
        2,
    )
}

/// An offered load whose per-connection gap rounds to zero nanoseconds
/// — an infinite one, or a finite one past nanosecond resolution — is a
/// typed error from `validate` and from the runtime entry points, not a
/// panic in the arrival process.
#[test]
fn unschedulable_base_loads_are_rejected() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    for total_qps in [f64::INFINITY, 1e13] {
        let nodes = memcached_pair(total_qps);
        let topo = fleet_topo(&service, &server, &nodes);
        let expected =
            TopologyError::UnschedulableLoad { label: "agent0".into(), phase: None, qps: nodes[0].qps };
        assert_eq!(topo.validate(), Err(expected.clone()), "total qps {total_qps}");
        assert_eq!(run_phased(&topo, 1, 1).unwrap_err(), expected, "total qps {total_qps}");
    }
    // The same fleet at a schedulable load still validates and runs.
    let nodes = memcached_pair(20_000.0);
    assert!(run_phased(&fleet_topo(&service, &server, &nodes), 1, 1).is_ok());
}

/// A finite, positive phase multiplier that pushes one phase's load past
/// nanosecond pacing is rejected with that phase's index and load.
#[test]
fn unschedulable_phase_loads_are_rejected() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let schedule = PhaseSchedule::new(vec![SimTime::from_ms(15)]);
    let rated = |multipliers: Vec<f64>| -> Vec<ClientNode> {
        let rate = PhasedRate::new(schedule.clone(), multipliers);
        memcached_pair(20_000.0)
            .into_iter()
            .map(|n| n.with_dynamics(NodeDynamics::new(schedule.clone()).with_rate_plan(rate.clone())))
            .collect()
    };

    let nodes = rated(vec![1.0, 1e10]);
    let topo = fleet_topo(&service, &server, &nodes);
    let expected =
        TopologyError::UnschedulableLoad { label: "agent0".into(), phase: Some(1), qps: nodes[0].qps * 1e10 };
    assert_eq!(topo.validate(), Err(expected.clone()));
    assert_eq!(run_phased(&topo, 1, 1).unwrap_err(), expected);

    let nodes = rated(vec![0.5, 2.0]);
    assert!(run_phased(&fleet_topo(&service, &server, &nodes), 1, 1).is_ok());
}
