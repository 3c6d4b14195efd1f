//! Message audit of [`TopologyError`]'s `Display` arms: every arm must
//! name the offending entity *and* print the value it rejects, so a log
//! line from a thousand-cell sweep identifies the broken cell without a
//! debugger. Historically `EmptyWindow` printed no numbers at all —
//! this table pins each arm's payload into its message. Also checks
//! that loads too high to pace, malformed shard tiers, mismatched
//! dynamics plans, unusable sigmas and unbuildable service configs are
//! rejected by `validate` and `run_fleet` instead of panicking inside the
//! kernel.

use tpv_core::runtime::run_fleet;
use tpv_core::topology::{
    uniform_fleet, ClientNode, NodeDynamics, ShardPolicy, ShardSpec, SigmaOwner, TopologyError, TopologySpec,
};
use tpv_hw::{DynamicMachine, MachineConfig};
use tpv_loadgen::{ArrivalKind, GeneratorSpec, PhasedRate};
use tpv_net::LinkConfig;
use tpv_services::hdsearch::{HdSearchConfig, MAX_PLANES};
use tpv_services::kv::KvConfig;
use tpv_services::socialnet::SocialConfig;
use tpv_services::synthetic::SyntheticConfig;
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
        (
            TopologyError::PlanScheduleMismatch { label: "drift".into(), plan: "rate" },
            vec!["'drift'".into(), "rate plan".into(), "phase schedule".into()],
        ),
        (
            TopologyError::LinkCountMismatch { label: "wired".into(), links: 1, phases: 3 },
            vec!["'wired'".into(), "1 links".into(), "3 phases".into()],
        ),
        (
            TopologyError::InvalidServiceConfig {
                service: "memcached",
                field: "preload_keys",
                value: 0,
                max: u64::MAX,
            },
            vec!["memcached".into(), "preload_keys".into(), "at least 1".into(), "got 0".into()],
        ),
        (
            TopologyError::InvalidServiceConfig { service: "hdsearch", field: "planes", value: 64, max: 63 },
            vec!["hdsearch".into(), "planes".into(), "1..=63".into(), "got 64".into()],
        ),
        (TopologyError::EmptyShardTier, vec!["at least one shard".into()]),
        (
            TopologyError::ShardOutOfRange { node: None, shard: 9, shards: 2 },
            vec!["hot shard 9".into(), "K = 2".into()],
        ),
        (
            TopologyError::ShardOutOfRange { node: Some(2), shard: 5, shards: 4 },
            vec!["node 2".into(), "shard 5".into(), "K = 4".into()],
        ),
        (TopologyError::HotShardShare { share: 1.5 }, vec!["1.5".into(), "(0, 1]".into()]),
        (
            TopologyError::AssignmentLength { assigned: 2, nodes: 4 },
            vec!["got 2".into(), "4 nodes".into(), "one shard per node".into()],
        ),
        (
            TopologyError::InvalidSigma {
                owner: SigmaOwner::Node { label: "lp".into(), phase: None },
                field: "thermal_sigma",
                value: f64::NAN,
            },
            vec!["node 'lp':".into(), "thermal_sigma".into(), "NaN".into(), "finite and non-negative".into()],
        ),
        (
            TopologyError::InvalidSigma {
                owner: SigmaOwner::Node { label: "decay".into(), phase: Some(1) },
                field: "wake_jitter_sigma",
                value: -0.5,
            },
            vec!["node 'decay' phase 1".into(), "wake_jitter_sigma".into(), "-0.5".into()],
        ),
        (
            TopologyError::InvalidSigma { owner: SigmaOwner::Server, field: "prediction_sigma", value: -1.0 },
            vec!["server".into(), "prediction_sigma".into(), "-1".into()],
        ),
        (
            TopologyError::InvalidSigma {
                owner: SigmaOwner::Shard(3),
                field: "governor_bias_sigma",
                value: f64::INFINITY,
            },
            vec!["shard 3".into(), "governor_bias_sigma".into(), "inf".into()],
        ),
        (
            TopologyError::InvalidSigma {
                owner: SigmaOwner::Node { label: "bursty".into(), phase: None },
                field: "arrival_sigma",
                value: f64::NEG_INFINITY,
            },
            vec!["node 'bursty'".into(), "arrival_sigma".into(), "-inf".into()],
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

fn memcached_fleet(total_qps: f64, count: usize) -> Vec<ClientNode> {
    uniform_fleet(
        "agent",
        MachineConfig::high_performance(),
        GeneratorSpec::mutilate(),
        LinkConfig::cloudlab_lan(),
        total_qps,
        count,
    )
}

fn memcached_pair(total_qps: f64) -> Vec<ClientNode> {
    memcached_fleet(total_qps, 2)
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
        assert_eq!(run_fleet(&topo, 1, 1).unwrap_err(), expected, "total qps {total_qps}");
    }
    // The same fleet at a schedulable load still validates and runs.
    let nodes = memcached_pair(20_000.0);
    assert!(run_fleet(&fleet_topo(&service, &server, &nodes), 1, 1).is_ok());
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
    assert_eq!(run_fleet(&topo, 1, 1).unwrap_err(), expected);

    let nodes = rated(vec![0.5, 2.0]);
    assert!(run_fleet(&fleet_topo(&service, &server, &nodes), 1, 1).is_ok());
}

/// A shard tier that cannot host the fleet — no machines, a hot or
/// explicitly assigned shard past the tier, a hot share outside
/// `(0, 1]`, an explicit assignment of the wrong length — is a typed
/// error from `validate` and `run_fleet`, not a panic in the kernel.
#[test]
fn malformed_shard_tiers_are_rejected() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes = memcached_fleet(20_000.0, 4);
    let pair = ShardSpec::uniform(server, 2);
    let cases = [
        (ShardSpec { machines: Vec::new(), policy: ShardPolicy::RoundRobin }, TopologyError::EmptyShardTier),
        (
            pair.clone().with_policy(ShardPolicy::HotShard { hot: 9, share: 0.5 }),
            TopologyError::ShardOutOfRange { node: None, shard: 9, shards: 2 },
        ),
        (
            pair.clone().with_policy(ShardPolicy::HotShard { hot: 0, share: 0.0 }),
            TopologyError::HotShardShare { share: 0.0 },
        ),
        (
            pair.clone().with_policy(ShardPolicy::HotShard { hot: 1, share: 1.5 }),
            TopologyError::HotShardShare { share: 1.5 },
        ),
        (
            pair.clone().with_policy(ShardPolicy::Explicit(vec![0, 1])),
            TopologyError::AssignmentLength { assigned: 2, nodes: 4 },
        ),
        (
            pair.clone().with_policy(ShardPolicy::Explicit(vec![0, 1, 2, 0])),
            TopologyError::ShardOutOfRange { node: Some(2), shard: 2, shards: 2 },
        ),
    ];
    for (tier, expected) in cases {
        let mut topo = fleet_topo(&service, &server, &nodes);
        topo.shards = Some(&tier);
        assert_eq!(topo.validate(), Err(expected.clone()), "{:?}", tier.policy);
        assert_eq!(run_fleet(&topo, 1, 2).unwrap_err(), expected, "{:?}", tier.policy);
    }
    // NaN fails the share check too (and never equals itself).
    let nan = pair.clone().with_policy(ShardPolicy::HotShard { hot: 0, share: f64::NAN });
    let mut topo = fleet_topo(&service, &server, &nodes);
    topo.shards = Some(&nan);
    assert!(matches!(run_fleet(&topo, 1, 2), Err(TopologyError::HotShardShare { share }) if share.is_nan()));
    // A well-formed tier over the same fleet runs.
    let good = pair.with_policy(ShardPolicy::Explicit(vec![0, 1, 1, 0]));
    topo.shards = Some(&good);
    assert_eq!(run_fleet(&topo, 1, 2).expect("valid tier").shards.len(), 2);
}

/// Dynamics assembled field by field can carry a machine or rate plan
/// over another schedule, or the wrong number of links; `validate` and
/// `run_fleet` name the node and the plan instead of panicking.
#[test]
fn mismatched_dynamics_plans_are_rejected() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let schedule = PhaseSchedule::new(vec![SimTime::from_ms(15)]);
    let other = PhaseSchedule::new(vec![SimTime::from_ms(10)]);
    let hp = MachineConfig::high_performance();
    let bare = NodeDynamics::new(schedule.clone());
    let cases = [
        (
            NodeDynamics { machine: Some(DynamicMachine::new(other.clone(), vec![hp, hp])), ..bare.clone() },
            TopologyError::PlanScheduleMismatch { label: "agent0".into(), plan: "machine" },
        ),
        (
            NodeDynamics { rate: Some(PhasedRate::new(other, vec![1.0, 2.0])), ..bare.clone() },
            TopologyError::PlanScheduleMismatch { label: "agent0".into(), plan: "rate" },
        ),
        (
            NodeDynamics { links: Some(vec![LinkConfig::cloudlab_lan()]), ..bare },
            TopologyError::LinkCountMismatch { label: "agent0".into(), links: 1, phases: 2 },
        ),
    ];
    for (dynamics, expected) in cases {
        let nodes: Vec<ClientNode> =
            memcached_pair(20_000.0).into_iter().map(|n| n.with_dynamics(dynamics.clone())).collect();
        let topo = fleet_topo(&service, &server, &nodes);
        assert_eq!(topo.validate(), Err(expected.clone()));
        assert_eq!(run_fleet(&topo, 1, 1).unwrap_err(), expected);
    }
}

/// `err` is the `InvalidSigma` naming `owner` and `field`, carrying
/// `value` bit for bit (NaN included, which never equals itself).
fn assert_invalid_sigma(err: TopologyError, owner: &SigmaOwner, field: &str, value: f64) {
    match &err {
        TopologyError::InvalidSigma { owner: o, field: fd, value: v }
            if o == owner && *fd == field && v.to_bits() == value.to_bits() => {}
        _ => panic!("expected InvalidSigma {{ {owner:?}, {field}, {value} }}, got {err:?}"),
    }
}

/// A sigma that is negative or not finite — on a node's arrival
/// process, its machine, a phase of its machine plan, the server or a
/// shard — is a typed error from `validate` and `run_fleet`. Before it
/// was checked, an infinite arrival sigma aborted on an unbounded
/// allocation, NaN or negative ones panicked in a sampler constructor,
/// and `prediction_sigma`/`wake_jitter_sigma` ran silently switched off.
#[test]
fn unusable_sigmas_are_rejected() {
    let service = kv_service();
    let good_server = MachineConfig::server_baseline();
    let agent1 = SigmaOwner::Node { label: "agent1".into(), phase: None };

    let arrival = |sigma: f64| {
        let mut nodes = memcached_pair(20_000.0);
        nodes[1].generator.arrival = ArrivalKind::LogNormal(sigma);
        nodes
    };
    let machine = |set: fn(&mut MachineConfig)| {
        let mut nodes = memcached_pair(20_000.0);
        set(&mut nodes[1].machine);
        nodes
    };
    let node_cases: Vec<(Vec<ClientNode>, &str, f64)> = vec![
        (arrival(f64::INFINITY), "arrival_sigma", f64::INFINITY),
        (arrival(-1.0), "arrival_sigma", -1.0),
        (arrival(f64::NAN), "arrival_sigma", f64::NAN),
        (machine(|m| m.variability.thermal_sigma = f64::NAN), "thermal_sigma", f64::NAN),
        (
            machine(|m| m.variability.governor_bias_sigma = f64::INFINITY),
            "governor_bias_sigma",
            f64::INFINITY,
        ),
        (machine(|m| m.variability.prediction_sigma = f64::NAN), "prediction_sigma", f64::NAN),
        (machine(|m| m.variability.wake_jitter_sigma = -0.5), "wake_jitter_sigma", -0.5),
        (machine(|m| m.variability.dvfs_bias_sigma = -2.0), "dvfs_bias_sigma", -2.0),
        (
            machine(|m| m.variability.wake_bias_sigma = f64::NEG_INFINITY),
            "wake_bias_sigma",
            f64::NEG_INFINITY,
        ),
    ];
    for (nodes, field, value) in node_cases {
        let topo = fleet_topo(&service, &good_server, &nodes);
        assert_invalid_sigma(topo.validate().unwrap_err(), &agent1, field, value);
        assert_invalid_sigma(run_fleet(&topo, 1, 1).unwrap_err(), &agent1, field, value);
    }

    // One phase of a machine plan.
    let schedule = PhaseSchedule::new(vec![SimTime::from_ms(15)]);
    let lp = MachineConfig::low_power();
    let mut hot = lp;
    hot.variability.thermal_sigma = -0.1;
    let nodes: Vec<ClientNode> = memcached_pair(20_000.0)
        .into_iter()
        .map(|n| n.with_dynamics(NodeDynamics::new(schedule.clone()).with_machines(vec![lp, hot])))
        .collect();
    let topo = fleet_topo(&service, &good_server, &nodes);
    let phase1 = SigmaOwner::Node { label: "agent0".into(), phase: Some(1) };
    assert_invalid_sigma(topo.validate().unwrap_err(), &phase1, "thermal_sigma", -0.1);
    assert_invalid_sigma(run_fleet(&topo, 1, 1).unwrap_err(), &phase1, "thermal_sigma", -0.1);

    // The server, and one shard of a tier.
    let mut bad_server = good_server;
    bad_server.variability.prediction_sigma = f64::NAN;
    let nodes = memcached_pair(20_000.0);
    let topo = fleet_topo(&service, &bad_server, &nodes);
    assert_invalid_sigma(topo.validate().unwrap_err(), &SigmaOwner::Server, "prediction_sigma", f64::NAN);
    assert_invalid_sigma(
        run_fleet(&topo, 1, 1).unwrap_err(),
        &SigmaOwner::Server,
        "prediction_sigma",
        f64::NAN,
    );

    let tier = ShardSpec { machines: vec![good_server, bad_server], policy: ShardPolicy::RoundRobin };
    let mut topo = fleet_topo(&service, &good_server, &nodes);
    topo.shards = Some(&tier);
    assert_invalid_sigma(topo.validate().unwrap_err(), &SigmaOwner::Shard(1), "prediction_sigma", f64::NAN);
    assert_invalid_sigma(
        run_fleet(&topo, 1, 2).unwrap_err(),
        &SigmaOwner::Shard(1),
        "prediction_sigma",
        f64::NAN,
    );

    // Zero disables a source and is accepted, the arrival sigma included.
    let mut quiet = memcached_pair(20_000.0);
    quiet[1].machine.variability = tpv_hw::env::VariabilityProfile::none();
    quiet[1].generator.arrival = ArrivalKind::LogNormal(0.0);
    assert!(run_fleet(&fleet_topo(&service, &good_server, &quiet), 1, 1).is_ok());
}

/// A service config its service cannot be built from — a pool with no
/// workers, an empty keyspace, dataset or graph, a zero LSH shape,
/// more planes than a signature holds, or more vectors or profile
/// queries than a `u32` id numbers — is a typed error from
/// `validate` and `run_fleet`. Before it was checked, each passed
/// `validate`, and `run_fleet` panicked while building the service or,
/// past the id limit, wrapped ids silently.
#[test]
fn unbuildable_service_configs_are_rejected() {
    let server = MachineConfig::server_baseline();
    let nodes = memcached_pair(20_000.0);
    let kv = KvConfig::default();
    let hd = HdSearchConfig::default();
    let count = |field, value| (field, value, u64::MAX);
    // Vector and query ids are `u32`s.
    let (ids, too_many) = (u32::MAX as u64, u32::MAX as usize + 1);
    let cases = [
        (ServiceKind::Memcached(KvConfig { workers: 0, ..kv }), count("workers", 0)),
        (ServiceKind::Memcached(KvConfig { preload_keys: 0, ..kv }), count("preload_keys", 0)),
        (ServiceKind::Memcached(KvConfig { workers: 0, preload_keys: 0, ..kv }), count("workers", 0)),
        (
            ServiceKind::Synthetic(SyntheticConfig { workers: 0, ..SyntheticConfig::default() }),
            count("workers", 0),
        ),
        (ServiceKind::HdSearch(HdSearchConfig { dataset_size: 0, ..hd }), ("dataset_size", 0, ids)),
        (
            ServiceKind::HdSearch(HdSearchConfig { dataset_size: too_many, ..hd }),
            ("dataset_size", ids + 1, ids),
        ),
        (
            ServiceKind::HdSearch(HdSearchConfig { profile_queries: too_many, ..hd }),
            ("profile_queries", ids + 1, ids),
        ),
        (ServiceKind::HdSearch(HdSearchConfig { dim: 0, ..hd }), count("dim", 0)),
        (ServiceKind::HdSearch(HdSearchConfig { tables: 0, ..hd }), count("tables", 0)),
        (ServiceKind::HdSearch(HdSearchConfig { planes: 0, ..hd }), ("planes", 0, 63)),
        (ServiceKind::HdSearch(HdSearchConfig { planes: MAX_PLANES + 1, ..hd }), ("planes", 64, 63)),
        (ServiceKind::HdSearch(HdSearchConfig { shards: 0, ..hd }), count("shards", 0)),
        (ServiceKind::HdSearch(HdSearchConfig { midtier_workers: 0, ..hd }), count("midtier_workers", 0)),
        (ServiceKind::HdSearch(HdSearchConfig { bucket_workers: 0, ..hd }), count("bucket_workers", 0)),
        (ServiceKind::SocialNetwork(SocialConfig { users: 0, ..SocialConfig::default() }), count("users", 0)),
    ];
    for (kind, (field, value, max)) in cases {
        let service = ServiceConfig::without_interference(kind);
        let topo = fleet_topo(&service, &server, &nodes);
        let expected = TopologyError::InvalidServiceConfig { service: kind.name(), field, value, max };
        assert_eq!(topo.validate(), Err(expected.clone()), "{kind:?}");
        assert_eq!(run_fleet(&topo, 1, 1).unwrap_err(), expected, "{kind:?}");
    }
    assert_eq!(ServiceKind::HdSearch(HdSearchConfig { planes: MAX_PLANES, ..hd }).invalid_field(), None);
    // Zero profile queries run one; the id limits are inclusive.
    let limits = HdSearchConfig { dataset_size: u32::MAX as usize, profile_queries: u32::MAX as usize, ..hd };
    for hd in [HdSearchConfig { profile_queries: 0, ..hd }, limits] {
        assert_eq!(ServiceKind::HdSearch(hd).invalid_field(), None, "{hd:?}");
    }
    // One worker and one key is the smallest config that builds and runs.
    let tiny = KvConfig { workers: 1, preload_keys: 1, ..KvConfig::default() };
    let service = ServiceConfig::without_interference(ServiceKind::Memcached(tiny));
    assert!(run_fleet(&fleet_topo(&service, &server, &nodes), 1, 1).is_ok());
}
