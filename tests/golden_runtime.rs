//! Golden pins of `run_once` outputs across every spec shape the study
//! registry exercises (service kinds × client configs × server scenarios
//! × generator taxonomies).
//!
//! The values were captured from the pre-topology-refactor monolithic
//! event loop; the topology kernel's trivial 1×1 topology must reproduce
//! them **bit for bit** — the refactor's central invariant. Floats are
//! pinned via `f64::to_bits`, durations via nanoseconds, so there is no
//! tolerance to hide behind.
//!
//! To regenerate after an *intentional* semantic change:
//! `cargo test --test golden_runtime -- --ignored --nocapture`
//! and paste the printed rows over `GOLDEN`.

use tpv_core::control::{
    AdmissionThrottle, ControlSpec, Controller, DoNothing, HedgeRequests, MitigationPolicy, RemediateNode,
    RerouteHotShard,
};
use tpv_core::runtime::{run_fleet, run_once, RunResult, RunSpec};
use tpv_core::topology::{ClientNode, CohortSpec, NodeDynamics, ShardPolicy, ShardSpec, TopologySpec};
use tpv_hw::{CStatePolicy, MachineConfig};
use tpv_loadgen::{GeneratorSpec, LoopMode, PointOfMeasurement, TimingMode};
use tpv_net::LinkConfig;
use tpv_services::hdsearch::HdSearchConfig;
use tpv_services::kv::KvConfig;
use tpv_services::socialnet::SocialConfig;
use tpv_services::synthetic::SyntheticConfig;
use tpv_services::{ServiceConfig, ServiceKind};
use tpv_sim::{PhaseSchedule, SimDuration, SimTime};

/// One pinned case: a name, the seed, and the bit-exact observation.
struct Golden {
    name: &'static str,
    seed: u64,
    /// `[avg, p50, p99, max, std_dev, samples, achieved_bits, target_bits,
    ///   late_bits, slip, w0, w1, w2, w3, energy_bits, truncated]`
    /// (durations in ns, floats as `f64::to_bits`).
    row: [u64; 16],
}

/// The spec shapes under pin, matching the registry studies: every
/// service kind, both Table II clients, all three server scenarios, both
/// timing modes, open and closed loops, and a non-default measurement
/// point. Each returns owned parts; the caller borrows them into a
/// `RunSpec`.
struct Parts {
    service: ServiceConfig,
    client: MachineConfig,
    server: MachineConfig,
    generator: GeneratorSpec,
    link: LinkConfig,
    qps: f64,
}

fn cases() -> Vec<(&'static str, Parts)> {
    let kv = || ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    vec![
        (
            "memcached-lp-base",
            Parts {
                service: kv(),
                client: MachineConfig::low_power(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 100_000.0,
            },
        ),
        (
            "memcached-hp-base",
            Parts {
                service: kv(),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 100_000.0,
            },
        ),
        (
            "memcached-hp-smton",
            Parts {
                service: kv(),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline().with_smt(true),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 300_000.0,
            },
        ),
        (
            "memcached-lp-c1eon",
            Parts {
                service: kv(),
                client: MachineConfig::low_power(),
                server: MachineConfig::server_baseline().with_cstates(CStatePolicy::UpToC1E),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 50_000.0,
            },
        ),
        (
            "hdsearch-hp-base",
            Parts {
                service: ServiceConfig::new(ServiceKind::HdSearch(HdSearchConfig {
                    dataset_size: 1024,
                    profile_queries: 32,
                    ..HdSearchConfig::default()
                })),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::microsuite_client(),
                link: LinkConfig::cloudlab_lan(),
                qps: 1_000.0,
            },
        ),
        (
            "socialnet-lp-base",
            Parts {
                service: ServiceConfig::new(ServiceKind::SocialNetwork(SocialConfig {
                    users: 500,
                    ..SocialConfig::default()
                })),
                client: MachineConfig::low_power(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::wrk2(),
                link: LinkConfig::cloudlab_lan(),
                qps: 300.0,
            },
        ),
        (
            "synthetic-hp-100us",
            Parts {
                service: ServiceConfig::new(ServiceKind::Synthetic(SyntheticConfig::with_delay(
                    SimDuration::from_us(100),
                ))),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::synthetic_client(),
                link: LinkConfig::cloudlab_lan(),
                qps: 10_000.0,
            },
        ),
        (
            "memcached-hp-closed",
            Parts {
                service: kv(),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate().closed_loop(SimDuration::from_us(100)),
                link: LinkConfig::cloudlab_lan(),
                qps: 50_000.0,
            },
        ),
        (
            "memcached-lp-busywait-kernel",
            Parts {
                service: kv(),
                client: MachineConfig::low_power(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate()
                    .with_timing(TimingMode::BusyWait)
                    .with_pom(PointOfMeasurement::Kernel),
                link: LinkConfig::ideal(),
                qps: 100_000.0,
            },
        ),
    ]
}

/// The bit-exact 16-field projection every golden table pins — one
/// definition, so the suites cannot silently pin different projections
/// of a future `RunResult` field.
fn golden_row(r: &RunResult) -> [u64; 16] {
    [
        r.avg.as_ns(),
        r.p50.as_ns(),
        r.p99.as_ns(),
        r.max.as_ns(),
        r.std_dev.as_ns(),
        r.samples,
        r.achieved_qps.to_bits(),
        r.target_qps.to_bits(),
        r.late_send_fraction.to_bits(),
        r.mean_send_slip.as_ns(),
        r.client_wakes[0],
        r.client_wakes[1],
        r.client_wakes[2],
        r.client_wakes[3],
        r.client_energy_core_secs.to_bits(),
        r.truncated_inflight,
    ]
}

fn observe(parts: &Parts, seed: u64) -> [u64; 16] {
    let spec = RunSpec {
        service: &parts.service,
        server: &parts.server,
        client: &parts.client,
        generator: &parts.generator,
        link: &parts.link,
        qps: parts.qps,
        duration: SimDuration::from_ms(60),
        warmup: SimDuration::from_ms(6),
    };
    let r: RunResult = run_once(&spec, seed);
    golden_row(&r)
}

/// One pinned phased case: aggregate row in `GOLDEN` format plus
/// per-phase `(samples, p99 ns)` pairs — a boundary drift in either the
/// regime bucketing or the dynamic kernel itself trips the pin.
struct PhasedGolden {
    name: &'static str,
    seed: u64,
    row: [u64; 16],
    phases: &'static [[u64; 2]],
}

/// The phased spec shapes under pin: a mid-run machine decay and a
/// stepped load, both 1-node topologies through the same kernel as the
/// static pins.
fn phased_cases() -> Vec<(&'static str, Parts, NodeDynamics)> {
    let kv = || ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    let boundary = PhaseSchedule::new(vec![SimTime::from_ms(30)]);
    vec![
        (
            "memcached-decay-flip",
            Parts {
                service: kv(),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 100_000.0,
            },
            NodeDynamics::new(boundary.clone())
                .with_machines(vec![MachineConfig::high_performance(), MachineConfig::low_power()]),
        ),
        (
            "memcached-stepped-load",
            Parts {
                service: kv(),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 100_000.0,
            },
            NodeDynamics::new(boundary).with_rates(vec![0.5, 2.0]),
        ),
    ]
}

fn observe_phased(parts: &Parts, dynamics: &NodeDynamics, seed: u64) -> ([u64; 16], Vec<[u64; 2]>) {
    let spec = RunSpec {
        service: &parts.service,
        server: &parts.server,
        client: &parts.client,
        generator: &parts.generator,
        link: &parts.link,
        qps: parts.qps,
        duration: SimDuration::from_ms(60),
        warmup: SimDuration::from_ms(6),
    };
    let nodes = [spec.client_node().with_dynamics(dynamics.clone())];
    let topo = TopologySpec {
        shards: None,
        service: &parts.service,
        server: &parts.server,
        nodes: &nodes,
        duration: spec.duration,
        warmup: spec.warmup,
        cohorts: &[],
    };
    let phased = run_fleet(&topo, seed, 1).expect("valid phased golden topology");
    let row = golden_row(&phased.aggregate);
    let phases = phased.phases.iter().map(|p| [p.samples, p.p99.as_ns()]).collect();
    (row, phases)
}

/// One pinned sharded case: aggregate row in `GOLDEN` format plus
/// per-shard `(samples, p99 ns)` pairs — a drift in the shard
/// partitioning, the per-shard RNG streams or the shard merge trips
/// the pin. Observed through the *parallel* kernel, so the pin also
/// guards thread-count independence against the serial suite.
struct ShardedGolden {
    name: &'static str,
    seed: u64,
    row: [u64; 16],
    shards: &'static [[u64; 2]],
}

/// The sharded spec shapes under pin: a mixed HP/LP fleet over four
/// uniform backends, with the uniform round-robin and the skewed
/// hot-shard assignment.
fn sharded_cases() -> Vec<(&'static str, ShardSpec, Vec<ClientNode>)> {
    let gen = GeneratorSpec::mutilate().with_connections(20);
    let nodes: Vec<ClientNode> = (0..8)
        .map(|i| {
            let machine =
                if i % 4 == 3 { MachineConfig::low_power() } else { MachineConfig::high_performance() };
            ClientNode::new(format!("agent{i}"), machine, gen, LinkConfig::cloudlab_lan(), 20_000.0)
        })
        .collect();
    let tier = ShardSpec::uniform(MachineConfig::server_baseline(), 4);
    vec![
        ("memcached-sharded-rr", tier.clone(), nodes.clone()),
        ("memcached-sharded-hot", tier.with_policy(ShardPolicy::HotShard { hot: 0, share: 0.5 }), nodes),
    ]
}

fn observe_sharded(shards: &ShardSpec, nodes: &[ClientNode], seed: u64) -> ([u64; 16], Vec<[u64; 2]>) {
    let service = ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    let server = MachineConfig::server_baseline();
    let topo = TopologySpec {
        shards: Some(shards),
        service: &service,
        server: &server,
        nodes,
        duration: SimDuration::from_ms(60),
        warmup: SimDuration::from_ms(6),
        cohorts: &[],
    };
    // Three workers over four shards: the parallel path with an uneven
    // split, the strictest schedule to stay bit-identical under.
    let sharded = run_fleet(&topo, seed, 3).expect("valid sharded golden topology");
    let row = golden_row(&sharded.aggregate);
    let shards_out = sharded.shards.iter().map(|s| [s.result.samples, s.result.p99.as_ns()]).collect();
    (row, shards_out)
}

/// One pinned phased×sharded case: aggregate row in `GOLDEN` format
/// plus per-shard and per-phase `(samples, p99 ns)` pairs — a drift in
/// the shard partitioning, the dynamic kernel, or the per-phase merge
/// trips the pin.
/// Observed through the *parallel* path, and re-checked at 1/2/3/4/8
/// workers by the pin test.
struct PhasedShardedGolden {
    name: &'static str,
    seed: u64,
    row: [u64; 16],
    shards: &'static [[u64; 2]],
    phases: &'static [[u64; 2]],
}

/// The phased×sharded spec shapes under pin: the sharded golden fleet
/// with mid-run dynamics layered on — even nodes decay HP -> LP at the
/// boundary, odd nodes step their offered rate — over the uniform and
/// hot-shard tiers.
fn phased_sharded_cases() -> Vec<(&'static str, ShardSpec, Vec<ClientNode>)> {
    let boundary = PhaseSchedule::new(vec![SimTime::from_ms(30)]);
    let dynamic =
        |nodes: Vec<ClientNode>| -> Vec<ClientNode> {
            nodes
                .into_iter()
                .enumerate()
                .map(|(i, node)| {
                    if i % 2 == 0 {
                        node.with_dynamics(NodeDynamics::new(boundary.clone()).with_machines(vec![
                            MachineConfig::high_performance(),
                            MachineConfig::low_power(),
                        ]))
                    } else {
                        node.with_dynamics(NodeDynamics::new(boundary.clone()).with_rates(vec![0.8, 1.6]))
                    }
                })
                .collect()
        };
    sharded_cases()
        .into_iter()
        .map(|(name, shards, nodes)| {
            let renamed = match name {
                "memcached-sharded-rr" => "memcached-phased-sharded-rr",
                _ => "memcached-phased-sharded-hot",
            };
            (renamed, shards, dynamic(nodes))
        })
        .collect()
}

fn observe_phased_sharded(
    shards: &ShardSpec,
    nodes: &[ClientNode],
    seed: u64,
    workers: usize,
) -> ([u64; 16], Vec<[u64; 2]>, Vec<[u64; 2]>) {
    let service = ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    let server = MachineConfig::server_baseline();
    let topo = TopologySpec {
        shards: Some(shards),
        service: &service,
        server: &server,
        nodes,
        duration: SimDuration::from_ms(60),
        warmup: SimDuration::from_ms(6),
        cohorts: &[],
    };
    let run = run_fleet(&topo, seed, workers).expect("valid phased sharded golden topology");
    let row = golden_row(&run.aggregate);
    let per_shard = run.shards.iter().map(|s| [s.result.samples, s.result.p99.as_ns()]).collect();
    let per_phase = run.phases.iter().map(|p| [p.samples, p.p99.as_ns()]).collect();
    (row, per_shard, per_phase)
}

/// One pinned cohorted case: aggregate row in `GOLDEN` format plus
/// per-cohort `(samples, p99 ns)` pairs — a drift in the cohort
/// lowering, the pooled arrival superposition or the per-cohort
/// merge trips the pin. Observed through the parallel
/// `run_fleet` entry point.
struct CohortGolden {
    name: &'static str,
    seed: u64,
    row: [u64; 16],
    cohorts: &'static [[u64; 2]],
}

/// One pinned cohorted shape: name, optional shard tier, explicit
/// nodes, cohorts.
type CohortCase = (&'static str, Option<ShardSpec>, Vec<ClientNode>, Vec<CohortSpec>);

/// The cohorted spec shapes under pin: an LP and an HP cohort with
/// tracked representatives next to an explicit node (unsharded), and
/// the same cohorts spread over a four-shard tier.
fn cohort_cases() -> Vec<CohortCase> {
    let gen = GeneratorSpec::mutilate().with_connections(20);
    let link = LinkConfig::cloudlab_lan();
    let lp = ClientNode::new("lp-class", MachineConfig::low_power(), gen, link, 200.0);
    let hp = ClientNode::new("hp-class", MachineConfig::high_performance(), gen, link, 300.0);
    let cohorts = vec![CohortSpec::new(lp, 60).with_tracked(2), CohortSpec::new(hp, 40).with_tracked(1)];
    let solo = vec![ClientNode::new("solo", MachineConfig::high_performance(), gen, link, 20_000.0)];
    let tier = ShardSpec::uniform(MachineConfig::server_baseline(), 4);
    vec![
        ("memcached-cohort-mixed", None, solo, cohorts.clone()),
        ("memcached-cohort-sharded", Some(tier), Vec::new(), cohorts),
    ]
}

fn observe_cohort(
    shards: Option<&ShardSpec>,
    nodes: &[ClientNode],
    cohorts: &[CohortSpec],
    seed: u64,
) -> ([u64; 16], Vec<[u64; 2]>) {
    let service = ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    let server = MachineConfig::server_baseline();
    let topo = TopologySpec {
        shards,
        service: &service,
        server: &server,
        nodes,
        duration: SimDuration::from_ms(60),
        warmup: SimDuration::from_ms(6),
        cohorts,
    };
    let run = run_fleet(&topo, seed, 3).expect("valid cohort golden topology");
    let row = golden_row(&run.aggregate);
    let per_cohort = run.cohorts.iter().map(|c| [c.result.samples, c.result.p99.as_ns()]).collect();
    (row, per_cohort)
}

/// One pinned controlled run: per-window `(samples, p99 ns)` pairs plus
/// the decision and hedge counts — a drift in the windowed observer, a
/// policy's decision function, the mitigation rewrites or the hedge
/// leg's RNG stream trips the pin. Checked at 1/2/3/4/8 workers: a
/// controller decision is a pure function of order-free windowed
/// stats, so the schedule cannot leak into a single bit.
struct ControlGolden {
    name: &'static str,
    seed: u64,
    windows: &'static [[u64; 2]],
    decisions: u64,
    hedges: u64,
}

/// The controlled fleet under pin: the sharded golden fleet's shape (two
/// low-power stragglers in an otherwise high-performance fleet, uniform
/// round-robin over four backends — which parks both LP nodes on shard
/// 3), run as three 20 ms control windows.
fn control_spec() -> ControlSpec {
    let gen = GeneratorSpec::mutilate().with_connections(20);
    let nodes: Vec<ClientNode> = (0..8)
        .map(|i| {
            let machine =
                if i % 4 == 3 { MachineConfig::low_power() } else { MachineConfig::high_performance() };
            ClientNode::new(format!("agent{i}"), machine, gen, LinkConfig::cloudlab_lan(), 20_000.0)
        })
        .collect();
    ControlSpec {
        service: ServiceConfig::new(ServiceKind::Memcached(KvConfig::default())),
        shards: ShardSpec::uniform(MachineConfig::server_baseline(), 4),
        nodes,
        window: SimDuration::from_ms(20),
        windows: 3,
        warmup: SimDuration::from_ms(4),
    }
}

/// Every shipped policy, parameterized to trip on the LP stragglers
/// (whose windowed p99 sits far above the 150 µs threshold) and nothing
/// else.
fn control_policies() -> Vec<Box<dyn MitigationPolicy>> {
    let threshold = SimDuration::from_us(150);
    vec![
        Box::new(DoNothing),
        Box::new(HedgeRequests { threshold, deadline: SimDuration::from_us(120) }),
        Box::new(RerouteHotShard { min_ratio: 1.5, max_moves: 2 }),
        Box::new(RemediateNode { threshold, config: MachineConfig::high_performance() }),
        Box::new(AdmissionThrottle { threshold, factor: 0.5, floor: 0.2 }),
    ]
}

fn observe_control(policy: &dyn MitigationPolicy, seed: u64, workers: usize) -> (Vec<[u64; 2]>, u64, u64) {
    let spec = control_spec();
    let result = Controller::new(&spec, policy).run(seed, workers);
    let windows = result.windows.iter().map(|w| [w.aggregate.samples, w.aggregate.p99.as_ns()]).collect();
    (windows, result.decisions.len() as u64, result.total_hedges())
}

/// Regeneration helper (not part of the suite): prints `GOLDEN`,
/// `GOLDEN_PHASED`, `GOLDEN_SHARDED`, `GOLDEN_COHORT` and
/// `GOLDEN_CONTROL` rows.
#[test]
#[ignore = "regeneration helper; run with --ignored --nocapture"]
fn print_goldens() {
    for (name, parts) in cases() {
        for seed in [2024u64, 7] {
            let row = observe(&parts, seed);
            println!("    Golden {{ name: \"{name}\", seed: {seed}, row: {row:?} }},");
        }
    }
    println!();
    for (name, parts, dynamics) in phased_cases() {
        for seed in [2024u64, 7] {
            let (row, phases) = observe_phased(&parts, &dynamics, seed);
            println!(
                "    PhasedGolden {{ name: \"{name}\", seed: {seed}, row: {row:?}, phases: &{phases:?} }},"
            );
        }
    }
    println!();
    for (name, shards, nodes) in sharded_cases() {
        for seed in [2024u64, 7] {
            let (row, per_shard) = observe_sharded(&shards, &nodes, seed);
            println!(
                "    ShardedGolden {{ name: \"{name}\", seed: {seed}, row: {row:?}, shards: &{per_shard:?} }},"
            );
        }
    }
    println!();
    for (name, shards, nodes, cohorts) in cohort_cases() {
        for seed in [2024u64, 7] {
            let (row, per_cohort) = observe_cohort(shards.as_ref(), &nodes, &cohorts, seed);
            println!(
                "    CohortGolden {{ name: \"{name}\", seed: {seed}, row: {row:?}, cohorts: &{per_cohort:?} }},"
            );
        }
    }
    println!();
    for (name, shards, nodes) in phased_sharded_cases() {
        for seed in [2024u64, 7] {
            let (row, per_shard, per_phase) = observe_phased_sharded(&shards, &nodes, seed, 3);
            println!(
                "    PhasedShardedGolden {{ name: \"{name}\", seed: {seed}, row: {row:?}, shards: &{per_shard:?}, phases: &{per_phase:?} }},"
            );
        }
    }
    println!();
    for policy in control_policies() {
        for seed in [2024u64, 7] {
            let (windows, decisions, hedges) = observe_control(policy.as_ref(), seed, 3);
            println!(
                "    ControlGolden {{ name: \"{}\", seed: {seed}, windows: &{windows:?}, decisions: {decisions}, hedges: {hedges} }},",
                policy.name()
            );
        }
    }
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { name: "memcached-lp-base", seed: 2024, row: [80073, 76799, 212991, 286958, 22961, 5423, 4681637630290932774, 4681608360884174848, 4606972053291107339, 47990, 1754, 4319, 3698, 186, 4610470733030153829, 0] },
    Golden { name: "memcached-lp-base", seed: 7, row: [85136, 80895, 219135, 256040, 28143, 5373, 4681574001145806848, 4681608360884174848, 4606995918898271073, 51133, 991, 3673, 4717, 363, 4610046289137307074, 0] },
    Golden { name: "memcached-hp-base", seed: 2024, row: [51062, 50175, 77823, 235429, 8221, 5432, 4681649083537055441, 4681608360884174848, 4567835179950359390, 3521, 11966, 0, 0, 0, 4612641161559875206, 0] },
    Golden { name: "memcached-hp-base", seed: 7, row: [50602, 49663, 67583, 257427, 6646, 5374, 4681575273728709367, 4681608360884174848, 4566045762472024819, 3502, 11895, 0, 0, 0, 4612640687988359990, 0] },
    Golden { name: "memcached-hp-smton", seed: 2024, row: [53237, 51199, 97279, 352936, 11368, 16118, 4688871485271014210, 4688897573220515840, 4575113243075054527, 3550, 34408, 0, 0, 0, 4612742282370748235, 0] },
    Golden { name: "memcached-hp-smton", seed: 7, row: [53110, 51199, 92159, 199660, 9650, 16312, 4688933205541786359, 4688897573220515840, 4575212262395839636, 3540, 34738, 0, 0, 0, 4612744140134867921, 0] },
    Golden { name: "memcached-lp-c1eon", seed: 2024, row: [86103, 79871, 227327, 340307, 31507, 2765, 4677270197034131759, 4677104761256804352, 4607055149446385872, 59086, 555, 1994, 2721, 234, 4608769835361518673, 0] },
    Golden { name: "memcached-lp-c1eon", seed: 7, row: [92922, 82943, 231423, 298605, 37073, 2705, 4677117487085829537, 4677104761256804352, 4607047895694264783, 63574, 288, 1610, 3027, 431, 4608389960108623071, 0] },
    Golden { name: "hdsearch-hp-base", seed: 2024, row: [334974, 335871, 455321, 455321, 24765, 61, 4652682979097784168, 4652007308841189376, 0, 2000, 68, 0, 0, 0, 4597819831491481356, 0] },
    Golden { name: "hdsearch-hp-base", seed: 7, row: [325160, 331775, 443518, 443518, 38995, 77, 4653986103989963131, 4652007308841189376, 0, 2000, 84, 0, 0, 0, 4597820984412985963, 0] },
    Golden { name: "socialnet-lp-base", seed: 2024, row: [2008732, 1359871, 5754657, 5754657, 1307849, 21, 4645549021875550436, 4643985272004935680, 4607182418800017408, 120724, 0, 3, 28, 22, 4587347853031184738, 0] },
    Golden { name: "socialnet-lp-base", seed: 7, row: [2534609, 1261567, 12401600, 12401600, 2483363, 30, 4648097934164652487, 4643985272004935680, 4607182418800017408, 111810, 2, 2, 36, 29, 4588863960799322860, 0] },
    Golden { name: "synthetic-hp-100us", seed: 2024, row: [157598, 151551, 266239, 328563, 25195, 527, 4666590823845481434, 4666723172467343360, 0, 3499, 1201, 0, 0, 0, 4612592153492312952, 0] },
    Golden { name: "synthetic-hp-100us", seed: 7, row: [157624, 151551, 253951, 357851, 25071, 546, 4666784256446664249, 4666723172467343360, 0, 3481, 1268, 0, 0, 0, 4612592962728367398, 0] },
    Golden { name: "memcached-hp-closed", seed: 2024, row: [121801, 117759, 231423, 2528326, 59094, 38335, 4694345270288692262, 4677104761256804352, 4580198118814716967, 3626, 77769, 0, 0, 0, 4612945505338112090, 0] },
    Golden { name: "memcached-hp-closed", seed: 7, row: [121476, 118783, 227327, 926585, 33755, 38390, 4694354019296147077, 4677104761256804352, 4578658944735367939, 3595, 78326, 0, 0, 0, 4612947422153430093, 0] },
    Golden { name: "memcached-lp-busywait-kernel", seed: 2024, row: [43602, 42495, 76799, 184941, 8018, 5431, 4681647810954152922, 4681608360884174848, 0, 2000, 451, 1923, 2647, 227, 4608819955447092279, 0] },
    Golden { name: "memcached-lp-busywait-kernel", seed: 7, row: [43487, 42495, 68607, 225961, 8195, 5374, 4681575273728709367, 4681608360884174848, 0, 2000, 219, 1472, 3050, 413, 4608501208356957412, 0] },
];

#[rustfmt::skip]
const GOLDEN_PHASED: &[PhasedGolden] = &[
    PhasedGolden { name: "memcached-decay-flip", seed: 2024, row: [67785, 65023, 212991, 270453, 28207, 5422, 4681636357708030255, 4681608360884174848, 4602272902627285229, 26343, 6571, 1711, 2492, 223, 4611593517344072078, 0], phases: &[[2465, 81919], [2957, 221183]] },
    PhasedGolden { name: "memcached-decay-flip", seed: 7, row: [68549, 74751, 114687, 246024, 20502, 5370, 4681570183397099293, 4681608360884174848, 4602271503387232917, 25555, 7669, 2152, 1015, 23, 4612152572003233518, 0], phases: &[[2418, 65535], [2952, 169983]] },
    PhasedGolden { name: "memcached-stepped-load", seed: 2024, row: [51501, 50175, 84991, 256161, 9666, 6752, 4683328892968379885, 4683821311287012011, 4568641754946632713, 3530, 13842, 0, 0, 0, 4612650086368026567, 0], phases: &[[1212, 74751], [5540, 84991]] },
    PhasedGolden { name: "memcached-stepped-load", seed: 7, row: [51065, 50175, 74751, 175549, 6960, 6758, 4683336528465794996, 4683821311287012011, 4571820073743848177, 3507, 13911, 0, 0, 0, 4612649697189464766, 0], phases: &[[1173, 68607], [5585, 75775]] },
];

#[rustfmt::skip]
const GOLDEN_SHARDED: &[ShardedGolden] = &[
    ShardedGolden { name: "memcached-sharded-rr", seed: 2024, row: [63632, 52735, 219135, 309922, 29829, 8541, 4684674578123150677, 4684737570976825344, 4598062300206520783, 20139, 14529, 1201, 2499, 386, 4625057673236040905, 0], shards: &[[2122, 69631], [2132, 68607], [2152, 70655], [2135, 241663]] },
    ShardedGolden { name: "memcached-sharded-rr", seed: 7, row: [61124, 52223, 210943, 275905, 26373, 8575, 4684696212032493492, 4684737570976825344, 4598135755496799562, 18319, 14538, 1334, 2475, 305, 4625038709249750079, 0], shards: &[[2126, 66559], [2120, 68607], [2172, 71679], [2157, 237567]] },
    ShardedGolden { name: "memcached-sharded-hot", seed: 2024, row: [64096, 52735, 221183, 343783, 31147, 8540, 4684673941831699418, 4684737570976825344, 4598028424404894093, 20093, 14550, 1161, 2479, 408, 4625059539192180168, 0], shards: &[[4242, 227327], [2206, 227327], [1036, 66559], [1056, 68607]] },
    ShardedGolden { name: "memcached-sharded-hot", seed: 7, row: [61601, 52735, 217087, 364560, 27905, 8575, 4684696212032493492, 4684737570976825344, 4598143272458414201, 18360, 14546, 1299, 2474, 322, 4625050384009145271, 0], shards: &[[4325, 192511], [2135, 241663], [1022, 67583], [1093, 66559]] },
];

#[rustfmt::skip]
const GOLDEN_PHASED_SHARDED: &[PhasedShardedGolden] = &[
    PhasedShardedGolden { name: "memcached-phased-sharded-rr", seed: 2024, row: [76787, 77823, 233471, 295859, 34778, 9744, 4685440036739015566, 4685409494749355122, 4602571210295980229, 34900, 11774, 3132, 4608, 530, 4621980925655107064, 0], shards: &[[2279, 233471], [2676, 67583], [2183, 225279], [2606, 243711]], phases: &[[3539, 225279], [6205, 235519]] },
    PhasedShardedGolden { name: "memcached-phased-sharded-rr", seed: 7, row: [73447, 70655, 223231, 291616, 33458, 9711, 4685419039121124011, 4685409494749355122, 4602658467752752939, 33948, 11205, 3204, 4983, 605, 4621852327839773336, 0], shards: &[[2199, 231423], [2667, 68607], [2176, 231423], [2669, 227327]], phases: &[[3503, 204799], [6208, 229375]] },
    PhasedShardedGolden { name: "memcached-phased-sharded-hot", seed: 2024, row: [77193, 77823, 233471, 321333, 35501, 9740, 4685437491573210529, 4685409494749355122, 4602572891684678145, 35283, 11761, 3111, 4620, 550, 4621992193155901981, 0], shards: &[[4975, 231423], [2381, 247807], [1323, 67583], [1061, 235519]], phases: &[[3540, 221183], [6200, 239615]] },
    PhasedShardedGolden { name: "memcached-phased-sharded-hot", seed: 7, row: [73273, 70655, 225279, 363400, 33219, 9712, 4685419675412575270, 4685409494749355122, 4602673731317673419, 34553, 11217, 3150, 4993, 620, 4621838445655178980, 0], shards: &[[4921, 229375], [2367, 225279], [1327, 74751], [1097, 215039]], phases: &[[3504, 202751], [6208, 229375]] },
];

#[rustfmt::skip]
const GOLDEN_COHORT: &[CohortGolden] = &[
    CohortGolden { name: "memcached-cohort-mixed", seed: 2024, row: [67685, 52735, 235519, 275991, 36382, 2377, 4676282672701777389, 4676280127535972352, 4598770916124369142, 25913, 3895, 320, 839, 210, 4620745502977932053, 0], cohorts: &[[663, 245759], [641, 74751]] },
    CohortGolden { name: "memcached-cohort-mixed", seed: 7, row: [68412, 52735, 231423, 259127, 37878, 2410, 4676366663173343611, 4676280127535972352, 4598656444265960809, 26213, 3942, 278, 827, 264, 4620770333808242528, 0], cohorts: &[[659, 243711], [663, 61951]] },
    CohortGolden { name: "memcached-cohort-sharded", seed: 2024, row: [82660, 78847, 239615, 278986, 43606, 1304, 4672367006375370449, 4672326283722489856, 4602772707261717850, 44761, 1485, 328, 830, 217, 4618105956209793357, 0], cohorts: &[[663, 243711], [641, 69631]] },
    CohortGolden { name: "memcached-cohort-sharded", seed: 7, row: [86268, 77823, 247807, 456004, 50216, 1321, 4672453542012741708, 4672326283722489856, 4602687784533550768, 44229, 1542, 272, 826, 269, 4618142311024528556, 0], cohorts: &[[658, 253951], [663, 80895]] },
];

#[rustfmt::skip]
const GOLDEN_CONTROL: &[ControlGolden] = &[
    ControlGolden { name: "do_nothing", seed: 2024, windows: &[[2534, 219135], [3287, 219135], [3318, 212991]], decisions: 0, hedges: 0 },
    ControlGolden { name: "do_nothing", seed: 7, windows: &[[2544, 184319], [3263, 210943], [3279, 215039]], decisions: 0, hedges: 0 },
    ControlGolden { name: "hedge_requests", seed: 2024, windows: &[[2534, 219135], [3287, 169983], [3318, 167935]], decisions: 2, hedges: 175 },
    ControlGolden { name: "hedge_requests", seed: 7, windows: &[[2544, 184319], [3263, 169983], [3279, 167935]], decisions: 2, hedges: 182 },
    ControlGolden { name: "reroute_hot_shard", seed: 2024, windows: &[[2534, 219135], [3287, 215039], [3318, 217087]], decisions: 4, hedges: 0 },
    ControlGolden { name: "reroute_hot_shard", seed: 7, windows: &[[2544, 184319], [3263, 212991], [3279, 219135]], decisions: 4, hedges: 0 },
    ControlGolden { name: "remediate_node", seed: 2024, windows: &[[2534, 219135], [3340, 69631], [3360, 72703]], decisions: 2, hedges: 0 },
    ControlGolden { name: "remediate_node", seed: 7, windows: &[[2544, 184319], [3217, 66559], [3257, 72703]], decisions: 2, hedges: 0 },
    ControlGolden { name: "admission_throttle", seed: 2024, windows: &[[2534, 219135], [2928, 204799], [2690, 206847]], decisions: 4, hedges: 0 },
    ControlGolden { name: "admission_throttle", seed: 7, windows: &[[2544, 184319], [2817, 217087], [2687, 210943]], decisions: 4, hedges: 0 },
];

/// Every controller-enabled run must be bit-identical across worker
/// counts — the decision loop sees only order-free windowed stats,
/// so parallelism is presentation, not physics. The pins also audit the
/// decision and hedge accounting of every shipped policy.
#[test]
fn controlled_runs_match_their_pins() {
    assert!(!GOLDEN_CONTROL.is_empty(), "control golden table must be populated");
    let policies = control_policies();
    for g in GOLDEN_CONTROL {
        let policy = policies
            .iter()
            .find(|p| p.name() == g.name)
            .unwrap_or_else(|| panic!("unknown control golden policy {}", g.name));
        for workers in [1usize, 2, 3, 4, 8] {
            let (windows, decisions, hedges) = observe_control(policy.as_ref(), g.seed, workers);
            assert_eq!(
                windows, g.windows,
                "{} seed {}: windowed stats drifted from the pin at {workers} workers",
                g.name, g.seed
            );
            assert_eq!(
                decisions, g.decisions,
                "{} seed {}: decision count drifted at {workers} workers",
                g.name, g.seed
            );
            assert_eq!(
                hedges, g.hedges,
                "{} seed {}: hedge count drifted at {workers} workers",
                g.name, g.seed
            );
        }
    }
    // The pins themselves encode the mitigation findings: the baseline
    // never acts or hedges, every other policy acts on the straggler
    // signal, only the hedging policy fires hedges, and the two
    // tail-repairing policies beat the baseline's post-decision tail.
    let worst_after = |g: &&ControlGolden| g.windows.iter().skip(1).map(|w| w[1]).max().unwrap();
    for seed in [2024u64, 7] {
        let by_name = |n: &str| {
            GOLDEN_CONTROL
                .iter()
                .find(|g| g.name == n && g.seed == seed)
                .unwrap_or_else(|| panic!("missing control pin {n} seed {seed}"))
        };
        let base = by_name("do_nothing");
        assert_eq!(base.decisions, 0, "the baseline must not act");
        assert_eq!(base.hedges, 0, "the baseline must not hedge");
        for g in GOLDEN_CONTROL.iter().filter(|g| g.seed == seed && g.name != "do_nothing") {
            assert!(g.decisions > 0, "{}: the straggler signal must trigger the policy", g.name);
            assert_eq!(g.hedges > 0, g.name == "hedge_requests", "{}: hedge accounting", g.name);
        }
        for n in ["hedge_requests", "remediate_node"] {
            assert!(
                worst_after(&by_name(n)) < worst_after(&base),
                "{n} seed {seed}: post-decision pooled tail must beat the do-nothing baseline"
            );
        }
    }
}

/// A cohort of `population: 1` must be bit-identical to the equivalent
/// explicit `ClientNode` — the cohort layer's central invariant (the
/// analogue of the shard layer's K=1 rule), checked against the same
/// `GOLDEN` rows the static kernel is pinned by, through the parallel
/// `run_fleet` entry point. Open-loop shapes exercise the *pooled*
/// lowering (a pool of one), the closed-loop shape the tracked lowering.
#[test]
fn population_one_cohort_reproduces_the_static_goldens() {
    let by_name = cases();
    for g in GOLDEN {
        let (_, parts) = by_name.iter().find(|(n, _)| *n == g.name).unwrap();
        let spec = RunSpec {
            service: &parts.service,
            server: &parts.server,
            client: &parts.client,
            generator: &parts.generator,
            link: &parts.link,
            qps: parts.qps,
            duration: SimDuration::from_ms(60),
            warmup: SimDuration::from_ms(6),
        };
        // Closed loops cannot pool (they pace by think time), so their
        // single member rides the tracked path instead.
        let tracked = if parts.generator.loop_mode == LoopMode::Open { 0 } else { 1 };
        let cohorts = [CohortSpec::new(spec.client_node(), 1).with_tracked(tracked)];
        let topo = TopologySpec {
            shards: None,
            service: &parts.service,
            server: &parts.server,
            nodes: &[],
            duration: spec.duration,
            warmup: spec.warmup,
            cohorts: &cohorts,
        };
        let run = run_fleet(&topo, g.seed, 2).expect("valid cohort golden topology");
        let row = golden_row(&run.aggregate);
        assert_eq!(
            row, g.row,
            "{} seed {}: a population-1 cohort drifted from the static pin",
            g.name, g.seed
        );
        // The cohort rollup of a one-member fleet is that member.
        assert_eq!(run.cohorts.len(), 1);
        assert_eq!(
            golden_row(&run.cohorts[0].result),
            g.row,
            "{} seed {}: cohort rollup drifted",
            g.name,
            g.seed
        );
    }
}

#[test]
fn cohorted_runs_match_their_pins() {
    assert!(!GOLDEN_COHORT.is_empty(), "cohort golden table must be populated");
    let by_name = cohort_cases();
    for g in GOLDEN_COHORT {
        let (_, shards, nodes, cohorts) = by_name
            .iter()
            .find(|(n, _, _, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown cohort golden case {}", g.name));
        let (row, per_cohort) = observe_cohort(shards.as_ref(), nodes, cohorts, g.seed);
        assert_eq!(row, g.row, "{} seed {} aggregate drifted from the pin", g.name, g.seed);
        assert_eq!(per_cohort, g.cohorts, "{} seed {} per-cohort stats drifted", g.name, g.seed);
    }
    // The pins themselves encode the paper's finding at cohort
    // granularity: the low-power class posts the worse tail.
    for g in GOLDEN_COHORT {
        assert!(g.cohorts[0][1] > g.cohorts[1][1], "{}: LP cohort tail must exceed HP's", g.name);
    }
}

/// A one-shard tier must reproduce the static `run_once` pins bit for
/// bit — the shard layer's central invariant (K=1 is the degenerate
/// case), checked against the same `GOLDEN` rows the static kernel is
/// pinned by, through the *parallel* entry point.
#[test]
fn one_shard_tier_reproduces_the_static_goldens() {
    let by_name = cases();
    for g in GOLDEN {
        let (_, parts) = by_name.iter().find(|(n, _)| *n == g.name).unwrap();
        let spec = RunSpec {
            service: &parts.service,
            server: &parts.server,
            client: &parts.client,
            generator: &parts.generator,
            link: &parts.link,
            qps: parts.qps,
            duration: SimDuration::from_ms(60),
            warmup: SimDuration::from_ms(6),
        };
        let nodes = [spec.client_node()];
        let one = ShardSpec::uniform(parts.server, 1);
        let topo = TopologySpec {
            shards: Some(&one),
            service: &parts.service,
            server: &parts.server,
            nodes: &nodes,
            duration: spec.duration,
            warmup: spec.warmup,
            cohorts: &[],
        };
        let sharded = run_fleet(&topo, g.seed, 4).expect("valid sharded golden topology");
        let row = golden_row(&sharded.aggregate);
        assert_eq!(row, g.row, "{} seed {}: a one-shard tier drifted from the static pin", g.name, g.seed);
    }
}

#[test]
fn sharded_runs_match_their_pins() {
    assert!(!GOLDEN_SHARDED.is_empty(), "sharded golden table must be populated");
    let by_name = sharded_cases();
    for g in GOLDEN_SHARDED {
        let (_, shards, nodes) = by_name
            .iter()
            .find(|(n, _, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown sharded golden case {}", g.name));
        let (row, per_shard) = observe_sharded(shards, nodes, g.seed);
        assert_eq!(row, g.row, "{} seed {} aggregate drifted from the pin", g.name, g.seed);
        assert_eq!(per_shard, g.shards, "{} seed {} per-shard stats drifted", g.name, g.seed);
    }
    // The pins themselves encode the findings: under the hot-shard
    // assignment, shard 0 serves half the fleet (sample plurality) and
    // its tail dwarfs the clean cold shards' — while a cold shard that
    // drew an LP client can still post a comparable tail, the paper's
    // client-side skew at shard granularity.
    let hot =
        GOLDEN_SHARDED.iter().find(|g| g.name == "memcached-sharded-hot").expect("hot-shard pin present");
    assert!(hot.shards.iter().skip(1).all(|s| s[0] < hot.shards[0][0]), "hot pin must show the load skew");
    let best_cold = hot.shards.iter().skip(1).map(|s| s[1]).min().expect("cold shards present");
    assert!(hot.shards[0][1] > 2 * best_cold, "hot-shard tail must dwarf the clean cold shards");
}

/// A static topology over a K-shard tier reports one all-covering phase
/// that pools every sample, next to the pinned sharded aggregate and
/// per-shard stats — checked by re-running every `GOLDEN_SHARDED` row
/// serially (the pin itself is observed at three workers).
#[test]
fn single_phase_schedule_over_a_sharded_tier_reproduces_the_sharded_goldens() {
    let by_name = sharded_cases();
    let service = ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    let server = MachineConfig::server_baseline();
    for g in GOLDEN_SHARDED {
        let (_, shards, nodes) = by_name
            .iter()
            .find(|(n, _, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown sharded golden case {}", g.name));
        let topo = TopologySpec {
            shards: Some(shards),
            service: &service,
            server: &server,
            nodes,
            duration: SimDuration::from_ms(60),
            warmup: SimDuration::from_ms(6),
            cohorts: &[],
        };
        let run = run_fleet(&topo, g.seed, 1).expect("valid sharded topology");
        assert_eq!(
            golden_row(&run.aggregate),
            g.row,
            "{} seed {}: the serial run drifted from the static sharded pin",
            g.name,
            g.seed
        );
        let per_shard: Vec<[u64; 2]> =
            run.shards.iter().map(|s| [s.result.samples, s.result.p99.as_ns()]).collect();
        assert_eq!(per_shard, g.shards, "{} seed {}: per-shard stats drifted", g.name, g.seed);
        assert_eq!(run.phases.len(), 1, "a static topology merges to a single phase");
        assert_eq!(run.phases[0].samples, g.row[5], "the single phase pools every sample");
    }
}

#[test]
fn phased_sharded_runs_match_their_pins() {
    assert!(!GOLDEN_PHASED_SHARDED.is_empty(), "phased sharded golden table must be populated");
    let by_name = phased_sharded_cases();
    for g in GOLDEN_PHASED_SHARDED {
        let (_, shards, nodes) = by_name
            .iter()
            .find(|(n, _, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown phased sharded golden case {}", g.name));
        // The pin holds at every worker count: per-phase merges are
        // exact, so the schedule is presentation, not physics.
        for workers in [1usize, 2, 3, 4, 8] {
            let (row, per_shard, per_phase) = observe_phased_sharded(shards, nodes, g.seed, workers);
            assert_eq!(
                row, g.row,
                "{} seed {}: aggregate drifted from the pin at {workers} workers",
                g.name, g.seed
            );
            assert_eq!(
                per_shard, g.shards,
                "{} seed {}: per-shard stats drifted at {workers} workers",
                g.name, g.seed
            );
            assert_eq!(
                per_phase, g.phases,
                "{} seed {}: per-phase stats drifted at {workers} workers",
                g.name, g.seed
            );
        }
    }
    // The pins themselves encode the finding: half the fleet decays to
    // LP at the boundary, so the second phase's pooled tail exceeds the
    // first's in every pinned shape.
    for g in GOLDEN_PHASED_SHARDED {
        assert!(g.phases[1][1] > g.phases[0][1], "{}: decayed phase tail must exceed the first's", g.name);
    }
}

/// A trivial all-covering phase schedule must reproduce the static
/// `run_once` pins bit for bit — the phase layer's central invariant,
/// checked against the same `GOLDEN` rows the static kernel is pinned
/// by.
#[test]
fn single_phase_schedule_reproduces_the_static_goldens() {
    let by_name = cases();
    for g in GOLDEN.iter().take(4) {
        let (_, parts) = by_name.iter().find(|(n, _)| *n == g.name).unwrap();
        let trivial = NodeDynamics::new(PhaseSchedule::single())
            .with_machines(vec![parts.client])
            .with_rates(vec![1.0])
            .with_links(vec![parts.link]);
        let (row, phases) = observe_phased(parts, &trivial, g.seed);
        assert_eq!(
            row, g.row,
            "{} seed {}: a single-phase schedule drifted from the static pin",
            g.name, g.seed
        );
        assert_eq!(phases.len(), 1, "one phase covers the whole window");
        assert_eq!(phases[0][0], g.row[5], "the single phase pools every sample");
    }
}

#[test]
fn phased_runs_match_their_pins() {
    assert!(!GOLDEN_PHASED.is_empty(), "phased golden table must be populated");
    let by_name = phased_cases();
    for g in GOLDEN_PHASED {
        let (_, parts, dynamics) = by_name
            .iter()
            .find(|(n, _, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown phased golden case {}", g.name));
        let (row, phases) = observe_phased(parts, dynamics, g.seed);
        assert_eq!(row, g.row, "{} seed {} aggregate drifted from the pin", g.name, g.seed);
        assert_eq!(phases, g.phases, "{} seed {} per-phase stats drifted", g.name, g.seed);
    }
    // The pins themselves encode the finding: the decayed second phase
    // carries a far worse p99, the surged second phase far more samples.
    let decay = &GOLDEN_PHASED[0];
    assert!(decay.phases[1][1] > 2 * decay.phases[0][1], "decay pin must show a regime change");
    let stepped = &GOLDEN_PHASED[2];
    assert!(stepped.phases[1][0] > 3 * stepped.phases[0][0], "stepped pin must show the load step");
}

#[test]
fn one_by_one_topology_matches_pre_refactor_run_once() {
    assert!(!GOLDEN.is_empty(), "golden table must be populated");
    let by_name = cases();
    for g in GOLDEN {
        let (_, parts) = by_name
            .iter()
            .find(|(n, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown golden case {}", g.name));
        let row = observe(parts, g.seed);
        assert_eq!(row, g.row, "{} seed {} drifted from the pre-refactor pin", g.name, g.seed);
    }
}
