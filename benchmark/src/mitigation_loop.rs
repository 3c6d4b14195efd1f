//! `mitigation_loop`: the `ext_mitigation` controlled fleet — 16
//! memcached nodes (every 4th low-power) over 4 shards, a diurnal load
//! swing cut into 6 control windows — under `do_nothing`,
//! `hedge_requests` and `remediate_node`, as `Controller::run(seed, 1)`
//! jobs on the engine. The kernel hot loop of a sharded fleet plus what
//! the controller adds: phase-boundary events, windowed per-node/per-shard
//! collectors merged in canonical rank order, analytic hedge legs and a
//! per-window fleet rebuild. A change that speeds the null-collector path
//! but slows collected, phased or controlled runs shows up here.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tpv_core::collect::WindowedObserver;
use tpv_core::control::{
    ControlResult, ControlSpec, Controller, DoNothing, HedgePlan, HedgeRequests, HedgeSpec, MitigationAction,
    MitigationPolicy, RemediateNode,
};
use tpv_core::engine::{fingerprint_control, Engine, JobPlan};
use tpv_core::experiment::Benchmark;
use tpv_core::pin::PinPolicy;
use tpv_core::runtime::run_sharded_collected_hedged_with;
use tpv_core::topology::{ClientNode, NodeDynamics, ShardPolicy, ShardSpec, TopologySpec};
use tpv_hw::MachineConfig;
use tpv_loadgen::{GeneratorSpec, PhasedRate};
use tpv_net::LinkConfig;
use tpv_sim::{SimDuration, SimRng, SimTime};

use crate::trace::{digest, Span, Timed, TimedPolicy};
use crate::workload::{guarded, Group, GroupWork, Layers, Rep, Workload};

// The `ext_mitigation` study's fleet and tier.
const FLEET: usize = 16;
const SHARDS: usize = 4;
const WINDOWS: usize = 6;
const PER_NODE_QPS: f64 = 20_000.0;
const AMPLITUDE: f64 = 0.5;
const THRESHOLD_US: u64 = 150;
/// Simulated horizon of one controlled run.
const HORIZON_MS: u64 = 240;
/// Controlled runs per policy in one pass.
const RUNS: usize = 4;

/// The `mitigation_loop` workload.
pub struct MitigationLoop {
    spec: ControlSpec,
    policies: Vec<Box<dyn MitigationPolicy + Sync>>,
    seed: u64,
    workers: usize,
}

/// The `ext_mitigation` control spec over a `horizon` of simulated time:
/// the diurnal plan spans the horizon and each window covers one step.
fn control_spec(horizon: SimDuration) -> ControlSpec {
    let window = SimDuration::from_ns(horizon.as_ns() / WINDOWS as u64);
    let horizon = window * WINDOWS as u64;
    let gen = GeneratorSpec::mutilate().with_connections(160 / FLEET as u32);
    let rate = PhasedRate::diurnal(horizon, WINDOWS, AMPLITUDE);
    let nodes: Vec<ClientNode> = (0..FLEET)
        .map(|i| {
            let (label, machine) = if i % 4 == 3 {
                (format!("bad{i}"), MachineConfig::low_power())
            } else {
                (format!("agent{i}"), MachineConfig::high_performance())
            };
            ClientNode::new(label, machine, gen, LinkConfig::cloudlab_lan(), PER_NODE_QPS)
                .with_dynamics(NodeDynamics::new(rate.schedule().clone()).with_rate_plan(rate.clone()))
        })
        .collect();
    ControlSpec {
        service: Benchmark::memcached().service,
        shards: ShardSpec::uniform(MachineConfig::server_baseline(), SHARDS),
        nodes,
        window,
        windows: WINDOWS,
        warmup: SimDuration::from_ns(window.as_ns() / 5),
    }
}

impl MitigationLoop {
    /// Builds the controlled fleet and the three policies.
    pub fn new(seed: u64, workers: usize) -> Self {
        let threshold = SimDuration::from_us(THRESHOLD_US);
        MitigationLoop {
            spec: control_spec(SimDuration::from_ms(HORIZON_MS)),
            policies: vec![
                Box::new(DoNothing),
                Box::new(HedgeRequests { threshold, deadline: SimDuration::from_us(120) }),
                Box::new(RemediateNode { threshold, config: MachineConfig::high_performance() }),
            ],
            seed,
            workers,
        }
    }

    fn plan(&self) -> JobPlan {
        let fingerprints: Vec<u64> =
            self.policies.iter().map(|p| fingerprint_control(&self.spec, p.name())).collect();
        JobPlan::new(self.seed, &fingerprints, RUNS)
    }

    fn jobs(&self) -> u64 {
        (self.policies.len() * RUNS) as u64
    }
}

/// The study's headline numbers per run: post-decision fleet p99 spread,
/// worst window p99 and achieved rate.
fn analyse(results: &[Option<ControlResult>]) -> Vec<(f64, SimDuration, f64)> {
    results
        .iter()
        .flatten()
        .map(|r| (r.fleet_p99_spread(1), r.worst_window_p99(1), r.mean_achieved_qps(1)))
        .collect()
}

/// What a window replay measured, for the traced pass.
#[derive(Default)]
struct Replay {
    work: GroupWork,
    span: Span,
    calls: u64,
    matches: bool,
}

/// Replays a finished controlled run window by window through
/// [`run_sharded_collected_hedged_with`] with a [`Timed`]
/// [`WindowedObserver`], applying the run's logged decisions between
/// windows exactly as the controller does. `Controller::run` builds its
/// observer internally, so this is the only way to time the windowed
/// collector and its canonical-order merges from outside. `matches`
/// reports whether every replayed window equals the controller's report.
fn replay(spec: &ControlSpec, result: &ControlResult, seed: u64) -> Replay {
    let index: BTreeMap<&str, usize> =
        spec.nodes.iter().enumerate().map(|(i, n)| (n.label.as_str(), i)).collect();
    let mut shard_of = spec.shards.assign(spec.nodes.len());
    let mut hedge: Vec<Option<(SimDuration, usize)>> = vec![None; spec.nodes.len()];
    let mut remediate: Vec<Option<MachineConfig>> = vec![None; spec.nodes.len()];
    let mut out = Replay { matches: result.windows.len() == spec.windows, ..Replay::default() };
    for (w, report) in result.windows.iter().enumerate() {
        let t0 = SimTime::ZERO + spec.window * w as u64;
        let t1 = SimTime::ZERO + spec.window * (w as u64 + 1);
        let eff: Vec<ClientNode> = spec
            .nodes
            .iter()
            .zip(&remediate)
            .map(|(node, fix)| {
                let mut n = node.clone();
                if let Some(dy) = n.dynamics.take() {
                    n.dynamics = Some(dy.slice(t0, t1));
                }
                if let Some(cfg) = fix {
                    n.machine = *cfg;
                    if let Some(dy) = n.dynamics.as_mut() {
                        dy.machine = None;
                    }
                }
                n
            })
            .collect();
        let tier = ShardSpec {
            machines: spec.shards.machines.clone(),
            policy: ShardPolicy::Explicit(shard_of.clone()),
        };
        let topo = TopologySpec {
            shards: Some(&tier),
            service: &spec.service,
            server: &spec.shards.machines[0],
            nodes: &eff,
            duration: spec.window,
            warmup: if w == 0 { spec.warmup } else { SimDuration::ZERO },
            cohorts: &[],
        };
        let mut plan = HedgePlan::new();
        for (node, h) in spec.nodes.iter().zip(&hedge) {
            if let Some((deadline, shard)) = h {
                plan.set(
                    node.label.clone(),
                    HedgeSpec { deadline: *deadline, backend: spec.shards.machines[*shard] },
                );
            }
        }
        let window_seed = SimRng::seed_from_u64(seed).fork(digest(&("control-window", w))).next_u64();
        let n = eff.len();
        let entry = Instant::now();
        let (aggregate, _, observer) = run_sharded_collected_hedged_with(
            &topo,
            window_seed,
            1,
            PinPolicy::Off,
            (!plan.is_empty()).then_some(&plan),
            |shard, key| Timed::new(WindowedObserver::for_partition(n, key, shard)),
        );
        let span = observer.span(entry, Instant::now());
        out.span.add(&span);
        out.calls += 1;
        out.work.hooks.add(&observer.hooks);
        out.work.event_loop += span.event_loop;
        out.matches &= observer.hooks.balance(&aggregate) && aggregate == report.aggregate;
        let (node_windows, shard_windows) = observer.inner.into_windows(spec.window - topo.warmup);
        out.matches &= shard_windows == report.shards;
        for nw in node_windows {
            let seen = report.nodes.iter().find(|o| o.label == spec.nodes[nw.node].label);
            out.matches &=
                seen.is_some_and(|o| (o.samples, o.p99, o.hedges) == (nw.samples, nw.p99, nw.hedges));
        }
        for decision in result.decisions.iter().filter(|d| d.window == w) {
            let i = index[decision.action.node()];
            match &decision.action {
                MitigationAction::Hedge { deadline, to_shard, .. } => hedge[i] = Some((*deadline, *to_shard)),
                MitigationAction::Remediate { config, .. } => remediate[i] = Some(*config),
                MitigationAction::Reroute { to_shard, .. } => shard_of[i] = *to_shard,
                // No policy of this workload throttles; a throttle would
                // need the rate scaling the controller applies.
                _ => out.matches = false,
            }
        }
    }
    out
}

impl Workload for MitigationLoop {
    fn warm_up(&self) {
        let throwaway = Engine::with_workers(1);
        let plan = JobPlan::new(0, &[fingerprint_control(&self.spec, DoNothing.name())], 1);
        throwaway.execute_jobs(&plan, |job| Controller::new(&self.spec, &DoNothing).run(job.seed, 1));
    }

    fn run(&self) -> Rep {
        let plan = self.plan();
        let engine = Engine::with_workers(self.workers);
        let start = Instant::now();
        let out = engine.execute_jobs(&plan, |job| {
            guarded(|| Controller::new(&self.spec, self.policies[job.cell].as_ref()).run(job.seed, 1))
        });
        let sim = start.elapsed();
        let results: Vec<Option<ControlResult>> = out.into_iter().map(|(_, _, r)| r).collect();
        let analysis = analyse(&results);
        let wall = start.elapsed();
        Rep {
            wall,
            sim,
            jobs: self.jobs(),
            failed: results.iter().filter(|r| r.is_none()).count() as u64,
            cache_hits: 0,
            digest: digest(&(&results, &analysis)),
        }
    }

    fn trace(&self) -> (Rep, Layers) {
        let plan = self.plan();
        let engine = Engine::with_workers(self.workers);
        let timed: Vec<TimedPolicy<'_>> =
            self.policies.iter().map(|p| TimedPolicy::new(p.as_ref())).collect();
        let start = Instant::now();
        let out = engine.execute_jobs(&plan, |job| {
            let t = Instant::now();
            let result = guarded(|| Controller::new(&self.spec, &timed[job.cell]).run(job.seed, 1));
            (result, t.elapsed(), job.seed)
        });
        let sim = start.elapsed();
        let mut layers = Layers {
            workers: self.workers,
            groups: vec![GroupWork::default()],
            pool_wall: sim,
            ..Layers::default()
        };
        let mut results = Vec::with_capacity(out.len());
        let mut seeds = Vec::with_capacity(out.len());
        for (_, _, (result, took, seed)) in out {
            layers.job_ms.push(took.as_secs_f64() * 1e3);
            layers.pool_busy += took;
            layers.control_time += took;
            results.push(result);
            seeds.push(seed);
        }
        let analysis = analyse(&results);
        let wall = start.elapsed();
        let mut rep = Rep {
            wall,
            sim,
            jobs: self.jobs(),
            failed: results.iter().filter(|r| r.is_none()).count() as u64,
            cache_hits: 0,
            digest: digest(&(&results, &analysis)),
        };
        for (result, seed) in results.iter().zip(seeds) {
            let Some(result) = result else { continue };
            layers.windows += result.windows.len() as u64;
            layers.hedges += result.total_hedges();
            let r = replay(&self.spec, result, seed);
            layers.groups[0].hooks.add(&r.work.hooks);
            layers.groups[0].event_loop += r.work.event_loop;
            layers.span.add(&r.span);
            layers.kernel_calls += r.calls;
            if !r.matches {
                rep.failed += 1;
            }
        }
        layers.decide =
            timed.iter().map(TimedPolicy::totals).fold((0, Duration::ZERO), |a, b| (a.0 + b.0, a.1 + b.1));
        (rep, layers)
    }

    fn groups(&self) -> Vec<Group> {
        vec![Group {
            service: self.spec.service,
            server: MachineConfig::server_baseline(),
            clients: vec![MachineConfig::high_performance(), MachineConfig::low_power()],
            generator: GeneratorSpec::mutilate().with_connections(160 / FLEET as u32),
            link: LinkConfig::cloudlab_lan(),
            node_qps: PER_NODE_QPS,
            server_qps: PER_NODE_QPS * (FLEET / SHARDS) as f64,
            duration: self.spec.window,
            staged: false,
        }]
    }
}
