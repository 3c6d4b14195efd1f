//! The composed testbed runtime: a topology kernel over the deterministic
//! event queue.
//!
//! One [`run_once`] call = one paper "run" of the trivial 1×1 topology;
//! [`run_fleet`] executes an arbitrary [`TopologySpec`] — N client
//! nodes with heterogeneous hardware configurations, per-pair links, and
//! a shared server tier. The kernel wires each node's generator
//! ([`tpv_loadgen::ClientSide`]) and link ([`tpv_net::Link`]) to the
//! service ([`tpv_services::ServiceInstance`]) through one deterministic
//! event loop:
//!
//! * events are node-indexed and carry only a `u32` key into a
//!   [`tpv_sim::HotColdSlab`] of in-flight request records — per-request
//!   state lives in the arena, not in every event variant, and the
//!   fields every event touches (routing indices, latency stamp) sit in
//!   a dense hot array apart from the cold descriptor/stage bytes;
//! * each run draws fresh [`tpv_hw::RunEnvironment`]s for every machine —
//!   the paper's "in between runs we reset the environment" — so per-run
//!   samples are iid by construction;
//! * per-node randomness is **content-addressed** (`node_stream_keys` in
//!   [`crate::topology`]): permuting the fleet declaration cannot change
//!   any node's results;
//! * metric collection is pluggable through [`Collector`] — the
//!   aggregate [`RunResult`] is always produced, per-node breakdowns and
//!   fidelity traces hook in without touching the hot loop;
//! * runs can be **time-varying**: a node's
//!   [`NodeDynamics`] schedules deterministic phase boundaries at which
//!   its machine configuration, offered rate and/or link switch, and
//!   [`run_fleet`] reports the per-phase latency regimes next to the
//!   whole-run fleet result;
//! * the server tier can be **sharded**
//!   ([`crate::topology::ShardSpec`]): each shard is its own backend
//!   machine and service instance, shards share no mutable state, and
//!   the kernel partitions the run into independent per-shard
//!   sub-simulations — executed serially by [`run_collected`], or
//!   concurrently by [`run_fleet`] and
//!   [`run_sharded_collected_hedged_with`] with bit-identical results
//!   whatever the thread count or schedule;
//! * client populations compress through
//!   [`crate::topology::CohortSpec`]s: before partitioning, the kernel
//!   *lowers* each cohort into its tracked replicas plus one pooled
//!   node at the superposed arrival rate, so a million modeled clients
//!   execute as a few dozen kernel nodes ([`run_fleet`] reports the
//!   per-cohort rollups next to the fleet view).
//!
//! The single-node topology reproduces the historical monolithic loop's
//! RNG stream layout exactly, so `run_once` is **bit-identical** to the
//! pre-topology runtime, a degenerate single-phase schedule is
//! bit-identical to the static kernel, and a one-shard tier is
//! bit-identical to the unsharded kernel (all pinned by
//! `tests/golden_runtime.rs`).
//!
//! # Example
//!
//! Two runs of the same fleet from the same seed are bit-identical, and
//! the misconfigured low-power node is visibly the straggler:
//!
//! ```
//! use tpv_core::runtime::run_fleet;
//! use tpv_core::topology::{ClientNode, TopologySpec};
//! use tpv_hw::MachineConfig;
//! use tpv_loadgen::GeneratorSpec;
//! use tpv_net::LinkConfig;
//! use tpv_sim::SimDuration;
//!
//! let service = tpv_core::experiment::Benchmark::memcached().service;
//! let server = MachineConfig::server_baseline();
//! let gen = GeneratorSpec::mutilate();
//! let nodes = [
//!     ClientNode::new("hp", MachineConfig::high_performance(), gen, LinkConfig::cloudlab_lan(), 20_000.0),
//!     ClientNode::new("lp", MachineConfig::low_power(), gen, LinkConfig::cloudlab_lan(), 20_000.0),
//! ];
//! let topo = TopologySpec {
//!     service: &service,
//!     server: &server,
//!     nodes: &nodes,
//!     duration: SimDuration::from_ms(20),
//!     warmup: SimDuration::from_ms(4),
//!     shards: None,
//!     cohorts: &[],
//! };
//! let a = run_fleet(&topo, 42, 2).expect("valid topology");
//! assert_eq!(a, run_fleet(&topo, 42, 1).expect("valid topology"));
//! assert!(a.nodes[1].result.p99 > a.nodes[0].result.p99);
//! ```

use tpv_hw::MachineConfig;
use tpv_loadgen::{ArrivalProcess, ClientSide, GapBuffer, GeneratorSpec, LoopMode, PointOfMeasurement};
use tpv_net::{Connection, Link, LinkConfig};
use tpv_services::request::{StageCtx, StageOutcome};
use tpv_services::{NodeConn, RequestDescriptor, ServiceConfig, ServiceInstance};
use tpv_sim::{EventQueue, HotColdSlab, SimDuration, SimRng, SimTime};

use crate::collect::{
    Collector, MergeCollector, NodeStats, NullCollector, PerCohortCollector, PerNodeCollector,
    PhaseCollector, Pool, TraceCollector,
};
use crate::pin::PinPolicy;
use crate::topology::{
    node_stream_keys, ClientNode, CohortResult, FleetResult, NodeDynamics, NodeResult, ShardResult,
    TopologyError, TopologySpec,
};

/// Everything needed to execute one run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// The benchmark service and its interference profile.
    pub service: &'a ServiceConfig,
    /// Server machine configuration.
    pub server: &'a MachineConfig,
    /// Client machine configuration — the paper's variable under study.
    pub client: &'a MachineConfig,
    /// Workload generator deployment.
    pub generator: &'a GeneratorSpec,
    /// Network between client and server machines.
    pub link: &'a LinkConfig,
    /// Offered load in queries per second.
    pub qps: f64,
    /// Measured run length (the paper uses 2-minute runs; benches scale
    /// this down — see EXPERIMENTS.md).
    pub duration: SimDuration,
    /// Leading portion of the run excluded from measurement.
    pub warmup: SimDuration,
}

/// The measurements of one run — one iid sample of each metric (§III).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Mean end-to-end latency over recorded requests.
    pub avg: SimDuration,
    /// Median end-to-end latency.
    pub p50: SimDuration,
    /// 99th-percentile latency — the paper's headline tail metric.
    pub p99: SimDuration,
    /// Largest recorded latency.
    pub max: SimDuration,
    /// Within-run standard deviation of request latencies.
    pub std_dev: SimDuration,
    /// Recorded requests.
    pub samples: u64,
    /// Load actually achieved (responses per measured second).
    pub achieved_qps: f64,
    /// Load requested.
    pub target_qps: f64,
    /// Fraction of sends that slipped their schedule (workload-fidelity
    /// diagnostic).
    pub late_send_fraction: f64,
    /// Mean slip between scheduled and actual send times.
    pub mean_send_slip: SimDuration,
    /// Client-thread wake-ups per C-state `[C0, C1, C1E, C6]`.
    pub client_wakes: [u64; 4],
    /// Estimated client generator-thread energy over the run, in
    /// core-seconds of C0-equivalent power.
    pub client_energy_core_secs: f64,
    /// Requests stamped inside the measurement window whose responses
    /// were still in flight when the drain horizon expired, and which are
    /// therefore missing from the latency histogram. A non-zero value
    /// means the recorded tail is right-censored — a fidelity diagnostic
    /// (see [`crate::fidelity`]), not merely lost work.
    pub truncated_inflight: u64,
}

impl RunResult {
    /// Mean latency in microseconds (report convenience).
    pub fn avg_us(&self) -> f64 {
        self.avg.as_us()
    }

    /// p99 latency in microseconds (report convenience).
    pub fn p99_us(&self) -> f64 {
        self.p99.as_us()
    }
}

/// A node-indexed simulation event. Per-request payloads live in the
/// in-flight [`HotColdSlab`]; events carry only the key, so the event
/// heap stays small and cache-friendly.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A send is due on `conn` of `node`.
    SendDue { node: u16, conn: u32 },
    /// Request `req` reached the server NIC.
    ServerArrival { req: u32 },
    /// Request `req` resumes its next service stage.
    ServiceStage { req: u32 },
    /// Request `req`'s response reached its client NIC.
    ClientDelivery { req: u32 },
    /// `node` enters `phase` of its [`NodeDynamics`] schedule: its
    /// effective machine configuration, arrival rate and/or link switch.
    PhaseStart { node: u16, phase: u16 },
}

/// Hot half of an in-flight request record: the fields touched on
/// *every* event of the request's life — routing indices and the
/// latency stamp. Kept to 16 bytes so the [`HotColdSlab`]'s hot array
/// stays dense (a few cache lines per hundred in-flight requests); the
/// descriptor and stage context ride in [`ColdInFlight`], loaded only on
/// server-side stage transitions.
#[derive(Debug, Clone, Copy)]
struct HotInFlight {
    node: u16,
    conn: u32,
    stamp: SimTime,
}

/// Cold half of an in-flight request record: what the service needs to
/// admit and resume the request, untouched by the client-side send and
/// delivery paths.
#[derive(Debug, Clone, Copy)]
struct ColdInFlight {
    desc: RequestDescriptor,
    stage: u8,
    ctx: StageCtx,
}

/// A bounded trace of one run, for workload-fidelity diagnostics
/// (Lancet-style self-checks; see [`crate::fidelity`]).
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// `(connection, wire departure time)` of traced sends, in event
    /// order. Connections are node-local ids.
    pub wire_departures: Vec<(u32, SimTime)>,
    /// Measured latencies (µs) in completion order.
    pub latencies_us: Vec<f64>,
    /// The scheduled mean per-connection inter-arrival gap (µs).
    pub scheduled_gap_us: f64,
}

/// Live hedge leg of one node: an analytic replica of the hedge backend
/// plus the node's second network path and a private RNG stream (fork 7
/// of the node master — untouched by every other stream, so enabling a
/// hedge cannot perturb any non-hedged draw). The replica serves overdue
/// duplicates to completion via
/// [`ServiceInstance::handle_to_completion`], which models the backend's
/// service-time distribution but not its live queue depth — the
/// documented low-rate hedge approximation. No kernel events are
/// dispatched for a hedge leg, so event counts are hedge-invariant.
struct HedgeState {
    deadline: SimDuration,
    service: ServiceInstance,
    link: Link,
    rng: SimRng,
}

/// Live per-node state of the kernel: the node's generator, link,
/// connections, its content-addressed RNG streams and (for dynamic
/// nodes) its phase plan.
struct NodeState<'a> {
    client: ClientSide,
    link: Link,
    conns: Vec<Connection>,
    arrivals: ArrivalProcess,
    arrival_rng: SimRng,
    /// Batched pre-draws on the arrival stream. Safe because after the
    /// start-stagger draws, `arrival_rng` feeds gaps and nothing else —
    /// drawing ahead on it in the same order is bit-identical.
    gap_buf: GapBuffer,
    client_rng: SimRng,
    net_rng: SimRng,
    /// `None` in the single-node legacy stream layout: descriptors then
    /// draw from the shared service stream, exactly as the monolithic
    /// loop did.
    desc_rng: Option<SimRng>,
    /// Stream for per-phase environment redraws. Forked for every node
    /// but never consumed on static nodes, so the phase layer costs the
    /// static path no randomness.
    phase_rng: SimRng,
    /// The node's phase plan, if any.
    dynamics: Option<&'a NodeDynamics>,
    /// Pre-generated arrival process per phase (empty for nodes without
    /// a rate plan): a boundary switch is a copy, not a rebuild, so the
    /// steady-state loop and its phase transitions allocate nothing.
    phase_arrivals: Vec<ArrivalProcess>,
    /// Content identity for admission keying (0 = single-node layout).
    node_key: u64,
    pom: PointOfMeasurement,
    loop_mode: LoopMode,
    think_time: SimDuration,
    /// Base offered load (phase multipliers scale it).
    qps: f64,
    /// Effective offered load over the measurement window (equals `qps`
    /// for static nodes).
    target_qps: f64,
    /// In-window requests sent but not yet delivered.
    inflight_measured: u64,
    /// The node's hedge leg, when a [`crate::control::HedgePlan`] covers
    /// it (fleet layout only; the legacy single-node layout never
    /// hedges).
    hedge: Option<HedgeState>,
}

impl<'a> NodeState<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        node: &'a ClientNode,
        node_key: u64,
        client_env: &tpv_hw::RunEnvironment,
        arrival_rng: SimRng,
        client_rng: SimRng,
        mut net_rng: SimRng,
        desc_rng: Option<SimRng>,
        phase_rng: SimRng,
        window: (SimTime, SimTime),
    ) -> Self {
        let dynamics = node.dynamics.as_ref();
        let n_conns = node.generator.connections.max(1) as usize;
        // Phase 0 resolves every time-varying aspect; static nodes take
        // the exact legacy expressions (no float perturbation). Rate
        // plans pre-generate one arrival process per phase up front, so
        // a boundary switch in the hot loop is a plain copy.
        let (per_conn_gap, phase_arrivals) = match dynamics.and_then(|d| d.rate.as_ref()) {
            Some(rate) => {
                let per_phase: Vec<ArrivalProcess> = (0..rate.schedule().phase_count())
                    .map(|p| ArrivalProcess::new(node.generator.arrival, node.conn_gap(rate.multiplier(p))))
                    .collect();
                (per_phase[0].mean_gap(), per_phase)
            }
            None => (node.conn_gap(1.0), Vec::new()),
        };
        let link0 = dynamics.and_then(|d| d.links.as_ref()).map_or(&node.link, |links| &links[0]);
        let link = Link::new(link0, &mut net_rng);
        let target_qps = match dynamics {
            Some(dy) => node.qps * dy.mean_rate_multiplier(window.0, window.1),
            None => node.qps,
        };
        NodeState {
            client: ClientSide::new(node.generator, node.initial_machine(), client_env),
            link,
            conns: (0..n_conns).map(Connection::new).collect(),
            arrivals: ArrivalProcess::new(node.generator.arrival, per_conn_gap),
            arrival_rng,
            gap_buf: GapBuffer::new(),
            client_rng,
            net_rng,
            desc_rng,
            phase_rng,
            dynamics,
            phase_arrivals,
            node_key,
            pom: node.generator.pom,
            loop_mode: node.generator.loop_mode,
            think_time: node.generator.think_time,
            qps: node.qps,
            target_qps,
            inflight_measured: 0,
            hedge: None,
        }
    }

    /// Applies the switches of entering `phase` (machine, rate, link).
    /// Only aspects whose value actually changes at this boundary act,
    /// so repeated values neither redraw environments nor rebuild links.
    fn enter_phase(&mut self, phase: usize) {
        let dy = self.dynamics.expect("phase event on a static node");
        if let Some(plan) = &dy.machine {
            if plan.config(phase) != plan.config(phase - 1) {
                let cfg = plan.config(phase);
                // The new regime draws a fresh environment from its own
                // variability profile — per-node stream, so fleets stay
                // permutation invariant.
                let env = cfg.draw_environment(&mut self.phase_rng);
                self.client.reconfigure(cfg, &env);
            }
        }
        if let Some(rate) = &dy.rate {
            if rate.multiplier(phase) != rate.multiplier(phase - 1) {
                self.arrivals = self.phase_arrivals[phase];
                // Pre-drawn gaps take their meaning from the process in
                // effect at consumption: re-transform the buffered tail.
                self.gap_buf.reconfigure(&self.arrivals);
            }
        }
        if let Some(links) = &dy.links {
            if links[phase] != links[phase - 1] {
                self.link = Link::new(&links[phase], &mut self.net_rng);
            }
        }
    }
}

/// Executes one run of the testbed with the given seed.
///
/// Deterministic: the same `(spec, seed)` produces bit-identical results.
/// Internally this is the trivial 1×1 topology through the kernel.
///
/// # Panics
///
/// Panics if `qps` is not positive or `warmup >= duration`.
pub fn run_once(spec: &RunSpec<'_>, seed: u64) -> RunResult {
    assert!(spec.qps > 0.0, "offered load must be positive, got {}", spec.qps);
    let nodes = [spec.client_node()];
    let topo = TopologySpec {
        shards: None,
        service: spec.service,
        server: spec.server,
        nodes: &nodes,
        duration: spec.duration,
        warmup: spec.warmup,
        cohorts: &[],
    };
    run_collected(&topo, seed, &mut NullCollector)
}

/// Like [`run_once`], additionally collecting up to `max_trace` traced
/// sends and latencies for fidelity diagnostics.
///
/// # Panics
///
/// Panics if `qps` is not positive or `warmup >= duration`.
pub fn run_traced(spec: &RunSpec<'_>, seed: u64, max_trace: usize) -> (RunResult, RunTrace) {
    assert!(spec.qps > 0.0, "offered load must be positive, got {}", spec.qps);
    assert!(spec.warmup < spec.duration, "warmup must be shorter than the run");
    let nodes = [spec.client_node()];
    let topo = TopologySpec {
        shards: None,
        service: spec.service,
        server: spec.server,
        nodes: &nodes,
        duration: spec.duration,
        warmup: spec.warmup,
        cohorts: &[],
    };
    let n_conns = spec.generator.connections.max(1) as usize;
    let per_conn_gap = SimDuration::from_secs_f64(n_conns as f64 / spec.qps);
    // Expected sends bound the trace pre-allocation alongside max_trace.
    let expected_sends = (spec.qps * spec.duration.as_secs() * 1.25) as usize + 64;
    let mut collector =
        TraceCollector::new(max_trace, SimTime::ZERO + spec.warmup, per_conn_gap, expected_sends);
    let result = run_collected(&topo, seed, &mut collector);
    (result, collector.into_trace())
}

/// Executes one run of a topology on up to `workers` threads and returns
/// every breakdown of that one kernel pass: the aggregate, one result per
/// lowered node, per shard, per phase of
/// [`TopologySpec::merged_schedule`] and per cohort (see
/// [`FleetResult`]). This is the fleet entry point: a static topology
/// reports one all-covering phase, an unsharded one a single shard
/// covering the whole fleet, one without cohorts no cohort rollups.
///
/// Deterministic: the same `(spec, seed)` gives bit-identical results
/// whatever `workers`, the OS schedule or the shard enumeration order.
/// Each partition is a self-contained simulation with content-addressed
/// RNG streams, and the per-shard collectors fold in the canonical plan
/// order of `build_partitions`. Per-node results are invariant under
/// permutation of the node declaration order.
///
/// # Errors
///
/// Returns the [`TopologyError`] from [`TopologySpec::validate`] on an
/// invalid spec, before any event runs.
pub fn run_fleet(topo: &TopologySpec<'_>, seed: u64, workers: usize) -> Result<FleetResult, TopologyError> {
    topo.validate()?;
    let layout = topo.layout();
    let n = layout.len();
    let cohort_of = layout.cohort_map();
    let schedule = topo.merged_schedule();
    let (start, end) = (SimTime::ZERO + topo.warmup, SimTime::ZERO + topo.duration);
    let (aggregate, shards, (per_node, (per_phase, per_cohort))) =
        run_sharded_collected_hedged_with(topo, seed, workers, PinPolicy::Off, None, |_, _| {
            let per_cohort = PerCohortCollector::new(cohort_of.clone(), topo.cohorts.len());
            (PerNodeCollector::new(n), (PhaseCollector::new(schedule.clone(), start, end), per_cohort))
        });
    let nodes = per_node.into_results().into_iter().enumerate();
    let nodes = nodes.map(|(i, result)| NodeResult { label: layout.display_label(i), result }).collect();
    let cohorts = topo.cohorts.iter().zip(per_cohort.into_results(topo.duration - topo.warmup));
    let cohorts = cohorts
        .map(|(spec, result)| CohortResult {
            label: spec.node.label.clone(),
            population: spec.population,
            tracked: spec.tracked.min(spec.population),
            result,
        })
        .collect();
    Ok(FleetResult { aggregate, nodes, shards, phases: per_phase.into_stats(), cohorts })
}

/// Validates a topology before execution — shared by every kernel entry
/// point, so hand-assembled specs fail loudly whichever door they come
/// in through. The checks live in [`TopologySpec::validate`] (where
/// callers that prefer a reportable error get them as a
/// [`TopologyError`]); this bridge panics with the error's message,
/// preserving the historical panic contract.
fn validate_topology(topo: &TopologySpec<'_>) {
    if let Err(e) = topo.validate() {
        panic!("{e}");
    }
}

/// One shard's slice of a run: the backend machine, the member nodes
/// (global declaration index, node, content-addressed stream key) and
/// the RNG the shard's service/server-environment streams fork from.
/// The single-tier topology is exactly one partition covering the whole
/// fleet.
struct PartitionPlan<'a> {
    /// Shard index in declaration order (0 for the single tier).
    shard: usize,
    /// Canonical content key: plans are ordered by `(key, shard)`, so
    /// shard *enumeration* order cannot leak into any float merge
    /// through non-associative f64 addition. 0 for the single tier.
    key: u64,
    server: &'a MachineConfig,
    members: Vec<(usize, &'a ClientNode, u64)>,
    /// Service and server-environment streams fork from here (the global
    /// master for the single tier, a content-keyed fork per shard).
    master: SimRng,
    /// Replay the historical single-node stream layout (unsharded 1×1).
    legacy_single: bool,
}

/// Splits a topology into its independent per-shard sub-simulations,
/// over the **lowered** fleet `nodes` (see
/// [`TopologySpec::lowered_node_count`]; identical to `topo.nodes` when
/// the topology has no cohorts), returned in canonical
/// `(shard_key, shard)` order. This is the one place the merge order is
/// decided: every path iterates the plans in the order returned, so the
/// aggregate and every merged collector fold their float state
/// identically whatever the shard enumeration or execution schedule.
///
/// Shards share no mutable state — each partition gets its own service
/// instance, event queue, slab and RNG streams — so partitions can run
/// in any order, or concurrently, with bit-identical results. Per-node
/// streams fork from the **global** master under node content keys:
/// moving a node between shards (or resharding the tier) never changes
/// the node's own arrival schedule or environment draws — and a lowered
/// cohort node's key is its content key too, so cohort declaration
/// order cannot change results either.
fn build_partitions<'a>(
    topo: &TopologySpec<'a>,
    nodes: &'a [ClientNode],
    master: &SimRng,
) -> Vec<PartitionPlan<'a>> {
    if topo.shard_count() == 1 {
        // Degenerate tier: the unsharded kernel, with the single shard's
        // machine as the server when a spec is present.
        let server = topo.shards.map_or(topo.server, |s| &s.machines[0]);
        let legacy_single = nodes.len() == 1;
        let members: Vec<(usize, &'a ClientNode, u64)> = if legacy_single {
            vec![(0, &nodes[0], 0)]
        } else {
            nodes
                .iter()
                .enumerate()
                .zip(node_stream_keys(nodes))
                .map(|((i, node), key)| (i, node, key))
                .collect()
        };
        return vec![PartitionPlan {
            shard: 0,
            key: 0,
            server,
            members,
            master: master.clone(),
            legacy_single,
        }];
    }
    let shards = topo.shards.expect("multi-shard topology");
    let node_keys = node_stream_keys(nodes);
    let shard_keys = crate::topology::shard_stream_keys(&shards.machines);
    let assignment = shards.assign(nodes.len());
    let mut plans: Vec<PartitionPlan<'a>> = shards
        .machines
        .iter()
        .zip(&shard_keys)
        .enumerate()
        .map(|(shard, (server, &key))| PartitionPlan {
            shard,
            key,
            server,
            members: Vec::new(),
            master: master.fork(key),
            legacy_single: false,
        })
        .collect();
    for ((i, node), (&shard, &key)) in nodes.iter().enumerate().zip(assignment.iter().zip(&node_keys)) {
        plans[shard].members.push((i, node, key));
    }
    plans.sort_by_key(|plan| (plan.key, plan.shard));
    plans
}

/// Merges partition pools — given in [`build_partitions`]' canonical
/// plan order — into the whole-run aggregate. A single partition merges
/// into an empty histogram, which is bit-exact, keeping the unsharded
/// path byte-identical to the historical single-loop epilogue; the
/// aggregate's offered load pools every lowered node's effective load.
fn finish_run(topo: &TopologySpec<'_>, pools: &[Pool]) -> RunResult {
    let mut all = Pool::default();
    for pool in pools {
        all.merge(pool);
    }
    all.result(topo.duration - topo.warmup)
}

/// The topology kernel: executes one run, feeding observations to
/// `collector`. This is the single hot loop behind [`run_once`],
/// [`run_traced`] and (per shard) the parallel
/// [`run_sharded_collected_hedged_with`]. Sharded topologies execute
/// their partitions serially here, feeding the one collector in
/// canonical partition order.
///
/// # Panics
///
/// Panics if [`TopologySpec::validate`] rejects the topology (no nodes,
/// non-positive `qps`, invalid dynamics or cohorts, a bad shard spec,
/// or `warmup >= duration`).
pub fn run_collected<C: Collector>(topo: &TopologySpec<'_>, seed: u64, collector: &mut C) -> RunResult {
    validate_topology(topo);
    let layout = topo.layout();
    let master = SimRng::seed_from_u64(seed);
    let plans = build_partitions(topo, layout.nodes(), &master);
    let pools: Vec<Pool> =
        plans.iter().map(|plan| run_partition(topo, plan, &master, None, collector)).collect();
    finish_run(topo, &pools)
}

/// Executes one partition's sub-simulation: the member nodes against the
/// partition's backend, through a private event queue, slab and service
/// instance, returning the pool of its member nodes. Collector hooks
/// receive **global** node indices.
fn run_partition<C: Collector>(
    topo: &TopologySpec<'_>,
    part: &PartitionPlan<'_>,
    global_master: &SimRng,
    hedge_plan: Option<&crate::control::HedgePlan>,
    collector: &mut C,
) -> Pool {
    if part.members.is_empty() {
        // A shard with no assigned nodes serves nothing; its streams are
        // never consumed, so adding shards cannot perturb loaded ones.
        return Pool::default();
    }
    let master = &part.master;
    let mut service_rng = master.fork(3);
    let mut env_rng = master.fork(5);

    // Reset the environment: fresh per-run hardware state (§III iid).
    //
    // The single-node layout replays the historical stream order exactly
    // (client env then server env off one stream, descriptors off the
    // service stream), keeping `run_once` bit-identical to the
    // pre-topology runtime. Fleets give every node its own streams forked
    // under its content key — from the *global* master, so a node's
    // randomness survives resharding unchanged.
    let window = (SimTime::ZERO + topo.warmup, SimTime::ZERO + topo.duration);
    let mut states: Vec<NodeState<'_>> = Vec::with_capacity(part.members.len());
    let server_env;
    if part.legacy_single {
        let node = part.members[0].1;
        let client_env = node.initial_machine().draw_environment(&mut env_rng);
        server_env = part.server.draw_environment(&mut env_rng);
        states.push(NodeState::new(
            node,
            0,
            &client_env,
            master.fork(1),
            master.fork(2),
            master.fork(4),
            None,
            master.fork(6),
            window,
        ));
    } else {
        server_env = part.server.draw_environment(&mut env_rng);
        for &(_, node, key) in &part.members {
            let node_master = global_master.fork(key);
            let mut node_env_rng = node_master.fork(5);
            let client_env = node.initial_machine().draw_environment(&mut node_env_rng);
            let mut st = NodeState::new(
                node,
                key,
                &client_env,
                node_master.fork(1),
                node_master.fork(2),
                node_master.fork(4),
                Some(node_master.fork(3)),
                node_master.fork(6),
                window,
            );
            // The hedge leg lives on fork 7 of the node master — never
            // consumed by any other path, so a non-hedged run is
            // byte-identical whether or not hedging exists in the build.
            st.hedge = hedge_plan.and_then(|plan| plan.get(&node.label)).map(|spec| {
                let mut rng = node_master.fork(7);
                let env = spec.backend.draw_environment(&mut rng);
                let service =
                    ServiceInstance::new(topo.service, &spec.backend, &env, topo.duration, &mut rng);
                let link = Link::new(&node.link, &mut rng);
                HedgeState { deadline: spec.deadline, service, link, rng }
            });
            states.push(st);
        }
    }
    let mut service =
        ServiceInstance::new(topo.service, part.server, &server_env, topo.duration, &mut service_rng);

    // Local (partition) node index → global declaration index, for the
    // collector hooks.
    let global: Vec<usize> = part.members.iter().map(|&(i, _, _)| i).collect();

    let total_conns: usize = states.iter().map(|s| s.conns.len()).sum();
    // The partition's aggregate send rate bounds the event spacing from
    // above (every request adds in-flight events on top), which is the
    // calendar queue's bucket-width hint.
    let total_qps: f64 = states.iter().map(|s| s.qps).sum();
    let mut queue: EventQueue<Event> =
        EventQueue::with_spacing(4 * total_conns, SimDuration::from_secs_f64(1.0 / total_qps));
    let mut requests: HotColdSlab<HotInFlight, ColdInFlight> = HotColdSlab::with_capacity(2 * total_conns);

    // Stagger every connection's start phase uniformly across one of its
    // node's mean gaps.
    for (node, st) in states.iter_mut().enumerate() {
        for conn in 0..st.conns.len() {
            let phase = st.arrivals.mean_gap().scale(st.arrival_rng.next_f64());
            queue.schedule(SimTime::ZERO + phase, Event::SendDue { node: node as u16, conn: conn as u32 });
        }
    }

    let window_start = SimTime::ZERO + topo.warmup;
    let window_end = SimTime::ZERO + topo.duration;
    // Runs drain in-flight requests after the send window closes, with a
    // hard horizon to bound pathological backlogs.
    let horizon = window_end + topo.duration + SimDuration::from_secs(5);

    // Phase boundaries of dynamic nodes become first-class events, so a
    // regime switch interleaves deterministically with the request flow
    // (boundaries during the drain still apply: in-flight responses land
    // on the machine state of the moment).
    for (node, st) in states.iter().enumerate() {
        if let Some(dy) = st.dynamics {
            for (k, &boundary) in dy.schedule.boundaries().iter().enumerate() {
                if boundary <= horizon {
                    queue.schedule(boundary, Event::PhaseStart { node: node as u16, phase: (k + 1) as u16 });
                }
            }
        }
    }

    let mut pool = Pool::default();

    // Dispatch in tie-run batches: `pop_batch` drains every event sharing
    // the earliest timestamp in one call, amortizing the queue's per-pop
    // bookkeeping. All batch members report the same clamped `now`, so
    // the drain-horizon check moves out of the per-event path; events a
    // handler schedules at the batch's own timestamp land in a later
    // batch, exactly where FIFO tie order already places them — the
    // dispatch sequence is the one-at-a-time pop sequence unchanged.
    let mut batch: Vec<(SimTime, Event)> = Vec::with_capacity(64);
    while queue.pop_batch(&mut batch) > 0 {
        if batch[0].0 > horizon {
            break;
        }
        for &(now, event) in &batch {
            collector.on_event(now);
            match event {
                Event::SendDue { node, conn } => {
                    let st = &mut states[node as usize];
                    let desc = match st.desc_rng.as_mut() {
                        Some(rng) => service.next_descriptor(rng),
                        None => service.next_descriptor(&mut service_rng),
                    };
                    let plan = st.client.plan_send(conn as usize, now, &mut st.client_rng);
                    let raw = plan.wire + st.link.one_way(&mut st.net_rng);
                    let arrival = st.conns[conn as usize].deliver_to_server(raw);
                    collector.on_send(global[node as usize], conn, now, plan.wire);
                    if plan.stamp >= window_start && plan.stamp < window_end {
                        st.inflight_measured += 1;
                    }
                    let req = requests.insert(
                        HotInFlight { node, conn, stamp: plan.stamp },
                        ColdInFlight { desc, stage: 0, ctx: StageCtx::default() },
                    );
                    queue.schedule(arrival, Event::ServerArrival { req });
                    if st.loop_mode == LoopMode::Open {
                        let next = now + st.gap_buf.next_gap(&st.arrivals, &mut st.arrival_rng);
                        if next < window_end {
                            queue.schedule(next, Event::SendDue { node, conn });
                        }
                    }
                }
                Event::ServerArrival { req } | Event::ServiceStage { req } => {
                    let r = *requests.hot(req);
                    let key =
                        NodeConn { node_key: states[r.node as usize].node_key, conn: r.conn }.affinity_key();
                    let c = requests.cold(req);
                    let outcome = match event {
                        Event::ServerArrival { .. } => service.admit(key, &c.desc, now, &mut service_rng),
                        _ => service.resume(key, &c.desc, c.stage, c.ctx, now, &mut service_rng),
                    };
                    match outcome {
                        StageOutcome::Done(done) => {
                            let st = &mut states[r.node as usize];
                            let raw = done.response_wire + st.link.one_way(&mut st.net_rng);
                            let nic = st.link.coalesce(st.conns[r.conn as usize].deliver_to_client(raw));
                            queue.schedule(nic, Event::ClientDelivery { req });
                        }
                        StageOutcome::Continue { at, stage, ctx } => {
                            let slot = requests.cold_mut(req);
                            slot.stage = stage;
                            slot.ctx = ctx;
                            queue.schedule(at, Event::ServiceStage { req });
                        }
                    }
                }
                Event::ClientDelivery { req } => {
                    let r = *requests.hot(req);
                    let in_window = r.stamp >= window_start && r.stamp < window_end;
                    // Copy the descriptor out before the slot dies; only
                    // deliveries that can actually hedge pay for it.
                    let hedged_desc = if in_window && states[r.node as usize].hedge.is_some() {
                        Some(requests.cold(req).desc)
                    } else {
                        None
                    };
                    requests.remove(req);
                    let st = &mut states[r.node as usize];
                    let recv = st.client.receive(r.conn as usize, now, &mut st.client_rng);
                    let mut measured = recv.stamp(st.pom).since(r.stamp);
                    if in_window {
                        if let Some(desc) = hedged_desc {
                            let node_key = st.node_key;
                            let h = st.hedge.as_mut().expect("hedged_desc implies hedge state");
                            if measured > h.deadline {
                                // The duplicate leaves once the primary
                                // overruns the deadline; first response
                                // wins. Hedge draws fire only for
                                // recorded (in-window) requests, so the
                                // leg's stream consumption is a pure
                                // function of the measured request
                                // sequence.
                                let fire = r.stamp + h.deadline;
                                let arrival = fire + h.link.one_way(&mut h.rng);
                                let key = NodeConn { node_key, conn: r.conn };
                                let done = h.service.handle_to_completion(
                                    key.affinity_key(),
                                    &desc,
                                    arrival,
                                    &mut h.rng,
                                );
                                let alt = (done.response_wire + h.link.one_way(&mut h.rng)).since(r.stamp);
                                collector.on_hedge(global[r.node as usize]);
                                if alt < measured {
                                    measured = alt;
                                }
                            }
                        }
                        st.inflight_measured -= 1;
                        pool.record(measured);
                        collector.on_latency(global[r.node as usize], r.stamp, measured);
                    }
                    if st.loop_mode == LoopMode::Closed {
                        let next = recv.app + st.think_time;
                        if next < window_end {
                            queue.schedule(next, Event::SendDue { node: r.node, conn: r.conn });
                        }
                    }
                }
                Event::PhaseStart { node, phase } => {
                    states[node as usize].enter_phase(phase as usize);
                }
            }
        }
    }

    // Whatever is left in flight was cut off by the drain horizon and is
    // missing from the histogram (right-censored tail).
    let measured = topo.duration - topo.warmup;
    for (node, st) in states.iter().enumerate() {
        let stats = NodeStats {
            wakes: st.client.wakes_by_state(),
            energy_core_secs: st.client.energy_core_secs(window_end),
            sends: st.client.send_stats(),
            truncated_inflight: st.inflight_measured,
            target_qps: st.target_qps,
            measured,
        };
        pool.add_node(&stats);
        collector.on_node_done(global[node], &stats);
    }
    pool
}

/// The collector-generic parallel sharded kernel behind [`run_fleet`]
/// and the mitigation controller ([`crate::control::Controller`]): the
/// topology's partitions run on up to `workers` scoped threads (the
/// work-stealing pool below), pinned per `pin`, every partition with its
/// own collector `make(shard, shard_key)`. The per-shard collectors are
/// folded through [`MergeCollector::merge`] in the canonical plan order
/// of `build_partitions`, so a collector folding float state needs no
/// ordering logic of its own. Returns the aggregate result, the
/// per-shard breakdowns (sorted by shard index) and the merged
/// collector.
///
/// The aggregate is bit-identical to feeding one collector through
/// [`run_collected`] on the same topology, and every output is
/// bit-identical whatever `workers`, the pin policy or the OS schedule —
/// pinning only decides *where* worker threads run, never *what* they
/// compute (see [`crate::pin`]).
///
/// An optional [`HedgePlan`](crate::control::HedgePlan) makes the nodes
/// it covers duplicate overdue requests to an analytic replica, first
/// response winning (see [`crate::control::HedgeSpec`] for the model and
/// its low-rate caveat). `hedge: None` is exactly the unhedged kernel —
/// the hedge streams then don't exist, not merely go unused. Hedging
/// preserves every determinism contract: the hedge leg draws from fork 7
/// of the hedged node's own content-addressed master, fires only for
/// measured requests, and dispatches no events. The legacy single-node
/// stream layout (one node, unsharded) predates per-node masters and
/// never hedges.
///
/// # Panics
///
/// Panics on the same invalid specs as [`run_collected`].
pub fn run_sharded_collected_hedged_with<C, F>(
    topo: &TopologySpec<'_>,
    seed: u64,
    workers: usize,
    pin: PinPolicy,
    hedge: Option<&crate::control::HedgePlan>,
    make: F,
) -> (RunResult, Vec<ShardResult>, C)
where
    C: MergeCollector + Send,
    F: Fn(usize, u64) -> C + Sync,
{
    validate_topology(topo);
    let layout = topo.layout();
    let master = SimRng::seed_from_u64(seed);
    let plans = build_partitions(topo, layout.nodes(), &master);
    let workers = workers.clamp(1, plans.len());
    let per_shard: Vec<(Pool, C)> = if workers <= 1 {
        plans
            .iter()
            .map(|plan| {
                let mut collector = make(plan.shard, plan.key);
                (run_partition(topo, plan, &master, hedge, &mut collector), collector)
            })
            .collect()
    } else {
        use std::collections::VecDeque;
        use std::sync::Mutex;

        // Work stealing over the shard sub-simulations. A `HotShard`
        // tier concentrates most of the fleet in one partition; the old
        // self-scheduling queue handed shards out in declaration order,
        // so whichever worker drew the hot shard ran long while the
        // others drained the cheap tail and idled. Two measures fix
        // that: (1) seed the per-worker deques LPT-greedy — shards
        // sorted by estimated cost (offered QPS, the event-count driver)
        // go each to the least-loaded worker, so the hot shard starts
        // immediately on a dedicated worker — and (2) let idle workers
        // steal from the back of their neighbours' deques, so estimation
        // error moves work instead of idling a core. No task is ever
        // *created* after seeding, so a worker that finds every deque
        // empty can safely exit. Results still carry their plan index
        // and merge in canonical plan order below — the steal schedule
        // cannot leak into a single bit of the output.
        let cost = |s: usize| plans[s].members.iter().map(|&(_, node, _)| node.qps).sum::<f64>();
        let mut order: Vec<usize> = (0..plans.len()).collect();
        order.sort_by(|&a, &b| cost(b).total_cmp(&cost(a)).then(a.cmp(&b)));
        let mut loads = vec![0.0f64; workers];
        let mut seeded: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for s in order {
            let w = (0..workers)
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))
                .expect("workers >= 2 here");
            loads[w] += cost(s).max(1.0);
            seeded[w].push_back(s);
        }
        let queues: Vec<Mutex<VecDeque<usize>>> = seeded.into_iter().map(Mutex::new).collect();
        let out: Mutex<Vec<(usize, Pool, C)>> = Mutex::new(Vec::with_capacity(plans.len()));
        std::thread::scope(|scope| {
            for w in 0..workers {
                let queues = &queues;
                let out = &out;
                let plans = &plans;
                let master = &master;
                let make = &make;
                scope.spawn(move || {
                    pin.apply(w);
                    loop {
                        // Own deque first (front — the LPT order), then
                        // round-robin over victims (back — the cheap
                        // tail, minimizing contention with the owner).
                        let mut task = queues[w].lock().expect("shard deque poisoned").pop_front();
                        if task.is_none() {
                            for off in 1..workers {
                                let v = (w + off) % workers;
                                task = queues[v].lock().expect("shard deque poisoned").pop_back();
                                if task.is_some() {
                                    break;
                                }
                            }
                        }
                        let Some(s) = task else { break };
                        let plan = &plans[s];
                        let mut collector = make(plan.shard, plan.key);
                        let pool = run_partition(topo, plan, master, hedge, &mut collector);
                        out.lock().expect("shard results poisoned").push((s, pool, collector));
                    }
                });
            }
        });
        let mut collected = out.into_inner().expect("shard results poisoned");
        collected.sort_by_key(|&(s, _, _)| s);
        collected.into_iter().map(|(_, pool, collector)| (pool, collector)).collect()
    };

    let measured = topo.duration - topo.warmup;
    let (pools, collectors): (Vec<Pool>, Vec<C>) = per_shard.into_iter().unzip();
    let merged = collectors.into_iter().reduce(|mut acc, collector| {
        acc.merge(collector);
        acc
    });
    let mut shards: Vec<ShardResult> = pools
        .iter()
        .zip(&plans)
        .map(|(pool, plan)| ShardResult {
            shard: plan.shard,
            result: pool.result(measured),
            nodes: plan.members.iter().map(|&(i, _, _)| i).collect(),
        })
        .collect();
    shards.sort_by_key(|s| s.shard);
    let aggregate = finish_run(topo, &pools);
    (aggregate, shards, merged.expect("at least one partition"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpv_services::kv::KvConfig;
    use tpv_services::synthetic::SyntheticConfig;
    use tpv_services::ServiceKind;

    fn kv_service() -> ServiceConfig {
        ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
            preload_keys: 2_000,
            ..KvConfig::default()
        }))
    }

    fn base_spec<'a>(
        service: &'a ServiceConfig,
        client: &'a MachineConfig,
        server: &'a MachineConfig,
        generator: &'a GeneratorSpec,
        link: &'a LinkConfig,
        qps: f64,
    ) -> RunSpec<'a> {
        RunSpec {
            service,
            server,
            client,
            generator,
            link,
            qps,
            duration: SimDuration::from_ms(60),
            warmup: SimDuration::from_ms(10),
        }
    }

    #[test]
    fn run_produces_samples_near_target_rate() {
        let service = kv_service();
        let client = MachineConfig::high_performance();
        let server = MachineConfig::server_baseline();
        let generator = GeneratorSpec::mutilate();
        let link = LinkConfig::cloudlab_lan();
        let spec = base_spec(&service, &client, &server, &generator, &link, 100_000.0);
        let r = run_once(&spec, 1);
        assert!(r.samples > 3_000, "samples {}", r.samples);
        let ratio = r.achieved_qps / r.target_qps;
        assert!((0.85..1.15).contains(&ratio), "achieved/target {ratio}");
        assert!(r.avg > SimDuration::from_us(20));
        assert!(r.p99 >= r.p50 && r.p50 >= SimDuration::ZERO);
        assert!(r.max >= r.p99);
    }

    #[test]
    fn identical_seed_is_bit_identical() {
        let service = kv_service();
        let client = MachineConfig::low_power();
        let server = MachineConfig::server_baseline();
        let generator = GeneratorSpec::mutilate();
        let link = LinkConfig::cloudlab_lan();
        let spec = base_spec(&service, &client, &server, &generator, &link, 50_000.0);
        let a = run_once(&spec, 42);
        let b = run_once(&spec, 42);
        assert_eq!(a, b);
        let c = run_once(&spec, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn lp_client_measures_higher_latency_than_hp() {
        // Finding 1 in miniature: same server, same load, different
        // client config ⇒ different measurements.
        let service = kv_service();
        let server = MachineConfig::server_baseline();
        let generator = GeneratorSpec::mutilate();
        let link = LinkConfig::cloudlab_lan();
        let lp_cfg = MachineConfig::low_power();
        let hp_cfg = MachineConfig::high_performance();
        let lp = run_once(&base_spec(&service, &lp_cfg, &server, &generator, &link, 100_000.0), 7);
        let hp = run_once(&base_spec(&service, &hp_cfg, &server, &generator, &link, 100_000.0), 7);
        assert!(lp.avg.as_us() > hp.avg.as_us() * 1.3, "LP {} vs HP {}", lp.avg, hp.avg);
        assert!(lp.p99 > hp.p99);
        // LP slips its sends; HP does not.
        assert!(lp.mean_send_slip > hp.mean_send_slip);
        // LP threads take deep sleeps.
        assert!(lp.client_wakes[2] + lp.client_wakes[3] > 0);
    }

    #[test]
    fn closed_loop_bounds_outstanding_requests() {
        let service = ServiceConfig::without_interference(ServiceKind::Synthetic(SyntheticConfig::default()));
        let client = MachineConfig::high_performance();
        let server = MachineConfig::server_baseline();
        let generator = GeneratorSpec::mutilate().closed_loop(SimDuration::from_us(100));
        let link = LinkConfig::cloudlab_lan();
        // qps is only the initial pacing for closed loops.
        let spec = base_spec(&service, &client, &server, &generator, &link, 10_000.0);
        let r = run_once(&spec, 3);
        assert!(r.samples > 100);
        // With 160 connections, ~65 µs RTT+service and 100 µs think time,
        // the closed loop self-limits below ~1M QPS.
        assert!(r.achieved_qps < 1_200_000.0);
    }

    #[test]
    fn warmup_requests_are_excluded() {
        let service = kv_service();
        let client = MachineConfig::high_performance();
        let server = MachineConfig::server_baseline();
        let generator = GeneratorSpec::mutilate();
        let link = LinkConfig::cloudlab_lan();
        let mut spec = base_spec(&service, &client, &server, &generator, &link, 100_000.0);
        let full = run_once(&spec, 9);
        spec.warmup = SimDuration::from_ms(30);
        let trimmed = run_once(&spec, 9);
        assert!(trimmed.samples < full.samples);
    }

    #[test]
    fn healthy_run_truncates_nothing() {
        let service = kv_service();
        let client = MachineConfig::high_performance();
        let server = MachineConfig::server_baseline();
        let generator = GeneratorSpec::mutilate();
        let link = LinkConfig::cloudlab_lan();
        let spec = base_spec(&service, &client, &server, &generator, &link, 100_000.0);
        let r = run_once(&spec, 5);
        assert_eq!(r.truncated_inflight, 0, "unsaturated run must drain fully");
    }

    #[test]
    fn overload_surfaces_truncated_inflight() {
        // 10 workers at ~58 µs+10 ms per request cap the synthetic service
        // near 1K QPS; offering 100K for 60 ms builds a backlog that far
        // outlives the drain horizon, so in-window requests are cut off.
        let service = ServiceConfig::without_interference(ServiceKind::Synthetic(
            SyntheticConfig::with_delay(SimDuration::from_ms(10)),
        ));
        let client = MachineConfig::high_performance();
        let server = MachineConfig::server_baseline();
        let generator = GeneratorSpec::synthetic_client();
        let link = LinkConfig::cloudlab_lan();
        let spec = base_spec(&service, &client, &server, &generator, &link, 100_000.0);
        let r = run_once(&spec, 6);
        assert!(r.truncated_inflight > 0, "saturating backlog must be reported, got 0");
        // The diagnostic counts real requests: bounded by what was sent.
        assert!(r.truncated_inflight < 100_000, "implausible count {}", r.truncated_inflight);
    }

    #[test]
    #[should_panic(expected = "warmup must be shorter")]
    fn bad_warmup_panics() {
        let service = kv_service();
        let client = MachineConfig::high_performance();
        let server = MachineConfig::server_baseline();
        let generator = GeneratorSpec::mutilate();
        let link = LinkConfig::cloudlab_lan();
        let mut spec = base_spec(&service, &client, &server, &generator, &link, 1_000.0);
        spec.warmup = spec.duration;
        run_once(&spec, 0);
    }

    #[test]
    fn one_by_one_topology_equals_run_once() {
        let service = kv_service();
        let client = MachineConfig::low_power();
        let server = MachineConfig::server_baseline();
        let generator = GeneratorSpec::mutilate();
        let link = LinkConfig::cloudlab_lan();
        let spec = base_spec(&service, &client, &server, &generator, &link, 80_000.0);
        let solo = run_once(&spec, 11);
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
        let fleet = run_fleet(&topo, 11, 1).expect("valid topology");
        assert_eq!(fleet.aggregate, solo, "1×1 topology must match run_once bit for bit");
        assert_eq!(fleet.nodes.len(), 1);
        // The single node's breakdown carries the same distribution.
        assert_eq!(fleet.nodes[0].result.p99, solo.p99);
        assert_eq!(fleet.nodes[0].result.samples, solo.samples);
        assert_eq!(fleet.nodes[0].result.client_wakes, solo.client_wakes);
    }

    #[test]
    fn fleet_aggregate_pools_every_node() {
        let service = kv_service();
        let server = MachineConfig::server_baseline();
        let nodes = crate::topology::uniform_fleet(
            "agent",
            MachineConfig::high_performance(),
            GeneratorSpec::mutilate(),
            LinkConfig::cloudlab_lan(),
            100_000.0,
            4,
        );
        let topo = TopologySpec {
            shards: None,
            service: &service,
            server: &server,
            nodes: &nodes,
            duration: SimDuration::from_ms(60),
            warmup: SimDuration::from_ms(10),
            cohorts: &[],
        };
        let fleet = run_fleet(&topo, 21, 1).expect("valid topology");
        assert_eq!(fleet.nodes.len(), 4);
        let pooled: u64 = fleet.nodes.iter().map(|n| n.result.samples).sum();
        assert_eq!(fleet.aggregate.samples, pooled, "aggregate pools per-node samples");
        assert_eq!(fleet.aggregate.target_qps, 100_000.0);
        let ratio = fleet.aggregate.achieved_qps / fleet.aggregate.target_qps;
        assert!((0.85..1.15).contains(&ratio), "achieved/target {ratio}");
        // Every node contributed meaningfully.
        for n in &fleet.nodes {
            assert!(n.result.samples > 500, "{} starved: {}", n.label, n.result.samples);
        }
    }

    #[test]
    fn misconfigured_minority_skews_the_aggregate_tail() {
        // The fleet-scale version of Finding 1: one LP node in an
        // otherwise-HP fleet inflates the pooled p99.
        let service = kv_service();
        let server = MachineConfig::server_baseline();
        let gen = GeneratorSpec::mutilate().with_connections(40);
        let link = LinkConfig::cloudlab_lan();
        let all_good: Vec<ClientNode> = (0..4)
            .map(|i| {
                ClientNode::new(format!("good{i}"), MachineConfig::high_performance(), gen, link, 25_000.0)
            })
            .collect();
        let mut one_bad = all_good.clone();
        one_bad[0] = ClientNode::new("bad0", MachineConfig::low_power(), gen, link, 25_000.0);
        let duration = SimDuration::from_ms(60);
        let warmup = SimDuration::from_ms(10);
        let clean = run_fleet(
            &TopologySpec {
                shards: None,
                service: &service,
                server: &server,
                nodes: &all_good,
                duration,
                warmup,
                cohorts: &[],
            },
            5,
            1,
        )
        .expect("valid topology");
        let skewed = run_fleet(
            &TopologySpec {
                shards: None,
                service: &service,
                server: &server,
                nodes: &one_bad,
                duration,
                warmup,
                cohorts: &[],
            },
            5,
            1,
        )
        .expect("valid topology");
        assert!(
            skewed.aggregate.p99 > clean.aggregate.p99,
            "one bad client must inflate the pooled tail: {} !> {}",
            skewed.aggregate.p99,
            clean.aggregate.p99
        );
        // The breakdown points at the culprit.
        let bad = skewed.node("bad0").unwrap();
        let good = skewed.node("good1").unwrap();
        assert!(bad.result.avg > good.result.avg);
        assert!(bad.result.mean_send_slip > good.result.mean_send_slip);
        assert_eq!(skewed.worst_node_p99(), skewed.nodes.iter().map(|n| n.result.p99).max().unwrap());
        assert!(skewed.worst_node_p99() >= skewed.best_node_p99());
    }
}
