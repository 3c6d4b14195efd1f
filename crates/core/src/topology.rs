//! Composable simulation topologies: N client nodes × per-pair links × a
//! server tier.
//!
//! The paper's testbed is one client machine, one link, one server — the
//! trivial 1×1 topology. Real deployments run *fleets* of load-generator
//! agents whose hardware configurations are not identical (ConfigTron's
//! heterogeneous fleets, mutilate's multi-agent deployments), which is
//! exactly where client-side configuration skew becomes a fleet-level
//! data-quality problem. A [`TopologySpec`] describes such a deployment:
//!
//! * each [`ClientNode`] is one load-generating machine with its own
//!   hardware configuration, generator deployment, offered load and
//!   **per-pair link** to the server;
//! * the server tier is shared — every node's requests land on the same
//!   [`tpv_services::ServiceInstance`] worker queues, keyed by
//!   [`tpv_services::NodeConn`] so connection spaces stay disjoint;
//! * randomness is **content-addressed per node** (see
//!   `node_stream_keys`): a node's environment draws, arrival schedule
//!   and link jitter depend on what the node *is*, not where it appears
//!   in the declaration — permuting the fleet cannot change any node's
//!   results.
//!
//! [`crate::runtime::run_fleet`] executes a topology and returns a
//! [`FleetResult`]: the familiar aggregate [`RunResult`] plus one
//! [`NodeResult`] per client node and the per-shard, per-phase and
//! per-cohort breakdowns.
//!
//! Population-scale fleets compress through [`CohortSpec`]s: nodes
//! sharing one configuration class collapse into a single *pooled* node
//! whose arrival process is the Poisson superposition of the members'
//! (rate = population × per-member qps), plus a handful of `tracked`
//! exact replicas for per-client drill-down. Memory and per-event cost
//! scale with the *lowered* node count, not the modeled population —
//! a million-client fleet executes as a few dozen kernel nodes.
//!
//! # Example
//!
//! Content-addressed randomness makes fleet declaration order
//! irrelevant — each node's results follow the node wherever it moves:
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
//! let hp = ClientNode::new("hp", MachineConfig::high_performance(), gen, LinkConfig::cloudlab_lan(), 15_000.0);
//! let lp = ClientNode::new("lp", MachineConfig::low_power(), gen, LinkConfig::cloudlab_lan(), 15_000.0);
//! let run = |nodes: &[ClientNode]| {
//!     run_fleet(&TopologySpec {
//!         service: &service,
//!         server: &server,
//!         nodes,
//!         duration: SimDuration::from_ms(15),
//!         warmup: SimDuration::from_ms(3),
//!         shards: None,
//!         cohorts: &[],
//!     }, 7, 1)
//!     .expect("valid topology")
//! };
//! let fwd = run(&[hp.clone(), lp.clone()]);
//! let rev = run(&[lp, hp]);
//! assert_eq!(fwd.nodes[0], rev.nodes[1]);
//! assert_eq!(fwd.nodes[1], rev.nodes[0]);
//! assert_eq!(fwd.aggregate, rev.aggregate);
//! ```

use std::borrow::Cow;
use std::fmt;

use tpv_hw::{DynamicMachine, MachineConfig};
use tpv_loadgen::{ArrivalKind, GeneratorSpec, LoopMode, PhasedRate};
use tpv_net::LinkConfig;
use tpv_services::ServiceConfig;
use tpv_sim::dist::usable_sigma;
use tpv_sim::{PhaseSchedule, SimDuration, SimTime};

use crate::collect::PhaseStats;
use crate::runtime::{RunResult, RunSpec};

/// Phase-scheduled, time-varying behaviour of one client node: at every
/// boundary of one shared [`PhaseSchedule`] the node's effective machine
/// configuration, its offered rate and/or its link may switch.
///
/// Everything is optional: a `NodeDynamics` with only a rate models
/// diurnal load on fixed hardware; only machines models turbo-budget
/// decay under steady load. A dynamics whose schedule is
/// [`PhaseSchedule::single`] (or whose per-phase values never change) is
/// behaviourally a static node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDynamics {
    /// The boundaries at which this node's behaviour may switch.
    pub schedule: PhaseSchedule,
    /// Per-phase machine configuration (the node's
    /// [`ClientNode::machine`] is ignored when present). `None` = the
    /// machine is static.
    pub machine: Option<DynamicMachine>,
    /// Per-phase multiplier over the node's base [`ClientNode::qps`].
    /// `None` = constant load. Requires an open-loop generator — closed
    /// loops pace by think time, so a rate plan could not change the
    /// offered load it claims to (the runtime rejects the combination).
    pub rate: Option<PhasedRate>,
    /// Per-phase link configuration (one per phase; the node's
    /// [`ClientNode::link`] is ignored when present). `None` = the link
    /// is static.
    pub links: Option<Vec<LinkConfig>>,
}

impl NodeDynamics {
    /// Dynamics over `schedule` with nothing changing yet; chain the
    /// `with_*` builders to add time-varying aspects.
    pub fn new(schedule: PhaseSchedule) -> Self {
        NodeDynamics { schedule, machine: None, rate: None, links: None }
    }

    /// Sets one machine configuration per phase.
    ///
    /// # Panics
    ///
    /// Panics unless `configs.len()` matches the schedule's phase count.
    pub fn with_machines(mut self, configs: Vec<MachineConfig>) -> Self {
        self.machine = Some(DynamicMachine::new(self.schedule.clone(), configs));
        self
    }

    /// Sets a pre-built machine plan.
    ///
    /// # Panics
    ///
    /// Panics unless the plan follows this dynamics' schedule.
    pub fn with_machine_plan(mut self, plan: DynamicMachine) -> Self {
        assert_eq!(*plan.schedule(), self.schedule, "machine plan must follow the node's schedule");
        self.machine = Some(plan);
        self
    }

    /// Sets one rate multiplier per phase.
    ///
    /// # Panics
    ///
    /// Panics unless `multipliers.len()` matches the schedule's phase
    /// count and every multiplier is positive.
    pub fn with_rates(mut self, multipliers: Vec<f64>) -> Self {
        self.rate = Some(PhasedRate::new(self.schedule.clone(), multipliers));
        self
    }

    /// Sets a pre-built phased rate.
    ///
    /// # Panics
    ///
    /// Panics unless the rate follows this dynamics' schedule.
    pub fn with_rate_plan(mut self, rate: PhasedRate) -> Self {
        assert_eq!(*rate.schedule(), self.schedule, "rate plan must follow the node's schedule");
        self.rate = Some(rate);
        self
    }

    /// Sets one link configuration per phase.
    ///
    /// # Panics
    ///
    /// Panics unless `links.len()` matches the schedule's phase count.
    pub fn with_links(mut self, links: Vec<LinkConfig>) -> Self {
        assert_eq!(links.len(), self.schedule.phase_count(), "node dynamics needs one link per phase");
        self.links = Some(links);
        self
    }

    /// Checks the per-phase plans against the schedule of the node
    /// labelled `label` — the runtime calls this once per run so
    /// hand-assembled dynamics are rejected before any event runs.
    ///
    /// # Errors
    ///
    /// [`TopologyError::PlanScheduleMismatch`] for a machine or rate plan
    /// over another schedule, [`TopologyError::LinkCountMismatch`] for a
    /// link list that is not one per phase.
    pub fn validate(&self, label: &str) -> Result<(), TopologyError> {
        let mismatch = |plan| Err(TopologyError::PlanScheduleMismatch { label: label.to_string(), plan });
        if self.machine.as_ref().is_some_and(|m| *m.schedule() != self.schedule) {
            return mismatch("machine");
        }
        if self.rate.as_ref().is_some_and(|r| *r.schedule() != self.schedule) {
            return mismatch("rate");
        }
        match &self.links {
            Some(links) if links.len() != self.schedule.phase_count() => {
                Err(TopologyError::LinkCountMismatch {
                    label: label.to_string(),
                    links: links.len(),
                    phases: self.schedule.phase_count(),
                })
            }
            _ => Ok(()),
        }
    }

    /// Time-weighted mean rate multiplier over `[start, end)` — `1.0`
    /// (exactly) when no rate plan is attached.
    pub fn mean_rate_multiplier(&self, start: SimTime, end: SimTime) -> f64 {
        match &self.rate {
            Some(rate) => rate.mean_multiplier(start, end),
            None => 1.0,
        }
    }

    /// These dynamics restricted to the window `[start, end)`, with the
    /// window's `start` re-anchored to `t = 0`. Every per-phase value —
    /// machine config, rate multiplier, link — is copied from the phase
    /// that covers the corresponding original instant, never recomputed,
    /// so a sliced plan replays the original timeline exactly. This is
    /// the seam segmented (windowed) execution rests on: the control loop
    /// in [`crate::control`] replays a long dynamic run one window at a
    /// time by handing each window the slice it would have lived under.
    ///
    /// # Panics
    ///
    /// Panics unless `start < end`.
    pub fn slice(&self, start: SimTime, end: SimTime) -> NodeDynamics {
        let schedule = self.schedule.slice(start, end);
        let links = self.links.as_ref().map(|links| {
            (0..schedule.phase_count())
                .map(|p| links[self.schedule.phase_at(start + schedule.phase_start(p).since(SimTime::ZERO))])
                .collect()
        });
        NodeDynamics {
            schedule,
            machine: self.machine.as_ref().map(|m| m.slice(start, end)),
            rate: self.rate.as_ref().map(|r| r.slice(start, end)),
            links,
        }
    }
}

/// One load-generating client machine of a topology.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientNode {
    /// Name used in per-node reports ("agent0", "bad1", …). Participates
    /// in the node's content identity: identically-configured replicas
    /// with distinct labels draw independent randomness.
    pub label: String,
    /// The node's hardware configuration — the paper's variable under
    /// study, now settable per fleet member. When [`ClientNode::dynamics`]
    /// carries a machine plan, that plan's per-phase configurations are
    /// in effect instead.
    pub machine: MachineConfig,
    /// The generator deployment running on this node.
    pub generator: GeneratorSpec,
    /// The network path from this node to the server (per-pair: nodes on
    /// another rack model a longer path via
    /// [`tpv_net::LinkConfig::cross_rack`]). When [`ClientNode::dynamics`]
    /// carries per-phase links, those are in effect instead.
    pub link: LinkConfig,
    /// Offered load from this node, in queries per second (scaled per
    /// phase by [`ClientNode::dynamics`]' rate plan when present).
    pub qps: f64,
    /// Phase-scheduled time-varying behaviour. `None` — the common case —
    /// is a fully static node, bit-identical to the pre-phase testbed.
    pub dynamics: Option<NodeDynamics>,
}

impl ClientNode {
    /// A static node with every knob explicit.
    pub fn new(
        label: impl Into<String>,
        machine: MachineConfig,
        generator: GeneratorSpec,
        link: LinkConfig,
        qps: f64,
    ) -> Self {
        ClientNode { label: label.into(), machine, generator, link, qps, dynamics: None }
    }

    /// Returns a copy with phase-scheduled dynamics attached. The
    /// dynamics participate in the node's content identity, so a dynamic
    /// node and its static twin draw independent randomness.
    pub fn with_dynamics(mut self, dynamics: NodeDynamics) -> Self {
        self.dynamics = Some(dynamics);
        self
    }

    /// Stable content hash of this node (label, machine, generator, link,
    /// load and dynamics) — the basis of its content-addressed
    /// randomness.
    pub fn content_key(&self) -> u64 {
        crate::engine::fnv64_debug(self)
    }

    /// The machine configuration in effect at the start of a run: phase 0
    /// of the dynamics' machine plan when present, the static
    /// [`ClientNode::machine`] otherwise.
    pub fn initial_machine(&self) -> &MachineConfig {
        self.dynamics.as_ref().and_then(|dy| dy.machine.as_ref()).map_or(&self.machine, |plan| plan.config(0))
    }

    /// Mean gap between one connection's sends at `multiplier` times the
    /// node's base load: the pacing the kernel builds its arrival
    /// processes from. Zero when that load is too high to pace at
    /// nanosecond resolution. A multiplier of `1.0` gives the static
    /// node's gap bit for bit.
    pub(crate) fn conn_gap(&self, multiplier: f64) -> SimDuration {
        SimDuration::from_secs_f64(f64::from(self.generator.connections.max(1)) / (self.qps * multiplier))
    }
}

/// A compressed population of identically-configured client nodes.
///
/// ConfigTron-style fleets cluster into a modest number of
/// (machine × generator × link × load) classes. Instead of declaring a
/// million [`ClientNode`]s, a cohort declares the class **template**
/// once plus a `population`. The runtime *lowers* the cohort into:
///
/// * `tracked` exact copies of the template — ordinary nodes with
///   today's content-addressed per-node streams, whose client-side
///   wake/idle behaviour is exact — for per-client drill-down;
/// * one **pooled** node carrying the remaining `population - tracked`
///   members as a single superposed arrival process at
///   `(population - tracked) × qps`. Superposing independent Poisson
///   streams is exact for exponential arrivals (and an approximation
///   for other [`tpv_loadgen::ArrivalKind`]s); the pooled node keeps
///   the template's connection count, so memory and per-event cost stay
///   flat in `population`.
///
/// The pooled node models *offered load and server-side pressure*
/// exactly, but its client-side hardware state is one representative
/// machine driven at the pooled rate — it stays warm and never observes
/// the long-idle wake tails an isolated low-rate client would. Use
/// `tracked` representatives to measure those.
///
/// A cohort of `population: 1` with no tracked members lowers to the
/// template times a rate multiplier of exactly `1.0`, which is
/// bit-exact: it is indistinguishable from declaring the
/// [`ClientNode`] explicitly (pinned by `GOLDEN_COHORT` in
/// `tests/golden_runtime.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct CohortSpec {
    /// The configuration class every member shares.
    pub node: ClientNode,
    /// Number of modeled clients in this cohort (at least 1).
    pub population: u32,
    /// How many members to simulate as exact per-node replicas
    /// (at most `population`).
    pub tracked: u32,
}

impl CohortSpec {
    /// A cohort of `population` members of the `node` class, none
    /// tracked.
    pub fn new(node: ClientNode, population: u32) -> Self {
        CohortSpec { node, population, tracked: 0 }
    }

    /// Returns a copy tracking `tracked` members as exact replicas.
    pub fn with_tracked(mut self, tracked: u32) -> Self {
        self.tracked = tracked;
        self
    }

    /// Members simulated by the pooled superposed-arrival node.
    pub fn pooled(&self) -> u32 {
        self.population.saturating_sub(self.tracked)
    }
}

/// A structurally invalid [`TopologySpec`], reported by
/// [`TopologySpec::validate`] and [`crate::runtime::run_fleet`].
/// Misconfiguration surfaces as a value the caller can log and move past
/// (`all_experiments` keeps its suite alive) instead of a mid-suite
/// abort; the collector-generic runtime entry points bridge `Err` into a
/// panic carrying this error's message, which preserves the historical
/// panic pins.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// No client nodes and no cohorts.
    EmptyFleet,
    /// The lowered fleet exceeds the kernel's `u16` node-index width.
    TooManyNodes {
        /// Lowered node count (explicit nodes + tracked + pooled).
        lowered: usize,
    },
    /// A node (or cohort template) offers no load.
    NonPositiveQps {
        /// The offending node's label.
        label: String,
        /// Its configured load.
        qps: f64,
    },
    /// A node's phase schedule exceeds the kernel's `u16` phase-index
    /// width.
    TooManyPhases {
        /// The offending node's label.
        label: String,
        /// Its schedule's phase count.
        phases: usize,
    },
    /// A phased rate plan on a closed-loop generator: closed loops pace
    /// by think time, so the plan could not change the offered load it
    /// claims to.
    PhasedRateClosedLoop {
        /// The offending node's label.
        label: String,
    },
    /// A phased rate multiplier that is not finite and positive — NaN
    /// or an infinity would poison [`TopologySpec::offered_qps`] (and
    /// every mean-multiplier fold) silently, a non-positive one models
    /// no load. Constructors reject these, but a deserialized or
    /// hand-assembled plan bypasses them.
    NonFinitePhaseRate {
        /// The offending node's label.
        label: String,
        /// The phase whose multiplier is invalid.
        phase: usize,
        /// The rejected multiplier.
        multiplier: f64,
    },
    /// `warmup >= duration` leaves no measurement window.
    EmptyWindow {
        /// The configured warmup.
        warmup: SimDuration,
        /// The configured run duration (which the warmup must undercut).
        duration: SimDuration,
    },
    /// A cohort with `population == 0`.
    EmptyCohort {
        /// The cohort template's label.
        label: String,
    },
    /// A cohort tracking more members than its population.
    TrackedExceedsPopulation {
        /// The cohort template's label.
        label: String,
        /// Requested tracked members.
        tracked: u32,
        /// The cohort's population.
        population: u32,
    },
    /// A cohort pooling closed-loop members: superposed arrivals model
    /// open-loop load, while a closed loop's rate is set by think time
    /// and connection count.
    PooledClosedLoop {
        /// The cohort template's label.
        label: String,
    },
    /// A load so high (an infinite one included) that one connection's
    /// mean gap between sends rounds to zero nanoseconds, which no
    /// arrival process can pace.
    UnschedulableLoad {
        /// The offending node's label.
        label: String,
        /// The phase whose rate is too high; `None` for the base load.
        phase: Option<usize>,
        /// The rejected load: the node's qps times the phase multiplier.
        qps: f64,
    },
    /// A node's machine or rate plan follows another phase schedule than
    /// the node's own [`NodeDynamics::schedule`].
    PlanScheduleMismatch {
        /// The offending node's label.
        label: String,
        /// Which plan: `"machine"` or `"rate"`.
        plan: &'static str,
    },
    /// A node's per-phase link list is not one link per phase.
    LinkCountMismatch {
        /// The offending node's label.
        label: String,
        /// Links supplied.
        links: usize,
        /// Phases in the node's schedule.
        phases: usize,
    },
    /// A machine's [`tpv_hw::env::VariabilityProfile`] sigma, or a
    /// node's [`ArrivalKind::LogNormal`] sigma, that is negative or not
    /// finite. At run time it would panic in a sampler's constructor,
    /// abort on an unbounded allocation, or silently switch its noise
    /// source off.
    InvalidSigma {
        /// The node, server or shard whose machine or generator carries
        /// it.
        owner: SigmaOwner,
        /// The `VariabilityProfile` field name, or `"arrival_sigma"`.
        field: &'static str,
        /// The rejected sigma.
        value: f64,
    },
    /// A [`ShardSpec`] with no shard machines.
    EmptyShardTier,
    /// A shard index the tier does not have.
    ShardOutOfRange {
        /// The node an [`ShardPolicy::Explicit`] assignment sends there;
        /// `None` for the shard a [`ShardPolicy::HotShard`] names.
        node: Option<usize>,
        /// The rejected shard index.
        shard: usize,
        /// Shards in the tier.
        shards: usize,
    },
    /// A [`ShardPolicy::HotShard`] share outside `(0, 1]`.
    HotShardShare {
        /// The rejected share.
        share: f64,
    },
    /// A [`ShardPolicy::Explicit`] assignment that is not one shard per
    /// lowered node.
    AssignmentLength {
        /// Entries in the assignment.
        assigned: usize,
        /// Lowered nodes in the fleet.
        nodes: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::EmptyFleet => write!(f, "topology needs at least one client node"),
            TopologyError::TooManyNodes { lowered } => {
                write!(f, "topology exceeds {} nodes (lowered fleet has {lowered})", u16::MAX)
            }
            TopologyError::NonPositiveQps { label, qps } => {
                write!(f, "node '{label}': offered load must be positive, got {qps}")
            }
            TopologyError::TooManyPhases { label, phases } => {
                write!(f, "node '{label}': {phases} phases exceeds the kernel's limit of {}", u16::MAX)
            }
            TopologyError::PhasedRateClosedLoop { label } => write!(
                f,
                "node '{label}': phased rates require an open-loop generator (closed loops pace by think time)"
            ),
            TopologyError::NonFinitePhaseRate { label, phase, multiplier } => write!(
                f,
                "node '{label}': phase {phase} rate multiplier must be finite and positive, got {multiplier}"
            ),
            TopologyError::EmptyWindow { warmup, duration } => write!(
                f,
                "warmup must be shorter than the run, got warmup {warmup} >= duration {duration}"
            ),
            TopologyError::EmptyCohort { label } => {
                write!(f, "cohort '{label}' needs a population of at least one")
            }
            TopologyError::TrackedExceedsPopulation { label, tracked, population } => {
                write!(f, "cohort '{label}' tracks {tracked} members but has a population of {population}")
            }
            TopologyError::PooledClosedLoop { label } => write!(
                f,
                "cohort '{label}': pooled members require an open-loop generator (closed loops pace by \
                 think time, which superposed arrivals cannot model); track every member instead"
            ),
            TopologyError::UnschedulableLoad { label, phase, qps } => {
                let at = phase.map_or_else(|| "offered load".to_string(), |p| format!("phase {p} load"));
                write!(f, "node '{label}': {at} of {qps} qps leaves a zero gap between a connection's sends")
            }
            TopologyError::PlanScheduleMismatch { label, plan } => {
                write!(f, "node '{label}': {plan} plan must follow the node's phase schedule")
            }
            TopologyError::LinkCountMismatch { label, links, phases } => write!(
                f,
                "node '{label}': dynamics need one link per phase, got {links} links for {phases} phases"
            ),
            TopologyError::InvalidSigma { owner, field, value } => {
                write!(f, "{owner}: {field} must be finite and non-negative, got {value}")
            }
            TopologyError::EmptyShardTier => write!(f, "a server tier needs at least one shard"),
            TopologyError::ShardOutOfRange { node, shard, shards } => match node {
                Some(i) => write!(f, "node {i} assigned to shard {shard}, out of range (K = {shards})"),
                None => write!(f, "hot shard {shard} out of range (K = {shards})"),
            },
            TopologyError::HotShardShare { share } => {
                write!(f, "hot-shard share must be in (0, 1], got {share}")
            }
            TopologyError::AssignmentLength { assigned, nodes } => write!(
                f,
                "explicit assignment needs one shard per node, got {assigned} for {nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Where a [`TopologyError::InvalidSigma`] sits in its spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigmaOwner {
    /// A client node's static machine or generator (`phase: None`), or
    /// one phase of its machine plan.
    Node {
        /// The node's label.
        label: String,
        /// The machine plan's phase.
        phase: Option<usize>,
    },
    /// The single-tier server machine.
    Server,
    /// The machine of the shard with this index.
    Shard(usize),
}

impl fmt::Display for SigmaOwner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigmaOwner::Node { label, phase: None } => write!(f, "node '{label}'"),
            SigmaOwner::Node { label, phase: Some(p) } => write!(f, "node '{label}' phase {p}"),
            SigmaOwner::Server => write!(f, "server"),
            SigmaOwner::Shard(i) => write!(f, "shard {i}"),
        }
    }
}

/// Rejects `machine`'s first unusable variability sigma, naming `owner`.
fn check_sigmas(machine: &MachineConfig, owner: impl FnOnce() -> SigmaOwner) -> Result<(), TopologyError> {
    match machine.variability.invalid_sigma() {
        Some((field, value)) => Err(TopologyError::InvalidSigma { owner: owner(), field, value }),
        None => Ok(()),
    }
}

/// Where a lowered node came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeOrigin {
    /// Declared explicitly in [`TopologySpec::nodes`].
    Explicit(usize),
    /// Tracked replica `member` of cohort `cohort`.
    Tracked {
        /// Cohort declaration index.
        cohort: usize,
        /// Member index within the cohort's tracked set.
        member: u32,
    },
    /// The pooled remainder of cohort `cohort`.
    Pooled {
        /// Cohort declaration index.
        cohort: usize,
        /// Members carried by the superposed arrival process.
        members: u32,
    },
}

/// The lowered fleet of a topology: explicit nodes first, then each
/// cohort's tracked replicas and pooled node, in declaration order.
/// Borrows the declared slice untouched when there are no cohorts, so
/// the common path allocates nothing.
pub(crate) struct FleetLayout<'a> {
    nodes: Cow<'a, [ClientNode]>,
    /// Origin per lowered node; `None` when the topology has no cohorts
    /// (every lowered node is explicit).
    origins: Option<Vec<NodeOrigin>>,
}

impl FleetLayout<'_> {
    /// The lowered nodes the kernel executes.
    pub(crate) fn nodes(&self) -> &[ClientNode] {
        &self.nodes
    }

    /// Lowered node count.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Origin of lowered node `i`.
    pub(crate) fn origin(&self, i: usize) -> NodeOrigin {
        match &self.origins {
            Some(origins) => origins[i],
            None => NodeOrigin::Explicit(i),
        }
    }

    /// Display label of lowered node `i`: the declared label for
    /// explicit nodes, `label#k` for tracked cohort members,
    /// `label#pooled(n)` for a pooled remainder. Display only — content
    /// keys (and therefore RNG streams) use the [`ClientNode`] itself.
    pub(crate) fn display_label(&self, i: usize) -> String {
        match self.origin(i) {
            NodeOrigin::Explicit(_) => self.nodes[i].label.clone(),
            NodeOrigin::Tracked { member, .. } => format!("{}#{member}", self.nodes[i].label),
            NodeOrigin::Pooled { members, .. } => format!("{}#pooled({members})", self.nodes[i].label),
        }
    }

    /// Lowered node index → owning cohort (`None` for explicit nodes) —
    /// the attribution map [`crate::collect::PerCohortCollector`] is
    /// built from.
    pub(crate) fn cohort_map(&self) -> Vec<Option<usize>> {
        (0..self.len())
            .map(|i| match self.origin(i) {
                NodeOrigin::Explicit(_) => None,
                NodeOrigin::Tracked { cohort, .. } | NodeOrigin::Pooled { cohort, .. } => Some(cohort),
            })
            .collect()
    }
}

/// Splits one deployment into `count` client nodes that together
/// preserve the original's total connection count and offered load:
/// connections divide as evenly as possible (the first
/// `connections % count` nodes carry one extra) and each node's load is
/// proportional to its connection share, so the per-connection request
/// rate — and therefore the workload being split — is unchanged. Labels
/// are `prefix0..prefixN`.
///
/// Degenerate splits (`count > connections`) clamp every node to one
/// connection, *growing* the total — at that point the fleet is a
/// different deployment, not a split of the original.
///
/// # Panics
///
/// Panics if `count` is zero.
pub fn uniform_fleet(
    prefix: &str,
    machine: MachineConfig,
    generator: GeneratorSpec,
    link: LinkConfig,
    total_qps: f64,
    count: usize,
) -> Vec<ClientNode> {
    assert!(count > 0, "a fleet needs at least one node");
    let conns = generator.connections.max(1);
    let base = conns / count as u32;
    let extra = (conns % count as u32) as usize;
    let total: f64 = (0..count).map(|i| base + u32::from(i < extra)).map(|c| c.max(1) as f64).sum();
    (0..count)
        .map(|i| {
            let node_conns = (base + u32::from(i < extra)).max(1);
            ClientNode::new(
                format!("{prefix}{i}"),
                machine,
                generator.with_connections(node_conns),
                link,
                total_qps * node_conns as f64 / total,
            )
        })
        .collect()
}

/// How client nodes map onto the server shards of a [`ShardSpec`].
///
/// Assignment is a pure function of the node's *declaration index* and
/// the fleet/shard counts — deterministic and reproducible from the spec
/// alone. [`ShardPolicy::Explicit`] exists for tests and replays where
/// the mapping itself is the variable under study.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardPolicy {
    /// Node `i` lands on shard `i mod K` — the uniform interleave.
    RoundRobin,
    /// Contiguous equal ranges: node `i` lands on shard `i * K / N`.
    Range,
    /// The skewed policy: the first `ceil(share * N)` nodes (at least
    /// one) land on shard `hot`; the remainder round-robin across the
    /// other shards in index order. Models an overloaded backend behind
    /// an imbalanced router.
    HotShard {
        /// Index of the overloaded shard.
        hot: usize,
        /// Fraction of the fleet routed to it, in `(0, 1]`.
        share: f64,
    },
    /// `assignment[i]` is node `i`'s shard.
    Explicit(Vec<usize>),
}

/// The server tier of a sharded topology: `K` backend shards, each a
/// full machine running its own service instance, plus the deterministic
/// node→shard assignment. Shards share no mutable state — every shard
/// has its own worker queues, key space and interference draws — which
/// is what lets the kernel execute them as independent sub-simulations
/// (see [`crate::runtime::run_fleet`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// One server machine configuration per shard.
    pub machines: Vec<MachineConfig>,
    /// The node→shard assignment policy.
    pub policy: ShardPolicy,
}

impl ShardSpec {
    /// `count` identical shards with round-robin assignment.
    pub fn uniform(machine: MachineConfig, count: usize) -> Self {
        assert!(count > 0, "a server tier needs at least one shard");
        ShardSpec { machines: vec![machine; count], policy: ShardPolicy::RoundRobin }
    }

    /// Returns a copy with the given assignment policy.
    pub fn with_policy(mut self, policy: ShardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.machines.len()
    }

    /// Checks the spec against a fleet of `nodes` client nodes.
    ///
    /// # Errors
    ///
    /// [`TopologyError::EmptyShardTier`] for a tier without machines,
    /// [`TopologyError::ShardOutOfRange`] for a hot or explicitly
    /// assigned shard past the tier, [`TopologyError::HotShardShare`] for
    /// a share outside `(0, 1]` and [`TopologyError::AssignmentLength`]
    /// for an explicit assignment that is not one shard per node.
    pub fn validate(&self, nodes: usize) -> Result<(), TopologyError> {
        let shards = self.count();
        if shards == 0 {
            return Err(TopologyError::EmptyShardTier);
        }
        match &self.policy {
            ShardPolicy::RoundRobin | ShardPolicy::Range => {}
            &ShardPolicy::HotShard { hot, share } => {
                if hot >= shards {
                    return Err(TopologyError::ShardOutOfRange { node: None, shard: hot, shards });
                }
                if share.is_nan() || share <= 0.0 || share > 1.0 {
                    return Err(TopologyError::HotShardShare { share });
                }
            }
            ShardPolicy::Explicit(assignment) => {
                if assignment.len() != nodes {
                    return Err(TopologyError::AssignmentLength { assigned: assignment.len(), nodes });
                }
                if let Some((i, &shard)) = assignment.iter().enumerate().find(|&(_, &s)| s >= shards) {
                    return Err(TopologyError::ShardOutOfRange { node: Some(i), shard, shards });
                }
            }
        }
        Ok(())
    }

    /// The node→shard assignment for a fleet of `nodes` client nodes, in
    /// node declaration order.
    ///
    /// # Panics
    ///
    /// Panics with the error's message if [`ShardSpec::validate`]
    /// rejects the spec.
    pub fn assign(&self, nodes: usize) -> Vec<usize> {
        if let Err(e) = self.validate(nodes) {
            panic!("{e}");
        }
        let k = self.count();
        match &self.policy {
            ShardPolicy::RoundRobin => (0..nodes).map(|i| i % k).collect(),
            ShardPolicy::Range => (0..nodes).map(|i| i * k / nodes.max(1)).collect(),
            ShardPolicy::HotShard { hot, share } => {
                let hot_nodes = ((share * nodes as f64).ceil() as usize).clamp(1, nodes);
                let cold: Vec<usize> = (0..k).filter(|s| s != hot).collect();
                (0..nodes)
                    .map(|i| {
                        if i < hot_nodes || cold.is_empty() {
                            *hot
                        } else {
                            cold[(i - hot_nodes) % cold.len()]
                        }
                    })
                    .collect()
            }
            ShardPolicy::Explicit(assignment) => assignment.clone(),
        }
    }
}

/// Everything needed to execute one run of a topology: the server tier
/// plus any number of client nodes.
#[derive(Debug, Clone, Copy)]
pub struct TopologySpec<'a> {
    /// The benchmark service and its interference profile.
    pub service: &'a ServiceConfig,
    /// Server machine configuration of the single-tier case (exactly one
    /// backend, every node's requests land on it). Ignored when
    /// [`TopologySpec::shards`] is set — the shard spec then defines the
    /// whole server tier, machine configurations included.
    pub server: &'a MachineConfig,
    /// The client fleet. One node is the paper's testbed; the order of
    /// declaration cannot influence any node's results.
    pub nodes: &'a [ClientNode],
    /// Measured run length.
    pub duration: SimDuration,
    /// Leading portion of the run excluded from measurement.
    pub warmup: SimDuration,
    /// Sharded server tier. `None` — the common case — is the single
    /// shared tier; `Some` with one shard is the same topology with the
    /// shard's machine as the server (bit-identical to the unsharded
    /// kernel); `Some` with `K > 1` partitions the run into independent
    /// per-shard sub-simulations.
    pub shards: Option<&'a ShardSpec>,
    /// Cohort-compressed client populations, lowered next to
    /// [`TopologySpec::nodes`] at run time (explicit nodes first, then
    /// each cohort's tracked replicas and pooled node in declaration
    /// order). Empty — the common case — means the fleet is exactly
    /// `nodes`.
    pub cohorts: &'a [CohortSpec],
}

/// Order-independent f64 accumulation: float addition is not
/// associative, so naively summing per-node values in declaration order
/// would leak the fleet's declaration order into aggregate results.
/// Summing in sorted order makes the total a function of the value
/// *multiset*. A single value sums to itself bit-exactly.
pub(crate) fn stable_sum(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values.iter().sum()
}

impl TopologySpec<'_> {
    /// Lowers the cohorts into the flat node list the kernel executes:
    /// explicit nodes first, then per cohort (in declaration order) its
    /// tracked replicas followed by one pooled node whose load is the
    /// Poisson superposition of the untracked members. Lowered nodes
    /// draw their RNG streams from the same content-addressed keys as
    /// explicit nodes, so cohort declaration order is presentation, not
    /// physics.
    pub(crate) fn layout(&self) -> FleetLayout<'_> {
        if self.cohorts.is_empty() {
            return FleetLayout { nodes: Cow::Borrowed(self.nodes), origins: None };
        }
        let mut nodes = self.nodes.to_vec();
        let mut origins: Vec<NodeOrigin> = (0..self.nodes.len()).map(NodeOrigin::Explicit).collect();
        for (c, cohort) in self.cohorts.iter().enumerate() {
            let tracked = cohort.tracked.min(cohort.population);
            for member in 0..tracked {
                nodes.push(cohort.node.clone());
                origins.push(NodeOrigin::Tracked { cohort: c, member });
            }
            let pooled = cohort.population - tracked;
            if pooled > 0 {
                let mut node = cohort.node.clone();
                // Poisson superposition: pooling n independent members
                // is one arrival process at n× the rate. n = 1
                // multiplies by exactly 1.0, which is bit-exact — a
                // population-one cohort *is* its explicit node.
                node.qps = cohort.node.qps * f64::from(pooled);
                nodes.push(node);
                origins.push(NodeOrigin::Pooled { cohort: c, members: pooled });
            }
        }
        FleetLayout { nodes: Cow::Owned(nodes), origins: Some(origins) }
    }

    /// Checks the spec structurally, reporting misconfiguration as a
    /// typed [`TopologyError`] a caller can surface without aborting —
    /// malformed [`NodeDynamics`] plans and [`ShardSpec`] assignments
    /// included. [`crate::runtime::run_fleet`] returns this error; the
    /// collector-generic runtime entry points panic with its message.
    ///
    /// # Errors
    ///
    /// The first [`TopologyError`] the spec commits.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.nodes.is_empty() && self.cohorts.is_empty() {
            return Err(TopologyError::EmptyFleet);
        }
        for cohort in self.cohorts {
            if cohort.population == 0 {
                return Err(TopologyError::EmptyCohort { label: cohort.node.label.clone() });
            }
            if cohort.tracked > cohort.population {
                return Err(TopologyError::TrackedExceedsPopulation {
                    label: cohort.node.label.clone(),
                    tracked: cohort.tracked,
                    population: cohort.population,
                });
            }
            if cohort.pooled() > 0 && cohort.node.generator.loop_mode != LoopMode::Open {
                return Err(TopologyError::PooledClosedLoop { label: cohort.node.label.clone() });
            }
        }
        let layout = self.layout();
        if layout.len() > u16::MAX as usize {
            return Err(TopologyError::TooManyNodes { lowered: layout.len() });
        }
        for node in layout.nodes() {
            if node.qps <= 0.0 || node.qps.is_nan() {
                return Err(TopologyError::NonPositiveQps { label: node.label.clone(), qps: node.qps });
            }
            if node.conn_gap(1.0).is_zero() {
                return Err(TopologyError::UnschedulableLoad {
                    label: node.label.clone(),
                    phase: None,
                    qps: node.qps,
                });
            }
            let owner = |phase| SigmaOwner::Node { label: node.label.clone(), phase };
            check_sigmas(&node.machine, || owner(None))?;
            if let ArrivalKind::LogNormal(sigma) = node.generator.arrival {
                if !usable_sigma(sigma) {
                    return Err(TopologyError::InvalidSigma {
                        owner: owner(None),
                        field: "arrival_sigma",
                        value: sigma,
                    });
                }
            }
            if let Some(dy) = &node.dynamics {
                dy.validate(&node.label)?;
                if let Some(plan) = &dy.machine {
                    for phase in 0..plan.schedule().phase_count() {
                        check_sigmas(plan.config(phase), || owner(Some(phase)))?;
                    }
                }
                if dy.schedule.phase_count() > u16::MAX as usize {
                    return Err(TopologyError::TooManyPhases {
                        label: node.label.clone(),
                        phases: dy.schedule.phase_count(),
                    });
                }
                // Closed loops pace by think time, not the arrival
                // process a rate plan rebuilds — a phased rate there
                // would change the reported target without changing the
                // offered load.
                if dy.rate.is_some() && node.generator.loop_mode != LoopMode::Open {
                    return Err(TopologyError::PhasedRateClosedLoop { label: node.label.clone() });
                }
                // `PhasedRate::new` rejects these, but a deserialized or
                // hand-assembled plan bypasses it — and one NaN
                // multiplier poisons `offered_qps` and every
                // mean-multiplier fold silently.
                if let Some(rate) = &dy.rate {
                    for phase in 0..rate.schedule().phase_count() {
                        let multiplier = rate.multiplier(phase);
                        if !multiplier.is_finite() || multiplier <= 0.0 {
                            return Err(TopologyError::NonFinitePhaseRate {
                                label: node.label.clone(),
                                phase,
                                multiplier,
                            });
                        }
                        if node.conn_gap(multiplier).is_zero() {
                            return Err(TopologyError::UnschedulableLoad {
                                label: node.label.clone(),
                                phase: Some(phase),
                                qps: node.qps * multiplier,
                            });
                        }
                    }
                }
            }
        }
        if self.warmup >= self.duration {
            return Err(TopologyError::EmptyWindow { warmup: self.warmup, duration: self.duration });
        }
        check_sigmas(self.server, || SigmaOwner::Server)?;
        let Some(shards) = self.shards else { return Ok(()) };
        for (i, machine) in shards.machines.iter().enumerate() {
            check_sigmas(machine, || SigmaOwner::Shard(i))?;
        }
        shards.validate(layout.len())
    }

    /// Number of kernel-executed nodes after cohort lowering.
    pub fn lowered_node_count(&self) -> usize {
        self.layout().len()
    }

    /// Number of *modeled* clients: explicit nodes plus every cohort
    /// member. The kernel's memory and per-event cost scale with
    /// [`TopologySpec::lowered_node_count`], not with this.
    pub fn modeled_clients(&self) -> u64 {
        self.nodes.len() as u64 + self.cohorts.iter().map(|c| u64::from(c.population)).sum::<u64>()
    }

    /// Total *base* offered load across the (lowered) fleet
    /// (order-independent), ignoring any phased rate plans. Cohorts
    /// contribute `population × qps`.
    pub fn total_qps(&self) -> f64 {
        stable_sum(self.layout().nodes().iter().map(|n| n.qps).collect())
    }

    /// Effective offered load across the fleet over the measurement
    /// window: each lowered node's base load weighted by its
    /// time-averaged rate multiplier. Bit-identical to
    /// [`TopologySpec::total_qps`] when no node carries a rate plan.
    pub fn offered_qps(&self) -> f64 {
        let start = SimTime::ZERO + self.warmup;
        let end = SimTime::ZERO + self.duration;
        stable_sum(
            self.layout()
                .nodes()
                .iter()
                .map(|n| match &n.dynamics {
                    Some(dy) => n.qps * dy.mean_rate_multiplier(start, end),
                    None => n.qps,
                })
                .collect(),
        )
    }

    /// The union of every node's phase boundaries — the finest schedule
    /// against which per-phase metrics of this topology are well defined.
    /// The single all-covering phase when no node is dynamic.
    pub fn merged_schedule(&self) -> PhaseSchedule {
        self.layout()
            .nodes()
            .iter()
            .filter_map(|n| n.dynamics.as_ref())
            .fold(PhaseSchedule::single(), |acc, dy| acc.merged(&dy.schedule))
    }

    /// Number of server shards (1 for the single-tier case).
    pub fn shard_count(&self) -> usize {
        self.shards.map_or(1, ShardSpec::count)
    }
}

impl RunSpec<'_> {
    /// The single [`ClientNode`] equivalent to this spec's client side —
    /// `run_once` is exactly the 1×1 topology built from it.
    pub fn client_node(&self) -> ClientNode {
        ClientNode::new(self.client.label(), *self.client, *self.generator, *self.link, self.qps)
    }
}

/// Per-node RNG stream keys: each node's randomness forks off the master
/// seed under this key, so streams depend on node **content** (including
/// the label), never on declaration order. Identical nodes (same label
/// *and* configuration) are disambiguated by replica index so they still
/// behave as independent machines rather than perfectly correlated
/// clones.
pub(crate) fn node_stream_keys(nodes: &[ClientNode]) -> Vec<u64> {
    let mut keys: Vec<u64> = nodes.iter().map(ClientNode::content_key).collect();
    disambiguate_replicas(&mut keys);
    keys
}

/// Remixes repeated content keys in place so the `n`-th replica of a
/// content gets a stable key of its own: identical entries behave as
/// independent machines rather than perfectly correlated clones, while
/// the key of content's first appearance is the content key itself.
fn disambiguate_replicas(keys: &mut [u64]) {
    let mut seen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for key in keys {
        let replica = seen.entry(*key).or_insert(0);
        if *replica > 0 {
            // splitmix-style remix keeps replicas well separated from
            // every other content key.
            let mixed = (*key ^ replica.wrapping_mul(0x9e37_79b9_7f4a_7c15)).rotate_left(23);
            *key = mixed.wrapping_mul(0xbf58_476d_1ce4_e5b9) | 1;
        }
        *replica += 1;
    }
}

/// Per-shard RNG stream keys: each shard's service and server-environment
/// randomness forks off the master seed under this key, so shard streams
/// depend on what the shard *is* (its machine configuration), never on
/// its enumeration index — permuting distinct shards (with their
/// assignments) cannot change any shard's results. Identical shard
/// machines are replica-disambiguated exactly like identical client
/// nodes. The `"shard"` salt keeps these keys out of the node-stream key
/// space even when a client and a shard share a machine configuration.
pub(crate) fn shard_stream_keys(machines: &[MachineConfig]) -> Vec<u64> {
    let mut keys: Vec<u64> = machines.iter().map(|m| crate::engine::fnv64_debug(&("shard", m))).collect();
    disambiguate_replicas(&mut keys);
    keys
}

/// The measurements of one client node over a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeResult {
    /// The node's label, copied from its [`ClientNode`].
    pub label: String,
    /// The node's own measurements: latency distribution of *its*
    /// requests, *its* schedule fidelity, wakes and energy — the same
    /// shape as a single-client run's result.
    pub result: RunResult,
}

/// The measurements of one server shard over a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// Shard index in the [`ShardSpec`]'s declaration order (0 for the
    /// single tier).
    pub shard: usize,
    /// Pooled measurements over the shard's assigned nodes — the same
    /// shape as a fleet aggregate, restricted to this backend. A shard
    /// with no assigned nodes reports an empty result (zero samples).
    pub result: RunResult,
    /// Declaration indices of the client nodes assigned to this shard.
    pub nodes: Vec<usize>,
}

/// The measurements of one cohort over a fleet run: every lowered node
/// of the cohort (tracked replicas plus the pooled remainder) pooled
/// into one distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortResult {
    /// The cohort template's label.
    pub label: String,
    /// Modeled members.
    pub population: u32,
    /// Members simulated as exact per-node replicas.
    pub tracked: u32,
    /// Pooled measurements over the cohort's lowered nodes.
    pub result: RunResult,
}

/// The measurements of one fleet run, every breakdown from one kernel
/// pass ([`crate::runtime::run_fleet`]): the aggregate the experimenter
/// would naively report, plus the per-node, per-shard, per-phase and
/// per-cohort views that reveal which clients, backends or regimes
/// skewed it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Fleet-wide measurements (all nodes' requests pooled, counters
    /// summed) — identical in shape to a single-client [`RunResult`].
    pub aggregate: RunResult,
    /// Per-node breakdowns over the *lowered* fleet, in declaration
    /// order: explicit nodes keep their labels, tracked cohort members
    /// are labelled `label#k` and pooled nodes `label#pooled(n)`.
    pub nodes: Vec<NodeResult>,
    /// Per-shard breakdowns in shard declaration order — one entry
    /// covering the whole fleet for a single-tier topology.
    pub shards: Vec<ShardResult>,
    /// Pooled per-phase statistics over the topology's
    /// [`TopologySpec::merged_schedule`] (one all-covering phase for a
    /// static topology), restricted to phases overlapping the
    /// measurement window.
    pub phases: Vec<PhaseStats>,
    /// Per-cohort rollups in cohort declaration order (empty for a
    /// topology without cohorts).
    pub cohorts: Vec<CohortResult>,
}

impl FleetResult {
    /// The breakdown for the node labelled `label`.
    pub fn node(&self, label: &str) -> Option<&NodeResult> {
        self.nodes.iter().find(|n| n.label == label)
    }

    /// The largest per-node p99 — the straggler client's tail.
    pub fn worst_node_p99(&self) -> SimDuration {
        self.nodes.iter().map(|n| n.result.p99).max().unwrap_or(SimDuration::ZERO)
    }

    /// The smallest per-node p99.
    pub fn best_node_p99(&self) -> SimDuration {
        self.nodes.iter().map(|n| n.result.p99).min().unwrap_or(SimDuration::ZERO)
    }

    /// The largest per-shard p99 — the hottest backend's tail.
    pub fn worst_shard_p99(&self) -> SimDuration {
        self.shards.iter().map(|s| s.result.p99).max().unwrap_or(SimDuration::ZERO)
    }

    /// The smallest per-shard p99 among shards that served requests.
    pub fn best_shard_p99(&self) -> SimDuration {
        self.shards
            .iter()
            .filter(|s| s.result.samples > 0)
            .map(|s| s.result.p99)
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The per-phase stats for schedule phase `phase`, if it overlaps
    /// the measurement window.
    pub fn phase(&self, phase: usize) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// The rollup for the cohort whose template is labelled `label`.
    pub fn cohort(&self, label: &str) -> Option<&CohortResult> {
        self.cohorts.iter().find(|c| c.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpv_net::LinkConfig;

    fn node(label: &str, qps: f64) -> ClientNode {
        ClientNode::new(
            label,
            MachineConfig::high_performance(),
            GeneratorSpec::mutilate(),
            LinkConfig::cloudlab_lan(),
            qps,
        )
    }

    #[test]
    fn content_keys_depend_on_content_not_position() {
        let a = node("a", 1000.0);
        let b = node("b", 1000.0);
        assert_ne!(a.content_key(), b.content_key(), "labels are content");
        assert_eq!(a.content_key(), node("a", 1000.0).content_key());
        assert_eq!(node_stream_keys(&[a.clone(), b.clone()])[0], node_stream_keys(&[b, a])[1]);
    }

    #[test]
    fn replica_keys_are_distinct_but_order_symmetric() {
        let n = node("same", 500.0);
        let keys = node_stream_keys(&[n.clone(), n.clone(), n.clone()]);
        assert_eq!(keys.len(), 3);
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[1], keys[2]);
        assert_ne!(keys[0], keys[2]);
        assert_eq!(keys[0], n.content_key(), "first replica keeps the content key");
    }

    #[test]
    fn uniform_fleet_splits_load_and_connections() {
        let fleet = uniform_fleet(
            "agent",
            MachineConfig::high_performance(),
            GeneratorSpec::mutilate(),
            LinkConfig::cloudlab_lan(),
            100_000.0,
            4,
        );
        assert_eq!(fleet.len(), 4);
        assert_eq!(fleet[0].label, "agent0");
        assert_eq!(fleet[3].label, "agent3");
        assert!(fleet.iter().all(|n| n.qps == 25_000.0));
        assert!(fleet.iter().all(|n| n.generator.connections == 40));
        // Non-divisor split preserves the total connection count and load.
        let uneven = uniform_fleet(
            "u",
            MachineConfig::high_performance(),
            GeneratorSpec::mutilate(),
            LinkConfig::cloudlab_lan(),
            90_000.0,
            3,
        );
        let conns: Vec<u32> = uneven.iter().map(|n| n.generator.connections).collect();
        assert_eq!(conns, vec![54, 53, 53]);
        assert_eq!(conns.iter().sum::<u32>(), 160);
        let qps_total: f64 = uneven.iter().map(|n| n.qps).sum();
        assert!((qps_total - 90_000.0).abs() < 1e-6, "load must be preserved: {qps_total}");
        // Per-connection rate is uniform across nodes.
        let rate0 = uneven[0].qps / uneven[0].generator.connections as f64;
        for n in &uneven {
            assert!((n.qps / n.generator.connections as f64 - rate0).abs() < 1e-9);
        }
        // Degenerate split: more nodes than connections clamps to 1 each.
        let wide = uniform_fleet(
            "w",
            MachineConfig::high_performance(),
            GeneratorSpec::wrk2(),
            LinkConfig::cloudlab_lan(),
            1_000.0,
            32,
        );
        assert!(wide.iter().all(|n| n.generator.connections == 1));
    }

    #[test]
    fn shard_policies_assign_deterministically() {
        let spec = ShardSpec::uniform(MachineConfig::server_baseline(), 4);
        assert_eq!(spec.assign(8), vec![0, 1, 2, 3, 0, 1, 2, 3]);
        let range = spec.clone().with_policy(ShardPolicy::Range);
        assert_eq!(range.assign(8), vec![0, 0, 1, 1, 2, 2, 3, 3]);
        // Hot shard takes ceil(share * N) leading nodes; the rest
        // round-robin over the remaining shards.
        let hot = spec.clone().with_policy(ShardPolicy::HotShard { hot: 1, share: 0.5 });
        assert_eq!(hot.assign(8), vec![1, 1, 1, 1, 0, 2, 3, 0]);
        let explicit = spec.with_policy(ShardPolicy::Explicit(vec![3, 3, 0, 0]));
        assert_eq!(explicit.assign(4), vec![3, 3, 0, 0]);
        // A single hot shard degenerates to "everything on it".
        let solo = ShardSpec::uniform(MachineConfig::server_baseline(), 1)
            .with_policy(ShardPolicy::HotShard { hot: 0, share: 0.25 });
        assert_eq!(solo.assign(3), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "one shard per node")]
    fn explicit_assignment_length_is_checked() {
        ShardSpec::uniform(MachineConfig::server_baseline(), 2)
            .with_policy(ShardPolicy::Explicit(vec![0]))
            .assign(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hot_shard_index_is_checked() {
        ShardSpec::uniform(MachineConfig::server_baseline(), 2)
            .with_policy(ShardPolicy::HotShard { hot: 2, share: 0.5 })
            .assign(4);
    }

    #[test]
    fn shard_keys_are_content_addressed_and_salted() {
        let base = MachineConfig::server_baseline();
        let hp = MachineConfig::high_performance();
        let keys = shard_stream_keys(&[base, hp, base]);
        assert_ne!(keys[0], keys[1], "distinct machines get distinct shard keys");
        assert_ne!(keys[0], keys[2], "replica shards are disambiguated");
        // Enumeration-order symmetry for distinct content.
        let swapped = shard_stream_keys(&[hp, base, base]);
        assert_eq!(keys[1], swapped[0]);
        assert_eq!(keys[0], swapped[1]);
        // The salt keeps shard keys out of the node-key space: a node
        // whose whole content is the machine config alone cannot collide
        // by construction, but the key derivations must stay distinct.
        assert_ne!(keys[0], crate::engine::fnv64_debug(&base));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_fleet_panics() {
        uniform_fleet(
            "x",
            MachineConfig::high_performance(),
            GeneratorSpec::mutilate(),
            LinkConfig::cloudlab_lan(),
            1.0,
            0,
        );
    }

    fn kv() -> ServiceConfig {
        use tpv_services::kv::KvConfig;
        use tpv_services::ServiceKind;
        ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
            preload_keys: 100,
            ..KvConfig::default()
        }))
    }

    fn cohorted<'a>(
        service: &'a ServiceConfig,
        server: &'a MachineConfig,
        nodes: &'a [ClientNode],
        cohorts: &'a [CohortSpec],
    ) -> TopologySpec<'a> {
        TopologySpec {
            shards: None,
            service,
            server,
            nodes,
            duration: SimDuration::from_ms(50),
            warmup: SimDuration::from_ms(5),
            cohorts,
        }
    }

    #[test]
    fn cohort_lowering_orders_scales_and_attributes() {
        let service = kv();
        let server = MachineConfig::server_baseline();
        let explicit = [node("solo", 1_000.0)];
        let cohorts = [CohortSpec::new(node("class", 2_000.0), 5).with_tracked(2)];
        let topo = cohorted(&service, &server, &explicit, &cohorts);
        let layout = topo.layout();
        assert_eq!(layout.len(), 4, "explicit + 2 tracked + 1 pooled");
        assert_eq!(layout.origin(0), NodeOrigin::Explicit(0));
        assert_eq!(layout.origin(1), NodeOrigin::Tracked { cohort: 0, member: 0 });
        assert_eq!(layout.origin(2), NodeOrigin::Tracked { cohort: 0, member: 1 });
        assert_eq!(layout.origin(3), NodeOrigin::Pooled { cohort: 0, members: 3 });
        // Tracked replicas are exact template copies; the pooled node
        // superposes the remaining members' load.
        assert_eq!(layout.nodes()[1], cohorts[0].node);
        assert_eq!(layout.nodes()[3].qps, 6_000.0);
        assert_eq!(layout.display_label(0), "solo");
        assert_eq!(layout.display_label(1), "class#0");
        assert_eq!(layout.display_label(3), "class#pooled(3)");
        assert_eq!(layout.cohort_map(), vec![None, Some(0), Some(0), Some(0)]);
        // The spec-level aggregates see the full modeled population.
        assert_eq!(topo.modeled_clients(), 6);
        assert_eq!(topo.lowered_node_count(), 4);
        assert_eq!(topo.total_qps(), 11_000.0);
        assert!(topo.validate().is_ok());
    }

    #[test]
    fn population_one_cohort_lowers_to_its_template() {
        let service = kv();
        let server = MachineConfig::server_baseline();
        let cohorts = [CohortSpec::new(node("unit", 3_333.25), 1)];
        let topo = cohorted(&service, &server, &[], &cohorts);
        let layout = topo.layout();
        assert_eq!(layout.len(), 1);
        // ×1.0 is bit-exact: the lowered node *is* the template.
        assert_eq!(layout.nodes()[0], cohorts[0].node);
        assert_eq!(layout.nodes()[0].content_key(), cohorts[0].node.content_key());
    }

    #[test]
    fn validate_reports_typed_errors() {
        let service = kv();
        let server = MachineConfig::server_baseline();
        let empty = cohorted(&service, &server, &[], &[]);
        assert_eq!(empty.validate(), Err(TopologyError::EmptyFleet));
        assert!(empty.validate().unwrap_err().to_string().contains("at least one client node"));

        let zero_pop = [CohortSpec::new(node("c", 100.0), 0)];
        let topo = cohorted(&service, &server, &[], &zero_pop);
        assert_eq!(topo.validate(), Err(TopologyError::EmptyCohort { label: "c".into() }));

        let over_tracked = [CohortSpec::new(node("c", 100.0), 2).with_tracked(3)];
        let topo = cohorted(&service, &server, &[], &over_tracked);
        assert!(matches!(topo.validate(), Err(TopologyError::TrackedExceedsPopulation { .. })));

        let closed = [CohortSpec::new(
            ClientNode::new(
                "closed",
                MachineConfig::high_performance(),
                GeneratorSpec::mutilate().closed_loop(SimDuration::from_us(100)),
                LinkConfig::cloudlab_lan(),
                100.0,
            ),
            4,
        )];
        let topo = cohorted(&service, &server, &[], &closed);
        assert!(matches!(topo.validate(), Err(TopologyError::PooledClosedLoop { .. })));
        assert!(topo.validate().unwrap_err().to_string().contains("open-loop"));
        // Tracking every member sidesteps pooling, so closed loops are
        // fine there.
        let all_tracked = [closed[0].clone().with_tracked(4)];
        let topo = cohorted(&service, &server, &[], &all_tracked);
        assert!(topo.validate().is_ok());

        let bad_qps = [node("dead", 0.0)];
        let topo = cohorted(&service, &server, &bad_qps, &[]);
        assert!(matches!(topo.validate(), Err(TopologyError::NonPositiveQps { .. })));
        assert!(topo.validate().unwrap_err().to_string().contains("offered load must be positive"));

        let nodes = [node("n", 100.0)];
        let mut bad_window = cohorted(&service, &server, &nodes, &[]);
        bad_window.warmup = bad_window.duration;
        assert_eq!(
            bad_window.validate(),
            Err(TopologyError::EmptyWindow { warmup: bad_window.warmup, duration: bad_window.duration })
        );
        assert!(bad_window.validate().unwrap_err().to_string().contains("warmup must be shorter"));

        // Multi-shard tiers are plain topologies now — phased or not.
        let shards = ShardSpec::uniform(server, 2);
        let mut multi = cohorted(&service, &server, &nodes, &[]);
        multi.shards = Some(&shards);
        assert!(multi.validate().is_ok());
    }
}
