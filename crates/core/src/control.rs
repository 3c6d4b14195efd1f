//! Closed-loop mitigation: observe windowed tails, decide, act.
//!
//! Everything below `tpv_core` *measures* client-side performance
//! variability; this module is the layer that finally **tames** it. A
//! [`Controller`] replays a (possibly phased, sharded) fleet as a
//! sequence of *control windows*. Each window is a complete, fully
//! deterministic kernel run over the fleet's dynamics
//! [sliced](crate::topology::NodeDynamics::slice) to that window; a
//! [`WindowedObserver`] rides along
//! and hands the per-node / per-shard windowed p99 and achieved rates to
//! a [`MitigationPolicy`] at the boundary. The policy's
//! [`MitigationAction`]s rewrite the working fleet state — hedging
//! plans, shard assignment, machine configuration, admission throttles —
//! and the next window runs under the mitigated configuration, through
//! exactly the phase-boundary rebuild seam
//! [`NodeDynamics`](crate::topology::NodeDynamics) already uses.
//!
//! # Why decisions stay bit-deterministic
//!
//! A policy sees only a [`WindowObservation`]: node rows sorted by
//! label, shard rows sorted by shard index, every statistic produced by
//! canonical-order merges. Actions address nodes by **label**, never by
//! execution order, and each window's seed is a pure function of
//! `(run seed, window index)`. So a controlled run is a pure function of
//! `(spec, policy, seed)` — bit-identical across worker counts and node
//! declaration permutations (pinned by `GOLDEN_CONTROL` in
//! `tests/golden_runtime.rs`), exactly like the uncontrolled kernel.
//!
//! # Example
//!
//! ```
//! use tpv_core::control::{ControlSpec, Controller, DoNothing};
//! use tpv_core::topology::{ClientNode, ShardSpec};
//! use tpv_hw::MachineConfig;
//! use tpv_loadgen::GeneratorSpec;
//! use tpv_net::LinkConfig;
//! use tpv_sim::SimDuration;
//!
//! let service = tpv_core::experiment::Benchmark::memcached().service;
//! let nodes: Vec<ClientNode> = (0..4)
//!     .map(|i| ClientNode::new(
//!         format!("agent{i}"),
//!         MachineConfig::high_performance(),
//!         GeneratorSpec::mutilate(),
//!         LinkConfig::cloudlab_lan(),
//!         20_000.0,
//!     ))
//!     .collect();
//! let spec = ControlSpec {
//!     service,
//!     shards: ShardSpec::uniform(MachineConfig::server_baseline(), 2),
//!     nodes,
//!     window: SimDuration::from_ms(10),
//!     windows: 2,
//!     warmup: SimDuration::from_ms(2),
//! };
//! let result = Controller::new(&spec, &DoNothing).run(7, 1);
//! assert_eq!(result.windows.len(), 2);
//! assert!(result.decisions.is_empty());
//! assert!(result.windows[1].aggregate.samples > 0);
//! ```

use std::collections::BTreeMap;

use tpv_hw::MachineConfig;
use tpv_services::ServiceConfig;
use tpv_sim::{SimDuration, SimRng, SimTime};

use crate::collect::{ShardWindow, WindowedObserver};
use crate::pin::PinPolicy;
use crate::runtime::{run_sharded_collected_hedged_with, RunResult};
use crate::topology::{ClientNode, ShardPolicy, ShardSpec, TopologySpec};

/// How one node hedges: when a primary response overruns `deadline`, an
/// analytic duplicate is issued to a replica on `backend` and the
/// *earlier* of the two responses is the one measured.
///
/// The hedge leg is analytic, not evented: the replica models the
/// backend's service-time distribution (its own content-addressed RNG
/// stream, fork index 7 of the node master — unused by non-hedged runs,
/// so enabling hedging perturbs nothing else), but not the live queue
/// depth of the target shard. That keeps the hedge path allocation-free
/// and event-free — [`crate::collect::EventCountCollector`] counts are
/// identical with and without hedging.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgeSpec {
    /// How long the primary may run before the hedge fires.
    pub deadline: SimDuration,
    /// The machine the hedge replica runs on.
    pub backend: MachineConfig,
}

/// Which nodes hedge, keyed by node label. Entries are kept sorted, so a
/// plan's `Debug` representation — and anything fingerprinted from it —
/// is independent of insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HedgePlan {
    entries: Vec<(String, HedgeSpec)>,
}

impl HedgePlan {
    /// An empty plan: nobody hedges.
    pub fn new() -> Self {
        HedgePlan::default()
    }

    /// True when no node hedges.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of hedging nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Inserts or replaces the hedge spec for `label`.
    pub fn set(&mut self, label: impl Into<String>, spec: HedgeSpec) {
        let label = label.into();
        match self.entries.binary_search_by(|(l, _)| l.as_str().cmp(&label)) {
            Ok(i) => self.entries[i].1 = spec,
            Err(i) => self.entries.insert(i, (label, spec)),
        }
    }

    /// The hedge spec for `label`, if that node hedges.
    pub fn get(&self, label: &str) -> Option<&HedgeSpec> {
        self.entries.binary_search_by(|(l, _)| l.as_str().cmp(label)).ok().map(|i| &self.entries[i].1)
    }
}

/// One node's row of a [`WindowObservation`]: the windowed signal plus
/// the mitigation state already applied to the node, so policies can be
/// idempotent (no re-hedging an already-hedged node).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeObservation {
    /// The node's label — how actions address it.
    pub label: String,
    /// The shard the node was assigned to during this window.
    pub shard: usize,
    /// Requests recorded for this node inside the window.
    pub samples: u64,
    /// The node's windowed p99 ([`SimDuration::ZERO`] when empty).
    pub p99: SimDuration,
    /// Completions per second of window time.
    pub achieved_qps: f64,
    /// The node's offered load during the window.
    pub target_qps: f64,
    /// Hedge legs fired for this node inside the window.
    pub hedges: u64,
    /// The admission throttle currently applied (1.0 = none).
    pub throttle: f64,
    /// Whether a hedge plan is currently active for this node.
    pub hedged: bool,
    /// Whether the node's machine has been remediated.
    pub remediated: bool,
}

/// What a [`MitigationPolicy`] sees at a window boundary: node rows
/// sorted by label, shard rows sorted by shard index — canonical orders,
/// so a policy that walks them in sequence is automatically independent
/// of fleet declaration order and execution schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowObservation {
    /// Index of the window that just completed.
    pub window: usize,
    /// Per-node windowed stats, sorted by label.
    pub nodes: Vec<NodeObservation>,
    /// Per-shard windowed stats, sorted by shard index.
    pub shards: Vec<ShardWindow>,
}

impl WindowObservation {
    /// The loaded shard with the worst windowed p99 (ties: lowest
    /// index); `None` when every shard is empty.
    pub fn hottest_shard(&self) -> Option<&ShardWindow> {
        self.shards.iter().filter(|s| s.samples > 0).max_by_key(|s| (s.p99, std::cmp::Reverse(s.shard)))
    }

    /// The loaded shard with the best windowed p99 (ties: lowest
    /// index); `None` when every shard is empty.
    pub fn coldest_shard(&self) -> Option<&ShardWindow> {
        self.shards.iter().filter(|s| s.samples > 0).min_by_key(|s| (s.p99, s.shard))
    }
}

/// One mitigation a policy wants applied before the next window. Nodes
/// are addressed by label; shard targets by declaration index.
#[derive(Debug, Clone, PartialEq)]
pub enum MitigationAction {
    /// Start hedging `node`'s requests: duplicates go to a replica on
    /// shard `to_shard`'s machine once the primary overruns `deadline`.
    Hedge {
        /// Label of the node to hedge.
        node: String,
        /// Hedge deadline.
        deadline: SimDuration,
        /// Shard whose machine hosts the hedge replica.
        to_shard: usize,
    },
    /// Move `node` onto shard `to_shard` from the next window on.
    Reroute {
        /// Label of the node to move.
        node: String,
        /// Destination shard.
        to_shard: usize,
    },
    /// Swap `node`'s machine configuration — the simulated analogue of a
    /// governor/turbo reconfiguration through
    /// `tpv_hw::CoreResource::reconfigure`, which is what the kernel's
    /// client threads apply at the next window rebuild.
    Remediate {
        /// Label of the node to remediate.
        node: String,
        /// The configuration the node is switched to.
        config: MachineConfig,
    },
    /// Scale `node`'s offered load to `factor` (absolute multiplier over
    /// the declared qps) from the next window on.
    Throttle {
        /// Label of the node to throttle.
        node: String,
        /// New absolute load multiplier, in `(0, 1]`.
        factor: f64,
    },
}

impl MitigationAction {
    /// The label of the node this action addresses.
    pub fn node(&self) -> &str {
        match self {
            MitigationAction::Hedge { node, .. }
            | MitigationAction::Reroute { node, .. }
            | MitigationAction::Remediate { node, .. }
            | MitigationAction::Throttle { node, .. } => node,
        }
    }
}

/// A mitigation strategy: a **pure function** from a canonical-order
/// [`WindowObservation`] to a list of [`MitigationAction`]s. Purity is
/// the determinism contract — a policy must not consult anything outside
/// the observation (no wall clock, no ambient randomness), and two calls
/// on equal observations must return equal action lists.
pub trait MitigationPolicy {
    /// Short stable name for reports and fingerprints.
    fn name(&self) -> &'static str;

    /// The actions to apply before the next window.
    fn decide(&self, obs: &WindowObservation) -> Vec<MitigationAction>;
}

/// The baseline: observes and never acts.
#[derive(Debug, Clone, Copy, Default)]
pub struct DoNothing;

impl MitigationPolicy for DoNothing {
    fn name(&self) -> &'static str {
        "do_nothing"
    }

    fn decide(&self, _obs: &WindowObservation) -> Vec<MitigationAction> {
        Vec::new()
    }
}

/// Hedge slow nodes: any node whose windowed p99 exceeds `threshold`
/// starts duplicating overdue requests to a replica on the *coldest*
/// shard (first response wins). The tail-taming classic — trades
/// duplicate work for tail latency.
#[derive(Debug, Clone)]
pub struct HedgeRequests {
    /// Nodes with a windowed p99 above this start hedging.
    pub threshold: SimDuration,
    /// How long the primary may run before the hedge fires.
    pub deadline: SimDuration,
}

impl MitigationPolicy for HedgeRequests {
    fn name(&self) -> &'static str {
        "hedge_requests"
    }

    fn decide(&self, obs: &WindowObservation) -> Vec<MitigationAction> {
        let Some(cold) = obs.coldest_shard() else { return Vec::new() };
        obs.nodes
            .iter()
            .filter(|n| n.samples > 0 && !n.hedged && n.p99 > self.threshold)
            .map(|n| MitigationAction::Hedge {
                node: n.label.clone(),
                deadline: self.deadline,
                to_shard: cold.shard,
            })
            .collect()
    }
}

/// Rebalance the tier: when the hottest shard's windowed p99 is at least
/// `min_ratio` times the coldest's, move up to `max_moves` of the
/// hottest shard's worst nodes onto the coldest shard.
#[derive(Debug, Clone)]
pub struct RerouteHotShard {
    /// Minimum hot/cold p99 ratio before the policy acts.
    pub min_ratio: f64,
    /// Nodes moved per boundary.
    pub max_moves: usize,
}

impl MitigationPolicy for RerouteHotShard {
    fn name(&self) -> &'static str {
        "reroute_hot_shard"
    }

    fn decide(&self, obs: &WindowObservation) -> Vec<MitigationAction> {
        let (Some(hot), Some(cold)) = (obs.hottest_shard(), obs.coldest_shard()) else {
            return Vec::new();
        };
        if hot.shard == cold.shard || (hot.p99.as_ns() as f64) < self.min_ratio * cold.p99.as_ns() as f64 {
            return Vec::new();
        }
        let (hot, cold) = (hot.shard, cold.shard);
        // Worst offenders first; label breaks ties so the order is
        // canonical whatever the declaration permutation.
        let mut flagged: Vec<&NodeObservation> =
            obs.nodes.iter().filter(|n| n.shard == hot && n.samples > 0).collect();
        flagged.sort_by(|a, b| b.p99.cmp(&a.p99).then_with(|| a.label.cmp(&b.label)));
        flagged
            .into_iter()
            .take(self.max_moves)
            .map(|n| MitigationAction::Reroute { node: n.label.clone(), to_shard: cold })
            .collect()
    }
}

/// Fix the client itself: any node whose windowed p99 exceeds
/// `threshold` gets its machine swapped to `config` — the governor /
/// C-state remediation the paper's recommendations amount to, applied
/// closed-loop instead of by fiat.
#[derive(Debug, Clone)]
pub struct RemediateNode {
    /// Nodes with a windowed p99 above this are remediated.
    pub threshold: SimDuration,
    /// The configuration slow nodes are switched to.
    pub config: MachineConfig,
}

impl MitigationPolicy for RemediateNode {
    fn name(&self) -> &'static str {
        "remediate_node"
    }

    fn decide(&self, obs: &WindowObservation) -> Vec<MitigationAction> {
        obs.nodes
            .iter()
            .filter(|n| n.samples > 0 && !n.remediated && n.p99 > self.threshold)
            .map(|n| MitigationAction::Remediate { node: n.label.clone(), config: self.config })
            .collect()
    }
}

/// Shed load: any node whose windowed p99 exceeds `threshold` has its
/// offered rate scaled by `factor` (compounding per boundary, never
/// below `floor`). Trades throughput for tail latency.
#[derive(Debug, Clone)]
pub struct AdmissionThrottle {
    /// Nodes with a windowed p99 above this are throttled further.
    pub threshold: SimDuration,
    /// Multiplier applied to the current throttle at each decision.
    pub factor: f64,
    /// The throttle never drops below this.
    pub floor: f64,
}

impl MitigationPolicy for AdmissionThrottle {
    fn name(&self) -> &'static str {
        "admission_throttle"
    }

    fn decide(&self, obs: &WindowObservation) -> Vec<MitigationAction> {
        obs.nodes
            .iter()
            .filter(|n| n.samples > 0 && n.p99 > self.threshold && n.throttle * self.factor >= self.floor)
            .map(|n| MitigationAction::Throttle { node: n.label.clone(), factor: n.throttle * self.factor })
            .collect()
    }
}

/// Everything a controlled run needs: the fleet, the tier, and the
/// window geometry. The run covers `windows × window` of simulated time;
/// node dynamics (diurnal rates, decay plans) are declared over that
/// whole span and sliced per window.
#[derive(Debug, Clone)]
pub struct ControlSpec {
    /// The service under test.
    pub service: ServiceConfig,
    /// The server tier and the *initial* node→shard assignment.
    pub shards: ShardSpec,
    /// The client fleet. Labels must be unique — they are how policies
    /// address nodes.
    pub nodes: Vec<ClientNode>,
    /// Length of one control window.
    pub window: SimDuration,
    /// Number of windows (boundaries between them are the decision
    /// points: `windows - 1` decisions).
    pub windows: usize,
    /// Warmup discarded at the start of the **first** window only;
    /// later windows inherit a warmed topology epoch.
    pub warmup: SimDuration,
}

impl ControlSpec {
    /// Checks the spec; the controller calls this once per run.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet, duplicate labels, a zero window, zero
    /// windows, `warmup >= window`, or a shard spec that rejects the
    /// fleet.
    pub fn validate(&self) {
        assert!(!self.nodes.is_empty(), "a controlled run needs at least one node");
        assert!(self.windows > 0, "a controlled run needs at least one window");
        assert!(!self.window.is_zero(), "control windows must be positive");
        assert!(self.warmup < self.window, "warmup must be shorter than one window");
        if let Err(e) = self.shards.validate(self.nodes.len()) {
            panic!("{e}");
        }
        let mut labels: Vec<&str> = self.nodes.iter().map(|n| n.label.as_str()).collect();
        labels.sort_unstable();
        labels.windows(2).for_each(|pair| {
            assert_ne!(pair[0], pair[1], "duplicate node label {:?} — labels address actions", pair[0]);
        });
    }

    /// Total simulated time a controlled run covers.
    pub fn horizon(&self) -> SimDuration {
        self.window * self.windows as u64
    }
}

/// One decision the policy made, for the audit log.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// The window whose boundary produced this decision.
    pub window: usize,
    /// The action applied.
    pub action: MitigationAction,
}

/// What one control window measured.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Window index.
    pub window: usize,
    /// First instant of the window (global timeline).
    pub start: SimTime,
    /// First instant after the window (global timeline).
    pub end: SimTime,
    /// The window's pooled fleet result.
    pub aggregate: RunResult,
    /// The window's per-node rows (exactly what the policy saw), sorted
    /// by label.
    pub nodes: Vec<NodeObservation>,
    /// The window's per-shard tails, sorted by shard index.
    pub shards: Vec<ShardWindow>,
    /// Hedge legs fired during the window.
    pub hedges: u64,
}

/// The full outcome of a controlled run: per-window reports plus the
/// decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlResult {
    /// The policy that ran.
    pub policy: String,
    /// One report per window, in order.
    pub windows: Vec<WindowReport>,
    /// Every decision, in the order applied.
    pub decisions: Vec<DecisionRecord>,
}

impl ControlResult {
    /// The fleet p99 spread — worst node p99 over best node p99 within a
    /// window, maximized across windows `skip..` — the paper's
    /// client-side variability metric under mitigation: how far apart
    /// identical work still lands depending on which client issued it.
    /// Returns `0.0` when undefined (no window with two loaded nodes, or
    /// a best p99 of zero).
    pub fn fleet_p99_spread(&self, skip: usize) -> f64 {
        self.windows
            .iter()
            .skip(skip)
            .filter_map(|w| {
                let p99s: Vec<f64> =
                    w.nodes.iter().filter(|n| n.samples > 0).map(|n| n.p99.as_us()).collect();
                let worst = p99s.iter().cloned().fold(f64::MIN, f64::max);
                let best = p99s.iter().cloned().fold(f64::MAX, f64::min);
                (p99s.len() >= 2 && best > 0.0).then_some(worst / best)
            })
            .fold(0.0, f64::max)
    }

    /// The worst window p99 across windows `skip..`.
    pub fn worst_window_p99(&self, skip: usize) -> SimDuration {
        self.windows.iter().skip(skip).map(|w| w.aggregate.p99).max().unwrap_or(SimDuration::ZERO)
    }

    /// Mean achieved fleet rate across windows `skip..` — the throughput
    /// cost of load-shedding policies.
    pub fn mean_achieved_qps(&self, skip: usize) -> f64 {
        let rates: Vec<f64> = self.windows.iter().skip(skip).map(|w| w.aggregate.achieved_qps).collect();
        if rates.is_empty() {
            0.0
        } else {
            rates.iter().sum::<f64>() / rates.len() as f64
        }
    }

    /// Total hedge legs fired over the run.
    pub fn total_hedges(&self) -> u64 {
        self.windows.iter().map(|w| w.hedges).sum()
    }
}

/// The working (mitigated) state of one node between windows.
#[derive(Debug, Clone)]
struct Working {
    shard: usize,
    throttle: f64,
    hedge: Option<(SimDuration, usize)>,
    remediate: Option<MachineConfig>,
}

/// The closed loop: runs a [`ControlSpec`] window by window under a
/// [`MitigationPolicy`]. See the [module docs](crate::control) for the
/// determinism argument.
pub struct Controller<'a> {
    spec: &'a ControlSpec,
    policy: &'a dyn MitigationPolicy,
}

impl<'a> Controller<'a> {
    /// A controller over `spec` driven by `policy`.
    pub fn new(spec: &'a ControlSpec, policy: &'a dyn MitigationPolicy) -> Self {
        Controller { spec, policy }
    }

    /// Executes the controlled run. `workers` parallelizes *within* each
    /// window (shards run concurrently, exactly like
    /// [`crate::runtime::run_fleet`]); windows themselves are
    /// inherently sequential — each one's configuration depends on the
    /// previous one's observation.
    ///
    /// Bit-identical whatever `workers` or the fleet declaration order
    /// (for a consistently permuted initial assignment).
    ///
    /// # Panics
    ///
    /// Panics if [`ControlSpec::validate`] rejects the spec, if a window
    /// topology is invalid, or if the policy addresses an unknown node
    /// or an out-of-range shard.
    pub fn run(&self, seed: u64, workers: usize) -> ControlResult {
        let spec = self.spec;
        spec.validate();
        let index: BTreeMap<&str, usize> =
            spec.nodes.iter().enumerate().map(|(i, n)| (n.label.as_str(), i)).collect();
        let mut working: Vec<Working> = spec
            .shards
            .assign(spec.nodes.len())
            .into_iter()
            .map(|shard| Working { shard, throttle: 1.0, hedge: None, remediate: None })
            .collect();
        let mut windows = Vec::with_capacity(spec.windows);
        let mut decisions = Vec::new();
        for w in 0..spec.windows {
            let t0 = SimTime::ZERO + spec.window * w as u64;
            let t1 = SimTime::ZERO + spec.window * (w as u64 + 1);
            // The window's effective fleet: dynamics sliced to the
            // window, mitigations applied. An untouched static node is
            // cloned verbatim (`qps * 1.0` is exact), so its windowed
            // behaviour is a pure function of what it is.
            let eff: Vec<ClientNode> = spec
                .nodes
                .iter()
                .zip(&working)
                .map(|(node, wk)| {
                    let mut n = node.clone();
                    if let Some(dy) = n.dynamics.take() {
                        n.dynamics = Some(dy.slice(t0, t1));
                    }
                    if let Some(cfg) = wk.remediate {
                        // Remediation pins the machine: it overrides both
                        // the static config and any scheduled decay plan.
                        n.machine = cfg;
                        if let Some(dy) = n.dynamics.as_mut() {
                            dy.machine = None;
                        }
                    }
                    n.qps *= wk.throttle;
                    n
                })
                .collect();
            let tier = ShardSpec {
                machines: spec.shards.machines.clone(),
                policy: ShardPolicy::Explicit(working.iter().map(|wk| wk.shard).collect()),
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
            for (node, wk) in spec.nodes.iter().zip(&working) {
                if let Some((deadline, shard)) = wk.hedge {
                    plan.set(
                        node.label.clone(),
                        HedgeSpec { deadline, backend: spec.shards.machines[shard] },
                    );
                }
            }
            let hedge = if plan.is_empty() { None } else { Some(&plan) };
            // Window seeds are content-addressed off the run seed: pure
            // in (seed, w), independent of everything the policy did.
            let window_seed = SimRng::seed_from_u64(seed)
                .fork(crate::engine::fnv64_debug(&("control-window", w)))
                .next_u64();
            let n = eff.len();
            let (aggregate, _, observer) = run_sharded_collected_hedged_with(
                &topo,
                window_seed,
                workers,
                PinPolicy::Off,
                hedge,
                |shard, key| WindowedObserver::for_partition(n, key, shard),
            );
            let measured = spec.window - topo.warmup;
            let (node_windows, shard_windows) = observer.into_windows(measured);
            let mut nodes_obs: Vec<NodeObservation> = node_windows
                .into_iter()
                .map(|nw| NodeObservation {
                    label: spec.nodes[nw.node].label.clone(),
                    shard: working[nw.node].shard,
                    samples: nw.samples,
                    p99: nw.p99,
                    achieved_qps: nw.achieved_qps,
                    target_qps: nw.target_qps,
                    hedges: nw.hedges,
                    throttle: working[nw.node].throttle,
                    hedged: working[nw.node].hedge.is_some(),
                    remediated: working[nw.node].remediate.is_some(),
                })
                .collect();
            nodes_obs.sort_by(|a, b| a.label.cmp(&b.label));
            let obs = WindowObservation { window: w, nodes: nodes_obs, shards: shard_windows };
            windows.push(WindowReport {
                window: w,
                start: t0,
                end: t1,
                aggregate,
                nodes: obs.nodes.clone(),
                shards: obs.shards.clone(),
                hedges: obs.nodes.iter().map(|n| n.hedges).sum(),
            });
            // The last window has no successor to mitigate.
            if w + 1 < spec.windows {
                for action in self.policy.decide(&obs) {
                    apply(&mut working, &index, &action, spec.shards.count());
                    decisions.push(DecisionRecord { window: w, action });
                }
            }
        }
        ControlResult { policy: self.policy.name().to_string(), windows, decisions }
    }
}

/// Applies one action to the working fleet state.
fn apply(working: &mut [Working], index: &BTreeMap<&str, usize>, action: &MitigationAction, shards: usize) {
    let i = *index
        .get(action.node())
        .unwrap_or_else(|| panic!("policy addressed unknown node {:?}", action.node()));
    match action {
        MitigationAction::Hedge { deadline, to_shard, .. } => {
            assert!(*to_shard < shards, "hedge target shard {to_shard} out of range (K = {shards})");
            working[i].hedge = Some((*deadline, *to_shard));
        }
        MitigationAction::Reroute { to_shard, .. } => {
            assert!(*to_shard < shards, "reroute target shard {to_shard} out of range (K = {shards})");
            working[i].shard = *to_shard;
        }
        MitigationAction::Remediate { config, .. } => {
            working[i].remediate = Some(*config);
        }
        MitigationAction::Throttle { factor, .. } => {
            assert!(
                factor.is_finite() && *factor > 0.0 && *factor <= 1.0,
                "throttle factor must be in (0, 1], got {factor}"
            );
            working[i].throttle = *factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_win(shard: usize, samples: u64, p99_us: u64) -> ShardWindow {
        ShardWindow { shard, samples, p99: SimDuration::from_us(p99_us), achieved_qps: samples as f64 / 0.01 }
    }

    fn node_obs(label: &str, shard: usize, p99_us: u64) -> NodeObservation {
        NodeObservation {
            label: label.to_string(),
            shard,
            samples: 100,
            p99: SimDuration::from_us(p99_us),
            achieved_qps: 10_000.0,
            target_qps: 10_000.0,
            hedges: 0,
            throttle: 1.0,
            hedged: false,
            remediated: false,
        }
    }

    #[test]
    fn policies_no_op_when_thresholds_unmet() {
        // Every node comfortably under threshold, shards balanced: no
        // policy has anything to do.
        let obs = WindowObservation {
            window: 0,
            nodes: vec![node_obs("a0", 0, 80), node_obs("a1", 1, 85)],
            shards: vec![shard_win(0, 100, 80), shard_win(1, 100, 85)],
        };
        let threshold = SimDuration::from_us(150);
        assert!(HedgeRequests { threshold, deadline: SimDuration::from_us(100) }.decide(&obs).is_empty());
        assert!(RerouteHotShard { min_ratio: 1.5, max_moves: 2 }.decide(&obs).is_empty());
        assert!(RemediateNode { threshold, config: MachineConfig::high_performance() }
            .decide(&obs)
            .is_empty());
        assert!(AdmissionThrottle { threshold, factor: 0.7, floor: 0.3 }.decide(&obs).is_empty());
        assert!(DoNothing.decide(&obs).is_empty());
    }

    #[test]
    fn policies_no_op_on_an_empty_window() {
        // First-boundary edge case: the fleet recorded nothing yet. Zero
        // samples must read as "no signal", not "fast" or a panic.
        let mut nodes = vec![node_obs("a0", 0, 0)];
        nodes[0].samples = 0;
        nodes[0].p99 = SimDuration::ZERO;
        let obs =
            WindowObservation { window: 0, nodes, shards: vec![shard_win(0, 0, 0), shard_win(1, 0, 0)] };
        let threshold = SimDuration::ZERO;
        assert!(HedgeRequests { threshold, deadline: SimDuration::from_us(50) }.decide(&obs).is_empty());
        assert!(RerouteHotShard { min_ratio: 1.0, max_moves: 4 }.decide(&obs).is_empty());
        assert!(RemediateNode { threshold, config: MachineConfig::high_performance() }
            .decide(&obs)
            .is_empty());
        assert!(AdmissionThrottle { threshold, factor: 0.5, floor: 0.1 }.decide(&obs).is_empty());
    }

    #[test]
    fn hedge_targets_the_coldest_shard_and_skips_hedged_nodes() {
        let mut nodes = vec![node_obs("slow0", 0, 400), node_obs("slow1", 0, 300), node_obs("ok", 1, 70)];
        nodes[1].hedged = true;
        let obs = WindowObservation {
            window: 2,
            nodes,
            shards: vec![shard_win(0, 200, 400), shard_win(1, 100, 70)],
        };
        let actions =
            HedgeRequests { threshold: SimDuration::from_us(150), deadline: SimDuration::from_us(120) }
                .decide(&obs);
        assert_eq!(
            actions,
            vec![MitigationAction::Hedge {
                node: "slow0".to_string(),
                deadline: SimDuration::from_us(120),
                to_shard: 1,
            }]
        );
    }

    #[test]
    fn reroute_moves_worst_nodes_hot_to_cold() {
        let obs = WindowObservation {
            window: 1,
            nodes: vec![
                node_obs("a", 0, 500),
                node_obs("b", 0, 300),
                node_obs("c", 0, 400),
                node_obs("d", 1, 60),
            ],
            shards: vec![shard_win(0, 300, 500), shard_win(1, 100, 60)],
        };
        let actions = RerouteHotShard { min_ratio: 2.0, max_moves: 2 }.decide(&obs);
        assert_eq!(
            actions,
            vec![
                MitigationAction::Reroute { node: "a".to_string(), to_shard: 1 },
                MitigationAction::Reroute { node: "c".to_string(), to_shard: 1 },
            ]
        );
    }

    #[test]
    fn throttle_compounds_down_to_the_floor() {
        let mut obs = WindowObservation {
            window: 0,
            nodes: vec![node_obs("a", 0, 400)],
            shards: vec![shard_win(0, 100, 400)],
        };
        let policy = AdmissionThrottle { threshold: SimDuration::from_us(150), factor: 0.5, floor: 0.3 };
        let first = policy.decide(&obs);
        assert_eq!(first, vec![MitigationAction::Throttle { node: "a".to_string(), factor: 0.5 }]);
        // One more halving would cross the floor: the policy stops.
        obs.nodes[0].throttle = 0.5;
        assert!(policy.decide(&obs).is_empty());
    }

    #[test]
    fn hedge_plan_lookup_is_insertion_order_independent() {
        let spec = |us: u64| HedgeSpec {
            deadline: SimDuration::from_us(us),
            backend: MachineConfig::server_baseline(),
        };
        let mut a = HedgePlan::new();
        a.set("x", spec(10));
        a.set("b", spec(20));
        let mut b = HedgePlan::new();
        b.set("b", spec(20));
        b.set("x", spec(10));
        assert_eq!(a, b);
        assert_eq!(a.get("b"), Some(&spec(20)));
        assert_eq!(a.get("missing"), None);
        a.set("b", spec(30));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("b"), Some(&spec(30)));
    }
}
