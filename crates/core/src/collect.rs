//! Pluggable metric collection for the topology kernel.
//!
//! The kernel always produces the aggregate [`RunResult`]; a
//! [`Collector`] hooks into the hot loop to accumulate anything beyond
//! it — per-node latency histograms ([`PerNodeCollector`]), bounded
//! fidelity traces ([`TraceCollector`]), or nothing at all
//! ([`NullCollector`], the zero-cost default `run_once` compiles
//! against). The kernel is generic over the collector, so the null case
//! monomorphizes to empty inlined hooks.
//!
//! Every [`RunResult`] the kernel reports — the aggregate, each shard's,
//! each node's and each cohort's — is built by one crate-private `Pool`:
//! a latency histogram, summed wake/send/truncation counters, and each
//! member node's energy and offered load kept whole. The histogram and
//! the counters are integers, and the per-node floats are summed in
//! sorted order when the result is built, so pools merge in any order
//! to the same bits.
//!
//! # Example
//!
//! A [`PerNodeCollector`] splits the aggregate into per-node latency
//! distributions without touching the kernel:
//!
//! ```
//! use tpv_core::collect::PerNodeCollector;
//! use tpv_core::runtime::run_collected;
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
//!     ClientNode::new("hp", MachineConfig::high_performance(), gen, LinkConfig::cloudlab_lan(), 15_000.0),
//!     ClientNode::new("lp", MachineConfig::low_power(), gen, LinkConfig::cloudlab_lan(), 15_000.0),
//! ];
//! let topo = TopologySpec {
//!     service: &service,
//!     server: &server,
//!     nodes: &nodes,
//!     duration: SimDuration::from_ms(15),
//!     warmup: SimDuration::from_ms(3),
//!     shards: None,
//!     cohorts: &[],
//! };
//! let mut per_node = PerNodeCollector::new(nodes.len());
//! let aggregate = run_collected(&topo, 11, &mut per_node);
//! let results = per_node.into_results();
//! assert_eq!(results.len(), 2);
//! assert_eq!(aggregate.samples, results.iter().map(|r| r.samples).sum::<u64>());
//! ```

use tpv_sim::{LatencyHistogram, PhaseSchedule, SimDuration, SimTime};

use crate::runtime::{RunResult, RunTrace};

/// Per-node end-of-run statistics handed to [`Collector::on_node_done`].
#[derive(Debug, Clone, Copy)]
pub struct NodeStats {
    /// The node's generator-thread wake-ups per C-state `[C0, C1, C1E, C6]`.
    pub wakes: [u64; 4],
    /// The node's generator-thread energy over the run (core-seconds of
    /// C0-equivalent power).
    pub energy_core_secs: f64,
    /// The node's raw send-schedule counters.
    pub sends: tpv_loadgen::SendStats,
    /// This node's in-window requests cut off by the drain horizon.
    pub truncated_inflight: u64,
    /// The node's offered load.
    pub target_qps: f64,
    /// Length of the measurement window (duration − warmup).
    pub measured: SimDuration,
}

/// Hot-loop observation points of the topology kernel.
///
/// All hooks default to no-ops; implement only what the collection needs.
/// Node indices refer to declaration order in the
/// [`TopologySpec`](crate::topology::TopologySpec).
pub trait Collector {
    /// One simulation event was popped and is about to dispatch at `now`.
    /// This is the kernel's highest-frequency hook — implementations
    /// must stay O(1) and allocation-free; the default no-op compiles to
    /// nothing in the monomorphized kernel.
    #[inline]
    fn on_event(&mut self, now: SimTime) {
        let _ = now;
    }

    /// A request left `node` on node-local connection `conn`: `due` is
    /// the scheduled send instant, `wire` the actual wire departure.
    fn on_send(&mut self, node: usize, conn: u32, due: SimTime, wire: SimTime) {
        let _ = (node, conn, due, wire);
    }

    /// An in-window request from `node`, stamped at `stamp`, completed
    /// with end-to-end latency `measured` (called exactly when the
    /// aggregate histogram records). The stamp attributes the sample to
    /// a point of the run — e.g. its phase, for [`PhaseCollector`].
    fn on_latency(&mut self, node: usize, stamp: SimTime, measured: SimDuration) {
        let _ = (node, stamp, measured);
    }

    /// End-of-run statistics for `node`.
    fn on_node_done(&mut self, node: usize, stats: &NodeStats) {
        let _ = (node, stats);
    }

    /// A hedge leg fired for an in-window request from `node`: its
    /// primary response overran the hedge deadline and the analytic
    /// duplicate on the hedge backend was consulted (see
    /// [`crate::control::HedgeSpec`]). Called at most once per recorded
    /// sample — a hedge never dispatches extra kernel events, so
    /// [`EventCountCollector`] is unaffected by hedging.
    fn on_hedge(&mut self, node: usize) {
        let _ = node;
    }
}

/// A collector whose per-shard instances can be folded back into one —
/// what lets the sharded kernel
/// ([`crate::runtime::run_sharded_collected_hedged_with`]) give every
/// concurrent shard its own collector and still hand the caller a single
/// merged collection. Shards observe disjoint node sets, so merging by
/// node index is order-insensitive outright, and histograms merge
/// exactly in any order.
pub trait MergeCollector: Collector {
    /// Folds `other`, another partition of the same run, into `self`.
    fn merge(&mut self, other: Self);
}

/// Collects nothing; what [`crate::runtime::run_once`] runs with.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCollector;

impl Collector for NullCollector {}

impl MergeCollector for NullCollector {
    fn merge(&mut self, _other: Self) {}
}

/// Counts dispatched simulation events — the denominator of the perf
/// harness's events/sec metric (`perf_probe` in `tpv-bench`). The count
/// is deterministic: the same `(topology, seed)` dispatches the same
/// event sequence whatever the wall-clock speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventCountCollector {
    events: u64,
}

impl EventCountCollector {
    /// A fresh counter.
    pub fn new() -> Self {
        EventCountCollector::default()
    }

    /// Events dispatched so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Collector for EventCountCollector {
    #[inline]
    fn on_event(&mut self, _now: SimTime) {
        self.events += 1;
    }
}

impl MergeCollector for EventCountCollector {
    fn merge(&mut self, other: Self) {
        self.events += other.events;
    }
}

/// The pooled measurements of a set of client nodes, and the one place a
/// [`RunResult`] is assembled: the kernel's per-partition pool and
/// whole-run aggregate, [`PerNodeCollector`]'s per-node results and
/// [`PerCohortCollector`]'s rollups are all pools.
///
/// Integer counters add exactly. Each node's energy and offered load
/// are kept whole and summed in sorted order by [`Pool::result`], so
/// those floats are a function of the pool's node multiset; the
/// histogram merges exactly, so a merged pool's result is the same in
/// any merge order.
#[derive(Debug, Default)]
pub(crate) struct Pool {
    hist: LatencyHistogram,
    wakes: [u64; 4],
    sends: tpv_loadgen::SendStats,
    truncated: u64,
    energies: Vec<f64>,
    targets: Vec<f64>,
}

impl Pool {
    /// Records one in-window latency.
    #[inline]
    pub(crate) fn record(&mut self, latency: SimDuration) {
        self.hist.record(latency);
    }

    /// Adds one finished node's end-of-run counters.
    pub(crate) fn add_node(&mut self, stats: &NodeStats) {
        self.add_counts(stats.wakes, stats.sends, stats.truncated_inflight);
        self.energies.push(stats.energy_core_secs);
        self.targets.push(stats.target_qps);
    }

    /// Folds `other` in.
    pub(crate) fn merge(&mut self, other: &Pool) {
        self.hist.merge(&other.hist);
        self.add_counts(other.wakes, other.sends, other.truncated);
        self.energies.extend_from_slice(&other.energies);
        self.targets.extend_from_slice(&other.targets);
    }

    fn add_counts(&mut self, wakes: [u64; 4], sends: tpv_loadgen::SendStats, truncated: u64) {
        for (acc, w) in self.wakes.iter_mut().zip(wakes) {
            *acc += w;
        }
        self.sends.late_sends += sends.late_sends;
        self.sends.total_sends += sends.total_sends;
        self.sends.total_slip += sends.total_slip;
        self.truncated += truncated;
    }

    /// The pooled [`RunResult`] over a measurement window of length
    /// `measured`.
    pub(crate) fn result(&self, measured: SimDuration) -> RunResult {
        let (hist, sends, sent) = (&self.hist, self.sends, self.sends.total_sends);
        RunResult {
            avg: hist.mean(),
            p50: hist.median(),
            p99: hist.percentile(99.0),
            max: hist.max(),
            std_dev: hist.std_dev(),
            samples: hist.count(),
            achieved_qps: hist.count() as f64 / measured.as_secs(),
            target_qps: stable_sum(&self.targets),
            late_send_fraction: if sent == 0 { 0.0 } else { sends.late_sends as f64 / sent as f64 },
            mean_send_slip: if sent == 0 { SimDuration::ZERO } else { sends.total_slip / sent },
            client_wakes: self.wakes,
            client_energy_core_secs: stable_sum(&self.energies),
            truncated_inflight: self.truncated,
        }
    }
}

/// Order-independent f64 accumulation: float addition is not
/// associative, so summing per-node values in declaration order would
/// leak the fleet's declaration order into pooled results. Summing in
/// sorted order makes the total a function of the value *multiset*. A
/// single value other than `-0.0` sums to itself bit-exactly, and no
/// value to `0.0`.
fn stable_sum(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.iter().fold(0.0, |acc, v| acc + v)
}

/// Accumulates one `Pool` per client node and turns each into a
/// per-node [`RunResult`] when the node finishes.
#[derive(Debug)]
pub struct PerNodeCollector {
    pools: Vec<Pool>,
    results: Vec<Option<RunResult>>,
}

impl PerNodeCollector {
    /// A collector for a topology of `nodes` client nodes.
    pub fn new(nodes: usize) -> Self {
        PerNodeCollector { pools: (0..nodes).map(|_| Pool::default()).collect(), results: vec![None; nodes] }
    }

    /// The per-node results, in node declaration order.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has not run to completion with this collector.
    pub fn into_results(self) -> Vec<RunResult> {
        self.results.into_iter().map(|r| r.expect("kernel did not finish this node")).collect()
    }
}

impl MergeCollector for PerNodeCollector {
    /// Takes `other`'s finished nodes. Shards partition the fleet, so at
    /// most one shard's collector carries any given node.
    fn merge(&mut self, other: Self) {
        assert_eq!(self.results.len(), other.results.len(), "collectors cover different fleets");
        for (i, result) in other.results.into_iter().enumerate() {
            if result.is_some() {
                assert!(self.results[i].is_none(), "node {i} finished on two shards");
                self.results[i] = result;
            }
        }
    }
}

impl Collector for PerNodeCollector {
    fn on_latency(&mut self, node: usize, _stamp: SimTime, measured: SimDuration) {
        self.pools[node].record(measured);
    }

    fn on_node_done(&mut self, node: usize, stats: &NodeStats) {
        let mut pool = std::mem::take(&mut self.pools[node]);
        pool.add_node(stats);
        self.results[node] = Some(pool.result(stats.measured));
    }
}

/// Accumulates one `Pool` per *cohort* of a cohort-compressed fleet —
/// the collection behind [`crate::runtime::run_fleet`]'s cohort rollups.
///
/// Node indices are mapped to cohorts through the lowered fleet's
/// cohort map (see
/// [`TopologySpec::layout`](crate::topology::TopologySpec)); explicit
/// nodes map to no cohort and are simply skipped, so the collector's
/// footprint is `O(cohorts)`, flat in the modeled population. A cohort
/// whose members span shards merges their pools, which is order-free,
/// so its rollup is bit-identical serial vs sharded-parallel.
#[derive(Debug)]
pub struct PerCohortCollector {
    cohort_of: Vec<Option<usize>>,
    pools: Vec<Pool>,
}

impl PerCohortCollector {
    /// A collector for a lowered fleet whose node `i` belongs to cohort
    /// `cohort_of[i]` (`None` for explicit, non-cohort nodes), with
    /// `cohorts` cohorts in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if any mapped cohort index is out of range.
    pub fn new(cohort_of: Vec<Option<usize>>, cohorts: usize) -> Self {
        assert!(cohort_of.iter().flatten().all(|&c| c < cohorts), "cohort map points past the cohort list");
        PerCohortCollector { cohort_of, pools: (0..cohorts).map(|_| Pool::default()).collect() }
    }

    /// One pooled [`RunResult`] per cohort, in cohort declaration order,
    /// over the measurement window `measured`.
    pub fn into_results(self, measured: SimDuration) -> Vec<RunResult> {
        self.pools.iter().map(|pool| pool.result(measured)).collect()
    }
}

impl Collector for PerCohortCollector {
    fn on_latency(&mut self, node: usize, _stamp: SimTime, measured: SimDuration) {
        if let Some(c) = self.cohort_of[node] {
            self.pools[c].record(measured);
        }
    }

    fn on_node_done(&mut self, node: usize, stats: &NodeStats) {
        if let Some(c) = self.cohort_of[node] {
            self.pools[c].add_node(stats);
        }
    }
}

impl MergeCollector for PerCohortCollector {
    /// Folds the next shard's cohort pools into `self`. Shards
    /// partition the fleet but a cohort's members can span shards, so —
    /// unlike [`PerNodeCollector`] — merging accumulates rather than
    /// moves.
    fn merge(&mut self, other: Self) {
        assert_eq!(self.cohort_of, other.cohort_of, "collectors cover different fleets");
        for (mine, theirs) in self.pools.iter_mut().zip(&other.pools) {
            mine.merge(theirs);
        }
    }
}

/// Collects a bounded [`RunTrace`] for workload-fidelity diagnostics
/// (what [`crate::runtime::run_traced`] runs with).
#[derive(Debug)]
pub struct TraceCollector {
    trace: RunTrace,
    max_trace: usize,
    window_start: SimTime,
}

impl TraceCollector {
    /// A collector recording up to `max_trace` sends and latencies from
    /// the window starting at `window_start`.
    ///
    /// Pre-allocation is capped by `expected_sends` — an estimate from
    /// `qps × duration` — as well as by `max_trace` and a 1 Mi hard
    /// ceiling, so a short run with a huge `max_trace` does not reserve
    /// a million slots up front.
    pub fn new(
        max_trace: usize,
        window_start: SimTime,
        scheduled_gap: SimDuration,
        expected_sends: usize,
    ) -> Self {
        let cap = max_trace.min(expected_sends).min(1 << 20);
        TraceCollector {
            trace: RunTrace {
                wire_departures: Vec::with_capacity(cap),
                latencies_us: Vec::with_capacity(cap),
                scheduled_gap_us: scheduled_gap.as_us(),
            },
            max_trace,
            window_start,
        }
    }

    /// The collected trace.
    pub fn into_trace(self) -> RunTrace {
        self.trace
    }
}

impl Collector for TraceCollector {
    fn on_send(&mut self, _node: usize, conn: u32, due: SimTime, wire: SimTime) {
        if self.trace.wire_departures.len() < self.max_trace && due >= self.window_start {
            self.trace.wire_departures.push((conn, wire));
        }
    }

    fn on_latency(&mut self, _node: usize, _stamp: SimTime, measured: SimDuration) {
        if self.trace.latencies_us.len() < self.max_trace {
            self.trace.latencies_us.push(measured.as_us());
        }
    }
}

/// Forwards every hook to both collectors — composition for runs that
/// need independent collections in one pass. Pairs nest for more than
/// two: [`crate::runtime::run_fleet`] collects per node, per phase and
/// per cohort as `(nodes, (phases, cohorts))`.
impl<A: Collector, B: Collector> Collector for (A, B) {
    #[inline]
    fn on_event(&mut self, now: SimTime) {
        self.0.on_event(now);
        self.1.on_event(now);
    }

    fn on_send(&mut self, node: usize, conn: u32, due: SimTime, wire: SimTime) {
        self.0.on_send(node, conn, due, wire);
        self.1.on_send(node, conn, due, wire);
    }

    fn on_latency(&mut self, node: usize, stamp: SimTime, measured: SimDuration) {
        self.0.on_latency(node, stamp, measured);
        self.1.on_latency(node, stamp, measured);
    }

    fn on_node_done(&mut self, node: usize, stats: &NodeStats) {
        self.0.on_node_done(node, stats);
        self.1.on_node_done(node, stats);
    }

    fn on_hedge(&mut self, node: usize) {
        self.0.on_hedge(node);
        self.1.on_hedge(node);
    }
}

impl<A: MergeCollector, B: MergeCollector> MergeCollector for (A, B) {
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
    }
}

/// Pooled latency statistics of one phase of a run — the per-phase
/// counterpart of a [`RunResult`]'s latency block. A phase boundary that
/// changes machine state or load shows up as a regime change between
/// consecutive `PhaseStats`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase index in the collector's schedule.
    pub phase: usize,
    /// First instant of the phase, clamped to the measurement window.
    pub start: SimTime,
    /// First instant after the phase, clamped to the measurement window.
    pub end: SimTime,
    /// Requests stamped inside this phase (and the window).
    pub samples: u64,
    /// Mean end-to-end latency of the phase's requests.
    pub avg: SimDuration,
    /// Median latency of the phase's requests.
    pub p50: SimDuration,
    /// 99th-percentile latency of the phase's requests.
    pub p99: SimDuration,
    /// Largest latency of the phase's requests.
    pub max: SimDuration,
    /// Within-phase coefficient of variation (`std_dev / mean`; 0 when
    /// the phase is empty).
    pub cov: f64,
    /// Completions per second of phase time.
    pub achieved_qps: f64,
}

/// Buckets in-window latencies by the phase their request was *stamped*
/// in, yielding one [`PhaseStats`] per phase that overlaps the
/// measurement window.
///
/// Attribution is by send stamp, not completion: a request belongs to the
/// regime that produced it, even if its response lands after the next
/// boundary.
///
/// Sharded runs give every shard its own collector and fold them through
/// [`MergeCollector`]; per-phase histograms merge exactly, so the
/// per-phase mean and CoV are bit-identical whatever the shard
/// enumeration, worker count or schedule.
#[derive(Debug)]
pub struct PhaseCollector {
    schedule: PhaseSchedule,
    window_start: SimTime,
    window_end: SimTime,
    hists: Vec<LatencyHistogram>,
}

impl PhaseCollector {
    /// A collector bucketing by `schedule` over the measurement window
    /// `[window_start, window_end)`.
    ///
    /// # Panics
    ///
    /// Panics unless the window is non-empty.
    pub fn new(schedule: PhaseSchedule, window_start: SimTime, window_end: SimTime) -> Self {
        assert!(window_start < window_end, "empty measurement window");
        let phases = schedule.phase_count();
        PhaseCollector {
            schedule,
            window_start,
            window_end,
            hists: (0..phases).map(|_| LatencyHistogram::new()).collect(),
        }
    }

    /// Per-phase statistics for every phase overlapping the window, in
    /// phase order.
    pub fn into_stats(self) -> Vec<PhaseStats> {
        (0..self.schedule.phase_count())
            .filter_map(|p| {
                let start = self.schedule.phase_start(p).max(self.window_start);
                let end = self.schedule.phase_end(p).min(self.window_end);
                if start >= end {
                    return None;
                }
                let h = &self.hists[p];
                let mean = h.mean();
                let cov =
                    if h.count() == 0 || mean.is_zero() { 0.0 } else { h.std_dev().as_us() / mean.as_us() };
                Some(PhaseStats {
                    phase: p,
                    start,
                    end,
                    samples: h.count(),
                    avg: mean,
                    p50: h.median(),
                    p99: h.percentile(99.0),
                    max: h.max(),
                    cov,
                    achieved_qps: h.count() as f64 / end.since(start).as_secs(),
                })
            })
            .collect()
    }
}

impl Collector for PhaseCollector {
    fn on_latency(&mut self, _node: usize, stamp: SimTime, measured: SimDuration) {
        self.hists[self.schedule.phase_at(stamp)].record(measured);
    }
}

impl MergeCollector for PhaseCollector {
    /// Folds `other`'s per-phase histograms into `self`, phase by phase.
    fn merge(&mut self, other: Self) {
        assert_eq!(self.schedule, other.schedule, "merged phase collectors cover different schedules");
        for (acc, h) in self.hists.iter_mut().zip(&other.hists) {
            acc.merge(h);
        }
    }
}

/// What one client node did inside one observation window — the per-node
/// row of a [`WindowedObserver`] collection, and the signal a
/// [`crate::control::MitigationPolicy`] decides on.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeWindow {
    /// Node declaration index.
    pub node: usize,
    /// Requests recorded for this node inside the window.
    pub samples: u64,
    /// The node's windowed 99th-percentile latency
    /// ([`SimDuration::ZERO`] when the window recorded nothing).
    pub p99: SimDuration,
    /// Completions per second of window time (0 when empty).
    pub achieved_qps: f64,
    /// The node's offered load during the window.
    pub target_qps: f64,
    /// Hedge legs fired for this node inside the window.
    pub hedges: u64,
}

/// What one server shard absorbed inside one observation window — the
/// per-shard row of a [`WindowedObserver`] collection.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardWindow {
    /// Shard declaration index.
    pub shard: usize,
    /// Requests recorded against this shard inside the window.
    pub samples: u64,
    /// The shard's windowed 99th-percentile latency.
    pub p99: SimDuration,
    /// Completions per second of window time (0 when empty).
    pub achieved_qps: f64,
}

/// The controller's eyes: per-node *and* per-shard windowed latency
/// tails plus achieved rates, collected in one kernel pass.
///
/// Sharded runs give every shard its own observer (built with
/// [`WindowedObserver::for_partition`]). Per-node state moves (shards
/// partition the fleet, like [`PerNodeCollector`]); per-shard histograms
/// are kept whole, one `(shard, histogram)` row per partition, and never
/// cross-merged, so nothing in the observation depends on fold order,
/// worker count or schedule. That is what lets a
/// [`crate::control::MitigationPolicy`] treat the observation as a pure
/// function of the run.
#[derive(Debug)]
pub struct WindowedObserver {
    node_hists: Vec<LatencyHistogram>,
    node_stats: Vec<Option<NodeStats>>,
    hedges: Vec<u64>,
    /// `(shard index, histogram)` per partition; a fresh observer holds
    /// its own partition's row, merges append the others'.
    shards: Vec<(usize, LatencyHistogram)>,
}

impl WindowedObserver {
    /// A per-shard observer for the partition with declaration index
    /// `shard` — pass `|shard, key| WindowedObserver::for_partition(n,
    /// key, shard)` as the collector factory of
    /// [`crate::runtime::run_sharded_collected_hedged_with`]. The shard
    /// content key is accepted for that factory's shape and unused:
    /// merging partitions is order-free.
    pub fn for_partition(nodes: usize, _shard_key: u64, shard: usize) -> Self {
        WindowedObserver {
            node_hists: (0..nodes).map(|_| LatencyHistogram::new()).collect(),
            node_stats: vec![None; nodes],
            hedges: vec![0; nodes],
            shards: vec![(shard, LatencyHistogram::new())],
        }
    }

    /// Total hedge legs fired across the fleet.
    pub fn total_hedges(&self) -> u64 {
        self.hedges.iter().sum()
    }

    /// The windowed per-node and per-shard views, over a measurement
    /// window of length `measured`. Node rows come in declaration order,
    /// shard rows sorted by shard index; an empty window (first-boundary
    /// edge case: nothing recorded yet) yields zero-sample rows with
    /// [`SimDuration::ZERO`] tails rather than panicking, so a policy
    /// can treat "no signal" uniformly with "fast".
    pub fn into_windows(self, measured: SimDuration) -> (Vec<NodeWindow>, Vec<ShardWindow>) {
        let secs = measured.as_secs();
        let rate = |samples: u64| if secs > 0.0 { samples as f64 / secs } else { 0.0 };
        let nodes = self
            .node_hists
            .iter()
            .zip(&self.node_stats)
            .zip(&self.hedges)
            .enumerate()
            .map(|(node, ((hist, stats), &hedges))| NodeWindow {
                node,
                samples: hist.count(),
                p99: hist.percentile(99.0),
                achieved_qps: rate(hist.count()),
                target_qps: stats.as_ref().map_or(0.0, |s| s.target_qps),
                hedges,
            })
            .collect();
        let mut parts = self.shards;
        parts.sort_by_key(|&(shard, _)| shard);
        let shards = parts
            .into_iter()
            .map(|(shard, hist)| ShardWindow {
                shard,
                samples: hist.count(),
                p99: hist.percentile(99.0),
                achieved_qps: rate(hist.count()),
            })
            .collect();
        (nodes, shards)
    }
}

impl Collector for WindowedObserver {
    fn on_latency(&mut self, node: usize, _stamp: SimTime, measured: SimDuration) {
        self.node_hists[node].record(measured);
        self.shards[0].1.record(measured);
    }

    fn on_node_done(&mut self, node: usize, stats: &NodeStats) {
        self.node_stats[node] = Some(*stats);
    }

    fn on_hedge(&mut self, node: usize) {
        self.hedges[node] += 1;
    }
}

impl MergeCollector for WindowedObserver {
    /// Takes `other`'s finished nodes (disjoint across shards) and its
    /// shard rows whole — nothing is folded across shards, so the
    /// observation is independent of merge order.
    fn merge(&mut self, other: Self) {
        assert_eq!(self.node_hists.len(), other.node_hists.len(), "observers cover different fleets");
        for (i, (stats, (hist, hedges))) in
            other.node_stats.into_iter().zip(other.node_hists.into_iter().zip(other.hedges)).enumerate()
        {
            if stats.is_some() {
                assert!(self.node_stats[i].is_none(), "node {i} finished on two shards");
                self.node_stats[i] = stats;
                self.node_hists[i] = hist;
            }
            self.hedges[i] += hedges;
        }
        self.shards.extend(other.shards);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_preallocation_is_bounded_by_the_send_estimate() {
        // A short run cannot justify a 1 Mi reservation even when the
        // caller asks to trace "everything".
        let c = TraceCollector::new(1 << 20, SimTime::ZERO, SimDuration::from_us(100), 1_200);
        assert!(c.trace.wire_departures.capacity() <= 1_200);
        assert!(c.trace.latencies_us.capacity() <= 1_200);
        // And max_trace still caps below the estimate.
        let c = TraceCollector::new(64, SimTime::ZERO, SimDuration::from_us(100), 1_200);
        assert!(c.trace.wire_departures.capacity() <= 64);
    }

    #[test]
    fn trace_collector_respects_window_and_bound() {
        let mut c = TraceCollector::new(2, SimTime::from_ms(1), SimDuration::from_us(10), 100);
        // Before the window: ignored.
        c.on_send(0, 0, SimTime::from_us(10), SimTime::from_us(12));
        assert!(c.trace.wire_departures.is_empty());
        c.on_send(0, 1, SimTime::from_ms(2), SimTime::from_ms(2));
        c.on_send(0, 2, SimTime::from_ms(3), SimTime::from_ms(3));
        c.on_send(0, 3, SimTime::from_ms(4), SimTime::from_ms(4));
        assert_eq!(c.trace.wire_departures.len(), 2, "bounded at max_trace");
        c.on_latency(0, SimTime::from_ms(2), SimDuration::from_us(50));
        c.on_latency(0, SimTime::from_ms(3), SimDuration::from_us(60));
        c.on_latency(0, SimTime::from_ms(4), SimDuration::from_us(70));
        let trace = c.into_trace();
        assert_eq!(trace.latencies_us, vec![50.0, 60.0]);
        assert_eq!(trace.scheduled_gap_us, 10.0);
    }

    #[test]
    fn null_collector_is_inert() {
        let mut c = NullCollector;
        c.on_send(0, 0, SimTime::ZERO, SimTime::ZERO);
        c.on_latency(0, SimTime::ZERO, SimDuration::ZERO);
    }

    #[test]
    fn phase_collector_buckets_by_stamp_and_clamps_to_window() {
        let schedule = PhaseSchedule::new(vec![SimTime::from_ms(10)]);
        let mut c = PhaseCollector::new(schedule, SimTime::from_ms(2), SimTime::from_ms(20));
        // Two fast requests in phase 0, two slow ones in phase 1.
        c.on_latency(0, SimTime::from_ms(3), SimDuration::from_us(50));
        c.on_latency(0, SimTime::from_ms(9), SimDuration::from_us(60));
        c.on_latency(1, SimTime::from_ms(10), SimDuration::from_us(200));
        c.on_latency(0, SimTime::from_ms(15), SimDuration::from_us(300));
        let stats = c.into_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].phase, 0);
        assert_eq!((stats[0].start, stats[0].end), (SimTime::from_ms(2), SimTime::from_ms(10)));
        assert_eq!(stats[0].samples, 2);
        assert!(stats[0].p99 <= SimDuration::from_us(70));
        assert_eq!((stats[1].start, stats[1].end), (SimTime::from_ms(10), SimTime::from_ms(20)));
        assert_eq!(stats[1].samples, 2);
        // The boundary is visible as a latency regime change.
        assert!(stats[1].p50 > stats[0].p50 * 2);
        // Achieved rate uses phase time: 2 samples over 8 ms and 10 ms.
        assert!((stats[0].achieved_qps - 250.0).abs() < 1.0);
        assert!((stats[1].achieved_qps - 200.0).abs() < 1.0);
    }

    #[test]
    fn phase_collector_skips_phases_outside_the_window() {
        let schedule = PhaseSchedule::new(vec![SimTime::from_ms(5), SimTime::from_ms(50)]);
        let c = PhaseCollector::new(schedule, SimTime::from_ms(10), SimTime::from_ms(40));
        let stats = c.into_stats();
        // Phase 0 ends before the window opens; phase 2 starts after it
        // closes: only phase 1 remains, empty but well-formed.
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].phase, 1);
        assert_eq!(stats[0].samples, 0);
        assert_eq!(stats[0].cov, 0.0);
    }

    fn node_stats(target_qps: f64, energy: f64) -> NodeStats {
        NodeStats {
            wakes: [3, 2, 1, 0],
            energy_core_secs: energy,
            sends: tpv_loadgen::SendStats {
                late_sends: 1,
                total_sends: 10,
                total_slip: SimDuration::from_us(5),
            },
            truncated_inflight: 2,
            target_qps,
            measured: SimDuration::from_ms(10),
        }
    }

    #[test]
    fn per_cohort_collector_pools_members_and_skips_explicit_nodes() {
        // Nodes 0 (explicit), 1 and 2 (cohort 0), 3 (cohort 1).
        let map = vec![None, Some(0), Some(0), Some(1)];
        let mut c = PerCohortCollector::new(map, 2);
        c.on_latency(0, SimTime::ZERO, SimDuration::from_us(999));
        c.on_latency(1, SimTime::ZERO, SimDuration::from_us(50));
        c.on_latency(2, SimTime::ZERO, SimDuration::from_us(70));
        c.on_latency(3, SimTime::ZERO, SimDuration::from_us(200));
        c.on_node_done(0, &node_stats(1_000.0, 9.0));
        c.on_node_done(1, &node_stats(2_000.0, 1.0));
        c.on_node_done(2, &node_stats(3_000.0, 2.0));
        c.on_node_done(3, &node_stats(4_000.0, 4.0));
        let results = c.into_results(SimDuration::from_ms(10));
        assert_eq!(results.len(), 2);
        // Cohort 0 pools nodes 1 and 2; the explicit node never leaks in.
        assert_eq!(results[0].samples, 2);
        assert_eq!(results[0].target_qps, 5_000.0);
        assert_eq!(results[0].client_wakes, [6, 4, 2, 0]);
        assert_eq!(results[0].client_energy_core_secs, 3.0);
        assert_eq!(results[0].late_send_fraction, 0.1);
        assert_eq!(results[0].truncated_inflight, 4);
        assert_eq!(results[1].samples, 1);
        assert_eq!(results[1].target_qps, 4_000.0);
    }

    #[test]
    fn per_cohort_merge_is_order_free_when_members_span_shards() {
        // Cohort 0's two members land on different shards.
        let map = vec![Some(0), Some(0)];
        let observe = |order: [usize; 2], qps: [f64; 2], reversed: bool| {
            let mut shards: Vec<PerCohortCollector> =
                (0..2).map(|_| PerCohortCollector::new(map.clone(), 1)).collect();
            for (shard, node) in order.into_iter().enumerate() {
                shards[shard].on_latency(node, SimTime::ZERO, SimDuration::from_us(40 + 10 * node as u64));
                shards[shard].on_node_done(node, &node_stats(qps[node], 0.1 + node as f64));
            }
            if reversed {
                shards.reverse();
            }
            let mut iter = shards.into_iter();
            let mut merged = iter.next().unwrap();
            for s in iter {
                merged.merge(s);
            }
            merged.into_results(SimDuration::from_ms(10))
        };
        // Neither which shard hosts which member nor the fold order may
        // change the pooled result.
        let a = observe([0, 1], [2_000.0, 3_000.0], false);
        for (order, reversed) in [([1, 0], false), ([0, 1], true), ([1, 0], true)] {
            assert_eq!(observe(order, [2_000.0, 3_000.0], reversed), a);
        }
        assert_eq!(a[0].samples, 2);
        assert_eq!(a[0].target_qps, 5_000.0);
    }

    #[test]
    #[should_panic(expected = "cohort map points past the cohort list")]
    fn per_cohort_collector_rejects_out_of_range_map() {
        let _ = PerCohortCollector::new(vec![Some(1)], 1);
    }

    #[test]
    fn windowed_observer_empty_window_yields_zero_rows() {
        // First-boundary edge case: the window closed before anything
        // recorded. The observation must be well-formed zeros, not a panic.
        let obs = WindowedObserver::for_partition(2, 0, 0);
        let (nodes, shards) = obs.into_windows(SimDuration::from_ms(10));
        assert_eq!(nodes.len(), 2);
        for n in &nodes {
            assert_eq!(n.samples, 0);
            assert_eq!(n.p99, SimDuration::ZERO);
            assert_eq!(n.achieved_qps, 0.0);
            assert_eq!(n.hedges, 0);
        }
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].samples, 0);
        assert_eq!(shards[0].p99, SimDuration::ZERO);
    }

    #[test]
    fn windowed_observer_single_sample_p99_is_that_sample() {
        // One sample in the window: the percentile clamps to the exact
        // observed value, not a bucket bound past it.
        let mut obs = WindowedObserver::for_partition(1, 0, 0);
        obs.on_latency(0, SimTime::from_ms(1), SimDuration::from_us(137));
        let (nodes, shards) = obs.into_windows(SimDuration::from_ms(10));
        assert_eq!(nodes[0].samples, 1);
        assert_eq!(nodes[0].p99, SimDuration::from_us(137));
        assert_eq!(shards[0].p99, SimDuration::from_us(137));
        assert!((nodes[0].achieved_qps - 100.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_observer_merge_is_order_free_and_counts_hedges() {
        let observe = |order: [usize; 2], reversed: bool| {
            let mut parts: Vec<WindowedObserver> =
                (0..2).map(|shard| WindowedObserver::for_partition(2, 100 + shard as u64, shard)).collect();
            for (shard, node) in order.into_iter().enumerate() {
                parts[shard].on_latency(node, SimTime::ZERO, SimDuration::from_us(40 + 10 * node as u64));
                parts[shard].on_hedge(node);
                parts[shard].on_node_done(node, &node_stats(2_000.0, 0.5));
            }
            if reversed {
                parts.reverse();
            }
            let mut iter = parts.into_iter();
            let mut merged = iter.next().unwrap();
            for p in iter {
                merged.merge(p);
            }
            assert_eq!(merged.total_hedges(), 2);
            merged.into_windows(SimDuration::from_ms(10))
        };
        // The fold order must not change the observation at all...
        let (a, b) = (observe([0, 1], false), observe([1, 0], false));
        assert_eq!(observe([0, 1], true), a);
        assert_eq!(observe([1, 0], true), b);
        // ...nor which shard hosts which node the node rows.
        assert_eq!(a.0, b.0);
        // Shard rows follow the shard index, not the fold order...
        assert_eq!(a.1.iter().map(|s| s.shard).collect::<Vec<_>>(), vec![0, 1]);
        // ...but swap their contents with the hosting (node 0's sample
        // follows node 0 to the other shard).
        assert_eq!(a.1[0].samples, 1);
        assert_eq!(a.1[0].p99, SimDuration::from_us(40));
        assert_eq!(b.1[0].p99, SimDuration::from_us(50));
        assert_eq!(a.0[0].hedges, 1);
    }

    #[test]
    fn pair_collector_feeds_both_halves() {
        let mut pair = (
            PerNodeCollector::new(1),
            PhaseCollector::new(PhaseSchedule::single(), SimTime::ZERO, SimTime::from_ms(10)),
        );
        pair.on_latency(0, SimTime::from_ms(1), SimDuration::from_us(70));
        let (per_node, phases) = pair;
        assert_eq!(per_node.pools[0].hist.count(), 1);
        assert_eq!(phases.into_stats()[0].samples, 1);
    }
}
