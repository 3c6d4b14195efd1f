//! Outside-in instrumentation: wrappers around the crates' public seams
//! (the `Collector`/`MergeCollector` hooks, `MitigationPolicy::decide`
//! and the `tpv_stats` entry points) that count calls and take host
//! timestamps. Nothing here adds a span inside the crates, and every
//! wrapper delegates unchanged, so a traced run computes exactly what its
//! untraced twin computes.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tpv_core::collect::{Collector, MergeCollector, NodeStats};
use tpv_core::control::{MitigationAction, MitigationPolicy, WindowObservation};
use tpv_core::runtime::RunResult;
use tpv_sim::{SimDuration, SimTime};

/// FNV-1a over a value's `Debug` text. Float `Debug` output round-trips
/// exactly, so equal digests mean bit-identical results.
pub fn digest<T: Debug + ?Sized>(value: &T) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    std::fmt::write(&mut h, format_args!("{value:?}")).expect("digest formatting cannot fail");
    h.0
}

/// Kernel hook calls seen by one [`Timed`] collector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hooks {
    /// `on_event` calls: simulation events dispatched.
    pub events: u64,
    /// `on_send` calls: requests issued.
    pub sends: u64,
    /// `on_latency` calls: in-window requests recorded.
    pub latencies: u64,
    /// `on_node_done` calls.
    pub node_done: u64,
    /// `on_hedge` calls: hedge legs fired.
    pub hedges: u64,
}

impl Hooks {
    /// Every hook call.
    pub fn total(&self) -> u64 {
        self.events + self.sends + self.latencies + self.node_done + self.hedges
    }

    /// Adds `other`'s counts.
    pub fn add(&mut self, other: &Hooks) {
        self.events += other.events;
        self.sends += other.sends;
        self.latencies += other.latencies;
        self.node_done += other.node_done;
        self.hedges += other.hedges;
    }

    /// The run's books balance: every recorded or cut-off in-window
    /// request was sent, and every send dispatched at least its own event.
    pub fn balance(&self, result: &RunResult) -> bool {
        result.samples == self.latencies
            && result.samples + result.truncated_inflight <= self.sends
            && self.events >= self.sends
    }
}

/// Host-time shape of one kernel call, measured from the hooks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Entry call → first `on_event` (partition set-up).
    pub setup: Duration,
    /// Σ over partitions of first `on_event` → first `on_node_done`
    /// (the event loop proper).
    pub event_loop: Duration,
    /// Last `on_node_done` → return (merge and result assembly).
    pub finish: Duration,
    /// Time inside wrapped `MergeCollector::merge` calls.
    pub merge: Duration,
}

impl Span {
    /// Adds `other` into this running total.
    pub fn add(&mut self, other: &Span) {
        self.setup += other.setup;
        self.event_loop += other.event_loop;
        self.finish += other.finish;
        self.merge += other.merge;
    }
}

/// A collector wrapper that counts every hook and brackets the event
/// loop with two host timestamps per partition. The per-event cost is one
/// counter increment and one predictable branch.
#[derive(Debug)]
pub struct Timed<C> {
    /// The wrapped collector, fed every hook unchanged.
    pub inner: C,
    /// Hook counts.
    pub hooks: Hooks,
    first_event: Option<Instant>,
    loop_closed: bool,
    last_done: Option<Instant>,
    event_loop: Duration,
    merge: Duration,
}

impl<C> Timed<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        Timed {
            inner,
            hooks: Hooks::default(),
            first_event: None,
            loop_closed: false,
            last_done: None,
            event_loop: Duration::ZERO,
            merge: Duration::ZERO,
        }
    }

    /// The call's span, given the instants just before the kernel entry
    /// call and just after it returned.
    pub fn span(&self, entry: Instant, exit: Instant) -> Span {
        Span {
            setup: self.first_event.map_or(Duration::ZERO, |t| t.saturating_duration_since(entry)),
            event_loop: self.event_loop,
            finish: self.last_done.map_or(Duration::ZERO, |t| exit.saturating_duration_since(t)),
            merge: self.merge,
        }
    }
}

impl<C: Collector> Collector for Timed<C> {
    #[inline]
    fn on_event(&mut self, now: SimTime) {
        if self.first_event.is_none() {
            self.first_event = Some(Instant::now());
        }
        self.hooks.events += 1;
        self.inner.on_event(now);
    }

    fn on_send(&mut self, node: usize, conn: u32, due: SimTime, wire: SimTime) {
        self.hooks.sends += 1;
        self.inner.on_send(node, conn, due, wire);
    }

    fn on_latency(&mut self, node: usize, stamp: SimTime, measured: SimDuration) {
        self.hooks.latencies += 1;
        self.inner.on_latency(node, stamp, measured);
    }

    fn on_node_done(&mut self, node: usize, stats: &NodeStats) {
        let now = Instant::now();
        if !self.loop_closed {
            self.loop_closed = true;
            if let Some(first) = self.first_event {
                self.event_loop += now.saturating_duration_since(first);
            }
        }
        self.last_done = Some(now);
        self.hooks.node_done += 1;
        self.inner.on_node_done(node, stats);
    }

    fn on_hedge(&mut self, node: usize) {
        self.hooks.hedges += 1;
        self.inner.on_hedge(node);
    }
}

impl<C: MergeCollector> MergeCollector for Timed<C> {
    fn merge(&mut self, other: Self) {
        self.hooks.add(&other.hooks);
        self.event_loop += other.event_loop;
        self.merge += other.merge;
        self.first_event = match (self.first_event, other.first_event) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_done = self.last_done.max(other.last_done);
        let t = Instant::now();
        self.inner.merge(other.inner);
        self.merge += t.elapsed();
    }
}

/// A policy wrapper timing every `decide` call. Atomic counters, because
/// one policy object serves every engine worker.
pub struct TimedPolicy<'a> {
    inner: &'a (dyn MitigationPolicy + Sync),
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a (dyn MitigationPolicy + Sync)) -> Self {
        TimedPolicy { inner, calls: AtomicU64::new(0), nanos: AtomicU64::new(0) }
    }

    /// `(decide calls, host time inside them)`.
    pub fn totals(&self) -> (u64, Duration) {
        (self.calls.load(Ordering::Relaxed), Duration::from_nanos(self.nanos.load(Ordering::Relaxed)))
    }
}

impl MitigationPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&self, obs: &WindowObservation) -> Vec<MitigationAction> {
        let t = Instant::now();
        let actions = self.inner.decide(obs);
        self.nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        actions
    }
}

/// Counts and times calls into `tpv_stats`.
#[derive(Debug, Default)]
pub struct StatsTimer {
    /// Entry-point calls.
    pub calls: u64,
    /// Host time inside them.
    pub busy: Duration,
}

impl StatsTimer {
    /// Runs one `tpv_stats` call under the timer.
    pub fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.busy += t.elapsed();
        self.calls += 1;
        out
    }
}
