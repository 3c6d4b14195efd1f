//! # tpv-loadgen — workload generators (§II taxonomy)
//!
//! The paper classifies workload generators along three axes, all of which
//! are first-class types here:
//!
//! * **Loop mode** ([`LoopMode`]): *open-loop* generators model infinitely
//!   many clients sending on an inter-arrival schedule; *closed-loop*
//!   generators bound outstanding requests.
//! * **Inter-arrival timing** ([`TimingMode`]): *time-sensitive* block-wait
//!   loops sleep until the next send is due (mutilate, wrk2) — a sleeping
//!   client core must wake first, disrupting the schedule; *time-insensitive*
//!   busy-wait loops poll for elapsed time (the µSuite client), keeping the
//!   schedule exact at the cost of a hot core.
//! * **Point of measurement** ([`PointOfMeasurement`]): where the response
//!   timestamp is taken — NIC, kernel, or inside the generator (in-app,
//!   what every surveyed generator does).
//!
//! [`ClientSide`] instantiates the taxonomy on a concrete client machine
//! ([`tpv_hw::MachineConfig`]): generator threads are
//! [`tpv_hw::CoreResource`]s, so the LP/HP configuration difference acts on
//! every send and receive exactly as in the paper.
//!
//! # Example
//!
//! ```
//! use tpv_loadgen::{ClientSide, GeneratorSpec};
//! use tpv_hw::MachineConfig;
//! use tpv_sim::{SimRng, SimTime};
//!
//! let mut rng = SimRng::seed_from_u64(1);
//! let lp = MachineConfig::low_power();
//! let env = lp.draw_environment(&mut rng);
//! let mut client = ClientSide::new(GeneratorSpec::mutilate(), &lp, &env);
//!
//! // A send due at t=5ms on an idle LP client leaves late: the thread
//! // must wake from a deep C-state first.
//! let plan = client.plan_send(0, SimTime::from_ms(5), &mut rng);
//! assert!(plan.wire > SimTime::from_ms(5));
//! ```

mod rate;

pub use rate::PhasedRate;

use serde::{Deserialize, Serialize};
use tpv_hw::{CoreResource, MachineConfig, RunEnvironment};
use tpv_net::StackCosts;
use tpv_sim::dist::{Exponential, LogNormal, Sampler};
use tpv_sim::{SimDuration, SimRng, SimTime};

/// Open vs closed loop (§II "workload generator design").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopMode {
    /// Open loop: sends follow the inter-arrival schedule regardless of
    /// outstanding responses (models infinite clients).
    Open,
    /// Closed loop: each connection waits for its response (plus think
    /// time) before sending again (models finite blocking clients).
    Closed,
}

/// How the inter-arrival wait is implemented (§II; the axis the paper's
/// recommendations hinge on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimingMode {
    /// Time-sensitive: block until the next send is due (event loop with
    /// timers). Sleeping cores disrupt the schedule on wake.
    BlockWait,
    /// Time-insensitive: spin, polling for elapsed time. The schedule is
    /// exact; the arrival core never sleeps.
    BusyWait,
}

/// Where the response timestamp is taken (§II "points of measurement").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PointOfMeasurement {
    /// Hardware timestamp at the NIC (e.g. Lancet's hardware mode).
    Nic,
    /// After kernel RX processing, before the application is scheduled.
    Kernel,
    /// Inside the workload generator — "with most typical workload
    /// generators, the measurement point resides within the workload
    /// generator itself".
    InApp,
}

/// Inter-arrival distribution family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalKind {
    /// Poisson process (exponential gaps) — mutilate, wrk2, µSuite.
    Exponential,
    /// Fixed gaps (paced).
    Deterministic,
    /// Log-normal gaps with the given log-space sigma (bursty).
    LogNormal(f64),
}

/// A per-connection arrival schedule generator.
///
/// The gap distribution is built once at construction (not per draw): a
/// `next_gap` call on the hot send path is one RNG transform with no
/// set-up arithmetic. The drawn gaps are identical to constructing the
/// distribution per draw — the parameters are a pure function of
/// `(kind, mean_gap)`.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalProcess {
    mean_gap: SimDuration,
    sampler: GapSampler,
}

/// Prebuilt gap distribution of an [`ArrivalProcess`].
#[derive(Debug, Clone, Copy)]
enum GapSampler {
    Exponential(Exponential),
    Deterministic,
    LogNormal(LogNormal),
}

impl ArrivalProcess {
    /// An arrival process with the given mean inter-arrival gap.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap` is zero.
    pub fn new(kind: ArrivalKind, mean_gap: SimDuration) -> Self {
        assert!(!mean_gap.is_zero(), "arrival process needs a positive mean gap");
        let sampler = match kind {
            ArrivalKind::Exponential => GapSampler::Exponential(Exponential::with_mean(mean_gap.as_us())),
            ArrivalKind::Deterministic => GapSampler::Deterministic,
            ArrivalKind::LogNormal(sigma) => {
                GapSampler::LogNormal(LogNormal::with_mean(mean_gap.as_us(), sigma))
            }
        };
        ArrivalProcess { mean_gap, sampler }
    }

    /// The superposition of `members` independent copies of a `(kind,
    /// mean_gap)` process: one process whose mean gap is `mean_gap /
    /// members`.
    ///
    /// For [`ArrivalKind::Exponential`] this is exact (k Poisson streams
    /// of rate λ are one Poisson stream of rate kλ) — the identity behind
    /// cohort-compressed fleets. For the other kinds it preserves the
    /// pooled mean rate but not the pooled gap distribution.
    /// `superposed(kind, gap, 1)` equals `new(kind, gap)`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero or `mean_gap` is zero.
    pub fn superposed(kind: ArrivalKind, mean_gap: SimDuration, members: u32) -> Self {
        assert!(members > 0, "superposition needs at least one member process");
        ArrivalProcess::new(kind, mean_gap.scale(1.0 / f64::from(members)))
    }

    /// Draws the gap to the next send.
    pub fn next_gap(&self, rng: &mut SimRng) -> SimDuration {
        match &self.sampler {
            GapSampler::Exponential(dist) => dist.sample_us(rng),
            GapSampler::Deterministic => self.mean_gap,
            GapSampler::LogNormal(dist) => dist.sample_us(rng),
        }
    }

    /// Raw `[0, 1)` uniforms one gap draw consumes: 1 (exponential),
    /// 2 (log-normal Box–Muller pair) or 0 (deterministic pacing draws
    /// nothing). The batch layer ([`GapBuffer`]) sizes its pre-draws by
    /// this, and the draw-count conservation tests pin it.
    pub fn uniforms_per_gap(&self) -> usize {
        match self.sampler {
            GapSampler::Exponential(_) => 1,
            GapSampler::Deterministic => 0,
            GapSampler::LogNormal(_) => 2,
        }
    }

    /// Transforms exactly [`uniforms_per_gap`](Self::uniforms_per_gap)
    /// pre-drawn raw uniforms into a gap — the identical arithmetic
    /// [`next_gap`](Self::next_gap) runs on freshly drawn uniforms, so
    /// pre-drawing on the same stream in the same order is bit-identical
    /// to sequential sampling.
    ///
    /// # Panics
    ///
    /// Panics if `units` is shorter than `uniforms_per_gap()`.
    pub fn gap_from_units(&self, units: &[f64]) -> SimDuration {
        match &self.sampler {
            GapSampler::Exponential(dist) => SimDuration::from_us_f64(dist.from_unit(units[0])),
            GapSampler::Deterministic => self.mean_gap,
            GapSampler::LogNormal(dist) => SimDuration::from_us_f64(dist.from_units(units[0], units[1])),
        }
    }

    /// The configured mean gap.
    pub fn mean_gap(&self) -> SimDuration {
        self.mean_gap
    }
}

/// Gaps per [`GapBuffer`] refill batch.
const GAP_BATCH: usize = 64;

/// Batched pre-sampling of arrival gaps.
///
/// Pre-drawing the next `GAP_BATCH × uniforms_per_gap` uniforms on the
/// arrival stream and transforming them in one contiguous loop is
/// bit-identical to drawing per send — the stream order is unchanged,
/// and [`ArrivalProcess::gap_from_units`] is the same arithmetic as
/// [`ArrivalProcess::next_gap`] — but it amortizes RNG state updates
/// and lets the polynomial kernels run over a flat buffer.
///
/// The buffer keeps the *raw* uniforms alongside the transformed gaps:
/// when a phase boundary swaps the arrival process (a rate step changes
/// the mean gap), [`reconfigure`](Self::reconfigure) re-transforms the
/// unconsumed tail under the new process, which is exactly what scalar
/// sampling would have produced at consumption time. The arrival *kind*
/// of a node never changes across phases (only its mean), so the
/// uniforms-per-gap stride is a per-node constant — asserted on every
/// reconfigure.
#[derive(Debug, Clone, Default)]
pub struct GapBuffer {
    raw: Vec<f64>,
    gaps: Vec<SimDuration>,
    cursor: usize,
    filled: usize,
}

impl GapBuffer {
    /// An empty buffer; the first [`next_gap`](Self::next_gap) fills it.
    pub fn new() -> Self {
        GapBuffer::default()
    }

    /// The next gap, from the buffer — refilling it with a batched
    /// pre-draw when empty. Deterministic pacing consumes no uniforms
    /// and bypasses the buffer entirely.
    pub fn next_gap(&mut self, process: &ArrivalProcess, rng: &mut SimRng) -> SimDuration {
        let stride = process.uniforms_per_gap();
        if stride == 0 {
            return process.next_gap(rng);
        }
        if self.cursor == self.filled {
            self.refill(process, stride, rng);
        }
        let gap = self.gaps[self.cursor];
        self.cursor += 1;
        gap
    }

    /// Re-transforms the unconsumed tail after the arrival process
    /// switched (phase boundary): already-drawn uniforms take their
    /// meaning from the process in effect when the gap is *consumed*,
    /// matching the scalar draw-at-send order exactly.
    ///
    /// # Panics
    ///
    /// Panics if the new process draws a different number of uniforms
    /// per gap — arrival kinds are per-node constants, so this would
    /// mean the stream position has already diverged.
    pub fn reconfigure(&mut self, process: &ArrivalProcess) {
        if self.filled == 0 {
            return;
        }
        let stride = process.uniforms_per_gap();
        assert_eq!(
            stride * self.filled,
            self.raw.len(),
            "arrival kind changed across a phase boundary; the gap buffer cannot re-map drawn uniforms"
        );
        for i in self.cursor..self.filled {
            self.gaps[i] = process.gap_from_units(&self.raw[i * stride..(i + 1) * stride]);
        }
    }

    fn refill(&mut self, process: &ArrivalProcess, stride: usize, rng: &mut SimRng) {
        self.raw.resize(GAP_BATCH * stride, 0.0);
        self.gaps.resize(GAP_BATCH, SimDuration::ZERO);
        rng.fill_f64(&mut self.raw);
        for (i, gap) in self.gaps.iter_mut().enumerate() {
            *gap = process.gap_from_units(&self.raw[i * stride..(i + 1) * stride]);
        }
        self.cursor = 0;
        self.filled = GAP_BATCH;
    }
}

/// Static description of a workload generator deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorSpec {
    /// Client machines running generator workers (mutilate "agents").
    pub agents: u32,
    /// Generator threads per agent.
    pub threads_per_agent: u32,
    /// Total connections to the service.
    pub connections: u32,
    /// Open or closed loop.
    pub loop_mode: LoopMode,
    /// Think time per connection in closed-loop mode.
    pub think_time: SimDuration,
    /// Block-wait or busy-wait inter-arrival implementation.
    pub timing: TimingMode,
    /// Where responses are timestamped.
    pub pom: PointOfMeasurement,
    /// Inter-arrival distribution.
    pub arrival: ArrivalKind,
}

impl GeneratorSpec {
    /// The paper's Memcached generator: an extended mutilate — open-loop,
    /// **time-sensitive block-wait**, in-app measurement, "5 machines, one
    /// for the master process and 4 for the workload-generator clients,
    /// establishing a total of 160 connections".
    pub fn mutilate() -> Self {
        GeneratorSpec {
            agents: 4,
            threads_per_agent: 10,
            connections: 160,
            loop_mode: LoopMode::Open,
            think_time: SimDuration::ZERO,
            timing: TimingMode::BlockWait,
            pom: PointOfMeasurement::InApp,
            arrival: ArrivalKind::Exponential,
        }
    }

    /// The paper's HDSearch generator: the µSuite open-loop client —
    /// **time-insensitive busy-wait**, Poisson arrivals, in-app
    /// measurement.
    pub fn microsuite_client() -> Self {
        GeneratorSpec {
            agents: 1,
            threads_per_agent: 4,
            connections: 32,
            loop_mode: LoopMode::Open,
            think_time: SimDuration::ZERO,
            timing: TimingMode::BusyWait,
            pom: PointOfMeasurement::InApp,
            arrival: ArrivalKind::Exponential,
        }
    }

    /// The paper's Social Network generator: an extended wrk2 — open-loop,
    /// **time-sensitive block-wait**, 20 connections, exponential
    /// distribution, in-app measurement.
    pub fn wrk2() -> Self {
        GeneratorSpec {
            agents: 1,
            threads_per_agent: 4,
            connections: 20,
            loop_mode: LoopMode::Open,
            think_time: SimDuration::ZERO,
            timing: TimingMode::BlockWait,
            pom: PointOfMeasurement::InApp,
            arrival: ArrivalKind::Exponential,
        }
    }

    /// The synthetic workload's client (§IV-B): open-loop, time-sensitive
    /// block-wait, in-app measurement.
    pub fn synthetic_client() -> Self {
        GeneratorSpec { connections: 80, ..GeneratorSpec::mutilate() }
    }

    /// Total generator threads.
    pub fn total_threads(&self) -> u32 {
        (self.agents * self.threads_per_agent).max(1)
    }

    /// Returns a copy with a different timing mode (taxonomy ablations).
    pub fn with_timing(mut self, timing: TimingMode) -> Self {
        self.timing = timing;
        self
    }

    /// Returns a copy with a different point of measurement.
    pub fn with_pom(mut self, pom: PointOfMeasurement) -> Self {
        self.pom = pom;
        self
    }

    /// Returns a copy configured as a closed loop with the given think
    /// time.
    pub fn closed_loop(mut self, think: SimDuration) -> Self {
        self.loop_mode = LoopMode::Closed;
        self.think_time = think;
        self
    }

    /// Returns a copy with a different connection count (clamped to at
    /// least 1). Fleet topologies use this to split one deployment's
    /// connections across several client nodes.
    pub fn with_connections(mut self, connections: u32) -> Self {
        self.connections = connections.max(1);
        self
    }
}

/// Raw send-schedule counters of one generator instance, for aggregating
/// schedule fidelity across a fleet of client nodes (the per-instance
/// ratios [`ClientSide::late_send_fraction`] and
/// [`ClientSide::mean_send_slip`] cannot be averaged directly — they must
/// be recombined from these counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SendStats {
    /// Sends that slipped their schedule beyond the tolerance.
    pub late_sends: u64,
    /// Total sends attempted.
    pub total_sends: u64,
    /// Summed slip between scheduled and actual send times.
    pub total_slip: SimDuration,
}

/// Planned timing of one request send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendPlan {
    /// When the generator took its send timestamp.
    pub stamp: SimTime,
    /// When the request actually hit the wire.
    pub wire: SimTime,
}

/// Timing of one response delivery up the client stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvPlan {
    /// NIC arrival (input, echoed for convenience).
    pub nic: SimTime,
    /// After kernel RX processing.
    pub kernel: SimTime,
    /// When the generator application processed and timestamped the
    /// response.
    pub app: SimTime,
}

impl RecvPlan {
    /// The response timestamp under a given point of measurement.
    pub fn stamp(&self, pom: PointOfMeasurement) -> SimTime {
        match pom {
            PointOfMeasurement::Nic => self.nic,
            PointOfMeasurement::Kernel => self.kernel,
            PointOfMeasurement::InApp => self.app,
        }
    }
}

/// The client side of the testbed: generator threads on client machines.
#[derive(Debug)]
pub struct ClientSide {
    spec: GeneratorSpec,
    threads: Vec<CoreResource>,
    stack: StackCosts,
    late_sends: u64,
    total_sends: u64,
    total_send_slip: SimDuration,
    /// Lemire's fastmod constant for `thread_of`: `ceil(2^64 / threads)`.
    /// Connection→thread mapping runs twice per request (send + receive),
    /// so the exact division-free modulo is worth precomputing.
    thread_mod_magic: u64,
}

impl ClientSide {
    /// Instantiates the generator's threads on `machine` in run
    /// environment `env`.
    pub fn new(spec: GeneratorSpec, machine: &MachineConfig, env: &RunEnvironment) -> Self {
        let n = spec.total_threads() as usize;
        // Every thread is an ordinary core of the machine: a busy-wait
        // arrival loop's spinning is modelled in `plan_send`, and its
        // responses are handled by blocking RPC completion threads.
        let threads = (0..n).map(|_| CoreResource::new(machine, env)).collect();
        ClientSide {
            spec,
            threads,
            stack: StackCosts::tcp_small_rpc(),
            late_sends: 0,
            total_sends: 0,
            total_send_slip: SimDuration::ZERO,
            // ceil(2^64 / n) for n >= 2; unused for n == 1 (mod is 0).
            thread_mod_magic: if n > 1 { (u64::MAX / n as u64).wrapping_add(1) } else { 0 },
        }
    }

    /// The generator spec.
    pub fn spec(&self) -> &GeneratorSpec {
        &self.spec
    }

    /// Swaps the client machine's configuration and run environment under
    /// every generator thread mid-run — a [`tpv_hw::DynamicMachine`]
    /// phase boundary. The generator software and all its counters
    /// (sends, slips, wakes, energy) carry across: the machine changed
    /// state, the workload generator did not restart.
    pub fn reconfigure(&mut self, machine: &MachineConfig, env: &tpv_hw::RunEnvironment) {
        for thread in &mut self.threads {
            thread.reconfigure(machine, env);
        }
    }

    /// The thread a connection is owned by.
    pub fn thread_of(&self, conn: usize) -> usize {
        let n = self.threads.len() as u64;
        if n == 1 {
            return 0;
        }
        // Lemire's fastmod (exact for dividends < 2^32; connection ids
        // are node-local u32s): lowbits = conn * ceil(2^64/n), then
        // mod = high64(lowbits * n). Identical to `conn % n`.
        debug_assert!(conn <= u32::MAX as usize);
        let lowbits = (conn as u64).wrapping_mul(self.thread_mod_magic);
        ((lowbits as u128 * n as u128) >> 64) as usize
    }

    /// Plans the send due at `due` on `conn`.
    ///
    /// Block-wait: the owning thread must be scheduled (waking if asleep)
    /// before the request is stamped and written — late wakes slip the
    /// wire time, disrupting the inter-arrival schedule.
    /// Busy-wait: the arrival loop is already spinning; the send leaves
    /// (almost) exactly on time.
    pub fn plan_send(&mut self, conn: usize, due: SimTime, rng: &mut SimRng) -> SendPlan {
        self.total_sends += 1;
        match self.spec.timing {
            TimingMode::BlockWait => {
                let t = self.thread_of(conn);
                let grant = self.threads[t].acquire(due, self.stack.client_send, rng);
                let slip = grant.end.since(due);
                // "Late" means the wire time slipped past the schedule by
                // more than the unavoidable send-processing cost plus a
                // small scheduling allowance.
                if slip > self.stack.client_send + SimDuration::from_us(5) {
                    self.late_sends += 1;
                }
                self.total_send_slip += slip;
                SendPlan { stamp: grant.end, wire: grant.end }
            }
            TimingMode::BusyWait => {
                let wire = due + self.stack.client_send;
                self.total_send_slip += self.stack.client_send;
                SendPlan { stamp: due, wire }
            }
        }
    }

    /// Delivers a response whose NIC arrival is `nic` up the client stack.
    ///
    /// Regardless of the arrival-loop implementation, the *receive* path
    /// runs in a thread that blocks on the socket — on an LP machine it
    /// pays the wake path before the in-app timestamp (§II's c-states
    /// example).
    pub fn receive(&mut self, conn: usize, nic: SimTime, rng: &mut SimRng) -> RecvPlan {
        let kernel = nic + self.stack.kernel_rx;
        let t = self.thread_of(conn);
        let grant = self.threads[t].acquire(kernel, self.stack.client_recv, rng);
        RecvPlan { nic, kernel, app: grant.end }
    }

    /// Fraction of sends that slipped their schedule by more than the
    /// send-processing cost (a workload-fidelity diagnostic, in the spirit
    /// of Lancet's self-checks).
    pub fn late_send_fraction(&self) -> f64 {
        if self.total_sends == 0 {
            0.0
        } else {
            self.late_sends as f64 / self.total_sends as f64
        }
    }

    /// Mean slip between scheduled and actual send.
    pub fn mean_send_slip(&self) -> SimDuration {
        if self.total_sends == 0 {
            SimDuration::ZERO
        } else {
            self.total_send_slip / self.total_sends
        }
    }

    /// The raw counters behind the schedule-fidelity ratios, for
    /// recombination across a fleet of generator instances.
    pub fn send_stats(&self) -> SendStats {
        SendStats {
            late_sends: self.late_sends,
            total_sends: self.total_sends,
            total_slip: self.total_send_slip,
        }
    }

    /// Estimated client-machine energy up to `now` across generator
    /// threads, in core-seconds of C0-equivalent power.
    ///
    /// The HP configuration's `idle=poll` keeps every thread's core at
    /// full power while idle — the accuracy/energy trade-off the paper's
    /// §VI recommendations implicitly price.
    pub fn energy_core_secs(&self, now: SimTime) -> f64 {
        self.threads.iter().map(|t| t.energy_core_secs(now)).sum()
    }

    /// Total wake-ups taken from each C-state across generator threads.
    pub fn wakes_by_state(&self) -> [u64; 4] {
        let mut acc = [0u64; 4];
        for t in &self.threads {
            let ws = t.wakes_by_state();
            for i in 0..4 {
                acc[i] += ws[i];
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp_client(spec: GeneratorSpec, seed: u64) -> (ClientSide, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let lp = MachineConfig::low_power();
        let env = lp.draw_environment(&mut rng);
        (ClientSide::new(spec, &lp, &env), rng)
    }

    fn hp_client(spec: GeneratorSpec, seed: u64) -> (ClientSide, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let hp = MachineConfig::high_performance();
        let env = hp.draw_environment(&mut rng);
        (ClientSide::new(spec, &hp, &env), rng)
    }

    #[test]
    fn presets_match_the_paper() {
        let m = GeneratorSpec::mutilate();
        assert_eq!(m.connections, 160);
        assert_eq!(m.agents, 4);
        assert_eq!(m.timing, TimingMode::BlockWait);
        assert_eq!(m.pom, PointOfMeasurement::InApp);
        assert_eq!(m.loop_mode, LoopMode::Open);

        let u = GeneratorSpec::microsuite_client();
        assert_eq!(u.timing, TimingMode::BusyWait);

        let w = GeneratorSpec::wrk2();
        assert_eq!(w.connections, 20);
        assert_eq!(w.timing, TimingMode::BlockWait);
    }

    #[test]
    fn block_wait_sends_slip_on_lp() {
        let (mut client, mut rng) = lp_client(GeneratorSpec::mutilate(), 1);
        let plan = client.plan_send(0, SimTime::from_ms(10), &mut rng);
        // Waking from C6 costs >100 µs before the send leaves.
        assert!(plan.wire >= SimTime::from_ms(10) + SimDuration::from_us(50), "wire {}", plan.wire);
        assert!(client.mean_send_slip() > SimDuration::from_us(50));
    }

    #[test]
    fn block_wait_sends_barely_slip_on_hp() {
        let (mut client, mut rng) = hp_client(GeneratorSpec::mutilate(), 2);
        let plan = client.plan_send(0, SimTime::from_ms(10), &mut rng);
        assert!(plan.wire <= SimTime::from_ms(10) + SimDuration::from_us(10), "wire {}", plan.wire);
        assert_eq!(client.late_send_fraction(), 0.0);
    }

    #[test]
    fn busy_wait_sends_are_exact_even_on_lp() {
        // The µSuite client's arrival loop spins: the workload is not
        // disrupted even on an untuned machine (Table III: "no risk").
        let (mut client, mut rng) = lp_client(GeneratorSpec::microsuite_client(), 3);
        let plan = client.plan_send(0, SimTime::from_ms(10), &mut rng);
        assert_eq!(plan.stamp, SimTime::from_ms(10));
        assert!(plan.wire <= SimTime::from_ms(10) + SimDuration::from_us(3));
    }

    #[test]
    fn receive_path_pays_wake_on_lp_even_for_busy_wait() {
        // The in-app receive timestamp is inflated on LP for both timing
        // modes — the mechanism behind HDSearch's residual LP/HP gap.
        let (mut lp, mut r1) = lp_client(GeneratorSpec::microsuite_client(), 4);
        let (mut hp, mut r2) = hp_client(GeneratorSpec::microsuite_client(), 4);
        let nic = SimTime::from_ms(20);
        let lp_plan = lp.receive(0, nic, &mut r1);
        let hp_plan = hp.receive(0, nic, &mut r2);
        assert!(lp_plan.app > hp_plan.app, "LP app stamp {} !> HP {}", lp_plan.app, hp_plan.app);
        // Point-of-measurement ordering holds everywhere.
        for plan in [lp_plan, hp_plan] {
            assert!(plan.stamp(PointOfMeasurement::Nic) <= plan.stamp(PointOfMeasurement::Kernel));
            assert!(plan.stamp(PointOfMeasurement::Kernel) <= plan.stamp(PointOfMeasurement::InApp));
        }
    }

    #[test]
    fn burst_of_due_sends_serializes_on_one_thread() {
        let (mut client, mut rng) = lp_client(GeneratorSpec::mutilate(), 5);
        // Three sends due at the same instant on connections owned by the
        // same thread (conn, conn+threads, conn+2*threads).
        let threads = client.spec().total_threads() as usize;
        let due = SimTime::from_ms(50);
        let w1 = client.plan_send(0, due, &mut rng).wire;
        let w2 = client.plan_send(threads, due, &mut rng).wire;
        let w3 = client.plan_send(2 * threads, due, &mut rng).wire;
        assert!(w1 < w2 && w2 < w3, "sends did not serialize: {w1} {w2} {w3}");
    }

    #[test]
    fn different_threads_do_not_serialize() {
        let (mut client, mut rng) = hp_client(GeneratorSpec::mutilate(), 6);
        let due = SimTime::from_ms(50);
        let w1 = client.plan_send(0, due, &mut rng).wire;
        let w2 = client.plan_send(1, due, &mut rng).wire;
        // Consecutive connections live on different threads.
        assert!(client.thread_of(0) != client.thread_of(1));
        assert!((w1.as_ns() as i64 - w2.as_ns() as i64).abs() < 10_000);
    }

    #[test]
    fn arrival_processes_have_right_mean() {
        let mut rng = SimRng::seed_from_u64(7);
        for kind in [ArrivalKind::Exponential, ArrivalKind::Deterministic, ArrivalKind::LogNormal(0.5)] {
            let p = ArrivalProcess::new(kind, SimDuration::from_us(100));
            let n = 50_000;
            let total: f64 = (0..n).map(|_| p.next_gap(&mut rng).as_us()).sum();
            let mean = total / n as f64;
            assert!((mean - 100.0).abs() < 3.0, "{kind:?}: mean {mean}");
            assert_eq!(p.mean_gap(), SimDuration::from_us(100));
        }
    }

    #[test]
    fn gap_buffer_is_bit_identical_to_scalar_draws() {
        // Pre-drawing batches on the same stream must reproduce the
        // scalar draw-per-send sequence exactly — the tentpole invariant
        // of the batch layer.
        for kind in [ArrivalKind::Exponential, ArrivalKind::LogNormal(0.4), ArrivalKind::Deterministic] {
            let p = ArrivalProcess::new(kind, SimDuration::from_us(120));
            let mut scalar_rng = SimRng::seed_from_u64(99);
            let mut buf_rng = SimRng::seed_from_u64(99);
            let mut buf = GapBuffer::new();
            for i in 0..500 {
                let want = p.next_gap(&mut scalar_rng);
                let got = buf.next_gap(&p, &mut buf_rng);
                assert_eq!(got, want, "{kind:?}: gap {i} diverged");
            }
        }
    }

    #[test]
    fn gap_buffer_retransforms_across_a_rate_switch() {
        // A phase boundary swaps the process mid-buffer; the unconsumed
        // tail must come out as if each gap had been drawn scalar-wise
        // under the process in effect at consumption time.
        let p1 = ArrivalProcess::new(ArrivalKind::Exponential, SimDuration::from_us(100));
        let p2 = ArrivalProcess::new(ArrivalKind::Exponential, SimDuration::from_us(25));
        // Switch mid-batch (10 < GAP_BATCH) and at a batch boundary.
        for (switch_at, total) in [(10usize, 100usize), (64, 200)] {
            let mut scalar_rng = SimRng::seed_from_u64(7 + switch_at as u64);
            let mut buf_rng = SimRng::seed_from_u64(7 + switch_at as u64);
            let mut buf = GapBuffer::new();
            for i in 0..total {
                let (scalar_p, buf_p) = if i < switch_at { (&p1, &p1) } else { (&p2, &p2) };
                if i == switch_at {
                    buf.reconfigure(buf_p);
                }
                let want = scalar_p.next_gap(&mut scalar_rng);
                let got = buf.next_gap(buf_p, &mut buf_rng);
                assert_eq!(got, want, "switch@{switch_at}: gap {i} diverged");
            }
        }
    }

    #[test]
    fn superposed_arrivals_pool_the_rate() {
        // A pool of 50 members at 100 µs mean gap is one process at 2 µs.
        let pooled = ArrivalProcess::superposed(ArrivalKind::Exponential, SimDuration::from_us(100), 50);
        assert_eq!(pooled.mean_gap(), SimDuration::from_us(2));
        let mut rng = SimRng::seed_from_u64(13);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| pooled.next_gap(&mut rng).as_us()).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "pooled mean {mean}");
        // One member is the identity — what makes a population-1 cohort
        // bit-identical to an explicit node.
        let solo = ArrivalProcess::superposed(ArrivalKind::Exponential, SimDuration::from_us(100), 1);
        assert_eq!(solo.mean_gap(), SimDuration::from_us(100));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn superposed_rejects_an_empty_pool() {
        ArrivalProcess::superposed(ArrivalKind::Exponential, SimDuration::from_us(10), 0);
    }

    #[test]
    fn spec_builders() {
        let s = GeneratorSpec::mutilate()
            .with_timing(TimingMode::BusyWait)
            .with_pom(PointOfMeasurement::Nic)
            .closed_loop(SimDuration::from_us(50));
        assert_eq!(s.timing, TimingMode::BusyWait);
        assert_eq!(s.pom, PointOfMeasurement::Nic);
        assert_eq!(s.loop_mode, LoopMode::Closed);
        assert_eq!(s.think_time, SimDuration::from_us(50));
        assert_eq!(GeneratorSpec::synthetic_client().connections, 80);
        assert_eq!(GeneratorSpec::mutilate().with_connections(40).connections, 40);
        // Degenerate splits clamp to one connection.
        assert_eq!(GeneratorSpec::mutilate().with_connections(0).connections, 1);
    }

    #[test]
    fn send_stats_expose_the_raw_counters() {
        let (mut client, mut rng) = lp_client(GeneratorSpec::mutilate(), 9);
        for i in 1..=10u64 {
            client.plan_send(0, SimTime::from_ms(5 * i), &mut rng);
        }
        let s = client.send_stats();
        assert_eq!(s.total_sends, 10);
        assert!(s.late_sends <= s.total_sends);
        // The ratios recombine exactly from the raw counters.
        assert_eq!(client.late_send_fraction(), s.late_sends as f64 / s.total_sends as f64);
        assert_eq!(client.mean_send_slip(), s.total_slip / s.total_sends);
    }

    #[test]
    fn wake_statistics_visible() {
        let (mut client, mut rng) = lp_client(GeneratorSpec::mutilate(), 8);
        for i in 1..=20u64 {
            client.plan_send(0, SimTime::from_ms(5 * i), &mut rng);
        }
        let wakes: u64 = client.wakes_by_state().iter().sum();
        assert!(wakes >= 19, "wakes {wakes}");
    }

    #[test]
    fn hp_client_burns_more_energy_while_idle() {
        let (mut lp, mut r1) = lp_client(GeneratorSpec::mutilate(), 21);
        let (mut hp, mut r2) = hp_client(GeneratorSpec::mutilate(), 21);
        // Sparse activity: both clients mostly idle.
        for i in 1..=20u64 {
            lp.plan_send(0, SimTime::from_ms(10 * i), &mut r1);
            hp.plan_send(0, SimTime::from_ms(10 * i), &mut r2);
        }
        let horizon = SimTime::from_ms(210);
        let e_lp = lp.energy_core_secs(horizon);
        let e_hp = hp.energy_core_secs(horizon);
        assert!(e_hp > 1.5 * e_lp, "HP (poll) {e_hp} !>> LP {e_lp}");
    }

    #[test]
    fn reconfigure_to_lp_slips_subsequent_sends() {
        let (mut client, mut rng) = hp_client(GeneratorSpec::mutilate(), 11);
        for i in 1..=5u64 {
            client.plan_send(0, SimTime::from_ms(10 * i), &mut rng);
        }
        let hp_slip = client.mean_send_slip();
        assert!(hp_slip < SimDuration::from_us(10));
        let before = client.send_stats();

        // Mid-run the machine falls back to deep idle states.
        let lp = MachineConfig::low_power();
        let env = lp.draw_environment(&mut rng);
        client.reconfigure(&lp, &env);
        assert_eq!(client.send_stats(), before, "counters survive reconfiguration");
        let plan = client.plan_send(0, SimTime::from_ms(100), &mut rng);
        assert!(
            plan.wire >= SimTime::from_ms(100) + SimDuration::from_us(50),
            "post-switch send must pay the deep wake path, wire {}",
            plan.wire
        );
    }

    #[test]
    #[should_panic(expected = "positive mean gap")]
    fn zero_gap_rejected() {
        ArrivalProcess::new(ArrivalKind::Exponential, SimDuration::ZERO);
    }
}
