//! The core timing resource — where all the Table II knobs meet.
//!
//! Every simulated execution context (a mutilate worker thread, a pinned
//! memcached worker, an HDSearch bucket server) is a [`CoreResource`]: a
//! FIFO processor that, on each piece of work, may first pay the machine's
//! *wake path* — C-state exit, DVFS ramp, uncore ramp, scheduler wake —
//! depending on how long it idled and how the machine is configured.
//!
//! This is the paper's mechanism in one place: on an LP machine the wake
//! path costs tens-to-hundreds of microseconds and varies with governor
//! predictions; on an HP machine it is nearly free and nearly constant.

use tpv_sim::dist::{LogNormal, Sampler};
use tpv_sim::{FifoResource, SimDuration, SimRng, SimTime};

use crate::cstate::CState;
use crate::env::RunEnvironment;
use crate::machine::MachineConfig;

/// Outcome of placing one piece of work on a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreGrant {
    /// When execution began (arrival + queueing + wake).
    pub start: SimTime,
    /// When the work completed.
    pub end: SimTime,
    /// Wake-path cost paid before execution (zero if the core was busy).
    pub wake_latency: SimDuration,
    /// The C-state the core was found in.
    pub cstate: CState,
    /// Time spent waiting behind earlier work.
    pub queue_wait: SimDuration,
}

/// A simulated core/thread execution context.
///
/// # Example
///
/// ```
/// use tpv_hw::{CoreResource, MachineConfig};
/// use tpv_sim::{SimDuration, SimRng, SimTime};
///
/// let hp = MachineConfig::high_performance();
/// let mut rng = SimRng::seed_from_u64(0);
/// let env = hp.draw_environment(&mut rng);
/// let mut core = CoreResource::new(&hp, &env);
/// // HP machines poll: waking after long idleness is still cheap.
/// let g = core.acquire(SimTime::from_ms(10), SimDuration::from_us(2), &mut rng);
/// assert!(g.wake_latency <= SimDuration::from_us(5));
/// ```
#[derive(Debug, Clone)]
pub struct CoreResource {
    fifo: FifoResource,
    config: MachineConfig,
    env: RunEnvironment,
    /// Estimated number of concurrently active cores on the socket, used
    /// for the turbo bin; callers may update it as load changes.
    active_cores_estimate: u32,
    /// EWMA of recent idle-period lengths — the menu governor's
    /// "typical interval" history, which it uses to predict the next
    /// idle period when it has no better timer hint.
    idle_ewma: Option<SimDuration>,
    wakes_by_state: [u64; 4],
    idle_by_state: [SimDuration; 4],
    total_wake_time: SimDuration,
    /// Hot-path caches, recomputed whenever the inputs they close over
    /// change (config/env swap, occupancy estimate). Pure memoization:
    /// the cached values are bit-identical to recomputing per acquire.
    cache: AcquireCache,
}

/// Per-acquire constants of a `(config, env, active_cores)` triple,
/// hoisted out of the hot loop. `acquire_with_hint` runs on every
/// simulated request leg (client send, IRQ, worker, client receive), so
/// the `ln`/divisions behind these values are worth paying exactly once.
#[derive(Debug, Clone)]
struct AcquireCache {
    /// `config.work_scale(active_cores, env)`.
    base_stretch: f64,
    /// Governor prediction noise (`None` when `prediction_sigma == 0`).
    prediction_noise: Option<LogNormal>,
    /// C-state exit jitter (`None` when `wake_jitter_sigma == 0`).
    wake_jitter: Option<LogNormal>,
}

impl AcquireCache {
    fn new(config: &MachineConfig, env: &RunEnvironment, active_cores: u32) -> Self {
        let vp = &config.variability;
        AcquireCache {
            base_stretch: config.work_scale(active_cores, env),
            prediction_noise: (vp.prediction_sigma > 0.0)
                .then(|| LogNormal::with_mean(1.0, vp.prediction_sigma)),
            wake_jitter: (vp.wake_jitter_sigma > 0.0)
                .then(|| LogNormal::with_mean(1.0, vp.wake_jitter_sigma)),
        }
    }
}

/// The menu governor's safety factor: a state is only entered when the
/// predicted idle period exceeds its target residency by this margin.
const RESIDENCY_MARGIN: f64 = 2.0;

/// EWMA smoothing factor for the idle-interval history.
const IDLE_EWMA_ALPHA: f64 = 0.3;

impl CoreResource {
    /// A core of the given machine in the given run environment. Idle
    /// periods enter the C-states its policy allows (`idle=poll` keeps it
    /// in C0).
    pub fn new(config: &MachineConfig, env: &RunEnvironment) -> Self {
        CoreResource {
            fifo: FifoResource::new(),
            config: *config,
            env: *env,
            active_cores_estimate: 4,
            idle_ewma: None,
            wakes_by_state: [0; 4],
            idle_by_state: [SimDuration::ZERO; 4],
            total_wake_time: SimDuration::ZERO,
            cache: AcquireCache::new(config, env, 4),
        }
    }

    /// Sets the occupancy estimate used for the turbo frequency bin.
    pub fn set_active_cores_estimate(&mut self, active: u32) {
        self.active_cores_estimate = active.max(1);
        self.cache = AcquireCache::new(&self.config, &self.env, self.active_cores_estimate);
    }

    /// Swaps this core's machine configuration and run environment
    /// mid-run — what a [`crate::DynamicMachine`] phase boundary does to
    /// every core of a node.
    ///
    /// Queue state and all accumulated statistics (busy time, wakes,
    /// idle residency, energy) survive: the machine changed, the work
    /// history did not. The governor's idle-interval history also
    /// survives — the OS keeps it across policy switches. Idle residency
    /// accrued before the switch is priced by the *new* C-state table in
    /// [`CoreResource::energy_core_secs`], an approximation that is exact
    /// whenever the phases share a processor (they model one physical
    /// machine, so they should).
    pub fn reconfigure(&mut self, config: &MachineConfig, env: &RunEnvironment) {
        self.config = *config;
        self.env = *env;
        self.cache = AcquireCache::new(config, env, self.active_cores_estimate);
    }

    /// Places `work` (expressed at nominal frequency) on this core at
    /// `now`, paying any wake path first.
    pub fn acquire(&mut self, now: SimTime, work: SimDuration, rng: &mut SimRng) -> CoreGrant {
        self.acquire_with_hint(now, work, rng, None)
    }

    /// Like [`acquire`](Self::acquire), but caps the governor's idle
    /// prediction with a socket-wide idleness hint.
    ///
    /// Deep C-states with a package component (C1E and below) are only
    /// entered when the whole socket has been quiet; server worker pools
    /// pass `min(own idle, socket idle)` here so that a server under
    /// steady load never reaches C1E even though each individual worker
    /// idles between requests — the effect behind the paper's Fig. 3
    /// (C1E hurts only at the lowest load for a smooth client).
    pub fn acquire_with_hint(
        &mut self,
        now: SimTime,
        work: SimDuration,
        rng: &mut SimRng,
        socket_idle: Option<SimDuration>,
    ) -> CoreGrant {
        let mut wake = SimDuration::ZERO;
        let mut state = CState::C0;
        let mut stretch = self.cache.base_stretch;

        let idle_gap =
            if self.fifo.is_idle_at(now) { now.since(self.fifo.busy_until()) } else { SimDuration::ZERO };

        if !idle_gap.is_zero() {
            // The governor chose a state when the core went idle; it could
            // not see the actual gap, only its history of recent idle
            // periods (the menu governor's "typical interval"), optionally
            // capped by package-level idleness, with per-run learned bias
            // and per-decision noise.
            let prediction_noise = match &self.cache.prediction_noise {
                Some(dist) => dist.sample(rng),
                None => 1.0,
            };
            let history = self.idle_ewma.unwrap_or(idle_gap);
            let basis = match socket_idle {
                Some(s) => history.min(s),
                None => history,
            };
            let predicted = basis.scale(self.env.governor_bias * prediction_noise / RESIDENCY_MARGIN);
            state = self.config.cstates.select_state(&self.config.cstate_table, predicted);
            // Update the governor's history with the idle period that
            // actually happened.
            self.idle_ewma = Some(match self.idle_ewma {
                Some(prev) => SimDuration::from_ns(
                    (IDLE_EWMA_ALPHA * idle_gap.as_ns() as f64
                        + (1.0 - IDLE_EWMA_ALPHA) * prev.as_ns() as f64) as u64,
                ),
                None => idle_gap,
            });

            // C-state exit.
            let exit_jitter = match &self.cache.wake_jitter {
                Some(dist) => dist.sample(rng),
                None => 1.0,
            };
            let exit = self.config.cstate_table.exit_latency(state).scale(exit_jitter);

            // DVFS ramp: a stall, plus slower execution of this work item.
            let dvfs = self.config.dvfs.wake_cost(&self.config.spec, idle_gap, self.env.dvfs_bias);
            stretch *= dvfs.slowdown_factor();

            // Uncore ramp.
            let uncore = self.config.uncore.wake_penalty(idle_gap);

            // OS wake path (interrupt → scheduler → context switch),
            // executed at the ramping frequency.
            let sched = self.config.thread_wake_cost.scale(dvfs.slowdown_factor().min(2.0));

            wake = (exit + dvfs.stall + uncore + sched).scale(self.env.wake_bias);
            self.wakes_by_state[state_index(state)] += 1;
            self.idle_by_state[state_index(state)] += idle_gap;
            self.total_wake_time += wake;
        }

        let service = wake + work.scale(stretch);
        let grant = self.fifo.offer(now, service);
        CoreGrant {
            start: grant.start,
            end: grant.end,
            wake_latency: wake,
            cstate: state,
            queue_wait: grant.queue_wait,
        }
    }

    /// When the core next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.fifo.busy_until()
    }

    /// Whether the core is idle at `now`.
    pub fn is_idle_at(&self, now: SimTime) -> bool {
        self.fifo.is_idle_at(now)
    }

    /// Total CPU-busy time so far.
    pub fn busy_time(&self) -> SimDuration {
        self.fifo.busy_time()
    }

    /// Number of items executed so far.
    pub fn items(&self) -> u64 {
        self.fifo.items()
    }

    /// How many wake-ups were taken from each C-state
    /// `[C0, C1, C1E, C6]`.
    pub fn wakes_by_state(&self) -> [u64; 4] {
        self.wakes_by_state
    }

    /// Cumulative time spent in wake paths.
    pub fn total_wake_time(&self) -> SimDuration {
        self.total_wake_time
    }

    /// Idle residency attributed to each C-state `[C0, C1, C1E, C6]`
    /// (C0 residency = busy-wait polling).
    pub fn idle_time_by_state(&self) -> [SimDuration; 4] {
        self.idle_by_state
    }

    /// Estimated core energy up to `now`, in core-seconds of C0-equivalent
    /// power (busy time at power 1.0, idle residency weighted by the
    /// C-state table's relative power).
    ///
    /// This is the flip side of the paper's tuning advice: `idle=poll`
    /// buys timing accuracy by burning full power while idle.
    pub fn energy_core_secs(&self, now: SimTime) -> f64 {
        let mut energy = self.fifo.busy_time().as_secs() + self.total_wake_time.as_secs();
        for (i, &idle) in self.idle_by_state.iter().enumerate() {
            let state = [CState::C0, CState::C1, CState::C1E, CState::C6][i];
            energy += idle.as_secs() * self.config.cstate_table.params(state).relative_power;
        }
        // Trailing idleness after the last work item: attribute it to the
        // state the core would settle into (C0 under `idle=poll`).
        if now > self.fifo.busy_until() {
            let trailing = now.since(self.fifo.busy_until()).as_secs();
            let settle = self.config.cstates.deepest();
            energy += trailing * self.config.cstate_table.params(settle).relative_power;
        }
        energy
    }
}

fn state_index(s: CState) -> usize {
    match s {
        CState::C0 => 0,
        CState::C1 => 1,
        CState::C1E => 2,
        CState::C6 => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cstate::CStatePolicy;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(42)
    }

    #[test]
    fn lp_core_pays_big_wake_after_long_idle() {
        let lp = MachineConfig::low_power();
        let mut r = rng();
        let env = RunEnvironment::neutral();
        let mut core = CoreResource::new(&lp, &env);
        // Consistently long (10 ms) idle periods: the governor's history
        // converges on "long" and most wakes come from C6. Individual
        // wakes vary with prediction noise, so assert on the aggregate.
        let mut t = SimTime::ZERO;
        let n = 200u64;
        for _ in 0..n {
            t += SimDuration::from_ms(10);
            core.acquire(t, SimDuration::from_us(2), &mut r);
        }
        let wakes = core.wakes_by_state();
        assert!(wakes[3] > n / 2, "C6 wakes only {} of {n}: {wakes:?}", wakes[3]);
        let mean_wake = core.total_wake_time() / n;
        // C6 exit (133 µs) + sched (~25 µs) dominate the average.
        assert!(mean_wake >= SimDuration::from_us(80), "mean wake = {mean_wake}");
    }

    #[test]
    fn hp_core_wake_is_microseconds() {
        let hp = MachineConfig::high_performance();
        let mut r = rng();
        let env = RunEnvironment::neutral();
        let mut core = CoreResource::new(&hp, &env);
        let g = core.acquire(SimTime::from_ms(10), SimDuration::from_us(2), &mut r);
        assert!(g.wake_latency <= SimDuration::from_us(5), "wake = {}", g.wake_latency);
        assert_eq!(g.cstate, CState::C0);
    }

    #[test]
    fn busy_core_pays_no_wake() {
        let lp = MachineConfig::low_power();
        let mut r = rng();
        let env = RunEnvironment::neutral();
        let mut core = CoreResource::new(&lp, &env);
        let g1 = core.acquire(SimTime::from_ms(5), SimDuration::from_us(100), &mut r);
        assert!(g1.wake_latency > SimDuration::ZERO);
        // Second item arrives while the first still runs: no new wake.
        let g2 =
            core.acquire(SimTime::from_ms(5) + SimDuration::from_us(10), SimDuration::from_us(5), &mut r);
        assert_eq!(g2.wake_latency, SimDuration::ZERO);
        assert_eq!(g2.cstate, CState::C0);
        assert!(g2.queue_wait > SimDuration::ZERO);
        assert!(g2.start >= g1.end);
    }

    #[test]
    fn short_idle_picks_shallow_state() {
        // Disable prediction noise so selection is deterministic.
        let mut lp = MachineConfig::low_power();
        lp.variability = crate::env::VariabilityProfile::none();
        let mut r = rng();
        let env = RunEnvironment::neutral();
        let mut core = CoreResource::new(&lp, &env);
        // Prime the core so the next idle gap is exactly 50 µs.
        let g0 = core.acquire(SimTime::ZERO, SimDuration::from_us(10), &mut r);
        let next = g0.end + SimDuration::from_us(50);
        let g1 = core.acquire(next, SimDuration::from_us(2), &mut r);
        // 50 µs idle (margin-adjusted prediction 25 µs) ⇒ C1E (residency
        // 20 µs), not C6 (residency 600 µs).
        assert_eq!(g1.cstate, CState::C1E);
        assert!(g1.wake_latency < SimDuration::from_us(133));
    }

    #[test]
    fn server_baseline_caps_at_c1() {
        let mut srv = MachineConfig::server_baseline();
        srv.variability = crate::env::VariabilityProfile::none();
        let mut r = rng();
        let env = RunEnvironment::neutral();
        let mut core = CoreResource::new(&srv, &env);
        let g = core.acquire(SimTime::from_ms(50), SimDuration::from_us(10), &mut r);
        assert_eq!(g.cstate, CState::C1);
        // C1 exit (2 µs) + thread wake (3 µs): cheap.
        assert!(g.wake_latency <= SimDuration::from_us(8), "wake = {}", g.wake_latency);
    }

    #[test]
    fn c1e_policy_costs_more_than_c1_policy() {
        let mut base = MachineConfig::server_baseline();
        base.variability = crate::env::VariabilityProfile::none();
        let c1e = base.with_cstates(CStatePolicy::UpToC1E);
        let env = RunEnvironment::neutral();
        let mut r1 = rng();
        let mut r2 = rng();
        let mut core_c1 = CoreResource::new(&base, &env);
        let mut core_c1e = CoreResource::new(&c1e, &env);
        let at = SimTime::from_us(500);
        let w = SimDuration::from_us(10);
        let g1 = core_c1.acquire(at, w, &mut r1);
        let g2 = core_c1e.acquire(at, w, &mut r2);
        assert!(g2.wake_latency > g1.wake_latency);
        assert_eq!(g2.cstate, CState::C1E);
    }

    #[test]
    fn lp_work_is_stretched_by_dvfs_after_idle() {
        let mut lp = MachineConfig::low_power();
        lp.variability = crate::env::VariabilityProfile::none();
        lp.turbo = crate::turbo::TurboConfig::off(); // isolate DVFS
        let env = RunEnvironment::neutral();
        let mut r = rng();
        let mut core = CoreResource::new(&lp, &env);
        let g = core.acquire(SimTime::from_ms(10), SimDuration::from_us(10), &mut r);
        // Execution (end - start - wake) is longer than the nominal 10 µs
        // because the core ramps from 0.8 GHz.
        let exec = g.end.since(g.start).saturating_sub(g.wake_latency);
        assert!(exec > SimDuration::from_us(20), "exec = {exec}");
    }

    #[test]
    fn wake_statistics_accumulate() {
        let lp = MachineConfig::low_power();
        let env = RunEnvironment::neutral();
        let mut r = rng();
        let mut core = CoreResource::new(&lp, &env);
        let mut t = SimTime::ZERO;
        for _ in 0..50 {
            t += SimDuration::from_ms(2);
            core.acquire(t, SimDuration::from_us(3), &mut r);
        }
        let total: u64 = core.wakes_by_state().iter().sum();
        assert_eq!(total, 50);
        assert!(core.items() == 50);
        assert!(core.busy_time() > SimDuration::ZERO);
    }

    #[test]
    fn spinning_cores_burn_more_energy_than_sleeping_cores() {
        // The accuracy/energy trade-off: idle=poll keeps the core in C0.
        let lp = MachineConfig::low_power();
        let env = RunEnvironment::neutral();
        let mut r1 = rng();
        let mut r2 = rng();
        let mut sleeper = CoreResource::new(&lp, &env);
        let mut spinner = CoreResource::new(&lp.with_cstates(CStatePolicy::PollIdle), &env);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t += SimDuration::from_ms(1);
            sleeper.acquire(t, SimDuration::from_us(2), &mut r1);
            spinner.acquire(t, SimDuration::from_us(2), &mut r2);
        }
        let horizon = t + SimDuration::from_ms(1);
        let e_sleep = sleeper.energy_core_secs(horizon);
        let e_spin = spinner.energy_core_secs(horizon);
        assert!(e_spin > 2.0 * e_sleep, "spin {e_spin} !>> sleep {e_sleep}");
        // The spinner's idle residency is all C0.
        let idle = spinner.idle_time_by_state();
        assert!(idle[0] > SimDuration::from_ms(90));
        assert_eq!(idle[1] + idle[2] + idle[3], SimDuration::ZERO);
        // The sleeper's is spread across sleep states.
        let sleep_idle = sleeper.idle_time_by_state();
        assert!(sleep_idle[1] + sleep_idle[2] + sleep_idle[3] > SimDuration::from_ms(50));
    }

    #[test]
    fn energy_grows_with_time_and_includes_busy_work() {
        let hp = MachineConfig::high_performance();
        let env = RunEnvironment::neutral();
        let mut r = rng();
        let mut core = CoreResource::new(&hp, &env);
        core.acquire(SimTime::ZERO, SimDuration::from_ms(10), &mut r);
        let early = core.energy_core_secs(SimTime::from_ms(10));
        let late = core.energy_core_secs(SimTime::from_ms(20));
        assert!(early >= 0.009, "busy work must count: {early}");
        assert!(late > early, "trailing idle must count");
    }

    #[test]
    fn reconfigure_changes_the_wake_path_but_keeps_history() {
        let mut r = rng();
        let env = RunEnvironment::neutral();
        let mut core = CoreResource::new(&MachineConfig::high_performance(), &env);
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            t += SimDuration::from_ms(2);
            core.acquire(t, SimDuration::from_us(2), &mut r);
        }
        let items_before = core.items();
        let busy_before = core.busy_time();
        assert_eq!(core.wakes_by_state()[3], 0, "HP never sleeps to C6");

        // Power budget exhausted: deep idle re-enabled mid-run.
        let lp = MachineConfig::low_power();
        core.reconfigure(&lp, &env);
        assert_eq!(core.items(), items_before, "history survives reconfiguration");
        assert_eq!(core.busy_time(), busy_before);
        for _ in 0..50 {
            t += SimDuration::from_ms(10);
            core.acquire(t, SimDuration::from_us(2), &mut r);
        }
        assert!(core.wakes_by_state()[3] > 0, "post-switch wakes come from deep states");
        assert_eq!(core.items(), items_before + 50);
    }

    #[test]
    fn deterministic_given_seed() {
        let lp = MachineConfig::low_power();
        let env = RunEnvironment::neutral();
        let run = |seed| {
            let mut r = SimRng::seed_from_u64(seed);
            let mut core = CoreResource::new(&lp, &env);
            let mut t = SimTime::ZERO;
            let mut ends = Vec::new();
            for _ in 0..20 {
                t += SimDuration::from_us(700);
                ends.push(core.acquire(t, SimDuration::from_us(2), &mut r).end);
            }
            ends
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
