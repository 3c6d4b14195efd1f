//! A pool of pinned service workers on a server machine.
//!
//! Mirrors the paper's deployment style: "we run a memcached instance with
//! 10 worker threads pinned on a single socket". Each worker is a
//! [`CoreResource`] of the server's [`MachineConfig`], so server-side
//! C-states (the C1E study) and SMT (the SMT study) act here:
//!
//! * **Connection affinity** — requests of a connection always hit the
//!   same worker (memcached's dispatch), so bursty clients concentrate
//!   load.
//! * **SMT** — with SMT *off*, kernel softirq work executes on the worker
//!   cores and is serialized into the request path *and* the worker's
//!   budget; with SMT *on*, softirq runs on sibling hardware threads:
//!   still serial in the latency path, but the worker core is free sooner,
//!   at the price of sibling-contention inflation under load.
//! * **Interference** — the per-run background spikes land on workers,
//!   scaled by the utilisation-dependent collision factor.

use tpv_hw::{CoreGrant, CoreResource, MachineConfig, RunEnvironment};
use tpv_sim::dist::{Exponential, Sampler};
use tpv_sim::{SimDuration, SimRng, SimTime};

use crate::interference::{InterferenceProfile, RunInterference};

/// A FIFO pool of workers with connection affinity.
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<CoreResource>,
    /// The core NIC interrupts land on; its wake path (IRQ + softirq
    /// dispatch) precedes every request and is subject to the same
    /// package-idle gating as the workers.
    irq_core: CoreResource,
    machine: MachineConfig,
    interference: RunInterference,
    started: SimTime,
    contention_coef: f64,
    /// Running Σ of worker busy time in ns — identical to summing
    /// `busy_time()` over `workers`, maintained incrementally so the
    /// per-request utilisation check does not walk every core.
    workers_busy_sum_ns: u64,
    /// Running max of worker and IRQ-core `busy_until` — busy horizons
    /// only move forward, so the max is maintainable in O(1).
    socket_busy_max: SimTime,
}

/// Package-coupled states (C1E and deeper) only engage when the whole
/// socket has been quiet relative to the state's residency; this divisor
/// turns observed socket-wide idleness into the governor's effective
/// prediction cap. The value calibrates the C1E effect to appear at the
/// paper's 10K QPS point and vanish by 50K (Fig. 3).
const SOCKET_IDLE_DIVISOR: u64 = 3;

/// CPU cost of the IRQ + softirq dispatch leg preceding worker handling.
const IRQ_DISPATCH_COST: SimDuration = SimDuration::from_ns(500);

/// Outcome of executing one request leg on the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolGrant {
    /// When the leg finished.
    pub end: SimTime,
    /// Busy time consumed (work only, excluding queueing).
    pub busy: SimDuration,
    /// Wake-path latency paid by the worker (the server-side C-state
    /// effect).
    pub wake_latency: SimDuration,
    /// Queueing delay behind earlier requests on the same worker.
    pub queue_wait: SimDuration,
}

impl WorkerPool {
    /// Creates `n` workers of `machine` in run environment `env`, with a
    /// per-run interference schedule over `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(
        machine: &MachineConfig,
        env: &RunEnvironment,
        n: usize,
        interference: &InterferenceProfile,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        assert!(n > 0, "worker pool needs at least one worker");
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            let mut core = CoreResource::new(machine, env);
            core.set_active_cores_estimate(n as u32);
            workers.push(core);
        }
        let mut irq_core = CoreResource::new(machine, env);
        irq_core.set_active_cores_estimate(n as u32);
        WorkerPool {
            workers,
            irq_core,
            machine: *machine,
            interference: RunInterference::draw(interference, n, horizon, rng),
            started: SimTime::ZERO,
            contention_coef: 0.2,
            workers_busy_sum_ns: 0,
            socket_busy_max: SimTime::ZERO,
        }
    }

    /// Sets the memory/LLC-contention coefficient: per-request work
    /// inflates by `1 + coef × utilisation`. Memory-bound services (a KV
    /// store walking hash chains) set this high; cache-resident busy
    /// loops (the synthetic service) set it to zero.
    pub fn set_contention_coef(&mut self, coef: f64) {
        self.contention_coef = coef.max(0.0);
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the pool has no workers (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The worker a connection's requests are dispatched to.
    pub fn worker_for_connection(&self, conn: usize) -> usize {
        // Fibonacci hashing spreads sequential connection ids evenly.
        let mixed = (conn as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 31;
        (mixed % self.workers.len() as u64) as usize
    }

    /// Pool-wide utilisation so far at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        debug_assert_eq!(
            self.workers_busy_sum_ns,
            self.workers.iter().map(|w| w.busy_time().as_ns()).sum::<u64>(),
            "incremental busy sum drifted from the per-worker truth"
        );
        let span = now.since(self.started).as_ns().max(1) as f64;
        (self.workers_busy_sum_ns as f64 / (span * self.workers.len() as f64)).min(1.0)
    }

    /// Executes one request leg on `worker`: injects any due interference,
    /// applies the SMT softirq placement policy, and runs `service_work`.
    ///
    /// `softirq` is the kernel network work for this request; where it
    /// runs depends on the machine's SMT setting (see module docs).
    pub fn execute(
        &mut self,
        worker: usize,
        arrival: SimTime,
        service_work: SimDuration,
        softirq: SimDuration,
        rng: &mut SimRng,
    ) -> PoolGrant {
        let smt_on = self.machine.smt.enabled;

        // The running aggregates stand in for walking every core: total
        // busy time (utilisation) and the latest busy-until (package
        // idleness), both maintained after each acquire below.
        let util = self.utilization(arrival);

        // Background spikes collide with workers only when the socket is
        // busy enough that the scheduler cannot migrate them to an idle
        // logical CPU. With SMT on, twice the logical CPUs exist for the
        // same worker count, so collisions are rarer and a colliding
        // spike only costs sibling contention, not a full blockage.
        // Spikes are sparse, so the collision `powf` is only paid when
        // one is actually due.
        let due = self.interference.due_spikes(worker, arrival);
        if !due.is_empty() {
            let logical_share = if smt_on { 0.75 } else { 1.0 };
            // x^1.5 as x·√x: both operations are IEEE-exact, so this is
            // pinned like the polynomial kernels but correctly rounded
            // (≤ ~1.5 ulp) and an order of magnitude cheaper than the
            // exp(1.5·ln x) composition.
            let x = util * logical_share;
            let collision = (x * x.sqrt()).clamp(0.0, 1.0);
            for (t, len) in due {
                let effective = len.scale(collision);
                let effective = if smt_on { effective.scale(0.85) } else { effective };
                if !effective.is_zero() {
                    let before = self.workers[worker].busy_time().as_ns();
                    let grant = self.workers[worker].acquire(t, effective, rng);
                    self.workers_busy_sum_ns += self.workers[worker].busy_time().as_ns() - before;
                    self.socket_busy_max = self.socket_busy_max.max(grant.end);
                }
            }
        }
        let socket_busy_until = self.socket_busy_max;

        // Softirq placement (the SMT mechanism of §V-A):
        //  - SMT off: softirq serialized on the worker core - it is part
        //    of both the latency path and the worker's busy budget.
        //  - SMT on: softirq on the sibling - the request still waits for
        //    it (serial RX path) but the worker core stays free; the
        //    worker's own work inflates with sibling contention.
        let (work_on_worker, path_delay, inflation) = if smt_on {
            (service_work, softirq, self.machine.smt.service_inflation(util))
        } else {
            (service_work + softirq, SimDuration::ZERO, 1.0)
        };

        // Package-coupled idle states (C1E+) need the whole socket quiet;
        // cap the governor's prediction with socket-wide idleness.
        let socket_idle =
            if arrival >= socket_busy_until { arrival.since(socket_busy_until) } else { SimDuration::ZERO };
        let hint = Some(SimDuration::from_ns(socket_idle.as_ns() / SOCKET_IDLE_DIVISOR));

        // The IRQ/softirq dispatch core wakes first (it pays the same
        // package-gated wake path), then the worker.
        let irq = self.irq_core.acquire_with_hint(arrival, IRQ_DISPATCH_COST, rng, hint);
        self.socket_busy_max = self.socket_busy_max.max(irq.end);

        // Memory/LLC contention: per-request work inflates as the socket
        // fills (shared cache and memory bandwidth pressure), which is
        // what makes measured latency climb with load well before
        // saturation (the paper's Fig. 2a/2b slopes).
        let contention = 1.0 + self.contention_coef * util;
        let mut work = work_on_worker.scale(inflation * contention);

        // Kernel scheduling hiccups: even a tuned server occasionally
        // preempts a worker for tens of microseconds (timers, RCU, IRQ
        // rebalancing). This is the baseline tail that makes a healthy
        // p99 sit ~2x the average at low load (Fig. 2b).
        if rng.next_bool(0.012) {
            work += Exponential::with_mean(35.0).sample_us(rng);
        }
        let before = self.workers[worker].busy_time().as_ns();
        let grant: CoreGrant = self.workers[worker].acquire_with_hint(irq.end + path_delay, work, rng, hint);
        self.workers_busy_sum_ns += self.workers[worker].busy_time().as_ns() - before;
        self.socket_busy_max = self.socket_busy_max.max(grant.end);
        PoolGrant {
            end: grant.end,
            busy: work + IRQ_DISPATCH_COST,
            wake_latency: irq.wake_latency + grant.wake_latency,
            queue_wait: grant.queue_wait,
        }
    }

    /// Total wake-ups taken from each C-state across all workers.
    pub fn wakes_by_state(&self) -> [u64; 4] {
        let mut acc = [0u64; 4];
        for w in &self.workers {
            let ws = w.wakes_by_state();
            for i in 0..4 {
                acc[i] += ws[i];
            }
        }
        acc
    }

    /// Total requests executed.
    pub fn items(&self) -> u64 {
        self.workers.iter().map(|w| w.items()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpv_hw::CStatePolicy;

    fn quiet_pool(machine: &MachineConfig, n: usize, seed: u64) -> (WorkerPool, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let env = RunEnvironment::neutral();
        let pool = WorkerPool::new(
            machine,
            &env,
            n,
            &InterferenceProfile::none(),
            SimDuration::from_secs(1),
            &mut rng,
        );
        (pool, rng)
    }

    #[test]
    fn affinity_is_stable_and_in_range() {
        let (pool, _) = quiet_pool(&MachineConfig::server_baseline(), 10, 1);
        for conn in 0..160 {
            let w = pool.worker_for_connection(conn);
            assert!(w < 10);
            assert_eq!(w, pool.worker_for_connection(conn), "affinity must be stable");
        }
        // All workers get some connection out of 160.
        let used: std::collections::HashSet<_> = (0..160).map(|c| pool.worker_for_connection(c)).collect();
        assert!(used.len() >= 8, "affinity too skewed: {used:?}");
    }

    #[test]
    fn smt_off_serializes_softirq_on_worker() {
        let mut srv = MachineConfig::server_baseline();
        srv.variability = tpv_hw::env::VariabilityProfile::none();
        let (mut pool, mut rng) = quiet_pool(&srv, 1, 2);
        let g = pool.execute(
            0,
            SimTime::from_us(100),
            SimDuration::from_us(10),
            SimDuration::from_us(2),
            &mut rng,
        );
        // End = arrival + wake + 12 µs of work (no queue).
        let total = g.end.since(SimTime::from_us(100));
        assert!(total >= SimDuration::from_us(12), "total {total}");
        assert_eq!(g.queue_wait, SimDuration::ZERO);
    }

    #[test]
    fn smt_on_keeps_worker_budget_smaller() {
        let mut on = MachineConfig::server_baseline().with_smt(true);
        on.variability = tpv_hw::env::VariabilityProfile::none();
        let mut off = MachineConfig::server_baseline();
        off.variability = tpv_hw::env::VariabilityProfile::none();
        let (mut pool_on, mut r1) = quiet_pool(&on, 1, 3);
        let (mut pool_off, mut r2) = quiet_pool(&off, 1, 3);
        // Saturate with back-to-back requests; SMT-on worker accrues less
        // busy time per request, so it finishes the batch sooner.
        let mut end_on = SimTime::ZERO;
        let mut end_off = SimTime::ZERO;
        for i in 0..200 {
            let at = SimTime::from_us(i); // arrivals faster than service
            end_on = pool_on.execute(0, at, SimDuration::from_us(10), SimDuration::from_us(2), &mut r1).end;
            end_off = pool_off.execute(0, at, SimDuration::from_us(10), SimDuration::from_us(2), &mut r2).end;
        }
        assert!(end_on < end_off, "SMT on {end_on} !< SMT off {end_off}");
    }

    #[test]
    fn c1e_server_pays_wake_on_idle_arrivals() {
        let mut c1e = MachineConfig::server_baseline().with_cstates(CStatePolicy::UpToC1E);
        c1e.variability = tpv_hw::env::VariabilityProfile::none();
        let mut c1 = MachineConfig::server_baseline();
        c1.variability = tpv_hw::env::VariabilityProfile::none();
        let (mut pool_c1e, mut r1) = quiet_pool(&c1e, 1, 4);
        let (mut pool_c1, mut r2) = quiet_pool(&c1, 1, 4);
        // Arrivals 500 µs apart: the worker idles in between.
        let mut wake_c1e = SimDuration::ZERO;
        let mut wake_c1 = SimDuration::ZERO;
        for i in 1..=20u64 {
            let at = SimTime::from_us(500 * i);
            wake_c1e +=
                pool_c1e.execute(0, at, SimDuration::from_us(10), SimDuration::ZERO, &mut r1).wake_latency;
            wake_c1 +=
                pool_c1.execute(0, at, SimDuration::from_us(10), SimDuration::ZERO, &mut r2).wake_latency;
        }
        assert!(wake_c1e > wake_c1, "C1E wakes {wake_c1e} !> C1 wakes {wake_c1}");
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let (mut pool, mut rng) = quiet_pool(&MachineConfig::server_baseline(), 2, 5);
        assert_eq!(pool.utilization(SimTime::from_us(1)), 0.0);
        pool.execute(0, SimTime::ZERO, SimDuration::from_us(50), SimDuration::ZERO, &mut rng);
        let u = pool.utilization(SimTime::from_us(100));
        assert!(u > 0.2 && u <= 0.5, "utilization {u}");
        assert_eq!(pool.items(), 1);
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
    }

    #[test]
    fn interference_spikes_delay_busy_pools() {
        let mut srv = MachineConfig::server_baseline();
        srv.variability = tpv_hw::env::VariabilityProfile::none();
        let env = RunEnvironment::neutral();
        let profile = InterferenceProfile {
            mean_spikes_per_sec: 2000.0,
            mean_spike_len: SimDuration::from_ms(1),
            spike_len_sigma: 0.1,
        };
        let mut rng = SimRng::seed_from_u64(11);
        let mut noisy = WorkerPool::new(&srv, &env, 1, &profile, SimDuration::from_secs(1), &mut rng);
        let mut rng2 = SimRng::seed_from_u64(11);
        let mut clean = WorkerPool::new(
            &srv,
            &env,
            1,
            &InterferenceProfile::none(),
            SimDuration::from_secs(1),
            &mut rng2,
        );
        // Drive the pools to high utilisation so spikes collide.
        let mut end_noisy = SimTime::ZERO;
        let mut end_clean = SimTime::ZERO;
        for i in 0..50_000u64 {
            let at = SimTime::from_us(i * 12);
            end_noisy = noisy.execute(0, at, SimDuration::from_us(10), SimDuration::ZERO, &mut rng).end;
            end_clean = clean.execute(0, at, SimDuration::from_us(10), SimDuration::ZERO, &mut rng2).end;
        }
        assert!(end_noisy > end_clean, "spikes had no effect");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_pool_panics() {
        let mut rng = SimRng::seed_from_u64(1);
        WorkerPool::new(
            &MachineConfig::server_baseline(),
            &RunEnvironment::neutral(),
            0,
            &InterferenceProfile::none(),
            SimDuration::from_secs(1),
            &mut rng,
        );
    }
}
