//! The synthetic workload of §IV-B: tunable service time.
//!
//! "It can accept an input parameter, the value of which specifies by how
//! long the processing time of a request should be extended. The
//! processing time is implemented using a busy wait loop … as the
//! additional wait time should be accounted as service time rather than
//! sleep time." — i.e. the added delay occupies the worker core, so it
//! contributes to utilisation and queueing exactly like real work.

use tpv_hw::{MachineConfig, RunEnvironment};
use tpv_net::StackCosts;
use tpv_sim::dist::{Normal, Sampler};
use tpv_sim::{SimDuration, SimRng, SimTime};

use crate::interference::InterferenceProfile;
use crate::request::{RequestDescriptor, ServiceCompletion};
use crate::worker_pool::WorkerPool;

/// Configuration of the synthetic service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Worker threads (the paper: 10, pinned on a single socket).
    pub workers: usize,
    /// Base processing time before the added delay.
    pub base_service: SimDuration,
    /// The tunable busy-wait extension (the sweep parameter of Fig. 7:
    /// 0–400 µs).
    pub added_delay: SimDuration,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig { workers: 10, base_service: SimDuration::from_us(8), added_delay: SimDuration::ZERO }
    }
}

impl SyntheticConfig {
    /// The paper's sweep: the same service with a given added delay.
    pub fn with_delay(delay: SimDuration) -> Self {
        SyntheticConfig { added_delay: delay, ..SyntheticConfig::default() }
    }

    /// The first field [`SyntheticService::new`] cannot build from (see
    /// [`crate::ServiceKind::invalid_field`]): the pool needs a worker.
    pub fn invalid_field(&self) -> Option<(&'static str, u64, u64)> {
        crate::service::first_invalid([("workers", self.workers as u64, u64::MAX)])
    }
}

/// The synthetic service instance for one run.
#[derive(Debug)]
pub struct SyntheticService {
    pool: WorkerPool,
    config: SyntheticConfig,
    stack: StackCosts,
    jitter: Normal,
}

impl SyntheticService {
    /// Builds the service on `server` for a run of length `horizon`.
    pub fn new(
        config: SyntheticConfig,
        server: &MachineConfig,
        env: &RunEnvironment,
        interference: &InterferenceProfile,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        let mut pool = WorkerPool::new(server, env, config.workers, interference, horizon, rng);
        // The busy-wait loop is cache-resident: its duration is exact by
        // construction (that is the paper's point), so no contention.
        pool.set_contention_coef(0.0);
        SyntheticService { pool, config, stack: StackCosts::tcp_small_rpc(), jitter: Normal::new(1.0, 0.05) }
    }

    /// Draws the next request descriptor (all synthetic requests are
    /// identical by design).
    pub fn next_descriptor(&self, _rng: &mut SimRng) -> RequestDescriptor {
        RequestDescriptor::Synthetic
    }

    /// Handles one request arriving at the server NIC at `arrival`.
    pub fn handle(
        &mut self,
        conn: usize,
        desc: &RequestDescriptor,
        arrival: SimTime,
        rng: &mut SimRng,
    ) -> ServiceCompletion {
        assert!(
            matches!(desc, RequestDescriptor::Synthetic),
            "SyntheticService got a non-synthetic request: {desc:?}"
        );
        // Base work jitters; the busy-wait delay is exact by construction
        // (that is its whole point).
        let base = self.config.base_service.scale(self.jitter.sample(rng).max(0.5));
        let service = base + self.config.added_delay;
        let worker = self.pool.worker_for_connection(conn);
        let grant = self.pool.execute(worker, arrival, service, self.stack.server_softirq, rng);
        ServiceCompletion { response_wire: grant.end, server_time: grant.busy }
    }

    /// The configured added delay.
    pub fn added_delay(&self) -> SimDuration {
        self.config.added_delay
    }

    /// The worker pool (inspection / tests).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(delay_us: u64, seed: u64) -> (SyntheticService, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let env = RunEnvironment::neutral();
        let svc = SyntheticService::new(
            SyntheticConfig::with_delay(SimDuration::from_us(delay_us)),
            &MachineConfig::server_baseline(),
            &env,
            &InterferenceProfile::none(),
            SimDuration::from_secs(1),
            &mut rng,
        );
        (svc, rng)
    }

    #[test]
    fn added_delay_extends_service_linearly() {
        // "At low QPS … the response time increases linearly with the
        // increase of the added delay which validates the implementation."
        let mut spans = Vec::new();
        for delay in [0u64, 100, 200, 400] {
            let (mut svc, mut rng) = service(delay, 1);
            let mut total = SimDuration::ZERO;
            let n = 40u64;
            for i in 0..n {
                let arrival = SimTime::from_ms(5 * (i + 1));
                let done = svc.handle(0, &RequestDescriptor::Synthetic, arrival, &mut rng);
                total += done.response_wire.since(arrival);
            }
            spans.push(total.as_us() / n as f64);
        }
        // Differences between consecutive delays ≈ the delay increments.
        assert!((spans[1] - spans[0] - 100.0).abs() < 15.0, "{spans:?}");
        assert!((spans[2] - spans[1] - 100.0).abs() < 15.0, "{spans:?}");
        assert!((spans[3] - spans[2] - 200.0).abs() < 25.0, "{spans:?}");
    }

    #[test]
    fn delay_counts_as_utilisation() {
        // The busy-wait loop occupies the worker: with 10 workers and
        // 400 µs delay, 20K QPS saturates (Little's law bound).
        let (mut svc, mut rng) = service(400, 2);
        let mut t = SimTime::ZERO;
        for i in 0..2_000u64 {
            // 20K QPS across 16 connections.
            t = SimTime::from_ns(i * 50_000);
            let conn = (i % 16) as usize;
            svc.handle(conn, &RequestDescriptor::Synthetic, t, &mut rng);
        }
        let util = svc.pool().utilization(t);
        assert!(util > 0.5, "utilization {util}");
        assert_eq!(svc.added_delay(), SimDuration::from_us(400));
    }

    #[test]
    #[should_panic(expected = "non-synthetic request")]
    fn wrong_descriptor_panics() {
        let (mut svc, mut rng) = service(0, 3);
        svc.handle(0, &RequestDescriptor::Synthetic {}, SimTime::ZERO, &mut rng);
        svc.handle(0, &RequestDescriptor::Timeline { user: 0 }, SimTime::ZERO, &mut rng);
    }
}
