//! The uniform service interface the experiment runtime drives.

use tpv_hw::{MachineConfig, RunEnvironment};
use tpv_sim::{SimDuration, SimRng, SimTime};

use crate::hdsearch::{HdSearchConfig, HdSearchService};
use crate::interference::InterferenceProfile;
use crate::kv::{KvConfig, KvService};
use crate::request::{RequestDescriptor, ServiceCompletion, StageCtx, StageOutcome};
use crate::socialnet::{SocialConfig, SocialNetworkService};
use crate::synthetic::{SyntheticConfig, SyntheticService};

/// Which benchmark service to run, with its parameters (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceKind {
    /// Memcached-like KV store with the ETC workload.
    Memcached(KvConfig),
    /// HDSearch LSH similarity search.
    HdSearch(HdSearchConfig),
    /// DeathStarBench-like Social Network (read-user-timeline).
    SocialNetwork(SocialConfig),
    /// Tunable synthetic service.
    Synthetic(SyntheticConfig),
}

impl ServiceKind {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceKind::Memcached(_) => "memcached",
            ServiceKind::HdSearch(_) => "hdsearch",
            ServiceKind::SocialNetwork(_) => "socialnet",
            ServiceKind::Synthetic(_) => "synthetic",
        }
    }

    /// The first config field the service cannot be built from, as
    /// `(field name, value, max)`: each checked field must lie in
    /// `1..=max`, where `max` is `u64::MAX` for a plain count. `None`
    /// when the config is usable.
    pub fn invalid_field(&self) -> Option<(&'static str, u64, u64)> {
        match self {
            ServiceKind::Memcached(c) => c.invalid_field(),
            ServiceKind::HdSearch(c) => c.invalid_field(),
            ServiceKind::SocialNetwork(c) => c.invalid_field(),
            ServiceKind::Synthetic(c) => c.invalid_field(),
        }
    }
}

/// The first of `fields`, each `(name, value, max)`, whose value lies
/// outside `1..=max`.
pub(crate) fn first_invalid<const N: usize>(
    fields: [(&'static str, u64, u64); N],
) -> Option<(&'static str, u64, u64)> {
    fields.into_iter().find(|&(_, value, max)| value == 0 || value > max)
}

/// Service + environment parameters for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// The benchmark.
    pub kind: ServiceKind,
    /// Background interference on the server machine.
    pub interference: InterferenceProfile,
}

impl ServiceConfig {
    /// A service with the default quiet-server interference.
    pub fn new(kind: ServiceKind) -> Self {
        ServiceConfig { kind, interference: InterferenceProfile::quiet_server() }
    }

    /// A service with no interference (deterministic tests/ablations).
    pub fn without_interference(kind: ServiceKind) -> Self {
        ServiceConfig { kind, interference: InterferenceProfile::none() }
    }
}

/// A live service instance for one run.
///
/// Variant sizes differ widely (the KV store holds its hash shards
/// inline); instances are created once per run and never moved on the
/// hot path, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ServiceInstance {
    /// Memcached-like KV.
    Memcached(KvService),
    /// HDSearch.
    HdSearch(HdSearchService),
    /// Social Network.
    SocialNetwork(SocialNetworkService),
    /// Synthetic.
    Synthetic(SyntheticService),
}

impl ServiceInstance {
    /// Instantiates the configured service on `server` for one run.
    pub fn new(
        config: &ServiceConfig,
        server: &MachineConfig,
        env: &RunEnvironment,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        match config.kind {
            ServiceKind::Memcached(c) => {
                ServiceInstance::Memcached(KvService::new(c, server, env, &config.interference, horizon, rng))
            }
            ServiceKind::HdSearch(c) => ServiceInstance::HdSearch(HdSearchService::new(
                c,
                server,
                env,
                &config.interference,
                horizon,
                rng,
            )),
            ServiceKind::SocialNetwork(c) => ServiceInstance::SocialNetwork(SocialNetworkService::new(
                c,
                server,
                env,
                &config.interference,
                horizon,
                rng,
            )),
            ServiceKind::Synthetic(c) => ServiceInstance::Synthetic(SyntheticService::new(
                c,
                server,
                env,
                &config.interference,
                horizon,
                rng,
            )),
        }
    }

    /// Draws the next request's resource demands.
    pub fn next_descriptor(&self, rng: &mut SimRng) -> RequestDescriptor {
        match self {
            ServiceInstance::Memcached(s) => s.next_descriptor(rng),
            ServiceInstance::HdSearch(s) => s.next_descriptor(rng),
            ServiceInstance::SocialNetwork(s) => s.next_descriptor(rng),
            ServiceInstance::Synthetic(s) => s.next_descriptor(rng),
        }
    }

    /// Admits a request arriving at the server NIC (stage 0).
    ///
    /// `conn` is the connection-affinity key workers dispatch on. A
    /// single-client runtime passes the bare connection id; multi-node
    /// topologies pass [`crate::request::NodeConn::affinity_key`] so two
    /// nodes' connection spaces stay disjoint.
    ///
    /// Single-stage services (Memcached, Synthetic) complete immediately;
    /// multi-tier services return [`StageOutcome::Continue`] and must be
    /// driven through [`resume`](Self::resume) by the simulation's event
    /// loop so all worker queues are fed in chronological order.
    pub fn admit(
        &mut self,
        conn: usize,
        desc: &RequestDescriptor,
        arrival: SimTime,
        rng: &mut SimRng,
    ) -> StageOutcome {
        match self {
            ServiceInstance::Memcached(s) => StageOutcome::Done(s.handle(conn, desc, arrival, rng)),
            ServiceInstance::HdSearch(s) => s.admit(conn, desc, arrival, rng),
            ServiceInstance::SocialNetwork(s) => s.admit(conn, desc, arrival, rng),
            ServiceInstance::Synthetic(s) => StageOutcome::Done(s.handle(conn, desc, arrival, rng)),
        }
    }

    /// Resumes a multi-stage request at `stage`.
    ///
    /// # Panics
    ///
    /// Panics if called on a single-stage service or an unknown stage.
    pub fn resume(
        &mut self,
        conn: usize,
        desc: &RequestDescriptor,
        stage: u8,
        ctx: StageCtx,
        now: SimTime,
        rng: &mut SimRng,
    ) -> StageOutcome {
        match self {
            ServiceInstance::HdSearch(s) => s.resume(conn, desc, stage, ctx, now, rng),
            ServiceInstance::SocialNetwork(s) => s.resume(conn, desc, stage, ctx, now, rng),
            other => panic!("{:?} has no stages to resume", std::mem::discriminant(other)),
        }
    }

    /// Convenience for tests and probes: drives one request through all
    /// its stages immediately (no interleaving with other requests —
    /// realistic only at low request rates).
    pub fn handle_to_completion(
        &mut self,
        conn: usize,
        desc: &RequestDescriptor,
        arrival: SimTime,
        rng: &mut SimRng,
    ) -> ServiceCompletion {
        let mut outcome = self.admit(conn, desc, arrival, rng);
        loop {
            match outcome {
                StageOutcome::Done(done) => return done,
                StageOutcome::Continue { at, stage, ctx } => {
                    outcome = self.resume(conn, desc, stage, ctx, at, rng);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_report_keys() {
        assert_eq!(ServiceKind::Memcached(KvConfig::default()).name(), "memcached");
        assert_eq!(ServiceKind::HdSearch(HdSearchConfig::default()).name(), "hdsearch");
        assert_eq!(ServiceKind::SocialNetwork(SocialConfig::default()).name(), "socialnet");
        assert_eq!(ServiceKind::Synthetic(SyntheticConfig::default()).name(), "synthetic");
    }

    #[test]
    fn every_service_round_trips_one_request() {
        let kinds = [
            ServiceKind::Memcached(KvConfig { preload_keys: 500, ..KvConfig::default() }),
            ServiceKind::HdSearch(HdSearchConfig {
                dataset_size: 512,
                profile_queries: 16,
                ..HdSearchConfig::default()
            }),
            ServiceKind::SocialNetwork(SocialConfig { users: 100, ..SocialConfig::default() }),
            ServiceKind::Synthetic(SyntheticConfig::default()),
        ];
        let server = MachineConfig::server_baseline();
        for kind in kinds {
            let mut rng = SimRng::seed_from_u64(1);
            let env = RunEnvironment::neutral();
            let cfg = ServiceConfig::without_interference(kind);
            let mut svc = ServiceInstance::new(&cfg, &server, &env, SimDuration::from_secs(1), &mut rng);
            let desc = svc.next_descriptor(&mut rng);
            let arrival = SimTime::from_ms(1);
            let done = svc.handle_to_completion(0, &desc, arrival, &mut rng);
            assert!(done.response_wire > arrival, "{}: response before arrival", kind.name());
            assert!(done.server_time > SimDuration::ZERO, "{}: no server time", kind.name());
        }
    }

    #[test]
    fn interference_presets_differ() {
        let kind = ServiceKind::Synthetic(SyntheticConfig::default());
        let with = ServiceConfig::new(kind);
        let without = ServiceConfig::without_interference(kind);
        assert!(with.interference.mean_spikes_per_sec > 0.0);
        assert_eq!(without.interference.mean_spikes_per_sec, 0.0);
    }
}
