//! What every workload provides, and what one pass over its job set
//! reports.

use std::time::Duration;

use tpv_hw::MachineConfig;
use tpv_loadgen::GeneratorSpec;
use tpv_net::LinkConfig;
use tpv_services::ServiceConfig;

use crate::trace::{Hooks, Span};

/// One pass over a workload's fixed job set.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host time for the whole job set, analysis included.
    pub wall: Duration,
    /// Host time inside the top-level simulation calls.
    pub sim: Duration,
    /// Jobs attempted.
    pub jobs: u64,
    /// Jobs that panicked, returned an error or failed a check.
    pub failed: u64,
    /// Jobs the engine answered from its run cache.
    pub cache_hits: u64,
    /// Digest of every simulated result and every statistic computed
    /// from them.
    pub digest: u64,
}

/// Kernel work attributed to one substrate [`Group`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupWork {
    /// Hook counts of the group's kernel calls.
    pub hooks: Hooks,
    /// Host time inside the group's event loops.
    pub event_loop: Duration,
}

/// Per-layer observations of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Engine (or sharded-pool) workers.
    pub workers: usize,
    /// Host time of every job (or top-level kernel call), in ms.
    pub job_ms: Vec<f64>,
    /// Σ host time of the engine pool calls (or sharded kernel calls).
    pub pool_wall: Duration,
    /// Σ busy time the pool's workers spent on jobs (or shard loops).
    pub pool_busy: Duration,
    /// Kernel work per substrate group (indexes [`Workload::groups`]).
    pub groups: Vec<GroupWork>,
    /// Σ of the kernel calls' spans.
    pub span: Span,
    /// Kernel calls traced.
    pub kernel_calls: u64,
    /// Control windows run.
    pub windows: u64,
    /// Σ host time of `Controller::run` calls.
    pub control_time: Duration,
    /// `MitigationPolicy::decide` calls and their host time.
    pub decide: (u64, Duration),
    /// Hedge legs fired.
    pub hedges: u64,
    /// `tpv_stats` calls and their host time.
    pub stats: (u64, Duration),
}

/// The configuration of one substrate replay: a service on its server,
/// driven by one generator deployment from the given client machines.
#[derive(Debug, Clone)]
pub struct Group {
    /// The service under test.
    pub service: ServiceConfig,
    /// The server (or shard) machine.
    pub server: MachineConfig,
    /// Client machines in the workload.
    pub clients: Vec<MachineConfig>,
    /// Generator deployment of one node.
    pub generator: GeneratorSpec,
    /// Client↔server link.
    pub link: LinkConfig,
    /// Offered load of one node.
    pub node_qps: f64,
    /// Offered load one service instance absorbs.
    pub server_qps: f64,
    /// Simulated length of one kernel call (service horizon).
    pub duration: tpv_sim::SimDuration,
    /// Whether the service runs multi-stage requests (`resume` calls).
    pub staged: bool,
}

/// A benchmark workload: a fixed job set built from a seed.
pub trait Workload {
    /// Runs one job on a throwaway engine, filling process-wide memos
    /// while leaving the workload's own caches cold.
    fn warm_up(&self);

    /// One untraced pass over the job set.
    fn run(&self) -> Rep;

    /// One pass through the timing wrappers. Its digest must equal the
    /// untraced pass's; books that do not balance count as failed jobs.
    fn trace(&self) -> (Rep, Layers);

    /// The substrate configurations the workload exercises.
    fn groups(&self) -> Vec<Group>;
}

/// Runs `f`, turning a panic into `None` (its message still reaches
/// stderr through the default hook).
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}
