//! # tpv-core — the experiment framework
//!
//! This crate is the paper's contribution turned into a library: given a
//! benchmark service, a *client-side* hardware configuration, a server
//! configuration and a load sweep, it runs the full simulated testbed and
//! answers the paper's questions —
//!
//! * What do the end-to-end measurements look like? ([`runtime`],
//!   [`experiment`], executed deterministically — parallel, cached or
//!   serial — by [`engine`]; [`topology`] generalizes the testbed to
//!   heterogeneous client *fleets* with per-node breakdowns via
//!   [`collect`])
//! * Do two client configurations lead to **different conclusions** about
//!   the same server feature? ([`analysis`], Findings 1–2)
//! * How many repetitions does each configuration need, and how long will
//!   the evaluation take? ([`analysis::iteration_estimate`], §V-C, Table IV)
//! * How *should* the client be configured? ([`recommend`], §VI)
//!
//! [`scenarios`] packages the paper's §V studies ready-to-run, [`survey`]
//! holds the Table I literature survey, and [`report`] renders
//! tables/series in the paper's formats. [`control`] closes the loop:
//! windowed observations feed mitigation policies (hedging, rerouting,
//! remediation, admission control) that act on the fleet between
//! windows.

#![warn(missing_docs)]

pub mod analysis;
pub mod collect;
pub mod control;
pub mod engine;
pub mod experiment;
pub mod fidelity;
pub mod pin;
pub mod recommend;
pub mod report;
pub mod runtime;
pub mod scenarios;
pub mod survey;
pub mod topology;

pub use analysis::{Comparison, Summary, Verdict};
pub use collect::{
    Collector, NodeStats, NodeWindow, NullCollector, PerCohortCollector, PerNodeCollector, PhaseCollector,
    PhaseStats, ShardWindow, TraceCollector, WindowedObserver,
};
pub use control::{
    AdmissionThrottle, ControlError, ControlResult, ControlSpec, Controller, DoNothing, HedgePlan,
    HedgeRequests, HedgeSpec, MitigationAction, MitigationPolicy, RemediateNode, RerouteHotShard,
    WindowObservation,
};
pub use engine::{CacheStats, Engine, Job, JobPlan, RunCache};
pub use experiment::{Benchmark, Experiment, ExperimentResults, ServerScenario};
pub use pin::PinPolicy;
pub use runtime::{run_fleet, run_once, run_traced, RunResult, RunSpec, RunTrace};
pub use topology::{
    uniform_fleet, ClientNode, CohortResult, CohortSpec, FleetResult, NodeDynamics, NodeResult, SigmaOwner,
    TopologyError, TopologySpec,
};
