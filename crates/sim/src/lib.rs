//! # tpv-sim — discrete-event simulation substrate
//!
//! This crate provides the foundational machinery on which the whole `tpv`
//! testbed simulation is built:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//!   as dedicated newtypes so wall-clock and simulated time can never be
//!   confused ([C-NEWTYPE]).
//! * [`EventQueue`] — a deterministic, total-ordered pending-event set.
//! * [`PhaseSchedule`] — deterministic partitions of a run into time
//!   phases, the substrate of every time-varying machine/load model.
//! * [`rng`] — a self-contained, seedable, splittable pseudo-random number
//!   generator (xoshiro256++) with exact jump-ahead and random access by
//!   draw index, implemented here so that simulation results are
//!   reproducible across platforms and dependency upgrades.
//! * [`dist`] — the statistical distributions used by the workload models
//!   (exponential, normal, lognormal, Pareto, generalized Pareto, GEV,
//!   Zipf, …).
//! * [`hist`] — a mergeable, log-bucketed latency histogram in the spirit of
//!   HdrHistogram, used by the load generators to record per-request
//!   latencies. Its mean and standard deviation come from integer sums,
//!   so merged histograms give the same bits in any order.
//! * [`lindley`] — the single-server FIFO waiting-time recursion used by
//!   every queueing resource in the testbed (client threads, server
//!   workers, NIC queues).
//!
//! # Example
//!
//! ```
//! use tpv_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_us(10), "b");
//! q.schedule(SimTime::ZERO + SimDuration::from_us(5), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t.as_us(), ev), (5.0, "a"));
//! ```

mod event;
mod phase;
mod slab;
mod time;

pub mod dist;
pub mod hist;
pub mod lindley;
pub mod rng;

pub use event::EventQueue;
pub use hist::LatencyHistogram;
pub use lindley::FifoResource;
pub use phase::PhaseSchedule;
pub use rng::SimRng;
pub use slab::{HotColdSlab, Slab};
pub use time::{SimDuration, SimTime};
/// Rounding half away from zero without a libm call, for crates that
/// reach the pinned math only through this one.
pub use tpv_math::round_half_away;
