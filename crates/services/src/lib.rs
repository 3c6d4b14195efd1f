//! # tpv-services — the benchmark services of §IV-B
//!
//! Four services, mirroring the paper's benchmark set. Each is built as a
//! *real, functional* system (actual hash tables, an actual LSH index, an
//! actual social graph) whose request handling runs on simulated
//! [`tpv_hw::CoreResource`]s so that every Table II server knob — SMT,
//! C-states, turbo — shapes its latency exactly as in the paper:
//!
//! * [`kv`] — a memcached-like key-value store with 10 pinned worker
//!   threads and the Facebook **ETC** workload (§IV-B "Memcached").
//! * [`hdsearch`] — an image-similarity search service using
//!   locality-sensitive hashing, structured midtier → buckets
//!   (§IV-B "HDSearch").
//! * [`socialnet`] — a multi-service social-network application; we drive
//!   the `read-user-timeline` path over a Reed98-sized social graph
//!   (§IV-B "Social Network").
//! * [`synthetic`] — the tunable-service-time synthetic workload
//!   (§IV-B "Synthetic Workload").
//!
//! [`ServiceInstance`] is the uniform entry point the experiment runtime
//! drives: `descriptor()` draws the next request's resource demands and
//! `handle()` executes it against the service, returning when the response
//! hits the wire.

pub mod fasthash;
pub mod hdsearch;
pub mod interference;
pub mod kv;
pub mod request;
pub mod service;
pub mod socialnet;
pub mod synthetic;
pub mod worker_pool;

pub use interference::InterferenceProfile;
pub use request::{NodeConn, RequestDescriptor, ServiceCompletion};
pub use service::{ServiceConfig, ServiceInstance, ServiceKind};
pub use worker_pool::WorkerPool;
