//! Request descriptors and completions — the contract between workload,
//! generator and service.
//!
//! The *workload generator* decides **when** a request is issued and with
//! what resource demands (§II: "load intensity … and resource demands");
//! the *service* decides how long it takes. `RequestDescriptor` carries
//! the resource demands; [`ServiceCompletion`] carries the server-side
//! outcome.

use tpv_sim::{SimDuration, SimTime};

/// A key-value operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key.
    Get,
    /// Write a key.
    Set,
}

/// Resource demands of one request, drawn by the service's workload model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestDescriptor {
    /// A memcached-style request (ETC workload).
    Kv {
        /// Operation type.
        op: KvOp,
        /// The raw `[0, 1)` popularity uniform the key is drawn from;
        /// [`EtcWorkload::key_of`](crate::kv::EtcWorkload::key_of)
        /// resolves it to a key.
        key_unit: f64,
        /// Value size in bytes (ETC: generalized-Pareto-distributed).
        value_size: u32,
    },
    /// An HDSearch image-similarity query.
    Search {
        /// Which of the pre-generated query vectors to run.
        query_id: u32,
    },
    /// A Social Network `read-user-timeline` request.
    Timeline {
        /// The user whose timeline is read.
        user: u32,
    },
    /// A synthetic-service request.
    Synthetic,
}

/// Identity of a request's origin in a multi-node topology: which client
/// node sent it, on which of that node's connections.
///
/// Services dispatch work by connection affinity
/// (`WorkerPool::worker_for_connection` and friends take a `usize` key).
/// In a fleet, two nodes' connection 0 must not collapse onto the same
/// affinity key, and the key must not depend on a node's *declaration
/// order* — per-node results are pinned by content-addressed seeds, so
/// permuting the fleet declaration must not move any node's requests to
/// different workers. `affinity_key` therefore mixes a caller-supplied
/// content-derived node identity with the node-local connection id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeConn {
    /// Content-derived identity of the sending node. The reserved value 0
    /// means "single-node topology" and keys admission by the bare
    /// connection id, exactly as the historical single-client runtime did.
    pub node_key: u64,
    /// Node-local connection id.
    pub conn: u32,
}

impl NodeConn {
    /// The key for a connection of a single-node topology.
    pub fn single(conn: u32) -> Self {
        NodeConn { node_key: 0, conn }
    }

    /// The `usize` affinity key services dispatch on.
    ///
    /// With `node_key == 0` this is exactly `conn`; otherwise the node
    /// identity is Fibonacci-mixed so distinct nodes' connection spaces
    /// land on well-separated keys.
    pub fn affinity_key(self) -> usize {
        if self.node_key == 0 {
            self.conn as usize
        } else {
            self.node_key.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(self.conn as u64) as usize
        }
    }
}

/// What the server did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCompletion {
    /// When the response left the server (onto the wire).
    pub response_wire: SimTime,
    /// Pure server-side busy time attributable to the request (excludes
    /// queueing), for utilisation accounting.
    pub server_time: SimDuration,
}

/// Context carried between stages of a multi-stage request.
///
/// Kept small and `Copy` so it can ride inside simulation events. The
/// meaning of `aux`/`aux2` is service-specific (e.g. the assembled post
/// count, or a cache-hit flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCtx {
    /// Server busy time accumulated by earlier stages (ns).
    pub busy_ns: u64,
    /// Service-specific payload.
    pub aux: u32,
    /// Service-specific payload.
    pub aux2: u32,
}

/// Outcome of admitting or resuming a request on a service.
///
/// Multi-tier services (HDSearch, Social Network) process a request as a
/// chain of stages; each stage ends either with the response on the wire
/// or with a continuation the simulation schedules as an event. This is
/// what keeps every worker's queue fed in chronological order — the
/// defining property of a FIFO system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageOutcome {
    /// The response left the server.
    Done(ServiceCompletion),
    /// The request continues at `at` with the given stage index.
    Continue {
        /// When the next stage's input arrives (after internal RPC hops).
        at: SimTime,
        /// Next stage index (service-specific).
        stage: u8,
        /// Carried context.
        ctx: StageCtx,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_affinity_key_is_the_bare_connection() {
        for conn in [0u32, 7, 159] {
            assert_eq!(NodeConn::single(conn).affinity_key(), conn as usize);
        }
    }

    #[test]
    fn fleet_affinity_keys_do_not_collide_across_nodes() {
        let mut keys = std::collections::HashSet::new();
        for node_key in [0x1111_2222_3333_4444u64, 0xdead_beef_cafe_f00d, 0x0123_4567_89ab_cdef] {
            for conn in 0..160 {
                assert!(
                    keys.insert(NodeConn { node_key, conn }.affinity_key()),
                    "collision at node {node_key:x} conn {conn}"
                );
            }
        }
        // Keys are stable: same identity, same key.
        let k = NodeConn { node_key: 42, conn: 3 };
        assert_eq!(k.affinity_key(), k.affinity_key());
    }
}
