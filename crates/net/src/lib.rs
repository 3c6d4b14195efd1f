//! # tpv-net — the network between client and server machines
//!
//! The paper's testbed is a CloudLab LAN: client and server machines on
//! the same 10 GbE switch. For microsecond-scale services the network leg
//! is a meaningful part of end-to-end latency, so it is modelled
//! explicitly:
//!
//! * [`LinkConfig`]/[`Link`] — one-way delay = wire/switch propagation +
//!   NIC processing + kernel stack traversal, plus exponential jitter and
//!   a per-run offset (switch queue occupancy, cable path, neighbours).
//! * [`Connection`] — per-connection FIFO delivery: TCP never reorders
//!   within a connection, so each direction's deliveries are monotone.
//! * [`StackCosts`] — the CPU costs the stack charges to *cores* (client
//!   send/recv syscall work, server softirq work); these are consumed by
//!   the load generator and service models, which place them on
//!   `tpv_hw::CoreResource`s.
//! * [`Coalescing`] — optional NIC interrupt coalescing (an ablation knob;
//!   the paper's NICs run with adaptive coalescing effectively off for
//!   latency benchmarks).
//!
//! # Example
//!
//! ```
//! use tpv_net::{Link, LinkConfig, Connection};
//! use tpv_sim::{SimRng, SimTime};
//!
//! let mut rng = SimRng::seed_from_u64(1);
//! let link = Link::new(&LinkConfig::cloudlab_lan(), &mut rng);
//! let mut conn = Connection::new(0);
//! let sent = SimTime::from_us(100);
//! let arrival = conn.deliver_to_server(sent + link.one_way(&mut rng));
//! assert!(arrival > sent);
//! ```

use serde::{Deserialize, Serialize};
use tpv_sim::dist::{Exponential, Normal, Sampler};
use tpv_sim::{SimDuration, SimRng, SimTime};

/// Static parameters of a network path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Deterministic one-way component: propagation + switch + NIC +
    /// kernel stack traversal.
    pub base_one_way: SimDuration,
    /// Mean of the exponential jitter added per packet.
    pub jitter_mean: SimDuration,
    /// Standard deviation (µs) of the per-run offset added to every
    /// packet of a run — switch load and neighbour traffic differ between
    /// runs.
    pub run_offset_sigma_us: f64,
    /// NIC interrupt coalescing.
    pub coalescing: Coalescing,
}

impl LinkConfig {
    /// A CloudLab-style 10 GbE LAN: ~11 µs deterministic one-way
    /// (NIC ≈ 2 µs, switch ≈ 1 µs, kernel stack ≈ 8 µs) plus ~2 µs mean
    /// jitter — giving the familiar ~25–30 µs software RTT.
    pub fn cloudlab_lan() -> Self {
        LinkConfig {
            base_one_way: SimDuration::from_us(11),
            jitter_mean: SimDuration::from_us(2),
            run_offset_sigma_us: 0.15,
            coalescing: Coalescing::Off,
        }
    }

    /// A cross-rack path in the same datacenter: an extra switch hop and
    /// longer cables (~18 µs one way), more jitter and a larger per-run
    /// offset. Fleet topologies use this to model load-generator agents
    /// that are *not* all on the server's rack — a client-side
    /// configuration difference the paper's single-client testbed cannot
    /// express.
    pub fn cross_rack() -> Self {
        LinkConfig {
            base_one_way: SimDuration::from_us(18),
            jitter_mean: SimDuration::from_us(4),
            run_offset_sigma_us: 0.6,
            coalescing: Coalescing::Off,
        }
    }

    /// An ideal, jitter-free link (unit tests, ablations).
    pub fn ideal() -> Self {
        LinkConfig {
            base_one_way: SimDuration::from_us(10),
            jitter_mean: SimDuration::ZERO,
            run_offset_sigma_us: 0.0,
            coalescing: Coalescing::Off,
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::cloudlab_lan()
    }
}

/// NIC interrupt coalescing setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Coalescing {
    /// Every packet interrupts immediately.
    Off,
    /// Interrupts are batched: delivery timestamps are rounded up to the
    /// next multiple of the holding window.
    Window(SimDuration),
}

/// A live link for one run: the per-run offset has been drawn.
#[derive(Debug, Clone)]
pub struct Link {
    base: SimDuration,
    jitter: Option<Exponential>,
    run_offset: SimDuration,
    coalescing: Coalescing,
}

impl Link {
    /// Instantiates a link for one run, drawing the per-run offset.
    pub fn new(cfg: &LinkConfig, rng: &mut SimRng) -> Self {
        let offset_us = if cfg.run_offset_sigma_us > 0.0 {
            Normal::new(0.0, cfg.run_offset_sigma_us).sample(rng).max(0.0)
        } else {
            0.0
        };
        Link {
            base: cfg.base_one_way,
            jitter: if cfg.jitter_mean.is_zero() {
                None
            } else {
                Some(Exponential::with_mean(cfg.jitter_mean.as_us()))
            },
            run_offset: SimDuration::from_us_f64(offset_us),
            coalescing: cfg.coalescing,
        }
    }

    /// Samples one packet's one-way delay.
    pub fn one_way(&self, rng: &mut SimRng) -> SimDuration {
        let jitter = match &self.jitter {
            Some(j) => j.sample_us(rng),
            None => SimDuration::ZERO,
        };
        self.base + self.run_offset + jitter
    }

    /// Applies interrupt coalescing to a raw NIC arrival instant.
    pub fn coalesce(&self, arrival: SimTime) -> SimTime {
        match self.coalescing {
            Coalescing::Off => arrival,
            Coalescing::Window(w) => {
                if w.is_zero() {
                    arrival
                } else {
                    let w_ns = w.as_ns();
                    let ns = arrival.as_ns();
                    let rem = ns % w_ns;
                    if rem == 0 {
                        arrival
                    } else {
                        SimTime::from_ns(ns - rem + w_ns)
                    }
                }
            }
        }
    }

    /// The per-run offset drawn for this link instance.
    pub fn run_offset(&self) -> SimDuration {
        self.run_offset
    }
}

/// Per-connection FIFO delivery state (TCP ordering per direction).
#[derive(Debug, Clone)]
pub struct Connection {
    id: usize,
    last_to_server: SimTime,
    last_to_client: SimTime,
}

impl Connection {
    /// A new idle connection.
    pub fn new(id: usize) -> Self {
        Connection { id, last_to_server: SimTime::ZERO, last_to_client: SimTime::ZERO }
    }

    /// Connection identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Registers a client→server delivery, enforcing in-order arrival.
    pub fn deliver_to_server(&mut self, raw_arrival: SimTime) -> SimTime {
        let arrival = raw_arrival.max(self.last_to_server);
        self.last_to_server = arrival;
        arrival
    }

    /// Registers a server→client delivery, enforcing in-order arrival.
    pub fn deliver_to_client(&mut self, raw_arrival: SimTime) -> SimTime {
        let arrival = raw_arrival.max(self.last_to_client);
        self.last_to_client = arrival;
        arrival
    }
}

/// CPU costs the network stack charges to cores (placed on
/// `tpv_hw::CoreResource`s by the generator and service models).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StackCosts {
    /// Client-side work to build + `write()` a request.
    pub client_send: SimDuration,
    /// Client-side work to `read()` + parse + timestamp a response.
    pub client_recv: SimDuration,
    /// Kernel RX path (IRQ + softirq) before a blocked thread can be
    /// woken; paid between NIC arrival and the in-app timestamp.
    pub kernel_rx: SimDuration,
    /// Server-side softirq work per request (RX + TX combined).
    pub server_softirq: SimDuration,
}

impl StackCosts {
    /// Typical kernel-TCP numbers for small RPC messages.
    pub fn tcp_small_rpc() -> Self {
        StackCosts {
            client_send: SimDuration::from_us(2),
            client_recv: SimDuration::from_us(2),
            kernel_rx: SimDuration::from_us(3),
            server_softirq: SimDuration::from_us(2),
        }
    }
}

impl Default for StackCosts {
    fn default() -> Self {
        StackCosts::tcp_small_rpc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_includes_base_and_offset() {
        let mut rng = SimRng::seed_from_u64(1);
        let link = Link::new(&LinkConfig::ideal(), &mut rng);
        assert_eq!(link.one_way(&mut rng), SimDuration::from_us(10));
        assert_eq!(link.run_offset(), SimDuration::ZERO);
    }

    #[test]
    fn jitter_is_nonnegative_and_has_right_mean() {
        let mut rng = SimRng::seed_from_u64(2);
        let link = Link::new(&LinkConfig::cloudlab_lan(), &mut rng);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let d = link.one_way(&mut rng);
            assert!(d >= SimDuration::from_us(11));
            sum += d.as_us();
        }
        let mean = sum / n as f64;
        let expected = 11.0 + 2.0 + link.run_offset().as_us();
        assert!((mean - expected).abs() < 0.1, "mean {mean} vs {expected}");
    }

    #[test]
    fn cross_rack_is_strictly_slower_than_the_lan() {
        let lan = LinkConfig::cloudlab_lan();
        let xr = LinkConfig::cross_rack();
        assert!(xr.base_one_way > lan.base_one_way);
        assert!(xr.jitter_mean > lan.jitter_mean);
        assert!(xr.run_offset_sigma_us > lan.run_offset_sigma_us);
        let mut rng = SimRng::seed_from_u64(9);
        let link = Link::new(&xr, &mut rng);
        assert!(link.one_way(&mut rng) >= SimDuration::from_us(18));
    }

    #[test]
    fn run_offset_differs_between_runs() {
        let cfg = LinkConfig::cloudlab_lan();
        let mut rng = SimRng::seed_from_u64(3);
        let offsets: Vec<u64> = (0..20).map(|_| Link::new(&cfg, &mut rng).run_offset().as_ns()).collect();
        let distinct: std::collections::HashSet<_> = offsets.iter().collect();
        assert!(distinct.len() > 5, "offsets not varying: {offsets:?}");
    }

    #[test]
    fn connection_enforces_fifo_per_direction() {
        let mut c = Connection::new(7);
        assert_eq!(c.id(), 7);
        let a1 = c.deliver_to_server(SimTime::from_us(100));
        // A "faster" later packet cannot overtake.
        let a2 = c.deliver_to_server(SimTime::from_us(90));
        assert_eq!(a1, SimTime::from_us(100));
        assert_eq!(a2, SimTime::from_us(100));
        // Directions are independent.
        let b = c.deliver_to_client(SimTime::from_us(50));
        assert_eq!(b, SimTime::from_us(50));
    }

    #[test]
    fn coalescing_rounds_up_to_window() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut cfg = LinkConfig::ideal();
        cfg.coalescing = Coalescing::Window(SimDuration::from_us(10));
        let link = Link::new(&cfg, &mut rng);
        assert_eq!(link.coalesce(SimTime::from_us(12)), SimTime::from_us(20));
        assert_eq!(link.coalesce(SimTime::from_us(20)), SimTime::from_us(20));
        let off = Link::new(&LinkConfig::ideal(), &mut rng);
        assert_eq!(off.coalesce(SimTime::from_us(12)), SimTime::from_us(12));
        let mut zero = LinkConfig::ideal();
        zero.coalescing = Coalescing::Window(SimDuration::ZERO);
        let z = Link::new(&zero, &mut rng);
        assert_eq!(z.coalesce(SimTime::from_us(12)), SimTime::from_us(12));
    }

    #[test]
    fn stack_costs_are_small_relative_to_service() {
        let c = StackCosts::tcp_small_rpc();
        assert!(c.client_send < SimDuration::from_us(10));
        assert!(c.kernel_rx < SimDuration::from_us(10));
    }
}
