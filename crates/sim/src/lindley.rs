//! Single-server FIFO queueing via the Lindley recursion.
//!
//! Every serially-executing resource in the testbed — a client generator
//! thread, a pinned server worker, a NIC queue — is a FIFO server: work
//! items start at `max(arrival, previous_departure)`. Because there is no
//! preemption, the departure time of an item is known the moment it is
//! offered, which lets the simulation resolve whole request legs without
//! extra events (this is what makes 10⁶-request runs cheap).

use crate::{SimDuration, SimTime};

/// Outcome of offering one work item to a [`FifoResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the resource began executing the item.
    pub start: SimTime,
    /// When the item completed.
    pub end: SimTime,
    /// How long the item waited in the queue before starting.
    pub queue_wait: SimDuration,
    /// How long the resource had been idle when the item arrived
    /// ([`SimDuration::ZERO`] if it was busy).
    pub idle_before: SimDuration,
}

/// A single-server FIFO resource.
///
/// # Example
///
/// ```
/// use tpv_sim::{FifoResource, SimDuration, SimTime};
///
/// let mut worker = FifoResource::new();
/// let g1 = worker.offer(SimTime::from_us(0), SimDuration::from_us(10));
/// assert_eq!(g1.end, SimTime::from_us(10));
/// // Arrives while busy: queues behind the first item.
/// let g2 = worker.offer(SimTime::from_us(5), SimDuration::from_us(10));
/// assert_eq!(g2.start, SimTime::from_us(10));
/// assert_eq!(g2.queue_wait, SimDuration::from_us(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    busy_until: SimTime,
    busy_time: SimDuration,
    items: u64,
}

impl FifoResource {
    /// Creates an idle resource, free from the simulation epoch.
    pub fn new() -> Self {
        FifoResource::default()
    }

    /// Offers an item arriving at `arrival` needing `service` time.
    ///
    /// Items must be offered in non-decreasing arrival order (FIFO); this
    /// is asserted in debug builds.
    pub fn offer(&mut self, arrival: SimTime, service: SimDuration) -> Grant {
        let start = arrival.max(self.busy_until);
        let idle_before =
            if arrival >= self.busy_until { arrival.since(self.busy_until) } else { SimDuration::ZERO };
        let end = start + service;
        let queue_wait = start.since(arrival);
        self.busy_until = end;
        self.busy_time += service;
        self.items += 1;
        Grant { start, end, queue_wait, idle_before }
    }

    /// When the resource next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// True if the resource is idle at `now`.
    pub fn is_idle_at(&self, now: SimTime) -> bool {
        now >= self.busy_until
    }

    /// Total time spent serving items so far.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Number of items served (or queued) so far.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Utilisation over `[SimTime::ZERO, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        assert!(horizon > SimTime::ZERO, "utilization needs a positive horizon");
        (self.busy_time.as_ns() as f64 / horizon.as_ns() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = FifoResource::new();
        let g = r.offer(SimTime::from_us(100), SimDuration::from_us(10));
        assert_eq!(g.start, SimTime::from_us(100));
        assert_eq!(g.end, SimTime::from_us(110));
        assert_eq!(g.queue_wait, SimDuration::ZERO);
        assert_eq!(g.idle_before, SimDuration::from_us(100));
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = FifoResource::new();
        r.offer(SimTime::ZERO, SimDuration::from_us(10));
        let g = r.offer(SimTime::from_us(2), SimDuration::from_us(5));
        assert_eq!(g.start, SimTime::from_us(10));
        assert_eq!(g.end, SimTime::from_us(15));
        assert_eq!(g.queue_wait, SimDuration::from_us(8));
        assert_eq!(g.idle_before, SimDuration::ZERO);
    }

    #[test]
    fn departures_are_nondecreasing() {
        let mut r = FifoResource::new();
        let mut rng = crate::SimRng::seed_from_u64(1);
        let mut t = SimTime::ZERO;
        let mut last_end = SimTime::ZERO;
        for _ in 0..10_000 {
            t += SimDuration::from_ns(rng.next_below(20_000));
            let g = r.offer(t, SimDuration::from_ns(rng.next_below(15_000)));
            assert!(g.end >= last_end, "departure went backwards");
            assert!(g.start >= t);
            last_end = g.end;
        }
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut r = FifoResource::new();
        r.offer(SimTime::ZERO, SimDuration::from_us(25));
        r.offer(SimTime::from_us(50), SimDuration::from_us(25));
        assert_eq!(r.busy_time(), SimDuration::from_us(50));
        assert!((r.utilization(SimTime::from_us(100)) - 0.5).abs() < 1e-12);
        assert_eq!(r.items(), 2);
    }

    #[test]
    fn idle_checks() {
        let mut r = FifoResource::new();
        assert!(r.is_idle_at(SimTime::ZERO));
        r.offer(SimTime::ZERO, SimDuration::from_us(10));
        assert!(!r.is_idle_at(SimTime::from_us(5)));
        assert!(r.is_idle_at(SimTime::from_us(10)));
        assert_eq!(r.busy_until(), SimTime::from_us(10));
    }
}
