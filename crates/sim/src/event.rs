//! The pending-event set of the discrete-event simulation.
//!
//! Events are ordered by timestamp with a monotonically increasing sequence
//! number as tiebreaker, so **simultaneous events pop in the order they
//! were scheduled (FIFO)** — a documented part of the queue's contract
//! that the topology kernel's bit-identical goldens rely on. This makes
//! the whole simulation deterministic: two executions with the same seed
//! produce identical event interleavings.
//!
//! # Structure
//!
//! The queue is a *calendar queue* (Brown, CACM 1988): a ring of
//! fixed-width time buckets covering a sliding near-future window, with a
//! binary-heap overflow for events beyond the window. Scheduling into the
//! window and popping from it are O(1) amortized — the common case for a
//! simulation whose pending set is dense in time (thousands of
//! per-connection sends spread over a few milliseconds) — while far-future
//! events (e.g. low-rate arrival schedules) wait in the heap and migrate
//! into buckets as the window slides over them. When pops observe mostly
//! empty buckets (a sparse schedule), the bucket width doubles and the
//! window re-buckets, so the scan cost adapts to the workload's event
//! density instead of assuming it. The adaptation is widen-only: a deep
//! density trough followed by a dense phase leaves the buckets wide
//! (more entries per in-bucket min-scan) for the rest of the run —
//! results are unaffected, and at the testbed's phase swings (≤ ~4x)
//! the residual occupancy stays single-digit; narrowing would need
//! hysteresis to avoid ping-ponging and is left until a workload needs
//! it.
//!
//! Bucketed events live in one node arena, a `Vec` of nodes addressed
//! by `u32` indices; each bucket is a singly linked list through the
//! nodes' `next` indices, headed by one `u32` in the ring. A bucket is
//! unsorted — scheduling pushes onto its head, and a pop min-scans it —
//! so bucket order carries no meaning, and widening relinks the nodes
//! in place. Popped nodes form an intrusive free list through the same
//! `next` field, and the next schedule reuses the most recently freed
//! one, so a run allocates O(peak pending) nodes in one block. A popped
//! event is copied out of its node, hence the `E: Copy` bound; the
//! simulation's events are plain keys (EXPERIMENTS.md, round 17).
//!
//! The pop order is the total order `(time, seq)` regardless of which
//! tier an event waited in, so the calendar queue is observably
//! *bit-identical* to the straightforward binary-heap implementation it
//! replaced — `tests/event_queue.rs` cross-checks the two on random
//! schedules.
//!
//! # Batched draining
//!
//! [`EventQueue::pop_batch`] drains a whole *tie run* — every pending
//! event sharing the earliest timestamp — in one call, so a dispatch
//! loop pays the queue's per-pop bookkeeping once per distinct
//! timestamp instead of once per event. The concatenation of successive
//! batches is exactly the one-at-a-time [`EventQueue::pop`] sequence;
//! batch *boundaries* carry no semantic weight. Batching is safe
//! against concurrent scheduling from the caller's dispatch loop: an
//! event scheduled *at* the batch's timestamp while the batch is being
//! processed necessarily gets a higher sequence number, so FIFO order
//! already places it after every batch member — it simply opens the
//! next batch. Ties cannot hide elsewhere in the structure: equal raw
//! timestamps share a slot, and by the time the pop scan reads a
//! bucket every far-heap event of that slot has migrated in, so a tie
//! run is always fully resident in the cursor bucket.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Default bucket width: 2^11 ns ≈ 2 µs, the natural event spacing of the
/// testbed's high-QPS runs. [`EventQueue::with_spacing`] picks a better
/// width when the caller knows its event rate.
const INITIAL_SHIFT: u32 = 11;

/// Narrowest bucket a spacing hint may pick.
const MIN_SHIFT: u32 = 10;

/// Widest bucket a spacing hint may pick (adaptation may widen further).
const MAX_HINT_SHIFT: u32 = 16;

/// Widest bucket the adaptation will grow to: 2^26 ns ≈ 67 ms.
const MAX_SHIFT: u32 = 26;

/// Adaptation period, in pops.
const ADAPT_PERIOD: u64 = 1024;

/// Widen the buckets when a period scans more than this many empty
/// buckets per pop on average.
const ADAPT_SCAN_RATIO: u64 = 4;

/// End of a bucket list: an empty bucket's head, a last node's `next`.
const NONE: u32 = u32::MAX;

/// A deterministic priority queue of timestamped events.
///
/// # Example
///
/// ```
/// use tpv_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_us(20), "late");
/// q.schedule(SimTime::from_us(10), "early");
/// q.schedule(SimTime::from_us(10), "early-second");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The node arena: one node per bucketed event, plus the popped
    /// nodes that `free` chains for reuse.
    nodes: Vec<Node<E>>,
    /// Head of the free list through popped nodes' [`Node::next`]
    /// ([`NONE`] when every node holds an event).
    free: u32,
    /// The calendar ring: `heads[s & mask]` starts the list, linked
    /// through [`Node::next`], of the events of slot `s` for every slot
    /// in the window `[cursor, cursor + heads.len())`; [`NONE`] when the
    /// bucket is empty.
    heads: Vec<u32>,
    /// `heads.len() - 1`; the length is a power of two.
    mask: u64,
    /// `log2` of the bucket width in nanoseconds.
    shift: u32,
    /// Slot index the pop scan resumes from. Invariant: no pending event
    /// has a slot below `cursor`, and `cursor <= slot(last_popped)`.
    cursor: u64,
    /// Events beyond the window, keyed min-first by `(time, seq)`.
    far: BinaryHeap<Entry<E>>,
    /// Slot (at the current `shift`) of the earliest far event, or
    /// `u64::MAX` when `far` is empty — lets the pop scan test "has the
    /// window reached the far heap" against a register instead of
    /// peeking the heap on every bucket advance.
    far_next_slot: u64,
    /// Events currently in buckets.
    near_len: usize,
    /// Total pending events (buckets + far).
    len: usize,
    seq: u64,
    last_popped: SimTime,
    /// Sequence number of the last popped event (`u64::MAX` before the
    /// first pop), for the FIFO-tie debug assertion.
    last_seq: u64,
    /// Pops since the last adaptation checkpoint.
    pops_in_period: u64,
    /// Empty buckets scanned since the last adaptation checkpoint.
    scans_in_period: u64,
    /// Reusable buffer for [`EventQueue::pop_batch`]'s tie-run
    /// extraction, kept on the queue so a batch pop never allocates.
    scratch: Vec<Entry<E>>,
}

#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// An arena node: a bucketed event and the index of the next node in
/// its bucket, or, once popped, in the free list ([`NONE`] ends either
/// list).
#[derive(Debug, Clone, Copy)]
struct Node<E> {
    entry: Entry<E>,
    next: u32,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue sized for about `capacity` concurrently
    /// pending events, with buckets matched to an expected mean spacing
    /// between consecutive event *times* (≈ the reciprocal of the
    /// caller's event rate). A good hint puts a handful of events in
    /// each bucket from the first pop; the width adaptation then only
    /// has to track drift, not recover from a cold guess.
    /// A degenerate hint is ignored: a zero spacing — how
    /// `SimDuration::from_secs_f64(1.0 / qps)` encodes a zero, NaN or
    /// infinite aggregate rate — keeps the default width instead of
    /// pinning the queue to the narrowest bucket; huge spacings clamp to
    /// the widest hintable bucket (saturating before the power-of-two
    /// round-up, so they cannot overflow it).
    pub fn with_spacing(capacity: usize, expected_spacing: crate::SimDuration) -> Self {
        let mut q = Self::with_capacity(capacity);
        let ns = expected_spacing.as_ns();
        if ns == 0 {
            return q;
        }
        let target = ns.saturating_mul(2).min(1 << MAX_HINT_SHIFT);
        q.shift = target.next_power_of_two().trailing_zeros().clamp(MIN_SHIFT, MAX_HINT_SHIFT);
        q
    }

    /// Creates an empty queue sized for about `capacity` concurrently
    /// pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = capacity.next_power_of_two().clamp(1024, 4096);
        EventQueue {
            nodes: Vec::with_capacity(capacity),
            free: NONE,
            heads: vec![NONE; buckets],
            mask: buckets as u64 - 1,
            shift: INITIAL_SHIFT,
            cursor: 0,
            far: BinaryHeap::new(),
            far_next_slot: u64::MAX,
            near_len: 0,
            len: 0,
            seq: 0,
            last_popped: SimTime::ZERO,
            last_seq: u64::MAX,
            pops_in_period: 0,
            scans_in_period: 0,
            scratch: Vec::new(),
        }
    }

    #[inline]
    fn slot_of(&self, at: SimTime) -> u64 {
        at.as_ns() >> self.shift
    }

    /// The window slot an event at `at` files under. The release-mode
    /// past-scheduling clamp: a slot below the cursor files under the
    /// cursor so the event still pops next, in raw `(time, seq)` order
    /// among its fellow clamped events.
    #[inline]
    fn filing_slot(&self, at: SimTime) -> u64 {
        self.slot_of(at).max(self.cursor)
    }

    /// Pushes `entry` onto the front of `slot`'s bucket list, in the
    /// most recently freed node or a new one.
    #[inline]
    fn link(&mut self, slot: u64, entry: Entry<E>) {
        let head = &mut self.heads[(slot & self.mask) as usize];
        let node = Node { entry, next: *head };
        *head = match self.free {
            NONE => Self::push_node(&mut self.nodes, node),
            key => {
                let reused = &mut self.nodes[key as usize];
                self.free = reused.next;
                *reused = node;
                key
            }
        };
        self.near_len += 1;
    }

    /// Appends `node` to the arena and returns its index. The arena only
    /// grows while the pending set reaches a new high-water mark, so
    /// this stays out of line, as do the queue's other rare paths
    /// (`widen`, `jump_to_far`, `pop_run`): inlined, they slowed the
    /// runtime's dispatch loop (EXPERIMENTS.md, round 17).
    #[cold]
    #[inline(never)]
    fn push_node(nodes: &mut Vec<Node<E>>, node: Node<E>) -> u32 {
        let key = u32::try_from(nodes.len())
            .ok()
            .filter(|&key| key != NONE)
            .expect("event queue exceeded u32::MAX - 1 bucketed events");
        nodes.push(node);
        key
    }

    /// Files an entry into its bucket or the far heap. `seq` is already
    /// assigned; shared by [`EventQueue::schedule`] and far→near
    /// migration.
    #[inline]
    fn insert_entry(&mut self, entry: Entry<E>) {
        let slot = self.filing_slot(entry.at);
        if slot < self.cursor + self.heads.len() as u64 {
            self.link(slot, entry);
        } else {
            self.far_next_slot = self.far_next_slot.min(slot);
            self.far.push(entry);
        }
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// Scheduling before an already-popped timestamp is a logic error —
    /// the simulation clock would have to run backwards, corrupting the
    /// deterministic interleaving. Debug builds panic; release builds
    /// clamp the event to fire "now" (it pops next, at the last-popped
    /// instant).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.last_popped,
            "event scheduled at {at}, before the already-popped {} — time travel would corrupt determinism",
            self.last_popped
        );
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.insert_entry(Entry { at, seq, event });
        self.debug_check_counts();
    }

    /// Debug builds: events scheduled minus events popped equals the
    /// events resident in the buckets and the far heap.
    #[inline]
    fn debug_check_counts(&self) {
        debug_assert_eq!(self.len, self.near_len + self.far.len(), "pending events lost or duplicated");
    }

    /// Moves far-heap events whose slot has entered the window into their
    /// buckets.
    fn drain_far(&mut self) {
        let window_end = self.cursor + self.heads.len() as u64;
        while let Some(top) = self.far.peek() {
            if self.slot_of(top.at) >= window_end {
                break;
            }
            let entry = self.far.pop().expect("peeked entry vanished");
            self.link(self.filing_slot(entry.at), entry);
        }
        self.far_next_slot = self.far.peek().map_or(u64::MAX, |e| self.slot_of(e.at));
    }

    /// With the window empty, jumps the cursor to the earliest far event
    /// and migrates the now-near events in.
    #[cold]
    fn jump_to_far(&mut self) {
        debug_assert_eq!(self.near_len, 0);
        if let Some(top) = self.far.peek() {
            self.cursor = self.cursor.max(self.slot_of(top.at));
            self.drain_far();
        }
    }

    /// Doubles the bucket width and re-files the window, shrinking the
    /// per-pop scan distance for sparse schedules. Nodes are relinked in
    /// place, without moving an event or allocating: every bucket list
    /// is spliced onto one chain, which is then re-filed at the new
    /// width. Halving the cursor keeps every re-filed slot inside the
    /// (twice as long) window.
    #[cold]
    #[inline(never)]
    fn widen(&mut self) {
        let mut chain = NONE;
        for head in &mut self.heads {
            let mut key = std::mem::replace(head, NONE);
            while key != NONE {
                let next = std::mem::replace(&mut self.nodes[key as usize].next, chain);
                chain = key;
                key = next;
            }
        }
        self.shift += 1;
        self.cursor >>= 1;
        while chain != NONE {
            let node = self.nodes[chain as usize];
            let (next, slot) = (node.next, self.filing_slot(node.entry.at));
            debug_assert!(
                slot < self.cursor + self.heads.len() as u64,
                "widen pushed an event past the window"
            );
            let head = &mut self.heads[(slot & self.mask) as usize];
            self.nodes[chain as usize].next = std::mem::replace(head, chain);
            chain = next;
        }
        // The longer window may now cover events that waited in the far
        // heap; pull them in so the near/far order invariant holds.
        self.drain_far();
    }

    /// Advances the cursor to the first non-empty bucket and returns its
    /// ring index, migrating far events as the window reaches them. The
    /// queue must not be empty.
    #[inline]
    fn seek(&mut self) -> usize {
        if self.near_len == 0 {
            self.jump_to_far();
        }
        loop {
            let idx = (self.cursor & self.mask) as usize;
            if self.heads[idx] != NONE {
                return idx;
            }
            self.cursor += 1;
            self.scans_in_period += 1;
            if self.far_next_slot < self.cursor + self.heads.len() as u64 {
                self.drain_far();
            }
            if self.near_len == 0 {
                self.jump_to_far();
            }
        }
    }

    /// Unlinks node `key` from bucket `idx`, where `prev` is its
    /// predecessor in the list ([`NONE`] for the head), frees the node
    /// and returns its entry.
    #[inline]
    fn unlink(&mut self, idx: usize, prev: u32, key: u32) -> Entry<E> {
        let node = &mut self.nodes[key as usize];
        let (entry, next) = (node.entry, std::mem::replace(&mut node.next, self.free));
        self.free = key;
        self.near_len -= 1;
        match prev {
            NONE => self.heads[idx] = next,
            prev => self.nodes[prev as usize].next = next,
        }
        entry
    }

    /// One min-scan of the cursor bucket `idx`: the node holding its
    /// earliest `(time, seq)`, that node's predecessor ([`NONE`] for the
    /// head), its time, and the number of entries sharing that time (the
    /// tie run). The bucket's earliest entry is the global minimum:
    /// every other window slot is later, and far events are beyond the
    /// window.
    #[inline]
    fn scan(&self, idx: usize) -> (u32, u32, SimTime, usize) {
        let mut best = self.heads[idx];
        let mut best_prev = NONE;
        let first = &self.nodes[best as usize];
        let mut best_key = (first.entry.at, first.entry.seq);
        let mut run = 1;
        let (mut prev, mut key) = (best, first.next);
        while key != NONE {
            let node = &self.nodes[key as usize];
            let (at, seq) = (node.entry.at, node.entry.seq);
            if at < best_key.0 {
                (best, best_prev, best_key, run) = (key, prev, (at, seq), 1);
            } else if at == best_key.0 {
                run += 1;
                if seq < best_key.1 {
                    (best, best_prev, best_key) = (key, prev, (at, seq));
                }
            }
            (prev, key) = (key, node.next);
        }
        (best, best_prev, best_key.0, run)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Popped timestamps are non-decreasing across the queue's lifetime as
    /// long as no event is scheduled strictly before an already-popped time;
    /// the returned time is clamped to the previous pop so the simulation
    /// clock never runs backwards. Events with equal timestamps pop in
    /// FIFO (scheduling) order — asserted in debug builds.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let idx = self.seek();
        let (best, best_prev, _, _) = self.scan(idx);
        let entry = self.unlink(idx, best_prev, best);
        let popped = self.finish_pop(entry);
        self.debug_check_counts();
        Some(popped)
    }

    /// Drains the earliest *tie run* — every pending event sharing the
    /// earliest raw timestamp — into `out` (cleared first), returning
    /// the number of events drained (0 when the queue is empty).
    ///
    /// The concatenation of successive batches is exactly the
    /// one-at-a-time [`EventQueue::pop`] sequence: batch members share
    /// one raw timestamp and arrive in FIFO (`seq`) order, which is
    /// precisely how [`EventQueue::pop`] would emit them. In release
    /// builds a past-scheduled event clamped to a later time pops at
    /// the same clamped instant as its batch's members but in a batch
    /// of its own — batch *boundaries* carry no meaning, so the
    /// dispatch sequence is still the pop sequence.
    ///
    /// The common no-tie case costs exactly one bucket min-scan — the
    /// same work [`EventQueue::pop`] does — because the scan that finds
    /// the minimum also counts the entries tied with it.
    pub fn pop_batch(&mut self, out: &mut Vec<(SimTime, E)>) -> usize {
        out.clear();
        if self.len == 0 {
            return 0;
        }
        let idx = self.seek();
        // Every tied entry is in this bucket — equal raw times share a
        // slot, and the far heap only holds slots beyond the window (see
        // the module docs).
        let (best, best_prev, at, run) = self.scan(idx);
        if run == 1 {
            let entry = self.unlink(idx, best_prev, best);
            out.push(self.finish_pop(entry));
        } else {
            self.pop_run(idx, at, out);
        }
        self.debug_check_counts();
        out.len()
    }

    /// Pops a tie run of two or more events at `at` from the cursor
    /// bucket `idx` into `out`, in FIFO (`seq`) order.
    #[cold]
    #[inline(never)]
    fn pop_run(&mut self, idx: usize, at: SimTime, out: &mut Vec<(SimTime, E)>) {
        // Unlink the whole run, which takes it off `near_len`, before any
        // per-entry bookkeeping: that may widen the buckets at the
        // adaptation checkpoint, and the widen must then see only the
        // events still bucketed. `scratch` is detached from `self` so the
        // bookkeeping can borrow the queue.
        let mut scratch = std::mem::take(&mut self.scratch);
        let (mut prev, mut key) = (NONE, self.heads[idx]);
        while key != NONE {
            let node = &self.nodes[key as usize];
            let next = node.next;
            if node.entry.at == at {
                scratch.push(self.unlink(idx, prev, key));
            } else {
                prev = key;
            }
            key = next;
        }
        scratch.sort_unstable_by_key(|e| e.seq);
        for entry in scratch.drain(..) {
            out.push(self.finish_pop(entry));
        }
        self.scratch = scratch;
    }

    /// Per-pop bookkeeping shared by [`EventQueue::pop`] and
    /// [`EventQueue::pop_batch`], for an entry already unlinked:
    /// adaptation accounting, the monotonic-clock clamp and the FIFO tie
    /// assertion.
    #[inline]
    fn finish_pop(&mut self, entry: Entry<E>) -> (SimTime, E) {
        self.len -= 1;
        self.pops_in_period += 1;
        if self.pops_in_period == ADAPT_PERIOD {
            if self.scans_in_period > ADAPT_SCAN_RATIO * ADAPT_PERIOD && self.shift < MAX_SHIFT {
                self.widen();
            }
            self.pops_in_period = 0;
            self.scans_in_period = 0;
        }
        let at = entry.at.max(self.last_popped);
        // FIFO among ties: equal pop times must preserve scheduling order
        // (callers and the golden pins depend on it). In debug builds
        // past-scheduling panics in `schedule`, so `entry.at` is the raw
        // timestamp here.
        debug_assert!(
            self.last_seq == u64::MAX || at > self.last_popped || entry.seq > self.last_seq,
            "FIFO tie order violated at {at}: seq {} after {}",
            entry.seq,
            self.last_seq
        );
        self.last_popped = at;
        self.last_seq = entry.seq;
        (at, entry.event)
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.near_len == 0 {
            return self.far.peek().map(|e| e.at.max(self.last_popped));
        }
        let mut slot = self.cursor;
        let mut key = loop {
            match self.heads[(slot & self.mask) as usize] {
                NONE => slot += 1,
                head => break head,
            }
        };
        let mut min = self.nodes[key as usize].entry.at;
        while key != NONE {
            let node = &self.nodes[key as usize];
            min = min.min(node.entry.at);
            key = node.next;
        }
        Some(min.max(self.last_popped))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events but keeps the sequence counter, so a
    /// cleared queue still breaks ties deterministically.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NONE;
        self.heads.fill(NONE);
        self.far.clear();
        self.far_next_slot = u64::MAX;
        self.near_len = 0;
        self.len = 0;
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for us in [30u64, 10, 20, 5, 25] {
            q.schedule(SimTime::from_us(us), us);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(42), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_us(42)));
        assert_eq!(q.pop().unwrap().0, SimTime::from_us(42));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_sees_through_both_tiers() {
        let mut q = EventQueue::with_capacity(8);
        // Far beyond the initial window.
        q.schedule(SimTime::from_secs(5), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        q.schedule(SimTime::from_us(3), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_us(3)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.pop().unwrap().1, "far");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time travel would corrupt determinism")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(10), "a");
        assert_eq!(q.pop().unwrap().0, SimTime::from_us(10));
        q.schedule(SimTime::from_us(3), "b");
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn clock_never_runs_backwards() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(10), "a");
        assert_eq!(q.pop().unwrap().0, SimTime::from_us(10));
        // Scheduled in the past: clamped to the last popped instant.
        q.schedule(SimTime::from_us(3), "b");
        assert_eq!(q.pop().unwrap().0, SimTime::from_us(10));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        // Sequence numbering survives clear.
        q.schedule(SimTime::ZERO, 3);
        q.schedule(SimTime::ZERO, 4);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn sparse_schedules_trigger_widening_and_stay_ordered() {
        // Events 50 µs apart: ~50 empty 1 µs buckets per pop, so the
        // adaptation must kick in — and must not perturb the pop order.
        let mut q = EventQueue::with_capacity(16);
        let n = 4 * ADAPT_PERIOD;
        for i in 0..n {
            q.schedule(SimTime::from_us(50 * i), i);
        }
        let initial_shift = q.shift;
        let mut expected = 0u64;
        while let Some((at, i)) = q.pop() {
            assert_eq!(i, expected, "order broke at {at}");
            expected += 1;
        }
        assert_eq!(expected, n);
        assert!(q.shift > initial_shift, "sparse-scan adaptation never widened the buckets");
    }

    #[test]
    fn degenerate_spacing_hint_keeps_the_default_width() {
        // A zero/NaN/infinite aggregate rate reaches the queue as a zero
        // spacing (`SimDuration::from_secs_f64` clamps); the hint must
        // fall back to the default width, not pin the narrowest bucket.
        let q: EventQueue<()> = EventQueue::with_spacing(64, crate::SimDuration::ZERO);
        assert_eq!(q.shift, INITIAL_SHIFT);
        let from_nan = crate::SimDuration::from_secs_f64(1.0 / f64::NAN);
        assert!(from_nan.is_zero());
        let q: EventQueue<()> = EventQueue::with_spacing(64, from_nan);
        assert_eq!(q.shift, INITIAL_SHIFT);
        // A huge (but real) spacing clamps to the widest hintable bucket
        // instead of overflowing the power-of-two round-up.
        let q: EventQueue<()> = EventQueue::with_spacing(64, crate::SimDuration::MAX);
        assert_eq!(q.shift, MAX_HINT_SHIFT);
        // And a sane hint still lands between the bounds.
        let q: EventQueue<()> = EventQueue::with_spacing(64, crate::SimDuration::from_us(4));
        assert!((MIN_SHIFT..=MAX_HINT_SHIFT).contains(&q.shift));
    }

    #[test]
    fn far_events_migrate_in_order() {
        let mut q = EventQueue::with_capacity(8);
        // Interleave window-local and far-future events.
        for i in 0..50u64 {
            q.schedule(SimTime::from_ms(10 * (i % 5) + 1), 1000 + i);
            q.schedule(SimTime::from_us(i), i);
        }
        let mut times = Vec::new();
        while let Some((at, _)) = q.pop() {
            times.push(at);
        }
        assert_eq!(times.len(), 100);
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted, "pop order must be non-decreasing across tiers");
    }
}
