//! Conformance tests for the calendar-queue `EventQueue`: the bucketed
//! implementation must be observably identical to a plain binary heap
//! ordered by `(time, seq)` — non-decreasing pop times, FIFO among equal
//! timestamps, and bit-identical pop sequences on random schedules,
//! including interleaved schedule/pop traffic that slides the bucket
//! window and exercises the far-future heap. The long cases run past
//! the queue's 1,024-pop adaptation checkpoint with sparse stretches,
//! so bucket widening happens mid-stream, inside tie runs included.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use tpv::sim::{EventQueue, SimDuration, SimTime};

/// The reference implementation: a plain min-heap over `(time, seq)`.
/// This is semantically the pre-calendar-queue `EventQueue`.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    seq: u64,
    last_popped: SimTime,
}

impl ReferenceQueue {
    fn schedule(&mut self, at: SimTime) {
        self.heap.push(Reverse((at, self.seq)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let Reverse((at, seq)) = self.heap.pop()?;
        let at = at.max(self.last_popped);
        self.last_popped = at;
        Some((at, seq))
    }

    fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Event times for the long cases: each `(gap, pick)` is one event.
/// `pick == 0` stretches the gap to up to 1 ms (a sparse stretch, tens
/// of empty buckets per pop, so the adaptation widens), `pick == 1`
/// ties the event with the previous one, and the rest stay dense.
fn long_schedule(steps: &[(u64, u32)]) -> Vec<SimTime> {
    let mut at = SimTime::ZERO;
    steps
        .iter()
        .map(|&step| {
            at += step_gap(step);
            at
        })
        .collect()
}

/// One step's gap for [`long_schedule`].
fn step_gap((gap, pick): (u64, u32)) -> SimDuration {
    SimDuration::from_ns(match pick {
        0 => gap * 1_000,
        1 => 0,
        _ => gap,
    })
}

/// Drains `calendar` batch by batch against `reference`, checking each
/// batch is one timestamp's FIFO run; returns the events drained.
fn drain_batches_against(calendar: &mut EventQueue<u64>, reference: &mut ReferenceQueue) -> usize {
    let mut batch = Vec::new();
    let mut drained = 0;
    while calendar.pop_batch(&mut batch) > 0 {
        for pair in batch.windows(2) {
            assert_eq!(pair[0].0, pair[1].0, "a batch must be one timestamp's tie run");
            assert!(pair[0].1 < pair[1].1, "tie run out of FIFO order");
        }
        for &got in &batch {
            assert_eq!(Some(got), reference.pop(), "batched queue diverged after {drained} events");
            drained += 1;
        }
    }
    assert_eq!(reference.pop(), None, "batched queue ended early");
    drained
}

/// A bucket widen at the 1,024-pop adaptation checkpoint that lands
/// inside a tie run: 1,022 sparse events (100 µs apart, ~50 empty
/// buckets per pop), then a 3-event tie run whose second member is the
/// 1,024th pop, then one event 10 µs later and one 1 s later. Every
/// event must pop in order at its own time.
#[test]
fn widen_inside_a_tie_run_keeps_every_event() {
    let tie = SimTime::from_us(102_300);
    let mut times: Vec<SimTime> = (0..1022).map(|i| SimTime::from_us(100 * i)).collect();
    times.extend([tie, tie, tie, tie + SimDuration::from_us(10), tie + SimDuration::from_secs(1)]);
    let mut q = EventQueue::new();
    for (i, &at) in times.iter().enumerate() {
        q.schedule(at, i);
    }
    let mut batch = Vec::new();
    let mut popped = Vec::new();
    while q.pop_batch(&mut batch) > 0 {
        popped.extend_from_slice(&batch);
    }
    let want: Vec<(SimTime, usize)> = times.iter().copied().zip(0..).collect();
    assert_eq!(popped, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pop times never decrease, whatever the schedule.
    #[test]
    fn pop_times_are_non_decreasing(times in prop::collection::vec(0u64..50_000_000, 1..600)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last, "clock ran backwards: {at} after {last}");
            last = at;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Events with equal timestamps pop in scheduling (FIFO) order.
    #[test]
    fn ties_pop_in_fifo_order(
        times in prop::collection::vec(0u64..64, 1..600),
        scale_pick in 0u32..3,
    ) {
        // Few distinct timestamps at several magnitudes ⇒ many ties per
        // bucket width regime.
        let scale = [1u64, 1_000, 1_000_000][scale_pick as usize];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t * scale), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, id)) = q.pop() {
            if let Some((prev_at, prev_id)) = last {
                if at == prev_at {
                    prop_assert!(id > prev_id, "tie at {at}: {id} popped after {prev_id}");
                }
            }
            last = Some((at, id));
        }
    }

    /// The calendar queue's pop sequence equals the reference heap's,
    /// with everything scheduled up front.
    #[test]
    fn matches_reference_heap_on_batch_schedules(
        times in prop::collection::vec(0u64..100_000_000, 1..500),
    ) {
        let mut calendar = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        for (i, &t) in times.iter().enumerate() {
            calendar.schedule(SimTime::from_ns(t), i as u64);
            reference.schedule(SimTime::from_ns(t));
        }
        loop {
            match (calendar.pop(), reference.pop()) {
                (None, None) => break,
                (got, want) => {
                    let got = got.expect("calendar queue ended early");
                    let (want_at, want_seq) = want.expect("calendar queue had extra events");
                    prop_assert_eq!(got.0, want_at);
                    prop_assert_eq!(got.1, want_seq);
                }
            }
        }
    }

    /// Interleaved schedule/pop traffic — future events scheduled
    /// relative to the current clock, like a simulation does — matches
    /// the reference heap event for event. Large offsets land in the
    /// far-future heap and migrate back as the window slides.
    #[test]
    fn matches_reference_heap_under_interleaving(
        offsets in prop::collection::vec((0u64..20_000_000, 1u64..4), 1..400),
    ) {
        let mut calendar = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut next_id = 0u64;
        let mut clock = SimTime::ZERO;
        for &(offset, burst) in &offsets {
            for b in 0..burst {
                let at = clock + SimDuration::from_ns(offset + b);
                calendar.schedule(at, next_id);
                reference.schedule(at);
                next_id += 1;
            }
            // Drain one event per scheduled burst, advancing the clock.
            let got = calendar.pop().expect("calendar queue empty while events pending");
            let want = reference.pop().expect("reference queue empty while events pending");
            prop_assert_eq!(got.0, want.0);
            prop_assert_eq!(got.1, want.1);
            clock = got.0;
        }
        // Drain the tails in lockstep.
        loop {
            match (calendar.pop(), reference.pop()) {
                (None, None) => break,
                (got, want) => {
                    let got = got.expect("calendar queue ended early");
                    let want = want.expect("calendar queue had extra events");
                    prop_assert_eq!(got.0, want.0);
                    prop_assert_eq!(got.1, want.1);
                }
            }
        }
    }

    /// Batched draining is presentation, not order: the concatenation
    /// of `pop_batch` results equals the one-at-a-time pop sequence,
    /// and every batch is a single timestamp's FIFO run.
    #[test]
    fn pop_batch_concatenation_matches_pop_sequence(
        times in prop::collection::vec(0u64..1024, 1..600),
        scale_pick in 0u32..3,
    ) {
        // Few distinct timestamps at several magnitudes ⇒ plenty of
        // multi-event tie runs in every bucket-width regime.
        let scale = [1u64, 1_000, 1_000_000][scale_pick as usize];
        let mut batched = EventQueue::new();
        let mut plain = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            let at = SimTime::from_ns(t * scale);
            batched.schedule(at, i);
            plain.schedule(at, i);
        }
        let mut batch: Vec<(SimTime, usize)> = Vec::new();
        let mut drained = 0;
        while batched.pop_batch(&mut batch) > 0 {
            for pair in batch.windows(2) {
                prop_assert_eq!(pair[0].0, pair[1].0, "a batch must be one timestamp's tie run");
                prop_assert!(pair[0].1 < pair[1].1, "tie run out of FIFO order: {} before {}", pair[0].1, pair[1].1);
            }
            for &(at, id) in &batch {
                let (want_at, want_id) = plain.pop().expect("batched queue drained extra events");
                prop_assert_eq!(at, want_at);
                prop_assert_eq!(id, want_id);
                drained += 1;
            }
        }
        prop_assert_eq!(drained, times.len());
        prop_assert!(plain.pop().is_none(), "batched queue ended early");
    }

    /// `pop_batch` under interleaved schedule/drain traffic — the shape
    /// the runtime's dispatch loop produces, where events scheduled
    /// between batches can tie with times already drained — still
    /// matches the one-at-a-time pop sequence event for event.
    #[test]
    fn pop_batch_matches_pop_under_interleaving(
        offsets in prop::collection::vec((0u64..20_000_000, 1u64..4), 1..300),
    ) {
        let mut batched = EventQueue::new();
        let mut plain = EventQueue::new();
        let mut next_id = 0u64;
        let mut clock = SimTime::ZERO;
        let mut batch: Vec<(SimTime, u64)> = Vec::new();
        for &(offset, burst) in &offsets {
            for b in 0..burst {
                let at = clock + SimDuration::from_ns(offset + b);
                batched.schedule(at, next_id);
                plain.schedule(at, next_id);
                next_id += 1;
            }
            // Drain one batch per burst and mirror it with that many
            // single pops; the clock advances to the last popped time.
            if batched.pop_batch(&mut batch) > 0 {
                for &(at, id) in &batch {
                    let (want_at, want_id) = plain.pop().expect("plain queue ended early");
                    prop_assert_eq!(at, want_at);
                    prop_assert_eq!(id, want_id);
                }
                clock = batch.last().expect("non-empty batch").0;
            }
        }
        // Drain the tails in lockstep.
        while batched.pop_batch(&mut batch) > 0 {
            for &(at, id) in &batch {
                let (want_at, want_id) = plain.pop().expect("plain queue ended early");
                prop_assert_eq!(at, want_at);
                prop_assert_eq!(id, want_id);
            }
        }
        prop_assert!(plain.pop().is_none(), "batched queue ended early");
    }

    /// Batched draining of 1,100–3,000 events scheduled up front, with
    /// sparse stretches that make the queue widen and ties across the
    /// adaptation checkpoint, matches the reference heap.
    #[test]
    fn pop_batch_matches_reference_past_the_adaptation_checkpoint(
        steps in prop::collection::vec((0u64..1_000, 0u32..16), 1_100..3_000),
    ) {
        let mut calendar = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        for (i, at) in long_schedule(&steps).into_iter().enumerate() {
            calendar.schedule(at, i as u64);
            reference.schedule(at);
        }
        prop_assert_eq!(drain_batches_against(&mut calendar, &mut reference), steps.len());
    }

    /// Interleaved traffic past the checkpoint: each step schedules one
    /// event its [`step_gap`] ahead of the clock (a tied step reuses the
    /// previous event's time while the clock has not passed it), and
    /// two steps in three drain a batch, so widening re-files a window
    /// that events keep entering.
    #[test]
    fn pop_batch_matches_reference_interleaved_past_the_adaptation_checkpoint(
        steps in prop::collection::vec((0u64..1_000, 0u32..16), 1_100..3_000),
    ) {
        let mut calendar = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut batch = Vec::new();
        let (mut clock, mut last) = (SimTime::ZERO, SimTime::ZERO);
        for (i, &step) in steps.iter().enumerate() {
            let at = if step.1 == 1 { last.max(clock) } else { clock + step_gap(step) };
            calendar.schedule(at, i as u64);
            reference.schedule(at);
            last = at;
            if i % 3 != 0 && calendar.pop_batch(&mut batch) > 0 {
                for &got in &batch {
                    prop_assert_eq!(Some(got), reference.pop());
                }
                clock = batch[0].0;
            }
        }
        drain_batches_against(&mut calendar, &mut reference);
    }

    /// `clear` after a widened, partly drained run leaves a queue that
    /// behaves like a fresh one past the clock: the reuse matches the
    /// reference heap, which keeps its sequence counter across the clear
    /// as the calendar queue does.
    #[test]
    fn clear_then_reuse_matches_reference(
        steps in prop::collection::vec((0u64..1_000, 0u32..16), 1_100..3_000),
        drained in 1_025usize..1_100,
    ) {
        let mut calendar = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let times = long_schedule(&steps);
        for (i, &at) in times.iter().enumerate() {
            calendar.schedule(at, i as u64);
            reference.schedule(at);
        }
        let mut clock = SimTime::ZERO;
        for _ in 0..drained {
            let got = calendar.pop();
            prop_assert_eq!(got, reference.pop());
            clock = got.expect("fewer events than the drain").0;
        }
        calendar.clear();
        reference.clear();
        prop_assert!(calendar.is_empty());
        prop_assert_eq!(calendar.peek_time(), None);
        for (i, &at) in times.iter().enumerate() {
            let at = clock + (at - SimTime::ZERO);
            calendar.schedule(at, (times.len() + i) as u64);
            reference.schedule(at);
        }
        prop_assert_eq!(calendar.len(), times.len());
        prop_assert_eq!(drain_batches_against(&mut calendar, &mut reference), times.len());
    }

    /// `len` and `peek_time` agree with the pop sequence.
    #[test]
    fn len_and_peek_are_consistent(times in prop::collection::vec(0u64..10_000_000, 1..200)) {
        let mut q = EventQueue::with_capacity(times.len());
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), i);
        }
        let mut remaining = times.len();
        while remaining > 0 {
            prop_assert_eq!(q.len(), remaining);
            let peeked = q.peek_time().expect("peek on non-empty queue");
            let (at, _) = q.pop().expect("pop on non-empty queue");
            prop_assert_eq!(peeked, at, "peek_time disagreed with the next pop");
            remaining -= 1;
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.peek_time(), None);
    }
}
