//! The event calendar: a priority structure of future events ordered by
//! time, popped in (time, insertion-sequence) order.
//!
//! Determinism requires a total order on events. Two events scheduled for
//! the same instant are executed in the order they were *scheduled*
//! (insertion sequence), never in an order that depends on queue
//! internals.
//!
//! Two implementations share that contract:
//!
//! * [`Calendar`] — a hierarchical timer wheel, the default. Near-future
//!   events (the overwhelming majority in this workload: network hops of
//!   ~50µs, service times of ~300µs) land in O(1) buckets; far-future
//!   events cascade down the levels as virtual time advances; events
//!   beyond the outermost horizon wait in a binary-heap overflow tier.
//!   Each bucket is heapified only when the cursor reaches it, so the
//!   steady-state cost per event is an O(1) amortized push plus an
//!   O(log b) pop for small bucket population b — measurably faster than
//!   a global heap's O(log n) sift over a cache-hostile array (see
//!   `benches/micro.rs`, `calendar` group).
//! * [`HeapCalendar`] — the original `BinaryHeap` implementation, kept as
//!   the reference for differential property tests
//!   (`tests/calendar_props.rs`) and as the benchmark baseline.
//!
//! ## Wheel geometry
//!
//! Level 0 buckets are 2¹⁴ns ≈ 16.4µs wide; each of the three levels has
//! 64 buckets, so the spans are ≈1.05ms, ≈67ms and ≈4.3s. A 64-bit
//! occupancy mask per level lets the cursor skip empty regions in O(1),
//! and an idle calendar jumps straight to the next event (no tick
//! traversal), so sparse timelines (e.g. a single 1s adaptation tick)
//! cost nothing.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// Log₂ of the level-0 bucket width in nanoseconds.
const SLOT_NS_BITS: u32 = 14;
/// Log₂ of the bucket count per level.
const LEVEL_BITS: u32 = 6;
/// Buckets per level.
const SLOTS: u64 = 1 << LEVEL_BITS;
/// Number of wheel levels before the overflow heap.
const LEVELS: usize = 3;

/// An event queued for execution at a given virtual instant.
#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reverse temporal order so `BinaryHeap` (a max-heap) pops the
    /// *earliest* event; ties broken by insertion sequence, earliest first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic calendar of future events, backed by a hierarchical
/// timer wheel with a heap overflow tier.
///
/// Pops events in non-decreasing time order; events with equal timestamps
/// pop in insertion order. This is the only ordering structure in the
/// kernel, so simulations are reproducible bit-for-bit given equal seeds.
#[derive(Debug)]
pub struct Calendar<E> {
    /// The bucket currently being drained, as a small min-heap on
    /// (time, seq). Everything in here precedes everything still in the
    /// wheel or the overflow tier, and zero-delay pushes land here in
    /// O(log b) for bucket population b. In the degenerate case where
    /// every event shares one bucket, this *is* [`HeapCalendar`] plus a
    /// constant — the wheel is never asymptotically worse.
    current: BinaryHeap<Scheduled<E>>,
    /// `LEVELS × SLOTS` unsorted buckets, flattened.
    slots: Vec<Vec<Scheduled<E>>>,
    /// Per-level bucket occupancy bitmask.
    occupancy: [u64; LEVELS],
    /// Absolute level-0 bucket index of `current`.
    cursor: u64,
    /// Events beyond the outermost wheel horizon.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Queued event count across the wheel tiers (the hop lane counts
    /// separately).
    len: usize,
    next_seq: u64,
    /// Fixed delta (ns) of the hop lane, when declared.
    hop_delta: Option<u64>,
    /// The hop lane: every relative-delay push whose delay equals
    /// `hop_delta` exactly. One fixed delta over a monotone clock means
    /// entries arrive in non-decreasing `(time, seq)` order, so the lane
    /// is FIFO *by construction* — push and pop are O(1) `VecDeque` ends
    /// with no bucket math and no heap sift. On the paper's constant
    /// 50 µs mesh this lane carries every network hop (~⅔ of all
    /// events), which is what "batching constant-latency hops into
    /// precomputed deltas" buys.
    hop_lane: VecDeque<Scheduled<E>>,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Absolute bucket index of instant `t` at wheel level `level`.
#[inline]
fn bucket(t: SimTime, level: usize) -> u64 {
    t.as_nanos() >> (SLOT_NS_BITS + LEVEL_BITS * level as u32)
}

/// First set bit strictly-circularly after `pos` (wrapping back to and
/// including `pos` itself, which then means "one full lap ahead").
/// Returns `(bit, wrapped)`.
#[inline]
fn next_occupied(mask: u64, pos: u64) -> Option<(u64, bool)> {
    if mask == 0 {
        return None;
    }
    let ahead = if pos + 1 >= 64 {
        0
    } else {
        mask >> (pos + 1) << (pos + 1)
    };
    if ahead != 0 {
        Some((ahead.trailing_zeros() as u64, false))
    } else {
        Some((mask.trailing_zeros() as u64, true))
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        Calendar {
            current: BinaryHeap::new(),
            slots: (0..SLOTS as usize * LEVELS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            hop_delta: None,
            hop_lane: VecDeque::new(),
        }
    }

    /// Creates an empty calendar with room for `cap` events in the
    /// drain buffer (buckets grow on demand and keep their capacity).
    pub fn with_capacity(cap: usize) -> Self {
        let mut cal = Self::new();
        cal.current.reserve(cap);
        cal
    }

    /// Declares the hop lane's fixed delta: every later
    /// [`Calendar::push_after`] whose relative delay equals `delta`
    /// *exactly* is routed past the wheel into a FIFO. Correct for any
    /// single delta because simulation time is monotone — `now + delta`
    /// never decreases — so lane entries are ordered by construction
    /// and merging at pop preserves the global `(time, seq)` order.
    ///
    /// # Panics
    /// Panics if a lane with a different delta already holds events.
    pub fn set_hop_lane(&mut self, delta: SimDuration) {
        assert!(
            self.hop_lane.is_empty() || self.hop_delta == Some(delta.as_nanos()),
            "cannot re-target a non-empty hop lane"
        );
        self.hop_delta = Some(delta.as_nanos());
    }

    /// Schedules `event` at `at = now + d`, routing delays that match
    /// the hop lane's delta into the FIFO lane and everything else
    /// through the wheel. Callers must pass `at` consistent with a
    /// monotone `now` (the engine's `schedule_in` contract).
    #[inline]
    pub fn push_after(&mut self, at: SimTime, d: SimDuration, event: E) {
        if self.hop_delta == Some(d.as_nanos()) {
            let seq = self.next_seq;
            self.next_seq += 1;
            debug_assert!(
                self.hop_lane.back().is_none_or(|b| b.time <= at),
                "hop lane push out of order"
            );
            self.hop_lane.push_back(Scheduled {
                time: at,
                seq,
                event,
            });
        } else {
            self.push(at, event);
        }
    }

    /// Schedules `event` for execution at instant `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if self.len == 1 {
            // Empty calendar: point the cursor at the event's bucket and
            // make it the drain buffer directly (keeps the invariant that
            // `current` is non-empty whenever the calendar is).
            self.cursor = bucket(time, 0);
            debug_assert!(self.current.is_empty());
            self.current.push(Scheduled { time, seq, event });
            return;
        }
        self.place(Scheduled { time, seq, event });
    }

    /// Routes an entry to the drain buffer, a wheel bucket or the
    /// overflow heap. Sequence numbers are preserved, so cascading a
    /// bucket through this function keeps the total order.
    fn place(&mut self, entry: Scheduled<E>) {
        let b0 = bucket(entry.time, 0);
        if b0 <= self.cursor {
            // Within (or before) the bucket being drained: merge into the
            // drain heap at its (time, seq) rank.
            self.current.push(entry);
            return;
        }
        for level in 0..LEVELS {
            let b = bucket(entry.time, level);
            let cur = self.cursor >> (LEVEL_BITS * level as u32);
            // A window of exactly SLOTS buckets strictly ahead of the
            // cursor is unambiguous: the cursor's own position is always
            // already drained, so a full lap ahead reuses it safely.
            if b - cur <= SLOTS {
                let pos = (b % SLOTS) as usize;
                self.slots[level * SLOTS as usize + pos].push(entry);
                self.occupancy[level] |= 1 << pos;
                return;
            }
        }
        self.overflow.push(entry);
    }

    /// Refills the drain buffer from the earliest occupied source.
    ///
    /// # Panics
    /// Must only be called with a non-empty calendar and an exhausted
    /// drain buffer.
    fn refill(&mut self) {
        debug_assert!(self.current.is_empty() && self.len > 0);
        loop {
            // The earliest next source, measured in level-0 bucket units.
            // Ties go to the *coarsest* source (`<=` with coarser levels
            // evaluated later): a coarse bucket sharing its start with a
            // fine one may hold events for that same span, so it must
            // cascade before the fine bucket is drained — otherwise the
            // cursor would slide past it and misread its occupancy bit as
            // a lap ahead.
            let mut best: Option<(u64, usize)> = None; // (level-0 units, source)
            for level in 0..LEVELS {
                let cur = self.cursor >> (LEVEL_BITS * level as u32);
                if let Some((pos, wrapped)) = next_occupied(self.occupancy[level], cur % SLOTS) {
                    let abs = (cur / SLOTS) * SLOTS + pos + if wrapped { SLOTS } else { 0 };
                    let start0 = abs << (LEVEL_BITS * level as u32);
                    if best.is_none_or(|(s, _)| start0 <= s) {
                        best = Some((start0, level));
                    }
                }
            }
            const HEAP: usize = LEVELS;
            if let Some(top) = self.overflow.peek() {
                let slot0 = bucket(top.time, 0);
                if best.is_none_or(|(s, _)| slot0 <= s) {
                    best = Some((slot0, HEAP));
                }
            }
            let (start0, source) = best.expect("refill on an empty calendar");
            match source {
                0 => {
                    // Drain the bucket: heapify it into the drain buffer
                    // in O(b), swapping allocations so both the bucket
                    // and the buffer keep their capacity across laps.
                    self.cursor = start0;
                    let pos = (start0 % SLOTS) as usize;
                    let entries = std::mem::take(&mut self.slots[pos]);
                    self.occupancy[0] &= !(1 << pos);
                    let old = std::mem::replace(&mut self.current, BinaryHeap::from(entries));
                    self.slots[pos] = old.into_vec();
                    return;
                }
                HEAP => {
                    // Jump to the overflow's first event and migrate every
                    // overflow event the wheel can now hold.
                    self.cursor = self.cursor.max(start0.saturating_sub(1));
                    let horizon = ((self.cursor >> (LEVEL_BITS * (LEVELS as u32 - 1))) + SLOTS)
                        << (SLOT_NS_BITS + LEVEL_BITS * (LEVELS as u32 - 1));
                    while self
                        .overflow
                        .peek()
                        .is_some_and(|e| e.time.as_nanos() < horizon)
                    {
                        let entry = self.overflow.pop().expect("peeked");
                        self.place(entry);
                    }
                    // Migrated events whose bucket equals the cursor were
                    // sorted straight into the drain buffer; they precede
                    // every remaining wheel bucket, so the refill is done.
                    if !self.current.is_empty() {
                        return;
                    }
                }
                level => {
                    // Cascade the earliest occupied coarse bucket down.
                    let abs = start0 >> (LEVEL_BITS * level as u32);
                    self.cursor = start0 - 1;
                    let pos = (abs % SLOTS) as usize;
                    let entries = std::mem::take(&mut self.slots[level * SLOTS as usize + pos]);
                    self.occupancy[level] &= !(1 << pos);
                    for entry in entries {
                        self.place(entry);
                    }
                }
            }
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// The hop lane's head is merged against the wheel's minimum on
    /// `(time, seq)`, so the total order is exactly what a single
    /// structure would produce — lane or no lane.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let lane_first = match (self.hop_lane.front(), self.current.peek()) {
            (Some(l), Some(w)) => (l.time, l.seq) < (w.time, w.seq),
            (Some(_), None) => true,
            (None, _) => false,
        };
        if lane_first {
            let entry = self.hop_lane.pop_front().expect("lane head vanished");
            return Some((entry.time, entry.event));
        }
        let entry = self.current.pop()?;
        self.len -= 1;
        if self.current.is_empty() && self.len > 0 {
            self.refill();
        }
        Some((entry.time, entry.event))
    }

    /// The timestamp of the earliest queued event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.hop_lane.front(), self.current.peek()) {
            (Some(l), Some(w)) => Some(l.time.min(w.time)),
            (Some(l), None) => Some(l.time),
            (None, w) => w.map(|e| e.time),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len + self.hop_lane.len()
    }

    /// Whether the calendar holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.hop_lane.is_empty()
    }

    /// Total number of events ever scheduled (monotone counter).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Drops all queued events, keeping the sequence counter (so ordering
    /// of later inserts remains globally consistent).
    pub fn clear(&mut self) {
        self.current.clear();
        for slot in &mut self.slots {
            slot.clear();
        }
        self.occupancy = [0; LEVELS];
        self.overflow.clear();
        self.len = 0;
        self.hop_lane.clear();
    }
}

/// The original binary-heap calendar: identical contract, kept as the
/// differential-testing reference and the benchmark baseline.
#[derive(Debug)]
pub struct HeapCalendar<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for HeapCalendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapCalendar<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        HeapCalendar {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty calendar with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        HeapCalendar {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedules `event` for execution at instant `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// The timestamp of the earliest queued event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the calendar holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (monotone counter).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Drops all queued events, keeping the sequence counter.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.push(SimTime::from_nanos(30), "c");
        cal.push(SimTime::from_nanos(10), "a");
        cal.push(SimTime::from_nanos(20), "b");
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut cal = Calendar::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            cal.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(cal.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut cal = Calendar::new();
        assert_eq!(cal.peek_time(), None);
        cal.push(SimTime::from_nanos(7), ());
        cal.push(SimTime::from_nanos(3), ());
        assert_eq!(cal.peek_time(), Some(SimTime::from_nanos(3)));
        cal.pop();
        assert_eq!(cal.peek_time(), Some(SimTime::from_nanos(7)));
    }

    #[test]
    fn len_and_clear() {
        let mut cal = Calendar::new();
        cal.push(SimTime::ZERO, 1);
        cal.push(SimTime::ZERO, 2);
        assert_eq!(cal.len(), 2);
        assert!(!cal.is_empty());
        cal.clear();
        assert!(cal.is_empty());
        assert_eq!(cal.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut cal = Calendar::new();
        cal.push(SimTime::from_nanos(10), 10);
        cal.push(SimTime::from_nanos(5), 5);
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(5), 5)));
        cal.push(SimTime::from_nanos(1), 1);
        cal.push(SimTime::from_nanos(20), 20);
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(1), 1)));
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(10), 10)));
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(20), 20)));
    }

    /// Events spanning every wheel level plus the overflow tier still pop
    /// in exact (time, seq) order.
    #[test]
    fn cross_level_and_overflow_ordering() {
        let mut cal = Calendar::new();
        let times: Vec<u64> = vec![
            0,              // current bucket
            1 << 16,        // level 0
            40 << 16,       // level 0, later bucket
            1 << 22,        // level 1
            300 << 22,      // level 2 (past level-1 horizon)
            40u64 << 28,    // level 2, far
            2_000u64 << 28, // overflow heap (past level-2 horizon)
            3_000u64 << 28, // overflow heap
        ];
        // Push in scrambled order; same-instant pairs check seq ties.
        for (i, &t) in times.iter().enumerate().rev() {
            cal.push(SimTime::from_nanos(t), (t, i));
        }
        for &t in &times {
            cal.push(SimTime::from_nanos(t), (t, usize::MAX));
        }
        let mut prev = (SimTime::ZERO, 0u64);
        let mut popped = 0;
        while let Some((time, (t, _))) = cal.pop() {
            assert_eq!(time.as_nanos(), t);
            assert!((time, t) >= prev, "order violated at {time}");
            prev = (time, t);
            popped += 1;
        }
        assert_eq!(popped, times.len() * 2);
    }

    /// An idle calendar jumps over arbitrarily large empty spans instead
    /// of ticking through them.
    #[test]
    fn sparse_far_future_events_are_cheap_and_ordered() {
        let mut cal = Calendar::new();
        cal.push(SimTime::from_secs(3_600), "hour");
        cal.push(SimTime::from_secs(60), "minute");
        cal.push(SimTime::from_nanos(1), "now");
        assert_eq!(cal.pop().unwrap().1, "now");
        assert_eq!(cal.pop().unwrap().1, "minute");
        // Zero-delay work appearing while the far event waits.
        cal.push(SimTime::from_secs(60), "straggler");
        assert_eq!(cal.pop().unwrap().1, "straggler");
        assert_eq!(cal.pop().unwrap().1, "hour");
        assert!(cal.is_empty());
    }

    /// Pushing at the exact time of the entry being drained inserts after
    /// all earlier same-instant events (the zero-delay chain case).
    #[test]
    fn same_instant_push_during_drain_pops_last() {
        let mut cal = Calendar::new();
        let t = SimTime::from_micros(100);
        cal.push(t, 0);
        cal.push(t, 1);
        assert_eq!(cal.pop(), Some((t, 0)));
        cal.push(t, 2); // "scheduled from within the handler"
        assert_eq!(cal.pop(), Some((t, 1)));
        assert_eq!(cal.pop(), Some((t, 2)));
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut cal = Calendar::with_capacity(1_000);
        for i in (0..500u64).rev() {
            cal.push(SimTime::from_nanos(i * 1_000), i);
        }
        for i in 0..500 {
            assert_eq!(cal.pop(), Some((SimTime::from_nanos(i * 1_000), i)));
        }
    }

    /// Lane and wheel entries interleave in exact (time, seq) order:
    /// a lane event and a wheel event at the same instant pop in
    /// scheduling order, whichever structure holds them.
    #[test]
    fn hop_lane_merges_in_schedule_order() {
        let mut cal = Calendar::new();
        let d = SimDuration::from_micros(50);
        cal.set_hop_lane(d);
        let now = SimTime::from_micros(100);
        let at = SimTime::from_micros(150);
        cal.push_after(at, d, "hop-0"); // lane
        cal.push(at, "wheel-0"); // same instant, wheel
        cal.push_after(at, d, "hop-1"); // lane again
        cal.push(SimTime::from_micros(120), "early"); // earlier, wheel
        let _ = now;
        assert_eq!(cal.len(), 4);
        assert_eq!(cal.peek_time(), Some(SimTime::from_micros(120)));
        assert_eq!(cal.pop(), Some((SimTime::from_micros(120), "early")));
        assert_eq!(cal.pop(), Some((at, "hop-0")));
        assert_eq!(cal.pop(), Some((at, "wheel-0")));
        assert_eq!(cal.pop(), Some((at, "hop-1")));
        assert_eq!(cal.pop(), None);
        assert!(cal.is_empty());
    }

    /// Delays that miss the lane delta take the wheel; `clear` empties
    /// the lane too.
    #[test]
    fn hop_lane_only_captures_matching_delays() {
        let mut cal = Calendar::new();
        cal.set_hop_lane(SimDuration::from_micros(50));
        cal.push_after(SimTime::from_micros(50), SimDuration::from_micros(50), 1);
        cal.push_after(SimTime::from_micros(60), SimDuration::from_micros(60), 2);
        assert_eq!(cal.len(), 2);
        cal.clear();
        assert!(cal.is_empty());
        assert_eq!(cal.pop(), None);
        // The sequence counter survives a clear, lane included.
        assert_eq!(cal.scheduled_total(), 2);
    }

    #[test]
    fn heap_calendar_matches_contract() {
        let mut cal = HeapCalendar::new();
        let t = SimTime::from_micros(5);
        cal.push(SimTime::from_nanos(30), 0);
        cal.push(t, 1);
        cal.push(t, 2);
        assert_eq!(cal.pop(), Some((SimTime::from_nanos(30), 0)));
        assert_eq!(cal.pop(), Some((t, 1)));
        assert_eq!(cal.pop(), Some((t, 2)));
        assert_eq!(cal.scheduled_total(), 3);
    }
}
