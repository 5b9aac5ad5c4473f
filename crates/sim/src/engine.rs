//! The simulation engine: event loop, scheduling context, run limits.
//!
//! A model implements [`World`]; the engine owns the clock and the
//! [`Calendar`] and repeatedly delivers the earliest event to the world,
//! handing it a [`Ctx`] through which it may schedule follow-up events.

use crate::calendar::Calendar;
use crate::time::{SimDuration, SimTime};

/// A simulation model. The engine delivers every event to [`World::handle`]
/// together with a [`Ctx`] for reading the clock and scheduling new events.
pub trait World {
    /// The model's event alphabet (typically an enum).
    type Event;

    /// Processes one event at the current virtual instant.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, event: Self::Event);
}

/// The scheduling context handed to [`World::handle`].
///
/// Borrowing the calendar (rather than giving the world a reference to the
/// whole engine) keeps the borrow checker happy while the world mutates its
/// own state.
pub struct Ctx<'a, E> {
    now: SimTime,
    calendar: &'a mut Calendar<E>,
}

impl<'a, E> std::fmt::Debug for Ctx<'a, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<'a, E> Ctx<'a, E> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the current instant — time travel would break
    /// the causal ordering the kernel guarantees.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        self.calendar.push(at, event);
    }

    /// Schedules `event` after a relative delay `d` (possibly zero: the
    /// event then runs at the same instant, after all earlier-scheduled
    /// events for this instant). Delays matching a declared hop lane
    /// ([`Simulation::set_hop_lane`]) take the calendar's O(1) FIFO
    /// lane; everything else goes through the wheel.
    ///
    /// # Panics
    /// Panics if `now + d` overflows virtual time — a silent wrap would
    /// schedule into the past and break causal ordering, the same
    /// invariant [`Ctx::schedule_at`] guards.
    pub fn schedule_in(&mut self, d: SimDuration, event: E) {
        let at = self
            .now
            .checked_add(d)
            .unwrap_or_else(|| panic!("schedule_in overflows virtual time ({} + {d})", self.now));
        self.calendar.push_after(at, d, event);
    }

    /// Number of events currently queued.
    pub fn queued_events(&self) -> usize {
        self.calendar.len()
    }
}

/// Why a call to [`Simulation::run_with_limit`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The calendar drained completely.
    Exhausted,
    /// The time horizon was reached before the calendar drained.
    HorizonReached,
    /// The event budget was consumed before the calendar drained.
    BudgetConsumed,
}

/// Bounds on a run: a time horizon and/or an event budget.
#[derive(Debug, Clone, Copy)]
pub struct RunLimit {
    /// Do not execute events scheduled strictly after this instant.
    pub horizon: SimTime,
    /// Execute at most this many events in this call.
    pub max_events: u64,
}

impl Default for RunLimit {
    fn default() -> Self {
        RunLimit {
            horizon: SimTime::MAX,
            max_events: u64::MAX,
        }
    }
}

impl RunLimit {
    /// A limit of `n` events with an unlimited horizon.
    pub fn events(n: u64) -> Self {
        RunLimit {
            max_events: n,
            ..Default::default()
        }
    }
}

/// Statistics from a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Events executed during this call.
    pub events_executed: u64,
    /// Virtual time when the call returned.
    pub end_time: SimTime,
    /// Why the call returned.
    pub outcome: RunOutcome,
}

/// The discrete-event simulation engine.
///
/// Owns the world, the clock and the calendar. See the crate docs for a
/// complete example.
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    calendar: Calendar<W::Event>,
    now: SimTime,
    executed_total: u64,
}

impl<W: World> Simulation<W> {
    /// Creates an engine at `T+0` with an empty calendar.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            calendar: Calendar::new(),
            now: SimTime::ZERO,
            executed_total: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the model.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Total events executed since construction.
    pub fn events_executed(&self) -> u64 {
        self.executed_total
    }

    /// Events currently queued.
    pub fn queued_events(&self) -> usize {
        self.calendar.len()
    }

    /// Schedules an event at an absolute instant (must not precede `now`).
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        self.calendar.push(at, event);
    }

    /// Schedules an event after a relative delay.
    ///
    /// # Panics
    /// Panics if `now + d` overflows virtual time (see
    /// [`Ctx::schedule_in`]).
    pub fn schedule_in(&mut self, d: SimDuration, event: W::Event) {
        let at = self
            .now
            .checked_add(d)
            .unwrap_or_else(|| panic!("schedule_in overflows virtual time ({} + {d})", self.now));
        self.calendar.push_after(at, d, event);
    }

    /// Declares the calendar's constant-delta hop lane: every
    /// `schedule_in` whose delay equals `delta` exactly bypasses the
    /// timer wheel into an O(1) FIFO (see [`Calendar::set_hop_lane`]).
    /// Pop order is unchanged — the lane merges on `(time, seq)` — so
    /// this is purely a performance declaration; models with a
    /// constant-latency network fabric enable it before the run.
    pub fn set_hop_lane(&mut self, delta: SimDuration) {
        self.calendar.set_hop_lane(delta);
    }

    /// Executes a single event, if any; returns its timestamp.
    pub fn step(&mut self) -> Option<SimTime> {
        let (time, event) = self.calendar.pop()?;
        debug_assert!(time >= self.now, "calendar returned an event in the past");
        self.now = time;
        let mut ctx = Ctx {
            now: self.now,
            calendar: &mut self.calendar,
        };
        self.world.handle(&mut ctx, event);
        self.executed_total += 1;
        Some(time)
    }

    /// Runs until the calendar drains.
    pub fn run(&mut self) -> RunStats {
        self.run_with_limit(RunLimit::default())
    }

    /// Runs until the calendar drains, the horizon passes or the event
    /// budget is consumed — whichever happens first.
    pub fn run_with_limit(&mut self, limit: RunLimit) -> RunStats {
        let mut executed = 0u64;
        let outcome = loop {
            if executed >= limit.max_events {
                break RunOutcome::BudgetConsumed;
            }
            match self.calendar.peek_time() {
                None => break RunOutcome::Exhausted,
                Some(t) if t > limit.horizon => break RunOutcome::HorizonReached,
                Some(_) => {
                    self.step();
                    executed += 1;
                }
            }
        };
        // When a horizon stops the run, advance the clock to the horizon so
        // repeated bounded runs observe monotone time.
        if outcome == RunOutcome::HorizonReached && self.now < limit.horizon {
            self.now = limit.horizon;
        }
        RunStats {
            events_executed: executed,
            end_time: self.now,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records (time, tag) pairs in arrival order.
    struct Recorder {
        log: Vec<(SimTime, u32)>,
        fanout: u32,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<'_, u32>, tag: u32) {
            self.log.push((ctx.now(), tag));
            // Tag 0 fans out `fanout` children one microsecond later.
            if tag == 0 {
                for i in 1..=self.fanout {
                    ctx.schedule_in(SimDuration::from_micros(1), i);
                }
            }
        }
    }

    fn recorder(fanout: u32) -> Simulation<Recorder> {
        Simulation::new(Recorder {
            log: Vec::new(),
            fanout,
        })
    }

    #[test]
    fn events_execute_in_causal_order() {
        let mut sim = recorder(3);
        sim.schedule_at(SimTime::from_micros(10), 0);
        let stats = sim.run();
        assert_eq!(stats.outcome, RunOutcome::Exhausted);
        assert_eq!(stats.events_executed, 4);
        let log = &sim.world().log;
        assert_eq!(log[0], (SimTime::from_micros(10), 0));
        // Children run at the same later instant, in scheduling order.
        assert_eq!(log[1], (SimTime::from_micros(11), 1));
        assert_eq!(log[2], (SimTime::from_micros(11), 2));
        assert_eq!(log[3], (SimTime::from_micros(11), 3));
    }

    #[test]
    fn horizon_stops_and_clock_advances_to_horizon() {
        let mut sim = recorder(0);
        sim.schedule_at(SimTime::from_millis(1), 7);
        sim.schedule_at(SimTime::from_millis(10), 8);
        let stats = sim.run_with_limit(RunLimit {
            horizon: SimTime::from_millis(5),
            ..Default::default()
        });
        assert_eq!(stats.outcome, RunOutcome::HorizonReached);
        assert_eq!(stats.events_executed, 1);
        assert_eq!(sim.now(), SimTime::from_millis(5));
        // The late event is still queued and runs on the next unbounded run.
        let stats = sim.run();
        assert_eq!(stats.events_executed, 1);
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    fn event_budget_stops_early() {
        let mut sim = recorder(10);
        sim.schedule_at(SimTime::ZERO, 0);
        let stats = sim.run_with_limit(RunLimit::events(5));
        assert_eq!(stats.outcome, RunOutcome::BudgetConsumed);
        assert_eq!(stats.events_executed, 5);
        assert_eq!(sim.queued_events(), 6);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = recorder(0);
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.run();
        sim.schedule_at(SimTime::from_millis(1), 2);
    }

    #[test]
    fn zero_delay_events_run_at_same_instant_in_order() {
        struct Chain {
            seen: Vec<u32>,
        }
        impl World for Chain {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<'_, u32>, n: u32) {
                self.seen.push(n);
                if n < 3 {
                    ctx.schedule_in(SimDuration::ZERO, n + 1);
                }
            }
        }
        let mut sim = Simulation::new(Chain { seen: vec![] });
        sim.schedule_at(SimTime::ZERO, 0);
        sim.run();
        assert_eq!(sim.world().seen, vec![0, 1, 2, 3]);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn run_on_empty_calendar_is_a_noop() {
        let mut sim = recorder(0);
        let stats = sim.run();
        assert_eq!(stats.events_executed, 0);
        assert_eq!(stats.outcome, RunOutcome::Exhausted);
        assert_eq!(stats.end_time, SimTime::ZERO);
    }
}
