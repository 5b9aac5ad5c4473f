//! # brb-sim — deterministic discrete-event simulation kernel
//!
//! The BRB paper (Reda et al., SIGCOMM 2015) evaluates its scheduling
//! algorithms in simulation. This crate rebuilds that substrate: a small,
//! deterministic discrete-event simulation (DES) kernel with
//! nanosecond-resolution virtual time.
//!
//! Design goals, in the spirit of event-driven networking stacks (the
//! timer wheel, hop lane and samplers are described in
//! `crates/sim/README.md`):
//!
//! * **Determinism** — identical seeds produce identical event orderings.
//!   The calendar breaks time ties by insertion sequence, and all randomness
//!   flows through labelled, independently-seeded streams
//!   ([`rng::RngFactory`]).
//! * **Simplicity** — the kernel knows nothing about clients, servers or
//!   networks. A model implements [`World`] and receives events plus a
//!   scheduling context; everything else is library code on top.
//! * **No hidden global state** — the engine owns the clock and the
//!   calendar; models cannot observe anything the kernel did not hand them.
//!
//! ## Quick tour
//!
//! ```
//! use brb_sim::{Simulation, World, Ctx, SimTime, SimDuration};
//!
//! /// A world that rings a bell a fixed number of times, 1ms apart.
//! struct Bell { rings: u32, last: SimTime }
//!
//! #[derive(Debug)]
//! enum Ev { Ring }
//!
//! impl World for Bell {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, _ev: Ev) {
//!         self.rings += 1;
//!         self.last = ctx.now();
//!         if self.rings < 3 {
//!             ctx.schedule_in(SimDuration::from_millis(1), Ev::Ring);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Bell { rings: 0, last: SimTime::ZERO });
//! sim.schedule_at(SimTime::ZERO, Ev::Ring);
//! let stats = sim.run();
//! assert_eq!(stats.events_executed, 3);
//! assert_eq!(sim.world().last, SimTime::from_millis(2));
//! ```

pub mod calendar;
pub mod dist;
pub mod engine;
pub mod ids;
pub mod rng;
pub mod time;

pub use calendar::{Calendar, HeapCalendar};
pub use dist::{standard_exp, standard_normal, AliasTable, BoxMuller};
pub use engine::{Ctx, RunLimit, RunOutcome, RunStats, Simulation, World};
pub use rng::{DetRng, RngFactory};
pub use time::{SimDuration, SimTime};
