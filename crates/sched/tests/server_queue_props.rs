//! Differential property suite for [`ServerQueue`]: random scripts of
//! offer / take / cancel under an advancing clock, for each discipline
//! and with the bound and CoDel on and off, against a deliberately naive
//! reference — a `Vec` scanned for the minimum `(priority, seq)` that
//! calls `QueueBound::admit` and `CoDel::on_dequeue` itself. The
//! reference is the specification; it stays naive.

use brb_sched::{
    CoDel, CoDelConfig, DropReason, EnqueueOutcome, Priority, QueueBound, QueueConfig, ServerQueue,
};
use brb_store::ids::{GroupId, ServerId};
use brb_store::partition::Ring;
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Discipline {
    Fifo,
    Priority,
    Global,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Offer {
        group: u64,
        priority: u64,
    },
    Take {
        puller: u64,
    },
    /// Cancels every queued id with `id % 3 == rem`.
    Cancel {
        rem: u64,
    },
    Advance {
        dt: u64,
    },
}

const SERVERS: u32 = 5;

fn ring() -> Ring {
    Ring::new(SERVERS, SERVERS, 2)
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Offers outnumber takes so queues fill; few priorities so ties are
    // the common case.
    let op = (0u32..10, 0u64..SERVERS as u64, 0u64..3, 0u64..4_000).prop_map(
        |(kind, who, priority, dt)| match kind {
            0..=4 => Op::Offer {
                group: who,
                priority,
            },
            5..=7 => Op::Take { puller: who },
            8 => Op::Cancel { rem: priority },
            _ => Op::Advance { dt },
        },
    );
    proptest::collection::vec(op, 1..300)
}

fn configs() -> impl Strategy<Value = Option<QueueConfig>> {
    // Zero switches a knob off: no config at all, no capacity (CoDel
    // alone), no watermark, no CoDel.
    (0u32..4, 0usize..12, 0usize..12, 0u64..3_000, 1u64..6_000).prop_map(
        |(on, capacity, shed, target_ns, interval_ns)| {
            let capacity = if capacity == 0 { usize::MAX } else { capacity };
            (on > 0).then_some(QueueConfig {
                capacity,
                shed_above: (shed > 0).then(|| shed.min(capacity)),
                codel: (target_ns > 0).then_some(CoDelConfig {
                    target_ns,
                    interval_ns,
                }),
                priority_stats: false,
            })
        },
    )
}

/// The specification: every queued item in one `Vec`, every decision a
/// direct call.
struct Reference {
    discipline: Discipline,
    /// `(priority, seq, group, id)`.
    items: Vec<(u64, u64, u64, u64)>,
    next_seq: u64,
    bound: Option<QueueBound>,
    codel: Option<CoDel>,
}

impl Reference {
    fn offer(&mut self, group: u64, priority: u64, id: u64) -> Result<usize, DropReason> {
        if let Some(EnqueueOutcome::Dropped(reason)) = self.bound.map(|b| b.admit(self.items.len()))
        {
            return Err(reason);
        }
        self.items.push((priority, self.next_seq, group, id));
        self.next_seq += 1;
        Ok(self.items.len())
    }

    /// The id served, after the ids CoDel rejected on the way.
    fn take(&mut self, puller: u64, now_ns: u64, stamps: &[u64]) -> (Option<u64>, Vec<u64>) {
        let ring = ring();
        let mut rejected = Vec::new();
        loop {
            let head = self
                .items
                .iter()
                .enumerate()
                .filter(|(_, &(_, _, group, _))| {
                    self.discipline != Discipline::Global
                        || ring.server_in_group(ServerId::new(puller), GroupId::new(group))
                })
                .min_by_key(|(_, &(priority, seq, _, _))| match self.discipline {
                    Discipline::Fifo => (0, seq),
                    Discipline::Priority | Discipline::Global => (priority, seq),
                })
                .map(|(at, _)| at);
            let Some(at) = head else {
                return (None, rejected);
            };
            let id = self.items.remove(at).3;
            if let Some(codel) = &mut self.codel {
                if codel.on_dequeue(now_ns, now_ns - stamps[id as usize]) {
                    rejected.push(id);
                    continue;
                }
            }
            return (Some(id), rejected);
        }
    }

    fn cancel(&mut self, rem: u64) -> usize {
        let before = self.items.len();
        self.items.retain(|&(_, _, _, id)| id % 3 != rem);
        before - self.items.len()
    }
}

fn run(discipline: Discipline, cfg: Option<QueueConfig>, script: &[Op]) {
    let ring = ring();
    let mut queue: ServerQueue<u64> = match discipline {
        Discipline::Fifo => ServerQueue::fifo(cfg.as_ref()),
        Discipline::Priority => ServerQueue::priority(cfg.as_ref()),
        Discipline::Global => ServerQueue::global(ring.num_groups(), cfg.as_ref()),
    };
    let mut reference = Reference {
        discipline,
        items: Vec::new(),
        next_seq: 0,
        bound: cfg.map(|c| c.bound()),
        codel: cfg.and_then(|c| c.codel).map(CoDel::new),
    };
    let capacity = cfg.map_or(usize::MAX, |c| c.capacity);
    let target_ns = cfg.and_then(|c| c.codel).map(|c| c.target_ns);

    let mut now_ns = 0u64;
    // Enqueue stamp and priority of every id ever offered: the caller's
    // side of the clock contract.
    let (mut stamps, mut priorities) = (Vec::new(), Vec::new());
    let clock_calls = Cell::new(0u64);
    let (mut offered, mut taken, mut refused, mut ejected, mut cancelled) = (0, 0, 0, 0, 0);
    // Last id dequeued (served or ejected) per (puller, priority): ids
    // grow with offer order, so FIFO among equals means each only grows.
    let mut last_dequeued: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut rejected = Vec::new();

    for &op in script {
        match op {
            Op::Offer { group, priority } => {
                let id = stamps.len() as u64;
                stamps.push(now_ns);
                priorities.push(priority);
                offered += 1;
                let got = queue
                    .offer(GroupId::new(group), Priority(priority), id)
                    .map_err(|(reason, back)| {
                        assert_eq!(back, id, "a refusal hands the item back");
                        refused += 1;
                        reason
                    });
                assert_eq!(got, reference.offer(group, priority, id), "{op:?}");
            }
            Op::Take { puller } => {
                let got = queue.take(
                    ServerId::new(puller),
                    &ring,
                    |&id| {
                        clock_calls.set(clock_calls.get() + 1);
                        (now_ns, now_ns - stamps[id as usize])
                    },
                    &mut rejected,
                );
                if let Some((priority, id)) = got {
                    assert_eq!(priority.key(), priorities[id as usize]);
                }
                let got = got.map(|(_, id)| id);
                let want = reference.take(puller, now_ns, &stamps);
                assert_eq!((got, &rejected), (want.0, &want.1), "{op:?} at {now_ns}");
                for &id in &rejected {
                    let sojourn = now_ns - stamps[id as usize];
                    assert!(Some(sojourn) >= target_ns, "ejected below target");
                }
                for &id in rejected.iter().chain(&got) {
                    let class = match discipline {
                        Discipline::Fifo => (0, 0),
                        Discipline::Priority => (0, priorities[id as usize]),
                        Discipline::Global => (puller, priorities[id as usize]),
                    };
                    if let Some(before) = last_dequeued.insert(class, id) {
                        assert!(before < id, "{id} overtook {before} in class {class:?}");
                    }
                }
                taken += got.is_some() as usize;
                ejected += rejected.len();
                rejected.clear();
            }
            Op::Cancel { rem } => {
                let got = queue.cancel(|&id| id % 3 == rem);
                assert_eq!(got, reference.cancel(rem), "{op:?}");
                cancelled += got;
            }
            Op::Advance { dt } => now_ns += dt,
        }
        assert_eq!(queue.len(), reference.items.len());
        assert_eq!(queue.is_empty(), reference.items.is_empty());
        assert!(queue.len() <= capacity && queue.peak() <= capacity);
        assert!(queue.len() <= queue.peak());
        assert_eq!(
            offered,
            taken + refused + ejected + cancelled + queue.len(),
            "conservation"
        );
    }
    // The clock is consulted once per judged head, and only by CoDel.
    let judged = if target_ns.is_some() {
        (taken + ejected) as u64
    } else {
        0
    };
    assert_eq!(clock_calls.get(), judged);
    drop(queue.drain());
    assert!(queue.is_empty());
}

proptest! {
    #[test]
    fn fifo_matches_the_reference(cfg in configs(), script in ops()) {
        run(Discipline::Fifo, cfg, &script);
    }

    #[test]
    fn priority_matches_the_reference(cfg in configs(), script in ops()) {
        run(Discipline::Priority, cfg, &script);
    }

    #[test]
    fn global_matches_the_reference(cfg in configs(), script in ops()) {
        run(Discipline::Global, cfg, &script);
    }
}
