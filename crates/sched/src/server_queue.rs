//! The server queue: admit → enqueue → CoDel-on-sojourn → dequeue →
//! cancel, written once for both backends and both queue topologies.
//!
//! The paper's server is one object — "each server maintains a separate
//! priority-queue", or, in the model realization, "a single global
//! priority-based queue" every server work-pulls from. [`ServerQueue`]
//! is that object: a discipline, the overload lane's optional
//! [`QueueBound`] and [`CoDel`] controller, and the peak depth.
//! `brb-core::engine` calls it from calendar events, `brb-rt` from client
//! and worker threads under a mutex. It never reads a clock and stores
//! no timestamp — the clock contract, the order of the checks and what
//! a cancel may miss are spelled out in `crates/sched/README.md`.

use crate::global_queue::GlobalQueue;
use crate::overload::{CoDel, DropReason, EnqueueOutcome, QueueBound, QueueConfig};
use crate::priority::Priority;
use crate::queue::{PriorityQueue, RequestQueue};
use brb_store::ids::{GroupId, ServerId};
use brb_store::partition::Ring;
use std::collections::VecDeque;

#[derive(Debug)]
enum Items<T> {
    /// Task-oblivious: arrival order, priorities only carried along.
    Fifo(VecDeque<(Priority, T)>),
    Priority(PriorityQueue<T>),
    Global(GlobalQueue<T>),
}

/// One server-side queue with its admission bound, AQM and peak depth.
#[derive(Debug)]
pub struct ServerQueue<T> {
    items: Items<T>,
    bound: Option<QueueBound>,
    codel: Option<CoDel>,
    peak: usize,
}

impl<T> ServerQueue<T> {
    fn new(items: Items<T>, cfg: Option<&QueueConfig>) -> Self {
        ServerQueue {
            items,
            bound: cfg.map(QueueConfig::bound),
            codel: cfg.and_then(|c| c.codel).map(CoDel::new),
            peak: 0,
        }
    }

    /// A task-oblivious FIFO queue; `cfg` (`None` = unbounded, no AQM)
    /// must have been validated.
    pub fn fifo(cfg: Option<&QueueConfig>) -> Self {
        Self::new(Items::Fifo(VecDeque::with_capacity(64)), cfg)
    }

    /// A stable priority queue (FIFO among equal priorities).
    pub fn priority(cfg: Option<&QueueConfig>) -> Self {
        Self::new(Items::Priority(PriorityQueue::with_capacity(64)), cfg)
    }

    /// The model realization's single queue over `num_groups` replica
    /// groups: `cfg` bounds and judges the whole of it.
    pub fn global(num_groups: u32, cfg: Option<&QueueConfig>) -> Self {
        Self::new(Items::Global(GlobalQueue::new(num_groups)), cfg)
    }

    /// Offers `item`: `Ok` with the queue length including it, or the
    /// bound's refusal with the item handed back. `group` routes it in
    /// the global queue; per-server disciplines ignore it.
    pub fn offer(
        &mut self,
        group: GroupId,
        priority: Priority,
        item: T,
    ) -> Result<usize, (DropReason, T)> {
        let len = self.len();
        if let Some(EnqueueOutcome::Dropped(reason)) = self.bound.map(|b| b.admit(len)) {
            return Err((reason, item));
        }
        match &mut self.items {
            Items::Fifo(q) => q.push_back((priority, item)),
            Items::Priority(q) => q.push(priority, item),
            Items::Global(q) => q.push(group, priority, item),
        }
        self.peak = self.peak.max(len + 1);
        Ok(len + 1)
    }

    /// Dequeues the next item to serve. Heads CoDel rejects on the way
    /// are appended to `rejected`, in dequeue order. `puller` and `ring`
    /// are the global queue's replica constraint — it yields only what
    /// `puller` may serve; per-server disciplines ignore them.
    pub fn take(
        &mut self,
        puller: ServerId,
        ring: &Ring,
        mut clock: impl FnMut(&T) -> (u64, u64),
        rejected: &mut Vec<T>,
    ) -> Option<(Priority, T)> {
        loop {
            let (priority, item) = match &mut self.items {
                Items::Fifo(q) => q.pop_front()?,
                Items::Priority(q) => q.pop()?,
                Items::Global(q) => q.pull_for(puller, ring).map(|(p, _, item)| (p, item))?,
            };
            if let Some(codel) = &mut self.codel {
                let (now_ns, sojourn_ns) = clock(&item);
                if codel.on_dequeue(now_ns, sojourn_ns) {
                    rejected.push(item);
                    continue;
                }
            }
            return Some((priority, item));
        }
    }

    /// Removes every still-queued item `doomed` matches, leaving the
    /// survivors' order untouched; returns how many went. O(n), for cold
    /// paths.
    pub fn cancel(&mut self, mut doomed: impl FnMut(&T) -> bool) -> usize {
        match &mut self.items {
            Items::Fifo(q) => {
                let before = q.len();
                q.retain(|(_, item)| !doomed(item));
                before - q.len()
            }
            Items::Priority(q) => q.retain(|item| !doomed(item)),
            Items::Global(q) => q.retain(|item| !doomed(item)),
        }
    }

    /// Empties the queue and returns the backlog, which a caller can
    /// only drop — where it chooses to: items that own a reply channel
    /// must not be dropped under the lock that guards the queue.
    pub fn drain(&mut self) -> impl Sized {
        let empty = match &self.items {
            Items::Fifo(_) => Items::Fifo(VecDeque::new()),
            Items::Priority(_) => Items::Priority(PriorityQueue::new()),
            Items::Global(q) => Items::Global(GlobalQueue::new(q.num_groups())),
        };
        std::mem::replace(&mut self.items, empty)
    }

    /// Queued items (in-service ones are not the queue's).
    pub fn len(&self) -> usize {
        match &self.items {
            Items::Fifo(q) => q.len(),
            Items::Priority(q) => q.len(),
            Items::Global(q) => q.len(),
        }
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest the queue has been.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

/// A per-server discipline named as a type, for [`Bounded`] — the
/// priority queue is the one that has a type of its own.
pub trait Discipline {
    /// What the queue holds.
    type Item;
    /// An empty [`ServerQueue`] of this discipline.
    fn server_queue(cfg: &QueueConfig) -> ServerQueue<Self::Item>;
}

impl<T> Discipline for PriorityQueue<T> {
    type Item = T;
    fn server_queue(cfg: &QueueConfig) -> ServerQueue<T> {
        ServerQueue::priority(Some(cfg))
    }
}

/// A [`ServerQueue`] with a bound and no AQM, spelled by its discipline
/// (`Bounded<PriorityQueue<T>>`) — a constructor and two shorthands over
/// the shared type for callers that own one queue directly, with no
/// replica routing and no CoDel to feed. Everything else is the inner
/// queue's.
#[derive(Debug)]
pub struct Bounded<Q: Discipline>(pub ServerQueue<Q::Item>);

impl<Q: Discipline> Bounded<Q> {
    /// An empty queue of discipline `Q` under `bound`.
    pub fn with_bound(bound: QueueBound) -> Self {
        Bounded(Q::server_queue(&QueueConfig {
            capacity: bound.capacity,
            shed_above: bound.shed_above,
            codel: None,
            priority_stats: false,
        }))
    }

    /// [`ServerQueue::offer`], reporting only which mechanism refused.
    pub fn try_push(&mut self, priority: Priority, item: Q::Item) -> EnqueueOutcome {
        match self.0.offer(GroupId::new(0), priority, item) {
            Ok(_) => EnqueueOutcome::Enqueued,
            Err((reason, _)) => EnqueueOutcome::Dropped(reason),
        }
    }

    /// [`ServerQueue::take`] with nothing to route and no clock: a
    /// sojourn of zero is never ejected.
    pub fn pop<T>(&mut self) -> Option<(Priority, T)>
    where
        Q: Discipline<Item = T>,
    {
        let (anyone, ring) = (ServerId::new(0), Ring::new(1, 1, 1));
        self.0.take(anyone, &ring, |_| (0, 0), &mut Vec::new())
    }
}
