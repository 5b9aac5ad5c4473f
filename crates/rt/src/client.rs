//! The client handle: task splitting, priority assignment, replica
//! selection, dispatch and response collection — §2.1's pipeline against
//! real threads.
//!
//! Replica choice is delegated to a `brb-select` selector fed by the
//! piggybacked `queue_len` / `service_ns` response fields (the C3
//! feedback mechanism), replacing the load-oblivious global round-robin
//! counter this client started with.
//!
//! The overload lane adds the client half of the overload contract:
//! when the cluster carries a timeout config, every attempt gets a
//! wall-clock deadline; a timeout or a server NACK triggers a
//! capped-exponential retry with a *fresh attempt id* (stale replies
//! stay distinguishable) under a per-client retry budget, and
//! exhaustion resolves the task into a typed [`TaskOutcome::Failed`]
//! instead of a hang. Whether to retry, how long to back off and how a
//! failure is classified are [`DispatchBudget::on_attempt_failed`]'s
//! call — the same code the simulator's engine calls, so sim-vs-rt
//! goodput numbers compare like for like; this module supplies the
//! timers and, as in the simulator, lets a late original still win.
//!
//! The hedging lane (safe duplication): when the cluster carries a
//! hedge delay, each request arms a hedge timer at dispatch; if no
//! response arrived by then, the client duplicates the request to a
//! selector-chosen replica if [`DispatchBudget::can_hedge`] allows (no
//! hedging of requests forecast longer than the delay, duplicates ≤5%
//! of dispatches). The
//! first response wins; the loser is *purged* — its selector slot is
//! released (`on_abandon`, the PR 5 contract) and an `RtCancel` chases
//! it into its server's queue, de-queuing it if still queued. An
//! in-service loser completes and its reply is discarded here, counted
//! as a duplicate response.

use crate::error::RtError;
use crate::server::ServerShared;
use crate::timing;
use crate::transport::{RtCancel, RtNack, RtReply, RtRequest, RtResponse};
pub use brb_sched::overload::TaskFailure;
use brb_sched::overload::{AttemptFailure, DispatchBudget, TimeoutConfig, Verdict};
use brb_sched::{PolicyKind, Priority, PriorityPolicy, TaskView};
use brb_select::{ReplicaSelector, ResponseFeedback, Selection, SelectionCtx};
use brb_store::cost::CostModel;
use brb_store::ids::{GroupId, ServerId};
use brb_store::partition::Ring;
use brb_workload::taskgen::SizeModel;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The completed result of one task.
#[derive(Debug)]
pub struct TaskResponse {
    /// The task id assigned at submission.
    pub task_id: u64,
    /// End-to-end task latency: measurement origin → the last response's
    /// server-side completion instant. The origin is the submit instant
    /// for [`RtClient::fetch`]/[`TaskTicket::wait`], or an earlier
    /// intended-arrival instant for [`TaskTicket::wait_from`] (the
    /// open-loop generator's coordinated-omission-free accounting).
    pub latency: Duration,
    /// Values in request order (`None` for unknown keys).
    pub values: Vec<Option<Bytes>>,
    /// Which server answered each request.
    pub servers: Vec<u32>,
    /// Per-request total latencies in nanoseconds (submit → response
    /// send, plus the cluster's accounted network RTT).
    pub request_ns: Vec<u64>,
}

/// How a task resolved.
#[derive(Debug)]
pub enum TaskOutcome {
    /// Every request was served.
    Completed(TaskResponse),
    /// A request failed terminally; the task counts against goodput.
    Failed {
        /// The terminal failure (first one wins).
        failure: TaskFailure,
    },
}

/// A resolved task: its outcome plus retry accounting.
#[derive(Debug)]
pub struct TaskResolution {
    /// The task id assigned at submission.
    pub task_id: u64,
    /// Retries this task issued (0 when every request's first attempt
    /// resolved it).
    pub retries: u32,
    /// How it ended.
    pub outcome: TaskOutcome,
}

type SharedSelector = Arc<Mutex<Box<dyn ReplicaSelector + Send>>>;

/// The piggybacked server state a response carries; `rtt_ns` is the
/// accounted network round trip (the client-observed response time in a
/// constant mesh includes it).
fn feedback_of(resp: &RtResponse, rtt_ns: u64) -> ResponseFeedback {
    ResponseFeedback {
        response_time_ns: resp.total_ns + rtt_ns,
        queue_len: resp.queue_len as u64,
        service_time_ns: resp.service_ns,
    }
}

/// State shared by a client and its tickets (tickets must redispatch
/// retries through the same selector, budget and server handles the
/// client uses).
pub(crate) struct ClientInner {
    ring: Ring,
    cost: CostModel,
    sizes: SizeModel,
    /// Each server's shared state: a dispatch is a direct
    /// [`ServerShared::submit`] on this thread.
    servers: Vec<Arc<ServerShared>>,
    selector: SharedSelector,
    epoch: Instant,
    /// Accounted network round trip per request (see
    /// [`crate::RtClusterConfig::network_rtt_ns`]).
    rtt_ns: u64,
    /// Deadline/retry knobs (`None` = wait forever, the legacy path).
    timeout: Option<TimeoutConfig>,
    /// Hedge delay (`None` = hedging off): a request unanswered this
    /// long after dispatch is duplicated to a second replica.
    hedge_ns: Option<u64>,
    /// Requests this client dispatched, hedge duplicates excluded — the
    /// denominator of the retry and hedge budgets.
    dispatched_total: AtomicU64,
    /// Retries this client issued — the budget numerator.
    retried_total: AtomicU64,
    /// Hedge duplicates this client issued — the hedge-budget numerator.
    hedged_total: AtomicU64,
    /// Replies from purged hedge losers that completed anyway and were
    /// discarded here (the duplicate-work cost of hedging).
    duplicate_responses: AtomicU64,
    /// The cluster's sticky panic flag; waits poll it so a dead worker
    /// thread fails runs typed instead of hanging them.
    panicked: Arc<AtomicBool>,
}

impl ClientInner {
    /// One pass of the selector over a request's replica group.
    fn try_select(&self, candidates: &[ServerId], value_bytes: u64) -> Selection {
        let ctx = SelectionCtx {
            now_ns: self.epoch.elapsed().as_nanos() as u64,
            candidates,
            value_bytes,
            oracle_queue_depths: None,
        };
        self.selector.lock().select(&ctx)
    }

    /// Runs the selector until it names a replica. A rate-limiting
    /// selector (C3, credits) may refuse every candidate; the live
    /// client then waits out the earliest token (bounded per iteration
    /// so a clock hiccup cannot park the submission thread for long).
    fn select_replica(&self, candidates: &[ServerId], value_bytes: u64) -> ServerId {
        const MAX_PAUSE: Duration = Duration::from_millis(1);
        loop {
            match self.try_select(candidates, value_bytes) {
                Selection::Dispatch(server) => return server,
                Selection::RateLimited { retry_in_ns } => {
                    timing::wait_for(Duration::from_nanos(retry_in_ns).min(MAX_PAUSE));
                }
            }
        }
    }

    /// A snapshot of this client's dispatch counters for the shared
    /// retry and hedge gates.
    fn budget(&self) -> DispatchBudget {
        DispatchBudget {
            dispatched: self.dispatched_total.load(Ordering::Relaxed),
            retried: self.retried_total.load(Ordering::Relaxed),
            hedged: self.hedged_total.load(Ordering::Relaxed),
        }
    }
}

/// One request slot's lifecycle.
#[derive(Debug, Clone, Copy)]
enum SlotState {
    /// An attempt is in flight; `deadline` arms the timeout timer
    /// (`None` when the cluster has no timeout config).
    Pending {
        attempt: u32,
        deadline: Option<Instant>,
    },
    /// Waiting out the backoff before dispatching `next_attempt`.
    Backoff { next_attempt: u32, at: Instant },
    /// Served, or terminally failed (the task's `failure` is set then).
    Settled,
}

/// A dispatch awaiting selector accounting: every send is balanced by
/// exactly one `on_response` (its reply arrived) or `on_abandon` (it was
/// NACKed, superseded and never answered, or the ticket dropped).
#[derive(Debug, Clone, Copy)]
struct OpenDispatch {
    req_idx: usize,
    attempt: u32,
    server: ServerId,
}

/// How often a blocked wait wakes to poll the cluster's panic flag.
const WATCHDOG: Duration = Duration::from_millis(10);

/// The attempt id hedge duplicates dispatch under. Retries count up from
/// 0, so `u32::MAX` can never collide with a slot's current attempt —
/// which is exactly what keeps a hedge NACK from driving the slot's
/// retry/failure state machine (it is accounting-only by construction).
const HEDGE_ATTEMPT: u32 = u32::MAX;

/// A pending asynchronous task.
///
/// Dropping a ticket without waiting abandons the task: responses that
/// already arrived still feed the selector, and the rest release their
/// outstanding-request accounting (`on_abandon`), so an abandoned
/// large-fanout task cannot permanently steer traffic away from the
/// replicas it touched.
pub struct TaskTicket {
    inner: Arc<ClientInner>,
    task_id: u64,
    n: usize,
    started: Instant,
    rx: Receiver<RtReply>,
    /// Retained while retries are possible so redispatches reuse the
    /// task's reply channel. `None` when the cluster has no timeout
    /// config — then a shut-down cluster surfaces as channel
    /// disconnection (the legacy liveness path) instead of a deadline.
    reply_tx: Option<Sender<RtReply>>,
    keys: Vec<u64>,
    groups: Vec<GroupId>,
    priorities: Vec<Priority>,
    slots: Vec<SlotState>,
    /// Per-request hedge timer: `Some(at)` = a hedge fires at `at` if
    /// the slot is still unanswered then; disarmed (`None`) once fired
    /// or settled. All `None` when the cluster has no hedge delay.
    hedge_at: Vec<Option<Instant>>,
    open: Vec<OpenDispatch>,
    values: Vec<Option<Bytes>>,
    servers: Vec<u32>,
    request_ns: Vec<u64>,
    /// Latest server-side completion (+RTT) seen so far.
    latest_completed: Option<Instant>,
    /// Slots served (not terminally failed).
    served: usize,
    retries: u32,
    failure: Option<TaskFailure>,
    /// Set when the initial dispatch hit a stopped cluster: every wait
    /// and poll returns it, and dropping the ticket balances whatever
    /// did go out.
    error: Option<RtError>,
    /// Set once an outcome has been taken (poll path).
    taken: bool,
}

impl std::fmt::Debug for TaskTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskTicket")
            .field("task_id", &self.task_id)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl TaskTicket {
    /// Blocks until every response arrives; latency is measured from the
    /// submit instant.
    ///
    /// # Panics
    /// Panics if the task fails under the overload lane or the cluster
    /// shut down mid-task; overload runs should use
    /// [`TaskTicket::wait_outcome_from`].
    pub fn wait(self) -> TaskResponse {
        let origin = self.started;
        self.wait_from(origin)
    }

    /// Blocks until every response arrives, measuring latency from
    /// `origin` — the corrected recording path shared by both load
    /// generator modes. The recorded latency ends at the *server-side
    /// completion instant* of the last response, so collecting a ticket
    /// long after the task finished (an open-loop generator draining its
    /// backlog) does not inflate the measurement.
    ///
    /// # Panics
    /// Panics if the task fails under the overload lane or the cluster
    /// shut down mid-task.
    pub fn wait_from(self, origin: Instant) -> TaskResponse {
        match self.wait_outcome_from(origin) {
            Ok(TaskResolution {
                outcome: TaskOutcome::Completed(resp),
                ..
            }) => resp,
            Ok(TaskResolution {
                outcome: TaskOutcome::Failed { failure },
                ..
            }) => panic!("task failed under overload: {failure:?}"),
            Err(e) => panic!("cluster has shut down: {e}"),
        }
    }

    /// Blocks until the task resolves — served, terminally failed, or
    /// runtime error — measuring latency from the submit instant.
    pub fn wait_outcome(self) -> Result<TaskResolution, RtError> {
        let origin = self.started;
        self.wait_outcome_from(origin)
    }

    /// Blocks until the task resolves, measuring latency from `origin`.
    /// This is the overload lane's collection path: timeouts, retries
    /// and NACK handling all run inside this wait (or inside
    /// [`TaskTicket::poll_outcome`] for the non-blocking variant).
    pub fn wait_outcome_from(mut self, origin: Instant) -> Result<TaskResolution, RtError> {
        self.advance(true)?;
        debug_assert!(self.resolved());
        self.taken = true;
        Ok(self.take_resolution(origin))
    }

    /// Non-blocking progress: handles any replies, timers and backoffs
    /// that are due, and returns the resolution once the task has one.
    /// Returns `Ok(None)` while the task is still in flight (or after
    /// the resolution was already taken). The open-loop generator calls
    /// this between scheduled submissions so retries fire on time.
    pub fn poll_outcome(&mut self, origin: Instant) -> Result<Option<TaskResolution>, RtError> {
        if self.taken {
            return Ok(None);
        }
        self.advance(false)?;
        if self.resolved() {
            self.taken = true;
            Ok(Some(self.take_resolution(origin)))
        } else {
            Ok(None)
        }
    }

    /// Whether every response has already arrived (`wait*` would not
    /// block). Only meaningful on the legacy path (no timeout config):
    /// under the overload lane replies include NACKs and retries, so
    /// schedulers should use [`TaskTicket::poll_outcome`] instead.
    pub fn is_ready(&self) -> bool {
        self.error.is_some() || self.rx.len() >= self.n
    }

    fn resolved(&self) -> bool {
        self.failure.is_some() || self.served == self.n
    }

    /// Drives the state machine: drains replies, fires due timers and
    /// backoffs; with `block` it waits (in panic-watchdog slices) until
    /// the task resolves.
    fn advance(&mut self, block: bool) -> Result<(), RtError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        loop {
            if self.inner.panicked.load(Ordering::SeqCst) {
                return Err(RtError::WorkerPanicked);
            }
            loop {
                if self.resolved() {
                    return Ok(());
                }
                match self.rx.try_recv() {
                    Ok(reply) => self.handle_reply(reply)?,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return Err(RtError::ClusterDown),
                }
            }
            let now = Instant::now();
            self.fire_timers(now)?;
            if self.resolved() {
                return Ok(());
            }
            if !block {
                return Ok(());
            }
            // Sleep until the next deadline/backoff/hedge, a reply, or
            // the watchdog tick — whichever is first.
            let mut wake = now + WATCHDOG;
            for slot in &self.slots {
                match slot {
                    SlotState::Pending {
                        deadline: Some(d), ..
                    } => wake = wake.min(*d),
                    SlotState::Backoff { at, .. } => wake = wake.min(*at),
                    _ => {}
                }
            }
            for at in self.hedge_at.iter().flatten() {
                wake = wake.min(*at);
            }
            match self.rx.recv_deadline(wake) {
                Ok(reply) => self.handle_reply(reply)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(RtError::ClusterDown),
            }
        }
    }

    fn handle_reply(&mut self, reply: RtReply) -> Result<(), RtError> {
        match reply {
            RtReply::Served(resp) => {
                self.on_served(resp);
                Ok(())
            }
            RtReply::Nack(nack) => self.on_nack(nack),
        }
    }

    fn on_served(&mut self, resp: RtResponse) {
        debug_assert_eq!(resp.task_id, self.task_id);
        // Balance this attempt's dispatch with selector feedback.
        if let Some(pos) = self
            .open
            .iter()
            .position(|o| o.req_idx == resp.req_idx as usize && o.attempt == resp.attempt)
        {
            self.open.swap_remove(pos);
            let now_ns = self.inner.epoch.elapsed().as_nanos() as u64;
            self.inner.selector.lock().on_response(
                ServerId::new(resp.server as u64),
                now_ns,
                &feedback_of(&resp, self.inner.rtt_ns),
            );
        } else if self.inner.hedge_ns.is_some() {
            // No open entry: the hedged twin won and this attempt was
            // already purged (its selector slot released at purge time).
            // The server did the work anyway; count and discard.
            self.inner
                .duplicate_responses
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        let i = resp.req_idx as usize;
        // Any served reply resolves an unresolved slot — a late original
        // beats its own retry, as in the simulator.
        if matches!(self.slots[i], SlotState::Settled) {
            return;
        }
        self.slots[i] = SlotState::Settled;
        self.served += 1;
        self.values[i] = resp.value;
        self.servers[i] = resp.server;
        self.request_ns[i] = resp.total_ns + self.inner.rtt_ns;
        let done_at = resp.completed + Duration::from_nanos(self.inner.rtt_ns);
        if self.latest_completed.is_none_or(|c| done_at > c) {
            self.latest_completed = Some(done_at);
        }
        // First response wins: purge the losing twin(s) of this request
        // — release their selector slots now and send cancels chasing
        // them, so a still-queued duplicate never occupies a server.
        self.hedge_at[i] = None;
        if self.inner.hedge_ns.is_some() {
            self.purge_losers(i, resp.attempt);
        }
    }

    /// Removes every other open attempt of request `i` after `winner`'s
    /// response settled it: each loser's dispatch is balanced with
    /// `on_abandon` here (never again — `on_served`/`on_nack` find no
    /// open entry for it afterwards), and a cancel chases it into its
    /// server's queue.
    fn purge_losers(&mut self, i: usize, winner: u32) {
        let mut k = 0;
        while k < self.open.len() {
            let o = self.open[k];
            if o.req_idx != i || o.attempt == winner {
                k += 1;
                continue;
            }
            self.open.swap_remove(k);
            self.inner.selector.lock().on_abandon(o.server);
            self.inner.servers[o.server.index()].cancel(RtCancel {
                task_id: self.task_id,
                req_idx: i as u32,
                attempt: o.attempt,
            });
        }
    }

    fn on_nack(&mut self, nack: RtNack) -> Result<(), RtError> {
        debug_assert_eq!(nack.task_id, self.task_id);
        // The NACKed attempt never occupied the server; release it.
        if let Some(pos) = self
            .open
            .iter()
            .position(|o| o.req_idx == nack.req_idx as usize && o.attempt == nack.attempt)
        {
            let o = self.open.swap_remove(pos);
            self.inner.selector.lock().on_abandon(o.server);
        }
        let i = nack.req_idx as usize;
        // Only a NACK for the *current* attempt drives the slot; one for
        // a superseded attempt is accounting only.
        let current = matches!(
            self.slots[i],
            SlotState::Pending { attempt, .. } if attempt == nack.attempt
        );
        if !current {
            return Ok(());
        }
        self.on_attempt_failed(i, nack.attempt, AttemptFailure::Nack(nack.reason))
    }

    fn fire_timers(&mut self, now: Instant) -> Result<(), RtError> {
        for i in 0..self.slots.len() {
            if self.failure.is_some() {
                return Ok(());
            }
            if self.hedge_at[i].is_some_and(|at| at <= now) {
                self.fire_hedge(i)?;
            }
            match self.slots[i] {
                SlotState::Pending {
                    attempt,
                    deadline: Some(d),
                } if d <= now => self.on_attempt_failed(i, attempt, AttemptFailure::Timeout)?,
                SlotState::Backoff { next_attempt, at } if at <= now => {
                    self.redispatch(i, next_attempt)?
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The hedge timer for request `i` expired with no response yet.
    /// Duplicate it to a second replica if the shared hedge gate allows
    /// (their silence is not evidence of trouble for requests *forecast*
    /// slower than the delay; duplicates stay within their budget), and
    /// skip rather than block when the selector rate-limits. The timer
    /// disarms either way: one hedge per request, never re-armed.
    fn fire_hedge(&mut self, i: usize) -> Result<(), RtError> {
        self.hedge_at[i] = None;
        let hedge_ns = self.inner.hedge_ns.expect("hedge fired without config");
        if matches!(self.slots[i], SlotState::Settled) {
            return Ok(());
        }
        let size = self.inner.sizes.size_of(self.keys[i]);
        let forecast_ns = self.inner.cost.forecast_ns(size);
        if !self.inner.budget().can_hedge(forecast_ns, hedge_ns) {
            return Ok(());
        }
        let replicas = self.inner.ring.replicas_of_group(self.groups[i]);
        // No deadline: the original attempt's timer still owns the
        // slot's timeout; the hedge only races it to a response.
        match self.inner.try_select(&replicas, size) {
            Selection::Dispatch(server) => self.send(i, HEDGE_ATTEMPT, server, Instant::now()),
            Selection::RateLimited { .. } => Ok(()),
        }
    }

    /// Attempt `attempt` of request `i` — the slot's current one — was
    /// NACKed or timed out: on the shared verdict, start the next
    /// attempt's backoff or settle the task as failed.
    fn on_attempt_failed(
        &mut self,
        i: usize,
        attempt: u32,
        cause: AttemptFailure,
    ) -> Result<(), RtError> {
        let verdict =
            self.inner
                .budget()
                .on_attempt_failed(self.inner.timeout.as_ref(), attempt, cause);
        match verdict {
            Verdict::Retry { backoff_ns } => {
                self.inner.retried_total.fetch_add(1, Ordering::Relaxed);
                self.retries += 1;
                if backoff_ns == 0 {
                    self.redispatch(i, attempt + 1)
                } else {
                    self.slots[i] = SlotState::Backoff {
                        next_attempt: attempt + 1,
                        at: Instant::now() + Duration::from_nanos(backoff_ns),
                    };
                    Ok(())
                }
            }
            Verdict::Fail(failure) => {
                self.failure = Some(failure);
                self.slots[i] = SlotState::Settled;
                Ok(())
            }
        }
    }

    /// Dispatches attempt `attempt` of request `i`: replica selection
    /// runs again (the retry may pick a healthier server), the attempt
    /// id is fresh, and the deadline re-arms from this dispatch.
    fn redispatch(&mut self, i: usize, attempt: u32) -> Result<(), RtError> {
        let replicas = self.inner.ring.replicas_of_group(self.groups[i]);
        let size = self.inner.sizes.size_of(self.keys[i]);
        let server = self.inner.select_replica(&replicas, size);
        let tc = self
            .inner
            .timeout
            .expect("redispatch without timeout config");
        let now = Instant::now();
        self.send(i, attempt, server, now)?;
        self.slots[i] = SlotState::Pending {
            attempt,
            deadline: Some(now + Duration::from_nanos(tc.timeout_ns())),
        };
        Ok(())
    }

    /// Submits attempt `attempt` of request `i` to `server` — the one
    /// place a request leaves the client — and opens its selector
    /// accounting.
    /// Hedge duplicates count against the hedge budget, everything else
    /// toward its denominator.
    fn send(
        &mut self,
        i: usize,
        attempt: u32,
        server: ServerId,
        submitted: Instant,
    ) -> Result<(), RtError> {
        let counter = if attempt == HEDGE_ATTEMPT {
            &self.inner.hedged_total
        } else {
            &self.inner.dispatched_total
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let reply = self
            .reply_tx
            .clone()
            .expect("dispatch without reply sender");
        let submitted = self.inner.servers[server.index()].submit(RtRequest {
            key: self.keys[i],
            group: self.groups[i],
            priority: self.priorities[i],
            req_idx: i as u32,
            task_id: self.task_id,
            attempt,
            submitted,
            reply,
        });
        // Handed back: the server has stopped. The selector counted the
        // dispatch when it chose `server`; release it.
        if submitted.is_err() {
            self.inner.selector.lock().on_abandon(server);
            return Err(if self.inner.panicked.load(Ordering::SeqCst) {
                RtError::WorkerPanicked
            } else {
                RtError::ClusterDown
            });
        }
        self.open.push(OpenDispatch {
            req_idx: i,
            attempt,
            server,
        });
        Ok(())
    }

    fn take_resolution(&mut self, origin: Instant) -> TaskResolution {
        let outcome = match self.failure {
            Some(failure) => TaskOutcome::Failed { failure },
            None => {
                let completed = self.latest_completed.unwrap_or(origin);
                TaskOutcome::Completed(TaskResponse {
                    task_id: self.task_id,
                    latency: completed.saturating_duration_since(origin),
                    values: std::mem::take(&mut self.values),
                    servers: std::mem::take(&mut self.servers),
                    request_ns: std::mem::take(&mut self.request_ns),
                })
            }
        };
        TaskResolution {
            task_id: self.task_id,
            retries: self.retries,
            outcome,
        }
    }
}

impl Drop for TaskTicket {
    fn drop(&mut self) {
        // With hedging on, the drain must run even with nothing open:
        // a purged loser's reply may be sitting in the channel, and it
        // is counted (as duplicate work) rather than silently dropped.
        if self.open.is_empty() && self.inner.hedge_ns.is_none() {
            return;
        }
        // Balance every still-open dispatch exactly once: replies that
        // already landed take the regular feedback path, the rest release
        // their outstanding slots. A reply landing after this drain is
        // dropped with the receiver; its slot was already released here,
        // so the count stays balanced.
        let mut selector = self.inner.selector.lock();
        while let Ok(reply) = self.rx.try_recv() {
            let (req_idx, attempt) = match &reply {
                RtReply::Served(r) => (r.req_idx as usize, r.attempt),
                RtReply::Nack(n) => (n.req_idx as usize, n.attempt),
            };
            let Some(pos) = self
                .open
                .iter()
                .position(|o| o.req_idx == req_idx && o.attempt == attempt)
            else {
                // Already balanced — under hedging this is a purged
                // loser's reply arriving after its slot was released;
                // count the wasted work like the live path does.
                if matches!(reply, RtReply::Served(_)) && self.inner.hedge_ns.is_some() {
                    self.inner
                        .duplicate_responses
                        .fetch_add(1, Ordering::Relaxed);
                }
                continue;
            };
            let o = self.open.swap_remove(pos);
            match reply {
                RtReply::Served(resp) => {
                    let now_ns = self.inner.epoch.elapsed().as_nanos() as u64;
                    selector.on_response(
                        ServerId::new(resp.server as u64),
                        now_ns,
                        &feedback_of(&resp, self.inner.rtt_ns),
                    );
                }
                RtReply::Nack(_) => selector.on_abandon(o.server),
            }
        }
        for o in self.open.drain(..) {
            selector.on_abandon(o.server);
        }
    }
}

/// A handle for submitting tasks to an [`crate::RtCluster`].
pub struct RtClient {
    inner: Arc<ClientInner>,
    policy: PolicyKind,
    task_counter: Arc<AtomicU64>,
}

impl std::fmt::Debug for RtClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtClient")
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl RtClient {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ring: Ring,
        cost: CostModel,
        policy: PolicyKind,
        sizes: SizeModel,
        servers: Vec<Arc<ServerShared>>,
        task_counter: Arc<AtomicU64>,
        selector: Box<dyn ReplicaSelector + Send>,
        rtt_ns: u64,
        timeout: Option<TimeoutConfig>,
        hedge_ns: Option<u64>,
        panicked: Arc<AtomicBool>,
    ) -> RtClient {
        RtClient {
            inner: Arc::new(ClientInner {
                ring,
                cost,
                sizes,
                servers,
                selector: Arc::new(Mutex::new(selector)),
                epoch: Instant::now(),
                rtt_ns,
                timeout,
                hedge_ns,
                dispatched_total: AtomicU64::new(0),
                retried_total: AtomicU64::new(0),
                hedged_total: AtomicU64::new(0),
                duplicate_responses: AtomicU64::new(0),
                panicked,
            }),
            policy,
            task_counter,
        }
    }

    /// Submits a batch read and blocks until it completes.
    ///
    /// # Panics
    /// Panics on an empty key list, if the cluster shut down mid-task, or
    /// if the task fails under the overload lane.
    pub fn fetch(&self, keys: &[u64]) -> TaskResponse {
        self.fetch_async(keys).wait()
    }

    /// Submits a batch read and returns a ticket to wait on — lets one
    /// client keep many tasks in flight (the large fan-out pattern). A
    /// stopped cluster is not a panic here: the ticket carries the
    /// [`RtError`] and every `wait_outcome*` / `poll_outcome` returns it.
    pub fn fetch_async(&self, keys: &[u64]) -> TaskTicket {
        assert!(!keys.is_empty(), "a task needs at least one key");
        let task_id = self.task_counter.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let arrival_ns = self.inner.epoch.elapsed().as_nanos() as u64;

        // Split into sub-tasks per replica group and forecast costs from
        // the size catalog (the client-side knowledge BRB assumes).
        let n = keys.len();
        let mut costs = Vec::with_capacity(n);
        let mut groups = Vec::with_capacity(n);
        for &key in keys {
            groups.push(self.inner.ring.group_of_key(key));
            costs.push(self.inner.cost.forecast_ns(self.inner.sizes.size_of(key)));
        }
        // Group → sub-task index via a dense scratch table: replica
        // groups are few (one per partition set), so this is O(n + G)
        // where the old linear rescan was O(n·g) — quadratic on the
        // SoundCloud-style hundreds-of-keys fan-outs.
        let mut group_slot = vec![usize::MAX; self.inner.ring.num_groups() as usize];
        let mut request_subtask = Vec::with_capacity(n);
        let mut subtask_costs: Vec<u64> = Vec::new();
        for (i, g) in groups.iter().enumerate() {
            let slot = &mut group_slot[g.index()];
            if *slot == usize::MAX {
                *slot = subtask_costs.len();
                subtask_costs.push(0);
            }
            let idx = *slot;
            request_subtask.push(idx);
            subtask_costs[idx] += costs[i];
        }
        let view = TaskView {
            arrival_ns,
            request_costs: &costs,
            request_subtask: &request_subtask,
            subtask_costs: &subtask_costs,
        };
        let priorities: Vec<Priority> = self.policy.assign(&view);

        // One response channel per task: no cross-task interference.
        let (tx, rx) = unbounded();
        let deadline = self
            .inner
            .timeout
            .map(|tc| started + Duration::from_nanos(tc.timeout_ns()));
        let mut ticket = TaskTicket {
            inner: Arc::clone(&self.inner),
            task_id,
            n,
            started,
            rx,
            reply_tx: Some(tx),
            keys: keys.to_vec(),
            groups,
            priorities,
            slots: vec![
                SlotState::Pending {
                    attempt: 0,
                    deadline,
                };
                n
            ],
            hedge_at: vec![None; n],
            open: Vec::with_capacity(n),
            values: (0..n).map(|_| None).collect(),
            servers: vec![0; n],
            request_ns: vec![0; n],
            latest_completed: None,
            served: 0,
            retries: 0,
            failure: None,
            error: None,
            taken: false,
        };
        for (i, &key) in keys.iter().enumerate() {
            let replicas = self.inner.ring.replicas_of_group(ticket.groups[i]);
            let server = self
                .inner
                .select_replica(&replicas, self.inner.sizes.size_of(key));
            if let Err(e) = ticket.send(i, 0, server, started) {
                ticket.error = Some(e);
                break;
            }
            // Arm the hedge timer from the actual dispatch instant (a
            // rate-limited selector may have stalled the loop above).
            if let Some(ns) = self.inner.hedge_ns {
                ticket.hedge_at[i] = Some(Instant::now() + Duration::from_nanos(ns));
            }
        }
        // The reply channel is retained only while later dispatches are
        // possible: retries (timeout config) or hedges.
        if self.inner.timeout.is_none() && self.inner.hedge_ns.is_none() {
            ticket.reply_tx = None;
        }
        ticket
    }

    /// This client's outstanding-request count toward `server`
    /// (selector-tracked; diagnostics).
    pub fn outstanding(&self, server: ServerId) -> u64 {
        self.inner.selector.lock().outstanding(server)
    }

    /// Requests this client has dispatched (originals and retries; hedge
    /// duplicates are counted by [`Self::hedged_total`]).
    pub fn dispatched_total(&self) -> u64 {
        self.inner.dispatched_total.load(Ordering::Relaxed)
    }

    /// Retries this client has issued.
    pub fn retried_total(&self) -> u64 {
        self.inner.retried_total.load(Ordering::Relaxed)
    }

    /// Hedge duplicates this client has issued.
    pub fn hedged_total(&self) -> u64 {
        self.inner.hedged_total.load(Ordering::Relaxed)
    }

    /// Purged hedge losers whose replies completed anyway and were
    /// discarded (hedging's duplicate-work cost).
    pub fn duplicate_responses(&self) -> u64 {
        self.inner.duplicate_responses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{RtCluster, RtClusterConfig, SpikeModel, WorkModel};
    use brb_sched::PolicyKind;
    use brb_sched::QueueConfig;
    use brb_select::SelectorSpec;
    use brb_store::service::{ServiceModel, ServiceNoise};

    fn cluster() -> RtCluster {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 4,
            workers_per_server: 2,
            replication: 2,
            policy: PolicyKind::UnifIncr,
            work: WorkModel::Instant,
            store_shards: 8,
            ..Default::default()
        });
        c.populate_etc(2_000);
        c
    }

    /// ~`mean_us` µs of noiseless service per request at 64-byte values.
    fn slow_service(mean_us: f64) -> ServiceModel {
        ServiceModel::calibrated_size_linear(mean_us * 1_000.0, 64.0, 1.0, ServiceNoise::None)
    }

    #[test]
    fn fetch_returns_values_in_request_order() {
        let c = cluster();
        let client = c.client();
        let keys = [5u64, 900, 77, 1_500];
        let resp = client.fetch(&keys);
        for (i, &key) in keys.iter().enumerate() {
            let v = resp.values[i].as_ref().expect("populated key");
            assert_eq!(v.len() as u64, c.size_model().size_of(key), "key {key}");
        }
        assert!(resp.latency.as_nanos() > 0);
        assert_eq!(resp.request_ns.len(), 4);
        c.shutdown();
    }

    #[test]
    fn responses_come_from_replicas_of_the_key() {
        let c = cluster();
        let client = c.client();
        for key in 0..200u64 {
            let resp = client.fetch(&[key]);
            let server = brb_store::ids::ServerId::new(resp.servers[0] as u64);
            assert!(
                c.ring().replicas_of_key(key).contains(&server),
                "key {key} answered by non-replica {server}"
            );
        }
        c.shutdown();
    }

    /// Every selector spec must route correctly against the live
    /// cluster (replica-only dispatch, all responses collected).
    #[test]
    fn all_selectors_route_to_replicas() {
        for selector in [
            SelectorSpec::Random,
            SelectorSpec::RoundRobin,
            SelectorSpec::LeastOutstanding,
            SelectorSpec::C3,
        ] {
            let c = RtCluster::start(RtClusterConfig {
                num_servers: 3,
                workers_per_server: 1,
                replication: 2,
                selector,
                work: WorkModel::Instant,
                store_shards: 8,
                ..Default::default()
            });
            c.populate(500, |_| 32);
            let client = c.client();
            for key in 0..100u64 {
                let resp = client.fetch(&[key, key + 100, key + 200]);
                for (i, &s) in resp.servers.iter().enumerate() {
                    let server = brb_store::ids::ServerId::new(s as u64);
                    let key = [key, key + 100, key + 200][i];
                    assert!(
                        c.ring().replicas_of_key(key).contains(&server),
                        "{:?}: key {key} answered by non-replica {server}",
                        selector
                    );
                }
            }
            c.shutdown();
        }
    }

    /// The sub-task grouping path must stay linear: a 500-key task (the
    /// SoundCloud heavy tail) completes with correct per-group
    /// aggregation. This pins the dense-scratch rewrite of the old
    /// O(g²) `iter().find` scan.
    #[test]
    fn large_fanout_task_groups_correctly() {
        let c = cluster();
        let client = c.client();
        let keys: Vec<u64> = (0..500u64).map(|i| i * 3 % 2_000).collect();
        let resp = client.fetch(&keys);
        assert_eq!(resp.values.len(), 500);
        for (i, &key) in keys.iter().enumerate() {
            assert!(resp.values[i].is_some(), "key {key} missing");
            let server = brb_store::ids::ServerId::new(resp.servers[i] as u64);
            assert!(
                c.ring().replicas_of_key(key).contains(&server),
                "key {key} answered by non-replica"
            );
        }
        c.shutdown();
    }

    #[test]
    fn async_tickets_allow_pipelining() {
        let c = cluster();
        let client = c.client();
        let tickets: Vec<_> = (0..50)
            .map(|i| client.fetch_async(&[i, i + 100, i + 200]))
            .collect();
        let mut ids = std::collections::HashSet::new();
        for t in tickets {
            let resp = t.wait();
            assert_eq!(resp.values.len(), 3);
            assert!(ids.insert(resp.task_id), "duplicate task id");
        }
        c.shutdown();
    }

    #[test]
    fn wait_from_extends_latency_to_the_origin() {
        let c = cluster();
        let client = c.client();
        let origin = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ticket = client.fetch_async(&[1, 2, 3]);
        let resp = ticket.wait_from(origin);
        // Measured from the earlier origin, latency must include the 2ms
        // the task "waited" before submission (the open-loop accounting).
        assert!(
            resp.latency >= std::time::Duration::from_millis(2),
            "{:?}",
            resp.latency
        );
        c.shutdown();
    }

    /// Abandoning tickets must not leak selector accounting: every
    /// dispatch is balanced by either a response or an abandon, so
    /// outstanding counts return to zero and selection stays unbiased.
    #[test]
    fn dropped_tickets_release_selector_accounting() {
        let c = cluster(); // least-outstanding selector by default
        let client = c.client();
        for i in 0..20u64 {
            // Drop immediately: most responses have not arrived yet, so
            // this exercises the abandon path; any that did arrive take
            // the regular feedback path.
            drop(client.fetch_async(&[i, i + 500, i + 1000]));
        }
        // Let in-flight responses land (their sends are ignored errors).
        std::thread::sleep(std::time::Duration::from_millis(20));
        for s in 0..4u64 {
            assert_eq!(
                client.outstanding(brb_store::ids::ServerId::new(s)),
                0,
                "server {s} kept phantom outstanding requests"
            );
        }
        // The client still works after abandoning tasks.
        let resp = client.fetch(&[1, 2, 3]);
        assert_eq!(resp.values.len(), 3);
        c.shutdown();
    }

    /// The configured constant-mesh RTT must appear in every recorded
    /// latency (request and task), even though nothing actually sleeps
    /// for it — the accounting that keeps rt reports comparable to the
    /// simulator's 50µs-mesh numbers.
    #[test]
    fn network_rtt_is_accounted_into_latencies() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 2,
            workers_per_server: 1,
            replication: 1,
            network_rtt_ns: 3_000_000, // 3ms round trip
            work: WorkModel::Instant,
            store_shards: 4,
            ..Default::default()
        });
        c.populate(10, |_| 8);
        let client = c.client();
        let resp = client.fetch(&[1, 2]);
        assert!(
            resp.latency >= std::time::Duration::from_millis(3),
            "task latency {:?} misses the accounted RTT",
            resp.latency
        );
        for &ns in &resp.request_ns {
            assert!(ns >= 3_000_000, "request latency {ns}ns misses the RTT");
        }
        c.shutdown();
    }

    #[test]
    fn task_ids_are_unique_across_clients() {
        let c = cluster();
        let a = c.client();
        let b = c.client();
        let ra = a.fetch(&[1]);
        let rb = b.fetch(&[2]);
        assert_ne!(ra.task_id, rb.task_id);
        c.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_task_rejected() {
        let c = cluster();
        let client = c.client();
        // Hold the cluster alive until the panic fires.
        let _ = client.fetch(&[]);
    }

    /// Submitting to a stopped cluster is a typed error on the ticket,
    /// never a panic on the caller's thread, and leaves no selector
    /// accounting behind.
    #[test]
    fn fetch_async_after_shutdown_fails_typed() {
        let c = cluster();
        let client = c.client();
        let _ = client.fetch(&[1, 2, 3]);
        c.shutdown();
        let mut ticket = client.fetch_async(&[1, 2, 3]);
        assert!(ticket.is_ready(), "waiting on it would not block");
        assert_eq!(
            ticket.poll_outcome(Instant::now()).unwrap_err(),
            RtError::ClusterDown
        );
        assert_eq!(ticket.wait_outcome().unwrap_err(), RtError::ClusterDown);
        for s in 0..4u64 {
            assert_eq!(client.outstanding(brb_store::ids::ServerId::new(s)), 0);
        }
    }

    /// A saturated bounded queue must tail-drop: a burst against one
    /// slow worker with capacity 1 NACKs the overflow back, and with no
    /// retry config those tasks fail typed as `Dropped` — while the
    /// resolution counts conserve (`completed + failed == issued`).
    #[test]
    fn bounded_queue_tail_drops_as_typed_failures() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::SimulateService(slow_service(2_000.0)), // ~2ms
            store_shards: 4,
            queue: Some(QueueConfig {
                capacity: 1,
                shed_above: None,
                codel: None,
                priority_stats: false,
            }),
            ..Default::default()
        });
        c.populate(64, |_| 64);
        let client = c.client();
        let tickets: Vec<_> = (0..10u64).map(|k| client.fetch_async(&[k])).collect();
        let mut completed = 0;
        let mut dropped = 0;
        for t in tickets {
            match t.wait_outcome().expect("live run failed").outcome {
                TaskOutcome::Completed(_) => completed += 1,
                TaskOutcome::Failed { failure } => {
                    assert_eq!(failure, TaskFailure::Dropped);
                    dropped += 1;
                }
            }
        }
        assert_eq!(completed + dropped, 10, "conservation");
        assert!(dropped >= 1, "burst of 10 into capacity 1 never dropped");
        assert_eq!(c.dropped_per_server().iter().sum::<u64>(), dropped);
        c.shutdown();
    }

    /// The shed watermark must refuse work *below* capacity and the
    /// refusal must classify as `Shed`, not `Dropped`.
    #[test]
    fn watermark_shedding_classifies_as_shed() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::SimulateService(slow_service(2_000.0)),
            store_shards: 4,
            queue: Some(QueueConfig {
                capacity: 100,
                shed_above: Some(1),
                codel: None,
                priority_stats: false,
            }),
            ..Default::default()
        });
        c.populate(64, |_| 64);
        let client = c.client();
        let tickets: Vec<_> = (0..10u64).map(|k| client.fetch_async(&[k])).collect();
        let mut shed = 0;
        for t in tickets {
            if let TaskOutcome::Failed { failure } =
                t.wait_outcome().expect("live run failed").outcome
            {
                assert_eq!(failure, TaskFailure::Shed);
                shed += 1;
            }
        }
        assert!(shed >= 1, "watermark 1 never shed a 10-task burst");
        assert_eq!(c.shed_per_server().iter().sum::<u64>(), shed);
        c.shutdown();
    }

    /// Deadline timers: a service far beyond the timeout must resolve as
    /// `TimedOut` with retries disabled, and as `RetriesExhausted` after
    /// exactly `max_retries` fresh attempts otherwise.
    #[test]
    fn deadlines_fire_and_retries_exhaust() {
        for (max_retries, expect, expect_retries) in [
            (0u32, TaskFailure::TimedOut, 0u32),
            (2, TaskFailure::RetriesExhausted, 2),
        ] {
            let c = RtCluster::start(RtClusterConfig {
                num_servers: 1,
                workers_per_server: 1,
                replication: 1,
                work: WorkModel::SimulateService(slow_service(20_000.0)), // ~20ms
                store_shards: 4,
                timeout: Some(TimeoutConfig {
                    timeout_us: 500, // 0.5ms
                    max_retries,
                    backoff_base_us: 0,
                    backoff_cap_us: 0,
                    retry_budget_percent: None,
                }),
                ..Default::default()
            });
            c.populate(8, |_| 64);
            let client = c.client();
            let res = client
                .fetch_async(&[1])
                .wait_outcome()
                .expect("live run failed");
            match res.outcome {
                TaskOutcome::Failed { failure } => assert_eq!(failure, expect),
                TaskOutcome::Completed(_) => panic!("20ms service beat a 0.5ms deadline"),
            }
            assert_eq!(res.retries, expect_retries);
            c.shutdown();
        }
    }

    /// The retry budget must dry up long before `max_retries` when the
    /// dispatch denominator is small.
    #[test]
    fn retry_budget_limits_retries() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::SimulateService(slow_service(20_000.0)),
            store_shards: 4,
            timeout: Some(TimeoutConfig {
                timeout_us: 500,
                max_retries: 10,
                backoff_base_us: 0,
                backoff_cap_us: 0,
                retry_budget_percent: Some(1),
            }),
            ..Default::default()
        });
        c.populate(8, |_| 64);
        let client = c.client();
        let res = client
            .fetch_async(&[1])
            .wait_outcome()
            .expect("live run failed");
        assert!(
            matches!(
                res.outcome,
                TaskOutcome::Failed {
                    failure: TaskFailure::RetriesExhausted
                }
            ),
            "{:?}",
            res.outcome
        );
        // One retry doubles the dispatch count to 2; 1·100 ≥ 2·1 dries
        // the 1% budget immediately after.
        assert_eq!(res.retries, 1, "budget did not bind");
        c.shutdown();
    }

    /// A hedged cluster where every request spikes ~20ms while the
    /// forecast stays ~0.1ms: the original goes silent past the hedge
    /// delay, so exactly one duplicate fires (first check always passes
    /// the 5% budget), the first response wins, and the losing twin —
    /// purged mid-service — completes into a counted, discarded
    /// duplicate instead of phantom selector state.
    fn hedging_cluster() -> RtCluster {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 2,
            workers_per_server: 1,
            replication: 2,
            work: WorkModel::SimulateService(slow_service(100.0)), // ~0.1ms
            store_shards: 4,
            hedge_delay_ns: Some(2_000_000), // 2ms
            spike: Some(SpikeModel {
                p_spike: 1.0,
                extra_lo_ns: 20_000_000,
                extra_hi_ns: 20_000_000,
            }),
            ..Default::default()
        });
        c.populate(16, |_| 64);
        c
    }

    #[test]
    fn hedges_duplicate_stragglers_and_discard_the_loser() {
        let c = hedging_cluster();
        let client = c.client();
        let origin = Instant::now();
        let mut t = client.fetch_async(&[3]);
        let res = loop {
            match t.poll_outcome(origin).expect("live run failed") {
                Some(r) => break r,
                None => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        let TaskOutcome::Completed(resp) = res.outcome else {
            panic!("hedged task failed");
        };
        assert!(resp.values[0].is_some());
        assert_eq!(client.hedged_total(), 1, "20ms straggler must hedge once");
        // The losing twin is mid-service; let it finish and reply, then
        // drop the ticket — the drain must discard and count the reply.
        std::thread::sleep(Duration::from_millis(45));
        drop(t);
        assert_eq!(
            client.duplicate_responses(),
            1,
            "the purged loser's completion must be counted as duplicate work"
        );
        for s in 0..2u64 {
            assert_eq!(
                client.outstanding(brb_store::ids::ServerId::new(s)),
                0,
                "server {s} kept phantom outstanding requests"
            );
        }
        c.shutdown();
    }

    /// PR 5's leak contract extended to hedging: abandoning a ticket
    /// with a losing duplicate still mid-service balances every
    /// dispatch — selector outstanding returns to zero and the client
    /// keeps working.
    #[test]
    fn hedged_dropped_tickets_release_selector_accounting() {
        let c = hedging_cluster();
        let client = c.client();
        let mut t = client.fetch_async(&[3]);
        // Let the hedge delay pass, then poll once to fire the duplicate
        // (both twins are then held mid-service by the ~20ms spike).
        std::thread::sleep(Duration::from_millis(3));
        let _ = t.poll_outcome(Instant::now()).expect("live run failed");
        assert_eq!(
            client.hedged_total(),
            1,
            "hedge did not fire before abandon"
        );
        drop(t);
        for s in 0..2u64 {
            assert_eq!(
                client.outstanding(brb_store::ids::ServerId::new(s)),
                0,
                "abandoned hedged ticket leaked outstanding on server {s}"
            );
        }
        // Replies landing after the abandon go to a closed channel; the
        // client must still work and stay balanced.
        std::thread::sleep(Duration::from_millis(45));
        let resp = client.fetch(&[5]);
        assert_eq!(resp.values.len(), 1);
        for s in 0..2u64 {
            assert_eq!(client.outstanding(brb_store::ids::ServerId::new(s)), 0);
        }
        c.shutdown();
    }
}
