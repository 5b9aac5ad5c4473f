//! Overload controls: bounded queues with typed enqueue outcomes,
//! admission-control load shedding, and a CoDel-style adaptive
//! queue-management policy.
//!
//! The paper evaluates BRB below saturation only; these pieces let the
//! engine express what production stores do past the knee:
//!
//! * [`QueueBound`] — a tail-drop capacity plus an optional
//!   admission-control watermark (`shed_above`) below it. [`QueueBound::admit`]
//!   returns a typed [`EnqueueOutcome`] so callers distinguish
//!   "enqueued", "tail-dropped at capacity" and "shed by admission
//!   control" instead of silently growing without limit.
//! * [`CoDel`] — the controller of Nichols & Jacobson's CoDel AQM,
//!   adapted to request queues: it watches each dequeued item's
//!   *sojourn time* (enqueue → dequeue) and, once sojourn stays above
//!   `target_ns` for a full `interval_ns`, enters a dropping state that
//!   discards head-of-line items at a cadence that shrinks with the
//!   inverse square root of the drop count — the classic control law
//!   that backs off load proportionally to how persistent the standing
//!   queue is.
//! * [`QueueConfig`] — the two together, as spec files and both
//!   backends' cluster configs carry them; [`crate::ServerQueue`] is the
//!   one place that applies them.
//! * [`TimeoutConfig`], [`DispatchBudget`], [`TaskFailure`] — the client
//!   side: per-attempt timeouts, capped-exponential retries under a
//!   budget, hedges under a budget, and the typed terminal outcome of a
//!   task whose request ran out of attempts.
//!
//! Everything here is deterministic and allocation-free: decisions are
//! pure functions of queue length, the caller's clock and the
//! caller-held counters, so simulations with identical seeds drop
//! identical requests — and the live runtime, which calls the same
//! functions on wall-clock time, decides the same way.

use serde::{Deserialize, Serialize};

/// Why an enqueue attempt (or an AQM inspection at dequeue) rejected a
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Tail drop: the queue was at capacity.
    QueueFull,
    /// Admission control shed the request at the watermark, before the
    /// queue filled.
    Shed,
    /// The AQM dropped the request at dequeue because its sojourn time
    /// exceeded the target for a sustained interval.
    Sojourn,
}

/// Typed outcome of offering a request to a bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The request was (or may be) enqueued.
    Enqueued,
    /// The request was rejected; the reason says by which mechanism.
    Dropped(DropReason),
}

/// Capacity bound and admission-control watermark for one queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueBound {
    /// Hard capacity: arrivals finding this many queued are tail-dropped.
    pub capacity: usize,
    /// Admission-control watermark: arrivals finding at least this many
    /// queued are shed *before* the queue fills (`None` disables
    /// shedding). Must not exceed `capacity` to be meaningful.
    pub shed_above: Option<usize>,
}

impl QueueBound {
    /// A bound with no shedding watermark.
    pub fn tail_drop(capacity: usize) -> Self {
        QueueBound {
            capacity,
            shed_above: None,
        }
    }

    /// The admission decision for an arrival finding `len` items queued.
    /// Shedding is checked first: a watermark below capacity means the
    /// queue sheds before it ever tail-drops.
    pub fn admit(&self, len: usize) -> EnqueueOutcome {
        if let Some(watermark) = self.shed_above {
            if len >= watermark {
                return EnqueueOutcome::Dropped(DropReason::Shed);
            }
        }
        if len >= self.capacity {
            return EnqueueOutcome::Dropped(DropReason::QueueFull);
        }
        EnqueueOutcome::Enqueued
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == 0 {
            return Err("queue capacity must be positive".into());
        }
        if let Some(w) = self.shed_above {
            if w == 0 {
                return Err("shed watermark must be positive".into());
            }
            if w > self.capacity {
                return Err(format!(
                    "shed watermark {w} above capacity {}",
                    self.capacity
                ));
            }
        }
        Ok(())
    }
}

/// CoDel knobs: the sojourn-time target and the observation interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoDelConfig {
    /// Acceptable standing sojourn time (ns). Sojourns below this never
    /// trigger drops.
    pub target_ns: u64,
    /// How long sojourn must stay above target before dropping starts;
    /// also the base of the drop cadence (ns).
    pub interval_ns: u64,
}

impl CoDelConfig {
    /// The canonical CoDel constants: 5 ms target, 100 ms interval.
    pub fn paper_default() -> Self {
        CoDelConfig {
            target_ns: 5_000_000,
            interval_ns: 100_000_000,
        }
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.target_ns == 0 {
            return Err("CoDel target must be positive".into());
        }
        if self.interval_ns == 0 {
            return Err("CoDel interval must be positive".into());
        }
        Ok(())
    }
}

/// Server-side queue bounds and AQM. Queues are unbounded when absent —
/// the pre-overload behavior every golden hash pins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Per-queue capacity: arrivals finding this many queued are
    /// tail-dropped and NACKed back to the client.
    pub capacity: usize,
    /// Admission-control watermark: arrivals finding at least this many
    /// queued are shed before the queue fills (`None` disables
    /// shedding; must not exceed `capacity`).
    #[serde(default)]
    pub shed_above: Option<usize>,
    /// CoDel-style AQM at dequeue (`None` disables it): head-of-line
    /// requests whose sojourn exceeded the target for a sustained
    /// interval are dropped at an inverse-sqrt-tightening cadence.
    #[serde(default)]
    pub codel: Option<CoDelConfig>,
    /// Split the drop/shed counters by priority class (log₂ buckets of
    /// the assigned priority key) and report them as the additive
    /// `priority_classes` run field — makes per-class starvation under
    /// shedding observable (e.g. EqualMax favoring small tasks). Off by
    /// default: the split is extra report surface, and existing
    /// serializations must stay byte-identical. Simulator-only.
    #[serde(default)]
    pub priority_stats: bool,
}

impl QueueConfig {
    /// The tail-drop/shed bound this config describes.
    pub fn bound(&self) -> QueueBound {
        QueueBound {
            capacity: self.capacity,
            shed_above: self.shed_above,
        }
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        self.bound().validate()?;
        if let Some(codel) = &self.codel {
            codel.validate()?;
        }
        Ok(())
    }
}

/// The CoDel drop controller for one queue. Feed it every dequeue via
/// [`CoDel::on_dequeue`]; it answers "drop this one?".
#[derive(Debug, Clone)]
pub struct CoDel {
    cfg: CoDelConfig,
    /// When sojourn first rose above target plus one interval — the
    /// moment dropping may begin. `None` while sojourn is below target.
    first_above_ns: Option<u64>,
    /// Whether the controller is in its dropping state.
    dropping: bool,
    /// Next scheduled drop time while dropping.
    drop_next_ns: u64,
    /// Drops in the current dropping episode (drives the control law).
    drop_count: u32,
    /// Total drops over the controller's lifetime.
    total_dropped: u64,
}

/// The control law: the gap to the next drop shrinks with the inverse
/// square root of the episode's drop count, halving the cadence time
/// after four drops, and so on.
fn control_law(interval_ns: u64, drop_count: u32) -> u64 {
    ((interval_ns as f64 / (drop_count.max(1) as f64).sqrt()) as u64).max(1)
}

impl CoDel {
    /// A fresh controller in the non-dropping state.
    pub fn new(cfg: CoDelConfig) -> Self {
        CoDel {
            cfg,
            first_above_ns: None,
            dropping: false,
            drop_next_ns: 0,
            drop_count: 0,
            total_dropped: 0,
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> CoDelConfig {
        self.cfg
    }

    /// Total drops decided over the controller's lifetime.
    pub fn total_dropped(&self) -> u64 {
        self.total_dropped
    }

    /// Decides the fate of an item dequeued at `now_ns` after waiting
    /// `sojourn_ns` in the queue: `true` means drop it (the caller
    /// should discard it and dequeue the next), `false` means serve it.
    pub fn on_dequeue(&mut self, now_ns: u64, sojourn_ns: u64) -> bool {
        if sojourn_ns < self.cfg.target_ns {
            // Below target: leave the dropping state and rearm.
            self.first_above_ns = None;
            self.dropping = false;
            return false;
        }
        match self.first_above_ns {
            None => {
                // First observation above target: give the queue one full
                // interval to drain on its own.
                self.first_above_ns = Some(now_ns + self.cfg.interval_ns);
                false
            }
            Some(first_above) => {
                if self.dropping {
                    if now_ns >= self.drop_next_ns {
                        self.drop_count += 1;
                        self.total_dropped += 1;
                        self.drop_next_ns =
                            now_ns + control_law(self.cfg.interval_ns, self.drop_count);
                        true
                    } else {
                        false
                    }
                } else if now_ns >= first_above {
                    // Sojourn stayed above target for a whole interval:
                    // enter the dropping state and drop immediately.
                    self.dropping = true;
                    self.drop_count = 1;
                    self.total_dropped += 1;
                    self.drop_next_ns = now_ns + control_law(self.cfg.interval_ns, self.drop_count);
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Client-side request timeout and retry knobs. Clients never time out
/// when absent. Durations are in microseconds — the unit spec files
/// are written in; the `*_ns` accessors convert.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeoutConfig {
    /// Per-attempt timeout in microseconds, measured dispatch → response.
    pub timeout_us: u64,
    /// Retries allowed after the first attempt (0 = a single timeout is
    /// terminal).
    #[serde(default)]
    pub max_retries: u32,
    /// First-retry backoff in microseconds; doubles per retry (capped
    /// exponential backoff). 0 retries immediately — the retry-storm
    /// configuration.
    #[serde(default)]
    pub backoff_base_us: u64,
    /// Cap on the exponential backoff in microseconds (must be ≥ the
    /// base).
    #[serde(default)]
    pub backoff_cap_us: u64,
    /// Retry budget: a client stops retrying once its retries reach this
    /// percentage of its dispatches (`None` = unbudgeted).
    #[serde(default)]
    pub retry_budget_percent: Option<u32>,
}

impl TimeoutConfig {
    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.timeout_us == 0 {
            return Err("timeout must be positive".into());
        }
        if self.max_retries > 16 {
            return Err(format!("max_retries {} above cap 16", self.max_retries));
        }
        if self.backoff_cap_us < self.backoff_base_us {
            return Err(format!(
                "backoff cap {}us below base {}us",
                self.backoff_cap_us, self.backoff_base_us
            ));
        }
        if let Some(p) = self.retry_budget_percent {
            if p == 0 || p > 100 {
                return Err(format!("retry budget {p}% out of (0, 100]"));
            }
        }
        Ok(())
    }

    /// The per-attempt timeout in nanoseconds.
    pub fn timeout_ns(&self) -> u64 {
        self.timeout_us.saturating_mul(1_000)
    }

    /// Capped exponential backoff before retry `attempt` (1-based):
    /// `min(base · 2^(attempt-1), cap)`, in nanoseconds. A zero base
    /// means immediate retry; a zero cap means uncapped.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        if self.backoff_base_us == 0 {
            return 0;
        }
        let shift = attempt.saturating_sub(1).min(32);
        let mut us = self.backoff_base_us.saturating_mul(1u64 << shift);
        if self.backoff_cap_us > 0 {
            us = us.min(self.backoff_cap_us);
        }
        us.saturating_mul(1_000)
    }
}

/// Hedge duplicates are capped at this percentage of a client's
/// dispatches (Dean & Barroso's safeguard). Without the cap hedges add
/// load, load adds latency, latency fires more hedges.
pub const HEDGE_BUDGET_PERCENT: u64 = 5;

/// Why one attempt of a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptFailure {
    /// A server refused or ejected it.
    Nack(DropReason),
    /// Its per-attempt timeout fired first.
    Timeout,
}

/// Typed terminal failure of a task. Every task ends in exactly one of
/// {completed} ∪ these — the conservation invariant `completed +
/// dropped + shed + timed_out == issued` is test-enforced on both
/// backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFailure {
    /// A required request was tail-dropped or AQM-dropped with no retry
    /// left.
    Dropped,
    /// A required request was shed by admission control with no retry
    /// left.
    Shed,
    /// A required attempt timed out with no retries configured.
    TimedOut,
    /// A required attempt timed out after its retries (or the client's
    /// retry budget) ran out.
    RetriesExhausted,
}

/// What a client does about a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Issue the next attempt after this backoff.
    Retry {
        /// Capped-exponential wait before the next attempt (ns).
        backoff_ns: u64,
    },
    /// The task fails terminally.
    Fail(TaskFailure),
}

/// One client's dispatch counters: what its retry and hedge budgets are
/// measured against. A plain snapshot — the simulator keeps one per
/// client, the live runtime assembles one from its atomics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchBudget {
    /// Originals and retries dispatched — the denominator of both
    /// budgets. Hedge duplicates are *not* counted: a duplicate budget
    /// that grows with the duplicates it admits does not bound them.
    pub dispatched: u64,
    /// Retries issued.
    pub retried: u64,
    /// Hedge duplicates issued.
    pub hedged: u64,
}

impl DispatchBudget {
    /// Retry or fail: the verdict on `attempt` (0 = the original) of a
    /// request that failed for `cause`.
    ///
    /// The attempt is retried when retries are configured, the
    /// per-request cap has room and the client-wide budget is not spent
    /// (`retried · 100 ≥ dispatched · percent` is dry; nothing
    /// dispatched counts as one) — the budget is what keeps a retry
    /// storm from amplifying itself. Otherwise a NACK fails the task as
    /// dropped or shed by the server's reason, and a timeout as timed
    /// out when retries were never configured, else as retries
    /// exhausted.
    pub fn on_attempt_failed(
        &self,
        timeout: Option<&TimeoutConfig>,
        attempt: u32,
        cause: AttemptFailure,
    ) -> Verdict {
        if let Some(tc) = timeout {
            let budget_left = tc
                .retry_budget_percent
                .is_none_or(|p| self.retried * 100 < self.dispatched.max(1) * u64::from(p));
            if attempt < tc.max_retries && budget_left {
                return Verdict::Retry {
                    backoff_ns: tc.backoff_ns(attempt + 1),
                };
            }
        }
        Verdict::Fail(match cause {
            AttemptFailure::Nack(DropReason::Shed) => TaskFailure::Shed,
            AttemptFailure::Nack(DropReason::QueueFull | DropReason::Sojourn) => {
                TaskFailure::Dropped
            }
            AttemptFailure::Timeout if timeout.is_none_or(|tc| tc.max_retries == 0) => {
                TaskFailure::TimedOut
            }
            AttemptFailure::Timeout => TaskFailure::RetriesExhausted,
        })
    }

    /// Whether a request still unanswered `hedge_delay_ns` after
    /// dispatch may be duplicated. Requests *forecast* to take at least
    /// the delay are never hedged: they are intrinsically expensive, not
    /// straggling — their duplicate would be just as slow and, under a
    /// heavy-tailed size distribution, doubling the biggest requests
    /// alone can push the cluster past saturation. And duplicates stay
    /// under [`HEDGE_BUDGET_PERCENT`] of dispatches.
    pub fn can_hedge(&self, forecast_ns: u64, hedge_delay_ns: u64) -> bool {
        forecast_ns < hedge_delay_ns && self.hedged * 100 < self.dispatched * HEDGE_BUDGET_PERCENT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bounded, Priority, PriorityQueue};

    #[test]
    fn tail_drop_fires_at_capacity() {
        let bound = QueueBound::tail_drop(2);
        assert_eq!(bound.admit(0), EnqueueOutcome::Enqueued);
        assert_eq!(bound.admit(1), EnqueueOutcome::Enqueued);
        assert_eq!(
            bound.admit(2),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
        assert_eq!(
            bound.admit(100),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
    }

    #[test]
    fn shed_watermark_fires_before_capacity() {
        let bound = QueueBound {
            capacity: 10,
            shed_above: Some(4),
        };
        assert_eq!(bound.admit(3), EnqueueOutcome::Enqueued);
        assert_eq!(bound.admit(4), EnqueueOutcome::Dropped(DropReason::Shed));
        // Shedding masks the tail drop entirely when the watermark is
        // below capacity — by design, admission control acts first.
        assert_eq!(bound.admit(10), EnqueueOutcome::Dropped(DropReason::Shed));
    }

    #[test]
    fn bound_validation_rejects_nonsense() {
        assert!(QueueBound::tail_drop(0).validate().is_err());
        assert!(QueueBound {
            capacity: 4,
            shed_above: Some(5)
        }
        .validate()
        .is_err());
        assert!(QueueBound {
            capacity: 4,
            shed_above: Some(0)
        }
        .validate()
        .is_err());
        assert!(QueueBound {
            capacity: 4,
            shed_above: Some(4)
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn bounded_queue_reports_typed_outcomes() {
        let mut q: Bounded<PriorityQueue<u32>> = Bounded::with_bound(QueueBound {
            capacity: 2,
            shed_above: None,
        });
        assert_eq!(q.try_push(Priority(1), 10), EnqueueOutcome::Enqueued);
        assert_eq!(q.try_push(Priority(1), 11), EnqueueOutcome::Enqueued);
        assert_eq!(
            q.try_push(Priority(1), 12),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
        assert_eq!(q.0.len(), 2);
        assert_eq!(q.pop::<u32>().unwrap().1, 10);
        assert_eq!(q.try_push(Priority(1), 12), EnqueueOutcome::Enqueued);
    }

    fn timeouts(max_retries: u32, base_us: u64, cap_us: u64, budget: Option<u32>) -> TimeoutConfig {
        TimeoutConfig {
            timeout_us: 1_000,
            max_retries,
            backoff_base_us: base_us,
            backoff_cap_us: cap_us,
            retry_budget_percent: budget,
        }
    }

    #[test]
    fn backoff_curve_table() {
        const TOP: u64 = (1 << 32) * 1_000; // base 1 µs at the saturated shift
        for (base_us, cap_us, attempt, want_ns) in [
            (0, 0, 1, 0), // base 0 ⇒ immediate, at any attempt
            (0, 800, 3, 0),
            (100, 800, 1, 100_000),
            (100, 800, 2, 200_000), // doubling
            (100, 1_000, 3, 400_000),
            (100, 800, 4, 800_000),
            (100, 800, 10, 800_000), // the cap holds
            (100, 1_000, 5, 1_000_000),
            (100, 0, 4, 800_000), // cap 0 ⇒ uncapped
            (100, 0, 5, 1_600_000),
            (1, 0, 32, TOP / 2),
            (1, 0, 33, TOP), // the shift saturates from attempt 33 on
            (1, 0, 34, TOP),
            (1, 0, u32::MAX, TOP),
            (u64::MAX, 0, 2, u64::MAX), // µs doubling saturates
            (u64::MAX / 1_000 + 1, 0, 1, u64::MAX), // µs → ns saturates
        ] {
            let tc = timeouts(16, base_us, cap_us, None);
            assert_eq!(
                tc.backoff_ns(attempt),
                want_ns,
                "base {base_us} cap {cap_us} attempt {attempt}"
            );
        }
    }

    #[test]
    fn retry_gate_and_failure_classification_table() {
        use TaskFailure::{Dropped, RetriesExhausted, Shed, TimedOut};
        let timeout = AttemptFailure::Timeout;
        let full = AttemptFailure::Nack(DropReason::QueueFull);
        let sojourn = AttemptFailure::Nack(DropReason::Sojourn);
        let shed = AttemptFailure::Nack(DropReason::Shed);
        let two = Some(timeouts(2, 100, 800, Some(10)));
        let none = Some(timeouts(0, 0, 0, None));
        // (config, (dispatched, retried), failed attempt, cause) →
        // Ok(next attempt, whose backoff applies) or Err(task failure).
        for (tc, (dispatched, retried), attempt, cause, want) in [
            // Retries left: every cause retries, backing off by attempt.
            (two, (100, 0), 0, full, Ok(1)),
            (two, (100, 0), 1, shed, Ok(2)),
            (two, (100, 0), 0, timeout, Ok(1)),
            // Per-request cap reached: the cause names the failure.
            (two, (100, 0), 2, full, Err(Dropped)),
            (two, (100, 0), 2, sojourn, Err(Dropped)),
            (two, (100, 0), 2, shed, Err(Shed)),
            (two, (100, 0), 2, timeout, Err(RetriesExhausted)),
            // Retries never configured: a timeout is just a timeout.
            (none, (100, 0), 0, timeout, Err(TimedOut)),
            (none, (100, 0), 0, shed, Err(Shed)),
            (None, (100, 0), 0, timeout, Err(TimedOut)),
            (None, (100, 0), 0, full, Err(Dropped)),
            // The 10 % budget: retried·100 == dispatched·10 is dry.
            (two, (51, 5), 0, timeout, Ok(1)),
            (two, (50, 5), 0, timeout, Err(RetriesExhausted)),
            (two, (50, 5), 0, shed, Err(Shed)),
            // Nothing dispatched yet counts as one dispatch.
            (two, (0, 0), 0, timeout, Ok(1)),
            (two, (0, 1), 0, timeout, Err(RetriesExhausted)),
            (two, (1, 1), 0, timeout, Err(RetriesExhausted)),
        ] {
            let budget = DispatchBudget {
                dispatched,
                retried,
                hedged: 0,
            };
            let want = match want {
                Ok(next) => Verdict::Retry {
                    backoff_ns: tc.unwrap().backoff_ns(next),
                },
                Err(failure) => Verdict::Fail(failure),
            };
            assert_eq!(
                budget.on_attempt_failed(tc.as_ref(), attempt, cause),
                want,
                "{tc:?} {budget:?} attempt {attempt} {cause:?}"
            );
        }
    }

    #[test]
    fn hedge_gate_table() {
        for (dispatched, hedged, forecast_ns, delay_ns, want) in [
            (100, 4, 999, 1_000, true),
            (100, 5, 999, 1_000, false),   // exactly 5 % is spent
            (100, 0, 1_000, 1_000, false), // forecast ≥ delay: slow, not straggling
            (1, 0, 0, 1_000, true),        // the first hedge of a client always fits
            (0, 0, 0, 1_000, false),
            (20, 1, 0, 1_000, false), // hedges are not in their own denominator
            (21, 1, 0, 1_000, true),
        ] {
            let budget = DispatchBudget {
                dispatched,
                retried: 0,
                hedged,
            };
            assert_eq!(
                budget.can_hedge(forecast_ns, delay_ns),
                want,
                "{budget:?} forecast {forecast_ns} delay {delay_ns}"
            );
        }
    }

    #[test]
    fn codel_never_drops_below_target() {
        let mut c = CoDel::new(CoDelConfig {
            target_ns: 5_000_000,
            interval_ns: 100_000_000,
        });
        let mut now = 0;
        for _ in 0..1_000 {
            now += 1_000_000;
            assert!(!c.on_dequeue(now, 4_999_999));
        }
        assert_eq!(c.total_dropped(), 0);
    }

    #[test]
    fn codel_waits_one_interval_then_drops() {
        let cfg = CoDelConfig {
            target_ns: 5_000_000,
            interval_ns: 100_000_000,
        };
        let mut c = CoDel::new(cfg);
        // Sojourn rises above target at t=0: no drop for one interval.
        assert!(!c.on_dequeue(0, 10_000_000));
        assert!(!c.on_dequeue(50_000_000, 10_000_000));
        // A full interval above target: dropping starts.
        assert!(c.on_dequeue(100_000_000, 10_000_000));
    }

    #[test]
    fn codel_drop_cadence_shrinks_with_inverse_sqrt() {
        assert_eq!(control_law(100, 1), 100);
        assert_eq!(control_law(100, 4), 50);
        assert_eq!(control_law(100, 16), 25);
        // Never zero, even at absurd counts.
        assert_eq!(control_law(1, u32::MAX), 1);
    }

    #[test]
    fn codel_sustained_overload_drops_faster_and_faster() {
        let cfg = CoDelConfig {
            target_ns: 1_000,
            interval_ns: 1_000_000,
        };
        let mut c = CoDel::new(cfg);
        let mut now = 0u64;
        let mut drop_times = Vec::new();
        // Inspect a dequeue every 10µs with sojourn stuck above target.
        for _ in 0..2_000 {
            now += 10_000;
            if c.on_dequeue(now, 50_000) {
                drop_times.push(now);
            }
        }
        assert!(drop_times.len() >= 4, "only {} drops", drop_times.len());
        // Gaps between consecutive drops must not grow: the control law
        // tightens the cadence as the episode persists.
        let gaps: Vec<u64> = drop_times.windows(2).map(|w| w[1] - w[0]).collect();
        for w in gaps.windows(2) {
            assert!(w[1] <= w[0], "drop cadence widened: {gaps:?}");
        }
        assert_eq!(c.total_dropped(), drop_times.len() as u64);
    }

    #[test]
    fn codel_recovers_when_queue_drains() {
        let cfg = CoDelConfig {
            target_ns: 1_000,
            interval_ns: 1_000_000,
        };
        let mut c = CoDel::new(cfg);
        let mut now = 0u64;
        let mut dropped_any = false;
        for _ in 0..500 {
            now += 10_000;
            dropped_any |= c.on_dequeue(now, 50_000);
        }
        assert!(dropped_any, "sustained overload must drop");
        // One below-target sojourn exits the dropping state…
        assert!(!c.on_dequeue(now + 10_000, 500));
        let before = c.total_dropped();
        // …and the next excursion gets a fresh full-interval grace.
        for i in 0..50 {
            let t = now + 20_000 + i * 10_000;
            assert!(
                !c.on_dequeue(t, 50_000) || t >= now + 20_000 + cfg.interval_ns,
                "dropped before the grace interval elapsed"
            );
        }
        assert!(c.total_dropped() >= before);
    }
}
