//! Message types and the in-process transport.
//!
//! A request goes straight into its server's priority queue, pushed by
//! the submitting thread (`ServerShared::submit`); replies return over
//! a per-task channel. A reply is either a served [`RtResponse`] or a
//! typed [`RtNack`] — the overload lane's drop/shed notice, so a
//! bounded server queue can refuse work without silently stranding the
//! client. An [`RtCancel`] (the hedging lane's duplicate purge) is a
//! call too: it de-queues a still-queued request in place; a request
//! already in service completes normally and the client discards the
//! duplicate reply. Payloads are [`bytes::Bytes`] so values move by
//! reference count, never by copy.

use brb_sched::overload::DropReason;
use brb_sched::Priority;
use brb_store::ids::GroupId;
use bytes::Bytes;
use crossbeam::channel::Sender;
use std::time::Instant;

/// Identifies one dispatched attempt to retract (hedged duplication's
/// purge-on-first-win). Matches on the full `(task_id, req_idx,
/// attempt)` triple so a cancel can never remove a retry or another
/// task's request by accident. Races are benign: a cancel for an
/// attempt already popped removes nothing, and it can never run before
/// its request's `submit` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtCancel {
    /// Task id of the attempt to retract.
    pub task_id: u64,
    /// Task-local request index of the attempt.
    pub req_idx: u32,
    /// Attempt number of the attempt.
    pub attempt: u32,
}

/// A read request submitted to a server.
#[derive(Debug)]
pub struct RtRequest {
    /// The key to read.
    pub key: u64,
    /// Replica group of the key: where the global queue files it.
    pub group: GroupId,
    /// Scheduling priority (lower serves first).
    pub priority: Priority,
    /// Task-local request index, echoed in the reply.
    pub req_idx: u32,
    /// Task id, echoed in the reply.
    pub task_id: u64,
    /// Attempt number of this logical request (0 = original; each retry
    /// gets a fresh attempt id, so stale replies are distinguishable).
    pub attempt: u32,
    /// When the client submitted it (for latency accounting).
    pub submitted: Instant,
    /// Where to deliver the reply.
    pub reply: Sender<RtReply>,
}

/// What a server sends back for one request: served data or a typed
/// refusal.
#[derive(Debug)]
pub enum RtReply {
    /// The request was served.
    Served(RtResponse),
    /// The request was dropped or shed by the overload lane.
    Nack(RtNack),
}

/// A server's response to one served request.
#[derive(Debug)]
pub struct RtResponse {
    /// The requested key.
    pub key: u64,
    /// Task-local request index from the request.
    pub req_idx: u32,
    /// Task id from the request.
    pub task_id: u64,
    /// Attempt number from the request.
    pub attempt: u32,
    /// The value, or `None` if the key is unknown.
    pub value: Option<Bytes>,
    /// Which server served it.
    pub server: u32,
    /// Queue length observed when the response left (piggyback feedback,
    /// as in C3; maintained by an atomic counter, so reading it costs no
    /// queue lock).
    pub queue_len: usize,
    /// Wall-clock service latency, nanoseconds (queue wait excluded).
    pub service_ns: u64,
    /// Wall-clock total latency, nanoseconds (submit → response send).
    pub total_ns: u64,
    /// The instant the server finished this request. Task latency is
    /// computed from the *latest* `completed` of a task's responses, so
    /// a client that drains its tickets late (the open-loop generator
    /// collecting after the submission schedule ends) records the true
    /// completion time, not the drain time.
    pub completed: Instant,
}

/// A drop/shed notice for one request attempt. Carries the attempt id
/// so the client can tell a NACK for its *current* attempt (retry or
/// fail) from one for an attempt a retry already superseded (accounting
/// only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtNack {
    /// The requested key.
    pub key: u64,
    /// Task-local request index from the request.
    pub req_idx: u32,
    /// Task id from the request.
    pub task_id: u64,
    /// Attempt number from the request.
    pub attempt: u32,
    /// Which server refused it.
    pub server: u32,
    /// Which overload mechanism refused it (tail-drop, shed, or CoDel
    /// sojourn).
    pub reason: DropReason,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn request_round_trips_over_channels() {
        let (tx, rx) = unbounded();
        let req = RtRequest {
            key: 7,
            group: GroupId::new(0),
            priority: Priority(3),
            req_idx: 0,
            task_id: 1,
            attempt: 0,
            submitted: Instant::now(),
            reply: tx,
        };
        // Simulate a server answering.
        req.reply
            .send(RtReply::Served(RtResponse {
                key: req.key,
                req_idx: req.req_idx,
                task_id: req.task_id,
                attempt: req.attempt,
                value: Some(Bytes::from_static(b"v")),
                server: 0,
                queue_len: 0,
                service_ns: 10,
                total_ns: 20,
                completed: Instant::now(),
            }))
            .unwrap();
        let RtReply::Served(resp) = rx.recv().unwrap() else {
            panic!("expected a served response");
        };
        assert_eq!(resp.key, 7);
        assert_eq!(resp.task_id, 1);
        assert_eq!(resp.value.unwrap(), Bytes::from_static(b"v"));
    }

    #[test]
    fn nack_carries_attempt_and_reason() {
        let (tx, rx) = unbounded();
        let req = RtRequest {
            key: 3,
            group: GroupId::new(0),
            priority: Priority(1),
            req_idx: 2,
            task_id: 5,
            attempt: 1,
            submitted: Instant::now(),
            reply: tx,
        };
        req.reply
            .send(RtReply::Nack(RtNack {
                key: req.key,
                req_idx: req.req_idx,
                task_id: req.task_id,
                attempt: req.attempt,
                server: 4,
                reason: DropReason::Shed,
            }))
            .unwrap();
        let RtReply::Nack(nack) = rx.recv().unwrap() else {
            panic!("expected a NACK");
        };
        assert_eq!(nack.attempt, 1);
        assert_eq!(nack.reason, DropReason::Shed);
    }
}
