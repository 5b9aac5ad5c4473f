//! Figure 1: the worked example showing why task-aware scheduling wins.
//!
//! Setup (verbatim from the paper): clients C1 and C2 issue tasks
//! `T1 = [A, B, C]` and `T2 = [D, E]`. The replica placement routes
//! `A, E → S1`, `B, C → S2`, `D → S3`; every operation costs one time
//! unit and each server serves one operation per unit.
//!
//! * **Task-oblivious** (FIFO, T1's requests enqueue first): S1 serves
//!   A then E, so T2 completes at *2* time units.
//! * **Task-aware** (optimal): T1's bottleneck is the sub-task {B, C}
//!   (cost 2), so A has a unit of slack; serving E before A leaves T1's
//!   completion unchanged at 2 and T2 completes at *1*.
//!
//! Both of BRB's policies find the optimal schedule here: EqualMax ranks
//! all of T2 above T1 (bottleneck 1 < 2); UnifIncr gives E zero slack
//! versus A's one unit.

use brb_sched::{PolicyKind, PriorityPolicy, PriorityQueue, RequestQueue, TaskView};

/// One operation of the example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    /// Label ('A'..'E').
    label: char,
    /// Owning task (1 or 2).
    task: u8,
    /// Destination server (0-based: S1=0, S2=1, S3=2).
    server: usize,
}

const OPS: [Op; 5] = [
    Op {
        label: 'A',
        task: 1,
        server: 0,
    },
    Op {
        label: 'B',
        task: 1,
        server: 1,
    },
    Op {
        label: 'C',
        task: 1,
        server: 1,
    },
    Op {
        label: 'D',
        task: 2,
        server: 2,
    },
    Op {
        label: 'E',
        task: 2,
        server: 0,
    },
];

/// The outcome of scheduling the example under one policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure1Outcome {
    /// Completion time of T1, in time units.
    pub t1_completion: u32,
    /// Completion time of T2, in time units.
    pub t2_completion: u32,
    /// Per-server timelines, e.g. `S1: [A, E]`.
    pub timelines: Vec<String>,
}

/// Schedules the example under `policy` and returns completions plus an
/// ASCII rendering. The priorities for T1/T2 are computed through the real
/// [`PolicyKind`] implementations; servers run stable priority queues.
pub fn run_figure1(policy: PolicyKind) -> Figure1Outcome {
    // Per-task views. Unit cost = 1 per op.
    // T1: sub-tasks {A}→S1 (cost 1), {B,C}→S2 (cost 2).
    let t1 = TaskView {
        arrival_ns: 0,
        request_costs: &[1, 1, 1],
        request_subtask: &[0, 1, 1],
        subtask_costs: &[1, 2],
    };
    // T2: sub-tasks {D}→S3, {E}→S1.
    let t2 = TaskView {
        arrival_ns: 0,
        request_costs: &[1, 1],
        request_subtask: &[0, 1],
        subtask_costs: &[1, 1],
    };
    let p1 = policy.assign(&t1);
    let p2 = policy.assign(&t2);
    // Priorities per op, in OPS order (A,B,C from T1; D,E from T2). For
    // FIFO both tasks share arrival time, so insertion order (T1 first,
    // matching the paper's "task-oblivious" scenario) decides.
    let prio = [p1[0], p1[1], p1[2], p2[0], p2[1]];

    // Three single-core servers with stable priority queues.
    let mut queues: Vec<PriorityQueue<Op>> = (0..3).map(|_| PriorityQueue::new()).collect();
    for (op, p) in OPS.iter().zip(prio) {
        queues[op.server].push(p, *op);
    }

    let mut timelines = Vec::new();
    let mut t1_completion = 0u32;
    let mut t2_completion = 0u32;
    for (s, q) in queues.iter_mut().enumerate() {
        let mut cells = Vec::new();
        let mut t = 0u32;
        while let Some((_, op)) = q.pop() {
            t += 1; // unit service
            cells.push(op.label.to_string());
            if op.task == 1 {
                t1_completion = t1_completion.max(t);
            } else {
                t2_completion = t2_completion.max(t);
            }
        }
        timelines.push(format!("S{}: [{}]", s + 1, cells.join(", ")));
    }
    Figure1Outcome {
        t1_completion,
        t2_completion,
        timelines,
    }
}

/// Renders the full Figure 1 comparison (oblivious vs both BRB policies).
pub fn render_figure1() -> String {
    let mut out = String::new();
    out.push_str("Figure 1 — T1=[A,B,C], T2=[D,E]; A,E->S1  B,C->S2  D->S3; unit costs\n\n");
    for (name, policy) in [
        ("Task-oblivious (FIFO)", PolicyKind::Fifo),
        ("BRB EqualMax", PolicyKind::EqualMax),
        ("BRB UnifIncr", PolicyKind::UnifIncr),
    ] {
        let o = run_figure1(policy);
        out.push_str(&format!("{name}:\n"));
        for line in &o.timelines {
            out.push_str(&format!("  {line}\n"));
        }
        out.push_str(&format!(
            "  T1 completes at {}; T2 completes at {}\n\n",
            o.t1_completion, o.t2_completion
        ));
    }
    out.push_str(
        "Paper's point: the oblivious schedule delays T2 to 2 units; the\n\
         task-aware schedule serves E before A (A has slack behind T1's\n\
         bottleneck {B,C}), completing T2 in 1 unit at no cost to T1.\n",
    );
    out
}

/// Asserts the exact claims the figure makes. Used by
/// `tests/figure1_schedule.rs` and the `figure1_walkthrough` example.
pub fn verify_figure1() -> Result<(), String> {
    let oblivious = run_figure1(PolicyKind::Fifo);
    if oblivious.t2_completion != 2 || oblivious.t1_completion != 2 {
        return Err(format!("oblivious schedule wrong: {oblivious:?}"));
    }
    for policy in [PolicyKind::EqualMax, PolicyKind::UnifIncr] {
        let optimal = run_figure1(policy);
        if optimal.t2_completion != 1 || optimal.t1_completion != 2 {
            return Err(format!(
                "{policy:?} failed to find the optimum: {optimal:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_claims_hold_exactly() {
        verify_figure1().expect("figure 1 reproduction");
    }

    #[test]
    fn oblivious_serves_a_before_e() {
        let o = run_figure1(PolicyKind::Fifo);
        assert_eq!(o.timelines[0], "S1: [A, E]");
    }

    #[test]
    fn task_aware_serves_e_before_a() {
        for policy in [PolicyKind::EqualMax, PolicyKind::UnifIncr] {
            let o = run_figure1(policy);
            assert_eq!(o.timelines[0], "S1: [E, A]", "{policy:?}");
        }
    }

    #[test]
    fn render_mentions_both_schedules() {
        let s = render_figure1();
        assert!(s.contains("Task-oblivious"));
        assert!(s.contains("EqualMax"));
        assert!(s.contains("T2 completes at 1"));
        assert!(s.contains("T2 completes at 2"));
    }
}
