//! Serializable traces and their summary statistics.
//!
//! A [`Trace`] freezes a generated workload so an experiment can be
//! replayed byte-identically, compared across policies under common random
//! numbers, or inspected offline. Serialization is line-delimited JSON
//! (one task per line) so half-million-task traces stream without
//! buffering the whole file.

use crate::taskgen::TaskSpec;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// A frozen workload: tasks ordered by arrival time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Trace {
    /// Tasks in non-decreasing arrival order.
    pub tasks: Vec<TaskSpec>,
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of tasks.
    pub num_tasks: u64,
    /// Total requests across tasks.
    pub num_requests: u64,
    /// Mean fan-out (requests per task).
    pub mean_fanout: f64,
    /// Largest fan-out in the trace.
    pub max_fanout: u32,
    /// Mean value size in bytes.
    pub mean_value_bytes: f64,
    /// Largest value size in bytes.
    pub max_value_bytes: u64,
    /// Trace duration (first to last arrival), nanoseconds.
    pub duration_ns: u64,
    /// Mean task arrival rate over the trace duration (tasks/second).
    pub task_rate_per_sec: f64,
}

impl Trace {
    /// Wraps a task list.
    ///
    /// # Panics
    /// Debug-asserts arrival order.
    pub fn new(tasks: Vec<TaskSpec>) -> Self {
        debug_assert!(
            tasks.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns),
            "tasks must be ordered by arrival"
        );
        Trace { tasks }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Computes summary statistics; `None` for an empty trace.
    pub fn stats(&self) -> Option<TraceStats> {
        if self.tasks.is_empty() {
            return None;
        }
        let num_tasks = self.tasks.len() as u64;
        let num_requests: u64 = self.tasks.iter().map(|t| t.requests.len() as u64).sum();
        let max_fanout = self
            .tasks
            .iter()
            .map(|t| t.requests.len() as u32)
            .max()
            .unwrap_or(0);
        let total_bytes: u64 = self.tasks.iter().map(|t| t.total_bytes()).sum();
        let max_value_bytes = self
            .tasks
            .iter()
            .flat_map(|t| t.requests.iter().map(|r| r.value_bytes))
            .max()
            .unwrap_or(0);
        let first = self.tasks.first().unwrap().arrival_ns;
        let last = self.tasks.last().unwrap().arrival_ns;
        let duration_ns = last.saturating_sub(first);
        let task_rate_per_sec = if duration_ns == 0 {
            0.0
        } else {
            (num_tasks - 1) as f64 / (duration_ns as f64 / 1e9)
        };
        Some(TraceStats {
            num_tasks,
            num_requests,
            mean_fanout: num_requests as f64 / num_tasks as f64,
            max_fanout,
            mean_value_bytes: total_bytes as f64 / num_requests as f64,
            max_value_bytes,
            duration_ns,
            task_rate_per_sec,
        })
    }

    /// Writes the trace as JSON Lines (one task per line).
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for task in &self.tasks {
            serde_json::to_writer(&mut w, task)?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Reads a trace from JSON Lines, validating arrival order and each
    /// task's [`TaskSpec::check_limits`]: at least one and at most
    /// [`crate::MAX_TASK_REQUESTS`] requests, none of them larger than
    /// [`crate::MAX_VALUE_BYTES`], and that there is at least one task.
    /// Every failure is an `InvalidData` error, naming the line where
    /// there is one; an `Ok` trace is one the engine can replay.
    pub fn read_jsonl<R: BufRead>(r: R) -> io::Result<Trace> {
        let mut tasks = Vec::new();
        let mut prev_arrival = 0u64;
        for (lineno, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let task: TaskSpec = serde_json::from_str(&line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: {e}", lineno + 1),
                )
            })?;
            let invalid = |what: &str| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: {what}", lineno + 1),
                )
            };
            task.check_limits().map_err(|what| invalid(&what))?;
            if task.arrival_ns < prev_arrival {
                return Err(invalid("arrivals out of order"));
            }
            prev_arrival = task.arrival_ns;
            tasks.push(task);
        }
        if tasks.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trace has no tasks",
            ));
        }
        Ok(Trace { tasks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::FanoutDist;
    use crate::keyspace::{KeySpace, Popularity};
    use crate::poisson::PoissonProcess;
    use crate::taskgen::{RequestSpec, SizeModel, TaskGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_trace(n: usize) -> Trace {
        let mut g = TaskGenerator::new(
            PoissonProcess::new(1_000.0),
            FanoutDist::soundcloud_like(),
            KeySpace::new(10_000, Popularity::Zipf(0.9)),
            SizeModel::facebook_etc(),
            StdRng::seed_from_u64(21),
        );
        Trace::new(g.take(n))
    }

    #[test]
    fn stats_reflect_generator_parameters() {
        let t = small_trace(5_000);
        let s = t.stats().unwrap();
        assert_eq!(s.num_tasks, 5_000);
        assert!((s.mean_fanout - 8.6).abs() < 0.6, "{}", s.mean_fanout);
        assert!((s.task_rate_per_sec - 1_000.0).abs() / 1_000.0 < 0.1);
        assert!(s.mean_value_bytes > 100.0 && s.mean_value_bytes < 1_000.0);
        assert!(s.max_fanout >= 32);
    }

    #[test]
    fn empty_trace_has_no_stats() {
        assert!(Trace::default().stats().is_none());
        assert!(Trace::default().is_empty());
    }

    #[test]
    fn jsonl_round_trips() {
        let t = small_trace(200);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn jsonl_rejects_garbage_and_disorder() {
        let garbage = b"not json\n";
        assert!(Trace::read_jsonl(&garbage[..]).is_err());

        let t1 = r#"{"id":0,"arrival_ns":100,"requests":[{"key":1,"value_bytes":10}]}"#;
        let t0 = r#"{"id":1,"arrival_ns":50,"requests":[{"key":2,"value_bytes":10}]}"#;
        let out_of_order = format!("{t1}\n{t0}\n");
        let err = Trace::read_jsonl(out_of_order.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of order"));
    }

    #[test]
    fn jsonl_rejects_a_task_without_requests() {
        let t0 = r#"{"id":0,"arrival_ns":1,"requests":[{"key":1,"value_bytes":2}]}"#;
        let empty = r#"{"id":1,"arrival_ns":2,"requests":[]}"#;
        let err = Trace::read_jsonl(format!("{t0}\n{empty}\n").as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 2: task has no requests");
    }

    /// One task line with `n` requests of `bytes` each.
    fn task_line(arrival_ns: u64, n: usize, bytes: u64) -> String {
        let requests = (0..n as u64)
            .map(|key| RequestSpec {
                key,
                value_bytes: bytes,
            })
            .collect();
        let task = TaskSpec {
            id: 0,
            arrival_ns,
            requests,
        };
        serde_json::to_string(&task).unwrap()
    }

    #[test]
    fn jsonl_enforces_the_request_and_size_limits() {
        let ok = task_line(1, 1, 2);
        let at_limits = task_line(2, crate::MAX_TASK_REQUESTS, crate::MAX_VALUE_BYTES);
        let t = Trace::read_jsonl(format!("{ok}\n{at_limits}\n").as_bytes()).unwrap();
        assert_eq!(t.tasks[1].fanout(), crate::MAX_TASK_REQUESTS);

        let too_many = task_line(2, crate::MAX_TASK_REQUESTS + 1, 2);
        let err = Trace::read_jsonl(format!("{ok}\n{too_many}\n").as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "line 2: task has 65536 requests, more than the limit of 65535"
        );

        let too_big = task_line(2, 1, crate::MAX_VALUE_BYTES + 1);
        let err = Trace::read_jsonl(format!("{ok}\n\n{too_big}\n").as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "line 3: key 0 has a 4294967296-byte value, more than the limit of 4294967295"
        );
    }

    #[test]
    fn jsonl_rejects_a_trace_without_tasks() {
        for text in ["", "\n\n  \n"] {
            let err = Trace::read_jsonl(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), "trace has no tasks");
        }
    }

    #[test]
    fn jsonl_skips_blank_lines() {
        let line = r#"{"id":0,"arrival_ns":1,"requests":[{"key":1,"value_bytes":2}]}"#;
        let text = format!("\n{line}\n\n");
        let t = Trace::read_jsonl(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn single_task_trace_stats() {
        let line = r#"{"id":0,"arrival_ns":5,"requests":[{"key":1,"value_bytes":100}]}"#;
        let t = Trace::read_jsonl(line.as_bytes()).unwrap();
        let s = t.stats().unwrap();
        assert_eq!(s.num_tasks, 1);
        assert_eq!(s.duration_ns, 0);
        assert_eq!(s.task_rate_per_sec, 0.0);
        assert_eq!(s.mean_value_bytes, 100.0);
    }
}
