//! The live-runtime timed sections.
//!
//! `rt-steady` / `rt-overload` go through the product's own path
//! (`rt_backend::run_spec_rt` + `write_jsonl`), so from outside there
//! is one span around each; what they cost inside comes from the report
//! fields and `/proc`. `rt-floor` is the benchmark's own closed loop
//! over `RtClient`, so every phase and every call gets timed.

use crate::host;
use crate::spans::Recorder;
use crate::specs::FloorSpec;
use brb_lab::report::write_jsonl;
use brb_lab::rt_backend::run_spec_rt;
use brb_lab::{CellResult, ScenarioSpec};
use brb_metrics::Histogram;
use brb_rt::{RtCluster, RtClusterConfig, TaskOutcome, TaskTicket, WorkModel};
use brb_sched::PolicyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Instant;

/// One `run_spec_rt` + `write_jsonl` section.
#[derive(Debug)]
pub struct RtReportOutput {
    pub results: Vec<CellResult>,
    pub report: Vec<u8>,
    /// Process CPU seconds the section consumed.
    pub cpu_s: f64,
}

/// The open-loop report path; identical traced or not, apart from the
/// two spans.
pub fn run_report(spec: &ScenarioSpec, rec: &mut Recorder) -> Result<RtReportOutput, String> {
    let cpu_before = host::cpu_seconds();
    let results = rec
        .span("rt.run_spec_rt", |_| run_spec_rt(spec))
        .map_err(|e| e.to_string())?;
    let report = rec
        .span("lab.report_write", |_| {
            let mut buf = Vec::new();
            write_jsonl(spec, &results, &mut buf).map(|()| buf)
        })
        .map_err(|e| e.to_string())?;
    Ok(RtReportOutput {
        results,
        report,
        cpu_s: host::cpu_seconds() - cpu_before,
    })
}

/// `rt-floor`'s inputs, generated from the seed before anything is
/// timed: the runtime receives keys, never the seed.
#[derive(Debug)]
pub struct FloorInputs {
    /// `tasks × fanout` keys, task-major.
    keys: Vec<u64>,
    fanout: usize,
}

impl FloorInputs {
    pub fn generate(spec: &FloorSpec) -> FloorInputs {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        FloorInputs {
            keys: (0..spec.tasks * spec.fanout)
                .map(|_| rng.random_range(0..spec.num_keys))
                .collect(),
            fanout: spec.fanout,
        }
    }

    fn task(&self, i: usize) -> &[u64] {
        &self.keys[i * self.fanout..(i + 1) * self.fanout]
    }

    fn tasks(&self) -> usize {
        self.keys.len() / self.fanout
    }
}

/// Per-call timings a traced `rt-floor` section records (nanoseconds).
#[derive(Debug)]
pub struct FloorTimings {
    /// Inside `RtClient::fetch_async`.
    pub submit_ns: Histogram,
    /// Blocked in `TaskTicket::wait_outcome`.
    pub wait_ns: Histogram,
    /// `TaskResponse.request_ns`: submit → response send, per request.
    pub request_ns: Histogram,
}

impl FloorTimings {
    pub fn new() -> FloorTimings {
        // 1 ns floor: a submit is a few microseconds.
        let fine = || Histogram::new(1, 100_000_000_000, 3);
        FloorTimings {
            submit_ns: fine(),
            wait_ns: fine(),
            request_ns: fine(),
        }
    }
}

/// What one `rt-floor` section measured.
#[derive(Debug)]
pub struct FloorOutput {
    pub issued: u64,
    pub completed: u64,
    /// Tasks whose values did not have the populated sizes.
    pub wrong_values: u64,
    pub requests: u64,
    /// Wall-clock task latency from submit, nanoseconds.
    pub task_ns: Histogram,
    /// Seconds in the closed loop (first submit → last reply).
    pub load_s: f64,
    pub load_cpu_s: f64,
    pub load_ctx_switches: u64,
    pub served_per_server: Vec<u64>,
}

/// Collects one ticket: latency, completion, and the value-size check.
fn collect(
    ticket: TaskTicket,
    keys: &[u64],
    cluster: &RtCluster,
    out: &mut FloorOutput,
    timings: &mut Option<&mut FloorTimings>,
) -> Result<(), String> {
    let started = timings.is_some().then(Instant::now);
    let resolution = ticket.wait_outcome().map_err(|e| e.to_string())?;
    if let (Some(t), Some(started)) = (timings.as_deref_mut(), started) {
        t.wait_ns.record(started.elapsed().as_nanos() as u64);
    }
    let TaskOutcome::Completed(resp) = resolution.outcome else {
        return Ok(()); // counted as issued but not completed
    };
    out.completed += 1;
    out.requests += resp.request_ns.len() as u64;
    out.task_ns.record(resp.latency.as_nanos() as u64);
    let sizes = cluster.size_model();
    let values_ok = resp.values.len() == keys.len()
        && resp.values.iter().zip(keys).all(|(v, &k)| {
            v.as_ref()
                .is_some_and(|bytes| bytes.len() as u64 == sizes.size_of(k).max(1))
        });
    if !values_ok {
        out.wrong_values += 1;
    }
    if let Some(t) = timings.as_deref_mut() {
        for &ns in &resp.request_ns {
            t.request_ns.record(ns);
        }
    }
    Ok(())
}

/// One `rt-floor` timed section: start a cluster, populate it, run the
/// closed loop (a new task is submitted only when the oldest in-flight
/// one has replied — it measures capacity, so the next task waits for a
/// reply), shut down. `timings` is `Some` on traced sections only.
pub fn run_floor(
    spec: &FloorSpec,
    inputs: &FloorInputs,
    rec: &mut Recorder,
    mut timings: Option<&mut FloorTimings>,
) -> Result<FloorOutput, String> {
    let cluster = rec.span("rt.cluster_start", |_| {
        RtCluster::start(RtClusterConfig {
            num_servers: spec.num_servers,
            workers_per_server: spec.workers_per_server,
            replication: spec.replication,
            policy: PolicyKind::EqualMax,
            work: WorkModel::Instant,
            ..Default::default()
        })
    });
    rec.span("rt.populate", |_| cluster.populate_etc(spec.num_keys));
    let client = cluster.client_seeded(spec.seed);
    let mut out = FloorOutput {
        issued: inputs.tasks() as u64,
        completed: 0,
        wrong_values: 0,
        requests: 0,
        task_ns: Histogram::for_latency_ns(),
        load_s: 0.0,
        load_cpu_s: 0.0,
        load_ctx_switches: 0,
        served_per_server: Vec::new(),
    };
    let cpu_before = host::cpu_seconds();
    let ctx_before = host::context_switches();
    let loaded = rec.span("rt.load", |_| -> Result<f64, String> {
        let started = Instant::now();
        let mut inflight: VecDeque<(TaskTicket, usize)> = VecDeque::with_capacity(spec.window);
        for i in 0..inputs.tasks() {
            let submit = timings.is_some().then(Instant::now);
            let ticket = client.fetch_async(inputs.task(i));
            if let (Some(t), Some(submit)) = (timings.as_deref_mut(), submit) {
                t.submit_ns.record(submit.elapsed().as_nanos() as u64);
            }
            inflight.push_back((ticket, i));
            if inflight.len() >= spec.window {
                let (ticket, j) = inflight.pop_front().expect("non-empty window");
                collect(ticket, inputs.task(j), &cluster, &mut out, &mut timings)?;
            }
        }
        for (ticket, j) in inflight {
            collect(ticket, inputs.task(j), &cluster, &mut out, &mut timings)?;
        }
        Ok(started.elapsed().as_secs_f64())
    });
    // Thread counters must be read while the threads are still alive.
    out.load_ctx_switches = host::context_switches() - ctx_before;
    out.load_cpu_s = host::cpu_seconds() - cpu_before;
    out.served_per_server = cluster.served_per_server();
    let shutdown = rec.span("rt.shutdown", |_| cluster.shutdown_checked());
    out.load_s = loaded?;
    shutdown.map_err(|e| e.to_string())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::ROOT;

    #[test]
    fn floor_loop_completes_every_task_with_populated_values() {
        let spec = FloorSpec::committed().unwrap().with_tasks(200);
        let inputs = FloorInputs::generate(&spec);
        assert_eq!(inputs.tasks(), 200);
        let mut rec = Recorder::new(true);
        let mut timings = FloorTimings::new();
        let out = rec
            .span(ROOT, |rec| {
                run_floor(&spec, &inputs, rec, Some(&mut timings))
            })
            .unwrap();
        assert_eq!((out.issued, out.completed, out.wrong_values), (200, 200, 0));
        assert_eq!(out.requests, 200 * spec.fanout as u64);
        assert_eq!(out.task_ns.len(), 200);
        assert_eq!(timings.submit_ns.len(), 200);
        assert_eq!(timings.wait_ns.len(), 200);
        assert_eq!(timings.request_ns.len(), out.requests);
        assert_eq!(out.served_per_server.iter().sum::<u64>(), out.requests);
        // Same seed, same inputs.
        assert_eq!(FloorInputs::generate(&spec).keys, inputs.keys);
    }
}
