//! Seeded mutation fuzzing of the trace reader, the replay path's
//! external input: byte flips, byte and digit rewrites, truncations and
//! duplicated, swapped or deleted lines of a valid trace. Every mutant
//! must end in `Ok` or an `InvalidData` error — never a panic — and
//! every `Ok` trace must be one `EngineWorld::with_trace` accepts,
//! request-count and value-size bounds included.

use brb::core::config::Strategy;
use brb::core::engine::EngineWorld;
use brb::lab::registry;
use brb::workload::keyspace::{KeySpace, Popularity};
use brb::workload::taskgen::SizeModel;
use brb::workload::{
    FanoutDist, PoissonProcess, RequestSpec, TaskGenerator, TaskSpec, Trace, MAX_VALUE_BYTES,
};
use proptest::collection::vec;
use proptest::strategy::Strategy as _;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;

mod mutation;
use mutation::mutate;

/// A valid trace whose last task's values sit on the size limit, so a
/// digit flip in one of them can step over it.
fn base_trace() -> Vec<u8> {
    let mut gen = TaskGenerator::new(
        PoissonProcess::new(1_000.0),
        FanoutDist::soundcloud_like(),
        KeySpace::new(1_000, Popularity::Zipf(0.9)),
        SizeModel::facebook_etc(),
        StdRng::seed_from_u64(5),
    );
    let mut tasks = gen.take(6);
    let last = tasks.last().map_or(0, |t| t.arrival_ns);
    tasks.push(TaskSpec {
        id: 6,
        arrival_ns: last + 1,
        requests: (0..8)
            .map(|key| RequestSpec {
                key,
                value_bytes: MAX_VALUE_BYTES,
            })
            .collect(),
    });
    let mut buf = Vec::new();
    Trace::new(tasks).write_jsonl(&mut buf).unwrap();
    buf
}

#[test]
fn mutated_traces_read_cleanly_and_replay() {
    let base = base_trace();
    let cfg = registry::builder("figure2-small")
        .expect("registry preset")
        .tasks(100)
        .build_config(Strategy::equal_max_credits(), 1)
        .expect("valid scenario");
    let mutations = vec((0u8..7, 0usize..1 << 20, 0usize..1 << 20), 1..4);
    let mut rng = proptest::test_rng("trace_fuzz::mutated_traces_read_cleanly_and_replay");
    let (mut ok, mut rejected, mut over_limit) = (0, 0, 0);
    for case in 0..3_000 {
        let plan = mutations.gen_value(&mut rng);
        let mut bytes = base.clone();
        for &m in &plan {
            mutate(&mut bytes, m);
        }
        match Trace::read_jsonl(bytes.as_slice()) {
            Ok(trace) => {
                ok += 1;
                let _ = trace.stats();
                let _ = EngineWorld::with_trace(cfg.clone(), trace.tasks);
            }
            Err(e) => {
                rejected += 1;
                assert_eq!(
                    e.kind(),
                    io::ErrorKind::InvalidData,
                    "case {case} {plan:?}: {e}"
                );
                over_limit += usize::from(e.to_string().contains("more than the limit"));
            }
        }
    }
    // Both outcomes, and the size bound, must be exercised, or the
    // mutations are too weak (or too strong) to test anything.
    assert!(
        ok >= 100 && rejected >= 100 && over_limit >= 10,
        "{ok} accepted, {rejected} rejected ({over_limit} over a limit)"
    );
}
