//! Heap allocations per task on the live client's hot path, counted
//! exactly. A counting `#[global_allocator]` sees every allocation in
//! the process — client, workers and reply channels alike — so this
//! file is a test binary of its own, with a single test, and nothing
//! else runs while it counts.
//!
//! The shape is the ledger's `rt-floor` workload: a 2×1 cluster with no
//! service time, `EqualMax`, 10 000 keys, four keys per task. After a
//! warm-up (queues, scratch buffers and selector state reach their
//! steady capacity) it counts what 10 000 `fetch_async` +
//! `wait_outcome` pairs allocate.

use brb_rt::{RtCluster, RtClusterConfig, TaskOutcome, WorkModel};
use brb_sched::PolicyKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations per task may not exceed this. Lower it when a change
/// removes one; never raise it. Debug builds allocate one more:
/// priority assignment `debug_assert!`s `TaskView::validate`, which
/// sums sub-task costs into a fresh vector.
const CEILING: u64 = if cfg!(debug_assertions) { 8 } else { 7 };

const WARMUP: u64 = 1_000;
const TASKS: u64 = 10_000;
const FANOUT: u64 = 4;
const NUM_KEYS: u64 = 10_000;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every fresh block (a `realloc` that
/// grows a buffer counts as one).
struct Counting;

// SAFETY: every call forwards unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn fetch_and_wait_allocate_at_most_the_ceiling_per_task() {
    let cluster = RtCluster::start(RtClusterConfig {
        num_servers: 2,
        workers_per_server: 1,
        replication: 2,
        policy: PolicyKind::EqualMax,
        work: WorkModel::Instant,
        ..Default::default()
    });
    cluster.populate_etc(NUM_KEYS);
    let client = cluster.client_seeded(1);
    // A fixed key stream (a multiplicative hash of the position), drawn
    // up front so drawing it is not counted.
    let keys: Vec<u64> = (0..(WARMUP + TASKS) * FANOUT)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % NUM_KEYS)
        .collect();
    let task = |i: u64| &keys[(i * FANOUT) as usize..((i + 1) * FANOUT) as usize];
    let run = |range: std::ops::Range<u64>| {
        for i in range {
            let resolution = client
                .fetch_async(task(i))
                .wait_outcome()
                .expect("cluster is up");
            assert!(matches!(resolution.outcome, TaskOutcome::Completed(_)));
        }
    };
    run(0..WARMUP);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    run(WARMUP..WARMUP + TASKS);
    let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
    cluster.shutdown();
    let per_task = counted as f64 / TASKS as f64;
    println!("allocations per task: {per_task:.2} (ceiling {CEILING})");
    assert!(
        counted <= CEILING * TASKS,
        "{per_task:.2} allocations per task, ceiling {CEILING}"
    );
}
