//! An idle cluster must cost nothing: no thread polls, so with no
//! request in flight no `brb-*` thread runs at all. Measured from
//! `/proc` rather than grepped from the source — this is what keeps a
//! poll loop out (one thread lapping a 20 µs sleep costs ≈ 10 000
//! context switches per second; the bounds below allow ≈ 170). The
//! file is a test binary of its own so that no sibling test's threads
//! are counted, and its tests serialize on one lock for the same
//! reason.
#![cfg(target_os = "linux")]

use brb_rt::{RtCluster, RtClusterConfig, RtCreditsConfig, WorkModel};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The process-wide `/proc` counters below see every thread; hold this
/// while a cluster is up.
static ONE_CLUSTER_AT_A_TIME: Mutex<()> = Mutex::new(());

fn cluster() -> RtCluster {
    RtCluster::start(RtClusterConfig {
        num_servers: 2,
        workers_per_server: 1,
        replication: 2,
        work: WorkModel::Instant,
        credits: Some(RtCreditsConfig::default()),
        ..Default::default()
    })
}

/// Names of this process's live `brb-*` threads.
fn brb_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_owned())
        .filter(|comm| comm.starts_with("brb-"))
        .collect()
}

/// Voluntary context switches summed over this process's live threads.
fn voluntary_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

/// User + system CPU milliseconds of this process (`/proc/self/stat`
/// fields 14 and 15, USER_HZ = 100 on Linux).
fn cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // The command name may contain spaces; fields resume after ')'.
    let (_, rest) = stat.rsplit_once(')').expect("stat format");
    let ticks = |field: usize| -> u64 {
        let field = rest.split_whitespace().nth(field - 3).expect("stat format");
        field.parse().expect("stat format")
    };
    (ticks(14) + ticks(15)) * 10
}

#[test]
fn idle_cluster_neither_switches_nor_burns_cpu() {
    let _one = ONE_CLUSTER_AT_A_TIME.lock().unwrap();
    let c = cluster();
    // One round of real work first, so every thread has run and parked
    // again by the time the idle window opens.
    c.populate(16, |_| 8);
    let client = c.client();
    assert_eq!(client.fetch(&[1, 2, 3]).values.len(), 3);
    std::thread::sleep(Duration::from_millis(20));

    let (switches, cpu) = (voluntary_switches(), cpu_ms());
    std::thread::sleep(Duration::from_millis(300));
    let (switches, cpu) = (voluntary_switches() - switches, cpu_ms() - cpu);
    assert!(
        switches <= 50,
        "{switches} voluntary context switches in 300 ms of idling"
    );
    assert!(cpu <= 30, "{cpu} ms of CPU in 300 ms of idling");
    c.shutdown();
}

#[test]
fn threads_are_workers_plus_controller_and_all_stop_on_drop() {
    let _one = ONE_CLUSTER_AT_A_TIME.lock().unwrap();
    let c = cluster();
    // A thread names itself once it runs; give the three a moment.
    let started = Instant::now();
    while brb_threads().len() < 3 && started.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut running = brb_threads();
    running.sort();
    assert_eq!(running, ["brb-credits", "brb-worker-0-0", "brb-worker-1-0"]);
    // No `shutdown()`: dropping the handle must stop everything, even
    // with a client still holding the servers' shared state.
    let client = c.client();
    drop(c);
    let dropped = Instant::now();
    while !brb_threads().is_empty() {
        assert!(
            dropped.elapsed() < Duration::from_secs(1),
            "still running 1 s after the drop: {:?}",
            brb_threads()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(client);
}
