//! Clean-run check for the debug lock-order detector: a live `RtCluster`
//! smoke scenario (workers + client fetches and submits + shutdown) must
//! complete without tripping a lock-order panic. Because the detector is
//! global and always-on in debug builds, *every* `brb-rt` test doubles
//! as a deadlock check — this one pins the representative end-to-end
//! path so a future locking change can't regress it silently.

use brb_rt::{RtCluster, RtClusterConfig, WorkModel};
use brb_sched::PolicyKind;

#[test]
fn rt_cluster_smoke_is_lock_order_clean() {
    let cluster = RtCluster::start(RtClusterConfig {
        num_servers: 3,
        workers_per_server: 2,
        replication: 2,
        policy: PolicyKind::UnifIncr,
        work: WorkModel::Instant,
        ..Default::default()
    });
    cluster.populate(1_000, |k| (k % 64) + 1);
    let client = cluster.client();
    for batch in 0..20u64 {
        let keys: Vec<u64> = (0..8).map(|i| (batch * 37 + i * 11) % 1_000).collect();
        let resp = client.fetch(&keys);
        assert_eq!(resp.values.len(), keys.len());
    }
    // Under debug_assertions the detector would have panicked on any
    // cyclic acquisition order anywhere in the submit/worker/client
    // paths; reaching shutdown means the scenario is lock-order clean.
    cluster
        .shutdown_checked()
        .expect("no rt thread may panic during the smoke scenario");
}

/// Shutdown-storm regression for the stop-flag lost wakeup: `stop` is
/// the one worker-wait predicate not written under the queue mutex, so
/// the stop/notify sequence must bracket the queue lock or a worker
/// sitting between its `stop` check and the condvar park misses the
/// wake and `shutdown` joins forever (observed on a loaded 1-CPU host).
/// The race is timing-dependent; cycling start → park → shutdown many
/// times keeps the fixed path hot under whatever load the test host has.
#[test]
fn repeated_start_shutdown_never_strands_a_worker() {
    for round in 0..25u64 {
        let cluster = RtCluster::start(RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            policy: PolicyKind::UnifIncr,
            work: WorkModel::Instant,
            ..Default::default()
        });
        // Odd rounds shut down an idle cluster (workers parked since
        // startup); even rounds park the workers again after real work.
        if round % 2 == 0 {
            cluster.populate(16, |k| k + 1);
            let client = cluster.client();
            let resp = client.fetch(&[0, 5, 10]);
            assert_eq!(resp.values.len(), 3);
        }
        cluster
            .shutdown_checked()
            .expect("shutdown must terminate every worker");
    }
}
