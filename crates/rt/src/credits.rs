//! The live credits lane: `brb-sched`'s credits realization on real
//! threads.
//!
//! Both halves are the shared implementation with this crate's clock.
//! The controller ([`brb_sched::CreditController`]) runs as its own
//! thread: clients send [`CreditMsg::Demand`] reports and servers send
//! [`CreditMsg::Congestion`] signals over a channel; every adaptation
//! interval the thread runs one `allocate_into` epoch and publishes the
//! grant table on a shared [`GrantBoard`]. Between messages it sleeps
//! in the channel until the next epoch is due. The client
//! ([`brb_sched::CreditClient`]: token admission, load-weighted replica
//! choice, demand estimation) is wrapped by `CreditSelector`, which
//! adds only the transport: it polls the board's epoch counter on the
//! dispatch path (one atomic load when nothing changed) and sends the
//! report when a measurement interval has elapsed.
//!
//! One input differs by mechanism. The demand estimator takes the
//! backlog that could not be dispatched; the simulator reads it off its
//! client hold queues, while the rt client blocks in `select_replica`
//! and has no queue to read — so the adapter counts refused selects
//! instead, `1 / candidates` per candidate, and hands that in as the
//! backlog. The retry cadence (one attempt per token ETA) keeps the two
//! estimates within a small factor of each other.

#[cfg(test)]
use crate::timing;
use brb_sched::{CreditClient, CreditController, CreditsConfig, GrantTable};
use brb_select::{ReplicaSelector, ResponseFeedback, Selection, SelectionCtx};
use brb_store::ids::{ClientId, ServerId};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Credits tuning for the live runtime: the shared controller config
/// plus the two cluster-level numbers the sim derives from its own
/// config — per-server capacity (grants are shares of it) and the queue
/// depth at which a server raises a congestion signal.
#[derive(Debug, Clone, Copy)]
pub struct RtCreditsConfig {
    /// Controller tuning (intervals, AIMD constants, burst).
    pub config: CreditsConfig,
    /// Full capacity of each server, requests/second (the sim's
    /// `server_capacity_rps()`).
    pub server_capacity_rps: f64,
    /// Server queue depth at/above which an arrival counts as congested
    /// (the sim's `congestion_queue_threshold`).
    pub congestion_queue_threshold: usize,
}

impl Default for RtCreditsConfig {
    fn default() -> Self {
        RtCreditsConfig {
            config: CreditsConfig::default(),
            // Paper cluster: 4 cores × 3500 req/s per core.
            server_capacity_rps: 14_000.0,
            congestion_queue_threshold: 96,
        }
    }
}

/// What flows *to* the controller thread.
#[derive(Debug)]
pub(crate) enum CreditMsg {
    /// One client's demand report for one measurement tick: the >0
    /// per-server EWMA rates, requests/second. One message per client
    /// per tick.
    Demand {
        /// Reporting client.
        client: ClientId,
        /// `(server index, rate_rps)` pairs, only servers with demand.
        rates: Vec<(u16, f64)>,
    },
    /// A server's detector observed congestion on an admitted arrival.
    Congestion {
        /// Congested server index.
        server: u32,
    },
    /// The cluster is stopping: the controller thread exits. Sent
    /// rather than signalled by disconnection because clients (and the
    /// servers they keep alive) may outlive the cluster handle and
    /// still hold senders.
    Shutdown,
}

/// The published allocation: grant table plus an epoch counter so
/// clients can skip the lock when nothing changed since their last look.
pub(crate) struct GrantBoard {
    epoch: AtomicU64,
    grants: Mutex<GrantTable>,
}

impl GrantBoard {
    fn new() -> Self {
        GrantBoard {
            epoch: AtomicU64::new(0),
            grants: Mutex::new(GrantTable::new()),
        }
    }
}

/// Everything the cluster and its clients need to participate in the
/// credits lane. Held by `RtCluster`; clients clone the channel sender
/// and share the board.
pub(crate) struct CreditsHub {
    pub(crate) board: Arc<GrantBoard>,
    pub(crate) tx: Sender<CreditMsg>,
    pub(crate) demand_reports: Arc<AtomicU64>,
    pub(crate) congestion_signals: Arc<AtomicU64>,
    pub(crate) cfg: RtCreditsConfig,
}

/// Spawns the controller thread. It adapts every
/// `adaptation_interval_ns`, publishing each epoch's grants on the
/// board, and exits on [`CreditMsg::Shutdown`].
pub(crate) fn spawn_controller(
    cfg: RtCreditsConfig,
    num_servers: usize,
    panicked: Arc<AtomicBool>,
) -> (CreditsHub, JoinHandle<()>) {
    let (tx, rx) = unbounded();
    let board = Arc::new(GrantBoard::new());
    let demand_reports = Arc::new(AtomicU64::new(0));
    let congestion_signals = Arc::new(AtomicU64::new(0));
    let hub = CreditsHub {
        board: Arc::clone(&board),
        tx,
        demand_reports: Arc::clone(&demand_reports),
        congestion_signals: Arc::clone(&congestion_signals),
        cfg,
    };
    let handle = std::thread::Builder::new()
        .name("brb-credits".into())
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                controller_loop(
                    cfg,
                    num_servers,
                    &rx,
                    &board,
                    &demand_reports,
                    &congestion_signals,
                );
            }));
            if result.is_err() {
                panicked.store(true, Ordering::Release);
            }
        })
        .expect("spawn credits controller");
    (hub, handle)
}

fn controller_loop(
    cfg: RtCreditsConfig,
    num_servers: usize,
    rx: &Receiver<CreditMsg>,
    board: &GrantBoard,
    demand_reports: &AtomicU64,
    congestion_signals: &AtomicU64,
) {
    let mut controller =
        CreditController::new(vec![cfg.server_capacity_rps; num_servers], cfg.config);
    // Pooled table: epochs swap it with the board's, so steady state
    // allocates nothing (the two tables ping-pong).
    let mut table = GrantTable::new();
    let interval = Duration::from_nanos(cfg.config.adaptation_interval_ns);
    let mut next_epoch = Instant::now() + interval;
    loop {
        match rx.recv_deadline(next_epoch) {
            Ok(CreditMsg::Demand { client, rates }) => {
                demand_reports.fetch_add(1, Ordering::Relaxed);
                for (server, rate) in rates {
                    controller.report_demand(client, ServerId::new(server as u64), rate);
                }
            }
            Ok(CreditMsg::Congestion { server }) => {
                congestion_signals.fetch_add(1, Ordering::Relaxed);
                controller.signal_congestion(ServerId::new(server as u64));
            }
            // Disconnected: the cluster and every client are dropped;
            // nothing left to serve.
            Ok(CreditMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
        // Checked after a message too: a steady stream of reports must
        // not starve the epochs.
        if Instant::now() >= next_epoch {
            controller.allocate_into(&mut table);
            {
                let mut published = board.grants.lock();
                std::mem::swap(&mut *published, &mut table);
            }
            board.epoch.fetch_add(1, Ordering::Release);
            next_epoch += interval;
        }
    }
}

/// The credits realization as a [`ReplicaSelector`], so the existing
/// client dispatch path (select → dispatch, `RateLimited` → bounded
/// wait → re-select) needs no new plumbing. Every decision is the
/// wrapped [`CreditClient`]'s; this adapter moves grants in from the
/// board and reports out over the channel, on the client-epoch clock
/// `SelectionCtx::now_ns` carries.
pub(crate) struct CreditSelector {
    client: ClientId,
    board: Arc<GrantBoard>,
    tx: Sender<CreditMsg>,
    measurement_interval_ns: u64,
    seen_epoch: u64,
    credits: CreditClient,
    /// Per server, the refused selects this interval, `1 / candidates`
    /// per candidate — the live stand-in for a held-request backlog, so
    /// starved clients still report the demand they could not send.
    unmet_since: Vec<(ServerId, f64)>,
    last_measure_ns: u64,
}

impl CreditSelector {
    /// Builds a selector for `client` against `num_servers` servers
    /// among `num_clients` clients.
    pub(crate) fn new(
        client: ClientId,
        hub: &CreditsHub,
        num_servers: usize,
        num_clients: usize,
    ) -> Self {
        CreditSelector {
            client,
            board: Arc::clone(&hub.board),
            tx: hub.tx.clone(),
            measurement_interval_ns: hub.cfg.config.measurement_interval_ns,
            seen_epoch: 0,
            credits: CreditClient::new(
                num_servers,
                num_clients,
                hub.cfg.server_capacity_rps,
                hub.cfg.config.burst_secs,
            ),
            unmet_since: (0..num_servers as u64)
                .map(|s| (ServerId::new(s), 0.0))
                .collect(),
            last_measure_ns: 0,
        }
    }

    /// Applies the latest grant epoch, if one landed since we last
    /// looked.
    fn refresh_grants(&mut self, now_ns: u64) {
        let epoch = self.board.epoch.load(Ordering::Acquire);
        if epoch == self.seen_epoch {
            return;
        }
        let table = self.board.grants.lock();
        for &(server, _) in &self.unmet_since {
            if let Some(rate) = table.rate(server, self.client) {
                self.credits.set_grant(now_ns, server, rate);
            }
        }
        drop(table);
        self.seen_epoch = epoch;
    }

    /// Flushes one demand report if a measurement interval elapsed, as
    /// one message carrying only the >0 rates.
    fn maybe_report(&mut self, now_ns: u64) {
        if now_ns
            < self
                .last_measure_ns
                .saturating_add(self.measurement_interval_ns)
        {
            return;
        }
        let dt_secs = (now_ns - self.last_measure_ns) as f64 / 1e9;
        self.last_measure_ns = now_ns;
        let mut rates = Vec::new();
        let backlog = self
            .unmet_since
            .iter()
            .map(|(server, unmet)| (*unmet, std::slice::from_ref(server)));
        self.credits.measure(dt_secs, backlog, &mut rates);
        for (_, unmet) in &mut self.unmet_since {
            *unmet = 0.0;
        }
        if !rates.is_empty() {
            // Send failure means the controller is gone (shutdown mid-
            // flight); the dispatch path handles that via the cluster's
            // own channels, so the lost report is irrelevant.
            let _ = self.tx.send(CreditMsg::Demand {
                client: self.client,
                rates,
            });
        }
    }
}

impl ReplicaSelector for CreditSelector {
    fn name(&self) -> &'static str {
        "credits"
    }

    fn select(&mut self, ctx: &SelectionCtx<'_>) -> Selection {
        debug_assert!(!ctx.candidates.is_empty());
        self.refresh_grants(ctx.now_ns);
        self.maybe_report(ctx.now_ns);
        match self.credits.admit(ctx.now_ns, ctx.candidates) {
            Ok(server) => Selection::Dispatch(server),
            Err(retry_in_ns) => {
                // Refused: this attempt is demand the grants could not
                // carry, spread across the group it could have gone to.
                let share = 1.0 / ctx.candidates.len() as f64;
                for s in ctx.candidates {
                    self.unmet_since[s.index()].1 += share;
                }
                Selection::RateLimited { retry_in_ns }
            }
        }
    }

    fn on_response(&mut self, server: ServerId, _now_ns: u64, feedback: &ResponseFeedback) {
        self.credits.on_response(server, feedback.queue_len);
    }

    fn on_abandon(&mut self, server: ServerId) {
        self.credits.on_abandon(server);
    }

    fn outstanding(&self, server: ServerId) -> u64 {
        self.credits.outstanding(server)
    }
}

/// Waits (bounded) until the board has published at least `epoch`
/// epochs. Test helper; uses the hybrid sleep so short intervals are
/// honored.
#[cfg(test)]
fn wait_for_epoch(board: &GrantBoard, epoch: u64, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while board.epoch.load(Ordering::Acquire) < epoch {
        if Instant::now() >= deadline {
            return false;
        }
        timing::wait_for(Duration::from_micros(200));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(adaptation_ms: u64) -> RtCreditsConfig {
        RtCreditsConfig {
            config: CreditsConfig {
                adaptation_interval_ns: adaptation_ms * 1_000_000,
                measurement_interval_ns: 10_000_000, // 10 ms
                ..CreditsConfig::default()
            },
            server_capacity_rps: 10_000.0,
            congestion_queue_threshold: 4,
        }
    }

    fn bare_hub(cfg: RtCreditsConfig) -> (CreditsHub, Receiver<CreditMsg>) {
        let (tx, rx) = unbounded();
        let hub = CreditsHub {
            board: Arc::new(GrantBoard::new()),
            tx,
            demand_reports: Arc::new(AtomicU64::new(0)),
            congestion_signals: Arc::new(AtomicU64::new(0)),
            cfg,
        };
        (hub, rx)
    }

    fn ctx(candidates: &[ServerId], now_ns: u64) -> SelectionCtx<'_> {
        SelectionCtx {
            now_ns,
            candidates,
            value_bytes: 100,
            oracle_queue_depths: None,
        }
    }

    #[test]
    fn controller_thread_adapts_and_publishes_grants() {
        let panicked = Arc::new(AtomicBool::new(false));
        let (hub, handle) = spawn_controller(test_cfg(5), 2, Arc::clone(&panicked));
        hub.tx
            .send(CreditMsg::Demand {
                client: ClientId::new(0),
                rates: vec![(0, 4_000.0), (1, 1_000.0)],
            })
            .unwrap();
        hub.tx.send(CreditMsg::Congestion { server: 1 }).unwrap();
        assert!(
            wait_for_epoch(&hub.board, 3, Duration::from_secs(10)),
            "controller never published an epoch"
        );
        {
            let table = hub.board.grants.lock();
            let g0 = table.rate(ServerId::new(0), ClientId::new(0)).unwrap();
            // Uncontended: demand × headroom.
            assert!(
                (g0 - 4_000.0 * hub.cfg.config.headroom).abs() < 1e-6,
                "{g0}"
            );
            // Client never reported for a third server — and there is
            // none; the row for server 1 exists.
            assert!(table.rate(ServerId::new(1), ClientId::new(0)).is_some());
        }
        assert_eq!(hub.demand_reports.load(Ordering::Relaxed), 1);
        assert_eq!(hub.congestion_signals.load(Ordering::Relaxed), 1);
        // `Shutdown` ends the thread even though `hub` (and its sender)
        // is still alive — the client-outlives-cluster shutdown path.
        hub.tx.send(CreditMsg::Shutdown).unwrap();
        handle.join().unwrap();
        assert!(!panicked.load(Ordering::Acquire));
    }

    #[test]
    fn selector_applies_published_grants() {
        let mut cfg = test_cfg(1_000);
        cfg.server_capacity_rps = 10_000.0;
        let (hub, _rx) = bare_hub(cfg);
        let mut sel = CreditSelector::new(ClientId::new(7), &hub, 1, 1000);
        let servers = [ServerId::new(0)];
        // Drain the single fair-share token.
        assert!(matches!(
            sel.select(&ctx(&servers, 0)),
            Selection::Dispatch(_)
        ));
        assert!(matches!(
            sel.select(&ctx(&servers, 1)),
            Selection::RateLimited { .. }
        ));
        // Controller grants this client 2000 rps; publish epoch 1.
        let mut controller = CreditController::new(vec![10_000.0], cfg.config);
        controller.report_demand(ClientId::new(7), ServerId::new(0), 2_000.0);
        controller.allocate_into(&mut hub.board.grants.lock());
        hub.board.epoch.fetch_add(1, Ordering::Release);
        // At 2600 rps (2000 × 1.3 headroom) the next token is ~0.4 ms
        // out where the old 10 rps rate needed ~100 ms; following the
        // rate-limit hint once must reach a dispatch.
        let now = 5_000_000;
        match sel.select(&ctx(&servers, now)) {
            Selection::Dispatch(s) => assert_eq!(s, ServerId::new(0)),
            Selection::RateLimited { retry_in_ns } => {
                assert!(retry_in_ns < 2_000_000, "grant not applied: {retry_in_ns}");
                assert_eq!(
                    sel.select(&ctx(&servers, now + retry_in_ns)),
                    Selection::Dispatch(ServerId::new(0))
                );
            }
        }
    }

    #[test]
    fn selector_reports_demand_once_per_interval() {
        let cfg = test_cfg(1_000); // measurement interval 10 ms
        let (hub, rx) = bare_hub(cfg);
        let mut sel = CreditSelector::new(ClientId::new(3), &hub, 2, 2);
        let servers = [ServerId::new(0), ServerId::new(1)];
        // Dispatches inside the first interval accumulate...
        for t in [0u64, 1_000_000, 2_000_000] {
            let _ = sel.select(&ctx(&servers, t));
        }
        assert!(rx.try_recv().is_err(), "no report before the interval");
        // ...and flush as ONE message when a select crosses it.
        let _ = sel.select(&ctx(&servers, 11_000_000));
        let msg = rx.try_recv().expect("demand report after interval");
        let CreditMsg::Demand { client, rates } = msg else {
            panic!("expected a demand report");
        };
        assert_eq!(client, ClientId::new(3));
        assert!(!rates.is_empty());
        assert!(rates.iter().all(|&(_, r)| r > 0.0));
        assert!(rx.try_recv().is_err(), "one message per tick");
    }

    #[test]
    fn rate_limited_attempts_fold_into_demand_reports() {
        // Capacity 10k over 1000 clients → 10 rps fair share: one
        // banked token, then starvation. The starved attempts must
        // still show up as demand, or the controller can never learn
        // this client wants more than it is granted.
        let mut cfg = test_cfg(1_000); // measurement interval 10 ms
        cfg.server_capacity_rps = 10_000.0;
        let (hub, rx) = bare_hub(cfg);
        let mut sel = CreditSelector::new(ClientId::new(0), &hub, 1, 1000);
        let servers = [ServerId::new(0)];
        assert!(matches!(
            sel.select(&ctx(&servers, 0)),
            Selection::Dispatch(_)
        ));
        for t in [1_000_000u64, 2_000_000, 3_000_000] {
            assert!(matches!(
                sel.select(&ctx(&servers, t)),
                Selection::RateLimited { .. }
            ));
        }
        let _ = sel.select(&ctx(&servers, 11_000_000));
        let CreditMsg::Demand { rates, .. } = rx.try_recv().expect("report after interval") else {
            panic!("expected a demand report");
        };
        // 1 dispatch + 3 refused attempts over 11 ms ≈ 363 rps; the
        // dispatch alone would report ~91 rps.
        assert!(
            rates[0].1 > 250.0,
            "unmet demand missing from report: {} rps",
            rates[0].1
        );
    }
}
