//! The credits realization: demand-proportional capacity shares.
//!
//! From §2.2: "we develop a credits strategy where clients report their
//! demands at measurement intervals and are assigned credits (i.e., shares
//! of server capacity) proportionally to demands via a logically-
//! centralized controller; once demand exceeds server capacity, a
//! congestion signal is sent to the controller and the credits allocations
//! are adapted accordingly at 1s intervals."
//!
//! Mechanics (our realization; recorded in DESIGN.md §5.4):
//!
//! * Clients report per-server demand *rates* every measurement interval
//!   (100 ms default).
//! * Every adaptation interval (1 s), the controller grants each client a
//!   credit *rate* per server: the server's usable capacity split
//!   proportionally to reported demands, with a headroom multiplier so
//!   demand can grow, and a per-client floor so idle clients can probe.
//! * A congested server (signal raised since the last epoch) has its
//!   usable capacity scaled down multiplicatively; calm servers recover
//!   multiplicatively toward full capacity — AIMD-flavored, as hinted by
//!   "adapted accordingly".
//! * Clients enforce their grants with token buckets ([`CreditBucket`]):
//!   a request may be dispatched to server *s* only by spending a token
//!   from the bucket for *s*; otherwise it waits in the client's local
//!   priority queue (that wait is part of task latency).

use brb_store::ids::{ClientId, ServerId};
use serde::{Deserialize, Serialize};

/// Grant rates for one adaptation epoch: per server, the granted
/// requests/second of every reporting client, **sorted by client id**.
///
/// The sorted dense layout replaces the old `Vec<HashMap<ClientId, f64>>`
/// for two reasons recorded in ROADMAP's open items: iteration order (and
/// therefore every f64 summation the engine derives from a table) is
/// deterministic, and the table can be **pooled** —
/// [`CreditController::allocate_into`] refills a caller-owned table
/// without allocating once its vectors are warm.
#[derive(Debug, Clone, Default)]
pub struct GrantTable {
    per_server: Vec<Vec<(ClientId, f64)>>,
}

impl GrantTable {
    /// An empty table (fills on the first [`CreditController::allocate_into`]).
    pub fn new() -> Self {
        GrantTable::default()
    }

    /// Number of servers covered by the table.
    pub fn num_servers(&self) -> usize {
        self.per_server.len()
    }

    /// The `(client, rate)` grants of one server, sorted by client id.
    pub fn server(&self, server: ServerId) -> &[(ClientId, f64)] {
        &self.per_server[server.index()]
    }

    /// Grant rows in server order: `(server index, sorted grants)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[(ClientId, f64)])> {
        self.per_server
            .iter()
            .enumerate()
            .map(|(s, g)| (s, g.as_slice()))
    }

    /// The rate granted to `client` at `server`, if the client reported.
    pub fn rate(&self, server: ServerId, client: ClientId) -> Option<f64> {
        let grants = self.per_server.get(server.index())?;
        grants
            .binary_search_by_key(&client, |&(c, _)| c)
            .ok()
            .map(|i| grants[i].1)
    }

    /// Sum of granted rates at one server.
    pub fn total_rate(&self, server: ServerId) -> f64 {
        self.per_server[server.index()]
            .iter()
            .map(|&(_, r)| r)
            .sum()
    }

    /// Clears all rows, keeping their capacity, and sizes the table for
    /// `num_servers` rows.
    fn reset(&mut self, num_servers: usize) {
        for row in &mut self.per_server {
            row.clear();
        }
        self.per_server.resize_with(num_servers, Vec::new);
    }
}

/// Controller tuning.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CreditsConfig {
    /// How often clients report demand, nanoseconds (paper: "measurement
    /// intervals"; we default to 100 ms).
    pub measurement_interval_ns: u64,
    /// How often allocations adapt, nanoseconds (paper: 1 s).
    pub adaptation_interval_ns: u64,
    /// Multiplicative decrease applied to a congested server's usable
    /// capacity.
    pub backoff: f64,
    /// Multiplicative recovery toward full capacity when calm.
    pub recovery: f64,
    /// Floor on the usable-capacity scale. Must stay above the offered
    /// load fraction or sustained backoff makes client backlogs diverge
    /// (grants below arrival rate can never drain a queue).
    pub min_scale: f64,
    /// Grant headroom: grants = demand-share × headroom (≥ 1) so clients
    /// can ramp up between epochs.
    pub headroom: f64,
    /// Minimum grant rate (requests/s) per (client, server) so every
    /// client can always probe every server.
    pub min_rate: f64,
    /// Token-bucket burst, in seconds of granted rate.
    pub burst_secs: f64,
}

impl Default for CreditsConfig {
    fn default() -> Self {
        CreditsConfig {
            measurement_interval_ns: 100_000_000,  // 100 ms
            adaptation_interval_ns: 1_000_000_000, // 1 s (paper)
            backoff: 0.9,
            recovery: 1.25,
            min_scale: 0.8,
            headroom: 1.3,
            min_rate: 10.0,
            burst_secs: 0.1,
        }
    }
}

impl CreditsConfig {
    /// Validates tuning invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.measurement_interval_ns == 0 || self.adaptation_interval_ns == 0 {
            return Err("intervals must be positive".into());
        }
        if !(0.0 < self.backoff && self.backoff < 1.0) {
            return Err(format!("backoff must be in (0,1): {}", self.backoff));
        }
        if self.recovery < 1.0 {
            return Err(format!("recovery must be >= 1: {}", self.recovery));
        }
        if !(0.0 < self.min_scale && self.min_scale <= 1.0) {
            return Err(format!("min_scale must be in (0,1]: {}", self.min_scale));
        }
        if self.headroom < 1.0 {
            return Err(format!("headroom must be >= 1: {}", self.headroom));
        }
        if self.min_rate < 0.0 || self.burst_secs <= 0.0 {
            return Err("min_rate must be >= 0 and burst_secs > 0".into());
        }
        Ok(())
    }
}

/// The logically-centralized credit controller.
#[derive(Debug, Clone)]
pub struct CreditController {
    config: CreditsConfig,
    /// Full capacity of each server (requests/s).
    capacities: Vec<f64>,
    /// Latest reported demand rate per server per client, **sorted by
    /// client id** — dense pairs instead of a hash map, so demand sums
    /// run in one deterministic order and epoch allocation is
    /// allocation-free once the rows are warm.
    demands: Vec<Vec<(ClientId, f64)>>,
    /// Usable-capacity scale per server, in (0, 1].
    scales: Vec<f64>,
    /// Congestion signals received since the last adaptation.
    congested: Vec<bool>,
    epochs: u64,
}

impl CreditController {
    /// Creates a controller for servers with the given full capacities
    /// (requests/second each).
    ///
    /// # Panics
    /// Panics if the config is invalid or any capacity is non-positive.
    pub fn new(capacities: Vec<f64>, config: CreditsConfig) -> Self {
        config.validate().expect("invalid credits config");
        assert!(!capacities.is_empty(), "need at least one server");
        assert!(
            capacities.iter().all(|&c| c > 0.0),
            "capacities must be positive"
        );
        let n = capacities.len();
        CreditController {
            config,
            capacities,
            demands: vec![Vec::new(); n],
            scales: vec![1.0; n],
            congested: vec![false; n],
            epochs: 0,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &CreditsConfig {
        &self.config
    }

    /// Records a demand report: `client` wants `rate_rps` requests/second
    /// of `server`. Overwrites the client's previous report for that
    /// server (reports are absolute, not deltas).
    pub fn report_demand(&mut self, client: ClientId, server: ServerId, rate_rps: f64) {
        let s = server.index();
        assert!(s < self.capacities.len(), "unknown server {server}");
        let row = &mut self.demands[s];
        match row.binary_search_by_key(&client, |&(c, _)| c) {
            Ok(i) => row[i].1 = rate_rps.max(0.0),
            Err(i) => row.insert(i, (client, rate_rps.max(0.0))),
        }
    }

    /// Records a congestion signal from `server` ("once demand exceeds
    /// server capacity, a congestion signal is sent to the controller").
    pub fn signal_congestion(&mut self, server: ServerId) {
        let s = server.index();
        assert!(s < self.capacities.len(), "unknown server {server}");
        self.congested[s] = true;
    }

    /// Usable-capacity scale of a server (diagnostics).
    pub fn scale_of(&self, server: ServerId) -> f64 {
        self.scales[server.index()]
    }

    /// Number of adaptation epochs completed.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Runs one adaptation epoch into a caller-pooled table: updates
    /// per-server scales from congestion state and refills `grants`
    /// in place — the steady-state tick allocates nothing once the
    /// table's rows have warmed to the client population. Congestion
    /// flags reset; demand reports persist until overwritten.
    pub fn allocate_into(&mut self, grants: &mut GrantTable) {
        grants.reset(self.capacities.len());
        for s in 0..self.capacities.len() {
            // AIMD-flavored usable capacity.
            if self.congested[s] {
                self.scales[s] = (self.scales[s] * self.config.backoff).max(self.config.min_scale);
            } else {
                self.scales[s] = (self.scales[s] * self.config.recovery).min(1.0);
            }
            self.congested[s] = false;

            let total_demand: f64 = self.demands[s].iter().map(|&(_, d)| d).sum();
            // Backoff exists to spread transient hot spots, not to cap
            // throughput: never throttle usable capacity below demand
            // pressure, or sustained high load (demand ≈ capacity) makes
            // client backlogs diverge — grants below the arrival rate can
            // never drain a queue.
            let pressure = (total_demand / self.capacities[s]).min(1.0);
            let usable = self.capacities[s] * self.scales[s].max(pressure);
            let row = &mut grants.per_server[s];
            for &(client, demand) in &self.demands[s] {
                let share = if total_demand <= usable {
                    // Uncontended: grant demand plus headroom.
                    demand * self.config.headroom
                } else {
                    // Contended: proportional share of usable capacity.
                    usable * demand / total_demand
                };
                // Demands are sorted by client id, so pushing in order
                // keeps the row sorted.
                row.push((client, share.max(self.config.min_rate)));
            }
        }
        self.epochs += 1;
    }

    /// [`Self::allocate_into`] into a fresh table — the convenience form
    /// for tests and cold paths.
    pub fn allocate(&mut self) -> GrantTable {
        let mut grants = GrantTable::new();
        self.allocate_into(&mut grants);
        grants
    }
}

/// A client-side token bucket enforcing one server's grant rate.
#[derive(Debug, Clone, Copy)]
pub struct CreditBucket {
    rate_rps: f64,
    burst: f64,
    tokens: f64,
    last_refill_ns: u64,
}

impl CreditBucket {
    /// Creates a bucket with the given rate and burst (tokens), starting
    /// full.
    pub fn new(rate_rps: f64, burst: f64) -> Self {
        let burst = burst.max(1.0);
        CreditBucket {
            rate_rps: rate_rps.max(0.0),
            burst,
            tokens: burst,
            last_refill_ns: 0,
        }
    }

    /// Applies a new grant rate (at an adaptation epoch). The burst is
    /// re-derived from the rate and `burst_secs`; accumulated tokens are
    /// clamped to the new burst.
    pub fn set_rate(&mut self, now_ns: u64, rate_rps: f64, burst_secs: f64) {
        self.refill(now_ns);
        self.rate_rps = rate_rps.max(0.0);
        self.burst = (self.rate_rps * burst_secs).max(1.0);
        self.tokens = self.tokens.min(self.burst);
    }

    fn refill(&mut self, now_ns: u64) {
        if now_ns > self.last_refill_ns {
            let dt = (now_ns - self.last_refill_ns) as f64 / 1e9;
            self.tokens = (self.tokens + self.rate_rps * dt).min(self.burst);
            self.last_refill_ns = now_ns;
        }
    }

    /// Attempts to spend one token at time `now_ns`.
    pub fn try_take(&mut self, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens available at `now_ns` (after refill).
    pub fn tokens_at(&mut self, now_ns: u64) -> f64 {
        self.refill(now_ns);
        self.tokens
    }

    /// Nanoseconds until one token accrues (0 if available now;
    /// `u64::MAX` if the rate is zero).
    pub fn ns_until_token(&mut self, now_ns: u64) -> u64 {
        self.refill(now_ns);
        if self.tokens >= 1.0 {
            0
        } else if self.rate_rps <= 0.0 {
            u64::MAX
        } else {
            let deficit = 1.0 - self.tokens;
            (deficit / self.rate_rps * 1e9).ceil() as u64
        }
    }

    /// The current grant rate.
    pub fn rate(&self) -> f64 {
        self.rate_rps
    }
}

/// Re-probe delay when every candidate's grant rate is zero (no token
/// will ever accrue, so there is no ETA to wait for).
const REPROBE_NS: u64 = 1_000_000;

/// The smoothing both of the client's EWMAs use (piggybacked queue
/// lengths, decaying demand): old state is forgotten over ~3 updates.
fn ewma(sample: f64, old: f64) -> f64 {
    0.3 * sample + 0.7 * old
}

/// One client's view of one server.
#[derive(Debug, Clone)]
struct ServerCredit {
    bucket: CreditBucket,
    /// EWMA of the queue lengths the server piggybacks on responses:
    /// replica choice weighs observed queues, narrowing the gap to the
    /// model realization's late binding.
    queue_ewma: f64,
    /// This client's requests in flight to the server.
    outstanding: u64,
    /// Dispatches since the last [`CreditClient::measure`].
    dispatched_since: u64,
    /// Smoothed demand (rps). Reports send `max(instantaneous, smoothed)`
    /// so one quiet measurement window cannot collapse next epoch's
    /// grant (grants are frozen for a full adaptation interval;
    /// underestimates starve the client).
    demand_ewma: f64,
    /// Scratch: this window's instantaneous demand while `measure` runs.
    rate: f64,
}

/// The client half of the credits realization — token admission with
/// load-weighted replica choice, grant application and the demand
/// estimator — as plain state driven by a caller-supplied clock. The
/// simulator calls it from calendar events and the live runtime from
/// its dispatch path; neither adds policy of its own.
///
/// Every f64 operation here runs in a fixed order (documented per
/// method): the simulator's golden run hashes pin the results
/// bit-for-bit, so reassociating a sum is a behaviour change.
#[derive(Debug, Clone)]
pub struct CreditClient {
    burst_secs: f64,
    /// Load weight on outstanding requests: one in-flight request of
    /// ours stands in for `num_clients` cluster-wide (the C3 trick —
    /// it suppresses herding on stale queue information).
    weight: f64,
    servers: Vec<ServerCredit>,
}

impl CreditClient {
    /// A client of `num_servers` servers among `num_clients` clients.
    /// Until the first grant lands every bucket runs at the fair share,
    /// `server_capacity_rps / num_clients`.
    pub fn new(
        num_servers: usize,
        num_clients: usize,
        server_capacity_rps: f64,
        burst_secs: f64,
    ) -> Self {
        let num_clients = num_clients.max(1);
        let fair_rate = server_capacity_rps / num_clients as f64;
        let slot = ServerCredit {
            bucket: CreditBucket::new(fair_rate, (fair_rate * burst_secs).max(1.0)),
            queue_ewma: 0.0,
            outstanding: 0,
            dispatched_since: 0,
            demand_ewma: 0.0,
            rate: 0.0,
        };
        CreditClient {
            burst_secs,
            weight: num_clients as f64,
            servers: vec![slot; num_servers],
        }
    }

    /// Admits one request to a replica among `candidates`, or refuses.
    ///
    /// Among candidates holding at least one token, the lowest
    /// `queue_ewma + outstanding × num_clients` wins (ties to the lower
    /// server id); its token is spent and the dispatch is counted as in
    /// flight and as demand. With no token anywhere the answer is
    /// `Err(retry_in_ns)`: the earliest token's ETA over the candidates,
    /// or 1 ms when every rate is zero.
    pub fn admit(&mut self, now_ns: u64, candidates: &[ServerId]) -> Result<ServerId, u64> {
        let mut best: Option<(f64, ServerId)> = None;
        let mut min_wait = u64::MAX;
        for &s in candidates {
            let slot = &mut self.servers[s.index()];
            if slot.bucket.tokens_at(now_ns) >= 1.0 {
                let load = slot.queue_ewma + slot.outstanding as f64 * self.weight;
                if best.is_none_or(|(bl, bs)| load < bl || (load == bl && s.raw() < bs.raw())) {
                    best = Some((load, s));
                }
            } else {
                min_wait = min_wait.min(slot.bucket.ns_until_token(now_ns));
            }
        }
        let Some((_, server)) = best else {
            return Err(if min_wait == u64::MAX {
                REPROBE_NS
            } else {
                min_wait
            });
        };
        let slot = &mut self.servers[server.index()];
        let taken = slot.bucket.try_take(now_ns);
        debug_assert!(taken, "token vanished between check and take");
        slot.outstanding += 1;
        slot.dispatched_since += 1;
        Ok(server)
    }

    /// A response from `server` arrived carrying its queue length.
    pub fn on_response(&mut self, server: ServerId, queue_len: u64) {
        let slot = &mut self.servers[server.index()];
        slot.outstanding = slot.outstanding.saturating_sub(1);
        slot.queue_ewma = ewma(queue_len as f64, slot.queue_ewma);
    }

    /// A dispatch to `server` ended without a response (NACKed,
    /// superseded or abandoned).
    pub fn on_abandon(&mut self, server: ServerId) {
        let slot = &mut self.servers[server.index()];
        slot.outstanding = slot.outstanding.saturating_sub(1);
    }

    /// This client's requests in flight to `server`.
    pub fn outstanding(&self, server: ServerId) -> u64 {
        self.servers[server.index()].outstanding
    }

    /// Applies a granted rate for `server` (servers absent from a grant
    /// keep their old rate).
    pub fn set_grant(&mut self, now_ns: u64, server: ServerId, rate_rps: f64) {
        self.servers[server.index()]
            .bucket
            .set_rate(now_ns, rate_rps, self.burst_secs);
    }

    /// Closes a measurement window of `dt_secs` and appends the
    /// `(server index, demand rps)` report to `demands`, skipping
    /// servers whose smoothed demand is zero.
    ///
    /// `backlog` lists demand that could not be dispatched: `(count,
    /// replicas)` adds `count / (replicas.len() × dt)` to each replica
    /// (a held request is attributed equally to the replicas it could
    /// have gone to). Per server the arithmetic is, in this order,
    /// `dispatched / dt`, then `+=` each backlog share in iteration
    /// order, then fast-attack / slow-decay smoothing: growth is taken
    /// at once, decay is `0.3 × inst + 0.7 × ewma`.
    pub fn measure<'a>(
        &mut self,
        dt_secs: f64,
        backlog: impl IntoIterator<Item = (f64, &'a [ServerId])>,
        demands: &mut Vec<(u16, f64)>,
    ) {
        for slot in &mut self.servers {
            slot.rate = slot.dispatched_since as f64 / dt_secs;
            slot.dispatched_since = 0;
        }
        for (count, replicas) in backlog {
            if count > 0.0 {
                for s in replicas {
                    self.servers[s.index()].rate += count / (replicas.len() as f64 * dt_secs);
                }
            }
        }
        for (s, slot) in self.servers.iter_mut().enumerate() {
            slot.demand_ewma = if slot.rate > slot.demand_ewma {
                slot.rate
            } else {
                ewma(slot.rate, slot.demand_ewma)
            };
            if slot.demand_ewma > 0.0 {
                demands.push((s as u16, slot.demand_ewma));
            }
        }
    }
}

/// Margin over capacity the windowed arrival rate must exceed before it
/// counts as congestion — keeps jitter at exactly-capacity from
/// flapping the signal.
const RATE_MARGIN: f64 = 1.05;

/// Server-side congestion detection for the credits realization ("once
/// demand exceeds server capacity, a congestion signal is sent to the
/// controller"): an admitted arrival is congested when it leaves the
/// queue at or above a depth threshold, or closes a measurement window
/// whose arrival rate exceeded capacity by more than 5 %. Signals are
/// limited to one per measurement interval.
#[derive(Debug, Clone)]
pub struct CongestionDetector {
    queue_threshold: usize,
    capacity_rps: f64,
    interval_ns: u64,
    window_start_ns: u64,
    arrivals: u64,
    last_signal_ns: Option<u64>,
}

impl CongestionDetector {
    /// A detector for a server of `capacity_rps`, windowed (and
    /// signal-limited) at `interval_ns`.
    pub fn new(queue_threshold: usize, capacity_rps: f64, interval_ns: u64) -> Self {
        CongestionDetector {
            queue_threshold,
            capacity_rps,
            interval_ns,
            window_start_ns: 0,
            arrivals: 0,
            last_signal_ns: None,
        }
    }

    /// Records an arrival that was admitted at `now_ns`, `queue_len`
    /// being the queue's length *including* it. Returns whether to send
    /// a congestion signal now.
    pub fn on_arrival(&mut self, now_ns: u64, queue_len: usize) -> bool {
        self.arrivals += 1;
        let mut congested = queue_len >= self.queue_threshold;
        let elapsed = now_ns.saturating_sub(self.window_start_ns);
        if elapsed >= self.interval_ns {
            let rate = self.arrivals as f64 / (elapsed as f64 / 1e9);
            if rate > self.capacity_rps * RATE_MARGIN {
                congested = true;
            }
            self.arrivals = 0;
            self.window_start_ns = now_ns;
        }
        let signal = congested
            && self
                .last_signal_ns
                .is_none_or(|last| now_ns.saturating_sub(last) >= self.interval_ns);
        if signal {
            self.last_signal_ns = Some(now_ns);
        }
        signal
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn controller(n: usize, cap: f64) -> CreditController {
        CreditController::new(vec![cap; n], CreditsConfig::default())
    }

    #[test]
    fn uncontended_grants_demand_plus_headroom() {
        let mut c = controller(1, 14_000.0);
        let headroom = c.config().headroom;
        c.report_demand(ClientId::new(0), ServerId::new(0), 1_000.0);
        c.report_demand(ClientId::new(1), ServerId::new(0), 2_000.0);
        let g = c.allocate();
        let s0 = ServerId::new(0);
        let g0 = g.rate(s0, ClientId::new(0)).unwrap();
        let g1 = g.rate(s0, ClientId::new(1)).unwrap();
        assert!((g0 - 1_000.0 * headroom).abs() < 1e-9);
        assert!((g1 - 2_000.0 * headroom).abs() < 1e-9);
    }

    #[test]
    fn demand_pressure_floors_usable_capacity() {
        // Even after sustained congestion, grants must sum to (at least)
        // capacity when demand saturates it — backoff redistributes load,
        // it must not suppress throughput.
        let mut c = controller(1, 10_000.0);
        c.report_demand(ClientId::new(0), ServerId::new(0), 8_000.0);
        c.report_demand(ClientId::new(1), ServerId::new(0), 4_000.0);
        for _ in 0..20 {
            c.signal_congestion(ServerId::new(0));
            c.allocate();
        }
        c.signal_congestion(ServerId::new(0));
        let g = c.allocate();
        let total = g.total_rate(ServerId::new(0));
        assert!(
            total >= 10_000.0 - 1e-6,
            "grants {total} fell below saturated capacity"
        );
    }

    #[test]
    fn contended_grants_are_proportional_shares() {
        let mut c = controller(1, 10_000.0);
        c.report_demand(ClientId::new(0), ServerId::new(0), 30_000.0);
        c.report_demand(ClientId::new(1), ServerId::new(0), 10_000.0);
        let g = c.allocate();
        let g0 = g.rate(ServerId::new(0), ClientId::new(0)).unwrap();
        let g1 = g.rate(ServerId::new(0), ClientId::new(1)).unwrap();
        // Proportional 3:1 split of capacity.
        assert!((g0 / g1 - 3.0).abs() < 1e-9, "{g0} vs {g1}");
        assert!((g0 + g1 - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn congestion_backs_off_then_recovers() {
        let mut c = controller(1, 10_000.0);
        let backoff = c.config().backoff;
        c.report_demand(ClientId::new(0), ServerId::new(0), 20_000.0);
        c.signal_congestion(ServerId::new(0));
        c.allocate();
        let after_backoff = c.scale_of(ServerId::new(0));
        assert!((after_backoff - backoff).abs() < 1e-9);
        // Calm epochs recover multiplicatively, capped at 1.
        for _ in 0..10 {
            c.allocate();
        }
        assert!((c.scale_of(ServerId::new(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_congestion_floors_at_min_scale() {
        let mut c = controller(1, 10_000.0);
        let floor = c.config().min_scale;
        for _ in 0..50 {
            c.signal_congestion(ServerId::new(0));
            c.allocate();
        }
        let scale = c.scale_of(ServerId::new(0));
        assert!(
            (scale - floor).abs() < 1e-9,
            "scale {scale} vs floor {floor}"
        );
    }

    #[test]
    fn min_rate_floor_applies() {
        let mut c = controller(1, 10_000.0);
        c.report_demand(ClientId::new(0), ServerId::new(0), 0.0);
        let g = c.allocate();
        assert_eq!(g.rate(ServerId::new(0), ClientId::new(0)), Some(10.0));
        // A client that never reported has no grant row entry.
        assert_eq!(g.rate(ServerId::new(0), ClientId::new(9)), None);
    }

    #[test]
    fn grants_conserve_capacity_under_contention() {
        let mut c = controller(3, 14_000.0);
        for client in 0..18u64 {
            for server in 0..3u64 {
                c.report_demand(ClientId::new(client), ServerId::new(server), 5_000.0);
            }
        }
        let g = c.allocate();
        for (s, row) in g.iter() {
            let total: f64 = row.iter().map(|&(_, r)| r).sum();
            // min_rate floors can push slightly above usable capacity, but
            // never above capacity + clients × min_rate.
            assert!(
                total <= 14_000.0 + 18.0 * 10.0 + 1e-6,
                "server {s} total {total}"
            );
        }
    }

    /// `allocate_into` must be a drop-in for `allocate`: refilling a
    /// reused (dirty) table yields exactly the rates a fresh table gets,
    /// with rows sorted by client id.
    #[test]
    fn allocate_into_reuses_table_without_residue() {
        let mut a = controller(2, 10_000.0);
        let mut b = controller(2, 10_000.0);
        let mut pooled = GrantTable::new();
        for epoch in 0..5u64 {
            // Vary the reporting population so rows shrink and grow.
            for client in 0..(2 + epoch % 3) {
                // Out-of-order reports must still produce sorted rows.
                let client = (2 + epoch % 3) - 1 - client;
                for server in 0..2u64 {
                    let rate = 1_000.0 * (client + 1) as f64;
                    a.report_demand(ClientId::new(client), ServerId::new(server), rate);
                    b.report_demand(ClientId::new(client), ServerId::new(server), rate);
                }
            }
            if epoch % 2 == 0 {
                a.signal_congestion(ServerId::new(1));
                b.signal_congestion(ServerId::new(1));
            }
            a.allocate_into(&mut pooled);
            let fresh = b.allocate();
            assert_eq!(pooled.num_servers(), fresh.num_servers());
            for server in 0..2u64 {
                let s = ServerId::new(server);
                assert_eq!(pooled.server(s), fresh.server(s), "epoch {epoch}");
                assert!(
                    pooled.server(s).windows(2).all(|w| w[0].0 < w[1].0),
                    "row not sorted at epoch {epoch}"
                );
            }
        }
        assert_eq!(a.epochs(), 5);
    }

    #[test]
    fn bucket_accrues_and_spends() {
        let mut b = CreditBucket::new(1_000.0, 5.0); // 1 token/ms, burst 5
        assert!(b.try_take(0));
        for _ in 0..4 {
            assert!(b.try_take(0));
        }
        assert!(!b.try_take(0), "burst exhausted");
        // After 2ms, two tokens accrued.
        assert!(b.try_take(2_000_000));
        assert!(b.try_take(2_000_000));
        assert!(!b.try_take(2_000_000));
    }

    #[test]
    fn bucket_burst_caps_accrual() {
        let mut b = CreditBucket::new(1_000.0, 3.0);
        // A long idle period cannot bank more than burst.
        assert!((b.tokens_at(10_000_000_000) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_ns_until_token() {
        let mut b = CreditBucket::new(1_000.0, 1.0);
        assert_eq!(b.ns_until_token(0), 0);
        assert!(b.try_take(0));
        // Next token in 1ms.
        let eta = b.ns_until_token(0);
        assert!((900_000..=1_100_000).contains(&eta), "{eta}");
        let mut zero = CreditBucket::new(0.0, 1.0);
        assert!(zero.try_take(0)); // initial burst token
        assert_eq!(zero.ns_until_token(0), u64::MAX);
    }

    #[test]
    fn set_rate_rescales_burst_and_clamps_tokens() {
        let mut b = CreditBucket::new(10_000.0, 500.0);
        b.set_rate(0, 100.0, 0.05);
        // New burst = 100 × 0.05 = 5; banked tokens clamp down.
        assert!((b.tokens_at(0) - 5.0).abs() < 1e-9);
        assert_eq!(b.rate(), 100.0);
    }

    fn servers(ids: &[u64]) -> Vec<ServerId> {
        ids.iter().map(|&s| ServerId::new(s)).collect()
    }

    #[test]
    fn client_spends_tokens_and_reports_the_earliest_eta() {
        // 1 000 rps servers among 100 clients: a 10 rps fair share, so
        // every bucket starts with exactly one token.
        let mut c = CreditClient::new(2, 100, 1_000.0, 0.05);
        let group = servers(&[0, 1]);
        // Equal load: the tie goes to the lower id; then to the server
        // with nothing outstanding.
        assert_eq!(c.admit(0, &group), Ok(ServerId::new(0)));
        assert_eq!(c.admit(0, &group), Ok(ServerId::new(1)));
        assert_eq!(c.outstanding(ServerId::new(0)), 1);
        // Both buckets drained; at 10 rps the next token is 100 ms out.
        assert_eq!(c.admit(1, &group), Err(99_999_999));
        // A grant of rate zero never accrues: re-probe in 1 ms.
        c.set_grant(1, ServerId::new(0), 0.0);
        c.set_grant(1, ServerId::new(1), 0.0);
        assert_eq!(c.admit(2, &group), Err(REPROBE_NS));
    }

    #[test]
    fn client_weighs_outstanding_and_piggybacked_queues() {
        let mut c = CreditClient::new(2, 2, 10_000.0, 0.1);
        let group = servers(&[0, 1]);
        let first = c.admit(0, &group).unwrap();
        let second = c.admit(0, &group).unwrap();
        // Outstanding weighting spreads consecutive picks.
        assert_ne!(first, second);
        c.on_abandon(first);
        assert_eq!(c.outstanding(first), 0);
        c.on_response(second, 6);
        assert_eq!(c.outstanding(second), 0);
        // The queue EWMA from piggybacked feedback steers the next pick
        // away from the slow server.
        assert_eq!(c.admit(20, &group), Ok(first));
    }

    /// A recorded drive of the client — admissions, feedback, a grant
    /// and two measurement windows — with every output pinned
    /// bit-for-bit. The simulator's golden run hashes depend on exactly
    /// these values; this is the 10 ms version of that 90 s check.
    #[test]
    fn client_outputs_are_pinned_bit_for_bit() {
        let mut c = CreditClient::new(3, 4, 1_000.0, 0.02);
        let (g01, g12) = (servers(&[0, 1]), servers(&[1, 2]));
        let mut picks = Vec::new();
        // One admission per microsecond until both buckets of group
        // {0, 1} run dry (5 tokens each at the fair share).
        let burst = [
            &g01, &g12, &g01, &g12, &g01, &g12, &g12, &g01, &g01, &g01, &g01, &g01, &g01,
        ];
        for (i, group) in burst.into_iter().enumerate() {
            picks.push(c.admit(i as u64 * 1_000, group).map(|s| s.raw()));
        }
        c.on_response(ServerId::new(1), 7);
        c.on_response(ServerId::new(2), 3);
        c.on_abandon(ServerId::new(0));
        c.set_grant(2_000_000, ServerId::new(2), 1_700.0);
        for (now_ns, group) in [
            (3_000_000, &g12),
            (3_500_000, &g12),
            (4_000_000, &g01),
            (9_000_000, &g01),
        ] {
            picks.push(c.admit(now_ns, group).map(|s| s.raw()));
        }
        assert_eq!(picks[..12], [0, 1, 0, 2, 1, 2, 1, 0, 0, 1, 0, 1].map(Ok));
        assert_eq!(picks[12..], [Err(3_988_000), Ok(2), Ok(2), Ok(0), Ok(1)]);

        let mut demands = Vec::new();
        let backlog = [(2.0, g01.as_slice()), (0.0, g12.as_slice())];
        c.measure(0.01, backlog, &mut demands);
        // A quiet second window: demand decays instead of collapsing.
        c.measure(0.01, [(1.0, g12.as_slice())], &mut demands);
        // `==` on these is bit equality: 700 × 0.7 is not 490.
        assert_eq!(
            demands,
            [
                (0, 700.0),
                (1, 700.0),
                (2, 400.0),
                (0, 489.99999999999994),
                (1, 504.99999999999994),
                (2, 295.0)
            ]
        );
    }

    proptest! {
        /// Whatever grants, feedback and clock it is driven with, the
        /// client dispatches only to a candidate holding a token, and a
        /// refusal's `retry_in_ns` is the earliest token ETA among the
        /// candidates (1 ms when none will ever accrue).
        #[test]
        fn client_never_dispatches_without_a_token(
            steps in proptest::collection::vec(
                (0u64..3_000_000, 1usize..16, 0u8..4, 0u32..4_000),
                1..200,
            )
        ) {
            let mut c = CreditClient::new(4, 20, 2_000.0, 0.01);
            let mut now_ns = 0;
            for (dt_ns, mask, op, rate_rps) in steps {
                now_ns += dt_ns;
                let server = ServerId::new((mask % 4) as u64);
                match op {
                    0 => c.set_grant(now_ns, server, f64::from(rate_rps)),
                    1 => c.on_response(server, u64::from(rate_rps % 50)),
                    _ => {
                        let group: Vec<ServerId> = (0..4u64)
                            .filter(|s| mask & (1 << s) != 0)
                            .map(ServerId::new)
                            .collect();
                        let mut before = c.servers.clone();
                        match c.admit(now_ns, &group) {
                            Ok(s) => {
                                prop_assert!(group.contains(&s));
                                prop_assert!(before[s.index()].bucket.tokens_at(now_ns) >= 1.0);
                            }
                            Err(retry_in_ns) => {
                                let eta = group
                                    .iter()
                                    .map(|s| before[s.index()].bucket.ns_until_token(now_ns))
                                    .min()
                                    .unwrap();
                                prop_assert!(eta > 0, "refused with a token available");
                                let want = if eta == u64::MAX { REPROBE_NS } else { eta };
                                prop_assert_eq!(retry_in_ns, want);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn congestion_signals_at_most_once_per_interval() {
        let interval_ns = 100_000_000;
        let mut d = CongestionDetector::new(8, 1e12, interval_ns);
        // A queue standing above the threshold for a second, one
        // arrival per millisecond.
        let signals: Vec<u64> = (0..1_000u64)
            .map(|i| i * 1_000_000)
            .filter(|&now_ns| d.on_arrival(now_ns, 8))
            .collect();
        assert_eq!(signals.len(), 10);
        assert!(signals.windows(2).all(|w| w[1] - w[0] >= interval_ns));
        // The first congested arrival signals even at t = 0: "never
        // signalled" is its own state, not a timestamp of zero, so the
        // arrival right after it is correctly suppressed.
        assert_eq!(signals[..2], [0, interval_ns]);
        // Below the threshold nothing fires.
        let mut calm = CongestionDetector::new(8, 1e12, interval_ns);
        assert!((0..1_000u64).all(|i| !calm.on_arrival(i * 1_000_000, 7)));
    }

    #[test]
    fn congestion_rate_trigger_needs_more_than_five_percent_over_capacity() {
        // A 1 s window (so the measured rate is exactly the arrival
        // count) on a 1 000 rps server: the trigger is rate > 1 050.
        for (arrivals, fires) in [(1_000u64, false), (1_050, false), (1_051, true)] {
            let mut d = CongestionDetector::new(usize::MAX, 1_000.0, 1_000_000_000);
            let mut signalled = false;
            for i in 1..=arrivals {
                signalled |= d.on_arrival(i * 1_000_000_000 / arrivals, 0);
            }
            assert_eq!(signalled, fires, "{arrivals} arrivals in one second");
        }
    }

    #[test]
    fn config_validation() {
        let mut c = CreditsConfig::default();
        assert!(c.validate().is_ok());
        c.backoff = 1.5;
        assert!(c.validate().is_err());
        c = CreditsConfig {
            recovery: 0.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = CreditsConfig {
            adaptation_interval_ns: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "unknown server")]
    fn demand_for_unknown_server_panics() {
        let mut c = controller(1, 100.0);
        c.report_demand(ClientId::new(0), ServerId::new(5), 1.0);
    }
}
