//! Coordinator-side of the sharded query service: scatter–gather over the
//! shard workers with shard-level fault tolerance.
//!
//! The [`Coordinator`] is the same serving front as the local service —
//! it derefs to the same [`DispatchCore`], so `submit`, `health`,
//! `breaker_state` and the rest are the core's methods — with a
//! [`QueryExecutor`] plugged in that *scatters* each admitted query to
//! every shard through one [`WireClient`] per peer and *gathers* the
//! streamed partial answers back into one [`QueryOutcome`]:
//!
//! * **Deadline propagation** — each shard request carries the *remaining*
//!   per-query budget in milliseconds, computed at send time, and the
//!   socket read deadline is clamped to it, so a slow shard cannot spend
//!   wall clock the client has already lost.
//! * **Bounded retries** — a transport failure (connect refused, checksum
//!   mismatch, truncated frame, mid-stream hangup) tears the connection
//!   down and retries up to [`RunnerConfig::max_retries`] times with the
//!   runner's doubling backoff and fingerprint-seeded jitter, all charged
//!   against the same query budget.
//! * **Per-peer circuit breakers** — the core's [`BreakerRegistry`] has
//!   one slot per *shard peer* (slot = peer index): peers that keep
//!   failing transport are quarantined, skipped outright for the cool-down,
//!   then probed half-open. Shard-internal per-graph faults do **not**
//!   charge peer breakers — the shard answered, so the peer is healthy;
//!   its own per-graph breakers handle sick graphs.
//! * **Graceful degradation** — when a peer is down, over budget, masked by
//!   its breaker, or returning garbage after retries, the coordinator does
//!   not fail the query: it returns a *partial* outcome in which every
//!   graph placed on that shard is attributed
//!   [`QueryStatus::Unavailable`]
//!   (never silently dropped), while answers from healthy shards are
//!   byte-identical to a single-process run.
//!
//! Determinism: gather merges in peer order, answers are re-sorted by
//! global id and failures by graph id, and the breaker clock ticks once
//! per admitted query — so for a fixed fault pattern the merged report is
//! identical at any scatter-thread count.

use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sqp_graph::database::GraphId;
use sqp_graph::{Graph, GraphDb};

use crate::breaker::{BreakerConfig, BreakerRegistry, BreakerState};
use crate::dispatch::{
    DispatchConfig, DispatchCore, DrainReport, Executed, QueryExecutor, ShedPolicy,
};
use crate::engine::{GraphFailure, QueryOutcome, QueryStatus};
use crate::journal::db_fingerprint;
use crate::parallel::lock;
use crate::runner::{retry_loop, RunnerConfig};
use crate::shard::ShardPlacement;
use crate::wire::{Greeting, WireClient, WireConfig, WireError, WireOutcome};

/// Configuration of a [`Coordinator`].
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// One address per shard, in shard-index order.
    pub shard_addrs: Vec<String>,
    /// Budget / retry / backoff policy. `max_retries` bounds *transport*
    /// retries per peer per query; `query_budget` is propagated to shards.
    pub runner: RunnerConfig,
    /// Per-peer circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Bound on queries admitted but not yet scattered.
    pub queue_capacity: usize,
    /// Deadline-aware shedding; `None` disables the predictive check.
    pub shed: Option<ShedPolicy>,
    /// Drain window for [`Coordinator::shutdown`].
    pub drain_deadline: Duration,
    /// Shard requests issued concurrently per query (clamped to ≥ 1). The
    /// merged result is identical at any value — the chaos suite sweeps
    /// 1/2/4/8 to prove it.
    pub scatter_threads: usize,
    /// Wire protocol limits (frame cap).
    pub wire: WireConfig,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Socket read deadline when the query budget is unlimited — the
    /// backstop that turns a wedged shard into `Unavailable` instead of a
    /// hung coordinator. With a budget set, the smaller of the two wins.
    pub idle_read_timeout: Duration,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            shard_addrs: Vec::new(),
            runner: RunnerConfig::default(),
            breaker: BreakerConfig::default(),
            queue_capacity: 64,
            shed: None,
            drain_deadline: Duration::from_secs(5),
            scatter_threads: 4,
            wire: WireConfig::default(),
            connect_timeout: Duration::from_secs(2),
            idle_read_timeout: Duration::from_secs(30),
        }
    }
}

/// Per-peer serving counters, for the `sqp_shard_*` exposition families.
#[derive(Clone, Debug)]
pub struct ShardPeerStats {
    /// The peer's address.
    pub addr: String,
    /// Shard index of the peer.
    pub shard_index: usize,
    /// Queries scattered to this peer (excluding breaker short-circuits).
    pub queries: u64,
    /// Transport retries spent on this peer.
    pub retries: u64,
    /// Queries on which this peer ended `Unavailable` (dead, over budget,
    /// or corrupting after retries).
    pub unavailable: u64,
    /// Current breaker state of the peer.
    pub state: BreakerState,
}

#[derive(Default)]
struct PeerCounters {
    queries: AtomicU64,
    retries: AtomicU64,
    unavailable: AtomicU64,
}

struct Peer {
    addr: String,
    index: usize,
    /// The live connection, if any. Held only while actually doing IO on
    /// this peer (the protocol is lockstep per query per peer).
    io: Mutex<Option<WireClient>>,
    /// A clone of the live stream for [`QueryExecutor::cancel`] to sever
    /// without contending the IO lock.
    cancel_handle: Mutex<Option<TcpStream>>,
    counters: PeerCounters,
}

impl Peer {
    fn sever(&self) {
        if let Some(s) = lock(&self.cancel_handle).take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// What one peer contributed to one query.
enum PeerResult {
    /// The peer answered: global answer ids, the outcome projection, and
    /// the transport retries spent.
    Answered(Vec<GraphId>, Box<WireOutcome>, u32),
    /// The peer is unavailable after `u32` transport retries.
    Unavailable(u32),
}

struct RemoteExecutor {
    peers: Vec<Peer>,
    placement: ShardPlacement,
    db_fp: u64,
    wire: WireConfig,
    connect_timeout: Duration,
    idle_read_timeout: Duration,
    scatter_threads: usize,
    cancelled: AtomicBool,
}

impl RemoteExecutor {
    /// One shard round-trip: connect (with handshake) if needed, send the
    /// query with the remaining budget, gather streamed answers until the
    /// terminal outcome. Any error tears the connection down.
    fn try_peer_once(
        &self,
        peer: &Peer,
        q: &Graph,
        remaining: Option<Duration>,
    ) -> Result<(Vec<GraphId>, WireOutcome), WireError> {
        let mut io = lock(&peer.io);
        let result = self.try_peer_io(peer, &mut io, q, remaining);
        if result.is_err() {
            *io = None;
            peer.sever();
        }
        result
    }

    fn try_peer_io(
        &self,
        peer: &Peer,
        io: &mut Option<WireClient>,
        q: &Graph,
        remaining: Option<Duration>,
    ) -> Result<(Vec<GraphId>, WireOutcome), WireError> {
        let client = match io {
            Some(client) => client,
            None => {
                let connect_timeout = match remaining {
                    Some(left) => left.max(Duration::from_millis(1)).min(self.connect_timeout),
                    None => self.connect_timeout,
                };
                let client = WireClient::connect(
                    &peer.addr,
                    Greeting::coordinator(self.db_fp, self.peers.len(), peer.index),
                    self.placement.globals(peer.index).len(),
                    self.wire,
                    connect_timeout,
                    self.idle_read_timeout,
                )?;
                *lock(&peer.cancel_handle) = client.try_clone_stream().ok();
                io.insert(client)
            }
        };
        // The read deadline is the remaining budget (plus slack for the
        // reply to travel), floored by the idle backstop: a shard that
        // stays silent past it is unavailable, not waited on forever.
        let read_deadline = match remaining {
            Some(left) => (left + Duration::from_millis(250)).min(self.idle_read_timeout),
            None => self.idle_read_timeout,
        };
        client.query(q, remaining, read_deadline)
    }

    /// Queries one peer with bounded, budget-charged, jittered retries of
    /// transport failures.
    fn query_peer(
        &self,
        peer: &Peer,
        q: &Graph,
        mut runner: RunnerConfig,
        start: Instant,
    ) -> PeerResult {
        peer.counters.queries.fetch_add(1, Ordering::Relaxed);
        // Waiting for a scatter thread already spent part of the budget.
        runner.query_budget = runner.query_budget.map(|b| b.saturating_sub(start.elapsed()));
        let cancelled = || self.cancelled.load(Ordering::Acquire);
        let (result, attempts) = retry_loop(
            runner,
            |result: &Result<_, WireError>| result.is_err() && !cancelled(),
            |left| {
                if cancelled() || left.is_some_and(|l| l.is_zero()) {
                    return Err(WireError::Closed);
                }
                self.try_peer_once(peer, q, left)
            },
        );
        peer.counters.retries.fetch_add(u64::from(attempts), Ordering::Relaxed);
        match result {
            Ok((answers, outcome)) => PeerResult::Answered(answers, Box::new(outcome), attempts),
            Err(_) => {
                peer.counters.unavailable.fetch_add(1, Ordering::Relaxed);
                PeerResult::Unavailable(attempts)
            }
        }
    }
}

impl QueryExecutor for RemoteExecutor {
    fn execute(&self, q: &Arc<Graph>, runner: RunnerConfig, mask: Option<Arc<[bool]>>) -> Executed {
        let start = Instant::now();
        // Breaker slot = peer index.
        let masked = |i: usize| mask.as_ref().is_some_and(|m| m[i]);

        // Scatter: a shared cursor over unmasked peers, drained by up to
        // `scatter_threads` workers. Results land in per-peer slots, so the
        // gather below is in peer order no matter the interleaving.
        let jobs: Vec<usize> = (0..self.peers.len()).filter(|&i| !masked(i)).collect();
        let mut slots: Vec<Option<PeerResult>> = Vec::new();
        slots.resize_with(self.peers.len(), || None);
        let slots = Mutex::new(slots);
        let cursor = AtomicU64::new(0);
        let workers = self.scatter_threads.max(1).min(jobs.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let at = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(&peer_idx) = jobs.get(at) else { return };
                    let result = self.query_peer(&self.peers[peer_idx], q, runner, start);
                    lock(&slots)[peer_idx] = Some(result);
                });
            }
        });
        let slots = lock(&slots);

        // Gather, in peer order.
        let mut outcome = QueryOutcome::default();
        let mut peer_records: Vec<GraphFailure> = Vec::new();
        let mut retries_total: u32 = 0;
        for i in 0..self.peers.len() {
            // `lost`: the peer contributed nothing — what its breaker is
            // told, and the transport retries spent finding out.
            let lost = match slots[i].as_ref() {
                // Breaker short-circuit: no probe happened, and the
                // quarantine record tells `observe` not to (re-)charge it.
                _ if masked(i) => Some((QueryStatus::Quarantined, 0)),
                Some(PeerResult::Answered(answers, wire_outcome, transport_retries)) => {
                    outcome.answers.extend_from_slice(answers);
                    outcome.status.absorb(wire_outcome.status.clone());
                    outcome.failures.extend(wire_outcome.failures.iter().cloned());
                    outcome.candidates += wire_outcome.candidates as usize;
                    outcome.aux_bytes += wire_outcome.aux_bytes as usize;
                    // Shards run concurrently: wall-clock per step is the
                    // slowest shard, not the sum.
                    outcome.filter_time =
                        outcome.filter_time.max(Duration::from_nanos(wire_outcome.filter_nanos));
                    outcome.verify_time =
                        outcome.verify_time.max(Duration::from_nanos(wire_outcome.verify_nanos));
                    outcome.kernel.merge(&wire_outcome.kernel);
                    outcome.phases.merge(&wire_outcome.phases);
                    retries_total =
                        retries_total.saturating_add(wire_outcome.retries + transport_retries);
                    None
                }
                Some(PeerResult::Unavailable(transport_retries)) => {
                    Some((QueryStatus::Unavailable, *transport_retries))
                }
                // Defensive: a scatter worker died before filling the slot.
                // Treat exactly like a dead peer.
                None => Some((QueryStatus::Unavailable, 0)),
            };
            if let Some((status, transport_retries)) = lost {
                // Whatever the reason, the user-visible attribution of every
                // graph placed on the peer is Unavailable — never a drop.
                outcome.failures.extend(
                    self.placement
                        .globals(i)
                        .iter()
                        .map(|&graph| GraphFailure { graph, status: QueryStatus::Unavailable }),
                );
                outcome.status.absorb(QueryStatus::Unavailable);
                retries_total = retries_total.saturating_add(transport_retries);
                peer_records.push(GraphFailure { graph: GraphId(i as u32), status });
            }
        }
        // Determinism: global order regardless of scatter interleaving.
        outcome.answers.sort_unstable();
        outcome.failures.sort_by_key(|f| f.graph);

        // What the per-peer registry observes. Every unmasked peer was
        // probed, so the scan is never "interrupted" at peer granularity:
        // status Completed + explicit records only.
        let observed = QueryOutcome { failures: peer_records, ..QueryOutcome::default() };
        Executed { outcome, retries: retries_total, observed: Some(observed) }
    }

    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        self.peers.iter().for_each(Peer::sever);
    }

    fn live_units(&self, breakers: &BreakerRegistry) -> usize {
        let live: usize = self
            .peers
            .iter()
            .filter(|p| breakers.state(GraphId(p.index as u32)) != BreakerState::Open)
            .map(|p| self.placement.globals(p.index).len())
            .sum();
        live.max(1)
    }
}

/// The scatter–gather front of the sharded service. Same serving surface
/// as [`crate::service::QueryService`] — both deref to the one
/// [`DispatchCore`]; see the module docs for the fault model.
pub struct Coordinator {
    core: DispatchCore,
    exec: Arc<RemoteExecutor>,
}

/// The serving surface — `submit*`, `health`, `breaker_*`
/// (slots are peer indices), `runner_config` / `set_runner_config`,
/// `begin_drain` — is the core's.
impl std::ops::Deref for Coordinator {
    type Target = DispatchCore;

    fn deref(&self) -> &DispatchCore {
        &self.core
    }
}

impl Coordinator {
    /// Builds a coordinator over `db` (needed to compute the placement and
    /// database fingerprint; connections are opened lazily per peer).
    pub fn new(db: &GraphDb, config: CoordinatorConfig) -> Self {
        let CoordinatorConfig {
            shard_addrs,
            runner,
            breaker,
            queue_capacity,
            shed,
            drain_deadline,
            scatter_threads,
            wire,
            connect_timeout,
            idle_read_timeout,
        } = config;
        let placement = ShardPlacement::new(db, shard_addrs.len().max(1));
        let peers: Vec<Peer> = shard_addrs
            .into_iter()
            .enumerate()
            .map(|(index, addr)| Peer {
                addr,
                index,
                io: Mutex::default(),
                cancel_handle: Mutex::default(),
                counters: PeerCounters::default(),
            })
            .collect();
        let breakers = BreakerRegistry::new(breaker, peers.len());
        let exec = Arc::new(RemoteExecutor {
            peers,
            placement,
            db_fp: db_fingerprint(db),
            wire,
            connect_timeout,
            idle_read_timeout,
            scatter_threads,
            cancelled: AtomicBool::new(false),
        });
        let core = DispatchCore::new(
            Arc::clone(&exec) as Arc<dyn QueryExecutor>,
            DispatchConfig {
                runner,
                breakers,
                queue_capacity,
                shed,
                drain_deadline,
                thread_name: "sqp-coord-exec".to_string(),
            },
        );
        Self { core, exec }
    }

    /// Per-peer counters and breaker states.
    pub fn peer_stats(&self) -> Vec<ShardPeerStats> {
        self.exec
            .peers
            .iter()
            .map(|p| ShardPeerStats {
                addr: p.addr.clone(),
                shard_index: p.index,
                queries: p.counters.queries.load(Ordering::Relaxed),
                retries: p.counters.retries.load(Ordering::Relaxed),
                unavailable: p.counters.unavailable.load(Ordering::Relaxed),
                state: self.core.breaker_state(p.index),
            })
            .collect()
    }

    /// The placement attribution is computed from.
    pub fn placement(&self) -> &ShardPlacement {
        &self.exec.placement
    }

    /// Drains, says goodbye to every reachable peer, and stops.
    pub fn shutdown(mut self) -> DrainReport {
        let report = self.core.shutdown_inner();
        for peer in &self.exec.peers {
            if let Some(client) = lock(&peer.io).take() {
                client.bye();
            }
            *lock(&peer.cancel_handle) = None;
        }
        report
    }
}
