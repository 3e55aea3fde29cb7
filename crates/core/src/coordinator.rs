//! Coordinator-side of the sharded query service: scatter–gather over the
//! shard workers with shard-level fault tolerance.
//!
//! The [`Coordinator`] reuses the exact admission machinery of the local
//! service — the same [`DispatchCore`] drives both — but plugs in a
//! [`QueryExecutor`] that *scatters* each admitted query to every shard
//! over the [`crate::wire`] protocol and *gathers* the streamed partial
//! answers back into one [`QueryOutcome`]:
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
//! * **Per-peer circuit breakers** — the [`BreakerRegistry`] is reused
//!   with one slot per *shard peer* (slot = peer index): peers that keep
//!   failing transport are quarantined, skipped outright for the cool-down,
//!   then probed half-open. Shard-internal per-graph faults do **not**
//!   charge peer breakers — the shard answered, so the peer is healthy;
//!   its own per-graph breakers handle sick graphs.
//! * **Graceful degradation** — when a peer is down, over budget, masked by
//!   its breaker, or returning garbage after retries, the coordinator does
//!   not fail the query: it returns a *partial* outcome in which every
//!   graph placed on that shard is attributed
//!   [`QueryStatus::Unavailable`](crate::engine::QueryStatus::Unavailable)
//!   (never silently dropped), while answers from healthy shards are
//!   byte-identical to a single-process run.
//!
//! Determinism: gather merges in peer order, answers are re-sorted by
//! global id and failures by graph id, and the breaker clock ticks once
//! per admitted query — so for a fixed fault pattern the merged report is
//! identical at any scatter-thread count.

use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sqp_graph::database::GraphId;
use sqp_graph::{Graph, GraphDb};

use crate::breaker::{BreakerConfig, BreakerRegistry, BreakerState, BreakerTransition};
use crate::chaos::graph_fingerprint;
use crate::dispatch::{
    effective_budget, Admission, DispatchConfig, DispatchCore, DrainReport, QueryExecutor,
    QueryTicket, ShedPolicy,
};
use crate::engine::{GraphFailure, QueryOutcome, QueryStatus};
use crate::journal::db_fingerprint;
use crate::metrics::{QuerySetReport, ServiceHealth};
use crate::parallel::lock;
use crate::runner::{jittered, RunnerConfig};
use crate::shard::ShardPlacement;
use crate::wire::{
    read_frame, write_frame, Message, PeerRole, WireConfig, WireError, WireOutcome, WIRE_VERSION,
};

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
    io: Mutex<Option<TcpStream>>,
    /// A clone of the live stream for [`QueryExecutor::cancel`] to sever
    /// without contending the IO lock.
    cancel_handle: Mutex<Option<TcpStream>>,
    counters: PeerCounters,
}

impl Peer {
    fn disconnect(&self) {
        *lock(&self.io) = None;
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
    breakers: Mutex<BreakerRegistry>,
    runner: Mutex<RunnerConfig>,
    wire: WireConfig,
    connect_timeout: Duration,
    idle_read_timeout: Duration,
    scatter_threads: usize,
    next_id: AtomicU64,
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
        let result = self.try_peer_io(peer, q, remaining);
        if result.is_err() {
            peer.disconnect();
        }
        result
    }

    fn try_peer_io(
        &self,
        peer: &Peer,
        q: &Graph,
        remaining: Option<Duration>,
    ) -> Result<(Vec<GraphId>, WireOutcome), WireError> {
        let mut io = lock(&peer.io);
        if io.is_none() {
            *io = Some(self.connect(peer, remaining)?);
        }
        let stream = match io.as_mut() {
            Some(s) => s,
            None => return Err(WireError::Closed),
        };
        // The read deadline is the remaining budget (plus slack for the
        // reply to travel), floored by the idle backstop: a shard that
        // stays silent past it is unavailable, not waited on forever.
        let read_deadline = match remaining {
            Some(left) => (left + Duration::from_millis(250)).min(self.idle_read_timeout),
            None => self.idle_read_timeout,
        };
        stream.set_read_timeout(Some(read_deadline.max(Duration::from_millis(1))))?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let budget_ms = remaining.map_or(0, |d| d.as_millis().max(1) as u64);
        write_frame(stream, &Message::Query { id, budget_ms, graph: q.clone() })?;
        let mut answers: Vec<GraphId> = Vec::new();
        loop {
            match read_frame(stream, &self.wire)? {
                Message::Answers { id: got, graphs } if got == id => answers.extend(graphs),
                Message::Outcome { id: got, outcome } if got == id => {
                    return Ok((answers, outcome));
                }
                Message::Error { message } => return Err(WireError::Remote(message)),
                _ => {
                    return Err(WireError::Remote("unexpected frame in query stream".into()));
                }
            }
        }
    }

    fn connect(&self, peer: &Peer, remaining: Option<Duration>) -> Result<TcpStream, WireError> {
        let timeout = match remaining {
            Some(left) if left < self.connect_timeout => left.max(Duration::from_millis(1)),
            _ => self.connect_timeout,
        };
        let mut last = None;
        for addr in peer.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream.set_read_timeout(Some(self.idle_read_timeout))?;
                    let mut stream = stream;
                    write_frame(
                        &mut stream,
                        &Message::Hello {
                            version: WIRE_VERSION,
                            role: PeerRole::Coordinator,
                            db_fp: self.db_fp,
                            shards: self.peers.len() as u32,
                            shard_index: peer.index as u32,
                        },
                    )?;
                    match read_frame(&mut stream, &self.wire)? {
                        Message::HelloAck { version: WIRE_VERSION, db_fp, graphs }
                            if db_fp == self.db_fp
                                && graphs as usize == self.placement.globals(peer.index).len() =>
                        {
                            if let Ok(clone) = stream.try_clone() {
                                *lock(&peer.cancel_handle) = Some(clone);
                            }
                            return Ok(stream);
                        }
                        Message::Error { message } => return Err(WireError::Remote(message)),
                        _ => {
                            return Err(WireError::Remote(
                                "handshake rejected: version/db/placement mismatch".into(),
                            ))
                        }
                    }
                }
                Err(e) => last = Some(e),
            }
        }
        Err(match last {
            Some(e) => WireError::Io(e),
            None => WireError::Remote(format!("no usable address for {}", peer.addr)),
        })
    }

    /// Queries one peer with bounded, budget-charged, jittered retries.
    fn query_peer(
        &self,
        peer: &Peer,
        q: &Graph,
        runner: &RunnerConfig,
        start: Instant,
    ) -> PeerResult {
        let remaining =
            |start: Instant| runner.query_budget.map(|b| b.saturating_sub(start.elapsed()));
        peer.counters.queries.fetch_add(1, Ordering::Relaxed);
        let mut backoff = runner.retry_backoff;
        let mut attempts: u32 = 0;
        loop {
            if self.cancelled.load(Ordering::Acquire) {
                peer.counters.unavailable.fetch_add(1, Ordering::Relaxed);
                return PeerResult::Unavailable(attempts);
            }
            let left = remaining(start);
            if matches!(left, Some(l) if l.is_zero()) {
                peer.counters.unavailable.fetch_add(1, Ordering::Relaxed);
                return PeerResult::Unavailable(attempts);
            }
            match self.try_peer_once(peer, q, left) {
                Ok((answers, outcome)) => {
                    return PeerResult::Answered(answers, Box::new(outcome), attempts)
                }
                Err(_) if attempts < runner.max_retries => {
                    let sleep = jittered(backoff, runner.jitter_seed, attempts);
                    match remaining(start) {
                        Some(l) if l.is_zero() => {}
                        Some(l) => std::thread::sleep(sleep.min(l)),
                        None => std::thread::sleep(sleep),
                    }
                    backoff = backoff.saturating_mul(2);
                    attempts += 1;
                    peer.counters.retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    peer.counters.unavailable.fetch_add(1, Ordering::Relaxed);
                    return PeerResult::Unavailable(attempts);
                }
            }
        }
    }

    /// Attributes every graph placed on `peer` as `status`.
    fn attribute_all(&self, peer: usize, status: QueryStatus, failures: &mut Vec<GraphFailure>) {
        for &g in self.placement.globals(peer) {
            failures.push(GraphFailure { graph: g, status: status.clone() });
        }
    }

    fn peer_stats(&self) -> Vec<ShardPeerStats> {
        let breakers = lock(&self.breakers);
        self.peers
            .iter()
            .map(|p| ShardPeerStats {
                addr: p.addr.clone(),
                shard_index: p.index,
                queries: p.counters.queries.load(Ordering::Relaxed),
                retries: p.counters.retries.load(Ordering::Relaxed),
                unavailable: p.counters.unavailable.load(Ordering::Relaxed),
                state: breakers.state(GraphId(p.index as u32)),
            })
            .collect()
    }
}

impl QueryExecutor for RemoteExecutor {
    fn execute(&self, q: &Arc<Graph>, budget_override: Option<Duration>) -> (QueryOutcome, u32) {
        let mut runner = lock(&self.runner).with_jitter_seed(graph_fingerprint(q));
        runner.query_budget = effective_budget(runner.query_budget, budget_override);
        let start = Instant::now();
        // One breaker tick per admitted query; slot = peer index.
        let mask = lock(&self.breakers).begin_query();
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
                    let result = self.query_peer(&self.peers[peer_idx], q, &runner, start);
                    lock(&slots)[peer_idx] = Some(result);
                });
            }
        });
        let slots = lock(&slots);

        // Gather, in peer order.
        let mut outcome = QueryOutcome::default();
        let mut peer_records: Vec<GraphFailure> = Vec::new();
        let mut retries_total: u32 = 0;
        for (i, _) in self.peers.iter().enumerate() {
            if masked(i) {
                // Breaker short-circuit: no probe happened. The quarantine
                // record tells `observe` not to (re-)charge the peer; the
                // user-visible attribution is Unavailable.
                self.attribute_all(i, QueryStatus::Unavailable, &mut outcome.failures);
                outcome.status.absorb(QueryStatus::Unavailable);
                peer_records.push(GraphFailure {
                    graph: GraphId(i as u32),
                    status: QueryStatus::Quarantined,
                });
                continue;
            }
            match slots[i].as_ref() {
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
                }
                Some(PeerResult::Unavailable(transport_retries)) => {
                    self.attribute_all(i, QueryStatus::Unavailable, &mut outcome.failures);
                    outcome.status.absorb(QueryStatus::Unavailable);
                    retries_total = retries_total.saturating_add(*transport_retries);
                    peer_records.push(GraphFailure {
                        graph: GraphId(i as u32),
                        status: QueryStatus::Unavailable,
                    });
                }
                None => {
                    // Defensive: a scatter worker died before filling the
                    // slot. Treat exactly like a dead peer.
                    self.attribute_all(i, QueryStatus::Unavailable, &mut outcome.failures);
                    outcome.status.absorb(QueryStatus::Unavailable);
                    peer_records.push(GraphFailure {
                        graph: GraphId(i as u32),
                        status: QueryStatus::Unavailable,
                    });
                }
            }
        }
        // Determinism: global order regardless of scatter interleaving.
        outcome.answers.sort_unstable();
        outcome.failures.sort_by_key(|f| f.graph);

        // Feed the per-peer registry. Every unmasked peer was probed, so
        // the scan is never "interrupted" at peer granularity: status
        // Completed + explicit records only.
        let observe = QueryOutcome { failures: peer_records, ..QueryOutcome::default() };
        lock(&self.breakers).observe(&observe);
        (outcome, retries_total)
    }

    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        for peer in &self.peers {
            if let Some(s) = lock(&peer.cancel_handle).take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }

    fn live_units(&self) -> usize {
        let breakers = lock(&self.breakers);
        let live: usize = self
            .peers
            .iter()
            .filter(|p| breakers.state(GraphId(p.index as u32)) != BreakerState::Open)
            .map(|p| self.placement.globals(p.index).len())
            .sum();
        live.max(1)
    }

    fn query_budget(&self) -> Option<Duration> {
        lock(&self.runner).query_budget
    }
}

/// The scatter–gather front of the sharded service. Same serving surface
/// as [`crate::service::QueryService`], driven by the same
/// [`DispatchCore`]; see the module docs for the fault model.
pub struct Coordinator {
    core: DispatchCore,
    exec: Arc<RemoteExecutor>,
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
                io: Mutex::new(None),
                cancel_handle: Mutex::new(None),
                counters: PeerCounters {
                    queries: AtomicU64::new(0),
                    retries: AtomicU64::new(0),
                    unavailable: AtomicU64::new(0),
                },
            })
            .collect();
        let exec = Arc::new(RemoteExecutor {
            breakers: Mutex::new(BreakerRegistry::new(breaker, peers.len())),
            peers,
            placement,
            db_fp: db_fingerprint(db),
            runner: Mutex::new(runner),
            wire,
            connect_timeout,
            idle_read_timeout,
            scatter_threads,
            next_id: AtomicU64::new(1),
            cancelled: AtomicBool::new(false),
        });
        let core = DispatchCore::new(
            Arc::clone(&exec) as Arc<dyn QueryExecutor>,
            DispatchConfig {
                queue_capacity,
                shed,
                drain_deadline,
                thread_name: "sqp-coord-exec".to_string(),
            },
        );
        Self { core, exec }
    }

    /// Submits one query for scatter–gather execution.
    pub fn submit(&self, q: &Graph) -> (QueryTicket, Admission) {
        self.core.submit(q)
    }

    /// [`submit`](Coordinator::submit) with a per-query budget cap (e.g.
    /// the remaining budget of an upstream client).
    pub fn submit_with_budget(
        &self,
        q: &Graph,
        budget: Option<Duration>,
    ) -> (QueryTicket, Admission) {
        self.core.submit_with_budget(q, budget)
    }

    /// Burst submission under one admission lock hold.
    pub fn submit_batch(&self, queries: &[Graph]) -> Vec<(QueryTicket, Admission)> {
        self.core.submit_batch(queries)
    }

    /// Runs a query set in lockstep and reports it (deterministic for a
    /// fixed fault pattern at any scatter-thread count).
    pub fn run_query_set(&self, query_set_name: &str, queries: &[Graph]) -> QuerySetReport {
        self.core.run_query_set("coordinator", query_set_name, queries)
    }

    /// Serving snapshot; the breaker fields count *peer* breakers.
    pub fn health(&self) -> ServiceHealth {
        let d = self.core.health();
        let (open, half_open, trips, short_circuits) = {
            let br = lock(&self.exec.breakers);
            (br.open_count(), br.half_open_count(), br.trip_count(), br.short_circuit_count())
        };
        ServiceHealth {
            queue_depth: d.queue_depth,
            inflight: d.inflight,
            draining: d.draining,
            admitted: d.admitted,
            finished: d.finished,
            shed_queue_full: d.shed_queue_full,
            shed_deadline: d.shed_deadline,
            shed_draining: d.shed_draining,
            open_breakers: open,
            half_open_breakers: half_open,
            breaker_trips: trips,
            quarantined_graph_results: short_circuits,
            wedged_queries: 0,
            workers_replaced: 0,
        }
    }

    /// Per-peer counters and breaker states.
    pub fn peer_stats(&self) -> Vec<ShardPeerStats> {
        self.exec.peer_stats()
    }

    /// Current breaker state of one peer.
    pub fn breaker_state(&self, peer: usize) -> BreakerState {
        lock(&self.exec.breakers).state(GraphId(peer as u32))
    }

    /// All peer-breaker transitions so far, in order (`graph` is the peer
    /// index).
    pub fn breaker_transitions(&self) -> Vec<BreakerTransition> {
        lock(&self.exec.breakers).transitions().to_vec()
    }

    /// The placement attribution is computed from.
    pub fn placement(&self) -> &ShardPlacement {
        &self.exec.placement
    }

    /// The current runner configuration.
    pub fn runner_config(&self) -> RunnerConfig {
        *lock(&self.exec.runner)
    }

    /// Replaces the runner configuration for subsequently started queries.
    pub fn set_runner_config(&self, config: RunnerConfig) {
        *lock(&self.exec.runner) = config;
    }

    /// Stops admissions at once without waiting for the backlog.
    pub fn begin_drain(&self) {
        self.core.begin_drain();
    }

    /// Drains, says goodbye to every reachable peer, and stops.
    pub fn shutdown(mut self) -> DrainReport {
        let report = self.core.shutdown_inner();
        for peer in &self.exec.peers {
            let mut io = lock(&peer.io);
            if let Some(stream) = io.as_mut() {
                let _ = write_frame(stream, &Message::Bye);
                let _ = stream.shutdown(Shutdown::Both);
            }
            *io = None;
            *lock(&peer.cancel_handle) = None;
        }
        report
    }
}
