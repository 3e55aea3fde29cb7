//! The transport-agnostic serving front: admission, dispatch and the
//! per-query bracket around one plugged-in executor.
//!
//! This module owns everything a deployment does *around* the execution of
//! a query — the bounded submission queue, tickets, deadline-aware
//! shedding, the single executor thread, the circuit-breaker registry, the
//! runner (budget / retry) configuration, the health snapshot and the
//! graceful drain protocol — while the execution itself hides behind
//! [`QueryExecutor`]. The same [`DispatchCore`] is therefore the whole
//! serving surface of both deployments, which add only a constructor, their
//! `shutdown` and their transport's accessors, and deref to it:
//!
//! * [`QueryService`](crate::service::QueryService) plugs in a local
//!   executor (a [`QueryPool`](crate::parallel::QueryPool)); breaker slots
//!   are data graphs, and
//! * [`Coordinator`](crate::coordinator::Coordinator) plugs in a remote
//!   executor that scatter–gathers over shard workers; breaker slots are
//!   shard peers.
//!
//! Admission semantics, drain guarantees ("every admitted query resolves
//! to a terminal status, no thread outlives the core"), the breaker clock
//! (one logical tick per admitted query) and determinism properties (batch
//! admission under one lock hold) are identical in both, and tested once.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sqp_graph::database::GraphId;
use sqp_graph::Graph;

use crate::breaker::{BreakerRegistry, BreakerState, BreakerTransition};
use crate::chaos::graph_fingerprint;
use crate::engine::QueryOutcome;
use crate::metrics::ServiceHealth;
use crate::parallel::lock;
use crate::runner::RunnerConfig;

/// Why a submission was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded submission queue was at capacity.
    QueueFull,
    /// Predicted queue wait + service time exceeded the query budget.
    DeadlineUnmeetable,
    /// The service had stopped admitting (drain in progress), or the drain
    /// deadline expired with the query still queued.
    Draining,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "queue full"),
            ShedReason::DeadlineUnmeetable => write!(f, "deadline unmeetable"),
            ShedReason::Draining => write!(f, "draining"),
        }
    }
}

/// Result of one admission decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The query entered the submission queue.
    Admitted,
    /// The query was rejected; its ticket is already resolved with
    /// [`QueryStatus::Shed`](crate::engine::QueryStatus::Shed).
    Shed(ShedReason),
}

impl Admission {
    /// Whether the query entered the queue.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted)
    }
}

/// Deadline-aware load-shedding policy.
///
/// The core predicts a submission's end-to-end latency as
/// `est_cost_per_graph × live_units × (queued + in-flight + 1)` — service
/// time for the query itself plus the backlog ahead of it, with
/// quarantined units excluded from the per-query cost
/// ([`QueryExecutor::live_units`]). When the prediction exceeds the
/// configured query budget the submission is shed immediately: rejecting
/// at admission is strictly cheaper than admitting work that is already
/// doomed to time out. The estimate is a pure function of configuration
/// and queue state, so shed decisions are deterministic for a
/// deterministic admission sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Estimated filter+verify cost per live unit (data graph locally,
    /// weighted shard remotely).
    pub est_cost_per_graph: Duration,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        Self { est_cost_per_graph: Duration::from_micros(100) }
    }
}

/// What one [`QueryExecutor::execute`] call hands back to the core.
pub struct Executed {
    /// The query's terminal outcome.
    pub outcome: QueryOutcome,
    /// Retries spent on it.
    pub retries: u32,
    /// What the breaker registry observes when that is not `outcome`
    /// itself: the remote executor's breakers guard *peers*, so it reports
    /// one record per peer that was masked or ended unavailable. `None`
    /// when the breaker slots are the graphs `outcome.failures` names.
    pub observed: Option<QueryOutcome>,
}

/// Executes one admitted query to a terminal outcome. Implementations are
/// the transport: local thread pool, or remote scatter–gather.
pub trait QueryExecutor: Send + Sync + 'static {
    /// Runs `q` — the one copy `submit` made, shared down to the workers —
    /// to its terminal outcome. `runner` is this query's policy, prepared by
    /// the core: its `query_budget` is already capped by the caller's
    /// remaining budget and its jitter is seeded from the query. `mask` is the breaker mask of
    /// this query's tick (`mask[slot]` = short-circuit, do not probe).
    fn execute(&self, q: &Arc<Graph>, runner: RunnerConfig, mask: Option<Arc<[bool]>>) -> Executed;

    /// Interrupts an in-flight [`execute`](QueryExecutor::execute) (forced
    /// drain). May be called repeatedly until the executor thread exits.
    fn cancel(&self);

    /// Units a fresh query currently fans out to, minus those behind an
    /// open breaker — the shed policy's cost multiplier. At least 1.
    fn live_units(&self, breakers: &BreakerRegistry) -> usize;

    /// `(wedged queries, workers replaced)` of a supervised transport.
    fn supervision(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// The budget a query runs under — the smaller of the configured budget and
/// the caller's override — for admission to predict against and the
/// executor to run under, so the two can never disagree.
fn effective_budget(own: Option<Duration>, over: Option<Duration>) -> Option<Duration> {
    match (own, over) {
        (Some(own), Some(over)) => Some(own.min(over)),
        (own, over) => own.or(over),
    }
}

pub(crate) struct TicketInner {
    slot: Mutex<Option<(QueryOutcome, u32)>>,
    ready: Condvar,
}

impl TicketInner {
    fn new() -> Arc<Self> {
        Arc::new(Self { slot: Mutex::new(None), ready: Condvar::new() })
    }

    fn resolve(&self, outcome: QueryOutcome, retries: u32) {
        let mut slot = lock(&self.slot);
        if slot.is_none() {
            *slot = Some((outcome, retries));
        }
        drop(slot);
        self.ready.notify_all();
    }
}

/// A handle to one submitted query; resolves to its terminal
/// [`QueryOutcome`] (plus the retries spent). Shed queries resolve
/// immediately.
#[derive(Clone)]
pub struct QueryTicket {
    inner: Arc<TicketInner>,
}

impl QueryTicket {
    /// Blocks until the query reaches a terminal status.
    pub fn wait(&self) -> (QueryOutcome, u32) {
        let mut slot = lock(&self.inner.slot);
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self.inner.ready.wait(slot).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Waits up to `timeout` for a terminal status.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<(QueryOutcome, u32)> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock(&self.inner.slot);
        loop {
            if let Some(r) = slot.as_ref() {
                return Some(r.clone());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (s, _) = self
                .inner
                .ready
                .wait_timeout(slot, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            slot = s;
        }
    }

    /// The terminal result, if already available (never blocks).
    pub fn try_get(&self) -> Option<(QueryOutcome, u32)> {
        lock(&self.inner.slot).clone()
    }
}

/// What [`DispatchCore::shutdown_inner`] observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether all admitted work finished within the drain deadline
    /// (`false` means the backlog was shed and/or in-flight work cancelled).
    pub drained_within_deadline: bool,
    /// Admitted queries that reached a terminal status through execution.
    pub finished: u64,
    /// Queued-but-unstarted queries resolved as
    /// [`QueryStatus::Shed`](crate::engine::QueryStatus::Shed) when the
    /// drain deadline expired.
    pub shed_at_drain: u64,
}

/// Configuration of a [`DispatchCore`].
pub struct DispatchConfig {
    /// Budget / retry / resource-limit policy of every query.
    pub runner: RunnerConfig,
    /// The breaker registry, sized by the deployment: one slot per data
    /// graph locally, one per shard peer remotely.
    pub breakers: BreakerRegistry,
    /// Bound on queries admitted but not yet started; submissions beyond it
    /// are shed with [`ShedReason::QueueFull`].
    pub queue_capacity: usize,
    /// Deadline-aware shedding; `None` disables the predictive check (the
    /// queue bound still applies).
    pub shed: Option<ShedPolicy>,
    /// How long [`shutdown_inner`](DispatchCore::shutdown_inner) lets
    /// in-flight and queued work finish before cancelling.
    pub drain_deadline: Duration,
    /// Name of the executor thread.
    pub thread_name: String,
}

struct QueueItem {
    q: Arc<Graph>,
    budget_override: Option<Duration>,
    ticket: Arc<TicketInner>,
}

struct CoreState {
    queue: VecDeque<QueueItem>,
    draining: bool,
    /// Drain deadline expired: the executor sheds the backlog and exits.
    force_cancel: bool,
    inflight: usize,
    admitted: u64,
    finished: u64,
    shed_queue_full: u64,
    shed_deadline: u64,
    shed_draining: u64,
}

struct CoreShared {
    state: Mutex<CoreState>,
    /// Clocked once per admitted query by the executor thread.
    breakers: Mutex<BreakerRegistry>,
    runner: Mutex<RunnerConfig>,
    /// Signals the executor: new submission or drain flag change.
    submitted: Condvar,
    /// Signals waiters: a query finished or the executor exited.
    progressed: Condvar,
}

/// The serving front of a deployment: bounded queue, tickets, predictive
/// shedding, one executor thread, breakers, health, graceful drain.
/// Execution is delegated to the plugged-in [`QueryExecutor`].
pub struct DispatchCore {
    shared: Arc<CoreShared>,
    exec: Arc<dyn QueryExecutor>,
    executor: Option<JoinHandle<()>>,
    queue_capacity: usize,
    shed: Option<ShedPolicy>,
    drain_deadline: Duration,
}

impl DispatchCore {
    /// Starts the core: spawns the executor thread driving `exec`.
    pub fn new(exec: Arc<dyn QueryExecutor>, config: DispatchConfig) -> Self {
        let DispatchConfig { runner, breakers, queue_capacity, shed, drain_deadline, thread_name } =
            config;
        let shared = Arc::new(CoreShared {
            breakers: Mutex::new(breakers),
            runner: Mutex::new(runner),
            state: Mutex::new(CoreState {
                queue: VecDeque::new(),
                draining: false,
                force_cancel: false,
                inflight: 0,
                admitted: 0,
                finished: 0,
                shed_queue_full: 0,
                shed_deadline: 0,
                shed_draining: 0,
            }),
            submitted: Condvar::new(),
            progressed: Condvar::new(),
        });
        let executor = {
            let shared = Arc::clone(&shared);
            let exec = Arc::clone(&exec);
            std::thread::Builder::new()
                .name(thread_name)
                .spawn(move || executor_loop(&shared, exec.as_ref()))
                .ok()
        };
        // If the OS refused the executor thread the core still resolves
        // every ticket: submissions are shed as draining.
        if executor.is_none() {
            lock(&shared.state).draining = true;
        }
        Self { shared, exec, executor, queue_capacity, shed, drain_deadline }
    }

    /// Admission decision for one query under the state lock. Returns the
    /// shed reason, or `None` to admit. `live_units` and `budget` are
    /// snapshotted by the caller *before* the lock (strict state-lock-last
    /// order: executors may take their own locks in those accessors).
    fn admission_decision(
        &self,
        st: &CoreState,
        live_units: usize,
        budget: Option<Duration>,
    ) -> Option<ShedReason> {
        if st.draining {
            return Some(ShedReason::Draining);
        }
        if st.queue.len() >= self.queue_capacity {
            return Some(ShedReason::QueueFull);
        }
        if let (Some(policy), Some(budget)) = (self.shed, budget) {
            let est_service = policy.est_cost_per_graph.saturating_mul(live_units.max(1) as u32);
            let backlog = (st.queue.len() + st.inflight) as u32;
            let est_total = est_service.saturating_mul(backlog + 1);
            if est_total > budget {
                return Some(ShedReason::DeadlineUnmeetable);
            }
        }
        None
    }

    /// Decides one submission under the state lock: queues it, or counts it
    /// shed and resolves its ticket on the spot.
    fn admit(
        &self,
        st: &mut CoreState,
        q: &Graph,
        budget_override: Option<Duration>,
        live_units: usize,
        budget: Option<Duration>,
    ) -> (QueryTicket, Admission) {
        let inner = TicketInner::new();
        let admission = match self.admission_decision(st, live_units, budget) {
            Some(reason) => {
                match reason {
                    ShedReason::QueueFull => st.shed_queue_full += 1,
                    ShedReason::DeadlineUnmeetable => st.shed_deadline += 1,
                    ShedReason::Draining => st.shed_draining += 1,
                }
                inner.resolve(QueryOutcome::shed(), 0);
                Admission::Shed(reason)
            }
            None => {
                let (q, ticket) = (Arc::new(q.clone()), Arc::clone(&inner));
                st.queue.push_back(QueueItem { q, budget_override, ticket });
                st.admitted += 1;
                Admission::Admitted
            }
        };
        (QueryTicket { inner }, admission)
    }

    /// Submits one query. Always returns a ticket that will resolve to a
    /// terminal status; the [`Admission`] says whether it entered the queue
    /// or was shed on the spot.
    pub fn submit(&self, q: &Graph) -> (QueryTicket, Admission) {
        self.submit_with_budget(q, None)
    }

    /// [`submit`](DispatchCore::submit) with a per-query budget override —
    /// the remaining budget a remote caller propagated with the query.
    pub fn submit_with_budget(
        &self,
        q: &Graph,
        budget_override: Option<Duration>,
    ) -> (QueryTicket, Admission) {
        let live = self.exec.live_units(&lock(&self.shared.breakers));
        let budget = effective_budget(self.runner_config().query_budget, budget_override);
        let submitted = self.admit(&mut lock(&self.shared.state), q, budget_override, live, budget);
        self.shared.submitted.notify_all();
        submitted
    }

    /// Submits a burst of queries under **one** state-lock hold, so the
    /// admission decisions (queue-full bound, predicted-wait shedding) are
    /// a pure function of the batch order and prior service state — the
    /// executor cannot race the decisions apart. This is what makes shed
    /// decisions reproducible across worker thread counts.
    pub fn submit_batch(&self, queries: &[Graph]) -> Vec<(QueryTicket, Admission)> {
        let live = self.exec.live_units(&lock(&self.shared.breakers));
        let budget = self.runner_config().query_budget;
        let mut st = lock(&self.shared.state);
        let out = queries.iter().map(|q| self.admit(&mut st, q, None, live, budget)).collect();
        drop(st);
        self.shared.submitted.notify_all();
        out
    }

    /// Point-in-time serving snapshot; the breaker fields count whatever
    /// the deployment's breaker slots are (graphs locally, peers remotely).
    pub fn health(&self) -> ServiceHealth {
        let (wedged_queries, workers_replaced) = self.exec.supervision();
        let (open_breakers, half_open_breakers, breaker_trips, quarantined_graph_results) = {
            let br = lock(&self.shared.breakers);
            (br.open_count(), br.half_open_count(), br.trip_count(), br.short_circuit_count())
        };
        let st = lock(&self.shared.state);
        ServiceHealth {
            queue_depth: st.queue.len(),
            inflight: st.inflight,
            draining: st.draining,
            admitted: st.admitted,
            finished: st.finished,
            shed_queue_full: st.shed_queue_full,
            shed_deadline: st.shed_deadline,
            shed_draining: st.shed_draining,
            open_breakers,
            half_open_breakers,
            breaker_trips,
            quarantined_graph_results,
            wedged_queries,
            workers_replaced,
        }
    }

    /// Current state of one breaker slot (a graph index locally, a peer
    /// index remotely).
    pub fn breaker_state(&self, slot: usize) -> BreakerState {
        lock(&self.shared.breakers).state(GraphId(slot as u32))
    }

    /// All breaker transitions so far, in order (`graph` is the slot).
    pub fn breaker_transitions(&self) -> Vec<BreakerTransition> {
        lock(&self.shared.breakers).transitions().to_vec()
    }

    /// The current runner (budget / retry / limits) configuration.
    pub fn runner_config(&self) -> RunnerConfig {
        *lock(&self.shared.runner)
    }

    /// Replaces the runner configuration for subsequently started queries.
    pub fn set_runner_config(&self, config: RunnerConfig) {
        *lock(&self.shared.runner) = config;
    }

    /// Stops admissions at once without waiting for the backlog (the
    /// SIGINT-drain entry point; `shutdown` still completes the drain).
    pub fn begin_drain(&self) {
        lock(&self.shared.state).draining = true;
        self.shared.submitted.notify_all();
    }

    /// Gracefully drains and stops the core: admissions stop at once,
    /// queued and in-flight work gets `drain_deadline` to finish, then the
    /// backlog is resolved as shed and the in-flight query is cancelled
    /// through [`QueryExecutor::cancel`]. Every admitted query is
    /// guaranteed a terminal status, and the executor thread is joined
    /// before this returns.
    pub fn shutdown_inner(&mut self) -> DrainReport {
        let drain_until = Instant::now() + self.drain_deadline;
        {
            let mut st = lock(&self.shared.state);
            st.draining = true;
            self.shared.submitted.notify_all();
            // Give in-flight + queued work the drain window.
            while (st.inflight > 0 || !st.queue.is_empty()) && Instant::now() < drain_until {
                let left = drain_until.saturating_duration_since(Instant::now());
                let (s, _) = self
                    .shared
                    .progressed
                    .wait_timeout(st, left)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                st = s;
            }
            st.force_cancel = true;
            self.shared.submitted.notify_all();
        }
        // Cancel-pump: executors reset their cancellation at query start,
        // so a single cancel can race a just-starting attempt. Re-raise
        // until the executor thread confirms exit.
        if let Some(executor) = self.executor.take() {
            while !executor.is_finished() {
                self.exec.cancel();
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = executor.join();
        }
        let st = lock(&self.shared.state);
        DrainReport {
            drained_within_deadline: st.shed_draining == 0 && Instant::now() <= drain_until,
            finished: st.finished,
            shed_at_drain: st.shed_draining,
        }
    }
}

impl Drop for DispatchCore {
    fn drop(&mut self) {
        if self.executor.is_some() {
            // Implicit shutdown without the drain courtesy: resolve
            // everything and join all threads (no leaks, no lost tickets).
            self.drain_deadline = Duration::ZERO;
            let _ = self.shutdown_inner();
        }
    }
}

fn executor_loop(shared: &CoreShared, exec: &dyn QueryExecutor) {
    loop {
        let item = {
            let mut st = lock(&shared.state);
            loop {
                if st.force_cancel {
                    // Drain deadline expired: the backlog is shed, never
                    // silently dropped.
                    while let Some(item) = st.queue.pop_front() {
                        item.ticket.resolve(QueryOutcome::shed(), 0);
                        st.shed_draining += 1;
                    }
                }
                if let Some(item) = st.queue.pop_front() {
                    st.inflight = 1;
                    break item;
                }
                if st.draining {
                    drop(st);
                    shared.progressed.notify_all();
                    return;
                }
                st = shared.submitted.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };

        // The per-query bracket. Backoff jitter is keyed to the query, so
        // concurrent clients retrying the same transient fault don't
        // thunder in lockstep; a caller's remaining budget caps the
        // configured one (deadline propagation); the breaker clock ticks
        // once, and the mask stays fixed across retry attempts.
        let mut runner = lock(&shared.runner).with_jitter_seed(graph_fingerprint(&item.q));
        runner.query_budget = effective_budget(runner.query_budget, item.budget_override);
        let mask = lock(&shared.breakers).begin_query();
        let Executed { outcome, retries, observed } = exec.execute(&item.q, runner, mask);
        lock(&shared.breakers).observe(observed.as_ref().unwrap_or(&outcome));
        // Account before resolving: a caller returning from
        // `QueryTicket::wait` must see this query in `health().finished`.
        let mut st = lock(&shared.state);
        st.inflight = 0;
        st.finished += 1;
        drop(st);
        item.ticket.resolve(outcome, retries);
        shared.progressed.notify_all();
    }
}
