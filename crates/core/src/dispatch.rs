//! The transport-agnostic admission/dispatch core of the serving layer.
//!
//! PR 8 split the original `service.rs` in two: this module owns
//! everything about *admission* — the bounded submission queue, tickets,
//! deadline-aware shedding, the single executor thread, and the graceful
//! drain protocol — while the *execution* of one admitted query hides
//! behind [`QueryExecutor`]. The same core therefore drives both
//! deployments:
//!
//! * [`QueryService`](crate::service::QueryService) plugs in a local
//!   executor (a [`QueryPool`](crate::parallel::QueryPool) plus per-graph
//!   circuit breakers), and
//! * [`Coordinator`](crate::coordinator::Coordinator) plugs in a remote
//!   executor that scatter–gathers over shard workers with per-peer
//!   breakers.
//!
//! Admission semantics, drain guarantees ("every admitted query resolves
//! to a terminal status, no thread outlives the core") and determinism
//! properties (batch admission under one lock hold) are identical in both,
//! and tested once.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sqp_graph::Graph;

use crate::engine::QueryOutcome;
use crate::metrics::{QueryRecord, QuerySetReport};
use crate::parallel::lock;

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

/// Executes one admitted query to a terminal outcome. Implementations are
/// the transport: local thread pool, or remote scatter–gather.
pub trait QueryExecutor: Send + Sync + 'static {
    /// Runs `q` — the one copy `submit` made, shared down to the workers —
    /// and returns its terminal outcome plus the retries spent.
    /// `budget_override`, when set, caps the configured per-query budget
    /// for this call only — the deadline-propagation path for queries
    /// arriving over the wire with a remaining budget attached.
    fn execute(&self, q: &Arc<Graph>, budget_override: Option<Duration>) -> (QueryOutcome, u32);

    /// Interrupts an in-flight [`execute`](QueryExecutor::execute) (forced
    /// drain). May be called repeatedly until the executor thread exits.
    fn cancel(&self);

    /// Units a fresh query currently fans out to, minus quarantined ones —
    /// the shed policy's cost multiplier. At least 1.
    fn live_units(&self) -> usize;

    /// The per-query budget admission predicts against (`None` disables
    /// predictive shedding).
    fn query_budget(&self) -> Option<Duration>;
}

/// The budget a query runs under — the smaller of the configured budget and
/// the caller's override — for admission to predict against and the
/// executors to run under, so the two can never disagree.
pub(crate) fn effective_budget(own: Option<Duration>, over: Option<Duration>) -> Option<Duration> {
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

/// Queue/counter snapshot of the dispatch core (the transport-agnostic
/// half of [`ServiceHealth`](crate::metrics::ServiceHealth)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchHealth {
    /// Queries admitted but not yet started.
    pub queue_depth: usize,
    /// Queries currently executing (0 or 1 — the core serializes queries).
    pub inflight: usize,
    /// Whether the core has stopped admitting (drain in progress).
    pub draining: bool,
    /// Queries admitted since start.
    pub admitted: u64,
    /// Admitted queries that reached a terminal status through execution.
    pub finished: u64,
    /// Queries shed because the submission queue was full.
    pub shed_queue_full: u64,
    /// Queries shed because the predicted wait + service time exceeded the
    /// query budget.
    pub shed_deadline: u64,
    /// Queries shed because the core was draining, plus any backlog
    /// resolved as shed when the drain deadline expired.
    pub shed_draining: u64,
}

/// Configuration of a [`DispatchCore`].
#[derive(Clone, Debug)]
pub struct DispatchConfig {
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
    /// Signals the executor: new submission or drain flag change.
    submitted: Condvar,
    /// Signals waiters: a query finished or the executor exited.
    progressed: Condvar,
}

/// The admission/dispatch half of a serving deployment: bounded queue,
/// tickets, predictive shedding, one executor thread, graceful drain.
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
        let DispatchConfig { queue_capacity, shed, drain_deadline, thread_name } = config;
        let shared = Arc::new(CoreShared {
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

    fn shed_ticket(reason: ShedReason) -> (QueryTicket, Admission) {
        let inner = TicketInner::new();
        inner.resolve(QueryOutcome::shed(), 0);
        (QueryTicket { inner }, Admission::Shed(reason))
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

    fn count_shed(st: &mut CoreState, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull => st.shed_queue_full += 1,
            ShedReason::DeadlineUnmeetable => st.shed_deadline += 1,
            ShedReason::Draining => st.shed_draining += 1,
        }
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
        let live = self.exec.live_units();
        let budget = effective_budget(self.exec.query_budget(), budget_override);
        let mut st = lock(&self.shared.state);
        if let Some(reason) = self.admission_decision(&st, live, budget) {
            Self::count_shed(&mut st, reason);
            drop(st);
            return Self::shed_ticket(reason);
        }
        let inner = TicketInner::new();
        let q = Arc::new(q.clone());
        st.queue.push_back(QueueItem { q, budget_override, ticket: Arc::clone(&inner) });
        st.admitted += 1;
        drop(st);
        self.shared.submitted.notify_all();
        (QueryTicket { inner }, Admission::Admitted)
    }

    /// Submits a burst of queries under **one** state-lock hold, so the
    /// admission decisions (queue-full bound, predicted-wait shedding) are
    /// a pure function of the batch order and prior service state — the
    /// executor cannot race the decisions apart. This is what makes shed
    /// decisions reproducible across worker thread counts.
    pub fn submit_batch(&self, queries: &[Graph]) -> Vec<(QueryTicket, Admission)> {
        let live = self.exec.live_units();
        let budget = self.exec.query_budget();
        let mut st = lock(&self.shared.state);
        let mut out = Vec::with_capacity(queries.len());
        for q in queries {
            match self.admission_decision(&st, live, budget) {
                Some(reason) => {
                    Self::count_shed(&mut st, reason);
                    out.push(Self::shed_ticket(reason));
                }
                None => {
                    let inner = TicketInner::new();
                    st.queue.push_back(QueueItem {
                        q: Arc::new(q.clone()),
                        budget_override: None,
                        ticket: Arc::clone(&inner),
                    });
                    st.admitted += 1;
                    out.push((QueryTicket { inner }, Admission::Admitted));
                }
            }
        }
        drop(st);
        self.shared.submitted.notify_all();
        out
    }

    /// Runs a query set in lockstep (submit one, wait for it, record) and
    /// reports it under the `engine` label, like the batch runner does.
    pub fn run_query_set(
        &self,
        engine: &str,
        query_set_name: &str,
        queries: &[Graph],
    ) -> QuerySetReport {
        let budget = self.exec.query_budget();
        let mut report = QuerySetReport::new(engine, query_set_name);
        for q in queries {
            let (ticket, _) = self.submit(q);
            let (outcome, retries) = ticket.wait();
            let mut record =
                QueryRecord::from_outcome(&outcome, budget).with_engine_fallback(engine);
            record.retries = retries;
            report.records.push(record);
        }
        report
    }

    /// Queue/counter snapshot.
    pub fn health(&self) -> DispatchHealth {
        let st = lock(&self.shared.state);
        DispatchHealth {
            queue_depth: st.queue.len(),
            inflight: st.inflight,
            draining: st.draining,
            admitted: st.admitted,
            finished: st.finished,
            shed_queue_full: st.shed_queue_full,
            shed_deadline: st.shed_deadline,
            shed_draining: st.shed_draining,
        }
    }

    /// Stops admissions without draining (tests and drain-handler use).
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

    /// Whether the executor thread is still running (shutdown not called).
    pub fn is_running(&self) -> bool {
        self.executor.is_some()
    }

    /// Shortens the drain window (used by implicit drops).
    pub fn set_drain_deadline(&mut self, deadline: Duration) {
        self.drain_deadline = deadline;
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

        let (outcome, retries) = exec.execute(&item.q, item.budget_override);
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
