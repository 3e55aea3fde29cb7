//! Parallel vcFV query processing.
//!
//! Grapes exploits multi-core machines during both indexing and querying
//! (§III-A); the vcFV framework parallelizes even more naturally, since each
//! data graph's filter+verify is independent. This module provides the one
//! fan-out strategy, [`QueryPool`]: persistent worker threads shared across
//! queries (no per-query spawn), dynamic work distribution through a shared
//! atomic counter over graph ids (a degenerate but contention-free form of
//! work stealing: idle workers "steal" the next unclaimed graph, so skewed
//! graph sizes leave no straggler running alone), and cooperative
//! cancellation so that when any worker exhausts the budget every sibling
//! stops within one [`TickChecker`] interval.
//!
//! Timing semantics: per-phase times are summed across workers (CPU time),
//! while [`ParallelOutcome::wall_time`] reports the end-to-end latency — the
//! number a user of a multi-core deployment cares about. A timed-out
//! parallel query can therefore record summed CPU time *below* the budget
//! (workers stop early on cancellation); `QueryRecord::from_outcome` pins
//! such queries to exactly the budget, as the paper records timeouts at the
//! limit.
//!
//! Invariant I4: for queries that complete within the budget, answers and
//! candidate counts are identical to the sequential engine's for every
//! thread count — the only difference is timing.
//!
//! Fault isolation (invariant I8): matcher calls are wrapped in
//! `catch_unwind` *per (query, graph) pair*, so a poisoned pair yields one
//! [`GraphFailure`] in the outcome while every other graph's answer — and
//! every sibling query — is preserved. The worker-shard `catch_unwind` in
//! [`worker_loop`] remains only as an infrastructure backstop; it no longer
//! discards the worker's completed partial results, and the submitter never
//! re-panics.
//!
//! [`TickChecker`]: sqp_matching::deadline::TickChecker

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sqp_graph::database::GraphId;
use sqp_graph::{Graph, GraphDb, HeapSize};
use sqp_matching::deadline::SCAN_CHECK_INTERVAL;
use sqp_matching::obs::{Lap, Phase};
use sqp_matching::{CancelToken, Deadline, FilterResult, Heartbeat, Matcher, StatsSink};

use crate::engine::{QueryOutcome, QueryStatus};
use crate::supervisor::{supervisor_loop, SupervisorConfig};

/// Locks a mutex, tolerating poisoning: a panicking worker must never deny
/// the submitter (or its siblings) access to the partial results.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a panic payload for a [`QueryStatus::Panicked`] message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Outcome of a parallel query.
#[derive(Clone, Debug, Default)]
pub struct ParallelOutcome {
    /// The sequential-equivalent outcome (answers sorted by graph id; times
    /// are summed worker CPU times).
    pub outcome: QueryOutcome,
    /// End-to-end latency of the parallel pass.
    pub wall_time: Duration,
    /// Worker threads used.
    pub threads: usize,
}

/// Runs one graph's filter+verify, folding the result into `part`.
/// Returns `false` when the worker should stop (timeout, cancellation, or a
/// tripped resource budget). Called only by [`scan`], which hands it a
/// [`fresh`](Deadline::fresh) deadline and its [`Lap`].
///
/// Both matcher calls are individually wrapped in `catch_unwind`: a panic on
/// this (query, graph) pair becomes one [`GraphFailure`] and processing
/// *continues* with the next graph, so all non-panicking pairs keep their
/// exact answers (invariant I8).
///
/// Every pair ends with exactly one lap switch: `Filter → Filter` when the
/// filter prunes, panics or is interrupted; `Filter → Enumerate` after a
/// surviving filter, then `Enumerate → Filter` after `find_first`. Each
/// switch's elapsed time is that stage's wall (`filter_time`,
/// `verify_time`); the matcher's own span of the running phase is passive
/// under the lap, and its spans of other phases subtract themselves.
#[inline]
fn process_graph(
    matcher: &dyn Matcher,
    db: &GraphDb,
    q: &Graph,
    gid: GraphId,
    deadline: Deadline,
    lap: &mut Lap,
    part: &mut QueryOutcome,
) -> bool {
    let g = db.graph(gid);
    let filtered = catch_unwind(AssertUnwindSafe(|| matcher.filter(q, g, deadline)));
    // `Ok(space)` goes on to enumeration; `Err(go_on)` ends the pair.
    let verdict = match filtered {
        Err(payload) => {
            part.record_panic(gid, panic_message(payload));
            Err(true)
        }
        Ok(Err(_)) => {
            part.record_interrupt(gid, deadline);
            Err(false)
        }
        Ok(Ok(FilterResult::Pruned)) => Err(true),
        Ok(Ok(FilterResult::Space(space))) => {
            part.candidates += 1;
            let bytes = space.heap_size();
            part.aux_bytes = part.aux_bytes.max(bytes);
            deadline.guard().note_aux_bytes(bytes);
            if deadline.check_flags().is_ok() {
                Ok(space)
            } else {
                // The candidate space itself blew the memory budget (or a
                // sibling expired the deadline while we built it).
                part.record_interrupt(gid, deadline);
                Err(false)
            }
        }
    };
    let next = if verdict.is_ok() { Phase::Enumerate } else { Phase::Filter };
    part.filter_time += Duration::from_nanos(lap.switch(next));
    let space = match verdict {
        Ok(space) => space,
        Err(go_on) => return go_on,
    };
    let verdict = catch_unwind(AssertUnwindSafe(|| matcher.find_first(q, g, &space, deadline)));
    part.verify_time += Duration::from_nanos(lap.switch(Phase::Filter));
    match verdict {
        Err(payload) => {
            part.record_panic(gid, panic_message(payload));
            true
        }
        Ok(Ok(Some(_))) => {
            part.answers.push(gid);
            true
        }
        Ok(Ok(None)) => true,
        Ok(Err(_)) => {
            part.record_interrupt(gid, deadline);
            false
        }
    }
}

/// The one between-graphs loop of every vcFV scan — a pool worker's shard
/// and the sequential engines' `query_over`.
/// `graphs` yields the next graph index (a pool worker claims it from the
/// job's shared counter, one per `fetch_add`); graphs set in `mask` are
/// recorded quarantined instead of reaching the matcher.
///
/// Who reads the clock: the full [`Deadline::check`] (heartbeat + wall
/// clock) runs before the first graph and every [`SCAN_CHECK_INTERVAL`]th;
/// before the others only the flags are read, so a sibling's cancellation
/// or a tripped guard still stops this scan before its next graph. The
/// matcher calls get a [`fresh`](Deadline::fresh) copy — flags-only entry
/// checks, `TickChecker` intervals untouched. A scan that stops on an
/// interrupt raises the cancel token so every sibling stops as well.
///
/// The span clock is read by one [`Lap`] opened before the first graph: one
/// read at entry, one per pruned pair, two per pair that reaches
/// enumeration (plus the matcher's own spans of other phases), none at the
/// end. A stage's wall therefore also covers the loop's own work since the
/// previous switch — the checks, the claim, a quarantined graph.
pub(crate) fn scan(
    matcher: &dyn Matcher,
    db: &GraphDb,
    q: &Graph,
    deadline: Deadline,
    mask: Option<&[bool]>,
    mut graphs: impl Iterator<Item = usize>,
) -> QueryOutcome {
    debug_assert!(deadline.stats().is_some(), "a scan's stage walls are its lap's clock reads");
    let mut part = QueryOutcome::default();
    let mut lap = Lap::enter(Phase::Filter, deadline);
    for processed in 0usize.. {
        let checked = if processed % SCAN_CHECK_INTERVAL == 0 {
            deadline.check()
        } else {
            deadline.check_flags()
        };
        if checked.is_err() {
            part.status.absorb(QueryStatus::from_interrupt(deadline));
            break;
        }
        let Some(i) = graphs.next() else { break };
        let gid = GraphId(i as u32);
        if mask.is_some_and(|m| m[i]) {
            // Short-circuit: the quarantined graph never reaches the
            // matcher; exactly one failure record per masked graph, so
            // the finalized outcome is thread-count independent.
            part.record_quarantined(gid);
        } else if !process_graph(matcher, db, q, gid, deadline.fresh(), &mut lap, &mut part) {
            deadline.cancel_token().cancel();
            break;
        }
    }
    part
}

fn merge_parts(parts: Vec<QueryOutcome>) -> QueryOutcome {
    let mut merged = QueryOutcome::default();
    for part in parts {
        merged.answers.extend(part.answers);
        merged.candidates += part.candidates;
        merged.filter_time += part.filter_time;
        merged.verify_time += part.verify_time;
        merged.status.absorb(part.status);
        merged.failures.extend(part.failures);
        merged.aux_bytes = merged.aux_bytes.max(part.aux_bytes);
    }
    merged.answers.sort_unstable();
    merged.finalize();
    merged
}

// ---------------------------------------------------------------------------
// QueryPool: persistent workers + shared-counter distribution + cancellation
// ---------------------------------------------------------------------------

/// One in-flight parallel query, shared between the submitting thread and
/// the workers.
struct Job {
    matcher: Arc<dyn Matcher>,
    db: Arc<GraphDb>,
    q: Arc<Graph>,
    deadline: Deadline,
    /// Next unclaimed graph id — the shared work counter. Claiming one graph
    /// at a time gives the finest-grained balance under skewed graph sizes;
    /// one `fetch_add` per graph is noise next to a filter+verify pass.
    next: AtomicUsize,
    /// Quarantine mask from the serving layer: `mask[i] == true` means graph
    /// `i`'s circuit breaker is open, so the worker claiming it records a
    /// [`QueryStatus::Quarantined`] failure instead of calling the matcher.
    mask: Option<Arc<[bool]>>,
    /// Per-worker partial outcomes.
    parts: Mutex<Vec<QueryOutcome>>,
    /// Workers that have not yet finished this job.
    remaining: AtomicUsize,
    /// First infrastructure panic that escaped the per-graph isolation (our
    /// own pool code, not a matcher); the submitter degrades the outcome
    /// instead of re-raising, and the worker's `parts` survive.
    panic_note: Mutex<Option<String>>,
    /// Set once by the supervisor when it escalates a worker on this job, so
    /// [`PoolShared::queries_wedged`] counts queries, not abandoned workers.
    wedged: AtomicBool,
}

impl Job {
    /// Runs one worker shard. `deadline` is this worker's view of the job
    /// deadline (with its slot heartbeat attached); `slot`/`my_gen` identify
    /// the worker so it can publish the graph it is grinding on and notice
    /// mid-job that the supervisor abandoned it.
    fn run_worker(
        &self,
        deadline: Deadline,
        slot: Option<&WorkerSlot>,
        my_gen: u64,
    ) -> QueryOutcome {
        let n = self.db.len();
        let claims = std::iter::from_fn(|| {
            // An abandoned worker's shard was already accounted for by the
            // supervisor; stop promptly instead of burning budget that now
            // belongs to a replacement.
            if slot.is_some_and(|s| s.generation.load(Ordering::Acquire) != my_gen) {
                return None;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return None;
            }
            if let Some(slot) = slot {
                slot.busy_graph.store(i, Ordering::Relaxed);
            }
            Some(i)
        });
        scan(&*self.matcher, &self.db, &self.q, deadline, self.mask.as_deref(), claims)
    }

    /// Runs one worker shard with the infrastructure backstop: a panic that
    /// escapes per-graph isolation is recorded in `panic_note` and siblings
    /// are cancelled. Returns the completed part, if any; the caller commits
    /// it (under the state lock, so an abandoned worker's part never leaks
    /// into a job the submitter is merging).
    fn run_worker_guarded(
        &self,
        deadline: Deadline,
        slot: Option<&WorkerSlot>,
        my_gen: u64,
    ) -> Option<QueryOutcome> {
        match catch_unwind(AssertUnwindSafe(|| self.run_worker(deadline, slot, my_gen))) {
            Ok(part) => Some(part),
            Err(payload) => {
                let mut note = lock(&self.panic_note);
                if note.is_none() {
                    *note = Some(panic_message(payload));
                }
                drop(note);
                // Unblock siblings still grinding on their graphs.
                deadline.cancel_token().cancel();
                None
            }
        }
    }
}

/// Per-worker supervision state, indexed like the worker threads. Lives for
/// the whole pool; replacement workers inherit the slot of the worker they
/// replace (same index, same thread name, bumped generation).
pub(crate) struct WorkerSlot {
    /// Bumped by every full `Deadline::check` the worker performs; timed by
    /// the supervisor's scans.
    beat: Heartbeat,
    /// Bumped when the supervisor abandons this slot's worker; a worker
    /// whose generation no longer matches must not commit anything.
    generation: AtomicU64,
    /// Epoch of the job this slot's worker is currently running (0 = idle).
    busy_epoch: AtomicU64,
    /// Graph index the worker last claimed (`usize::MAX` = none yet).
    busy_graph: AtomicUsize,
}

impl WorkerSlot {
    fn new() -> Self {
        Self {
            beat: Heartbeat::new(),
            generation: AtomicU64::new(0),
            busy_epoch: AtomicU64::new(0),
            busy_graph: AtomicUsize::new(usize::MAX),
        }
    }
}

pub(crate) struct PoolState {
    job: Option<Arc<Job>>,
    /// Bumped once per submitted job so each worker runs each job once.
    epoch: u64,
    shutdown: bool,
}

pub(crate) struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    job_done: Condvar,
    /// One slot per worker index; `slots.len()` is the configured capacity.
    slots: Vec<WorkerSlot>,
    /// Live worker handles by slot. `None` when the slot's worker could not
    /// be (re)spawned or its handle was detached after abandonment.
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Workers currently serving jobs (spawn failures and failed
    /// replacements shrink it); sizes `Job::remaining`.
    live: AtomicUsize,
    /// Worker-thread name prefix, kept for naming replacement workers.
    prefix: String,
    /// Queries that had at least one worker escalated as wedged.
    queries_wedged: AtomicU64,
    /// Worker threads abandoned and successfully replaced.
    workers_replaced: AtomicU64,
}

impl PoolShared {
    /// Spawns (or respawns) the worker for slot `idx`. Returns whether the
    /// OS granted the thread; on success the handle is stored and the live
    /// count incremented.
    fn spawn_worker(self: &Arc<Self>, idx: usize, generation: u64, start_epoch: u64) -> bool {
        let shared = Arc::clone(self);
        match std::thread::Builder::new()
            .name(format!("{}-{idx}", self.prefix))
            .spawn(move || worker_loop(&shared, idx, generation, start_epoch))
        {
            Ok(handle) => {
                lock(&self.handles)[idx] = Some(handle);
                self.live.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Supervisor thread body: scan the slots, wait out the scan interval
    /// (the shutdown notification on `work_ready` wakes it early), repeat.
    pub(crate) fn run_supervisor(self: &Arc<Self>, config: &SupervisorConfig) {
        let mut state = lock(&self.state);
        loop {
            if state.shutdown {
                return;
            }
            self.scan_for_wedged(&state, config);
            let (s, _) = self
                .work_ready
                .wait_timeout(state, config.scan_interval)
                .unwrap_or_else(PoisonError::into_inner);
            state = s;
        }
    }

    /// One supervisor scan. Runs under the state lock (witnessed by
    /// `state`), so escalation is atomic with worker commits.
    fn scan_for_wedged(self: &Arc<Self>, state: &PoolState, config: &SupervisorConfig) {
        let Some(job) = state.job.as_ref() else { return };
        // Unbudgeted jobs have no wall deadline and are never escalated:
        // without a budget there is no "overdue".
        let Some(at) = job.deadline.instant() else { return };
        let overdue = Instant::now().saturating_duration_since(at) >= config.grace;
        for (idx, slot) in self.slots.iter().enumerate() {
            if slot.busy_epoch.load(Ordering::Acquire) != state.epoch {
                continue;
            }
            // Observed on every scan, due or not: the heartbeat is timed by
            // these calls, so staleness is already known when the job falls
            // due.
            if slot.beat.stale_for() >= config.stale_after && overdue {
                self.escalate(state, job, idx, slot);
            }
        }
    }

    /// Escalates one wedged worker: see the module docs of
    /// [`crate::supervisor`] for the ladder.
    fn escalate(
        self: &Arc<Self>,
        state: &PoolState,
        job: &Arc<Job>,
        idx: usize,
        slot: &WorkerSlot,
    ) {
        // Fire the cancel token first: if the worker revives it observes
        // expiry at its next check and exits on its own (as an abandoned
        // generation).
        job.deadline.cancel_token().cancel();
        // Attribute the wedge to the graph the worker was grinding on.
        let mut part = QueryOutcome::default();
        match slot.busy_graph.load(Ordering::Relaxed) {
            usize::MAX => part.status.absorb(QueryStatus::Wedged),
            g => part.record_wedged(GraphId(g as u32)),
        }
        lock(&job.parts).push(part);
        if !job.wedged.swap(true, Ordering::AcqRel) {
            self.queries_wedged.fetch_add(1, Ordering::Relaxed);
        }
        // Abandon the thread: bump the generation so its eventual commit (if
        // it ever revives) is ignored, and detach the handle — a truly
        // wedged thread can never be joined.
        let generation = slot.generation.fetch_add(1, Ordering::AcqRel) + 1;
        slot.busy_epoch.store(0, Ordering::Release);
        drop(lock(&self.handles)[idx].take());
        self.live.fetch_sub(1, Ordering::Relaxed);
        // Replace it in the same slot (same thread name) so the pool keeps
        // full capacity. The replacement starts at the current epoch: this
        // job's shard accounting is settled below, on the wedged worker's
        // behalf. If the OS refuses the thread, capacity degrades by one but
        // the accounting stays correct.
        if self.spawn_worker(idx, generation, state.epoch) {
            self.workers_replaced.fetch_add(1, Ordering::Relaxed);
        }
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.job_done.notify_all();
        }
    }
}

/// A persistent pool of query workers.
///
/// Construct once, submit any number of queries; worker threads are spawned
/// at construction and live until drop, so per-query overhead is one job
/// hand-off instead of `threads` thread spawns. Queries are serialized: a
/// second concurrent [`query`](QueryPool::query) blocks until the first
/// finishes (per-graph parallelism is where the speedup is; cross-query
/// parallelism would make budgets and cancellation ambiguous).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use sqp_core::parallel::QueryPool;
/// use sqp_graph::{GraphBuilder, GraphDb, Label};
/// use sqp_matching::cfql::Cfql;
/// use sqp_matching::Deadline;
///
/// let mut b = GraphBuilder::new();
/// let u = b.add_vertex(Label(0));
/// let v = b.add_vertex(Label(1));
/// b.add_edge(u, v).unwrap();
/// let g = b.build();
/// let db = Arc::new(GraphDb::from_graphs(vec![g.clone()]));
///
/// let pool = QueryPool::new(2);
/// let r = pool.query(Arc::new(Cfql::new()), &db, &g, Deadline::none());
/// assert_eq!(r.outcome.answers.len(), 1);
/// ```
pub struct QueryPool {
    shared: Arc<PoolShared>,
    /// The watchdog thread; `None` for unsupervised pools.
    supervisor: Option<JoinHandle<()>>,
    /// Serializes query submission (workers handle one job at a time).
    submit: Mutex<()>,
    cancel: CancelToken,
    /// Kernel-counter sink attached to queries whose deadline has none, so
    /// every [`ParallelOutcome`] carries enumeration-kernel stats.
    stats: StatsSink,
}

impl QueryPool {
    /// Spawns a pool with `threads` persistent workers (at least one
    /// requested; if the OS refuses to spawn any thread at all, the pool
    /// degrades to running queries inline on the submitting thread).
    pub fn new(threads: usize) -> Self {
        Self::named("sqp-pool", threads)
    }

    /// Like [`QueryPool::new`] but with a caller-chosen worker-thread name
    /// prefix (threads are named `{prefix}-{i}`). Distinct prefixes let the
    /// drain tests verify via `/proc/self/task` that shutdown leaks no
    /// worker threads even while other pools run concurrently.
    pub fn named(prefix: &str, threads: usize) -> Self {
        Self::build(prefix, threads, None)
    }

    /// Like [`QueryPool::named`], but with a supervisor thread watching the
    /// worker heartbeats: a worker stuck past `deadline + grace` without
    /// ticking is escalated — its query degrades to
    /// [`QueryStatus::Wedged`], the thread is abandoned, and a replacement
    /// worker restores capacity. See [`crate::supervisor`] for the protocol.
    /// Staleness is timed by the supervisor's own scans, so a
    /// `scan_interval` above `stale_after` is clamped down to it.
    pub fn supervised(prefix: &str, threads: usize, mut config: SupervisorConfig) -> Self {
        config.scan_interval = config.scan_interval.min(config.stale_after);
        Self::build(prefix, threads, Some(config))
    }

    fn build(prefix: &str, threads: usize, config: Option<SupervisorConfig>) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { job: None, epoch: 0, shutdown: false }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            slots: (0..threads).map(|_| WorkerSlot::new()).collect(),
            handles: Mutex::new((0..threads).map(|_| None).collect()),
            live: AtomicUsize::new(0),
            prefix: prefix.to_string(),
            queries_wedged: AtomicU64::new(0),
            workers_replaced: AtomicU64::new(0),
        });
        for i in 0..threads {
            // Out of threads: run with however many we got.
            if !shared.spawn_worker(i, 0, 0) {
                break;
            }
        }
        let supervisor = config.and_then(|config| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{prefix}-sup"))
                .spawn(move || supervisor_loop(shared, config))
                .ok()
        });
        Self {
            shared,
            supervisor,
            submit: Mutex::new(()),
            cancel: CancelToken::new(),
            stats: StatsSink::new(),
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::new(n)
    }

    /// Number of worker threads (0 means queries run inline on the
    /// submitter; see [`QueryPool::new`]).
    pub fn threads(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Queries that had a worker escalated as wedged by the supervisor.
    pub fn wedged_queries(&self) -> u64 {
        self.shared.queries_wedged.load(Ordering::Relaxed)
    }

    /// Worker threads abandoned and replaced by the supervisor.
    pub fn workers_replaced(&self) -> u64 {
        self.shared.workers_replaced.load(Ordering::Relaxed)
    }

    /// Cancels the in-flight query (if any): all workers observe expiry at
    /// their next deadline check and the outcome is flagged timed out.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Runs `matcher` as a vcFV query over the whole database. Results are
    /// identical to the sequential engine's for queries that complete within
    /// the budget (answers sorted by graph id); only timing differs.
    ///
    /// The pool attaches its own [`CancelToken`] to `deadline`, so the first
    /// worker to time out stops all others promptly and the merged outcome
    /// is flagged timed out.
    ///
    /// This method never panics on matcher failures: a panic on one (query,
    /// graph) pair degrades that pair to a [`GraphFailure`] (all other
    /// answers are preserved), and even an infrastructure panic in the pool
    /// itself is absorbed into [`QueryStatus::Panicked`] with every
    /// completed worker part intact.
    pub fn query(
        &self,
        matcher: Arc<dyn Matcher>,
        db: &Arc<GraphDb>,
        q: &Graph,
        deadline: Deadline,
    ) -> ParallelOutcome {
        self.query_masked(matcher, db, &Arc::new(q.clone()), deadline, None)
    }

    /// Like [`query`](QueryPool::query), but graphs whose entry in `mask` is
    /// `true` are short-circuited to a [`QueryStatus::Quarantined`] failure
    /// record without consulting the matcher — the serving layer's circuit
    /// breakers use this to quarantine sick graphs. `mask`, when present,
    /// must have exactly `db.len()` entries. The workers share the caller's
    /// `q`; nothing is copied.
    pub fn query_masked(
        &self,
        matcher: Arc<dyn Matcher>,
        db: &Arc<GraphDb>,
        q: &Arc<Graph>,
        deadline: Deadline,
        mask: Option<Arc<[bool]>>,
    ) -> ParallelOutcome {
        if let Some(mask) = &mask {
            assert_eq!(mask.len(), db.len(), "quarantine mask must cover the whole database");
        }
        let _serial = lock(&self.submit);
        // Workers are idle here (previous job fully drained), so the flag
        // can be reused without racing a stale cancellation.
        self.cancel.reset();
        let mut deadline = deadline.with_cancel(self.cancel);
        if !deadline.stats().is_some() {
            // Workers are idle (previous job drained), so resetting the
            // pool's shared sink cannot race a stale recording.
            self.stats.reset();
            deadline = deadline.with_stats(self.stats);
        }
        let t0 = Instant::now();
        let threads = self.shared.live.load(Ordering::Relaxed);
        let job = Arc::new(Job {
            matcher,
            db: Arc::clone(db),
            q: Arc::clone(q),
            deadline,
            mask,
            next: AtomicUsize::new(0),
            parts: Mutex::new(Vec::with_capacity(threads.max(1))),
            remaining: AtomicUsize::new(threads),
            panic_note: Mutex::new(None),
            wedged: AtomicBool::new(false),
        });

        if threads == 0 {
            // Degraded pool (no worker threads spawned): run the single
            // shard inline on the submitter, with the same backstop.
            if let Some(part) = job.run_worker_guarded(job.deadline, None, 0) {
                lock(&job.parts).push(part);
            }
        } else {
            let mut state = lock(&self.shared.state);
            state.job = Some(Arc::clone(&job));
            state.epoch += 1;
            self.shared.work_ready.notify_all();
            while job.remaining.load(Ordering::Acquire) != 0 {
                state = self.shared.job_done.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            state.job = None;
            drop(state);
        }

        let parts = std::mem::take(&mut *lock(&job.parts));
        let mut outcome = merge_parts(parts);
        if let Some(message) = lock(&job.panic_note).take() {
            outcome.status.absorb(QueryStatus::Panicked { message });
        }
        // Workers recorded into the (shared, atomic) sink; one snapshot
        // covers every shard regardless of thread count.
        outcome.kernel = deadline.stats().snapshot();
        outcome.phases = deadline.stats().phase_snapshot();
        ParallelOutcome { outcome, wall_time: t0.elapsed(), threads: threads.max(1) }
    }
}

impl Drop for QueryPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // Take the handles out first: joining must not hold the lock (a
        // replacement spawn is impossible here — the supervisor is gone —
        // but a still-committing worker takes the state lock, never this).
        let handles: Vec<JoinHandle<()>> =
            lock(&self.shared.handles).iter_mut().filter_map(Option::take).collect();
        // Abandoned (wedged) workers were detached at escalation and are
        // intentionally not joined: they may never exit.
        for w in handles {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Arc<PoolShared>, idx: usize, my_gen: u64, start_epoch: u64) {
    let mut seen_epoch = start_epoch;
    loop {
        let (job, deadline) = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    match state.job.as_ref() {
                        Some(job) => {
                            // Mark the slot busy before releasing the lock
                            // so the supervisor sees an up-to-date picture.
                            let slot = &shared.slots[idx];
                            slot.beat.reset();
                            slot.busy_graph.store(usize::MAX, Ordering::Relaxed);
                            slot.busy_epoch.store(state.epoch, Ordering::Release);
                            break (Arc::clone(job), job.deadline.with_beat(slot.beat));
                        }
                        // A new epoch always installs a job first; treat a
                        // missing one as a spurious wakeup rather than
                        // poisoning the whole pool.
                        None => continue,
                    }
                }
                state = shared.work_ready.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let part = job.run_worker_guarded(deadline, Some(&shared.slots[idx]), my_gen);
        // Commit under the state lock — both so the submitter can't check
        // the counter and sleep between our decrement and notify (missed
        // wakeup), and so the commit is atomic with supervisor escalation.
        let _state = lock(&shared.state);
        let slot = &shared.slots[idx];
        if slot.generation.load(Ordering::Acquire) != my_gen {
            // Abandoned: the supervisor already settled this shard's
            // accounting and a replacement owns the slot. Exit quietly;
            // committing here would double-decrement `remaining` or leak a
            // stale part into a merge.
            return;
        }
        slot.busy_epoch.store(0, Ordering::Release);
        if let Some(part) = part {
            lock(&job.parts).push(part);
        }
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.job_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::{GraphBuilder, Label, VertexId};
    use sqp_matching::cfql::Cfql;

    fn labeled(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new();
        for &l in labels {
            b.add_vertex(Label(l));
        }
        for &(u, v) in edges {
            b.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
        b.build()
    }

    fn db(n: usize) -> Arc<GraphDb> {
        let graphs = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)])
                } else {
                    labeled(&[0, 1], &[(0, 1)])
                }
            })
            .collect();
        Arc::new(GraphDb::from_graphs(graphs))
    }

    #[test]
    fn pool_matches_sequential_results() {
        let db = db(25);
        let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let expected: Vec<GraphId> = (0..25u32).filter(|i| i % 3 == 0).map(GraphId).collect();
        for threads in [1, 2, 4, 8] {
            let pool = QueryPool::new(threads);
            let matcher: Arc<dyn Matcher> = Arc::new(Cfql::new());
            let r = pool.query(Arc::clone(&matcher), &db, &q, Deadline::none());
            assert_eq!(r.outcome.answers, expected, "{threads} threads");
            assert_eq!(r.outcome.candidates, 9);
            assert_eq!(r.threads, threads);
        }
    }

    #[test]
    fn pool_reuses_workers_across_queries() {
        let db = db(12);
        let pool = QueryPool::new(4);
        let matcher: Arc<dyn Matcher> = Arc::new(Cfql::new());
        let q_tri = labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let q_edge = labeled(&[0, 1], &[(0, 1)]);
        for _ in 0..5 {
            let tri = pool.query(Arc::clone(&matcher), &db, &q_tri, Deadline::none());
            assert_eq!(tri.outcome.answers.len(), 4);
            let edge = pool.query(Arc::clone(&matcher), &db, &q_edge, Deadline::none());
            assert_eq!(edge.outcome.answers.len(), 12);
        }
    }

    #[test]
    fn pool_larger_than_database() {
        let db = Arc::new(GraphDb::from_graphs(vec![labeled(&[0, 1], &[(0, 1)])]));
        let q = labeled(&[0, 1], &[(0, 1)]);
        let pool = QueryPool::new(16);
        let r = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none());
        assert_eq!(r.outcome.answers.len(), 1);
    }

    #[test]
    fn empty_database() {
        let db = Arc::new(GraphDb::from_graphs(vec![]));
        let q = labeled(&[0, 1], &[(0, 1)]);
        let pool = QueryPool::new(4);
        let r = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none());
        assert!(r.outcome.answers.is_empty());
        assert!(!r.outcome.timed_out());
    }

    #[test]
    fn timeout_propagates_and_cancels_siblings() {
        let db = db(20);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let d = Deadline::at(std::time::Instant::now() - Duration::from_millis(1));
        let pool = QueryPool::new(4);
        let r = pool.query(Arc::new(Cfql::new()), &db, &q, d);
        assert!(r.outcome.timed_out());
        // And the pool remains usable for the next (unbudgeted) query.
        let ok = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none());
        assert!(!ok.outcome.timed_out());
        assert_eq!(ok.outcome.answers.len(), 20);
    }

    #[test]
    fn external_cancel_stops_query() {
        let db = db(40);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let pool = QueryPool::new(2);
        // Cancel before submission: the query observes it immediately and
        // reports a timeout without processing the whole database... unless
        // workers already drained every graph, which is also acceptable —
        // the point is prompt return, which the test bounds implicitly.
        pool.cancel();
        // reset happens inside query(); cancel *during* the run instead.
        let matcher: Arc<dyn Matcher> = Arc::new(Cfql::new());
        let r = pool.query(Arc::clone(&matcher), &db, &q, Deadline::none());
        assert!(!r.outcome.timed_out(), "reset must clear a stale cancel");

        // Now cancel mid-flight from another thread.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(1));
                pool.cancel();
            });
            let _ = pool.query(Arc::clone(&matcher), &db, &q, Deadline::none());
            // Whether it finished before or after the cancel, the pool must
            // stay consistent for the next query.
        });
        let ok = pool.query(matcher, &db, &q, Deadline::none());
        assert_eq!(ok.outcome.answers.len(), 40);
    }

    /// A matcher that panics when filtering any data graph whose vertex 0
    /// carries `poison_label`; otherwise delegates to CFQL.
    struct PanicOn {
        inner: Cfql,
        poison_label: Label,
    }

    impl Matcher for PanicOn {
        fn name(&self) -> &'static str {
            "panic-on"
        }
        fn filter(
            &self,
            q: &Graph,
            g: &Graph,
            deadline: Deadline,
        ) -> Result<FilterResult, sqp_matching::Timeout> {
            if g.vertex_count() > 0 && g.label(sqp_graph::VertexId(0)) == self.poison_label {
                panic!("injected matcher panic");
            }
            self.inner.filter(q, g, deadline)
        }
        fn find_first(
            &self,
            q: &Graph,
            g: &Graph,
            space: &sqp_matching::CandidateSpace,
            deadline: Deadline,
        ) -> Result<Option<sqp_matching::Embedding>, sqp_matching::Timeout> {
            self.inner.find_first(q, g, space, deadline)
        }
        fn enumerate(
            &self,
            q: &Graph,
            g: &Graph,
            space: &sqp_matching::CandidateSpace,
            limit: u64,
            deadline: Deadline,
            on_match: &mut dyn FnMut(&sqp_matching::Embedding),
        ) -> Result<u64, sqp_matching::Timeout> {
            self.inner.enumerate(q, g, space, limit, deadline, on_match)
        }
    }

    /// A database where graph `poison` has a distinctive first label the
    /// test matcher panics on; every other graph answers the edge query.
    fn poisoned_db(n: usize, poison: usize) -> Arc<GraphDb> {
        let graphs = (0..n)
            .map(|i| {
                if i == poison {
                    labeled(&[9, 1], &[(0, 1)])
                } else {
                    labeled(&[0, 1], &[(0, 1)])
                }
            })
            .collect();
        Arc::new(GraphDb::from_graphs(graphs))
    }

    #[test]
    fn panic_on_one_graph_preserves_all_other_answers() {
        let q = labeled(&[0, 1], &[(0, 1)]);
        for threads in [1, 2, 4, 8] {
            let db = poisoned_db(20, 7);
            let pool = QueryPool::new(threads);
            let matcher: Arc<dyn Matcher> =
                Arc::new(PanicOn { inner: Cfql::new(), poison_label: Label(9) });
            let r = pool.query(Arc::clone(&matcher), &db, &q, Deadline::none());
            // All 19 healthy graphs answered; the poisoned one is attributed.
            let expected: Vec<GraphId> = (0..20u32).filter(|&i| i != 7).map(GraphId).collect();
            assert_eq!(r.outcome.answers, expected, "{threads} threads");
            assert!(r.outcome.status.is_panicked(), "{threads} threads");
            assert_eq!(r.outcome.failures.len(), 1);
            assert_eq!(r.outcome.failures[0].graph, GraphId(7));
            assert!(r.outcome.failures[0].status.is_panicked());
            match &r.outcome.status {
                QueryStatus::Panicked { message } => {
                    assert!(message.contains("injected matcher panic"), "{message}");
                }
                other => panic!("unexpected status {other:?}"),
            }
            // The pool stays usable after the panic. (The poisoned graph has
            // labels [9, 1], so even a healthy matcher rejects it: 19 answers.)
            let ok = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none());
            assert_eq!(ok.outcome.answers, expected);
            assert!(ok.outcome.status.is_completed());
        }
    }

    #[test]
    fn panic_attribution_is_deterministic_across_thread_counts() {
        let q = labeled(&[0, 1], &[(0, 1)]);
        let mut baseline: Option<QueryOutcome> = None;
        for threads in [1, 2, 4, 8] {
            let db = poisoned_db(16, 3);
            let pool = QueryPool::new(threads);
            let matcher: Arc<dyn Matcher> =
                Arc::new(PanicOn { inner: Cfql::new(), poison_label: Label(9) });
            let r = pool.query(matcher, &db, &q, Deadline::none());
            match &baseline {
                None => baseline = Some(r.outcome),
                Some(b) => {
                    assert_eq!(b.answers, r.outcome.answers, "{threads} threads");
                    assert_eq!(b.status, r.outcome.status, "{threads} threads");
                    assert_eq!(b.failures, r.outcome.failures, "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn masked_graphs_short_circuit_to_quarantined() {
        let db = db(12);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let mut mask = vec![false; 12];
        mask[3] = true;
        mask[7] = true;
        let mask: Arc<[bool]> = mask.into();
        for threads in [1, 2, 4, 8] {
            let pool = QueryPool::new(threads);
            let r = pool.query_masked(
                Arc::new(Cfql::new()),
                &db,
                &Arc::new(q.clone()),
                Deadline::none(),
                Some(Arc::clone(&mask)),
            );
            let expected: Vec<GraphId> =
                (0..12u32).filter(|&i| i != 3 && i != 7).map(GraphId).collect();
            assert_eq!(r.outcome.answers, expected, "{threads} threads");
            assert!(r.outcome.status.is_quarantined(), "{threads} threads");
            assert_eq!(r.outcome.failures.len(), 2);
            assert_eq!(r.outcome.failures[0].graph, GraphId(3));
            assert_eq!(r.outcome.failures[1].graph, GraphId(7));
            assert!(r.outcome.failures.iter().all(|f| f.status.is_quarantined()));
        }
    }

    #[test]
    fn resource_exhaustion_classified_not_timed_out() {
        use sqp_matching::{ResourceGuard, ResourceKind, ResourceLimits};
        let db = db(30);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let guard = ResourceGuard::new();
        // A 1-byte aux budget trips on the first candidate space.
        guard.reset(ResourceLimits::unlimited().with_max_aux_bytes(1));
        let pool = QueryPool::new(4);
        let r = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none().with_guard(guard));
        assert!(r.outcome.status.is_exhausted());
        assert_eq!(r.outcome.status, QueryStatus::ResourceExhausted { kind: ResourceKind::Memory });
        assert!(!r.outcome.timed_out());
        assert!(!r.outcome.failures.is_empty());
    }
}
