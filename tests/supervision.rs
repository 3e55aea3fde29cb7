//! Supervised-execution suite (DESIGN.md "Supervision & recovery",
//! invariant I8 extended to wedged workers):
//!
//! * a query wedged on a matcher that never ticks its deadline is escalated
//!   by the heartbeat supervisor: the query resolves [`QueryStatus::Wedged`]
//!   shortly after `deadline + grace`, the stuck worker thread is abandoned,
//!   and a replacement keeps the pool at full capacity — at every thread
//!   count;
//! * a worker that is late but still ticking is never escalated, at every
//!   thread count, and a `scan_interval` above `stale_after` is clamped;
//! * queries that do **not** hit the wedge pair return answers byte-identical
//!   to a fault-free run, at every thread count;
//! * a [`QueryService`] drain over a wedged worker terminates with a
//!   [`DrainReport`] and surfaces the wedge in [`ServiceHealth`];
//! * the run journal replays any byte-truncation (torn tail) to a *prefix*
//!   of the completed set — never a false completion (property-tested);
//! * `--resume` semantics: a journaled re-run skips exactly the completed
//!   queries and re-runs the rest.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use subgraph_query::core::chaos::{graph_fingerprint, torn_tail};
use subgraph_query::core::prelude::*;
use subgraph_query::datagen::graphgen;
use subgraph_query::datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
use subgraph_query::graph::database::GraphId;
use subgraph_query::graph::{Graph, GraphDb};
use subgraph_query::matching::cfql::Cfql;
use subgraph_query::matching::{
    CandidateSpace, Deadline, Embedding, FilterResult, Matcher, Timeout,
};

/// Small fixture: 12 data graphs x 6 queries, collision-free fingerprints.
fn fixture() -> (Arc<GraphDb>, Vec<Graph>) {
    let db = Arc::new(graphgen::generate(12, 14, 4, 3.0, 19));
    let spec = QuerySetSpec { edges: 4, method: QueryGenMethod::RandomWalk, count: 6 };
    let queries = generate_query_set(&db, spec, 23);
    assert_eq!(queries.len(), 6);
    let mut fps: Vec<u64> =
        db.graphs().iter().chain(queries.iter()).map(graph_fingerprint).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), db.len() + queries.len(), "fingerprint collision in fixture");
    (db, queries)
}

/// Supervisor tuned for test latency: tight grace and scan cadence.
fn fast_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        grace: Duration::from_millis(50),
        scan_interval: Duration::from_millis(10),
        stale_after: Duration::from_millis(50),
    }
}

const BUDGET: Duration = Duration::from_millis(100);

/// Wedge pair: query 0 against data graph 0.
fn stuck_matcher(db: &GraphDb, queries: &[Graph]) -> Arc<StuckMatcher> {
    Arc::new(StuckMatcher::new(
        Arc::new(Cfql::new()),
        graph_fingerprint(&queries[0]),
        graph_fingerprint(db.graph(GraphId(0))),
    ))
}

#[test]
fn wedged_query_is_escalated_and_pool_keeps_capacity() {
    let (db, queries) = fixture();
    for threads in [1usize, 2, 4, 8] {
        let stuck = stuck_matcher(&db, &queries);
        let release = stuck.release_handle();
        let matcher: Arc<dyn Matcher> = stuck;
        let pool = QueryPool::supervised("sup-cap", threads, fast_supervisor());

        let t0 = Instant::now();
        let out = pool.query(Arc::clone(&matcher), &db, &queries[0], Deadline::after(BUDGET));
        let elapsed = t0.elapsed();
        assert_eq!(
            out.outcome.status,
            QueryStatus::Wedged,
            "threads={threads}: wedged query must resolve Wedged"
        );
        assert!(elapsed >= BUDGET, "threads={threads}: cannot escalate before the deadline passes");
        // `deadline + grace` is 150ms; the bound below is loose only to
        // absorb CI scheduling noise, not a different escalation latency.
        assert!(elapsed < Duration::from_secs(5), "threads={threads}: escalation took {elapsed:?}");
        assert!(
            out.outcome.failures.iter().any(|f| f.status == QueryStatus::Wedged),
            "threads={threads}: the wedged graph must be attributed"
        );
        assert_eq!(pool.wedged_queries(), 1, "threads={threads}");
        assert!(pool.workers_replaced() >= 1, "threads={threads}");
        assert_eq!(
            pool.threads(),
            threads,
            "threads={threads}: replacement must restore full capacity"
        );

        // The pool keeps serving: the remaining queries complete normally
        // (they never touch the wedge pair) while the abandoned worker is
        // still asleep inside the matcher.
        for q in &queries[1..] {
            let out = pool.query(Arc::clone(&matcher), &db, q, Deadline::after(BUDGET));
            assert_eq!(out.outcome.status, QueryStatus::Completed, "threads={threads}");
        }
        // Let the abandoned thread exit before the pool is dropped.
        release.store(true, std::sync::atomic::Ordering::Release);
    }
}

/// Invariant I8, extended: a wedge on one (query, graph) pair never perturbs
/// any other query's answers, at every thread count.
#[test]
fn wedge_escalation_preserves_nonwedged_results() {
    let (db, queries) = fixture();
    // Fault-free reference.
    let baseline: Vec<QueryOutcome> = {
        let pool = QueryPool::new(1);
        let matcher: Arc<dyn Matcher> = Arc::new(Cfql::new());
        queries
            .iter()
            .map(|q| pool.query(Arc::clone(&matcher), &db, q, Deadline::after(BUDGET)).outcome)
            .collect()
    };
    assert!(baseline.iter().all(|o| o.status == QueryStatus::Completed));

    for threads in [1usize, 2, 4, 8] {
        let stuck = stuck_matcher(&db, &queries);
        let release = stuck.release_handle();
        let matcher: Arc<dyn Matcher> = stuck;
        let pool = QueryPool::supervised("sup-i8", threads, fast_supervisor());
        let outcomes: Vec<QueryOutcome> = queries
            .iter()
            .map(|q| pool.query(Arc::clone(&matcher), &db, q, Deadline::after(BUDGET)).outcome)
            .collect();

        assert_eq!(outcomes[0].status, QueryStatus::Wedged, "threads={threads}");
        for (i, (got, want)) in outcomes.iter().zip(&baseline).enumerate().skip(1) {
            assert_eq!(got.status, QueryStatus::Completed, "threads={threads} query {i}");
            assert_eq!(
                got.answers, want.answers,
                "threads={threads} query {i}: answers must be byte-identical"
            );
        }
        release.store(true, std::sync::atomic::Ordering::Release);
    }
}

/// Consults its deadline every millisecond — so its heartbeat count keeps
/// moving — but on the target pair ignores the answer until `hold` has
/// passed: late, not wedged.
struct DeafMatcher {
    inner: Cfql,
    q_target: u64,
    g_target: u64,
    hold: Duration,
}

impl Matcher for DeafMatcher {
    fn name(&self) -> &'static str {
        "Deaf"
    }
    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        if graph_fingerprint(q) == self.q_target && graph_fingerprint(g) == self.g_target {
            let t0 = Instant::now();
            while t0.elapsed() < self.hold {
                let _ = deadline.check();
                std::thread::sleep(Duration::from_millis(1));
            }
            deadline.check()?;
        }
        self.inner.filter(q, g, deadline)
    }
    fn find_first(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        deadline: Deadline,
    ) -> Result<Option<Embedding>, Timeout> {
        self.inner.find_first(q, g, space, deadline)
    }
    fn enumerate(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        limit: u64,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&Embedding),
    ) -> Result<u64, Timeout> {
        self.inner.enumerate(q, g, space, limit, deadline, on_match)
    }
}

/// The heartbeat is a counter the supervisor times: a worker that is overdue
/// by far more than `grace + stale_after` but still ticking is never
/// escalated — cooperative cancellation is what stops it.
#[test]
fn slow_but_ticking_worker_is_never_escalated() {
    let (db, queries) = fixture();
    let hold = BUDGET + Duration::from_millis(300);
    for threads in [1usize, 2, 4, 8] {
        let matcher: Arc<dyn Matcher> = Arc::new(DeafMatcher {
            inner: Cfql::new(),
            q_target: graph_fingerprint(&queries[0]),
            g_target: graph_fingerprint(db.graph(GraphId(0))),
            hold,
        });
        let pool = QueryPool::supervised("sup-slow", threads, fast_supervisor());
        let t0 = Instant::now();
        let out = pool.query(Arc::clone(&matcher), &db, &queries[0], Deadline::after(BUDGET));
        assert!(t0.elapsed() >= hold, "threads={threads}: the late worker was cut short");
        assert_eq!(out.outcome.status, QueryStatus::TimedOut, "threads={threads}");
        assert_eq!(pool.wedged_queries(), 0, "threads={threads}");
        assert_eq!(pool.workers_replaced(), 0, "threads={threads}");
        assert_eq!(pool.threads(), threads, "threads={threads}");
    }
}

/// Staleness has `scan_interval` granularity, so a supervisor configured to
/// scan more rarely than `stale_after` is clamped: a wedge is still found in
/// a few `stale_after`s, not after one 30 s scan.
#[test]
fn scan_interval_above_stale_after_is_clamped() {
    let (db, queries) = fixture();
    let stuck = stuck_matcher(&db, &queries);
    let release = stuck.release_handle();
    let config = SupervisorConfig { scan_interval: Duration::from_secs(30), ..fast_supervisor() };
    let pool = QueryPool::supervised("sup-clamp", 2, config);
    let t0 = Instant::now();
    let out = pool.query(stuck, &db, &queries[0], Deadline::after(BUDGET));
    assert_eq!(out.outcome.status, QueryStatus::Wedged);
    assert!(t0.elapsed() < Duration::from_secs(5), "escalation took {:?}", t0.elapsed());
    release.store(true, std::sync::atomic::Ordering::Release);
}

/// A service drain over a wedged worker must still terminate with a
/// [`DrainReport`], and the wedge must show up in [`ServiceHealth`].
#[test]
fn service_drain_terminates_despite_wedged_worker() {
    let (db, queries) = fixture();
    let stuck = stuck_matcher(&db, &queries);
    let release = stuck.release_handle();
    let matcher: Arc<dyn Matcher> = stuck;
    let config = ServiceConfig {
        threads: 2,
        runner: RunnerConfig::with_budget(BUDGET),
        supervisor: Some(fast_supervisor()),
        thread_prefix: "sup-svc".into(),
        ..Default::default()
    };
    let service = QueryService::new(matcher, Arc::clone(&db), config);
    let tickets = service.submit_batch(&queries);
    for (ticket, _) in &tickets {
        let (outcome, _) = ticket.wait();
        let _ = outcome;
    }
    let health = service.health();
    assert_eq!(health.wedged_queries, 1);
    assert!(health.workers_replaced >= 1);
    let report = service.shutdown();
    assert!(report.drained_within_deadline, "drain must reach a terminal report");
    release.store(true, std::sync::atomic::Ordering::Release);
}

// ---------------------------------------------------------------------------
// Journal torn-tail property + resume semantics
// ---------------------------------------------------------------------------

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sqp-supervision-{name}-{}", std::process::id()));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any byte-truncation of a journal replays to a prefix of the completed
    /// set: record k is recovered iff every byte of records 0..=k survived.
    /// No cut can fabricate a completion that was never written.
    #[test]
    fn any_truncation_replays_to_a_prefix(n in 1usize..20, seed in any::<u64>()) {
        let path = tmp(&format!("torn-{n}-{seed}"));
        let db_fp = 0xfeed;
        let mut j = RunJournal::create(&path, db_fp).unwrap();
        let mut line_ends = Vec::new();
        for i in 0..n {
            j.record(i as u64, &QueryStatus::Completed, i, "CFQL").unwrap();
            line_ends.push(std::fs::metadata(&path).unwrap().len() as usize);
        }
        drop(j);

        let bytes = std::fs::read(&path).unwrap();
        let torn = torn_tail(&bytes, seed);
        std::fs::write(&path, torn).unwrap();

        let j = RunJournal::resume(&path, db_fp).unwrap();
        // The survivors are exactly the records whose final byte survived.
        let intact = line_ends.iter().filter(|&&end| end <= torn.len()).count();
        prop_assert_eq!(j.stats().replayed, intact as u64);
        for i in 0..n {
            prop_assert_eq!(j.is_done(i as u64), i < intact, "record {} after cut {}", i, torn.len());
        }
        std::fs::remove_file(&path).ok();
    }
}

/// `--resume` end-to-end at the runner layer: a second journaled run skips
/// exactly the queries the first run completed and re-runs the rest.
#[test]
fn journaled_rerun_skips_completed_queries_only() {
    let (db, queries) = fixture();
    let path = tmp("resume");
    let db_fp = db_fingerprint(&db);
    let mut engine = ParallelEngine::new("CFQL", Arc::new(Cfql::new()), QueryPool::new(2));
    engine.build(&db).unwrap();
    let config = RunnerConfig::with_budget(Duration::from_secs(10));

    // First run covers only the first half of the set (simulating a kill).
    let mut journal = RunJournal::create(&path, db_fp).unwrap();
    let first =
        run_query_set_journaled(&mut engine, "resume", &queries[..3], config, Some(&mut journal));
    assert_eq!(first.records.len(), 3);
    assert_eq!(journal.stats().appended, 3);
    drop(journal);

    // The resumed run over the full set re-runs only the unfinished tail.
    let mut journal = RunJournal::resume(&path, db_fp).unwrap();
    assert_eq!(journal.stats().replayed, 3);
    let second =
        run_query_set_journaled(&mut engine, "resume", &queries, config, Some(&mut journal));
    assert_eq!(second.records.len(), queries.len() - 3, "completed queries must be skipped");
    assert_eq!(journal.stats().skipped, 3);
    assert_eq!(journal.stats().appended, queries.len() as u64 - 3);
    assert_eq!(journal.done_count(), queries.len());
    std::fs::remove_file(&path).ok();
}
