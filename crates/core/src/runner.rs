//! Running query sets against engines, with per-query fault isolation, a
//! bounded retry-with-backoff policy for transient panics, and optional
//! crash-consistent journaling for kill-and-resume runs.
//!
//! One loop, [`run_query_set_journaled`], serves every [`QueryEngine`]. Behind
//! a pooled [`ParallelEngine`](crate::engines::ParallelEngine) the recorded
//! phase times are summed worker CPU times: `avg_query_ms` then measures
//! work, not latency (`DESIGN.md` §2.4).

use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sqp_graph::hash::FxHasher;
use sqp_graph::Graph;
use sqp_matching::ResourceLimits;

use crate::chaos::graph_fingerprint;
use crate::engine::{QueryEngine, QueryOutcome};
use crate::journal::RunJournal;
use crate::metrics::QuerySetReport;
use crate::parallel::panic_message;

/// Configuration of a query-set run.
#[derive(Clone, Copy, Debug)]
pub struct RunnerConfig {
    /// Per-query time budget (the paper: 10 minutes). `None` = unlimited.
    pub query_budget: Option<Duration>,
    /// Stop early once this many queries timed out — the paper omits a
    /// query set after 40% failures, so burning the full budget on every
    /// remaining query is pointless. `None` = never stop early. Only
    /// wall-clock timeouts count; panics and resource exhaustion do not.
    pub abort_after_timeouts: Option<usize>,
    /// How many times to re-run a *panicked* query before recording the
    /// failure (transient faults: a poisoned cache line, an injected chaos
    /// fault that moves). Timeouts and resource exhaustion are
    /// deterministic under a fixed budget, so they are never retried.
    pub max_retries: u32,
    /// Backoff before the first retry, doubling per attempt.
    pub retry_backoff: Duration,
    /// Per-query resource budgets (enumeration steps / auxiliary bytes).
    pub limits: ResourceLimits,
    /// Seed for deterministic backoff jitter (0 = no jitter). The runners
    /// set it per query from the query's [`graph_fingerprint`], spreading a
    /// pool of simultaneously retrying queries over up to +50% of the base
    /// backoff instead of thundering-herding on the same instant, while
    /// keeping every run bit-reproducible.
    pub jitter_seed: u64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            query_budget: Some(Duration::from_secs(600)),
            abort_after_timeouts: None,
            max_retries: 0,
            retry_backoff: Duration::from_millis(10),
            limits: ResourceLimits::unlimited(),
            jitter_seed: 0,
        }
    }
}

impl RunnerConfig {
    /// A configuration with the given per-query budget.
    pub fn with_budget(budget: Duration) -> Self {
        Self { query_budget: Some(budget), ..Self::default() }
    }

    /// A configuration with the given retry policy.
    pub fn with_retries(max_retries: u32) -> Self {
        Self { max_retries, ..Self::default() }
    }

    /// This configuration with the jitter seed set (typically a query
    /// fingerprint; see [`RunnerConfig::jitter_seed`]).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }
}

/// Deterministic backoff jitter: stretches `base` by up to +50%, as a pure
/// function of `(seed, attempt)`. Seed 0 disables jitter.
fn jittered(base: Duration, seed: u64, attempt: u32) -> Duration {
    if seed == 0 || base.is_zero() {
        return base;
    }
    let mut h = FxHasher::default();
    seed.hash(&mut h);
    attempt.hash(&mut h);
    let frac = h.finish() % 1024; // extra = base/2 × frac/1024
    let extra_nanos = (base.as_nanos() as u64 / 2048).saturating_mul(frac);
    base + Duration::from_nanos(extra_nanos)
}

/// Runs `attempt` until its result is no longer `retryable`, at most
/// `config.max_retries` more times, with doubling, jittered backoff.
/// Returns the final result and the number of retries spent.
///
/// Every attempt — and every backoff sleep between attempts — is charged
/// against the *same* per-query budget: `attempt` receives the remaining
/// slice of `config.query_budget` (`None` = unlimited), backoff sleeps are
/// clipped to what is left, and retrying stops outright once the budget is
/// spent. Retries can therefore never extend a query's wall clock past the
/// configured budget.
pub(crate) fn retry_loop<T>(
    config: RunnerConfig,
    retryable: impl Fn(&T) -> bool,
    mut attempt: impl FnMut(Option<Duration>) -> T,
) -> (T, u32) {
    let start = Instant::now();
    let remaining = |start: Instant| config.query_budget.map(|b| b.saturating_sub(start.elapsed()));
    let mut result = attempt(remaining(start));
    let mut retries = 0;
    let mut backoff = config.retry_backoff;
    while retryable(&result) && retries < config.max_retries {
        // Deterministic per-(query, attempt) jitter so a pool of queries
        // retrying the same transient fault spreads out instead of
        // thundering-herding on the same instant.
        let sleep = jittered(backoff, config.jitter_seed, retries);
        match remaining(start) {
            Some(left) if left.is_zero() => break,
            Some(left) => std::thread::sleep(sleep.min(left)),
            None => std::thread::sleep(sleep),
        }
        backoff = backoff.saturating_mul(2);
        retries += 1;
        result = attempt(remaining(start));
    }
    (result, retries)
}

/// [`retry_loop`] for one query run locally: a *panicked* outcome is the
/// transient fault worth another attempt.
pub(crate) fn run_with_retries(
    config: RunnerConfig,
    attempt: impl FnMut(Option<Duration>) -> QueryOutcome,
) -> (QueryOutcome, u32) {
    retry_loop(config, |outcome| outcome.status.is_panicked(), attempt)
}

/// [`run_query_set_journaled`] without a journal.
pub fn run_query_set(
    engine: &mut dyn QueryEngine,
    query_set_name: &str,
    queries: &[Graph],
    config: RunnerConfig,
) -> QuerySetReport {
    run_query_set_journaled(engine, query_set_name, queries, config, None)
}

/// Runs `queries` against a built engine, producing a [`QuerySetReport`].
///
/// The engine must already have been [`build`](QueryEngine::build)-ed.
/// Each query is individually guarded: a panic that escapes the engine is
/// caught here and recorded as one degraded `QueryRecord` — every other
/// query in the set still runs and keeps its exact answers.
///
/// With a crash-consistent [`RunJournal`], queries the journal already holds
/// a terminal (non-shed) outcome for are skipped (counted in the journal's
/// stats, absent from the report), and every outcome produced here is
/// appended to the journal as the query finishes — so a killed run resumes
/// where it died.
pub fn run_query_set_journaled(
    engine: &mut dyn QueryEngine,
    query_set_name: &str,
    queries: &[Graph],
    config: RunnerConfig,
    mut journal: Option<&mut RunJournal>,
) -> QuerySetReport {
    engine.set_resource_limits(config.limits);
    let mut report = QuerySetReport::new(engine.name(), query_set_name);
    for q in queries {
        let q_fp = graph_fingerprint(q);
        if let Some(j) = journal.as_deref_mut() {
            if j.should_skip(q_fp) {
                continue;
            }
        }
        let config = config.with_jitter_seed(q_fp);
        let (outcome, retries) = run_with_retries(config, |remaining| {
            // Retry attempts see only the budget slice that is left.
            engine.set_query_budget(remaining);
            match catch_unwind(AssertUnwindSafe(|| engine.query(q))) {
                Ok(outcome) => outcome,
                Err(payload) => QueryOutcome::panicked(panic_message(payload)),
            }
        });
        if let Some(j) = journal.as_deref_mut() {
            // Journal I/O failure must not kill the run; the worst case is
            // re-running this query on resume.
            let _ = j.record(q_fp, &outcome.status, outcome.answers.len(), engine.name());
        }
        report.push_outcome(&outcome, retries, config.query_budget);
        if let Some(max) = config.abort_after_timeouts {
            if report.timeout_count() >= max {
                break;
            }
        }
    }
    // Retry attempts ran under shrinking slices; leave the engine with the
    // set's budget, not the last attempt's remainder.
    engine.set_query_budget(config.query_budget);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryStatus;
    use crate::engines::{CfqlEngine, ParallelEngine};
    use crate::parallel::QueryPool;
    use sqp_matching::cfql::Cfql;
    use std::sync::Arc;

    use sqp_graph::{GraphBuilder, GraphDb, Label, VertexId};

    fn pooled(db: &Arc<GraphDb>, threads: usize) -> ParallelEngine {
        let mut e = ParallelEngine::new("CFQL-par", Arc::new(Cfql::new()), QueryPool::new(threads));
        e.build(db).unwrap();
        e
    }

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

    #[test]
    fn runs_all_queries() {
        let db = Arc::new(GraphDb::from_graphs(vec![
            labeled(&[0, 1], &[(0, 1)]),
            labeled(&[0, 1, 2], &[(0, 1), (1, 2)]),
        ]));
        let mut engine = CfqlEngine::new();
        engine.build(&db).unwrap();
        let queries = vec![labeled(&[0, 1], &[(0, 1)]), labeled(&[1, 2], &[(0, 1)])];
        let report = run_query_set(&mut engine, "Q1S", &queries, RunnerConfig::default());
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.engine, "CFQL");
        assert_eq!(report.query_set, "Q1S");
        assert_eq!(report.records[0].answers, 2);
        assert_eq!(report.records[1].answers, 1);
        assert_eq!(report.timeout_count(), 0);
        assert_eq!(report.panic_count(), 0);
        assert_eq!(report.total_retries(), 0);
    }

    #[test]
    fn abort_after_timeouts_stops_early() {
        let db = Arc::new(GraphDb::from_graphs(vec![labeled(&[0], &[])]));
        let mut engine = CfqlEngine::new();
        engine.build(&db).unwrap();
        // Zero budget: every query times out immediately (deadline checked
        // at filter entry).
        let config = RunnerConfig {
            query_budget: Some(Duration::from_nanos(0)),
            abort_after_timeouts: Some(1),
            ..RunnerConfig::default()
        };
        let queries = vec![labeled(&[0], &[]); 10];
        let report = run_query_set(&mut engine, "Q", &queries, config);
        assert!(report.records.len() < 10);
    }

    #[test]
    fn parallel_report_matches_sequential() {
        let db = Arc::new(GraphDb::from_graphs(vec![
            labeled(&[0, 1], &[(0, 1)]),
            labeled(&[0, 1, 2], &[(0, 1), (1, 2)]),
            labeled(&[2, 2], &[(0, 1)]),
        ]));
        let queries = vec![labeled(&[0, 1], &[(0, 1)]), labeled(&[1, 2], &[(0, 1)])];

        let mut engine = CfqlEngine::new();
        engine.build(&db).unwrap();
        let seq = run_query_set(&mut engine, "Q", &queries, RunnerConfig::default());

        let par = run_query_set(&mut pooled(&db, 4), "Q", &queries, RunnerConfig::default());
        assert_eq!(par.engine, "CFQL-par");
        assert_eq!(par.records.len(), seq.records.len());
        for (s, p) in seq.records.iter().zip(par.records.iter()) {
            assert_eq!(s.answers, p.answers);
            assert_eq!(s.candidates, p.candidates);
            assert_eq!(s.status, p.status);
        }
    }

    #[test]
    fn parallel_zero_budget_records_timeouts_at_budget() {
        let db = Arc::new(GraphDb::from_graphs(vec![labeled(&[0, 1], &[(0, 1)]); 4]));
        let budget = Duration::from_nanos(0);
        let report = run_query_set(
            &mut pooled(&db, 2),
            "Q",
            &[labeled(&[0, 1], &[(0, 1)])],
            RunnerConfig::with_budget(budget),
        );
        assert_eq!(report.timeout_count(), 1);
        assert_eq!(report.records[0].query_time(), budget);
    }

    /// An engine whose `query` panics the first `fail_times` calls, then
    /// succeeds — exercises the retry-with-backoff path.
    struct FlakyEngine {
        inner: CfqlEngine,
        remaining_failures: std::cell::Cell<u32>,
        /// Every budget the runner set, in order.
        budgets: Vec<Option<Duration>>,
    }

    impl FlakyEngine {
        fn failing(times: u32, db: &Arc<GraphDb>) -> Self {
            let mut engine = FlakyEngine {
                inner: CfqlEngine::new(),
                remaining_failures: std::cell::Cell::new(times),
                budgets: Vec::new(),
            };
            engine.build(db).unwrap();
            engine
        }
    }

    impl QueryEngine for FlakyEngine {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn category(&self) -> crate::engine::EngineCategory {
            self.inner.category()
        }
        fn build(
            &mut self,
            db: &Arc<GraphDb>,
        ) -> Result<crate::engine::BuildReport, sqp_index::BuildError> {
            self.inner.build(db)
        }
        fn query(&self, q: &Graph) -> QueryOutcome {
            let left = self.remaining_failures.get();
            if left > 0 {
                self.remaining_failures.set(left - 1);
                panic!("transient fault");
            }
            self.inner.query(q)
        }
        fn set_query_budget(&mut self, budget: Option<Duration>) {
            self.budgets.push(budget);
            self.inner.set_query_budget(budget);
        }
        fn index_bytes(&self) -> usize {
            self.inner.index_bytes()
        }
    }

    #[test]
    fn sequential_runner_survives_engine_panic() {
        let db = Arc::new(GraphDb::from_graphs(vec![labeled(&[0, 1], &[(0, 1)])]));
        let mut engine = FlakyEngine::failing(1, &db);
        let queries = vec![labeled(&[0, 1], &[(0, 1)]); 3];
        // No retries: the first query records the panic, the rest complete.
        let report = run_query_set(&mut engine, "Q", &queries, RunnerConfig::default());
        assert_eq!(report.records.len(), 3);
        assert!(report.records[0].status.is_panicked());
        assert_eq!(report.records[0].answers, 0);
        assert!(report.records[1].status.is_completed());
        assert_eq!(report.records[1].answers, 1);
        assert_eq!(report.panic_count(), 1);
    }

    #[test]
    fn retry_recovers_transient_panic() {
        let db = Arc::new(GraphDb::from_graphs(vec![labeled(&[0, 1], &[(0, 1)])]));
        let mut engine = FlakyEngine::failing(2, &db);
        let config = RunnerConfig {
            max_retries: 3,
            retry_backoff: Duration::ZERO,
            ..RunnerConfig::default()
        };
        let report = run_query_set(&mut engine, "Q", &[labeled(&[0, 1], &[(0, 1)])], config);
        assert_eq!(report.records.len(), 1);
        assert!(report.records[0].status.is_completed(), "{:?}", report.records[0].status);
        assert_eq!(report.records[0].answers, 1);
        assert_eq!(report.records[0].retries, 2);
        assert_eq!(report.total_retries(), 2);
        assert_eq!(report.panic_count(), 0);
    }

    #[test]
    fn the_set_budget_is_restored_after_a_retried_query() {
        // Regression: the runner hands each attempt the remaining slice of
        // the budget and used to leave the engine holding the last one, so a
        // later direct `engine.query` ran under the retry's leftover.
        let db = Arc::new(GraphDb::from_graphs(vec![labeled(&[0, 1], &[(0, 1)])]));
        let mut engine = FlakyEngine::failing(1, &db);
        let budget = Duration::from_millis(80);
        let config = RunnerConfig {
            query_budget: Some(budget),
            max_retries: 1,
            retry_backoff: Duration::from_millis(5),
            ..RunnerConfig::default()
        };
        let report = run_query_set(&mut engine, "Q", &[labeled(&[0, 1], &[(0, 1)])], config);
        assert_eq!(report.records[0].retries, 1);
        let [first, retry, after] = engine.budgets[..] else {
            panic!("two attempts, then the restore: {:?}", engine.budgets);
        };
        assert!(first <= Some(budget) && retry < first, "{:?}", engine.budgets);
        assert_eq!(after, Some(budget), "the engine must leave with the set's budget");
        assert!(engine.query(&labeled(&[0, 1], &[(0, 1)])).status.is_completed());
    }

    #[test]
    fn retries_exhausted_records_panic() {
        let db = Arc::new(GraphDb::from_graphs(vec![labeled(&[0, 1], &[(0, 1)])]));
        let mut engine = FlakyEngine::failing(u32::MAX, &db);
        let config = RunnerConfig {
            max_retries: 2,
            retry_backoff: Duration::ZERO,
            ..RunnerConfig::default()
        };
        let report = run_query_set(&mut engine, "Q", &[labeled(&[0, 1], &[(0, 1)])], config);
        assert!(report.records[0].status.is_panicked());
        assert_eq!(report.records[0].retries, 2);
    }

    #[test]
    fn abort_after_timeouts_ignores_panics() {
        let db = Arc::new(GraphDb::from_graphs(vec![labeled(&[0, 1], &[(0, 1)])]));
        let mut engine = FlakyEngine::failing(2, &db);
        let config = RunnerConfig { abort_after_timeouts: Some(1), ..RunnerConfig::default() };
        let queries = vec![labeled(&[0, 1], &[(0, 1)]); 4];
        let report = run_query_set(&mut engine, "Q", &queries, config);
        // Two panics, zero timeouts: the abort threshold never fires.
        assert_eq!(report.records.len(), 4);
        assert_eq!(report.panic_count(), 2);
        assert_eq!(report.timeout_count(), 0);
    }

    #[test]
    fn retries_are_charged_against_the_query_budget() {
        // Regression: retry attempts and backoff sleeps used to each get a
        // fresh budget, so a panicking query with a large retry count could
        // extend wall-clock far past `query_budget`.
        let config = RunnerConfig {
            query_budget: Some(Duration::from_millis(80)),
            max_retries: 1000,
            retry_backoff: Duration::from_millis(30),
            ..RunnerConfig::default()
        };
        let t0 = Instant::now();
        let (outcome, retries) =
            run_with_retries(config, |_| QueryOutcome::panicked("always".into()));
        let elapsed = t0.elapsed();
        assert!(outcome.status.is_panicked());
        // 30 + 60 = 90ms of backoff alone exceeds the 80ms budget, so at
        // most two retries fit; with the old per-attempt budget this would
        // have slept for minutes. Generous bound for slow CI machines.
        assert!(retries <= 3, "retries not bounded by budget: {retries}");
        assert!(elapsed < Duration::from_secs(2), "wall clock escaped the budget: {elapsed:?}");
    }

    #[test]
    fn retry_attempts_see_a_shrinking_budget() {
        let config = RunnerConfig {
            query_budget: Some(Duration::from_millis(200)),
            max_retries: 2,
            retry_backoff: Duration::from_millis(5),
            ..RunnerConfig::default()
        };
        let seen = std::cell::RefCell::new(Vec::new());
        let (_, retries) = run_with_retries(config, |remaining| {
            seen.borrow_mut().push(remaining.expect("budget configured"));
            QueryOutcome::panicked("always".into())
        });
        let seen = seen.into_inner();
        assert_eq!(retries as usize + 1, seen.len());
        assert!(seen[0] <= Duration::from_millis(200));
        for pair in seen.windows(2) {
            assert!(pair[1] < pair[0], "remaining budget must shrink: {seen:?}");
        }
    }

    #[test]
    fn unlimited_budget_still_retries() {
        let config = RunnerConfig {
            query_budget: None,
            max_retries: 2,
            retry_backoff: Duration::ZERO,
            ..RunnerConfig::default()
        };
        let calls = std::cell::Cell::new(0u32);
        let (outcome, retries) = run_with_retries(config, |remaining| {
            assert!(remaining.is_none());
            calls.set(calls.get() + 1);
            QueryOutcome::panicked("always".into())
        });
        assert_eq!(calls.get(), 3);
        assert_eq!(retries, 2);
        assert!(outcome.status.is_panicked());
    }

    #[test]
    fn resource_limits_surface_as_exhausted() {
        let db = Arc::new(GraphDb::from_graphs(vec![labeled(&[0, 1], &[(0, 1)]); 6]));
        let config = RunnerConfig {
            limits: ResourceLimits::unlimited().with_max_aux_bytes(1),
            ..RunnerConfig::default()
        };
        let report =
            run_query_set(&mut pooled(&db, 2), "Q", &[labeled(&[0, 1], &[(0, 1)])], config);
        assert_eq!(report.exhausted_count(), 1);
        assert_eq!(report.timeout_count(), 0);
        assert!(matches!(report.records[0].status, QueryStatus::ResourceExhausted { .. }));
    }
}
