//! The admission-controlled query service: the serving layer above
//! [`QueryPool`].
//!
//! PR 2 made a *single* query fault-tolerant; this layer protects the
//! system across *many* queries, the way serving-scale subgraph systems
//! (STwig on Trinity and friends) survive heavy traffic — by bounding load
//! and degrading predictably instead of collapsing:
//!
//! * **Admission control** — a bounded submission queue. Submissions beyond
//!   the queue capacity, during a drain, or whose budget predictably cannot
//!   cover queue wait + service time are rejected *up front* with a
//!   terminal [`QueryStatus::Shed`] — never silently dropped.
//! * **Per-graph circuit breakers** ([`BreakerRegistry`]) — graphs that
//!   keep panicking or exhausting budgets are quarantined and
//!   short-circuited to [`QueryStatus::Quarantined`] records, with
//!   half-open probing after a cool-down.
//! * **Graceful drain** — [`QueryService::shutdown`] stops admissions, lets
//!   in-flight work finish within a drain deadline, then cancels the
//!   in-flight query's [`ExecCtx`]; every admitted query is guaranteed a
//!   terminal status and no worker thread outlives the service.
//! * **Health snapshots** — [`DispatchCore::health`] exposes queue depth,
//!   breaker occupancy, and shed/quarantine counters
//!   ([`ServiceHealth`](crate::metrics::ServiceHealth)).
//!
//! All of that machinery lives once in [`crate::dispatch`]: this module
//! plugs a **local executor** (the query pool and budget-charged retries)
//! into the transport-agnostic
//! [`DispatchCore`], and the sharded coordinator ([`crate::coordinator`])
//! plugs a remote scatter–gather executor into the very same core. A
//! [`QueryService`] derefs to its core, so `submit`, `health`,
//! `breaker_state` and the rest are the core's methods.
//!
//! Determinism: breaker transitions and shed decisions are pure functions
//! of the admitted-query sequence (the registry is clocked in logical
//! ticks, and [`submit_batch`](DispatchCore::submit_batch) makes burst
//! admission decisions under one lock hold), so the chaos suite can assert
//! byte-identical serving behavior across 1/2/4/8 worker threads.
//!
//! [`QueryStatus::Shed`]: crate::engine::QueryStatus::Shed
//! [`QueryStatus::Quarantined`]: crate::engine::QueryStatus::Quarantined
//! [`ExecCtx`]: sqp_matching::ExecCtx

use std::sync::Arc;
use std::time::Duration;

use sqp_graph::{Graph, GraphDb};
use sqp_matching::{Deadline, ExecCtx, Matcher};

use crate::breaker::{BreakerConfig, BreakerRegistry};
use crate::dispatch::{DispatchConfig, DispatchCore, Executed, QueryExecutor};
use crate::parallel::QueryPool;
use crate::runner::{run_with_retries, RunnerConfig};
use crate::supervisor::SupervisorConfig;

pub use crate::dispatch::{Admission, DrainReport, QueryTicket, ShedPolicy, ShedReason};

/// Configuration of a [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the underlying [`QueryPool`].
    pub threads: usize,
    /// Per-query budget / retry / resource-limit policy. Retries are charged
    /// against the query budget (see `run_with_retries`).
    pub runner: RunnerConfig,
    /// Circuit-breaker thresholds ([`BreakerConfig::disabled`] to turn off).
    pub breaker: BreakerConfig,
    /// Bound on queries admitted but not yet started; submissions beyond it
    /// are shed with [`ShedReason::QueueFull`].
    pub queue_capacity: usize,
    /// Deadline-aware shedding; `None` disables the predictive check (the
    /// queue bound still applies).
    pub shed: Option<ShedPolicy>,
    /// How long [`shutdown`](QueryService::shutdown) lets in-flight and
    /// queued work finish before cancelling.
    pub drain_deadline: Duration,
    /// Thread-name prefix: the executor is `{prefix}-exec`, pool workers
    /// `{prefix}-{i}`. Distinct prefixes let tests assert thread cleanup.
    pub thread_prefix: String,
    /// When set, the pool runs under a heartbeat supervisor
    /// ([`crate::supervisor`]): workers stuck past `deadline + grace`
    /// without ticking are abandoned (query degrades to
    /// [`QueryStatus::Wedged`]) and replaced, so shutdown's drain guarantee
    /// survives non-cooperative matchers. `None` keeps the pool purely
    /// cooperative.
    ///
    /// [`QueryStatus::Wedged`]: crate::engine::QueryStatus::Wedged
    pub supervisor: Option<SupervisorConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            runner: RunnerConfig::default(),
            breaker: BreakerConfig::default(),
            queue_capacity: 64,
            shed: None,
            drain_deadline: Duration::from_secs(5),
            thread_prefix: "sqp-svc".to_string(),
            supervisor: None,
        }
    }
}

/// The local execution strategy: one admitted query = one masked pool run
/// with budget-charged retries. This is the [`QueryExecutor`] the
/// in-process service plugs into the [`DispatchCore`]; breaker slots are
/// the database's graphs.
struct LocalExecutor {
    pool: QueryPool,
    matcher: Arc<dyn Matcher>,
    db: Arc<GraphDb>,
    ctx: ExecCtx,
}

impl QueryExecutor for LocalExecutor {
    fn execute(&self, q: &Arc<Graph>, runner: RunnerConfig, mask: Option<Arc<[bool]>>) -> Executed {
        let (outcome, retries) = run_with_retries(runner, |remaining| {
            let deadline = remaining.map_or(Deadline::none(), Deadline::after);
            let deadline = deadline.with_ctx(self.ctx.arm(runner.limits));
            self.pool
                .query_masked(Arc::clone(&self.matcher), &self.db, q, deadline, mask.clone())
                .outcome
        });
        Executed { outcome, retries, observed: None }
    }

    fn cancel(&self) {
        self.pool.cancel();
    }

    fn live_units(&self, breakers: &BreakerRegistry) -> usize {
        self.db.len().saturating_sub(breakers.open_count()).max(1)
    }

    fn supervision(&self) -> (u64, u64) {
        (self.pool.wedged_queries(), self.pool.workers_replaced())
    }
}

/// An admission-controlled, breaker-protected query service over one
/// database. See the module docs for the serving semantics.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use sqp_core::service::{QueryService, ServiceConfig};
/// use sqp_graph::{GraphBuilder, GraphDb, Label};
/// use sqp_matching::cfql::Cfql;
///
/// let mut b = GraphBuilder::new();
/// let u = b.add_vertex(Label(0));
/// let v = b.add_vertex(Label(1));
/// b.add_edge(u, v).unwrap();
/// let g = b.build();
/// let db = Arc::new(GraphDb::from_graphs(vec![g.clone()]));
///
/// let service = QueryService::new(Arc::new(Cfql::new()), db, ServiceConfig::default());
/// let (ticket, admission) = service.submit(&g);
/// assert!(admission.is_admitted());
/// let (outcome, _retries) = ticket.wait();
/// assert_eq!(outcome.answers.len(), 1);
/// let report = service.shutdown();
/// assert!(report.drained_within_deadline);
/// ```
pub struct QueryService {
    core: DispatchCore,
    exec: Arc<LocalExecutor>,
}

/// The serving surface — `submit*`, `health`, `breaker_*`,
/// `runner_config` / `set_runner_config`, `begin_drain` — is the core's.
impl std::ops::Deref for QueryService {
    type Target = DispatchCore;

    fn deref(&self) -> &DispatchCore {
        &self.core
    }
}

impl QueryService {
    /// Starts the service: spawns the pool workers and the executor thread.
    pub fn new(matcher: Arc<dyn Matcher>, db: Arc<GraphDb>, config: ServiceConfig) -> Self {
        let ServiceConfig {
            threads,
            runner,
            breaker,
            queue_capacity,
            shed,
            drain_deadline,
            thread_prefix,
            supervisor,
        } = config;
        let pool = match supervisor {
            Some(config) => QueryPool::supervised(&thread_prefix, threads, config),
            None => QueryPool::named(&thread_prefix, threads),
        };
        let breakers = BreakerRegistry::new(breaker, db.len());
        let exec = Arc::new(LocalExecutor { pool, matcher, db, ctx: ExecCtx::new() });
        let core = DispatchCore::new(
            Arc::clone(&exec) as Arc<dyn QueryExecutor>,
            DispatchConfig {
                runner,
                breakers,
                queue_capacity,
                shed,
                drain_deadline,
                thread_name: format!("{thread_prefix}-exec"),
            },
        );
        Self { core, exec }
    }

    /// Worker threads in the underlying pool.
    pub fn threads(&self) -> usize {
        self.exec.pool.threads()
    }

    /// Gracefully drains and stops the service: admissions stop at once,
    /// queued and in-flight work gets `drain_deadline` to finish, then the
    /// backlog is resolved [`QueryStatus::Shed`] and the in-flight query is
    /// cancelled through its `ExecCtx` (surfacing as a terminal
    /// `TimedOut`/`ResourceExhausted`). Every admitted query is guaranteed
    /// a terminal status, and all service threads are joined before this
    /// returns.
    ///
    /// [`QueryStatus::Shed`]: crate::engine::QueryStatus::Shed
    pub fn shutdown(mut self) -> DrainReport {
        self.core.shutdown_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::{GraphBuilder, Label, VertexId};
    use sqp_matching::cfql::Cfql;
    use sqp_matching::{FilterResult, Timeout};

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

    fn edge_db(n: usize) -> Arc<GraphDb> {
        Arc::new(GraphDb::from_graphs(vec![labeled(&[0, 1], &[(0, 1)]); n]))
    }

    #[test]
    fn serves_queries_and_reports_health() {
        let db = edge_db(6);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let service = QueryService::new(
            Arc::new(Cfql::new()),
            db,
            ServiceConfig { threads: 2, ..Default::default() },
        );
        for _ in 0..3 {
            let (ticket, admission) = service.submit(&q);
            assert!(admission.is_admitted());
            let (outcome, retries) = ticket.wait();
            assert!(outcome.status.is_completed());
            assert_eq!(outcome.answers.len(), 6);
            assert_eq!(retries, 0);
        }
        let h = service.health();
        assert_eq!(h.admitted, 3);
        assert_eq!(h.finished, 3);
        assert_eq!(h.shed_total(), 0);
        assert_eq!(h.open_breakers, 0);
        let report = service.shutdown();
        assert!(report.drained_within_deadline);
        assert_eq!(report.finished, 3);
        assert_eq!(report.shed_at_drain, 0);
    }

    #[test]
    fn queue_capacity_sheds_excess_batch_submissions() {
        let db = edge_db(4);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let service = QueryService::new(
            Arc::new(Cfql::new()),
            db,
            ServiceConfig { queue_capacity: 2, ..Default::default() },
        );
        let tickets = service.submit_batch(&vec![q; 6]);
        let shed: Vec<bool> = tickets.iter().map(|(_, a)| !a.is_admitted()).collect();
        // Under one lock hold the first two are admitted, the rest shed.
        assert_eq!(shed, vec![false, false, true, true, true, true]);
        for (ticket, admission) in &tickets {
            let (outcome, _) = ticket.wait();
            if admission.is_admitted() {
                assert!(outcome.status.is_completed());
            } else {
                assert!(outcome.status.is_shed());
                assert!(outcome.answers.is_empty());
            }
        }
        let h = service.health();
        assert_eq!(h.shed_queue_full, 4);
        assert_eq!(h.admitted, 2);
    }

    #[test]
    fn deadline_unmeetable_sheds_up_front() {
        let db = edge_db(10);
        let q = labeled(&[0, 1], &[(0, 1)]);
        // Budget 1ms, predicted service 10 graphs × 1ms = 10ms > 1ms.
        let service = QueryService::new(
            Arc::new(Cfql::new()),
            db,
            ServiceConfig {
                runner: RunnerConfig::with_budget(Duration::from_millis(1)),
                shed: Some(ShedPolicy { est_cost_per_graph: Duration::from_millis(1) }),
                ..Default::default()
            },
        );
        let (ticket, admission) = service.submit(&q);
        assert_eq!(admission, Admission::Shed(ShedReason::DeadlineUnmeetable));
        let (outcome, _) = ticket.wait();
        assert!(outcome.status.is_shed());
        assert_eq!(service.health().shed_deadline, 1);
    }

    #[test]
    fn admission_predicts_against_the_budget_the_executor_runs_under() {
        let db = edge_db(10);
        let q = labeled(&[0, 1], &[(0, 1)]);
        // Configured budget 1ms, predicted service 10 graphs × 1ms = 10ms. A
        // generous 1s override does not lift the budget the query would run
        // under (min(own, override) = 1ms), so admitting it is doomed work.
        let service = QueryService::new(
            Arc::new(Cfql::new()),
            db,
            ServiceConfig {
                runner: RunnerConfig::with_budget(Duration::from_millis(1)),
                shed: Some(ShedPolicy { est_cost_per_graph: Duration::from_millis(1) }),
                ..Default::default()
            },
        );
        let (ticket, admission) = service.submit_with_budget(&q, Some(Duration::from_secs(1)));
        assert_eq!(admission, Admission::Shed(ShedReason::DeadlineUnmeetable));
        assert!(ticket.wait().0.status.is_shed());
        // A tighter override still sheds on its own value; with a budget
        // that covers the prediction the same override is what is checked.
        let (_, admission) = service.submit_with_budget(&q, Some(Duration::from_micros(10)));
        assert_eq!(admission, Admission::Shed(ShedReason::DeadlineUnmeetable));
        service.set_runner_config(RunnerConfig::with_budget(Duration::from_secs(600)));
        let (ticket, admission) = service.submit_with_budget(&q, Some(Duration::from_secs(1)));
        assert!(admission.is_admitted());
        assert!(ticket.wait().0.status.is_completed());
        let (_, admission) = service.submit_with_budget(&q, Some(Duration::from_millis(5)));
        assert_eq!(admission, Admission::Shed(ShedReason::DeadlineUnmeetable));
        assert_eq!(service.health().shed_deadline, 3);
    }

    #[test]
    fn draining_service_sheds_new_submissions() {
        let db = edge_db(2);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let service =
            QueryService::new(Arc::new(Cfql::new()), Arc::clone(&db), ServiceConfig::default());
        let (t1, a1) = service.submit(&q);
        assert!(a1.is_admitted());
        t1.wait();
        // Stop admissions by hand (shutdown consumes the service).
        service.begin_drain();
        let (t2, a2) = service.submit(&q);
        assert_eq!(a2, Admission::Shed(ShedReason::Draining));
        assert!(t2.wait().0.status.is_shed());
    }

    #[test]
    fn budget_override_caps_the_configured_budget() {
        let db = edge_db(2);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let service = QueryService::new(
            Arc::new(Cfql::new()),
            db,
            ServiceConfig {
                runner: RunnerConfig::with_budget(Duration::from_secs(600)),
                ..Default::default()
            },
        );
        // A generous override on a fast query still completes.
        let (t, a) = service.submit_with_budget(&q, Some(Duration::from_secs(1)));
        assert!(a.is_admitted());
        let (outcome, _) = t.wait();
        assert!(outcome.status.is_completed());
        assert_eq!(outcome.answers.len(), 2);
        // A zero remaining budget must surface as a timeout, not hang.
        let (t, a) = service.submit_with_budget(&q, Some(Duration::ZERO));
        assert!(a.is_admitted());
        let (outcome, _) = t.wait();
        assert!(outcome.status.is_timed_out(), "{:?}", outcome.status);
    }

    /// A matcher that panics on every graph of every query.
    struct AlwaysPanic;
    impl Matcher for AlwaysPanic {
        fn name(&self) -> &'static str {
            "always-panic"
        }
        fn filter(&self, _q: &Graph, _g: &Graph, _d: Deadline) -> Result<FilterResult, Timeout> {
            panic!("chaos: hard fault");
        }
        fn find_first(
            &self,
            _q: &Graph,
            _g: &Graph,
            _space: &sqp_matching::CandidateSpace,
            _d: Deadline,
        ) -> Result<Option<sqp_matching::Embedding>, Timeout> {
            Ok(None)
        }
        fn enumerate(
            &self,
            _q: &Graph,
            _g: &Graph,
            _space: &sqp_matching::CandidateSpace,
            _limit: u64,
            _deadline: Deadline,
            _on_match: &mut dyn FnMut(&sqp_matching::Embedding),
        ) -> Result<u64, Timeout> {
            Ok(0)
        }
    }

    #[test]
    fn breakers_quarantine_a_faulting_database() {
        let db = edge_db(3);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let service = QueryService::new(
            Arc::new(AlwaysPanic),
            db,
            ServiceConfig {
                breaker: BreakerConfig { fault_threshold: 1, cooldown: 100 },
                ..Default::default()
            },
        );
        let (outcome, _) = service.submit(&q).0.wait();
        assert!(outcome.status.is_panicked());
        // Every graph faulted once → all breakers open → next query is
        // fully short-circuited without touching the matcher.
        let (outcome, _) = service.submit(&q).0.wait();
        assert!(outcome.status.is_quarantined(), "{:?}", outcome.status);
        assert_eq!(outcome.failures.len(), 3);
        assert!(outcome.failures.iter().all(|f| f.status.is_quarantined()));
        let h = service.health();
        assert_eq!(h.open_breakers, 3);
        assert_eq!(h.breaker_trips, 3);
        assert_eq!(h.quarantined_graph_results, 3);
    }

    #[test]
    fn drop_without_shutdown_resolves_everything() {
        let db = edge_db(3);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let service = QueryService::new(Arc::new(Cfql::new()), db, ServiceConfig::default());
        let tickets = service.submit_batch(&vec![q; 4]);
        drop(service);
        for (ticket, _) in &tickets {
            let (outcome, _) = ticket.try_get().expect("terminal after drop");
            assert!(
                outcome.status.is_completed()
                    || outcome.status.is_shed()
                    || outcome.status.is_timed_out(),
                "{:?}",
                outcome.status
            );
        }
    }
}
