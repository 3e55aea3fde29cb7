//! Deterministic chaos suite for the fault-tolerant execution layer
//! (DESIGN.md "Failure semantics", invariant I8):
//!
//! * for any injected fault set, every **non-faulted** query returns answers
//!   byte-identical to a fault-free run, at every thread count;
//! * every query with an injected fault carries a non-`Completed`
//!   [`QueryStatus`] matching the fault kind, and panic faults are attributed
//!   to the exact (query, graph) pairs they were planned for;
//! * the run always completes — a panic in one pair never takes down the
//!   pool, the runner, or sibling queries;
//! * panics never count toward `abort_after_timeouts`;
//!
//! All fault decisions are pure functions of `(seed, query, graph)` — see
//! `ChaosMatcher` — so every assertion here is exact, not statistical.
//! EXPERIMENTS.md lists the seed matrix this suite pins.

use std::sync::Arc;

use proptest::prelude::*;

use subgraph_query::core::chaos::graph_fingerprint;
use subgraph_query::core::prelude::*;
use subgraph_query::datagen::graphgen;
use subgraph_query::datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
use subgraph_query::graph::database::GraphId;
use subgraph_query::graph::{Graph, GraphDb};
use subgraph_query::matching::cfql::Cfql;
use subgraph_query::matching::{
    Deadline, FilterResult, Matcher, ResourceGuard, ResourceLimits, Timeout,
};

/// The pinned chaos seed (see EXPERIMENTS.md "Chaos suite").
const CHAOS_SEED: u64 = 1001;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// 20 data graphs × 10 queries = 200 (query, graph) pairs.
fn fixture() -> (Arc<GraphDb>, Vec<Graph>) {
    let db = Arc::new(graphgen::generate(20, 16, 4, 3.0, 7));
    let spec = QuerySetSpec { edges: 4, method: QueryGenMethod::RandomWalk, count: 10 };
    let queries = generate_query_set(&db, spec, 11);
    assert_eq!(queries.len(), 10);
    // Fault keys are structural fingerprints; the fixture must not collide.
    let mut fps: Vec<u64> =
        db.graphs().iter().chain(queries.iter()).map(graph_fingerprint).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), db.len() + queries.len(), "fingerprint collision in fixture");
    (db, queries)
}

/// The standard fault mix: 18% of pairs faulted (panic/timeout/exhaust).
fn chaos_config() -> ChaosConfig {
    ChaosConfig::new(CHAOS_SEED).with_panics(80).with_timeouts(40).with_exhaustion(60)
}

fn chaos_matcher(config: ChaosConfig) -> Arc<dyn Matcher> {
    Arc::new(ChaosMatcher::new(Arc::new(Cfql::new()), config))
}

/// The chaos matcher on a pool of `threads` workers, ready for the runner.
fn pooled_chaos(config: ChaosConfig, db: &Arc<GraphDb>, threads: usize) -> ParallelEngine {
    let mut engine = ParallelEngine::new("Chaos", chaos_matcher(config), QueryPool::new(threads));
    engine.build(db).expect("vcFV engines have no index to fail");
    engine
}

/// Per-query fault plan, derived without running anything.
fn fault_plan(
    config: ChaosConfig,
    db: &GraphDb,
    queries: &[Graph],
) -> Vec<Vec<(GraphId, FaultKind)>> {
    let probe = ChaosMatcher::new(Arc::new(Cfql::new()), config);
    queries
        .iter()
        .map(|q| {
            db.iter().filter_map(|(id, g)| probe.planned_fault(q, g).map(|k| (id, k))).collect()
        })
        .collect()
}

/// Fault-free reference run: plain CFQL on a single-threaded pool.
fn baseline(db: &Arc<GraphDb>, queries: &[Graph]) -> Vec<QueryOutcome> {
    let pool = QueryPool::new(1);
    let matcher: Arc<dyn Matcher> = Arc::new(Cfql::new());
    queries
        .iter()
        .map(|q| pool.query(Arc::clone(&matcher), db, q, Deadline::none()).outcome)
        .collect()
}

#[test]
fn fault_plan_covers_at_least_ten_percent_of_pairs() {
    let (db, queries) = fixture();
    let plan = fault_plan(chaos_config(), &db, &queries);
    let total = db.len() * queries.len();
    let faulted: usize = plan.iter().map(Vec::len).sum();
    assert!(faulted * 10 >= total, "chaos config must fault >=10% of pairs: {faulted}/{total}");
    assert!(
        plan.iter().any(Vec::is_empty),
        "fixture needs fault-free queries for the I8 comparison"
    );
    assert!(
        plan.iter().flatten().any(|(_, k)| *k == FaultKind::Panic),
        "fixture needs at least one panic fault"
    );
}

/// The tentpole invariant. For every thread count:
/// * fault-free queries are byte-identical to the baseline;
/// * panic-only queries lose exactly the faulted graphs, keep every other
///   answer, and attribute each planned pair in `failures`;
/// * timeout/exhaust queries surface the matching status.
#[test]
fn i5_injected_faults_never_perturb_nonfaulted_queries() {
    let (db, queries) = fixture();
    let base = baseline(&db, &queries);
    let config = chaos_config();
    let plan = fault_plan(config, &db, &queries);

    for threads in THREAD_COUNTS {
        let pool = QueryPool::new(threads);
        let matcher = chaos_matcher(config);
        let guard = ResourceGuard::new();
        for (i, q) in queries.iter().enumerate() {
            guard.reset(ResourceLimits::unlimited());
            let d = Deadline::none().with_guard(guard);
            let out = pool.query(Arc::clone(&matcher), &db, q, d).outcome;
            let ctx = format!("query {i} at {threads} threads");

            if plan[i].is_empty() {
                assert_eq!(out.answers, base[i].answers, "{ctx}: answers must be identical");
                assert!(out.status.is_completed(), "{ctx}: {:?}", out.status);
                assert!(out.failures.is_empty(), "{ctx}");
                assert_eq!(out.candidates, base[i].candidates, "{ctx}");
                continue;
            }

            assert!(!out.status.is_completed(), "{ctx}: faulted query cannot complete");
            let kinds: Vec<FaultKind> = plan[i].iter().map(|(_, k)| *k).collect();
            if kinds.iter().all(|k| *k == FaultKind::Panic) {
                // Panic isolation: every sibling graph still answers.
                let faulted: Vec<GraphId> = plan[i].iter().map(|(g, _)| *g).collect();
                let expected: Vec<GraphId> =
                    base[i].answers.iter().copied().filter(|g| !faulted.contains(g)).collect();
                assert_eq!(out.answers, expected, "{ctx}: sibling answers must survive");
                assert!(out.status.is_panicked(), "{ctx}: {:?}", out.status);
                let mut attributed: Vec<GraphId> = out.failures.iter().map(|f| f.graph).collect();
                attributed.sort_unstable_by_key(|g| g.0);
                assert_eq!(attributed, faulted, "{ctx}: exact panic attribution");
                for f in &out.failures {
                    assert!(f.status.is_panicked(), "{ctx}: {:?}", f.status);
                }
            } else if kinds.contains(&FaultKind::Panic) {
                // Mixed plans still surface the worst severity.
                assert!(
                    out.status.is_panicked()
                        || out.status.is_exhausted()
                        || out.status.is_timed_out(),
                    "{ctx}: {:?}",
                    out.status
                );
            } else if kinds.iter().all(|k| *k == FaultKind::Timeout) {
                assert!(out.status.is_timed_out(), "{ctx}: {:?}", out.status);
            } else if kinds.iter().all(|k| *k == FaultKind::Exhaust) {
                assert!(out.status.is_exhausted(), "{ctx}: {:?}", out.status);
            } else {
                // Timeout + exhaust mix: whichever interrupt is observed first.
                assert!(
                    out.status.is_timed_out() || out.status.is_exhausted(),
                    "{ctx}: {:?}",
                    out.status
                );
            }
            // Interrupted enumerations may be partial but never fabricate.
            for a in &out.answers {
                assert!(base[i].answers.contains(a), "{ctx}: fabricated answer {a:?}");
            }
        }
    }
}

/// The runner survives the full chaos mix end to end and its rollups agree
/// with the fault plan, at every thread count.
#[test]
fn runner_completes_chaos_run_with_correct_rollups() {
    let (db, queries) = fixture();
    let config = chaos_config();
    let plan = fault_plan(config, &db, &queries);
    let expect_failed = plan.iter().filter(|p| !p.is_empty()).count();
    // A panic pair is always observed (processing continues past it) unless a
    // timeout/exhaust fault in the same query stopped the shard first — so the
    // Panicked rollup is exact for pure-panic plans and bounded for mixed ones.
    let pure_panic = plan
        .iter()
        .filter(|p| !p.is_empty() && p.iter().all(|(_, k)| *k == FaultKind::Panic))
        .count();
    let any_panic = plan.iter().filter(|p| p.iter().any(|(_, k)| *k == FaultKind::Panic)).count();

    for threads in THREAD_COUNTS {
        let mut engine = pooled_chaos(config, &db, threads);
        let report = run_query_set(&mut engine, "chaos", &queries, RunnerConfig::default());
        assert_eq!(report.records.len(), queries.len(), "{threads} threads: run must complete");
        assert_eq!(report.failure_count(), expect_failed, "{threads} threads");
        assert!(
            (pure_panic..=any_panic).contains(&report.panic_count()),
            "{threads} threads: panic_count {} outside [{pure_panic}, {any_panic}]",
            report.panic_count()
        );
        for (i, rec) in report.records.iter().enumerate() {
            assert_eq!(rec.status.is_completed(), plan[i].is_empty(), "query {i}");
            if !plan[i].is_empty() {
                assert!(!rec.failures.is_empty(), "query {i}: faults must be recorded");
            }
            if !plan[i].is_empty() && plan[i].iter().all(|(_, k)| *k == FaultKind::Panic) {
                assert!(rec.status.is_panicked(), "query {i}: {:?}", rec.status);
            }
        }
    }
}

/// Panics are a distinct failure class: `abort_after_timeouts` must ignore
/// them, and a timeout-only chaos run must still trip it.
#[test]
fn abort_after_timeouts_counts_timeouts_not_panics() {
    let (db, queries) = fixture();
    let config = RunnerConfig { abort_after_timeouts: Some(1), ..RunnerConfig::default() };

    // Panic-heavy, zero timeouts: the runner must visit every query.
    let panicky = ChaosConfig::new(CHAOS_SEED).with_panics(400);
    let report = run_query_set(&mut pooled_chaos(panicky, &db, 4), "panics", &queries, config);
    assert!(report.panic_count() >= 2, "fixture should panic several queries");
    assert_eq!(report.records.len(), queries.len(), "panics must not trigger the abort");
    assert_eq!(report.timeout_count(), 0);

    // Timeout-heavy: the 40%-rule abort still works.
    let slow = ChaosConfig::new(CHAOS_SEED).with_timeouts(400);
    let report = run_query_set(&mut pooled_chaos(slow, &db, 4), "timeouts", &queries, config);
    assert!(report.timeout_count() >= 1);
    assert!(report.records.len() < queries.len(), "timeouts must trigger the abort");
}

/// The CFL filter keeps its working memory in a per-thread scratch. Panicking
/// filter calls interleaved with normal ones on **one** thread must leave
/// every normal call's candidate sets identical to a fault-free scan (I8 at
/// the filter layer, below the pool's `catch_unwind`).
#[test]
fn panicking_filter_calls_leave_the_thread_scratch_usable() {
    let (db, queries) = fixture();
    let config = ChaosConfig::new(CHAOS_SEED).with_panics(300);
    let scan = |matcher: &dyn Matcher| -> Vec<Option<Vec<Vec<_>>>> {
        let mut out = Vec::new();
        for q in &queries {
            for (_, g) in db.iter() {
                let call = std::panic::AssertUnwindSafe(|| matcher.filter(q, g, Deadline::none()));
                out.push(match std::panic::catch_unwind(call) {
                    Err(_) => None,
                    Ok(filtered) => Some(match filtered.expect("no deadline") {
                        FilterResult::Pruned => Vec::new(),
                        FilterResult::Space(space) => space.sets().to_vec(),
                    }),
                });
            }
        }
        out
    };
    let (clean, chaotic) = std::thread::scope(|s| {
        let clean = s.spawn(|| scan(&Cfql::new()));
        let chaotic = s.spawn(|| scan(&*chaos_matcher(config)));
        (clean.join().expect("clean scan"), chaotic.join().expect("chaotic scan"))
    });
    let panicked = chaotic.iter().filter(|r| r.is_none()).count();
    assert!(panicked * 5 >= chaotic.len(), "expected >= 20% panicking pairs, got {panicked}");
    assert!(panicked < chaotic.len());
    for (i, (clean, chaotic)) in clean.iter().zip(&chaotic).enumerate() {
        if chaotic.is_some() {
            assert_eq!(chaotic, clean, "pair {i} after {panicked} interleaved panics");
        }
    }
}

/// A matcher that panics on exactly one (query, graph) pair, identified by
/// structural fingerprint — the targeted form of `ChaosMatcher`.
struct PanicPair {
    inner: Cfql,
    q_fp: u64,
    g_fp: u64,
}

impl Matcher for PanicPair {
    fn name(&self) -> &'static str {
        "panic-pair"
    }
    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        if graph_fingerprint(q) == self.q_fp && graph_fingerprint(g) == self.g_fp {
            panic!("targeted injected panic");
        }
        self.inner.filter(q, g, deadline)
    }
    fn find_first(
        &self,
        q: &Graph,
        g: &Graph,
        space: &subgraph_query::matching::CandidateSpace,
        deadline: Deadline,
    ) -> Result<Option<subgraph_query::matching::Embedding>, Timeout> {
        self.inner.find_first(q, g, space, deadline)
    }
    fn enumerate(
        &self,
        q: &Graph,
        g: &Graph,
        space: &subgraph_query::matching::CandidateSpace,
        limit: u64,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&subgraph_query::matching::Embedding),
    ) -> Result<u64, Timeout> {
        self.inner.enumerate(q, g, space, limit, deadline, on_match)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite (d): a panic injected at a random (query, graph, threads)
    /// coordinate never changes any other record's answers or status.
    #[test]
    fn prop_single_panic_is_isolated(
        qi in 0usize..10,
        gi in 0u32..20,
        threads in 1usize..=8,
    ) {
        let (db, queries) = fixture();
        let base = baseline(&db, &queries);
        let target = GraphId(gi);
        let matcher: Arc<dyn Matcher> = Arc::new(PanicPair {
            inner: Cfql::new(),
            q_fp: graph_fingerprint(&queries[qi]),
            g_fp: graph_fingerprint(&db.graphs()[gi as usize]),
        });
        let pool = QueryPool::new(threads);
        for (i, q) in queries.iter().enumerate() {
            let out = pool.query(Arc::clone(&matcher), &db, q, Deadline::none()).outcome;
            if i == qi {
                let expected: Vec<GraphId> =
                    base[i].answers.iter().copied().filter(|g| *g != target).collect();
                prop_assert_eq!(&out.answers, &expected);
                prop_assert!(out.status.is_panicked());
                prop_assert_eq!(out.failures.len(), 1);
                prop_assert_eq!(out.failures[0].graph, target);
            } else {
                prop_assert_eq!(&out.answers, &base[i].answers);
                prop_assert!(out.status.is_completed());
                prop_assert!(out.failures.is_empty());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Serving layer: breaker lifecycle, drain under load, serving determinism
// (DESIGN.md "Serving & degradation semantics", invariant I8 extension)
// ---------------------------------------------------------------------------

use std::time::Duration;

/// Finds a deterministic flap seed whose flappy set is non-empty but a
/// strict minority of the database (so tests see both degraded and healthy
/// graphs). Pure function of the fixture, so every run picks the same seed.
fn flappy_seed(db: &GraphDb, per_mille: u32) -> (u64, Vec<GraphId>) {
    for seed in 0..1000u64 {
        let config = FlappyConfig { seed, flappy_per_mille: per_mille, faults_before_heal: 3 };
        let m = FlappyMatcher::new(Arc::new(Cfql::new()), config);
        let flappy: Vec<GraphId> =
            db.iter().filter(|(_, g)| m.is_flappy(g)).map(|(id, _)| id).collect();
        if !flappy.is_empty() && flappy.len() <= db.len() / 2 {
            return (seed, flappy);
        }
    }
    panic!("no suitable flappy seed in [0, 1000)");
}

/// Satellite (c), breaker lifecycle: with `fault_threshold = 2`,
/// `cooldown = 3`, and graphs that panic on their first 3 probes and then
/// heal, every flappy graph must walk exactly
/// `Closed →(2) Open →(5) HalfOpen →(5) Open →(8) HalfOpen →(8) Closed`,
/// quarantined graphs must never reach the matcher (probe counters stand
/// still while a breaker is open), and the healed graph is readmitted — at
/// every worker thread count identically.
#[test]
fn breaker_lifecycle_trips_probes_and_readmits() {
    let (db, queries) = fixture();
    let q = &queries[0];
    let (seed, flappy) = flappy_seed(&db, 250);
    let base = {
        let pool = QueryPool::new(1);
        let matcher: Arc<dyn Matcher> = Arc::new(Cfql::new());
        pool.query(matcher, &db, q, Deadline::none()).outcome
    };

    for threads in THREAD_COUNTS {
        let config = FlappyConfig { seed, flappy_per_mille: 250, faults_before_heal: 3 };
        let matcher = Arc::new(FlappyMatcher::new(Arc::new(Cfql::new()), config));
        let service = QueryService::new(
            Arc::clone(&matcher) as Arc<dyn Matcher>,
            Arc::clone(&db),
            ServiceConfig {
                threads,
                breaker: BreakerConfig { fault_threshold: 2, cooldown: 3 },
                thread_prefix: format!("flap{threads}"),
                ..Default::default()
            },
        );

        // Lockstep: one admitted query per logical breaker tick.
        let mut outcomes = Vec::new();
        for tick in 1..=10u64 {
            let (ticket, admission) = service.submit(q);
            assert!(admission.is_admitted(), "tick {tick} at {threads} threads");
            let (outcome, retries) = ticket.wait();
            assert_eq!(retries, 0, "tick {tick} at {threads} threads");
            outcomes.push(outcome);
        }

        // Status schedule: fault, fault (trip), 2 quarantined ticks,
        // half-open probe faults (re-trip), 2 quarantined ticks, half-open
        // probe heals, then clean.
        let tag = |o: &QueryOutcome| {
            if o.status.is_completed() {
                'C'
            } else if o.status.is_panicked() {
                'P'
            } else if o.status.is_quarantined() {
                'Q'
            } else {
                '?'
            }
        };
        let got: String = outcomes.iter().map(tag).collect();
        assert_eq!(got, "PPQQPQQCCC", "{threads} threads");

        // Healed service returns the exact fault-free answers.
        assert_eq!(outcomes[9].answers, base.answers, "{threads} threads");
        // Quarantine degrades only the flappy graphs, with exact records.
        let degraded: Vec<GraphId> =
            base.answers.iter().copied().filter(|g| !flappy.contains(g)).collect();
        assert_eq!(outcomes[2].answers, degraded, "{threads} threads");
        let quarantined: Vec<GraphId> = outcomes[2].failures.iter().map(|f| f.graph).collect();
        assert_eq!(quarantined, flappy, "{threads} threads");
        assert!(outcomes[2].failures.iter().all(|f| f.status.is_quarantined()));

        // Quarantined graphs never reach the matcher: probes stand still on
        // the 4 open ticks (3, 4, 6, 7), everyone else is probed every tick.
        for (id, g) in db.iter() {
            let expect = if flappy.contains(&id) { 6 } else { 10 };
            assert_eq!(matcher.probes(g), expect, "graph {id:?} at {threads} threads");
        }

        // Exact state machine, per flappy graph and in total.
        use BreakerState::{Closed, HalfOpen, Open};
        let transitions = service.breaker_transitions();
        for &gid in &flappy {
            let walk: Vec<(u64, BreakerState, BreakerState)> = transitions
                .iter()
                .filter(|t| t.graph == gid)
                .map(|t| (t.tick, t.from, t.to))
                .collect();
            assert_eq!(
                walk,
                vec![
                    (2, Closed, Open),
                    (5, Open, HalfOpen),
                    (5, HalfOpen, Open),
                    (8, Open, HalfOpen),
                    (8, HalfOpen, Closed),
                ],
                "graph {gid:?} at {threads} threads"
            );
        }
        assert_eq!(transitions.len(), flappy.len() * 5, "{threads} threads");

        let health = service.health();
        assert_eq!(health.admitted, 10);
        assert_eq!(health.finished, 10);
        assert_eq!(health.open_breakers, 0, "everything healed");
        assert_eq!(health.breaker_trips, flappy.len() as u64 * 2);
        assert_eq!(health.quarantined_graph_results, flappy.len() as u64 * 4);

        let report = service.shutdown();
        assert!(report.drained_within_deadline, "{threads} threads");
        assert_eq!(report.finished, 10);
    }
}

#[cfg(target_os = "linux")]
fn threads_with_prefix(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end().starts_with(prefix))
        .count()
}

/// The drain guarantee under genuine overload: a burst of slow queries is
/// submitted, the service is shut down mid-flight, and afterwards every
/// admitted query has a terminal status (finished, cancelled, or shed at
/// drain) and no service thread is left running.
#[test]
fn drain_under_load_resolves_every_admitted_query() {
    let (db, queries) = fixture();
    let matcher: Arc<dyn Matcher> =
        Arc::new(SlowMatcher::new(Arc::new(Cfql::new()), Duration::from_millis(30)));
    let prefix = "sqpdrn7";
    let service = QueryService::new(
        matcher,
        Arc::clone(&db),
        ServiceConfig {
            threads: 4,
            queue_capacity: 16,
            drain_deadline: Duration::from_millis(120),
            thread_prefix: prefix.to_string(),
            ..Default::default()
        },
    );
    // A spawned thread names itself on startup, so poll briefly before
    // concluding the service threads are not there.
    #[cfg(target_os = "linux")]
    {
        let t0 = std::time::Instant::now();
        while threads_with_prefix(prefix) < 5 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(threads_with_prefix(prefix) >= 5, "4 workers + executor should be running");
    }

    let tickets = service.submit_batch(&queries);
    assert!(tickets.iter().all(|(_, a)| a.is_admitted()), "capacity 16 admits all 10");

    // Let work pile up in flight, then drain. Each query needs >= 150 ms of
    // mandatory sleep (20 graphs x 30 ms on 4 workers), so the 120 ms drain
    // window cannot clear the backlog: the drain path must shed and cancel.
    std::thread::sleep(Duration::from_millis(50));
    let report = service.shutdown();

    let mut finished = 0u64;
    let mut shed = 0u64;
    for (i, (ticket, _)) in tickets.iter().enumerate() {
        let (outcome, _) = ticket
            .try_get()
            .unwrap_or_else(|| panic!("query {i} has no terminal status after shutdown"));
        if outcome.status.is_shed() {
            shed += 1;
        } else {
            // Executed: completed, or cancelled into an interrupt status.
            assert!(
                outcome.status.is_completed()
                    || outcome.status.is_timed_out()
                    || outcome.status.is_exhausted(),
                "query {i}: non-terminal-looking status {:?}",
                outcome.status
            );
            finished += 1;
        }
    }
    assert_eq!(finished, report.finished, "ticket statuses must match the drain report");
    assert_eq!(shed, report.shed_at_drain);
    assert_eq!(finished + shed, queries.len() as u64, "every admitted query is terminal");
    assert!(report.shed_at_drain > 0, "overload drain must have shed backlog");
    assert!(!report.drained_within_deadline);

    // No leaked worker threads: pool workers and executor are all joined.
    #[cfg(target_os = "linux")]
    assert_eq!(threads_with_prefix(prefix), 0, "service threads must be joined");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// I8 extension (acceptance): the full serving behavior — admission and
    /// shed decisions, statuses, answers, failure attribution, breaker
    /// transitions, health counters — is byte-identical across 1/2/4/8
    /// worker threads, for arbitrary panic-only fault schedules.
    ///
    /// Panic-only faults keep per-graph attribution exact (timeout/exhaust
    /// faults cancel whole scans, which is legitimately thread-dependent);
    /// the 45 s budget with a 1 s/graph shed estimate makes shedding purely
    /// predictive — wall-clock never intrudes.
    #[test]
    fn prop_serving_decisions_identical_across_thread_counts(
        seed in 0u64..1000,
        panics in 150u32..400,
    ) {
        let (db, queries) = fixture();
        let runs: Vec<Vec<String>> = THREAD_COUNTS
            .iter()
            .map(|&threads| {
                let chaos = ChaosConfig::new(seed).with_panics(panics);
                let matcher: Arc<dyn Matcher> =
                    Arc::new(ChaosMatcher::new(Arc::new(Cfql::new()), chaos));
                let runner = RunnerConfig {
                    query_budget: Some(Duration::from_secs(45)),
                    ..RunnerConfig::default()
                };
                let service = QueryService::new(
                    matcher,
                    Arc::clone(&db),
                    ServiceConfig {
                        threads,
                        runner,
                        breaker: BreakerConfig { fault_threshold: 2, cooldown: 3 },
                        queue_capacity: 64,
                        shed: Some(ShedPolicy { est_cost_per_graph: Duration::from_secs(1) }),
                        thread_prefix: format!("det{threads}"),
                        ..Default::default()
                    },
                );
                let mut log = Vec::new();
                for round in 0..3 {
                    let tickets = service.submit_batch(&queries);
                    for (i, (ticket, admission)) in tickets.iter().enumerate() {
                        let (outcome, retries) = ticket.wait();
                        log.push(format!(
                            "r{round} q{i} {admission:?} {:?} {:?} {retries} {:?}",
                            outcome.status, outcome.answers, outcome.failures
                        ));
                    }
                }
                let h = service.health();
                log.push(format!(
                    "admitted={} finished={} shed_qf={} shed_dl={} trips={} open={} quarantined={}",
                    h.admitted, h.finished, h.shed_queue_full, h.shed_deadline,
                    h.breaker_trips, h.open_breakers, h.quarantined_graph_results
                ));
                for t in service.breaker_transitions() {
                    log.push(format!("t{} {:?} {:?}->{:?}", t.tick, t.graph, t.from, t.to));
                }
                log
            })
            .collect();
        for pair in runs.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1]);
        }
    }
}
