//! Who notices an expired deadline, and how soon, on every path a query can
//! take (DESIGN.md §2.4 "Who reads the clock when"): the same database and
//! queries through `CfqlEngine`, `QueryPool` at 1/2/4/8 threads,
//! `QueryService`, a supervised `QueryService`.
//!
//! Since PR 14 a scan reads the wall clock before its first graph and then
//! every [`SCAN_CHECK_INTERVAL`]th, and only the cancel/guard flags in
//! between; a matcher's entry check is flags-only under such a scan and the
//! full check for every direct caller. The contract asserted here:
//!
//! * a zero budget resolves `TimedOut` with **no** graph processed;
//! * a budget that expires mid-scan resolves `TimedOut` with a prefix-sound
//!   subset of the answers, and at most `SCAN_CHECK_INTERVAL` pairs per
//!   worker *start* after the expiry instant (a trivial pair never reaches a
//!   `TickChecker` boundary, so the scan's cadence is the whole bound);
//! * a sibling's cancellation stops every other worker before its next
//!   graph;
//! * a direct matcher call with an expired deadline still fails on entry.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use subgraph_query::core::prelude::*;
use subgraph_query::graph::database::GraphId;
use subgraph_query::graph::{Graph, GraphBuilder, GraphDb, Label, VertexId};
use subgraph_query::matching::cfl::Cfl;
use subgraph_query::matching::cfql::Cfql;
use subgraph_query::matching::deadline::SCAN_CHECK_INTERVAL;
use subgraph_query::matching::graphql::GraphQl;
use subgraph_query::matching::quicksi::QuickSi;
use subgraph_query::matching::spath::SPath;
use subgraph_query::matching::turboiso::TurboIso;
use subgraph_query::matching::ullmann::Ullmann;
use subgraph_query::matching::{
    CandidateSpace, Deadline, Embedding, FilterResult, Matcher, Timeout,
};

const GRAPHS: usize = 20_000;

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

/// 20 000 trivial graphs: two in three hold the path 0-1-0 (and so the edge
/// 0-1), every third one neither.
fn trivial_db() -> Arc<GraphDb> {
    let hit = labeled(&[0, 1, 0], &[(0, 1), (1, 2)]);
    let miss = labeled(&[2, 3], &[(0, 1)]);
    let graphs = (0..GRAPHS).map(|i| if i % 3 == 0 { miss.clone() } else { hit.clone() });
    Arc::new(GraphDb::from_graphs(graphs.collect()))
}

fn edge_query() -> Graph {
    labeled(&[0, 1], &[(0, 1)])
}

fn path_query() -> Graph {
    labeled(&[0, 1, 0], &[(0, 1), (1, 2)])
}

/// Both queries have the same answers.
fn expected() -> Vec<GraphId> {
    (0..GRAPHS as u32).filter(|i| i % 3 != 0).map(GraphId).collect()
}

/// CFQL, counting the filter calls it receives and how many of them started
/// after the wall-clock instant of the deadline they were handed.
#[derive(Default)]
struct Probe {
    inner: Cfql,
    calls: AtomicUsize,
    late: AtomicUsize,
}

impl Matcher for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if deadline.instant().is_some_and(|at| Instant::now() >= at) {
            self.late.fetch_add(1, Ordering::Relaxed);
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

/// One way a query reaches the matcher.
#[derive(Clone, Copy, Debug)]
enum Path {
    Engine,
    Pool(usize),
    Service,
    SupervisedService,
}

const PATHS: [Path; 7] = [
    Path::Engine,
    Path::Pool(1),
    Path::Pool(2),
    Path::Pool(4),
    Path::Pool(8),
    Path::Service,
    Path::SupervisedService,
];

impl Path {
    /// Workers scanning concurrently.
    fn workers(self) -> usize {
        match self {
            Path::Pool(n) => n,
            Path::Service | Path::SupervisedService => 2,
            _ => 1,
        }
    }

    /// Whether the path calls the probe (the engines own a fixed CFQL).
    fn probed(self) -> bool {
        matches!(self, Path::Pool(_) | Path::Service | Path::SupervisedService)
    }

    /// Runs the path query under `budget`; returns the outcome and the
    /// wall time of the call.
    fn run(
        self,
        db: &Arc<GraphDb>,
        probe: &Arc<Probe>,
        budget: Option<Duration>,
    ) -> (QueryOutcome, Duration) {
        let q = path_query();
        let matcher: Arc<dyn Matcher> = Arc::clone(probe) as Arc<dyn Matcher>;
        fn timed(f: impl FnOnce() -> QueryOutcome) -> (QueryOutcome, Duration) {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed())
        }
        match self {
            Path::Engine => {
                let mut engine = CfqlEngine::new();
                engine.build(db).unwrap();
                engine.set_query_budget(budget);
                timed(|| engine.query(&q))
            }
            Path::Pool(threads) => {
                let pool = QueryPool::new(threads);
                let deadline = budget.map_or(Deadline::none(), Deadline::after);
                timed(|| pool.query(Arc::clone(&matcher), db, &q, deadline).outcome)
            }
            Path::Service | Path::SupervisedService => {
                let supervisor =
                    matches!(self, Path::SupervisedService).then(|| SupervisorConfig {
                        grace: Duration::from_millis(50),
                        scan_interval: Duration::from_millis(10),
                        stale_after: Duration::from_millis(50),
                    });
                let runner = RunnerConfig { query_budget: budget, ..Default::default() };
                let config = ServiceConfig {
                    threads: self.workers(),
                    runner,
                    supervisor,
                    thread_prefix: format!("dl-{self:?}"),
                    ..Default::default()
                };
                let service = QueryService::new(matcher, Arc::clone(db), config);
                let timed = timed(|| service.submit(&q).0.wait().0);
                assert!(service.shutdown().drained_within_deadline, "{self:?}");
                timed
            }
        }
    }
}

#[test]
fn zero_budget_times_out_before_any_graph_on_every_path() {
    let db = trivial_db();
    for path in PATHS {
        let probe = Arc::new(Probe::default());
        let (out, _) = path.run(&db, &probe, Some(Duration::ZERO));
        assert_eq!(out.status, QueryStatus::TimedOut, "{path:?}");
        assert!(out.answers.is_empty(), "{path:?}");
        if path.probed() {
            assert_eq!(probe.calls.load(Ordering::Relaxed), 0, "{path:?}: a graph was processed");
        }
        // No stage span ran and no candidate space was built: nothing was
        // filtered.
        assert!(out.phases.is_zero(), "{path:?}: {:?}", out.phases);
        assert_eq!(out.aux_bytes, 0, "{path:?}");
        assert_eq!(out.candidates, 0, "{path:?}");
    }
}

#[test]
fn budget_expiring_mid_scan_stops_within_the_scan_cadence_on_every_path() {
    let db = trivial_db();
    let expected = expected();
    // Calibrate: one unbudgeted pass, then an eighth of it as the budget.
    let probe = Arc::new(Probe::default());
    let (full, full_wall) = Path::Pool(1).run(&db, &probe, None);
    assert_eq!(full.status, QueryStatus::Completed);
    assert_eq!(full.answers, expected);
    assert_eq!(probe.calls.load(Ordering::Relaxed), GRAPHS);
    let budget = (full_wall / 8).max(Duration::from_micros(200));

    for path in PATHS {
        let probe = Arc::new(Probe::default());
        let (out, wall) = path.run(&db, &probe, Some(budget));
        assert_eq!(out.status, QueryStatus::TimedOut, "{path:?} under {budget:?} of {full_wall:?}");
        // Prefix-sound: nothing reported that is not an answer; a single
        // scanning thread reports exactly a prefix of them.
        assert!(out.answers.len() < expected.len(), "{path:?}");
        if path.workers() == 1 {
            assert_eq!(out.answers, expected[..out.answers.len()], "{path:?}");
        } else {
            assert!(out.answers.windows(2).all(|w| w[0] < w[1]), "{path:?}");
            assert!(out.answers.iter().all(|g| g.0 % 3 != 0), "{path:?}");
        }
        // Overshoot. Counted: pairs that started past the expiry instant —
        // at most one scan interval per worker.
        if path.probed() {
            let calls = probe.calls.load(Ordering::Relaxed);
            let late = probe.late.load(Ordering::Relaxed);
            assert!(calls < GRAPHS, "{path:?}: the scan ran to the end");
            assert!(
                late <= SCAN_CHECK_INTERVAL * path.workers(),
                "{path:?}: {late} pairs started after the deadline"
            );
        }
        // And in wall time, generously (16 trivial pairs are microseconds;
        // the slack is for thread hand-offs on a busy host): well short of
        // the full pass it would take to miss the deadline altogether.
        let overshoot = wall.saturating_sub(budget);
        assert!(
            overshoot < full_wall / 2 + Duration::from_millis(250),
            "{path:?}: returned {overshoot:?} after a {budget:?} budget (full pass {full_wall:?})"
        );
    }
}

/// Fails its budget on the one graph with three vertices and label 9 — but
/// only once every sibling is inside a matcher call — and holds every other
/// call until the cancellation that failure triggers has been raised.
struct TripWire {
    inner: Cfql,
    siblings: usize,
    inside: AtomicUsize,
    started_after_cancel: AtomicUsize,
}

const PATIENCE: Duration = Duration::from_secs(20);

impl Matcher for TripWire {
    fn name(&self) -> &'static str {
        "trip-wire"
    }
    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        let t0 = Instant::now();
        if g.label(VertexId(0)) == Label(9) {
            while self.inside.load(Ordering::Acquire) < self.siblings && t0.elapsed() < PATIENCE {
                std::thread::yield_now();
            }
            return Err(Timeout);
        }
        if deadline.check_flags().is_err() {
            self.started_after_cancel.fetch_add(1, Ordering::Relaxed);
        }
        self.inside.fetch_add(1, Ordering::Release);
        while deadline.check_flags().is_ok() && t0.elapsed() < PATIENCE {
            std::thread::yield_now();
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

#[test]
fn a_siblings_cancellation_stops_the_others_before_their_next_graph() {
    // Graph 0 is the trip wire; 400 more keep every sibling supplied.
    let mut graphs = vec![labeled(&[9, 1, 0], &[(0, 1), (1, 2)])];
    graphs.resize(401, labeled(&[0, 1, 0], &[(0, 1), (1, 2)]));
    let db = Arc::new(GraphDb::from_graphs(graphs));
    let q = edge_query();
    for threads in [2usize, 4, 8] {
        let wire = Arc::new(TripWire {
            inner: Cfql::new(),
            siblings: threads - 1,
            inside: AtomicUsize::new(0),
            started_after_cancel: AtomicUsize::new(0),
        });
        let pool = QueryPool::new(threads);
        // No wall-clock budget at all: only the flags can stop the siblings.
        let out = pool.query(Arc::clone(&wire) as Arc<dyn Matcher>, &db, &q, Deadline::none());
        assert_eq!(out.outcome.status, QueryStatus::TimedOut, "threads={threads}");
        // Every sibling finished the call it was in and claimed nothing
        // more: one call each, none started under a raised token.
        assert_eq!(wire.inside.load(Ordering::Relaxed), threads - 1, "threads={threads}");
        assert_eq!(wire.started_after_cancel.load(Ordering::Relaxed), 0, "threads={threads}");
        assert!(out.outcome.answers.len() < threads, "threads={threads}");
        // The pool is reusable afterwards (the trip-wire graph holds the
        // edge too).
        let ok = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none());
        assert_eq!(ok.outcome.answers.len(), 401, "threads={threads}");
    }
}

#[test]
fn direct_matcher_calls_keep_the_full_entry_check() {
    let g = labeled(&[0, 1, 0], &[(0, 1), (1, 2)]);
    let q = edge_query();
    let matchers: Vec<Box<dyn Matcher>> = vec![
        Box::new(Cfql::new()),
        Box::new(Cfl::new()),
        Box::new(GraphQl::new()),
        Box::new(TurboIso::new()),
        Box::new(QuickSi::new()),
        Box::new(SPath::new()),
        Box::new(Ullmann::new()),
    ];
    for m in &matchers {
        let expired = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(matches!(m.filter(&q, &g, expired), Err(Timeout)), "{}", m.name());
        assert!(matches!(m.is_subgraph(&q, &g, expired), Err(Timeout)), "{}", m.name());
        // Only a scan that has just read the clock may vouch for the copy it
        // hands down; the entry check is then flags-only.
        assert!(matches!(m.filter(&q, &g, expired.fresh()), Ok(FilterResult::Space(_))));
        assert!(m.is_subgraph(&q, &g, Deadline::after(Duration::from_secs(60))).unwrap());
    }
}
