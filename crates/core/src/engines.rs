//! The engine lineup: the paper's Table III as a two-axis grid.
//!
//! An [`Engine`] filters by a feature index, by vertex connectivity (a
//! matcher's preprocessing run per data graph), or by both, and verifies by
//! VF2 or by the matcher's own first-match enumeration. Its two fields —
//! `index: Option<IndexKind>` and the verifier — pick the cell; the category
//! (IFV / vcFV / IvcFV) falls out of them. One table, one row per named
//! engine, generates the public engine types and every registry look-up
//! ([`paper_engines`], [`engine_by_name`], [`matcher_by_name`],
//! [`engine_names`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqp_graph::database::GraphId;
use sqp_graph::{Graph, GraphDb};
use sqp_index::{
    BuildBudget, BuildError, CtIndexConfig, FingerprintIndex, GgsxIndex, GrapesConfig, GraphIndex,
    PathTrieIndex,
};
use sqp_matching::cfl::Cfl;
use sqp_matching::cfql::Cfql;
use sqp_matching::graphql::GraphQl;
use sqp_matching::obs::{Phase, Span};
use sqp_matching::{Deadline, ExecCtx, Matcher, ResourceLimits};

use crate::engine::{BuildReport, EngineCategory, QueryEngine, QueryOutcome};
use crate::parallel::{panic_message, scan, QueryPool};
use crate::verifier::Vf2Verifier;

/// Which index structure an IFV/IvcFV engine builds.
#[derive(Clone, Copy, Debug)]
pub enum IndexKind {
    /// Grapes path trie.
    Grapes(GrapesConfig),
    /// GGSX sorted path dictionary.
    Ggsx {
        /// Maximum vertices per path feature.
        max_path_vertices: usize,
    },
    /// CT-Index fingerprints.
    CtIndex(CtIndexConfig),
}

impl IndexKind {
    fn build(self, db: &GraphDb, budget: &BuildBudget) -> Result<Box<dyn GraphIndex>, BuildError> {
        Ok(match self {
            IndexKind::Grapes(cfg) => Box::new(PathTrieIndex::build(db, cfg, budget)?),
            IndexKind::Ggsx { max_path_vertices } => {
                Box::new(GgsxIndex::build(db, max_path_vertices, budget)?)
            }
            IndexKind::CtIndex(cfg) => Box::new(FingerprintIndex::build(db, cfg, budget)?),
        })
    }
}

/// How an [`Engine`] decides a candidate graph.
pub enum Verify {
    /// One VF2 subgraph-isomorphism test per candidate graph (Algorithm 1).
    Vf2(Vf2Verifier),
    /// The matcher's preprocessing as a per-graph filter, then its
    /// first-match enumeration (Algorithm 2).
    Matcher(Arc<dyn Matcher>),
}

/// One cell of Table III: an optional index level, then a verifier.
pub struct Engine {
    name: &'static str,
    index: Option<IndexKind>,
    verify: Verify,
    build_budget: BuildBudget,
    query_budget: Option<Duration>,
    limits: ResourceLimits,
    ctx: ExecCtx,
    db: Option<Arc<GraphDb>>,
    built: Option<Box<dyn GraphIndex>>,
}

impl Engine {
    /// An unbuilt engine filtering by `index` (if any) and deciding
    /// candidates by `verify`.
    pub fn new(name: &'static str, index: Option<IndexKind>, verify: Verify) -> Self {
        Self {
            name,
            index,
            verify,
            build_budget: BuildBudget::unlimited(),
            query_budget: None,
            limits: ResourceLimits::unlimited(),
            ctx: ExecCtx::new(),
            db: None,
            built: None,
        }
    }

    /// Arms the engine's control block and builds the per-query deadline.
    fn deadline(&self) -> Deadline {
        let deadline = self.query_budget.map_or(Deadline::none(), Deadline::after);
        deadline.with_ctx(self.ctx.arm(self.limits))
    }

    /// Algorithm 1's verification loop: one VF2 test per candidate graph,
    /// each behind its own panic guard so a poisoned pair costs one
    /// [`GraphFailure`](crate::engine::GraphFailure), not the query.
    fn verify_each(
        verifier: &Vf2Verifier,
        db: &GraphDb,
        q: &Graph,
        deadline: Deadline,
        candidates: Vec<GraphId>,
    ) -> QueryOutcome {
        let mut out = QueryOutcome { candidates: candidates.len(), ..Default::default() };
        // Outer stage span: absorbs the panic-guard and dispatch overhead of
        // the SI-test loop into the verify phase (the per-call spans inside
        // `verify` enter the phase it runs and read nothing) and is the
        // stage's one timer.
        let stage_span = Span::enter(Phase::Verify, deadline);
        for gid in candidates {
            let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                verifier.verify(q, db.graph(gid), deadline)
            }));
            match verdict {
                Err(payload) => out.record_panic(gid, panic_message(payload)),
                Ok(Ok(true)) => out.answers.push(gid),
                Ok(Ok(false)) => {}
                Ok(Err(_)) => {
                    out.record_interrupt(gid, deadline);
                    break;
                }
            }
        }
        out.verify_time = Duration::from_nanos(stage_span.finish());
        out
    }
}

impl QueryEngine for Engine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn category(&self) -> EngineCategory {
        match (&self.index, &self.verify) {
            (_, Verify::Vf2(_)) => EngineCategory::Ifv,
            (None, Verify::Matcher(_)) => EngineCategory::VcFv,
            (Some(_), Verify::Matcher(_)) => EngineCategory::IvcFv,
        }
    }

    fn build(&mut self, db: &Arc<GraphDb>) -> Result<BuildReport, BuildError> {
        let mut report = BuildReport::default();
        if let Some(kind) = self.index {
            let t0 = Instant::now();
            let index = kind.build(db, &self.build_budget)?;
            report = BuildReport { build_time: t0.elapsed(), index_bytes: index.heap_bytes() };
            self.built = Some(index);
        }
        self.db = Some(Arc::clone(db));
        Ok(report)
    }

    fn query(&self, q: &Graph) -> QueryOutcome {
        let db = match &self.db {
            Some(db) => db,
            // Documented precondition (QueryEngine::query): build first.
            None => panic!("query before build"),
        };
        let deadline = self.deadline();
        // Level 1: the index probe. Without an index every graph is a
        // candidate.
        let (level1, index_time) = match &self.built {
            Some(index) => {
                let mut span = Span::enter(Phase::Filter, deadline);
                let ids = index.candidates(q).into_ids(db.len());
                span.add_items(ids.len() as u64);
                (Some(ids), Duration::from_nanos(span.finish()))
            }
            None => (None, Duration::ZERO),
        };
        // Level 2: VF2 per candidate, or the shared vcFV scan — the pool
        // workers' loop run inline, so panics on one (query, graph) pair are
        // isolated into `failures` and interrupts stop the scan.
        let mut out = match (&self.verify, level1) {
            (Verify::Vf2(verifier), level1) => {
                let all = || (0..db.len() as u32).map(GraphId).collect();
                Self::verify_each(verifier, db, q, deadline, level1.unwrap_or_else(all))
            }
            (Verify::Matcher(m), Some(ids)) => {
                scan(&**m, db, q, deadline, None, ids.iter().map(|g| g.0 as usize))
            }
            (Verify::Matcher(m), None) => scan(&**m, db, q, deadline, None, 0..db.len()),
        };
        out.filter_time += index_time;
        out.finalize();
        out.kernel = self.ctx.snapshot();
        out.phases = self.ctx.phase_snapshot();
        out
    }

    fn set_query_budget(&mut self, budget: Option<Duration>) {
        self.query_budget = budget;
    }

    fn set_resource_limits(&mut self, limits: ResourceLimits) {
        self.limits = limits;
    }

    fn set_build_budget(&mut self, budget: BuildBudget) {
        self.build_budget = budget;
    }

    fn index_bytes(&self) -> usize {
        self.built.as_ref().map_or(0, |i| i.heap_bytes())
    }
}

// ---------------------------------------------------------------------------
// The table: one row per named engine
// ---------------------------------------------------------------------------

/// One named engine: its cell of the grid.
struct Row {
    name: &'static str,
    index: fn() -> Option<IndexKind>,
    verify: fn() -> Verify,
}

impl Row {
    fn engine(&self) -> Engine {
        Engine::new(self.name, (self.index)(), (self.verify)())
    }
}

/// Declares the lineup: for each row a public engine type (a named
/// [`Engine`] with a `new()`), and the [`TABLE`] the registry functions read.
macro_rules! engine_table {
    ($($(#[$doc:meta])* $ty:ident = $name:literal, $index:expr, $verify:expr;)*) => {
        static TABLE: &[Row] = &[$(Row { name: $name, index: || $index, verify: || $verify }),*];

        $(
            $(#[$doc])*
            pub struct $ty(Engine);

            impl $ty {
                /// The engine with its default (paper) configuration.
                pub fn new() -> Self {
                    Self(Engine::new($name, $index, $verify))
                }
            }

            impl Default for $ty {
                fn default() -> Self {
                    Self::new()
                }
            }

            impl QueryEngine for $ty {
                fn name(&self) -> &'static str {
                    self.0.name()
                }
                fn category(&self) -> EngineCategory {
                    self.0.category()
                }
                fn build(&mut self, db: &Arc<GraphDb>) -> Result<BuildReport, BuildError> {
                    self.0.build(db)
                }
                fn query(&self, q: &Graph) -> QueryOutcome {
                    self.0.query(q)
                }
                fn set_query_budget(&mut self, budget: Option<Duration>) {
                    self.0.set_query_budget(budget);
                }
                fn set_resource_limits(&mut self, limits: ResourceLimits) {
                    self.0.set_resource_limits(limits);
                }
                fn set_build_budget(&mut self, budget: BuildBudget) {
                    self.0.set_build_budget(budget);
                }
                fn index_bytes(&self) -> usize {
                    self.0.index_bytes()
                }
            }
        )*
    };
}

// Cell shorthands for the rows below. The index configurations are the
// paper's: Grapes and GGSX over paths of at most 4 vertices.
fn grapes() -> Option<IndexKind> {
    Some(IndexKind::Grapes(GrapesConfig::default()))
}

fn ggsx() -> Option<IndexKind> {
    Some(IndexKind::Ggsx { max_path_vertices: 4 })
}

fn vf2() -> Verify {
    Verify::Vf2(Vf2Verifier::classic())
}

fn by(matcher: impl Matcher + 'static) -> Verify {
    Verify::Matcher(Arc::new(matcher))
}

engine_table! {
    /// CT-Index: tree/cycle fingerprints + modified VF2 (IFV).
    CtIndexEngine = "CT-Index",
        Some(IndexKind::CtIndex(CtIndexConfig::default())), Verify::Vf2(Vf2Verifier::ct_index());
    /// Grapes: parallel path-trie index + VF2 (IFV).
    GrapesEngine = "Grapes", grapes(), vf2();
    /// GGSX: sorted path dictionary + VF2 (IFV).
    GgsxEngine = "GGSX", ggsx(), vf2();
    /// CFL as a vcFV subgraph-query engine.
    CflEngine = "CFL", None, by(Cfl::new());
    /// GraphQL as a vcFV subgraph-query engine.
    GraphQlEngine = "GraphQL", None, by(GraphQl::new());
    /// CFQL (CFL filter + GraphQL enumeration) as a vcFV engine — the paper's
    /// headline index-free algorithm.
    CfqlEngine = "CFQL", None, by(Cfql::new());
    /// vcGrapes: Grapes index filtering + CFQL filtering and enumeration
    /// (IvcFV).
    VcGrapesEngine = "vcGrapes", grapes(), by(Cfql::new());
    /// vcGGSX: GGSX index filtering + CFQL filtering and enumeration (IvcFV).
    VcGgsxEngine = "vcGGSX", ggsx(), by(Cfql::new());
}

fn row(name: &str) -> Option<&'static Row> {
    TABLE.iter().find(|r| r.name.eq_ignore_ascii_case(name))
}

/// Every engine name in the table, in Table III order.
pub fn engine_names() -> impl Iterator<Item = &'static str> {
    TABLE.iter().map(|r| r.name)
}

/// All eight paper engines with default configurations, in Table III order.
pub fn paper_engines() -> Vec<Box<dyn QueryEngine>> {
    TABLE.iter().map(|r| Box::new(r.engine()) as Box<dyn QueryEngine>).collect()
}

/// Looks an engine up by its (case-insensitive) paper name, e.g. `"cfql"`,
/// `"vcgrapes"`, `"ct-index"`.
pub fn engine_by_name(name: &str) -> Option<Box<dyn QueryEngine>> {
    row(name).map(|r| Box::new(r.engine()) as Box<dyn QueryEngine>)
}

/// Looks a bare matcher up by its (case-insensitive) engine name, e.g.
/// `"cfql"`, `"graphql"`: the matcher of an index-free row — what can run
/// inside a [`ParallelEngine`], a [`QueryPool`] or the serving layer.
pub fn matcher_by_name(name: &str) -> Option<Arc<dyn Matcher>> {
    let row = row(name)?;
    match ((row.index)(), (row.verify)()) {
        (None, Verify::Matcher(m)) => Some(m),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Parallel vcFV engine
// ---------------------------------------------------------------------------

/// A vcFV engine that runs its matcher over the database on a persistent
/// (plain or [supervised](QueryPool::supervised)) [`QueryPool`] instead of a
/// single thread — how `--threads N` and `--supervise` reach the runner.
///
/// Answers are identical to the corresponding sequential vcFV engine
/// (invariant I4); `filter_time`/`verify_time` are summed worker CPU times,
/// so on a multi-core machine they can exceed the query's wall-clock
/// latency. See `DESIGN.md` §2.4 for the timing semantics.
pub struct ParallelEngine {
    name: &'static str,
    matcher: Arc<dyn Matcher>,
    pool: QueryPool,
    query_budget: Option<Duration>,
    limits: ResourceLimits,
    ctx: ExecCtx,
    db: Option<Arc<GraphDb>>,
}

impl ParallelEngine {
    /// Runs `matcher` on `pool`'s workers.
    pub fn new(name: &'static str, matcher: Arc<dyn Matcher>, pool: QueryPool) -> Self {
        Self {
            name,
            matcher,
            pool,
            query_budget: None,
            limits: ResourceLimits::unlimited(),
            ctx: ExecCtx::new(),
            db: None,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

impl QueryEngine for ParallelEngine {
    fn name(&self) -> &'static str {
        self.name
    }
    fn category(&self) -> EngineCategory {
        EngineCategory::VcFv
    }
    fn build(&mut self, db: &Arc<GraphDb>) -> Result<BuildReport, BuildError> {
        self.db = Some(Arc::clone(db));
        Ok(BuildReport::default())
    }
    fn query(&self, q: &Graph) -> QueryOutcome {
        let db = match &self.db {
            Some(db) => db,
            // Documented precondition (QueryEngine::query): build first.
            None => panic!("query before build"),
        };
        let deadline = self.query_budget.map_or(Deadline::none(), Deadline::after);
        let deadline = deadline.with_ctx(self.ctx.arm(self.limits));
        self.pool.query(Arc::clone(&self.matcher), db, q, deadline).outcome
    }
    fn set_query_budget(&mut self, budget: Option<Duration>) {
        self.query_budget = budget;
    }
    fn set_resource_limits(&mut self, limits: ResourceLimits) {
        self.limits = limits;
    }
    fn index_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::{GraphBuilder, Label, VertexId};
    use sqp_matching::brute;

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

    fn small_db() -> Arc<GraphDb> {
        Arc::new(GraphDb::from_graphs(vec![
            // G0: triangle 0-1-2.
            labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            // G1: path 0-1-2.
            labeled(&[0, 1, 2], &[(0, 1), (1, 2)]),
            // G2: unrelated.
            labeled(&[3, 3], &[(0, 1)]),
        ]))
    }

    fn small_queries() -> Vec<Graph> {
        vec![
            labeled(&[0, 1], &[(0, 1)]),
            labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            labeled(&[3, 3], &[(0, 1)]),
            labeled(&[0, 3], &[(0, 1)]),
        ]
    }

    #[test]
    fn every_row_answers_the_oracle_from_its_cell_of_the_grid() {
        let db = small_db();
        for (row, mut engine) in TABLE.iter().zip(paper_engines()) {
            assert_eq!(engine.name(), row.name);
            let indexed = (row.index)().is_some();
            let by_matcher = matches!((row.verify)(), Verify::Matcher(_));
            let category = match (indexed, by_matcher) {
                (true, false) => EngineCategory::Ifv,
                (false, true) => EngineCategory::VcFv,
                (true, true) => EngineCategory::IvcFv,
                (false, false) => panic!("{}: no filter at all", row.name),
            };
            assert_eq!(engine.category(), category, "{}", row.name);
            assert_eq!(matcher_by_name(row.name).is_some(), !indexed, "{}", row.name);

            let report = engine.build(&db).unwrap();
            assert_eq!(report.index_bytes > 0, indexed, "{}", row.name);
            assert_eq!(engine.index_bytes(), report.index_bytes, "{}", row.name);
            for q in small_queries() {
                let oracle: Vec<GraphId> = db
                    .iter()
                    .filter(|(_, g)| brute::is_subgraph(&q, g))
                    .map(|(id, _)| id)
                    .collect();
                let out = engine.query(&q);
                assert_eq!(out.answers, oracle, "{}", row.name);
                assert!(out.status.is_completed(), "{}", row.name);
                assert!(out.candidates >= oracle.len(), "{}", row.name);
            }
        }
    }

    #[test]
    fn vcfv_reports_aux_bytes_and_no_index() {
        let db = small_db();
        let mut e = CfqlEngine::new();
        e.build(&db).unwrap();
        assert_eq!(e.index_bytes(), 0);
        let out = e.query(&labeled(&[0, 1], &[(0, 1)]));
        assert!(out.aux_bytes > 0);
        assert_eq!(out.candidates, 2);
    }

    #[test]
    fn ivcfv_candidates_no_larger_than_ifv() {
        let db = small_db();
        let mut grapes = GrapesEngine::new();
        let mut vc = VcGrapesEngine::new();
        grapes.build(&db).unwrap();
        vc.build(&db).unwrap();
        let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let a = grapes.query(&q);
        let b = vc.query(&q);
        assert!(b.candidates <= a.candidates);
        assert_eq!(a.answers, b.answers);
        // The index probe is the first filter level of both.
        assert!(a.phases.items_of(Phase::Filter) >= a.candidates as u64);
        assert!(b.phases.items_of(Phase::Filter) >= a.candidates as u64);
    }

    /// The named engine — the row `engine_by_name` builds — over a control
    /// block that reads `clock`: the one field a test can reach from here
    /// and a caller cannot.
    fn counting_engine(name: &str, clock: fn() -> u64) -> Engine {
        let mut engine = row(name).expect("registered").engine();
        engine.ctx = ExecCtx::with_clock(clock);
        engine
    }

    /// 150 AIDS-like graphs and queries drawn from them.
    fn seeded_workload() -> (Arc<GraphDb>, Vec<Graph>) {
        use sqp_datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
        let mut profile = sqp_datagen::aids_like();
        profile.graphs = 150;
        let db = profile.generate(21);
        let spec = QuerySetSpec { edges: 5, method: QueryGenMethod::RandomWalk, count: 8 };
        let queries = generate_query_set(&db, spec, 211);
        (Arc::new(db), queries)
    }

    /// The scan's lap reads the span clock once when it opens and once per
    /// switch, never at its drop, and the matcher's `Filter` span enters the
    /// phase the lap is running, so it reads nothing: a pruned pair reads the
    /// clock once (`Filter → Filter`), an unpruned one 6 times (`Filter →
    /// Enumerate`, `Enumerate → Filter`, the matcher's `BuildCandidates` and
    /// `Order` spans), and the sequential engine runs one scan per query.
    #[test]
    fn cfql_engine_reads_the_clock_once_per_pruned_pair() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static READS: AtomicU64 = AtomicU64::new(0);
        let (db, queries) = seeded_workload();
        let mut engine = counting_engine("CFQL", || READS.fetch_add(1, Ordering::Relaxed));
        engine.build(&db).unwrap();
        let mut unpruned_seen = 0;
        for q in &queries {
            let before = READS.load(Ordering::Relaxed);
            let out = engine.query(q);
            let reads = READS.load(Ordering::Relaxed) - before;
            assert!(out.status.is_completed());
            let unpruned = out.candidates as u64;
            let pruned = db.len() as u64 - unpruned;
            assert_eq!(reads, pruned + 6 * unpruned + 1, "{pruned} pruned, {unpruned} unpruned");
            unpruned_seen += unpruned;
        }
        assert!(unpruned_seen > 0, "the workload must reach the enumeration stage");
    }

    /// `Vf2Verifier::verify`'s span enters the `Verify` phase that
    /// `verify_each`'s stage span is running: an IFV query reads the clock
    /// for its index probe and its verification stage (2 + 2) and not once
    /// per SI test, while every test still counts as one `Verify` item. The
    /// two stage spans are also the stages' only timers.
    #[test]
    fn grapes_engine_reads_no_clock_per_si_test() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static READS: AtomicU64 = AtomicU64::new(0);
        let (db, queries) = seeded_workload();
        let mut engine = counting_engine("Grapes", || READS.fetch_add(1, Ordering::Relaxed));
        engine.build(&db).unwrap();
        let mut tests_seen = 0;
        for q in &queries {
            let before = READS.load(Ordering::Relaxed);
            let out = engine.query(q);
            assert!(out.status.is_completed());
            assert_eq!(READS.load(Ordering::Relaxed) - before, 4, "{} SI tests", out.candidates);
            assert_eq!(out.phases.items_of(Phase::Verify), out.candidates as u64);
            tests_seen += out.candidates;
        }
        assert!(tests_seen > 0, "the workload must reach the verifier");
    }

    #[test]
    fn build_budget_propagates_oot() {
        let db = small_db();
        let mut e = CtIndexEngine::new();
        e.set_build_budget(BuildBudget::unlimited().with_memory(1));
        assert!(e.build(&db).is_err());
    }

    #[test]
    fn registry_finds_every_engine() {
        assert_eq!(engine_names().count(), 8);
        for name in engine_names() {
            let found = engine_by_name(name).expect("registered");
            assert_eq!(found.name(), name);
            let found = engine_by_name(&name.to_ascii_uppercase()).expect("case-insensitive");
            assert_eq!(found.name(), name);
        }
        assert!(engine_by_name("adaptive").is_none());
        assert!(engine_by_name("no-such-engine").is_none());
        assert!(matcher_by_name("vf2-nope").is_none());
    }

    #[test]
    fn paper_engines_are_table_iii() {
        let table_iii =
            ["CT-Index", "Grapes", "GGSX", "CFL", "GraphQL", "CFQL", "vcGrapes", "vcGGSX"];
        let names: Vec<&str> = paper_engines().iter().map(|e| e.name()).collect();
        assert_eq!(names, table_iii);
        assert!(engine_names().eq(table_iii));
    }

    #[test]
    fn parallel_engine_matches_sequential() {
        let db = small_db();
        let mut seq = CfqlEngine::new();
        let mut par = ParallelEngine::new("CFQL", Arc::new(Cfql::new()), QueryPool::new(4));
        assert_eq!(par.threads(), 4);
        seq.build(&db).unwrap();
        par.build(&db).unwrap();
        for q in small_queries() {
            let a = seq.query(&q);
            let b = par.query(&q);
            assert_eq!(a.answers, b.answers);
            assert_eq!(a.candidates, b.candidates);
        }
    }
}
