//! The eight competing engines (plus an Ullmann-based baseline).
//!
//! Concrete, ready-to-run instantiations of the paper's Table III. Every
//! engine is a thin wrapper over one of three generic frames:
//! [`IfvFrame`] (Algorithm 1), [`VcfvFrame`] (Algorithm 2) and
//! [`IvcfvFrame`] (two-level filtering).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqp_graph::{Graph, GraphDb};
use sqp_index::{
    BuildBudget, BuildError, CtIndexConfig, FingerprintIndex, GgsxIndex, GrapesConfig,
    GraphGrepConfig, GraphGrepIndex, GraphIndex, PathTrieIndex,
};
use sqp_matching::cfl::Cfl;
use sqp_matching::cfql::Cfql;
use sqp_matching::graphql::GraphQl;
use sqp_matching::obs::{Phase, Span};
use sqp_matching::quicksi::QuickSi;
use sqp_matching::spath::SPath;
use sqp_matching::turboiso::TurboIso;
use sqp_matching::ullmann::Ullmann;
use sqp_matching::{Deadline, Matcher, MatcherConfig, ResourceGuard, ResourceLimits, StatsSink};

use crate::engine::{BuildReport, EngineCategory, QueryEngine, QueryOutcome};
use crate::parallel::{panic_message, scan};
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
    /// GraphGrep hashed path fingerprints.
    GraphGrep(GraphGrepConfig),
}

impl IndexKind {
    fn build(self, db: &GraphDb, budget: &BuildBudget) -> Result<Box<dyn GraphIndex>, BuildError> {
        Ok(match self {
            IndexKind::Grapes(cfg) => Box::new(PathTrieIndex::build(db, cfg, budget)?),
            IndexKind::Ggsx { max_path_vertices } => {
                Box::new(GgsxIndex::build(db, max_path_vertices, budget)?)
            }
            IndexKind::CtIndex(cfg) => Box::new(FingerprintIndex::build(db, cfg, budget)?),
            IndexKind::GraphGrep(cfg) => Box::new(GraphGrepIndex::build(db, cfg, budget)?),
        })
    }
}

// ---------------------------------------------------------------------------
// IFV frame (Algorithm 1)
// ---------------------------------------------------------------------------

/// Generic IFV engine: index-based filtering + VF2 verification.
pub struct IfvFrame {
    name: &'static str,
    kind: IndexKind,
    verifier: Vf2Verifier,
    build_budget: BuildBudget,
    query_budget: Option<Duration>,
    limits: ResourceLimits,
    guard: ResourceGuard,
    stats: StatsSink,
    db: Option<Arc<GraphDb>>,
    index: Option<Box<dyn GraphIndex>>,
}

impl IfvFrame {
    /// Creates an unbuilt IFV engine.
    pub fn new(name: &'static str, kind: IndexKind, verifier: Vf2Verifier) -> Self {
        Self {
            name,
            kind,
            verifier,
            build_budget: BuildBudget::unlimited(),
            query_budget: None,
            limits: ResourceLimits::unlimited(),
            guard: ResourceGuard::new(),
            stats: StatsSink::new(),
            db: None,
            index: None,
        }
    }

    /// Sets the index-construction budget (the paper's 24 h / RAM limits).
    pub fn set_build_budget(&mut self, budget: BuildBudget) {
        self.build_budget = budget;
    }

    /// Re-arms the engine's resource guard and phase-span sink, and builds
    /// the per-query deadline.
    fn deadline(&self) -> Deadline {
        self.guard.reset(self.limits);
        self.stats.reset();
        self.query_budget
            .map_or(Deadline::none(), Deadline::after)
            .with_guard(self.guard)
            .with_stats(self.stats)
    }

    fn build_impl(&mut self, db: &Arc<GraphDb>) -> Result<BuildReport, BuildError> {
        let t0 = Instant::now();
        let index = self.kind.build(db, &self.build_budget)?;
        let build_time = t0.elapsed();
        let index_bytes = index.heap_bytes();
        self.db = Some(Arc::clone(db));
        self.index = Some(index);
        Ok(BuildReport { build_time, index_bytes })
    }

    fn query_impl(&self, q: &Graph) -> QueryOutcome {
        let (db, index) = match (&self.db, &self.index) {
            (Some(db), Some(index)) => (db, index),
            // Documented precondition (QueryEngine::query): build first.
            _ => panic!("query before build"),
        };
        let deadline = self.deadline();

        let t0 = Instant::now();
        let candidates = {
            let mut span = Span::enter(Phase::Filter, deadline);
            let candidates = index.candidates(q).into_ids(db.len());
            span.add_items(candidates.len() as u64);
            candidates
        };
        let filter_time = t0.elapsed();

        let mut out =
            QueryOutcome { candidates: candidates.len(), filter_time, ..Default::default() };
        let t1 = Instant::now();
        // Outer stage span: absorbs the panic-guard and dispatch overhead of
        // the SI-test loop into the verify phase (the per-call spans inside
        // `verify` subtract themselves via self-time accounting).
        let stage_span = Span::enter(Phase::Verify, deadline);
        for gid in candidates {
            let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.verifier.verify(q, db.graph(gid), deadline)
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
        drop(stage_span);
        out.verify_time = t1.elapsed();
        out.finalize();
        out.kernel = self.stats.snapshot();
        out.phases = self.stats.phase_snapshot();
        out
    }
}

// ---------------------------------------------------------------------------
// vcFV frame (Algorithm 2)
// ---------------------------------------------------------------------------

/// Generic vcFV engine: per-graph matcher preprocessing as the filter,
/// first-match enumeration as the verifier. Index-free.
pub struct VcfvFrame {
    name: &'static str,
    matcher: Box<dyn Matcher>,
    query_budget: Option<Duration>,
    limits: ResourceLimits,
    guard: ResourceGuard,
    stats: StatsSink,
    db: Option<Arc<GraphDb>>,
}

impl VcfvFrame {
    /// Creates an unbuilt vcFV engine.
    pub fn new(name: &'static str, matcher: Box<dyn Matcher>) -> Self {
        Self {
            name,
            matcher,
            query_budget: None,
            limits: ResourceLimits::unlimited(),
            guard: ResourceGuard::new(),
            stats: StatsSink::new(),
            db: None,
        }
    }

    fn built_db(&self) -> &Arc<GraphDb> {
        match &self.db {
            Some(db) => db,
            // Documented precondition (QueryEngine::query): build first.
            None => panic!("query before build"),
        }
    }

    /// Re-arms the engine's resource guard and kernel-stat sink, and builds
    /// the per-query deadline.
    fn deadline(&self) -> Deadline {
        self.guard.reset(self.limits);
        self.stats.reset();
        self.query_budget
            .map_or(Deadline::none(), Deadline::after)
            .with_guard(self.guard)
            .with_stats(self.stats)
    }

    fn query_over(&self, q: &Graph, graphs: impl Iterator<Item = usize>) -> QueryOutcome {
        let db = self.built_db();
        // The pool workers' scan loop, run inline: panics on one (query,
        // graph) pair are isolated into `failures`, interrupts stop the scan.
        let mut out = scan(&*self.matcher, db, q, self.deadline(), None, graphs);
        out.finalize();
        out.kernel = self.stats.snapshot();
        out.phases = self.stats.phase_snapshot();
        out
    }

    fn query_impl(&self, q: &Graph) -> QueryOutcome {
        self.query_over(q, 0..self.built_db().len())
    }
}

// ---------------------------------------------------------------------------
// IvcFV frame (two-level filtering)
// ---------------------------------------------------------------------------

/// Generic IvcFV engine: index filtering, then vertex-connectivity filtering,
/// then first-match enumeration (the paper's vcGrapes / vcGGSX).
pub struct IvcfvFrame {
    name: &'static str,
    kind: IndexKind,
    inner: VcfvFrame,
    build_budget: BuildBudget,
    index: Option<Box<dyn GraphIndex>>,
}

impl IvcfvFrame {
    /// Creates an unbuilt IvcFV engine.
    pub fn new(name: &'static str, kind: IndexKind, matcher: Box<dyn Matcher>) -> Self {
        Self {
            name,
            kind,
            inner: VcfvFrame::new(name, matcher),
            build_budget: BuildBudget::unlimited(),
            index: None,
        }
    }

    /// Sets the index-construction budget.
    pub fn set_build_budget(&mut self, budget: BuildBudget) {
        self.build_budget = budget;
    }

    fn build_impl(&mut self, db: &Arc<GraphDb>) -> Result<BuildReport, BuildError> {
        let t0 = Instant::now();
        let index = self.kind.build(db, &self.build_budget)?;
        let build_time = t0.elapsed();
        let index_bytes = index.heap_bytes();
        self.index = Some(index);
        self.inner.db = Some(Arc::clone(db));
        Ok(BuildReport { build_time, index_bytes })
    }

    fn query_impl(&self, q: &Graph) -> QueryOutcome {
        let db = self.inner.built_db();
        let index = match &self.index {
            Some(index) => index,
            // Documented precondition (QueryEngine::query): build first.
            None => panic!("query before build"),
        };
        let t0 = Instant::now();
        let level1 = index.candidates(q).into_ids(db.len());
        let index_time = t0.elapsed();
        let mut out = self.inner.query_over(q, level1.iter().map(|g| g.0 as usize));
        out.filter_time += index_time;
        // The index probe runs before the inner frame resets its sink, so
        // its time is folded into the filter phase directly.
        let f = Phase::Filter.index();
        out.phases.nanos[f] = out.phases.nanos[f].saturating_add(index_time.as_nanos() as u64);
        out.phases.items[f] = out.phases.items[f].saturating_add(level1.len() as u64);
        out
    }
}

// ---------------------------------------------------------------------------
// Concrete engines
// ---------------------------------------------------------------------------

macro_rules! delegate_query_engine {
    ($ty:ty, $cat:expr, $frame:ident) => {
        impl QueryEngine for $ty {
            fn name(&self) -> &'static str {
                self.$frame.name
            }
            fn category(&self) -> EngineCategory {
                $cat
            }
            fn build(&mut self, db: &Arc<GraphDb>) -> Result<BuildReport, BuildError> {
                self.$frame.build_impl(db)
            }
            fn query(&self, q: &Graph) -> QueryOutcome {
                self.$frame.query_impl(q)
            }
            fn set_query_budget(&mut self, budget: Option<Duration>) {
                self.$frame.query_budget = budget;
            }
            fn set_resource_limits(&mut self, limits: ResourceLimits) {
                self.$frame.limits = limits;
            }
            fn set_build_budget(&mut self, budget: BuildBudget) {
                self.$frame.build_budget = budget;
            }
            fn index_bytes(&self) -> usize {
                self.$frame.index.as_ref().map_or(0, |i| i.heap_bytes())
            }
        }
    };
}

macro_rules! delegate_vcfv_engine {
    ($ty:ty) => {
        impl QueryEngine for $ty {
            fn name(&self) -> &'static str {
                self.frame.name
            }
            fn category(&self) -> EngineCategory {
                EngineCategory::VcFv
            }
            fn build(&mut self, db: &Arc<GraphDb>) -> Result<BuildReport, BuildError> {
                self.frame.db = Some(Arc::clone(db));
                Ok(BuildReport::default())
            }
            fn query(&self, q: &Graph) -> QueryOutcome {
                self.frame.query_impl(q)
            }
            fn set_query_budget(&mut self, budget: Option<Duration>) {
                self.frame.query_budget = budget;
            }
            fn set_resource_limits(&mut self, limits: ResourceLimits) {
                self.frame.limits = limits;
            }
            fn index_bytes(&self) -> usize {
                0
            }
        }
    };
}

macro_rules! delegate_ivcfv_engine {
    ($ty:ty) => {
        impl QueryEngine for $ty {
            fn name(&self) -> &'static str {
                self.frame.name
            }
            fn category(&self) -> EngineCategory {
                EngineCategory::IvcFv
            }
            fn build(&mut self, db: &Arc<GraphDb>) -> Result<BuildReport, BuildError> {
                self.frame.build_impl(db)
            }
            fn query(&self, q: &Graph) -> QueryOutcome {
                self.frame.query_impl(q)
            }
            fn set_query_budget(&mut self, budget: Option<Duration>) {
                self.frame.inner.query_budget = budget;
            }
            fn set_resource_limits(&mut self, limits: ResourceLimits) {
                self.frame.inner.limits = limits;
            }
            fn set_build_budget(&mut self, budget: BuildBudget) {
                self.frame.build_budget = budget;
            }
            fn index_bytes(&self) -> usize {
                self.frame.index.as_ref().map_or(0, |i| i.heap_bytes())
            }
        }
    };
}

/// Grapes: parallel path-trie index + VF2 (IFV).
pub struct GrapesEngine {
    frame: IfvFrame,
}

impl GrapesEngine {
    /// Grapes with the paper's configuration (paths ≤ 4 vertices, 6 threads).
    pub fn new() -> Self {
        Self::with_config(GrapesConfig::default())
    }

    /// Grapes with a custom configuration.
    pub fn with_config(config: GrapesConfig) -> Self {
        Self { frame: IfvFrame::new("Grapes", IndexKind::Grapes(config), Vf2Verifier::classic()) }
    }

    /// Sets the index-construction budget.
    pub fn set_build_budget(&mut self, budget: BuildBudget) {
        self.frame.set_build_budget(budget);
    }
}

impl Default for GrapesEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_query_engine!(GrapesEngine, EngineCategory::Ifv, frame);

/// GGSX: sorted path dictionary + VF2 (IFV).
pub struct GgsxEngine {
    frame: IfvFrame,
}

impl GgsxEngine {
    /// GGSX with the paper's configuration (paths ≤ 4 vertices).
    pub fn new() -> Self {
        Self::with_max_path_vertices(4)
    }

    /// GGSX with a custom maximum path length.
    pub fn with_max_path_vertices(max_path_vertices: usize) -> Self {
        Self {
            frame: IfvFrame::new(
                "GGSX",
                IndexKind::Ggsx { max_path_vertices },
                Vf2Verifier::classic(),
            ),
        }
    }

    /// Sets the index-construction budget.
    pub fn set_build_budget(&mut self, budget: BuildBudget) {
        self.frame.set_build_budget(budget);
    }
}

impl Default for GgsxEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_query_engine!(GgsxEngine, EngineCategory::Ifv, frame);

/// CT-Index: tree/cycle fingerprints + modified VF2 (IFV).
pub struct CtIndexEngine {
    frame: IfvFrame,
}

impl CtIndexEngine {
    /// CT-Index with the paper's configuration (4096-bit fingerprints,
    /// features ≤ size 4).
    pub fn new() -> Self {
        Self::with_config(CtIndexConfig::default())
    }

    /// CT-Index with a custom configuration.
    pub fn with_config(config: CtIndexConfig) -> Self {
        Self {
            frame: IfvFrame::new("CT-Index", IndexKind::CtIndex(config), Vf2Verifier::ct_index()),
        }
    }

    /// Sets the index-construction budget.
    pub fn set_build_budget(&mut self, budget: BuildBudget) {
        self.frame.set_build_budget(budget);
    }
}

impl Default for CtIndexEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_query_engine!(CtIndexEngine, EngineCategory::Ifv, frame);

/// GraphGrep: hashed path fingerprints + VF2 (IFV) — the oldest
/// enumeration-based index of the paper's Table II, implemented as a
/// related-work extension.
pub struct GraphGrepEngine {
    frame: IfvFrame,
}

impl GraphGrepEngine {
    /// GraphGrep with the default configuration.
    pub fn new() -> Self {
        Self::with_config(GraphGrepConfig::default())
    }

    /// GraphGrep with a custom configuration.
    pub fn with_config(config: GraphGrepConfig) -> Self {
        Self {
            frame: IfvFrame::new("GraphGrep", IndexKind::GraphGrep(config), Vf2Verifier::classic()),
        }
    }

    /// Sets the index-construction budget.
    pub fn set_build_budget(&mut self, budget: BuildBudget) {
        self.frame.set_build_budget(budget);
    }
}

impl Default for GraphGrepEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_query_engine!(GraphGrepEngine, EngineCategory::Ifv, frame);

/// CFL as a vcFV subgraph-query engine.
pub struct CflEngine {
    frame: VcfvFrame,
}

impl CflEngine {
    /// CFL with both refinement passes.
    pub fn new() -> Self {
        Self::with_matcher_config(MatcherConfig::default())
    }

    /// CFL with the given shared matcher configuration.
    pub fn with_matcher_config(config: MatcherConfig) -> Self {
        Self { frame: VcfvFrame::new("CFL", Box::new(Cfl::new().with_matcher_config(config))) }
    }
}

impl Default for CflEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_vcfv_engine!(CflEngine);

/// GraphQL as a vcFV subgraph-query engine.
pub struct GraphQlEngine {
    frame: VcfvFrame,
}

impl GraphQlEngine {
    /// GraphQL with the default pruning depth.
    pub fn new() -> Self {
        Self::with_matcher_config(MatcherConfig::default())
    }

    /// GraphQL with the given shared matcher configuration.
    pub fn with_matcher_config(config: MatcherConfig) -> Self {
        Self {
            frame: VcfvFrame::new("GraphQL", Box::new(GraphQl::new().with_matcher_config(config))),
        }
    }
}

impl Default for GraphQlEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_vcfv_engine!(GraphQlEngine);

/// CFQL (CFL filter + GraphQL enumeration) as a vcFV engine — the paper's
/// headline index-free algorithm.
pub struct CfqlEngine {
    frame: VcfvFrame,
}

impl CfqlEngine {
    /// The default CFQL engine.
    pub fn new() -> Self {
        Self::with_matcher_config(MatcherConfig::default())
    }

    /// CFQL with the given shared matcher configuration.
    pub fn with_matcher_config(config: MatcherConfig) -> Self {
        Self { frame: VcfvFrame::new("CFQL", Box::new(Cfql::new().with_matcher_config(config))) }
    }
}

impl Default for CfqlEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_vcfv_engine!(CfqlEngine);

/// Ullmann as a vcFV engine — a direct-enumeration baseline beyond the
/// paper's lineup (related-work coverage).
pub struct UllmannEngine {
    frame: VcfvFrame,
}

impl UllmannEngine {
    /// The default Ullmann engine.
    pub fn new() -> Self {
        Self::with_matcher_config(MatcherConfig::default())
    }

    /// Ullmann with the given shared matcher configuration.
    pub fn with_matcher_config(config: MatcherConfig) -> Self {
        Self {
            frame: VcfvFrame::new("Ullmann", Box::new(Ullmann::new().with_matcher_config(config))),
        }
    }
}

impl Default for UllmannEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_vcfv_engine!(UllmannEngine);

/// TurboIso as a vcFV engine — candidate-region based filtering and
/// enumeration (related-work extension beyond the paper's lineup).
pub struct TurboIsoEngine {
    frame: VcfvFrame,
}

impl TurboIsoEngine {
    /// The default TurboIso engine.
    pub fn new() -> Self {
        Self::with_matcher_config(MatcherConfig::default())
    }

    /// TurboIso with the given shared matcher configuration.
    pub fn with_matcher_config(config: MatcherConfig) -> Self {
        Self {
            frame: VcfvFrame::new(
                "TurboIso",
                Box::new(TurboIso::new().with_matcher_config(config)),
            ),
        }
    }
}

impl Default for TurboIsoEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_vcfv_engine!(TurboIsoEngine);

/// QuickSI as a vcFV engine — the QI-sequence direct-enumeration baseline
/// (related-work extension beyond the paper's lineup).
pub struct QuickSiEngine {
    frame: VcfvFrame,
}

impl QuickSiEngine {
    /// The default QuickSI engine.
    pub fn new() -> Self {
        Self::with_matcher_config(MatcherConfig::default())
    }

    /// QuickSI with the given shared matcher configuration.
    pub fn with_matcher_config(config: MatcherConfig) -> Self {
        Self {
            frame: VcfvFrame::new("QuickSI", Box::new(QuickSi::new().with_matcher_config(config))),
        }
    }
}

impl Default for QuickSiEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_vcfv_engine!(QuickSiEngine);

/// SPath as a vcFV engine — neighborhood-signature filtering
/// (related-work extension beyond the paper's lineup).
pub struct SPathEngine {
    frame: VcfvFrame,
}

impl SPathEngine {
    /// The default SPath engine (signature radius 2).
    pub fn new() -> Self {
        Self::with_matcher_config(MatcherConfig::default())
    }

    /// SPath with the given shared matcher configuration.
    pub fn with_matcher_config(config: MatcherConfig) -> Self {
        Self { frame: VcfvFrame::new("SPath", Box::new(SPath::new().with_matcher_config(config))) }
    }
}

impl Default for SPathEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_vcfv_engine!(SPathEngine);

/// A vcFV engine over an *arbitrary* matcher — the adapter that lets
/// wrappers like the chaos harness's fault-injecting
/// [`ChaosMatcher`](crate::chaos::ChaosMatcher) run through the standard
/// sequential engine path (and therefore through
/// [`run_query_set`](crate::runner::run_query_set) and
/// [`CachedEngine`](crate::cache::CachedEngine)).
pub struct MatcherEngine {
    frame: VcfvFrame,
}

impl MatcherEngine {
    /// Wraps `matcher` as a named vcFV engine.
    pub fn new(name: &'static str, matcher: Box<dyn Matcher>) -> Self {
        Self { frame: VcfvFrame::new(name, matcher) }
    }
}

delegate_vcfv_engine!(MatcherEngine);

/// vcGrapes: Grapes index filtering + CFQL filtering and enumeration (IvcFV).
pub struct VcGrapesEngine {
    frame: IvcfvFrame,
}

impl VcGrapesEngine {
    /// vcGrapes with the paper's Grapes configuration.
    pub fn new() -> Self {
        Self::with_config(GrapesConfig::default())
    }

    /// vcGrapes with a custom Grapes configuration.
    pub fn with_config(config: GrapesConfig) -> Self {
        Self {
            frame: IvcfvFrame::new("vcGrapes", IndexKind::Grapes(config), Box::new(Cfql::new())),
        }
    }

    /// vcGrapes (default index configuration) with the given shared matcher
    /// configuration for the CFQL stage.
    pub fn with_matcher_config(config: MatcherConfig) -> Self {
        Self {
            frame: IvcfvFrame::new(
                "vcGrapes",
                IndexKind::Grapes(GrapesConfig::default()),
                Box::new(Cfql::new().with_matcher_config(config)),
            ),
        }
    }

    /// Sets the index-construction budget.
    pub fn set_build_budget(&mut self, budget: BuildBudget) {
        self.frame.set_build_budget(budget);
    }
}

impl Default for VcGrapesEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_ivcfv_engine!(VcGrapesEngine);

/// vcGGSX: GGSX index filtering + CFQL filtering and enumeration (IvcFV).
pub struct VcGgsxEngine {
    frame: IvcfvFrame,
}

impl VcGgsxEngine {
    /// vcGGSX with the paper's GGSX configuration.
    pub fn new() -> Self {
        Self::with_matcher_config(MatcherConfig::default())
    }

    /// vcGGSX with the given shared matcher configuration for the CFQL stage.
    pub fn with_matcher_config(config: MatcherConfig) -> Self {
        Self {
            frame: IvcfvFrame::new(
                "vcGGSX",
                IndexKind::Ggsx { max_path_vertices: 4 },
                Box::new(Cfql::new().with_matcher_config(config)),
            ),
        }
    }

    /// Sets the index-construction budget.
    pub fn set_build_budget(&mut self, budget: BuildBudget) {
        self.frame.set_build_budget(budget);
    }
}

impl Default for VcGgsxEngine {
    fn default() -> Self {
        Self::new()
    }
}

delegate_ivcfv_engine!(VcGgsxEngine);

// ---------------------------------------------------------------------------
// Parallel vcFV engine
// ---------------------------------------------------------------------------

/// A vcFV engine that runs its matcher over the database on a persistent
/// [`QueryPool`](crate::parallel::QueryPool) instead of a single thread.
///
/// Answers are identical to the corresponding sequential vcFV engine
/// (invariant I4); `filter_time`/`verify_time` are summed worker CPU times,
/// so on a multi-core machine they can exceed the query's wall-clock
/// latency. See `DESIGN.md` §2.4 for the timing semantics.
pub struct ParallelEngine {
    name: &'static str,
    matcher: Arc<dyn Matcher>,
    pool: crate::parallel::QueryPool,
    query_budget: Option<Duration>,
    limits: ResourceLimits,
    guard: ResourceGuard,
    db: Option<Arc<GraphDb>>,
}

impl ParallelEngine {
    /// Wraps `matcher` in a pool of `threads` persistent workers.
    pub fn new(name: &'static str, matcher: Arc<dyn Matcher>, threads: usize) -> Self {
        Self {
            name,
            matcher,
            pool: crate::parallel::QueryPool::new(threads),
            query_budget: None,
            limits: ResourceLimits::unlimited(),
            guard: ResourceGuard::new(),
            db: None,
        }
    }

    /// CFQL on a pool of `threads` workers — the parallel flagship.
    pub fn cfql(threads: usize) -> Self {
        Self::new("CFQL-par", Arc::new(Cfql::new()), threads)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The parallel outcome (with wall time) for one query; [`query`]
    /// (QueryEngine::query) is this minus the wall-clock wrapper.
    pub fn query_parallel(&self, q: &Graph) -> crate::parallel::ParallelOutcome {
        let db = match &self.db {
            Some(db) => db,
            // Documented precondition (QueryEngine::query): build first.
            None => panic!("query before build"),
        };
        self.guard.reset(self.limits);
        let deadline =
            self.query_budget.map_or(Deadline::none(), Deadline::after).with_guard(self.guard);
        self.pool.query(Arc::clone(&self.matcher), db, q, deadline)
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
        self.query_parallel(q).outcome
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

// ---------------------------------------------------------------------------
// Service-backed vcFV engine
// ---------------------------------------------------------------------------

/// A vcFV engine whose queries flow through the admission-controlled
/// [`QueryService`](crate::service::QueryService): every
/// [`query`](QueryEngine::query) is a submit-and-wait on the serving layer,
/// so admission control, per-graph circuit breakers, and drain semantics all
/// apply — a query can come back [`Shed`](crate::engine::QueryStatus::Shed)
/// or carry [`Quarantined`](crate::engine::QueryStatus::Quarantined) graph
/// failures where a bare [`ParallelEngine`] would have run it unconditionally.
///
/// The service (and its worker threads) is created by
/// [`build`](QueryEngine::build) and replaced on rebuild; dropping the
/// engine drains it with a zero deadline.
pub struct ServiceEngine {
    name: &'static str,
    matcher: Arc<dyn Matcher>,
    config: crate::service::ServiceConfig,
    service: Option<crate::service::QueryService>,
}

impl ServiceEngine {
    /// Wraps `matcher` behind a [`QueryService`](crate::service::QueryService)
    /// with the given configuration.
    pub fn new(
        name: &'static str,
        matcher: Arc<dyn Matcher>,
        config: crate::service::ServiceConfig,
    ) -> Self {
        Self { name, matcher, config, service: None }
    }

    /// CFQL behind a service with `threads` pool workers and otherwise
    /// default serving policy.
    pub fn cfql(threads: usize) -> Self {
        let config = crate::service::ServiceConfig { threads, ..Default::default() };
        Self::new("CFQL-svc", Arc::new(Cfql::new()), config)
    }

    /// The underlying service, if [`build`](QueryEngine::build) has run.
    pub fn service(&self) -> Option<&crate::service::QueryService> {
        self.service.as_ref()
    }

    /// Drains the service (stops admissions, waits out in-flight work, then
    /// cancels) and returns the drain report. The engine reverts to its
    /// pre-`build` state; a later `build` starts a fresh service.
    pub fn shutdown(&mut self) -> Option<crate::service::DrainReport> {
        self.service.take().map(crate::service::QueryService::shutdown)
    }

    /// Current serving health, if built.
    pub fn health(&self) -> Option<crate::metrics::ServiceHealth> {
        self.service.as_ref().map(crate::service::QueryService::health)
    }
}

impl QueryEngine for ServiceEngine {
    fn name(&self) -> &'static str {
        self.name
    }
    fn category(&self) -> EngineCategory {
        EngineCategory::VcFv
    }
    fn build(&mut self, db: &Arc<GraphDb>) -> Result<BuildReport, BuildError> {
        // Replacing the service drains the old one (Drop drains with a zero
        // deadline), so rebuilds never leak worker threads.
        self.service = Some(crate::service::QueryService::new(
            Arc::clone(&self.matcher),
            Arc::clone(db),
            self.config.clone(),
        ));
        Ok(BuildReport::default())
    }
    fn query(&self, q: &Graph) -> QueryOutcome {
        let service = match &self.service {
            Some(s) => s,
            // Documented precondition (QueryEngine::query): build first.
            None => panic!("query before build"),
        };
        let (ticket, _admission) = service.submit(q);
        ticket.wait().0
    }
    fn set_query_budget(&mut self, budget: Option<Duration>) {
        self.config.runner.query_budget = budget;
        if let Some(service) = &self.service {
            let mut runner = service.runner_config();
            runner.query_budget = budget;
            service.set_runner_config(runner);
        }
    }
    fn set_resource_limits(&mut self, limits: ResourceLimits) {
        self.config.runner.limits = limits;
        if let Some(service) = &self.service {
            let mut runner = service.runner_config();
            runner.limits = limits;
            service.set_runner_config(runner);
        }
    }
    fn index_bytes(&self) -> usize {
        0
    }
}

/// Looks a bare matcher up by its (case-insensitive) name, e.g. `"cfql"`,
/// `"graphql"` — the matchers usable inside [`ParallelEngine`] and
/// [`QueryPool`](crate::parallel::QueryPool).
pub fn matcher_by_name(name: &str) -> Option<Arc<dyn Matcher>> {
    matcher_by_name_with(name, MatcherConfig::default())
}

/// [`matcher_by_name`] with a shared matcher configuration (enumeration
/// kernel) applied to the resolved matcher.
pub fn matcher_by_name_with(name: &str, config: MatcherConfig) -> Option<Arc<dyn Matcher>> {
    let m: Arc<dyn Matcher> = match name.to_ascii_lowercase().as_str() {
        "cfql" => Arc::new(Cfql::new().with_matcher_config(config)),
        "cfl" => Arc::new(Cfl::new().with_matcher_config(config)),
        "graphql" => Arc::new(GraphQl::new().with_matcher_config(config)),
        "ullmann" => Arc::new(Ullmann::new().with_matcher_config(config)),
        "quicksi" => Arc::new(QuickSi::new().with_matcher_config(config)),
        "turboiso" => Arc::new(TurboIso::new().with_matcher_config(config)),
        "spath" => Arc::new(SPath::new().with_matcher_config(config)),
        _ => return None,
    };
    Some(m)
}

/// All eight paper engines with default configurations, in Table III order.
pub fn paper_engines() -> Vec<Box<dyn QueryEngine>> {
    paper_engines_with(MatcherConfig::default())
}

/// [`paper_engines`] with a shared matcher configuration applied to every
/// engine that enumerates through the shared [`Enumerator`]
/// (sqp_matching::Enumerator); the VF2-based IFV engines ignore it.
pub fn paper_engines_with(config: MatcherConfig) -> Vec<Box<dyn QueryEngine>> {
    vec![
        Box::new(CtIndexEngine::new()),
        Box::new(GrapesEngine::new()),
        Box::new(GgsxEngine::new()),
        Box::new(CflEngine::with_matcher_config(config)),
        Box::new(GraphQlEngine::with_matcher_config(config)),
        Box::new(CfqlEngine::with_matcher_config(config)),
        Box::new(VcGrapesEngine::with_matcher_config(config)),
        Box::new(VcGgsxEngine::with_matcher_config(config)),
    ]
}

/// The paper engines plus the related-work baselines implemented beyond the
/// paper's lineup (Ullmann, QuickSI, TurboIso).
pub fn all_engines() -> Vec<Box<dyn QueryEngine>> {
    all_engines_with(MatcherConfig::default())
}

/// [`all_engines`] with a shared matcher configuration (see
/// [`paper_engines_with`]).
pub fn all_engines_with(config: MatcherConfig) -> Vec<Box<dyn QueryEngine>> {
    let mut v = paper_engines_with(config);
    v.push(Box::new(UllmannEngine::with_matcher_config(config)));
    v.push(Box::new(QuickSiEngine::with_matcher_config(config)));
    v.push(Box::new(TurboIsoEngine::with_matcher_config(config)));
    v.push(Box::new(SPathEngine::with_matcher_config(config)));
    v.push(Box::new(GraphGrepEngine::new()));
    v
}

/// Looks an engine up by its (case-insensitive) paper name, e.g. `"cfql"`,
/// `"vcgrapes"`, `"ct-index"`.
pub fn engine_by_name(name: &str) -> Option<Box<dyn QueryEngine>> {
    engine_by_name_with(name, MatcherConfig::default())
}

/// [`engine_by_name`] with a shared matcher configuration (see
/// [`paper_engines_with`]).
pub fn engine_by_name_with(name: &str, config: MatcherConfig) -> Option<Box<dyn QueryEngine>> {
    let lower = name.to_ascii_lowercase();
    if lower == "adaptive" {
        // The routing meta-engine lives outside the fixed lineup: it is not
        // one of the paper's engines, so `all_engines` (and the comparisons
        // built on it) never enumerate it.
        return Some(Box::new(crate::adaptive::AdaptiveEngine::with_matcher_config(config)));
    }
    all_engines_with(config).into_iter().find(|e| e.name().to_ascii_lowercase() == lower)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::database::GraphId;
    use sqp_graph::{GraphBuilder, Label, VertexId};

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

    #[test]
    fn all_engines_agree_on_answers() {
        let db = small_db();
        let q_edge = labeled(&[0, 1], &[(0, 1)]);
        let q_tri = labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let mut engines = paper_engines();
        engines.push(Box::new(UllmannEngine::new()));
        for e in engines.iter_mut() {
            e.build(&db).unwrap();
            let a = e.query(&q_edge).answers;
            assert_eq!(a, vec![GraphId(0), GraphId(1)], "engine {}", e.name());
            let a = e.query(&q_tri).answers;
            assert_eq!(a, vec![GraphId(0)], "engine {}", e.name());
        }
    }

    #[test]
    fn service_engine_matches_sequential_answers() {
        let db = small_db();
        let q_edge = labeled(&[0, 1], &[(0, 1)]);
        let q_tri = labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let mut e = ServiceEngine::cfql(2);
        e.build(&db).unwrap();
        assert_eq!(e.query(&q_edge).answers, vec![GraphId(0), GraphId(1)]);
        assert_eq!(e.query(&q_tri).answers, vec![GraphId(0)]);
        let health = e.health().unwrap();
        assert_eq!(health.admitted, 2);
        assert_eq!(health.finished, 2);
        let report = e.shutdown().unwrap();
        assert!(report.drained_within_deadline);
        assert!(e.service().is_none());
    }

    #[test]
    fn service_engine_budget_reaches_the_running_service() {
        let db = small_db();
        let mut e = ServiceEngine::cfql(1);
        e.build(&db).unwrap();
        e.set_query_budget(Some(Duration::from_secs(7)));
        let svc = e.service().unwrap();
        assert_eq!(svc.runner_config().query_budget, Some(Duration::from_secs(7)));
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
    fn ifv_reports_index_bytes() {
        let db = small_db();
        let mut e = GrapesEngine::new();
        let report = e.build(&db).unwrap();
        assert!(report.index_bytes > 0);
        assert_eq!(e.index_bytes(), report.index_bytes);
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
        for e in all_engines() {
            let found = engine_by_name(e.name()).expect("registered");
            assert_eq!(found.name(), e.name());
            // Case-insensitive lookup.
            let found = engine_by_name(&e.name().to_ascii_uppercase()).expect("case-insensitive");
            assert_eq!(found.name(), e.name());
        }
        assert!(engine_by_name("no-such-engine").is_none());
    }

    #[test]
    fn paper_engines_are_table_iii() {
        let names: Vec<&str> = paper_engines().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            ["CT-Index", "Grapes", "GGSX", "CFL", "GraphQL", "CFQL", "vcGrapes", "vcGGSX"]
        );
        assert_eq!(all_engines().len(), 13);
    }

    #[test]
    fn parallel_engine_matches_sequential() {
        let db = small_db();
        let mut seq = CfqlEngine::new();
        let mut par = ParallelEngine::cfql(4);
        seq.build(&db).unwrap();
        par.build(&db).unwrap();
        for q in [
            labeled(&[0, 1], &[(0, 1)]),
            labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            labeled(&[3, 3], &[(0, 1)]),
        ] {
            let a = seq.query(&q);
            let b = par.query(&q);
            assert_eq!(a.answers, b.answers);
            assert_eq!(a.candidates, b.candidates);
        }
        let po = par.query_parallel(&labeled(&[0, 1], &[(0, 1)]));
        assert_eq!(po.threads, 4);
    }

    #[test]
    fn matcher_registry_resolves_known_names() {
        for name in ["CFQL", "cfl", "GraphQL", "ullmann", "quicksi", "turboiso", "spath"] {
            assert!(matcher_by_name(name).is_some(), "{name}");
        }
        assert!(matcher_by_name("vf2-nope").is_none());
    }

    #[test]
    fn categories_are_correct() {
        assert_eq!(GrapesEngine::new().category(), EngineCategory::Ifv);
        assert_eq!(CfqlEngine::new().category(), EngineCategory::VcFv);
        assert_eq!(VcGgsxEngine::new().category(), EngineCategory::IvcFv);
    }
}
