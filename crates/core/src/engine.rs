//! The [`QueryEngine`] abstraction shared by all eight competing algorithms,
//! plus the structured per-query failure taxonomy ([`QueryStatus`]).

use std::sync::Arc;
use std::time::Duration;

use sqp_graph::database::GraphId;
use sqp_graph::{Graph, GraphDb};
use sqp_index::{BuildBudget, BuildError};
use sqp_matching::{Deadline, KernelStats, PhaseStats, ResourceKind, ResourceLimits};

/// The paper's three algorithm categories (Table III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineCategory {
    /// Indexing-filtering-verification (Algorithm 1).
    Ifv,
    /// Vertex-connectivity-based filtering-verification (Algorithm 2).
    VcFv,
    /// Index + vertex-connectivity filtering (two-level).
    IvcFv,
}

impl std::fmt::Display for EngineCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineCategory::Ifv => write!(f, "IFV"),
            EngineCategory::VcFv => write!(f, "vcFV"),
            EngineCategory::IvcFv => write!(f, "IvcFV"),
        }
    }
}

/// Result of the indexing step.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildReport {
    /// Wall time of index construction (zero for index-free engines).
    pub build_time: Duration,
    /// Heap bytes held by the index (zero for index-free engines).
    pub index_bytes: usize,
}

/// How one query ended: the structured failure taxonomy.
///
/// Ordered by severity — [`absorb`](QueryStatus::absorb) keeps the most
/// severe status when per-graph failures are merged into one outcome:
/// `Completed < TimedOut < ResourceExhausted < Quarantined < Panicked <
/// Wedged < Unavailable < Shed`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum QueryStatus {
    /// The query ran to completion; `answers` is the exact answer set.
    #[default]
    Completed,
    /// The per-query time budget expired (recorded at the limit, as in the
    /// paper). Answers gathered so far are sound but possibly incomplete.
    TimedOut,
    /// A per-query resource budget tripped before the wall clock did.
    /// Answers gathered so far are sound but possibly incomplete.
    ResourceExhausted {
        /// Which budget tripped.
        kind: ResourceKind,
    },
    /// At least one data graph was skipped because its circuit breaker was
    /// open (quarantined by the serving layer after repeated faults). As a
    /// per-graph failure it records the short-circuited graph; as an
    /// outcome-level status it means every answer from a live graph is
    /// present but the quarantined graphs were never consulted.
    Quarantined,
    /// Matching panicked on at least one (query, graph) pair. Answers from
    /// non-panicking graphs are preserved; the panicking pairs are listed in
    /// [`QueryOutcome::failures`].
    Panicked {
        /// The panic payload (downcast to a string where possible).
        message: String,
    },
    /// The supervisor escalated a worker that stopped ticking its deadline
    /// (stale heartbeat past `deadline + grace`): cooperative cancellation
    /// could never reach it, so the worker thread was abandoned and
    /// replaced. Answers gathered by other workers of the query are
    /// preserved; the wedged (query, graph) pair is listed in
    /// [`QueryOutcome::failures`].
    Wedged,
    /// The shard holding this graph could not be reached (dead, over
    /// budget, or returning garbage) after retries, so the graph was never
    /// consulted for this query. Answers from reachable shards are
    /// preserved; the unreachable graphs are listed in
    /// [`QueryOutcome::failures`] — a partial result, never a silent drop.
    /// Like [`Wedged`](QueryStatus::Wedged), unavailability is
    /// breaker-charging (it opens the *peer's* breaker in the coordinator)
    /// and censored from latency histograms (the query never ran there).
    Unavailable,
    /// The query was rejected by admission control (queue full, predicted
    /// deadline miss, or service draining) and never executed. A shed query
    /// produces no answers and no per-graph work at all, but still receives
    /// this terminal status — shedding is never a silent drop.
    Shed,
}

impl QueryStatus {
    /// The stable lower-case name of every status, in severity order: the
    /// `status` label values of the Prometheus exposition and the status
    /// field of journal lines.
    pub const LABELS: [&'static str; 8] = [
        "completed",
        "timed_out",
        "resource_exhausted",
        "quarantined",
        "panicked",
        "wedged",
        "unavailable",
        "shed",
    ];

    /// This status's entry in [`LABELS`](QueryStatus::LABELS).
    pub fn label(&self) -> &'static str {
        Self::LABELS[usize::from(self.severity())]
    }

    /// Severity rank used by [`absorb`](QueryStatus::absorb).
    fn severity(&self) -> u8 {
        match self {
            QueryStatus::Completed => 0,
            QueryStatus::TimedOut => 1,
            QueryStatus::ResourceExhausted { .. } => 2,
            QueryStatus::Quarantined => 3,
            QueryStatus::Panicked { .. } => 4,
            QueryStatus::Wedged => 5,
            QueryStatus::Unavailable => 6,
            QueryStatus::Shed => 7,
        }
    }

    /// Whether the query ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, QueryStatus::Completed)
    }

    /// Whether the query timed out (wall clock only — resource exhaustion
    /// and panics are *not* timeouts).
    pub fn is_timed_out(&self) -> bool {
        matches!(self, QueryStatus::TimedOut)
    }

    /// Whether matching panicked.
    pub fn is_panicked(&self) -> bool {
        matches!(self, QueryStatus::Panicked { .. })
    }

    /// Whether a resource budget tripped.
    pub fn is_exhausted(&self) -> bool {
        matches!(self, QueryStatus::ResourceExhausted { .. })
    }

    /// Whether at least one graph was short-circuited by an open breaker.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, QueryStatus::Quarantined)
    }

    /// Whether the query was rejected by admission control without running.
    pub fn is_shed(&self) -> bool {
        matches!(self, QueryStatus::Shed)
    }

    /// Whether the supervisor abandoned a wedged worker on this query.
    pub fn is_wedged(&self) -> bool {
        matches!(self, QueryStatus::Wedged)
    }

    /// Whether the shard holding this graph was unreachable for this query.
    pub fn is_unavailable(&self) -> bool {
        matches!(self, QueryStatus::Unavailable)
    }

    /// Whether this per-graph status counts as a breaker-relevant fault
    /// (panics, resource exhaustion, wedged workers, and unreachable
    /// shards — the failure modes a sick graph or peer inflicts on the
    /// service, as opposed to a query-wide timeout).
    pub fn is_breaker_fault(&self) -> bool {
        self.is_panicked() || self.is_exhausted() || self.is_wedged() || self.is_unavailable()
    }

    /// Merges `other` in: replaces `self` when `other` is strictly more
    /// severe. Equal-severity statuses keep the first observed (`self`).
    pub fn absorb(&mut self, other: QueryStatus) {
        if other.severity() > self.severity() {
            *self = other;
        }
    }

    /// Classifies an interrupted (Err([`Timeout`](sqp_matching::Timeout)))
    /// matcher call: a tripped [`ResourceGuard`](sqp_matching::ResourceGuard)
    /// on the deadline means resource exhaustion, otherwise the wall clock
    /// (or a sibling's cancellation) expired.
    pub fn from_interrupt(deadline: Deadline) -> Self {
        match deadline.guard().tripped() {
            Some(kind) => QueryStatus::ResourceExhausted { kind },
            None => QueryStatus::TimedOut,
        }
    }
}

impl std::fmt::Display for QueryStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryStatus::Completed => write!(f, "completed"),
            QueryStatus::TimedOut => write!(f, "timed out"),
            QueryStatus::ResourceExhausted { kind } => write!(f, "exhausted {kind}"),
            QueryStatus::Quarantined => write!(f, "quarantined"),
            QueryStatus::Panicked { message } => write!(f, "panicked: {message}"),
            QueryStatus::Wedged => write!(f, "wedged"),
            QueryStatus::Unavailable => write!(f, "unavailable"),
            QueryStatus::Shed => write!(f, "shed"),
        }
    }
}

/// One failed (query, graph) pair inside a [`QueryOutcome`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphFailure {
    /// The data graph on which the failure was observed.
    pub graph: GraphId,
    /// What happened there.
    pub status: QueryStatus,
}

/// Result of processing one query.
#[derive(Clone, Debug, Default)]
pub struct QueryOutcome {
    /// The answer set `A(q)`: ids of data graphs containing `q`.
    pub answers: Vec<GraphId>,
    /// `|C(q)|`: data graphs that survived filtering (and were therefore
    /// subjected to a subgraph isomorphism test).
    pub candidates: usize,
    /// Time in the filtering step. For vcFV/IvcFV this includes candidate
    /// vertex set construction (§IV-A, *Filtering Time*).
    pub filter_time: Duration,
    /// Time in the verification step.
    pub verify_time: Duration,
    /// How the query ended (most severe per-graph failure; see
    /// [`finalize`](QueryOutcome::finalize)).
    pub status: QueryStatus,
    /// Per-graph failure attribution, sorted by graph id after
    /// [`finalize`](QueryOutcome::finalize).
    pub failures: Vec<GraphFailure>,
    /// Peak heap bytes of per-query auxiliary structures (candidate vertex
    /// sets / CPI) — the vcFV column of Tables VII and IX.
    pub aux_bytes: usize,
    /// Enumeration-kernel counters accumulated across every matcher call of
    /// this query (all zeros for engines that never enter the shared
    /// enumerator, e.g. the VF2-based IFV engines).
    pub kernel: KernelStats,
    /// Per-phase span durations and item counts accumulated across every
    /// graph and worker of this query (see `sqp_matching::obs`). Durations
    /// are nanoseconds under the production clock; all zeros when no stats
    /// sink was attached.
    pub phases: PhaseStats,
}

impl QueryOutcome {
    /// An outcome representing a query that panicked before producing any
    /// partial results (e.g. the sequential runner caught the unwind).
    pub fn panicked(message: String) -> Self {
        Self { status: QueryStatus::Panicked { message }, ..Default::default() }
    }

    /// An outcome for a query rejected by admission control: no answers, no
    /// per-graph records, terminal status [`QueryStatus::Shed`].
    pub fn shed() -> Self {
        Self { status: QueryStatus::Shed, ..Default::default() }
    }

    /// Total query time (filtering + verification).
    pub fn query_time(&self) -> Duration {
        self.filter_time + self.verify_time
    }

    /// Whether the per-query wall-clock budget expired (back-compat helper;
    /// resource exhaustion and panics are *not* timeouts).
    pub fn timed_out(&self) -> bool {
        self.status.is_timed_out()
    }

    /// Whether the query ended in any non-[`Completed`](QueryStatus::Completed)
    /// state.
    pub fn failed(&self) -> bool {
        !self.status.is_completed()
    }

    /// Records a panic on one (query, graph) pair. The outcome-level status
    /// materializes in [`finalize`](QueryOutcome::finalize) so that merge
    /// order (thread count) cannot influence which message wins.
    pub fn record_panic(&mut self, graph: GraphId, message: String) {
        self.failures.push(GraphFailure { graph, status: QueryStatus::Panicked { message } });
    }

    /// Records a graph short-circuited by an open circuit breaker: the
    /// matcher is never consulted for it, and the outcome-level status
    /// materializes in [`finalize`](QueryOutcome::finalize) like every other
    /// per-graph failure.
    pub fn record_quarantined(&mut self, graph: GraphId) {
        self.failures.push(GraphFailure { graph, status: QueryStatus::Quarantined });
    }

    /// Records a wedged worker abandoned on `graph`: the supervisor
    /// escalated a stale heartbeat, so this (query, graph) pair never
    /// produced a result and its worker thread is gone.
    pub fn record_wedged(&mut self, graph: GraphId) {
        self.failures.push(GraphFailure { graph, status: QueryStatus::Wedged });
    }

    /// Records a graph whose shard was unreachable (dead, over budget, or
    /// corrupting) for this query: the graph was never consulted, and the
    /// outcome-level status materializes in
    /// [`finalize`](QueryOutcome::finalize) like every other per-graph
    /// failure.
    pub fn record_unavailable(&mut self, graph: GraphId) {
        self.failures.push(GraphFailure { graph, status: QueryStatus::Unavailable });
    }

    /// Records an interrupted matcher call (timeout or resource exhaustion,
    /// classified from the deadline) observed on `graph`.
    pub fn record_interrupt(&mut self, graph: GraphId, deadline: Deadline) {
        let status = QueryStatus::from_interrupt(deadline);
        self.failures.push(GraphFailure { graph, status: status.clone() });
        self.status.absorb(status);
    }

    /// Deterministically folds per-graph failures into the outcome-level
    /// status: failures are sorted by graph id and absorbed in order, so the
    /// lowest-id graph with the most severe failure supplies the status (and
    /// panic message) regardless of worker interleaving or thread count.
    pub fn finalize(&mut self) {
        self.failures.sort_by_key(|f| f.graph);
        self.failures.dedup();
        for f in &self.failures {
            self.status.absorb(f.status.clone());
        }
    }
}

/// A subgraph query processing engine.
///
/// Lifecycle: construct with algorithm-specific configuration, [`build`]
/// once per database, then [`query`] any number of times.
///
/// [`build`]: QueryEngine::build
/// [`query`]: QueryEngine::query
pub trait QueryEngine: Send {
    /// Engine name as used in the paper's figures (e.g. `"CFQL"`).
    fn name(&self) -> &'static str;

    /// Which of the three categories the engine belongs to.
    fn category(&self) -> EngineCategory;

    /// Indexing step. Index-free (vcFV) engines only record the database.
    /// Errors surface the paper's OOT/OOM outcomes.
    fn build(&mut self, db: &Arc<GraphDb>) -> Result<BuildReport, BuildError>;

    /// Processes one query within the configured per-query budget.
    ///
    /// # Panics
    /// Panics if called before a successful [`build`](QueryEngine::build).
    fn query(&self, q: &Graph) -> QueryOutcome;

    /// Sets the per-query time budget (default: none).
    fn set_query_budget(&mut self, budget: Option<Duration>);

    /// Sets the per-query resource budgets (enumeration steps, auxiliary
    /// bytes). Default: unlimited; engines that do not enforce budgets may
    /// ignore this.
    fn set_resource_limits(&mut self, limits: ResourceLimits) {
        let _ = limits;
    }

    /// Sets the index-construction budget (the paper's 24 h / 64 GB limits).
    /// No-op for index-free (vcFV) engines.
    fn set_build_budget(&mut self, budget: BuildBudget) {
        let _ = budget;
    }

    /// Heap bytes held by the index (0 for vcFV engines).
    fn index_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_display() {
        assert_eq!(EngineCategory::Ifv.to_string(), "IFV");
        assert_eq!(EngineCategory::VcFv.to_string(), "vcFV");
        assert_eq!(EngineCategory::IvcFv.to_string(), "IvcFV");
    }

    #[test]
    fn outcome_query_time_sums() {
        let o = QueryOutcome {
            filter_time: Duration::from_millis(3),
            verify_time: Duration::from_millis(4),
            ..Default::default()
        };
        assert_eq!(o.query_time(), Duration::from_millis(7));
    }

    #[test]
    fn status_severity_ordering() {
        let mut s = QueryStatus::Completed;
        s.absorb(QueryStatus::TimedOut);
        assert_eq!(s, QueryStatus::TimedOut);
        s.absorb(QueryStatus::Completed);
        assert_eq!(s, QueryStatus::TimedOut);
        s.absorb(QueryStatus::ResourceExhausted { kind: ResourceKind::Steps });
        assert!(s.is_exhausted());
        s.absorb(QueryStatus::Panicked { message: "boom".into() });
        assert!(s.is_panicked());
        // Equal severity keeps the first observed.
        s.absorb(QueryStatus::Panicked { message: "later".into() });
        assert_eq!(s, QueryStatus::Panicked { message: "boom".into() });
        s.absorb(QueryStatus::Wedged);
        assert!(s.is_wedged());
        s.absorb(QueryStatus::Unavailable);
        assert!(s.is_unavailable());
        s.absorb(QueryStatus::Shed);
        assert_eq!(s, QueryStatus::Shed);
    }

    #[test]
    fn unavailable_is_a_breaker_fault() {
        assert!(QueryStatus::Unavailable.is_breaker_fault());
        let mut o = QueryOutcome::default();
        o.record_unavailable(GraphId(7));
        o.record_unavailable(GraphId(2));
        o.finalize();
        assert_eq!(o.status, QueryStatus::Unavailable);
        assert_eq!(o.failures[0].graph, GraphId(2));
        assert_eq!(o.failures[1].graph, GraphId(7));
    }

    #[test]
    fn wedged_is_a_breaker_fault() {
        assert!(QueryStatus::Wedged.is_breaker_fault());
        assert!(!QueryStatus::TimedOut.is_breaker_fault());
        let mut o = QueryOutcome::default();
        o.record_wedged(GraphId(3));
        o.finalize();
        assert_eq!(o.status, QueryStatus::Wedged);
        assert_eq!(o.failures[0].graph, GraphId(3));
    }

    #[test]
    fn finalize_is_order_independent() {
        let failures =
            [(GraphId(7), "late panic"), (GraphId(2), "early panic"), (GraphId(5), "middle panic")];
        // Any insertion order must yield the same status and failure list.
        let mut outcomes: Vec<QueryOutcome> = Vec::new();
        for rotation in 0..failures.len() {
            let mut o = QueryOutcome::default();
            for i in 0..failures.len() {
                let (gid, msg) = failures[(rotation + i) % failures.len()];
                o.record_panic(gid, msg.to_string());
            }
            o.finalize();
            outcomes.push(o);
        }
        for o in &outcomes {
            assert_eq!(o.status, QueryStatus::Panicked { message: "early panic".into() });
            assert_eq!(o.failures.len(), 3);
            assert_eq!(o.failures[0].graph, GraphId(2));
            assert_eq!(o.failures[2].graph, GraphId(7));
        }
    }

    #[test]
    fn interrupt_classification_prefers_guard() {
        use sqp_matching::{ResourceGuard, ResourceLimits};
        let d = Deadline::none();
        assert_eq!(QueryStatus::from_interrupt(d), QueryStatus::TimedOut);
        let guard = ResourceGuard::new();
        guard.reset(ResourceLimits::unlimited().with_max_steps(1));
        guard.charge_steps(2);
        let d = Deadline::none().with_guard(guard);
        assert_eq!(
            QueryStatus::from_interrupt(d),
            QueryStatus::ResourceExhausted { kind: ResourceKind::Steps }
        );
    }
}
