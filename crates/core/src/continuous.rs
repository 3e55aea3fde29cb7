//! Continuous queries over a mutable graph: standing queries whose
//! embedding sets are incrementally *repaired* per update batch.
//!
//! A [`ContinuousMatcher`] owns one [`DynamicGraph`] and a set of registered
//! standing queries, each with its materialized embedding set. Applying an
//! update batch runs the repair step per query instead of a full re-query:
//!
//! 1. **Invalidation.** A stored embedding can only break if one of its
//!    images died or lost an edge in the batch (both endpoints of a removed
//!    edge, and a removed vertex with its ex-neighbors, are in the batch's
//!    *lost* bitmap). Embeddings disjoint from it are kept without any work
//!    — additions never invalidate — and intersecting ones are re-verified
//!    against the post-batch overlay.
//! 2. **Addition.** Any embedding that is new after the batch must map some
//!    query edge onto an edge added by the batch, or some query vertex onto
//!    a vertex added by the batch. The batch's surviving additions are
//!    sorted by endpoint label pair once, for all standing queries; each
//!    query keeps, from registration, its directed edges sorted the same
//!    way, so repair visits only the (query edge, added edge) pairs whose
//!    labels agree and seeds
//!    [`SeededEnumerator`](sqp_matching::dynmatch::SeededEnumerator) with
//!    each. The seeded enumerations cover a superset of the additions;
//!    deduplication against the stored set leaves exactly the new ones.
//!
//! The result of a batch is a delta stream ([`RepairDelta`] per standing
//! query) plus the repaired sets, which invariant **I10** (DESIGN.md §11)
//! pins to full recomputation: `repaired ≡ enumerate_overlay(q, g)` after
//! every batch, at every thread count. Repair parallelism is slot-indexed
//! (queries are distributed to workers by an atomic cursor but results land
//! in their query's slot), so output is byte-identical at 1/2/4/8 threads.
//!
//! [`ContinuousService`] wraps the matcher in a `RwLock` for interleaved
//! update/query traffic with snapshot-consistent reads, and exports the
//! update/compaction/repair counters rendered by
//! [`exposition::render_continuous`](crate::exposition::render_continuous).
//! [`DynamicDb`] applies the same discipline to a whole database with an
//! incrementally-maintained fingerprint (IFV) index.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use sqp_graph::database::GraphId;
use sqp_graph::{
    BatchEffects, CompactionPolicy, DynamicGraph, Graph, GraphDb, GraphError, Label, LabelInterner,
    Update, UpdateEffect, VertexId,
};
use sqp_index::budget::{BuildBudget, BuildError};
use sqp_index::fingerprint::FingerprintIndex;
use sqp_index::{CandidateGraphs, GraphIndex};
use sqp_matching::deadline::TickChecker;
use sqp_matching::dynmatch::{enumerate_overlay, SeededEnumerator};
use sqp_matching::{Deadline, Embedding, Timeout};

/// A registered standing query with its maintained embedding set.
#[derive(Clone, Debug)]
pub struct StandingQuery {
    /// Registration id, unique within the matcher.
    pub id: u64,
    /// The query graph.
    pub query: Graph,
    /// Current embeddings, sorted lexicographically by mapping.
    embeddings: Vec<Embedding>,
    /// The query's directed edges `(u, w)` as `(L(u), L(w), u, w)`, sorted:
    /// the side of the repair join that is fixed at registration.
    seed_edges: Vec<LabelPairEdge>,
}

/// An edge keyed by its endpoints' labels, in the order given.
type LabelPairEdge = (Label, Label, VertexId, VertexId);

impl StandingQuery {
    /// The maintained embedding set (sorted lexicographically by mapping).
    pub fn embeddings(&self) -> &[Embedding] {
        &self.embeddings
    }
}

/// Additions and invalidations of one standing query under one batch — the
/// unit of the delta stream. Vertex ids are those the batch was applied in:
/// if the batch also compacted, map them through
/// [`BatchReport::id_remap`] to reach the ids the standing sets now use.
#[derive(Clone, Debug)]
pub struct RepairDelta {
    /// The standing query this delta belongs to.
    pub query_id: u64,
    /// Embeddings that became valid with this batch (sorted).
    pub added: Vec<Embedding>,
    /// Embeddings invalidated by this batch (sorted).
    pub removed: Vec<Embedding>,
}

/// Outcome of applying one update batch.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Updates that changed the graph (duplicate edge adds excluded).
    pub applied: usize,
    /// Vertices whose adjacency/liveness changed.
    pub touched: usize,
    /// Per-standing-query delta stream, in registration order, in the id
    /// space the batch was applied in (pre-compaction).
    pub deltas: Vec<RepairDelta>,
    /// Whether this batch triggered a compaction.
    pub compacted: bool,
    /// If it did: old slot → new dense id (`None` for tombstoned slots).
    /// The standing sets, the overlay and every later batch use the new
    /// ids; `deltas` (and the batch itself) use the old ones. An embedding
    /// in `removed` may hold a vertex the batch tombstoned, which maps to
    /// `None`.
    pub id_remap: Option<Vec<Option<VertexId>>>,
}

impl BatchReport {
    /// Total embeddings added across all standing queries.
    pub fn total_added(&self) -> usize {
        self.deltas.iter().map(|d| d.added.len()).sum()
    }

    /// Total embeddings invalidated across all standing queries.
    pub fn total_removed(&self) -> usize {
        self.deltas.iter().map(|d| d.removed.len()).sum()
    }
}

/// Why a batch failed.
#[derive(Debug)]
pub enum BatchError {
    /// The batch was malformed; the overlay is untouched (atomic reject).
    Graph(GraphError),
    /// Repair ran out of deadline. The graph mutation is applied but no
    /// standing set was modified; re-register or re-run with a larger
    /// budget to reconverge.
    Timeout,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Graph(e) => write!(f, "malformed update batch: {e}"),
            BatchError::Timeout => write!(f, "continuous repair timed out"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Graph(e) => Some(e),
            BatchError::Timeout => None,
        }
    }
}

impl From<GraphError> for BatchError {
    fn from(e: GraphError) -> Self {
        BatchError::Graph(e)
    }
}

impl From<Timeout> for BatchError {
    fn from(_: Timeout) -> Self {
        BatchError::Timeout
    }
}

/// Standing queries over one mutable graph, repaired per batch.
#[derive(Debug)]
pub struct ContinuousMatcher {
    graph: DynamicGraph,
    queries: Vec<StandingQuery>,
    next_id: u64,
    policy: CompactionPolicy,
    compactions: u64,
}

/// What one batch hands every standing query's repair, built once.
struct BatchSeeds {
    /// Edges the batch added that are still present, as `(L(a), L(b), a, b)`
    /// in the direction given, sorted: the batch's side of the repair join.
    edges: Vec<LabelPairEdge>,
    /// Vertices the batch added that are still live, sorted by label.
    vertices: Vec<(Label, VertexId)>,
    /// Per slot: whether the vertex died or lost an edge in the batch. Only
    /// an embedding through such a vertex can have been invalidated.
    lost: Vec<bool>,
    any_lost: bool,
}

impl BatchSeeds {
    fn new(g: &DynamicGraph, fx: &BatchEffects) -> Self {
        let mut edges: Vec<LabelPairEdge> = fx
            .added_edges
            .iter()
            .filter(|&&(a, b)| g.has_edge(a, b)) // not re-removed in the batch
            .map(|&(a, b)| (g.label(a), g.label(b), a, b))
            .collect();
        edges.sort_unstable();
        edges.dedup(); // removed and added again
        let mut vertices: Vec<(Label, VertexId)> =
            fx.added_vertices.iter().filter(|&&c| g.is_live(c)).map(|&c| (g.label(c), c)).collect();
        vertices.sort_unstable();
        let mut lost = vec![false; g.vertex_slots()];
        let mut lose = |v: &VertexId| lost[v.index()] = true;
        for effect in &fx.effects {
            match effect {
                UpdateEffect::EdgeRemoved(u, v) => [u, v].into_iter().for_each(&mut lose),
                UpdateEffect::VertexRemoved { vertex, severed } => {
                    std::iter::once(vertex).chain(severed).for_each(&mut lose)
                }
                _ => {}
            }
        }
        let any_lost = lost.contains(&true);
        Self { edges, vertices, lost, any_lost }
    }
}

/// What a batch did to one standing set, not yet applied to it.
struct RepairOutcome {
    /// Positions in the stored set of the embeddings the batch invalidated,
    /// ascending.
    removed_at: Vec<usize>,
    /// Embeddings the batch made valid (sorted, none in the stored set).
    added: Vec<Embedding>,
}

fn sort_embeddings(es: &mut [Embedding]) {
    es.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
}

fn contains_sorted(set: &[Embedding], e: &Embedding) -> bool {
    set.binary_search_by(|probe| probe.as_slice().cmp(e.as_slice())).is_ok()
}

/// The run of `sorted` (ascending by `key_of`) whose key is `key`.
fn group<T, K: Ord>(sorted: &[T], key: K, key_of: impl Fn(&T) -> K) -> &[T] {
    let from = sorted.partition_point(|t| key_of(t) < key);
    let len = sorted[from..].partition_point(|t| key_of(t) == key);
    &sorted[from..from + len]
}

/// Whether a stored embedding is still an embedding of `q` in the post-batch
/// overlay. Labels are immutable per slot and injectivity cannot change;
/// only an image in `lost` can have died, and only an edge between two of
/// them can be gone, so nothing else is looked up.
fn still_valid(q: &Graph, g: &DynamicGraph, e: &Embedding, lost: &[bool]) -> bool {
    let map = e.as_slice();
    q.vertices().filter(|u| lost[map[u.index()].index()]).all(|u| {
        g.is_live(map[u.index()])
            && q.neighbors(u).iter().all(|&w| {
                u > w || !lost[map[w.index()].index()] || g.has_edge(map[u.index()], map[w.index()])
            })
    })
}

/// Works out what the batch did to one standing set, against the post-batch
/// overlay. Reads the set only: a timeout leaves every set as it was.
fn repair_one(
    sq: &StandingQuery,
    g: &DynamicGraph,
    seeds: &BatchSeeds,
    deadline: Deadline,
) -> Result<RepairOutcome, Timeout> {
    deadline.check()?;
    let q = &sq.query;
    let mut removed_at = Vec::new();
    if seeds.any_lost {
        let mut ticker = TickChecker::new();
        for (at, e) in sq.embeddings.iter().enumerate() {
            ticker.tick(deadline)?;
            if !still_valid(q, g, e, &seeds.lost) {
                removed_at.push(at);
            }
        }
    }
    // Both sides of each join are sorted by label key, so a query edge (or
    // vertex) meets exactly the additions it can be pinned onto.
    let mut found: Vec<Embedding> = Vec::new();
    let mut seeder = SeededEnumerator::new(q, g);
    for &(lu, lw, u, w) in &sq.seed_edges {
        for &(_, _, a, b) in group(&seeds.edges, (lu, lw), |e| (e.0, e.1)) {
            seeder.enumerate(&[(u, a), (w, b)], deadline, &mut found)?;
        }
    }
    for u in q.vertices() {
        for &(_, c) in group(&seeds.vertices, q.label(u), |v| v.0) {
            seeder.enumerate(&[(u, c)], deadline, &mut found)?;
        }
    }
    sort_embeddings(&mut found);
    found.dedup();
    // What a seed finds is valid now, what was invalidated is not: a found
    // embedding that is stored is one of the kept.
    found.retain(|e| !contains_sorted(&sq.embeddings, e));
    Ok(RepairOutcome { removed_at, added: found })
}

/// Applies an outcome to its sorted set in place — nothing that stays is
/// cloned or re-sorted — and returns the embeddings taken out.
fn commit(set: &mut Vec<Embedding>, removed_at: &[usize], added: &[Embedding]) -> Vec<Embedding> {
    // Nothing before the first removal moves.
    let mut gone = removed_at.iter().copied().peekable();
    let mut at = removed_at.first().copied().unwrap_or(set.len());
    let removed = set
        .extract_if(at.., |_| {
            at += 1;
            gone.next_if_eq(&(at - 1)).is_some()
        })
        .collect();
    // Merge from the back: each kept embedding moves at most once.
    let (mut kept, mut to_add) = (set.len(), added.len());
    set.resize_with(kept + to_add, || Embedding::new(Vec::new()));
    while to_add > 0 {
        if kept > 0 && set[kept - 1].as_slice() > added[to_add - 1].as_slice() {
            set.swap(kept - 1, kept + to_add - 1);
            kept -= 1;
        } else {
            set[kept + to_add - 1] = added[to_add - 1].clone();
            to_add -= 1;
        }
    }
    removed
}

impl ContinuousMatcher {
    /// Wraps a base graph; standing queries are registered separately.
    pub fn new(base: Graph, policy: CompactionPolicy) -> Self {
        Self {
            graph: DynamicGraph::new(base),
            queries: Vec::new(),
            next_id: 0,
            policy,
            compactions: 0,
        }
    }

    /// The current overlay.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The compaction policy in force.
    pub fn policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Registered standing queries with their maintained embedding sets.
    pub fn standing(&self) -> &[StandingQuery] {
        &self.queries
    }

    /// The maintained embedding set of a standing query.
    pub fn embeddings(&self, query_id: u64) -> Option<&[Embedding]> {
        self.queries.iter().find(|s| s.id == query_id).map(|s| s.embeddings.as_slice())
    }

    /// Registers a standing query: enumerates its current embeddings and
    /// maintains them under every subsequent batch. Returns the query id.
    pub fn register(&mut self, query: Graph, deadline: Deadline) -> Result<u64, Timeout> {
        let embeddings = enumerate_overlay(&query, &self.graph, deadline)?;
        let mut seed_edges: Vec<LabelPairEdge> = query
            .vertices()
            .flat_map(|u| query.neighbors(u).iter().map(move |&w| (u, w)))
            .map(|(u, w)| (query.label(u), query.label(w), u, w))
            .collect();
        seed_edges.sort_unstable();
        let id = self.next_id;
        self.next_id += 1;
        self.queries.push(StandingQuery { id, query, embeddings, seed_edges });
        Ok(id)
    }

    /// Deregisters a standing query; returns whether it existed.
    pub fn deregister(&mut self, query_id: u64) -> bool {
        let before = self.queries.len();
        self.queries.retain(|s| s.id != query_id);
        self.queries.len() != before
    }

    /// One-shot query against the current overlay state (sorted results).
    pub fn query(&self, q: &Graph, deadline: Deadline) -> Result<Vec<Embedding>, Timeout> {
        enumerate_overlay(q, &self.graph, deadline)
    }

    /// Atomically applies a batch, repairs every standing query (with up to
    /// `threads` workers; results are slot-indexed so output is identical at
    /// every thread count), and compacts if the policy's threshold is
    /// crossed — remapping the stored embeddings through the compaction's
    /// old→new id mapping.
    pub fn apply_batch(
        &mut self,
        updates: &[Update],
        threads: usize,
        deadline: Deadline,
    ) -> Result<BatchReport, BatchError> {
        let fx = self.graph.apply_batch(updates)?;
        let outcomes = repair_all(&self.graph, &self.queries, &fx, threads, deadline)?;
        let deltas = self
            .queries
            .iter_mut()
            .zip(outcomes)
            .map(|(sq, outcome)| RepairDelta {
                query_id: sq.id,
                removed: commit(&mut sq.embeddings, &outcome.removed_at, &outcome.added),
                added: outcome.added,
            })
            .collect();
        let id_remap = self.graph.maybe_compact(&self.policy).map(|report| {
            self.compactions += 1;
            // With no slot dropped the renumbering is the identity. Otherwise
            // it is still monotone, so each set stays sorted as it is.
            if report.live_vertices < report.mapping.len() {
                let images = self
                    .queries
                    .iter_mut()
                    .flat_map(|sq| &mut sq.embeddings)
                    .flat_map(Embedding::as_mut_slice);
                for v in images {
                    *v = report.mapping[v.index()].unwrap_or(*v);
                }
            }
            report.mapping
        });
        Ok(BatchReport {
            applied: fx.applied,
            touched: fx.touched.len(),
            deltas,
            compacted: id_remap.is_some(),
            id_remap,
        })
    }
}

/// Below this estimated repair work (stored embeddings to re-check plus
/// seed pins to enumerate, summed over standing queries), repair runs
/// sequentially even when workers are available: spawning a scoped thread
/// costs tens of microseconds, which dwarfs a small repair. Results are
/// slot-indexed either way, so the output is identical at every thread
/// count — this only picks the cheaper execution.
const PARALLEL_REPAIR_MIN_WORK: usize = 4096;

/// Repairs all standing queries, slot-indexed for thread-count determinism.
fn repair_all(
    graph: &DynamicGraph,
    queries: &[StandingQuery],
    fx: &BatchEffects,
    threads: usize,
    deadline: Deadline,
) -> Result<Vec<RepairOutcome>, Timeout> {
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let seeds = BatchSeeds::new(graph, fx);
    let work: usize = queries.iter().map(|sq| sq.embeddings.len()).sum::<usize>()
        + (seeds.edges.len() + seeds.vertices.len() + fx.touched.len()) * queries.len();
    if threads <= 1 || queries.len() == 1 || work < PARALLEL_REPAIR_MIN_WORK {
        return queries.iter().map(|sq| repair_one(sq, graph, &seeds, deadline)).collect();
    }
    let slots: Vec<Mutex<Option<Result<RepairOutcome, Timeout>>>> =
        queries.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(queries.len()) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                let r = repair_one(&queries[i], graph, &seeds, deadline);
                match slots[i].lock() {
                    Ok(mut slot) => *slot = Some(r),
                    Err(poisoned) => *poisoned.into_inner() = Some(r),
                }
            });
        }
    });
    let mut out = Vec::with_capacity(queries.len());
    for slot in slots {
        let inner = match slot.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        };
        match inner {
            Some(Ok(o)) => out.push(o),
            Some(Err(t)) => return Err(t),
            None => return Err(Timeout), // worker vanished; fail closed
        }
    }
    Ok(out)
}

/// Counter snapshot of a [`ContinuousService`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContinuousStats {
    /// Updates applied to the overlay (duplicate no-ops excluded).
    pub updates_applied: u64,
    /// Update batches accepted.
    pub update_batches: u64,
    /// Batches rejected as malformed (overlay untouched).
    pub batches_rejected: u64,
    /// CSR compactions performed.
    pub compactions: u64,
    /// Standing-query repairs executed (one per query per batch).
    pub repairs: u64,
    /// Embeddings added across all repairs.
    pub embeddings_added: u64,
    /// Embeddings invalidated across all repairs.
    pub embeddings_removed: u64,
    /// Currently-registered standing queries.
    pub standing_queries: u64,
    /// One-shot queries served.
    pub queries_served: u64,
}

/// Thread-safe facade over a [`ContinuousMatcher`] for interleaved
/// update/query traffic.
///
/// Updates take the write lock; one-shot queries and embedding-set reads
/// take the read lock, so every read observes a batch boundary — a
/// **snapshot-consistent** state in which the overlay and all standing sets
/// agree — never a half-applied batch.
#[derive(Debug)]
pub struct ContinuousService {
    inner: RwLock<ContinuousMatcher>,
    updates_applied: AtomicU64,
    update_batches: AtomicU64,
    batches_rejected: AtomicU64,
    repairs: AtomicU64,
    embeddings_added: AtomicU64,
    embeddings_removed: AtomicU64,
    queries_served: AtomicU64,
}

impl ContinuousService {
    /// Wraps a base graph.
    pub fn new(base: Graph, policy: CompactionPolicy) -> Self {
        Self {
            inner: RwLock::new(ContinuousMatcher::new(base, policy)),
            updates_applied: AtomicU64::new(0),
            update_batches: AtomicU64::new(0),
            batches_rejected: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            embeddings_added: AtomicU64::new(0),
            embeddings_removed: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, ContinuousMatcher> {
        match self.inner.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write(&self) -> RwLockWriteGuard<'_, ContinuousMatcher> {
        match self.inner.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a standing query (write lock). Returns the query id.
    pub fn register(&self, query: Graph, deadline: Deadline) -> Result<u64, Timeout> {
        self.write().register(query, deadline)
    }

    /// Applies one batch under the write lock: no reader observes a
    /// half-applied batch. Counters are updated on the way out.
    pub fn apply_batch(
        &self,
        updates: &[Update],
        threads: usize,
        deadline: Deadline,
    ) -> Result<BatchReport, BatchError> {
        let result = self.write().apply_batch(updates, threads, deadline);
        match &result {
            Ok(report) => {
                self.updates_applied.fetch_add(report.applied as u64, Ordering::Relaxed);
                self.update_batches.fetch_add(1, Ordering::Relaxed);
                self.repairs.fetch_add(report.deltas.len() as u64, Ordering::Relaxed);
                self.embeddings_added.fetch_add(report.total_added() as u64, Ordering::Relaxed);
                self.embeddings_removed.fetch_add(report.total_removed() as u64, Ordering::Relaxed);
            }
            Err(BatchError::Graph(_)) => {
                self.batches_rejected.fetch_add(1, Ordering::Relaxed);
            }
            Err(BatchError::Timeout) => {}
        }
        result
    }

    /// One-shot query against a snapshot-consistent state (read lock).
    pub fn query(&self, q: &Graph, deadline: Deadline) -> Result<Vec<Embedding>, Timeout> {
        let r = self.read().query(q, deadline);
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Snapshot of a standing query's current embedding set (read lock).
    pub fn embeddings(&self, query_id: u64) -> Option<Vec<Embedding>> {
        self.read().embeddings(query_id).map(<[Embedding]>::to_vec)
    }

    /// Runs `f` against the matcher under the read lock (snapshot reads).
    pub fn with_snapshot<T>(&self, f: impl FnOnce(&ContinuousMatcher) -> T) -> T {
        f(&self.read())
    }

    /// Counter snapshot for metrics exposition.
    pub fn stats(&self) -> ContinuousStats {
        let inner = self.read();
        ContinuousStats {
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            update_batches: self.update_batches.load(Ordering::Relaxed),
            batches_rejected: self.batches_rejected.load(Ordering::Relaxed),
            compactions: inner.compactions(),
            repairs: self.repairs.load(Ordering::Relaxed),
            embeddings_added: self.embeddings_added.load(Ordering::Relaxed),
            embeddings_removed: self.embeddings_removed.load(Ordering::Relaxed),
            standing_queries: inner.standing().len() as u64,
            queries_served: self.queries_served.load(Ordering::Relaxed),
        }
    }
}

/// A graph database under updates, with an incrementally-maintained
/// fingerprint (IFV) index: only graphs dirtied since the last refresh get
/// their fingerprint recomputed.
#[derive(Debug)]
pub struct DynamicDb {
    graphs: Vec<DynamicGraph>,
    interner: LabelInterner,
    index: FingerprintIndex,
    dirty: Vec<bool>,
    refreshes: u64,
}

impl DynamicDb {
    /// Wraps every member graph in an overlay and builds the initial index.
    pub fn new(db: &GraphDb) -> Self {
        let graphs = db.graphs().iter().cloned().map(DynamicGraph::new).collect();
        let index = FingerprintIndex::build_default(db);
        Self {
            graphs,
            interner: db.interner().clone(),
            index,
            dirty: vec![false; db.len()],
            refreshes: 0,
        }
    }

    /// Number of member graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The overlay of one member graph.
    pub fn graph(&self, id: GraphId) -> &DynamicGraph {
        &self.graphs[id.index()]
    }

    /// Member graphs whose fingerprint is stale.
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Fingerprint refreshes performed so far (per-graph recomputations).
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Atomically applies a batch to one member graph and marks its
    /// fingerprint dirty.
    pub fn apply(&mut self, id: GraphId, updates: &[Update]) -> Result<BatchEffects, GraphError> {
        let fx = self.graphs[id.index()].apply_batch(updates)?;
        if fx.applied > 0 {
            self.dirty[id.index()] = true;
        }
        Ok(fx)
    }

    /// Recomputes fingerprints for dirty graphs only; returns how many were
    /// refreshed. After this, [`candidates`](Self::candidates) is exactly
    /// what a fresh full build over the materialized database would answer.
    pub fn refresh_index(&mut self, budget: &BuildBudget) -> Result<usize, BuildError> {
        let mut refreshed = 0;
        for (i, dirty) in self.dirty.iter_mut().enumerate() {
            if *dirty {
                let (g, _) = self.graphs[i].materialize();
                self.index.refresh_graph(GraphId(i as u32), &g, budget)?;
                *dirty = false;
                refreshed += 1;
                self.refreshes += 1;
            }
        }
        Ok(refreshed)
    }

    /// Candidate graphs for `q` per the maintained index. Callers must
    /// [`refresh_index`](Self::refresh_index) after updates; a stale index
    /// would readmit false negatives, so this asserts cleanliness in debug
    /// builds.
    pub fn candidates(&self, q: &Graph) -> CandidateGraphs {
        debug_assert_eq!(self.dirty_count(), 0, "candidates() on a dirty DynamicDb");
        self.index.candidates(q)
    }

    /// The maintained index.
    pub fn index(&self) -> &FingerprintIndex {
        &self.index
    }

    /// Materializes every overlay into a fresh immutable database (dense
    /// renumbering per graph; the shared interner is preserved).
    pub fn materialize(&self) -> GraphDb {
        let graphs = self.graphs.iter().map(|g| g.materialize().0).collect();
        GraphDb::with_interner(graphs, self.interner.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::{GraphBuilder, Label};

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

    /// Path with labels 0-1-0-2 plus a chord, same as the graph crate's
    /// sample.
    fn base() -> Graph {
        labeled(&[0, 1, 0, 2], &[(0, 1), (1, 2), (2, 3), (0, 3)])
    }

    #[test]
    fn repair_matches_requery_on_simple_stream() {
        let mut m = ContinuousMatcher::new(base(), CompactionPolicy::never());
        let q = labeled(&[0, 1], &[(0, 1)]);
        let id = m.register(q.clone(), Deadline::none()).unwrap();
        assert_eq!(m.embeddings(id).unwrap().len(), 2);
        // Add a vertex and wire it so a new embedding appears, remove an
        // edge so an old one dies.
        let batch = [
            Update::AddVertex { label: Label(1) },
            Update::AddEdge { u: VertexId(4), v: VertexId(0) },
            Update::RemoveEdge { u: VertexId(1), v: VertexId(2) },
        ];
        let report = m.apply_batch(&batch, 1, Deadline::none()).unwrap();
        assert_eq!(report.applied, 3);
        let delta = &report.deltas[0];
        assert_eq!(delta.added.len(), 1);
        assert_eq!(delta.removed.len(), 1);
        let full = m.query(&q, Deadline::none()).unwrap();
        assert_eq!(m.embeddings(id).unwrap(), full.as_slice(), "I10: repaired != recomputed");
    }

    #[test]
    fn repair_identical_across_thread_counts() {
        let queries: Vec<Graph> = vec![
            labeled(&[0, 1], &[(0, 1)]),
            labeled(&[1, 0, 2], &[(0, 1), (1, 2)]),
            labeled(&[2], &[]),
        ];
        let batch = [
            Update::AddVertex { label: Label(2) },
            Update::AddEdge { u: VertexId(4), v: VertexId(2) },
            Update::RemoveVertex { vertex: VertexId(3) },
        ];
        let mut reference: Option<Vec<Vec<Embedding>>> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut m = ContinuousMatcher::new(base(), CompactionPolicy::never());
            for q in &queries {
                m.register(q.clone(), Deadline::none()).unwrap();
            }
            m.apply_batch(&batch, threads, Deadline::none()).unwrap();
            let sets: Vec<Vec<Embedding>> =
                m.standing().iter().map(|s| s.embeddings().to_vec()).collect();
            match &reference {
                None => reference = Some(sets),
                Some(want) => assert_eq!(&sets, want, "thread count {threads} diverged"),
            }
        }
    }

    #[test]
    fn compaction_remaps_standing_sets() {
        let policy = CompactionPolicy { min_delta_ops: 1, delta_ratio: 0.0 };
        let mut m = ContinuousMatcher::new(base(), policy);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let id = m.register(q.clone(), Deadline::none()).unwrap();
        let old = m.embeddings(id).unwrap().to_vec();
        // Kills (v0, v1), keeps (v2, v1), creates (v2, v4) — then compacts.
        let batch = [
            Update::RemoveVertex { vertex: VertexId(0) },
            Update::AddVertex { label: Label(1) },
            Update::AddEdge { u: VertexId(4), v: VertexId(2) },
        ];
        let report = m.apply_batch(&batch, 2, Deadline::none()).unwrap();
        assert!(report.compacted);
        // After compaction ids are dense again; the repaired set must equal
        // a fresh query against the compacted overlay.
        let full = m.query(&q, Deadline::none()).unwrap();
        assert_eq!(m.embeddings(id).unwrap(), full.as_slice());
        assert_eq!(m.compactions(), 1);
        // The delta is in the ids the batch used: old set − removed + added,
        // taken through `id_remap`, is the new set.
        let remap = report.id_remap.as_ref().expect("a compacting batch reports its renumbering");
        let delta = &report.deltas[0];
        assert_eq!(delta.removed.len(), 1);
        assert_eq!(remap[delta.removed[0].image(VertexId(0)).index()], None, "v0 was tombstoned");
        let mut expected: Vec<Embedding> = old
            .iter()
            .filter(|e| !delta.removed.contains(e))
            .chain(&delta.added)
            .map(|e| {
                Embedding::new(e.as_slice().iter().map(|v| remap[v.index()].unwrap()).collect())
            })
            .collect();
        sort_embeddings(&mut expected);
        assert_eq!(m.embeddings(id).unwrap(), expected.as_slice());
        assert_eq!(expected.len(), 2);
    }

    #[test]
    fn commit_edits_a_sorted_set_in_place() {
        let e = |a: u32, b: u32| Embedding::new(vec![VertexId(a), VertexId(b)]);
        let mut set = vec![e(0, 1), e(0, 5), e(2, 3), e(4, 0), e(7, 7)];
        let removed = commit(&mut set, &[1, 3], &[e(0, 0), e(3, 9), e(9, 9)]);
        assert_eq!(removed, vec![e(0, 5), e(4, 0)]);
        assert_eq!(set, vec![e(0, 0), e(0, 1), e(2, 3), e(3, 9), e(7, 7), e(9, 9)]);
        assert!(commit(&mut set, &[], &[]).is_empty());
        assert_eq!(set.len(), 6);
        assert_eq!(commit(&mut set, &[0, 1, 2, 3, 4, 5], &[]).len(), 6);
        assert!(set.is_empty());
    }

    #[test]
    fn malformed_batch_rejected_atomically() {
        let mut m = ContinuousMatcher::new(base(), CompactionPolicy::never());
        let id = m.register(labeled(&[0, 1], &[(0, 1)]), Deadline::none()).unwrap();
        let before = m.embeddings(id).unwrap().to_vec();
        let bad = [
            Update::AddEdge { u: VertexId(0), v: VertexId(2) },
            Update::RemoveEdge { u: VertexId(0), v: VertexId(2) },
            Update::RemoveEdge { u: VertexId(0), v: VertexId(2) }, // double remove
        ];
        let err = m.apply_batch(&bad, 1, Deadline::none()).unwrap_err();
        assert!(matches!(err, BatchError::Graph(GraphError::MissingEdge { .. })));
        assert!(err.to_string().contains("does not exist"));
        assert_eq!(m.embeddings(id).unwrap(), before.as_slice());
        assert_eq!(m.graph().edge_count(), 4);
    }

    #[test]
    fn service_counts_and_snapshot_reads() {
        let svc = ContinuousService::new(base(), CompactionPolicy::never());
        let q = labeled(&[0, 1], &[(0, 1)]);
        let id = svc.register(q.clone(), Deadline::none()).unwrap();
        let batch = [
            Update::AddVertex { label: Label(1) },
            Update::AddEdge { u: VertexId(4), v: VertexId(2) },
        ];
        svc.apply_batch(&batch, 2, Deadline::none()).unwrap();
        assert!(svc
            .apply_batch(&[Update::RemoveVertex { vertex: VertexId(9) }], 2, Deadline::none())
            .is_err());
        let got = svc.query(&q, Deadline::none()).unwrap();
        assert_eq!(svc.embeddings(id).unwrap(), got);
        let stats = svc.stats();
        assert_eq!(stats.updates_applied, 2);
        assert_eq!(stats.update_batches, 1);
        assert_eq!(stats.batches_rejected, 1);
        assert_eq!(stats.repairs, 1);
        assert_eq!(stats.embeddings_added, 1);
        assert_eq!(stats.standing_queries, 1);
        assert_eq!(stats.queries_served, 1);
    }

    #[test]
    fn dynamic_db_incremental_index_equals_fresh_build() {
        let g0 = labeled(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let g1 = labeled(&[0, 1], &[(0, 1)]);
        let db = GraphDb::from_graphs(vec![g0, g1]);
        let mut ddb = DynamicDb::new(&db);
        let batch = [
            Update::AddVertex { label: Label(2) },
            Update::AddEdge { u: VertexId(2), v: VertexId(1) },
        ];
        ddb.apply(GraphId(1), &batch).unwrap();
        assert_eq!(ddb.dirty_count(), 1);
        let refreshed = ddb.refresh_index(&BuildBudget::unlimited()).unwrap();
        assert_eq!(refreshed, 1);
        let rebuilt = ddb.materialize();
        let fresh = FingerprintIndex::build_default(&rebuilt);
        for q in rebuilt.graphs() {
            assert_eq!(
                ddb.candidates(q).into_ids(rebuilt.len()),
                fresh.candidates(q).into_ids(rebuilt.len()),
                "incrementally-maintained IFV index diverges from fresh build"
            );
        }
    }
}
