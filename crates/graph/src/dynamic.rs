//! Mutable overlay over the immutable CSR [`Graph`].
//!
//! The repo's matching stack is built on an immutable CSR whose adjacency
//! lists are sorted by `(neighbor label, neighbor id)`. [`DynamicGraph`]
//! keeps that contract under mutation with a *copy-on-write delta*: the
//! first update touching a vertex copies its base adjacency into a patched,
//! still-sorted list; untouched vertices keep reading the base CSR slices
//! directly. Every patched list is one extent of a single arena, so the
//! delta owns no heap block per vertex. Every neighbor/intersection path
//! therefore sees the same contiguous sorted `&[VertexId]` slices the
//! enumeration kernels were written against — the delta composes with the
//! base instead of wrapping it in a merge iterator.
//!
//! Semantics:
//!
//! * Vertex ids are never reused. [`DynamicGraph::remove_vertex`] tombstones
//!   the id and severs its edges; re-adding "the same" vertex is a fresh
//!   [`DynamicGraph::add_vertex`] with a fresh id.
//! * Live adjacency never references a tombstoned vertex (removal patches
//!   every ex-neighbor), so readers need no liveness filtering on neighbor
//!   slices.
//! * Malformed updates **fail closed**: unknown ids, tombstoned endpoints,
//!   self-loops and removals of absent edges all return a [`GraphError`]
//!   and leave the overlay untouched. [`DynamicGraph::apply_batch`] is
//!   atomic in one pass: it applies the updates in order and, at the first
//!   malformed one, undoes the ones before it newest-first, so a rejected
//!   batch leaves every read answering as before.
//! * NLF signatures stay exact without per-batch recomputation: an
//!   untouched vertex reads the base's label-run index, a patched one's
//!   `(label, count)` runs are the label runs of its sorted list
//!   ([`DynamicGraph::label_runs`]). Every slot also has those runs folded
//!   into one word ([`DynamicGraph::signature`]), rewritten by the op that
//!   changes the list: what a search asks before any merge.
//!
//! When the delta grows past a [`CompactionPolicy`] threshold,
//! [`DynamicGraph::compact`] folds it into a fresh densely-renumbered CSR
//! and returns the old→new id mapping so callers (e.g. standing-query
//! embedding stores) can remap. Renumbering is monotone, so every
//! `(label, id)`-sorted list is still sorted after it and the CSR arrays are
//! written directly, without a builder or a re-sort. The arena is emptied,
//! not freed, so the next delta grows into memory it already has.

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::hash::FxHashMap;
use crate::label::Label;
use crate::nlf::{self, runs_dominated, NeighborhoodLabelFrequency};
use crate::vertex::VertexId;

/// One mutation of a [`DynamicGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Update {
    /// Add a fresh vertex carrying `label`; its id is the next unused slot.
    AddVertex {
        /// Label of the new vertex.
        label: Label,
    },
    /// Add the undirected edge `e(u, v)`. Adding an existing edge is a
    /// no-op, not an error (idempotent streams are common).
    AddEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Remove the undirected edge `e(u, v)`; fails closed if absent.
    RemoveEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Tombstone `vertex` and sever all its edges; fails closed if the id is
    /// unknown or already removed.
    RemoveVertex {
        /// The vertex to remove.
        vertex: VertexId,
    },
}

/// What one applied [`Update`] did to the overlay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateEffect {
    /// A vertex was created with this id.
    VertexAdded(VertexId),
    /// The edge became present.
    EdgeAdded(VertexId, VertexId),
    /// `AddEdge` of an already-present edge: nothing changed.
    DuplicateEdge,
    /// The edge became absent.
    EdgeRemoved(VertexId, VertexId),
    /// The vertex was tombstoned; `severed` are its ex-neighbors.
    VertexRemoved {
        /// The tombstoned vertex.
        vertex: VertexId,
        /// Neighbors whose adjacency lost `vertex`.
        severed: Vec<VertexId>,
    },
}

/// Aggregate outcome of an atomically-applied update batch, in the shape the
/// continuous-query repair needs: the touched region and the additions to
/// seed re-enumeration from.
#[derive(Clone, Debug, Default)]
pub struct BatchEffects {
    /// Per-update effects, in input order.
    pub effects: Vec<UpdateEffect>,
    /// Updates that changed the graph (duplicate edge adds excluded).
    pub applied: usize,
    /// Every vertex whose adjacency, liveness or existence changed — sorted
    /// and deduplicated.
    pub touched: Vec<VertexId>,
    /// Edges that transitioned absent → present during the batch.
    pub added_edges: Vec<(VertexId, VertexId)>,
    /// Vertices created during the batch.
    pub added_vertices: Vec<VertexId>,
}

/// Result of folding the delta into a fresh CSR.
#[derive(Clone, Debug)]
pub struct CompactionReport {
    /// Old slot → new dense id (`None` for tombstoned slots). Live vertices
    /// keep their relative id order.
    pub mapping: Vec<Option<VertexId>>,
    /// Live vertices in the compacted graph.
    pub live_vertices: usize,
    /// Edges in the compacted graph.
    pub edges: usize,
    /// Delta operations folded away.
    pub delta_ops: usize,
}

/// When to fold the delta back into the base CSR.
///
/// Compaction costs a full CSR rewrite (`O(V + E)`), while the delta costs
/// every reader an indirection per patched vertex, arena space for every
/// patched list, and slowly grows tombstoned slots; `benches/dynamic.rs`
/// measures the crossover and backs the default ratio. Compact when the
/// delta has absorbed at least `min_delta_ops` operations **and** at least
/// `delta_ratio` × base edges.
#[derive(Clone, Copy, Debug)]
pub struct CompactionPolicy {
    /// Floor on delta operations before compaction is considered.
    pub min_delta_ops: usize,
    /// Delta ops as a fraction of base edge count that triggers compaction.
    pub delta_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self { min_delta_ops: 1024, delta_ratio: 0.25 }
    }
}

impl CompactionPolicy {
    /// A policy that never compacts (pure overlay).
    pub fn never() -> Self {
        Self { min_delta_ops: usize::MAX, delta_ratio: f64::INFINITY }
    }

    /// The delta-op count at which a graph with `base_edges` edges compacts.
    pub fn threshold(&self, base_edges: usize) -> usize {
        if self.min_delta_ops == usize::MAX {
            return usize::MAX;
        }
        let by_ratio = (self.delta_ratio * base_edges as f64).ceil();
        if by_ratio >= usize::MAX as f64 {
            return usize::MAX;
        }
        self.min_delta_ops.max(by_ratio as usize)
    }

    /// Whether `g`'s delta has crossed the threshold.
    pub fn should_compact(&self, g: &DynamicGraph) -> bool {
        g.delta_ops() >= self.threshold(g.base().edge_count())
    }
}

/// A mutable graph: immutable CSR base + copy-on-write adjacency delta +
/// tombstones, with exact NLF signatures at every vertex.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    base: Graph,
    /// Labels for every slot (base + added); labels are immutable per slot.
    labels: Vec<Label>,
    /// Per slot: its index in `extents`, or [`UNPATCHED`]. Added vertices
    /// are always patched (possibly empty), so unpatched slots are
    /// guaranteed to be base vertices.
    patch_of: Vec<u32>,
    extents: Vec<Extent>,
    /// Every patched list, each sorted by `(label, id)` inside its extent.
    /// An extent an insert outgrows is abandoned, not reused.
    arena: Vec<VertexId>,
    tombstoned: Vec<bool>,
    /// Per slot, [`nlf::packed`] of its current label runs (`0` for a
    /// tombstone). Invariant: `signatures[v] == packed(label_runs(v))`.
    signatures: Vec<u64>,
    /// One past the largest label of any slot.
    label_space: usize,
    /// Added (id ≥ base vertex count) vertices per label, ascending by id.
    added_by_label: FxHashMap<Label, Vec<VertexId>>,
    edge_count: usize,
    live_count: usize,
    delta_ops: usize,
    compactions: u64,
}

const UNPATCHED: u32 = u32::MAX;

/// Room a first touch leaves behind the base list it copies.
const SLACK: usize = 2;

/// One patched list: `arena[at..at + len]`, with room up to `at + cap`.
#[derive(Clone, Copy, Debug, Default)]
struct Extent {
    at: usize,
    len: usize,
    cap: usize,
}

/// The `(label, count)` runs of a `(label, id)`-sorted list: its NLF.
fn runs<'a>(adj: &'a [VertexId], labels: &'a [Label]) -> impl Iterator<Item = (Label, u32)> + 'a {
    adj.chunk_by(|a, b| labels[a.index()] == labels[b.index()])
        .map(|run| (labels[run[0].index()], run.len() as u32))
}

impl DynamicGraph {
    /// Wraps an immutable base graph in a (initially empty) delta.
    pub fn new(base: Graph) -> Self {
        let labels = base.labels().to_vec();
        let edge_count = base.edge_count();
        let live_count = base.vertex_count();
        Self {
            signatures: base.vertices().map(|v| nlf::packed(base.label_runs(v))).collect(),
            label_space: base.label_space(),
            base,
            labels,
            patch_of: vec![UNPATCHED; live_count],
            extents: Vec::new(),
            arena: Vec::new(),
            tombstoned: vec![false; live_count],
            added_by_label: FxHashMap::default(),
            edge_count,
            live_count,
            delta_ops: 0,
            compactions: 0,
        }
    }

    /// The immutable CSR the delta is layered over (as of the last
    /// compaction).
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Total id slots, including tombstoned ones (one past the largest id).
    pub fn vertex_slots(&self) -> usize {
        self.labels.len()
    }

    /// Live (non-tombstoned) vertices.
    pub fn live_vertex_count(&self) -> usize {
        self.live_count
    }

    /// Current undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether `v` is a known, live vertex.
    pub fn is_live(&self, v: VertexId) -> bool {
        v.index() < self.labels.len() && !self.tombstoned[v.index()]
    }

    /// Label of slot `v` (stable even after tombstoning).
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v.index()]
    }

    /// Degree of `v` (0 for tombstoned slots).
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// `v`'s patched list, if it has one.
    fn patch(&self, v: VertexId) -> Option<&[VertexId]> {
        // `UNPATCHED` is past the end of any `extents`.
        let e = self.extents.get(self.patch_of[v.index()] as usize)?;
        Some(&self.arena[e.at..e.at + e.len])
    }

    /// Where `w` is, or would go, in the `(label, id)`-sorted list `adj`.
    fn position(&self, adj: &[VertexId], w: VertexId) -> std::result::Result<usize, usize> {
        let key = (self.labels[w.index()], w);
        adj.binary_search_by(|&x| (self.labels[x.index()], x).cmp(&key))
    }

    /// `v`'s index in `extents`, copying its base list into the arena on
    /// first touch.
    fn patch_mut(&mut self, v: VertexId) -> usize {
        let at = &mut self.patch_of[v.index()];
        if *at == UNPATCHED {
            *at = self.extents.len() as u32;
            // Patched because it is about to change: leave room to grow.
            let adj = self.base.neighbors(v);
            let e = Extent { at: self.arena.len(), len: adj.len(), cap: adj.len() + SLACK };
            self.arena.extend_from_slice(adj);
            self.arena.resize(e.at + e.cap, VertexId(0));
            self.extents.push(e);
        }
        *at as usize
    }

    /// Points `v` at an empty list, patched or not before.
    fn clear_patch(&mut self, v: VertexId) {
        if self.patch_of[v.index()] == UNPATCHED {
            self.patch_of[v.index()] = self.extents.len() as u32;
            self.extents.push(Extent::default());
        }
        self.extents[self.patch_of[v.index()] as usize] = Extent::default();
    }

    /// Rewrites `v`'s signature from its list.
    fn resign(&mut self, v: VertexId) {
        self.signatures[v.index()] = nlf::packed(self.label_runs(v));
    }

    /// Inserts the absent neighbor `w` into `v`'s list.
    fn insert(&mut self, v: VertexId, w: VertexId) {
        let p = self.patch_mut(v);
        let mut e = self.extents[p];
        if e.len == e.cap {
            // Full: double it at the arena's end, where it is if it is last.
            if e.at + e.cap < self.arena.len() {
                let at = self.arena.len();
                self.arena.extend_from_within(e.at..e.at + e.len);
                e.at = at;
            }
            e.cap = (2 * e.cap).max(SLACK);
            self.arena.resize(e.at + e.cap, VertexId(0));
        }
        let (Ok(pos) | Err(pos)) = self.position(&self.arena[e.at..e.at + e.len], w);
        self.arena.copy_within(e.at + pos..e.at + e.len, e.at + pos + 1);
        self.arena[e.at + pos] = w;
        e.len += 1;
        self.extents[p] = e;
        self.resign(v);
    }

    /// Removes neighbor `w` from `v`'s list if present.
    fn remove(&mut self, v: VertexId, w: VertexId) {
        let p = self.patch_mut(v);
        let e = self.extents[p];
        if let Ok(pos) = self.position(&self.arena[e.at..e.at + e.len], w) {
            self.arena.copy_within(e.at + pos + 1..e.at + e.len, e.at + pos);
            self.extents[p].len -= 1;
        }
        self.resign(v);
    }

    /// Adds the absent edge `e(u, v)` between live vertices.
    fn link(&mut self, u: VertexId, v: VertexId) {
        self.insert(u, v);
        self.insert(v, u);
        self.edge_count += 1;
    }

    /// Removes the present edge `e(u, v)`.
    fn unlink(&mut self, u: VertexId, v: VertexId) {
        self.remove(u, v);
        self.remove(v, u);
        self.edge_count -= 1;
    }

    /// Neighbors of `v`, sorted by `(label, id)` — the base CSR slice for
    /// untouched vertices, the patched list otherwise. Never contains
    /// tombstoned vertices.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.patch(v).unwrap_or_else(|| self.base.neighbors(v))
    }

    /// Neighbors of `v` carrying label `l` (contiguous sorted slice), the
    /// intersection-kernel input.
    pub fn neighbors_with_label(&self, v: VertexId, l: Label) -> &[VertexId] {
        match self.patch(v) {
            Some(adj) => {
                let from = adj.partition_point(|w| self.labels[w.index()] < l);
                let len = adj[from..].partition_point(|w| self.labels[w.index()] == l);
                &adj[from..from + len]
            }
            None => self.base.neighbors_with_label(v, l),
        }
    }

    /// Whether the undirected edge `e(u, v)` exists (false for unknown or
    /// tombstoned endpoints).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        // A tombstone's list is empty and no live list holds one, so only
        // the id range needs checking before the one search.
        match self.labels.get(v.index()) {
            Some(&lv) if u.index() < self.labels.len() => match self.patch(u) {
                Some(adj) => self.position(adj, v).is_ok(),
                None => self.base.neighbors_with_label(u, lv).binary_search(&v).is_ok(),
            },
            _ => false,
        }
    }

    /// Appends every live vertex carrying label `l` to `out`, ascending by
    /// id (base vertices first, then added ones — ids are monotone).
    pub fn live_vertices_with_label(&self, l: Label, out: &mut Vec<VertexId>) {
        out.extend(
            self.base
                .vertices_with_label(l)
                .iter()
                .copied()
                .filter(|&v| !self.tombstoned[v.index()]),
        );
        if let Some(added) = self.added_by_label.get(&l) {
            out.extend(added.iter().copied().filter(|&v| !self.tombstoned[v.index()]));
        }
    }

    /// Iterator over all live vertex ids.
    pub fn live_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.labels.len() as u32).map(VertexId).filter(|v| !self.tombstoned[v.index()])
    }

    /// The neighborhood label frequency of `v`: one `(label, count)` per
    /// distinct neighbor label, ascending by label (empty for tombstoned
    /// slots). Read off the base's run index, or off the label runs of the
    /// patched list.
    pub fn label_runs(&self, v: VertexId) -> impl Iterator<Item = (Label, u32)> + '_ {
        let (patched, base) = match self.patch(v) {
            Some(adj) => (Some(runs(adj, &self.labels)), None),
            None => (None, Some(self.base.label_runs(v))),
        };
        patched.into_iter().flatten().chain(base.into_iter().flatten())
    }

    /// The packed NLF signature of slot `v`: [`nlf::packed`] of
    /// [`label_runs`](Self::label_runs), kept current by every mutation (`0`
    /// for a tombstone).
    #[inline]
    pub fn signature(&self, v: VertexId) -> u64 {
        self.signatures[v.index()]
    }

    /// One past the largest label of any slot, tombstones included (what
    /// [`nlf::packed_is_exact`] needs of the data side).
    pub fn label_space(&self) -> usize {
        self.label_space
    }

    /// Whether `query ⊑ NLF(v)`: the run merge behind a
    /// [`signature`](Self::signature) accept that is not exact.
    pub fn nlf_dominates(&self, v: VertexId, query: &NeighborhoodLabelFrequency) -> bool {
        let query = query.runs().iter().copied();
        match self.patch(v) {
            Some(adj) => runs_dominated(query, runs(adj, &self.labels)),
            None => runs_dominated(query, self.base.label_runs(v)),
        }
    }

    /// Delta operations absorbed since the last compaction.
    pub fn delta_ops(&self) -> usize {
        self.delta_ops
    }

    /// Vertices with a copy-on-write patched adjacency. A rejected batch's
    /// first touches stay patched (holding their base lists), so they may
    /// be counted, as may slots it added and took back.
    pub fn patched_vertices(&self) -> usize {
        self.extents.len()
    }

    /// Compactions performed over this overlay's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    fn check_endpoint(&self, v: VertexId) -> Result<()> {
        if v.index() >= self.labels.len() {
            return Err(GraphError::UnknownVertex {
                vertex: v.id(),
                vertex_count: self.labels.len(),
            });
        }
        if self.tombstoned[v.index()] {
            return Err(GraphError::Tombstoned { vertex: v.id() });
        }
        Ok(())
    }

    /// Adds a fresh vertex; the new id is the next unused slot. A label not
    /// below [`Label::LIMIT`] is rejected.
    pub fn add_vertex(&mut self, label: Label) -> Result<VertexId> {
        label.checked()?;
        if self.labels.len() >= u32::MAX as usize {
            return Err(GraphError::TooManyVertices(self.labels.len() + 1));
        }
        let id = VertexId(self.labels.len() as u32);
        self.labels.push(label);
        self.tombstoned.push(false);
        self.signatures.push(0);
        self.label_space = self.label_space.max(label.index() + 1);
        self.patch_of.push(UNPATCHED);
        self.clear_patch(id);
        self.added_by_label.entry(label).or_default().push(id);
        self.live_count += 1;
        self.delta_ops += 1;
        Ok(id)
    }

    /// Adds the undirected edge `e(u, v)`. `Ok(false)` if already present.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool> {
        self.check_endpoint(u)?;
        self.check_endpoint(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u.id() });
        }
        if self.has_edge(u, v) {
            return Ok(false);
        }
        self.link(u, v);
        self.delta_ops += 1;
        Ok(true)
    }

    /// Removes the undirected edge `e(u, v)`; fails closed if absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        self.check_endpoint(u)?;
        self.check_endpoint(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u.id() });
        }
        if !self.has_edge(u, v) {
            return Err(GraphError::MissingEdge { u: u.id(), v: v.id() });
        }
        self.unlink(u, v);
        self.delta_ops += 1;
        Ok(())
    }

    /// Tombstones `vertex`, severing all its edges; returns the ex-neighbors.
    pub fn remove_vertex(&mut self, vertex: VertexId) -> Result<Vec<VertexId>> {
        self.check_endpoint(vertex)?;
        let severed = self.neighbors(vertex).to_vec();
        self.clear_patch(vertex);
        for &w in &severed {
            self.remove(w, vertex);
        }
        self.tombstoned[vertex.index()] = true;
        self.signatures[vertex.index()] = 0;
        self.edge_count -= severed.len();
        self.live_count -= 1;
        self.delta_ops += 1 + severed.len();
        Ok(severed)
    }

    /// Applies one update, failing closed on malformed input.
    pub fn apply(&mut self, update: &Update) -> Result<UpdateEffect> {
        match *update {
            Update::AddVertex { label } => Ok(UpdateEffect::VertexAdded(self.add_vertex(label)?)),
            Update::AddEdge { u, v } => Ok(if self.add_edge(u, v)? {
                UpdateEffect::EdgeAdded(u, v)
            } else {
                UpdateEffect::DuplicateEdge
            }),
            Update::RemoveEdge { u, v } => {
                self.remove_edge(u, v)?;
                Ok(UpdateEffect::EdgeRemoved(u, v))
            }
            Update::RemoveVertex { vertex } => {
                Ok(UpdateEffect::VertexRemoved { vertex, severed: self.remove_vertex(vertex)? })
            }
        }
    }

    /// Undoes one applied update; `revert`ing a batch's effects newest-first
    /// restores every read but [`delta_ops`](Self::delta_ops) and
    /// [`label_space`](Self::label_space), which the caller puts back.
    fn revert(&mut self, effect: &UpdateEffect) {
        match *effect {
            UpdateEffect::VertexAdded(v) => {
                // Everything newer is undone, so `v` is the last slot.
                if let Some(added) = self.added_by_label.get_mut(&self.labels[v.index()]) {
                    added.pop();
                }
                self.labels.truncate(v.index());
                self.tombstoned.truncate(v.index());
                self.signatures.truncate(v.index());
                self.patch_of.truncate(v.index());
                self.live_count -= 1;
            }
            UpdateEffect::EdgeAdded(u, v) => self.unlink(u, v),
            UpdateEffect::DuplicateEdge => {}
            UpdateEffect::EdgeRemoved(u, v) => self.link(u, v),
            UpdateEffect::VertexRemoved { vertex, ref severed } => {
                self.tombstoned[vertex.index()] = false;
                self.live_count += 1;
                for &w in severed {
                    self.link(vertex, w);
                }
            }
        }
    }

    /// Atomically applies a batch in one pass, returning the aggregate
    /// effects the continuous-query repair consumes. Updates apply in
    /// order; the first malformed one (which [`apply`](Self::apply) leaves
    /// unapplied) makes the batch undo what it did newest-first and return
    /// that update's error. On `Err` every read answers as before the batch.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchEffects> {
        let mut fx = BatchEffects::default();
        fx.effects.reserve(updates.len());
        let mut touched: Vec<VertexId> = Vec::with_capacity(2 * updates.len());
        let (delta_ops, label_space) = (self.delta_ops, self.label_space);
        for up in updates {
            let effect = self.apply(up).inspect_err(|_| {
                fx.effects.iter().rev().for_each(|effect| self.revert(effect));
                (self.delta_ops, self.label_space) = (delta_ops, label_space);
            })?;
            match &effect {
                UpdateEffect::VertexAdded(v) => {
                    touched.push(*v);
                    fx.added_vertices.push(*v);
                    fx.applied += 1;
                }
                UpdateEffect::EdgeAdded(u, v) => {
                    touched.push(*u);
                    touched.push(*v);
                    fx.added_edges.push((*u, *v));
                    fx.applied += 1;
                }
                UpdateEffect::DuplicateEdge => {}
                UpdateEffect::EdgeRemoved(u, v) => {
                    touched.push(*u);
                    touched.push(*v);
                    fx.applied += 1;
                }
                UpdateEffect::VertexRemoved { vertex, severed } => {
                    touched.push(*vertex);
                    touched.extend_from_slice(severed);
                    fx.applied += 1;
                }
            }
            fx.effects.push(effect);
        }
        touched.sort_unstable();
        touched.dedup();
        fx.touched = touched;
        Ok(fx)
    }

    /// Materializes the current state as a fresh CSR with live vertices
    /// densely renumbered in id order, plus the old→new mapping. Does not
    /// mutate the overlay.
    ///
    /// The renumbering is monotone and labels travel with their vertices, so
    /// each `(label, id)`-sorted list maps to a sorted list: the CSR arrays
    /// are written in one pass over the overlay's slices.
    pub fn materialize(&self) -> (Graph, Vec<Option<VertexId>>) {
        let mut mapping: Vec<Option<VertexId>> = vec![None; self.labels.len()];
        let mut labels = Vec::with_capacity(self.live_count);
        for (i, &l) in self.labels.iter().enumerate() {
            if !self.tombstoned[i] {
                mapping[i] = Some(VertexId(labels.len() as u32));
                labels.push(l);
            }
        }
        let identity = self.live_count == self.labels.len();
        let g = Graph::from_sorted_csr(labels, self.edge_count, |_, offsets, lists| {
            let mut at = 0;
            for (end, v) in offsets[1..].iter_mut().zip(self.live_vertices()) {
                // Live adjacency never references a tombstone: nothing is
                // dropped, and without a tombstone every list is copied as
                // it is.
                let adj = self.neighbors(v);
                let list = &mut lists[at..at + adj.len()];
                if identity {
                    list.copy_from_slice(adj);
                } else {
                    let renumbered = adj.iter().filter_map(|w| mapping[w.index()]);
                    list.iter_mut().zip(renumbered).for_each(|(slot, w)| *slot = w);
                }
                at += adj.len();
                *end = at as u32;
            }
        });
        (g, mapping)
    }

    /// Folds the delta into a fresh base CSR (dense renumbering, tombstones
    /// and patches dropped) and resets the delta.
    pub fn compact(&mut self) -> CompactionReport {
        let (g, mapping) = self.materialize();
        let report = CompactionReport {
            mapping,
            live_vertices: g.vertex_count(),
            edges: g.edge_count(),
            delta_ops: self.delta_ops,
        };
        self.labels.clear();
        self.labels.extend_from_slice(g.labels());
        // Labels travel with their vertices, so a live slot's runs — and its
        // word — are what they were: the column drops the tombstones' words.
        let mut slot = 0;
        self.signatures.retain(|_| {
            slot += 1;
            !self.tombstoned[slot - 1]
        });
        self.label_space = g.label_space();
        self.tombstoned.clear();
        self.tombstoned.resize(g.vertex_count(), false);
        self.patch_of.clear();
        self.patch_of.resize(g.vertex_count(), UNPATCHED);
        self.extents.clear();
        self.arena.clear();
        self.added_by_label.clear();
        self.live_count = g.vertex_count();
        self.base = g;
        self.delta_ops = 0;
        self.compactions += 1;
        report
    }

    /// Compacts iff `policy` says the delta has grown past its threshold.
    pub fn maybe_compact(&mut self, policy: &CompactionPolicy) -> Option<CompactionReport> {
        if policy.should_compact(self) {
            Some(self.compact())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn base() -> Graph {
        // Path v0(L0) - v1(L1) - v2(L0) - v3(L2), plus edge v0-v3.
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Label(0));
        let v1 = b.add_vertex(Label(1));
        let v2 = b.add_vertex(Label(0));
        let v3 = b.add_vertex(Label(2));
        b.add_edge(v0, v1).unwrap();
        b.add_edge(v1, v2).unwrap();
        b.add_edge(v2, v3).unwrap();
        b.add_edge(v0, v3).unwrap();
        b.build()
    }

    fn assert_sorted(g: &DynamicGraph) {
        for v in g.live_vertices() {
            let adj = g.neighbors(v);
            for w in adj.windows(2) {
                assert!((g.label(w[0]), w[0]) < (g.label(w[1]), w[1]), "unsorted at {v:?}");
            }
            for &w in adj {
                assert!(g.is_live(w), "live adjacency references tombstone {w:?}");
            }
        }
    }

    #[test]
    fn overlay_reads_compose_with_base() {
        let mut g = DynamicGraph::new(base());
        assert_eq!(g.edge_count(), 4);
        // Untouched vertex reads the base slice.
        assert_eq!(g.neighbors(VertexId(1)), &[VertexId(0), VertexId(2)]);
        let nv = g.add_vertex(Label(1)).unwrap();
        assert!(g.add_edge(nv, VertexId(0)).unwrap());
        assert!(!g.add_edge(VertexId(0), nv).unwrap(), "duplicate add is a no-op");
        assert!(g.has_edge(nv, VertexId(0)));
        // v0 now patched: neighbors sorted by (label, id): v1(L1), v4(L1), v3(L2).
        assert_eq!(g.neighbors(VertexId(0)), &[VertexId(1), nv, VertexId(3)]);
        assert_eq!(g.neighbors_with_label(VertexId(0), Label(1)), &[VertexId(1), nv]);
        assert_eq!(g.edge_count(), 5);
        assert_sorted(&g);
        let mut with_l1 = Vec::new();
        g.live_vertices_with_label(Label(1), &mut with_l1);
        assert_eq!(with_l1, vec![VertexId(1), nv]);
    }

    #[test]
    fn removal_patches_every_neighbor() {
        let mut g = DynamicGraph::new(base());
        let severed = g.remove_vertex(VertexId(0)).unwrap();
        assert_eq!(severed, vec![VertexId(1), VertexId(3)]);
        assert!(!g.is_live(VertexId(0)));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.live_vertex_count(), 3);
        assert_eq!(g.neighbors(VertexId(1)), &[VertexId(2)]);
        assert_sorted(&g);
        // Tombstoned ids fail closed everywhere.
        assert!(matches!(
            g.add_edge(VertexId(0), VertexId(1)),
            Err(GraphError::Tombstoned { vertex: 0 })
        ));
        assert!(matches!(g.remove_vertex(VertexId(0)), Err(GraphError::Tombstoned { .. })));
        // Re-add after tombstone gets a fresh id.
        let nv = g.add_vertex(Label(0)).unwrap();
        assert_eq!(nv, VertexId(4));
    }

    #[test]
    fn malformed_updates_fail_closed() {
        let mut g = DynamicGraph::new(base());
        assert!(matches!(
            g.add_edge(VertexId(0), VertexId(9)),
            Err(GraphError::UnknownVertex { vertex: 9, .. })
        ));
        assert!(matches!(
            g.add_edge(VertexId(2), VertexId(2)),
            Err(GraphError::SelfLoop { vertex: 2 })
        ));
        assert!(matches!(
            g.remove_edge(VertexId(0), VertexId(2)),
            Err(GraphError::MissingEdge { u: 0, v: 2 })
        ));
        // Nothing changed.
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.delta_ops(), 0);
    }

    #[test]
    fn nlf_maintained_matches_fresh() {
        let mut g = DynamicGraph::new(base());
        let nv = g.add_vertex(Label(1)).unwrap();
        g.add_edge(nv, VertexId(2)).unwrap();
        g.remove_edge(VertexId(0), VertexId(3)).unwrap();
        g.remove_vertex(VertexId(1)).unwrap();
        let (fresh, mapping) = g.materialize();
        for v in g.live_vertices() {
            let nv = mapping[v.index()].unwrap();
            assert!(g.label_runs(v).eq(fresh.label_runs(nv)), "stale NLF at {v:?}");
        }
        assert_eq!(g.label_runs(VertexId(1)).count(), 0, "a tombstone has no neighborhood");
    }

    fn assert_signatures(g: &DynamicGraph) {
        assert_eq!(g.signatures.len(), g.vertex_slots());
        for v in (0..g.vertex_slots() as u32).map(VertexId) {
            assert_eq!(g.signature(v), nlf::packed(g.label_runs(v)), "stale word at {v:?}");
        }
    }

    #[test]
    fn signatures_and_label_space_follow_every_op_and_compaction() {
        let mut g = DynamicGraph::new(base());
        assert_eq!(g.label_space(), 3);
        assert_signatures(&g);
        let far = g.add_vertex(Label(20)).unwrap();
        assert_eq!(g.label_space(), 21, "raised by the add");
        assert_eq!(g.signature(far), 0);
        g.add_edge(far, VertexId(0)).unwrap();
        // Label 20 lands on nibble 4 of v0's word, beside L1 and L2.
        assert_eq!(g.signature(VertexId(0)), 0x1_0110);
        assert_signatures(&g);
        g.remove_edge(VertexId(1), VertexId(2)).unwrap();
        assert_signatures(&g);
        g.remove_vertex(far).unwrap();
        assert_eq!(g.signature(far), 0, "a tombstone's word is empty");
        assert_eq!(g.label_space(), 21, "a tombstoned slot still counts");
        assert_signatures(&g);
        g.remove_vertex(VertexId(1)).unwrap();
        let carried: Vec<u64> = g.live_vertices().map(|v| g.signature(v)).collect();
        g.compact();
        assert_eq!(g.label_space(), 3, "the compaction dropped label 20's only slot");
        assert_eq!(g.signatures, carried, "live words travel through compaction");
        assert_signatures(&g);
    }

    #[test]
    fn a_label_at_the_limit_is_a_malformed_batch() {
        let mut g = DynamicGraph::new(base());
        let top = g.add_vertex(Label(Label::LIMIT - 1)).unwrap();
        assert_eq!(g.label(top), Label(Label::LIMIT - 1));
        assert_eq!(g.label_space(), Label::LIMIT as usize);
        let bad = [
            Update::AddVertex { label: Label(0) },
            Update::AddVertex { label: Label(Label::LIMIT) },
        ];
        let err = g.apply_batch(&bad).unwrap_err();
        assert!(matches!(err, GraphError::LabelOutOfRange { label } if label == Label::LIMIT));
        // The batch is undone: one vertex more than the base, as before it.
        assert_eq!(g.vertex_slots(), 5);
        assert_eq!(g.delta_ops(), 1);
        assert_eq!(g.label_space(), Label::LIMIT as usize);
    }

    #[test]
    fn batch_is_atomic() {
        let mut g = DynamicGraph::new(base());
        // Third op is malformed (edge 0-2 does not exist): whole batch rejected.
        let bad = [
            Update::AddVertex { label: Label(3) },
            Update::AddEdge { u: VertexId(4), v: VertexId(0) },
            Update::RemoveEdge { u: VertexId(0), v: VertexId(2) },
        ];
        assert!(matches!(g.apply_batch(&bad), Err(GraphError::MissingEdge { .. })));
        assert_eq!(g.vertex_slots(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.delta_ops(), 0);
        // In-batch dependencies validate: add a vertex then wire it up, and
        // remove-then-re-add the same edge.
        let good = [
            Update::AddVertex { label: Label(3) },
            Update::AddEdge { u: VertexId(4), v: VertexId(0) },
            Update::RemoveEdge { u: VertexId(4), v: VertexId(0) },
            Update::AddEdge { u: VertexId(4), v: VertexId(1) },
            Update::RemoveVertex { vertex: VertexId(3) },
        ];
        let fx = g.apply_batch(&good).unwrap();
        assert_eq!(fx.applied, 5);
        assert_eq!(fx.added_vertices, vec![VertexId(4)]);
        assert_eq!(fx.added_edges, vec![(VertexId(4), VertexId(0)), (VertexId(4), VertexId(1))]);
        assert!(fx.touched.windows(2).all(|w| w[0] < w[1]));
        assert!(fx.touched.contains(&VertexId(3)));
        assert_sorted(&g);
    }

    #[test]
    fn batch_rejects_ops_on_vertex_removed_earlier_in_batch() {
        let mut g = DynamicGraph::new(base());
        let bad = [
            Update::RemoveVertex { vertex: VertexId(1) },
            Update::AddEdge { u: VertexId(1), v: VertexId(3) },
        ];
        assert!(matches!(g.apply_batch(&bad), Err(GraphError::Tombstoned { vertex: 1 })));
        assert!(g.is_live(VertexId(1)), "rejected batch must leave the overlay untouched");
        // Double-remove of the same edge inside one batch fails closed too.
        let bad = [
            Update::RemoveEdge { u: VertexId(0), v: VertexId(1) },
            Update::RemoveEdge { u: VertexId(1), v: VertexId(0) },
        ];
        assert!(matches!(g.apply_batch(&bad), Err(GraphError::MissingEdge { .. })));
        assert!(g.has_edge(VertexId(0), VertexId(1)));
    }

    #[test]
    fn batch_reports_its_first_malformed_update() {
        let g = DynamicGraph::new(base());
        let add = Update::AddEdge { u: VertexId(1), v: VertexId(3) };
        let remove = Update::RemoveEdge { u: VertexId(3), v: VertexId(1) };
        let missing = Update::RemoveEdge { u: VertexId(2), v: VertexId(0) };
        let unknown = Update::AddEdge { u: VertexId(0), v: VertexId(9) };
        let first = |batch: &[Update]| g.clone().apply_batch(batch).map(drop);
        // The error reported is the earliest in batch order.
        assert!(matches!(
            first(&[add, missing, unknown]),
            Err(GraphError::MissingEdge { u: 2, v: 0 })
        ));
        assert!(matches!(
            first(&[add, unknown, missing]),
            Err(GraphError::UnknownVertex { vertex: 9, .. })
        ));
        // Each removal sees what the ops before it left of its edge.
        assert!(first(&[add, remove, add, remove]).is_ok());
        assert!(matches!(
            first(&[add, remove, remove, add]),
            Err(GraphError::MissingEdge { u: 3, v: 1 })
        ));
    }

    /// A uniformly drawn live vertex of `g`, which must have one.
    fn any_live(g: &DynamicGraph, rng: &mut StdRng) -> VertexId {
        loop {
            let v = VertexId(rng.random_range(0..g.vertex_slots() as u32));
            if g.is_live(v) {
                return v;
            }
        }
    }

    /// An update `g` accepts, over labels 0..5: one in ten adds a vertex,
    /// one in ten removes one, about three in ten remove an edge, the rest
    /// add one (possibly a duplicate).
    fn valid_update(g: &DynamicGraph, rng: &mut StdRng) -> Update {
        let fresh = Update::AddVertex { label: Label(rng.random_range(0..5)) };
        if g.live_vertex_count() < 2 {
            return fresh;
        }
        let u = any_live(g, rng);
        match rng.random_range(0..10) {
            0 => fresh,
            1 => Update::RemoveVertex { vertex: u },
            2..=4 if g.degree(u) > 0 => {
                let adj = g.neighbors(u);
                Update::RemoveEdge { u, v: adj[rng.random_range(0..adj.len())] }
            }
            _ => match any_live(g, rng) {
                v if v == u => fresh,
                v => Update::AddEdge { u, v },
            },
        }
    }

    /// Appends `n` valid updates to `batch`, applying each to `sim`.
    fn valid_run(sim: &mut DynamicGraph, rng: &mut StdRng, n: usize, batch: &mut Vec<Update>) {
        for _ in 0..n {
            let up = valid_update(sim, rng);
            sim.apply(&up).unwrap();
            batch.push(up);
        }
    }

    /// A malformed update against `sim`, of one of six kinds: unknown id,
    /// tombstoned endpoint, self-loop, absent-edge removal, an op on a
    /// vertex removed earlier in the batch, an op on a vertex added earlier
    /// in the batch. The last two first append (and apply) the update they
    /// need.
    fn malformed(
        kind: u32,
        sim: &mut DynamicGraph,
        rng: &mut StdRng,
        batch: &mut Vec<Update>,
    ) -> Update {
        let x = any_live(sim, rng);
        let slots = sim.vertex_slots() as u32;
        let dead = (0..slots).map(VertexId).find(|&v| !sim.is_live(v));
        let absent =
            (0..slots).map(VertexId).find(|&y| y != x && sim.is_live(y) && !sim.has_edge(x, y));
        let either =
            |rng: &mut StdRng, a: Update, b: Update| if rng.random_bool(0.5) { a } else { b };
        match (kind, dead, absent) {
            (0, ..) => {
                let unknown = VertexId(slots + rng.random_range(0..3u32));
                either(
                    rng,
                    Update::AddEdge { u: x, v: unknown },
                    Update::RemoveVertex { vertex: unknown },
                )
            }
            (1, Some(d), _) => {
                either(rng, Update::RemoveEdge { u: d, v: x }, Update::RemoveVertex { vertex: d })
            }
            (2, ..) => {
                either(rng, Update::AddEdge { u: x, v: x }, Update::RemoveEdge { u: x, v: x })
            }
            (3, _, Some(y)) => Update::RemoveEdge { u: x, v: y },
            (4, ..) | (1, None, _) => {
                batch.push(Update::RemoveVertex { vertex: x });
                sim.apply(&batch[batch.len() - 1]).unwrap();
                either(rng, Update::AddEdge { u: x, v: x }, Update::RemoveVertex { vertex: x })
            }
            _ => {
                batch.push(Update::AddVertex { label: Label(rng.random_range(0..7)) });
                sim.apply(&batch[batch.len() - 1]).unwrap();
                let c = VertexId(slots);
                either(rng, Update::RemoveEdge { u: c, v: x }, Update::AddEdge { u: c, v: c })
            }
        }
    }

    /// Every read of `g` equals the same read of `twin`.
    fn assert_same_reads(g: &DynamicGraph, twin: &DynamicGraph) {
        assert_eq!(g.vertex_slots(), twin.vertex_slots());
        assert_eq!(g.live_vertex_count(), twin.live_vertex_count());
        assert_eq!(g.edge_count(), twin.edge_count());
        assert_eq!(g.delta_ops(), twin.delta_ops());
        assert_eq!(g.label_space(), twin.label_space());
        for v in (0..g.vertex_slots() as u32).map(VertexId) {
            assert_eq!(g.label(v), twin.label(v), "label of {v:?}");
            assert_eq!(g.is_live(v), twin.is_live(v), "liveness of {v:?}");
            assert_eq!(g.neighbors(v), twin.neighbors(v), "neighbors of {v:?}");
            assert!(g.label_runs(v).eq(twin.label_runs(v)), "runs of {v:?}");
            assert_eq!(g.signature(v), twin.signature(v), "word of {v:?}");
        }
        for l in (0..=g.label_space() as u32).map(Label) {
            let (mut ours, mut theirs) = (Vec::new(), Vec::new());
            g.live_vertices_with_label(l, &mut ours);
            twin.live_vertices_with_label(l, &mut theirs);
            assert_eq!(ours, theirs, "live vertices with {l:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]

        /// A batch with one malformed update of each kind, at a random
        /// position after a valid prefix and before a valid suffix, returns
        /// the error sequential `apply` meets first and leaves every read
        /// equal to a twin's that never saw it — and the two stay equal
        /// through further batches and a compaction.
        #[test]
        fn a_rejected_batch_reads_like_a_twin_that_never_saw_it(
            seed in any::<u64>(),
            n in 4usize..16,
            kind in 0u32..6,
            prefix in 0usize..10,
            suffix in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = GraphBuilder::new();
            for _ in 0..n {
                b.add_vertex(Label(rng.random_range(0..5)));
            }
            for _ in 0..2 * n {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                if u != v {
                    b.add_edge(VertexId::from(u), VertexId::from(v)).unwrap();
                }
            }
            // A history, so the batch meets patched, unpatched and
            // tombstoned slots alike.
            let mut g = DynamicGraph::new(b.build());
            let (history, mut batch) = (rng.random_range(0..12), Vec::new());
            valid_run(&mut g.clone(), &mut rng, history, &mut batch);
            g.apply_batch(&batch).unwrap();

            let mut twin = g.clone();
            let mut sim = g.clone();
            let mut batch = Vec::new();
            valid_run(&mut sim, &mut rng, prefix, &mut batch);
            let bad = malformed(kind, &mut sim, &mut rng, &mut batch);
            prop_assert!(sim.apply(&bad).is_err(), "{bad:?} is valid");
            batch.push(bad);
            valid_run(&mut sim, &mut rng, suffix, &mut batch);

            let mut sequential = g.clone();
            let want = batch.iter().map(|up| sequential.apply(up)).find_map(Result::err);
            let got = g.apply_batch(&batch).err();
            prop_assert!(got.is_some(), "{batch:?} accepted");
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_same_reads(&g, &twin);

            for round in 0..3 {
                let mut batch = Vec::new();
                valid_run(&mut twin.clone(), &mut rng, 6, &mut batch);
                let ours = g.apply_batch(&batch).unwrap();
                let theirs = twin.apply_batch(&batch).unwrap();
                prop_assert_eq!(format!("{ours:?}"), format!("{theirs:?}"));
                assert_same_reads(&g, &twin);
                if round == 1 {
                    prop_assert_eq!(format!("{:?}", g.compact()), format!("{:?}", twin.compact()));
                    assert_same_reads(&g, &twin);
                }
            }
        }
    }

    /// Under a policy that never compacts, 50 000 updates — among them a
    /// hub gaining and losing hundreds of edges — leave the arena within
    /// four times the largest degree each patched slot ever had, and a
    /// compaction empties it.
    #[test]
    fn the_arena_stays_within_four_times_the_patched_degrees() {
        let n = 1_000u32;
        let mut b = GraphBuilder::new();
        for v in 0..n {
            b.add_vertex(Label(v % 4));
        }
        for v in 0..n {
            b.add_edge(VertexId(v), VertexId((v + 1) % n)).unwrap();
        }
        let mut g = DynamicGraph::new(b.build());
        let hub = VertexId(0);
        let mut max_degree: Vec<usize> = (0..n).map(|v| g.degree(VertexId(v))).collect();
        let mut rng = StdRng::seed_from_u64(28);
        let never = CompactionPolicy::never();
        for op in 0..50_000 {
            let gaining = (op / 2_500) % 2 == 0;
            let up = match valid_update(&g, &mut rng) {
                Update::RemoveVertex { vertex } if vertex == hub => continue,
                _ if rng.random_bool(0.5) && gaining => {
                    Update::AddEdge { u: hub, v: any_live(&g, &mut rng) }
                }
                _ if rng.random_bool(0.5) && g.degree(hub) > 0 => Update::RemoveEdge {
                    u: hub,
                    v: g.neighbors(hub)[rng.random_range(0..g.degree(hub))],
                },
                up => up,
            };
            // `AddEdge { u: hub, v: hub }` is the one malformed draw.
            if g.apply_batch(&[up]).is_err() {
                continue;
            }
            max_degree.resize(g.vertex_slots(), 0);
            if let Update::AddEdge { u, v } = up {
                for x in [u, v] {
                    max_degree[x.index()] = max_degree[x.index()].max(g.degree(x));
                }
            }
            if op % 1_000 == 999 {
                let bound: usize = (0..g.vertex_slots())
                    .filter(|&v| g.patch_of[v] != UNPATCHED)
                    .map(|v| 4 * max_degree[v])
                    .sum();
                assert!(g.arena.len() <= bound, "op {op}: arena {} > {bound}", g.arena.len());
                assert!(g.maybe_compact(&never).is_none());
            }
        }
        assert!(max_degree[hub.index()] >= 300, "the hub peaked at {}", max_degree[hub.index()]);
        g.compact();
        assert!(g.arena.is_empty() && g.extents.is_empty());
    }

    #[test]
    fn compact_resets_delta_and_renumbers_densely() {
        let mut g = DynamicGraph::new(base());
        let nv = g.add_vertex(Label(2)).unwrap();
        g.add_edge(nv, VertexId(1)).unwrap();
        g.remove_vertex(VertexId(0)).unwrap();
        let report = g.compact();
        assert_eq!(report.live_vertices, 4);
        assert_eq!(report.mapping[0], None);
        assert_eq!(report.mapping[1], Some(VertexId(0)));
        assert_eq!(report.mapping[4], Some(VertexId(3)));
        assert_eq!(g.delta_ops(), 0);
        assert_eq!(g.patched_vertices(), 0);
        assert_eq!(g.compactions(), 1);
        assert_eq!(g.vertex_slots(), 4);
        assert_eq!(g.base().edge_count(), g.edge_count());
        assert_sorted(&g);
    }

    #[test]
    fn compaction_policy_thresholds() {
        let p = CompactionPolicy { min_delta_ops: 4, delta_ratio: 0.5 };
        assert_eq!(p.threshold(4), 4);
        assert_eq!(p.threshold(100), 50);
        let mut g = DynamicGraph::new(base());
        assert!(g.maybe_compact(&p).is_none());
        for i in 0..5u32 {
            g.add_vertex(Label(i % 3)).unwrap();
        }
        // 5 ops >= max(4, ceil(0.5 * 4)) = 4: compacts.
        assert!(g.maybe_compact(&p).is_some());
        assert!(CompactionPolicy::never().threshold(1_000_000) == usize::MAX);
    }
}
