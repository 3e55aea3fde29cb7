//! Mutable overlay over the immutable CSR [`Graph`].
//!
//! The repo's matching stack is built on an immutable CSR whose adjacency
//! lists are sorted by `(neighbor label, neighbor id)`. [`DynamicGraph`]
//! keeps that contract under mutation with a *copy-on-write delta*: the
//! first update touching a vertex copies its base adjacency into a patched,
//! still-sorted list; untouched vertices keep reading the base CSR slices
//! directly. Every neighbor/intersection path therefore sees the same
//! contiguous sorted `&[VertexId]` slices the enumeration kernels were
//! written against — the delta composes with the base instead of wrapping it
//! in a merge iterator.
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
//!   and leave the overlay untouched. [`DynamicGraph::apply_batch`]
//!   additionally pre-validates the whole batch against a lightweight
//!   simulation, so a batch is applied atomically or not at all.
//! * NLF signatures stay exact without per-batch recomputation: an
//!   untouched vertex reads the base's label-run index, a patched one keeps
//!   its `(label, count)` runs beside its list, updated with every insert
//!   and removal ([`DynamicGraph::label_runs`]). Every slot also has those
//!   runs folded into one word ([`DynamicGraph::signature`]), rewritten by
//!   the op that changes the runs: what a search asks before any merge.
//!
//! When the delta grows past a [`CompactionPolicy`] threshold,
//! [`DynamicGraph::compact`] folds it into a fresh densely-renumbered CSR
//! and returns the old→new id mapping so callers (e.g. standing-query
//! embedding stores) can remap. Renumbering is monotone, so every
//! `(label, id)`-sorted list is still sorted after it and the CSR arrays are
//! written directly, without a builder or a re-sort.

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
/// every reader an indirection per patched vertex, two small heap blocks
/// per patch, and slowly grows tombstoned slots; `benches/dynamic.rs`
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
    /// Per slot: its index in `patches`, or [`UNPATCHED`]. Added vertices
    /// are always patched (possibly empty), so unpatched slots are
    /// guaranteed to be base vertices.
    patch_of: Vec<u32>,
    patches: Vec<Patch>,
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

/// The copy-on-write state of one modified vertex: its full adjacency,
/// sorted by `(label, id)`, and that list's `(label, count)` runs — the
/// vertex's NLF, and the index label-restricted reads go through.
#[derive(Clone, Debug, Default)]
struct Patch {
    adj: Vec<VertexId>,
    runs: Vec<(Label, u32)>,
}

impl Patch {
    fn of(base: &Graph, v: VertexId) -> Self {
        // Patched because it is about to change: leave room to grow.
        let mut adj = Vec::with_capacity(base.degree(v) + 2);
        adj.extend_from_slice(base.neighbors(v));
        Self { adj, runs: base.label_runs(v).collect() }
    }

    /// Index in `runs` of the first run with label ≥ `l`, and the offset in
    /// `adj` at which it starts.
    fn locate(&self, l: Label) -> (usize, usize) {
        let mut start = 0;
        for (i, &(rl, count)) in self.runs.iter().enumerate() {
            if rl >= l {
                return (i, start);
            }
            start += count as usize;
        }
        (self.runs.len(), start)
    }

    fn with_label(&self, l: Label) -> &[VertexId] {
        let (i, start) = self.locate(l);
        match self.runs.get(i) {
            Some(&(rl, count)) if rl == l => &self.adj[start..start + count as usize],
            _ => &[],
        }
    }

    /// Inserts neighbor `w` carrying label `l`. Caller guarantees absence.
    fn insert(&mut self, w: VertexId, l: Label) {
        let (i, start) = self.locate(l);
        let before = match self.runs.get_mut(i) {
            Some((rl, count)) if *rl == l => {
                *count += 1;
                *count as usize - 1
            }
            _ => {
                self.runs.insert(i, (l, 1));
                0
            }
        };
        let at = start + self.adj[start..start + before].partition_point(|&x| x < w);
        self.adj.insert(at, w);
    }

    /// Removes neighbor `w` carrying label `l` if present.
    fn remove(&mut self, w: VertexId, l: Label) {
        let (i, start) = self.locate(l);
        let Some(&(rl, count)) = self.runs.get(i) else { return };
        if rl != l {
            return;
        }
        if let Ok(at) = self.adj[start..start + count as usize].binary_search(&w) {
            self.adj.remove(start + at);
            if count == 1 {
                self.runs.remove(i);
            } else {
                self.runs[i].1 -= 1;
            }
        }
    }
}

fn edge_key(u: VertexId, v: VertexId) -> (u32, u32) {
    if u <= v {
        (u.id(), v.id())
    } else {
        (v.id(), u.id())
    }
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
            patches: Vec::new(),
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

    fn patch(&self, v: VertexId) -> Option<&Patch> {
        // `UNPATCHED` is past the end of any `patches`.
        self.patches.get(self.patch_of[v.index()] as usize)
    }

    /// `v`'s patch, copying its base adjacency into the delta on first touch.
    fn patch_mut(&mut self, v: VertexId) -> &mut Patch {
        let at = &mut self.patch_of[v.index()];
        if *at == UNPATCHED {
            *at = self.patches.len() as u32;
            self.patches.push(Patch::of(&self.base, v));
        }
        &mut self.patches[*at as usize]
    }

    /// Applies `edit` to `v`'s patch and rewrites `v`'s signature from the
    /// runs it leaves.
    fn edit_patch(&mut self, v: VertexId, edit: impl FnOnce(&mut Patch)) {
        let patch = self.patch_mut(v);
        edit(patch);
        let signature = nlf::packed(patch.runs.iter().copied());
        self.signatures[v.index()] = signature;
    }

    /// Neighbors of `v`, sorted by `(label, id)` — the base CSR slice for
    /// untouched vertices, the patched list otherwise. Never contains
    /// tombstoned vertices.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.patch(v) {
            Some(p) => &p.adj,
            None => self.base.neighbors(v),
        }
    }

    /// Neighbors of `v` carrying label `l` (contiguous sorted slice), the
    /// intersection-kernel input.
    pub fn neighbors_with_label(&self, v: VertexId, l: Label) -> &[VertexId] {
        match self.patch(v) {
            Some(p) => p.with_label(l),
            None => self.base.neighbors_with_label(v, l),
        }
    }

    /// Whether the undirected edge `e(u, v)` exists (false for unknown or
    /// tombstoned endpoints).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        // A tombstone's list is empty and no live list holds one, so only
        // the id range needs checking before the one run lookup.
        match self.labels.get(v.index()) {
            Some(&lv) if u.index() < self.labels.len() => {
                self.neighbors_with_label(u, lv).binary_search(&v).is_ok()
            }
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
    /// slots). Read off the base's run index or kept with the patched list;
    /// never recomputed from adjacency.
    pub fn label_runs(&self, v: VertexId) -> impl Iterator<Item = (Label, u32)> + '_ {
        let (patched, base) = match self.patch(v) {
            Some(p) => (Some(p.runs.iter().copied()), None),
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
            Some(p) => runs_dominated(query, p.runs.iter().copied()),
            None => runs_dominated(query, self.base.label_runs(v)),
        }
    }

    /// Delta operations absorbed since the last compaction.
    pub fn delta_ops(&self) -> usize {
        self.delta_ops
    }

    /// Vertices with a copy-on-write patched adjacency.
    pub fn patched_vertices(&self) -> usize {
        self.patches.len()
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

    /// Adds a fresh vertex; the new id is the next unused slot.
    pub fn add_vertex(&mut self, label: Label) -> Result<VertexId> {
        if self.labels.len() >= u32::MAX as usize {
            return Err(GraphError::TooManyVertices(self.labels.len() + 1));
        }
        let id = VertexId(self.labels.len() as u32);
        self.labels.push(label);
        self.tombstoned.push(false);
        self.signatures.push(0);
        self.label_space = self.label_space.max(label.index() + 1);
        self.patch_of.push(self.patches.len() as u32);
        self.patches.push(Patch::default());
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
        let (lu, lv) = (self.labels[u.index()], self.labels[v.index()]);
        self.edit_patch(u, |p| p.insert(v, lv));
        self.edit_patch(v, |p| p.insert(u, lu));
        self.edge_count += 1;
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
        let (lu, lv) = (self.labels[u.index()], self.labels[v.index()]);
        self.edit_patch(u, |p| p.remove(v, lv));
        self.edit_patch(v, |p| p.remove(u, lu));
        self.edge_count -= 1;
        self.delta_ops += 1;
        Ok(())
    }

    /// Tombstones `vertex`, severing all its edges; returns the ex-neighbors.
    pub fn remove_vertex(&mut self, vertex: VertexId) -> Result<Vec<VertexId>> {
        self.check_endpoint(vertex)?;
        let severed = std::mem::take(self.patch_mut(vertex)).adj;
        let lv = self.labels[vertex.index()];
        for &w in &severed {
            self.edit_patch(w, |p| p.remove(vertex, lv));
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

    /// Validates a whole batch against a lightweight simulation without
    /// touching the overlay, so [`apply_batch`](Self::apply_batch) is atomic:
    /// the first malformed update rejects the entire batch.
    pub fn validate_batch(&self, updates: &[Update]) -> Result<()> {
        let slots = self.labels.len();
        let mut next = slots as u64;
        // Vertices removed earlier in the batch, ascending; the ones added
        // earlier are `slots..next`.
        let mut removed: Vec<u32> = Vec::new();
        // Every edge op as (edge, position in the batch, is an add). Sorted,
        // the ops on one edge are adjacent and in batch order, so whether a
        // removal finds its edge is decided per edge below instead of
        // against a map of the whole batch.
        let mut edge_ops: Vec<((u32, u32), usize, bool)> = Vec::with_capacity(updates.len());
        let check_live = |removed: &[u32], next: u64, x: VertexId| -> Result<()> {
            if u64::from(x.id()) >= next {
                return Err(GraphError::UnknownVertex {
                    vertex: x.id(),
                    vertex_count: next as usize,
                });
            }
            if (x.index() < slots && self.tombstoned[x.index()])
                || removed.binary_search(&x.id()).is_ok()
            {
                return Err(GraphError::Tombstoned { vertex: x.id() });
            }
            Ok(())
        };
        let mut check = |at: usize, up: &Update| -> Result<()> {
            match *up {
                Update::AddVertex { .. } => {
                    if next >= u64::from(u32::MAX) {
                        return Err(GraphError::TooManyVertices(next as usize + 1));
                    }
                    next += 1;
                }
                Update::AddEdge { u, v } | Update::RemoveEdge { u, v } => {
                    check_live(&removed, next, u)?;
                    check_live(&removed, next, v)?;
                    if u == v {
                        return Err(GraphError::SelfLoop { vertex: u.id() });
                    }
                    edge_ops.push((edge_key(u, v), at, matches!(up, Update::AddEdge { .. })));
                }
                Update::RemoveVertex { vertex } => {
                    check_live(&removed, next, vertex)?;
                    let after = removed.partition_point(|&r| r < vertex.id());
                    removed.insert(after, vertex.id());
                }
            }
            Ok(())
        };
        // The first update that is malformed whatever the edge set holds;
        // edge ops before it are still checked against the edge set below.
        let mut malformed: Option<(usize, GraphError)> =
            updates.iter().enumerate().find_map(|(at, up)| Some((at, check(at, up).err()?)));
        edge_ops.sort_unstable();
        for ops in edge_ops.chunk_by(|a, b| a.0 == b.0) {
            let (a, b) = (VertexId(ops[0].0 .0), VertexId(ops[0].0 .1));
            // `None`: as the overlay has it.
            let mut present: Option<bool> = None;
            for &(_, at, add) in ops {
                if !add && !present.unwrap_or_else(|| self.has_edge(a, b)) {
                    if malformed.as_ref().is_none_or(|&(first, _)| at < first) {
                        // Endpoints in the order the update gave them.
                        if let Update::RemoveEdge { u, v } = updates[at] {
                            let e = GraphError::MissingEdge { u: u.id(), v: v.id() };
                            malformed = Some((at, e));
                        }
                    }
                    break; // later ops on this edge come later in the batch
                }
                present = Some(add);
            }
        }
        malformed.map_or(Ok(()), |(_, e)| Err(e))
    }

    /// Atomically applies a batch: pre-validates every update, then applies
    /// all of them, returning the aggregate effects the continuous-query
    /// repair consumes. On `Err` the overlay is untouched.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchEffects> {
        self.validate_batch(updates)?;
        let mut fx = BatchEffects::default();
        fx.effects.reserve(updates.len());
        let mut touched: Vec<VertexId> = Vec::with_capacity(2 * updates.len());
        for up in updates {
            let effect = self.apply(up)?;
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
        let mut offsets = Vec::with_capacity(self.live_count + 1);
        let mut neighbors = Vec::with_capacity(2 * self.edge_count);
        offsets.push(0u32);
        for v in self.live_vertices() {
            // Live adjacency never references a tombstone: nothing is dropped.
            neighbors.extend(self.neighbors(v).iter().filter_map(|w| mapping[w.index()]));
            offsets.push(neighbors.len() as u32);
        }
        (Graph::from_sorted_csr(labels, offsets, neighbors, self.edge_count), mapping)
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
        self.patches.clear();
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
        // Edge ops are checked per edge after the pass over the batch; the
        // error reported is still the earliest in batch order.
        assert!(matches!(
            g.validate_batch(&[add, missing, unknown]),
            Err(GraphError::MissingEdge { u: 2, v: 0 })
        ));
        assert!(matches!(
            g.validate_batch(&[add, unknown, missing]),
            Err(GraphError::UnknownVertex { vertex: 9, .. })
        ));
        // Each removal sees what the ops before it left of its edge.
        assert!(g.validate_batch(&[add, remove, add, remove]).is_ok());
        assert!(matches!(
            g.validate_batch(&[add, remove, remove, add]),
            Err(GraphError::MissingEdge { u: 3, v: 1 })
        ));
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
