//! The one backtracking search.
//!
//! Every preprocessing-enumeration algorithm in this crate enumerates
//! embeddings the same way once its candidate sets `Φ` and matching order are
//! fixed: extend a partial embedding along the order, taking for the next
//! query vertex `u` only candidates that are (a) in `Φ(u)`, (b) unused, and
//! (c) adjacent in `G` to the images of all already-mapped neighbors of `u`.
//! [`enumerate_in_order`] is that shared step behind
//! [`Matcher::enumerate`](crate::Matcher::enumerate): it computes the order
//! under an `Order` span and runs the [`Enumerator`] under an `Enumerate`
//! span. The [`Enumerator`] is generic over a [`SearchSpace`]: a static pair
//! `(&Graph, &CandidateSpace)`, or the mutable overlay of
//! [`dynmatch`](crate::dynmatch), where `v ∈ Φ(u)` is the NLF test. **Pins**,
//! a partial assignment the search must extend, are the first depths of the
//! order with one candidate each, kept only if it passes (a)–(c).
//!
//! The local candidate set of a depth is computed in one shot as a multi-way
//! sorted-set intersection: the label-restricted data adjacencies
//! `N(φ(w), L(u))` of *all* mapped backward neighbors `w`, smallest list
//! first with early exit on empty, filtered by `Φ(u)` membership (a word at
//! a time where the space has adjacency rows). A pairwise step probes the
//! hub adjacency bitmap when the mapped vertex has a row, and otherwise runs
//! the linear merge [`intersect::retain_merge`]. Results land
//! in per-depth scratch buffers owned by the enumerator, so steady-state
//! candidate generation performs no allocation — the only allocation on the
//! search path is materializing an [`Embedding`] when a match is reported.
//!
//! The pre-kernel per-candidate probing enumeration is kept in this module's
//! tests as the reference the one path is checked against, over both spaces.

use std::cell::Cell;

use sqp_graph::{intersect, AdjacencyRows, Graph, Label, VertexId};

use crate::candidates::{CandidateSpace, MatchingOrder};
use crate::deadline::{Deadline, TickChecker, Timeout};
use crate::embedding::Embedding;
use crate::obs::{Phase, Span};
use crate::stats::MatchingStats;

/// The enumeration phase every order-based matcher shares: computes the
/// matching order under an [`Order`](Phase::Order) span, then enumerates up
/// to `limit` embeddings under an [`Enumerate`](Phase::Enumerate) span whose
/// item count is the number found. An empty `Φ(u)` finds nothing without a
/// search.
pub fn enumerate_in_order(
    q: &Graph,
    g: &Graph,
    space: &CandidateSpace,
    order: impl FnOnce() -> MatchingOrder,
    limit: u64,
    deadline: Deadline,
    on_match: &mut dyn FnMut(&Embedding),
) -> Result<u64, Timeout> {
    let order = {
        let _span = Span::enter(Phase::Order, deadline);
        order()
    };
    let mut span = Span::enter(Phase::Enumerate, deadline);
    if space.any_empty() {
        return Ok(0);
    }
    let found = Enumerator::new(q, (g, space), &order).run(&[], limit, deadline, on_match)?;
    span.add_items(found);
    Ok(found)
}

/// What the search asks of a data graph and its candidate sets `Φ`.
pub trait SearchSpace {
    /// One past the largest data-vertex id a candidate can have.
    fn slots(&self) -> usize;
    /// The neighbors of `v` carrying `label`, ascending by id.
    fn adjacent(&self, v: VertexId, label: Label) -> &[VertexId];
    /// Whether `v ∈ Φ(u)`.
    fn contains(&self, u: VertexId, v: VertexId) -> bool;
    /// Fills the empty `buf` with `Φ(u)`, ascending: the candidates of a
    /// depth with no mapped neighbor (the root, or another component's).
    fn roots(&self, u: VertexId, buf: &mut Vec<VertexId>);
    /// `Φ(u)`'s membership bitmap and the adjacency rows, where the space
    /// has both: the word-at-a-time path.
    fn rows(&self, _u: VertexId) -> Option<(&[u64], &AdjacencyRows)> {
        None
    }
}

/// A static data graph and the candidate space a filter left on it.
impl SearchSpace for (&Graph, &CandidateSpace) {
    fn slots(&self) -> usize {
        self.0.vertex_count()
    }
    #[inline]
    fn adjacent(&self, v: VertexId, label: Label) -> &[VertexId] {
        self.0.neighbors_with_label(v, label)
    }
    #[inline]
    fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.1.contains(u, v)
    }
    fn roots(&self, u: VertexId, buf: &mut Vec<VertexId>) {
        buf.extend_from_slice(self.1.set(u));
    }
    #[inline]
    fn rows(&self, u: VertexId) -> Option<(&[u64], &AdjacencyRows)> {
        Some((self.1.row(u), self.0.adjacency_rows()))
    }
}

/// Working memory of one [`Enumerator`], kept per thread so that a database
/// scan (one enumerator per surviving data graph) allocates nothing once the
/// buffers have grown to the largest pair seen: [`Enumerator::new`] takes it,
/// dropping the enumerator gives it back. An enumerator made while another
/// holds the scratch — from inside an `on_match` callback — simply gets
/// fresh buffers.
///
/// Only `used` is carried from one run to the next, all `false`: every
/// extension unmarks what it marked, timeout or not. A panic in `on_match`
/// leaves `dirty` set, so the next run clears it first.
#[derive(Default)]
struct SearchScratch {
    /// Matching orders of one query, each with the backward lists the
    /// search derives from it, back to back: plan `i` visits
    /// `order[i·n..(i + 1)·n]`, and its depth `d` has the backward neighbors
    /// — the query neighbors of its vertex mapped earlier, earliest first —
    /// `bw_data[bw_offsets[i·(n + 1) + d]..bw_offsets[i·(n + 1) + d + 1]]`.
    order: Vec<VertexId>,
    bw_offsets: Vec<u32>,
    bw_data: Vec<VertexId>,
    /// Per query vertex, its depth in the order being planned.
    pos: Vec<u32>,
    /// Per-depth local-candidate buffers.
    bufs: Vec<Vec<VertexId>>,
    /// One entry per backward neighbor of the current depth: its adjacency
    /// row (and 0) on the word path, the length of its label-restricted
    /// adjacency and its index in the backward list on the list path.
    bw_order: Vec<(u32, u32)>,
    mapping: Vec<VertexId>,
    used: Vec<bool>,
    /// Whether a run is in progress, or was unwound with marks in `used`.
    dirty: bool,
    /// Recycled match-report buffer.
    report: Embedding,
}

thread_local! {
    static SCRATCH: Cell<SearchScratch> = Cell::new(SearchScratch::default());
}

/// Backtracking enumerator over a [`SearchSpace`] and a matching order.
pub struct Enumerator<'a, S: SearchSpace> {
    q: &'a Graph,
    pub(crate) space: S,
    scratch: SearchScratch,
    /// The plan `run` searches along.
    pub(crate) plan: usize,
    /// One tick per extension attempt, counted across runs.
    ticker: TickChecker,
    /// Counters of the last `run`.
    stats: MatchingStats,
}

impl<S: SearchSpace> Drop for Enumerator<'_, S> {
    fn drop(&mut self) {
        let _ = SCRATCH.try_with(|s| s.set(std::mem::take(&mut self.scratch)));
    }
}

impl<'a, S: SearchSpace> Enumerator<'a, S> {
    /// Prepares an enumerator over `space` along `order`, a permutation of
    /// `V(q)`. A vertex with no earlier neighbor in `order` starts another
    /// component: its candidates are [`SearchSpace::roots`].
    pub fn new(q: &'a Graph, space: S, order: &MatchingOrder) -> Self {
        let mut e = Self::unplanned(q, space);
        e.add_plan(order.as_slice().iter().copied());
        e
    }

    /// An enumerator without a plan: [`add_plan`](Self::add_plan) one
    /// before the first `run`.
    pub(crate) fn unplanned(q: &'a Graph, space: S) -> Self {
        let mut scratch = SCRATCH.with(Cell::take);
        scratch.order.clear();
        scratch.bw_offsets.clear();
        scratch.bw_data.clear();
        Self {
            q,
            space,
            scratch,
            plan: 0,
            ticker: TickChecker::new(),
            stats: MatchingStats::default(),
        }
    }

    /// Adds the plan of `order`, another permutation of `V(q)`, and returns
    /// its number, the value of [`plan`](Self::plan) that selects it.
    pub(crate) fn add_plan(&mut self, order: impl IntoIterator<Item = VertexId>) -> usize {
        let SearchScratch { order: seq, bw_offsets, bw_data, pos, .. } = &mut self.scratch;
        let start = seq.len();
        seq.extend(order);
        let order = &seq[start..];
        pos.resize(self.q.vertex_count(), 0); // a permutation: every entry is written
        for (i, &u) in order.iter().enumerate() {
            pos[u.index()] = i as u32;
        }
        bw_offsets.push(bw_data.len() as u32);
        for (i, &u) in order.iter().enumerate() {
            let start = bw_data.len();
            bw_data.extend(self.q.neighbors(u).iter().filter(|w| pos[w.index()] < i as u32));
            // Deterministic order: earliest-mapped first.
            bw_data[start..].sort_unstable_by_key(|w| pos[w.index()]);
            bw_offsets.push(bw_data.len() as u32);
        }
        bw_offsets.len() / (order.len() + 1) - 1
    }

    /// Enumerates embeddings up to `limit`, invoking `on_match` for each.
    /// Returns the number found.
    ///
    /// `pins[d]` is the one candidate of depth `d`, for the first
    /// `pins.len()` depths of the order; it is kept only if it passes
    /// every test an extension passes. Static searches pass `&[]`.
    ///
    /// Kernel counters of the run are flushed into the deadline's
    /// [`ExecCtx`](crate::ExecCtx) (if any), even when the run times out.
    pub fn run(
        &mut self,
        pins: &[VertexId],
        limit: u64,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&Embedding),
    ) -> Result<u64, Timeout> {
        self.stats = MatchingStats::default();
        let n = self.q.vertex_count();
        if n == 0 {
            return Ok(0);
        }
        let slots = self.space.slots();
        let SearchScratch { bufs, mapping, used, dirty, .. } = &mut self.scratch;
        mapping.resize(n, VertexId(u32::MAX)); // a depth reads earlier ones only
        if std::mem::replace(dirty, true) {
            used.fill(false);
        }
        if used.len() < slots {
            used.resize(slots, false);
        }
        if bufs.len() < n {
            bufs.resize_with(n, Vec::new);
        }
        let mut state = SearchState { found: 0, limit, pins };
        let result = self.descend(0, &mut state, deadline, on_match);
        self.scratch.dirty = false;
        self.stats.embeddings = state.found;
        deadline.ctx().record(&self.stats.kernel());
        result?;
        Ok(state.found)
    }

    /// Backtracking calls performed by the last `run`.
    pub fn recursions(&self) -> u64 {
        self.stats.recursions
    }

    /// Counters of the last `run`.
    pub fn stats(&self) -> MatchingStats {
        self.stats
    }

    fn descend(
        &mut self,
        depth: usize,
        state: &mut SearchState,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&Embedding),
    ) -> Result<(), Timeout> {
        self.stats.recursions += 1;
        let u = self.scratch.order[self.plan * self.q.vertex_count() + depth];
        // Take this depth's buffer out of the scratch so candidate
        // collection and the extension loop below can borrow `self` freely;
        // it is returned before unwinding the recursion, so each buffer is
        // reused (no allocation in the steady state).
        let mut buf = std::mem::take(&mut self.scratch.bufs[depth]);
        buf.clear();
        self.collect_candidates(depth, u, state.pins.get(depth).copied(), &mut buf);
        let result = self.extend(depth, u, &buf, state, deadline, on_match);
        self.scratch.bufs[depth] = buf;
        result
    }

    /// Computes the local candidate set for `order[depth]` into `buf`: exactly
    /// the feasible candidates (`Φ(u)` ∩ all backward adjacencies), ascending
    /// by id — of a pinned depth, the pin if it is one of them.
    fn collect_candidates(
        &mut self,
        depth: usize,
        u: VertexId,
        pin: Option<VertexId>,
        buf: &mut Vec<VertexId>,
    ) {
        let Self { q, space, scratch, plan, stats, .. } = self;
        let SearchScratch { bw_offsets: bw, bw_data, bw_order, mapping, .. } = scratch;
        let at = *plan * (q.vertex_count() + 1) + depth;
        let backward = &bw_data[bw[at] as usize..bw[at + 1] as usize];
        let label = q.label(u);
        let mapped = |w: &VertexId| mapping[w.index()];
        if let Some(v) = pin {
            let adjacent = |w| space.adjacent(mapped(w), label).binary_search(&v).is_ok();
            if space.contains(u, v) && backward.iter().all(adjacent) {
                buf.push(v);
            }
            return;
        }
        if backward.is_empty() {
            space.roots(u, buf);
            return;
        }

        // Every mapped backward neighbor has an adjacency row: the local
        // candidates are `Φ(u) & ⋂ adj(φ(w))`, a word at a time. Every
        // candidate carries label L(u), so the full adjacency selects what
        // the label-restricted one would.
        let rows = space.rows(u);
        if let Some((phi, rows)) = rows {
            bw_order.clear();
            bw_order.extend(
                backward.iter().map_while(|w| rows.row(mapped(w)).map(|row| (row as u32, 0))),
            );
            if bw_order.len() == backward.len() {
                stats.intersections += backward.len() as u64 - 1;
                stats.bitmap_probes += (phi.len() * backward.len()) as u64;
                for (i, &members) in phi.iter().enumerate() {
                    let mut word = bw_order
                        .iter()
                        .fold(members, |word, &(row, _)| word & rows.words(row as usize)[i]);
                    while word != 0 {
                        buf.push(VertexId((i * 64) as u32 + word.trailing_zeros()));
                        word &= word - 1;
                    }
                }
                return;
            }
        }

        // Order the backward adjacencies by length, smallest first, keeping
        // hold of the smallest: with one backward neighbor, the common case,
        // its label run is looked up once.
        bw_order.clear();
        let mut seed: &[VertexId] = &[];
        for (bi, w) in backward.iter().enumerate() {
            let adj = space.adjacent(mapped(w), label);
            if bw_order.iter().all(|&(len, _)| adj.len() < len as usize) {
                seed = adj;
            }
            bw_order.push((adj.len() as u32, bi as u32));
        }
        bw_order.sort_unstable();

        // Seed from the smallest adjacency, filtered by `Φ(u)` membership.
        stats.bitmap_probes += seed.len() as u64;
        buf.extend(seed.iter().copied().filter(|&v| space.contains(u, v)));

        // Intersect the remaining adjacencies, ascending by length, with
        // early exit once the accumulator empties.
        for &(_, bi) in &bw_order[1..] {
            if buf.is_empty() {
                return;
            }
            stats.intersections += 1;
            // Row probes when the mapped vertex has a row, otherwise the
            // merge against its sorted list.
            let w = mapped(&backward[bi as usize]);
            if let Some((rows, row)) = rows.and_then(|(_, rows)| Some((rows, rows.row(w)?))) {
                stats.bitmap_probes += buf.len() as u64;
                buf.retain(|&v| rows.contains(row, v));
            } else {
                intersect::retain_merge(buf, space.adjacent(w, label));
            }
        }
    }

    /// Tries every candidate in `buf` at `depth`: exactly one deadline tick
    /// per extension attempt. Marks in `used` are undone on every return.
    fn extend(
        &mut self,
        depth: usize,
        u: VertexId,
        buf: &[VertexId],
        state: &mut SearchState,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&Embedding),
    ) -> Result<(), Timeout> {
        for &v in buf {
            self.ticker.tick(deadline)?;
            let SearchScratch { mapping, used, report, .. } = &mut self.scratch;
            if used[v.index()] {
                continue;
            }
            mapping[u.index()] = v;
            if depth + 1 == self.q.vertex_count() {
                state.found += 1;
                report.copy_from(mapping);
                debug_assert!(admits(self.q, &self.space, report.as_slice()));
                on_match(report);
            } else {
                used[v.index()] = true;
                let result = self.descend(depth + 1, state, deadline, on_match);
                self.scratch.used[v.index()] = false;
                result?;
            }
            if state.found >= state.limit {
                return Ok(());
            }
        }
        Ok(())
    }
}

struct SearchState<'p> {
    found: u64,
    limit: u64,
    pins: &'p [VertexId],
}

/// Whether `mapping` is an embedding of `q` that `space` admits: injective,
/// each image in its `Φ`, each query edge on a data edge. Pairwise, so that
/// the search's debug assertion does not allocate.
fn admits(q: &Graph, space: &impl SearchSpace, mapping: &[VertexId]) -> bool {
    q.vertices().all(|u| {
        let v = mapping[u.index()];
        !mapping[..u.index()].contains(&v)
            && space.contains(u, v)
            && q.neighbors(u)
                .iter()
                .all(|w| space.adjacent(mapping[w.index()], q.label(u)).binary_search(&v).is_ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::deadline::{ExecCtx, ResourceLimits};
    use crate::dynmatch::{search_order, Overlay};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sqp_graph::{DynamicGraph, GraphBuilder, NeighborhoodLabelFrequency};

    /// The pre-kernel enumeration, kept as the reference the one path is
    /// checked against: scan the smallest backward adjacency and test each
    /// candidate with a binary search in `Φ(u)` plus per-neighbor `has_edge`
    /// probes. One deadline tick per extension attempt, like the real thing.
    struct Reference<'a> {
        q: &'a Graph,
        g: &'a Graph,
        space: &'a CandidateSpace,
        order: &'a [VertexId],
        mapping: Vec<VertexId>,
        used: Vec<bool>,
        found: u64,
        limit: u64,
        ticker: TickChecker,
    }

    impl Reference<'_> {
        fn run(
            q: &Graph,
            g: &Graph,
            space: &CandidateSpace,
            order: &MatchingOrder,
            limit: u64,
            deadline: Deadline,
            on_match: &mut dyn FnMut(&Embedding),
        ) -> Result<u64, Timeout> {
            if q.vertex_count() == 0 || space.any_empty() {
                return Ok(0);
            }
            let mut r = Reference {
                q,
                g,
                space,
                order: order.as_slice(),
                mapping: vec![VertexId(u32::MAX); q.vertex_count()],
                used: vec![false; g.vertex_count()],
                found: 0,
                limit,
                ticker: TickChecker::new(),
            };
            r.descend(0, deadline, on_match)?;
            Ok(r.found)
        }

        fn descend(
            &mut self,
            depth: usize,
            deadline: Deadline,
            on_match: &mut dyn FnMut(&Embedding),
        ) -> Result<(), Timeout> {
            let (q, g) = (self.q, self.g);
            let u = self.order[depth];
            let backward: Vec<VertexId> = q
                .neighbors(u)
                .iter()
                .copied()
                .filter(|w| self.order[..depth].contains(w))
                .collect();
            let pivot = backward
                .iter()
                .map(|w| g.neighbors_with_label(self.mapping[w.index()], q.label(u)))
                .min_by_key(|adj| adj.len());
            for &v in pivot.unwrap_or(self.space.set(u)) {
                self.ticker.tick(deadline)?;
                if self.used[v.index()]
                    || !self.space.contains_search(u, v)
                    || backward.iter().any(|w| !g.has_edge(v, self.mapping[w.index()]))
                {
                    continue;
                }
                self.mapping[u.index()] = v;
                if depth + 1 == q.vertex_count() {
                    self.found += 1;
                    on_match(&Embedding::new(self.mapping.clone()));
                } else {
                    self.used[v.index()] = true;
                    self.descend(depth + 1, deadline, on_match)?;
                    self.used[v.index()] = false;
                }
                self.mapping[u.index()] = VertexId(u32::MAX);
                if self.found >= self.limit {
                    return Ok(());
                }
            }
            Ok(())
        }
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

    fn full_space(q: &Graph, g: &Graph) -> CandidateSpace {
        // Label-only candidates: complete by construction.
        CandidateSpace::new(
            q.vertices().map(|u| g.vertices_with_label(q.label(u)).to_vec()).collect(),
        )
    }

    fn id_order(q: &Graph) -> MatchingOrder {
        MatchingOrder::new(q.vertices().collect())
    }

    /// Embeddings in emission order, up to `limit`.
    fn emitted(
        run: impl FnOnce(&mut dyn FnMut(&Embedding)) -> Result<u64, Timeout>,
    ) -> Vec<Embedding> {
        let mut got = Vec::new();
        let found = run(&mut |e| got.push(e.clone())).unwrap();
        assert_eq!(found, got.len() as u64);
        got
    }

    /// What a fresh enumerator over `space` emits along `order`, up to
    /// `limit`, and its counters.
    fn searched(
        q: &Graph,
        space: impl SearchSpace,
        order: &MatchingOrder,
        limit: u64,
    ) -> (Vec<Embedding>, MatchingStats) {
        let mut e = Enumerator::new(q, space, order);
        let got = emitted(|on| e.run(&[], limit, Deadline::none(), on));
        (got, e.stats())
    }

    /// Which branch of `collect_candidates` a random instance is built for.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Rows {
        /// Every data vertex has an adjacency row: the word path.
        All,
        /// None has: sorted lists only.
        None,
        /// Half of them have: row probes and sorted lists in one
        /// intersection, and the word path where the mapped ones all do.
        Mixed,
        /// The overlay of [`dynmatch`](crate::dynmatch): no rows, NLF
        /// dominance for `Φ`, live label-mates for roots.
        Overlay,
    }

    /// A random `(q, g, space, order)`: the space is a random subset of the
    /// label-compatible vertices per query vertex, the order any permutation
    /// of `V(q)` (a vertex without an earlier neighbor starts a component).
    ///
    /// `Rows::All` is a near-complete graph on 90 vertices with the query
    /// induced by four of them (almost always a `K4`: two or three backward
    /// neighbors per depth). `Rows::None` is a sparse 20-vertex graph padded
    /// with isolated vertices until no degree can reach `4·⌈n/64⌉`.
    /// `Rows::Mixed` is a clique of 45 heavy vertices, each light vertex
    /// between them on a ring of lights with two heavy neighbors (degree 4).
    /// `Rows::Overlay` is [`arb_overlay`], the last field its overlay.
    fn arb_instance(seed: u64, rows: Rows) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, q) = match rows {
            Rows::Overlay => return arb_overlay(&mut rng),
            Rows::All => {
                let g = brute::random_graph(&mut rng, 90, 90 * 89 * 2, 2);
                let picked: Vec<u32> =
                    (0..4).map(|i| rng.random_range(i * 20..(i + 1) * 20)).collect();
                let labels: Vec<u32> = picked.iter().map(|&v| g.label(VertexId(v)).0).collect();
                let edges: Vec<(u32, u32)> = (0..4u32)
                    .flat_map(|a| (a + 1..4).map(move |b| (a, b)))
                    .filter(|&(a, b)| {
                        g.has_edge(VertexId(picked[a as usize]), VertexId(picked[b as usize]))
                    })
                    .collect();
                let q = labeled(&labels, &edges);
                (g, q)
            }
            Rows::None => {
                let mut labels: Vec<u32> = (0..20).map(|_| rng.random_range(0..2)).collect();
                let edges: Vec<(u32, u32)> = (0..60)
                    .map(|_| (rng.random_range(0..20), rng.random_range(0..20)))
                    .filter(|(a, b)| a != b)
                    .collect();
                labels.resize(320, 7);
                let mut b = GraphBuilder::new();
                for &l in &labels {
                    b.add_vertex(Label(l));
                }
                for (u, v) in edges {
                    let _ = b.add_edge(VertexId(u), VertexId(v));
                }
                let g = b.build();
                let q = brute::random_connected_query(&mut rng, &g, 4);
                (g, q)
            }
            Rows::Mixed => {
                let mut b = GraphBuilder::new();
                for _ in 0..90 {
                    b.add_vertex(Label(rng.random_range(0..2)));
                }
                for u in (0..90u32).step_by(2) {
                    for v in (u + 2..90).step_by(2) {
                        b.add_edge(VertexId(u), VertexId(v)).unwrap();
                    }
                    let light = u + 1;
                    b.add_edge(VertexId(light), VertexId((light + 2) % 90)).unwrap();
                    for _ in 0..2 {
                        let heavy = 2 * rng.random_range(0..45u32);
                        let _ = b.add_edge(VertexId(light), VertexId(heavy));
                    }
                }
                let g = b.build();
                let q = brute::random_connected_query(&mut rng, &g, 4);
                (g, q)
            }
        };
        let with_row = g.vertices().filter(|&v| g.adjacency_rows().row(v).is_some()).count();
        let expected = match rows {
            Rows::All => g.vertex_count(),
            Rows::None => 0,
            Rows::Mixed => 45,
            Rows::Overlay => unreachable!("returned above"),
        };
        assert_eq!(with_row, expected, "{rows:?}: vertices with an adjacency row");
        let sets = q
            .vertices()
            .map(|u| {
                let all = g.vertices_with_label(q.label(u));
                let kept: Vec<VertexId> =
                    all.iter().copied().filter(|_| !rng.random_bool(0.125)).collect();
                if kept.is_empty() {
                    all.to_vec()
                } else {
                    kept
                }
            })
            .collect();
        let mut order: Vec<VertexId> = q.vertices().collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        (q, g, CandidateSpace::new(sets), MatchingOrder::new(order), None)
    }

    type Instance = (Graph, Graph, CandidateSpace, MatchingOrder, Option<DynamicGraph>);

    /// A sparse 30-vertex overlay churned by adds only, so slots keep their
    /// ids and `materialize` is the identity, and a query cut from it. The
    /// order is the overlay's own; the reference runs on the materialized
    /// graph with `Φ(u)` the label-mates that pass the NLF test, computed
    /// fresh there.
    fn arb_overlay(rng: &mut StdRng) -> Instance {
        let mut dg = DynamicGraph::new(brute::random_graph(rng, 30, 60, 3));
        for _ in 0..20 {
            let slots = dg.vertex_slots() as u32;
            if rng.random_bool(0.2) {
                dg.add_vertex(Label(rng.random_range(0..3))).unwrap();
            } else {
                let (a, b) = (rng.random_range(0..slots), rng.random_range(0..slots));
                let _ = dg.add_edge(VertexId(a), VertexId(b)); // a self-loop fails closed
            }
        }
        let (g, identity) = dg.materialize();
        assert!(identity.iter().enumerate().all(|(slot, m)| *m == Some(VertexId(slot as u32))));
        let q = brute::random_connected_query(rng, &g, 4);
        let sets = q
            .vertices()
            .map(|u| {
                let want = NeighborhoodLabelFrequency::of(&q, u);
                let mates = g.vertices_with_label(q.label(u)).iter().copied();
                mates
                    .filter(|&v| want.dominated_by(&NeighborhoodLabelFrequency::of(&g, v)))
                    .collect()
            })
            .collect();
        let unpinned = search_order(&Overlay::new(&q, &dg), &vec![false; q.vertex_count()]);
        let order = MatchingOrder::new(unpinned.into_iter().map(VertexId::from).collect());
        (q, g, CandidateSpace::new(sets), order, Some(dg))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one path emits exactly what the per-candidate probing
        /// reference emits, in the same order — so the first match (the vcFV
        /// verifier's answer) is the same embedding too — whichever of its
        /// three ways the local candidates are computed, and over the
        /// overlay as over a static graph.
        #[test]
        fn matches_reference_in_emission_order(seed in any::<u64>(), rows in 0usize..4) {
            let rows = [Rows::All, Rows::None, Rows::Mixed, Rows::Overlay][rows];
            let (q, g, space, order, overlay) = arb_instance(seed, rows);
            // The dense instances have millions of embeddings; a prefix pins
            // the order just as well.
            let limit = if matches!(rows, Rows::None | Rows::Overlay) { u64::MAX } else { 300 };
            let d = Deadline::none();
            let (got, stats) = match &overlay {
                Some(dg) => searched(&q, Overlay::new(&q, dg), &order, limit),
                None => searched(&q, (&g, &space), &order, limit),
            };
            let want = emitted(|on| Reference::run(&q, &g, &space, &order, limit, d, on));
            prop_assert_eq!(got, want);
            if rows == Rows::All {
                prop_assert!(q.edge_count() < 4 || stats.intersections > 0, "{:?}", stats);
            }
        }
    }

    #[test]
    fn triangle_in_triangle() {
        let q = labeled(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        let g = labeled(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        let space = full_space(&q, &g);
        let order = id_order(&q);
        let mut e = Enumerator::new(&q, (&g, &space), &order);
        // 3! = 6 automorphic embeddings.
        assert_eq!(e.run(&[], u64::MAX, Deadline::none(), &mut |_| {}).unwrap(), 6);
        assert!(e.recursions() > 0);
        assert_eq!(e.stats().embeddings, 6);
    }

    #[test]
    fn respects_limit() {
        let q = labeled(&[0, 0], &[(0, 1)]);
        let g = labeled(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        let space = full_space(&q, &g);
        let order = id_order(&q);
        let mut e = Enumerator::new(&q, (&g, &space), &order);
        assert_eq!(e.run(&[], 2, Deadline::none(), &mut |_| {}).unwrap(), 2);
        let first = emitted(|on| e.run(&[], 1, Deadline::none(), on));
        assert!(first[0].is_valid(&q, &g));
    }

    #[test]
    fn no_match_when_label_missing() {
        let q = labeled(&[5], &[]);
        let g = labeled(&[0, 1], &[(0, 1)]);
        let space = full_space(&q, &g);
        let order = id_order(&q);
        let mut e = Enumerator::new(&q, (&g, &space), &order);
        assert_eq!(e.run(&[], u64::MAX, Deadline::none(), &mut |_| {}).unwrap(), 0);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let g = brute::random_graph(&mut rng, 8, 12, 3);
            let q = brute::random_connected_query(&mut rng, &g, 3);
            let mut exp = brute::enumerate_all(&q, &g);
            exp.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
            let space = full_space(&q, &g);
            let order = id_order(&q);
            let mut e = Enumerator::new(&q, (&g, &space), &order);
            let mut got = emitted(|on| e.run(&[], u64::MAX, Deadline::none(), on));
            got.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
            assert_eq!(got, exp);
        }
    }

    #[test]
    fn stats_flush_to_deadline_sink() {
        let q = labeled(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        let g = labeled(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]);
        let space = full_space(&q, &g);
        let order = id_order(&q);
        let sink = ExecCtx::new();
        let d = Deadline::none().with_ctx(sink);
        let mut e = Enumerator::new(&q, (&g, &space), &order);
        e.run(&[], u64::MAX, d, &mut |_| {}).unwrap();
        let snap = sink.snapshot();
        assert_eq!(snap, e.stats().kernel());
        assert!(snap.intersections > 0, "triangle query must intersect at depth 2");
    }

    #[test]
    fn timeout_propagates() {
        // A query with many embeddings and an already-expired deadline.
        let q = labeled(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let g = {
            let labels = vec![0u32; 30];
            let mut edges = Vec::new();
            for u in 0..30u32 {
                for v in (u + 1)..30 {
                    edges.push((u, v));
                }
            }
            labeled(&labels, &edges)
        };
        let space = full_space(&q, &g);
        let order = id_order(&q);
        let mut e = Enumerator::new(&q, (&g, &space), &order);
        let d = Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        assert_eq!(e.run(&[], u64::MAX, d, &mut |_| {}), Err(Timeout));
    }

    #[test]
    fn single_tick_per_extension() {
        // Path query P_32 on cycle C_64, one label. Extension attempts:
        // 64 at depth 0, 128 at depth 1, then 2·64 branches × 2 attempts for
        // each of the 30 remaining depths = 64 + 128 + 7,680 = 7,872 ticks —
        // under two tick intervals (8,192), so a max_steps budget of 4,096
        // (which trips strictly *after* 8,192 charged ticks) completes.
        // The former double tick added one tick per descend call
        // (1 + 64 + 128·30 = 3,905 more, 11,777 total) and would have
        // tripped that budget. One tick per extension attempt is the
        // contract; the reference keeps it too.
        let m: u32 = 64; // cycle length
        let k: u32 = 32; // query path length
        let q = {
            let labels = vec![0u32; k as usize];
            let edges: Vec<(u32, u32)> = (0..k - 1).map(|i| (i, i + 1)).collect();
            labeled(&labels, &edges)
        };
        let g = {
            let labels = vec![0u32; m as usize];
            let edges: Vec<(u32, u32)> = (0..m).map(|i| (i, (i + 1) % m)).collect();
            labeled(&labels, &edges)
        };
        let space = full_space(&q, &g);
        let order = id_order(&q);
        let guard = ExecCtx::new();
        let d = Deadline::none().with_ctx(guard);
        // 2 directions × 64 starting vertices.
        guard.arm(ResourceLimits::unlimited().with_max_steps(4096));
        let found = Enumerator::new(&q, (&g, &space), &order).run(&[], u64::MAX, d, &mut |_| {});
        assert_eq!(found, Ok(2 * m as u64), "must fit the step budget");
        assert!(guard.tripped().is_none());
        guard.arm(ResourceLimits::unlimited().with_max_steps(4096));
        let found = Reference::run(&q, &g, &space, &order, u64::MAX, d, &mut |_| {});
        assert_eq!(found, Ok(2 * m as u64), "the reference ticks at the same rate");
        assert!(guard.tripped().is_none());
    }

    #[test]
    fn rows_used_on_high_degree_graphs() {
        // A graph with two 80-degree hubs: the intersection at the leaf goes
        // through their adjacency rows.
        let n: u32 = 80;
        let mut labels = vec![9u32, 9]; // two hubs
        labels.extend(std::iter::repeat_n(0u32, n as usize));
        let mut edges = vec![(0u32, 1u32)];
        for v in 0..n {
            edges.push((0, v + 2));
            edges.push((1, v + 2));
        }
        let g = labeled(&labels, &edges);
        // Triangle query: hub, hub, leaf.
        let q = labeled(&[9, 9, 0], &[(0, 1), (0, 2), (1, 2)]);
        let space = full_space(&q, &g);
        let order = id_order(&q);
        let d = Deadline::none();
        let mut e = Enumerator::new(&q, (&g, &space), &order);
        let got = emitted(|on| e.run(&[], u64::MAX, d, on));
        let want = emitted(|on| Reference::run(&q, &g, &space, &order, u64::MAX, d, on));
        assert_eq!(got, want);
        assert!(!got.is_empty());
        let stats = e.stats();
        assert!(stats.bitmap_probes > 0, "hub-heavy graph must exercise bitmap probes: {stats:?}");
        assert!(g.adjacency_rows_built().is_some(), "the enumerator must have built the sidecar");
    }
}
