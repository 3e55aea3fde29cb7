//! The shared backtracking enumerator.
//!
//! Every preprocessing-enumeration algorithm in this crate enumerates
//! embeddings the same way once its candidate sets `Φ` and matching order are
//! fixed: extend a partial embedding along the order, taking for the next
//! query vertex `u` only candidates that are (a) in `Φ(u)`, (b) unused, and
//! (c) adjacent in `G` to the images of all already-mapped neighbors of `u`.
//! [`enumerate_in_order`] is that shared step behind
//! [`Matcher::enumerate`](crate::Matcher::enumerate): it computes the order
//! under an `Order` span and runs the [`Enumerator`] under an `Enumerate`
//! span.
//!
//! The local candidate set of a depth is computed in one shot as a multi-way
//! sorted-set intersection: the label-restricted data adjacencies
//! `N(φ(w), L(u))` of *all* mapped backward neighbors `w`, smallest list
//! first with early exit on empty, filtered by the `Φ(u)` membership bitmap.
//! A pairwise step probes the hub adjacency bitmap when the mapped vertex has
//! a row, and otherwise runs [`intersect::retain_auto`] (galloping on skewed
//! lengths, the SIMD block kernel on balanced ones, the scalar merge below
//! its floor). Results land in per-depth scratch buffers owned by the
//! enumerator, so steady-state candidate generation performs no allocation —
//! the only allocation on the search path is materializing an [`Embedding`]
//! when a match is reported.
//!
//! The forced single-kernel variants live where they are real —
//! `sqp_graph::intersect::retain_{merge,gallop,simd,auto}`, with their own
//! agreement tests — and the pre-kernel per-candidate probing enumeration is
//! kept in this module's tests as the reference the one path is checked
//! against (same embeddings, same emission order).

use std::cell::Cell;

use sqp_graph::{intersect, Graph, VertexId};

use crate::candidates::{CandidateSpace, MatchingOrder};
use crate::deadline::{Deadline, TickChecker, Timeout};
use crate::embedding::Embedding;
use crate::obs::{Phase, Span};
use crate::stats::MatchingStats;

/// The enumeration phase every order-based matcher shares: computes the
/// matching order under an [`Order`](Phase::Order) span, then enumerates up
/// to `limit` embeddings under an [`Enumerate`](Phase::Enumerate) span whose
/// item count is the number found.
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
    let found = Enumerator::new(q, g, space, &order).run(limit, deadline, on_match)?;
    span.add_items(found);
    Ok(found)
}

/// Working memory of one [`Enumerator`], kept per thread so that a database
/// scan (one enumerator per surviving data graph) allocates nothing once the
/// buffers have grown to the largest pair seen: [`Enumerator::new`] takes it,
/// dropping the enumerator gives it back. An enumerator made while another
/// holds the scratch — from inside an `on_match` callback — simply gets
/// fresh buffers.
///
/// Nothing is carried from one enumerator to the next: every field is
/// re-initialised before it is read, whatever the previous one — finished,
/// timed out or unwound by a panic in `on_match` — left behind.
#[derive(Default)]
struct SearchScratch {
    /// Per query vertex, its depth in the matching order.
    pos: Vec<u32>,
    /// Depth `d`'s backward neighbors — the query neighbors of `order[d]`
    /// mapped earlier, earliest first — are
    /// `bw_data[bw_offsets[d]..bw_offsets[d + 1]]`.
    bw_offsets: Vec<u32>,
    bw_data: Vec<VertexId>,
    /// Per-depth local-candidate buffers.
    bufs: Vec<Vec<VertexId>>,
    /// Output buffer for SIMD intersection steps (their stores are not
    /// in-place); swapped with the accumulator after each step.
    simd_scratch: Vec<VertexId>,
    /// One entry per backward neighbor of the current depth: its adjacency
    /// row (and 0) on the word path, the length of its label-restricted
    /// adjacency and its index in the backward list on the list path.
    bw_order: Vec<(u32, u32)>,
    mapping: Vec<VertexId>,
    used: Vec<bool>,
    /// Recycled match-report buffer.
    report: Embedding,
}

thread_local! {
    static SCRATCH: Cell<SearchScratch> = Cell::new(SearchScratch::default());
}

/// Backtracking enumerator over a [`CandidateSpace`] and [`MatchingOrder`].
pub struct Enumerator<'a> {
    q: &'a Graph,
    g: &'a Graph,
    space: &'a CandidateSpace,
    order: &'a MatchingOrder,
    scratch: SearchScratch,
    /// Counters of the last `run`.
    stats: MatchingStats,
}

impl Drop for Enumerator<'_> {
    fn drop(&mut self) {
        let _ = SCRATCH.try_with(|s| s.set(std::mem::take(&mut self.scratch)));
    }
}

impl<'a> Enumerator<'a> {
    /// Prepares an enumerator; `order` must be a permutation of `V(q)` such
    /// that each non-first vertex has at least one earlier neighbor
    /// (guaranteed by all ordering strategies on connected queries).
    pub fn new(
        q: &'a Graph,
        g: &'a Graph,
        space: &'a CandidateSpace,
        order: &'a MatchingOrder,
    ) -> Self {
        let mut scratch = SCRATCH.with(Cell::take);
        let SearchScratch { pos, bw_offsets, bw_data, .. } = &mut scratch;
        let seq = order.as_slice();
        pos.clear();
        pos.resize(q.vertex_count(), u32::MAX);
        for (i, &u) in seq.iter().enumerate() {
            pos[u.index()] = i as u32;
        }
        bw_offsets.clear();
        bw_data.clear();
        bw_offsets.push(0);
        for (i, &u) in seq.iter().enumerate() {
            let start = bw_data.len();
            bw_data.extend(q.neighbors(u).iter().copied().filter(|w| pos[w.index()] < i as u32));
            // Deterministic order: earliest-mapped first.
            bw_data[start..].sort_unstable_by_key(|w| pos[w.index()]);
            bw_offsets.push(bw_data.len() as u32);
        }
        Self { q, g, space, order, scratch, stats: MatchingStats::default() }
    }

    /// Enumerates embeddings up to `limit`, invoking `on_match` for each.
    /// Returns the number found.
    ///
    /// Kernel counters of the run are flushed into the deadline's
    /// [`StatsSink`](crate::StatsSink) (if any), even when the run times out.
    pub fn run(
        &mut self,
        limit: u64,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&Embedding),
    ) -> Result<u64, Timeout> {
        self.stats = MatchingStats::default();
        let n = self.q.vertex_count();
        if n == 0 {
            return Ok(0);
        }
        if self.space.any_empty() {
            return Ok(0);
        }
        let SearchScratch { bufs, mapping, used, .. } = &mut self.scratch;
        mapping.clear();
        mapping.resize(n, VertexId(u32::MAX));
        used.clear();
        used.resize(self.g.vertex_count(), false);
        if bufs.len() < n {
            bufs.resize_with(n, Vec::new);
        }
        let mut state = SearchState { found: 0, limit, ticker: TickChecker::new() };
        let result = self.descend(0, &mut state, deadline, on_match);
        self.stats.embeddings = state.found;
        deadline.stats().record(&self.stats.kernel());
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
        let u = self.order.as_slice()[depth];
        // Take this depth's buffer out of the scratch so candidate
        // collection and the extension loop below can borrow `self` freely;
        // it is returned before unwinding the recursion, so each buffer is
        // reused (no allocation in the steady state).
        let mut buf = std::mem::take(&mut self.scratch.bufs[depth]);
        buf.clear();
        self.collect_candidates(depth, u, &mut buf);
        let result = self.extend(depth, u, &buf, state, deadline, on_match);
        self.scratch.bufs[depth] = buf;
        result
    }

    /// Computes the local candidate set for `order[depth]` into `buf`: exactly
    /// the feasible candidates (`Φ(u)` ∩ all backward adjacencies), ascending
    /// by id.
    fn collect_candidates(&mut self, depth: usize, u: VertexId, buf: &mut Vec<VertexId>) {
        let Self { q, g, space, scratch, stats, .. } = self;
        let SearchScratch { bw_offsets, bw_data, bw_order, simd_scratch, mapping, .. } = scratch;
        let backward = &bw_data[bw_offsets[depth] as usize..bw_offsets[depth + 1] as usize];
        if backward.is_empty() {
            // Root of the order (or of a new component): every Φ(u) member.
            buf.extend_from_slice(space.set(u));
            return;
        }

        // Every mapped backward neighbor has an adjacency row: the local
        // candidates are `Φ(u) & ⋂ adj(φ(w))`, a word at a time. Every
        // candidate carries label L(u), so the full adjacency selects what
        // the label-restricted one would.
        let rows = g.adjacency_rows();
        bw_order.clear();
        bw_order.extend(
            backward.iter().map_while(|w| rows.row(mapping[w.index()]).map(|row| (row as u32, 0))),
        );
        if bw_order.len() == backward.len() {
            let phi = space.row(u);
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
        let label = q.label(u);
        let mapped = |bi: u32| mapping[backward[bi as usize].index()];

        // Order the backward adjacencies by length, smallest first, keeping
        // hold of the smallest: with one backward neighbor, the common case,
        // its label run is looked up once.
        bw_order.clear();
        let mut seed: &[VertexId] = &[];
        for bi in 0..backward.len() as u32 {
            let adj = g.neighbors_with_label(mapped(bi), label);
            if bw_order.iter().all(|&(len, _)| adj.len() < len as usize) {
                seed = adj;
            }
            bw_order.push((adj.len() as u32, bi));
        }
        bw_order.sort_unstable();

        // Seed from the smallest adjacency, filtered by the Φ(u) bitmap.
        stats.bitmap_probes += seed.len() as u64;
        buf.extend(seed.iter().copied().filter(|&v| space.contains(u, v)));

        // Intersect the remaining adjacencies, ascending by length, with
        // early exit once the accumulator empties.
        for &(_, bi) in &bw_order[1..] {
            if buf.is_empty() {
                return;
            }
            stats.intersections += 1;
            // Row probes when the mapped vertex has a row, otherwise
            // adaptive gallop/SIMD/merge against its sorted list.
            let w = mapped(bi);
            if let Some(row) = rows.row(w) {
                stats.bitmap_probes += buf.len() as u64;
                buf.retain(|&v| rows.contains(row, v));
            } else {
                let adj = g.neighbors_with_label(w, label);
                match intersect::retain_auto(buf, adj, simd_scratch) {
                    intersect::AutoChoice::Gallop => stats.gallop_hits += 1,
                    intersect::AutoChoice::Simd => stats.simd_hits += 1,
                    intersect::AutoChoice::Merge | intersect::AutoChoice::Noop => {}
                }
            }
        }
    }

    /// Tries every candidate in `buf` at `depth`: exactly one deadline tick
    /// per extension attempt.
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
            state.ticker.tick(deadline)?;
            let SearchScratch { mapping, used, report, .. } = &mut self.scratch;
            if used[v.index()] {
                continue;
            }
            mapping[u.index()] = v;
            if depth + 1 == self.q.vertex_count() {
                state.found += 1;
                report.copy_from(mapping);
                debug_assert!(report.is_valid(self.q, self.g));
                on_match(report);
            } else {
                used[v.index()] = true;
                self.descend(depth + 1, state, deadline, on_match)?;
                self.scratch.used[v.index()] = false;
            }
            self.scratch.mapping[u.index()] = VertexId(u32::MAX);
            if state.found >= state.limit {
                return Ok(());
            }
        }
        Ok(())
    }
}

struct SearchState {
    found: u64,
    limit: u64,
    ticker: TickChecker,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::deadline::{ResourceGuard, ResourceLimits, StatsSink};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sqp_graph::{GraphBuilder, Label};

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
    fn arb_instance(seed: u64, rows: Rows) -> (Graph, Graph, CandidateSpace, MatchingOrder) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, q) = match rows {
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
        (q, g, CandidateSpace::new(sets), MatchingOrder::new(order))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one path emits exactly what the per-candidate probing
        /// reference emits, in the same order — so the first match (the vcFV
        /// verifier's answer) is the same embedding too — whichever of its
        /// three ways the local candidates are computed.
        #[test]
        fn matches_reference_in_emission_order(seed in any::<u64>(), rows in 0usize..3) {
            let rows = [Rows::All, Rows::None, Rows::Mixed][rows];
            let (q, g, space, order) = arb_instance(seed, rows);
            // The dense instances have millions of embeddings; a prefix pins
            // the order just as well.
            let limit = if rows == Rows::None { u64::MAX } else { 300 };
            let d = Deadline::none();
            let mut e = Enumerator::new(&q, &g, &space, &order);
            let got = emitted(|on| e.run(limit, d, on));
            let want = emitted(|on| Reference::run(&q, &g, &space, &order, limit, d, on));
            prop_assert_eq!(got, want);
            let stats = e.stats();
            if rows == Rows::All {
                // Every mapped vertex has a row: no sorted-list kernel runs.
                prop_assert_eq!(stats.gallop_hits + stats.simd_hits, 0, "{:?}", stats);
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
        let mut e = Enumerator::new(&q, &g, &space, &order);
        // 3! = 6 automorphic embeddings.
        assert_eq!(e.run(u64::MAX, Deadline::none(), &mut |_| {}).unwrap(), 6);
        assert!(e.recursions() > 0);
        assert_eq!(e.stats().embeddings, 6);
    }

    #[test]
    fn respects_limit() {
        let q = labeled(&[0, 0], &[(0, 1)]);
        let g = labeled(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        let space = full_space(&q, &g);
        let order = id_order(&q);
        let mut e = Enumerator::new(&q, &g, &space, &order);
        assert_eq!(e.run(2, Deadline::none(), &mut |_| {}).unwrap(), 2);
        let first = emitted(|on| e.run(1, Deadline::none(), on));
        assert!(first[0].is_valid(&q, &g));
    }

    #[test]
    fn no_match_when_label_missing() {
        let q = labeled(&[5], &[]);
        let g = labeled(&[0, 1], &[(0, 1)]);
        let space = full_space(&q, &g);
        let order = id_order(&q);
        let mut e = Enumerator::new(&q, &g, &space, &order);
        assert_eq!(e.run(u64::MAX, Deadline::none(), &mut |_| {}).unwrap(), 0);
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
            let mut e = Enumerator::new(&q, &g, &space, &order);
            let mut got = emitted(|on| e.run(u64::MAX, Deadline::none(), on));
            got.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
            assert_eq!(got, exp);
        }
    }

    #[test]
    fn hit_counters_never_exceed_intersections() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let g = brute::random_graph(&mut rng, 20, 60, 2);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let space = full_space(&q, &g);
            let order = id_order(&q);
            let mut e = Enumerator::new(&q, &g, &space, &order);
            e.run(u64::MAX, Deadline::none(), &mut |_| {}).unwrap();
            let stats = e.stats();
            assert!(stats.gallop_hits + stats.simd_hits <= stats.intersections, "{stats:?}");
        }
    }

    #[test]
    fn stats_flush_to_deadline_sink() {
        let q = labeled(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        let g = labeled(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]);
        let space = full_space(&q, &g);
        let order = id_order(&q);
        let sink = StatsSink::new();
        let d = Deadline::none().with_stats(sink);
        let mut e = Enumerator::new(&q, &g, &space, &order);
        e.run(u64::MAX, d, &mut |_| {}).unwrap();
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
        let mut e = Enumerator::new(&q, &g, &space, &order);
        let d = Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        assert_eq!(e.run(u64::MAX, d, &mut |_| {}), Err(Timeout));
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
        let guard = ResourceGuard::new();
        let d = Deadline::none().with_guard(guard);
        // 2 directions × 64 starting vertices.
        guard.reset(ResourceLimits::unlimited().with_max_steps(4096));
        let found = Enumerator::new(&q, &g, &space, &order).run(u64::MAX, d, &mut |_| {});
        assert_eq!(found, Ok(2 * m as u64), "must fit the step budget");
        assert!(guard.tripped().is_none());
        guard.reset(ResourceLimits::unlimited().with_max_steps(4096));
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
        let mut e = Enumerator::new(&q, &g, &space, &order);
        let got = emitted(|on| e.run(u64::MAX, d, on));
        let want = emitted(|on| Reference::run(&q, &g, &space, &order, u64::MAX, d, on));
        assert_eq!(got, want);
        assert!(!got.is_empty());
        let stats = e.stats();
        assert!(stats.bitmap_probes > 0, "hub-heavy graph must exercise bitmap probes: {stats:?}");
        assert_eq!(stats.gallop_hits + stats.simd_hits, 0, "{stats:?}");
        assert!(g.adjacency_rows_built().is_some(), "the enumerator must have built the sidecar");
    }
}
