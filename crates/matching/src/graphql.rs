//! GraphQL (He & Singh, SIGMOD 2008) subgraph matching.
//!
//! *Filter* (the preprocessing phase used as the vcFV filter):
//!
//! 1. generate `Φ(u)` from neighborhood profiles — label, degree and
//!    neighbor-label-multiset dominance;
//! 2. prune with the approximate (pseudo) subgraph isomorphism test: keep
//!    `v ∈ Φ(u)` only if the bigraph between `N(u)` and `N(v)` (edge iff
//!    `v' ∈ Φ(u')`) has a semi-perfect matching. As in the paper, pruning
//!    sweeps query vertices in ascending id order; sweeps repeat up to a
//!    configurable round count or until a fixpoint.
//!
//! *Verify* (the enumeration phase): backtracking along the **join-based
//! order** — start from the query vertex with the fewest candidates, then
//! repeatedly pick the neighbor of the selected region with the smallest
//! estimated join size: its candidate count times a reduction factor `γ` per
//! edge into the region.
//!
//! Complexities (paper §III-B): filter time
//! `O(|V(q)| × |V(G)| × Θ(d_q, d_G))` with `Θ` the bigraph matching cost;
//! space `O(|V(q)| × |V(G)|)`.

use std::cell::Cell;

use sqp_graph::nlf::nlf_dominated;
use sqp_graph::{Graph, VertexId};

use crate::bipartite::{has_semi_perfect_matching, Bigraph, MatchingScratch};
use crate::candidates::{CandidateSpace, FilterResult, MatchingOrder};
use crate::deadline::{Deadline, TickChecker, Timeout};
use crate::embedding::Embedding;
use crate::enumerate::enumerate_in_order;
use crate::obs::{Phase, Span};
use crate::Matcher;

/// The GraphQL matcher.
#[derive(Clone, Copy, Debug)]
pub struct GraphQl {
    /// Maximum pseudo-iso pruning sweeps (fixpoint may stop earlier).
    refine_rounds: usize,
}

impl Default for GraphQl {
    fn default() -> Self {
        // Two sweeps of the bigraph pruning; matches the refinement level the
        // original evaluation uses and is where additional sweeps stop paying
        // off (see bench `ablation_pseudo_iso`).
        Self { refine_rounds: 2 }
    }
}

impl GraphQl {
    /// GraphQL with the default pruning depth.
    pub fn new() -> Self {
        Self::default()
    }

    /// GraphQL with a custom number of pruning sweeps (0 = profiles only).
    pub fn with_refine_rounds(refine_rounds: usize) -> Self {
        Self { refine_rounds }
    }

    /// Profile-based initial candidates; `None` once a set comes up empty.
    fn initial_candidates(&self, q: &Graph, g: &Graph) -> Option<Vec<Vec<VertexId>>> {
        let mut sets = Vec::with_capacity(q.vertex_count());
        for u in q.vertices() {
            let set: Vec<VertexId> = g
                .vertices_with_label(q.label(u))
                .iter()
                .copied()
                .filter(|&v| g.degree(v) >= q.degree(u) && nlf_dominated(q, u, g, v))
                .collect();
            if set.is_empty() {
                return None;
            }
            sets.push(set);
        }
        Some(sets)
    }

    /// One pseudo-iso sweep over all query vertices in ascending id order.
    /// Returns whether anything was removed; `sets` stay sorted.
    #[allow(clippy::too_many_arguments)]
    fn pseudo_iso_sweep(
        &self,
        q: &Graph,
        g: &Graph,
        sets: &mut [Vec<VertexId>],
        bigraph: &mut Bigraph,
        scratch: &mut MatchingScratch,
        ticker: &mut TickChecker,
        deadline: Deadline,
    ) -> Result<bool, Timeout> {
        let mut changed = false;
        for u in q.vertices() {
            let nu = q.neighbors(u);
            let mut kept = Vec::with_capacity(sets[u.index()].len());
            // Take the set out to appease the borrow checker; restored below.
            let current = std::mem::take(&mut sets[u.index()]);
            for &v in &current {
                ticker.tick(deadline)?;
                let nv = g.neighbors(v);
                bigraph.reset(nu.len(), nv.len());
                for (i, &qu) in nu.iter().enumerate() {
                    let phi = &sets[qu.index()];
                    let phi_ref: &[VertexId] = if qu == u { &current } else { phi.as_slice() };
                    for (j, &gv) in nv.iter().enumerate() {
                        if gv != v && phi_ref.binary_search(&gv).is_ok() {
                            bigraph.add_edge(i, j);
                        }
                    }
                }
                if has_semi_perfect_matching(bigraph, scratch) {
                    kept.push(v);
                } else {
                    changed = true;
                }
            }
            sets[u.index()] = kept;
        }
        Ok(changed)
    }

    /// The join-based matching order over a candidate space: start from the
    /// vertex with the fewest candidates, then repeatedly take the vertex
    /// adjacent to the selected region with the smallest estimated join size
    /// `|Φ(u)|·γ^b(u)`, where `b(u)` counts the already-selected neighbors of
    /// `u` — each is one more adjacency list the enumerator intersects into
    /// `u`'s local candidates. Ties go to the smaller vertex id.
    pub fn join_order(q: &Graph, space: &CandidateSpace) -> MatchingOrder {
        /// In `joined`, a vertex already in the order.
        const SELECTED: u32 = u32::MAX;
        let n = q.vertex_count();
        // Both work arrays are this thread's from the last call.
        let mut joined = JOINED.with(Cell::take);
        joined.clear();
        joined.resize(n, 0);
        let mut order = MatchingOrder::buffer();
        for _ in 0..n {
            let open = || q.vertices().filter(|u| joined[u.index()] != SELECTED);
            let key = |u: &VertexId| (join_size(space.set(*u).len(), joined[u.index()]), *u);
            // No open vertex touches the region at the start, and again when
            // a disconnected query (not produced by our generators, but stay
            // total) runs out of frontier: any open vertex may start then.
            let u = open()
                .filter(|u| joined[u.index()] > 0)
                .min_by_key(key)
                .or_else(|| open().min_by_key(key))
                .expect("vertices remain");
            joined[u.index()] = SELECTED;
            order.push(u);
            for w in q.neighbors(u) {
                if joined[w.index()] != SELECTED {
                    joined[w.index()] += 1;
                }
            }
        }
        JOINED.with(|j| j.set(joined));
        MatchingOrder::new(order)
    }
}

thread_local! {
    /// [`GraphQl::join_order`]'s count of already-selected neighbors per
    /// query vertex, kept between calls for its buffer.
    static JOINED: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// `log2(1/γ)` of the join-size estimate: one join edge keeps the fraction
/// `γ = ½` of a vertex's candidates. GraphQL's search-order cost model (He &
/// Singh 2008) multiplies a join's size by a constant reduction factor per
/// join edge; on the dense benchmark inputs ½, ¼ and ⅛ give the same search
/// size to within 0.1 % (EXPERIMENTS.md, PR 19), so the constant is not
/// tuned.
const JOIN_EDGE_SHIFT: u32 = 1;

/// `candidates · γ^joined` in 32.32 fixed point: exact up to 32 join edges,
/// so equal estimates tie (and fall to the vertex id) instead of rounding
/// apart.
fn join_size(candidates: usize, joined: u32) -> u64 {
    ((candidates as u64) << 32) >> (JOIN_EDGE_SHIFT * joined).min(32)
}

impl Matcher for GraphQl {
    fn name(&self) -> &'static str {
        "GraphQL"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        deadline.check_entry()?;
        let mut filter_span = Span::enter(Phase::Filter, deadline);
        let Some(mut sets) = self.initial_candidates(q, g) else {
            return Ok(FilterResult::Pruned);
        };
        let mut bigraph = Bigraph::default();
        let mut scratch = MatchingScratch::default();
        let mut ticker = TickChecker::new();
        for _ in 0..self.refine_rounds {
            let changed = self.pseudo_iso_sweep(
                q,
                g,
                &mut sets,
                &mut bigraph,
                &mut scratch,
                &mut ticker,
                deadline,
            )?;
            if sets.iter().any(Vec::is_empty) {
                return Ok(FilterResult::Pruned);
            }
            if !changed {
                break;
            }
        }
        filter_span.add_items(sets.iter().map(|s| s.len() as u64).sum());
        drop(filter_span);
        let _build_span = Span::enter(Phase::BuildCandidates, deadline);
        Ok(FilterResult::Space(CandidateSpace::new(sets)))
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
        enumerate_in_order(q, g, space, || Self::join_order(q, space), limit, deadline, on_match)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::cfql::Cfql;
    use crate::enumerate::Enumerator;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqp_datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
    use sqp_graph::{GraphBuilder, GraphDb, Label};

    /// The join-based order before the join-size estimate, kept as the
    /// reference: the frontier vertex with the fewest candidates, however
    /// many already-selected neighbors constrain it.
    fn size_only_order(q: &Graph, space: &CandidateSpace) -> MatchingOrder {
        let n = q.vertex_count();
        let mut selected = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let start = q.vertices().min_by_key(|&u| (space.set(u).len(), u)).unwrap();
        selected[start.index()] = true;
        order.push(start);
        while order.len() < n {
            let open = || q.vertices().filter(|&u| !selected[u.index()]);
            let u = open()
                .filter(|&u| q.neighbors(u).iter().any(|&w| selected[w.index()]))
                .min_by_key(|&u| (space.set(u).len(), u))
                .or_else(|| open().min_by_key(|&u| (space.set(u).len(), u)))
                .unwrap();
            selected[u.index()] = true;
            order.push(u);
        }
        MatchingOrder::new(order)
    }

    /// Whether `find_first` along `order` finds an embedding, and the
    /// backtracking calls it took.
    fn find_first(
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        order: &MatchingOrder,
    ) -> (bool, u64) {
        let mut e = Enumerator::new(q, (g, space), order);
        let found = e.run(&[], 1, Deadline::none(), &mut |_| {}).unwrap();
        (found == 1, e.recursions())
    }

    /// Total `find_first` recursions over every (query, graph) pair CFQL's
    /// filter keeps, under `join_order` and under the size-only reference.
    fn corpus_recursions(db: &GraphDb, queries: &[Graph]) -> (u64, u64) {
        let (mut join, mut size_only) = (0, 0);
        for q in queries {
            for g in db.graphs() {
                let Some(space) = Cfql::new().filter(q, g, Deadline::none()).unwrap().space()
                else {
                    continue;
                };
                let (found, recursions) = find_first(q, g, &space, &GraphQl::join_order(q, &space));
                let (expected, reference) = find_first(q, g, &space, &size_only_order(q, &space));
                assert_eq!(found, expected);
                join += recursions;
                size_only += reference;
            }
        }
        (join, size_only)
    }

    /// The `dense_cfql` shape of the end-to-end ledger: nothing prunes, every
    /// candidate set is a third of the graph, and what tells query vertices
    /// apart is how many matched neighbors constrain them.
    #[test]
    fn join_order_halves_the_search_where_set_sizes_are_uniform() {
        let db = sqp_datagen::graphgen::generate(6, 100, 3, 16.0, 19);
        let spec = QuerySetSpec { edges: 8, method: QueryGenMethod::Bfs, count: 60 };
        let (join, size_only) = corpus_recursions(&db, &generate_query_set(&db, spec, 20));
        assert!(2 * join <= size_only, "join-size order {join}, size-only order {size_only}");
    }

    /// Sparse data, twice the labels: set sizes already tell the vertices
    /// apart and the frontier rarely holds a vertex with a second join edge.
    #[test]
    fn join_order_costs_nothing_where_set_sizes_decide() {
        let db = sqp_datagen::graphgen::generate(20, 60, 6, 4.0, 21);
        let spec = QuerySetSpec { edges: 8, method: QueryGenMethod::Bfs, count: 60 };
        let (join, size_only) = corpus_recursions(&db, &generate_query_set(&db, spec, 22));
        assert!(10 * join <= 11 * size_only, "join-size order {join}, size-only order {size_only}");
    }

    /// Both orders answer the hard instances; neither is asserted cheaper
    /// per instance (a greedy order is not monotone).
    #[test]
    fn hard_instances_are_answered_under_both_orders() {
        for hard in brute::hard_instances() {
            let (q, g) = (&hard.query, &hard.data);
            let expected = brute::is_subgraph(q, g);
            let Some(space) = Cfql::new().filter(q, g, Deadline::none()).unwrap().space() else {
                assert!(!expected, "{}: pruned", hard.name);
                continue;
            };
            let (found, join) = find_first(q, g, &space, &GraphQl::join_order(q, &space));
            let (reference, size_only) = find_first(q, g, &space, &size_only_order(q, &space));
            assert_eq!(
                (found, reference),
                (expected, expected),
                "{}: {join} recursions under the join-size order, {size_only} under size-only",
                hard.name
            );
        }
    }

    proptest! {
        /// The order is a permutation in which every vertex but the first
        /// has an earlier neighbor, and each step takes the least
        /// `(|Φ|·½^b, id)` of the frontier — checked in floating point, where
        /// these small products are exact too.
        #[test]
        fn join_order_takes_the_least_estimate_then_the_least_id(
            seed in any::<u64>(), uniform in any::<bool>()
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = brute::random_graph(&mut rng, 40, 160, if uniform { 1 } else { 3 });
            let q = brute::random_connected_query(&mut rng, &g, 7);
            let Some(space) = Cfql::new().filter(&q, &g, Deadline::none()).unwrap().space() else {
                return Ok(());
            };
            let order = GraphQl::join_order(&q, &space);
            prop_assert_eq!(&order, &GraphQl::join_order(&q, &space));
            let seq = order.as_slice();
            prop_assert_eq!(seq.len(), q.vertex_count());
            let estimate = |u: VertexId, earlier: &[VertexId]| {
                let joined = q.neighbors(u).iter().filter(|w| earlier.contains(w)).count();
                (joined, space.set(u).len() as f64 * 0.5f64.powi(joined as i32))
            };
            for (i, &u) in seq.iter().enumerate() {
                let (earlier, open) = seq.split_at(i);
                let (joined, chosen) = estimate(u, earlier);
                prop_assert_eq!(joined == 0, i == 0, "{:?} at {}", u, i);
                for &w in &open[1..] {
                    let (w_joined, other) = estimate(w, earlier);
                    if i == 0 || w_joined > 0 {
                        prop_assert!((chosen, u) < (other, w), "{:?} before {:?} at {}", u, w, i);
                    }
                }
            }
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

    #[test]
    fn filter_is_complete() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..40 {
            let g = brute::random_graph(&mut rng, 9, 14, 3);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let oracle = brute::enumerate_all(&q, &g);
            match GraphQl::new().filter(&q, &g, Deadline::none()).unwrap() {
                FilterResult::Pruned => {
                    assert!(oracle.is_empty(), "pruned a graph with embeddings");
                }
                FilterResult::Space(space) => {
                    assert!(space.is_complete_for(&oracle));
                }
            }
        }
    }

    #[test]
    fn pseudo_iso_prunes_something() {
        // Query: path A-B-C. Data vertex with label B but no C neighbor must
        // be pruned from Φ(B).
        let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let g = labeled(&[0, 1, 2, 1, 0], &[(0, 1), (1, 2), (3, 4)]);
        let space = GraphQl::new().filter(&q, &g, Deadline::none()).unwrap().space().unwrap();
        // v3 (label 1) has no label-2 neighbor: excluded already by profiles;
        // Φ(1) must be exactly {v1}.
        assert_eq!(space.set(VertexId(1)), &[VertexId(1)]);
    }

    #[test]
    fn counts_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(22);
        let gql = GraphQl::new();
        for trial in 0..50 {
            let g = brute::random_graph(&mut rng, 9, 16, 3);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let expected = brute::enumerate_all(&q, &g).len() as u64;
            let got = gql.count(&q, &g, u64::MAX, Deadline::none()).unwrap();
            assert_eq!(got, expected, "trial {trial}");
        }
    }

    #[test]
    fn is_subgraph_agrees_with_oracle() {
        let mut rng = StdRng::seed_from_u64(23);
        let gql = GraphQl::new();
        for _ in 0..50 {
            let g = brute::random_graph(&mut rng, 8, 12, 4);
            let q = brute::random_connected_query(&mut rng, &g, 3);
            assert_eq!(
                gql.is_subgraph(&q, &g, Deadline::none()).unwrap(),
                brute::is_subgraph(&q, &g)
            );
        }
    }

    #[test]
    fn join_order_starts_at_rarest() {
        let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let space = CandidateSpace::new(vec![
            vec![VertexId(0), VertexId(1), VertexId(2)],
            vec![VertexId(3), VertexId(4)],
            vec![VertexId(5)],
        ]);
        let order = GraphQl::join_order(&q, &space);
        assert_eq!(order.as_slice()[0], VertexId(2));
        // Each subsequent vertex neighbors an earlier one.
        assert_eq!(order.as_slice(), &[VertexId(2), VertexId(1), VertexId(0)]);
    }

    #[test]
    fn zero_refine_rounds_still_sound() {
        let mut rng = StdRng::seed_from_u64(24);
        let gql = GraphQl::with_refine_rounds(0);
        for _ in 0..20 {
            let g = brute::random_graph(&mut rng, 8, 12, 3);
            let q = brute::random_connected_query(&mut rng, &g, 3);
            assert_eq!(
                gql.is_subgraph(&q, &g, Deadline::none()).unwrap(),
                brute::is_subgraph(&q, &g)
            );
        }
    }
}
