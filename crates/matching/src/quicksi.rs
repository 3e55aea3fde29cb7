//! QuickSI (Shang, Zhang, Lin & Yu, PVLDB 2008).
//!
//! A direct-enumeration algorithm (§II-B2) built around the *QI-sequence*:
//! a minimum spanning tree of the query graph weighted by how infrequent
//! each edge's label pair is in the data graph, so that rare structures are
//! matched first. Unlike the preprocessing-enumeration algorithms, QuickSI
//! keeps only per-vertex label/degree candidates (no global refinement) —
//! which is why the paper classifies it with VF2 and Ullmann.
//!
//! Implemented as a [`Matcher`] whose `filter` is the plain label+degree
//! candidate computation (so it slots into the vcFV harness as another
//! direct-enumeration baseline) and whose enumeration follows the
//! QI-sequence order.

use sqp_graph::hash::FxHashMap;
use sqp_graph::{Graph, Label, VertexId};

use crate::candidates::{CandidateSpace, FilterResult, MatchingOrder};
use crate::deadline::{Deadline, Timeout};
use crate::embedding::Embedding;
use crate::enumerate::enumerate_in_order;
use crate::obs::{Phase, Span};
use crate::Matcher;

/// The QuickSI matcher.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuickSi;

impl QuickSi {
    /// A new QuickSI matcher.
    pub fn new() -> Self {
        Self
    }

    /// Frequencies of `(label, label)` edge patterns in `g` (unordered
    /// pairs, each undirected edge counted once).
    fn edge_pattern_frequencies(g: &Graph) -> FxHashMap<(Label, Label), u32> {
        let mut freq: FxHashMap<(Label, Label), u32> = FxHashMap::default();
        for u in g.vertices() {
            for &w in g.neighbors(u) {
                if u < w {
                    let (a, b) = (g.label(u).min(g.label(w)), g.label(u).max(g.label(w)));
                    *freq.entry((a, b)).or_insert(0) += 1;
                }
            }
        }
        freq
    }

    /// The QI-sequence: a Prim-style minimum spanning tree order over the
    /// query, edge-weighted by data-graph pattern frequency, starting from
    /// the vertex with the rarest label.
    pub fn qi_sequence(q: &Graph, g: &Graph) -> MatchingOrder {
        let freq = Self::edge_pattern_frequencies(g);
        let weight = |u: VertexId, w: VertexId| -> u64 {
            let (a, b) = (q.label(u).min(q.label(w)), q.label(u).max(q.label(w)));
            freq.get(&(a, b)).copied().unwrap_or(0) as u64
        };
        let n = q.vertex_count();
        let start = q
            .vertices()
            .min_by_key(|&u| (g.label_frequency(q.label(u)), usize::MAX - q.degree(u), u))
            .expect("non-empty query");
        let mut order = vec![start];
        let mut placed = vec![false; n];
        placed[start.index()] = true;
        while order.len() < n {
            // Cheapest tree edge from the placed set; fall back to any
            // unplaced vertex for disconnected queries.
            let next = q
                .vertices()
                .filter(|&u| !placed[u.index()])
                .filter_map(|u| {
                    q.neighbors(u)
                        .iter()
                        .filter(|w| placed[w.index()])
                        .map(|&w| weight(u, w))
                        .min()
                        .map(|w| (w, u))
                })
                .min();
            let u = match next {
                Some((_, u)) => u,
                None => q.vertices().find(|&u| !placed[u.index()]).expect("vertices remain"),
            };
            placed[u.index()] = true;
            order.push(u);
        }
        MatchingOrder::new(order)
    }
}

impl Matcher for QuickSi {
    fn name(&self) -> &'static str {
        "QuickSI"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        deadline.check_entry()?;
        let mut filter_span = Span::enter(Phase::Filter, deadline);
        let mut sets = Vec::with_capacity(q.vertex_count());
        for u in q.vertices() {
            let set: Vec<VertexId> = g
                .vertices_with_label(q.label(u))
                .iter()
                .copied()
                .filter(|&v| g.degree(v) >= q.degree(u))
                .collect();
            if set.is_empty() {
                return Ok(FilterResult::Pruned);
            }
            sets.push(set);
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
        enumerate_in_order(q, g, space, || Self::qi_sequence(q, g), limit, deadline, on_match)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqp_graph::GraphBuilder;

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
    fn counts_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(71);
        let qsi = QuickSi::new();
        for trial in 0..40 {
            let g = brute::random_graph(&mut rng, 9, 15, 3);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let expected = brute::enumerate_all(&q, &g).len() as u64;
            let got = qsi.count(&q, &g, u64::MAX, Deadline::none()).unwrap();
            assert_eq!(got, expected, "trial {trial}");
        }
    }

    #[test]
    fn qi_sequence_starts_rare_and_stays_connected() {
        // Data: many label-0 vertices, one label-5. Query contains both.
        let g = labeled(&[0, 0, 0, 5, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let q = labeled(&[0, 5, 0], &[(0, 1), (1, 2)]);
        let order = QuickSi::qi_sequence(&q, &g);
        let seq = order.as_slice();
        // Starts at the rare label-5 query vertex.
        assert_eq!(q.label(seq[0]), Label(5));
        // Every later vertex neighbors an earlier one.
        for (i, &u) in seq.iter().enumerate().skip(1) {
            assert!(q.neighbors(u).iter().any(|w| seq[..i].contains(w)));
        }
    }

    #[test]
    fn pattern_frequencies_count_each_edge_once() {
        let g = labeled(&[0, 1, 1], &[(0, 1), (0, 2)]);
        let f = QuickSi::edge_pattern_frequencies(&g);
        assert_eq!(f[&(Label(0), Label(1))], 2);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn filter_prunes_missing_labels() {
        let g = labeled(&[0, 1], &[(0, 1)]);
        let q = labeled(&[9], &[]);
        assert!(QuickSi::new().filter(&q, &g, Deadline::none()).unwrap().is_pruned());
    }
}
