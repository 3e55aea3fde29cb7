//! Neighborhood label frequency (NLF) signatures.
//!
//! The NLF of a vertex `v` maps each label `l` to the number of neighbors of
//! `v` carrying `l`. A data vertex `v` can only match a query vertex `u` if
//! `NLF(u) ⊑ NLF(v)` (component-wise `≤`): every embedding must map `u`'s
//! neighbors injectively onto distinct, label-preserving neighbors of `v`.
//! Both the GraphQL profile filter and the CFL initial candidate filter are
//! instances of this test.
//!
//! A [`Graph`]'s per-vertex label-run index *is* its NLF
//! ([`Graph::label_runs`]): `(label, run length)` ascending by label. Every
//! dominance test here is the same linear merge over two such run sequences
//! ([`runs_dominated`]); none of them loads an adjacency list or a
//! neighbor's label. A [`DynamicGraph`](crate::dynamic::DynamicGraph) keeps
//! the same runs beside each patched adjacency list
//! ([`label_runs`](crate::dynamic::DynamicGraph::label_runs)).

use crate::graph::Graph;
use crate::label::Label;
use crate::vertex::VertexId;

/// Whether the `(label, count)` runs `q` are dominated by the runs `g`
/// (`q ⊑ g` component-wise). Both sequences must ascend strictly by label.
#[inline]
pub fn runs_dominated(
    q: impl IntoIterator<Item = (Label, u32)>,
    g: impl IntoIterator<Item = (Label, u32)>,
) -> bool {
    let mut g = g.into_iter();
    'query: for (l, c) in q {
        for (gl, gc) in g.by_ref() {
            if gl < l {
                continue;
            }
            if gl == l && gc >= c {
                continue 'query;
            }
            return false;
        }
        return false;
    }
    true
}

/// A sorted neighbor-label multiset, stored as `(label, count)` runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborhoodLabelFrequency {
    runs: Vec<(Label, u32)>,
}

impl NeighborhoodLabelFrequency {
    /// Computes the NLF of vertex `v` in `g`.
    pub fn of(g: &Graph, v: VertexId) -> Self {
        Self { runs: g.label_runs(v).collect() }
    }

    /// `(label, count)` runs, sorted by label.
    pub fn runs(&self) -> &[(Label, u32)] {
        &self.runs
    }

    /// Whether `self ⊑ other` component-wise (every label count of `self` is
    /// available in `other`).
    pub fn dominated_by(&self, other: &Self) -> bool {
        runs_dominated(self.runs.iter().copied(), other.runs.iter().copied())
    }
}

/// NLF dominance test directly on graphs: a merge over the two vertices'
/// label runs.
///
/// Returns true iff `NLF(u in q) ⊑ NLF(v in g)`.
#[inline]
pub fn nlf_dominated(q: &Graph, u: VertexId, g: &Graph, v: VertexId) -> bool {
    q.degree(u) <= g.degree(v) && runs_dominated(q.label_runs(u), g.label_runs(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn star(center_label: u32, leaf_labels: &[u32]) -> Graph {
        let mut b = GraphBuilder::new();
        let c = b.add_vertex(Label(center_label));
        for &l in leaf_labels {
            let v = b.add_vertex(Label(l));
            b.add_edge(c, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn nlf_runs_sorted_with_counts() {
        let g = star(9, &[1, 0, 1, 2]);
        let nlf = NeighborhoodLabelFrequency::of(&g, VertexId(0));
        assert_eq!(nlf.runs(), &[(Label(0), 1), (Label(1), 2), (Label(2), 1)]);
    }

    #[test]
    fn dominance_basic() {
        let small = star(9, &[0, 1]);
        let big = star(9, &[0, 1, 1, 2]);
        let a = NeighborhoodLabelFrequency::of(&small, VertexId(0));
        let b = NeighborhoodLabelFrequency::of(&big, VertexId(0));
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
        assert!(a.dominated_by(&a));
    }

    #[test]
    fn dominance_fails_on_missing_label() {
        let a = NeighborhoodLabelFrequency::of(&star(9, &[3]), VertexId(0));
        let b = NeighborhoodLabelFrequency::of(&star(9, &[0, 1, 2]), VertexId(0));
        assert!(!a.dominated_by(&b));
    }

    #[test]
    fn streaming_matches_materialized() {
        let q = star(9, &[0, 1, 1]);
        let g = star(9, &[0, 0, 1, 1, 2]);
        assert!(nlf_dominated(&q, VertexId(0), &g, VertexId(0)));
        assert!(!nlf_dominated(&g, VertexId(0), &q, VertexId(0)));
    }

    #[test]
    fn streaming_respects_degree() {
        let q = star(9, &[0, 0]);
        let g = star(9, &[0]);
        assert!(!nlf_dominated(&q, VertexId(0), &g, VertexId(0)));
    }

    #[test]
    fn leaf_vertices_trivially_dominated() {
        let q = star(9, &[0]);
        let g = star(9, &[0, 1]);
        // Leaf u=1 (label 0, one neighbor of label 9).
        assert!(nlf_dominated(&q, VertexId(1), &g, VertexId(1)));
    }
}
