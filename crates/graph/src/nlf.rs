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
//! neighbor's label.

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

    /// Builds a signature from pre-sorted `(label, count)` runs (used by the
    /// incremental [`NlfTable`] to hand out materialized signatures).
    pub fn from_runs(runs: Vec<(Label, u32)>) -> Self {
        debug_assert!(runs.windows(2).all(|w| w[0].0 < w[1].0), "runs must be sorted by label");
        debug_assert!(runs.iter().all(|&(_, c)| c > 0), "runs must have positive counts");
        Self { runs }
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

/// Incrementally-maintained NLF signatures for every vertex of a mutable
/// graph.
///
/// The table mirrors [`NeighborhoodLabelFrequency::of`] for each vertex but
/// is updated in `O(log #distinct-neighbor-labels)` per edge endpoint rather
/// than recomputed, which is what makes per-batch filter maintenance on a
/// [`DynamicGraph`](crate::dynamic::DynamicGraph) cheap. The differential
/// test suite asserts that maintained rows equal freshly-computed signatures
/// after arbitrary update streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NlfTable {
    rows: Vec<Vec<(Label, u32)>>,
}

impl NlfTable {
    /// Computes the full table for `g`.
    pub fn from_graph(g: &Graph) -> Self {
        Self { rows: g.vertices().map(|v| g.label_runs(v).collect()).collect() }
    }

    /// Number of vertex rows.
    pub fn vertex_count(&self) -> usize {
        self.rows.len()
    }

    /// Appends an empty row for a newly-added vertex.
    pub fn push_vertex(&mut self) {
        self.rows.push(Vec::new());
    }

    /// Records a new neighbor of `v` carrying label `l`.
    pub fn add_neighbor(&mut self, v: VertexId, l: Label) {
        let row = &mut self.rows[v.index()];
        match row.binary_search_by_key(&l, |&(rl, _)| rl) {
            Ok(i) => row[i].1 += 1,
            Err(i) => row.insert(i, (l, 1)),
        }
    }

    /// Records the loss of a neighbor of `v` carrying label `l`. A label the
    /// row does not hold is ignored (the caller's graph invariants make this
    /// unreachable; the table stays consistent either way).
    pub fn remove_neighbor(&mut self, v: VertexId, l: Label) {
        let row = &mut self.rows[v.index()];
        if let Ok(i) = row.binary_search_by_key(&l, |&(rl, _)| rl) {
            if row[i].1 <= 1 {
                row.remove(i);
            } else {
                row[i].1 -= 1;
            }
        }
    }

    /// Empties `v`'s row (vertex removal).
    pub fn clear(&mut self, v: VertexId) {
        self.rows[v.index()].clear();
    }

    /// `v`'s `(label, count)` runs, sorted by label.
    pub fn runs(&self, v: VertexId) -> &[(Label, u32)] {
        &self.rows[v.index()]
    }

    /// A materialized signature for `v` (clones the row).
    pub fn signature(&self, v: VertexId) -> NeighborhoodLabelFrequency {
        NeighborhoodLabelFrequency::from_runs(self.rows[v.index()].clone())
    }

    /// Whether the query signature is dominated by `v`'s maintained row
    /// (`query ⊑ NLF(v)`), the candidate test of the GraphQL/CFL filters.
    pub fn dominates(&self, v: VertexId, query: &NeighborhoodLabelFrequency) -> bool {
        runs_dominated(query.runs.iter().copied(), self.rows[v.index()].iter().copied())
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
    fn table_matches_fresh_signatures() {
        let g = star(9, &[1, 0, 1, 2]);
        let t = NlfTable::from_graph(&g);
        for v in g.vertices() {
            assert_eq!(t.runs(v), NeighborhoodLabelFrequency::of(&g, v).runs());
            assert_eq!(t.signature(v), NeighborhoodLabelFrequency::of(&g, v));
        }
    }

    #[test]
    fn table_incremental_updates() {
        let g = star(9, &[1, 0]);
        let mut t = NlfTable::from_graph(&g);
        let c = VertexId(0);
        t.add_neighbor(c, Label(1));
        assert_eq!(t.runs(c), &[(Label(0), 1), (Label(1), 2)]);
        t.remove_neighbor(c, Label(0));
        assert_eq!(t.runs(c), &[(Label(1), 2)]);
        t.push_vertex();
        assert_eq!(t.vertex_count(), 4);
        assert!(t.runs(VertexId(3)).is_empty());
        t.clear(c);
        assert!(t.runs(c).is_empty());
        // Removing an absent label is a no-op, not a panic.
        t.remove_neighbor(c, Label(7));
    }

    #[test]
    fn table_dominance_matches_materialized() {
        let q = star(9, &[0, 1]);
        let g = star(9, &[0, 1, 1, 2]);
        let t = NlfTable::from_graph(&g);
        let qs = NeighborhoodLabelFrequency::of(&q, VertexId(0));
        let gs = NeighborhoodLabelFrequency::of(&g, VertexId(0));
        assert_eq!(t.dominates(VertexId(0), &qs), qs.dominated_by(&gs));
        let big = NeighborhoodLabelFrequency::of(&star(9, &[3, 3]), VertexId(0));
        assert!(!t.dominates(VertexId(0), &big));
    }

    #[test]
    fn leaf_vertices_trivially_dominated() {
        let q = star(9, &[0]);
        let g = star(9, &[0, 1]);
        // Leaf u=1 (label 0, one neighbor of label 9).
        assert!(nlf_dominated(&q, VertexId(1), &g, VertexId(1)));
    }
}
