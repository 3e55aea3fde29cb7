//! Subgraph isomorphism embeddings.

use sqp_graph::{Graph, VertexId};

/// A subgraph isomorphism `φ : V(q) → V(G)` (Definition II.1), stored as the
/// image of each query vertex in id order.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Embedding {
    map: Vec<VertexId>,
}

impl Embedding {
    /// Wraps a mapping given as `map[u] = φ(u)`.
    pub fn new(map: Vec<VertexId>) -> Self {
        Self { map }
    }

    /// The image of query vertex `u`.
    #[inline]
    pub fn image(&self, u: VertexId) -> VertexId {
        self.map[u.index()]
    }

    /// Overwrites this embedding with `mapping`, reusing the allocation.
    /// Enumerators report matches through one recycled `Embedding`, so a
    /// million-match run allocates once, not a million times; callbacks that
    /// keep an embedding clone it, as [`Clone`] semantics already demand.
    #[inline]
    pub(crate) fn copy_from(&mut self, mapping: &[VertexId]) {
        self.map.clear();
        self.map.extend_from_slice(mapping);
    }

    /// The full mapping in query-vertex order.
    pub fn as_slice(&self) -> &[VertexId] {
        &self.map
    }

    /// The mapping, for renumbering images in place (a compaction's
    /// old→new id map applied to a stored set).
    pub fn as_mut_slice(&mut self) -> &mut [VertexId] {
        &mut self.map
    }

    /// Number of mapped vertices (`|V(q)|`).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the embedding maps no vertices.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Checks Definition II.1 against `q` and `g`: injectivity, label
    /// preservation and edge preservation. Used by tests and debug
    /// assertions; enumerators guarantee validity by construction.
    pub fn is_valid(&self, q: &Graph, g: &Graph) -> bool {
        if self.map.len() != q.vertex_count() {
            return false;
        }
        // Injectivity, pairwise: a query is a handful of vertices, and the
        // enumerator's debug assertion must not allocate.
        for (i, &v) in self.map.iter().enumerate() {
            if v.index() >= g.vertex_count() || self.map[..i].contains(&v) {
                return false;
            }
        }
        // Labels.
        for u in q.vertices() {
            if q.label(u) != g.label(self.image(u)) {
                return false;
            }
        }
        // Edges.
        for u in q.vertices() {
            for &w in q.neighbors(u) {
                if u < w && !g.has_edge(self.image(u), self.image(w)) {
                    return false;
                }
            }
        }
        true
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

    #[test]
    fn figure1_embedding_is_valid() {
        // The paper's Figure 1: q = triangle-ish 4-vertex query, G contains it.
        let q = labeled(&[0, 1, 2, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let g = labeled(&[0, 1, 2, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]);
        let phi = Embedding::new(vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]);
        assert!(phi.is_valid(&q, &g));
    }

    #[test]
    fn rejects_label_mismatch() {
        let q = labeled(&[0, 1], &[(0, 1)]);
        let g = labeled(&[0, 2], &[(0, 1)]);
        let phi = Embedding::new(vec![VertexId(0), VertexId(1)]);
        assert!(!phi.is_valid(&q, &g));
    }

    #[test]
    fn rejects_missing_edge() {
        let q = labeled(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        let g = labeled(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let phi = Embedding::new(vec![VertexId(0), VertexId(1), VertexId(2)]);
        assert!(!phi.is_valid(&q, &g));
    }

    #[test]
    fn rejects_non_injective() {
        let q = labeled(&[0, 0], &[(0, 1)]);
        let g = labeled(&[0, 0], &[(0, 1)]);
        let phi = Embedding::new(vec![VertexId(0), VertexId(0)]);
        assert!(!phi.is_valid(&q, &g));
    }

    #[test]
    fn rejects_wrong_arity_and_oob() {
        let q = labeled(&[0, 0], &[(0, 1)]);
        let g = labeled(&[0, 0], &[(0, 1)]);
        assert!(!Embedding::new(vec![VertexId(0)]).is_valid(&q, &g));
        assert!(!Embedding::new(vec![VertexId(0), VertexId(9)]).is_valid(&q, &g));
    }

    #[test]
    fn accessors() {
        let e = Embedding::new(vec![VertexId(3), VertexId(1)]);
        assert_eq!(e.image(VertexId(0)), VertexId(3));
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
        assert_eq!(e.as_slice(), &[VertexId(3), VertexId(1)]);
    }
}
