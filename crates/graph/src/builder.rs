//! Mutable graph construction, flat: a vertex's neighbors are a chain
//! through one entry array, so nothing is allocated per vertex, and
//! [`GraphBuilder::build`] pushes the vertices, in `(label, id)` order, into
//! their neighbors' lists, which fill sorted without a sort.

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::label::Label;
use crate::vertex::VertexId;

/// Builds an immutable [`Graph`] from vertices and edges.
///
/// The builder accepts edges in any order, ignores duplicate edges (including
/// the reversed duplicate of an undirected edge) and rejects self-loops: the
/// paper works on simple, undirected, vertex-labeled graphs.
///
/// # Example
///
/// ```
/// use sqp_graph::{GraphBuilder, Label};
///
/// let mut b = GraphBuilder::new();
/// let u = b.add_vertex(Label(0));
/// let v = b.add_vertex(Label(1));
/// b.add_edge(u, v).unwrap();
/// let g = b.build();
/// assert_eq!(g.vertex_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// assert!(g.has_edge(u, v) && g.has_edge(v, u));
/// ```
#[derive(Default, Clone)]
pub struct GraphBuilder {
    labels: Vec<Label>,
    slots: Vec<Slot>,
    entries: Vec<Entry>,
}

/// A vertex's newest chain entry ([`NIL`] while it has none) and degree.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    degree: u32,
}

/// One direction of an edge: the far endpoint, and the next older entry.
#[derive(Clone, Copy)]
struct Entry {
    to: VertexId,
    next: u32,
}

const NIL: u32 = u32::MAX;

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for `vertices` vertices.
    pub fn with_capacity(vertices: usize) -> Self {
        Self {
            labels: Vec::with_capacity(vertices),
            slots: Vec::with_capacity(vertices),
            entries: Vec::new(),
        }
    }

    /// Reserves room for at least `edges` more distinct edges, for a caller
    /// that knows how many it will add.
    pub fn reserve_edges(&mut self, edges: usize) {
        self.entries.reserve(2 * edges);
    }

    /// Adds a vertex with `label`, returning its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId::from(self.labels.len());
        self.labels.push(label);
        self.slots.push(Slot { head: NIL, degree: 0 });
        id
    }

    /// Adds `n` vertices labeled by `f(i)`, returning the first new id.
    pub fn add_vertices(&mut self, n: usize, mut f: impl FnMut(usize) -> Label) -> VertexId {
        let first = VertexId::from(self.labels.len());
        for i in 0..n {
            self.add_vertex(f(i));
        }
        first
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of distinct undirected edges added so far.
    pub fn edge_count(&self) -> usize {
        self.entries.len() / 2
    }

    /// Label of a previously added vertex.
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v.index()]
    }

    /// Current degree of a previously added vertex.
    pub fn degree(&self, v: VertexId) -> usize {
        self.slots[v.index()].degree as usize
    }

    /// `v`'s neighbors, newest first.
    fn chain(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let mut at = self.slots[v.index()].head;
        std::iter::from_fn(move || {
            // `NIL` is past the end of `entries`.
            let e = self.entries.get(at as usize)?;
            at = e.next;
            Some(e.to)
        })
    }

    /// Whether the undirected edge `e(u, v)` has been added.
    ///
    /// Linear in `min(d(u), d(v))`; intended for construction-time dedup,
    /// not queries.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match (self.slots.get(u.index()), self.slots.get(v.index())) {
            (Some(su), Some(sv)) if su.degree <= sv.degree => self.chain(u).any(|w| w == v),
            (Some(_), Some(_)) => self.chain(v).any(|w| w == u),
            _ => false,
        }
    }

    /// Adds the undirected edge `e(u, v)`.
    ///
    /// Returns `Ok(true)` if the edge is new, `Ok(false)` if it was already
    /// present, and an error for self-loops or undeclared endpoints.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool> {
        let n = self.labels.len();
        for w in [u, v] {
            if w.index() >= n {
                return Err(GraphError::UnknownVertex { vertex: w.id(), vertex_count: n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u.id() });
        }
        if self.has_edge(u, v) {
            return Ok(false);
        }
        for (from, to) in [(u, v), (v, u)] {
            let slot = &mut self.slots[from.index()];
            self.entries.push(Entry { to, next: slot.head });
            slot.head = (self.entries.len() - 1) as u32;
            slot.degree += 1;
        }
        Ok(true)
    }

    /// Finalizes the builder into an immutable CSR [`Graph`], placing every
    /// neighbor straight into its sorted position.
    pub fn build(mut self) -> Graph {
        let (labels, edges) = (std::mem::take(&mut self.labels), self.edge_count());
        Graph::from_sorted_csr(labels, edges, |by_label, offsets, lists| {
            // `offsets[x + 1]` is where `x`'s list starts until the
            // placement advances it to where the list ends.
            let mut at = 0;
            for (cursor, slot) in offsets[1..].iter_mut().zip(&self.slots) {
                *cursor = at;
                at += slot.degree;
            }
            for &w in by_label {
                for x in self.chain(w) {
                    let cursor = &mut offsets[x.index() + 1];
                    lists[*cursor as usize] = w;
                    *cursor += 1;
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(Label(0));
        assert!(matches!(b.add_edge(u, u), Err(GraphError::SelfLoop { .. })));
    }

    #[test]
    fn rejects_unknown_vertex() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(Label(0));
        let bad = VertexId(5);
        assert!(matches!(
            b.add_edge(u, bad),
            Err(GraphError::UnknownVertex { vertex: 5, vertex_count: 1 })
        ));
    }

    #[test]
    fn deduplicates_edges_both_directions() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(Label(0));
        let v = b.add_vertex(Label(0));
        assert!(b.add_edge(u, v).unwrap());
        assert!(!b.add_edge(u, v).unwrap());
        assert!(!b.add_edge(v, u).unwrap());
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn add_vertices_bulk() {
        let mut b = GraphBuilder::new();
        let first = b.add_vertices(3, |i| Label(i as u32));
        assert_eq!(first, VertexId(0));
        assert_eq!(b.vertex_count(), 3);
        assert_eq!(b.label(VertexId(2)), Label(2));
    }

    #[test]
    fn degree_tracks_edges() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(Label(0));
        let v = b.add_vertex(Label(1));
        let w = b.add_vertex(Label(2));
        b.add_edge(u, v).unwrap();
        b.add_edge(u, w).unwrap();
        assert_eq!(b.degree(u), 2);
        assert_eq!(b.degree(v), 1);
    }
}
