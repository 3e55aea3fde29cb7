//! BFS trees with tree/non-tree edge classification.
//!
//! CFL builds a BFS tree `q_t` of the query graph and distinguishes *tree
//! edges* (parent→child in `q_t`) from *non-tree edges* (all remaining query
//! edges), which drive its backward pruning. This module provides that
//! structure for any connected graph.

use crate::graph::Graph;
use crate::vertex::VertexId;

/// A rooted BFS tree over a connected graph.
#[derive(Clone, Debug)]
pub struct BfsTree {
    root: VertexId,
    /// Parent of each vertex in the tree (`parent[root] == root`).
    parent: Vec<VertexId>,
    /// BFS level of each vertex (`level[root] == 0`).
    level: Vec<u32>,
    /// Vertices in BFS visit order (level by level).
    order: Vec<VertexId>,
    /// Children of each vertex as an index range of `order`: BFS discovers
    /// all children of a vertex consecutively.
    child_ranges: Vec<(u32, u32)>,
    /// Index ranges of `order` per level.
    level_ranges: Vec<(u32, u32)>,
}

impl Default for BfsTree {
    /// The tree of the empty graph (no levels); a buffer for
    /// [`rebuild`](Self::rebuild).
    fn default() -> Self {
        Self {
            root: VertexId(0),
            parent: Vec::new(),
            level: Vec::new(),
            order: Vec::new(),
            child_ranges: Vec::new(),
            level_ranges: Vec::new(),
        }
    }
}

impl BfsTree {
    /// Builds the BFS tree of `g` rooted at `root`.
    ///
    /// Neighbors are visited in adjacency order, so the tree is deterministic
    /// for a given graph layout. `g` must be connected (unreached vertices
    /// would keep level `u32::MAX`); callers in this workspace only pass
    /// connected query graphs, and the constructor asserts reachability in
    /// debug builds.
    pub fn build(g: &Graph, root: VertexId) -> Self {
        let mut tree = Self::default();
        tree.rebuild(g, root);
        tree
    }

    /// [`build`](Self::build) in place, reusing this tree's buffers: no
    /// allocation once they have held a graph at least as large.
    pub fn rebuild(&mut self, g: &Graph, root: VertexId) {
        let n = g.vertex_count();
        self.root = root;
        self.parent.clear();
        self.parent.resize(n, VertexId(u32::MAX));
        self.level.clear();
        self.level.resize(n, u32::MAX);
        self.child_ranges.clear();
        self.child_ranges.resize(n, (0, 0));
        self.order.clear();
        self.order.reserve(n);

        // `order` doubles as the BFS queue: `head` is the next vertex to expand.
        self.parent[root.index()] = root;
        self.level[root.index()] = 0;
        self.order.push(root);
        let mut head = 0;
        while head < self.order.len() {
            let u = self.order[head];
            head += 1;
            let first_child = self.order.len() as u32;
            for &v in g.neighbors(u) {
                if self.level[v.index()] == u32::MAX {
                    self.level[v.index()] = self.level[u.index()] + 1;
                    self.parent[v.index()] = u;
                    self.order.push(v);
                }
            }
            self.child_ranges[u.index()] = (first_child, self.order.len() as u32);
        }
        debug_assert!(
            self.order.len() == n,
            "BfsTree::build requires a connected graph ({} of {n} reached)",
            self.order.len()
        );

        self.level_ranges.clear();
        let mut start = 0u32;
        for i in 1..self.order.len() {
            if self.level[self.order[i].index()] != self.level[self.order[i - 1].index()] {
                self.level_ranges.push((start, i as u32));
                start = i as u32;
            }
        }
        self.level_ranges.push((start, self.order.len() as u32));
    }

    /// The root vertex.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Parent of `v` (the root is its own parent).
    #[inline]
    pub fn parent(&self, v: VertexId) -> VertexId {
        self.parent[v.index()]
    }

    /// BFS level of `v`.
    #[inline]
    pub fn level(&self, v: VertexId) -> u32 {
        self.level[v.index()]
    }

    /// Children of `v` in the tree.
    #[inline]
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        let (s, e) = self.child_ranges[v.index()];
        &self.order[s as usize..e as usize]
    }

    /// Vertices in BFS visit order.
    #[inline]
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.level_ranges.len()
    }

    /// Vertices of level `d`, in visit order.
    pub fn level_vertices(&self, d: usize) -> &[VertexId] {
        let (s, e) = self.level_ranges[d];
        &self.order[s as usize..e as usize]
    }

    /// Whether `e(u, v)` is a tree edge (in either direction).
    pub fn is_tree_edge(&self, u: VertexId, v: VertexId) -> bool {
        (self.parent[u.index()] == v && u != self.root)
            || (self.parent[v.index()] == u && v != self.root)
    }

    /// Non-tree neighbors of `u` at a *strictly smaller* level, plus same-level
    /// neighbors that precede `u` in visit order. These are exactly the
    /// "backward" non-tree edges CFL prunes with during top-down generation.
    pub fn backward_neighbors<'a>(&'a self, g: &'a Graph, u: VertexId) -> Vec<VertexId> {
        let lu = self.level(u);
        let pos_u = self.position(u);
        g.neighbors(u)
            .iter()
            .copied()
            .filter(|&v| {
                !self.is_tree_edge(u, v)
                    && (self.level(v) < lu || (self.level(v) == lu && self.position(v) < pos_u))
            })
            .collect()
    }

    fn position(&self, v: VertexId) -> usize {
        // order is a permutation; linear scan is fine for query-sized graphs,
        // but keep it O(1) via the level ranges + per-level scan.
        let (s, e) = self.level_ranges[self.level(v) as usize];
        let in_level = match self.order[s as usize..e as usize].iter().position(|&w| w == v) {
            Some(p) => p,
            None => panic!("vertex {v:?} missing from its BFS level; order is not a permutation"),
        };
        in_level + s as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::label::Label;

    /// Square v0-v1-v2-v3-v0 with chord v1-v3.
    fn square_with_chord() -> Graph {
        let mut b = GraphBuilder::new();
        for _ in 0..4 {
            b.add_vertex(Label(0));
        }
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)] {
            b.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
        b.build()
    }

    #[test]
    fn levels_and_parents() {
        let g = square_with_chord();
        let t = BfsTree::build(&g, VertexId(0));
        assert_eq!(t.root(), VertexId(0));
        assert_eq!(t.level(VertexId(0)), 0);
        assert_eq!(t.level(VertexId(1)), 1);
        assert_eq!(t.level(VertexId(3)), 1);
        assert_eq!(t.level(VertexId(2)), 2);
        assert_eq!(t.parent(VertexId(0)), VertexId(0));
        assert_eq!(t.depth(), 3);
        assert_eq!(t.order().len(), 4);
    }

    #[test]
    fn tree_edge_classification() {
        let g = square_with_chord();
        let t = BfsTree::build(&g, VertexId(0));
        assert!(t.is_tree_edge(VertexId(0), VertexId(1)));
        assert!(t.is_tree_edge(VertexId(1), VertexId(0)));
        // v1-v3 is a same-level non-tree edge.
        assert!(!t.is_tree_edge(VertexId(1), VertexId(3)));
    }

    #[test]
    fn level_vertices_partition_order() {
        let g = square_with_chord();
        let t = BfsTree::build(&g, VertexId(0));
        let mut all: Vec<VertexId> = Vec::new();
        for d in 0..t.depth() {
            all.extend_from_slice(t.level_vertices(d));
        }
        assert_eq!(all, t.order());
    }

    #[test]
    fn backward_neighbors_of_same_level_edge() {
        let g = square_with_chord();
        let t = BfsTree::build(&g, VertexId(0));
        // v1 precedes v3 at level 1, so v3's backward neighbors include v1.
        let back3 = t.backward_neighbors(&g, VertexId(3));
        assert!(back3.contains(&VertexId(1)));
        let back1 = t.backward_neighbors(&g, VertexId(1));
        assert!(!back1.contains(&VertexId(3)));
    }

    #[test]
    fn children_cover_non_roots() {
        let g = square_with_chord();
        let t = BfsTree::build(&g, VertexId(0));
        let total: usize = g.vertices().map(|v| t.children(v).len()).sum();
        assert_eq!(total, g.vertex_count() - 1);
    }

    #[test]
    fn rebuild_over_a_larger_tree_equals_fresh_build() {
        let big = square_with_chord();
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_vertex(Label(0));
        }
        b.add_edge(VertexId(2), VertexId(0)).unwrap();
        b.add_edge(VertexId(0), VertexId(1)).unwrap();
        let small = b.build();

        let mut reused = BfsTree::build(&big, VertexId(1));
        reused.rebuild(&small, VertexId(2));
        let fresh = BfsTree::build(&small, VertexId(2));
        assert_eq!(reused.root(), fresh.root());
        assert_eq!(reused.order(), fresh.order());
        assert_eq!(reused.depth(), fresh.depth());
        for v in small.vertices() {
            assert_eq!(reused.parent(v), fresh.parent(v));
            assert_eq!(reused.level(v), fresh.level(v));
            assert_eq!(reused.children(v), fresh.children(v));
        }
        assert_eq!(fresh.children(VertexId(2)), &[VertexId(0)]);
        assert_eq!(fresh.children(VertexId(0)), &[VertexId(1)]);
        assert!(fresh.children(VertexId(1)).is_empty());
    }

    #[test]
    fn single_vertex_tree() {
        let mut b = GraphBuilder::new();
        b.add_vertex(Label(0));
        let g = b.build();
        let t = BfsTree::build(&g, VertexId(0));
        assert_eq!(t.depth(), 1);
        assert_eq!(t.order(), &[VertexId(0)]);
    }
}
