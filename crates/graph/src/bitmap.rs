//! Adjacency rows: a vertex's neighbors as one bit per vertex of the graph,
//! kept for exactly the vertices where that is the smaller representation.
//!
//! A row of `⌈|V|/64⌉` words answers `N(v) ∩ S ≠ ∅` and `S ∩ N(v)` for any
//! vertex set `S` held as a bitmap — the candidate sets of the CFL filter and
//! of the enumerator are — one word at a time, where the adjacency list
//! answers them one neighbor at a time. The three loops that use it (CFL's
//! neighbor test, the enumerator's local candidates, generation's NLF test)
//! take the row when the data vertex in hand has one and the list when it has
//! not; nothing else selects between the two.
//!
//! # Which vertices get a row
//!
//! A vertex gets a row iff `deg > 4·⌈|V|/64⌉` and `deg ≥ 8`
//! ([`AdjacencyRows::qualifies`]): its row is under half the bytes of its
//! adjacency list (8 bytes per word against 4 per neighbor), so it is also
//! the shorter walk. Below 8 neighbors a label run is one or two ids and
//! the list walk is already a handful of probes; without that floor 904 of
//! 1 000 AIDS-like graphs (≈ 45 vertices, one word per row) would carry a
//! sidecar for 2 512 five-neighbor vertices, with it 133 graphs do for 140
//! vertices. `benches/calibration.rs` (`row_sweep`) times both loops over
//! list and row on the same vertices: the row is ahead in every cell it
//! sweeps, from a quarter of the rule's ratio on, so the two constants bound
//! what the sidecar may cost in memory, not where it starts to win; the smoke
//! run asserts the row wins wherever the rule gives one. They are not
//! options.
//!
//! # What was here before
//!
//! A roaring-style sidecar: a row for every vertex of degree ≥ 64, split
//! into 2¹⁶-id chunks stored as a sorted `u16` array or as dense words. An
//! array container is a binary search over sorted ids, which is what
//! `Graph::has_edge` already does on the CSR: a hub-heavy probe (6 000
//! vertices, 30 hubs of degree ≈ 300, 60 six-edge queries × 20 000
//! embeddings) read 46.0–49.0 ms with the 30 array-container rows and
//! 47.2–50.1 ms with none (EXPERIMENTS.md, PR 22). A sparse hub in a large graph therefore simply
//! has no row now, and a dense small graph — where the degree-64 threshold
//! gave none — has one per vertex.
//!
//! # Layout
//!
//! Three allocations whatever the row count: `row_of` (row index per vertex),
//! the rows' words back to back, and one [`packed`](crate::nlf::packed) NLF
//! signature word per row. Built lazily on first use
//! ([`Graph::adjacency_rows`](crate::Graph::adjacency_rows)), empty and
//! allocation-free when no vertex qualifies, [`HeapSize`]-accounted.

use crate::graph::Graph;
use crate::heap_size::HeapSize;
use crate::nlf;
use crate::vertex::VertexId;

const NO_ROW: u32 = u32::MAX;

/// Bitmap adjacency rows, with a packed NLF signature each, for the vertices
/// of one graph that [qualify](AdjacencyRows::qualifies).
#[derive(Clone, Debug, Default)]
pub struct AdjacencyRows {
    /// Words per row: `⌈|V|/64⌉`.
    words_per_row: usize,
    /// Row index per vertex id, [`NO_ROW`] without one. Empty when no vertex
    /// qualifies.
    row_of: Box<[u32]>,
    /// `rows × words_per_row` words: bit `w` of row `r` is set iff `w` is a
    /// neighbor of the vertex that owns `r`.
    words: Box<[u64]>,
    /// Per row, the packed NLF of its vertex.
    signatures: Box<[u64]>,
}

impl AdjacencyRows {
    /// Whether a vertex of degree `degree` in a graph of `vertex_count`
    /// vertices gets a row: the row is under half the bytes of the adjacency
    /// list, and the list is long enough for that to matter.
    #[inline]
    pub fn qualifies(degree: usize, vertex_count: usize) -> bool {
        degree > 4 * vertex_count.div_ceil(64) && degree >= 8
    }

    /// Builds the rows of every qualifying vertex of `g`.
    pub fn build(g: &Graph) -> Self {
        let n = g.vertex_count();
        if !Self::qualifies(g.max_degree(), n) {
            return Self::default();
        }
        let words_per_row = n.div_ceil(64);
        let mut row_of = vec![NO_ROW; n];
        let mut rows = 0usize;
        for v in g.vertices().filter(|&v| Self::qualifies(g.degree(v), n)) {
            row_of[v.index()] = rows as u32;
            rows += 1;
        }
        let mut words = vec![0u64; rows * words_per_row];
        let mut signatures = Vec::with_capacity(rows);
        for v in g.vertices().filter(|v| row_of[v.index()] != NO_ROW) {
            let row = &mut words[signatures.len() * words_per_row..][..words_per_row];
            for w in g.neighbors(v) {
                row[w.index() / 64] |= 1u64 << (w.index() % 64);
            }
            signatures.push(nlf::packed(g.label_runs(v)));
        }
        Self {
            words_per_row,
            row_of: row_of.into_boxed_slice(),
            words: words.into_boxed_slice(),
            signatures: signatures.into_boxed_slice(),
        }
    }

    /// Number of vertices that have a row.
    pub fn row_count(&self) -> usize {
        self.signatures.len()
    }

    /// Whether no vertex has a row.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// The row of `v`, if it has one.
    #[inline]
    pub fn row(&self, v: VertexId) -> Option<usize> {
        match self.row_of.get(v.index()) {
            Some(&r) if r != NO_ROW => Some(r as usize),
            _ => None,
        }
    }

    /// The `⌈|V|/64⌉` words of `row` (as returned by [`row`](Self::row)).
    #[inline]
    pub fn words(&self, row: usize) -> &[u64] {
        &self.words[row * self.words_per_row..][..self.words_per_row]
    }

    /// The packed NLF signature of the vertex that owns `row`.
    #[inline]
    pub fn signature(&self, row: usize) -> u64 {
        self.signatures[row]
    }

    /// Whether `v` is a neighbor of the vertex that owns `row`.
    #[inline]
    pub fn contains(&self, row: usize, v: VertexId) -> bool {
        self.words(row)[v.index() / 64] & (1u64 << (v.index() % 64)) != 0
    }
}

impl HeapSize for AdjacencyRows {
    fn heap_size(&self) -> usize {
        self.row_of.heap_size() + self.words.heap_size() + self.signatures.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::label::Label;

    /// A star with `spokes` leaves around vertex 0, then `pad` isolated
    /// vertices, then one detached edge.
    fn star(spokes: u32, pad: u32) -> Graph {
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(Label(0));
        for i in 0..spokes {
            let leaf = b.add_vertex(Label(1 + i % 2));
            b.add_edge(hub, leaf).unwrap();
        }
        for _ in 0..pad {
            b.add_vertex(Label(3));
        }
        let x = b.add_vertex(Label(2));
        let y = b.add_vertex(Label(2));
        b.add_edge(x, y).unwrap();
        b.build()
    }

    /// A random graph dense enough that some, not all, vertices qualify.
    fn mixed(n: u32, seed: u64) -> Graph {
        let mut b = GraphBuilder::new();
        for v in 0..n {
            b.add_vertex(Label(v % 3));
        }
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for u in 0..n {
            // Even vertices draw many edges, odd ones few.
            for _ in 0..if u % 2 == 0 { 12 } else { 1 } {
                let v = (next() % u64::from(n)) as u32;
                if u != v {
                    let _ = b.add_edge(VertexId(u), VertexId(v));
                }
            }
        }
        b.build()
    }

    #[test]
    fn a_row_iff_the_rule_says_so() {
        // The floor: one word per row, so the ratio asks for deg > 4 and the
        // floor for deg ≥ 8.
        assert!(!AdjacencyRows::qualifies(7, 45));
        assert!(AdjacencyRows::qualifies(8, 45));
        // The ratio: 100 vertices are two words, 8 neighbors are not over 8.
        assert!(!AdjacencyRows::qualifies(8, 100));
        assert!(AdjacencyRows::qualifies(9, 100));
        assert!(!AdjacencyRows::qualifies(300, 6_000));
        assert!(AdjacencyRows::qualifies(377, 6_000));
        for g in [star(8, 0), star(7, 0), star(20, 300), mixed(90, 3), mixed(200, 4)] {
            let rows = AdjacencyRows::build(&g);
            let n = g.vertex_count();
            let mut expected = 0;
            for v in g.vertices() {
                let qualifies = g.degree(v) > 4 * n.div_ceil(64) && g.degree(v) >= 8;
                assert_eq!(rows.row(v).is_some(), qualifies, "{v:?} of {g:?}");
                expected += usize::from(qualifies);
            }
            assert_eq!(rows.row_count(), expected);
            assert_eq!(rows.is_empty(), expected == 0);
        }
        let some = AdjacencyRows::build(&mixed(90, 3));
        assert!(0 < some.row_count() && some.row_count() < 90, "{}", some.row_count());
    }

    #[test]
    fn row_bits_are_has_edge_and_signatures_are_the_packed_nlf() {
        for g in [star(8, 0), star(100, 0), mixed(90, 5), mixed(130, 6)] {
            let rows = AdjacencyRows::build(&g);
            assert!(!rows.is_empty());
            for u in g.vertices() {
                let Some(row) = rows.row(u) else { continue };
                assert_eq!(rows.words(row).len(), g.vertex_count().div_ceil(64));
                for v in g.vertices() {
                    assert_eq!(rows.contains(row, v), g.has_edge(u, v), "{u:?} -> {v:?}");
                }
                let bits: u32 = rows.words(row).iter().map(|w| w.count_ones()).sum();
                assert_eq!(bits as usize, g.degree(u), "no bit beyond the neighbors");
                assert_eq!(rows.signature(row), nlf::packed(g.label_runs(u)));
            }
        }
    }

    #[test]
    fn word_boundary_and_last_word_vertices() {
        // 70 spokes + 2: ids 0..=72, two words, the last one 9 bits wide.
        let g = star(70, 0);
        let rows = AdjacencyRows::build(&g);
        let row = rows.row(VertexId(0)).unwrap();
        assert_eq!(rows.words(row).len(), 2);
        for (v, expected) in [(0, false), (1, true), (63, true), (64, true), (70, true)] {
            assert_eq!(rows.contains(row, VertexId(v)), expected, "vertex {v}");
        }
        // The detached edge sits in the last word and is no neighbor.
        assert!(!rows.contains(row, VertexId(71)) && !rows.contains(row, VertexId(72)));
        // Exactly 64 vertices: one full word, bit 63 its last.
        let g = star(62, 0);
        assert_eq!(g.vertex_count(), 65);
        let g64 = g.induced_subgraph(&g.vertices().take(64).collect::<Vec<_>>());
        let rows = AdjacencyRows::build(&g64);
        let row = rows.row(VertexId(0)).unwrap();
        assert_eq!(rows.words(row).len(), 1);
        assert!(rows.contains(row, VertexId(62)) && !rows.contains(row, VertexId(63)));
    }

    #[test]
    fn empty_and_allocation_free_when_no_vertex_qualifies() {
        // Degree 7 is under the floor; degree 20 in 323 vertices (6 words) is
        // under the ratio.
        for g in [star(7, 0), star(20, 300), GraphBuilder::new().build()] {
            let rows = AdjacencyRows::build(&g);
            assert!(rows.is_empty());
            assert_eq!(rows.row_count(), 0);
            assert_eq!(rows.row(VertexId(0)), None);
            assert_eq!(rows.heap_size(), 0);
        }
    }

    #[test]
    fn heap_size_is_the_three_arrays() {
        let g = mixed(130, 7);
        let rows = AdjacencyRows::build(&g);
        let r = rows.row_count();
        assert!(r > 0);
        // row_of, r rows of three words, r signature words.
        assert_eq!(rows.heap_size(), 130 * 4 + r * 3 * 8 + r * 8);
    }
}
