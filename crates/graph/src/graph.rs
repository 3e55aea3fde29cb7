//! The immutable CSR graph.
//!
//! A graph lives in six exact-size blocks, one per section kind, and has
//! one constructor, `Graph::from_sorted_csr`: its callers (the builder, an
//! overlay's compaction) write each adjacency list straight into its final
//! place, already sorted, and the constructor derives the label-run and
//! label → vertices indices around it.

use std::sync::OnceLock;

use crate::bitmap::AdjacencyRows;
use crate::heap_size::HeapSize;
use crate::label::Label;
use crate::vertex::VertexId;

/// An immutable, undirected, vertex-labeled graph in CSR form.
///
/// Two layout decisions serve the filtering algorithms of the paper:
///
/// * Each vertex's adjacency list is **sorted by `(neighbor label, neighbor
///   id)`**, and a per-vertex **label-run index** records where each label's
///   run begins. Label-restricted neighborhood access
///   ([`neighbors_with_label`](Graph::neighbors_with_label)) — the inner loop
///   of the filters *and* of every enumeration intersection step — is a
///   binary search over the vertex's few distinct neighbor labels (contiguous
///   in memory), not over the adjacency list itself with an indirect label
///   load per comparison. The neighbor-label sequence read off the adjacency
///   list is already sorted, which makes the GraphQL profile test a linear
///   merge.
/// * A **label → vertices** CSR index supports starting candidate generation
///   (`Φ(u) ⊆ vertices_with_label(L(u))`) without scanning all vertices.
///
/// With `n` vertices, `m` edges, `R` label runs and label space `L`, the
/// graph owns six heap blocks of exactly these sections:
///
/// ```text
/// labels:        vertex labels (n)
/// pairs:         (list start, first run) per vertex and a sentinel pair (2n+2)
/// label_offsets: where each label's vertices start in `vertices`, and a sentinel (L+1)
/// vertices:      adjacency lists (2m) | vertices by (label, id) (n)
/// run_labels:    the label of each run (R)
/// run_starts:    where each run starts in `vertices`, and a sentinel `2m` (R+1)
/// ```
///
/// Every position is absolute in the block it indexes, so the reads of the
/// filters' inner loops — degree, list, runs — take no section offset, and
/// an id past the last vertex fails their bounds check. Vertex `v`'s runs
/// are `pairs[2v+1]..pairs[2v+3]`, each ending where the next starts — the
/// next run of `v`, the first run of the next vertex that has any, or the
/// sentinel (vertices in between have degree 0, so all three coincide with
/// the end of `v`'s list). The run labels are a block of their own so that
/// `neighbors_with_label` binary-searches plain labels.
#[derive(Clone)]
pub struct Graph {
    labels: Box<[Label]>,
    pairs: Box<[u32]>,
    label_offsets: Box<[u32]>,
    vertices: Box<[VertexId]>,
    run_labels: Box<[Label]>,
    run_starts: Box<[u32]>,
    label_space: u32,
    edge_count: usize,
    max_degree: u32,
    distinct_labels: u32,
    /// Lazily-built bitmap adjacency rows; see [`Graph::adjacency_rows`].
    adjacency_rows: OnceLock<AdjacencyRows>,
}

impl Graph {
    /// The one constructor. `labels` are the vertex labels by id, and
    /// `place(by_label, offsets, lists)` writes every adjacency list into
    /// `lists`, sorted by `(label, id)`, and sets the zeroed `offsets` so
    /// that vertex `v`'s list is `lists[offsets[v]..offsets[v + 1]]`.
    /// `by_label` holds every vertex in `(label, id)` order, so pushing each
    /// vertex into its neighbors' lists in that order sorts every list
    /// without a sort. The lists must be simple and symmetric,
    /// `edge_count` edges in all.
    pub(crate) fn from_sorted_csr(
        labels: Vec<Label>,
        edge_count: usize,
        place: impl FnOnce(&[VertexId], &mut [u32], &mut [VertexId]),
    ) -> Self {
        let n = labels.len();
        let lists = 2 * edge_count;
        assert!(lists + n < u32::MAX as usize, "graph exceeds u32 positions");
        let label_space = labels.iter().map(|l| l.index() + 1).max().unwrap_or(0);
        let mut pairs = vec![0u32; 2 * n + 2].into_boxed_slice();

        // Label → vertices, by a counting sort: `label_offsets[l + 1]` is
        // the cursor of label `l` until it ends where label `l + 1` starts.
        let mut label_offsets = vec![0u32; label_space + 1].into_boxed_slice();
        for l in &labels {
            label_offsets[l.index() + 1] += 1;
        }
        let distinct_labels = label_offsets.iter().filter(|&&c| c > 0).count() as u32;
        let mut at = lists as u32;
        for c in label_offsets.iter_mut() {
            (*c, at) = (at, at + *c);
        }
        let mut vertices = vec![VertexId(0); lists + n].into_boxed_slice();
        for (v, l) in labels.iter().enumerate() {
            let cursor = &mut label_offsets[l.index() + 1];
            vertices[*cursor as usize] = VertexId::from(v);
            *cursor += 1;
        }

        // The placement writes plain offsets into the upper half of the
        // pairs; the run pass below reads each one before the pair it
        // interleaves into can reach it.
        let (adjacency, by_label) = vertices.split_at_mut(lists);
        place(by_label, &mut pairs[n + 1..], adjacency);
        debug_assert_eq!(pairs[2 * n + 1] as usize, lists, "placement left a list short");

        // The label-run index, in one pass over the lists. Each run holds at
        // least one entry, so `2m` runs bound both blocks; shrinking to the
        // count the pass found leaves them exact.
        let mut run_labels = Vec::with_capacity(lists);
        let mut run_starts = Vec::with_capacity(lists + 1);
        let mut max_degree = 0;
        for v in 0..n {
            let (s, e) = (pairs[n + 1 + v] as usize, pairs[n + 2 + v] as usize);
            (pairs[2 * v], pairs[2 * v + 1]) = (s as u32, run_labels.len() as u32);
            max_degree = max_degree.max(e - s);
            let adj = &vertices[s..e];
            debug_assert!(
                adj.windows(2).all(|p| (labels[p[0].index()], p[0]) < (labels[p[1].index()], p[1])),
                "adjacency not sorted by (label, id)"
            );
            let mut prev = None;
            for (start, w) in (s as u32..).zip(adj) {
                let label = labels[w.index()];
                if prev != Some(label) {
                    prev = Some(label);
                    run_labels.push(label);
                    run_starts.push(start);
                }
            }
        }
        (pairs[2 * n], pairs[2 * n + 1]) = (lists as u32, run_labels.len() as u32);
        run_starts.push(lists as u32);

        Self {
            labels: labels.into_boxed_slice(),
            pairs,
            label_offsets,
            vertices,
            run_labels: run_labels.into_boxed_slice(),
            run_starts: run_starts.into_boxed_slice(),
            label_space: label_space as u32,
            edge_count,
            max_degree: max_degree as u32,
            distinct_labels,
            adjacency_rows: OnceLock::new(),
        }
    }

    /// Number of vertices `|V(G)|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges `|E(G)|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of distinct labels that occur in this graph.
    #[inline]
    pub fn distinct_label_count(&self) -> usize {
        self.distinct_labels as usize
    }

    /// One past the largest label id occurring in this graph (size for
    /// per-label arrays).
    #[inline]
    pub fn label_space(&self) -> usize {
        self.label_space as usize
    }

    /// Maximum vertex degree.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree as usize
    }

    /// Average vertex degree `2|E| / |V|` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.labels.len() as f64
        }
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v.index()]
    }

    /// All vertex labels, indexed by vertex id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.pairs[2 * v.index() + 2] - self.pairs[2 * v.index()]) as usize
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + Clone + '_ {
        (0..self.labels.len() as u32).map(VertexId)
    }

    /// Neighbors of `v`, sorted by `(label, id)`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let at = 2 * v.index();
        &self.vertices[self.pairs[at] as usize..self.pairs[at + 2] as usize]
    }

    /// Where `v`'s runs begin and end in `run_labels`.
    #[inline]
    fn runs(&self, v: VertexId) -> (usize, usize) {
        let at = 2 * v.index() + 1;
        (self.pairs[at] as usize, self.pairs[at + 2] as usize)
    }

    /// Neighbors of `v` whose label is `l` (a contiguous, sorted slice).
    ///
    /// # Examples
    ///
    /// ```
    /// use sqp_graph::{GraphBuilder, Label, VertexId};
    ///
    /// let mut b = GraphBuilder::new();
    /// let hub = b.add_vertex(Label(0));
    /// let a = b.add_vertex(Label(1));
    /// let b2 = b.add_vertex(Label(1));
    /// let c = b.add_vertex(Label(2));
    /// for leaf in [a, b2, c] {
    ///     b.add_edge(hub, leaf).unwrap();
    /// }
    /// let g = b.build();
    /// assert_eq!(g.neighbors_with_label(hub, Label(1)), &[a, b2]);
    /// assert!(g.neighbors_with_label(hub, Label(9)).is_empty());
    /// ```
    #[inline]
    pub fn neighbors_with_label(&self, v: VertexId, l: Label) -> &[VertexId] {
        let (rs, re) = self.runs(v);
        match self.run_labels[rs..re].binary_search(&l) {
            Ok(i) => {
                let (s, e) = (self.run_starts[rs + i], self.run_starts[rs + i + 1]);
                &self.vertices[s as usize..e as usize]
            }
            Err(_) => &[],
        }
    }

    /// The neighborhood label frequency of `v` read off the label-run index:
    /// one `(label, count)` per distinct neighbor label, ascending by label.
    /// Touches neither the adjacency list nor the neighbors' labels.
    ///
    /// # Examples
    ///
    /// ```
    /// use sqp_graph::{GraphBuilder, Label};
    ///
    /// let mut b = GraphBuilder::new();
    /// let hub = b.add_vertex(Label(0));
    /// for l in [2u32, 1, 2] {
    ///     let leaf = b.add_vertex(Label(l));
    ///     b.add_edge(hub, leaf).unwrap();
    /// }
    /// let g = b.build();
    /// assert_eq!(g.label_runs(hub).collect::<Vec<_>>(), [(Label(1), 1), (Label(2), 2)]);
    /// ```
    #[inline]
    pub fn label_runs(
        &self,
        v: VertexId,
    ) -> impl ExactSizeIterator<Item = (Label, u32)> + Clone + '_ {
        let (rs, re) = self.runs(v);
        let starts = &self.run_starts[rs..=re];
        self.run_labels[rs..re]
            .iter()
            .zip(starts.iter().zip(&starts[1..]))
            .map(|(&l, (&s, &e))| (l, e - s))
    }

    /// Whether the undirected edge `e(u, v)` exists. `O(log d(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        // Search the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors_with_label(a, self.label(b)).binary_search(&b).is_ok()
    }

    /// The bitmap adjacency rows, built on first use for every vertex that
    /// [qualifies](AdjacencyRows::qualifies). Empty (and allocation-free)
    /// when none does. Amortized across every query against this graph.
    pub fn adjacency_rows(&self) -> &AdjacencyRows {
        self.adjacency_rows.get_or_init(|| AdjacencyRows::build(self))
    }

    /// The adjacency rows if they have been built, without forcing the
    /// build (for memory accounting).
    pub fn adjacency_rows_built(&self) -> Option<&AdjacencyRows> {
        self.adjacency_rows.get()
    }

    /// All vertices carrying label `l`, sorted by id.
    pub fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        match self.label_offsets.get(l.index()..l.index() + 2) {
            Some(&[s, e]) => &self.vertices[s as usize..e as usize],
            _ => &[],
        }
    }

    /// Number of vertices carrying label `l`.
    #[inline]
    pub fn label_frequency(&self, l: Label) -> usize {
        self.vertices_with_label(l).len()
    }

    /// The sorted sequence of neighbor labels of `v` (with multiplicity).
    ///
    /// Because adjacency lists are label-sorted, this is a simple projection.
    pub fn neighbor_labels(
        &self,
        v: VertexId,
    ) -> impl ExactSizeIterator<Item = Label> + Clone + '_ {
        self.neighbors(v).iter().map(move |&w| self.label(w))
    }

    /// The subgraph induced by `vertices`, with vertices densely renumbered
    /// in the order given. Duplicate input vertices are ignored after their
    /// first occurrence.
    ///
    /// # Examples
    ///
    /// ```
    /// use sqp_graph::{GraphBuilder, Label, VertexId};
    ///
    /// let mut b = GraphBuilder::new();
    /// for l in [0u32, 1, 2, 3] {
    ///     b.add_vertex(Label(l));
    /// }
    /// for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
    ///     b.add_edge(VertexId(u), VertexId(v)).unwrap();
    /// }
    /// let square = b.build();
    /// let path = square.induced_subgraph(&[VertexId(0), VertexId(1), VertexId(2)]);
    /// assert_eq!(path.vertex_count(), 3);
    /// assert_eq!(path.edge_count(), 2); // 0-1 and 1-2; 0-2 is not an edge
    /// assert_eq!(path.label(VertexId(2)), Label(2));
    /// ```
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> Graph {
        let mut map = vec![u32::MAX; self.vertex_count()];
        let mut b = crate::builder::GraphBuilder::with_capacity(vertices.len());
        for &v in vertices {
            if map[v.index()] == u32::MAX {
                map[v.index()] = b.add_vertex(self.label(v)).id();
            }
        }
        for &v in vertices {
            for &w in self.neighbors(v) {
                if map[w.index()] != u32::MAX && v < w {
                    let _ = b.add_edge(VertexId(map[v.index()]), VertexId(map[w.index()]));
                }
            }
        }
        b.build()
    }
}

impl HeapSize for Graph {
    fn heap_size(&self) -> usize {
        self.labels.heap_size()
            + self.pairs.heap_size()
            + self.label_offsets.heap_size()
            + self.vertices.heap_size()
            + self.run_labels.heap_size()
            + self.run_starts.heap_size()
            + self.adjacency_rows.get().map_or(0, HeapSize::heap_size)
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("vertices", &self.vertex_count())
            .field("edges", &self.edge_count())
            .field("labels", &self.distinct_label_count())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Path v0(L0) - v1(L1) - v2(L0) - v3(L2), plus edge v0-v3.
    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Label(0));
        let v1 = b.add_vertex(Label(1));
        let v2 = b.add_vertex(Label(0));
        let v3 = b.add_vertex(Label(2));
        b.add_edge(v0, v1).unwrap();
        b.add_edge(v1, v2).unwrap();
        b.add_edge(v2, v3).unwrap();
        b.add_edge(v0, v3).unwrap();
        b.build()
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.distinct_label_count(), 3);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn adjacency_sorted_by_label_then_id() {
        let g = sample();
        for v in g.vertices() {
            let adj = g.neighbors(v);
            for w in adj.windows(2) {
                let ka = (g.label(w[0]), w[0]);
                let kb = (g.label(w[1]), w[1]);
                assert!(ka < kb, "adjacency of {v:?} not sorted");
            }
        }
    }

    #[test]
    fn neighbors_with_label_selects_run() {
        let g = sample();
        // v1 neighbors: v0(L0), v2(L0)
        assert_eq!(g.neighbors_with_label(VertexId(1), Label(0)), &[VertexId(0), VertexId(2)]);
        assert!(g.neighbors_with_label(VertexId(1), Label(2)).is_empty());
        assert!(g.neighbors_with_label(VertexId(1), Label(9)).is_empty());
    }

    #[test]
    fn label_run_index_matches_partition_point_scan() {
        // A hub with several neighbors per label and labels interleaved by
        // id, so runs have length > 1 and the index has > 2 entries.
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(Label(5));
        for i in 0..12u32 {
            let leaf = b.add_vertex(Label(i % 4));
            b.add_edge(hub, leaf).unwrap();
        }
        let g = b.build();
        for v in g.vertices() {
            for l in (0..6).map(Label) {
                let adj = g.neighbors(v);
                let start = adj.partition_point(|&w| g.label(w) < l);
                let end = start + adj[start..].partition_point(|&w| g.label(w) == l);
                assert_eq!(
                    g.neighbors_with_label(v, l),
                    &adj[start..end],
                    "run index diverges at {v:?} label {l:?}"
                );
            }
            // Absent labels yield the empty slice.
            assert!(g.neighbors_with_label(v, Label(99)).is_empty());
        }
    }

    #[test]
    fn has_edge_symmetric() {
        let g = sample();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(2)));
    }

    #[test]
    fn label_index() {
        let g = sample();
        assert_eq!(g.vertices_with_label(Label(0)), &[VertexId(0), VertexId(2)]);
        assert_eq!(g.vertices_with_label(Label(2)), &[VertexId(3)]);
        assert!(g.vertices_with_label(Label(7)).is_empty());
        assert_eq!(g.label_frequency(Label(0)), 2);
    }

    #[test]
    fn neighbor_labels_sorted() {
        let g = sample();
        let ls: Vec<Label> = g.neighbor_labels(VertexId(0)).collect();
        assert_eq!(ls, vec![Label(1), Label(2)]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn induced_subgraph_respects_duplicates_and_isolation() {
        let g = sample();
        // Duplicate input and an isolated selection.
        let sub = g.induced_subgraph(&[VertexId(1), VertexId(1), VertexId(3)]);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 0); // v1 and v3 are not adjacent
        assert_eq!(sub.label(VertexId(0)), Label(1));
        assert_eq!(sub.label(VertexId(1)), Label(2));
    }

    #[test]
    fn induced_subgraph_of_all_vertices_is_identity() {
        let g = sample();
        let all: Vec<VertexId> = g.vertices().collect();
        let sub = g.induced_subgraph(&all);
        assert_eq!(sub.vertex_count(), g.vertex_count());
        assert_eq!(sub.edge_count(), g.edge_count());
    }

    #[test]
    fn an_id_past_the_last_vertex_panics_on_every_per_vertex_read() {
        let g = sample();
        // Id `n`'s pair is the sentinel, whose successor lies past the block.
        for v in [VertexId(4), VertexId(5)] {
            let reads: [&dyn Fn(); 4] = [
                &|| {
                    let _ = g.degree(v);
                },
                &|| {
                    let _ = g.neighbors(v);
                },
                &|| {
                    let _ = g.neighbors_with_label(v, Label(0));
                },
                &|| {
                    let _ = g.label_runs(v);
                },
            ];
            for read in reads {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read));
                assert!(caught.is_err(), "{v:?} read without a panic");
            }
        }
    }

    #[test]
    fn heap_size_positive() {
        let g = sample();
        assert!(g.heap_size() > 0);
    }

    #[test]
    fn adjacency_rows_lazy_and_accounted() {
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(Label(0));
        for _ in 0..64 {
            let leaf = b.add_vertex(Label(1));
            b.add_edge(hub, leaf).unwrap();
        }
        let g = b.build();
        assert!(g.adjacency_rows_built().is_none());
        let before = g.heap_size();
        let rows = g.adjacency_rows();
        assert_eq!(rows.row_count(), 1);
        let row = rows.row(hub).unwrap();
        assert!(rows.contains(row, VertexId(1)));
        assert!(!rows.contains(row, hub));
        // Once built, the sidecar shows up in heap accounting.
        assert!(g.adjacency_rows_built().is_some());
        assert_eq!(g.heap_size(), before + rows.heap_size());
    }
}
