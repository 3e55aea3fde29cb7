//! Property-based tests of the graph substrate (invariant I6 and friends):
//! CSR well-formedness, text/binary IO round-trips, k-core agreement with a
//! naive peeler, BFS-tree structural invariants, and construction by
//! placement against the per-vertex-sort reference it replaced.

use proptest::prelude::*;

use subgraph_query::core::chaos::{StreamProfile, UpdateStreamGen};
use subgraph_query::graph::algo::{connected_components, core_numbers, BfsTree};
use subgraph_query::graph::nlf::{self, nlf_dominated, runs_dominated, NeighborhoodLabelFrequency};
use subgraph_query::graph::{
    binio, io, DynamicGraph, Graph, GraphBuilder, GraphDb, HeapSize, Label, VertexId,
};

fn arb_graph() -> impl Strategy<Value = Graph> {
    arb_graph_with_labels(5)
}

/// Like [`arb_graph`] with labels drawn from `0..labels`; sparse enough that
/// isolated (degree-0) vertices are common.
fn arb_graph_with_labels(labels: u32) -> impl Strategy<Value = Graph> {
    (2usize..12).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0u32..labels, n);
        let edges = proptest::collection::vec((0..n, 0..n), 0..24);
        (labels, edges).prop_map(|(ls, es)| {
            let mut b = GraphBuilder::new();
            for l in ls {
                b.add_vertex(Label(l));
            }
            for (u, v) in es {
                if u != v {
                    let _ = b.add_edge(VertexId::from(u), VertexId::from(v));
                }
            }
            b.build()
        })
    })
}

fn arb_db() -> impl Strategy<Value = GraphDb> {
    proptest::collection::vec(arb_graph(), 0..6).prop_map(GraphDb::from_graphs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// I6: sorted adjacency, symmetry, no loops, degree/edge consistency.
    #[test]
    fn csr_well_formed(g in arb_graph()) {
        let mut directed = 0usize;
        for v in g.vertices() {
            let adj = g.neighbors(v);
            prop_assert_eq!(adj.len(), g.degree(v));
            directed += adj.len();
            for w in adj.windows(2) {
                prop_assert!((g.label(w[0]), w[0]) < (g.label(w[1]), w[1]));
            }
            for &w in adj {
                prop_assert_ne!(w, v, "self loop");
                prop_assert!(g.neighbors(w).contains(&v), "asymmetric edge");
                prop_assert!(g.has_edge(v, w) && g.has_edge(w, v));
            }
        }
        prop_assert_eq!(directed, 2 * g.edge_count());
    }

    /// The label index partitions the vertex set.
    #[test]
    fn label_index_partitions(g in arb_graph()) {
        let mut seen = vec![false; g.vertex_count()];
        for l in 0..g.label_space() as u32 {
            for &v in g.vertices_with_label(Label(l)) {
                prop_assert_eq!(g.label(v), Label(l));
                prop_assert!(!seen[v.index()]);
                seen[v.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// `neighbors_with_label` returns exactly the label-filtered adjacency.
    #[test]
    fn label_restricted_adjacency(g in arb_graph()) {
        for v in g.vertices() {
            for l in 0..g.label_space() as u32 {
                let fast: Vec<VertexId> = g.neighbors_with_label(v, Label(l)).to_vec();
                let slow: Vec<VertexId> = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| g.label(w) == Label(l))
                    .collect();
                prop_assert_eq!(fast, slow);
            }
        }
    }

    /// Text IO round-trips any database byte-equivalently at the graph level.
    #[test]
    fn text_io_round_trip(db in arb_db()) {
        let mut buf = Vec::new();
        io::write_database(&mut buf, &db).unwrap();
        let db2 = io::read_database(buf.as_slice()).unwrap();
        prop_assert_eq!(db.len(), db2.len());
        for (a, b) in db.graphs().iter().zip(db2.graphs()) {
            prop_assert_eq!(a.vertex_count(), b.vertex_count());
            prop_assert_eq!(a.edge_count(), b.edge_count());
            for v in a.vertices() {
                prop_assert_eq!(a.label(v), b.label(v));
                prop_assert_eq!(a.neighbors(v), b.neighbors(v));
            }
        }
    }

    /// Binary IO round-trips any database.
    #[test]
    fn binary_io_round_trip(db in arb_db()) {
        let bytes = binio::to_bytes(&db);
        let db2 = binio::from_bytes(bytes).unwrap();
        prop_assert_eq!(db.len(), db2.len());
        for (a, b) in db.graphs().iter().zip(db2.graphs()) {
            for v in a.vertices() {
                prop_assert_eq!(a.label(v), b.label(v));
                prop_assert_eq!(a.neighbors(v), b.neighbors(v));
            }
        }
    }

    /// Core numbers agree with naive iterative peeling at every k.
    #[test]
    fn core_numbers_match_naive(g in arb_graph()) {
        let cores = core_numbers(&g);
        // Naive: for each k, peel vertices of degree < k repeatedly.
        let max_k = cores.iter().copied().max().unwrap_or(0);
        for k in 0..=max_k + 1 {
            let mut alive = vec![true; g.vertex_count()];
            loop {
                let mut changed = false;
                for v in g.vertices() {
                    if alive[v.index()] {
                        let deg = g
                            .neighbors(v)
                            .iter()
                            .filter(|w| alive[w.index()])
                            .count() as u32;
                        if deg < k {
                            alive[v.index()] = false;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            for v in g.vertices() {
                prop_assert_eq!(
                    alive[v.index()],
                    cores[v.index()] >= k,
                    "vertex {:?} at k={}", v, k
                );
            }
        }
    }

    /// BFS trees: parent levels, level partition, component coverage.
    #[test]
    fn bfs_tree_invariants(g in arb_graph()) {
        prop_assume!(g.vertex_count() > 0);
        let (comp, _) = connected_components(&g);
        // Build the tree on the component of vertex 0 only (BfsTree requires
        // connected input): restrict via an induced copy.
        let verts: Vec<VertexId> =
            g.vertices().filter(|v| comp[v.index()] == comp[0]).collect();
        let mut b = GraphBuilder::new();
        let mut map = vec![usize::MAX; g.vertex_count()];
        for (i, &v) in verts.iter().enumerate() {
            map[v.index()] = i;
            b.add_vertex(g.label(v));
        }
        for &v in &verts {
            for &w in g.neighbors(v) {
                if v < w && map[w.index()] != usize::MAX {
                    let _ = b.add_edge(
                        VertexId::from(map[v.index()]),
                        VertexId::from(map[w.index()]),
                    );
                }
            }
        }
        let sub = b.build();
        let tree = BfsTree::build(&sub, VertexId(0));
        prop_assert_eq!(tree.order().len(), sub.vertex_count());
        for v in sub.vertices() {
            if v != tree.root() {
                let p = tree.parent(v);
                prop_assert!(sub.has_edge(v, p));
                prop_assert_eq!(tree.level(v), tree.level(p) + 1);
            }
        }
        // BFS property: every edge spans at most one level.
        for v in sub.vertices() {
            for &w in sub.neighbors(v) {
                prop_assert!(tree.level(v).abs_diff(tree.level(w)) <= 1);
            }
        }
    }
}

/// The pre-run-index `nlf_dominated`, kept as the differential reference:
/// walks both adjacency lists, loading one label per neighbor.
fn nlf_dominated_by_walk(q: &Graph, u: VertexId, g: &Graph, v: VertexId) -> bool {
    if q.degree(u) > g.degree(v) {
        return false;
    }
    let qn = q.neighbors(u);
    let gn = g.neighbors(v);
    let (mut i, mut j) = (0usize, 0usize);
    while i < qn.len() {
        let ql = q.label(qn[i]);
        let mut qc = 0usize;
        while i < qn.len() && q.label(qn[i]) == ql {
            qc += 1;
            i += 1;
        }
        while j < gn.len() && g.label(gn[j]) < ql {
            j += 1;
        }
        let mut gc = 0usize;
        while j < gn.len() && g.label(gn[j]) == ql {
            gc += 1;
            j += 1;
        }
        if gc < qc {
            return false;
        }
    }
    true
}

// Case count from PROPTEST_CASES (256 in CI's filter differential step).
proptest! {
    /// Run-index dominance ≡ the adjacency walk ≡ materialized
    /// `dominated_by` ≡ the overlay's test, on every vertex pair —
    /// including degree-0 vertices and query labels beyond
    /// `g.label_space()` (the query draws from 0..9, the data from 0..4).
    #[test]
    fn nlf_run_index_dominance_matches_references(
        q in arb_graph_with_labels(9),
        g in arb_graph_with_labels(4),
    ) {
        let overlay = DynamicGraph::new(g.clone());
        for u in q.vertices() {
            let qs = NeighborhoodLabelFrequency::of(&q, u);
            prop_assert_eq!(qs.runs().iter().map(|r| r.1 as usize).sum::<usize>(), q.degree(u));
            for v in g.vertices() {
                let fast = nlf_dominated(&q, u, &g, v);
                prop_assert_eq!(fast, nlf_dominated_by_walk(&q, u, &g, v), "u={:?} v={:?}", u, v);
                prop_assert_eq!(fast, qs.dominated_by(&NeighborhoodLabelFrequency::of(&g, v)));
                prop_assert_eq!(fast, overlay.nlf_dominates(v, &qs));
            }
        }
    }

    /// The packed signature against the run merge, over run sequences of
    /// 1–40 labels with counts 0–12 (0: the label has no run): a packed
    /// reject is always a true reject, wherever the exactness rule says so
    /// the packed compare *is* the merge, and [`nlf::PackedNlf`] — reject,
    /// exact accept, merge otherwise — always is.
    #[test]
    fn nlf_run_index_packed_signature_is_sound_and_exact_where_it_says_so(
        counts in proptest::collection::vec((0u32..=12, 0u32..=12, 0u32..4), 1..=40),
    ) {
        // Mode 0: the query lacks the label; 1 and 2: the data has at least
        // the query's count; 3: independent counts.
        let runs = |data: bool| {
            counts.iter().zip(0u32..).filter_map(move |(&(q, extra, mode), l)| {
                let count = match (data, mode) {
                    (false, 0) => 0,
                    (false, _) => q,
                    (true, 1 | 2) => q + extra,
                    (true, _) => extra,
                };
                (count > 0).then_some((Label(l), count))
            })
        };
        let (sq, sg) = (nlf::packed(runs(false)), nlf::packed(runs(true)));
        let merged = runs_dominated(runs(false), runs(true));
        let packed = nlf::packed_dominated(sq, sg);
        prop_assert!(packed || !merged, "rejected a dominated pair: {:#x} vs {:#x}", sq, sg);
        if nlf::packed_is_exact(sq, counts.len()) {
            prop_assert_eq!(packed, merged, "inexact: {:#x} vs {:#x}", sq, sg);
        }
        // The three-way rule built on the two: always the merge's answer.
        let rule = nlf::PackedNlf::new(runs(false), counts.len());
        prop_assert_eq!(rule.dominated_by(sg, || merged), merged);
    }
}

/// `(label, count)` runs from pairs.
fn runs(pairs: &[(u32, u32)]) -> impl Iterator<Item = (Label, u32)> + Clone + '_ {
    pairs.iter().map(|&(l, c)| (Label(l), c))
}

/// The three ways a packed accept can be wrong, each caught by the
/// exactness rule, and the layout they rest on.
#[test]
fn nlf_run_index_packed_signature_hand_built_cases() {
    // Nibble k holds the count of label k; 7 stands for "7 or more".
    assert_eq!(nlf::packed(runs(&[(0, 2), (1, 1), (15, 3)])), 0x3000_0000_0000_0012);
    assert_eq!(nlf::packed(runs(&[(2, 9)])), nlf::packed(runs(&[(2, 7)])));
    assert!(nlf::packed_is_exact(nlf::packed(runs(&[(2, 6), (5, 1)])), 16));

    // A saturated query nibble: 9 neighbors of label 2 against 7.
    let (q, g) = ([(2, 9)], [(2, 7)]);
    assert!(!runs_dominated(runs(&q), runs(&g)));
    assert!(nlf::packed_dominated(nlf::packed(runs(&q)), nlf::packed(runs(&g))));
    assert!(!nlf::packed_is_exact(nlf::packed(runs(&q)), 3));
    // The other way round saturation is harmless: the reject stands.
    assert!(runs_dominated(runs(&g), runs(&q)));
    assert!(!nlf::packed_dominated(nlf::packed(runs(&[(2, 7)])), nlf::packed(runs(&[(2, 6)]))));

    // Labels 3 and 19 share nibble 3. On the data side label 19's neighbors
    // pass for label 3's; on the query side two demands become one sum.
    for (q, g) in [(&[(3, 3)][..], &[(3, 1), (19, 2)][..]), (&[(3, 1), (19, 1)], &[(3, 2)])] {
        assert!(!runs_dominated(runs(q), runs(g)));
        assert!(nlf::packed_dominated(nlf::packed(runs(q)), nlf::packed(runs(g))));
        assert!(!nlf::packed_is_exact(nlf::packed(runs(q)), 20), "label space 20 on one side");
    }

    // A data graph with 17 labels against a 3-label query: label 16 lands on
    // label 0's nibble, so the larger label space decides exactness.
    let (q, g) = ([(0, 2), (1, 1)], [(1, 1), (16, 2)]);
    assert!(!runs_dominated(runs(&q), runs(&g)));
    assert!(nlf::packed_dominated(nlf::packed(runs(&q)), nlf::packed(runs(&g))));
    assert!(nlf::packed_is_exact(nlf::packed(runs(&q)), 3));
    assert!(!nlf::packed_is_exact(nlf::packed(runs(&q)), 17));
}

/// The construction `GraphBuilder` replaced, kept as the reference: one list
/// per vertex, deduplicated by a scan and sorted by `(label, id)` at the end.
struct SortedLists {
    labels: Vec<Label>,
    lists: Vec<Vec<VertexId>>,
    edges: usize,
}

impl SortedLists {
    fn new(labels: Vec<Label>) -> Self {
        let lists = vec![Vec::new(); labels.len()];
        Self { labels, lists, edges: 0 }
    }

    /// `None` where the builder must fail; else whether the edge is new.
    fn add_edge(&mut self, u: usize, v: usize) -> Option<bool> {
        if u >= self.labels.len() || v >= self.labels.len() || u == v {
            return None;
        }
        if self.lists[u].contains(&VertexId::from(v)) {
            return Some(false);
        }
        self.lists[u].push(VertexId::from(v));
        self.lists[v].push(VertexId::from(u));
        self.edges += 1;
        Some(true)
    }

    fn sort(&mut self) {
        let labels = &self.labels;
        self.lists.iter_mut().for_each(|l| l.sort_unstable_by_key(|&w| (labels[w.index()], w)));
    }

    fn runs(&self, v: usize) -> Vec<(Label, u32)> {
        let labels = &self.labels;
        self.lists[v]
            .chunk_by(|a, b| labels[a.index()] == labels[b.index()])
            .map(|run| (labels[run[0].index()], run.len() as u32))
            .collect()
    }
}

/// Every read of `g` against the reference's.
fn assert_reads_match(g: &Graph, want: &SortedLists) -> Result<(), TestCaseError> {
    let n = want.labels.len();
    let label_space = want.labels.iter().map(|l| l.index() + 1).max().unwrap_or(0);
    prop_assert_eq!(g.vertex_count(), n);
    prop_assert_eq!(g.labels(), &want.labels[..]);
    prop_assert_eq!(g.edge_count(), want.edges);
    prop_assert_eq!(g.label_space(), label_space);
    prop_assert_eq!(g.max_degree(), want.lists.iter().map(Vec::len).max().unwrap_or(0));
    let mut distinct = want.labels.clone();
    distinct.sort_unstable();
    distinct.dedup();
    prop_assert_eq!(g.distinct_label_count(), distinct.len());
    for l in (0..label_space as u32 + 2).map(Label) {
        let with_label: Vec<VertexId> =
            g.vertices().filter(|v| want.labels[v.index()] == l).collect();
        prop_assert_eq!(g.vertices_with_label(l), &with_label[..]);
    }
    for v in g.vertices() {
        let list = &want.lists[v.index()];
        prop_assert_eq!(g.neighbors(v), &list[..]);
        prop_assert_eq!(g.degree(v), list.len());
        prop_assert_eq!(g.label_runs(v).collect::<Vec<_>>(), want.runs(v.index()));
        for l in (0..label_space as u32 + 2).map(Label) {
            let with_label: Vec<VertexId> =
                list.iter().copied().filter(|w| want.labels[w.index()] == l).collect();
            prop_assert_eq!(g.neighbors_with_label(v, l), &with_label[..]);
        }
        for w in g.vertices() {
            prop_assert_eq!(g.has_edge(v, w), list.contains(&w));
        }
    }
    Ok(())
}

/// Up to eleven vertices (the empty graph and a single vertex included),
/// labels with gaps in `0..12`, and edge draws that repeat, reverse, loop
/// and name a vertex one past the last.
fn arb_edge_list() -> impl Strategy<Value = (Vec<u32>, Vec<(usize, usize)>)> {
    (0usize..12).prop_flat_map(|n| {
        let labels = proptest::collection::vec((0u32..4).prop_map(|l| 3 * l), n);
        let edges = proptest::collection::vec((0..=n, 0..=n), 0..40);
        (labels, edges).prop_map(|(labels, mut edges)| {
            let again: Vec<(usize, usize)> =
                edges.iter().step_by(3).map(|&(u, v)| (v, u)).collect();
            edges.extend(again);
            (labels, edges)
        })
    })
}

// Case count from PROPTEST_CASES (256 in CI's filter differential step).
proptest! {
    /// The flat builder, placing every list in `(label, id)` order, answers
    /// every read as the per-vertex-sort reference does; `add_edge` reports
    /// new, duplicate and reversed-duplicate edges and fails where the
    /// reference does.
    #[test]
    fn construction_by_placement_matches_the_sorting_reference(
        (labels, edges) in arb_edge_list(),
    ) {
        let labels: Vec<Label> = labels.into_iter().map(Label).collect();
        let mut want = SortedLists::new(labels.clone());
        let mut b = GraphBuilder::new();
        for &l in &labels {
            b.add_vertex(l);
        }
        for (u, v) in edges {
            let added = b.add_edge(VertexId::from(u), VertexId::from(v)).ok();
            prop_assert_eq!(added, want.add_edge(u, v), "add_edge({}, {})", u, v);
            prop_assert_eq!(b.edge_count(), want.edges);
        }
        want.sort();
        assert_reads_match(&b.build(), &want)?;
    }

    /// A churned overlay compacts to the graph the builder makes of the same
    /// live vertices and edges, added in reverse.
    #[test]
    fn construction_of_a_churned_overlay_matches_the_builder(
        base in arb_graph(),
        seed in 0u64..1_000,
        profile in (0u8..4).prop_map(|i| [
            StreamProfile::Mixed,
            StreamProfile::AddHeavy,
            StreamProfile::RemoveHeavy,
            StreamProfile::Churn,
        ][i as usize]),
    ) {
        let mut overlay = DynamicGraph::new(base.clone());
        let mut stream = UpdateStreamGen::new(&base, seed, profile);
        for _ in 0..3 {
            overlay.apply_batch(&stream.batch(8)).unwrap();
        }
        let (compacted, mapping) = overlay.materialize();
        let live: Vec<VertexId> = overlay.live_vertices().collect();
        let mut want = SortedLists::new(live.iter().map(|&v| overlay.label(v)).collect());
        let mut b = GraphBuilder::new();
        for &v in &live {
            b.add_vertex(overlay.label(v));
        }
        for &v in live.iter().rev() {
            for &w in overlay.neighbors(v).iter().rev() {
                let (v, w) = (mapping[v.index()].unwrap(), mapping[w.index()].unwrap());
                b.add_edge(v, w).unwrap();
                want.add_edge(v.index(), w.index());
            }
        }
        want.sort();
        assert_reads_match(&compacted, &want)?;
        assert_reads_match(&b.build(), &want)?;
    }

    /// A graph owns six blocks — labels, the per-vertex pairs, the label
    /// offsets, adjacency and label index, run labels, run starts — and its
    /// heap is exactly their lengths: no block has spare capacity.
    #[test]
    fn construction_blocks_are_exact_size((labels, edges) in arb_edge_list()) {
        let mut b = GraphBuilder::new();
        for l in labels {
            b.add_vertex(Label(l));
        }
        for (u, v) in edges {
            let _ = b.add_edge(VertexId::from(u), VertexId::from(v));
        }
        let g = b.build();
        let (n, m, l) = (g.vertex_count(), g.edge_count(), g.label_space());
        let runs: usize = g.vertices().map(|v| g.label_runs(v).len()).sum();
        let words = n + (2 * n + 2) + (l + 1) + (2 * m + n) + runs + (runs + 1);
        prop_assert_eq!(g.heap_size(), 4 * words);
    }
}
