//! Brute-force reference matcher and random-graph helpers.
//!
//! The oracle against which every algorithm in this workspace is verified.
//! It enumerates injective label-preserving mappings in query-id order with
//! no filtering beyond labels, checking edges at the end of each extension.
//! Exponential — use only on test-sized graphs.

use rand::rngs::StdRng;
use rand::Rng;

use sqp_graph::{Graph, GraphBuilder, Label, VertexId};

use crate::embedding::Embedding;

/// Enumerates every subgraph isomorphism from `q` to `g`.
pub fn enumerate_all(q: &Graph, g: &Graph) -> Vec<Embedding> {
    let mut out = Vec::new();
    if q.vertex_count() == 0 {
        return out;
    }
    let mut mapping = vec![VertexId(u32::MAX); q.vertex_count()];
    let mut used = vec![false; g.vertex_count()];
    descend(q, g, 0, &mut mapping, &mut used, &mut out);
    out
}

/// Whether `q ⊆ g`.
pub fn is_subgraph(q: &Graph, g: &Graph) -> bool {
    // Cheap short-circuit via the same recursion with an early exit.
    struct Found;
    fn rec(
        q: &Graph,
        g: &Graph,
        depth: usize,
        mapping: &mut [VertexId],
        used: &mut [bool],
    ) -> Result<(), Found> {
        if depth == q.vertex_count() {
            return Err(Found);
        }
        let u = VertexId::from(depth);
        for &v in g.vertices_with_label(q.label(u)) {
            if used[v.index()] {
                continue;
            }
            if q.neighbors(u)
                .iter()
                .any(|&w| w.index() < depth && !g.has_edge(v, mapping[w.index()]))
            {
                continue;
            }
            mapping[depth] = v;
            used[v.index()] = true;
            let r = rec(q, g, depth + 1, mapping, used);
            used[v.index()] = false;
            r?;
        }
        Ok(())
    }
    if q.vertex_count() == 0 {
        return true;
    }
    let mut mapping = vec![VertexId(u32::MAX); q.vertex_count()];
    let mut used = vec![false; g.vertex_count()];
    rec(q, g, 0, &mut mapping, &mut used).is_err()
}

fn descend(
    q: &Graph,
    g: &Graph,
    depth: usize,
    mapping: &mut Vec<VertexId>,
    used: &mut Vec<bool>,
    out: &mut Vec<Embedding>,
) {
    if depth == q.vertex_count() {
        out.push(Embedding::new(mapping.clone()));
        return;
    }
    let u = VertexId::from(depth);
    for &v in g.vertices_with_label(q.label(u)) {
        if used[v.index()] {
            continue;
        }
        // Edges to already-mapped query neighbors.
        if q.neighbors(u).iter().any(|&w| w.index() < depth && !g.has_edge(v, mapping[w.index()])) {
            continue;
        }
        mapping[depth] = v;
        used[v.index()] = true;
        descend(q, g, depth + 1, mapping, used, out);
        used[v.index()] = false;
    }
    mapping[depth] = VertexId(u32::MAX);
}

/// Generates a random graph for tests: `n` vertices, up to `m` random edges,
/// labels in `0..labels`. Not necessarily connected.
pub fn random_graph(rng: &mut StdRng, n: usize, m: usize, labels: u32) -> Graph {
    let mut b = GraphBuilder::with_capacity(n);
    for _ in 0..n {
        b.add_vertex(Label(rng.random_range(0..labels)));
    }
    for _ in 0..m {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            let _ = b.add_edge(VertexId::from(u), VertexId::from(v));
        }
    }
    b.build()
}

/// Extracts a small random connected query with `edges` edges from `g` via a
/// random walk; falls back to a single-vertex query if `g` has no edges.
pub fn random_connected_query(rng: &mut StdRng, g: &Graph, edges: usize) -> Graph {
    // Fallback: a single-vertex query carrying a label that exists in `g`
    // (or Label(0) for the empty graph), so the query stays a subgraph.
    let single_vertex = |g: &Graph| {
        let mut b = GraphBuilder::new();
        if g.vertex_count() > 0 {
            b.add_vertex(g.label(VertexId(0)));
        } else {
            b.add_vertex(Label(0));
        }
        b.build()
    };
    if g.edge_count() == 0 || g.vertex_count() == 0 {
        return single_vertex(g);
    }
    for _ in 0..100 {
        let start = VertexId(rng.random_range(0..g.vertex_count() as u32));
        if g.degree(start) == 0 {
            continue;
        }
        let mut cur = start;
        let mut es: Vec<(VertexId, VertexId)> = Vec::new();
        for _ in 0..edges * 50 {
            if es.len() == edges {
                break;
            }
            let adj = g.neighbors(cur);
            let next = adj[rng.random_range(0..adj.len())];
            let key = (cur.min(next), cur.max(next));
            if !es.contains(&key) {
                es.push(key);
            }
            cur = next;
        }
        if es.is_empty() {
            continue;
        }
        // Induce with dense relabeling.
        let mut b = GraphBuilder::new();
        let mut map: Vec<(VertexId, VertexId)> = Vec::new();
        let get = |v: VertexId, b: &mut GraphBuilder, map: &mut Vec<(VertexId, VertexId)>| {
            if let Some(&(_, q)) = map.iter().find(|&&(d, _)| d == v) {
                q
            } else {
                let q = b.add_vertex(g.label(v));
                map.push((v, q));
                q
            }
        };
        let es2 = es.clone();
        for (u, v) in es2 {
            let qu = get(u, &mut b, &mut map);
            let qv = get(v, &mut b, &mut map);
            // Endpoints were just added and the source graph is simple, so
            // this cannot fail.
            let _ = b.add_edge(qu, qv);
        }
        return b.build();
    }
    single_vertex(g)
}

/// A `(query, data)` pair built to be hard for a matching order, after the
/// dense-input analysis of "Deep Analysis on Subgraph Isomorphism".
pub struct HardInstance {
    /// What the pair stresses.
    pub name: &'static str,
    /// The query graph.
    pub query: Graph,
    /// The data graph.
    pub data: Graph,
}

/// Half a dozen adversarial pairs, deterministic and small enough for the
/// exponential oracle. On one-label dense data no filter removes a candidate
/// and every order sees equal set sizes: an absent `K5` or odd cycle is a
/// full search of a dense graph, and each has a twin one data edge away
/// where the query is present. The star of cliques skews the labels instead:
/// one rare hub over many frequent clique vertices.
pub fn hard_instances() -> Vec<HardInstance> {
    /// A graph over `labels.len()` vertices with the edges `keep` accepts.
    fn graph(labels: &[u32], keep: impl Fn(usize, usize) -> bool) -> Graph {
        let mut b = GraphBuilder::with_capacity(labels.len());
        for &l in labels {
            b.add_vertex(Label(l));
        }
        for u in 0..labels.len() {
            for v in (u + 1..labels.len()).filter(|&v| keep(u, v)) {
                // `u < v`, each pair once: cannot fail.
                let _ = b.add_edge(VertexId::from(u), VertexId::from(v));
            }
        }
        b.build()
    }
    let complete = |n: usize| graph(&vec![0; n], |_, _| true);
    let cycle = |n: usize| graph(&vec![0; n], |u, v| v == u + 1 || (u == 0 && v == n - 1));
    // Complete `parts`-partite over `n` one-label vertices (vertex `v` in
    // part `v % parts`), plus the edge (0, parts) inside part 0 when `extra`.
    let multipartite = |n: usize, parts: usize, extra: bool| {
        graph(&vec![0; n], |u, v| u % parts != v % parts || (extra && (u, v) == (0, parts)))
    };
    // A label-1 hub (vertex 0) adjacent to every vertex of `cliques`
    // disjoint label-0 cliques of `size` vertices.
    let star_of_cliques = |cliques: usize, size: usize| {
        let mut labels = vec![0; 1 + cliques * size];
        labels[0] = 1;
        graph(&labels, |u, v| u == 0 || (u - 1) / size == (v - 1) / size)
    };
    let pair = |name, query, data| HardInstance { name, query, data };
    vec![
        // The Turán graph T(20, 4) is the densest K5-free graph on 20 vertices.
        pair("absent clique", complete(5), multipartite(20, 4, false)),
        pair("present clique", complete(5), multipartite(20, 4, true)),
        // A bipartite graph has no odd cycle.
        pair("absent odd cycle", cycle(5), multipartite(20, 2, false)),
        pair("present odd cycle", cycle(5), multipartite(20, 2, true)),
        pair("star of cliques", star_of_cliques(2, 3), star_of_cliques(5, 3)),
        pair("star of cliques, absent clique", star_of_cliques(1, 4), star_of_cliques(5, 3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
    fn counts_triangle_automorphisms() {
        let t = labeled(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(enumerate_all(&t, &t).len(), 6);
        assert!(is_subgraph(&t, &t));
    }

    #[test]
    fn labels_restrict_matches() {
        let q = labeled(&[0, 1], &[(0, 1)]);
        let g = labeled(&[0, 1, 1], &[(0, 1), (0, 2), (1, 2)]);
        // (0→0, 1→1) and (0→0, 1→2).
        assert_eq!(enumerate_all(&q, &g).len(), 2);
    }

    #[test]
    fn no_match_reported() {
        let q = labeled(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)]);
        let g = labeled(&[0, 0, 0], &[(0, 1), (1, 2)]);
        assert!(enumerate_all(&q, &g).is_empty());
        assert!(!is_subgraph(&q, &g));
    }

    #[test]
    fn hard_instances_are_what_their_names_say() {
        for hard in hard_instances() {
            let present = !hard.name.contains("absent");
            assert_eq!(is_subgraph(&hard.query, &hard.data), present, "{}", hard.name);
        }
    }

    #[test]
    fn all_results_valid() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let g = random_graph(&mut rng, 7, 10, 2);
            let q = random_connected_query(&mut rng, &g, 3);
            for e in enumerate_all(&q, &g) {
                assert!(e.is_valid(&q, &g));
            }
        }
    }

    #[test]
    fn query_always_embeds_in_source() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let g = random_graph(&mut rng, 8, 14, 3);
            let q = random_connected_query(&mut rng, &g, 4);
            // The query was carved out of g, so it must embed.
            assert!(is_subgraph(&q, &g));
        }
    }
}
