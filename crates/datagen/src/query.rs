//! Query-graph generators (§IV-A).
//!
//! Two methods from the literature:
//!
//! * **Random walk** (`Q_iS`, *sparse*): pick a random data graph and start
//!   vertex, random-walk adding visited edges until the desired edge count.
//! * **Breadth-first search** (`Q_iD`, *dense*): pick a random data graph and
//!   start vertex, BFS; whenever a new vertex is visited, add the vertex and
//!   all its edges to already-visited vertices.
//!
//! Both extract connected query graphs whose vertices/edges exist in some
//! data graph, so the answer set is typically non-empty. Each query set
//! holds `count` queries with exactly `edges` edges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sqp_graph::hash::FxHashMap;
use sqp_graph::{Graph, GraphBuilder, GraphDb, VertexId};

/// How to grow a query subgraph out of a data graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryGenMethod {
    /// Random walk — sparse queries, mostly trees for small sizes (`Q_iS`).
    RandomWalk,
    /// BFS with all back-edges — dense queries (`Q_iD`).
    Bfs,
}

impl QueryGenMethod {
    /// Suffix used in query-set names: `S` for sparse, `D` for dense.
    pub fn suffix(self) -> &'static str {
        match self {
            QueryGenMethod::RandomWalk => "S",
            QueryGenMethod::Bfs => "D",
        }
    }
}

/// Specification of one query set (e.g. `Q8S` = 100 random-walk queries with
/// 8 edges).
///
/// # Examples
///
/// ```
/// use sqp_datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
///
/// let db = sqp_datagen::graphgen::generate(20, 40, 5, 4.0, 1);
/// let spec = QuerySetSpec { edges: 8, method: QueryGenMethod::RandomWalk, count: 10 };
/// assert_eq!(spec.name(), "Q8S");
/// let queries = generate_query_set(&db, spec, 7);
/// assert!(queries.iter().all(|q| q.edge_count() == 8));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QuerySetSpec {
    /// Exact number of edges per query.
    pub edges: usize,
    /// Generation method.
    pub method: QueryGenMethod,
    /// Number of queries in the set (paper: 100).
    pub count: usize,
}

impl QuerySetSpec {
    /// The paper's eight query sets per dataset: `Q_{4,8,16,32}{S,D}`.
    pub fn paper_suite(count: usize) -> Vec<QuerySetSpec> {
        let mut v = Vec::with_capacity(8);
        for method in [QueryGenMethod::RandomWalk, QueryGenMethod::Bfs] {
            for edges in [4usize, 8, 16, 32] {
                v.push(QuerySetSpec { edges, method, count });
            }
        }
        v
    }

    /// Display name, e.g. `Q8S`.
    pub fn name(&self) -> String {
        format!("Q{}{}", self.edges, self.method.suffix())
    }
}

/// Generates a single query graph with exactly `edges` edges from `db`.
///
/// Returns `None` if no data graph can yield that many edges (each attempt
/// picks a fresh graph and start vertex; up to 200 attempts).
pub fn generate_query(
    db: &GraphDb,
    method: QueryGenMethod,
    edges: usize,
    rng: &mut StdRng,
) -> Option<Graph> {
    assert!(edges >= 1);
    for _ in 0..200 {
        let g = db.graphs().get(rng.random_range(0..db.len().max(1)))?;
        if g.edge_count() < edges || g.vertex_count() == 0 {
            continue;
        }
        let start = VertexId(rng.random_range(0..g.vertex_count() as u32));
        let extracted = match method {
            QueryGenMethod::RandomWalk => random_walk(g, start, edges, rng),
            QueryGenMethod::Bfs => bfs_expand(g, start, edges, rng),
        };
        if let Some(edge_list) = extracted {
            return Some(induce(g, &edge_list));
        }
    }
    None
}

/// Generates a full query set per `spec`. Panics if the database cannot
/// produce queries of the requested size.
pub fn generate_query_set(db: &GraphDb, spec: QuerySetSpec, seed: u64) -> Vec<Graph> {
    try_generate_query_set(db, spec, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`generate_query_set`], saying why instead of panicking when a query has
/// no edge or the database cannot produce one of the requested size.
pub fn try_generate_query_set(
    db: &GraphDb,
    spec: QuerySetSpec,
    seed: u64,
) -> Result<Vec<Graph>, String> {
    if spec.edges == 0 {
        return Err("a query needs at least one edge".to_string());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..spec.count)
        .map(|i| {
            generate_query(db, spec.method, spec.edges, &mut rng)
                .ok_or_else(|| format!("database cannot produce query {i} of {}", spec.name()))
        })
        .collect()
}

fn random_walk(
    g: &Graph,
    start: VertexId,
    target_edges: usize,
    rng: &mut StdRng,
) -> Option<Vec<(VertexId, VertexId)>> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(target_edges);
    let mut cur = start;
    let step_budget = 200 * target_edges + 50;
    for _ in 0..step_budget {
        if edges.len() == target_edges {
            return Some(edges);
        }
        let adj = g.neighbors(cur);
        if adj.is_empty() {
            return None;
        }
        let next = adj[rng.random_range(0..adj.len())];
        let key = (cur.min(next), cur.max(next));
        if !edges.contains(&key) {
            edges.push(key);
        }
        cur = next;
    }
    (edges.len() == target_edges).then_some(edges)
}

fn bfs_expand(
    g: &Graph,
    start: VertexId,
    target_edges: usize,
    rng: &mut StdRng,
) -> Option<Vec<(VertexId, VertexId)>> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(target_edges);
    let mut visited: Vec<VertexId> = vec![start];
    let mut frontier: Vec<VertexId> = vec![start];

    while edges.len() < target_edges {
        // Take the next BFS vertex with unvisited neighbors; randomize within
        // the frontier for query diversity.
        let mut progressed = false;
        'frontier: while let Some(&u) = frontier.first() {
            let candidates: Vec<VertexId> =
                g.neighbors(u).iter().copied().filter(|v| !visited.contains(v)).collect();
            if candidates.is_empty() {
                frontier.remove(0);
                continue;
            }
            let v = candidates[rng.random_range(0..candidates.len())];
            // Visit v: connect it to every already-visited vertex it touches,
            // stopping exactly at the target (tree edge to u first, keeping
            // the query connected).
            visited.push(v);
            frontier.push(v);
            let mut back: Vec<VertexId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|w| *w != u && visited.contains(w) && *w != v)
                .collect();
            back.insert(0, u);
            for w in back {
                edges.push((v.min(w), v.max(w)));
                if edges.len() == target_edges {
                    break 'frontier;
                }
            }
            progressed = true;
            break;
        }
        if edges.len() == target_edges {
            return Some(edges);
        }
        if !progressed {
            return None; // component exhausted before reaching the target
        }
    }
    Some(edges)
}

/// Builds the query graph induced by `edges` of `g`, relabeling vertices
/// densely in order of first appearance.
fn induce(g: &Graph, edges: &[(VertexId, VertexId)]) -> Graph {
    let mut map: FxHashMap<VertexId, VertexId> = FxHashMap::default();
    let mut b = GraphBuilder::with_capacity(edges.len() + 1);
    b.reserve_edges(edges.len());
    let mut id_of = |v: VertexId, b: &mut GraphBuilder| -> VertexId {
        *map.entry(v).or_insert_with(|| b.add_vertex(g.label(v)))
    };
    for &(u, v) in edges {
        let qu = id_of(u, &mut b);
        let qv = id_of(v, &mut b);
        b.add_edge(qu, qv).expect("distinct endpoints");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphgen::generate;
    use sqp_graph::algo::is_connected;

    fn db() -> GraphDb {
        generate(10, 60, 5, 4.0, 17)
    }

    #[test]
    fn random_walk_queries_have_exact_edges() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let q = generate_query(&db, QueryGenMethod::RandomWalk, 8, &mut rng).unwrap();
            assert_eq!(q.edge_count(), 8);
            assert!(is_connected(&q));
        }
    }

    #[test]
    fn bfs_queries_have_exact_edges_and_are_denser() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(2);
        let (mut sparse_v, mut dense_v) = (0usize, 0usize);
        for _ in 0..20 {
            let s = generate_query(&db, QueryGenMethod::RandomWalk, 16, &mut rng).unwrap();
            let d = generate_query(&db, QueryGenMethod::Bfs, 16, &mut rng).unwrap();
            assert_eq!(s.edge_count(), 16);
            assert_eq!(d.edge_count(), 16);
            assert!(is_connected(&d));
            sparse_v += s.vertex_count();
            dense_v += d.vertex_count();
        }
        // Dense queries pack the same edges into fewer vertices.
        assert!(dense_v < sparse_v, "dense {dense_v} vs sparse {sparse_v}");
    }

    #[test]
    fn labels_come_from_data_graph() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(3);
        let q = generate_query(&db, QueryGenMethod::Bfs, 6, &mut rng).unwrap();
        let space = db.label_space();
        for v in q.vertices() {
            assert!(q.label(v).index() < space);
        }
    }

    #[test]
    fn query_set_has_count_and_determinism() {
        let db = db();
        let spec = QuerySetSpec { edges: 4, method: QueryGenMethod::RandomWalk, count: 10 };
        let a = generate_query_set(&db, spec, 5);
        let b = generate_query_set(&db, spec, 5);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.vertex_count(), y.vertex_count());
            assert_eq!(x.edge_count(), y.edge_count());
        }
    }

    #[test]
    fn paper_suite_is_eight_sets() {
        let suite = QuerySetSpec::paper_suite(100);
        assert_eq!(suite.len(), 8);
        let names: Vec<String> = suite.iter().map(|s| s.name()).collect();
        assert!(names.contains(&"Q4S".to_string()));
        assert!(names.contains(&"Q32D".to_string()));
    }

    #[test]
    fn impossible_size_returns_none() {
        let db = generate(2, 4, 2, 2.0, 9); // ≤ 6 edges per graph
        let mut rng = StdRng::seed_from_u64(4);
        assert!(generate_query(&db, QueryGenMethod::RandomWalk, 50, &mut rng).is_none());
    }
}
