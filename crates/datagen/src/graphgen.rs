//! GraphGen-equivalent synthetic database generator.
//!
//! GraphGen (Cheng et al., used by the paper and by Katsarou et al.'s
//! performance study) generates a collection of labeled data graphs from four
//! knobs: the number of graphs `|D|`, vertices per graph `|V(G)|`, distinct
//! labels `|Σ|`, and density/degree. This module reproduces that parameter
//! surface.
//!
//! Each data graph is generated as a uniform random spanning tree (guaranteeing
//! connectivity, like GraphGen's output graphs) plus uniformly sampled extra
//! edges until the target edge count `|V| · d / 2` is reached. Vertex labels
//! are drawn uniformly from `Σ`, matching GraphGen's default label model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sqp_graph::{Graph, GraphBuilder, GraphDb, Label, VertexId};

/// Parameters of the synthetic generator (§IV-A defaults: `|D| = 1000`,
/// `|Σ| = 20`, `|V(G)| = 200`, `d(G) = 8`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphGenConfig {
    /// Number of data graphs `|D|`.
    pub graphs: usize,
    /// Vertices per data graph `|V(G)|`.
    pub vertices: usize,
    /// Number of distinct labels `|Σ|`.
    pub labels: usize,
    /// Average degree `d(G) = 2|E|/|V|`.
    pub degree: f64,
    /// RNG seed; the same seed reproduces the same database.
    pub seed: u64,
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        Self { graphs: 1000, vertices: 200, labels: 20, degree: 8.0, seed: 42 }
    }
}

impl GraphGenConfig {
    /// The paper's default synthetic configuration.
    pub fn paper_default() -> Self {
        Self::default()
    }
}

/// The generator. Construct once, then [`generate`](GraphGen::generate).
#[derive(Debug)]
pub struct GraphGen {
    config: GraphGenConfig,
}

impl GraphGen {
    /// Creates a generator for `config`.
    pub fn new(config: GraphGenConfig) -> Self {
        assert!(config.labels > 0, "need at least one label");
        assert!(config.vertices > 0, "need at least one vertex per graph");
        Self { config }
    }

    /// Generates the whole database.
    pub fn generate(&self) -> GraphDb {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let graphs = (0..self.config.graphs).map(|_| self.generate_graph(&mut rng)).collect();
        GraphDb::from_graphs(graphs)
    }

    /// Generates one connected data graph.
    pub fn generate_graph(&self, rng: &mut StdRng) -> Graph {
        let n = self.config.vertices;
        let sigma = self.config.labels as u32;
        // The tree and the extra edges stop at the target count.
        let target = ((n as f64 * self.config.degree) / 2.0).round() as usize;
        let max_edges = n * (n - 1) / 2;
        let target = target.clamp(n.saturating_sub(1), max_edges);
        let mut b = GraphBuilder::with_capacity(n);
        b.reserve_edges(target);
        for _ in 0..n {
            b.add_vertex(Label(rng.random_range(0..sigma)));
        }
        // Random spanning tree: attach each vertex to a uniformly random
        // earlier vertex (random recursive tree).
        for v in 1..n {
            let u = rng.random_range(0..v);
            b.add_edge(VertexId::from(u), VertexId::from(v)).expect("valid tree edge");
        }
        // Extra edges up to the target count. Cap retries so dense configs on
        // tiny graphs (target beyond the complete graph) terminate.
        let mut attempts = 0usize;
        let attempt_budget = 20 * target + 100;
        while b.edge_count() < target && attempts < attempt_budget {
            attempts += 1;
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u == v {
                continue;
            }
            let _ = b.add_edge(VertexId::from(u), VertexId::from(v));
        }
        b.build()
    }
}

/// Convenience wrapper: generate a database from parameters.
///
/// # Examples
///
/// ```
/// let db = sqp_datagen::graphgen::generate(10, 50, 5, 4.0, 42);
/// assert_eq!(db.len(), 10);
/// let stats = db.stats();
/// assert!((stats.avg_degree - 4.0).abs() < 0.5);
/// ```
pub fn generate(graphs: usize, vertices: usize, labels: usize, degree: f64, seed: u64) -> GraphDb {
    GraphGen::new(GraphGenConfig { graphs, vertices, labels, degree, seed }).generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::algo::is_connected;

    #[test]
    fn respects_counts() {
        let db = generate(10, 50, 5, 4.0, 1);
        assert_eq!(db.len(), 10);
        for g in db.graphs() {
            assert_eq!(g.vertex_count(), 50);
            assert!(g.distinct_label_count() <= 5);
        }
    }

    #[test]
    fn graphs_are_connected() {
        let db = generate(20, 30, 3, 3.0, 7);
        for g in db.graphs() {
            assert!(is_connected(g));
        }
    }

    #[test]
    fn degree_close_to_target() {
        let db = generate(5, 200, 20, 8.0, 3);
        for g in db.graphs() {
            assert!((g.average_degree() - 8.0).abs() < 0.5, "degree {}", g.average_degree());
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate(3, 20, 4, 3.0, 99);
        let b = generate(3, 20, 4, 3.0, 99);
        for (ga, gb) in a.graphs().iter().zip(b.graphs()) {
            assert_eq!(ga.edge_count(), gb.edge_count());
            for v in ga.vertices() {
                assert_eq!(ga.label(v), gb.label(v));
                assert_eq!(ga.neighbors(v), gb.neighbors(v));
            }
        }
        let c = generate(3, 20, 4, 3.0, 100);
        let differs = a.graphs().iter().zip(c.graphs()).any(|(x, y)| {
            x.vertices().any(|v| x.label(v) != y.label(v)) || x.edge_count() != y.edge_count()
        });
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn dense_target_clamped_to_complete_graph() {
        // degree 64 on 5 vertices exceeds the complete graph; must terminate.
        let db = generate(2, 5, 2, 64.0, 5);
        for g in db.graphs() {
            assert!(g.edge_count() <= 10);
        }
    }

    #[test]
    fn single_label_database() {
        let db = generate(3, 20, 1, 4.0, 11);
        for g in db.graphs() {
            assert_eq!(g.distinct_label_count(), 1);
        }
    }
}
