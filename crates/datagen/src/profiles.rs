//! Real-dataset stand-ins.
//!
//! The four real datasets of the paper cannot be redistributed, so each is
//! replaced by a generator parameterized to the published Table IV
//! statistics. The properties the paper's analysis actually depends on —
//! graph count, graph size, density, label-space size, and per-graph label
//! diversity — are matched; per-graph label subsets are drawn with a Zipf
//! bias, mimicking the skew of chemical/biological labels (e.g. carbon
//! dominating molecule graphs).
//!
//! | Profile | #graphs | #labels | V/graph | degree | labels/graph |
//! |---------|---------|---------|---------|--------|--------------|
//! | AIDS    | 40,000  | 62      | 45      | 2.09   | 4.4          |
//! | PDBS    | 600     | 10      | 2,939   | 2.06   | 6.4          |
//! | PCM     | 200     | 21      | 377     | 23.01  | 18.9         |
//! | PPI     | 20      | 46      | 4,942   | 10.87  | 28.5         |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sqp_graph::{Graph, GraphBuilder, GraphDb, Label, VertexId};

/// A parameterized dataset profile.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetProfile {
    /// Human-readable dataset name (e.g. `"AIDS-like"`).
    pub name: &'static str,
    /// Number of data graphs.
    pub graphs: usize,
    /// Global label-space size `|Σ|`.
    pub labels: usize,
    /// Average vertices per graph.
    pub avg_vertices: usize,
    /// Relative jitter on the vertex count (graph sizes vary in real data).
    pub vertex_jitter: f64,
    /// Target average degree.
    pub degree: f64,
    /// Average number of distinct labels used per graph.
    pub labels_per_graph: usize,
}

impl DatasetProfile {
    /// Scales the profile down by `factor` (graph count and graph size), for
    /// quick harness runs. `factor = 1.0` is the paper-faithful profile.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0);
        self.graphs = ((self.graphs as f64 * factor).round() as usize).max(1);
        self.avg_vertices = ((self.avg_vertices as f64 * factor).round() as usize).max(4);
        self
    }

    /// Generates the database for this profile.
    pub fn generate(&self, seed: u64) -> GraphDb {
        let mut rng = StdRng::seed_from_u64(seed);
        // Zipf-ish weights over the global label space; a cumulative table
        // drives sampling.
        let weights: Vec<f64> = (0..self.labels).map(|l| 1.0 / (l as f64 + 1.0)).collect();
        let graphs = (0..self.graphs).map(|_| self.generate_graph(&mut rng, &weights)).collect();
        GraphDb::from_graphs(graphs)
    }

    fn generate_graph(&self, rng: &mut StdRng, weights: &[f64]) -> Graph {
        // Vertex count with jitter.
        let jitter = (self.avg_vertices as f64 * self.vertex_jitter) as i64;
        let n = if jitter > 0 {
            (self.avg_vertices as i64 + rng.random_range(-jitter..=jitter)).max(3) as usize
        } else {
            self.avg_vertices.max(1)
        };

        // Per-graph label subset, Zipf-weighted without replacement.
        let k = self.labels_per_graph.min(self.labels).max(1);
        let mut available: Vec<usize> = (0..self.labels).collect();
        let mut subset = Vec::with_capacity(k);
        for _ in 0..k {
            let total: f64 = available.iter().map(|&l| weights[l]).sum();
            let mut t = rng.random_range(0.0..total);
            let mut pick = available.len() - 1;
            for (i, &l) in available.iter().enumerate() {
                t -= weights[l];
                if t <= 0.0 {
                    pick = i;
                    break;
                }
            }
            subset.push(available.swap_remove(pick));
        }

        // Vertex labels: Zipf within the subset (first-picked labels dominate,
        // like carbon in molecules).
        let sub_weights: Vec<f64> = (0..subset.len()).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let sub_total: f64 = sub_weights.iter().sum();
        // The tree and the extra edges stop at the target count.
        let target = ((n as f64 * self.degree) / 2.0).round() as usize;
        let max_edges = n * (n.saturating_sub(1)) / 2;
        let target = target.clamp(n.saturating_sub(1), max_edges);
        let mut b = GraphBuilder::with_capacity(n);
        b.reserve_edges(target);
        for _ in 0..n {
            let mut t = rng.random_range(0.0..sub_total);
            let mut pick = subset.len() - 1;
            for (i, w) in sub_weights.iter().enumerate() {
                t -= w;
                if t <= 0.0 {
                    pick = i;
                    break;
                }
            }
            b.add_vertex(Label(subset[pick] as u32));
        }

        // Connected topology: spanning tree + uniform extra edges.
        for v in 1..n {
            let u = rng.random_range(0..v);
            b.add_edge(VertexId::from(u), VertexId::from(v)).expect("tree edge");
        }
        let budget = 20 * target + 100;
        let mut attempts = 0;
        while b.edge_count() < target && attempts < budget {
            attempts += 1;
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v {
                let _ = b.add_edge(VertexId::from(u), VertexId::from(v));
            }
        }
        b.build()
    }
}

/// AIDS-like: many small sparse molecule graphs with a skewed label set.
pub fn aids_like() -> DatasetProfile {
    DatasetProfile {
        name: "AIDS-like",
        graphs: 40_000,
        labels: 62,
        avg_vertices: 45,
        vertex_jitter: 0.5,
        degree: 2.09,
        labels_per_graph: 4,
    }
}

/// PDBS-like: hundreds of large, very sparse DNA/RNA/protein backbones.
pub fn pdbs_like() -> DatasetProfile {
    DatasetProfile {
        name: "PDBS-like",
        graphs: 600,
        labels: 10,
        avg_vertices: 2_939,
        vertex_jitter: 0.4,
        degree: 2.06,
        labels_per_graph: 6,
    }
}

/// PCM-like: a few hundred medium, dense protein-contact maps.
pub fn pcm_like() -> DatasetProfile {
    DatasetProfile {
        name: "PCM-like",
        graphs: 200,
        labels: 21,
        avg_vertices: 377,
        vertex_jitter: 0.3,
        degree: 23.01,
        labels_per_graph: 19,
    }
}

/// PPI-like: a handful of very large, dense protein-interaction networks.
pub fn ppi_like() -> DatasetProfile {
    DatasetProfile {
        name: "PPI-like",
        graphs: 20,
        labels: 46,
        avg_vertices: 4_942,
        vertex_jitter: 0.2,
        degree: 10.87,
        labels_per_graph: 28,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::algo::is_connected;

    #[test]
    fn scaled_profile_matches_statistics() {
        // Full AIDS at 1/100 scale: cheap but statistically representative.
        let p = aids_like().scaled(0.01);
        let db = p.generate(1);
        assert_eq!(db.len(), 400);
        let s = db.stats();
        assert!((s.avg_degree - 2.09).abs() < 0.6, "degree {}", s.avg_degree);
        assert!(s.avg_labels >= 2.0 && s.avg_labels <= 6.0, "labels/graph {}", s.avg_labels);
        for g in db.graphs() {
            assert!(is_connected(g));
        }
    }

    #[test]
    fn pcm_like_is_dense() {
        let p = pcm_like().scaled(0.2);
        let db = p.generate(2);
        let s = db.stats();
        assert!(s.avg_degree > 10.0, "degree {}", s.avg_degree);
    }

    #[test]
    fn deterministic() {
        let p = pdbs_like().scaled(0.02);
        let a = p.generate(7);
        let b = p.generate(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.graphs().iter().zip(b.graphs()) {
            assert_eq!(x.vertex_count(), y.vertex_count());
            assert_eq!(x.edge_count(), y.edge_count());
        }
    }

    #[test]
    fn label_subsets_are_bounded() {
        let p = ppi_like().scaled(0.05);
        let db = p.generate(3);
        for g in db.graphs() {
            assert!(g.distinct_label_count() <= 28);
        }
    }

    #[test]
    fn scaled_clamps() {
        let p = aids_like().scaled(0.0001);
        assert!(p.graphs >= 1);
        assert!(p.avg_vertices >= 4);
    }
}

#[cfg(test)]
mod full_scale_tests {
    //! Table IV fidelity at the paper's full scale. These generate the
    //! complete stand-in datasets (~10 s total) and check the published
    //! statistics within tolerance.
    use super::*;

    fn check(p: DatasetProfile, degree: f64, graphs: usize, labels: usize) {
        let db = p.generate(99);
        let s = db.stats();
        assert_eq!(s.graphs, graphs, "{}", p.name);
        assert!(s.labels <= labels, "{}: {} labels", p.name, s.labels);
        assert!(
            (s.avg_degree - degree).abs() / degree < 0.15,
            "{}: degree {} vs {}",
            p.name,
            s.avg_degree,
            degree
        );
    }

    #[test]
    #[ignore = "generates full-scale datasets; run with --ignored"]
    fn aids_full_matches_table_iv() {
        check(aids_like(), 2.09, 40_000, 62);
    }

    #[test]
    fn pdbs_full_matches_table_iv() {
        check(pdbs_like(), 2.06, 600, 10);
    }

    #[test]
    fn pcm_full_matches_table_iv() {
        check(pcm_like(), 23.01, 200, 21);
    }

    #[test]
    fn ppi_full_matches_table_iv() {
        check(ppi_like(), 10.87, 20, 46);
    }
}
