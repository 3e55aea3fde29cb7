//! Per-query feature extraction for adaptive engine routing.
//!
//! The adaptive router (sqp-core's `AdaptiveEngine`) predicts each engine's
//! cost from a cheap, *pure* feature vector of the query against a label
//! histogram of the target database. Extraction must cost a negligible
//! fraction of query time (the adaptive bench asserts < 1% of the median
//! query wall time), so every feature is a single pass over the query graph:
//!
//! * size and shape — vertex/edge counts, edge density, degree profile;
//! * label selectivity — how common the query's labels are in the database
//!   (mean and rarest-label document frequency), the classic index-filter
//!   signal;
//! * core/leaf decomposition — the 2-core fraction separates cyclic
//!   (enumeration-heavy) queries from tree-like (filter-friendly) ones,
//!   mirroring CFL's core-forest-leaf split;
//! * NLF signature sparsity — how much of the label space each vertex's
//!   neighborhood touches, a proxy for how discriminating NLF-style filters
//!   will be.
//!
//! Everything here is deterministic: the same query and histogram always
//! produce the same [`QueryFeatures`] and the same [`QueryFeatures::to_vector`]
//! output, which is what makes frozen-model routing byte-reproducible.

use sqp_graph::algo::two_core;
use sqp_graph::{Graph, GraphDb, Label};

/// Dimension of [`QueryFeatures::to_vector`] (including the bias term).
pub const FEATURE_DIM: usize = 11;

/// Database-side label document frequencies: how often each label occurs
/// across every graph of the database. Built once per database (at engine
/// build time), then shared by every per-query extraction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LabelHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LabelHistogram {
    /// Histogram over every vertex of every graph in `db`.
    pub fn from_db(db: &GraphDb) -> Self {
        Self::from_graphs(db.graphs())
    }

    /// Histogram over every vertex of the given graphs.
    pub fn from_graphs<'a>(graphs: impl IntoIterator<Item = &'a Graph>) -> Self {
        let mut counts: Vec<u64> = Vec::new();
        let mut total = 0u64;
        for g in graphs {
            for &Label(l) in g.labels() {
                let idx = l as usize;
                if idx >= counts.len() {
                    counts.resize(idx + 1, 0);
                }
                counts[idx] += 1;
                total += 1;
            }
        }
        Self { counts, total }
    }

    /// Number of distinct label ids the histogram spans (max label + 1).
    pub fn label_space(&self) -> usize {
        self.counts.len()
    }

    /// Total vertices counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of all database vertices carrying label `l` (0.0 for labels
    /// the database never uses — maximally selective).
    pub fn selectivity(&self, l: Label) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let c = self.counts.get(l.0 as usize).copied().unwrap_or(0);
        c as f64 / self.total as f64
    }
}

/// The per-query feature vector, in named form. [`extract`] computes it;
/// [`QueryFeatures::to_vector`] flattens it for the cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryFeatures {
    /// `|V(q)|`.
    pub vertices: usize,
    /// `|E(q)|`.
    pub edges: usize,
    /// Edge density `2|E| / (|V|(|V|-1))`, 0 for fewer than two vertices.
    pub density: f64,
    /// Maximum vertex degree.
    pub max_degree: usize,
    /// Average vertex degree.
    pub avg_degree: f64,
    /// Mean database document frequency of the query's vertex labels.
    pub label_selectivity: f64,
    /// Document frequency of the query's *rarest* label (the strongest
    /// single-label filter signal).
    pub rare_label_selectivity: f64,
    /// Fraction of query vertices in the 2-core (cyclic part).
    pub core_frac: f64,
    /// Fraction of query vertices of degree ≤ 1 (leaves and isolates).
    pub leaf_frac: f64,
    /// NLF signature sparsity: 1 − (mean distinct neighbor labels per
    /// vertex) / label space. Near 1 = sparse signatures (discriminating
    /// NLF filters), near 0 = signatures touching the whole label space.
    pub nlf_sparsity: f64,
}

impl QueryFeatures {
    /// Flattens to the model's input vector. Element 0 is a constant bias;
    /// count-like features are log-compressed so the linear model sees
    /// commensurate scales across query sizes.
    pub fn to_vector(&self) -> [f64; FEATURE_DIM] {
        [
            1.0,
            (1.0 + self.vertices as f64).ln(),
            (1.0 + self.edges as f64).ln(),
            self.density,
            (1.0 + self.max_degree as f64).ln(),
            self.avg_degree,
            self.label_selectivity,
            self.rare_label_selectivity,
            self.core_frac,
            self.leaf_frac,
            self.nlf_sparsity,
        ]
    }
}

/// Extracts the routing features of `q` against the database histogram —
/// a pure function: no clocks, no randomness, no global state.
pub fn extract(q: &Graph, hist: &LabelHistogram) -> QueryFeatures {
    let n = q.vertex_count();
    let m = q.edge_count();
    let density = if n < 2 { 0.0 } else { 2.0 * m as f64 / (n as f64 * (n as f64 - 1.0)) };

    let mut label_sum = 0.0f64;
    let mut rare = f64::INFINITY;
    let mut leaves = 0usize;
    let mut nlf_runs = 0usize;
    for v in q.vertices() {
        let s = hist.selectivity(q.label(v));
        label_sum += s;
        rare = rare.min(s);
        if q.degree(v) <= 1 {
            leaves += 1;
        }
        nlf_runs += q.label_runs(v).len();
    }
    let (label_selectivity, rare_label_selectivity, leaf_frac, mean_runs) = if n == 0 {
        (0.0, 0.0, 0.0, 0.0)
    } else {
        (label_sum / n as f64, rare, leaves as f64 / n as f64, nlf_runs as f64 / n as f64)
    };
    let core_frac = if n == 0 { 0.0 } else { two_core(q).len() as f64 / n as f64 };
    let space = hist.label_space().max(q.label_space()).max(1);
    let nlf_sparsity = (1.0 - mean_runs / space as f64).clamp(0.0, 1.0);

    QueryFeatures {
        vertices: n,
        edges: m,
        density,
        max_degree: q.max_degree(),
        avg_degree: q.average_degree(),
        label_selectivity,
        rare_label_selectivity,
        core_frac,
        leaf_frac,
        nlf_sparsity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::{GraphBuilder, VertexId};

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

    /// DB: triangle(0,1,2) + path(0,0,1) → label 0 ×3, label 1 ×2, label 2 ×1.
    fn hist() -> LabelHistogram {
        LabelHistogram::from_graphs([
            &labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]),
            &labeled(&[0, 0, 1], &[(0, 1), (1, 2)]),
        ])
    }

    #[test]
    fn histogram_counts_every_vertex() {
        let h = hist();
        assert_eq!(h.total(), 6);
        assert_eq!(h.label_space(), 3);
        assert!((h.selectivity(Label(0)) - 0.5).abs() < 1e-12);
        assert!((h.selectivity(Label(1)) - 2.0 / 6.0).abs() < 1e-12);
        assert!((h.selectivity(Label(2)) - 1.0 / 6.0).abs() < 1e-12);
        // A label the database never uses is maximally selective.
        assert_eq!(h.selectivity(Label(99)), 0.0);
    }

    #[test]
    fn triangle_with_tail_features() {
        // Triangle 0-1-2 plus a pendant vertex 3 hanging off vertex 2.
        let q = labeled(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let f = extract(&q, &hist());
        assert_eq!(f.vertices, 4);
        assert_eq!(f.edges, 4);
        assert!((f.density - 2.0 * 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(f.max_degree, 3);
        assert!((f.avg_degree - 2.0).abs() < 1e-12);
        // Labels 0,1,2,0 → mean of (0.5, 1/3, 1/6, 0.5); rarest is label 2.
        assert!((f.label_selectivity - (0.5 + 1.0 / 3.0 + 1.0 / 6.0 + 0.5) / 4.0).abs() < 1e-12);
        assert!((f.rare_label_selectivity - 1.0 / 6.0).abs() < 1e-12);
        // The triangle is the 2-core; vertex 3 is the single leaf.
        assert!((f.core_frac - 0.75).abs() < 1e-12);
        assert!((f.leaf_frac - 0.25).abs() < 1e-12);
        assert!(f.nlf_sparsity > 0.0 && f.nlf_sparsity < 1.0);
    }

    #[test]
    fn path_has_no_core() {
        let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let f = extract(&q, &hist());
        assert_eq!(f.core_frac, 0.0);
        assert!((f.leaf_frac - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_vertex_is_degenerate_but_finite() {
        let q = labeled(&[1], &[]);
        let f = extract(&q, &hist());
        assert_eq!(f.vertices, 1);
        assert_eq!(f.edges, 0);
        assert_eq!(f.density, 0.0);
        assert_eq!(f.leaf_frac, 1.0);
        for x in f.to_vector() {
            assert!(x.is_finite());
        }
    }

    #[test]
    fn vector_is_deterministic_and_bias_leading() {
        let q = labeled(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let h = hist();
        let a = extract(&q, &h).to_vector();
        let b = extract(&q, &h).to_vector();
        assert_eq!(a, b);
        assert_eq!(a[0], 1.0);
        assert_eq!(a.len(), FEATURE_DIM);
        for x in a {
            assert!(x.is_finite());
        }
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LabelHistogram::default();
        assert_eq!(h.selectivity(Label(0)), 0.0);
        let f = extract(&labeled(&[0, 1], &[(0, 1)]), &h);
        assert_eq!(f.label_selectivity, 0.0);
        for x in f.to_vector() {
            assert!(x.is_finite());
        }
    }
}
