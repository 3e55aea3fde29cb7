//! Benchmark-owned update-stream generator for the dynamic workloads.
//!
//! `sqp_core::chaos::UpdateStreamGen` is not used: the prototype measured
//! 67 s to produce 1 000 × 500 ops with it, and its `RemoveVertex` ids go
//! stale once compaction renumbers (see README, "Observations"). This
//! generator is edge-centric and never removes a vertex, so compaction's
//! dense renumbering is the identity and every id in a
//! drawn batch stays valid whenever compaction happens to run.
//!
//! Each draw is either a *vertex group* (`AddVertex` + two edges from the new
//! vertex, probability [`VERTEX_GROUP_PROB`]) or one edge op: `RemoveEdge` of
//! a uniformly chosen live edge when the mirror holds more edges than the
//! base graph did, `AddEdge` of a uniformly chosen absent pair otherwise.
//! The edge count therefore stays within a few edges of the base graph's, so
//! a time-bounded run sees the same graph statistics however deep into the
//! stream it gets.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqp_graph::{Graph, GraphBuilder, Label, Update, VertexId};

/// Probability that a draw adds a vertex (with two edges) rather than one
/// edge op: about one new vertex per twelve 500-op batches. Kept this small
/// because vertices only ever accumulate; at the issue's 10 % the vertex
/// count would double, and the mean degree halve, within one measured run.
pub const VERTEX_GROUP_PROB: f64 = 0.0002;

/// The generator's model of the graph: what a correct `DynamicGraph` must
/// hold after applying every batch generated so far.
#[derive(Clone, Debug)]
pub struct Mirror {
    labels: Vec<Label>,
    edges: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
}

fn key(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

impl Mirror {
    /// Mirrors `base` exactly.
    pub fn of(base: &Graph) -> Self {
        let mut edges = Vec::with_capacity(base.edge_count());
        for u in base.vertices() {
            for &v in base.neighbors(u) {
                if u < v {
                    edges.push((u.0, v.0));
                }
            }
        }
        let present = edges.iter().copied().collect();
        Self { labels: base.labels().to_vec(), edges, present }
    }

    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// The mirrored graph as an immutable CSR.
    pub fn to_graph(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.labels.len());
        for &l in &self.labels {
            b.add_vertex(l);
        }
        for &(u, v) in &self.edges {
            b.add_edge(VertexId(u), VertexId(v)).expect("mirror edges are simple and in range");
        }
        b.build()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    #[cfg(test)]
    fn has_edge(&self, u: u32, v: u32) -> bool {
        self.present.contains(&key(u, v))
    }

    /// Applies `update`, returning `false` (and changing nothing) unless it
    /// is one the generator may emit against this state: a fresh vertex, an
    /// absent edge between known distinct vertices, or the removal of a
    /// present edge. The unit tests replay the stream through it.
    #[cfg(test)]
    fn apply(&mut self, update: &Update) -> bool {
        match *update {
            Update::AddVertex { label } => {
                self.labels.push(label);
                true
            }
            Update::AddEdge { u, v } => {
                let ok = u != v
                    && u.index() < self.labels.len()
                    && v.index() < self.labels.len()
                    && self.present.insert(key(u.0, v.0));
                if ok {
                    self.edges.push(key(u.0, v.0));
                }
                ok
            }
            Update::RemoveEdge { u, v } => {
                if !self.present.remove(&key(u.0, v.0)) {
                    return false;
                }
                // The generator itself removes by position (`remove_at`).
                if let Some(at) = self.edges.iter().position(|&e| e == key(u.0, v.0)) {
                    self.edges.swap_remove(at);
                }
                true
            }
            Update::RemoveVertex { .. } => false,
        }
    }

    fn remove_at(&mut self, at: usize) -> (u32, u32) {
        let e = self.edges.swap_remove(at);
        self.present.remove(&e);
        e
    }

    fn add_absent(&mut self, rng: &mut StdRng, from: Option<u32>) -> (u32, u32) {
        loop {
            let n = self.labels.len() as u32;
            let u = from.unwrap_or_else(|| rng.random_range(0..n));
            let v = rng.random_range(0..n);
            if u != v && self.present.insert(key(u, v)) {
                self.edges.push(key(u, v));
                return (u, v);
            }
        }
    }
}

/// The stream: batches are drawn one at a time, each valid against the
/// mirror as the previous batch left it. Memory stays constant however long
/// the run; a driver that times its ops individually calls `next_batch`
/// between them, outside any timed call.
#[derive(Clone, Debug)]
pub struct StreamGen {
    rng: StdRng,
    mirror: Mirror,
    target_edges: usize,
    labels: u32,
    ops_per_batch: usize,
}

impl StreamGen {
    /// A stream against `base`, whose labels are drawn from `0..labels`,
    /// in batches of at least `ops_per_batch` updates (a vertex group may
    /// overshoot by two).
    pub fn new(base: &Graph, labels: u32, ops_per_batch: usize, seed: u64) -> Self {
        let mirror = Mirror::of(base);
        Self {
            rng: StdRng::seed_from_u64(seed),
            target_edges: mirror.edge_count(),
            mirror,
            labels,
            ops_per_batch,
        }
    }

    /// What the graph must look like once every batch drawn so far is
    /// applied.
    pub fn mirror(&self) -> &Mirror {
        &self.mirror
    }

    pub fn next_batch(&mut self) -> Vec<Update> {
        let (rng, mirror) = (&mut self.rng, &mut self.mirror);
        let mut batch = Vec::with_capacity(self.ops_per_batch + 2);
        while batch.len() < self.ops_per_batch {
            if rng.random_bool(VERTEX_GROUP_PROB) {
                let label = Label(rng.random_range(0..self.labels));
                batch.push(Update::AddVertex { label });
                let fresh = mirror.labels.len() as u32;
                mirror.labels.push(label);
                for _ in 0..2 {
                    let (u, v) = mirror.add_absent(rng, Some(fresh));
                    batch.push(Update::AddEdge { u: VertexId(u), v: VertexId(v) });
                }
            } else if mirror.edge_count() > self.target_edges {
                let at = rng.random_range(0..mirror.edges.len());
                let (u, v) = mirror.remove_at(at);
                batch.push(Update::RemoveEdge { u: VertexId(u), v: VertexId(v) });
            } else {
                let (u, v) = mirror.add_absent(rng, None);
                batch.push(Update::AddEdge { u: VertexId(u), v: VertexId(v) });
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::{CompactionPolicy, DynamicGraph};

    fn base() -> Graph {
        sqp_datagen::graphgen::generate(1, 300, 4, 4.0, 9).graphs()[0].clone()
    }

    #[test]
    fn every_batch_is_valid_against_its_mirror() {
        let g = base();
        let mut stream = StreamGen::new(&g, 4, 50, 3);
        let mut replay = Mirror::of(&g);
        for i in 0..40 {
            let batch = stream.next_batch();
            assert!(batch.len() >= 50 && batch.len() <= 52);
            for up in &batch {
                assert!(replay.apply(up), "batch {i}: {up:?} invalid against the mirror");
            }
            assert_eq!(replay.edge_count(), stream.mirror().edge_count());
            assert_eq!(replay.vertex_count(), stream.mirror().vertex_count());
        }
    }

    #[test]
    fn edge_count_stays_stationary() {
        let g = base();
        let mut stream = StreamGen::new(&g, 4, 50, 4);
        for _ in 0..60 {
            stream.next_batch();
            let e = stream.mirror().edge_count();
            assert!(e.abs_diff(g.edge_count()) <= 2, "{e} vs {}", g.edge_count());
        }
    }

    #[test]
    fn ids_stay_valid_across_compaction() {
        let g = base();
        let mut stream = StreamGen::new(&g, 4, 50, 5);
        let mut dynamic = DynamicGraph::new(g);
        // Compact after every few batches: far more often than any policy.
        let eager = CompactionPolicy { min_delta_ops: 100, delta_ratio: 0.0 };
        let mut compactions = 0;
        for _ in 0..60 {
            let batch = stream.next_batch();
            let fx = dynamic.apply_batch(&batch).expect("a drawn batch must stay valid");
            assert_eq!(fx.applied, batch.len(), "no duplicate or no-op update is ever drawn");
            if let Some(report) = dynamic.maybe_compact(&eager) {
                compactions += 1;
                assert!(
                    report.mapping.iter().enumerate().all(|(i, m)| *m == Some(VertexId(i as u32))),
                    "no vertex is ever removed, so renumbering must be the identity"
                );
            }
            assert_eq!(dynamic.edge_count(), stream.mirror().edge_count());
            assert_eq!(dynamic.live_vertex_count(), stream.mirror().vertex_count());
        }
        assert!(compactions > 5);
    }

    #[test]
    fn vertex_groups_occur_and_the_mirror_rebuilds_as_a_graph() {
        let g = base();
        let mut stream = StreamGen::new(&g, 4, 500, 6);
        let mut dynamic = DynamicGraph::new(g.clone());
        for _ in 0..40 {
            dynamic.apply_batch(&stream.next_batch()).unwrap();
        }
        let rebuilt = stream.mirror().to_graph();
        assert!(rebuilt.vertex_count() > g.vertex_count(), "20 000 draws at 0.02 % add vertices");
        let (materialized, _) = dynamic.materialize();
        assert_eq!(rebuilt.vertex_count(), materialized.vertex_count());
        assert_eq!(rebuilt.edge_count(), materialized.edge_count());
        assert_eq!(rebuilt.labels(), materialized.labels());
        for v in rebuilt.vertices() {
            assert_eq!(rebuilt.neighbors(v), materialized.neighbors(v));
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let g = base();
        let draw = |seed| {
            let mut s = StreamGen::new(&g, 4, 20, seed);
            (0..5).map(|_| s.next_batch()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn mirror_rejects_what_the_generator_never_emits() {
        let g = base();
        let mut m = Mirror::of(&g);
        let (u, v) = m.edges[0];
        assert!(m.has_edge(v, u));
        assert!(!m.apply(&Update::AddEdge { u: VertexId(u), v: VertexId(v) }), "duplicate");
        assert!(!m.apply(&Update::AddEdge { u: VertexId(u), v: VertexId(u) }), "self-loop");
        assert!(m.apply(&Update::RemoveEdge { u: VertexId(v), v: VertexId(u) }));
        assert!(!m.has_edge(u, v));
        assert!(!m.apply(&Update::RemoveEdge { u: VertexId(u), v: VertexId(v) }), "absent");
        assert!(!m.apply(&Update::RemoveVertex { vertex: VertexId(0) }));
    }
}
