//! The overlay's entry points into the one search: [`enumerate_overlay`]
//! answers a query over a [`DynamicGraph`] between compactions without
//! materializing, and [`SeededEnumerator`] answers it around a partial
//! assignment. That is how continuous repair re-enumerates only the affected
//! region: every embedding that is new after a batch maps some query edge
//! onto an added data edge (or some query vertex onto an added data vertex),
//! so pinning those images and completing the rest enumerates exactly the
//! additions.
//!
//! Both run the crate's one [`Enumerator`] over the overlay as a
//! [`SearchSpace`]: adjacency is a label-run slice of the overlay (a base
//! CSR slice, or a patched list), a depth with no mapped neighbor scans the
//! live label-mates, there are no adjacency rows, and `v ∈ Φ(u)` is the exact
//! NLF test, asked of the overlay's one-word
//! [signature](DynamicGraph::signature) first ([`PackedNlf`]: a packed
//! reject is a true reject, a packed accept is the answer where the fold lost
//! nothing, and only otherwise does the run merge decide). The order is
//! `search_order`'s, one per pin pattern.

use std::cmp::Reverse;

use sqp_graph::nlf::{runs_dominated, PackedNlf};
use sqp_graph::{DynamicGraph, Graph, Label, VertexId};

use crate::deadline::{Deadline, Timeout};
use crate::embedding::Embedding;
use crate::enumerate::{Enumerator, SearchSpace};

/// Enumerates every subgraph isomorphism from `q` into the overlay.
///
/// Results are sorted lexicographically by mapping.
pub fn enumerate_overlay(
    q: &Graph,
    g: &DynamicGraph,
    deadline: Deadline,
) -> Result<Vec<Embedding>, Timeout> {
    let mut out = Vec::new();
    SeededEnumerator::new(q, g).enumerate(&[], deadline, &mut out)?;
    out.sort_unstable_by(|a, b| a.as_slice().cmp(b.as_slice()));
    Ok(out)
}

/// The overlay as a search space for one query.
pub(crate) struct Overlay<'a> {
    q: &'a Graph,
    g: &'a DynamicGraph,
    /// Per query vertex, its packed NLF and whether an accept on it needs
    /// no merge over this pair of graphs.
    qsig: Vec<PackedNlf>,
    /// Per query vertex, its place in the query sorted by degree, higher
    /// first (the stronger signature), then by label-mates in the base's
    /// label index, fewer first, then by id.
    rank: Vec<u32>,
}

impl<'a> Overlay<'a> {
    pub(crate) fn new(q: &'a Graph, g: &'a DynamicGraph) -> Self {
        let label_space = q.label_space().max(g.label_space());
        let mut ranked: Vec<VertexId> = q.vertices().collect();
        ranked.sort_by_key(|&u| (Reverse(q.degree(u)), g.base().label_frequency(q.label(u))));
        let mut rank = vec![0; ranked.len()];
        for (at, u) in ranked.into_iter().enumerate() {
            rank[u.index()] = at as u32;
        }
        Self {
            q,
            g,
            qsig: q.vertices().map(|u| PackedNlf::new(q.label_runs(u), label_space)).collect(),
            rank,
        }
    }
}

impl SearchSpace for Overlay<'_> {
    fn slots(&self) -> usize {
        self.g.vertex_slots()
    }
    #[inline]
    fn adjacent(&self, v: VertexId, label: Label) -> &[VertexId] {
        self.g.neighbors_with_label(v, label)
    }
    /// Whether `NLF(u) ⊑ NLF(v)`, decided on `v`'s signature word wherever
    /// that is exact.
    #[inline]
    fn contains(&self, u: VertexId, v: VertexId) -> bool {
        let merge = || runs_dominated(self.q.label_runs(u), self.g.label_runs(v));
        self.qsig[u.index()].dominated_by(self.g.signature(v), merge)
    }
    fn roots(&self, u: VertexId, buf: &mut Vec<VertexId>) {
        self.g.live_vertices_with_label(self.q.label(u), buf);
        buf.retain(|&v| self.contains(u, v));
    }
}

/// A reusable seeded enumerator over one `(query, overlay)` pair.
///
/// The repair inner loop issues one seeded enumeration per label-compatible
/// pin, and the search itself is neighborhood-sized, so whatever a call sets
/// up dominates it. The [`Enumerator`] and its scratch are therefore built
/// once and keep the plan of each pin pattern seen so far; a call selects
/// one. Construct once per repaired query, then
/// [`enumerate`](SeededEnumerator::enumerate) per seed set; a warm call
/// allocates nothing but the embeddings it emits.
pub struct SeededEnumerator<'a> {
    q: &'a Graph,
    g: &'a DynamicGraph,
    /// Holds plan `i` for the pin pattern `patterns[i·n..(i + 1)·n]`.
    search: Enumerator<'a, Overlay<'a>>,
    patterns: Vec<bool>,
    /// Per query vertex, the image the seed set pins it to.
    images: Vec<Option<VertexId>>,
    /// The pinned images in search order: pins lead it, in id order.
    pins: Vec<VertexId>,
}

impl<'a> SeededEnumerator<'a> {
    pub fn new(q: &'a Graph, g: &'a DynamicGraph) -> Self {
        let (search, n) = (Enumerator::unplanned(q, Overlay::new(q, g)), q.vertex_count());
        Self { q, g, search, patterns: Vec::new(), images: vec![None; n], pins: Vec::new() }
    }

    /// Appends to `out` every embedding extending `seeds` (pairs `(query
    /// vertex, data vertex)`), in search order: deterministic, not sorted.
    ///
    /// An inconsistent seed set (unknown query vertex, dead or unknown
    /// image, label mismatch, non-injective, a query vertex pinned to two
    /// images, or a pinned query edge with no data edge) yields nothing
    /// rather than an error: repair seeds are speculative by construction.
    ///
    /// The clock is read once up front and then once per tick interval of
    /// candidates tried, counted across calls.
    pub fn enumerate(
        &mut self,
        seeds: &[(VertexId, VertexId)],
        deadline: Deadline,
        out: &mut Vec<Embedding>,
    ) -> Result<(), Timeout> {
        deadline.check()?;
        let n = self.q.vertex_count();
        if n == 0 {
            return Ok(());
        }
        // Only what no test of the search covers; dominance, pinned edges
        // and injectivity are those of any extension.
        self.images.fill(None);
        for &(u, v) in seeds {
            let Some(image) = self.images.get_mut(u.index()) else { return Ok(()) };
            if !self.g.is_live(v)
                || self.g.label(v) != self.q.label(u)
                || image.is_some_and(|w| w != v)
            {
                return Ok(());
            }
            *image = Some(v);
        }
        let images = &self.images;
        let same = |at: &usize| {
            let pattern = self.patterns.get(at * n..(at + 1) * n);
            pattern.is_some_and(|p| p.iter().zip(images).all(|(&p, i)| p == i.is_some()))
        };
        // Repair pins one pattern for a run of calls: the current plan first.
        let seen = || (0..).take_while(|at| at * n < self.patterns.len()).find(same);
        let plan = match Some(self.search.plan).filter(same).or_else(seen) {
            Some(plan) => plan,
            None => {
                self.patterns.extend(images.iter().map(Option::is_some));
                let pattern = &self.patterns[self.patterns.len() - n..];
                let order = search_order(&self.search.space, pattern);
                self.search.add_plan(order.into_iter().map(VertexId::from))
            }
        };
        self.search.plan = plan;
        self.pins.clear();
        self.pins.extend(images.iter().flatten());
        self.search.run(&self.pins, u64::MAX, deadline, &mut |e| out.push(e.clone()))?;
        Ok(())
    }
}

/// Search order for the backtracking descent, most-constrained-first:
/// pinned vertices in id order, then repeatedly the unplaced query vertex
/// with the most placed neighbors (each is an adjacency list the candidates
/// are intersected with), ties to the lower rank (`Overlay::rank`). A vertex
/// with no placed neighbor is chosen only when none has one: first in an
/// unpinned search, or where the query is disconnected from what is placed.
pub(crate) fn search_order(space: &Overlay, pinned: &[bool]) -> Vec<usize> {
    let (q, n) = (space.q, space.q.vertex_count());
    // Per unplaced vertex its key, least first: a pin its id; any other
    // vertex its placed neighbors, reversed, in the top half and its rank in
    // the bottom half. `u64::MAX` once placed.
    let unpinned = |u: usize| u64::from(u32::MAX) << 32 | u64::from(space.rank[u]);
    let mut keys: Vec<u64> =
        (0..n).map(|u| if pinned[u] { u as u64 } else { unpinned(u) }).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = (0..n).min_by_key(|&u| keys[u]).filter(|&u| keys[u] != u64::MAX) {
        keys[u] = u64::MAX;
        for w in q.neighbors(VertexId(u as u32)).iter().map(|w| w.index()) {
            if !pinned[w] && keys[w] != u64::MAX {
                keys[w] -= 1 << 32;
            }
        }
        order.push(u);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sqp_graph::nlf;
    use sqp_graph::{GraphBuilder, Label, NeighborhoodLabelFrequency};

    use crate::brute;
    use crate::deadline::{ExecCtx, ResourceLimits};

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

    fn sorted(mut es: Vec<Embedding>) -> Vec<Embedding> {
        es.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        es
    }

    /// Every embedding extending `seeds` (see [`SeededEnumerator::enumerate`]),
    /// from a fresh seeder; sorted when there are no seeds.
    fn enumerate_seeded(
        q: &Graph,
        g: &DynamicGraph,
        seeds: &[(VertexId, VertexId)],
        deadline: Deadline,
    ) -> Result<Vec<Embedding>, Timeout> {
        let mut out = Vec::new();
        SeededEnumerator::new(q, g).enumerate(seeds, deadline, &mut out)?;
        Ok(if seeds.is_empty() { sorted(out) } else { out })
    }

    #[test]
    fn clean_overlay_matches_brute_oracle() {
        let g = labeled(&[0, 1, 1, 0, 2], &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let dg = DynamicGraph::new(g.clone());
        for q in [
            labeled(&[0, 1], &[(0, 1)]),
            labeled(&[1, 0, 1], &[(0, 1), (1, 2)]),
            labeled(&[0, 1, 0], &[(0, 1), (1, 2)]),
        ] {
            let want = sorted(brute::enumerate_all(&q, &g));
            let got = enumerate_overlay(&q, &dg, Deadline::none()).unwrap();
            // Sorted, whatever order the search placed the query vertices in.
            assert_eq!(got, want);
        }
    }

    #[test]
    fn mutated_overlay_matches_brute_on_materialized() {
        let g = labeled(&[0, 1, 1, 0], &[(0, 1), (1, 3), (2, 3)]);
        let mut dg = DynamicGraph::new(g);
        let nv = dg.add_vertex(Label(1)).unwrap();
        dg.add_edge(nv, VertexId(0)).unwrap();
        dg.remove_vertex(VertexId(2)).unwrap();
        let (mat, mapping) = dg.materialize();
        let q = labeled(&[0, 1], &[(0, 1)]);
        let got = enumerate_overlay(&q, &dg, Deadline::none()).unwrap();
        let want = sorted(brute::enumerate_all(&q, &mat));
        let renumbered: Vec<Embedding> = got
            .iter()
            .map(|e| {
                Embedding::new(e.as_slice().iter().map(|&v| mapping[v.index()].unwrap()).collect())
            })
            .collect();
        assert_eq!(sorted(renumbered), want);
    }

    #[test]
    fn seeded_enumeration_restricts_to_extensions() {
        let g = labeled(&[0, 1, 1], &[(0, 1), (0, 2)]);
        let dg = DynamicGraph::new(g);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let all = enumerate_overlay(&q, &dg, Deadline::none()).unwrap();
        assert_eq!(all.len(), 2);
        let seeded =
            enumerate_seeded(&q, &dg, &[(VertexId(1), VertexId(2))], Deadline::none()).unwrap();
        assert_eq!(seeded.len(), 1);
        assert_eq!(seeded[0].as_slice(), &[VertexId(0), VertexId(2)]);
        // Inconsistent seeds yield no embeddings, never an error.
        for bad in [
            vec![(VertexId(1), VertexId(0))], // label mismatch
            vec![(VertexId(0), VertexId(0)), (VertexId(1), VertexId(0))], // non-injective
            vec![(VertexId(9), VertexId(0))], // unknown query vertex
        ] {
            assert!(enumerate_seeded(&q, &dg, &bad, Deadline::none()).unwrap().is_empty());
        }
        // A pinned query edge whose data edge is absent yields nothing.
        let q2 = labeled(&[1, 1], &[(0, 1)]);
        let pins = [(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2))];
        assert!(enumerate_seeded(&q2, &dg, &pins, Deadline::none()).unwrap().is_empty());
    }

    #[test]
    fn deadline_expires() {
        let g = labeled(&[0; 8], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let dg = DynamicGraph::new(g);
        let q = labeled(&[0, 0], &[(0, 1)]);
        let d = Deadline::after(std::time::Duration::ZERO);
        assert!(enumerate_overlay(&q, &dg, d).is_err());
    }

    /// Applies `ops` random edge and vertex updates to `g`, new vertices
    /// labeled from `labels`, with a compaction half-way.
    fn churn(rng: &mut StdRng, g: &mut DynamicGraph, labels: &[u32], ops: usize) {
        for op in 0..ops {
            let slots = g.vertex_slots() as u32;
            let (a, b) =
                (VertexId(rng.random_range(0..slots)), VertexId(rng.random_range(0..slots)));
            // Malformed ops (dead endpoint, self-loop, absent edge) fail
            // closed and change nothing.
            let _ = match rng.random_range(0..8u32) {
                0 => g.add_vertex(Label(labels[rng.random_range(0..labels.len())])).map(drop),
                1 => g.remove_vertex(a).map(drop),
                2 | 3 => match g.neighbors(a).first() {
                    Some(&w) => g.remove_edge(a, w),
                    None => Ok(()),
                },
                _ => g.add_edge(a, b).map(drop),
            };
            if op == ops / 2 {
                g.compact();
            }
        }
    }

    /// One `(query, overlay)` pair of a predicate-differential family, the
    /// overlay churned so its words are the maintained ones.
    fn predicate_case(family: u32, seed: u64) -> (Graph, DynamicGraph) {
        let mut rng = StdRng::seed_from_u64(seed);
        let relabeled = |g: &Graph, labels: &[u32]| {
            let edges: Vec<(u32, u32)> = g
                .vertices()
                .flat_map(|v| {
                    g.neighbors(v).iter().filter(move |&&w| v < w).map(move |&w| (v.0, w.0))
                })
                .collect();
            let of: Vec<u32> = g.vertices().map(|v| labels[g.label(v).index()]).collect();
            labeled(&of, &edges)
        };
        match family {
            // At most 16 labels and small counts: the word decides alone.
            0 => {
                let base = brute::random_graph(&mut rng, 40, 100, 5);
                let q = brute::random_connected_query(&mut rng, &base, 5);
                let mut g = DynamicGraph::new(base);
                churn(&mut rng, &mut g, &[0, 1, 2, 3, 4], 40);
                (q, g)
            }
            // Labels 3, 19 and 35 share nibble 3 (label space 36): an accept
            // on the word is never exact.
            1 => {
                let labels = [3, 19, 35, 4];
                let base = relabeled(&brute::random_graph(&mut rng, 40, 120, 4), &labels);
                let q = brute::random_connected_query(&mut rng, &base, 5);
                let mut g = DynamicGraph::new(base);
                churn(&mut rng, &mut g, &labels, 40);
                (q, g)
            }
            // Two labels; data hubs with 5 to 12 neighbors of label 1, and a
            // star query asking for 8 to 10 of them: a saturated query
            // nibble, which a data nibble of 7 does not answer.
            _ => {
                let n = 48u32;
                let mut labels = vec![0u32; 8];
                labels.extend((8..n).map(|_| rng.random_range(0..2u32)));
                let ones: Vec<u32> = (8..n).filter(|&v| labels[v as usize] == 1).collect();
                let mut edges = Vec::new();
                for hub in 0..8u32 {
                    let from = rng.random_range(0..ones.len());
                    edges.extend(
                        (0..5 + hub as usize).map(|i| (hub, ones[(from + i) % ones.len()])),
                    );
                }
                let leaves = rng.random_range(8..=10usize);
                let mut star = vec![0u32];
                star.extend(std::iter::repeat_n(1, leaves));
                star.push(0);
                let spokes: Vec<(u32, u32)> =
                    (1..star.len() as u32).map(|leaf| (0, leaf)).collect();
                let mut g = DynamicGraph::new(labeled(&labels, &edges));
                churn(&mut rng, &mut g, &[0, 1], 12);
                (labeled(&star, &spokes), g)
            }
        }
    }

    /// Per `(u, v)` over every slot: what the search's test says, what the
    /// run merge says, and whether the word alone would have accepted.
    fn predicate_table(q: &Graph, g: &DynamicGraph) -> Vec<(bool, bool, bool)> {
        let overlay = Overlay::new(q, g);
        let mut table = Vec::new();
        for u in q.vertices() {
            let reference = NeighborhoodLabelFrequency::of(q, u);
            let word = nlf::packed(q.label_runs(u));
            for v in (0..g.vertex_slots() as u32).map(VertexId) {
                table.push((
                    overlay.contains(u, v),
                    g.nlf_dominates(v, &reference),
                    nlf::packed_dominated(word, g.signature(v)),
                ));
            }
        }
        table
    }

    proptest! {
        /// NLF is a pruning filter: a test that accepts too much changes
        /// attempts, never answers, so no answer-level suite sees it. This
        /// compares the predicate itself with the run merge it stands for.
        #[test]
        fn dominance_test_is_the_run_merge(family in 0u32..3, seed in any::<u64>()) {
            let (q, g) = predicate_case(family, seed);
            for (got, want, _) in predicate_table(&q, &g) {
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Each family reaches the branch it is there for: family 0 decides on
    /// the word alone, families 1 and 2 hold pairs the word accepts and the
    /// merge rejects — by a shared nibble and by a saturated one — so a test
    /// that skipped the merge there fails the property above.
    #[test]
    fn predicate_families_reach_their_branch() {
        for family in 0..3 {
            let word_only_accepts: usize = (0..32)
                .map(|seed| {
                    let (q, g) = predicate_case(family, seed);
                    let table = predicate_table(&q, &g);
                    table.iter().filter(|&&(_, merge, word)| word && !merge).count()
                })
                .sum();
            match family {
                0 => assert_eq!(word_only_accepts, 0, "≤ 16 labels, counts ≤ 6: the word is exact"),
                _ => assert!(word_only_accepts > 0, "family {family} never needs the merge"),
            }
        }
    }

    /// Path plus star: four label-0 vertices in a row (0–3) into a label-7
    /// vertex (4) that also has three leaves (5–7).
    const PATH_PLUS_STAR: ([u32; 8], [(u32, u32); 7]) =
        ([0, 0, 0, 0, 7, 3, 5, 0], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7)]);

    /// A 2 000-vertex overlay where two vertices in five carry label 0 and
    /// the rest spread over labels 1–9, a few of its vertices patched, and
    /// [`PATH_PLUS_STAR`] planted in it.
    fn skewed_overlay() -> DynamicGraph {
        let mut rng = StdRng::seed_from_u64(24);
        let n = 2_000u32;
        let mut labels: Vec<u32> = (0..n)
            .map(|_| if rng.random_bool(0.4) { 0 } else { rng.random_range(1..10) })
            .collect();
        let mut edges: Vec<(u32, u32)> = (0..6_000)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .filter(|(a, b)| a != b)
            .collect();
        // On the first eight vertices, so the query has an answer.
        labels[..8].copy_from_slice(&PATH_PLUS_STAR.0);
        edges.extend_from_slice(&PATH_PLUS_STAR.1);
        let mut g = DynamicGraph::new(labeled(&labels, &edges));
        // Adds only, so slots keep their ids and `materialize` is the identity.
        for i in 0..20u32 {
            let fresh = g.add_vertex(Label(i % 10)).unwrap();
            g.add_edge(fresh, VertexId(100 + i)).unwrap();
            g.add_edge(VertexId(200 + i), VertexId(300 + i)).unwrap();
        }
        g
    }

    #[test]
    fn search_order_is_most_constrained_first() {
        let (q, g) = (labeled(&PATH_PLUS_STAR.0, &PATH_PLUS_STAR.1), skewed_overlay());
        let n = q.vertex_count();
        // No pin: the label-7 vertex of degree 4 leads, not vertex 0.
        let space = Overlay::new(&q, &g);
        assert_eq!(search_order(&space, &vec![false; n])[0], 4);
        for pins in [vec![], vec![0], vec![6], vec![2, 3], vec![0, 7]] {
            let mut pinned = vec![false; n];
            pins.iter().for_each(|&u| pinned[u] = true);
            let order = search_order(&space, &pinned);
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "a permutation");
            assert_eq!(order[..pins.len()], pins[..], "pins lead, in id order");
            // The query is connected: past the first vertex of an unpinned
            // search, every depth extends from a mapped neighbor.
            for (depth, &u) in order.iter().enumerate().skip(pins.len().max(1)) {
                let anchored = q
                    .neighbors(VertexId(u as u32))
                    .iter()
                    .any(|w| order[..depth].contains(&w.index()));
                assert!(
                    anchored,
                    "pins {pins:?}: vertex {u} at depth {depth} has no placed neighbor"
                );
            }
        }
    }

    #[test]
    fn unseeded_search_fits_a_step_budget_the_id_order_walk_would_blow() {
        // One tick per attempt and a charge per 4 096 ticks: a budget of
        // 4 096 steps trips at the 8 192nd attempt. Counted once on this
        // instance (1 551 embeddings): most-constrained-first makes 3 388
        // attempts, one per candidate that passes the NLF test (3 556 when
        // every label-run entry was one); the id-order walk this search
        // used to do made 32 840, 800 of them label-0 roots, each fanning
        // out down the path.
        let (q, g) = (labeled(&PATH_PLUS_STAR.0, &PATH_PLUS_STAR.1), skewed_overlay());
        let guard = ExecCtx::new();
        guard.arm(ResourceLimits::unlimited().with_max_steps(4096));
        let got = enumerate_overlay(&q, &g, Deadline::none().with_ctx(guard));
        assert!(guard.tripped().is_none(), "the search blew a 4 096-step budget");
        // The oracle walks query vertices in id order too: hand it the query
        // renumbered from the star outward, and map its answers back.
        let outward = [4usize, 5, 6, 7, 3, 2, 1, 0];
        let position = |u: u32| outward.iter().position(|&x| x == u as usize).unwrap();
        let renumbered = labeled(
            &outward.map(|u| PATH_PLUS_STAR.0[u]),
            &PATH_PLUS_STAR.1.map(|(u, w)| (position(u) as u32, position(w) as u32)),
        );
        let (data, mapping) = g.materialize();
        assert!(mapping.iter().enumerate().all(|(slot, m)| *m == Some(VertexId(slot as u32))));
        let want = sorted(
            brute::enumerate_all(&renumbered, &data)
                .iter()
                .map(|e| {
                    Embedding::new(q.vertices().map(|u| e.as_slice()[position(u.0)]).collect())
                })
                .collect(),
        );
        assert!(!want.is_empty(), "the planted embedding");
        assert_eq!(got.unwrap(), want);
    }
}
