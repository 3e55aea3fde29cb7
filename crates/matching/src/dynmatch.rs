//! Enumeration over the mutable [`DynamicGraph`] overlay.
//!
//! The static matchers in this crate are written against the immutable CSR
//! [`Graph`]. Continuous queries need two things those matchers do not
//! provide:
//!
//! * enumeration directly over a [`DynamicGraph`] (base CSR + delta), so a
//!   standing query can be answered between compactions without
//!   materializing; and
//! * **seeded** enumeration from a partial assignment, which is how the
//!   repair step re-enumerates only the affected region: every embedding
//!   that is new after a batch must map some query edge onto an added data
//!   edge (or some query vertex onto an added data vertex), so pinning those
//!   images and completing the rest enumerates exactly the additions.
//!
//! The enumerator is a backtracking search (the same shape as the
//! [`brute`](crate::brute) oracle) hardened with the overlay's exact NLF
//! dominance filter, asked of the overlay's one-word
//! [signature](DynamicGraph::signature) first: a packed reject is a true
//! reject, a packed accept is the answer where the fold lost nothing, and
//! only otherwise does the run merge decide ([`PackedNlf`]). Candidates at
//! each depth are a label-run slice of the overlay — a base CSR slice for
//! untouched vertices, a patched sorted list otherwise — iterated in place,
//! in ascending id order.
//!
//! The search order is most-constrained-first for every pin pattern, none
//! included (`search_order`): pins, then repeatedly the query vertex with
//! the most placed neighbors. In a connected query every depth after the
//! first is therefore anchored to an already-mapped neighbor and its
//! candidates stay neighborhood-sized instead of falling back to a full
//! label scan — the property that keeps a repair seed O(local) rather than
//! O(|V|). [`SeededEnumerator::enumerate`] output is deterministic but not
//! sorted; [`enumerate_overlay`] and [`enumerate_seeded`] sort what an
//! unseeded search found, the repair layer sorts after merging its seeds.

use std::cmp::Reverse;

use sqp_graph::nlf::PackedNlf;
use sqp_graph::{DynamicGraph, Graph, NeighborhoodLabelFrequency, VertexId};

use crate::deadline::{Deadline, TickChecker, Timeout};
use crate::embedding::Embedding;

/// Enumerates every subgraph isomorphism from `q` into the overlay.
///
/// Results are sorted lexicographically by mapping.
pub fn enumerate_overlay(
    q: &Graph,
    g: &DynamicGraph,
    deadline: Deadline,
) -> Result<Vec<Embedding>, Timeout> {
    enumerate_seeded(q, g, &[], deadline)
}

/// Enumerates every subgraph isomorphism from `q` into the overlay that
/// extends the partial assignment `seeds` (pairs `(query vertex, data
/// vertex)`). Without seeds the result is sorted lexicographically by mapping;
/// with seeds it is in search order.
///
/// An inconsistent seed set (label mismatch, dead image, non-injective, or a
/// pinned query edge with no corresponding data edge) yields no embeddings
/// rather than an error: repair seeds are speculative by construction.
pub fn enumerate_seeded(
    q: &Graph,
    g: &DynamicGraph,
    seeds: &[(VertexId, VertexId)],
    deadline: Deadline,
) -> Result<Vec<Embedding>, Timeout> {
    let mut out = Vec::new();
    SeededEnumerator::new(q, g).enumerate(seeds, deadline, &mut out)?;
    if seeds.is_empty() {
        out.sort_unstable_by(|a, b| a.as_slice().cmp(b.as_slice()));
    }
    Ok(out)
}

const UNMAPPED: VertexId = VertexId(u32::MAX);

/// A reusable seeded enumerator over one `(query, overlay)` pair.
///
/// The repair inner loop issues one seeded enumeration per label-compatible
/// pin, and the search itself is neighborhood-sized, so whatever a call sets
/// up dominates it. Everything a call needs is therefore built once and
/// kept: the query's NLF signatures, the O(|V|) `used` map, the search order
/// of each pin pattern seen so far, and the one candidate buffer a search
/// needs. Construct once per repaired query, then
/// [`enumerate`](SeededEnumerator::enumerate) per seed set; a warm call
/// allocates nothing but the embeddings it emits.
pub struct SeededEnumerator<'a> {
    q: &'a Graph,
    g: &'a DynamicGraph,
    qnlf: Vec<NeighborhoodLabelFrequency>,
    /// Per query vertex, the packed form of `qnlf` and whether an accept on
    /// it needs no merge over this pair of graphs.
    qsig: Vec<PackedNlf>,
    mapping: Vec<VertexId>,
    pinned: Vec<bool>,
    used: Vec<bool>,
    /// Search orders derived so far, keyed by the pin pattern they serve.
    orders: Vec<(Vec<bool>, Vec<usize>)>,
    /// Candidates of a depth with no mapped neighbor (the root of an
    /// unseeded search). Every other depth iterates an overlay slice.
    roots: Vec<VertexId>,
    deadline: Deadline,
    ticker: TickChecker,
}

impl<'a> SeededEnumerator<'a> {
    pub fn new(q: &'a Graph, g: &'a DynamicGraph) -> Self {
        let n = q.vertex_count();
        let label_space = q.label_space().max(g.label_space());
        Self {
            q,
            g,
            qnlf: q.vertices().map(|u| NeighborhoodLabelFrequency::of(q, u)).collect(),
            qsig: q.vertices().map(|u| PackedNlf::new(q.label_runs(u), label_space)).collect(),
            mapping: vec![UNMAPPED; n],
            pinned: vec![false; n],
            used: vec![false; g.vertex_slots()],
            orders: Vec::new(),
            roots: Vec::new(),
            deadline: Deadline::none(),
            ticker: TickChecker::new(),
        }
    }

    /// Appends to `out` every embedding extending `seeds`, in search order:
    /// unsorted for every seed set, the empty one included. See
    /// [`enumerate_seeded`] for the seed semantics.
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
        if self.q.vertex_count() == 0 {
            return Ok(());
        }
        self.deadline = deadline;
        self.mapping.fill(UNMAPPED);
        self.pinned.fill(false);
        let result = match self.pin(seeds) {
            // Pins lead every order, so the search starts past them.
            Some(order) => {
                let pins = self.pinned.iter().filter(|&&p| p).count();
                self.descend(order, pins, out)
            }
            None => Ok(()),
        };
        // Backtracking resets `used` for every searched vertex; only the
        // pins remain. Clearing them here (instead of a full memset) is
        // what keeps the per-call cost O(pins), not O(|V|).
        for (u, _) in self.pinned.iter().enumerate().filter(|(_, &p)| p) {
            self.used[self.mapping[u].index()] = false;
        }
        result
    }

    /// Places the pins and returns the index in `orders` of the search order
    /// for their pattern, or `None` if they cannot extend to an embedding.
    fn pin(&mut self, seeds: &[(VertexId, VertexId)]) -> Option<usize> {
        let n = self.q.vertex_count();
        for &(u, v) in seeds {
            if u.index() >= n || !self.g.is_live(v) || self.g.label(v) != self.q.label(u) {
                return None;
            }
            if self.pinned[u.index()] {
                if self.mapping[u.index()] != v {
                    return None; // contradictory pins
                }
                continue;
            }
            if self.used[v.index()] {
                return None; // non-injective pins
            }
            self.mapping[u.index()] = v;
            self.pinned[u.index()] = true;
            self.used[v.index()] = true;
        }
        // Pinned vertices must already satisfy dominance and mutual edges.
        for u in (0..n).filter(|&u| self.pinned[u]) {
            if !self.dominates(self.mapping[u], u) {
                return None;
            }
            for &w in self.q.neighbors(VertexId(u as u32)) {
                if self.pinned[w.index()]
                    && w.index() > u
                    && !self.g.has_edge(self.mapping[u], self.mapping[w.index()])
                {
                    return None;
                }
            }
        }
        Some(self.orders.iter().position(|(pattern, _)| *pattern == self.pinned).unwrap_or_else(
            || {
                self.orders.push((self.pinned.clone(), search_order(self.q, self.g, &self.pinned)));
                self.orders.len() - 1
            },
        ))
    }

    /// Whether `NLF(u) ⊑ NLF(v)`: the one dominance test of pins and
    /// extensions alike, decided on `v`'s signature word wherever that is
    /// exact.
    #[inline]
    fn dominates(&self, v: VertexId, u: usize) -> bool {
        self.qsig[u].dominated_by(self.g.signature(v), || self.g.nlf_dominates(v, &self.qnlf[u]))
    }

    fn descend(
        &mut self,
        order: usize,
        depth: usize,
        out: &mut Vec<Embedding>,
    ) -> Result<(), Timeout> {
        let Some(&uq) = self.orders[order].1.get(depth) else {
            out.push(Embedding::new(self.mapping.clone()));
            return Ok(());
        };
        // Both outlive `self`'s borrow, so a slice of the overlay can be
        // iterated while the recursion below mutates the search state.
        let (q, g) = (self.q, self.g);
        let label = q.label(VertexId(uq as u32));
        // Pivot: the mapped query neighbor whose image has the smallest
        // label-restricted neighborhood. The candidate *set* is independent
        // of the pivot (every other mapped neighbor is checked in `extend`),
        // and each slice is ascending by id, so enumeration order is
        // deterministic.
        let mut pivot: Option<(VertexId, &'a [VertexId])> = None;
        for &w in q.neighbors(VertexId(uq as u32)) {
            let img = self.mapping[w.index()];
            if img != UNMAPPED {
                let run = g.neighbors_with_label(img, label);
                if pivot.is_none_or(|(_, best)| run.len() < best.len()) {
                    pivot = Some((w, run));
                }
            }
        }
        match pivot {
            Some((w, run)) => self.extend(order, depth, uq, Some(w), run, out),
            None => {
                // A nested pivot-less depth (a query component with no pin)
                // finds the buffer taken and fills a fresh one.
                let mut roots = std::mem::take(&mut self.roots);
                roots.clear();
                g.live_vertices_with_label(label, &mut roots);
                let result = self.extend(order, depth, uq, None, &roots, out);
                self.roots = roots;
                result
            }
        }
    }

    /// Tries every candidate for query vertex `uq` at `depth`: one deadline
    /// tick per attempt. Candidates drawn from `pivot`'s image are adjacent
    /// to it by construction.
    fn extend(
        &mut self,
        order: usize,
        depth: usize,
        uq: usize,
        pivot: Option<VertexId>,
        candidates: &[VertexId],
        out: &mut Vec<Embedding>,
    ) -> Result<(), Timeout> {
        let (q, g) = (self.q, self.g);
        for &v in candidates {
            self.ticker.tick(self.deadline)?;
            if self.used[v.index()] || !self.dominates(v, uq) {
                continue;
            }
            // Edges to every other already-mapped query neighbor.
            let ok = q.neighbors(VertexId(uq as u32)).iter().all(|&w| {
                let img = self.mapping[w.index()];
                Some(w) == pivot || img == UNMAPPED || g.has_edge(v, img)
            });
            if !ok {
                continue;
            }
            self.mapping[uq] = v;
            self.used[v.index()] = true;
            let result = self.descend(order, depth + 1, out);
            self.used[v.index()] = false;
            self.mapping[uq] = UNMAPPED;
            result?;
        }
        Ok(())
    }
}

/// Search order for the backtracking descent, most-constrained-first:
/// pinned vertices, then repeatedly the unplaced query vertex with the most
/// placed neighbors (each is a `has_edge` that prunes), ties to the higher
/// query degree (the stronger signature), then to the label with fewer
/// vertices in the base's label index, then to the smaller id. A vertex with
/// no placed neighbor is chosen only when none has one: first in an unpinned
/// search, or where the query is disconnected from what is placed.
fn search_order(q: &Graph, g: &DynamicGraph, pinned: &[bool]) -> Vec<usize> {
    let n = q.vertex_count();
    let mut order: Vec<usize> = (0..n).filter(|&u| pinned[u]).collect();
    let mut placed = pinned.to_vec();
    while order.len() < n {
        let most_constrained = |&u: &usize| {
            let u = VertexId(u as u32);
            let anchors = q.neighbors(u).iter().filter(|w| placed[w.index()]).count();
            let label_mates = g.base().label_frequency(q.label(u));
            (Reverse(anchors), Reverse(q.degree(u)), label_mates)
        };
        // `min_by_key` keeps the first of equal keys: the smaller id.
        let u = (0..n)
            .filter(|&u| !placed[u])
            .min_by_key(most_constrained)
            .expect("fewer than n vertices are placed");
        placed[u] = true;
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
    use sqp_graph::{GraphBuilder, Label};

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
        let seeder = SeededEnumerator::new(q, g);
        let mut table = Vec::new();
        for u in q.vertices() {
            let reference = NeighborhoodLabelFrequency::of(q, u);
            let word = nlf::packed(q.label_runs(u));
            for v in (0..g.vertex_slots() as u32).map(VertexId) {
                table.push((
                    seeder.dominates(v, u.index()),
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
        assert_eq!(search_order(&q, &g, &vec![false; n])[0], 4);
        for pins in [vec![], vec![0], vec![6], vec![2, 3], vec![0, 7]] {
            let mut pinned = vec![false; n];
            pins.iter().for_each(|&u| pinned[u] = true);
            let order = search_order(&q, &g, &pinned);
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
        // instance (1 551 embeddings): most-constrained-first makes 3 556
        // attempts; the id-order walk this search used to do made 32 840,
        // 800 of them label-0 roots, each fanning out down the path.
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
