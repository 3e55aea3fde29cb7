//! SPath (Zhao & Han, PVLDB 2010).
//!
//! The fourth direct-enumeration algorithm in the paper's taxonomy
//! (§II-B2). SPath's distinguishing idea is the *neighborhood signature*:
//! for each vertex, the multiset of labels reachable within distance `k`
//! (by level). A data vertex `v` can host a query vertex `u` only if `u`'s
//! signature is dominated level-wise by `v`'s — a strictly stronger filter
//! than the 1-hop NLF test, at the cost of a `k`-hop BFS per vertex.
//!
//! The original decomposes the query into shortest paths and joins them
//! path-at-a-time over a precomputed path index on a single large data
//! graph; in this database setting the signature filter is computed per
//! `(q, G)` pair and the enumeration reuses the shared backtracking
//! enumerator along GraphQL's greedy join-based order (see DESIGN.md §4).

use std::collections::VecDeque;

use sqp_graph::{Graph, Label, VertexId};

use crate::candidates::{CandidateSpace, FilterResult};
use crate::deadline::{Deadline, TickChecker, Timeout};
use crate::embedding::Embedding;
use crate::enumerate::enumerate_in_order;
use crate::graphql::GraphQl;
use crate::obs::{Phase, Span};
use crate::Matcher;

/// The SPath matcher.
#[derive(Clone, Copy, Debug)]
pub struct SPath {
    /// Signature radius `k` (the original defaults to small radii; 2 here).
    radius: usize,
}

impl Default for SPath {
    fn default() -> Self {
        Self { radius: 2 }
    }
}

/// A per-vertex neighborhood signature: for each level `d ∈ 1..=k`, the
/// sorted `(label, count)` runs of vertices at distance exactly `d`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborhoodSignature {
    levels: Vec<Vec<(Label, u32)>>,
}

impl NeighborhoodSignature {
    /// Computes the signature of `v` in `g` with radius `k` via truncated BFS.
    pub fn of(g: &Graph, v: VertexId, k: usize) -> Self {
        let mut dist = vec![u32::MAX; g.vertex_count()];
        dist[v.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(v);
        let mut levels: Vec<Vec<Label>> = vec![Vec::new(); k];
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            if du as usize >= k {
                continue;
            }
            for &w in g.neighbors(u) {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = du + 1;
                    levels[du as usize].push(g.label(w));
                    queue.push_back(w);
                }
            }
        }
        let levels = levels
            .into_iter()
            .map(|mut ls| {
                ls.sort_unstable();
                let mut runs: Vec<(Label, u32)> = Vec::new();
                for l in ls {
                    match runs.last_mut() {
                        Some((rl, c)) if *rl == l => *c += 1,
                        _ => runs.push((l, 1)),
                    }
                }
                runs
            })
            .collect();
        Self { levels }
    }

    /// Cumulative label counts within distance `d` (1-based).
    fn cumulative(&self, d: usize) -> Vec<(Label, u32)> {
        let mut acc: Vec<(Label, u32)> = Vec::new();
        for level in self.levels.iter().take(d) {
            for &(l, c) in level {
                match acc.binary_search_by_key(&l, |&(al, _)| al) {
                    Ok(i) => acc[i].1 += c,
                    Err(i) => acc.insert(i, (l, c)),
                }
            }
        }
        acc
    }

    /// Whether `self ⊑ other` level-wise on cumulative counts: every label
    /// reachable within distance `d` of the query vertex must be matched by
    /// at least as many within distance `d` of the data vertex.
    pub fn dominated_by(&self, other: &Self) -> bool {
        let k = self.levels.len().max(other.levels.len());
        for d in 1..=k {
            let a = self.cumulative(d);
            let b = other.cumulative(d);
            let mut bi = b.iter();
            'labels: for &(l, c) in &a {
                for &(ol, oc) in bi.by_ref() {
                    if ol == l {
                        if oc < c {
                            return false;
                        }
                        continue 'labels;
                    }
                    if ol > l {
                        return false;
                    }
                }
                return false;
            }
        }
        true
    }
}

impl SPath {
    /// SPath with the default radius 2.
    pub fn new() -> Self {
        Self::default()
    }

    /// SPath with a custom signature radius (≥ 1).
    pub fn with_radius(radius: usize) -> Self {
        assert!(radius >= 1);
        Self { radius }
    }
}

impl Matcher for SPath {
    fn name(&self) -> &'static str {
        "SPath"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        deadline.check_entry()?;
        let mut filter_span = Span::enter(Phase::Filter, deadline);
        let mut ticker = TickChecker::new();
        // Query signatures once; data signatures lazily per distinct label.
        let mut sets = Vec::with_capacity(q.vertex_count());
        for u in q.vertices() {
            let qsig = NeighborhoodSignature::of(q, u, self.radius);
            let mut set = Vec::new();
            for &v in g.vertices_with_label(q.label(u)) {
                ticker.tick(deadline)?;
                if g.degree(v) < q.degree(u) {
                    continue;
                }
                let gsig = NeighborhoodSignature::of(g, v, self.radius);
                if qsig.dominated_by(&gsig) {
                    set.push(v);
                }
            }
            if set.is_empty() {
                return Ok(FilterResult::Pruned);
            }
            sets.push(set);
        }
        filter_span.add_items(sets.iter().map(|s| s.len() as u64).sum());
        drop(filter_span);
        let _build_span = Span::enter(Phase::BuildCandidates, deadline);
        Ok(FilterResult::Space(CandidateSpace::new(sets)))
    }

    fn enumerate(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        limit: u64,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&Embedding),
    ) -> Result<u64, Timeout> {
        enumerate_in_order(q, g, space, || GraphQl::join_order(q, space), limit, deadline, on_match)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqp_graph::GraphBuilder;

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
    fn signature_levels() {
        // 0(A) - 1(B) - 2(C): from v0, level1 = {B}, level2 = {C}.
        let g = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let s = NeighborhoodSignature::of(&g, VertexId(0), 2);
        assert_eq!(s.levels[0], vec![(Label(1), 1)]);
        assert_eq!(s.levels[1], vec![(Label(2), 1)]);
    }

    #[test]
    fn two_hop_signature_prunes_beyond_nlf() {
        // Query: A-B-C chain. Data vertex v0 (A) with a B neighbor but no C
        // within two hops passes NLF (B neighbor) but fails the signature.
        let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let g = labeled(&[0, 1, 5], &[(0, 1), (1, 2)]);
        let r = SPath::new().filter(&q, &g, Deadline::none()).unwrap();
        assert!(r.is_pruned());
    }

    #[test]
    fn dominance_is_cumulative_not_exact_level() {
        // A vertex whose C sits at distance 1 can host a query vertex whose
        // C sits at distance 2 only if the counts still dominate
        // cumulatively... here g has C at distance 1: within distance 2 it
        // still covers the query's requirement.
        let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]); // C at distance 2 of v0
        let g = labeled(&[0, 2, 1], &[(0, 1), (0, 2), (2, 1)]); // C adjacent to v0
        let sq = NeighborhoodSignature::of(&q, VertexId(0), 2);
        let sg = NeighborhoodSignature::of(&g, VertexId(0), 2);
        assert!(sq.dominated_by(&sg));
    }

    #[test]
    fn counts_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(81);
        let sp = SPath::new();
        for trial in 0..40 {
            let g = brute::random_graph(&mut rng, 9, 15, 3);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let expected = brute::enumerate_all(&q, &g).len() as u64;
            let got = sp.count(&q, &g, u64::MAX, Deadline::none()).unwrap();
            assert_eq!(got, expected, "trial {trial}");
        }
    }

    #[test]
    fn filter_is_complete() {
        let mut rng = StdRng::seed_from_u64(82);
        for _ in 0..30 {
            let g = brute::random_graph(&mut rng, 8, 13, 3);
            let q = brute::random_connected_query(&mut rng, &g, 3);
            let oracle = brute::enumerate_all(&q, &g);
            match SPath::new().filter(&q, &g, Deadline::none()).unwrap() {
                FilterResult::Pruned => assert!(oracle.is_empty()),
                FilterResult::Space(space) => assert!(space.is_complete_for(&oracle)),
            }
        }
    }

    #[test]
    fn radius_one_equals_nlf_power() {
        // With k = 1 the signature is exactly the NLF.
        let mut rng = StdRng::seed_from_u64(83);
        let sp1 = SPath::with_radius(1);
        for _ in 0..20 {
            let g = brute::random_graph(&mut rng, 8, 12, 2);
            let q = brute::random_connected_query(&mut rng, &g, 3);
            for u in q.vertices() {
                for v in g.vertices() {
                    if q.label(u) != g.label(v) || g.degree(v) < q.degree(u) {
                        continue;
                    }
                    let sig_ok = NeighborhoodSignature::of(&q, u, 1)
                        .dominated_by(&NeighborhoodSignature::of(&g, v, 1));
                    let nlf_ok = sqp_graph::nlf::nlf_dominated(&q, u, &g, v);
                    assert_eq!(sig_ok, nlf_ok);
                }
            }
            let _ = sp1;
        }
    }
}
