//! TurboIso (Han, Lee & Lee, SIGMOD 2013) subgraph matching.
//!
//! The third preprocessing-enumeration algorithm the paper discusses
//! alongside GraphQL and CFL (§II-B2, §III-B). TurboIso's signature ideas:
//!
//! 1. **Start-vertex selection by rank** `|C_ini(u)| / d(u)` — begin where
//!    candidates are rare and connectivity is high;
//! 2. **Candidate regions**: instead of one global candidate set per query
//!    vertex, explore a region of the data graph around each candidate `v_s`
//!    of the start vertex, collecting per-query-vertex candidates *within
//!    the region* (`ExploreCR`); regions that cannot cover the query are
//!    discarded wholesale;
//! 3. **Path-based ordering** inside each region, sized by the region's
//!    candidate counts;
//! 4. Neighborhood equivalence (NEC) of degree-one query vertices, used here
//!    to postpone equivalent leaves to the end of the order (the full
//!    combine/permute optimization of the original is not replicated — see
//!    DESIGN.md §4).
//!
//! As a vcFV filter, the union of all surviving regions' candidate sets is a
//! complete candidate vertex set; an empty union proves non-containment.

use sqp_graph::algo::BfsTree;
use sqp_graph::nlf::nlf_dominated;
use sqp_graph::{Graph, VertexId};

use crate::candidates::{CandidateSpace, FilterResult, MatchingOrder};
use crate::deadline::{Deadline, TickChecker, Timeout};
use crate::embedding::Embedding;
use crate::enumerate::enumerate_in_order;
use crate::obs::{Phase, Span};
use crate::Matcher;

/// The TurboIso matcher.
#[derive(Clone, Copy, Debug, Default)]
pub struct TurboIso;

/// One candidate region: per-query-vertex candidate sets local to the
/// neighborhood of a single start-vertex candidate.
struct Region {
    sets: Vec<Vec<VertexId>>,
}

impl TurboIso {
    /// A new TurboIso matcher.
    pub fn new() -> Self {
        Self
    }

    /// Start-vertex selection: minimize `|C_ini(u)| / d(u)`.
    fn choose_start(q: &Graph, g: &Graph) -> VertexId {
        q.vertices()
            .min_by(|&a, &b| {
                let ra = g.label_frequency(q.label(a)) as f64 / q.degree(a).max(1) as f64;
                let rb = g.label_frequency(q.label(b)) as f64 / q.degree(b).max(1) as f64;
                ra.total_cmp(&rb).then(a.cmp(&b))
            })
            .expect("non-empty query")
    }

    /// Explores the candidate region rooted at `(start, vs)`; `None` if the
    /// region cannot cover every query vertex.
    fn explore_region(
        q: &Graph,
        g: &Graph,
        tree: &BfsTree,
        vs: VertexId,
        ticker: &mut TickChecker,
        deadline: Deadline,
    ) -> Result<Option<Region>, Timeout> {
        let start = tree.root();
        if g.degree(vs) < q.degree(start) || !nlf_dominated(q, start, g, vs) {
            return Ok(None);
        }
        let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); q.vertex_count()];
        sets[start.index()] = vec![vs];
        // Top-down along the BFS tree: candidates of `u` are the
        // label-restricted neighbors of the parent's region candidates.
        let mut stamp = vec![0u32; g.vertex_count()];
        let mut cur = 0u32;
        for level in 1..tree.depth() {
            for &u in tree.level_vertices(level) {
                ticker.tick(deadline)?;
                cur += 1;
                let parent = tree.parent(u);
                let lu = q.label(u);
                let du = q.degree(u);
                let parent_set = std::mem::take(&mut sets[parent.index()]);
                let mut set = Vec::new();
                for &vp in &parent_set {
                    for &v in g.neighbors_with_label(vp, lu) {
                        if stamp[v.index()] == cur {
                            continue;
                        }
                        stamp[v.index()] = cur;
                        if g.degree(v) >= du && nlf_dominated(q, u, g, v) {
                            set.push(v);
                        }
                    }
                }
                sets[parent.index()] = parent_set;
                if set.is_empty() {
                    return Ok(None);
                }
                set.sort_unstable();
                sets[u.index()] = set;
            }
        }
        Ok(Some(Region { sets }))
    }

    /// The regions for `(q, g)`, or `None` when no region survives.
    fn regions(
        &self,
        q: &Graph,
        g: &Graph,
        deadline: Deadline,
    ) -> Result<Option<(BfsTree, Vec<Region>)>, Timeout> {
        let start = Self::choose_start(q, g);
        let tree = BfsTree::build(q, start);
        let mut ticker = TickChecker::new();
        let mut regions = Vec::new();
        for &vs in g.vertices_with_label(q.label(start)) {
            if let Some(r) = Self::explore_region(q, g, &tree, vs, &mut ticker, deadline)? {
                regions.push(r);
            }
        }
        if regions.is_empty() {
            return Ok(None);
        }
        Ok(Some((tree, regions)))
    }

    /// Path-based order over a region: NEC leaves (degree-one query
    /// vertices) last, others by ascending candidate count along the tree.
    fn region_order(q: &Graph, tree: &BfsTree, region: &Region) -> MatchingOrder {
        let mut order: Vec<VertexId> = vec![tree.root()];
        let mut placed = vec![false; q.vertex_count()];
        placed[tree.root().index()] = true;
        // Greedy: among unplaced vertices whose tree parent is placed,
        // prefer non-leaves with the fewest region candidates.
        while order.len() < q.vertex_count() {
            let next = q
                .vertices()
                .filter(|&u| !placed[u.index()] && placed[tree.parent(u).index()])
                .min_by_key(|&u| {
                    let leaf = q.degree(u) == 1;
                    (leaf, region.sets[u.index()].len(), u)
                })
                .expect("BFS tree spans the query");
            placed[next.index()] = true;
            order.push(next);
        }
        MatchingOrder::new(order)
    }

    /// Runs `f` over each region's enumeration until it returns `true`
    /// (stop) or regions are exhausted. Returns the number of embeddings.
    fn enumerate_regions(
        &self,
        q: &Graph,
        g: &Graph,
        limit: u64,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&Embedding),
    ) -> Result<u64, Timeout> {
        // Region exploration re-runs at enumeration time (the global space
        // passed to `find_first`/`enumerate` is only the vcFV filtering
        // view), so this rebuild is charged to the build-candidates phase.
        let explored = {
            let _span = Span::enter(Phase::BuildCandidates, deadline);
            self.regions(q, g, deadline)?
        };
        let Some((tree, regions)) = explored else {
            return Ok(0);
        };
        let mut found = 0u64;
        for region in &regions {
            let space = {
                let _span = Span::enter(Phase::BuildCandidates, deadline);
                CandidateSpace::new(region.sets.clone())
            };
            let order = || Self::region_order(q, &tree, region);
            found += enumerate_in_order(q, g, &space, order, limit - found, deadline, on_match)?;
            if found >= limit {
                break;
            }
        }
        Ok(found)
    }
}

impl Matcher for TurboIso {
    fn name(&self) -> &'static str {
        "TurboIso"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        deadline.check_entry()?;
        let filter_span = Span::enter(Phase::Filter, deadline);
        match self.regions(q, g, deadline)? {
            None => Ok(FilterResult::Pruned),
            Some((_, regions)) => {
                drop(filter_span);
                let mut build_span = Span::enter(Phase::BuildCandidates, deadline);
                // Union the regions into a global complete candidate set.
                let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); q.vertex_count()];
                for r in &regions {
                    for (u, s) in r.sets.iter().enumerate() {
                        sets[u].extend_from_slice(s);
                    }
                }
                for s in sets.iter_mut() {
                    s.sort_unstable();
                    s.dedup();
                }
                build_span.add_items(sets.iter().map(|s| s.len() as u64).sum());
                Ok(FilterResult::Space(CandidateSpace::new(sets)))
            }
        }
    }

    fn enumerate(
        &self,
        q: &Graph,
        g: &Graph,
        _space: &CandidateSpace,
        limit: u64,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&Embedding),
    ) -> Result<u64, Timeout> {
        // Region-by-region enumeration (the global space is only the vcFV
        // filtering view; TurboIso's enumeration is region-local).
        self.enumerate_regions(q, g, limit, deadline, on_match)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqp_graph::{GraphBuilder, Label};

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
    fn filter_is_complete() {
        let mut rng = StdRng::seed_from_u64(61);
        for trial in 0..40 {
            let g = brute::random_graph(&mut rng, 9, 15, 3);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let oracle = brute::enumerate_all(&q, &g);
            match TurboIso::new().filter(&q, &g, Deadline::none()).unwrap() {
                FilterResult::Pruned => {
                    assert!(oracle.is_empty(), "trial {trial}: pruned with embeddings")
                }
                FilterResult::Space(space) => {
                    assert!(space.is_complete_for(&oracle), "trial {trial}")
                }
            }
        }
    }

    #[test]
    fn counts_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(62);
        let ti = TurboIso::new();
        for trial in 0..50 {
            let g = brute::random_graph(&mut rng, 9, 16, 3);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let expected = brute::enumerate_all(&q, &g).len() as u64;
            let got = ti.count(&q, &g, u64::MAX, Deadline::none()).unwrap();
            assert_eq!(got, expected, "trial {trial}");
        }
    }

    #[test]
    fn regions_partition_by_start_candidate() {
        // Two disjoint triangles with the same labels: two regions.
        let g = labeled(&[0, 1, 2, 0, 1, 2], &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let ti = TurboIso::new();
        let (_, regions) = ti.regions(&q, &g, Deadline::none()).unwrap().unwrap();
        assert_eq!(regions.len(), 2);
        // Counting across both regions finds all 2 embeddings (one per
        // triangle; the labeled triangle has a unique embedding each).
        assert_eq!(ti.count(&q, &g, u64::MAX, Deadline::none()).unwrap(), 2);
    }

    #[test]
    fn failed_regions_prune_start_candidates() {
        // Start label exists but its region cannot cover the query.
        let g = labeled(&[0, 1], &[(0, 1)]);
        let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
        assert!(TurboIso::new().filter(&q, &g, Deadline::none()).unwrap().is_pruned());
    }

    #[test]
    fn leaves_ordered_last() {
        // Star query: center + 3 leaves; order must start at a non-leaf...
        // with a 1-vertex core the center is the only non-leaf.
        let g = labeled(&[0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]);
        let q = g.clone();
        let ti = TurboIso::new();
        let (tree, regions) = ti.regions(&q, &g, Deadline::none()).unwrap().unwrap();
        let order = TurboIso::region_order(&q, &tree, &regions[0]);
        // All leaves come after the center.
        let seq = order.as_slice();
        assert_eq!(q.degree(seq[0]), 3);
    }

    #[test]
    fn respects_limit() {
        let g = labeled(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let q = labeled(&[0, 0], &[(0, 1)]);
        let got = TurboIso::new().count(&q, &g, 5, Deadline::none()).unwrap();
        assert_eq!(got, 5);
    }
}
