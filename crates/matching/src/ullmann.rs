//! Ullmann's algorithm (JACM 1976) with refinement.
//!
//! The oldest direct-enumeration baseline (related work, §II-B2). Candidates
//! are seeded by label and degree; Ullmann's *refinement* repeatedly removes
//! `v` from `Φ(u)` unless every query neighbor `u'` of `u` still has a
//! candidate adjacent to `v`, iterating to a fixpoint. Enumeration then runs
//! in plain query-id order — the ineffective static ordering that modern
//! algorithms improved on.

use sqp_graph::{Graph, VertexId};

use crate::candidates::{CandidateSpace, FilterResult, MatchingOrder};
use crate::deadline::{Deadline, TickChecker, Timeout};
use crate::embedding::Embedding;
use crate::enumerate::enumerate_in_order;
use crate::obs::{Phase, Span};
use crate::Matcher;

/// The Ullmann matcher.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ullmann;

impl Ullmann {
    /// A new Ullmann matcher.
    pub fn new() -> Self {
        Self
    }

    fn refine(
        q: &Graph,
        g: &Graph,
        sets: &mut [Vec<VertexId>],
        deadline: Deadline,
    ) -> Result<bool, Timeout> {
        let mut ticker = TickChecker::new();
        loop {
            let mut changed = false;
            for u in q.vertices() {
                let mut set = std::mem::take(&mut sets[u.index()]);
                let before = set.len();
                set.retain(|&v| {
                    q.neighbors(u).iter().all(|&w| {
                        let phi = &sets[w.index()];
                        g.neighbors_with_label(v, q.label(w))
                            .iter()
                            .any(|n| phi.binary_search(n).is_ok())
                    })
                });
                ticker.tick(deadline)?;
                if set.len() != before {
                    changed = true;
                }
                let empty = set.is_empty();
                sets[u.index()] = set;
                if empty {
                    return Ok(false);
                }
            }
            if !changed {
                return Ok(true);
            }
        }
    }
}

impl Matcher for Ullmann {
    fn name(&self) -> &'static str {
        "Ullmann"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        deadline.check_entry()?;
        let mut filter_span = Span::enter(Phase::Filter, deadline);
        let mut sets: Vec<Vec<VertexId>> = Vec::with_capacity(q.vertex_count());
        for u in q.vertices() {
            let set: Vec<VertexId> = g
                .vertices_with_label(q.label(u))
                .iter()
                .copied()
                .filter(|&v| g.degree(v) >= q.degree(u))
                .collect();
            if set.is_empty() {
                return Ok(FilterResult::Pruned);
            }
            sets.push(set);
        }
        if !Self::refine(q, g, &mut sets, deadline)? {
            return Ok(FilterResult::Pruned);
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
        // Plain query-id order.
        let order = || MatchingOrder::new(q.vertices().collect());
        enumerate_in_order(q, g, space, order, limit, deadline, on_match)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn counts_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(51);
        let ull = Ullmann::new();
        for trial in 0..40 {
            let g = brute::random_graph(&mut rng, 9, 15, 3);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let expected = brute::enumerate_all(&q, &g).len() as u64;
            let got = ull.count(&q, &g, u64::MAX, Deadline::none()).unwrap();
            assert_eq!(got, expected, "trial {trial}");
        }
    }

    #[test]
    fn refinement_reaches_fixpoint() {
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..20 {
            let g = brute::random_graph(&mut rng, 10, 20, 2);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            if let FilterResult::Space(space) =
                Ullmann::new().filter(&q, &g, Deadline::none()).unwrap()
            {
                // Every surviving candidate has a candidate neighbor for each
                // query neighbor — the fixpoint property.
                for u in q.vertices() {
                    for &v in space.set(u) {
                        for &w in q.neighbors(u) {
                            assert!(g
                                .neighbors_with_label(v, q.label(w))
                                .iter()
                                .any(|n| space.contains(w, *n)));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn filter_is_complete() {
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..30 {
            let g = brute::random_graph(&mut rng, 8, 13, 3);
            let q = brute::random_connected_query(&mut rng, &g, 3);
            let oracle = brute::enumerate_all(&q, &g);
            match Ullmann::new().filter(&q, &g, Deadline::none()).unwrap() {
                FilterResult::Pruned => assert!(oracle.is_empty()),
                FilterResult::Space(space) => assert!(space.is_complete_for(&oracle)),
            }
        }
    }
}
