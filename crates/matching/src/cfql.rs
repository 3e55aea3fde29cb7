//! CFQL — the paper's new hybrid (§III-B).
//!
//! CFQL combines the two strongest phases observed in the study:
//!
//! * **Filter**: CFL's preprocessing (fastest filter, `O(|E(q)| × |E(G)|)`);
//! * **Verify**: GraphQL's *join-based ordering* with the shared enumerator
//!   (the most robust ordering — in the paper CFL's path-based order times
//!   out on 26/3200 queries vs 15/3200 for CFQL).

use sqp_graph::Graph;

use crate::candidates::{CandidateSpace, FilterResult};
use crate::cfl::Cfl;
use crate::deadline::{Deadline, Timeout};
use crate::embedding::Embedding;
use crate::enumerate::enumerate_in_order;
use crate::graphql::GraphQl;
use crate::Matcher;

/// The CFQL matcher: CFL filter + GraphQL enumeration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cfql {
    cfl: Cfl,
}

impl Cfql {
    /// CFQL with CFL's default refinement configuration.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Matcher for Cfql {
    fn name(&self) -> &'static str {
        "CFQL"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        // CFQL orders by GraphQL's join order and never reads the CPI.
        self.cfl.filter_space(q, g, deadline, false)
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
    use sqp_graph::HeapSize;

    #[test]
    fn counts_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(41);
        let cfql = Cfql::new();
        for trial in 0..50 {
            let g = brute::random_graph(&mut rng, 9, 16, 3);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let expected = brute::enumerate_all(&q, &g).len() as u64;
            let got = cfql.count(&q, &g, u64::MAX, Deadline::none()).unwrap();
            assert_eq!(got, expected, "trial {trial}");
        }
    }

    #[test]
    fn agrees_with_cfl_and_graphql_on_decision() {
        use crate::cfl::Cfl;
        use crate::graphql::GraphQl;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..30 {
            let g = brute::random_graph(&mut rng, 8, 14, 3);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let d = Deadline::none();
            let a = Cfql::new().is_subgraph(&q, &g, d).unwrap();
            let b = Cfl::new().is_subgraph(&q, &g, d).unwrap();
            let c = GraphQl::new().is_subgraph(&q, &g, d).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn cfl_space_carries_a_cpi_cfql_space_does_not() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut spaces = 0;
        for _ in 0..10 {
            let g = brute::random_graph(&mut rng, 10, 18, 2);
            let q = brute::random_connected_query(&mut rng, &g, 3);
            let cfql = Cfql::new().filter(&q, &g, Deadline::none()).unwrap().space();
            let cfl = crate::cfl::Cfl::new().filter(&q, &g, Deadline::none()).unwrap().space();
            assert_eq!(cfql.is_some(), cfl.is_some());
            if let (Some(cfql), Some(cfl)) = (cfql, cfl) {
                assert!(cfl.cpi().is_some());
                assert!(cfql.cpi().is_none());
                assert_eq!(cfql.sets(), cfl.sets());
                assert!(cfql.heap_size() < cfl.heap_size());
                spaces += 1;
            }
        }
        assert!(spaces > 0);
    }
}
