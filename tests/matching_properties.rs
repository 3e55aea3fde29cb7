//! Property-based tests of the matching invariants (DESIGN.md §5):
//!
//! * I2 — every filter's candidate space is *complete* (Definition III.1);
//! * I3 — every emitted embedding is a valid subgraph isomorphism;
//! * I1 (matcher level) — every matcher's embedding count equals the
//!   brute-force oracle's.

use proptest::prelude::*;

use subgraph_query::graph::{Graph, GraphBuilder, Label, VertexId};
use subgraph_query::matching::cfl::{Cfl, CflConfig};
use subgraph_query::matching::cfql::Cfql;
use subgraph_query::matching::graphql::GraphQl;
use subgraph_query::matching::vf2::Vf2;
use subgraph_query::matching::{brute, Deadline, FilterResult, Matcher};

/// Strategy: a random labeled graph with `n` vertices and up to `m` edges.
fn arb_graph(max_v: usize, max_e: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (2..=max_v).prop_flat_map(move |n| {
        let vertex_labels = proptest::collection::vec(0..labels, n);
        let edges = proptest::collection::vec((0..n, 0..n), 0..=max_e);
        (vertex_labels, edges).prop_map(move |(ls, es)| {
            let mut b = GraphBuilder::new();
            for l in ls {
                b.add_vertex(Label(l));
            }
            for (u, v) in es {
                if u != v {
                    let _ = b.add_edge(VertexId::from(u), VertexId::from(v));
                }
            }
            b.build()
        })
    })
}

/// Strategy: a `(data graph, connected query carved from it)` pair, plus a
/// seed for the carving walk.
fn arb_pair() -> impl Strategy<Value = (Graph, Graph)> {
    (arb_graph(9, 16, 3), any::<u64>()).prop_map(|(g, seed)| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let q = brute::random_connected_query(&mut rng, &g, 3);
        (g, q)
    })
}

fn all_matchers() -> Vec<Box<dyn Matcher>> {
    vec![
        Box::new(GraphQl::new()),
        Box::new(Cfl::new()),
        Box::new(Cfl::with_config(CflConfig { bottom_up: false, top_down: false })),
        Box::new(Cfql::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// I2: candidate spaces are complete — every oracle embedding lies
    /// inside Φ; and pruning only happens when the oracle finds nothing.
    #[test]
    fn filters_are_complete((g, q) in arb_pair()) {
        let oracle = brute::enumerate_all(&q, &g);
        for m in all_matchers() {
            match m.filter(&q, &g, Deadline::none()).unwrap() {
                FilterResult::Pruned => prop_assert!(
                    oracle.is_empty(),
                    "{} pruned a graph with {} embeddings", m.name(), oracle.len()
                ),
                FilterResult::Space(space) => prop_assert!(
                    space.is_complete_for(&oracle),
                    "{} candidate space incomplete", m.name()
                ),
            }
        }
    }

    /// I1 + I3: every matcher finds exactly the oracle's embeddings, and
    /// every reported embedding is valid.
    #[test]
    fn matchers_count_like_oracle((g, q) in arb_pair()) {
        let expected = brute::enumerate_all(&q, &g).len() as u64;
        for m in all_matchers() {
            let mut all_valid = true;
            let count = match m.filter(&q, &g, Deadline::none()).unwrap() {
                FilterResult::Pruned => 0,
                FilterResult::Space(space) => m
                    .enumerate(&q, &g, &space, u64::MAX, Deadline::none(), &mut |e| {
                        all_valid &= e.is_valid(&q, &g);
                    })
                    .unwrap(),
            };
            prop_assert!(all_valid, "{} emitted an invalid embedding", m.name());
            prop_assert_eq!(count, expected, "{} count mismatch", m.name());
        }
    }

    /// VF2 (direct enumeration, no Matcher impl) also matches the oracle.
    #[test]
    fn vf2_counts_like_oracle((g, q) in arb_pair()) {
        let expected = brute::enumerate_all(&q, &g).len() as u64;
        let count = Vf2::new().count(&q, &g, u64::MAX, Deadline::none()).unwrap();
        prop_assert_eq!(count, expected);
    }

    /// Decision agreement on arbitrary (not carved) query graphs, including
    /// impossible ones.
    #[test]
    fn decision_agreement_on_arbitrary_pairs(
        g in arb_graph(8, 14, 2),
        q in arb_graph(4, 5, 2),
    ) {
        // Restrict to connected queries (the paper's setting).
        prop_assume!(subgraph_query::graph::algo::is_connected(&q));
        let expected = brute::is_subgraph(&q, &g);
        for m in all_matchers() {
            prop_assert_eq!(
                m.is_subgraph(&q, &g, Deadline::none()).unwrap(),
                expected,
                "{} decision mismatch", m.name()
            );
        }
        prop_assert_eq!(Vf2::new().is_subgraph(&q, &g, Deadline::none()).unwrap(), expected);
    }
}
