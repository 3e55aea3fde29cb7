//! Oracle-backed equivalence sweep (the observability PR's safety net): the
//! span instrumentation threaded through every matcher's hot path must not
//! change a single answer. Every matcher's embedding set and every engine's
//! answer set is compared against the brute-force oracle
//! (`sqp_matching::brute`) on random labeled graphs, and the parallel pool
//! is swept at 1, 2, 4 and 8 threads.
//!
//! Case count is environment-driven (`PROPTEST_CASES`, default 64; CI runs
//! 256) so local runs stay fast while CI gets the full sweep.

use std::sync::Arc;

use proptest::prelude::*;

use subgraph_query::core::engines::{engine_names, matcher_by_name, paper_engines};
use subgraph_query::core::parallel::QueryPool;
use subgraph_query::core::QueryStatus;
use subgraph_query::graph::database::GraphId;
use subgraph_query::graph::{Graph, GraphBuilder, GraphDb, Label, VertexId};
use subgraph_query::matching::{
    brute, Deadline, ExecCtx, FilterResult, Matcher, ResourceKind, ResourceLimits,
};

/// Every matcher in the registry, with its name: a matcher cannot enter the
/// registry without these sweeps covering it.
fn matchers() -> impl Iterator<Item = (&'static str, Arc<dyn Matcher>)> {
    engine_names().filter_map(|name| Some((name, matcher_by_name(name)?)))
}

/// Strategy: a random labeled graph with up to `max_v` vertices and `max_e`
/// edge attempts (self-loops and duplicates dropped by the builder).
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

/// Strategy: a `(data graph, connected query carved from it)` pair, small
/// enough for the exponential oracle.
fn arb_pair() -> impl Strategy<Value = (Graph, Graph)> {
    (arb_graph(9, 18, 3), any::<u64>()).prop_map(|(g, seed)| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let q = brute::random_connected_query(&mut rng, &g, 4);
        (g, q)
    })
}

/// Strategy: a database of random graphs plus a query carved from one of
/// them (so at least one answer is likely).
fn arb_db_and_query() -> impl Strategy<Value = (Arc<GraphDb>, Graph)> {
    (proptest::collection::vec(arb_graph(8, 14, 3), 1..7), any::<u64>()).prop_map(
        |(graphs, seed)| {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            let host = graphs[(seed % graphs.len() as u64) as usize].clone();
            let q = brute::random_connected_query(&mut rng, &host, 3);
            (Arc::new(GraphDb::from_graphs(graphs)), q)
        },
    )
}

/// The sorted embedding set `matcher` produces on `(q, g)`.
fn matcher_embeddings(matcher: &dyn Matcher, q: &Graph, g: &Graph) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    match matcher.filter(q, g, Deadline::none()).unwrap() {
        FilterResult::Pruned => {}
        FilterResult::Space(space) => {
            matcher
                .enumerate(q, g, &space, u64::MAX, Deadline::none(), &mut |e| {
                    out.push(e.as_slice().to_vec());
                })
                .unwrap();
        }
    }
    out.sort();
    out
}

/// The oracle's sorted embedding set.
fn oracle_embeddings(q: &Graph, g: &Graph) -> Vec<Vec<VertexId>> {
    let mut out: Vec<Vec<VertexId>> =
        brute::enumerate_all(q, g).iter().map(|e| e.as_slice().to_vec()).collect();
    out.sort();
    out
}

/// The oracle's sorted answer set over a database.
fn oracle_answers(db: &GraphDb, q: &Graph) -> Vec<GraphId> {
    (0..db.len() as u32).map(GraphId).filter(|&gid| brute::is_subgraph(q, db.graph(gid))).collect()
}

/// The adversarial pairs of `brute::hard_instances` (dense one-label data
/// with an absent or barely present clique or odd cycle, a label-skewed star
/// of cliques): under a step budget every matcher either counts exactly the
/// oracle's embeddings and answers as the oracle does, or reports the budget
/// exhausted. A wrong answer is the one thing it may not give. The generous
/// budget lets every search finish; the tight one cuts the longer ones off.
#[test]
fn hard_instances_are_answered_exactly_or_reported_exhausted() {
    let guard = ExecCtx::new();
    let deadline = Deadline::none().with_ctx(guard);
    let exhausted = QueryStatus::ResourceExhausted { kind: ResourceKind::Steps };
    let pool = QueryPool::new(1);
    for (max_steps, all_finish) in [(1 << 20, true), (20_000, false)] {
        let budget = ResourceLimits::unlimited().with_max_steps(max_steps);
        let (mut finished, mut cut_off) = (0, 0);
        for hard in brute::hard_instances() {
            let (q, g) = (&hard.query, &hard.data);
            let embeddings = brute::enumerate_all(q, g).len() as u64;
            let db = Arc::new(GraphDb::from_graphs(vec![g.clone()]));
            let answers = oracle_answers(&db, q);
            for (name, matcher) in matchers() {
                guard.arm(budget);
                match matcher.count(q, g, u64::MAX, deadline) {
                    Ok(count) => {
                        assert_eq!(count, embeddings, "{name} on {}", hard.name);
                        finished += 1;
                    }
                    Err(_) => {
                        assert_eq!(QueryStatus::from_interrupt(deadline), exhausted, "{name}");
                        cut_off += 1;
                    }
                }
                guard.arm(budget);
                let out = pool.query(matcher, &db, q, deadline).outcome;
                if out.status == QueryStatus::Completed {
                    assert_eq!(out.answers, answers, "{name} on {}", hard.name);
                } else {
                    assert_eq!(out.status, exhausted, "{name} on {}", hard.name);
                }
            }
        }
        assert!(finished > 0, "{max_steps} steps: no search finished");
        assert_eq!(cut_off == 0, all_finish, "{max_steps} steps: {cut_off} searches cut off");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Every matcher enumerates exactly the oracle's embedding set.
    #[test]
    fn matchers_enumerate_the_oracle_embedding_set((g, q) in arb_pair()) {
        let expected = oracle_embeddings(&q, &g);
        for (name, matcher) in matchers() {
            let got = matcher_embeddings(&*matcher, &q, &g);
            prop_assert_eq!(&got, &expected, "matcher {} diverged from the oracle", name);
        }
    }

    /// Every engine (IFV, vcFV and IvcFV alike) returns exactly the oracle's
    /// answer set.
    #[test]
    fn engines_answer_the_oracle_answer_set((db, q) in arb_db_and_query()) {
        let expected = oracle_answers(&db, &q);
        for mut engine in paper_engines() {
            engine.build(&db).unwrap();
            let out = engine.query(&q);
            prop_assert_eq!(out.status, QueryStatus::Completed, "engine {} did not complete", engine.name());
            prop_assert_eq!(
                &out.answers, &expected,
                "engine {} diverged from the oracle", engine.name()
            );
        }
    }
}

proptest! {
    // The pool sweep runs 4 thread counts per case; a quarter of the budget
    // keeps total work in line with the other properties.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64) / 4 + 1
    ))]

    /// The pooled matcher path returns the oracle answers at every thread
    /// count (worker partitioning must not change results).
    #[test]
    fn pool_answers_match_oracle_across_thread_counts((db, q) in arb_db_and_query()) {
        let expected = oracle_answers(&db, &q);
        for threads in [1usize, 2, 4, 8] {
            let pool = QueryPool::new(threads);
            let matcher = matcher_by_name("CFQL").unwrap();
            let out = pool.query(matcher, &db, &q, Deadline::none()).outcome;
            prop_assert_eq!(out.status, QueryStatus::Completed);
            prop_assert_eq!(
                &out.answers, &expected,
                "pool at {} threads diverged from the oracle", threads
            );
        }
    }
}
