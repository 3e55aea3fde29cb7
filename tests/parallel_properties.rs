//! Property-based tests of the parallel query layer (DESIGN.md §2.4):
//!
//! * I4 — for every database, query and thread count, [`QueryPool`] returns
//!   exactly the sequential engine's sorted answer set and candidate count;
//! * cancellation — a zero budget flags the outcome `timed_out` and returns
//!   promptly instead of grinding through the whole database.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use subgraph_query::core::engines::CfqlEngine;
use subgraph_query::core::parallel::QueryPool;
use subgraph_query::core::QueryEngine;
use subgraph_query::graph::database::GraphId;
use subgraph_query::graph::{Graph, GraphBuilder, GraphDb, Label, VertexId};
use subgraph_query::matching::cfql::Cfql;
use subgraph_query::matching::{brute, Deadline};

/// Brute-force database-level oracle: every graph containing `q`.
fn brute_answers(db: &GraphDb, q: &Graph) -> Vec<GraphId> {
    db.iter().filter(|(_, g)| brute::is_subgraph(q, g)).map(|(id, _)| id).collect()
}

/// Strategy: a random labeled graph with up to `max_v` vertices.
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

/// Strategy: a database of random graphs plus a connected query carved from
/// one of them (so the query usually has non-empty answers).
fn arb_db_and_query() -> impl Strategy<Value = (Arc<GraphDb>, Graph)> {
    (proptest::collection::vec(arb_graph(8, 14, 3), 1..12), any::<u64>()).prop_map(
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

proptest! {
    /// I4: the pool's answers and candidate counts are identical to the
    /// sequential CFQL engine's for every thread count.
    #[test]
    fn pool_equals_sequential_engine((db, q) in arb_db_and_query()) {
        let mut seq = CfqlEngine::new();
        seq.build(&db).unwrap();
        let expected = seq.query(&q);

        for threads in [1usize, 2, 4, 8] {
            let pool = QueryPool::new(threads);
            let got = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none());
            prop_assert_eq!(&got.outcome.answers, &expected.answers, "{} threads", threads);
            prop_assert_eq!(got.outcome.candidates, expected.candidates, "{} threads", threads);
            prop_assert!(!got.outcome.timed_out());
        }
    }

    /// Answers also agree with the brute-force oracle over the database.
    #[test]
    fn pool_matches_brute_oracle((db, q) in arb_db_and_query()) {
        let expected = brute_answers(&db, &q);
        let pool = QueryPool::new(4);
        let got = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none());
        prop_assert_eq!(got.outcome.answers, expected);
    }
}

/// A zero budget cancels every worker: the query returns promptly (well
/// within one tick interval of matcher work) and is flagged `timed_out`.
#[test]
fn zero_budget_cancels_all_workers_promptly() {
    // Large-ish dense graphs so an uncancelled sweep would take visible time.
    let graphs: Vec<Graph> = (0..64)
        .map(|i| {
            let mut b = GraphBuilder::new();
            for v in 0..60 {
                b.add_vertex(Label((v + i) % 5));
            }
            for u in 0..60u32 {
                for d in 1..=4u32 {
                    let _ = b.add_edge(VertexId(u), VertexId((u + d) % 60));
                }
            }
            b.build()
        })
        .collect();
    let db = Arc::new(GraphDb::from_graphs(graphs));
    let mut b = GraphBuilder::new();
    for v in 0..6 {
        b.add_vertex(Label(v % 5));
    }
    for u in 0..5u32 {
        let _ = b.add_edge(VertexId(u), VertexId(u + 1));
    }
    let q = b.build();

    let pool = QueryPool::new(4);
    let t0 = Instant::now();
    let r = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::after(Duration::ZERO));
    let elapsed = t0.elapsed();
    assert!(r.outcome.timed_out(), "zero budget must flag a timeout");
    // Workers observe the expired deadline at their next per-graph check;
    // the generous bound only guards against a full uncancelled sweep.
    assert!(elapsed < Duration::from_secs(5), "cancellation took {elapsed:?}");

    // The same pool then completes an unbudgeted query correctly.
    let ok = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none());
    assert!(!ok.outcome.timed_out());
}
