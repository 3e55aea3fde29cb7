//! Invariant I1: every engine returns exactly the brute-force answer set on
//! randomized databases and queries (soundness *and* completeness of the
//! whole pipeline: index filtering, vertex-connectivity filtering, and
//! verification).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use subgraph_query::core::engines::paper_engines;
use subgraph_query::core::prelude::*;
use subgraph_query::graph::database::GraphId;
use subgraph_query::graph::GraphDb;
use subgraph_query::matching::brute;

fn brute_answers(db: &GraphDb, q: &subgraph_query::graph::Graph) -> Vec<GraphId> {
    db.iter().filter(|(_, g)| brute::is_subgraph(q, g)).map(|(id, _)| id).collect()
}

#[test]
fn all_engines_match_brute_force_on_random_databases() {
    let mut rng = StdRng::seed_from_u64(1234);
    for trial in 0..8 {
        // A small random database (mixed sizes, some graphs unrelated to
        // the query's source).
        let graphs: Vec<_> =
            (0..12).map(|i| brute::random_graph(&mut rng, 6 + i % 5, 10 + i, 3)).collect();
        let db = Arc::new(GraphDb::from_graphs(graphs));
        let mut queries = Vec::new();
        for g in db.graphs().iter().take(4) {
            queries.push(brute::random_connected_query(&mut rng, g, 3));
        }

        let mut engines = paper_engines();
        for engine in engines.iter_mut() {
            engine.build(&db).expect("small build");
        }
        for (qi, q) in queries.iter().enumerate() {
            let expected = brute_answers(&db, q);
            for engine in engines.iter() {
                let out = engine.query(q);
                assert_eq!(
                    out.answers,
                    expected,
                    "trial {trial} query {qi} engine {}",
                    engine.name()
                );
                assert!(
                    out.candidates >= expected.len(),
                    "candidate set smaller than answer set for {}",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn engines_agree_on_label_disjoint_query() {
    let mut rng = StdRng::seed_from_u64(77);
    let graphs: Vec<_> = (0..6).map(|_| brute::random_graph(&mut rng, 8, 12, 2)).collect();
    let db = Arc::new(GraphDb::from_graphs(graphs));
    // A query whose labels don't exist in the database (labels ≥ 2).
    let far = brute::random_graph(&mut rng, 4, 6, 1);
    let q = {
        use subgraph_query::graph::{GraphBuilder, Label, VertexId};
        let mut b = GraphBuilder::new();
        for v in far.vertices() {
            b.add_vertex(Label(far.label(v).id() + 50));
        }
        let mut connected = false;
        for u in far.vertices() {
            for &w in far.neighbors(u) {
                if u < w {
                    b.add_edge(VertexId(u.id()), VertexId(w.id())).unwrap();
                    connected = true;
                }
            }
        }
        if !connected {
            b.add_vertex(Label(51));
        }
        b.build()
    };
    let mut engines = paper_engines();
    for engine in engines.iter_mut() {
        engine.build(&db).unwrap();
        let out = engine.query(&q);
        assert!(out.answers.is_empty(), "engine {}", engine.name());
    }
}

#[test]
fn timed_out_queries_are_flagged_not_wrong() {
    // With a zero budget the engines must flag the timeout rather than
    // return a fabricated answer set.
    let mut rng = StdRng::seed_from_u64(5);
    let graphs: Vec<_> = (0..4).map(|_| brute::random_graph(&mut rng, 10, 20, 1)).collect();
    let db = Arc::new(GraphDb::from_graphs(graphs));
    let q = brute::random_connected_query(&mut rng, &db.graphs()[0], 4);
    let mut engine = CfqlEngine::new();
    engine.build(&db).unwrap();
    engine.set_query_budget(Some(std::time::Duration::from_nanos(0)));
    let out = engine.query(&q);
    assert!(out.timed_out());
}
