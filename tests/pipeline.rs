//! End-to-end pipeline tests: generators → engines → metrics.
//!
//! Exercises the same path the `repro` harness takes, at test size, and
//! checks the metric invariants (I7) along the way.

use std::sync::Arc;
use std::time::Duration;

use subgraph_query::core::engines::paper_engines;
use subgraph_query::core::prelude::*;
use subgraph_query::datagen::graphgen;
use subgraph_query::datagen::profiles::aids_like;
use subgraph_query::datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};

#[test]
fn synthetic_pipeline_end_to_end() {
    let db = Arc::new(graphgen::generate(40, 30, 8, 4.0, 3));
    let spec = QuerySetSpec { edges: 6, method: QueryGenMethod::RandomWalk, count: 8 };
    let queries = generate_query_set(&db, spec, 11);

    let mut engines = paper_engines();
    let mut reference: Option<Vec<f64>> = None;
    for engine in engines.iter_mut() {
        engine.build(&db).expect("test-sized build");
        let report = run_query_set(
            engine.as_mut(),
            &spec.name(),
            &queries,
            RunnerConfig::with_budget(Duration::from_secs(10)),
        );
        assert_eq!(report.records.len(), queries.len());
        // Metric invariants.
        let precision = report.filtering_precision();
        assert!((0.0..=1.0).contains(&precision), "{}: precision {precision}", engine.name());
        assert!(report.avg_candidates() >= report.avg_answers(), "{}", engine.name());
        assert!(report.per_si_test_ms() >= 0.0);
        assert_eq!(report.totals().count("timed_out"), 0, "{} timed out", engine.name());
        // Answers are engine-independent.
        let answers: Vec<f64> = report.records.iter().map(|r| r.answers as f64).collect();
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(r, &answers, "{} answer mismatch", engine.name()),
        }
    }
}

#[test]
fn profile_pipeline_with_dense_queries() {
    let mut profile = aids_like();
    profile.graphs = 120;
    let db = Arc::new(profile.generate(21));
    let spec = QuerySetSpec { edges: 8, method: QueryGenMethod::Bfs, count: 6 };
    let queries = generate_query_set(&db, spec, 31);

    let mut cfql = CfqlEngine::new();
    let mut grapes = GrapesEngine::new();
    cfql.build(&db).unwrap();
    grapes.build(&db).unwrap();
    let config = RunnerConfig::with_budget(Duration::from_secs(10));
    let a = run_query_set(&mut cfql, &spec.name(), &queries, config);
    let b = run_query_set(&mut grapes, &spec.name(), &queries, config);
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.answers, y.answers);
    }
}

#[test]
fn io_round_trip_preserves_query_answers() {
    use subgraph_query::graph::io;
    let db = graphgen::generate(10, 15, 4, 3.0, 9);
    let spec = QuerySetSpec { edges: 4, method: QueryGenMethod::RandomWalk, count: 3 };
    let queries = generate_query_set(&db, spec, 41);

    // Serialize + reload the database; answers must be unchanged.
    let mut buf = Vec::new();
    io::write_database(&mut buf, &db).unwrap();
    let db2 = io::read_database(buf.as_slice()).unwrap();
    assert_eq!(db.len(), db2.len());

    let (db, db2) = (Arc::new(db), Arc::new(db2));
    let mut e1 = CfqlEngine::new();
    let mut e2 = CfqlEngine::new();
    e1.build(&db).unwrap();
    e2.build(&db2).unwrap();
    for q in &queries {
        assert_eq!(e1.query(q).answers, e2.query(q).answers);
    }
}

#[test]
fn query_set_statistics_are_plausible() {
    use subgraph_query::graph::stats::QuerySetStats;
    let db = graphgen::generate(20, 40, 6, 5.0, 17);
    for (edges, method) in [(8, QueryGenMethod::RandomWalk), (8, QueryGenMethod::Bfs)] {
        let spec = QuerySetSpec { edges, method, count: 20 };
        let qs = generate_query_set(&db, spec, 5);
        let stats = QuerySetStats::compute(qs.iter());
        // Sparse (random-walk) queries have more vertices per edge than
        // dense (BFS) queries — the Table V shape.
        if method == QueryGenMethod::Bfs {
            assert!(stats.avg_degree >= 2.0, "dense degree {}", stats.avg_degree);
        } else {
            assert!(stats.avg_vertices >= edges as f64 * 0.8);
        }
    }
}
