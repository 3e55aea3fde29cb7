//! Failure-injection tests: every engine must degrade gracefully — never
//! panic, never fabricate answers — under hostile budgets and degenerate
//! inputs.

use std::sync::Arc;
use std::time::Duration;

use subgraph_query::core::engines::paper_engines;
use subgraph_query::core::prelude::*;
use subgraph_query::datagen::graphgen;
use subgraph_query::graph::{Graph, GraphBuilder, GraphDb, Label, VertexId};
use subgraph_query::index::BuildBudget;

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
fn zero_query_budget_flags_timeout_everywhere() {
    let db = Arc::new(graphgen::generate(10, 20, 4, 3.0, 5));
    let q = labeled(&[0, 1], &[(0, 1)]);
    for mut engine in paper_engines() {
        engine.build(&db).expect("small build");
        engine.set_query_budget(Some(Duration::from_nanos(0)));
        let out = engine.query(&q);
        // Either the engine noticed the expired deadline, or the query was
        // trivially finished before the first check — both are acceptable;
        // partial answers must never exceed the true answer set.
        if !out.timed_out() {
            continue;
        }
        let mut reference = CfqlEngine::new();
        reference.build(&db).unwrap();
        let truth = reference.query(&q).answers;
        for a in &out.answers {
            assert!(truth.contains(a), "{} fabricated {a:?}", engine.name());
        }
    }
}

#[test]
fn impossible_memory_budget_fails_builds_not_panics() {
    let db = Arc::new(graphgen::generate(5, 15, 3, 3.0, 6));
    for mut engine in paper_engines() {
        engine.set_build_budget(BuildBudget::unlimited().with_memory(1));
        let result = engine.build(&db);
        match engine.category() {
            EngineCategory::VcFv => assert!(result.is_ok(), "{} builds nothing", engine.name()),
            _ => assert!(result.is_err(), "{} should hit OOM", engine.name()),
        }
    }
}

#[test]
fn single_vertex_queries_work() {
    let db = Arc::new(GraphDb::from_graphs(vec![labeled(&[0, 1], &[(0, 1)]), labeled(&[2], &[])]));
    let q = labeled(&[2], &[]);
    for mut engine in paper_engines() {
        engine.build(&db).expect("small build");
        let out = engine.query(&q);
        assert_eq!(
            out.answers,
            vec![subgraph_query::graph::database::GraphId(1)],
            "{}",
            engine.name()
        );
    }
}

#[test]
fn empty_database_yields_empty_answers() {
    let db = Arc::new(GraphDb::new());
    let q = labeled(&[0, 1], &[(0, 1)]);
    for mut engine in paper_engines() {
        engine.build(&db).expect("empty build");
        let out = engine.query(&q);
        assert!(out.answers.is_empty(), "{}", engine.name());
        assert_eq!(out.candidates, 0, "{}", engine.name());
    }
}

#[test]
fn query_equal_to_data_graph() {
    // Self-containment: every graph contains itself.
    let g = labeled(&[0, 1, 2, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let db = Arc::new(GraphDb::from_graphs(vec![g.clone()]));
    for mut engine in paper_engines() {
        engine.build(&db).expect("small build");
        let out = engine.query(&g);
        assert_eq!(out.answers.len(), 1, "{}", engine.name());
    }
}

#[test]
fn query_larger_than_every_data_graph() {
    let db = Arc::new(GraphDb::from_graphs(vec![labeled(&[0, 1], &[(0, 1)])]));
    let q = labeled(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)]);
    for mut engine in paper_engines() {
        engine.build(&db).expect("small build");
        assert!(engine.query(&q).answers.is_empty(), "{}", engine.name());
    }
}

#[test]
fn repeated_queries_are_deterministic() {
    let db = Arc::new(graphgen::generate(30, 25, 5, 4.0, 7));
    let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
    for mut engine in paper_engines() {
        engine.build(&db).expect("small build");
        let a = engine.query(&q);
        let b = engine.query(&q);
        assert_eq!(a.answers, b.answers, "{}", engine.name());
        assert_eq!(a.candidates, b.candidates, "{}", engine.name());
    }
}
