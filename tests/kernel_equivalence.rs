//! Kernel-equivalence properties (DESIGN.md "Enumeration kernels", I9):
//!
//! * the enumerator's one path produces the brute oracle's embedding set,
//!   and the oracle's answer set with `QueryStatus::Completed` at 1, 2, 4
//!   and 8 threads — including on all-hub graphs where every intersection
//!   goes through the compressed bitmap containers (both regimes);
//! * each pairwise kernel it can choose — hub bitmap, galloping, SIMD block
//!   — is actually taken on the instance built to trigger it (the counters
//!   prove it), and counter totals do not depend on the thread count;
//! * the candidate-membership bitmaps are charged to the auxiliary-memory
//!   budget — a budget between the sets-only footprint and the full
//!   `heap_size()` trips `ResourceExhausted { kind: Memory }`.
//!
//! CI runs this file a second time under `SQP_FORCE_SCALAR=1`. The same-
//! order agreement with the per-candidate probing reference is
//! `enumerate::tests::matches_reference_in_emission_order`; the forced
//! single-kernel variants agree in `sqp_graph::intersect`'s own tests.

use std::sync::Arc;

use proptest::prelude::*;

use subgraph_query::core::engines::GraphQlEngine;
use subgraph_query::core::parallel::QueryPool;
use subgraph_query::core::{QueryEngine, QueryStatus};
use subgraph_query::graph::database::GraphId;
use subgraph_query::graph::{Graph, GraphBuilder, GraphDb, HeapSize, Label, VertexId};
use subgraph_query::graph::{NeighborBitmaps, HUB_DEGREE_THRESHOLD};
use subgraph_query::matching::cfql::Cfql;
use subgraph_query::matching::graphql::GraphQl;
use subgraph_query::matching::{
    brute, Deadline, FilterResult, Matcher, ResourceGuard, ResourceKind, ResourceLimits,
};

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

/// Strategy: a `(data graph, connected query carved from it)` pair.
fn arb_pair() -> impl Strategy<Value = (Graph, Graph)> {
    (arb_graph(10, 20, 3), any::<u64>()).prop_map(|(g, seed)| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let q = brute::random_connected_query(&mut rng, &g, 4);
        (g, q)
    })
}

/// Strategy: a database of random graphs plus a query carved from one.
fn arb_db_and_query() -> impl Strategy<Value = (Arc<GraphDb>, Graph)> {
    (proptest::collection::vec(arb_graph(8, 14, 3), 1..8), any::<u64>()).prop_map(
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

/// The sorted embedding set the GraphQL matcher produces on `(q, g)`.
fn embeddings(q: &Graph, g: &Graph) -> Vec<Vec<VertexId>> {
    let m = GraphQl::new();
    let mut out = Vec::new();
    match m.filter(q, g, Deadline::none()).unwrap() {
        FilterResult::Pruned => {}
        FilterResult::Space(space) => {
            m.enumerate(q, g, &space, u64::MAX, Deadline::none(), &mut |e| {
                out.push(e.as_slice().to_vec());
            })
            .unwrap();
        }
    }
    out.sort();
    out
}

/// A hub-heavy single-graph database: one high-degree center over several
/// label classes, so enumeration crosses the hub-bitmap degree threshold
/// and produces highly skewed candidate-list sizes (the galloping regime).
fn hub_db() -> (Arc<GraphDb>, Graph) {
    let mut b = GraphBuilder::new();
    b.add_vertex(Label(0)); // hub
    for v in 1..=160u32 {
        b.add_vertex(Label(1 + v % 2));
        let _ = b.add_edge(VertexId(0), VertexId(v));
    }
    // A sparse ring among the spokes so queries need real intersections.
    for v in 1..=160u32 {
        let w = if v == 160 { 1 } else { v + 1 };
        let _ = b.add_edge(VertexId(v), VertexId(w));
    }
    let g = b.build();

    let mut qb = GraphBuilder::new();
    qb.add_vertex(Label(0));
    qb.add_vertex(Label(1));
    qb.add_vertex(Label(2));
    let _ = qb.add_edge(VertexId(0), VertexId(1));
    let _ = qb.add_edge(VertexId(0), VertexId(2));
    let _ = qb.add_edge(VertexId(1), VertexId(2));
    (Arc::new(GraphDb::from_graphs(vec![g])), qb.build())
}

/// The graphs of `db` that contain `q`, by the brute oracle.
fn oracle_answers(db: &GraphDb, q: &Graph) -> Vec<GraphId> {
    db.iter().filter(|(_, g)| brute::is_subgraph(q, g)).map(|(id, _)| id).collect()
}

/// How many vertices of `db`'s only graph have a hub-bitmap row.
fn hub_count(db: &GraphDb) -> usize {
    NeighborBitmaps::build(db.graph(GraphId(0)), HUB_DEGREE_THRESHOLD).hub_count()
}

fn graphql_outcome(db: &Arc<GraphDb>, q: &Graph) -> subgraph_query::core::QueryOutcome {
    let mut engine = GraphQlEngine::new();
    engine.build(db).unwrap();
    engine.query(q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Embedding-level equivalence: the enumerator produces exactly the
    /// brute oracle's embedding set.
    #[test]
    fn kernels_produce_identical_embeddings((g, q) in arb_pair()) {
        let mut oracle: Vec<Vec<VertexId>> =
            brute::enumerate_all(&q, &g).iter().map(|e| e.as_slice().to_vec()).collect();
        oracle.sort();
        prop_assert_eq!(embeddings(&q, &g), oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Database-level equivalence: the oracle's answer set, `Completed`, at
    /// 1, 2, 4 and 8 threads.
    #[test]
    fn kernels_agree_across_thread_counts((db, q) in arb_db_and_query()) {
        let oracle = oracle_answers(&db, &q);
        for threads in [1usize, 2, 4, 8] {
            let pool = QueryPool::new(threads);
            let got = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none()).outcome;
            prop_assert_eq!(&got.answers, &oracle, "{} threads: answer mismatch", threads);
            prop_assert_eq!(got.status, QueryStatus::Completed, "{} threads", threads);
        }
    }
}

/// A triangle whose third vertex is found by intersecting a 3-element
/// adjacency with a 60-element one — over the galloping ratio — between two
/// vertices that stay under the hub-degree threshold.
fn skewed_db() -> (Arc<GraphDb>, Graph) {
    let mut b = GraphBuilder::new();
    let a = b.add_vertex(Label(0));
    let hub = b.add_vertex(Label(1));
    let _ = b.add_edge(a, hub);
    for i in 0..60 {
        let c = b.add_vertex(Label(2));
        let _ = b.add_edge(hub, c);
        if i < 3 {
            let _ = b.add_edge(a, c);
        }
    }
    let mut qb = GraphBuilder::new();
    qb.add_vertex(Label(0));
    qb.add_vertex(Label(1));
    qb.add_vertex(Label(2));
    let _ = qb.add_edge(VertexId(0), VertexId(1));
    let _ = qb.add_edge(VertexId(0), VertexId(2));
    let _ = qb.add_edge(VertexId(1), VertexId(2));
    (Arc::new(GraphDb::from_graphs(vec![b.build()])), qb.build())
}

/// The enumerator actually exercises its fast paths: on a hub-heavy graph
/// the hub bitmap answers membership probes, and on skewed lists between
/// sub-threshold vertices galloping fires. Also checks the engine-level sink
/// plumbing end to end.
#[test]
fn auto_kernel_reports_fast_path_counters() {
    let (db, q) = hub_db();
    assert!(hub_count(&db) > 0);
    let out = graphql_outcome(&db, &q);
    assert_eq!(out.status, QueryStatus::Completed);
    assert_eq!(out.answers, oracle_answers(&db, &q));
    assert!(out.kernel.intersections > 0, "no intersections ran: {:?}", out.kernel);
    assert!(out.kernel.bitmap_probes > 0, "no hub bitmap was probed");

    let (db, q) = skewed_db();
    assert_eq!(hub_count(&db), 0, "the skewed instance must stay off the hub path");
    let out = graphql_outcome(&db, &q);
    assert_eq!(out.status, QueryStatus::Completed);
    assert_eq!(out.answers, oracle_answers(&db, &q));
    assert!(out.kernel.gallop_hits > 0, "skewed lists never galloped: {:?}", out.kernel);
}

/// A complete tripartite graph over three label classes of `group` vertices,
/// optionally with `pad` isolated filler vertices interleaved to stretch the
/// id space. Every connected vertex has degree `2 * group`, so with
/// `group >= 32` every probed vertex is a hub: every pairwise intersection
/// goes through the compressed bitmap containers. Interleaved padding widens
/// each chunk's dense footprint, flipping the containers from bitmap
/// (compact ids) to array (sparse ids).
fn all_hub_db(group: u32, pad: u32) -> (Arc<GraphDb>, Graph) {
    let mut b = GraphBuilder::new();
    let mut groups: Vec<Vec<VertexId>> = vec![Vec::new(); 3];
    for i in 0..3 * group {
        groups[(i % 3) as usize].push(b.add_vertex(Label(i % 3)));
        for _ in 0..pad / (3 * group) {
            b.add_vertex(Label(9));
        }
    }
    for (la, ga) in groups.iter().enumerate() {
        for (lb, gb) in groups.iter().enumerate().skip(la + 1) {
            debug_assert!(la < lb);
            for &u in ga {
                for &v in gb {
                    let _ = b.add_edge(u, v);
                }
            }
        }
    }
    let g = b.build();
    let mut qb = GraphBuilder::new();
    qb.add_vertex(Label(0));
    qb.add_vertex(Label(1));
    qb.add_vertex(Label(2));
    let _ = qb.add_edge(VertexId(0), VertexId(1));
    let _ = qb.add_edge(VertexId(0), VertexId(2));
    let _ = qb.add_edge(VertexId(1), VertexId(2));
    (Arc::new(GraphDb::from_graphs(vec![g])), qb.build())
}

/// All-hub graphs (every probed vertex over the hub-degree threshold): the
/// oracle's answers at 1/2/4/8 threads with every intersection routed
/// through the compressed bitmap containers — both the
/// dense-bitmap-container regime (compact id space) and the
/// array-container regime (padded id space).
#[test]
fn all_hub_graphs_agree_across_kernels_and_containers() {
    for pad in [0u32, 6000] {
        let (db, q) = all_hub_db(32, pad);
        let bm = NeighborBitmaps::build(db.graph(GraphId(0)), HUB_DEGREE_THRESHOLD);
        assert_eq!(bm.hub_count(), 96, "pad {pad}: every tripartite vertex is a hub");
        let (array, bitmap) = bm.container_counts();
        if pad == 0 {
            assert!(bitmap > 0 && array == 0, "compact ids must take bitmap containers");
        } else {
            assert!(array > 0 && bitmap == 0, "padded ids must take array containers");
        }

        let oracle = oracle_answers(&db, &q);
        assert!(!oracle.is_empty(), "pad {pad}: the tripartite graph matches");
        for threads in [1usize, 2, 4, 8] {
            let pool = QueryPool::new(threads);
            let got = pool.query(Arc::new(GraphQl::new()), &db, &q, Deadline::none()).outcome;
            assert_eq!(got.answers, oracle, "pad {pad} at {threads} threads: answer mismatch");
            assert_eq!(got.status, QueryStatus::Completed, "pad {pad} at {threads} threads");
            let k = got.kernel;
            assert!(k.bitmap_probes > 0, "pad {pad}, {threads} threads: no container probed");
            assert!(
                k.intersections > 0 && k.gallop_hits + k.simd_hits == 0,
                "pad {pad}, {threads} threads: a sorted-list kernel ran on a hub: {k:?}"
            );
        }
    }
}

/// Balanced lists between sub-threshold vertices take the SIMD block kernel
/// (when the CPU has a vector implementation and it is not disabled).
#[test]
fn simd_kernel_reports_vectorized_steps() {
    let (db, q) = all_hub_db(20, 0);
    assert_eq!(hub_count(&db), 0, "degree 40 stays under the hub threshold");
    let out = graphql_outcome(&db, &q);
    assert_eq!(out.status, QueryStatus::Completed);
    assert_eq!(out.answers, oracle_answers(&db, &q));
    assert!(out.kernel.intersections > 0);
    if subgraph_query::graph::simd::available() {
        assert!(out.kernel.simd_hits > 0, "20-vs-20 lists must vectorize: {:?}", out.kernel);
    } else {
        assert_eq!(out.kernel.simd_hits, 0, "scalar fallback must not count simd hits");
    }
}

/// The pool's shared stats sink also surfaces kernel counters, at any
/// thread count, and the totals are thread-count independent.
#[test]
fn pool_kernel_counters_are_thread_count_independent() {
    let (db, q) = hub_db();
    let mut totals = Vec::new();
    for threads in [1usize, 2, 4] {
        let pool = QueryPool::new(threads);
        let out = pool.query(Arc::new(GraphQl::new()), &db, &q, Deadline::none()).outcome;
        assert_eq!(out.status, QueryStatus::Completed);
        assert!(out.kernel.intersections > 0, "{threads} threads: no intersections");
        totals.push(out.kernel);
    }
    assert_eq!(totals[0], totals[1]);
    assert_eq!(totals[1], totals[2]);
}

/// Budget-exhaustion accounting: the candidate-membership bitmap is part of
/// the candidate space's `heap_size()`, so a memory budget that sits between
/// the sets-only footprint and the full footprint must trip `Memory` — and a
/// budget covering the full footprint must not.
#[test]
fn bitmap_bytes_count_against_memory_budget() {
    let (db, q) = hub_db();
    let g = db.graph(GraphId(0));

    // Reproduce the exact space the pool will build, to size the budget.
    let matcher = Cfql::new();
    let space = match matcher.filter(&q, g, Deadline::none()).unwrap() {
        FilterResult::Space(space) => space,
        FilterResult::Pruned => panic!("hub query must not prune"),
    };
    let full = space.heap_size();
    let bitmap = space.bitmap_bytes();
    assert!(bitmap > 0, "hub space must carry a membership bitmap");
    assert!(full > bitmap, "heap_size must exceed the bitmap alone");

    // One byte short of the full footprint: inside the window that only
    // trips because bitmap bytes are accounted.
    let pool = QueryPool::new(2);
    let guard = ResourceGuard::new();
    guard.reset(ResourceLimits::unlimited().with_max_aux_bytes(full - 1));
    let r = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none().with_guard(guard));
    assert_eq!(
        r.outcome.status,
        QueryStatus::ResourceExhausted { kind: ResourceKind::Memory },
        "a sub-footprint budget must trip on bitmap bytes"
    );

    // The full footprint fits: no trip.
    guard.reset(ResourceLimits::unlimited().with_max_aux_bytes(full));
    let r = pool.query(Arc::new(Cfql::new()), &db, &q, Deadline::none().with_guard(guard));
    assert_eq!(r.outcome.status, QueryStatus::Completed);
}
