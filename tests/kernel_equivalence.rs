//! Kernel-equivalence properties (DESIGN.md "Enumeration kernels", I9):
//!
//! * the enumerator's one path produces the brute oracle's embedding set,
//!   and the oracle's answer set with `QueryStatus::Completed` at 1, 2, 4
//!   and 8 threads — where every probed vertex has an adjacency row (local
//!   candidates are word-parallel ANDs), where none has (sorted lists only)
//!   and where some mapped vertices have one and some do not;
//! * each way it can take a step — adjacency rows, galloping, SIMD block —
//!   is actually taken on the instance built to trigger it (the counters
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

/// A hub-heavy single-graph database: one center adjacent to all 160 other
/// vertices, which sit on a ring (degree 3). The center has an adjacency row
/// and nothing else has: closing the triangle intersects a row with a list.
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

/// How many vertices of `db`'s only graph have an adjacency row.
fn row_count(db: &GraphDb) -> usize {
    db.graph(GraphId(0)).adjacency_rows().row_count()
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
/// vertices without an adjacency row: 1 000 isolated vertices stretch the id
/// space to 16 words, and 61 neighbors are not over 4 × 16.
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
    for _ in 0..1_000 {
        b.add_vertex(Label(9));
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
/// the hub's adjacency row answers membership probes, and on skewed lists
/// between vertices without a row galloping fires. Also checks the
/// engine-level sink plumbing end to end.
#[test]
fn auto_kernel_reports_fast_path_counters() {
    let (db, q) = hub_db();
    assert_eq!(row_count(&db), 1, "the hub has a row, no ring vertex has");
    let out = graphql_outcome(&db, &q);
    assert_eq!(out.status, QueryStatus::Completed);
    assert_eq!(out.answers, oracle_answers(&db, &q));
    assert!(out.kernel.intersections > 0, "no intersections ran: {:?}", out.kernel);
    assert!(out.kernel.bitmap_probes > 0, "no adjacency row was probed");

    let (db, q) = skewed_db();
    assert_eq!(row_count(&db), 0, "the skewed instance must stay on sorted lists");
    let out = graphql_outcome(&db, &q);
    assert_eq!(out.status, QueryStatus::Completed);
    assert_eq!(out.answers, oracle_answers(&db, &q));
    assert!(out.kernel.gallop_hits > 0, "skewed lists never galloped: {:?}", out.kernel);
}

/// A complete tripartite graph over three label classes of `group` vertices,
/// optionally with `pad` isolated filler vertices interleaved to stretch the
/// id space. Every connected vertex has degree `2 * group`: with no padding
/// that is over `4·⌈n/64⌉` and every probed vertex has an adjacency row;
/// padding lengthens the rows until none has.
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

/// I9 over the three ways local candidates are computed: the oracle's
/// answers at 1/2/4/8 threads where every probed vertex has an adjacency row
/// (word-parallel ANDs, no sorted-list kernel), where none has (sorted-list
/// kernels only) and where the mapped vertices of one step are one of each
/// (a row probed against a list).
#[test]
fn adjacency_row_regimes_agree_across_thread_counts() {
    let fixtures = [
        ("every vertex has a row", all_hub_db(32, 0), 96),
        ("no vertex has a row", skewed_db(), 0),
        ("no vertex has a row, balanced lists", all_hub_db(20, 600), 0),
        ("the hub has a row, the ring has none", hub_db(), 1),
    ];
    for (name, (db, q), rows) in fixtures {
        assert_eq!(row_count(&db), rows, "{name}");
        let oracle = oracle_answers(&db, &q);
        assert!(!oracle.is_empty(), "{name}: the graph matches");
        for threads in [1usize, 2, 4, 8] {
            let pool = QueryPool::new(threads);
            let got = pool.query(Arc::new(GraphQl::new()), &db, &q, Deadline::none()).outcome;
            assert_eq!(got.answers, oracle, "{name} at {threads} threads: answer mismatch");
            assert_eq!(got.status, QueryStatus::Completed, "{name} at {threads} threads");
            let k = got.kernel;
            assert!(k.intersections > 0, "{name}, {threads} threads: {k:?}");
            if rows == 0 {
                assert!(
                    k.gallop_hits + k.simd_hits > 0 || !subgraph_query::graph::simd::available(),
                    "{name}, {threads} threads: no sorted-list kernel ran: {k:?}"
                );
            } else {
                assert!(k.bitmap_probes > 0, "{name}, {threads} threads: no row was read");
            }
            if rows == 96 {
                assert_eq!(
                    k.gallop_hits + k.simd_hits,
                    0,
                    "{name}, {threads} threads: a sorted-list kernel ran beside the rows: {k:?}"
                );
            }
        }
    }
}

/// Balanced lists between vertices without a row take the SIMD block kernel
/// (when the CPU has a vector implementation and it is not disabled).
#[test]
fn simd_kernel_reports_vectorized_steps() {
    let (db, q) = all_hub_db(20, 600);
    assert_eq!(row_count(&db), 0, "degree 40 is not over 4 × 11 words");
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
