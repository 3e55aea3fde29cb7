//! Allocation accounting of the inner loops that run once per (query, small
//! unit of data): the CFL filter, the shared enumerator and seeded overlay
//! enumeration.
//!
//! A database scan calls the filter (the vcFV filter of CFQL) once per data
//! graph and almost every call prunes, so the pruned path must not touch the
//! allocator: its working memory is a per-thread scratch that only grows. A
//! surviving call hands its sets and bitmap rows to the candidate space and
//! gets them back when the space drops, so it allocates only the CSR CPI
//! (CFL only); the matching order and the enumerator work in per-thread
//! scratch too, so a warm unpruned pair allocates only the embedding it
//! reports.
//!
//! A continuous-query repair calls `SeededEnumerator::enumerate` once per
//! (query edge, added edge) pin and each search is neighborhood-sized, so a
//! warm call may allocate only the embeddings it emits: the seeder keeps the
//! one enumerator, with the per-thread scratch and a plan per pin pattern,
//! for its whole life.
//!
//! The overlay under it keeps every patched list in one arena that a
//! compaction empties without freeing, so once warm neither a batch's
//! allocations nor a compaction's frees grow with the slots it patched.
//!
//! Building a graph allocates per array, not per vertex: the builder grows
//! three flat arrays, and `build` makes the same few blocks whatever the
//! graph's size.
//!
//! This test binary installs a counting global allocator; counts are per
//! thread, so parallel tests do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use subgraph_query::graph::{DynamicGraph, Graph, GraphBuilder, Label, Update, VertexId};
use subgraph_query::matching::brute;
use subgraph_query::matching::cfl::{Cfl, CflConfig};
use subgraph_query::matching::cfql::Cfql;
use subgraph_query::matching::dynmatch::SeededEnumerator;
use subgraph_query::matching::{Deadline, Embedding, Matcher};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down; the const-initialised `Cell` itself never allocates.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn count_free() {
    let _ = DEALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free();
        // SAFETY: `ptr` was returned by `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn frees_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = DEALLOCATIONS.with(Cell::get);
    let out = f();
    (out, DEALLOCATIONS.with(Cell::get) - before)
}

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

/// `(q, g)` pairs CFL prunes, one per exit of the filter, each named.
fn pruned_pairs() -> Vec<(&'static str, Graph, Graph)> {
    let path = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
    let mut pairs = vec![
        // Label 2 does not occur in `g`.
        ("label miss", path.clone(), labeled(&[0, 1, 1], &[(0, 1), (0, 2)])),
        // Every label occurs, but the only label-1 vertex has degree 1 < 2
        // and `q`'s root is its label-1 vertex (frequency 1, degree 2).
        ("no root candidate", path.clone(), labeled(&[0, 0, 1, 2, 2], &[(0, 2), (1, 3), (3, 4)])),
        // Root (vertex 0, label 0) keeps its candidate; its only label-1
        // neighbor has degree 1 < 2, so Φ of the middle vertex is empty.
        ("empty set in generation", path, labeled(&[0, 1, 1, 2], &[(0, 1), (2, 3)])),
    ];
    // A pair that survives generation and is emptied by refinement: found by
    // search, pinned by the seed.
    let raw = Cfl::with_config(CflConfig { bottom_up: false, top_down: false });
    let mut rng = StdRng::seed_from_u64(77);
    let by_refinement = std::iter::repeat_with(|| {
        let g = brute::random_graph(&mut rng, 30, 45, 3);
        let other = brute::random_graph(&mut rng, 30, 45, 3);
        (brute::random_connected_query(&mut rng, &other, 6), g)
    })
    .take(5_000)
    .find(|(q, g)| {
        !raw.filter(q, g, Deadline::none()).unwrap().is_pruned()
            && Cfl::new().filter(q, g, Deadline::none()).unwrap().is_pruned()
    })
    .expect("no refinement-pruned pair in 5 000 draws");
    pairs.push(("emptied by refinement", by_refinement.0, by_refinement.1));
    pairs
}

#[test]
fn pruned_filter_calls_do_not_allocate() {
    let pairs = pruned_pairs();
    // The largest surviving pair this test filters: it sizes the scratch.
    let mut rng = StdRng::seed_from_u64(5);
    let dense = brute::random_graph(&mut rng, 100, 800, 3);
    let dense_q = brute::random_connected_query(&mut rng, &dense, 8);

    for matcher in [&Cfl::new() as &dyn Matcher, &Cfql::new()] {
        // Warm-up: one pass grows this thread's scratch to its final size.
        assert!(!matcher.filter(&dense_q, &dense, Deadline::none()).unwrap().is_pruned());
        for (name, q, g) in &pairs {
            assert!(matcher.filter(q, g, Deadline::none()).unwrap().is_pruned(), "{name}");
        }
        for (name, q, g) in &pairs {
            let (result, allocations) =
                allocations_during(|| matcher.filter(q, g, Deadline::none()));
            assert!(result.unwrap().is_pruned(), "{name}");
            assert_eq!(allocations, 0, "{}: pruned call ({name}) allocated", matcher.name());
        }
    }
}

#[test]
fn surviving_filter_calls_allocate_only_what_they_return() {
    let mut rng = StdRng::seed_from_u64(6);
    let g = brute::random_graph(&mut rng, 100, 800, 3);
    let q = brute::random_connected_query(&mut rng, &g, 8);
    let n = q.vertex_count() as u64;

    // The sets and their bitmap rows are the scratch's own buffers, handed
    // over. The CPI is copied out: parent array, two outer vectors, offsets
    // + data per tree edge.
    let cpi_allocations = 3 + 2 * (n - 1);
    for (matcher, budget) in [(&Cfql::new() as &dyn Matcher, 0), (&Cfl::new(), cpi_allocations)] {
        drop(matcher.filter(&q, &g, Deadline::none())); // warm the scratch
        let (result, allocations) = allocations_during(|| matcher.filter(&q, &g, Deadline::none()));
        assert!(result.unwrap().space().is_some());
        assert_eq!(
            allocations,
            budget,
            "{}: allocations of a surviving call for a {n}-vertex query",
            matcher.name()
        );
    }
}

/// ROADMAP 3a: filter, matching order and enumeration of a pair nothing
/// prunes, on a thread that has seen the pair once.
#[test]
fn a_warm_unpruned_pair_allocates_only_the_embedding_it_reports() {
    let mut rng = StdRng::seed_from_u64(6);
    let g = brute::random_graph(&mut rng, 100, 800, 3);
    for edges in [6, 8] {
        let q = (0..)
            .map(|_| brute::random_connected_query(&mut rng, &g, edges))
            .find(|q| q.vertex_count() == edges + 1)
            .unwrap();
        let cfql = Cfql::new();
        assert!(cfql.is_subgraph(&q, &g, Deadline::none()).unwrap(), "carved from g");
        let (found, allocations) =
            allocations_during(|| cfql.is_subgraph(&q, &g, Deadline::none()));
        assert!(found.unwrap());
        assert_eq!(allocations, 1, "{}-vertex query", q.vertex_count());
    }
}

/// The embeddings `Cfql` emits for `(q, g)`, in emission order.
fn emitted(q: &Graph, g: &Graph) -> Vec<Embedding> {
    let cfql = Cfql::new();
    let space = cfql.filter(q, g, Deadline::none()).unwrap().space().expect("not pruned");
    let mut out = Vec::new();
    cfql.enumerate(q, g, &space, 50, Deadline::none(), &mut |e| out.push(e.clone())).unwrap();
    out
}

fn on_a_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

/// The enumerator's twin of the filter's `scratch_survives_a_panic_mid_call`:
/// `on_match` panics at the last depth of a four-vertex query, with every
/// depth's buffer out of the scratch and the used-marks of three data
/// vertices set; the next runs on that thread emit what a fresh thread does.
#[test]
fn enumerator_scratch_survives_a_panic_in_on_match() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = brute::random_graph(&mut rng, 100, 800, 3);
    let q = (0..)
        .map(|_| brute::random_connected_query(&mut rng, &g, 3))
        .find(|q| q.vertex_count() == 4)
        .unwrap();
    let other = brute::random_connected_query(&mut rng, &g, 7);
    let fresh = [on_a_fresh_thread(|| emitted(&q, &g)), on_a_fresh_thread(|| emitted(&other, &g))];
    assert!(fresh.iter().all(|e| !e.is_empty()));

    on_a_fresh_thread(|| {
        let cfql = Cfql::new();
        let space = cfql.filter(&q, &g, Deadline::none()).unwrap().space().unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cfql.enumerate(&q, &g, &space, 50, Deadline::none(), &mut |_| panic!("injected"))
        }));
        assert!(unwound.is_err(), "the injected panic must unwind the enumeration");
        assert_eq!([emitted(&q, &g), emitted(&other, &g)], fresh);
    });
}

/// A space that drops on another thread takes the filter's buffers with it:
/// the scratch that made it grows new ones (the one call that allocates),
/// answers unchanged, and is warm again after.
#[test]
fn a_space_dropped_on_another_thread_costs_one_regrowth() {
    let mut rng = StdRng::seed_from_u64(10);
    let g = brute::random_graph(&mut rng, 100, 800, 3);
    let q = brute::random_connected_query(&mut rng, &g, 6);
    let cfql = Cfql::new();
    let sets = |cfql: &Cfql| {
        cfql.filter(&q, &g, Deadline::none()).unwrap().space().unwrap().sets().to_vec()
    };
    let expected = sets(&cfql);

    let space = cfql.filter(&q, &g, Deadline::none()).unwrap().space().unwrap();
    on_a_fresh_thread(move || drop(space));
    let (regrown, allocations) = allocations_during(|| cfql.filter(&q, &g, Deadline::none()));
    assert!(allocations > 0, "the buffers left with the space");
    assert_eq!(regrown.unwrap().space().unwrap().sets(), &expected[..]);
    let (warm, allocations) = allocations_during(|| cfql.filter(&q, &g, Deadline::none()));
    assert_eq!(allocations, 0, "warm again");
    assert_eq!(warm.unwrap().space().unwrap().sets(), &expected[..]);
}

#[test]
fn warm_seeded_enumeration_allocates_only_the_embeddings_it_emits() {
    let mut rng = StdRng::seed_from_u64(8);
    let base = brute::random_graph(&mut rng, 60, 150, 3);
    let q = brute::random_connected_query(&mut rng, &base, 4);
    // Patch a third of the vertices, so the search walks base slices and
    // patched lists alike.
    let mut g = DynamicGraph::new(base);
    for i in 0..10u32 {
        let fresh = g.add_vertex(Label(i % 3)).unwrap();
        g.add_edge(fresh, VertexId(i)).unwrap();
        g.add_edge(fresh, VertexId(i + 20)).unwrap();
    }

    let mut seeder = SeededEnumerator::new(&q, &g);
    let mut out = Vec::new();
    seeder.enumerate(&[], Deadline::none(), &mut out).unwrap();
    let some = out.first().expect("the query was cut from the base graph").clone();
    // The three pin patterns repair uses: none (registration), one vertex,
    // one edge.
    let (u, w) = (VertexId(0), q.neighbors(VertexId(0))[0]);
    let pin = |x: VertexId| (x, some.image(x));
    let seed_sets = [vec![], vec![pin(u)], vec![pin(u), pin(w)]];
    // Warm-up: derives each pattern's search order, grows the root buffer
    // and `out` to their final sizes.
    for seeds in &seed_sets {
        seeder.enumerate(seeds, Deadline::none(), &mut out).unwrap();
    }
    for seeds in &seed_sets {
        out.clear();
        let (result, allocations) =
            allocations_during(|| seeder.enumerate(seeds, Deadline::none(), &mut out));
        result.unwrap();
        assert!(!out.is_empty(), "{seeds:?} extend a known embedding");
        assert_eq!(allocations, out.len() as u64, "{} pins", seeds.len());
    }
}

/// A ring over `n` vertices and four labels.
fn ring(n: u32) -> Graph {
    let labels: Vec<u32> = (0..n).map(|v| v % 4).collect();
    let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    labeled(&labels, &edges)
}

/// 250 new ring edges that first-touch the 50 vertices from `first`: each
/// of the first six gains an edge to most of the later ones.
fn crowded(first: u32) -> Vec<Update> {
    (first..first + 50)
        .flat_map(|a| (a + 2..first + 50).map(move |b| (a, b)))
        .take(250)
        .map(|(a, b)| Update::AddEdge { u: VertexId(a), v: VertexId(b) })
        .collect()
}

/// `slots / 2` new ring edges that first-touch the `slots` vertices from
/// `first`, one edge each.
fn matching(first: u32, slots: u32) -> Vec<Update> {
    let half = slots / 2;
    (first..first + half)
        .map(|a| Update::AddEdge { u: VertexId(a), v: VertexId(a + half) })
        .collect()
}

#[test]
fn a_warm_overlay_batch_allocates_the_same_for_50_or_500_first_touches() {
    let mut g = DynamicGraph::new(ring(2_000));
    // Warm-up: both shapes at once on other vertices, then the compaction
    // that keeps what they grew.
    let warm: Vec<Update> = crowded(1_000).into_iter().chain(matching(1_100, 500)).collect();
    g.apply_batch(&warm).unwrap();
    g.compact();

    let (few, many) = (crowded(0), matching(100, 500));
    let (fx, few) = allocations_during(|| g.apply_batch(&few));
    assert_eq!(fx.unwrap().touched.len(), 50);
    g.compact();
    let (fx, many) = allocations_during(|| g.apply_batch(&many));
    assert_eq!(fx.unwrap().touched.len(), 500);
    // What is left is the batch's own report, the same 250 edges each time.
    assert_eq!(few, many, "allocations of 250 edges over 50 vs 500 first touches");
    assert!(many < 50, "{many} allocations for 250 added edges");
}

#[test]
fn a_compaction_frees_the_same_blocks_for_200_or_2000_patched_slots() {
    let frees = |patched: u32| {
        let mut g = DynamicGraph::new(ring(4_000));
        g.apply_batch(&matching(0, patched)).unwrap();
        assert_eq!(g.patched_vertices(), patched as usize);
        let (report, frees) = frees_during(|| g.compact());
        assert_eq!(report.edges, 4_000 + patched as usize / 2);
        frees
    };
    assert_eq!(frees(200), frees(2_000));
}

/// A circulant over `n` vertices and four labels: `v` is adjacent to `v ± 1`
/// and `v ± 4`, so each list has three label runs whatever `n` is.
fn circulant(n: u32) -> GraphBuilder {
    let mut b = GraphBuilder::new();
    b.add_vertices(n as usize, |v| Label(v as u32 % 4));
    for v in 0..n {
        for step in [1, 4] {
            b.add_edge(VertexId(v), VertexId((v + step) % n)).unwrap();
        }
    }
    b
}

#[test]
fn building_a_graph_allocates_the_same_for_50_or_5000_vertices() {
    let build = |n| {
        let b = circulant(n);
        let (g, allocations) = allocations_during(|| b.build());
        assert_eq!(g.edge_count(), 2 * n as usize);
        allocations
    };
    let (small, large) = (build(50), build(5_000));
    assert_eq!(small, large, "allocations of build() for 50 vs 5 000 vertices");
    assert!(large <= 8, "{large} allocations for six blocks");
}

#[test]
fn add_edge_allocates_the_same_for_a_path_or_a_star() {
    let edges = |star: bool| {
        let mut b = GraphBuilder::new();
        b.add_vertices(5_000, |v| Label(v as u32 % 4));
        let (_, allocations) = allocations_during(|| {
            for v in 1..5_000 {
                let u = if star { 0 } else { v - 1 };
                assert!(b.add_edge(VertexId(u), VertexId(v)).unwrap());
            }
        });
        assert_eq!(b.edge_count(), 4_999);
        allocations
    };
    let (path, star) = (edges(false), edges(true));
    assert_eq!(path, star, "allocations of 4 999 edges along a path vs around a hub");
    assert!(path < 32, "{path} allocations for 4 999 edges");
}

#[test]
fn add_edge_allocates_nothing_within_a_reservation() {
    let mut b = GraphBuilder::with_capacity(5_000);
    b.add_vertices(5_000, |v| Label(v as u32 % 4));
    b.reserve_edges(4_999);
    let (_, allocations) = allocations_during(|| {
        for v in 1..5_000 {
            assert!(b.add_edge(VertexId(v - 1), VertexId(v)).unwrap());
        }
    });
    assert_eq!(allocations, 0, "allocations of 4 999 reserved edges");
}
