//! Microbenchmarks of the hot substrate operations.
//!
//! Bipartite matching (GraphQL's pruning kernel), path enumeration (the
//! Grapes/GGSX indexing kernel), BFS-tree construction and 2-core
//! decomposition (CFL's preprocessing kernels), and label-restricted
//! adjacency scans (the shared enumeration kernel).

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sqp_graph::algo::{two_core, BfsTree};
use sqp_graph::nlf::nlf_dominated;
use sqp_graph::VertexId;
use sqp_index::path_enum::path_counts;
use sqp_index::BuildBudget;
use sqp_matching::bipartite::{maximum_matching, Bigraph, MatchingScratch};

fn bench_bipartite(c: &mut Criterion) {
    // A 12×12 bigraph with a dense edge pattern.
    let mut b = Bigraph::new(12, 12);
    for l in 0..12 {
        for r in 0..12 {
            if (l + r) % 3 != 0 {
                b.add_edge(l, r);
            }
        }
    }
    let mut scratch = MatchingScratch::default();
    c.bench_function("micro/bipartite_max_matching_12x12", |bch| {
        bch.iter(|| black_box(maximum_matching(&b, &mut scratch)))
    });
}

fn bench_path_enum(c: &mut Criterion) {
    let g = common::single_graph(200, 10, 8.0);
    let budget = BuildBudget::unlimited();
    c.bench_function("micro/path_counts_200v_d8", |b| {
        b.iter(|| black_box(path_counts(&g, 4, &budget).unwrap().len()))
    });
}

fn bench_graph_algos(c: &mut Criterion) {
    let g = common::single_graph(500, 10, 8.0);
    c.bench_function("micro/bfs_tree_500v", |b| {
        b.iter(|| black_box(BfsTree::build(&g, VertexId(0)).depth()))
    });
    c.bench_function("micro/two_core_500v", |b| b.iter(|| black_box(two_core(&g).len())));
}

fn bench_adjacency(c: &mut Criterion) {
    let g = common::single_graph(500, 10, 12.0);
    let l = g.label(VertexId(7));
    c.bench_function("micro/neighbors_with_label", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for v in g.vertices() {
                total += g.neighbors_with_label(v, l).len();
            }
            black_box(total)
        })
    });
    c.bench_function("micro/nlf_dominated", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for v in g.vertices().take(100) {
                for w in g.vertices().take(100) {
                    if nlf_dominated(&g, v, &g, w) {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });
}

fn bench_io(c: &mut Criterion) {
    use sqp_graph::{binio, io};
    let db = common::small_db();
    let mut text = Vec::new();
    io::write_database(&mut text, &db).unwrap();
    let bin = binio::to_bytes(&db);
    let mut g = c.benchmark_group("micro/db_load");
    g.bench_function("text", |b| {
        b.iter(|| black_box(io::read_database(text.as_slice()).unwrap().len()))
    });
    g.bench_function("binary", |b| {
        b.iter(|| black_box(binio::from_bytes(bin.clone()).unwrap().len()))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = common::fast_criterion();
    targets = bench_bipartite, bench_path_enum, bench_graph_algos, bench_adjacency, bench_io
}
criterion_main!(benches);
