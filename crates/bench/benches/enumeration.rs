//! Enumeration-kernel ablation: baseline pivot scan vs merge, gallop, SIMD
//! and adaptive intersection kernels (DESIGN.md "Enumeration kernels").
//!
//! Three workload shapes stress the kernels differently:
//!
//! * `sparse`  — AIDS-flavoured small sparse graphs; candidate lists are a
//!   handful of vertices, so this measures kernel *overhead* (the adaptive
//!   kernel must stay within a few percent of the baseline);
//! * `dense`   — larger high-degree, few-label graphs with cyclic queries;
//!   deep intersections prune most partial embeddings, which the baseline
//!   pays for with per-candidate binary searches and edge probes;
//! * `hub_heavy` — star-like graphs with a few very high-degree hubs whose
//!   adjacency intersections hit the hub-bitmap / galloping fast paths.
//!
//! Besides the criterion display, the bench writes a machine-readable
//! ablation matrix to `results/BENCH_kernels.json` (hand-rolled JSON: the
//! vendored criterion stub has no JSON reporter). `SQP_BENCH_SMOKE=1`
//! shrinks the workloads and repetitions for the CI smoke step, which asserts
//! the gate and discards the report.

mod common;

use common::smoke;

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use sqp_graph::{Graph, GraphBuilder, Label, VertexId};
use sqp_matching::graphql::GraphQl;
use sqp_matching::{CandidateSpace, Deadline, FilterResult, KernelConfig, Matcher, MatcherConfig};

/// One ablation workload: pre-filtered `(query, graph, space)` cases.
/// Filtering is kernel-independent, so it stays outside the timed region —
/// the kernels only differ inside `Matcher::enumerate`.
struct Workload {
    name: &'static str,
    cases: Vec<(Graph, Graph, CandidateSpace)>,
    /// Per-case embedding cap. Every kernel visits candidates in the same
    /// order, so time-to-limit stays an apples-to-apples comparison while
    /// bounding combinatorial blow-ups on the dense configs.
    limit: u64,
}

impl Workload {
    fn build(name: &'static str, pairs: Vec<(Graph, Graph)>, limit: u64) -> Self {
        let m = GraphQl::new();
        let mut cases = Vec::new();
        for (q, g) in pairs {
            if let FilterResult::Space(space) =
                m.filter(&q, &g, Deadline::none()).expect("filter cannot time out")
            {
                cases.push((q, g, space));
            }
        }
        assert!(!cases.is_empty(), "workload {name} filtered down to nothing");
        Self { name, cases, limit }
    }
}

/// Enumeration of a slice of cases under `kernel`; returns total embeddings.
fn enumerate_chunk(
    cases: &[(Graph, Graph, CandidateSpace)],
    kernel: KernelConfig,
    limit: u64,
) -> u64 {
    let m = GraphQl::new().with_matcher_config(MatcherConfig::with_kernel(kernel));
    let mut total = 0;
    for (q, g, space) in cases {
        total += m
            .enumerate(q, g, space, limit, Deadline::none(), &mut |_| {})
            .expect("unbudgeted enumeration cannot time out");
    }
    total
}

/// Enumeration of every case under `kernel`; returns total embeddings.
fn enumerate_all(wl: &Workload, kernel: KernelConfig) -> u64 {
    enumerate_chunk(&wl.cases, kernel, wl.limit)
}

/// Wall-clock (median of reps) for the workload fanned out over `threads`
/// OS threads, one contiguous chunk of cases each — the `threads` axis of
/// the ablation matrix.
fn measure_threads(wl: &Workload, kernel: KernelConfig, threads: usize, reps: usize) -> Duration {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let chunk = wl.cases.len().div_ceil(threads);
            for cs in wl.cases.chunks(chunk) {
                s.spawn(move || black_box(enumerate_chunk(cs, kernel, wl.limit)));
            }
        });
        times.push(t0.elapsed());
    }
    times.sort();
    times[times.len() / 2]
}

/// AIDS-flavoured sparse graphs: many small graphs, average degree ~2.4.
fn sparse_workload() -> Workload {
    let n = if smoke() { 20 } else { 100 };
    let db = sqp_datagen::graphgen::generate(n, 30, 8, 2.4, 42);
    let mut pairs = Vec::new();
    for seed in [77, 78, 79, 80, 81] {
        let q = common::query_from(&db, 6, false, seed);
        pairs.extend(db.graphs().iter().map(|g| (q.clone(), g.clone())));
    }
    Workload::build("sparse", pairs, u64::MAX)
}

/// High-degree, few-label graphs with a cyclic (BFS-carved) query: long
/// candidate lists and failing deep extensions.
fn dense_workload() -> Workload {
    let (count, v) = if smoke() { (2, 100) } else { (4, 220) };
    let db = sqp_datagen::graphgen::generate(count, v, 2, 28.0, 43);
    let q = common::query_from(&db, 8, true, 7);
    let pairs = db.graphs().iter().map(|g| (q.clone(), g.clone())).collect();
    Workload::build("dense", pairs, if smoke() { 20_000 } else { 100_000 })
}

/// A star-like graph: two label-0 hubs over a shared spoke population, with
/// a sparse ring among the spokes. Triangle-plus-pendant queries force the
/// enumerator to intersect two hub adjacencies at a non-final depth.
fn hub_graph(spokes: u32, overlap: u32) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_vertex(Label(0)); // hub A: spokes 2..2+spokes
    b.add_vertex(Label(0)); // hub B: spokes 2+spokes-overlap..2+2*spokes-overlap
    let total = 2 * spokes - overlap;
    for v in 0..total {
        b.add_vertex(Label(1 + v % 2));
    }
    let _ = b.add_edge(VertexId(0), VertexId(1));
    for v in 0..spokes {
        let _ = b.add_edge(VertexId(0), VertexId(2 + v));
    }
    for v in (spokes - overlap)..total {
        let _ = b.add_edge(VertexId(1), VertexId(2 + v));
    }
    for v in 0..total {
        let w = (v + 1) % total;
        let _ = b.add_edge(VertexId(2 + v), VertexId(2 + w));
    }
    b.build()
}

/// Query: hubA–hubB edge plus a spoke adjacent to both (a triangle through
/// the hub pair), plus a pendant on the spoke with the other spoke label.
fn hub_query() -> Graph {
    let mut b = GraphBuilder::new();
    b.add_vertex(Label(0));
    b.add_vertex(Label(0));
    b.add_vertex(Label(1));
    b.add_vertex(Label(2));
    let _ = b.add_edge(VertexId(0), VertexId(1));
    let _ = b.add_edge(VertexId(0), VertexId(2));
    let _ = b.add_edge(VertexId(1), VertexId(2));
    let _ = b.add_edge(VertexId(2), VertexId(3));
    b.build()
}

fn hub_workload() -> Workload {
    let spokes = if smoke() { 160 } else { 420 };
    let mut pairs = Vec::new();
    for i in 0..(if smoke() { 2 } else { 4 }) {
        let g = hub_graph(spokes + 16 * i, spokes / 2);
        pairs.push((hub_query(), g));
    }
    Workload::build("hub_heavy", pairs, u64::MAX)
}

/// Median-of-reps wall-clock measurement of one `(workload, kernel)` cell.
fn measure(wl: &Workload, kernel: KernelConfig, reps: usize) -> (Duration, u64) {
    let mut times = Vec::with_capacity(reps);
    let mut embeddings = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        embeddings = black_box(enumerate_all(wl, kernel));
        times.push(t0.elapsed());
    }
    times.sort();
    (times[times.len() / 2], embeddings)
}

struct Cell {
    kernel: KernelConfig,
    time: Duration,
    embeddings: u64,
}

/// `(workload, kernel, [(threads, time)])` rows for the heavyweight shapes.
type ThreadRows = Vec<(String, KernelConfig, Vec<(usize, Duration)>)>;

fn run_threads_matrix(workloads: &[Workload]) -> ThreadRows {
    let reps = if smoke() { 2 } else { 5 };
    let mut rows = Vec::new();
    for wl in workloads.iter().filter(|w| w.name != "sparse") {
        for kernel in KernelConfig::ALL {
            let cells =
                [1usize, 2, 4].iter().map(|&t| (t, measure_threads(wl, kernel, t, reps))).collect();
            rows.push((wl.name.to_string(), kernel, cells));
        }
    }
    rows
}

fn run_matrix(workloads: &[Workload]) -> Vec<(String, Vec<Cell>)> {
    let reps = if smoke() { 3 } else { 7 };
    let mut rows = Vec::new();
    for wl in workloads {
        let mut cells = Vec::new();
        for kernel in KernelConfig::ALL {
            let (time, embeddings) = measure(wl, kernel, reps);
            cells.push(Cell { kernel, time, embeddings });
        }
        // Every kernel must agree on the embedding count (I1 invariance).
        for c in &cells[1..] {
            assert_eq!(c.embeddings, cells[0].embeddings, "{}: kernel count mismatch", wl.name);
        }
        rows.push((wl.name.to_string(), cells));
    }
    rows
}

/// Hand-rolled JSON report at `results/BENCH_kernels.json`.
fn write_json(rows: &[(String, Vec<Cell>)], trows: &ThreadRows) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"enumeration_kernels\",\n");
    out.push_str("  \"workloads\": [\n");
    for (wi, (name, cells)) in rows.iter().enumerate() {
        let base = cells
            .iter()
            .find(|c| c.kernel == KernelConfig::Baseline)
            .expect("baseline cell present");
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{name}\",\n"));
        out.push_str(&format!("      \"embeddings\": {},\n", base.embeddings));
        out.push_str("      \"kernels\": [\n");
        for (ci, c) in cells.iter().enumerate() {
            let ms = c.time.as_secs_f64() * 1e3;
            let speedup = base.time.as_secs_f64() / c.time.as_secs_f64().max(1e-12);
            out.push_str(&format!(
                "        {{ \"kernel\": \"{}\", \"total_ms\": {ms:.3}, \
                 \"speedup_vs_baseline\": {speedup:.3} }}{}\n",
                c.kernel.name(),
                if ci + 1 < cells.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!("    }}{}\n", if wi + 1 < rows.len() { "," } else { "" }));
    }
    out.push_str("  ],\n");
    out.push_str("  \"threads_matrix\": [\n");
    for (ri, (name, kernel, cells)) in trows.iter().enumerate() {
        let times: Vec<String> = cells
            .iter()
            .map(|(t, d)| {
                format!("{{ \"threads\": {t}, \"total_ms\": {:.3} }}", d.as_secs_f64() * 1e3)
            })
            .collect();
        out.push_str(&format!(
            "    {{ \"workload\": \"{name}\", \"kernel\": \"{}\", \"times\": [{}] }}{}\n",
            kernel.name(),
            times.join(", "),
            if ri + 1 < trows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    common::write_report("BENCH_kernels.json", &out);
}

/// The tentpole invariant of the adaptive kernel (ISSUE 6): on the dense
/// profile `auto` must not regress below plain `merge`. A loud failure here
/// — in smoke (CI) runs as much as full runs — beats silently recording a
/// mistuned crossover in the JSON like the 32×-ratio tuning once did. The
/// 10% margin covers median-of-reps jitter, not a real regression; smoke
/// runs get 30% because their sub-millisecond workload is noise-dominated,
/// which still catches the old mistuning (auto trailed merge by ~3× there).
fn assert_auto_dominates_on_dense(rows: &[(String, Vec<Cell>)]) {
    let (_, cells) = rows.iter().find(|(n, _)| n == "dense").expect("dense workload present");
    let ms = |k: KernelConfig| {
        cells
            .iter()
            .find(|c| c.kernel == k)
            .map(|c| c.time.as_secs_f64() * 1e3)
            .expect("kernel cell present")
    };
    let auto = ms(KernelConfig::Auto);
    let merge = ms(KernelConfig::Merge);
    let margin = if smoke() { 1.30 } else { 1.10 };
    assert!(
        auto <= merge * margin,
        "REGRESSION: dense auto ({auto:.2} ms) lost to merge ({merge:.2} ms) — \
         the adaptive crossover is mistuned again"
    );
}

fn bench_enumeration(c: &mut Criterion) {
    let workloads = vec![sparse_workload(), dense_workload(), hub_workload()];

    // The ablation matrix (median of reps) drives the JSON report and the
    // printed speedup table.
    let rows = run_matrix(&workloads);
    println!(
        "\n{:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload", "baseline", "merge", "gallop", "simd", "auto"
    );
    for (name, cells) in &rows {
        let ms = |k: KernelConfig| {
            cells.iter().find(|c| c.kernel == k).map(|c| c.time.as_secs_f64() * 1e3).unwrap_or(0.0)
        };
        println!(
            "{:<12} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms",
            name,
            ms(KernelConfig::Baseline),
            ms(KernelConfig::Merge),
            ms(KernelConfig::Gallop),
            ms(KernelConfig::Simd),
            ms(KernelConfig::Auto),
        );
    }
    assert_auto_dominates_on_dense(&rows);
    let trows = run_threads_matrix(&workloads);
    println!(
        "\n{:<12} {:<10} {:>10} {:>10} {:>10}",
        "workload", "kernel", "1 thr", "2 thr", "4 thr"
    );
    for (name, kernel, cells) in &trows {
        let ms: Vec<f64> = cells.iter().map(|(_, d)| d.as_secs_f64() * 1e3).collect();
        println!(
            "{:<12} {:<10} {:>8.2}ms {:>8.2}ms {:>8.2}ms",
            name,
            kernel.name(),
            ms[0],
            ms[1],
            ms[2]
        );
    }
    write_json(&rows, &trows);

    // Criterion view of the same cells, for the usual bench output format.
    for wl in &workloads {
        let mut grp = c.benchmark_group(format!("enumeration/{}", wl.name));
        for kernel in KernelConfig::ALL {
            grp.bench_function(kernel.name(), |b| b.iter(|| black_box(enumerate_all(wl, kernel))));
        }
        grp.finish();
    }
}

criterion_group! {
    name = benches;
    config = common::fast_criterion();
    targets = bench_enumeration
}
criterion_main!(benches);
