//! Dynamic-graph bench (DESIGN.md "Dynamic graphs & continuous matching"):
//! three scenarios over one churning data graph.
//!
//! 1. **Update throughput** — a 1%-churn batch applied through the
//!    [`DynamicGraph`] overlay vs rebuilding the CSR through a
//!    [`GraphBuilder`] from a plain edge-set model of the graph (the cost an
//!    immutable-only engine pays per batch). The baseline shares no code
//!    with the overlay: `DynamicGraph::materialize` writes CSR arrays
//!    directly and would flatter neither side.
//! 2. **Compaction amortization** — the same stream applied with and
//!    without periodic compaction; reports the one-off compaction cost, the
//!    per-query saving it buys on the overlay read path, and the break-even
//!    query count that justifies the default policy.
//! 3. **Continuous repair** — standing queries repaired incrementally per
//!    batch vs re-run from scratch. This is the acceptance gate: repair must
//!    be at least 5x faster than full re-query on 1%-churn batches (relaxed
//!    on the smoke workload, where constant costs dominate).
//!
//! Writes `results/BENCH_dynamic.json`; `SQP_BENCH_SMOKE=1` shrinks the
//! workload, asserts the gates and discards the report, so CI never touches
//! the recorded full run.

mod common;

use common::smoke;

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use sqp_core::chaos::{StreamProfile, UpdateStreamGen};
use sqp_core::continuous::ContinuousMatcher;
use sqp_datagen::graphgen;
use sqp_graph::{CompactionPolicy, DynamicGraph, Graph, GraphBuilder, Label, Update};
use sqp_matching::dynmatch::enumerate_overlay;
use sqp_matching::Deadline;

struct Workload {
    base: Graph,
    queries: Vec<Graph>,
    /// Updates per batch: 1% of the base vertex count (the churn rate the
    /// acceptance criterion is stated at).
    ops: usize,
    batches: usize,
    threads: usize,
}

fn workload() -> Workload {
    let (vertices, batches, threads, n_queries) =
        if smoke() { (1_500, 4, 2, 2) } else { (10_000, 10, 4, 4) };
    let db = graphgen::generate(1, vertices, 10, 6.0, 71);
    let queries: Vec<Graph> =
        (0..n_queries).map(|i| common::query_from(&db, 4 + i % 3, false, 700 + i as u64)).collect();
    let base = db.graphs()[0].clone();
    Workload { base, queries, ops: vertices / 100, batches, threads }
}

/// What an engine without an overlay keeps between batches: labels,
/// liveness and the edge set, from which it rebuilds its CSR.
struct EdgeSetModel {
    labels: Vec<Label>,
    alive: Vec<bool>,
    edges: BTreeSet<(u32, u32)>,
}

impl EdgeSetModel {
    fn of(g: &Graph) -> Self {
        let edges = g
            .vertices()
            .flat_map(|u| g.neighbors(u).iter().filter(move |&&v| u < v).map(move |&v| (u.0, v.0)))
            .collect();
        Self { labels: g.labels().to_vec(), alive: vec![true; g.vertex_count()], edges }
    }

    fn apply(&mut self, batch: &[Update]) {
        for up in batch {
            match *up {
                Update::AddVertex { label } => {
                    self.labels.push(label);
                    self.alive.push(true);
                }
                Update::AddEdge { u, v } => {
                    self.edges.insert((u.0.min(v.0), u.0.max(v.0)));
                }
                Update::RemoveEdge { u, v } => {
                    self.edges.remove(&(u.0.min(v.0), u.0.max(v.0)));
                }
                Update::RemoveVertex { vertex } => {
                    self.alive[vertex.index()] = false;
                    self.edges.retain(|&(a, b)| a != vertex.0 && b != vertex.0);
                }
            }
        }
    }

    /// Live vertices densely renumbered in id order, like a compaction.
    fn rebuild(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.labels.len());
        let ids: Vec<_> = (self.labels.iter().zip(&self.alive))
            .map(|(&l, &alive)| alive.then(|| b.add_vertex(l)))
            .collect();
        for &(u, v) in &self.edges {
            let (u, v) = (ids[u as usize].expect("live"), ids[v as usize].expect("live"));
            b.add_edge(u, v).expect("model edges are simple");
        }
        b.build()
    }
}

/// Scenario 1: per-batch overlay apply vs updating an edge-set model and
/// rebuilding the CSR from it. Returns (overlay_us, rebuild_us, ops_applied).
fn bench_update_throughput(w: &Workload) -> (f64, f64, usize) {
    let mut stream = UpdateStreamGen::new(&w.base, 731, StreamProfile::Mixed);
    let mut overlay = DynamicGraph::new(w.base.clone());
    let mut model = EdgeSetModel::of(&w.base);
    let (mut overlay_us, mut rebuild_us, mut ops) = (0.0, 0.0, 0usize);
    for _ in 0..w.batches {
        let batch = stream.batch(w.ops);
        ops += batch.len();

        let t = Instant::now();
        overlay.apply_batch(&batch).expect("generated batches are valid");
        overlay_us += t.elapsed().as_secs_f64() * 1e6;

        let t = Instant::now();
        model.apply(&batch);
        let rebuilt = black_box(model.rebuild());
        rebuild_us += t.elapsed().as_secs_f64() * 1e6;

        assert_eq!(overlay.live_vertex_count(), rebuilt.vertex_count());
        assert_eq!(overlay.edge_count(), rebuilt.edge_count());
    }
    (overlay_us, rebuild_us, ops)
}

struct CompactionNumbers {
    delta_ops: usize,
    compact_us: f64,
    /// Per-query enumeration time on the dirty overlay / after compaction.
    dirty_query_us: f64,
    compacted_query_us: f64,
}

/// Scenario 2: apply the whole stream into an uncompacted overlay, then
/// measure what one compaction costs and what it buys on the read path.
/// The break-even query count (cost / per-query saving) is the measured
/// amortization threshold the default [`CompactionPolicy`] encodes.
fn bench_compaction(w: &Workload) -> CompactionNumbers {
    let reps = if smoke() { 2 } else { 4 };
    let mut stream = UpdateStreamGen::new(&w.base, 733, StreamProfile::Mixed);
    let mut g = DynamicGraph::new(w.base.clone());
    for _ in 0..w.batches {
        g.apply_batch(&stream.batch(w.ops)).expect("generated batches are valid");
    }
    let delta_ops = g.delta_ops();

    let time_queries = |g: &DynamicGraph| -> (f64, usize) {
        let mut found = 0;
        let t = Instant::now();
        for _ in 0..reps {
            for q in &w.queries {
                found = black_box(enumerate_overlay(q, g, Deadline::none()))
                    .expect("no deadline")
                    .len();
            }
        }
        (t.elapsed().as_secs_f64() * 1e6 / (reps * w.queries.len()) as f64, found)
    };

    let (dirty_query_us, dirty_found) = time_queries(&g);
    let t = Instant::now();
    g.compact();
    let compact_us = t.elapsed().as_secs_f64() * 1e6;
    assert_eq!(g.compactions(), 1);
    assert_eq!(g.delta_ops(), 0, "compaction must drain the delta");
    let (compacted_query_us, compacted_found) = time_queries(&g);
    // Compaction renumbers vertices but must not change the answer set size.
    assert_eq!(dirty_found, compacted_found, "compaction changed a query answer");

    CompactionNumbers { delta_ops, compact_us, dirty_query_us, compacted_query_us }
}

struct RepairRun {
    /// apply_batch with standing queries registered (apply + repair).
    apply_repair_us: f64,
    /// apply_batch on a control matcher with no standing queries: the pure
    /// overlay-apply cost both serving strategies pay before answering.
    apply_us: f64,
    requery_us: f64,
    batches: usize,
    added: u64,
    removed: u64,
}

impl RepairRun {
    /// Pure incremental-repair cost: apply+repair minus the apply baseline.
    fn repair_us(&self) -> f64 {
        (self.apply_repair_us - self.apply_us).max(1.0)
    }

    /// Each timing at its least over two passes of the same stream.
    fn least(self, other: Self) -> Self {
        Self {
            apply_repair_us: self.apply_repair_us.min(other.apply_repair_us),
            apply_us: self.apply_us.min(other.apply_us),
            requery_us: self.requery_us.min(other.requery_us),
            ..self
        }
    }
}

/// Scenario 3: standing queries repaired per batch (parallel repair path,
/// the one the service uses) vs full re-query of every standing query.
/// A control matcher with *no* standing queries applies the same stream so
/// the overlay-apply cost — paid identically by both serving strategies —
/// can be subtracted out. I10 is asserted at every boundary, so the
/// speedup is over an *equal* answer, not an approximate one.
///
/// A pass is ten batches — a few milliseconds, from which the gate takes a
/// difference and a ratio — so one preemption inside it decides the ratio
/// (one full run in three read 2.4x on a host where the others read 5.3x and
/// 5.5x). The stream is deterministic, so the pass is repeated and each of
/// the three timings is its least over the passes: what the code costs when
/// nothing interrupts it.
fn bench_repair(w: &Workload) -> RepairRun {
    let first = repair_pass(w, true);
    (1..7).map(|_| repair_pass(w, false)).fold(first, RepairRun::least)
}

fn repair_pass(w: &Workload, print_sets: bool) -> RepairRun {
    let mut matcher = ContinuousMatcher::new(w.base.clone(), CompactionPolicy::never());
    let mut control = ContinuousMatcher::new(w.base.clone(), CompactionPolicy::never());
    let ids: Vec<u64> = w
        .queries
        .iter()
        .map(|q| matcher.register(q.clone(), Deadline::none()).expect("register"))
        .collect();
    let mut stream = UpdateStreamGen::new(&w.base, 737, StreamProfile::Mixed);
    let mut run = RepairRun {
        apply_repair_us: 0.0,
        apply_us: 0.0,
        requery_us: 0.0,
        batches: w.batches,
        added: 0,
        removed: 0,
    };
    for _ in 0..w.batches {
        let batch = stream.batch(w.ops);

        let t = Instant::now();
        let report = matcher.apply_batch(&batch, w.threads, Deadline::none()).expect("repair");
        run.apply_repair_us += t.elapsed().as_secs_f64() * 1e6;
        run.added += report.total_added() as u64;
        run.removed += report.total_removed() as u64;

        let t = Instant::now();
        control.apply_batch(&batch, w.threads, Deadline::none()).expect("apply");
        run.apply_us += t.elapsed().as_secs_f64() * 1e6;

        let t = Instant::now();
        let full: Vec<_> = w
            .queries
            .iter()
            .map(|q| control.query(q, Deadline::none()).expect("re-query"))
            .collect();
        run.requery_us += t.elapsed().as_secs_f64() * 1e6;

        for (id, fresh) in ids.iter().zip(&full) {
            assert_eq!(
                matcher.embeddings(*id).unwrap_or(&[]),
                fresh.as_slice(),
                "I10 violated: repaired set != recomputed set"
            );
        }
    }
    if print_sets {
        for (qi, id) in ids.iter().enumerate() {
            println!(
                "  standing query {qi}: {} edges, {} embeddings",
                w.queries[qi].edge_count(),
                matcher.embeddings(*id).map_or(0, <[_]>::len)
            );
        }
    }
    run
}

fn write_json(
    w: &Workload,
    throughput: &(f64, f64, usize),
    compaction: &CompactionNumbers,
    repair: &RepairRun,
) {
    let (overlay_us, rebuild_us, ops) = *throughput;
    let saved_per_query_us = compaction.dirty_query_us - compaction.compacted_query_us;
    let break_even = if saved_per_query_us > 0.0 {
        (compaction.compact_us / saved_per_query_us).ceil()
    } else {
        f64::INFINITY
    };
    let speedup = repair.requery_us / repair.repair_us();

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"dynamic\",\n");
    out.push_str(&format!(
        "  \"workload\": {{ \"vertices\": {}, \"edges\": {}, \"batches\": {}, \
         \"ops_per_batch\": {}, \"churn\": 0.01, \"standing_queries\": {}, \"threads\": {} }},\n",
        w.base.vertex_count(),
        w.base.edge_count(),
        w.batches,
        w.ops,
        w.queries.len(),
        w.threads
    ));
    out.push_str("  \"update_throughput\": {\n");
    out.push_str(&format!("    \"ops\": {ops},\n"));
    out.push_str(&format!("    \"overlay_us_per_op\": {:.3},\n", overlay_us / ops as f64));
    out.push_str(&format!("    \"rebuild_us_per_op\": {:.3},\n", rebuild_us / ops as f64));
    out.push_str(&format!("    \"overlay_speedup\": {:.2}\n", rebuild_us / overlay_us.max(1.0)));
    out.push_str("  },\n");
    out.push_str("  \"compaction\": {\n");
    out.push_str(&format!("    \"delta_ops\": {},\n", compaction.delta_ops));
    out.push_str(&format!("    \"compact_cost_us\": {:.0},\n", compaction.compact_us));
    out.push_str(&format!("    \"query_us_overlay_only\": {:.0},\n", compaction.dirty_query_us));
    out.push_str(&format!("    \"query_us_compacted\": {:.0},\n", compaction.compacted_query_us));
    out.push_str(&format!("    \"saved_per_query_us\": {saved_per_query_us:.1},\n"));
    if break_even.is_finite() {
        out.push_str(&format!("    \"break_even_queries\": {break_even:.0}\n"));
    } else {
        out.push_str("    \"break_even_queries\": null\n");
    }
    out.push_str("  },\n");
    out.push_str("  \"continuous_repair\": {\n");
    out.push_str(&format!("    \"batches\": {},\n", repair.batches));
    out.push_str(&format!(
        "    \"apply_us_per_batch\": {:.0},\n",
        repair.apply_us / repair.batches as f64
    ));
    out.push_str(&format!(
        "    \"repair_us_per_batch\": {:.0},\n",
        repair.repair_us() / repair.batches as f64
    ));
    out.push_str(&format!(
        "    \"requery_us_per_batch\": {:.0},\n",
        repair.requery_us / repair.batches as f64
    ));
    out.push_str(&format!("    \"embeddings_added\": {},\n", repair.added));
    out.push_str(&format!("    \"embeddings_removed\": {},\n", repair.removed));
    out.push_str(&format!("    \"repair_speedup\": {speedup:.2}\n"));
    out.push_str("  }\n}\n");
    common::write_report("BENCH_dynamic.json", &out);
}

fn bench_dynamic(c: &mut Criterion) {
    let w = workload();

    let throughput = bench_update_throughput(&w);
    println!(
        "update throughput: overlay {:.2} us/op vs rebuild {:.2} us/op ({:.1}x)",
        throughput.0 / throughput.2 as f64,
        throughput.1 / throughput.2 as f64,
        throughput.1 / throughput.0.max(1.0)
    );

    let compaction = bench_compaction(&w);
    println!(
        "compaction: {} delta ops drained in {:.0} us, query {:.0} -> {:.0} us",
        compaction.delta_ops,
        compaction.compact_us,
        compaction.dirty_query_us,
        compaction.compacted_query_us,
    );

    let repair = bench_repair(&w);
    let speedup = repair.requery_us / repair.repair_us();
    println!(
        "continuous repair: apply {:.0} us/batch, repair {:.0} us/batch vs \
         re-query {:.0} us/batch ({speedup:.1}x)",
        repair.apply_us / repair.batches as f64,
        repair.repair_us() / repair.batches as f64,
        repair.requery_us / repair.batches as f64,
    );

    // Acceptance: incremental repair at least 5x faster than full re-query
    // on 1%-churn batches (1.2x on the tiny smoke workload, where the
    // per-batch overlay bookkeeping dominates the saved enumeration work).
    let floor = if smoke() { 1.2 } else { 5.0 };
    assert!(
        speedup >= floor,
        "continuous repair is only {speedup:.2}x faster than re-query; floor {floor}x"
    );
    assert!(
        throughput.1 > throughput.0,
        "overlay apply must beat rebuild-per-batch on every workload"
    );

    write_json(&w, &throughput, &compaction, &repair);

    // Criterion view: one 1%-churn batch through the overlay — the hot
    // serving-path cost of an update.
    let mut stream = UpdateStreamGen::new(&w.base, 739, StreamProfile::Mixed);
    let overlay = {
        let mut g = DynamicGraph::new(w.base.clone());
        g.apply_batch(&stream.batch(w.ops)).expect("warm-up batch");
        g
    };
    let batch = stream.batch(w.ops);
    let mut grp = c.benchmark_group("dynamic");
    grp.bench_function("apply_1pct_batch", |b| {
        b.iter(|| {
            let mut g = overlay.clone();
            g.apply_batch(black_box(&batch)).expect("valid batch");
            g
        })
    });
    grp.finish();
}

criterion_group! {
    name = benches;
    config = common::fast_criterion();
    targets = bench_dynamic
}
criterion_main!(benches);
