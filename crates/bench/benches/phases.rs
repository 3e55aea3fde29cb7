//! Per-phase query-time breakdown (DESIGN.md "Observability"): runs the
//! paper's headline engines over a deterministic query set and decomposes
//! query time into the span phases — filter, build-candidates, order,
//! enumerate, verify — plus latency percentiles from the log2 histograms.
//!
//! Writes `results/BENCH_phases.json` (hand-rolled JSON, like the kernel
//! ablation); `SQP_BENCH_SMOKE=1` shrinks the workload, asserts the coverage
//! check and discards the report, so CI never touches the recorded full run.
//! The report doubles as a coverage check: the span sum must stay within a
//! few percent of the runner-measured wall time for every engine.

mod common;

use common::smoke;

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use sqp_core::engines::engine_by_name;
use sqp_core::runner::{run_query_set, RunnerConfig};
use sqp_core::QuerySetReport;
use sqp_datagen::graphgen;
use sqp_graph::Graph;
use sqp_matching::Phase;

const ENGINES: [&str; 5] = ["Grapes", "GGSX", "CFQL", "vcGrapes", "TurboIso"];

fn workload() -> (Arc<sqp_graph::GraphDb>, Vec<Graph>) {
    let (graphs, queries) = if smoke() { (60, 10) } else { (400, 60) };
    let db = graphgen::generate(graphs, 30, 8, 2.4, 42);
    let qs = (0..queries).map(|i| common::query_from(&db, 6, i % 2 == 0, 700 + i as u64)).collect();
    (Arc::new(db), qs)
}

fn run_engine(name: &str, db: &Arc<sqp_graph::GraphDb>, queries: &[Graph]) -> QuerySetReport {
    let mut engine = engine_by_name(name).expect("engine in registry");
    engine.build(db).expect("index build");
    run_query_set(engine.as_mut(), "bench-phases", queries, RunnerConfig::default())
}

/// Hand-rolled JSON report at `results/BENCH_phases.json`.
fn write_json(reports: &[QuerySetReport]) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"phase_breakdown\",\n");
    out.push_str("  \"engines\": [\n");
    for (ri, r) in reports.iter().enumerate() {
        let totals = r.phase_totals();
        let hist = r.latency_histogram();
        let phase_ms: Vec<String> = Phase::ALL
            .iter()
            .map(|&p| format!("\"{}\": {:.3}", p.name(), totals.nanos_of(p) as f64 * 1e-6))
            .collect();
        let pq = |q: Option<u64>| q.map(|v| v as f64 * 1e-6).unwrap_or(0.0);
        out.push_str("    {\n");
        out.push_str(&format!("      \"engine\": \"{}\",\n", r.engine));
        out.push_str(&format!("      \"queries\": {},\n", r.records.len()));
        out.push_str(&format!("      \"censored\": {},\n", r.censored_count()));
        out.push_str(&format!("      \"phase_ms\": {{ {} }},\n", phase_ms.join(", ")));
        out.push_str(&format!(
            "      \"span_sum_ms\": {:.3},\n",
            totals.total_nanos() as f64 * 1e-6
        ));
        out.push_str(&format!(
            "      \"wall_ms\": {:.3},\n",
            r.uncensored_wall_nanos() as f64 * 1e-6
        ));
        out.push_str(&format!(
            "      \"latency_ms\": {{ \"p50\": {:.4}, \"p95\": {:.4}, \"p99\": {:.4} }}\n",
            pq(hist.p50()),
            pq(hist.p95()),
            pq(hist.p99()),
        ));
        out.push_str(&format!("    }}{}\n", if ri + 1 < reports.len() { "," } else { "" }));
    }
    out.push_str("  ]\n}\n");
    common::write_report("BENCH_phases.json", &out);
}

fn bench_phases(c: &mut Criterion) {
    let (db, queries) = workload();

    let reports: Vec<QuerySetReport> =
        ENGINES.iter().map(|name| run_engine(name, &db, &queries)).collect();
    println!(
        "\n{:<10} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "engine",
        "filter(ms)",
        "build(ms)",
        "order(ms)",
        "enum(ms)",
        "verify(ms)",
        "sum(ms)",
        "wall(ms)"
    );
    for r in &reports {
        let t = r.phase_totals();
        let wall = r.uncensored_wall_nanos() as f64 * 1e-6;
        let sum = t.total_nanos() as f64 * 1e-6;
        println!(
            "{:<10} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
            r.engine,
            t.nanos_of(Phase::Filter) as f64 * 1e-6,
            t.nanos_of(Phase::BuildCandidates) as f64 * 1e-6,
            t.nanos_of(Phase::Order) as f64 * 1e-6,
            t.nanos_of(Phase::Enumerate) as f64 * 1e-6,
            t.nanos_of(Phase::Verify) as f64 * 1e-6,
            sum,
            wall,
        );
        // Coverage guard: spans must account for the measured wall time.
        // (Engines with zero wall on the smoke workload are skipped.)
        if wall > 0.5 {
            let ratio = sum / wall;
            assert!(
                (0.90..=1.10).contains(&ratio),
                "{}: span sum {sum:.3}ms vs wall {wall:.3}ms (ratio {ratio:.3})",
                r.engine
            );
        }
    }
    write_json(&reports);

    // Criterion view: one measurement per engine over the full query set.
    let mut grp = c.benchmark_group("phases");
    grp.measurement_time(Duration::from_secs(1));
    for name in ENGINES {
        grp.bench_function(name, |b| b.iter(|| black_box(run_engine(name, &db, &queries))));
    }
    grp.finish();
}

criterion_group! {
    name = benches;
    config = common::fast_criterion();
    targets = bench_phases
}
criterion_main!(benches);
