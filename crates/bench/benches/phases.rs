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
//!
//! The `serving` block (PR 14) is the ladder above the matcher: µs per query
//! of one AIDS-like database (1 000 graphs) through the bare matcher loop,
//! `CfqlEngine`, `QueryPool(1)`, `QueryService` and a supervised
//! `QueryService`, each with the clock reads it pays per pruned (query,
//! graph) pair — what a layer costs is mostly how often it reads the clock.
//! Gate: the service stays within 1.25x of the engine (1.6x before PR 14).

mod common;

use common::smoke;

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use sqp_core::engines::{engine_by_name, CfqlEngine};
use sqp_core::runner::{run_query_set, RunnerConfig};
use sqp_core::{
    QueryEngine, QueryPool, QueryService, QuerySetReport, ServiceConfig, SupervisorConfig,
};
use sqp_datagen::graphgen;
use sqp_datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
use sqp_graph::Graph;
use sqp_matching::cfql::Cfql;
use sqp_matching::{Deadline, Matcher, Phase};

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

/// One rung of the serving ladder.
struct Rung {
    path: &'static str,
    /// Counted by reading the code, per pruned pair of this path: stage span
    /// 2 + matcher `Filter` span 2, plus the scan's wall-clock read every
    /// 16th graph where a budget is set.
    clock_reads_per_pruned_pair: &'static str,
    us_per_query: f64,
}

/// µs per query of the same database and queries through each layer a served
/// query crosses, one outstanding: the median over passes of a whole pass's
/// wall time divided by its queries.
fn serving_ladder() -> Vec<Rung> {
    let mut profile = sqp_datagen::aids_like();
    profile.graphs = 1_000;
    let db = Arc::new(profile.generate(42));
    let per_class = if smoke() { 10 } else { 100 };
    let sets: Vec<Vec<Graph>> = [QueryGenMethod::RandomWalk, QueryGenMethod::Bfs]
        .iter()
        .flat_map(|&method| [12, 16].map(|edges| QuerySetSpec { edges, method, count: per_class }))
        .enumerate()
        .map(|(k, spec)| generate_query_set(&db, spec, 52 + k as u64))
        .collect();
    let queries: Vec<Graph> =
        (0..per_class).flat_map(|i| sets.iter().map(move |s| s[i].clone())).collect();
    let passes = if smoke() { 3 } else { 6 };
    let measure = |run: &dyn Fn(&Graph) -> usize| -> f64 {
        let mut per_pass: Vec<f64> = (0..=passes)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let answers: usize = queries.iter().map(run).sum();
                black_box(answers);
                t0.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
            })
            .skip(1) // the first pass warms caches and scratch
            .collect();
        per_pass.sort_by(f64::total_cmp);
        per_pass[per_pass.len() / 2]
    };

    let cfql = Cfql::new();
    let matcher_loop = measure(&|q| {
        let holds = |g: &&Graph| cfql.is_subgraph(q, g, Deadline::none()).expect("no deadline");
        db.graphs().iter().filter(holds).count()
    });
    let mut engine = CfqlEngine::new();
    engine.build(&db).expect("index-free build");
    let engine = measure(&|q| engine.query(q).answers.len());
    let pool = QueryPool::new(1);
    let shared: Arc<dyn Matcher> = Arc::new(cfql);
    let pooled = measure(&|q| {
        pool.query(Arc::clone(&shared), &db, q, Deadline::none()).outcome.answers.len()
    });
    let served = |supervisor: Option<SupervisorConfig>| {
        let config = ServiceConfig { supervisor, ..Default::default() };
        let service = QueryService::new(Arc::clone(&shared), Arc::clone(&db), config);
        let us = measure(&|q| service.submit(q).0.wait().0.answers.len());
        service.shutdown();
        us
    };
    let rung = |path, clock_reads_per_pruned_pair, us_per_query| Rung {
        path,
        clock_reads_per_pruned_pair,
        us_per_query,
    };
    vec![
        rung("matcher_loop", "0", matcher_loop),
        rung("CfqlEngine", "4", engine),
        rung("QueryPool(1)", "4", pooled),
        rung("QueryService", "4 + 1/16", served(None)),
        rung("QueryService, supervised", "4 + 1/16", served(Some(SupervisorConfig::default()))),
    ]
}

/// Hand-rolled JSON report at `results/BENCH_phases.json`.
fn write_json(reports: &[QuerySetReport], serving: &[Rung]) {
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
    out.push_str("  ],\n  \"serving\": [\n");
    for (i, r) in serving.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"path\": \"{}\", \"us_per_query\": {:.1}, \"clock_reads_per_pruned_pair\": \"{}\" }}{}\n",
            r.path,
            r.us_per_query,
            r.clock_reads_per_pruned_pair,
            if i + 1 < serving.len() { "," } else { "" }
        ));
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

    let serving = serving_ladder();
    println!("\n{:<26} {:>12} {:>28}", "serving path", "us/query", "clock reads / pruned pair");
    for r in &serving {
        println!("{:<26} {:>12.1} {:>28}", r.path, r.us_per_query, r.clock_reads_per_pruned_pair);
    }
    // The serving layers guard the matcher; they must not cost a quarter of
    // it (1.6x before the clock came off the path between graphs). Gated on
    // one CPU only (CI runs this bench under `taskset -c 0`, as the
    // end-to-end benchmark pins itself): across CPUs the hand-off to the pool
    // worker wakes a halted vCPU, which costs what the host charges for it.
    let (engine, service) = (serving[1].us_per_query, serving[3].us_per_query);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus == 1 {
        assert!(
            service <= 1.25 * engine,
            "QueryService {service:.1} us/query vs CfqlEngine {engine:.1} (ratio {:.2})",
            service / engine
        );
    } else {
        println!("serving gate skipped on {cpus} CPUs (ratio {:.2}); pin to one", service / engine);
    }
    write_json(&reports, &serving);

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
