//! Per-phase query-time breakdown (DESIGN.md "Observability"): runs the
//! paper's headline engines over a deterministic query set and decomposes
//! query time into the span phases — filter, build-candidates, order,
//! enumerate, verify — plus latency percentiles from the log2 histograms.
//!
//! Writes `results/BENCH_phases.json` (hand-rolled JSON, like the kernel
//! ablation); `SQP_BENCH_SMOKE=1` shrinks the workload, asserts the coverage
//! check and discards the report, so CI never touches the recorded full run.
//! The report doubles as a coverage check: the span sum must stay within a
//! few percent of the runner-measured wall time (Σ record times) for every
//! engine. Each engine row also carries `elapsed_ms`, the median wall clock
//! of the whole query set on a built engine — the figure to compare engines
//! by, since a vcFV record's time also covers its scan's own loop.
//!
//! The `serving` block (PR 14) is the ladder above the matcher: µs per query
//! of one AIDS-like database (1 000 graphs) through the bare matcher loop,
//! `CfqlEngine`, `QueryPool(1)`, `QueryService` and a supervised
//! `QueryService` — what a layer costs is mostly how often it reads the
//! clock, so the rung that takes a caller's sink (`QueryPool`) is run once
//! more over a counting span clock: reads ÷ (query, graph) pairs. The engine
//! and the services own their sinks and run the same `scan`; their exact
//! counts are asserted in `sqp-core`'s tests.
//! Gate: on one CPU the serving layers — `QueryService` minus `CfqlEngine` —
//! cost at most 40 µs a query (the ratio is printed beside it).

mod common;

use common::smoke;

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
use sqp_matching::{Deadline, ExecCtx, Matcher, Phase};

const ENGINES: [&str; 4] = ["Grapes", "GGSX", "CFQL", "vcGrapes"];

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

/// One engine's recorded run and the median wall clock, in ms, of running
/// the whole query set on the built engine (after a warm-up run).
fn time_engine(
    name: &str,
    db: &Arc<sqp_graph::GraphDb>,
    queries: &[Graph],
) -> (QuerySetReport, f64) {
    let mut engine = engine_by_name(name).expect("engine in registry");
    engine.build(db).expect("index build");
    let mut run =
        || run_query_set(engine.as_mut(), "bench-phases", queries, RunnerConfig::default());
    let mut report = run();
    let mut walls = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        report = run();
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    walls.sort_by(f64::total_cmp);
    (report, walls[walls.len() / 2])
}

/// One rung of the serving ladder.
struct Rung {
    path: &'static str,
    /// Span-clock reads ÷ (query, graph) pairs over one pass, counted by a
    /// counting [`ExecCtx::with_clock`]: 1 per pruned pair, 6 on the
    /// ~0.1 % that survive the filter, 1 per scan. `None` where the path
    /// takes no caller's sink (the matcher loop runs without one — inert
    /// spans, no reads; the engine and the services own theirs).
    span_clock_reads_per_pair: Option<f64>,
    us_per_query: f64,
}

static SPAN_CLOCK_READS: AtomicU64 = AtomicU64::new(0);

/// A span clock that counts its reads.
fn counting_clock() -> u64 {
    SPAN_CLOCK_READS.fetch_add(1, Ordering::Relaxed)
}

/// µs per query of the same database and queries through each layer a served
/// query crosses, one outstanding: per rung, the median over passes of a
/// whole pass's wall time divided by its queries. The passes interleave —
/// each times every rung once — so one of the host's loud spells lands on all
/// five rungs of a pass alike and the service − engine gate compares like
/// with like.
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

    let cfql = Cfql::new();
    let mut engine = CfqlEngine::new();
    engine.build(&db).expect("index-free build");
    let pool = QueryPool::new(1);
    let shared: Arc<dyn Matcher> = Arc::new(cfql);
    let pool_query = |q: &Graph, deadline: Deadline| {
        pool.query(Arc::clone(&shared), &db, q, deadline).outcome.answers.len()
    };
    let service = |supervisor: Option<SupervisorConfig>| {
        let config = ServiceConfig { supervisor, ..Default::default() };
        QueryService::new(Arc::clone(&shared), Arc::clone(&db), config)
    };
    let (plain, supervised) = (service(None), service(Some(SupervisorConfig::default())));
    let served = |service: &QueryService, q: &Graph| service.submit(q).0.wait().0.answers.len();
    // The counted pass: the pool rung once over a counting span clock.
    let counted = Deadline::none().with_ctx(ExecCtx::with_clock(counting_clock));
    let answers: usize = queries.iter().map(|q| pool_query(q, counted)).sum();
    black_box(answers);
    let pooled_reads =
        SPAN_CLOCK_READS.load(Ordering::Relaxed) as f64 / (queries.len() * db.len()) as f64;
    type Run<'a> = &'a dyn Fn(&Graph) -> usize;
    let rungs: [(&str, Option<f64>, Run); 5] = [
        ("matcher_loop", None, &|q| {
            let holds = |g: &&Graph| cfql.is_subgraph(q, g, Deadline::none()).expect("no deadline");
            db.graphs().iter().filter(holds).count()
        }),
        ("CfqlEngine", None, &|q| engine.query(q).answers.len()),
        ("QueryPool(1)", Some(pooled_reads), &|q| pool_query(q, Deadline::none())),
        ("QueryService", None, &|q| served(&plain, q)),
        ("QueryService, supervised", None, &|q| served(&supervised, q)),
    ];

    // A smoke pass is 40 queries (~6 ms a rung), a full one 400.
    let passes = if smoke() { 15 } else { 6 };
    let mut per_rung = vec![Vec::with_capacity(passes); rungs.len()];
    for pass in 0..=passes {
        for ((_, _, run), samples) in rungs.iter().zip(&mut per_rung) {
            let t0 = Instant::now();
            let answers: usize = queries.iter().map(run).sum();
            black_box(answers);
            if pass > 0 {
                // (the first pass warms caches and scratch)
                samples.push(t0.elapsed().as_secs_f64() * 1e6 / queries.len() as f64);
            }
        }
    }

    let ladder = rungs
        .iter()
        .zip(&mut per_rung)
        .map(|(&(path, span_clock_reads_per_pair, _), samples)| {
            samples.sort_by(f64::total_cmp);
            Rung { path, span_clock_reads_per_pair, us_per_query: samples[samples.len() / 2] }
        })
        .collect();
    plain.shutdown();
    supervised.shutdown();
    ladder
}

/// Hand-rolled JSON report at `results/BENCH_phases.json`.
fn write_json(reports: &[(QuerySetReport, f64)], serving: &[Rung]) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"phase_breakdown\",\n");
    out.push_str("  \"engines\": [\n");
    for (ri, (r, elapsed_ms)) in reports.iter().enumerate() {
        let rolled = r.totals();
        let (totals, hist) = (&rolled.phases, &rolled.latency);
        let phase_ms: Vec<String> = Phase::ALL
            .iter()
            .map(|&p| format!("\"{}\": {:.3}", p.name(), totals.nanos_of(p) as f64 * 1e-6))
            .collect();
        let pq = |q: Option<u64>| q.map(|v| v as f64 * 1e-6).unwrap_or(0.0);
        out.push_str("    {\n");
        out.push_str(&format!("      \"engine\": \"{}\",\n", r.engine));
        out.push_str(&format!("      \"queries\": {},\n", r.records.len()));
        out.push_str(&format!("      \"censored\": {},\n", rolled.censored));
        out.push_str(&format!("      \"phase_ms\": {{ {} }},\n", phase_ms.join(", ")));
        out.push_str(&format!(
            "      \"span_sum_ms\": {:.3},\n",
            totals.total_nanos() as f64 * 1e-6
        ));
        out.push_str(&format!("      \"wall_ms\": {:.3},\n", rolled.wall_nanos as f64 * 1e-6));
        out.push_str(&format!("      \"elapsed_ms\": {elapsed_ms:.3},\n"));
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
            "    {{ \"path\": \"{}\", \"us_per_query\": {:.1}, \"span_clock_reads_per_pair\": {} }}{}\n",
            r.path,
            r.us_per_query,
            r.span_clock_reads_per_pair.map_or("null".to_string(), |n| format!("{n:.3}")),
            if i + 1 < serving.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    common::write_report("BENCH_phases.json", &out);
}

fn bench_phases(c: &mut Criterion) {
    let (db, queries) = workload();

    let reports: Vec<(QuerySetReport, f64)> =
        ENGINES.iter().map(|name| time_engine(name, &db, &queries)).collect();
    println!(
        "\n{:<10} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>12}",
        "engine",
        "filter(ms)",
        "build(ms)",
        "order(ms)",
        "enum(ms)",
        "verify(ms)",
        "sum(ms)",
        "wall(ms)",
        "elapsed(ms)"
    );
    for (r, elapsed) in &reports {
        let rolled = r.totals();
        let t = &rolled.phases;
        let wall = rolled.wall_nanos as f64 * 1e-6;
        let sum = t.total_nanos() as f64 * 1e-6;
        println!(
            "{:<10} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>12.3}",
            r.engine,
            t.nanos_of(Phase::Filter) as f64 * 1e-6,
            t.nanos_of(Phase::BuildCandidates) as f64 * 1e-6,
            t.nanos_of(Phase::Order) as f64 * 1e-6,
            t.nanos_of(Phase::Enumerate) as f64 * 1e-6,
            t.nanos_of(Phase::Verify) as f64 * 1e-6,
            sum,
            wall,
            elapsed,
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
    println!("\n{:<26} {:>12} {:>24}", "serving path", "us/query", "span clock reads / pair");
    for r in &serving {
        let reads = r.span_clock_reads_per_pair.map_or("-".to_string(), |n| format!("{n:.3}"));
        println!("{:<26} {:>12.1} {:>24}", r.path, r.us_per_query, reads);
    }
    // A pruned pair reads the clock once, at its lap switch; a pair that
    // reaches enumeration six times; each scan once more.
    let reads = serving.iter().find_map(|r| r.span_clock_reads_per_pair).expect("a counted rung");
    assert!((1.0..1.1).contains(&reads), "{reads:.3} span clock reads per pair");
    // The serving layers' own cost — admission, the executor and the pool
    // hand-offs, 17–33 µs a query when measured — stated in µs, not as a
    // ratio of an engine that keeps getting cheaper. Gated on one CPU only
    // (CI runs this bench under `taskset -c 0`, as the end-to-end benchmark
    // pins itself): across CPUs the hand-off to the pool worker wakes a
    // halted vCPU, which costs what the host charges for it.
    let (engine, service) = (serving[1].us_per_query, serving[3].us_per_query);
    let layers = service - engine;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "serving layers: {layers:.1} us/query (QueryService / CfqlEngine {:.2}x)",
        service / engine
    );
    if cpus == 1 {
        assert!(
            layers <= 40.0,
            "QueryService {service:.1} us/query vs CfqlEngine {engine:.1}: layers {layers:.1} us"
        );
    } else {
        println!("serving gate skipped on {cpus} CPUs; pin to one");
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
