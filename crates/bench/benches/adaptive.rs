//! Adaptive-routing regret bench (DESIGN.md "Adaptive routing"): runs a
//! mixed workload — sparse, dense and hub-heavy graphs crossed with small
//! and medium query sizes — through every fixed candidate engine, fits a
//! cost model offline from those runs (censored observations at the budget
//! bound), then replays the workload through a frozen [`AdaptiveEngine`]
//! and compares its total wall time against the best single engine in
//! hindsight and the worst fixed engine.
//!
//! Writes `results/BENCH_adaptive.json`; `SQP_BENCH_SMOKE=1` shrinks the
//! workload, asserts the gates and discards the report, so CI never
//! touches the recorded full run. The report doubles as the acceptance check:
//! adaptive must land within 1.15× of the best single engine (1.5× on the
//! smoke workload) and the worst fixed engine must cost at least 1.5× the
//! adaptive run. The per-query feature-extraction + routing overhead is
//! measured too and must stay under 1% of the median query wall time.

mod common;

use common::smoke;

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use sqp_core::adaptive::{AdaptiveEngine, CostModel, FitSample, DEFAULT_CANDIDATES};
use sqp_core::engines::engine_by_name;
use sqp_core::journal::db_fingerprint;
use sqp_core::runner::{run_query_set, RunnerConfig};
use sqp_core::{QueryEngine, QuerySetReport};
use sqp_datagen::graphgen;
use sqp_graph::{Graph, GraphDb};
use sqp_matching::features::extract;
use sqp_matching::{LabelHistogram, FEATURE_DIM};

fn budget() -> Duration {
    if smoke() {
        Duration::from_millis(400)
    } else {
        Duration::from_millis(1000)
    }
}

/// Three regimes in one database: sparse AIDS-flavoured graphs, denser
/// mid-size graphs, and hub-heavy graphs where candidate sets explode.
/// Queries are carved per regime (before the databases are merged) so the
/// workload spans the filter-heavy / enumeration-heavy spectrum.
fn workload() -> (Arc<GraphDb>, Vec<Graph>) {
    let (per_regime, queries_each) = if smoke() { (20, 4) } else { (80, 10) };
    let sparse = graphgen::generate(per_regime, 30, 8, 2.4, 42);
    let dense = graphgen::generate(per_regime, 40, 10, 9.0, 43);
    let hub = graphgen::generate(per_regime, 50, 8, 14.0, 44);

    let mut queries = Vec::new();
    for (ri, regime) in [&sparse, &dense, &hub].iter().enumerate() {
        for i in 0..queries_each {
            let edges = if i % 2 == 0 { 4 } else { 8 };
            let seed = 900 + (ri * queries_each + i) as u64;
            queries.push(common::query_from(regime, edges, ri > 0, seed));
        }
    }

    let mut db = sparse;
    db.extend_from(dense);
    db.extend_from(hub);
    (Arc::new(db), queries)
}

fn run_config() -> RunnerConfig {
    RunnerConfig { query_budget: Some(budget()), ..RunnerConfig::default() }
}

fn run_fixed(name: &str, db: &Arc<GraphDb>, queries: &[Graph]) -> QuerySetReport {
    let mut engine = engine_by_name(name).expect("engine in registry");
    engine.build(db).expect("index build");
    run_query_set(engine.as_mut(), "bench-adaptive", queries, run_config())
}

/// Per-query wall nanos (censored records are pinned at the budget, so
/// totals are a lower bound on the true cost of the slow engines).
fn query_nanos(r: &QuerySetReport) -> Vec<u64> {
    r.records.iter().map(|rec| (rec.filter_time + rec.verify_time).as_nanos() as u64).collect()
}

/// Offline ridge fit from the fixed-engine runs: one model per candidate,
/// censored samples at ln(budget) where the query hit the wall.
fn fit_model(db: &GraphDb, queries: &[Graph], reports: &[QuerySetReport]) -> CostModel {
    let hist = LabelHistogram::from_db(db);
    let features: Vec<[f64; FEATURE_DIM]> =
        queries.iter().map(|q| extract(q, &hist).to_vector()).collect();
    let mut model = CostModel::cold_start(&DEFAULT_CANDIDATES, db_fingerprint(db));
    for (idx, report) in reports.iter().enumerate() {
        let samples: Vec<FitSample> = report
            .records
            .iter()
            .zip(&features)
            .map(|(rec, &x)| FitSample {
                x,
                ln_nanos: (((rec.filter_time + rec.verify_time).as_nanos() as f64).max(1.0)).ln(),
                censored: rec.status.is_timed_out() || rec.status.is_exhausted(),
            })
            .collect();
        model.fit(idx, &samples);
    }
    model
}

struct RegretReport {
    engine_totals: Vec<(String, u64, usize)>, // (name, total nanos, censored)
    adaptive_total: u64,
    adaptive_report: QuerySetReport,
    oracle_total: u64,
    overhead_nanos_per_query: f64,
    median_query_nanos: u64,
    routed: Vec<(String, u64)>,
}

fn write_json(r: &RegretReport) {
    let (best_name, best_total, _) =
        r.engine_totals.iter().min_by_key(|(_, t, _)| *t).expect("at least one engine");
    let (worst_name, worst_total, _) =
        r.engine_totals.iter().max_by_key(|(_, t, _)| *t).expect("at least one engine");
    let ms = |n: u64| n as f64 * 1e-6;
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"adaptive_regret\",\n");
    out.push_str(&format!("  \"budget_ms\": {},\n", budget().as_millis()));
    out.push_str(&format!("  \"queries\": {},\n", r.adaptive_report.records.len()));
    out.push_str("  \"engines\": [\n");
    for (i, (name, total, censored)) in r.engine_totals.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"engine\": \"{}\", \"total_ms\": {:.3}, \"censored\": {} }}{}\n",
            name,
            ms(*total),
            censored,
            if i + 1 < r.engine_totals.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"best_single\": {{ \"engine\": \"{}\", \"total_ms\": {:.3} }},\n",
        best_name,
        ms(*best_total)
    ));
    out.push_str(&format!(
        "  \"worst_fixed\": {{ \"engine\": \"{}\", \"total_ms\": {:.3} }},\n",
        worst_name,
        ms(*worst_total)
    ));
    out.push_str(&format!("  \"oracle_hindsight_ms\": {:.3},\n", ms(r.oracle_total)));
    let routed: Vec<String> = r.routed.iter().map(|(n, c)| format!("\"{n}\": {c}")).collect();
    out.push_str("  \"adaptive\": {\n");
    out.push_str(&format!("    \"total_ms\": {:.3},\n", ms(r.adaptive_total)));
    out.push_str(&format!(
        "    \"vs_best_single\": {:.4},\n",
        r.adaptive_total as f64 / *best_total as f64
    ));
    out.push_str(&format!(
        "    \"worst_over_adaptive\": {:.4},\n",
        *worst_total as f64 / r.adaptive_total as f64
    ));
    out.push_str(&format!("    \"routed\": {{ {} }}\n", routed.join(", ")));
    out.push_str("  },\n");
    out.push_str("  \"overhead\": {\n");
    out.push_str(&format!(
        "    \"route_us_per_query\": {:.4},\n",
        r.overhead_nanos_per_query * 1e-3
    ));
    out.push_str(&format!("    \"median_query_ms\": {:.4},\n", ms(r.median_query_nanos)));
    out.push_str(&format!(
        "    \"fraction_of_median\": {:.6}\n",
        r.overhead_nanos_per_query / r.median_query_nanos.max(1) as f64
    ));
    out.push_str("  }\n}\n");
    common::write_report("BENCH_adaptive.json", &out);
}

fn bench_adaptive(c: &mut Criterion) {
    let (db, queries) = workload();

    // Fixed-engine runs: the hindsight baselines and the fit corpus.
    let reports: Vec<QuerySetReport> =
        DEFAULT_CANDIDATES.iter().map(|name| run_fixed(name, &db, &queries)).collect();
    let per_query: Vec<Vec<u64>> = reports.iter().map(query_nanos).collect();
    let engine_totals: Vec<(String, u64, usize)> = DEFAULT_CANDIDATES
        .iter()
        .zip(reports.iter().zip(&per_query))
        .map(|(name, (r, nanos))| ((*name).to_string(), nanos.iter().sum(), r.censored_count()))
        .collect();
    // Per-query oracle: the unreachable lower bound of any routing policy.
    let oracle_total: u64 =
        (0..queries.len()).map(|qi| per_query.iter().map(|n| n[qi]).min().unwrap_or(0)).sum();

    let model = fit_model(&db, &queries, &reports);

    // Frozen-model determinism + persistence: the same model must make the
    // same decisions on repeat and after a JSON round trip.
    let hist = LabelHistogram::from_db(&db);
    let features: Vec<[f64; FEATURE_DIM]> =
        queries.iter().map(|q| extract(q, &hist).to_vector()).collect();
    let decisions: Vec<usize> = features.iter().map(|x| model.route(x)).collect();
    let replay: Vec<usize> = features.iter().map(|x| model.route(x)).collect();
    assert_eq!(decisions, replay, "frozen routing must be deterministic");
    let round_trip = CostModel::from_json(&model.to_json()).expect("model round trip");
    let replayed: Vec<usize> = features.iter().map(|x| round_trip.route(x)).collect();
    assert_eq!(decisions, replayed, "routing must survive JSON persistence");

    // The adaptive replay: frozen model, same workload, same budget.
    let mut adaptive = AdaptiveEngine::new();
    adaptive.set_model(model.clone()).expect("model matches candidates");
    adaptive.build(&db).expect("adaptive build");
    let adaptive_report = run_query_set(&mut adaptive, "bench-adaptive", &queries, run_config());
    let adaptive_nanos = query_nanos(&adaptive_report);
    let adaptive_total: u64 = adaptive_nanos.iter().sum();
    let stats = adaptive.routing_stats();

    // Satellite guard: feature extraction + routing must be noise next to
    // the queries it routes (<1% of the median query wall time).
    let overhead_reps = 50usize;
    let start = Instant::now();
    for _ in 0..overhead_reps {
        for q in &queries {
            black_box(model.route(&extract(black_box(q), &hist).to_vector()));
        }
    }
    let overhead_nanos_per_query =
        start.elapsed().as_nanos() as f64 / (overhead_reps * queries.len()) as f64;
    let mut sorted = adaptive_nanos.clone();
    sorted.sort_unstable();
    let median_query_nanos = sorted[sorted.len() / 2];

    let report = RegretReport {
        engine_totals,
        adaptive_total,
        adaptive_report,
        oracle_total,
        overhead_nanos_per_query,
        median_query_nanos,
        routed: stats.routed.clone(),
    };

    println!("\n{:<10} {:>12} {:>10}", "engine", "total(ms)", "censored");
    for (name, total, censored) in &report.engine_totals {
        println!("{name:<10} {:>12.3} {censored:>10}", *total as f64 * 1e-6);
    }
    println!(
        "{:<10} {:>12.3} {:>10}",
        "adaptive",
        adaptive_total as f64 * 1e-6,
        report.adaptive_report.censored_count()
    );
    println!("oracle-in-hindsight {:.3}ms", oracle_total as f64 * 1e-6);
    println!(
        "routing overhead {:.2}us/query over a {:.3}ms median query",
        overhead_nanos_per_query * 1e-3,
        median_query_nanos as f64 * 1e-6
    );

    let best_total = report.engine_totals.iter().map(|(_, t, _)| *t).min().unwrap_or(1);
    let worst_total = report.engine_totals.iter().map(|(_, t, _)| *t).max().unwrap_or(1);
    let vs_best = adaptive_total as f64 / best_total.max(1) as f64;
    // Acceptance: adaptive within 1.15x of the best single engine in
    // hindsight (1.5x on the tiny smoke workload, where per-query noise is
    // a larger share of the total), and the worst fixed engine at least
    // 1.5x slower than adaptive.
    let slack = if smoke() { 1.5 } else { 1.15 };
    assert!(
        vs_best <= slack,
        "adaptive {:.3}ms is {vs_best:.3}x the best single engine ({:.3}ms); limit {slack}x",
        adaptive_total as f64 * 1e-6,
        best_total as f64 * 1e-6,
    );
    let worst_over = worst_total as f64 / adaptive_total.max(1) as f64;
    if !smoke() {
        assert!(
            worst_over >= 1.5,
            "worst fixed engine is only {worst_over:.3}x adaptive; expected >= 1.5x"
        );
    }
    assert!(
        overhead_nanos_per_query < 0.01 * median_query_nanos as f64,
        "extraction + routing ({overhead_nanos_per_query:.0}ns) exceeds 1% of the \
         median query wall time ({median_query_nanos}ns)"
    );

    write_json(&report);

    // Criterion view: the pure routing decision (extract + argmin), the
    // per-query cost the adaptive engine adds to the serving path.
    let mut grp = c.benchmark_group("adaptive");
    grp.measurement_time(Duration::from_secs(1));
    grp.bench_function("route", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(model.route(&extract(black_box(q), &hist).to_vector()));
            }
        })
    });
    grp.finish();
}

criterion_group! {
    name = benches;
    config = common::fast_criterion();
    targets = bench_adaptive
}
criterion_main!(benches);
