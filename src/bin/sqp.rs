//! `sqp` — command-line front end for the subgraph-query library.
//!
//! ```text
//! sqp stats    --db <file>
//! sqp generate --kind <synthetic|aids|pdbs|pcm|ppi> [--graphs N] [--vertices N]
//!              [--labels N] [--degree F] [--seed N] --out <file>
//! sqp queries  --db <file> --edges N [--count N] [--dense] [--seed N] --out <file>
//! sqp query    --db <file> --queries <file> [--engine <name>] [--budget-ms N]
//!              [--threads N] [--retries N] [--max-steps N] [--metrics-out <file>]
//!              [--max-inflight N] [--shed] [--breaker-threshold N]
//!              [--breaker-cooldown N] [--chaos-panics PM] [--chaos-seed N]
//!              [--drain-after-ms N] [--journal <file>] [--resume]
//!              [--supervise] [--chaos-slow-ms N]
//! sqp compare  --db <file> --queries <file> [--engines a,b,c] [--budget-ms N]
//!              [--phases]
//! sqp match    --db <file> --queries <file> [--limit N]
//! sqp index    --db <file> --kind <grapes|ggsx|ct-index>
//! sqp serve    --db <file> --shards addr1,addr2,... [--listen ADDR]
//!              [--metrics-addr ADDR] [--budget-ms N] [--retries N]
//!              [--scatter-threads N] [--breaker-threshold N]
//!              [--breaker-cooldown N]
//! sqp client   --db <file> --queries <file> --addr ADDR [--budget-ms N]
//! sqp update   --db <file> (--updates <file> | --watch) [--graph N]
//!              [--queries <file>] [--threads N] [--budget-ms N]
//!              [--compact-min N] [--compact-ratio F] [--out <file>]
//!              [--metrics-out <file>]
//! ```
//!
//! This file is argument handling and reporting: every subcommand declares
//! the flags it accepts in [`COMMANDS`] (anything else is rejected, so a
//! misspelt flag cannot silently run with a default), and `query` selects
//! the one [`QueryEngine`] `--engine` names — sequential, or (`--threads N`
//! / `--supervise`) its vcFV matcher on a persistent
//! [`QueryPool`](subgraph_query::core::parallel::QueryPool) behind
//! [`ParallelEngine`] — and hands it to the library's one runner loop.
//! Neither end of the wire protocol lives here: `serve` starts the
//! library's one [`WireServer`] as the coordinator front (the same server
//! `sqp-shard` starts as a shard worker) and `client` drives the library's
//! one [`WireClient`] (the same client the coordinator holds per shard).
//!
//! Databases and queries use the standard `t # / v / e` text format; paths
//! ending in `.bin` use the compact binary format of `sqp_graph::binio`.

mod cli;

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use subgraph_query::core::collection::CollectionMatcher;
use subgraph_query::core::engines::{engine_by_name, engine_names, matcher_by_name};
use subgraph_query::core::prelude::*;
use subgraph_query::datagen::graphgen::GraphGenConfig;
use subgraph_query::datagen::profiles;
use subgraph_query::datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
use subgraph_query::datagen::GraphGen;
use subgraph_query::graph::heap_size::format_mb;
use subgraph_query::graph::{binio, io, GraphDb, HeapSize};
use subgraph_query::graph::{
    CompactionPolicy, Label as GraphLabel, Update as GraphUpdate, VertexId as GraphVertexId,
};
use subgraph_query::index::{
    BuildBudget, CtIndexConfig, FingerprintIndex, GgsxIndex, GrapesConfig, GraphIndex,
    PathTrieIndex,
};
use subgraph_query::matching::cfql::Cfql;
use subgraph_query::matching::Deadline;

use cli::{
    apply_chaos_slow, breaker_from_opts, drain_line, drain_requested, install_drain_handler,
    load_db, load_queries, query_line, serve_until_interrupted, Opts,
};

const HELP: &str = "\
sqp — subgraph query processing toolkit

USAGE:
  sqp stats    --db <file>
  sqp generate --kind <synthetic|aids|pdbs|pcm|ppi> [--graphs N] [--vertices N]
               [--labels N] [--degree F] [--seed N] --out <file>
  sqp queries  --db <file> --edges N [--count N] [--dense] [--seed N] --out <file>
  sqp query    --db <file> --queries <file> [--engine <name>] [--budget-ms N]
               [--threads N] [--retries N] [--max-steps N] [--metrics-out <file>]
               [--journal <file>] [--resume] [--supervise] [--chaos-slow-ms N]
  sqp compare  --db <file> --queries <file> [--engines a,b,c] [--budget-ms N]
               [--phases]
  sqp match    --db <file> --queries <file> [--limit N]
  sqp index    --db <file> --kind <grapes|ggsx|ct-index>
  sqp serve    --db <file> --shards addr1,addr2,... [--listen ADDR]
               [--metrics-addr ADDR] [--budget-ms N] [--retries N]
               [--scatter-threads N] [--breaker-threshold N]
               [--breaker-cooldown N]
  sqp client   --db <file> --queries <file> --addr ADDR [--budget-ms N]
  sqp update   --db <file> (--updates <file> | --watch) [--graph N]
               [--queries <file>] [--threads N] [--budget-ms N]
               [--compact-min N] [--compact-ratio F] [--out <file>]
               [--metrics-out <file>]

Engines: {ENGINES} (default: CFQL)
--threads N > 1 runs the engine's matcher on a persistent worker pool
(vcFV engines only: {MATCHERS})
--retries N retries queries that panic inside the engine up to N times
--max-steps N bounds enumeration steps per query (0 = unlimited); a blown
budget is reported as EXHAUSTED, not as a timeout
--metrics-out FILE writes the run's metrics (latency and per-phase
histograms, status counts, kernel counters, service health when in service
mode) in the Prometheus text exposition format
compare --phases appends a per-engine phase breakdown table (filter /
build-candidates / order / enumerate / verify, plus span sum vs wall time)
over uncensored queries; timed-out and shed queries are reported in the
censored column instead of skewing the phase times

Service mode (any of the flags below turns it on for `query`): the set is
submitted as one burst to an admission-controlled service with per-graph
circuit breakers; rejected queries are reported SHED, graphs quarantined
by a tripped breaker QUARANTINED.
  --max-inflight N       bound on admitted-but-unfinished queries (default 64)
  --shed                 shed queries whose predicted wait exceeds the budget
  --breaker-threshold N  consecutive faults before a graph's breaker trips
  --breaker-cooldown N   queries to wait before half-open probing (default 4)
  --chaos-panics PM      inject panics on PM per-mille of (query,graph) pairs
  --chaos-seed N         seed for fault injection (default 42)
  --drain-after-ms N     start a graceful drain N ms after submission
SIGINT (Ctrl-C) starts a graceful drain instead of killing the run; a
second Ctrl-C kills the process (the handler resets itself to default).

Supervision & recovery:
  --supervise         run pooled workers (vcFV engines, as --threads) under
                      the heartbeat supervisor: a query wedged past its
                      deadline + grace is cancelled, marked WEDGED, and its
                      worker thread is abandoned + replaced
  --journal FILE      append a checksummed record per finished query to FILE
  --resume            replay FILE first and re-run only incomplete queries
  --chaos-slow-ms N   slow every matcher filter call by N ms (CI/chaos use)

Distributed serving (see sqp-shard for the per-shard worker):
  sqp serve runs the scatter-gather coordinator: it hash-places the
  database over the shard addresses (in order), routes each client query
  to every shard with the remaining budget attached, and merges streamed
  partial answers. A dead, slow, or corrupting shard degrades its graphs
  to UNAVAILABLE in a *partial* result instead of failing the query; a
  per-peer circuit breaker skips it while it stays sick.
  --listen ADDR           client-facing wire address (default 127.0.0.1:0)
  --metrics-addr ADDR     serve the Prometheus exposition at /metrics
  --scatter-threads N     concurrent shard requests per query (default 4)
  sqp client sends a query set to a coordinator and prints results like
  `sqp query` does (exit 2 when any graph came back degraded).

Dynamic graphs (`sqp update`): applies an update stream to database graph
--graph N (default 0) through the mutable overlay, with batch-atomic
validation, policy-driven CSR compaction (--compact-min ops and
--compact-ratio of base edges, whichever is larger), and continuous-query
repair of the --queries standing set per batch (deltas are printed as
+/- embedding lines). The stream format is one op per line: `av <label>`,
`ae <u> <v>`, `re <u> <v>`, `rv <v>`; `--` ends a batch, `#` comments,
`query <id>` serves a one-shot snapshot read of a standing query, and
`quit` ends a --watch session (which reads the stream from stdin).
--out saves the final compacted database; --metrics-out writes the
sqp_updates_applied_total / sqp_compactions_total /
sqp_continuous_repairs_total counter families. A malformed batch is
rejected atomically and exits 1; a repair timeout degrades to exit 2.

Exit codes: 0 success (timeouts included), 2 degraded (a query panicked,
exhausted its resource budget, was shed, wedged, unavailable on a dead
shard, or hit quarantined graphs), 1 usage or I/O error";

/// The usage text, with the engine lists read from the registry.
fn help() -> String {
    let names: Vec<&str> = engine_names().collect();
    let lines: Vec<String> = names.chunks(8).map(|c| c.join(" ")).collect();
    let matchers: Vec<&str> =
        names.iter().copied().filter(|n| matcher_by_name(n).is_some()).collect();
    HELP.replace("{ENGINES}", &lines.join("\n         ")).replace("{MATCHERS}", &matchers.join(" "))
}

fn save_db(db: &GraphDb, path: &str) -> Result<(), String> {
    if path.ends_with(".bin") {
        // Atomic temp-file + fsync + rename write: a crash mid-save never
        // leaves a torn database behind.
        return binio::write_file(db, std::path::Path::new(path))
            .map_err(|e| format!("cannot write {path}: {e}"));
    }
    let f = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = BufWriter::new(f);
    io::write_database(&mut w, db).map_err(|e| e.to_string())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let db = load_db(opts.require("db")?)?;
    let s = db.stats();
    println!("#graphs              {}", s.graphs);
    println!("#labels              {}", s.labels);
    println!("#vertices per graph  {:.1}", s.avg_vertices);
    println!("#edges per graph     {:.2}", s.avg_edges);
    println!("degree per graph     {:.2}", s.avg_degree);
    println!("#labels per graph    {:.1}", s.avg_labels);
    println!("resident size        {} MB", format_mb(db.heap_size()));
    Ok(())
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let kind = opts.require("kind")?;
    let seed: u64 = opts.num("seed", 42u64)?;
    let db = match kind {
        "synthetic" => {
            let config = GraphGenConfig {
                graphs: opts.num("graphs", 1000usize)?,
                vertices: opts.num("vertices", 200usize)?,
                labels: opts.num("labels", 20usize)?,
                degree: opts.num("degree", 8.0f64)?,
                seed,
            };
            GraphGen::new(config).generate()
        }
        "aids" | "pdbs" | "pcm" | "ppi" => {
            let mut p = match kind {
                "aids" => profiles::aids_like(),
                "pdbs" => profiles::pdbs_like(),
                "pcm" => profiles::pcm_like(),
                _ => profiles::ppi_like(),
            };
            if let Some(g) = opts.get("graphs") {
                p.graphs = g.parse().map_err(|_| "invalid --graphs")?;
            }
            if let Some(v) = opts.get("vertices") {
                p.avg_vertices = v.parse().map_err(|_| "invalid --vertices")?;
            }
            p.generate(seed)
        }
        other => return Err(format!("unknown --kind '{other}'")),
    };
    let out = opts.require("out")?;
    save_db(&db, out)?;
    println!("wrote {} graphs to {out}", db.len());
    Ok(())
}

fn cmd_queries(opts: &Opts) -> Result<(), String> {
    let db = load_db(opts.require("db")?)?;
    let spec = QuerySetSpec {
        edges: opts.num("edges", 8usize)?,
        method: if opts.has("dense") { QueryGenMethod::Bfs } else { QueryGenMethod::RandomWalk },
        count: opts.num("count", 100usize)?,
    };
    let queries = generate_query_set(&db, spec, opts.num("seed", 7u64)?);
    let out = opts.require("out")?;
    let f = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut w = BufWriter::new(f);
    io::write_graphs(&mut w, queries.iter(), db.interner()).map_err(|e| e.to_string())?;
    println!("wrote query set {} ({} queries) to {out}", spec.name(), queries.len());
    Ok(())
}

fn cmd_query(opts: &Opts) -> Result<ExitCode, String> {
    let db = Arc::new(load_db(opts.require("db")?)?);
    let queries = load_queries(opts.require("queries")?, &db)?;

    let engine_name = opts.get("engine").unwrap_or("CFQL");
    let budget_ms: u64 = opts.num("budget-ms", 600_000u64)?;
    let threads: usize = opts.num("threads", 1usize)?;
    let retries: u32 = opts.num("retries", 0u32)?;
    let max_steps: u64 = opts.num("max-steps", 0u64)?;
    let mut config = RunnerConfig::with_budget(Duration::from_millis(budget_ms));
    config.max_retries = retries;
    if max_steps > 0 {
        config.limits = config.limits.with_max_steps(max_steps);
    }

    let service_mode = opts.has("shed")
        || ["max-inflight", "breaker-threshold", "breaker-cooldown", "drain-after-ms"]
            .iter()
            .any(|f| opts.get(f).is_some());

    // Crash-consistent run journal: `--journal PATH` appends one checksummed
    // record per finished query; `--resume` replays the journal first and
    // re-runs only the queries without a terminal outcome.
    let mut journal = match opts.get("journal") {
        None => None,
        Some(path) => {
            let db_fp = db_fingerprint(&db);
            let p = std::path::Path::new(path);
            let j = if opts.has("resume") {
                RunJournal::resume(p, db_fp)
            } else {
                RunJournal::create(p, db_fp)
            }
            .map_err(|e| format!("cannot open journal {path}: {e}"))?;
            if j.done_count() > 0 {
                eprintln!("journal: replayed {} completed queries from {path}", j.done_count());
            }
            Some(j)
        }
    };

    let mut health = None;
    let report = if service_mode {
        let (report, h) =
            run_service_query(opts, &db, &queries, engine_name, config, threads, journal.as_mut())?;
        health = h;
        report
    } else {
        // One engine selection feeding the one runner loop.
        let (mut engine, what) = select_engine(opts, engine_name, threads)?;
        let t0 = Instant::now();
        engine.build(&db).map_err(|e| format!("index construction failed: {e}"))?;
        eprintln!("{what} built in {:.2}s", t0.elapsed().as_secs_f64());
        run_query_set_journaled(engine.as_mut(), "cli", &queries, config, journal.as_mut())
    };
    for (i, r) in report.records.iter().enumerate() {
        println!("{}", query_line(i, r));
    }
    println!(
        "-- avg query {:.3} ms | precision {:.3} | |C| {:.1} | per-SI-test {:.4} ms \
         | timeouts {} | panics {} | exhausted {} | retries {}",
        report.avg_query_ms(),
        report.filtering_precision(),
        report.avg_candidates(),
        report.per_si_test_ms(),
        report.timeout_count(),
        report.panic_count(),
        report.exhausted_count(),
        report.total_retries(),
    );
    let k = report.kernel_totals();
    println!(
        "-- kernel intersections {} | gallop-hits {} | simd-hits {} | bitmap-probes {}",
        k.intersections, k.gallop_hits, k.simd_hits, k.bitmap_probes,
    );
    let hist = report.latency_histogram();
    let ms = |n: Option<u64>| n.map(|v| v as f64 * 1e-6).unwrap_or(f64::NAN);
    println!(
        "-- latency p50 {:.3} ms | p95 {:.3} ms | p99 {:.3} ms | censored {}",
        ms(hist.p50()),
        ms(hist.p95()),
        ms(hist.p99()),
        report.censored_count(),
    );
    let journal_stats = journal.as_ref().map(|j| j.stats());
    if let Some(s) = &journal_stats {
        println!(
            "-- journal replayed {} | skipped {} | appended {}",
            s.replayed, s.skipped, s.appended
        );
    }
    if let Some(path) = opts.get("metrics-out") {
        let text = render_prometheus_full(
            std::slice::from_ref(&report),
            health.as_ref(),
            journal_stats.as_ref(),
        );
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote metrics to {path}");
    }
    // Timeouts alone are an expected outcome of a tight budget; panics,
    // exhausted budgets, shed admissions, wedged workers, unavailable
    // shards, and quarantined graphs all mean degraded answers, so signal
    // them to scripts.
    Ok(degraded_exit_code(&report))
}

/// Picks the engine for `sqp query` outside service mode — a vcFV matcher on
/// a (plain or supervised) pool for `--threads N` / `--supervise`, or the
/// named sequential engine — and says what it picked.
fn select_engine(
    opts: &Opts,
    engine_name: &str,
    threads: usize,
) -> Result<(Box<dyn QueryEngine>, String), String> {
    let supervise = opts.has("supervise");
    if threads > 1 || supervise {
        let matcher = matcher_by_name(engine_name).ok_or_else(|| {
            format!(
                "--threads and --supervise require a vcFV engine (matcher); \
                 '{engine_name}' is not one"
            )
        })?;
        let name = matcher.name();
        let matcher = apply_chaos_slow(opts, matcher)?;
        let pool = if supervise {
            QueryPool::supervised("sqp-worker", threads, SupervisorConfig::default())
        } else {
            QueryPool::new(threads)
        };
        let what = format!(
            "engine {name} on {} pooled workers{}",
            pool.threads(),
            if supervise { " (supervised)" } else { "" }
        );
        return Ok((Box::new(ParallelEngine::new(name, matcher, pool)), what));
    }
    let engine =
        engine_by_name(engine_name).ok_or_else(|| format!("unknown engine '{engine_name}'"))?;
    let what = format!("engine {}", engine.name());
    Ok((engine, what))
}

/// Exit 2 when any record means degraded (partial or missing) answers.
fn degraded_exit_code(report: &QuerySetReport) -> ExitCode {
    if report.panic_count() > 0
        || report.exhausted_count() > 0
        || report.shed_count() > 0
        || report.quarantined_count() > 0
        || report.wedged_count() > 0
        || report.unavailable_count() > 0
    {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the query set through the admission-controlled [`QueryService`]:
/// the whole set is submitted as one burst (so `--max-inflight` and
/// `--shed` actually shed), then tickets are awaited with the drain
/// triggers armed (SIGINT, `--drain-after-ms`).
fn run_service_query(
    opts: &Opts,
    db: &Arc<GraphDb>,
    queries: &[subgraph_query::graph::Graph],
    engine_name: &str,
    runner: RunnerConfig,
    threads: usize,
    mut journal: Option<&mut RunJournal>,
) -> Result<(QuerySetReport, Option<ServiceHealth>), String> {
    let matcher = matcher_by_name(engine_name).ok_or_else(|| {
        format!("service mode requires a vcFV engine (matcher); '{engine_name}' is not one")
    })?;
    let chaos_panics: u32 = opts.num("chaos-panics", 0u32)?;
    let matcher: Arc<dyn subgraph_query::matching::Matcher> = if chaos_panics > 0 {
        let seed: u64 = opts.num("chaos-seed", 42u64)?;
        let chaos = ChaosConfig::new(seed).with_panics(chaos_panics);
        Arc::new(ChaosMatcher::new(matcher, chaos))
    } else {
        matcher
    };
    let matcher = apply_chaos_slow(opts, matcher)?;

    let breaker = breaker_from_opts(opts)?;
    let shed = opts.has("shed").then(ShedPolicy::default);
    let queue_capacity: usize = opts.num("max-inflight", 64usize)?;
    let supervisor = opts.has("supervise").then(SupervisorConfig::default);
    let config = ServiceConfig {
        threads,
        runner,
        breaker,
        queue_capacity,
        shed,
        supervisor,
        ..Default::default()
    };
    let budget = config.runner.query_budget;
    let drain_after = match opts.get("drain-after-ms") {
        None => None,
        Some(_) => Some(Duration::from_millis(opts.num("drain-after-ms", 0u64)?)),
    };

    install_drain_handler();
    let service = QueryService::new(matcher, Arc::clone(db), config);
    eprintln!(
        "engine {engine_name} behind query service ({} pooled workers, queue {queue_capacity})",
        service.threads(),
    );
    // With a journal, queries that already have a terminal outcome are not
    // even admitted — resume re-runs only the incomplete tail.
    let mut pending = Vec::with_capacity(queries.len());
    let mut pending_fps = Vec::with_capacity(queries.len());
    for q in queries {
        let fp = subgraph_query::core::chaos::graph_fingerprint(q);
        if let Some(j) = journal.as_deref_mut() {
            if j.should_skip(fp) {
                continue;
            }
        }
        pending.push(q.clone());
        pending_fps.push(fp);
    }

    let t0 = Instant::now();
    let tickets = service.submit_batch(&pending);

    let mut service = Some(service);
    let mut drain: Option<DrainReport> = None;
    let mut results = Vec::with_capacity(tickets.len());
    for ((ticket, _admission), &q_fp) in tickets.iter().zip(&pending_fps) {
        loop {
            if let Some(r) = ticket.wait_timeout(Duration::from_millis(20)) {
                if let Some(j) = journal.as_deref_mut() {
                    let _ = j.record(q_fp, &r.0.status, r.0.answers.len(), engine_name);
                }
                results.push(r);
                break;
            }
            let timer_fired = drain_after.is_some_and(|d| t0.elapsed() >= d);
            if drain_requested() || timer_fired {
                if let Some(s) = service.take() {
                    eprintln!("drain: stopping admissions, waiting out in-flight work");
                    // Shutdown resolves every admitted ticket (finish, shed,
                    // or cancel), so the waits below all return promptly.
                    drain = Some(s.shutdown());
                    // A drain usually precedes process exit (SIGINT): force
                    // the journal through the OS cache now, so every record
                    // written so far survives even a power cut. Records
                    // appended after this point (resolved tickets below)
                    // ride on the journal's per-record flush.
                    if let Some(j) = journal.as_deref_mut() {
                        if let Err(e) = j.sync() {
                            eprintln!("journal: sync failed during drain: {e}");
                        }
                    }
                }
            }
        }
    }

    // Settle the journal once the set is fully resolved (drain or not):
    // flush + fdatasync so the terminal records are durable at exit.
    if let Some(j) = journal {
        if let Err(e) = j.sync() {
            eprintln!("journal: final sync failed: {e}");
        }
    }

    let health = service.as_ref().map(|s| s.health());
    let mut report = QuerySetReport::new(engine_name, "cli-service");
    for (outcome, retries) in &results {
        report.push_outcome(outcome, *retries, budget);
    }
    if let Some(h) = &health {
        eprintln!(
            "service: admitted {} finished {} shed {} wedged {} replaced-workers {} \
             breakers open={} half-open={} trips={}",
            h.admitted,
            h.finished,
            h.shed_total(),
            h.wedged_queries,
            h.workers_replaced,
            h.open_breakers,
            h.half_open_breakers,
            h.breaker_trips,
        );
    }
    if let Some(d) = drain {
        eprintln!("{}", drain_line(&d));
    }
    Ok((report, health))
}

fn cmd_compare(opts: &Opts) -> Result<(), String> {
    let db = Arc::new(load_db(opts.require("db")?)?);
    let queries = load_queries(opts.require("queries")?, &db)?;
    let budget_ms: u64 = opts.num("budget-ms", 600_000u64)?;
    let names: Vec<String> = opts
        .get("engines")
        .unwrap_or("Grapes,GGSX,CFQL,vcGrapes")
        .split(',')
        .map(str::to_string)
        .collect();

    println!(
        "{:<10} {:>10} {:>12} {:>11} {:>12} {:>10} {:>9}",
        "engine", "build(s)", "query(ms)", "precision", "per-SI(ms)", "|C(q)|", "timeouts"
    );
    let mut reports = Vec::new();
    for name in &names {
        let mut engine = engine_by_name(name).ok_or_else(|| format!("unknown engine '{name}'"))?;
        let t0 = Instant::now();
        let build = match engine.build(&db) {
            Ok(_) => t0.elapsed(),
            Err(e) => {
                println!("{:<10} {e}", engine.name());
                continue;
            }
        };
        let report = run_query_set(
            engine.as_mut(),
            "cli",
            &queries,
            RunnerConfig::with_budget(Duration::from_millis(budget_ms)),
        );
        println!(
            "{:<10} {:>10.2} {:>12.3} {:>11.3} {:>12.4} {:>10.1} {:>9}",
            report.engine,
            build.as_secs_f64(),
            report.avg_query_ms(),
            report.filtering_precision(),
            report.per_si_test_ms(),
            report.avg_candidates(),
            report.timeout_count(),
        );
        reports.push(report);
    }
    if opts.has("phases") {
        print_phase_table(&reports);
    }
    Ok(())
}

/// The `compare --phases` per-engine phase breakdown (total milliseconds per
/// phase over uncensored queries, the paper's decomposition of query time).
/// `sum(ms)` is the span total and `wall(ms)` the runner-measured wall time
/// over the same queries; the two should agree closely since the phases are
/// disjoint and cover the query path.
fn print_phase_table(reports: &[QuerySetReport]) {
    use subgraph_query::matching::Phase;
    println!();
    println!(
        "{:<10} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>9}",
        "engine",
        "filter(ms)",
        "build(ms)",
        "order(ms)",
        "enum(ms)",
        "verify(ms)",
        "sum(ms)",
        "wall(ms)",
        "censored"
    );
    for report in reports {
        let t = report.phase_totals();
        let ms = |p: Phase| t.nanos_of(p) as f64 * 1e-6;
        println!(
            "{:<10} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>9}",
            report.engine,
            ms(Phase::Filter),
            ms(Phase::BuildCandidates),
            ms(Phase::Order),
            ms(Phase::Enumerate),
            ms(Phase::Verify),
            t.total_nanos() as f64 * 1e-6,
            report.uncensored_wall_nanos() as f64 * 1e-6,
            report.censored_count(),
        );
    }
}

fn cmd_match(opts: &Opts) -> Result<(), String> {
    let db = Arc::new(load_db(opts.require("db")?)?);
    let queries = load_queries(opts.require("queries")?, &db)?;
    let limit: u64 = opts.num("limit", 1000u64)?;

    let cm =
        CollectionMatcher::new(Arc::clone(&db), Box::new(Cfql::new())).with_per_graph_limit(limit);
    for (i, q) in queries.iter().enumerate() {
        let matches = cm.match_all(q);
        let total: usize = matches.iter().map(|m| m.embeddings.len()).sum();
        println!("query {i}: {total} embeddings in {} graphs", matches.len());
        for m in matches.iter().take(3) {
            println!(
                "  graph {:?}: {} embeddings{}",
                m.graph,
                m.embeddings.len(),
                if m.truncated { " (truncated)" } else { "" }
            );
        }
    }
    Ok(())
}

/// Parses one update-stream line (comments and blank lines are handled by
/// the caller): `av <label>` / `ae <u> <v>` / `re <u> <v>` / `rv <v>`.
fn parse_update(line: &str) -> Result<GraphUpdate, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let num = |s: &str| -> Result<u32, String> {
        s.parse().map_err(|_| format!("invalid number '{s}' in update '{line}'"))
    };
    match toks.as_slice() {
        ["av", l] => Ok(GraphUpdate::AddVertex { label: GraphLabel(num(l)?) }),
        ["ae", u, v] => {
            Ok(GraphUpdate::AddEdge { u: GraphVertexId(num(u)?), v: GraphVertexId(num(v)?) })
        }
        ["re", u, v] => {
            Ok(GraphUpdate::RemoveEdge { u: GraphVertexId(num(u)?), v: GraphVertexId(num(v)?) })
        }
        ["rv", v] => Ok(GraphUpdate::RemoveVertex { vertex: GraphVertexId(num(v)?) }),
        _ => Err(format!("unparseable update '{line}' (want av/ae/re/rv)")),
    }
}

/// `sqp update` — dynamic-graph mode: applies an update stream to one
/// database graph through the continuous-query service, repairing any
/// registered standing queries per batch and emitting the delta stream.
fn cmd_update(opts: &Opts) -> Result<ExitCode, String> {
    use std::io::BufRead;

    let db = load_db(opts.require("db")?)?;
    let gi: usize = opts.num("graph", 0usize)?;
    if gi >= db.len() {
        return Err(format!("--graph {gi} out of range (database has {} graphs)", db.len()));
    }
    let threads: usize = opts.num("threads", 1usize)?;
    let budget_ms: u64 = opts.num("budget-ms", 600_000u64)?;
    let default_policy = CompactionPolicy::default();
    let policy = CompactionPolicy {
        min_delta_ops: opts.num("compact-min", default_policy.min_delta_ops)?,
        delta_ratio: opts.num("compact-ratio", default_policy.delta_ratio)?,
    };
    let watch = opts.has("watch");
    if !watch && opts.get("updates").is_none() {
        return Err("missing required --updates (or pass --watch to read stdin)".into());
    }
    let deadline = || Deadline::after(Duration::from_millis(budget_ms));

    let svc = ContinuousService::new(
        db.graph(subgraph_query::graph::database::GraphId(gi as u32)).clone(),
        policy,
    );
    if let Some(qpath) = opts.get("queries") {
        for (i, q) in load_queries(qpath, &db)?.into_iter().enumerate() {
            let id = svc
                .register(q, deadline())
                .map_err(|_| format!("standing query {i}: registration timed out"))?;
            let n = svc.embeddings(id).map_or(0, |e| e.len());
            println!("standing query {id}: {n} embeddings");
        }
    }

    let reader: Box<dyn BufRead> = if watch {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        let path = opts.require("updates")?;
        let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        Box::new(BufReader::new(f))
    };

    let mut degraded = false;
    let mut batch: Vec<GraphUpdate> = Vec::new();
    let mut batch_no = 0usize;
    let mut flush = |batch: &mut Vec<GraphUpdate>, degraded: &mut bool| -> Result<(), String> {
        if batch.is_empty() {
            return Ok(());
        }
        batch_no += 1;
        match svc.apply_batch(batch, threads, deadline()) {
            Ok(report) => {
                println!(
                    "batch {batch_no}: applied {} touched {} +{} -{}{}",
                    report.applied,
                    report.touched,
                    report.total_added(),
                    report.total_removed(),
                    if report.compacted { " (compacted)" } else { "" }
                );
                for d in &report.deltas {
                    for e in &d.added {
                        println!("  + q{} {:?}", d.query_id, e.as_slice());
                    }
                    for e in &d.removed {
                        println!("  - q{} {:?}", d.query_id, e.as_slice());
                    }
                }
            }
            Err(BatchError::Graph(e)) => return Err(format!("batch {batch_no} rejected: {e}")),
            Err(BatchError::Timeout) => {
                eprintln!("batch {batch_no}: repair timed out");
                *degraded = true;
            }
        }
        batch.clear();
        Ok(())
    };

    for line in reader.lines() {
        let line = line.map_err(|e| format!("read error: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "--" {
            flush(&mut batch, &mut degraded)?;
            continue;
        }
        if line == "quit" {
            break;
        }
        if let Some(rest) = line.strip_prefix("query") {
            // Mixed traffic: `query <standing id>` serves a one-shot
            // snapshot read of that standing query's pattern.
            flush(&mut batch, &mut degraded)?;
            let id: u64 =
                rest.trim().parse().map_err(|_| format!("invalid query id in '{line}'"))?;
            let q = svc
                .with_snapshot(|m| {
                    m.standing().iter().find(|s| s.id == id).map(|s| s.query.clone())
                })
                .ok_or_else(|| format!("no standing query {id}"))?;
            match svc.query(&q, deadline()) {
                Ok(es) => println!("query {id}: {} embeddings", es.len()),
                Err(_) => {
                    eprintln!("query {id}: timed out");
                    degraded = true;
                }
            }
            continue;
        }
        batch.push(parse_update(line)?);
    }
    flush(&mut batch, &mut degraded)?;

    let stats = svc.stats();
    println!(
        "applied {} updates in {} batches ({} compactions, {} repairs, +{} -{} embeddings)",
        stats.updates_applied,
        stats.update_batches,
        stats.compactions,
        stats.repairs,
        stats.embeddings_added,
        stats.embeddings_removed
    );
    for sq in &svc.with_snapshot(|m| {
        m.standing().iter().map(|s| (s.id, s.embeddings().len())).collect::<Vec<_>>()
    }) {
        println!("standing query {}: {} embeddings", sq.0, sq.1);
    }

    if let Some(out) = opts.get("out") {
        let compacted = svc.with_snapshot(|m| m.graph().materialize().0);
        let mut graphs: Vec<_> = db.graphs().to_vec();
        graphs[gi] = compacted;
        let updated = GraphDb::with_interner(graphs, db.interner().clone());
        save_db(&updated, out)?;
        println!("wrote updated database to {out}");
    }
    if let Some(path) = opts.get("metrics-out") {
        std::fs::write(path, render_prometheus_continuous(&svc.stats()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(if degraded { ExitCode::from(2) } else { ExitCode::SUCCESS })
}

/// `sqp serve` — the coordinator front: the library's wire server in front
/// of a scatter–gather [`Coordinator`] over the shard addresses, optionally
/// with the Prometheus exposition over HTTP at `/metrics`.
fn cmd_serve(opts: &Opts) -> Result<ExitCode, String> {
    let db = load_db(opts.require("db")?)?;
    let shard_addrs: Vec<String> = opts.require("shards")?.split(',').map(str::to_string).collect();
    let shards = shard_addrs.len();
    let budget_ms: u64 = opts.num("budget-ms", 600_000u64)?;
    let mut runner = RunnerConfig::with_budget(Duration::from_millis(budget_ms));
    runner.max_retries = opts.num("retries", 2u32)?;
    runner.retry_backoff = Duration::from_millis(opts.num("retry-backoff-ms", 10u64)?);
    let config = CoordinatorConfig {
        shard_addrs,
        runner,
        breaker: breaker_from_opts(opts)?,
        scatter_threads: opts.num("scatter-threads", 4usize)?,
        queue_capacity: opts.num("max-inflight", 64usize)?,
        connect_timeout: Duration::from_millis(opts.num("connect-timeout-ms", 2_000u64)?),
        idle_read_timeout: Duration::from_millis(opts.num("idle-timeout-ms", 30_000u64)?),
        ..Default::default()
    };
    let listen = opts.get("listen").unwrap_or("127.0.0.1:0");
    let mut server =
        WireServer::front(&db, listen, config).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    if let Some(maddr) = opts.get("metrics-addr") {
        let bound = server
            .serve_metrics(maddr)
            .map_err(|e| format!("cannot bind metrics address {maddr}: {e}"))?;
        eprintln!("metrics on http://{bound}/metrics");
    }
    let what =
        format!("coordinator over {shards} shards, db fingerprint {:016x}", db_fingerprint(&db));
    serve_until_interrupted(server, &what);
    Ok(ExitCode::SUCCESS)
}

/// `sqp client` — sends a query set to a coordinator front through the
/// library's wire client and reports results like a local `sqp query` run.
fn cmd_client(opts: &Opts) -> Result<ExitCode, String> {
    let db = load_db(opts.require("db")?)?;
    let queries = load_queries(opts.require("queries")?, &db)?;
    let addr = opts.require("addr")?;
    let budget_ms: u64 = opts.num("budget-ms", 600_000u64)?;
    let budget = (budget_ms > 0).then(|| Duration::from_millis(budget_ms));
    // How long to wait on a silent coordinator: the budget plus slack.
    let patience = Duration::from_millis(budget_ms.max(1_000) + 5_000);
    let mut client = WireClient::connect(
        addr,
        Greeting::client(db_fingerprint(&db)),
        db.len(),
        WireConfig::default(),
        patience,
        patience,
    )
    .map_err(|e| format!("cannot reach the coordinator at {addr}: {e}"))?;

    let mut report = QuerySetReport::new("client", "cli-remote");
    for (i, q) in queries.iter().enumerate() {
        let (answers, outcome) =
            client.query(q, budget, patience).map_err(|e| format!("query {i}: {e}"))?;
        let (outcome, retries) = outcome.into_outcome(answers);
        report.push_outcome(&outcome, retries, budget);
        println!("{}", query_line(i, &report.records[i]));
    }
    client.bye();
    println!(
        "-- {} queries | avg {:.3} ms | timeouts {} | unavailable {} | shed {} | retries {}",
        report.records.len(),
        report.avg_query_ms(),
        report.timeout_count(),
        report.unavailable_count(),
        report.shed_count(),
        report.total_retries(),
    );
    Ok(degraded_exit_code(&report))
}

fn cmd_index(opts: &Opts) -> Result<(), String> {
    let db = load_db(opts.require("db")?)?;
    let kind = opts.get("kind").unwrap_or("grapes");
    let budget = BuildBudget::unlimited();
    let t0 = Instant::now();
    let index: Box<dyn GraphIndex> = match kind {
        "grapes" => Box::new(
            PathTrieIndex::build(&db, GrapesConfig::default(), &budget)
                .map_err(|e| e.to_string())?,
        ),
        "ggsx" => Box::new(GgsxIndex::build(&db, 4, &budget).map_err(|e| e.to_string())?),
        "ct-index" => Box::new(
            FingerprintIndex::build(&db, CtIndexConfig::default(), &budget)
                .map_err(|e| e.to_string())?,
        ),
        other => return Err(format!("unknown --kind '{other}'")),
    };
    println!(
        "{}: built in {:.2}s, {} MB",
        index.name(),
        t0.elapsed().as_secs_f64(),
        format_mb(index.heap_bytes())
    );
    Ok(())
}

/// One subcommand: its name, the value-taking flags and the bare switches it
/// accepts (space-separated; anything else is rejected), and its entry point.
type Command = (&'static str, &'static str, &'static str, fn(&Opts) -> Result<ExitCode, String>);

/// Lifts a subcommand with nothing but success to report.
macro_rules! ok {
    ($cmd:ident) => {
        |opts| $cmd(opts).map(|()| ExitCode::SUCCESS)
    };
}

const COMMANDS: &[Command] = &[
    ("stats", "db", "", ok!(cmd_stats)),
    ("generate", "kind graphs vertices labels degree seed out", "", ok!(cmd_generate)),
    ("queries", "db edges count seed out", "dense", ok!(cmd_queries)),
    (
        "query",
        "db queries engine budget-ms threads retries max-steps metrics-out max-inflight \
         breaker-threshold breaker-cooldown chaos-panics chaos-seed chaos-slow-ms drain-after-ms \
         journal",
        "shed resume supervise",
        cmd_query,
    ),
    ("compare", "db queries engines budget-ms", "phases", ok!(cmd_compare)),
    ("match", "db queries limit", "", ok!(cmd_match)),
    ("index", "db kind", "", ok!(cmd_index)),
    (
        "serve",
        "db shards listen metrics-addr budget-ms retries retry-backoff-ms scatter-threads \
         max-inflight breaker-threshold breaker-cooldown connect-timeout-ms idle-timeout-ms",
        "",
        cmd_serve,
    ),
    ("client", "db queries addr budget-ms", "", cmd_client),
    (
        "update",
        "db updates graph queries threads budget-ms compact-min compact-ratio out metrics-out",
        "watch",
        cmd_update,
    ),
];

fn run(args: &[String]) -> Result<ExitCode, String> {
    let name = args.first().ok_or("missing command")?;
    let &(name, flags, switches, run) = COMMANDS
        .iter()
        .find(|c| c.0 == name.as_str())
        .ok_or_else(|| format!("unknown command '{name}'"))?;
    let opts = Opts::parse(&args[1..], flags, switches).map_err(|e| format!("sqp {name}: {e}"))?;
    run(&opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--help" || a == "-h" || a == "help") {
        println!("{}", help());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            // The error alone: under a hundred lines of usage nobody finds it.
            eprintln!("error: {e}\n(run `sqp help` for usage)");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_every_registered_engine() {
        let text = help();
        assert!(!text.contains("{ENGINES}") && !text.contains("{MATCHERS}"));
        let engines = text.lines().skip_while(|l| !l.starts_with("Engines:")).take(2);
        let listed: Vec<&str> = engines.flat_map(str::split_whitespace).collect();
        for name in engine_names() {
            assert!(listed.contains(&name), "{name} missing from the Engines: line");
            for spelling in [name.to_string(), name.to_ascii_lowercase(), name.to_ascii_uppercase()]
            {
                let engine = engine_by_name(&spelling).expect("listed engines resolve");
                assert_eq!(engine.name(), name);
            }
        }
        let pooled = text.lines().find(|l| l.starts_with("(vcFV engines only:")).unwrap();
        for name in engine_names() {
            assert_eq!(pooled.contains(name), matcher_by_name(name).is_some(), "{name}");
        }
    }

    #[test]
    fn every_documented_flag_is_declared_by_its_subcommand() {
        // The USAGE block names each subcommand's flags; a flag in the help
        // but not in COMMANDS would be rejected at the prompt.
        let usage: Vec<&str> = HELP
            .lines()
            .skip_while(|l| !l.starts_with("USAGE:"))
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect();
        let mut accepted: Vec<&str> = Vec::new();
        let mut current = "";
        let mut seen = 0;
        for line in usage {
            let mut words = line.split_whitespace().peekable();
            if words.peek() == Some(&"sqp") {
                words.next();
                current = words.next().unwrap();
                let (_, flags, switches, _) = COMMANDS
                    .iter()
                    .find(|c| c.0 == current)
                    .unwrap_or_else(|| panic!("usage names unknown command {current}"));
                accepted = flags.split_whitespace().chain(switches.split_whitespace()).collect();
            }
            for word in words {
                let Some(rest) = word.trim_start_matches(['[', '(']).strip_prefix("--") else {
                    continue;
                };
                let flag = rest.trim_end_matches([']', ')']);
                assert!(
                    accepted.contains(&flag),
                    "sqp {current}: --{flag} is documented but not accepted"
                );
                seen += 1;
            }
        }
        assert!(seen > 50, "usage block not parsed: {seen} flags");
    }
}
