//! The performance ledger's one command.
//!
//! ```text
//! sqp-benchmark run [--seed N] [--seconds S] [--runs K] [--trace] [--smoke] [--out FILE]
//!     every workload, each run in a fresh child process; prints every
//!     end-to-end metric (and, with --trace, every per-layer metric) and
//!     writes a provenance-stamped result file
//! sqp-benchmark run --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last stdout line is the driver's
//!     result object (this is the form BENCHMARK.json's command takes)
//! sqp-benchmark compare A.json B.json
//!     per (metric, workload): better / same / worse / unresolved
//! ```

mod compare;
mod goldens;
mod harness;
mod json;
mod openloop;
mod provenance;
mod spec;
mod stats;
mod trace;
mod updates;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use harness::{Report, RunConfig};
use json::Json;
use spec::{MetricSpec, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// `benchmark/results/`, beside this crate's manifest.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

const DETAIL_PREFIX: &str = "#detail ";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !spec::is_workload(name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                    return Err(format!("unknown workload {name:?}; known: {}", known.join(", ")));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => {
                parsed.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--runs" => {
                parsed.runs = value("a count")?.parse().map_err(|e| format!("--runs: {e}"))?;
                if parsed.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--seconds" => {
                parsed.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => parsed.smoke = true,
            // `--trace` alone or the driver's `--trace 0|1`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.smoke {
        parsed.seconds = parsed.seconds.min(1.0);
    }
    Ok(parsed)
}

/// `{name: {value, unit}}` for every metric of `specs`; a metric the
/// workload did not produce is written as 0 (per-layer only: the end-to-end
/// set is produced by every workload).
fn metrics_json(specs: &[MetricSpec], report: &Report) -> Json {
    Json::obj(specs.iter().map(|s| {
        let value = report.metrics.iter().find(|(n, _)| *n == s.name).map_or(0.0, |(_, v)| *v);
        (s.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(s.unit))]))
    }))
}

/// One workload in this process. Prints the metric table, a detail line and,
/// last, the driver's result object.
fn run_one(workload: &str, cfg: &RunConfig) -> ExitCode {
    let affinity = harness::Affinity::pin_to_one_cpu();
    let mut report =
        workloads::run(workload, cfg, affinity.as_ref()).expect("workload name was validated");
    report.detail("pinned_cpu", affinity.map_or(Json::Null, |a| Json::Num(a.cpu as f64)));
    let specs = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in &report.metrics {
        assert!(
            specs.iter().any(|s| s.name == *name),
            "{workload} reported unlisted metric {name}"
        );
    }
    if !cfg.trace {
        for s in END_TO_END {
            let found = report.metrics.iter().find(|(n, _)| *n == s.name);
            assert!(
                found.is_some_and(|(_, v)| v.is_finite() && *v > 0.0),
                "{workload}: end-to-end metric {} must be a positive number, got {found:?}",
                s.name
            );
        }
    }
    println!("# {workload}  seed={} seconds={} trace={}", cfg.seed, cfg.seconds, cfg.trace);
    for (name, value) in &report.metrics {
        if let Some(s) = specs.iter().find(|s| s.name == *name) {
            let better = if s.better == spec::Better::Lower { "lower" } else { "higher" };
            println!("{name:<36} {value:>16.4} {:<6} ({better} is better)", s.unit);
        }
    }
    let attempted = report.attempted.max(1);
    println!(
        "{:<36} {:>16.6} ratio ({} of {})",
        "fail_frac",
        report.failed as f64 / attempted as f64,
        report.failed,
        attempted
    );
    for finding in &report.findings {
        println!("FINDING: {finding}");
    }
    println!(
        "{DETAIL_PREFIX}{}",
        Json::Obj(report.detail.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()).render()
    );
    let correct = report.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics_json(specs, &report)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the parent keeps of one child run.
struct ChildRun {
    seed: u64,
    trace: bool,
    wall_s: f64,
    result: Json,
    detail: Json,
    ok: bool,
}

/// Runs one workload once in a child process of this same executable, so
/// its peak RSS is its own.
fn spawn_run(workload: &str, args: &Args, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let started = std::time::Instant::now();
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or(format!("{workload}: child printed nothing ({})", out.status))?;
    let result =
        json::parse(last).map_err(|e| format!("{workload}: last line is not a result: {e}"))?;
    let mut detail = Json::obj::<&str>([]);
    for line in lines {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(d) => detail = json::parse(d).map_err(|e| format!("{workload}: detail: {e}"))?,
            None => println!("{line}"),
        }
    }
    let ok = out.status.success() && result.get("correct") == Some(&Json::Bool(true));
    Ok(ChildRun { seed, trace, wall_s, result, detail, ok })
}

fn run_all(args: &Args) -> ExitCode {
    let mut all_ok = true;
    let mut per_workload = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut runs = Vec::new();
        for k in 0..args.runs {
            let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &trace in passes {
                match spawn_run(workload, args, args.seed + k, trace) {
                    Ok(run) => {
                        all_ok &= run.ok;
                        runs.push(run);
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        all_ok = false;
                    }
                }
            }
        }
        per_workload.push((*workload, runs));
    }

    let document = Json::obj([
        ("provenance", provenance::stamp()),
        ("seed", Json::Num(args.seed as f64)),
        ("runs", Json::Num(args.runs as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("all_correct", Json::Bool(all_ok)),
        (
            "workloads",
            Json::obj(per_workload.iter().map(|(w, runs)| {
                let runs = runs.iter().map(|r| {
                    Json::obj([
                        ("seed", Json::Num(r.seed as f64)),
                        ("trace", Json::Bool(r.trace)),
                        ("process_wall_s", Json::Num(r.wall_s)),
                        ("correct", r.result.get("correct").cloned().unwrap_or(Json::Null)),
                        ("attempted", r.result.get("attempted").cloned().unwrap_or(Json::Null)),
                        ("failed", r.result.get("failed").cloned().unwrap_or(Json::Null)),
                        ("metrics", r.result.get("metrics").cloned().unwrap_or(Json::Null)),
                        ("detail", r.detail.clone()),
                    ])
                });
                (*w, Json::obj([("runs", Json::Arr(runs.collect()))]))
            })),
        ),
    ]);
    summary_table(&document);

    if args.smoke {
        println!("smoke: correctness only, nothing written");
    } else {
        let path = args.out.clone().unwrap_or_else(|| results_dir().join("latest.json"));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, document.render_pretty()));
        match written {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one workload was incorrect or did not finish");
        ExitCode::FAILURE
    }
}

/// Median over runs of every end-to-end metric, one row per workload.
fn summary_table(document: &Json) {
    println!("\n== end-to-end, median over runs ==");
    print!("{:<14}", "workload");
    for s in END_TO_END {
        print!(" {:>20}", format!("{} [{}]", s.name, s.unit));
    }
    println!(" {:>10}", "fail_frac");
    for (workload, _) in WORKLOADS {
        let runs: Vec<&Json> = document
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("runs"))
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
            .collect();
        print!("{workload:<14}");
        for s in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(s.name)?.get("value")?.as_f64())
                .collect();
            print!(" {:>20.4}", stats::median(&values).unwrap_or(f64::NAN));
        }
        let sum = |key: &str| runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum::<f64>();
        println!(" {:>10.6}", sum("failed") / sum("attempted").max(1.0));
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let rows = load(&manifest_path())
        .and_then(|m| Ok((m, load(Path::new(a))?, load(Path::new(b))?)))
        .and_then(|(m, a, b)| compare::compare(&m, &a, &b));
    match rows {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            let count = |v| rows.iter().filter(|r| r.verdict == v).count();
            let (worse, unresolved) =
                (count(compare::Verdict::Worse), count(compare::Verdict::Unresolved));
            println!("{} rows: {worse} worse, {unresolved} unresolved", rows.len());
            if worse > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..]) {
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
            Ok(parsed) => match &parsed.workload {
                Some(workload) => run_one(
                    workload,
                    &RunConfig {
                        seed: parsed.seed,
                        seconds: parsed.seconds,
                        trace: parsed.trace,
                        smoke: parsed.smoke,
                    },
                ),
                None => run_all(&parsed),
            },
        },
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => {
            eprintln!(
                "usage: sqp-benchmark run [--workload NAME] [--seed N] [--seconds S] [--runs K] \
                 [--trace [0|1]] [--smoke] [--out FILE]\n       sqp-benchmark compare A.json B.json"
            );
            ExitCode::from(2)
        }
    }
}
