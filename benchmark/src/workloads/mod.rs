//! One module per family of workloads; `run` maps a workload name to it.

mod dynamic;
mod serve;
mod static_db;

use crate::harness::{Affinity, Report, RunConfig};
use crate::json::Json;
use crate::trace::Trace;

/// Runs the named workload, or `None` if there is no such workload.
/// `affinity` is the one CPU this process is pinned to, if it is.
pub fn run(name: &str, cfg: &RunConfig, affinity: Option<&Affinity>) -> Option<Report> {
    Some(match name {
        "aids_cfql" => static_db::run_aids_cfql(cfg),
        "dense_cfql" => static_db::run_dense_cfql(cfg),
        "serve_open" => serve::run_serve_open(cfg, affinity),
        "dyn_mixed" => dynamic::run_dyn_mixed(cfg),
        _ => return None,
    })
}

/// Records the span counts and per-layer self times, and writes the span
/// file unless this is a smoke run, which writes nothing.
fn write_trace(report: &mut Report, cfg: &RunConfig, workload: &str, trace: &Trace) {
    report.detail("spans", Json::Num(trace.spans().len() as f64));
    let self_ms =
        trace.self_by_name().into_iter().map(|(name, ns)| (name, Json::Num(ns as f64 / 1e6)));
    report.detail("self_ms_by_span", Json::obj(self_ms));
    if cfg.smoke {
        return;
    }
    let path = crate::results_dir().join(format!("trace_{workload}.jsonl"));
    match trace.write_jsonl(&path) {
        Ok(()) => report.detail("trace_file", Json::str(path.display().to_string())),
        Err(e) => report.fail(1, format!("cannot write {}: {e}", path.display())),
    }
}

/// What every traced closed loop ends with: the spans must account for the
/// traced wall (Σ self time ÷ wall in [0.9, 1.1]), the traced rate is set
/// against the untraced half's, and the span file is written.
fn close_traced_loop(
    report: &mut Report,
    cfg: &RunConfig,
    workload: &str,
    trace: &Trace,
    traced_wall_ns: u64,
    traced_ops_per_s: f64,
    untraced_ops_per_s: f64,
) {
    let coverage = trace.coverage(traced_wall_ns);
    report.metric("driver.span_coverage", coverage);
    if !(0.9..=1.1).contains(&coverage) {
        report.fail(1, format!("span self times cover {coverage:.3} of the traced wall"));
    }
    report.metric("driver.trace_overhead_frac", 1.0 - traced_ops_per_s / untraced_ops_per_s);
    write_trace(report, cfg, workload, trace);
}
