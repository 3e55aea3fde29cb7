//! Prometheus-text-format exposition of query-set and service metrics.
//!
//! [`render`] turns a batch of [`QuerySetReport`]s (plus an optional
//! [`ServiceHealth`] snapshot) into the Prometheus text exposition format
//! (version 0.0.4): for each metric name one `# HELP` line, one `# TYPE`
//! line, then every sample for that name. Histograms use the fixed log2
//! buckets of [`LatencyHistogram`] converted to seconds; bucket lines are
//! cumulative, sparse (empty buckets are skipped), and always end with the
//! mandatory `le="+Inf"` sample. A metric name is never emitted twice, which
//! the golden-format test (`tests/metrics_format.rs`) enforces.

use std::fmt::Write as _;

use sqp_matching::Phase;

use crate::breaker::BreakerState;
use crate::continuous::ContinuousStats;
use crate::coordinator::ShardPeerStats;
use crate::engine::QueryStatus;
use crate::journal::JournalStats;
use crate::metrics::{LatencyHistogram, QuerySetReport, ServiceHealth, HISTOGRAM_BUCKETS};

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float the way Prometheus expects (`+Inf` handled by callers;
/// integral values without a trailing `.0` are fine in the text format).
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One metric family: buffered samples emitted under a single HELP/TYPE
/// header so a name never appears with two headers.
struct Family {
    name: &'static str,
    help: &'static str,
    kind: &'static str,
    samples: Vec<String>,
}

/// Prometheus text writer. Register each family once; samples buffer under
/// their family and `finish` renders families in registration order.
struct PromWriter {
    families: Vec<Family>,
}

impl PromWriter {
    fn new() -> Self {
        Self { families: Vec::new() }
    }

    fn family(&mut self, name: &'static str, kind: &'static str, help: &'static str) {
        debug_assert!(
            self.families.iter().all(|f| f.name != name),
            "duplicate metric family {name}"
        );
        self.families.push(Family { name, help, kind, samples: Vec::new() });
    }

    fn sample(&mut self, name: &'static str, suffix: &str, labels: &[(&str, String)], value: f64) {
        let family = match self.families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => return, // unregistered family: drop rather than corrupt output
        };
        let mut line = String::new();
        let _ = write!(line, "{name}{suffix}");
        if !labels.is_empty() {
            line.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "{k}=\"{}\"", escape_label(v));
            }
            line.push('}');
        }
        let _ = write!(line, " {}", fmt_value(value));
        family.samples.push(line);
    }

    fn finish(self) -> String {
        let mut out = String::new();
        for f in &self.families {
            if f.samples.is_empty() {
                continue;
            }
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind);
            for s in &f.samples {
                let _ = writeln!(out, "{s}");
            }
        }
        out
    }
}

/// Emits one histogram's cumulative bucket/sum/count samples. Nanosecond
/// bucket edges are converted to seconds; the all-ones top bucket folds into
/// the mandatory `+Inf` sample.
fn histogram_samples(
    w: &mut PromWriter,
    name: &'static str,
    base_labels: &[(&str, String)],
    h: &LatencyHistogram,
) {
    let mut cumulative = 0u64;
    for i in 0..HISTOGRAM_BUCKETS - 1 {
        let c = h.bucket_counts()[i];
        if c == 0 {
            continue;
        }
        cumulative += c;
        let le = LatencyHistogram::upper_edge(i) as f64 * 1e-9;
        let mut labels = base_labels.to_vec();
        labels.push(("le", format!("{le}")));
        w.sample(name, "_bucket", &labels, cumulative as f64);
    }
    let mut labels = base_labels.to_vec();
    labels.push(("le", "+Inf".to_string()));
    w.sample(name, "_bucket", &labels, h.count() as f64);
    w.sample(name, "_sum", base_labels, h.sum() as f64 * 1e-9);
    w.sample(name, "_count", base_labels, h.count() as f64);
}

/// Renders reports (and an optional service-health snapshot) in the
/// Prometheus text exposition format. Families with no samples are omitted
/// entirely (no orphan HELP/TYPE headers).
pub fn render(reports: &[QuerySetReport], health: Option<&ServiceHealth>) -> String {
    render_full(reports, health, None)
}

/// Renders the coordinator's per-peer shard counters as their own
/// `sqp_shard_*` families (appended after [`render`] output by the serve
/// front end — family names are disjoint from the core exposition, so the
/// "one HELP/TYPE header per name" invariant holds across the
/// concatenation).
pub fn render_shards(peers: &[ShardPeerStats]) -> String {
    let mut w = PromWriter::new();
    w.family(
        "sqp_shard_queries_total",
        "counter",
        "Queries scattered to each shard peer (breaker short-circuits excluded).",
    );
    w.family("sqp_shard_retries_total", "counter", "Transport retries spent on each shard peer.");
    w.family(
        "sqp_shard_unavailable_total",
        "counter",
        "Queries on which a shard peer ended Unavailable (dead, over budget, or corrupting).",
    );
    w.family(
        "sqp_shard_breaker_state",
        "gauge",
        "Per-peer circuit breaker state (0 = closed, 1 = half-open, 2 = open).",
    );
    for p in peers {
        let labels = &[("peer", p.addr.clone()), ("shard", p.shard_index.to_string())];
        w.sample("sqp_shard_queries_total", "", labels, p.queries as f64);
        w.sample("sqp_shard_retries_total", "", labels, p.retries as f64);
        w.sample("sqp_shard_unavailable_total", "", labels, p.unavailable as f64);
        let state = match p.state {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        };
        w.sample("sqp_shard_breaker_state", "", labels, state);
    }
    w.finish()
}

/// Continuous-query (dynamic graph) service counters, for `sqp update` and
/// the serving layer's interleaved update/query mode.
pub fn render_continuous(stats: &ContinuousStats) -> String {
    let mut w = PromWriter::new();
    w.family(
        "sqp_updates_applied_total",
        "counter",
        "Graph updates applied to the overlay (duplicate-edge no-ops excluded).",
    );
    w.family("sqp_update_batches_total", "counter", "Update batches accepted atomically.");
    w.family(
        "sqp_update_batches_rejected_total",
        "counter",
        "Malformed update batches rejected atomically (overlay untouched).",
    );
    w.family(
        "sqp_compactions_total",
        "counter",
        "Overlay-to-CSR compactions performed by the compaction policy.",
    );
    w.family(
        "sqp_continuous_repairs_total",
        "counter",
        "Standing-query repair passes executed (one per query per batch).",
    );
    w.family(
        "sqp_continuous_embeddings_added_total",
        "counter",
        "Embeddings added to standing sets by repair.",
    );
    w.family(
        "sqp_continuous_embeddings_removed_total",
        "counter",
        "Embeddings invalidated from standing sets by repair.",
    );
    w.family("sqp_continuous_standing_queries", "gauge", "Currently-registered standing queries.");
    w.family(
        "sqp_continuous_queries_served_total",
        "counter",
        "One-shot snapshot queries served against the overlay.",
    );
    w.sample("sqp_updates_applied_total", "", &[], stats.updates_applied as f64);
    w.sample("sqp_update_batches_total", "", &[], stats.update_batches as f64);
    w.sample("sqp_update_batches_rejected_total", "", &[], stats.batches_rejected as f64);
    w.sample("sqp_compactions_total", "", &[], stats.compactions as f64);
    w.sample("sqp_continuous_repairs_total", "", &[], stats.repairs as f64);
    w.sample("sqp_continuous_embeddings_added_total", "", &[], stats.embeddings_added as f64);
    w.sample("sqp_continuous_embeddings_removed_total", "", &[], stats.embeddings_removed as f64);
    w.sample("sqp_continuous_standing_queries", "", &[], stats.standing_queries as f64);
    w.sample("sqp_continuous_queries_served_total", "", &[], stats.queries_served as f64);
    w.finish()
}

/// [`render`] plus run-journal activity counters (`sqp query --journal`).
pub fn render_full(
    reports: &[QuerySetReport],
    health: Option<&ServiceHealth>,
    journal: Option<&JournalStats>,
) -> String {
    let mut w = PromWriter::new();
    w.family("sqp_queries_total", "counter", "Queries by engine, query set, and terminal status.");
    w.family(
        "sqp_censored_queries_total",
        "counter",
        "Queries excluded from latency histograms (timed out at the budget or shed).",
    );
    w.family("sqp_query_seconds", "histogram", "End-to-end query latency over uncensored queries.");
    w.family("sqp_phase_seconds", "histogram", "Per-phase query latency over uncensored queries.");
    w.family(
        "sqp_phase_items_total",
        "counter",
        "Items processed per phase (candidates generated, embeddings found, SI tests).",
    );
    w.family(
        "sqp_kernel_intersections_total",
        "counter",
        "Pairwise sorted-set intersections executed by the enumeration kernel.",
    );
    w.family(
        "sqp_kernel_gallop_hits_total",
        "counter",
        "Intersections that took the galloping kernel.",
    );
    w.family(
        "sqp_kernel_simd_hits_total",
        "counter",
        "Intersections that took a vectorized (SSE/AVX2) block kernel.",
    );
    w.family(
        "sqp_kernel_bitmap_probes_total",
        "counter",
        "Single-bit membership probes (labels and hub adjacency bitmaps).",
    );
    w.family("sqp_retries_total", "counter", "Panic retries spent by the runner.");
    w.family("sqp_service_queue_depth", "gauge", "Admitted queries waiting to start.");
    w.family("sqp_service_inflight", "gauge", "Queries currently executing.");
    w.family("sqp_service_draining", "gauge", "Whether the service has stopped admitting.");
    w.family("sqp_service_admitted_total", "counter", "Queries admitted since service start.");
    w.family(
        "sqp_service_finished_total",
        "counter",
        "Admitted queries that reached a terminal status.",
    );
    w.family("sqp_service_shed_total", "counter", "Queries shed, by reason.");
    w.family("sqp_service_open_breakers", "gauge", "Circuit breakers currently open.");
    w.family("sqp_service_half_open_breakers", "gauge", "Circuit breakers currently half-open.");
    w.family("sqp_service_breaker_trips_total", "counter", "Circuit-breaker trips since start.");
    w.family(
        "sqp_service_quarantined_results_total",
        "counter",
        "Per-graph short-circuits served from open breakers.",
    );
    w.family(
        "sqp_queries_wedged_total",
        "counter",
        "Queries escalated by the supervisor (worker stopped ticking and was abandoned).",
    );
    w.family(
        "sqp_workers_replaced_total",
        "counter",
        "Pool workers abandoned by the supervisor and replaced.",
    );
    w.family("sqp_journal_replayed_total", "counter", "Run-journal records recovered on resume.");
    w.family(
        "sqp_journal_appended_total",
        "counter",
        "Run-journal records appended by this process.",
    );
    w.family(
        "sqp_journal_skipped_total",
        "counter",
        "Queries skipped because the run journal already held their outcome.",
    );

    for report in reports {
        let base = vec![("engine", report.engine.clone()), ("query_set", report.query_set.clone())];
        for status in QueryStatus::LABELS {
            let n = report.records.iter().filter(|r| r.status.label() == status).count();
            if n == 0 {
                continue;
            }
            let mut labels = base.clone();
            labels.push(("status", status.to_string()));
            w.sample("sqp_queries_total", "", &labels, n as f64);
        }
        w.sample("sqp_censored_queries_total", "", &base, report.censored_count() as f64);
        histogram_samples(&mut w, "sqp_query_seconds", &base, &report.latency_histogram());
        let totals = report.phase_totals();
        for phase in Phase::ALL {
            let mut labels = base.clone();
            labels.push(("phase", phase.name().to_string()));
            histogram_samples(&mut w, "sqp_phase_seconds", &labels, &report.phase_histogram(phase));
            w.sample("sqp_phase_items_total", "", &labels, totals.items_of(phase) as f64);
        }
        let k = report.kernel_totals();
        w.sample("sqp_kernel_intersections_total", "", &base, k.intersections as f64);
        w.sample("sqp_kernel_gallop_hits_total", "", &base, k.gallop_hits as f64);
        w.sample("sqp_kernel_simd_hits_total", "", &base, k.simd_hits as f64);
        w.sample("sqp_kernel_bitmap_probes_total", "", &base, k.bitmap_probes as f64);
        w.sample("sqp_retries_total", "", &base, report.total_retries() as f64);
    }

    if let Some(h) = health {
        w.sample("sqp_service_queue_depth", "", &[], h.queue_depth as f64);
        w.sample("sqp_service_inflight", "", &[], h.inflight as f64);
        w.sample("sqp_service_draining", "", &[], if h.draining { 1.0 } else { 0.0 });
        w.sample("sqp_service_admitted_total", "", &[], h.admitted as f64);
        w.sample("sqp_service_finished_total", "", &[], h.finished as f64);
        for (reason, n) in [
            ("queue_full", h.shed_queue_full),
            ("deadline", h.shed_deadline),
            ("draining", h.shed_draining),
        ] {
            w.sample("sqp_service_shed_total", "", &[("reason", reason.to_string())], n as f64);
        }
        w.sample("sqp_service_open_breakers", "", &[], h.open_breakers as f64);
        w.sample("sqp_service_half_open_breakers", "", &[], h.half_open_breakers as f64);
        w.sample("sqp_service_breaker_trips_total", "", &[], h.breaker_trips as f64);
        w.sample(
            "sqp_service_quarantined_results_total",
            "",
            &[],
            h.quarantined_graph_results as f64,
        );
        w.sample("sqp_queries_wedged_total", "", &[], h.wedged_queries as f64);
        w.sample("sqp_workers_replaced_total", "", &[], h.workers_replaced as f64);
    }

    if let Some(j) = journal {
        w.sample("sqp_journal_replayed_total", "", &[], j.replayed as f64);
        w.sample("sqp_journal_appended_total", "", &[], j.appended as f64);
        w.sample("sqp_journal_skipped_total", "", &[], j.skipped as f64);
    }

    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QueryRecord;
    use std::time::Duration;

    fn report() -> QuerySetReport {
        let mut r = QuerySetReport::new("CFQL", "Q8S");
        let mut rec = QueryRecord {
            filter_time: Duration::from_millis(3),
            verify_time: Duration::from_millis(1),
            ..Default::default()
        };
        rec.phases.nanos[Phase::Enumerate.index()] = 1_000_000;
        rec.phases.items[Phase::Enumerate.index()] = 42;
        rec.kernel.intersections = 7;
        r.records.push(rec);
        r.records.push(QueryRecord { status: QueryStatus::TimedOut, ..Default::default() });
        r
    }

    #[test]
    fn renders_help_type_then_samples() {
        let out = render(&[report()], None);
        let help = out.find("# HELP sqp_queries_total").unwrap();
        let ty = out.find("# TYPE sqp_queries_total counter").unwrap();
        let sample = out.find("sqp_queries_total{engine=\"CFQL\"").unwrap();
        assert!(help < ty && ty < sample);
        assert!(out.contains("status=\"completed\"} 1"));
        assert!(out.contains("status=\"timed_out\"} 1"));
        assert!(out.contains("sqp_censored_queries_total{engine=\"CFQL\",query_set=\"Q8S\"} 1"));
    }

    #[test]
    fn histogram_has_cumulative_buckets_and_inf() {
        let out = render(&[report()], None);
        assert!(out.contains("sqp_query_seconds_bucket"));
        let inf = "le=\"+Inf\"} 1";
        assert!(out.lines().any(|l| l.starts_with("sqp_query_seconds_bucket") && l.ends_with(inf)));
        assert!(out.contains("sqp_query_seconds_count{engine=\"CFQL\",query_set=\"Q8S\"} 1"));
    }

    #[test]
    fn no_duplicate_metric_headers() {
        let out = render(&[report(), report()], Some(&ServiceHealth::default()));
        let types: Vec<&str> = out.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let mut names: Vec<&str> =
            types.iter().map(|l| l.split_whitespace().nth(2).unwrap()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn empty_families_are_omitted() {
        let out = render(&[], None);
        assert!(out.is_empty());
    }

    #[test]
    fn continuous_families_render_counters_and_gauge() {
        let stats = ContinuousStats {
            updates_applied: 42,
            update_batches: 7,
            batches_rejected: 1,
            compactions: 2,
            repairs: 21,
            embeddings_added: 5,
            embeddings_removed: 3,
            standing_queries: 3,
            queries_served: 9,
        };
        let out = render_continuous(&stats);
        assert!(out.contains("# TYPE sqp_updates_applied_total counter"));
        assert!(out.contains("sqp_updates_applied_total 42"));
        assert!(out.contains("sqp_update_batches_total 7"));
        assert!(out.contains("sqp_update_batches_rejected_total 1"));
        assert!(out.contains("sqp_compactions_total 2"));
        assert!(out.contains("sqp_continuous_repairs_total 21"));
        assert!(out.contains("sqp_continuous_embeddings_added_total 5"));
        assert!(out.contains("sqp_continuous_embeddings_removed_total 3"));
        assert!(out.contains("# TYPE sqp_continuous_standing_queries gauge"));
        assert!(out.contains("sqp_continuous_standing_queries 3"));
        assert!(out.contains("sqp_continuous_queries_served_total 9"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
