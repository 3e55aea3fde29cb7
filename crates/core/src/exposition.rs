//! Prometheus-text-format exposition of every counter the project serves.
//!
//! [`render`] turns one [`Sources`] — query-set [`QueryTotals`], a
//! [`ServiceHealth`] snapshot, [`JournalStats`], per-peer
//! [`ShardPeerStats`] and [`ContinuousStats`], each optional — into the
//! Prometheus text exposition format (version 0.0.4): for each metric name
//! one `# HELP` line, one `# TYPE` line, then every sample for that name.
//! Every family is declared once, in one table in emission order (query
//! families, then service, journal, shard, continuous); a family with no
//! samples is omitted entirely. Histograms use the fixed log2 buckets of
//! [`LatencyHistogram`] converted to seconds; bucket lines are cumulative,
//! sparse (empty buckets are skipped), and always end with the mandatory
//! `le="+Inf"` sample. A metric name is never emitted twice, which the
//! golden-format test (`tests/metrics_format.rs`) enforces.

use std::fmt::Write as _;

use sqp_matching::Phase;

use crate::breaker::BreakerState;
use crate::continuous::ContinuousStats;
use crate::coordinator::ShardPeerStats;
use crate::engine::QueryStatus;
use crate::journal::JournalStats;
use crate::metrics::{LatencyHistogram, QueryTotals, ServiceHealth, HISTOGRAM_BUCKETS};

/// What one exposition shows. Every source is optional: an empty slice or
/// `None` renders none of its families.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sources<'a> {
    /// Query sets, each under its `engine` and `query_set` labels.
    pub sets: &'a [QueryTotals],
    /// The serving front's admission, breaker and supervision counters.
    pub health: Option<&'a ServiceHealth>,
    /// Run-journal activity (`sqp query --journal`).
    pub journal: Option<&'a JournalStats>,
    /// The coordinator's per-peer counters.
    pub peers: &'a [ShardPeerStats],
    /// Continuous-query (dynamic graph) service counters (`sqp update`).
    pub continuous: Option<&'a ContinuousStats>,
}

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

/// Every metric family, in emission order: `name kind help`, one a line.
const FAMILIES: &str = "\
sqp_queries_total counter Queries by engine, query set, and terminal status.
sqp_censored_queries_total counter Queries excluded from latency histograms (timed out at the budget or shed).
sqp_query_seconds histogram End-to-end query latency over uncensored queries.
sqp_phase_seconds histogram Per-phase query latency over uncensored queries.
sqp_phase_items_total counter Items processed per phase (candidates generated, embeddings found, SI tests).
sqp_kernel_intersections_total counter Pairwise sorted-set intersections executed by the enumeration kernel.
sqp_kernel_gallop_hits_total counter Intersections that took the galloping kernel.
sqp_kernel_simd_hits_total counter Intersections that took a vectorized (SSE/AVX2) block kernel.
sqp_kernel_bitmap_probes_total counter Single-bit membership probes (labels and hub adjacency bitmaps).
sqp_retries_total counter Panic retries spent by the runner.
sqp_service_queue_depth gauge Admitted queries waiting to start.
sqp_service_inflight gauge Queries currently executing.
sqp_service_draining gauge Whether the service has stopped admitting.
sqp_service_admitted_total counter Queries admitted since service start.
sqp_service_finished_total counter Admitted queries that reached a terminal status.
sqp_service_shed_total counter Queries shed, by reason.
sqp_service_open_breakers gauge Circuit breakers currently open.
sqp_service_half_open_breakers gauge Circuit breakers currently half-open.
sqp_service_breaker_trips_total counter Circuit-breaker trips since start.
sqp_service_quarantined_results_total counter Per-graph short-circuits served from open breakers.
sqp_queries_wedged_total counter Queries escalated by the supervisor (worker stopped ticking and was abandoned).
sqp_workers_replaced_total counter Pool workers abandoned by the supervisor and replaced.
sqp_journal_replayed_total counter Run-journal records recovered on resume.
sqp_journal_appended_total counter Run-journal records appended by this process.
sqp_journal_skipped_total counter Queries skipped because the run journal already held their outcome.
sqp_shard_queries_total counter Queries scattered to each shard peer (breaker short-circuits excluded).
sqp_shard_retries_total counter Transport retries spent on each shard peer.
sqp_shard_unavailable_total counter Queries on which a shard peer ended Unavailable (dead, over budget, or corrupting).
sqp_shard_breaker_state gauge Per-peer circuit breaker state (0 = closed, 1 = half-open, 2 = open).
sqp_updates_applied_total counter Graph updates applied to the overlay (duplicate-edge no-ops excluded).
sqp_update_batches_total counter Update batches accepted atomically.
sqp_update_batches_rejected_total counter Malformed update batches rejected atomically (overlay untouched).
sqp_compactions_total counter Overlay-to-CSR compactions performed by the compaction policy.
sqp_continuous_repairs_total counter Standing-query repair passes executed (one per query per batch).
sqp_continuous_embeddings_added_total counter Embeddings added to standing sets by repair.
sqp_continuous_embeddings_removed_total counter Embeddings invalidated from standing sets by repair.
sqp_continuous_standing_queries gauge Currently-registered standing queries.
sqp_continuous_queries_served_total counter One-shot snapshot queries served against the overlay.";

type Labels<'a> = [(&'a str, String)];

/// A family of one sample per source item, and how to read it.
type PerItem<T> = (&'static str, fn(&T) -> u64);

/// Prometheus text writer. A family's HELP/TYPE header, read from
/// [`FAMILIES`], is written with its first sample, so a family without
/// samples leaves no trace; families must be written in table order, which
/// keeps every name under one header.
struct PromWriter {
    out: String,
    families: std::str::Lines<'static>,
    current: &'static str,
}

impl PromWriter {
    fn new() -> Self {
        Self { out: String::new(), families: FAMILIES.lines(), current: "" }
    }

    fn sample(&mut self, name: &'static str, suffix: &str, labels: &Labels, value: f64) {
        if name != self.current {
            let header = self.families.find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
            let Some((kind, help)) = header.and_then(|h| h.split_once(' ')) else {
                debug_assert!(false, "family {name} is not in FAMILIES after {}", self.current);
                return;
            };
            let _ = writeln!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}");
            self.current = name;
        }
        let _ = write!(self.out, "{name}{suffix}");
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {}", fmt_value(value));
    }

    /// One unlabelled sample.
    fn put(&mut self, name: &'static str, value: u64) {
        self.sample(name, "", &[], value as f64);
    }

    /// Emits one histogram's cumulative bucket/sum/count samples.
    /// Nanosecond bucket edges are converted to seconds; the all-ones top
    /// bucket folds into the mandatory `+Inf` sample.
    fn histogram(&mut self, name: &'static str, base: &Labels, h: &LatencyHistogram) {
        let mut cumulative = 0u64;
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let c = h.bucket_counts()[i];
            if c == 0 {
                continue;
            }
            cumulative += c;
            let le = LatencyHistogram::upper_edge(i) as f64 * 1e-9;
            self.sample(
                name,
                "_bucket",
                &with_label(base, "le", &format!("{le}")),
                cumulative as f64,
            );
        }
        self.sample(name, "_bucket", &with_label(base, "le", "+Inf"), h.count() as f64);
        self.sample(name, "_sum", base, h.sum() as f64 * 1e-9);
        self.sample(name, "_count", base, h.count() as f64);
    }
}

fn with_label<'a>(base: &Labels<'a>, key: &'a str, value: &str) -> Vec<(&'a str, String)> {
    let mut labels = base.to_vec();
    labels.push((key, value.to_string()));
    labels
}

/// Renders `src` in the Prometheus text exposition format.
pub fn render(src: &Sources) -> String {
    let mut w = PromWriter::new();
    let sets: Vec<_> = src
        .sets
        .iter()
        .map(|t| (t, [("engine", t.engine.clone()), ("query_set", t.query_set.clone())]))
        .collect();
    for (t, base) in &sets {
        for (status, &n) in QueryStatus::LABELS.iter().zip(&t.by_status).filter(|(_, &n)| n > 0) {
            w.sample("sqp_queries_total", "", &with_label(base, "status", status), n as f64);
        }
    }
    for (t, base) in &sets {
        w.sample("sqp_censored_queries_total", "", base, t.censored as f64);
    }
    for (t, base) in &sets {
        w.histogram("sqp_query_seconds", base, &t.latency);
    }
    for (t, base) in &sets {
        for phase in Phase::ALL {
            let labels = with_label(base, "phase", phase.name());
            w.histogram("sqp_phase_seconds", &labels, &t.phase_latency[phase.index()]);
        }
    }
    for (t, base) in &sets {
        for phase in Phase::ALL {
            let labels = with_label(base, "phase", phase.name());
            w.sample("sqp_phase_items_total", "", &labels, t.phases.items_of(phase) as f64);
        }
    }
    let per_set: [PerItem<QueryTotals>; 5] = [
        ("sqp_kernel_intersections_total", |t| t.kernel.intersections),
        ("sqp_kernel_gallop_hits_total", |t| t.kernel.gallop_hits),
        ("sqp_kernel_simd_hits_total", |t| t.kernel.simd_hits),
        ("sqp_kernel_bitmap_probes_total", |t| t.kernel.bitmap_probes),
        ("sqp_retries_total", |t| t.retries),
    ];
    for (name, value) in per_set {
        for (t, base) in &sets {
            w.sample(name, "", base, value(t) as f64);
        }
    }

    if let Some(h) = src.health {
        w.put("sqp_service_queue_depth", h.queue_depth as u64);
        w.put("sqp_service_inflight", h.inflight as u64);
        w.put("sqp_service_draining", u64::from(h.draining));
        w.put("sqp_service_admitted_total", h.admitted);
        w.put("sqp_service_finished_total", h.finished);
        for (reason, n) in [
            ("queue_full", h.shed_queue_full),
            ("deadline", h.shed_deadline),
            ("draining", h.shed_draining),
        ] {
            w.sample("sqp_service_shed_total", "", &[("reason", reason.to_string())], n as f64);
        }
        w.put("sqp_service_open_breakers", h.open_breakers as u64);
        w.put("sqp_service_half_open_breakers", h.half_open_breakers as u64);
        w.put("sqp_service_breaker_trips_total", h.breaker_trips);
        w.put("sqp_service_quarantined_results_total", h.quarantined_graph_results);
        w.put("sqp_queries_wedged_total", h.wedged_queries);
        w.put("sqp_workers_replaced_total", h.workers_replaced);
    }

    if let Some(j) = src.journal {
        w.put("sqp_journal_replayed_total", j.replayed);
        w.put("sqp_journal_appended_total", j.appended);
        w.put("sqp_journal_skipped_total", j.skipped);
    }

    let per_peer: [PerItem<ShardPeerStats>; 4] = [
        ("sqp_shard_queries_total", |p| p.queries),
        ("sqp_shard_retries_total", |p| p.retries),
        ("sqp_shard_unavailable_total", |p| p.unavailable),
        ("sqp_shard_breaker_state", |p| match p.state {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }),
    ];
    for (name, value) in per_peer {
        for p in src.peers {
            let labels = [("peer", p.addr.clone()), ("shard", p.shard_index.to_string())];
            w.sample(name, "", &labels, value(p) as f64);
        }
    }

    if let Some(c) = src.continuous {
        w.put("sqp_updates_applied_total", c.updates_applied);
        w.put("sqp_update_batches_total", c.update_batches);
        w.put("sqp_update_batches_rejected_total", c.batches_rejected);
        w.put("sqp_compactions_total", c.compactions);
        w.put("sqp_continuous_repairs_total", c.repairs);
        w.put("sqp_continuous_embeddings_added_total", c.embeddings_added);
        w.put("sqp_continuous_embeddings_removed_total", c.embeddings_removed);
        w.put("sqp_continuous_standing_queries", c.standing_queries);
        w.put("sqp_continuous_queries_served_total", c.queries_served);
    }
    w.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{QueryRecord, QuerySetReport};
    use std::time::Duration;

    fn report() -> QueryTotals {
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
        r.totals()
    }

    fn sets(sets: &[QueryTotals]) -> String {
        render(&Sources { sets, ..Default::default() })
    }

    #[test]
    fn renders_help_type_then_samples() {
        let out = sets(&[report()]);
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
        let out = sets(&[report()]);
        assert!(out.contains("sqp_query_seconds_bucket"));
        let inf = "le=\"+Inf\"} 1";
        assert!(out.lines().any(|l| l.starts_with("sqp_query_seconds_bucket") && l.ends_with(inf)));
        assert!(out.contains("sqp_query_seconds_count{engine=\"CFQL\",query_set=\"Q8S\"} 1"));
    }

    #[test]
    fn no_duplicate_metric_headers() {
        let out = render(&Sources {
            sets: &[report(), report()],
            health: Some(&ServiceHealth::default()),
            ..Default::default()
        });
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
        let out = render(&Sources::default());
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
        let out = render(&Sources { continuous: Some(&stats), ..Default::default() });
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
