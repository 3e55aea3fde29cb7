//! Query and query-set metrics (§IV-A of the paper), with the structured
//! failure taxonomy rolled up per query set, per-phase timing breakdowns,
//! and fixed-bucket latency histograms.

use std::time::Duration;

use sqp_matching::{KernelStats, Phase, PhaseStats, PHASE_COUNT};

use crate::engine::{GraphFailure, QueryOutcome, QueryStatus};

/// Number of buckets in a [`LatencyHistogram`]: one zero bucket plus one per
/// possible `u64` bit length.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2 latency histogram with exact merge semantics.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]` — i.e. values of bit length `i`. Because bucket
/// boundaries are fixed (no adaptive resizing), merging two histograms is an
/// element-wise count addition and loses nothing: `merge(a, b)` has exactly
/// the bucket counts of the concatenated sample streams, which is what lets
/// per-worker and per-engine histograms be combined after the fact.
///
/// Quantiles are resolved to the *upper edge* of the bucket containing the
/// requested rank, so an estimate is always an upper bound within one
/// power of two of the true order statistic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { counts: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// A histogram of every sample in `iter`.
    pub fn from_samples(iter: impl IntoIterator<Item = u64>) -> Self {
        let mut h = Self::new();
        for v in iter {
            h.record(v);
        }
        h
    }

    /// The bucket index holding `value` (its bit length).
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The largest value bucket `i` can hold.
    pub fn upper_edge(i: usize) -> u64 {
        match i {
            0 => 0,
            1..=63 => (1u64 << i) - 1,
            _ => u64::MAX,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Adds `other`'s samples into `self` (exact: element-wise bucket-count
    /// addition).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for i in 0..HISTOGRAM_BUCKETS {
            self.counts[i] = self.counts[i].saturating_add(other.counts[i]);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The per-bucket counts.
    pub fn bucket_counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// The upper bucket edge containing the `q`-quantile sample
    /// (`0.0 < q <= 1.0`), or `None` for an empty histogram. Never panics:
    /// out-of-range `q` is clamped.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the requested order statistic, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(Self::upper_edge(i));
            }
        }
        // Unreachable while count == Σ counts; stay total anyway.
        Some(Self::upper_edge(HISTOGRAM_BUCKETS - 1))
    }

    /// Median upper bound (`None` when empty).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile upper bound (`None` when empty).
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile upper bound (`None` when empty).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// One query's measurements.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// Time in the filtering step.
    pub filter_time: Duration,
    /// Time in the verification step.
    pub verify_time: Duration,
    /// `|C(q)|`.
    pub candidates: usize,
    /// `|A(q)|`.
    pub answers: usize,
    /// How the query ended.
    pub status: QueryStatus,
    /// Per-graph failure attribution (sorted by graph id).
    pub failures: Vec<GraphFailure>,
    /// How many times the runner retried this query after a panic.
    pub retries: u32,
    /// Peak auxiliary-structure bytes.
    pub aux_bytes: usize,
    /// Enumeration-kernel counters (intersections, bitmap probes)
    /// accumulated across the query's matcher calls.
    pub kernel: KernelStats,
    /// Per-phase wall time (nanoseconds) and item counts accumulated by the
    /// tracing spans. Zeros when the query ran without an `ExecCtx`. Unlike
    /// `filter_time`/`verify_time`, phase nanos are never rescaled on
    /// timeout — they stay raw so histograms can exclude censored records
    /// instead of mixing in synthetic values.
    pub phases: PhaseStats,
}

impl Default for QueryRecord {
    fn default() -> Self {
        Self {
            filter_time: Duration::ZERO,
            verify_time: Duration::ZERO,
            candidates: 0,
            answers: 0,
            status: QueryStatus::Completed,
            failures: Vec::new(),
            retries: 0,
            aux_bytes: 0,
            kernel: KernelStats::default(),
            phases: PhaseStats::default(),
        }
    }
}

impl QueryRecord {
    /// Builds a record from an engine outcome, pinning a timed-out query's
    /// total to exactly `budget` (the paper records timeouts at the
    /// 10-minute limit). Measured totals can land on either side of the
    /// budget — over it when the last matcher call overshoots the deadline,
    /// under it when a parallel worker stops early on cooperative
    /// cancellation — so the times are rescaled in both directions,
    /// preserving the filter/verify split. Only wall-clock timeouts are
    /// pinned; panicked and resource-exhausted queries keep their measured
    /// times (they did not run to the limit).
    pub fn from_outcome(outcome: &QueryOutcome, budget: Option<Duration>) -> Self {
        let mut filter_time = outcome.filter_time;
        let mut verify_time = outcome.verify_time;
        if outcome.status.is_timed_out() {
            if let Some(b) = budget {
                let total = filter_time + verify_time;
                if total.is_zero() {
                    // Nothing measured (timed out before the first phase
                    // tick): attribute the whole budget to filtering.
                    filter_time = b;
                    verify_time = Duration::ZERO;
                } else {
                    let scale = b.as_secs_f64() / total.as_secs_f64();
                    filter_time = filter_time.mul_f64(scale);
                    verify_time = verify_time.mul_f64(scale);
                }
            }
        }
        Self {
            filter_time,
            verify_time,
            candidates: outcome.candidates,
            answers: outcome.answers.len(),
            status: outcome.status.clone(),
            failures: outcome.failures.clone(),
            retries: 0,
            aux_bytes: outcome.aux_bytes,
            kernel: outcome.kernel,
            phases: outcome.phases,
        }
    }

    /// Total query time.
    pub fn query_time(&self) -> Duration {
        self.filter_time + self.verify_time
    }

    /// Whether the wall-clock budget expired (back-compat helper).
    pub fn timed_out(&self) -> bool {
        self.status.is_timed_out()
    }
}

/// Aggregated measurements of one engine on one query set.
#[derive(Clone, Debug, Default)]
pub struct QuerySetReport {
    /// Engine name (e.g. `"CFQL"`).
    pub engine: String,
    /// Query-set name (e.g. `"Q8S"`).
    pub query_set: String,
    /// Per-query records, in query order.
    pub records: Vec<QueryRecord>,
}

impl QuerySetReport {
    /// Creates an empty report.
    pub fn new(engine: impl Into<String>, query_set: impl Into<String>) -> Self {
        Self { engine: engine.into(), query_set: query_set.into(), records: Vec::new() }
    }

    /// Appends the record of one finished query: [`QueryRecord::from_outcome`]
    /// under `budget`, with the `retries` spent on it.
    pub fn push_outcome(&mut self, outcome: &QueryOutcome, retries: u32, budget: Option<Duration>) {
        let mut record = QueryRecord::from_outcome(outcome, budget);
        record.retries = retries;
        self.records.push(record);
    }

    fn mean(&self, f: impl Fn(&QueryRecord) -> f64) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(f).sum::<f64>() / self.records.len() as f64
    }

    /// Average query time in milliseconds.
    pub fn avg_query_ms(&self) -> f64 {
        self.mean(|r| r.query_time().as_secs_f64() * 1e3)
    }

    /// Average filtering time in milliseconds.
    pub fn avg_filter_ms(&self) -> f64 {
        self.mean(|r| r.filter_time.as_secs_f64() * 1e3)
    }

    /// Average verification time in milliseconds.
    pub fn avg_verify_ms(&self) -> f64 {
        self.mean(|r| r.verify_time.as_secs_f64() * 1e3)
    }

    /// Filtering precision (Eq. 1): mean over queries of `|A(q)| / |C(q)|`.
    /// Queries with an empty candidate set count as precision 1 (the filter
    /// was perfect: nothing to verify, nothing missed).
    pub fn filtering_precision(&self) -> f64 {
        self.mean(|r| if r.candidates == 0 { 1.0 } else { r.answers as f64 / r.candidates as f64 })
    }

    /// Average `|C(q)|` (Figure 6).
    pub fn avg_candidates(&self) -> f64 {
        self.mean(|r| r.candidates as f64)
    }

    /// Average `|A(q)|`.
    pub fn avg_answers(&self) -> f64 {
        self.mean(|r| r.answers as f64)
    }

    /// Per-SI-test time in milliseconds (Eq. 3): mean over queries of
    /// `verification time / |C(q)|`; queries with no candidates contribute 0.
    pub fn per_si_test_ms(&self) -> f64 {
        self.mean(|r| {
            if r.candidates == 0 {
                0.0
            } else {
                r.verify_time.as_secs_f64() * 1e3 / r.candidates as f64
            }
        })
    }

    /// Fraction of queries that completed (any failure mode counts against
    /// completion).
    pub fn completion_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        let failed = self.records.iter().filter(|r| !r.status.is_completed()).count();
        1.0 - failed as f64 / self.records.len() as f64
    }

    /// Peak auxiliary bytes across the set.
    pub fn max_aux_bytes(&self) -> usize {
        self.records.iter().map(|r| r.aux_bytes).max().unwrap_or(0)
    }

    /// The paper omits an algorithm's results on a query set when it fails
    /// more than 40% of the queries; this implements that cutoff.
    pub fn should_omit(&self) -> bool {
        self.completion_rate() < 0.6
    }

    /// The set's records folded into counters and histograms.
    pub fn totals(&self) -> QueryTotals {
        let mut totals = QueryTotals::new(self.engine.clone(), self.query_set.clone());
        self.records.iter().for_each(|r| totals.add(r));
        totals
    }
}

/// The counters and histograms of a stream of [`QueryRecord`]s, folded as
/// they arrive: its size does not depend on how many records went in, so a
/// long-running server keeps one instead of its records.
///
/// A record is *censored* when its timings carry no real latency
/// observation: a timed-out query is pinned to exactly the budget by
/// [`QueryRecord::from_outcome`], and a shed, wedged or unavailable query
/// never ran (or never reported) to the end. Censored records are counted
/// by status and in `censored`, and left out of every histogram and timing
/// total. The mean-based accessors of [`QuerySetReport`] (`avg_query_ms`
/// &c.) still include pinned timeouts, matching the paper's convention.
#[derive(Clone, Debug, Default)]
pub struct QueryTotals {
    /// Engine name (e.g. `"CFQL"`).
    pub engine: String,
    /// Query-set name (e.g. `"Q8S"`).
    pub query_set: String,
    /// Records per terminal status, in the order of [`QueryStatus::LABELS`]
    /// (`by_status[0]` is completed).
    pub by_status: [u64; QueryStatus::LABELS.len()],
    /// Records left out of the histograms because their timings are censored.
    pub censored: u64,
    /// Retry attempts spent across the records.
    pub retries: u64,
    /// End-to-end query latency (nanoseconds) of uncensored records.
    pub latency: LatencyHistogram,
    /// Per-query time (nanoseconds) of each phase over uncensored records,
    /// indexed by [`Phase::index`].
    pub phase_latency: [LatencyHistogram; PHASE_COUNT],
    /// Per-phase nanos and item counts summed over uncensored records (the
    /// `compare --phases` table rows).
    pub phases: PhaseStats,
    /// Total wall time (nanoseconds) of uncensored records: what the phase
    /// breakdown should account for.
    pub wall_nanos: u64,
    /// Enumeration-kernel counters summed over every record.
    pub kernel: KernelStats,
}

impl QueryTotals {
    /// Empty totals under the given labels.
    pub fn new(engine: impl Into<String>, query_set: impl Into<String>) -> Self {
        Self { engine: engine.into(), query_set: query_set.into(), ..Self::default() }
    }

    /// Folds in one record.
    pub fn add(&mut self, r: &QueryRecord) {
        let s = &r.status;
        self.by_status[usize::from(s.severity())] += 1;
        self.retries += u64::from(r.retries);
        self.kernel.merge(&r.kernel);
        if s.is_timed_out() || s.is_shed() || s.is_wedged() || s.is_unavailable() {
            self.censored += 1;
            return;
        }
        let wall = r.query_time().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.latency.record(wall);
        self.wall_nanos = self.wall_nanos.saturating_add(wall);
        for phase in Phase::ALL {
            self.phase_latency[phase.index()].record(r.phases.nanos_of(phase));
        }
        self.phases.merge(&r.phases);
    }

    /// Records whose status carries `label`, one of [`QueryStatus::LABELS`].
    pub fn count(&self, label: &str) -> u64 {
        let index = QueryStatus::LABELS.iter().position(|l| *l == label);
        debug_assert!(index.is_some(), "unknown status label {label}");
        index.map_or(0, |i| self.by_status[i])
    }

    /// Records that ended in any state but completed.
    pub fn failures(&self) -> u64 {
        self.by_status[1..].iter().sum()
    }
}

/// A point-in-time snapshot of a `QueryService`'s serving state: queue and
/// breaker occupancy plus monotonic degradation counters. Produced by
/// `QueryService::health`; all counters are totals since service start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceHealth {
    /// Queries admitted but not yet started.
    pub queue_depth: usize,
    /// Queries currently executing (0 or 1 — the pool serializes queries).
    pub inflight: usize,
    /// Whether the service has stopped admitting (drain in progress).
    pub draining: bool,
    /// Queries admitted since start.
    pub admitted: u64,
    /// Admitted queries that reached a terminal status through execution.
    pub finished: u64,
    /// Queries shed because the submission queue was full.
    pub shed_queue_full: u64,
    /// Queries shed because the predicted wait + service time exceeded the
    /// query budget.
    pub shed_deadline: u64,
    /// Queries shed because the service was draining, plus any backlog
    /// resolved as shed when the drain deadline expired.
    pub shed_draining: u64,
    /// Breakers currently open (graphs quarantined).
    pub open_breakers: usize,
    /// Breakers currently half-open (awaiting a probe result).
    pub half_open_breakers: usize,
    /// Total breaker trips (Closed→Open and HalfOpen→Open).
    pub breaker_trips: u64,
    /// Total per-graph short-circuits served from open breakers.
    pub quarantined_graph_results: u64,
    /// Queries escalated as wedged by the pool supervisor (a worker stopped
    /// ticking past the deadline grace and was abandoned).
    pub wedged_queries: u64,
    /// Worker threads abandoned and replaced by the pool supervisor.
    pub workers_replaced: u64,
}

impl ServiceHealth {
    /// Total queries shed for any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_draining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::database::GraphId;
    use sqp_matching::ResourceKind;

    fn record(filter_ms: u64, verify_ms: u64, cands: usize, answers: usize) -> QueryRecord {
        QueryRecord {
            filter_time: Duration::from_millis(filter_ms),
            verify_time: Duration::from_millis(verify_ms),
            candidates: cands,
            answers,
            ..Default::default()
        }
    }

    fn with_status(status: QueryStatus) -> QueryRecord {
        QueryRecord { status, ..Default::default() }
    }

    #[test]
    fn precision_matches_eq1() {
        let mut r = QuerySetReport::new("CFQL", "Q4S");
        r.records.push(record(1, 1, 4, 2)); // 0.5
        r.records.push(record(1, 1, 2, 2)); // 1.0
        assert!((r.filtering_precision() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_candidate_set_counts_as_perfect() {
        let mut r = QuerySetReport::new("CFQL", "Q4S");
        r.records.push(record(1, 0, 0, 0));
        assert_eq!(r.filtering_precision(), 1.0);
        assert_eq!(r.per_si_test_ms(), 0.0);
    }

    #[test]
    fn per_si_test_matches_eq3() {
        let mut r = QuerySetReport::new("VF2", "Q4S");
        r.records.push(record(0, 10, 5, 1)); // 2 ms per test
        r.records.push(record(0, 12, 3, 0)); // 4 ms per test
        assert!((r.per_si_test_ms() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn averages() {
        let mut r = QuerySetReport::new("X", "Q");
        r.records.push(record(2, 4, 10, 5));
        r.records.push(record(4, 8, 20, 5));
        assert!((r.avg_filter_ms() - 3.0).abs() < 1e-9);
        assert!((r.avg_verify_ms() - 6.0).abs() < 1e-9);
        assert!((r.avg_query_ms() - 9.0).abs() < 1e-9);
        assert!((r.avg_candidates() - 15.0).abs() < 1e-9);
        assert!((r.avg_answers() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn timeout_clamping_and_omission() {
        let outcome = QueryOutcome {
            answers: vec![GraphId(0)],
            candidates: 3,
            filter_time: Duration::from_millis(400),
            verify_time: Duration::from_millis(1600),
            status: QueryStatus::TimedOut,
            ..Default::default()
        };
        let r = QueryRecord::from_outcome(&outcome, Some(Duration::from_millis(1000)));
        assert!(r.timed_out());
        assert!((r.query_time().as_secs_f64() - 1.0).abs() < 1e-6);
        // Split preserved 1:4.
        assert!((r.filter_time.as_secs_f64() - 0.2).abs() < 1e-6);

        let mut rep = QuerySetReport::new("X", "Q");
        for _ in 0..5 {
            rep.records.push(r.clone());
        }
        assert_eq!(rep.totals().count("timed_out"), 5);
        assert!(rep.should_omit());
    }

    #[test]
    fn timeout_under_budget_recorded_at_exactly_budget() {
        // A cancelled parallel query stops early: measured CPU time is
        // *below* the budget. The record must still land exactly on the
        // budget, preserving the 1:3 filter/verify split.
        let outcome = QueryOutcome {
            answers: vec![],
            candidates: 2,
            filter_time: Duration::from_millis(50),
            verify_time: Duration::from_millis(150),
            status: QueryStatus::TimedOut,
            ..Default::default()
        };
        let r = QueryRecord::from_outcome(&outcome, Some(Duration::from_millis(1000)));
        assert!((r.query_time().as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((r.filter_time.as_secs_f64() - 0.25).abs() < 1e-6);
        assert!((r.verify_time.as_secs_f64() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn timeout_with_zero_measured_time_charges_budget_to_filter() {
        let outcome = QueryOutcome { status: QueryStatus::TimedOut, ..Default::default() };
        let r = QueryRecord::from_outcome(&outcome, Some(Duration::from_millis(700)));
        assert_eq!(r.filter_time, Duration::from_millis(700));
        assert_eq!(r.verify_time, Duration::ZERO);
        assert_eq!(r.query_time(), Duration::from_millis(700));
    }

    #[test]
    fn untimed_out_records_are_not_rescaled() {
        let outcome = QueryOutcome {
            filter_time: Duration::from_millis(5),
            verify_time: Duration::from_millis(7),
            ..Default::default()
        };
        let r = QueryRecord::from_outcome(&outcome, Some(Duration::from_millis(1000)));
        assert_eq!(r.filter_time, Duration::from_millis(5));
        assert_eq!(r.verify_time, Duration::from_millis(7));
    }

    #[test]
    fn panicked_and_exhausted_records_are_not_pinned_to_budget() {
        // Only wall-clock timeouts are recorded at the limit; a panicked or
        // resource-exhausted query keeps its measured (partial) time.
        for status in [
            QueryStatus::Panicked { message: "boom".into() },
            QueryStatus::ResourceExhausted { kind: ResourceKind::Steps },
        ] {
            let outcome = QueryOutcome {
                filter_time: Duration::from_millis(10),
                verify_time: Duration::from_millis(30),
                status: status.clone(),
                ..Default::default()
            };
            let r = QueryRecord::from_outcome(&outcome, Some(Duration::from_secs(600)));
            assert_eq!(r.status, status);
            assert!(!r.timed_out());
            assert_eq!(r.query_time(), Duration::from_millis(40));
        }
    }

    #[test]
    fn status_rollups_are_disjoint() {
        let mut rep = QuerySetReport::new("X", "Q");
        rep.records.push(record(1, 1, 1, 1));
        rep.records.push(with_status(QueryStatus::TimedOut));
        rep.records.push(with_status(QueryStatus::TimedOut));
        rep.records.push(with_status(QueryStatus::Panicked { message: "p".into() }));
        rep.records
            .push(with_status(QueryStatus::ResourceExhausted { kind: ResourceKind::Memory }));
        let mut retried = record(1, 1, 1, 1);
        retried.retries = 2;
        rep.records.push(retried);

        let t = rep.totals();
        assert_eq!(t.count("timed_out"), 2);
        assert_eq!(t.count("panicked"), 1);
        assert_eq!(t.count("resource_exhausted"), 1);
        assert_eq!(t.failures(), 4);
        assert_eq!(t.retries, 2);
        assert!((rep.completion_rate() - 2.0 / 6.0).abs() < 1e-9);
        assert!(rep.should_omit());
    }

    #[test]
    fn shed_and_quarantined_rollups() {
        let mut rep = QuerySetReport::new("X", "Q");
        rep.records.push(record(1, 1, 1, 1));
        rep.records.push(with_status(QueryStatus::Shed));
        rep.records.push(with_status(QueryStatus::Shed));
        rep.records.push(with_status(QueryStatus::Quarantined));
        let t = rep.totals();
        assert_eq!(t.count("shed"), 2);
        assert_eq!(t.count("quarantined"), 1);
        assert_eq!(t.failures(), 3);
        // Shed/quarantined records are never pinned to the budget.
        let shed = QueryRecord::from_outcome(&QueryOutcome::shed(), Some(Duration::from_secs(1)));
        assert_eq!(shed.query_time(), Duration::ZERO);
        assert!(shed.status.is_shed());
    }

    #[test]
    fn service_health_shed_total() {
        let h = ServiceHealth {
            shed_queue_full: 2,
            shed_deadline: 3,
            shed_draining: 4,
            ..Default::default()
        };
        assert_eq!(h.shed_total(), 9);
    }

    #[test]
    fn empty_report_defaults() {
        let r = QuerySetReport::new("X", "Q");
        assert_eq!(r.avg_query_ms(), 0.0);
        assert_eq!(r.completion_rate(), 1.0);
        assert_eq!(r.totals().retries, 0);
        assert!(!r.should_omit());
    }

    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LatencyHistogram::upper_edge(0), 0);
        assert_eq!(LatencyHistogram::upper_edge(1), 1);
        assert_eq!(LatencyHistogram::upper_edge(2), 3);
        assert_eq!(LatencyHistogram::upper_edge(64), u64::MAX);
        // Every value lands in a bucket whose edge bounds it from above.
        for v in [0u64, 1, 7, 8, 1023, 1024, 1 << 40, u64::MAX] {
            assert!(v <= LatencyHistogram::upper_edge(LatencyHistogram::bucket_of(v)));
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::from_samples([1u64, 2, 3, 100, 1000]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        // Median sample is 3 → bucket [2,3] → upper edge 3.
        assert_eq!(h.p50(), Some(3));
        // p99 rank = ceil(0.99 * 5) = 5 → the 1000 sample → bucket [512,1023].
        assert_eq!(h.p99(), Some(1023));
        assert!(h.quantile(0.0) == Some(1) || h.quantile(0.0) == Some(0));
    }

    #[test]
    fn empty_histogram_quantiles_are_none() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn histogram_merge_equals_concatenation() {
        let xs = [0u64, 5, 9, 17, 300];
        let ys = [2u64, 5, 1 << 20, u64::MAX];
        let mut a = LatencyHistogram::from_samples(xs);
        let b = LatencyHistogram::from_samples(ys);
        a.merge(&b);
        let both = LatencyHistogram::from_samples(xs.iter().chain(ys.iter()).copied());
        assert_eq!(a, both);
        assert_eq!(a.count(), 9);
    }

    #[test]
    fn censored_records_are_excluded_from_histograms() {
        let mut r = QuerySetReport::new("X", "Q");
        let mut good = record(1, 1, 1, 1);
        good.phases.nanos[Phase::Filter.index()] = 500;
        r.records.push(good);
        let mut timed_out = with_status(QueryStatus::TimedOut);
        timed_out.filter_time = Duration::from_secs(600); // pinned at budget
        timed_out.phases.nanos[Phase::Filter.index()] = 9999;
        r.records.push(timed_out);
        r.records.push(with_status(QueryStatus::Shed));
        r.records.push(with_status(QueryStatus::Unavailable));

        let t = r.totals();
        assert_eq!(t.count("unavailable"), 1);
        assert_eq!(t.censored, 3);
        assert_eq!(t.latency.count(), 1);
        assert_eq!(t.phase_latency[Phase::Filter.index()].count(), 1);
        assert_eq!(t.phases.nanos_of(Phase::Filter), 500);
        assert_eq!(t.wall_nanos, 2_000_000);
        // Means keep the paper's pin-at-budget convention.
        assert!(r.avg_query_ms() > 1000.0);
    }

    #[test]
    fn phase_totals_merge_across_records() {
        let mut r = QuerySetReport::new("X", "Q");
        for _ in 0..3 {
            let mut rec = QueryRecord::default();
            rec.phases.nanos[Phase::Enumerate.index()] = 10;
            rec.phases.items[Phase::Enumerate.index()] = 2;
            r.records.push(rec);
        }
        let t = r.totals().phases;
        assert_eq!(t.nanos_of(Phase::Enumerate), 30);
        assert_eq!(t.items_of(Phase::Enumerate), 6);
        assert_eq!(t.total_nanos(), 30);
    }
}
