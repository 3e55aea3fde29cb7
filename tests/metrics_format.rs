//! Exposition-format and histogram guarantees:
//!
//! * the Prometheus text rendering is well-formed — each metric family has
//!   exactly one `# HELP`/`# TYPE` header emitted before any of its samples,
//!   no metric name appears under two headers, histogram bucket series are
//!   cumulative and end with `le="+Inf"` — and a fully deterministic report
//!   renders byte-identically to the checked-in golden file;
//! * `LatencyHistogram` merge is exact (merge == histogram of concatenated
//!   samples) and quantiles are the bucket upper bound of the true order
//!   statistic (property-tested);
//! * phase timings are deterministic under an injected fake clock: the
//!   per-phase totals of a pooled query are byte-identical across runs and
//!   across 1/2/4/8 worker threads (invariant I8 extended to phase timings),
//!   and the phases sum to the stage walls through matcher panics and a
//!   mid-scan guard trip.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use subgraph_query::core::engines::matcher_by_name;
use subgraph_query::core::exposition;
use subgraph_query::core::metrics::LatencyHistogram;
use subgraph_query::core::parallel::QueryPool;
use subgraph_query::core::{QueryRecord, QuerySetReport, QueryStatus, ServiceHealth};
use subgraph_query::graph::{Graph, GraphBuilder, GraphDb, Label, VertexId};
use subgraph_query::matching::{
    CandidateSpace, Deadline, Embedding, FilterResult, KernelStats, Matcher, Phase, PhaseStats,
    ResourceGuard, ResourceKind, ResourceLimits, Span, StatsSink, Timeout,
};

// ---------------------------------------------------------------------------
// Prometheus text format
// ---------------------------------------------------------------------------

/// A deterministic report: every field written by hand, no clocks involved.
fn fixed_report() -> QuerySetReport {
    let mut r = QuerySetReport::new("CFQL", "Q8S");
    r.records.push(QueryRecord {
        filter_time: Duration::from_micros(1500),
        verify_time: Duration::from_micros(500),
        candidates: 4,
        answers: 2,
        kernel: KernelStats { intersections: 12, gallop_hits: 3, simd_hits: 5, bitmap_probes: 40 },
        phases: PhaseStats {
            nanos: [1_200_000, 300_000, 50_000, 400_000, 0],
            items: [4, 4, 8, 2, 0],
        },
        ..QueryRecord::default()
    });
    r.records.push(QueryRecord {
        status: QueryStatus::TimedOut,
        filter_time: Duration::from_secs(600),
        ..QueryRecord::default()
    });
    r.records.push(QueryRecord { status: QueryStatus::Shed, ..QueryRecord::default() });
    r.records.push(QueryRecord { status: QueryStatus::Wedged, ..QueryRecord::default() });
    r
}

fn fixed_health() -> ServiceHealth {
    ServiceHealth {
        queue_depth: 3,
        inflight: 1,
        draining: false,
        admitted: 40,
        finished: 36,
        shed_queue_full: 2,
        shed_deadline: 1,
        shed_draining: 0,
        open_breakers: 1,
        half_open_breakers: 0,
        breaker_trips: 2,
        quarantined_graph_results: 17,
        wedged_queries: 1,
        workers_replaced: 1,
    }
}

fn fixed_journal() -> subgraph_query::core::JournalStats {
    subgraph_query::core::JournalStats { replayed: 5, appended: 3, skipped: 5 }
}

/// The family a sample line belongs to (histogram suffixes stripped).
fn family_of(sample_name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = sample_name.strip_suffix(suffix) {
            return stripped;
        }
    }
    sample_name
}

#[test]
fn rendering_matches_the_golden_file() {
    let text =
        exposition::render_full(&[fixed_report()], Some(&fixed_health()), Some(&fixed_journal()));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path).expect("tests/golden/metrics.prom missing");
    assert_eq!(
        text, golden,
        "exposition drifted from tests/golden/metrics.prom; if the change is \
         intentional, regenerate with REGEN_GOLDEN=1"
    );
}

#[test]
fn no_metric_name_is_emitted_twice() {
    let text = exposition::render(&[fixed_report(), fixed_report()], Some(&fixed_health()));
    let mut seen = HashMap::new();
    for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
        let name = line.split_whitespace().nth(2).unwrap();
        assert!(seen.insert(name, ()).is_none(), "duplicate # TYPE for {name}");
    }
    let mut help = HashMap::new();
    for line in text.lines().filter(|l| l.starts_with("# HELP ")) {
        let name = line.split_whitespace().nth(2).unwrap();
        assert!(help.insert(name, ()).is_none(), "duplicate # HELP for {name}");
    }
}

#[test]
fn type_header_precedes_every_sample_of_its_family() {
    let text = exposition::render(&[fixed_report()], Some(&fixed_health()));
    let mut typed: HashMap<String, ()> = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.insert(rest.split_whitespace().next().unwrap().to_string(), ());
        } else if !line.starts_with('#') && !line.is_empty() {
            let name = line.split(['{', ' ']).next().unwrap();
            assert!(
                typed.contains_key(family_of(name)),
                "sample {name} appears before its # TYPE header"
            );
        }
    }
}

#[test]
fn histogram_buckets_are_cumulative_and_end_with_inf() {
    let text = exposition::render(&[fixed_report()], Some(&fixed_health()));
    // Group bucket samples per (family, label-set-minus-le) in order.
    let mut series: HashMap<String, Vec<(String, f64)>> = HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && l.contains("_bucket{")) {
        let (name_labels, value) = line.rsplit_once(' ').unwrap();
        let (name, labels) = name_labels.split_once('{').unwrap();
        let labels = labels.trim_end_matches('}');
        let mut le = String::new();
        let rest: Vec<&str> = labels
            .split(',')
            .filter(|kv| {
                if let Some(v) = kv.strip_prefix("le=") {
                    le = v.trim_matches('"').to_string();
                    false
                } else {
                    true
                }
            })
            .collect();
        let key = format!("{name}{{{}}}", rest.join(","));
        series.entry(key).or_default().push((le, value.parse().unwrap()));
    }
    assert!(!series.is_empty(), "no histogram bucket series rendered");
    for (key, buckets) in series {
        let mut prev = f64::NEG_INFINITY;
        for (_, count) in &buckets {
            assert!(*count >= prev, "{key}: bucket counts are not cumulative");
            prev = *count;
        }
        assert_eq!(buckets.last().unwrap().0, "+Inf", "{key}: series must end with +Inf");
    }
}

#[test]
fn censored_records_appear_in_counts_but_not_histograms() {
    let report = fixed_report();
    let text = exposition::render(std::slice::from_ref(&report), None);
    // 1 completed + 1 timed-out + 1 shed + 1 wedged in the status counter...
    assert!(text.contains(r#"status="completed"} 1"#));
    assert!(text.contains(r#"status="timed_out"} 1"#));
    assert!(text.contains(r#"status="shed"} 1"#));
    assert!(text.contains(r#"status="wedged"} 1"#));
    assert!(text.contains(r#"sqp_censored_queries_total{engine="CFQL",query_set="Q8S"} 3"#));
    // ...but only the completed one in the latency histogram.
    assert!(text.contains(r#"sqp_query_seconds_count{engine="CFQL",query_set="Q8S"} 1"#));
}

// ---------------------------------------------------------------------------
// Histogram properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fixed buckets make merge exact: merging two histograms equals the
    /// histogram of the concatenated sample stream.
    #[test]
    fn merge_equals_concatenation(
        xs in proptest::collection::vec(any::<u64>(), 0..40),
        ys in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let mut merged = LatencyHistogram::from_samples(xs.iter().copied());
        merged.merge(&LatencyHistogram::from_samples(ys.iter().copied()));
        let concat = LatencyHistogram::from_samples(xs.iter().chain(ys.iter()).copied());
        prop_assert_eq!(merged, concat);
    }

    /// A quantile is exactly the upper edge of the bucket holding the true
    /// order statistic — an upper bound within one power of two.
    #[test]
    fn quantiles_are_bucket_upper_bounds_of_the_order_statistic(
        mut samples in proptest::collection::vec(any::<u64>(), 1..60),
        q_pct in 1u32..100,
    ) {
        let q = f64::from(q_pct) / 100.0;
        let h = LatencyHistogram::from_samples(samples.iter().copied());
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let true_stat = samples[rank - 1];
        let got = h.quantile(q).unwrap();
        prop_assert_eq!(
            got,
            LatencyHistogram::upper_edge(LatencyHistogram::bucket_of(true_stat))
        );
        prop_assert!(got >= true_stat);
    }
}

#[test]
fn empty_histogram_is_quantile_safe() {
    let h = LatencyHistogram::new();
    assert_eq!(h.p50(), None);
    assert_eq!(h.p95(), None);
    assert_eq!(h.p99(), None);
    assert_eq!(h.quantile(2.0), None);
    assert_eq!(h.quantile(-1.0), None);
}

// ---------------------------------------------------------------------------
// Deterministic phase timings (invariant I8, extended)
// ---------------------------------------------------------------------------

/// A deterministic tick source: each call returns the next integer,
/// per-thread. Span durations become pure span-nesting counts, independent
/// of wall time and scheduling.
fn fake_clock() -> u64 {
    use std::cell::Cell;
    thread_local! { static T: Cell<u64> = const { Cell::new(0) }; }
    T.with(|t| {
        let v = t.get();
        t.set(v + 1);
        v
    })
}

/// A small fixed database and query (no randomness).
fn fixture() -> (Arc<GraphDb>, subgraph_query::graph::Graph) {
    let mut graphs = Vec::new();
    for i in 0..12u32 {
        let mut b = GraphBuilder::new();
        for v in 0..8u32 {
            b.add_vertex(Label((v + i) % 3));
        }
        for v in 0..8u32 {
            let _ = b.add_edge(VertexId(v), VertexId((v + 1) % 8));
            let _ = b.add_edge(VertexId(v), VertexId((v + 3) % 8));
        }
        graphs.push(b.build());
    }
    let mut qb = GraphBuilder::new();
    qb.add_vertex(Label(0));
    qb.add_vertex(Label(1));
    qb.add_vertex(Label(2));
    let _ = qb.add_edge(VertexId(0), VertexId(1));
    let _ = qb.add_edge(VertexId(1), VertexId(2));
    (Arc::new(GraphDb::from_graphs(graphs)), qb.build())
}

#[test]
fn phase_timings_are_byte_stable_across_runs_and_thread_counts() {
    let (db, q) = fixture();
    let sink = StatsSink::with_clock(fake_clock);
    let mut observed: Vec<PhaseStats> = Vec::new();
    for threads in [1usize, 2, 4, 8, 1] {
        sink.reset();
        let pool = QueryPool::new(threads);
        let matcher = matcher_by_name("CFQL").unwrap();
        // Injecting our sink keeps the pool from attaching its own.
        let out = pool.query(matcher, &db, &q, Deadline::none().with_stats(sink)).outcome;
        assert_eq!(out.status, QueryStatus::Completed);
        assert!(out.phases.nanos_of(Phase::Filter) > 0, "no filter ticks recorded");
        observed.push(out.phases);
    }
    for pair in observed.windows(2) {
        assert_eq!(
            pair[0], pair[1],
            "phase tick totals must be identical across thread counts and repeat runs"
        );
    }
}

/// The passive-span rule changes how often the clock is read, not what is
/// counted: the fixture's per-phase items are the ones recorded before the
/// rule existed, and under the tick clock the phases sum to the stage walls
/// to the tick.
#[test]
fn passive_spans_keep_items_and_sum_to_the_stage_walls() {
    let (db, q) = fixture();
    let sink = StatsSink::with_clock(fake_clock);
    let pool = QueryPool::new(2);
    let matcher = matcher_by_name("CFQL").unwrap();
    let out = pool.query(matcher, &db, &q, Deadline::none().with_stats(sink)).outcome;
    assert_eq!(out.status, QueryStatus::Completed);
    let items: Vec<u64> = Phase::ALL.iter().map(|&p| out.phases.items_of(p)).collect();
    // [filter, build_candidates, order, enumerate, verify] at the parent of
    // the passive rule: 96 surviving candidates, 12 first matches.
    assert_eq!(items, [96, 0, 0, 12, 0]);
    // Nothing prunes here. Per graph the `Filter` stage lasts 3 ticks (its
    // own two reads around the matcher's `BuildCandidates` pair — the
    // matcher's `Filter` span is passive) and the `Enumerate` stage 3
    // (around the `Order` pair): 5 and 5 before the rule.
    assert_eq!(out.phases.total_nanos(), 12 * (3 + 3));
    let stage_walls = out.filter_time + out.verify_time;
    assert_eq!(stage_walls, Duration::from_nanos(out.phases.total_nanos()));
}

/// CFQL with faults keyed on a graph's vertex count (graph `i` of
/// [`faulty_fixture`] has `8 + i` vertices): graph 2 panics in `filter` and
/// graph 5 in `find_first`, each from inside a span of its own so the unwind
/// crosses the lap's children; graph `trip`, if set, trips the resource
/// guard in `filter`, which stops the scan mid-way.
struct Faulty {
    inner: Arc<dyn Matcher>,
    trip: Option<usize>,
}

impl Matcher for Faulty {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        let graph = g.vertex_count() - 8;
        if graph == 2 {
            let _build = Span::enter(Phase::BuildCandidates, deadline);
            panic!("injected filter panic");
        }
        if self.trip == Some(graph) {
            deadline.guard().trip(ResourceKind::Steps);
            return Err(Timeout);
        }
        self.inner.filter(q, g, deadline)
    }

    fn find_first(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        deadline: Deadline,
    ) -> Result<Option<Embedding>, Timeout> {
        if g.vertex_count() - 8 == 5 {
            let _order = Span::enter(Phase::Order, deadline);
            panic!("injected find_first panic");
        }
        self.inner.find_first(q, g, space, deadline)
    }

    fn enumerate(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        limit: u64,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&Embedding),
    ) -> Result<u64, Timeout> {
        self.inner.enumerate(q, g, space, limit, deadline, on_match)
    }
}

/// The fixture's graphs with graph `i` padded by `i` isolated vertices of a
/// label the query does not use: same answers, distinct vertex counts.
fn faulty_fixture() -> (Arc<GraphDb>, Graph) {
    let (db, q) = fixture();
    let graphs = db
        .graphs()
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let mut b = GraphBuilder::new();
            for v in g.vertices() {
                b.add_vertex(g.label(v));
            }
            for _ in 0..i {
                b.add_vertex(Label(3));
            }
            for v in g.vertices() {
                for &u in g.neighbors(v).iter().filter(|&&u| u > v) {
                    b.add_edge(v, u).unwrap();
                }
            }
            b.build()
        })
        .collect();
    (Arc::new(GraphDb::from_graphs(graphs)), q)
}

/// Panics in both matcher calls and a guard trip mid-scan keep the lap's
/// accounting: under the tick clock Σ phases = filter + verify stage walls
/// on every query, the panicking query's ticks are the same at 1/2/4/8
/// threads (its pairs all run: a panic stops nothing), and afterwards a
/// clean query on the same worker threads reads exactly what it reads on a
/// fresh pool — the depth stack is back where the lap found it. The faulty
/// queries run more times than the stack tracks frames, so a frame leaked
/// per query would push the lap past tracked depth and its children would
/// no longer be subtracted. (Which graphs a sibling reaches before it sees
/// the trip depends on scheduling, so the tripped query's ticks are
/// compared with its own stage walls only.)
#[test]
fn panics_and_interrupts_keep_the_phase_sum_equal_to_the_stage_walls() {
    let (db, q) = faulty_fixture();
    let sink = StatsSink::with_clock(fake_clock);
    let guard = ResourceGuard::new();
    let cfql = matcher_by_name("CFQL").unwrap();
    let panics: Arc<dyn Matcher> = Arc::new(Faulty { inner: Arc::clone(&cfql), trip: None });
    let trips: Arc<dyn Matcher> = Arc::new(Faulty { inner: Arc::clone(&cfql), trip: Some(7) });
    let run = |pool: &QueryPool, matcher: &Arc<dyn Matcher>| {
        sink.reset();
        guard.reset(ResourceLimits::unlimited());
        let deadline = Deadline::none().with_guard(guard).with_stats(sink);
        let out = pool.query(Arc::clone(matcher), &db, &q, deadline).outcome;
        let walls = out.filter_time + out.verify_time;
        assert_eq!(walls, Duration::from_nanos(out.phases.total_nanos()), "{:?}", out.status);
        out
    };
    let clean = run(&QueryPool::new(1), &cfql);
    assert_eq!(clean.status, QueryStatus::Completed);
    assert_eq!(clean.answers.len(), 12);
    let mut panicked: Option<PhaseStats> = None;
    for threads in [1usize, 2, 4, 8] {
        let pool = QueryPool::new(threads);
        for _ in 0..17 {
            let out = run(&pool, &panics);
            assert!(out.status.is_panicked(), "{threads} threads");
            assert_eq!(out.failures.len(), 2, "{threads} threads");
            assert_eq!(out.answers.len(), 10, "{threads} threads");
            assert_eq!(*panicked.get_or_insert(out.phases), out.phases, "{threads} threads");
            let out = run(&pool, &trips);
            let tripped = out.failures.iter().any(|f| f.status.is_exhausted());
            assert!(tripped, "{threads} threads: {:?}", out.failures);
        }
        let after = run(&pool, &cfql);
        assert_eq!(after.phases, clean.phases, "{threads} threads: the next query starts clean");
    }
    // The panicking pairs lose their matcher's items and nothing else.
    let panicked = panicked.unwrap();
    let items = |p: &PhaseStats| Phase::ALL.map(|phase| p.items_of(phase));
    assert_eq!(items(&clean.phases), [96, 0, 0, 12, 0]);
    assert_eq!(items(&panicked), [88, 0, 0, 10, 0]);
}
