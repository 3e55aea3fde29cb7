//! The closed-loop workloads over an immutable `GraphDb`, `aids_cfql` and
//! `dense_cfql` (index-free vcFV through `CfqlEngine`). `aids_cfql` also
//! carries the index-based path (path index + VF2) over the same inputs: as
//! an answer gate in every run and as per-layer figures in the traced one.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqp_core::chaos::graph_fingerprint;
use sqp_core::engines::{CfqlEngine, GrapesEngine};
use sqp_core::journal::db_fingerprint;
use sqp_core::{run_query_set, QueryEngine, QueryOutcome, RunnerConfig};
use sqp_datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
use sqp_graph::database::GraphId;
use sqp_graph::{binio, intersect, nlf, Graph, GraphDb, HeapSize, VertexId};
use sqp_index::{GraphIndex, PathTrieIndex};
use sqp_matching::cfql::Cfql;
use sqp_matching::vf2::Vf2;
use sqp_matching::{Deadline, FilterResult, KernelStats, Matcher};

use super::close_traced_loop;
use crate::goldens;
use crate::harness::{
    answers_checksum, closed_loop, fold_checksums, hex, peak_rss_mb, sample_indices, ClosedLoop,
    Fnv, Report, RunConfig, SetupTimer, Summary,
};
use crate::json::Json;
use crate::stats;
use crate::trace::{Span, Trace};

// Sizes are constants: identical on every commit, whatever the seed.

/// A fortieth of the paper's AIDS scale: 2 MB of CSR, inside one core's
/// 4 MB L2. At the paper's 40 000 graphs (82 MB) and at 20 000 every query
/// streams the database through the memory system, which this host shares:
/// for minutes at a time a neighbour takes three quarters of the memory
/// bandwidth (a 64 MB streaming read goes from 3 ms to 12 ms) and
/// `aids_cfql` at 20 000 graphs ran 1.6x slower for ten runs in a row while
/// the cache-resident workloads did not move. The per-graph filter cost,
/// which is what this workload prices, is the same at any size; what the
/// size gives up is the cache cost of a filter index that grows the
/// footprint (see the README).
const AIDS_GRAPHS: usize = 1_000;
/// Queries per class; four classes (Q12S, Q12D, Q16S, Q16D) interleaved so
/// any prefix of the set holds them in equal shares: 240 queries, one pass
/// in about 0.13 s. The issue's smaller classes (Q4S, Q8S, Q8D) are left
/// out: they cost the same filter calls and differ only where no time goes.
const AIDS_QUERIES_PER_CLASS: usize = 60;
/// Passes per window (about 1.3 s).
const AIDS_WINDOW_PASSES: usize = 10;
const AIDS_CLASSES: [(usize, QueryGenMethod); 4] = [
    (12, QueryGenMethod::RandomWalk),
    (12, QueryGenMethod::Bfs),
    (16, QueryGenMethod::RandomWalk),
    (16, QueryGenMethod::Bfs),
];

/// Dense profile: few labels and a sixth of all possible edges, so the
/// filter prunes nothing and every query runs enumeration on every graph
/// (0.5 MB of CSR). Smaller graphs and more of them than the issue's 40 x
/// 600-vertex sketch: there single queries ran from 10 ms to 14 s, which one
/// region cannot sample; and how hard a seed's database is averages out over
/// its graphs (over ten seeds the p95 spread 31 % with 10 graphs of 150
/// vertices, 9 % with these 40 of 100).
const DENSE_GRAPHS: usize = 40;
const DENSE_VERTICES: usize = 100;
const DENSE_LABELS: usize = 3;
const DENSE_DEGREE: f64 = 16.0;
/// One pass (about 2.2 s). The latency distribution is heavy-tailed (p95 is
/// 1.5x the median) and a query's cost is mostly a property of the query,
/// so the p95 also needs many queries to be steady from seed to seed.
const DENSE_QUERIES: usize = 1_000;
const DENSE_QUERY_EDGES: usize = 8;

/// Untimed ops before the measured region (first-call stalls, cold caches).
const WARMUP_QUERIES: usize = 20;
/// Queries `0..GOLDEN_PREFIX` always run, so their folded answer checksum is
/// the same however far the time-bounded loop got.
const GOLDEN_PREFIX: usize = 200;
/// Queries whose kernel counters are summed: an exact count must not depend
/// on where the clock stopped either.
const COUNTER_PREFIX: usize = 100;
const ORACLE_QUERIES: usize = 20;
const ORACLE_PAIRS: usize = 1_000;
const RUNNER_PROBE_QUERIES: usize = 40;
const NLF_PAIRS: usize = 1_000_000;
const INTERSECT_PAIRS: usize = 20_000;

pub struct Inputs {
    pub db: Arc<GraphDb>,
    pub queries: Vec<Graph>,
    pub db_gen_ms: f64,
    pub query_gen_ms: f64,
}

impl Inputs {
    /// Fingerprint of the database and the golden-prefix queries.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(db_fingerprint(&self.db));
        for q in self.queries.iter().take(GOLDEN_PREFIX) {
            h.u64(graph_fingerprint(q));
        }
        h.finish()
    }
}

pub fn aids_inputs(cfg: &RunConfig, graphs: usize, per_class: usize) -> Inputs {
    let t = Instant::now();
    let mut profile = sqp_datagen::aids_like();
    profile.graphs = cfg.sized(graphs, 200);
    let db = Arc::new(profile.generate(cfg.sub_seed(1)));
    let db_gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let per_class = cfg.sized(per_class, 10);
    let sets: Vec<Vec<Graph>> = AIDS_CLASSES
        .iter()
        .enumerate()
        .map(|(k, &(edges, method))| {
            let spec = QuerySetSpec { edges, method, count: per_class };
            generate_query_set(&db, spec, cfg.sub_seed(10 + k as u64))
        })
        .collect();
    let queries = (0..per_class).flat_map(|i| sets.iter().map(move |s| s[i].clone())).collect();
    Inputs { db, queries, db_gen_ms, query_gen_ms: t.elapsed().as_secs_f64() * 1e3 }
}

fn dense_inputs(cfg: &RunConfig) -> Inputs {
    let t = Instant::now();
    let db = Arc::new(sqp_datagen::graphgen::generate(
        cfg.sized(DENSE_GRAPHS, 6),
        DENSE_VERTICES,
        DENSE_LABELS,
        DENSE_DEGREE,
        cfg.sub_seed(1),
    ));
    let db_gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let spec = QuerySetSpec {
        edges: DENSE_QUERY_EDGES,
        method: QueryGenMethod::Bfs,
        count: cfg.sized(DENSE_QUERIES, 20),
    };
    let queries = generate_query_set(&db, spec, cfg.sub_seed(10));
    Inputs { db, queries, db_gen_ms, query_gen_ms: t.elapsed().as_secs_f64() * 1e3 }
}

/// First outcome seen per query: the answers every later execution must
/// repeat, plus the engine's own counters for the traced run.
struct AnswerBook {
    first: Vec<Option<QueryOutcome>>,
}

impl AnswerBook {
    fn new(queries: usize) -> Self {
        Self { first: (0..queries).map(|_| None).collect() }
    }

    /// Whether `outcome` completed and agrees with what query `i` answered
    /// before.
    fn check(&mut self, i: usize, outcome: QueryOutcome) -> bool {
        if !outcome.status.is_completed() {
            return false;
        }
        match &self.first[i] {
            Some(seen) => seen.answers == outcome.answers,
            None => {
                self.first[i] = Some(outcome);
                true
            }
        }
    }

    fn answers(&self, i: usize) -> Option<&[GraphId]> {
        self.first[i].as_ref().map(|o| o.answers.as_slice())
    }

    fn executed(&self) -> Vec<usize> {
        (0..self.first.len()).filter(|&i| self.first[i].is_some()).collect()
    }

    /// Runs (untimed) whichever of queries `0..upto` the loop never reached.
    fn ensure(&mut self, upto: usize, engine: &dyn QueryEngine, queries: &[Graph]) -> u64 {
        let mut failed = 0;
        for (i, q) in queries.iter().enumerate().take(upto) {
            if self.first[i].is_none() && !self.check(i, engine.query(q)) {
                failed += 1;
            }
        }
        failed
    }

    fn prefix_checksum(&self, upto: usize) -> u64 {
        let per_query: Vec<u64> = (0..upto.min(self.first.len()))
            .map(|i| self.answers(i).map_or(0, answers_checksum))
            .collect();
        fold_checksums(&per_query)
    }
}

/// Re-checks a seeded sample of (query, graph) pairs against `oracle`, an
/// implementation independent of the engine under test: every claimed
/// answer of `ORACLE_QUERIES` queries, then random pairs up to
/// `ORACLE_PAIRS`. An oracle that gives up (`None`) skips the pair.
fn oracle_gate(
    report: &mut Report,
    cfg: &RunConfig,
    inputs: &Inputs,
    book: &AnswerBook,
    oracle: impl Fn(&Graph, &Graph) -> Option<bool>,
) {
    let executed = book.executed();
    // [checked, wrong, skipped]
    let mut tally = [0u64; 3];
    let judge = |tally: &mut [u64; 3], qi: usize, gid: GraphId, claimed: bool| match oracle(
        &inputs.queries[qi],
        inputs.db.graph(gid),
    ) {
        Some(truth) => {
            tally[0] += 1;
            tally[1] += u64::from(truth != claimed);
        }
        None => tally[2] += 1,
    };
    let picks = sample_indices(executed.len(), cfg.sized(ORACLE_QUERIES, 5), cfg.sub_seed(20));
    for &p in &picks {
        let qi = executed[p];
        for &gid in book.answers(qi).expect("executed") {
            judge(&mut tally, qi, gid, true);
        }
    }
    let mut rng = StdRng::seed_from_u64(cfg.sub_seed(21));
    let target = cfg.sized(ORACLE_PAIRS, 200) as u64;
    let mut draws = 0;
    while tally[0] + tally[2] < target && draws < 4 * target && !executed.is_empty() {
        draws += 1;
        let qi = executed[rng.random_range(0..executed.len())];
        let gid = GraphId(rng.random_range(0..inputs.db.len() as u32));
        let claimed = book.answers(qi).expect("executed").binary_search(&gid).is_ok();
        judge(&mut tally, qi, gid, claimed);
    }
    let [checked, wrong, skipped] = tally;
    report.attempted += checked;
    report.fail(wrong, "answer disagrees with the oracle");
    report.detail("oracle_pairs_checked", Json::Num(checked as f64));
    report.detail("oracle_pairs_skipped", Json::Num(skipped as f64));
}

const ORACLE_BUDGET: std::time::Duration = std::time::Duration::from_millis(500);

/// VF2 shares no code with the CFQL engine under test.
fn vf2_oracle(q: &Graph, g: &Graph) -> Option<bool> {
    Vf2::new().is_subgraph(q, g, Deadline::after(ORACLE_BUDGET)).ok()
}

/// The cross-engine gate: the Grapes engine (path index + VF2), built over
/// the same database, must answer the golden-prefix queries as CFQL did.
/// Its build report is the IFV side's index cost.
fn cross_engine_gate(report: &mut Report, inputs: &Inputs, book: &AnswerBook) {
    let mut grapes = GrapesEngine::new();
    let built = grapes.build(&inputs.db).expect("unlimited build budget");
    report.detail("grapes_index_build_s", Json::Num(built.build_time.as_secs_f64()));
    report.detail("grapes_index_mb", Json::Num(built.index_bytes as f64 / (1 << 20) as f64));
    let mut differ = 0;
    for (i, q) in inputs.queries.iter().enumerate().take(GOLDEN_PREFIX) {
        let outcome = grapes.query(q);
        let same = outcome.status.is_completed() && book.answers(i) == Some(&outcome.answers[..]);
        differ += u64::from(!same);
    }
    report.attempted += GOLDEN_PREFIX.min(inputs.queries.len()) as u64;
    report.fail(differ, "Grapes answers differ from CFQL's");
}

/// The gates every static workload ends with: golden-prefix answers, the
/// oracle sample, and the committed goldens at the default seed.
fn finish(
    report: &mut Report,
    cfg: &RunConfig,
    workload: &str,
    inputs: &Inputs,
    book: &mut AnswerBook,
    engine: &CfqlEngine,
) {
    let late = book.ensure(GOLDEN_PREFIX, engine, &inputs.queries);
    report.fail(late, "golden-prefix query did not complete");
    oracle_gate(report, cfg, inputs, book, vf2_oracle);
    let (inputs_fp, answers_fp) = (inputs.fingerprint(), book.prefix_checksum(GOLDEN_PREFIX));
    report.detail("inputs_fingerprint", hex(inputs_fp));
    report.detail("answers_checksum", hex(answers_fp));
    goldens::gate(report, cfg, workload, inputs_fp, answers_fp);
}

/// One set-up: the inputs, a CFQL engine built over them, and the untimed
/// warm-up ops (first-call stalls, cold caches) with the answers they gave.
fn set_up(
    cfg: &RunConfig,
    make_inputs: &impl Fn(&RunConfig) -> Inputs,
) -> (Inputs, CfqlEngine, AnswerBook) {
    let inputs = make_inputs(cfg);
    let mut engine = CfqlEngine::new();
    engine.build(&inputs.db).expect("CFQL builds no index");
    let mut book = AnswerBook::new(inputs.queries.len());
    for (i, q) in inputs.queries.iter().enumerate().take(WARMUP_QUERIES) {
        book.check(i, engine.query(q));
    }
    (inputs, engine, book)
}

pub fn run_aids_cfql(cfg: &RunConfig) -> Report {
    let inputs = |c: &RunConfig| aids_inputs(c, AIDS_GRAPHS, AIDS_QUERIES_PER_CLASS);
    run(cfg, "aids_cfql", inputs, AIDS_WINDOW_PASSES, true)
}

pub fn run_dense_cfql(cfg: &RunConfig) -> Report {
    run(cfg, "dense_cfql", dense_inputs, 1, false)
}

/// What a traced second half needs from the untraced first.
struct Untraced<'a> {
    inputs: &'a Inputs,
    book: &'a mut AnswerBook,
    engine: &'a mut CfqlEngine,
    run: &'a ClosedLoop,
}

/// One traced loop's extent.
struct TracedLoop {
    wall_ns: u64,
    ops: u64,
}

/// One static-database workload: set up, the closed loop through
/// `engine.query` cycling over the query set, then either the end-to-end
/// metrics (medians over windows of `window_passes` passes, so that every
/// window holds the same queries) or the traced second half, and the correctness gates. `with_ifv` adds the
/// index-based path over the same inputs: the cross-engine answer gate, and
/// in the traced run the IFV loop's per-layer figures.
fn run(
    cfg: &RunConfig,
    workload: &str,
    make_inputs: impl Fn(&RunConfig) -> Inputs,
    window_passes: usize,
    with_ifv: bool,
) -> Report {
    let mut report = Report::default();
    let mut setups = SetupTimer::default();
    let (inputs, mut engine, mut book) = setups.time(|| set_up(cfg, &make_inputs));
    let queries = &inputs.queries;

    let measured = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let run = closed_loop(
        measured,
        queries.len(),
        |i| engine.query(&queries[i]),
        |i, o| book.check(i, o),
    );
    let rss = peak_rss_mb();
    report.attempted += run.attempted;
    report.fail(run.failed, "query did not complete or changed its answers");
    report.detail("timed_wall_s", Json::Num(run.wall_s));
    report.detail("timed_ops", Json::Num(run.attempted as f64));

    if cfg.trace {
        let mut trace = Trace::default();
        let epoch = Instant::now();
        let vcfv_s = cfg.seconds * if with_ifv { 0.3 } else { 0.5 };
        let untraced =
            Untraced { inputs: &inputs, book: &mut book, engine: &mut engine, run: &run };
        let vcfv = trace_vcfv(&mut report, untraced, &mut trace, epoch, vcfv_s);
        let mut traced_wall_ns = vcfv.wall_ns;
        if with_ifv {
            traced_wall_ns += trace_ifv(
                &mut report,
                &inputs,
                &book,
                &mut trace,
                epoch,
                vcfv.ops,
                cfg.seconds * 0.2,
            );
        }
        let traced_ops_per_s = vcfv.ops as f64 / (vcfv.wall_ns as f64 / 1e9);
        close_traced_loop(
            &mut report,
            cfg,
            workload,
            &trace,
            traced_wall_ns,
            traced_ops_per_s,
            run.ops_per_s(),
        );
        runner_overhead(&mut report, &mut engine, queries);
        static_layer_metrics(&mut report, cfg, &inputs);
    } else {
        setups.repeat(cfg, || set_up(cfg, &make_inputs));
        let window_ops = window_passes * queries.len();
        let (summary, per_window) = Summary::over_windows(&run.latencies_ms, window_ops);
        report.window_detail(&per_window);
        report.end_to_end(cfg, &setups, &summary, rss);
    }
    finish(&mut report, cfg, workload, &inputs, &mut book, &engine);
    if with_ifv {
        cross_engine_gate(&mut report, &inputs, &book);
    }
    report
}

/// The vcFV loop of `engine.query`, re-driven from outside through the
/// matcher's public `filter` -> `find_first` for `seconds`, one span per
/// (query, layer).
fn trace_vcfv(
    report: &mut Report,
    untraced: Untraced<'_>,
    trace: &mut Trace,
    epoch: Instant,
    seconds: f64,
) -> TracedLoop {
    let Untraced { inputs, book, engine, run: untraced } = untraced;
    let matcher = Cfql::new();
    let (db, queries) = (&inputs.db, &inputs.queries);
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let start = Instant::now();

    #[derive(Default)]
    struct Totals {
        filter_ns: u64,
        filter_calls: u64,
        verify_ns: u64,
        verify_calls: u64,
        candidates: u64,
        answers: u64,
        aux_peak: usize,
        mismatched: u64,
    }
    let mut tot = Totals::default();
    let mut layer_ms: Vec<Option<f64>> = vec![None; queries.len()];
    let mut ops = 0u64;
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let q = &queries[i];
        let op_start = Instant::now();
        let (mut f_ns, mut f_calls, mut v_ns, mut v_calls) = (0u64, 0u64, 0u64, 0u64);
        let (mut f_span, mut v_span) = ((u64::MAX, 0u64), (u64::MAX, 0u64));
        let mut answers = Vec::new();
        for (gid, g) in db.iter() {
            let t0 = Instant::now();
            let filtered = matcher.filter(q, g, Deadline::none());
            let t1 = Instant::now();
            f_ns += (t1 - t0).as_nanos() as u64;
            f_calls += 1;
            f_span = (f_span.0.min(ns(t0)), ns(t1));
            if let Ok(FilterResult::Space(space)) = filtered {
                tot.candidates += space.total_candidates() as u64;
                tot.aux_peak = tot.aux_peak.max(space.heap_size());
                let t2 = Instant::now();
                let found = matcher.find_first(q, g, &space, Deadline::none());
                let t3 = Instant::now();
                v_ns += (t3 - t2).as_nanos() as u64;
                v_calls += 1;
                v_span = (v_span.0.min(ns(t2)), ns(t3));
                if matches!(found, Ok(Some(_))) {
                    answers.push(gid);
                }
            }
        }
        let op_end = Instant::now();
        let root = trace.single("driver.query", ops, None, ns(op_start), ns(op_end));
        for (name, span, busy_ns, calls) in [
            ("matching.filter", f_span, f_ns, f_calls),
            ("matching.find_first", v_span, v_ns, v_calls),
        ] {
            if calls > 0 {
                let (start_ns, end_ns) = span;
                trace.push(Span {
                    name,
                    op_id: ops,
                    parent: Some(root),
                    start_ns,
                    end_ns,
                    busy_ns,
                    calls,
                });
            }
        }
        tot.filter_ns += f_ns;
        tot.filter_calls += f_calls;
        tot.verify_ns += v_ns;
        tot.verify_calls += v_calls;
        tot.answers += answers.len() as u64;
        tot.mismatched += u64::from(book.answers(i).is_some_and(|a| a != answers));
        layer_ms[i].get_or_insert((f_ns + v_ns) as f64 / 1e6);
        ops += 1;
        i = (i + 1) % queries.len();
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    report.attempted += ops;
    report
        .fail(tot.mismatched, "re-driven filter/find_first loop answers differ from engine.query");

    let per_op = |x: u64| x as f64 / ops.max(1) as f64;
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    report.metric("matching.filter_ms", per_op(tot.filter_ns) / 1e6);
    report.metric("matching.filter_calls", per_op(tot.filter_calls));
    report.metric("matching.filter_ns_per_call", per(tot.filter_ns, tot.filter_calls));
    report.metric("matching.filter_survivor_frac", per(tot.verify_calls, tot.filter_calls));
    report.metric("matching.filter_precision", per(tot.answers, tot.verify_calls));
    report.metric("matching.verify_ms", per_op(tot.verify_ns) / 1e6);
    report.metric("matching.verify_calls", per_op(tot.verify_calls));
    report.metric("matching.verify_ns_per_call", per(tot.verify_ns, tot.verify_calls));
    report.metric("matching.candidates_per_space", per(tot.candidates, tot.verify_calls));
    report.metric("matching.aux_bytes_peak", tot.aux_peak as f64);

    // Exact-repeat counters, from the engine's own reports over a fixed
    // query prefix.
    let late = book.ensure(COUNTER_PREFIX, engine, queries);
    report.fail(late, "counter-prefix query did not complete");
    let mut kernel = KernelStats::default();
    for o in book.first.iter().take(COUNTER_PREFIX).flatten() {
        kernel.merge(&o.kernel);
    }
    report.metric("matching.kernel_intersections", kernel.intersections as f64);
    report.metric("matching.kernel_gallop_hits", kernel.gallop_hits as f64);
    report.metric("matching.kernel_simd_hits", kernel.simd_hits as f64);
    report.metric("matching.kernel_bitmap_probes", kernel.bitmap_probes as f64);

    // engine.query wall against the matcher time inside it, over the
    // queries both halves reached.
    let (mut wall_ms, mut inside_ms) = (0.0, 0.0);
    for (i, layer) in layer_ms.iter().enumerate() {
        if let (Some(w), Some(l)) = (untraced.first_ms[i], layer) {
            wall_ms += w;
            inside_ms += l;
        }
    }
    report.metric(
        "core.engine_overhead_frac",
        (wall_ms - inside_ms) / wall_ms.max(f64::MIN_POSITIVE),
    );

    TracedLoop { wall_ns, ops }
}

/// `run_query_set` against a bare `engine.query` pass over the same queries,
/// back to back. Last of all, because the runner leaves its query budget set
/// on the engine.
fn runner_overhead(report: &mut Report, engine: &mut CfqlEngine, queries: &[Graph]) {
    let probe = &queries[..RUNNER_PROBE_QUERIES.min(queries.len())];
    let t = Instant::now();
    for q in probe {
        std::hint::black_box(engine.query(q));
    }
    let bare_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let set = run_query_set(engine, "bench", probe, RunnerConfig::default());
    let runner_ms = t.elapsed().as_secs_f64() * 1e3;
    report.fail(
        set.records.iter().filter(|r| !r.status.is_completed()).count() as u64,
        "run_query_set record did not complete",
    );
    report.metric("core.runner_overhead_us", (runner_ms - bare_ms) * 1e3 / probe.len() as f64);
}

/// Per-layer figures any static-database workload can take from outside:
/// data generation, the database's heap and binary codec, and the two graph
/// kernels the filter and the enumerator lean on.
fn static_layer_metrics(report: &mut Report, cfg: &RunConfig, inputs: &Inputs) {
    let (db, queries) = (&inputs.db, &inputs.queries);
    report.metric("datagen.db_gen_ms", inputs.db_gen_ms);
    report.metric("datagen.query_gen_ms", inputs.query_gen_ms);
    report.metric("graph.db_heap_mb", db.heap_size() as f64 / (1 << 20) as f64);

    let t = Instant::now();
    let encoded = binio::to_bytes(db);
    report.metric("graph.binio_encode_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let decoded = binio::from_bytes(&encoded[..]);
    report.metric("graph.binio_decode_ms", t.elapsed().as_secs_f64() * 1e3);
    report.fail(
        u64::from(!decoded.is_ok_and(|d| db_fingerprint(&d) == db_fingerprint(db))),
        "binio round trip changed the database",
    );

    // nlf_dominated over a fixed seeded sample of (query vertex, data
    // vertex) pairs, drawn before the clock starts.
    let mut rng = StdRng::seed_from_u64(cfg.sub_seed(30));
    let pairs: Vec<(u32, u32, u32, u32)> = (0..cfg.sized(NLF_PAIRS, 10_000))
        .map(|_| {
            let qi = rng.random_range(0..queries.len() as u32);
            let u = rng.random_range(0..queries[qi as usize].vertex_count() as u32);
            let gi = rng.random_range(0..db.len() as u32);
            let v = rng.random_range(0..db.graph(GraphId(gi)).vertex_count() as u32);
            (qi, u, gi, v)
        })
        .collect();
    let t = Instant::now();
    let mut dominated = 0u64;
    for &(qi, u, gi, v) in &pairs {
        let (q, g) = (&queries[qi as usize], db.graph(GraphId(gi)));
        dominated += u64::from(nlf::nlf_dominated(q, VertexId(u), g, VertexId(v)));
    }
    std::hint::black_box(dominated);
    report.metric("graph.nlf_dominated_ns", t.elapsed().as_nanos() as f64 / pairs.len() as f64);

    // retain_auto over sampled adjacency-list pairs of one data graph.
    let mut bufs: Vec<Vec<VertexId>> = Vec::new();
    let mut others: Vec<&[VertexId]> = Vec::new();
    for _ in 0..cfg.sized(INTERSECT_PAIRS, 1_000) {
        let g = db.graph(GraphId(rng.random_range(0..db.len() as u32)));
        let n = g.vertex_count() as u32;
        bufs.push(g.neighbors(VertexId(rng.random_range(0..n))).to_vec());
        others.push(g.neighbors(VertexId(rng.random_range(0..n))));
    }
    let elems: usize = bufs.iter().zip(&others).map(|(a, b)| a.len() + b.len()).sum();
    let mut scratch = Vec::new();
    let t = Instant::now();
    for (buf, other) in bufs.iter_mut().zip(&others) {
        std::hint::black_box(intersect::retain_auto(buf, other, &mut scratch));
    }
    report
        .metric("graph.intersect_ns_per_elem", t.elapsed().as_nanos() as f64 / elems.max(1) as f64);
}

/// The index-based path over the same inputs, for `seconds`: the IFV loop
/// re-driven through `GraphIndex::candidates` -> VF2, its spans added to
/// `trace` with op ids from `first_op` on. Returns the loop's wall time.
fn trace_ifv(
    report: &mut Report,
    inputs: &Inputs,
    book: &AnswerBook,
    trace: &mut Trace,
    epoch: Instant,
    first_op: u64,
    seconds: f64,
) -> u64 {
    let (db, queries) = (&inputs.db, &inputs.queries);
    let t = Instant::now();
    let index = PathTrieIndex::build_default(db);
    report.metric("index.build_ms", t.elapsed().as_secs_f64() * 1e3);
    report.metric("index.heap_mb", index.heap_bytes() as f64 / (1 << 20) as f64);

    // One span per (pass over the queries, layer): at ~60 000 queries a
    // second a span per query would write a million a run.
    let vf2 = Vf2::new();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let (mut candidates, mut answered, mut verify_ns, mut mismatched) = (0u64, 0u64, 0u64, 0u64);
    let mut lookups_us = Vec::new();
    let (mut ops, mut passes) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let pass_start = Instant::now();
        let (mut lookup_ns, mut pass_verify_ns, mut pass_candidates) = (0u64, 0u64, 0u64);
        for (i, q) in queries.iter().enumerate() {
            let t0 = Instant::now();
            let ids = index.candidates(q).into_ids(db.len());
            let t1 = Instant::now();
            let mut answers = Vec::new();
            for &gid in &ids {
                if matches!(vf2.is_subgraph(q, db.graph(gid), Deadline::none()), Ok(true)) {
                    answers.push(gid);
                }
            }
            let t2 = Instant::now();
            lookups_us.push((t1 - t0).as_secs_f64() * 1e6);
            lookup_ns += (t1 - t0).as_nanos() as u64;
            pass_verify_ns += (t2 - t1).as_nanos() as u64;
            pass_candidates += ids.len() as u64;
            answered += answers.len() as u64;
            mismatched += u64::from(book.answers(i).is_some_and(|a| a != answers));
        }
        let pass_end = Instant::now();
        let op_id = first_op + passes;
        let (start_ns, end_ns) = (ns(pass_start), ns(pass_end));
        let root = trace.single("driver.ifv_pass", op_id, None, start_ns, end_ns);
        for (name, busy_ns, calls) in [
            ("index.candidates", lookup_ns, queries.len() as u64),
            ("matching.vf2_verify", pass_verify_ns, pass_candidates),
        ] {
            trace.push(Span { name, op_id, parent: Some(root), start_ns, end_ns, busy_ns, calls });
        }
        verify_ns += pass_verify_ns;
        candidates += pass_candidates;
        ops += queries.len() as u64;
        passes += 1;
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    report.attempted += ops;
    report.fail(mismatched, "re-driven candidates/VF2 loop answers differ from CFQL's");

    let per_op = |x: u64| x as f64 / ops.max(1) as f64;
    report.metric("index.lookup_us_p50", stats::median(&lookups_us).unwrap_or(f64::NAN));
    report.metric("index.candidates_per_query", per_op(candidates));
    report.metric("index.precision", answered as f64 / candidates.max(1) as f64);
    report.metric("matching.vf2_verify_ms", per_op(verify_ns) / 1e6);
    report.metric("matching.vf2_verify_calls", per_op(candidates));
    wall_ns
}
