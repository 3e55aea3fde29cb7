//! The dynamic workload `dyn_mixed`: update batches on one
//! `ContinuousService`, each followed by snapshot reads. The reported op is
//! the cycle (one batch and its reads).

use std::time::Instant;

use sqp_core::chaos::graph_fingerprint;
use sqp_core::ContinuousService;
use sqp_datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
use sqp_graph::{CompactionPolicy, DynamicGraph, Graph, GraphDb, Update};
use sqp_matching::dynmatch::enumerate_overlay;
use sqp_matching::{Deadline, Embedding};

use super::close_traced_loop;
use crate::goldens;
use crate::harness::{hex, peak_rss_mb, Fnv, Report, RunConfig, SetupTimer, Summary};
use crate::json::Json;
use crate::stats;
use crate::trace::Trace;
use crate::updates::StreamGen;

/// A tenth of the issue's 50 000 vertices, so that graph, overlay and
/// standing sets fit one core's L2 like every workload's data (see
/// `static_db::AIDS_GRAPHS`).
const VERTICES: usize = 5_000;
const LABELS: usize = 10;
const DEGREE: f64 = 6.0;
const STANDING_QUERIES: usize = 16;
/// Read four at a time in rotation; this many so that which queries a seed
/// drew moves the read latency little.
const ONESHOT_QUERIES: usize = 256;
const QUERY_EDGES: usize = 5;
/// A tenth of what the default policy lets the overlay absorb (a quarter of
/// the 15 000 edges), so every tenth batch compacts and the cycle's p95 is
/// the compacting cycle. At the issue's one in thirty the 95th percentile
/// sat on the cliff between the two kinds of cycle and read 1.4-1.9 ms from
/// run to run of one seed.
const OPS_PER_BATCH: usize = 375;
const READS_PER_BATCH: usize = 4;
/// Cycles per window (about 1.1 s, 75 compactions).
const WINDOW_CYCLES: usize = 750;
/// One turnover = as many removals (and additions) as the graph has edges.
const BURN_IN_TURNOVERS: usize = 3;
/// Untimed cycles before the measured region; the golden state checksum is
/// taken right after them, at a batch every run reaches.
const WARMUP_BATCHES: usize = 40;
/// How often (in batches) the standing sets are checked against a
/// from-scratch query.
const CHECK_EVERY: usize = 100;

struct Inputs {
    base: Graph,
    standing: Vec<Graph>,
    oneshot: Vec<Graph>,
    /// The update stream, not yet drawn from.
    stream: StreamGen,
    db_gen_ms: f64,
    query_gen_ms: f64,
}

fn make_inputs(cfg: &RunConfig) -> Inputs {
    let t = Instant::now();
    let db = sqp_datagen::graphgen::generate(
        1,
        cfg.sized(VERTICES, 2_000),
        LABELS,
        DEGREE,
        cfg.sub_seed(1),
    );
    // Burn-in: the generator's uniform rewiring flattens graphgen's
    // tree-shaped degree skew (and with it the standing-embedding counts)
    // over the first few edge turnovers. Spending those on the mirror alone
    // starts the service on a graph the stream keeps statistically still.
    let ops = cfg.sized(OPS_PER_BATCH, 50);
    let mut burn_in = StreamGen::new(&db.graphs()[0], LABELS as u32, ops, cfg.sub_seed(3));
    for _ in 0..BURN_IN_TURNOVERS * 2 * db.graphs()[0].edge_count() / ops {
        burn_in.next_batch();
    }
    let base = burn_in.mirror().to_graph();
    let stream = StreamGen::new(&base, LABELS as u32, ops, cfg.sub_seed(2));
    let db_gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let source = GraphDb::from_graphs(vec![base.clone()]);
    let spec =
        |count| QuerySetSpec { edges: QUERY_EDGES, method: QueryGenMethod::RandomWalk, count };
    let standing = generate_query_set(&source, spec(STANDING_QUERIES), cfg.sub_seed(10));
    let oneshot = generate_query_set(&source, spec(ONESHOT_QUERIES), cfg.sub_seed(11));
    Inputs {
        base,
        standing,
        oneshot,
        stream,
        db_gen_ms,
        query_gen_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

fn inputs_fingerprint(inputs: &Inputs) -> u64 {
    let mut h = Fnv::default();
    h.u64(graph_fingerprint(&inputs.base));
    for q in inputs.standing.iter().chain(&inputs.oneshot) {
        h.u64(graph_fingerprint(q));
    }
    let mut stream = inputs.stream.clone();
    for up in (0..WARMUP_BATCHES).flat_map(|_| stream.next_batch()) {
        match up {
            Update::AddVertex { label } => h.u32(label.id()),
            Update::AddEdge { u, v } => h.u64(u64::from(u.id()) << 32 | u64::from(v.id())),
            Update::RemoveEdge { u, v } => h.u64(!(u64::from(u.id()) << 32 | u64::from(v.id()))),
            Update::RemoveVertex { vertex } => h.u32(!vertex.id()),
        }
    }
    h.finish()
}

fn sorted(mut es: Vec<Embedding>) -> Vec<Embedding> {
    es.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
    es
}

/// The service plus what the driver knows about it.
struct Live {
    service: ContinuousService,
    standing_ids: Vec<u64>,
    /// Its mirror is what the service's graph must hold.
    stream: StreamGen,
    batches_applied: usize,
}

impl Live {
    fn start(inputs: &Inputs) -> Self {
        let service = ContinuousService::new(inputs.base.clone(), CompactionPolicy::default());
        let standing_ids = inputs
            .standing
            .iter()
            .map(|q| service.register(q.clone(), Deadline::none()).expect("no deadline"))
            .collect();
        Self { service, standing_ids, stream: inputs.stream.clone(), batches_applied: 0 }
    }

    /// Invariant I10: every maintained standing set equals a from-scratch
    /// query of the same snapshot; and the overlay's size equals the
    /// generator's mirror.
    fn check_state(&self, report: &mut Report, inputs: &Inputs) {
        let batch = self.batches_applied;
        let mut stale = 0;
        for (id, q) in self.standing_ids.iter().zip(&inputs.standing) {
            let kept = self.service.embeddings(*id).map(sorted);
            let fresh = self.service.query(q, Deadline::none()).ok().map(sorted);
            stale += u64::from(kept.is_none() || kept != fresh);
        }
        report.attempted += self.standing_ids.len() as u64 + 1;
        report
            .fail(stale, format!("standing set differs from a fresh query after {batch} batches"));
        let (edges, vertices) =
            self.service.with_snapshot(|m| (m.graph().edge_count(), m.graph().live_vertex_count()));
        let mirror = self.stream.mirror();
        let expected = (mirror.edge_count(), mirror.vertex_count());
        report.fail(
            u64::from((edges, vertices) != expected),
            format!("overlay holds {edges} edges / {vertices} vertices after {batch} batches, mirror {expected:?}"),
        );
    }

    fn standing_embeddings(&self) -> usize {
        self.service.with_snapshot(|m| m.standing().iter().map(|sq| sq.embeddings().len()).sum())
    }

    /// Checksum of the maintained state: sizes plus every standing
    /// embedding, in id order.
    fn state_checksum(&self) -> u64 {
        let mut h = Fnv::default();
        let (edges, vertices) =
            self.service.with_snapshot(|m| (m.graph().edge_count(), m.graph().live_vertex_count()));
        h.u64(edges as u64);
        h.u64(vertices as u64);
        for id in &self.standing_ids {
            let es = self.service.embeddings(*id).map(sorted).unwrap_or_default();
            h.u64(es.len() as u64);
            for v in es.iter().flat_map(|e| e.as_slice()) {
                h.u32(v.id());
            }
        }
        h.finish()
    }
}

/// Latencies (ms) and outcomes of the measured cycles.
#[derive(Default)]
struct Cycles {
    /// Per cycle: the batch plus its reads (time inside the calls).
    cycles: Vec<f64>,
    updates: Vec<f64>,
    reads: Vec<f64>,
    wall_s: f64,
    bad_updates: u64,
    bad_reads: u64,
    /// Reads issued before this region began (rotates the one-shot queries
    /// on from there).
    reads_before: usize,
}

impl Cycles {
    fn cycles_per_s(&self) -> f64 {
        self.cycles.len() as f64 / self.wall_s
    }
}

/// Runs cycles (one batch, then its snapshot reads) for `seconds`, or
/// exactly `WARMUP_BATCHES` cycles when `seconds` is `None`, checking state
/// every so many batches. Drawing the next batch and checking state happen
/// between the timed calls.
fn run_cycles(
    report: &mut Report,
    live: &mut Live,
    inputs: &Inputs,
    seconds: Option<f64>,
    cycles: &mut Cycles,
) {
    let start = Instant::now();
    let more = |done: usize| match seconds {
        Some(s) => start.elapsed().as_secs_f64() < s,
        None => done < WARMUP_BATCHES,
    };
    while more(cycles.cycles.len()) {
        let batch = live.stream.next_batch();
        let t = Instant::now();
        let applied = live.service.apply_batch(&batch, 1, Deadline::none());
        let mut cycle_ms = t.elapsed().as_secs_f64() * 1e3;
        cycles.updates.push(cycle_ms);
        cycles.bad_updates += u64::from(!applied.is_ok_and(|r| r.applied == batch.len()));
        live.batches_applied += 1;
        for _ in 0..READS_PER_BATCH {
            let nth = cycles.reads_before + cycles.reads.len();
            let q = &inputs.oneshot[nth % inputs.oneshot.len()];
            let t = Instant::now();
            let found = live.service.query(q, Deadline::none());
            let read_ms = t.elapsed().as_secs_f64() * 1e3;
            cycles.reads.push(read_ms);
            cycle_ms += read_ms;
            cycles.bad_reads += u64::from(found.is_err());
        }
        cycles.cycles.push(cycle_ms);
        if live.batches_applied.is_multiple_of(CHECK_EVERY) {
            live.check_state(report, inputs);
        }
    }
    cycles.wall_s = start.elapsed().as_secs_f64();
}

pub fn run_dyn_mixed(cfg: &RunConfig) -> Report {
    let workload = "dyn_mixed";
    let mut report = Report::default();
    // One set-up: the inputs, the service with its standing queries
    // registered, and the untimed warm-up cycles.
    let set_up = |report: &mut Report| {
        let inputs = make_inputs(cfg);
        let mut live = Live::start(&inputs);
        let mut warm = Cycles::default();
        run_cycles(report, &mut live, &inputs, None, &mut warm);
        report.fail(warm.bad_updates + warm.bad_reads, "warm-up op failed");
        (inputs, live, warm.reads.len())
    };
    let mut setups = SetupTimer::default();
    let (inputs, mut live, warmup_reads) = setups.time(|| set_up(&mut report));

    let standing_after_warmup = live.standing_embeddings();
    let (inputs_fp, state_fp) = (inputs_fingerprint(&inputs), live.state_checksum());
    report.detail("inputs_fingerprint", hex(inputs_fp));
    report.detail("answers_checksum", hex(state_fp));
    goldens::gate(&mut report, cfg, workload, inputs_fp, state_fp);

    let measured = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let mut timed = Cycles { reads_before: warmup_reads, ..Default::default() };
    run_cycles(&mut report, &mut live, &inputs, Some(measured), &mut timed);
    let rss = peak_rss_mb();
    report.attempted += (timed.updates.len() + timed.reads.len()) as u64;
    report.fail(timed.bad_updates, "update batch was rejected or partly applied");
    report.fail(timed.bad_reads, "snapshot read failed");
    report.detail("timed_wall_s", Json::Num(timed.wall_s));
    report.detail("cycles", Json::Num(timed.cycles.len() as f64));
    report.detail("standing_embeddings_after_warmup", Json::Num(standing_after_warmup as f64));
    report.detail("standing_embeddings_at_end", Json::Num(live.standing_embeddings() as f64));

    if cfg.trace {
        trace_cycles(&mut report, cfg, workload, &inputs, &mut live, &timed);
        report.metric("datagen.db_gen_ms", inputs.db_gen_ms);
        report.metric("datagen.query_gen_ms", inputs.query_gen_ms);
    } else {
        let mut repeats = Report::default();
        setups.repeat(cfg, || set_up(&mut repeats));
        report.fail(repeats.failed, "repeated set-up failed a warm-up op or state check");
        let (summary, per_window) = Summary::over_windows(&timed.cycles, WINDOW_CYCLES);
        report.window_detail(&per_window);
        report.end_to_end(cfg, &setups, &summary, rss);
        // The two op kinds a cycle is made of, over the whole region.
        let (updates, reads) = (Summary::of(&timed.updates), Summary::of(&timed.reads));
        report.detail("update_p50_ms", Json::Num(updates.p50_ms));
        report.detail("update_p95_ms", Json::Num(updates.p95_ms));
        report.detail("read_p50_ms", Json::Num(reads.p50_ms));
        report.detail("read_p95_ms", Json::Num(reads.p95_ms));
    }
    live.check_state(&mut report, &inputs);
    report
}

/// The second half of a traced run: the same cycles with a span per layer
/// call, and a shadow `DynamicGraph` that replays each batch alone so the
/// overlay apply and the compaction can be told apart from the repair.
fn trace_cycles(
    report: &mut Report,
    cfg: &RunConfig,
    workload: &str,
    inputs: &Inputs,
    live: &mut Live,
    untraced: &Cycles,
) {
    let policy = CompactionPolicy::default();
    let mut shadow: DynamicGraph = live.service.with_snapshot(|m| m.graph().clone());
    let mut trace = Trace::default();
    let epoch = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let (mut apply_ms, mut repair_ms, mut compact_ms, mut enum_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut read_no = untraced.reads_before + untraced.reads.len();
    let (mut traced_batches, mut op, mut bad) = (0usize, 0u64, 0u64);
    while epoch.elapsed().as_secs_f64() < cfg.seconds / 2.0 {
        let batch = live.stream.next_batch();
        let t0 = Instant::now();
        let applied = live.service.apply_batch(&batch, 1, Deadline::none());
        let t1 = Instant::now();
        let shadowed = shadow.apply_batch(&batch);
        let t2 = Instant::now();
        let compaction = shadow.maybe_compact(&policy);
        let t3 = Instant::now();
        let root = trace.single("driver.batch", op, None, ns(t0), ns(t3));
        trace.single("core.apply_batch", op, Some(root), ns(t0), ns(t1));
        trace.single("graph.dyn_apply", op, Some(root), ns(t1), ns(t2));
        let mut inside_ms = (t2 - t1).as_secs_f64() * 1e3;
        apply_ms.push(inside_ms);
        if compaction.is_some() {
            trace.single("graph.compact", op, Some(root), ns(t2), ns(t3));
            compact_ms.push((t3 - t2).as_secs_f64() * 1e3);
            inside_ms += (t3 - t2).as_secs_f64() * 1e3;
        }
        repair_ms.push((t1 - t0).as_secs_f64() * 1e3 - inside_ms);
        bad += u64::from(shadowed.is_err());
        bad += u64::from(
            !applied.is_ok_and(|r| r.applied == batch.len() && r.compacted == compaction.is_some()),
        );
        op += 1;
        for _ in 0..READS_PER_BATCH {
            let q = &inputs.oneshot[read_no % inputs.oneshot.len()];
            let t0 = Instant::now();
            let served = live.service.query(q, Deadline::none());
            let t1 = Instant::now();
            let direct =
                live.service.with_snapshot(|m| enumerate_overlay(q, m.graph(), Deadline::none()));
            let t2 = Instant::now();
            let root = trace.single("driver.read", op, None, ns(t0), ns(t2));
            trace.single("core.query", op, Some(root), ns(t0), ns(t1));
            trace.single("matching.enumerate_overlay", op, Some(root), ns(t1), ns(t2));
            enum_ms.push((t2 - t1).as_secs_f64() * 1e3);
            bad += u64::from(served.ok().map(sorted) != direct.ok().map(sorted));
            op += 1;
            read_no += 1;
        }
        live.batches_applied += 1;
        traced_batches += 1;
    }
    let traced_wall_ns = epoch.elapsed().as_nanos() as u64;
    report.attempted += op;
    report.fail(bad, "traced cycle disagreed with the service (apply, compaction or read)");

    let med = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
    report.metric("graph.dyn_apply_ms_p50", med(&apply_ms));
    report.metric(
        "graph.compact_ms_mean",
        compact_ms.iter().sum::<f64>() / compact_ms.len().max(1) as f64,
    );
    report.metric("graph.compact_ms_max", compact_ms.iter().copied().fold(0.0, f64::max));
    report.metric("core.repair_ms_p50", med(&repair_ms));
    report.metric("matching.overlay_enum_ms_p50", med(&enum_ms));
    let s = live.service.stats();
    report.metric("graph.compactions", s.compactions as f64);
    report.metric(
        "core.repair_embeddings_per_batch",
        (s.embeddings_added + s.embeddings_removed) as f64 / s.update_batches.max(1) as f64,
    );
    report.metric("core.standing_embeddings", live.standing_embeddings() as f64);

    let traced_cycles_per_s = traced_batches as f64 / (traced_wall_ns as f64 / 1e9);
    close_traced_loop(
        report,
        cfg,
        workload,
        &trace,
        traced_wall_ns,
        traced_cycles_per_s,
        untraced.cycles_per_s(),
    );
}
