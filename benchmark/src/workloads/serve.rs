//! The serving workload `serve_open`, from one driver thread: an in-process
//! `QueryService` under a paced open loop, then saturated. Its traced run
//! also puts the same database behind two loopback `ShardServer`s and a
//! `Coordinator` and measures the distribution layers against the service.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqp_core::engines::CfqlEngine;
use sqp_core::wire::{self, Message, WireConfig, WireOutcome};
use sqp_core::{
    Admission, Coordinator, CoordinatorConfig, QueryEngine, QueryPool, QueryService, QueryTicket,
    ServiceConfig, ShardServer, ShardServerConfig,
};
use sqp_graph::Graph;
use sqp_matching::cfql::Cfql;
use sqp_matching::Deadline;

use super::static_db::{aids_inputs, Inputs};
use super::write_trace;
use crate::goldens;
use crate::harness::{
    answers_checksum, closed_loop, fold_checksums, hex, peak_rss_mb, Affinity, ClosedLoop, Report,
    RunConfig, SetupTimer, Summary,
};
use crate::json::Json;
use crate::openloop::{run_open_loop, run_saturation, Backend, OpRecord};
use crate::stats;
use crate::trace::Trace;

/// The database fits one core's L2, like every workload's (see
/// `static_db::AIDS_GRAPHS`); the matcher is then ~0.45 ms of a ~0.8 ms
/// query, so the serving layers are almost half of what is measured.
const GRAPHS: usize = 1_000;
const QUEUE_CAPACITY: usize = 4096;
/// A hundred per class, so that which queries a seed drew moves the median
/// latency little (with 100 in all, the paced p50 spread 10 % over ten
/// seeds). Reference answers for every query are computed sequentially
/// inside set-up (0.2 s).
const QUERIES: usize = 400;
/// Ops per window: two passes over the queries, so every window holds the
/// same work (2 s of phase A, about 0.5 s of phase B).
const WINDOW_OPS: usize = 2 * QUERIES;
/// `serve_open`'s paced rate, a quarter of the service's saturation
/// throughput (about 1 600 q/s on the reference box, on one CPU), so phase
/// A measures latency, not a growing backlog, even while the host runs at
/// half speed: at the issue's 100 q/s over 10 000 graphs (two thirds of
/// saturation there) the service fell behind whenever it did (2 runs in 30,
/// p95 36 ms and 1.2 s against 9.5 ms).
const SERVE_RATE: f64 = 400.0;
/// Share of the measured seconds `serve_open` spends in the open loop,
/// rounded down to whole windows (6 400 ops, eight windows, of 28 s); the
/// rest saturates (about twenty windows).
const SERVE_PHASE_A_SHARE: f64 = 0.6;
const OUTSTANDING: usize = 4;
/// The traced cluster run's paced probe, on the cluster and on a local
/// service: sends more than 52 ms apart, because from 20 q/s up every paced
/// query meets the 40 ms stall that back-to-back queries meet (p50 58 ms
/// against 11 ms at 10-18 q/s; see the README's observations).
const CLUSTER_PROBE_RATE: f64 = 16.0;
const SHARDS: usize = 2;
const WARMUP_QUERIES: usize = 16;
/// Queries behind the one-outstanding and pool probes of the traced run.
const PROBE_QUERIES: usize = 40;

/// Pool workers of the service under test. The whole process runs on one
/// CPU (see `harness::Affinity`), so more workers would only take turns.
/// With a worker per core and no pinning, four threads shared two cores and
/// the same paced query took 4.7, 7 or 13 ms depending on how the scheduler
/// happened to place them (p50 between runs of one seed: 4.7-7.2 ms).
const SERVICE_THREADS: usize = 1;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Anything with the serving layers' `submit`.
type Submit<'a> = &'a dyn Fn(&Graph) -> (QueryTicket, Admission);

/// The live backend: a wall clock, the submit entry point, and a log of what
/// each completed op answered (checked against the reference afterwards).
struct Live<'a> {
    epoch: Instant,
    submit: Submit<'a>,
    queries: &'a [Graph],
    /// Ops submitted by earlier phases: op `i` of the current phase sends
    /// query `(sent_before + i) % queries.len()`.
    sent_before: usize,
    /// `(query, answers checksum)` of every op that was admitted and
    /// completed.
    answered: Vec<(usize, u64)>,
}

impl<'a> Live<'a> {
    fn new(submit: Submit<'a>, queries: &'a [Graph]) -> Self {
        Self { epoch: Instant::now(), submit, queries, sent_before: 0, answered: Vec::new() }
    }
}

impl Backend for Live<'_> {
    type Ticket = (usize, QueryTicket, bool);

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep_until(&mut self, deadline_ns: u64) {
        std::thread::sleep(Duration::from_nanos(deadline_ns.saturating_sub(self.now_ns())));
    }

    fn submit(&mut self, op: usize) -> Self::Ticket {
        let query = (self.sent_before + op) % self.queries.len();
        let (ticket, admission) = (self.submit)(&self.queries[query]);
        (query, ticket, admission.is_admitted())
    }

    fn wait(&mut self, ticket: &Self::Ticket, deadline_ns: Option<u64>) -> Option<bool> {
        let (query, ticket, admitted) = ticket;
        let (outcome, _retries) = match deadline_ns {
            None => ticket.wait(),
            Some(d) => {
                ticket.wait_timeout(Duration::from_nanos(d.saturating_sub(self.now_ns())))?
            }
        };
        let ok = *admitted && outcome.status.is_completed();
        if ok {
            self.answered.push((*query, answers_checksum(&outcome.answers)));
        }
        Some(ok)
    }
}

/// Sequential `CfqlEngine` answers for every query: the reference the
/// served answers must equal.
fn reference_checksums(inputs: &Inputs) -> Vec<u64> {
    let mut engine = CfqlEngine::new();
    engine.build(&inputs.db).expect("CFQL builds no index");
    inputs.queries.iter().map(|q| answers_checksum(&engine.query(q).answers)).collect()
}

/// The inputs every set-up of a serving workload starts from.
struct Served {
    inputs: Inputs,
    /// Per query, the checksum a served answer must have.
    reference: Vec<u64>,
}

impl Served {
    fn new(cfg: &RunConfig) -> Self {
        let mut inputs = aids_inputs(cfg, GRAPHS, QUERIES / 4);
        inputs.queries.truncate(cfg.sized(QUERIES, 40));
        let reference = reference_checksums(&inputs);
        Self { inputs, reference }
    }

    /// The untimed ops before the measured region.
    fn warm_up(&self, submit: Submit<'_>) {
        one_outstanding(
            submit,
            &self.inputs.queries[..WARMUP_QUERIES.min(self.inputs.queries.len())],
        );
    }
}

struct Traffic {
    phase_a: Vec<OpRecord>,
    /// `query_p50_ms`/`query_p95_ms` from phase A (latency from the due
    /// time), `qps` from phase B; each the favourable quartile over its
    /// phase's windows.
    summary: Summary,
}

/// The default-seed golden over the inputs and the sequential reference
/// answers (which every served answer is checked against).
fn golden_gate(report: &mut Report, cfg: &RunConfig, workload: &str, served: &Served) {
    let (inputs_fp, answers_fp) = (served.inputs.fingerprint(), fold_checksums(&served.reference));
    report.detail("inputs_fingerprint", hex(inputs_fp));
    report.detail("answers_checksum", hex(answers_fp));
    goldens::gate(report, cfg, workload, inputs_fp, answers_fp);
}

/// Phase A (open loop at `SERVE_RATE` for `SERVE_PHASE_A_SHARE` of
/// `seconds`, in whole windows), then phase B (saturation for the rest);
/// every answer served (the drain after the saturation window included) is
/// checked against the sequential reference.
fn drive(
    report: &mut Report,
    cfg: &RunConfig,
    workload: &str,
    submit: Submit<'_>,
    served: &Served,
    seconds: f64,
) -> Traffic {
    let mut live = Live::new(submit, &served.inputs.queries);
    let planned = (SERVE_RATE * seconds * SERVE_PHASE_A_SHARE) as usize;
    let ops_a = if planned >= WINDOW_OPS { planned - planned % WINDOW_OPS } else { planned.max(1) };
    let phase_a = run_open_loop(&mut live, ops_a, (1e9 / SERVE_RATE) as u64);
    live.sent_before += ops_a;
    let paced_s = live.now_ns() as f64 / 1e9;
    let latencies_ms: Vec<f64> =
        phase_a.iter().filter(|r| r.ok).map(|r| r.latency_ns() as f64 / 1e6).collect();
    let sat =
        run_saturation(&mut live, OUTSTANDING, ((seconds - paced_s).max(0.1) * 1e9) as u64, 0);
    let failed = (ops_a - latencies_ms.len()) as u64 + sat.failed;
    report.attempted += ops_a as u64 + sat.completed + sat.failed;
    report.fail(failed, "op was shed or did not complete");
    let reference = &served.reference;
    let wrong = live.answered.iter().filter(|(query, sum)| reference[*query] != *sum).count();
    report.fail(wrong as u64, "served answers differ from the sequential reference");
    golden_gate(report, cfg, workload, served);

    let (mut summary, per_window) = Summary::over_windows(&latencies_ms, WINDOW_OPS);
    report.window_detail(&per_window);
    let rates = sat.window_rates(WINDOW_OPS);
    // The favourable quartile, as `Summary::quiet_quartile` takes it.
    let mut sorted_rates = rates.clone();
    stats::sort(&mut sorted_rates);
    summary.qps = stats::quantile_sorted(&sorted_rates, 0.75)
        .unwrap_or(sat.completed as f64 / (sat.wall_ns as f64 / 1e9).max(f64::MIN_POSITIVE));
    summary.windows = summary.windows.min(rates.len());
    report.detail("phase_a_ops", Json::Num(ops_a as f64));
    report.detail("phase_b_completed", Json::Num(sat.completed as f64));
    report.detail("phase_b_wall_s", Json::Num(sat.wall_ns as f64 / 1e9));
    report.detail("phase_b_window_qps", Json::Arr(rates.into_iter().map(Json::Num).collect()));
    Traffic { phase_a, summary }
}

/// One client, one query outstanding, back to back for `seconds`: the
/// latency of every op in the order run. Checks admission, completion and
/// the answers of every op.
fn drive_closed(
    report: &mut Report,
    submit: Submit<'_>,
    served: &Served,
    seconds: f64,
) -> ClosedLoop {
    let queries = &served.inputs.queries;
    let run = closed_loop(
        seconds,
        queries.len(),
        |i| {
            let (ticket, admission) = submit(&queries[i]);
            (admission.is_admitted(), ticket.wait().0)
        },
        |i, (admitted, outcome)| {
            admitted
                && outcome.status.is_completed()
                && answers_checksum(&outcome.answers) == served.reference[i]
        },
    );
    report.attempted += run.attempted;
    report.fail(run.failed, "op was shed, did not complete or answered differently");
    run
}

fn one_outstanding(submit: Submit<'_>, queries: &[Graph]) -> Vec<f64> {
    queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            submit(q).0.wait();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn admission_metrics(report: &mut Report, health: &sqp_core::ServiceHealth) {
    report.metric("core.admitted", health.admitted as f64);
    let offered = health.admitted + health.shed_total();
    report.metric("core.shed_frac", health.shed_total() as f64 / offered.max(1) as f64);
}

fn lateness_metrics(report: &mut Report, phase_a: &[OpRecord]) {
    let mut late: Vec<f64> = phase_a.iter().map(|r| r.lateness_ns() as f64 / 1e6).collect();
    stats::sort(&mut late);
    report.metric("driver.lateness_ms_p95", stats::quantile_sorted(&late, 0.95).unwrap_or(0.0));
    report.metric("driver.lateness_ms_max", late.last().copied().unwrap_or(0.0));
}

/// Spans of an open loop, derived from the timestamps the generator takes
/// anyway (so tracing adds no work to the measured region): per op, the
/// generator's lag, the `submit` call, and the time inside the service.
/// `names` = the root's, the submit span's and the service span's.
fn open_loop_spans(trace: &mut Trace, records: &[OpRecord], names: [&'static str; 3]) {
    for r in records.iter().filter(|r| r.ok) {
        let op = r.op as u64;
        let root = trace.single(names[0], op, None, r.due_ns, r.done_ns);
        trace.single("driver.lateness", op, Some(root), r.due_ns, r.submit_ns);
        trace.single(names[1], op, Some(root), r.submit_ns, r.submitted_ns);
        trace.single(names[2], op, Some(root), r.submitted_ns, r.done_ns);
    }
}

fn make_service(inputs: &Inputs, threads: usize) -> QueryService {
    QueryService::new(
        Arc::new(Cfql::new()),
        Arc::clone(&inputs.db),
        ServiceConfig { threads, queue_capacity: QUEUE_CAPACITY, ..Default::default() },
    )
}

pub fn run_serve_open(cfg: &RunConfig, affinity: Option<&Affinity>) -> Report {
    let workload = "serve_open";
    let mut report = Report::default();
    let set_up = || {
        let served = Served::new(cfg);
        let service = make_service(&served.inputs, SERVICE_THREADS);
        served.warm_up(&|q| service.submit(q));
        (served, service)
    };
    let mut setups = SetupTimer::default();
    let (served, service) = setups.time(set_up);
    let inputs = &served.inputs;
    let submit = |q: &Graph| service.submit(q);

    if !cfg.trace {
        let traffic = drive(&mut report, cfg, workload, &submit, &served, cfg.seconds);
        let rss = peak_rss_mb();
        setups.repeat(cfg, || {
            let (_, service) = set_up();
            service.shutdown();
        });
        report.end_to_end(cfg, &setups, &traffic.summary, rss);
    } else {
        let traffic = drive(&mut report, cfg, workload, &submit, &served, cfg.seconds * 0.5);
        report.metric("datagen.db_gen_ms", inputs.db_gen_ms);
        report.metric("datagen.query_gen_ms", inputs.query_gen_ms);
        lateness_metrics(&mut report, &traffic.phase_a);

        let probe = &inputs.queries[..PROBE_QUERIES.min(inputs.queries.len())];
        let mut one_by_one = one_outstanding(&submit, probe);
        let pooled = |threads: usize| -> Vec<f64> {
            let pool = QueryPool::new(threads);
            let matcher: Arc<dyn sqp_matching::Matcher> = Arc::new(Cfql::new());
            probe
                .iter()
                .map(|q| {
                    let out = pool.query(Arc::clone(&matcher), &inputs.db, q, Deadline::none());
                    out.wall_time.as_secs_f64() * 1e3
                })
                .collect()
        };
        // The pool's own speed-up needs every CPU; the rest stays on one.
        let spread = || (pooled(nproc()), pooled(1));
        let (wide, narrow) = affinity.map_or_else(spread, |a| a.with_all_cpus(spread));
        report.metric("core.pool_speedup", narrow.iter().sum::<f64>() / wide.iter().sum::<f64>());
        let med = |xs: &[f64]| stats::median(xs).unwrap_or(f64::NAN);
        let direct = pooled(SERVICE_THREADS);
        report.metric("core.dispatch_overhead_us", (med(&one_by_one) - med(&direct)) * 1e3);
        let local_ms = med(&one_by_one);
        stats::sort(&mut one_by_one);
        let one_by_one_p95 = stats::quantile_sorted(&one_by_one, 0.95).unwrap_or(f64::NAN);
        report.metric("core.queueing_ms_p95", traffic.summary.p95_ms - one_by_one_p95);
        admission_metrics(&mut report, &service.health());

        let mut trace = Trace::default();
        open_loop_spans(&mut trace, &traffic.phase_a, ["driver.op", "core.submit", "core.service"]);
        cluster_layers(&mut report, cfg, &served, &submit, local_ms, &mut trace);
        write_trace(&mut report, cfg, workload, &trace);
    }
    let drain = service.shutdown();
    report.fail(u64::from(!drain.drained_within_deadline), "service did not drain in time");
    report
}

struct Cluster {
    coordinator: Coordinator,
    shards: Vec<ShardServer>,
}

impl Cluster {
    fn start(inputs: &Inputs) -> Self {
        let shards: Vec<ShardServer> = (0..SHARDS)
            .map(|shard_index| {
                let config = ShardServerConfig {
                    shard_index,
                    shards: SHARDS,
                    service: ServiceConfig {
                        threads: 1,
                        queue_capacity: QUEUE_CAPACITY,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                ShardServer::start(Arc::new(Cfql::new()), &inputs.db, config)
                    .expect("bind a loopback port")
            })
            .collect();
        let coordinator = Coordinator::new(
            &inputs.db,
            CoordinatorConfig {
                shard_addrs: shards.iter().map(|s| s.local_addr().to_string()).collect(),
                scatter_threads: SHARDS,
                queue_capacity: QUEUE_CAPACITY,
                ..Default::default()
            },
        );
        Self { coordinator, shards }
    }

    /// Stops every thread and socket; `false` if a drain ran out of time.
    fn stop(self) -> bool {
        let mut clean = self.coordinator.shutdown().drained_within_deadline;
        for shard in self.shards {
            clean &= shard.shutdown().drained_within_deadline;
        }
        clean
    }
}

/// The distribution layers (`wire`, `shard`, `coordinator`), measured in the
/// traced run against the local service over the same database and queries:
/// two loopback `ShardServer`s (one worker each) behind a `Coordinator`.
/// `local_ms` is the local service's one-outstanding median; the difference
/// to the cluster's is the distribution overhead, back to back and paced.
fn cluster_layers(
    report: &mut Report,
    cfg: &RunConfig,
    served: &Served,
    local_submit: Submit<'_>,
    local_ms: f64,
    trace: &mut Trace,
) {
    let inputs = &served.inputs;
    let t = Instant::now();
    let cluster = Cluster::start(inputs);
    let submit = |q: &Graph| cluster.coordinator.submit(q);
    served.warm_up(&submit);
    report.detail("cluster_start_s", Json::Num(t.elapsed().as_secs_f64()));
    wire_metrics(report, inputs);

    // Back to back, one query outstanding, every answer checked.
    let run = drive_closed(report, &submit, served, cfg.seconds * 0.12);
    let cluster_ms = stats::median(&run.latencies_ms).unwrap_or(f64::NAN);
    report.metric("core.cluster_overhead_ms", cluster_ms - local_ms);
    report.detail("cluster_back_to_back_p50_ms", Json::Num(cluster_ms));

    // Paced, both paths at the same rate.
    let ops = ((CLUSTER_PROBE_RATE * cfg.seconds * 0.12).round() as usize).max(1);
    let paced = |submit: Submit<'_>| {
        let mut live = Live::new(submit, &inputs.queries);
        let records = run_open_loop(&mut live, ops, (1e9 / CLUSTER_PROBE_RATE) as u64);
        let ms: Vec<f64> = records.iter().map(|r| r.latency_ns() as f64 / 1e6).collect();
        (records, stats::median(&ms).unwrap_or(f64::NAN))
    };
    let (records, cluster_paced) = paced(&submit);
    let (_, local_paced) = paced(local_submit);
    report.attempted += 2 * ops as u64;
    report
        .fail(records.iter().filter(|r| !r.ok).count() as u64, "paced cluster op did not complete");
    report.metric("core.cluster_paced_overhead_ms", cluster_paced - local_paced);
    report.detail("cluster_paced_p50_ms", Json::Num(cluster_paced));
    open_loop_spans(trace, &records, ["driver.cluster_op", "core.cluster_submit", "core.cluster"]);

    let peers = cluster.coordinator.peer_stats();
    report.metric("core.shard_retries", peers.iter().map(|p| p.retries).sum::<u64>() as f64);
    report
        .metric("core.shard_unavailable", peers.iter().map(|p| p.unavailable).sum::<u64>() as f64);
    report.fail(u64::from(!cluster.stop()), "cluster did not drain in time");
}

/// `wire::encode_frame` / `decode_frame` on the frames one query really
/// costs: the `Query` out, and the `Answers` + `Outcome` back.
fn wire_metrics(report: &mut Report, inputs: &Inputs) {
    let mut engine = CfqlEngine::new();
    engine.build(&inputs.db).expect("CFQL builds no index");
    let probe = &inputs.queries[..PROBE_QUERIES.min(inputs.queries.len())];
    let messages: Vec<Message> = probe
        .iter()
        .enumerate()
        .flat_map(|(id, q)| {
            let id = id as u64;
            let outcome = engine.query(q);
            [
                Message::Query { id, budget_ms: 0, graph: q.clone() },
                Message::Answers { id, graphs: outcome.answers.clone() },
                Message::Outcome { id, outcome: WireOutcome::from_outcome(&outcome, 0) },
            ]
        })
        .collect();
    let t = Instant::now();
    let frames: Vec<Vec<u8>> = messages.iter().map(wire::encode_frame).collect();
    let encode_us = t.elapsed().as_secs_f64() * 1e6;
    let config = WireConfig::default();
    let t = Instant::now();
    let undecodable = frames.iter().filter(|f| wire::decode_frame(f, &config).is_err()).count();
    let decode_us = t.elapsed().as_secs_f64() * 1e6;
    report.fail(undecodable as u64, "wire frame did not decode");
    let per_query = probe.len().max(1) as f64;
    report.metric("core.wire_encode_us", encode_us / per_query);
    report.metric("core.wire_decode_us", decode_us / per_query);
    let bytes: usize = frames.iter().map(Vec::len).sum();
    report.metric("core.wire_bytes_per_query", bytes as f64 / per_query);
}
