//! Loopback chaos suite for the sharded scatter–gather service
//! (DESIGN.md "Distributed serving", invariant I8 extended to shard
//! failure):
//!
//! * a healthy N-shard cluster returns answers **byte-identical** to a
//!   single-process [`QueryService`] run, at 1/2/4/8 scatter threads;
//! * killing one of three shards degrades every query to a *partial*
//!   result: healthy graphs stay byte-identical to the local run, every
//!   graph placed on the dead shard is attributed
//!   [`QueryStatus::Unavailable`] (never silently dropped), the dead
//!   peer's circuit breaker opens while the healthy peers' stay closed,
//!   and the whole report is identical at any scatter width;
//! * a shard whose outbound frames are bit-flipped ([`WireChaos`]) or
//!   silently dropped is detected (checksum / read deadline) and degraded
//!   exactly like a dead shard — the coordinator never hangs or panics;
//! * deadline propagation: a shard slowed far past the query budget
//!   replies `TimedOut` within the budget (plus slack) instead of stalling
//!   the query — and an answering-but-slow peer does **not** charge its
//!   breaker;
//! * drain terminates and every pool/executor thread of the cluster is
//!   reclaimed (checked via `/proc/self/task` thread names);
//! * the client hop is the same server and the same client: a
//!   [`WireClient`] through an in-process coordinator front
//!   ([`WireServer::front`], what `sqp serve` starts) gets answers
//!   byte-identical to the local run and a killed shard's graphs as
//!   `Unavailable`; every socket the front accepts has `TCP_NODELAY`; each
//!   handshake refusal (version, role, database, placement) arrives as
//!   `Message::Error` with its own text on both hops; and a peer that
//!   reconnects fifty times leaves no tracked connection behind.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use subgraph_query::core::chaos::graph_fingerprint;
use subgraph_query::core::prelude::*;
use subgraph_query::core::wire::{read_frame, write_frame, PeerRole, WIRE_VERSION};
use subgraph_query::datagen::graphgen;
use subgraph_query::datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
use subgraph_query::graph::database::GraphId;
use subgraph_query::graph::{Graph, GraphDb};
use subgraph_query::matching::cfql::Cfql;
use subgraph_query::matching::Matcher;

/// Fixture: 30 data graphs x 8 queries, collision-free fingerprints, and a
/// placement over 3 shards in which every shard holds at least one graph.
fn fixture() -> (Arc<GraphDb>, Vec<Graph>) {
    let db = Arc::new(graphgen::generate(30, 14, 4, 3.0, 19));
    let spec = QuerySetSpec { edges: 4, method: QueryGenMethod::RandomWalk, count: 8 };
    let queries = generate_query_set(&db, spec, 23);
    assert_eq!(queries.len(), 8);
    let mut fps: Vec<u64> =
        db.graphs().iter().chain(queries.iter()).map(graph_fingerprint).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), db.len() + queries.len(), "fingerprint collision in fixture");
    let placement = ShardPlacement::new(&db, 3);
    for s in 0..3 {
        assert!(!placement.globals(s).is_empty(), "empty shard {s} in fixture");
    }
    (db, queries)
}

fn start_shard(
    db: &GraphDb,
    index: usize,
    shards: usize,
    prefix: &str,
    chaos: Option<WireChaos>,
    matcher: Arc<dyn Matcher>,
) -> ShardServer {
    let config = ShardServerConfig {
        shard_index: index,
        shards,
        service: ServiceConfig {
            threads: 1,
            thread_prefix: format!("{prefix}{index}"),
            ..Default::default()
        },
        chaos,
        ..Default::default()
    };
    ShardServer::start(matcher, db, config).expect("shard server must start")
}

fn start_cluster(db: &GraphDb, shards: usize, prefix: &str) -> Vec<ShardServer> {
    (0..shards).map(|i| start_shard(db, i, shards, prefix, None, Arc::new(Cfql::new()))).collect()
}

/// A coordinator over `servers` with test-friendly timeouts: `idle` is the
/// read deadline that turns a silent shard into `Unavailable`.
fn coordinator_over(
    db: &GraphDb,
    servers: &[ShardServer],
    scatter_threads: usize,
    runner: RunnerConfig,
    breaker: BreakerConfig,
    idle: Duration,
) -> Coordinator {
    Coordinator::new(
        db,
        CoordinatorConfig {
            shard_addrs: servers.iter().map(|s| s.local_addr().to_string()).collect(),
            runner,
            breaker,
            scatter_threads,
            connect_timeout: Duration::from_millis(500),
            idle_read_timeout: idle,
            ..Default::default()
        },
    )
}

/// The coordinator front over `servers`, in process: what `sqp serve` runs.
fn front_over(db: &GraphDb, servers: &[ShardServer], runner: RunnerConfig) -> WireServer {
    let config = CoordinatorConfig {
        shard_addrs: servers.iter().map(|s| s.local_addr().to_string()).collect(),
        runner,
        breaker: BreakerConfig { fault_threshold: 2, cooldown: 100 },
        connect_timeout: Duration::from_millis(500),
        idle_read_timeout: Duration::from_millis(150),
        ..Default::default()
    };
    WireServer::front(db, "127.0.0.1:0", config).expect("front must start")
}

/// How long the client-hop tests wait on a connect or a reply frame.
const PATIENCE: Duration = Duration::from_secs(10);

/// A wire client of `front`, greeting as a client of the database `db_fp`.
fn client_of(front: &WireServer, db: &GraphDb, db_fp: u64) -> Result<WireClient, WireError> {
    let addr = front.local_addr().to_string();
    let wire = WireConfig::default();
    WireClient::connect(&addr, Greeting::client(db_fp), db.len(), wire, PATIENCE, PATIENCE)
}

/// The per-query view the assertions compare: everything that must be
/// deterministic across scatter widths.
#[derive(Clone, Debug, PartialEq)]
struct QueryView {
    answers: Vec<GraphId>,
    failures: Vec<GraphFailure>,
    status: QueryStatus,
    retries: u32,
}

fn run_all(c: &Coordinator, queries: &[Graph]) -> Vec<QueryView> {
    queries
        .iter()
        .map(|q| {
            let (ticket, admission) = c.submit(q);
            assert!(matches!(admission, Admission::Admitted), "lockstep submit must admit");
            let (o, retries) = ticket.wait();
            QueryView { answers: o.answers, failures: o.failures, status: o.status, retries }
        })
        .collect()
}

/// Single-process ground truth: the answers of each query on the full db.
fn local_answers(db: &Arc<GraphDb>, queries: &[Graph]) -> Vec<Vec<GraphId>> {
    let service = QueryService::new(
        Arc::new(Cfql::new()),
        Arc::clone(db),
        ServiceConfig { threads: 1, thread_prefix: "dloc".into(), ..Default::default() },
    );
    let out = queries
        .iter()
        .map(|q| {
            let (ticket, _) = service.submit(q);
            ticket.wait().0.answers
        })
        .collect();
    service.shutdown();
    out
}

/// Number of live threads whose name starts with `prefix` (Linux).
fn named_threads(prefix: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end().starts_with(prefix))
        })
        .count()
}

/// What a degraded run must look like when exactly `dead` (a peer index)
/// is unavailable: healthy answers byte-identical to the local run, every
/// graph of the dead shard attributed `Unavailable`, overall status
/// `Unavailable`.
fn assert_degraded(
    views: &[QueryView],
    local: &[Vec<GraphId>],
    placement: &ShardPlacement,
    dead: usize,
) {
    let dead_set = placement.globals(dead);
    let expected_failures: Vec<GraphFailure> = dead_set
        .iter()
        .map(|&g| GraphFailure { graph: g, status: QueryStatus::Unavailable })
        .collect();
    for (i, view) in views.iter().enumerate() {
        let healthy: Vec<GraphId> =
            local[i].iter().copied().filter(|g| dead_set.binary_search(g).is_err()).collect();
        assert_eq!(
            view.answers, healthy,
            "query {i}: healthy answers must be byte-identical to the local run"
        );
        assert_eq!(
            view.failures, expected_failures,
            "query {i}: every graph of dead shard {dead} must be attributed Unavailable"
        );
        assert_eq!(view.status, QueryStatus::Unavailable, "query {i}");
    }
}

/// A healthy cluster is indistinguishable from the single-process service,
/// for 1 and 3 shards, at every scatter width.
#[test]
fn healthy_cluster_matches_local_run() {
    let (db, queries) = fixture();
    let local = local_answers(&db, &queries);
    for shards in [1usize, 3] {
        let servers = start_cluster(&db, shards, "dhl");
        for scatter in [1usize, 2, 4, 8] {
            let c = coordinator_over(
                &db,
                &servers,
                scatter,
                RunnerConfig::with_budget(Duration::from_secs(60)),
                BreakerConfig::default(),
                Duration::from_secs(10),
            );
            let views = run_all(&c, &queries);
            for (i, view) in views.iter().enumerate() {
                assert_eq!(view.status, QueryStatus::Completed, "query {i} at {shards} shards");
                assert!(view.failures.is_empty(), "query {i} at {shards} shards");
                assert_eq!(
                    view.answers, local[i],
                    "query {i} at {shards} shards / {scatter} scatter threads"
                );
            }
            // Both ends of every connection write small frames back to
            // back; a shard socket left with Nagle on stalls each query on
            // the coordinator's delayed ACK.
            for (i, server) in servers.iter().enumerate() {
                let nodelay = server.connections_nodelay();
                assert!(!nodelay.is_empty(), "shard {i} accepted no connection");
                assert!(nodelay.iter().all(|&on| on), "shard {i}: TCP_NODELAY off: {nodelay:?}");
            }
            let d = c.shutdown();
            assert!(d.drained_within_deadline);
        }
        for s in servers {
            let d = s.shutdown();
            assert!(d.drained_within_deadline, "shard drain must finish");
        }
    }
}

/// Kill one of three shards: every query degrades to a partial result with
/// the dead shard's graphs attributed Unavailable, the dead peer's breaker
/// opens (healthy peers stay closed), and the whole report is identical at
/// 1/2/4/8 scatter threads.
#[test]
fn killed_shard_degrades_to_partial_results() {
    let (db, queries) = fixture();
    let local = local_answers(&db, &queries);
    let servers = start_cluster(&db, 3, "dkl");
    // SIGKILL stand-in: sever everything shard 1 has, stop serving.
    servers[1].kill_connections();

    let mut runner = RunnerConfig::with_budget(Duration::from_secs(5));
    runner.max_retries = 1;
    runner.retry_backoff = Duration::from_millis(5);
    let breaker = BreakerConfig { fault_threshold: 2, cooldown: 100 };

    let mut baseline: Option<Vec<QueryView>> = None;
    for scatter in [1usize, 2, 4, 8] {
        let c =
            coordinator_over(&db, &servers, scatter, runner, breaker, Duration::from_millis(150));
        let views = run_all(&c, &queries);
        assert_degraded(&views, &local, c.placement(), 1);

        // Breakers: the dead peer trips after `fault_threshold` queries and
        // stays quarantined; the healthy peers never charge.
        assert_eq!(c.breaker_state(1), BreakerState::Open, "dead peer must be quarantined");
        assert_eq!(c.breaker_state(0), BreakerState::Closed);
        assert_eq!(c.breaker_state(2), BreakerState::Closed);
        let stats = c.peer_stats();
        assert_eq!(stats[1].unavailable, 2, "only pre-trip queries probe the dead peer");
        assert_eq!(stats[1].retries, 2, "one transport retry per probed query");
        assert_eq!(stats[0].unavailable, 0);
        assert_eq!(stats[2].unavailable, 0);
        assert_eq!(stats[0].queries, queries.len() as u64);

        match &baseline {
            None => baseline = Some(views),
            Some(first) => assert_eq!(
                &views, first,
                "degraded report must be identical at {scatter} scatter threads"
            ),
        }
        let d = c.shutdown();
        assert!(d.drained_within_deadline);
    }
    for s in servers {
        s.shutdown(); // the killed shard must still reclaim its threads
    }
}

/// A shard whose outbound frames are all bit-flipped is detected by the
/// checksum and degraded exactly like a dead shard — for that peer only.
#[test]
fn corrupting_shard_degrades_to_partial_results() {
    let (db, queries) = fixture();
    let local = local_answers(&db, &queries);
    let corrupt =
        WireChaos::new(WireChaosConfig { seed: 7, corrupt_per_mille: 1000, ..Default::default() });
    let servers = vec![
        start_shard(&db, 0, 3, "dco", None, Arc::new(Cfql::new())),
        start_shard(&db, 1, 3, "dco", Some(corrupt), Arc::new(Cfql::new())),
        start_shard(&db, 2, 3, "dco", None, Arc::new(Cfql::new())),
    ];
    let mut runner = RunnerConfig::with_budget(Duration::from_secs(5));
    runner.max_retries = 1;
    runner.retry_backoff = Duration::from_millis(5);
    let c = coordinator_over(
        &db,
        &servers,
        4,
        runner,
        BreakerConfig { fault_threshold: 2, cooldown: 100 },
        Duration::from_millis(300),
    );
    let views = run_all(&c, &queries);
    assert_degraded(&views, &local, c.placement(), 1);
    assert_eq!(c.breaker_state(1), BreakerState::Open);
    assert_eq!(c.breaker_state(0), BreakerState::Closed);
    assert_eq!(c.breaker_state(2), BreakerState::Closed);
    let d = c.shutdown();
    assert!(d.drained_within_deadline);
    for s in servers {
        s.shutdown();
    }
}

/// A shard that silently swallows every reply (drop chaos) hits the read
/// deadline instead of hanging the coordinator, and degrades the same way.
#[test]
fn silent_shard_hits_the_read_deadline() {
    let (db, queries) = fixture();
    let local = local_answers(&db, &queries);
    let drop_all =
        WireChaos::new(WireChaosConfig { seed: 11, drop_per_mille: 1000, ..Default::default() });
    let servers = vec![
        start_shard(&db, 0, 3, "dsi", None, Arc::new(Cfql::new())),
        start_shard(&db, 1, 3, "dsi", Some(drop_all), Arc::new(Cfql::new())),
        start_shard(&db, 2, 3, "dsi", None, Arc::new(Cfql::new())),
    ];
    let mut runner = RunnerConfig::with_budget(Duration::from_secs(5));
    runner.max_retries = 1;
    runner.retry_backoff = Duration::from_millis(5);
    let c = coordinator_over(
        &db,
        &servers,
        4,
        runner,
        BreakerConfig { fault_threshold: 2, cooldown: 100 },
        Duration::from_millis(150),
    );
    let start = Instant::now();
    let views = run_all(&c, &queries);
    assert_degraded(&views, &local, c.placement(), 1);
    assert_eq!(c.breaker_state(1), BreakerState::Open);
    // 2 probed queries x 2 attempts x 150ms deadline, plus healthy work:
    // the silent shard must cost bounded time, not a hang.
    assert!(start.elapsed() < Duration::from_secs(10), "coordinator must not hang");
    let d = c.shutdown();
    assert!(d.drained_within_deadline);
    for s in servers {
        s.shutdown();
    }
}

/// Deadline propagation: a shard slowed far past the query budget replies
/// `TimedOut` within the budget (plus transport slack) — the query is
/// degraded, not stalled, and an *answering* slow peer does not charge its
/// breaker.
#[test]
fn slow_shard_times_out_within_budget() {
    let (db, queries) = fixture();
    let local = local_answers(&db, &queries);
    let slow: Arc<dyn Matcher> =
        Arc::new(SlowMatcher::new(Arc::new(Cfql::new()), Duration::from_secs(2)));
    let servers = vec![
        start_shard(&db, 0, 3, "dsl", None, Arc::new(Cfql::new())),
        start_shard(&db, 1, 3, "dsl", None, slow),
        start_shard(&db, 2, 3, "dsl", None, Arc::new(Cfql::new())),
    ];
    let mut runner = RunnerConfig::with_budget(Duration::from_millis(300));
    runner.max_retries = 0;
    let c = coordinator_over(
        &db,
        &servers,
        4,
        runner,
        BreakerConfig::default(),
        Duration::from_secs(10),
    );
    let placement = c.placement().clone();
    let slow_set = placement.globals(1).to_vec();
    for (i, q) in queries.iter().enumerate().take(3) {
        let start = Instant::now();
        let (ticket, _) = c.submit(q);
        let (o, _) = ticket.wait();
        assert!(
            start.elapsed() < Duration::from_millis(1500),
            "query {i}: the 2s-slow shard must not stall past the 300ms budget"
        );
        assert_eq!(o.status, QueryStatus::TimedOut, "query {i}");
        let healthy: Vec<GraphId> =
            local[i].iter().copied().filter(|g| slow_set.binary_search(g).is_err()).collect();
        assert_eq!(o.answers, healthy, "query {i}: healthy shards still answer in full");
    }
    // The slow peer *answered* (TimedOut is a shard-internal outcome, not a
    // transport fault): its breaker must stay closed.
    assert_eq!(c.breaker_state(1), BreakerState::Closed);
    let d = c.shutdown();
    assert!(d.drained_within_deadline);
    for s in servers {
        let d = s.shutdown();
        assert!(d.drained_within_deadline);
    }
}

/// Drain terminates and reclaims every pool/executor thread the cluster
/// started (distinctive prefix, counted via /proc/self/task).
#[test]
fn drain_reclaims_every_cluster_thread() {
    let (db, queries) = fixture();
    let prefix = "dlk";
    let can_count = std::path::Path::new("/proc/self/task").exists();
    assert_eq!(named_threads(prefix), 0);
    let servers = start_cluster(&db, 3, prefix);
    let c = coordinator_over(
        &db,
        &servers,
        4,
        RunnerConfig::with_budget(Duration::from_secs(60)),
        BreakerConfig::default(),
        Duration::from_secs(10),
    );
    let views = run_all(&c, &queries[..2]);
    assert!(views.iter().all(|v| v.status == QueryStatus::Completed));
    if can_count {
        assert!(named_threads(prefix) > 0, "cluster threads must be visible while serving");
    }
    let start = Instant::now();
    let d = c.shutdown();
    assert!(d.drained_within_deadline, "coordinator drain must finish");
    for s in servers {
        let d = s.shutdown();
        assert!(d.drained_within_deadline, "shard drain must finish");
    }
    assert!(start.elapsed() < Duration::from_secs(10), "drain must terminate promptly");
    if can_count {
        let settle = Instant::now();
        while named_threads(prefix) > 0 {
            assert!(
                settle.elapsed() < Duration::from_secs(5),
                "leaked {} threads with prefix {prefix}",
                named_threads(prefix)
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// The client hop: a wire client through the in-process front over three
/// shards sees the local run's answers byte for byte, on sockets with
/// `TCP_NODELAY`; once a shard is killed, the same client sees exactly that
/// shard's graphs attributed `Unavailable`.
#[test]
fn client_through_the_front_matches_local_run_then_degrades() {
    let (db, queries) = fixture();
    let local = local_answers(&db, &queries);
    let servers = start_cluster(&db, 3, "dfr");
    let mut runner = RunnerConfig::with_budget(Duration::from_secs(5));
    runner.max_retries = 1;
    runner.retry_backoff = Duration::from_millis(5);
    let front = front_over(&db, &servers, runner);
    assert_eq!(front.graphs(), db.len());
    let mut client = client_of(&front, &db, db_fingerprint(&db))
        .expect("the front must accept a client of the same database");
    let run = |client: &mut WireClient| -> Vec<QueryView> {
        queries
            .iter()
            .map(|q| {
                let (answers, outcome) =
                    client.query(q, None, PATIENCE).expect("the front must answer");
                let (o, retries) = outcome.into_outcome(answers);
                QueryView { answers: o.answers, failures: o.failures, status: o.status, retries }
            })
            .collect()
    };

    for (i, view) in run(&mut client).iter().enumerate() {
        assert_eq!(view.status, QueryStatus::Completed, "query {i}");
        assert!(view.failures.is_empty(), "query {i}");
        assert_eq!(view.answers, local[i], "query {i}: answers through the front");
    }
    let nodelay = front.connections_nodelay();
    assert_eq!(nodelay, [true], "one client socket on the front, TCP_NODELAY on");

    servers[1].kill_connections();
    let views = run(&mut client);
    assert_degraded(&views, &local, &ShardPlacement::new(&db, 3), 1);

    client.bye();
    assert!(front.shutdown().drained_within_deadline);
    for s in servers {
        s.shutdown();
    }
}

/// Sends `hello` on a fresh connection to `addr`, returns the reply frame,
/// and hangs up.
fn hello_reply(addr: std::net::SocketAddr, hello: &Message) -> Result<Message, WireError> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(PATIENCE)).unwrap();
    write_frame(&mut stream, hello).expect("send hello");
    read_frame(&mut stream, &WireConfig::default())
}

/// The text of the `Message::Error` that `hello` is refused with at `addr`.
fn refusal(addr: std::net::SocketAddr, hello: Message) -> String {
    match hello_reply(addr, &hello) {
        Ok(Message::Error { message }) => message,
        other => panic!("{hello:?} must be refused with an Error frame, got {other:?}"),
    }
}

/// Both hops are one server: a hello of the wrong version, role, database
/// or placement is refused with a reason of its own on the shard and on the
/// front, and the wire client surfaces that reason.
#[test]
fn each_handshake_refusal_has_its_own_text_on_both_hops() {
    let (db, _) = fixture();
    let fp = db_fingerprint(&db);
    let servers = start_cluster(&db, 1, "dhs");
    let front = front_over(&db, &servers, RunnerConfig::default());
    let as_client = |shards| Greeting { role: PeerRole::Client, db_fp: fp, shards, shard_index: 0 };

    let shard = servers[0].local_addr();
    let good = Greeting::coordinator(fp, 1, 0);
    let on_shard = [
        (good.hello(WIRE_VERSION + 1), "wire version mismatch: peer 2, this 1"),
        (as_client(1).hello(WIRE_VERSION), "role mismatch: peer is a Client"),
        (Greeting { db_fp: fp ^ 1, ..good }.hello(WIRE_VERSION), "database fingerprint mismatch"),
        (
            Greeting::coordinator(fp, 3, 1).hello(WIRE_VERSION),
            "placement mismatch: peer expects shard 1/3, this is 0/1",
        ),
    ];
    for (hello, text) in on_shard {
        let got = refusal(shard, hello);
        assert!(got.starts_with(text), "shard refused with {got:?}, want {text:?}");
    }

    let good = Greeting::client(fp);
    let on_front = [
        (good.hello(WIRE_VERSION + 1), "wire version mismatch: peer 2, this 1"),
        (
            Greeting::coordinator(fp, 0, 0).hello(WIRE_VERSION),
            "role mismatch: peer is a Coordinator",
        ),
        (Greeting { db_fp: fp ^ 1, ..good }.hello(WIRE_VERSION), "database fingerprint mismatch"),
        (as_client(3).hello(WIRE_VERSION), "placement mismatch: peer expects shard 0/3"),
    ];
    for (hello, text) in on_front {
        let got = refusal(front.local_addr(), hello);
        assert!(got.starts_with(text), "front refused with {got:?}, want {text:?}");
    }

    match client_of(&front, &db, fp ^ 1) {
        Err(WireError::Remote(text)) => {
            assert!(text.starts_with("database fingerprint mismatch"), "{text}")
        }
        Err(other) => panic!("the refusal must reach the client as the server's text: {other}"),
        Ok(_) => panic!("a client of another database must be refused"),
    }

    front.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// The coordinator reconnects on every transport error, so a server must
/// forget a connection when it ends: after fifty connect + hello + drop
/// cycles neither hop tracks a connection (at the parent commit every one
/// of them kept its cloned fd until shutdown).
#[test]
fn reconnecting_peers_leave_no_tracked_connections() {
    let (db, _) = fixture();
    let fp = db_fingerprint(&db);
    let servers = start_cluster(&db, 1, "drc");
    let front = front_over(&db, &servers, RunnerConfig::default());
    let hops = [(&servers[0], Greeting::coordinator(fp, 1, 0)), (&front, Greeting::client(fp))];
    for (server, greeting) in hops {
        for cycle in 0..50 {
            let ack = hello_reply(server.local_addr(), &greeting.hello(WIRE_VERSION));
            assert!(matches!(ack, Ok(Message::HelloAck { .. })), "cycle {cycle}: {ack:?}");
        }
        let settle = Instant::now();
        while !server.connections_nodelay().is_empty() {
            assert!(
                settle.elapsed() < Duration::from_secs(5),
                "{} connections still tracked after their peers hung up",
                server.connections_nodelay().len()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    front.shutdown();
    for s in servers {
        s.shutdown();
    }
}
