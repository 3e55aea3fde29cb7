//! Hash placement of the database over shard workers, and the one TCP
//! server of the [`crate::wire`] protocol.
//!
//! Placement is **deterministic and data-derived**: graph `g` lives on
//! shard `graph_fingerprint(g) % shards` ([`shard_of`]). Every process
//! that can see the full database — the coordinator for attribution, each
//! shard worker for its own slice — computes the identical
//! [`ShardPlacement`] independently; nothing about placement travels over
//! the wire, so a corrupted peer cannot shift graphs between shards.
//!
//! A [`WireServer`] puts a serving front behind a socket: handshake, then
//! for each [`Message::Query`] it submits the query with the frame's
//! remaining `budget_ms` as a per-query budget override (deadline
//! propagation) and streams [`Message::Answers`] chunks followed by one
//! [`Message::Outcome`]. Both hops of the sharded service are this server;
//! what differs between them is data:
//!
//! | | shard worker ([`WireServer::start`]) | coordinator front ([`WireServer::front`]) |
//! |---|---|---|
//! | front | a [`QueryService`] over the shard's slice | a [`Coordinator`] over the shard addresses |
//! | expected [`Greeting`] | `Coordinator`, this `(shards, shard_index)` | `Client`, `(0, 0)` |
//! | ids in replies | local → **global** through the placement table | already global |
//! | `HelloAck.graphs` | the slice | the whole database |
//! | metrics text | core families | core families + `sqp_shard_*` per peer |
//! | [`WireChaos`] | optional (the fault suite's "corrupting shard") | none |

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sqp_graph::database::GraphId;
use sqp_graph::{Graph, GraphDb};
use sqp_matching::Matcher;

use crate::chaos::graph_fingerprint;
use crate::coordinator::{Coordinator, CoordinatorConfig};
use crate::dispatch::{DispatchCore, DrainReport};
use crate::exposition;
use crate::journal::db_fingerprint;
use crate::metrics::{QueryRecord, QueryTotals};
use crate::parallel::lock;
use crate::service::{QueryService, ServiceConfig};
use crate::wire::{
    encode_frame, read_frame, write_frame, Greeting, Message, WireChaos, WireConfig, WireError,
    WireOutcome, ANSWER_CHUNK, WIRE_VERSION,
};

/// Bytes of request line and headers a `/metrics` scrape may send; past
/// them the scrape is answered without reading further.
const SCRAPE_HEAD_CAP: u64 = 64 << 10;

/// The shard a graph lives on under fingerprint-hash placement.
pub fn shard_of(g: &Graph, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (graph_fingerprint(g) % shards.max(1) as u64) as usize
}

/// Deterministic assignment of every global graph id to a shard, plus the
/// local→global translation tables each shard needs to reply in global
/// ids (and the coordinator needs to attribute a dead shard's graphs).
#[derive(Clone, Debug)]
pub struct ShardPlacement {
    /// Per shard: the global ids it holds, ascending (local id `i` on
    /// shard `s` is `globals[s][i]`).
    globals: Vec<Vec<GraphId>>,
}

impl ShardPlacement {
    /// Places every graph of `db` on its fingerprint-hash shard.
    pub fn new(db: &GraphDb, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut globals = vec![Vec::new(); shards];
        for (id, g) in db.iter() {
            globals[shard_of(g, shards)].push(id);
        }
        Self { globals }
    }

    /// Global ids held by shard `index`, ascending.
    pub fn globals(&self, index: usize) -> &[GraphId] {
        &self.globals[index]
    }

    /// Builds the shard-local database slice for shard `index` (graphs in
    /// global-id order, so local ids are the ascending rank of the
    /// shard's globals).
    pub fn shard_db(&self, db: &GraphDb, index: usize) -> GraphDb {
        let mine = &self.globals[index];
        db.retain(|id, _| mine.binary_search(&id).is_ok())
    }
}

/// Configuration of a shard worker's [`WireServer`].
#[derive(Clone, Debug)]
pub struct ShardServerConfig {
    /// Address to listen on (use port 0 to let the OS pick).
    pub addr: String,
    /// This worker's shard index.
    pub shard_index: usize,
    /// Total shard count placement is computed for.
    pub shards: usize,
    /// The local query service's configuration (threads, budget, breakers).
    pub service: ServiceConfig,
    /// Frame cap etc. for the wire protocol.
    pub wire: WireConfig,
    /// When set, outbound frames pass through the deterministic chaos
    /// plan (drop / truncate / corrupt / delay) — the loopback fault
    /// suite's "corrupting shard".
    pub chaos: Option<WireChaos>,
}

impl Default for ShardServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shard_index: 0,
            shards: 1,
            service: ServiceConfig::default(),
            wire: WireConfig::default(),
            chaos: None,
        }
    }
}

/// The serving front behind a [`WireServer`].
enum Front {
    Shard(QueryService),
    Coordinator(Coordinator),
}

impl Front {
    fn core(&self) -> &DispatchCore {
        match self {
            Front::Shard(service) => service,
            Front::Coordinator(coordinator) => coordinator,
        }
    }

    fn shutdown(self) -> DrainReport {
        match self {
            Front::Shard(service) => service.shutdown(),
            Front::Coordinator(coordinator) => coordinator.shutdown(),
        }
    }
}

struct Shared {
    front: Front,
    /// Thread-name prefix and log identity.
    name: String,
    /// What a peer's hello must say; anything else is refused.
    expect: Greeting,
    /// Data graphs behind this server (`HelloAck.graphs`).
    graphs: usize,
    /// A shard's local → global id table; `None` on the coordinator front,
    /// whose ids are global already.
    globals: Option<Vec<GraphId>>,
    wire: WireConfig,
    chaos: Option<WireChaos>,
    stopping: AtomicBool,
    /// Handles on the live connections in accept order, for abrupt kill /
    /// orderly stop; a connection thread drops its own entry on exit.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    /// Connection threads not yet joined; finished ones are reaped at the
    /// next accept.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Everything served, folded for the metrics exposition.
    totals: Mutex<QueryTotals>,
}

impl Shared {
    /// Sends one frame, applying the chaos plan if configured. A dropped
    /// frame reports success (the fault is the silence); a mangled frame is
    /// written verbatim.
    fn send(&self, stream: &mut TcpStream, msg: &Message) -> Result<(), WireError> {
        match &self.chaos {
            None => write_frame(stream, msg),
            Some(chaos) => match chaos.mangle(encode_frame(msg)) {
                None => Ok(()),
                Some(bytes) => Ok(stream.write_all(&bytes)?),
            },
        }
    }

    /// Why a hello is refused, if it is: the first of version, role,
    /// database and placement that differs from what this server serves.
    fn refusal(&self, version: u32, peer: Greeting) -> Option<String> {
        let want = self.expect;
        if version != WIRE_VERSION {
            Some(format!("wire version mismatch: peer {version}, this {WIRE_VERSION}"))
        } else if peer.role != want.role {
            Some(format!("role mismatch: peer is a {:?}, this serves {:?}s", peer.role, want.role))
        } else if peer.db_fp != want.db_fp {
            Some(format!(
                "database fingerprint mismatch: peer {:016x}, this {:016x}",
                peer.db_fp, want.db_fp
            ))
        } else if (peer.shards, peer.shard_index) != (want.shards, want.shard_index) {
            Some(format!(
                "placement mismatch: peer expects shard {}/{}, this is {}/{}",
                peer.shard_index, peer.shards, want.shard_index, want.shards
            ))
        } else {
            None
        }
    }

    fn serve_conn(&self, mut stream: TcpStream) {
        // Handshake: refuse version, role, database or placement mismatches
        // up front, each with its own reason.
        let refusal = match read_frame(&mut stream, &self.wire) {
            Ok(Message::Hello { version, role, db_fp, shards, shard_index }) => {
                self.refusal(version, Greeting { role, db_fp, shards, shard_index })
            }
            Ok(_) => Some("expected Hello".to_string()),
            Err(_) => return,
        };
        if let Some(message) = refusal {
            let _ = self.send(&mut stream, &Message::Error { message });
            return;
        }
        let (db_fp, graphs) = (self.expect.db_fp, self.graphs as u32);
        if self
            .send(&mut stream, &Message::HelloAck { version: WIRE_VERSION, db_fp, graphs })
            .is_err()
        {
            return;
        }

        while !self.stopping.load(Ordering::Acquire) {
            // Closed, corrupt, or truncated inbound frame: the protocol is
            // lockstep per query, so there is no safe resync point — drop
            // the connection and let the peer reconnect.
            let Ok(msg) = read_frame(&mut stream, &self.wire) else { return };
            let sent = match msg {
                Message::Query { id, budget_ms, graph } => {
                    self.answer_query(&mut stream, id, budget_ms, &graph)
                }
                Message::MetricsRequest => {
                    self.send(&mut stream, &Message::MetricsText { text: self.metrics_text() })
                }
                Message::Bye => return,
                _ => {
                    let message = "unexpected message".to_string();
                    let _ = self.send(&mut stream, &Message::Error { message });
                    return;
                }
            };
            if sent.is_err() {
                return;
            }
        }
    }

    fn answer_query(
        &self,
        stream: &mut TcpStream,
        id: u64,
        budget_ms: u64,
        q: &Graph,
    ) -> Result<(), WireError> {
        let budget = (budget_ms > 0).then(|| Duration::from_millis(budget_ms));
        let (mut outcome, retries) = self.front.core().submit_with_budget(q, budget).0.wait();
        let record = QueryRecord { retries, ..QueryRecord::from_outcome(&outcome, budget) };
        lock(&self.totals).add(&record);
        // Translate local ids to global before anything crosses the wire.
        if let Some(globals) = &self.globals {
            outcome.answers.iter_mut().for_each(|g| *g = globals[g.index()]);
            outcome.failures.iter_mut().for_each(|f| f.graph = globals[f.graph.index()]);
        }
        for chunk in outcome.answers.chunks(ANSWER_CHUNK) {
            self.send(stream, &Message::Answers { id, graphs: chunk.to_vec() })?;
        }
        let outcome = WireOutcome::from_outcome(&outcome, retries);
        self.send(stream, &Message::Outcome { id, outcome })
    }

    /// The Prometheus exposition of everything served so far, with the
    /// per-peer `sqp_shard_*` families on the coordinator front.
    fn metrics_text(&self) -> String {
        let totals = lock(&self.totals).clone();
        let peers = match &self.front {
            Front::Coordinator(coordinator) => coordinator.peer_stats(),
            Front::Shard(_) => Vec::new(),
        };
        let health = self.front.core().health();
        exposition::render(&exposition::Sources {
            sets: &[totals],
            health: Some(&health),
            peers: &peers,
            ..Default::default()
        })
    }

    /// Tracks an accepted wire connection and serves it on its own thread.
    fn accept_conn(self: &Arc<Self>, id: u64, stream: TcpStream) {
        // A query is answered as an `Answers` frame then an `Outcome`
        // frame; with Nagle on, the second small write waits for the
        // peer's delayed ACK of the first (~40 ms per back-to-back query).
        stream.set_nodelay(true).ok();
        let Ok(clone) = stream.try_clone() else { return };
        lock(&self.conns).push((id, clone));
        let shared = Arc::clone(self);
        let handle =
            std::thread::Builder::new().name(format!("{}-conn", self.name)).spawn(move || {
                shared.serve_conn(stream);
                lock(&shared.conns).retain(|(conn, _)| *conn != id);
            });
        let mut workers = lock(&self.workers);
        join_all(workers.extract_if(.., |h| h.is_finished()).collect());
        workers.extend(handle.ok());
    }

    /// Answers one HTTP/1.1 `GET /metrics` — enough for a Prometheus scrape
    /// or `curl`, with no HTTP dependency.
    fn answer_scrape(&self, mut stream: TcpStream) {
        // Scrapes are answered on the accept thread, which `shutdown` joins:
        // a scraper that connects and says nothing must not hold either up.
        stream.set_read_timeout(Some(Duration::from_secs(2))).ok();
        let mut line = String::new();
        let mut reader = BufReader::new((&stream).take(SCRAPE_HEAD_CAP));
        if reader.read_line(&mut line).is_err() {
            return;
        }
        // Read the headers up to the blank line: request bytes left unread
        // would turn the close below into a reset that can discard the
        // answer before the scraper has read it.
        let mut header = String::new();
        while matches!(reader.read_line(&mut header), Ok(n) if n > 0)
            && !header.trim_end().is_empty()
        {
            header.clear();
        }
        let (status, body) = if line.starts_with("GET /metrics") {
            ("200 OK", self.metrics_text())
        } else {
            ("404 Not Found", "only /metrics lives here\n".to_string())
        };
        let _ = write!(
            stream,
            "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.shutdown(Shutdown::Write);
    }
}

fn join_all(handles: Vec<JoinHandle<()>>) {
    for h in handles {
        let _ = h.join();
    }
}

/// One listening socket and the thread accepting on it until the server
/// stops.
struct Acceptor {
    addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl Acceptor {
    /// Binds `addr` and hands every accepted connection, numbered from 0,
    /// to `on_conn` on the accept thread.
    fn start(
        addr: &str,
        thread_name: String,
        shared: &Arc<Shared>,
        on_conn: fn(&Arc<Shared>, u64, TcpStream),
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::clone(shared);
        let thread = std::thread::Builder::new().name(thread_name).spawn(move || {
            for (id, conn) in (0u64..).zip(listener.incoming()) {
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                let Ok(stream) = conn else { return };
                on_conn(&shared, id, stream);
            }
        })?;
        Ok(Self { addr, thread })
    }

    /// Joins the accept thread; `stopping` must already be set.
    fn stop(self) {
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

/// The TCP server of the wire protocol, in front of a shard's
/// [`QueryService`] or the [`Coordinator`]. See the module docs.
pub struct WireServer {
    shared: Arc<Shared>,
    /// The wire listener first, then the metrics listener if any.
    acceptors: Vec<Acceptor>,
}

/// A [`WireServer`] started as a shard worker.
pub type ShardServer = WireServer;

impl WireServer {
    /// Starts a shard worker: computes this shard's slice of `db`, starts
    /// its query service, and begins accepting coordinators. `db` is the
    /// **full** database; the slice is derived locally from the placement.
    pub fn start(
        matcher: Arc<dyn Matcher>,
        db: &GraphDb,
        config: ShardServerConfig,
    ) -> std::io::Result<Self> {
        let ShardServerConfig { addr, shard_index, shards, service, wire, chaos } = config;
        let placement = ShardPlacement::new(db, shards);
        let local = Arc::new(placement.shard_db(db, shard_index));
        let globals = placement.globals(shard_index).to_vec();
        Self::serve(
            &addr,
            Shared {
                front: Front::Shard(QueryService::new(matcher, local, service)),
                name: format!("sqp-shard-{shard_index}"),
                expect: Greeting::coordinator(db_fingerprint(db), shards, shard_index),
                graphs: globals.len(),
                globals: Some(globals),
                wire,
                chaos,
                stopping: AtomicBool::new(false),
                conns: Mutex::default(),
                workers: Mutex::default(),
                totals: Mutex::new(QueryTotals::new("shard", format!("shard-{shard_index}"))),
            },
        )
    }

    /// Starts the coordinator front: a [`Coordinator`] over
    /// `config.shard_addrs`, accepting end clients on `addr`.
    pub fn front(db: &GraphDb, addr: &str, config: CoordinatorConfig) -> std::io::Result<Self> {
        let wire = config.wire;
        Self::serve(
            addr,
            Shared {
                front: Front::Coordinator(Coordinator::new(db, config)),
                name: "sqp-serve".to_string(),
                expect: Greeting::client(db_fingerprint(db)),
                graphs: db.len(),
                globals: None,
                wire,
                chaos: None,
                stopping: AtomicBool::new(false),
                conns: Mutex::default(),
                workers: Mutex::default(),
                totals: Mutex::new(QueryTotals::new("coordinator", "serve")),
            },
        )
    }

    fn serve(addr: &str, shared: Shared) -> std::io::Result<Self> {
        let shared = Arc::new(shared);
        let name = format!("{}-accept", shared.name);
        let wire = Acceptor::start(addr, name, &shared, Shared::accept_conn)?;
        Ok(Self { shared, acceptors: vec![wire] })
    }

    /// Also serves the metrics text over HTTP at `GET /metrics` on `addr`;
    /// returns the bound address.
    pub fn serve_metrics(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let name = format!("{}-metrics", self.shared.name);
        let http = Acceptor::start(addr, name, &self.shared, |shared, _, stream| {
            shared.answer_scrape(stream)
        })?;
        let bound = http.addr;
        self.acceptors.push(http);
        Ok(bound)
    }

    /// The address the wire protocol is served on.
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptors[0].addr
    }

    /// `TCP_NODELAY` of every live accepted connection, in accept order
    /// (sockets whose option cannot be read count as `false`).
    pub fn connections_nodelay(&self) -> Vec<bool> {
        lock(&self.shared.conns).iter().map(|(_, c)| c.nodelay().unwrap_or(false)).collect()
    }

    /// Data graphs behind this server (a shard's slice, or the database).
    pub fn graphs(&self) -> usize {
        self.shared.graphs
    }

    /// Abruptly severs every live connection and stops serving, without
    /// draining the front — the in-process stand-in for SIGKILL used by
    /// the chaos suite. The server object stays alive (call
    /// [`shutdown`](WireServer::shutdown) to reclaim threads).
    pub fn kill_connections(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        for (_, conn) in lock(&self.shared.conns).drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    fn stop_accepting(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        self.acceptors.drain(..).for_each(Acceptor::stop);
        // No new connections can arrive now; sever the remaining ones so
        // connection threads drop out of blocking reads.
        self.kill_connections();
        join_all(std::mem::take(&mut *lock(&self.shared.workers)));
    }

    /// Stops accepting, severs and joins every connection thread, then
    /// drains the front (for the coordinator: says goodbye to its shards).
    pub fn shutdown(mut self) -> DrainReport {
        self.stop_accepting();
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(shared) => shared.front.shutdown(),
            Err(_) => DrainReport::default(),
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        if !self.acceptors.is_empty() {
            self.stop_accepting();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::{GraphBuilder, Label, VertexId};

    fn labeled(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new();
        for &l in labels {
            b.add_vertex(Label(l));
        }
        for &(u, v) in edges {
            b.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
        b.build()
    }

    fn mixed_db(n: u32) -> GraphDb {
        let graphs =
            (0..n).map(|i| labeled(&[0, 1 + i % 3, 2], &[(0, 1), (1, 2)])).collect::<Vec<_>>();
        GraphDb::from_graphs(graphs)
    }

    #[test]
    fn placement_partitions_the_database() {
        let db = mixed_db(32);
        for shards in [1usize, 2, 3, 4, 8] {
            let p = ShardPlacement::new(&db, shards);
            let mut seen: Vec<GraphId> = Vec::new();
            for s in 0..shards {
                let globals = p.globals(s);
                assert!(globals.windows(2).all(|w| w[0] < w[1]), "globals must ascend");
                seen.extend_from_slice(globals);
                let slice = p.shard_db(&db, s);
                assert_eq!(slice.len(), globals.len());
                for (local, &global) in globals.iter().enumerate() {
                    assert_eq!(
                        slice.graph(GraphId(local as u32)).vertex_count(),
                        db.graph(global).vertex_count()
                    );
                }
            }
            seen.sort();
            let all: Vec<GraphId> = db.iter().map(|(id, _)| id).collect();
            assert_eq!(seen, all, "every graph placed exactly once at {shards} shards");
        }
    }

    /// A scrape whose headers overflow one read buffer still gets the whole
    /// answer and a clean end of stream: the server reads the request head
    /// before it answers, so its close resets nothing.
    #[test]
    fn a_scrape_with_long_headers_reads_the_whole_answer_then_eof() {
        use std::io::Read as _;
        let db = mixed_db(4);
        let mut server =
            WireServer::start(Arc::new(sqp_matching::cfql::Cfql::new()), &db, Default::default())
                .unwrap();
        let addr = server.serve_metrics("127.0.0.1:0").unwrap();
        // 256 header lines of 64 bytes: 16 KiB, twice a default read buffer.
        let headers: String =
            (0..256).map(|i| format!("X-Pad-{i:03}: {}\r\n", "p".repeat(51))).collect();
        assert_eq!(headers.len(), 16 << 10);
        let request = format!("GET /metrics HTTP/1.1\r\n{headers}\r\n");
        let mut scraper = TcpStream::connect(addr).unwrap();
        scraper.write_all(request.as_bytes()).unwrap();
        let mut answer = Vec::new();
        scraper.read_to_end(&mut answer).expect("a clean end of stream, not a reset");
        let answer = String::from_utf8(answer).unwrap();
        let (head, body) = answer.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let length = head.lines().find_map(|l| l.strip_prefix("Content-Length: ")).unwrap();
        assert_eq!(body.len(), length.parse::<usize>().unwrap());
        server.shutdown();
    }

    #[test]
    fn placement_is_stable_across_calls() {
        let db = mixed_db(16);
        let a = ShardPlacement::new(&db, 4);
        let b = ShardPlacement::new(&db, 4);
        for s in 0..4 {
            assert_eq!(a.globals(s), b.globals(s));
        }
    }
}
