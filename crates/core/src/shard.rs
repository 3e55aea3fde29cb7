//! Shard-side of the sharded query service: hash placement of the
//! database over shard workers, and the TCP worker serving one shard.
//!
//! Placement is **deterministic and data-derived**: graph `g` lives on
//! shard `graph_fingerprint(g) % shards` ([`shard_of`]). Every process
//! that can see the full database — the coordinator for attribution, each
//! shard worker for its own slice — computes the identical
//! [`ShardPlacement`] independently; nothing about placement travels over
//! the wire, so a corrupted peer cannot shift graphs between shards.
//!
//! A [`ShardServer`] wraps its shard-local slice in an ordinary
//! [`QueryService`] (same admission control, per-graph breakers,
//! budget-charged retries as the single-process service) and speaks the
//! [`crate::wire`] protocol: for each [`Message::Query`] it runs the query
//! against its slice, translates local graph ids back to **global**
//! database ids, and streams [`Message::Answers`] chunks followed by one
//! [`Message::Outcome`]. Deadline propagation is honoured by forwarding
//! the frame's remaining `budget_ms` as a per-query budget override.

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sqp_graph::database::GraphId;
use sqp_graph::{Graph, GraphDb};
use sqp_matching::Matcher;

use crate::chaos::graph_fingerprint;
use crate::engine::GraphFailure;
use crate::exposition;
use crate::journal::db_fingerprint;
use crate::metrics::{QueryRecord, QuerySetReport};
use crate::parallel::lock;
use crate::service::{QueryService, ServiceConfig};
use crate::wire::{
    read_frame, write_frame, Message, PeerRole, WireChaos, WireConfig, WireError, WireOutcome,
    ANSWER_CHUNK, WIRE_VERSION,
};

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
    shards: usize,
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
        Self { shards, globals }
    }

    /// Number of shards placed over.
    pub fn shards(&self) -> usize {
        self.shards
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

    /// Translates a shard-local id to its global database id.
    pub fn to_global(&self, index: usize, local: GraphId) -> GraphId {
        self.globals[index][local.index()]
    }
}

/// Configuration of a [`ShardServer`].
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

struct ShardShared {
    service: QueryService,
    globals: Vec<GraphId>,
    db_fp: u64,
    shard_index: usize,
    shards: usize,
    wire: WireConfig,
    chaos: Option<WireChaos>,
    stopping: AtomicBool,
    /// Live connection handles, for abrupt kill / orderly stop.
    conns: Mutex<Vec<TcpStream>>,
    /// Report of everything served, for the metrics exposition.
    report: Mutex<QuerySetReport>,
}

impl ShardShared {
    /// Sends one frame, applying the chaos plan if configured. A dropped
    /// frame reports success (the fault is the silence); a mangled frame is
    /// written verbatim.
    fn send(&self, stream: &mut TcpStream, msg: &Message) -> Result<(), WireError> {
        match &self.chaos {
            None => write_frame(stream, msg),
            Some(chaos) => {
                let frame = crate::wire::encode_frame(msg);
                match chaos.mangle(frame) {
                    None => Ok(()),
                    Some(bytes) => {
                        stream.write_all(&bytes)?;
                        Ok(())
                    }
                }
            }
        }
    }

    fn serve_conn(&self, mut stream: TcpStream) {
        // Handshake: refuse version or database mismatches up front.
        let hello = match read_frame(&mut stream, &self.wire) {
            Ok(Message::Hello {
                version,
                role: PeerRole::Coordinator,
                db_fp,
                shards,
                shard_index,
            }) => {
                if version != WIRE_VERSION {
                    let _ = self.send(
                        &mut stream,
                        &Message::Error {
                            message: format!(
                                "wire version mismatch: peer {version}, this {WIRE_VERSION}"
                            ),
                        },
                    );
                    return;
                }
                if db_fp != self.db_fp {
                    let _ = self.send(
                        &mut stream,
                        &Message::Error {
                            message: format!(
                                "database fingerprint mismatch: peer {db_fp:016x}, shard {:016x}",
                                self.db_fp
                            ),
                        },
                    );
                    return;
                }
                if shards as usize != self.shards || shard_index as usize != self.shard_index {
                    let _ = self.send(
                        &mut stream,
                        &Message::Error {
                            message: format!(
                                "placement mismatch: peer expects shard {shard_index}/{shards}, \
                             this is {}/{}",
                                self.shard_index, self.shards
                            ),
                        },
                    );
                    return;
                }
                true
            }
            Ok(_) => {
                let _ = self
                    .send(&mut stream, &Message::Error { message: "expected Hello".to_string() });
                false
            }
            Err(_) => false,
        };
        if !hello {
            return;
        }
        if self
            .send(
                &mut stream,
                &Message::HelloAck {
                    version: WIRE_VERSION,
                    db_fp: self.db_fp,
                    graphs: self.globals.len() as u32,
                },
            )
            .is_err()
        {
            return;
        }

        loop {
            if self.stopping.load(Ordering::Acquire) {
                return;
            }
            let msg = match read_frame(&mut stream, &self.wire) {
                Ok(msg) => msg,
                // Closed, corrupt, or truncated inbound frame: the protocol
                // is lockstep per query, so there is no safe resync point —
                // drop the connection and let the coordinator retry.
                Err(_) => return,
            };
            match msg {
                Message::Query { id, budget_ms, graph } => {
                    if self.answer_query(&mut stream, id, budget_ms, &graph).is_err() {
                        return;
                    }
                }
                Message::MetricsRequest => {
                    let text = self.metrics_text();
                    if self.send(&mut stream, &Message::MetricsText { text }).is_err() {
                        return;
                    }
                }
                Message::Bye => return,
                _ => {
                    let _ = self.send(
                        &mut stream,
                        &Message::Error { message: "unexpected message".to_string() },
                    );
                    return;
                }
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
        let (ticket, _) = self.service.submit_with_budget(q, budget);
        let (outcome, retries) = ticket.wait();
        // Translate local ids to global before anything crosses the wire.
        let answers: Vec<GraphId> =
            outcome.answers.iter().map(|g| self.globals[g.index()]).collect();
        let mut wire_outcome = WireOutcome::from_outcome(&outcome, retries);
        for f in &mut wire_outcome.failures {
            *f = GraphFailure { graph: self.globals[f.graph.index()], status: f.status.clone() };
        }
        {
            let mut record = QueryRecord::from_outcome(&outcome, budget);
            record.retries = retries;
            lock(&self.report).records.push(record);
        }
        for chunk in answers.chunks(ANSWER_CHUNK) {
            self.send(stream, &Message::Answers { id, graphs: chunk.to_vec() })?;
        }
        self.send(stream, &Message::Outcome { id, outcome: wire_outcome })
    }

    fn metrics_text(&self) -> String {
        let report = lock(&self.report).clone();
        let health = self.service.health();
        exposition::render(&[report], Some(&health))
    }
}

/// A TCP worker serving one shard of the database. See the module docs.
pub struct ShardServer {
    shared: Arc<ShardShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ShardServer {
    /// Computes this shard's slice of `db`, starts its query service, and
    /// begins accepting connections. `db` is the **full** database; the
    /// slice is derived locally from the placement.
    pub fn start(
        matcher: Arc<dyn Matcher>,
        db: &GraphDb,
        config: ShardServerConfig,
    ) -> std::io::Result<Self> {
        let ShardServerConfig { addr, shard_index, shards, service, wire, chaos } = config;
        let placement = ShardPlacement::new(db, shards);
        let local = Arc::new(placement.shard_db(db, shard_index));
        let globals = placement.globals(shard_index).to_vec();
        let db_fp = db_fingerprint(db);
        let service = QueryService::new(matcher, local, service);
        let listener = TcpListener::bind(&addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ShardShared {
            service,
            globals,
            db_fp,
            shard_index,
            shards,
            wire,
            chaos,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            report: Mutex::new(QuerySetReport::new("shard", format!("shard-{shard_index}"))),
        });
        let workers = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new().name(format!("sqp-shard-{shard_index}-accept")).spawn(
                move || {
                    for conn in listener.incoming() {
                        if shared.stopping.load(Ordering::Acquire) {
                            return;
                        }
                        let Ok(stream) = conn else { return };
                        // A query is answered as an `Answers` frame then an
                        // `Outcome` frame; with Nagle on, the second small
                        // write waits for the peer's delayed ACK of the first
                        // (~40 ms per back-to-back query).
                        stream.set_nodelay(true).ok();
                        if let Ok(clone) = stream.try_clone() {
                            lock(&shared.conns).push(clone);
                        }
                        let shared = Arc::clone(&shared);
                        let handle = std::thread::Builder::new()
                            .name(format!("sqp-shard-{}-conn", shared.shard_index))
                            .spawn(move || shared.serve_conn(stream));
                        if let Ok(handle) = handle {
                            lock(&workers).push(handle);
                        }
                    }
                },
            )?
        };
        Ok(Self { shared, addr, accept: Some(accept), workers })
    }

    /// The address the shard is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// `TCP_NODELAY` of every accepted connection still tracked, in accept
    /// order (sockets whose option cannot be read count as `false`).
    pub fn connections_nodelay(&self) -> Vec<bool> {
        lock(&self.shared.conns).iter().map(|c| c.nodelay().unwrap_or(false)).collect()
    }

    /// Graphs in this shard's slice.
    pub fn graphs(&self) -> usize {
        self.shared.globals.len()
    }

    /// This shard's serving health (the inner query service's snapshot).
    pub fn health(&self) -> crate::metrics::ServiceHealth {
        self.shared.service.health()
    }

    /// Abruptly severs every live connection and stops accepting, without
    /// draining the service — the in-process stand-in for SIGKILL used by
    /// the chaos suite. The server object stays alive (call
    /// [`shutdown`](ShardServer::shutdown) to reclaim threads).
    pub fn kill_connections(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        for conn in lock(&self.shared.conns).drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    fn stop_accepting(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // No new connections can arrive now; sever the remaining ones so
        // connection threads drop out of blocking reads.
        for conn in lock(&self.shared.conns).drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Stops accepting, joins every connection thread, and drains the
    /// inner query service.
    pub fn shutdown(mut self) -> crate::dispatch::DrainReport {
        self.stop_accepting();
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(shared) => shared.service.shutdown(),
            Err(_) => crate::dispatch::DrainReport::default(),
        }
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
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
                    assert_eq!(p.to_global(s, GraphId(local as u32)), global);
                }
            }
            seen.sort();
            let all: Vec<GraphId> = db.iter().map(|(id, _)| id).collect();
            assert_eq!(seen, all, "every graph placed exactly once at {shards} shards");
        }
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
