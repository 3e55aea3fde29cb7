//! The length-prefixed, checksummed TCP wire protocol of the sharded
//! query service.
//!
//! One **frame** carries one [`Message`]:
//!
//! ```text
//! magic "SQPW" | kind u8 | len u32 le | payload (len bytes)
//! | fnv1a-64 checksum u64 over everything before it
//! ```
//!
//! The framing mirrors the binio v2 conventions (`sqp_graph::binio`):
//! little-endian length prefixes, a trailing FNV-1a checksum so truncated
//! or bit-flipped frames fail closed with a structured error instead of
//! decoding into garbage or panicking, byte-offset error context via
//! [`GraphError::Binary`], and every declared count validated against the
//! remaining input *before* any allocation. On top of that, the declared
//! payload length itself is capped ([`WireConfig::max_frame_len`]) and
//! rejected before the receive buffer is allocated, so a hostile or
//! corrupted header cannot trigger an out-of-memory abort.
//!
//! Responses are **streamed**: a shard answers a [`Message::Query`] with
//! zero or more [`Message::Answers`] chunks (bounded by
//! [`ANSWER_CHUNK`] ids each) followed by exactly one
//! [`Message::Outcome`], so a large answer set never has to fit in one
//! frame — or in one coordinator-side buffer.
//!
//! Deadline propagation is explicit: [`Message::Query`] carries the
//! *remaining* budget in milliseconds (`0` = unlimited), computed by the
//! coordinator at scatter time, so a shard never spends wall clock the
//! client has already lost.
//!
//! [`WireChaos`] is the transport-level sibling of
//! [`ChaosMatcher`](crate::chaos::ChaosMatcher): a deterministic fault
//! plan (drop / delay / truncate / corrupt-one-bit) keyed on a seed and
//! the outbound frame sequence number, used by the loopback chaos suite to
//! prove the coordinator degrades to partial results instead of failing or
//! panicking.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sqp_graph::database::GraphId;
use sqp_graph::error::GraphError;
use sqp_graph::hash::fnv1a64;
use sqp_graph::{Graph, GraphBuilder, Label, VertexId};
use sqp_matching::{KernelStats, PhaseStats, ResourceKind, PHASE_COUNT};

use crate::engine::{GraphFailure, QueryOutcome, QueryStatus};

/// Frame magic: "SQPW" (subgraph query processing, wire).
pub const WIRE_MAGIC: &[u8; 4] = b"SQPW";
/// Protocol version, carried in [`Message::Hello`] / [`Message::HelloAck`].
pub const WIRE_VERSION: u32 = 1;
/// Maximum answer ids per [`Message::Answers`] chunk.
pub const ANSWER_CHUNK: usize = 4096;

/// Frame header bytes before the payload: magic + kind + length.
const HEADER_LEN: usize = 4 + 1 + 4;

/// Wire-layer limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireConfig {
    /// Hard cap on a frame's declared payload length. A header declaring
    /// more is rejected *before* the payload buffer is allocated.
    pub max_frame_len: u32,
}

impl Default for WireConfig {
    fn default() -> Self {
        // 64 MiB: far above any legitimate query/outcome frame (answers are
        // chunked), far below an allocation that could hurt the process.
        Self { max_frame_len: 64 << 20 }
    }
}

/// A wire-layer failure. Structural errors (bad magic, bad checksum,
/// truncation inside a frame, cap violations, malformed payloads) carry
/// byte-offset context through [`GraphError::Binary`]; transport errors
/// stay [`std::io::Error`].
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (connect, read, write, timeout).
    Io(std::io::Error),
    /// The byte stream is not a valid frame: bad magic, unknown kind,
    /// declared length over the cap, checksum mismatch, or a malformed
    /// payload. Always a [`GraphError::Binary`] with the offset (within
    /// the frame) where decoding failed.
    Frame(GraphError),
    /// The stream ended cleanly at a frame boundary (peer closed).
    Closed,
    /// The peer reported an error frame.
    Remote(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire transport error: {e}"),
            WireError::Frame(e) => write!(f, "wire frame error: {e}"),
            WireError::Closed => write!(f, "connection closed by peer"),
            WireError::Remote(msg) => write!(f, "peer error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A structural frame error at byte `offset` within the frame.
fn frame_err(offset: usize, message: impl Into<String>) -> WireError {
    WireError::Frame(GraphError::Binary { offset, message: message.into() })
}

/// Who is greeting whom in a [`Message::Hello`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerRole {
    /// A coordinator connecting to a shard worker.
    Coordinator,
    /// An end client connecting to a coordinator.
    Client,
}

/// What a [`Message::Hello`] says besides the protocol version. A client
/// sends one; a server holds the one it expects and refuses a connection on
/// the first field that differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Greeting {
    /// What the connecting peer is.
    pub role: PeerRole,
    /// Structural fingerprint of the full (unsharded) database.
    pub db_fp: u64,
    /// Total shards the sender believes exist (0 from clients).
    pub shards: u32,
    /// Shard index the sender expects to reach (0 from clients).
    pub shard_index: u32,
}

impl Greeting {
    /// The greeting of an end client of a coordinator front.
    pub fn client(db_fp: u64) -> Self {
        Self { role: PeerRole::Client, db_fp, shards: 0, shard_index: 0 }
    }

    /// The greeting of a coordinator reaching shard `shard_index` of `shards`.
    pub fn coordinator(db_fp: u64, shards: usize, shard_index: usize) -> Self {
        Self {
            role: PeerRole::Coordinator,
            db_fp,
            shards: shards as u32,
            shard_index: shard_index as u32,
        }
    }

    /// The hello frame carrying this greeting at protocol `version`.
    pub fn hello(self, version: u32) -> Message {
        let Self { role, db_fp, shards, shard_index } = self;
        Message::Hello { version, role, db_fp, shards, shard_index }
    }
}

/// The serializable projection of a [`QueryOutcome`] minus its answer set
/// (answers travel separately in [`Message::Answers`] chunks). Graph ids in
/// `failures` are **global** database ids — shards translate before
/// replying, so the coordinator can merge without a reverse map.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireOutcome {
    /// Terminal status of the (sub-)query.
    pub status: QueryStatus,
    /// `|C(q)|` on the responding side.
    pub candidates: u64,
    /// Filtering time in nanoseconds.
    pub filter_nanos: u64,
    /// Verification time in nanoseconds.
    pub verify_nanos: u64,
    /// Peak auxiliary bytes.
    pub aux_bytes: u64,
    /// Retries the responding side spent on the query.
    pub retries: u32,
    /// Per-graph failure attribution (global ids).
    pub failures: Vec<GraphFailure>,
    /// Enumeration-kernel counters.
    pub kernel: KernelStats,
    /// Per-phase span durations and item counts.
    pub phases: PhaseStats,
}

impl WireOutcome {
    /// Projects an executed outcome (answers stripped; ids must already be
    /// global).
    pub fn from_outcome(o: &QueryOutcome, retries: u32) -> Self {
        Self {
            status: o.status.clone(),
            candidates: o.candidates as u64,
            filter_nanos: duration_nanos(o.filter_time),
            verify_nanos: duration_nanos(o.verify_time),
            aux_bytes: o.aux_bytes as u64,
            retries,
            failures: o.failures.clone(),
            kernel: o.kernel,
            phases: o.phases,
        }
    }

    /// Reassembles a [`QueryOutcome`] around the streamed `answers`.
    pub fn into_outcome(self, answers: Vec<GraphId>) -> (QueryOutcome, u32) {
        let retries = self.retries;
        let outcome = QueryOutcome {
            answers,
            candidates: self.candidates as usize,
            filter_time: Duration::from_nanos(self.filter_nanos),
            verify_time: Duration::from_nanos(self.verify_nanos),
            status: self.status,
            failures: self.failures,
            aux_bytes: self.aux_bytes as usize,
            kernel: self.kernel,
            phases: self.phases,
        };
        (outcome, retries)
    }
}

fn duration_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// One protocol message (= one frame).
#[derive(Clone, Debug)]
pub enum Message {
    /// Connection greeting. `db_fp` is the structural fingerprint of the
    /// *full* database; both sides must agree or the connection is refused
    /// (a shard serving a different database would silently return wrong
    /// answers).
    Hello {
        /// Protocol version of the sender.
        version: u32,
        /// What the connecting peer is.
        role: PeerRole,
        /// Structural fingerprint of the full (unsharded) database.
        db_fp: u64,
        /// Total shards the sender believes exist (0 from clients).
        shards: u32,
        /// Shard index the sender expects to reach (ignored from clients).
        shard_index: u32,
    },
    /// Greeting accepted.
    HelloAck {
        /// Protocol version of the responder.
        version: u32,
        /// Structural fingerprint of the responder's full database.
        db_fp: u64,
        /// Data graphs served behind this connection.
        graphs: u32,
    },
    /// One subgraph query. `budget_ms` is the *remaining* per-query budget
    /// at send time (0 = unlimited): the receiver must not spend more.
    Query {
        /// Caller-chosen id echoed in every response frame.
        id: u64,
        /// Remaining budget in milliseconds; 0 means unlimited.
        budget_ms: u64,
        /// The query graph.
        graph: Graph,
    },
    /// A chunk of answer ids (global database ids) for query `id`. Zero or
    /// more of these precede the [`Message::Outcome`].
    Answers {
        /// Id of the query these answers belong to.
        id: u64,
        /// Global graph ids, ascending within and across chunks.
        graphs: Vec<GraphId>,
    },
    /// Terminal response for query `id`.
    Outcome {
        /// Id of the finished query.
        id: u64,
        /// Everything but the answer set.
        outcome: WireOutcome,
    },
    /// The peer refused or failed a request.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Request the peer's Prometheus exposition.
    MetricsRequest,
    /// Prometheus exposition text.
    MetricsText {
        /// The rendered exposition.
        text: String,
    },
    /// Orderly goodbye; the receiver may close the connection.
    Bye,
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::HelloAck { .. } => 2,
            Message::Query { .. } => 3,
            Message::Answers { .. } => 4,
            Message::Outcome { .. } => 5,
            Message::Error { .. } => 6,
            Message::MetricsRequest => 7,
            Message::MetricsText { .. } => 8,
            Message::Bye => 9,
        }
    }
}

// ---------------------------------------------------------------------------
// Payload encoding.

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_status(buf: &mut Vec<u8>, status: &QueryStatus) {
    match status {
        QueryStatus::Completed => buf.push(0),
        QueryStatus::TimedOut => buf.push(1),
        QueryStatus::ResourceExhausted { kind } => {
            buf.push(2);
            buf.push(match kind {
                ResourceKind::Steps => 0,
                ResourceKind::Memory => 1,
            });
        }
        QueryStatus::Quarantined => buf.push(3),
        QueryStatus::Panicked { message } => {
            buf.push(4);
            put_str(buf, message);
        }
        QueryStatus::Wedged => buf.push(5),
        QueryStatus::Unavailable => buf.push(6),
        QueryStatus::Shed => buf.push(7),
    }
}

fn put_graph(buf: &mut Vec<u8>, g: &Graph) {
    put_u32(buf, g.vertex_count() as u32);
    for v in 0..g.vertex_count() as u32 {
        put_u32(buf, g.label(VertexId(v)).0);
    }
    let mut edges = Vec::new();
    for u in 0..g.vertex_count() as u32 {
        for &w in g.neighbors(VertexId(u)) {
            if u < w.0 {
                edges.push((u, w.0));
            }
        }
    }
    put_u32(buf, edges.len() as u32);
    for (u, w) in edges {
        put_u32(buf, u);
        put_u32(buf, w);
    }
}

fn put_outcome(buf: &mut Vec<u8>, o: &WireOutcome) {
    put_status(buf, &o.status);
    put_u64(buf, o.candidates);
    put_u64(buf, o.filter_nanos);
    put_u64(buf, o.verify_nanos);
    put_u64(buf, o.aux_bytes);
    put_u32(buf, o.retries);
    put_u64(buf, o.kernel.intersections);
    put_u64(buf, o.kernel.gallop_hits);
    put_u64(buf, o.kernel.simd_hits);
    put_u64(buf, o.kernel.bitmap_probes);
    put_u32(buf, PHASE_COUNT as u32);
    for i in 0..PHASE_COUNT {
        put_u64(buf, o.phases.nanos[i]);
        put_u64(buf, o.phases.items[i]);
    }
    put_u32(buf, o.failures.len() as u32);
    for f in &o.failures {
        put_u32(buf, f.graph.0);
        put_status(buf, &f.status);
    }
}

fn encode_payload(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    match msg {
        Message::Hello { version, role, db_fp, shards, shard_index } => {
            put_u32(&mut buf, *version);
            buf.push(match role {
                PeerRole::Coordinator => 0,
                PeerRole::Client => 1,
            });
            put_u64(&mut buf, *db_fp);
            put_u32(&mut buf, *shards);
            put_u32(&mut buf, *shard_index);
        }
        Message::HelloAck { version, db_fp, graphs } => {
            put_u32(&mut buf, *version);
            put_u64(&mut buf, *db_fp);
            put_u32(&mut buf, *graphs);
        }
        Message::Query { id, budget_ms, graph } => {
            put_u64(&mut buf, *id);
            put_u64(&mut buf, *budget_ms);
            put_graph(&mut buf, graph);
        }
        Message::Answers { id, graphs } => {
            put_u64(&mut buf, *id);
            put_u32(&mut buf, graphs.len() as u32);
            for g in graphs {
                put_u32(&mut buf, g.0);
            }
        }
        Message::Outcome { id, outcome } => {
            put_u64(&mut buf, *id);
            put_outcome(&mut buf, outcome);
        }
        Message::Error { message } => put_str(&mut buf, message),
        Message::MetricsRequest | Message::Bye => {}
        Message::MetricsText { text } => put_str(&mut buf, text),
    }
    buf
}

/// Encodes one message into a complete checksummed frame.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let payload = encode_payload(msg);
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    frame.extend_from_slice(WIRE_MAGIC);
    frame.push(msg.kind());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let sum = fnv1a64(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

// ---------------------------------------------------------------------------
// Payload decoding: a bounds-checked cursor in the binio `Reader` idiom.
// Every declared count is validated against the remaining bytes before any
// allocation, and every error carries the in-frame byte offset.

struct Cursor<'a> {
    data: &'a [u8],
    /// Offset of `data[0]` within the whole frame (payload starts after the
    /// header), so error offsets point into the frame, not the payload.
    base: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Self { data: payload, base: HEADER_LEN, pos: 0 }
    }

    fn offset(&self) -> usize {
        self.base + self.pos
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(frame_err(
                self.offset(),
                format!("truncated frame: {what} needs {n} bytes, {} left", self.remaining()),
            ));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn get_u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Validates that `count` items of `item_bytes` each fit in the
    /// remaining payload — before the caller allocates for them.
    fn check_count(&self, count: usize, item_bytes: usize, what: &str) -> Result<(), WireError> {
        if count.saturating_mul(item_bytes) > self.remaining() {
            return Err(frame_err(
                self.offset(),
                format!(
                    "absurd count: {count} {what} ({item_bytes} bytes each) exceed the \
                     {} remaining payload bytes",
                    self.remaining()
                ),
            ));
        }
        Ok(())
    }

    fn get_str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.get_u32(what)? as usize;
        self.check_count(len, 1, "string bytes")?;
        let at = self.offset();
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| frame_err(at, format!("{what} is not valid UTF-8")))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(frame_err(
                self.offset(),
                format!("{} trailing payload bytes after message", self.remaining()),
            ));
        }
        Ok(())
    }
}

fn get_status(c: &mut Cursor<'_>) -> Result<QueryStatus, WireError> {
    let at = c.offset();
    Ok(match c.get_u8("status code")? {
        0 => QueryStatus::Completed,
        1 => QueryStatus::TimedOut,
        2 => match c.get_u8("resource kind")? {
            0 => QueryStatus::ResourceExhausted { kind: ResourceKind::Steps },
            1 => QueryStatus::ResourceExhausted { kind: ResourceKind::Memory },
            k => return Err(frame_err(at + 1, format!("unknown resource kind {k}"))),
        },
        3 => QueryStatus::Quarantined,
        4 => QueryStatus::Panicked { message: c.get_str("panic message")? },
        5 => QueryStatus::Wedged,
        6 => QueryStatus::Unavailable,
        7 => QueryStatus::Shed,
        k => return Err(frame_err(at, format!("unknown status code {k}"))),
    })
}

fn get_graph(c: &mut Cursor<'_>) -> Result<Graph, WireError> {
    let vcount = c.get_u32("vertex count")? as usize;
    c.check_count(vcount, 4, "vertex labels")?;
    let mut b = GraphBuilder::with_capacity(vcount);
    for _ in 0..vcount {
        b.add_vertex(Label(c.get_u32("vertex label")?));
    }
    let ecount = c.get_u32("edge count")? as usize;
    c.check_count(ecount, 8, "edges")?;
    b.reserve_edges(ecount);
    for _ in 0..ecount {
        let at = c.offset();
        let u = c.get_u32("edge endpoint")?;
        let w = c.get_u32("edge endpoint")?;
        if u as usize >= vcount || w as usize >= vcount {
            return Err(frame_err(at, format!("edge ({u},{w}) references missing vertex")));
        }
        b.add_edge(VertexId(u), VertexId(w))
            .map_err(|e| frame_err(at, format!("invalid edge ({u},{w}): {e}")))?;
    }
    Ok(b.build())
}

fn get_outcome(c: &mut Cursor<'_>) -> Result<WireOutcome, WireError> {
    let status = get_status(c)?;
    let candidates = c.get_u64("candidates")?;
    let filter_nanos = c.get_u64("filter nanos")?;
    let verify_nanos = c.get_u64("verify nanos")?;
    let aux_bytes = c.get_u64("aux bytes")?;
    let retries = c.get_u32("retries")?;
    let kernel = KernelStats {
        intersections: c.get_u64("kernel intersections")?,
        gallop_hits: c.get_u64("kernel gallop hits")?,
        simd_hits: c.get_u64("kernel simd hits")?,
        bitmap_probes: c.get_u64("kernel bitmap probes")?,
    };
    let at = c.offset();
    let phase_count = c.get_u32("phase count")? as usize;
    if phase_count != PHASE_COUNT {
        return Err(frame_err(at, format!("phase count {phase_count} != {PHASE_COUNT}")));
    }
    let mut phases = PhaseStats::default();
    for i in 0..PHASE_COUNT {
        phases.nanos[i] = c.get_u64("phase nanos")?;
        phases.items[i] = c.get_u64("phase items")?;
    }
    let fcount = c.get_u32("failure count")? as usize;
    // A failure is at least 5 bytes (graph id + status code).
    c.check_count(fcount, 5, "failures")?;
    let mut failures = Vec::with_capacity(fcount);
    for _ in 0..fcount {
        let graph = GraphId(c.get_u32("failure graph id")?);
        failures.push(GraphFailure { graph, status: get_status(c)? });
    }
    Ok(WireOutcome {
        status,
        candidates,
        filter_nanos,
        verify_nanos,
        aux_bytes,
        retries,
        failures,
        kernel,
        phases,
    })
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, WireError> {
    let mut c = Cursor::new(payload);
    let msg = match kind {
        1 => {
            let version = c.get_u32("hello version")?;
            let at = c.offset();
            let role = match c.get_u8("peer role")? {
                0 => PeerRole::Coordinator,
                1 => PeerRole::Client,
                r => return Err(frame_err(at, format!("unknown peer role {r}"))),
            };
            Message::Hello {
                version,
                role,
                db_fp: c.get_u64("db fingerprint")?,
                shards: c.get_u32("shard count")?,
                shard_index: c.get_u32("shard index")?,
            }
        }
        2 => Message::HelloAck {
            version: c.get_u32("ack version")?,
            db_fp: c.get_u64("db fingerprint")?,
            graphs: c.get_u32("graph count")?,
        },
        3 => {
            let id = c.get_u64("query id")?;
            let budget_ms = c.get_u64("budget ms")?;
            let graph = get_graph(&mut c)?;
            Message::Query { id, budget_ms, graph }
        }
        4 => {
            let id = c.get_u64("answers id")?;
            let n = c.get_u32("answer count")? as usize;
            c.check_count(n, 4, "answer ids")?;
            let mut graphs = Vec::with_capacity(n);
            for _ in 0..n {
                graphs.push(GraphId(c.get_u32("answer id")?));
            }
            Message::Answers { id, graphs }
        }
        5 => {
            let id = c.get_u64("outcome id")?;
            let outcome = get_outcome(&mut c)?;
            Message::Outcome { id, outcome }
        }
        6 => Message::Error { message: c.get_str("error message")? },
        7 => Message::MetricsRequest,
        8 => Message::MetricsText { text: c.get_str("metrics text")? },
        9 => Message::Bye,
        k => return Err(frame_err(4, format!("unknown frame kind {k}"))),
    };
    c.done()?;
    Ok(msg)
}

/// Decodes one complete frame from a byte slice (the whole frame must be
/// present; the stream path is [`read_frame`]).
pub fn decode_frame(bytes: &[u8], config: &WireConfig) -> Result<Message, WireError> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(frame_err(
            bytes.len(),
            format!("truncated frame: {} bytes < minimum {}", bytes.len(), HEADER_LEN + 8),
        ));
    }
    if &bytes[..4] != WIRE_MAGIC {
        return Err(frame_err(0, "bad magic (expected \"SQPW\")"));
    }
    let kind = bytes[4];
    let len = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]);
    if len > config.max_frame_len {
        return Err(frame_err(
            5,
            format!("declared frame length {len} exceeds cap {}", config.max_frame_len),
        ));
    }
    let want = HEADER_LEN + len as usize + 8;
    if bytes.len() != want {
        return Err(frame_err(
            HEADER_LEN.min(bytes.len()),
            format!("frame is {} bytes, header declares {}", bytes.len(), want),
        ));
    }
    let body = &bytes[..want - 8];
    let sum = u64::from_le_bytes(bytes[want - 8..want].try_into().unwrap_or([0; 8]));
    if fnv1a64(body) != sum {
        return Err(frame_err(want - 8, "checksum mismatch (frame corrupted in transit)"));
    }
    decode_payload(kind, &bytes[HEADER_LEN..HEADER_LEN + len as usize])
}

/// Writes one message as a frame.
pub fn write_frame(w: &mut impl Write, msg: &Message) -> Result<(), WireError> {
    w.write_all(&encode_frame(msg))?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from a stream. The declared payload length is checked
/// against [`WireConfig::max_frame_len`] *before* the payload buffer is
/// allocated. A clean EOF before the first header byte is
/// [`WireError::Closed`]; EOF anywhere inside a frame is a truncation
/// error.
pub fn read_frame(r: &mut impl Read, config: &WireConfig) -> Result<Message, WireError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish a clean close (no bytes at all) from a torn header.
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(frame_err(
                    got,
                    format!("stream ended inside the {HEADER_LEN}-byte frame header"),
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    if &header[..4] != WIRE_MAGIC {
        return Err(frame_err(0, "bad magic (expected \"SQPW\")"));
    }
    let kind = header[4];
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
    if len > config.max_frame_len {
        // Refuse before allocating: a corrupt or hostile length cannot
        // drive an out-of-memory abort.
        return Err(frame_err(
            5,
            format!("declared frame length {len} exceeds cap {}", config.max_frame_len),
        ));
    }
    let mut rest = vec![0u8; len as usize + 8];
    r.read_exact(&mut rest).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            frame_err(HEADER_LEN, "stream ended inside the frame body")
        } else {
            WireError::Io(e)
        }
    })?;
    let mut body = Vec::with_capacity(HEADER_LEN + len as usize);
    body.extend_from_slice(&header);
    body.extend_from_slice(&rest[..len as usize]);
    let sum = u64::from_le_bytes(rest[len as usize..].try_into().unwrap_or([0; 8]));
    if fnv1a64(&body) != sum {
        return Err(frame_err(
            HEADER_LEN + len as usize,
            "checksum mismatch (frame corrupted in transit)",
        ));
    }
    decode_payload(kind, &body[HEADER_LEN..])
}

// ---------------------------------------------------------------------------
// The client end of a connection.

/// The client end of one wire connection, greeted and acknowledged: what a
/// coordinator holds per shard peer and what `sqp client` holds to the
/// coordinator front. The protocol is lockstep — one [`query`] at a time.
///
/// [`query`]: WireClient::query
pub struct WireClient {
    stream: TcpStream,
    wire: WireConfig,
    next_id: u64,
}

impl WireClient {
    /// Connects to `addr` (each resolved address gets `connect_timeout`),
    /// sends `greeting` and checks the acknowledgement: same protocol
    /// version, same database, and `graphs` data graphs behind the
    /// connection. A refusal arrives as [`WireError::Remote`] with the
    /// server's reason.
    pub fn connect(
        addr: &str,
        greeting: Greeting,
        graphs: usize,
        wire: WireConfig,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> Result<Self, WireError> {
        let mut last = None;
        let connected = addr.to_socket_addrs()?.find_map(|a| {
            TcpStream::connect_timeout(&a, connect_timeout).map_err(|e| last = Some(e)).ok()
        });
        let Some(mut stream) = connected else {
            return Err(match last {
                Some(e) => WireError::Io(e),
                None => WireError::Remote(format!("no usable address for {addr}")),
            });
        };
        // Both ends write small frames back to back; with Nagle on, the
        // second waits for the peer's delayed ACK of the first.
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))?;
        write_frame(&mut stream, &greeting.hello(WIRE_VERSION))?;
        match read_frame(&mut stream, &wire)? {
            Message::HelloAck { version: WIRE_VERSION, db_fp, graphs: served }
                if db_fp == greeting.db_fp && served as usize == graphs =>
            {
                Ok(Self { stream, wire, next_id: 1 })
            }
            Message::Error { message } => Err(WireError::Remote(message)),
            _ => Err(WireError::Remote("handshake rejected: version/db/placement mismatch".into())),
        }
    }

    /// One lockstep exchange: sends `q` with the remaining `budget`
    /// attached (`None` = unlimited) and gathers the streamed answers until
    /// the terminal outcome. `read_timeout` bounds the wait for each reply
    /// frame, so a silent server is an error, not a hang. After any error
    /// the connection has no safe resync point: drop the client.
    pub fn query(
        &mut self,
        q: &Graph,
        budget: Option<Duration>,
        read_timeout: Duration,
    ) -> Result<(Vec<GraphId>, WireOutcome), WireError> {
        self.stream.set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))?;
        let id = self.next_id;
        self.next_id += 1;
        let budget_ms = budget.map_or(0, |d| d.as_millis().max(1) as u64);
        write_frame(&mut self.stream, &Message::Query { id, budget_ms, graph: q.clone() })?;
        let mut answers: Vec<GraphId> = Vec::new();
        loop {
            match read_frame(&mut self.stream, &self.wire)? {
                Message::Answers { id: got, graphs } if got == id => answers.extend(graphs),
                Message::Outcome { id: got, outcome } if got == id => {
                    return Ok((answers, outcome));
                }
                Message::Error { message } => return Err(WireError::Remote(message)),
                _ => return Err(WireError::Remote("unexpected frame in query stream".into())),
            }
        }
    }

    /// A second handle on the socket, for another thread to sever the
    /// connection under a blocked [`query`](WireClient::query).
    pub fn try_clone_stream(&self) -> std::io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// Orderly goodbye: tells the server, then closes.
    pub fn bye(mut self) {
        let _ = write_frame(&mut self.stream, &Message::Bye);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------
// Network chaos: the transport-level sibling of `ChaosMatcher`.

/// What [`WireChaos`] decided to do to one outbound frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFault {
    /// Swallow the frame entirely (the peer sees silence, then a broken
    /// or idle connection).
    Drop,
    /// Send only a prefix of the frame, then sever the connection.
    Truncate,
    /// Flip one bit of the frame (the checksum must catch it).
    CorruptBit,
    /// Sleep before sending (deadline pressure without data loss).
    Delay,
}

/// Deterministic per-frame fault plan for the network chaos layer.
///
/// Fault decisions are a pure function of `(seed, frame sequence number)`
/// — the transport-level analogue of [`ChaosMatcher`]'s
/// fingerprint-keyed plan — so a loopback chaos run is reproducible at any
/// thread count. Rates are per-mille slices of the hash space, checked in
/// the order drop, truncate, corrupt, delay.
///
/// [`ChaosMatcher`]: crate::chaos::ChaosMatcher
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireChaosConfig {
    /// Seed mixed into every per-frame decision.
    pub seed: u64,
    /// Frames dropped, per mille.
    pub drop_per_mille: u16,
    /// Frames truncated mid-body, per mille.
    pub truncate_per_mille: u16,
    /// Frames with one bit flipped, per mille.
    pub corrupt_per_mille: u16,
    /// Frames delayed by [`delay_ms`](WireChaosConfig::delay_ms), per mille.
    pub delay_per_mille: u16,
    /// Delay applied to delayed frames, in milliseconds.
    pub delay_ms: u64,
}

/// Stateful applier of a [`WireChaosConfig`]: counts outbound frames and
/// mangles each according to the deterministic plan.
#[derive(Debug, Default)]
pub struct WireChaos {
    config: WireChaosConfig,
    sent: AtomicU64,
}

impl Clone for WireChaos {
    fn clone(&self) -> Self {
        Self { config: self.config, sent: AtomicU64::new(self.sent.load(Ordering::Relaxed)) }
    }
}

/// Structural equality via the deterministic frame encoding (graphs have
/// no intrinsic `PartialEq`; two messages are equal iff their frames are
/// byte-identical). Test-grade cost, correctness-grade semantics.
impl PartialEq for Message {
    fn eq(&self, other: &Self) -> bool {
        encode_frame(self) == encode_frame(other)
    }
}

impl WireChaos {
    /// A chaos layer with the given plan.
    pub fn new(config: WireChaosConfig) -> Self {
        Self { config, sent: AtomicU64::new(0) }
    }

    /// The fault planned for frame number `index` — pure, for tests and
    /// for [`next_fault`](WireChaos::next_fault).
    pub fn planned_fault(&self, index: u64) -> Option<WireFault> {
        let mut h = self.config.seed ^ 0xcbf2_9ce4_8422_2325;
        for b in index.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let roll = (h % 1000) as u16;
        let c = &self.config;
        let mut edge = c.drop_per_mille;
        if roll < edge {
            return Some(WireFault::Drop);
        }
        edge = edge.saturating_add(c.truncate_per_mille);
        if roll < edge {
            return Some(WireFault::Truncate);
        }
        edge = edge.saturating_add(c.corrupt_per_mille);
        if roll < edge {
            return Some(WireFault::CorruptBit);
        }
        edge = edge.saturating_add(c.delay_per_mille);
        if roll < edge {
            return Some(WireFault::Delay);
        }
        None
    }

    /// Advances the frame counter and returns the fault for the frame
    /// about to be sent.
    pub fn next_fault(&self) -> Option<WireFault> {
        let index = self.sent.fetch_add(1, Ordering::Relaxed);
        self.planned_fault(index)
    }

    /// Applies the planned fault to an encoded frame: returns the bytes to
    /// actually send (possibly truncated or corrupted), or `None` when the
    /// frame is dropped. Sleeps for delayed frames.
    pub fn mangle(&self, mut frame: Vec<u8>) -> Option<Vec<u8>> {
        match self.next_fault() {
            None => Some(frame),
            Some(WireFault::Drop) => None,
            Some(WireFault::Truncate) => {
                frame.truncate(frame.len() / 2);
                Some(frame)
            }
            Some(WireFault::CorruptBit) => {
                // Deterministic bit choice: middle byte, low bit — enough
                // to break the checksum, stable across runs.
                let i = frame.len() / 2;
                frame[i] ^= 1;
                Some(frame)
            }
            Some(WireFault::Delay) => {
                std::thread::sleep(Duration::from_millis(self.config.delay_ms));
                Some(frame)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(Label(3));
        let v = b.add_vertex(Label(1));
        let w = b.add_vertex(Label(2));
        b.add_edge(u, v).unwrap();
        b.add_edge(v, w).unwrap();
        b.build()
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                version: WIRE_VERSION,
                role: PeerRole::Coordinator,
                db_fp: 0xdead_beef,
                shards: 3,
                shard_index: 1,
            },
            Message::HelloAck { version: WIRE_VERSION, db_fp: 7, graphs: 40 },
            Message::Query { id: 9, budget_ms: 1500, graph: small_graph() },
            Message::Answers { id: 9, graphs: vec![GraphId(0), GraphId(5), GraphId(17)] },
            Message::Outcome {
                id: 9,
                outcome: WireOutcome {
                    status: QueryStatus::Panicked { message: "boom".into() },
                    candidates: 12,
                    filter_nanos: 1000,
                    verify_nanos: 2000,
                    aux_bytes: 64,
                    retries: 2,
                    failures: vec![GraphFailure {
                        graph: GraphId(5),
                        status: QueryStatus::Unavailable,
                    }],
                    ..Default::default()
                },
            },
            Message::Error { message: "no such shard".into() },
            Message::MetricsRequest,
            Message::MetricsText { text: "# HELP x\n".into() },
            Message::Bye,
        ]
    }

    #[test]
    fn frames_round_trip() {
        let config = WireConfig::default();
        for msg in sample_messages() {
            let frame = encode_frame(&msg);
            let back = decode_frame(&frame, &config).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn stream_round_trip_preserves_order() {
        let config = WireConfig::default();
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            write_frame(&mut stream, m).unwrap();
        }
        let mut r = &stream[..];
        for m in &msgs {
            assert_eq!(&read_frame(&mut r, &config).unwrap(), m);
        }
        assert!(matches!(read_frame(&mut r, &config), Err(WireError::Closed)));
    }

    #[test]
    fn graph_round_trips_structurally() {
        let g = small_graph();
        let msg = Message::Query { id: 0, budget_ms: 0, graph: g.clone() };
        let frame = encode_frame(&msg);
        let Message::Query { graph, .. } = decode_frame(&frame, &WireConfig::default()).unwrap()
        else {
            panic!("wrong kind")
        };
        assert_eq!(graph.vertex_count(), g.vertex_count());
        assert_eq!(graph.edge_count(), g.edge_count());
        assert_eq!(crate::chaos::graph_fingerprint(&graph), crate::chaos::graph_fingerprint(&g));
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let config = WireConfig { max_frame_len: 1024 };
        // Hand-build a header declaring a 3 GiB payload; if the cap check
        // ran after allocation this test would OOM, not fail an assert.
        let mut frame = Vec::new();
        frame.extend_from_slice(WIRE_MAGIC);
        frame.push(9); // Bye
        frame.extend_from_slice(&(3u32 << 30).to_le_bytes());
        frame.extend_from_slice(&[0; 8]);
        let err = read_frame(&mut &frame[..], &config).unwrap_err();
        match err {
            WireError::Frame(GraphError::Binary { message, .. }) => {
                assert!(message.contains("exceeds cap"), "{message}");
            }
            other => panic!("expected frame error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_frame_fails_checksum() {
        let config = WireConfig::default();
        let frame = encode_frame(&Message::Answers { id: 1, graphs: vec![GraphId(2)] });
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_frame(&bad, &config).is_err(),
                "single-bit corruption at bit {bit} must not decode"
            );
        }
    }

    #[test]
    fn truncated_frame_fails_closed() {
        let config = WireConfig::default();
        let frame = encode_frame(&Message::Query { id: 3, budget_ms: 10, graph: small_graph() });
        for len in 0..frame.len() {
            let err = decode_frame(&frame[..len], &config);
            assert!(err.is_err(), "truncation to {len} bytes must not decode");
            let mut r = &frame[..len];
            match read_frame(&mut r, &config) {
                Err(_) => {}
                Ok(m) => panic!("stream truncated to {len} bytes decoded {m:?}"),
            }
        }
    }

    #[test]
    fn absurd_counts_fail_before_allocating() {
        // An Answers frame declaring u32::MAX ids with a tiny payload.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u32(&mut payload, u32::MAX);
        let mut frame = Vec::new();
        frame.extend_from_slice(WIRE_MAGIC);
        frame.push(4);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        let sum = fnv1a64(&frame);
        frame.extend_from_slice(&sum.to_le_bytes());
        let err = decode_frame(&frame, &WireConfig::default()).unwrap_err();
        match err {
            WireError::Frame(GraphError::Binary { message, .. }) => {
                assert!(message.contains("absurd count"), "{message}");
            }
            other => panic!("expected count validation error, got {other:?}"),
        }
    }

    #[test]
    fn chaos_plan_is_deterministic_and_rate_shaped() {
        let chaos = WireChaos::new(WireChaosConfig {
            seed: 42,
            drop_per_mille: 100,
            truncate_per_mille: 100,
            corrupt_per_mille: 100,
            delay_per_mille: 0,
            delay_ms: 0,
        });
        let plan: Vec<_> = (0..1000).map(|i| chaos.planned_fault(i)).collect();
        let replay: Vec<_> = (0..1000).map(|i| chaos.planned_fault(i)).collect();
        assert_eq!(plan, replay);
        let faulted = plan.iter().filter(|f| f.is_some()).count();
        assert!((150..=450).contains(&faulted), "~300/1000 expected, got {faulted}");
    }

    #[test]
    fn chaos_mangle_breaks_frames_detectably() {
        let chaos = WireChaos::new(WireChaosConfig {
            seed: 7,
            corrupt_per_mille: 1000,
            ..Default::default()
        });
        let frame = encode_frame(&Message::Bye);
        let mangled = chaos.mangle(frame.clone()).unwrap();
        assert_ne!(mangled, frame);
        assert!(decode_frame(&mangled, &WireConfig::default()).is_err());
    }
}
