//! Compact binary serialization of graph databases.
//!
//! The text format of [`crate::io`] is the interchange format of the
//! literature, but parsing it dominates load time for large databases. This
//! module provides a length-prefixed little-endian binary encoding that
//! round-trips a [`GraphDb`] (graphs + label interner) byte-exactly.
//!
//! Layout (version 2):
//!
//! ```text
//! magic "SQPG" | version u32 | #interned u32 | {len u32, utf8 bytes}*
//! | #graphs u32 | per graph: |V| u32, labels u32*, |E| u32, (u32, u32)*
//! | fnv1a-64 checksum u64 over everything before it
//! ```
//!
//! The trailing checksum (new in version 2) makes truncated or corrupted
//! files fail with [`GraphError::Binary`] instead of decoding to a wrong
//! database or panicking. Version 1 files (no checksum) are still read.
//! Every decoding error carries the byte offset where it was detected, and
//! declared counts are validated against the remaining input *before* any
//! allocation, so a malformed header cannot trigger an out-of-memory abort.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::builder::GraphBuilder;
use crate::database::GraphDb;
use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::hash::fnv1a64;
use crate::label::{Label, LabelInterner};
use crate::vertex::VertexId;

const MAGIC: &[u8; 4] = b"SQPG";
const VERSION: u32 = 2;
/// Oldest version `from_bytes` still accepts (pre-checksum files).
const MIN_VERSION: u32 = 1;

/// Serializes a database into a byte buffer (current version, checksummed).
pub fn to_bytes(db: &GraphDb) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + db.graphs().iter().map(est_size).sum::<usize>());
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);

    // Interner: names in dense-id order.
    let interner = db.interner();
    buf.put_u32_le(interner.len() as u32);
    for id in 0..interner.len() as u32 {
        let Some(name) = interner.name(Label(id)) else {
            panic!("interner ids are dense by construction; {id} missing")
        };
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name.as_bytes());
    }

    buf.put_u32_le(db.len() as u32);
    for g in db.graphs() {
        buf.put_u32_le(g.vertex_count() as u32);
        for v in g.vertices() {
            buf.put_u32_le(g.label(v).id());
        }
        buf.put_u32_le(g.edge_count() as u32);
        for u in g.vertices() {
            for &w in g.neighbors(u) {
                if u < w {
                    buf.put_u32_le(u.id());
                    buf.put_u32_le(w.id());
                }
            }
        }
    }
    let checksum = fnv1a64(buf.as_ref());
    buf.put_u64_le(checksum);
    buf.freeze()
}

fn est_size(g: &Graph) -> usize {
    8 + 4 * g.vertex_count() + 8 * g.edge_count()
}

/// Writes a database to `path` crash-atomically.
///
/// The bytes go to a temporary sibling file first, which is fsynced and then
/// renamed over `path`. A crash or kill at any point leaves either the old
/// file or the new one — never a torn half-write — so a database that loaded
/// yesterday cannot be destroyed by a failed save today.
pub fn write_file(db: &GraphDb, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;

    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().map(|n| n.to_string_lossy().into_owned());
    let tmp_name = format!(".{}.tmp-{}", file_name.as_deref().unwrap_or("db"), std::process::id());
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };

    let bytes = to_bytes(db);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        // Data must be durable before the rename publishes it; otherwise a
        // power cut could leave the new name pointing at unwritten blocks.
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself (directory entry) where the platform
        // allows opening directories; failure here is not worth aborting the
        // save over — the data file is already durable.
        if let Some(d) = dir {
            if let Ok(dirf) = std::fs::File::open(d) {
                let _ = dirf.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads a database previously written by [`write_file`] (or any bytes from
/// [`to_bytes`] stored at `path`).
pub fn read_file(path: &std::path::Path) -> Result<GraphDb> {
    let bytes = std::fs::read(path).map_err(|e| GraphError::Binary {
        offset: 0,
        message: format!("read {}: {e}", path.display()),
    })?;
    from_bytes(bytes.as_slice())
}

/// A bounds-checked little-endian reader that knows its byte offset, so
/// every error can say *where* the file went bad.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, message: impl Into<String>) -> GraphError {
        GraphError::Binary { offset: self.pos, message: message.into() }
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.data.len() - self.pos < n {
            return Err(self.err(format!(
                "truncated: need {n} more bytes, have {}",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        self.need(n)?;
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_u32_le(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

/// Deserializes a database from bytes produced by [`to_bytes`].
///
/// Accepts the current checksummed format (version 2) and the original
/// un-checksummed version 1. Any structural problem — truncation, a count
/// that exceeds the remaining input, an invalid edge, a checksum mismatch —
/// returns [`GraphError::Binary`] with the offending byte offset.
///
/// Decodes in place when `buf` holds its input in one chunk (a slice, a
/// [`Bytes`]); only a buffer in several chunks is gathered into one first.
/// Either way `buf` is consumed.
pub fn from_bytes(mut buf: impl Buf) -> Result<GraphDb> {
    let remaining = buf.remaining();
    if buf.chunk().len() == remaining {
        let db = decode(buf.chunk());
        buf.advance(remaining);
        return db;
    }
    let mut bytes = Vec::with_capacity(remaining);
    while buf.remaining() > 0 {
        let chunk = buf.chunk();
        let len = chunk.len();
        bytes.extend_from_slice(chunk);
        buf.advance(len);
    }
    decode(&bytes)
}

fn decode(bytes: &[u8]) -> Result<GraphDb> {
    let mut r = Reader { data: bytes, pos: 0 };

    let magic = r.take(4).map_err(|_| GraphError::Binary {
        offset: 0,
        message: "truncated: too short for magic".into(),
    })?;
    if magic != MAGIC {
        return Err(GraphError::Binary {
            offset: 0,
            message: "bad magic; not a binary graph database".into(),
        });
    }
    let version = r.get_u32_le()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(GraphError::Binary {
            offset: 4,
            message: format!("unsupported version {version}"),
        });
    }

    // Version 2 carries a trailing fnv1a-64 checksum: verify it up front,
    // then shrink the reader so the payload loop never touches it.
    if version >= 2 {
        if r.remaining() < 8 {
            return Err(r.err("truncated: missing checksum trailer"));
        }
        let body_len = bytes.len() - 8;
        let mut tail = [0u8; 8];
        tail.copy_from_slice(&bytes[body_len..]);
        let stored = u64::from_le_bytes(tail);
        let actual = fnv1a64(&bytes[..body_len]);
        if stored != actual {
            return Err(GraphError::Binary {
                offset: body_len,
                message: format!("checksum mismatch: stored {stored:016x}, actual {actual:016x}"),
            });
        }
        r.data = &bytes[..body_len];
    }

    let interned = r.get_u32_le()? as usize;
    let mut interner = LabelInterner::new();
    for _ in 0..interned {
        let len = r.get_u32_le()? as usize;
        let at = r.pos;
        let raw = r.take(len)?;
        let name = std::str::from_utf8(raw).map_err(|_| GraphError::Binary {
            offset: at,
            message: "invalid utf8 label name".into(),
        })?;
        interner.intern(name);
    }

    let graph_count = r.get_u32_le()? as usize;
    // Each graph is at least 8 bytes (two counts); a count larger than the
    // remaining input is rejected before `Vec::with_capacity` can OOM.
    if graph_count.saturating_mul(8) > r.remaining() {
        return Err(r.err(format!("graph count {graph_count} exceeds remaining input")));
    }
    let mut graphs = Vec::with_capacity(graph_count);
    for gi in 0..graph_count {
        let n = r.get_u32_le()? as usize;
        r.need(4 * n)?; // labels must be present before we allocate for them
        let mut b = GraphBuilder::with_capacity(n);
        for _ in 0..n {
            let at = r.pos;
            let label = Label(r.get_u32_le()?).checked().map_err(|e| GraphError::Binary {
                offset: at,
                message: format!("graph {gi}: {e}"),
            })?;
            b.add_vertex(label);
        }
        let m = r.get_u32_le()? as usize;
        r.need(8 * m)?;
        b.reserve_edges(m);
        for _ in 0..m {
            let at = r.pos;
            let u = VertexId(r.get_u32_le()?);
            let v = VertexId(r.get_u32_le()?);
            b.add_edge(u, v).map_err(|e| GraphError::Binary {
                offset: at,
                message: format!("graph {gi}: {e}"),
            })?;
        }
        graphs.push(b.build());
    }
    Ok(GraphDb::with_interner(graphs, interner))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> GraphDb {
        let mut interner = LabelInterner::new();
        let c = interner.intern("C");
        let n = interner.intern("N");
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(c);
        let v1 = b.add_vertex(n);
        let v2 = b.add_vertex(c);
        b.add_edge(v0, v1).unwrap();
        b.add_edge(v1, v2).unwrap();
        let g0 = b.build();
        let mut b = GraphBuilder::new();
        b.add_vertex(n);
        let g1 = b.build();
        GraphDb::with_interner(vec![g0, g1], interner)
    }

    /// Re-encodes `db` in the version-1 layout (no checksum), for
    /// backwards-compatibility tests.
    fn to_bytes_v1(db: &GraphDb) -> Bytes {
        let v2 = to_bytes(db);
        let mut raw = v2[..v2.len() - 8].to_vec(); // drop checksum
        raw[4..8].copy_from_slice(&1u32.to_le_bytes());
        Bytes::from(raw)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let db = sample_db();
        let bytes = to_bytes(&db);
        let db2 = from_bytes(bytes).unwrap();
        assert_eq!(db.len(), db2.len());
        assert_eq!(db.interner().len(), db2.interner().len());
        assert_eq!(db2.interner().name(Label(0)), Some("C"));
        for (a, b) in db.graphs().iter().zip(db2.graphs()) {
            assert_eq!(a.vertex_count(), b.vertex_count());
            assert_eq!(a.edge_count(), b.edge_count());
            for v in a.vertices() {
                assert_eq!(a.label(v), b.label(v));
                assert_eq!(a.neighbors(v), b.neighbors(v));
            }
        }
    }

    #[test]
    fn version_1_files_still_load() {
        let db = sample_db();
        let db2 = from_bytes(to_bytes_v1(&db)).unwrap();
        assert_eq!(db.len(), db2.len());
        assert_eq!(db2.interner().name(Label(1)), Some("N"));
    }

    #[test]
    fn rejects_bad_magic() {
        let err = from_bytes(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(99);
        let err = from_bytes(buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = to_bytes(&sample_db());
        for cut in 0..bytes.len() {
            let slice = bytes.slice(..cut);
            assert!(from_bytes(slice).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_single_bit_corruption_anywhere() {
        let bytes = to_bytes(&sample_db());
        for i in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0x01;
            // Corruption must never decode silently: either an error, or (for
            // bits in label ids / names that keep the structure valid) a
            // checksum mismatch — which is also an error. So: always an error.
            assert!(
                from_bytes(flipped.as_slice()).is_err(),
                "bit flip at byte {i} decoded silently"
            );
        }
    }

    #[test]
    fn absurd_counts_fail_before_allocating() {
        // Header claims 2^31 graphs with 4 trailing bytes of payload: must
        // fail with a Binary error, not attempt a multi-gigabyte allocation.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(1); // v1: no checksum needed for this probe
        buf.put_u32_le(0); // no interned labels
        buf.put_u32_le(0x8000_0000); // graph count
        buf.put_u32_le(7); // stray payload
        let err = from_bytes(buf.freeze()).unwrap_err();
        match err {
            GraphError::Binary { message, .. } => {
                assert!(message.contains("exceeds remaining"), "{message}");
            }
            other => panic!("expected Binary error, got {other}"),
        }
    }

    #[test]
    fn invalid_edge_reports_graph_and_offset() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(1);
        buf.put_u32_le(0); // labels
        buf.put_u32_le(1); // one graph
        buf.put_u32_le(1); // one vertex
        buf.put_u32_le(0); // its label
        buf.put_u32_le(1); // one edge
        buf.put_u32_le(0);
        buf.put_u32_le(5); // endpoint 5 does not exist
        let err = from_bytes(buf.freeze()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("graph 0"), "{msg}");
        assert!(msg.contains("byte"), "{msg}");
    }

    #[test]
    fn a_label_at_the_limit_is_rejected_at_its_offset() {
        let one_vertex = |label: u32| {
            let mut buf = BytesMut::new();
            buf.put_slice(MAGIC);
            buf.put_u32_le(1);
            buf.put_u32_le(0); // labels
            buf.put_u32_le(1); // one graph
            buf.put_u32_le(1); // one vertex
            buf.put_u32_le(label);
            buf.put_u32_le(0); // no edge
            from_bytes(buf.freeze())
        };
        let db = one_vertex(Label::LIMIT - 1).unwrap();
        assert_eq!(db.graphs()[0].label(VertexId(0)), Label(Label::LIMIT - 1));
        match one_vertex(Label::LIMIT).unwrap_err() {
            GraphError::Binary { offset, message } => {
                assert_eq!(offset, 20, "{message}");
                assert!(message.contains("label limit"), "{message}");
            }
            other => panic!("expected Binary error, got {other}"),
        }
    }

    #[test]
    fn a_one_chunk_input_round_trips_and_is_consumed() {
        let bytes = to_bytes(&sample_db());
        let mut whole = &bytes[..];
        assert_eq!(to_bytes(&from_bytes(&mut whole).unwrap()), bytes);
        assert!(whole.is_empty());
    }

    /// A `Buf` that hands its input out at most `chunk` bytes at a time.
    struct Chunked<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Buf for Chunked<'_> {
        fn remaining(&self) -> usize {
            self.data.len()
        }
        fn chunk(&self) -> &[u8] {
            &self.data[..self.chunk.min(self.data.len())]
        }
        fn advance(&mut self, n: usize) {
            self.data = &self.data[n..];
        }
    }

    #[test]
    fn a_multi_chunk_input_round_trips_and_is_consumed() {
        let bytes = to_bytes(&sample_db());
        for chunk in [1, 3, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut split = Chunked { data: &bytes, chunk };
            assert!(split.chunk().len() < split.remaining());
            assert_eq!(to_bytes(&from_bytes(&mut split).unwrap()), bytes, "chunk {chunk}");
            assert_eq!(split.remaining(), 0);
        }
    }

    #[test]
    fn empty_database_round_trips() {
        let db = GraphDb::new();
        let db2 = from_bytes(to_bytes(&db)).unwrap();
        assert!(db2.is_empty());
    }
}
