//! Crash-consistent run journal: append-only, checksummed, torn-tail
//! tolerant.
//!
//! A SIGKILL'd multi-hour run used to lose every completed [`QueryRecord`];
//! the journal makes query-set runs resumable. Each terminal outcome is one
//! line, appended as the query finishes:
//!
//! ```text
//! v2 <db_fp:016x> <q_fp:016x> <status> <answers> <engine> <fnv:016x>\n
//! ```
//!
//! where `db_fp` is the [`db_fingerprint`] of the database the run is over,
//! `q_fp` the [`graph_fingerprint`] of the query, `status` the terminal
//! [`QueryStatus`] label, `answers` the answer count, `engine` the name of
//! the engine the run invoked (`-` when unknown; a record of who produced
//! the line, never read back), and `fnv` the FNV-1a 64-bit checksum of
//! everything before it on the line (the same FNV constants as the binio
//! trailer). Replay ignores the engine token, so a run resumes a journal
//! whatever engine wrote it; journals written before the engine field
//! existed (`v1`, no engine token) still replay.
//!
//! # Replay rules
//!
//! Replay ([`RunJournal::resume`]) scans from the top and stops at the
//! **first** line that is malformed, fails its checksum, or names a
//! different database — so a torn tail (a crash mid-append) always replays
//! to a *prefix* of the recorded outcomes, never to a false completion. The
//! torn tail is then truncated away so new appends never sit behind garbage
//! (which a later replay would refuse to read past). Two further rules keep
//! resume sound:
//!
//! * `shed` records never enter the done set — a shed query did no work and
//!   must re-run;
//! * query identity is structural ([`graph_fingerprint`]), so duplicate
//!   queries in a set share one journal entry (they would produce the same
//!   result anyway).
//!
//! [`QueryRecord`]: crate::metrics::QueryRecord

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use sqp_graph::database::GraphId;
use sqp_graph::hash::{fnv1a64, FxHasher};
use sqp_graph::GraphDb;

use crate::chaos::graph_fingerprint;
use crate::engine::QueryStatus;

/// Structural fingerprint of a whole database: the journal's notion of
/// "the same run". Hashes every graph's [`graph_fingerprint`] in order, so
/// any edit to the database invalidates old journals instead of silently
/// skipping queries against different data.
pub fn db_fingerprint(db: &GraphDb) -> u64 {
    let mut h = FxHasher::default();
    db.len().hash(&mut h);
    for i in 0..db.len() {
        graph_fingerprint(db.graph(GraphId(i as u32))).hash(&mut h);
    }
    h.finish()
}

/// Journal activity counters, surfaced in the Prometheus exposition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Valid records recovered on [`RunJournal::resume`].
    pub replayed: u64,
    /// Records appended by this process.
    pub appended: u64,
    /// Queries skipped because the journal already held their outcome.
    pub skipped: u64,
}

/// An open run journal: a replayed done-set plus an append handle.
pub struct RunJournal {
    file: File,
    db_fp: u64,
    done: HashSet<u64>,
    stats: JournalStats,
}

impl RunJournal {
    /// Starts a fresh journal at `path` (truncating any existing file) for
    /// a run over the database fingerprinted `db_fp`.
    pub fn create(path: &Path, db_fp: u64) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        Ok(Self { file, db_fp, done: HashSet::new(), stats: JournalStats::default() })
    }

    /// Opens `path` for resumption: replays the valid prefix (see the
    /// module docs for the replay rules), truncates everything after it,
    /// and positions for appending. A missing file starts an empty journal.
    pub fn resume(path: &Path, db_fp: u64) -> std::io::Result<Self> {
        // Deliberately NOT truncate-on-open: the existing records are the
        // point. Only the invalid tail is truncated, after replay below.
        #[allow(clippy::suspicious_open_options)]
        let mut file = OpenOptions::new().create(true).read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut done = HashSet::new();
        let mut replayed = 0u64;
        let mut valid_len = 0usize;
        let mut offset = 0usize;
        while offset < bytes.len() {
            let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
                break; // torn tail: no newline
            };
            let line = &bytes[offset..offset + nl];
            let Some((q_fp, label)) = parse_line(line, db_fp) else {
                break; // malformed, bad checksum, or foreign database
            };
            if label != QueryStatus::Shed.label() {
                done.insert(q_fp);
            }
            replayed += 1;
            offset += nl + 1;
            valid_len = offset;
        }
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::Start(valid_len as u64))?;
        Ok(Self { file, db_fp, done, stats: JournalStats { replayed, ..JournalStats::default() } })
    }

    /// Whether the journal already holds a terminal (non-shed) outcome for
    /// the query fingerprinted `q_fp`.
    pub fn is_done(&self, q_fp: u64) -> bool {
        self.done.contains(&q_fp)
    }

    /// [`is_done`](RunJournal::is_done) plus skip accounting: the resume
    /// paths call this once per query before running it.
    pub fn should_skip(&mut self, q_fp: u64) -> bool {
        let skip = self.done.contains(&q_fp);
        if skip {
            self.stats.skipped += 1;
        }
        skip
    }

    /// Appends one terminal outcome. The line is flushed to the OS before
    /// returning, so a process kill right after a query completes cannot
    /// lose it (a machine crash can still tear the tail — replay tolerates
    /// that).
    pub fn record(
        &mut self,
        q_fp: u64,
        status: &QueryStatus,
        answers: usize,
        engine: &str,
    ) -> std::io::Result<()> {
        let engine = engine_token(engine);
        let prefix =
            format!("v2 {:016x} {:016x} {} {answers} {engine}", self.db_fp, q_fp, status.label());
        let sum = fnv1a64(prefix.as_bytes());
        self.file.write_all(format!("{prefix} {sum:016x}\n").as_bytes())?;
        self.file.flush()?;
        self.stats.appended += 1;
        if !matches!(status, QueryStatus::Shed) {
            self.done.insert(q_fp);
        }
        Ok(())
    }

    /// Forces every appended record down to durable storage
    /// (`fdatasync`). [`record`](RunJournal::record) only flushes to the
    /// OS — cheap, and enough to survive a process kill — so the drain
    /// paths call this when a SIGINT starts the drain window: outcomes
    /// already decided must survive even a machine crash between drain
    /// start and process exit.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.file.sync_data()
    }

    /// Activity counters for the exposition layer.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Queries with a recorded terminal (non-shed) outcome.
    pub fn done_count(&self) -> usize {
        self.done.len()
    }
}

/// The engine name as written to a journal line: space-free (space is the
/// field separator) and never empty (`-` = unknown).
fn engine_token(engine: &str) -> String {
    let cleaned: String = engine.chars().map(|c| if c.is_whitespace() { '-' } else { c }).collect();
    if cleaned.is_empty() {
        "-".to_string()
    } else {
        cleaned
    }
}

/// Parses one journal line; returns the query fingerprint and status label
/// iff the line is well-formed, checksums cleanly, and belongs to `db_fp`.
/// Accepts the current `v2` format (with an engine token) and the legacy
/// `v1` format (without one) — old journals stay resumable.
fn parse_line(line: &[u8], db_fp: u64) -> Option<(u64, &str)> {
    let line = std::str::from_utf8(line).ok()?;
    let (prefix, sum) = line.rsplit_once(' ')?;
    if u64::from_str_radix(sum, 16).ok()? != fnv1a64(prefix.as_bytes()) {
        return None;
    }
    let mut fields = prefix.split(' ');
    let version = fields.next()?;
    if version != "v1" && version != "v2" {
        return None;
    }
    if u64::from_str_radix(fields.next()?, 16).ok()? != db_fp {
        return None;
    }
    let q_fp = u64::from_str_radix(fields.next()?, 16).ok()?;
    let label = fields.next()?;
    let _answers: u64 = fields.next()?.parse().ok()?;
    if version == "v2" {
        let _engine = fields.next()?;
    }
    if fields.next().is_some() {
        return None;
    }
    Some((q_fp, label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::{GraphBuilder, Label};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sqp-journal-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_and_skips_done_queries() {
        let path = tmp("roundtrip");
        let mut j = RunJournal::create(&path, 42).unwrap();
        j.record(1, &QueryStatus::Completed, 5, "CFQL").unwrap();
        j.record(2, &QueryStatus::TimedOut, 0, "GraphQL").unwrap();
        j.record(3, &QueryStatus::Shed, 0, "CFQL").unwrap();
        drop(j);

        let mut j = RunJournal::resume(&path, 42).unwrap();
        assert_eq!(j.stats().replayed, 3);
        assert_eq!(j.done_count(), 2);
        assert!(j.should_skip(1));
        assert!(j.should_skip(2));
        assert!(!j.should_skip(3), "shed queries must re-run");
        assert_eq!(j.stats().skipped, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_database_journal_is_ignored() {
        let path = tmp("foreign");
        let mut j = RunJournal::create(&path, 42).unwrap();
        j.record(1, &QueryStatus::Completed, 5, "CFQL").unwrap();
        drop(j);
        let j = RunJournal::resume(&path, 43).unwrap();
        assert_eq!(j.stats().replayed, 0);
        assert_eq!(j.done_count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_replays_to_a_prefix_and_is_truncated() {
        let path = tmp("torn");
        let mut j = RunJournal::create(&path, 7).unwrap();
        j.record(10, &QueryStatus::Completed, 1, "CFQL").unwrap();
        j.record(11, &QueryStatus::Completed, 2, "CFQL").unwrap();
        drop(j);
        // Tear the last record in half.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

        let mut j = RunJournal::resume(&path, 7).unwrap();
        assert_eq!(j.stats().replayed, 1);
        assert!(j.is_done(10));
        assert!(!j.is_done(11), "torn record must not count as done");
        // The tail was truncated; appending and re-replaying is clean.
        j.record(11, &QueryStatus::Completed, 2, "CFQL").unwrap();
        drop(j);
        let j = RunJournal::resume(&path, 7).unwrap();
        assert_eq!(j.stats().replayed, 2);
        assert!(j.is_done(11));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_byte_invalidates_the_record_and_its_suffix() {
        let path = tmp("corrupt");
        let mut j = RunJournal::create(&path, 7).unwrap();
        j.record(10, &QueryStatus::Completed, 1, "CFQL").unwrap();
        j.record(11, &QueryStatus::Completed, 2, "CFQL").unwrap();
        j.record(12, &QueryStatus::Completed, 3, "CFQL").unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        let line_len = bytes.len() / 3;
        bytes[line_len + 5] ^= 0x01; // flip a bit inside record 2
        std::fs::write(&path, &bytes).unwrap();

        let j = RunJournal::resume(&path, 7).unwrap();
        assert_eq!(j.stats().replayed, 1, "replay stops at the corrupt line");
        assert!(j.is_done(10));
        assert!(!j.is_done(11));
        assert!(!j.is_done(12));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_carry_the_serving_engine() {
        let path = tmp("engine");
        let mut j = RunJournal::create(&path, 42).unwrap();
        j.record(1, &QueryStatus::Completed, 5, "CFQL").unwrap();
        // Spaces would break the field layout; they are mapped to dashes.
        j.record(2, &QueryStatus::Completed, 0, "CT Index").unwrap();
        // An unknown engine writes the placeholder token.
        j.record(3, &QueryStatus::Completed, 0, "").unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let engines: Vec<&str> = text.lines().map(|l| l.split(' ').nth(5).unwrap()).collect();
        assert_eq!(engines, ["CFQL", "CT-Index", "-"]);
        // And the lines still replay cleanly.
        let j = RunJournal::resume(&path, 42).unwrap();
        assert_eq!(j.stats().replayed, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_v1_lines_still_replay() {
        let path = tmp("v1compat");
        // A pre-engine-field journal: v1 lines without an engine token.
        let mut text = String::new();
        for (q_fp, label, answers) in [(1u64, "completed", 5), (2, "timed_out", 0)] {
            let prefix = format!("v1 {:016x} {q_fp:016x} {label} {answers}", 42u64);
            let sum = fnv1a64(prefix.as_bytes());
            text.push_str(&format!("{prefix} {sum:016x}\n"));
        }
        std::fs::write(&path, text).unwrap();
        let mut j = RunJournal::resume(&path, 42).unwrap();
        assert_eq!(j.stats().replayed, 2);
        assert!(j.is_done(1));
        assert!(j.is_done(2));
        // Appending after a v1 replay writes v2 lines; both replay together.
        j.record(3, &QueryStatus::Completed, 1, "GraphQL").unwrap();
        drop(j);
        let j = RunJournal::resume(&path, 42).unwrap();
        assert_eq!(j.stats().replayed, 3);
        assert!(j.is_done(3));
        std::fs::remove_file(&path).ok();
    }

    /// Journals whose lines name other engines (as per-query routing once
    /// wrote them) replay, and a CFQL run resumed on one skips those queries.
    #[test]
    fn v2_lines_from_other_engines_are_skipped_by_a_cfql_resume() {
        use crate::engine::QueryEngine;
        use crate::engines::CfqlEngine;
        use crate::runner::{run_query_set_journaled, RunnerConfig};
        use sqp_graph::{Graph, VertexId};
        use std::sync::Arc;

        let path = tmp("foreign-engines");
        let graph = |labels: &[u32]| -> Graph {
            let mut b = GraphBuilder::new();
            for &l in labels {
                b.add_vertex(Label(l));
            }
            for v in 1..labels.len() as u32 {
                b.add_edge(VertexId(v - 1), VertexId(v)).unwrap();
            }
            b.build()
        };
        let db = Arc::new(GraphDb::from_graphs(vec![graph(&[0, 1, 2, 3]), graph(&[1, 2])]));
        let queries = [graph(&[0, 1]), graph(&[1, 2]), graph(&[2, 3]), graph(&[0, 1, 2])];
        let db_fp = db_fingerprint(&db);
        let mut text = String::new();
        for (q, engine) in queries.iter().zip(["GraphQL", "QuickSI", "-"]) {
            let prefix =
                format!("v2 {db_fp:016x} {:016x} completed 1 {engine}", graph_fingerprint(q));
            let sum = fnv1a64(prefix.as_bytes());
            text.push_str(&format!("{prefix} {sum:016x}\n"));
        }
        std::fs::write(&path, text).unwrap();

        let mut journal = RunJournal::resume(&path, db_fp).unwrap();
        assert_eq!(journal.stats().replayed, 3);
        let mut engine = CfqlEngine::new();
        engine.build(&db).unwrap();
        let config = RunnerConfig::default();
        let report =
            run_query_set_journaled(&mut engine, "Q", &queries, config, Some(&mut journal));
        assert_eq!(report.records.len(), 1, "only the unjournaled query runs");
        assert_eq!(report.records[0].answers, 1);
        assert_eq!(journal.stats(), JournalStats { replayed: 3, appended: 1, skipped: 3 });
        drop(journal);

        let text = std::fs::read_to_string(&path).unwrap();
        let engines: Vec<&str> = text.lines().map(|l| l.split(' ').nth(5).unwrap()).collect();
        assert_eq!(engines, ["GraphQL", "QuickSI", "-", "CFQL"]);
        assert_eq!(RunJournal::resume(&path, db_fp).unwrap().done_count(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_line_with_extra_field_is_rejected() {
        let path = tmp("extrafield");
        let prefix = format!("v2 {:016x} {:016x} completed 1 CFQL extra", 42u64, 9u64);
        let sum = fnv1a64(prefix.as_bytes());
        std::fs::write(&path, format!("{prefix} {sum:016x}\n")).unwrap();
        let j = RunJournal::resume(&path, 42).unwrap();
        assert_eq!(j.stats().replayed, 0, "extra fields must not parse");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn db_fingerprint_tracks_content() {
        let g = |l: u32| {
            let mut b = GraphBuilder::new();
            b.add_vertex(Label(l));
            b.build()
        };
        let a = GraphDb::from_graphs(vec![g(0), g(1)]);
        let b = GraphDb::from_graphs(vec![g(0), g(1)]);
        let c = GraphDb::from_graphs(vec![g(0), g(2)]);
        assert_eq!(db_fingerprint(&a), db_fingerprint(&b));
        assert_ne!(db_fingerprint(&a), db_fingerprint(&c));
    }
}
