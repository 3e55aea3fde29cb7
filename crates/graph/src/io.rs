//! Text IO in the `t # id / v id label / e u v` format.
//!
//! This is the de-facto exchange format of the subgraph-query literature
//! (used by the datasets of Katsarou et al. and by Grapes/GGSX):
//!
//! ```text
//! t # 0
//! v 0 C
//! v 1 N
//! e 0 1
//! t # 1
//! ...
//! ```
//!
//! Labels may be arbitrary tokens; they are interned into dense ids shared
//! across the whole database. Edge lines may carry a trailing edge label,
//! which is ignored (the paper's graphs are vertex-labeled only).

use std::io::{BufRead, BufReader, Read, Write};

use crate::builder::GraphBuilder;
use crate::database::GraphDb;
use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::label::LabelInterner;
use crate::vertex::VertexId;

/// Reads a whole graph database from `reader`.
pub fn read_database<R: Read>(reader: R) -> Result<GraphDb> {
    let mut interner = LabelInterner::new();
    let graphs = read_graphs(reader, &mut interner)?;
    Ok(GraphDb::with_interner(graphs, interner))
}

/// Reads all graphs from `reader`, interning labels into `interner`.
pub fn read_graphs<R: Read>(reader: R, interner: &mut LabelInterner) -> Result<Vec<Graph>> {
    let buf = BufReader::new(reader);
    let mut graphs = Vec::new();
    let mut current: Option<GraphBuilder> = None;
    let mut line_no = 0usize;
    // Line of the current graph's 't' header, for error context when the
    // graph turns out to be truncated (declared but never given a vertex).
    let mut t_line = 0usize;

    let parse_err =
        |line: usize, message: &str| GraphError::Parse { line, message: message.into() };

    // A 't' header with no following 'v' line is a truncated input, not an
    // empty graph: a 0-vertex graph has no meaning to the matchers, so it
    // must never escape the parser.
    let close = |b: GraphBuilder, t_line: usize, graphs: &mut Vec<Graph>| -> Result<()> {
        if b.vertex_count() == 0 {
            return Err(parse_err(t_line, "graph header with no vertices (truncated input?)"));
        }
        graphs.push(b.build());
        Ok(())
    };

    for line in buf.lines() {
        line_no += 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_ascii_whitespace();
        match tok.next() {
            Some("t") => {
                if let Some(b) = current.take() {
                    close(b, t_line, &mut graphs)?;
                }
                // `t # -1` is the literature's end-of-file marker, not the
                // header of a new (empty) graph.
                if tok.next() == Some("#") && tok.next() == Some("-1") {
                    continue;
                }
                t_line = line_no;
                current = Some(GraphBuilder::new());
            }
            Some("v") => {
                let b = current
                    .as_mut()
                    .ok_or_else(|| parse_err(line_no, "vertex line before any 't' line"))?;
                let id: usize = tok
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(line_no, "expected numeric vertex id"))?;
                let label =
                    tok.next().ok_or_else(|| parse_err(line_no, "expected vertex label"))?;
                if id != b.vertex_count() {
                    return Err(parse_err(line_no, "vertex ids must be dense and in order"));
                }
                // Numeric tokens are literal label ids (round-trip safe);
                // symbolic tokens are interned. Files should not mix the two
                // styles, as interned ids could collide with numeric ones.
                let label = match label.parse::<u32>() {
                    Ok(v) => crate::label::Label(v),
                    Err(_) => interner.intern(label),
                };
                let label = label.checked().map_err(|e| parse_err(line_no, &e.to_string()))?;
                b.add_vertex(label);
            }
            Some("e") => {
                let b = current
                    .as_mut()
                    .ok_or_else(|| parse_err(line_no, "edge line before any 't' line"))?;
                let u: u32 = tok
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(line_no, "expected numeric edge endpoint"))?;
                let v: u32 = tok
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(line_no, "expected numeric edge endpoint"))?;
                // A trailing edge label, if present, is ignored.
                b.add_edge(VertexId(u), VertexId(v))
                    .map_err(|e| parse_err(line_no, &e.to_string()))?;
            }
            Some(other) => {
                return Err(parse_err(line_no, &format!("unknown record type '{other}'")));
            }
            None => unreachable!("empty lines are skipped"),
        }
    }
    if let Some(b) = current.take() {
        close(b, t_line, &mut graphs)?;
    }
    Ok(graphs)
}

/// Reads a single graph (the first in the stream).
pub fn read_graph<R: Read>(reader: R, interner: &mut LabelInterner) -> Result<Graph> {
    let mut graphs = read_graphs(reader, interner)?;
    if graphs.is_empty() {
        return Err(GraphError::Parse { line: 0, message: "no graph in input".into() });
    }
    Ok(graphs.swap_remove(0))
}

/// Writes `graphs` in the text format. Labels are written via `interner` if
/// it knows their names, otherwise numerically.
pub fn write_graphs<'a, W: Write>(
    writer: &mut W,
    graphs: impl IntoIterator<Item = &'a Graph>,
    interner: &LabelInterner,
) -> Result<()> {
    for (i, g) in graphs.into_iter().enumerate() {
        writeln!(writer, "t # {i}")?;
        for v in g.vertices() {
            let l = g.label(v);
            match interner.name(l) {
                Some(name) => writeln!(writer, "v {v} {name}")?,
                None => writeln!(writer, "v {v} {l}")?,
            }
        }
        for u in g.vertices() {
            for &w in g.neighbors(u) {
                if u < w {
                    writeln!(writer, "e {u} {w}")?;
                }
            }
        }
    }
    Ok(())
}

/// Writes a whole database.
pub fn write_database<W: Write>(writer: &mut W, db: &GraphDb) -> Result<()> {
    write_graphs(writer, db.graphs(), db.interner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;

    const SAMPLE: &str = "\
t # 0
v 0 C
v 1 N
v 2 C
e 0 1
e 1 2
t # 1
v 0 O
";

    #[test]
    fn parses_two_graphs() {
        let db = read_database(SAMPLE.as_bytes()).unwrap();
        assert_eq!(db.len(), 2);
        let g0 = db.graph(crate::database::GraphId(0));
        assert_eq!(g0.vertex_count(), 3);
        assert_eq!(g0.edge_count(), 2);
        assert_eq!(db.interner().len(), 3);
        assert_eq!(g0.label(VertexId(0)), db.interner().get("C").unwrap());
    }

    #[test]
    fn round_trip() {
        let db = read_database(SAMPLE.as_bytes()).unwrap();
        let mut out = Vec::new();
        write_database(&mut out, &db).unwrap();
        let db2 = read_database(out.as_slice()).unwrap();
        assert_eq!(db2.len(), db.len());
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
    fn skips_comments_and_blank_lines() {
        let text = "# header\n\nt # 0\nv 0 A\n";
        let db = read_database(text.as_bytes()).unwrap();
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn numeric_labels_round_trip_literally() {
        let text = "t # 0\nv 0 7\nv 1 3\ne 0 1\n";
        let db = read_database(text.as_bytes()).unwrap();
        let g = db.graph(crate::database::GraphId(0));
        assert_eq!(g.label(VertexId(0)), crate::label::Label(7));
        assert_eq!(g.label(VertexId(1)), crate::label::Label(3));
        // Writing and re-reading preserves the ids exactly.
        let mut out = Vec::new();
        write_database(&mut out, &db).unwrap();
        let db2 = read_database(out.as_slice()).unwrap();
        let g2 = db2.graph(crate::database::GraphId(0));
        assert_eq!(g2.label(VertexId(0)), crate::label::Label(7));
    }

    #[test]
    fn edge_labels_are_ignored() {
        let text = "t # 0\nv 0 A\nv 1 B\ne 0 1 7\n";
        let db = read_database(text.as_bytes()).unwrap();
        assert_eq!(db.graph(crate::database::GraphId(0)).edge_count(), 1);
    }

    #[test]
    fn rejects_vertex_before_t() {
        let err = read_database("v 0 A\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_non_dense_ids() {
        let err = read_database("t # 0\nv 1 A\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn labels_numeric_or_interned_stay_below_the_limit() {
        let numeric = |l: u32| read_database(format!("t # 0\nv 0 {l}\n").as_bytes());
        assert!(numeric(Label::LIMIT - 1).is_ok());
        let err = numeric(Label::LIMIT).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        // An interner that already holds LIMIT - 1 names hands out the last
        // label the limit allows, then one past it.
        let mut interner = LabelInterner::new();
        for i in 0..Label::LIMIT - 1 {
            interner.intern(&format!("n{i}"));
        }
        let text = "t # 0\nv 0 last\nt # 1\nv 0 over\n";
        let err = read_graphs(text.as_bytes(), &mut interner).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 4, .. }), "{err}");
        assert_eq!(interner.get("last"), Some(Label(Label::LIMIT - 1)));
    }

    #[test]
    fn rejects_unknown_record() {
        let err = read_database("x 1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn read_single_graph() {
        let mut it = LabelInterner::new();
        let g = read_graph(SAMPLE.as_bytes(), &mut it).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert!(read_graph("".as_bytes(), &mut it).is_err());
    }
}
