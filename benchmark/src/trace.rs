//! Benchmark-owned spans around calls into each layer's public API.
//!
//! One span per (op, layer), not per call: a CFQL query makes one `filter`
//! call per data graph, so per-call spans would number in the tens of
//! millions. A span therefore carries a `calls` count and a `busy_ns` total
//! (time inside the calls) beside the `[start_ns, end_ns]` interval from its
//! first call's start to its last call's end. Spans stay in memory and are
//! written out once, after the measured region.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `matching.filter`.
    pub name: &'static str,
    /// The operation (query, batch) this span belongs to.
    pub op_id: u64,
    /// Index of the parent span in the trace, `None` for an op's root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside the layer's calls; equals `end_ns - start_ns` for a span
    /// that wraps a single call.
    pub busy_ns: u64,
    pub calls: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Records a span and returns its index (usable as a later `parent`).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a span that wraps exactly one call.
    pub fn single(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let busy_ns = end_ns.saturating_sub(start_ns);
        self.push(Span { name, op_id, parent, start_ns, end_ns, busy_ns, calls: 1 })
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its busy time minus its direct children's,
    /// floored at zero (a child's clock reads can overshoot its parent's by
    /// a few nanoseconds).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.busy_ns);
            }
        }
        own
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *by.entry(s.name).or_default() += own;
        }
        by
    }

    /// Σ self time over all spans ÷ `wall_ns`: how much of the measured wall
    /// the spans account for. The traced closed loops assert it lies in
    /// `[0.9, 1.1]`.
    pub fn coverage(&self, wall_ns: u64) -> f64 {
        self.self_times().iter().sum::<u64>() as f64 / wall_ns.max(1) as f64
    }

    /// Writes one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("name", Json::str(s.name)),
                ("op_id", Json::Num(s.op_id as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("busy_ns", Json::Num(s.busy_ns as f64)),
                ("calls", Json::Num(s.calls as f64)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_busy_minus_children() {
        let mut t = Trace::default();
        let root = t.single("driver.query", 0, None, 0, 1_000);
        t.push(Span {
            name: "matching.filter",
            op_id: 0,
            parent: Some(root),
            start_ns: 10,
            end_ns: 900,
            busy_ns: 600,
            calls: 40,
        });
        let verify = t.push(Span {
            name: "matching.verify",
            op_id: 0,
            parent: Some(root),
            start_ns: 50,
            end_ns: 950,
            busy_ns: 250,
            calls: 3,
        });
        t.single("graph.intersect", 0, Some(verify), 60, 160);
        assert_eq!(t.self_times(), vec![150, 600, 150, 100]);
        let by = t.self_by_name();
        assert_eq!(by["driver.query"], 150);
        assert_eq!(by["matching.filter"], 600);
        // All self times add back up to the root's wall.
        assert!((t.coverage(1_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overshooting_child_floors_at_zero() {
        let mut t = Trace::default();
        let root = t.single("driver.query", 1, None, 100, 200);
        t.single("matching.filter", 1, Some(root), 100, 203);
        assert_eq!(t.self_times(), vec![0, 103]);
    }

    #[test]
    fn coverage_flags_unaccounted_wall() {
        let mut t = Trace::default();
        t.single("driver.query", 0, None, 0, 400);
        t.single("driver.query", 1, None, 500, 900);
        assert!((t.coverage(1_000) - 0.8).abs() < 1e-12);
    }
}
