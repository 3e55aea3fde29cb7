//! Enumeration over the mutable [`DynamicGraph`] overlay.
//!
//! The static matchers in this crate are written against the immutable CSR
//! [`Graph`]. Continuous queries need two things those matchers do not
//! provide:
//!
//! * enumeration directly over a [`DynamicGraph`] (base CSR + delta), so a
//!   standing query can be answered between compactions without
//!   materializing; and
//! * **seeded** enumeration from a partial assignment, which is how the
//!   repair step re-enumerates only the affected region: every embedding
//!   that is new after a batch must map some query edge onto an added data
//!   edge (or some query vertex onto an added data vertex), so pinning those
//!   images and completing the rest enumerates exactly the additions.
//!
//! The enumerator is a backtracking search (the same shape as the
//! [`brute`](crate::brute) oracle) hardened with the overlay's exact NLF
//! dominance filter. Candidates at each depth are a label-run slice of the
//! overlay — a base CSR slice for untouched vertices, a patched sorted list
//! otherwise — iterated in place, in ascending id order. Without seeds the
//! search walks query vertices in id order, so [`enumerate_overlay`] output
//! is deterministic and lexicographically sorted by mapping. With seeds the
//! search instead expands outward from the pinned region (pins first, then
//! connected neighbors), so every unpinned depth is anchored to an
//! already-mapped neighbor and candidates stay neighborhood-sized instead of
//! falling back to a full label scan — the property that keeps a repair seed
//! O(local) rather than O(|V|). Seeded output is deterministic but not
//! sorted; the repair layer sorts after merging.

use sqp_graph::{DynamicGraph, Graph, NeighborhoodLabelFrequency, VertexId};

use crate::deadline::{Deadline, TickChecker, Timeout};
use crate::embedding::Embedding;

/// Enumerates every subgraph isomorphism from `q` into the overlay.
///
/// Results are sorted lexicographically by mapping.
pub fn enumerate_overlay(
    q: &Graph,
    g: &DynamicGraph,
    deadline: Deadline,
) -> Result<Vec<Embedding>, Timeout> {
    enumerate_seeded(q, g, &[], deadline)
}

/// Enumerates every subgraph isomorphism from `q` into the overlay that
/// extends the partial assignment `seeds` (pairs `(query vertex, data
/// vertex)`).
///
/// An inconsistent seed set (label mismatch, dead image, non-injective, or a
/// pinned query edge with no corresponding data edge) yields no embeddings
/// rather than an error: repair seeds are speculative by construction.
pub fn enumerate_seeded(
    q: &Graph,
    g: &DynamicGraph,
    seeds: &[(VertexId, VertexId)],
    deadline: Deadline,
) -> Result<Vec<Embedding>, Timeout> {
    let mut out = Vec::new();
    SeededEnumerator::new(q, g).enumerate(seeds, deadline, &mut out)?;
    Ok(out)
}

const UNMAPPED: VertexId = VertexId(u32::MAX);

/// A reusable seeded enumerator over one `(query, overlay)` pair.
///
/// The repair inner loop issues one seeded enumeration per label-compatible
/// pin, and the search itself is neighborhood-sized, so whatever a call sets
/// up dominates it. Everything a call needs is therefore built once and
/// kept: the query's NLF signatures, the O(|V|) `used` map, the search order
/// of each pin pattern seen so far, and the one candidate buffer a search
/// needs. Construct once per repaired query, then
/// [`enumerate`](SeededEnumerator::enumerate) per seed set; a warm call
/// allocates nothing but the embeddings it emits.
pub struct SeededEnumerator<'a> {
    q: &'a Graph,
    g: &'a DynamicGraph,
    qnlf: Vec<NeighborhoodLabelFrequency>,
    mapping: Vec<VertexId>,
    pinned: Vec<bool>,
    used: Vec<bool>,
    /// Search orders derived so far, keyed by the pin pattern they serve.
    orders: Vec<(Vec<bool>, Vec<usize>)>,
    /// Candidates of a depth with no mapped neighbor (the root of an
    /// unseeded search). Every other depth iterates an overlay slice.
    roots: Vec<VertexId>,
    deadline: Deadline,
    ticker: TickChecker,
}

impl<'a> SeededEnumerator<'a> {
    pub fn new(q: &'a Graph, g: &'a DynamicGraph) -> Self {
        let n = q.vertex_count();
        Self {
            q,
            g,
            qnlf: (0..n).map(|u| NeighborhoodLabelFrequency::of(q, VertexId(u as u32))).collect(),
            mapping: vec![UNMAPPED; n],
            pinned: vec![false; n],
            used: vec![false; g.vertex_slots()],
            orders: Vec::new(),
            roots: Vec::new(),
            deadline: Deadline::none(),
            ticker: TickChecker::new(),
        }
    }

    /// Appends to `out` every embedding extending `seeds`. See
    /// [`enumerate_seeded`] for the seed semantics.
    ///
    /// The clock is read once up front and then once per tick interval of
    /// candidates tried, counted across calls.
    pub fn enumerate(
        &mut self,
        seeds: &[(VertexId, VertexId)],
        deadline: Deadline,
        out: &mut Vec<Embedding>,
    ) -> Result<(), Timeout> {
        deadline.check()?;
        if self.q.vertex_count() == 0 {
            return Ok(());
        }
        self.deadline = deadline;
        self.mapping.fill(UNMAPPED);
        self.pinned.fill(false);
        let result = match self.pin(seeds) {
            // Pins lead every order, so the search starts past them.
            Some(order) => {
                let pins = self.pinned.iter().filter(|&&p| p).count();
                self.descend(order, pins, out)
            }
            None => Ok(()),
        };
        // Backtracking resets `used` for every searched vertex; only the
        // pins remain. Clearing them here (instead of a full memset) is
        // what keeps the per-call cost O(pins), not O(|V|).
        for (u, _) in self.pinned.iter().enumerate().filter(|(_, &p)| p) {
            self.used[self.mapping[u].index()] = false;
        }
        result
    }

    /// Places the pins and returns the index in `orders` of the search order
    /// for their pattern, or `None` if they cannot extend to an embedding.
    fn pin(&mut self, seeds: &[(VertexId, VertexId)]) -> Option<usize> {
        let n = self.q.vertex_count();
        for &(u, v) in seeds {
            if u.index() >= n || !self.g.is_live(v) || self.g.label(v) != self.q.label(u) {
                return None;
            }
            if self.pinned[u.index()] {
                if self.mapping[u.index()] != v {
                    return None; // contradictory pins
                }
                continue;
            }
            if self.used[v.index()] {
                return None; // non-injective pins
            }
            self.mapping[u.index()] = v;
            self.pinned[u.index()] = true;
            self.used[v.index()] = true;
        }
        // Pinned vertices must already satisfy dominance and mutual edges.
        for u in (0..n).filter(|&u| self.pinned[u]) {
            if !self.g.nlf_dominates(self.mapping[u], &self.qnlf[u]) {
                return None;
            }
            for &w in self.q.neighbors(VertexId(u as u32)) {
                if self.pinned[w.index()]
                    && w.index() > u
                    && !self.g.has_edge(self.mapping[u], self.mapping[w.index()])
                {
                    return None;
                }
            }
        }
        Some(self.orders.iter().position(|(pattern, _)| *pattern == self.pinned).unwrap_or_else(
            || {
                self.orders.push((self.pinned.clone(), search_order(self.q, &self.pinned)));
                self.orders.len() - 1
            },
        ))
    }

    fn descend(
        &mut self,
        order: usize,
        depth: usize,
        out: &mut Vec<Embedding>,
    ) -> Result<(), Timeout> {
        let Some(&uq) = self.orders[order].1.get(depth) else {
            out.push(Embedding::new(self.mapping.clone()));
            return Ok(());
        };
        // Both outlive `self`'s borrow, so a slice of the overlay can be
        // iterated while the recursion below mutates the search state.
        let (q, g) = (self.q, self.g);
        let label = q.label(VertexId(uq as u32));
        // Pivot: the mapped query neighbor whose image has the smallest
        // label-restricted neighborhood. The candidate *set* is independent
        // of the pivot (every other mapped neighbor is checked in `extend`),
        // and each slice is ascending by id, so enumeration order is
        // deterministic.
        let mut pivot: Option<(VertexId, &'a [VertexId])> = None;
        for &w in q.neighbors(VertexId(uq as u32)) {
            let img = self.mapping[w.index()];
            if img != UNMAPPED {
                let run = g.neighbors_with_label(img, label);
                if pivot.is_none_or(|(_, best)| run.len() < best.len()) {
                    pivot = Some((w, run));
                }
            }
        }
        match pivot {
            Some((w, run)) => self.extend(order, depth, uq, Some(w), run, out),
            None => {
                // A nested pivot-less depth (a query component with no pin)
                // finds the buffer taken and fills a fresh one.
                let mut roots = std::mem::take(&mut self.roots);
                roots.clear();
                g.live_vertices_with_label(label, &mut roots);
                let result = self.extend(order, depth, uq, None, &roots, out);
                self.roots = roots;
                result
            }
        }
    }

    /// Tries every candidate for query vertex `uq` at `depth`: one deadline
    /// tick per attempt. Candidates drawn from `pivot`'s image are adjacent
    /// to it by construction.
    fn extend(
        &mut self,
        order: usize,
        depth: usize,
        uq: usize,
        pivot: Option<VertexId>,
        candidates: &[VertexId],
        out: &mut Vec<Embedding>,
    ) -> Result<(), Timeout> {
        let (q, g) = (self.q, self.g);
        for &v in candidates {
            self.ticker.tick(self.deadline)?;
            if self.used[v.index()] || !g.nlf_dominates(v, &self.qnlf[uq]) {
                continue;
            }
            // Edges to every other already-mapped query neighbor.
            let ok = q.neighbors(VertexId(uq as u32)).iter().all(|&w| {
                let img = self.mapping[w.index()];
                Some(w) == pivot || img == UNMAPPED || g.has_edge(v, img)
            });
            if !ok {
                continue;
            }
            self.mapping[uq] = v;
            self.used[v.index()] = true;
            let result = self.descend(order, depth + 1, out);
            self.used[v.index()] = false;
            self.mapping[uq] = UNMAPPED;
            result?;
        }
        Ok(())
    }
}

/// Search order for the backtracking descent: pinned vertices first, then
/// connected expansion outward from the placed region (smallest query id
/// first), falling back to the smallest unplaced vertex when the query is
/// disconnected from the pins. Without pins this is identity order, which
/// keeps [`enumerate_overlay`] output lexicographically sorted.
fn search_order(q: &Graph, pinned: &[bool]) -> Vec<usize> {
    let n = q.vertex_count();
    if !pinned.iter().any(|&p| p) {
        return (0..n).collect();
    }
    let mut order: Vec<usize> = (0..n).filter(|&u| pinned[u]).collect();
    let mut placed = pinned.to_vec();
    while order.len() < n {
        let mut fallback = None;
        let mut next = None;
        for u in 0..n {
            if placed[u] {
                continue;
            }
            if fallback.is_none() {
                fallback = Some(u);
            }
            if q.neighbors(VertexId(u as u32)).iter().any(|&w| placed[w.index()]) {
                next = Some(u);
                break;
            }
        }
        match next.or(fallback) {
            Some(u) => {
                placed[u] = true;
                order.push(u);
            }
            None => break,
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::{GraphBuilder, Label};

    use crate::brute;

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

    fn sorted(mut es: Vec<Embedding>) -> Vec<Embedding> {
        es.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        es
    }

    #[test]
    fn clean_overlay_matches_brute_oracle() {
        let g = labeled(&[0, 1, 1, 0, 2], &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let dg = DynamicGraph::new(g.clone());
        for q in [
            labeled(&[0, 1], &[(0, 1)]),
            labeled(&[1, 0, 1], &[(0, 1), (1, 2)]),
            labeled(&[0, 1, 0], &[(0, 1), (1, 2)]),
        ] {
            let want = sorted(brute::enumerate_all(&q, &g));
            let got = enumerate_overlay(&q, &dg, Deadline::none()).unwrap();
            assert_eq!(got, want);
            // Output arrives already sorted.
            assert_eq!(got, sorted(got.clone()));
        }
    }

    #[test]
    fn mutated_overlay_matches_brute_on_materialized() {
        let g = labeled(&[0, 1, 1, 0], &[(0, 1), (1, 3), (2, 3)]);
        let mut dg = DynamicGraph::new(g);
        let nv = dg.add_vertex(Label(1)).unwrap();
        dg.add_edge(nv, VertexId(0)).unwrap();
        dg.remove_vertex(VertexId(2)).unwrap();
        let (mat, mapping) = dg.materialize();
        let q = labeled(&[0, 1], &[(0, 1)]);
        let got = enumerate_overlay(&q, &dg, Deadline::none()).unwrap();
        let want = sorted(brute::enumerate_all(&q, &mat));
        let renumbered: Vec<Embedding> = got
            .iter()
            .map(|e| {
                Embedding::new(e.as_slice().iter().map(|&v| mapping[v.index()].unwrap()).collect())
            })
            .collect();
        assert_eq!(sorted(renumbered), want);
    }

    #[test]
    fn seeded_enumeration_restricts_to_extensions() {
        let g = labeled(&[0, 1, 1], &[(0, 1), (0, 2)]);
        let dg = DynamicGraph::new(g);
        let q = labeled(&[0, 1], &[(0, 1)]);
        let all = enumerate_overlay(&q, &dg, Deadline::none()).unwrap();
        assert_eq!(all.len(), 2);
        let seeded =
            enumerate_seeded(&q, &dg, &[(VertexId(1), VertexId(2))], Deadline::none()).unwrap();
        assert_eq!(seeded.len(), 1);
        assert_eq!(seeded[0].as_slice(), &[VertexId(0), VertexId(2)]);
        // Inconsistent seeds yield no embeddings, never an error.
        for bad in [
            vec![(VertexId(1), VertexId(0))], // label mismatch
            vec![(VertexId(0), VertexId(0)), (VertexId(1), VertexId(0))], // non-injective
            vec![(VertexId(9), VertexId(0))], // unknown query vertex
        ] {
            assert!(enumerate_seeded(&q, &dg, &bad, Deadline::none()).unwrap().is_empty());
        }
        // A pinned query edge whose data edge is absent yields nothing.
        let q2 = labeled(&[1, 1], &[(0, 1)]);
        let pins = [(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2))];
        assert!(enumerate_seeded(&q2, &dg, &pins, Deadline::none()).unwrap().is_empty());
    }

    #[test]
    fn deadline_expires() {
        let g = labeled(&[0; 8], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let dg = DynamicGraph::new(g);
        let q = labeled(&[0, 0], &[(0, 1)]);
        let d = Deadline::after(std::time::Duration::ZERO);
        assert!(enumerate_overlay(&q, &dg, d).is_err());
    }
}
