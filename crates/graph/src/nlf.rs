//! Neighborhood label frequency (NLF) signatures.
//!
//! The NLF of a vertex `v` maps each label `l` to the number of neighbors of
//! `v` carrying `l`. A data vertex `v` can only match a query vertex `u` if
//! `NLF(u) ⊑ NLF(v)` (component-wise `≤`): every embedding must map `u`'s
//! neighbors injectively onto distinct, label-preserving neighbors of `v`.
//! Both the GraphQL profile filter and the CFL initial candidate filter are
//! instances of this test.
//!
//! A [`Graph`]'s per-vertex label-run index *is* its NLF
//! ([`Graph::label_runs`]): `(label, run length)` ascending by label. Every
//! dominance test here is the same linear merge over two such run sequences
//! ([`runs_dominated`]); none of them loads an adjacency list or a
//! neighbor's label. A [`DynamicGraph`](crate::dynamic::DynamicGraph) keeps
//! the same runs beside each patched adjacency list
//! ([`label_runs`](crate::dynamic::DynamicGraph::label_runs)).
//!
//! # The packed signature
//!
//! [`packed`] folds a run sequence into one `u64` of sixteen 4-bit
//! counters (after the Compact Neighborhood Index): nibble `k` holds the
//! number of neighbors whose label is `≡ k (mod 16)`, saturating at
//! [`NIBBLE_MAX`] = 7, so the top bit of every nibble is free. That free bit
//! is what makes dominance one subtraction ([`packed_dominated`]): with
//! `H = 0x8888…`, nibble `k` of `(sg | H) − sq` is `8 + sg_k − sq_k ∈ [1, 15]`
//! — it never borrows from its neighbor — and keeps its top bit exactly when
//! `sg_k ≥ sq_k`; hence `((sg | H) − sq) & H = H` iff every nibble of `sq` is
//! at most the one of `sg`.
//!
//! Folding and saturating are both monotone, so `q ⊑ g` implies the packed
//! compare passes: **a packed reject is always a true reject**. A packed
//! accept is the true answer only when the fold lost nothing
//! ([`packed_is_exact`]):
//!
//! * every label on *both* sides is below 16 (`label_space() ≤ 16`), so no
//!   two labels share a nibble — on the data side a shared nibble would add
//!   label 19's neighbors to label 3's supply, on the query side it would
//!   merge two demands into one sum that a single data label could meet;
//! * no query nibble reads 7, which may stand for any larger count (a data
//!   nibble of 7 then proves nothing; a saturated *data* nibble is harmless
//!   against an unsaturated query nibble, which asks for at most 6).
//!
//! Otherwise a packed accept is followed by the run merge.

use crate::graph::Graph;
use crate::label::Label;
use crate::vertex::VertexId;

/// Whether the `(label, count)` runs `q` are dominated by the runs `g`
/// (`q ⊑ g` component-wise). Both sequences must ascend strictly by label.
#[inline]
pub fn runs_dominated(
    q: impl IntoIterator<Item = (Label, u32)>,
    g: impl IntoIterator<Item = (Label, u32)>,
) -> bool {
    let mut g = g.into_iter();
    'query: for (l, c) in q {
        for (gl, gc) in g.by_ref() {
            if gl < l {
                continue;
            }
            if gl == l && gc >= c {
                continue 'query;
            }
            return false;
        }
        return false;
    }
    true
}

/// Largest count a nibble of a [`packed`] signature holds; it stands for
/// "this many or more".
pub const NIBBLE_MAX: u32 = 7;

/// The top bit of every nibble.
const NIBBLE_TOPS: u64 = 0x8888_8888_8888_8888;

/// The packed signature of a `(label, count)` run sequence: per nibble
/// `k < 16`, the total count of the labels `≡ k (mod 16)`, saturating at
/// [`NIBBLE_MAX`].
#[inline]
pub fn packed(runs: impl IntoIterator<Item = (Label, u32)>) -> u64 {
    let mut word = 0u64;
    for (l, c) in runs {
        let shift = 4 * (l.index() % 16);
        let sum = ((word >> shift) & 0xF) as u32 + c.min(NIBBLE_MAX);
        word = word & !(0xF << shift) | u64::from(sum.min(NIBBLE_MAX)) << shift;
    }
    word
}

/// Whether every nibble of the query signature `sq` is at most the same
/// nibble of the data signature `sg`. `false` proves the runs behind `sq` are
/// not dominated by the runs behind `sg`; `true` proves dominance only under
/// [`packed_is_exact`].
#[inline]
pub fn packed_dominated(sq: u64, sg: u64) -> bool {
    ((sg | NIBBLE_TOPS).wrapping_sub(sq)) & NIBBLE_TOPS == NIBBLE_TOPS
}

/// Whether a [`packed_dominated`] accept of the query signature `sq` is the
/// answer of the run merge: both graphs' labels all lie below 16 (pass the
/// larger `label_space()`), and no nibble of `sq` is saturated.
#[inline]
pub fn packed_is_exact(sq: u64, label_space: usize) -> bool {
    // A nibble reads 7 iff its low three bits are all set.
    let saturated = sq & (sq >> 1) & (sq >> 2) & (NIBBLE_TOPS >> 3);
    label_space <= 16 && saturated == 0
}

/// A query vertex's [`packed`] signature together with whether an accept on
/// it is the run merge's answer ([`packed_is_exact`]) for one pair of
/// graphs: the one place the three-way rule — packed reject, exact accept,
/// run merge otherwise — is written.
#[derive(Clone, Copy, Debug)]
pub struct PackedNlf {
    word: u64,
    exact: bool,
}

impl PackedNlf {
    /// Packs the query vertex's `runs`. `label_space` is the larger
    /// `label_space()` of the query and the data graph.
    pub fn new(runs: impl IntoIterator<Item = (Label, u32)>, label_space: usize) -> Self {
        let word = packed(runs);
        Self { word, exact: packed_is_exact(word, label_space) }
    }

    /// Whether the query runs are dominated by the runs of the data vertex
    /// whose packed signature is `data`. `merge` is the run merge over the
    /// two vertices ([`runs_dominated`]); it runs only behind a packed accept
    /// that is not exact.
    #[inline]
    pub fn dominated_by(self, data: u64, merge: impl FnOnce() -> bool) -> bool {
        packed_dominated(self.word, data) && (self.exact || merge())
    }
}

/// A sorted neighbor-label multiset, stored as `(label, count)` runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborhoodLabelFrequency {
    runs: Vec<(Label, u32)>,
}

impl NeighborhoodLabelFrequency {
    /// Computes the NLF of vertex `v` in `g`.
    pub fn of(g: &Graph, v: VertexId) -> Self {
        Self { runs: g.label_runs(v).collect() }
    }

    /// `(label, count)` runs, sorted by label.
    pub fn runs(&self) -> &[(Label, u32)] {
        &self.runs
    }

    /// Whether `self ⊑ other` component-wise (every label count of `self` is
    /// available in `other`).
    pub fn dominated_by(&self, other: &Self) -> bool {
        runs_dominated(self.runs.iter().copied(), other.runs.iter().copied())
    }
}

/// NLF dominance test directly on graphs: a merge over the two vertices'
/// label runs.
///
/// Returns true iff `NLF(u in q) ⊑ NLF(v in g)`.
#[inline]
pub fn nlf_dominated(q: &Graph, u: VertexId, g: &Graph, v: VertexId) -> bool {
    q.degree(u) <= g.degree(v) && runs_dominated(q.label_runs(u), g.label_runs(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn star(center_label: u32, leaf_labels: &[u32]) -> Graph {
        let mut b = GraphBuilder::new();
        let c = b.add_vertex(Label(center_label));
        for &l in leaf_labels {
            let v = b.add_vertex(Label(l));
            b.add_edge(c, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn nlf_runs_sorted_with_counts() {
        let g = star(9, &[1, 0, 1, 2]);
        let nlf = NeighborhoodLabelFrequency::of(&g, VertexId(0));
        assert_eq!(nlf.runs(), &[(Label(0), 1), (Label(1), 2), (Label(2), 1)]);
    }

    #[test]
    fn dominance_basic() {
        let small = star(9, &[0, 1]);
        let big = star(9, &[0, 1, 1, 2]);
        let a = NeighborhoodLabelFrequency::of(&small, VertexId(0));
        let b = NeighborhoodLabelFrequency::of(&big, VertexId(0));
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
        assert!(a.dominated_by(&a));
    }

    #[test]
    fn dominance_fails_on_missing_label() {
        let a = NeighborhoodLabelFrequency::of(&star(9, &[3]), VertexId(0));
        let b = NeighborhoodLabelFrequency::of(&star(9, &[0, 1, 2]), VertexId(0));
        assert!(!a.dominated_by(&b));
    }

    #[test]
    fn streaming_matches_materialized() {
        let q = star(9, &[0, 1, 1]);
        let g = star(9, &[0, 0, 1, 1, 2]);
        assert!(nlf_dominated(&q, VertexId(0), &g, VertexId(0)));
        assert!(!nlf_dominated(&g, VertexId(0), &q, VertexId(0)));
    }

    #[test]
    fn streaming_respects_degree() {
        let q = star(9, &[0, 0]);
        let g = star(9, &[0]);
        assert!(!nlf_dominated(&q, VertexId(0), &g, VertexId(0)));
    }

    #[test]
    fn leaf_vertices_trivially_dominated() {
        let q = star(9, &[0]);
        let g = star(9, &[0, 1]);
        // Leaf u=1 (label 0, one neighbor of label 9).
        assert!(nlf_dominated(&q, VertexId(1), &g, VertexId(1)));
    }
}
