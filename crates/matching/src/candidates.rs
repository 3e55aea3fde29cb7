//! Complete candidate vertex sets (Definition III.1) and the CPI auxiliary
//! structure.

use sqp_graph::{HeapSize, VertexId};

use crate::embedding::Embedding;

/// Result of a vcFV `Filter` invocation (Algorithm 2, lines 4–5).
#[derive(Debug)]
pub enum FilterResult {
    /// Some `Φ(u)` is empty: by Proposition III.1 the data graph cannot
    /// contain the query; verification is skipped.
    Pruned,
    /// All candidate sets are non-empty; `G` is a candidate graph.
    Space(CandidateSpace),
}

impl FilterResult {
    /// The space, if the graph was not pruned.
    pub fn space(self) -> Option<CandidateSpace> {
        match self {
            FilterResult::Pruned => None,
            FilterResult::Space(s) => Some(s),
        }
    }

    /// Whether the filter pruned the data graph.
    pub fn is_pruned(&self) -> bool {
        matches!(self, FilterResult::Pruned)
    }
}

/// The candidate vertex sets `Φ(u)` for every query vertex, optionally with
/// CFL's CPI tree adjacency.
///
/// Sets are sorted by vertex id. Membership is O(1): construction builds one
/// bitmap per query vertex over the candidate id universe (a single `Vec<u64>`
/// block array), which the enumerator probes instead of binary-searching the
/// sorted sets. The sorted sets remain the iteration/intersection
/// representation.
#[derive(Clone, Debug, Default)]
pub struct CandidateSpace {
    sets: Vec<Vec<VertexId>>,
    /// `sets.len() × words_per_set` membership words; bit `v` of row `u` is
    /// set iff `v ∈ Φ(u)`.
    bits: Vec<u64>,
    /// Words per bitmap row: `ceil(universe / 64)` where the universe is one
    /// past the largest candidate id in any set.
    words_per_set: usize,
    cpi: Option<Cpi>,
}

/// CFL's *compact path index*: for every tree edge `(parent(c), c)` of the
/// query BFS tree, the data-graph adjacency between the candidates of the
/// parent and the candidates of `c`, in CSR form.
///
/// [`list(c, i)`](Cpi::list) holds the candidates of `c` adjacent (in `G`)
/// to the `i`-th candidate of `parent(c)`, ascending by id. The space is
/// `O(|V(q)| × |E(G)|)`, matching the complexity the paper states for CFL.
#[derive(Clone, Debug)]
pub struct Cpi {
    /// Root of the query BFS tree.
    pub root: VertexId,
    /// Tree parent per query vertex (`None` for the root).
    pub parent: Vec<Option<VertexId>>,
    /// Per query vertex `c`, `|Φ(parent(c))| + 1` ascending offsets into
    /// `data[c]`. Empty for the root.
    pub offsets: Vec<Vec<u32>>,
    /// Per query vertex `c`, the concatenated adjacency lists. Empty for the
    /// root.
    pub data: Vec<Vec<VertexId>>,
}

impl Cpi {
    /// Number of adjacency lists of `c`: `|Φ(parent(c))|`, 0 for the root.
    pub fn list_count(&self, c: VertexId) -> usize {
        self.offsets[c.index()].len().saturating_sub(1)
    }

    /// The candidates of `c` adjacent to the `i`-th candidate of
    /// `parent(c)`.
    #[inline]
    pub fn list(&self, c: VertexId, i: usize) -> &[VertexId] {
        let offsets = &self.offsets[c.index()];
        &self.data[c.index()][offsets[i] as usize..offsets[i + 1] as usize]
    }
}

impl CandidateSpace {
    /// Wraps per-query-vertex candidate sets (each must be sorted) and builds
    /// the O(1) membership bitmaps.
    pub fn new(sets: Vec<Vec<VertexId>>) -> Self {
        let words_per_set = Self::words_for(&sets);
        let mut bits = vec![0u64; sets.len() * words_per_set];
        for (u, set) in sets.iter().enumerate() {
            let row = &mut bits[u * words_per_set..(u + 1) * words_per_set];
            for v in set {
                row[v.index() / 64] |= 1u64 << (v.index() % 64);
            }
        }
        Self::checked(sets, bits, words_per_set)
    }

    /// Wraps candidate sets whose membership bitmaps the filter already
    /// maintained: `rows` holds one `row_words`-word row per set, bit `v` of
    /// row `u` set iff `v ∈ sets[u]`. Rows are cut to the candidate universe
    /// and copied, not re-derived.
    pub(crate) fn from_bitmap_rows(
        sets: Vec<Vec<VertexId>>,
        rows: &[u64],
        row_words: usize,
    ) -> Self {
        let words_per_set = Self::words_for(&sets);
        let mut bits = Vec::with_capacity(sets.len() * words_per_set);
        for row in rows.chunks_exact(row_words.max(1)).take(sets.len()) {
            bits.extend_from_slice(&row[..words_per_set]);
        }
        Self::checked(sets, bits, words_per_set)
    }

    /// Words per bitmap row: `ceil(universe / 64)`, the universe being one
    /// past the largest candidate id in any set.
    fn words_for(sets: &[Vec<VertexId>]) -> usize {
        sets.iter().filter_map(|s| s.last()).map(|v| v.index() + 1).max().unwrap_or(0).div_ceil(64)
    }

    fn checked(sets: Vec<Vec<VertexId>>, bits: Vec<u64>, words_per_set: usize) -> Self {
        let space = Self { sets, bits, words_per_set, cpi: None };
        debug_assert_eq!(space.bits.len(), space.sets.len() * words_per_set);
        debug_assert!(
            space.sets.iter().enumerate().all(|(u, set)| {
                let row = &space.bits[u * words_per_set..(u + 1) * words_per_set];
                set.windows(2).all(|w| w[0] < w[1])
                    && set.iter().all(|&v| space.contains(VertexId::from(u), v))
                    && row.iter().map(|w| w.count_ones() as usize).sum::<usize>() == set.len()
            }),
            "sets must be sorted and bitmap rows must equal them"
        );
        space
    }

    /// Attaches a CPI tree.
    pub fn with_cpi(mut self, cpi: Cpi) -> Self {
        self.cpi = Some(cpi);
        self
    }

    /// Number of query vertices covered.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the space covers no query vertices.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// `Φ(u)`, sorted by id.
    #[inline]
    pub fn set(&self, u: VertexId) -> &[VertexId] {
        &self.sets[u.index()]
    }

    /// All candidate sets in query-vertex order.
    pub fn sets(&self) -> &[Vec<VertexId>] {
        &self.sets
    }

    /// Whether `v ∈ Φ(u)` (O(1) bitmap probe).
    #[inline]
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        let word = v.index() / 64;
        if word >= self.words_per_set {
            return false;
        }
        self.bits[u.index() * self.words_per_set + word] & (1u64 << (v.index() % 64)) != 0
    }

    /// Heap bytes of the membership bitmaps alone (for accounting tests).
    pub fn bitmap_bytes(&self) -> usize {
        self.bits.heap_size()
    }

    /// Whether any `Φ(u)` is empty (the vcFV pruning condition).
    pub fn any_empty(&self) -> bool {
        self.sets.iter().any(Vec::is_empty)
    }

    /// Total number of candidate vertices across all sets.
    pub fn total_candidates(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// The CPI tree, if the filter built one (CFL; CFQL never reads it and
    /// does not pay for it).
    pub fn cpi(&self) -> Option<&Cpi> {
        self.cpi.as_ref()
    }

    /// Completeness check against an oracle set of embeddings: every mapping
    /// `(u, v)` of every embedding must be inside `Φ(u)` (Definition III.1).
    /// Test-support; O(#embeddings × |V(q)| log |Φ|).
    pub fn is_complete_for(&self, embeddings: &[Embedding]) -> bool {
        embeddings.iter().all(|e| {
            (0..self.sets.len())
                .all(|u| self.contains(VertexId::from(u), e.image(VertexId::from(u))))
        })
    }
}

impl HeapSize for CandidateSpace {
    fn heap_size(&self) -> usize {
        /// The outer buffer (one `Vec` header per slot) plus every inner one.
        fn nested<T: Copy>(vs: &Vec<Vec<T>>) -> usize {
            vs.capacity() * std::mem::size_of::<Vec<T>>()
                + vs.iter().map(HeapSize::heap_size).sum::<usize>()
        }
        let cpi = self
            .cpi
            .as_ref()
            .map_or(0, |c| c.parent.heap_size() + nested(&c.offsets) + nested(&c.data));
        nested(&self.sets) + self.bits.heap_size() + cpi
    }
}

/// A matching order: a permutation of the query vertices along which the
/// enumerator extends partial embeddings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchingOrder {
    order: Vec<VertexId>,
}

impl MatchingOrder {
    /// Wraps an order; debug-asserts it is a permutation.
    pub fn new(order: Vec<VertexId>) -> Self {
        #[cfg(debug_assertions)]
        {
            let mut seen = vec![false; order.len()];
            for v in &order {
                assert!(v.index() < order.len() && !seen[v.index()], "not a permutation");
                seen[v.index()] = true;
            }
        }
        Self { order }
    }

    /// The query vertices in matching order.
    pub fn as_slice(&self) -> &[VertexId] {
        &self.order
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
impl CandidateSpace {
    /// Whether `v ∈ Φ(u)` by binary search of the sorted set: the definition
    /// the bitmap rows are checked against (here, in the CFL filter's
    /// differential test and in the enumerator's probing reference).
    pub(crate) fn contains_search(&self, u: VertexId, v: VertexId) -> bool {
        self.sets[u.index()].binary_search(&v).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> CandidateSpace {
        CandidateSpace::new(vec![
            vec![VertexId(0), VertexId(4)],
            vec![VertexId(1)],
            vec![VertexId(2)],
        ])
    }

    #[test]
    fn membership_and_totals() {
        let s = space();
        assert!(s.contains(VertexId(0), VertexId(4)));
        assert!(!s.contains(VertexId(0), VertexId(3)));
        assert_eq!(s.total_candidates(), 4);
        assert_eq!(s.len(), 3);
        assert!(!s.any_empty());
    }

    #[test]
    fn bitmap_agrees_with_search() {
        let s = CandidateSpace::new(vec![
            vec![VertexId(0), VertexId(63), VertexId(64), VertexId(200)],
            vec![VertexId(5)],
            vec![],
        ]);
        for u in 0..3u32 {
            for v in 0..260u32 {
                assert_eq!(
                    s.contains(VertexId(u), VertexId(v)),
                    s.contains_search(VertexId(u), VertexId(v)),
                    "u={u} v={v}"
                );
            }
        }
        // Probes past the universe are cleanly false.
        assert!(!s.contains(VertexId(0), VertexId(100_000)));
        assert!(s.bitmap_bytes() > 0);
    }

    #[test]
    fn heap_size_counts_bitmaps() {
        let s = space();
        assert!(s.bitmap_bytes() > 0);
        assert!(s.heap_size() >= s.bitmap_bytes());
        // An all-empty space allocates no bitmap words.
        let empty = CandidateSpace::new(vec![vec![], vec![]]);
        assert_eq!(empty.bitmap_bytes(), 0);
    }

    #[test]
    fn empty_set_detected() {
        let s = CandidateSpace::new(vec![vec![VertexId(0)], vec![]]);
        assert!(s.any_empty());
    }

    #[test]
    fn completeness_check() {
        let s = space();
        let good = Embedding::new(vec![VertexId(0), VertexId(1), VertexId(2)]);
        let bad = Embedding::new(vec![VertexId(3), VertexId(1), VertexId(2)]);
        assert!(s.is_complete_for(std::slice::from_ref(&good)));
        assert!(!s.is_complete_for(&[good, bad]));
    }

    #[test]
    fn filter_result_accessors() {
        assert!(FilterResult::Pruned.is_pruned());
        assert!(FilterResult::Pruned.space().is_none());
        let r = FilterResult::Space(space());
        assert!(!r.is_pruned());
        assert!(r.space().is_some());
    }

    #[test]
    fn heap_size_counts_cpi() {
        let plain = space();
        let base = plain.heap_size();
        let cpi = Cpi {
            root: VertexId(0),
            parent: vec![None, Some(VertexId(0)), Some(VertexId(1))],
            offsets: vec![vec![], vec![0, 1, 2], vec![0, 1]],
            data: vec![vec![], vec![VertexId(1), VertexId(1)], vec![VertexId(2)]],
        };
        assert_eq!(cpi.list_count(VertexId(0)), 0);
        assert_eq!(cpi.list_count(VertexId(1)), 2);
        assert_eq!(cpi.list(VertexId(1), 1), &[VertexId(1)]);
        assert_eq!(cpi.list(VertexId(2), 0), &[VertexId(2)]);
        let with = space().with_cpi(cpi);
        assert!(with.heap_size() > base);
    }

    /// Every allocation is counted once, at its capacity: the outer buffer of
    /// each nested vector holds the inner vectors' headers, so a header is
    /// not added a second time per set.
    #[test]
    fn heap_size_is_the_sum_of_allocation_capacities() {
        use std::mem::size_of;
        fn with_capacity<T: Copy>(capacity: usize, items: &[T]) -> Vec<T> {
            let mut v = Vec::with_capacity(capacity);
            v.extend_from_slice(items);
            v
        }
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }

        let mut sets = Vec::with_capacity(5);
        sets.push(with_capacity(7, &[VertexId(0), VertexId(70)]));
        sets.push(with_capacity(1, &[VertexId(1)]));
        sets.push(vec![VertexId(2)]);
        let inner: usize = sets.iter().map(bytes).sum();
        assert!(inner >= (7 + 1 + 1) * size_of::<VertexId>());
        // Ids up to 70: two bitmap words for each of the three rows.
        let expected = bytes(&sets) + inner + 3 * 2 * size_of::<u64>();
        let plain = CandidateSpace::new(sets);
        assert_eq!(plain.bitmap_bytes(), 3 * 2 * size_of::<u64>());
        assert_eq!(plain.heap_size(), expected);

        let mut cpi = Cpi {
            root: VertexId(0),
            parent: with_capacity(4, &[None, Some(VertexId(0)), Some(VertexId(1))]),
            offsets: Vec::with_capacity(3),
            data: Vec::with_capacity(6),
        };
        cpi.offsets.extend([vec![], with_capacity(9, &[0, 1, 2]), vec![0, 1]]);
        cpi.data.extend([vec![], vec![VertexId(1), VertexId(1)], with_capacity(3, &[VertexId(2)])]);
        let cpi_bytes = bytes(&cpi.parent)
            + bytes(&cpi.offsets)
            + cpi.offsets.iter().map(bytes).sum::<usize>()
            + bytes(&cpi.data)
            + cpi.data.iter().map(bytes).sum::<usize>();
        assert_eq!(plain.with_cpi(cpi).heap_size(), expected + cpi_bytes);
    }

    #[test]
    fn matching_order_permutation() {
        let o = MatchingOrder::new(vec![VertexId(2), VertexId(0), VertexId(1)]);
        assert_eq!(o.len(), 3);
        assert_eq!(o.as_slice()[0], VertexId(2));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn matching_order_rejects_duplicates() {
        MatchingOrder::new(vec![VertexId(0), VertexId(0)]);
    }
}
