//! Complete candidate vertex sets (Definition III.1) and the CPI auxiliary
//! structure.

use std::cell::Cell;

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
///
/// The CFL filter hands the sets and bitmap rows it worked on to the space
/// instead of copying them out; a dropped space gives its buffers back to
/// the filter scratch of the thread it drops on
/// ([`cfl::reclaim`](crate::cfl)), so a warm filter call allocates neither.
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

    /// Takes over candidate sets whose membership bitmaps the filter already
    /// maintained: `bits` holds one `row_words`-word row per set, bit `v` of
    /// row `u` set iff `v ∈ sets[u]`. Rows are cut to the candidate universe
    /// in place, not re-derived.
    pub(crate) fn from_bitmap_rows(
        sets: Vec<Vec<VertexId>>,
        mut bits: Vec<u64>,
        row_words: usize,
    ) -> Self {
        let words_per_set = Self::words_for(&sets);
        debug_assert!(words_per_set <= row_words && sets.len() * row_words <= bits.len());
        for u in 1..sets.len() {
            bits.copy_within(u * row_words..u * row_words + words_per_set, u * words_per_set);
        }
        bits.truncate(sets.len() * words_per_set);
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

    /// The membership bitmap of `Φ(u)`: bit `v` is set iff `v ∈ Φ(u)`.
    /// `ceil(universe / 64)` words, the universe being one past the largest
    /// candidate id in any set.
    #[inline]
    pub(crate) fn row(&self, u: VertexId) -> &[u64] {
        &self.bits[u.index() * self.words_per_set..][..self.words_per_set]
    }

    /// Heap bytes of the membership bitmaps alone (for accounting tests).
    pub fn bitmap_bytes(&self) -> usize {
        std::mem::size_of_val(self.bits.as_slice())
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

/// Bytes in use, not bytes reserved: the sets and rows may sit in buffers the
/// filter scratch grew for a larger pair, and the size Table VII reports is
/// the structure's, not the allocator's.
impl HeapSize for CandidateSpace {
    fn heap_size(&self) -> usize {
        use std::mem::size_of_val;
        /// One `Vec` header per slot plus every inner vector's elements.
        fn nested<T>(vs: &[Vec<T>]) -> usize {
            size_of_val(vs) + vs.iter().map(|v| size_of_val(v.as_slice())).sum::<usize>()
        }
        let cpi = self
            .cpi
            .as_ref()
            .map_or(0, |c| size_of_val(c.parent.as_slice()) + nested(&c.offsets) + nested(&c.data));
        nested(&self.sets) + self.bitmap_bytes() + cpi
    }
}

impl Drop for CandidateSpace {
    fn drop(&mut self) {
        crate::cfl::reclaim(std::mem::take(&mut self.sets), std::mem::take(&mut self.bits));
    }
}

/// A matching order: a permutation of the query vertices along which the
/// enumerator extends partial embeddings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchingOrder {
    order: Vec<VertexId>,
}

thread_local! {
    /// The buffer of the order this thread dropped last, for the next one.
    static ORDER_BUFFER: Cell<Vec<VertexId>> = const { Cell::new(Vec::new()) };
}

impl Drop for MatchingOrder {
    fn drop(&mut self) {
        let _ = ORDER_BUFFER.try_with(|b| b.set(std::mem::take(&mut self.order)));
    }
}

impl MatchingOrder {
    /// An empty vector to build an order in: the buffer of the order this
    /// thread dropped last, so computing one order per (query, graph) pair
    /// allocates nothing once a buffer has grown to the largest query.
    pub(crate) fn buffer() -> Vec<VertexId> {
        let mut buffer = ORDER_BUFFER.with(Cell::take);
        buffer.clear();
        buffer
    }

    /// Wraps an order; debug-asserts it is a permutation.
    pub fn new(order: Vec<VertexId>) -> Self {
        // Pairwise, so that the check does not allocate.
        debug_assert!(
            order
                .iter()
                .enumerate()
                .all(|(i, v)| v.index() < order.len() && !order[..i].contains(v)),
            "not a permutation"
        );
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

    /// Every element in use is counted once — a header per set, the ids, the
    /// bitmap words, the CPI arrays — and spare capacity is not: a space
    /// sitting in the filter scratch's buffers reports what an exact-size
    /// copy would.
    #[test]
    fn heap_size_is_the_bytes_in_use() {
        use std::mem::size_of;
        fn with_capacity<T: Copy>(capacity: usize, items: &[T]) -> Vec<T> {
            let mut v = Vec::with_capacity(capacity);
            v.extend_from_slice(items);
            v
        }
        let sets = || vec![vec![VertexId(0), VertexId(70)], vec![VertexId(1)], vec![VertexId(2)]];
        // Ids up to 70: two bitmap words for each of the three rows.
        let expected =
            3 * size_of::<Vec<VertexId>>() + 4 * size_of::<VertexId>() + 3 * 2 * size_of::<u64>();
        let plain = CandidateSpace::new(sets());
        assert_eq!(plain.bitmap_bytes(), 3 * 2 * size_of::<u64>());
        assert_eq!(plain.heap_size(), expected);

        // The same space in oversized buffers with five-word rows, as the
        // filter hands it over.
        let mut roomy = Vec::with_capacity(5);
        roomy.extend(sets().into_iter().map(|s| with_capacity(9, &s)));
        let mut bits = with_capacity(40, &[0u64; 15]);
        for (u, set) in roomy.iter().enumerate() {
            for v in set {
                bits[u * 5 + v.index() / 64] |= 1 << (v.index() % 64);
            }
        }
        let handed = CandidateSpace::from_bitmap_rows(roomy, bits, 5);
        assert_eq!(handed.heap_size(), expected);
        assert_eq!(handed.sets(), plain.sets());
        for u in 0..3 {
            assert_eq!(handed.row(VertexId(u)), plain.row(VertexId(u)));
        }

        let cpi = Cpi {
            root: VertexId(0),
            parent: with_capacity(4, &[None, Some(VertexId(0)), Some(VertexId(1))]),
            offsets: vec![vec![], with_capacity(9, &[0, 1, 2]), vec![0, 1]],
            data: vec![vec![], vec![VertexId(1), VertexId(1)], with_capacity(3, &[VertexId(2)])],
        };
        let cpi_bytes = 3 * size_of::<Option<VertexId>>()
            + 3 * size_of::<Vec<u32>>()
            + 5 * size_of::<u32>()
            + 3 * size_of::<Vec<VertexId>>()
            + 3 * size_of::<VertexId>();
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
