//! CFL (Bi et al., SIGMOD 2016) subgraph matching.
//!
//! *Filter* (the preprocessing phase used as the vcFV filter, §III-B):
//!
//! 1. pick the BFS root `r = argmin |C_init(u)| / d(u)` (rare, high-degree
//!    vertices first);
//! 2. build the query BFS tree `q_t`;
//! 3. **top-down generation**: `Φ(u)`, in BFS order, is every `L(u)`-labeled
//!    data vertex adjacent to a candidate of the tree parent that passes the
//!    degree test, *backward pruning* over non-tree edges to already-generated
//!    query vertices, and NLF dominance. The vertices are *pushed* from the
//!    parent's candidates or *pulled* from the label class, whichever of the
//!    two is the smaller walk ([`PULL_RATIO`]);
//! 4. **bottom-up refinement** then a second **top-down refinement**: drop
//!    `v ∈ Φ(u)` whenever a query neighbor `u'` below (resp. above) `u` has
//!    `N(v) ∩ Φ(u') = ∅`. The top-down pass skips a neighbor `Φ(u)` was
//!    generated against whose set has lost nothing since;
//! 5. materialize the **CPI** — per tree edge, the adjacency between parent
//!    and child candidates — giving the `O(|V(q)| × |E(G)|)` auxiliary
//!    structure whose size Table VII reports.
//!
//! Every `Φ(u)` is mirrored by a bitmap row, so where the data vertex `v` in
//! hand has an [adjacency row](sqp_graph::AdjacencyRows) — looked up once
//! per vertex, not per test — `N(v) ∩ Φ(u') ≠ ∅` is `adj(v) & Φ(u') ≠ 0` a
//! word at a time, and NLF dominance is first the one-subtraction compare of
//! the row's [packed signature](sqp_graph::nlf::packed) against the query
//! vertex's: a reject always, an accept where the packing lost nothing, the
//! run merge otherwise. A vertex without a row walks its label run and
//! merges runs, as every vertex did before the rows existed. The sets and
//! rows of a surviving pair are handed to the [`CandidateSpace`], not copied
//! out, and come back when it drops ([`reclaim`]).
//!
//! *Verify* (the enumeration phase): the **path-based order** — decompose
//! `q_t` into root-to-leaf paths, estimate each path's embedding count by
//! dynamic programming over the CPI, and order paths ascending by estimate
//! with paths touching the query's *core* (2-core) first, postponing the
//! forest and leaves (the "postponed Cartesian products" idea).
//!
//! Filter complexity: time `O(|E(q)| × |E(G)|)`, space `O(|V(q)| × |E(G)|)`.

use std::cell::RefCell;

use sqp_graph::algo::{two_core, BfsTree};
use sqp_graph::nlf::{self, PackedNlf};
use sqp_graph::{AdjacencyRows, Graph, VertexId};

use crate::candidates::{CandidateSpace, Cpi, FilterResult, MatchingOrder};
use crate::deadline::{Deadline, TickChecker, Timeout};
use crate::embedding::Embedding;
use crate::enumerate::enumerate_in_order;
use crate::obs::{Phase, Span};
use crate::Matcher;

/// Which refinement passes run after top-down generation. All configurations
/// are sound; fewer passes mean larger candidate sets. Exposed for the
/// `ablation_refinement` bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CflConfig {
    /// Run the bottom-up refinement pass.
    pub bottom_up: bool,
    /// Run the second top-down refinement pass.
    pub top_down: bool,
}

impl Default for CflConfig {
    fn default() -> Self {
        Self { bottom_up: true, top_down: true }
    }
}

/// The CFL matcher.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cfl {
    config: CflConfig,
}

/// Word index and mask of data vertex `v` in a membership bitmap row.
#[inline]
fn bit(v: VertexId) -> (usize, u64) {
    (v.index() / 64, 1u64 << (v.index() % 64))
}

#[inline]
fn row_contains(row: &[u64], v: VertexId) -> bool {
    let (word, mask) = bit(v);
    row[word] & mask != 0
}

/// The query vertex `u` a generation step builds `Φ(u)` for, with its packed
/// NLF signature: computed once per filter call, when the step starts.
#[derive(Clone, Copy)]
struct Target {
    u: VertexId,
    nlf: PackedNlf,
}

impl Target {
    fn new(q: &Graph, g: &Graph, u: VertexId) -> Self {
        let nlf = PackedNlf::new(q.label_runs(u), q.label_space().max(g.label_space()));
        Self { u, nlf }
    }
}

/// The candidate sets `Φ(u)` under construction, each mirrored by a
/// membership bitmap so `v ∈ Φ(u)` is one probe.
#[derive(Default)]
struct Phi {
    /// Per query vertex; sorted once generated.
    sets: Vec<Vec<VertexId>>,
    /// Set buffers a larger earlier query grew: `sets` holds exactly one
    /// per query vertex, because the candidate space takes it whole.
    spare: Vec<Vec<VertexId>>,
    /// One `words`-word row per query vertex. Invariant: bit `v` of row `u`
    /// is set iff `v ∈ sets[u]`.
    bits: Vec<u64>,
    /// Words per bitmap row: `ceil(|V(G)| / 64)`, the length of an adjacency
    /// row of `G`.
    words: usize,
    /// Per query vertex, whether refinement has dropped a candidate from
    /// `Φ(u)` since it was generated. Reset where refinement starts: a pair
    /// pruned before that never pays for it.
    shrunk: Vec<bool>,
}

impl Phi {
    fn reset(&mut self, query_vertices: usize, data_vertices: usize) {
        let Self { sets, spare, .. } = self;
        spare.extend(sets.drain(query_vertices.min(sets.len())..));
        sets.resize_with(query_vertices, || spare.pop().unwrap_or_default());
        sets.iter_mut().for_each(Vec::clear);
        self.words = data_vertices.div_ceil(64);
        self.bits.clear();
        self.bits.resize(query_vertices * self.words, 0);
    }

    fn row(&self, u: VertexId) -> &[u64] {
        &self.bits[u.index() * self.words..][..self.words]
    }

    /// Sets the bitmap row of the freshly generated `Φ(u)`.
    fn mark(&mut self, u: VertexId) {
        let row = &mut self.bits[u.index() * self.words..][..self.words];
        for &v in &self.sets[u.index()] {
            let (word, mask) = bit(v);
            row[word] |= mask;
        }
    }

    /// Whether `N(v) ∩ Φ(w) ≠ ∅` for every `w` of `nbrs`: `adj & Φ(w) ≠ 0`
    /// per word when `v` has the adjacency row `adj`, else one bitmap probe
    /// per `L(w)`-neighbor of `v`.
    #[inline]
    fn has_candidate_neighbors(
        &self,
        q: &Graph,
        g: &Graph,
        v: VertexId,
        adj: Option<&[u64]>,
        nbrs: &[VertexId],
    ) -> bool {
        match adj {
            Some(adj) => nbrs.iter().all(|&w| adj.iter().zip(self.row(w)).any(|(a, r)| a & r != 0)),
            None => nbrs.iter().all(|&w| {
                let row = self.row(w);
                g.neighbors_with_label(v, q.label(w)).iter().any(|&n| row_contains(row, n))
            }),
        }
    }

    /// Whether generation admits `v` into `Φ(u)`: the degree test, a
    /// neighbor in `Φ(w)` for every `w` of `nbrs` (generated query neighbors
    /// of `u`), NLF dominance — by the packed signature first where `v` has
    /// an adjacency row, and by it alone where that is exact.
    #[inline]
    fn admits(
        &self,
        q: &Graph,
        g: &Graph,
        rows: &AdjacencyRows,
        target: Target,
        v: VertexId,
        nbrs: &[VertexId],
    ) -> bool {
        if g.degree(v) < q.degree(target.u) {
            return false;
        }
        let merged = || nlf::runs_dominated(q.label_runs(target.u), g.label_runs(v));
        match rows.row(v) {
            Some(row) => {
                target.nlf.dominated_by(rows.signature(row), merged)
                    && self.has_candidate_neighbors(q, g, v, Some(rows.words(row)), nbrs)
            }
            None => self.has_candidate_neighbors(q, g, v, None, nbrs) && merged(),
        }
    }

    /// Drops every `v ∈ Φ(u)` with `N(v) ∩ Φ(w) = ∅` for some `w` of `nbrs`
    /// (query neighbors of `u`), clearing its bit. Returns whether `Φ(u)` is
    /// still non-empty.
    fn refine(&mut self, q: &Graph, g: &Graph, u: VertexId, nbrs: &[VertexId]) -> bool {
        if nbrs.is_empty() {
            return true;
        }
        let rows = g.adjacency_rows();
        let mut set = std::mem::take(&mut self.sets[u.index()]);
        let row = u.index() * self.words;
        let mut kept = 0;
        for i in 0..set.len() {
            let v = set[i];
            let adj = rows.row(v).map(|r| rows.words(r));
            if self.has_candidate_neighbors(q, g, v, adj, nbrs) {
                set[kept] = v;
                kept += 1;
            } else {
                let (word, mask) = bit(v);
                self.bits[row + word] &= !mask;
            }
        }
        self.shrunk[u.index()] |= kept < set.len();
        set.truncate(kept);
        self.sets[u.index()] = set;
        kept > 0
    }
}

/// Working memory of one filter call, kept per thread so a database scan
/// (one call per data graph, most of them pruned) allocates nothing once the
/// buffers have grown to the largest pair seen.
///
/// Nothing is carried from one call to the next: every field is
/// re-initialised before a call reads it, whatever the previous call —
/// pruned, timed out or unwound by a panic — left behind.
#[derive(Default)]
struct FilterScratch {
    tree: BfsTree,
    /// Per query vertex, its position in BFS visit order: the step that
    /// generates its set.
    step: Vec<u32>,
    phi: Phi,
    /// Per data vertex, the generation step whose push last visited it.
    stamp: Vec<u32>,
    /// The query neighbors the current step checks against (backward, below
    /// or above the current query vertex).
    nbrs: Vec<VertexId>,
    /// One tree edge's concatenated CPI lists, before they are copied out at
    /// their exact size.
    cpi_data: Vec<VertexId>,
}

thread_local! {
    static SCRATCH: RefCell<FilterScratch> = RefCell::new(FilterScratch::default());
}

/// Gives the set and row buffers of a dropped [`CandidateSpace`] to this
/// thread's filter scratch, if it is without — it is after handing its own
/// to a space, the usual case being this very one. A space that drops on
/// another thread, during a filter call or at thread exit just frees them,
/// and the scratch that made it grows new ones.
pub(crate) fn reclaim(sets: Vec<Vec<VertexId>>, bits: Vec<u64>) {
    let _ = SCRATCH.try_with(|scratch| {
        if let Ok(mut scratch) = scratch.try_borrow_mut() {
            let phi = &mut scratch.phi;
            if phi.sets.capacity() == 0 {
                phi.sets = sets;
            }
            if phi.bits.capacity() == 0 {
                phi.bits = bits;
            }
        }
    });
}

/// Top-down generation *pulls* `Φ(u)` out of the label class `V_L(u)(G)`
/// when the class is at most this many times `|Φ(parent(u))|`, and otherwise
/// *pushes* it out of the parent's candidates. A pull tests each label-mate
/// once, in id order; a push looks up one label run per parent candidate,
/// visits every neighbor in it through the stamp array and sorts what it
/// kept, so it pays off only when the parent's candidates are few beside the
/// class. Not an option: `benches/calibration.rs` measures the crossover
/// (`results/BENCH_calibration.json`) and is why this is visible at all.
#[doc(hidden)]
pub const PULL_RATIO: usize = 2;

/// The direction rule of top-down generation.
fn pulls(label_mates: usize, parent_candidates: usize) -> bool {
    label_mates <= PULL_RATIO * parent_candidates
}

impl FilterScratch {
    /// Resets the scratch for `(q, g)`, generates the root's candidates and
    /// builds the BFS tree. Whether the root has a candidate.
    fn start(&mut self, q: &Graph, g: &Graph) -> bool {
        let Self { tree, step, phi, stamp, .. } = self;
        let Some(root) = Cfl::choose_root(q, g) else {
            return false;
        };
        phi.reset(q.vertex_count(), g.vertex_count());

        // Root candidates (label + degree + NLF) *before* building the BFS
        // tree: on non-candidate graphs — the overwhelming majority in a
        // database scan — the filter exits here, which is what gives CFL's
        // filter its edge over GraphQL's (§IV-B2).
        let (rows, target) = (g.adjacency_rows(), Target::new(q, g, root));
        let mut set = std::mem::take(&mut phi.sets[root.index()]);
        let label_mates = g.vertices_with_label(q.label(root));
        set.extend(label_mates.iter().copied().filter(|&v| phi.admits(q, g, rows, target, v, &[])));
        phi.sets[root.index()] = set;
        if phi.sets[root.index()].is_empty() {
            return false;
        }
        phi.mark(root);
        tree.rebuild(q, root);
        step.clear();
        step.resize(q.vertex_count(), 0);
        for (i, &u) in tree.order().iter().enumerate() {
            step[u.index()] = i as u32;
        }
        stamp.clear();
        stamp.resize(g.vertex_count(), 0);
        true
    }

    /// Top-down generation of every non-root set, in BFS order; each is
    /// pulled if `pull(|V_L(u)(G)|, |Φ(parent(u))|)` says so, else pushed.
    /// Whether every set came out non-empty.
    fn generate(
        &mut self,
        q: &Graph,
        g: &Graph,
        pull: impl Fn(usize, usize) -> bool,
        ticker: &mut TickChecker,
        deadline: Deadline,
    ) -> Result<bool, Timeout> {
        let Self { tree, step, phi, stamp, nbrs, .. } = self;
        for (i, &u) in tree.order().iter().enumerate().skip(1) {
            let i = i as u32;
            let parent = tree.parent(u);
            // The tree parent, then the backward non-tree neighbors: the
            // ones already generated.
            nbrs.clear();
            nbrs.push(parent);
            nbrs.extend(
                q.neighbors(u).iter().copied().filter(|&w| w != parent && step[w.index()] < i),
            );
            let label_mates = g.vertices_with_label(q.label(u));
            let (rows, target) = (g.adjacency_rows(), Target::new(q, g, u));
            let mut set = std::mem::take(&mut phi.sets[u.index()]);
            if pull(label_mates.len(), phi.sets[parent.index()].len()) {
                // In id order, each label-mate once: the set comes out
                // sorted, without the stamp array.
                for &v in label_mates {
                    ticker.tick(deadline)?;
                    if phi.admits(q, g, rows, target, v, nbrs) {
                        set.push(v);
                    }
                }
            } else {
                // A neighbor of a parent candidate needs no test against the
                // parent; the stamp array dedups the ones several share.
                for &vp in &phi.sets[parent.index()] {
                    ticker.tick(deadline)?;
                    for &v in g.neighbors_with_label(vp, q.label(u)) {
                        if stamp[v.index()] != i {
                            stamp[v.index()] = i;
                            if phi.admits(q, g, rows, target, v, &nbrs[1..]) {
                                set.push(v);
                            }
                        }
                    }
                }
                set.sort_unstable();
            }
            phi.sets[u.index()] = set;
            if phi.sets[u.index()].is_empty() {
                return Ok(false);
            }
            phi.mark(u);
        }
        Ok(true)
    }

    /// The refinement passes of `config`. Whether every set is still
    /// non-empty.
    fn refine(
        &mut self,
        config: CflConfig,
        q: &Graph,
        g: &Graph,
        ticker: &mut TickChecker,
        deadline: Deadline,
    ) -> Result<bool, Timeout> {
        let Self { tree, step, phi, nbrs, .. } = self;
        phi.shrunk.clear();
        phi.shrunk.resize(q.vertex_count(), false);
        // Bottom-up: neighbors strictly below.
        if config.bottom_up {
            for level in (0..tree.depth().saturating_sub(1)).rev() {
                for &u in tree.level_vertices(level) {
                    ticker.tick(deadline)?;
                    let lu = tree.level(u);
                    nbrs.clear();
                    nbrs.extend(q.neighbors(u).iter().copied().filter(|&w| tree.level(w) > lu));
                    if !phi.refine(q, g, u, nbrs) {
                        return Ok(false);
                    }
                }
            }
        }
        // Top-down: neighbors at the same or an upper level. Generation
        // already tested `Φ(u)` against every neighbor generated before `u`:
        // each `v` it kept had a neighbor in that `Φ(w)`, and `Φ(u)` has only
        // shrunk since, so the test can fail only if `Φ(w)` has shrunk too.
        if config.top_down {
            for &u in &tree.order()[1..] {
                ticker.tick(deadline)?;
                let (lu, iu) = (tree.level(u), step[u.index()]);
                nbrs.clear();
                nbrs.extend(q.neighbors(u).iter().copied().filter(|&w| {
                    tree.level(w) <= lu && (step[w.index()] > iu || phi.shrunk[w.index()])
                }));
                if !phi.refine(q, g, u, nbrs) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

/// Top-down generation alone, every set in one forced direction: the total
/// number of candidates, `None` when a set came out empty. For
/// `benches/calibration.rs`, which times the two directions against each
/// other; the filter itself picks per query vertex by [`PULL_RATIO`].
#[doc(hidden)]
pub fn generation_probe(q: &Graph, g: &Graph, pull: bool) -> Option<usize> {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let generated = scratch.start(q, g)
            && scratch.generate(q, g, |_, _| pull, &mut TickChecker::new(), Deadline::none())
                == Ok(true);
        generated.then(|| scratch.phi.sets.iter().map(Vec::len).sum())
    })
}

impl Cfl {
    /// CFL with both refinement passes (the published algorithm).
    pub fn new() -> Self {
        Self::default()
    }

    /// CFL with a custom refinement configuration (ablations).
    pub fn with_config(config: CflConfig) -> Self {
        Self { config }
    }

    /// Root selection: the first minimum of `|C_init(u)| / d(u)`, compared
    /// as `f·d' < f'·d`. `None` as soon as some query label does not occur
    /// in `g` at all: no candidate set for that vertex can be non-empty.
    fn choose_root(q: &Graph, g: &Graph) -> Option<VertexId> {
        let mut best: Option<(VertexId, u64, u64)> = None;
        for u in q.vertices() {
            let f = g.label_frequency(q.label(u)) as u64;
            if f == 0 {
                return None;
            }
            let d = q.degree(u).max(1) as u64;
            if best.is_none_or(|(_, bf, bd)| f * bd < bf * d) {
                best = Some((u, f, d));
            }
        }
        best.map(|(u, _, _)| u)
    }

    /// The full CFL filter on this thread's scratch. `with_cpi` also
    /// materializes the CPI, which only CFL's own path-based order reads.
    pub(crate) fn filter_space(
        &self,
        q: &Graph,
        g: &Graph,
        deadline: Deadline,
        with_cpi: bool,
    ) -> Result<FilterResult, Timeout> {
        deadline.check_entry()?;
        let space = SCRATCH.with(|scratch| {
            self.build_space(&mut scratch.borrow_mut(), q, g, deadline, with_cpi)
        })?;
        Ok(space.map_or(FilterResult::Pruned, FilterResult::Space))
    }

    fn build_space(
        &self,
        scratch: &mut FilterScratch,
        q: &Graph,
        g: &Graph,
        deadline: Deadline,
        with_cpi: bool,
    ) -> Result<Option<CandidateSpace>, Timeout> {
        let mut ticker = TickChecker::new();
        let mut filter_span = Span::enter(Phase::Filter, deadline);
        if !(scratch.start(q, g)
            && scratch.generate(q, g, pulls, &mut ticker, deadline)?
            && scratch.refine(self.config, q, g, &mut ticker, deadline)?)
        {
            return Ok(None); // early vcFV pruning
        }
        let FilterScratch { tree, phi, cpi_data, .. } = scratch;
        let sets = &phi.sets;
        filter_span.add_items(sets.iter().map(|s| s.len() as u64).sum());
        drop(filter_span);

        let _build_span = Span::enter(Phase::BuildCandidates, deadline);
        // For CFL's own order, the CPI along tree edges, copied out at its
        // exact size while the scratch still holds the sets.
        let cpi = with_cpi.then(|| {
            let root = tree.root();
            let mut cpi = Cpi {
                root,
                parent: vec![None; q.vertex_count()],
                offsets: vec![Vec::new(); q.vertex_count()],
                data: vec![Vec::new(); q.vertex_count()],
            };
            for u in q.vertices().filter(|&u| u != root) {
                let p = tree.parent(u);
                cpi.parent[u.index()] = Some(p);
                let lu = q.label(u);
                let row = phi.row(u);
                let parent_set = &sets[p.index()];
                let mut offsets = Vec::with_capacity(parent_set.len() + 1);
                cpi_data.clear();
                offsets.push(0u32);
                for &vp in parent_set {
                    cpi_data.extend(
                        g.neighbors_with_label(vp, lu)
                            .iter()
                            .copied()
                            .filter(|&v| row_contains(row, v)),
                    );
                    offsets.push(cpi_data.len() as u32);
                }
                cpi.offsets[u.index()] = offsets;
                cpi.data[u.index()] = cpi_data.clone();
            }
            cpi
        });
        // The sorted sets and their bitmap rows leave the scratch with the
        // space and come back when it drops (`reclaim`).
        let space = CandidateSpace::from_bitmap_rows(
            std::mem::take(&mut phi.sets),
            std::mem::take(&mut phi.bits),
            phi.words,
        );
        Ok(Some(match cpi {
            Some(cpi) => space.with_cpi(cpi),
            None => space,
        }))
    }

    /// The path-based matching order (core paths first, ascending estimated
    /// cardinality). Rebuilds the BFS tree from the CPI's recorded root.
    pub fn path_order(q: &Graph, space: &CandidateSpace) -> MatchingOrder {
        let root = space.cpi().map_or_else(|| VertexId(0), |c| c.root);
        let tree = BfsTree::build(q, root);
        Self::path_order_with_tree(q, space, &tree)
    }

    fn path_order_with_tree(q: &Graph, space: &CandidateSpace, tree: &BfsTree) -> MatchingOrder {
        let root = tree.root();
        // Root-to-leaf paths in children order.
        let mut paths: Vec<Vec<VertexId>> = Vec::new();
        let mut stack = vec![(root, vec![root])];
        while let Some((u, path)) = stack.pop() {
            let kids = tree.children(u);
            if kids.is_empty() {
                paths.push(path);
            } else {
                for &c in kids {
                    let mut p = path.clone();
                    p.push(c);
                    stack.push((c, p));
                }
            }
        }

        // Per-path embedding-count estimate: DP over the CPI restricted to
        // the path, from its leaf up to the root (CFL §5: number of data
        // paths matching the query path). Without a CPI, fall back to the
        // product of candidate-set sizes.
        let estimate = |path: &[VertexId]| -> f64 {
            match space.cpi() {
                Some(cpi) => {
                    let leaf = *path.last().expect("non-empty path");
                    let mut cnt: Vec<f64> = vec![1.0; space.set(leaf).len()];
                    for w in path.windows(2).rev() {
                        let (u, c) = (w[0], w[1]);
                        let child_set = space.set(c);
                        cnt = (0..cpi.list_count(c))
                            .map(|i| {
                                cpi.list(c, i)
                                    .iter()
                                    .map(|v| {
                                        let j = child_set.binary_search(v).expect("CPI ⊆ Φ");
                                        cnt[j]
                                    })
                                    .sum()
                            })
                            .collect();
                        debug_assert_eq!(cnt.len(), space.set(u).len());
                    }
                    cnt.iter().sum()
                }
                None => path.iter().map(|&v| space.set(v).len() as f64).product(),
            }
        };

        // Core paths first (postponing the forest/leaves), ascending by
        // estimated cardinality.
        let core = two_core(q);
        let in_core = {
            let mut m = vec![false; q.vertex_count()];
            for &v in &core {
                m[v.index()] = true;
            }
            m
        };
        let mut keyed: Vec<(bool, f64, usize, Vec<VertexId>)> = paths
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let touches_core = p.iter().any(|&v| in_core[v.index()]);
                let est = estimate(&p);
                (!touches_core, est, i, p)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));

        // Concatenate paths, skipping vertices already placed.
        let mut placed = vec![false; q.vertex_count()];
        let mut order = Vec::with_capacity(q.vertex_count());
        for (_, _, _, path) in keyed {
            for v in path {
                if !placed[v.index()] {
                    placed[v.index()] = true;
                    order.push(v);
                }
            }
        }
        MatchingOrder::new(order)
    }
}

impl Matcher for Cfl {
    fn name(&self) -> &'static str {
        "CFL"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        self.filter_space(q, g, deadline, true)
    }

    fn enumerate(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        limit: u64,
        deadline: Deadline,
        on_match: &mut dyn FnMut(&Embedding),
    ) -> Result<u64, Timeout> {
        enumerate_in_order(q, g, space, || Self::path_order(q, space), limit, deadline, on_match)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::cfql::Cfql;
    use crate::StatsSink;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sqp_graph::{GraphBuilder, Label};

    const CONFIGS: [CflConfig; 4] = [
        CflConfig { bottom_up: true, top_down: true },
        CflConfig { bottom_up: true, top_down: false },
        CflConfig { bottom_up: false, top_down: true },
        CflConfig { bottom_up: false, top_down: false },
    ];

    /// A copy of `g` with every vertex relabeled by `label`.
    fn relabeled(g: &Graph, label: impl Fn(VertexId) -> Label) -> GraphBuilder {
        let mut b = GraphBuilder::new();
        for v in g.vertices() {
            b.add_vertex(label(v));
        }
        for v in g.vertices() {
            for &w in g.neighbors(v).iter().filter(|&&w| v < w) {
                b.add_edge(v, w).unwrap();
            }
        }
        b
    }

    /// `spokes` random neighbors for each of the first `hubs` vertices, on
    /// top of a sparse random graph: a few very long adjacency lists.
    fn hub_heavy(rng: &mut StdRng, n: usize, hubs: usize, spokes: usize, labels: u32) -> Graph {
        let base = brute::random_graph(rng, n, n, labels);
        let mut b = relabeled(&base, |v| base.label(v));
        for hub in 0..hubs {
            for _ in 0..spokes {
                let w = rng.random_range(0..n);
                if w != hub {
                    let _ = b.add_edge(VertexId::from(hub), VertexId::from(w));
                }
            }
        }
        b.build()
    }

    /// `q` with vertex 0 relabeled to a label `g` does not have (beyond its
    /// label space when `beyond`, else a gap inside it).
    fn with_absent_label(q: &Graph, g: &Graph, beyond: bool) -> Graph {
        let absent = if beyond {
            Label(g.label_space() as u32 + 3)
        } else {
            (0..).map(Label).find(|&l| g.label_frequency(l) == 0).unwrap()
        };
        relabeled(q, |v| if v.index() == 0 { absent } else { q.label(v) }).build()
    }

    /// The data graph of one differential case and the query to filter
    /// against it. Queries are carved from a *sibling* graph of the same
    /// family, so some embed, some are pruned at the root, some mid-way.
    fn differential_case(family: u32, seed: u64) -> (Graph, Graph) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pair = |rng: &mut StdRng, make: &dyn Fn(&mut StdRng) -> Graph| {
            let g = make(rng);
            let sibling = if rng.random_bool(0.5) { make(rng) } else { g.clone() };
            let edges = rng.random_range(1..9);
            (brute::random_connected_query(rng, &sibling, edges), g)
        };
        match family {
            // Sparse, many labels: most pairs prune early.
            0 => pair(&mut rng, &|r| brute::random_graph(r, 30, 45, 5)),
            // The dense benchmark shape: 3 labels, average degree 16.
            1 => pair(&mut rng, &|r| brute::random_graph(r, 100, 800, 3)),
            // Hub-heavy: two vertices adjacent to most of the graph.
            2 => pair(&mut rng, &|r| hub_heavy(r, 70, 2, 60, 3)),
            // Dense, and every label in nibble 3 of the packed signature
            // (3, 19, 35; label space 36): the packed compare is nearly blind
            // and never exact, so the run merge decides behind it.
            4 => pair(&mut rng, &|r| {
                let base = brute::random_graph(r, 60, 500, 3);
                relabeled(&base, |v| Label(3 + 16 * base.label(v).0)).build()
            }),
            // A query label the data graph lacks: label 1 never occurs in
            // `g` (a gap inside its label space), or the label is beyond it.
            _ => {
                let relabel = |r: &mut StdRng| {
                    let base = brute::random_graph(r, 24, 40, 3);
                    relabeled(&base, |v| Label(base.label(v).0 * 2)).build()
                };
                let (q, g) = pair(&mut rng, &relabel);
                (with_absent_label(&q, &g, rng.random_bool(0.5)), g)
            }
        }
    }

    fn filter_sets(matcher: &dyn Matcher, q: &Graph, g: &Graph) -> Option<Vec<Vec<VertexId>>> {
        matcher.filter(q, g, Deadline::none()).unwrap().space().map(|s| s.sets().to_vec())
    }

    /// The candidate sets of the filter's three stages run on a fresh
    /// scratch, `direction` standing in for the direction rule.
    fn staged_sets(
        config: CflConfig,
        q: &Graph,
        g: &Graph,
        direction: impl Fn(usize, usize) -> bool,
    ) -> Option<Vec<Vec<VertexId>>> {
        let mut scratch = FilterScratch::default();
        let (mut ticker, deadline) = (TickChecker::new(), Deadline::none());
        let kept = scratch.start(q, g)
            && scratch.generate(q, g, direction, &mut ticker, deadline).unwrap()
            && scratch.refine(config, q, g, &mut ticker, deadline).unwrap();
        kept.then(|| scratch.phi.sets.clone())
    }

    /// How many sets the direction rule pushes and pulls on `(q, g)`.
    fn rule_choices(q: &Graph, g: &Graph) -> (u32, u32) {
        let (pushed, pulled) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        staged_sets(CflConfig::default(), q, g, |label_mates, parent_candidates| {
            let pull = pulls(label_mates, parent_candidates);
            let count = if pull { &pulled } else { &pushed };
            count.set(count.get() + 1);
            pull
        });
        (pushed.get(), pulled.get())
    }

    proptest! {
        /// The rewritten filter against the pre-rewrite one, on every graph
        /// family and every refinement configuration: same pruning verdict,
        /// identical candidate sets, bitmap ≡ sorted sets, CSR CPI ≡ the
        /// nested CPI ≡ `N(Φ(p)[i], L(c)) ∩ Φ(c)`; CFQL's space is CFL's
        /// without the CPI.
        #[test]
        fn filter_matches_reference(family in 0u32..5, seed in any::<u64>()) {
            let (q, g) = differential_case(family, seed);
            for config in CONFIGS {
                let expected = reference::build_space(config, &q, &g);
                let got = Cfl::with_config(config).filter(&q, &g, Deadline::none()).unwrap();
                prop_assert_eq!(expected.is_none(), got.is_pruned(), "{:?}", config);
                let (Some(expected), Some(space)) = (expected, got.space()) else {
                    continue;
                };
                prop_assert_eq!(space.sets(), &expected.sets[..], "{:?}", config);
                for u in q.vertices() {
                    for v in g.vertices() {
                        prop_assert_eq!(space.contains(u, v), space.contains_search(u, v));
                    }
                }
                let cpi = space.cpi().unwrap();
                prop_assert_eq!(cpi.root, expected.root);
                prop_assert_eq!(&cpi.parent, &expected.parent);
                for c in q.vertices() {
                    prop_assert_eq!(cpi.list_count(c), expected.adj[c.index()].len());
                    for (i, list) in expected.adj[c.index()].iter().enumerate() {
                        prop_assert_eq!(cpi.list(c, i), &list[..]);
                        let vp = space.set(cpi.parent[c.index()].unwrap())[i];
                        let by_definition: Vec<VertexId> = g
                            .neighbors_with_label(vp, q.label(c))
                            .iter()
                            .copied()
                            .filter(|v| space.set(c).contains(v))
                            .collect();
                        prop_assert_eq!(cpi.list(c, i), &by_definition[..]);
                    }
                }
            }
            let cfql = Cfql::new().filter(&q, &g, Deadline::none()).unwrap();
            let expected = reference::build_space(CflConfig::default(), &q, &g);
            prop_assert_eq!(cfql.is_pruned(), expected.is_none());
            if let (Some(space), Some(expected)) = (cfql.space(), expected) {
                prop_assert!(space.cpi().is_none());
                prop_assert_eq!(space.sets(), &expected.sets[..]);
            }
        }

        /// Generation pushed everywhere ≡ pulled everywhere ≡ the reference
        /// (which pushes), whatever refinement follows: the direction rule
        /// chooses a cost, never a candidate.
        #[test]
        fn both_generation_directions_match_reference(family in 0u32..5, seed in any::<u64>()) {
            let (q, g) = differential_case(family, seed);
            for config in CONFIGS {
                let expected = reference::build_space(config, &q, &g).map(|e| e.sets);
                for pull in [false, true] {
                    let got = staged_sets(config, &q, &g, |_, _| pull);
                    prop_assert_eq!(&got, &expected, "{:?}, pull {}", config, pull);
                }
            }
        }

        /// The integer root comparison picks the vertex the `f64` ratio did,
        /// and reports a label miss exactly when that vertex has no
        /// label-mates in `g`.
        #[test]
        fn root_choice_matches_reference(family in 0u32..5, seed in any::<u64>()) {
            let (q, g) = differential_case(family, seed);
            let expected = reference::choose_root(&q, &g);
            match Cfl::choose_root(&q, &g) {
                Some(root) => prop_assert_eq!(root, expected),
                None => prop_assert_eq!(g.label_frequency(q.label(expected)), 0),
            }
        }

        /// Scratch hygiene: big → small → big pairs filtered back to back on
        /// one thread give what each gives on a thread of its own.
        #[test]
        fn reused_scratch_equals_fresh_thread(seed in any::<u64>()) {
            let cases = [
                differential_case(1, seed),
                differential_case(0, seed ^ 1),
                differential_case(3, seed ^ 2),
                differential_case(2, seed ^ 3),
                differential_case(1, seed ^ 4),
            ];
            let reused: Vec<_> = std::thread::scope(|s| {
                s.spawn(|| cases.iter().map(|(q, g)| filter_sets(&Cfl::new(), q, g)).collect())
                    .join()
                    .unwrap()
            });
            for ((q, g), reused) in cases.iter().zip(reused) {
                let fresh = std::thread::scope(|s| {
                    s.spawn(|| filter_sets(&Cfl::new(), q, g)).join().unwrap()
                });
                prop_assert_eq!(reused, fresh);
            }
        }
    }

    thread_local! {
        static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A span clock that panics on its second read of each thread — inside
    /// `build_space`, when the filter span closes over a fully generated and
    /// refined scratch — and ticks normally before and after.
    fn clock_panicking_on_second_read() -> u64 {
        let reads = CLOCK_READS.with(|c| {
            c.set(c.get() + 1);
            c.get()
        });
        assert!(reads != 2, "injected clock panic");
        reads
    }

    #[test]
    fn scratch_survives_a_panic_mid_call() {
        let (q, g) = (0..)
            .map(|seed| differential_case(1, seed))
            .find(|(q, g)| reference::build_space(CflConfig::default(), q, g).is_some())
            .unwrap();
        let (q2, g2) = differential_case(2, 9);
        std::thread::scope(|s| {
            s.spawn(|| {
                let deadline = Deadline::none()
                    .with_stats(StatsSink::with_clock(clock_panicking_on_second_read));
                let unwound = std::panic::catch_unwind(|| Cfl::new().filter(&q, &g, deadline));
                assert!(unwound.is_err(), "the injected panic must unwind the filter call");
                for (q, g) in [(&q, &g), (&q2, &g2)] {
                    let expected = reference::build_space(CflConfig::default(), q, g);
                    assert_eq!(filter_sets(&Cfl::new(), q, g), expected.map(|e| e.sets));
                }
            });
        });
    }

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

    /// Neither direction is dead code under the differential proptests: on
    /// their corpus the rule pulls on the dense three-label family and
    /// pushes somewhere in the sparse and the hub-heavy ones.
    #[test]
    fn the_direction_rule_takes_both_directions_on_the_differential_corpus() {
        let choices = |family| {
            (0..64).map(|seed| differential_case(family, seed)).fold((0, 0), |sum, (q, g)| {
                let (pushed, pulled) = rule_choices(&q, &g);
                (sum.0 + pushed, sum.1 + pulled)
            })
        };
        let (sparse, dense, hubs) = (choices(0), choices(1), choices(2));
        assert!(dense.1 > 0, "dense: (pushed, pulled) = {dense:?}");
        assert!(sparse.0 > 0, "sparse: (pushed, pulled) = {sparse:?}");
        assert!(hubs.0 > 0, "hub-heavy: (pushed, pulled) = {hubs:?}");
    }

    /// Bottom-up refinement takes a candidate out of the root's set, so the
    /// top-down pass must test the root's children against it again although
    /// they were generated from it.
    #[test]
    fn top_down_refinement_rechecks_against_a_set_bottom_up_shrank() {
        // Query: r(0) - a(1) - c(3), r - b(2); labels R, A, B, C = 0, 1, 2, 3.
        let q = labeled(&[0, 1, 2, 3], &[(0, 1), (0, 2), (1, 3)]);
        // r1(0) - a1(1) - c1(2), r1 - b1(3): the embedding. r2(4) - a2(5),
        // r2 - b2(6): a2 has no C neighbor, so r2 is generated (it has an A
        // and a B neighbor) and b2 after it, but a2 is not.
        let g = labeled(&[0, 1, 3, 2, 0, 1, 2], &[(0, 1), (1, 2), (0, 3), (4, 5), (4, 6)]);
        let (r, b) = (VertexId(0), VertexId(2));
        let sets = |bottom_up, top_down| {
            filter_sets(&Cfl::with_config(CflConfig { bottom_up, top_down }), &q, &g).unwrap()
        };
        let generated = sets(false, false);
        assert_eq!(generated[r.index()], [VertexId(0), VertexId(4)]);
        assert_eq!(generated[b.index()], [VertexId(3), VertexId(6)]);
        // Bottom-up drops r2: no neighbor in Φ(a). Only the top-down pass
        // after it can drop b2, whose one R neighbor r2 was.
        let bottom_up = sets(true, false);
        assert_eq!(bottom_up[r.index()], [VertexId(0)]);
        assert_eq!(bottom_up[b.index()], [VertexId(3), VertexId(6)]);
        // Without bottom-up nothing has shrunk and the pass has nothing to do.
        assert_eq!(sets(false, true), generated);
        let refined = sets(true, true);
        assert_eq!(refined[b.index()], [VertexId(3)]);
        assert_eq!(
            Some(refined),
            reference::build_space(CflConfig::default(), &q, &g).map(|e| e.sets)
        );
    }

    /// A step budget that runs out in the middle of a pull (one tick per
    /// label-mate) takes the half-built set with it; the next calls on the
    /// thread filter as on a fresh one.
    #[test]
    fn scratch_survives_a_budget_expiring_mid_pull() {
        // A one-label ring: Φ(root) is every vertex, so the other endpoint
        // of the edge query is pulled, and the first tick interval ends
        // inside that walk.
        let n = 5_000u32;
        let ring =
            labeled(&vec![0; n as usize], &(0..n).map(|v| (v, (v + 1) % n)).collect::<Vec<_>>());
        let edge = labeled(&[0, 0], &[(0, 1)]);
        assert_eq!(rule_choices(&edge, &ring), (0, 1));
        let others = [differential_case(1, 11), differential_case(2, 12), differential_case(0, 13)];
        std::thread::scope(|s| {
            s.spawn(|| {
                let guard = crate::ResourceGuard::new();
                guard.reset(crate::ResourceLimits::unlimited().with_max_steps(1));
                let deadline = Deadline::none().with_guard(guard);
                assert_eq!(Cfl::new().filter(&edge, &ring, deadline).err(), Some(Timeout));
                assert!(guard.tripped().is_some());
                for (q, g) in others.iter().chain([(edge.clone(), ring.clone())].iter()) {
                    let expected = reference::build_space(CflConfig::default(), q, g);
                    assert_eq!(filter_sets(&Cfl::new(), q, g), expected.map(|e| e.sets));
                }
            });
        });
    }

    #[test]
    fn filter_is_complete() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..40 {
            let g = brute::random_graph(&mut rng, 9, 15, 3);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let oracle = brute::enumerate_all(&q, &g);
            match Cfl::new().filter(&q, &g, Deadline::none()).unwrap() {
                FilterResult::Pruned => {
                    assert!(oracle.is_empty(), "trial {trial}: pruned with embeddings");
                }
                FilterResult::Space(space) => {
                    assert!(space.is_complete_for(&oracle), "trial {trial}");
                    assert!(space.cpi().is_some());
                }
            }
        }
    }

    #[test]
    fn counts_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(32);
        let cfl = Cfl::new();
        for trial in 0..50 {
            let g = brute::random_graph(&mut rng, 9, 16, 3);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let expected = brute::enumerate_all(&q, &g).len() as u64;
            let got = cfl.count(&q, &g, u64::MAX, Deadline::none()).unwrap();
            assert_eq!(got, expected, "trial {trial}");
        }
    }

    #[test]
    fn ablation_configs_sound() {
        let mut rng = StdRng::seed_from_u64(33);
        let configs = [
            CflConfig { bottom_up: false, top_down: false },
            CflConfig { bottom_up: true, top_down: false },
            CflConfig { bottom_up: false, top_down: true },
        ];
        for _ in 0..20 {
            let g = brute::random_graph(&mut rng, 8, 12, 3);
            let q = brute::random_connected_query(&mut rng, &g, 3);
            let expected = brute::is_subgraph(&q, &g);
            for cfg in configs {
                assert_eq!(
                    Cfl::with_config(cfg).is_subgraph(&q, &g, Deadline::none()).unwrap(),
                    expected
                );
            }
        }
    }

    #[test]
    fn refinement_shrinks_candidates() {
        let mut rng = StdRng::seed_from_u64(34);
        let mut refined_total = 0usize;
        let mut raw_total = 0usize;
        for _ in 0..30 {
            let g = brute::random_graph(&mut rng, 12, 24, 2);
            let q = brute::random_connected_query(&mut rng, &g, 4);
            let raw = Cfl::with_config(CflConfig { bottom_up: false, top_down: false })
                .filter(&q, &g, Deadline::none())
                .unwrap();
            let refined = Cfl::new().filter(&q, &g, Deadline::none()).unwrap();
            if let (FilterResult::Space(a), FilterResult::Space(b)) = (raw, refined) {
                raw_total += a.total_candidates();
                refined_total += b.total_candidates();
            }
        }
        assert!(refined_total <= raw_total);
    }

    #[test]
    fn cpi_lists_are_subsets_of_candidates() {
        let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let g = labeled(&[0, 1, 2, 1, 2], &[(0, 1), (1, 2), (0, 3), (3, 4)]);
        let space = Cfl::new().filter(&q, &g, Deadline::none()).unwrap().space().unwrap();
        let cpi = space.cpi().unwrap();
        for u in q.vertices() {
            for i in 0..cpi.list_count(u) {
                for v in cpi.list(u, i) {
                    assert!(space.contains(u, *v));
                }
            }
        }
    }

    #[test]
    fn path_order_places_connected_prefixes() {
        let mut rng = StdRng::seed_from_u64(35);
        for _ in 0..20 {
            let g = brute::random_graph(&mut rng, 10, 18, 3);
            let q = brute::random_connected_query(&mut rng, &g, 5);
            if let FilterResult::Space(space) = Cfl::new().filter(&q, &g, Deadline::none()).unwrap()
            {
                let order = Cfl::path_order(&q, &space);
                let seq = order.as_slice();
                for (i, &u) in seq.iter().enumerate().skip(1) {
                    assert!(
                        q.neighbors(u).iter().any(|w| seq[..i].contains(w)),
                        "vertex {u:?} disconnected from prefix"
                    );
                }
            }
        }
    }

    #[test]
    fn root_prefers_rare_high_degree() {
        // Data graph: many label-0, one label-7. Query: 7 connected to 0s.
        let g = labeled(&[0, 0, 0, 7, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let q = labeled(&[0, 7, 0], &[(0, 1), (1, 2)]);
        let root = Cfl::choose_root(&q, &g).unwrap();
        assert_eq!(q.label(root), sqp_graph::Label(7));
        // A query label the data graph lacks prunes before any root is chosen.
        let absent = labeled(&[0, 9, 0], &[(0, 1), (1, 2)]);
        assert_eq!(Cfl::choose_root(&absent, &g), None);
    }

    #[test]
    fn tree_query_has_no_core() {
        // A star query is a forest: the order must still be connected and
        // complete (core-first ordering degenerates gracefully).
        let q = labeled(&[0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]);
        let g = labeled(&[0, 1, 1, 1, 1], &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let space = Cfl::new().filter(&q, &g, Deadline::none()).unwrap().space().unwrap();
        let order = Cfl::path_order(&q, &space);
        assert_eq!(order.len(), 4);
        // 4 leaves choose 3 ordered slots: 4·3·2 = 24 embeddings.
        assert_eq!(Cfl::new().count(&q, &g, u64::MAX, Deadline::none()).unwrap(), 24);
    }

    #[test]
    fn single_vertex_query() {
        let q = labeled(&[1], &[]);
        let g = labeled(&[0, 1, 1], &[(0, 1), (0, 2)]);
        assert_eq!(Cfl::new().count(&q, &g, u64::MAX, Deadline::none()).unwrap(), 2);
    }

    #[test]
    fn cpi_parent_structure_matches_bfs_tree() {
        let q = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let g = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let space = Cfl::new().filter(&q, &g, Deadline::none()).unwrap().space().unwrap();
        let cpi = space.cpi().unwrap();
        // Exactly one root (parent == None) and n-1 child entries.
        let roots = cpi.parent.iter().filter(|p| p.is_none()).count();
        assert_eq!(roots, 1);
        assert!(cpi.parent[cpi.root.index()].is_none());
        for u in q.vertices() {
            if u != cpi.root {
                let p = cpi.parent[u.index()].unwrap();
                assert!(q.has_edge(u, p));
                assert_eq!(cpi.list_count(u), space.set(p).len());
            }
        }
    }

    #[test]
    fn pruned_graph_has_no_embedding() {
        // Query needs a label the data graph lacks in the right shape.
        let q = labeled(&[0, 1, 1], &[(0, 1), (0, 2)]);
        let g = labeled(&[0, 1], &[(0, 1)]);
        assert!(Cfl::new().filter(&q, &g, Deadline::none()).unwrap().is_pruned());
    }
}
