//! Deterministic fault injection for the fault-tolerant execution layer.
//!
//! [`ChaosMatcher`] wraps any [`Matcher`] and injects one of three faults —
//! a panic, a simulated wall-clock timeout, or a tripped resource budget —
//! on a deterministic subset of (query, graph) pairs. The fault decision is
//! a pure function of the configured seed and *structural fingerprints* of
//! the query and data graph, so:
//!
//! * the same (seed, query, graph) always faults the same way, at every
//!   thread count and in any execution order (the basis of the chaos suite's
//!   invariant I5 checks);
//! * tests can ask [`ChaosMatcher::planned_fault`] which pairs will fault
//!   without running anything.
//!
//! Faults are injected in the *filter* phase — the first matcher call a
//! (query, graph) pair reaches, sequential or parallel — so an injected
//! fault is observed exactly once per pair per run.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sqp_graph::hash::FxHasher;
use sqp_graph::Graph;
use sqp_matching::{
    CandidateSpace, Deadline, Embedding, FilterResult, Matcher, ResourceKind, Timeout,
};

/// Which fault to inject on a (query, graph) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` inside the matcher call (tests per-query panic isolation).
    Panic,
    /// Return `Err(Timeout)` as if the wall clock expired mid-filter.
    Timeout,
    /// Trip the deadline's [`ExecCtx`](sqp_matching::ExecCtx)
    /// (steps budget) and return `Err(Timeout)`, as a runaway enumeration
    /// stopped by its step budget would.
    Exhaust,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Timeout => write!(f, "timeout"),
            FaultKind::Exhaust => write!(f, "exhaust"),
        }
    }
}

/// Fault-injection configuration. Rates are in per-mille (‰) of (query,
/// graph) pairs; the three rates are disjoint slices of the same hash space,
/// so their sum must stay ≤ 1000.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    /// Fraction of pairs that panic, in per-mille.
    pub panic_per_mille: u32,
    /// Fraction of pairs that fake a timeout, in per-mille.
    pub timeout_per_mille: u32,
    /// Fraction of pairs that trip a resource budget, in per-mille.
    pub exhaust_per_mille: u32,
}

impl ChaosConfig {
    /// A configuration with the given seed and no faults.
    pub fn new(seed: u64) -> Self {
        Self { seed, panic_per_mille: 0, timeout_per_mille: 0, exhaust_per_mille: 0 }
    }

    /// Sets the panic rate (per-mille of pairs).
    pub fn with_panics(mut self, per_mille: u32) -> Self {
        self.panic_per_mille = per_mille;
        self
    }

    /// Sets the fake-timeout rate (per-mille of pairs).
    pub fn with_timeouts(mut self, per_mille: u32) -> Self {
        self.timeout_per_mille = per_mille;
        self
    }

    /// Sets the resource-exhaustion rate (per-mille of pairs).
    pub fn with_exhaustion(mut self, per_mille: u32) -> Self {
        self.exhaust_per_mille = per_mille;
        self
    }

    fn total_per_mille(&self) -> u32 {
        self.panic_per_mille + self.timeout_per_mille + self.exhaust_per_mille
    }
}

/// Structural fingerprint of a graph: a hash of its labels and adjacency,
/// independent of where the graph lives in memory or in a database.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h = FxHasher::default();
    g.vertex_count().hash(&mut h);
    g.edge_count().hash(&mut h);
    for v in g.vertices() {
        g.label(v).0.hash(&mut h);
        for &u in g.neighbors(v) {
            u.0.hash(&mut h);
        }
        u32::MAX.hash(&mut h); // separator
    }
    h.finish()
}

/// A fault-injecting wrapper around any [`Matcher`].
///
/// See the [module docs](self) for the determinism guarantees.
pub struct ChaosMatcher {
    inner: Arc<dyn Matcher>,
    config: ChaosConfig,
}

impl ChaosMatcher {
    /// Wraps `inner` with the given fault configuration.
    pub fn new(inner: Arc<dyn Matcher>, config: ChaosConfig) -> Self {
        assert!(
            config.total_per_mille() <= 1000,
            "chaos fault rates exceed 1000 per mille: {config:?}"
        );
        Self { inner, config }
    }

    /// The deterministic per-pair fault key.
    fn fault_key(&self, q: &Graph, g: &Graph) -> u64 {
        let mut h = FxHasher::default();
        self.config.seed.hash(&mut h);
        graph_fingerprint(q).hash(&mut h);
        graph_fingerprint(g).hash(&mut h);
        h.finish()
    }

    /// Which fault (if any) this wrapper will inject on the (q, g) pair —
    /// a pure function of (seed, q, g), usable by tests to predict the fault
    /// set without running a query.
    pub fn planned_fault(&self, q: &Graph, g: &Graph) -> Option<FaultKind> {
        let slot = (self.fault_key(q, g) % 1000) as u32;
        if slot < self.config.panic_per_mille {
            Some(FaultKind::Panic)
        } else if slot < self.config.panic_per_mille + self.config.timeout_per_mille {
            Some(FaultKind::Timeout)
        } else if slot < self.config.total_per_mille() {
            Some(FaultKind::Exhaust)
        } else {
            None
        }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> ChaosConfig {
        self.config
    }
}

impl Matcher for ChaosMatcher {
    fn name(&self) -> &'static str {
        "Chaos"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        match self.planned_fault(q, g) {
            Some(FaultKind::Panic) => {
                panic!("chaos: injected panic (key {:016x})", self.fault_key(q, g));
            }
            Some(FaultKind::Timeout) => Err(Timeout),
            Some(FaultKind::Exhaust) => {
                // Trip the shared guard exactly as a blown step budget would,
                // then surface the interrupt through the normal error path.
                deadline.ctx().trip(ResourceKind::Steps);
                Err(Timeout)
            }
            None => self.inner.filter(q, g, deadline),
        }
    }

    fn find_first(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        deadline: Deadline,
    ) -> Result<Option<Embedding>, Timeout> {
        self.inner.find_first(q, g, space, deadline)
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
        self.inner.enumerate(q, g, space, limit, deadline, on_match)
    }
}

// ---------------------------------------------------------------------------
// Overload / flappy-graph scenario generators for the serving layer
// ---------------------------------------------------------------------------

/// Configuration of a [`FlappyMatcher`] scenario: which graphs flap and for
/// how long.
#[derive(Clone, Copy, Debug)]
pub struct FlappyConfig {
    /// Seed mixed into the flappy-graph selection.
    pub seed: u64,
    /// Fraction of data graphs that flap, in per-mille of the fingerprint
    /// hash space.
    pub flappy_per_mille: u32,
    /// A flappy graph panics on its first this-many matcher probes, then
    /// heals permanently — the transient-fault shape circuit breakers must
    /// trip on, probe, and recover from.
    pub faults_before_heal: u32,
}

/// The breaker-lifecycle scenario generator: deterministic *flappy* graphs.
///
/// A flappy graph (selected by seed + structural fingerprint, like
/// [`ChaosMatcher`]'s faults) panics on its first
/// [`faults_before_heal`](FlappyConfig::faults_before_heal) filter probes
/// and then behaves normally. Because a quarantined graph never reaches the
/// matcher, the per-graph probe counter advances only on real probes — so
/// with breakers in front, the counter doubles as a check that open
/// breakers short-circuit (see [`probes`](FlappyMatcher::probes)).
///
/// Intended for single-submitter serving tests with retries disabled; each
/// admitted query probes each unmasked graph exactly once, keeping the
/// fault schedule deterministic at every worker thread count (panics never
/// interrupt the scan).
pub struct FlappyMatcher {
    inner: Arc<dyn Matcher>,
    config: FlappyConfig,
    probes: std::sync::Mutex<std::collections::HashMap<u64, u32>>,
}

impl FlappyMatcher {
    /// Wraps `inner` with the given flap schedule.
    pub fn new(inner: Arc<dyn Matcher>, config: FlappyConfig) -> Self {
        assert!(config.flappy_per_mille <= 1000, "flappy rate exceeds 1000 per mille");
        Self { inner, config, probes: std::sync::Mutex::new(std::collections::HashMap::new()) }
    }

    fn flap_key(&self, g: &Graph) -> u64 {
        let mut h = FxHasher::default();
        self.config.seed.hash(&mut h);
        graph_fingerprint(g).hash(&mut h);
        h.finish()
    }

    /// Whether this data graph is on the flap schedule — a pure function of
    /// (seed, graph structure), so tests can predict the flappy set.
    pub fn is_flappy(&self, g: &Graph) -> bool {
        ((self.flap_key(g) % 1000) as u32) < self.config.flappy_per_mille
    }

    /// How many times the matcher has actually been probed with this data
    /// graph (across all queries). Quarantined graphs are short-circuited
    /// before the matcher, so their count stands still while their breaker
    /// is open.
    pub fn probes(&self, g: &Graph) -> u32 {
        self.probes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&graph_fingerprint(g))
            .copied()
            .unwrap_or(0)
    }
}

impl Matcher for FlappyMatcher {
    fn name(&self) -> &'static str {
        "Flappy"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        let n = {
            let mut probes = self.probes.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let n = probes.entry(graph_fingerprint(g)).or_insert(0);
            *n += 1;
            *n
        };
        if self.is_flappy(g) && n <= self.config.faults_before_heal {
            panic!("chaos: flappy fault {n}/{}", self.config.faults_before_heal);
        }
        self.inner.filter(q, g, deadline)
    }

    fn find_first(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        deadline: Deadline,
    ) -> Result<Option<Embedding>, Timeout> {
        self.inner.find_first(q, g, space, deadline)
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
        self.inner.enumerate(q, g, space, limit, deadline, on_match)
    }
}

/// The overload scenario generator: a matcher that sleeps `delay` per
/// filter call, making each query slow enough for work to pile up in the
/// admission queue — the load shape behind queue-full shedding and
/// drain-under-load tests.
pub struct SlowMatcher {
    inner: Arc<dyn Matcher>,
    delay: std::time::Duration,
}

impl SlowMatcher {
    /// Wraps `inner`, sleeping `delay` before every filter call.
    pub fn new(inner: Arc<dyn Matcher>, delay: std::time::Duration) -> Self {
        Self { inner, delay }
    }
}

impl Matcher for SlowMatcher {
    fn name(&self) -> &'static str {
        "Slow"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        // Sleep in deadline-check slices so cancellation stays prompt.
        let mut left = self.delay;
        let slice = std::time::Duration::from_millis(1);
        while !left.is_zero() {
            deadline.check()?;
            let step = left.min(slice);
            std::thread::sleep(step);
            left -= step;
        }
        deadline.check()?;
        self.inner.filter(q, g, deadline)
    }

    fn find_first(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        deadline: Deadline,
    ) -> Result<Option<Embedding>, Timeout> {
        self.inner.find_first(q, g, space, deadline)
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
        self.inner.enumerate(q, g, space, limit, deadline, on_match)
    }
}

/// The wedge scenario generator: a matcher that, on the single
/// `(query, graph)` pair whose [`graph_fingerprint`]s match its targets,
/// spins **without ever ticking the deadline** — the exact failure mode
/// cooperative cancellation cannot handle and the supervisor exists for.
/// Every other pair delegates to the wrapped matcher, so queries that do
/// not hit the wedge pair are untouched (the I8 comparison relies on this).
///
/// The wedge holds until [`release`](StuckMatcher::release_handle) is set
/// (tests flip it during teardown so abandoned threads can exit) or the
/// process ends.
pub struct StuckMatcher {
    inner: Arc<dyn Matcher>,
    q_target: u64,
    g_target: u64,
    release: Arc<std::sync::atomic::AtomicBool>,
}

impl StuckMatcher {
    /// Wraps `inner`, wedging on the query fingerprinted `q_target` when it
    /// filters the data graph fingerprinted `g_target`.
    pub fn new(inner: Arc<dyn Matcher>, q_target: u64, g_target: u64) -> Self {
        Self {
            inner,
            q_target,
            g_target,
            release: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        }
    }

    /// The release latch: storing `true` lets every wedged call return
    /// (as [`FilterResult::Pruned`]).
    pub fn release_handle(&self) -> Arc<std::sync::atomic::AtomicBool> {
        Arc::clone(&self.release)
    }
}

impl Matcher for StuckMatcher {
    fn name(&self) -> &'static str {
        "Stuck"
    }

    fn filter(&self, q: &Graph, g: &Graph, deadline: Deadline) -> Result<FilterResult, Timeout> {
        if graph_fingerprint(q) == self.q_target && graph_fingerprint(g) == self.g_target {
            // Deliberately no deadline.check(): no heartbeat, no
            // cancellation. Sleep in slices only to stay polite to the CPU.
            while !self.release.load(std::sync::atomic::Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            return Ok(FilterResult::Pruned);
        }
        self.inner.filter(q, g, deadline)
    }

    fn find_first(
        &self,
        q: &Graph,
        g: &Graph,
        space: &CandidateSpace,
        deadline: Deadline,
    ) -> Result<Option<Embedding>, Timeout> {
        self.inner.find_first(q, g, space, deadline)
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
        self.inner.enumerate(q, g, space, limit, deadline, on_match)
    }
}

/// Deterministic torn-write injection for journal chaos: returns `bytes`
/// truncated to a seed-derived length in `[0, bytes.len()]`, simulating the
/// arbitrary cut a crash mid-append leaves behind. Pure function of
/// `(seed, bytes.len())`.
pub fn torn_tail(bytes: &[u8], seed: u64) -> &[u8] {
    let mut h = FxHasher::default();
    seed.hash(&mut h);
    bytes.len().hash(&mut h);
    let cut = (h.finish() % (bytes.len() as u64 + 1)) as usize;
    &bytes[..cut]
}

// ---------------------------------------------------------------------------
// Update-stream scenario generator for the dynamic-graph layer
// ---------------------------------------------------------------------------

use sqp_graph::{Label, Update, VertexId};

/// Shape of a generated update stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamProfile {
    /// Adds, removals and occasional duplicate-edge no-ops in balance.
    Mixed,
    /// Mostly vertex/edge additions (growth workload).
    AddHeavy,
    /// Mostly edge/vertex removals (shrink workload).
    RemoveHeavy,
    /// Add-then-remove of the *same* element inside one batch, plus
    /// re-adds after tombstoning — the batch-simulation edge cases.
    Churn,
}

/// Deterministic generator of *valid* update batches against a mirrored
/// graph state, seeded like [`ChaosMatcher`] so the same
/// `(seed, base graph, profile)` always yields the same stream at every
/// thread count.
///
/// The generator maintains its own mirror of the overlay (labels, liveness,
/// edge set, slot count) and advances it as it emits each op, so every batch
/// it returns is accepted by
/// [`DynamicGraph::apply_batch`](sqp_graph::DynamicGraph::apply_batch) —
/// including intentionally tricky-but-legal cases: duplicate edge adds
/// (no-ops), edges referencing vertices added earlier in the same batch, and
/// re-adding a tombstoned slot's label as a fresh vertex.
/// [`malformed_batches`](Self::malformed_batches) produces the complementary
/// *invalid* cases, each of which must fail closed.
#[derive(Clone, Debug)]
pub struct UpdateStreamGen {
    state: u64,
    profile: StreamProfile,
    labels: Vec<Label>,      // per slot; grows with AddVertex
    alive: Vec<bool>,        // per slot
    live: Vec<VertexId>,     // pickable list of live slots
    live_at: Vec<u32>,       // per slot: its position in `live` while alive
    dead_labels: Vec<Label>, // labels of tombstoned slots, for re-adds
    edges: EdgeMirror,
    label_pool: Vec<Label>,
}

fn norm(u: VertexId, v: VertexId) -> (u32, u32) {
    if u.0 <= v.0 {
        (u.0, v.0)
    } else {
        (v.0, u.0)
    }
}

/// The mirror's edge set, addressable by rank in `(min, max)` order (the
/// draw order of the streams) without walking it: per-vertex incident lists
/// plus a Fenwick tree over how many edges each vertex is the smaller
/// endpoint of.
#[derive(Clone, Debug, Default)]
struct EdgeMirror {
    /// `upper[a]`: ascending neighbors `b > a`. Concatenated over `a`, this
    /// is the edge set in sorted order.
    upper: Vec<Vec<u32>>,
    /// `lower[b]`: neighbors `a < b`, in no particular order.
    lower: Vec<Vec<u32>>,
    /// 1-based Fenwick tree over `upper[a].len()`; `tree[0]` is unused.
    tree: Vec<usize>,
    len: usize,
}

impl EdgeMirror {
    fn push_vertex(&mut self) {
        self.upper.push(Vec::new());
        self.lower.push(Vec::new());
        // Node `i` covers the `lowbit(i)` counts ending at `i`: the new
        // (zero) count plus the sub-ranges its predecessors already sum.
        let i = self.tree.len().max(1);
        let (mut j, mut sum) = (i - 1, 0);
        while j > i - (i & i.wrapping_neg()) {
            sum += self.tree[j];
            j -= j & j.wrapping_neg();
        }
        self.tree.resize(i, 0);
        self.tree.push(sum);
    }

    /// Records one edge more (or one fewer) with smaller endpoint `a`.
    fn count(&mut self, a: u32, add: bool) {
        let step = |n: usize| if add { n + 1 } else { n - 1 };
        let mut i = a as usize + 1;
        while i < self.tree.len() {
            self.tree[i] = step(self.tree[i]);
            i += i & i.wrapping_neg();
        }
        self.len = step(self.len);
    }

    fn contains(&self, (a, b): (u32, u32)) -> bool {
        self.upper[a as usize].binary_search(&b).is_ok()
    }

    /// Inserts a normalized edge; `false` if already present.
    fn insert(&mut self, (a, b): (u32, u32)) -> bool {
        let Err(at) = self.upper[a as usize].binary_search(&b) else { return false };
        self.upper[a as usize].insert(at, b);
        self.lower[b as usize].push(a);
        self.count(a, true);
        true
    }

    /// Removes a normalized edge; `false` if absent.
    fn remove(&mut self, (a, b): (u32, u32)) -> bool {
        let Ok(at) = self.upper[a as usize].binary_search(&b) else { return false };
        self.upper[a as usize].remove(at);
        self.lower[b as usize].retain(|&x| x != a);
        self.count(a, false);
        true
    }

    /// The `k`-th edge in `(min, max)` order.
    fn nth(&self, mut k: usize) -> Option<(u32, u32)> {
        if k >= self.len {
            return None;
        }
        let n = self.tree.len() - 1;
        let (mut a, mut step) = (0, n.next_power_of_two());
        while step > 0 {
            if a + step <= n && self.tree[a + step] <= k {
                a += step;
                k -= self.tree[a];
            }
            step >>= 1;
        }
        Some((a as u32, self.upper[a][k]))
    }

    /// Drops every edge incident to `v`.
    fn remove_vertex(&mut self, v: u32) {
        for b in std::mem::take(&mut self.upper[v as usize]) {
            self.lower[b as usize].retain(|&x| x != v);
            self.count(v, false);
        }
        for a in std::mem::take(&mut self.lower[v as usize]) {
            self.upper[a as usize].retain(|&x| x != v);
            self.count(a, false);
        }
    }
}

impl UpdateStreamGen {
    /// Mirrors `base` (all vertices live, no delta) with the given seed and
    /// profile. Seeding is mixed with the base graph's structural
    /// [`graph_fingerprint`], so distinct bases get distinct streams even
    /// under the same seed.
    pub fn new(base: &Graph, seed: u64, profile: StreamProfile) -> Self {
        let mut h = FxHasher::default();
        seed.hash(&mut h);
        graph_fingerprint(base).hash(&mut h);
        let labels: Vec<Label> = base.vertices().map(|v| base.label(v)).collect();
        let mut edges = EdgeMirror::default();
        for _ in base.vertices() {
            edges.push_vertex();
        }
        for u in base.vertices() {
            for &v in base.neighbors(u) {
                edges.insert(norm(u, v));
            }
        }
        let mut label_pool: Vec<Label> = labels.clone();
        label_pool.sort_unstable();
        label_pool.dedup();
        let fresh = label_pool.last().map_or(0, |l| l.0 + 1);
        label_pool.push(Label(fresh)); // one label unseen in the base
        Self {
            state: h.finish(),
            profile,
            live: base.vertices().collect(),
            live_at: (0..labels.len() as u32).collect(),
            alive: vec![true; labels.len()],
            labels,
            dead_labels: Vec::new(),
            edges,
            label_pool,
        }
    }

    fn next(&mut self) -> u64 {
        // splitmix64: full-period, seed-stable, no external dependency.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn roll(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next() % n as u64) as usize
    }

    /// Live vertices in the mirror.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Edges in the mirror.
    pub fn edge_count(&self) -> usize {
        self.edges.len
    }

    fn mirror_add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId(self.labels.len() as u32);
        self.labels.push(label);
        self.alive.push(true);
        self.live_at.push(self.live.len() as u32);
        self.live.push(id);
        self.edges.push_vertex();
        id
    }

    fn mirror_remove_vertex(&mut self, v: VertexId) {
        self.alive[v.index()] = false;
        let pos = self.live_at[v.index()] as usize;
        self.live.swap_remove(pos);
        if let Some(&moved) = self.live.get(pos) {
            self.live_at[moved.index()] = pos as u32;
        }
        self.dead_labels.push(self.labels[v.index()]);
        self.edges.remove_vertex(v.0);
    }

    fn gen_add_vertex(&mut self, out: &mut Vec<Update>) -> VertexId {
        // Prefer re-adding a tombstoned slot's label when one exists: the
        // id is never reused but the label returns, the re-add-after-
        // tombstone case the differential suite needs covered.
        let label = if !self.dead_labels.is_empty() && self.next().is_multiple_of(2) {
            let i = self.roll(self.dead_labels.len());
            self.dead_labels[i]
        } else {
            let i = self.roll(self.label_pool.len());
            self.label_pool[i]
        };
        out.push(Update::AddVertex { label });
        self.mirror_add_vertex(label)
    }

    fn gen_add_edge(&mut self, out: &mut Vec<Update>) -> Option<(VertexId, VertexId)> {
        if self.live.len() < 2 {
            return None;
        }
        for _ in 0..8 {
            let (i, j) = (self.roll(self.live.len()), self.roll(self.live.len()));
            let (u, v) = (self.live[i], self.live[j]);
            if u == v || !self.edges.insert(norm(u, v)) {
                continue;
            }
            out.push(Update::AddEdge { u, v });
            return Some((u, v));
        }
        None
    }

    fn gen_duplicate_edge(&mut self, out: &mut Vec<Update>) -> bool {
        if self.edges.len == 0 {
            return false;
        }
        let i = self.roll(self.edges.len);
        let Some((a, b)) = self.edges.nth(i) else { return false };
        // A legal no-op: AddEdge over a present edge applies as Ok(false).
        out.push(Update::AddEdge { u: VertexId(a), v: VertexId(b) });
        true
    }

    fn gen_remove_edge(&mut self, out: &mut Vec<Update>) -> bool {
        if self.edges.len == 0 {
            return false;
        }
        let i = self.roll(self.edges.len);
        let Some((a, b)) = self.edges.nth(i) else { return false };
        self.edges.remove((a, b));
        out.push(Update::RemoveEdge { u: VertexId(a), v: VertexId(b) });
        true
    }

    fn gen_remove_vertex(&mut self, out: &mut Vec<Update>) -> bool {
        if self.live.is_empty() {
            return false;
        }
        let i = self.roll(self.live.len());
        let v = self.live[i];
        self.mirror_remove_vertex(v);
        out.push(Update::RemoveVertex { vertex: v });
        true
    }

    /// Generates the next batch of at least `ops` updates (a paired churn
    /// step may add one more), advancing the mirror as if the batch were
    /// applied — which it must be, for the mirror to stay faithful.
    pub fn batch(&mut self, ops: usize) -> Vec<Update> {
        let mut out = Vec::with_capacity(ops);
        while out.len() < ops {
            match self.profile {
                StreamProfile::Churn => self.churn_step(&mut out),
                profile => {
                    let die = self.roll(100);
                    let (av, ae, re, dup) = match profile {
                        StreamProfile::Mixed => (15, 60, 85, 90),
                        StreamProfile::AddHeavy => (25, 90, 95, 100),
                        StreamProfile::RemoveHeavy => (5, 20, 65, 70),
                        StreamProfile::Churn => unreachable!(),
                    };
                    if die < av {
                        self.gen_add_vertex(&mut out);
                    } else if die < ae {
                        if self.gen_add_edge(&mut out).is_none() {
                            self.gen_add_vertex(&mut out);
                        }
                    } else if die < re {
                        if !self.gen_remove_edge(&mut out) {
                            self.gen_add_vertex(&mut out);
                        }
                    } else if die < dup {
                        if !self.gen_duplicate_edge(&mut out) {
                            self.gen_add_vertex(&mut out);
                        }
                    } else if !self.gen_remove_vertex(&mut out) {
                        self.gen_add_vertex(&mut out);
                    }
                }
            }
        }
        // A churn step may push two ops at the boundary; never truncate —
        // the mirror has already applied everything in `out`.
        out
    }

    /// One churn step: add-then-remove the same element within the batch.
    fn churn_step(&mut self, out: &mut Vec<Update>) {
        match self.roll(3) {
            0 => {
                // Add an edge and remove it again in the same batch.
                if let Some((u, v)) = self.gen_add_edge(out) {
                    self.edges.remove(norm(u, v));
                    out.push(Update::RemoveEdge { u, v });
                } else {
                    self.gen_add_vertex(out);
                }
            }
            1 => {
                // Add a vertex and tombstone it in the same batch.
                let v = self.gen_add_vertex(out);
                self.mirror_remove_vertex(v);
                out.push(Update::RemoveVertex { vertex: v });
            }
            _ => {
                // Remove an existing edge, then re-add it.
                if self.gen_remove_edge(out) {
                    if let Some(Update::RemoveEdge { u, v }) = out.last().copied() {
                        self.edges.insert(norm(u, v));
                        out.push(Update::AddEdge { u, v });
                    }
                } else {
                    self.gen_add_vertex(out);
                }
            }
        }
    }

    /// Malformed single-batch cases against the *current* mirror state.
    /// Every returned batch must be rejected atomically by
    /// `apply_batch` with a [`GraphError`](sqp_graph::GraphError) — never a
    /// panic — leaving the overlay untouched. The mirror does not advance.
    pub fn malformed_batches(&mut self) -> Vec<Vec<Update>> {
        let mut cases = Vec::new();
        let unknown = VertexId(self.labels.len() as u32 + 7);
        // Removing an edge that does not exist (dangling remove).
        if self.live.len() >= 2 {
            for _ in 0..16 {
                let (i, j) = (self.roll(self.live.len()), self.roll(self.live.len()));
                let (u, v) = (self.live[i], self.live[j]);
                if u != v && !self.edges.contains(norm(u, v)) {
                    cases.push(vec![Update::RemoveEdge { u, v }]);
                    break;
                }
            }
        }
        if let Some(&v) = self.live.first() {
            // Self loops are rejected.
            cases.push(vec![Update::AddEdge { u: v, v }]);
            // Unknown endpoint.
            cases.push(vec![Update::AddEdge { u: v, v: unknown }]);
            // Double-remove of the same vertex in one batch.
            cases
                .push(vec![Update::RemoveVertex { vertex: v }, Update::RemoveVertex { vertex: v }]);
        }
        // Unknown vertex removal.
        cases.push(vec![Update::RemoveVertex { vertex: unknown }]);
        // A label at the limit.
        cases.push(vec![Update::AddVertex { label: Label(Label::LIMIT) }]);
        // Operating on a tombstoned slot: ids are never reused.
        if let Some(i) = self.alive.iter().position(|&a| !a) {
            let dead = VertexId(i as u32);
            if let Some(&live) = self.live.first() {
                cases.push(vec![Update::AddEdge { u: dead, v: live }]);
            }
            cases.push(vec![Update::RemoveVertex { vertex: dead }]);
        }
        // Same-batch double-remove of one edge.
        if let Some((a, b)) = self.edges.nth(0) {
            cases.push(vec![
                Update::RemoveEdge { u: VertexId(a), v: VertexId(b) },
                Update::RemoveEdge { u: VertexId(a), v: VertexId(b) },
            ]);
        }
        cases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_graph::{GraphBuilder, Label, VertexId};
    use sqp_matching::cfql::Cfql;

    /// `stream_checksum` for seeds 1..=3 × {Mixed, AddHeavy, RemoveHeavy,
    /// Churn}, recorded from the `BTreeSet`-mirror generator of PR 10.
    const PINNED: [u64; 12] = [
        0xc2c9_8188_c9b3_384f,
        0x87a2_844c_5785_5611,
        0x5951_c400_4fbe_0217,
        0x805c_80f5_dc99_293b,
        0x50f6_ea37_e472_c5e0,
        0x8c20_ef57_2bcb_0f70,
        0xaf69_051b_de18_2a90,
        0x22bd_439e_e316_467b,
        0x161f_79aa_c44a_9dc6,
        0xc1b0_3d40_d90d_9b32,
        0xe7e4_a710_68e7_b736,
        0xbddd_4809_c1a6_edc9,
    ];

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

    fn chaos(config: ChaosConfig) -> ChaosMatcher {
        ChaosMatcher::new(Arc::new(Cfql::new()), config)
    }

    #[test]
    fn fingerprint_is_structural() {
        let a = labeled(&[0, 1], &[(0, 1)]);
        let b = labeled(&[0, 1], &[(0, 1)]);
        let c = labeled(&[0, 2], &[(0, 1)]);
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&c));
    }

    #[test]
    fn planned_faults_are_deterministic_and_seed_sensitive() {
        let graphs: Vec<Graph> =
            (0..50).map(|i| labeled(&[i % 5, (i + 1) % 5], &[(0, 1)])).collect();
        let q = labeled(&[0, 1], &[(0, 1)]);
        let m1 = chaos(ChaosConfig::new(42).with_panics(150).with_timeouts(150));
        let m2 = chaos(ChaosConfig::new(42).with_panics(150).with_timeouts(150));
        let m3 = chaos(ChaosConfig::new(43).with_panics(150).with_timeouts(150));
        let f1: Vec<_> = graphs.iter().map(|g| m1.planned_fault(&q, g)).collect();
        let f2: Vec<_> = graphs.iter().map(|g| m2.planned_fault(&q, g)).collect();
        let f3: Vec<_> = graphs.iter().map(|g| m3.planned_fault(&q, g)).collect();
        assert_eq!(f1, f2);
        assert_ne!(f1, f3, "different seeds should move the fault set");
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let m = chaos(ChaosConfig::new(7));
        let q = labeled(&[0, 1], &[(0, 1)]);
        let g = labeled(&[0, 1, 2], &[(0, 1), (1, 2)]);
        assert_eq!(m.planned_fault(&q, &g), None);
        assert!(m.filter(&q, &g, Deadline::none()).is_ok());
    }

    #[test]
    fn timeout_fault_surfaces_as_err() {
        // Rate 1000‰: every pair faults.
        let m = chaos(ChaosConfig::new(7).with_timeouts(1000));
        let q = labeled(&[0, 1], &[(0, 1)]);
        let g = labeled(&[0, 1], &[(0, 1)]);
        assert_eq!(m.planned_fault(&q, &g), Some(FaultKind::Timeout));
        assert!(matches!(m.filter(&q, &g, Deadline::none()), Err(Timeout)));
    }

    #[test]
    fn exhaust_fault_trips_the_guard() {
        use sqp_matching::{ExecCtx, ResourceLimits};
        let m = chaos(ChaosConfig::new(7).with_exhaustion(1000));
        let q = labeled(&[0, 1], &[(0, 1)]);
        let g = labeled(&[0, 1], &[(0, 1)]);
        let guard = ExecCtx::new();
        guard.arm(ResourceLimits::unlimited());
        let d = Deadline::none().with_ctx(guard);
        assert!(matches!(m.filter(&q, &g, d), Err(Timeout)));
        assert_eq!(guard.tripped(), Some(ResourceKind::Steps));
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic")]
    fn panic_fault_panics() {
        let m = chaos(ChaosConfig::new(7).with_panics(1000));
        let q = labeled(&[0, 1], &[(0, 1)]);
        let g = labeled(&[0, 1], &[(0, 1)]);
        let _ = m.filter(&q, &g, Deadline::none());
    }

    #[test]
    #[should_panic(expected = "fault rates exceed")]
    fn over_1000_per_mille_rejected() {
        let _ = chaos(ChaosConfig::new(7).with_panics(600).with_timeouts(600));
    }

    #[test]
    fn update_stream_is_deterministic_and_valid() {
        use sqp_graph::DynamicGraph;
        let base = labeled(&[0, 1, 0, 2, 1], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        for profile in [
            StreamProfile::Mixed,
            StreamProfile::AddHeavy,
            StreamProfile::RemoveHeavy,
            StreamProfile::Churn,
        ] {
            let mut a = UpdateStreamGen::new(&base, 99, profile);
            let mut b = UpdateStreamGen::new(&base, 99, profile);
            let mut g = DynamicGraph::new(base.clone());
            for round in 0..20 {
                let batch = a.batch(6);
                assert_eq!(batch, b.batch(6), "stream not deterministic ({profile:?})");
                let fx = g
                    .apply_batch(&batch)
                    .unwrap_or_else(|e| panic!("{profile:?} round {round}: {e}"));
                assert!(fx.applied <= batch.len());
                // Mirror stays faithful to the overlay.
                assert_eq!(g.live_vertex_count(), a.live_count(), "{profile:?} round {round}");
                assert_eq!(g.edge_count(), a.edge_count(), "{profile:?} round {round}");
            }
        }
    }

    /// Digest of a stream: 30 batches of 8 ops over a 40-vertex
    /// ring with chords, every op folded in order.
    fn stream_checksum(seed: u64, profile: StreamProfile) -> u64 {
        let edges: Vec<(u32, u32)> =
            (0..40).flat_map(|i| [(i, (i + 1) % 40), (i, (i + 7) % 40)]).collect();
        let labels: Vec<u32> = (0..40).map(|i| i % 4).collect();
        let mut gen = UpdateStreamGen::new(&labeled(&labels, &edges), seed, profile);
        let mut h = FxHasher::default();
        for up in (0..30).flat_map(|_| gen.batch(8)) {
            match up {
                Update::AddVertex { label } => (0u8, label.0, 0).hash(&mut h),
                Update::AddEdge { u, v } => (1u8, u.0, v.0).hash(&mut h),
                Update::RemoveEdge { u, v } => (2u8, u.0, v.0).hash(&mut h),
                Update::RemoveVertex { vertex } => (3u8, vertex.0, 0).hash(&mut h),
            }
        }
        h.finish()
    }

    /// The streams are part of the test suites' fixed inputs (seeds are
    /// pinned in tests/ and EXPERIMENTS.md): the mirror's data structures may
    /// change, the draws may not.
    #[test]
    fn update_streams_are_pinned_per_seed() {
        let profiles = [
            StreamProfile::Mixed,
            StreamProfile::AddHeavy,
            StreamProfile::RemoveHeavy,
            StreamProfile::Churn,
        ];
        let got: Vec<u64> = (1..=3)
            .flat_map(|seed| profiles.map(|profile| stream_checksum(seed, profile)))
            .collect();
        assert_eq!(got, PINNED, "got {got:#x?}");
    }

    #[test]
    fn different_seeds_diverge() {
        let base = labeled(&[0, 1, 0, 2], &[(0, 1), (1, 2), (2, 3)]);
        let mut a = UpdateStreamGen::new(&base, 1, StreamProfile::Mixed);
        let mut b = UpdateStreamGen::new(&base, 2, StreamProfile::Mixed);
        let sa: Vec<Vec<Update>> = (0..8).map(|_| a.batch(5)).collect();
        let sb: Vec<Vec<Update>> = (0..8).map(|_| b.batch(5)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn malformed_batches_fail_closed() {
        use sqp_graph::DynamicGraph;
        let base = labeled(&[0, 1, 0, 2, 1], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut gen = UpdateStreamGen::new(&base, 7, StreamProfile::Mixed);
        let mut g = DynamicGraph::new(base);
        // Advance a few rounds so tombstones exist, then try every
        // malformed case against the same state.
        for _ in 0..10 {
            g.apply_batch(&gen.batch(5)).unwrap();
        }
        let cases = gen.malformed_batches();
        assert!(cases.len() >= 5, "expected a full malformed case set, got {}", cases.len());
        for case in cases {
            let before = (g.live_vertex_count(), g.edge_count(), g.delta_ops());
            let err = g.apply_batch(&case).expect_err("malformed batch accepted");
            let _ = err.to_string(); // display must not panic
            let after = (g.live_vertex_count(), g.edge_count(), g.delta_ops());
            assert_eq!(before, after, "rejected batch mutated the overlay");
        }
    }

    #[test]
    fn rates_land_near_target() {
        // With 1000 distinct pairs and a 20% total rate, the injected count
        // should be within a loose band around 200.
        let graphs: Vec<Graph> = (0..1000)
            .map(|i| labeled(&[i % 7, (i + 1) % 7, (i + 3) % 7], &[(0, 1), (1, 2)]))
            .collect();
        // Distinct structures: vary edges too.
        let q = labeled(&[0, 1], &[(0, 1)]);
        let m =
            chaos(ChaosConfig::new(1234).with_panics(100).with_timeouts(50).with_exhaustion(50));
        let faulted = graphs.iter().filter(|g| m.planned_fault(&q, g).is_some()).count();
        // 21 distinct structures only (labels mod 7), so the count is coarse;
        // just require the mechanism neither fires always nor never.
        assert!(faulted > 0);
        assert!(faulted < graphs.len());
    }
}
