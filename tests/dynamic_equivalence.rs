//! Differential tests of the dynamic-graph layer (invariant I10):
//!
//! * **(a)** enumeration over the mutable overlay is byte-identical to a
//!   from-scratch rebuild at every batch boundary, with continuous repair
//!   running at 1, 2, 4 and 8 threads;
//! * **(b)** overlay-then-compact produces a CSR fingerprint-equal to the
//!   rebuild of an independently-maintained reference model;
//! * **(c)** the continuously-repaired standing set equals a full re-query
//!   after every batch, including remove-heavy and add-remove-same-batch
//!   (churn) streams;
//! * the seed-index repair and the direct-CSR `materialize` equal the
//!   implementations they replaced (kept below as references), field by
//!   field, on streams with vertex removals and same-batch add-then-remove;
//! * a seeded search equals the brute-force embeddings that extend its pins,
//!   however the pins are drawn — from an answer, at random (tombstones and
//!   ids past the last slot included), or one query vertex pinned twice;
//! * the overlay's NLF runs, the one-word signature kept beside them and
//!   the incrementally-refreshed fingerprint index equal freshly-computed
//!   ones after arbitrary streams, a mid-stream compaction included;
//! * malformed update batches fail closed with a `GraphError` — atomically,
//!   and never by panicking: the matcher that rejected them reports what a
//!   twin that never saw them reports for the batches after.
//!
//! The update streams come from the fingerprint-seeded
//! [`UpdateStreamGen`](subgraph_query::core::chaos::UpdateStreamGen), whose
//! batches deliberately include duplicate-edge no-ops, same-batch
//! add-then-remove, and re-adds of tombstoned labels. The reference model
//! here is an independent reimplementation (label vector + edge set +
//! replay + `GraphBuilder` rebuild), so the overlay and the oracle share no
//! code beyond the update enum.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

use subgraph_query::core::chaos::{graph_fingerprint, StreamProfile, UpdateStreamGen};
use subgraph_query::core::continuous::{BatchError, ContinuousMatcher, DynamicDb};
use subgraph_query::graph::database::GraphId;
use subgraph_query::graph::nlf::{self, NeighborhoodLabelFrequency};
use subgraph_query::graph::{
    BatchEffects, CompactionPolicy, DynamicGraph, Graph, GraphBuilder, GraphDb, Label, Update,
    VertexId,
};
use subgraph_query::index::{BuildBudget, FingerprintIndex, GraphIndex};
use subgraph_query::matching::brute;
use subgraph_query::matching::dynmatch::{enumerate_overlay, SeededEnumerator};
use subgraph_query::matching::{Deadline, Embedding, Timeout};

// ---------------------------------------------------------------------------
// Reference model: an independent replay of the update semantics
// ---------------------------------------------------------------------------

/// Labels + liveness + normalized edge set, rebuilt through `GraphBuilder`
/// with the same dense-renumbering rule as `DynamicGraph::materialize`
/// (live slots in ascending id order).
struct RefModel {
    labels: Vec<Label>,
    alive: Vec<bool>,
    edges: BTreeSet<(u32, u32)>,
}

fn norm(u: VertexId, v: VertexId) -> (u32, u32) {
    if u.0 <= v.0 {
        (u.0, v.0)
    } else {
        (v.0, u.0)
    }
}

impl RefModel {
    fn new(g: &Graph) -> Self {
        let mut edges = BTreeSet::new();
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                edges.insert(norm(u, v));
            }
        }
        Self {
            labels: g.vertices().map(|v| g.label(v)).collect(),
            alive: vec![true; g.vertex_count()],
            edges,
        }
    }

    fn apply(&mut self, batch: &[Update]) {
        for up in batch {
            match *up {
                Update::AddVertex { label } => {
                    self.labels.push(label);
                    self.alive.push(true);
                }
                Update::AddEdge { u, v } => {
                    self.edges.insert(norm(u, v)); // duplicate insert is the no-op
                }
                Update::RemoveEdge { u, v } => {
                    assert!(self.edges.remove(&norm(u, v)), "oracle desync: missing edge");
                }
                Update::RemoveVertex { vertex } => {
                    assert!(self.alive[vertex.index()], "oracle desync: dead vertex");
                    self.alive[vertex.index()] = false;
                    self.edges.retain(|&(a, b)| a != vertex.0 && b != vertex.0);
                }
            }
        }
    }

    /// Dense rebuild; returns the graph and the slot → new-id mapping.
    fn rebuild(&self) -> (Graph, Vec<Option<VertexId>>) {
        let mut b = GraphBuilder::new();
        let mut mapping = vec![None; self.labels.len()];
        for (slot, (&label, &alive)) in self.labels.iter().zip(&self.alive).enumerate() {
            if alive {
                mapping[slot] = Some(b.add_vertex(label));
            }
        }
        for &(u, v) in &self.edges {
            let (Some(nu), Some(nv)) = (mapping[u as usize], mapping[v as usize]) else {
                panic!("oracle desync: edge touches dead vertex");
            };
            b.add_edge(nu, nv).expect("oracle edge");
        }
        (b.build(), mapping)
    }
}

// ---------------------------------------------------------------------------
// References: the implementations PR 13 replaced, over the public API
// ---------------------------------------------------------------------------

/// What one repair yields: the new standing set, the embeddings added and
/// the embeddings removed.
type Repaired = (Vec<Embedding>, Vec<Embedding>, Vec<Embedding>);

/// The repair loop as PR 10 wrote it: re-verify every stored embedding that
/// touches the batch, seed from every (added edge × directed query edge) and
/// (added vertex × query vertex) whose labels agree, merge.
fn reference_repair(
    q: &Graph,
    stored: &[Embedding],
    g: &DynamicGraph,
    fx: &BatchEffects,
) -> Repaired {
    let still_valid = |e: &Embedding| {
        let map = e.as_slice();
        map.iter().all(|&v| g.is_live(v))
            && q.vertices()
                .all(|u| q.neighbors(u).iter().all(|&w| g.has_edge(map[u.index()], map[w.index()])))
    };
    let touches = |e: &Embedding| e.as_slice().iter().any(|v| fx.touched.binary_search(v).is_ok());
    let (kept, removed): (Vec<Embedding>, Vec<Embedding>) =
        stored.iter().cloned().partition(|e| !touches(e) || still_valid(e));
    let mut found: Vec<Embedding> = Vec::new();
    let mut seed = |pins: &[(VertexId, VertexId)]| {
        found.extend(enumerate_seeded(q, g, pins, Deadline::none()).expect("no deadline"));
    };
    for &(a, b) in fx.added_edges.iter().filter(|&&(a, b)| g.has_edge(a, b)) {
        for u in q.vertices() {
            for &w in q.neighbors(u) {
                if q.label(u) == g.label(a) && q.label(w) == g.label(b) {
                    seed(&[(u, a), (w, b)]);
                }
            }
        }
    }
    for &c in fx.added_vertices.iter().filter(|&&c| g.is_live(c)) {
        for u in q.vertices().filter(|&u| q.label(u) == g.label(c)) {
            seed(&[(u, c)]);
        }
    }
    let mut added = sorted(found);
    added.dedup();
    added.retain(|e| !kept.contains(e));
    let new_set = sorted(kept.iter().chain(&added).cloned().collect());
    (new_set, added, removed)
}

/// Every embedding of `q` into `g` that extends `seeds`, from a fresh
/// seeder; sorted when there are no seeds.
fn enumerate_seeded(
    q: &Graph,
    g: &DynamicGraph,
    seeds: &[(VertexId, VertexId)],
    deadline: Deadline,
) -> Result<Vec<Embedding>, Timeout> {
    let mut out = Vec::new();
    SeededEnumerator::new(q, g).enumerate(seeds, deadline, &mut out)?;
    Ok(if seeds.is_empty() { sorted(out) } else { out })
}

/// `materialize` as PR 10 wrote it: a `GraphBuilder` round trip (per-vertex
/// lists, dedup on insert, a re-sort at `build`).
fn reference_materialize(g: &DynamicGraph) -> (Graph, Vec<Option<VertexId>>) {
    let mut b = GraphBuilder::new();
    let mapping: Vec<Option<VertexId>> = (0..g.vertex_slots() as u32)
        .map(|slot| g.is_live(VertexId(slot)).then(|| b.add_vertex(g.label(VertexId(slot)))))
        .collect();
    for v in g.live_vertices() {
        for &w in g.neighbors(v).iter().filter(|&&w| v < w) {
            let (nv, nw) = (mapping[v.index()].expect("live"), mapping[w.index()].expect("live"));
            b.add_edge(nv, nw).expect("overlay adjacency is simple");
        }
    }
    (b.build(), mapping)
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Labels 3, 19 and 35 share nibble 3 of the packed NLF signature and the
/// label space is 36, so on a graph over these a signature accept is never
/// exact and the run merge decides behind it.
const NIBBLE_LABELS: [u32; 4] = [3, 19, 35, 4];

/// Two families of base graph. Three in four: labels 0–3, sparse. One in
/// four: [`NIBBLE_LABELS`], with vertex 0 a hub joined to every other vertex
/// (from 10 of them on, nibble 3 of its signature saturates).
fn arb_base() -> impl Strategy<Value = Graph> {
    (4usize..14, 0u32..4).prop_flat_map(|(n, family)| {
        let nibble = family == 3;
        let labels = proptest::collection::vec(0usize..4, n);
        let edges = proptest::collection::vec((0..n, 0..n), 0..28);
        (labels, edges).prop_map(move |(ls, es)| {
            let mut b = GraphBuilder::new();
            for l in ls {
                b.add_vertex(Label(if nibble { NIBBLE_LABELS[l] } else { l as u32 }));
            }
            let spokes = (if nibble { 1..n } else { n..n }).map(|v| (0, v));
            for (u, v) in es.into_iter().chain(spokes) {
                if u != v {
                    let _ = b.add_edge(VertexId::from(u), VertexId::from(v));
                }
            }
            b.build()
        })
    })
}

fn arb_profile() -> impl Strategy<Value = StreamProfile> {
    (0u8..4).prop_map(|i| match i {
        0 => StreamProfile::Mixed,
        1 => StreamProfile::AddHeavy,
        2 => StreamProfile::RemoveHeavy,
        _ => StreamProfile::Churn,
    })
}

/// Small connected-ish query shapes over each family's labels (a query over
/// the other family's finds nothing, which is an answer too).
fn queries() -> Vec<Graph> {
    let build = |labels: &[u32], edges: &[(u32, u32)]| {
        let mut b = GraphBuilder::new();
        for &l in labels {
            b.add_vertex(Label(l));
        }
        for &(u, v) in edges {
            b.add_edge(VertexId(u), VertexId(v)).expect("query edge");
        }
        b.build()
    };
    vec![
        build(&[0, 1], &[(0, 1)]),
        build(&[1, 2, 0], &[(0, 1), (1, 2)]),
        build(&[0, 0, 1], &[(0, 1), (0, 2), (1, 2)]),
        build(&[2], &[]),
        build(&[3, 19], &[(0, 1)]),
        build(&[19, 35, 3], &[(0, 1), (1, 2)]),
        build(&[3, 3, 19], &[(0, 1), (0, 2), (1, 2)]),
        build(&[4, 3, 19, 3], &[(0, 1), (0, 2), (0, 3)]),
    ]
}

fn sorted(mut es: Vec<Embedding>) -> Vec<Embedding> {
    es.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
    es
}

/// Renumbers overlay-id embeddings through the rebuild mapping.
fn renumber(es: &[Embedding], mapping: &[Option<VertexId>]) -> Vec<Embedding> {
    es.iter()
        .map(|e| {
            Embedding::new(
                e.as_slice()
                    .iter()
                    .map(|&v| mapping[v.index()].expect("live image maps"))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    // Case count comes from PROPTEST_CASES (CI pins the I10 suite at 256).
    #![proptest_config(ProptestConfig::default())]

    /// (a) + (c): at every batch boundary, for every thread count, the
    /// repaired standing sets are identical across thread counts, equal to
    /// overlay enumeration, and — renumbered through the oracle's rebuild
    /// mapping — equal to brute-force enumeration on the rebuilt graph.
    #[test]
    fn repaired_equals_rebuild_at_every_boundary(
        base in arb_base(),
        seed in 0u64..1_000,
        profile in arb_profile(),
    ) {
        let qs = queries();
        let mut matchers: Vec<(usize, ContinuousMatcher)> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|t| {
                let mut m = ContinuousMatcher::new(base.clone(), CompactionPolicy::never());
                for q in &qs {
                    m.register(q.clone(), Deadline::none()).expect("register");
                }
                (t, m)
            })
            .collect();
        let mut stream = UpdateStreamGen::new(&base, seed, profile);
        let mut oracle = RefModel::new(&base);
        for _ in 0..4 {
            let batch = stream.batch(6);
            oracle.apply(&batch);
            let (rebuilt, mapping) = oracle.rebuild();
            let mut reference: Option<Vec<Vec<Embedding>>> = None;
            for (threads, m) in &mut matchers {
                m.apply_batch(&batch, *threads, Deadline::none()).expect("valid batch");
                let sets: Vec<Vec<Embedding>> =
                    m.standing().iter().map(|s| s.embeddings().to_vec()).collect();
                match &reference {
                    None => reference = Some(sets),
                    Some(want) => prop_assert_eq!(
                        &sets, want, "thread count {} diverged", threads
                    ),
                }
            }
            let (_, one) = &matchers[0];
            for (qi, q) in qs.iter().enumerate() {
                let repaired = one.standing()[qi].embeddings();
                // I10: repaired set == recomputed overlay enumeration.
                let requeried = enumerate_overlay(q, one.graph(), Deadline::none())
                    .expect("overlay enumeration");
                prop_assert_eq!(repaired, requeried.as_slice());
                // Differential vs the independent rebuild.
                let want = sorted(brute::enumerate_all(q, &rebuilt));
                prop_assert_eq!(sorted(renumber(repaired, &mapping)), want);
            }
        }
    }

    /// (b): overlay-then-compact is fingerprint-equal to the oracle rebuild,
    /// and enumeration is preserved through the compaction's renumbering.
    #[test]
    fn compaction_equals_rebuild(
        base in arb_base(),
        seed in 0u64..1_000,
        profile in arb_profile(),
    ) {
        let mut g = DynamicGraph::new(base.clone());
        let mut stream = UpdateStreamGen::new(&base, seed, profile);
        let mut oracle = RefModel::new(&base);
        for _ in 0..3 {
            let batch = stream.batch(8);
            oracle.apply(&batch);
            g.apply_batch(&batch).expect("valid batch");
        }
        let before: Vec<Vec<Embedding>> = queries()
            .iter()
            .map(|q| enumerate_overlay(q, &g, Deadline::none()).expect("pre-compact"))
            .collect();
        let report = g.compact();
        let (want, _) = oracle.rebuild();
        let (compacted, identity) = g.materialize();
        prop_assert_eq!(
            graph_fingerprint(&compacted),
            graph_fingerprint(&want),
            "compacted CSR differs from oracle rebuild"
        );
        // After compaction the overlay is dense: materialize is the identity.
        for (slot, m) in identity.iter().enumerate() {
            prop_assert_eq!(*m, Some(VertexId(slot as u32)));
        }
        for (q, old) in queries().iter().zip(before) {
            let now = enumerate_overlay(q, &g, Deadline::none()).expect("post-compact");
            prop_assert_eq!(sorted(renumber(&old, &report.mapping)), now);
        }
    }

    /// Seed-index repair ≡ the reference repair loop: same new set, same
    /// `added`, same `removed`, for every standing query after every batch.
    /// Mixed and remove-heavy streams tombstone vertices; churn streams add
    /// and remove the same edge or vertex inside one batch (the ledger's
    /// stream does neither).
    #[test]
    fn seed_index_repair_equals_reference_repair(
        base in arb_base(),
        seed in 0u64..1_000,
        profile in arb_profile(),
    ) {
        let qs = queries();
        let mut m = ContinuousMatcher::new(base.clone(), CompactionPolicy::never());
        for q in &qs {
            m.register(q.clone(), Deadline::none()).expect("register");
        }
        // The same batches on a bare overlay, for the effects repair sees.
        let mut shadow = DynamicGraph::new(base.clone());
        let mut stream = UpdateStreamGen::new(&base, seed, profile);
        for _ in 0..5 {
            let batch = stream.batch(7);
            let before: Vec<Vec<Embedding>> =
                m.standing().iter().map(|s| s.embeddings().to_vec()).collect();
            let fx = shadow.apply_batch(&batch).expect("valid batch");
            let report = m.apply_batch(&batch, 1, Deadline::none()).expect("valid batch");
            prop_assert!(report.id_remap.is_none());
            for (qi, q) in qs.iter().enumerate() {
                let (new_set, added, removed) = reference_repair(q, &before[qi], &shadow, &fx);
                prop_assert_eq!(m.standing()[qi].embeddings(), new_set.as_slice());
                prop_assert_eq!(&report.deltas[qi].added, &added);
                prop_assert_eq!(&report.deltas[qi].removed, &removed);
            }
        }
    }

    /// Direct-CSR `materialize` ≡ the `GraphBuilder` reference on everything
    /// a `Graph` exposes, and on the slot mapping.
    #[test]
    fn direct_materialize_equals_builder_reference(
        base in arb_base(),
        seed in 0u64..1_000,
        profile in arb_profile(),
    ) {
        let mut g = DynamicGraph::new(base.clone());
        let mut stream = UpdateStreamGen::new(&base, seed, profile);
        for round in 0..6 {
            g.apply_batch(&stream.batch(6)).expect("valid batch");
            let (got, got_map) = g.materialize();
            let (want, want_map) = reference_materialize(&g);
            prop_assert_eq!(got_map, want_map);
            prop_assert_eq!(got.labels(), want.labels());
            prop_assert_eq!(got.edge_count(), want.edge_count());
            prop_assert_eq!(got.max_degree(), want.max_degree());
            prop_assert_eq!(got.distinct_label_count(), want.distinct_label_count());
            for v in want.vertices() {
                prop_assert_eq!(got.neighbors(v), want.neighbors(v));
                prop_assert!(got.label_runs(v).eq(want.label_runs(v)));
            }
            for l in (0..=want.label_space() as u32).map(Label) {
                prop_assert_eq!(got.vertices_with_label(l), want.vertices_with_label(l));
            }
            // Fold the delta in half-way, so later rounds patch a compacted
            // base; compaction renumbers, so the stream restarts from it.
            if round == 2 {
                g.compact();
                stream = UpdateStreamGen::new(&got, seed, profile);
            }
        }
    }

    /// The overlay's `label_runs` (read off the base run index, or kept
    /// beside a patched list) equal the NLF computed fresh on the
    /// materialised graph, for every live vertex; a tombstone has none. And
    /// every slot's signature word is the packing of those runs, after
    /// every batch and across a compaction (which carries the words over
    /// instead of recomputing them).
    #[test]
    fn overlay_label_runs_equal_fresh_nlf(
        base in arb_base(),
        seed in 0u64..1_000,
        profile in arb_profile(),
    ) {
        let mut g = DynamicGraph::new(base.clone());
        let mut stream = UpdateStreamGen::new(&base, seed, profile);
        for round in 0..6 {
            g.apply_batch(&stream.batch(6)).expect("valid batch");
            if round == 3 {
                // Compaction renumbers, so the stream restarts from its result.
                g.compact();
                stream = UpdateStreamGen::new(g.base(), seed, profile);
            }
            let (fresh, mapping) = g.materialize();
            prop_assert_eq!(mapping.len(), g.vertex_slots());
            for (slot, mapped) in mapping.iter().enumerate() {
                let v = VertexId(slot as u32);
                let runs: Vec<(Label, u32)> = g.label_runs(v).collect();
                prop_assert_eq!(
                    g.signature(v), nlf::packed(runs.iter().copied()), "stale word for v{}", slot
                );
                match *mapped {
                    Some(nv) => {
                        let want = NeighborhoodLabelFrequency::of(&fresh, nv);
                        prop_assert_eq!(runs.as_slice(), want.runs(), "stale NLF for v{}", slot);
                        for u in fresh.vertices() {
                            let probe = NeighborhoodLabelFrequency::of(&fresh, u);
                            prop_assert_eq!(g.nlf_dominates(v, &probe), probe.dominated_by(&want));
                        }
                    }
                    None => prop_assert!(runs.is_empty(), "tombstone v{} kept runs", slot),
                }
            }
        }
    }

    /// The incrementally-refreshed fingerprint index answers exactly like a
    /// fresh build over the materialized database.
    #[test]
    fn refreshed_index_equals_fresh_build(
        g0 in arb_base(),
        g1 in arb_base(),
        seed in 0u64..1_000,
    ) {
        let db = GraphDb::from_graphs(vec![g0, g1.clone()]);
        let mut ddb = DynamicDb::new(&db);
        let mut stream = UpdateStreamGen::new(&g1, seed, StreamProfile::Mixed);
        for _ in 0..3 {
            ddb.apply(GraphId(1), &stream.batch(5)).expect("valid batch");
        }
        ddb.refresh_index(&BuildBudget::unlimited()).expect("refresh");
        let rebuilt = ddb.materialize();
        let fresh = FingerprintIndex::build_default(&rebuilt);
        for q in queries().iter().chain(rebuilt.graphs()) {
            prop_assert_eq!(
                ddb.candidates(q).into_ids(rebuilt.len()),
                fresh.candidates(q).into_ids(rebuilt.len())
            );
        }
    }

    /// A seeded search finds exactly the embeddings that extend its pins —
    /// the brute-force answers on the materialized overlay, mapped back to
    /// slots — and never panics, whatever the pins: drawn from one answer or
    /// from two, random pairs that may name a tombstone, a slot past the
    /// last or a query vertex past the last, or one query vertex pinned
    /// twice. One
    /// seeder serves every pin set, so orders are switched between calls.
    #[test]
    fn seeded_search_equals_the_brute_extensions_of_its_pins(
        base in arb_base(),
        seed in 0u64..1_000,
        profile in arb_profile(),
        edges in 0usize..4,
    ) {
        let mut g = DynamicGraph::new(base.clone());
        let mut stream = UpdateStreamGen::new(&base, seed, profile);
        for round in 0..4 {
            g.apply_batch(&stream.batch(6)).expect("valid batch");
            if round == 1 {
                // Compaction renumbers, so the stream restarts from its result.
                g.compact();
                stream = UpdateStreamGen::new(g.base(), seed, profile);
            }
        }
        let (fresh, mapping) = g.materialize();
        let mut slot_of = vec![VertexId(0); fresh.vertex_count()];
        for (slot, m) in mapping.iter().enumerate() {
            if let Some(v) = m {
                slot_of[v.index()] = VertexId(slot as u32);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let q = brute::random_connected_query(&mut rng, &fresh, edges);
        let answers: Vec<Embedding> = brute::enumerate_all(&q, &fresh)
            .iter()
            .map(|e| Embedding::new(e.as_slice().iter().map(|v| slot_of[v.index()]).collect()))
            .collect();
        let (n, slots) = (q.vertex_count() as u32, g.vertex_slots() as u32);
        let dead: Vec<VertexId> = (0..slots).map(VertexId).filter(|&v| !g.is_live(v)).collect();

        let u = VertexId(rng.random_range(0..n));
        let random_slot = |rng: &mut StdRng| VertexId(rng.random_range(0..slots + 2));
        let mut pin_sets = vec![vec![]];
        let mut answer = || answers.get(rng.random_range(0..answers.len().max(1)));
        if let (Some(e), Some(f)) = (answer(), answer()) {
            let image = |x: VertexId| (x, e.image(x));
            pin_sets.push(vec![image(u)]);
            for &w in q.neighbors(u) {
                pin_sets.push(vec![image(u), image(w)]);
                pin_sets.push(vec![image(w), image(u)]);
                // Two answers' images: each extends, together maybe not.
                pin_sets.push(vec![image(u), (w, f.image(w))]);
            }
            pin_sets.push(q.vertices().map(image).collect());
            pin_sets.push(vec![image(u), image(u)]);
            let other = random_slot(&mut rng);
            pin_sets.push(vec![image(u), (u, other)]);
        }
        for _ in 0..4 {
            let pair = |rng: &mut StdRng| (VertexId(rng.random_range(0..n + 1)), random_slot(rng));
            pin_sets.push(vec![pair(&mut rng)]);
            pin_sets.push(vec![pair(&mut rng), pair(&mut rng)]);
        }
        if let Some(&v) = dead.first() {
            pin_sets.push(vec![(u, v)]);
        }
        pin_sets.push(vec![(u, VertexId(slots))]);

        let mut seeder = SeededEnumerator::new(&q, &g);
        for pins in &pin_sets {
            let mut got = Vec::new();
            seeder.enumerate(pins, Deadline::none(), &mut got).expect("no deadline");
            let extends = |e: &&Embedding| {
                pins.iter().all(|&(x, v)| x.0 < n && e.image(x) == v)
            };
            let want: Vec<Embedding> = answers.iter().filter(extends).cloned().collect();
            prop_assert_eq!(sorted(got), sorted(want), "pins {:?}", pins);
        }
    }

    /// Malformed batches fail closed: a `GraphError`, atomically rejected,
    /// never a panic — and the repaired standing sets are untouched. Each
    /// malformed case sits between a valid prefix and a valid suffix, so
    /// the rejection undoes real work; a twin that never saw the cases then
    /// reports the same for the next valid batch (its deltas) and for the
    /// one after, which compacts (its id remap).
    #[test]
    fn malformed_batches_fail_closed(
        base in arb_base(),
        seed in 0u64..1_000,
    ) {
        let mut stream = UpdateStreamGen::new(&base, seed, StreamProfile::Mixed);
        // Advance so tombstones and edges exist, then attack the same state.
        let warm: Vec<Vec<Update>> = (0..3).map(|_| stream.batch(5)).collect();
        // The cases come from a copy of the stream, which advances past
        // the prefix they follow; the stream itself draws the valid batches.
        let mut probe = stream.clone();
        let prefix = probe.batch(4);
        let cases = probe.malformed_batches();
        let suffix = probe.batch(3);
        let mut next = [stream.batch(5), stream.batch(5)];
        next[1].push(Update::AddVertex { label: Label(0) }); // a delta op for sure
        // Compact at one op past what the first valid batch leaves.
        let mut shadow = DynamicGraph::new(base.clone());
        for batch in warm.iter().chain(&next[..1]) {
            shadow.apply_batch(batch).expect("valid batch");
        }
        let policy = CompactionPolicy { min_delta_ops: shadow.delta_ops() + 1, delta_ratio: 0.0 };
        let [mut m, mut twin] = [(); 2].map(|_| {
            let mut m = ContinuousMatcher::new(base.clone(), policy);
            for q in queries() {
                m.register(q, Deadline::none()).expect("register");
            }
            for batch in &warm {
                m.apply_batch(batch, 2, Deadline::none()).expect("valid batch");
            }
            m
        });
        let standing = |m: &ContinuousMatcher| -> Vec<Vec<Embedding>> {
            m.standing().iter().map(|s| s.embeddings().to_vec()).collect()
        };
        let fingerprint = graph_fingerprint(&m.graph().materialize().0);
        for case in cases {
            let batch: Vec<Update> = [&prefix, &case, &suffix].into_iter().flatten().copied().collect();
            let err = m.apply_batch(&batch, 2, Deadline::none());
            prop_assert!(
                matches!(err, Err(BatchError::Graph(_))),
                "malformed batch accepted: {:?}", case
            );
            prop_assert_eq!(standing(&m), standing(&twin));
            prop_assert_eq!(graph_fingerprint(&m.graph().materialize().0), fingerprint);
        }
        for (i, batch) in next.iter().enumerate() {
            let ours = m.apply_batch(batch, 2, Deadline::none()).expect("valid batch");
            let theirs = twin.apply_batch(batch, 2, Deadline::none()).expect("valid batch");
            prop_assert_eq!(ours.compacted, i == 1, "the second batch, and only it, compacts");
            prop_assert_eq!(format!("{ours:?}"), format!("{theirs:?}"));
            prop_assert_eq!(standing(&m), standing(&twin));
        }
    }
}

/// Compaction policy thresholds: `maybe_compact` fires exactly when the
/// delta crosses max(min_ops, ratio × base edges), and the amortized
/// overlay keeps answering identically right through the compaction point.
#[test]
fn compaction_policy_fires_at_threshold() {
    let mut b = GraphBuilder::new();
    for i in 0..6 {
        b.add_vertex(Label(i % 3));
    }
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)] {
        b.add_edge(VertexId(u), VertexId(v)).expect("edge");
    }
    let base = b.build();
    let policy = CompactionPolicy { min_delta_ops: 4, delta_ratio: 0.0 };
    let mut g = DynamicGraph::new(base.clone());
    let mut stream = UpdateStreamGen::new(&base, 3, StreamProfile::AddHeavy);
    let mut fired = 0;
    for _ in 0..6 {
        g.apply_batch(&stream.batch(2)).expect("valid");
        if g.maybe_compact(&policy).is_some() {
            fired += 1;
            assert_eq!(g.delta_ops(), 0, "compaction must reset the delta");
        }
    }
    assert!(fired >= 2, "threshold of 4 ops never crossed in 12 ops");
    assert_eq!(g.compactions() as usize, fired);
}
