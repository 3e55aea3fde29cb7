//! IFV graph-database indices.
//!
//! The indexing-filtering-verification (IFV) paradigm (Algorithm 1 of the
//! paper) builds a feature index over the whole database once, then answers
//! each query by (1) decomposing the query into features, (2) intersecting
//! the index postings to obtain a candidate graph set `C(q) ⊇ A(q)`, and
//! (3) verifying each candidate with a subgraph isomorphism test.
//!
//! Three top-performing index structures are implemented, matching the
//! paper's selection:
//!
//! * [`trie::PathTrieIndex`] — **Grapes**: enumeration-based labeled-path
//!   features stored in a trie with per-graph occurrence counts, built in
//!   parallel (default 6 worker threads, as configured in §IV-A);
//! * [`suffix::GgsxIndex`] — **GGSX**: the same path features in a sorted
//!   dictionary (the array analogue of the original's generalized suffix
//!   tree — see DESIGN.md §4) with existence-based filtering, built
//!   single-threaded; smaller but less precise than Grapes;
//! * [`fingerprint::FingerprintIndex`] — **CT-Index**: tree and cycle
//!   features hashed into per-graph 4096-bit fingerprints, filtered by
//!   bitwise subset tests. Feature enumeration is exponential on dense
//!   graphs, which is exactly why CT-Index fails to index PCM/PPI-scale
//!   inputs within budget in the paper (Tables VI/VIII); builds accept a
//!   [`BuildBudget`] so the harness can report OOT/OOM the way the paper
//!   does.

#![forbid(unsafe_code)]

pub mod bitset;
pub mod budget;
pub mod fingerprint;
pub mod path_enum;
pub mod suffix;
pub mod trie;

pub use bitset::Bitset;
pub use budget::{BuildBudget, BuildError};
pub use fingerprint::{CtIndexConfig, FingerprintIndex};
pub use suffix::GgsxIndex;
pub use trie::{GrapesConfig, PathTrieIndex};

use sqp_graph::database::GraphId;
use sqp_graph::Graph;

/// Candidate graphs produced by an index filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CandidateGraphs {
    /// The filter could not rule out any graph (e.g. the query produced no
    /// indexable feature).
    All,
    /// The sorted list of candidate graph ids.
    Ids(Vec<GraphId>),
}

impl CandidateGraphs {
    /// Materializes the candidate list for a database of `n` graphs.
    pub fn into_ids(self, n: usize) -> Vec<GraphId> {
        match self {
            CandidateGraphs::All => (0..n as u32).map(GraphId).collect(),
            CandidateGraphs::Ids(ids) => ids,
        }
    }

    /// Number of candidates for a database of `n` graphs.
    pub fn len(&self, n: usize) -> usize {
        match self {
            CandidateGraphs::All => n,
            CandidateGraphs::Ids(ids) => ids.len(),
        }
    }
}

/// A database index usable as the filtering step of an IFV engine.
///
/// # Examples
///
/// ```
/// use sqp_graph::{GraphBuilder, GraphDb, Label};
/// use sqp_index::{GraphIndex, PathTrieIndex};
///
/// let edge = |a: u32, b: u32| {
///     let mut bld = GraphBuilder::new();
///     let u = bld.add_vertex(Label(a));
///     let v = bld.add_vertex(Label(b));
///     bld.add_edge(u, v).unwrap();
///     bld.build()
/// };
/// let db = GraphDb::from_graphs(vec![edge(0, 1), edge(2, 3)]);
/// let index = PathTrieIndex::build_default(&db);
/// // Only the first graph can contain a 0–1 edge.
/// let candidates = index.candidates(&edge(0, 1)).into_ids(db.len());
/// assert_eq!(candidates.len(), 1);
/// ```
pub trait GraphIndex: Send + Sync {
    /// Index name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// The candidate set `C(q)`: every data graph containing `q` is included
    /// (soundness is property-tested across the workspace).
    fn candidates(&self, q: &Graph) -> CandidateGraphs;

    /// Heap bytes owned by the index (Tables VII/IX).
    fn heap_bytes(&self) -> usize;
}
