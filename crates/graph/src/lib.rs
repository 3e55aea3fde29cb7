//! Graph substrate for subgraph query processing.
//!
//! This crate provides the data-graph foundation shared by every other crate
//! in the workspace:
//!
//! * [`Graph`] — an immutable, vertex-labeled, undirected graph in CSR form
//!   whose adjacency lists are sorted by `(neighbor label, neighbor id)`, so
//!   that label-restricted neighborhood scans (the hot operation of every
//!   filtering algorithm in the paper) are binary searches.
//! * [`GraphBuilder`] — mutable construction, deduplication and validation.
//! * [`GraphDb`] — a graph database `D = {G_1, ..., G_n}` with a shared label
//!   interner and database-level statistics.
//! * [`DynamicGraph`] — a mutable overlay (copy-on-write adjacency delta +
//!   tombstones + incremental NLF maintenance) that composes with the base
//!   CSR in every neighbor/intersection path, with policy-driven compaction
//!   back into a fresh CSR.
//! * [`io`] — the `t # id / v id label / e u v` text format used by the
//!   subgraph-query literature.
//! * [`algo`] — BFS trees (with tree/non-tree edge classification), k-core
//!   decomposition, and connectivity, the building blocks of CFL.
//! * [`nlf`] — neighborhood label frequency signatures used by the GraphQL
//!   and CFL candidate filters.
//! * [`intersect`] — merge-based, galloping, and SIMD sorted-slice
//!   intersection kernels, the primitive of local-candidate computation in
//!   enumeration.
//! * [`simd`] — runtime-dispatched SSE/AVX2 block intersection with a scalar
//!   fallback (and a `SQP_FORCE_SCALAR` kill switch for CI).
//! * [`AdjacencyRows`] — lazily-built bitmap adjacency rows, with a packed
//!   NLF signature each, for the vertices whose row is under half the bytes
//!   of their adjacency list: neighbor tests and local candidates against a
//!   candidate bitmap become word-parallel ANDs.
//! * [`HeapSize`] — exact heap accounting used to reproduce the paper's
//!   memory-cost tables.

// Library code avoids unwrap/expect (CI denies them); tests may use them freely.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod algo;
pub mod binio;
pub mod bitmap;
pub mod builder;
pub mod database;
pub mod dynamic;
pub mod error;
pub mod graph;
pub mod hash;
pub mod heap_size;
pub mod intersect;
pub mod io;
pub mod label;
pub mod nlf;
pub mod simd;
pub mod stats;
pub mod vertex;

pub use bitmap::AdjacencyRows;
pub use builder::GraphBuilder;
pub use database::GraphDb;
pub use dynamic::{
    BatchEffects, CompactionPolicy, CompactionReport, DynamicGraph, Update, UpdateEffect,
};
pub use error::{GraphError, Result};
pub use graph::Graph;
pub use heap_size::HeapSize;
pub use label::{Label, LabelInterner};
pub use nlf::NeighborhoodLabelFrequency;
pub use stats::{DatabaseStats, GraphStats};
pub use vertex::VertexId;
