//! # subgraph-query
//!
//! Subgraph query processing with efficient subgraph matching — a Rust
//! implementation of the systems studied in *Sun & Luo, "Scaling Up Subgraph
//! Query Processing with Efficient Subgraph Matching", ICDE 2019*.
//!
//! Given a graph database `D = {G_1, ..., G_n}` and a connected query graph
//! `q`, a *subgraph query* returns every data graph that contains `q`
//! (subgraph isomorphism). This workspace implements all eight competing
//! engines from the paper in three categories:
//!
//! | Category | Engines | Filtering | Verification |
//! |----------|---------|-----------|--------------|
//! | IFV      | CT-Index, Grapes, GGSX | feature index | VF2 |
//! | vcFV     | CFL, GraphQL, CFQL     | matcher preprocessing | matcher enumeration |
//! | IvcFV    | vcGrapes, vcGGSX       | index + preprocessing | CFQL enumeration |
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use subgraph_query::prelude::*;
//!
//! // A two-graph database: a labeled triangle and a labeled path.
//! let mut db = GraphDb::new();
//! let mut b = GraphBuilder::new();
//! let v0 = b.add_vertex(Label(0));
//! let v1 = b.add_vertex(Label(1));
//! let v2 = b.add_vertex(Label(2));
//! b.add_edge(v0, v1).unwrap();
//! b.add_edge(v1, v2).unwrap();
//! b.add_edge(v2, v0).unwrap();
//! db.push(b.build());
//!
//! let mut b = GraphBuilder::new();
//! let v0 = b.add_vertex(Label(0));
//! let v1 = b.add_vertex(Label(1));
//! b.add_edge(v0, v1).unwrap();
//! db.push(b.build());
//!
//! // The query: an edge L0 - L1.
//! let mut b = GraphBuilder::new();
//! let u0 = b.add_vertex(Label(0));
//! let u1 = b.add_vertex(Label(1));
//! b.add_edge(u0, u1).unwrap();
//! let q = b.build();
//!
//! // Index-free querying with CFQL (CFL filter + GraphQL enumeration).
//! let mut engine = CfqlEngine::new();
//! engine.build(&Arc::new(db)).unwrap();
//! let outcome = engine.query(&q);
//! assert_eq!(outcome.answers.len(), 2); // both graphs contain the edge
//! ```
//!
//! See the `examples/` directory for richer scenarios and `crates/bench` for
//! the experiment harness that regenerates every table and figure of the
//! paper.

#![forbid(unsafe_code)]

pub use sqp_core as core;
pub use sqp_datagen as datagen;
pub use sqp_graph as graph;
pub use sqp_index as index;
pub use sqp_matching as matching;

/// Commonly used items in one import.
pub mod prelude {
    pub use sqp_core::prelude::*;
    pub use sqp_graph::{Graph, GraphBuilder, GraphDb, HeapSize, Label, LabelInterner, VertexId};
}
