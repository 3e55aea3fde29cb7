//! Dataset and query-set generators.
//!
//! The paper evaluates on four real datasets (AIDS, PDBS, PCM, PPI) and on
//! synthetic databases produced by the GraphGen tool. Neither the datasets
//! nor GraphGen are redistributable here, so this crate provides:
//!
//! * [`graphgen`] — a GraphGen-equivalent generator with the same parameter
//!   surface (`#graphs`, `|V(G)|`, `|Σ|`, degree) used for the scalability
//!   sweeps (Tables VIII/IX, Figures 8/9);
//! * [`profiles`] — stand-ins for the real datasets, parameterized to match
//!   the published Table IV statistics;
//! * [`query`] — the two query generators of §IV-A (random walk → sparse
//!   `Q_iS`, breadth-first search → dense `Q_iD`) and query-set builders.
//!
//! All generators are deterministic given a seed.

#![forbid(unsafe_code)]

pub mod graphgen;
pub mod profiles;
pub mod query;

pub use graphgen::{GraphGen, GraphGenConfig};
pub use profiles::{aids_like, pcm_like, pdbs_like, ppi_like, DatasetProfile};
pub use query::{generate_query, generate_query_set, QueryGenMethod, QuerySetSpec};
