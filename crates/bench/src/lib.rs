//! Experiment harness for the paper's evaluation section.
//!
//! Every table and figure of §IV maps to one function in [`experiments`]
//! (see DESIGN.md §3 for the full index). The `repro` binary drives them:
//!
//! ```text
//! repro --experiment all --scale small
//! repro --experiment fig2 --scale full
//! ```
//!
//! Three scales are provided: `smoke` (seconds — harness self-tests),
//! `small` (minutes on a laptop — the default), and `full` (the paper's
//! parameters; hours, and expected to reproduce the paper's OOT/OOM entries
//! at the largest points).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod scale;
pub mod table;

pub use scale::{Scale, ScaleParams};
pub use table::TextTable;
