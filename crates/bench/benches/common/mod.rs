//! Shared workload construction for the criterion benches.
//!
//! All benches use deterministic, bench-sized workloads (hundreds of small
//! graphs) so that `cargo bench --workspace` completes in minutes; the
//! paper-scale runs live in the `repro` binary.

#![allow(dead_code)] // each bench binary uses a subset of these helpers

use std::time::Duration;

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sqp_datagen::query::{generate_query, QueryGenMethod};
use sqp_graph::{Graph, GraphDb};

/// A deterministic query with `edges` edges carved from `db`.
pub fn query_from(db: &GraphDb, edges: usize, dense: bool, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let method = if dense { QueryGenMethod::Bfs } else { QueryGenMethod::RandomWalk };
    generate_query(db, method, edges, &mut rng).expect("query generation")
}

/// Criterion tuned for a fast full-workspace bench run.
pub fn fast_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

/// Whether this is a CI smoke run (`SQP_BENCH_SMOKE=1`): a shrunken workload
/// whose gates are asserted and whose report is discarded.
pub fn smoke() -> bool {
    std::env::var("SQP_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Records a full run's hand-rolled JSON report as `results/<file>`. A smoke
/// run's report carries no signal and is dropped, so CI leaves the tree clean.
pub fn write_report(file: &str, json: &str) {
    if smoke() {
        println!("smoke run: gates asserted, {file} not written");
        return;
    }
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(root).expect("create results dir");
    let path = format!("{root}/{file}");
    std::fs::write(&path, json).expect("write bench report");
    println!("report written to {path}");
}
