//! Counts, not clocks: how often a query reads its span clock.
//!
//! A vcFV scan times its pairs with one `Lap` (`sqp_matching::obs`): one
//! clock read when the scan opens it, one per switch, none when it drops.
//! The matcher's own span of the lap's running phase is passive under it.
//! Per (query, graph) pair of a CFQL scan that is exactly
//!
//! * **1** read when the filter prunes the graph: the `Filter → Filter`
//!   switch;
//! * **6** when it does not: `Filter → Enumerate`, the matcher's
//!   `BuildCandidates` span (2), `Enumerate → Filter`, the matcher's `Order`
//!   span (2);
//!
//! plus **1** per scan, and every live pool worker runs one scan per job —
//! at every thread count (2 and 8 with two stage spans per pair, 4 and 12
//! before the passive rule). The scan's budget check every 16th graph reads
//! the wall clock of `Deadline`, which an unbudgeted query never consults.
//!
//! The engine-level counts (`CFQL`, `Grapes` through their own sinks) are
//! unit tests beside `Engine`, which owns its sink; what the lap must *not*
//! change — item counts, Σ phases = stage walls under the tick clock, also
//! through panics and interrupts — is in `metrics_format.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use subgraph_query::core::engines::matcher_by_name;
use subgraph_query::core::parallel::QueryPool;
use subgraph_query::core::QueryStatus;
use subgraph_query::datagen::query::{generate_query_set, QueryGenMethod, QuerySetSpec};
use subgraph_query::graph::{Graph, GraphDb};
use subgraph_query::matching::{Deadline, StatsSink};

static READS: AtomicU64 = AtomicU64::new(0);

/// A span clock that counts its reads across every thread.
fn counting_clock() -> u64 {
    READS.fetch_add(1, Ordering::Relaxed)
}

/// 200 AIDS-like graphs and small queries drawn from them: most pairs prune,
/// a few per query do not.
fn seeded_workload() -> (Arc<GraphDb>, Vec<Graph>) {
    let mut profile = subgraph_query::datagen::aids_like();
    profile.graphs = 200;
    let db = profile.generate(21);
    let mut queries = Vec::new();
    for (k, (edges, method)) in
        [(4, QueryGenMethod::RandomWalk), (8, QueryGenMethod::Bfs)].into_iter().enumerate()
    {
        queries.extend(generate_query_set(
            &db,
            QuerySetSpec { edges, method, count: 6 },
            210 + k as u64,
        ));
    }
    (Arc::new(db), queries)
}

#[test]
fn cfql_pairs_read_the_clock_once_when_pruned_and_six_times_when_not() {
    let (db, queries) = seeded_workload();
    let sink = StatsSink::with_clock(counting_clock);
    let matcher = matcher_by_name("CFQL").expect("CFQL is index-free");
    let (mut pruned_seen, mut unpruned_seen) = (0, 0);
    for threads in [1usize, 2, 4, 8] {
        let pool = QueryPool::new(threads);
        for (i, q) in queries.iter().enumerate() {
            sink.reset();
            let before = READS.load(Ordering::Relaxed);
            let deadline = Deadline::none().with_stats(sink);
            let out = pool.query(Arc::clone(&matcher), &db, q, deadline).outcome;
            let reads = READS.load(Ordering::Relaxed) - before;
            assert_eq!(out.status, QueryStatus::Completed);
            let unpruned = out.candidates as u64;
            let pruned = db.len() as u64 - unpruned;
            assert_eq!(
                reads,
                pruned + 6 * unpruned + pool.threads() as u64,
                "query {i}, {threads} threads: {pruned} pruned, {unpruned} unpruned"
            );
            pruned_seen += pruned;
            unpruned_seen += unpruned;
        }
    }
    assert!(pruned_seen > 0 && unpruned_seen > 0, "the workload must exercise both counts");
}
