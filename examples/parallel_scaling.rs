//! Multi-core scaling of index-free subgraph queries.
//!
//! Grapes uses 6 worker threads (§IV-A); the vcFV framework parallelizes
//! even more naturally because every data graph's filter+verify is
//! independent. This example fans CFQL queries over 1–8 workers of the
//! persistent work-stealing [`QueryPool`] and prints the wall-clock speedup.
//!
//! ```text
//! cargo run --release --example parallel_scaling
//! ```

use std::sync::Arc;

use subgraph_query::core::parallel::QueryPool;
use subgraph_query::datagen::graphgen;
use subgraph_query::datagen::query::{generate_query, QueryGenMethod};
use subgraph_query::matching::cfql::Cfql;
use subgraph_query::matching::{Deadline, Matcher};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A database big enough that fan-out matters.
    let db = Arc::new(graphgen::generate(3_000, 120, 12, 6.0, 77));
    println!("database: {} graphs of 120 vertices (degree 6)\n", db.len());

    let mut rng = StdRng::seed_from_u64(5);
    let queries: Vec<_> = (0..10)
        .map(|_| generate_query(&db, QueryGenMethod::RandomWalk, 12, &mut rng).unwrap())
        .collect();
    let matcher: Arc<dyn Matcher> = Arc::new(Cfql::new());

    // Scaling tops out at the machine's physical parallelism; going beyond
    // available cores only adds scheduling overhead.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut thread_counts = vec![1usize];
    let mut t = 2;
    while t <= cores {
        thread_counts.push(t);
        t *= 2;
    }
    println!("machine parallelism: {cores} cores\n");

    println!("{:>8} {:>14} {:>10} {:>10}", "threads", "pool(ms)", "speedup", "answers");
    let (mut base_ms, mut base_answers) = (0.0, 0usize);
    for threads in thread_counts {
        let pool = QueryPool::new(threads);
        let (mut ms, mut answers) = (0.0, 0usize);
        for q in &queries {
            let r = pool.query(Arc::clone(&matcher), &db, q, Deadline::none());
            ms += r.wall_time.as_secs_f64() * 1e3;
            answers += r.outcome.answers.len();
        }
        if threads == 1 {
            (base_ms, base_answers) = (ms, answers);
        }
        assert_eq!(answers, base_answers, "invariant I4");
        println!("{threads:>8} {ms:>14.1} {:>9.2}x {answers:>10}", base_ms / ms);
    }

    println!(
        "\nPer-graph independence makes vcFV queries embarrassingly parallel.\n\
         The pool distributes dynamically: idle workers claim the next\n\
         unfinished graph instead of idling behind a straggler, and a\n\
         timed-out worker cancels its siblings cooperatively."
    );
}
