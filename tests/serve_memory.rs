//! A long-running server's memory does not grow with the queries it serves.
//!
//! The `/metrics` counters of a [`ShardServer`] are a fixed-size fold, so
//! the 1 001st to 2 000th queries served leave no more live heap behind them
//! than a few transient buffers. The binary installs a global allocator that
//! counts live bytes across every thread: the server's accept and
//! connection threads and the query service's executor allocate on threads
//! of their own, which a per-thread count cannot see. It holds one test, so
//! nothing else runs while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use subgraph_query::core::journal::db_fingerprint;
use subgraph_query::core::{
    Greeting, QueryStatus, ServiceConfig, ShardServer, ShardServerConfig, WireClient, WireConfig,
};
use subgraph_query::graph::{Graph, GraphBuilder, GraphDb, Label, VertexId};
use subgraph_query::matching::cfql::Cfql;

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// A labelled path `0 - 1 - … - (n-1)` with label `i % 3` on vertex `i`.
fn path(n: u32) -> Graph {
    let mut b = GraphBuilder::new();
    for v in 0..n {
        b.add_vertex(Label(v % 3));
    }
    for v in 1..n {
        b.add_edge(VertexId(v - 1), VertexId(v)).unwrap();
    }
    b.build()
}

const PATIENCE: Duration = Duration::from_secs(10);

/// Serves 2 000 one-edge queries and compares the live heap after the
/// 1 000th with the live heap after the 2 000th. Before the fold, the
/// server kept one 224-byte record per query served (≈ 224 KiB here).
#[test]
fn served_queries_leave_the_live_heap_flat() {
    let db = GraphDb::from_graphs((0..20).map(|i| path(4 + i % 5)).collect());
    let config = ShardServerConfig {
        service: ServiceConfig { threads: 1, ..Default::default() },
        ..Default::default()
    };
    let mut server = ShardServer::start(Arc::new(Cfql::new()), &db, config).unwrap();
    let metrics = server.serve_metrics("127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let greeting = Greeting::coordinator(db_fingerprint(&db), 1, 0);
    let wire = WireConfig::default();
    let mut client = WireClient::connect(&addr, greeting, db.len(), wire, PATIENCE, PATIENCE)
        .expect("the shard accepts a coordinator");
    let q = path(2);

    let mut live_at = Vec::new();
    let mut text = String::new();
    for served in 1..=2_000u32 {
        let (answers, outcome) = client.query(&q, None, PATIENCE).unwrap();
        assert_eq!(answers.len(), 20, "every path has a 0-1 edge");
        assert_eq!(outcome.status, QueryStatus::Completed);
        if served % 1_000 == 0 {
            live_at.push(LIVE.load(Ordering::Relaxed));
        }
        if served == 1_500 {
            text = scrape(metrics);
        }
    }
    let grown = live_at[1] - live_at[0];
    assert!(grown < 32 << 10, "live heap grew {grown} B over the second 1 000 queries");
    let completed = r#"sqp_queries_total{engine="shard",query_set="shard-0",status="completed"}"#;
    assert!(
        text.contains(&format!("{completed} 1500\n")),
        "the scrape counts every query:\n{text}"
    );
    client.bye();
    server.shutdown();
}

/// One HTTP `GET /metrics`; returns the body.
fn scrape(addr: SocketAddr) -> String {
    let mut scraper = TcpStream::connect(addr).unwrap();
    scraper.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut answer = String::new();
    scraper.read_to_string(&mut answer).unwrap();
    let (head, body) = answer.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    body.to_string()
}
