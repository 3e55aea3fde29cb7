//! What `sqp` and `sqp-shard` share: strict `--flag value` parsing against
//! the names a (sub)command declares, database and query-set loading, the
//! flags and report lines more than one (sub)command has, the SIGINT drain
//! trigger, and the life of a wire server from `listening ADDR` to drain.

use std::fs::File;
use std::io::{BufReader, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use subgraph_query::core::prelude::*;
use subgraph_query::graph::{binio, io, Graph, GraphDb};
use subgraph_query::matching::Matcher;

/// Parsed command-line options of one (sub)command.
pub struct Opts {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Opts {
    /// Parses `args` against the value-taking `flags` and the bare
    /// `switches` the command accepts (space-separated names); any other
    /// name is an error, so a misspelt flag fails instead of silently
    /// running with a default.
    pub fn parse(args: &[String], flags: &str, switches: &str) -> Result<Self, String> {
        let mut opts = Self { flags: Vec::new(), switches: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            if switches.split_whitespace().any(|s| s == name) {
                opts.switches.push(name.to_string());
            } else if flags.split_whitespace().any(|f| f == name) {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                opts.flags.push((name.to_string(), v.clone()));
            } else {
                return Err(format!("unknown option '--{name}'"));
            }
        }
        Ok(opts)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing required --{name}"))
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{name} value '{v}'")),
        }
    }

    #[allow(dead_code)] // `sqp-shard` declares no switches
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Loads a database: the binary format for `.bin` paths, `t # / v / e` text
/// otherwise.
pub fn load_db(path: &str) -> Result<GraphDb, String> {
    if path.ends_with(".bin") {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        return binio::from_bytes(bytes.as_slice())
            .map_err(|e| format!("cannot parse {path}: {e}"));
    }
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    io::read_database(BufReader::new(f)).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Loads a query set in the text format, labels interned against `db`'s.
#[allow(dead_code)] // `sqp-shard` is sent its queries
pub fn load_queries(path: &str, db: &GraphDb) -> Result<Vec<Graph>, String> {
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    io::read_graphs(BufReader::new(f), &mut db.interner().clone()).map_err(|e| e.to_string())
}

/// Wraps `matcher` in a [`SlowMatcher`] when `--chaos-slow-ms` is given — a
/// deterministic per-filter-call delay: the kill/resume CI smoke uses it to
/// guarantee the run is still in flight when it is killed, the distributed
/// suite to play the slow shard.
pub fn apply_chaos_slow(
    opts: &Opts,
    matcher: Arc<dyn Matcher>,
) -> Result<Arc<dyn Matcher>, String> {
    let slow_ms: u64 = opts.num("chaos-slow-ms", 0u64)?;
    if slow_ms > 0 {
        Ok(Arc::new(SlowMatcher::new(matcher, Duration::from_millis(slow_ms))))
    } else {
        Ok(matcher)
    }
}

/// Parses the breaker flags: per graph for `sqp query` and `sqp-shard`, per
/// peer for `sqp serve`.
pub fn breaker_from_opts(opts: &Opts) -> Result<BreakerConfig, String> {
    match opts.get("breaker-threshold") {
        None => Ok(BreakerConfig::default()),
        Some(_) => Ok(BreakerConfig {
            fault_threshold: opts.num("breaker-threshold", 0u32)?,
            cooldown: opts.num("breaker-cooldown", BreakerConfig::default().cooldown)?,
        }),
    }
}

/// The per-query result line of `sqp query` and `sqp client`; degraded
/// queries carry a status tag (and their retries).
#[allow(dead_code)] // `sqp-shard` reports over the wire
pub fn query_line(i: usize, r: &QueryRecord) -> String {
    let mut tag = match &r.status {
        QueryStatus::Completed => String::new(),
        QueryStatus::TimedOut => " TIMEOUT".to_string(),
        QueryStatus::Quarantined => " QUARANTINED".to_string(),
        QueryStatus::Panicked { .. } => " PANIC".to_string(),
        QueryStatus::ResourceExhausted { kind } => format!(" EXHAUSTED({kind})"),
        QueryStatus::Wedged => " WEDGED".to_string(),
        QueryStatus::Unavailable => " UNAVAILABLE".to_string(),
        QueryStatus::Shed => " SHED".to_string(),
    };
    if r.retries > 0 && !tag.is_empty() {
        tag += &format!(" retries={}", r.retries);
    }
    format!(
        "query {i}: answers={} candidates={} filter={:.3}ms verify={:.3}ms{tag}",
        r.answers,
        r.candidates,
        r.filter_time.as_secs_f64() * 1e3,
        r.verify_time.as_secs_f64() * 1e3,
    )
}

/// The stderr line reporting how a drain went.
pub fn drain_line(d: &DrainReport) -> String {
    format!(
        "drain: finished {} shed-at-drain {} within-deadline {}",
        d.finished, d.shed_at_drain, d.drained_within_deadline
    )
}

/// Set by the first SIGINT (Ctrl-C): start a graceful drain instead of
/// dying. Elsewhere than on Unix only `--drain-after-ms` can trigger one.
static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Routes the first SIGINT to [`drain_requested`]. The handler then restores
/// the default disposition, so a *second* Ctrl-C actually kills a process
/// whose drain is stuck (a wedged worker, an unkillable matcher).
#[cfg(unix)]
pub fn install_drain_handler() {
    extern "C" fn on_sigint(_: i32) {
        DRAIN_REQUESTED.store(true, Ordering::SeqCst);
        // SAFETY: `signal` is async-signal-safe, SIGINT is a valid signal
        // number and SIG_DFL (0) a valid disposition.
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;
    // SAFETY: libc's `signal(int, void (*)(int))` with a valid signal number
    // and a handler that only stores to an atomic and calls `signal`, both
    // async-signal-safe.
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
pub fn install_drain_handler() {}

pub fn drain_requested() -> bool {
    DRAIN_REQUESTED.load(Ordering::SeqCst)
}

/// The life of a started wire server (`sqp-shard`, `sqp serve`): announces
/// the bound address as the `listening ADDR` line scripts wait for, serves
/// until SIGINT, then drains.
pub fn serve_until_interrupted(server: WireServer, what: &str) {
    println!("listening {}", server.local_addr());
    let _ = std::io::stdout().flush();
    eprintln!("{what}; Ctrl-C drains");
    install_drain_handler();
    while !drain_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("drain: closing connections, then waiting out in-flight work");
    eprintln!("{}", drain_line(&server.shutdown()));
}
