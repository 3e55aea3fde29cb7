//! `sqp-shard` — one shard worker of the distributed query service.
//!
//! ```text
//! sqp-shard --db <file> --shard-index N --shards N [--listen ADDR]
//!           [--engine <name>] [--threads N] [--budget-ms N] [--retries N]
//!           [--breaker-threshold N] [--breaker-cooldown N]
//!           [--chaos-slow-ms N] [--chaos-seed N]
//!           [--chaos-drop-pm PM] [--chaos-truncate-pm PM]
//!           [--chaos-corrupt-pm PM] [--chaos-delay-pm PM] [--chaos-delay-ms N]
//! ```
//!
//! This file is argument parsing: it loads the **full** database and starts
//! the library's one wire server as a shard worker (`WireServer::start`),
//! which derives its own slice from the fingerprint-hash placement
//! (`graph_fingerprint % shards`) and serves the wire protocol on
//! `--listen` (port 0 lets the OS pick; the bound address is printed as
//! `listening ADDR` for scripts). Each query runs through the same
//! admission-controlled, breaker-protected `QueryService` the
//! single-process CLI uses.
//!
//! The `--chaos-*-pm` flags arm the deterministic outbound frame chaos
//! plan (per-mille of frames dropped / truncated / bit-flipped / delayed)
//! used by the fault-tolerance suite to play the "corrupting shard".
//! Ctrl-C drains the service (finish in-flight work, then exit 0).

mod cli;

use std::process::ExitCode;
use std::time::Duration;

use subgraph_query::core::prelude::*;

use cli::{apply_chaos_slow, breaker_from_opts, load_db, serve_until_interrupted, Opts};

const HELP: &str = "\
sqp-shard — one shard worker of the distributed query service

USAGE:
  sqp-shard --db <file> --shard-index N --shards N [--listen ADDR]
            [--engine <name>] [--threads N] [--budget-ms N] [--retries N]
            [--breaker-threshold N] [--breaker-cooldown N]
            [--chaos-slow-ms N] [--chaos-seed N]
            [--chaos-drop-pm PM] [--chaos-truncate-pm PM]
            [--chaos-corrupt-pm PM] [--chaos-delay-pm PM] [--chaos-delay-ms N]

Serves its fingerprint-hash slice of the database over the sqp wire
protocol. Prints `listening ADDR` once ready; Ctrl-C drains and exits 0.";

/// Every flag `sqp-shard` accepts; each takes a value.
const FLAGS: &str = "db shard-index shards listen engine threads budget-ms retries \
    breaker-threshold breaker-cooldown chaos-slow-ms chaos-seed chaos-drop-pm \
    chaos-truncate-pm chaos-corrupt-pm chaos-delay-pm chaos-delay-ms";

fn run(opts: &Opts) -> Result<(), String> {
    let db = load_db(opts.require("db")?)?;
    let shard_index: usize = opts.num("shard-index", 0usize)?;
    let shards: usize = opts.num("shards", 1usize)?;
    if shard_index >= shards {
        return Err(format!("--shard-index {shard_index} out of range for --shards {shards}"));
    }
    let engine_name = opts.get("engine").unwrap_or("CFQL");
    let matcher = matcher_by_name(engine_name)
        .ok_or_else(|| format!("'{engine_name}' is not a matcher (vcFV) engine"))?;
    let matcher = apply_chaos_slow(opts, matcher)?;

    let mut runner =
        RunnerConfig::with_budget(Duration::from_millis(opts.num("budget-ms", 600_000u64)?));
    runner.max_retries = opts.num("retries", 0u32)?;
    let service = ServiceConfig {
        threads: opts.num("threads", 1usize)?,
        runner,
        breaker: breaker_from_opts(opts)?,
        thread_prefix: format!("sqp-shard-{shard_index}"),
        ..Default::default()
    };

    let chaos_config = WireChaosConfig {
        seed: opts.num("chaos-seed", 42u64)?,
        drop_per_mille: opts.num("chaos-drop-pm", 0u16)?,
        truncate_per_mille: opts.num("chaos-truncate-pm", 0u16)?,
        corrupt_per_mille: opts.num("chaos-corrupt-pm", 0u16)?,
        delay_per_mille: opts.num("chaos-delay-pm", 0u16)?,
        delay_ms: opts.num("chaos-delay-ms", 0u64)?,
    };
    let chaos_armed = chaos_config.drop_per_mille > 0
        || chaos_config.truncate_per_mille > 0
        || chaos_config.corrupt_per_mille > 0
        || chaos_config.delay_per_mille > 0;

    let config = ShardServerConfig {
        addr: opts.get("listen").unwrap_or("127.0.0.1:0").to_string(),
        shard_index,
        shards,
        service,
        wire: WireConfig::default(),
        chaos: chaos_armed.then(|| WireChaos::new(chaos_config)),
    };
    let server = WireServer::start(matcher, &db, config)
        .map_err(|e| format!("cannot start shard server: {e}"))?;
    let what = format!(
        "shard {shard_index}/{shards}: {} of {} graphs, engine {engine_name}{}",
        server.graphs(),
        db.len(),
        if chaos_armed { " (wire chaos armed)" } else { "" },
    );
    serve_until_interrupted(server, &what);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match Opts::parse(&args, FLAGS, "").and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{HELP}\n\nerror: {e}");
            ExitCode::FAILURE
        }
    }
}
