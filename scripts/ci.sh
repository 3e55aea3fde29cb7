#!/usr/bin/env bash
# Tier-1 verification gate. Run from the repository root:
#
#   scripts/ci.sh            # full gate: build, test, fmt, clippy
#   scripts/ci.sh --fast     # skip clippy (quick pre-commit check)
#
# This is the one list of steps: .github/workflows/ci.yml runs this script.
# Suites run bare by `cargo test --workspace` are not re-run; a suite gets a
# step of its own only where it sets PROPTEST_CASES / SQP_FORCE_SCALAR /
# SQP_BENCH_SMOKE. The gated benches (calibration, phases, dynamic) each run
# once as an SQP_BENCH_SMOKE step.
#
# The build environment has no crates.io access; every external dependency is
# vendored under vendor/, so all steps run with --offline.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test --workspace (tier-1's root-package suites — io robustness corpus, golden metrics format, deadline paths, the distributed fault matrix on both wire hops, allocation accounting — plus the unit tests under crates/*/src: engines, runner, enumerate, deadline, wire, breaker reference, intersect kernels, overlay)"
cargo test -q --offline --workspace

echo "==> chaos suite (fixed seeds, 1/2/4/8 threads; breaker lifecycle, drain, serving determinism)"
# Deterministic fault injection: seeds pinned in tests/chaos.rs and
# EXPERIMENTS.md. PROPTEST_CASES bounds the randomized isolation property
# and the serving-determinism property.
PROPTEST_CASES=32 cargo test -q --offline --test chaos

echo "==> kernel equivalence (enumerator vs brute oracle x 1/2/4/8 threads over the three adjacency-row regimes: every probed vertex has a row, none has, mixed; bitmap memory accounting)"
PROPTEST_CASES=16 cargo test -q --offline --test kernel_equivalence

echo "==> kernel equivalence, forced scalar fallback (SQP_FORCE_SCALAR=1: the SIMD step must degrade to merge, not diverge — in the enumerator over static graphs, in the enumerator over the dynamic overlay (dynamic_equivalence), and in sqp_graph::intersect where the kernels live)"
SQP_FORCE_SCALAR=1 PROPTEST_CASES=16 cargo test -q --offline --test kernel_equivalence
SQP_FORCE_SCALAR=1 PROPTEST_CASES=16 cargo test -q --offline --test dynamic_equivalence
SQP_FORCE_SCALAR=1 cargo test -q --offline -p sqp-graph --lib

echo "==> calibration bench smoke (asserts and discards)"
SQP_BENCH_SMOKE=1 cargo bench --offline -p sqp-bench --bench calibration

echo "==> filter, order and enumerator differential suite (graph construction by placement vs the per-vertex-sort reference on every read, a churned overlay's compaction vs the builder, and exact-size blocks; run-index NLF, its packed signature and the three-way rule on it, adjacency rows, the overlay's signature column under every mutation, a rejected overlay batch undone to every read of a twin that never saw it and the arena's bound, the CFL filter in both generation directions, the join-size order and the one enumerator's three local-candidate paths and its overlay space vs the reference search, the overlay's NLF predicate vs the run merge and its order by attempt count; scratch hygiene; span trees and lap-rooted trees on the per-thread phase cursor vs the nested self-time model; the per-query control block's operations vs its reference model; every filter must name at least one test)"
differential() { # <cargo test target args> -- <filters>: 256 cases each, failing on a filter that names no test
  local args=()
  while [[ "$1" != "--" ]]; do args+=("$1"); shift; done
  shift
  for filter in "$@"; do
    tests=$(cargo test -q --offline "${args[@]}" -- --list "$filter" | grep -c ': test$' || true)
    if [[ "$tests" -eq 0 ]]; then
      echo "ci error: filter '$filter' of 'cargo test ${args[*]}' names no test" >&2
      exit 1
    fi
  done
  PROPTEST_CASES=256 cargo test -q --offline "${args[@]}" -- "$@"
}
differential --test graph_properties -- nlf_run_index construction_
differential -p sqp-matching --lib -- cfl:: graphql:: enumerate:: dynmatch:: obs:: deadline::
differential -p sqp-graph --lib -- nlf:: bitmap:: dynamic::

echo "==> oracle equivalence sweep (all matchers + engines vs brute oracle, pool at 1/2/4/8 threads)"
PROPTEST_CASES=256 cargo test -q --offline --test oracle_equivalence

echo "==> supervision suite (counter heartbeats: wedge escalation at 1/2/4/8 threads; journal torn-tail property, resume skip)"
PROPTEST_CASES=32 cargo test -q --offline --test supervision

echo "==> wire protocol suite (frame round-trip; truncation/bit-flip/over-cap fail closed)"
PROPTEST_CASES=32 cargo test -q --offline --test wire

echo "==> kill-then-resume smoke (journaled run killed mid-flight; --resume re-runs only the incomplete tail)"
smoke_dir=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
sqp=target/release/sqp
"$sqp" generate --kind synthetic --graphs 30 --vertices 12 --labels 4 --seed 5 \
  --out "$smoke_dir/db.bin" >/dev/null
"$sqp" queries --db "$smoke_dir/db.bin" --edges 4 --count 12 --seed 9 \
  --out "$smoke_dir/q.txt" >/dev/null
# First run: every matcher filter call is slowed so the run is guaranteed to
# still be in flight when SIGKILL lands mid-set.
timeout -s KILL 2 "$sqp" query --db "$smoke_dir/db.bin" --queries "$smoke_dir/q.txt" \
  --threads 2 --chaos-slow-ms 40 --journal "$smoke_dir/run.journal" >/dev/null 2>&1 || true
done_before=$(wc -l < "$smoke_dir/run.journal")
if [[ "$done_before" -ge 12 ]]; then
  echo "smoke error: first run finished all 12 queries before the kill; nothing to resume" >&2
  exit 1
fi
# Resumed run (no slowdown) must finish the set, re-running only the tail.
"$sqp" query --db "$smoke_dir/db.bin" --queries "$smoke_dir/q.txt" \
  --threads 2 --journal "$smoke_dir/run.journal" --resume >/dev/null
total=$(wc -l < "$smoke_dir/run.journal")
uniq_fps=$(awk '{print $3}' "$smoke_dir/run.journal" | sort | uniq -d | wc -l)
if [[ "$total" -ne 12 || "$uniq_fps" -ne 0 ]]; then
  echo "smoke error: expected 12 unique journal records (got $total lines, $uniq_fps duplicated fingerprints) — resume re-ran completed work" >&2
  exit 1
fi
echo "    kill-then-resume: $done_before completed before kill, $((12 - done_before)) resumed, no duplicates"

echo "==> sharded serving smoke (3-shard loopback cluster; one shard SIGKILLed -> exit 2, partial results, /metrics scrape)"
wait_listening() { # file -> prints the ADDR from the first "listening ADDR" line
  for _ in $(seq 1 200); do
    if grep -q '^listening ' "$1" 2>/dev/null; then
      awk '/^listening /{print $2; exit}' "$1"
      return 0
    fi
    sleep 0.05
  done
  echo "smoke error: no 'listening' line in $1 after 10s" >&2
  return 1
}
shard_pids=()
for i in 0 1 2; do
  target/release/sqp-shard --db "$smoke_dir/db.bin" --shard-index "$i" --shards 3 \
    > "$smoke_dir/shard$i.out" 2> "$smoke_dir/shard$i.err" &
  shard_pids+=($!)
done
shard_addrs=()
for i in 0 1 2; do
  shard_addrs+=("$(wait_listening "$smoke_dir/shard$i.out")")
done
# Fast retry/idle knobs so the dead-shard read deadline does not dominate the smoke.
"$sqp" serve --db "$smoke_dir/db.bin" \
  --shards "${shard_addrs[0]},${shard_addrs[1]},${shard_addrs[2]}" \
  --retries 1 --retry-backoff-ms 5 --idle-timeout-ms 500 \
  --metrics-addr 127.0.0.1:0 \
  > "$smoke_dir/serve.out" 2> "$smoke_dir/serve.err" &
serve_pid=$!
serve_addr=$(wait_listening "$smoke_dir/serve.out")
# Healthy cluster: every query completes, exit 0, nothing Unavailable.
"$sqp" client --db "$smoke_dir/db.bin" --queries "$smoke_dir/q.txt" \
  --addr "$serve_addr" > "$smoke_dir/client_healthy.out"
if grep -q 'UNAVAILABLE' "$smoke_dir/client_healthy.out"; then
  echo "smoke error: healthy cluster reported UNAVAILABLE results" >&2
  exit 1
fi
# SIGKILL shard 1: the same query set must now degrade (exit 2) to partial
# results with the dead shard's graphs attributed UNAVAILABLE — never a
# whole-run failure.
kill -9 "${shard_pids[1]}"
wait "${shard_pids[1]}" 2>/dev/null || true
set +e
"$sqp" client --db "$smoke_dir/db.bin" --queries "$smoke_dir/q.txt" \
  --addr "$serve_addr" > "$smoke_dir/client_degraded.out"
degraded_rc=$?
set -e
if [[ "$degraded_rc" -ne 2 ]]; then
  echo "smoke error: degraded client run must exit 2 (got $degraded_rc)" >&2
  exit 1
fi
if ! grep -q 'UNAVAILABLE' "$smoke_dir/client_degraded.out"; then
  echo "smoke error: degraded run did not attribute the dead shard UNAVAILABLE" >&2
  exit 1
fi
# Scrape the coordinator's Prometheus endpoint: all four sqp_shard_* families
# must be present, and the dead peer's breaker must have left Closed.
metrics_hostport=$(sed -n 's#^metrics on http://\([^/]*\)/metrics$#\1#p' "$smoke_dir/serve.err" | head -n1)
scrape=$(bash -c "exec 3<>/dev/tcp/${metrics_hostport%:*}/${metrics_hostport##*:} \
  && printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3 && timeout 5 cat <&3")
for family in sqp_shard_queries_total sqp_shard_retries_total \
              sqp_shard_unavailable_total sqp_shard_breaker_state; do
  if ! grep -q "^$family{" <<<"$scrape"; then
    echo "smoke error: /metrics scrape is missing the $family family" >&2
    exit 1
  fi
done
tripped=$(grep -c '^sqp_shard_breaker_state{[^}]*} [12]$' <<<"$scrape" || true)
if [[ "$tripped" -ne 1 ]]; then
  echo "smoke error: expected exactly 1 tripped peer breaker, scrape shows $tripped" >&2
  grep '^sqp_shard_breaker_state' <<<"$scrape" >&2 || true
  exit 1
fi
# Orderly drain: coordinator first, then the surviving shards; all exit 0.
kill -INT "$serve_pid"
wait "$serve_pid"
kill -INT "${shard_pids[0]}" "${shard_pids[2]}"
wait "${shard_pids[0]}" "${shard_pids[2]}"
echo "    sharded serving: healthy run clean, SIGKILL degraded to exit 2 + UNAVAILABLE, breaker open on 1 peer, drain clean"

echo "==> phase-breakdown bench smoke (asserts span sum ~= wall, ~1 span-clock read per pair, and on one CPU QueryService - CfqlEngine <= 40 us/query; report discarded)"
# Built unpinned, run on one CPU: the serving gate prices the layers, not a
# cross-CPU wake-up (the bench skips the gate when it sees more than one).
cargo bench --offline -p sqp-bench --bench phases --no-run
SQP_BENCH_SMOKE=1 taskset -c 0 cargo bench --offline -p sqp-bench --bench phases

echo "==> dynamic equivalence suite (I10: repaired == recomputed at 1/2/4/8 threads, over plain and nibble-sharing label families; seed-index repair and direct-CSR compaction vs their references; a seeded search vs the brute extensions of its pins, dead and out-of-range pins included; overlay/compaction vs independent rebuild; malformed batches fail closed, undone so that a twin matcher that never saw them reports the same next batch and compaction)"
PROPTEST_CASES=256 cargo test -q --offline --test dynamic_equivalence

echo "==> dynamic bench smoke (asserts repair beats re-query and overlay beats rebuild; report discarded)"
SQP_BENCH_SMOKE=1 cargo bench --offline -p sqp-bench --bench dynamic

echo "==> update-stream smoke (sqp update: mixed update/query traffic, metrics, materialized --out)"
"$sqp" generate --kind synthetic --graphs 2 --vertices 40 --labels 6 --seed 11 \
  --out "$smoke_dir/dyn.bin" >/dev/null
"$sqp" queries --db "$smoke_dir/dyn.bin" --edges 2 --count 1 --seed 3 \
  --out "$smoke_dir/dynq.txt" >/dev/null
printf 'av 1\nae 40 0\n--\nquery 0\nrv 3\n--\n' > "$smoke_dir/updates.txt"
"$sqp" update --db "$smoke_dir/dyn.bin" --queries "$smoke_dir/dynq.txt" --updates "$smoke_dir/updates.txt" \
  --out "$smoke_dir/dyn2.bin" --metrics-out "$smoke_dir/dyn.prom" > "$smoke_dir/update.out"
grep -q '^applied 3 updates in 2 batches' "$smoke_dir/update.out" || {
  echo "smoke error: sqp update did not report 3 applied updates in 2 batches" >&2; exit 1; }
grep -q '^sqp_updates_applied_total 3$' "$smoke_dir/dyn.prom" || {
  echo "smoke error: sqp update metrics missing sqp_updates_applied_total 3" >&2; exit 1; }
"$sqp" stats --db "$smoke_dir/dyn2.bin" >/dev/null || {
  echo "smoke error: materialized --out database failed to load" >&2; exit 1; }
# A malformed update line must fail closed with exit 1.
set +e
printf 'frob 1 2\n--\n' | "$sqp" update --db "$smoke_dir/dyn.bin" --watch >/dev/null 2>&1
malformed_rc=$?
set -e
if [[ "$malformed_rc" -ne 1 ]]; then
  echo "smoke error: malformed update stream must exit 1 (got $malformed_rc)" >&2
  exit 1
fi
echo "    update stream: 2 batches applied, metrics written, materialized db loads, malformed line -> exit 1"

echo "==> benchmark ledger: unit tests + smoke run (every workload ~1 s, correctness gates only, writes nothing)"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke

echo "==> cargo fmt --check"
cargo fmt --check

if [[ "$fast" == 0 ]]; then
  echo "==> cargo clippy (all targets, -D warnings)"
  cargo clippy --offline --workspace --all-targets -- -D warnings
fi

echo "==> non-test lines per crate (scripts/loc.sh: the count the ROADMAP tracks)"
scripts/loc.sh

echo "CI gate passed."
