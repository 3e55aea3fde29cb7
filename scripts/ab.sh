#!/usr/bin/env bash
# The benchmark ledger as one command: order-alternated pairs of runs of a
# parent revision and of this working tree, then the table of change ÷ parent.
#
#   scripts/ab.sh <parent-rev> [workload…] [--pairs N] [--seconds S]
#
# Defaults: every workload of BENCHMARK.json, 10 pairs, BENCHMARK.json's
# run_seconds. The parent is exported with `git archive` into a temporary
# directory (a worktree would leave an entry in .git) and both sides'
# benchmark binaries are built from their own sources into their own target
# directories. Pair k runs both sides on seed 42 + k - 1 (the benchmark's
# `run --runs` seeds), the parent first in odd pairs and the change first in
# even ones, each run a fresh `run --workload W --seed S --seconds T --trace 0`
# process. Everything lands in one directory under ${TMPDIR:-/tmp}, named on
# the first and last lines of output: each run's stdout, parent.json and
# change.json in the benchmark's result-file shape, the benchmark's own
# `compare` of the two, and table.md.
#
# table.md has one row per workload and, per end-to-end metric, the median
# ratio change ÷ parent, the pairs the change won, the parent's quartile
# spread (IQR ÷ median) and a verdict:
#   met         the change is better in at least 9 of 10 pairs and its median
#               is better by more than the parent's interquartile distance
#   unresolved  either side's quartile spread exceeds the metric's bound
#   worse       the median is worse by more than the metric's bound
#   unchanged   none of these
# This script sets no bound of its own: the bounds are BENCHMARK.json's.
#
# The body is one `{ … }` block, so bash has read all of it before the first
# run starts: editing this file during an hour-long run cannot change the run.

{
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo"

usage() {
  echo "usage: scripts/ab.sh <parent-rev> [workload…] [--pairs N] [--seconds S]" >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
for tool in jq python3; do
  command -v "$tool" >/dev/null || { echo "ab: needs $tool on PATH" >&2; exit 2; }
done
parent_rev=$1
shift
pairs=10
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
workloads=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --pairs) [[ $# -ge 2 ]] || usage; pairs=$2; shift 2 ;;
    --seconds) [[ $# -ge 2 ]] || usage; seconds=$2; shift 2 ;;
    -*) usage ;;
    *) workloads+=("$1"); shift ;;
  esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab: --pairs must be a positive count" >&2; exit 2; }
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi
for w in "${workloads[@]}"; do
  jq -e --arg w "$w" '.workloads | any(.name == $w)' BENCHMARK.json >/dev/null ||
    { echo "ab: unknown workload '$w'" >&2; exit 2; }
done
parent_sha=$(git rev-parse --verify "$parent_rev^{commit}")

out=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
echo "ab: parent ${parent_sha:0:10} vs the working tree; ${#workloads[@]} workload(s) × $pairs pairs × ${seconds}s; output in $out"

mkdir -p "$out/parent/src" "$out/runs"
git archive "$parent_sha" | tar -x -C "$out/parent/src"
build() { # source dir, target dir -> path of the sqp-benchmark binary
  CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml" >&2
  echo "$2/release/sqp-benchmark"
}
parent_bin=$(build "$out/parent/src" "$out/parent/target")
change_bin=$(build "$repo" "$out/change-target")

run() { # side, binary, workload, pair, seed
  local log="$out/runs/$3.$4.$1.out"
  if ! "$2" run --workload "$3" --seed "$5" --seconds "$seconds" --trace 0 > "$log"; then
    echo "ab: $1 run of $3 (pair $4, seed $5) failed; see $log" >&2
  fi
}
for w in "${workloads[@]}"; do
  for ((k = 1; k <= pairs; k++)); do
    seed=$((42 + k - 1))
    if ((k % 2 == 1)); then
      run parent "$parent_bin" "$w" "$k" "$seed"
      run change "$change_bin" "$w" "$k" "$seed"
    else
      run change "$change_bin" "$w" "$k" "$seed"
      run parent "$parent_bin" "$w" "$k" "$seed"
    fi
    echo "ab: $w pair $k/$pairs done"
  done
done

# The two result files, in the shape `sqp-benchmark compare` reads (each
# run's last stdout line is its result object), then the table.
python3 - "$out" "$repo/BENCHMARK.json" "$pairs" "$seconds" "${workloads[@]}" <<'EOF'
import json, math, sys

out, manifest_path, pairs, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
workloads = sys.argv[5:]
manifest = json.load(open(manifest_path))

def result(side, w, k):
    try:
        lines = open(f"{out}/runs/{w}.{k}.{side}.out").read().splitlines()
        return json.loads(lines[-1])
    except (OSError, IndexError, ValueError):
        return None

runs = {side: {w: [result(side, w, k) for k in range(1, pairs + 1)] for w in workloads}
        for side in ("parent", "change")}
for side, per in runs.items():
    doc = {"side": side, "seconds": seconds,
           "workloads": {w: {"runs": [r for r in rs if r]} for w, rs in per.items()}}
    json.dump(doc, open(f"{out}/{side}.json", "w"), indent=1)

def median(xs):
    v = sorted(xs)
    n = len(v)
    return v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2

def iqr(xs):
    # Python's statistics.quantiles(n=4), exclusive method, as the
    # benchmark's own `quartile_spread`.
    v = sorted(xs)
    n = len(v)
    if n < 2:
        return None
    def q(k):
        pos = k * (n + 1) / 4
        lo = min(max(math.floor(pos), 1), n - 1)
        return v[lo - 1] + (v[lo] - v[lo - 1]) * (pos - lo)
    return q(3) - q(1)

metrics = manifest["end_to_end"]
head = "| workload | pairs | " + " | ".join(f"`{m['name']}`" for m in metrics) + " |"
lines = [head, "|" + "---|" * (len(metrics) + 2)]
failed = attempted = 0
for w in workloads:
    both = [(p, c) for p, c in zip(runs["parent"][w], runs["change"][w]) if p and c]
    for p, c in both:
        for r in (p, c):
            failed += r["failed"]
            attempted += r["attempted"]
    cells = []
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        pv = [p["metrics"][name]["value"] for p, _ in both]
        cv = [c["metrics"][name]["value"] for _, c in both]
        if not pv:
            cells.append("-")
            continue
        pm, cm = median(pv), median(cv)
        won = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        p_iqr, c_iqr = iqr(pv), iqr(cv)
        spread = lambda d, med: None if d is None or med == 0 else d / abs(med)
        p_spread, c_spread = spread(p_iqr, pm), spread(c_iqr, cm)
        worse_by = (cm - pm) / abs(pm) if lower else (pm - cm) / abs(pm)
        gain = (pm - cm) if lower else (cm - pm)
        if won >= math.ceil(0.9 * len(both)) and p_iqr is not None and gain > p_iqr:
            verdict = "met"
        elif any(s is not None and s > bound for s in (p_spread, c_spread)):
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "worse"
        else:
            verdict = "unchanged"
        shown = "-" if p_spread is None else f"{p_spread:.2f}"
        cells.append(f"{cm / pm:.2f} ({won}/{len(both)}, {shown}) {verdict}")
    lines.append(f"| `{w}` | {len(both)} | " + " | ".join(cells) + " |")
lines.append("")
lines.append("Each cell: change ÷ parent median (pairs the change won, parent IQR ÷ median) verdict.")
lines.append(f"Failed operations: {failed} of {attempted}.")
missing = sum(1 for per in runs.values() for rs in per.values() for r in rs if not r)
if missing:
    lines.append(f"Runs without a result object: {missing}.")
text = "\n".join(lines) + "\n"
open(f"{out}/table.md", "w").write(text)
print(text, end="")
EOF

echo
"$change_bin" compare "$out/parent.json" "$out/change.json" | tee "$out/compare.txt" || true
echo "ab: results in $out"
exit
}
