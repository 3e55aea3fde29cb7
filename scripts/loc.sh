#!/usr/bin/env bash
# Non-test lines of Rust per crate: for every file, the lines before its first
# `#[cfg(test)]` (the whole file when it has none). Run from anywhere:
#
#   scripts/loc.sh            # this checkout
#   scripts/loc.sh <dir>      # another checkout (e.g. a clone of the parent commit)
#
# A PR that claims to shrink the code prints this before and after.

set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

count() { # dir... -> non-test lines in every .rs file under the dirs
  find "$@" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
  n=$(count "$dir")
  printf '%-22s %6d\n' "$dir" "$n"
  total=$((total + n))
done
printf '%-22s %6d\n' "total" "$total"
printf '%-22s %6d\n' "core+matching+src" "$(count crates/core/src crates/matching/src src)"
for f in crates/core/src/engines.rs crates/core/src/runner.rs; do
  printf '%-22s %6d\n' "$(basename "$f")" "$(count "$f")"
done
