#!/usr/bin/env bash
# Non-test line count of the evaluation core — the matcher, `T_P`, the
# fixpoint engine and the object store — against ROADMAP item 4's
# budget of 3 155 lines. A file's non-test lines are those above its
# first `#[cfg(test)]` line (the whole file if it has none).
#
#   scripts/core-lines.sh
#
# Prints one line per file and the total; exits non-zero when the total
# exceeds the budget. Run from anywhere inside the repository.
set -euo pipefail

budget=3155
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
total=0
for f in crates/core/src/matcher.rs crates/core/src/tp.rs crates/core/src/engine.rs \
    crates/obase/src/base.rs; do
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$root/$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total (budget %d)\n' "$total" "$budget"
if [ "$total" -gt "$budget" ]; then
    echo "core-lines: $total non-test lines exceed the budget of $budget" >&2
    exit 1
fi
