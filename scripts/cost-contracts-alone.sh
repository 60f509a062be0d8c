#!/usr/bin/env bash
# Run every cost contract (`tests/cost_contracts.rs`) in its own
# process, release build, `--exact`: a contract must read the same
# alone as in its suite, so one whose count depends on what ran before
# it in the same process (a symbol interned, a leaf grown) fails here.
#
#   scripts/cost-contracts-alone.sh
#
# Prints one line per contract and exits non-zero if any fails alone.
# Run from anywhere inside the repository.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
cargo test --release --test cost_contracts --no-run
tests=$(cargo test -q --release --test cost_contracts -- --list 2>/dev/null |
    sed -n 's/: test$//p')
[ -n "$tests" ] || { echo "cost-contracts-alone: no contracts listed" >&2; exit 1; }
failed=0
for t in $tests; do
    if cargo test -q --release --test cost_contracts -- --exact "$t" >/dev/null 2>&1; then
        printf 'ok      %s\n' "$t"
    else
        printf 'FAILED  %s\n' "$t"
        failed=$((failed + 1))
    fi
done
if [ "$failed" -gt 0 ]; then
    echo "cost-contracts-alone: $failed contract(s) failed alone" >&2
    exit 1
fi
