#!/usr/bin/env bash
# Per-layer metrics of one benchmark workload, parent and change side
# by side: the attribution table a performance claim cites beside its
# end-to-end pairs (scripts/bench-pairs.sh).
#
#   scripts/layers-pair.sh <parent-exe> <change-exe> <workload> [seed=1]
#
# Runs each executable traced (`--trace 1`, 6 s) twice, alternating
# which side runs first: parent, change, change, parent. Prints one
# line per per-layer metric with each side's two values in run order
# (counts exact, the rest to four significant digits), separated by
# " / ", and exits non-zero if a run produces no metrics. The
# benchmark's span tables go to stderr.
# Build the executables as for bench-pairs.sh. Collect the four
# workloads into records/prNN-layers.txt:
#
#   for w in batch_update closure_rounds txn_stream point_query; do
#       scripts/layers-pair.sh P C "$w"
#   done | tee records/pr40-layers.txt
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$1 change=$2 workload=$3
seed=${4:-1} pairs=2 seconds=6

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Append each metric of one traced run as a `name value` line to $tmp/<side>.
run_side() { # side exe
    local line
    line=$("$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 | tail -n 1)
    grep -o '"[A-Za-z0-9_.]*":{"value":[-0-9.eE+]*' <<<"$line" |
        sed 's/^"\([^"]*\)":{"value":/\1 /' >"$tmp/run" || true
    [ -s "$tmp/run" ] || { echo "$1: no per-layer metrics: $line" >&2; exit 1; }
    cat "$tmp/run" >>"$tmp/$1"
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_side parent "$parent"
        run_side change "$change"
    else
        run_side change "$change"
        run_side parent "$parent"
    fi
done

echo "$workload, seed $seed, $seconds s traced runs, $pairs per side (alternating, parent first)"
printf '  %-36s %30s %30s\n' metric parent change
# Metric names in the benchmark's order; each side's values in run order,
# whole numbers (counts) exact, the rest to four significant digits.
show='$1 == m { printf "%s" ($2 == int($2) ? "%d" : "%.4g"), sep, $2; sep = " / " }'
awk '!seen[$1]++ { print $1 }' "$tmp/parent" | while read -r m; do
    p=$(awk -v m="$m" "$show" "$tmp/parent")
    c=$(awk -v m="$m" "$show" "$tmp/change")
    printf '  %-36s %30s %30s\n' "$m" "$p" "$c"
done
