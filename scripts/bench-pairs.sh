#!/usr/bin/env bash
# Alternating parent/change runs of one benchmark workload — the
# comparison a performance claim rests on (choosing-metrics §8:
# at least ten pairs, alternating which side runs first, medians and
# quartiles per side, the change winning nine tenths of the pairs).
#
#   scripts/bench-pairs.sh <parent-exe> <change-exe> <workload> \
#       [pairs=10] [seconds=20] [seed=1]
#
# Build each commit's `ruvo-benchmark` into its own target directory
# (`cargo build --release --offline --locked --manifest-path
# benchmark/Cargo.toml`, with CARGO_TARGET_DIR set) and pass the two
# executables. Prints one line per run, then per end-to-end metric both
# sides' median / q1 / q3, how many pairs each side won, and the §8
# verdict: "gain shown" only when the change won at least nine tenths
# of the pairs (ties count for neither) and its median is better than
# the parent's by more than the parent's q3 - q1. Exits non-zero if a
# run fails to produce a result line.
#
# Check every table a change reports in as records/prNN-<workload>.txt
# and cite its medians from CHANGES.md instead of inlining the runs:
#
#   scripts/bench-pairs.sh P C txn_stream 5 | tee records/pr25-txn_stream.txt
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$1 change=$2 workload=$3
pairs=${4:-10} seconds=${5:-20} seed=${6:-1}
metrics="setup_s op_p50_ms ops_per_s peak_rss_mb"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The value of one top-level field / one metric in the driver's JSON line.
field() { sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" <<<"$1"; }
metric() { sed -n "s/.*\"$2\":{\"value\":\([-0-9.eE+]*\).*/\1/p" <<<"$1"; }

run_side() { # side exe
    local line
    line=$("$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    [ -n "$(metric "$line" op_p50_ms)" ] || { echo "$1: no result line: $line" >&2; exit 1; }
    printf '  %-6s' "$1"
    for m in $metrics; do
        local v
        v=$(metric "$line" "$m")
        printf ' %s=%s' "$m" "$v"
        echo "$v" >>"$tmp/$1.$m"
    done
    printf ' failed=%s/%s\n' "$(field "$line" failed)" "$(field "$line" attempted)"
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        echo "pair $i (parent first)"
        run_side parent "$parent"
        run_side change "$change"
    else
        echo "pair $i (change first)"
        run_side change "$change"
        run_side parent "$parent"
    fi
done

# Median, q1 and q3 by linear interpolation between order statistics.
quartiles() {
    sort -g "$1" | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
        END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

echo
echo "$workload, seed $seed, $seconds s per run, $pairs pairs"
for m in $metrics; do
    better=lower
    [ "$m" = ops_per_s ] && better=higher
    read -r c p t < <(paste "$tmp/parent.$m" "$tmp/change.$m" | awk -v better="$better" '
        { if ($1 == $2) t++; else if ((better == "lower") == ($2 < $1)) c++; else p++ }
        END { print c + 0, p + 0, t + 0 }')
    read -r pm pq1 pq3 < <(quartiles "$tmp/parent.$m")
    read -r cm cq1 cq3 < <(quartiles "$tmp/change.$m")
    verdict=$(awk -v c="$c" -v n="$pairs" -v pm="$pm" -v cm="$cm" -v q1="$pq1" -v q3="$pq3" -v better="$better" '
        BEGIN {
            gain = better == "lower" ? pm - cm : cm - pm
            iqr = q3 - q1
            if (10 * c < 9 * n) print "no gain shown (change won " c "/" n " pairs, needs 9/10)"
            else if (gain <= iqr) print "no gain shown (median gain " gain " <= parent q3 - q1 " iqr ")"
            else print "gain shown (" c "/" n " pairs, median gain " gain " > parent q3 - q1 " iqr ")"
        }')
    printf '%-12s parent  median %-12s q1 %-12s q3 %s\n' "$m" "$pm" "$pq1" "$pq3"
    printf '%-12s change  median %-12s q1 %-12s q3 %s\n' "" "$cm" "$cq1" "$cq3"
    printf '%-12s (%s is better) change wins %d, parent wins %d, ties %d\n' "" "$better" "$c" "$p" "$t"
    printf '%-12s verdict: %s\n' "" "$verdict"
done
