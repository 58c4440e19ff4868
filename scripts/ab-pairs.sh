#!/usr/bin/env bash
# ab-pairs.sh — compare two commits on one benchmark workload the way
# benchmark/results/STEADINESS.md says this box must be read: N alternating
# pairs in one session, each half a fresh
#
#   bash benchmark/run.sh --workload W --seed i --seconds 16 --trace 0
#
# in its own tree, pair i on seed first-seed+i-1 (so a claim can be checked
# again on seeds not used while writing the change), the side that runs first
# swapping every pair. Prints the per-pair ratio of every end-to-end metric, each side's
# median and quartiles, the win count, a claim/regression verdict against the
# metric's direction and bound in BENCHMARK.json, and — from one traced run per
# side — every count- or byte-valued per-layer metric that differs.
#
# The base tree is a `git archive` of <base-ref> unpacked under
# .bench_build/ (ignored by git; not a worktree, so nothing is registered in
# .git); the change is the working tree the script is started from. Runs in
# the foreground only; on any exit the trap kills every process the script
# started and removes the base tree.
#
# Usage: scripts/ab-pairs.sh <base-ref> <workload> [pairs=10] [first-seed=1]
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <base-ref> <workload> [pairs=10] [first-seed=1]" >&2
    exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}
seed0=${4:-1}

root=$(git rev-parse --show-toplevel)
cd "$root"
base="$root/.bench_build/ab-base.$$"
out="$root/.bench_build/ab-out.$$"

cleanup() {
    trap - EXIT INT TERM
    # Children first (run.sh, the benchmark, the daemons it starts), then
    # the trees they were running in.
    pkill -TERM -P $$ 2>/dev/null || true
    pkill -KILL -f "$base/" 2>/dev/null || true
    pkill -KILL -f "$root/.bench_build/(benchmark|regserve)" 2>/dev/null || true
    rm -rf "$base" "$out"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

mkdir -p "$base" "$out"
git archive "$ref" | tar -x -C "$base"

# run <tree> <seed> <trace> <file>: one benchmark run, its result line in <file>.
run() {
    (cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" --seconds 16 --trace "$3") \
        2>"$4.err" | tail -n 1 >"$4"
    if ! grep -q '"correct":true' "$4"; then
        echo "ab-pairs: run failed or incorrect ($1, seed $2, trace $3):" >&2
        tail -n 5 "$4.err" >&2
        cat "$4" >&2
        exit 1
    fi
}

# metric <file> <name>: the value of one metric of a result line.
metric() {
    sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" "$1"
}

# stats <file>: median, q1, q3, min and max of a column of numbers.
stats() {
    sort -g "$1" | awk '{v[NR]=$1} END {
        if (NR) printf "%.17g %.17g %.17g %.17g %.17g\n", q(v, NR, 0.5), q(v, NR, 0.25), q(v, NR, 0.75), v[1], v[NR]
    }
    function q(v, n, p,   h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo+1] - v[lo]) }'
}

# summary <file>: median and quartiles of a column of numbers.
summary() {
    stats "$1" | awk '{ printf "median %.6g  q1 %.6g  q3 %.6g", $1, $2, $3 } END { if (!NR) print "n/a" }'
}

# spec <metric> <key>: one field of an end-to-end metric in BENCHMARK.json.
spec() {
    sed -n "s/.*\"name\": *\"$1\".*\"$2\": *\"\{0,1\}\([^\",}]*\).*/\1/p" "$root/BENCHMARK.json"
}

metrics="setup_s solve_s solve_cpu_s jobs_per_min peak_rss_mb misfit_rel"
echo "ab-pairs: base $ref vs working tree, workload $workload, $pairs pairs from seed $seed0"
for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        run "$base" "$seed" 0 "$out/base.$i"
        run "$root" "$seed" 0 "$out/change.$i"
        first=base
    else
        run "$root" "$seed" 0 "$out/change.$i"
        run "$base" "$seed" 0 "$out/base.$i"
        first=change
    fi
    line="pair $i (seed $seed, $first first):"
    for m in $metrics; do
        b=$(metric "$out/base.$i" "$m")
        c=$(metric "$out/change.$i" "$m")
        [ -n "$b" ] && [ -n "$c" ] || continue
        echo "$b" >>"$out/base.$m"
        echo "$c" >>"$out/change.$m"
        line="$line $m $(awk -v b="$b" -v c="$c" 'BEGIN { if (b == 0) printf "%s/%s", c, b; else printf "%.6g/%.6g=%.3f", c, b, c / b }')"
    done
    echo "$line"
done

echo
echo "change/base per metric (a win is a pair where the change is better; ties count for neither):"
for m in $metrics; do
    [ -f "$out/base.$m" ] || continue
    better=$(spec "$m" better)
    bound=$(spec "$m" bound)
    wins=$(paste "$out/base.$m" "$out/change.$m" | awk -v better="$better" '
        better == "higher" ? $2 > $1 : $2 < $1 { w++ } END { print w + 0 }')
    echo "  $m: change wins $wins of $pairs"
    echo "    base   $(summary "$out/base.$m")"
    echo "    change $(summary "$out/change.$m")"
    # claim: the change wins at least ceil(0.9 pairs) pairs and its median is
    # better by more than the base's q3 - q1. regression: worse if the change
    # median is worse by more than the bound; unresolved if the base spread
    # (IQR / median) exceeds the bound and the two sides' runs overlap.
    echo "$(stats "$out/base.$m") $(stats "$out/change.$m")" | awk -v better="$better" -v bound="$bound" \
        -v wins="$wins" -v pairs="$pairs" '{
        bm = $1; iqr = $3 - $2; bmin = $4; bmax = $5; cm = $6; cmin = $9; cmax = $10
        s = better == "higher" ? -1 : 1
        need = int((9 * pairs + 9) / 10)
        gain = s * (bm - cm)
        claim = wins >= need && gain > iqr ? "met" : "not met"
        mag = bm < 0 ? -bm : bm
        rel = mag > 0 ? -gain / mag : (cm == bm ? 0 : 1e300)
        apart = better == "higher" ? cmin > bmax : cmax < bmin
        if (rel > bound) reg = "worse"
        else if ((mag > 0 ? iqr / mag : 0) > bound && !apart) reg = "unresolved"
        else reg = "ok"
        printf "    verdict: claim %s (%d of %d wins needed, median gain %.6g vs base IQR %.6g); regression %s (median worse by %+.1f%%, bound %g%%)\n",
            claim, need, pairs, gain, iqr, reg, 100 * rel + 0, 100 * bound
    }'
done

echo
echo "exact counters (one traced run per side, seed $seed0; count- and byte-valued per-layer metrics that differ):"
run "$base" "$seed0" 1 "$out/base.trace"
run "$root" "$seed0" 1 "$out/change.trace"
for side in base change; do
    # Each '{' starts either the metrics object, or one metric's body
    # followed by the next metric's name.
    tr '{' '\n' <"$out/$side.trace" | awk '
        name != "" && /^"value":[^,]*,"unit":"(count|bytes)"/ {
            v = $0; sub(/^"value":/, "", v); sub(/,.*/, "", v); print name, v
        }
        { name = ""; if (match($0, /"[a-z_0-9.]+":$/)) name = substr($0, RSTART + 1, RLENGTH - 3) }
    ' | sort >"$out/$side.counters"
done
join -a 1 -a 2 -e missing -o 0,1.2,2.2 "$out/base.counters" "$out/change.counters" |
    awk '$2 != $3 { printf "  %-32s base %s  change %s\n", $1, $2, $3; d++ } END { if (!d) print "  none" }'
