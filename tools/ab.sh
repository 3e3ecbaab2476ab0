#!/usr/bin/env bash
# A/B two revisions on one benchmark workload (or several, comma-separated:
# the two builds are the slow part).
#
#   tools/ab.sh <rev-a> <rev-b> <workload>[,<workload>…] [pairs]
#
# Each side is a git revision (exported with `git archive`) or a directory
# holding a checkout (its tracked and unignored files are copied, so an
# uncommitted tree can be a side: `tools/ab.sh HEAD . flow_churn`).  Both are
# unpacked under one temporary directory, built once, and run through their
# *own* `benchmark/run.sh --workload W --seed N --seconds S --trace 0` in
# alternated pairs (a b, b a, a b, …), because on a shared host two runs
# minutes apart differ by more than most changes do; only neighbours compare.
# Prints, per end-to-end metric, a's median and quartiles, b's median, the
# delta of b against a, in how many pairs b was the better side, and the
# verdict the pipeline reaches from those (simplicity-review, "Benchmark
# workloads"):
#   better / worse  b (or a) wins at least 9 of every 10 pairs, ties counting
#                   for neither, and the medians differ by more than a's
#                   interquartile distance; `worse` says on which side of the
#                   metric's BENCHMARK.json bound the regression falls
#   within bound    not resolved either way; b's median is no worse than a's
#                   by more than the bound, and a's interquartile distance is
#                   no wider than the bound
#   unresolved      anything else: the runs spread too widely to tell
# and under each metric every run's value, a then b, in pair order.
#
# Environment: AB_SEED (default 1), AB_SECONDS (default: BENCHMARK.json's
# run_seconds), AB_KEEP=1 to keep the temporary directory.
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    sed -n '2,29p' "$0" >&2
    exit 2
fi
rev_a="$1" rev_b="$2" workloads="${3//,/ }" pairs="${4:-10}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
seed="${AB_SEED:-1}"
seconds="${AB_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")}"

# shellcheck source=tools/unpack.sh
. "$repo/tools/unpack.sh"
prepare a "$rev_a"
prepare b "$rev_b"

report() { # workload -> the table of its finished pairs
    python3 - "$tmp" "$pairs" "$repo/BENCHMARK.json" "$1" "$rev_a" "$rev_b" "$seed" "$seconds" <<'PY'
import json, statistics, sys
tmp, pairs, manifest, workload, rev_a, rev_b, seed, seconds = sys.argv[1:]
pairs = int(pairs)
runs = {side: [json.load(open(f"{tmp}/{side}-{n}.json")) for n in range(1, pairs + 1)] for side in "ab"}
for side, results in runs.items():
    bad = [n + 1 for n, r in enumerate(results) if not r["correct"] or r["failed"]]
    if bad:
        sys.exit(f"ab: side {side} was incorrect or failed operations in pair(s) {bad}")
print(f"{workload}: a = {rev_a}, b = {rev_b}, {pairs} alternated pairs, seed {seed}, {seconds} s per run")
print(f"{'metric':<16} {'median a':>13} {'a q1..q3':>25} {'median b':>13} {'b vs a':>8} {'b won':>6}  verdict")
for metric in json.load(open(manifest))["end_to_end"]:
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    a, b = ([r["metrics"][name]["value"] for r in runs[side]] for side in "ab")
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive") if pairs > 1 else a * 3
    # By how much b's median is the better one, in the metric's unit.
    gain = med_b - med_a if higher else med_a - med_b
    won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    lost = sum((y < x) if higher else (y > x) for x, y in zip(a, b))
    if 10 * won >= 9 * pairs and gain > q3 - q1:
        verdict = "better"
    elif 10 * lost >= 9 * pairs and -gain > q3 - q1:
        verdict = f"worse ({'within' if -gain <= bound * med_a else 'BEYOND'} bound {bound:.0%})"
    elif -gain <= bound * med_a and q3 - q1 <= bound * med_a:
        verdict = "within bound"
    else:
        verdict = "unresolved"
    delta = f"{(med_b - med_a) / med_a:+.1%}" if med_a else "n/a"
    print(f"{name:<16} {med_a:>13.4f} {f'{q1:.4f}..{q3:.4f}':>25} {med_b:>13.4f} {delta:>8} {f'{won}/{pairs}':>6}  {verdict} ({metric['unit']}, {metric['better']} is better)")
    for side, values in (("a", a), ("b", b)):
        print(f"    {side}: " + " ".join(f"{value:.4f}" for value in values))
PY
}

for workload in $workloads; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
        for side in $order; do
            echo "ab: $workload pair $pair/$pairs, side $side" >&2
            # The run's last line is its JSON result.
            bash "$tmp/$side/benchmark/run.sh" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 | tail -n 1 > "$tmp/$side-$pair.json"
        done
    done
    report "$workload"
done
