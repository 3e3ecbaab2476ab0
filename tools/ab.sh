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
# Prints, per end-to-end metric, both medians, the delta of b against a, and
# in how many pairs b was the better side.
#
# Environment: AB_SEED (default 1), AB_SECONDS (default: BENCHMARK.json's
# run_seconds), AB_KEEP=1 to keep the temporary directory.
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    sed -n '2,18p' "$0" >&2
    exit 2
fi
rev_a="$1" rev_b="$2" workloads="${3//,/ }" pairs="${4:-5}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
seed="${AB_SEED:-1}"
seconds="${AB_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")}"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bp-ab.XXXXXX")"
cleanup() { [ -n "${AB_KEEP:-}" ] || rm -rf "$tmp"; }
trap cleanup EXIT

# Unpack one side into $tmp/<name> and build its benchmark once.
prepare() {
    local name="$1" rev="$2" dir="$tmp/$1"
    mkdir -p "$dir"
    if [ -d "$rev" ]; then
        (cd "$rev" && git ls-files -z --cached --others --exclude-standard |
            tar --null --files-from=- --ignore-failed-read -cf -) | tar -xf - -C "$dir"
    else
        git -C "$repo" archive "$rev" | tar -xf - -C "$dir"
    fi
    echo "ab: building $name ($rev)" >&2
    cargo build --release --quiet --manifest-path "$dir/benchmark/Cargo.toml"
}
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
print(f"{'metric':<16} {'median a':>14} {'median b':>14} {'b vs a':>9}  b better in")
for metric in json.load(open(manifest))["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    a, b = ([r["metrics"][name]["value"] for r in runs[side]] for side in "ab")
    med_a, med_b = statistics.median(a), statistics.median(b)
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    delta = f"{(med_b - med_a) / med_a:+.1%}" if med_a else "n/a"
    print(f"{name:<16} {med_a:>14.4f} {med_b:>14.4f} {delta:>9}  {wins}/{pairs} ({metric['unit']}, {metric['better']} is better)")
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
