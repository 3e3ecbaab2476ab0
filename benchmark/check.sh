#!/usr/bin/env bash
# Build the benchmark, run its unit tests, smoke every workload timed and
# traced, and check that BENCHMARK.json lists exactly the workloads and
# metrics the binary prints.  The single entry point for CI.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --manifest-path "$manifest"
cargo test --release --manifest-path "$manifest"
# Through run.sh, the command BENCHMARK.json names.
run() { bash benchmark/run.sh "$@"; }

out=benchmark/out
mkdir -p "$out"
run --list > "$out/list.json"
for workload in $(python3 -c 'import json,sys; print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$out/list.json"); do
    for trace in 0 1; do
        run --workload "$workload" --seed 1 --smoke --trace "$trace" | tail -n 1 > "$out/smoke-$workload-$trace.json"
    done
done

python3 - "$out" <<'PY'
import json, sys
out = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
listed = json.load(open(f"{out}/list.json"))
assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, sorted(manifest)
for key in ("command", "paths", "workloads", "end_to_end", "per_layer"):
    assert manifest[key] == listed[key], f"BENCHMARK.json and --list disagree on {key}"
for workload in manifest["workloads"]:
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        result = json.load(open(f"{out}/smoke-{workload['name']}-{trace}.json"))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        wanted = {metric["name"]: metric["unit"] for metric in manifest[table]}
        assert printed == wanted, (workload["name"], table, set(printed) ^ set(wanted))
print(f"benchmark check: {len(manifest['workloads'])} workloads, "
      f"{len(manifest['end_to_end'])} end-to-end and {len(manifest['per_layer'])} per-layer metrics agree")
PY
