#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark, then run it confined
# to one CPU.
#
# Why confined: with two shards every batch is handed from the submitting
# thread to a pool worker and back.  Left to the scheduler on a 2-vCPU VM that
# hand-off flips, for minutes at a time, between both threads sharing a vCPU,
# the worker on the other vCPU with slow (halted-vCPU) wake-ups, and the worker
# on the other vCPU with fast ones — 2x apart at batch 256 and 10x apart at
# batch 8 (see README.md, "Measured A/A").  One CPU leaves one regime.  The
# confinement is external (taskset); the program makes no affinity calls, and
# `cargo run --manifest-path benchmark/Cargo.toml -- …` runs it unconfined.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"

cargo build --release --quiet --manifest-path "$here/Cargo.toml"
binary="${CARGO_TARGET_DIR:-$here/target}/release/bp-benchmark"

# The last CPU this process may use (the first one takes most interrupts).
cpu="$(awk '/^Cpus_allowed_list:/ { n = split($2, ids, /[,-]/); print ids[n] }' /proc/self/status)"
if command -v taskset >/dev/null && [ -n "$cpu" ]; then
    exec taskset -c "$cpu" "$binary" "$@"
fi
echo "benchmark/run.sh: taskset not available, running unconfined" >&2
exec "$binary" "$@"
