#!/usr/bin/env bash
# Compare how two revisions' benchmark binaries lay out the data plane.
#
#   tools/symdiff.sh <rev-a> <rev-b>
#
# Unpacks and builds both sides as tools/ab.sh does (a side is a git revision
# or a checkout directory), then lists every out-of-line function of
# bp_core::{wire,runtime,enforcer,flow,stats,telemetry} in either binary with
# its size in bytes (`nm -S`), side by side.  A function the optimizer
# inlined into all its callers has no symbol, so a row present on one side
# only, or one whose size moved, is an inlining decision that flipped: an
# edit outside these modules can still move their code generation.  Generic
# functions with several instances are summed, their count in parentheses.
# Rows are sorted by name; the last column is b's size minus a's.
#
# Environment: AB_KEEP=1 keeps the temporary directory, as for tools/ab.sh.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    sed -n '2,16p' "$0" >&2
    exit 2
fi
rev_a="$1" rev_b="$2"
repo="$(cd "$(dirname "$0")/.." && pwd)"

# shellcheck source=tools/unpack.sh
. "$repo/tools/unpack.sh"
prepare a "$rev_a"
prepare b "$rev_b"

for side in a b; do
    nm -S --demangle "$tmp/$side/benchmark/target/release/bp-benchmark" > "$tmp/$side.nm"
done

python3 - "$tmp/a.nm" "$tmp/b.nm" "$rev_a" "$rev_b" <<'PY'
import re, sys
path_a, path_b, rev_a, rev_b = sys.argv[1:]
modules = re.compile(r"^<?bp_core::(wire|runtime|enforcer|flow|stats|telemetry)::")

def functions(path):
    """name -> (total size, instances) of the text symbols nm lists."""
    out = {}
    for line in open(path):
        parts = line.rstrip("\n").split(" ", 3)
        if len(parts) != 4 or parts[2] not in "tT":
            continue
        name = re.sub(r"::h[0-9a-f]{16}$", "", parts[3])
        if modules.match(name):
            size, count = out.get(name, (0, 0))
            out[name] = (size + int(parts[1], 16), count + 1)
    return out

a, b = functions(path_a), functions(path_b)
def cell(entry):
    if entry is None:
        return "-"
    size, count = entry
    return f"{size}" + (f" ({count})" if count > 1 else "")

print(f"a = {rev_a}, b = {rev_b}: out-of-line bp_core data-plane functions, bytes")
width = max(len(name) for name in a.keys() | b.keys())
print(f"{'function':<{width}}  {'a':>10}  {'b':>10}  {'b - a':>7}")
moved = 0
for name in sorted(a.keys() | b.keys()):
    sa, sb = a.get(name), b.get(name)
    delta = (sb[0] if sb else 0) - (sa[0] if sa else 0)
    moved += sa != sb
    mark = "" if sa == sb else f"{delta:+d}"
    print(f"{name:<{width}}  {cell(sa):>10}  {cell(sb):>10}  {mark:>7}")
print(f"{len(a)} functions in a, {len(b)} in b, {moved} differ "
      f"({sum(s for s, _ in a.values())} B in a, {sum(s for s, _ in b.values())} B in b)")
PY
