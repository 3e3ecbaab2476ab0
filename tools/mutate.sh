#!/usr/bin/env bash
# Mutation pass: do the tests still bite?
#
#   tools/mutate.sh [<rev-or-dir>] [<id>…]
#
# Unpacks <rev-or-dir> (default: this checkout's working tree, its tracked
# and unignored files) once under a temporary directory (tools/unpack.sh)
# and checks that `cargo test -q` passes there unmutated.  Then, for each
# mutant of tools/mutants.txt (or only the named ones), it replaces the
# mutant's old text in the copy, runs `cargo test -q`, prints KILLED with
# the first failing test (or the first build error) or SURVIVED, and puts
# the file back.  Each mutant costs one incremental build plus a test run.
# Exits 1 if a mutant survived or no longer matches its file.
#
# Environment: AB_KEEP=1 keeps the temporary directory.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
rev="${1:-$repo}"
shift $(($# > 0 ? 1 : 0))
# shellcheck source=tools/unpack.sh
. "$repo/tools/unpack.sh"
unpack tree "$rev"
tree="$tmp/tree" log="$tmp/test.log"
export CARGO_TARGET_DIR="$tmp/target"

# One tab-separated line per selected mutant: id, file, old, new, breaks.
mutants() {
    python3 - "$repo/tools/mutants.txt" "$@" <<'PY'
import sys
path, wanted = sys.argv[1], set(sys.argv[2:])
blocks = open(path).read().split("\n\n")
for block in blocks:
    fields = {}
    for line in block.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    if fields and (not wanted or fields["id"] in wanted):
        print("\t".join(fields[k] for k in ("id", "file", "old", "new", "breaks")))
PY
}

# Replace the exactly-once `old` text of `file` with `new`.
apply() {
    python3 - "$@" <<'PY'
import sys
path, old, new = sys.argv[1], *(s.replace("\\n", "\n") for s in sys.argv[2:4])
text = open(path).read()
if text.count(old) != 1:
    sys.exit(f"matches {text.count(old)} times")
open(path, "w").write(text.replace(old, new))
PY
}

# The first failing test of the last run, or its first build error.
first_failure() {
    local name
    name="$(grep -m1 -oE '^---- [^ ]+' "$log" | cut -c6-)" ||
        name="build: $(grep -m1 -E '^error' "$log")" || name="(see the test log)"
    echo "$name"
}

echo "mutate.sh: testing the unmutated tree ($rev)" >&2
if ! (cd "$tree" && cargo test -q) </dev/null >"$log" 2>&1; then
    echo "mutate.sh: the unmutated tree fails: $(first_failure)" >&2
    exit 1
fi

status=0
while IFS=$'\t' read -r id file old new breaks; do
    cp "$tree/$file" "$tmp/original"
    if ! error="$(apply "$tree/$file" "$old" "$new" 2>&1)"; then
        printf '%-26s STALE     %s: old text %s\n' "$id" "$file" "$error"
        status=1
        continue
    fi
    if (cd "$tree" && cargo test -q) </dev/null >"$log" 2>&1; then
        printf '%-26s SURVIVED  breaks: %s\n' "$id" "$breaks"
        status=1
    else
        printf '%-26s KILLED    by %s\n' "$id" "$(first_failure)"
    fi
    cp "$tmp/original" "$tree/$file"
done < <(mutants "$@")
exit "$status"
