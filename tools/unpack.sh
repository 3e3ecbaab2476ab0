# Sourced by tools/ab.sh and tools/symdiff.sh, after they set `repo` (the
# checkout the tools live in).  Makes the scratch directory `tmp` (under
# $TMPDIR) and removes it on exit, unless AB_KEEP is set.
#
#   prepare <name> <rev>
#
# Unpacks one side of a comparison into $tmp/<name> and builds its benchmark
# once.  <rev> is a git revision (exported with `git archive`) or a directory
# holding a checkout (its tracked and unignored files are copied, so an
# uncommitted tree can be a side).  The binary lands in
# $tmp/<name>/benchmark/target/release/bp-benchmark.
tmp="$(mktemp -d "${TMPDIR:-/tmp}/bp-${0##*/}.XXXXXX")"
cleanup() { [ -n "${AB_KEEP:-}" ] || rm -rf "$tmp"; }
trap cleanup EXIT

prepare() {
    local name="$1" rev="$2" dir="$tmp/$1"
    mkdir -p "$dir"
    if [ -d "$rev" ]; then
        (cd "$rev" && git ls-files -z --cached --others --exclude-standard |
            tar --null --files-from=- --ignore-failed-read -cf -) | tar -xf - -C "$dir"
    else
        git -C "$repo" archive "$rev" | tar -xf - -C "$dir"
    fi
    echo "${0##*/}: building $name ($rev)" >&2
    cargo build --release --quiet --manifest-path "$dir/benchmark/Cargo.toml"
}
