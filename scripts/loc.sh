#!/usr/bin/env bash
# Net non-test lines of Rust per crate, between a base revision and the work
# tree (committed or not, untracked files included).
# Usage: scripts/loc.sh BASE          e.g. scripts/loc.sh HEAD~1
#
# A crate's lines are every .rs file under its src/ (the root crate adds
# examples/), each cut at its first `#[cfg(test)]` line; tests/ directories
# and `tests.rs` files (the body of a `#[cfg(test)] mod tests;`) are never
# read. Blank and comment lines count like any other.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:?usage: scripts/loc.sh BASE}
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
    echo "loc.sh: unknown revision $base" >&2
    exit 2
fi

# Lines of stdin before its first `#[cfg(test)]`.
cut_count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'
}

# Non-test lines under the given directories at BASE.
at_base() {
    local total=0 f
    for f in $(git ls-tree -r --name-only "$base" -- "$@" | grep '\.rs$' | grep -v '/tests\.rs$' || true); do
        total=$((total + $(git show "$base:$f" | cut_count)))
    done
    echo "$total"
}

# Non-test lines under the given directories in the work tree.
in_tree() {
    local total=0 f
    for f in $(git ls-files --cached --others --exclude-standard -- "$@" | grep '\.rs$' | grep -v '/tests\.rs$' || true); do
        [[ -f $f ]] && total=$((total + $(cut_count <"$f")))
    done
    echo "$total"
}

crates=$( (git ls-tree -d --name-only "$base" crates/ && ls -d crates/*/) |
    sed 's#/$##; s#^crates/##' | sort -u)

printf '%-14s %8s %8s %8s\n' crate base tree net
sum_base=0 sum_tree=0
row() {
    local name=$1 b t
    shift
    b=$(at_base "$@")
    t=$(in_tree "$@")
    sum_base=$((sum_base + b))
    sum_tree=$((sum_tree + t))
    printf '%-14s %8d %8d %+8d\n' "$name" "$b" "$t" $((t - b))
}
row "root+examples" src examples
for c in $crates; do
    row "$c" "crates/$c/src"
done
row benchmark benchmark/src
printf '%-14s %8d %8d %+8d\n' total "$sum_base" "$sum_tree" $((sum_tree - sum_base))
