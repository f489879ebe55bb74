#!/usr/bin/env bash
# Net non-test lines of Rust per crate, between a base revision and the work
# tree (committed or not, untracked files included).
# Usage: scripts/loc.sh BASE          e.g. scripts/loc.sh HEAD~1
#
# A crate's lines are every .rs file under its src/ (the root crate adds
# examples/), less each `#[cfg(test)]` inline `mod … { … }` block and
# `#[cfg(test)] mod name;` line (scripts/nontest.awk, which reach.sh
# shares; a `#[cfg(test)]` on a single item is not a cut). tests/
# directories, `tests.rs` files and every file a `#[cfg(test)] mod name;`
# declares are never counted. Blank and comment lines count like any
# other. Both sides are cut by the work tree's nontest.awk, so a base
# older than it compares alike.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:?usage: scripts/loc.sh BASE}
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
    echo "loc.sh: unknown revision $base" >&2
    exit 2
fi

# Non-test lines of stdin.
cut_count() {
    awk -f scripts/nontest.awk | awk 'END { print NR }'
}

# True when $1 is among the newline-separated paths $2.
listed() {
    grep -qxF -- "$1" <<<"$2"
}

# Non-test lines under the given directories at BASE.
at_base() {
    local total=0 f files mods
    files=$(git ls-tree -r --name-only "$base" -- "$@" | grep '\.rs$' | grep -v '/tests\.rs$' || true)
    mods=$(for f in $files; do git show "$base:$f" | awk -v mods=1 -v path="$f" -f scripts/nontest.awk; done)
    for f in $files; do
        listed "$f" "$mods" && continue
        total=$((total + $(git show "$base:$f" | cut_count)))
    done
    echo "$total"
}

# Non-test lines under the given directories in the work tree.
in_tree() {
    local total=0 f files mods
    files=$(git ls-files --cached --others --exclude-standard -- "$@" | grep '\.rs$' | grep -v '/tests\.rs$' || true)
    files=$(for f in $files; do [[ -f $f ]] && echo "$f"; done)
    mods=$(if [[ -n $files ]]; then awk -v mods=1 -f scripts/nontest.awk $files; fi)
    for f in $files; do
        listed "$f" "$mods" && continue
        total=$((total + $(cut_count <"$f")))
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
