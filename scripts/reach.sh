#!/usr/bin/env bash
# Public items that no non-test code names.
# Usage: scripts/reach.sh
#
# Lists every `pub` / `pub(crate)` fn, const, struct, enum, type, trait or
# static declared in the non-test code of crates/*/src whose name appears
# nowhere else in the non-test code of crates/*/src, crates/*/benches,
# src/, examples/ and benchmark/src. Non-test code is what
# scripts/nontest.awk keeps, minus `tests.rs` files, tests/ directories
# and the files `#[cfg(test)] mod name;` lines declare;
# `use` statements, `//` comments and string and char literals are not
# read, so neither a re-export, a doc mention nor a label such as an
# entry's name in `Entry::query("…")` counts as a caller. (Raw strings are
# read as ordinary ones; none in the tree holds a quote.) The search is by
# name, so an item whose name something else also uses is never listed.
#
# Exit 1 when the list is non-empty, when an allow-listed name is no longer
# declared, or when an allow-listed name has gained a non-test caller (it
# then needs no place on the list).
set -euo pipefail
cd "$(dirname "$0")/.."

# name  reason: the test that reads it
allow='
page_locations_per_page_reference  the per-page oracle of fs/tests/extent_equivalence_props.rs and core/tests/sled_equivalence_props.rs
tenant_rows  per-tenant rows summed against the queue totals in fs/tests/cost_spine.rs
is_dirty  dirty bits observed against the Vec model in pagecache/tests/model.rs
resident_runs  resident runs observed against the Vec model in pagecache/tests/model.rs
eviction_rank  per-page ranks observed against the Vec model in pagecache/tests/model.rs and the two-map list in pagecache/src/reference.rs
resident_run_count  run counts checked by pagecache unit tests (resident_runs_coalesce_and_clip)
sled_generation  read by kernel::tests::fsleds_recal_bumps_epoch_and_generation and fs/tests/fd_edges.rs; ROADMAP 7(b) promotes it to a Syscall
'

sources() {
    local files
    files=$(find "$@" -name '*.rs' ! -name tests.rs ! -path '*/tests/*' 2>/dev/null | sort)
    grep -vxF -f <(awk -v mods=1 -f scripts/nontest.awk $files) <<<"$files" || true
}

# Each file's non-test code, `use` statements, comments and literals
# dropped, as `path<TAB>line<TAB>text`.
code() {
    local f
    for f in "$@"; do
        awk -f scripts/nontest.awk "$f" | awk -v path="$f" '
            # The line with each string or char literal blanked and a `//`
            # comment cut; a string may run on over later lines. What a
            # string keeps is the names it captures as format arguments
            # (`{name}`, `{name:…}`), which are uses.
            function strip(s,   out, i, c, j) {
                out = ""
                for (i = 1; i <= length(s); i++) {
                    c = substr(s, i, 1)
                    if (in_str) {
                        if (c == "\\" || substr(s, i, 2) == "{{") i++
                        else if (c == "\"") in_str = 0
                        else if (c == "{" && match(substr(s, i + 1), /^[A-Za-z_][A-Za-z0-9_]*[}:]/))
                            out = out " " substr(s, i + 1, RLENGTH - 1) " "
                        continue
                    }
                    if (c == "\"") { in_str = 1; out = out " "; continue }
                    if (c == "/" && substr(s, i + 1, 1) == "/") break
                    # A char literal, `x` or an escape between quotes; a
                    # lifetime has no closing quote there.
                    if (c == "\047") {
                        j = 0
                        if (substr(s, i + 1, 1) == "\\") {
                            j = index(substr(s, i + 3), "\047")
                            if (j) j += 2
                        } else if (substr(s, i + 2, 1) == "\047") j = 2
                        if (j) { i += j; out = out " "; continue }
                    }
                    out = out c
                }
                return out
            }
            { $0 = strip($0) }
            in_use { if (index($0, ";")) in_use = 0; next }
            /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?use[[:space:]]/ {
                if (!index($0, ";")) in_use = 1
                next
            }
            { print path "\t" NR "\t" $0 }'
    done
}

mapfile -t declaring < <(sources crates/*/src)
mapfile -t calling < <(sources crates/*/src crates/*/benches src examples benchmark/src)

declared=$(mktemp)
trap 'rm -f "$declared"' EXIT
code "${declaring[@]}" >"$declared"

code "${calling[@]}" | awk -F'\t' -v allow="$allow" -v declared="$declared" '
    # The name a declaration line declares, or "".
    function declares(text,   s) {
        s = text
        if (!sub(/^[[:space:]]*pub(\(crate\))?[[:space:]]+/, "", s)) return ""
        if (!sub(/^((const|unsafe|async)[[:space:]]+)*fn[[:space:]]+/, "", s) &&
            !sub(/^(const|struct|enum|type|trait|static([[:space:]]+mut)?)[[:space:]]+/, "", s))
            return ""
        return match(s, /^[A-Za-z_][A-Za-z0-9_]*/) ? substr(s, 1, RLENGTH) : ""
    }
    BEGIN {
        n = split(allow, lines, "\n")
        for (i = 1; i <= n; i++)
            if (lines[i] != "") {
                split(lines[i], w, " ")
                allowed[w[1]] = 1
            }
        while ((getline row < declared) > 0) {
            split(row, f, "\t")
            name = declares(f[3])
            if (name == "") continue
            decls[name]++
            where[name] = where[name] f[1] ":" f[2] ": " name "\n"
        }
    }
    {
        t = $3
        gsub(/[^A-Za-z0-9_]+/, " ", t)
        k = split(t, words, " ")
        for (i = 1; i <= k; i++) uses[words[i]]++
    }
    END {
        bad = 0
        for (name in allowed) {
            if (!(name in decls)) {
                printf "reach.sh: allow-listed %s is no longer declared\n", name
                bad = 1
            } else if (uses[name] > decls[name]) {
                printf "reach.sh: allow-listed %s has a non-test caller\n", name
                bad = 1
            }
        }
        for (name in decls)
            if (!(name in allowed) && uses[name] <= decls[name]) {
                printf "%s", where[name] | "sort"
                bad = 1
            }
        close("sort")
        exit bad
    }'
