#!/usr/bin/env bash
# Alternating parent/change runs of one benchmark workload — or of all of
# them — and the verdict the choosing-metrics guide asks for.
#
#   scripts/bench_pairs.sh <parent-bin> <change-bin> <workload|all> <seed> [pairs=10] [seconds=8]
#
# Both arguments are already-built `sleds-benchmark` binaries (build each
# commit's `benchmark/` with its own CARGO_TARGET_DIR; see the verify
# skill). Each pair runs both, untraced, in a fresh process; odd pairs run
# the parent first, even pairs the change. Prints every run as it finishes,
# then per end-to-end host metric each side's median and quartiles, the
# ratio of medians, the pair wins (ties count for neither) and the gap
# between the medians against the parent's own interquartile range, and
# whether the virtual metrics are bit-identical. `all` does that for each
# workload `BENCHMARK.json` lists, in turn. The output ends with one table
# of every end-to-end metric x workload run: both medians, their ratio, the
# pair wins, and `WORSE` where the change's median is worse than the
# parent's by more than that metric's `bound` in `BENCHMARK.json`. Exits 1
# on a `WORSE`, on virtual metrics that differ or on a run that failed its
# output checks. Writes only under a temporary directory; `BENCHMARK.json`
# is read and nothing under `benchmark/` is touched.
set -euo pipefail

if (($# < 4)); then
    sed -n '2,21p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 seed=$4 pairs=${5:-10} seconds=${6:-8}
spec=$(dirname "$0")/../BENCHMARK.json
host=(host_s host_ns_per_op setup_s peak_rss_mb)
virtual=(virtual_elapsed_s virtual_cpu_s virtual_syscall_p50_ns virtual_syscall_p99_ns major_faults)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# The entries of array $1 in BENCHMARK.json, one a line.
spec_array() {
    sed -n "/\"$1\": \[/,/^  \]/p" "$spec" | grep '"name"'
}
if [[ $3 == all ]]; then
    mapfile -t workloads < <(spec_array workloads | sed 's/.*"name": "\([^"]*\)".*/\1/')
else
    workloads=("$3")
fi
# `metric better bound` for every end-to-end metric.
spec_array end_to_end |
    sed 's/.*"name": "\([^"]*\)".*"better": "\([^"]*\)".*"bound": \([0-9.]*\).*/\1 \2 \3/' >"$out/bounds"

# The value of metric $2 (or of the top-level key $2) in result line $1.
field() {
    grep -o "\"$2\": \({\"value\": \)\?[^,}]*" <<<"$1" | head -n 1 | sed 's/.*: //'
}

# One run of side $1 with binary $2: a row `side pair correct failed
# <host metrics> <virtual metrics>` appended to the workload's runs and echoed.
run() {
    local line row=("$1" "$i")
    line=$("$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$out/$1" 2>/dev/null | tail -n 1)
    for name in correct failed "${host[@]}" "${virtual[@]}"; do
        row+=("$(field "$line" "$name")")
    done
    (IFS=$'\t' && echo "${row[*]}") >>"$out/$workload.tsv"
    printf 'pair %2d %-6s host_s %.4f  host_ns_per_op %.1f  setup_s %.6f  peak_rss_mb %.2f  failed %s  correct %s\n' \
        "$i" "$1" "${row[4]}" "${row[5]}" "${row[6]}" "${row[7]}" "${row[3]}" "${row[2]}"
}

status=0
for workload in "${workloads[@]}"; do
    echo "== $workload, seed $seed"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run parent "$parent" && run change "$change"
        else
            run change "$change" && run parent "$parent"
        fi
    done

    echo
    awk -F'\t' -v host="${host[*]}" -v virtual="${virtual[*]}" -v workload="$workload" -v table="$out/table" '
function quantile(xs, n, p,    at, lo) {   # inclusive method, xs sorted 1..n
    at = 1 + (n - 1) * p; lo = int(at)
    return lo >= n ? xs[n] : xs[lo] + (at - lo) * (xs[lo + 1] - xs[lo])
}
function summary(side, col, q,    i, j, x, xs) {   # q[1..3]: q1, median, q3
    for (i = 1; i <= pairs; i++) {                    # insertion sort into xs
        x = v[side, i, col] + 0
        for (j = i - 1; j >= 1 && xs[j] > x; j--) xs[j + 1] = xs[j]
        xs[j + 1] = x
    }
    for (i = 1; i <= 3; i++) q[i] = quantile(xs, pairs, i / 4)
}
{
    if ($2 > pairs) pairs = $2
    for (c = 3; c <= NF; c++) v[$1, $2, c] = $c
    if ($3 != "true") wrong++
    failed += $4
}
END {
    nh = split(host, hs, " "); nv = split(virtual, vs, " ")
    for (m = 1; m <= nh + nv; m++) {
        col = 4 + m; wins = losses = 0
        summary("parent", col, pq); summary("change", col, cq)
        for (i = 1; i <= pairs; i++) {
            wins += v["change", i, col] < v["parent", i, col]
            losses += v["change", i, col] > v["parent", i, col]
        }
        # A row of the closing table; only host metrics get the long form.
        printf "%s %s %.9g %.9g %d %d %d\n", workload, m <= nh ? hs[m] : vs[m - nh], pq[2], cq[2], wins, losses, pairs >> table
        if (m > nh) continue
        printf "%s: parent %.6g (%.6g, %.6g) -> change %.6g (%.6g, %.6g), %.3fx, change wins %d/%d (loses %d), gap %.4g vs parent IQR %.4g\n",
            hs[m], pq[2], pq[1], pq[3], cq[2], cq[1], cq[3], cq[2] / pq[2], wins, pairs, losses, pq[2] - cq[2], pq[3] - pq[1]
        for (s = 1; s <= 2; s++) {
            side = s == 1 ? "parent" : "change"
            printf "  %s %s:", hs[m], side
            for (i = 1; i <= pairs; i++) printf " %.6g", v[side, i, col]
            print ""
        }
    }
    verdict = "identical"
    for (m = 1; m <= nv; m++) {
        col = 4 + nh + m
        for (i = 1; i <= pairs; i++)
            if (v["parent", i, col] != v["parent", 1, col] || v["change", i, col] != v["parent", 1, col]) {
                verdict = (verdict == "identical" ? "DIFFERS" : verdict) " " vs[m]; break
            }
        values = values " " vs[m] "=" v["parent", 1, col]
    }
    print "virtual: " verdict values
    printf "failed ops: %d, incorrect runs: %d\n\n", failed, wrong
    exit (verdict != "identical" || wrong > 0)
}' "$out/$workload.tsv" || status=1
done

# Every end-to-end metric x workload against its bound, in BENCHMARK.json order.
printf '%-14s %-23s %14s %14s %7s %7s  %s\n' workload metric parent change ratio wins verdict
awk '
NR == FNR { better[$1] = $2; bound[$1] = $3; order[++n] = $1; next }
{ row[$1, $2] = $0; if (!($1 in seen)) { seen[$1] = 1; ws[++nw] = $1 } }
END {
    for (w = 1; w <= nw; w++)
        for (m = 1; m <= n; m++) {
            if (!((ws[w], order[m]) in row)) continue
            split(row[ws[w], order[m]], r, " ")
            p = r[3]; c = r[4]
            worse = better[order[m]] == "lower" ? c > p * (1 + bound[order[m]]) : c < p * (1 - bound[order[m]])
            bad += worse
            printf "%-14s %-23s %14.9g %14.9g %7s %4d/%-2d  %s\n", r[1], r[2], p, c,
                p == 0 ? "-" : sprintf("%.3f", c / p), better[order[m]] == "lower" ? r[5] : r[6], r[7],
                worse ? "WORSE (bound " bound[order[m]] ")" : "ok"
        }
    exit bad > 0
}' "$out/bounds" "$out/table" || status=1
exit $status
