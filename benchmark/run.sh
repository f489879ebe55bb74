#!/usr/bin/env bash
# Two-clock benchmark of the SLEDs simulator. Run from the repository root.
#
#   benchmark/run.sh [--seed N] [--repeat K] [--seconds S]
#       The whole set: builds, runs each of the four workloads in a fresh
#       process (timed run, then traced run), prints every metric as
#       `workload metric value unit`, writes benchmark/out/results.json and
#       benchmark/out/trace_<workload>.json, and checks the bypass
#       predictions. --repeat 2 runs the set twice and prints
#       `agreement: ok` only if the two sets agree.
#   benchmark/run.sh --smoke
#       Tiny sizes, output checks only, no timing printed.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run; the last line of output is its result as one JSON object.
#
# Exits non-zero on any failed output check, determinism difference,
# failed prediction or disagreement.
set -euo pipefail

here=benchmark
export CARGO_NET_OFFLINE=true
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/sleds-benchmark"

seed=1 repeat=1 seconds=24 smoke=0 single=()
while (($#)); do
    case "$1" in
    --seed) seed=$2 single+=("$1" "$2") && shift 2 ;;
    --seconds) seconds=$2 single+=("$1" "$2") && shift 2 ;;
    --workload | --trace) single+=("$1" "$2") workload_given=1 && shift 2 ;;
    --repeat) repeat=$2 && shift 2 ;;
    --smoke) smoke=1 && shift ;;
    *) echo "run.sh: unknown argument $1" >&2 && exit 2 ;;
    esac
done

# Build output goes to stderr so a single run's stdout ends with its result.
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2

if [[ -n "${workload_given:-}" ]]; then
    exec "$bin" "${single[@]}" --out "$here/out"
fi

workloads=(scan_warm fits_rw tree_walk tenant_replay)

if ((smoke)); then
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" --seed "$seed" --trace 1 --smoke
    done
    echo "smoke: ok"
    exit 0
fi

sets=()
for ((r = 1; r <= repeat; r++)); do
    out="$here/out"
    ((repeat > 1)) && out="$here/out/set$r"
    mkdir -p "$out"
    printf 'seed\t%s\nseconds\t%s\nnproc\t%s\nrustc\t%s\nmeasured_repetitions\tat least 3 per run, plus 1 discarded\n' \
        "$seed" "$seconds" "$(nproc)" "$(rustc --version)" >"$out/meta.tsv"
    for w in "${workloads[@]}"; do
        for trace in 0 1; do
            echo "== set $r: $w, trace $trace" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
                --out "$out" >"$out/$w.trace$trace.log"
        done
    done
    sets+=("$out")
done
"$bin" report "${sets[@]}"
