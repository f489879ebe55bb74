#!/usr/bin/env bash
# Offline tier-1 gate: everything here must pass with no network access.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast if something reintroduces an external dependency: the whole
# point of the hermetic workspace is that a fresh checkout builds with an
# empty cargo registry.
export CARGO_NET_OFFLINE=true

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
# Hold the kernel's split: no source file past 1,200 lines, tests included.
echo "==> every .rs file under crates/*/src is at most 1200 lines"
over=$(find crates/*/src -name '*.rs' -exec awk 'END { if (NR > 1200) print FILENAME ": " NR " lines" }' {} \;)
if [[ -n $over ]]; then
    echo "$over" >&2
    echo "over 1,200 lines: split the file along a seam" >&2
    exit 1
fi
run cargo clippy --workspace --all-targets -- -D warnings
# A doc link to a deleted or private name fails here, not in a reader's browser.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
run cargo build --release

run cargo test -q
# Every self-timed component bench (device models, page cache, kernel
# paths, codecs) at quick sizes: it must build and run; the host times it
# prints are for reading, not compared.
run env SLEDS_QUICK=1 cargo bench -p sleds-bench --bench components
# One reduced point of every figure runner (fig3/fig4, the wc/grep/FITS
# figures, table2-table4, the HSM prune demo): nothing else executes the
# runners the committed figures come from.
run env SLEDS_QUICK=1 cargo bench -p sleds-bench --bench experiments

# The artifact gate. Every producer asserts its own acceptance properties
# and writes reports that are pure functions of the virtual machine and
# its seeds, so each file it writes must equal the committed copy byte
# for byte.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
examples_run=" "
produce() {
    [[ $1 == --example ]] && examples_run+="$2 "
    run env SLEDS_RESULTS="$scratch" cargo run --release "$@"
}
# The README's API tour; writes nothing, asserts what it prints.
produce --example quickstart
# Traced mixed-device workload: Chrome trace, flame stacks, accuracy audit.
produce --example trace_viewer
# Closed loop: run -> audit -> FSLEDS_RECAL -> re-run, error strictly lower.
produce --example recal_loop
# Seeded fault storm: retry masking, offline routing, degrade/restore.
produce --example fault_storm
# Million-file find/grep: naive vs ring-batched vs pushed down.
produce --example uring_bench
# 220 tenants on shared disk, NFS and tape: exact attribution, bullies.
produce --example saturation_report
# Capture, identity replay, what-if replay with zero-residual diff.
produce --example replay_whatif
# The storm over flat, mirrored (retry-only, hedged) and (2,3)-coded volumes.
produce --example redundancy_report
# The kernel under all five page replacement policies, readahead off, a
# fragmented layout, HSM staging and a zoned table.
produce -p sleds-bench --bin figures -- ablations

for fresh in "$scratch"/*; do
    name=$(basename "$fresh")
    # The saturation run's 1.1 MB Chrome trace is git-ignored.
    [[ $name == TRACE_saturation.json ]] && continue
    run diff -u "results/$name" "$fresh"
done
# A machine-readable artifact nothing regenerates is gated by nothing.
for committed in results/*.json results/*.jsonl results/*.folded; do
    if [[ ! -e "$scratch/$(basename "$committed")" ]]; then
        echo "$committed: no producer regenerates it" >&2
        exit 1
    fi
done
# Likewise an example nothing runs: each one asserts or writes a gated
# artifact, and only running it checks either.
for example in examples/*.rs; do
    if [[ $examples_run != *" $(basename "$example" .rs) "* ]]; then
        echo "$example: check.sh does not run it" >&2
        exit 1
    fi
done

# Benchmark smoke: every workload at tiny sizes, once, traced. No timing —
# this gates the benchmark's reference-answer checks (wc counts, grep match
# offsets, FITS outputs, tree answers, replay identity) and its determinism
# guard, so a change that breaks what the benchmark measures fails here and
# not after a four-minute run.
run bash benchmark/run.sh --smoke

echo "All checks passed."
