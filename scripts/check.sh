#!/usr/bin/env bash
# Offline tier-1 gate: everything here must pass with no network access.
# Usage: scripts/check.sh [--with-proptests]
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

# Scratch space for regenerated artifacts that diff against committed
# baselines below.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --release

run cargo test -q

# The observability pipeline end to end: traced mixed-device workload,
# Chrome trace export, prediction-accuracy audit. The example asserts the
# exported JSON is balanced and the audit is non-empty.
run cargo run --release --example trace_viewer

# Closed-loop accuracy gate: run -> audit -> FSLEDS_RECAL -> re-run. The
# example asserts post-recalibration error is strictly lower for every
# exercised class, and recalibration is a pure function of the trace, so
# its output must match the committed baseline byte-for-byte — any drift
# in prediction accuracy fails this diff.
recal_tmp="$scratch"
run env SLEDS_RESULTS="$recal_tmp" cargo run --release --example recal_loop
run diff -u results/AUDIT_recal.json "$recal_tmp/AUDIT_recal.json"

# Fault-injection gate: seeded-storm determinism, retry masking, offline
# routing, and the degrade -> pollute -> recalibrate -> restore loop. All
# four properties are asserted inside the example, and the whole run is a
# pure function of the virtual clock and the storm seed, so the report must
# match the committed baseline byte-for-byte.
run env SLEDS_RESULTS="$recal_tmp" cargo run --release --example fault_storm
run diff -u results/FAULTS_report.json "$recal_tmp/FAULTS_report.json"

# Submission-ring gate: the million-file batching/pushdown benchmark. The
# example itself asserts the acceptance floor (identical answers across
# modes, >=10x crossing-CPU reduction, >=1M batched ops/sec); every number
# except host wall-clock is a pure function of the virtual machine, so the
# report must match the committed baseline with host_wall lines filtered.
run env SLEDS_RESULTS="$recal_tmp" cargo run --release --example uring_bench
run diff -u <(grep -v host_wall results/BENCH_uring.json) \
    <(grep -v host_wall "$recal_tmp/BENCH_uring.json")

# Saturation-observatory gate: 220 tenants interleaved on shared disk,
# NFS, and tape. The example asserts determinism, exact attribution
# (own-service + queue-wait == observed, per-tenant rusage sums to
# global), bully identification, and the zero-cost observer; the whole
# interleave is a pure function of the tenant specs and the virtual
# clock, so the report must match the committed baseline byte-for-byte.
run env SLEDS_RESULTS="$recal_tmp" cargo run --release --example saturation_report
run diff -u results/SATURATION_report.json "$recal_tmp/SATURATION_report.json"

# Flight-recorder gate: capture the saturation workload, prove the JSONL
# round-trip and identity replay byte-identical, then replay under a
# shrunken command queue + degraded disk. The example asserts every op's
# completion delta is exactly attributed (queue-wait + service, zero
# residual) and that only disk-coupled tenants move; both artifacts are
# pure functions of the virtual clock, so they must match the committed
# baselines byte-for-byte.
run env SLEDS_RESULTS="$recal_tmp" cargo run --release --example replay_whatif
run diff -u results/CAPTURE_saturation.jsonl "$recal_tmp/CAPTURE_saturation.jsonl"
run diff -u results/REPLAY_diff.json "$recal_tmp/REPLAY_diff.json"

# Redundancy gate: the seeded fault storm over flat, mirrored (retry-only
# and hedged), and (2,3)-coded volumes. The example asserts the acceptance
# properties itself (redundant volumes complete 100% of reads through an
# offline primary, hedged faulted-window p99 beats retry-only, exact hedge
# and per-tenant accounting, determinism); the report is a pure function
# of the storm seed, and only the bench envelope's host-wall fields vary.
run env SLEDS_RESULTS="$recal_tmp" cargo run --release --example redundancy_report
run diff -u results/REDUNDANCY_report.json "$recal_tmp/REDUNDANCY_report.json"
run diff -u <(grep -vE 'host_wall_ns|ops_per_sec' results/BENCH_redundancy.json) \
    <(grep -vE 'host_wall_ns|ops_per_sec' "$recal_tmp/BENCH_redundancy.json")

# Replacement-policy gate: the ablation report is the one artifact that
# runs the kernel under all five page replacement policies (and with
# readahead off, a fragmented layout, HSM staging and a zoned table). It is
# a pure function of the virtual machine and regenerates in about a second,
# so it must match the committed report byte-for-byte.
run env SLEDS_RESULTS="$recal_tmp" cargo run --release -p sleds-bench --bin figures -- ablations
run diff -u results/ablations.txt "$recal_tmp/ablations.txt"

# Bench-index gate: every BENCH_*.json must carry the common
# sleds-bench-v1 envelope, and the index over them must match the
# committed baseline (host-dependent envelope fields filtered). The
# committed fsleds_get/trace_overhead reports are copied beside the
# fresh uring output so the index sees the full set.
cp results/BENCH_fsleds_get.json results/BENCH_trace_overhead.json "$recal_tmp/"
run env SLEDS_RESULTS="$recal_tmp" cargo run --release -p sleds-bench --bin bench_index
run diff -u <(grep -vE 'host_wall_ns|ops_per_sec' results/BENCH_index.json) \
    <(grep -vE 'host_wall_ns|ops_per_sec' "$recal_tmp/BENCH_index.json")

# Benchmark smoke: every workload at tiny sizes, once, traced. No timing —
# this gates the benchmark's reference-answer checks (wc counts, grep match
# offsets, FITS outputs, tree answers, replay identity) and its determinism
# guard, so a change that breaks what the benchmark measures fails here and
# not after a four-minute run.
run bash benchmark/run.sh --smoke

if [[ "${1:-}" == "--with-proptests" ]]; then
    # The randomized equivalence suites; heavier, so opt-in.
    run cargo test -q -p sleds-fs --features proptests
    run cargo test -q -p sleds --features proptests
    run cargo test -q -p sleds-textmatch --features proptests
    run cargo test -q -p sleds-fits --features proptests
    run cargo test -q -p sleds-devices --features proptests --test props
    run cargo test -q -p sleds-sim-core --features proptests --test props
    run cargo test -q -p sleds-pagecache --features proptests --test model
    run cargo test -q -p sleds-repro --features proptests --test properties
fi

echo "All checks passed."
