#!/usr/bin/env bash
# Heap traffic of every benchmark workload: how often one small run calls
# the allocator, how much it asks for, and how much it holds at its peak.
#
#   scripts/allocprof.sh [out=BENCH_alloc.json]
#
# Builds `benchmark/` as `benchmark/run.sh` does (`$CARGO_TARGET_DIR`,
# default `benchmark/target`), compiles a small allocation counter with the
# system `gcc`, preloads it into one `--smoke --trace 1` run of each
# workload (seed 1, one process each, `argv[0]` fixed so the binary's path
# does not count), and writes one JSON object to `out`: per workload, the
# calls to malloc (with posix_memalign, aligned_alloc and memalign), calloc,
# realloc and free, the KiB those calls asked for, and the peak of live
# heap bytes as `malloc_usable_size` counts them. A smoke run does a fixed
# amount of work, so the file is a pure function of the source, the Rust
# toolchain and the C library: `scripts/check.sh` diffs it against the
# committed copy, and a change that moves it regenerates it with this
# script and names the move. Writes only `out`, a temporary directory and
# the target directory.
set -euo pipefail

if (($# > 1)); then
    sed -n '2,19p' "$0" >&2
    exit 2
fi
command -v gcc >/dev/null || {
    echo "allocprof.sh: needs gcc, which is not installed" >&2
    exit 1
}
root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$root/BENCH_alloc.json}
target=${CARGO_TARGET_DIR:-$root/benchmark/target}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

CARGO_NET_OFFLINE=true cargo build --release --offline --locked --manifest-path "$root/benchmark/Cargo.toml" >&2
bin=$target/release/sleds-benchmark

# The counter: every entry forwards to glibc's own implementation, counts
# the call and the bytes asked for, and moves the live total by each
# block's usable size. The run is one thread. At exit the totals are read
# before anything that could allocate, then written as one JSON line.
cat >"$work/allocprof.c" <<'C'
#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <stdio.h>
#include <stdlib.h>

void *__libc_malloc(size_t);
void *__libc_calloc(size_t, size_t);
void *__libc_realloc(void *, size_t);
void __libc_free(void *);
void *__libc_memalign(size_t, size_t);

static unsigned long long n_malloc, n_calloc, n_realloc, n_free, asked, live, peak;

static void *gained(void *p) {
    if (p && (live += malloc_usable_size(p)) > peak) peak = live;
    return p;
}

static void lost(void *p) {
    if (p) live -= malloc_usable_size(p);
}

void *malloc(size_t n) { n_malloc++, asked += n; return gained(__libc_malloc(n)); }
void *calloc(size_t k, size_t n) { n_calloc++, asked += k * n; return gained(__libc_calloc(k, n)); }
void free(void *p) { n_free++, lost(p); __libc_free(p); }
void *memalign(size_t a, size_t n) { n_malloc++, asked += n; return gained(__libc_memalign(a, n)); }
void *aligned_alloc(size_t a, size_t n) { return memalign(a, n); }

void *realloc(void *old, size_t n) {
    n_realloc++, asked += n;
    lost(old);
    void *p = __libc_realloc(old, n);
    /* A failed realloc leaves the old block live; `realloc(old, 0)` frees it. */
    if (!p && n) gained(old);
    return gained(p);
}

int posix_memalign(void **to, size_t a, size_t n) {
    if (a % sizeof(void *) || a & (a - 1)) return EINVAL;
    void *p = memalign(a, n);
    if (!p) return ENOMEM;
    *to = p;
    return 0;
}

__attribute__((destructor)) static void report(void) {
    unsigned long long v[] = {n_malloc, n_calloc, n_realloc, n_free, asked / 1024, peak};
    const char *path = getenv("ALLOCPROF_OUT");
    FILE *f = path ? fopen(path, "w") : NULL;
    if (!f) return;
    fprintf(f, "\"malloc\": %llu, \"calloc\": %llu, \"realloc\": %llu, \"free\": %llu, "
               "\"requested_kib\": %llu, \"peak_live_bytes\": %llu\n", v[0], v[1], v[2], v[3], v[4], v[5]);
    fclose(f);
}
C
gcc -O2 -shared -fPIC -o "$work/allocprof.so" "$work/allocprof.c"

workloads=(scan_warm fits_rw tree_walk tenant_replay)
{
    printf '{\n  "schema": "sleds-alloc-v1",\n'
    printf '  "run": "sleds-benchmark --workload <name> --seed 1 --smoke --trace 1, one process per workload, counted by scripts/allocprof.sh",\n'
    printf '  "units": {\n'
    printf '    "malloc": "calls to malloc, posix_memalign, aligned_alloc and memalign",\n'
    printf '    "calloc": "calls",\n    "realloc": "calls",\n    "free": "calls",\n'
    printf '    "requested_kib": "KiB asked for by all of those calls but free, summed, rounded down",\n'
    printf '    "peak_live_bytes": "bytes: the most heap held at once, each live block counted at its malloc_usable_size"\n'
    printf '  },\n  "workloads": {\n'
    for w in "${workloads[@]}"; do
        (ALLOCPROF_OUT=$work/$w LD_PRELOAD=$work/allocprof.so exec -a sleds-benchmark "$bin" \
            --workload "$w" --seed 1 --trace 1 --smoke >/dev/null)
        [[ -s $work/$w ]] || {
            echo "allocprof.sh: $w wrote no counts" >&2
            exit 1
        }
        sep=,
        [[ $w == "${workloads[-1]}" ]] && sep=
        printf '    "%s": {%s}%s\n' "$w" "$(tr -d '\n' <"$work/$w")" "$sep"
    done
    printf '  }\n}\n'
} >"$work/out.json"
mv "$work/out.json" "$out"
