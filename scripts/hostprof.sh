#!/usr/bin/env bash
# Where the simulator's host time goes: a sampled profile of one benchmark
# workload's measured phase, or of its set-up phase.
#
#   scripts/hostprof.sh <workload> [seconds=16] [seed=1] [measured|setup]
#
# Builds `benchmark/` with frame pointers and debug info into a scratch
# target directory (`$CARGO_TARGET_DIR`, default a fixed directory under
# `$TMPDIR`), compiles a small `SIGPROF` sampler with the system `gcc`,
# preloads it into one untraced run, and prints the self and inclusive
# share of every function among the samples taken in the chosen phase
# (`measured` by default), resolved with `addr2line -i` so inlined
# functions count under their own names. A measured sample has the
# workload's `rep` on the stack and no set-up, teardown or check frame:
# the workload's `setup`, `Kernel::table2`, `mkdir` or `install_*`, the
# drop of a `Kernel` or a workload `Env`, or the benchmark's checks after
# the clock stops (anything in `sleds_benchmark::check`, `check_logs`,
# `check_identities`, `read_back_histogram`, `read_image`). Checks written
# inline in `rep` have no frame of their own to cut: `tenant_replay`'s
# check-time `to_jsonl` calls, `saturation_report` equality and `lines()`
# comparison still count as measured. A set-up sample has the workload's
# `rep` calling straight into its `setup` or `plan`, or into
# `build_kernel` (`tenant_replay` builds its machines inline in `rep`).
# Samples that land in libc are bucketed as `[libc_malloc/free]`,
# `[libc_memcmp]`, `[libc_memcpy/memset]` or `[libc_other]`; the leaf's
# caller is recovered from the stack, so their callers' inclusive shares
# still count them. Writes only under a temporary directory and the
# target directory.
set -euo pipefail

if (($# < 1)) || [[ ${4:-measured} != @(measured|setup) ]]; then
    sed -n '2,28p' "$0" >&2
    exit 2
fi
workload=$1 seconds=${2:-16} seed=${3:-1} phase=${4:-measured}
for tool in gcc addr2line; do
    command -v "$tool" >/dev/null || {
        echo "hostprof.sh: needs $tool, which is not installed" >&2
        exit 1
    }
done
root=$(cd "$(dirname "$0")/.." && pwd)
target=${CARGO_TARGET_DIR:-${TMPDIR:-/tmp}/sleds-hostprof-target}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Debug info through the profile, not RUSTFLAGS: a release profile without
# it strips whatever RUSTFLAGS asked for.
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=true CARGO_TARGET_DIR=$target \
    cargo build --release --offline --locked --manifest-path "$root/benchmark/Cargo.toml" >&2
bin=$target/release/sleds-benchmark

# The sampler: every 2 ms of CPU, the interrupted pc, then the return
# addresses down the frame-pointer chain. A libc leaf keeps no frame of its
# own, so its caller is the first word above its stack pointer that points
# into the benchmark's text. At exit each frame is written as `x<file
# address>` (a return address less one, so it names the call) or, for a
# leaf outside the benchmark, `=<bucket>`: a libc pc belongs to the nearest
# exported entry or IFUNC-resolved implementation at or below it.
cat >"$work/sampler.c" <<'C'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define WORDS (1u << 22)
#define DEPTH 128
static uintptr_t buf[WORDS], text_lo = 1, text_hi, stack_hi;
static size_t used;

static int in_text(uintptr_t a) { return a >= text_lo && a < text_hi; }

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t pc = r[REG_RIP], sp = r[REG_RSP], fp = r[REG_RBP];
    (void)sig, (void)si;
    if (used + DEPTH + 2 > WORDS) return;
    size_t start = used++;
    buf[used++] = pc;
    if (!in_text(pc))
        for (uintptr_t *w = (uintptr_t *)sp; w < (uintptr_t *)sp + 32 && (uintptr_t)(w + 1) <= stack_hi; w++)
            if (in_text(*w)) { buf[used++] = *w; break; }
    for (; used - start < DEPTH && fp >= sp && fp + 16 <= stack_hi && !(fp & 7); fp = ((uintptr_t *)fp)[0]) {
        buf[used++] = ((uintptr_t *)fp)[1];
        if (((uintptr_t *)fp)[0] <= fp) break;
    }
    buf[start] = used - start - 1;
}

__attribute__((constructor)) static void start(void) {
    char line[8192], perms[8], path[4096], exe[4096] = {0};
    uintptr_t lo, hi;
    if (!getenv("HOSTPROF_OUT") || readlink("/proc/self/exe", exe, sizeof exe - 1) < 0) return;
    FILE *m = fopen("/proc/self/maps", "r");
    while (m && fgets(line, sizeof line, m)) {
        path[0] = 0;
        sscanf(line, "%lx-%lx %7s %*s %*s %*s %4095s", &lo, &hi, perms, path);
        if (perms[2] == 'x' && !strcmp(path, exe)) text_lo = text_lo == 1 ? lo : text_lo, text_hi = hi;
        if (!strcmp(path, "[stack]")) stack_hi = hi;
    }
    if (m) fclose(m);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval t = {{0, 2000}, {0, 2000}};
    setitimer(ITIMER_PROF, &t, NULL);
}

static const char *bucket(uintptr_t a) {
    static const char *impl[] = {"memcmp", "bcmp", "memcpy", "memmove", "memset", "malloc", "free", "realloc", "calloc"};
    Dl_info di;
    if (!dladdr((void *)a, &di) || !strstr(di.dli_fname, "libc.so")) return "other";
    const char *name = di.dli_sname ? di.dli_sname : "";
    uintptr_t at = (uintptr_t)di.dli_saddr;
    for (size_t i = 0; i < sizeof impl / sizeof *impl; i++) {
        uintptr_t f = (uintptr_t)dlsym(RTLD_DEFAULT, impl[i]);
        if (f <= a && f > at) at = f, name = impl[i];
    }
    if (strstr(name, "memcmp") || strstr(name, "bcmp")) return "libc_memcmp";
    if (strstr(name, "memcpy") || strstr(name, "memmove") || strstr(name, "memset")) return "libc_memcpy/memset";
    if (strstr(name, "alloc") || strstr(name, "free") || strstr(name, "mall")) return "libc_malloc/free";
    return "libc_other";
}

__attribute__((destructor)) static void finish(void) {
    FILE *out = getenv("HOSTPROF_OUT") ? fopen(getenv("HOSTPROF_OUT"), "w") : NULL;
    struct itimerval off = {{0, 0}, {0, 0}};
    Dl_info exe;
    if (!out || !dladdr((void *)text_lo, &exe)) return;
    setitimer(ITIMER_PROF, &off, NULL);
    for (size_t i = 0; i < used; i += buf[i] + 1) {
        for (size_t j = 1; j <= buf[i]; j++) {
            uintptr_t a = buf[i + j] - (j > 1);
            if (in_text(a)) fprintf(out, " x0x%016lx", a - (uintptr_t)exe.dli_fbase);
            else if (j == 1) fprintf(out, " =%s", bucket(a));
        }
        fputc('\n', out);
    }
    fclose(out);
}
C
gcc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c" -ldl

HOSTPROF_OUT=$work/samples LD_PRELOAD=$work/sampler.so "$bin" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 --out "$work/out" >/dev/null

# Every distinct benchmark address, then its frames, innermost first.
tr ' ' '\n' <"$work/samples" | sed -n 's/^x//p' | sort -u >"$work/addrs"
addr2line -i -f -C -p -a -e "$bin" <"$work/addrs" |
    awk '/^0x/ { addr = $1; sub(":", "", addr); $1 = "" } { print addr "\t" $0 }' |
    sed -e 's/ at [^ ]*$//' -e 's/\t *(inlined by) /\t/' -e 's/\t */\t/' \
        -e 's/::h[0-9a-f]\{16\}$//' >"$work/names"

awk -v want="::$workload::" -v phase="$phase" -v built="::$workload::(setup|plan)\$|::build_kernel\$" -v setup='::(table2|mkdir|install_[a-z_]+|check_logs|check_identities|read_back_histogram|read_image)$|^sleds_benchmark::check::|^core::ptr::drop_in_place<sleds_(fs::kernel::Kernel|benchmark::workloads::[a-z_]+::Env)>$' '
    FILENAME == ARGV[1] {
        split($0, f, "\t")
        name[f[1], depth[f[1]]++] = f[2]
        next
    }
    {
        nf = 0
        for (i = 1; i <= NF; i++) {
            a = substr($i, 2)
            if ($i ~ /^=/) fr[++nf] = "[" a "]"
            else for (d = 0; d < depth[a]; d++) fr[++nf] = name[a, d]
        }
        total++
        keep = 0
        if (phase == "setup") {
            for (i = 2; i <= nf; i++)
                if (index(fr[i], want "rep")) { keep = fr[i - 1] ~ built; break }
        } else {
            for (i = 1; i <= nf; i++) {
                if (index(fr[i], want "rep")) keep = 1
                if (index(fr[i], want "setup") || fr[i] ~ setup) { keep = 0; break }
            }
        }
        if (!keep) next
        measured++
        self[fr[1]]++
        split("", seen)
        for (i = 1; i <= nf; i++) if (!(fr[i] in seen)) { seen[fr[i]] = 1; incl[fr[i]]++ }
    }
    END {
        printf "%d samples, %d in the %s phase of %s (2 ms of CPU each)\n", total, measured, phase, substr(want, 3, length(want) - 4)
        if (!measured) exit 1
        print "\nself %\tfunction"
        for (k in self) printf "%6.2f\t%s\n", 100 * self[k] / measured, k | "sort -rn | head -n 40"
        close("sort -rn | head -n 40")
        print "\ninclusive %\tfunction"
        for (k in incl) printf "%6.2f\t%s\n", 100 * incl[k] / measured, k | "sort -rn | head -n 60"
        close("sort -rn | head -n 60")
    }' "$work/names" "$work/samples"
