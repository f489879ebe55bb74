//! The metric tables: every number the benchmark reports, with the clock
//! it is read on. `BENCHMARK.json` is generated from these tables
//! (`sleds-benchmark manifest`), so the two cannot drift.
//!
//! The two clocks are never mixed: a **virtual** figure is what the
//! modelled machine charges and must repeat bit for bit for one seed; a
//! **host** figure is what the simulator costs to run and is a median of
//! repetitions; the end-to-end host times are in reference seconds (see
//! `reference.rs`).

use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    Virtual,
    Host,
}

#[derive(Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// True when a higher value is better.
    pub higher: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, clock: Clock, bound: f64) -> Def {
    Def {
        name,
        unit,
        clock,
        higher: false,
        bound,
    }
}

const fn host(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        clock: Clock::Host,
        higher: false,
        bound: 0.0,
    }
}

const fn virt(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        clock: Clock::Virtual,
        higher: false,
        bound: 0.0,
    }
}

const fn up(d: Def) -> Def {
    Def { higher: true, ..d }
}

/// What a user of the system sees; every one is reported on every
/// workload and none is ever zero. Bounds were calibrated with ten-seed
/// spreads on the 2-core reference box (see README.md).
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Clock::Host, 0.25),
    e2e("host_s", "s", Clock::Host, 0.25),
    e2e("host_ns_per_op", "ns/op", Clock::Host, 0.25),
    e2e("peak_rss_mb", "MiB", Clock::Host, 0.15),
    e2e("virtual_elapsed_s", "s", Clock::Virtual, 0.25),
    e2e("virtual_cpu_s", "s", Clock::Virtual, 0.06),
    e2e("virtual_syscall_p50_ns", "ns", Clock::Virtual, 0.02),
    e2e("virtual_syscall_p99_ns", "ns", Clock::Virtual, 0.25),
    e2e("major_faults", "count", Clock::Virtual, 0.02),
];

/// Single-layer figures, from the traced run. No bounds: they explain an
/// end-to-end movement, they do not gate.
pub const PER_LAYER: &[Def] = &[
    // harness: diagnose a noisy run.
    up(host("harness.reps", "count")),
    up(host("harness.oncpu_share", "ratio")),
    host("harness.box_slowness_x", "x"),
    host("harness.host_s_iqr_share", "ratio"),
    host("harness.trace_overhead_share", "ratio"),
    virt("harness.failed_ops_share", "ratio"),
    // apps
    host("apps.wc.host_ns_per_mib", "ns/MiB"),
    host("apps.grep_all.host_ns_per_mib", "ns/MiB"),
    host("apps.grep_q.host_ns_per_mib", "ns/MiB"),
    host("apps.fimhisto.host_ns_per_mib", "ns/MiB"),
    host("apps.fimgbin.host_ns_per_mib", "ns/MiB"),
    host("apps.find.host_ns_per_file", "ns/file"),
    host("apps.find_prog.host_ns_per_file", "ns/file"),
    virt("apps.elapsed_baseline_s", "s"),
    virt("apps.elapsed_sleds_s", "s"),
    up(virt("apps.sleds_speedup_x", "x")),
    up(virt("apps.sleds_speedup_fit_x", "x")),
    up(virt("apps.sleds_speedup_spill_x", "x")),
    virt("apps.faults_baseline", "count"),
    virt("apps.faults_sleds", "count"),
    // core (crate `sleds`)
    virt("core.fsleds_get.calls", "count"),
    virt("core.fsleds_get.sleds_per_call", "count"),
    host("core.fsleds_get.host_ns_per_call", "ns"),
    virt("core.pick.chunks", "count"),
    host("core.pick.host_ns_per_chunk", "ns"),
    virt("core.predict.abs_rel_err", "ratio"),
    // fs: the syscall door
    virt("fs.syscalls", "count"),
    virt("fs.crossings", "count"),
    virt("fs.crossing_cpu_s", "s"),
    host("fs.open.host_ns_per_call", "ns"),
    host("fs.close.host_ns_per_call", "ns"),
    host("fs.stat.host_ns_per_call", "ns"),
    host("fs.readdir.host_ns_per_entry", "ns"),
    host("fs.pread_warm.host_ns_per_call", "ns"),
    host("fs.pread_cold.host_ns_per_page", "ns"),
    host("fs.write.host_ns_per_page", "ns"),
    host("fs.fsync.host_ns_per_page", "ns"),
    host("fs.tenant_switch.host_ns_per_call", "ns"),
    // fs.ring
    virt("fs.ring.enters", "count"),
    up(virt("fs.ring.ops_per_enter", "count")),
    host("fs.ring.host_ns_per_op", "ns"),
    // fs.prog
    virt("fs.prog.evals", "count"),
    host("fs.prog.host_ns_per_file", "ns"),
    host("fs.prog.pushdown_over_naive_host_x", "x"),
    // fs.queue
    virt("fs.queue.wait_s", "s"),
    virt("fs.queue.wait_p99_ns", "ns"),
    virt("fs.queue.depth_high_water", "count"),
    virt("fs.queue.disk_util_ppm", "ppm"),
    virt("fs.queue.bullies", "count"),
    // fs.volume
    virt("fs.volume.hedges", "count"),
    up(virt("fs.volume.hedge_wins", "count")),
    virt("fs.volume.hedge_wait_s", "s"),
    // fs.capture
    virt("fs.capture.ops", "count"),
    up(virt("fs.capture.complete", "count")),
    host("fs.capture.host_overhead_ns_per_op", "ns"),
    // pagecache
    up(virt("pagecache.hits", "count")),
    virt("pagecache.misses", "count"),
    up(virt("pagecache.hit_ratio", "ratio")),
    virt("pagecache.evictions", "count"),
    virt("pagecache.dirty_evictions", "count"),
    host("pagecache.lookup.host_ns_per_call", "ns"),
    host("pagecache.insert_evict.host_ns_per_call", "ns"),
    // devices, per class
    virt("devices.disk.cmds", "count"),
    virt("devices.disk.bytes", "B"),
    virt("devices.disk.busy_s", "s"),
    virt("devices.disk.repositions", "count"),
    virt("devices.disk.service_p99_ns", "ns"),
    host("devices.disk.host_ns_per_cmd", "ns"),
    virt("devices.cdrom.cmds", "count"),
    virt("devices.cdrom.bytes", "B"),
    virt("devices.cdrom.busy_s", "s"),
    virt("devices.cdrom.repositions", "count"),
    virt("devices.cdrom.service_p99_ns", "ns"),
    host("devices.cdrom.host_ns_per_cmd", "ns"),
    virt("devices.network.cmds", "count"),
    virt("devices.network.bytes", "B"),
    virt("devices.network.busy_s", "s"),
    virt("devices.network.repositions", "count"),
    virt("devices.network.service_p99_ns", "ns"),
    host("devices.network.host_ns_per_cmd", "ns"),
    virt("devices.tape.cmds", "count"),
    virt("devices.tape.bytes", "B"),
    virt("devices.tape.busy_s", "s"),
    virt("devices.tape.repositions", "count"),
    virt("devices.tape.service_p99_ns", "ns"),
    host("devices.tape.host_ns_per_cmd", "ns"),
    // faults
    virt("faults.injected", "count"),
    virt("faults.retries", "count"),
    virt("faults.backoff_s", "s"),
    virt("faults.app_visible_errors", "count"),
    // trace
    virt("trace.events", "count"),
    virt("trace.dropped", "count"),
    host("trace.host_overhead_ns_per_syscall", "ns"),
    host("trace.export.host_ns_per_event", "ns"),
    // replay
    host("replay.serialize.host_ns_per_op", "ns"),
    host("replay.parse.host_ns_per_op", "ns"),
    host("replay.identity.host_ns_per_op", "ns"),
    host("replay.whatif.host_ns_per_op", "ns"),
    host("replay.diff.host_ns_per_op", "ns"),
    virt("replay.identity_mismatches", "count"),
    virt("replay.diff_residual_ns", "ns"),
    // textmatch
    virt("textmatch.bytes", "B"),
    host("textmatch.host_ns_per_byte", "ns/B"),
    // fits
    virt("fits.bytes_written_per_byte_read", "ratio"),
    // lmbench
    host("lmbench.fill_table.host_s", "s"),
    virt("lmbench.fill_table.virtual_s", "s"),
    // sim-core
    host("sim-core.submitter.host_ns_per_pick", "ns"),
];

pub fn def_of(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured seconds per run the driver asks for (`run_seconds`), and the
/// default of `--seconds`.
pub const RUN_SECONDS: u32 = 30;

/// One repetition's (or one run's) figures by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Stores `value` under `name`, insisting the name is in the tables so a
/// typo cannot invent a metric.
pub fn put(values: &mut Values, name: &'static str, value: f64) {
    assert!(def_of(name).is_some(), "unknown metric {name}");
    values.insert(name, value);
}

/// Adds `value` to what is stored under `name` (zero if absent).
pub fn add(values: &mut Values, name: &'static str, value: f64) {
    assert!(def_of(name).is_some(), "unknown metric {name}");
    *values.entry(name).or_insert(0.0) += value;
}

/// The first figure present in both maps on which they differ, if any.
/// Bit for bit: a virtual figure is exact or it is wrong.
pub fn first_difference(a: &Values, b: &Values) -> Option<&'static str> {
    a.iter()
        .find(|(name, x)| b.get(*name).is_some_and(|y| x.to_bits() != y.to_bits()))
        .map(|(name, _)| *name)
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(xs, n=4)` gives
/// them (exclusive method). Zero for fewer than two samples.
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q(3) - q(1)).abs() / m.abs()
    }
}

/// A log-bucket histogram pooled over several `LogHistogram`s: bucket
/// floor in nanoseconds to count.
pub type Buckets = BTreeMap<u64, u64>;

/// Quantile of a pooled histogram, interpolated linearly inside the bucket
/// that holds the rank. Power-of-two bucket floors alone would make every
/// quantile jump by 2x or not at all; interpolation keeps the figure a
/// pure function of the bucket counts while letting it move in proportion.
pub fn bucket_quantile(buckets: &Buckets, q: f64) -> f64 {
    let total: u64 = buckets.values().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().clamp(1.0, total as f64);
    let mut seen = 0u64;
    for (&floor, &count) in buckets {
        if (seen + count) as f64 >= rank {
            // Bucket 0 absorbs zero; a wait that never happened reads 0.
            let within = (rank - seen as f64) / count as f64;
            return floor as f64 * (1.0 + within);
        }
        seen += count;
    }
    0.0
}

/// Sums `(floor, count)` pairs from another histogram into `pool`.
pub fn pool_buckets(pool: &mut Buckets, buckets: impl Iterator<Item = (u64, u64)>) {
    for (floor, count) in buckets {
        *pool.entry(floor).or_insert(0) += count;
    }
}
