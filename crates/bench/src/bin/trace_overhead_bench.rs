//! Host-side overhead of the virtual-clock tracer.
//!
//! ```text
//! cargo run --release -p sleds-bench --bin trace_overhead_bench
//! SLEDS_QUICK=1 cargo run --release -p sleds-bench --bin trace_overhead_bench
//! ```
//!
//! The tracer's contract has two halves. The *virtual* half is absolute:
//! tracing never advances the clock or touches `Rusage`, enabled or not —
//! the determinism tests prove it, and this harness re-asserts it on its
//! workload. The *host wall-clock* half is what this benchmark measures:
//!
//! * **hooks** — the raw cost of a `begin`/`end` span pair and of a device
//!   event against a disabled tracer (one null check) and an enabled one
//!   (a ring-buffer write). The disabled numbers are the price every
//!   untraced simulation pays for carrying the instrumentation at all, so
//!   they must stay within noise of zero;
//! * **workload** — a warm `pread` loop (pure syscall + cache-hit path,
//!   the worst case for relative overhead) run with tracing off and on,
//!   plus the enabled tracer's event throughput.
//!
//! Results print as a table and land in `results/BENCH_trace_overhead.json`.

use std::fmt::Write as _;
use std::path::PathBuf;

use sleds_bench::microbench;
use sleds_devices::DiskDevice;
use sleds_fs::{Fd, Kernel, OpenFlags};
use sleds_sim_core::{SimDuration, SimTime, PAGE_SIZE};
use sleds_trace::{span, DeviceCost, Layer, SpanHost, Tracer};

/// Warm `pread`s per workload iteration.
const READS_PER_ITER: u64 = 256;

/// A tracer and the clock its spans are stamped from, owned together the
/// way the kernel owns them.
struct Host {
    tracer: Tracer,
    now: SimTime,
}

impl SpanHost for Host {
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn now(&self) -> SimTime {
        self.now
    }
}

fn hook_pair_ns(h: &mut Host) -> f64 {
    let label = if h.tracer.is_enabled() {
        "hook begin/end (enabled)"
    } else {
        "hook begin/end (disabled)"
    };
    let tick = SimDuration::from_nanos(10_000);
    microbench::time(label, || {
        span(h, Layer::Syscall, "read", [3, 4096, 0], |h| h.now += tick);
        h.now += tick;
    })
    .ns_per_iter
}

fn device_event_ns(t: &mut Tracer) -> f64 {
    let label = if t.is_enabled() {
        "hook device+phases (enabled)"
    } else {
        "hook device+phases (disabled)"
    };
    let phases = [
        ("seek", SimDuration::from_nanos(8_000_000)),
        ("rotate", SimDuration::from_nanos(4_000_000)),
        ("transfer", SimDuration::from_nanos(900_000)),
    ];
    let mut ts = 0u64;
    microbench::time(label, || {
        let ev = DeviceCost {
            class: 1,
            submit: SimTime::from_nanos(ts),
            service: SimDuration::from_nanos(12_900_000),
            sector: ts / 1000,
            sectors: 8,
            bytes: 8 * 512,
            ..DeviceCost::default()
        };
        t.device(&ev, "disk.read", 900_000, &phases);
        ts += 20_000_000;
    })
    .ns_per_iter
}

/// A kernel with one fully warmed file; iterations only hit the cache.
fn warm_kernel() -> (Kernel, Fd) {
    let mut k = Kernel::table2();
    k.mkdir("/data").expect("mkdir");
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .expect("mount");
    let bytes = READS_PER_ITER * PAGE_SIZE;
    k.install_file("/data/f", &vec![5u8; bytes as usize])
        .expect("install");
    k.warm_file_pages("/data/f", 0, READS_PER_ITER)
        .expect("warm");
    let fd = k.open("/data/f", OpenFlags::RDONLY).expect("open");
    (k, fd)
}

/// One workload iteration: `READS_PER_ITER` warm page-sized preads.
fn iter(k: &mut Kernel, fd: Fd) {
    for p in 0..READS_PER_ITER {
        k.pread(fd, p * PAGE_SIZE, PAGE_SIZE as usize)
            .expect("pread");
    }
}

struct WorkloadRow {
    ns_per_syscall_off: f64,
    ns_per_syscall_on: f64,
    events_per_sec: f64,
    virtual_cpu_ns_off: u64,
    virtual_cpu_ns_on: u64,
}

fn workload() -> WorkloadRow {
    let (mut k, fd) = warm_kernel();
    let cpu0 = k.usage().cpu;
    iter(&mut k, fd);
    let virtual_cpu_ns_off = (k.usage().cpu - cpu0).as_nanos();
    let off = microbench::time("warm pread x256 (tracing off)", || iter(&mut k, fd));

    let (mut k, fd) = warm_kernel();
    k.enable_tracing_with_capacity(4 * READS_PER_ITER as usize);
    let cpu0 = k.usage().cpu;
    iter(&mut k, fd);
    let virtual_cpu_ns_on = (k.usage().cpu - cpu0).as_nanos();
    let on = microbench::time("warm pread x256 (tracing on)", || iter(&mut k, fd));
    // Each traced pread is one begin + one end event.
    let events_per_iter = 2.0 * READS_PER_ITER as f64;
    let events_per_sec = events_per_iter / (on.ns_per_iter * 1e-9);

    assert_eq!(
        virtual_cpu_ns_off, virtual_cpu_ns_on,
        "tracing must charge zero virtual CPU"
    );

    WorkloadRow {
        ns_per_syscall_off: off.ns_per_iter / READS_PER_ITER as f64,
        ns_per_syscall_on: on.ns_per_iter / READS_PER_ITER as f64,
        events_per_sec,
        virtual_cpu_ns_off,
        virtual_cpu_ns_on,
    }
}

fn results_dir() -> PathBuf {
    std::env::var("SLEDS_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

fn main() {
    let quick = sleds_bench::quick_mode();

    // The timing loop itself (an `Instant::now` check per iteration plus
    // the closure's argument setup) costs tens of nanoseconds; measure it
    // so the hook numbers can be reported net of harness overhead.
    let mut sink = 0u64;
    let harness_ns = microbench::time("harness noop", || {
        sink = sink.wrapping_add(20_000);
        std::hint::black_box(sink);
    })
    .ns_per_iter;

    let host = |tracer| Host {
        tracer,
        now: SimTime::ZERO,
    };
    let mut off = host(Tracer::disabled());
    let disabled_pair_ns = (hook_pair_ns(&mut off) - harness_ns).max(0.0);
    let disabled_device_ns = (device_event_ns(&mut off.tracer) - harness_ns).max(0.0);
    assert_eq!(
        off.tracer.emitted(),
        0,
        "disabled tracer must record nothing"
    );

    let mut on = host(Tracer::enabled());
    let enabled_pair_ns = (hook_pair_ns(&mut on) - harness_ns).max(0.0);
    let enabled_device_ns = (device_event_ns(&mut on.tracer) - harness_ns).max(0.0);
    assert!(on.tracer.emitted() > 0, "enabled tracer must record");

    let w = workload();

    println!(
        "\nper-syscall wall overhead: {:.1} ns off, {:.1} ns on ({:+.1} ns, {:.2}%)",
        w.ns_per_syscall_off,
        w.ns_per_syscall_on,
        w.ns_per_syscall_on - w.ns_per_syscall_off,
        100.0 * (w.ns_per_syscall_on - w.ns_per_syscall_off) / w.ns_per_syscall_off
    );
    println!(
        "enabled event throughput: {:.1} M events/sec; virtual CPU identical at {} ns",
        w.events_per_sec / 1e6,
        w.virtual_cpu_ns_on
    );

    // The disabled hook is a null check; hold it to single-digit
    // nanoseconds so "tracing compiled in" never becomes a tax. The bound
    // is generous because CI machines are noisy.
    assert!(
        disabled_pair_ns < 25.0,
        "disabled begin/end pair must be near-zero, got {disabled_pair_ns:.1} ns"
    );

    let mut out = String::new();
    out.push_str("{\n");
    // Common bench envelope (see bench_index): headline is the traced
    // workload iteration — 256 warm preads with the ring enabled.
    out.push_str("  \"schema\": \"sleds-bench-v1\",\n");
    out.push_str("  \"name\": \"trace-overhead\",\n");
    out.push_str("  \"config\": \"256 warm page preads per iteration, tracer on vs off\",\n");
    writeln!(out, "  \"virtual_ns\": {},", w.virtual_cpu_ns_on).expect("fmt");
    writeln!(
        out,
        "  \"host_wall_ns\": {:.0},",
        w.ns_per_syscall_on * 256.0
    )
    .expect("fmt");
    writeln!(out, "  \"ops_per_sec\": {:.0},", w.events_per_sec).expect("fmt");
    out.push_str("  \"benchmark\": \"tracer host-side overhead: disabled null check vs enabled ring write\",\n");
    out.push_str(
        "  \"regenerate\": \"cargo run --release -p sleds-bench --bin trace_overhead_bench\",\n",
    );
    writeln!(out, "  \"quick_mode\": {quick},").expect("fmt");
    out.push_str("  \"units\": {\n");
    out.push_str("    \"hook_ns\": \"host wall-clock per hook call, self-timed mean, net of harness overhead\",\n");
    out.push_str(
        "    \"workload\": \"256 warm page preads per iteration; per-syscall figures divide by 256\",\n",
    );
    out.push_str("    \"virtual_cpu_ns\": \"simulated CPU charged per workload iteration\"\n");
    out.push_str("  },\n");
    out.push_str("  \"hooks\": {\n");
    writeln!(out, "    \"harness_noop_ns\": {harness_ns:.1},").expect("fmt");
    writeln!(out, "    \"span_pair_disabled_ns\": {disabled_pair_ns:.1},").expect("fmt");
    writeln!(out, "    \"span_pair_enabled_ns\": {enabled_pair_ns:.1},").expect("fmt");
    writeln!(
        out,
        "    \"device_event_disabled_ns\": {disabled_device_ns:.1},"
    )
    .expect("fmt");
    writeln!(
        out,
        "    \"device_event_enabled_ns\": {enabled_device_ns:.1}"
    )
    .expect("fmt");
    out.push_str("  },\n");
    out.push_str("  \"workload\": {\n");
    writeln!(
        out,
        "    \"ns_per_syscall_tracing_off\": {:.1},",
        w.ns_per_syscall_off
    )
    .expect("fmt");
    writeln!(
        out,
        "    \"ns_per_syscall_tracing_on\": {:.1},",
        w.ns_per_syscall_on
    )
    .expect("fmt");
    writeln!(out, "    \"events_per_sec\": {:.0},", w.events_per_sec).expect("fmt");
    writeln!(
        out,
        "    \"virtual_cpu_ns_tracing_off\": {},",
        w.virtual_cpu_ns_off
    )
    .expect("fmt");
    writeln!(
        out,
        "    \"virtual_cpu_ns_tracing_on\": {}",
        w.virtual_cpu_ns_on
    )
    .expect("fmt");
    out.push_str("  }\n}\n");

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("mkdir results");
    let path = dir.join("BENCH_trace_overhead.json");
    std::fs::write(&path, out).expect("write json");
    println!("-> {}", path.display());
}
