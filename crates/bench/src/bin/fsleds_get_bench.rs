//! Before/after microbenchmark for the extent-based `FSLEDS_GET` walk.
//!
//! ```text
//! cargo run --release -p sleds-bench --bin fsleds_get_bench
//! SLEDS_QUICK=1 cargo run --release -p sleds-bench --bin fsleds_get_bench
//! ```
//!
//! For each (file size, cache-fragmentation pattern) scenario the harness
//! measures one `FSLEDS_GET` residency walk three ways:
//!
//! * **old** — [`Kernel::page_locations_per_page_reference`], the retained
//!   per-page walk: clones the whole per-page placement map and probes the
//!   cache once per page (`page_walk_cpu * pages` virtual CPU);
//! * **new** — [`Kernel::page_extents`], the extent-index walk: one range
//!   probe per residency run (`page_walk_cpu * extents + floor * pages`);
//! * **cached repeat** — [`SledCache::get`] twice, showing the
//!   generation-stamp hit path costs one syscall and no walk at all.
//!
//! Virtual-clock CPU comes from the simulator's rusage deltas; wall-clock
//! comes from the self-timing harness in [`sleds_bench::microbench`]; the
//! "entries" columns count allocated result entries (per-page vectors
//! before, run-length extents after). Results print as a table and land in
//! `results/BENCH_fsleds_get.json`.

use std::fmt::Write as _;
use std::path::PathBuf;

use sleds::{fsleds_get, SledCache, SledsEntry, SledsTable};
use sleds_bench::microbench;
use sleds_devices::DiskDevice;
use sleds_fs::{Fd, Kernel, MachineConfig, OpenFlags};
use sleds_sim_core::{ByteSize, PAGE_SIZE};
use sleds_trace::json_escape;

/// One measured scenario.
struct Row {
    name: String,
    file_bytes: u64,
    pages: u64,
    resident_runs: usize,
    page_extents: u64,
    sleds: u64,
    old_virtual_cpu_ns: u64,
    new_virtual_cpu_ns: u64,
    old_wall_ns: f64,
    new_wall_ns: f64,
    old_entries: u64,
    new_entries: u64,
    cached_repeat_cpu_ns: u64,
}

impl Row {
    fn virtual_ratio(&self) -> f64 {
        self.old_virtual_cpu_ns as f64 / self.new_virtual_cpu_ns.max(1) as f64
    }
    fn wall_ratio(&self) -> f64 {
        self.old_wall_ns / self.new_wall_ns.max(1.0)
    }
}

/// How the cache is populated before the walk.
enum Pattern {
    /// Nothing resident: the walk sees only layout runs.
    Cold,
    /// The first half of the file resident as one contiguous run.
    Half,
    /// `n` evenly spaced resident runs.
    Runs(u64),
    /// Every `k`-th page resident — pathological fragmentation, worst
    /// case for the extent walk.
    Every(u64),
}

impl Pattern {
    fn label(&self) -> String {
        match self {
            Pattern::Cold => "cold".into(),
            Pattern::Half => "half".into(),
            Pattern::Runs(n) => format!("runs{n}"),
            Pattern::Every(k) => format!("every{k}th"),
        }
    }

    /// Applies the pattern to `path` (a file of `pages` pages).
    fn warm(&self, k: &mut Kernel, path: &str, pages: u64) {
        match *self {
            Pattern::Cold => {}
            Pattern::Half => {
                k.warm_file_pages(path, 0, pages / 2).expect("warm half");
            }
            Pattern::Runs(n) => {
                let n = n.min(pages);
                if n == 0 {
                    return;
                }
                // n runs, each a 1/(2n) slice of the file, evenly spaced so
                // every run is separated by a cold gap.
                let stride = pages / n;
                let len = (stride / 2).max(1);
                for i in 0..n {
                    k.warm_file_pages(path, i * stride, len).expect("warm run");
                }
            }
            Pattern::Every(step) => {
                let mut p = 0;
                while p < pages {
                    k.warm_file_pages(path, p, 1).expect("warm page");
                    p += step;
                }
            }
        }
    }
}

/// A machine whose page cache comfortably holds the largest warmed state
/// (half of 1 GiB), so warm patterns never self-evict. Cost parameters are
/// Table 2's.
fn big_cache_machine() -> MachineConfig {
    MachineConfig {
        ram: ByteSize::gib(2),
        ..MachineConfig::table2()
    }
}

fn setup(size: u64, pattern: &Pattern) -> (Kernel, SledsTable, Fd) {
    let mut k = Kernel::new(big_cache_machine());
    k.mkdir("/data").expect("mkdir");
    let m = k
        .mount_disk("/data", DiskDevice::table2_disk("hda"))
        .expect("mount");
    let dev = k.device_of_mount(m).expect("dev");
    k.install_sparse_file("/data/f", size).expect("install");
    pattern.warm(&mut k, "/data/f", size.div_ceil(PAGE_SIZE));
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t.fill_device(dev, SledsEntry::new(0.018, 9e6));
    let fd = k.open("/data/f", OpenFlags::RDONLY).expect("open");
    (k, t, fd)
}

fn virtual_cpu_of(k: &mut Kernel, mut f: impl FnMut(&mut Kernel)) -> u64 {
    let before = k.usage().cpu;
    f(k);
    (k.usage().cpu - before).as_nanos()
}

fn measure(size: u64, pattern: Pattern) -> Row {
    let (mut k, t, fd) = setup(size, &pattern);
    let pages = size.div_ceil(PAGE_SIZE);

    let resident_runs = k.resident_extents(fd).expect("resident runs");
    let extents = k.page_extents(fd).expect("extents");
    let sleds = fsleds_get(&mut k, fd, &t).expect("fsleds_get");

    let old_virtual_cpu_ns = virtual_cpu_of(&mut k, |k| {
        drop(k.page_locations_per_page_reference(fd).expect("old"))
    });
    let new_virtual_cpu_ns = virtual_cpu_of(&mut k, |k| drop(k.page_extents(fd).expect("new")));

    // Generation-cached repeat: one get to fill, then a stamp-validated hit.
    let mut cache = SledCache::new();
    cache.get(&mut k, &t, fd).expect("fill");
    let cached_repeat_cpu_ns = virtual_cpu_of(&mut k, |k| drop(cache.get(k, &t, fd).expect("hit")));
    assert_eq!(cache.hits(), 1, "repeat get must hit the memoized vector");

    let name = format!("{}_{}", ByteSize::bytes(size), pattern.label());
    let old_wall = microbench::time(&format!("{name} old(per-page)"), || {
        k.page_locations_per_page_reference(fd).expect("old")
    });
    let new_wall = microbench::time(&format!("{name} new(extents)"), || {
        k.page_extents(fd).expect("new")
    });

    Row {
        name,
        file_bytes: size,
        pages,
        resident_runs,
        page_extents: extents.len() as u64,
        sleds: sleds.len() as u64,
        old_virtual_cpu_ns,
        new_virtual_cpu_ns,
        old_wall_ns: old_wall.ns_per_iter,
        new_wall_ns: new_wall.ns_per_iter,
        old_entries: pages,
        new_entries: extents.len() as u64,
        cached_repeat_cpu_ns,
    }
}

fn to_json(rows: &[Row], quick: bool) -> String {
    // Common bench envelope (see bench_index): headline is the extent
    // walk under test — summed virtual CPU and mean per-call host wall.
    let virtual_ns: u64 = rows.iter().map(|r| r.new_virtual_cpu_ns).sum();
    let host_wall_ns: f64 = rows.iter().map(|r| r.new_wall_ns).sum();
    let ops_per_sec = if host_wall_ns > 0.0 {
        rows.len() as f64 * 1e9 / host_wall_ns
    } else {
        0.0
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"sleds-bench-v1\",\n");
    out.push_str("  \"name\": \"fsleds-get-extent-walk\",\n");
    out.push_str(
        "  \"config\": \"4KiB..1GiB files x residency patterns (cold, half, runs8, every7)\",\n",
    );
    writeln!(out, "  \"virtual_ns\": {virtual_ns},").expect("fmt");
    writeln!(out, "  \"host_wall_ns\": {:.0},", host_wall_ns).expect("fmt");
    writeln!(out, "  \"ops_per_sec\": {ops_per_sec:.0},").expect("fmt");
    out.push_str(
        "  \"benchmark\": \"FSLEDS_GET residency walk: per-page reference vs extent index\",\n",
    );
    out.push_str(
        "  \"regenerate\": \"cargo run --release -p sleds-bench --bin fsleds_get_bench\",\n",
    );
    writeln!(out, "  \"quick_mode\": {quick},").expect("fmt");
    out.push_str("  \"units\": {\n");
    out.push_str("    \"virtual_cpu_ns\": \"simulated CPU charged by the kernel's cost model\",\n");
    out.push_str("    \"wall_ns_per_iter\": \"host wall-clock per call, self-timed mean\",\n");
    out.push_str("    \"entries\": \"allocated result entries per call\"\n");
    out.push_str("  },\n");
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        writeln!(out, "      \"name\": \"{}\",", json_escape(&r.name)).expect("fmt");
        writeln!(out, "      \"file_bytes\": {},", r.file_bytes).expect("fmt");
        writeln!(out, "      \"pages\": {},", r.pages).expect("fmt");
        writeln!(out, "      \"resident_runs\": {},", r.resident_runs).expect("fmt");
        writeln!(out, "      \"page_extents\": {},", r.page_extents).expect("fmt");
        writeln!(out, "      \"sleds\": {},", r.sleds).expect("fmt");
        writeln!(
            out,
            "      \"old\": {{ \"virtual_cpu_ns\": {}, \"wall_ns_per_iter\": {:.1}, \"entries\": {} }},",
            r.old_virtual_cpu_ns, r.old_wall_ns, r.old_entries
        )
        .expect("fmt");
        writeln!(
            out,
            "      \"new\": {{ \"virtual_cpu_ns\": {}, \"wall_ns_per_iter\": {:.1}, \"entries\": {} }},",
            r.new_virtual_cpu_ns, r.new_wall_ns, r.new_entries
        )
        .expect("fmt");
        writeln!(
            out,
            "      \"cached_repeat_cpu_ns\": {},",
            r.cached_repeat_cpu_ns
        )
        .expect("fmt");
        writeln!(
            out,
            "      \"virtual_cpu_ratio\": {:.2},",
            r.virtual_ratio()
        )
        .expect("fmt");
        writeln!(out, "      \"wall_ratio\": {:.2}", r.wall_ratio()).expect("fmt");
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn table(rows: &[Row]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<20} {:>10} {:>6} {:>8} {:>14} {:>14} {:>8} {:>10}",
        "scenario", "pages", "runs", "extents", "old-vcpu", "new-vcpu", "speedup", "hit-vcpu"
    )
    .expect("fmt");
    for r in rows {
        writeln!(
            out,
            "{:<20} {:>10} {:>6} {:>8} {:>12}ns {:>12}ns {:>7.1}x {:>8}ns",
            r.name,
            r.pages,
            r.resident_runs,
            r.page_extents,
            r.old_virtual_cpu_ns,
            r.new_virtual_cpu_ns,
            r.virtual_ratio(),
            r.cached_repeat_cpu_ns,
        )
        .expect("fmt");
    }
    out
}

fn results_dir() -> PathBuf {
    std::env::var("SLEDS_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

fn main() {
    let quick = sleds_bench::quick_mode();
    let sizes: &[u64] = if quick {
        &[4 * 1024, MIB, 64 * MIB]
    } else {
        &[4 * 1024, MIB, 64 * MIB, GIB]
    };
    let mut rows = Vec::new();
    for &size in sizes {
        rows.push(measure(size, Pattern::Cold));
        rows.push(measure(size, Pattern::Half));
        rows.push(measure(size, Pattern::Runs(8)));
        // The pathological pattern is where the extent walk degrades
        // gracefully toward per-page cost; cap it below 1 GiB so the
        // full sweep stays fast.
        if size <= 64 * MIB {
            rows.push(measure(size, Pattern::Every(7)));
        }
    }

    println!("\n{}", table(&rows));

    // The acceptance bar: a 1 GiB file with <= 8 residency runs must walk
    // at least 10x cheaper in virtual CPU than the per-page reference.
    if let Some(r) = rows
        .iter()
        .find(|r| r.file_bytes == GIB && r.resident_runs <= 8 && r.resident_runs > 0)
    {
        let ratio = r.virtual_ratio();
        println!(
            "1 GiB / {} resident runs: {:.1}x virtual-CPU reduction (need >= 10x)",
            r.resident_runs, ratio
        );
        assert!(
            ratio >= 10.0,
            "extent walk must be >= 10x cheaper, got {ratio:.1}x"
        );
    }

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("mkdir results");
    let path = dir.join("BENCH_fsleds_get.json");
    std::fs::write(&path, to_json(&rows, quick)).expect("write json");
    println!("-> {}", path.display());
}

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;
