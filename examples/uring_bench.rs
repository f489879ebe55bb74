//! The tentpole benchmark: how much syscall-boundary CPU does the
//! submission ring save, and how much more does in-kernel pushdown save,
//! on a million-file tree?
//!
//! Builds a simulated tree of 1,000,000 sparse one-page files (1000
//! directories x 1000 files), warms a 4096-file working set plus one
//! "needle" file, and runs two workloads three ways each:
//!
//! * `find -latency -m10` — price every file, keep the fast ones.
//!   - **naive**: the stock sequential walk (`find_report`): per file a
//!     `stat` + `open` + `FSLEDS_GET` + `close`, each its own crossing.
//!   - **batched**: the same per-file ops submitted through a deep
//!     [`SubmissionRing`] — one crossing services up to 1024 ops.
//!   - **pushdown**: `find --prog` (`find_prog`): the predicate compiles
//!     to a [`PickProgram`] and one `FSLEDS_WALK` crossing prices and
//!     judges the whole tree in-kernel.
//! * `grep -q needle` — scan files in walk order until the first match.
//!   - **naive**: per file `open` + `pread` + `close`, three crossings.
//!   - **batched**: the same pipeline through the ring.
//!   - **pushdown**: one `FSLEDS_WALK` with `ProgOrder::CachedFirst`
//!     reorders the tree most-cached-first, so the warm needle file is
//!     scanned almost immediately instead of 250k files in.
//!
//! All three modes of a workload must produce identical answers (the
//! equivalence suites pin this in general; this bench asserts it again at
//! scale), and the run asserts the acceptance floor: batched and pushdown
//! each cut total crossing CPU by >= 10x, throughput orders
//! pushdown >= batched >= naive, and the batched path clears one million
//! simulated ops per second of virtual CPU.
//!
//! Emits `results/URING_report.json`, a pure function of the virtual
//! machine (the host cost of the same paths is `benchmark/`'s `tree_walk`).

use sleds_repro::apps::find::{find_prog, find_report, FindHit, FindOptions};
use sleds_repro::devices::DiskDevice;
use sleds_repro::fs::{
    Fd, Kernel, OpenFlags, PickProgram, ProgInst, ProgOrder, Rusage, SubmissionRing, Syscall,
    SyscallRet,
};
use sleds_repro::sim_core::SimDuration;
use sleds_repro::sleds::{estimate_seconds, AttackPlan, LatencyPredicate, SledsEntry, SledsTable};

/// Tree shape: `DIRS x FILES_PER_DIR` sparse files of `FILE_BYTES` each.
const DIRS: usize = 1000;
const FILES_PER_DIR: usize = 1000;
const FILE_BYTES: u64 = 4096;

/// Warm working set: the first `WARM_FILES` files of the first
/// `WARM_DIRS` directories, fully resident (16 MiB, inside the table2
/// cache budget), plus the needle file.
const WARM_DIRS: usize = 128;
const WARM_FILES: usize = 32;

/// The one file whose contents contain the grep pattern. A quarter of the
/// way through the walk order, so the naive scan churns through ~250k
/// files before reaching it.
const NEEDLE_DIR: usize = 250;
const NEEDLE_FILE: usize = 500;
const PATTERN: &[u8] = b"needle";

/// Ring depth for the batched modes. Deeper than the API default (64):
/// a batch-hungry tool sizes its ring like an io_uring app would.
const RING_ENTRIES: usize = 1024;

/// User-side bookkeeping charge per examined entry, kept identical to the
/// sequential find's `FIND_NS_PER_ENTRY` so the modes differ only in how
/// they cross the boundary.
const FIND_NS_PER_ENTRY: u64 = 400;

fn dir_path(d: usize) -> String {
    format!("/tree/d{d:03}")
}

fn file_path(d: usize, f: usize) -> String {
    format!("/tree/d{d:03}/f{f:03}")
}

/// Builds the kernel, tree, and sleds table. Sparse installs keep host
/// memory flat; only the needle file has real contents.
fn setup() -> (Kernel, SledsTable) {
    let mut k = Kernel::table2();
    k.mkdir("/tree").unwrap();
    let m = k
        .mount_disk("/tree", DiskDevice::table2_disk("hda"))
        .unwrap();
    let dev = k.device_of_mount(m).expect("mount has device");

    for d in 0..DIRS {
        k.mkdir(&dir_path(d)).unwrap();
        for f in 0..FILES_PER_DIR {
            k.install_sparse_file(&file_path(d, f), FILE_BYTES).unwrap();
        }
    }
    let mut needle = vec![b'.'; FILE_BYTES as usize];
    needle[2048..2048 + PATTERN.len()].copy_from_slice(PATTERN);
    k.install_file(&file_path(NEEDLE_DIR, NEEDLE_FILE), &needle)
        .unwrap();

    // Flat table: the Table 2 rows the boot-time `fill_table` measures,
    // entered directly so setup does not dominate the bench.
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t.fill_device(dev, SledsEntry::new(0.018, 9e6));
    t.fill_crossing(k.config().syscall_cpu.as_secs_f64());

    warm(&mut k);
    (k, t)
}

/// (Re)establishes the canonical cache state: exactly the warm working
/// set resident, everything else cold. `warm_file_pages` is experiment
/// setup — zero cost, no device traffic — so modes measured after a
/// re-warm start from identical states.
fn warm(k: &mut Kernel) {
    for d in 0..WARM_DIRS {
        for f in 0..WARM_FILES {
            k.warm_file_pages(&file_path(d, f), 0, FILE_BYTES / 4096)
                .unwrap();
        }
    }
    k.warm_file_pages(&file_path(NEEDLE_DIR, NEEDLE_FILE), 0, FILE_BYTES / 4096)
        .unwrap();
}

/// One mode's measured run.
struct ModeStats {
    /// Virtual CPU the mode burned.
    cpu_s: f64,
    /// Boundary crossings it paid.
    crossings: u64,
    /// CPU spent purely on crossing the boundary.
    crossing_cpu_s: f64,
    /// Logical syscalls completed (ring ops count — each is one op).
    syscalls: u64,
    /// Files the mode examined.
    files: u64,
}

impl ModeStats {
    fn from(u: &Rusage, syscall_cpu: f64, files: u64) -> ModeStats {
        ModeStats {
            cpu_s: u.cpu.as_secs_f64(),
            crossings: u.syscall_crossings,
            crossing_cpu_s: u.syscall_crossings as f64 * syscall_cpu,
            syscalls: u.syscalls,
            files,
        }
    }

    fn files_per_cpu_s(&self) -> f64 {
        self.files as f64 / self.cpu_s
    }

    fn ops_per_cpu_s(&self) -> f64 {
        self.syscalls as f64 / self.cpu_s
    }

    fn json(&self, indent: &str) -> String {
        format!(
            "{indent}{{\"cpu_s\": {:.6}, \"crossings\": {}, \"crossing_cpu_s\": {:.6}, \
             \"syscalls\": {}, \"files\": {}, \"files_per_cpu_s\": {:.0}, \
             \"ops_per_cpu_s\": {:.0}}}",
            self.cpu_s,
            self.crossings,
            self.crossing_cpu_s,
            self.syscalls,
            self.files,
            self.files_per_cpu_s(),
            self.ops_per_cpu_s(),
        )
    }
}

/// Every file path in walk (name) order.
fn all_paths() -> Vec<String> {
    let mut out = Vec::with_capacity(DIRS * FILES_PER_DIR);
    for d in 0..DIRS {
        for f in 0..FILES_PER_DIR {
            out.push(file_path(d, f));
        }
    }
    out
}

/// Drains one completion batch, panicking on unexpected payloads.
fn reap_fds(k: &mut Kernel, ring: &mut SubmissionRing) -> Vec<Fd> {
    k.ring_reap(ring)
        .into_iter()
        .map(|c| c.result.and_then(SyscallRet::fd).expect("open"))
        .collect()
}

/// `find -latency` over the ring: batches of opens, then interleaved
/// `FSLEDS_GET` + close pairs, estimates judged user-side — the same
/// verdicts as the sequential walk, a fraction of the crossings.
fn find_batched(
    k: &mut Kernel,
    paths: &[String],
    pred: &LatencyPredicate,
    table: &SledsTable,
) -> Vec<FindHit> {
    let mut ring = SubmissionRing::new(RING_ENTRIES);
    let mut hits = Vec::new();
    for chunk in paths.chunks(RING_ENTRIES) {
        for (i, p) in chunk.iter().enumerate() {
            ring.push(
                i as u64,
                Syscall::Open {
                    path: p.clone(),
                    flags: OpenFlags::RDONLY,
                },
            )
            .unwrap();
        }
        k.ring_enter(&mut ring).unwrap();
        let fds = reap_fds(k, &mut ring);
        for (fd_pair, path_pair) in fds
            .chunks(RING_ENTRIES / 2)
            .zip(chunk.chunks(RING_ENTRIES / 2))
        {
            for (j, &fd) in fd_pair.iter().enumerate() {
                ring.push(
                    2 * j as u64,
                    Syscall::FsledsGet {
                        fd,
                        pricing: table.clone(),
                    },
                )
                .unwrap();
                ring.push(2 * j as u64 + 1, Syscall::Close { fd }).unwrap();
            }
            k.ring_enter(&mut ring).unwrap();
            let mut sleds = Vec::with_capacity(fd_pair.len());
            for c in k.ring_reap(&mut ring) {
                if let SyscallRet::Sleds(s) = c.result.expect("fsleds_get/close") {
                    sleds.push(s);
                }
            }
            for (s, p) in sleds.iter().zip(path_pair) {
                k.charge_cpu(SimDuration::from_nanos(FIND_NS_PER_ENTRY));
                let est = estimate_seconds(s, AttackPlan::Best);
                if pred.matches(est) {
                    hits.push(FindHit {
                        path: p.clone(),
                        estimate_secs: Some(est),
                    });
                }
            }
        }
    }
    hits
}

fn scan_hit(buf: &[u8]) -> bool {
    buf.contains(&PATTERN[0]) && buf.windows(PATTERN.len()).any(|w| w == PATTERN)
}

/// Sequential grep: per file open + pread + close, stop at first match.
/// Returns the matching path and how many files were scanned.
fn grep_naive(k: &mut Kernel, paths: &[String]) -> (Option<String>, u64) {
    let mut scanned = 0;
    for p in paths {
        let fd = k.open(p, OpenFlags::RDONLY).unwrap();
        let buf = k.pread(fd, 0, FILE_BYTES as usize).unwrap();
        k.close(fd).unwrap();
        scanned += 1;
        if scan_hit(&buf) {
            return (Some(p.clone()), scanned);
        }
    }
    (None, scanned)
}

/// Ring grep: batches of opens, then pread + close pairs; completions are
/// scanned in submission order, so the first match is the same file the
/// sequential scan stops at (a batch may read a few files past it).
fn grep_batched(k: &mut Kernel, paths: &[String]) -> (Option<String>, u64) {
    let mut ring = SubmissionRing::new(RING_ENTRIES);
    let mut scanned = 0;
    for chunk in paths.chunks(RING_ENTRIES) {
        for (i, p) in chunk.iter().enumerate() {
            ring.push(
                i as u64,
                Syscall::Open {
                    path: p.clone(),
                    flags: OpenFlags::RDONLY,
                },
            )
            .unwrap();
        }
        k.ring_enter(&mut ring).unwrap();
        let fds = reap_fds(k, &mut ring);
        let mut found = None;
        for (fd_pair, path_pair) in fds
            .chunks(RING_ENTRIES / 2)
            .zip(chunk.chunks(RING_ENTRIES / 2))
        {
            for (j, &fd) in fd_pair.iter().enumerate() {
                ring.push(
                    2 * j as u64,
                    Syscall::Pread {
                        fd,
                        pos: 0,
                        len: FILE_BYTES as usize,
                    },
                )
                .unwrap();
                ring.push(2 * j as u64 + 1, Syscall::Close { fd }).unwrap();
            }
            k.ring_enter(&mut ring).unwrap();
            let mut bufs = Vec::with_capacity(fd_pair.len());
            for c in k.ring_reap(&mut ring) {
                if let SyscallRet::Bytes(b) = c.result.expect("pread/close") {
                    bufs.push(b);
                }
            }
            for (buf, p) in bufs.iter().zip(path_pair) {
                if found.is_none() {
                    scanned += 1;
                    if scan_hit(buf) {
                        found = Some(p.clone());
                    }
                }
            }
        }
        if found.is_some() {
            return (found, scanned);
        }
    }
    (None, scanned)
}

fn main() {
    println!(
        "building {DIRS}x{FILES_PER_DIR} tree ({} files)...",
        DIRS * FILES_PER_DIR
    );
    let (mut k, table) = setup();
    let syscall_cpu = k.config().syscall_cpu.as_secs_f64();
    let total_files = (DIRS * FILES_PER_DIR) as u64;
    let paths = all_paths();

    // ---- find -latency -m10: three modes, identical answers ------------
    let pred = LatencyPredicate::parse("-m10").unwrap();
    let opts = FindOptions {
        latency: Some(pred),
        ..FindOptions::default()
    };

    println!("find naive...");
    let before = k.usage();
    let naive_report = find_report(&mut k, "/tree", &opts, Some(&table)).unwrap();
    let find_naive = ModeStats::from(&k.usage().since(&before), syscall_cpu, total_files);

    println!("find batched...");
    let before = k.usage();
    let batched_hits = find_batched(&mut k, &paths, &pred, &table);
    let find_batch = ModeStats::from(&k.usage().since(&before), syscall_cpu, total_files);

    println!("find pushdown...");
    let before = k.usage();
    let prog_report = find_prog(&mut k, "/tree", &opts, &table).unwrap();
    let find_push = ModeStats::from(&k.usage().since(&before), syscall_cpu, total_files);

    assert_eq!(
        naive_report.hits, batched_hits,
        "batched find verdicts differ"
    );
    assert_eq!(
        naive_report.hits, prog_report.hits,
        "pushdown find verdicts differ"
    );
    assert!(naive_report.skipped.is_empty() && prog_report.skipped.is_empty());
    let warm_count = (WARM_DIRS * WARM_FILES) as u64 + 1;
    assert_eq!(
        naive_report.hits.len() as u64,
        warm_count,
        "warm set is the hit set"
    );

    // ---- grep -q needle: three modes, same first match ----------------
    // Each mode starts from the canonical cache state (warm set + needle
    // resident) so none inherits the previous mode's streaming churn.
    println!("grep naive...");
    k.drop_caches().unwrap();
    warm(&mut k);
    let before = k.usage();
    let (hit_naive, scanned_naive) = grep_naive(&mut k, &paths);
    let grep_naive_s = ModeStats::from(&k.usage().since(&before), syscall_cpu, scanned_naive);

    println!("grep batched...");
    k.drop_caches().unwrap();
    warm(&mut k);
    let before = k.usage();
    let (hit_batch, scanned_batch) = grep_batched(&mut k, &paths);
    let grep_batch_s = ModeStats::from(&k.usage().since(&before), syscall_cpu, scanned_batch);

    println!("grep pushdown...");
    k.drop_caches().unwrap();
    warm(&mut k);
    let before = k.usage();
    // One crossing reorders the whole tree most-cached-first; the
    // resident needle file lands in the first handful of entries.
    let everything = PickProgram::new(vec![
        ProgInst::PushConst(0.0),
        ProgInst::PushConst(0.0),
        ProgInst::Eq,
    ])
    .unwrap()
    .with_order(ProgOrder::CachedFirst);
    let entries = k.fsleds_walk("/tree", &everything, &table).unwrap();
    let ordered: Vec<String> = entries
        .into_iter()
        .filter(|e| e.kind == sleds_repro::fs::FileKind::File)
        .map(|e| e.path)
        .collect();
    assert_eq!(ordered.len() as u64, total_files);
    let (hit_push, scanned_push) = grep_batched(&mut k, &ordered);
    let grep_push_s = ModeStats::from(&k.usage().since(&before), syscall_cpu, scanned_push);

    let needle = file_path(NEEDLE_DIR, NEEDLE_FILE);
    assert_eq!(hit_naive.as_deref(), Some(needle.as_str()));
    assert_eq!(hit_batch, hit_naive, "batched grep found a different file");
    assert_eq!(hit_push, hit_naive, "pushdown grep found a different file");
    assert!(
        scanned_push <= warm_count + RING_ENTRIES as u64,
        "pushdown scanned {scanned_push} files; cached-first should stop within the warm set"
    );

    // ---- acceptance ---------------------------------------------------
    let naive_cross = find_naive.crossing_cpu_s + grep_naive_s.crossing_cpu_s;
    let batch_cross = find_batch.crossing_cpu_s + grep_batch_s.crossing_cpu_s;
    let push_cross = find_push.crossing_cpu_s + grep_push_s.crossing_cpu_s;
    let batch_reduction = naive_cross / batch_cross;
    let push_reduction = naive_cross / push_cross;
    assert!(
        batch_reduction >= 10.0,
        "batched crossing-CPU reduction {batch_reduction:.1}x < 10x"
    );
    assert!(
        push_reduction >= 10.0,
        "pushdown crossing-CPU reduction {push_reduction:.1}x < 10x"
    );
    // find examines the same million files in every mode, so throughput
    // must order pushdown >= batched >= naive ...
    assert!(
        find_push.files_per_cpu_s() >= find_batch.files_per_cpu_s()
            && find_batch.files_per_cpu_s() >= find_naive.files_per_cpu_s(),
        "find: throughput must order pushdown >= batched >= naive ({:.0} / {:.0} / {:.0})",
        find_push.files_per_cpu_s(),
        find_batch.files_per_cpu_s(),
        find_naive.files_per_cpu_s(),
    );
    // ... while grep -q is a race to the answer: pushdown reads ~250k
    // fewer files, so the comparison is total CPU to the first match.
    assert!(
        grep_push_s.cpu_s <= grep_batch_s.cpu_s && grep_batch_s.cpu_s <= grep_naive_s.cpu_s,
        "grep: time-to-answer must order pushdown <= batched <= naive ({:.3} / {:.3} / {:.3})",
        grep_push_s.cpu_s,
        grep_batch_s.cpu_s,
        grep_naive_s.cpu_s,
    );
    assert!(
        find_batch.ops_per_cpu_s() >= 1e6,
        "batched find {:.0} ops/s of virtual CPU < 1M",
        find_batch.ops_per_cpu_s()
    );

    let workload = |name: &str, extra: String, modes: [&ModeStats; 3]| {
        let [naive, batch, push] = modes;
        format!(
            "  \"{name}\": {{\n{extra}\
             \n    \"naive\":\n{},\
             \n    \"batched\":\n{},\
             \n    \"pushdown\":\n{}\n  }}",
            naive.json("    "),
            batch.json("    "),
            push.json("    "),
        )
    };
    let total_virtual_ns = ((find_naive.cpu_s
        + find_batch.cpu_s
        + find_push.cpu_s
        + grep_naive_s.cpu_s
        + grep_batch_s.cpu_s
        + grep_push_s.cpu_s)
        * 1e9) as u64;
    let mut json = String::new();
    json.push_str("{\n  \"name\": \"uring-find-grep\",\n");
    json.push_str(&format!(
        "  \"config\": \"tree {DIRS}x{FILES_PER_DIR}, {FILE_BYTES}B files, ring {RING_ENTRIES}\",\n"
    ));
    json.push_str(&format!("  \"virtual_ns\": {total_virtual_ns},\n"));
    json.push_str("  \"detail_schema\": \"sleds-uring-bench-v1\",\n");
    json.push_str(&format!(
        "  \"tree\": {{\"dirs\": {DIRS}, \"files_per_dir\": {FILES_PER_DIR}, \
         \"file_bytes\": {FILE_BYTES}, \"warm_files\": {warm_count}, \
         \"ring_entries\": {RING_ENTRIES}}},\n"
    ));
    json.push_str(&workload(
        "find",
        format!("    \"hits\": {},", naive_report.hits.len()),
        [&find_naive, &find_batch, &find_push],
    ));
    json.push_str(",\n");
    json.push_str(&workload(
        "grep",
        format!("    \"hit\": \"{needle}\","),
        [&grep_naive_s, &grep_batch_s, &grep_push_s],
    ));
    json.push_str(&format!(
        ",\n  \"summary\": {{\n    \"crossing_cpu_reduction_batched\": {batch_reduction:.1},\n    \
         \"crossing_cpu_reduction_pushdown\": {push_reduction:.1},\n    \
         \"batched_find_ops_per_cpu_s\": {:.0}\n  }}\n}}\n",
        find_batch.ops_per_cpu_s(),
    ));
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    let dir = sleds_repro::results_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("URING_report.json");
    std::fs::write(&path, &json).unwrap();
    println!(
        "crossing CPU: naive {naive_cross:.3}s, batched {batch_cross:.3}s ({batch_reduction:.0}x), \
         pushdown {push_cross:.3}s ({push_reduction:.0}x)"
    );
    println!("wrote {}", path.display());
}
