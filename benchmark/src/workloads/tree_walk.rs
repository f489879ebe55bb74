//! `tree_walk`: the many-small-files driver. A tree of sparse one-page
//! files on the Table 2 disk, a seed-chosen warm set, one needle file a
//! quarter of the way in; `find -latency -m10` and `grep -q`, each three
//! ways — naive syscalls, ring-batched, and pushed into the kernel
//! (`FSLEDS_WALK` / pick program) — with caches dropped and re-warmed
//! between modes and identical answers required.
//!
//! Metadata does the work here: resolve, open, stat, close, the ring and
//! the pick-program interpreter. Almost no data moves, so cache eviction,
//! the device models and the regex engine are nearly idle.

use std::collections::BTreeSet;

use sleds::{
    estimate_seconds, pricing_from, sleds_from_prog, AttackPlan, LatencyPredicate, SledsEntry,
    SledsTable,
};
use sleds_apps::find::{find_prog, find_report, FindHit, FindOptions};
use sleds_devices::DiskDevice;
use sleds_fs::{
    Fd, FileKind, Kernel, OpenFlags, PickProgram, ProgInst, ProgOrder, ProgPricing, RingOp,
    RingPayload, SubmissionRing,
};
use sleds_sim_core::{DetRng, SimDuration, SimError, PAGE_SIZE};

use crate::check::Misses;
use crate::metrics;
use crate::probes;
use crate::spans::Recorder;
use crate::workloads::{Rep, RepCfg, Tally};

const JITTER: f64 = 0.04;
const PATTERN: &[u8] = b"needle";

/// Ring depth for the batched modes: a batch-hungry tool sizes its ring
/// the way an io_uring application would.
const RING_ENTRIES: usize = 1024;

/// User-side bookkeeping per examined entry, the same charge the
/// sequential find makes, so the modes differ only in how they cross the
/// syscall boundary.
const FIND_NS_PER_ENTRY: u64 = 400;

struct Shape {
    dirs: usize,
    files_per_dir: usize,
    warm_dirs: usize,
    warm_files: usize,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            dirs: 24,
            files_per_dir: 100,
            warm_dirs: 6,
            warm_files: 8,
        }
    } else {
        Shape {
            dirs: 125,
            files_per_dir: 1000,
            warm_dirs: 32,
            warm_files: 32,
        }
    }
}

fn file_path(d: usize, f: usize) -> String {
    format!("/tree/d{d:03}/f{f:03}")
}

struct Env {
    k: Kernel,
    table: SledsTable,
    /// Every file path in walk (name) order.
    paths: Vec<String>,
    /// The warm set, needle included, sorted.
    warm: BTreeSet<String>,
    needle: String,
}

fn warm(k: &mut Kernel, warm: &BTreeSet<String>) -> Result<(), SimError> {
    for p in warm {
        k.warm_file_pages(p, 0, 1)?;
    }
    Ok(())
}

fn setup(cfg: RepCfg) -> Result<Env, String> {
    let sh = shape(cfg.smoke);
    let rng = DetRng::new(cfg.seed).derive(0x7ee);
    let e = |e: SimError| e.to_string();
    let mut k = Kernel::table2();
    k.mkdir("/tree").map_err(e)?;
    let m = k
        .mount_disk(
            "/tree",
            DiskDevice::table2_disk("hda").with_jitter(rng.derive(1), JITTER),
        )
        .map_err(e)?;
    let dev = k.device_of_mount(m).ok_or("mount has no device")?;

    let mut paths = Vec::with_capacity(sh.dirs * sh.files_per_dir);
    for d in 0..sh.dirs {
        k.mkdir(&format!("/tree/d{d:03}")).map_err(e)?;
        for f in 0..sh.files_per_dir {
            let p = file_path(d, f);
            k.install_sparse_file(&p, PAGE_SIZE).map_err(e)?;
            paths.push(p);
        }
    }

    // Seed-chosen warm set: a few more than `warm_dirs` directories, a run
    // of `warm_files` files in each; and the needle, a quarter of the way
    // through the walk order.
    let mut pick = rng.derive(2);
    let mut warm_set = BTreeSet::new();
    let mut dirs = BTreeSet::new();
    let want_dirs = sh.warm_dirs + pick.range_usize(0, 4);
    while dirs.len() < want_dirs {
        dirs.insert(pick.range_usize(0, sh.dirs));
    }
    for &d in &dirs {
        let f0 = pick.range_usize(0, sh.files_per_dir - sh.warm_files);
        for f in f0..f0 + sh.warm_files {
            warm_set.insert(file_path(d, f));
        }
    }
    // Early in its directory, so every seed's `grep -q` scans the same
    // number of files to within a percent.
    let needle = loop {
        let p = file_path(sh.dirs / 4, pick.range_usize(0, sh.files_per_dir / 8));
        if !warm_set.contains(&p) {
            break p;
        }
    };
    let mut contents = vec![b'.'; PAGE_SIZE as usize];
    let at = pick.range_usize(0, contents.len() - PATTERN.len());
    contents[at..at + PATTERN.len()].copy_from_slice(PATTERN);
    k.install_file(&needle, &contents).map_err(e)?;
    warm_set.insert(needle.clone());

    // Flat table: the Table 2 rows a boot-time `fill_table` measures,
    // entered directly so calibration does not dominate set-up.
    let mut table = SledsTable::new();
    table.fill_memory(SledsEntry::new(175e-9, 48e6));
    table.fill_device(dev, SledsEntry::new(0.018, 9e6));
    table.fill_crossing(k.config().syscall_cpu.as_secs_f64());

    warm(&mut k, &warm_set).map_err(e)?;
    k.reset_counters();
    Ok(Env {
        k,
        table,
        paths,
        warm: warm_set,
        needle,
    })
}

fn reap_fds(k: &mut Kernel, ring: &mut SubmissionRing) -> Result<Vec<Fd>, SimError> {
    k.ring_reap(ring)
        .into_iter()
        .map(|c| match c.result? {
            RingPayload::Fd(fd) => Ok(fd),
            other => Err(SimError::new(
                sleds_sim_core::Errno::Eio,
                format!("open completed with {other:?}"),
            )),
        })
        .collect()
}

/// Pushes one batch of opens, enters and reaps the fds. Ring work is
/// spanned as `fs.ring`, one unit per op.
fn open_batch(
    k: &mut Kernel,
    ring: &mut SubmissionRing,
    chunk: &[String],
    rec: &mut Recorder,
) -> Result<Vec<Fd>, SimError> {
    for (i, p) in chunk.iter().enumerate() {
        ring.push(
            i as u64,
            RingOp::Open {
                path: p.clone(),
                flags: OpenFlags::RDONLY,
            },
        )?;
    }
    let s = rec.begin("fs.ring");
    k.ring_enter(ring)?;
    let fds = reap_fds(k, ring);
    rec.end(s, chunk.len() as f64);
    fds
}

/// `find -latency` over the ring: batches of opens, then interleaved
/// `FSLEDS_GET` + close pairs, estimates judged user-side — the same
/// verdicts as the sequential walk, a fraction of the crossings.
fn find_batched(
    k: &mut Kernel,
    paths: &[String],
    pred: &LatencyPredicate,
    pricing: &ProgPricing,
    rec: &mut Recorder,
) -> Result<Vec<FindHit>, SimError> {
    let mut ring = SubmissionRing::new(RING_ENTRIES);
    let mut hits = Vec::new();
    for chunk in paths.chunks(RING_ENTRIES) {
        let fds = open_batch(k, &mut ring, chunk, rec)?;
        for (fd_half, path_half) in fds
            .chunks(RING_ENTRIES / 2)
            .zip(chunk.chunks(RING_ENTRIES / 2))
        {
            for (j, &fd) in fd_half.iter().enumerate() {
                ring.push(
                    2 * j as u64,
                    RingOp::FsledsGet {
                        fd,
                        pricing: pricing.clone(),
                    },
                )?;
                ring.push(2 * j as u64 + 1, RingOp::Close { fd })?;
            }
            let s = rec.begin("fs.ring");
            k.ring_enter(&mut ring)?;
            let done = k.ring_reap(&mut ring);
            rec.end(s, done.len() as f64);
            let sleds = done.into_iter().filter_map(|c| match c.result {
                Ok(RingPayload::Sleds(s)) => Some(s),
                _ => None,
            });
            for (s, p) in sleds.zip(path_half) {
                k.charge_cpu(SimDuration::from_nanos(FIND_NS_PER_ENTRY));
                let est = estimate_seconds(&sleds_from_prog(&s), AttackPlan::Best);
                if pred.matches(est) {
                    hits.push(FindHit {
                        path: p.clone(),
                        estimate_secs: Some(est),
                    });
                }
            }
        }
    }
    Ok(hits)
}

fn scan_hit(buf: &[u8]) -> bool {
    buf.windows(PATTERN.len()).any(|w| w == PATTERN)
}

/// Sequential grep: per file open + pread + close, stop at first match.
/// Returns the matching path and how many files were scanned.
fn grep_naive(k: &mut Kernel, paths: &[String]) -> Result<(Option<String>, u64), SimError> {
    for (i, p) in paths.iter().enumerate() {
        let fd = k.open(p, OpenFlags::RDONLY)?;
        let buf = k.pread(fd, 0, PAGE_SIZE as usize)?;
        k.close(fd)?;
        if scan_hit(&buf) {
            return Ok((Some(p.clone()), i as u64 + 1));
        }
    }
    Ok((None, paths.len() as u64))
}

/// Ring grep: batches of opens, then pread + close pairs; completions are
/// scanned in submission order, so the first match is the file the
/// sequential scan stops at (a batch may read a few files past it).
fn grep_batched(
    k: &mut Kernel,
    paths: &[String],
    rec: &mut Recorder,
) -> Result<(Option<String>, u64), SimError> {
    let mut ring = SubmissionRing::new(RING_ENTRIES);
    let mut scanned = 0;
    for chunk in paths.chunks(RING_ENTRIES) {
        let fds = open_batch(k, &mut ring, chunk, rec)?;
        let mut found = None;
        for (fd_half, path_half) in fds
            .chunks(RING_ENTRIES / 2)
            .zip(chunk.chunks(RING_ENTRIES / 2))
        {
            for (j, &fd) in fd_half.iter().enumerate() {
                ring.push(
                    2 * j as u64,
                    RingOp::Pread {
                        fd,
                        pos: 0,
                        len: PAGE_SIZE as usize,
                    },
                )?;
                ring.push(2 * j as u64 + 1, RingOp::Close { fd })?;
            }
            let s = rec.begin("fs.ring");
            k.ring_enter(&mut ring)?;
            let done = k.ring_reap(&mut ring);
            rec.end(s, done.len() as f64);
            let bufs = done.into_iter().filter_map(|c| match c.result {
                Ok(RingPayload::Bytes(b)) => Some(b),
                _ => None,
            });
            for (buf, p) in bufs.zip(path_half) {
                if found.is_none() {
                    scanned += 1;
                    if scan_hit(&buf) {
                        found = Some(p.clone());
                    }
                }
            }
        }
        if found.is_some() {
            return Ok((found, scanned));
        }
    }
    Ok((None, scanned))
}

/// Pushdown grep: one `FSLEDS_WALK` reorders the whole tree
/// most-cached-first, so the resident needle file lands in the first
/// handful of entries; then the batched scan. Returns the hit, files
/// scanned, and files the walk priced.
fn grep_pushdown(
    k: &mut Kernel,
    pricing: &ProgPricing,
    rec: &mut Recorder,
) -> Result<(Option<String>, u64, u64), SimError> {
    let everything = PickProgram::new(vec![
        ProgInst::PushConst(0.0),
        ProgInst::PushConst(0.0),
        ProgInst::Eq,
    ])?
    .with_order(ProgOrder::CachedFirst);
    let s = rec.begin("fs.prog");
    let entries = k.fsleds_walk("/tree", &everything, pricing)?;
    let ordered: Vec<String> = entries
        .into_iter()
        .filter(|e| e.kind == FileKind::File)
        .map(|e| e.path)
        .collect();
    rec.end(s, ordered.len() as f64);
    let (hit, scanned) = grep_batched(k, &ordered, rec)?;
    Ok((hit, scanned, ordered.len() as u64))
}

pub fn rep(cfg: RepCfg, rec: &mut Recorder) -> Result<Rep, String> {
    let mut out = Rep::default();
    let phase = rec.phase("setup");
    let mut env = setup(cfg)?;
    out.setup_ns = rec.end(phase, 1.0);

    let e = |e: SimError| e.to_string();
    let pricing = pricing_from(&env.table);
    let pred = LatencyPredicate::parse("-m10").map_err(|e| format!("{e:?}"))?;
    let opts = FindOptions {
        latency: Some(pred),
        ..FindOptions::default()
    };
    let files = env.paths.len() as f64;
    let mut misses = Misses::default();
    let mut elapsed = 0.0;

    let k = &mut env.k;
    if cfg.observe {
        k.enable_tracing_with_capacity(1 << 12);
    }
    let measured = rec.phase("measured");
    for mode in ["tree.naive", "tree.batched", "tree.pushdown"] {
        // ---- find -latency -m10 ----
        rec.next_pass();
        let job = k.start_job();
        let whole = rec.begin(mode);
        let found: Result<(Vec<FindHit>, usize), SimError> = match mode {
            "tree.naive" => {
                let s = rec.begin("apps.find");
                let r = find_report(k, "/tree", &opts, Some(&env.table));
                rec.end(s, files);
                r.map(|r| (r.hits, r.skipped.len()))
            }
            "tree.batched" => find_batched(k, &env.paths, &pred, &pricing, rec).map(|h| (h, 0)),
            _ => {
                let s = rec.begin("apps.find_prog");
                let r = find_prog(k, "/tree", &opts, &env.table);
                rec.end(s, files);
                r.map(|r| (r.hits, r.skipped.len()))
            }
        };
        rec.end(whole, files);
        elapsed += k.finish_job(&job).elapsed_secs();
        out.ops += files;
        match found {
            Ok((hits, skipped)) => {
                out.failed_ops += skipped as f64;
                misses.expect(skipped == 0, || format!("{mode} find skipped {skipped}"));
                let got: BTreeSet<String> = hits.into_iter().map(|h| h.path).collect();
                misses.expect(got == env.warm, || {
                    format!(
                        "{mode} find: {} hits, want the {}-file warm set",
                        got.len(),
                        env.warm.len()
                    )
                });
            }
            Err(err) => {
                out.failed_ops += files;
                misses.failed(format!("{mode} find: {err}"));
            }
        }

        // ---- grep -q, from the canonical cache state ----
        k.drop_caches().map_err(e)?;
        warm(k, &env.warm).map_err(e)?;
        rec.next_pass();
        let job = k.start_job();
        let whole = rec.begin(mode);
        let got = match mode {
            "tree.naive" => grep_naive(k, &env.paths).map(|(h, n)| (h, n, n)),
            "tree.batched" => grep_batched(k, &env.paths, rec).map(|(h, n)| (h, n, n)),
            _ => grep_pushdown(k, &pricing, rec).map(|(h, n, walked)| (h, n, n + walked)),
        };
        let presented = got.as_ref().map_or(0, |g| g.2) as f64;
        rec.end(whole, presented);
        elapsed += k.finish_job(&job).elapsed_secs();
        out.ops += presented;
        match got {
            Ok((hit, scanned, _)) => {
                misses.expect(hit.as_deref() == Some(env.needle.as_str()), || {
                    format!("{mode} grep found {hit:?}, want {}", env.needle)
                });
                if mode == "tree.pushdown" {
                    let bound = (env.warm.len() + RING_ENTRIES) as u64;
                    misses.expect(scanned <= bound, || {
                        format!(
                            "pushdown grep scanned {scanned} files, cached-first allows {bound}"
                        )
                    });
                }
            }
            Err(err) => {
                out.failed_ops += 1.0;
                misses.failed(format!("{mode} grep: {err}"));
            }
        }
        k.drop_caches().map_err(e)?;
        warm(k, &env.warm).map_err(e)?;
    }
    out.host_ns = rec.end(measured, out.ops);

    let mut tally = Tally::default();
    tally.kernel(k);
    metrics::put(&mut tally.virt, "virtual_elapsed_s", elapsed);
    // Naive and batched find each ask for one file's SLEDs per file.
    metrics::put(&mut tally.virt, "core.fsleds_get.calls", 2.0 * files);
    tally.finish(&mut out);
    out.misses = misses.missed;
    out.checks = misses.checked;

    if rec.enabled() {
        probes::core(k, &env.table, &env.needle, rec, &mut out.virt)?;
        probes::trace_export(k, rec);
        probes::fs(k, "/tree", rec)?;
    }
    Ok(out)
}
