//! Single-layer probes for the traced repetition.
//!
//! Two kinds. *Door probes* issue homogeneous batches of one syscall
//! through the workload's own kernel, after its measured phase, so the
//! per-call cost is read in the state the workload left behind (a
//! million-inode table makes `open` dearer than an empty one does).
//! *Isolated drives* exercise a layer that is only reachable beneath
//! `Kernel` through its own public type, with the command counts and sizes
//! the workload's exact counters reported.
//!
//! Every probe is one span over a batch; per-unit cost is span ÷ batch.

use sleds::{PickConfig, PickSession, SledsTable};
use sleds_devices::{BlockDevice, CdRomDevice, DiskDevice, NfsDevice, TapeDevice};
use sleds_fs::{Kernel, OpenFlags, RingOp, SubmissionRing, VirtualSubmitter};
use sleds_pagecache::{PageCache, PageKey};
use sleds_sim_core::{SimDuration, SimTime, PAGE_SIZE};
use sleds_textmatch::Regex;
use sleds_trace::chrome_trace_json_named;

use crate::metrics::{self, Values};
use crate::spans::Recorder;
use crate::workloads::DriveCounts;

/// Files (and calls per batch) in the door probe.
const DOOR_BATCH: usize = 2048;

/// Upper bound on calls in one isolated drive; keeps the traced run short
/// without changing a per-call figure.
const DRIVE_CAP: u64 = 1 << 20;

fn err(e: sleds_sim_core::SimError) -> String {
    e.to_string()
}

/// `FSLEDS_GET` and the pick library on one open file of the workload.
pub fn core(
    k: &mut Kernel,
    table: &SledsTable,
    path: &str,
    rec: &mut Recorder,
    virt: &mut Values,
) -> Result<(), String> {
    const CALLS: usize = 64;
    let fd = k.open(path, OpenFlags::RDONLY).map_err(err)?;
    let s = rec.begin("core.fsleds_get");
    let mut sleds = 0;
    for _ in 0..CALLS {
        sleds = sleds::fsleds_get(k, fd, table).map_err(err)?.len();
    }
    rec.end(s, CALLS as f64);
    metrics::put(virt, "core.fsleds_get.sleds_per_call", sleds as f64);

    let s = rec.begin("core.pick");
    let mut pick =
        PickSession::init(k, table, fd, PickConfig::bytes(sleds_apps::BUFSIZE)).map_err(err)?;
    let mut chunks = 0u64;
    while pick.next_read().is_some() {
        chunks += 1;
    }
    pick.finish();
    rec.end(s, chunks as f64);
    metrics::put(virt, "core.pick.chunks", chunks as f64);
    k.close(fd).map_err(err)
}

/// The syscall door, one homogeneous batch per call kind, under `dir`
/// (a writable mount of the workload's kernel).
pub fn fs(k: &mut Kernel, dir: &str, rec: &mut Recorder) -> Result<(), String> {
    let n = DOOR_BATCH;
    // As in the timed repetitions, the kernel's observers are off.
    k.disable_tracing();
    let probe_dir = format!("{dir}/probe");
    k.mkdir(&probe_dir).map_err(err)?;
    let paths: Vec<String> = (0..n).map(|i| format!("{probe_dir}/p{i:04}")).collect();
    for p in &paths {
        k.install_sparse_file(p, PAGE_SIZE).map_err(err)?;
    }

    let s = rec.begin("fs.stat");
    for p in &paths {
        k.stat(p).map_err(err)?;
    }
    rec.end(s, n as f64);

    let s = rec.begin("fs.readdir");
    let mut entries = 0;
    for _ in 0..4 {
        entries += k.readdir(&probe_dir).map_err(err)?.len();
    }
    rec.end(s, entries as f64);

    let s = rec.begin("fs.open");
    let mut fds = Vec::with_capacity(n);
    for p in &paths {
        fds.push(k.open(p, OpenFlags::RDONLY).map_err(err)?);
    }
    rec.end(s, n as f64);

    // Cold, then warm, then warm again with the kernel tracer armed: the
    // last two differ by the tracer's cost per syscall.
    for name in ["fs.pread_cold", "fs.pread_warm", "fs.pread_warm_traced"] {
        if name == "fs.pread_warm_traced" {
            k.enable_tracing_with_capacity(1 << 12);
        }
        let s = rec.begin(name);
        for &fd in &fds {
            k.pread(fd, 0, PAGE_SIZE as usize).map_err(err)?;
        }
        rec.end(s, n as f64);
    }
    k.disable_tracing();

    let s = rec.begin("fs.close");
    for &fd in &fds {
        k.close(fd).map_err(err)?;
    }
    rec.end(s, n as f64);

    let mut ring = SubmissionRing::new(n);
    for (i, p) in paths.iter().enumerate() {
        ring.push(i as u64, RingOp::Stat { path: p.clone() })
            .map_err(err)?;
    }
    let s = rec.begin("fs.ring");
    k.ring_enter(&mut ring).map_err(err)?;
    let reaped = k.ring_reap(&mut ring).len();
    rec.end(s, reaped as f64);

    let chunk = vec![0x5au8; 16 * PAGE_SIZE as usize];
    let fd = k
        .open(&format!("{probe_dir}/scratch"), OpenFlags::CREATE_RDWR)
        .map_err(err)?;
    let s = rec.begin("fs.write");
    for _ in 0..n / 16 {
        k.write(fd, &chunk).map_err(err)?;
    }
    rec.end(s, n as f64);
    let s = rec.begin("fs.fsync");
    k.fsync(fd).map_err(err)?;
    rec.end(s, n as f64);
    k.close(fd).map_err(err)?;

    let home = k.active_tenant();
    let other = k.tenant_register("probe");
    let s = rec.begin("fs.tenant_switch");
    for _ in 0..n {
        k.tenant_switch(other).map_err(err)?;
        k.tenant_switch(home).map_err(err)?;
    }
    rec.end(s, (2 * n) as f64);
    Ok(())
}

/// Chrome export of whatever the kernel's trace ring holds.
pub fn trace_export(k: &Kernel, rec: &mut Recorder) {
    let events = k.trace_events();
    let s = rec.begin("trace.export");
    let json = chrome_trace_json_named(
        &events,
        k.trace_dropped(),
        k.trace_high_water(),
        &k.tenant_names(),
    );
    std::hint::black_box(json.len());
    rec.end(s, events.len() as f64);
}

/// Isolated `Regex` drive: line-by-line matching over (a prefix of) the
/// corpus, as grep does it.
pub fn regex(re: &Regex, corpus: &[u8], rec: &mut Recorder) {
    let hay = &corpus[..corpus.len().min(16 << 20)];
    let s = rec.begin("textmatch");
    let mut hits = 0u64;
    for line in hay.split(|&b| b == b'\n') {
        hits += u64::from(re.is_match(line));
    }
    std::hint::black_box(hits);
    rec.end(s, hay.len() as f64);
}

/// Isolated drives of the page cache, one device model per class, and the
/// virtual submitter, sized by what the workload's counters reported.
pub fn isolated(d: &DriveCounts, rec: &mut Recorder) {
    if d.cache_pages > 0 && d.cache_lookups > 0 {
        let mut cache = PageCache::lru(d.cache_pages);
        let pages = d.cache_pages as u64;
        for i in 0..pages {
            cache.insert(PageKey::new(1, i), false);
        }
        let lookups = d.cache_lookups.min(DRIVE_CAP);
        let s = rec.begin("pagecache.lookup");
        let mut hits = 0u64;
        for i in 0..lookups {
            hits += u64::from(cache.lookup(PageKey::new(1, i % pages)));
        }
        std::hint::black_box(hits);
        rec.end(s, lookups as f64);

        let inserts = d.cache_inserts.clamp(1, DRIVE_CAP);
        let s = rec.begin("pagecache.insert_evict");
        for i in 0..inserts {
            std::hint::black_box(cache.insert(PageKey::new(2, i), false));
        }
        rec.end(s, inserts as f64);
    }

    let devices: [(&'static str, Box<dyn BlockDevice>); 4] = [
        ("devices.disk", Box::new(DiskDevice::table2_disk("iso-hd"))),
        (
            "devices.cdrom",
            Box::new(CdRomDevice::table2_drive("iso-cd")),
        ),
        (
            "devices.network",
            Box::new(NfsDevice::table2_mount("iso-nfs")),
        ),
        ("devices.tape", Box::new(TapeDevice::dlt("iso-tape"))),
    ];
    for ((name, mut dev), &(cmds, sectors)) in devices.into_iter().zip(&d.dev_cmds) {
        if cmds == 0 {
            continue;
        }
        let cmds = cmds.min(DRIVE_CAP);
        let sectors = sectors.max(1);
        let span = dev.capacity_sectors().saturating_sub(sectors).max(1);
        let mut now = SimTime::ZERO;
        let s = rec.begin(name);
        for i in 0..cmds {
            if let Ok(took) = dev.read((i * sectors) % span, sectors, now) {
                now += took;
            }
        }
        std::hint::black_box(now);
        rec.end(s, cmds as f64);
    }

    if d.submitter_lanes > 0 {
        let mut sub = VirtualSubmitter::new();
        for i in 0..d.submitter_lanes {
            sub.add(SimTime::from_nanos(i as u64));
        }
        let picks = d.submitter_picks.clamp(1, DRIVE_CAP);
        let think = SimDuration::from_micros(7);
        let s = rec.begin("sim-core.submitter");
        for _ in 0..picks {
            if let Some(lane) = sub.next() {
                let ready = sub.ready_at(lane).unwrap_or(SimTime::ZERO);
                sub.reschedule(lane, ready + think * (1 + lane as u64 % 5));
            }
        }
        rec.end(s, picks as f64);
    }
}
