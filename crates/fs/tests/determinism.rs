//! Regression test for deterministic replay (the sweep that banned `HashMap`).
//!
//! `Kernel::drop_caches` writes every dirty page back; the order of that
//! walk decides which sectors the disk head visits first, and therefore how
//! much virtual time the flush costs. When the inode table was a `HashMap`,
//! each `Kernel` instance hashed with its own random seed, so two identical
//! runs could flush in different orders and finish at different virtual
//! times. The flush now takes the page cache's dirty set in (inode, page)
//! order from tables indexed by inode number; this test pins the guarantee:
//! the same workload on two fresh kernels produces byte-identical reports,
//! elapsed times, and usage counters.

use sleds_devices::{BlockDevice, DiskDevice, FaultPlan, NfsDevice};
use sleds_fs::trace::{chrome_trace_json, Layer, TraceEvent};
use sleds_fs::{
    JobReport, Kernel, OpenFlags, Rusage, SaturationReport, TenantId, VolumeLayout, Whence,
};
use sleds_sim_core::{SimDuration, SimTime, PAGE_SIZE};

/// A workload chosen to be order-sensitive: many files dirty pages scattered
/// across the disk, then one `drop_caches` flushes them all, then cold reads
/// pay whatever head position the flush order left behind.
fn run_workload() -> (JobReport, u64, u64) {
    let (report, ns, sum, _) = run_workload_traced(false);
    (report, ns, sum)
}

/// The same workload, optionally observed by the tracer.
fn run_workload_traced(traced: bool) -> (JobReport, u64, u64, Vec<TraceEvent>) {
    let mut k = Kernel::table2();
    if traced {
        k.enable_tracing();
    }
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();

    let t = k.start_job();
    let files = 12;
    let pages_per_file = 8usize;
    for i in 0..files {
        let path = format!("/data/f{i}");
        let fd = k.open(&path, OpenFlags::CREATE_RDWR).unwrap();
        let body = vec![i as u8; pages_per_file * PAGE_SIZE as usize];
        k.write(fd, &body).unwrap();
        k.close(fd).unwrap();
    }
    // Dirty one extra page in every other file, out of creation order, so
    // the flush below has interleaved dirty sets to choose from.
    for i in (0..files).rev().step_by(2) {
        let path = format!("/data/f{i}");
        let fd = k.open(&path, OpenFlags::RDWR).unwrap();
        k.lseek(fd, 3 * PAGE_SIZE as i64, Whence::Set).unwrap();
        k.write(fd, &[0xAB; 64]).unwrap();
        k.close(fd).unwrap();
    }
    k.drop_caches().unwrap();
    // Cold re-reads: the time these cost depends on the head position the
    // writeback pass ended at, so a nondeterministic flush order shows up
    // here even if the flush itself happened to cost the same.
    let mut checksum = 0u64;
    for i in 0..files {
        let path = format!("/data/f{i}");
        let fd = k.open(&path, OpenFlags::RDONLY).unwrap();
        let data = k.read(fd, pages_per_file * PAGE_SIZE as usize).unwrap();
        checksum = data
            .iter()
            .fold(checksum, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64));
        k.close(fd).unwrap();
    }
    let report = k.finish_job(&t);
    (
        report,
        report.elapsed.as_nanos(),
        checksum,
        k.trace_events(),
    )
}

/// Elapsed virtual time must account exactly: the simulated process is
/// single-threaded and synchronous here, so every nanosecond of the job is
/// either CPU or device wait. Drift between the clock and the rusage
/// counters would mean some path advanced one without the other.
fn assert_rusage_sums(r: &JobReport) {
    assert_eq!(
        r.elapsed,
        r.usage.cpu + r.usage.io_wait,
        "elapsed must equal cpu + io_wait exactly (cpu {}, io_wait {})",
        r.usage.cpu,
        r.usage.io_wait
    );
}

#[test]
fn identical_runs_are_byte_identical() {
    let (r1, ns1, sum1) = run_workload();
    let (r2, ns2, sum2) = run_workload();
    assert_eq!(sum1, sum2, "file contents must replay identically");
    assert_eq!(ns1, ns2, "virtual elapsed time must replay identically");
    assert_eq!(
        r1, r2,
        "full job report (usage counters included) must replay identically"
    );
    assert_rusage_sums(&r1);
}

/// `drop_caches` flushes the cache's own dirty set instead of probing every
/// live inode. The two agree only because `unlink` and `O_TRUNC` drop a
/// file's cached pages with the file: dirty pages across five files on two
/// mounts, one more file unlinked and one truncated while dirty, must flush
/// to exactly the device-write sequence, and leave exactly the SLED
/// generations, that the per-inode loop produced (constants recorded at the
/// commit before the change).
#[test]
fn drop_caches_flushes_the_dirty_set_in_inode_page_order() {
    let mut k = Kernel::table2();
    k.mkdir("/a").unwrap();
    k.mkdir("/b").unwrap();
    k.mount_disk("/a", DiskDevice::table2_disk("hda")).unwrap();
    k.mount_nfs("/b", NfsDevice::table2_mount("srv:/b"))
        .unwrap();

    // Created alternately, so ascending inode order interleaves the devices.
    let paths = [
        "/a/f0", "/b/f1", "/a/gone", "/a/f2", "/b/cut", "/b/f3", "/a/f4",
    ];
    let page = PAGE_SIZE as usize;
    for (i, path) in paths.iter().enumerate() {
        let fd = k.open(path, OpenFlags::CREATE_RDWR).unwrap();
        k.write(fd, &vec![i as u8 + 1; (3 + i) * page]).unwrap();
        k.fsync(fd).unwrap();
        k.close(fd).unwrap();
    }
    // Dirty scattered pages, newest file first.
    for (i, path) in paths.iter().enumerate().rev() {
        let fd = k.open(path, OpenFlags::RDWR).unwrap();
        for p in [2, 0, i % 3] {
            k.lseek(fd, (p * page) as i64 + 17, Whence::Set).unwrap();
            k.write(fd, &[0xD1; 40]).unwrap();
        }
        k.close(fd).unwrap();
    }
    k.unlink("/a/gone").unwrap();
    let fd = k.open("/b/cut", OpenFlags::CREATE_RDWR).unwrap();
    k.write(fd, &vec![0xC7; page + 9]).unwrap();
    k.close(fd).unwrap();

    k.enable_tracing();
    k.drop_caches().unwrap();
    let writes: Vec<(&str, u64, u64)> = k
        .trace_events()
        .iter()
        .filter(|e| e.layer == Layer::Device && e.name.ends_with(".write"))
        .map(|e| (e.name, e.args[0], e.args[1]))
        .collect();
    k.disable_tracing();
    assert_eq!(k.cache_dirty_pages(), 0);
    assert_eq!(k.cache_resident_pages(), 0);

    let generations: Vec<u64> = paths
        .iter()
        .filter(|p| **p != "/a/gone")
        .map(|p| {
            let fd = k.open(p, OpenFlags::RDONLY).unwrap();
            let g = k.sled_generation(fd).unwrap();
            k.close(fd).unwrap();
            g
        })
        .collect();
    assert_eq!(
        writes,
        [
            ("disk.write", 2048, 8),
            ("disk.write", 2064, 8),
            ("nfs.write", 2048, 8),
            ("nfs.write", 2056, 8),
            ("nfs.write", 2064, 8),
            ("disk.write", 2112, 8),
            ("disk.write", 2128, 8),
            ("nfs.write", 2200, 8),
            ("nfs.write", 2208, 8),
            ("nfs.write", 2136, 8),
            ("nfs.write", 2152, 8),
            ("disk.write", 2160, 8),
            ("disk.write", 2176, 8),
        ],
        "flush order is (inode, page); dead and truncated pages never reach a device"
    );
    assert_eq!(generations, [8, 10, 14, 23, 18, 20]);
}

#[test]
fn tracing_does_not_perturb_the_run() {
    // The tracer is a pure observer: the traced run's virtual results are
    // byte-identical to the untraced run's, and its rusage still sums.
    let (plain, ns_plain, sum_plain, events) = run_workload_traced(false);
    let (traced, ns_traced, sum_traced, traced_events) = run_workload_traced(true);
    assert!(events.is_empty(), "untraced run must record nothing");
    assert!(!traced_events.is_empty(), "traced run must record events");
    assert_eq!(
        sum_plain, sum_traced,
        "contents must not change under trace"
    );
    assert_eq!(ns_plain, ns_traced, "virtual time must not change");
    assert_eq!(plain, traced, "job report must not change under trace");
    assert_rusage_sums(&traced);
}

#[test]
fn identical_traced_runs_export_identical_traces() {
    // Determinism extends to the trace itself: two identical workloads
    // produce byte-identical event buffers and byte-identical exported
    // JSON, so a stored trace is a replayable artifact.
    let (_, _, _, ev1) = run_workload_traced(true);
    let (_, _, _, ev2) = run_workload_traced(true);
    assert_eq!(ev1, ev2, "trace buffers must replay identically");
    assert_eq!(
        chrome_trace_json(&ev1, 0),
        chrome_trace_json(&ev2, 0),
        "exported Chrome trace JSON must replay identically"
    );
}

/// The workload under a fault storm: an offline outage that fails the first
/// read pass, then transient faults the retry machinery must mask plus a
/// degraded window slowing the second pass. Both error and success paths
/// burn virtual time through the same deterministic machinery, so the whole
/// run — including every failure — must replay byte-identically.
fn run_fault_workload(traced: bool) -> (JobReport, u64, u64, Vec<TraceEvent>) {
    let mut k = Kernel::table2();
    if traced {
        k.enable_tracing();
    }
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();

    let files = 8;
    let pages_per_file = 6usize;
    for i in 0..files {
        let path = format!("/data/f{i}");
        k.install_file(&path, &vec![i as u8; pages_per_file * PAGE_SIZE as usize])
            .unwrap();
    }
    k.drop_caches().unwrap();

    // Installs and the flush above run fault-free; the plan's windows are
    // wide enough that the virtual clock is guaranteed to still be inside
    // the outage when the first read pass starts.
    let plan = FaultPlan::new()
        .offline(
            "hda",
            SimTime::ZERO,
            SimTime::from_nanos(10_000_000_000),
            SimDuration::from_millis(1),
        )
        .transient(
            "hda",
            SimTime::from_nanos(10_000_000_000),
            SimTime::from_nanos(600_000_000_000),
            3,
            SimDuration::from_millis(2),
        )
        .degraded(
            "hda",
            SimTime::from_nanos(10_000_000_000),
            SimTime::from_nanos(600_000_000_000),
            2.5,
        );
    k.apply_fault_plan(&plan);
    assert!(
        k.now() < SimTime::from_nanos(10_000_000_000),
        "setup must finish inside the offline window"
    );

    let t = k.start_job();
    let mut checksum = 0u64;
    // Pass 1: the device is offline; every cold read fails. The errors are
    // part of the replayed result, so fold them into the checksum.
    for i in 0..files {
        let path = format!("/data/f{i}");
        let fd = k.open(&path, OpenFlags::RDONLY).unwrap();
        match k.read(fd, pages_per_file * PAGE_SIZE as usize) {
            Ok(data) => {
                checksum = data
                    .iter()
                    .fold(checksum, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64));
            }
            Err(e) => {
                checksum = e
                    .to_string()
                    .bytes()
                    .fold(checksum, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
            }
        }
        k.close(fd).unwrap();
    }
    // Wait out the outage, then re-read: transient failures must be masked
    // by the retry policy and the degraded window only slows the pass.
    k.charge_cpu(SimDuration::from_secs(20));
    for i in 0..files {
        let path = format!("/data/f{i}");
        let fd = k.open(&path, OpenFlags::RDONLY).unwrap();
        let data = k
            .read(fd, pages_per_file * PAGE_SIZE as usize)
            .expect("transient faults must be masked by bounded retries");
        checksum = data
            .iter()
            .fold(checksum, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64));
        k.close(fd).unwrap();
    }
    let report = k.finish_job(&t);
    (
        report,
        report.elapsed.as_nanos(),
        checksum,
        k.trace_events(),
    )
}

#[test]
fn fault_storm_replays_byte_identical() {
    let (r1, ns1, sum1, _) = run_fault_workload(false);
    let (r2, ns2, sum2, _) = run_fault_workload(false);
    assert_eq!(sum1, sum2, "faulted contents and errors must replay");
    assert_eq!(ns1, ns2, "faulted virtual time must replay");
    assert_eq!(r1, r2, "faulted job report must replay");
    assert_rusage_sums(&r1);
    assert_eq!(
        r1.usage.io_retries, 3,
        "the transient budget is burned through exactly once"
    );
    assert!(
        !r1.usage.retry_backoff.is_zero(),
        "backoff time was charged"
    );
}

/// A disk that bounces every submission: the command is submitted exactly
/// `RetryPolicy::default().max_attempts` (4) times, backs off three times
/// on the seeded jitter stream, and gives up with `EIO`. The marks, the
/// backoffs and the clock are the numbers the pre-`attempts()` `loop`
/// produced (recorded on the parent commit, not recomputed).
#[test]
fn a_persistent_transient_fault_gets_every_attempt_and_then_eio() {
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    let len = 2 * PAGE_SIZE as usize;
    k.install_file("/data/f", &vec![7u8; len]).unwrap();
    k.enable_tracing();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    let horizon = k.now() + SimDuration::from_secs(3600);
    let cost = SimDuration::from_millis(2);
    k.apply_fault_plan(&FaultPlan::new().transient("hda", k.now(), horizon, 64, cost));

    let t = k.start_job();
    let err = k.read(fd, len).unwrap_err();
    let r = k.finish_job(&t);
    assert_eq!(
        err.to_string(),
        "hda: gave up after 4 attempts (hda: injected fault: EAGAIN (resource temporarily \
         unavailable)): EIO (input/output error)"
    );
    let marks: Vec<(&str, u64, [u64; 3])> = k
        .trace_events()
        .iter()
        .filter(|e| e.layer == Layer::Device)
        .map(|e| (e.name, e.ts.as_nanos(), e.args))
        .collect();
    assert_eq!(
        marks,
        [
            ("fault.inject", 2_015_000, [1, 1, 2_000_000]),
            ("io.retry", 7_541_806, [1, 1, 5_526_806]),
            ("fault.inject", 9_541_806, [1, 2, 2_000_000]),
            ("io.retry", 18_588_108, [1, 2, 9_046_302]),
            ("fault.inject", 20_588_108, [1, 3, 2_000_000]),
            ("io.retry", 41_117_116, [1, 3, 20_529_008]),
            ("fault.inject", 43_117_116, [1, 4, 2_000_000]),
        ],
        "four submissions, three backoffs between them, none after the last"
    );
    assert_eq!(r.usage.io_retries, 3);
    assert_eq!(r.usage.retry_backoff.as_nanos(), 35_102_116);
    assert_eq!(r.usage.io_wait.as_nanos(), 43_102_116);
    assert_eq!(r.usage.device_reads, 0);
    assert_eq!(r.elapsed.as_nanos(), 43_107_116);
    assert_rusage_sums(&r);
}

#[test]
fn faulted_run_is_identical_traced_vs_untraced() {
    let (plain, ns_plain, sum_plain, events) = run_fault_workload(false);
    let (traced, ns_traced, sum_traced, traced_events) = run_fault_workload(true);
    assert!(events.is_empty(), "untraced run must record nothing");
    assert_eq!(
        sum_plain, sum_traced,
        "contents must not change under trace"
    );
    assert_eq!(ns_plain, ns_traced, "virtual time must not change");
    assert_eq!(plain, traced, "job report must not change under trace");
    assert_rusage_sums(&traced);
    assert!(
        traced_events.iter().any(|e| e.name == "fault.inject"),
        "injected faults must be visible in the trace"
    );
    assert!(
        traced_events.iter().any(|e| e.name == "io.retry"),
        "retries must be visible in the trace"
    );
}

/// The seed workload followed by a full recalibration loop: fill the table
/// from lmbench probes, read everything cold, recalibrate from what the
/// tracer observed, then read again under the refreshed table. Returns the
/// usual replay signature plus the recalibrated table rows as bit patterns.
fn run_recal_workload(traced: bool) -> (JobReport, u64, u64, Vec<(u64, u64)>) {
    let mut k = Kernel::table2();
    if traced {
        k.enable_tracing();
    }
    k.mkdir("/data").unwrap();
    let m = k
        .mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    let table = sleds_lmbench::fill_table(&mut k, &[("/data", m)]).unwrap();

    let t = k.start_job();
    let files = 6;
    let pages_per_file = 4usize;
    for i in 0..files {
        let path = format!("/data/f{i}");
        k.install_file(&path, &vec![i as u8; pages_per_file * PAGE_SIZE as usize])
            .unwrap();
    }
    k.drop_caches().unwrap();
    let mut checksum = 0u64;
    for i in 0..files {
        let path = format!("/data/f{i}");
        let fd = k.open(&path, OpenFlags::RDONLY).unwrap();
        sleds::total_delivery_time(&mut k, &table, fd, sleds::AttackPlan::Linear).unwrap();
        let data = k.read(fd, pages_per_file * PAGE_SIZE as usize).unwrap();
        checksum = data
            .iter()
            .fold(checksum, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64));
        k.close(fd).unwrap();
    }

    // Recalibrate from the run so far and re-read under the new table.
    let fd = k.open("/data/f0", OpenFlags::RDONLY).unwrap();
    let outcome = sleds::recalibrate(&mut k, &table, fd, &sleds::RecalPolicy::default()).unwrap();
    k.close(fd).unwrap();
    let table = outcome.table;
    k.drop_caches().unwrap();
    for i in 0..files {
        let path = format!("/data/f{i}");
        let fd = k.open(&path, OpenFlags::RDONLY).unwrap();
        sleds::total_delivery_time(&mut k, &table, fd, sleds::AttackPlan::Linear).unwrap();
        let data = k.read(fd, pages_per_file * PAGE_SIZE as usize).unwrap();
        checksum = data
            .iter()
            .fold(checksum, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64));
        k.close(fd).unwrap();
    }
    let report = k.finish_job(&t);
    let rows: Vec<(u64, u64)> = table
        .iter_devices()
        .map(|(_, e)| (e.latency.to_bits(), e.bandwidth.to_bits()))
        .collect();
    (report, report.elapsed.as_nanos(), checksum, rows)
}

/// Three tenants interleaved round-robin on one disk. Each switch parks
/// the outgoing tenant's clock and resumes the target's, so by the second
/// round every tenant submits "while" the disk is still busy with the
/// others' commands — real queue waits, deterministically.
fn run_multitenant_workload(
    traced: bool,
) -> (Rusage, Vec<Rusage>, u64, Vec<TraceEvent>, SaturationReport) {
    let mut k = Kernel::table2();
    if traced {
        k.enable_tracing_with_capacity(1 << 14);
    }
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    let tenants = 3usize;
    let rounds = 4usize;
    let pages = 2usize;
    for t in 0..tenants {
        for r in 0..rounds {
            k.install_file(
                &format!("/data/t{t}_f{r}"),
                &vec![(t * rounds + r) as u8; pages * PAGE_SIZE as usize],
            )
            .unwrap();
        }
    }
    k.drop_caches().unwrap();
    let ids: Vec<TenantId> = (0..tenants)
        .map(|t| k.tenant_register(&format!("tenant-{t}")))
        .collect();
    let mut checksum = 0u64;
    for r in 0..rounds {
        for (t, &id) in ids.iter().enumerate() {
            k.tenant_switch(id).unwrap();
            let fd = k
                .open(&format!("/data/t{t}_f{r}"), OpenFlags::RDONLY)
                .unwrap();
            let data = k.read(fd, pages * PAGE_SIZE as usize).unwrap();
            checksum = data
                .iter()
                .fold(checksum, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64));
            k.close(fd).unwrap();
        }
    }
    k.tenant_switch(TenantId(0)).unwrap();
    let per: Vec<Rusage> = (0..k.tenant_count())
        .map(|i| k.tenant_usage(TenantId(i as u64)).unwrap())
        .collect();
    let report = k.saturation_report();
    (k.usage(), per, checksum, k.trace_events(), report)
}

#[test]
fn multitenant_run_replays_byte_identical() {
    let (u1, per1, sum1, _, rep1) = run_multitenant_workload(false);
    let (u2, per2, sum2, _, rep2) = run_multitenant_workload(false);
    assert_eq!(sum1, sum2, "contents must replay identically");
    assert_eq!(u1, u2, "global usage must replay identically");
    assert_eq!(per1, per2, "per-tenant usage must replay identically");
    assert_eq!(rep1, rep2, "saturation report must replay identically");
    assert!(
        !u1.queue_wait.is_zero(),
        "interleaved tenants must actually have queued"
    );
}

#[test]
fn multitenant_run_is_identical_traced_vs_untraced() {
    let (plain, per_plain, sum_plain, events, rep_plain) = run_multitenant_workload(false);
    let (traced, per_traced, sum_traced, traced_events, rep_traced) =
        run_multitenant_workload(true);
    assert!(events.is_empty(), "untraced run must record nothing");
    assert!(!traced_events.is_empty(), "traced run must record events");
    assert_eq!(sum_plain, sum_traced, "contents must not change");
    assert_eq!(plain, traced, "global usage must not change under trace");
    assert_eq!(per_plain, per_traced, "per-tenant usage must not change");
    assert_eq!(rep_plain, rep_traced, "report must not change under trace");
}

#[test]
fn multitenant_per_tenant_rusage_sums_to_global() {
    let (global, per, _, _, _) = run_multitenant_workload(false);
    let mut total = Rusage::default();
    for u in &per {
        total.accumulate(u);
    }
    assert_eq!(
        total, global,
        "per-tenant usage rows must sum exactly to the global counters"
    );
    // Tenant 0 did the setup; the workers carry all the queue wait.
    let worker_wait: u64 = per[1..].iter().map(|u| u.queue_wait.as_nanos()).sum();
    assert_eq!(worker_wait, global.queue_wait.as_nanos());
}

#[test]
fn queue_wait_and_service_phases_sum_to_the_command_span() {
    let (_, _, _, events, _) = run_multitenant_workload(true);
    // Device events are emitted command-span first, its phase children
    // immediately after; a phase train ends at the next non-device event
    // or the next command span.
    let command_names = ["disk.read", "disk.write"];
    let mut saw_queue_wait = false;
    let mut commands = 0usize;
    let mut i = 0usize;
    while i < events.len() {
        let ev = &events[i];
        if ev.layer != Layer::Device || !command_names.contains(&ev.name) {
            i += 1;
            continue;
        }
        commands += 1;
        let mut nested = 0u64;
        let mut j = i + 1;
        while j < events.len()
            && events[j].layer == Layer::Device
            && !command_names.contains(&events[j].name)
        {
            if events[j].name == "queue_wait" {
                saw_queue_wait = true;
                assert_eq!(
                    events[j].ts, ev.ts,
                    "queue wait starts at the submission instant"
                );
            }
            nested += events[j].dur.as_nanos();
            j += 1;
        }
        assert_eq!(
            nested,
            ev.dur.as_nanos(),
            "phases (queue wait included) must sum exactly to {} span at {}",
            ev.name,
            ev.ts
        );
        i = j;
    }
    assert!(
        commands > 0,
        "the workload must have issued device commands"
    );
    assert!(
        saw_queue_wait,
        "interleaved tenants must produce queue_wait phases"
    );
}

#[test]
fn saturation_attribution_sums_exactly() {
    let (_, per, _, _, report) = run_multitenant_workload(false);
    assert!(!report.devices.is_empty(), "the disk must have rows");
    for t in &report.tenants {
        let waited: u64 = t.waited_on.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(
            waited, t.queue_wait_ns,
            "tenant {}: cross-tenant waits must sum to its total queue wait",
            t.tenant
        );
        // The rusage view and the queue view of the same wait agree.
        assert_eq!(
            t.queue_wait_ns,
            per[t.tenant as usize].queue_wait.as_nanos(),
            "tenant {}: queue wait must match its rusage column",
            t.tenant
        );
    }
}

#[test]
fn tenant_timelines_account_exactly() {
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    for t in 0..2 {
        k.install_file(&format!("/data/f{t}"), &vec![t as u8; PAGE_SIZE as usize])
            .unwrap();
    }
    k.drop_caches().unwrap();
    let a = k.tenant_register("a");
    let b = k.tenant_register("b");
    for (t, &id) in [a, b].iter().enumerate() {
        k.tenant_switch(id).unwrap();
        let fd = k.open(&format!("/data/f{t}"), OpenFlags::RDONLY).unwrap();
        k.read(fd, PAGE_SIZE as usize).unwrap();
        k.close(fd).unwrap();
    }
    k.tenant_switch(TenantId(0)).unwrap();
    for &id in &[a, b] {
        let u = k.tenant_usage(id).unwrap();
        let elapsed = k.tenant_elapsed(id).unwrap();
        assert_eq!(
            elapsed,
            u.cpu + u.io_wait,
            "a tenant's elapsed virtual time is exactly its cpu + io_wait"
        );
    }
}

#[test]
fn recalibration_is_deterministic() {
    // Same trace, same table: two identical traced runs recalibrate to
    // byte-identical rows (bit-for-bit floats, not approximately equal).
    let (r1, ns1, sum1, rows1) = run_recal_workload(true);
    let (r2, ns2, sum2, rows2) = run_recal_workload(true);
    assert_eq!(rows1, rows2, "recalibrated rows must be byte-identical");
    assert_eq!(sum1, sum2);
    assert_eq!(ns1, ns2);
    assert_eq!(r1, r2);
    assert_rusage_sums(&r1);
}

#[test]
fn recalibrated_run_is_identical_traced_vs_untraced() {
    // `FSLEDS_RECAL` must not let observation leak into virtual results:
    // the traced run refreshes table rows and the untraced run keeps its
    // boot-time rows (its snapshot is empty), but the virtual clock,
    // usage counters, and file contents stay byte-identical — the table
    // only changes *estimates*, never the I/O itself.
    let (plain, ns_plain, sum_plain, rows_plain) = run_recal_workload(false);
    let (traced, ns_traced, sum_traced, rows_traced) = run_recal_workload(true);
    assert_eq!(sum_plain, sum_traced, "contents must not change");
    assert_eq!(ns_plain, ns_traced, "virtual time must not change");
    assert_eq!(plain, traced, "job report must not change");
    assert_ne!(
        rows_plain, rows_traced,
        "the traced run must actually have refreshed its rows"
    );
    assert_rusage_sums(&traced);
}

/// Redundant volumes under a fault storm: a mirrored disk + NFS-metro
/// volume whose cheapest member (the metro link) is degraded — every
/// cold run hedges and the disk usually wins — and a (2, 3)-coded volume
/// with an offline member (every read reroutes its fan-out). Hedge decisions, cancellations, failover
/// and the straggler charge all ride the virtual clock, so two identical
/// runs must agree to the byte.
fn run_hedged_workload(traced: bool) -> (JobReport, u64, u64, Vec<TraceEvent>) {
    let mut k = Kernel::table2();
    if traced {
        k.enable_tracing_with_capacity(1 << 14);
    }
    k.mkdir("/vol").unwrap();
    k.mount_volume(
        "/vol",
        VolumeLayout::Mirrored,
        vec![
            Box::new(DiskDevice::table2_disk("vd0")) as Box<dyn BlockDevice>,
            Box::new(NfsDevice::metro_link("net0")),
        ],
    )
    .unwrap();
    k.mkdir("/cod").unwrap();
    k.mount_volume(
        "/cod",
        VolumeLayout::Coded { k: 2 },
        vec![
            Box::new(DiskDevice::table2_disk("cd0")) as Box<dyn BlockDevice>,
            Box::new(DiskDevice::table2_disk("cd1")),
            Box::new(DiskDevice::table2_disk("cd2")),
        ],
    )
    .unwrap();
    let files = 6;
    let pages_per_file = 6usize;
    for i in 0..files {
        k.install_file(
            &format!("/vol/f{i}"),
            &vec![i as u8; pages_per_file * PAGE_SIZE as usize],
        )
        .unwrap();
        k.install_file(
            &format!("/cod/f{i}"),
            &vec![(64 + i) as u8; pages_per_file * PAGE_SIZE as usize],
        )
        .unwrap();
    }
    k.drop_caches().unwrap();
    let plan = FaultPlan::new()
        .degraded("net0", SimTime::ZERO, SimTime::from_nanos(u64::MAX), 8.0)
        .offline(
            "cd0",
            SimTime::ZERO,
            SimTime::from_nanos(u64::MAX),
            SimDuration::from_millis(1),
        );
    k.apply_fault_plan(&plan);

    let t = k.start_job();
    let mut checksum = 0u64;
    for i in 0..files {
        for root in ["/vol", "/cod"] {
            let fd = k.open(&format!("{root}/f{i}"), OpenFlags::RDONLY).unwrap();
            let data = k
                .read(fd, pages_per_file * PAGE_SIZE as usize)
                .expect("redundancy must mask the storm");
            checksum = data
                .iter()
                .fold(checksum, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64));
            k.close(fd).unwrap();
        }
    }
    let report = k.finish_job(&t);
    (
        report,
        report.elapsed.as_nanos(),
        checksum,
        k.trace_events(),
    )
}

#[test]
fn hedged_fault_storm_replays_byte_identical() {
    let (r1, ns1, sum1, _) = run_hedged_workload(false);
    let (r2, ns2, sum2, _) = run_hedged_workload(false);
    assert_eq!(sum1, sum2, "hedged contents must replay identically");
    assert_eq!(ns1, ns2, "hedged virtual time must replay identically");
    assert_eq!(r1, r2, "hedged job report must replay identically");
    assert_rusage_sums(&r1);
    assert!(r1.usage.hedges > 0, "the degraded mirror must have hedged");
    assert_eq!(
        r1.usage.io_retries, 0,
        "redundancy reroutes; nothing should have retried"
    );
}

#[test]
fn hedged_run_is_identical_traced_vs_untraced() {
    let (plain, ns_plain, sum_plain, events) = run_hedged_workload(false);
    let (traced, ns_traced, sum_traced, traced_events) = run_hedged_workload(true);
    assert!(events.is_empty(), "untraced run must record nothing");
    assert_eq!(sum_plain, sum_traced, "contents must not change");
    assert_eq!(ns_plain, ns_traced, "virtual time must not change");
    assert_eq!(plain, traced, "job report must not change under trace");
    assert_rusage_sums(&traced);
    assert!(
        traced_events.iter().any(|e| e.name == "io.hedge"),
        "hedge cancellations must be visible in the trace"
    );
}

// ---------------------------------------------------------------------
// Capture/replay identity: the flight-recorder half of the determinism
// story. Capturing is pure observation (the recorder must not perturb
// the clock), captures of identical runs are byte-identical, and the
// identity replay — same spec, no overrides — reproduces the capture
// byte for byte through the serialized form.

use sleds_replay::{build_kernel, replay, CandidateConfig, CaptureFile, SetupStep, WorkloadSpec};

/// A disk + NFS environment with cold caches, as rebuildable data.
fn capture_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::new("table2");
    spec.setup = vec![
        SetupStep::Mkdir { path: "/d".into() },
        SetupStep::MountDisk {
            path: "/d".into(),
            model: "table2_disk".into(),
            name: "hda".into(),
        },
        SetupStep::InstallSparseFile {
            path: "/d/f".into(),
            size: 24 * PAGE_SIZE,
        },
        SetupStep::DropCaches,
    ];
    spec
}

/// A two-tenant workload with think gaps, cold and warm reads, writes,
/// and metadata ops — enough surface to catch a replay drift anywhere.
fn drive_captured(k: &mut Kernel) {
    let t = k.tenant_register("peer");
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    for p in [0u64, 8, 16, 0] {
        k.pread(fd, p * PAGE_SIZE, PAGE_SIZE as usize).unwrap();
        k.charge_cpu(SimDuration::from_nanos(1_500_000));
    }
    k.tenant_switch(t).unwrap();
    let wfd = k.open("/d/w", OpenFlags::CREATE_RDWR).unwrap();
    k.write(wfd, &[3u8; 2048]).unwrap();
    k.fsync(wfd).unwrap();
    k.close(wfd).unwrap();
    k.tenant_switch(TenantId(0)).unwrap();
    k.stat("/d/w").unwrap();
    k.close(fd).unwrap();
}

fn record_capture() -> CaptureFile {
    let spec = capture_spec();
    let mut k = build_kernel(&spec).unwrap();
    k.start_capture(128);
    drive_captured(&mut k);
    let capture = k.stop_capture().unwrap();
    assert!(capture.complete, "workload must fit the capture budget");
    CaptureFile { spec, capture }
}

#[test]
fn capture_files_of_identical_runs_are_byte_identical() {
    assert_eq!(
        record_capture().to_jsonl(),
        record_capture().to_jsonl(),
        "same spec + same workload ⇒ byte-identical capture file"
    );
}

#[test]
fn capturing_does_not_perturb_the_virtual_clock() {
    // Same workload with and without the recorder armed: the recorder
    // is observation only, so the clock and usage must not move.
    let spec = capture_spec();
    let mut plain = build_kernel(&spec).unwrap();
    drive_captured(&mut plain);

    let mut recorded = build_kernel(&spec).unwrap();
    recorded.start_capture(128);
    drive_captured(&mut recorded);
    let capture = recorded.stop_capture().unwrap();
    assert!(capture.complete);

    assert_eq!(
        plain.now(),
        recorded.now(),
        "recording must not advance the clock"
    );
    assert_eq!(
        plain.usage(),
        recorded.usage(),
        "recording must not charge rusage"
    );
}

#[test]
fn identity_replay_round_trips_through_serialization() {
    // Full loop: capture → serialize → parse → replay identity →
    // serialize again. Every stage must preserve bytes.
    let original = record_capture();
    let text = original.to_jsonl();
    let parsed = CaptureFile::parse(&text).expect("parse");
    let replayed = replay(&parsed, &CandidateConfig::identity()).expect("identity replay");
    assert_eq!(
        replayed.into_file().to_jsonl(),
        text,
        "capture → parse → replay must reproduce the capture byte for byte"
    );
}

/// A mirrored volume whose cheapest member (the metro link) is degraded
/// for the whole run: every cold read hedges, so the capture must record
/// hedge counts and the identity replay must reproduce them (the volume
/// mount, fault plan and hedge policy all travel in the spec).
fn hedged_capture_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::new("table2");
    spec.setup = vec![
        SetupStep::Mkdir {
            path: "/vol".into(),
        },
        SetupStep::MountVolume {
            path: "/vol".into(),
            layout: VolumeLayout::Mirrored,
            members: vec![
                ("table2_disk".into(), "vd0".into()),
                ("nfs_metro".into(), "net0".into()),
            ],
        },
        SetupStep::InstallSparseFile {
            path: "/vol/f".into(),
            size: 16 * PAGE_SIZE,
        },
        SetupStep::DropCaches,
    ];
    spec.fault_plan =
        FaultPlan::new().degraded("net0", SimTime::ZERO, SimTime::from_nanos(u64::MAX), 8.0);
    spec
}

fn drive_hedged_captured(k: &mut Kernel) {
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    for p in [0u64, 4, 8, 12, 0] {
        k.pread(fd, p * PAGE_SIZE, PAGE_SIZE as usize).unwrap();
        k.charge_cpu(SimDuration::from_nanos(900_000));
    }
    k.close(fd).unwrap();
}

#[test]
fn hedged_workload_capture_identity_replay() {
    let spec = hedged_capture_spec();
    let mut k = build_kernel(&spec).unwrap();
    k.start_capture(128);
    drive_hedged_captured(&mut k);
    let capture = k.stop_capture().unwrap();
    assert!(capture.complete, "workload must fit the capture budget");
    let hedges: u64 = capture.ops.iter().map(|op| op.outcome.hedges).sum();
    assert!(hedges > 0, "the degraded pick must have hedged on record");

    let original = CaptureFile { spec, capture };
    let text = original.to_jsonl();
    let parsed = CaptureFile::parse(&text).expect("parse");
    let replayed = replay(&parsed, &CandidateConfig::identity()).expect("identity replay");
    assert_eq!(
        replayed.into_file().to_jsonl(),
        text,
        "hedged capture → parse → replay must reproduce the capture byte for byte"
    );
}
