//! Redundant volume behavior at the kernel level: mount validation,
//! fault-driven failover (an offline primary must be invisible to the
//! application), hedged-read accounting, striped placement, coded
//! fan-out, and the `RedundantExtent` view that `FSLEDS_GET` prices.

use sleds_devices::{DiskDevice, FaultPlan};
use sleds_fs::{
    HedgePolicy, JobReport, Kernel, MountId, OpenFlags, PageLocation, Rusage, VolumeLayout,
    SECTORS_PER_PAGE,
};
use sleds_sim_core::{SimDuration, SimTime, PAGE_SIZE};

fn disks(n: usize) -> Vec<Box<dyn sleds_devices::BlockDevice>> {
    (0..n)
        .map(|i| Box::new(DiskDevice::table2_disk(format!("vd{i}"))) as Box<_>)
        .collect()
}

/// Mounts `/vol` with the given layout and installs one cold file.
fn volume_with_file(k: &mut Kernel, layout: VolumeLayout, n: usize, pages: usize) -> MountId {
    k.mkdir("/vol").unwrap();
    let m = k.mount_volume("/vol", layout, disks(n)).unwrap();
    let body: Vec<u8> = (0..pages * PAGE_SIZE as usize)
        .map(|i| (i / PAGE_SIZE as usize) as u8)
        .collect();
    k.install_file("/vol/f", &body).unwrap();
    k.drop_caches().unwrap();
    m
}

fn assert_conserves(r: &JobReport) {
    assert_eq!(
        r.elapsed,
        r.usage.cpu + r.usage.io_wait,
        "elapsed must equal cpu + io_wait exactly"
    );
}

#[test]
fn mount_volume_validates_member_counts() {
    let mut k = Kernel::table2();
    k.mkdir("/vol").unwrap();
    let err = k
        .mount_volume("/vol", VolumeLayout::Mirrored, disks(1))
        .unwrap_err();
    assert_eq!(err.errno, sleds_sim_core::Errno::Einval);
    let err = k
        .mount_volume("/vol", VolumeLayout::Coded { k: 2 }, disks(2))
        .unwrap_err();
    assert_eq!(err.errno, sleds_sim_core::Errno::Einval);
    let err = k
        .mount_volume("/vol", VolumeLayout::Coded { k: 0 }, disks(3))
        .unwrap_err();
    assert_eq!(err.errno, sleds_sim_core::Errno::Einval);
    // A valid mount still works afterwards.
    let m = k
        .mount_volume("/vol", VolumeLayout::Mirrored, disks(2))
        .unwrap();
    assert_eq!(k.volume_layout(m), Some(VolumeLayout::Mirrored));
    assert_eq!(k.volume_members(m).len(), 2);
}

#[test]
fn mirrored_read_survives_offline_primary_with_zero_app_errors() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    let m = volume_with_file(&mut k, VolumeLayout::Mirrored, 2, pages);
    let members = k.volume_members(m);
    let reads_before: Vec<u64> = members
        .iter()
        .map(|&d| k.device_stats(d).unwrap().reads)
        .collect();

    // Take the primary offline for the whole read phase.
    let plan = FaultPlan::new().offline(
        "vd0",
        SimTime::ZERO,
        SimTime::from_nanos(u64::MAX),
        SimDuration::from_millis(1),
    );
    k.apply_fault_plan(&plan);

    let t = k.start_job();
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    let data = k
        .read(fd, pages * PAGE_SIZE as usize)
        .expect("an offline primary must reroute, not error");
    k.close(fd).unwrap();
    let r = k.finish_job(&t);

    assert_eq!(data.len(), pages * PAGE_SIZE as usize);
    assert_eq!(data[0], 0);
    assert_eq!(data[(pages - 1) * PAGE_SIZE as usize], (pages - 1) as u8);
    // Every cold sector came off the mirror; the offline primary was
    // never issued a command (rerouting, not retrying).
    let vd0 = k.device_stats(members[0]).unwrap();
    let vd1 = k.device_stats(members[1]).unwrap();
    assert_eq!(
        vd0.reads, reads_before[0],
        "offline primary must be skipped"
    );
    assert!(
        vd1.reads > reads_before[1],
        "the mirror must serve the read"
    );
    assert_eq!(r.usage.io_retries, 0, "reroute, not retry");
    assert_conserves(&r);
}

#[test]
fn degraded_primary_triggers_hedge_with_exact_accounting() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    volume_with_file(&mut k, VolumeLayout::Mirrored, 2, pages);

    // A long degraded window on the primary: each cold run hedges to the
    // mirror, which wins on live fault-epoch pricing.
    let plan = FaultPlan::new().degraded("vd0", SimTime::ZERO, SimTime::from_nanos(u64::MAX), 10.0);
    k.apply_fault_plan(&plan);

    let policy = HedgePolicy::default();
    let t = k.start_job();
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, pages * PAGE_SIZE as usize).unwrap();
    k.close(fd).unwrap();
    let r = k.finish_job(&t);

    assert!(r.usage.hedges >= 1, "a degraded pick must hedge");
    assert_eq!(
        r.usage.hedge_wins, r.usage.hedges,
        "every hedge against a 10x-degraded primary is won by the mirror"
    );
    assert_eq!(
        r.usage.hedge_wait,
        SimDuration::from_nanos(r.usage.hedges * policy.cancel_cost.as_nanos()),
        "hedge overhead is exactly one cancel charge per loser"
    );
    assert_eq!(r.usage.io_retries, 0);
    assert_conserves(&r);
}

#[test]
fn disabled_hedging_never_hedges() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    volume_with_file(&mut k, VolumeLayout::Mirrored, 2, pages);
    k.set_hedge_policy(HedgePolicy::disabled());
    let plan = FaultPlan::new().degraded("vd0", SimTime::ZERO, SimTime::from_nanos(u64::MAX), 10.0);
    k.apply_fault_plan(&plan);

    let t = k.start_job();
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, pages * PAGE_SIZE as usize).unwrap();
    k.close(fd).unwrap();
    let r = k.finish_job(&t);
    assert_eq!(r.usage.hedges, 0, "max_hedges = 0 must disable hedging");
    assert_eq!(r.usage.hedge_wait, SimDuration::ZERO);
    assert_conserves(&r);
}

#[test]
fn striped_layout_round_robins_across_members() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    let m = volume_with_file(&mut k, VolumeLayout::Striped { stripe_pages: 2 }, 2, pages);
    let members = k.volume_members(m);
    // A cold sequential read shows the placement: two-page chunks
    // alternate members, so each serves exactly half the file.
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, pages * PAGE_SIZE as usize).unwrap();
    k.close(fd).unwrap();
    let r0 = k.device_stats(members[0]).unwrap().sectors_read;
    let r1 = k.device_stats(members[1]).unwrap().sectors_read;
    assert_eq!(r0, r1, "an even stripe must split the read evenly");
    assert_eq!(r0 + r1, pages as u64 * SECTORS_PER_PAGE);
    assert!(k.device_stats(members[0]).unwrap().reads > 0);
    assert!(k.device_stats(members[1]).unwrap().reads > 0);
}

#[test]
fn coded_read_fans_out_to_the_k_cheapest_members() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    let m = volume_with_file(&mut k, VolumeLayout::Coded { k: 2 }, 3, pages);
    let members = k.volume_members(m);

    let t = k.start_job();
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, pages * PAGE_SIZE as usize).unwrap();
    k.close(fd).unwrap();
    let r = k.finish_job(&t);

    let reads: Vec<u64> = members
        .iter()
        .map(|&d| k.device_stats(d).unwrap().reads)
        .collect();
    assert!(reads[0] > 0 && reads[1] > 0, "k = 2 fragments fan out");
    assert_eq!(
        reads[2], 0,
        "with all members healthy and equal, the third is never needed"
    );
    // Redundant work is bounded: the fragments sum to the file (give or
    // take one rounding sector per run), not to k copies of it.
    let total: u64 = members
        .iter()
        .map(|&d| k.device_stats(d).unwrap().sectors_read)
        .sum();
    let file_sectors = pages as u64 * SECTORS_PER_PAGE;
    assert!(total >= file_sectors, "all k fragments must arrive");
    assert!(
        total <= file_sectors + 2 * r.usage.device_reads,
        "coded reads must not read whole extra copies (read {total} of {file_sectors})"
    );
    assert_conserves(&r);
}

#[test]
fn coded_read_survives_an_offline_member() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    let m = volume_with_file(&mut k, VolumeLayout::Coded { k: 2 }, 3, pages);
    let members = k.volume_members(m);
    let plan = FaultPlan::new().offline(
        "vd0",
        SimTime::ZERO,
        SimTime::from_nanos(u64::MAX),
        SimDuration::from_millis(1),
    );
    k.apply_fault_plan(&plan);

    let t = k.start_job();
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, pages * PAGE_SIZE as usize)
        .expect("k of n members remain: the read must complete");
    k.close(fd).unwrap();
    let r = k.finish_job(&t);
    assert_eq!(r.usage.io_retries, 0, "no app-visible errors or retries");
    assert_eq!(k.device_stats(members[0]).unwrap().reads, 0);
    assert!(k.device_stats(members[1]).unwrap().reads > 0);
    assert!(k.device_stats(members[2]).unwrap().reads > 0);
    assert_conserves(&r);
}

#[test]
fn redundant_extents_describe_the_volume_shape() {
    // Mirrored 2-way: one alternative per device extent, no coded_k.
    let mut k = Kernel::table2();
    volume_with_file(&mut k, VolumeLayout::Mirrored, 2, 4);
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    let ext = k.redundant_extents(fd).unwrap();
    assert!(!ext.is_empty());
    for re in &ext {
        assert!(matches!(re.extent.location, PageLocation::Device { .. }));
        assert_eq!(re.alternatives.len(), 1, "2-way mirror has one alternative");
        assert_eq!(re.coded_k, None);
    }
    k.close(fd).unwrap();

    // Coded (2, 3): two alternatives and coded_k = 2.
    let mut k = Kernel::table2();
    volume_with_file(&mut k, VolumeLayout::Coded { k: 2 }, 3, 4);
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    let ext = k.redundant_extents(fd).unwrap();
    assert!(!ext.is_empty());
    for re in &ext {
        assert_eq!(re.alternatives.len(), 2);
        assert_eq!(re.coded_k, Some(2));
    }
    // Warm pages drop their alternatives: a cached extent is priced as
    // memory, redundancy is irrelevant to it.
    k.read(fd, PAGE_SIZE as usize).unwrap();
    let ext = k.redundant_extents(fd).unwrap();
    assert!(matches!(ext[0].extent.location, PageLocation::Memory));
    assert!(ext[0].alternatives.is_empty());
    assert_eq!(ext[0].coded_k, None);
    k.close(fd).unwrap();

    // An unreplicated mount never reports alternatives.
    let mut k = Kernel::table2();
    k.mkdir("/d").unwrap();
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    k.install_file("/d/f", &[7u8; PAGE_SIZE as usize]).unwrap();
    k.drop_caches().unwrap();
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    for re in k.redundant_extents(fd).unwrap() {
        assert!(re.alternatives.is_empty());
        assert_eq!(re.coded_k, None);
    }
    k.close(fd).unwrap();
}

/// Pins `coded_read`'s own fault arm: a *transient* fault on a live
/// fragment (offline members are filtered before selection and never
/// reach it). Two tenants so the faulted fragment also carries a real
/// queue wait. Every constant below was recorded at the commit before
/// the accounting spine replaced the hand-written fan-out.
#[test]
fn coded_read_repicks_past_a_transient_fragment_fault() {
    let pages = 8usize;
    let mut k = Kernel::table2();
    let m = volume_with_file(&mut k, VolumeLayout::Coded { k: 2 }, 3, pages);
    let members = k.volume_members(m);
    let a = k.tenant_register("a");
    let b = k.tenant_register("b");
    // The first two submissions to vd0 fail with EAGAIN after 2 ms each.
    k.apply_fault_plan(&FaultPlan::new().transient(
        "vd0",
        SimTime::ZERO,
        SimTime::from_nanos(u64::MAX),
        2,
        SimDuration::from_millis(2),
    ));
    k.enable_tracing();
    let before = k.usage();
    for (t, first) in [(a, 0u64), (b, 4)] {
        k.tenant_switch(t).unwrap();
        let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
        let data = k
            .pread(fd, first * PAGE_SIZE, 4 * PAGE_SIZE as usize)
            .expect("a transient fragment fault must re-pick, not error");
        assert_eq!(data[0], first as u8);
        k.close(fd).unwrap();
    }
    let u = k.usage().since(&before);
    let queues: Vec<(u64, u64, u64)> = members
        .iter()
        .map(|&d| {
            let q = k.device_queue(d).unwrap().total();
            (q.commands, q.service_ns, q.queue_wait_ns)
        })
        .collect();
    let events: Vec<String> = k
        .trace_events()
        .iter()
        .map(|e| {
            format!(
                "{} {:?} {} @{}+{} {:?}",
                e.tenant,
                e.phase,
                e.name,
                e.ts.as_nanos(),
                e.dur.as_nanos(),
                e.args
            )
        })
        .collect();
    assert_eq!(
        u,
        Rusage {
            cpu: SimDuration::from_nanos(729_016),
            io_wait: SimDuration::from_nanos(33_303_331),
            major_faults: 8,
            syscalls: 6,
            syscall_crossings: 6,
            bytes_read: 32_768,
            device_reads: 4,
            queue_wait: SimDuration::from_nanos(8_412_349),
            ..Rusage::default()
        }
    );
    assert_eq!(k.tenant_now(a).unwrap().as_nanos(), 10_781_857);
    assert_eq!(k.tenant_now(b).unwrap().as_nanos(), 23_260_490);
    // (commands, busy_ns, queue_wait_ns) per member: vd0 only ever holds
    // the two 2 ms faulted attempts, the second queued behind the first.
    assert_eq!(
        queues,
        [
            (2, 4_000_000, 2_000_000),
            (2, 20_890_982, 6_412_349),
            (2, 20_890_982, 6_412_349)
        ]
    );
    assert_eq!(events, REPICK_TRACE);
}

/// `tenant phase name @ts+dur args` of every event the re-pick test emits.
const REPICK_TRACE: [&str; 38] = [
    "1 Begin open @5000+0 [0, 0, 0]",
    "1 End open @10000+5000 [0, 0, 0]",
    "1 Begin pread @10000+0 [3, 16384, 0]",
    "1 Mark cache.miss @15000+0 [0, 4, 3]",
    "1 Mark fault.inject @2015000+0 [1, 1, 2000000]",
    "1 Complete disk.read @2015000+8412349 [2048, 16, 1]",
    "1 Complete overhead @2015000+200000 [2048, 0, 1]",
    "1 Complete seek @2215000+1800000 [2048, 0, 1]",
    "1 Complete rotation @4015000+5728589 [2048, 0, 1]",
    "1 Complete transfer @9743589+683760 [2048, 0, 1]",
    "1 Complete disk.read @2015000+8412349 [2048, 16, 1]",
    "1 Complete overhead @2015000+200000 [2048, 0, 1]",
    "1 Complete seek @2215000+1800000 [2048, 0, 1]",
    "1 Complete rotation @4015000+5728589 [2048, 0, 1]",
    "1 Complete transfer @9743589+683760 [2048, 0, 1]",
    "1 End pread @10776857+10766857 [3, 16384, 0]",
    "1 Begin close @10776857+0 [3, 0, 0]",
    "1 End close @10781857+5000 [3, 0, 0]",
    "2 Begin open @5000+0 [0, 0, 0]",
    "2 End open @10000+5000 [0, 0, 0]",
    "2 Begin pread @10000+0 [4, 16384, 16384]",
    "2 Mark cache.miss @15000+0 [4, 4, 3]",
    "2 Mark fault.inject @4015000+0 [1, 1, 2000000]",
    "2 Complete disk.read @4015000+18890982 [2080, 16, 1]",
    "2 Complete queue_wait @4015000+6412349 [2080, 0, 1]",
    "2 Complete overhead @10427349+200000 [2080, 0, 1]",
    "2 Complete seek @10627349+1800000 [2080, 0, 1]",
    "2 Complete rotation @12427349+9794873 [2080, 0, 1]",
    "2 Complete transfer @22222222+683760 [2080, 0, 1]",
    "2 Complete disk.read @4015000+18890982 [2080, 16, 1]",
    "2 Complete queue_wait @4015000+6412349 [2080, 0, 1]",
    "2 Complete overhead @10427349+200000 [2080, 0, 1]",
    "2 Complete seek @10627349+1800000 [2080, 0, 1]",
    "2 Complete rotation @12427349+9794873 [2080, 0, 1]",
    "2 Complete transfer @22222222+683760 [2080, 0, 1]",
    "2 End pread @23255490+23245490 [4, 16384, 16384]",
    "2 Begin close @23255490+0 [4, 0, 0]",
    "2 End close @23260490+5000 [4, 0, 0]",
];

/// One golden run: a 5-page install grown by a 3-page `write`, flushed,
/// dropped, then read cold in full with `offline` (if any) down. Returns
/// one line per `redundant_extents` entry (taken cold, before the fault),
/// one per member's `DevStats`, and one for the whole run's `Rusage`.
fn golden_transcript(layout: VolumeLayout, n: usize, offline: Option<&str>) -> Vec<String> {
    let mut k = Kernel::table2();
    k.mkdir("/vol").unwrap();
    let m = k.mount_volume("/vol", layout, disks(n)).unwrap();
    let page = PAGE_SIZE as usize;
    let body: Vec<u8> = (0..8 * page).map(|i| (i / page) as u8).collect();
    k.install_file("/vol/f", &body[..5 * page]).unwrap();
    let append = OpenFlags {
        append: true,
        ..OpenFlags::RDWR
    };
    let fd = k.open("/vol/f", append).unwrap();
    assert_eq!(k.write(fd, &body[5 * page..]).unwrap(), 3 * page);
    k.fsync(fd).unwrap();
    k.close(fd).unwrap();
    k.drop_caches().unwrap();

    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    let mut lines: Vec<String> = k
        .redundant_extents(fd)
        .unwrap()
        .iter()
        .map(|re| {
            let e = re.extent;
            let at = match e.location {
                PageLocation::Device { dev, sector } => format!("{}@{sector}", dev.0),
                PageLocation::Memory => "memory".to_string(),
            };
            let alts: Vec<String> = re
                .alternatives
                .iter()
                .map(|a| format!("{}@{}", a.dev.0, a.sector))
                .collect();
            let k = re.coded_k.map_or("-".to_string(), |k| k.to_string());
            format!(
                "extent {}+{} {at} alts [{}] k{k}",
                e.first_page,
                e.pages,
                alts.join(" ")
            )
        })
        .collect();
    if let Some(name) = offline {
        let plan = FaultPlan::new().offline(
            name,
            SimTime::ZERO,
            SimTime::from_nanos(u64::MAX),
            SimDuration::from_millis(1),
        );
        k.apply_fault_plan(&plan);
    }
    assert_eq!(k.read(fd, 8 * page).unwrap(), body);
    k.close(fd).unwrap();
    for d in k.volume_members(m) {
        let s = k.device_stats(d).unwrap();
        lines.push(format!(
            "dev {} r{} w{} sr{} sw{} busy{} rp{}",
            d.0,
            s.reads,
            s.writes,
            s.sectors_read,
            s.sectors_written,
            s.busy.as_nanos(),
            s.repositions
        ));
    }
    let u = k.usage();
    lines.push(format!(
        "usage cpu{} io{} maj{} min{} sys{} x{} br{} bw{} dr{} dw{} retry{} backoff{} qw{} hedge{}/{} hw{}",
        u.cpu.as_nanos(),
        u.io_wait.as_nanos(),
        u.major_faults,
        u.minor_faults,
        u.syscalls,
        u.syscall_crossings,
        u.bytes_read,
        u.bytes_written,
        u.device_reads,
        u.device_writes,
        u.io_retries,
        u.retry_backoff.as_nanos(),
        u.queue_wait.as_nanos(),
        u.hedges,
        u.hedge_wins,
        u.hedge_wait.as_nanos()
    ));
    lines
}

fn check_golden(got: Vec<String>, expected: &[&str]) {
    assert!(
        got == expected,
        "the golden run moved; the full transcript:\n{}",
        got.iter()
            .map(|l| format!("    {l:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Pins the volume layer's placement, growth, writeback and routing: every
/// sector of every extent and alternative, each member's counters and the
/// run's usage, for a mirror and a (2, 3) code with member 1 offline and a
/// healthy 3-way stripe. Every constant was recorded at the commit before
/// the kernel's volume code moved into its own module.
#[test]
fn volume_layer_golden_runs() {
    check_golden(
        golden_transcript(VolumeLayout::Mirrored, 2, Some("vd1")),
        GOLDEN_MIRRORED,
    );
    check_golden(
        golden_transcript(VolumeLayout::Striped { stripe_pages: 2 }, 3, None),
        GOLDEN_STRIPED,
    );
    check_golden(
        golden_transcript(VolumeLayout::Coded { k: 2 }, 3, Some("vd1")),
        GOLDEN_CODED,
    );
}

const GOLDEN_MIRRORED: &[&str] = &[
    "extent 0+8 0@2048 alts [1@2048] k-",
    "dev 0 r1 w3 sr64 sw24 busy24009299 rp1",
    "dev 1 r0 w3 sr0 sw24 busy12194871 rp1",
    "usage cpu1000524 io36204170 maj8 min0 sys9 x9 br32768 bw12288 dr1 dw6 retry0 backoff0 qw0 hedge0/0 hw0",
];

const GOLDEN_STRIPED: &[&str] = &[
    "extent 0+2 0@2048 alts [] k-",
    "extent 2+2 1@2048 alts [] k-",
    "extent 4+1 2@2048 alts [] k-",
    "extent 5+2 0@2064 alts [] k-",
    "extent 7+1 1@2064 alts [] k-",
    "dev 0 r2 w2 sr32 sw16 busy22666667 rp1",
    "dev 1 r2 w1 sr24 sw8 busy22218222 rp1",
    "dev 2 r1 w0 sr8 sw0 busy10765231 rp1",
    "usage cpu1001274 io55650120 maj8 min0 sys9 x9 br32768 bw12288 dr5 dw3 retry0 backoff0 qw0 hedge0/0 hw0",
];

const GOLDEN_CODED: &[&str] = &[
    "extent 0+8 0@2048 alts [1@2048 2@2048] k2",
    "dev 0 r1 w3 sr32 sw12 busy44147510 rp2",
    "dev 1 r0 w3 sr0 sw12 busy33333333 rp1",
    "dev 2 r1 w3 sr32 sw12 busy43227104 rp2",
    "usage cpu1000774 io110814176 maj8 min0 sys9 x9 br32768 bw12288 dr2 dw9 retry0 backoff0 qw0 hedge0/0 hw0",
];

/// `O_TRUNC` on a volume file drops its replica maps with its pages, so
/// the rewrite's copies are where the rewrite allocated them: each member
/// serves and takes writeback at the new sectors, never at the truncated
/// file's.
#[test]
fn truncate_drops_the_replica_maps_with_the_pages() {
    for (layout, n) in [
        (VolumeLayout::Mirrored, 2),
        (VolumeLayout::Coded { k: 2 }, 3),
    ] {
        let mut k = Kernel::table2();
        volume_with_file(&mut k, layout, n, 4);
        // The install took sectors 2048..2080 on every member, so the
        // rewrite allocates from 2080 on each.
        let rewrite = 2048 + 4 * SECTORS_PER_PAGE;
        let fd = k.open("/vol/f", OpenFlags::CREATE_RDWR).unwrap();
        k.write(fd, &[9u8; PAGE_SIZE as usize]).unwrap();
        k.enable_tracing();
        k.fsync(fd).unwrap();
        k.drop_caches().unwrap();
        let writes: Vec<u64> = k
            .trace_events()
            .iter()
            .filter(|e| e.name == "disk.write")
            .map(|e| e.args[0])
            .collect();
        assert_eq!(writes.len(), n, "{layout:?}: one page to every member");
        assert!(
            writes.iter().all(|&s| s >= rewrite),
            "{layout:?}: writeback at {writes:?}"
        );
        let ext = k.redundant_extents(fd).unwrap();
        assert_eq!(ext.iter().map(|re| re.extent.pages).sum::<u64>(), 1);
        for re in &ext {
            assert_eq!(re.alternatives.len(), n - 1, "{layout:?}");
            for alt in &re.alternatives {
                assert!(
                    alt.sector >= rewrite,
                    "{layout:?}: a copy at {}",
                    alt.sector
                );
            }
        }
    }
}
