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
