//! Pushdown sees what the sequential path sees.
//!
//! The ring ops and pick programs build SLEDs below the syscall boundary
//! from the table that crossed with them; the library builds them above it
//! from its own. Both run `sleds_fs::sled::fold`, and these cases pin the
//! places the two once disagreed: a mirror whose primary is offline, a
//! (k, n)-coded volume, and a table with zone rows, which pushdown once
//! refused.

#![expect(
    clippy::float_cmp,
    reason = "parity means bit-identical estimates on both sides"
)]

use sleds::{fsleds_get, PickConfig, PickSession, Sled, SledsEntry, SledsTable};
use sleds_devices::{BlockDevice, DiskDevice, FaultPlan};
use sleds_fs::machine::RING_OP_CPU;
use sleds_fs::{
    DeviceId, Fd, Kernel, OpenFlags, PageLocation, SubmissionRing, Syscall, SyscallRet,
    VolumeLayout, SECTORS_PER_PAGE,
};
use sleds_sim_core::{SimDuration, SimResult, SimTime, PAGE_SIZE};

const PAGES: u64 = 4;

fn table_for(devs: &[DeviceId]) -> SledsTable {
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    // Distinct prices per member so selection is observable: member i
    // costs (i+1) * 10 ms at (10 - i) MB/s.
    for (i, &d) in devs.iter().enumerate() {
        t.fill_device(
            d,
            SledsEntry::new(0.010 * (i + 1) as f64, (10 - i) as f64 * 1e6),
        );
    }
    t
}

/// A cold 4-page file on an `n`-member volume.
fn volume(layout: VolumeLayout, n: usize) -> (Kernel, SledsTable, Fd) {
    let mut k = Kernel::table2();
    k.mkdir("/vol").unwrap();
    let members: Vec<Box<dyn BlockDevice>> = (0..n)
        .map(|i| Box::new(DiskDevice::table2_disk(format!("vd{i}"))) as Box<dyn BlockDevice>)
        .collect();
    let m = k.mount_volume("/vol", layout, members).unwrap();
    let t = table_for(&k.volume_members(m));
    k.install_file("/vol/f", &vec![0u8; (PAGES * PAGE_SIZE) as usize])
        .unwrap();
    let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
    (k, t, fd)
}

fn offline(k: &mut Kernel, dev: &str) {
    k.apply_fault_plan(&FaultPlan::new().offline(
        dev,
        SimTime::ZERO,
        SimTime::from_nanos(u64::MAX),
        SimDuration::from_millis(1),
    ));
}

/// One ring op, one completion.
fn ring_call(k: &mut Kernel, call: Syscall) -> SimResult<SyscallRet> {
    let mut ring = SubmissionRing::new(1);
    ring.push(0, call)?;
    k.ring_enter(&mut ring)?;
    k.ring_reap(&mut ring).remove(0).result
}

fn pushed_sleds(k: &mut Kernel, t: &SledsTable, fd: Fd) -> Vec<Sled> {
    let call = Syscall::FsledsGet {
        fd,
        pricing: t.clone(),
    };
    match ring_call(k, call).unwrap() {
        SyscallRet::Sleds(s) => s,
        other => panic!("FsledsGet completed with {other:?}"),
    }
}

fn bits(sleds: &[Sled]) -> Vec<(u64, u64, u64, u64)> {
    sleds
        .iter()
        .map(|s| {
            (
                s.offset,
                s.length,
                s.latency.to_bits(),
                s.bandwidth.to_bits(),
            )
        })
        .collect()
}

/// Chunks a skipping one-page pick plan keeps.
fn skipping_plan_len(k: &mut Kernel, t: &SledsTable, fd: Fd) -> usize {
    let cfg = PickConfig::bytes(PAGE_SIZE as usize).skip_unavailable();
    PickSession::init(k, t, fd, cfg).unwrap().planned_chunks()
}

/// The session of `init`, the library's SLEDs and the SLEDs of the
/// `FsledsGet` ring op must all agree; returns the SLEDs.
fn assert_parity(k: &mut Kernel, t: &SledsTable, fd: Fd) -> Vec<Sled> {
    let cfg = PickConfig::bytes(PAGE_SIZE as usize).skip_unavailable();
    let seq = PickSession::init(k, t, fd, cfg).unwrap();
    let lib = fsleds_get(k, fd, t).unwrap();
    assert_eq!(bits(seq.sleds()), bits(&lib));
    assert_eq!(bits(&lib), bits(&pushed_sleds(k, t, fd)));
    lib
}

#[test]
fn mirror_with_offline_primary_prices_the_surviving_copy_on_both_sides() {
    let (mut k, t, fd) = volume(VolumeLayout::Mirrored, 2);
    offline(&mut k, "vd0");
    let sleds = assert_parity(&mut k, &t, fd);
    assert_eq!(sleds.len(), 1);
    assert_eq!(sleds[0].latency, 0.020, "the mirror, not the dead primary");
    assert_eq!(sleds[0].bandwidth, 9e6);
    // `pread` serves this file, so a skipping plan must keep all of it.
    assert_eq!(skipping_plan_len(&mut k, &t, fd), PAGES as usize);
    assert_eq!(
        k.pread(fd, 0, PAGE_SIZE as usize).unwrap().len(),
        PAGE_SIZE as usize
    );
}

#[test]
fn coded_volume_prices_the_kth_cheapest_fragment_on_both_sides() {
    let (mut k, t, fd) = volume(VolumeLayout::Coded { k: 2 }, 3);
    let sleds = assert_parity(&mut k, &t, fd);
    assert_eq!(sleds.len(), 1);
    assert_eq!(sleds[0].latency, 0.020, "the straggler of the two cheapest");
    assert_eq!(sleds[0].bandwidth, 9e6);
    // One member down leaves exactly k: still served, now by members 1, 2.
    offline(&mut k, "vd0");
    let sleds = assert_parity(&mut k, &t, fd);
    assert_eq!(sleds[0].latency, 0.030);
    // Two down: unavailable on both sides, and a skipping plan is empty.
    offline(&mut k, "vd1");
    let sleds = assert_parity(&mut k, &t, fd);
    assert!(sleds[0].unavailable());
    assert_eq!(skipping_plan_len(&mut k, &t, fd), 0);
}

#[test]
fn pushdown_charges_the_alternative_probes_the_sequential_walk_charges() {
    // Sequential: two traps + page_walk(extents + probes). Ring: one enter,
    // one ring op, the same page walk.
    let (mut k, t, fd) = volume(VolumeLayout::Coded { k: 2 }, 3);
    let before = k.usage();
    fsleds_get(&mut k, fd, &t).unwrap();
    let seq = k.usage().since(&before);
    let before = k.usage();
    pushed_sleds(&mut k, &t, fd);
    let ring = k.usage().since(&before);
    let cfg = k.config();
    let walk = cfg.page_walk_cost(1 + 2, PAGES);
    assert_eq!(seq.cpu, cfg.syscall_cpu + cfg.syscall_cpu + walk);
    assert_eq!(ring.cpu, cfg.syscall_cpu + RING_OP_CPU + walk);
}

/// A cold 8-page file on a plain disk, with a zone boundary three pages in.
fn zoned_disk() -> (Kernel, SledsTable, Fd) {
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    let m = k
        .mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    let dev = k.device_of_mount(m).unwrap();
    let mut t = table_for(&[dev]);
    k.install_file("/data/f", &vec![0u8; 8 * PAGE_SIZE as usize])
        .unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    let PageLocation::Device { sector, .. } = k.redundant_extents(fd).unwrap()[0].extent.location
    else {
        panic!("cold file must be on the device");
    };
    t.fill_device_zones(
        dev,
        vec![
            (0, SledsEntry::new(0.010, 11e6)),
            (sector + 3 * SECTORS_PER_PAGE, SledsEntry::new(0.010, 7e6)),
        ],
    );
    (k, t, fd)
}

#[test]
fn zoned_tables_push_down_at_parity() {
    let (mut k, t, fd) = zoned_disk();
    let sleds = assert_parity(&mut k, &t, fd);
    assert_eq!(sleds.len(), 2, "one extent, two zones, two SLEDs");
    assert_eq!(sleds[0].bandwidth, 11e6);
    assert_eq!(sleds[1].bandwidth, 7e6);
}
