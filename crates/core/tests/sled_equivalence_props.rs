//! Extent-based `fsleds_get` vs per-page reference construction.
//!
//! The extent-consuming `FSLEDS_GET` must produce byte-identical SLED
//! vectors to the original per-page construction: walk every page via the
//! retained reference walk, assign each its table entry, coalesce equal
//! neighbours, clip the tail to the file size. This file re-implements
//! that construction (it is the seed's `fsleds_get` body, verbatim in
//! spirit) and drives both against randomized cache states, ragged tails,
//! zone tables, and HSM boundaries. Every case also pushes the same table
//! down through the ring: the kernel's `FsledsGet` SLEDs must be
//! bit-identical to `fsleds_get`'s, zone rows and device self-reports
//! included.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

#![expect(
    clippy::float_cmp,
    reason = "the reference coalesces on bit-equal table entries, as the seed did"
)]

use sleds::{fsleds_get, Sled, SledsEntry, SledsTable};
use sleds_devices::{DiskDevice, TapeDevice};
use sleds_fs::{
    Fd, Kernel, MachineConfig, OpenFlags, PageLocation, SubmissionRing, Syscall, SyscallRet, Whence,
};
use sleds_sim_core::{check, ByteSize, DetRng, PAGE_SIZE};

/// The seed's per-page SLED construction, kept as the oracle: one table
/// lookup per page of the reference walk, coalescing equal neighbours.
fn fsleds_get_reference(kernel: &mut Kernel, fd: Fd, table: &SledsTable) -> Vec<Sled> {
    let mem = table.memory().expect("table filled");
    let size = kernel.fstat(fd).unwrap().size;
    let locations = kernel.page_locations_per_page_reference(fd).unwrap();
    let mut out: Vec<Sled> = Vec::new();
    for (i, loc) in locations.iter().enumerate() {
        let entry = match loc {
            PageLocation::Memory => mem,
            PageLocation::Device { dev, sector } => {
                let probed = if table.trust_device_reports() {
                    kernel
                        .device_probe(*dev, *sector)
                        .map(|(latency, bandwidth)| SledsEntry { latency, bandwidth })
                } else {
                    None
                };
                probed
                    .or_else(|| table.entry_at(*dev, *sector))
                    .expect("table row present")
            }
        };
        let offset = i as u64 * PAGE_SIZE;
        let length = PAGE_SIZE.min(size - offset);
        match out.last_mut() {
            Some(last) if last.latency == entry.latency && last.bandwidth == entry.bandwidth => {
                last.length += length;
            }
            _ => out.push(Sled {
                offset,
                length,
                latency: entry.latency,
                bandwidth: entry.bandwidth,
            }),
        }
    }
    out
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

fn assert_sleds_agree(k: &mut Kernel, fd: Fd, t: &SledsTable, ctx: &str) {
    let oracle = fsleds_get_reference(k, fd, t);
    let fast = fsleds_get(k, fd, t).unwrap();
    assert_eq!(fast, oracle, "{ctx}: SLED vectors differ");

    // Pushed down: the kernel prices from a copy of the same table.
    let mut ring = SubmissionRing::new(1);
    let get = Syscall::FsledsGet {
        fd,
        pricing: t.clone(),
    };
    ring.push(0, get).unwrap();
    k.ring_enter(&mut ring).unwrap();
    let pushed = k.ring_reap(&mut ring).remove(0);
    let Ok(SyscallRet::Sleds(pushed)) = pushed.result else {
        panic!("{ctx}: FsledsGet completed with {pushed:?}");
    };
    assert_eq!(bits(&pushed), bits(&fast), "{ctx}: pushed SLEDs differ");
}

/// Random disk states, optionally with zone rows splitting the device.
fn disk_scenario(rng: &mut DetRng) {
    let mut cfg = MachineConfig::table2();
    cfg.ram = ByteSize::mib(rng.range_u64(1, 4));
    let mut k = Kernel::new(cfg);
    k.mkdir("/d").unwrap();
    let m = k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    let dev = k.device_of_mount(m).unwrap();
    if rng.chance(0.7) {
        k.set_fragmentation(m, rng.range_u64(1, 8), rng.range_u64(0, 64), rng.seed());
    }
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t.fill_device(dev, SledsEntry::new(0.018, 9e6));
    if rng.chance(0.5) {
        // Zone rows at random sector boundaries (not page-aligned on
        // purpose: splits must still land on page edges in the output).
        let mut rows = Vec::new();
        let mut s = 0;
        for _ in 0..rng.range_usize(1, 5) {
            rows.push((s, SledsEntry::new(0.018, rng.range_u64(4, 12) as f64 * 1e6)));
            s += rng.range_u64(1, 2_000);
        }
        t.fill_device_zones(dev, rows);
    }

    let pages = rng.range_u64(1, 96);
    let tail = rng.range_u64(1, PAGE_SIZE + 1);
    let size = ((pages - 1) * PAGE_SIZE + tail) as usize;
    k.install_file("/d/f", &vec![5u8; size]).unwrap();
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    assert_sleds_agree(&mut k, fd, &t, "cold");

    for round in 0..rng.range_usize(1, 6) {
        let start = rng.range_u64(0, pages);
        let count = rng.range_u64(1, pages - start + 1);
        k.lseek(fd, (start * PAGE_SIZE) as i64, Whence::Set)
            .unwrap();
        k.read(fd, (count * PAGE_SIZE) as usize).unwrap();
        assert_sleds_agree(&mut k, fd, &t, &format!("round {round}"));
    }
}

/// NFS with dynamic self-reports: the per-page probing path.
fn nfs_scenario(rng: &mut DetRng) {
    let mut k = Kernel::table2();
    k.mkdir("/lan").unwrap();
    let srv = sleds_devices::NfsServerDevice::lan_mount("lan0");
    let m = k.mount_device("/lan", Box::new(srv), false).unwrap();
    let dev = k.device_of_mount(m).unwrap();
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t.fill_device(dev, SledsEntry::new(0.02, 5e6));
    t.set_trust_device_reports(rng.chance(0.7));

    let pages = rng.range_u64(1, 48);
    let size = ((pages - 1) * PAGE_SIZE + rng.range_u64(1, PAGE_SIZE + 1)) as usize;
    k.install_file("/lan/f", &vec![2u8; size]).unwrap();
    let fd = k.open("/lan/f", OpenFlags::RDONLY).unwrap();

    for round in 0..rng.range_usize(1, 5) {
        let start = rng.range_u64(0, pages);
        let count = rng.range_u64(1, pages - start + 1);
        k.lseek(fd, (start * PAGE_SIZE) as i64, Whence::Set)
            .unwrap();
        k.read(fd, (count * PAGE_SIZE) as usize).unwrap();
        if rng.chance(0.4) {
            k.drop_caches().unwrap();
        }
        assert_sleds_agree(&mut k, fd, &t, &format!("nfs round {round}"));
    }
}

/// HSM: offline, partially staged, and fully staged files.
fn hsm_scenario(rng: &mut DetRng) {
    let mut k = Kernel::table2();
    k.mkdir("/hsm").unwrap();
    let mount = k
        .mount_hsm(
            "/hsm",
            Box::new(DiskDevice::table2_disk("hda")),
            Box::new(TapeDevice::dlt("st0")),
            rng.range_u64(1, 32),
        )
        .unwrap();
    let disk = k.device_of_mount(mount).unwrap();
    let tape = k.tape_of_mount(mount).unwrap();
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t.fill_device(disk, SledsEntry::new(0.018, 9e6));
    t.fill_device(tape, SledsEntry::new(65.0, 1.5e6));

    let pages = rng.range_u64(1, 48);
    let size = ((pages - 1) * PAGE_SIZE + rng.range_u64(1, PAGE_SIZE + 1)) as usize;
    k.install_file("/hsm/f", &vec![4u8; size]).unwrap();
    k.hsm_migrate("/hsm/f", rng.chance(0.5)).unwrap();
    let fd = k.open("/hsm/f", OpenFlags::RDONLY).unwrap();
    assert_sleds_agree(&mut k, fd, &t, "offline");

    for round in 0..rng.range_usize(1, 4) {
        let start = rng.range_u64(0, pages);
        let count = rng.range_u64(1, pages - start + 1);
        k.lseek(fd, (start * PAGE_SIZE) as i64, Whence::Set)
            .unwrap();
        k.read(fd, (count * PAGE_SIZE) as usize).unwrap();
        assert_sleds_agree(&mut k, fd, &t, &format!("hsm round {round}"));
    }
}

#[test]
fn fsleds_get_matches_per_page_reference_on_disk() {
    check::run("fsleds_vs_reference_disk", disk_scenario);
}

#[test]
fn fsleds_get_matches_per_page_reference_on_nfs_reports() {
    check::run("fsleds_vs_reference_nfs", nfs_scenario);
}

#[test]
fn fsleds_get_matches_per_page_reference_across_hsm() {
    check::run("fsleds_vs_reference_hsm", hsm_scenario);
}
