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
//! bit-identical to `fsleds_get`'s, zone rows included. A last property
//! holds `Kernel::sled_generation` to its promise: under one table, a
//! stamp names exactly one vector.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

#![expect(
    clippy::float_cmp,
    reason = "the reference coalesces on bit-equal table entries, as the seed did"
)]

use std::collections::BTreeMap;

use sleds::{fsleds_get, Sled, SledsEntry, SledsTable};
use sleds_devices::{BlockDevice, CdRomDevice, DiskDevice, FaultPlan, NfsDevice, TapeDevice};
use sleds_fs::{
    DeviceId, Fd, Kernel, MachineConfig, OpenFlags, PageLocation, SubmissionRing, Syscall,
    SyscallRet, VolumeLayout, Whence,
};
use sleds_sim_core::{check, ByteSize, DetRng, SimDuration, SimTime, PAGE_SIZE};

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
                table.entry_at(*dev, *sector).expect("table row present")
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
fn fsleds_get_matches_per_page_reference_across_hsm() {
    check::run("fsleds_vs_reference_hsm", hsm_scenario);
}

/// Every device the stamp scenario mounts, by name, for its fault plan.
const STAMP_DEVICES: [&str; 8] = [
    "hda",
    "cd0",
    "srv:/export",
    "hsm0",
    "st0",
    "vd0",
    "vd1",
    "vd2",
];

/// A random plan of one to four windows of any kind on any of the stamp
/// scenario's devices, all starting within `horizon` of `now`.
fn stamp_fault_plan(rng: &mut DetRng, now: SimTime, horizon: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for _ in 0..rng.range_usize(1, 5) {
        let name = STAMP_DEVICES[rng.range_usize(0, STAMP_DEVICES.len())];
        let start = now + SimDuration::from_nanos(rng.range_u64(0, horizon));
        let end = start + SimDuration::from_nanos(rng.range_u64(horizon / 32 + 1, horizon / 4 + 2));
        let cost = SimDuration::from_micros(rng.range_u64(1, 5_000));
        plan = match rng.range_u64(0, 3) {
            0 => plan.transient(name, start, end, rng.range_u64(1, 4) as u32, cost),
            1 => plan.degraded(name, start, end, 1.0 + rng.unit_f64() * 4.0),
            _ => plan.offline(name, start, end, cost),
        };
    }
    plan
}

/// The stamp is complete: every input `FSLEDS_GET` prices from moves
/// `sled_generation`. A disk, a CD-ROM, an NFS link, an HSM disk over tape
/// and a mirror or (2,3) code, under a random fault plan, take random
/// reads, writes and HSM migrations of two files each; between them, a
/// random file's vector is taken between two stamps. The clock moves
/// across the three calls and may cross a window boundary, so a vector
/// counts only when both stamps agree; every such vector under one stamp
/// of one file must be bit-identical.
fn stamp_scenario(rng: &mut DetRng) {
    let mut cfg = MachineConfig::table2();
    cfg.ram = ByteSize::mib(rng.range_u64(1, 4));
    let mut k = Kernel::new(cfg);
    for dir in ["/d", "/cd", "/nfs", "/hsm", "/vol"] {
        k.mkdir(dir).unwrap();
    }
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    k.mount_cdrom("/cd", CdRomDevice::table2_drive("cd0"))
        .unwrap();
    k.mount_nfs("/nfs", NfsDevice::table2_mount("srv:/export"))
        .unwrap();
    k.mount_hsm(
        "/hsm",
        Box::new(DiskDevice::table2_disk("hsm0")),
        Box::new(TapeDevice::dlt("st0")),
        rng.range_u64(1, 32),
    )
    .unwrap();
    let (layout, n) = if rng.chance(0.5) {
        (VolumeLayout::Mirrored, 2)
    } else {
        (VolumeLayout::Coded { k: 2 }, 3)
    };
    let members = (0..n)
        .map(|i| Box::new(DiskDevice::table2_disk(format!("vd{i}"))) as Box<dyn BlockDevice>)
        .collect();
    k.mount_volume("/vol", layout, members).unwrap();

    // Distinct rows per device, so which device or copy priced a page
    // shows in the vector; sometimes zone rows on the plain disk (device 0,
    // mounted first).
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    for d in 0..k.device_count() {
        let by = (d + 1) as f64;
        t.fill_device(DeviceId(d), SledsEntry::new(0.01 * by, 9e6 / by));
    }
    if rng.chance(0.5) {
        let at = rng.range_u64(1, 2_000);
        t.fill_device_zones(
            DeviceId(0),
            vec![
                (0, SledsEntry::new(0.01, 11e6)),
                (at, SledsEntry::new(0.01, 7e6)),
            ],
        );
    }

    let mut files = Vec::new();
    for dir in ["/d", "/cd", "/nfs", "/hsm", "/vol"] {
        for name in ["f", "g"] {
            let path = format!("{dir}/{name}");
            let pages = rng.range_u64(1, 48);
            let size = ((pages - 1) * PAGE_SIZE + rng.range_u64(1, PAGE_SIZE + 1)) as usize;
            k.install_file(&path, &vec![3u8; size]).unwrap();
            if dir == "/hsm" && rng.chance(0.5) {
                k.hsm_migrate(&path, rng.chance(0.5)).unwrap();
            }
            let flags = if dir == "/cd" {
                OpenFlags::RDONLY
            } else {
                OpenFlags::RDWR
            };
            let fd = k.open(&path, flags).unwrap();
            files.push((path, fd, pages));
        }
    }
    let horizon = [1_000_000_000, 60_000_000_000, 600_000_000_000][rng.range_usize(0, 3)];
    let plan = stamp_fault_plan(rng, k.now(), horizon);
    k.apply_fault_plan(&plan);

    // Each step acts on one file, then takes a stable triple of it or of
    // another file. Reads, writes and migrations may fail under the plan
    // (writes do on the read-only CD-ROM files, migrations off the HSM
    // mount); only what they leave behind matters. A migration of a file
    // with nothing cached moves its layout alone.
    let mut seen = BTreeMap::new();
    for step in 0..rng.range_usize(8, 40) {
        let i = rng.range_usize(0, files.len());
        let (ref path, fd, pages) = files[i];
        let at = (rng.range_u64(0, pages + 1) * PAGE_SIZE) as i64;
        let len = (rng.range_u64(1, 9) * PAGE_SIZE) as usize;
        match rng.range_u64(0, 4) {
            0 => {
                k.lseek(fd, at, Whence::Set).unwrap();
                let _ = k.read(fd, len);
            }
            1 => {
                k.lseek(fd, at, Whence::Set).unwrap();
                let _ = k.write(fd, &vec![7u8; len]);
            }
            2 => {
                let _ = k.hsm_migrate(path, rng.chance(0.5));
            }
            _ => {}
        }

        let j = if rng.chance(0.5) {
            i
        } else {
            rng.range_usize(0, files.len())
        };
        let fd = files[j].1;
        let before = k.sled_generation(fd).unwrap();
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        if k.sled_generation(fd).unwrap() != before {
            continue;
        }
        let got = bits(&sleds);
        let want = seen.entry((j, before)).or_insert_with(|| got.clone());
        assert_eq!(
            *want, got,
            "step {step}: file {j} priced two vectors under stamp {before}"
        );
    }
}

#[test]
fn sled_generation_names_one_vector_per_stamp() {
    check::run("sled_generation_names_one_vector_per_stamp", stamp_scenario);
}
