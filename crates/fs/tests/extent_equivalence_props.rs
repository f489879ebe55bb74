//! Extent walk vs per-page reference walk: equivalence properties.
//!
//! The extent-based residency walk behind `FSLEDS_GET`
//! ([`Kernel::redundant_extents`]) must report byte-identical placement to
//! the retained per-page reference walk
//! ([`Kernel::page_locations_per_page_reference`]) on *every* reachable
//! cache state — the walks differ only in cost, never in answer. These
//! properties drive a kernel through randomized layouts (fragmented
//! allocation, ragged tails), cache states (random reads, cache pressure,
//! pins), and HSM staging boundaries, and check the two walks page by page,
//! plus the structural invariants of the extent form itself.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

use sleds_devices::{DiskDevice, TapeDevice};
use sleds_fs::{Fd, Kernel, MachineConfig, OpenFlags, PageExtent, PageLocation, Whence};
use sleds_sim_core::{check, ByteSize, DetRng, PAGE_SIZE};

/// The extents `FSLEDS_GET` walks for `fd`. Every file here is
/// unreplicated, so none carries an alternative.
fn extents(k: &mut Kernel, fd: Fd) -> Vec<PageExtent> {
    let walk = k.redundant_extents(fd).unwrap();
    assert!(walk.iter().all(|r| r.alternatives.is_empty()));
    walk.into_iter().map(|r| r.extent).collect()
}

/// Asserts the extent walk and the per-page reference walk agree exactly,
/// and that the extent form is well-formed (tiling, coalesced, faithful
/// expansion).
fn assert_walks_agree(k: &mut Kernel, fd: Fd, ctx: &str) {
    let reference = k.page_locations_per_page_reference(fd).unwrap();
    let extents = extents(k, fd);
    let mut next = 0;
    for (i, e) in extents.iter().enumerate() {
        assert_eq!(e.first_page, next, "{ctx}: extent {i} leaves a gap");
        assert!(e.pages > 0, "{ctx}: extent {i} is empty");
        // Memory extents must be maximally coalesced; device extents may
        // split at layout-run boundaries (the expansion check below
        // validates their content regardless).
        if i > 0 {
            let same_kind = matches!(
                (&extents[i - 1].location, &e.location),
                (PageLocation::Memory, PageLocation::Memory)
            );
            assert!(!same_kind, "{ctx}: adjacent memory extents not merged");
        }
        next = e.end_page();
    }
    assert_eq!(
        next,
        reference.len() as u64,
        "{ctx}: extents do not tile the file"
    );

    // The expansion of the extents is exactly the per-page vector, page by
    // page.
    let mut expanded = Vec::with_capacity(reference.len());
    for e in &extents {
        match e.location {
            PageLocation::Memory => {
                expanded.extend((0..e.pages).map(|_| PageLocation::Memory));
            }
            PageLocation::Device { dev, sector } => {
                expanded.extend((0..e.pages).map(|i| PageLocation::Device {
                    dev,
                    sector: sector + i * sleds_fs::SECTORS_PER_PAGE,
                }));
            }
        }
    }
    for (p, (a, b)) in expanded.iter().zip(&reference).enumerate() {
        assert_eq!(a, b, "{ctx}: page {p} placement differs");
    }
    assert_eq!(
        expanded.len(),
        reference.len(),
        "{ctx}: walk lengths differ"
    );
}

/// One randomized disk scenario: fragmented layout, ragged tail, random
/// warm/evict traffic.
fn disk_scenario(rng: &mut DetRng) {
    let mut cfg = MachineConfig::table2();
    // Small cache so random traffic actually evicts.
    cfg.ram = ByteSize::mib(rng.range_u64(1, 4));
    let mut k = Kernel::new(cfg);
    k.mkdir("/d").unwrap();
    let m = k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    if rng.chance(0.7) {
        let chunk = rng.range_u64(1, 8);
        let gap = rng.range_u64(0, 64);
        k.set_fragmentation(m, chunk, gap, rng.range_u64(0, 1 << 32));
    }

    // A file with a ragged tail most of the time.
    let pages = rng.range_u64(1, 96);
    let tail = if rng.chance(0.8) {
        rng.range_u64(1, PAGE_SIZE)
    } else {
        PAGE_SIZE
    };
    let size = ((pages - 1) * PAGE_SIZE + tail) as usize;
    k.install_file("/d/f", &vec![7u8; size]).unwrap();
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    assert_walks_agree(&mut k, fd, "cold disk file");

    // Random traffic: warm (or re-read) ranges, flood.
    for round in 0..rng.range_usize(1, 8) {
        let start = rng.range_u64(0, pages);
        let count = rng.range_u64(1, pages - start + 1);
        if rng.chance(0.5) {
            k.lseek(fd, (start * PAGE_SIZE) as i64, Whence::Set)
                .unwrap();
            k.read(fd, (count * PAGE_SIZE) as usize).unwrap();
        } else {
            // Flood with a competing file to force evictions.
            let noise = vec![3u8; 64 * PAGE_SIZE as usize];
            k.install_file("/d/noise", &noise).unwrap();
            let nfd = k.open("/d/noise", OpenFlags::RDONLY).unwrap();
            while !k.read(nfd, 16 << 10).unwrap().is_empty() {}
            k.close(nfd).unwrap();
            k.unlink("/d/noise").unwrap();
        }
        assert_walks_agree(&mut k, fd, &format!("disk round {round}"));
    }
}

/// One randomized HSM scenario: migrate to tape, stage back in chunks, and
/// check the walks agree across the offline/staged boundary.
fn hsm_scenario(rng: &mut DetRng) {
    let mut k = Kernel::table2();
    k.mkdir("/hsm").unwrap();
    let chunk = rng.range_u64(1, 32);
    k.mount_hsm(
        "/hsm",
        Box::new(DiskDevice::table2_disk("hda")),
        Box::new(TapeDevice::dlt("st0")),
        chunk,
    )
    .unwrap();
    let pages = rng.range_u64(1, 48);
    let tail = rng.range_u64(1, PAGE_SIZE);
    let size = ((pages - 1) * PAGE_SIZE + tail) as usize;
    k.install_file("/hsm/f", &vec![9u8; size]).unwrap();
    k.hsm_migrate("/hsm/f", rng.chance(0.5)).unwrap();

    let fd = k.open("/hsm/f", OpenFlags::RDONLY).unwrap();
    assert_walks_agree(&mut k, fd, "offline file");

    // Stage back a few random windows; each read crosses staged/offline
    // boundaries mid-file.
    for round in 0..rng.range_usize(1, 5) {
        let start = rng.range_u64(0, pages);
        let count = rng.range_u64(1, pages - start + 1);
        k.lseek(fd, (start * PAGE_SIZE) as i64, Whence::Set)
            .unwrap();
        k.read(fd, (count * PAGE_SIZE) as usize).unwrap();
        assert_walks_agree(&mut k, fd, &format!("hsm round {round}"));
        if rng.chance(0.3) {
            k.drop_caches().unwrap();
            assert_walks_agree(&mut k, fd, &format!("hsm round {round} dropped"));
        }
    }
}

/// Growth via `write`: appends extend the mapping run by run; the walks
/// must agree after every growth step, including sub-page tail growth.
fn growth_scenario(rng: &mut DetRng) {
    let mut k = Kernel::table2();
    k.mkdir("/d").unwrap();
    let m = k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    if rng.chance(0.5) {
        k.set_fragmentation(m, rng.range_u64(1, 4), rng.range_u64(0, 16), rng.seed());
    }
    k.install_file("/d/g", b"").unwrap();
    let fd = k.open("/d/g", OpenFlags::RDWR).unwrap();
    for round in 0..rng.range_usize(1, 10) {
        let n = rng.range_usize(1, 3 * PAGE_SIZE as usize);
        k.lseek(fd, 0, Whence::End).unwrap();
        k.write(fd, &vec![round as u8; n]).unwrap();
        assert_walks_agree(&mut k, fd, &format!("growth round {round}"));
    }
}

#[test]
fn extent_walk_matches_reference_on_random_disk_states() {
    check::run("extent_vs_reference_disk", disk_scenario);
}

#[test]
fn extent_walk_matches_reference_across_hsm_staging() {
    check::run("extent_vs_reference_hsm", hsm_scenario);
}

#[test]
fn extent_walk_matches_reference_under_growth() {
    check::run("extent_vs_reference_growth", growth_scenario);
}

/// The two walks differ only in cost, and this is the cost: one 250 ns
/// probe per extent plus a 1 ns per-page floor, against 250 ns per page.
#[test]
fn extent_walk_is_priced_per_extent_and_ten_times_cheaper() {
    const PAGES: u64 = 4096;
    const RUNS: u64 = 8;
    let mut k = Kernel::table2();
    k.mkdir("/d").unwrap();
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    k.install_sparse_file("/d/f", PAGES * PAGE_SIZE).unwrap();
    // Eight resident runs, each followed by a cold gap of the same length.
    let stride = PAGES / RUNS;
    for i in 0..RUNS {
        k.warm_file_pages("/d/f", i * stride, stride / 2).unwrap();
    }
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    assert_walks_agree(&mut k, fd, "8 warmed runs");

    let crossing = k.config().syscall_cpu.as_nanos();
    let before = k.usage().cpu;
    let walk = extents(&mut k, fd);
    let fast = (k.usage().cpu - before).as_nanos();
    let resident = walk.iter().filter(|e| e.location == PageLocation::Memory);
    assert_eq!(resident.count() as u64, RUNS);
    let extents = walk.len() as u64;
    assert_eq!(extents, 2 * RUNS, "a memory and a device extent per run");
    assert_eq!(fast, crossing + 250 * extents + PAGES);

    let before = k.usage().cpu;
    k.page_locations_per_page_reference(fd).unwrap();
    let reference = (k.usage().cpu - before).as_nanos();
    assert_eq!(reference, crossing + 250 * PAGES);

    assert!(
        reference >= 10 * fast,
        "extent walk {fast} ns, per-page walk {reference} ns"
    );
}

#[test]
fn sled_generation_is_a_valid_version_stamp() {
    // Deterministic: any residency, layout, or size change moves the stamp.
    let mut k = Kernel::table2();
    k.mkdir("/d").unwrap();
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    k.install_file("/d/f", &vec![1u8; 8 * PAGE_SIZE as usize])
        .unwrap();
    let fd = k.open("/d/f", OpenFlags::RDWR).unwrap();

    let g0 = k.sled_generation(fd).unwrap();
    assert_eq!(
        g0,
        k.sled_generation(fd).unwrap(),
        "stamp is stable at rest"
    );

    k.read(fd, PAGE_SIZE as usize).unwrap();
    let g1 = k.sled_generation(fd).unwrap();
    assert_ne!(g0, g1, "residency change must move the stamp");

    k.lseek(fd, 0, Whence::End).unwrap();
    k.write(fd, b"tail growth").unwrap();
    let g2 = k.sled_generation(fd).unwrap();
    assert_ne!(g1, g2, "size change must move the stamp");

    k.drop_caches().unwrap();
    let g3 = k.sled_generation(fd).unwrap();
    assert_ne!(g2, g3, "eviction must move the stamp");
}
