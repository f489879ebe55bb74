//! `FSLEDS_GET`: building the SLED vector for an open file.
//!
//! The sequential, above-the-boundary form: ask the kernel for the file's
//! size and residency extents, then price them from the sleds table. The
//! construction itself — level assignment, coalescing, zone splits,
//! replica selection — is [`sleds_fs::sled`], and so is the table: the ring
//! ops and pick programs price from a copy of it.

use sleds_fs::{sled, Fd, Kernel};
use sleds_sim_core::SimResult;

use crate::table::SledsTable;
use crate::Sled;

/// Retrieves the SLED vector for an open file.
///
/// Returns one SLED per run of pages sharing `(latency, bandwidth)`. The
/// last SLED is clipped to the file size, so the vector covers the file's
/// bytes exactly. An empty file yields an empty vector.
///
/// Extents on a redundant volume carry every replica place that could
/// serve them; such an extent is priced at the min-cost *available*
/// candidate — degraded members priced up by their multiplier, offline
/// members excluded (the kernel reroutes around them), and for a (k, n)
/// coded layout the k-th cheapest fragment (see
/// [`select_min_cost`](crate::select_min_cost)). Only when no
/// candidate can serve at all is the extent priced unavailable.
///
/// Two crossings — `fstat` for the size, `FSLEDS_GET` for the extents —
/// then [`sled::fold`], the same construction over the same table that
/// the ring ops and pick programs run below the boundary.
///
/// # Errors
///
/// Fails with `EINVAL` if the table has no memory row (the boot-time fill
/// never ran) or no row for a device the file touches, and propagates any
/// kernel error from the page walk.
pub fn fsleds_get(kernel: &mut Kernel, fd: Fd, table: &SledsTable) -> SimResult<Vec<Sled>> {
    // An unfilled table is refused before anything is charged.
    sled::memory_row(table)?;
    let size = kernel.fstat(fd)?.size;
    let extents = kernel.redundant_extents(fd)?;
    sled::fold(kernel, table, size, &extents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_devices::DiskDevice;
    use sleds_fs::{OpenFlags, Whence};
    use sleds_sim_core::{Errno, PAGE_SIZE};

    fn setup() -> (Kernel, SledsTable) {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let dev = k.device_of_mount(m).unwrap();
        let mut t = SledsTable::new();
        t.fill_memory(crate::SledsEntry::new(175e-9, 48e6));
        t.fill_device(dev, crate::SledsEntry::new(0.018, 9e6));
        (k, t)
    }

    #[test]
    fn cold_file_is_one_disk_sled() {
        let (mut k, t) = setup();
        let data = vec![0u8; 10 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(sleds.len(), 1);
        assert_eq!(sleds[0].offset, 0);
        assert_eq!(sleds[0].length, data.len() as u64);
        assert_eq!(sleds[0].latency, 0.018);
    }

    #[test]
    fn partially_cached_file_splits_into_sleds() {
        let (mut k, t) = setup();
        let data = vec![0u8; 10 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        // Cache pages 4..8.
        k.lseek(fd, 4 * PAGE_SIZE as i64, Whence::Set).unwrap();
        k.read(fd, 4 * PAGE_SIZE as usize).unwrap();
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(sleds.len(), 3);
        assert_eq!(sleds[0].latency, 0.018);
        assert_eq!(sleds[0].length, 4 * PAGE_SIZE);
        assert!((sleds[1].latency - 175e-9).abs() < 1e-15);
        assert_eq!(sleds[1].offset, 4 * PAGE_SIZE);
        assert_eq!(sleds[1].length, 4 * PAGE_SIZE);
        assert_eq!(sleds[2].latency, 0.018);
        assert_eq!(sleds[2].end(), data.len() as u64);
    }

    #[test]
    fn sleds_cover_file_exactly_with_ragged_tail() {
        let (mut k, t) = setup();
        let n = 3 * PAGE_SIZE as usize + 123;
        k.install_file("/data/f", &vec![1u8; n]).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        let total: u64 = sleds.iter().map(|s| s.length).sum();
        assert_eq!(total, n as u64);
        // Contiguous, sorted, non-overlapping coverage.
        let mut expect = 0;
        for s in &sleds {
            assert_eq!(s.offset, expect);
            expect = s.end();
        }
    }

    #[test]
    fn empty_file_yields_no_sleds() {
        let (mut k, t) = setup();
        k.install_file("/data/empty", b"").unwrap();
        let fd = k.open("/data/empty", OpenFlags::RDONLY).unwrap();
        assert!(fsleds_get(&mut k, fd, &t).unwrap().is_empty());
    }

    #[test]
    fn unfilled_table_is_einval() {
        let (mut k, _) = setup();
        k.install_file("/data/f", b"x").unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let empty = SledsTable::new();
        assert_eq!(
            fsleds_get(&mut k, fd, &empty).unwrap_err().errno,
            Errno::Einval
        );
    }

    #[test]
    fn missing_device_row_is_einval() {
        let (mut k, _) = setup();
        k.install_file("/data/f", &vec![0u8; PAGE_SIZE as usize])
            .unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let mut t = SledsTable::new();
        t.fill_memory(crate::SledsEntry::new(175e-9, 48e6));
        assert_eq!(fsleds_get(&mut k, fd, &t).unwrap_err().errno, Errno::Einval);
    }

    #[test]
    fn zone_rows_split_a_single_device_extent() {
        use sleds_fs::SECTORS_PER_PAGE;
        let (mut k, mut t) = setup();
        let data = vec![0u8; 8 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        // Find where the file starts on disk and put a zone boundary in
        // the middle of its (single) layout run.
        let one = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(one.len(), 1, "precondition: one cold extent");
        let exts = k.redundant_extents(fd).unwrap();
        let (dev, first_sector) = match exts[0].extent.location {
            sleds_fs::PageLocation::Device { dev, sector } => (dev, sector),
            _ => panic!("cold file must be on the device"),
        };
        let boundary = first_sector + 3 * SECTORS_PER_PAGE;
        t.fill_device_zones(
            dev,
            vec![
                (0, crate::SledsEntry::new(0.018, 11e6)),
                (boundary, crate::SledsEntry::new(0.018, 7e6)),
            ],
        );
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(sleds.len(), 2, "one extent, two zones, two SLEDs");
        assert_eq!(sleds[0].length, 3 * PAGE_SIZE);
        assert_eq!(sleds[0].bandwidth, 11e6);
        assert_eq!(sleds[1].offset, 3 * PAGE_SIZE);
        assert_eq!(sleds[1].length, 5 * PAGE_SIZE);
        assert_eq!(sleds[1].bandwidth, 7e6);
    }

    #[test]
    fn offline_device_prices_extents_unavailable() {
        use sleds_devices::FaultPlan;
        use sleds_sim_core::{SimDuration, SimTime};
        let (mut k, t) = setup();
        let data = vec![0u8; 4 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let plan = FaultPlan::new().offline(
            "hda",
            SimTime::ZERO,
            SimTime::from_nanos(u64::MAX),
            SimDuration::from_millis(1),
        );
        k.apply_fault_plan(&plan);
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(sleds.len(), 1);
        assert!(sleds[0].unavailable());
        assert!(sleds[0].delivery_time().is_infinite());
        // Coverage is still exact: degradation changes prices, not shape.
        assert_eq!(sleds[0].length, data.len() as u64);
    }

    #[test]
    fn degraded_device_inflates_latency_and_deflates_bandwidth() {
        use sleds_devices::FaultPlan;
        use sleds_sim_core::SimTime;
        let (mut k, t) = setup();
        let data = vec![0u8; 4 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let clean = fsleds_get(&mut k, fd, &t).unwrap();
        let plan =
            FaultPlan::new().degraded("hda", SimTime::ZERO, SimTime::from_nanos(u64::MAX), 3.0);
        k.apply_fault_plan(&plan);
        let slow = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(slow.len(), 1);
        assert!(!slow[0].unavailable());
        assert!((slow[0].latency - clean[0].latency * 3.0).abs() < 1e-12);
        assert!((slow[0].bandwidth - clean[0].bandwidth / 3.0).abs() < 1e-6);
    }

    fn volume_setup(
        layout: sleds_fs::VolumeLayout,
        n: usize,
    ) -> (Kernel, SledsTable, Vec<sleds_fs::DeviceId>) {
        let mut k = Kernel::table2();
        k.mkdir("/vol").unwrap();
        let members: Vec<Box<dyn sleds_devices::BlockDevice>> = (0..n)
            .map(|i| {
                Box::new(DiskDevice::table2_disk(format!("vd{i}")))
                    as Box<dyn sleds_devices::BlockDevice>
            })
            .collect();
        let m = k.mount_volume("/vol", layout, members).unwrap();
        let devs = k.volume_members(m);
        let mut t = SledsTable::new();
        t.fill_memory(crate::SledsEntry::new(175e-9, 48e6));
        // Distinct prices per member so selection is observable: member i
        // costs (i+1) * 10ms latency at (10 - i) MB/s.
        for (i, &d) in devs.iter().enumerate() {
            t.fill_device(
                d,
                crate::SledsEntry::new(0.010 * (i + 1) as f64, (10 - i) as f64 * 1e6),
            );
        }
        (k, t, devs)
    }

    #[test]
    fn mirrored_extent_is_priced_at_cheapest_replica() {
        let (mut k, t, _) = volume_setup(sleds_fs::VolumeLayout::Mirrored, 2);
        let data = vec![0u8; 4 * PAGE_SIZE as usize];
        k.install_file("/vol/f", &data).unwrap();
        let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(sleds.len(), 1);
        assert_eq!(sleds[0].latency, 0.010, "primary is the cheapest member");
        assert_eq!(sleds[0].length, data.len() as u64);
    }

    #[test]
    fn mirrored_extent_with_offline_primary_prices_the_mirror() {
        use sleds_devices::FaultPlan;
        use sleds_sim_core::{SimDuration, SimTime};
        let (mut k, t, _) = volume_setup(sleds_fs::VolumeLayout::Mirrored, 2);
        let data = vec![0u8; 4 * PAGE_SIZE as usize];
        k.install_file("/vol/f", &data).unwrap();
        let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
        let plan = FaultPlan::new().offline(
            "vd0",
            SimTime::ZERO,
            SimTime::from_nanos(u64::MAX),
            SimDuration::from_millis(1),
        );
        k.apply_fault_plan(&plan);
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(sleds.len(), 1);
        assert!(
            !sleds[0].unavailable(),
            "a mirrored file with one offline member must stay available"
        );
        assert_eq!(sleds[0].latency, 0.020, "priced at the surviving mirror");
    }

    #[test]
    fn mirrored_extent_with_all_members_offline_is_unavailable() {
        use sleds_devices::FaultPlan;
        use sleds_sim_core::{SimDuration, SimTime};
        let (mut k, t, _) = volume_setup(sleds_fs::VolumeLayout::Mirrored, 2);
        let data = vec![0u8; PAGE_SIZE as usize];
        k.install_file("/vol/f", &data).unwrap();
        let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
        let plan = FaultPlan::new()
            .offline(
                "vd0",
                SimTime::ZERO,
                SimTime::from_nanos(u64::MAX),
                SimDuration::from_millis(1),
            )
            .offline(
                "vd1",
                SimTime::ZERO,
                SimTime::from_nanos(u64::MAX),
                SimDuration::from_millis(1),
            );
        k.apply_fault_plan(&plan);
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(sleds.len(), 1);
        assert!(sleds[0].unavailable());
    }

    #[test]
    fn coded_extent_is_priced_at_kth_cheapest_fragment() {
        let (mut k, t, _) = volume_setup(sleds_fs::VolumeLayout::Coded { k: 2 }, 3);
        let data = vec![0u8; 4 * PAGE_SIZE as usize];
        k.install_file("/vol/f", &data).unwrap();
        let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(sleds.len(), 1);
        // k = 2: the straggler of the two cheapest members (10ms, 20ms)
        // sets the price.
        assert_eq!(sleds[0].latency, 0.020);
    }

    #[test]
    fn cached_pages_of_a_mirrored_file_stay_memory_priced() {
        let (mut k, t, _) = volume_setup(sleds_fs::VolumeLayout::Mirrored, 2);
        let data = vec![0u8; 4 * PAGE_SIZE as usize];
        k.install_file("/vol/f", &data).unwrap();
        let fd = k.open("/vol/f", OpenFlags::RDONLY).unwrap();
        k.read(fd, 2 * PAGE_SIZE as usize).unwrap();
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(sleds.len(), 2);
        assert!((sleds[0].bandwidth - 48e6).abs() < 1.0, "head is cached");
        assert_eq!(sleds[1].latency, 0.010, "tail priced at cheapest replica");
    }

    #[test]
    fn fully_cached_file_is_one_memory_sled() {
        let (mut k, t) = setup();
        let data = vec![0u8; 6 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.read(fd, data.len()).unwrap();
        let sleds = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(sleds.len(), 1);
        assert!((sleds[0].bandwidth - 48e6).abs() < 1.0);
    }
}
