//! SLED forecasts: how long will this SLED vector stay true?
//!
//! The paper's section 3.4 proposes including "some description of how the
//! system state will change over time, such as a program segment that
//! applications could use to predict which pages of a file would be flushed
//! from cache based on current page replacement algorithms". This module is
//! that extension: each memory-resident SLED is annotated with how many
//! page insertions (i.e. how much competing traffic) the cache can absorb
//! before the SLED's first page is evicted.
//!
//! Applications use it to decide whether a plan is still worth following:
//! a SLED that survives 10,000 insertions is a stable fact; one that dies
//! after 3 means "read it now or lose it".

use sleds_fs::{Fd, Kernel};
use sleds_sim_core::{index, SimResult, PAGE_SIZE};

use crate::get::fsleds_get;
use crate::report::SledReport;
use crate::table::SledsTable;
use crate::Sled;

/// A SLED with its predicted lifetime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SledForecast {
    /// The descriptor itself.
    pub sled: Sled,
    /// Cache insertions until this SLED's most vulnerable page is evicted.
    /// `None` for device-resident SLEDs (nothing cached to lose) and under
    /// replacement policies whose behaviour is not predictable (Clock, 2Q).
    pub survives_insertions: Option<u64>,
}

impl SledForecast {
    /// Competing bytes the cache can absorb before this SLED degrades.
    pub fn survives_bytes(&self) -> Option<u64> {
        self.survives_insertions.map(|n| n * PAGE_SIZE)
    }
}

/// Retrieves the SLED vector with lifetime annotations.
pub fn forecast(kernel: &mut Kernel, table: &SledsTable, fd: Fd) -> SimResult<Vec<SledForecast>> {
    let sleds = fsleds_get(kernel, fd, table)?;
    let ranks = kernel.page_eviction_ranks(fd)?;
    // Insertions into a non-full cache evict nothing, so every page gets
    // the free headroom on top of its eviction rank.
    let headroom = kernel
        .cache_capacity_pages()
        .saturating_sub(kernel.cache_resident_pages()) as u64;
    Ok(sleds
        .into_iter()
        .map(|sled| {
            let memory = sled.latency < SledReport::MEMORY_LATENCY_CUTOFF;
            let survives = if memory {
                // The SLED dies when its *lowest-ranked* page goes.
                let first = sled.offset / PAGE_SIZE;
                let last = (sled.end() - 1) / PAGE_SIZE;
                (first..=last)
                    .filter_map(|p| ranks.get(index(p)).copied().flatten())
                    .min()
                    .map(|r| r as u64 + headroom)
            } else {
                None
            };
            SledForecast {
                sled,
                survives_insertions: survives,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::SledsEntry;
    use sleds_devices::DiskDevice;
    use sleds_fs::{MachineConfig, OpenFlags, Whence};
    use sleds_sim_core::ByteSize;

    fn setup() -> (Kernel, SledsTable) {
        let mut cfg = MachineConfig::table2();
        cfg.ram = ByteSize::mib(2);
        let mut k = Kernel::new(cfg);
        k.mkdir("/d").unwrap();
        let m = k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
        let dev = k.device_of_mount(m).unwrap();
        let mut t = SledsTable::new();
        t.fill_memory(SledsEntry::new(175e-9, 48e6));
        t.fill_device(dev, SledsEntry::new(0.018, 9e6));
        (k, t)
    }

    #[test]
    fn forecast_annotates_memory_sleds_only() {
        let (mut k, t) = setup();
        k.install_file("/d/f", &vec![1u8; 32 * PAGE_SIZE as usize])
            .unwrap();
        let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
        k.lseek(fd, 8 * PAGE_SIZE as i64, Whence::Set).unwrap();
        k.read(fd, 8 * PAGE_SIZE as usize).unwrap();
        let fc = forecast(&mut k, &t, fd).unwrap();
        assert_eq!(fc.len(), 3);
        assert!(
            fc[0].survives_insertions.is_none(),
            "disk SLED has no lifetime"
        );
        assert!(fc[1].survives_insertions.is_some(), "memory SLED has one");
        assert!(fc[2].survives_insertions.is_none());
        assert_eq!(
            fc[1].survives_bytes().unwrap(),
            fc[1].survives_insertions.unwrap() * PAGE_SIZE
        );
    }

    #[test]
    fn prediction_matches_reality() {
        let (mut k, t) = setup();
        let cache_pages = k.config().cache_pages() as u64;
        k.install_file("/d/f", &vec![1u8; 16 * PAGE_SIZE as usize])
            .unwrap();
        k.install_file(
            "/d/noise",
            &vec![2u8; (cache_pages + 64) as usize * PAGE_SIZE as usize],
        )
        .unwrap();
        let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
        k.read(fd, 16 * PAGE_SIZE as usize).unwrap();
        let fc = forecast(&mut k, &t, fd).unwrap();
        assert_eq!(fc.len(), 1);
        let survives = fc[0].survives_insertions.unwrap();

        // Insert exactly `survives` foreign pages: the SLED must hold.
        let noise = k.open("/d/noise", OpenFlags::RDONLY).unwrap();
        k.read(noise, (survives * PAGE_SIZE) as usize).unwrap();
        let still = fsleds_get(&mut k, fd, &t).unwrap();
        assert_eq!(still.len(), 1, "SLED intact after predicted-safe traffic");
        assert!(still[0].latency < 1e-3);

        // One more insertion evicts the SLED's oldest page.
        k.read(noise, PAGE_SIZE as usize).unwrap();
        let after = fsleds_get(&mut k, fd, &t).unwrap();
        assert!(
            after.len() > 1 || after[0].latency >= 1e-3,
            "SLED should degrade exactly past its forecast"
        );
    }

    #[test]
    fn unpredictable_policy_yields_none() {
        let mut cfg = MachineConfig::table2();
        cfg.ram = ByteSize::mib(2);
        cfg.policy = sleds_pagecache::PolicyKind::Clock;
        let mut k = Kernel::new(cfg);
        k.mkdir("/d").unwrap();
        let m = k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
        let dev = k.device_of_mount(m).unwrap();
        let mut t = SledsTable::new();
        t.fill_memory(SledsEntry::new(175e-9, 48e6));
        t.fill_device(dev, SledsEntry::new(0.018, 9e6));
        k.install_file("/d/f", &vec![1u8; 4 * PAGE_SIZE as usize])
            .unwrap();
        let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
        k.read(fd, 4 * PAGE_SIZE as usize).unwrap();
        let fc = forecast(&mut k, &t, fd).unwrap();
        assert!(
            fc[0].survives_insertions.is_none(),
            "Clock is not predictable"
        );
    }
}
