//! Primary memory as a storage level.
//!
//! The paper's Table 2 lists memory at 175 ns latency and 48 MB/s copy
//! bandwidth: the cost of delivering *cached* data to an application through
//! `read(2)` (one memcpy on late-1990s hardware). This device models exactly
//! that — it is what a page-cache hit costs.

use sleds_sim_core::{Bandwidth, SimDuration, SimResult, SimTime};

use crate::{
    check_range, BlockDevice, DevStats, DeviceClass, DeviceProfile, PhaseKind, PhaseLog,
    ServicePhase,
};

/// A RAM "device": fixed latency plus copy bandwidth, no positional state.
#[derive(Debug, Clone)]
pub struct MemoryDevice {
    name: String,
    capacity_sectors: u64,
    latency: SimDuration,
    bandwidth: Bandwidth,
    stats: DevStats,
    phases: PhaseLog,
}

impl MemoryDevice {
    /// Creates a memory device.
    ///
    /// `latency` is the fixed per-access cost and `bandwidth` the copy rate.
    pub fn new(
        name: impl Into<String>,
        capacity_bytes: u64,
        latency: SimDuration,
        bandwidth: Bandwidth,
    ) -> Self {
        MemoryDevice {
            name: name.into(),
            capacity_sectors: capacity_bytes / sleds_sim_core::SECTOR_SIZE,
            latency,
            bandwidth,
            stats: DevStats::default(),
            phases: PhaseLog::default(),
        }
    }

    /// Memory as measured in Table 2 (Unix-utility machine): 175 ns, 48 MB/s.
    pub fn table2(name: impl Into<String>, capacity_bytes: u64) -> Self {
        MemoryDevice::new(
            name,
            capacity_bytes,
            SimDuration::from_nanos(175),
            Bandwidth::mb_per_sec(48.0),
        )
    }

    /// Memory as measured in Table 3 (LHEASOFT machine): 210 ns, 87 MB/s.
    pub fn table3(name: impl Into<String>, capacity_bytes: u64) -> Self {
        MemoryDevice::new(
            name,
            capacity_bytes,
            SimDuration::from_nanos(210),
            Bandwidth::mb_per_sec(87.0),
        )
    }

    fn xfer(&mut self, sectors: u64) -> SimDuration {
        let copy = self
            .bandwidth
            .transfer_time(sectors * sleds_sim_core::SECTOR_SIZE);
        self.phases.add(PhaseKind::Overhead, self.latency);
        self.phases.add(PhaseKind::Transfer, copy);
        self.latency + copy
    }
}

impl BlockDevice for MemoryDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> DeviceClass {
        DeviceClass::Memory
    }

    fn capacity_sectors(&self) -> u64 {
        self.capacity_sectors
    }

    fn profile(&self) -> DeviceProfile {
        DeviceProfile {
            class: DeviceClass::Memory,
            nominal_latency: self.latency,
            nominal_bandwidth: self.bandwidth,
        }
    }

    fn read(&mut self, start: u64, sectors: u64, _now: SimTime) -> SimResult<SimDuration> {
        self.phases.clear();
        check_range(&self.name, self.capacity_sectors, start, sectors)?;
        let t = self.xfer(sectors);
        self.stats.note_read(sectors, t, false);
        Ok(t)
    }

    fn write(&mut self, start: u64, sectors: u64, _now: SimTime) -> SimResult<SimDuration> {
        self.phases.clear();
        check_range(&self.name, self.capacity_sectors, start, sectors)?;
        let t = self.xfer(sectors);
        self.stats.note_write(sectors, t, false);
        Ok(t)
    }

    fn stats(&self) -> DevStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DevStats::default();
    }

    fn last_phases(&self) -> &[ServicePhase] {
        self.phases.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_sim_core::PAGE_SIZE;

    #[test]
    fn phases_split_latency_and_copy() {
        let mut m = MemoryDevice::table2("ram", 64 << 20);
        let t = m.read(0, 8, SimTime::ZERO).unwrap();
        let total: SimDuration = m.last_phases().iter().map(|p| p.dur).sum();
        assert_eq!(total, t);
        let kinds: Vec<PhaseKind> = m.last_phases().iter().map(|p| p.kind).collect();
        assert_eq!(kinds, vec![PhaseKind::Overhead, PhaseKind::Transfer]);
    }

    #[test]
    fn page_copy_cost_matches_table2() {
        let mut m = MemoryDevice::table2("ram", 64 << 20);
        let t = m.read(0, PAGE_SIZE / 512, SimTime::ZERO).expect("in range");
        // 175ns + 4096B / 48MB/s = 175ns + 85333ns.
        let expect = 175 + (4096.0 / 48e6 * 1e9) as u64;
        assert!((t.as_nanos() as i64 - expect as i64).abs() <= 1);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut m = MemoryDevice::table2("ram", 4096);
        assert!(m.read(8, 1, SimTime::ZERO).is_err());
        assert!(m.write(0, 9, SimTime::ZERO).is_err());
    }

    #[test]
    fn stats_track_reads_and_writes() {
        let mut m = MemoryDevice::table3("ram", 1 << 20);
        m.read(0, 8, SimTime::ZERO).unwrap();
        m.write(8, 8, SimTime::ZERO).unwrap();
        let s = m.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.sectors_read, 8);
        m.reset_stats();
        assert_eq!(m.stats(), DevStats::default());
    }
}
