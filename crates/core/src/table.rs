//! The sleds table: per-device latency and bandwidth.
//!
//! The paper keeps this table in the kernel, filled once at boot by a script
//! in `/etc/rc.d/init.d` that runs lmbench and issues the new `FSLEDS_FILL`
//! ioctl — one `(latency, bandwidth)` entry per storage device plus one for
//! primary memory. [`SledsTable`] is that table; `sleds-lmbench` plays the
//! role of the boot script.

use std::collections::BTreeMap;

pub use sleds_fs::SledsEntry;
use sleds_fs::{DeviceId, SledPricing};

/// The kernel's per-device performance table (`FSLEDS_FILL`).
///
/// The paper's implementation keeps a single entry per device and lists
/// per-zone entries ("the different bandwidths of different disk zones") as
/// future work; this table supports both. When a device has zone rows they
/// take precedence over its flat row, so one file can yield SLEDs with
/// different bandwidths for its outer-zone and inner-zone extents.
#[derive(Clone, Debug, Default)]
pub struct SledsTable {
    memory: Option<SledsEntry>,
    devices: BTreeMap<DeviceId, SledsEntry>,
    /// Per-device zone rows: `(first sector, entry)`, sorted by sector.
    zones: BTreeMap<DeviceId, Vec<(u64, SledsEntry)>>,
    /// When set, `fsleds_get` asks devices for dynamic self-reports
    /// (`BlockDevice::dynamic_probe`) before falling back to table rows —
    /// the client/server SLEDs channel of the paper's section 6.
    trust_device_reports: bool,
    /// Table generation: 0 for a boot-time fill, bumped by each
    /// recalibration. Predictions are tagged with it so the accuracy
    /// audit can tell which table priced each estimate.
    generation: u64,
    /// Measured cost of one kernel boundary crossing, in seconds —
    /// the `lat_syscall` row. Batched submission amortizes exactly this.
    crossing_cpu: Option<f64>,
}

impl SledsTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SledsTable::default()
    }

    /// Fills the primary-memory row.
    pub fn fill_memory(&mut self, entry: SledsEntry) {
        self.memory = Some(entry);
    }

    /// Fills (or replaces) a device row.
    pub fn fill_device(&mut self, dev: DeviceId, entry: SledsEntry) {
        self.devices.insert(dev, entry);
    }

    /// The memory row, if filled.
    pub fn memory(&self) -> Option<SledsEntry> {
        self.memory
    }

    /// The row for `dev`, if filled.
    pub fn device(&self, dev: DeviceId) -> Option<SledsEntry> {
        self.devices.get(&dev).copied()
    }

    /// Fills per-zone rows for a device (`rows` as `(first sector, entry)`;
    /// sorted internally). Zone rows take precedence over the flat row.
    pub fn fill_device_zones(&mut self, dev: DeviceId, mut rows: Vec<(u64, SledsEntry)>) {
        rows.sort_by_key(|(s, _)| *s);
        self.zones.insert(dev, rows);
    }

    /// The entry governing `sector` of `dev`: the zone row containing it if
    /// zone rows exist, otherwise the flat device row.
    pub fn entry_at(&self, dev: DeviceId, sector: u64) -> Option<SledsEntry> {
        if let Some(rows) = self.zones.get(&dev) {
            let idx = rows.partition_point(|(s, _)| *s <= sector);
            if idx > 0 {
                return Some(rows[idx - 1].1);
            }
        }
        self.device(dev)
    }

    /// True when `dev` has per-zone rows.
    pub fn has_zones(&self, dev: DeviceId) -> bool {
        self.zones.contains_key(&dev)
    }

    /// The first sector strictly after `sector` at which the governing entry
    /// of `dev` may change — i.e. the start of the next zone row. `None`
    /// when the entry is constant from `sector` to the end of the device
    /// (no zone rows, or `sector` is in the last zone). Lets an
    /// extent-granular walk split a device extent only where the table
    /// actually changes instead of probing every page.
    pub fn zone_end(&self, dev: DeviceId, sector: u64) -> Option<u64> {
        let rows = self.zones.get(&dev)?;
        let idx = rows.partition_point(|(s, _)| *s <= sector);
        rows.get(idx).map(|(s, _)| *s)
    }

    /// Enables consulting device dynamic self-reports in `fsleds_get`.
    pub fn set_trust_device_reports(&mut self, trust: bool) {
        self.trust_device_reports = trust;
    }

    /// Whether device dynamic self-reports are consulted.
    pub fn trust_device_reports(&self) -> bool {
        self.trust_device_reports
    }

    /// What flattening this table into pushed rows
    /// ([`pricing_from`](crate::pricing_from)) would drop, if anything:
    /// per-zone rows or device self-reports, neither of which `ProgPricing`
    /// can express. `None` when the flat rows price exactly what the table
    /// does.
    pub fn pushdown_loss(&self) -> Option<&'static str> {
        if !self.zones.is_empty() {
            Some("has per-zone rows")
        } else if self.trust_device_reports {
            Some("trusts device self-reports")
        } else {
            None
        }
    }

    /// The table's generation (0 = boot-time fill).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stamps the table's generation; recalibration sets it to the
    /// kernel's sleds epoch.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Fills the boundary-crossing row (seconds per crossing).
    pub fn fill_crossing(&mut self, seconds: f64) {
        self.crossing_cpu = Some(seconds);
    }

    /// Measured seconds per kernel boundary crossing, if calibrated.
    pub fn crossing_cpu(&self) -> Option<f64> {
        self.crossing_cpu
    }

    /// Drops a device's per-zone rows, so its flat row governs again.
    /// Recalibration uses this: the observed class-wide rates replace the
    /// boot-time zone survey, which no longer reflects what was measured.
    pub fn clear_device_zones(&mut self, dev: DeviceId) {
        self.zones.remove(&dev);
    }

    /// Number of device rows.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// True once the memory row is present — the minimum for `fsleds_get`
    /// to be usable at all.
    pub fn is_filled(&self) -> bool {
        self.memory.is_some()
    }

    /// Iterates device rows in ascending `DeviceId` order.
    pub fn iter_devices(&self) -> impl Iterator<Item = (DeviceId, SledsEntry)> + '_ {
        self.devices.iter().map(|(d, e)| (*d, *e))
    }
}

impl SledPricing for SledsTable {
    fn memory(&self) -> Option<SledsEntry> {
        self.memory
    }

    fn entry_at(&self, dev: DeviceId, sector: u64) -> Option<SledsEntry> {
        SledsTable::entry_at(self, dev, sector)
    }

    fn zone_end(&self, dev: DeviceId, sector: u64) -> Option<u64> {
        SledsTable::zone_end(self, dev, sector)
    }

    fn trust_device_reports(&self) -> bool {
        self.trust_device_reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_query() {
        let mut t = SledsTable::new();
        assert!(!t.is_filled());
        t.fill_memory(SledsEntry::new(175e-9, 48e6));
        t.fill_device(DeviceId(0), SledsEntry::new(0.018, 9e6));
        assert!(t.is_filled());
        assert_eq!(t.memory().unwrap().bandwidth, 48e6);
        assert_eq!(t.device(DeviceId(0)).unwrap().latency, 0.018);
        assert!(t.device(DeviceId(1)).is_none());
        assert_eq!(t.device_count(), 1);
    }

    #[test]
    fn zone_rows_take_precedence() {
        let mut t = SledsTable::new();
        t.fill_device(DeviceId(0), SledsEntry::new(0.018, 9e6));
        t.fill_device_zones(
            DeviceId(0),
            vec![
                (5_000, SledsEntry::new(0.018, 7e6)),
                (0, SledsEntry::new(0.018, 11e6)),
            ],
        );
        assert_eq!(t.entry_at(DeviceId(0), 0).unwrap().bandwidth, 11e6);
        assert_eq!(t.entry_at(DeviceId(0), 4_999).unwrap().bandwidth, 11e6);
        assert_eq!(t.entry_at(DeviceId(0), 5_000).unwrap().bandwidth, 7e6);
        assert!(t.has_zones(DeviceId(0)));
        // A device without zone rows falls back to its flat row.
        t.fill_device(DeviceId(1), SledsEntry::new(0.27, 1e6));
        assert_eq!(t.entry_at(DeviceId(1), 123).unwrap().bandwidth, 1e6);
        assert!(!t.has_zones(DeviceId(1)));
    }

    #[test]
    fn entry_at_without_any_rows_is_none() {
        let t = SledsTable::new();
        assert!(t.entry_at(DeviceId(3), 0).is_none());
    }

    #[test]
    fn zone_end_reports_next_boundary() {
        let mut t = SledsTable::new();
        assert_eq!(t.zone_end(DeviceId(0), 0), None);
        t.fill_device_zones(
            DeviceId(0),
            vec![
                (1_000, SledsEntry::new(0.018, 11e6)),
                (5_000, SledsEntry::new(0.018, 7e6)),
            ],
        );
        // Before the first row the entry changes when the first row starts.
        assert_eq!(t.zone_end(DeviceId(0), 0), Some(1_000));
        assert_eq!(t.zone_end(DeviceId(0), 999), Some(1_000));
        assert_eq!(t.zone_end(DeviceId(0), 1_000), Some(5_000));
        assert_eq!(t.zone_end(DeviceId(0), 4_999), Some(5_000));
        // Inside the last zone the entry never changes again.
        assert_eq!(t.zone_end(DeviceId(0), 5_000), None);
        assert_eq!(t.zone_end(DeviceId(0), 1 << 40), None);
    }

    #[test]
    fn generation_stamps_and_zone_rows_clear() {
        let mut t = SledsTable::new();
        assert_eq!(t.generation(), 0);
        t.set_generation(3);
        assert_eq!(t.generation(), 3);
        t.fill_device(DeviceId(0), SledsEntry::new(0.018, 9e6));
        t.fill_device_zones(DeviceId(0), vec![(0, SledsEntry::new(0.018, 11e6))]);
        assert_eq!(t.entry_at(DeviceId(0), 0).unwrap().bandwidth, 11e6);
        t.clear_device_zones(DeviceId(0));
        assert!(!t.has_zones(DeviceId(0)));
        assert_eq!(t.entry_at(DeviceId(0), 0).unwrap().bandwidth, 9e6);
    }

    #[test]
    fn refill_replaces() {
        let mut t = SledsTable::new();
        t.fill_device(DeviceId(2), SledsEntry::new(1.0, 1.0));
        t.fill_device(DeviceId(2), SledsEntry::new(2.0, 2.0));
        assert_eq!(t.device(DeviceId(2)).unwrap().latency, 2.0);
        assert_eq!(t.device_count(), 1);
    }
}
