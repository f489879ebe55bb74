//! The sleds table: per-device latency and bandwidth.
//!
//! The paper keeps this table in the kernel, filled once at boot by a script
//! in `/etc/rc.d/init.d` that runs lmbench and issues the new `FSLEDS_FILL`
//! ioctl. [`SledsTable`] is that table, and it lives beside the SLED fold in
//! [`sleds_fs::sled`], because the kernel prices pushed-down SLEDs from the
//! same table the library passes; `sleds-lmbench` plays the boot script.

pub use sleds_fs::sled::{SledsEntry, SledsTable};

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_fs::DeviceId;

    /// How many of devices 0–15 have a flat row.
    fn rows(t: &SledsTable) -> usize {
        (0..16).filter(|&d| t.device(DeviceId(d)).is_some()).count()
    }

    #[test]
    fn fill_and_query() {
        let mut t = SledsTable::new();
        assert!(t.memory().is_none());
        t.fill_memory(SledsEntry::new(175e-9, 48e6));
        t.fill_device(DeviceId(0), SledsEntry::new(0.018, 9e6));
        assert_eq!(t.memory().unwrap().bandwidth, 48e6);
        assert_eq!(t.device(DeviceId(0)).unwrap().latency, 0.018);
        assert!(t.device(DeviceId(1)).is_none());
        assert_eq!(rows(&t), 1);
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
        assert_eq!(t.zone_end(DeviceId(0), 0), Some(5_000));
        // A device without zone rows falls back to its flat row.
        t.fill_device(DeviceId(1), SledsEntry::new(0.27, 1e6));
        assert_eq!(t.entry_at(DeviceId(1), 123).unwrap().bandwidth, 1e6);
        assert_eq!(t.zone_end(DeviceId(1), 123), None);
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
        assert_eq!(t.entry_at(DeviceId(0), 0).unwrap().bandwidth, 9e6);
    }

    #[test]
    fn refill_replaces() {
        let mut t = SledsTable::new();
        t.fill_device(DeviceId(2), SledsEntry::new(1.0, 1.0));
        t.fill_device(DeviceId(2), SledsEntry::new(2.0, 2.0));
        assert_eq!(t.device(DeviceId(2)).unwrap().latency, 2.0);
        assert_eq!(rows(&t), 1);
        // Rows filled out of device order are each found again.
        t.fill_device(DeviceId(9), SledsEntry::new(3.0, 3.0));
        t.fill_device(DeviceId(0), SledsEntry::new(4.0, 4.0));
        assert_eq!(t.device(DeviceId(0)).unwrap().latency, 4.0);
        assert_eq!(t.device(DeviceId(2)).unwrap().latency, 2.0);
        assert_eq!(t.device(DeviceId(9)).unwrap().latency, 3.0);
        assert_eq!(rows(&t), 3);
    }
}
