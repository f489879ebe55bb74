//! Histogram-backed recalibration of the sleds table (`FSLEDS_RECAL`).
//!
//! The paper fills the sleds table once at boot and notes that the numbers
//! drift: a busy NFS server, a tape drive that stays mounted, a disk whose
//! workload lives in one zone all deliver something other than their
//! boot-time measurement. This module closes the loop. Given a [`Metrics`]
//! snapshot from a traced run, it rebuilds each device row from what the
//! run actually observed:
//!
//! * **latency** ← the p50 of the class's first-byte histogram (per-command
//!   service time minus the data-moving phases) — the observable the
//!   table's latency column models;
//! * **bandwidth** ← the class's effective bandwidth (bytes moved by reads
//!   over time spent moving them) — the observable the bandwidth column
//!   models.
//!
//! Classes with fewer than three read commands keep their old rows (a p50
//! of one mount-amortized tape read is noise, not signal), observed values
//! are clamped to fixed bounds, and the memory row is never touched — it is
//! not a device command and the trace never times it.
//!
//! The rebuild is a pure function of the snapshot: no clock, no randomness,
//! no kernel state. The same snapshot always yields a byte-identical table,
//! which is what makes the determinism tests and the accuracy-regression
//! gate possible.

use sleds_fs::trace::Metrics;
use sleds_fs::{DeviceId, Fd, Kernel};
use sleds_sim_core::{index, SimResult};

use crate::table::{SledsEntry, SledsTable};

/// Minimum read commands a class must have serviced for its observations
/// to replace the table row.
const MIN_SAMPLES: u64 = 3;
/// Upper clamp for observed latency, seconds: generous enough for a jukebox
/// mount plus a full-tape locate, so a stuck tape robot cannot poison the
/// table with an hour-long first byte. The lower clamp is zero.
const MAX_LATENCY: f64 = 600.0;
/// Clamps for observed bandwidth, bytes per second: 1 KB/s..100 GB/s spans
/// tape-over-WAN to any plausible memory.
const MIN_BANDWIDTH: f64 = 1e3;
const MAX_BANDWIDTH: f64 = 1e11;

/// What one refreshed device row was rebuilt from.
#[derive(Clone, Copy, Debug)]
pub struct ClassObservation {
    /// The device whose row was refreshed.
    pub dev: DeviceId,
    /// Its class code (index into `Metrics::device`).
    pub class: u64,
    /// Read commands the observation is based on.
    pub samples: u64,
    /// New latency, seconds (clamped observed first-byte p50).
    pub latency: f64,
    /// New bandwidth, bytes/second (clamped observed effective bandwidth).
    pub bandwidth: f64,
}

/// Result of a recalibration pass.
#[derive(Clone, Debug)]
pub struct RecalOutcome {
    /// The refreshed table, generation already stamped.
    pub table: SledsTable,
    /// Devices whose rows were rebuilt, in ascending `DeviceId` order.
    pub refreshed: Vec<ClassObservation>,
    /// Devices kept on their old rows for lack of samples, ascending.
    pub skipped: Vec<DeviceId>,
}

/// Rebuilds sleds-table rows from a metrics snapshot. Pure: the outcome is
/// a function of `(table, metrics, devices, generation)` alone.
///
/// `devices` maps each device to its class code (`DeviceClass::code`);
/// every listed device whose class meets the sample floor gets the class's
/// observed row (devices sharing a class share the observation — the
/// metrics are per-class, not per-spindle). Refreshed devices also lose
/// their per-zone rows: the class-wide observation supersedes the
/// boot-time zone survey. The memory row and unlisted devices keep their
/// old entries.
fn recalibrate_from_metrics(
    table: &SledsTable,
    metrics: &Metrics,
    devices: &[(DeviceId, u64)],
    generation: u64,
) -> RecalOutcome {
    let mut out = RecalOutcome {
        table: table.clone(),
        refreshed: Vec::new(),
        skipped: Vec::new(),
    };
    for &(dev, class) in devices {
        let Some(cm) = metrics.device.get(index(class)) else {
            out.skipped.push(dev);
            continue;
        };
        let samples = cm.first_byte.count();
        let Some(bw) = cm.effective_bandwidth().filter(|_| samples >= MIN_SAMPLES) else {
            out.skipped.push(dev);
            continue;
        };
        let latency = (cm.first_byte.p50() as f64 / 1e9).clamp(0.0, MAX_LATENCY);
        let bandwidth = bw.clamp(MIN_BANDWIDTH, MAX_BANDWIDTH);
        out.table
            .fill_device(dev, SledsEntry::new(latency, bandwidth));
        out.table.clear_device_zones(dev);
        out.refreshed.push(ClassObservation {
            dev,
            class,
            samples,
            latency,
            bandwidth,
        });
    }
    out.table.set_generation(generation);
    out
}

/// The user-space half of `FSLEDS_RECAL`: issues the ioctl on `fd` (which
/// bumps the kernel's sleds epoch, moving every file's
/// `Kernel::sled_generation`, and fences the accuracy audit), then rebuilds
/// the table from the returned snapshot for every attached device. On an
/// untraced kernel the snapshot is empty, so every device is skipped and
/// only the generation stamp changes — the epoch bump and virtual-time cost
/// are identical either way, keeping traced and untraced runs
/// byte-identical.
pub fn recalibrate(kernel: &mut Kernel, table: &SledsTable, fd: Fd) -> SimResult<RecalOutcome> {
    let metrics = kernel.fsleds_recal(fd)?;
    let devices: Vec<(DeviceId, u64)> = (0..kernel.device_count())
        .filter_map(|i| {
            let dev = DeviceId(i);
            kernel.device_class(dev).map(|c| (dev, c.code()))
        })
        .collect();
    Ok(recalibrate_from_metrics(
        table,
        &metrics,
        &devices,
        kernel.sleds_epoch(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_fs::trace::DeviceCost;
    use sleds_sim_core::SimDuration;

    /// A served read of `bytes` holding a `class` device for `service_ns`.
    fn served(tenant: u64, class: u64, service_ns: u64, bytes: u64) -> DeviceCost {
        DeviceCost {
            tenant,
            class,
            service: SimDuration::from_nanos(service_ns),
            bytes,
            ..DeviceCost::default()
        }
    }

    /// A snapshot with `n` identical disk reads: 18 ms first byte, then
    /// 1 MB moved in 100 ms (10 MB/s).
    fn disk_metrics(n: u64) -> Metrics {
        let mut m = Metrics::default();
        for _ in 0..n {
            m.note_device(&served(0, 1, 118_000_000, 1_000_000), 100_000_000);
        }
        m
    }

    fn base_table() -> SledsTable {
        let mut t = SledsTable::new();
        t.fill_memory(SledsEntry::new(175e-9, 48e6));
        t.fill_device(DeviceId(0), SledsEntry::new(0.5, 1e6));
        t
    }

    #[test]
    fn refreshes_from_observed_p50_and_bandwidth() {
        let out = recalibrate_from_metrics(&base_table(), &disk_metrics(4), &[(DeviceId(0), 1)], 1);
        assert_eq!(out.refreshed.len(), 1);
        assert!(out.skipped.is_empty());
        let e = out.table.device(DeviceId(0)).expect("row kept");
        // first byte = 118ms - 100ms transfer = 18ms exactly (one value
        // per bucket, so the bucket mean is exact).
        assert!((e.latency - 0.018).abs() < 1e-12);
        assert!((e.bandwidth - 10e6).abs() < 1.0);
        assert_eq!(out.table.generation(), 1);
        // Memory row untouched.
        assert_eq!(out.table.memory().expect("memory row").bandwidth, 48e6);
    }

    #[test]
    fn too_few_samples_keeps_old_row() {
        let out = recalibrate_from_metrics(&base_table(), &disk_metrics(2), &[(DeviceId(0), 1)], 1);
        assert!(out.refreshed.is_empty());
        assert_eq!(out.skipped, vec![DeviceId(0)]);
        let e = out.table.device(DeviceId(0)).expect("row kept");
        assert_eq!(e.latency.to_bits(), 0.5f64.to_bits());
        // The generation still advances: the table was re-validated even
        // if nothing changed.
        assert_eq!(out.table.generation(), 1);
    }

    #[test]
    fn observations_clamp_to_policy_bounds() {
        let mut m = Metrics::default();
        for _ in 0..3 {
            // A pathological command: 1000 s to first byte, 1 byte moved
            // over 10 s (0.1 B/s).
            m.note_device(&served(0, 4, 1_010_000_000_000, 1), 10_000_000_000);
        }
        let out = recalibrate_from_metrics(&base_table(), &m, &[(DeviceId(0), 4)], 1);
        let e = out.table.device(DeviceId(0)).expect("row kept");
        assert_eq!(e.latency, MAX_LATENCY);
        assert_eq!(e.bandwidth, MIN_BANDWIDTH);
    }

    #[test]
    fn refreshed_devices_lose_zone_rows() {
        let mut t = base_table();
        t.fill_device_zones(DeviceId(0), vec![(0, SledsEntry::new(0.018, 11e6))]);
        let out = recalibrate_from_metrics(&t, &disk_metrics(3), &[(DeviceId(0), 1)], 1);
        // The flat row governs again from sector 0.
        assert_eq!(
            out.table.entry_at(DeviceId(0), 0),
            out.table.device(DeviceId(0))
        );
        assert_ne!(out.table.entry_at(DeviceId(0), 0).unwrap().bandwidth, 11e6);
    }

    #[test]
    fn same_snapshot_yields_byte_identical_tables() {
        let m = disk_metrics(5);
        let t = base_table();
        let devs = [(DeviceId(0), 1)];
        let a = recalibrate_from_metrics(&t, &m, &devs, 2);
        let b = recalibrate_from_metrics(&t, &m, &devs, 2);
        let ea = a.table.device(DeviceId(0)).expect("row");
        let eb = b.table.device(DeviceId(0)).expect("row");
        assert_eq!(ea.latency.to_bits(), eb.latency.to_bits());
        assert_eq!(ea.bandwidth.to_bits(), eb.bandwidth.to_bits());
        assert_eq!(a.table.generation(), b.table.generation());
    }
}
