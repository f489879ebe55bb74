//! lmbench-style calibration of the storage stack.
//!
//! The paper fills the kernel's sleds table at boot: a script in
//! `/etc/rc.d/init.d` runs lmbench against each storage device and NFS mount
//! and pushes one `(latency, bandwidth)` row per device through the
//! `FSLEDS_FILL` ioctl. This crate is that script: it measures each mounted
//! device *through the file system* (so the numbers include the same syscall
//! and copy costs applications experience — as lmbench's `lat_fs`/`bw_file_rd`
//! do) and produces the [`SledsTable`] everything else consumes.
//!
//! Nothing here peeks at device model parameters; the rows are measured, so
//! the Tables 2 and 3 reproduction is an actual experiment, not an echo of
//! configuration.

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "unit tests pin exact, deterministic float results"
    )
)]

use sleds::{SledsEntry, SledsTable};
use sleds_fs::{Kernel, MountId, OpenFlags, Whence};
use sleds_sim_core::{DetRng, SimResult, PAGE_SIZE};

/// A measured `(latency, bandwidth)` pair, in seconds and bytes/second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibration {
    /// Latency to the first byte of a random access.
    pub latency: f64,
    /// Streaming bandwidth.
    pub bandwidth: f64,
}

/// Size of the scratch file used for device measurements.
const DEVICE_PROBE_BYTES: usize = 16 << 20;

/// Chunk size for streaming-bandwidth probes (lmbench uses 64 KiB too).
const STREAM_CHUNK: usize = 64 << 10;

/// Number of random-read probes for latency.
const LATENCY_PROBES: usize = 64;

/// Measures primary memory: the cost of delivering *cached* file data.
///
/// Uses `scratch_dir` (any writable mount) for a small probe file, which is
/// removed afterwards. Latency is the per-operation cost of a one-byte read
/// from a cached page with the syscall overhead subtracted; bandwidth is the
/// streaming rate of rereading a fully cached file.
///
/// The probe file is installed sparse: its layout is what a stored install
/// would give, and a read of its hole is billed the same copy-out as stored
/// bytes, so the rows are the same while the host stores no byte of it.
pub fn measure_memory(kernel: &mut Kernel, scratch_dir: &str) -> SimResult<Calibration> {
    let path = format!("{scratch_dir}/__lmbench_mem");
    let bytes = 4 << 20; // comfortably smaller than the cache
    kernel.install_sparse_file(&path, bytes as u64)?;
    let fd = kernel.open(&path, OpenFlags::RDONLY)?;
    // Warm every page.
    let mut pos = 0;
    while pos < bytes {
        pos += kernel.read(fd, STREAM_CHUNK)?.len();
    }

    // Latency: one-byte cached preads.
    let t0 = kernel.now();
    for i in 0..LATENCY_PROBES as u64 {
        kernel.pread(fd, (i * PAGE_SIZE) % bytes as u64, 1)?;
    }
    let per_op = (kernel.now() - t0).as_secs_f64() / LATENCY_PROBES as f64;
    let latency = (per_op - kernel.config().syscall_cpu.as_secs_f64()).max(0.0);

    // Bandwidth: stream the cached file.
    let t0 = kernel.now();
    let mut pos = 0u64;
    while (pos as usize) < bytes {
        pos += kernel.pread(fd, pos, STREAM_CHUNK)?.len() as u64;
    }
    let elapsed = (kernel.now() - t0).as_secs_f64();
    let bandwidth = bytes as f64 / elapsed;

    kernel.close(fd)?;
    kernel.unlink(&path)?;
    Ok(Calibration { latency, bandwidth })
}

/// Number of no-op syscalls in the boundary-crossing probe.
const CROSSING_PROBES: u64 = 256;

/// Measures the cost of one kernel boundary crossing — lmbench's
/// `lat_syscall null`: repeated no-op `lseek(fd, 0, SEEK_SET)` calls on an
/// open (sparse, one-byte) file, CPU divided by the count. This is the
/// charge a ring batch amortizes; `fill_table` stores it in the table's
/// crossing row.
pub fn measure_crossing(kernel: &mut Kernel, scratch_dir: &str) -> SimResult<f64> {
    let path = format!("{scratch_dir}/__lmbench_null");
    kernel.install_sparse_file(&path, 1)?;
    let fd = kernel.open(&path, OpenFlags::RDONLY)?;
    let t = kernel.start_job();
    for _ in 0..CROSSING_PROBES {
        kernel.lseek(fd, 0, Whence::Set)?;
    }
    let report = kernel.finish_job(&t);
    kernel.close(fd)?;
    kernel.unlink(&path)?;
    Ok(report.usage.cpu.as_secs_f64() / CROSSING_PROBES as f64)
}

/// Measures the device behind the mount at `dir`.
///
/// Latency comes from raw page-sized reads at random sectors across the
/// whole device, the way lmbench's disk probes seek across the full stroke;
/// bandwidth comes from a cold sequential scan of a scratch file through the
/// file system (so it includes the syscall and copy costs applications see).
/// The scratch file is installed sparse, as in [`measure_memory`], and
/// removed afterwards.
pub fn measure_mount(kernel: &mut Kernel, dir: &str) -> SimResult<Calibration> {
    let mount = kernel.stat(dir)?.mount.ok_or_else(|| {
        sleds_sim_core::SimError::new(sleds_sim_core::Errno::Einval, format!("{dir}: not a mount"))
    })?;
    let dev = kernel.device_of_mount(mount).expect("mount has device");
    let cap = kernel.device_capacity(dev).expect("device registered");
    let path = format!("{dir}/__lmbench_dev");
    kernel.install_sparse_file(&path, DEVICE_PROBE_BYTES as u64)?;
    let fd = kernel.open(&path, OpenFlags::RDONLY)?;

    // Latency: raw random page reads across the device's full stroke.
    let sectors_per_page = PAGE_SIZE / sleds_sim_core::SECTOR_SIZE;
    let mut rng = DetRng::new(0x1b_eb_c4);
    let mut total = 0.0;
    for _ in 0..LATENCY_PROBES {
        let sector = rng.range_u64(0, cap - sectors_per_page);
        let t0 = kernel.now();
        kernel.raw_device_read(dev, sector, sectors_per_page)?;
        total += (kernel.now() - t0).as_secs_f64();
    }
    let latency = total / LATENCY_PROBES as f64;

    // Bandwidth: cold sequential scan; drop the first chunk (it pays the
    // initial positioning) from the rate computation.
    kernel.drop_caches()?;
    kernel.pread(fd, 0, STREAM_CHUNK)?;
    let t0 = kernel.now();
    let mut pos = STREAM_CHUNK as u64;
    while (pos as usize) < DEVICE_PROBE_BYTES {
        pos += kernel.pread(fd, pos, STREAM_CHUNK)?.len() as u64;
    }
    let elapsed = (kernel.now() - t0).as_secs_f64();
    let bandwidth = (DEVICE_PROBE_BYTES - STREAM_CHUNK) as f64 / elapsed;

    kernel.close(fd)?;
    kernel.unlink(&path)?;
    kernel.drop_caches()?;
    Ok(Calibration { latency, bandwidth })
}

/// The boot script: measures memory plus every listed mount and returns the
/// filled sleds table (`FSLEDS_FILL`).
///
/// `mounts` pairs each mount's directory with its id; the first entry's
/// directory doubles as the scratch space for the memory probe. For HSM
/// mounts the *tape* row is filled from the tape device's nominal profile —
/// running random-read probes against a tape library at boot would be
/// antisocial, and the paper's implementation likewise keeps a configured
/// entry per device.
pub fn fill_table(kernel: &mut Kernel, mounts: &[(&str, MountId)]) -> SimResult<SledsTable> {
    let mut table = SledsTable::new();
    let scratch = mounts
        .first()
        .map(|(d, _)| *d)
        .expect("fill_table needs at least one mount");
    let mem = measure_memory(kernel, scratch)?;
    table.fill_memory(SledsEntry::new(mem.latency, mem.bandwidth));
    table.fill_crossing(measure_crossing(kernel, scratch)?);
    for (dir, mount) in mounts {
        let cal = measure_mount(kernel, dir)?;
        let dev = kernel
            .device_of_mount(*mount)
            .expect("mount id from caller");
        table.fill_device(dev, SledsEntry::new(cal.latency, cal.bandwidth));
        if let Some(tape) = kernel.tape_of_mount(*mount) {
            let profile = kernel.device_profile(tape).expect("tape device registered");
            table.fill_device(
                tape,
                SledsEntry::new(
                    profile.nominal_latency.as_secs_f64(),
                    profile.nominal_bandwidth.as_bytes_per_sec(),
                ),
            );
        }
    }
    Ok(table)
}

/// Zone-aware calibration: the paper's future-work extension.
///
/// Runs [`fill_table`], then asks each device to report its zones
/// ([`sleds_devices::BlockDevice::zone_map`]) and adds per-zone rows whose
/// bandwidths are the device's *relative* zone speeds anchored to the
/// *measured* flat bandwidth — so the syscall/copy overheads baked into the
/// measurement carry over to every zone.
pub fn fill_table_zoned(kernel: &mut Kernel, mounts: &[(&str, MountId)]) -> SimResult<SledsTable> {
    let mut table = fill_table(kernel, mounts)?;
    for (_, mount) in mounts {
        let dev = kernel
            .device_of_mount(*mount)
            .expect("mount id from caller");
        let spans = kernel.device_zone_map(dev).expect("device registered");
        if spans.len() < 2 {
            continue;
        }
        let flat = table.device(dev).expect("flat row just filled");
        let anchor = spans[0].bandwidth.as_bytes_per_sec();
        if anchor <= 0.0 {
            continue;
        }
        let scale = flat.bandwidth / anchor;
        let rows = spans
            .iter()
            .map(|z| {
                (
                    z.start_sector,
                    SledsEntry::new(flat.latency, z.bandwidth.as_bytes_per_sec() * scale),
                )
            })
            .collect();
        table.fill_device_zones(dev, rows);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_devices::{CdRomDevice, DiskDevice, NfsDevice};
    use sleds_fs::DeviceId;

    #[test]
    fn memory_row_matches_table2_model() {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        k.mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let cal = measure_memory(&mut k, "/data").unwrap();
        // Latency ~175 ns (the model's memory latency).
        assert!(
            (100e-9..400e-9).contains(&cal.latency),
            "memory latency {}",
            cal.latency
        );
        // Bandwidth ~48 MB/s.
        let mb = cal.bandwidth / 1e6;
        assert!((43.0..53.0).contains(&mb), "memory bandwidth {mb} MB/s");
    }

    #[test]
    fn crossing_probe_recovers_the_trap_cost() {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        k.mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let c = measure_crossing(&mut k, "/data").unwrap();
        let model = k.config().syscall_cpu.as_secs_f64();
        // lseek is a pure no-op in the model, so the probe recovers the
        // trap cost exactly.
        assert!((c - model).abs() < 1e-12, "crossing {c} vs model {model}");
    }

    #[test]
    fn disk_row_matches_table2() {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        k.mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let cal = measure_mount(&mut k, "/data").unwrap();
        let ms = cal.latency * 1e3;
        assert!((14.0..22.0).contains(&ms), "disk latency {ms} ms");
        let mb = cal.bandwidth / 1e6;
        assert!((7.5..10.5).contains(&mb), "disk bandwidth {mb} MB/s");
    }

    #[test]
    fn cdrom_row_matches_table2() {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        k.mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        k.mkdir("/cdrom").unwrap();
        k.mount_cdrom("/cdrom", CdRomDevice::table2_drive("cd0"))
            .unwrap();
        let cal = measure_mount(&mut k, "/cdrom").unwrap();
        let ms = cal.latency * 1e3;
        assert!((100.0..170.0).contains(&ms), "cdrom latency {ms} ms");
        let mb = cal.bandwidth / 1e6;
        assert!((2.4..3.2).contains(&mb), "cdrom bandwidth {mb} MB/s");
    }

    #[test]
    fn nfs_row_matches_table2() {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        k.mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        k.mkdir("/nfs").unwrap();
        k.mount_nfs("/nfs", NfsDevice::table2_mount("srv:/exp"))
            .unwrap();
        let cal = measure_mount(&mut k, "/nfs").unwrap();
        let ms = cal.latency * 1e3;
        assert!((240.0..300.0).contains(&ms), "nfs latency {ms} ms");
        let mb = cal.bandwidth / 1e6;
        assert!((0.9..1.15).contains(&mb), "nfs bandwidth {mb} MB/s");
    }

    #[test]
    fn fill_table_covers_all_mounts() {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        let m1 = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        k.mkdir("/nfs").unwrap();
        let m2 = k
            .mount_nfs("/nfs", NfsDevice::table2_mount("srv:/exp"))
            .unwrap();
        let table = fill_table(&mut k, &[("/data", m1), ("/nfs", m2)]).unwrap();
        assert!(table.memory().is_some());
        let rows = (0..k.device_count())
            .filter(|&d| table.device(DeviceId(d)).is_some())
            .count();
        assert_eq!(rows, 2);
        let d1 = table.device(k.device_of_mount(m1).unwrap()).unwrap();
        let d2 = table.device(k.device_of_mount(m2).unwrap()).unwrap();
        assert!(d1.latency < d2.latency, "disk beats NFS on latency");
        assert!(d1.bandwidth > d2.bandwidth, "disk beats NFS on bandwidth");
    }

    #[test]
    fn table2_calibration_is_pinned_to_the_bit() {
        // Every row `fill_table` measures on the Table 2 machine, and the
        // virtual time it took, as recorded when the probes stored every
        // byte: how a probe file holds its contents is host cost only.
        let mut k = Kernel::table2();
        for d in ["/data", "/cdrom", "/nfs"] {
            k.mkdir(d).unwrap();
        }
        let md = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let mc = k
            .mount_cdrom("/cdrom", CdRomDevice::table2_drive("cd0"))
            .unwrap();
        let mn = k
            .mount_nfs("/nfs", NfsDevice::table2_mount("srv:/exp"))
            .unwrap();
        let t0 = k.now();
        let table = fill_table(&mut k, &[("/data", md), ("/cdrom", mc), ("/nfs", mn)]).unwrap();
        let bits = |e: SledsEntry| (e.latency.to_bits(), e.bandwidth.to_bits());
        let row = |m: MountId| bits(table.device(k.device_of_mount(m).unwrap()).unwrap());
        let got = [
            bits(table.memory().unwrap()),
            (table.crossing_cpu().unwrap().to_bits(), 0),
            row(md),
            row(mc),
            row(mn),
        ];
        let want = [
            (0x3e8a_2c26_23ab_2ae0, 0x4186_cd40_6819_f8b8), // 195 ns, 47.8 MB/s
            (0x3ed4_f8b5_88e3_68f1, 0),                     // 5 us
            (0x3f91_2ddf_f4ad_f886, 0x4160_699c_fef4_efa7), // 16.8 ms, 8.60 MB/s
            (0x3fc0_d5f4_dc3e_0c89, 0x4144_a54d_8c59_4550), // 132 ms, 2.71 MB/s
            (0x3fd1_4405_7cdb_61a8, 0x412e_61a5_37c5_bb64), // 270 ms, 0.996 MB/s
        ];
        assert_eq!(got, want, "{got:#x?}");
        assert_eq!(
            (k.now() - t0).as_nanos(),
            52_775_147_080,
            "52.8 s of virtual time"
        );
    }

    #[test]
    fn zoned_table_orders_zones_and_anchors_to_measurement() {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let table = fill_table_zoned(&mut k, &[("/data", m)]).unwrap();
        let dev = k.device_of_mount(m).unwrap();
        assert!(table.zone_end(dev, 0).is_some(), "zone rows filled");
        let flat = table.device(dev).unwrap();
        let outer = table.entry_at(dev, 0).unwrap();
        let cap = k.device_capacity(dev).unwrap();
        let inner = table.entry_at(dev, cap - 1).unwrap();
        // Outer zone is anchored to the measured flat bandwidth.
        assert!((outer.bandwidth - flat.bandwidth).abs() < 1.0);
        // Inner zone is slower, in proportion to the disk's geometry
        // (170/260 sectors per track for the table2 disk).
        let ratio = inner.bandwidth / outer.bandwidth;
        assert!((0.6..0.72).contains(&ratio), "zone ratio {ratio}");
        assert_eq!(outer.latency, flat.latency);
    }

    #[test]
    fn probes_clean_up_after_themselves() {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        k.mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        measure_memory(&mut k, "/data").unwrap();
        measure_mount(&mut k, "/data").unwrap();
        assert!(k.readdir("/data").unwrap().is_empty());
        assert_eq!(k.cache_resident_pages(), 0, "caches dropped after probing");
    }
}
