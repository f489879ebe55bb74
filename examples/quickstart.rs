//! Quickstart: boot a simulated machine, ask a file for its SLEDs, and read
//! it in the latency-aware order. Asserts what it prints: three SLEDs
//! (disk, the warmed middle in memory, disk), a reordered estimate below
//! front-to-back, a plan that starts in the cached middle and covers the
//! file once in eight 256 KiB reads, and 256 major faults for the cold
//! ends.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sleds_repro::devices::DiskDevice;
use sleds_repro::fs::{Kernel, OpenFlags, Whence};
use sleds_repro::lmbench;
use sleds_repro::sim_core::units::KIB;
use sleds_repro::sleds::{
    fsleds_get, total_delivery_time, AttackPlan, PickConfig, PickSession, SledReport,
};

fn main() {
    // Boot the paper's 64 MiB test machine and mount a late-90s disk.
    let mut kernel = Kernel::table2();
    kernel.mkdir("/data").expect("mkdir");
    let mount = kernel
        .mount_disk("/data", DiskDevice::table2_disk("hda"))
        .expect("mount");

    // The "boot script": calibrate every level with lmbench and fill the
    // sleds table (the FSLEDS_FILL ioctl of the paper).
    let table = lmbench::fill_table(&mut kernel, &[("/data", mount)]).expect("calibration");

    // A 2 MiB file; warm the middle 1 MiB so the cache state is interesting.
    let data = vec![42u8; 2 << 20];
    kernel
        .install_file("/data/demo.bin", &data)
        .expect("install");
    let fd = kernel
        .open("/data/demo.bin", OpenFlags::RDONLY)
        .expect("open");
    kernel.lseek(fd, 512 << 10, Whence::Set).expect("seek");
    kernel.read(fd, 1 << 20).expect("warm read");

    // FSLEDS_GET: what would it cost to read this file right now?
    let sleds = fsleds_get(&mut kernel, fd, &table).expect("FSLEDS_GET");
    let spans: Vec<(u64, u64)> = sleds.iter().map(|s| (s.offset, s.end())).collect();
    assert_eq!(
        spans,
        [
            (0, 512 * KIB),
            (512 * KIB, 1536 * KIB),
            (1536 * KIB, 2048 * KIB)
        ]
    );
    let in_memory: Vec<bool> = sleds
        .iter()
        .map(|s| s.latency < SledReport::MEMORY_LATENCY_CUTOFF)
        .collect();
    assert_eq!(in_memory, [false, true, false], "disk, memory, disk");
    assert!(sleds[0].same_level(&sleds[2]), "both ends on the one disk");
    println!("{}", SledReport::new("/data/demo.bin", sleds));
    let linear = total_delivery_time(&mut kernel, &table, fd, AttackPlan::Linear).unwrap();
    let best = total_delivery_time(&mut kernel, &table, fd, AttackPlan::Best).unwrap();
    assert!(best < linear, "reordering must beat front-to-back");
    println!("delivery estimate: {linear:.4}s front-to-back, {best:.4}s reordered\n");

    // Read the file in pick order: cached middle first, then the cold ends.
    let mut pick =
        PickSession::init(&mut kernel, &table, fd, PickConfig::bytes(256 << 10)).expect("init");
    let job = kernel.start_job();
    println!("pick order (offset, length):");
    let mut reads = Vec::new();
    while let Some((offset, len)) = pick.next_read() {
        println!("  {offset:>8} {len:>8}");
        kernel.lseek(fd, offset as i64, Whence::Set).expect("seek");
        kernel.read(fd, len).expect("read");
        reads.push((offset, len as u64));
    }
    pick.finish();
    let report = kernel.finish_job(&job);
    assert_eq!(reads[0].0, 512 * KIB, "the cached middle comes first");
    reads.sort_unstable();
    let tiles: Vec<(u64, u64)> = (0..8).map(|i| (i * 256 * KIB, 256 * KIB)).collect();
    assert_eq!(reads, tiles, "eight 256 KiB reads cover the file once");
    assert_eq!(report.usage.major_faults, 256, "only the cold ends fault");
    println!(
        "\nread 2 MiB in {} ({} major faults, {} cache hits)",
        report.elapsed, report.usage.major_faults, report.usage.minor_faults
    );
    kernel.close(fd).expect("close");
}
