use super::*;
use crate::inode::FileKind;
use sleds_devices::DiskDevice;
use sleds_sim_core::PAGE_SIZE;

fn kernel_with_disk() -> Kernel {
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    k
}

#[test]
fn mkdir_open_write_read_roundtrip() {
    let mut k = kernel_with_disk();
    let fd = k.open("/data/f", OpenFlags::CREATE).unwrap();
    assert_eq!(k.write(fd, b"hello world").unwrap(), 11);
    k.close(fd).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    assert_eq!(k.read(fd, 5).unwrap(), b"hello");
    assert_eq!(k.read(fd, 100).unwrap(), b" world");
    assert_eq!(k.read(fd, 100).unwrap(), b"");
    k.close(fd).unwrap();
}

#[test]
fn lseek_whence_semantics() {
    let mut k = kernel_with_disk();
    k.install_file("/data/f", b"0123456789").unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    assert_eq!(k.lseek(fd, 4, Whence::Set).unwrap(), 4);
    assert_eq!(k.read(fd, 2).unwrap(), b"45");
    assert_eq!(k.lseek(fd, -1, Whence::Cur).unwrap(), 5);
    assert_eq!(k.lseek(fd, -2, Whence::End).unwrap(), 8);
    assert_eq!(k.read(fd, 10).unwrap(), b"89");
    assert!(k.lseek(fd, -100, Whence::Cur).is_err());
}

#[test]
fn read_counts_major_then_minor_faults() {
    let mut k = kernel_with_disk();
    let data = vec![7u8; 8 * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, data.len()).unwrap();
    let u1 = k.usage();
    assert_eq!(u1.major_faults, 8);
    assert_eq!(u1.minor_faults, 0);
    k.lseek(fd, 0, Whence::Set).unwrap();
    k.read(fd, data.len()).unwrap();
    let u2 = k.usage();
    assert_eq!(u2.major_faults, 8, "warm re-read must not fault");
    assert_eq!(u2.minor_faults, 8);
}

#[test]
fn contiguous_misses_cluster_into_one_device_command() {
    let mut k = kernel_with_disk();
    let data = vec![1u8; 16 * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, data.len()).unwrap();
    let u = k.usage();
    assert_eq!(u.device_reads, 1, "one clustered command expected");
    assert_eq!(u.major_faults, 16);
}

#[test]
fn cold_sequential_faster_than_cold_random() {
    let mut k = kernel_with_disk();
    let pages = 64usize;
    let data = vec![2u8; pages * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    let t = k.start_job();
    k.read(fd, data.len()).unwrap();
    let seq = k.finish_job(&t).elapsed;
    k.drop_caches().unwrap();
    let t = k.start_job();
    // Same pages in a scattered order (i * 37 mod 64 visits every page
    // once, hopping around the track so each read pays rotation).
    for i in 0..pages {
        let p = (i * 37) % pages;
        k.lseek(fd, (p as i64) * PAGE_SIZE as i64, Whence::Set)
            .unwrap();
        k.read(fd, PAGE_SIZE as usize).unwrap();
    }
    let rand = k.finish_job(&t).elapsed;
    assert!(
        rand.as_secs_f64() > 3.0 * seq.as_secs_f64(),
        "scattered ({rand}) should be much slower than sequential ({seq})"
    );
}

#[test]
fn writes_dirty_pages_and_fsync_flushes() {
    let mut k = kernel_with_disk();
    let fd = k.open("/data/f", OpenFlags::CREATE).unwrap();
    let buf = vec![3u8; 4 * PAGE_SIZE as usize];
    k.write(fd, &buf).unwrap();
    assert_eq!(k.usage().device_writes, 0, "writes buffer in cache");
    k.fsync(fd).unwrap();
    assert!(k.usage().device_writes > 0, "fsync must hit the device");
}

#[test]
fn eviction_writes_back_dirty_pages() {
    let mut cfg = MachineConfig::table2();
    cfg.ram = sleds_sim_core::ByteSize::mib(1); // 168-page cache
    cfg.cache_fraction = 0.66;
    let mut k = Kernel::new(cfg);
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    let fd = k.open("/data/f", OpenFlags::CREATE).unwrap();
    // Write 2 MiB: far beyond the cache, forcing dirty eviction.
    let chunk = vec![4u8; 64 * 1024];
    for _ in 0..32 {
        k.write(fd, &chunk).unwrap();
    }
    assert!(
        k.usage().device_writes > 0,
        "dirty evictions must write back"
    );
}

#[test]
fn page_locations_reflect_cache_state() {
    let mut k = kernel_with_disk();
    let data = vec![5u8; 4 * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    let locs = k.page_locations(fd).unwrap();
    assert_eq!(locs.len(), 4);
    assert!(locs
        .iter()
        .all(|l| matches!(l, PageLocation::Device { .. })));
    // Read the middle two pages.
    k.lseek(fd, PAGE_SIZE as i64, Whence::Set).unwrap();
    k.read(fd, 2 * PAGE_SIZE as usize).unwrap();
    let locs = k.page_locations(fd).unwrap();
    assert!(matches!(locs[0], PageLocation::Device { .. }));
    assert_eq!(locs[1], PageLocation::Memory);
    assert_eq!(locs[2], PageLocation::Memory);
    assert!(matches!(locs[3], PageLocation::Device { .. }));
}

#[test]
fn install_file_lays_out_contiguously() {
    let mut k = kernel_with_disk();
    let data = vec![6u8; 4 * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    let locs = k.page_locations(fd).unwrap();
    let sectors: Vec<u64> = locs
        .iter()
        .map(|l| match l {
            PageLocation::Device { sector, .. } => *sector,
            PageLocation::Memory => panic!("expected device"),
        })
        .collect();
    for w in sectors.windows(2) {
        assert_eq!(w[1], w[0] + SECTORS_PER_PAGE);
    }
}

#[test]
fn fragmentation_breaks_contiguity() {
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    let m = k
        .mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    k.set_fragmentation(m, 4, 64, 99);
    let data = vec![6u8; 16 * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    let locs = k.page_locations(fd).unwrap();
    let sectors: Vec<u64> = locs
        .iter()
        .map(|l| match l {
            PageLocation::Device { sector, .. } => *sector,
            PageLocation::Memory => panic!("expected device"),
        })
        .collect();
    let gaps = sectors
        .windows(2)
        .filter(|w| w[1] != w[0] + SECTORS_PER_PAGE)
        .count();
    assert!(gaps >= 2, "expected fragmentation gaps, got {gaps}");
}

#[test]
fn unlink_removes_file_and_cache() {
    let mut k = kernel_with_disk();
    k.install_file("/data/f", &vec![0u8; PAGE_SIZE as usize])
        .unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, PAGE_SIZE as usize).unwrap();
    k.close(fd).unwrap();
    k.unlink("/data/f").unwrap();
    assert_eq!(k.cache_resident_pages(), 0);
    assert!(k.open("/data/f", OpenFlags::RDONLY).is_err());
}

#[test]
fn readdir_and_stat() {
    let mut k = kernel_with_disk();
    k.install_file("/data/a", b"xy").unwrap();
    k.install_file("/data/b", b"z").unwrap();
    k.mkdir("/data/sub").unwrap();
    let mut names = k.readdir("/data").unwrap();
    names.sort();
    assert_eq!(names, vec!["a", "b", "sub"]);
    let st = k.stat("/data/a").unwrap();
    assert_eq!(st.size, 2);
    assert_eq!(st.kind, FileKind::File);
    assert_eq!(k.stat("/data/sub").unwrap().kind, FileKind::Dir);
    assert_eq!(k.stat("/nope").unwrap_err().errno, Errno::Enoent);
}

#[test]
fn errors_bad_fd_and_modes() {
    let mut k = kernel_with_disk();
    k.install_file("/data/f", b"abc").unwrap();
    assert_eq!(k.read(Fd(77), 1).unwrap_err().errno, Errno::Ebadf);
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    assert_eq!(k.write(fd, b"x").unwrap_err().errno, Errno::Ebadf);
    let wfd = k.open("/data/g", OpenFlags::CREATE).unwrap();
    assert_eq!(k.read(wfd, 1).unwrap_err().errno, Errno::Ebadf);
}

#[test]
fn read_only_mount_rejects_writes() {
    let mut k = Kernel::table2();
    k.mkdir("/cdrom").unwrap();
    k.mount_cdrom("/cdrom", sleds_devices::CdRomDevice::table2_drive("cd0"))
        .unwrap();
    assert_eq!(
        k.open("/cdrom/x", OpenFlags::CREATE).unwrap_err().errno,
        Errno::Erofs
    );
}

#[test]
fn append_mode_writes_at_end() {
    let mut k = kernel_with_disk();
    let fd = k.open("/data/log", OpenFlags::CREATE).unwrap();
    k.write(fd, b"one").unwrap();
    k.close(fd).unwrap();
    let mut fl = OpenFlags::RDWR;
    fl.append = true;
    let fd = k.open("/data/log", fl).unwrap();
    k.write(fd, b"two").unwrap();
    k.lseek(fd, 0, Whence::Set).unwrap();
    assert_eq!(k.read(fd, 10).unwrap(), b"onetwo");
}

#[test]
fn partial_page_overwrite_faults_in_old_page() {
    let mut k = kernel_with_disk();
    let data = vec![9u8; 2 * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDWR).unwrap();
    // Overwrite 10 bytes in the middle of page 0: needs RMW fault.
    k.lseek(fd, 100, Whence::Set).unwrap();
    k.write(fd, b"0123456789").unwrap();
    assert_eq!(k.usage().major_faults, 1);
    // Contents merged correctly.
    k.lseek(fd, 98, Whence::Set).unwrap();
    let got = k.read(fd, 14).unwrap();
    assert_eq!(got, b"\x09\x090123456789\x09\x09");
}

#[test]
fn hsm_offline_stage_and_reread() {
    let mut k = Kernel::table2();
    k.mkdir("/hsm").unwrap();
    k.mount_hsm(
        "/hsm",
        Box::new(DiskDevice::table2_disk("hda")),
        Box::new(sleds_devices::TapeDevice::dlt("st0")),
        256,
    )
    .unwrap();
    let data = vec![8u8; 16 * PAGE_SIZE as usize];
    k.install_file("/hsm/f", &data).unwrap();
    assert!(!k.hsm_is_offline("/hsm/f").unwrap());
    k.hsm_migrate("/hsm/f", true).unwrap();
    assert!(k.hsm_is_offline("/hsm/f").unwrap());

    let fd = k.open("/hsm/f", OpenFlags::RDONLY).unwrap();
    let t = k.start_job();
    let got = k.read(fd, data.len()).unwrap();
    let rep = k.finish_job(&t);
    assert_eq!(got, data, "staged data must be intact");
    // Mount (40s) dominates.
    assert!(
        rep.elapsed >= SimDuration::from_secs(40),
        "{:?}",
        rep.elapsed
    );
    assert!(!k.hsm_is_offline("/hsm/f").unwrap(), "file now staged");

    // Second read: cached, fast.
    k.lseek(fd, 0, Whence::Set).unwrap();
    let t = k.start_job();
    k.read(fd, data.len()).unwrap();
    let rep = k.finish_job(&t);
    assert!(
        rep.elapsed < SimDuration::from_millis(50),
        "{:?}",
        rep.elapsed
    );
}

#[test]
fn truncate_resets_file() {
    let mut k = kernel_with_disk();
    k.install_file("/data/f", &vec![1u8; 3 * PAGE_SIZE as usize])
        .unwrap();
    let fd = k.open("/data/f", OpenFlags::CREATE).unwrap();
    assert_eq!(k.fstat(fd).unwrap().size, 0);
    k.write(fd, b"new").unwrap();
    assert_eq!(k.fstat(fd).unwrap().size, 3);
}

#[test]
fn job_reports_are_deltas() {
    let mut k = kernel_with_disk();
    k.install_file("/data/f", &vec![0u8; PAGE_SIZE as usize])
        .unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, 10).unwrap();
    let t = k.start_job();
    k.lseek(fd, 0, Whence::Set).unwrap();
    k.read(fd, 10).unwrap();
    let rep = k.finish_job(&t);
    assert_eq!(rep.usage.major_faults, 0, "page already cached");
    assert_eq!(rep.usage.minor_faults, 1);
    assert!(rep.elapsed > SimDuration::ZERO);
}

#[test]
fn readahead_converts_majors_to_hits() {
    let mut cfg = MachineConfig::table2();
    cfg.readahead_pages = 8;
    let mut k = Kernel::new(cfg);
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    let data = vec![1u8; 32 * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    // Page-at-a-time sequential reads.
    for _ in 0..32 {
        k.read(fd, PAGE_SIZE as usize).unwrap();
    }
    let u = k.usage();
    assert!(
        u.major_faults < 8,
        "readahead should absorb most faults, got {}",
        u.major_faults
    );
    assert!(u.minor_faults > 24);

    // Without readahead every page is a major fault.
    let mut k2 = kernel_with_disk();
    k2.install_file("/data/f", &data).unwrap();
    let fd = k2.open("/data/f", OpenFlags::RDONLY).unwrap();
    for _ in 0..32 {
        k2.read(fd, PAGE_SIZE as usize).unwrap();
    }
    assert_eq!(k2.usage().major_faults, 32);
}

#[test]
fn zero_length_read_is_empty() {
    let mut k = kernel_with_disk();
    k.install_file("/data/f", b"abc").unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    assert_eq!(k.read(fd, 0).unwrap(), b"");
    assert_eq!(k.pread(fd, 0, 0).unwrap(), b"");
}

#[test]
fn pread_does_not_move_offset() {
    let mut k = kernel_with_disk();
    k.install_file("/data/f", b"0123456789").unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    assert_eq!(k.pread(fd, 4, 3).unwrap(), b"456");
    assert_eq!(k.read(fd, 3).unwrap(), b"012");
}

#[test]
fn tracing_is_a_zero_cost_observer() {
    let run = |traced: bool| {
        let mut k = kernel_with_disk();
        if traced {
            k.enable_tracing();
        }
        let data = vec![7u8; 8 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let t = k.start_job();
        k.read(fd, data.len()).unwrap();
        k.lseek(fd, 0, Whence::Set).unwrap();
        k.read(fd, data.len()).unwrap();
        k.close(fd).unwrap();
        let rep = k.finish_job(&t);
        (rep.elapsed, rep.usage, k.trace_events())
    };
    let (e1, u1, ev1) = run(false);
    let (e2, u2, ev2) = run(true);
    assert_eq!(e1, e2, "tracing must not move the virtual clock");
    assert_eq!(u1, u2, "tracing must not perturb rusage");
    assert!(ev1.is_empty());
    assert!(!ev2.is_empty());
}

#[test]
fn traced_syscall_spans_balance_and_nest_device_work() {
    use sleds_trace::EventPhase;
    let mut k = kernel_with_disk();
    k.enable_tracing();
    let data = vec![1u8; 4 * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, data.len()).unwrap();
    k.close(fd).unwrap();
    let evs = k.trace_events();
    let begins = evs.iter().filter(|e| e.phase == EventPhase::Begin).count();
    let ends = evs.iter().filter(|e| e.phase == EventPhase::End).count();
    assert_eq!(begins, ends, "all spans closed");
    // The cold read's one clustered device command, with dur matching
    // the io_wait it charged.
    let io: SimDuration = evs
        .iter()
        .filter(|e| e.layer == Layer::Device && e.phase == EventPhase::Complete && e.args[1] > 0)
        .map(|e| e.dur)
        .sum();
    assert_eq!(io, k.usage().io_wait, "device spans account for io_wait");
    // The read End span carries the fd for the audit.
    let read_end = evs
        .iter()
        .find(|e| e.phase == EventPhase::End && e.name == "read")
        .expect("read span");
    assert_eq!(read_end.args[0], fd.0);
}

#[test]
fn fsleds_stat_snapshots_metrics() {
    let mut k = kernel_with_disk();
    k.enable_tracing();
    let data = vec![2u8; 4 * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, data.len()).unwrap();
    k.lseek(fd, 0, Whence::Set).unwrap();
    k.read(fd, data.len()).unwrap();
    let m = k.fsleds_stat(fd).unwrap();
    assert!(
        m.syscalls >= 4,
        "open+read+lseek+read traced: {}",
        m.syscalls
    );
    assert_eq!(m.cache_misses, 1, "one clustered miss run");
    assert_eq!(m.cache_hits, 4, "warm re-read hits every page");
    assert_eq!(m.device[1].reads, 1, "one disk command");
    assert!(m.device[1].service.sum() > 0);
    // Disabled tracing yields all-zero counters, not an error.
    let mut k2 = kernel_with_disk();
    k2.install_file("/data/f", b"x").unwrap();
    let fd2 = k2.open("/data/f", OpenFlags::RDONLY).unwrap();
    let m2 = k2.fsleds_stat(fd2).unwrap();
    assert_eq!(m2, Metrics::default());
}

#[test]
fn fsleds_recal_bumps_epoch_and_generation() {
    let mut k = kernel_with_disk();
    k.enable_tracing();
    let data = vec![3u8; 2 * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, data.len()).unwrap();
    assert_eq!(k.sleds_epoch(), 0);
    let g0 = k.sled_generation(fd).unwrap();
    let snap = k.fsleds_recal(fd).unwrap();
    assert_eq!(k.sleds_epoch(), 1);
    assert!(snap.device[1].reads >= 1, "snapshot sees the disk read");
    // The epoch bump invalidates every memoized SLED vector: the
    // generation stamp strictly advances even though the file's cache
    // residency and layout are untouched.
    let g1 = k.sled_generation(fd).unwrap();
    assert_eq!(g1, g0 + 1);
    // The recal fence is in the event stream for the audit.
    assert!(k
        .trace_events()
        .iter()
        .any(|e| e.name == "sleds.recal" && e.args[0] == 1));
    // Untraced: empty metrics, but the epoch still bumps so traced
    // and untraced runs stay in lockstep.
    let mut k2 = kernel_with_disk();
    k2.install_file("/data/f", b"x").unwrap();
    let fd2 = k2.open("/data/f", OpenFlags::RDONLY).unwrap();
    let m2 = k2.fsleds_recal(fd2).unwrap();
    assert_eq!(m2, Metrics::default());
    assert_eq!(k2.sleds_epoch(), 1);
}

#[test]
fn predict_reads_pairs_feed_accuracy_window() {
    let mut k = kernel_with_disk();
    k.enable_tracing();
    let data = vec![4u8; 2 * PAGE_SIZE as usize];
    k.install_file("/data/f", &data).unwrap();
    let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    k.trace_predict(fd, SimDuration::from_nanos(1_000_000), 0)
        .unwrap();
    k.read(fd, data.len()).unwrap();
    k.close(fd).unwrap();
    let fd2 = k.open("/data/f", OpenFlags::RDONLY).unwrap();
    let m = k.fsleds_stat(fd2).unwrap();
    assert_eq!(m.device[1].accuracy.len(), 1, "one audited pair");
    assert_eq!(m.accuracy_cross_generation, 0);
}

#[test]
fn trace_app_closes_its_span_when_the_body_bails_out() {
    let mut k = kernel_with_disk();
    k.enable_tracing();
    let r: SimResult<Fd> = k.trace_app("wc", |k| {
        let fd = k.open("/data/missing", OpenFlags::RDONLY)?;
        k.close(fd)?;
        Ok(fd)
    });
    assert_eq!(r.unwrap_err().errno, Errno::Enoent);
    let shape: Vec<_> = k
        .trace_events()
        .iter()
        .map(|e| (e.phase, e.layer, e.name))
        .collect();
    use sleds_trace::EventPhase::{Begin, End};
    assert_eq!(
        shape,
        [
            (Begin, Layer::App, "wc"),
            (Begin, Layer::Syscall, "open"),
            (End, Layer::Syscall, "open"),
            (End, Layer::App, "wc"),
        ]
    );
    // Balanced: the next span opens at depth zero, not inside "wc".
    k.trace_app("grep", |_| ());
    assert_eq!(k.metrics().unwrap().app_spans, 2);
}
