//! The syscall boundary, from outside: every [`Syscall`] variant behaves
//! identically through its typed method and through [`Kernel::syscall`],
//! and every entry the flight recorder cannot replay poisons a capture
//! under its own name.

use sleds_devices::{DiskDevice, FaultPlan};
use sleds_fs::{
    Capture, Fd, Kernel, MachineConfig, OpenFlags, PickProgram, ProgInst, SledsEntry, SledsTable,
    SubmissionRing, Syscall, SyscallRet, Whence,
};
use sleds_sim_core::{ByteSize, Errno, SimResult, PAGE_SIZE};

const PAGES: u64 = 12;

/// One disk mount with a 12-page file, cold, traced, capture armed.
fn kernel() -> Kernel {
    let mut k = Kernel::table2();
    k.mkdir("/d").unwrap();
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    let data: Vec<u8> = (0..PAGES * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    k.install_file("/d/f", &data).unwrap();
    k.enable_tracing();
    k.start_capture(256);
    k
}

fn pricing(k: &Kernel) -> SledsTable {
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(1e-7, 1e8));
    for d in 0..k.device_count() {
        t.fill_device(sleds_fs::DeviceId(d), SledsEntry::new(0.01, 5e6));
    }
    t
}

/// Runs `call` the way an application would: the typed method of the same
/// name, or — for the ring-only call and for a batch — a hand-driven
/// `SubmissionRing`.
fn typed(k: &mut Kernel, call: &Syscall) -> SimResult<SyscallRet> {
    let batch = |k: &mut Kernel, capacity: usize, ops: &[(u64, Syscall)]| {
        let mut ring = SubmissionRing::with_tenant(capacity, k.active_tenant());
        for (user_data, op) in ops {
            ring.push(*user_data, op.clone())?;
        }
        k.ring_enter(&mut ring)?;
        Ok(k.ring_reap(&mut ring))
    };
    match call {
        Syscall::Open { path, flags } => k.open(path, *flags).map(SyscallRet::Fd),
        Syscall::Close { fd } => k.close(*fd).map(|()| SyscallRet::Unit),
        Syscall::Lseek { fd, offset, whence } => {
            k.lseek(*fd, *offset, *whence).map(SyscallRet::Count)
        }
        Syscall::Read { fd, len } => k.read(*fd, *len).map(SyscallRet::Bytes),
        Syscall::Pread { fd, pos, len } => k.pread(*fd, *pos, *len).map(SyscallRet::Bytes),
        Syscall::Write { fd, data } => k.write(*fd, data).map(|n| SyscallRet::Count(n as u64)),
        Syscall::Fsync { fd } => k.fsync(*fd).map(|()| SyscallRet::Unit),
        Syscall::Stat { path } => k.stat(path).map(SyscallRet::Stat),
        Syscall::Fstat { fd } => k.fstat(*fd).map(SyscallRet::Stat),
        Syscall::Mkdir { path } => k.mkdir(path).map(|()| SyscallRet::Unit),
        Syscall::Readdir { path } => k.readdir(path).map(SyscallRet::Names),
        Syscall::Unlink { path } => k.unlink(path).map(|()| SyscallRet::Unit),
        Syscall::TenantRegister { name } => Ok(SyscallRet::Tenant(k.tenant_register(name))),
        Syscall::RingEnter { capacity, ops } => {
            batch(k, *capacity, ops).map(SyscallRet::Completions)
        }
        // No typed form: the application pushes it onto a ring.
        Syscall::FsledsGet { .. } => {
            let done = batch(k, 1, &[(0, call.clone())])?;
            done.into_iter().next().expect("one completion").result
        }
    }
}

/// The same call through the owned door. The ring-only call goes in as a
/// one-op batch, which is the only way the door accepts it.
fn owned(k: &mut Kernel, call: &Syscall) -> SimResult<SyscallRet> {
    if !matches!(call, Syscall::FsledsGet { .. }) {
        return k.syscall(call);
    }
    let batch = Syscall::RingEnter {
        capacity: 1,
        ops: vec![(0, call.clone())],
    };
    match k.syscall(&batch)? {
        SyscallRet::Completions(done) => done.into_iter().next().expect("one completion").result,
        other => panic!("ring_enter returned {other:?}"),
    }
}

/// Steps twin kernels through `calls`, one by the typed surface and one by
/// `Kernel::syscall`, asserting after every call that nothing observable
/// differs; returns both finished captures.
fn run_twins(calls: &[Syscall]) -> (Capture, Capture) {
    let (mut a, mut b) = (kernel(), kernel());
    for call in calls {
        let name = call.name();
        assert_eq!(typed(&mut a, call), owned(&mut b, call), "{name}: result");
        assert_eq!(a.now(), b.now(), "{name}: clock");
        assert_eq!(a.usage(), b.usage(), "{name}: rusage");
        assert_eq!(a.trace_events(), b.trace_events(), "{name}: trace");
    }
    (a.stop_capture().unwrap(), b.stop_capture().unwrap())
}

#[test]
fn every_variant_is_identical_through_both_surfaces() {
    // The first open on a fresh kernel returns fd 3; the second, fd 4.
    let (fd, wfd, bad) = (Fd(3), Fd(4), Fd(99));
    let path = |p: &str| p.to_string();
    let calls = vec![
        Syscall::TenantRegister {
            name: "worker".into(),
        },
        Syscall::Mkdir {
            path: path("/d/sub"),
        },
        Syscall::Mkdir {
            path: path("/d/sub"),
        }, // EEXIST
        Syscall::Open {
            path: path("/d/f"),
            flags: OpenFlags::RDONLY,
        },
        Syscall::Open {
            path: path("/d/missing"),
            flags: OpenFlags::RDONLY,
        }, // ENOENT
        Syscall::Stat { path: path("/d/f") },
        Syscall::Fstat { fd },
        Syscall::Readdir { path: path("/d") },
        Syscall::Read {
            fd,
            len: 3 * PAGE_SIZE as usize,
        },
        Syscall::Lseek {
            fd,
            offset: -(PAGE_SIZE as i64),
            whence: Whence::End,
        },
        Syscall::Lseek {
            fd,
            offset: -1,
            whence: Whence::Set,
        }, // EINVAL
        Syscall::Pread {
            fd,
            pos: 6 * PAGE_SIZE,
            len: 2 * PAGE_SIZE as usize,
        },
        Syscall::Pread {
            fd: bad,
            pos: 0,
            len: 1,
        }, // EBADF
        Syscall::Open {
            path: path("/d/sub/w"),
            flags: OpenFlags::CREATE_RDWR,
        },
        Syscall::Write {
            fd: wfd,
            data: vec![7; 5000].into(),
        },
        Syscall::Fsync { fd: wfd },
        Syscall::RingEnter {
            capacity: 4,
            ops: vec![
                (10, Syscall::Stat { path: path("/d/f") }),
                (
                    11,
                    Syscall::Pread {
                        fd,
                        pos: 9 * PAGE_SIZE,
                        len: PAGE_SIZE as usize,
                    },
                ),
                (12, Syscall::Close { fd: wfd }),
                (
                    13,
                    Syscall::Open {
                        path: path("/d/sub/w"),
                        flags: OpenFlags::RDONLY,
                    },
                ),
            ],
        },
        Syscall::Unlink {
            path: path("/d/sub/w"),
        },
        Syscall::Close { fd },
        Syscall::Close { fd }, // EBADF
    ];
    let (typed_cap, owned_cap) = run_twins(&calls);
    assert!(typed_cap.complete, "{:?}", typed_cap.incomplete_reason);
    assert_eq!(typed_cap, owned_cap, "recorded ops");
    // One recorded op per call, and it is the call that was made.
    let recorded: Vec<&Syscall> = typed_cap.ops.iter().map(|op| &op.call).collect();
    assert_eq!(recorded, calls.iter().collect::<Vec<_>>());
    // Every capturable variant was exercised.
    let mut seen: Vec<&str> = calls.iter().map(Syscall::name).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 14);
}

#[test]
fn ring_only_variants_are_identical_and_poison_under_their_own_name() {
    let open = Syscall::Open {
        path: "/d/f".into(),
        flags: OpenFlags::RDONLY,
    };
    let call = Syscall::FsledsGet {
        fd: Fd(3),
        pricing: pricing(&kernel()),
    };
    assert_eq!(call.name(), "ring.fsleds_get");
    let (typed_cap, owned_cap) = run_twins(&[open, call.clone()]);
    assert_eq!(typed_cap, owned_cap);
    assert!(!typed_cap.complete);
    let reason = typed_cap.incomplete_reason.unwrap();
    assert!(reason.ends_with("ring.fsleds_get"), "{reason}");

    // Outside a ring the door refuses it before charging anything.
    let mut k = kernel();
    let (t0, u0) = (k.now(), k.usage());
    let err = k.syscall(&call).unwrap_err();
    assert_eq!(err.errno, Errno::Einval);
    assert_eq!((k.now(), k.usage()), (t0, u0));
    assert!(k.stop_capture().unwrap().complete);
}

#[test]
fn calls_with_no_ring_form_are_refused_at_push() {
    let mut k = kernel();
    let before = k.usage();
    let batch = Syscall::RingEnter {
        capacity: 4,
        ops: vec![(0, Syscall::Fsync { fd: Fd(3) })],
    };
    assert_eq!(k.syscall(&batch).unwrap_err().errno, Errno::Einval);
    assert_eq!(k.usage(), before, "refused before the trap");
}

/// Every kernel entry the recorder cannot replay, with the label a
/// poisoned capture must blame. Each runs against a fresh kernel with
/// `/d/f` open as fd 3.
type Unrecordable = (&'static str, fn(&mut Kernel, Fd));

const UNRECORDABLE: &[Unrecordable] = &[
    ("ioctl.fsleds_stat", |k, fd| drop(k.fsleds_stat(fd))),
    ("ioctl.fsleds_recal", |k, fd| drop(k.fsleds_recal(fd))),
    ("ioctl.fsleds_get", |k, fd| drop(k.redundant_extents(fd))),
    ("ioctl.fsleds_walk", |k, _| {
        let prog = PickProgram::new(vec![ProgInst::PushConst(1.0)]).unwrap();
        let pricing = pricing(k);
        drop(k.fsleds_walk("/d", &prog, &pricing));
    }),
    ("apply_fault_plan", |k, _| {
        k.apply_fault_plan(&FaultPlan::new())
    }),
    ("set_fragmentation", |k, _| {
        let m = k.stat("/d").unwrap().mount.unwrap();
        // `stat` above is captured; only the setup mutation poisons.
        k.set_fragmentation(m, 4, 2, 1);
    }),
    ("raw_device_read", |k, _| {
        let dev = k.stat("/d").unwrap().dev.unwrap();
        // `stat` above is captured; the raw read charges I/O outside any
        // syscall, which replay would mistake for think time.
        k.raw_device_read(dev, 0, 8).unwrap();
    }),
    ("drop_caches", |k, _| drop(k.drop_caches())),
    ("hsm_migrate", |k, _| drop(k.hsm_migrate("/d/f", true))),
    ("install_file", |k, _| drop(k.install_file("/d/g", b"x"))),
    ("install_sparse_file", |k, _| {
        drop(k.install_sparse_file("/d/g", PAGE_SIZE))
    }),
    ("warm_file_pages", |k, _| {
        drop(k.warm_file_pages("/d/f", 0, 1))
    }),
    ("poke_file", |k, _| drop(k.poke_file("/d/f", 0, b"x"))),
    ("advance_allocator", |k, _| {
        let m = k.stat("/d").unwrap().mount.unwrap();
        drop(k.advance_allocator(m, 1));
    }),
];

#[test]
fn each_unrecordable_entry_poisons_under_its_own_name() {
    for (label, entry) in UNRECORDABLE {
        let mut k = kernel();
        let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
        entry(&mut k, fd);
        let cap = k.stop_capture().unwrap();
        assert!(!cap.complete, "{label} must poison");
        assert_eq!(
            cap.incomplete_reason.as_deref(),
            Some(format!("uncapturable call during capture: {label}").as_str())
        );
    }
}

#[test]
fn aio_swap_charge_poisons_under_its_own_name() {
    // A file larger than RAM: the posted buffers overflow and swap.
    let mut cfg = MachineConfig::table2();
    cfg.ram = ByteSize::mib(1);
    let mut k = Kernel::new(cfg);
    k.mkdir("/d").unwrap();
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    k.install_file("/d/f", &vec![1u8; 2 << 20]).unwrap();
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    k.start_capture(256);
    k.aio_read_file(fd, 64 << 10, 1).unwrap();
    let reason = k.stop_capture().unwrap().incomplete_reason.unwrap();
    assert_eq!(reason, "uncapturable call during capture: aio_read_file");
}

#[test]
fn residency_queries_are_charged_but_leave_a_capture_complete() {
    let mut k = kernel();
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    let before = k.usage().syscalls;
    k.sled_generation(fd).unwrap();
    k.page_eviction_ranks(fd).unwrap();
    assert_eq!(k.usage().syscalls, before + 2);
    let cap = k.stop_capture().unwrap();
    assert!(cap.complete);
    assert_eq!(cap.ops.len(), 1, "only the open was recorded");
}
