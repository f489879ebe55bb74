//! Stale and edge file descriptors never panic.
//!
//! The descriptor table is a sliding window over fd numbers, so the
//! interesting fds are the ones around its edges: the reserved 0..2, one
//! that was closed, one below the oldest open fd (behind the window), the
//! next number to be issued (just past it) and `u64::MAX`. Every entry that
//! takes an fd must answer `EBADF` for each. Fd numbering itself is part of
//! the capture format: strictly increasing, never reused.

use sleds_devices::DiskDevice;
use sleds_fs::{Fd, Kernel, OpenFlags, SledsEntry, SledsTable, SubmissionRing, Syscall, Whence};
use sleds_sim_core::{Errno, SimResult, PAGE_SIZE};

fn kernel_with_files() -> Kernel {
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    for name in ["a", "b", "c"] {
        k.install_file(&format!("/data/{name}"), &vec![5u8; 2 * PAGE_SIZE as usize])
            .unwrap();
    }
    k
}

fn pricing() -> SledsTable {
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t
}

fn errno_of<T>(r: SimResult<T>) -> Option<Errno> {
    r.err().map(|e| e.errno)
}

/// The errno each fd-taking entry returns for `fd`, labelled. A refused
/// `FSLEDS_RECAL` must not move the sleds epoch.
fn every_entry(k: &mut Kernel, fd: Fd) -> Vec<(&'static str, Option<Errno>)> {
    let epoch = k.sleds_epoch();
    let mut out = vec![
        ("lseek", errno_of(k.lseek(fd, 0, Whence::Set))),
        ("read", errno_of(k.read(fd, 16))),
        ("pread", errno_of(k.pread(fd, 0, 16))),
        ("write", errno_of(k.write(fd, b"x"))),
        ("fsync", errno_of(k.fsync(fd))),
        ("fstat", errno_of(k.fstat(fd))),
        ("redundant_extents", errno_of(k.redundant_extents(fd))),
        ("sled_generation", errno_of(k.sled_generation(fd))),
        ("fsleds_stat", errno_of(k.fsleds_stat(fd))),
        ("fsleds_recal", errno_of(k.fsleds_recal(fd))),
        ("serving_class_code", errno_of(k.serving_class_code(fd))),
        ("page_eviction_ranks", errno_of(k.page_eviction_ranks(fd))),
        (
            "page_locations_per_page_reference",
            errno_of(k.page_locations_per_page_reference(fd)),
        ),
    ];
    assert_eq!(k.sleds_epoch(), epoch, "refused FSLEDS_RECAL({})", fd.0);
    // The ring-only call, and a ring `Close`.
    let mut ring = SubmissionRing::new(4);
    let ops = [
        (
            "ring FsledsGet",
            Syscall::FsledsGet {
                fd,
                pricing: pricing(),
            },
        ),
        ("ring Close", Syscall::Close { fd }),
    ];
    for (i, (_, op)) in ops.iter().enumerate() {
        ring.push(i as u64, op.clone()).unwrap();
    }
    assert_eq!(k.ring_enter(&mut ring).unwrap(), ops.len());
    for (done, (name, _)) in k.ring_reap(&mut ring).into_iter().zip(ops) {
        out.push((name, errno_of(done.result)));
    }
    out.push(("close", errno_of(k.close(fd))));
    out
}

#[test]
fn stale_and_edge_fds_are_ebadf_at_every_entry() {
    let mut k = kernel_with_files();
    // Window state: `low` closed below the oldest open fd, `held` open,
    // `closed` closed above it.
    let low = k.open("/data/a", OpenFlags::RDONLY).unwrap();
    let held = k.open("/data/b", OpenFlags::RDONLY).unwrap();
    let closed = k.open("/data/c", OpenFlags::RDONLY).unwrap();
    k.close(low).unwrap();
    k.close(closed).unwrap();
    let next_fd = Fd(closed.0 + 1);

    for fd in [Fd(0), Fd(2), low, closed, next_fd, Fd(u64::MAX)] {
        for (entry, errno) in every_entry(&mut k, fd) {
            assert_eq!(errno, Some(Errno::Ebadf), "{entry}({})", fd.0);
        }
    }
    // None of that disturbed the descriptor that is open.
    assert_eq!(k.pread(held, 0, 4).unwrap(), vec![5u8; 4]);
    assert_eq!(
        k.open("/data/a", OpenFlags::RDONLY).unwrap(),
        next_fd,
        "failed calls issue no fd numbers"
    );

    // With nothing open at all the window is empty: same answers.
    let mut k = kernel_with_files();
    for fd in [Fd(0), Fd(3), Fd(u64::MAX)] {
        for (entry, errno) in every_entry(&mut k, fd) {
            assert_eq!(errno, Some(Errno::Ebadf), "{entry}({}) on no fds", fd.0);
        }
    }
}

#[test]
fn fd_numbers_strictly_increase_and_are_never_reused() {
    let mut k = kernel_with_files();
    let first = k.open("/data/a", OpenFlags::RDONLY).unwrap();
    assert_eq!(first, Fd(3), "0..2 are reserved");
    k.close(first).unwrap();
    let second = k.open("/data/a", OpenFlags::RDONLY).unwrap();
    assert_eq!(second, Fd(4), "open; close; open must not reuse the number");
    let third = k.open("/data/b", OpenFlags::RDONLY).unwrap();
    k.close(second).unwrap();
    let fourth = k.open("/data/c", OpenFlags::RDONLY).unwrap();
    assert!(second.0 < third.0 && third.0 < fourth.0);
    assert_eq!(errno_of(k.fstat(second)), Some(Errno::Ebadf));
    assert!(k.fstat(third).is_ok() && k.fstat(fourth).is_ok());
}

#[test]
fn an_fd_whose_inode_was_unlinked_is_estale() {
    let mut k = kernel_with_files();
    let fd = k.open("/data/a", OpenFlags::RDWR).unwrap();
    k.unlink("/data/a").unwrap();
    assert_eq!(errno_of(k.read(fd, 16)), Some(Errno::Estale));
    assert_eq!(errno_of(k.pread(fd, 0, 16)), Some(Errno::Estale));
    assert_eq!(errno_of(k.fstat(fd)), Some(Errno::Estale));
    assert_eq!(errno_of(k.redundant_extents(fd)), Some(Errno::Estale));
    // The descriptor itself is still open, and closes once.
    k.close(fd).unwrap();
    assert_eq!(errno_of(k.close(fd)), Some(Errno::Ebadf));
}

/// `read`/`pread` at the edges of a file's window: every `pos` around the
/// size and at the end of the number line, every `len` from nothing to
/// `usize::MAX`, on a stored file, a sparse file (whose reads carry no
/// buffer) and a sparse file with a stored prefix. Each call returns
/// exactly the bytes of the file image it overlaps — none at or past the
/// size — moves `bytes_read` (and, for `read`, the offset) by that many, and
/// overflows nowhere: this runs in debug, where an unsaturated `pos + len`
/// would panic.
#[test]
fn reads_at_the_edges_of_the_window_are_exact_and_never_overflow() {
    const SIZE: u64 = PAGE_SIZE + 904;
    const PREFIX: usize = 1000;
    let stored: Vec<u8> = (0..SIZE).map(|i| (i % 251) as u8 + 1).collect();
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    k.install_file("/data/stored", &stored).unwrap();
    k.install_sparse_file("/data/sparse", SIZE).unwrap();
    k.install_sparse_file("/data/mixed", SIZE).unwrap();
    let fd = k.open("/data/mixed", OpenFlags::RDWR).unwrap();
    k.write(fd, &stored[..PREFIX]).unwrap();
    k.close(fd).unwrap();
    let mut mixed = stored[..PREFIX].to_vec();
    mixed.resize(SIZE as usize, 0);

    let lens = [0, 1, PAGE_SIZE as usize, SIZE as usize, usize::MAX];
    for (path, image) in [
        ("/data/stored", &stored),
        ("/data/sparse", &vec![0; SIZE as usize]),
        ("/data/mixed", &mixed),
    ] {
        let fd = k.open(path, OpenFlags::RDONLY).unwrap();
        for pos in [0, PREFIX as u64, SIZE - 1, SIZE, SIZE + 1, u64::MAX] {
            for len in lens {
                let start = pos.min(SIZE) as usize;
                let want = &image[start..start + len.min(SIZE as usize - start)];
                let before = k.usage().bytes_read;
                let got = k.pread(fd, pos, len).unwrap();
                assert_eq!(got.len(), want.len(), "{path}: pread({pos}, {len})");
                assert_eq!(got, want, "{path}: pread({pos}, {len})");
                assert_eq!(got.is_empty(), want.is_empty());
                assert_eq!(k.usage().bytes_read - before, want.len() as u64);
                assert_eq!(k.lseek(fd, 0, Whence::Cur).unwrap(), 0, "pread moved");

                // The sequential form, from wherever `lseek` can put it.
                let Ok(at) = i64::try_from(pos) else { continue };
                k.lseek(fd, at, Whence::Set).unwrap();
                let before = k.usage().bytes_read;
                let got = k.read(fd, len).unwrap();
                assert_eq!(got, want, "{path}: read({len}) at {pos}");
                assert_eq!(k.usage().bytes_read - before, want.len() as u64);
                let end = k.lseek(fd, 0, Whence::Cur).unwrap();
                assert_eq!(end, pos + want.len() as u64, "{path}: offset");
                k.lseek(fd, 0, Whence::Set).unwrap();
            }
        }
        // As far out as a sequential offset goes.
        k.lseek(fd, i64::MAX, Whence::Set).unwrap();
        for len in lens {
            assert!(k.read(fd, len).unwrap().is_empty());
        }
        assert_eq!(k.lseek(fd, 0, Whence::Cur).unwrap(), i64::MAX as u64);
        k.close(fd).unwrap();
    }
}

/// `poke_file` overwrites stored bytes only. A sparse install stores none
/// and a stored prefix stops short of the size, so a poke reaching past
/// what is stored is `EINVAL` — the hole is not materialized for it — and
/// never an out-of-range slice: at the first byte, the last stored one, the
/// first unstored one, the size and the end of the number line, on a
/// stored file, a sparse one and a sparse one with a stored prefix.
#[test]
fn poke_file_answers_einval_past_the_stored_bytes_and_never_panics() {
    const SIZE: u64 = PAGE_SIZE + 904;
    const PREFIX: u64 = 1000;
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    k.install_file("/data/stored", &vec![7u8; SIZE as usize])
        .unwrap();
    k.install_sparse_file("/data/sparse", SIZE).unwrap();
    k.install_sparse_file("/data/mixed", SIZE).unwrap();
    let fd = k.open("/data/mixed", OpenFlags::RDWR).unwrap();
    k.write(fd, &vec![7u8; PREFIX as usize]).unwrap();
    k.close(fd).unwrap();

    for (path, stored) in [
        ("/data/stored", SIZE),
        ("/data/sparse", 0),
        ("/data/mixed", PREFIX),
    ] {
        for offset in [0, stored.saturating_sub(1), stored, SIZE, u64::MAX] {
            for data in [&b""[..], b"x", b"xy"] {
                let fits = offset
                    .checked_add(data.len() as u64)
                    .is_some_and(|end| end <= stored);
                let got = errno_of(k.poke_file(path, offset, data));
                let want = if fits { None } else { Some(Errno::Einval) };
                assert_eq!(got, want, "{path}: poke({offset}, {} B)", data.len());
            }
        }
        // What fitted landed, and nothing else moved: the size, and the
        // zeros a read finds past the stored bytes.
        let fd = k.open(path, OpenFlags::RDONLY).unwrap();
        assert_eq!(k.fstat(fd).unwrap().size, SIZE, "{path}");
        let image = k.pread(fd, 0, SIZE as usize).unwrap();
        let mut want = vec![7u8; stored as usize];
        if let [first, second, .., last] = &mut want[..] {
            (*first, *second, *last) = (b'x', b'y', b'x');
        }
        want.resize(SIZE as usize, 0);
        assert_eq!(image, want, "{path}");
        k.close(fd).unwrap();
    }
}
