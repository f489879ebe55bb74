//! Reads share a file's stored bytes; writes copy them first.
//!
//! A read that finds only stored bytes returns the file's own buffer and a
//! range of it, not a copy. Every case here holds such a payload across a
//! change to the same bytes — `write`, a write through a second
//! descriptor, an `O_TRUNC` reopen, `poke_file`, a truncating open later
//! in the same ring batch — and checks that the payload keeps the bytes it
//! was given while a later read sees the new ones. Files installed with
//! equal bytes share one buffer in the same way. A generated sequence of
//! reads, writes, pokes, truncations and re-installs over two such files,
//! every payload kept alive to the end, is checked against one `Vec<u8>`
//! model per file.

use sleds_devices::DiskDevice;
use sleds_fs::{Fd, Kernel, OpenFlags, Payload, SubmissionRing, Syscall, SyscallRet, Whence};
use sleds_sim_core::{check, DetRng, PAGE_SIZE};

const PATH: &str = "/data/f";
/// A second file, installed with the same bytes as [`PATH`] by the
/// generated sequence.
const OTHER: &str = "/data/g";
const LEN: usize = 3 * PAGE_SIZE as usize;

fn contents() -> Vec<u8> {
    (0..LEN).map(|i| (i % 251) as u8).collect()
}

/// A kernel holding [`PATH`], fully stored, with [`contents`].
fn kernel() -> Kernel {
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    k.mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    k.install_file(PATH, &contents()).unwrap();
    k
}

fn read_at(k: &mut Kernel, pos: u64, len: usize) -> Payload {
    let fd = k.open(PATH, OpenFlags::RDONLY).unwrap();
    let out = k.pread(fd, pos, len).unwrap();
    k.close(fd).unwrap();
    out
}

fn write_at(k: &mut Kernel, fd: Fd, pos: u64, bytes: &[u8]) {
    k.lseek(fd, i64::try_from(pos).unwrap(), Whence::Set)
        .unwrap();
    assert_eq!(k.write(fd, bytes).unwrap(), bytes.len());
}

#[test]
fn a_payload_keeps_its_bytes_across_a_write() {
    let mut k = kernel();
    let fd = k.open(PATH, OpenFlags::RDWR).unwrap();
    k.lseek(fd, 100, Whence::Set).unwrap();
    let before = k.read(fd, 200).unwrap();
    write_at(&mut k, fd, 100, &[0xee; 200]);
    assert_eq!(before, contents()[100..300]);
    assert_eq!(read_at(&mut k, 100, 200), vec![0xee; 200]);
    k.close(fd).unwrap();
}

#[test]
fn a_payload_keeps_its_bytes_across_a_write_through_another_fd() {
    let mut k = kernel();
    let reader = k.open(PATH, OpenFlags::RDONLY).unwrap();
    let before = k.pread(reader, 4000, 300).unwrap();
    let writer = k.open(PATH, OpenFlags::RDWR).unwrap();
    write_at(&mut k, writer, 4000, &[1; 300]);
    assert_eq!(before, contents()[4000..4300]);
    assert_eq!(k.pread(reader, 4000, 300).unwrap(), vec![1; 300]);
}

#[test]
fn a_payload_keeps_its_bytes_across_a_truncating_reopen() {
    let mut k = kernel();
    let before = read_at(&mut k, 0, LEN);
    let fd = k.open(PATH, OpenFlags::CREATE_RDWR).unwrap();
    assert_eq!(before, contents());
    assert!(k.pread(fd, 0, LEN).unwrap().is_empty());
    // Written again from empty, the file holds only the new bytes.
    write_at(&mut k, fd, 0, b"fresh");
    assert_eq!(k.pread(fd, 0, LEN).unwrap(), b"fresh");
    assert_eq!(before, contents());
}

#[test]
fn a_payload_keeps_its_bytes_across_a_poke() {
    let mut k = kernel();
    let before = read_at(&mut k, 10, 20);
    k.poke_file(PATH, 10, b"poked").unwrap();
    assert_eq!(before, contents()[10..30]);
    let mut want = contents()[10..30].to_vec();
    want[..5].copy_from_slice(b"poked");
    assert_eq!(read_at(&mut k, 10, 20), want);
}

#[test]
fn a_ring_completion_holds_the_bytes_from_before_a_later_op_in_its_batch() {
    let mut k = kernel();
    let fd = k.open(PATH, OpenFlags::RDONLY).unwrap();
    let mut ring = SubmissionRing::new(4);
    ring.push(
        0,
        Syscall::Pread {
            fd,
            pos: 500,
            len: 1000,
        },
    )
    .unwrap();
    // Writes have no ring form; a truncating open changes the same bytes
    // from inside the batch.
    ring.push(
        1,
        Syscall::Open {
            path: PATH.to_string(),
            flags: OpenFlags::CREATE_RDWR,
        },
    )
    .unwrap();
    assert_eq!(k.ring_enter(&mut ring).unwrap(), 2);
    let done = k.ring_reap(&mut ring);
    let Ok(SyscallRet::Bytes(bytes)) = &done[0].result else {
        panic!("pread completion: {:?}", done[0].result);
    };
    let Ok(SyscallRet::Fd(writer)) = done[1].result else {
        panic!("open completion: {:?}", done[1].result);
    };
    assert_eq!(*bytes, contents()[500..1500]);
    write_at(&mut k, writer, 0, &[9; 1500]);
    assert_eq!(k.pread(fd, 500, 1000).unwrap(), vec![9; 1000]);
    assert_eq!(*bytes, contents()[500..1500]);
}

/// One step of the generated sequence, on one of its two files.
enum Step {
    Read {
        pos: u64,
        len: usize,
    },
    Write {
        pos: u64,
        bytes: Vec<u8>,
    },
    Poke {
        pos: u64,
        bytes: Vec<u8>,
    },
    Truncate,
    /// Unlink the file and install it again with [`contents`].
    Reinstall,
}

/// One to `max` random bytes.
fn bytes(rng: &mut DetRng, max: usize) -> Vec<u8> {
    let mut bytes = vec![0; rng.range_usize(0, max) + 1];
    rng.fill_bytes(&mut bytes);
    bytes
}

fn step(rng: &mut DetRng, size: usize) -> Step {
    let pos = rng.range_usize(0, size + 100) as u64;
    match rng.range_usize(0, 12) {
        0..=4 => Step::Read {
            pos,
            len: rng.range_usize(0, 2 * PAGE_SIZE as usize),
        },
        5..=7 => Step::Write {
            pos,
            bytes: bytes(rng, 700),
        },
        // A poke stays within the stored bytes.
        8 if size > 0 => {
            let pos = rng.range_usize(0, size);
            Step::Poke {
                pos: pos as u64,
                bytes: bytes(rng, (size - pos).min(64)),
            }
        }
        8 | 9 => Step::Truncate,
        _ => Step::Reinstall,
    }
}

/// Where the whole of a fully stored file's buffer starts, as a read of
/// it sees it.
fn buffer(k: &mut Kernel, fd: Fd, len: usize) -> *const u8 {
    k.pread(fd, 0, len).unwrap().as_ptr()
}

#[test]
fn generated_reads_writes_and_truncations_match_a_vec_model() {
    check::run("shared_reads_match_a_vec_model", |rng| {
        let mut k = kernel();
        k.install_file(OTHER, &contents()).unwrap();
        let paths = [PATH, OTHER];
        let mut models = [contents(), contents()];
        // Whether each file still holds the buffer it was installed with:
        // no write, poke or truncation since.
        let mut pristine = [true, true];
        let mut fds = paths.map(|p| k.open(p, OpenFlags::RDWR).unwrap());
        assert_eq!(buffer(&mut k, fds[0], LEN), buffer(&mut k, fds[1], LEN));
        // Every payload read, with the bytes it held when it was read.
        let mut held: Vec<(Payload, Vec<u8>)> = Vec::new();
        for _ in 0..32 {
            let i = rng.range_usize(0, 2);
            let (fd, model) = (fds[i], &mut models[i]);
            match step(rng, model.len()) {
                Step::Read { pos, len } => {
                    let got = k.pread(fd, pos, len).unwrap();
                    let at = (pos as usize).min(model.len());
                    let want = model[at..(at + len).min(model.len())].to_vec();
                    assert_eq!(got, want, "pread({pos}, {len})");
                    held.push((got, want));
                }
                Step::Write { pos, bytes } => {
                    write_at(&mut k, fd, pos, &bytes);
                    let (pos, end) = (pos as usize, pos as usize + bytes.len());
                    if model.len() < end {
                        model.resize(end, 0);
                    }
                    model[pos..end].copy_from_slice(&bytes);
                    pristine[i] = false;
                }
                Step::Poke { pos, bytes } => {
                    k.poke_file(paths[i], pos, &bytes).unwrap();
                    let pos = pos as usize;
                    model[pos..pos + bytes.len()].copy_from_slice(&bytes);
                    pristine[i] = false;
                }
                Step::Truncate => {
                    k.close(fd).unwrap();
                    fds[i] = k.open(paths[i], OpenFlags::CREATE_RDWR).unwrap();
                    model.clear();
                    pristine[i] = false;
                }
                Step::Reinstall => {
                    k.close(fd).unwrap();
                    k.unlink(paths[i]).unwrap();
                    k.install_file(paths[i], &contents()).unwrap();
                    fds[i] = k.open(paths[i], OpenFlags::RDWR).unwrap();
                    *model = contents();
                    pristine[i] = true;
                    // The other file's buffer, if untouched, is the one
                    // this install found; a written one never is.
                    let [a, b] = fds;
                    let shared = buffer(&mut k, a, LEN) == buffer(&mut k, b, LEN);
                    assert_eq!(shared, pristine[1 - i], "re-install of {}", paths[i]);
                }
            }
            for (payload, want) in &held {
                assert_eq!(payload, want);
            }
        }
        for (fd, model) in fds.into_iter().zip(&models) {
            assert_eq!(k.pread(fd, 0, model.len() + 1).unwrap(), *model);
        }
    });
}
