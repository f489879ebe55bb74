//! Reads share a file's stored bytes; writes copy them first, or keep
//! the payload they were handed.
//!
//! A read that finds only stored bytes returns the file's own buffer and a
//! range of it, not a copy. Every case here holds such a payload across a
//! change to the same bytes — `write`, a write through a second
//! descriptor, an `O_TRUNC` reopen, `poke_file`, a truncating open later
//! in the same ring batch — and checks that the payload keeps the bytes it
//! was given while a later read sees the new ones. Files installed with
//! equal bytes share one buffer in the same way, and an append of a
//! payload the kernel may keep (a [`Syscall::Write`], or a typed write
//! under an armed recorder) stores that payload by reference. A generated
//! sequence of reads, typed and `Kernel::syscall` writes (appends, appends
//! after a sparse hole, overwrites reaching into kept payloads), pokes,
//! truncations, sparse and full re-installs and recorder arms over two
//! such files, every payload, write and capture kept alive to the end, is
//! checked against one `Vec<u8>` model per file.

use std::sync::Arc;

use sleds_devices::DiskDevice;
use sleds_fs::{
    Capture, Fd, Kernel, OpenFlags, Payload, SubmissionRing, Syscall, SyscallRet, Whence,
};
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
    /// The typed `write`: copied into the file, or, while a recorder is
    /// armed, into one payload the capture and an append both keep.
    Write {
        pos: u64,
        bytes: Vec<u8>,
    },
    /// A [`Syscall::Write`] through `Kernel::syscall`, whose payload an
    /// append keeps.
    SysWrite {
        pos: u64,
        bytes: Arc<[u8]>,
    },
    Poke {
        pos: u64,
        bytes: Vec<u8>,
    },
    Truncate,
    /// Unlink the file and install it again with [`contents`].
    Reinstall,
    /// Unlink the file and install it again sparse, this many bytes long.
    ReinstallSparse(u64),
    /// Arm the flight recorder, or disarm it and keep its capture.
    ToggleCapture,
}

/// One to `max` random bytes.
fn bytes(rng: &mut DetRng, max: usize) -> Vec<u8> {
    let mut bytes = vec![0; rng.range_usize(0, max) + 1];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// Where a write lands: at the end of the stored bytes (an append), a
/// little before it (an overwrite reaching into the last payloads), or
/// anywhere up to just past the end of the file.
fn write_pos(rng: &mut DetRng, stored: usize, size: usize) -> u64 {
    match rng.range_usize(0, 3) {
        0 => stored as u64,
        1 => stored.saturating_sub(rng.range_usize(1, 700)) as u64,
        _ => rng.range_usize(0, size + 100) as u64,
    }
}

/// The next step, for a file `size` bytes long whose first `stored` are
/// stored.
fn step(rng: &mut DetRng, stored: usize, size: usize) -> Step {
    match rng.range_usize(0, 20) {
        0..=5 => Step::Read {
            pos: rng.range_usize(0, size + 100) as u64,
            len: rng.range_usize(0, 2 * PAGE_SIZE as usize),
        },
        6..=8 => Step::Write {
            pos: write_pos(rng, stored, size),
            bytes: bytes(rng, 700),
        },
        9..=12 => Step::SysWrite {
            pos: write_pos(rng, stored, size),
            bytes: bytes(rng, 700).into(),
        },
        // A poke stays within the stored bytes, often their last few.
        13 | 14 if stored > 0 => {
            let pos = match rng.range_usize(0, 2) {
                0 => rng.range_usize(0, stored),
                _ => stored - rng.range_usize(1, stored.min(700) + 1),
            };
            Step::Poke {
                pos: pos as u64,
                bytes: bytes(rng, (stored - pos).min(64)),
            }
        }
        13..=15 => Step::Truncate,
        16 => Step::Reinstall,
        17 => Step::ReinstallSparse(rng.range_u64(0, 2 * PAGE_SIZE)),
        _ => Step::ToggleCapture,
    }
}

/// Where the whole of a fully stored file's buffer starts, as a read of
/// it sees it.
fn buffer(k: &mut Kernel, fd: Fd, len: usize) -> *const u8 {
    k.pread(fd, 0, len).unwrap().as_ptr()
}

/// One file of the model: its bytes, holes as zeros, and how many of them
/// are stored (a sparse install stores none; a write stores up to its end).
struct Model {
    bytes: Vec<u8>,
    stored: usize,
}

impl Model {
    fn write(&mut self, pos: u64, bytes: &[u8]) {
        let (pos, end) = (pos as usize, pos as usize + bytes.len());
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
        self.bytes[pos..end].copy_from_slice(bytes);
        self.stored = self.stored.max(end);
    }
}

/// The writes of one armed recorder: each one's bytes, and the payload a
/// `Kernel::syscall` write was handed, which the capture records as is.
type Recording = Vec<(Vec<u8>, Option<Arc<[u8]>>)>;

fn check_capture(capture: &Capture, want: &Recording) {
    let got: Vec<&Arc<[u8]>> = capture
        .ops
        .iter()
        .filter_map(|op| match &op.call {
            Syscall::Write { data, .. } => Some(data),
            _ => None,
        })
        .collect();
    assert_eq!(got.len(), want.len(), "captured writes");
    for (got, (bytes, sent)) in got.into_iter().zip(want) {
        assert_eq!(**got, **bytes);
        if let Some(sent) = sent {
            assert!(
                Arc::ptr_eq(got, sent),
                "a captured syscall write was copied"
            );
        }
    }
}

#[test]
fn generated_reads_writes_and_truncations_match_a_vec_model() {
    check::run("shared_reads_match_a_vec_model", |rng| {
        let mut k = kernel();
        k.install_file(OTHER, &contents()).unwrap();
        let paths = [PATH, OTHER];
        let mut models = [contents(), contents()].map(|bytes| Model {
            stored: bytes.len(),
            bytes,
        });
        // Whether each file still holds the buffer it was installed with:
        // no write, poke or truncation since but appends that kept their
        // payload, which leave the buffer as it was.
        let mut pristine = [true, true];
        let mut fds = paths.map(|p| k.open(p, OpenFlags::RDWR).unwrap());
        assert_eq!(buffer(&mut k, fds[0], LEN), buffer(&mut k, fds[1], LEN));
        // Every payload read, with the bytes it held when it was read.
        let mut held: Vec<(Payload, Vec<u8>)> = Vec::new();
        // Every payload handed to `Kernel::syscall`, with its bytes.
        let mut sent: Vec<(Arc<[u8]>, Vec<u8>)> = Vec::new();
        // Every capture taken, with the writes it must hold; and the writes
        // of the one being taken, if a recorder is armed.
        let mut captures: Vec<(Capture, Recording)> = Vec::new();
        let mut armed: Option<Recording> = None;
        for _ in 0..48 {
            let i = rng.range_usize(0, 2);
            let (fd, model) = (fds[i], &mut models[i]);
            match step(rng, model.stored, model.bytes.len()) {
                Step::Read { pos, len } => {
                    let got = k.pread(fd, pos, len).unwrap();
                    let at = (pos as usize).min(model.bytes.len());
                    let want = model.bytes[at..(at + len).min(model.bytes.len())].to_vec();
                    assert_eq!(got, want, "pread({pos}, {len})");
                    held.push((got, want));
                }
                Step::Write { pos, bytes } => {
                    let kept = armed.is_some() && pos as usize == model.stored;
                    write_at(&mut k, fd, pos, &bytes);
                    model.write(pos, &bytes);
                    if let Some(recording) = &mut armed {
                        recording.push((bytes, None));
                    }
                    pristine[i] &= kept;
                }
                Step::SysWrite { pos, bytes } => {
                    let kept = pos as usize == model.stored;
                    k.lseek(fd, i64::try_from(pos).unwrap(), Whence::Set)
                        .unwrap();
                    let call = Syscall::Write {
                        fd,
                        data: Arc::clone(&bytes),
                    };
                    let n = bytes.len() as u64;
                    assert_eq!(k.syscall(&call).unwrap(), SyscallRet::Count(n));
                    model.write(pos, &bytes);
                    if let Some(recording) = &mut armed {
                        recording.push((bytes.to_vec(), Some(Arc::clone(&bytes))));
                    }
                    sent.push((Arc::clone(&bytes), bytes.to_vec()));
                    pristine[i] &= kept;
                }
                Step::Poke { pos, bytes } => {
                    k.poke_file(paths[i], pos, &bytes).unwrap();
                    let pos = pos as usize;
                    model.bytes[pos..pos + bytes.len()].copy_from_slice(&bytes);
                    pristine[i] = false;
                }
                Step::Truncate => {
                    k.close(fd).unwrap();
                    fds[i] = k.open(paths[i], OpenFlags::CREATE_RDWR).unwrap();
                    *model = Model {
                        bytes: Vec::new(),
                        stored: 0,
                    };
                    pristine[i] = false;
                }
                Step::Reinstall => {
                    k.close(fd).unwrap();
                    k.unlink(paths[i]).unwrap();
                    k.install_file(paths[i], &contents()).unwrap();
                    fds[i] = k.open(paths[i], OpenFlags::RDWR).unwrap();
                    *model = Model {
                        bytes: contents(),
                        stored: LEN,
                    };
                    pristine[i] = true;
                    // The other file's buffer, if untouched, is the one
                    // this install found; a written one never is.
                    let [a, b] = fds;
                    let shared = buffer(&mut k, a, LEN) == buffer(&mut k, b, LEN);
                    assert_eq!(shared, pristine[1 - i], "re-install of {}", paths[i]);
                }
                Step::ReinstallSparse(size) => {
                    k.close(fd).unwrap();
                    k.unlink(paths[i]).unwrap();
                    k.install_sparse_file(paths[i], size).unwrap();
                    fds[i] = k.open(paths[i], OpenFlags::RDWR).unwrap();
                    *model = Model {
                        bytes: vec![0; size as usize],
                        stored: 0,
                    };
                    pristine[i] = false;
                }
                Step::ToggleCapture => match armed.take() {
                    Some(recording) => captures.push((k.stop_capture().unwrap(), recording)),
                    None => {
                        k.start_capture(1 << 12);
                        armed = Some(Vec::new());
                    }
                },
            }
            for (payload, want) in &held {
                assert_eq!(payload, want);
            }
        }
        if let Some(recording) = armed {
            captures.push((k.stop_capture().unwrap(), recording));
        }
        for ((path, fd), model) in paths.into_iter().zip(fds).zip(&models) {
            assert_eq!(k.pread(fd, 0, model.bytes.len() + 1).unwrap(), model.bytes);
            // The stored bytes end where the model says: a poke may reach
            // their last byte and no further.
            if let Some(last) = model.stored.checked_sub(1) {
                let byte = [model.bytes[last]];
                k.poke_file(path, last as u64, &byte).unwrap();
            }
            assert!(k.poke_file(path, model.stored as u64, b"x").is_err());
        }
        for (payload, want) in &held {
            assert_eq!(payload, want);
        }
        for (bytes, want) in &sent {
            assert_eq!(**bytes, **want);
        }
        for (capture, want) in &captures {
            check_capture(capture, want);
        }
    });
}
