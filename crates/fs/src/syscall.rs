//! The syscall vocabulary: one spelling of the kernel's call surface.
//!
//! [`Syscall`] is the call, [`SyscallRet`] its result, and [`Entry`] what
//! the kernel boundary does around it (trace span, charge, flight-recorder
//! treatment, ring eligibility). Everything that names a call uses these:
//! the typed `Kernel` methods build a `Syscall` for the recorder, a ring
//! batch is `(user_data, Syscall)` pairs, a capture stores `Syscall`s, the
//! JSONL codec (de)serialises them, and replay feeds them back through
//! [`crate::Kernel::syscall`].

use std::sync::Arc;

use sleds_sim_core::{Errno, SimError, SimResult, TenantId};

use crate::inode::Stat;
use crate::payload::Payload;
use crate::ring::RingCompletion;
use crate::sled::{Sled, SledsTable};

/// A file descriptor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fd(pub u64);

/// `lseek` origins.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Whence {
    /// From the start of the file.
    Set = 0,
    /// From the current position.
    Cur = 1,
    /// From the end of the file.
    End = 2,
}

impl Whence {
    /// The origin whose discriminant — its number in capture files — is
    /// `code`.
    pub fn from_code(code: u64) -> Option<Whence> {
        [Whence::Set, Whence::Cur, Whence::End]
            .into_iter()
            .find(|w| *w as u64 == code)
    }
}

/// Open flags, in the spirit of `open(2)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OpenFlags {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Create if missing.
    pub create: bool,
    /// Truncate to zero length on open.
    pub truncate: bool,
    /// All writes go to the end of the file.
    pub append: bool,
}

impl OpenFlags {
    /// Read-only.
    pub const RDONLY: OpenFlags = OpenFlags {
        read: true,
        write: false,
        create: false,
        truncate: false,
        append: false,
    };

    /// Read-write.
    pub const RDWR: OpenFlags = OpenFlags {
        read: true,
        write: true,
        create: false,
        truncate: false,
        append: false,
    };

    /// Read-write, creating and truncating.
    pub const CREATE_RDWR: OpenFlags = OpenFlags {
        read: true,
        write: true,
        create: true,
        truncate: true,
        append: false,
    };
}

/// One kernel call, owned. Each variant has a typed `Kernel` method of
/// the same name that applications call; [`crate::Kernel::syscall`] runs
/// the owned form through the same boundary.
#[derive(Clone, Debug, PartialEq)]
pub enum Syscall {
    /// `open(path, flags)` → [`SyscallRet::Fd`].
    Open {
        /// Absolute path.
        path: String,
        /// Open flags.
        flags: OpenFlags,
    },
    /// `close(fd)` → [`SyscallRet::Unit`].
    Close {
        /// Descriptor to close.
        fd: Fd,
    },
    /// `lseek(fd, offset, whence)` → [`SyscallRet::Count`] (the new offset).
    Lseek {
        /// Open descriptor.
        fd: Fd,
        /// Signed offset.
        offset: i64,
        /// Origin.
        whence: Whence,
    },
    /// `read(fd, len)` at the file offset → [`SyscallRet::Bytes`].
    Read {
        /// Open descriptor.
        fd: Fd,
        /// Bytes wanted.
        len: usize,
    },
    /// `pread(fd, pos, len)` → [`SyscallRet::Bytes`]. Does not move the
    /// file offset.
    Pread {
        /// Open descriptor.
        fd: Fd,
        /// Absolute file position.
        pos: u64,
        /// Bytes wanted.
        len: usize,
    },
    /// `write(fd, data)` → [`SyscallRet::Count`] (bytes written). The
    /// bytes are carried in full so replay reproduces file contents, and
    /// shared: a replay records the call it was given, not a copy.
    Write {
        /// Open descriptor.
        fd: Fd,
        /// The bytes to write.
        data: Arc<[u8]>,
    },
    /// `fsync(fd)` → [`SyscallRet::Unit`].
    Fsync {
        /// Open descriptor.
        fd: Fd,
    },
    /// `stat(path)` → [`SyscallRet::Stat`].
    Stat {
        /// Absolute path.
        path: String,
    },
    /// `fstat(fd)` → [`SyscallRet::Stat`].
    Fstat {
        /// Open descriptor.
        fd: Fd,
    },
    /// `mkdir(path)` → [`SyscallRet::Unit`].
    Mkdir {
        /// Absolute path.
        path: String,
    },
    /// `readdir(path)` → [`SyscallRet::Names`].
    Readdir {
        /// Absolute path.
        path: String,
    },
    /// `unlink(path)` → [`SyscallRet::Unit`].
    Unlink {
        /// Absolute path.
        path: String,
    },
    /// Ring-only `FSLEDS_GET`: build the file's SLED vector in-kernel
    /// from the pushed table → [`SyscallRet::Sleds`].
    FsledsGet {
        /// Open descriptor.
        fd: Fd,
        /// The sleds table to price with.
        pricing: SledsTable,
    },
    /// `tenant_register(name)` → [`SyscallRet::Tenant`]. Captured so
    /// replay recreates tenant ids in the same order.
    TenantRegister {
        /// Tenant name.
        name: String,
    },
    /// One `ring_enter` batch on a ring of `capacity` entries owned by the
    /// calling tenant → [`SyscallRet::Completions`]. In a capture, `ops`
    /// are the submissions that enter actually serviced, in order.
    RingEnter {
        /// The ring's per-queue bound.
        capacity: usize,
        /// `(user_data, op)` submissions in order.
        ops: Vec<(u64, Syscall)>,
    },
}

/// A completed call's result value.
#[derive(Clone, Debug, PartialEq)]
pub enum SyscallRet {
    /// From `close`, `fsync`, `mkdir`, `unlink`.
    Unit,
    /// From `open`.
    Fd(Fd),
    /// A plain number: the new offset (`lseek`), bytes written (`write`),
    /// submissions serviced (the typed `ring_enter`).
    Count(u64),
    /// From `read`/`pread`.
    Bytes(Payload),
    /// From `stat`/`fstat`.
    Stat(Stat),
    /// From `readdir`: entry names in name order.
    Names(Vec<String>),
    /// From [`Syscall::FsledsGet`].
    Sleds(Vec<Sled>),
    /// From `tenant_register`.
    Tenant(TenantId),
    /// From [`Syscall::RingEnter`]: the batch's completions, reaped.
    Completions(Vec<RingCompletion>),
}

impl SyscallRet {
    /// The scalar a capture records as the call's `ret`.
    pub fn scalar(&self) -> u64 {
        match self {
            SyscallRet::Unit => 0,
            SyscallRet::Fd(fd) => fd.0,
            SyscallRet::Count(n) => *n,
            SyscallRet::Bytes(b) => b.len() as u64,
            SyscallRet::Stat(st) => st.size,
            SyscallRet::Names(names) => names.len() as u64,
            SyscallRet::Sleds(s) => s.len() as u64,
            SyscallRet::Tenant(t) => t.0,
            SyscallRet::Completions(c) => c.len() as u64,
        }
    }

    /// The returned data a capture folds (length + `fold_bytes`), for reads.
    pub fn payload(&self) -> Option<&[u8]> {
        match self {
            SyscallRet::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// A result of the wrong shape for its call: a kernel bug, surfaced
    /// as `EIO` rather than a panic.
    fn wrong<T>(self, want: &str) -> SimResult<T> {
        Err(SimError::new(
            Errno::Eio,
            format!("syscall returned {self:?}, wanted {want}"),
        ))
    }

    /// Unwraps [`SyscallRet::Fd`].
    pub fn fd(self) -> SimResult<Fd> {
        match self {
            SyscallRet::Fd(fd) => Ok(fd),
            other => other.wrong("Fd"),
        }
    }

    /// Unwraps [`SyscallRet::Count`].
    pub fn count(self) -> SimResult<u64> {
        match self {
            SyscallRet::Count(n) => Ok(n),
            other => other.wrong("Count"),
        }
    }

    /// Unwraps [`SyscallRet::Bytes`].
    pub fn bytes(self) -> SimResult<Payload> {
        match self {
            SyscallRet::Bytes(b) => Ok(b),
            other => other.wrong("Bytes"),
        }
    }

    /// Unwraps [`SyscallRet::Stat`].
    pub fn stat(self) -> SimResult<Stat> {
        match self {
            SyscallRet::Stat(st) => Ok(st),
            other => other.wrong("Stat"),
        }
    }

    /// Unwraps [`SyscallRet::Names`].
    pub fn names(self) -> SimResult<Vec<String>> {
        match self {
            SyscallRet::Names(names) => Ok(names),
            other => other.wrong("Names"),
        }
    }
}

/// What an entry that arrives by trap is charged before its body runs.
/// Ring submissions pay [`RING_OP_CPU`](crate::machine::RING_OP_CPU) instead, whatever this says: the
/// batch's `ring_enter` already paid the crossing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Charge {
    /// One logical syscall plus one boundary crossing (`syscall_cpu`).
    Trap,
    /// The crossing alone; the batch's ops are the logical syscalls.
    Crossing,
    /// Nothing.
    Free,
}

/// What an armed flight recorder does with an entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Record {
    /// Recorded as a [`Syscall`] with its outcome.
    Capture,
    /// Cannot be replayed: poisons the capture, naming [`Entry::name`].
    Poison,
    /// Neither recorded nor poisoning.
    Silent,
}

/// Whether a call may be submitted through a ring.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ring {
    /// Trap only.
    No,
    /// Either way.
    Yes,
    /// Ring submission only; has no trap form.
    Only,
}

/// What the kernel boundary does around one kind of entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Entry {
    /// Name in captures (`"op"`), poison reasons and error messages.
    pub name: &'static str,
    /// Trace span opened around the call; `None` leaves it unspanned.
    pub span: Option<&'static str>,
    /// Charge on the trap path.
    pub charge: Charge,
    /// Flight-recorder treatment.
    pub record: Record,
    /// Ring eligibility.
    pub ring: Ring,
}

impl Entry {
    const fn new(
        name: &'static str,
        span: Option<&'static str>,
        charge: Charge,
        record: Record,
        ring: Ring,
    ) -> Entry {
        Entry {
            name,
            span,
            charge,
            record,
            ring,
        }
    }

    /// An ioctl outside the [`Syscall`] vocabulary: spanned under its own
    /// name, charged one trap, and poisoning any capture it runs under.
    pub(crate) const fn ioctl(name: &'static str) -> Entry {
        Entry::new(name, Some(name), Charge::Trap, Record::Poison, Ring::No)
    }

    /// A residency or generation query: charged one trap, unspanned, and
    /// invisible to the flight recorder.
    pub(crate) const fn query(name: &'static str) -> Entry {
        Entry::new(name, None, Charge::Trap, Record::Silent, Ring::No)
    }
}

// The boundary table, one row per `Syscall` variant. Span args (set by the
// typed methods in `kernel.rs`): open none; close/fsync `[fd]`; lseek
// `[fd, offset]`; read/write `[fd, len]`; pread `[fd, len, pos]`;
// ring_enter `[submitted]`.
use {Charge::*, Record::*, Ring::*};
pub(crate) const OPEN: Entry = Entry::new("open", Some("open"), Trap, Capture, Yes);
pub(crate) const CLOSE: Entry = Entry::new("close", Some("close"), Trap, Capture, Yes);
pub(crate) const LSEEK: Entry = Entry::new("lseek", Some("lseek"), Trap, Capture, No);
pub(crate) const READ: Entry = Entry::new("read", Some("read"), Trap, Capture, No);
pub(crate) const PREAD: Entry = Entry::new("pread", Some("pread"), Trap, Capture, Yes);
pub(crate) const WRITE: Entry = Entry::new("write", Some("write"), Trap, Capture, No);
pub(crate) const FSYNC: Entry = Entry::new("fsync", Some("fsync"), Trap, Capture, No);
pub(crate) const STAT: Entry = Entry::new("stat", None, Trap, Capture, Yes);
pub(crate) const FSTAT: Entry = Entry::new("fstat", None, Trap, Capture, No);
pub(crate) const MKDIR: Entry = Entry::new("mkdir", None, Trap, Capture, No);
pub(crate) const READDIR: Entry = Entry::new("readdir", None, Trap, Capture, No);
pub(crate) const UNLINK: Entry = Entry::new("unlink", None, Trap, Capture, No);
const FSLEDS_GET: Entry = Entry::new("ring.fsleds_get", None, Trap, Poison, Only);
pub(crate) const TENANT_REGISTER: Entry = Entry::new("tenant_register", None, Free, Capture, No);
pub(crate) const RING_ENTER: Entry =
    Entry::new("ring_enter", Some("ring.enter"), Crossing, Capture, No);

impl Syscall {
    /// The call's row in the boundary table.
    pub fn entry(&self) -> &'static Entry {
        match self {
            Syscall::Open { .. } => &OPEN,
            Syscall::Close { .. } => &CLOSE,
            Syscall::Lseek { .. } => &LSEEK,
            Syscall::Read { .. } => &READ,
            Syscall::Pread { .. } => &PREAD,
            Syscall::Write { .. } => &WRITE,
            Syscall::Fsync { .. } => &FSYNC,
            Syscall::Stat { .. } => &STAT,
            Syscall::Fstat { .. } => &FSTAT,
            Syscall::Mkdir { .. } => &MKDIR,
            Syscall::Readdir { .. } => &READDIR,
            Syscall::Unlink { .. } => &UNLINK,
            Syscall::FsledsGet { .. } => &FSLEDS_GET,
            Syscall::TenantRegister { .. } => &TENANT_REGISTER,
            Syscall::RingEnter { .. } => &RING_ENTER,
        }
    }

    /// Short human name, used in captures, reports and error messages.
    pub fn name(&self) -> &'static str {
        self.entry().name
    }

    /// The descriptor the call operates on, when it takes one.
    pub fn fd(&self) -> Option<Fd> {
        match self {
            Syscall::Close { fd }
            | Syscall::Lseek { fd, .. }
            | Syscall::Read { fd, .. }
            | Syscall::Pread { fd, .. }
            | Syscall::Write { fd, .. }
            | Syscall::Fsync { fd }
            | Syscall::Fstat { fd }
            | Syscall::FsledsGet { fd, .. } => Some(*fd),
            _ => None,
        }
    }
}
