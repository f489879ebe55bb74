//! Error codes for the simulated kernel, modeled on Unix `errno`.

use core::fmt;

use crate::time::SimDuration;

/// Unix-style error numbers returned by simulated syscalls.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum Errno {
    /// No such file or directory.
    Enoent,
    /// Bad file descriptor.
    Ebadf,
    /// Invalid argument.
    Einval,
    /// I/O error.
    Eio,
    /// Is a directory.
    Eisdir,
    /// Not a directory.
    Enotdir,
    /// No space left on device.
    Enospc,
    /// Read-only file system.
    Erofs,
    /// File exists.
    Eexist,
    /// Function not implemented.
    Enosys,
    /// Inappropriate ioctl for device.
    Enotty,
    /// File too large.
    Efbig,
    /// Too many open files.
    Emfile,
    /// Cross-device link.
    Exdev,
    /// Directory not empty.
    Enotempty,
    /// Operation not permitted.
    Eperm,
    /// Resource temporarily unavailable.
    Eagain,
    /// Value too large for defined data type.
    Eoverflow,
    /// No medium found (tape not mounted, jukebox slot empty).
    Enomedium,
    /// Stale file handle (inode reclaimed underneath an open descriptor).
    Estale,
    /// Connection timed out (retry budget exhausted by the clock).
    Etimedout,
}

impl Errno {
    /// Every errno, in declaration order.
    pub const ALL: [Errno; 21] = [
        Errno::Enoent,
        Errno::Ebadf,
        Errno::Einval,
        Errno::Eio,
        Errno::Eisdir,
        Errno::Enotdir,
        Errno::Enospc,
        Errno::Erofs,
        Errno::Eexist,
        Errno::Enosys,
        Errno::Enotty,
        Errno::Efbig,
        Errno::Emfile,
        Errno::Exdev,
        Errno::Enotempty,
        Errno::Eperm,
        Errno::Eagain,
        Errno::Eoverflow,
        Errno::Enomedium,
        Errno::Estale,
        Errno::Etimedout,
    ];

    /// The errno whose [`Errno::name`] is `name`; `None` for any other
    /// string. What a serialised errno is read back through.
    pub fn from_name(name: &str) -> Option<Errno> {
        Errno::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Returns the conventional short name, e.g. `"ENOENT"`.
    pub fn name(self) -> &'static str {
        match self {
            Errno::Enoent => "ENOENT",
            Errno::Ebadf => "EBADF",
            Errno::Einval => "EINVAL",
            Errno::Eio => "EIO",
            Errno::Eisdir => "EISDIR",
            Errno::Enotdir => "ENOTDIR",
            Errno::Enospc => "ENOSPC",
            Errno::Erofs => "EROFS",
            Errno::Eexist => "EEXIST",
            Errno::Enosys => "ENOSYS",
            Errno::Enotty => "ENOTTY",
            Errno::Efbig => "EFBIG",
            Errno::Emfile => "EMFILE",
            Errno::Exdev => "EXDEV",
            Errno::Enotempty => "ENOTEMPTY",
            Errno::Eperm => "EPERM",
            Errno::Eagain => "EAGAIN",
            Errno::Eoverflow => "EOVERFLOW",
            Errno::Enomedium => "ENOMEDIUM",
            Errno::Estale => "ESTALE",
            Errno::Etimedout => "ETIMEDOUT",
        }
    }

    /// Returns a human-readable description, as `strerror(3)` would.
    pub fn message(self) -> &'static str {
        match self {
            Errno::Enoent => "no such file or directory",
            Errno::Ebadf => "bad file descriptor",
            Errno::Einval => "invalid argument",
            Errno::Eio => "input/output error",
            Errno::Eisdir => "is a directory",
            Errno::Enotdir => "not a directory",
            Errno::Enospc => "no space left on device",
            Errno::Erofs => "read-only file system",
            Errno::Eexist => "file exists",
            Errno::Enosys => "function not implemented",
            Errno::Enotty => "inappropriate ioctl for device",
            Errno::Efbig => "file too large",
            Errno::Emfile => "too many open files",
            Errno::Exdev => "invalid cross-device link",
            Errno::Enotempty => "directory not empty",
            Errno::Eperm => "operation not permitted",
            Errno::Eagain => "resource temporarily unavailable",
            Errno::Eoverflow => "value too large for defined data type",
            Errno::Enomedium => "no medium found",
            Errno::Estale => "stale file handle",
            Errno::Etimedout => "connection timed out",
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.message())
    }
}

/// An error from the simulated storage stack: an errno plus context.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimError {
    /// The error number.
    pub errno: Errno,
    /// Where the error arose (syscall or component name) and any detail.
    pub context: String,
    /// Device time an injected fault burned before failing the command.
    fault_cost: Option<SimDuration>,
}

impl SimError {
    /// Creates an error with context.
    pub fn new(errno: Errno, context: impl Into<String>) -> Self {
        SimError {
            errno,
            context: context.into(),
            fault_cost: None,
        }
    }

    /// An error produced by fault injection: the command failed after the
    /// device had already spent `cost` on it.
    pub fn injected(errno: Errno, context: impl Into<String>, cost: SimDuration) -> Self {
        SimError {
            fault_cost: Some(cost),
            ..SimError::new(errno, context)
        }
    }

    /// `Some(cost)` exactly when a fault injector failed the command, with
    /// the device time the failed submission consumed; `None` for every
    /// error raised before the device moved (bounds, read-only media, ...).
    pub fn fault_cost(&self) -> Option<SimDuration> {
        self.fault_cost
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.context.is_empty() {
            write!(f, "{}", self.errno)
        } else {
            write!(f, "{}: {}", self.context, self.errno)
        }
    }
}

impl std::error::Error for SimError {}

impl From<Errno> for SimError {
    fn from(errno: Errno) -> Self {
        SimError::new(errno, String::new())
    }
}

/// Result alias used throughout the simulator.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_names_and_messages() {
        assert_eq!(Errno::Enoent.name(), "ENOENT");
        assert_eq!(Errno::Ebadf.message(), "bad file descriptor");
    }

    #[test]
    fn from_name_inverts_name_for_every_errno() {
        for (i, e) in Errno::ALL.into_iter().enumerate() {
            assert_eq!(Errno::from_name(e.name()), Some(e));
            assert!(!Errno::ALL[..i].contains(&e), "{e:?} listed twice");
        }
        for bad in ["", "BANANA", "enoent", "ENOENT ", "EIO\0"] {
            assert_eq!(Errno::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn error_display_includes_context() {
        let e = SimError::new(Errno::Enoent, "open(\"/data/x\")");
        let s = format!("{e}");
        assert!(s.contains("open"));
        assert!(s.contains("ENOENT"));
    }

    #[test]
    fn injected_errors_carry_their_cost_and_print_like_any_other() {
        let cost = SimDuration::from_millis(2);
        let e = SimError::injected(Errno::Eagain, "hda: injected fault", cost);
        assert_eq!(e.fault_cost(), Some(cost));
        let plain = SimError::new(Errno::Eagain, "hda: injected fault");
        assert_eq!(plain.fault_cost(), None);
        assert_eq!(format!("{e}"), format!("{plain}"));
        assert_eq!(SimError::from(Errno::Eio).fault_cost(), None);
    }

    #[test]
    fn from_errno_has_empty_context() {
        let e: SimError = Errno::Eio.into();
        assert_eq!(e.errno, Errno::Eio);
        assert_eq!(format!("{e}"), "EIO (input/output error)");
    }
}
