//! What `read`/`pread` hand back: a range of a file's stored bytes, or a
//! hole that was never written.
//!
//! A [`Payload`] derefs to `[u8]` and compares with byte strings, but it
//! owns no copy of the bytes it stands for. A read that found only stored
//! bytes shares the file's own buffer — an [`Arc`] clone and a range,
//! and that buffer may itself be shared by every file installed with the
//! same bytes — and the file copies that buffer before its next write
//! while any such payload is alive, so a payload keeps the bytes it was
//! given. Almost everything the drivers read is sparse
//! ([`crate::Kernel::install_sparse_file`], the lmbench calibration
//! probes included), and a read that found no stored bytes borrows its
//! zeros from one static all-zero run. Only a
//! read that runs from stored bytes into the hole after them, or into the
//! write payloads a file keeps after its buffer, builds a buffer of its
//! own. The *virtual* copy-out cost (`charge_memcpy`) is
//! charged alike for all three.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Length of the static zero run: the largest request any in-repo driver
/// issues. A longer all-hole read allocates, as every read once did.
const ZERO_RUN: usize = 2 << 20;

/// Never written. An immutable static would sit in `.rodata` — 2 MiB of
/// zeros in the executable, whose pages become resident whenever a fault on
/// a neighbouring constant maps them in too — so on ELF it is placed in
/// `.bss`, which occupies no file and no memory until a caller reads
/// through it.
#[cfg_attr(target_os = "linux", link_section = ".bss")]
static ZEROS: [u8; ZERO_RUN] = [0; ZERO_RUN];

#[derive(Clone)]
enum Repr {
    /// This many zero bytes, at most [`ZERO_RUN`]; only [`Payload::zeros`]
    /// builds it.
    Zeros(usize),
    /// These bytes of a buffer that may be shared.
    Shared(Arc<Vec<u8>>, Range<usize>),
}

/// The bytes a read returned.
#[derive(Clone)]
pub struct Payload(Repr);

impl Payload {
    /// `n` zero bytes: what a read that lay wholly in a hole returns.
    pub(crate) fn zeros(n: usize) -> Payload {
        if n <= ZERO_RUN {
            Payload(Repr::Zeros(n))
        } else {
            Payload::from(vec![0; n])
        }
    }

    /// `range` of `bytes`, without copying it.
    pub(crate) fn shared(bytes: Arc<Vec<u8>>, range: Range<usize>) -> Payload {
        debug_assert!(range.start <= range.end && range.end <= bytes.len());
        Payload(Repr::Shared(bytes, range))
    }

    /// Bytes returned: shorter than asked at end of file, zero at or past it.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Zeros(n) => *n,
            Repr::Shared(_, range) => range.len(),
        }
    }

    /// True for a read at or past end of file, or of no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes as an owned buffer: a copy.
    pub fn into_vec(self) -> Vec<u8> {
        self.to_vec()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Payload {
        let range = 0..bytes.len();
        Payload(Repr::Shared(Arc::new(bytes), range))
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Zeros(n) => &ZEROS[..*n],
            Repr::Shared(bytes, range) => &bytes[range.clone()],
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Zeros(n) => write!(f, "[0; {n}]"),
            Repr::Shared(..) => (**self).fmt(f),
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        match (&self.0, &other.0) {
            (Repr::Zeros(a), Repr::Zeros(b)) => a == b,
            _ => **self == **other,
        }
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_sim_core::DetRng;

    /// Every observer of `p` against the `Vec<u8>` it stands for.
    fn agrees(p: Payload, want: &[u8]) {
        assert_eq!(p.len(), want.len());
        assert_eq!(p.is_empty(), want.is_empty());
        assert!(&*p == want, "deref of a {}-byte payload", want.len());
        assert!(p == *want && p == want && p == want.to_vec());
        assert!(p.clone() == p && p.clone().into_vec() == want);
        let buffered = Payload::from(want.to_vec());
        // Either side may be the unbuffered one.
        assert!(p == buffered);
        assert!(buffered == p);
        // One byte longer, then one bit different.
        let mut other = want.to_vec();
        other.push(0);
        let buffered = Payload::from(other.clone());
        assert!(p != other && p != other[..] && p != buffered);
        assert!(buffered != p);
        other.pop();
        if let Some(last) = other.last_mut() {
            *last ^= 1;
            let buffered = Payload::from(other.clone());
            assert!(p != other && p != buffered);
            assert!(buffered != p);
        }
    }

    #[test]
    fn a_payload_is_the_vec_it_stands_for() {
        let mut rng = DetRng::new(0x5eed);
        // (stored bytes, hole length), built the way `do_read` builds them:
        // stored bytes alone are a range of a larger file buffer, at an
        // offset into it; stored bytes with a hole tail go into a buffer of
        // their own; a read that found none borrows the zero run.
        let mut pairs = Vec::new();
        for hole in [0, 1, 31, 4096, ZERO_RUN - 1, ZERO_RUN, ZERO_RUN + 1] {
            pairs.push((0, hole));
        }
        for _ in 0..40 {
            let (stored, hole) = (rng.range_usize(0, 600), rng.range_usize(0, 3 * 4096));
            pairs.push((stored * rng.range_usize(0, 3), hole * rng.range_usize(0, 3)));
        }
        for (stored, hole) in pairs {
            let (before, after) = (rng.range_usize(0, 5000), rng.range_usize(0, 5000));
            let mut file = vec![0u8; before + stored + after];
            rng.fill_bytes(&mut file);
            let range = before..before + stored;
            let mut want = file[range.clone()].to_vec();
            want.resize(stored + hole, 0);
            let p = if stored == 0 {
                Payload::zeros(hole)
            } else if hole == 0 {
                Payload::shared(Arc::new(file), range)
            } else {
                Payload::from(want.clone())
            };
            agrees(p, &want);
        }
    }

    #[test]
    fn only_a_hole_within_the_run_goes_unbuffered() {
        assert!(matches!(Payload::zeros(ZERO_RUN).0, Repr::Zeros(ZERO_RUN)));
        assert!(matches!(Payload::zeros(ZERO_RUN + 1).0, Repr::Shared(..)));
        assert_eq!(Payload::zeros(ZERO_RUN + 1).len(), ZERO_RUN + 1);
    }

    #[test]
    fn byte_string_literals_compare() {
        assert_eq!(Payload::from(b"hello".to_vec()), b"hello");
        assert_eq!(Payload::zeros(3), b"\0\0\0");
        assert_ne!(Payload::zeros(3), b"\0\0");
        assert_eq!(format!("{:?}", Payload::zeros(3)), "[0; 3]");
        assert_eq!(format!("{:?}", Payload::from(vec![1, 2])), "[1, 2]");
        let shared = Payload::shared(Arc::new(vec![1, 2, 3, 4]), 1..3);
        assert_eq!(format!("{shared:?}"), "[2, 3]");
    }
}
