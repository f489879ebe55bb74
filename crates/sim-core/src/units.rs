//! Byte sizes, page and sector counts, and bandwidths.
//!
//! A bare `u64` means bytes — the unit of the syscall surface. Page and
//! sector quantities (an index and a count share one type, as they shared
//! `u64`) are [`Pages`] and [`Sectors`], so that mixing any two of the three
//! units, or handing one to a parameter of another, does not compile.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use crate::time::SimDuration;

/// Size of a virtual-memory / page-cache page, matching Linux on x86.
pub const PAGE_SIZE: u64 = 4096;

/// Size of a device sector.
pub const SECTOR_SIZE: u64 = 512;

/// Sectors per page.
pub const SECTORS_PER_PAGE: u64 = PAGE_SIZE / SECTOR_SIZE;

/// One kibibyte.
pub const KIB: u64 = 1 << 10;

/// One mebibyte.
pub const MIB: u64 = 1 << 20;

/// One gibibyte.
pub const GIB: u64 = 1 << 30;

/// A byte count with convenience constructors and human-readable display.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Creates a size from bytes.
    pub const fn bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Creates a size from kibibytes.
    pub const fn kib(k: u64) -> Self {
        ByteSize(k * KIB)
    }

    /// Creates a size from mebibytes.
    pub const fn mib(m: u64) -> Self {
        ByteSize(m * MIB)
    }

    /// Returns the raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Number of whole pages needed to hold this many bytes (rounds up).
    pub const fn pages(self) -> Pages {
        Pages::spanning(self.0)
    }

    /// Number of whole sectors needed to hold this many bytes (rounds up).
    pub const fn sectors(self) -> Sectors {
        Sectors(self.0.div_ceil(SECTOR_SIZE))
    }
}

/// Same-unit arithmetic for a unit type: saturating, so that a quantity at
/// the top of the `u64` range pins there instead of wrapping (or panicking
/// in a debug build); `checked_add` is for the callers that must refuse.
macro_rules! unit_arithmetic {
    ($unit:ident) => {
        impl $unit {
            /// Zero of this unit.
            pub const ZERO: $unit = $unit(0);

            /// Wraps a raw count of this unit.
            pub const fn new(n: u64) -> Self {
                $unit(n)
            }

            /// The raw count, for the public `u64` interfaces at the edge.
            pub const fn get(self) -> u64 {
                self.0
            }

            /// Saturating addition (what `+` does).
            pub const fn saturating_add(self, rhs: $unit) -> $unit {
                $unit(self.0.saturating_add(rhs.0))
            }

            /// Addition that answers `None` on overflow.
            pub const fn checked_add(self, rhs: $unit) -> Option<$unit> {
                match self.0.checked_add(rhs.0) {
                    Some(n) => Some($unit(n)),
                    None => None,
                }
            }
        }

        impl Add for $unit {
            type Output = $unit;
            fn add(self, rhs: $unit) -> $unit {
                self.saturating_add(rhs)
            }
        }

        impl AddAssign for $unit {
            fn add_assign(&mut self, rhs: $unit) {
                *self = *self + rhs;
            }
        }

        impl Sub for $unit {
            type Output = $unit;
            /// Saturating: clamps at zero.
            fn sub(self, rhs: $unit) -> $unit {
                $unit(self.0.saturating_sub(rhs.0))
            }
        }

        impl fmt::Display for $unit {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

/// A page count or page index. Converts only through named methods; there
/// is no `From<u64>` and no operator that takes another unit.
///
/// ```
/// use sleds_sim_core::units::{Pages, PAGE_SIZE};
///
/// fn span_len(span: Pages, tail: Pages) -> Pages {
///     span + tail
/// }
/// assert_eq!(span_len(Pages::new(3), Pages::new(1)).get(), 4);
/// // Against a byte budget, the conversion is spelled out.
/// assert!(Pages::new(3).bytes() < 4 * PAGE_SIZE);
/// assert!(Pages::new(3) < Pages::containing(4 * PAGE_SIZE));
/// ```
///
/// Pages plus sectors has no meaning and no spelling:
///
/// ```compile_fail
/// use sleds_sim_core::units::{Pages, Sectors};
///
/// fn span_len(span: Pages, tail: Sectors) -> Pages {
///     span + tail
/// }
/// ```
///
/// Nor has a page count compared with a byte count:
///
/// ```compile_fail
/// use sleds_sim_core::units::{Pages, PAGE_SIZE};
///
/// assert!(Pages::new(3) < 4 * PAGE_SIZE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Pages(u64);

unit_arithmetic!(Pages);

impl Pages {
    /// The page containing byte `offset` (rounds down).
    pub const fn containing(offset: u64) -> Pages {
        Pages(offset / PAGE_SIZE)
    }

    /// Whole pages needed to hold `bytes` bytes (rounds up).
    pub const fn spanning(bytes: u64) -> Pages {
        Pages(bytes.div_ceil(PAGE_SIZE))
    }

    /// This many pages in bytes — as an index, the page's first byte.
    /// Saturates at `u64::MAX`.
    pub const fn bytes(self) -> u64 {
        self.0.saturating_mul(PAGE_SIZE)
    }

    /// This many pages in sectors. Saturates at `u64::MAX` sectors, which
    /// no device's capacity check admits.
    pub const fn sectors(self) -> Sectors {
        Sectors(self.0.saturating_mul(SECTORS_PER_PAGE))
    }
}

/// A sector count or device sector address. Like [`Pages`], it converts
/// only through named methods.
///
/// ```
/// use sleds_sim_core::units::{Pages, Sectors};
///
/// fn read(sector: Sectors, sectors: Sectors) -> Sectors {
///     sector + sectors
/// }
/// let run = Pages::new(2);
/// assert_eq!(read(Sectors::new(100), run.sectors()).get(), 116);
/// ```
///
/// A page count handed to a sector parameter — the slip that turns a
/// two-page read into a two-sector one — is a type error:
///
/// ```compile_fail
/// use sleds_sim_core::units::{Pages, Sectors};
///
/// fn read(sector: Sectors, sectors: Sectors) -> Sectors {
///     sector + sectors
/// }
/// let run = Pages::new(2);
/// read(Sectors::new(100), run);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Sectors(u64);

unit_arithmetic!(Sectors);

impl Sectors {
    /// This many sectors in bytes. Saturates at `u64::MAX`.
    pub const fn bytes(self) -> u64 {
        self.0.saturating_mul(SECTOR_SIZE)
    }
}

// `index` is lossless only where a `usize` holds every `u64`.
const _: () = assert!(usize::BITS >= 64);

/// A `u64` quantity — page number, byte offset, count — as a slice index or
/// a capacity.
#[expect(
    clippy::cast_possible_truncation,
    reason = "usize::BITS >= 64 is asserted at compile time, just above"
)]
pub const fn index(n: u64) -> usize {
    n as usize
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GIB && b.is_multiple_of(GIB) {
            write!(f, "{}GiB", b / GIB)
        } else if b >= MIB && b.is_multiple_of(MIB) {
            write!(f, "{}MiB", b / MIB)
        } else if b >= KIB && b.is_multiple_of(KIB) {
            write!(f, "{}KiB", b / KIB)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A data rate in bytes per second.
///
/// Stored as `f64` for the same reason the paper stores SLED bandwidths as
/// floats: the dynamic range (KB/s tape staging to GB/s memory) exceeds what
/// fixed-point arithmetic handles comfortably.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    pub fn bytes_per_sec(b: f64) -> Self {
        Bandwidth(b.max(0.0))
    }

    /// Creates a bandwidth from decimal megabytes per second, the unit the
    /// paper's Tables 2 and 3 use.
    pub fn mb_per_sec(mb: f64) -> Self {
        Bandwidth((mb * 1e6).max(0.0))
    }

    /// Returns the rate in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Returns the rate in decimal megabytes per second.
    pub fn as_mb_per_sec(self) -> f64 {
        self.0 / 1e6
    }

    /// Time to transfer `bytes` at this rate.
    ///
    /// A zero bandwidth yields [`SimDuration::MAX`] for a nonzero transfer:
    /// an unreachable device never completes, and the saturating clock makes
    /// that visible rather than wrapping.
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        if self.0 <= 0.0 {
            return SimDuration::MAX;
        }
        SimDuration::from_secs_f64(bytes as f64 / self.0)
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}MB/s", self.as_mb_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_conversions() {
        assert_eq!(ByteSize::kib(4).as_u64(), 4096);
        assert_eq!(ByteSize::mib(1).pages(), Pages::new(256));
        assert_eq!(ByteSize::bytes(1).pages(), Pages::new(1));
        assert_eq!(ByteSize::bytes(0).pages(), Pages::ZERO);
        assert_eq!(ByteSize::bytes(4097).pages(), Pages::new(2));
        assert_eq!(ByteSize::bytes(1024).sectors(), Sectors::new(2));
    }

    /// Every conversion against plain `u64` arithmetic at the edges; where
    /// the plain product overflows the answer is `u64::MAX`, as documented.
    #[test]
    fn conversions_match_plain_arithmetic_and_saturate() {
        let edges = [
            0,
            1,
            PAGE_SIZE - 1,
            PAGE_SIZE,
            PAGE_SIZE + 1,
            u64::MAX / PAGE_SIZE,
            u64::MAX,
        ];
        for n in edges {
            assert_eq!(Pages::containing(n).get(), n / PAGE_SIZE, "containing({n})");
            assert_eq!(
                Pages::spanning(n).get(),
                n.div_ceil(PAGE_SIZE),
                "spanning({n})"
            );
            assert_eq!(ByteSize::bytes(n).pages(), Pages::spanning(n));
            assert_eq!(ByteSize::bytes(n).sectors().get(), n.div_ceil(SECTOR_SIZE));
            let times = |k: u64| u64::try_from(u128::from(n) * u128::from(k)).unwrap_or(u64::MAX);
            assert_eq!(
                Pages::new(n).bytes(),
                times(PAGE_SIZE),
                "{n} pages in bytes"
            );
            assert_eq!(Pages::new(n).sectors().get(), times(SECTORS_PER_PAGE));
            assert_eq!(
                Sectors::new(n).bytes(),
                times(SECTOR_SIZE),
                "{n} sectors in bytes"
            );
            // A page index and the bytes before it round-trip while they fit.
            if n <= u64::MAX / PAGE_SIZE {
                assert_eq!(Pages::containing(Pages::new(n).bytes()), Pages::new(n));
                assert_eq!(Pages::new(n).sectors().bytes(), Pages::new(n).bytes());
            }
            for m in edges {
                let (a, b) = (Pages::new(n), Pages::new(m));
                assert_eq!((a + b).get(), n.saturating_add(m));
                assert_eq!((a - b).get(), n.saturating_sub(m));
                assert_eq!(a.checked_add(b).map(Pages::get), n.checked_add(m));
                assert_eq!(a.cmp(&b), n.cmp(&m));
                let (a, b) = (Sectors::new(n), Sectors::new(m));
                assert_eq!((a + b).get(), n.saturating_add(m));
                assert_eq!((a - b).get(), n.saturating_sub(m));
                assert_eq!(a.checked_add(b).map(Sectors::get), n.checked_add(m));
            }
        }
        assert_eq!(index(u64::MAX) as u64, u64::MAX);
        assert_eq!(
            format!("page {} at sector {}", Pages::new(7), Sectors::new(56)),
            "page 7 at sector 56"
        );
    }

    #[test]
    fn byte_size_display() {
        assert_eq!(format!("{}", ByteSize::mib(64)), "64MiB");
        assert_eq!(format!("{}", ByteSize::bytes(513)), "513B");
        assert_eq!(format!("{}", ByteSize::mib(2048)), "2GiB");
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::mb_per_sec(1.0);
        assert_eq!(bw.transfer_time(1_000_000), SimDuration::from_secs(1));
        assert_eq!(bw.transfer_time(0), SimDuration::ZERO);
    }

    #[test]
    fn zero_bandwidth_never_completes() {
        let bw = Bandwidth::bytes_per_sec(0.0);
        assert_eq!(bw.transfer_time(1), SimDuration::MAX);
    }

    #[test]
    fn negative_bandwidth_clamps() {
        let bw = Bandwidth::mb_per_sec(-5.0);
        assert_eq!(bw.as_bytes_per_sec(), 0.0);
    }
}
