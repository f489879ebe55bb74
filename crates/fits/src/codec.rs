//! Pixel codecs: BITPIX-typed big-endian data to and from `f64`, and the
//! kernels that answer on the native samples without the detour — the
//! value range ([`Bitpix::min_max`]), the raw-sample count table
//! ([`SampleCounts`]) and boxcar sums ([`Bitpix::add_boxes`], also
//! instantiated per box width for widths 2 and 4). Each is one generic
//! loop, instantiated per type with the `match` on [`Bitpix`] outside it,
//! so the compiler can vectorise it.

use crate::format_error;
use sleds_sim_core::SimResult;

/// FITS pixel types (`BITPIX` values).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bitpix {
    /// 8-bit unsigned integers (`BITPIX = 8`).
    U8,
    /// 16-bit signed big-endian integers (`BITPIX = 16`).
    I16,
    /// 32-bit signed big-endian integers (`BITPIX = 32`).
    I32,
    /// 32-bit IEEE floats (`BITPIX = -32`).
    F32,
    /// 64-bit IEEE floats (`BITPIX = -64`).
    F64,
}

/// Calls the generic kernel `$f` at the sample type of `$bitpix`.
macro_rules! per_type {
    ($bitpix:expr, $f:ident($($arg:expr),*)) => {
        match $bitpix {
            Bitpix::U8 => $f::<u8, 1>($($arg),*),
            Bitpix::I16 => $f::<i16, 2>($($arg),*),
            Bitpix::I32 => $f::<i32, 4>($($arg),*),
            Bitpix::F32 => $f::<f32, 4>($($arg),*),
            Bitpix::F64 => $f::<f64, 8>($($arg),*),
        }
    };
}

impl Bitpix {
    /// The header code for this type.
    pub fn code(self) -> i32 {
        match self {
            Bitpix::U8 => 8,
            Bitpix::I16 => 16,
            Bitpix::I32 => 32,
            Bitpix::F32 => -32,
            Bitpix::F64 => -64,
        }
    }

    /// Parses a header code.
    pub fn from_code(code: i32) -> SimResult<Bitpix> {
        match code {
            8 => Ok(Bitpix::U8),
            16 => Ok(Bitpix::I16),
            32 => Ok(Bitpix::I32),
            -32 => Ok(Bitpix::F32),
            -64 => Ok(Bitpix::F64),
            other => Err(format_error(format!("unsupported BITPIX {other}"))),
        }
    }

    /// Bytes per pixel.
    pub fn bytes_per_pixel(self) -> usize {
        match self {
            Bitpix::U8 => 1,
            Bitpix::I16 => 2,
            Bitpix::I32 | Bitpix::F32 => 4,
            Bitpix::F64 => 8,
        }
    }

    /// Decodes `bytes` (a whole number of pixels) into `f64` values.
    pub fn decode(self, bytes: &[u8]) -> SimResult<Vec<f64>> {
        let mut out = Vec::new();
        self.decode_into(bytes, &mut out)?;
        Ok(out)
    }

    /// [`decode`](Self::decode) into a buffer the caller keeps: `out` is
    /// cleared and refilled, so a chunk loop allocates once.
    pub fn decode_into(self, bytes: &[u8], out: &mut Vec<f64>) -> SimResult<()> {
        self.whole_pixels(bytes)?;
        out.clear();
        per_type!(self, decode_as(bytes, out));
        Ok(())
    }

    /// Encodes `f64` values as big-endian pixels of this type, clamping
    /// integer types to their range (cfitsio saturates the same way).
    pub fn encode(self, values: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(values, &mut out);
        out
    }

    /// [`encode`](Self::encode) into a buffer the caller keeps: `out` is
    /// overwritten, not appended to.
    pub fn encode_into(self, values: &[f64], out: &mut Vec<u8>) {
        out.clear();
        out.resize(values.len() * self.bytes_per_pixel(), 0);
        per_type!(self, encode_as(values, out));
    }

    /// The least and greatest sample in `bytes`, found on the native type
    /// and widened once. That is exact: widening to `f64` is lossless and
    /// monotone for all five types, so it commutes with min and max. NaN
    /// samples are skipped, as `f64::min`/`max` skip them, and no samples
    /// (or only NaNs) give the fold's identity `(INFINITY, NEG_INFINITY)`,
    /// so per-chunk results combine with `f64::min`/`max`. Which zero is
    /// returned when `-0.0` and `0.0` tie is as unspecified as it is for
    /// `f64::min`.
    pub fn min_max(self, bytes: &[u8]) -> SimResult<(f64, f64)> {
        self.whole_pixels(bytes)?;
        if bytes.is_empty() {
            return Ok((f64::INFINITY, f64::NEG_INFINITY));
        }
        Ok(per_type!(self, min_max_as(bytes)))
    }

    /// Adds a run of one image row's samples, the first in column `x`, to
    /// the box sums of its output row: the sample in column `c` goes to
    /// `sums[c / factor]`, one addition per sample in column order, so
    /// every sum receives exactly the additions, in the order, that a
    /// pixel-at-a-time loop over the decoded row makes. The run must end
    /// inside the row (`x + samples <= sums.len() * factor`); ragged
    /// bytes, a zero `factor` and a run past the row are refused.
    pub fn add_boxes(
        self,
        bytes: &[u8],
        x: usize,
        factor: usize,
        sums: &mut [f64],
    ) -> SimResult<()> {
        self.whole_pixels(bytes)?;
        let end = x + bytes.len() / self.bytes_per_pixel();
        if factor == 0 || end > sums.len() * factor {
            return Err(format_error(format!(
                "columns {x}..{end} in boxes of {factor} overrun {} sums",
                sums.len()
            )));
        }
        per_type!(self, add_boxes_as(bytes, x, factor, sums));
        Ok(())
    }

    fn whole_pixels(self, bytes: &[u8]) -> SimResult<()> {
        let bpp = self.bytes_per_pixel();
        if !bytes.len().is_multiple_of(bpp) {
            return Err(format_error(format!(
                "{} bytes is not a whole number of {bpp}-byte pixels",
                bytes.len()
            )));
        }
        Ok(())
    }
}

/// A native sample type: `N` big-endian bytes that widen losslessly to
/// `f64`. The kernels below are generic over it so that each is one
/// tight loop per type, with the `match` on [`Bitpix`] outside.
trait Sample<const N: usize>: Copy {
    /// Identities of [`lower`](Self::lower) and [`upper`](Self::upper).
    const TOP: Self;
    const BOTTOM: Self;
    fn from_be(px: [u8; N]) -> Self;
    fn to_be(self) -> [u8; N];
    fn widen(self) -> f64;
    /// Float-to-integer `as` saturates and sends NaN to 0.
    fn narrow(v: f64) -> Self;
    /// The lesser / greater of two samples, skipping a NaN.
    fn lower(self, other: Self) -> Self;
    fn upper(self, other: Self) -> Self;
}

macro_rules! sample {
    ($t:ty, $n:literal, $top:expr, $bottom:expr) => {
        impl Sample<$n> for $t {
            const TOP: Self = $top;
            const BOTTOM: Self = $bottom;
            fn from_be(px: [u8; $n]) -> Self {
                <$t>::from_be_bytes(px)
            }
            fn to_be(self) -> [u8; $n] {
                self.to_be_bytes()
            }
            fn widen(self) -> f64 {
                self as f64
            }
            fn narrow(v: f64) -> Self {
                v as $t
            }
            fn lower(self, other: Self) -> Self {
                self.min(other)
            }
            fn upper(self, other: Self) -> Self {
                self.max(other)
            }
        }
    };
}

sample!(u8, 1, u8::MAX, u8::MIN);
sample!(i16, 2, i16::MAX, i16::MIN);
sample!(i32, 4, i32::MAX, i32::MIN);
sample!(f32, 4, f32::INFINITY, f32::NEG_INFINITY);
sample!(f64, 8, f64::INFINITY, f64::NEG_INFINITY);

/// The samples of `bytes`, already checked to be whole pixels.
fn samples<T: Sample<N>, const N: usize>(bytes: &[u8]) -> impl Iterator<Item = T> + '_ {
    bytes.as_chunks::<N>().0.iter().map(|&px| T::from_be(px))
}

fn decode_as<T: Sample<N>, const N: usize>(bytes: &[u8], out: &mut Vec<f64>) {
    out.extend(samples::<T, N>(bytes).map(T::widen));
}

fn encode_as<T: Sample<N>, const N: usize>(values: &[f64], out: &mut [u8]) {
    for (px, &v) in out.as_chunks_mut::<N>().0.iter_mut().zip(values) {
        *px = T::narrow(v).to_be();
    }
}

fn min_max_as<T: Sample<N>, const N: usize>(bytes: &[u8]) -> (f64, f64) {
    let (lo, hi) = samples::<T, N>(bytes).fold((T::TOP, T::BOTTOM), |(lo, hi), v| {
        (lo.lower(v), hi.upper(v))
    });
    (lo.widen(), hi.widen())
}

/// The paper's box widths (2x2 and 4x4) get a loop of their own with the
/// width a constant; any other runs the same loop at a runtime width.
fn add_boxes_as<T: Sample<N>, const N: usize>(
    bytes: &[u8],
    x: usize,
    factor: usize,
    sums: &mut [f64],
) {
    match factor {
        2 => add_boxes_of::<T, N, 2>(bytes, x, factor, sums),
        4 => add_boxes_of::<T, N, 4>(bytes, x, factor, sums),
        _ => add_boxes_of::<T, N, 0>(bytes, x, factor, sums),
    }
}

/// [`Bitpix::add_boxes`] on checked input, in boxes of `W` samples, or of
/// `factor` when `W` is 0. The run is the rest of the box `x` falls
/// inside, whole boxes, and the start of one more, so the division is
/// paid once per run.
fn add_boxes_of<T: Sample<N>, const N: usize, const W: usize>(
    bytes: &[u8],
    x: usize,
    factor: usize,
    sums: &mut [f64],
) {
    let width = if W == 0 { factor } else { W };
    let add = |sum: &mut f64, px: &[[u8; N]]| {
        for &p in px {
            *sum += T::from_be(p).widen();
        }
    };
    let px = bytes.as_chunks::<N>().0;
    let (head, rest) = px.split_at(px.len().min(x.next_multiple_of(width) - x));
    if !head.is_empty() {
        add(&mut sums[x / width], head);
    }
    let first = x.div_ceil(width);
    let boxes = rest.chunks_exact(width);
    if !boxes.remainder().is_empty() {
        add(&mut sums[first + rest.len() / width], boxes.remainder());
    }
    for (sum, px) in sums[first..].iter_mut().zip(boxes) {
        add(sum, px);
    }
}

/// How often each raw sample of an 8- or 16-bit image occurs: one slot
/// per bit pattern (2^16 `u64`s, 512 KiB, at most). With it a function of
/// the pixel value — a histogram bin — is worked out once per distinct
/// value instead of once per pixel, and the answer is the same because
/// equal samples widen to equal `f64`s.
#[derive(Clone, Debug)]
pub struct SampleCounts {
    bitpix: Bitpix,
    counts: Vec<u64>,
}

impl SampleCounts {
    /// An empty table for `bitpix`, or `None` for the 32- and 64-bit
    /// types, whose tables would outgrow any image.
    pub fn new(bitpix: Bitpix) -> Option<SampleCounts> {
        let slots = match bitpix {
            Bitpix::U8 => 1 << 8,
            Bitpix::I16 => 1 << 16,
            Bitpix::I32 | Bitpix::F32 | Bitpix::F64 => return None,
        };
        Some(SampleCounts {
            bitpix,
            counts: vec![0; slots],
        })
    }

    /// Counts the samples in `bytes` (a whole number of pixels).
    pub fn add(&mut self, bytes: &[u8]) -> SimResult<()> {
        self.bitpix.whole_pixels(bytes)?;
        match self.bitpix {
            Bitpix::U8 => {
                // Slicing to the slot count lets the compiler see that no
                // index can be out of bounds.
                let counts = &mut self.counts[..1 << 8];
                for &b in bytes {
                    counts[usize::from(b)] += 1;
                }
            }
            // `new` admits nothing wider than I16.
            _ => {
                let counts = &mut self.counts[..1 << 16];
                for &px in bytes.as_chunks::<2>().0 {
                    counts[usize::from(u16::from_be_bytes(px))] += 1;
                }
            }
        }
        Ok(())
    }

    /// `(value, count)` for every value seen at least once.
    pub fn distinct(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let bitpix = self.bitpix;
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(move |(raw, &n)| match bitpix {
                Bitpix::U8 => (raw as f64, n),
                _ => (f64::from(raw as u16 as i16), n),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for b in [
            Bitpix::U8,
            Bitpix::I16,
            Bitpix::I32,
            Bitpix::F32,
            Bitpix::F64,
        ] {
            assert_eq!(Bitpix::from_code(b.code()).unwrap(), b);
        }
        assert!(Bitpix::from_code(64).is_err());
    }

    #[test]
    fn decode_encode_roundtrip_all_types() {
        let values = vec![0.0, 1.0, 100.0, 255.0];
        for b in [
            Bitpix::U8,
            Bitpix::I16,
            Bitpix::I32,
            Bitpix::F32,
            Bitpix::F64,
        ] {
            let enc = b.encode(&values);
            assert_eq!(enc.len(), values.len() * b.bytes_per_pixel());
            let dec = b.decode(&enc).unwrap();
            assert_eq!(dec, values, "{b:?}");
        }
    }

    #[test]
    fn big_endian_layout() {
        assert_eq!(Bitpix::I16.encode(&[258.0]), vec![1, 2]);
        assert_eq!(
            Bitpix::I16.decode(&[0xff, 0xfe]).unwrap(),
            vec![-2.0],
            "sign extension"
        );
        assert_eq!(Bitpix::I32.encode(&[1.0]), vec![0, 0, 0, 1]);
    }

    #[test]
    fn integer_clamping() {
        assert_eq!(Bitpix::U8.encode(&[-5.0, 300.0]), vec![0, 255]);
        assert_eq!(
            Bitpix::I16.decode(&Bitpix::I16.encode(&[1e9])).unwrap(),
            vec![i16::MAX as f64]
        );
    }

    #[test]
    fn ragged_input_rejected() {
        assert!(Bitpix::I16.decode(&[1, 2, 3]).is_err());
        assert!(Bitpix::F64.decode(&[0; 12]).is_err());
    }

    #[test]
    fn negative_floats_roundtrip() {
        let values = vec![-1.5, 3.25, -0.0, f64::MAX];
        let dec = Bitpix::F64.decode(&Bitpix::F64.encode(&values)).unwrap();
        assert_eq!(dec, values);
        let dec32 = Bitpix::F32
            .decode(&Bitpix::F32.encode(&[-1.5, 3.25]))
            .unwrap();
        assert_eq!(dec32, vec![-1.5, 3.25]);
    }

    #[test]
    fn into_variants_overwrite_the_buffer() {
        let mut values = vec![9.0; 7];
        Bitpix::I16
            .decode_into(&[0, 1, 0xff, 0xff], &mut values)
            .unwrap();
        assert_eq!(values, vec![1.0, -1.0]);
        let mut bytes = vec![9; 7];
        Bitpix::I16.encode_into(&values, &mut bytes);
        assert_eq!(bytes, vec![0, 1, 0xff, 0xff]);
        assert!(Bitpix::I32.decode_into(&[0; 6], &mut values).is_err());
    }

    #[test]
    fn min_max_on_native_samples() {
        let i16s = Bitpix::I16.encode(&[-2.0, 5.0, -32768.0, 4.0]);
        assert_eq!(Bitpix::I16.min_max(&i16s).unwrap(), (-32768.0, 5.0));
        assert_eq!(Bitpix::U8.min_max(&[7, 200, 3]).unwrap(), (3.0, 200.0));
        // NaNs are skipped wherever they sit; infinities are not.
        let f32s = Bitpix::F32.encode(&[f64::NAN, 1.5, f64::NEG_INFINITY, f64::NAN, 2.5]);
        assert_eq!(
            Bitpix::F32.min_max(&f32s).unwrap(),
            (f64::NEG_INFINITY, 2.5)
        );
        // Nothing to fold, or only NaNs: the identity.
        let identity = (f64::INFINITY, f64::NEG_INFINITY);
        assert_eq!(Bitpix::I32.min_max(&[]).unwrap(), identity);
        let nans = Bitpix::F64.encode(&[f64::NAN, f64::NAN]);
        assert_eq!(Bitpix::F64.min_max(&nans).unwrap(), identity);
        assert!(Bitpix::I16.min_max(&[1, 2, 3]).is_err());
    }

    #[test]
    fn sample_counts_list_distinct_values() {
        let mut counts = SampleCounts::new(Bitpix::I16).unwrap();
        counts.add(&Bitpix::I16.encode(&[-1.0, 3.0, -1.0])).unwrap();
        counts.add(&Bitpix::I16.encode(&[3.0, -32768.0])).unwrap();
        let mut got: Vec<_> = counts.distinct().collect();
        got.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(got, vec![(-32768.0, 1), (-1.0, 2), (3.0, 2)]);
        assert!(counts.add(&[0]).is_err());

        let mut counts = SampleCounts::new(Bitpix::U8).unwrap();
        counts.add(&[255, 0, 255]).unwrap();
        assert_eq!(
            counts.distinct().collect::<Vec<_>>(),
            vec![(0.0, 1), (255.0, 2)]
        );
        for wide in [Bitpix::I32, Bitpix::F32, Bitpix::F64] {
            assert!(SampleCounts::new(wide).is_none());
        }
    }
}
