//! Property tests for the FITS substrate: header/codec round trips and
//! streaming I/O invariants over the simulated kernel.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

#![expect(clippy::float_cmp, reason = "a codec round trip returns the same bits")]

use sleds_devices::DiskDevice;
use sleds_fits::{
    header::padded_len, Bitpix, FitsHeader, FitsReader, FitsWriter, SampleCounts, BLOCK_SIZE,
};
use sleds_fs::Kernel;
use sleds_sim_core::{check, DetRng};

fn random_bitpix(rng: &mut DetRng) -> Bitpix {
    [
        Bitpix::U8,
        Bitpix::I16,
        Bitpix::I32,
        Bitpix::F32,
        Bitpix::F64,
    ][rng.range_usize(0, 5)]
}

/// Header encode/parse round trips for arbitrary shapes.
#[test]
fn header_roundtrip() {
    check::run("header_roundtrip", |rng| {
        let bitpix = random_bitpix(rng);
        let naxes = rng.range_usize(0, 4);
        let axes: Vec<usize> = (0..naxes).map(|_| rng.range_usize(1, 10_000)).collect();
        let h = FitsHeader::primary(bitpix, &axes);
        let enc = h.encode();
        assert!(enc.len().is_multiple_of(BLOCK_SIZE));
        let (parsed, consumed) = FitsHeader::parse(&enc).unwrap();
        assert_eq!(consumed, enc.len());
        assert_eq!(parsed.bitpix().unwrap(), bitpix);
        assert_eq!(parsed.axes().unwrap(), axes);
    });
}

/// Integer codecs round trip exactly for in-range integral values;
/// float codecs round trip exactly for f32-representable values.
#[test]
fn codec_roundtrip() {
    check::run("codec_roundtrip", |rng| {
        let bitpix = random_bitpix(rng);
        let n = rng.range_usize(0, 200);
        let values: Vec<f64> = (0..n)
            .map(|_| rng.range_u64(0, 60_000) as f64 - 30_000.0)
            .collect();
        let enc = bitpix.encode(&values);
        assert_eq!(enc.len(), values.len() * bitpix.bytes_per_pixel());
        let dec = bitpix.decode(&enc).unwrap();
        for (orig, got) in values.iter().zip(&dec) {
            let expect = match bitpix {
                Bitpix::U8 => orig.clamp(0.0, 255.0),
                Bitpix::I16 => orig.clamp(i16::MIN as f64, i16::MAX as f64),
                _ => *orig,
            };
            assert_eq!(*got, expect);
        }
    });
}

/// Reference decoder: one pixel, one `match`.
fn reference_decode(bitpix: Bitpix, px: &[u8]) -> f64 {
    match bitpix {
        Bitpix::U8 => px[0] as f64,
        Bitpix::I16 => i16::from_be_bytes(px.try_into().unwrap()) as f64,
        Bitpix::I32 => i32::from_be_bytes(px.try_into().unwrap()) as f64,
        Bitpix::F32 => f32::from_be_bytes(px.try_into().unwrap()) as f64,
        Bitpix::F64 => f64::from_be_bytes(px.try_into().unwrap()),
    }
}

/// Reference encoder: clamp, cast, big-endian, one value at a time.
fn reference_encode(bitpix: Bitpix, v: f64, out: &mut Vec<u8>) {
    match bitpix {
        Bitpix::U8 => out.push(v.clamp(0.0, 255.0) as u8),
        Bitpix::I16 => {
            out.extend_from_slice(&(v.clamp(i16::MIN as f64, i16::MAX as f64) as i16).to_be_bytes())
        }
        Bitpix::I32 => {
            out.extend_from_slice(&(v.clamp(i32::MIN as f64, i32::MAX as f64) as i32).to_be_bytes())
        }
        Bitpix::F32 => out.extend_from_slice(&(v as f32).to_be_bytes()),
        Bitpix::F64 => out.extend_from_slice(&v.to_be_bytes()),
    }
}

/// The per-type kernels — decode, encode, min/max on native samples, the
/// raw-sample count table, box sums — agree bit for bit with a pixel-at-a-time
/// reference on random bytes (so floats include NaNs, infinities and
/// subnormals), reuse their buffers, and refuse ragged input.
#[test]
fn kernels_match_per_pixel_reference() {
    check::run("kernels_match_per_pixel_reference", |rng| {
        let bitpix = random_bitpix(rng);
        let bpp = bitpix.bytes_per_pixel();
        let mut bytes = vec![0u8; rng.range_usize(0, 300) * bpp];
        rng.fill_bytes(&mut bytes);
        // Floats: shrink some exponents so that finite values are common.
        if matches!(bitpix, Bitpix::F32 | Bitpix::F64) {
            for px in bytes.chunks_exact_mut(bpp) {
                if rng.chance(0.7) {
                    px[0] = (px[0] & 0x80) | 0x3f;
                }
            }
        }
        let want: Vec<f64> = bytes
            .chunks_exact(bpp)
            .map(|px| reference_decode(bitpix, px))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // Decode, fresh and into a dirty buffer.
        assert_eq!(bits(&bitpix.decode(&bytes).unwrap()), bits(&want));
        let mut reused = vec![1.5; rng.range_usize(0, 400)];
        bitpix.decode_into(&bytes, &mut reused).unwrap();
        assert_eq!(bits(&reused), bits(&want));

        // Encode, of the decoded values and of wild ones.
        let mut values = want.clone();
        values.extend((0..16).map(|_| (rng.unit_f64() - 0.5) * 1e11));
        values.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]);
        let mut want_bytes = Vec::new();
        for &v in &values {
            reference_encode(bitpix, v, &mut want_bytes);
        }
        assert_eq!(bitpix.encode(&values), want_bytes);
        let mut reused = vec![0xaa; rng.range_usize(0, 400)];
        bitpix.encode_into(&values, &mut reused);
        assert_eq!(reused, want_bytes);

        // Min/max: a fold over the widened values.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &want {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let (got_lo, got_hi) = bitpix.min_max(&bytes).unwrap();
        // `==` would let -0.0 pass for 0.0, which `min` leaves unspecified;
        // everything else must be the same bits.
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0);
        assert!(same(got_lo, lo) && same(got_hi, hi), "{bitpix:?}");

        // The count table holds exactly the multiset of decoded values.
        if let Some(mut counts) = SampleCounts::new(bitpix) {
            counts.add(&bytes[..bytes.len() / 2 / bpp * bpp]).unwrap();
            counts.add(&bytes[bytes.len() / 2 / bpp * bpp..]).unwrap();
            let mut got: Vec<(u64, u64)> =
                counts.distinct().map(|(v, n)| (v.to_bits(), n)).collect();
            got.sort_unstable();
            let mut sorted = bits(&want);
            sorted.sort_unstable();
            let want_counts: Vec<(u64, u64)> = sorted
                .chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as u64))
                .collect();
            assert_eq!(got, want_counts);
            assert!(bpp == 1 || counts.add(&bytes[..1]).is_err());
        } else {
            assert!(bpp >= 4);
        }

        // Box sums: a run from column `x`, ending inside the row, adds to
        // pre-seeded sums what `sums[(x + i) / factor] += px` adds, bit for
        // bit. Widths 2 and 4 are the constant-width loops, 3, 5 and 6 the
        // runtime one. Half the float runs are made of values whose sum
        // changes with the order of two additions.
        let factor = rng.range_usize(2, 7);
        let tricky = [1e16, 1.0, -1e16, -1.0];
        let run = if matches!(bitpix, Bitpix::F32 | Bitpix::F64) && rng.chance(0.5) {
            let values: Vec<f64> = (0..want.len())
                .map(|_| tricky[rng.range_usize(0, tricky.len())])
                .collect();
            bitpix.encode(&values)
        } else {
            bytes.clone()
        };
        let x = rng.range_usize(0, 3 * factor);
        let samples = run.len() / bpp;
        let row = ((x + samples).div_ceil(factor) + rng.range_usize(0, 3)).max(1);
        let seeds: Vec<f64> = (0..row)
            .map(|_| match rng.range_usize(0, 3) {
                0 => tricky[rng.range_usize(0, tricky.len())],
                1 => 0.0,
                _ => rng.unit_f64() * 1e3,
            })
            .collect();
        let mut want_sums = seeds.clone();
        for (i, px) in run.chunks_exact(bpp).enumerate() {
            want_sums[(x + i) / factor] += reference_decode(bitpix, px);
        }
        let mut sums = seeds;
        bitpix.add_boxes(&run, x, factor, &mut sums).unwrap();
        assert_eq!(
            bits(&sums),
            bits(&want_sums),
            "{bitpix:?}, x {x}, factor {factor}"
        );
        // One column past the row, or boxes of no width, are refused.
        let past = row * factor + 1 - samples;
        assert!(bitpix.add_boxes(&run, past, factor, &mut sums).is_err());
        assert!(bitpix.add_boxes(&run, 0, 0, &mut sums).is_err());

        // Ragged input is refused by every kernel that takes bytes.
        if bpp > 1 {
            bytes.push(0);
            assert!(bitpix.decode(&bytes).is_err());
            assert!(bitpix.decode_into(&bytes, &mut Vec::new()).is_err());
            assert!(bitpix.min_max(&bytes).is_err());
            let mut sums = vec![0.0; bytes.len()];
            assert!(bitpix.add_boxes(&bytes, 0, factor, &mut sums).is_err());
        }
    });
}

/// padded_len is the least multiple of the block size >= input.
#[test]
fn padded_len_properties() {
    check::run("padded_len_properties", |rng| {
        let n = rng.range_u64(0, 10_000_000);
        let p = padded_len(n);
        assert!(p >= n);
        assert!(p.is_multiple_of(BLOCK_SIZE as u64));
        assert!(p < n + BLOCK_SIZE as u64);
    });
}

/// Full write/read cycles through the kernel preserve pixels exactly,
/// for arbitrary image shapes and chunked writes.
#[test]
fn kernel_io_roundtrip() {
    check::run("kernel_io_roundtrip", |rng| {
        let width = rng.range_usize(1, 64);
        let height = rng.range_usize(1, 32);
        let chunk = rng.range_usize(1, 512);
        let mut k = Kernel::table3();
        k.mkdir("/d").unwrap();
        k.mount_disk("/d", DiskDevice::table3_disk("hda")).unwrap();
        let n = width * height;
        let values: Vec<f64> = (0..n).map(|_| rng.range_u64(0, 30_000) as f64).collect();
        let mut w =
            FitsWriter::create(&mut k, "/d/img.fits", Bitpix::I32, &[width, height]).unwrap();
        for c in values.chunks(chunk) {
            w.write_pixels(&mut k, c).unwrap();
        }
        let fd = w.finish(&mut k).unwrap();
        k.close(fd).unwrap();

        let r = FitsReader::open(&mut k, "/d/img.fits").unwrap();
        assert_eq!(r.pixel_count(), n as u64);
        // Read back in a different chunking.
        let mut got = Vec::with_capacity(n);
        let mut idx = 0u64;
        while (idx as usize) < n {
            let part = r.read_pixels_at(&mut k, idx, chunk + 7).unwrap();
            assert!(!part.is_empty());
            idx += part.len() as u64;
            got.extend(part);
        }
        assert_eq!(got, values);
        let size = k.stat("/d/img.fits").unwrap().size;
        assert!(size.is_multiple_of(BLOCK_SIZE as u64));
    });
}
