//! `fimhisto`: copy a FITS image and append a histogram of its pixels.
//!
//! Faithful to the LHEASOFT tool's three-pass structure, which is what
//! makes it interesting for SLEDs (the paper observed its cache behaviour
//! matches Figure 3):
//!
//! 1. copy the main data unit to the output file, unprocessed;
//! 2. read the pixels again (with format conversion) to find the value
//!    range for binning;
//! 3. read the pixels a third time, bin them, and append the histogram to
//!    the output.
//!
//! The SLEDs port reorders the reads of passes 2 and 3 — pass 1's output
//! copy stays sequential, exactly as the paper did it. About a quarter of
//! the total I/O is writes, which SLEDs does not help; that is the paper's
//! explanation for fimhisto's smaller gains, and it emerges here too.
//!
//! What the virtual machine is charged for "format conversion" and
//! "binning" is a per-chunk constant; how the host gets the answers is
//! its own business, and it gets them from the native big-endian samples:
//!
//! * pass 2 folds min and max over the sample type itself and widens the
//!   two results — exact, because widening any of the five types to `f64`
//!   is lossless and monotone, so it commutes with min and max (NaNs are
//!   skipped either way);
//! * pass 3 has one bin expression, `bin_of`. For 8- and 16-bit samples
//!   it only counts raw samples into a table of at most 2^16 slots and
//!   applies `bin_of` once per *distinct value* when the pass ends —
//!   exact, because equal samples widen to equal `f64`s and so land in
//!   equal bins, and bin counts are integers, whose sum has no order. For
//!   32- and 64-bit samples, whose table would outgrow the image, it
//!   applies `bin_of` per pixel from one reused decode buffer.
//!
//! The switch is on BITPIX, a property of the input. `tests/golden_fits.rs`
//! pins range, histogram, output bytes and virtual costs for every type.

use sleds::{PickConfig, PickSession, SledsTable};
use sleds_fits::{header::FitsHeader, Bitpix, FitsReader, FitsWriter, SampleCounts};
use sleds_fs::{Fd, Kernel, OpenFlags, Whence};
use sleds_sim_core::{SimDuration, SimResult};

use crate::{charge_per_byte, closing_files, BUFSIZE};

/// CPU cost of pixel format conversion, per byte.
const CONVERT_NS_PER_BYTE: u64 = 5;

/// CPU cost of histogram binning, per pixel.
const BIN_NS_PER_PIXEL: u64 = 4;

/// Histogram bins, matching the LHEASOFT default.
pub const DEFAULT_BINS: usize = 256;

/// fimhisto's output: where the copy went and what the histogram was.
#[derive(Clone, Debug, PartialEq)]
pub struct FimhistoResult {
    /// The output file (copy + appended histogram HDU).
    pub output: String,
    /// Pixel value range found in pass 2.
    pub min: f64,
    /// Pixel value range found in pass 2.
    pub max: f64,
    /// Bin counts from pass 3.
    pub histogram: Vec<u64>,
}

/// Runs fimhisto: copies `input` to `output` and appends a histogram HDU.
/// `table` selects the SLEDs mode for passes 2 and 3.
pub fn fimhisto(
    kernel: &mut Kernel,
    input: &str,
    output: &str,
    bins: usize,
    table: Option<&SledsTable>,
) -> SimResult<FimhistoResult> {
    closing_files(kernel, |kernel, open| {
        three_passes(kernel, open, input, output, bins, table)
    })
}

/// The tool itself; every descriptor it opens goes on `open`.
fn three_passes(
    kernel: &mut Kernel,
    open: &mut Vec<Fd>,
    input: &str,
    output: &str,
    bins: usize,
    table: Option<&SledsTable>,
) -> SimResult<FimhistoResult> {
    let reader = FitsReader::open(kernel, input)?;
    let in_fd = reader.fd();
    open.push(in_fd);
    let bitpix = reader.bitpix();
    let file_size = kernel.fstat(in_fd)?.size;
    // Pass 3's count table (narrow samples only), taken before the output
    // file exists. Where half a megabyte lands in the heap matters to
    // whoever allocates next: taken between passes 1 and 3 instead, glibc
    // gave the benchmark's next set-up a fresh 12 MiB mapping every
    // repetition (3,027 page faults, measured on eight seeds) that it
    // does not need this way.
    let mut counts = SampleCounts::new(bitpix);

    // Pass 1: copy everything, sequentially (both modes).
    let out_fd = kernel.open(output, OpenFlags::CREATE_RDWR)?;
    open.push(out_fd);
    sleds_fits::io::copy_bytes(kernel, in_fd, out_fd, file_size, BUFSIZE)?;

    // Pass 2: find the value range, on the native samples.
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for_each_pixel_chunk(kernel, &reader, table, |kernel, bytes| {
        charge_per_byte(kernel, bytes.len(), CONVERT_NS_PER_BYTE);
        let (lo, hi) = bitpix.min_max(bytes)?;
        min = min.min(lo);
        max = max.max(hi);
        Ok(())
    })?;
    if !min.is_finite() || !max.is_finite() {
        min = 0.0;
        max = 0.0;
    }

    // Pass 3: bin. Narrow samples are only counted here, and binned once
    // per distinct value when the pass ends; wide ones are binned one by
    // one from a decode buffer that is reused.
    let mut histogram = vec![0u64; bins.max(1)];
    let width = if max > min { max - min } else { 1.0 };
    let last_bin = histogram.len() - 1;
    let bin_of = |v: f64| ((((v - min) / width) * last_bin as f64).round() as usize).min(last_bin);
    let mut values = Vec::new();
    for_each_pixel_chunk(kernel, &reader, table, |kernel, bytes| {
        charge_per_byte(kernel, bytes.len(), CONVERT_NS_PER_BYTE);
        let pixels = bytes.len() / bitpix.bytes_per_pixel();
        kernel.charge_cpu(SimDuration::from_nanos(BIN_NS_PER_PIXEL * pixels as u64));
        match &mut counts {
            Some(counts) => counts.add(bytes)?,
            None => {
                bitpix.decode_into(bytes, &mut values)?;
                for &v in &values {
                    histogram[bin_of(v)] += 1;
                }
            }
        }
        Ok(())
    })?;
    if let Some(counts) = &counts {
        for (v, n) in counts.distinct() {
            histogram[bin_of(v)] += n;
        }
    }

    // Append the histogram as an IMAGE extension on the output.
    kernel.lseek(out_fd, 0, Whence::End)?;
    let ext = FitsHeader::image_extension(Bitpix::F64, &[histogram.len()]);
    let mut w = FitsWriter::begin_hdu(kernel, out_fd, ext)?;
    let as_f64: Vec<f64> = histogram.iter().map(|&c| c as f64).collect();
    w.write_pixels(kernel, &as_f64)?;
    w.finish(kernel)?;

    Ok(FimhistoResult {
        output: output.to_string(),
        min,
        max,
        histogram,
    })
}

/// Drives one full pass over the input pixels, in sequential order
/// (baseline) or pick order (SLEDs), invoking `f` with each chunk's raw
/// big-endian samples — always a whole number of pixels.
fn for_each_pixel_chunk(
    kernel: &mut Kernel,
    reader: &FitsReader,
    table: Option<&SledsTable>,
    mut f: impl FnMut(&mut Kernel, &[u8]) -> SimResult<()>,
) -> SimResult<()> {
    let bpp = reader.bitpix().bytes_per_pixel() as u64;
    let data_start = reader.data_start();
    let data_end = reader.data_end();
    match table {
        None => {
            let mut pos = data_start;
            while pos < data_end {
                let len = (data_end - pos).min(BUFSIZE as u64) as usize;
                let bytes = kernel.pread(reader.fd(), pos, len)?;
                f(kernel, &bytes)?;
                pos += len as u64;
            }
        }
        // [sleds:begin]
        Some(table) => {
            let mut pick =
                PickSession::init(kernel, table, reader.fd(), PickConfig::bytes(BUFSIZE))?;
            while let Some((offset, len)) = pick.next_read() {
                // Clip the chunk to the pixel region. Cut points stay
                // pixel-aligned: pages, FITS blocks and pixels all divide
                // evenly into each other.
                let lo = offset.max(data_start);
                let hi = (offset + len as u64).min(data_end);
                if lo >= hi {
                    continue;
                }
                debug_assert!((lo - data_start).is_multiple_of(bpp));
                let bytes = kernel.pread(reader.fd(), lo, (hi - lo) as usize)?;
                f(kernel, &bytes)?;
            }
            pick.finish();
        } // [sleds:end]
    }
    Ok(())
}

/// Convenience for tests and benches: decoded histogram of a finished
/// output file's extension HDU.
pub fn read_back_histogram(kernel: &mut Kernel, output: &str) -> SimResult<Vec<u64>> {
    closing_files(kernel, |kernel, open| {
        let primary = FitsReader::open(kernel, output)?;
        open.push(primary.fd());
        let ext = FitsReader::from_fd(kernel, primary.fd(), primary.next_hdu_offset()?)?;
        let values = ext.read_pixels_at(kernel, 0, ext.pixel_count() as usize)?;
        Ok(values.iter().map(|&v| v as u64).collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_devices::DiskDevice;
    use sleds_fits::generate_image_bytes;
    use sleds_lmbench::fill_table;

    fn setup() -> (Kernel, SledsTable) {
        let mut k = Kernel::table3();
        k.mkdir("/data").unwrap();
        let m = k
            .mount_disk("/data", DiskDevice::table3_disk("hda"))
            .unwrap();
        let t = fill_table(&mut k, &[("/data", m)]).unwrap();
        (k, t)
    }

    #[test]
    fn histogram_counts_every_pixel() {
        let (mut k, _) = setup();
        let img = generate_image_bytes(128, 64, Bitpix::I16, 11);
        k.install_file("/data/in.fits", &img).unwrap();
        let r = fimhisto(&mut k, "/data/in.fits", "/data/out.fits", 64, None).unwrap();
        assert_eq!(r.histogram.iter().sum::<u64>(), 128 * 64);
        assert!(r.min < r.max);
        // Output file contains the copy plus the histogram HDU.
        let back = read_back_histogram(&mut k, "/data/out.fits").unwrap();
        assert_eq!(back, r.histogram);
        let out_size = k.stat("/data/out.fits").unwrap().size;
        assert!(out_size > img.len() as u64);
    }

    #[test]
    fn sleds_mode_bitwise_matches_baseline() {
        let (mut k, t) = setup();
        let img = generate_image_bytes(256, 96, Bitpix::F32, 12);
        k.install_file("/data/in.fits", &img).unwrap();
        let base = fimhisto(&mut k, "/data/in.fits", "/data/b.fits", DEFAULT_BINS, None).unwrap();
        // Leave the cache warm and scrambled, then run the SLEDs port.
        let with = fimhisto(
            &mut k,
            "/data/in.fits",
            "/data/s.fits",
            DEFAULT_BINS,
            Some(&t),
        )
        .unwrap();
        assert_eq!(base.histogram, with.histogram);
        assert_eq!(base.min, with.min);
        assert_eq!(base.max, with.max);
    }

    #[test]
    fn constant_image_degenerates_gracefully() {
        let (mut k, _) = setup();
        // All-zero image via a writer.
        let mut w = FitsWriter::create(&mut k, "/data/z.fits", Bitpix::U8, &[100]).unwrap();
        w.write_pixels(&mut k, &[7.0; 100]).unwrap();
        let fd = w.finish(&mut k).unwrap();
        k.close(fd).unwrap();
        let r = fimhisto(&mut k, "/data/z.fits", "/data/zo.fits", 16, None).unwrap();
        assert_eq!(r.min, 7.0);
        assert_eq!(r.max, 7.0);
        assert_eq!(r.histogram[0], 100);
        assert_eq!(r.histogram.iter().sum::<u64>(), 100);
    }

    #[test]
    fn writes_are_a_real_fraction_of_io() {
        // The paper: "fimhisto's I/O workload is one fourth writes".
        let (mut k, _) = setup();
        let img = generate_image_bytes(1024, 256, Bitpix::I16, 13);
        k.install_file("/data/in.fits", &img).unwrap();
        k.reset_counters();
        let j = k.start_job();
        fimhisto(
            &mut k,
            "/data/in.fits",
            "/data/out.fits",
            DEFAULT_BINS,
            None,
        )
        .unwrap();
        let rep = k.finish_job(&j);
        let frac = rep.usage.bytes_written as f64
            / (rep.usage.bytes_read + rep.usage.bytes_written) as f64;
        assert!(
            (0.15..0.35).contains(&frac),
            "write fraction {frac} (3 read passes + 1 copy write)"
        );
    }

    #[test]
    fn error_returns_leak_no_descriptor() {
        let (mut k, _) = setup();
        let img = generate_image_bytes(64, 64, Bitpix::I16, 14);
        k.install_file("/data/in.fits", &img).unwrap();
        // Descriptors are handed out in sequence: the input takes the one
        // after this probe's.
        let probe = k.open("/data/in.fits", OpenFlags::RDONLY).unwrap();
        k.close(probe).unwrap();
        // The output cannot be created, after the input was opened.
        assert!(fimhisto(&mut k, "/data/in.fits", "/nowhere/out.fits", 16, None).is_err());
        let err = k.close(Fd(probe.0 + 1)).unwrap_err();
        assert_eq!(err.errno, sleds_sim_core::Errno::Ebadf);
    }
}
