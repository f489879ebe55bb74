//! `fimgbin`: rebin a FITS image with a rectangular boxcar filter.
//!
//! An `f x f` boxcar reduces the data volume by `f^2` (the paper ran
//! factors 4 and 16, i.e. 2x2 and 4x4). The baseline streams input rows and
//! writes each finished output row sequentially. The SLEDs port reorders
//! the *input* reads; output rows then complete out of order and are
//! written positionally through an accumulation buffer — the "substantially
//! more complex write path with more internal buffering" the paper blames
//! for fimgbin's smaller elapsed-time gains despite similar fault
//! reductions.
//!
//! Sums are `f64`, but no chunk is decoded into a buffer of them: each
//! chunk's raw big-endian bytes are cut at input-row boundaries, and a
//! run of one row's samples finds its output row's accumulator once and
//! hands the run to [`Bitpix::add_boxes`], which widens each sample and
//! adds it to its box's sum in one pass, with the box width a constant
//! at factors 2 and 4. (Chunks start and end on whole pixels: the data
//! unit and every page start on a multiple of 8 bytes.) Every output
//! pixel still receives its samples one at a time, in the order they
//! arrive, so every `f64` sum — and every mean and output byte — is what
//! a pixel-at-a-time loop produces, in either mode; a row is written when
//! the run holding its last kept sample has been added, which is where
//! the pixel loop wrote it, since nothing else happens inside a chunk.
//! `tests/golden_fits.rs` pins the output bytes and virtual costs for
//! every BITPIX at factors 2, 4 and 3.

use std::collections::BTreeMap;

use sleds::{PickConfig, PickSession, SledsTable};
use sleds_fits::{header::FitsHeader, Bitpix, FitsReader};
use sleds_fs::{Fd, Kernel, OpenFlags, Whence};
use sleds_sim_core::{Errno, SimDuration, SimError, SimResult};

use crate::{charge_per_byte, closing_files, BUFSIZE};

/// CPU cost of convert + accumulate, per input pixel.
const ACCUM_NS_PER_PIXEL: u64 = 7;

/// CPU cost of encoding output pixels, per byte.
const ENCODE_NS_PER_BYTE: u64 = 3;

/// fimgbin's output description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FimgbinResult {
    /// Output path.
    pub output: String,
    /// Boxcar edge (2 for 4x reduction, 4 for 16x).
    pub factor: usize,
    /// Output image width.
    pub out_width: usize,
    /// Output image height.
    pub out_height: usize,
}

/// One output row being accumulated.
struct RowAccum {
    sums: Vec<f64>,
    samples: usize,
}

/// The boxcar: output rows in flight, keyed by row index, fed one chunk
/// of input pixels at a time in whatever order the chunks arrive.
struct Boxcar {
    bitpix: Bitpix,
    factor: usize,
    in_width: usize,
    out_width: usize,
    out_height: usize,
    accums: BTreeMap<usize, RowAccum>,
    /// Zeroed `sums` of finished rows, for the next row to start.
    spare: Vec<Vec<f64>>,
}

/// Shared output-file state.
struct Output {
    fd: Fd,
    data_start: u64,
    row_bytes: u64,
    bitpix: Bitpix,
    rows_written: usize,
    /// Encode buffer, reused from row to row.
    encoded: Vec<u8>,
}

impl Output {
    fn write_row(&mut self, kernel: &mut Kernel, row_index: usize, means: &[f64]) -> SimResult<()> {
        self.bitpix.encode_into(means, &mut self.encoded);
        debug_assert_eq!(self.encoded.len() as u64, self.row_bytes);
        charge_per_byte(kernel, self.encoded.len(), ENCODE_NS_PER_BYTE);
        kernel.lseek(
            self.fd,
            (self.data_start + row_index as u64 * self.row_bytes) as i64,
            Whence::Set,
        )?;
        kernel.write(self.fd, &self.encoded)?;
        self.rows_written += 1;
        Ok(())
    }
}

impl Boxcar {
    /// Accumulates `bytes`, the raw samples from pixel `first_pixel` on,
    /// and writes every output row whose last kept sample is among them.
    fn process(
        &mut self,
        kernel: &mut Kernel,
        out: &mut Output,
        first_pixel: u64,
        bytes: &[u8],
    ) -> SimResult<()> {
        let bpp = self.bitpix.bytes_per_pixel();
        kernel.charge_cpu(SimDuration::from_nanos(
            ACCUM_NS_PER_PIXEL * (bytes.len() / bpp) as u64,
        ));
        // Columns and rows past these are the discarded remainder.
        let kept_width = self.out_width * self.factor;
        let kept_height = self.out_height * self.factor;
        let samples_per_row = kept_width * self.factor;
        let mut y = (first_pixel / self.in_width as u64) as usize;
        let mut x = (first_pixel % self.in_width as u64) as usize;
        let mut rest = bytes;
        // One turn per input row the chunk touches.
        while !rest.is_empty() && y < kept_height {
            let (in_row, after) = rest.split_at(rest.len().min((self.in_width - x) * bpp));
            if x < kept_width {
                let run = &in_row[..in_row.len().min((kept_width - x) * bpp)];
                let row = y / self.factor;
                let acc = self.accums.entry(row).or_insert_with(|| RowAccum {
                    sums: self
                        .spare
                        .pop()
                        .unwrap_or_else(|| vec![0.0; self.out_width]),
                    samples: 0,
                });
                self.bitpix.add_boxes(run, x, self.factor, &mut acc.sums)?;
                acc.samples += run.len() / bpp;
                if acc.samples == samples_per_row {
                    let mut sums = self.accums.remove(&row).expect("just used").sums;
                    let denom = (self.factor * self.factor) as f64;
                    sums.iter_mut().for_each(|s| *s /= denom);
                    out.write_row(kernel, row, &sums)?;
                    sums.fill(0.0);
                    self.spare.push(sums);
                }
            }
            (rest, x, y) = (after, 0, y + 1);
        }
        Ok(())
    }
}

/// Runs fimgbin: rebins `input` by `factor` into `output`. `table` selects
/// the SLEDs mode. Trailing rows/columns that do not fill a whole box are
/// discarded, as the LHEASOFT tool does.
pub fn fimgbin(
    kernel: &mut Kernel,
    input: &str,
    output: &str,
    factor: usize,
    table: Option<&SledsTable>,
) -> SimResult<FimgbinResult> {
    if factor < 2 {
        return Err(SimError::new(Errno::Einval, "fimgbin: factor must be >= 2"));
    }
    closing_files(kernel, |kernel, open| {
        rebin(kernel, open, input, output, factor, table)
    })
}

/// The tool itself; every descriptor it opens goes on `open`.
fn rebin(
    kernel: &mut Kernel,
    open: &mut Vec<Fd>,
    input: &str,
    output: &str,
    factor: usize,
    table: Option<&SledsTable>,
) -> SimResult<FimgbinResult> {
    let reader = FitsReader::open(kernel, input)?;
    open.push(reader.fd());
    let axes = reader.header().axes()?;
    if axes.len() != 2 {
        return Err(SimError::new(Errno::Einval, "fimgbin: need a 2-D image"));
    }
    let (in_w, in_h) = (axes[0], axes[1]);
    let (out_w, out_h) = (in_w / factor, in_h / factor);
    if out_w == 0 || out_h == 0 {
        return Err(SimError::new(
            Errno::Einval,
            "fimgbin: image smaller than box",
        ));
    }
    let bitpix = reader.bitpix();

    // Output header, then positional row writes into the data unit.
    let out_fd = kernel.open(output, OpenFlags::CREATE_RDWR)?;
    open.push(out_fd);
    let header = FitsHeader::primary(bitpix, &[out_w, out_h]);
    let enc = header.encode();
    kernel.write(out_fd, &enc)?;
    let mut out = Output {
        fd: out_fd,
        data_start: enc.len() as u64,
        row_bytes: (out_w * bitpix.bytes_per_pixel()) as u64,
        bitpix,
        rows_written: 0,
        encoded: Vec::new(),
    };
    let mut boxcar = Boxcar {
        bitpix,
        factor,
        in_width: in_w,
        out_width: out_w,
        out_height: out_h,
        accums: BTreeMap::new(),
        spare: Vec::new(),
    };

    let bpp = bitpix.bytes_per_pixel() as u64;
    let data_start = reader.data_start();
    let data_end = reader.data_end();
    match table {
        None => {
            let mut pos = data_start;
            while pos < data_end {
                let len = (data_end - pos).min(BUFSIZE as u64) as usize;
                let bytes = kernel.pread(reader.fd(), pos, len)?;
                boxcar.process(kernel, &mut out, (pos - data_start) / bpp, &bytes)?;
                pos += len as u64;
            }
        }
        // [sleds:begin]
        Some(table) => {
            let mut pick =
                PickSession::init(kernel, table, reader.fd(), PickConfig::bytes(BUFSIZE))?;
            while let Some((offset, len)) = pick.next_read() {
                let lo = offset.max(data_start);
                let hi = (offset + len as u64).min(data_end);
                if lo >= hi {
                    continue;
                }
                let bytes = kernel.pread(reader.fd(), lo, (hi - lo) as usize)?;
                boxcar.process(kernel, &mut out, (lo - data_start) / bpp, &bytes)?;
            }
            pick.finish();
        } // [sleds:end]
    }

    if out.rows_written != out_h {
        return Err(SimError::new(
            Errno::Eio,
            format!(
                "fimgbin: {} of {} output rows completed",
                out.rows_written, out_h
            ),
        ));
    }
    // Pad the data unit to a FITS block boundary.
    let data_bytes = out_h as u64 * out.row_bytes;
    let padded = sleds_fits::header::padded_len(data_bytes);
    if padded > data_bytes {
        kernel.lseek(out_fd, (out.data_start + data_bytes) as i64, Whence::Set)?;
        kernel.write(out_fd, &vec![0u8; (padded - data_bytes) as usize])?;
    }
    Ok(FimgbinResult {
        output: output.to_string(),
        factor,
        out_width: out_w,
        out_height: out_h,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_devices::DiskDevice;
    use sleds_fits::{generate_image_bytes, FitsWriter};
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

    /// Reads an output image fully, as f64 pixels.
    fn read_image(k: &mut Kernel, path: &str) -> (Vec<usize>, Vec<f64>) {
        let r = FitsReader::open(k, path).unwrap();
        let axes = r.header().axes().unwrap();
        let px = r.read_pixels_at(k, 0, r.pixel_count() as usize).unwrap();
        k.close(r.fd()).unwrap();
        (axes, px)
    }

    #[test]
    fn boxcar_means_are_exact() {
        let (mut k, _) = setup();
        // 4x2 image with known values; 2x2 boxes -> 2x1 output.
        let mut w = FitsWriter::create(&mut k, "/data/in.fits", Bitpix::F64, &[4, 2]).unwrap();
        w.write_pixels(&mut k, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .unwrap();
        let fd = w.finish(&mut k).unwrap();
        k.close(fd).unwrap();
        let r = fimgbin(&mut k, "/data/in.fits", "/data/out.fits", 2, None).unwrap();
        assert_eq!((r.out_width, r.out_height), (2, 1));
        let (axes, px) = read_image(&mut k, "/data/out.fits");
        assert_eq!(axes, vec![2, 1]);
        // Boxes: {1,2,5,6} -> 3.5 and {3,4,7,8} -> 5.5.
        assert_eq!(px, vec![3.5, 5.5]);
    }

    #[test]
    fn ragged_edges_are_discarded() {
        let (mut k, _) = setup();
        let mut w = FitsWriter::create(&mut k, "/data/in.fits", Bitpix::F32, &[5, 5]).unwrap();
        w.write_pixels(&mut k, &[2.0; 25]).unwrap();
        let fd = w.finish(&mut k).unwrap();
        k.close(fd).unwrap();
        let r = fimgbin(&mut k, "/data/in.fits", "/data/out.fits", 2, None).unwrap();
        assert_eq!((r.out_width, r.out_height), (2, 2));
        let (_, px) = read_image(&mut k, "/data/out.fits");
        assert_eq!(px, vec![2.0; 4]);
    }

    #[test]
    fn sleds_mode_output_is_identical() {
        let (mut k, t) = setup();
        let img = generate_image_bytes(256, 128, Bitpix::I16, 21);
        k.install_file("/data/in.fits", &img).unwrap();
        fimgbin(&mut k, "/data/in.fits", "/data/b.fits", 2, None).unwrap();
        fimgbin(&mut k, "/data/in.fits", "/data/s.fits", 2, Some(&t)).unwrap();
        let (ab, pb) = read_image(&mut k, "/data/b.fits");
        let (as_, ps) = read_image(&mut k, "/data/s.fits");
        assert_eq!(ab, as_);
        assert_eq!(pb, ps);
    }

    #[test]
    fn factor_16_writes_one_sixteenth() {
        let (mut k, _) = setup();
        let img = generate_image_bytes(512, 256, Bitpix::I16, 22);
        k.install_file("/data/in.fits", &img).unwrap();
        k.reset_counters();
        let j = k.start_job();
        fimgbin(&mut k, "/data/in.fits", "/data/out.fits", 4, None).unwrap();
        let rep = k.finish_job(&j);
        let ratio = rep.usage.bytes_written as f64 / rep.usage.bytes_read as f64;
        assert!(
            ratio < 0.12,
            "16x reduction should write ~1/16 of what it reads, got {ratio}"
        );
    }

    #[test]
    fn errors_on_bad_factor_and_shape() {
        let (mut k, _) = setup();
        let img = generate_image_bytes(8, 8, Bitpix::U8, 23);
        k.install_file("/data/in.fits", &img).unwrap();
        assert!(fimgbin(&mut k, "/data/in.fits", "/data/o.fits", 1, None).is_err());
        assert!(fimgbin(&mut k, "/data/in.fits", "/data/o.fits", 16, None).is_err());
        // 1-D image is rejected.
        let mut w = FitsWriter::create(&mut k, "/data/one.fits", Bitpix::U8, &[32]).unwrap();
        w.write_pixels(&mut k, &vec![0.0; 32]).unwrap();
        let fd = w.finish(&mut k).unwrap();
        k.close(fd).unwrap();
        assert!(fimgbin(&mut k, "/data/one.fits", "/data/o.fits", 2, None).is_err());
    }

    #[test]
    fn error_returns_leak_no_descriptor() {
        let (mut k, _) = setup();
        let mut w = FitsWriter::create(&mut k, "/data/one.fits", Bitpix::U8, &[32]).unwrap();
        w.write_pixels(&mut k, &[0.0; 32]).unwrap();
        let fd = w.finish(&mut k).unwrap();
        k.close(fd).unwrap();
        k.install_file("/data/in.fits", &generate_image_bytes(8, 8, Bitpix::U8, 24))
            .unwrap();
        // Refused for its shape after the input was opened; refused for
        // the box size likewise; failing to create the output after that.
        for (input, output, factor) in [
            ("/data/one.fits", "/data/o.fits", 2),
            ("/data/in.fits", "/data/o.fits", 16),
            ("/data/in.fits", "/nowhere/o.fits", 2),
        ] {
            // Descriptors are handed out in sequence: the input takes the
            // one after this probe's.
            let probe = k.open("/data/in.fits", OpenFlags::RDONLY).unwrap();
            k.close(probe).unwrap();
            assert!(fimgbin(&mut k, input, output, factor, None).is_err());
            let err = k.close(Fd(probe.0 + 1)).unwrap_err();
            assert_eq!(err.errno, Errno::Ebadf, "{input} -> {output}");
        }
    }
}
