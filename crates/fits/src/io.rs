//! Streaming FITS I/O over the simulated kernel.
//!
//! [`FitsReader`] and [`FitsWriter`] deliberately work in bounded buffers
//! through the kernel's `read`/`write` syscalls: the LHEASOFT experiments
//! are *about* the applications' I/O patterns, so the substrate must not
//! slurp whole files behind their back.

use sleds_fs::{Fd, Kernel, OpenFlags, Whence};
use sleds_sim_core::SimResult;

use crate::codec::Bitpix;
use crate::format_error;
use crate::header::{padded_len, FitsHeader, BLOCK_SIZE};

/// A reader positioned over one HDU's pixel data.
#[derive(Debug)]
pub struct FitsReader {
    fd: Fd,
    header: FitsHeader,
    bitpix: Bitpix,
    data_start: u64,
    data_bytes: u64,
    pixel_count: u64,
}

impl FitsReader {
    /// Opens `path` and parses the primary header. The descriptor is the
    /// caller's to close on success; on error it is already closed.
    pub fn open(kernel: &mut Kernel, path: &str) -> SimResult<FitsReader> {
        let fd = kernel.open(path, OpenFlags::RDONLY)?;
        let reader = Self::from_fd(kernel, fd, 0);
        if reader.is_err() {
            // The parse error is the one worth reporting.
            let _ = kernel.close(fd);
        }
        reader
    }

    /// Parses the HDU whose header begins at byte `hdu_start` of `fd`.
    pub fn from_fd(kernel: &mut Kernel, fd: Fd, hdu_start: u64) -> SimResult<FitsReader> {
        // Headers are short; read block by block until END shows up.
        let mut raw = Vec::new();
        loop {
            let block = kernel.pread(fd, hdu_start + raw.len() as u64, BLOCK_SIZE)?;
            if block.is_empty() {
                return Err(format_error("EOF inside header"));
            }
            raw.extend_from_slice(&block);
            if let Ok((header, consumed)) = FitsHeader::parse(&raw) {
                let bitpix = header.bitpix()?;
                let pixel_count = header.pixel_count()?;
                let data_bytes = header.data_bytes()?;
                let data_start = hdu_start + consumed as u64;
                // Every offset a reader hands out lies inside the padded
                // data unit, so check once that its end is representable.
                data_bytes
                    .checked_next_multiple_of(BLOCK_SIZE as u64)
                    .and_then(|padded| data_start.checked_add(padded))
                    .ok_or_else(|| format_error("data unit ends past the largest file offset"))?;
                return Ok(FitsReader {
                    fd,
                    header,
                    bitpix,
                    data_start,
                    data_bytes,
                    pixel_count,
                });
            }
            if raw.len() > 64 * BLOCK_SIZE {
                return Err(format_error("unreasonably long header"));
            }
        }
    }

    /// The file descriptor (owned by the caller).
    pub fn fd(&self) -> Fd {
        self.fd
    }

    /// The parsed header.
    pub fn header(&self) -> &FitsHeader {
        &self.header
    }

    /// Pixel type.
    pub fn bitpix(&self) -> Bitpix {
        self.bitpix
    }

    /// Total pixels in the data unit.
    pub fn pixel_count(&self) -> u64 {
        self.pixel_count
    }

    /// Byte offset of the first data byte.
    pub fn data_start(&self) -> u64 {
        self.data_start
    }

    /// Byte offset just past the last pixel (before padding).
    pub fn data_end(&self) -> u64 {
        self.data_start + self.data_bytes
    }

    /// Byte offset just past the padded data unit (start of the next HDU).
    pub fn next_hdu_offset(&self) -> SimResult<u64> {
        Ok(self.data_start + padded_len(self.data_bytes))
    }

    /// File byte offset of pixel `index`.
    pub fn pixel_offset(&self, index: u64) -> u64 {
        self.data_start + index * self.bitpix.bytes_per_pixel() as u64
    }

    /// Reads and decodes `count` pixels starting at pixel `index`
    /// (positioned read, one kernel syscall).
    pub fn read_pixels_at(
        &self,
        kernel: &mut Kernel,
        index: u64,
        count: usize,
    ) -> SimResult<Vec<f64>> {
        let count = count.min(self.pixel_count.saturating_sub(index) as usize);
        if count == 0 {
            return Ok(Vec::new());
        }
        let bytes = kernel.pread(
            self.fd,
            self.pixel_offset(index),
            count * self.bitpix.bytes_per_pixel(),
        )?;
        self.bitpix.decode(&bytes)
    }
}

/// A writer that streams one HDU: header first, then pixels, then padding.
#[derive(Debug)]
pub struct FitsWriter {
    fd: Fd,
    bitpix: Bitpix,
    pixels_expected: u64,
    pixels_written: u64,
}

impl FitsWriter {
    /// Creates (truncating) `path` and writes a primary header for an image
    /// of the given shape.
    pub fn create(
        kernel: &mut Kernel,
        path: &str,
        bitpix: Bitpix,
        axes: &[usize],
    ) -> SimResult<FitsWriter> {
        let fd = kernel.open(path, OpenFlags::CREATE_RDWR)?;
        Self::begin_hdu(kernel, fd, FitsHeader::primary(bitpix, axes))
    }

    /// Starts writing an HDU with the given header at the current offset of
    /// `fd` (used to append extensions).
    pub fn begin_hdu(kernel: &mut Kernel, fd: Fd, header: FitsHeader) -> SimResult<FitsWriter> {
        let bitpix = header.bitpix()?;
        let pixels_expected = header.pixel_count()?;
        kernel.write(fd, &header.encode())?;
        Ok(FitsWriter {
            fd,
            bitpix,
            pixels_expected,
            pixels_written: 0,
        })
    }

    /// The file descriptor (owned by the caller).
    pub fn fd(&self) -> Fd {
        self.fd
    }

    /// Encodes and appends pixels.
    pub fn write_pixels(&mut self, kernel: &mut Kernel, values: &[f64]) -> SimResult<()> {
        if self.pixels_written + values.len() as u64 > self.pixels_expected {
            return Err(format_error(format!(
                "writing {} pixels past the declared {}",
                values.len(),
                self.pixels_expected
            )));
        }
        kernel.write(self.fd, &self.bitpix.encode(values))?;
        self.pixels_written += values.len() as u64;
        Ok(())
    }

    /// Pads the data unit to a block boundary. Must be called after the
    /// last pixel; returns an error if the declared pixels were not all
    /// written.
    pub fn finish(self, kernel: &mut Kernel) -> SimResult<Fd> {
        if self.pixels_written != self.pixels_expected {
            return Err(format_error(format!(
                "wrote {} of {} declared pixels",
                self.pixels_written, self.pixels_expected
            )));
        }
        let data_bytes = self.pixels_written * self.bitpix.bytes_per_pixel() as u64;
        let pad = (padded_len(data_bytes) - data_bytes) as usize;
        if pad > 0 {
            kernel.write(self.fd, &vec![0u8; pad])?;
        }
        Ok(self.fd)
    }
}

/// Copies `count` raw bytes from `src` to `dst` in `chunk`-byte reads — the
/// pattern of fimhisto's first pass.
pub fn copy_bytes(
    kernel: &mut Kernel,
    src: Fd,
    dst: Fd,
    count: u64,
    chunk: usize,
) -> SimResult<()> {
    kernel.lseek(src, 0, Whence::Set)?;
    let mut left = count;
    while left > 0 {
        let n = left.min(chunk as u64) as usize;
        let buf = kernel.read(src, n)?;
        if buf.is_empty() {
            return Err(format_error("source shorter than expected"));
        }
        left -= buf.len() as u64;
        kernel.write(dst, &buf)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_devices::DiskDevice;

    fn kernel() -> Kernel {
        let mut k = Kernel::table3();
        k.mkdir("/data").unwrap();
        k.mount_disk("/data", DiskDevice::table3_disk("hda"))
            .unwrap();
        k
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut k = kernel();
        let values: Vec<f64> = (0..1000).map(|i| (i % 251) as f64).collect();
        let mut w = FitsWriter::create(&mut k, "/data/img.fits", Bitpix::I16, &[100, 10]).unwrap();
        w.write_pixels(&mut k, &values[..500]).unwrap();
        w.write_pixels(&mut k, &values[500..]).unwrap();
        let fd = w.finish(&mut k).unwrap();
        k.close(fd).unwrap();

        let r = FitsReader::open(&mut k, "/data/img.fits").unwrap();
        assert_eq!(r.bitpix(), Bitpix::I16);
        assert_eq!(r.pixel_count(), 1000);
        assert_eq!(r.header().axes().unwrap(), vec![100, 10]);
        let got = r.read_pixels_at(&mut k, 0, 1000).unwrap();
        assert_eq!(got, values);
        // Partial read somewhere in the middle.
        let mid = r.read_pixels_at(&mut k, 500, 10).unwrap();
        assert_eq!(mid, values[500..510]);
        k.close(r.fd()).unwrap();
    }

    #[test]
    fn file_is_block_aligned() {
        let mut k = kernel();
        let mut w = FitsWriter::create(&mut k, "/data/img.fits", Bitpix::U8, &[7]).unwrap();
        w.write_pixels(&mut k, &[1.0; 7]).unwrap();
        let fd = w.finish(&mut k).unwrap();
        k.close(fd).unwrap();
        let size = k.stat("/data/img.fits").unwrap().size;
        assert!(size.is_multiple_of(BLOCK_SIZE as u64));
        assert_eq!(size, 2 * BLOCK_SIZE as u64); // header + data block
    }

    #[test]
    fn appended_extension_hdu_is_readable() {
        let mut k = kernel();
        let mut w = FitsWriter::create(&mut k, "/data/img.fits", Bitpix::U8, &[4]).unwrap();
        w.write_pixels(&mut k, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let fd = w.finish(&mut k).unwrap();
        // Append a histogram-like IMAGE extension.
        let ext = FitsHeader::image_extension(Bitpix::F64, &[3]);
        let mut w2 = FitsWriter::begin_hdu(&mut k, fd, ext).unwrap();
        w2.write_pixels(&mut k, &[10.0, 20.0, 30.0]).unwrap();
        let fd = w2.finish(&mut k).unwrap();

        let primary = FitsReader::from_fd(&mut k, fd, 0).unwrap();
        let next = primary.next_hdu_offset().unwrap();
        let ext = FitsReader::from_fd(&mut k, fd, next).unwrap();
        assert_eq!(ext.pixel_count(), 3);
        assert_eq!(
            ext.read_pixels_at(&mut k, 0, 3).unwrap(),
            vec![10.0, 20.0, 30.0]
        );
        k.close(fd).unwrap();
    }

    #[test]
    fn writer_enforces_declared_size() {
        let mut k = kernel();
        let mut w = FitsWriter::create(&mut k, "/data/img.fits", Bitpix::U8, &[2]).unwrap();
        assert!(w.write_pixels(&mut k, &[1.0, 2.0, 3.0]).is_err());
        w.write_pixels(&mut k, &[1.0]).unwrap();
        assert!(w.finish(&mut k).is_err(), "short write must fail finish");
    }

    #[test]
    fn copy_bytes_duplicates_prefix() {
        let mut k = kernel();
        k.install_file("/data/src", &vec![7u8; 10_000]).unwrap();
        let src = k.open("/data/src", OpenFlags::RDONLY).unwrap();
        let dst = k.open("/data/dst", OpenFlags::CREATE_RDWR).unwrap();
        copy_bytes(&mut k, src, dst, 10_000, 4096).unwrap();
        assert_eq!(k.stat("/data/dst").unwrap().size, 10_000);
    }

    #[test]
    fn open_missing_file_fails() {
        let mut k = kernel();
        assert!(FitsReader::open(&mut k, "/data/nope.fits").is_err());
    }
}
