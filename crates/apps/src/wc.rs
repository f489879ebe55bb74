//! `wc`: line, word and byte counts.
//!
//! The baseline scans the file front to back. The SLEDs mode reads chunks
//! in the pick library's order — the paper notes `wc` was the easy port
//! because counting is order-insensitive. Word counts are *not* quite
//! order-insensitive (a word can straddle a chunk boundary), so the SLEDs
//! mode counts per contiguous segment and stitches segment boundaries
//! afterwards, which keeps its output bit-identical to the baseline.

use sleds::{PickConfig, PickSession, SledsTable};
use sleds_fs::{Fd, Kernel, OpenFlags, Whence};
use sleds_sim_core::SimResult;

use crate::{charge_per_byte, BUFSIZE};

/// CPU cost of the counting loop, per byte scanned.
const WC_NS_PER_BYTE: u64 = 6;

/// `wc` output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WcResult {
    /// Newline count.
    pub lines: u64,
    /// Word count (maximal runs of non-whitespace).
    pub words: u64,
    /// Byte count.
    pub bytes: u64,
}

/// Counting state for one contiguous byte range.
#[derive(Clone, Copy, Debug)]
struct Segment {
    start: u64,
    end: u64,
    lines: u64,
    words: u64,
    starts_in_word: bool,
    ends_in_word: bool,
}

fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c)
}

/// Counts one buffer in isolation.
///
/// A word is counted where it starts: at a non-space byte whose
/// predecessor is a space, or that heads the buffer. Reading the
/// predecessor from the buffer (rather than carrying "was the last byte a
/// space" round the loop) leaves the loop body pure arithmetic on two
/// bytes — no branch for the text to mispredict, no state from one byte to
/// the next — and summing into `u8`s over blocks too short to overflow
/// them lets the compiler count sixteen bytes per instruction.
fn count_chunk(offset: u64, buf: &[u8]) -> Segment {
    const BLOCK: usize = 240;
    let (mut lines, mut words) = (0u64, 0u64);
    let mut starts_in_word = false;
    if let Some((&first, rest)) = buf.split_first() {
        starts_in_word = !is_space(first);
        lines += u64::from(first == b'\n');
        words += u64::from(starts_in_word);
        // `prev` lags `cur` by one byte.
        for (prev, cur) in buf.chunks(BLOCK).zip(rest.chunks(BLOCK)) {
            let (mut l, mut w) = (0u8, 0u8);
            for (&p, &c) in prev.iter().zip(cur) {
                l += u8::from(c == b'\n');
                w += u8::from(is_space(p) & !is_space(c));
            }
            lines += u64::from(l);
            words += u64::from(w);
        }
    }
    Segment {
        start: offset,
        end: offset + buf.len() as u64,
        lines,
        words,
        starts_in_word,
        ends_in_word: buf.last().is_some_and(|&b| !is_space(b)),
    }
}

/// Merges adjacent segments: a word spanning the join was counted twice.
fn stitch(mut segments: Vec<Segment>) -> WcResult {
    segments.sort_by_key(|s| s.start);
    let mut out = WcResult::default();
    let mut prev: Option<Segment> = None;
    for s in segments {
        out.lines += s.lines;
        out.words += s.words;
        out.bytes += s.end - s.start;
        if let Some(p) = prev {
            debug_assert_eq!(p.end, s.start, "segments must tile the file");
            if p.ends_in_word && s.starts_in_word {
                out.words -= 1;
            }
        }
        prev = Some(s);
    }
    out
}

/// Runs `wc` on `path`.
///
/// `table` selects the mode: `Some` uses the SLEDs pick library (the
/// paper's `wc --sleds` switch), `None` is the stock sequential scan.
pub fn wc(kernel: &mut Kernel, path: &str, table: Option<&SledsTable>) -> SimResult<WcResult> {
    let name = if table.is_some() { "wc --sleds" } else { "wc" };
    kernel.trace_app(name, |kernel| {
        let fd = kernel.open(path, OpenFlags::RDONLY)?;
        let result = match table {
            None => wc_baseline(kernel, fd),
            Some(table) => wc_sleds(kernel, fd, table),
        };
        kernel.close(fd)?;
        result
    })
}

fn wc_baseline(kernel: &mut Kernel, fd: Fd) -> SimResult<WcResult> {
    let mut segments = Vec::new();
    let mut offset = 0u64;
    loop {
        let buf = kernel.read(fd, BUFSIZE)?;
        if buf.is_empty() {
            break;
        }
        charge_per_byte(kernel, buf.len(), WC_NS_PER_BYTE);
        segments.push(count_chunk(offset, &buf));
        offset += buf.len() as u64;
    }
    Ok(stitch(segments))
}

/// `wc` over the asynchronous-I/O model the paper's related work discusses
/// (POSIX AIO + container buffers): chunks are processed in completion
/// order and CPU overlaps I/O. Returns the counts plus the AIO accounting;
/// callers compare `report.elapsed` against the synchronous modes.
pub fn wc_aio(kernel: &mut Kernel, path: &str) -> SimResult<(WcResult, sleds_fs::AioReport)> {
    let fd = kernel.open(path, OpenFlags::RDONLY)?;
    let (chunks, report) = kernel.aio_read_file(fd, BUFSIZE, WC_NS_PER_BYTE)?;
    kernel.close(fd)?;
    let segments = chunks
        .iter()
        .map(|(off, bytes)| count_chunk(*off, bytes))
        .collect();
    Ok((stitch(segments), report))
}

// [sleds:begin]
fn wc_sleds(kernel: &mut Kernel, fd: Fd, table: &SledsTable) -> SimResult<WcResult> {
    let mut pick = PickSession::init(kernel, table, fd, PickConfig::bytes(BUFSIZE))?;
    let mut segments = Vec::new();
    while let Some((offset, len)) = pick.next_read() {
        kernel.lseek(fd, offset as i64, Whence::Set)?;
        let buf = kernel.read(fd, len)?;
        charge_per_byte(kernel, buf.len(), WC_NS_PER_BYTE);
        segments.push(count_chunk(offset, &buf));
    }
    pick.finish();
    Ok(stitch(segments))
}
// [sleds:end]

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_devices::DiskDevice;
    use sleds_sim_core::{DetRng, PAGE_SIZE};

    fn setup() -> (Kernel, SledsTable) {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let dev = k.device_of_mount(m).unwrap();
        let mut t = SledsTable::new();
        t.fill_memory(sleds::SledsEntry::new(175e-9, 48e6));
        t.fill_device(dev, sleds::SledsEntry::new(0.018, 9e6));
        (k, t)
    }

    fn random_text(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = DetRng::new(seed);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match rng.range_u64(0, 10) {
                0 => out.push(b'\n'),
                1 | 2 => out.push(b' '),
                _ => out.push(b'a' + rng.range_u64(0, 26) as u8),
            }
        }
        out.truncate(n);
        out
    }

    #[test]
    fn counts_known_text() {
        let (mut k, _) = setup();
        k.install_file("/data/f", b"hello world\nfoo  bar baz\n\n  tail")
            .unwrap();
        let r = wc(&mut k, "/data/f", None).unwrap();
        assert_eq!(r.lines, 3);
        assert_eq!(r.words, 6);
        assert_eq!(r.bytes, 32);
    }

    #[test]
    fn empty_file() {
        let (mut k, t) = setup();
        k.install_file("/data/e", b"").unwrap();
        assert_eq!(wc(&mut k, "/data/e", None).unwrap(), WcResult::default());
        assert_eq!(
            wc(&mut k, "/data/e", Some(&t)).unwrap(),
            WcResult::default()
        );
    }

    #[test]
    fn sleds_mode_matches_baseline_exactly() {
        let (mut k, t) = setup();
        let text = random_text(8 * PAGE_SIZE as usize + 321, 5);
        k.install_file("/data/f", &text).unwrap();
        let base = wc(&mut k, "/data/f", None).unwrap();
        // Warm a middle slice so the pick order is genuinely scrambled.
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.lseek(fd, 3 * PAGE_SIZE as i64, Whence::Set).unwrap();
        k.read(fd, 2 * PAGE_SIZE as usize).unwrap();
        k.close(fd).unwrap();
        let with = wc(&mut k, "/data/f", Some(&t)).unwrap();
        assert_eq!(base, with);
    }

    #[test]
    fn word_spanning_chunks_counted_once() {
        // A single word larger than BUFSIZE must still count as one.
        let (mut k, _) = setup();
        let text = vec![b'x'; BUFSIZE + 100];
        k.install_file("/data/f", &text).unwrap();
        let r = wc(&mut k, "/data/f", None).unwrap();
        assert_eq!(r.words, 1);
        assert_eq!(r.lines, 0);
    }

    #[test]
    fn stitching_is_orderproof() {
        // Count a text cut at awkward boundaries in shuffled order.
        let text = b"alpha beta\ngamma delta epsilon\nzeta";
        let cuts = [0usize, 3, 11, 12, 20, 29, text.len()];
        let mut segs = Vec::new();
        for w in cuts.windows(2) {
            segs.push(count_chunk(w[0] as u64, &text[w[0]..w[1]]));
        }
        segs.reverse();
        let r = stitch(segs);
        assert_eq!(r.lines, 2);
        assert_eq!(r.words, 6);
        assert_eq!(r.bytes, text.len() as u64);
    }

    #[test]
    fn aio_counts_match_and_overlap_io() {
        let (mut k, _) = setup();
        let text = random_text(6 * PAGE_SIZE as usize + 17, 21);
        k.install_file("/data/f", &text).unwrap();
        let base = wc(&mut k, "/data/f", None).unwrap();
        k.drop_caches().unwrap();
        let (aio, rep) = wc_aio(&mut k, "/data/f").unwrap();
        assert_eq!(base, aio, "completion-order counting must agree");
        assert_eq!(rep.elapsed, rep.cpu.max(rep.io));
    }

    #[test]
    fn warm_sleds_run_is_faster_than_warm_baseline() {
        // The paper's headline: with a warm cache and a file bigger than
        // the cache, reordering wins. A scaled-down machine (4 MiB RAM)
        // keeps the test fast; the dynamics are size-independent.
        let mut cfg = sleds_fs::MachineConfig::table2();
        cfg.ram = sleds_sim_core::ByteSize::mib(4);
        let mut k = Kernel::new(cfg);
        k.mkdir("/data").unwrap();
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let dev = k.device_of_mount(m).unwrap();
        let mut t = SledsTable::new();
        t.fill_memory(sleds::SledsEntry::new(175e-9, 48e6));
        t.fill_device(dev, sleds::SledsEntry::new(0.018, 9e6));
        let cache_bytes = k.config().cache_bytes().as_u64() as usize;
        let n = cache_bytes + cache_bytes / 2;
        let text = random_text(n, 9);
        k.install_file("/data/big", &text).unwrap();

        // Warm: one full baseline pass.
        wc(&mut k, "/data/big", None).unwrap();
        // Measured baseline pass (cache now holds the tail).
        let j = k.start_job();
        let r1 = wc(&mut k, "/data/big", None).unwrap();
        let base = k.finish_job(&j);
        // Re-warm with another baseline pass so cache state matches.
        wc(&mut k, "/data/big", None).unwrap();
        let j = k.start_job();
        let r2 = wc(&mut k, "/data/big", Some(&t)).unwrap();
        let sleds = k.finish_job(&j);

        assert_eq!(r1, r2, "same answer either way");
        assert!(
            sleds.usage.major_faults < base.usage.major_faults / 2,
            "sleds {} vs base {} major faults",
            sleds.usage.major_faults,
            base.usage.major_faults
        );
        assert!(
            sleds.elapsed.as_secs_f64() < 0.7 * base.elapsed.as_secs_f64(),
            "sleds {} vs base {}",
            sleds.elapsed,
            base.elapsed
        );
    }
}
