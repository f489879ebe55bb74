//! `grep`: regular-expression search.
//!
//! The baseline streams the file, printing matching lines in file order,
//! and with `-q` stops at the first match. The SLEDs mode reads chunks in
//! pick order (record-oriented, so no line ever straddles a latency
//! boundary), buffers its matches, and puts them back in file order before
//! returning — the paper calls out exactly this extra buffering/sorting as
//! why `grep` needed the most code of its ports, and why switches like `-n`
//! had to be reimplemented. Line numbers are reconstructed from per-segment
//! newline counts after the scan.
//!
//! Every mode feeds its buffers to one scanner, `LineScan`, which searches
//! a whole buffer per call and copies only the lines that match. What the
//! virtual machine is charged is what a per-line grep would cost — a copy
//! and a scan per byte, a fixed cost per line — whatever the host does.
//!
//! With `-q` (first match wins), the SLEDs mode is the paper's "ideal
//! benchmark": if any cached chunk contains a match, it terminates without
//! a single device read.

use sleds::{PickConfig, PickSession, SledsTable};
use sleds_fs::{Fd, Kernel, OpenFlags, Whence};
use sleds_sim_core::{SimDuration, SimResult};
use sleds_textmatch::memscan::{count, memchr, memrchr};
use sleds_textmatch::Regex;

use crate::{charge_per_byte, BUFSIZE};

/// Fixed per-line CPU cost (line assembly, bookkeeping).
const GREP_NS_PER_LINE: u64 = 60;

/// Scan cost per byte per 8 compiled instructions.
const GREP_NS_PER_BYTE_BASE: u64 = 4;

/// One match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrepMatch {
    /// Byte offset of the start of the matching line.
    pub offset: u64,
    /// 1-based line number.
    pub line_number: u64,
    /// The matching line, without its newline.
    pub line: Vec<u8>,
}

/// `grep` output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GrepResult {
    /// Matches in file order.
    pub matches: Vec<GrepMatch>,
    /// True when `-q` stopped the scan early.
    pub stopped_early: bool,
}

/// Options for a grep run.
#[derive(Clone, Debug, Default)]
pub struct GrepOptions {
    /// Stop at the first match (`-q`).
    pub first_match_only: bool,
}

fn scan_cost(re: &Regex, bytes: usize) -> u64 {
    GREP_NS_PER_BYTE_BASE.max(re.instruction_count() as u64 / 8) * bytes as u64
}

/// Runs grep over `path`. `table` selects SLEDs mode.
pub fn grep(
    kernel: &mut Kernel,
    path: &str,
    re: &Regex,
    opts: &GrepOptions,
    table: Option<&SledsTable>,
) -> SimResult<GrepResult> {
    let name = if table.is_some() {
        "grep --sleds"
    } else {
        "grep"
    };
    kernel.trace_app(name, |kernel| {
        let fd = kernel.open(path, OpenFlags::RDONLY)?;
        let result = match table {
            None => grep_baseline(kernel, fd, re, opts),
            Some(table) => grep_sleds(kernel, fd, re, opts, table),
        };
        kernel.close(fd)?;
        result
    })
}

/// The line scanner all three modes share: fed the file a buffer at a
/// time, it finds the matching lines of each buffer with one search,
/// copies only those, and counts newlines for the line numbers.
struct LineScan<'a> {
    re: &'a Regex,
    first_match_only: bool,
    /// The segment being extended is last. The baseline only ever has one.
    segments: Vec<Segment>,
    /// The current segment's unterminated tail: the start of a line whose
    /// end is in the next buffer (or nowhere, at end of file).
    carry: Vec<u8>,
    carry_start: u64,
}

impl<'a> LineScan<'a> {
    fn new(re: &'a Regex, opts: &GrepOptions) -> Self {
        LineScan {
            re,
            first_match_only: opts.first_match_only,
            segments: Vec::new(),
            carry: Vec::new(),
            carry_start: 0,
        }
    }

    /// Scans the buffer read at `offset`, charging what the per-line loop
    /// of a real grep would cost. Returns true when `-q` has its match —
    /// the last one recorded — and the scan should stop.
    fn feed(&mut self, kernel: &mut Kernel, offset: u64, buf: &[u8]) -> bool {
        self.seek(kernel, offset);
        charge_per_byte(kernel, buf.len(), 1); // copy into line assembly
        kernel.charge_cpu(SimDuration::from_nanos(scan_cost(self.re, buf.len())));
        self.segments.last_mut().expect("seek opened one").end = offset + buf.len() as u64;
        let Some(last_newline) = memrchr(b'\n', buf) else {
            if self.carry.is_empty() {
                self.carry_start = offset;
            }
            self.carry.extend_from_slice(buf);
            return false;
        };

        // `lines` newlines lie before `pos`, the next unsearched line.
        let (mut pos, mut lines) = (0usize, 0u64);
        let mut found = false;
        if !self.carry.is_empty() {
            // The first line began in an earlier buffer.
            let newline = memchr(b'\n', buf).expect("buffer has a newline");
            self.carry.extend_from_slice(&buf[..newline]);
            found = self.take_carried_line();
            (pos, lines) = (newline + 1, 1);
        }
        let seg = self.segments.last_mut().expect("seek opened one");
        while !(found && self.first_match_only) {
            let Some((start, end)) = self.re.next_matching_line(&buf[..=last_newline], pos) else {
                break;
            };
            lines += count(b'\n', &buf[pos..start]) as u64;
            seg.matches.push(GrepMatch {
                offset: offset + start as u64,
                line_number: seg.newlines + lines + 1,
                line: buf[start..end].to_vec(),
            });
            found = true;
            (pos, lines) = (end + 1, lines + 1);
        }
        let stop = found && self.first_match_only;
        if !stop {
            lines += count(b'\n', &buf[pos..=last_newline]) as u64;
            self.carry_start = offset + last_newline as u64 + 1;
            self.carry.extend_from_slice(&buf[last_newline + 1..]);
        }
        // One charge for the buffer's lines — up to and including the
        // match under `-q`. No syscall runs inside a buffer, so this sums
        // to what charging line by line would.
        kernel.charge_cpu(SimDuration::from_nanos(GREP_NS_PER_LINE * lines));
        seg.newlines += lines;
        stop
    }

    /// Matches the line assembled in `carry` — the next line of the
    /// current segment — records it if it hits, and empties the carry.
    fn take_carried_line(&mut self) -> bool {
        let seg = self
            .segments
            .last_mut()
            .expect("carry belongs to a segment");
        let hit = self.re.is_match(&self.carry);
        if hit {
            seg.matches.push(GrepMatch {
                offset: self.carry_start,
                line_number: seg.newlines + 1,
                line: std::mem::take(&mut self.carry),
            });
        }
        self.carry.clear();
        hit
    }

    /// Ends the current segment. Anything carried is an unterminated final
    /// line (end of file: segments end on record boundaries everywhere
    /// else). A match here does not stop a `-q` scan early — there is
    /// nothing left of this segment to skip.
    fn close_segment(&mut self, kernel: &mut Kernel) {
        if !self.carry.is_empty() {
            kernel.charge_cpu(SimDuration::from_nanos(GREP_NS_PER_LINE));
            self.take_carried_line();
        }
    }
}

fn grep_baseline(
    kernel: &mut Kernel,
    fd: Fd,
    re: &Regex,
    opts: &GrepOptions,
) -> SimResult<GrepResult> {
    let mut scan = LineScan::new(re, opts);
    let mut offset = 0u64;
    loop {
        let buf = kernel.read(fd, BUFSIZE)?;
        if buf.is_empty() || scan.feed(kernel, offset, &buf) {
            break;
        }
        offset += buf.len() as u64;
    }
    scan.close_segment(kernel);
    let matches = scan.stitch();
    Ok(GrepResult {
        stopped_early: opts.first_match_only && !matches.is_empty(),
        matches,
    })
}

// [sleds:begin]
/// A maximal contiguous byte range scanned front to back: one run of
/// chunks the pick plan returned back to back. Because the plan is
/// record-oriented, every run starts and ends on a record boundary (or at
/// the file's edges), so no line spans segments and each is scanned on its
/// own. (The baseline's one segment is the whole file.)
struct Segment {
    start: u64,
    end: u64,
    newlines: u64,
    /// Matches, their `line_number` still counted from the segment's
    /// first line.
    matches: Vec<GrepMatch>,
}

impl LineScan<'_> {
    /// Says the next buffer is the one at `offset`: unless that continues
    /// the current segment, closes it and opens a new one. [`feed`] does
    /// this itself; a caller that reads synchronously seeks *before* the
    /// read, as a real grep finishes the line it holds before asking for
    /// more — when a device request is issued decides what it costs.
    ///
    /// [`feed`]: LineScan::feed
    fn seek(&mut self, kernel: &mut Kernel, offset: u64) {
        if !matches!(self.segments.last(), Some(seg) if seg.end == offset) {
            self.close_segment(kernel);
            self.segments.push(Segment {
                start: offset,
                end: offset,
                newlines: 0,
                matches: Vec::new(),
            });
        }
    }

    /// Orders the segments and emits their matches in file order, line
    /// numbers made absolute by prefix sums over the segments' newline
    /// counts.
    fn stitch(mut self) -> Vec<GrepMatch> {
        self.segments.sort_by_key(|s| s.start);
        let mut out = Vec::new();
        let mut lines_before = 0u64;
        for seg in self.segments {
            out.extend(seg.matches.into_iter().map(|mut m| {
                m.line_number += lines_before;
                m
            }));
            lines_before += seg.newlines;
        }
        out
    }
}

/// `-q` found its match while reading out of order.
fn quiet_hit(mut scan: LineScan) -> GrepResult {
    let hit = scan.segments.pop().and_then(|mut seg| seg.matches.pop());
    GrepResult {
        matches: vec![GrepMatch {
            // Unknowable without scanning everything before it; the
            // paper's -q likewise suppresses output.
            line_number: 0,
            ..hit.expect("feed reported a match")
        }],
        stopped_early: true,
    }
}

/// The whole plan was scanned: stitch the segments back into file order.
/// This is the buffering-and-sorting the paper's grep port had to add.
fn stitched(kernel: &mut Kernel, mut scan: LineScan) -> GrepResult {
    scan.close_segment(kernel);
    let match_count: u64 = scan.segments.iter().map(|s| s.matches.len() as u64).sum();
    kernel.charge_cpu(SimDuration::from_nanos(
        200 * (scan.segments.len() as u64 + 1) + 80 * match_count,
    ));
    GrepResult {
        matches: scan.stitch(),
        stopped_early: false,
    }
}

fn grep_sleds(
    kernel: &mut Kernel,
    fd: Fd,
    re: &Regex,
    opts: &GrepOptions,
    table: &SledsTable,
) -> SimResult<GrepResult> {
    let mut pick = PickSession::init(kernel, table, fd, PickConfig::records(BUFSIZE, b'\n'))?;
    let mut scan = LineScan::new(re, opts);
    while let Some((offset, len)) = pick.next_read() {
        scan.seek(kernel, offset);
        kernel.lseek(fd, offset as i64, Whence::Set)?;
        let buf = kernel.read(fd, len)?;
        if scan.feed(kernel, offset, &buf) {
            pick.finish();
            return Ok(quiet_hit(scan));
        }
    }
    pick.finish();
    Ok(stitched(kernel, scan))
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

    /// Lines of pseudo-words, one in `hit_every` containing "needle".
    fn corpus(n: usize, hit_every: u64, seed: u64) -> Vec<u8> {
        let mut rng = DetRng::new(seed);
        let mut out = Vec::with_capacity(n);
        let mut line_no = 0u64;
        while out.len() < n {
            line_no += 1;
            let words = rng.range_u64(3, 10);
            for w in 0..words {
                if w > 0 {
                    out.push(b' ');
                }
                if hit_every > 0 && line_no.is_multiple_of(hit_every) && w == 1 {
                    out.extend_from_slice(b"needle");
                } else {
                    for _ in 0..rng.range_u64(2, 9) {
                        out.push(b'a' + rng.range_u64(0, 26) as u8);
                    }
                }
            }
            out.push(b'\n');
        }
        out.truncate(n);
        // Keep the corpus newline-terminated for determinism.
        if let Some(last) = out.last_mut() {
            *last = b'\n';
        }
        out
    }

    #[test]
    fn finds_matches_with_line_numbers() {
        let (mut k, _) = setup();
        k.install_file("/data/f", b"one\ntwo needle x\nthree\nneedle\n")
            .unwrap();
        let re = Regex::new("needle").unwrap();
        let r = grep(&mut k, "/data/f", &re, &GrepOptions::default(), None).unwrap();
        assert_eq!(r.matches.len(), 2);
        assert_eq!(r.matches[0].line_number, 2);
        assert_eq!(r.matches[0].line, b"two needle x");
        assert_eq!(r.matches[1].line_number, 4);
        assert!(!r.stopped_early);
    }

    #[test]
    fn q_stops_early() {
        let (mut k, _) = setup();
        k.install_file("/data/f", b"x\nneedle\ny\nneedle\n")
            .unwrap();
        let re = Regex::new("needle").unwrap();
        let r = grep(
            &mut k,
            "/data/f",
            &re,
            &GrepOptions {
                first_match_only: true,
            },
            None,
        )
        .unwrap();
        assert_eq!(r.matches.len(), 1);
        assert!(r.stopped_early);
    }

    #[test]
    fn sleds_mode_matches_baseline_cold() {
        let (mut k, t) = setup();
        let text = corpus(6 * PAGE_SIZE as usize, 37, 3);
        k.install_file("/data/f", &text).unwrap();
        let re = Regex::new("needle").unwrap();
        let base = grep(&mut k, "/data/f", &re, &GrepOptions::default(), None).unwrap();
        k.drop_caches().unwrap();
        let with = grep(&mut k, "/data/f", &re, &GrepOptions::default(), Some(&t)).unwrap();
        assert_eq!(base.matches.len(), with.matches.len());
        for (a, b) in base.matches.iter().zip(&with.matches) {
            assert_eq!(a.offset, b.offset);
            assert_eq!(a.line, b.line);
            assert_eq!(a.line_number, b.line_number);
        }
    }

    #[test]
    fn sleds_mode_matches_baseline_warm_scrambled() {
        let (mut k, t) = setup();
        let text = corpus(10 * PAGE_SIZE as usize, 53, 4);
        k.install_file("/data/f", &text).unwrap();
        let re = Regex::new("needle").unwrap();
        let base = grep(&mut k, "/data/f", &re, &GrepOptions::default(), None).unwrap();
        // Warm two separated ranges so the plan has several latency runs.
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.lseek(fd, 2 * PAGE_SIZE as i64, Whence::Set).unwrap();
        k.read(fd, 2 * PAGE_SIZE as usize).unwrap();
        k.lseek(fd, 7 * PAGE_SIZE as i64, Whence::Set).unwrap();
        k.read(fd, PAGE_SIZE as usize).unwrap();
        k.close(fd).unwrap();
        let with = grep(&mut k, "/data/f", &re, &GrepOptions::default(), Some(&t)).unwrap();
        assert_eq!(base, with);
    }

    #[test]
    fn sleds_q_terminates_without_io_when_match_cached() {
        let (mut k, t) = setup();
        // Match near the END of the file; warm exactly that region.
        let mut text = corpus(20 * PAGE_SIZE as usize, 0, 5);
        let pos = 18 * PAGE_SIZE as usize;
        text[pos..pos + 6].copy_from_slice(b"needle");
        k.install_file("/data/f", &text).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.lseek(fd, 17 * PAGE_SIZE as i64, Whence::Set).unwrap();
        k.read(fd, 3 * PAGE_SIZE as usize).unwrap();
        k.close(fd).unwrap();
        k.reset_counters();

        let re = Regex::new("needle").unwrap();
        let j = k.start_job();
        let r = grep(
            &mut k,
            "/data/f",
            &re,
            &GrepOptions {
                first_match_only: true,
            },
            Some(&t),
        )
        .unwrap();
        let rep = k.finish_job(&j);
        assert!(r.stopped_early);
        assert_eq!(
            rep.usage.major_faults, 0,
            "match was cached; no device I/O needed"
        );

        // Baseline from the front must fault its way through ~18 pages.
        k.reset_counters();
        let j = k.start_job();
        grep(
            &mut k,
            "/data/f",
            &re,
            &GrepOptions {
                first_match_only: true,
            },
            None,
        )
        .unwrap();
        let rep = k.finish_job(&j);
        assert!(rep.usage.major_faults > 10);
    }

    #[test]
    fn no_match_returns_empty() {
        let (mut k, t) = setup();
        k.install_file("/data/f", b"aaa\nbbb\n").unwrap();
        let re = Regex::new("zzz").unwrap();
        for table in [None, Some(&t)] {
            let r = grep(&mut k, "/data/f", &re, &GrepOptions::default(), table).unwrap();
            assert!(r.matches.is_empty());
        }
    }

    #[test]
    fn unterminated_last_line_is_searched() {
        let (mut k, t) = setup();
        k.install_file("/data/f", b"aaa\nneedle-at-eof").unwrap();
        let re = Regex::new("needle").unwrap();
        let base = grep(&mut k, "/data/f", &re, &GrepOptions::default(), None).unwrap();
        assert_eq!(base.matches.len(), 1);
        assert_eq!(base.matches[0].line_number, 2);
        let with = grep(&mut k, "/data/f", &re, &GrepOptions::default(), Some(&t)).unwrap();
        assert_eq!(base, with);
    }

    #[test]
    fn regex_patterns_work_through_grep() {
        let (mut k, _) = setup();
        k.install_file(
            "/data/src.c",
            b"int main() {\n  sleds_pick_init(fd, SZ);\n}\n",
        )
        .unwrap();
        let re = Regex::new(r"sleds_pick_\w+\(").unwrap();
        let r = grep(&mut k, "/data/src.c", &re, &GrepOptions::default(), None).unwrap();
        assert_eq!(r.matches.len(), 1);
        assert_eq!(r.matches[0].line_number, 2);
    }
}
