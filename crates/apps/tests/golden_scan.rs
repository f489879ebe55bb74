//! Golden pins for the text scanners: answers, `Rusage.cpu` and job
//! elapsed of `grep` (baseline / SLEDs, full and `-q`) and `wc`
//! on corpora built to hit every buffer-edge case. The constants were
//! recorded from the per-line scanner these tools used to have; the
//! virtual machine must not notice how the host finds its matches.

use sleds::{SledsEntry, SledsTable};
use sleds_apps::grep::{grep, GrepOptions, GrepResult};
use sleds_apps::wc::{wc, WcResult};
use sleds_apps::BUFSIZE;
use sleds_devices::DiskDevice;
use sleds_fs::{Kernel, OpenFlags, Whence};
use sleds_sim_core::{DetRng, PAGE_SIZE};
use sleds_textmatch::Regex;

const PATH: &str = "/data/f";

/// Appends filler lines (lowercase words, never the needle) until `out`
/// is at least `upto` bytes long.
fn filler(out: &mut Vec<u8>, rng: &mut DetRng, upto: usize) {
    while out.len() < upto {
        for w in 0..rng.range_u64(2, 8) {
            if w > 0 {
                out.push(b' ');
            }
            for _ in 0..rng.range_u64(2, 9) {
                out.push(b'a' + rng.range_u64(0, 13) as u8);
            }
        }
        out.push(b'\n');
    }
}

/// A corpus whose matches sit exactly where a buffer-at-a-time scanner
/// can go wrong when read front to back in `BUFSIZE` pieces:
///
/// 1. in the head of a line that straddles the first buffer edge,
/// 2. split across the second buffer edge itself (`nee|dle`),
/// 3. in a line so long that one whole buffer holds no newline,
/// 4. on two back-to-back lines,
/// 5. in the unterminated last line.
fn grep_corpus() -> Vec<u8> {
    let mut rng = DetRng::new(0x90_1d);
    let mut out = Vec::new();
    filler(&mut out, &mut rng, BUFSIZE - 200);
    out.extend_from_slice(b"head needle ");
    out.resize(BUFSIZE + 25, b'x');
    out.push(b'\n');
    filler(&mut out, &mut rng, 2 * BUFSIZE - 200);
    out.resize(2 * BUFSIZE - 3, b'y');
    out.extend_from_slice(b"needle straddles\n");
    filler(&mut out, &mut rng, 3 * BUFSIZE - 200);
    out.resize(4 * BUFSIZE + 1000, b'z');
    out.extend_from_slice(b" needle in the long line ");
    out.resize(5 * BUFSIZE + 300, b'z');
    out.push(b'\n');
    filler(&mut out, &mut rng, 5 * BUFSIZE + 5000);
    out.extend_from_slice(b"needle one\nneedle two\n");
    filler(&mut out, &mut rng, 6 * BUFSIZE + 123);
    out.extend_from_slice(b"tail needle, no newline");
    out
}

fn prepared(text: &[u8]) -> (Kernel, SledsTable) {
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    let m = k
        .mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    let dev = k.device_of_mount(m).unwrap();
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t.fill_device(dev, SledsEntry::new(0.018, 9e6));
    k.install_file(PATH, text).unwrap();
    k.drop_caches().unwrap();
    // Warm a middle slice and the tail so the pick plan has several runs
    // and reads the end of the file first.
    let fd = k.open(PATH, OpenFlags::RDONLY).unwrap();
    let pages = text.len() as u64 / PAGE_SIZE;
    for (page, n) in [(pages / 3, 5), (pages.saturating_sub(3), 4)] {
        k.lseek(fd, (page * PAGE_SIZE) as i64, Whence::Set).unwrap();
        k.read(fd, (n * PAGE_SIZE) as usize).unwrap();
    }
    k.close(fd).unwrap();
    k.reset_counters();
    (k, t)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Baseline,
    Sleds,
}

/// One measured run on a freshly prepared kernel: the answer, then
/// `(Rusage.cpu, elapsed)` in virtual nanoseconds.
fn run_grep(text: &[u8], mode: Mode, first_match_only: bool) -> (GrepResult, (u64, u64)) {
    let (mut k, t) = prepared(text);
    let re = Regex::new("needle").unwrap();
    let opts = GrepOptions { first_match_only };
    let job = k.start_job();
    let r = match mode {
        Mode::Baseline => grep(&mut k, PATH, &re, &opts, None),
        Mode::Sleds => grep(&mut k, PATH, &re, &opts, Some(&t)),
    }
    .unwrap();
    let rep = k.finish_job(&job);
    (r, (rep.usage.cpu.as_nanos(), rep.elapsed.as_nanos()))
}

/// `(offset, line number)` of every match, after checking that each
/// match's text is exactly the corpus line at its offset.
fn places(text: &[u8], r: &GrepResult) -> Vec<(u64, u64)> {
    r.matches
        .iter()
        .map(|m| {
            let rest = &text[m.offset as usize..];
            let end = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
            assert_eq!(m.line, &rest[..end], "text at offset {}", m.offset);
            assert!(m.offset == 0 || text[m.offset as usize - 1] == b'\n');
            (m.offset, m.line_number)
        })
        .collect()
}

/// Where the six matching lines start, and their line numbers.
const ALL: [(u64, u64); 6] = [
    (65338, 2473),
    (130876, 4889),
    (196441, 7276),
    (332695, 7450),
    (332706, 7451),
    (393362, 9669),
];

/// One pinned grep run.
struct Golden {
    mode: Mode,
    quiet: bool,
    /// `(offset, line number)` per match.
    matches: &'static [(u64, u64)],
    stopped_early: bool,
    /// `(Rusage.cpu, elapsed)` in virtual nanoseconds.
    cost: (u64, u64),
}

#[test]
fn grep_answers_and_virtual_costs_are_pinned() {
    use Mode::*;
    let text = grep_corpus();
    // The reordered `-q` reports no line number (it has not seen the lines
    // before the match).
    let quiet: &[(u64, u64)] = &[(65338, 0)];
    #[rustfmt::skip]
    let golden = [
        Golden { mode: Baseline, quiet: false, matches: &ALL, stopped_early: false, cost: (10969808, 62621488) },
        Golden { mode: Baseline, quiet: true, matches: &ALL[..1], stopped_early: true, cost: (3618756, 27558282) },
        Golden { mode: Sleds, quiet: false, matches: &ALL, stopped_early: false, cost: (11342202, 60806143) },
        Golden { mode: Sleds, quiet: true, matches: quiet, stopped_early: true, cost: (4890900, 27563282) },
    ];
    for g in golden {
        let what = format!("{:?} quiet={}", g.mode, g.quiet);
        let (r, cost) = run_grep(&text, g.mode, g.quiet);
        assert_eq!(places(&text, &r), g.matches, "{what}");
        assert_eq!(r.stopped_early, g.stopped_early, "{what}");
        assert_eq!(cost, g.cost, "{what} (cpu, elapsed)");
    }
}

/// `-q` whose only match is the unterminated last line: the baseline
/// reports an early stop, the reordered mode falls through to the
/// ordinary stitched answer (numbered, not stopped).
#[test]
fn quiet_match_in_unterminated_last_line_is_pinned() {
    let text = b"aaa\nbbb\nneedle at eof";
    let golden = [
        (Mode::Baseline, true, (20897, 20897)),
        (Mode::Sleds, false, (31748, 31748)),
    ];
    for (mode, stopped, cost) in golden {
        let (r, got_cost) = run_grep(text, mode, true);
        assert_eq!(places(text, &r), [(8, 3)], "{mode:?}");
        assert_eq!(r.stopped_early, stopped, "{mode:?}");
        assert_eq!(got_cost, cost, "{mode:?} (cpu, elapsed)");
    }
}

/// Every `is_space` byte and a word byte on both sides of every chunk
/// edge, in every pairing, with filler words between.
fn wc_corpus() -> Vec<u8> {
    const EDGE: [u8; 7] = [b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c, b'w'];
    let mut rng = DetRng::new(0x3c);
    let mut out = Vec::new();
    let mut edge = BUFSIZE;
    for before in EDGE {
        for after in EDGE {
            filler(&mut out, &mut rng, edge - 200);
            out.resize(edge - 1, b'q');
            out.push(before);
            out.push(after);
            edge += BUFSIZE;
        }
    }
    out.extend_from_slice(b"unterminated tail");
    out
}

fn run_wc(text: &[u8], mode: Mode) -> (WcResult, (u64, u64)) {
    let (mut k, t) = prepared(text);
    let job = k.start_job();
    let r = match mode {
        Mode::Baseline => wc(&mut k, PATH, None),
        Mode::Sleds => wc(&mut k, PATH, Some(&t)),
    }
    .unwrap();
    let rep = k.finish_job(&job);
    (r, (rep.usage.cpu.as_nanos(), rep.elapsed.as_nanos()))
}

#[test]
fn wc_counts_and_virtual_costs_are_pinned() {
    let text = wc_corpus();
    let counts = WcResult {
        lines: 118674,
        words: 533512,
        bytes: 3211282,
    };
    let golden = [
        (Mode::Baseline, (87995134, 400628679)),
        (Mode::Sleds, (88278507, 397549200)),
    ];
    for (mode, cost) in golden {
        assert_eq!(run_wc(&text, mode), (counts, cost), "{mode:?}");
    }
}

/// A scan that fails inside its application span (here: the `open`
/// bounces off a missing path, in all three modes) still closes it, so the
/// next scan's span opens at depth zero beside it, not nested inside.
#[test]
fn a_failed_scan_closes_its_app_span() {
    use sleds_fs::trace::{EventPhase, Layer};
    let (mut k, t) = prepared(b"needle\n");
    k.enable_tracing();
    let re = Regex::new("needle").unwrap();
    let opts = GrepOptions::default();
    let missing = "/data/missing";
    assert!(grep(&mut k, missing, &re, &opts, None).is_err());
    assert!(grep(&mut k, missing, &re, &opts, Some(&t)).is_err());
    assert!(wc(&mut k, missing, Some(&t)).is_err());
    assert_eq!(wc(&mut k, PATH, None).unwrap().lines, 1);

    let mut depth = 0usize;
    let mut app_spans = Vec::new();
    for e in k.trace_events() {
        match e.phase {
            EventPhase::Begin => {
                if e.layer == Layer::App {
                    assert_eq!(depth, 0, "{} opened inside an unclosed span", e.name);
                    app_spans.push(e.name);
                }
                depth += 1;
            }
            EventPhase::End => depth -= 1,
            _ => {}
        }
    }
    assert_eq!(depth, 0);
    assert_eq!(app_spans, ["grep", "grep --sleds", "wc --sleds", "wc"]);
}
