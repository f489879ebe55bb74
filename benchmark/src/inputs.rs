//! Seeded input generators. The simulator only ever sees what these
//! produce; the same seed gives the same bytes. All randomness is `DetRng`.

use sleds_fits::{header::FitsHeader, Bitpix};
use sleds_sim_core::{DetRng, PAGE_SIZE};

/// Marker carried by one line in [`HIT_EVERY_LINES`]: what the all-matches
/// grep pass looks for. Uppercase never occurs in generated words.
pub const HIT: &[u8] = b"ZQXJKV";

/// Marker planted exactly once per corpus: what `grep -q` looks for.
pub const NEEDLE: &[u8] = b"WYVERNQ";

/// One hit line in this many (the paper's "small match percentage").
pub const HIT_EVERY_LINES: u64 = 400;

/// Shaves a seed-chosen 0..16 pages off a nominal size. Sizes therefore
/// differ by at most 64 KiB between seeds (well under 1 % of any input
/// here), which is enough that no two seeds produce the same syscall
/// counts: every virtual figure carries the seed in its digits, so a
/// reading that repeats across seeds is a stuck counter, not determinism.
pub fn jittered_len(rng: &mut DetRng, nominal_bytes: u64) -> u64 {
    nominal_bytes - rng.range_u64(0, 16) * PAGE_SIZE
}

/// Line-structured lowercase text of exactly `len` bytes: 3–9 pool words
/// per line, every [`HIT_EVERY_LINES`]-th line carrying [`HIT`], and
/// [`NEEDLE`] planted once inside `needle_window` (byte range). Returns the
/// text and the needle's byte offset.
pub fn text_corpus(rng: &mut DetRng, len: usize, needle_window: (usize, usize)) -> (Vec<u8>, u64) {
    let pool: Vec<Vec<u8>> = (0..1024)
        .map(|_| {
            (0..rng.range_usize(2, 10))
                .map(|_| b'a' + rng.range_u64(0, 26) as u8)
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(len + 128);
    let mut line_no = 0u64;
    while out.len() < len {
        line_no += 1;
        let words = rng.range_u64(3, 10);
        for w in 0..words {
            if w > 0 {
                out.push(b' ');
            }
            if w == 1 && line_no.is_multiple_of(HIT_EVERY_LINES) {
                out.extend_from_slice(HIT);
            } else {
                out.extend_from_slice(&pool[rng.range_usize(0, pool.len())]);
            }
        }
        out.push(b'\n');
    }
    out.truncate(len);
    if let Some(last) = out.last_mut() {
        *last = b'\n';
    }
    // Plant the needle over lowercase letters only, so the line structure
    // (and with it every wc count) is untouched.
    let (lo, hi) = needle_window;
    let mut at = rng.range_usize(lo, hi.max(lo + 1));
    while !out[at..at + NEEDLE.len()]
        .iter()
        .all(|b| b.is_ascii_lowercase())
    {
        at += 1;
    }
    out[at..at + NEEDLE.len()].copy_from_slice(NEEDLE);
    (out, at as u64)
}

/// A synthetic I16 star field as a complete FITS file, plus its pixels for
/// the host-side reference. Sky noise around 100 counts; about one pixel in
/// 2048 is a star with a heavy-tailed brightness.
pub struct FitsImage {
    pub bytes: Vec<u8>,
    pub width: usize,
    pub height: usize,
    pub pixels: Vec<i16>,
}

pub fn fits_image(rng: &mut DetRng, width: usize, height: usize) -> FitsImage {
    let n = width * height;
    let mut pixels = Vec::with_capacity(n);
    while pixels.len() < n {
        // One draw feeds four pixels: 5 bits of sky noise and 11 bits of
        // star lottery each.
        let mut r = rng.range_u64(0, u64::MAX);
        for _ in 0..4 {
            let noise = (r & 31) as i16 - 16;
            let star = (r >> 5) & 2047 == 0;
            r >>= 16;
            pixels.push(if star {
                600 + ((r & 0xfff) as i16) * 4
            } else {
                100 + noise
            });
        }
    }
    pixels.truncate(n);
    let mut bytes = FitsHeader::primary(Bitpix::I16, &[width, height]).encode();
    bytes.reserve(n * 2 + sleds_fits::header::BLOCK_SIZE);
    for p in &pixels {
        bytes.extend_from_slice(&p.to_be_bytes());
    }
    bytes.resize(
        bytes.len().next_multiple_of(sleds_fits::header::BLOCK_SIZE),
        0,
    );
    FitsImage {
        bytes,
        width,
        height,
        pixels,
    }
}
