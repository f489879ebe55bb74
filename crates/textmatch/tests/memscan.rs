//! `memscan` against its naive one-liners at the scale of its 64-byte
//! blocks: haystacks up to about 1 KiB, bytes and needles planted on both
//! sides of the block edges and at the last position, alphabets dense
//! enough that nearly every block holds a `memmem` candidate, and `count`
//! across the edge where its byte-wide counters are emptied.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

use sleds_sim_core::{check, DetRng};
use sleds_textmatch::memscan::{count, memchr, memmem, memrchr};

/// Byte alphabets a haystack is drawn from: two letters (a candidate at
/// nearly every position), text with newlines, and the byte values at
/// the edges of the lane arithmetic.
const ALPHABETS: [&[u8]; 3] = [b"ab", b"ab\nc ", &[0x00, 0x01, 0x7f, 0x80, 0xff]];

/// Where a planted byte or needle starts: either side of the first two
/// block edges. The last start position is added per haystack.
const EDGES: [usize; 5] = [63, 64, 65, 127, 128];

/// Blocks `count` tallies before it empties its byte-wide counters.
const RUN_BYTES: usize = 255 * 64;

fn draw(rng: &mut DetRng, alphabet: &[u8], len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| alphabet[rng.range_usize(0, alphabet.len())])
        .collect()
}

fn naive_memmem(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() {
        return Some(0);
    }
    hay.windows(needle.len()).position(|w| w == needle)
}

fn agree_bytes(hay: &[u8], byte: u8) {
    assert_eq!(
        memchr(byte, hay),
        hay.iter().position(|&b| b == byte),
        "memchr {byte:#x}, {} bytes",
        hay.len()
    );
    assert_eq!(
        memrchr(byte, hay),
        hay.iter().rposition(|&b| b == byte),
        "memrchr {byte:#x}, {} bytes",
        hay.len()
    );
    assert_eq!(
        count(byte, hay),
        hay.iter().filter(|&&b| b == byte).count(),
        "count {byte:#x}, {} bytes",
        hay.len()
    );
}

fn agree_needle(hay: &[u8], needle: &[u8]) {
    assert_eq!(
        memmem(hay, needle),
        naive_memmem(hay, needle),
        "{needle:?} in {} bytes",
        hay.len()
    );
}

/// Where a `width`-byte plant starts in `len` bytes: the block edges it
/// fits before, and the last start position.
fn plant_sites(len: usize, width: usize) -> Vec<usize> {
    let Some(last) = len.checked_sub(width) else {
        return Vec::new();
    };
    EDGES
        .iter()
        .copied()
        .filter(|&at| at <= last)
        .chain([last])
        .collect()
}

#[test]
fn bytes_agree_with_naive_at_block_edges() {
    check::run("memscan_bytes_at_block_edges", |rng| {
        let alphabet = ALPHABETS[rng.range_usize(0, ALPHABETS.len())];
        let len = rng.range_usize(0, 1100);
        let hay = draw(rng, alphabet, len);
        for &byte in alphabet.iter().chain(b"Z") {
            agree_bytes(&hay, byte);
        }
        // One byte absent from the alphabet, alone at each site, then at
        // two sites at once so the first and last differ.
        let sites = plant_sites(len, 1);
        for &at in &sites {
            let mut planted = hay.clone();
            planted[at] = b'Z';
            agree_bytes(&planted, b'Z');
            let other = sites[rng.range_usize(0, sites.len())];
            planted[other] = b'Z';
            agree_bytes(&planted, b'Z');
        }
    });
}

#[test]
fn needles_agree_with_naive_at_block_edges() {
    check::run("memscan_needles_at_block_edges", |rng| {
        let alphabet = ALPHABETS[rng.range_usize(0, ALPHABETS.len())];
        let len = rng.range_usize(0, 1100);
        let hay = draw(rng, alphabet, len);
        let long = rng.range_usize(3, 12);
        for width in [1, 2, long, len + 1, len + 1 + long] {
            // A needle of the haystack's own bytes (found by chance, or
            // a near miss at nearly every candidate) and one with a byte
            // the haystack lacks in the middle (found only where planted).
            let own = draw(rng, alphabet, width);
            let mut marked = own.clone();
            marked[width / 2] = b'Z';
            for needle in [&own, &marked] {
                agree_needle(&hay, needle);
                for at in plant_sites(len, width) {
                    let mut planted = hay.clone();
                    planted[at..at + width].copy_from_slice(needle);
                    agree_needle(&planted, needle);
                }
            }
        }
        agree_needle(&hay, b"");
    });
}

#[test]
fn count_agrees_with_naive_across_run_edges() {
    check::run("memscan_count_across_run_edges", |rng| {
        let alphabet = ALPHABETS[rng.range_usize(0, ALPHABETS.len())];
        let edge = [255, 256, RUN_BYTES, 256 * 64, 2 * RUN_BYTES][rng.range_usize(0, 5)];
        let len = edge - 1 + rng.range_usize(0, 3);
        let hay = draw(rng, alphabet, len);
        for &byte in alphabet {
            assert_eq!(
                count(byte, &hay),
                hay.iter().filter(|&&b| b == byte).count(),
                "{len} bytes"
            );
        }
        // Every byte a hit: each counter reaches its limit in a full run.
        let same = vec![alphabet[0]; len];
        assert_eq!(count(alphabet[0], &same), len);
    });
}
