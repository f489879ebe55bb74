//! Byte and substring search, a 64-byte block at a time.
//!
//! Each function tests a whole block with a fold that has no early exit
//! ("is any of these 64 bytes the one?"), which the compiler turns into
//! four 16-byte vector compares ORed into one mask and one branch, and
//! looks inside a block only when the test says something is there.
//! `memchr` and `memrchr` then find the byte's index in the block with
//! another branch-free fold, a vector minimum (maximum) over the indices
//! that match. `count` adds the compares into 64 byte-wide counters and
//! empties them into its total every `RUN` blocks, before any can
//! overflow. The other three copy a tail shorter than a block into one,
//! padded with a byte that cannot match.
//!
//! `memmem` filters blocks of start positions on the needle's first byte
//! and, `len - 1` further on, its last byte. A block that holds such a
//! candidate is resolved a 16-byte quarter, then eight positions, at a
//! time: a `u64` is eight byte lanes, XOR with the wanted byte in every
//! lane turns "equal" into "zero", and `zero_lanes` turns "zero" into the
//! lane's high bit, whose bit index (the word is loaded little-endian) is
//! the byte index times eight. Only candidates are compared in full.
//!
//! Safe code only, with no `std::arch`: the folds are written so the
//! compiler's baseline SSE2 vectorizes them, and the slice-to-array
//! conversions compile to plain loads.

const BLOCK: usize = 64;

/// Blocks [`count`] tallies into its byte-wide counters before it empties
/// them: each block adds at most one to a counter.
const RUN: usize = u8::MAX as usize;

type Block = [u8; BLOCK];

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

#[inline(always)]
fn block(chunk: &[u8]) -> &Block {
    chunk.try_into().expect("chunk of a block")
}

/// Whether any byte of `block` is `byte`.
#[inline(always)]
fn holds(block: &Block, byte: u8) -> bool {
    block.iter().fold(false, |any, &b| any | (b == byte))
}

/// Index of the first `byte` in `block`, or 255 if there is none.
#[inline(always)]
fn first_of(block: &Block, byte: u8) -> u8 {
    let at: Block = std::array::from_fn(|i| if block[i] == byte { i as u8 } else { u8::MAX });
    at.iter().fold(u8::MAX, |min, &i| min.min(i))
}

/// One more than the index of the last `byte` in `block`, or 0 if there is
/// none.
#[inline(always)]
fn last_of(block: &Block, byte: u8) -> u8 {
    let after: Block = std::array::from_fn(|i| if block[i] == byte { i as u8 + 1 } else { 0 });
    after.iter().fold(0, |max, &i| max.max(i))
}

/// `rest`, shorter than a block, followed by bytes that are not `byte`.
fn padded(rest: &[u8], byte: u8) -> Block {
    let mut out = [!byte; BLOCK];
    out[..rest.len()].copy_from_slice(rest);
    out
}

/// `b` in every lane.
fn splat(b: u8) -> u64 {
    LO * u64::from(b)
}

fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunk of eight"))
}

/// The high bit of exactly the lanes of `w` that are zero. (The shorter
/// `(w - LO) & !w & HI` lets a borrow leak into the lane above a zero
/// lane; adding `0x7f` to the low seven bits cannot carry out of a lane.)
fn zero_lanes(w: u64) -> u64 {
    !(((w & !HI) + !HI) | w) & HI
}

/// Index of the first `byte` in `hay`.
pub fn memchr(byte: u8, hay: &[u8]) -> Option<usize> {
    let skipped = hay
        .chunks_exact(BLOCK)
        .take_while(|&chunk| !holds(block(chunk), byte))
        .count();
    // The block that holds it, or the short tail.
    let at = skipped * BLOCK;
    let rest = &hay[at..];
    let i = match rest.get(..BLOCK) {
        Some(chunk) => first_of(block(chunk), byte),
        None => first_of(&padded(rest, byte), byte),
    };
    let i = usize::from(i);
    (i < rest.len()).then_some(at + i)
}

/// Index of the last `byte` in `hay`.
pub fn memrchr(byte: u8, hay: &[u8]) -> Option<usize> {
    let skipped = hay
        .rchunks_exact(BLOCK)
        .take_while(|&chunk| !holds(block(chunk), byte))
        .count();
    // The block that holds it, or the short head.
    let end = hay.len() - skipped * BLOCK;
    let (at, after) = match end.checked_sub(BLOCK) {
        Some(at) => (at, last_of(block(&hay[at..end]), byte)),
        None => (0, last_of(&padded(&hay[..end], byte), byte)),
    };
    usize::from(after).checked_sub(1).map(|i| at + i)
}

/// Number of `byte`s in `hay`.
pub fn count(byte: u8, hay: &[u8]) -> usize {
    let blocks = hay.chunks_exact(BLOCK);
    let tail = blocks.remainder();
    let mut n = tail.iter().filter(|&&b| b == byte).count();
    for run in hay[..hay.len() - tail.len()].chunks(RUN * BLOCK) {
        let mut lanes = [0u8; BLOCK];
        for chunk in run.chunks_exact(BLOCK) {
            for (lane, &b) in lanes.iter_mut().zip(block(chunk)) {
                *lane += u8::from(b == byte);
            }
        }
        n += lanes.iter().map(|&c| usize::from(c)).sum::<usize>();
    }
    n
}

/// Whether some position `i` has `heads[i] == first` and `tails[i] == last`.
#[inline(always)]
fn pairs<const N: usize>(heads: &[u8; N], tails: &[u8; N], first: u8, last: u8) -> bool {
    heads
        .iter()
        .zip(tails)
        .fold(false, |any, (&h, &t)| any | ((h == first) & (t == last)))
}

/// Index of the first occurrence of `needle` in `hay`.
///
/// Candidates are positions where the needle's first byte and, `len - 1`
/// further on, its last byte both match — two block loads per 64
/// positions — and only candidates are compared in full.
pub fn memmem(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let (first, last) = match *needle {
        [] => return Some(0),
        [b] => return memchr(b, hay),
        [first, .., last] => (first, last),
    };
    let span = needle.len() - 1;
    // Start positions are `0..starts`; `hay[p + span]` exists for each.
    let starts = hay.len().checked_sub(span)?;
    let heads = hay[..starts].chunks_exact(BLOCK);
    let tails = hay[span..].chunks_exact(BLOCK);
    let (head_rest, tail_rest) = (heads.remainder(), tails.remainder());
    for (i, (heads, tails)) in heads.zip(tails).enumerate() {
        let (heads, tails) = (block(heads), block(tails));
        if pairs(heads, tails, first, last) {
            if let Some(at) = resolve(hay, needle, i * BLOCK, heads, tails) {
                return Some(at);
            }
        }
    }
    // The short last block, padded with bytes that are never candidates.
    let (heads, tails) = (padded(head_rest, first), padded(tail_rest, last));
    resolve(hay, needle, starts - head_rest.len(), &heads, &tails)
}

/// The first match of `needle` among start positions `p..p + 64` of `hay`,
/// whose first bytes are `heads` and last bytes `tails`: each quarter that
/// holds a candidate goes through the eight-lane words, and a candidate
/// whose second byte also matches is compared in full.
fn resolve(hay: &[u8], needle: &[u8], p: usize, heads: &Block, tails: &Block) -> Option<usize> {
    let (first, last) = (needle[0], needle[needle.len() - 1]);
    let (firsts, lasts) = (splat(first), splat(last));
    let quarters = heads.chunks_exact(16).zip(tails.chunks_exact(16));
    for (q, (heads, tails)) in quarters.enumerate() {
        let quarter = |chunk: &[u8]| -> [u8; 16] { chunk.try_into().expect("chunk of sixteen") };
        if !pairs(&quarter(heads), &quarter(tails), first, last) {
            continue;
        }
        let words = heads.chunks_exact(8).zip(tails.chunks_exact(8));
        for (w, (head, tail)) in words.enumerate() {
            let mut hits = zero_lanes(word(head) ^ firsts) & zero_lanes(word(tail) ^ lasts);
            while hits != 0 {
                let cand = p + q * 16 + w * 8 + hits.trailing_zeros() as usize / 8;
                if hay[cand + 1] == needle[1] && hay[cand..cand + needle.len()] == *needle {
                    return Some(cand);
                }
                hits &= hits - 1;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every function against its one-line naive definition, over every
    /// alignment and length around the word size.
    #[test]
    fn agrees_with_naive_at_every_alignment() {
        let text: Vec<u8> = (0..97u32)
            .map(|i| b"ab\nc\n"[(i * 7 % 5) as usize])
            .collect();
        for from in 0..12 {
            for to in from..text.len() {
                let hay = &text[from..to];
                for byte in [b'a', b'\n', b'z'] {
                    assert_eq!(memchr(byte, hay), hay.iter().position(|&b| b == byte));
                    assert_eq!(memrchr(byte, hay), hay.iter().rposition(|&b| b == byte));
                    assert_eq!(count(byte, hay), hay.iter().filter(|&&b| b == byte).count());
                }
                for needle in [&b""[..], b"c", b"c\n", b"ab\n", b"b\nc\na", b"zz", b"az"] {
                    let naive = if needle.is_empty() {
                        Some(0)
                    } else {
                        hay.windows(needle.len()).position(|w| w == needle)
                    };
                    assert_eq!(memmem(hay, needle), naive, "{needle:?} in {hay:?}");
                }
            }
        }
    }

    #[test]
    fn lane_above_a_match_is_not_a_false_hit() {
        // 0x01 directly above a zero lane is where the inexact trick lies.
        assert_eq!(zero_lanes(LO & !0xff), 0x80);
        assert_eq!(memrchr(0, &[9, 9, 0, 1, 9, 9, 9, 9]), Some(2));
        assert_eq!(count(0, &[0, 1, 0, 1, 0, 1, 0, 1]), 4);
    }

    #[test]
    fn first_and_last_byte_candidates_are_verified() {
        assert_eq!(memmem(b"a-b a+b a=b axb needle", b"axb"), Some(12));
        assert_eq!(memmem(b"needlx needle", b"needle"), Some(7));
        assert_eq!(memmem(b"short", b"longer needle"), None);
    }

    #[test]
    fn padding_is_never_the_byte_it_pads_for() {
        for byte in [0, b'a', 0x7f, 0x80, 0xff] {
            let block = padded(&[byte; 5], byte);
            assert_eq!(block.iter().filter(|&&b| b == byte).count(), 5);
        }
    }

    #[test]
    fn counters_empty_before_they_overflow() {
        // Every byte a hit: each counter reaches exactly `RUN` per run.
        for len in [
            RUN * BLOCK - 1,
            RUN * BLOCK,
            RUN * BLOCK + 1,
            2 * RUN * BLOCK + 65,
        ] {
            assert_eq!(count(7, &vec![7; len]), len);
        }
    }
}
