//! Byte and substring search, eight bytes at a time.
//!
//! A `u64` is treated as eight byte lanes. XOR with the wanted byte in
//! every lane turns "equal" into "zero", and `zero_lanes` turns "zero"
//! into the lane's high bit — so one load and a handful of ALU operations
//! test eight positions, and the bit index of a set high bit (the word is
//! loaded little-endian) is the byte index times eight. Safe code only;
//! the slice-to-array conversions compile to plain loads.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

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
    let pat = splat(byte);
    let mut words = hay.chunks_exact(8);
    for (i, chunk) in words.by_ref().enumerate() {
        let hits = zero_lanes(word(chunk) ^ pat);
        if hits != 0 {
            return Some(i * 8 + hits.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = hay.len() - tail.len();
    tail.iter().position(|&b| b == byte).map(|p| at + p)
}

/// Index of the last `byte` in `hay`.
pub fn memrchr(byte: u8, hay: &[u8]) -> Option<usize> {
    let pat = splat(byte);
    let mut words = hay.rchunks_exact(8);
    let mut end = hay.len();
    for chunk in words.by_ref() {
        let hits = zero_lanes(word(chunk) ^ pat);
        if hits != 0 {
            return Some(end - 1 - hits.leading_zeros() as usize / 8);
        }
        end -= 8;
    }
    words.remainder().iter().rposition(|&b| b == byte)
}

/// Number of `byte`s in `hay`.
pub fn count(byte: u8, hay: &[u8]) -> usize {
    let pat = splat(byte);
    let words = hay.chunks_exact(8);
    let tail = words.remainder().iter().filter(|&&b| b == byte).count();
    words.fold(tail, |n, chunk| {
        n + zero_lanes(word(chunk) ^ pat).count_ones() as usize
    })
}

/// Index of the first occurrence of `needle` in `hay`.
///
/// Candidates are positions where the needle's first byte and, `len - 1`
/// further on, its last byte both match — two loads per eight positions —
/// and only candidates are compared in full.
pub fn memmem(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let (first, last) = match *needle {
        [] => return Some(0),
        [b] => return memchr(b, hay),
        [first, .., last] => (first, last),
    };
    let span = needle.len() - 1;
    // Start positions are `0..starts`; `hay[p + span]` exists for each.
    let starts = hay.len().checked_sub(span)?;
    let at = |p: usize| hay[p..p + needle.len()] == *needle;
    let (firsts, lasts) = (splat(first), splat(last));
    let heads = hay[..starts].chunks_exact(8);
    let tails = hay[span..].chunks_exact(8);
    let mut p = 0;
    for (head, tail) in heads.zip(tails) {
        let mut hits = zero_lanes(word(head) ^ firsts) & zero_lanes(word(tail) ^ lasts);
        while hits != 0 {
            let cand = p + hits.trailing_zeros() as usize / 8;
            if at(cand) {
                return Some(cand);
            }
            hits &= hits - 1;
        }
        p += 8;
    }
    (p..starts).find(|&p| hay[p] == first && hay[p + span] == last && at(p))
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
}
