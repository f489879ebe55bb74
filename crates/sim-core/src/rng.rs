//! Deterministic random number generation.
//!
//! Every source of randomness in an experiment (device jitter, match
//! placement, file layout) draws from a [`DetRng`] created from an explicit
//! seed, so any figure in EXPERIMENTS.md can be regenerated bit-for-bit.
//!
//! The generator is self-contained (no external crates): a xoshiro256++
//! core whose state is expanded from the 64-bit seed with SplitMix64, the
//! standard seeding procedure recommended by the xoshiro authors. This
//! keeps the default workspace build fully offline.

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used both to expand seeds into generator state and to mix stream ids
/// when deriving child generators.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded random number generator.
///
/// A xoshiro256++ generator that also remembers its seed for reporting,
/// and can derive child generators for independent streams.
#[derive(Clone, Debug)]
pub struct DetRng {
    seed: u64,
    state: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { seed, state }
    }

    /// Returns the seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator.
    ///
    /// The child seed mixes the parent seed with `stream` via SplitMix64, so
    /// `derive(0)` and `derive(1)` produce unrelated streams even for
    /// adjacent parent seeds.
    pub fn derive(&self, stream: u64) -> DetRng {
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        DetRng::new(z)
    }

    /// The xoshiro256++ step: returns the next raw 64-bit output.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Unbiased `u64` in `[0, span)` via Lemire's multiply-shift rejection.
    fn bounded_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut low = m as u64;
        if low < span {
            let threshold = rejection_threshold(span);
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `u64` in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.bounded_u64(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        lo + self.bounded_u64((hi - lo) as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 high bits of the raw output give a uniform dyadic in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in the closed interval `[0, 1]`.
    fn closed_unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64)
    }

    /// A multiplicative jitter factor in `[1 - amp, 1 + amp]`.
    ///
    /// Used by device models to represent background activity; `amp` is
    /// clamped to `[0, 0.99]`.
    pub fn jitter(&mut self, amp: f64) -> f64 {
        let amp = amp.clamp(0.0, 0.99);
        if amp == 0.0 {
            return 1.0;
        }
        1.0 + (self.closed_unit_f64() * 2.0 - 1.0) * amp
    }

    /// A random boolean that is true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p >= 1.0 {
            return true;
        }
        self.unit_f64() < p
    }

    /// Fills `buf` with uniformly random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// `2^64 mod span`: how many low products [`DetRng::bounded_u64`] rejects.
/// Past `2^63` the remainder is `2^64 - span` itself, and `range_u64(0,
/// u64::MAX)` draws land there, so those skip the division.
fn rejection_threshold(span: u64) -> u64 {
    let rest = span.wrapping_neg();
    if rest < span {
        rest
    } else {
        rest % span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rejection_threshold_is_two_to_the_64_mod_span() {
        let old = |span: u64| span.wrapping_neg() % span;
        let mut spans = vec![
            1,
            2,
            3,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut rng = DetRng::new(3);
        for _ in 0..10_000 {
            let raw = rng.next_u64();
            // Every magnitude, and as many spans past 2^63 as below it.
            spans.push((raw >> (raw % 64)).max(1));
            spans.push(raw | 1 << 63);
        }
        for span in spans {
            assert_eq!(rejection_threshold(span), old(span), "span {span}");
            let wide = (1u128 << 64) % u128::from(span);
            assert_eq!(u128::from(rejection_threshold(span)), wide, "span {span}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1_000_000), b.range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.range_u64(0, u64::MAX)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.range_u64(0, u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_streams_are_independent() {
        let root = DetRng::new(7);
        let mut c0 = root.derive(0);
        let mut c1 = root.derive(1);
        let v0: Vec<u64> = (0..16).map(|_| c0.range_u64(0, u64::MAX)).collect();
        let v1: Vec<u64> = (0..16).map(|_| c1.range_u64(0, u64::MAX)).collect();
        assert_ne!(v0, v1);
        // Deriving the same stream twice gives the same child.
        let mut c0b = root.derive(0);
        assert_eq!(
            c0b.range_u64(0, u64::MAX),
            DetRng::new(7).derive(0).range_u64(0, u64::MAX)
        );
    }

    #[test]
    fn empty_ranges_return_lo() {
        let mut r = DetRng::new(3);
        assert_eq!(r.range_u64(10, 10), 10);
        assert_eq!(r.range_u64(10, 5), 10);
        assert_eq!(r.range_usize(4, 4), 4);
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut r = DetRng::new(9);
        for _ in 0..1000 {
            let j = r.jitter(0.1);
            assert!((0.9..=1.1).contains(&j), "jitter {j} out of band");
        }
        // Zero amplitude means exactly 1.0.
        assert_eq!(r.jitter(0.0), 1.0);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = DetRng::new(11);
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_bounds_are_respected() {
        let mut r = DetRng::new(13);
        for _ in 0..1000 {
            let v = r.range_u64(100, 108);
            assert!((100..108).contains(&v));
            let u = r.range_usize(3, 5);
            assert!((3..5).contains(&u));
        }
    }

    #[test]
    fn chance_extremes_are_exact() {
        let mut r = DetRng::new(17);
        for _ in 0..100 {
            assert!(r.chance(1.0));
            assert!(!r.chance(0.0));
        }
    }

    #[test]
    fn fill_bytes_is_deterministic_and_covers_buffer() {
        let mut a = DetRng::new(21);
        let mut b = DetRng::new(21);
        let mut ba = [0u8; 37];
        let mut bb = [0u8; 37];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
        // A 37-byte buffer of all zeros after filling would be astronomically
        // unlikely; treat it as a failure to write.
        assert!(ba.iter().any(|&x| x != 0));
    }
}
