//! The `find -latency` predicate.
//!
//! The paper's modified `find` accepts `-latency +n` (total estimated
//! delivery time greater than `n` seconds), `-latency n` (exactly `n`, in
//! whole units, like `-atime`), and `-latency -n` (less than `n`). An `m` or
//! `M` before the number selects milliseconds, `u` or `U` microseconds.

use std::cmp::Ordering;

use sleds_sim_core::{Errno, SimError, SimResult};

/// A parsed `-latency` argument.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyPredicate {
    /// Required comparison of the estimate against the threshold.
    cmp: Ordering,
    /// Unit size in seconds (1, 1e-3 or 1e-6).
    unit: f64,
    /// Threshold in units.
    n: u64,
}

impl LatencyPredicate {
    /// Parses a specification like `+5`, `-m200` or `u30`.
    ///
    /// Grammar: `[+|-] [m|M|u|U] digits`. `+` selects *greater than*, `-`
    /// *less than*, no sign *exactly* (in whole units).
    pub fn parse(spec: &str) -> SimResult<LatencyPredicate> {
        let bad = || SimError::new(Errno::Einval, format!("-latency {spec:?}"));
        let mut rest = spec;
        let cmp = match rest.as_bytes().first() {
            Some(b'+') => {
                rest = &rest[1..];
                Ordering::Greater
            }
            Some(b'-') => {
                rest = &rest[1..];
                Ordering::Less
            }
            Some(_) => Ordering::Equal,
            None => return Err(bad()),
        };
        let unit = match rest.as_bytes().first() {
            Some(b'm' | b'M') => {
                rest = &rest[1..];
                1e-3
            }
            Some(b'u' | b'U') => {
                rest = &rest[1..];
                1e-6
            }
            _ => 1.0,
        };
        if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad());
        }
        let n: u64 = rest.parse().map_err(|_| bad())?;
        Ok(LatencyPredicate { cmp, unit, n })
    }

    /// The parsed `(comparison, unit seconds, threshold in units)` triple.
    /// The pick-program compiler uses this to emit bytecode that
    /// reproduces [`LatencyPredicate::matches`] operation for operation.
    pub fn parts(&self) -> (Ordering, f64, u64) {
        (self.cmp, self.unit, self.n)
    }

    /// Tests an estimated delivery time (seconds) against the predicate.
    ///
    /// Like `find -atime`, the "exactly n" form compares in whole units:
    /// an estimate of 5.4 seconds matches `-latency 5`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a float-to-integer `as` saturates: an estimate of 2^64 units or more matches no smaller n"
    )]
    pub fn matches(&self, estimate_secs: f64) -> bool {
        match self.cmp {
            Ordering::Greater => estimate_secs > self.n as f64 * self.unit,
            Ordering::Less => estimate_secs < self.n as f64 * self.unit,
            Ordering::Equal => (estimate_secs / self.unit).floor() as u64 == self.n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_plain_seconds() {
        let p = LatencyPredicate::parse("5").unwrap();
        assert!(p.matches(5.0));
        assert!(p.matches(5.9));
        assert!(!p.matches(6.0));
        assert!(!p.matches(4.99));
    }

    #[test]
    fn parse_greater_and_less() {
        let gt = LatencyPredicate::parse("+2").unwrap();
        assert!(gt.matches(2.01));
        assert!(!gt.matches(2.0));
        let lt = LatencyPredicate::parse("-2").unwrap();
        assert!(lt.matches(1.99));
        assert!(!lt.matches(2.0));
    }

    #[test]
    fn parse_millis_and_micros() {
        let p = LatencyPredicate::parse("+m200").unwrap();
        assert!(p.matches(0.25));
        assert!(!p.matches(0.15));
        let q = LatencyPredicate::parse("-U30").unwrap();
        assert!(q.matches(10e-6));
        assert!(!q.matches(50e-6));
        let r = LatencyPredicate::parse("M5").unwrap();
        assert!(r.matches(0.0055));
        assert!(!r.matches(0.0065));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "+", "-", "m", "+m", "5s", "x5", "5.5", "+-5", "m5u"] {
            assert!(
                LatencyPredicate::parse(bad).is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn paper_example_prune_tape() {
        // "users may wish to ignore all tape-resident data": keep only
        // files cheaper than 10 seconds.
        let keep = LatencyPredicate::parse("-10").unwrap();
        assert!(keep.matches(0.3)); // disk file
        assert!(!keep.matches(55.0)); // tape-resident file
    }
}
