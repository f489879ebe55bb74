//! Property tests for the statistics and time substrate.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

#![expect(
    clippy::float_cmp,
    reason = "an ECDF steps up exactly at the minimum and is exactly 1 at the maximum"
)]

use sleds_sim_core::stats::{Ecdf, Summary};
use sleds_sim_core::{check, retry, DetRng, SimDuration, SimTime};

fn sample_vec(rng: &mut DetRng, min_len: usize, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let len = rng.range_usize(min_len, max_len);
    (0..len).map(|_| lo + rng.unit_f64() * (hi - lo)).collect()
}

/// Summary invariants: min <= mean <= max exactly, non-negative spread, a
/// CI that never exceeds the full range, and no spread at all for
/// identical samples.
#[test]
fn summary_invariants() {
    check::run("summary_invariants", |rng| {
        let xs = sample_vec(rng, 1, 100, -1e6, 1e6);
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, xs.len());
        assert!(s.min <= s.mean && s.mean <= s.max, "{s:?}");
        assert!(s.stddev >= 0.0);
        assert!(s.ci90 >= 0.0);
        if s.n >= 2 {
            // t * sd / sqrt(n) <= t * range (very loose but always true).
            assert!(s.ci90 <= 6.32 * (s.max - s.min) + 1e-9);
        }
        // n copies of one value summarize to that value with no spread,
        // however the n-fold sum rounds.
        let same = Summary::of(&vec![xs[0]; xs.len()]).unwrap();
        assert_eq!((same.mean, same.stddev, same.ci90), (xs[0], 0.0, 0.0));
    });
}

/// ECDF: the steps are monotone, start at the min, reach 1 at the max, and
/// quantile() inverts them within rank rounding.
#[test]
fn ecdf_invariants() {
    check::run("ecdf_invariants", |rng| {
        let xs = sample_vec(rng, 1, 100, 0.0, 1e6);
        let e = Ecdf::of(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let steps: Vec<(f64, f64)> = e.steps().collect();
        assert_eq!(steps[0].0, lo);
        let (last_x, last_f) = steps[steps.len() - 1];
        assert_eq!(last_x, hi);
        assert_eq!(last_f, 1.0);
        let mut prev = 0.0;
        for (x, f) in e.steps() {
            assert!(f >= prev);
            assert!((0.0..=1.0).contains(&f));
            assert!((lo..=hi).contains(&x));
            prev = f;
        }
        // Quantiles are within the sample and ordered.
        let q25 = e.quantile(0.25);
        let q75 = e.quantile(0.75);
        assert!(q25 <= q75);
        assert!((lo..=hi).contains(&q25));
    });
}

/// Duration arithmetic never wraps: any sum of durations is at least
/// as large as each operand (saturating, monotone).
#[test]
fn duration_sums_are_monotone() {
    check::run("duration_sums_are_monotone", |rng| {
        let len = rng.range_usize(1, 20);
        let mut acc = SimDuration::ZERO;
        for _ in 0..len {
            let d = SimDuration::from_nanos(rng.range_u64(0, u64::MAX / 4));
            let next = acc + d;
            assert!(next >= acc);
            assert!(next >= d);
            acc = next;
        }
    });
}

/// Instant/duration round trips: (t + d) - t == d whenever no
/// saturation occurs.
#[test]
fn time_roundtrip() {
    check::run("time_roundtrip", |rng| {
        let t0 = SimTime::from_nanos(rng.range_u64(0, u64::MAX / 2));
        let dd = SimDuration::from_nanos(rng.range_u64(0, u64::MAX / 4));
        assert_eq!((t0 + dd) - t0, dd);
    });
}

/// Derived RNG streams are deterministic and stream-dependent.
#[test]
fn rng_derivation_is_stable() {
    check::run("rng_derivation_is_stable", |rng| {
        let seed = rng.range_u64(0, u64::MAX);
        let stream = rng.range_u64(0, 1000);
        let a = DetRng::new(seed);
        let mut c1 = a.derive(stream);
        let mut c2 = DetRng::new(seed).derive(stream);
        for _ in 0..8 {
            assert_eq!(c1.range_u64(0, u64::MAX), c2.range_u64(0, u64::MAX));
        }
        let mut other = a.derive(stream + 1);
        let v1: Vec<u64> = (0..8)
            .map(|_| a.derive(stream).range_u64(0, 1 << 30))
            .collect();
        let v2: Vec<u64> = (0..8).map(|_| other.range_u64(0, 1 << 30)).collect();
        assert_ne!(v1, v2);
    });
}

/// from_secs_f64 and as_secs_f64 agree to within a nanosecond for
/// sane magnitudes.
#[test]
fn secs_f64_roundtrip() {
    check::run("secs_f64_roundtrip", |rng| {
        let s = rng.unit_f64() * 1e6;
        let d = SimDuration::from_secs_f64(s);
        assert!(
            (d.as_secs_f64() - s).abs() < 1e-6,
            "{} vs {}",
            d.as_secs_f64(),
            s
        );
    });
}

/// Retry backoff: zero before the first retry, and every draw inside the
/// +/-25 % jitter band around 5 ms doubled per retry, clamped to 320 ms.
#[test]
fn retry_backoff_stays_in_its_jitter_band() {
    check::run("retry_backoff_stays_in_its_jitter_band", |rng| {
        assert!(retry::backoff_for(0, rng).is_zero());
        for n in 1..16u32 {
            let clean = (5e-3 * f64::from(1u32 << (n - 1))).min(0.32);
            let b = retry::backoff_for(n, rng).as_secs_f64();
            assert!(
                b >= clean * 0.75 - 1e-9 && b <= clean * 1.25 + 1e-9,
                "retry {n}: {b} outside the +/-25 % band around {clean}"
            );
        }
    });
}

/// The kernel's retry loop shape, driven against an always-failing command:
/// it submits exactly `MAX_ATTEMPTS` times, and the total backoff charged
/// is exactly the sum of the per-retry schedule drawn from the same jitter
/// stream (so the bound holds in virtual time as well as in attempts).
#[test]
fn retry_attempts_respect_policy_bound() {
    check::run("retry_attempts_respect_policy_bound", |rng| {
        let mut replay = rng.clone();
        let mut submissions = 0u32;
        let mut charged = SimDuration::ZERO;
        for attempt in retry::attempts() {
            if attempt > 1 {
                charged = charged.saturating_add(retry::backoff_for(attempt - 1, rng));
            }
            // The command always fails with a retryable errno.
            submissions += 1;
        }
        assert_eq!(
            submissions,
            retry::MAX_ATTEMPTS,
            "loop must exhaust exactly"
        );
        let expected = (1..retry::MAX_ATTEMPTS).fold(SimDuration::ZERO, |acc, i| {
            acc.saturating_add(retry::backoff_for(i, &mut replay))
        });
        assert_eq!(charged, expected, "backoff charges follow the schedule");
        // Three retries at most 1.25 x (5 + 10 + 20) ms.
        assert!(charged <= SimDuration::from_micros(43_750), "{charged}");
    });
}

/// Log-histogram percentile queries: p50 <= p90 <= p99, all within the
/// observed [min, max].
#[test]
fn log_histogram_percentiles_are_ordered_and_bounded() {
    use sleds_sim_core::stats::LogHistogram;
    check::run("log_histogram_percentiles_are_ordered_and_bounded", |rng| {
        let mut h = LogHistogram::new();
        let len = rng.range_usize(1, 200);
        for _ in 0..len {
            // Span many buckets: mix tiny and huge observations.
            let mag = rng.range_u64(0, 40);
            h.record(rng.range_u64(0, (1u64 << mag).max(1)));
        }
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        for q in [p50, p90, p99] {
            assert!(q >= h.min(), "{q} below min {}", h.min());
            assert!(q <= h.max(), "{q} above max {}", h.max());
        }
    });
}
