//! Statistics used by the evaluation harness.
//!
//! The paper reports means with 90% confidence intervals over twelve runs,
//! and one cumulative distribution function (Figure 13). This module
//! implements exactly that: sample summaries with Student-t intervals and an
//! empirical CDF.

/// Two-sided Student-t critical values at 90% confidence (alpha = 0.10),
/// indexed by degrees of freedom 1..=30.
const T90: [f64; 30] = [
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
    1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
    1.703, 1.701, 1.699, 1.697,
];

/// Normal-approximation critical value for large samples.
const Z90: f64 = 1.645;

/// Returns the two-sided 90% Student-t critical value for `df` degrees of
/// freedom, falling back to the normal approximation for large `df`.
pub fn t_critical_90(df: usize) -> f64 {
    if df == 0 {
        // A single sample has no spread estimate; the caller reports a
        // zero-width interval, so the multiplier is irrelevant.
        return 0.0;
    }
    if df <= T90.len() {
        T90[df - 1]
    } else {
        Z90
    }
}

/// Summary of a sample of measurements: mean, spread, and a 90% CI.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected). Zero when `n < 2`.
    pub stddev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Half-width of the two-sided 90% confidence interval on the mean.
    pub ci90: f64,
}

impl Summary {
    /// Summarizes a sample. Returns `None` for an empty sample.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        let stddev = if n >= 2 {
            let var = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        } else {
            0.0
        };
        let ci90 = if n >= 2 {
            t_critical_90(n - 1) * stddev / (n as f64).sqrt()
        } else {
            0.0
        };
        Some(Summary {
            n,
            mean,
            stddev,
            min,
            max,
            ci90,
        })
    }
}

/// An empirical cumulative distribution function.
#[derive(Clone, Debug)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample. Returns `None` for an empty sample.
    pub fn of(xs: &[f64]) -> Option<Ecdf> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ECDF sample"));
        Some(Ecdf { sorted })
    }

    /// Fraction of observations less than or equal to `x`.
    pub fn fraction_at(&self, x: f64) -> f64 {
        // Index of the first element strictly greater than x.
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if q <= 0.0 {
            return self.sorted[0];
        }
        let rank = (q * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// Iterates the step points `(x, F(x))` of the ECDF in ascending order.
    pub fn steps(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &x)| (x, (i + 1) as f64 / n))
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the ECDF holds no observations (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// A fixed-bucket latency histogram over power-of-two nanosecond buckets.
///
/// Bucket `i` counts observations `x` with `2^i <= x < 2^(i+1)` (bucket 0
/// also absorbs zero). Sixty-four buckets cover the full `u64` nanosecond
/// range, so recording never saturates into an "overflow" bucket and two
/// identical runs produce identical bucket vectors. Everything is integer
/// arithmetic — no floats, no allocation after construction — which keeps
/// the histogram safe to embed in kernel-path metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 64],
    /// Per-bucket sum of observations (saturating), parallel to `buckets`.
    /// Lets quantile queries resolve to the count-weighted mean of the
    /// bucket holding the rank instead of the lossy power-of-two floor.
    sums: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub const fn new() -> LogHistogram {
        LogHistogram {
            buckets: [0; 64],
            sums: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a nanosecond observation: floor(log2(x)), with zero
    /// mapping to bucket 0.
    pub fn bucket_of(ns: u64) -> usize {
        (63 - ns.max(1).leading_zeros()) as usize
    }

    /// Lower bound (inclusive) of bucket `i` in nanoseconds.
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i.min(63)
        }
    }

    /// Records one observation.
    pub fn record(&mut self, ns: u64) {
        let b = Self::bucket_of(ns);
        self.buckets[b] += 1;
        self.sums[b] = self.sums[b].saturating_add(ns);
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations in nanoseconds (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or zero when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, or zero when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation in nanoseconds (integer division), zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank `q`-quantile (`q` in `[0, 1]`), resolved to the *floor* of
    /// the bucket holding that rank. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        self.max
    }

    /// Nearest-rank `q`-quantile resolved to the *count-weighted mean* of
    /// the bucket holding that rank (integer division). Exact whenever the
    /// bucket holds a single distinct value — in particular for an empty
    /// histogram (zero), a single sample, and samples sitting exactly on
    /// bucket boundaries — and always within `[min, max]` otherwise,
    /// because a bucket's mean is bounded by its own observations. Bucket
    /// means are monotone across buckets (bucket `i+1`'s floor exceeds
    /// bucket `i`'s ceiling), so `p50() <= p90() <= p99() <= p999()`
    /// always holds.
    pub fn quantile_mean(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.sums[i].checked_div(c).unwrap_or(0);
            }
        }
        self.max
    }

    /// Median observation (count-weighted bucket mean).
    pub fn p50(&self) -> u64 {
        self.quantile_mean(0.50)
    }

    /// 90th-percentile observation (count-weighted bucket mean).
    pub fn p90(&self) -> u64 {
        self.quantile_mean(0.90)
    }

    /// 99th-percentile observation (count-weighted bucket mean).
    pub fn p99(&self) -> u64 {
        self.quantile_mean(0.99)
    }

    /// 99.9th-percentile observation (count-weighted bucket mean) — the
    /// tail the replay diff reports alongside p50/p99.
    pub fn p999(&self) -> u64 {
        self.quantile_mean(0.999)
    }

    /// Iterates the non-empty buckets as `(floor_ns, count)` pairs in
    /// ascending bucket order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[5.0; 12]).unwrap();
        assert_eq!(s.n, 12);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci90, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        // Sample {1,2,3,4}: mean 2.5, var 5/3, sd ~1.2910.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        // CI half-width: t(3)=2.353 * sd / 2.
        let expect = 2.353 * (5.0f64 / 3.0).sqrt() / 2.0;
        assert!((s.ci90 - expect).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_and_singleton() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[3.0]).unwrap();
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci90, 0.0);
    }

    #[test]
    fn t_table_boundaries() {
        assert_eq!(t_critical_90(1), 6.314);
        assert_eq!(t_critical_90(11), 1.796); // 12 runs, as the paper used
        assert_eq!(t_critical_90(30), 1.697);
        assert_eq!(t_critical_90(31), Z90);
        assert_eq!(t_critical_90(0), 0.0);
    }

    #[test]
    fn ecdf_fractions_and_quantiles() {
        let e = Ecdf::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(e.fraction_at(0.5), 0.0);
        assert_eq!(e.fraction_at(1.0), 0.25);
        assert_eq!(e.fraction_at(2.5), 0.5);
        assert_eq!(e.fraction_at(10.0), 1.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 2.0);
        assert_eq!(e.quantile(1.0), 4.0);
    }

    #[test]
    fn ecdf_steps_are_monotonic() {
        let e = Ecdf::of(&[5.0, 1.0, 9.0, 9.0, 2.0]).unwrap();
        let pts: Vec<(f64, f64)> = e.steps().collect();
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn ecdf_empty_is_none() {
        assert!(Ecdf::of(&[]).is_none());
    }

    #[test]
    fn log_histogram_bucketing() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 63);
        assert_eq!(LogHistogram::bucket_floor(0), 0);
        assert_eq!(LogHistogram::bucket_floor(10), 1024);
    }

    #[test]
    fn log_histogram_records_and_summarizes() {
        let mut h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.5), 0);
        for ns in [100u64, 200, 300, 5_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5_600);
        assert_eq!(h.mean(), 1_400);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 5_000);
        // p50 rank 2 → 200 lives in bucket 7 (floor 128).
        assert_eq!(h.quantile(0.5), 128);
        // p100 → bucket of 5000 is 12 (floor 4096).
        assert_eq!(h.quantile(1.0), 4096);
        let nz: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(nz, vec![(64, 1), (128, 1), (256, 1), (4096, 1)]);
    }

    #[test]
    fn quantile_mean_is_exact_on_bucket_boundaries() {
        // Powers of two each live alone in their bucket, so every quantile
        // resolves to the exact observation, not a lossy floor.
        let mut h = LogHistogram::new();
        for ns in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
            h.record(ns);
        }
        assert_eq!(h.p50(), 16); // rank 5 of 10
        assert_eq!(h.p90(), 256); // rank 9
        assert_eq!(h.p99(), 512); // rank 10
        assert_eq!(h.quantile_mean(0.0), 1);
        assert_eq!(h.quantile_mean(1.0), 512);
    }

    #[test]
    fn quantile_mean_empty_histogram_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p90(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.quantile_mean(1.0), 0);
    }

    #[test]
    fn quantile_mean_single_sample_is_that_sample() {
        let mut h = LogHistogram::new();
        h.record(18_350_081); // not a power of two; floor would lose 2.3ms
        assert_eq!(h.p50(), 18_350_081);
        assert_eq!(h.p90(), 18_350_081);
        assert_eq!(h.p99(), 18_350_081);
        // The legacy floor quantile is still the bucket floor.
        assert_eq!(h.quantile(0.5), 1 << 24);
    }

    #[test]
    fn quantile_mean_uses_bucket_mean_for_mixed_buckets() {
        let mut h = LogHistogram::new();
        // 100 and 120 share bucket 6; their count-weighted mean is 110.
        h.record(100);
        h.record(120);
        assert_eq!(h.p50(), 110);
        assert!(h.p50() >= h.min() && h.p50() <= h.max());
    }

    #[test]
    fn p999_resolves_the_far_tail() {
        let mut h = LogHistogram::new();
        // 99 fast observations and one 60ms outlier: p99 stays in the
        // fast bucket (rank ceil(0.99·100) = 99), p999 must surface the
        // outlier (rank ceil(0.999·100) = 100). With 1000 samples the
        // nearest-rank p999 would be rank 999 — still fast — so a 1-in-N
        // outlier only shows at p999 when N < 1000.
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(60_000_000);
        assert_eq!(h.p99(), 1_000);
        assert_eq!(h.p999(), 60_000_000);
    }

    #[test]
    fn quantile_means_are_monotone_under_random_load() {
        // Property: p50 <= p90 <= p99 <= p999 for arbitrary observation
        // mixes. Deterministic pseudo-random cases, so the pin replays.
        for case in 0..64u64 {
            let mut rng = crate::DetRng::new(0x9997_0000 + case);
            let mut h = LogHistogram::new();
            let n = rng.range_u64(1, 5_000);
            for _ in 0..n {
                // Span many buckets: exponentially distributed magnitudes.
                let shift = rng.range_u64(0, 40);
                h.record(rng.range_u64(0, 1 << shift));
            }
            let (p50, p90, p99, p999) = (h.p50(), h.p90(), h.p99(), h.p999());
            assert!(p50 <= p90, "case {case}: p50 {p50} > p90 {p90}");
            assert!(p90 <= p99, "case {case}: p90 {p90} > p99 {p99}");
            assert!(p99 <= p999, "case {case}: p99 {p99} > p999 {p999}");
            assert!(p999 <= h.max(), "case {case}: p999 {p999} > max");
        }
    }

    #[test]
    fn log_histogram_replays_identically() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for ns in 0..2_000u64 {
            a.record(ns * 37);
            b.record(ns * 37);
        }
        assert_eq!(a, b);
    }
}
