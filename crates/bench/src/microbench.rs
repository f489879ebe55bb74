//! Minimal self-timing harness for the `cargo bench` targets.
//!
//! Replaces the external benchmark framework so the default workspace
//! builds offline. Each benchmark runs a short warmup, then as many timed
//! iterations as fit a small wall-clock budget, and reports the mean
//! nanoseconds per iteration. `SLEDS_QUICK=1` shrinks the budget for CI.

#[expect(
    clippy::disallowed_types,
    reason = "this crate measures the host on purpose: host time per iteration is its result"
)]
use std::time::{Duration, Instant};

/// One benchmark's result.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Benchmark name as printed.
    pub name: String,
    /// Timed iterations.
    pub iters: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
}

impl Timing {
    /// Formats like `name ... 1234.5 ns/iter (n=100)`.
    pub fn report(&self) -> String {
        format!(
            "{:<44} {:>14.1} ns/iter  (n={})",
            self.name, self.ns_per_iter, self.iters
        )
    }
}

/// True when the environment asks for the short budget (`SLEDS_QUICK=1`,
/// as `scripts/check.sh` runs the component benches).
fn quick_mode() -> bool {
    std::env::var("SLEDS_QUICK").is_ok_and(|v| v != "0")
}

/// The per-benchmark wall-clock budget.
fn budget() -> Duration {
    if quick_mode() {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(200)
    }
}

/// Times `f` under the budget and prints + returns the result.
///
/// The closure's return value is consumed with [`std::hint::black_box`] so
/// the compiler cannot elide the benchmarked work.
pub fn time<T>(name: &str, mut f: impl FnMut() -> T) -> Timing {
    // Warmup: one call always, a few more if they are cheap.
    #[expect(clippy::disallowed_types, reason = "host time sizes the warm-up")]
    let warm_start = Instant::now();
    std::hint::black_box(f());
    let first = warm_start.elapsed();
    let warmups = if first < Duration::from_millis(5) {
        4
    } else {
        0
    };
    for _ in 0..warmups {
        std::hint::black_box(f());
    }

    let budget = budget();
    #[expect(
        clippy::disallowed_types,
        reason = "host time per iteration is the benchmark's result"
    )]
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        std::hint::black_box(f());
        iters += 1;
    }
    let total = start.elapsed();
    let t = Timing {
        name: name.to_string(),
        iters,
        ns_per_iter: total.as_nanos() as f64 / iters.max(1) as f64,
    };
    println!("{}", t.report());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_counts_iterations() {
        let mut calls = 0u64;
        let t = time("noop", || calls += 1);
        // warmup (1 + 4) + timed iterations
        assert_eq!(calls, t.iters + 5);
        assert!(t.iters >= 1);
        assert!(t.ns_per_iter >= 0.0);
    }

    #[test]
    fn report_contains_name() {
        let t = Timing {
            name: "x".into(),
            iters: 3,
            ns_per_iter: 1.5,
        };
        assert!(t.report().contains("x"));
        assert!(t.report().contains("n=3"));
    }
}
