//! Human-readable SLED reports — what the paper's gmc properties panel and
//! a SLEDs-aware web browser would show.

use std::fmt;

use crate::estimate::{estimate_seconds, AttackPlan};
use crate::Sled;

/// Observed prediction error for the device class that would serve a file,
/// from the kernel's rolling accuracy windows (`FSLEDS_STAT`). Attached to
/// a [`SledReport`] it turns the bare ETA into "ETA ± what we've actually
/// been off by lately".
#[derive(Clone, Copy, Debug)]
pub struct ObservedError {
    /// Mean |predicted − actual| / actual over the window.
    pub mean_abs_rel_err: f64,
    /// Audited prediction pairs in the window.
    pub samples: usize,
}

/// A formatted report over a file's SLED vector: one row per SLED plus the
/// estimated total delivery times, as in the paper's Figure 6 panel.
#[derive(Clone, Debug)]
pub struct SledReport {
    name: String,
    sleds: Vec<Sled>,
    eta_error: Option<ObservedError>,
}

impl SledReport {
    /// Builds a report for a file `name` from its SLEDs.
    pub fn new(name: impl Into<String>, sleds: Vec<Sled>) -> Self {
        SledReport {
            name: name.into(),
            sleds,
            eta_error: None,
        }
    }

    /// Attaches the observed prediction error of the file's serving class;
    /// the rendered ETA then carries an error bar.
    pub fn with_observed_error(mut self, err: Option<ObservedError>) -> Self {
        self.eta_error = err;
        self
    }

    /// The SLED rows.
    pub fn sleds(&self) -> &[Sled] {
        &self.sleds
    }

    /// Estimated total delivery time (seconds) under `plan`.
    pub fn total_secs(&self, plan: AttackPlan) -> f64 {
        estimate_seconds(&self.sleds, plan)
    }

    /// Latency below which a SLED is considered to be in primary memory.
    /// Memory measures in the hundreds of nanoseconds; the fastest device
    /// level (local disk) in the milliseconds — anything under a
    /// millisecond can only be cache.
    pub const MEMORY_LATENCY_CUTOFF: f64 = 1e-3;

    /// Fraction of the file's bytes resident at memory-like latency.
    pub fn cached_fraction(&self) -> f64 {
        let total: u64 = self.sleds.iter().map(|s| s.length).sum();
        if total == 0 {
            return 0.0;
        }
        let cheap: u64 = self
            .sleds
            .iter()
            .filter(|s| s.latency < Self::MEMORY_LATENCY_CUTOFF)
            .map(|s| s.length)
            .sum();
        cheap as f64 / total as f64
    }
}

/// Renders a latency in the most readable unit.
fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2}us", s * 1e6)
    } else {
        format!("{:.0}ns", s * 1e9)
    }
}

impl fmt::Display for SledReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SLEDs for {}:", self.name)?;
        writeln!(
            f,
            "  {:>12} {:>12} {:>10} {:>12}",
            "offset", "length", "latency", "bandwidth"
        )?;
        for s in &self.sleds {
            writeln!(
                f,
                "  {:>12} {:>12} {:>10} {:>9.2}MB/s",
                s.offset,
                s.length,
                fmt_secs(s.latency),
                s.bandwidth / 1e6
            )?;
        }
        writeln!(
            f,
            "  estimated delivery: {} linear, {} reordered",
            fmt_secs(self.total_secs(AttackPlan::Linear)),
            fmt_secs(self.total_secs(AttackPlan::Best))
        )?;
        if let Some(e) = self.eta_error {
            let best = self.total_secs(AttackPlan::Best);
            if best.is_finite() {
                writeln!(
                    f,
                    "  observed error: ±{:.0}% over last {} predictions (±{})",
                    e.mean_abs_rel_err * 100.0,
                    e.samples,
                    fmt_secs(best * e.mean_abs_rel_err),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SledReport {
        SledReport::new(
            "/data/bigfile",
            vec![
                Sled {
                    offset: 0,
                    length: 8192,
                    latency: 0.018,
                    bandwidth: 9e6,
                },
                Sled {
                    offset: 8192,
                    length: 4096,
                    latency: 175e-9,
                    bandwidth: 48e6,
                },
            ],
        )
    }

    #[test]
    fn report_contains_rows_and_totals() {
        let r = sample();
        let text = format!("{r}");
        assert!(text.contains("/data/bigfile"));
        assert!(text.contains("18.00ms"));
        assert!(text.contains("175ns"));
        assert!(text.contains("estimated delivery"));
    }

    #[test]
    fn observed_error_bar_renders_with_eta() {
        let r = sample().with_observed_error(Some(ObservedError {
            mean_abs_rel_err: 0.10,
            samples: 12,
        }));
        let text = format!("{r}");
        assert!(text.contains("observed error: ±10% over last 12 predictions"));
        // Without an attached error the line is absent.
        assert!(!format!("{}", sample()).contains("observed error"));
    }

    #[test]
    fn cached_fraction_counts_cheapest_level() {
        let r = sample();
        let frac = r.cached_fraction();
        assert!((frac - 4096.0 / 12288.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = SledReport::new("empty", vec![]);
        assert_eq!(r.cached_fraction(), 0.0);
        assert_eq!(r.total_secs(AttackPlan::Linear), 0.0);
        let _ = format!("{r}");
    }

    #[test]
    fn fmt_secs_units() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.018), "18.00ms");
        assert_eq!(fmt_secs(42e-6), "42.00us");
        assert_eq!(fmt_secs(175e-9), "175ns");
    }
}
