//! The host clock: the only place in the benchmark that reads wall time or
//! `/proc`. Everything else in this package sees host time as plain `u64`
//! nanoseconds since [`HostClock::new`], so a host reading can never leak
//! into a virtual-time figure by type confusion alone.

// sledlint::allow(D001, the host clock is the second of the benchmark's two clocks and is confined to this file)
use std::time::Instant as HostInstant;

/// Monotonic host time in nanoseconds since construction.
#[derive(Clone, Copy)]
pub struct HostClock {
    origin: HostInstant,
}

impl HostClock {
    pub fn new() -> HostClock {
        HostClock {
            origin: HostInstant::now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is not available.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nanoseconds this process has spent on a CPU so far (first field of
/// `/proc/self/schedstat`), or `None` where `/proc` is not available.
/// Divided by wall time it tells a noisy box (share well below 1 for a
/// single-threaded run) from a noisy metric.
pub fn oncpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}
