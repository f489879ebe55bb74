//! Bounded retry with deterministic exponential backoff.
//!
//! The fault layer (`sleds-faults`) makes device commands fail; this module
//! defines *how hard the kernel tries again*. A [`RetryPolicy`] is a small,
//! copyable value, the same for every device: a hard attempt bound,
//! an exponential backoff schedule clamped to a ceiling, deterministic
//! jitter drawn from a [`DetRng`], and a virtual-clock
//! timeout after which the command is abandoned with `ETIMEDOUT` instead of
//! `EIO`. Every quantity is virtual time — backoff never sleeps a host
//! thread, it just charges the simulated clock.

use std::ops::RangeInclusive;

use crate::error::Errno;
use crate::rng::DetRng;
use crate::time::SimDuration;

/// How the kernel retries failed device commands.
///
/// The policy is deliberately total: a logical command is bounded by
/// `max_attempts` *and* by `timeout`, whichever trips first. The attempt
/// bound is structural — the kernel's retry is a `for` over
/// [`RetryPolicy::attempts`], a finite range, not a `loop` with an exit
/// test somebody has to remember.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum command submissions, including the first (>= 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: SimDuration,
    /// Ceiling the exponential backoff clamps to.
    pub max_backoff: SimDuration,
    /// Total virtual time budget for one logical command, measured from its
    /// first submission. Exceeding it maps the failure to `ETIMEDOUT`.
    pub timeout: SimDuration,
    /// Jitter amplitude applied to each backoff (0.0 = none, 0.25 = +/-25%).
    pub jitter_amp: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(5),
            max_backoff: SimDuration::from_millis(320),
            timeout: SimDuration::from_secs(30),
            jitter_amp: 0.25,
        }
    }
}

impl RetryPolicy {
    /// The 1-based submission numbers of one logical command:
    /// `1..=max_attempts`. A command is always submitted once, so a
    /// `max_attempts` of 0 behaves as 1 instead of reporting a command
    /// that was never issued as failed.
    ///
    /// ```
    /// use sleds_sim_core::RetryPolicy;
    ///
    /// let mut submissions = 0;
    /// for _attempt in RetryPolicy::default().attempts() {
    ///     submissions += 1; // a persistently failing device
    /// }
    /// assert_eq!(submissions, RetryPolicy::default().max_attempts);
    /// ```
    pub fn attempts(&self) -> RangeInclusive<u32> {
        1..=self.max_attempts.max(1)
    }

    /// True when a failure with this errno is worth resubmitting.
    ///
    /// Only `EAGAIN` — the transient-fault code — is retryable. Hard errors
    /// (`EIO` from an offline device, `ENOMEDIUM`, `EROFS`, ...) would fail
    /// identically on every resubmission of the same virtual scenario.
    pub fn retryable(errno: Errno) -> bool {
        errno == Errno::Eagain
    }

    /// Backoff to charge before retry number `retry` (1-based: the wait
    /// before the second attempt is `backoff_for(1, ..)`).
    ///
    /// Exponential in the retry index, clamped to `max_backoff`, then
    /// jittered deterministically from `rng`. With `jitter_amp == 0.0` the
    /// rng is never consulted and the schedule is exactly
    /// `base * 2^(retry-1)` (clamped), which the property tests pin.
    pub fn backoff_for(&self, retry: u32, rng: &mut DetRng) -> SimDuration {
        if retry == 0 || self.base_backoff.is_zero() {
            return SimDuration::ZERO;
        }
        let doublings = retry.saturating_sub(1).min(63);
        let raw = self.base_backoff * (1u64 << doublings);
        let clamped = raw.min(self.max_backoff);
        if self.jitter_amp <= 0.0 {
            return clamped;
        }
        let factor = rng.jitter(self.jitter_amp);
        SimDuration::from_secs_f64(clamped.as_secs_f64() * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_bounded() {
        let p = RetryPolicy::default();
        assert!(p.max_attempts >= 1);
        assert!(p.max_backoff >= p.base_backoff);
        assert!(p.timeout > SimDuration::ZERO);
    }

    #[test]
    fn attempts_number_every_submission_and_never_none() {
        let with = |max_attempts| RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        };
        assert_eq!(RetryPolicy::default().attempts(), 1..=4);
        assert_eq!(with(1).attempts(), 1..=1);
        assert_eq!(with(0).attempts(), 1..=1, "0 still submits once");
    }

    #[test]
    fn only_eagain_is_retryable() {
        assert!(RetryPolicy::retryable(Errno::Eagain));
        assert!(!RetryPolicy::retryable(Errno::Eio));
        assert!(!RetryPolicy::retryable(Errno::Enomedium));
        assert!(!RetryPolicy::retryable(Errno::Etimedout));
    }

    #[test]
    fn unjittered_backoff_doubles_then_clamps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(45),
            timeout: SimDuration::from_secs(1),
            jitter_amp: 0.0,
        };
        let mut rng = DetRng::new(1);
        assert_eq!(p.backoff_for(1, &mut rng), SimDuration::from_millis(10));
        assert_eq!(p.backoff_for(2, &mut rng), SimDuration::from_millis(20));
        assert_eq!(p.backoff_for(3, &mut rng), SimDuration::from_millis(40));
        assert_eq!(p.backoff_for(4, &mut rng), SimDuration::from_millis(45));
        assert_eq!(p.backoff_for(63, &mut rng), SimDuration::from_millis(45));
    }

    #[test]
    fn jittered_backoff_stays_within_amplitude() {
        let p = RetryPolicy {
            jitter_amp: 0.25,
            ..RetryPolicy::default()
        };
        let mut rng = DetRng::new(7);
        for retry in 1..6u32 {
            let unjittered = {
                let q = RetryPolicy {
                    jitter_amp: 0.0,
                    ..p
                };
                q.backoff_for(retry, &mut DetRng::new(0))
            };
            let got = p.backoff_for(retry, &mut rng);
            let lo = unjittered.as_secs_f64() * (1.0 - p.jitter_amp) - 1e-9;
            let hi = unjittered.as_secs_f64() * (1.0 + p.jitter_amp) + 1e-9;
            assert!(
                got.as_secs_f64() >= lo && got.as_secs_f64() <= hi,
                "retry {retry}: {got} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn zero_retry_index_and_no_retry_policy_cost_nothing() {
        let mut rng = DetRng::new(3);
        assert_eq!(
            RetryPolicy::default().backoff_for(0, &mut rng),
            SimDuration::ZERO
        );
        let no_backoff = RetryPolicy {
            base_backoff: SimDuration::ZERO,
            ..RetryPolicy::default()
        };
        assert_eq!(no_backoff.backoff_for(5, &mut rng), SimDuration::ZERO);
    }
}
