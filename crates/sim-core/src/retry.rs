//! Bounded retry with deterministic exponential backoff.
//!
//! The fault layer (`sleds-faults`) makes device commands fail; this module
//! defines *how hard the kernel tries again*, the same for every device: a
//! hard attempt bound, an exponential backoff schedule clamped to a
//! ceiling, deterministic jitter drawn from a [`DetRng`], and a
//! virtual-clock timeout after which the command is abandoned with
//! `ETIMEDOUT` instead of `EIO`. A logical command is bounded by
//! [`MAX_ATTEMPTS`] *and* by [`RETRY_TIMEOUT`], whichever trips first. Every
//! quantity is virtual time — backoff never sleeps a host thread, it just
//! charges the simulated clock.

use std::ops::RangeInclusive;

use crate::error::Errno;
use crate::rng::DetRng;
use crate::time::SimDuration;

/// Maximum command submissions, including the first.
pub const MAX_ATTEMPTS: u32 = 4;
/// Total virtual time budget for one logical command, measured from its
/// first submission. Exceeding it maps the failure to `ETIMEDOUT`.
pub const RETRY_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Backoff before the first retry; doubles each further retry.
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(5);
/// Ceiling the exponential backoff clamps to.
const MAX_BACKOFF: SimDuration = SimDuration::from_millis(320);
/// Jitter amplitude applied to each backoff (+/-25 %).
const JITTER: f64 = 0.25;

/// The 1-based submission numbers of one logical command:
/// `1..=MAX_ATTEMPTS`. The kernel's retry is a `for` over this finite
/// range, not a `loop` with an exit test somebody has to remember.
///
/// ```
/// use sleds_sim_core::retry;
///
/// let mut submissions = 0;
/// for _attempt in retry::attempts() {
///     submissions += 1; // a persistently failing device
/// }
/// assert_eq!(submissions, retry::MAX_ATTEMPTS);
/// ```
pub fn attempts() -> RangeInclusive<u32> {
    1..=MAX_ATTEMPTS
}

/// True when a failure with this errno is worth resubmitting.
///
/// Only `EAGAIN` — the transient-fault code — is retryable. Hard errors
/// (`EIO` from an offline device, `ENOMEDIUM`, `EROFS`, ...) would fail
/// identically on every resubmission of the same virtual scenario.
pub fn retryable(errno: Errno) -> bool {
    errno == Errno::Eagain
}

/// Backoff to charge before retry number `retry` (1-based: the wait before
/// the second attempt is `backoff_for(1, ..)`): 5 ms doubled per further
/// retry, clamped to 320 ms, then jittered deterministically from `rng`.
pub fn backoff_for(retry: u32, rng: &mut DetRng) -> SimDuration {
    if retry == 0 {
        return SimDuration::ZERO;
    }
    let factor = rng.jitter(JITTER);
    SimDuration::from_secs_f64(schedule(retry).as_secs_f64() * factor)
}

/// The unjittered backoff before retry `retry` (>= 1): `BASE_BACKOFF`
/// doubled per further retry, clamped to `MAX_BACKOFF`.
fn schedule(retry: u32) -> SimDuration {
    let doublings = (retry - 1).min(63);
    (BASE_BACKOFF * (1u64 << doublings)).min(MAX_BACKOFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_bounded() {
        assert_eq!(MAX_ATTEMPTS, 4);
        assert_eq!(RETRY_TIMEOUT, SimDuration::from_secs(30));
        assert_eq!(schedule(1), SimDuration::from_millis(5));
        assert_eq!(schedule(u32::MAX), SimDuration::from_millis(320));
        assert_eq!(JITTER, 0.25);
    }

    #[test]
    fn attempts_number_every_submission_and_never_none() {
        assert_eq!(attempts(), 1..=4);
        assert!(!attempts().is_empty());
    }

    #[test]
    fn only_eagain_is_retryable() {
        assert!(retryable(Errno::Eagain));
        assert!(!retryable(Errno::Eio));
        assert!(!retryable(Errno::Enomedium));
        assert!(!retryable(Errno::Etimedout));
    }

    #[test]
    fn unjittered_backoff_doubles_then_clamps() {
        let ms = |r| schedule(r).as_nanos() / 1_000_000;
        let got: Vec<u64> = (1..=9).map(ms).collect();
        assert_eq!(got, [5, 10, 20, 40, 80, 160, 320, 320, 320]);
        assert_eq!(ms(63), 320);
        assert_eq!(ms(64), 320);
    }

    #[test]
    fn jittered_backoff_stays_within_amplitude() {
        let mut rng = DetRng::new(7);
        for retry in 1..9u32 {
            let unjittered = schedule(retry).as_secs_f64();
            let got = backoff_for(retry, &mut rng);
            let lo = unjittered * (1.0 - JITTER) - 1e-9;
            let hi = unjittered * (1.0 + JITTER) + 1e-9;
            assert!(
                got.as_secs_f64() >= lo && got.as_secs_f64() <= hi,
                "retry {retry}: {got} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn zero_retry_index_costs_nothing() {
        let mut rng = DetRng::new(3);
        let fresh = rng.clone();
        assert_eq!(backoff_for(0, &mut rng), SimDuration::ZERO);
        let (mut a, mut b) = (rng, fresh);
        assert_eq!(
            backoff_for(1, &mut a),
            backoff_for(1, &mut b),
            "retry 0 draws no jitter"
        );
    }
}
