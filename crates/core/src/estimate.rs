//! `sleds_total_delivery_time`: estimating whole-file retrieval time.
//!
//! Takes the paper's `attack_plan` argument: `SLEDS_LINEAR` models reading
//! the file front to back (every SLED pays its own first-byte latency),
//! `SLEDS_BEST` models a reordered read that drains each storage level in
//! one streaming pass (one first-byte latency per distinct level).

use sleds_fs::{Fd, Kernel};
use sleds_sim_core::SimResult;

use crate::get::fsleds_get;
use crate::table::SledsTable;
use crate::Sled;

/// The intended access pattern for a delivery-time estimate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttackPlan {
    /// Front-to-back read: each SLED pays its latency (`SLEDS_LINEAR`).
    Linear,
    /// Reordered read: one latency per distinct performance level
    /// (`SLEDS_BEST`).
    Best,
}

/// Estimates total delivery time in seconds for a SLED vector.
pub fn estimate_seconds(sleds: &[Sled], plan: AttackPlan) -> f64 {
    match plan {
        AttackPlan::Linear => sleds.iter().map(Sled::delivery_time).sum(),
        AttackPlan::Best => sleds_fs::sled::best_estimate(sleds),
    }
}

/// `sleds_total_delivery_time`: retrieves the SLEDs for `fd` and estimates
/// the time to read the whole file under `plan`.
pub fn total_delivery_time(
    kernel: &mut Kernel,
    table: &SledsTable,
    fd: Fd,
    plan: AttackPlan,
) -> SimResult<f64> {
    let sleds = fsleds_get(kernel, fd, table)?;
    let est = estimate_seconds(&sleds, plan);
    if kernel.tracing_enabled() && est.is_finite() {
        kernel.trace_predict(
            fd,
            sleds_sim_core::SimDuration::from_secs_f64(est),
            table.generation(),
        )?;
    }
    Ok(est)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sled(offset: u64, length: u64, latency: f64, bandwidth: f64) -> Sled {
        Sled {
            offset,
            length,
            latency,
            bandwidth,
        }
    }

    #[test]
    fn linear_sums_each_sled() {
        let v = vec![
            sled(0, 1_000_000, 0.018, 1e6),
            sled(1_000_000, 1_000_000, 0.0, 48e6),
            sled(2_000_000, 1_000_000, 0.018, 1e6),
        ];
        let t = estimate_seconds(&v, AttackPlan::Linear);
        let expect = (0.018 + 1.0) + (1.0 / 48.0) + (0.018 + 1.0);
        assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
    }

    #[test]
    fn best_pays_each_level_once() {
        let v = vec![
            sled(0, 1_000_000, 0.018, 1e6),
            sled(1_000_000, 1_000_000, 0.0, 48e6),
            sled(2_000_000, 1_000_000, 0.018, 1e6),
        ];
        let t = estimate_seconds(&v, AttackPlan::Best);
        let expect = (0.018 + 2.0) + (1.0 / 48.0);
        assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
    }

    #[test]
    fn best_never_exceeds_linear() {
        let v = vec![
            sled(0, 5_000, 0.13, 2.8e6),
            sled(5_000, 9_000, 175e-9, 48e6),
            sled(14_000, 100_000, 0.13, 2.8e6),
            sled(114_000, 7, 0.27, 1e6),
        ];
        assert!(
            estimate_seconds(&v, AttackPlan::Best)
                <= estimate_seconds(&v, AttackPlan::Linear) + 1e-12
        );
    }

    #[test]
    fn empty_vector_is_zero() {
        assert_eq!(estimate_seconds(&[], AttackPlan::Linear), 0.0);
        assert_eq!(estimate_seconds(&[], AttackPlan::Best), 0.0);
    }

    #[test]
    fn zero_bandwidth_propagates_infinity() {
        let v = vec![sled(0, 1, 1.0, 0.0)];
        assert!(estimate_seconds(&v, AttackPlan::Best).is_infinite());
    }
}
