//! Compiling user-space pick predicates into in-kernel [`PickProgram`]s.
//!
//! The bridge between the library's vocabulary (a parsed
//! [`LatencyPredicate`], a filled [`SledsTable`]) and the kernel's pushdown
//! interface (bytecode plus flattened [`ProgPricing`] rows). Compilation
//! must preserve *bit-for-bit* verdict parity with the sequential path:
//! the emitted bytecode performs the same floating-point operations in the
//! same order as [`LatencyPredicate::matches`], over an estimate both
//! sides compute with the same [`sleds_fs::sled`] code.

use std::cmp::Ordering;

use sleds_fs::{PickProgram, ProgInst, ProgPricing};
use sleds_sim_core::{Errno, SimError, SimResult};

use crate::predicate::LatencyPredicate;
use crate::table::SledsTable;
use crate::Sled;

/// Compiles a `find -latency` predicate into kernel bytecode.
///
/// `+n` becomes `delivery > n*unit`, `-n` becomes `delivery < n*unit` —
/// with the threshold folded at compile time exactly as `matches` folds it
/// (`n as f64 * unit`). The whole-unit `n` form becomes
/// `floor(delivery / unit) == n as f64`; the comparison is exact for
/// thresholds below 2^53, far past any plausible `-latency` argument.
#[expect(
    clippy::expect_used,
    reason = "fixed-shape programs below: 3 or 6 insts, arity 1, finite constants"
)]
pub fn compile_latency(pred: &LatencyPredicate) -> PickProgram {
    let (cmp, unit, n) = pred.parts();
    let insts = match cmp {
        Ordering::Greater => vec![
            ProgInst::PushDeliveryTime,
            ProgInst::PushConst(n as f64 * unit),
            ProgInst::Gt,
        ],
        Ordering::Less => vec![
            ProgInst::PushDeliveryTime,
            ProgInst::PushConst(n as f64 * unit),
            ProgInst::Lt,
        ],
        Ordering::Equal => vec![
            ProgInst::PushDeliveryTime,
            ProgInst::PushConst(unit),
            ProgInst::Div,
            ProgInst::Floor,
            ProgInst::PushConst(n as f64),
            ProgInst::Eq,
        ],
    };
    PickProgram::new(insts).expect("compiled latency predicate always verifies")
}

/// Flattens a sleds table into the pricing rows a ring op or walk carries
/// across the boundary.
///
/// Only the flat rows travel: zone rows and `trust_device_reports` are not
/// expressible in [`ProgPricing`]. Infallible, so lossy for a table that
/// has either; the library's own pushdown entry points go through
/// [`pushdown_pricing`], which refuses such a table.
pub fn pricing_from(table: &SledsTable) -> ProgPricing {
    ProgPricing {
        memory: table.memory(),
        devices: table.iter_devices().collect(),
    }
}

/// [`pricing_from`] for a pushdown entry point: `EINVAL`, naming the
/// reason, when flattening would change what the table prices
/// ([`SledsTable::pushdown_loss`]) — the kernel would quote SLEDs the
/// sequential path does not.
pub fn pushdown_pricing(table: &SledsTable) -> SimResult<ProgPricing> {
    match table.pushdown_loss() {
        Some(lost) => Err(SimError::new(
            Errno::Einval,
            format!("FSLEDS pushdown: the sleds table {lost}, which pushed rows cannot carry"),
        )),
        None => Ok(pricing_from(table)),
    }
}

/// Copies kernel-built SLEDs. The kernel and the library share one
/// [`Sled`] type, so this exists only for `benchmark/`, which calls it and
/// cannot be edited here; it goes with the `RingOp` / `RingPayload`
/// aliases (ROADMAP 2a).
pub fn sleds_from_prog(sleds: &[Sled]) -> Vec<Sled> {
    sleds.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_fs::ProgInputs;

    fn verdict(prog: &PickProgram, estimate: f64) -> bool {
        prog.matches(&ProgInputs {
            first_latency: 0.0,
            delivery_time: estimate,
            cached_fraction: 0.0,
        })
    }

    #[test]
    fn compiled_predicates_match_bit_for_bit() {
        let estimates = [
            0.0,
            1e-7,
            29e-6,
            30e-6,
            31e-6,
            0.1999,
            0.2,
            0.25,
            4.999,
            5.0,
            5.4,
            5.999,
            6.0,
            55.0,
            f64::INFINITY,
        ];
        for spec in ["5", "+2", "-10", "+m200", "-U30", "M5", "0", "+0"] {
            let pred = LatencyPredicate::parse(spec).unwrap();
            let prog = compile_latency(&pred);
            for &est in &estimates {
                assert_eq!(
                    verdict(&prog, est),
                    pred.matches(est),
                    "spec {spec:?} estimate {est}"
                );
            }
        }
    }

    #[test]
    fn pricing_flattens_memory_and_devices() {
        use sleds_fs::DeviceId;
        let mut t = SledsTable::new();
        assert_eq!(pricing_from(&t).memory, None);
        t.fill_memory(crate::SledsEntry::new(175e-9, 48e6));
        t.fill_device(DeviceId(2), crate::SledsEntry::new(0.018, 9e6));
        t.fill_device(DeviceId(7), crate::SledsEntry::new(0.27, 1e6));
        let p = pricing_from(&t);
        assert_eq!(p.memory.unwrap().bandwidth, 48e6);
        assert_eq!(p.devices.len(), 2);
        assert_eq!(p.device(DeviceId(7)).unwrap().latency, 0.27);
        assert_eq!(p.device(DeviceId(3)), None);
    }

    #[test]
    fn prog_sleds_round_trip() {
        let ks = [Sled {
            offset: 4096,
            length: 8192,
            latency: 0.018,
            bandwidth: 9e6,
        }];
        assert_eq!(sleds_from_prog(&ks), ks);
    }
}
