//! Compiling user-space pick predicates into in-kernel [`PickProgram`]s.
//!
//! The bridge between the library's vocabulary (a parsed
//! [`LatencyPredicate`]) and the kernel's pushdown interface (bytecode
//! evaluated over SLEDs priced from the same [`SledsTable`]). Compilation
//! must preserve *bit-for-bit* verdict parity with the sequential path:
//! the emitted bytecode performs the same floating-point operations in the
//! same order as [`LatencyPredicate::matches`], over an estimate both
//! sides compute with the same [`sleds_fs::sled`] code.

use std::cmp::Ordering;

use sleds_fs::{PickProgram, ProgInst};

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

/// Copies a sleds table. Ring ops and walks carry the table itself, so
/// this exists only for `benchmark/`, which calls it and is not edited
/// here; it goes with the `ProgPricing` alias.
pub fn pricing_from(table: &SledsTable) -> SledsTable {
    table.clone()
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
    fn pricing_from_keeps_zones_and_self_reports() {
        use sleds_fs::DeviceId;
        let mut t = SledsTable::new();
        t.fill_memory(crate::SledsEntry::new(175e-9, 48e6));
        t.fill_device(DeviceId(7), crate::SledsEntry::new(0.27, 1e6));
        t.fill_device(DeviceId(2), crate::SledsEntry::new(0.018, 9e6));
        t.fill_device_zones(DeviceId(2), vec![(0, crate::SledsEntry::new(0.018, 11e6))]);
        t.set_trust_device_reports(true);
        let p = pricing_from(&t);
        assert_eq!(p, t, "nothing is flattened away");
        assert_eq!(p.entry_at(DeviceId(2), 5).unwrap().bandwidth, 11e6);
        assert!(p.trust_device_reports());
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
