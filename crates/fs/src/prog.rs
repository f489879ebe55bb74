//! In-kernel pick programs: a small, verified predicate and ordering
//! bytecode evaluated against a file's SLED vector *inside* the kernel.
//!
//! The pick library's sequential protocol pays one boundary crossing per
//! file just to ask "is this file cheap?" — at archive scale the crossings
//! dominate. A [`PickProgram`] moves the question across the boundary once:
//! passed to a directory walk (`fsleds_walk`) with the caller's
//! [`SledsTable`](crate::sled::SledsTable), it is evaluated in-kernel
//! against the same extent walk and the same prices `FSLEDS_GET` uses, so
//! `find -latency` and `grep -q` prune and reorder whole trees without
//! per-file round-trips.
//!
//! # Verification: the certificate is the admission ticket
//!
//! Running user-supplied bytecode below the syscall boundary is safe only
//! if the kernel can *prove* what it costs before agreeing to run it —
//! the same posture BPF takes. A program is straight-line code with no
//! jumps, so it terminates after its last instruction, and
//! [`PickProgram::certify`], which `new` runs, needs one forward pass
//! tracking the exact stack depth to prove **stack safety** (no underflow,
//! depth never past [`MAX_PROG_STACK`]), **arity** (exactly one value at
//! exit) and a **cost bound**: the sum of the per-instruction nanosecond
//! costs, which must not exceed [`MAX_PROG_COST_NS`].
//!
//! The proof is stamped into the program as a [`CostCert`]. `fsleds_walk`
//! charges virtual CPU *from the certificate*, fixed at admission, rather
//! than metering each evaluation. That keeps the charge a pure function of
//! the program: evaluation cost cannot depend on file contents, so
//! accounting stays deterministic and a hostile program cannot make its
//! own billing cheap.
//!
//! Floating-point parity matters more than expressiveness: the equivalence
//! proofs require the kernel's verdict to match the user-space predicate
//! bit for bit, so the instruction set includes `Div`/`Floor`/`Eq` purely
//! to express `find -latency n`'s whole-unit comparison with the exact
//! operation order `LatencyPredicate::matches` uses.

use sleds_sim_core::{Errno, SimError, SimResult};

use crate::inode::FileKind;
use crate::sled::{best_estimate, Sled, SledsEntry};

/// Maximum instructions a program may hold. Small on purpose: a pick
/// predicate is a comparison or two, and the bound keeps in-kernel
/// evaluation O(1) per file.
pub const MAX_PROG_LEN: usize = 64;

/// Maximum operand-stack depth the verifier admits.
pub const MAX_PROG_STACK: usize = 8;

/// Interpreted nanoseconds a program may cost per evaluation. Budget, not
/// estimate: certification rejects any program whose summed instruction
/// costs exceed it, so one walk entry can never cost more than
/// this much program CPU no matter what bytecode user space ships.
pub const MAX_PROG_COST_NS: u64 = 120;

/// One bytecode instruction. Comparisons push `1.0` for true and `0.0`
/// for false; the program's final value is truthy when nonzero. Every
/// instruction pushes exactly one value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProgInst {
    /// Push the file's total delivery time (seconds) under the best
    /// attack plan — each storage level pays its latency once and streams
    /// its bytes: `sleds_total_delivery_time(SLEDS_BEST)`.
    PushDeliveryTime,
    /// Push a constant. NaN constants fail verification.
    PushConst(f64),
    /// Pop `b`, pop `a`, push `a < b`.
    Lt,
    /// Pop `b`, pop `a`, push `a > b`.
    Gt,
    /// Pop `b`, pop `a`, push `a == b` (IEEE equality).
    Eq,
    /// Pop `b`, pop `a`, push `a / b`.
    Div,
    /// Pop `a`, push `a.floor()`.
    Floor,
}

impl ProgInst {
    /// Values the instruction pops before pushing its one result.
    fn pops(&self) -> usize {
        match self {
            ProgInst::PushDeliveryTime | ProgInst::PushConst(_) => 0,
            ProgInst::Floor => 1,
            ProgInst::Lt | ProgInst::Gt | ProgInst::Eq | ProgInst::Div => 2,
        }
    }

    /// Interpreted cost of one execution of this instruction, in
    /// nanoseconds of in-kernel dispatch. The table is part of the
    /// kernel's cost model: certification sums it over the program, and
    /// the walk charges that sum per priced entry.
    fn cost_ns(&self) -> u64 {
        match self {
            // Input pushes read a precomputed scalar out of ProgInputs.
            ProgInst::PushDeliveryTime | ProgInst::PushConst(_) => 2,
            // Division and floor are the slow FP ops.
            ProgInst::Div | ProgInst::Floor => 4,
            // A compare is one FP compare plus a select.
            ProgInst::Lt | ProgInst::Gt | ProgInst::Eq => 1,
        }
    }
}

/// The proof `certify` stamps into an admitted program. `fsleds_walk`
/// charges `worst_ns` of virtual CPU per entry it evaluates the program
/// on, so the certificate is simultaneously the safety proof and the
/// price tag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostCert {
    /// Every instruction's cost, summed: the cost of the one path a
    /// straight-line program has. Always `<=` [`MAX_PROG_COST_NS`].
    pub worst_ns: u64,
}

/// How a walk orders the entries it returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProgOrder {
    /// Depth-first name order — the order `find` visits entries.
    #[default]
    FileOrder,
    /// Matched files sorted most-cached first (stable, so ties keep file
    /// order): the paper's "drain the cheap level first" applied across
    /// files instead of within one.
    CachedFirst,
}

/// A verified pick program: the predicate bytecode, its cost certificate,
/// and walk directives.
#[derive(Clone, Debug, PartialEq)]
pub struct PickProgram {
    insts: Vec<ProgInst>,
    cert: CostCert,
    /// Result ordering directive for `fsleds_walk`.
    pub order: ProgOrder,
}

impl PickProgram {
    /// Builds a program, admitting it only if [`PickProgram::certify`]
    /// proves stack safety, single-result arity and a cost within
    /// [`MAX_PROG_COST_NS`]. Fails with `EINVAL` otherwise.
    pub fn new(insts: Vec<ProgInst>) -> SimResult<PickProgram> {
        let cert = Self::certify(&insts)?;
        Ok(PickProgram {
            insts,
            cert,
            order: ProgOrder::FileOrder,
        })
    }

    /// Sets the walk-result ordering directive.
    pub fn with_order(mut self, order: ProgOrder) -> PickProgram {
        self.order = order;
        self
    }

    /// The cost certificate stamped at admission.
    pub fn cert(&self) -> CostCert {
        self.cert
    }

    /// The verifier: one forward pass tracking the stack depth, returning
    /// the cost certificate on success. Rejections, in check order: an
    /// empty or too-long program, then per instruction a NaN constant,
    /// stack underflow and stack overflow, then at exit arity (exactly one
    /// value left) and the cost budget.
    pub fn certify(insts: &[ProgInst]) -> SimResult<CostCert> {
        let bad = |msg: String| SimError::new(Errno::Einval, msg);
        if insts.is_empty() {
            return Err(bad("FSLEDS_PROG: empty program".into()));
        }
        if insts.len() > MAX_PROG_LEN {
            return Err(bad(format!(
                "FSLEDS_PROG: program too long ({} > {MAX_PROG_LEN})",
                insts.len()
            )));
        }
        let mut depth = 0usize;
        let mut worst_ns = 0u64;
        for (pc, inst) in insts.iter().enumerate() {
            if let ProgInst::PushConst(c) = inst {
                if c.is_nan() {
                    return Err(bad(format!("FSLEDS_PROG: NaN constant at {pc}")));
                }
            }
            let Some(rest) = depth.checked_sub(inst.pops()) else {
                return Err(bad(format!("FSLEDS_PROG: stack underflow at {pc}")));
            };
            depth = rest + 1;
            if depth > MAX_PROG_STACK {
                return Err(bad(format!(
                    "FSLEDS_PROG: stack overflow at {pc} (> {MAX_PROG_STACK})"
                )));
            }
            worst_ns += inst.cost_ns();
        }
        if depth != 1 {
            return Err(bad(format!(
                "FSLEDS_PROG: program leaves {depth} values, want 1"
            )));
        }
        if worst_ns > MAX_PROG_COST_NS {
            return Err(bad(format!(
                "FSLEDS_PROG: worst-case cost {worst_ns}ns over budget ({MAX_PROG_COST_NS}ns)"
            )));
        }
        Ok(CostCert { worst_ns })
    }

    /// Instruction count.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the program holds no instructions (never, post-verify).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Evaluates the program over precomputed inputs. Certification
    /// guarantees the stack discipline, so the defensive `0.0` an empty
    /// pop reads is unreachable.
    pub fn eval(&self, inputs: &ProgInputs) -> f64 {
        let mut stack = Stack::default();
        for inst in &self.insts {
            let v = match *inst {
                ProgInst::PushDeliveryTime => inputs.delivery_time,
                ProgInst::PushConst(c) => c,
                ProgInst::Lt => stack.binary(|a, b| bool_to_f64(a < b)),
                ProgInst::Gt => stack.binary(|a, b| bool_to_f64(a > b)),
                #[expect(
                    clippy::float_cmp,
                    reason = "exact IEEE equality is the opcode's documented meaning; `to_bits` would tell -0.0 from 0.0"
                )]
                ProgInst::Eq => stack.binary(|a, b| bool_to_f64(a == b)),
                ProgInst::Div => stack.binary(|a, b| a / b),
                ProgInst::Floor => stack.pop().floor(),
            };
            stack.push(v);
        }
        stack.pop()
    }

    /// True when the program accepts the inputs (nonzero result).
    pub fn matches(&self, inputs: &ProgInputs) -> bool {
        self.eval(inputs) != 0.0
    }
}

/// The evaluation stack: a fixed array, since admission proved the depth
/// never passes [`MAX_PROG_STACK`], so evaluating allocates nothing.
/// Popping an empty stack reads `0.0`.
#[derive(Default)]
struct Stack {
    slots: [f64; MAX_PROG_STACK],
    depth: usize,
}

impl Stack {
    fn push(&mut self, v: f64) {
        if let Some(slot) = self.slots.get_mut(self.depth) {
            *slot = v;
            self.depth += 1;
        }
    }

    fn pop(&mut self) -> f64 {
        let Some(top) = self.depth.checked_sub(1) else {
            return 0.0;
        };
        self.depth = top;
        self.slots[top]
    }

    /// Pops `b`, then `a`, and returns `op(a, b)`.
    fn binary(&mut self, op: impl FnOnce(f64, f64) -> f64) -> f64 {
        let b = self.pop();
        let a = self.pop();
        op(a, b)
    }
}

/// Truthiness encoding shared by every comparison.
fn bool_to_f64(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// What a walk computes from a file's SLED vector: the scalar a program
/// reads, and the key [`ProgOrder::CachedFirst`] sorts by.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProgInputs {
    /// `SLEDS_BEST` total delivery time, seconds.
    pub delivery_time: f64,
    /// Fraction of bytes at the memory level, `[0.0, 1.0]`.
    pub cached_fraction: f64,
}

/// Computes program inputs from a SLED vector. `memory` is the table's
/// memory row, which identifies the memory level.
pub fn prog_inputs(sleds: &[Sled], memory: SledsEntry) -> ProgInputs {
    let total: u64 = sleds.iter().map(|s| s.length).sum();
    let cached: u64 = sleds
        .iter()
        .filter(|s| s.level().same_level(&memory))
        .map(|s| s.length)
        .sum();
    ProgInputs {
        delivery_time: best_estimate(sleds),
        cached_fraction: if total == 0 {
            0.0
        } else {
            cached as f64 / total as f64
        },
    }
}

/// One entry of a program-driven directory walk (`fsleds_walk`): the stat
/// information plus — for regular files the walk could price — the
/// program's verdict and the estimate it saw.
#[derive(Clone, Debug, PartialEq)]
pub struct WalkEntry {
    /// Absolute path.
    pub path: String,
    /// Entry kind.
    pub kind: FileKind,
    /// File size in bytes (0 for directories).
    pub size: u64,
    /// The delivery-time estimate the program evaluated, for files whose
    /// SLEDs could be built.
    pub estimate_secs: Option<f64>,
    /// Program verdict. Directories and errored files never match.
    pub matched: bool,
    /// Why the walk could not price this entry, when it could not. Boxed:
    /// a walk prices nearly every file, so this is almost always `None`,
    /// and the box takes 40 bytes off every entry.
    pub error: Option<Box<SimError>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CapturedOp;
    use crate::sled::SledsTable;
    use crate::syscall::Syscall;

    fn inputs(total: f64) -> ProgInputs {
        ProgInputs {
            delivery_time: total,
            cached_fraction: 0.0,
        }
    }

    #[test]
    fn a_walk_entry_is_eight_words() {
        // `fsleds_walk` returns one per file: 125,000 at `tree_walk`'s scale.
        assert_eq!(std::mem::size_of::<WalkEntry>(), 64);
    }

    #[test]
    fn a_syscall_and_a_captured_op_keep_their_sizes() {
        // Every ring submission is a `Syscall` and every recorded op holds
        // one, so a variant that widens it grows each of them. A ring
        // `FsledsGet` carries its table as one shared handle.
        assert_eq!(std::mem::size_of::<SledsTable>(), 8);
        assert_eq!(std::mem::size_of::<Syscall>(), 40);
        assert_eq!(std::mem::size_of::<CapturedOp>(), 160);
    }

    #[test]
    fn verifier_accepts_simple_comparison() {
        let p = PickProgram::new(vec![
            ProgInst::PushDeliveryTime,
            ProgInst::PushConst(0.5),
            ProgInst::Lt,
        ])
        .unwrap();
        assert!(p.matches(&inputs(0.1)));
        assert!(!p.matches(&inputs(0.9)));
    }

    #[test]
    fn verifier_rejects_underflow_overflow_and_arity() {
        assert!(PickProgram::new(vec![ProgInst::Lt]).is_err());
        assert!(PickProgram::new(vec![]).is_err());
        assert!(
            PickProgram::new(vec![ProgInst::PushConst(1.0), ProgInst::PushConst(2.0)]).is_err(),
            "two leftover values"
        );
        let deep = vec![ProgInst::PushConst(1.0); MAX_PROG_STACK + 1];
        assert!(PickProgram::new(deep).is_err(), "stack overflow");
        let long = vec![ProgInst::PushConst(1.0); MAX_PROG_LEN + 1];
        assert!(PickProgram::new(long).is_err(), "too long");
        assert!(PickProgram::new(vec![ProgInst::PushConst(f64::NAN)]).is_err());
    }

    #[test]
    fn each_rejection_is_einval_with_its_own_text() {
        let push = ProgInst::PushConst(1.0);
        let cases: [(Vec<ProgInst>, &str); 7] = [
            (vec![], "FSLEDS_PROG: empty program"),
            (
                vec![push; MAX_PROG_LEN + 1],
                "FSLEDS_PROG: program too long (65 > 64)",
            ),
            (
                vec![push, ProgInst::PushConst(f64::NAN)],
                "FSLEDS_PROG: NaN constant at 1",
            ),
            (
                vec![push, ProgInst::Div],
                "FSLEDS_PROG: stack underflow at 1",
            ),
            (
                vec![push; MAX_PROG_STACK + 1],
                "FSLEDS_PROG: stack overflow at 8 (> 8)",
            ),
            (
                vec![push, push],
                "FSLEDS_PROG: program leaves 2 values, want 1",
            ),
            (
                [push]
                    .into_iter()
                    .chain([push, ProgInst::Div].repeat(31))
                    .collect(),
                "FSLEDS_PROG: worst-case cost 188ns over budget (120ns)",
            ),
        ];
        for (insts, text) in cases {
            let err = PickProgram::new(insts).unwrap_err();
            assert_eq!(err.errno, Errno::Einval);
            assert!(err.to_string().starts_with(text), "got: {err}");
        }
    }

    #[test]
    fn whole_unit_equality_matches_predicate_semantics() {
        // (est / unit).floor() == n, the `-latency 5` form.
        let p = PickProgram::new(vec![
            ProgInst::PushDeliveryTime,
            ProgInst::PushConst(1.0),
            ProgInst::Div,
            ProgInst::Floor,
            ProgInst::PushConst(5.0),
            ProgInst::Eq,
        ])
        .unwrap();
        assert!(p.matches(&inputs(5.0)));
        assert!(p.matches(&inputs(5.9)));
        assert!(!p.matches(&inputs(6.0)));
        assert!(!p.matches(&inputs(f64::INFINITY)));
        assert_eq!(p.cert().worst_ns, 15, "2 + 2 + 4 + 4 + 2 + 1");
    }

    #[test]
    fn straight_line_cert_prices_every_instruction() {
        let p = PickProgram::new(vec![
            ProgInst::PushDeliveryTime,
            ProgInst::PushConst(0.5),
            ProgInst::Lt,
        ])
        .unwrap();
        assert_eq!(p.cert(), CostCert { worst_ns: 5 });
    }

    #[test]
    fn over_budget_program_is_rejected() {
        // One push, then 31 (push, div) pairs: 63 instructions, stack
        // always balanced, cost 2 + 31*(2+4) = 188ns > budget.
        let mut insts = vec![ProgInst::PushConst(1.0)];
        for _ in 0..31 {
            insts.push(ProgInst::PushConst(2.0));
            insts.push(ProgInst::Div);
        }
        let err = PickProgram::new(insts).unwrap_err();
        assert!(err.to_string().contains("over budget"), "got: {err}");
    }

    #[test]
    fn prog_inputs_mirror_best_estimate_and_cached_fraction() {
        let mem = SledsEntry {
            latency: 175e-9,
            bandwidth: 48e6,
        };
        let sleds = vec![
            Sled {
                offset: 0,
                length: 1_000_000,
                latency: 0.018,
                bandwidth: 1e6,
            },
            Sled {
                offset: 1_000_000,
                length: 1_000_000,
                latency: 175e-9,
                bandwidth: 48e6,
            },
            Sled {
                offset: 2_000_000,
                length: 2_000_000,
                latency: 0.018,
                bandwidth: 1e6,
            },
        ];
        let inp = prog_inputs(&sleds, mem);
        let expect = (0.018 + 3.0) + (175e-9 + 1.0 / 48.0);
        assert!((inp.delivery_time - expect).abs() < 1e-9);
        assert_eq!(
            inp.delivery_time.to_bits(),
            best_estimate(&sleds).to_bits(),
            "the program reads the library's SLEDS_BEST figure"
        );
        assert!((inp.cached_fraction - 0.25).abs() < 1e-12);
        assert_eq!(prog_inputs(&[], mem), ProgInputs::default());
    }

    #[test]
    fn infinite_levels_propagate() {
        let mem = SledsEntry {
            latency: 175e-9,
            bandwidth: 48e6,
        };
        let sleds = vec![Sled {
            offset: 0,
            length: 10,
            latency: f64::INFINITY,
            bandwidth: 0.0,
        }];
        assert!(prog_inputs(&sleds, mem).delivery_time.is_infinite());
    }
}
