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
//! the same posture BPF takes. [`PickProgram::certify`], the abstract
//! interpreter that `new` runs, walks the bytecode's control-flow graph,
//! tracking an interval of possible stack depths at every reachable pc,
//! and proves: **termination** (every jump must land strictly forward, so
//! the CFG is a DAG and the pc strictly increases at each step), **stack
//! safety** (no underflow on any path, depth never past
//! [`MAX_PROG_STACK`]), **arity** (every path reaches the exit with
//! exactly one value), **liveness** (no unreachable instruction — dead
//! bytecode in a pick predicate is a bug), and a **worst-case cost
//! bound**: the longest root-to-exit path weighted by per-instruction
//! nanosecond costs, which must not exceed [`MAX_PROG_COST_NS`].
//!
//! The proof is stamped into the program as a [`CostCert`]. `fsleds_walk`
//! charges virtual CPU *from the certificate* — the admission-time
//! worst-case bound — rather than metering the path actually taken. That
//! keeps the charge a pure function of the program:
//! evaluation cost cannot depend on file contents, so accounting stays
//! deterministic and a hostile program cannot make its own billing cheap.
//!
//! Floating-point parity matters more than expressiveness: the equivalence
//! proofs require the kernel's verdict to match the user-space predicate
//! bit for bit, so the instruction set includes `Div`/`Floor`/`Eq` purely
//! to express `find -latency n`'s whole-unit comparison with the exact
//! operation order `LatencyPredicate::matches` uses. The jumps add
//! short-circuit evaluation (skip the expensive half of an `or` when the
//! cheap half already decided) without giving up any of the proofs above.

use sleds_sim_core::{Errno, SimError, SimResult};

use crate::inode::FileKind;
use crate::sled::{best_estimate, Sled, SledsEntry};

/// Maximum instructions a program may hold. Small on purpose: a pick
/// predicate is a comparison or two, and the bound keeps in-kernel
/// evaluation O(1) per file.
pub const MAX_PROG_LEN: usize = 64;

/// Maximum operand-stack depth the verifier admits.
pub const MAX_PROG_STACK: usize = 8;

/// Worst-case interpreted nanoseconds a program may cost per evaluation.
/// Budget, not estimate: certification rejects any program whose longest
/// weighted path exceeds it, so one walk entry can never cost more than
/// this much program CPU no matter what bytecode user space ships.
pub const MAX_PROG_COST_NS: u64 = 120;

/// One bytecode instruction. Comparisons push `1.0` for true and `0.0`
/// for false; the program's final value is truthy when nonzero.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProgInst {
    /// Push the file's first-byte latency (seconds): the latency of its
    /// first SLED, `0.0` for an empty file.
    PushFirstLatency,
    /// Push the file's total delivery time (seconds) under the best
    /// attack plan — each storage level pays its latency once and streams
    /// its bytes: `sleds_total_delivery_time(SLEDS_BEST)`.
    PushDeliveryTime,
    /// Push the fraction of the file's bytes currently at the memory
    /// level, in `[0.0, 1.0]` (`0.0` for an empty file).
    PushCachedFraction,
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
    /// Pop `b`, pop `a`, push `a ≠ 0 ∧ b ≠ 0`.
    And,
    /// Pop `b`, pop `a`, push `a ≠ 0 ∨ b ≠ 0`.
    Or,
    /// Pop `a`, push `a == 0`.
    Not,
    /// Relative jump: continue at `pc + 1 + offset`. Certification
    /// requires the target to be strictly forward and at most one past
    /// the last instruction (= program exit).
    Jmp(i32),
    /// Pop `a`; jump like [`ProgInst::Jmp`] when `a == 0.0`, else fall
    /// through. The conditional consumes the flag it tests.
    Jz(i32),
}

impl ProgInst {
    /// (pops, pushes) stack effect, for both verifiers.
    fn stack_effect(&self) -> (usize, usize) {
        match self {
            ProgInst::PushFirstLatency
            | ProgInst::PushDeliveryTime
            | ProgInst::PushCachedFraction
            | ProgInst::PushConst(_) => (0, 1),
            ProgInst::Lt
            | ProgInst::Gt
            | ProgInst::Eq
            | ProgInst::Div
            | ProgInst::And
            | ProgInst::Or => (2, 1),
            ProgInst::Floor | ProgInst::Not => (1, 1),
            ProgInst::Jmp(_) => (0, 0),
            ProgInst::Jz(_) => (1, 0),
        }
    }

    /// Interpreted cost of one execution of this instruction, in
    /// worst-case nanoseconds of in-kernel dispatch. The table is part of
    /// the kernel's cost model: certification sums it along the longest
    /// path, and the walk charges that bound per priced entry.
    fn cost_ns(&self) -> u64 {
        match self {
            // Input pushes read a precomputed scalar out of ProgInputs.
            ProgInst::PushFirstLatency
            | ProgInst::PushDeliveryTime
            | ProgInst::PushCachedFraction
            | ProgInst::PushConst(_) => 2,
            // Division and floor are the slow FP ops.
            ProgInst::Div | ProgInst::Floor => 4,
            // Compare/logic are one FP compare plus a select.
            ProgInst::Lt
            | ProgInst::Gt
            | ProgInst::Eq
            | ProgInst::And
            | ProgInst::Or
            | ProgInst::Not => 1,
            ProgInst::Jmp(_) => 1,
            // Jz pays the compare and the branch.
            ProgInst::Jz(_) => 2,
        }
    }
}

/// The proof `certify` stamps into an admitted program: worst-case bounds
/// over *every* path the bytecode can take. `fsleds_walk` charges
/// `worst_ns` of virtual CPU per entry it evaluates the program on, so
/// the certificate is simultaneously the safety proof and the price tag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostCert {
    /// Longest root-to-exit path, in instructions executed.
    pub worst_insts: u32,
    /// Longest root-to-exit path, weighted by per-instruction cost.
    /// Always `<=` [`MAX_PROG_COST_NS`].
    pub worst_ns: u64,
    /// Deepest operand stack any path reaches. Always `<=`
    /// [`MAX_PROG_STACK`].
    pub max_stack: u32,
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
    /// proves termination, stack safety, single-result arity, liveness,
    /// and a worst-case cost within [`MAX_PROG_COST_NS`]. Fails with
    /// `EINVAL` otherwise.
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

    /// The abstract interpreter: walks the bytecode's CFG tracking an
    /// interval `[min, max]` of possible stack depths at every pc, and
    /// returns the cost certificate on success.
    ///
    /// Because every admitted jump lands strictly forward, pcs in
    /// increasing order are already a topological order of the CFG: one
    /// pass suffices for the depth intervals (all predecessors of a pc
    /// have smaller pcs), and one reverse pass computes the longest
    /// weighted path to the exit. Rejections, in check order per pc:
    /// NaN constants, unreachable instructions, backward or out-of-range
    /// jump targets, stack underflow (on *any* path, i.e. against the
    /// interval minimum), stack overflow (against the maximum), then at
    /// exit: arity (every path must leave exactly one value) and the
    /// cost budget.
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
        let len = insts.len();
        // states[pc] = interval of stack depths on entry to pc; states[len]
        // is the exit. None = not reached by any edge.
        let mut states: Vec<Option<(usize, usize)>> = vec![None; len + 1];
        states[0] = Some((0, 0));
        let mut max_stack = 0usize;
        // Forward targets of each pc, for the cost pass.
        let mut succs: Vec<[Option<usize>; 2]> = vec![[None, None]; len];

        for (pc, inst) in insts.iter().enumerate() {
            let Some((min, max)) = states[pc] else {
                return Err(bad(format!("FSLEDS_PROG: unreachable instruction at {pc}")));
            };
            if let ProgInst::PushConst(c) = inst {
                if c.is_nan() {
                    return Err(bad(format!("FSLEDS_PROG: NaN constant at {pc}")));
                }
            }
            let (pops, pushes) = inst.stack_effect();
            if min < pops {
                return Err(bad(format!("FSLEDS_PROG: stack underflow at {pc}")));
            }
            let after = (min - pops + pushes, max - pops + pushes);
            if after.1 > MAX_PROG_STACK {
                return Err(bad(format!(
                    "FSLEDS_PROG: stack overflow at {pc} (> {MAX_PROG_STACK})"
                )));
            }
            max_stack = max_stack.max(after.1);
            let mut edge = |target: usize, slot: usize| {
                states[target] = Some(match states[target] {
                    None => after,
                    Some((lo, hi)) => (lo.min(after.0), hi.max(after.1)),
                });
                succs[pc][slot] = Some(target);
            };
            match inst {
                ProgInst::Jmp(off) => edge(jump_target(pc, *off, len)?, 0),
                ProgInst::Jz(off) => {
                    edge(pc + 1, 0);
                    edge(jump_target(pc, *off, len)?, 1);
                }
                _ => edge(pc + 1, 0),
            }
        }

        match states[len] {
            Some((1, 1)) => {}
            Some((lo, hi)) if lo == hi => {
                return Err(bad(format!(
                    "FSLEDS_PROG: program leaves {lo} values, want 1"
                )));
            }
            Some((lo, hi)) => {
                return Err(bad(format!(
                    "FSLEDS_PROG: exit stack depth depends on the path taken \
                     ({lo}..{hi} values), want exactly 1"
                )));
            }
            // Unreachable exit requires a cycle, which forward-only jumps
            // already exclude; kept for defense in depth.
            None => return Err(bad("FSLEDS_PROG: exit is unreachable".into())),
        }

        // Longest path to exit, in instructions and in weighted cost.
        // Reverse pc order is reverse-topological for a forward-only CFG.
        let mut worst_insts = vec![0u32; len + 1];
        let mut worst_ns = vec![0u64; len + 1];
        for pc in (0..len).rev() {
            let follow = |t: &Option<usize>| t.map(|t| (worst_insts[t], worst_ns[t]));
            let (si, sn) = succs[pc]
                .iter()
                .filter_map(follow)
                .fold((0, 0), |(ai, an), (bi, bn)| (ai.max(bi), an.max(bn)));
            worst_insts[pc] = 1 + si;
            worst_ns[pc] = insts[pc].cost_ns() + sn;
        }
        if worst_ns[0] > MAX_PROG_COST_NS {
            return Err(bad(format!(
                "FSLEDS_PROG: worst-case cost {}ns over budget ({MAX_PROG_COST_NS}ns)",
                worst_ns[0]
            )));
        }
        Ok(CostCert {
            worst_insts: worst_insts[0],
            worst_ns: worst_ns[0],
            // Lossless: max_stack ≤ MAX_PROG_STACK, enforced above.
            max_stack: u32::try_from(max_stack).unwrap_or(u32::MAX),
        })
    }

    /// Instruction count (static size, not the certified path length).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the program holds no instructions (never, post-verify).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Evaluates the program over precomputed inputs. Certification
    /// guarantees the stack discipline and that every jump lands strictly
    /// forward, so the pc advances every step and the loop runs at most
    /// `len` iterations; the defensive `0.0` defaults are unreachable.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`jump_target` proved at admission that every jump lands in pc + 1..=len"
    )]
    pub fn eval(&self, inputs: &ProgInputs) -> f64 {
        let mut stack = Stack::default();
        let mut pc = 0usize;
        while pc < self.insts.len() {
            let inst = &self.insts[pc];
            match inst {
                ProgInst::PushFirstLatency => stack.push(inputs.first_latency),
                ProgInst::PushDeliveryTime => stack.push(inputs.delivery_time),
                ProgInst::PushCachedFraction => stack.push(inputs.cached_fraction),
                ProgInst::PushConst(c) => stack.push(*c),
                ProgInst::Jmp(off) => {
                    pc = (pc as i64 + 1 + *off as i64) as usize;
                    continue;
                }
                ProgInst::Jz(off) => {
                    let a = stack.pop();
                    pc = if a == 0.0 {
                        (pc as i64 + 1 + *off as i64) as usize
                    } else {
                        pc + 1
                    };
                    continue;
                }
                ProgInst::Lt
                | ProgInst::Gt
                | ProgInst::Eq
                | ProgInst::Div
                | ProgInst::And
                | ProgInst::Or => {
                    let b = stack.pop();
                    let a = stack.pop();
                    stack.push(match inst {
                        ProgInst::Lt => bool_to_f64(a < b),
                        ProgInst::Gt => bool_to_f64(a > b),
                        #[expect(
                            clippy::float_cmp,
                            reason = "exact IEEE equality is the opcode's documented meaning; `to_bits` would tell -0.0 from 0.0"
                        )]
                        ProgInst::Eq => bool_to_f64(a == b),
                        ProgInst::Div => a / b,
                        ProgInst::And => bool_to_f64(a != 0.0 && b != 0.0),
                        _ => bool_to_f64(a != 0.0 || b != 0.0),
                    });
                }
                ProgInst::Floor | ProgInst::Not => {
                    let a = stack.pop();
                    stack.push(match inst {
                        ProgInst::Floor => a.floor(),
                        _ => bool_to_f64(a == 0.0),
                    });
                }
            }
            pc += 1;
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
}

/// Resolves a relative jump at `pc` and enforces the termination rule:
/// the target must land strictly past `pc` (forward-only, so the CFG is a
/// DAG) and at most `len` (one past the last instruction = exit).
#[expect(
    clippy::cast_possible_truncation,
    reason = "the target returned lies in pc + 1..=len, and both ends are usize"
)]
fn jump_target(pc: usize, off: i32, len: usize) -> SimResult<usize> {
    let target = pc as i64 + 1 + off as i64;
    if target <= pc as i64 {
        return Err(SimError::new(
            Errno::Einval,
            format!(
                "FSLEDS_PROG: backward jump at {pc} (target {target}); \
                 termination is unprovable, loops are not admitted"
            ),
        ));
    }
    if target > len as i64 {
        return Err(SimError::new(
            Errno::Einval,
            format!("FSLEDS_PROG: jump target {target} out of range at {pc}"),
        ));
    }
    Ok(target as usize)
}

/// Truthiness encoding shared by every comparison and logic instruction.
fn bool_to_f64(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// The three scalars a program can read, precomputed from a SLED vector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProgInputs {
    /// Latency of the first SLED (`0.0` for an empty file).
    pub first_latency: f64,
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
        first_latency: sleds.first().map(|s| s.latency).unwrap_or(0.0),
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

    fn inputs(first: f64, total: f64, cached: f64) -> ProgInputs {
        ProgInputs {
            first_latency: first,
            delivery_time: total,
            cached_fraction: cached,
        }
    }

    #[test]
    fn a_walk_entry_is_eight_words() {
        // `fsleds_walk` returns one per file: 125,000 at `tree_walk`'s scale.
        assert_eq!(std::mem::size_of::<WalkEntry>(), 64);
    }

    #[test]
    fn verifier_accepts_simple_comparison() {
        let p = PickProgram::new(vec![
            ProgInst::PushDeliveryTime,
            ProgInst::PushConst(0.5),
            ProgInst::Lt,
        ])
        .unwrap();
        assert!(p.matches(&inputs(0.0, 0.1, 0.0)));
        assert!(!p.matches(&inputs(0.0, 0.9, 0.0)));
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
        assert!(p.matches(&inputs(0.0, 5.0, 0.0)));
        assert!(p.matches(&inputs(0.0, 5.9, 0.0)));
        assert!(!p.matches(&inputs(0.0, 6.0, 0.0)));
        assert!(!p.matches(&inputs(0.0, f64::INFINITY, 0.0)));
    }

    #[test]
    fn logic_ops_compose() {
        // cached_fraction > 0.5 AND NOT (delivery > 1.0)
        let p = PickProgram::new(vec![
            ProgInst::PushCachedFraction,
            ProgInst::PushConst(0.5),
            ProgInst::Gt,
            ProgInst::PushDeliveryTime,
            ProgInst::PushConst(1.0),
            ProgInst::Gt,
            ProgInst::Not,
            ProgInst::And,
        ])
        .unwrap();
        assert!(p.matches(&inputs(0.0, 0.2, 0.9)));
        assert!(!p.matches(&inputs(0.0, 2.0, 0.9)));
        assert!(!p.matches(&inputs(0.0, 0.2, 0.1)));
    }

    /// Short-circuit `or` via Jz: `cached > 0.5 || delivery < 0.1`,
    /// skipping the delivery comparison when the cached half decides.
    fn short_circuit_or() -> Vec<ProgInst> {
        vec![
            ProgInst::PushCachedFraction, // 0
            ProgInst::PushConst(0.5),     // 1
            ProgInst::Gt,                 // 2
            ProgInst::Jz(2),              // 3: false -> 6, true -> 4
            ProgInst::PushConst(1.0),     // 4
            ProgInst::Jmp(3),             // 5: -> 9 (exit)
            ProgInst::PushDeliveryTime,   // 6
            ProgInst::PushConst(0.1),     // 7
            ProgInst::Lt,                 // 8
        ]
    }

    #[test]
    fn forward_jumps_evaluate_and_certify() {
        let p = PickProgram::new(short_circuit_or()).unwrap();
        assert!(p.matches(&inputs(0.0, 5.0, 0.9)), "left arm decides");
        assert!(p.matches(&inputs(0.0, 0.05, 0.1)), "right arm decides");
        assert!(!p.matches(&inputs(0.0, 5.0, 0.1)), "both false");
        // Worst path: 0,1,2,3 fall through Jz, 6,7,8 = 7 insts;
        // cost 2+2+1+2 + 2+2+1 = 12ns. The taken-jump path is shorter
        // (0..5 = 6 insts, 11ns); the certificate must price the longest.
        let cert = p.cert();
        assert_eq!(cert.worst_insts, 7);
        assert_eq!(cert.worst_ns, 12);
        assert_eq!(cert.max_stack, 2);
    }

    #[test]
    fn straight_line_cert_prices_every_instruction() {
        let p = PickProgram::new(vec![
            ProgInst::PushDeliveryTime,
            ProgInst::PushConst(0.5),
            ProgInst::Lt,
        ])
        .unwrap();
        assert_eq!(
            p.cert(),
            CostCert {
                worst_insts: 3,
                worst_ns: 5,
                max_stack: 2,
            }
        );
    }

    #[test]
    fn backward_jump_is_rejected() {
        // Push then jump back over the push: spins forever while a
        // straight-line stack walk stays perfectly balanced.
        let spin = vec![ProgInst::PushConst(1.0), ProgInst::Jmp(-2)];
        let err = PickProgram::new(spin).unwrap_err();
        assert_eq!(err.errno, Errno::Einval);
        assert!(err.to_string().contains("backward jump"), "got: {err}");
    }

    #[test]
    fn over_budget_program_is_rejected() {
        // One push, then 31 (push, div) pairs: 63 instructions, stack
        // always balanced, worst path 2 + 31*(2+4) = 188ns > budget.
        let mut insts = vec![ProgInst::PushConst(1.0)];
        for _ in 0..31 {
            insts.push(ProgInst::PushConst(2.0));
            insts.push(ProgInst::Div);
        }
        let err = PickProgram::new(insts).unwrap_err();
        assert!(err.to_string().contains("over budget"), "got: {err}");
    }

    #[test]
    fn unreachable_instruction_is_rejected() {
        let dead = vec![
            ProgInst::PushConst(1.0),
            ProgInst::Jmp(1),
            ProgInst::PushConst(2.0), // skipped by every path
        ];
        let err = PickProgram::new(dead).unwrap_err();
        assert!(err.to_string().contains("unreachable"), "got: {err}");
    }

    #[test]
    fn path_dependent_exit_depth_is_rejected() {
        // One path exits with 0 values, the other with 1.
        let prog = vec![
            ProgInst::PushConst(1.0),
            ProgInst::Jz(1), // pops; zero -> exit with 0, else fall
            ProgInst::PushConst(1.0),
        ];
        let err = PickProgram::new(prog).unwrap_err();
        assert!(
            err.to_string().contains("depends on the path"),
            "got: {err}"
        );
    }

    #[test]
    fn jump_targets_must_stay_in_range() {
        let far = vec![ProgInst::Jmp(5), ProgInst::PushConst(1.0)];
        let err = PickProgram::new(far).unwrap_err();
        assert!(err.to_string().contains("out of range"), "got: {err}");
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
        assert_eq!(inp.first_latency, 0.018);
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
