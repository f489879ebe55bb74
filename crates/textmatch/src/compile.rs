//! AST to NFA byte-code.
//!
//! Thompson's construction: each AST node compiles to a small instruction
//! sequence; `Split` edges give the VM its nondeterminism. Instruction
//! operands are absolute program counters.

use crate::ast::{Ast, ByteClass};

/// One NFA instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// Consume one byte matching the class, then go to `next`.
    Class(ByteClass, usize),
    /// Try `a` first, then `b` (thread priority order).
    Split(usize, usize),
    /// Unconditional jump.
    Jump(usize),
    /// Zero-width start-of-text assertion.
    AssertStart(usize),
    /// Zero-width end-of-text assertion.
    AssertEnd(usize),
    /// Pattern matched.
    Match,
}

/// A compiled program. Execution starts at pc 0.
#[derive(Clone, Debug)]
pub struct Prog {
    /// Instructions; `Match` terminates a thread.
    pub insts: Vec<Inst>,
}

/// Compiles an AST to a program ending in `Match`.
pub fn compile(ast: &Ast) -> Prog {
    let mut insts = Vec::new();
    emit(ast, &mut insts);
    insts.push(Inst::Match);
    Prog { insts }
}

/// Emits code for `ast`; on fallthrough control reaches `insts.len()`.
fn emit(ast: &Ast, insts: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Class(c) => {
            let next = insts.len() + 1;
            insts.push(Inst::Class(*c, next));
        }
        Ast::AnchorStart => {
            let next = insts.len() + 1;
            insts.push(Inst::AssertStart(next));
        }
        Ast::AnchorEnd => {
            let next = insts.len() + 1;
            insts.push(Inst::AssertEnd(next));
        }
        Ast::Concat(parts) => {
            for p in parts {
                emit(p, insts);
            }
        }
        Ast::Alternate(branches) => {
            // split b1, split b2, ... bn; each branch jumps to the end.
            let mut jump_fixups = Vec::new();
            let n = branches.len();
            for (i, b) in branches.iter().enumerate() {
                if i + 1 < n {
                    let split_at = insts.len();
                    insts.push(Inst::Split(0, 0)); // patched below
                    let branch_start = insts.len();
                    emit(b, insts);
                    jump_fixups.push(insts.len());
                    insts.push(Inst::Jump(0)); // patched at the very end
                    let after = insts.len();
                    insts[split_at] = Inst::Split(branch_start, after);
                } else {
                    emit(b, insts);
                }
            }
            let end = insts.len();
            for at in jump_fixups {
                insts[at] = Inst::Jump(end);
            }
        }
        Ast::Repeat {
            node,
            min,
            unbounded,
        } => match (min, unbounded) {
            (0, true) => {
                // a*: L: split body, out; body; jump L
                let l = insts.len();
                insts.push(Inst::Split(0, 0));
                let body = insts.len();
                emit(node, insts);
                insts.push(Inst::Jump(l));
                let out = insts.len();
                insts[l] = Inst::Split(body, out);
            }
            (1, true) => {
                // a+: body; split body, out
                let body = insts.len();
                emit(node, insts);
                let split_at = insts.len();
                insts.push(Inst::Split(0, 0));
                let out = insts.len();
                insts[split_at] = Inst::Split(body, out);
            }
            (_, false) => {
                // a?: split body, out; body
                let split_at = insts.len();
                insts.push(Inst::Split(0, 0));
                let body = insts.len();
                emit(node, insts);
                let out = insts.len();
                insts[split_at] = Inst::Split(body, out);
            }
            (_, true) => unreachable!("parser only produces min 0 or 1"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;

    fn prog(pat: &str) -> Prog {
        compile(&parse(pat).unwrap())
    }

    #[test]
    fn single_char_program() {
        let p = prog("a");
        assert_eq!(p.insts.len(), 2);
        assert!(matches!(p.insts[0], Inst::Class(_, 1)));
        assert_eq!(p.insts[1], Inst::Match);
    }

    #[test]
    fn star_builds_loop() {
        let p = prog("a*");
        // split, class, jump, match
        assert_eq!(p.insts.len(), 4);
        assert_eq!(p.insts[0], Inst::Split(1, 3));
        assert!(matches!(p.insts[1], Inst::Class(_, 2)));
        assert_eq!(p.insts[2], Inst::Jump(0));
    }

    #[test]
    fn plus_falls_through_then_splits_back() {
        let p = prog("a+");
        assert!(matches!(p.insts[0], Inst::Class(_, 1)));
        assert_eq!(p.insts[1], Inst::Split(0, 2));
        assert_eq!(p.insts[2], Inst::Match);
    }

    #[test]
    fn alternation_targets_are_in_bounds() {
        let p = prog("abc|de*f|[xyz]");
        for (i, inst) in p.insts.iter().enumerate() {
            let targets: Vec<usize> = match inst {
                Inst::Class(_, n) | Inst::Jump(n) | Inst::AssertStart(n) | Inst::AssertEnd(n) => {
                    vec![*n]
                }
                Inst::Split(a, b) => vec![*a, *b],
                Inst::Match => vec![],
            };
            for t in targets {
                assert!(t < p.insts.len(), "inst {i} jumps out of bounds to {t}");
            }
        }
    }

    #[test]
    fn every_program_ends_in_match() {
        for pat in ["", "a", "a|b|c", "(ab)*c+", "^x$"] {
            let p = prog(pat);
            assert_eq!(*p.insts.last().unwrap(), Inst::Match);
        }
    }
}
