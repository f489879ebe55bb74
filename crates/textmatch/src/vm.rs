//! The Pike VM: NFA execution in lockstep over the text.
//!
//! Threads carry their match start position and live in priority order
//! (earlier starts, and earlier alternatives, first). When a thread reaches
//! `Match`, every lower-priority thread is cut — so alternation prefers its
//! left branch and greedy loops keep extending — while higher-priority
//! threads may still produce a better match later. Runtime is
//! `O(instructions × text)`.

use crate::compile::{Inst, Prog};

/// A scheduled thread: program counter plus match start.
#[derive(Clone, Copy, Debug)]
struct Thread {
    pc: usize,
    start: usize,
}

/// Thread list with O(1) pc dedup via generation marks.
#[derive(Clone, Debug, Default)]
struct ThreadList {
    threads: Vec<Thread>,
    seen_gen: Vec<u64>,
    gen: u64,
}

impl ThreadList {
    /// Empties the list for a program of `prog_len` instructions. Bumping
    /// the generation invalidates every mark at once; a zeroed mark means
    /// "never seen" because generations start at 1.
    fn reset(&mut self, prog_len: usize) {
        self.threads.clear();
        self.seen_gen.resize(prog_len, 0);
        self.gen += 1;
    }

    /// Adds `pc` (following epsilon edges) unless already present this
    /// generation. First add wins, preserving priority. The closure walks
    /// an explicit stack, so a long chain of epsilon edges costs heap, not
    /// call depth.
    fn add(
        &mut self,
        prog: &Prog,
        stack: &mut Vec<usize>,
        pc: usize,
        start: usize,
        pos: usize,
        len: usize,
    ) {
        stack.push(pc);
        while let Some(pc) = stack.pop() {
            if self.seen_gen[pc] == self.gen {
                continue;
            }
            self.seen_gen[pc] = self.gen;
            match &prog.insts[pc] {
                Inst::Jump(next) => stack.push(*next),
                // Popped last-in first-out: `a` and everything it reaches
                // is added before `b`.
                Inst::Split(a, b) => stack.extend([*b, *a]),
                Inst::AssertStart(next) => {
                    if pos == 0 {
                        stack.push(*next);
                    }
                }
                Inst::AssertEnd(next) => {
                    if pos == len {
                        stack.push(*next);
                    }
                }
                Inst::Class(..) | Inst::Match => self.threads.push(Thread { pc, start }),
            }
        }
    }
}

/// The VM's working memory. A search leaves nothing behind that the next
/// one reads, so one `Scratch` serves any number of searches (of any
/// program) and after the first few allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    clist: ThreadList,
    nlist: ThreadList,
    stack: Vec<usize>,
}

/// Searches `hay` for the leftmost match; returns `(start, end)` offsets.
pub fn search(prog: &Prog, hay: &[u8], scratch: &mut Scratch) -> Option<(usize, usize)> {
    let len = hay.len();
    let Scratch {
        clist,
        nlist,
        stack,
    } = scratch;
    clist.reset(prog.insts.len());
    nlist.reset(prog.insts.len());
    let mut matched: Option<(usize, usize)> = None;

    for pos in 0..=len {
        // New start threads have the lowest priority; stop seeding once a
        // match exists (leftmost preference).
        if matched.is_none() {
            clist.add(prog, stack, 0, pos, pos, len);
        }
        if clist.threads.is_empty() {
            if matched.is_some() {
                break;
            }
            continue;
        }
        nlist.reset(prog.insts.len());
        let byte = hay.get(pos).copied();
        for th in &clist.threads {
            match &prog.insts[th.pc] {
                Inst::Class(class, next) => {
                    if byte.is_some_and(|b| class.matches(b)) {
                        nlist.add(prog, stack, *next, th.start, pos + 1, len);
                    }
                }
                Inst::Match => {
                    // This thread outranks every later one: record and cut.
                    matched = Some((th.start, pos));
                    break;
                }
                // Epsilon instructions never appear in a thread list.
                _ => unreachable!("epsilon inst scheduled"),
            }
        }
        std::mem::swap(clist, nlist);
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::compile::compile;

    fn search_str(pat: &str, hay: &str) -> Option<(usize, usize)> {
        search(
            &compile(&parse(pat).unwrap()),
            hay.as_bytes(),
            &mut Scratch::default(),
        )
    }

    #[test]
    fn basic_spans() {
        assert_eq!(search_str("b", "abc"), Some((1, 2)));
        assert_eq!(search_str("bc", "abc"), Some((1, 3)));
        assert_eq!(search_str("z", "abc"), None);
    }

    #[test]
    fn greedy_extends() {
        assert_eq!(search_str("a+", "baaac"), Some((1, 4)));
        assert_eq!(search_str("a*", "baaac"), Some((0, 0)));
    }

    #[test]
    fn leftmost_beats_longer_later() {
        assert_eq!(search_str("ab|bcd", "xabcd"), Some((1, 3)));
    }

    #[test]
    fn anchors_at_vm_level() {
        assert_eq!(search_str("^ab", "ab"), Some((0, 2)));
        assert_eq!(search_str("^b", "ab"), None);
        assert_eq!(search_str("b$", "ab"), Some((1, 2)));
        assert_eq!(search_str("a$", "ab"), None);
        assert_eq!(search_str("^$", ""), Some((0, 0)));
    }

    #[test]
    fn empty_match_at_every_position() {
        assert_eq!(search_str("x*", "yyy"), Some((0, 0)));
    }

    #[test]
    fn thread_dedup_keeps_priority() {
        // Both branches reach the same state; the left one must win.
        assert_eq!(search_str("(a|a)b", "ab"), Some((0, 2)));
    }
}
