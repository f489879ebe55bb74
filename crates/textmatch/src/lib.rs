//! A small byte-oriented regular expression engine.
//!
//! The simulated `grep` needs a matcher; this crate provides one built the
//! classical way — a recursive-descent parser to an AST ([`ast`]), a
//! compiler to NFA byte-code ([`compile`](mod@compile)), and a Pike-VM executor
//! ([`vm`]) that runs in `O(pattern × text)` with no backtracking blowup.
//!
//! Most of the text a search reads cannot match, and saying so should not
//! cost a VM step per byte. At compile time the pattern's *required
//! literal* is read off the AST — bytes every match must contain — and
//! searches look for it with the block-at-a-time scanners in [`memscan`]
//! first. The VM only ever verifies a candidate, and when the pattern is
//! nothing but the literal there is nothing left to verify.
//! [`Regex::next_matching_line`] applies this a whole buffer at a time.
//!
//! Supported syntax: literals, `.`, classes `[a-z0-9]` / `[^...]`, escapes
//! (`\d \D \w \W \s \S \n \r \t \\` and escaped metacharacters), anchors
//! `^` / `$`, repetition `* + ?`, alternation `|`, and grouping `(...)`.
//! Matching is leftmost: [`Regex::find`] returns the match that starts
//! earliest (preferring the longest among those), like grep.

pub mod ast;
pub mod compile;
pub mod memscan;
pub mod vm;

use std::cell::RefCell;

use ast::{parse, Ast};
use compile::{compile, Prog};
use memscan::{memchr, memmem, memrchr};

/// A compile error, with the byte position in the pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegexError {
    /// Byte offset in the pattern where parsing failed.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for RegexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regex error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for RegexError {}

/// Bytes every match of a pattern contains, adjacent and in order.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Required {
    /// Never empty, never contains `\n` (so an occurrence lies in one line).
    bytes: Vec<u8>,
    /// The pattern is exactly `bytes`: an occurrence *is* the match.
    whole: bool,
}

impl Required {
    /// The longest run of single-byte atoms in the pattern's top-level
    /// concatenation (groups are transparent), or `None` when there is no
    /// such run or it would contain a newline. Anything else — a class, a
    /// repeat, an alternation, an anchor — ends a run: what it matches is
    /// not known here.
    fn of(ast: &Ast) -> Option<Required> {
        fn walk(ast: &Ast, run: &mut Vec<u8>, best: &mut Vec<u8>, whole: &mut bool) {
            match ast {
                Ast::Empty => {}
                Ast::Concat(parts) => parts.iter().for_each(|p| walk(p, run, best, whole)),
                Ast::Class(c) if c.as_single().is_some() => run.extend(c.as_single()),
                _ => {
                    *whole = false;
                    if run.len() > best.len() {
                        std::mem::swap(run, best);
                    }
                    run.clear();
                }
            }
        }
        let (mut run, mut best, mut whole) = (Vec::new(), Vec::new(), true);
        walk(ast, &mut run, &mut best, &mut whole);
        let bytes = if run.len() > best.len() { run } else { best };
        (!bytes.is_empty() && !bytes.contains(&b'\n')).then_some(Required { bytes, whole })
    }
}

/// A compiled regular expression.
#[derive(Clone, Debug)]
pub struct Regex {
    prog: Prog,
    pattern: String,
    required: Option<Required>,
    /// The VM's thread lists, kept so that a search allocates nothing.
    scratch: RefCell<vm::Scratch>,
}

impl Regex {
    /// Compiles a pattern.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let ast = parse(pattern)?;
        Ok(Regex {
            prog: compile(&ast),
            pattern: pattern.to_string(),
            required: Required::of(&ast),
            scratch: RefCell::default(),
        })
    }

    /// Compiles a fixed string (every byte literal), like `grep -F`.
    pub fn literal(text: &str) -> Regex {
        let mut escaped = String::with_capacity(text.len() * 2);
        for c in text.chars() {
            if "\\.^$*+?()[]|".contains(c) {
                escaped.push('\\');
            }
            escaped.push(c);
        }
        Regex::new(&escaped).expect("escaped literal always parses")
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of compiled instructions — a proxy for per-byte match cost,
    /// used by the simulator's CPU accounting.
    pub fn instruction_count(&self) -> usize {
        self.prog.insts.len()
    }

    /// Does the pattern match anywhere in `hay`?
    pub fn is_match(&self, hay: &[u8]) -> bool {
        self.find(hay).is_some()
    }

    /// Finds the leftmost match, returning `(start, end)` byte offsets.
    pub fn find(&self, hay: &[u8]) -> Option<(usize, usize)> {
        if let Some(req) = &self.required {
            let at = memmem(hay, &req.bytes)?;
            if req.whole {
                return Some((at, at + req.bytes.len()));
            }
        }
        vm::search(&self.prog, hay, &mut self.scratch.borrow_mut())
    }

    /// The first line of `hay` starting at or after `from` that matches,
    /// as `(start, end)` with `hay[end] == b'\n'`.
    ///
    /// `from` must be the start of a line. Only `\n`-terminated lines
    /// count — bytes after the last newline are not a line yet — and each
    /// is matched on its own, exactly as `is_match(&hay[start..end])`
    /// would: `^` and `$` anchor at its ends and nothing matches across a
    /// newline. Lines without the required literal are never looked at.
    pub fn next_matching_line(&self, hay: &[u8], from: usize) -> Option<(usize, usize)> {
        let end = memrchr(b'\n', hay)? + 1;
        let whole = self.required.as_ref().is_some_and(|req| req.whole);
        let mut scratch = self.scratch.borrow_mut();
        let mut at = from;
        while at < end {
            // A place the match would have to touch: the next occurrence
            // of the required literal, or failing that the next line.
            let hit = match &self.required {
                Some(req) => at + memmem(&hay[at..end], &req.bytes)?,
                None => at,
            };
            let start = memrchr(b'\n', &hay[at..hit]).map_or(at, |nl| at + nl + 1);
            let stop = hit + memchr(b'\n', &hay[hit..end]).expect("hay[..end] ends in a newline");
            if whole || vm::search(&self.prog, &hay[start..stop], &mut scratch).is_some() {
                return Some((start, stop));
            }
            at = stop + 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, hay: &str) -> bool {
        Regex::new(pat).unwrap().is_match(hay.as_bytes())
    }

    fn f(pat: &str, hay: &str) -> Option<(usize, usize)> {
        Regex::new(pat).unwrap().find(hay.as_bytes())
    }

    #[test]
    fn literals() {
        assert!(m("abc", "xxabcxx"));
        assert!(!m("abc", "ab"));
        assert!(m("", "anything"));
    }

    #[test]
    fn dot_and_classes() {
        assert!(m("a.c", "abc"));
        assert!(m("a.c", "a:c"));
        assert!(!m("a.c", "ac"));
        assert!(m("[a-c]x", "bx"));
        assert!(!m("[a-c]x", "dx"));
        assert!(m("[^a-c]x", "dx"));
        assert!(!m("[^a-c]x", "ax"));
        assert!(m("[abc-]", "-"));
        assert!(m("[]]", "]"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"\d+", "x42y"));
        assert!(!m(r"\d", "abc"));
        assert!(m(r"\w+", "hello_9"));
        assert!(m(r"\s", "a b"));
        assert!(m(r"\.", "a.b"));
        assert!(!m(r"\.", "ab"));
        assert!(m(r"a\\b", r"a\b"));
        assert!(m(r"\S\S", "ab"));
        assert!(m(r"\D", "x"));
        assert!(!m(r"\D", "5"));
        assert!(!m(r"\W", "a9_"));
    }

    #[test]
    fn anchors() {
        assert!(m("^abc", "abcdef"));
        assert!(!m("^abc", "xabc"));
        assert!(m("def$", "abcdef"));
        assert!(!m("def$", "defabc"));
        assert!(m("^$", ""));
        assert!(!m("^$", "x"));
        assert!(m("^abc$", "abc"));
    }

    #[test]
    fn repetition() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(m("ab+c", "abc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
        assert!(m("a[0-9]*z", "a123z"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "hotdog"));
        assert!(m("cat|dog", "catnip"));
        assert!(!m("cat|dog", "bird"));
        assert!(m("a(b|c)d", "acd"));
        assert!(m("(ab)+", "ababab"));
        assert!(!m("^(ab)+$", "aba"));
        assert!(m("^(a|bc)*$", "abcbca"));
    }

    #[test]
    fn find_is_leftmost() {
        assert_eq!(f("o", "foo"), Some((1, 2)));
        assert_eq!(f("o+", "foo"), Some((1, 3)));
        assert_eq!(f("a|ab", "xab"), Some((1, 2)));
        assert_eq!(f("ab|a", "xab"), Some((1, 3)));
        assert_eq!(f("x", "abc"), None);
        assert_eq!(f("", "ab"), Some((0, 0)));
    }

    #[test]
    fn literal_constructor_escapes_everything() {
        let r = Regex::literal("a.c*");
        assert!(r.is_match(b"xa.c*y"));
        assert!(!r.is_match(b"abc"));
        assert!(!r.is_match(b"a.ccc"));
        let r = Regex::literal(r"\d[");
        assert!(r.is_match(br"\d["));
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in ["a(", "a)", "[a", "a**", "*a", "a|*", "a\\"] {
            let e = Regex::new(bad);
            assert!(e.is_err(), "{bad:?} should fail");
        }
        let err = Regex::new("ab(").unwrap_err();
        assert_eq!(err.position, 2);
    }

    #[test]
    fn kernel_grep_style_patterns() {
        // The paper's motivating example: searching a source tree for a
        // routine name.
        let r = Regex::new(r"sleds_pick_\w+\(").unwrap();
        assert!(r.is_match(b"    sleds_pick_init(fd, BUFSIZE);"));
        assert!(r.is_match(b"rc = sleds_pick_next_read(fd, &off, &n);"));
        assert!(!r.is_match(b"sleds_pick = 3;"));
    }

    #[test]
    fn binary_bytes_are_fine() {
        let r = Regex::new("a.c").unwrap();
        assert!(r.is_match(b"a\x00c"));
        assert!(r.is_match(b"\xffa\xfec\xfd"));
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // (a?)^n a^n on a^n — classic backtracking killer; the Pike VM
        // must handle it instantly.
        let n = 24;
        let pat = format!("{}{}", "a?".repeat(n), "a".repeat(n));
        let hay = "a".repeat(n);
        assert!(m(&pat, &hay));
    }

    #[test]
    fn required_literal_is_read_off_the_ast() {
        let req = |pat: &str| {
            let r = Regex::new(pat).unwrap().required?;
            Some((String::from_utf8(r.bytes).unwrap(), r.whole))
        };
        let some = |lit: &str, whole| Some((lit.to_string(), whole));
        assert_eq!(req("needle"), some("needle", true));
        assert_eq!(req(r"a\.c"), some("a.c", true));
        assert_eq!(req("(ab)()c"), some("abc", true), "groups are transparent");
        assert_eq!(req(r"sleds_pick_\w+\("), some("sleds_pick_", false));
        assert_eq!(req("a.cde"), some("cde", false), "longest run");
        assert_eq!(req("^x$"), some("x", false), "anchors still need the VM");
        for none in [
            "", "ab|cd", "x*", "(abc)+", r"\d\d", "a\nb", r"a\nb", "[ab]",
        ] {
            assert_eq!(req(none), None, "{none:?}");
        }
    }

    /// `grep` prices a scan from the instruction count; these are the
    /// patterns the benchmark, the figures and the examples search for.
    #[test]
    fn instruction_counts_are_pinned() {
        for (pat, count) in [
            ("needle", 7),
            ("ZQXJKV", 7),
            ("WYVERNQ", 8),
            (r"sleds_pick_\w+\(", 15),
        ] {
            assert_eq!(Regex::new(pat).unwrap().instruction_count(), count, "{pat}");
        }
    }

    #[test]
    fn instruction_count_reflects_size() {
        let small = Regex::new("abc").unwrap();
        let big = Regex::new("(abc|def)+[0-9]{0}x*y+z?").unwrap_or_else(|_| {
            // `{0}` isn't supported syntax; use an equivalent larger pattern.
            Regex::new("(abc|def)+x*y+z?").unwrap()
        });
        assert!(big.instruction_count() > small.instruction_count());
    }
}
