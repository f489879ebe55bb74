//! Pattern parser: text to AST.

use crate::RegexError;

/// A set of bytes, held as a 256-bit map so membership is one shift and
/// mask however the class was written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ByteClass {
    bits: [u64; 4],
}

impl ByteClass {
    const EMPTY: ByteClass = ByteClass { bits: [0; 4] };

    /// The bytes inside the inclusive `(lo, hi)` ranges — or, when
    /// `negated`, every byte outside them.
    pub fn new(ranges: &[(u8, u8)], negated: bool) -> Self {
        let mut class = ByteClass::EMPTY;
        for &(lo, hi) in ranges {
            class.insert(lo, hi);
        }
        if negated {
            class.negated()
        } else {
            class
        }
    }

    /// Adds the inclusive range `lo..=hi`.
    fn insert(&mut self, lo: u8, hi: u8) {
        for b in lo..=hi {
            self.bits[usize::from(b >> 6)] |= 1 << (b & 63);
        }
    }

    /// Adds every byte of `other`.
    fn insert_all(&mut self, other: &ByteClass) {
        for (w, o) in self.bits.iter_mut().zip(other.bits) {
            *w |= o;
        }
    }

    /// The complement.
    fn negated(self) -> Self {
        ByteClass {
            bits: self.bits.map(|w| !w),
        }
    }

    /// A class matching exactly one byte.
    pub fn single(b: u8) -> Self {
        ByteClass::new(&[(b, b)], false)
    }

    /// The `.` class: any byte except newline, as grep treats lines.
    pub fn dot() -> Self {
        ByteClass::new(&[(b'\n', b'\n')], true)
    }

    /// Tests a byte against the class.
    pub fn matches(&self, b: u8) -> bool {
        self.bits[usize::from(b >> 6)] >> (b & 63) & 1 != 0
    }

    /// The byte, when the class matches exactly one.
    pub fn as_single(&self) -> Option<u8> {
        let ones: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        if ones != 1 {
            return None;
        }
        (0..=u8::MAX).find(|&b| self.matches(b))
    }
}

/// Parsed pattern syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// One byte from a class.
    Class(ByteClass),
    /// Start-of-text anchor `^`.
    AnchorStart,
    /// End-of-text anchor `$`.
    AnchorEnd,
    /// Concatenation.
    Concat(Vec<Ast>),
    /// Alternation `a|b`.
    Alternate(Vec<Ast>),
    /// `a*` (min 0), `a+` (min 1), `a?` (0 or 1).
    Repeat {
        /// Repeated node.
        node: Box<Ast>,
        /// Minimum repetitions (0 or 1).
        min: u8,
        /// Whether more than one repetition is allowed.
        unbounded: bool,
    },
}

/// Deepest group nesting the parser accepts. The parser, the compiler and
/// `Ast`'s drop all recurse once per level, so an unbounded pattern could
/// overflow the stack; no real pattern comes near this.
const MAX_NESTING: usize = 256;

struct Parser<'a> {
    pat: &'a [u8],
    pos: usize,
    /// Groups open around `pos`.
    depth: usize,
}

/// Parses a pattern into an AST.
pub fn parse(pattern: &str) -> Result<Ast, RegexError> {
    let mut p = Parser {
        pat: pattern.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let ast = p.alternation()?;
    if p.pos != p.pat.len() {
        return Err(p.error("unexpected ')'"));
    }
    Ok(ast)
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> RegexError {
        RegexError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.pat.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn alternation(&mut self) -> Result<Ast, RegexError> {
        let mut branches = vec![self.concat()?];
        while self.peek() == Some(b'|') {
            self.bump();
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Ast::Alternate(branches)
        })
    }

    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        })
    }

    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.atom()?;
        match self.peek() {
            Some(q @ (b'*' | b'+' | b'?')) => {
                if matches!(atom, Ast::AnchorStart | Ast::AnchorEnd) {
                    return Err(self.error("cannot repeat an anchor"));
                }
                self.bump();
                // Reject double quantifiers like `a**`.
                if matches!(self.peek(), Some(b'*' | b'+' | b'?')) {
                    return Err(self.error("nothing to repeat"));
                }
                Ok(Ast::Repeat {
                    node: Box::new(atom),
                    min: if q == b'+' { 1 } else { 0 },
                    unbounded: q != b'?',
                })
            }
            _ => Ok(atom),
        }
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        match self.bump() {
            None => Err(self.error("unexpected end of pattern")),
            Some(b'(') => {
                if self.depth == MAX_NESTING {
                    self.pos -= 1;
                    return Err(self.error("nesting too deep"));
                }
                self.depth += 1;
                let inner = self.alternation()?;
                self.depth -= 1;
                if self.bump() != Some(b')') {
                    self.pos -= 1;
                    return Err(self.error("unclosed group"));
                }
                Ok(inner)
            }
            Some(b'[') => Ok(Ast::Class(self.class()?)),
            Some(b'.') => Ok(Ast::Class(ByteClass::dot())),
            Some(b'^') => Ok(Ast::AnchorStart),
            Some(b'$') => Ok(Ast::AnchorEnd),
            Some(b'\\') => Ok(Ast::Class(self.escape()?)),
            Some(b @ (b'*' | b'+' | b'?')) => {
                self.pos -= 1;
                Err(self.error(format!("dangling quantifier '{}'", b as char)))
            }
            Some(b')') => {
                self.pos -= 1;
                Err(self.error("unmatched ')'"))
            }
            Some(b) => Ok(Ast::Class(ByteClass::single(b))),
        }
    }

    fn escape(&mut self) -> Result<ByteClass, RegexError> {
        const DIGIT: &[(u8, u8)] = &[(b'0', b'9')];
        const WORD: &[(u8, u8)] = &[(b'a', b'z'), (b'A', b'Z'), (b'0', b'9'), (b'_', b'_')];
        const SPACE: &[(u8, u8)] = &[(b' ', b' '), (b'\t', b'\r')];
        let class = match self.bump() {
            None => return Err(self.error("trailing backslash")),
            Some(b'd') => ByteClass::new(DIGIT, false),
            Some(b'D') => ByteClass::new(DIGIT, true),
            Some(b'w') => ByteClass::new(WORD, false),
            Some(b'W') => ByteClass::new(WORD, true),
            Some(b's') => ByteClass::new(SPACE, false),
            Some(b'S') => ByteClass::new(SPACE, true),
            Some(b'n') => ByteClass::single(b'\n'),
            Some(b'r') => ByteClass::single(b'\r'),
            Some(b't') => ByteClass::single(b'\t'),
            Some(b'0') => ByteClass::single(0),
            Some(b) => ByteClass::single(b),
        };
        Ok(class)
    }

    fn class(&mut self) -> Result<ByteClass, RegexError> {
        let mut negated = false;
        if self.peek() == Some(b'^') {
            self.bump();
            negated = true;
        }
        let mut class = ByteClass::EMPTY;
        // POSIX quirk: a ']' immediately after '[' or '[^' is a literal.
        if self.peek() == Some(b']') {
            self.bump();
            class.insert(b']', b']');
        }
        loop {
            let lo = match self.bump() {
                None => return Err(self.error("unclosed character class")),
                Some(b']') => break,
                Some(b'\\') => {
                    let negated_escape = matches!(self.peek(), Some(b'D' | b'W' | b'S'));
                    let c = self.escape()?;
                    match c.as_single() {
                        Some(b) => b,
                        None if negated_escape => {
                            return Err(self.error("negated escape inside class"));
                        }
                        // A multi-byte escape inside a class contributes
                        // its bytes directly (e.g. `[\d]`).
                        None => {
                            class.insert_all(&c);
                            continue;
                        }
                    }
                }
                Some(b) => b,
            };
            if self.peek() == Some(b'-') && self.pat.get(self.pos + 1).is_some_and(|&b| b != b']') {
                self.bump(); // '-'
                let hi = match self.bump() {
                    None => return Err(self.error("unclosed character class")),
                    Some(b'\\') => match self.escape()?.as_single() {
                        Some(b) => b,
                        None => return Err(self.error("bad range endpoint")),
                    },
                    Some(b) => b,
                };
                if hi < lo {
                    return Err(self.error("reversed range"));
                }
                class.insert(lo, hi);
            } else {
                class.insert(lo, lo);
            }
        }
        if class == ByteClass::EMPTY {
            return Err(self.error("empty character class"));
        }
        Ok(if negated { class.negated() } else { class })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byteclass_matching() {
        let ranges = [(b'a', b'c'), (b'x', b'x')];
        let c = ByteClass::new(&ranges, false);
        assert!(c.matches(b'b'));
        assert!(c.matches(b'x'));
        assert!(!c.matches(b'd'));
        let n = ByteClass::new(&ranges, true);
        assert!(!n.matches(b'b'));
        assert!(n.matches(b'd'));
        assert!(n.matches(0xff));
        assert_eq!(ByteClass::single(0xff).as_single(), Some(0xff));
        assert_eq!(c.as_single(), None);
        assert_eq!(ByteClass::EMPTY.as_single(), None);
    }

    #[test]
    fn parse_shapes() {
        assert_eq!(parse("").unwrap(), Ast::Empty);
        assert!(matches!(parse("a").unwrap(), Ast::Class(_)));
        assert!(matches!(parse("ab").unwrap(), Ast::Concat(_)));
        assert!(matches!(parse("a|b").unwrap(), Ast::Alternate(_)));
        assert!(matches!(parse("a*").unwrap(), Ast::Repeat { min: 0, .. }));
        assert!(matches!(parse("a+").unwrap(), Ast::Repeat { min: 1, .. }));
        assert!(matches!(
            parse("a?").unwrap(),
            Ast::Repeat {
                unbounded: false,
                ..
            }
        ));
    }

    #[test]
    fn parse_class_details() {
        let Ast::Class(c) = parse("[a-z]").unwrap() else {
            panic!("expected class");
        };
        assert_eq!(c, ByteClass::new(&[(b'a', b'z')], false));
        let Ast::Class(c) = parse("[-a]").unwrap() else {
            panic!("expected class");
        };
        assert!(c.matches(b'-'));
        let Ast::Class(c) = parse("[a-]").unwrap() else {
            panic!("expected class");
        };
        assert!(c.matches(b'-'));
        assert!(c.matches(b'a'));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("[z-a]").is_err());
        assert!(parse("[").is_err());
        assert!(parse("(a").is_err());
        assert!(parse(")").is_err());
        assert!(parse("\\").is_err());
        assert!(parse("+a").is_err());
        assert!(parse("^*").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_position() {
        let nest = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        assert!(parse(&nest(MAX_NESTING)).is_ok());
        let err = parse(&nest(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err.position, MAX_NESTING);
        assert_eq!(err.message, "nesting too deep");
        // Depth counts open groups, not groups seen.
        assert!(parse(&"(a)".repeat(4 * MAX_NESTING)).is_ok());
    }

    #[test]
    fn group_flattens_to_inner() {
        assert_eq!(parse("(a)").unwrap(), parse("a").unwrap());
    }
}
