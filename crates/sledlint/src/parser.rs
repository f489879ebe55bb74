//! Shape parsing: `fn` item discovery over the token stream.
//!
//! The unit-flow rule (D013) needs to know where functions are — nothing
//! more. This is not a Rust parser: it finds `fn` items (free functions and
//! methods alike), their names, and their body token ranges, and records
//! which bodies nest inside which so an inner item is its own analysis
//! unit (its `let` aliases are not the outer function's).

use crate::lexer::{Tok, TokKind};

/// One `fn` item with a body: free function, inherent or trait method.
#[derive(Clone, Debug)]
pub struct FnShape {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token indices of the body's `{` and its matching `}` (inclusive).
    pub body: (usize, usize),
    /// Body ranges of `fn` items nested inside this body. Closures are not
    /// listed: they share the enclosing function's locals.
    pub inner: Vec<(usize, usize)>,
}

impl FnShape {
    /// True when token index `i` falls inside a nested `fn` item's body.
    pub fn in_inner(&self, i: usize) -> bool {
        self.inner.iter().any(|&(a, b)| a <= i && i <= b)
    }
}

/// Finds every `fn` item with a body. Trait-method declarations (ending in
/// `;`) are skipped. The body is the first `{` after the signature at
/// paren/bracket depth zero: generic parameters, argument lists, return
/// types and where clauses contain no braces, so that `{` is the body.
pub fn parse_fns(toks: &[Tok]) -> Vec<FnShape> {
    let mut out: Vec<FnShape> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        let mut j = i + 2;
        let mut depth = 0i32;
        let body_start = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.kind == TokKind::Punct => match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break Some(j),
                    ";" if depth == 0 => break None,
                    _ => {}
                },
                _ => {}
            }
            j += 1;
        };
        let Some(start) = body_start else {
            i = j.max(i + 2);
            continue;
        };
        let Some(end) = match_brace(toks, start) else {
            break; // unbalanced tail; nothing complete remains
        };
        out.push(FnShape {
            name: name.text.clone(),
            line: toks[i].line,
            body: (start, end),
            inner: Vec::new(),
        });
        // Keep scanning inside the body so nested fns get their own shapes.
        i += 2;
    }
    let ranges: Vec<(usize, usize)> = out.iter().map(|s| s.body).collect();
    for s in &mut out {
        s.inner = ranges
            .iter()
            .filter(|&&(a, b)| s.body.0 < a && b < s.body.1)
            .copied()
            .collect();
    }
    out
}

/// Token index of the `}` matching the `{` at `open`.
pub fn match_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn names(src: &str) -> Vec<String> {
        parse_fns(&lex(src).tokens)
            .into_iter()
            .map(|s| s.name)
            .collect()
    }

    #[test]
    fn finds_free_fns_and_methods() {
        let src = "fn a() {}\nimpl K {\n    fn b(&mut self) -> u64 { 1 }\n}\n";
        assert_eq!(names(src), vec!["a", "b"]);
    }

    #[test]
    fn generics_and_where_clauses_do_not_confuse_the_body_scan() {
        let src = "fn g<T: Into<Vec<u8>>>(x: T) -> [u8; 4] where T: Clone { f(x) }\n";
        let shapes = parse_fns(&lex(src).tokens);
        assert_eq!(shapes.len(), 1);
        let toks = lex(src).tokens;
        assert_eq!(toks[shapes[0].body.0].text, "{");
        assert_eq!(toks[shapes[0].body.1].text, "}");
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let src =
            "trait T {\n    fn decl(&self) -> u64;\n    fn with_body(&self) -> u64 { 0 }\n}\n";
        assert_eq!(names(src), vec!["with_body"]);
    }

    #[test]
    fn nested_fns_are_their_own_shapes_and_recorded_as_inner() {
        let src = "fn outer() {\n    fn inner() { x(); }\n    inner();\n}\n";
        let shapes = parse_fns(&lex(src).tokens);
        assert_eq!(shapes.len(), 2);
        let outer = shapes.iter().find(|s| s.name == "outer").unwrap();
        let inner = shapes.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.inner, vec![inner.body]);
        assert!(outer.in_inner(inner.body.0));
    }
}
