//! D013, unit flow: the one rule that follows a value through a function
//! body rather than matching a token pattern.
//!
//! Units (time/bytes/sectors/pages) are read off name suffixes, carried
//! through simple `let` aliases, and checked where two values meet at an
//! additive or comparison operator. It needs to know where functions are
//! ([`FnShape`]) and nothing else — no control-flow graph: an alias holds
//! for the whole body it is declared in.
//!
//! The rule stays a lint because no type carries it yet: pages, sectors
//! and bytes are bare `u64` across some forty kernel signatures, so
//! `span_pages + tail_sectors` is still representable. The invariants that
//! *could* be carried by a type no longer have rules here (DESIGN §5c).

use std::collections::BTreeMap;

use crate::engine::Candidate;
use crate::lexer::{Tok, TokKind};
use crate::parser::FnShape;

/// Runs D013 on every function, appending candidates for the engine to
/// scope-filter.
pub(crate) fn flow_candidates(toks: &[Tok], shapes: &[FnShape], out: &mut Vec<Candidate>) {
    for shape in shapes {
        unit_flow(toks, shape, out);
    }
}

/// The abstract unit a name carries, by suffix convention.
fn unit_of_name(s: &str) -> Option<&'static str> {
    let lower = s.to_ascii_lowercase();
    let seg = lower.rsplit('_').next().unwrap_or("");
    match seg {
        "ns" | "nanos" | "us" | "micros" | "ms" | "millis" | "secs" | "sec" | "time"
        | "latency" | "lat" => Some("time"),
        "bytes" | "byte" => Some("bytes"),
        "sectors" | "sector" => Some("sectors"),
        "pages" | "page" => Some("pages"),
        _ => None,
    }
}

/// D013: units (time/bytes/sectors/pages) are inferred from name suffixes,
/// propagated through simple `let` aliases, and checked at additive and
/// comparison operators. Multiplicative context (`*`, `/`, `as`) near the
/// operator reads as an intentional conversion and suppresses the check —
/// the rule hunts `span_pages + tail_sectors`, not `pages * SECTORS_PER_PAGE`.
fn unit_flow(toks: &[Tok], shape: &FnShape, out: &mut Vec<Candidate>) {
    let (start, end) = (shape.body.0 + 1, shape.body.1.min(toks.len()));
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");

    // Alias table: `let x = chain;` where the RHS is a bare path/call chain
    // with a recognizable unit.
    let mut env: BTreeMap<&str, &'static str> = BTreeMap::new();
    let mut i = start;
    while i < end {
        if shape.in_inner(i) || !(toks[i].kind == TokKind::Ident && toks[i].text == "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if text(j) == "mut" {
            j += 1;
        }
        if toks.get(j).is_none_or(|t| t.kind != TokKind::Ident) {
            i += 1;
            continue;
        }
        let name = toks[j].text.as_str();
        // Skip an optional `: Type` annotation to the initializer.
        let mut depth = 0i32;
        let mut eq = None;
        let mut m = j + 1;
        while m < end {
            match text(m) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 => {
                    eq = Some(m);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            m += 1;
        }
        if let Some(eq) = eq {
            if let Some(unit) = chain_unit(toks, eq + 1, end) {
                env.insert(name, unit);
            }
        }
        i = m.max(i + 1);
    }

    for i in start..end {
        if shape.in_inner(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Punct
            || !matches!(
                t.text.as_str(),
                "+" | "-" | "<" | ">" | "<=" | ">=" | "==" | "!="
            )
        {
            continue;
        }
        // A `*`, `/` or `as` anywhere in the same expression reads as an
        // intentional conversion (`sector + pages * SECTORS_PER_PAGE`), so
        // scan outward from the operator to the expression's edges: a
        // depth-0 terminator, an enclosing bracket, or a bounded distance.
        if conversion_nearby(toks, i, start, end) {
            continue;
        }
        let left = left_unit(toks, i, &env);
        let right = right_unit(toks, i, end, &env);
        if let (Some((ln, lu)), Some((rn, ru))) = (left, right) {
            if lu != ru {
                out.push(Candidate {
                    rule: "D013",
                    line: t.line,
                    message: format!(
                        "cross-unit arithmetic in fn `{}`: `{ln}` is {lu} but `{rn}` is {ru}; \
                         insert an explicit conversion or waive naming why the units agree",
                        shape.name
                    ),
                });
            }
        }
    }
}

/// True when a `*`, `/` or `as` shares the expression around the operator
/// at `i`: multiplicative scaling and casts are how unit conversions are
/// written, and their presence makes a mixed-unit sum deliberate. The scan
/// stays inside the statement (depth-0 `;`/`,`/`{`/`}` or an unbalanced
/// bracket ends it) and is distance-bounded so pathological one-line
/// expressions stay cheap.
fn conversion_nearby(toks: &[Tok], i: usize, start: usize, end: usize) -> bool {
    const REACH: usize = 24;
    let hit = |t: &Tok| {
        (t.kind == TokKind::Punct && matches!(t.text.as_str(), "*" | "/"))
            || (t.kind == TokKind::Ident && t.text == "as")
    };
    let mut depth = 0i32;
    let fwd_end = end.min(i + 1 + REACH).min(toks.len());
    for t in &toks[(i + 1).min(fwd_end)..fwd_end] {
        if hit(t) {
            return true;
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                ";" | "," | "{" | "}" if depth == 0 => break,
                _ => {}
            }
        }
    }
    depth = 0;
    for t in toks[start..i].iter().rev().take(REACH) {
        if hit(t) {
            return true;
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                ";" | "," | "{" | "}" if depth == 0 => break,
                _ => {}
            }
        }
    }
    false
}

/// Unit of a bare `ident (.ident)* (())? ?` chain starting at `i`, or None
/// when the expression is anything more complex.
fn chain_unit(toks: &[Tok], mut i: usize, end: usize) -> Option<&'static str> {
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    if toks.get(i).is_none_or(|t| t.kind != TokKind::Ident) {
        return None;
    }
    let mut last = i;
    while text(i + 1) == "." && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident) {
        i += 2;
        last = i;
    }
    let mut j = i + 1;
    if text(j) == "(" && text(j + 1) == ")" {
        j += 2;
    }
    if text(j) == "?" {
        j += 1;
    }
    if text(j) != ";" || j >= end {
        return None;
    }
    unit_of_name(&toks[last].text)
}

/// Unit of the operand ending just before the operator at `i`.
fn left_unit<'a>(
    toks: &'a [Tok],
    i: usize,
    env: &BTreeMap<&str, &'static str>,
) -> Option<(&'a str, &'static str)> {
    let p = i.checked_sub(1)?;
    let t = toks.get(p)?;
    if t.kind == TokKind::Punct && t.text == ")" {
        // Call result: unit comes from the callee's name (`x.as_nanos()`).
        let mut depth = 0usize;
        let mut j = p;
        loop {
            match toks[j].text.as_str() {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j = j.checked_sub(1)?;
        }
        let callee = toks.get(j.checked_sub(1)?)?;
        if callee.kind != TokKind::Ident {
            return None;
        }
        return unit_of_name(&callee.text).map(|u| (callee.text.as_str(), u));
    }
    if t.kind != TokKind::Ident {
        return None;
    }
    let name = t.text.as_str();
    let is_field = p
        .checked_sub(1)
        .is_some_and(|q| toks[q].kind == TokKind::Punct && toks[q].text == ".");
    let unit = if is_field {
        unit_of_name(name)
    } else {
        env.get(name).copied().or_else(|| unit_of_name(name))
    };
    unit.map(|u| (name, u))
}

/// Unit of the operand starting just after the operator at `i`.
fn right_unit<'a>(
    toks: &'a [Tok],
    i: usize,
    end: usize,
    env: &BTreeMap<&str, &'static str>,
) -> Option<(&'a str, &'static str)> {
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    let mut j = i + 1;
    while j < end
        && toks[j].kind == TokKind::Punct
        && matches!(toks[j].text.as_str(), "&" | "-" | "!" | "(")
    {
        j += 1;
    }
    if toks.get(j).is_none_or(|t| t.kind != TokKind::Ident) {
        return None;
    }
    let bare_start = j;
    let mut last = j;
    while text(j + 1) == "." && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident) {
        j += 2;
        last = j;
    }
    let name = toks[last].text.as_str();
    let unit = if last == bare_start && text(last + 1) != "(" {
        env.get(name).copied().or_else(|| unit_of_name(name))
    } else {
        unit_of_name(name)
    };
    unit.map(|u| (name, u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_fns;

    fn flow_rules(src: &str) -> Vec<(&'static str, u32)> {
        let toks = lex(src).tokens;
        let shapes = parse_fns(&toks);
        let mut out = Vec::new();
        flow_candidates(&toks, &shapes, &mut out);
        out.into_iter().map(|c| (c.rule, c.line)).collect()
    }

    #[test]
    fn cross_unit_addition_through_a_local_is_d013() {
        let src = "fn f(first_latency_ns: u64, total_bytes: u64) -> bool {\n\
                   let budget = first_latency_ns;\n\
                   budget < total_bytes\n}\n";
        assert_eq!(flow_rules(src), vec![("D013", 3)]);
    }

    #[test]
    fn conversion_context_suppresses_d013() {
        let src = "fn f(span_pages: u64) -> u64 { span_pages * SECTORS_PER_PAGE }\n\
                   fn g(lat_ns: u64, total_bytes: u64, bw_bytes: u64) -> u64 {\n\
                   lat_ns + total_bytes / bw_bytes\n}\n";
        assert!(flow_rules(src).is_empty());
    }
}
