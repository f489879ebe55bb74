//! The rule engine: turns one lexed source file into findings.
//!
//! Scope policy lives in [`crate::rules`]; this module owns detection
//! (token patterns per rule), `#[cfg(test)]` region tracking, and waiver
//! resolution. Everything operates on a workspace-relative path plus file
//! contents, so tests can feed synthetic paths without touching the disk.

use crate::flow;
use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::parser;
use crate::rules::FileScope;

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule code (a `D0xx` domain rule, or `W001`/`W002`).
    pub rule: &'static str,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Renders as `path:line: CODE message` (the CLI output format).
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed `// sledlint::allow(RULE, reason)` comment.
struct Waiver {
    code: String,
    /// Line of the comment itself (covers trailing-comment form).
    line: u32,
    /// Next token-bearing line after the comment (covers standalone form).
    next_code_line: Option<u32>,
    used: bool,
}

impl Waiver {
    fn covers(&self, rule: &str, line: u32) -> bool {
        self.code == rule && (line == self.line || Some(line) == self.next_code_line)
    }
}

/// Scans one file. `rel_path` must be workspace-relative with `/` separators
/// (it drives scope policy); `src` is the file's contents.
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let scope = FileScope::classify(rel_path);
    let regions = test_regions(&lexed.tokens);
    let in_test = |line: u32| regions.iter().any(|&(a, b)| a <= line && line <= b);
    let shapes = parser::parse_fns(&lexed.tokens);

    let mut findings = Vec::new();
    let mut waivers = Vec::new();
    for c in &lexed.comments {
        match parse_waiver(c) {
            WaiverParse::None => {}
            WaiverParse::Malformed(detail) => findings.push(Finding {
                rule: "W001",
                path: rel_path.to_string(),
                line: c.line,
                message: format!(
                    "malformed waiver ({detail}); syntax is `// sledlint::allow(RULE, reason)`"
                ),
            }),
            WaiverParse::Ok(code) => waivers.push(Waiver {
                code,
                line: c.line,
                next_code_line: lexed.tokens.iter().map(|t| t.line).find(|&l| l > c.line),
                used: false,
            }),
        }
    }

    let mut cands = detect(&lexed.tokens);
    flow::flow_candidates(&lexed.tokens, &shapes, &mut cands);
    for cand in cands {
        if !scope.applies(cand.rule, in_test(cand.line)) {
            continue;
        }
        let mut waived = false;
        for w in &mut waivers {
            if w.covers(cand.rule, cand.line) {
                w.used = true;
                waived = true;
            }
        }
        if !waived {
            findings.push(Finding {
                rule: cand.rule,
                path: rel_path.to_string(),
                line: cand.line,
                message: cand.message,
            });
        }
    }

    for w in &waivers {
        if !w.used {
            findings.push(Finding {
                rule: "W002",
                path: rel_path.to_string(),
                line: w.line,
                message: format!(
                    "waiver for {} matches no finding here; remove it or fix the rule code",
                    w.code
                ),
            });
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// A candidate finding before scope/waiver filtering.
pub(crate) struct Candidate {
    pub(crate) rule: &'static str,
    pub(crate) line: u32,
    pub(crate) message: String,
}

fn cand(rule: &'static str, line: u32, message: String) -> Candidate {
    Candidate {
        rule,
        line,
        message,
    }
}

/// Identifiers that reach ambient (non-DetRng) randomness.
const RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "OsRng",
    "getrandom",
    "from_entropy",
    "StdRng",
    "SmallRng",
];

/// Narrowing integer cast targets flagged by D007.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Runs every token detector over the token stream.
fn detect(toks: &[Tok]) -> Vec<Candidate> {
    let mut out = Vec::new();
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                "Instant" | "SystemTime" => out.push(cand(
                    "D001",
                    t.line,
                    format!(
                        "wall-clock API `{}`; simulated time must come from the virtual Clock",
                        t.text
                    ),
                )),
                "std" if text(i + 1) == "::" && matches!(text(i + 2), "thread" | "process") => out
                    .push(cand(
                        "D002",
                        t.line,
                        format!(
                            "host API `std::{}`; the simulator is single-threaded and hermetic",
                            text(i + 2)
                        ),
                    )),
                name if RNG_IDENTS.contains(&name) => out.push(cand(
                    "D003",
                    t.line,
                    format!("ambient randomness `{name}`; use DetRng with an explicit seed"),
                )),
                "rand" if text(i + 1) == "::" => out.push(cand(
                    "D003",
                    t.line,
                    "ambient randomness `rand::`; use DetRng with an explicit seed".to_string(),
                )),
                "HashMap" | "HashSet" => out.push(cand(
                    "D006",
                    t.line,
                    format!(
                        "`{}` in simulation state; use BTreeMap/BTreeSet for deterministic \
                         iteration, or waive with justification",
                        t.text
                    ),
                )),
                "unwrap" | "expect" if i > 0 && text(i - 1) == "." && text(i + 1) == "(" => out
                    .push(cand(
                        "D005",
                        t.line,
                        format!(
                            "`.{}()` on a kernel path; propagate SimError or waive naming the \
                             invariant",
                            t.text
                        ),
                    )),
                "panic" | "todo" | "unimplemented" | "unreachable" if text(i + 1) == "!" => out
                    .push(cand(
                        "D005",
                        t.line,
                        format!(
                            "`{}!` on a kernel path; propagate SimError or waive naming the \
                             invariant",
                            t.text
                        ),
                    )),
                "as" if NARROW_TYPES.contains(&text(i + 1)) => out.push(cand(
                    "D007",
                    t.line,
                    format!(
                        "narrowing cast `as {}`; prove it lossless with a waiver naming the \
                         bound, or use try_from",
                        text(i + 1)
                    ),
                )),
                _ => {}
            },
            TokKind::Punct if t.text == "==" || t.text == "!=" => {
                if let Some(name) = cmp_operand_terminals(toks, i)
                    .into_iter()
                    .find(|n| is_latency_name(n))
                {
                    out.push(cand(
                        "D004",
                        t.line,
                        format!(
                            "float `{}` on `{name}`; compare to_bits() identity or use \
                             total_cmp",
                            t.text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    detect_unbounded_queues(toks, &mut out);
    out
}

/// Struct-name fragments that mark a type as a queue (D009).
const QUEUE_NAME_PARTS: &[&str] = &["Ring", "Queue", "Fifo"];

/// Growable containers a queue struct stores its entries in. A queue type
/// without one (a cursor, a completion record) has nothing to bound.
const QUEUE_CONTAINER_IDENTS: &[&str] = &["Vec", "VecDeque", "BinaryHeap"];

/// Field names that prove a queue struct carries its own capacity bound.
fn is_queue_bound_ident(s: &str) -> bool {
    matches!(s, "capacity" | "cap" | "bound" | "limit")
        || s.starts_with("max_")
        || s.ends_with("_capacity")
        || s.ends_with("_limit")
        || s.ends_with("_bound")
}

/// D009: a kernel-path struct named like a queue (`…Ring…`, `…Queue…`,
/// `…Fifo…`) whose body holds a growable container must also name a
/// capacity bound among its fields, so backpressure is structural rather
/// than hoped-for. Tuple and unit structs are skipped: the named-field
/// body is where a bound would live.
fn detect_unbounded_queues(toks: &[Tok], out: &mut Vec<Candidate>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "struct" {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        if !QUEUE_NAME_PARTS.iter().any(|p| name.text.contains(p)) {
            continue;
        }
        // Skip generic parameters to the body opener. A `(` at angle depth
        // zero means a tuple struct; one inside `<…>` is just an `Fn` bound.
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "{" | ";" => break,
                "(" if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].text != "{" {
            continue;
        }
        let start = j;
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let body = &toks[start..toks.len().min(j + 1)];
        let holds_container = body.iter().any(|tok| {
            tok.kind == TokKind::Ident && QUEUE_CONTAINER_IDENTS.contains(&tok.text.as_str())
        });
        let has_bound = body
            .iter()
            .any(|tok| tok.kind == TokKind::Ident && is_queue_bound_ident(&tok.text));
        if holds_container && !has_bound {
            out.push(cand(
                "D009",
                t.line,
                format!(
                    "queue struct `{}` holds a growable container with no capacity bound; \
                     name the bound (capacity/cap/limit/max_*) or waive naming what bounds it",
                    name.text
                ),
            ));
        }
    }
}

fn is_latency_name(s: &str) -> bool {
    s == "latency" || s == "bandwidth" || s.ends_with("_latency") || s.ends_with("_bandwidth")
}

/// Terminal identifiers of the operands of the comparison at `toks[i]`.
///
/// Left operand: only the token immediately before the operator (covers
/// `a.latency == …` since the field is that token). Right operand: skip
/// prefix sigils, then follow an `ident (.|:: ident)*` chain to its last
/// segment. A method call like `.to_bits()` becomes the terminal, so
/// already-fixed comparisons don't re-trigger.
fn cmp_operand_terminals(toks: &[Tok], i: usize) -> Vec<String> {
    let mut out = Vec::new();
    if i > 0 && toks[i - 1].kind == TokKind::Ident {
        out.push(toks[i - 1].text.clone());
    }
    let mut j = i + 1;
    while j < toks.len()
        && toks[j].kind == TokKind::Punct
        && matches!(toks[j].text.as_str(), "&" | "*" | "-" | "!" | "(")
    {
        j += 1;
    }
    if j < toks.len() && toks[j].kind == TokKind::Ident {
        while j + 2 < toks.len()
            && matches!(toks[j + 1].text.as_str(), "." | "::")
            && toks[j + 2].kind == TokKind::Ident
        {
            j += 2;
        }
        out.push(toks[j].text.clone());
    }
    out
}

/// Result of trying to read a comment as a waiver.
enum WaiverParse {
    None,
    Ok(String),
    Malformed(String),
}

/// Parses `sledlint::allow(RULE, reason)` out of a comment. The marker can
/// sit anywhere in the comment (trailing or standalone form).
fn parse_waiver(c: &Comment) -> WaiverParse {
    const MARKER: &str = "sledlint::allow";
    // Doc comments describe the syntax; only plain comments carry waivers.
    if ["///", "//!", "/**", "/*!"]
        .iter()
        .any(|p| c.text.starts_with(p))
    {
        return WaiverParse::None;
    }
    let Some(pos) = c.text.find(MARKER) else {
        return WaiverParse::None;
    };
    let rest = &c.text[pos + MARKER.len()..];
    let Some(body) = rest.strip_prefix('(') else {
        return WaiverParse::Malformed("missing `(` after sledlint::allow".to_string());
    };
    let Some(close) = body.rfind(')') else {
        return WaiverParse::Malformed("missing closing `)`".to_string());
    };
    let body = &body[..close];
    let Some((code, reason)) = body.split_once(',') else {
        return WaiverParse::Malformed("missing reason; a waiver must say why".to_string());
    };
    let code = code.trim();
    if !crate::rules::RULES.iter().any(|r| r.code == code) {
        return WaiverParse::Malformed(format!("unknown rule code `{code}`"));
    }
    if reason.trim().is_empty() {
        return WaiverParse::Malformed("empty reason; a waiver must say why".to_string());
    }
    WaiverParse::Ok(code.to_string())
}

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items.
///
/// Heuristic, not a parse: on a `#[…]` attribute whose tokens include `test`
/// (and not `not`, so `#[cfg(not(test))]` stays live code), skip any further
/// attributes, then extend the region to the matching `}` of the item's first
/// brace — or to the terminating `;` for brace-less items.
fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[") {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        let (is_test, after) = scan_attr(toks, i);
        if !is_test {
            i = after;
            continue;
        }
        // Skip stacked attributes between the test attribute and the item.
        let mut j = after;
        while j + 1 < toks.len() && toks[j].text == "#" && toks[j + 1].text == "[" {
            j = scan_attr(toks, j).1;
        }
        // Find the item body: first `{` at this level, else a `;`.
        let mut end_line = toks.get(j).map(|t| t.line).unwrap_or(start_line);
        while j < toks.len() {
            if toks[j].text == ";" {
                end_line = toks[j].line;
                j += 1;
                break;
            }
            if toks[j].text == "{" {
                let mut depth = 0usize;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                end_line = toks[j].line;
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                break;
            }
            end_line = toks[j].line;
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j;
    }
    regions
}

/// Scans the attribute starting at `toks[i]` (`#` `[` …). Returns whether it
/// marks test-only code, and the index just past its closing `]`.
fn scan_attr(toks: &[Tok], i: usize) -> (bool, usize) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    let mut j = i + 1;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            "test" if toks[j].kind == TokKind::Ident => has_test = true,
            "not" if toks[j].kind == TokKind::Ident => has_not = true,
            _ => {}
        }
        j += 1;
    }
    (has_test && !has_not, j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        scan_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    const KERNEL: &str = "crates/fs/src/sample.rs";

    #[test]
    fn cfg_test_region_exempts_d005() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = scan_source(KERNEL, src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("D005", 1));
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        assert_eq!(rules_hit(KERNEL, src), vec!["D005"]);
    }

    #[test]
    fn trailing_waiver_suppresses() {
        let src = "let m: HashMap<u32, u32>; // sledlint::allow(D006, never iterated)\n";
        assert!(rules_hit(KERNEL, src).is_empty());
    }

    #[test]
    fn standalone_waiver_covers_next_code_line() {
        let src = "// sledlint::allow(D006, never iterated)\nlet m: HashMap<u32, u32>;\n";
        assert!(rules_hit(KERNEL, src).is_empty());
    }

    #[test]
    fn stacked_waivers_cover_one_line() {
        let src = "// sledlint::allow(D006, keyed access only)\n\
                   // sledlint::allow(D007, bounded by u16 field)\n\
                   let m: HashMap<u32, u32> = f(x as u32);\n";
        assert!(rules_hit(KERNEL, src).is_empty());
    }

    #[test]
    fn waiver_without_reason_is_w001() {
        let src = "let m: HashMap<u32, u32>; // sledlint::allow(D006)\n";
        let hits = rules_hit(KERNEL, src);
        assert!(hits.contains(&"W001") && hits.contains(&"D006"));
    }

    #[test]
    fn unused_waiver_is_w002() {
        let src = "// sledlint::allow(D006, nothing here)\nlet x = 1;\n";
        assert_eq!(rules_hit(KERNEL, src), vec!["W002"]);
    }

    #[test]
    fn unknown_rule_code_is_w001() {
        let src = "// sledlint::allow(D999, bogus)\nlet x = 1;\n";
        assert_eq!(rules_hit(KERNEL, src), vec!["W001"]);
    }

    #[test]
    fn d004_ignores_to_bits_form() {
        let src = "fn f() -> bool { a.latency.to_bits() == b.latency.to_bits() }\n";
        assert!(rules_hit(KERNEL, src).is_empty());
    }

    #[test]
    fn d004_flags_field_compare() {
        let src = "fn f() -> bool { a.latency == b.latency }\n";
        assert_eq!(rules_hit(KERNEL, src), vec!["D004"]);
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "// HashMap unwrap() Instant std::thread\n\
                   let s = \"HashMap Instant rand::thread_rng\";\n";
        assert!(rules_hit(KERNEL, src).is_empty());
    }

    #[test]
    fn doc_comments_are_not_waivers() {
        let src = "/// Waive with `// sledlint::allow(RULE, reason)`.\nfn f() {}\n";
        assert!(rules_hit(KERNEL, src).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_d005() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(rules_hit(KERNEL, src).is_empty());
    }
}
