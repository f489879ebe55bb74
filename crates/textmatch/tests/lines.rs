//! `Regex::next_matching_line` against its definition: split the buffer
//! on `\n`, run the bare Pike VM on each terminated line, report the
//! first hit. The reference shares nothing with the prefiltered search
//! but the compiled program.

use sleds_sim_core::{check, DetRng};
use sleds_textmatch::ast::parse;
use sleds_textmatch::compile::{compile, Prog};
use sleds_textmatch::vm::{search, Scratch};
use sleds_textmatch::Regex;

/// First `\n`-terminated line starting at or after `from` (a line start)
/// that the VM matches.
fn reference(prog: &Prog, hay: &[u8], from: usize) -> Option<(usize, usize)> {
    let mut start = from;
    while let Some(len) = hay[start..].iter().position(|&b| b == b'\n') {
        let end = start + len;
        if search(prog, &hay[start..end], &mut Scratch::default()).is_some() {
            return Some((start, end));
        }
        start = end + 1;
    }
    None
}

/// Compares the two from every line start of `hay`, which includes the
/// position right after every matching line.
fn agree(pattern: &str, hay: &[u8]) {
    let re = Regex::new(pattern).unwrap();
    let prog = compile(&parse(pattern).unwrap());
    let line_starts = std::iter::once(0).chain(
        hay.iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1),
    );
    for from in line_starts {
        let got = re.next_matching_line(hay, from);
        let want = reference(&prog, hay, from);
        assert_eq!(
            got,
            want,
            "{pattern:?} from {from} in {:?}",
            String::from_utf8_lossy(hay)
        );
        if let Some((start, end)) = got {
            assert_eq!(hay[end], b'\n');
            assert!(re.is_match(&hay[start..end]));
        }
    }
}

/// Every shape the prefilter has to get right: anchors, classes that can
/// match a newline, the empty pattern, a pattern that needs a newline, a
/// required literal at the front, in the middle, at the end, and none.
const PATTERNS: &[&str] = &[
    "needle",
    "^x",
    "x$",
    "^$",
    "^ab$",
    "[^a]x",
    r"\s",
    r"\S\s\S",
    "",
    "a\nb",
    r"a\nb",
    r"\n",
    r"sleds_pick_\w+\(",
    r"\w+_pick",
    "a.b",
    "ab|xy",
    "(ab)x",
    "(ab)*x",
    "x*",
    "b+a?x",
    "x(a|b)y",
];

/// Lines over a small alphabet (so short patterns hit often) with the
/// long literals dropped in, empty lines, and a tail that is terminated
/// only half the time.
fn buffer(rng: &mut DetRng) -> Vec<u8> {
    const WORDS: &[&[u8]] = &[
        b"needle",
        b"sleds_pick_init(",
        b"sleds_pick",
        b"x",
        b"ab",
        b"xy",
        b" ",
        b"\t",
        b"",
    ];
    let mut out = Vec::new();
    for _ in 0..rng.range_usize(0, 12) {
        for _ in 0..rng.range_usize(0, 6) {
            if rng.chance(0.3) {
                out.extend_from_slice(WORDS[rng.range_usize(0, WORDS.len())]);
            } else {
                out.push(b"abxy_ ("[rng.range_usize(0, 7)]);
            }
        }
        out.push(b'\n');
    }
    if rng.chance(0.5) {
        // An unterminated tail, full of candidates, that must not count.
        out.extend_from_slice(b"x needle ab sleds_pick_next( xy");
    }
    out
}

#[test]
fn fixed_patterns_agree_with_per_line_vm() {
    check::run("fixed_patterns_agree_with_per_line_vm", |rng| {
        let hay = buffer(rng);
        for pattern in PATTERNS {
            agree(pattern, &hay);
        }
    });
}

#[test]
fn generated_patterns_agree_with_per_line_vm() {
    check::run("generated_patterns_agree_with_per_line_vm", |rng| {
        const ATOMS: &[u8] = b"abxy_ .?*+|()[]^$\n\\sw";
        let len = rng.range_usize(0, 9);
        let pattern: String = (0..len)
            .map(|_| ATOMS[rng.range_usize(0, ATOMS.len())] as char)
            .collect();
        if Regex::new(&pattern).is_ok() {
            for _ in 0..4 {
                agree(&pattern, &buffer(rng));
            }
        }
    });
}

#[test]
fn edges_spelled_out() {
    let re = Regex::new("needle").unwrap();
    // Back-to-back matching lines, then a candidate in the unterminated tail.
    let hay = b"needle\nneedle\n\nno\nneedle";
    assert_eq!(re.next_matching_line(hay, 0), Some((0, 6)));
    assert_eq!(re.next_matching_line(hay, 7), Some((7, 13)));
    assert_eq!(re.next_matching_line(hay, 14), None);
    assert_eq!(
        re.next_matching_line(b"needle", 0),
        None,
        "no newline at all"
    );
    assert_eq!(re.next_matching_line(b"", 0), None);
    assert_eq!(
        re.next_matching_line(b"needle\n", 7),
        None,
        "from at the end"
    );
    // The literal is found, but on a line the rest of the pattern rejects.
    let re = Regex::new("^needle$").unwrap();
    assert_eq!(
        re.next_matching_line(b"a needle\nneedle b\nneedle\n", 0),
        Some((18, 24))
    );
    // The empty pattern matches every line, empty ones included.
    let re = Regex::new("").unwrap();
    assert_eq!(re.next_matching_line(b"\n\n", 0), Some((0, 0)));
    assert_eq!(re.next_matching_line(b"\n\n", 1), Some((1, 1)));
    // A class that could match a newline never sees one.
    let re = Regex::new("a[^b]c").unwrap();
    assert_eq!(re.next_matching_line(b"a\nc\na-c\n", 0), Some((4, 7)));
    assert!(re.is_match(b"a\nc"), "but a multi-line haystack still can");
}
