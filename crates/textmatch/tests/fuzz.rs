//! Fuzz-style property tests: the engine must never panic, must agree
//! with naive algorithms on simple pattern classes, and must behave
//! linearly on adversarial inputs.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

use sleds_sim_core::{check, DetRng};
use sleds_textmatch::Regex;

/// A random string drawn from an explicit alphabet, length in `[min, max]`.
fn from_alphabet(rng: &mut DetRng, alphabet: &[u8], min: usize, max: usize) -> String {
    let len = rng.range_usize(min, max + 1);
    (0..len)
        .map(|_| alphabet[rng.range_usize(0, alphabet.len())] as char)
        .collect()
}

/// Arbitrary pattern strings either compile or error — never panic —
/// and compiled patterns never panic on arbitrary haystacks.
#[test]
fn no_panics_on_arbitrary_patterns() {
    check::run("no_panics_on_arbitrary_patterns", |rng| {
        let pattern = check::ascii(rng, 20);
        let hay = check::bytes(rng, 200);
        if let Ok(re) = Regex::new(&pattern) {
            let _ = re.is_match(&hay);
            let _ = re.find(&hay);
        }
    });
}

/// Literal patterns agree with substring search.
#[test]
fn literals_agree_with_substring_search() {
    check::run("literals_agree_with_substring_search", |rng| {
        let needle = from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 6);
        let hay = from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz\n ", 0, 300);
        let re = Regex::new(&needle).unwrap();
        let expect = hay
            .as_bytes()
            .windows(needle.len())
            .position(|w| w == needle.as_bytes());
        match (re.find(hay.as_bytes()), expect) {
            (Some((s, e)), Some(pos)) => {
                assert_eq!(s, pos);
                assert_eq!(e, pos + needle.len());
            }
            (None, None) => {}
            (got, want) => panic!("find {got:?} vs naive {want:?}"),
        }
    });
}

/// Alternations of literals agree with trying each literal.
#[test]
fn alternation_agrees_with_any() {
    check::run("alternation_agrees_with_any", |rng| {
        let nwords = rng.range_usize(1, 5);
        let words: Vec<String> = (0..nwords)
            .map(|_| from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 5))
            .collect();
        let hay = from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz ", 0, 200);
        let pattern = words.join("|");
        let re = Regex::new(&pattern).unwrap();
        let naive = words.iter().any(|w| hay.contains(w.as_str()));
        assert_eq!(re.is_match(hay.as_bytes()), naive);
    });
}

/// Anchored exact matches agree with string equality.
#[test]
fn full_anchored_match_is_equality() {
    check::run("full_anchored_match_is_equality", |rng| {
        let word = from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz", 0, 8);
        let hay = from_alphabet(rng, b"abcdefghijklmnopqrstuvwxyz", 0, 8);
        let re = Regex::new(&format!("^{word}$")).unwrap();
        assert_eq!(re.is_match(hay.as_bytes()), word == hay);
    });
}

/// `find` always returns a valid, in-bounds span whose text rematches.
#[test]
fn find_spans_are_valid() {
    check::run("find_spans_are_valid", |rng| {
        let pattern = from_alphabet(rng, b"abc.?*|()[]", 1, 8);
        let hay = from_alphabet(rng, b"abc", 0, 100);
        if let Ok(re) = Regex::new(&pattern) {
            if let Some((s, e)) = re.find(hay.as_bytes()) {
                assert!(s <= e);
                assert!(e <= hay.len());
                assert!(
                    re.is_match(&hay.as_bytes()[s..]),
                    "suffix from match start must still match"
                );
            }
        }
    });
}

/// A pattern nested 200 000 groups deep is refused with a position — the
/// parser recurses per group and used to run off the end of the stack.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let n = 200_000;
    let pattern = format!("{}a{}", "(".repeat(n), ")".repeat(n));
    let err = Regex::new(&pattern).unwrap_err();
    assert_eq!(err.message, "nesting too deep");
    assert!(err.position < n);
}

/// A long flat program: the epsilon closure of its first instruction runs
/// through 200 000 splits, which must cost heap, not call depth.
#[test]
fn long_epsilon_chains_do_not_overflow() {
    let re = Regex::new(&"a?".repeat(200_000)).unwrap();
    assert_eq!(re.find(b"aa"), Some((0, 2)));
    assert_eq!(re.find(b""), Some((0, 0)));
}
