//! A hostile artifact, end to end (ROADMAP 3b): the committed capture,
//! damaged in seeded ways, goes through `CaptureFile::parse` →
//! `build_kernel` → `replay`. Every case must end in a typed `Err` or in a
//! complete replay of every op the header declares — never a panic, never
//! a quietly shorter replay.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sleds_replay::{replay, CandidateConfig, CaptureFile};
use sleds_sim_core::DetRng;

const ARTIFACT: &str = include_str!("../../../results/CAPTURE_saturation.jsonl");

/// How one damaged artifact fared.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Refused with a typed error, at load or during replay.
    Refused,
    /// Loaded and replayed every declared op.
    Replayed,
}

/// Loads and replays `bytes` as a capture file would be read from disk.
/// `Err` is a broken guarantee, described.
fn judge(bytes: &[u8]) -> Result<Verdict, String> {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        // What `fs::read_to_string` refuses, the loader never sees.
        let Ok(text) = std::str::from_utf8(bytes) else {
            return Ok(Verdict::Refused);
        };
        let Ok(file) = CaptureFile::parse(text) else {
            return Ok(Verdict::Refused);
        };
        // `replay` builds the kernel from the parsed spec itself.
        let Ok(replayed) = replay(&file, &CandidateConfig::identity()) else {
            return Ok(Verdict::Refused);
        };
        let (got, want) = (replayed.capture.ops.len(), file.capture.ops.len());
        if !replayed.capture.complete || got != want {
            return Err(format!("replayed {got} of {want} declared ops"));
        }
        Ok(Verdict::Replayed)
    }));
    attempt.unwrap_or_else(|_| Err("panicked".to_string()))
}

/// Judges every case; fails naming each one that broke a guarantee.
/// Returns how many were refused.
fn refused(cases: impl IntoIterator<Item = (String, Vec<u8>)>) -> usize {
    let mut refused = 0;
    let mut broken = Vec::new();
    for (name, bytes) in cases {
        match judge(&bytes) {
            Ok(Verdict::Refused) => refused += 1,
            Ok(Verdict::Replayed) => {}
            Err(why) => broken.push(format!("{name}: {why}")),
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
    refused
}

/// `(start, end)` of every run of ASCII digits in the artifact.
fn digit_runs() -> Vec<(usize, usize)> {
    let bytes = ARTIFACT.as_bytes();
    let mut runs = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = bytes[at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if len > 0 {
            runs.push((at, at + len));
        }
        at += len.max(1);
    }
    runs
}

/// The artifact with `bytes[from..to]` replaced by `with`.
fn spliced(from: usize, to: usize, with: &str) -> Vec<u8> {
    let bytes = ARTIFACT.as_bytes();
    [&bytes[..from], with.as_bytes(), &bytes[to..]].concat()
}

#[test]
fn the_artifact_itself_replays() {
    assert_eq!(judge(ARTIFACT.as_bytes()), Ok(Verdict::Replayed));
}

#[test]
fn truncations_are_refused() {
    let bytes = ARTIFACT.as_bytes();
    let mut cuts: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
    // The last newline ends the last op: cutting there loses nothing.
    assert_eq!(cuts.pop(), Some(bytes.len() - 1));
    let mut rng = DetRng::new(0x7C07);
    cuts.extend((0..200).map(|_| rng.range_usize(0, bytes.len() - 1)));
    let cases = cuts
        .iter()
        .map(|&cut| (format!("cut at {cut}"), bytes[..cut].to_vec()));
    assert_eq!(refused(cases), cuts.len(), "a truncated capture loaded");
}

#[test]
fn bit_flips_never_panic_or_shorten_a_replay() {
    let mut rng = DetRng::new(0xB17F);
    refused((0..200).map(|_| {
        let bit = rng.range_usize(0, ARTIFACT.len() * 8);
        let mut bytes = ARTIFACT.as_bytes().to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        (format!("bit {bit} flipped"), bytes)
    }));
}

#[test]
fn inflated_numbers_never_panic_or_shorten_a_replay() {
    let runs = digit_runs();
    let mut rng = DetRng::new(0xD161);
    refused((0..200).map(|_| {
        let (from, to) = runs[rng.range_usize(0, runs.len())];
        // From one digit more to far past any integer type.
        let extra = "9".repeat(rng.range_usize(1, 45));
        let with = format!("{}{extra}", &ARTIFACT[from..to]);
        (
            format!("digits at {from} inflated by {}", extra.len()),
            spliced(from, to, &with),
        )
    }));
}

#[test]
fn u64_max_in_a_size_field_never_panics_or_shortens_a_replay() {
    let max = u64::MAX.to_string();
    let runs = digit_runs();
    let mut cases = Vec::new();
    for key in [
        "size",
        "len",
        "pos",
        "budget",
        "cmd_queue_capacity",
        "tenant",
    ] {
        let label = format!("\"{key}\":");
        let hits: Vec<(usize, usize)> = runs
            .iter()
            .copied()
            .filter(|&(from, _)| ARTIFACT[..from].ends_with(&label))
            .collect();
        assert!(!hits.is_empty(), "the artifact has no {key} field");
        // First, middle and last: the header's or setup's, and ops'.
        for &(from, to) in [hits[0], hits[hits.len() / 2], hits[hits.len() - 1]].iter() {
            cases.push((
                format!("{key} at {from} = u64::MAX"),
                spliced(from, to, &max),
            ));
        }
    }
    refused(cases);
}
