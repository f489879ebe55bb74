//! A hostile artifact, end to end: the committed capture, damaged in
//! seeded ways, goes through `CaptureFile::parse` → `build_kernel` →
//! `replay` → `diff_captures`. Every case must end in a typed `Err` or in a
//! complete replay of every op the header declares — never a panic, never
//! a quietly shorter replay.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sleds_faults::FaultPlan;
use sleds_replay::{
    build_kernel, diff_captures, replay, CandidateConfig, CaptureFile, SetupStep, WorkloadSpec,
};
use sleds_sim_core::{DetRng, SimDuration, SimTime};

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
        // The diff reads every op's figures on both sides.
        Ok(match diff_captures(&file.capture, &replayed.capture) {
            Ok(_) => Verdict::Replayed,
            Err(_) => Verdict::Refused,
        })
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
        "queue_wait_ns",
        "service_ns",
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

/// The first op line that reached a device, and the offset it starts at.
fn first_device_op() -> (usize, &'static str) {
    let mut at = 0;
    for line in ARTIFACT.split_inclusive('\n') {
        if line.contains("\"classes\":[{") {
            return (at, line.trim_end());
        }
        at += line.len();
    }
    panic!("no op in the artifact reached a device");
}

#[test]
fn op_totals_that_are_not_their_class_rows_summed_are_refused() {
    let (at, line) = first_device_op();
    let mut op = line.to_string();
    // The op's totals come before its class rows, so the first hit of
    // each key is the total.
    for key in ["\"queue_wait_ns\":", "\"service_ns\":"] {
        let from = op.find(key).unwrap() + key.len();
        let digits = op[from..].bytes().take_while(u8::is_ascii_digit).count();
        op.replace_range(from..from + digits, &i64::MAX.to_string());
    }
    let bytes = spliced(at, at + line.len(), &op);
    assert_eq!(judge(&bytes), Ok(Verdict::Refused));
}

#[test]
fn class_rows_that_do_not_ascend_strictly_are_refused() {
    let (at, line) = first_device_op();
    let rows = line.split("\"classes\":[{\"class\":").nth(1).unwrap();
    let class: u64 = rows.split(',').next().unwrap().parse().unwrap();
    assert!(class > 0);
    // A zero row leaves the op's totals right: only the order is wrong.
    for (what, extra) in [("duplicate", class), ("descending", class - 1)] {
        let row = format!(
            ",{{\"class\":{extra},\"commands\":0,\"queue_wait_ns\":0,\"service_ns\":0,\"bytes\":0}}"
        );
        let end = line.rfind(']').unwrap();
        let op = format!("{}{row}{}", &line[..end], &line[end..]);
        let bytes = spliced(at, at + line.len(), &op);
        assert_eq!(judge(&bytes), Ok(Verdict::Refused), "{what} class row");
    }
}

/// A spec that mounts only `hda`.
fn one_disk() -> WorkloadSpec {
    let mut spec = WorkloadSpec::new("table2");
    spec.setup = vec![
        SetupStep::Mkdir { path: "/d".into() },
        SetupStep::MountDisk {
            path: "/d".into(),
            model: "table2_disk".into(),
            name: "hda".into(),
        },
    ];
    spec
}

#[test]
fn a_fault_plan_on_a_device_no_step_creates_is_refused() {
    let ns = SimTime::from_nanos;
    let mistyped = FaultPlan::new().degraded("hdz", ns(0), ns(1_000), 2.0);
    let mut spec = one_disk();
    spec.fault_plan = mistyped.clone();
    let Err(err) = build_kernel(&spec) else {
        panic!("a plan on a device no step creates built");
    };
    assert!(err.contains("\"hdz\""), "{err}");
    spec.fault_plan = FaultPlan::new().degraded("hda", ns(0), ns(1_000), 2.0);
    assert!(build_kernel(&spec).is_ok());
    // A what-if candidate's plan goes through the same door: with the
    // mistyped name it would replay as the identity.
    let candidate = CandidateConfig {
        fault_plan: Some(mistyped),
        ..CandidateConfig::default()
    };
    let Err(err) = replay(&CaptureFile::parse(ARTIFACT).unwrap(), &candidate) else {
        panic!("a what-if on a device no step creates replayed");
    };
    assert!(err.contains("\"hdz\""), "{err}");
}

#[test]
fn two_devices_of_one_name_are_refused() {
    let disk = |path: &str, name: &str| SetupStep::MountDisk {
        path: path.into(),
        model: "table2_disk".into(),
        name: name.into(),
    };
    let mirror = |names: [&str; 2]| SetupStep::MountVolume {
        path: "/v".into(),
        layout: sleds_fs::VolumeLayout::Mirrored,
        members: names.map(|n| ("table2_disk".into(), n.into())).to_vec(),
    };
    let mkdirs = [
        SetupStep::Mkdir { path: "/e".into() },
        SetupStep::Mkdir { path: "/v".into() },
    ];
    // Across steps and within one: a fault on `hda` would land on both.
    for (extra, twice) in [(disk("/e", "hda"), "hda"), (mirror(["m", "m"]), "m")] {
        let mut spec = one_disk();
        spec.setup.extend(mkdirs.clone());
        spec.setup.push(extra);
        let Err(err) = build_kernel(&spec) else {
            panic!("two devices named {twice} built");
        };
        assert!(err.contains(&format!("{twice:?}")), "{err}");
    }
    let mut spec = one_disk();
    spec.setup.extend(mkdirs);
    spec.setup.extend([disk("/e", "hdb"), mirror(["m0", "m1"])]);
    assert!(build_kernel(&spec).is_ok());
}

#[test]
fn a_model_under_a_step_of_another_class_is_refused() {
    let s = |x: &str| x.to_string();
    let disk = |m: &str| SetupStep::MountDisk {
        path: s("/d"),
        model: s(m),
        name: s("d0"),
    };
    let nfs = |m: &str| SetupStep::MountNfs {
        path: s("/d"),
        model: s(m),
        name: s("d0"),
    };
    let cdrom = |m: &str| SetupStep::MountCdrom {
        path: s("/d"),
        model: s(m),
        name: s("d0"),
    };
    let hsm = |disk: &str, tape: &str| SetupStep::MountHsm {
        path: s("/d"),
        disk_model: s(disk),
        disk_name: s("d0"),
        tape_model: s(tape),
        tape_name: s("t0"),
        chunk_pages: 16,
    };
    let mirror = |m: &str| SetupStep::MountVolume {
        path: s("/d"),
        layout: sleds_fs::VolumeLayout::Mirrored,
        members: vec![(s("table2_disk"), s("d0")), (s(m), s("d1"))],
    };
    for (step, builds) in [
        (disk("table3_disk"), true),
        (disk("dlt"), false),
        (disk("table2_mount"), false),
        (disk("bogus"), false),
        (nfs("nfs_metro"), true),
        (nfs("table2_disk"), false),
        (cdrom("table2_drive"), true),
        (cdrom("table2_disk"), false),
        (hsm("table2_disk", "dlt"), true),
        (hsm("dlt", "dlt"), false),
        (hsm("table2_disk", "table2_disk"), false),
        (mirror("nfs_continental"), true),
        (mirror("table2_drive"), false),
        (mirror("dlt"), false),
    ] {
        let mut spec = WorkloadSpec::new("table2");
        spec.setup = vec![SetupStep::Mkdir { path: s("/d") }, step.clone()];
        assert_eq!(build_kernel(&spec).is_ok(), builds, "{step:?}");
    }
}

#[test]
fn a_fault_window_that_does_not_end_after_it_starts_is_refused_on_load() {
    let mut file = CaptureFile::parse(ARTIFACT).unwrap();
    for (end, refused) in [(100, true), (500, true), (501, false)] {
        let (start, cost) = (SimTime::from_nanos(500), SimDuration::from_nanos(10));
        let end = SimTime::from_nanos(end);
        file.spec.fault_plan = FaultPlan::new().offline("hda", start, end, cost);
        let text = file.to_jsonl();
        match CaptureFile::parse(&text) {
            Err(err) => {
                assert!(refused, "{end:?}: {err}");
                assert!(err.contains("hda window 0: end_ns"), "{err}");
                assert_eq!(judge(text.as_bytes()), Ok(Verdict::Refused));
            }
            Ok(_) => assert!(!refused, "a window ending at {end:?} loaded"),
        }
    }
}

#[test]
fn hostile_base64_payloads_are_refused_each_with_its_own_error() {
    // The artifact plus one installed file, whose payload is then damaged.
    let mut file = CaptureFile::parse(ARTIFACT).unwrap();
    file.spec.setup.push(SetupStep::InstallFile {
        path: "/disk/hello".to_string(),
        data: b"Hello"[..].into(),
    });
    let text = file.to_jsonl();
    let good = r#""data":"SGVsbG8=""#;
    assert_eq!(text.matches(good).count(), 1);
    assert_eq!(judge(text.as_bytes()), Ok(Verdict::Replayed));
    for (payload, err) in [
        ("SGVsbG8", "has length 7, not a multiple of 4"),
        ("SGVsbG8==", "has length 9, not a multiple of 4"),
        ("SG=sbG8=", "padding at offset 2 before the end"),
        ("SGVs=G8=", "padding at offset 4 before the end"),
        ("A=B=", "padding at offset 1 before the end"),
        ("A===", "padding at offset 1 before the end"),
        ("====", "padding at offset 0 before the end"),
        ("QR==", "pad bits are not zero"),
        ("QUK=", "pad bits are not zero"),
        // The URL-safe alphabet, and other bytes outside the standard one.
        ("SGVs-G8_", "bad base64 byte 0x2d at offset 4"),
        ("SGVsbG8_", "bad base64 byte 0x5f at offset 7"),
        ("SGVs*G8=", "bad base64 byte 0x2a at offset 4"),
        ("SGVs\\G8=", "bad base64 byte 0x5c at offset 4"),
        ("SGVs\u{20ac}=", "bad base64 byte 0xe2 at offset 4"),
        ("SGVs bG8", "bad base64 byte 0x20 at offset 4"),
    ] {
        let bad = text.replacen(good, &format!(r#""data":"{payload}""#), 1);
        let got = CaptureFile::parse(&bad).map(drop).unwrap_err();
        assert!(
            got.contains("base64 string at offset") && got.contains(err),
            "{payload:?}: {got}"
        );
        assert_eq!(judge(bad.as_bytes()), Ok(Verdict::Refused), "{payload:?}");
    }
}
