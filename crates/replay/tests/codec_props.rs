//! Generated round trips through the capture codec: specs over every setup
//! step and every fault-window kind, ops over every capturable call (a ring
//! that nests the others included), every errno, edge values in every
//! numeric field and strings that need escaping. `parse ∘ to_jsonl` must
//! give back the capture, `to_jsonl ∘ parse` the text, and a line cut short
//! anywhere, or with two neighbouring keys of one object swapped, must be
//! refused.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

use std::collections::BTreeSet;
use std::mem::discriminant;
use std::sync::Arc;

use sleds_faults::FaultPlan;
use sleds_fs::trace::CostRow;
use sleds_fs::{
    Capture, CapturedOp, Fd, HedgePolicy, OpOutcome, OpenFlags, Syscall, VolumeLayout, Whence,
};
use sleds_replay::{CaptureFile, SetupStep, WorkloadSpec};
use sleds_sim_core::{check, DetRng, Errno, SimDuration, SimTime};

/// Both ends of the range and the bit that splits it.
const EDGES: [u64; 5] = [0, 1, 1 << 63, u64::MAX - 1, u64::MAX];

/// An edge value, a small one or any one.
fn num(rng: &mut DetRng) -> u64 {
    match rng.range_u64(0, 3) {
        0 => EDGES[rng.range_usize(0, EDGES.len())],
        1 => rng.range_u64(0, 1_000),
        _ => rng.range_u64(0, u64::MAX),
    }
}

fn small(rng: &mut DetRng) -> u32 {
    match rng.range_u64(0, 3) {
        0 => u32::MAX,
        1 => 0,
        _ => rng.range_u64(1, 100) as u32,
    }
}

fn pick<T: Clone>(rng: &mut DetRng, from: &[T]) -> T {
    from[rng.range_usize(0, from.len())].clone()
}

/// A string that needs escaping more often than not: quotes, backslashes,
/// control bytes and text beyond ASCII.
fn text(rng: &mut DetRng) -> String {
    const PIECES: [&str; 11] = [
        "/d", "/", "x", "\"", "\\", "\n", "\t", "\u{1}", "\u{1f}", "π", "—🙂",
    ];
    (0..rng.range_usize(0, 8))
        .map(|_| pick(rng, &PIECES))
        .collect()
}

fn bytes(rng: &mut DetRng) -> Arc<[u8]> {
    let len = rng.range_usize(0, 40);
    payload(rng, len)
}

fn payload(rng: &mut DetRng, len: usize) -> Arc<[u8]> {
    let mut data = vec![0; len];
    rng.fill_bytes(&mut data);
    data.into()
}

/// A positive finite multiplier, extremes included.
fn multiplier(rng: &mut DetRng) -> f64 {
    pick(
        rng,
        &[f64::MIN_POSITIVE, 1e-300, 0.5, 1.0, 2.5, 1e300, f64::MAX],
    )
}

fn step(rng: &mut DetRng) -> SetupStep {
    let (path, model, name) = (text(rng), text(rng), text(rng));
    match rng.range_u64(0, 11) {
        0 => SetupStep::Mkdir { path },
        1 => SetupStep::MountDisk { path, model, name },
        2 => SetupStep::MountNfs { path, model, name },
        3 => SetupStep::MountCdrom { path, model, name },
        4 => SetupStep::MountHsm {
            path,
            disk_model: model,
            disk_name: name,
            tape_model: text(rng),
            tape_name: text(rng),
            chunk_pages: num(rng),
        },
        5 => SetupStep::MountVolume {
            path,
            layout: match rng.range_u64(0, 3) {
                0 => VolumeLayout::Mirrored,
                1 => VolumeLayout::Striped {
                    stripe_pages: num(rng),
                },
                _ => VolumeLayout::Coded { k: small(rng) },
            },
            members: (0..rng.range_usize(0, 4))
                .map(|_| (text(rng), text(rng)))
                .collect(),
        },
        6 => SetupStep::InstallFile {
            path,
            data: bytes(rng),
        },
        7 => SetupStep::InstallSparseFile {
            path,
            size: num(rng),
        },
        8 => SetupStep::WarmFilePages {
            path,
            first_page: num(rng),
            pages: num(rng),
        },
        9 => SetupStep::HsmMigrate {
            path,
            free: rng.chance(0.5),
        },
        _ => SetupStep::DropCaches,
    }
}

/// A plan of every window kind, on devices with awkward names. A window
/// ends after it starts, so `start` stops short of `u64::MAX`.
fn plan(rng: &mut DetRng) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for _ in 0..rng.range_usize(0, 5) {
        let dev = text(rng);
        let start = num(rng).min(u64::MAX - 1);
        let end = SimTime::from_nanos(start + 1 + rng.range_u64(0, u64::MAX - start - 1));
        let start = SimTime::from_nanos(start);
        let cost = SimDuration::from_nanos(num(rng));
        plan = match rng.range_u64(0, 3) {
            0 => plan.transient(&dev, start, end, small(rng), cost),
            1 => plan.degraded(&dev, start, end, multiplier(rng)),
            _ => plan.offline(&dev, start, end, cost),
        };
    }
    plan
}

fn spec(rng: &mut DetRng) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new(&text(rng));
    spec.cmd_queue_capacity = num(rng) as usize;
    spec.hedge = HedgePolicy {
        max_hedges: small(rng),
        deadline_mult: multiplier(rng),
        cancel_cost: SimDuration::from_nanos(num(rng)),
    };
    spec.setup = (0..rng.range_usize(0, 12)).map(|_| step(rng)).collect();
    spec.fault_plan = plan(rng);
    spec
}

/// A capturable call; a ring nests `depth` more levels of them.
fn call(rng: &mut DetRng, depth: usize) -> Syscall {
    let fd = Fd(num(rng));
    let kinds = if depth == 0 { 13 } else { 14 };
    match rng.range_u64(0, kinds) {
        0 => Syscall::TenantRegister { name: text(rng) },
        1 => Syscall::Open {
            path: text(rng),
            flags: OpenFlags {
                read: rng.chance(0.5),
                write: rng.chance(0.5),
                create: rng.chance(0.5),
                truncate: rng.chance(0.5),
                append: rng.chance(0.5),
            },
        },
        2 => Syscall::Close { fd },
        3 => Syscall::Lseek {
            fd,
            offset: match rng.range_u64(0, 3) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => num(rng) as i64,
            },
            whence: pick(rng, &[Whence::Set, Whence::Cur, Whence::End]),
        },
        4 => Syscall::Read {
            fd,
            len: num(rng) as usize,
        },
        5 => Syscall::Pread {
            fd,
            pos: num(rng),
            len: num(rng) as usize,
        },
        6 => Syscall::Write {
            fd,
            data: bytes(rng),
        },
        7 => Syscall::Fsync { fd },
        8 => Syscall::Stat { path: text(rng) },
        9 => Syscall::Fstat { fd },
        10 => Syscall::Mkdir { path: text(rng) },
        11 => Syscall::Readdir { path: text(rng) },
        12 => Syscall::Unlink { path: text(rng) },
        _ => Syscall::RingEnter {
            capacity: num(rng) as usize,
            ops: (0..rng.range_usize(0, 4))
                .map(|_| (num(rng), call(rng, depth - 1)))
                .collect(),
        },
    }
}

fn row(rng: &mut DetRng) -> CostRow {
    CostRow {
        commands: num(rng),
        bytes: num(rng),
        queue_wait_ns: num(rng),
        service_ns: num(rng),
    }
}

/// The op at `seq`, its index in the capture.
fn op(rng: &mut DetRng, seq: u64) -> CapturedOp {
    // Class rows ascend strictly by class.
    let mut ids: Vec<u64> = (0..rng.range_usize(0, 4)).map(|_| num(rng)).collect();
    ids.sort_unstable();
    ids.dedup();
    let classes = ids.into_iter().map(|id| (id, row(rng))).collect();
    CapturedOp {
        seq,
        tenant: num(rng),
        submit_ns: num(rng),
        fault_epoch: num(rng),
        path: rng.chance(0.5).then(|| text(rng).into()),
        call: call(rng, 2),
        outcome: OpOutcome {
            ok: rng.chance(0.5),
            errno: rng.chance(0.7).then(|| pick(rng, &Errno::ALL)),
            ret: num(rng),
            data_len: num(rng),
            data_fold: num(rng),
            complete_ns: num(rng),
            classes,
            hedges: num(rng),
        },
    }
}

fn file(rng: &mut DetRng) -> CaptureFile {
    let ops: Vec<CapturedOp> = (0..rng.range_u64(0, 6)).map(|i| op(rng, i)).collect();
    // A capture carries a reason exactly when it is incomplete.
    let complete = rng.chance(0.5);
    CaptureFile {
        spec: spec(rng),
        capture: Capture {
            complete,
            incomplete_reason: (!complete).then(|| text(rng)),
            budget: num(rng) as usize,
            base_ns: num(rng),
            ops,
        },
    }
}

#[test]
fn every_generated_capture_roundtrips() {
    check::run("every_generated_capture_roundtrips", |rng| {
        let file = file(rng);
        let text = file.to_jsonl();
        let parsed = CaptureFile::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(parsed.capture, file.capture);
        assert_eq!(parsed.to_jsonl(), text);
    });
}

#[test]
fn payloads_of_every_tail_length_and_a_page_roundtrip() {
    // Lengths 0–7 reach each base64 tail (none, `==`, `=`) with zero, one
    // and two whole groups before it; 4096 B is a page.
    let mut rng = DetRng::new(0xB64);
    for len in (0..8).chain([4096]) {
        let data = payload(&mut rng, len);
        let mut spec = WorkloadSpec::new("table2");
        spec.setup.push(SetupStep::InstallFile {
            path: "/d/f".to_string(),
            data: Arc::clone(&data),
        });
        let file = CaptureFile {
            spec,
            capture: Capture {
                complete: true,
                incomplete_reason: None,
                budget: 1,
                base_ns: 0,
                ops: vec![CapturedOp {
                    seq: 0,
                    tenant: 0,
                    submit_ns: 0,
                    fault_epoch: 0,
                    path: None,
                    call: Syscall::Write {
                        fd: Fd(3),
                        data: Arc::clone(&data),
                    },
                    outcome: OpOutcome::default(),
                }],
            },
        };
        let text = file.to_jsonl();
        let parsed = CaptureFile::parse(&text).unwrap_or_else(|e| panic!("{len} B: {e}"));
        assert_eq!(parsed.capture, file.capture, "{len} B");
        match &parsed.spec.setup[..] {
            [SetupStep::InstallFile { data: got, .. }] => assert_eq!(got, &data, "{len} B"),
            other => panic!("{len} B: {other:?}"),
        }
        assert_eq!(parsed.to_jsonl(), text, "{len} B");
    }
}

#[test]
fn the_generators_reach_every_call_errno_step_and_window_kind() {
    // A round trip that never saw a variant proves nothing about it.
    let mut seen = BTreeSet::new();
    let mut rng = DetRng::new(0xC0DEC);
    for _ in 0..2_000 {
        let op = op(&mut rng, 0);
        seen.insert(format!("call {}", op.call.name()));
        seen.insert(format!("errno {:?}", op.outcome.errno));
        seen.insert(format!("step {:?}", discriminant(&step(&mut rng))));
        let plan = plan(&mut rng);
        for dev in plan.device_names() {
            for w in plan.injector_for(dev).unwrap().windows() {
                seen.insert(format!("window {:?}", discriminant(w)));
            }
        }
    }
    let count = |kind: &str| seen.iter().filter(|s| s.starts_with(kind)).count();
    assert_eq!(count("call "), 14, "{seen:?}");
    // Every errno, and none.
    assert_eq!(count("errno "), Errno::ALL.len() + 1);
    assert_eq!(count("step "), 11);
    assert_eq!(count("window "), 3);
}

#[test]
fn every_proper_prefix_of_an_op_line_is_refused() {
    check::run("every_proper_prefix_of_an_op_line_is_refused", |rng| {
        let op = op(rng, 0);
        let one = CaptureFile {
            spec: WorkloadSpec::new("table2"),
            capture: Capture {
                complete: true,
                incomplete_reason: None,
                budget: 1,
                base_ns: 0,
                ops: vec![op],
            },
        };
        let text = one.to_jsonl();
        let (header, line) = text.trim_end().split_once('\n').unwrap();
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            let cut_text = format!("{header}\n{}\n", &line[..cut]);
            match CaptureFile::parse(&cut_text) {
                Ok(_) => panic!("op line cut at {cut} loaded: {:?}", &line[..cut]),
                // An empty line is no op, so the count is short.
                Err(e) if cut == 0 => assert!(e.contains("declares 1 ops"), "{e}"),
                Err(e) => assert!(e.starts_with("op line 2"), "cut at {cut}: {e}"),
            }
        }
    });
}

/// The `(start, end)` byte span of each member (`"key":value`) of one
/// object, in order.
type Members = Vec<(usize, usize)>;

/// Every object on a line of the writer's JSON.
fn objects(line: &str) -> Vec<Members> {
    // Per open bracket: `Some(members, start of the current one)` for an
    // object, `None` for an array.
    let mut open: Vec<Option<(Members, usize)>> = Vec::new();
    let mut done = Vec::new();
    let bytes = line.as_bytes();
    let mut at = 0;
    while at < bytes.len() {
        match bytes[at] {
            b'"' => {
                // Skip the string; a backslash escapes the byte after it.
                at += 1;
                while bytes[at] != b'"' {
                    at += if bytes[at] == b'\\' { 2 } else { 1 };
                }
            }
            b'{' => open.push(Some((Vec::new(), at + 1))),
            b'[' => open.push(None),
            b']' => drop(open.pop()),
            b',' | b'}' => {
                if let Some(Some((members, start))) = open.last_mut() {
                    members.push((*start, at));
                    *start = at + 1;
                }
                if bytes[at] == b'}' {
                    done.extend(open.pop().flatten().map(|(members, _)| members));
                }
            }
            _ => {}
        }
        at += 1;
    }
    done
}

#[test]
fn every_swap_of_two_neighbouring_keys_is_refused_naming_the_expected_key() {
    check::run(
        "every_swap_of_two_neighbouring_keys_is_refused_naming_the_expected_key",
        |rng| {
            let mut file = file(rng);
            if file.capture.ops.is_empty() {
                file.capture.ops.push(op(rng, 0));
            }
            let text = file.to_jsonl();
            let lines: Vec<&str> = text.lines().collect();
            for (at, whose) in [(0, "header"), (1, "op line 2")] {
                let line = lines[at];
                for members in objects(line) {
                    for pair in members.windows(2) {
                        let [(a, a_end), (b, b_end)] = [pair[0], pair[1]];
                        let key = &line[a..line[a + 1..].find('"').unwrap() + a + 2];
                        let swapped = [
                            &line[..a],
                            &line[b..b_end],
                            ",",
                            &line[a..a_end],
                            &line[b_end..],
                        ]
                        .concat();
                        let mut bad = lines.clone();
                        bad[at] = &swapped;
                        let bad = bad.join("\n") + "\n";
                        let Err(err) = CaptureFile::parse(&bad) else {
                            panic!("{whose}: swapped {key} with its neighbour and it loaded");
                        };
                        // The first key out of place is where the writer's
                        // first one of the two belongs.
                        let want = format!("expected key {key} at offset {a}");
                        assert!(
                            err.starts_with(whose) && err.contains(&want),
                            "{want}: {err}"
                        );
                    }
                }
            }
        },
    );
}
