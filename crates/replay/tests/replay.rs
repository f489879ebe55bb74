//! Integration tests for the flight recorder: capture serialization,
//! lossless-capture guarantees, deterministic replay, and diff exactness.

use std::collections::BTreeSet;
use std::sync::Arc;

use sleds_faults::FaultPlan;
use sleds_fs::trace::CostRow;
use sleds_fs::{
    Capture, CapturedOp, Fd, Kernel, OpOutcome, OpenFlags, SledsTable, SubmissionRing, Syscall,
    TenantId, VolumeLayout, Whence,
};
use sleds_replay::{
    build_kernel, diff_captures, replay, CandidateConfig, CaptureFile, DiffError, SetupStep,
    WorkloadSpec,
};
use sleds_sim_core::{Errno, SimDuration, SimTime, PAGE_SIZE};

/// A small but representative environment: one disk mount, one NFS
/// mount, a few files, cold caches.
fn small_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::new("table2");
    spec.setup = vec![
        SetupStep::Mkdir { path: "/d".into() },
        SetupStep::Mkdir { path: "/n".into() },
        SetupStep::MountDisk {
            path: "/d".into(),
            model: "table2_disk".into(),
            name: "hda".into(),
        },
        SetupStep::MountNfs {
            path: "/n".into(),
            model: "table2_mount".into(),
            name: "nfs0".into(),
        },
        SetupStep::InstallSparseFile {
            path: "/d/f".into(),
            size: 16 * PAGE_SIZE,
        },
        SetupStep::InstallSparseFile {
            path: "/n/g".into(),
            size: 4 * PAGE_SIZE,
        },
        SetupStep::DropCaches,
    ];
    spec
}

/// Drives a mixed workload: two tenants with think gaps, reads on both
/// mounts, a write + fsync, metadata ops, and a submission ring.
fn drive(k: &mut Kernel) {
    let t = k.tenant_register("worker");

    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    k.pread(fd, 0, PAGE_SIZE as usize).unwrap();
    k.charge_cpu(SimDuration::from_nanos(2_000_000));
    k.pread(fd, 4 * PAGE_SIZE, PAGE_SIZE as usize).unwrap();
    k.stat("/d/f").unwrap();

    k.tenant_switch(t).unwrap();
    let nfd = k.open("/n/g", OpenFlags::RDONLY).unwrap();
    k.pread(nfd, 0, PAGE_SIZE as usize).unwrap();
    k.close(nfd).unwrap();

    k.tenant_switch(TenantId(0)).unwrap();
    let wfd = k.open("/d/w", OpenFlags::CREATE_RDWR).unwrap();
    k.write(wfd, &[7u8; 300]).unwrap();
    k.fsync(wfd).unwrap();
    k.close(wfd).unwrap();

    // An op that fails — the outcome (errno) must round-trip too.
    assert!(k.open("/d/missing", OpenFlags::RDONLY).is_err());

    let mut ring = SubmissionRing::new(8);
    ring.push(
        1,
        Syscall::Stat {
            path: "/d/f".into(),
        },
    )
    .unwrap();
    ring.push(
        2,
        Syscall::Pread {
            fd,
            pos: 8 * PAGE_SIZE,
            len: PAGE_SIZE as usize,
        },
    )
    .unwrap();
    k.ring_enter(&mut ring).unwrap();
    assert_eq!(k.ring_reap(&mut ring).len(), 2);

    k.close(fd).unwrap();
}

fn capture_small() -> CaptureFile {
    let spec = small_spec();
    let mut k = build_kernel(&spec).unwrap();
    k.start_capture(256);
    drive(&mut k);
    let capture = k.stop_capture().unwrap();
    assert!(capture.complete, "small workload must fit the budget");
    CaptureFile { spec, capture }
}

#[test]
fn capture_roundtrips_through_jsonl_byte_identically() {
    let file = capture_small();
    let text = file.to_jsonl();
    let parsed = CaptureFile::parse(&text).expect("parse own serialization");
    assert_eq!(parsed.to_jsonl(), text, "serialize∘parse must be identity");
}

#[test]
fn capture_is_deterministic_across_fresh_kernels() {
    let a = capture_small().to_jsonl();
    let b = capture_small().to_jsonl();
    assert_eq!(a, b, "same workload on fresh kernels ⇒ identical capture");
}

#[test]
fn identity_replay_reproduces_the_capture_byte_for_byte() {
    let file = capture_small();
    let replayed = replay(&file, &CandidateConfig::identity()).expect("identity replay");
    assert_eq!(
        replayed.into_file().to_jsonl(),
        file.to_jsonl(),
        "identity replay must be byte-identical"
    );
}

#[test]
fn an_identity_replay_shares_every_write_payload_with_its_source() {
    let file = capture_small();
    let writes = |cap: &Capture| -> Vec<Arc<[u8]>> {
        cap.ops
            .iter()
            .filter_map(|op| match &op.call {
                Syscall::Write { data, .. } => Some(Arc::clone(data)),
                _ => None,
            })
            .collect()
    };
    // The typed `write` recorded a copy of the bytes it was given.
    let source = writes(&file.capture);
    assert_eq!(source.len(), 1);
    assert_eq!(*source[0], [7u8; 300]);
    // `Kernel::syscall` recorded the call it was given: the same buffer.
    let replayed = replay(&file, &CandidateConfig::identity()).expect("identity replay");
    let again = writes(&replayed.capture);
    assert_eq!(again.len(), source.len());
    for (a, b) in source.iter().zip(&again) {
        assert!(Arc::ptr_eq(a, b), "a replayed write copied its payload");
    }
}

#[test]
fn a_capture_armed_after_uncaptured_work_is_refused() {
    // The stat is work the recorder never saw: the capture's base sits one
    // trap past where `build_kernel` leaves the clock, and a replay from
    // the rebuilt kernel would land every op one trap early.
    let spec = small_spec();
    let mut k = build_kernel(&spec).unwrap();
    k.stat("/d/f").unwrap();
    k.start_capture(256);
    drive(&mut k);
    let capture = k.stop_capture().unwrap();
    assert!(capture.complete);
    let file = CaptureFile { spec, capture };
    let Err(err) = replay(&file, &CandidateConfig::identity()) else {
        panic!("a capture armed after uncaptured work replayed, shifted");
    };
    assert!(err.contains("base_ns"), "{err}");
}

/// The committed artifact `scripts/check.sh` regenerates and diffs.
const COMMITTED: &str = include_str!("../../../results/CAPTURE_saturation.jsonl");

#[test]
fn the_committed_capture_roundtrips_and_replays_byte_identically() {
    let file = CaptureFile::parse(COMMITTED).expect("committed capture loads");
    assert!(file.capture.ops.len() > 100, "the saturation workload");
    assert_eq!(
        file.to_jsonl(),
        COMMITTED,
        "serialize∘parse must be identity"
    );
    // Ops that name one path share one `Arc`, as the recorder's do.
    let paths: Vec<&Arc<str>> = file.capture.ops.iter().flat_map(|op| &op.path).collect();
    let shared = |a: &Arc<str>, b: &Arc<str>| a == b && Arc::ptr_eq(a, b);
    let distinct: BTreeSet<&str> = paths.iter().map(|p| &***p).collect();
    assert!(distinct.len() < paths.len());
    for a in &paths {
        assert!(paths.iter().all(|b| (a == b) == shared(a, b)), "{a}");
    }
    let replayed = replay(&file, &CandidateConfig::identity()).expect("identity replay");
    assert_eq!(replayed.into_file().to_jsonl(), COMMITTED);
}

#[test]
fn overflowed_capture_is_marked_incomplete_and_refused() {
    let spec = small_spec();
    let mut k = build_kernel(&spec).unwrap();
    k.start_capture(3);
    drive(&mut k);
    let capture = k.stop_capture().unwrap();
    assert!(!capture.complete, "budget 3 must overflow");
    let reason = capture.incomplete_reason.clone().unwrap();
    assert!(
        reason.contains("budget"),
        "reason names the overflow: {reason}"
    );

    let file = CaptureFile { spec, capture };
    // Incompleteness survives serialization...
    let parsed = CaptureFile::parse(&file.to_jsonl()).unwrap();
    assert!(!parsed.capture.complete);
    // ...and the replayer refuses it loudly.
    let err = match replay(&parsed, &CandidateConfig::identity()) {
        Err(e) => e,
        Ok(_) => panic!("incomplete capture must be refused"),
    };
    assert!(err.contains("incomplete"), "refusal names the cause: {err}");
}

#[test]
fn unsupported_call_poisons_the_capture() {
    let spec = small_spec();
    let mut k = build_kernel(&spec).unwrap();
    k.start_capture(256);
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    k.pread(fd, 0, PAGE_SIZE as usize).unwrap();
    // drop_caches is a setup helper, not a replayable syscall: recording
    // must poison rather than silently skip it.
    k.drop_caches().unwrap();
    k.close(fd).unwrap();
    let capture = k.stop_capture().unwrap();
    assert!(!capture.complete, "unsupported call must poison");
    let reason = capture.incomplete_reason.unwrap();
    assert!(
        reason.contains("drop_caches"),
        "reason names the call: {reason}"
    );
}

#[test]
fn parse_rejects_unknown_schema_and_truncation() {
    let file = capture_small();
    let text = file.to_jsonl();

    // Earlier schemas are as unknown as a future one: v2's `data_fold`
    // values were FNV-1a and would fail every identity replay, and v3's
    // payloads are hex, which no longer decodes.
    for other in ["sleds-capture-v2", "sleds-capture-v3", "sleds-capture-v9"] {
        let bad = text.replacen(sleds_fs::CAPTURE_SCHEMA, other, 1);
        assert_ne!(bad, text);
        let err = CaptureFile::parse(&bad).unwrap_err();
        assert!(err.contains("unknown capture schema"), "{other}: {err}");
    }

    let mut lines: Vec<&str> = text.lines().collect();
    lines.pop();
    let truncated = lines.join("\n");
    assert!(
        CaptureFile::parse(&truncated).is_err(),
        "op-count mismatch (truncated tail) rejected"
    );
}

#[test]
fn whatif_diff_attributes_every_delta_exactly() {
    let file = capture_small();
    let horizon = file
        .capture
        .ops
        .iter()
        .map(|o| o.outcome.complete_ns)
        .max()
        .unwrap();
    let candidate = CandidateConfig {
        machine: None,
        cmd_queue_capacity: None,
        fault_plan: Some(FaultPlan::new().degraded(
            "hda",
            SimTime::from_nanos(0),
            SimTime::from_nanos(horizon * 2 + 1),
            3.0,
        )),
        hedge: None,
    };
    let replayed = replay(&file, &candidate).expect("what-if replay");
    let cand_file = replayed.into_file();
    let diff = diff_captures(&file.capture, &cand_file.capture).expect("diff");

    assert_eq!(diff.ops.len(), file.capture.ops.len());
    assert_eq!(
        diff.exact_ops,
        diff.ops.len() as u64,
        "degraded-only candidate: queue-wait + service must explain every op"
    );
    assert!(
        diff.total.d_latency_ns > 0,
        "slower disk must move total latency"
    );
    for op in &diff.ops {
        assert_eq!(
            op.residual_ns, 0,
            "op {} ({}) has unattributed latency",
            op.seq, op.call
        );
    }
    // The NFS mount is untouched by the disk fault; its class row (and
    // the ops that only touch it) must not move.
    if let Some(nfs) = diff.classes.get(&3) {
        assert_eq!(nfs.d_latency_ns, 0, "nfs class must be unmoved");
    }

    // Diffing is itself deterministic.
    let again = diff_captures(&file.capture, &cand_file.capture).expect("re-diff");
    assert_eq!(
        diff.to_json("base", "cand"),
        again.to_json("base", "cand"),
        "same inputs ⇒ byte-identical diff report"
    );
}

#[test]
fn diff_refuses_structurally_different_captures() {
    let full = capture_small();

    let spec = small_spec();
    let mut k = build_kernel(&spec).unwrap();
    k.start_capture(256);
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    k.close(fd).unwrap();
    let capture = k.stop_capture().unwrap();
    let short = CaptureFile { spec, capture };

    assert!(
        diff_captures(&full.capture, &short.capture).is_err(),
        "op-count mismatch must refuse, not zip-truncate"
    );
}

#[test]
fn diff_refuses_figures_past_the_integer_range() {
    let base = file_of(Syscall::Fsync { fd: Fd(3) }).capture;
    let big = i64::MAX as u64;
    let with = |latency: u64, queue_wait_ns: u64, service_ns: u64| {
        let mut c = base.clone();
        let op = &mut c.ops[0];
        op.outcome.complete_ns = op.submit_ns + latency;
        op.outcome.classes[0].1 = CostRow {
            queue_wait_ns,
            service_ns,
            ..CostRow::default()
        };
        c
    };
    let overflows = |b: &Capture, c: &Capture, at: u64| match diff_captures(b, c) {
        Err(DiffError::Overflow { seq, .. }) => assert_eq!(seq, at),
        other => panic!("op {at}: expected an overflow, got {:?}", other.err()),
    };
    // Each delta fits an i64; the residual they leave does not.
    overflows(&with(0, 0, 0), &with(0, big, big), 0);
    // The queue-wait delta alone leaves the range.
    overflows(&with(0, 0, 0), &with(0, u64::MAX, 0), 0);
    // Both sides' deltas fit, but a class row's wait + service does not.
    overflows(&with(0, u64::MAX - 5, 10), &with(0, u64::MAX, 10), 0);
    // Two ops each within range whose latency deltas sum past it.
    let twice = |latency| {
        let mut c = with(latency, 0, 0);
        c.ops.push(CapturedOp {
            seq: 1,
            ..c.ops[0].clone()
        });
        c
    };
    overflows(&twice(0), &twice(big), 1);
}

#[test]
fn candidate_machine_table_changes_cpu_pricing() {
    let file = capture_small();
    let candidate = CandidateConfig {
        machine: Some("table3".into()),
        cmd_queue_capacity: None,
        fault_plan: None,
        hedge: None,
    };
    let replayed = replay(&file, &candidate).expect("table3 replay");
    assert_eq!(replayed.spec.machine, "table3");
    let cand_file = replayed.into_file();
    assert_ne!(
        cand_file.to_jsonl(),
        file.to_jsonl(),
        "a different SLED table must reprice the workload"
    );
    // Structure still pairs: the diff engine accepts it.
    diff_captures(&file.capture, &cand_file.capture).expect("cross-table diff");
}

/// A capture file holding exactly `call`, with every outcome field set to
/// a distinct value so a dropped or swapped field shows.
fn file_of(call: Syscall) -> CaptureFile {
    let op = CapturedOp {
        seq: 0,
        tenant: 2,
        submit_ns: 1_000,
        fault_epoch: 3,
        path: call.fd().map(|_| "/d/\"quoted\"".into()),
        call,
        outcome: OpOutcome {
            ok: false,
            errno: Some(Errno::Eio),
            ret: 4,
            data_len: 5,
            data_fold: u64::MAX,
            complete_ns: 6_000,
            classes: vec![(
                1,
                CostRow {
                    commands: 1,
                    bytes: 4096,
                    queue_wait_ns: 7,
                    service_ns: 8,
                },
            )],
            hedges: 9,
        },
    };
    CaptureFile {
        spec: small_spec(),
        capture: Capture {
            complete: true,
            incomplete_reason: None,
            budget: 16,
            base_ns: 500,
            ops: vec![op],
        },
    }
}

#[test]
fn every_capturable_variant_roundtrips_through_the_codec() {
    let fd = Fd(7);
    let path = || "/d/a \"b\"\\c".to_string();
    let ring_ops = vec![
        (
            u64::MAX,
            Syscall::Open {
                path: path(),
                flags: OpenFlags::RDONLY,
            },
        ),
        (1, Syscall::Stat { path: path() }),
        (2, Syscall::Pread { fd, pos: 3, len: 4 }),
        (3, Syscall::Close { fd }),
    ];
    let variants = vec![
        Syscall::TenantRegister {
            name: "t\n1".into(),
        },
        Syscall::Open {
            path: path(),
            flags: OpenFlags {
                append: true,
                ..OpenFlags::CREATE_RDWR
            },
        },
        Syscall::Close { fd },
        Syscall::Lseek {
            fd,
            offset: i64::MIN,
            whence: Whence::Set,
        },
        Syscall::Lseek {
            fd,
            offset: 1,
            whence: Whence::Cur,
        },
        Syscall::Lseek {
            fd,
            offset: -1,
            whence: Whence::End,
        },
        Syscall::Read { fd, len: 4096 },
        Syscall::Pread {
            fd,
            pos: u64::MAX,
            len: 0,
        },
        Syscall::Write {
            fd,
            data: (0..=255).collect(),
        },
        Syscall::Fsync { fd },
        Syscall::Stat { path: path() },
        Syscall::Fstat { fd },
        Syscall::Mkdir { path: path() },
        Syscall::Readdir { path: path() },
        Syscall::Unlink { path: path() },
        Syscall::RingEnter {
            capacity: 64,
            ops: ring_ops,
        },
        Syscall::RingEnter {
            capacity: 1,
            ops: Vec::new(),
        },
    ];
    let mut names: Vec<&str> = variants.iter().map(Syscall::name).collect();
    names.dedup();
    assert_eq!(names.len(), 14, "one case at least per capturable variant");
    for call in variants {
        let name = call.name();
        let file = file_of(call);
        let text = file.to_jsonl();
        let parsed = CaptureFile::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            parsed.capture, file.capture,
            "{name}: parse ∘ to_jsonl = id"
        );
        assert_eq!(parsed.to_jsonl(), text, "{name}: to_jsonl ∘ parse = id");
    }
}

#[test]
fn the_uncapturable_variant_is_rejected_on_load() {
    let call = Syscall::FsledsGet {
        fd: Fd(3),
        pricing: SledsTable::new(),
    };
    let name = call.name();
    // Top level, and nested where a recorder would have filed it.
    let nested = Syscall::RingEnter {
        capacity: 4,
        ops: vec![(0, call.clone())],
    };
    for call in [call, nested] {
        let err = CaptureFile::parse(&file_of(call).to_jsonl()).unwrap_err();
        assert!(err.contains(name), "{err}");
    }
}

#[test]
fn parse_rejects_an_unknown_whence_code() {
    let text = file_of(Syscall::Lseek {
        fd: Fd(3),
        offset: 0,
        whence: Whence::End,
    })
    .to_jsonl();
    let bad = text.replacen("\"whence\":2", "\"whence\":3", 1);
    assert_ne!(bad, text);
    assert!(CaptureFile::parse(&bad).unwrap_err().contains("whence"));
}

#[test]
fn every_errno_roundtrips_and_an_unknown_one_names_its_line() {
    let mut file = file_of(Syscall::Fsync { fd: Fd(3) });
    for errno in Errno::ALL {
        file.capture.ops[0].outcome.errno = Some(errno);
        let text = file.to_jsonl();
        assert!(text.contains(&format!("\"errno\":\"{}\"", errno.name())));
        let back = CaptureFile::parse(&text).unwrap();
        assert_eq!(back.capture.ops[0].outcome.errno, Some(errno));
    }
    let text = file.to_jsonl();
    for bad in ["BANANA", "etimedout", ""] {
        let bad_text = text.replacen(
            "\"errno\":\"ETIMEDOUT\"",
            &format!("\"errno\":\"{bad}\""),
            1,
        );
        assert_ne!(bad_text, text);
        let err = CaptureFile::parse(&bad_text).unwrap_err();
        assert!(
            err.contains("op line 2") && err.contains(&format!("unknown errno {bad:?}")),
            "{err}"
        );
    }
}

#[test]
fn duplicate_keys_are_refused_in_the_header_and_in_an_op() {
    let text = file_of(Syscall::Fsync { fd: Fd(3) }).to_jsonl();
    // Last-one-wins would quietly replay 16 ops' budget as 1, or the op
    // as another tenant's. The second copy sits where the writer's next
    // key belongs.
    for (from, to, want) in [
        (
            "\"budget\":16,",
            "\"budget\":16,\"budget\":1,",
            "header: expected key \"base_ns\" at offset 82",
        ),
        (
            "\"tenant\":2,",
            "\"tenant\":2,\"tenant\":0,",
            "op line 2: expected key \"submit_ns\" at offset 20",
        ),
        (
            "\"ret\":4,",
            "\"ret\":4,\"ret\":5,",
            "op line 2: expected key \"data_len\" at offset 149",
        ),
    ] {
        let bad = text.replacen(from, to, 1);
        assert_ne!(bad, text);
        assert_eq!(CaptureFile::parse(&bad).unwrap_err(), want, "{to}");
    }
}

#[test]
fn keys_the_schema_does_not_define_and_non_canonical_integers_are_refused() {
    let mut file = file_of(Syscall::RingEnter {
        capacity: 4,
        ops: vec![(
            1,
            Syscall::Pread {
                fd: Fd(3),
                pos: 0,
                len: 4,
            },
        )],
    });
    file.spec.setup.push(SetupStep::MountVolume {
        path: "/v".into(),
        layout: VolumeLayout::Mirrored,
        members: vec![
            ("table2_disk".into(), "v0".into()),
            ("nfs_metro".into(), "v1".into()),
        ],
    });
    file.spec.fault_plan =
        FaultPlan::new().degraded("hda", SimTime::from_nanos(10), SimTime::from_nanos(20), 2.5);
    let text = file.to_jsonl();
    assert_eq!(CaptureFile::parse(&text).unwrap().to_jsonl(), text);
    // A key the writer never puts there is refused where it stands: the
    // error names the line, the offset and the key the writer puts next.
    for (from, to, want) in [
        (
            "\"budget\":16,",
            "\"budget\":16,\"bogus\":1,",
            "header: expected key \"base_ns\" at offset 82",
        ),
        (
            "{\"step\":\"mkdir\",",
            "{\"step\":\"mkdir\",\"bogus\":1,",
            "header: expected key \"path\" at offset 257",
        ),
        // A key of another variant counts.
        (
            "{\"step\":\"mkdir\",",
            "{\"step\":\"mkdir\",\"size\":1,",
            "header: expected key \"path\" at offset 257",
        ),
        (
            "\"layout\":\"mirrored\",",
            "\"layout\":\"mirrored\",\"k\":2,",
            "header: expected key \"members\" at offset 632",
        ),
        (
            "{\"model\":\"nfs_metro\",",
            "{\"model\":\"nfs_metro\",\"x\":1,",
            "header: expected key \"name\" at offset 700",
        ),
        (
            "{\"dev\":\"hda\",",
            "{\"dev\":\"hda\",\"bogus\":1,",
            "header: expected key \"windows\" at offset 739",
        ),
        (
            "{\"kind\":\"degraded\",",
            "{\"kind\":\"degraded\",\"x\":1,",
            "header: hda window 0: expected key \"start_ns\" at offset 769",
        ),
        (
            "{\"kind\":\"degraded\",",
            "{\"kind\":\"degraded\",\"budget\":1,",
            "header: hda window 0: expected key \"start_ns\" at offset 769",
        ),
        (
            "\"seq\":0,",
            "\"seq\":0,\"bogus\":7,",
            "op line 2: expected key \"tenant\" at offset 9",
        ),
        (
            "{\"op\":\"ring_enter\",",
            "{\"op\":\"ring_enter\",\"x\":1,",
            "op line 2: expected key \"capacity\" at offset 91",
        ),
        (
            "{\"user_data\":1,",
            "{\"user_data\":1,\"bogus\":1,",
            "op line 2: expected key \"call\" at offset 126",
        ),
        (
            "{\"op\":\"pread\",",
            "{\"op\":\"pread\",\"path\":\"/d\",",
            "op line 2: expected key \"fd\" at offset 147",
        ),
        (
            "\"ok\":false,",
            "\"ok\":false,\"bogus\":1,",
            "op line 2: expected key \"errno\" at offset 196",
        ),
        (
            "{\"class\":1,",
            "{\"class\":1,\"bogus\":1,",
            "op line 2: expected key \"commands\" at offset 389",
        ),
        // The tag says which keys follow it, so it comes first.
        (
            "{\"op\":\"pread\",",
            "{\"fd\":3,\"op\":\"pread\",",
            "op line 2: expected key \"op\" at offset 134",
        ),
        // Integers are read in the form the writer prints them.
        (
            "\"seq\":0,",
            "\"seq\":-0,",
            "op line 2: negative integer at offset 7 where an unsigned one belongs",
        ),
        (
            "\"tenant\":2,",
            "\"tenant\":0002,",
            "op line 2: integer at offset 18: leading zero",
        ),
        (
            "\"budget\":16,",
            "\"budget\":016,",
            "header: integer at offset 79: leading zero",
        ),
    ] {
        let bad = text.replacen(from, to, 1);
        assert_ne!(bad, text, "{from}");
        assert_eq!(CaptureFile::parse(&bad).unwrap_err(), want, "{to}");
    }
}

#[test]
fn a_header_whose_completeness_and_reason_disagree_is_refused() {
    let text = file_of(Syscall::Fsync { fd: Fd(3) }).to_jsonl();
    let header = "\"complete\":true,\"incomplete_reason\":null,";
    assert!(text.contains(header));
    for (to, want) in [
        // Replayable, though the recorder said why it was not.
        (
            "\"complete\":true,\"incomplete_reason\":\"op budget exceeded\",",
            "header: complete is true but incomplete_reason is Some(\"op budget exceeded\")",
        ),
        (
            "\"complete\":false,\"incomplete_reason\":null,",
            "header: complete is false but incomplete_reason is None",
        ),
    ] {
        let bad = text.replacen(header, to, 1);
        assert_eq!(CaptureFile::parse(&bad).unwrap_err(), want, "{to}");
    }
}

#[test]
fn an_op_whose_seq_is_not_its_index_is_refused() {
    let mut file = file_of(Syscall::Fsync { fd: Fd(3) });
    let second = CapturedOp {
        seq: 1,
        ..file.capture.ops[0].clone()
    };
    file.capture.ops.push(second);
    let text = file.to_jsonl();
    assert_eq!(CaptureFile::parse(&text).unwrap().to_jsonl(), text);
    // Diffs name an op by the base's `seq`: a renumbered op would be
    // reported as another.
    for (from, to, want) in [
        (
            "{\"seq\":0,",
            "{\"seq\":1,",
            "op line 2: seq 1 is not the op's index 0",
        ),
        (
            "{\"seq\":1,",
            "{\"seq\":7,",
            "op line 3: seq 7 is not the op's index 1",
        ),
    ] {
        let bad = text.replacen(from, to, 1);
        assert_ne!(bad, text, "{from}");
        assert_eq!(CaptureFile::parse(&bad).unwrap_err(), want, "{to}");
    }
}

#[test]
fn multipliers_that_are_not_finite_and_positive_are_refused() {
    let mut file = file_of(Syscall::Fsync { fd: Fd(3) });
    file.spec.fault_plan =
        FaultPlan::new().degraded("hda", SimTime::from_nanos(10), SimTime::from_nanos(20), 2.5);
    let text = file.to_jsonl();
    assert_eq!(CaptureFile::parse(&text).unwrap().to_jsonl(), text);
    let hedge = format!(
        "\"hedge_deadline_mult_bits\":{}",
        file.spec.hedge.deadline_mult.to_bits()
    );
    let window = format!("\"multiplier_bits\":{}", 2.5f64.to_bits());
    for (field, at) in [(&hedge, "header"), (&window, "hda window 0")] {
        let key = field.split(':').next().unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.5] {
            let bad_text = text.replacen(field.as_str(), &format!("{key}:{}", bad.to_bits()), 1);
            assert_ne!(bad_text, text);
            let err = CaptureFile::parse(&bad_text).unwrap_err();
            assert!(
                err.contains(at) && err.contains("finite positive"),
                "{bad}: {err}"
            );
        }
    }
}
