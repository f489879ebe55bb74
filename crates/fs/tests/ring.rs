//! Submission-ring semantics and batched-vs-sequential equivalence.
//!
//! The ring's contract: submission past a full SQ fails with `EAGAIN`, a
//! full CQ defers service to the next enter, every `ring_enter` charges
//! exactly one boundary crossing, and every serviced op returns exactly
//! what its sequential twin returns — same bytes, same errors, same fault
//! behaviour — with rusage differing only by the crossing charges.

#![expect(
    clippy::float_cmp,
    reason = "parity means bit-identical estimates on both sides"
)]

use sleds::{
    compile_latency, fsleds_get, total_delivery_time, AttackPlan, LatencyPredicate, SledsEntry,
    SledsTable,
};
use sleds_devices::{DiskDevice, FaultPlan};
use sleds_fs::machine::RING_OP_CPU;
use sleds_fs::{
    Fd, FileKind, Kernel, OpenFlags, Payload, PickProgram, ProgInst, ProgOrder, SubmissionRing,
    Syscall, SyscallRet, Whence,
};
use sleds_sim_core::{Errno, SimDuration, SimTime, PAGE_SIZE};

/// Disk-backed kernel with a flat (zone-free) table, one cold 24-page file.
fn setup() -> (Kernel, SledsTable, &'static str) {
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    let m = k
        .mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    let dev = k.device_of_mount(m).unwrap();
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t.fill_device(dev, SledsEntry::new(0.018, 9e6));
    k.install_file("/data/f", &vec![7u8; 24 * PAGE_SIZE as usize])
        .unwrap();
    (k, t, "/data/f")
}

fn pread_op(fd: Fd, pos: u64, len: usize) -> Syscall {
    Syscall::Pread { fd, pos, len }
}

#[test]
fn sq_overflow_is_eagain_and_cq_backpressure_defers_service() {
    let (mut k, _, path) = setup();
    let fd = k.open(path, OpenFlags::RDONLY).unwrap();
    let mut ring = SubmissionRing::new(4);

    for i in 0..4 {
        ring.push(i, pread_op(fd, i * PAGE_SIZE, 64)).unwrap();
    }
    let err = ring.push(9, pread_op(fd, 0, 64)).unwrap_err();
    assert_eq!(err.errno, Errno::Eagain);

    // All four fit in the empty CQ.
    assert_eq!(k.ring_enter(&mut ring).unwrap(), 4);

    // CQ now full and unreaped: newly queued ops must wait.
    for i in 0..4 {
        ring.push(10 + i, pread_op(fd, i * PAGE_SIZE, 64)).unwrap();
    }
    assert_eq!(
        k.ring_enter(&mut ring).unwrap(),
        0,
        "CQ full, nothing serviced"
    );

    let reaped = k.ring_reap(&mut ring);
    assert_eq!(reaped.len(), 4);
    assert_eq!(
        reaped.iter().map(|c| c.user_data).collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "completions arrive in submission order"
    );
    assert_eq!(
        k.ring_enter(&mut ring).unwrap(),
        4,
        "deferred ops serviced now"
    );
    assert_eq!(k.ring_reap(&mut ring).len(), 4);
}

#[test]
fn each_enter_charges_one_crossing_and_the_cpu_formula_holds() {
    // Twin kernels, both fully warmed, so the only cost difference between
    // sequential preads and one ring batch is the boundary accounting.
    let warmed = || {
        let (mut k, t, path) = setup();
        let fd = k.open(path, OpenFlags::RDONLY).unwrap();
        while !k.read(fd, 64 << 10).unwrap().is_empty() {}
        (k, t, fd)
    };
    const N: u64 = 16;

    let (mut k, _, fd) = warmed();
    let before = k.usage();
    let mut seq_bytes = Vec::new();
    for i in 0..N {
        seq_bytes.push(k.pread(fd, i * PAGE_SIZE, 512).unwrap());
    }
    let seq_u = k.usage().since(&before);

    let (mut k, _, fd) = warmed();
    let enters_before = k.ring_enters();
    let before = k.usage();
    let mut ring = SubmissionRing::new(N as usize);
    for i in 0..N {
        ring.push(i, pread_op(fd, i * PAGE_SIZE, 512)).unwrap();
    }
    assert_eq!(k.ring_enter(&mut ring).unwrap(), N as usize);
    let ring_bytes: Vec<Payload> = k
        .ring_reap(&mut ring)
        .into_iter()
        .map(|c| match c.result.unwrap() {
            SyscallRet::Bytes(b) => b,
            other => panic!("expected bytes, got {other:?}"),
        })
        .collect();
    let ring_u = k.usage().since(&before);

    assert_eq!(seq_bytes, ring_bytes);
    assert_eq!(k.ring_enters() - enters_before, 1);
    assert_eq!(
        seq_u.syscall_crossings, N,
        "one crossing per sequential pread"
    );
    assert_eq!(
        ring_u.syscall_crossings, 1,
        "one crossing for the whole batch"
    );
    assert_eq!(
        seq_u.syscalls, ring_u.syscalls,
        "same logical syscall count"
    );

    let cfg = k.config();
    let expected_gap =
        (N - 1) as f64 * cfg.syscall_cpu.as_secs_f64() - N as f64 * RING_OP_CPU.as_secs_f64();
    let gap = seq_u.cpu.as_secs_f64() - ring_u.cpu.as_secs_f64();
    assert!(
        (gap - expected_gap).abs() < 1e-12,
        "cpu gap {gap} vs expected {expected_gap}"
    );
}

#[test]
fn ring_ops_return_exactly_what_their_sequential_twins_return() {
    let prepared = || {
        let (mut k, t, path) = setup();
        // Warm a middle slice so the SLED vector is nontrivial.
        let fd = k.open(path, OpenFlags::RDONLY).unwrap();
        k.lseek(fd, 5 * PAGE_SIZE as i64, Whence::Set).unwrap();
        k.read(fd, 4 * PAGE_SIZE as usize).unwrap();
        (k, t, path, fd)
    };

    // Sequential answers.
    let (mut k, t, path, fd) = prepared();
    let seq_stat = k.stat(path).unwrap();
    let seq_bytes = k.pread(fd, 3 * PAGE_SIZE, 2048).unwrap();
    let seq_sleds = fsleds_get(&mut k, fd, &t).unwrap();

    // The same four ops through one ring batch.
    let (mut k, t, path, fd) = prepared();
    let mut ring = SubmissionRing::new(8);
    ring.push(
        0,
        Syscall::Open {
            path: path.to_string(),
            flags: OpenFlags::RDONLY,
        },
    )
    .unwrap();
    ring.push(
        1,
        Syscall::Stat {
            path: path.to_string(),
        },
    )
    .unwrap();
    ring.push(2, pread_op(fd, 3 * PAGE_SIZE, 2048)).unwrap();
    ring.push(3, Syscall::FsledsGet { fd, pricing: t }).unwrap();
    k.ring_enter(&mut ring).unwrap();
    let done = k.ring_reap(&mut ring);
    assert_eq!(done.len(), 4);

    let mut opened = None;
    for c in done {
        match (c.user_data, c.result.unwrap()) {
            (0, SyscallRet::Fd(f)) => opened = Some(f),
            (1, SyscallRet::Stat(st)) => assert_eq!(st, seq_stat),
            (2, SyscallRet::Bytes(b)) => assert_eq!(b, seq_bytes),
            (3, SyscallRet::Sleds(s)) => assert_eq!(s, seq_sleds),
            (tag, other) => panic!("unexpected completion {tag}: {other:?}"),
        }
    }

    // And Close through the ring releases the descriptor.
    let opened = opened.expect("open completed");
    let mut ring = SubmissionRing::new(2);
    ring.push(0, Syscall::Close { fd: opened }).unwrap();
    k.ring_enter(&mut ring).unwrap();
    assert_eq!(k.ring_reap(&mut ring)[0].result, Ok(SyscallRet::Unit));
    assert_eq!(k.pread(opened, 0, 16).unwrap_err().errno, Errno::Ebadf);
}

#[test]
fn prog_verifies_and_walk_estimates_match_the_predicate() {
    let (mut k, t, path) = setup();

    // Verification rejects an underflowing program outright.
    let err = PickProgram::new(vec![ProgInst::Lt]).unwrap_err();
    assert_eq!(err.errno, Errno::Einval);

    // A walk evaluates the program exactly like the user-space predicate.
    let pred = LatencyPredicate::parse("-m200").unwrap();
    let entries = k.fsleds_walk("/data", &compile_latency(&pred), &t).unwrap();
    let entry = entries.iter().find(|e| e.path == path).unwrap();
    let est = entry.estimate_secs.unwrap();
    let fd = k.open(path, OpenFlags::RDONLY).unwrap();
    let seq_est = total_delivery_time(&mut k, &t, fd, AttackPlan::Best).unwrap();
    assert_eq!(est, seq_est, "bit-identical estimate");
    assert_eq!(entry.matched, pred.matches(seq_est));
}

fn tree_kernel() -> (Kernel, SledsTable) {
    let mut k = Kernel::table2();
    k.mkdir("/data").unwrap();
    let m = k
        .mount_disk("/data", DiskDevice::table2_disk("hda"))
        .unwrap();
    let dev = k.device_of_mount(m).unwrap();
    let mut t = SledsTable::new();
    t.fill_memory(SledsEntry::new(175e-9, 48e6));
    t.fill_device(dev, SledsEntry::new(0.018, 9e6));
    k.mkdir("/data/src").unwrap();
    k.install_file("/data/big.bin", &vec![1u8; 8 * PAGE_SIZE as usize])
        .unwrap();
    k.install_file("/data/src/main.c", b"int main(){}\n")
        .unwrap();
    k.install_file("/data/src/util.c", b"void util(){}\n")
        .unwrap();
    (k, t)
}

#[test]
fn walk_visits_in_find_order() {
    let (mut k, t) = tree_kernel();
    // `+0`: estimate > 0, true for every nonempty file.
    let prog = compile_latency(&LatencyPredicate::parse("+0").unwrap());
    let entries = k.fsleds_walk("/data", &prog, &t).unwrap();
    let paths: Vec<&str> = entries.iter().map(|e| e.path.as_str()).collect();
    assert_eq!(
        paths,
        vec![
            "/data",
            "/data/big.bin",
            "/data/src",
            "/data/src/main.c",
            "/data/src/util.c",
        ],
        "depth-first, name order — find's order"
    );
    assert!(entries
        .iter()
        .all(|e| e.matched == (e.kind == FileKind::File)));
}

#[test]
fn cached_first_order_puts_warm_matches_ahead() {
    let (mut k, t) = tree_kernel();
    // Warm main.c fully; everything else stays cold.
    let fd = k.open("/data/src/main.c", OpenFlags::RDONLY).unwrap();
    k.read(fd, 4096).unwrap();
    k.close(fd).unwrap();

    let prog =
        compile_latency(&LatencyPredicate::parse("+0").unwrap()).with_order(ProgOrder::CachedFirst);
    let entries = k.fsleds_walk("/data", &prog, &t).unwrap();
    assert_eq!(
        entries[0].path, "/data/src/main.c",
        "fully cached match comes first"
    );
    let dirs_after: Vec<&str> = entries
        .iter()
        .filter(|e| e.kind == FileKind::Dir)
        .map(|e| e.path.as_str())
        .collect();
    assert_eq!(
        dirs_after,
        vec!["/data", "/data/src"],
        "non-matches keep file order"
    );
}

#[test]
fn walk_charges_cpu_from_the_cost_certificate_deterministically() {
    // Two programs with the same verdict on every file but different
    // certified costs: the cheap 3-instruction `+0` compare and a padded
    // version that burns budget on verdict-preserving divisions by one.
    // The walk must charge exactly `worst_ns` more per priced
    // file for the expensive one, and repeated runs must charge
    // identically — the certificate, not the evaluation path, is the
    // price.
    let cheap = compile_latency(&LatencyPredicate::parse("+0").unwrap());
    let expensive = PickProgram::new(vec![
        ProgInst::PushDeliveryTime,
        ProgInst::PushConst(0.0),
        ProgInst::Gt,
        ProgInst::PushConst(1.0),
        ProgInst::Div,
        ProgInst::PushConst(1.0),
        ProgInst::Div,
    ])
    .unwrap();
    assert!(
        expensive.cert().worst_ns > cheap.cert().worst_ns,
        "fixture must actually differ in certified cost"
    );

    let run = |prog: &PickProgram| {
        let (mut k, t) = tree_kernel();
        let before = k.usage();
        let entries = k.fsleds_walk("/data", prog, &t).unwrap();
        (entries, k.usage().since(&before))
    };

    let (cheap_entries, cheap_usage) = run(&cheap);
    let (cheap_entries2, cheap_usage2) = run(&cheap);
    assert_eq!(cheap_entries, cheap_entries2, "walk is deterministic");
    assert_eq!(cheap_usage, cheap_usage2, "charging is deterministic");

    let (expensive_entries, expensive_usage) = run(&expensive);
    let priced = expensive_entries
        .iter()
        .filter(|e| e.estimate_secs.is_some())
        .count() as u64;
    assert_eq!(priced, 3, "three files priced");
    assert_eq!(
        expensive_entries
            .iter()
            .map(|e| e.matched)
            .collect::<Vec<_>>(),
        cheap_entries.iter().map(|e| e.matched).collect::<Vec<_>>(),
        "same verdicts"
    );
    let per_entry_delta_ns = expensive.cert().worst_ns - cheap.cert().worst_ns;
    let cpu_delta = expensive_usage.cpu - cheap_usage.cpu;
    assert_eq!(
        u128::from(cpu_delta.as_nanos()),
        priced as u128 * per_entry_delta_ns as u128,
        "walk CPU differs by exactly the certified bound per priced entry"
    );
}

#[test]
fn ring_preads_fail_and_retry_exactly_like_sequential_under_faults() {
    let build = |plan: &FaultPlan| {
        let (mut k, t, path) = setup();
        k.drop_caches().unwrap();
        k.apply_fault_plan(plan);
        let fd = k.open(path, OpenFlags::RDONLY).unwrap();
        (k, t, fd)
    };

    // Offline window covering the whole run: both paths fail identically.
    let offline = FaultPlan::new().offline(
        "hda",
        SimTime::ZERO,
        SimTime::from_nanos(3_600_000_000_000),
        SimDuration::from_millis(1),
    );
    let (mut k, _, fd) = build(&offline);
    let seq_err = k.pread(fd, 0, 4096).unwrap_err();

    let (mut k, _, fd) = build(&offline);
    let mut ring = SubmissionRing::new(2);
    ring.push(0, pread_op(fd, 0, 4096)).unwrap();
    k.ring_enter(&mut ring).unwrap();
    let ring_err = k.ring_reap(&mut ring)[0].result.clone().unwrap_err();
    assert_eq!(ring_err.errno, seq_err.errno);
    assert_eq!(ring_err.to_string(), seq_err.to_string(), "same error text");

    // Transient window with a fixed budget: both paths burn the same
    // bounded retries and then deliver the same bytes.
    let transient = FaultPlan::new().transient(
        "hda",
        SimTime::ZERO,
        SimTime::from_nanos(3_600_000_000_000),
        3,
        SimDuration::from_millis(2),
    );
    let (mut k, _, fd) = build(&transient);
    let before = k.usage();
    let seq_bytes = k.pread(fd, 0, 4096).unwrap();
    let seq_u = k.usage().since(&before);

    let (mut k, _, fd) = build(&transient);
    let before = k.usage();
    let mut ring = SubmissionRing::new(2);
    ring.push(0, pread_op(fd, 0, 4096)).unwrap();
    k.ring_enter(&mut ring).unwrap();
    let got = match k.ring_reap(&mut ring)[0].result.clone().unwrap() {
        SyscallRet::Bytes(b) => b,
        other => panic!("expected bytes, got {other:?}"),
    };
    let ring_u = k.usage().since(&before);

    assert_eq!(got, seq_bytes);
    assert!(seq_u.io_retries > 0, "the transient window was exercised");
    assert_eq!(seq_u.io_retries, ring_u.io_retries, "same bounded retries");
    assert_eq!(seq_u.retry_backoff, ring_u.retry_backoff);
    assert_eq!(seq_u.major_faults, ring_u.major_faults);
}
