//! Workload flight recorder demo: capture the multi-tenant saturation
//! workload losslessly, replay it deterministically, and diff a what-if
//! candidate config against the original nanosecond by nanosecond.
//!
//! Three acts, each asserted:
//!
//! 1. **Lossless capture** — a scaled saturation population (disk
//!    bullies, light web tenants, NFS homes, HSM archives, one
//!    ring-submitting tenant) runs with the flight recorder armed.
//!    Every kernel entry lands in `results/CAPTURE_saturation.jsonl`
//!    with `complete: true`; the file round-trips through the parser
//!    byte-identically.
//! 2. **Identity replay** — replaying the capture under the captured
//!    config reproduces the capture byte for byte: same submit times,
//!    same completion times, same queue waits. The clock is the proof.
//! 3. **What-if diff** — replaying under a candidate config (command
//!    queue retention 64 → 16 plus `hda` degraded 2.5× for the whole
//!    run) moves exactly the tenants that touch the shared disk. The
//!    diff in `results/REPLAY_diff.json` attributes every op's
//!    completion-time delta to queue-wait + service movement with zero
//!    residual, shows the disk tenants' p99 rising, and shows the NFS
//!    and HSM tenants untouched.
//!
//! ```text
//! cargo run --release --example replay_whatif
//! ```

use sleds_repro::faults::FaultPlan;
use sleds_repro::fs::{Fd, Kernel, OpenFlags, SubmissionRing, Syscall, TenantId};
use sleds_repro::replay::{
    build_kernel, diff_captures, replay, CandidateConfig, CaptureFile, WorkloadSpec,
};
use sleds_repro::scenarios;
use sleds_repro::sim_core::{SimDuration, SimTime, VirtualSubmitter};

/// Recorder budget: far above the workload's op count, so the capture
/// completes; overflow would mark it incomplete and fail the asserts.
const CAPTURE_BUDGET: usize = 1024;

/// Degradation factor for the what-if disk.
const DEGRADE: f64 = 2.5;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

/// One tenant's request stream for the interleaved run.
struct Lane {
    t: TenantId,
    fd: Fd,
    req_bytes: usize,
    remaining: u64,
    offset: u64,
    think: SimDuration,
}

/// The scaled saturation environment: the disk/NFS/HSM machine with
/// per-tenant sparse files sized for the request streams.
fn build_spec() -> WorkloadSpec {
    let mut files: Vec<(String, u64)> = (0..2)
        .map(|i| (format!("/disk/bulk{i}.dat"), 8 * MIB))
        .collect();
    files.extend((0..8).map(|i| (format!("/disk/web{i}.html"), 128 * KIB)));
    files.push(("/disk/ring.dat".into(), 128 * KIB));
    files.extend((0..3).map(|i| (format!("/nfs/home{i}.dat"), 256 * KIB)));
    files.extend((0..2).map(|i| (format!("/hsm/arch{i}.dat"), 256 * KIB)));
    scenarios::disk_nfs_hsm(&files)
}

/// Registers the population, runs the earliest-ready interleave with the
/// recorder armed, and finishes with one ring batch. Everything between
/// `start_capture` and `stop_capture` is a capturable kernel entry.
fn drive(k: &mut Kernel) {
    let mut lanes: Vec<Lane> = Vec::new();
    let mut sub = VirtualSubmitter::new();
    let mut spawn = |k: &mut Kernel, name: String, path: String, req: usize, n: u64, think: u64| {
        let t = k.tenant_register(&name);
        k.tenant_switch(t).expect("switch");
        let fd = k.open(&path, OpenFlags::RDONLY).expect("open");
        let lane = sub.add(k.now());
        assert_eq!(lane, lanes.len(), "lanes are registered in tenant order");
        k.tenant_switch(TenantId(0)).expect("switch back");
        lanes.push(Lane {
            t,
            fd,
            req_bytes: req,
            remaining: n,
            offset: 0,
            think: SimDuration::from_nanos(think),
        });
    };
    for i in 0..2 {
        let path = format!("/disk/bulk{i}.dat");
        spawn(k, format!("bulk-{i}"), path, (256 * KIB) as usize, 24, 0);
    }
    for i in 0..8 {
        let path = format!("/disk/web{i}.html");
        spawn(
            k,
            format!("web-{i}"),
            path,
            (16 * KIB) as usize,
            6,
            2_000_000,
        );
    }
    for i in 0..3 {
        let path = format!("/nfs/home{i}.dat");
        spawn(
            k,
            format!("nfs-{i}"),
            path,
            (32 * KIB) as usize,
            6,
            5_000_000,
        );
    }
    for i in 0..2 {
        let path = format!("/hsm/arch{i}.dat");
        spawn(
            k,
            format!("hsm-{i}"),
            path,
            (64 * KIB) as usize,
            3,
            10_000_000,
        );
    }

    // Earliest-ready lane next; ties to the lowest lane, which is the
    // lowest tenant id.
    while let Some(idx) = sub.next() {
        let ready = sub.ready_at(idx).expect("live lane");
        let lane = &mut lanes[idx];
        k.tenant_switch(lane.t).expect("switch");
        let now = k.now();
        if ready > now {
            k.charge_cpu(ready.duration_since(now));
        }
        let data = k
            .pread(lane.fd, lane.offset, lane.req_bytes)
            .expect("pread");
        assert_eq!(data.len(), lane.req_bytes);
        lane.offset += lane.req_bytes as u64;
        lane.remaining -= 1;
        if lane.remaining == 0 {
            sub.finish(idx);
        } else {
            sub.reschedule(idx, k.now() + lane.think);
        }
    }

    // One tenant submits a batch through the ring: a stat plus four
    // preads against the shared disk, reaped crossing-free.
    let rt = k.tenant_register("ring-0");
    k.tenant_switch(rt).expect("switch");
    let rfd = k
        .open("/disk/ring.dat", OpenFlags::RDONLY)
        .expect("open ring");
    let mut ring = SubmissionRing::with_tenant(16, rt);
    ring.push(
        1,
        Syscall::Stat {
            path: "/disk/ring.dat".to_string(),
        },
    )
    .expect("push");
    for i in 0..4u64 {
        ring.push(
            2 + i,
            Syscall::Pread {
                fd: rfd,
                pos: i * 16 * KIB,
                len: (16 * KIB) as usize,
            },
        )
        .expect("push");
    }
    k.ring_enter(&mut ring).expect("ring_enter");
    let completions = k.ring_reap(&mut ring);
    assert_eq!(completions.len(), 5);
    k.close(rfd).expect("close ring fd");

    for lane in &lanes {
        k.tenant_switch(lane.t).expect("switch");
        k.close(lane.fd).expect("close");
    }
}

fn capture_workload(spec: &WorkloadSpec) -> CaptureFile {
    let mut k = build_kernel(spec).expect("build kernel");
    k.start_capture(CAPTURE_BUDGET);
    drive(&mut k);
    let capture = k.stop_capture().expect("capture armed");
    assert!(
        capture.complete,
        "capture must be lossless: {:?}",
        capture.incomplete_reason
    );
    CaptureFile {
        spec: spec.clone(),
        capture,
    }
}

fn main() {
    // Act 1: lossless capture.
    let spec = build_spec();
    let file = capture_workload(&spec);
    assert!(file.capture.ops.len() > 100, "population must be real");
    let jsonl = file.to_jsonl();
    let parsed = CaptureFile::parse(&jsonl).expect("parse own serialization");
    assert_eq!(
        parsed.to_jsonl(),
        jsonl,
        "capture file must round-trip byte-identically"
    );

    // Act 2: identity replay — byte-identical re-capture.
    let identity = replay(&file, &CandidateConfig::identity()).expect("identity replay");
    assert_eq!(
        identity.into_file().to_jsonl(),
        jsonl,
        "identity replay must reproduce the capture byte for byte"
    );

    // Act 3: what-if — shrink queue retention and degrade the shared disk.
    let horizon = file
        .capture
        .ops
        .iter()
        .map(|o| o.outcome.complete_ns)
        .max()
        .unwrap_or(0);
    let candidate = CandidateConfig {
        machine: None,
        cmd_queue_capacity: Some(16),
        fault_plan: Some(FaultPlan::new().degraded(
            "hda",
            SimTime::from_nanos(0),
            SimTime::from_nanos(horizon * 2 + 1),
            DEGRADE,
        )),
        hedge: None,
    };
    let whatif = replay(&file, &candidate).expect("what-if replay");
    let diff = diff_captures(&file.capture, &whatif.capture).expect("diff");

    // Exact attribution: queue-wait + service deltas explain every op's
    // completion-time delta — no residual anywhere.
    assert_eq!(
        diff.exact_ops,
        diff.ops.len() as u64,
        "every op's latency delta must be exactly attributed"
    );
    assert!(
        diff.total.d_latency_ns > 0,
        "degrading the shared disk must cost latency"
    );
    for bully in ["bulk-0", "bulk-1"] {
        let row = diff
            .tenants
            .values()
            .find(|(name, _)| name == bully)
            .map(|(_, g)| g)
            .expect("bully row");
        assert!(
            row.cand.p99_ns > row.base.p99_ns,
            "{bully}'s p99 must rise under the candidate \
             ({} -> {} ns)",
            row.base.p99_ns,
            row.cand.p99_ns
        );
    }
    // The movement is on the disk: service (degradation) and queue wait
    // (the bullies hold the head longer).
    let disk = diff.classes.get(&1).expect("disk class row");
    assert!(disk.d_service_ns > 0, "disk service must inflate");
    assert!(disk.d_queue_wait_ns > 0, "disk queue wait must inflate");
    // Blast radius: tenants off the shared disk do not move at all.
    let mut moved = 0u64;
    for (id, (name, g)) in &diff.tenants {
        if name.starts_with("nfs-") || name.starts_with("hsm-") {
            assert_eq!(
                g.d_latency_ns, 0,
                "tenant {id} ({name}) is off the shared disk and must not move"
            );
        }
        if g.d_latency_ns > 0 {
            moved += 1;
        }
    }
    assert!(moved >= 3, "bullies and web tenants must move");

    let report = diff.to_json(
        "captured: table2, cmd queue 64, no faults",
        "what-if: cmd queue 16, hda degraded 2.5x",
    );

    let dir = sleds_repro::results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    std::fs::write(dir.join("CAPTURE_saturation.jsonl"), &jsonl).expect("write capture");
    std::fs::write(dir.join("REPLAY_diff.json"), &report).expect("write diff");

    let bulk0 = diff
        .tenants
        .values()
        .find(|(name, _)| name == "bulk-0")
        .map(|(_, g)| g)
        .expect("bulk-0 row");
    println!(
        "captured {} ops; identity replay byte-identical; what-if moved {} tenants \
         (bulk-0 p99 {} -> {} ns), {} of {} op deltas exactly attributed",
        file.capture.ops.len(),
        moved,
        bulk0.base.p99_ns,
        bulk0.cand.p99_ns,
        diff.exact_ops,
        diff.ops.len(),
    );
}
