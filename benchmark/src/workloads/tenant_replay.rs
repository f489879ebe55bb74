//! `tenant_replay`: a closed loop on the virtual clock. 224 tenants go
//! through `VirtualSubmitter` on one host thread — disk bullies, web
//! readers over a hot set, log writers, NFS readers, HSM/tape readers and
//! readers of a two-way mirror whose primary sits in a seeded fault storm
//! — each sending its next request only when the previous one completed.
//!
//! Phases, all inside the measured time: (A) the live run, observers off;
//! (B) the same run with kernel tracer, metrics and flight recorder armed;
//! (C) capture to JSONL and back; (D) identity replay; (E) what-if replay
//! (queue retention 64 -> 16, `hda` degraded 2.5x); (F) capture diff.
//!
//! The only workload where the command queues, tenant switching, fault
//! handling, hedged volume reads, the tracer, the recorder and the replayer
//! do the work, and where the syscall p99 is set by queueing. Few bytes
//! move, so the regex engine and the apps are idle.

use sleds_faults::FaultPlan;
use sleds_fs::{Fd, Kernel, OpenFlags, Rusage, TenantId, VirtualSubmitter, VolumeLayout};
use sleds_replay::{
    build_kernel, diff_captures, replay, CandidateConfig, CaptureFile, SetupStep, WorkloadSpec,
};
use sleds_sim_core::units::{KIB, MIB};
use sleds_sim_core::{DetRng, SimDuration, SimError, SimTime, PAGE_SIZE};

use crate::check::Misses;
use crate::metrics;
use crate::probes;
use crate::spans::Recorder;
use crate::workloads::{Rep, RepCfg, Tally};

/// Recorder budget, far above the op count: overflow would poison the
/// capture and fail the checks.
const CAPTURE_BUDGET: usize = 1 << 15;

/// Fault-storm horizon; the mirror readers' think times make them span it.
const HORIZON: SimDuration = SimDuration::from_secs(20);

const WHATIF_DEGRADE: f64 = 2.5;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Sequential cold reads.
    Stream,
    /// Reads at seed-chosen slots of a small resident file.
    Hot,
    /// Appends, `fsync` every eighth.
    Log,
}

/// One tenant's declarative request stream.
struct TenantPlan {
    name: String,
    path: String,
    kind: Kind,
    req_bytes: usize,
    requests: u64,
    /// Seed-chosen think time before each request.
    think: SimDuration,
    /// Hot readers: the slot (in `req_bytes` units) of each request.
    slots: Vec<u64>,
}

struct Population {
    bullies: (usize, u64),
    web: (usize, u64),
    logs: (usize, u64),
    nfs: (usize, u64),
    tape: (usize, u64),
    mirror: (usize, u64),
}

fn population(smoke: bool) -> Population {
    if smoke {
        Population {
            bullies: (2, 6),
            web: (12, 10),
            logs: (4, 16),
            nfs: (3, 6),
            tape: (2, 2),
            mirror: (2, 40),
        }
    } else {
        Population {
            bullies: (2, 40),
            web: (160, 60),
            logs: (32, 40),
            nfs: (20, 30),
            tape: (6, 4),
            mirror: (4, 60),
        }
    }
}

/// Hot files hold this many request-sized slots.
const HOT_SLOTS: u64 = 4;

/// The files here are sparse, so one set-up takes a millisecond and a
/// half, most of it cache misses after two seconds of other work: too
/// little to time steadily. It is done this many times and `setup_s` is
/// the mean.
const SETUP_ROUNDS: u64 = 16;

fn plan(cfg: RepCfg) -> (WorkloadSpec, Vec<TenantPlan>) {
    let pop = population(cfg.smoke);
    let mut rng = DetRng::new(cfg.seed).derive(0x7e4a);
    let mut spec = WorkloadSpec::new("table2");
    for p in ["/disk", "/nfs", "/hsm", "/vol"] {
        spec.setup.push(SetupStep::Mkdir { path: p.into() });
    }
    spec.setup.push(SetupStep::MountDisk {
        path: "/disk".into(),
        model: "table2_disk".into(),
        name: "hda".into(),
    });
    spec.setup.push(SetupStep::MountNfs {
        path: "/nfs".into(),
        model: "table2_mount".into(),
        name: "nfs0".into(),
    });
    spec.setup.push(SetupStep::MountHsm {
        path: "/hsm".into(),
        disk_model: "table2_disk".into(),
        disk_name: "hdb".into(),
        tape_model: "dlt".into(),
        tape_name: "tape0".into(),
        chunk_pages: 16,
    });
    spec.setup.push(SetupStep::MountVolume {
        path: "/vol".into(),
        layout: VolumeLayout::Mirrored,
        members: vec![
            ("table2_disk".into(), "vol0".into()),
            // A far replica: the local disk serves while it is healthy.
            ("nfs_continental".into(), "vol1".into()),
        ],
    });

    // The mirror readers think long enough to span the storm's horizon.
    let mirror_think_us = HORIZON.as_nanos() / 1_000 / pop.mirror.1;
    // (name, mount, (tenants, requests each), kind, request bytes, think µs)
    let groups = [
        ("bulk", "/disk", pop.bullies, Kind::Stream, 2 * MIB, (0, 1)),
        (
            "web",
            "/disk",
            pop.web,
            Kind::Hot,
            16 * KIB,
            (6_000, 12_000),
        ),
        ("log", "/disk", pop.logs, Kind::Log, 4 * KIB, (4_000, 7_000)),
        (
            "nfs",
            "/nfs",
            pop.nfs,
            Kind::Stream,
            16 * KIB,
            (2_000, 4_000),
        ),
        (
            "arch",
            "/hsm",
            pop.tape,
            Kind::Stream,
            64 * KIB,
            (2_000, 3_000),
        ),
        (
            "mir",
            "/vol",
            pop.mirror,
            Kind::Stream,
            16 * KIB,
            (mirror_think_us * 19 / 20, mirror_think_us * 21 / 20),
        ),
    ];
    let mut tenants = Vec::new();
    for (prefix, dir, (count, nominal), kind, req_bytes, (think_lo, think_hi)) in groups {
        for i in 0..count {
            // A seed-chosen few requests short of nominal, so syscall counts
            // carry the seed; the bullies, who set the fault count, are exact.
            let requests = match prefix {
                "bulk" => nominal,
                _ => nominal - rng.range_u64(0, nominal / 20 + 1),
            };
            let slots = if kind == Kind::Hot {
                (0..requests).map(|_| rng.range_u64(0, HOT_SLOTS)).collect()
            } else {
                Vec::new()
            };
            tenants.push(TenantPlan {
                name: format!("{prefix}-{i}"),
                path: format!("{dir}/{prefix}{i}"),
                kind,
                req_bytes: req_bytes as usize,
                requests,
                think: SimDuration::from_micros(rng.range_u64(think_lo, think_hi)),
                slots,
            });
        }
    }

    for t in &tenants {
        let size = match t.kind {
            Kind::Stream => t.requests * t.req_bytes as u64,
            Kind::Hot => HOT_SLOTS * t.req_bytes as u64,
            Kind::Log => 0,
        };
        spec.setup.push(SetupStep::InstallSparseFile {
            path: t.path.clone(),
            size,
        });
        if t.path.starts_with("/hsm/") {
            spec.setup.push(SetupStep::HsmMigrate {
                path: t.path.clone(),
                free: true,
            });
        }
    }
    spec.setup.push(SetupStep::DropCaches);
    // The hot set starts resident and, being re-read every few
    // milliseconds, stays so: hits and misses do not depend on timing,
    // which is what lets the what-if diff attribute every delta exactly.
    for t in tenants.iter().filter(|t| t.kind == Kind::Hot) {
        spec.setup.push(SetupStep::WarmFilePages {
            path: t.path.clone(),
            first_page: 0,
            pages: HOT_SLOTS * t.req_bytes as u64 / PAGE_SIZE,
        });
    }

    // The storm touches only the mirror's primary, so its NFS twin can
    // always serve and no request fails; one window of each shape is
    // explicit so every seed exercises reroute, hedging and retry.
    let at = |s: u64| SimTime::from_nanos(s * 1_000_000_000);
    spec.fault_plan = FaultPlan::seeded_storm(rng.range_u64(0, u64::MAX), &["vol0"], HORIZON)
        .offline("vol0", at(4), at(7), SimDuration::from_millis(1))
        .degraded("vol0", at(9), at(12), 6.0)
        .transient("vol0", at(14), at(16), 3, SimDuration::from_micros(500));
    (spec, tenants)
}

fn log_block(tenant: usize, seq: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (tenant as u64 * 131 + seq * 31 + i as u64) as u8)
        .collect()
}

/// What a live run did, beyond what the kernel's own counters say.
struct Driven {
    requests: u64,
    errors: u64,
}

/// When the last tenant finished: the run's elapsed virtual time.
fn completion(k: &Kernel) -> SimTime {
    (0..k.tenant_count())
        .filter_map(|t| k.tenant_now(TenantId(t as u64)))
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// Registers the tenants, runs the earliest-ready interleave to the end
/// and closes every file. One request is in flight per tenant: a closed
/// loop with `tenants.len()` clients.
fn drive(k: &mut Kernel, tenants: &[TenantPlan]) -> Result<Driven, SimError> {
    struct Lane {
        id: TenantId,
        fd: Fd,
        issued: u64,
    }
    let mut sub = VirtualSubmitter::new();
    let mut lanes = Vec::with_capacity(tenants.len());
    for t in tenants {
        let id = k.tenant_register(&t.name);
        k.tenant_switch(id)?;
        let flags = if t.kind == Kind::Log {
            OpenFlags {
                append: true,
                ..OpenFlags::RDWR
            }
        } else {
            OpenFlags::RDONLY
        };
        let fd = k.open(&t.path, flags)?;
        sub.add(k.now() + t.think);
        lanes.push(Lane { id, fd, issued: 0 });
    }
    let mut done = Driven {
        requests: 0,
        errors: 0,
    };
    while let Some(i) = sub.next() {
        let (t, lane) = (&tenants[i], &mut lanes[i]);
        k.tenant_switch(lane.id)?;
        let ready = sub.ready_at(i).unwrap_or(SimTime::ZERO);
        if ready > k.now() {
            k.charge_cpu(ready.duration_since(k.now()));
        }
        let ok = match t.kind {
            Kind::Stream => k
                .pread(lane.fd, lane.issued * t.req_bytes as u64, t.req_bytes)
                .map(|d| d.len() == t.req_bytes),
            Kind::Hot => k
                .pread(
                    lane.fd,
                    t.slots[lane.issued as usize] * t.req_bytes as u64,
                    t.req_bytes,
                )
                .map(|d| d.len() == t.req_bytes),
            Kind::Log => {
                let mut r = k
                    .write(lane.fd, &log_block(i, lane.issued, t.req_bytes))
                    .map(|n| n == t.req_bytes);
                if lane.issued % 8 == 7 {
                    done.requests += 1;
                    r = r.and_then(|ok| k.fsync(lane.fd).map(|()| ok));
                }
                r
            }
        };
        done.requests += 1;
        if !matches!(ok, Ok(true)) {
            done.errors += 1;
        }
        lane.issued += 1;
        if lane.issued == t.requests {
            k.close(lane.fd)?;
            sub.finish(i);
        } else {
            sub.reschedule(i, k.now() + t.think);
        }
    }
    k.tenant_switch(TenantId(0))?;
    Ok(done)
}

/// The exact-sum identities of one finished kernel.
fn check_identities(k: &Kernel, what: &str, misses: &mut Misses) {
    let mut sum = Rusage::default();
    for t in 0..k.tenant_count() {
        if let Some(u) = k.tenant_usage(TenantId(t as u64)) {
            sum.accumulate(&u);
        }
    }
    let global = k.usage();
    misses.expect(sum == global, || {
        format!("{what}: per-tenant rusage rows do not sum to the global counters")
    });
    let report = k.saturation_report();
    for t in &report.tenants {
        misses.expect(t.own_service_ns + t.queue_wait_ns == t.observed_ns, || {
            format!(
                "{what}: tenant {}: own service + queue wait != observed",
                t.name
            )
        });
    }
    let cancel = k.hedge_policy().cancel_cost;
    misses.expect(global.hedge_wait == cancel * global.hedges, || {
        format!(
            "{what}: hedge_wait {} != {} hedges x cancel cost {}",
            global.hedge_wait, global.hedges, cancel
        )
    });
}

/// Every log file holds exactly what its writer appended.
fn check_logs(k: &mut Kernel, tenants: &[TenantPlan], misses: &mut Misses) {
    for (i, t) in tenants
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == Kind::Log)
    {
        let want: Vec<u8> = (0..t.requests)
            .flat_map(|seq| log_block(i, seq, t.req_bytes))
            .collect();
        let got = k.open(&t.path, OpenFlags::RDONLY).and_then(|fd| {
            let data = k.pread(fd, 0, want.len() + 1);
            k.close(fd).and(data)
        });
        match got {
            Ok(got) => misses.expect(got == want, || format!("{}: log contents differ", t.path)),
            Err(e) => misses.failed(format!("{}: {e}", t.path)),
        }
    }
}

pub fn rep(cfg: RepCfg, rec: &mut Recorder) -> Result<Rep, String> {
    let mut out = Rep::default();
    let e = |e: SimError| e.to_string();
    let phase = rec.phase("setup");
    let (spec, tenants) = plan(cfg);
    // Both live phases' machines; the replays build their own.
    let mut ka = build_kernel(&spec)?;
    let mut kb = build_kernel(&spec)?;
    for _ in 1..SETUP_ROUNDS {
        let (spec, _) = plan(cfg);
        ka = build_kernel(&spec)?;
        kb = build_kernel(&spec)?;
    }
    ka.reset_counters();
    kb.reset_counters();
    out.setup_ns = rec.end(phase, SETUP_ROUNDS as f64) / SETUP_ROUNDS;

    let mut misses = Misses::default();
    let mut tally = Tally::default();
    let measured = rec.phase("measured");

    // (A) live, observers off.
    rec.next_pass();
    let s = rec.begin("tenant.live_plain");
    let a = drive(&mut ka, &tenants).map_err(e)?;
    rec.end(s, a.requests as f64);

    // (B) live again, everything armed.
    rec.next_pass();
    kb.enable_tracing_with_capacity(1 << 13);
    kb.start_capture(CAPTURE_BUDGET);
    let s = rec.begin("tenant.live_observed");
    let b = drive(&mut kb, &tenants).map_err(e)?;
    let capture = kb.stop_capture().ok_or("capture was not armed")?;
    rec.end(s, b.requests as f64);

    // (C) capture -> JSONL -> capture.
    let file = CaptureFile {
        spec: spec.clone(),
        capture,
    };
    let ops = file.capture.ops.len() as f64;
    let s = rec.begin("replay.serialize");
    let jsonl = file.to_jsonl();
    rec.end(s, ops);
    let s = rec.begin("replay.parse");
    let parsed = CaptureFile::parse(&jsonl);
    rec.end(s, ops);

    // (D) identity replay, (E) what-if replay, (F) diff. Refused outright
    // if the capture is incomplete, so that is checked first.
    let mut replays = None;
    if file.capture.complete {
        rec.next_pass();
        let s = rec.begin("replay.identity");
        let identity = replay(&file, &CandidateConfig::identity())?;
        rec.end(s, ops);

        rec.next_pass();
        let candidate = CandidateConfig {
            cmd_queue_capacity: Some(16),
            fault_plan: Some(spec.fault_plan.clone().degraded(
                "hda",
                SimTime::ZERO,
                SimTime::from_nanos(completion(&kb).as_nanos() * 2 + 1),
                WHATIF_DEGRADE,
            )),
            ..CandidateConfig::default()
        };
        let s = rec.begin("replay.whatif");
        let whatif = replay(&file, &candidate)?;
        rec.end(s, ops);

        let s = rec.begin("replay.diff");
        let diff = diff_captures(&file.capture, &whatif.capture)?;
        rec.end(s, ops);
        replays = Some((identity, whatif, diff));
    }
    let live_ops = (a.requests + b.requests) as f64;
    out.ops = live_ops + if replays.is_some() { live_ops } else { 0.0 };
    out.host_ns = rec.end(measured, out.ops);

    // ---- virtual figures ----
    tally.kernel(&ka);
    tally.kernel(&kb);
    let mut elapsed = completion(&ka).as_secs_f64() + completion(&kb).as_secs_f64();
    let v = &mut tally.virt;
    metrics::put(v, "fs.capture.ops", ops);
    metrics::put(
        v,
        "fs.capture.complete",
        f64::from(u8::from(file.capture.complete)),
    );
    metrics::put(v, "faults.app_visible_errors", (a.errors + b.errors) as f64);

    // ---- checks ----
    out.failed_ops = (a.errors + b.errors) as f64;
    misses.expect(a.errors + b.errors == 0, || {
        format!("{} requests failed in the live runs", a.errors + b.errors)
    });
    misses.expect(file.capture.complete, || {
        format!("capture incomplete: {:?}", file.capture.incomplete_reason)
    });
    // Phase B's observers must not move a single virtual figure of phase A.
    let (mut plain, mut observed) = (Tally::default(), Tally::default());
    plain.kernel(&ka);
    observed.kernel(&kb);
    let moved = metrics::first_difference(&plain.virt, &observed.virt);
    misses.expect(
        moved.is_none()
            && completion(&ka) == completion(&kb)
            && ka.saturation_report() == kb.saturation_report(),
        || format!("observers moved virtual time: phases A and B differ ({moved:?})"),
    );
    check_identities(&ka, "live", &mut misses);
    check_identities(&kb, "observed", &mut misses);
    match &parsed {
        Ok(p) => misses.expect(p.to_jsonl() == jsonl, || {
            "parse(to_jsonl(capture)) does not serialize back byte for byte".to_string()
        }),
        Err(err) => misses.failed(format!("capture does not parse: {err}")),
    }
    if let Some((identity, whatif, diff)) = replays {
        elapsed += completion(&identity.kernel).as_secs_f64();
        elapsed += completion(&whatif.kernel).as_secs_f64();
        tally.kernel(&identity.kernel);
        tally.kernel(&whatif.kernel);
        check_identities(&whatif.kernel, "what-if", &mut misses);
        let residual: u64 = diff.ops.iter().map(|o| o.residual_ns.unsigned_abs()).sum();
        misses.expect(
            residual == 0 && diff.exact_ops == diff.ops.len() as u64,
            || {
                format!(
                    "what-if diff leaves {residual} ns unattributed over {} ops",
                    diff.ops.len() as u64 - diff.exact_ops
                )
            },
        );
        misses.expect(diff.total.d_latency_ns > 0, || {
            "degrading the shared disk cost no latency".to_string()
        });
        let replayed = identity.into_file().to_jsonl();
        let mismatches = replayed
            .lines()
            .zip(jsonl.lines())
            .filter(|(x, y)| x != y)
            .count()
            + replayed.lines().count().abs_diff(jsonl.lines().count());
        misses.expect(mismatches == 0, || {
            format!("identity replay differs from the capture in {mismatches} lines")
        });
        let v = &mut tally.virt;
        metrics::put(v, "replay.identity_mismatches", mismatches as f64);
        metrics::put(v, "replay.diff_residual_ns", residual as f64);
    }
    metrics::put(&mut tally.virt, "virtual_elapsed_s", elapsed);
    check_logs(&mut ka, &tenants, &mut misses);
    tally.finish(&mut out);
    out.drive.submitter_lanes = tenants.len();
    out.drive.submitter_picks = a.requests;
    out.misses = misses.missed;
    out.checks = misses.checked;

    if rec.enabled() {
        // A third live run with only the recorder armed separates its cost
        // from the tracer's.
        let mut kr = build_kernel(&spec)?;
        kr.start_capture(CAPTURE_BUDGET);
        let s = rec.begin("tenant.live_recorder");
        let r = drive(&mut kr, &tenants).map_err(e)?;
        rec.end(s, r.requests as f64);
        probes::fs(&mut ka, "/disk", rec)?;
        probes::trace_export(&kb, rec);
    }
    Ok(out)
}
