//! Batched-vs-sequential equivalence properties.
//!
//! For every reachable combination of mount type (disk, CD-ROM, NFS, HSM
//! tape, a 2-way mirror, a (2,3)-coded volume), cache state, and fault
//! window (on member 0, for the volumes), a batched run over the submission
//! ring must deliver byte-identical results — bit-identical SLEDs, the same
//! chunk bytes or the same errors, in the same plan order — with rusage
//! identical except for the boundary-crossing accounting, whose CPU
//! difference must equal the crossing charges saved minus the per-op ring
//! cost exactly. The generated-syscall twins also run their batches as
//! three tenants and check, after every step, that each tenant's elapsed
//! time is exactly its CPU plus its I/O wait and never runs backward.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

use sleds::{PickConfig, PickSession, Sled, SledsEntry, SledsTable};
use sleds_devices::{BlockDevice, CdRomDevice, DiskDevice, FaultPlan, NfsDevice, TapeDevice};
use sleds_fs::{
    Fd, Kernel, OpenFlags, Payload, SubmissionRing, Syscall, SyscallRet, TenantId, VolumeLayout,
    Whence,
};
use sleds_lmbench::fill_table;
use sleds_sim_core::{check, DetRng, SimDuration, SimTime, PAGE_SIZE};

/// Everything that varies across a case, drawn up front so the twin
/// kernels can be built identically.
struct Params {
    mount: u64,
    pages: u64,
    tail: u64,
    migrate: bool,
    warms: Vec<(u64, u64)>,
    fault: u64,
    budget: u32,
    chunk: usize,
    ring_entries: usize,
    /// A zone boundary (sector) on the mount's device, if any.
    zone_at: Option<u64>,
    /// Whether the table trusts device self-reports.
    trust: bool,
}

impl Params {
    fn draw(rng: &mut DetRng) -> Params {
        let pages = rng.range_u64(1, 40);
        let warms = (0..rng.range_usize(0, 4))
            .map(|_| {
                let start = rng.range_u64(0, pages);
                (start, rng.range_u64(1, pages - start + 1))
            })
            .collect();
        Params {
            mount: rng.range_u64(0, 6),
            pages,
            tail: rng.range_u64(1, PAGE_SIZE + 1),
            migrate: rng.chance(0.5),
            warms,
            fault: rng.range_u64(0, 4),
            budget: rng.range_u64(1, 4) as u32,
            chunk: rng.range_usize(2048, 64 << 10),
            ring_entries: rng.range_usize(1, 33),
            zone_at: rng.chance(0.3).then(|| rng.range_u64(0, 400)),
            trust: rng.chance(0.3),
        }
    }

    /// Where the drawn mount lives.
    fn dir(&self) -> &'static str {
        ["/d", "/cd", "/nfs", "/hsm", "/vol", "/vol"][self.mount as usize]
    }

    /// Builds one kernel in the drawn configuration. Called twice per
    /// case; everything inside is deterministic in `self`.
    fn build(&self) -> (Kernel, SledsTable, Fd) {
        let mut k = Kernel::table2();
        let dir = self.dir();
        let (dev_name, m) = match self.mount {
            0 => {
                k.mkdir("/d").unwrap();
                let m = k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
                ("hda", m)
            }
            1 => {
                k.mkdir("/cd").unwrap();
                let m = k
                    .mount_cdrom("/cd", CdRomDevice::table2_drive("cd0"))
                    .unwrap();
                ("cd0", m)
            }
            2 => {
                k.mkdir("/nfs").unwrap();
                let m = k
                    .mount_nfs("/nfs", NfsDevice::table2_mount("srv:/export"))
                    .unwrap();
                ("srv:/export", m)
            }
            3 => {
                k.mkdir("/hsm").unwrap();
                let m = k
                    .mount_hsm(
                        "/hsm",
                        Box::new(DiskDevice::table2_disk("hda")),
                        Box::new(TapeDevice::dlt("st0")),
                        8,
                    )
                    .unwrap();
                ("hda", m)
            }
            _ => {
                // A 2-way mirror or a (2,3) code over plain disks; the
                // fault window, if any, lands on member 0.
                k.mkdir("/vol").unwrap();
                let (layout, n) = match self.mount {
                    4 => (VolumeLayout::Mirrored, 2),
                    _ => (VolumeLayout::Coded { k: 2 }, 3),
                };
                let members = (0..n)
                    .map(|i| {
                        Box::new(DiskDevice::table2_disk(format!("vd{i}"))) as Box<dyn BlockDevice>
                    })
                    .collect();
                ("vd0", k.mount_volume("/vol", layout, members).unwrap())
            }
        };
        let mut t = fill_table(&mut k, &[(dir, m)]).unwrap();
        // The boot-time fill measures a volume's primary; give the other
        // members rows of their own, each dearer than the last, so which
        // copy a SLED quotes is observable.
        let members = k.volume_members(m);
        if let Some(base) = members.first().and_then(|&d| t.device(d)) {
            for (i, &d) in members.iter().enumerate().skip(1) {
                let by = (i + 1) as f64;
                t.fill_device(d, SledsEntry::new(base.latency * by, base.bandwidth / by));
            }
        }
        // The table shapes pushdown once refused: zone rows (a slower zone
        // from `zone_at` on) and device self-reports.
        let dev = k.device_of_mount(m).unwrap();
        if let (Some(at), Some(base)) = (self.zone_at, t.device(dev)) {
            let slow = SledsEntry::new(base.latency, base.bandwidth / 2.0);
            t.fill_device_zones(dev, vec![(0, base), (at, slow)]);
        }
        t.set_trust_device_reports(self.trust);

        let path = format!("{dir}/f");
        let size = ((self.pages - 1) * PAGE_SIZE + self.tail) as usize;
        k.install_file(&path, &vec![5u8; size]).unwrap();
        if self.mount == 3 && self.migrate {
            k.hsm_migrate(&path, true).unwrap();
        }
        let fd = k.open(&path, OpenFlags::RDONLY).unwrap();
        for &(start, count) in &self.warms {
            k.lseek(fd, (start * PAGE_SIZE) as i64, Whence::Set)
                .unwrap();
            let _ = k.read(fd, (count * PAGE_SIZE) as usize);
        }

        // Wide windows: the whole run happens inside the fault, so both
        // twins see the same device state at every submission.
        let horizon = SimTime::from_nanos(k.now().as_nanos() + 3_600_000_000_000);
        let plan = match self.fault {
            0 => None,
            1 => Some(FaultPlan::new().offline(
                dev_name,
                k.now(),
                horizon,
                SimDuration::from_millis(1),
            )),
            2 => Some(FaultPlan::new().transient(
                dev_name,
                k.now(),
                horizon,
                self.budget,
                SimDuration::from_millis(2),
            )),
            _ => Some(FaultPlan::new().degraded(dev_name, k.now(), horizon, 3.0)),
        };
        if let Some(plan) = &plan {
            k.apply_fault_plan(plan);
        }
        (k, t, fd)
    }
}

/// One chunk's outcome, comparable across the two modes: the bytes, or the
/// full error rendering (errno + message).
type ChunkResult = Result<Payload, String>;

fn sled_bits(sleds: &[Sled]) -> Vec<(u64, u64, u64, u64)> {
    sleds
        .iter()
        .map(|s| {
            (
                s.offset,
                s.length,
                s.latency.to_bits(),
                s.bandwidth.to_bits(),
            )
        })
        .collect()
}

fn scenario(rng: &mut DetRng) {
    run_case(&Params::draw(rng));
}

fn run_case(p: &Params) {
    // Sequential twin: pick plan drained, then lseek+read per chunk.
    let (mut k, t, fd) = p.build();
    let before = k.usage();
    let mut pick = match PickSession::init(&mut k, &t, fd, PickConfig::bytes(p.chunk)) {
        Ok(pick) => pick,
        Err(e) => {
            // FSLEDS_GET itself failed (e.g. pricing hole); the ring twin
            // must fail the same way, then the case is exhausted.
            let (mut k2, t2, fd2) = p.build();
            let mut ring = SubmissionRing::new(p.ring_entries);
            let e2 =
                PickSession::init_ring(&mut k2, &mut ring, &t2, fd2, PickConfig::bytes(p.chunk))
                    .unwrap_err();
            assert_eq!(e.to_string(), e2.to_string());
            return;
        }
    };
    let seq_sleds = sled_bits(pick.sleds());
    let mut plan = Vec::new();
    while let Some(chunk) = pick.next_read() {
        plan.push(chunk);
    }
    pick.finish();
    let mut seq_results: Vec<ChunkResult> = Vec::new();
    for &(off, len) in &plan {
        k.lseek(fd, off as i64, Whence::Set).unwrap();
        seq_results.push(k.read(fd, len).map_err(|e| e.to_string()));
    }
    let seq_u = k.usage().since(&before);

    // Ring twin: same session brought up over the ring, chunks batched.
    let (mut k, t, fd) = p.build();
    let ops_before = k.ring_ops_serviced();
    let before = k.usage();
    let mut ring = SubmissionRing::new(p.ring_entries);
    let mut pick = PickSession::init_ring(&mut k, &mut ring, &t, fd, PickConfig::bytes(p.chunk))
        .expect("sequential init succeeded, ring init must too");
    assert_eq!(seq_sleds, sled_bits(pick.sleds()), "bit-identical SLEDs");
    let mut ring_plan = Vec::new();
    let mut ring_results: Vec<ChunkResult> = Vec::new();
    loop {
        let mut queued = 0usize;
        while queued < ring.capacity() {
            let Some((off, len)) = pick.next_read() else {
                break;
            };
            ring_plan.push((off, len));
            ring.push(off, Syscall::Pread { fd, pos: off, len })
                .unwrap();
            queued += 1;
        }
        if queued == 0 {
            break;
        }
        k.ring_enter(&mut ring).unwrap();
        for c in k.ring_reap(&mut ring) {
            ring_results.push(c.result.map_err(|e| e.to_string()).map(|p| match p {
                SyscallRet::Bytes(b) => b,
                other => panic!("pread completed with {other:?}"),
            }));
        }
    }
    pick.finish();
    let ring_u = k.usage().since(&before);
    let ring_ops = k.ring_ops_serviced() - ops_before;

    // Same plan, same bytes, same errors, same order.
    assert_eq!(plan, ring_plan, "identical pick plans");
    assert_eq!(seq_results, ring_results, "byte-identical chunk outcomes");

    // Same data motion, paging and fault handling.
    assert_eq!(seq_u.bytes_read, ring_u.bytes_read);
    assert_eq!(seq_u.major_faults, ring_u.major_faults);
    assert_eq!(seq_u.minor_faults, ring_u.minor_faults);
    assert_eq!(seq_u.device_reads, ring_u.device_reads);
    assert_eq!(seq_u.io_retries, ring_u.io_retries);
    assert_eq!(seq_u.retry_backoff, ring_u.retry_backoff);

    // Fewer crossings (batching can only help), and the CPU difference is
    // exactly the crossing charges saved minus the ring's per-op cost.
    assert!(
        ring_u.syscall_crossings <= seq_u.syscall_crossings,
        "ring {} vs sequential {} crossings",
        ring_u.syscall_crossings,
        seq_u.syscall_crossings
    );
    let cfg = k.config();
    let expected = (seq_u.syscall_crossings - ring_u.syscall_crossings) as f64
        * cfg.syscall_cpu.as_secs_f64()
        - ring_ops as f64 * cfg.ring_op_cpu.as_secs_f64();
    let gap = seq_u.cpu.as_secs_f64() - ring_u.cpu.as_secs_f64();
    assert!(
        (gap - expected).abs() < 1e-9,
        "cpu gap {gap} vs expected {expected} (mount {}, fault {})",
        p.mount,
        p.fault
    );
}

#[test]
fn batched_and_sequential_runs_are_equivalent_everywhere() {
    check::run("ring_vs_sequential", scenario);
}

/// Fixed cases from when pushdown still priced a redundant extent at its
/// primary alone. With that code pasted back, the first generated case to
/// fail is 6 of `ring_vs_sequential` (seed 0xa6a7235f409feb5d: an 18-page
/// file on the mirror, member 0 degraded 3x — the ring twin quotes the
/// degraded primary, the sequential twin the healthy copy at 2x); shrunk,
/// that is the middle case here. The other two are the same one-page file
/// with member 0 offline (the ring twin planned an unreachable file the
/// sequential twin reads from the surviving copy) and on the healthy coded
/// volume (quoted at the cheapest fragment instead of the k-th, and walked
/// without the alternative probes).
#[test]
fn volumes_price_alike_on_both_sides_of_the_boundary() {
    for (mount, fault) in [(4, 1), (4, 3), (5, 0)] {
        run_case(&Params {
            mount,
            pages: 1,
            tail: PAGE_SIZE,
            migrate: false,
            warms: Vec::new(),
            fault,
            budget: 1,
            chunk: 4096,
            ring_entries: 1,
            zone_at: None,
            trust: false,
        });
    }
}

/// Draws one ring-able call against the case's file: opens and stats of
/// the real path or a missing one, preads and closes of the open fd, of
/// fds the batch itself may have opened, or of a fd that never existed.
fn draw_call(rng: &mut DetRng, path: &str, fd: Fd, pages: u64) -> Syscall {
    let some_path = |rng: &mut DetRng| {
        if rng.chance(0.8) {
            path.to_string()
        } else {
            format!("{path}.missing")
        }
    };
    let some_fd = |rng: &mut DetRng| Fd(fd.0 + rng.range_u64(0, 4));
    match rng.range_u64(0, 8) {
        0 | 1 => Syscall::Open {
            path: some_path(rng),
            flags: OpenFlags::RDONLY,
        },
        2 => Syscall::Stat {
            path: some_path(rng),
        },
        3 => Syscall::Close { fd: some_fd(rng) },
        _ => Syscall::Pread {
            fd: some_fd(rng),
            pos: rng.range_u64(0, (pages + 1) * PAGE_SIZE),
            len: rng.range_usize(0, 3 * PAGE_SIZE as usize),
        },
    }
}

/// What the kernel's clock-and-bill ledger guarantees, checked from
/// outside after every step: on each tenant's timeline the elapsed time is
/// exactly its CPU plus its I/O wait, and the timeline never runs
/// backward — whoever is active, however often `tenant_switch` parked it.
#[derive(Default)]
struct Timelines(Vec<SimTime>);

impl Timelines {
    fn check(&mut self, k: &Kernel) {
        self.0.resize(k.tenant_count(), SimTime::ZERO);
        for (i, last) in self.0.iter_mut().enumerate() {
            let t = TenantId(i as u64);
            let u = k.tenant_usage(t).unwrap();
            assert_eq!(
                k.tenant_elapsed(t).unwrap(),
                u.cpu + u.io_wait,
                "tenant {i}: elapsed == cpu + io_wait"
            );
            let now = k.tenant_now(t).unwrap();
            assert!(now >= *last, "tenant {i} ran backward: {now:?} < {last:?}");
            *last = now;
        }
    }
}

/// The same generated calls, one trap each on one twin and batched through
/// `Syscall::RingEnter` on the other, each batch issued as one of three
/// tenants: identical completions, identical data motion, a CPU gap of
/// exactly the traps saved minus the ring's per-op dispatch, and every
/// tenant's timeline accounted for after every step on both twins.
fn syscall_batch_scenario(rng: &mut DetRng) {
    let p = Params::draw(rng);
    let (mut seq, _, fd) = p.build();
    let (mut batched, _, _) = p.build();
    for k in [&mut seq, &mut batched] {
        k.tenant_register("second");
        k.tenant_register("third");
    }
    let path = format!("{}/f", p.dir());
    let calls: Vec<(u64, Syscall)> = (0..rng.range_u64(1, 48))
        .map(|tag| (tag, draw_call(rng, &path, fd, p.pages)))
        .collect();
    let batches: Vec<(TenantId, &[(u64, Syscall)])> = calls
        .chunks(p.ring_entries)
        .map(|chunk| (TenantId(rng.range_u64(0, 3)), chunk))
        .collect();

    let before = seq.usage();
    let mut lines = Timelines::default();
    let mut seq_results = Vec::new();
    for &(tenant, chunk) in &batches {
        seq.tenant_switch(tenant).unwrap();
        for (tag, call) in chunk {
            seq_results.push((*tag, seq.syscall(call)));
            lines.check(&seq);
        }
    }
    let seq_u = seq.usage().since(&before);

    let before = batched.usage();
    let mut lines = Timelines::default();
    let mut ring_results = Vec::new();
    for &(tenant, chunk) in &batches {
        batched.tenant_switch(tenant).unwrap();
        let batch = Syscall::RingEnter {
            capacity: p.ring_entries,
            ops: chunk.to_vec(),
        };
        match batched.syscall(&batch).unwrap() {
            SyscallRet::Completions(done) => {
                ring_results.extend(done.into_iter().map(|c| (c.user_data, c.result)))
            }
            other => panic!("ring_enter returned {other:?}"),
        }
        lines.check(&batched);
    }
    let ring_u = batched.usage().since(&before);

    assert_eq!(seq_results, ring_results, "identical completions");
    assert_eq!(seq_u.syscalls, ring_u.syscalls);
    assert_eq!(seq_u.bytes_read, ring_u.bytes_read);
    assert_eq!(seq_u.major_faults, ring_u.major_faults);
    assert_eq!(seq_u.minor_faults, ring_u.minor_faults);
    assert_eq!(seq_u.device_reads, ring_u.device_reads);
    assert_eq!(seq_u.io_retries, ring_u.io_retries);
    assert_eq!(seq_u.retry_backoff, ring_u.retry_backoff);
    let cfg = seq.config();
    let n = calls.len() as u64;
    assert_eq!(seq_u.syscall_crossings, n);
    assert_eq!(
        ring_u.syscall_crossings,
        n.div_ceil(p.ring_entries as u64),
        "one crossing per batch"
    );
    let expected = (n - ring_u.syscall_crossings) as f64 * cfg.syscall_cpu.as_secs_f64()
        - n as f64 * cfg.ring_op_cpu.as_secs_f64();
    let gap = seq_u.cpu.as_secs_f64() - ring_u.cpu.as_secs_f64();
    assert!(
        (gap - expected).abs() < 1e-9,
        "cpu gap {gap} vs expected {expected} (mount {}, fault {})",
        p.mount,
        p.fault
    );
}

#[test]
fn generated_syscall_batches_match_their_sequential_twins() {
    check::run("syscall_batch_vs_sequential", syscall_batch_scenario);
}
