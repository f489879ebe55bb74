//! The sinks agree: one seeded scenario walks every arm of the accounting
//! spine (`Kernel::post`) — serial commands with real queue waits, dirty
//! evictions and an `fsync`, hedge losers on a degraded mirror, overlapped
//! fragments and transiently faulted ones on a (2,3)-coded volume — with
//! tracing and capture armed, and after **every syscall** checks that the
//! command queues, `Rusage`, the flight recorder and the tracer all moved
//! by the same numbers.

use std::collections::BTreeMap;

use sleds_devices::{
    BlockDevice, DevStats, DeviceClass, DeviceProfile, DiskDevice, FaultInjector, FaultPlan,
    FaultState, PhaseKind, ServicePhase, ZoneSpan,
};
use sleds_fs::trace::{EventPhase, Layer, TraceEvent};
use sleds_fs::{
    DeviceId, Fd, HedgePolicy, Kernel, MachineConfig, OpenFlags, Rusage, TenantId,
    VirtualSubmitter, VolumeLayout,
};
use sleds_pagecache::PageKey;
use sleds_sim_core::{
    ByteSize, DetRng, Errno, SimDuration, SimError, SimResult, SimTime, PAGE_SIZE,
};

const SEED: u64 = 0x5EED_C057;
/// Every device in the scenario is a disk.
const DISK: u64 = 1;
const FAULT_COST: SimDuration = SimDuration::from_millis(2);
const FAULT_BUDGET: u32 = 3;

fn disks(names: &[&str]) -> Vec<Box<dyn BlockDevice>> {
    names
        .iter()
        .map(|n| Box::new(DiskDevice::table2_disk(*n)) as Box<_>)
        .collect()
}

/// What one tenant does, one syscall per turn.
enum Role {
    /// Appends two pages per turn to its log, then `fsync`s it: more dirty
    /// pages than the cache holds, so anyone's miss may evict and write.
    Writer,
    /// Four-page preads at seeded offsets of a file on the plain disk.
    Reader,
    /// Sequential four-page preads of a file on a volume (one miss run
    /// each: the file is cold and laid out contiguously).
    Sweeper,
}

struct Lane {
    tenant: TenantId,
    fd: Fd,
    role: Role,
    turns: u32,
    taken: u32,
    think: SimDuration,
    rng: DetRng,
}

/// `(commands, busy_ns, queue_wait_ns)` a tenant has placed on every queue,
/// checking each queue's wait attribution on the way. (A queue's totals
/// are the sum of its tenant rows by construction.)
fn queue_rows(k: &Kernel) -> BTreeMap<u64, (u64, u64, u64)> {
    let mut rows: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for d in 0..k.device_count() {
        let q = k.device_queue(DeviceId(d)).unwrap();
        for (t, cost) in q.tenant_rows() {
            let row = rows.entry(t).or_default();
            row.0 += cost.commands;
            row.1 += cost.service_ns;
            row.2 += cost.queue_wait_ns;
        }
        let waits: u64 = q.wait_rows().map(|(_, ns)| ns).sum();
        assert_eq!(
            waits,
            q.total().queue_wait_ns,
            "device {d}: wait attribution"
        );
    }
    rows
}

fn delta(
    after: &BTreeMap<u64, (u64, u64, u64)>,
    before: &BTreeMap<u64, (u64, u64, u64)>,
    t: u64,
) -> (u64, u64, u64) {
    let a = after.get(&t).copied().unwrap_or_default();
    let b = before.get(&t).copied().unwrap_or_default();
    (a.0 - b.0, a.1 - b.1, a.2 - b.2)
}

/// What the trace says one syscall cost, read off its events alone.
#[derive(Default, Debug)]
struct Traced {
    /// Served commands (top-level device spans).
    served: u64,
    /// Σ span length (queue wait + service) of every served command.
    served_ns: u64,
    /// Σ `queue_wait` phases of the served commands.
    wait_ns: u64,
    /// Σ span length (queue wait + service) of serial served commands.
    serial_ns: u64,
    /// Caller-visible time of the coded fan-outs: each miss run lasts from
    /// its `cache.miss` mark to the later of its last fragment completion
    /// and its last serial fault.
    fanout_ns: u64,
    faults: u64,
    fault_cost_ns: u64,
    /// Queue wait of the faulted attempts: each was submitted where the
    /// previous charge left the clock (the miss mark, or the previous
    /// fault mark) and its mark sits at `submit + wait + cost`.
    fault_wait_ns: u64,
    hedges: u64,
    cancel_ns: u64,
}

fn read_trace(events: &[TraceEvent], overlapped: bool) -> Traced {
    let mut t = Traced::default();
    // The open fan-out: (miss instant, latest completion, last submit).
    let mut run: Option<(SimTime, SimTime, SimTime)> = None;
    let close = |run: &mut Option<(SimTime, SimTime, SimTime)>, t: &mut Traced| {
        if let Some((t0, end, _)) = run.take() {
            t.fanout_ns += end.duration_since(t0).as_nanos();
        }
    };
    for e in events {
        match (e.layer, e.phase, e.name) {
            (Layer::Cache, EventPhase::Mark, "cache.miss") if overlapped => {
                close(&mut run, &mut t);
                run = Some((e.ts, e.ts, e.ts));
            }
            (Layer::Device, EventPhase::Mark, "fault.inject") => {
                let cost = e.args[2];
                t.faults += 1;
                t.fault_cost_ns += cost;
                let (_, end, submit) = run.as_mut().expect("faults only hit coded reads");
                t.fault_wait_ns += e.ts.duration_since(*submit).as_nanos() - cost;
                *submit = e.ts;
                *end = (*end).max(e.ts);
            }
            (Layer::Device, EventPhase::Mark, "io.hedge") => {
                t.hedges += 1;
                t.cancel_ns += e.args[2];
            }
            (Layer::Device, EventPhase::Complete, "queue_wait") => t.wait_ns += e.dur.as_nanos(),
            // A command span carries its sector count; its phases carry 0.
            (Layer::Device, EventPhase::Complete, name) if e.args[1] > 0 => {
                t.served += 1;
                t.served_ns += e.dur.as_nanos();
                match run.as_mut() {
                    Some((_, end, submit)) if name == "disk.read" => {
                        assert_eq!(e.ts, *submit, "a pass's fragments leave together");
                        *end = (*end).max(e.ts + e.dur);
                    }
                    _ => t.serial_ns += e.dur.as_nanos(),
                }
            }
            _ => {}
        }
    }
    close(&mut run, &mut t);
    t
}

/// Everything observed around one syscall.
struct Step {
    tenant: u64,
    usage: Rusage,
    queue: (u64, u64, u64),
    overlapped: bool,
    traced: Traced,
}

#[test]
fn every_sink_moves_by_the_same_numbers() {
    let cancel = HedgePolicy::default().cancel_cost;
    let mut k = Kernel::new(MachineConfig {
        ram: ByteSize::bytes(96 * PAGE_SIZE),
        ..MachineConfig::table2()
    });
    for dir in ["/d", "/m", "/c"] {
        k.mkdir(dir).unwrap();
    }
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    k.mount_volume("/m", VolumeLayout::Mirrored, disks(&["m0", "m1"]))
        .unwrap();
    let coded = VolumeLayout::Coded { k: 2 };
    k.mount_volume("/c", coded, disks(&["c0", "c1", "c2"]))
        .unwrap();
    let body = vec![7u8; 64 * PAGE_SIZE as usize];
    for path in ["/d/a", "/d/b", "/m/f", "/c/f", "/c/g"] {
        k.install_file(path, &body).unwrap();
    }
    k.drop_caches().unwrap();
    let forever = SimTime::from_nanos(u64::MAX);
    k.apply_fault_plan(
        &FaultPlan::new()
            .degraded("m0", SimTime::ZERO, forever, 10.0)
            .transient("c0", SimTime::ZERO, forever, FAULT_BUDGET, FAULT_COST),
    );

    let root = DetRng::new(SEED);
    let plan = [
        ("log", "/d/log", Role::Writer, 41),
        ("scan-a", "/d/a", Role::Reader, 24),
        ("scan-b", "/d/b", Role::Reader, 24),
        ("mirror", "/m/f", Role::Sweeper, 16),
        ("coded-f", "/c/f", Role::Sweeper, 16),
        ("coded-g", "/c/g", Role::Sweeper, 16),
    ];
    let mut sub = VirtualSubmitter::new();
    let mut lanes = Vec::new();
    for (i, (name, path, role, turns)) in plan.into_iter().enumerate() {
        let tenant = k.tenant_register(name);
        k.tenant_switch(tenant).unwrap();
        let flags = match role {
            Role::Writer => OpenFlags::CREATE,
            _ => OpenFlags::RDONLY,
        };
        let fd = k.open(path, flags).unwrap();
        let mut rng = root.derive(i as u64);
        sub.add(k.now());
        lanes.push(Lane {
            tenant,
            fd,
            role,
            turns,
            taken: 0,
            think: SimDuration::from_micros(rng.range_u64(50, 400)),
            rng,
        });
    }
    k.tenant_switch(TenantId(0)).unwrap();
    k.enable_tracing();
    k.start_capture(4096);

    let mut steps: Vec<Step> = Vec::new();
    let mut seen = 0u64;
    while let Some(lane) = sub.next() {
        let ready = sub.ready_at(lane).unwrap();
        let l = &mut lanes[lane];
        k.tenant_switch(l.tenant).unwrap();
        if ready > k.now() {
            k.charge_cpu(ready.duration_since(k.now()));
        }
        let (usage0, queue0) = (k.usage(), queue_rows(&k));
        let chunk = 4 * PAGE_SIZE;
        let last = l.taken + 1 == l.turns;
        match l.role {
            Role::Writer if last => k.fsync(l.fd).unwrap(),
            Role::Writer => {
                let page = vec![l.taken as u8; 2 * PAGE_SIZE as usize];
                assert_eq!(k.write(l.fd, &page).unwrap(), page.len());
            }
            Role::Reader => {
                let at = l.rng.range_u64(0, 16) * chunk;
                assert_eq!(
                    k.pread(l.fd, at, chunk as usize).unwrap().len(),
                    chunk as usize
                );
            }
            Role::Sweeper => {
                let at = u64::from(l.taken) * chunk;
                assert_eq!(
                    k.pread(l.fd, at, chunk as usize).unwrap().len(),
                    chunk as usize
                );
            }
        }
        l.taken += 1;
        if last {
            sub.finish(lane);
        } else {
            sub.reschedule(lane, k.now() + l.think);
        }

        let t = l.tenant.0;
        let usage = k.usage().since(&usage0);
        let queue = delta(&queue_rows(&k), &queue0, t);
        let events = k.trace_events();
        assert_eq!(k.trace_dropped(), 0);
        let fresh: Vec<TraceEvent> = events.into_iter().filter(|e| e.seq >= seen).collect();
        seen += fresh.len() as u64;
        assert!(fresh.iter().all(|e| e.tenant == t));
        let overlapped = lane >= 4;
        let traced = read_trace(&fresh, overlapped);
        let at = format!(
            "step {} ({}, turn {})",
            steps.len(),
            plan_name(lane),
            l.taken
        );

        // Σ per-tenant Rusage == global.
        let mut sum = Rusage::default();
        for i in 0..k.tenant_count() {
            sum.accumulate(&k.tenant_usage(TenantId(i as u64)).unwrap());
        }
        assert_eq!(sum, k.usage(), "{at}: per-tenant rusage rows sum to global");

        // Served commands: Rusage counters == device spans.
        assert_eq!(
            usage.device_reads + usage.device_writes,
            traced.served,
            "{at}"
        );
        // Queue rows == served spans (wait phase vs the rest) + the faulted
        // attempts and hedge losers, which have no span.
        assert_eq!(
            queue.0,
            traced.served + traced.faults + traced.hedges,
            "{at}"
        );
        let service_ns = traced.served_ns - traced.wait_ns;
        assert_eq!(
            queue.1,
            service_ns + traced.fault_cost_ns + traced.cancel_ns,
            "{at}"
        );
        assert_eq!(queue.2, traced.wait_ns + traced.fault_wait_ns, "{at}");
        // Hedge overhead, three ways.
        assert_eq!(usage.hedges, traced.hedges, "{at}");
        assert_eq!(usage.hedge_wait.as_nanos(), traced.cancel_ns, "{at}");
        assert_eq!(traced.cancel_ns, traced.hedges * cancel.as_nanos(), "{at}");
        let cancels: u64 = (0..k.device_count())
            .map(|d| k.device_queue(DeviceId(d)).unwrap().cancels())
            .sum();
        assert_eq!(cancels, k.usage().hedges, "{at}");
        assert_eq!(k.metrics().unwrap().hedges, k.usage().hedges, "{at}");
        assert_eq!(k.usage().hedge_wait.as_nanos(), cancels * cancel.as_nanos());

        // What the caller was charged.
        assert_eq!(usage.retry_backoff, SimDuration::ZERO, "{at}");
        let charged = usage.io_wait.as_nanos();
        if overlapped {
            // Overlapped fragments: the straggler gap (plus serial faults
            // inside it), not the sum of the fragments; evictions of the
            // writer's dirty pages are serial as everywhere.
            assert_eq!(charged, traced.fanout_ns + traced.serial_ns, "{at}");
            assert!(charged <= queue.1 + queue.2, "{at}");
        } else {
            // Serial commands: zero residual against every other sink.
            assert_eq!(traced.faults, 0, "{at}");
            assert_eq!(charged, queue.1 + queue.2, "{at}");
            assert_eq!(charged, traced.serial_ns + traced.cancel_ns, "{at}");
            assert_eq!(usage.queue_wait.as_nanos(), queue.2, "{at}");
        }
        steps.push(Step {
            tenant: t,
            usage,
            queue,
            overlapped,
            traced,
        });
    }

    // The flight recorder saw the same numbers, op by op.
    let cap = k.stop_capture().unwrap();
    assert!(cap.complete, "{:?}", cap.incomplete_reason);
    assert_eq!(cap.ops.len(), steps.len());
    for (i, (op, s)) in cap.ops.iter().zip(&steps).enumerate() {
        let (o, dev) = (&op.outcome, op.outcome.device());
        assert_eq!(op.tenant, s.tenant, "op {i}");
        assert_eq!(
            (dev.commands, dev.service_ns, dev.queue_wait_ns),
            s.queue,
            "op {i}"
        );
        assert_eq!(o.hedges, s.usage.hedges, "op {i}");
        assert!(o.classes.iter().all(|&(class, _)| class == DISK), "op {i}");
        if !s.overlapped {
            assert_eq!(
                s.usage.io_wait.as_nanos(),
                dev.observed_ns(),
                "op {i}: class rows explain the whole io_wait"
            );
        }
    }

    // The scenario really walked every arm.
    let total = k.usage();
    let faults: u64 = steps.iter().map(|s| s.traced.faults).sum();
    assert_eq!(faults, u64::from(FAULT_BUDGET));
    assert_eq!(k.metrics().unwrap().faults_injected, faults);
    assert!(steps.iter().any(|s| s.traced.fault_wait_ns > 0));
    assert!(total.hedges > 0 && total.hedge_wins > 0);
    assert!(total.queue_wait > SimDuration::ZERO);
    assert!(total.device_writes > 0);
    assert!(k.cache_stats().dirty_evictions > 0);
    assert!(steps.iter().any(|s| s.overlapped && s.traced.serial_ns > 0));
    let overlap_saved = |s: &Step| s.usage.io_wait.as_nanos() < s.queue.1 + s.queue.2;
    assert!(steps.iter().any(|s| s.overlapped && overlap_saved(s)));
    assert_eq!(total.io_retries, 0);
}

/// A disk whose reads fail with a plain `EIO` dressed up as an injected
/// fault: the context text says so and the phase log shows one `Fault`
/// phase, but the error carries no fault cost.
struct Impostor(DiskDevice);

impl BlockDevice for Impostor {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn class(&self) -> DeviceClass {
        self.0.class()
    }
    fn capacity_sectors(&self) -> u64 {
        self.0.capacity_sectors()
    }
    fn profile(&self) -> DeviceProfile {
        self.0.profile()
    }
    fn read(&mut self, _: u64, _: u64, _: SimTime) -> SimResult<SimDuration> {
        Err(SimError::new(Errno::Eio, "impostor: injected fault"))
    }
    fn write(&mut self, start: u64, sectors: u64, now: SimTime) -> SimResult<SimDuration> {
        self.0.write(start, sectors, now)
    }
    fn stats(&self) -> DevStats {
        self.0.stats()
    }
    fn reset_stats(&mut self) {
        self.0.reset_stats()
    }
    fn last_phases(&self) -> &[ServicePhase] {
        &[ServicePhase {
            kind: PhaseKind::Fault,
            dur: FAULT_COST,
        }]
    }
    fn zone_map(&self) -> Vec<ZoneSpan> {
        self.0.zone_map()
    }
    fn dynamic_probe(&self, sector: u64) -> Option<(f64, f64)> {
        self.0.dynamic_probe(sector)
    }
    fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.0.set_fault_injector(injector)
    }
    fn fault_epoch(&self, now: SimTime) -> u64 {
        self.0.fault_epoch(now)
    }
    fn fault_state(&self, now: SimTime) -> FaultState {
        self.0.fault_state(now)
    }
}

/// Only an error that *carries* a fault cost is charged device time: not
/// a bounds `EINVAL` after a genuine injected fault, and not an `EIO`
/// that merely looks injected.
#[test]
fn refused_commands_are_never_charged_device_time() {
    let mut k = Kernel::table2();
    k.mkdir("/d").unwrap();
    k.mkdir("/x").unwrap();
    let m = k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    let impostor = Box::new(Impostor(DiskDevice::table2_disk("impostor")));
    let x = k.mount_device("/x", impostor, false).unwrap();
    let (hda, bad) = (k.device_of_mount(m).unwrap(), k.device_of_mount(x).unwrap());
    k.install_file("/x/f", &[1u8; PAGE_SIZE as usize]).unwrap();
    k.drop_caches().unwrap();
    let forever = SimTime::from_nanos(u64::MAX);
    k.apply_fault_plan(&FaultPlan::new().offline("hda", SimTime::ZERO, forever, FAULT_COST));
    k.enable_tracing();

    // A genuine injected fault is charged its cost...
    let err = k.raw_device_read(hda, 0, 8).unwrap_err();
    assert_eq!(
        (err.errno, err.fault_cost()),
        (Errno::Eio, Some(FAULT_COST))
    );
    assert_eq!(k.usage().io_wait, FAULT_COST);
    assert_eq!(k.device_queue(hda).unwrap().total().commands, 1);
    let charged = (k.now(), k.usage(), k.trace_events().len());

    // ...the bounds error right behind it, and the look-alike, cost nothing.
    let cap = k.device_capacity(hda).unwrap();
    let err = k.raw_device_read(hda, cap, 8).unwrap_err();
    assert_eq!((err.errno, err.fault_cost()), (Errno::Einval, None));
    let err = k.raw_device_read(bad, 0, 8).unwrap_err();
    assert_eq!((err.errno, err.fault_cost()), (Errno::Eio, None));
    assert_eq!(charged, (k.now(), k.usage(), k.trace_events().len()));
    assert_eq!(k.device_queue(hda).unwrap().total().commands, 1);
    assert_eq!(k.device_queue(bad).unwrap().total().commands, 0);

    // Through a syscall the look-alike costs the trap and nothing else.
    let fd = k.open("/x/f", OpenFlags::RDONLY).unwrap();
    let before = k.usage();
    assert_eq!(k.read(fd, 1).unwrap_err().errno, Errno::Eio);
    assert_eq!(k.usage().since(&before).io_wait, SimDuration::ZERO);
    assert_eq!(k.metrics().unwrap().faults_injected, 1);
}

/// A `pread` whose fault-in evicts dirty pages while the disk that must
/// take them is offline: the call fails on the first dirty victim's
/// writeback, and everything it leaves behind — errno, clock, rusage, which
/// pages are resident, how many are dirty — is what the per-page insert
/// loop left (constants recorded from the commit before `insert_run`).
/// The run is half in by then: the pages up to the one whose victim was
/// dirty stay, the rest never arrive.
#[test]
fn a_failed_dirty_eviction_leaves_what_the_per_page_loop_left() {
    let mut k = Kernel::new(MachineConfig {
        ram: ByteSize::bytes(96 * PAGE_SIZE),
        ..MachineConfig::table2()
    });
    let cache = k.cache_capacity_pages() as u64;
    k.mkdir("/a").unwrap();
    k.mkdir("/b").unwrap();
    k.mount_disk("/a", DiskDevice::table2_disk("hda")).unwrap();
    let mb = k.mount_disk("/b", DiskDevice::table2_disk("hdb")).unwrap();
    let hdb = k.device_of_mount(mb).unwrap();
    k.install_file("/a/f", &vec![5u8; 64 * PAGE_SIZE as usize])
        .unwrap();
    k.drop_caches().unwrap();

    // Four clean pages of /a/f at the cold end of the LRU, then dirty
    // pages of /b/log until the cache is full.
    let f = k.open("/a/f", OpenFlags::RDONLY).unwrap();
    k.pread(f, 40 * PAGE_SIZE, 4 * PAGE_SIZE as usize).unwrap();
    let log = k.open("/b/log", OpenFlags::CREATE).unwrap();
    let dirty = cache - 4;
    for _ in 0..dirty {
        k.write(log, &[9u8; PAGE_SIZE as usize]).unwrap();
    }
    assert_eq!(k.cache_resident_pages() as u64, cache);
    assert_eq!(k.cache_dirty_pages(), dirty);

    let forever = SimTime::from_nanos(u64::MAX);
    k.apply_fault_plan(&FaultPlan::new().offline("hdb", k.now(), forever, FAULT_COST));
    k.enable_tracing();
    k.start_capture(16);
    let (before, t0) = (k.usage(), k.now());
    let writes_before = k.device_stats(hdb).unwrap().writes;

    // Eight cold pages: four clean victims, then the first dirty one.
    let err = k.pread(f, 0, 8 * PAGE_SIZE as usize).unwrap_err();

    let (spent, elapsed) = (k.usage().since(&before), k.now() - t0);
    let (f_ino, log_ino) = (
        k.stat("/a/f").unwrap().ino.0,
        k.stat("/b/log").unwrap().ino.0,
    );
    let resident = |k: &Kernel, ino: u64, pages: u64| -> Vec<u64> {
        (0..pages)
            .filter(|&p| k.cache_probe(PageKey::new(ino, p)))
            .collect()
    };
    let evicted: Vec<(u64, u64, u64, u64)> = k
        .trace_events()
        .iter()
        .filter(|e| e.name == "cache.evict")
        .map(|e| {
            (
                e.ts.duration_since(t0).as_nanos(),
                e.args[0],
                e.args[1],
                e.args[2],
            )
        })
        .collect();
    assert_eq!(
        (err.errno, err.fault_cost()),
        (Errno::Eio, Some(FAULT_COST))
    );
    assert_eq!(elapsed.as_nanos(), 19_147_160);
    assert_eq!(
        (spent.cpu.as_nanos(), spent.io_wait.as_nanos()),
        (21_000, 19_126_160)
    );
    assert_eq!(
        (spent.major_faults, spent.device_reads, spent.device_writes),
        (8, 1, 0)
    );
    // Four clean victims made room for pages 0–3, the dirty one for page 4.
    let at = 17_147_160;
    assert_eq!(
        evicted,
        [
            (at, 40, 0, f_ino),
            (at, 41, 0, f_ino),
            (at, 42, 0, f_ino),
            (at, 43, 0, f_ino),
            (at, 0, 1, log_ino)
        ]
    );
    assert_eq!(resident(&k, f_ino, 64), [0, 1, 2, 3, 4]);
    assert_eq!(resident(&k, log_ino, dirty), (1..dirty).collect::<Vec<_>>());
    assert_eq!(k.cache_dirty_pages(), dirty - 1);
    assert_eq!(k.device_stats(hdb).unwrap().writes, writes_before);
    let op = &k.stop_capture().unwrap().ops[0];
    assert_eq!((op.outcome.ok, op.outcome.errno), (false, Some(Errno::Eio)));
    assert_eq!((op.outcome.data_len, op.outcome.data_fold), (0, 0));
}

fn plan_name(lane: usize) -> &'static str {
    ["log", "scan-a", "scan-b", "mirror", "coded-f", "coded-g"][lane]
}
