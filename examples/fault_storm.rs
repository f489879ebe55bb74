//! Fault storm: the fault-injection subsystem, end to end.
//!
//! Four properties, each asserted and summarized in
//! `results/FAULTS_report.json`:
//!
//! 1. **Determinism** — a seeded storm (`FaultPlan::seeded_storm`) replayed
//!    with the same seed produces byte-identical results: same data/error
//!    checksum, same retry counts, same backoff charge, same final virtual
//!    clock.
//! 2. **Masking** — a transient window with a bounded failure budget is
//!    fully absorbed by the kernel's bounded retry: every read succeeds,
//!    and the retries show up in rusage instead of in the application.
//! 3. **Routing** — `FSLEDS_GET` prices extents on an offline device as
//!    unavailable, and `PickSession` routes around them: the default
//!    `Defer` policy plans them last, `Skip` prunes them from the plan.
//! 4. **Recovery** — prediction error explodes while a device is degraded,
//!    and a post-recovery `FSLEDS_RECAL` from a fresh observation window
//!    restores it.
//! 5. **Replica reroute** — the same outage that fails every read on an
//!    unreplicated disk is invisible on a mirrored volume: the kernel
//!    reroutes to the surviving member, the application sees zero errors
//!    and zero retries, and the offline primary is never issued a command.
//!
//! ```text
//! cargo run --release --example fault_storm
//! ```

use sleds_repro::devices::{FaultPlan, FaultState};
use sleds_repro::fs::{Kernel, OpenFlags, VolumeLayout};
use sleds_repro::lmbench::fill_table;
use sleds_repro::replay::{build_kernel, WorkloadSpec};
use sleds_repro::scenarios;
use sleds_repro::sim_core::{SimDuration, SimTime, PAGE_SIZE};
use sleds_repro::sleds::{
    fsleds_get, recalibrate, total_delivery_time, AttackPlan, PickConfig, PickSession, SledsEntry,
    SledsTable,
};
use sleds_repro::trace::{audit_accuracy, summarize_class, AccuracySample, ClassAccuracy};

const STORM_SEED: u64 = 0xBADD;

fn fold(checksum: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(checksum, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64))
}

/// `dev` offline for the whole run.
fn offline(dev: &str) -> FaultPlan {
    let forever = SimTime::from_nanos(u64::MAX);
    FaultPlan::new().offline(dev, SimTime::ZERO, forever, SimDuration::from_millis(1))
}

/// Property 1: one run under a seeded storm over two disks. Reads that fail
/// (offline windows fail non-retryably) are part of the replayed result, so
/// their rendered errors fold into the checksum alongside the data.
fn run_storm(seed: u64) -> (u64, u64, u64, u64) {
    let (files, pages) = (6, 8usize);
    let mut k = build_kernel(&WorkloadSpec {
        fault_plan: FaultPlan::seeded_storm(seed, &["hda", "hdb"], SimDuration::from_secs(60)),
        ..scenarios::disks(&[("/data", "hda"), ("/mirror", "hdb")], files, pages)
    })
    .expect("build kernel");

    let mut checksum = 0u64;
    for _pass in 0..3 {
        for dir in ["/data", "/mirror"] {
            for i in 0..files {
                let fd = k
                    .open(&format!("{dir}/f{i}"), OpenFlags::RDONLY)
                    .expect("open");
                match k.read(fd, pages * PAGE_SIZE as usize) {
                    Ok(data) => checksum = fold(checksum, &data),
                    Err(e) => checksum = fold(checksum, e.to_string().as_bytes()),
                }
                k.close(fd).expect("close");
            }
        }
        k.drop_caches().expect("drop_caches");
        // March the clock through the storm so later passes see different
        // windows of the same plan.
        k.charge_cpu(SimDuration::from_secs(20));
    }
    let u = k.usage();
    (
        checksum,
        u.io_retries,
        u.retry_backoff.as_nanos(),
        k.now().as_nanos(),
    )
}

/// Property 2: a transient window with a bounded failure budget. Every read
/// must succeed — the budgeted failures are masked by bounded retries — and
/// the masking is visible in rusage, not in the application.
fn run_transient_masking() -> (u64, u64, u64) {
    let (files, pages) = (4, 6usize);
    let end = SimTime::ZERO + SimDuration::from_secs(600);
    let cost = SimDuration::from_millis(2);
    let mut k = build_kernel(&WorkloadSpec {
        fault_plan: FaultPlan::new().transient("hda", SimTime::ZERO, end, 3, cost),
        ..scenarios::disks(&[("/data", "hda")], files, pages)
    })
    .expect("build kernel");
    let mut ok = 0u64;
    for i in 0..files {
        let fd = k
            .open(&format!("/data/f{i}"), OpenFlags::RDONLY)
            .expect("open");
        let data = k
            .read(fd, pages * PAGE_SIZE as usize)
            .expect("bounded retries must mask a budgeted transient window");
        assert!(data.iter().all(|&b| b == i as u8), "data survived intact");
        ok += 1;
        k.close(fd).expect("close");
    }
    let u = k.usage();
    assert!(u.io_retries > 0, "the masking must be visible in rusage");
    assert!(!u.retry_backoff.is_zero(), "retries charge backoff time");
    (ok, u.io_retries, u.retry_backoff.as_nanos())
}

/// Property 3: half-cached file, device offline. `FSLEDS_GET` prices the
/// device extents unavailable; `Defer` plans them last, `Skip` prunes them.
fn run_offline_routing() -> (usize, usize, usize, usize) {
    let mut k = build_kernel(&scenarios::disks(&[("/data", "hda")], 1, 8)).expect("build kernel");
    let dev = k.find_mount("/data").and_then(|m| k.device_of_mount(m));
    let mut table = SledsTable::new();
    table.fill_memory(SledsEntry::new(175e-9, 48e6));
    table.fill_device(dev.expect("device"), SledsEntry::new(0.018, 9e6));

    let fd = k.open("/data/f0", OpenFlags::RDONLY).expect("open");
    // Warm the first half, then lose the disk that holds the rest.
    k.read(fd, 4 * PAGE_SIZE as usize).expect("warm");
    k.apply_fault_plan(&offline("hda"));

    let sleds = fsleds_get(&mut k, fd, &table).expect("fsleds_get");
    let unavailable = sleds.iter().filter(|s| s.unavailable()).count();
    assert!(unavailable >= 1, "offline extents must price unavailable");

    let cfg = PickConfig::bytes(PAGE_SIZE as usize);
    let mut defer = PickSession::init(&mut k, &table, fd, cfg).expect("defer session");
    let defer_planned = defer.planned_chunks();
    assert_eq!(defer_planned, 8, "Defer keeps every chunk in the plan");
    // The cached half streams first; the offline tail is deferred.
    for _ in 0..4 {
        let (off, _) = defer.next_read().expect("cached chunk");
        assert!(off < 4 * PAGE_SIZE, "cached chunks come first");
    }
    defer.finish();

    let skip = PickSession::init(&mut k, &table, fd, cfg.skip_unavailable()).expect("skip session");
    let skip_planned = skip.planned_chunks();
    assert_eq!(skip_planned, 4, "Skip prunes the offline tail");
    skip.finish();

    (sleds.len(), unavailable, defer_planned, skip_planned)
}

/// Property 5: the same offline outage against an unreplicated disk and a
/// two-way mirror. The unreplicated reads all fail; the mirrored reads all
/// succeed with zero app-visible errors and zero retries, served entirely
/// by the surviving member (the offline primary is never commanded).
fn run_replica_reroute() -> (u64, u64, u64, u64) {
    let files = 4;
    let pages = 6usize;

    // Baseline: unreplicated disk, offline for the whole read phase.
    let mut k = build_kernel(&WorkloadSpec {
        fault_plan: offline("hda"),
        ..scenarios::disks(&[("/flat", "hda")], files, pages)
    })
    .expect("build kernel");
    let mut flat_errors = 0u64;
    for i in 0..files {
        let fd = k
            .open(&format!("/flat/f{i}"), OpenFlags::RDONLY)
            .expect("open");
        if k.read(fd, pages * PAGE_SIZE as usize).is_err() {
            flat_errors += 1;
        }
        k.close(fd).expect("close");
    }
    assert_eq!(
        flat_errors, files as u64,
        "an unreplicated disk has nothing to reroute to"
    );

    // The mirror: same outage on the primary, zero app-visible errors.
    let members = [("table2_disk", "vd0"), ("table2_disk", "vd1")];
    let mut k = build_kernel(&WorkloadSpec {
        fault_plan: offline("vd0"),
        ..scenarios::volume(VolumeLayout::Mirrored, &members, files, pages)
    })
    .expect("build kernel");
    let members = k.volume_members(k.find_mount("/vol").expect("mount"));
    let mut mirrored_ok = 0u64;
    for i in 0..files {
        let fd = k
            .open(&format!("/vol/f{i}"), OpenFlags::RDONLY)
            .expect("open");
        let data = k
            .read(fd, pages * PAGE_SIZE as usize)
            .expect("an offline primary must reroute, not error");
        assert!(data.iter().all(|&b| b == i as u8), "data survived intact");
        mirrored_ok += 1;
        k.close(fd).expect("close");
    }
    let u = k.usage();
    assert_eq!(u.io_retries, 0, "reroute is not retry");
    let primary = k.device_stats(members[0]).expect("stats");
    let mirror = k.device_stats(members[1]).expect("stats");
    assert_eq!(primary.reads, 0, "the offline primary is never commanded");
    assert!(mirror.reads > 0, "the mirror serves every cold read");
    (flat_errors, mirrored_ok, primary.reads, mirror.reads)
}

/// Recovery-property corpus: many single-page files. One page per file
/// means one device command per cold read, so the per-command observables
/// recalibration rebuilds the table from (first-byte p50, effective
/// bandwidth) describe exactly what the prediction is priced against —
/// healthy predictions land close, and a degraded window separates cleanly.
const FILES: usize = 24;
const PAGES_PER_FILE: usize = 1;

fn read_pass(k: &mut Kernel) {
    let bytes = PAGES_PER_FILE * PAGE_SIZE as usize;
    for i in 0..FILES {
        let fd = k
            .open(&format!("/data/f{i}"), OpenFlags::RDONLY)
            .expect("open");
        k.read(fd, bytes).expect("read");
        k.close(fd).expect("close");
    }
}

fn predicted_pass(k: &mut Kernel, table: &SledsTable) {
    let bytes = PAGES_PER_FILE * PAGE_SIZE as usize;
    for i in 0..FILES {
        let fd = k
            .open(&format!("/data/f{i}"), OpenFlags::RDONLY)
            .expect("open");
        total_delivery_time(k, table, fd, AttackPlan::Linear).expect("estimate");
        k.read(fd, bytes).expect("read");
        k.close(fd).expect("close");
    }
}

fn disk_err(samples: &[AccuracySample], generation: u64) -> ClassAccuracy {
    let subset: Vec<AccuracySample> = samples
        .iter()
        .filter(|s| s.generation == generation && s.class == 1)
        .copied()
        .collect();
    summarize_class(1, &subset).expect("disk accuracy samples")
}

/// Recalibrates from the current traced session and returns the refreshed
/// table (stamped with the bumped sleds epoch, which also fences the
/// accuracy audit so the next pass's samples group under a new generation).
fn recal_now(k: &mut Kernel, table: &SledsTable) -> SledsTable {
    let fd = k.open("/data/f0", OpenFlags::RDONLY).expect("open");
    let outcome = recalibrate(k, table, fd).expect("recal");
    k.close(fd).expect("close");
    assert!(!outcome.refreshed.is_empty(), "the pass must refresh rows");
    outcome.table
}

/// Property 4, four measurements of disk-class prediction error:
///
/// * `healthy` — recalibrated table vs healthy reality (baseline);
/// * `during` — healthy-calibrated table vs a 6x-degraded disk: low,
///   because `FSLEDS_GET` folds the live fault state into the SLEDs, so
///   predictions track the degradation without a recal;
/// * `stale` — a table recalibrated *during* the window (it absorbs the
///   degraded observations) used after recovery: high, the pollution a
///   fault leaves behind;
/// * `recovered` — one post-recovery recal from a fresh observation
///   window restores the baseline.
fn run_recovery() -> (f64, f64, f64, f64) {
    let mut k = build_kernel(&scenarios::disks(
        &[("/data", "hda")],
        FILES,
        PAGES_PER_FILE,
    ))
    .expect("build kernel");
    let m = k.find_mount("/data").expect("mount");
    let dev = k.device_of_mount(m).expect("device");
    let table0 = fill_table(&mut k, &[("/data", m)]).expect("lmbench calibration");
    // Warmup so head position and zone state reach steady state.
    read_pass(&mut k);
    k.drop_caches().expect("drop_caches");

    // Session 1: healthy baseline, then a healthy-calibrated table priced
    // against the degraded disk (the second recal only re-fences the
    // audit — the session has seen nothing but healthy commands).
    k.enable_tracing();
    read_pass(&mut k);
    k.drop_caches().expect("drop_caches");
    let table1 = recal_now(&mut k, &table0);
    predicted_pass(&mut k, &table1);
    k.drop_caches().expect("drop_caches");

    let table2 = recal_now(&mut k, &table1);
    let start = k.now();
    k.apply_fault_plan(&FaultPlan::new().degraded(
        "hda",
        start,
        start + SimDuration::from_secs(3600),
        6.0,
    ));
    predicted_pass(&mut k, &table2);
    k.drop_caches().expect("drop_caches");

    let audit1 = audit_accuracy(&k.trace_events());
    assert_eq!(audit1.cross_generation, 0);
    let healthy = disk_err(&audit1.samples, table1.generation());
    let during = disk_err(&audit1.samples, table2.generation());

    // Session 2: recalibrate from observations made *inside* the window —
    // the table absorbs the 6x — then price that stale table against the
    // recovered disk.
    k.enable_tracing();
    read_pass(&mut k);
    k.drop_caches().expect("drop_caches");
    let table3 = recal_now(&mut k, &table2);

    k.charge_cpu(SimDuration::from_secs(7200));
    assert!(
        matches!(k.device_fault_state(dev), Some(FaultState::Healthy)),
        "the window must have closed"
    );
    predicted_pass(&mut k, &table3);
    k.drop_caches().expect("drop_caches");

    let audit2 = audit_accuracy(&k.trace_events());
    assert_eq!(audit2.cross_generation, 0);
    let stale = disk_err(&audit2.samples, table3.generation());

    // Session 3: one post-recovery recal from a fresh observation window.
    k.enable_tracing();
    read_pass(&mut k);
    k.drop_caches().expect("drop_caches");
    let table4 = recal_now(&mut k, &table3);
    predicted_pass(&mut k, &table4);

    let audit3 = audit_accuracy(&k.trace_events());
    assert_eq!(audit3.cross_generation, 0);
    let recovered = disk_err(&audit3.samples, table4.generation());
    k.disable_tracing();

    assert!(
        during.mean_abs_rel_err < 2.0 * healthy.mean_abs_rel_err + 0.1,
        "fault-aware SLEDs must keep predictions usable during the window \
         ({:.4} vs healthy {:.4})",
        during.mean_abs_rel_err,
        healthy.mean_abs_rel_err
    );
    assert!(
        stale.mean_abs_rel_err > 1.0 && stale.mean_abs_rel_err > 3.0 * healthy.mean_abs_rel_err,
        "a table that absorbed the degraded window must mispredict after \
         recovery ({:.4} vs healthy {:.4})",
        stale.mean_abs_rel_err,
        healthy.mean_abs_rel_err
    );
    assert!(
        recovered.mean_abs_rel_err < 0.5 * stale.mean_abs_rel_err
            && recovered.mean_abs_rel_err < healthy.mean_abs_rel_err + 0.1,
        "post-recovery recal must restore the baseline ({:.4} vs stale {:.4})",
        recovered.mean_abs_rel_err,
        stale.mean_abs_rel_err
    );
    (
        healthy.mean_abs_rel_err,
        during.mean_abs_rel_err,
        stale.mean_abs_rel_err,
        recovered.mean_abs_rel_err,
    )
}

fn main() {
    // Property 1: determinism.
    let a = run_storm(STORM_SEED);
    let b = run_storm(STORM_SEED);
    assert_eq!(a, b, "same seed must replay byte-identically");
    println!(
        "determinism: seed {STORM_SEED:#x} -> checksum {:#018x}, {} retries, {} ns backoff, clock {} ns (twice)",
        a.0, a.1, a.2, a.3
    );

    // Property 2: retries mask a budgeted transient window.
    let (reads_ok, retries, backoff_ns) = run_transient_masking();
    println!("masking: {reads_ok} reads ok, {retries} retries, {backoff_ns} ns backoff");

    // Property 3: picks route around an offline device.
    let (extents, unavailable, defer_planned, skip_planned) = run_offline_routing();
    println!(
        "routing: {extents} extents ({unavailable} unavailable), defer plans {defer_planned}, skip plans {skip_planned}"
    );

    // Property 4: post-recovery recalibration restores prediction error.
    let (err_healthy, err_during, err_stale, err_recovered) = run_recovery();
    println!(
        "recovery: disk error healthy {err_healthy:.4}, during fault {err_during:.4}, stale table {err_stale:.4}, recovered {err_recovered:.4}"
    );

    // Property 5: a mirrored volume masks the outage entirely.
    let (flat_errors, mirrored_ok, primary_reads, mirror_reads) = run_replica_reroute();
    println!(
        "reroute: unreplicated {flat_errors} errors, mirrored {mirrored_ok} reads ok (primary {primary_reads} cmds, mirror {mirror_reads} cmds)"
    );

    // House results-JSON style: hand-rolled, fixed precision, so identical
    // runs serialize identically and check.sh can diff against the
    // committed copy as a regression gate over the whole fault subsystem.
    let json = format!(
        "{{\n  \"audit\": \"fault storm: determinism, retry masking, offline routing, recovery, replica reroute\",\n  \"regenerate\": \"cargo run --release --example fault_storm\",\n  \"determinism\": {{\"seed\": {STORM_SEED}, \"checksum\": \"{:#018x}\", \"io_retries\": {}, \"retry_backoff_ns\": {}, \"final_clock_ns\": {}}},\n  \"masking\": {{\"reads_ok\": {reads_ok}, \"io_retries\": {retries}, \"retry_backoff_ns\": {backoff_ns}}},\n  \"routing\": {{\"extents\": {extents}, \"unavailable\": {unavailable}, \"defer_planned\": {defer_planned}, \"skip_planned\": {skip_planned}}},\n  \"recovery\": {{\"err_healthy\": {err_healthy:.4}, \"err_during_fault\": {err_during:.4}, \"err_stale_table\": {err_stale:.4}, \"err_recovered\": {err_recovered:.4}}},\n  \"reroute\": {{\"unreplicated_errors\": {flat_errors}, \"mirrored_reads_ok\": {mirrored_ok}, \"offline_primary_commands\": {primary_reads}, \"mirror_commands\": {mirror_reads}}}\n}}\n",
        a.0, a.1, a.2, a.3
    );
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    let dir = sleds_repro::results_dir();
    std::fs::create_dir_all(&dir).expect("mkdir results");
    let path = dir.join("FAULTS_report.json");
    std::fs::write(&path, &json).expect("write report");
    println!("-> {}", path.display());
}
