//! Property tests for the device models: bounds, monotonicity and state
//! invariants that must hold for any access sequence.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

use sleds_devices::jukebox::JukeboxParams;
use sleds_devices::{
    BlockDevice, CdRomDevice, DevStats, DiskDevice, FaultPlan, Jukebox, NfsDevice, PhaseKind,
    ServicePhase, TapeDevice,
};
use sleds_sim_core::{check, DetRng, SimDuration, SimTime};

/// Upper bound on any single disk command in the tests below: full-stroke
/// seek + a few revolutions + generous transfer time.
const DISK_CMD_BOUND_S: f64 = 0.5;

/// Every valid disk read completes in bounded, positive time, and the
/// head ends on the target cylinder region.
#[test]
fn disk_reads_are_bounded() {
    check::run("disk_reads_are_bounded", |rng| {
        let mut d = DiskDevice::table2_disk("hda");
        let cap = d.capacity_sectors();
        let mut now = SimTime::ZERO;
        let nops = rng.range_usize(1, 40);
        for _ in 0..nops {
            let start = rng.range_u64(0, 10_000_000) % (cap - 256);
            let len = rng.range_u64(1, 256);
            let t = d.read(start, len, now).unwrap();
            assert!(t > SimDuration::ZERO);
            assert!(t.as_secs_f64() < DISK_CMD_BOUND_S, "command took {t}");
            now += t;
        }
    });
}

/// Reading a span as one command costs no more than reading it as two
/// back-to-back commands, up to one track/head switch: a sequential
/// continuation streams from the drive's read-ahead buffer, which can
/// absorb a switch the single command pays explicitly.
#[test]
fn disk_splitting_never_helps_much() {
    check::run("disk_splitting_never_helps_much", |rng| {
        let start = rng.range_u64(0, 1_000_000);
        let first = rng.range_u64(8, 64);
        let second = rng.range_u64(8, 64);
        let mut whole = DiskDevice::table2_disk("a");
        let mut split = DiskDevice::table2_disk("b");
        let t_whole = whole.read(start, first + second, SimTime::ZERO).unwrap();
        let t1 = split.read(start, first, SimTime::ZERO).unwrap();
        let t2 = split
            .read(start + first, second, SimTime::ZERO + t1)
            .unwrap();
        let switch_allowance = SimDuration::from_millis(3);
        assert!(
            t_whole <= t1 + t2 + switch_allowance,
            "whole {t_whole} vs split {}",
            t1 + t2
        );
        // And the split never beats the whole by more than its own fixed
        // per-command costs in the other direction either.
        assert!(
            t1 + t2 <= t_whole + SimDuration::from_millis(25),
            "split {} vs whole {t_whole}",
            t1 + t2
        );
    });
}

/// The seek curve is monotone in distance.
#[test]
fn disk_seek_monotone() {
    check::run("disk_seek_monotone", |rng| {
        let disk = DiskDevice::table2_disk("hda");
        let d1 = rng.range_u64(0, 11_999) as u32;
        let d2 = rng.range_u64(0, 11_999) as u32;
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        assert!(disk.seek_time(lo) <= disk.seek_time(hi));
    });
}

/// CD-ROM: sequential continuation is never slower than the same read
/// after an intervening far seek.
#[test]
fn cdrom_seeks_cost() {
    check::run("cdrom_seeks_cost", |rng| {
        let start = rng.range_u64(0, 1_000_000);
        let len = rng.range_u64(8, 128);
        let mut a = CdRomDevice::table2_drive("a");
        let mut b = CdRomDevice::table2_drive("b");
        // a: two sequential reads.
        a.read(start, len, SimTime::ZERO).unwrap();
        let seq = a.read(start + len, len, SimTime::ZERO).unwrap();
        // b: same second read, but the laser parked far away.
        b.read(start, len, SimTime::ZERO).unwrap();
        b.read((start + 500_000) % 1_200_000, 8, SimTime::ZERO)
            .unwrap();
        let after_seek = b.read(start + len, len, SimTime::ZERO).unwrap();
        assert!(seq < after_seek);
    });
}

/// Tape locate time is bounded by a full pass plus fixed costs, and
/// repeated reads at the same position don't relocate.
#[test]
fn tape_locates_bounded() {
    check::run("tape_locates_bounded", |rng| {
        let mut t = TapeDevice::dlt("st0");
        let cap = t.capacity_sectors();
        let mut now = SimTime::ZERO;
        t.read(0, 8, now).unwrap(); // mount
        let ntargets = rng.range_usize(1, 12);
        for _ in 0..ntargets {
            let target = rng.range_u64(0, 40_000_000) % (cap - 8);
            let d = t.read(target, 8, now).unwrap();
            now += d;
            // locate_base + full longitudinal pass at search speed +
            // wrap change + stop/start + transfer: generously < 300 s.
            assert!(d.as_secs_f64() < 300.0, "locate took {d}");
            // Re-read of the next sectors streams.
            let d2 = t.read(target + 8, 8, now).unwrap();
            assert!(d2 < SimDuration::from_millis(10), "stream read {d2}");
            now += d2;
        }
    });
}

/// The NFS flat device: cost is exactly latency-once-then-bandwidth
/// for any split of a sequential scan.
#[test]
fn nfs_sequential_cost_is_split_invariant() {
    check::run("nfs_sequential_cost_is_split_invariant", |rng| {
        let nchunks = rng.range_usize(1, 20);
        let chunks: Vec<u64> = (0..nchunks).map(|_| rng.range_u64(8, 512)).collect();
        let mut one = NfsDevice::table2_mount("a");
        let mut many = NfsDevice::table2_mount("b");
        let total: u64 = chunks.iter().sum();
        let t_one = one.read(0, total, SimTime::ZERO).unwrap();
        let mut t_many = SimDuration::ZERO;
        let mut pos = 0;
        let mut per_op_count = 0;
        for c in &chunks {
            t_many += many.read(pos, *c, SimTime::ZERO).unwrap();
            pos += c;
            per_op_count += 1;
        }
        // The split pays one extra per-op overhead per chunk, nothing else.
        let per_op = SimDuration::from_micros(800);
        let expected_extra = per_op * (per_op_count - 1);
        let diff = t_many - t_one;
        assert!(
            diff <= expected_extra + SimDuration::from_micros(1),
            "diff {diff} vs expected {expected_extra}"
        );
    });
}

/// A plan with one window of each kind on `name`, placed at random within
/// `horizon`; windows may overlap.
fn random_plan(rng: &mut DetRng, name: &str, horizon: u64) -> FaultPlan {
    let window = |rng: &mut DetRng| {
        let start = rng.range_u64(0, horizon);
        let len = rng.range_u64(horizon / 32 + 1, horizon / 4 + 2);
        (SimTime::from_nanos(start), SimTime::from_nanos(start + len))
    };
    let cost = SimDuration::from_micros(rng.range_u64(1, 5_000));
    let budget = rng.range_u64(1, 4) as u32;
    let (a, b) = window(rng);
    let plan = FaultPlan::new().transient(name, a, b, budget, cost);
    let (a, b) = window(rng);
    let plan = plan.degraded(name, a, b, 1.0 + rng.unit_f64() * 4.0);
    let (a, b) = window(rng);
    plan.offline(name, a, b, cost * 2)
}

/// The device shell, over all five models: under a random fault plan and a
/// random mix of sequential, random, out-of-range, empty and (for the
/// jukebox) cross-cartridge reads and writes, every served command's
/// phases sum exactly to its time, every failed command leaves the stats
/// alone and either no phases (refused) or one `Fault` phase carrying its
/// cost (injected), and the stats add up to exactly what was served.
#[test]
fn shell_invariants_hold_for_every_model() {
    check::run("shell_invariants_hold_for_every_model", |rng| {
        let devices: Vec<Box<dyn BlockDevice>> = vec![
            Box::new(DiskDevice::table2_disk("d").with_jitter(rng.derive(1), 0.05)),
            Box::new(CdRomDevice::table2_drive("d")),
            Box::new(NfsDevice::table2_mount("d")),
            Box::new(TapeDevice::dlt("d")),
            Box::new(Jukebox::new("d", 3, 2, JukeboxParams::default())),
        ];
        for mut dev in devices {
            let class = dev.class();
            let cap = dev.capacity_sectors();
            // Commands take about a nominal latency; spread the windows
            // over a few dozen of them.
            let horizon = dev.profile().nominal_latency.as_nanos() * 48;
            dev.set_fault_injector(random_plan(rng, "d", horizon).injector_for("d").unwrap());
            let mut now = SimTime::ZERO;
            let (mut next, mut served, mut busy) = (0u64, 0u64, SimDuration::ZERO);
            for _ in 0..rng.range_usize(1, 48) {
                let write = rng.chance(0.3);
                let sectors = rng.range_u64(0, 257);
                let start = match rng.range_u64(0, 6) {
                    0 | 1 => next,
                    2 => cap - rng.range_u64(0, 300).min(cap),
                    3 => (cap / 3) * rng.range_u64(1, 3) - rng.range_u64(0, 8),
                    _ => rng.range_u64(0, cap),
                };
                let before = dev.stats();
                let out = if write {
                    dev.write(start, sectors, now)
                } else {
                    dev.read(start, sectors, now)
                };
                let phases = dev.last_phases();
                match out {
                    Ok(t) => {
                        let sum: SimDuration = phases.iter().map(|p| p.dur).sum();
                        assert_eq!(sum, t, "{class:?}: phases {phases:?}");
                        served += 1;
                        busy += t;
                        next = start + sectors;
                        now += t;
                    }
                    Err(e) => {
                        assert_eq!(dev.stats(), before, "{class:?}: {e}");
                        match e.fault_cost() {
                            None => assert!(phases.is_empty(), "{class:?}: {e} left {phases:?}"),
                            Some(cost) => {
                                let fault = ServicePhase {
                                    kind: PhaseKind::Fault,
                                    dur: cost,
                                };
                                assert_eq!(phases, [fault], "{class:?}: {e}");
                                now += cost;
                            }
                        }
                    }
                }
                now += SimDuration::from_nanos(rng.range_u64(0, horizon / 24 + 1));
            }
            let s: DevStats = dev.stats();
            assert_eq!(s.busy, busy, "{class:?}");
            assert_eq!(s.reads + s.writes, served, "{class:?}");
        }
    });
}
