//! Property tests for the device models: bounds, monotonicity and state
//! invariants that must hold for any access sequence.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

use sleds_devices::{BlockDevice, CdRomDevice, DiskDevice, NfsDevice, NfsServerDevice, TapeDevice};
use sleds_sim_core::{check, SimDuration, SimTime};

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

/// The NFS server's cache makes rereads cheaper, never dearer.
#[test]
fn nfs_server_rereads_never_dearer() {
    check::run("nfs_server_rereads_never_dearer", |rng| {
        let mut srv = NfsServerDevice::lan_mount("lan0");
        let nreads = rng.range_usize(1, 16);
        for _ in 0..nreads {
            let start = rng.range_u64(0, 100_000);
            let len = rng.range_u64(8, 64);
            let cold = srv.read(start, len, SimTime::ZERO).unwrap();
            // Break sequentiality so both pay the RTT.
            srv.read((start + 1_000_000) % 9_000_000, 8, SimTime::ZERO)
                .unwrap();
            let warm = srv.read(start, len, SimTime::ZERO).unwrap();
            assert!(warm <= cold, "warm {warm} > cold {cold}");
        }
    });
}
