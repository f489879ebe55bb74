//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These go beyond the paper's figures: they vary one design decision at a
//! time and measure the two-pass workload that drives every headline
//! result.

use sleds::{PickConfig, PickSession};
use sleds_apps::wc::{wc, wc_aio};
use sleds_devices::DiskDevice;
use sleds_fs::{Kernel, MachineConfig, OpenFlags, Whence};
use sleds_lmbench::fill_table;
use sleds_pagecache::PolicyKind;
use sleds_sim_core::ByteSize;

use crate::workload::text_corpus;

/// One ablation data point.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Elapsed seconds, baseline app.
    pub baseline_secs: f64,
    /// Elapsed seconds, SLEDs app.
    pub sleds_secs: f64,
    /// Major faults, baseline.
    pub baseline_faults: u64,
    /// Major faults, SLEDs.
    pub sleds_faults: u64,
}

impl AblationRow {
    /// Speedup of SLEDs over the baseline for this variant.
    pub fn speedup(&self) -> f64 {
        self.baseline_secs / self.sleds_secs.max(1e-12)
    }
}

/// A small machine for ablations: 8 MiB RAM, same dynamics, fast runs.
fn machine(policy: PolicyKind) -> MachineConfig {
    let mut cfg = MachineConfig::table2();
    cfg.ram = ByteSize::mib(8);
    cfg.policy = policy;
    cfg
}

fn measure_two_pass(cfg: MachineConfig, file_factor_pct: u64) -> (AblationRow, usize) {
    let mut k = Kernel::new(cfg);
    k.mkdir("/data").expect("mkdir");
    let m = k
        .mount_disk("/data", DiskDevice::table2_disk("hda"))
        .expect("mount");
    let table = fill_table(&mut k, &[("/data", m)]).expect("calibration");
    let cache = k.config().cache_bytes().as_u64();
    let n = (cache * file_factor_pct / 100) as usize;
    let data = text_corpus(n, 0, 77);
    k.install_file("/data/f.txt", &data).expect("install");

    // Warm + measure, baseline mode.
    wc(&mut k, "/data/f.txt", None).expect("warm");
    let j = k.start_job();
    wc(&mut k, "/data/f.txt", None).expect("wc");
    let base = k.finish_job(&j);
    // Re-warm in baseline mode so both modes see the same starting state.
    wc(&mut k, "/data/f.txt", None).expect("rewarm");
    let j = k.start_job();
    wc(&mut k, "/data/f.txt", Some(&table)).expect("wc sleds");
    let with = k.finish_job(&j);
    (
        AblationRow {
            variant: String::new(),
            baseline_secs: base.elapsed_secs(),
            sleds_secs: with.elapsed_secs(),
            baseline_faults: base.usage.major_faults,
            sleds_faults: with.usage.major_faults,
        },
        n,
    )
}

/// Ablation 1 — replacement policy: how much of the SLEDs win is an
/// artifact of LRU? (MRU is scan-optimal, so the baseline improves and the
/// SLEDs *advantage* shrinks; FIFO/Clock behave like LRU.)
pub fn replacement_policies() -> Vec<AblationRow> {
    PolicyKind::all()
        .into_iter()
        .map(|p| {
            let (mut row, _) = measure_two_pass(machine(p), 150);
            row.variant = p.name().to_string();
            row
        })
        .collect()
}

/// Ablation 2 — attack plan estimates: how well do `SLEDS_LINEAR` and
/// `SLEDS_BEST` predict the measured whole-file read time, cold and warm?
/// Returns (state, plan, estimate, measured) rows.
pub fn attack_plan_accuracy() -> Vec<(String, f64, f64)> {
    let mut k = Kernel::new(machine(PolicyKind::Lru));
    k.mkdir("/data").expect("mkdir");
    let m = k
        .mount_disk("/data", DiskDevice::table2_disk("hda"))
        .expect("mount");
    let table = fill_table(&mut k, &[("/data", m)]).expect("calibration");
    let n = 4 << 20;
    k.install_file("/data/f.bin", &vec![1u8; n])
        .expect("install");
    let fd = k.open("/data/f.bin", OpenFlags::RDONLY).expect("open");

    let mut rows = Vec::new();
    for (state, warm_frac) in [("cold", 0.0f64), ("half-warm", 0.5)] {
        k.drop_caches().expect("drop");
        if warm_frac > 0.0 {
            let bytes = (n as f64 * warm_frac) as usize & !4095;
            k.lseek(fd, (n - bytes) as i64, Whence::Set).expect("seek");
            k.read(fd, bytes).expect("warm");
        }
        let est_best = sleds::total_delivery_time(&mut k, &table, fd, sleds::AttackPlan::Best)
            .expect("estimate");
        // Measure a reordered read (pick order).
        let mut pick =
            PickSession::init(&mut k, &table, fd, PickConfig::bytes(64 << 10)).expect("pick");
        let j = k.start_job();
        while let Some((off, len)) = pick.next_read() {
            k.lseek(fd, off as i64, Whence::Set).expect("seek");
            k.read(fd, len).expect("read");
        }
        let measured = k.finish_job(&j).elapsed_secs();
        rows.push((format!("{state}/best"), est_best, measured));
    }
    rows
}

/// Ablation 3 — SLED refresh: a competing reader warms the tail *after*
/// the pick plan was made; refreshing mid-run picks the change up.
/// Returns (no_refresh_secs, refresh_secs).
pub fn refresh_mid_run() -> (f64, f64) {
    let run = |refresh: bool| -> f64 {
        let mut k = Kernel::new(machine(PolicyKind::Lru));
        k.mkdir("/data").expect("mkdir");
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .expect("mount");
        let table = fill_table(&mut k, &[("/data", m)]).expect("calibration");
        // Twice the cache: under that pressure, the tail the competitor
        // warms will be evicted again before a plan-once reader arrives.
        let n = (k.config().cache_bytes().as_u64() * 2) as usize;
        k.install_file("/data/f.bin", &vec![1u8; n])
            .expect("install");
        let fd = k.open("/data/f.bin", OpenFlags::RDONLY).expect("open");
        let cfg = PickConfig::bytes(64 << 10);
        let mut pick = PickSession::init(&mut k, &table, fd, cfg).expect("pick");
        let total_chunks = pick.planned_chunks();
        let j = k.start_job();
        let mut i = 0usize;
        while let Some((off, len)) = pick.next_read() {
            k.lseek(fd, off as i64, Whence::Set).expect("seek");
            k.read(fd, len).expect("read");
            i += 1;
            if i == total_chunks / 4 {
                // Another job reads the tail of f (e.g. tail -f): the tail
                // is now cached, but the existing plan doesn't know.
                let g = k.open("/data/f.bin", OpenFlags::RDONLY).expect("open2");
                k.lseek(g, (n - n / 4) as i64, Whence::Set).expect("seek2");
                k.read(g, n / 4).expect("other reader");
                k.close(g).expect("close2");
                if refresh {
                    pick.refresh(&mut k, &table, fd).expect("refresh");
                }
            }
        }
        k.finish_job(&j).elapsed_secs()
    };
    (run(false), run(true))
}

/// Ablation 4 — fragmentation: the same cold scan on a contiguous vs a
/// fragmented layout. Returns (contiguous_secs, fragmented_secs).
pub fn fragmentation_cost() -> (f64, f64) {
    let run = |fragmented: bool| -> f64 {
        let mut k = Kernel::new(machine(PolicyKind::Lru));
        k.mkdir("/data").expect("mkdir");
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .expect("mount");
        if fragmented {
            k.set_fragmentation(m, 8, 512, 7);
        }
        let data = text_corpus(4 << 20, 0, 99);
        k.install_file("/data/f.txt", &data).expect("install");
        let j = k.start_job();
        wc(&mut k, "/data/f.txt", None).expect("wc");
        k.finish_job(&j).elapsed_secs()
    };
    (run(false), run(true))
}

/// Ablation 5 — HSM staging chunk size: a few isolated touches of a
/// tape-resident file under different staging granularities, with the
/// tape already mounted (so the chunk size is what varies, not the mount).
/// Returns (chunk_pages, secs).
pub fn hsm_stage_chunk() -> Vec<(u64, f64)> {
    [64u64, 512, 4096]
        .into_iter()
        .map(|chunk| {
            let mut k = Kernel::new(machine(PolicyKind::Lru));
            k.mkdir("/hsm").expect("mkdir");
            k.mount_hsm(
                "/hsm",
                Box::new(DiskDevice::table2_disk("hda")),
                Box::new(sleds_devices::TapeDevice::dlt("st0")),
                chunk,
            )
            .expect("mount");
            let n: usize = 32 << 20;
            k.install_file("/hsm/f.bin", &vec![3u8; n])
                .expect("install");
            k.hsm_migrate("/hsm/f.bin", true).expect("migrate");
            let fd = k.open("/hsm/f.bin", OpenFlags::RDONLY).expect("open");
            // Pay the mount before the measured window.
            k.read(fd, 4096).expect("mount touch");
            let j = k.start_job();
            // Four isolated 64 KiB touches, 8 MiB apart.
            for i in 0..4u64 {
                let off = i * (8 << 20) + (4 << 20);
                k.lseek(fd, off as i64, sleds_fs::Whence::Set)
                    .expect("seek");
                k.read(fd, 64 << 10).expect("read");
            }
            (chunk, k.finish_job(&j).elapsed_secs())
        })
        .collect()
}

/// Ablation 6 — readahead: the kernel feature the default config leaves
/// off (DESIGN.md explains the paper's fault counts imply per-page
/// accounting). Returns rows of (readahead_pages, elapsed, major_faults)
/// for a cold page-at-a-time scan.
pub fn readahead() -> Vec<(u64, f64, u64)> {
    [0u64, 8, 32]
        .into_iter()
        .map(|ra| {
            let mut cfg = machine(PolicyKind::Lru);
            cfg.readahead_pages = ra;
            let mut k = Kernel::new(cfg);
            k.mkdir("/data").expect("mkdir");
            k.mount_disk("/data", DiskDevice::table2_disk("hda"))
                .expect("mount");
            let data = text_corpus(4 << 20, 0, 55);
            k.install_file("/data/f.txt", &data).expect("install");
            let fd = k.open("/data/f.txt", OpenFlags::RDONLY).expect("open");
            let j = k.start_job();
            // Page-at-a-time reads, the pattern readahead exists for.
            loop {
                if k.read(fd, 4096).expect("read").is_empty() {
                    break;
                }
            }
            let rep = k.finish_job(&j);
            (ra, rep.elapsed_secs(), rep.usage.major_faults)
        })
        .collect()
}

/// Ablation 7 — zone-aware sleds table (the paper's future-work item):
/// delivery estimates for an inner-zone file under the flat vs the zoned
/// table, against the measured read time. Returns
/// (flat_estimate, zoned_estimate, measured) in seconds.
pub fn zoned_table_accuracy() -> (f64, f64, f64) {
    let mut k = Kernel::new(machine(PolicyKind::Lru));
    k.mkdir("/data").expect("mkdir");
    let m = k
        .mount_disk("/data", DiskDevice::table2_disk("hda"))
        .expect("mount");
    let flat_table = fill_table(&mut k, &[("/data", m)]).expect("flat calibration");
    let zoned_table =
        sleds_lmbench::fill_table_zoned(&mut k, &[("/data", m)]).expect("zoned calibration");
    // Push the allocator deep into the inner zone, then place the file.
    let dev = k.device_of_mount(m).expect("device");
    let cap = k.device_capacity(dev).expect("capacity");
    k.advance_allocator(m, (cap * 8 / 10) / 8)
        .expect("advance 80% in");
    let n = 4 << 20;
    k.install_file("/data/inner.bin", &vec![1u8; n])
        .expect("install");
    let fd = k.open("/data/inner.bin", OpenFlags::RDONLY).expect("open");

    let flat_est = sleds::total_delivery_time(&mut k, &flat_table, fd, sleds::AttackPlan::Best)
        .expect("flat estimate");
    let zoned_est = sleds::total_delivery_time(&mut k, &zoned_table, fd, sleds::AttackPlan::Best)
        .expect("zoned estimate");
    let j = k.start_job();
    let mut pos = 0usize;
    while pos < n {
        pos += k.read(fd, 64 << 10).expect("read").len();
    }
    let measured = k.finish_job(&j).elapsed_secs();
    (flat_est, zoned_est, measured)
}

/// Ablation 8 — asynchronous I/O (the paper's related-work comparator):
/// warm-cache wc elapsed under baseline, SLEDs, and the AIO model, at a
/// file under RAM and one over it. Returns rows of
/// (label, baseline, sleds, aio) seconds.
pub fn aio_comparison() -> Vec<(String, f64, f64, f64)> {
    let mut rows = Vec::new();
    for (label, ram_fraction_pct) in [("file = 0.9x RAM", 90u64), ("file = 1.5x RAM", 150)] {
        let mut k = Kernel::new(machine(PolicyKind::Lru));
        k.mkdir("/data").expect("mkdir");
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .expect("mount");
        let table = fill_table(&mut k, &[("/data", m)]).expect("calibration");
        let ram = k.config().ram.as_u64();
        let n = (ram * ram_fraction_pct / 100) as usize;
        let data = text_corpus(n, 0, 88);
        k.install_file("/data/f.txt", &data).expect("install");

        let measure = |mode: u8, k: &mut Kernel| -> f64 {
            // Warm in the same mode, then measure.
            let run = |k: &mut Kernel| match mode {
                0 => {
                    wc(k, "/data/f.txt", None).expect("wc");
                    None
                }
                1 => {
                    wc(k, "/data/f.txt", Some(&table)).expect("wc sleds");
                    None
                }
                _ => Some(wc_aio(k, "/data/f.txt").expect("wc aio").1),
            };
            run(k);
            let j = k.start_job();
            let aio_rep = run(k);
            match aio_rep {
                Some(rep) => rep.elapsed.as_secs_f64(),
                None => k.finish_job(&j).elapsed_secs(),
            }
        };
        let base = measure(0, &mut k);
        let sleds = measure(1, &mut k);
        let aio = measure(2, &mut k);
        rows.push((label.to_string(), base, sleds, aio));
    }
    rows
}

/// Formats the full ablation report.
pub fn report() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Ablation 1: page replacement policy (two-pass wc, file = 1.5x cache)"
    )
    .expect("fmt");
    writeln!(
        out,
        "  {:<8} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "policy", "base(s)", "sleds(s)", "speedup", "base-faults", "sleds-faults"
    )
    .expect("fmt");
    for r in replacement_policies() {
        writeln!(
            out,
            "  {:<8} {:>10.3} {:>10.3} {:>8.2} {:>12} {:>12}",
            r.variant,
            r.baseline_secs,
            r.sleds_secs,
            r.speedup(),
            r.baseline_faults,
            r.sleds_faults
        )
        .expect("fmt");
    }
    writeln!(
        out,
        "  (MRU is scan-optimal: its baseline keeps the head cached, so the\n\
         \x20  SLEDs advantage shrinks — the paper's win depends on LRU-like\n\
         \x20  policies, which is what real kernels ship)\n"
    )
    .expect("fmt");

    writeln!(
        out,
        "Ablation 2: attack-plan estimate accuracy (4 MiB file)"
    )
    .expect("fmt");
    for (state, est, measured) in attack_plan_accuracy() {
        writeln!(
            out,
            "  {:<14} estimate {:>8.3}s   measured {:>8.3}s   ratio {:>5.2}",
            state,
            est,
            measured,
            measured / est.max(1e-12)
        )
        .expect("fmt");
    }
    writeln!(out).expect("fmt");

    let (no_refresh, refresh) = refresh_mid_run();
    writeln!(
        out,
        "Ablation 3: SLED refresh mid-run (competing reader warms the tail)"
    )
    .expect("fmt");
    writeln!(
        out,
        "  plan-once {no_refresh:.3}s   with refresh {refresh:.3}s   saving {:.0}%\n",
        (1.0 - refresh / no_refresh) * 100.0
    )
    .expect("fmt");

    let (contig, frag) = fragmentation_cost();
    writeln!(out, "Ablation 4: file fragmentation (cold sequential scan)").expect("fmt");
    writeln!(
        out,
        "  contiguous {contig:.3}s   fragmented {frag:.3}s   penalty {:.1}x\n",
        frag / contig
    )
    .expect("fmt");

    writeln!(
        out,
        "Ablation 5: HSM staging chunk (4 touches, 8 MiB apart, tape mounted)"
    )
    .expect("fmt");
    for (chunk, secs) in hsm_stage_chunk() {
        writeln!(out, "  {:>5} pages/stage: {secs:>8.1}s", chunk).expect("fmt");
    }
    writeln!(
        out,
        "  (tape locates cost seconds, so for accesses a few MiB apart the\n\
         \x20  16 MiB staging chunk wins by amortizing locates — the classic\n\
         \x20  HSM granularity tradeoff, inverted from disk intuition)\n"
    )
    .expect("fmt");

    writeln!(
        out,
        "Ablation 6: readahead (cold page-at-a-time scan of 4 MiB)"
    )
    .expect("fmt");
    for (ra, secs, majors) in readahead() {
        writeln!(
            out,
            "  readahead {ra:>3} pages: {secs:>7.3}s  {majors:>5} major faults"
        )
        .expect("fmt");
    }
    writeln!(
        out,
        "  (the paper's fault counts scale per page, i.e. readahead-off\n\
         \x20  accounting; with readahead the counts change but the SLEDs\n\
         \x20  reorder-vs-linear story is unaffected)\n"
    )
    .expect("fmt");

    let (flat, zoned, measured) = zoned_table_accuracy();
    writeln!(
        out,
        "Ablation 7: zone-aware sleds table (future work in the paper)"
    )
    .expect("fmt");
    writeln!(
        out,
        "  inner-zone file: flat estimate {flat:.3}s, zoned estimate {zoned:.3}s,\n\
         \x20  measured {measured:.3}s — zoned error {:.0}% vs flat error {:.0}%\n",
        (zoned - measured).abs() / measured * 100.0,
        (flat - measured).abs() / measured * 100.0
    )
    .expect("fmt");

    writeln!(
        out,
        "Ablation 8: asynchronous I/O comparator (warm-cache wc)"
    )
    .expect("fmt");
    writeln!(
        out,
        "  {:<18} {:>10} {:>10} {:>10}",
        "", "baseline", "SLEDs", "AIO"
    )
    .expect("fmt");
    for (label, base, sleds, aio) in aio_comparison() {
        writeln!(out, "  {label:<18} {base:>9.3}s {sleds:>9.3}s {aio:>9.3}s").expect("fmt");
    }
    writeln!(
        out,
        "  (the paper's §2 point: completion-order AIO matches SLEDs while the\n\
         \x20  file fits in memory, but posting whole-file buffers thrashes once\n\
         \x20  it does not — SLEDs needs no extra buffering)"
    )
    .expect("fmt");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_keeps_the_paper_advantage_and_mru_shrinks_it() {
        let rows = replacement_policies();
        let by_name = |n: &str| rows.iter().find(|r| r.variant == n).expect("row").clone();
        let lru = by_name("lru");
        let mru = by_name("mru");
        assert!(lru.speedup() > 1.5, "LRU speedup {:.2}", lru.speedup());
        assert!(
            mru.speedup() < lru.speedup() * 0.75,
            "MRU baseline should close the gap: {:.2} vs {:.2}",
            mru.speedup(),
            lru.speedup()
        );
    }

    #[test]
    fn estimates_within_factor_two() {
        for (state, est, measured) in attack_plan_accuracy() {
            let ratio = measured / est.max(1e-12);
            assert!((0.5..2.0).contains(&ratio), "{state}: ratio {ratio:.2}");
        }
    }

    #[test]
    fn refresh_helps_when_state_changes() {
        let (no_refresh, refresh) = refresh_mid_run();
        assert!(
            refresh < no_refresh,
            "refresh ({refresh:.3}) should beat plan-once ({no_refresh:.3})"
        );
    }

    #[test]
    fn fragmentation_slows_cold_scans() {
        let (contig, frag) = fragmentation_cost();
        assert!(
            frag > contig * 1.5,
            "fragmented {frag:.3} vs contiguous {contig:.3}"
        );
    }

    #[test]
    fn readahead_cuts_major_faults() {
        let rows = readahead();
        assert_eq!(rows[0].0, 0);
        let base_faults = rows[0].2;
        let ra_faults = rows[2].2;
        assert!(
            ra_faults * 4 < base_faults,
            "readahead 32 should cut faults 4x+: {ra_faults} vs {base_faults}"
        );
        assert!(
            rows[2].1 <= rows[0].1 * 1.05,
            "readahead must not slow the scan"
        );
    }

    #[test]
    fn zoned_table_estimates_inner_zone_better() {
        let (flat, zoned, measured) = zoned_table_accuracy();
        let flat_err = (flat - measured).abs();
        let zoned_err = (zoned - measured).abs();
        assert!(
            zoned_err < flat_err,
            "zoned ({zoned:.3}) should beat flat ({flat:.3}) against measured {measured:.3}"
        );
    }

    #[test]
    fn aio_matches_sleds_in_memory_but_thrashes_beyond() {
        let rows = aio_comparison();
        let (_, base_small, sleds_small, aio_small) = rows[0].clone();
        let (_, _, sleds_big, aio_big) = rows[1].clone();
        // In-memory: AIO is competitive with SLEDs (within 2x) and beats
        // the baseline.
        assert!(aio_small < base_small, "AIO should beat baseline in memory");
        assert!(aio_small < 2.0 * sleds_small, "AIO near SLEDs in memory");
        // Beyond memory: thrash makes AIO clearly worse than SLEDs.
        assert!(
            aio_big > 1.3 * sleds_big,
            "AIO ({aio_big:.3}) should thrash past RAM vs SLEDs ({sleds_big:.3})"
        );
    }

    #[test]
    fn large_stage_chunks_amortize_tape_locates() {
        // With multi-second locates and touches 8 MiB apart, a 16 MiB
        // staging chunk covers two touches per locate and wins.
        let rows = hsm_stage_chunk();
        let (small, big) = (rows[0].1, rows[2].1);
        assert!(
            big < small,
            "16 MiB staging ({big:.1}s) should amortize locates vs 256 KiB ({small:.1}s)"
        );
    }
}
