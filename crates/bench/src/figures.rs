//! Experiment runners: one function per table/figure of the paper.
//!
//! All follow the paper's measurement protocol (section 5.1): files of 8 to
//! 128 MB on a 64 MB machine, warm cache (runs repeated in the same mode,
//! first run discarded), twelve measured runs, 90% confidence intervals.
//! Elapsed times and fault counts are virtual-time outputs of the
//! simulator.

use sleds::{PickConfig, PickSession, SledsTable};
use sleds_apps::fimgbin::fimgbin;
use sleds_apps::fimhisto::{fimhisto, DEFAULT_BINS};
use sleds_apps::grep::{grep, GrepOptions};
use sleds_apps::wc::wc;
use sleds_fs::{Kernel, OpenFlags};
use sleds_pagecache::{PageCache, PageKey};
use sleds_sim_core::{DetRng, PAGE_SIZE};
use sleds_textmatch::Regex;

use crate::env::{Env, FsKind};
use crate::output::Series;
use crate::workload::{needle_position, text_corpus, NEEDLE};
use crate::RUNS;

/// A regenerated figure: series plus commentary for EXPERIMENTS.md.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Identifier, e.g. `"fig7"`.
    pub id: &'static str,
    /// Title shown on the plot.
    pub title: String,
    /// X-axis label.
    pub x_name: String,
    /// Y-axis label.
    pub y_name: String,
    /// The data.
    pub series: Vec<Series>,
}

// ---------------------------------------------------------------------
// Figure 3: cache movement during two linear passes
// ---------------------------------------------------------------------

/// Reproduces Figure 3 as a text trace, and returns the second-pass hit
/// counts (LRU linear, then SLEDs order) so callers can assert the claim.
pub fn fig3() -> (String, u64, u64) {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "Figure 3: five-block file, three-block LRU cache").expect("fmt");
    writeln!(out, "cache contents after each access (e = empty):\n").expect("fmt");

    let trace = |order: &[u64], cache: &mut PageCache, out: &mut String| -> u64 {
        let before = cache.stats().hits;
        for &b in order {
            if !cache.lookup(PageKey::new(1, b)) {
                cache.insert(PageKey::new(1, b), false);
            }
            let mut row = String::new();
            for slot in 1..=5 {
                if cache.contains(PageKey::new(1, slot - 1)) {
                    write!(row, " {}", slot - 1 + 1).expect("fmt");
                } else {
                    write!(row, " .").expect("fmt");
                }
            }
            writeln!(out, "  access {} -> cache holds:{row}", b + 1).expect("fmt");
        }
        cache.stats().hits - before
    };

    let mut cache = PageCache::lru(3);
    writeln!(out, "first pass (1..5):").expect("fmt");
    trace(&[0, 1, 2, 3, 4], &mut cache, &mut out);
    writeln!(out, "second pass, linear (1..5):").expect("fmt");
    let linear_hits = trace(&[0, 1, 2, 3, 4], &mut cache, &mut out);
    writeln!(
        out,
        "  -> second-pass hits with LRU + linear order: {linear_hits}"
    )
    .expect("fmt");

    let mut cache = PageCache::lru(3);
    trace(&[0, 1, 2, 3, 4], &mut cache, &mut String::new());
    writeln!(out, "second pass, SLEDs order (3,4,5 then 1,2):").expect("fmt");
    let sleds_hits = trace(&[2, 3, 4, 0, 1], &mut cache, &mut out);
    writeln!(
        out,
        "  -> second-pass hits with SLEDs order: {sleds_hits} (blocks fetched: {})",
        5 - sleds_hits
    )
    .expect("fmt");
    (out, linear_hits, sleds_hits)
}

// ---------------------------------------------------------------------
// Figure 4: record-boundary adjustment
// ---------------------------------------------------------------------

/// Reproduces Figure 4: shows SLED bounds before and after record
/// adjustment for a file with 7-byte records and one cached page.
pub fn fig4() -> String {
    use std::fmt::Write;
    let mut env = Env::table2(FsKind::Ext2, 404);
    let n = 4 * PAGE_SIZE as usize;
    let rec: Vec<u8> = b"RECORD\n".iter().copied().cycle().take(n).collect();
    let path = env.install("records.dat", &rec);
    let k = &mut env.kernel;
    let fd = k.open(&path, OpenFlags::RDONLY).expect("open");
    // Warm page 1 (the low-latency SLED in the middle).
    k.pread(fd, PAGE_SIZE, PAGE_SIZE as usize).expect("warm");

    let mut out = String::new();
    writeln!(out, "Figure 4: adjusting SLEDs for record boundaries").expect("fmt");
    let before = sleds::fsleds_get(k, fd, &env.table).expect("fsleds_get");
    writeln!(out, "before (page-aligned SLEDs):").expect("fmt");
    for s in &before {
        writeln!(
            out,
            "  offset {:>6} length {:>6} latency {:>10.6}s",
            s.offset, s.length, s.latency
        )
        .expect("fmt");
    }
    let pick = PickSession::init(
        k,
        &env.table,
        fd,
        PickConfig::records(PAGE_SIZE as usize, b'\n'),
    )
    .expect("pick init");
    writeln!(
        out,
        "after (edges pulled to record boundaries; fragments pushed out):"
    )
    .expect("fmt");
    for s in pick.sleds() {
        writeln!(
            out,
            "  offset {:>6} length {:>6} latency {:>10.6}s  (offset % 7 == {})",
            s.offset,
            s.length,
            s.latency,
            s.offset % 7
        )
        .expect("fmt");
    }
    out
}

// ---------------------------------------------------------------------
// Tables 2 and 3: measured device characteristics
// ---------------------------------------------------------------------

/// One measured storage level for the Table 2/3 reproduction.
#[derive(Clone, Debug)]
pub struct LevelRow {
    /// Level name, matching the paper's rows.
    pub level: &'static str,
    /// Measured latency, seconds.
    pub latency: f64,
    /// Measured bandwidth, bytes/second.
    pub bandwidth: f64,
    /// The paper's reported latency, seconds.
    pub paper_latency: f64,
    /// The paper's reported bandwidth, bytes/second.
    pub paper_bandwidth: f64,
}

/// Reproduces Table 2: lmbench-measured levels of the Unix-utility machine.
pub fn table2() -> Vec<LevelRow> {
    let mut rows = Vec::new();
    let ext2 = Env::table2(FsKind::Ext2, 22);
    let mem = ext2.table.memory().expect("memory row");
    rows.push(LevelRow {
        level: "memory",
        latency: mem.latency,
        bandwidth: mem.bandwidth,
        paper_latency: 175e-9,
        paper_bandwidth: 48e6,
    });
    for (fs, level, pl, pb) in [
        (FsKind::Ext2, "hard disk", 0.018, 9.0e6),
        (FsKind::CdRom, "CD-ROM", 0.130, 2.8e6),
        (FsKind::Nfs, "NFS", 0.270, 1.0e6),
    ] {
        let env = Env::table2(fs, 22);
        let dev = env.kernel.device_of_mount(env.mount).expect("mount device");
        let row = env.table.device(dev).expect("calibrated row");
        rows.push(LevelRow {
            level,
            latency: row.latency,
            bandwidth: row.bandwidth,
            paper_latency: pl,
            paper_bandwidth: pb,
        });
    }
    rows
}

/// Reproduces Table 3: the LHEASOFT machine (memory + disk).
pub fn table3() -> Vec<LevelRow> {
    let env = Env::table3(FsKind::Ext2, 33);
    let mem = env.table.memory().expect("memory row");
    let dev = env.kernel.device_of_mount(env.mount).expect("mount device");
    let disk = env.table.device(dev).expect("calibrated row");
    vec![
        LevelRow {
            level: "memory",
            latency: mem.latency,
            bandwidth: mem.bandwidth,
            paper_latency: 210e-9,
            paper_bandwidth: 87e6,
        },
        LevelRow {
            level: "hard disk",
            latency: disk.latency,
            bandwidth: disk.bandwidth,
            paper_latency: 16.5e-3,
            paper_bandwidth: 7.0e6,
        },
    ]
}

// ---------------------------------------------------------------------
// Table 4: lines of code modified
// ---------------------------------------------------------------------

/// Source-line accounting for one application.
#[derive(Clone, Debug)]
pub struct LocRow {
    /// Application name.
    pub app: &'static str,
    /// Lines inside `[sleds:begin]`/`[sleds:end]` markers (the port).
    pub sleds_lines: usize,
    /// Total non-blank lines in the module.
    pub total_lines: usize,
    /// The paper's "modified" count for the corresponding C program.
    pub paper_modified: usize,
    /// The paper's total for the main source files.
    pub paper_total: usize,
}

/// Reproduces Table 4 by counting the marker-delimited SLEDs regions in
/// this repository's application sources.
pub fn table4() -> Vec<LocRow> {
    const SOURCES: &[(&str, &str, usize, usize)] = &[
        ("grep", include_str!("../../apps/src/grep.rs"), 560, 1930),
        ("wc", include_str!("../../apps/src/wc.rs"), 140, 530),
        ("find", include_str!("../../apps/src/find.rs"), 70, 1600),
        ("gmc", include_str!("../../apps/src/gmc.rs"), 93, 1500),
        (
            "fimhisto",
            include_str!("../../apps/src/fimhisto.rs"),
            49,
            645,
        ),
        (
            "fimgbin",
            include_str!("../../apps/src/fimgbin.rs"),
            45,
            870,
        ),
    ];
    SOURCES
        .iter()
        .map(|(app, src, pm, pt)| {
            let mut in_region = false;
            let mut sleds_lines = 0;
            let mut total_lines = 0;
            for line in src.lines() {
                let t = line.trim();
                if t.is_empty() {
                    continue;
                }
                total_lines += 1;
                if t.contains("[sleds:begin]") {
                    in_region = true;
                    continue;
                }
                if t.contains("[sleds:end]") {
                    in_region = false;
                    continue;
                }
                if in_region {
                    sleds_lines += 1;
                }
            }
            LocRow {
                app,
                sleds_lines,
                total_lines,
                paper_modified: *pm,
                paper_total: *pt,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Generic warm-cache sweep machinery
// ---------------------------------------------------------------------

/// Result of one sweep: elapsed time and major faults, with and without
/// SLEDs, per file size.
pub struct Sweep {
    /// Elapsed seconds, SLEDs mode.
    pub elapsed_with: Series,
    /// Elapsed seconds, baseline.
    pub elapsed_without: Series,
    /// Major faults, SLEDs mode.
    pub faults_with: Series,
    /// Major faults, baseline.
    pub faults_without: Series,
}

impl Sweep {
    /// Speedup series: baseline mean / SLEDs mean per size.
    pub fn ratio(&self) -> Series {
        let mut r = Series::new("time without / with SLEDs");
        for ((x, w), (_, wo)) in self
            .elapsed_with
            .points
            .iter()
            .zip(&self.elapsed_without.points)
        {
            if w.mean > 0.0 {
                r.push(*x, &[wo.mean / w.mean]);
            }
        }
        r
    }
}

/// Runs the paper's warm-cache protocol for one app over a size sweep.
///
/// For each size and mode: fresh environment, test file installed, one
/// discarded warm-up run, then [`RUNS`] measured runs in the same mode.
/// `prepare` is invoked before every run (warm-up included) to mutate the
/// workload (e.g. move the grep needle); `run` executes the application.
fn sweep<P, R>(
    fs: FsKind,
    sizes_mb: impl IntoIterator<Item = u64>,
    table3_machine: bool,
    seed: u64,
    mut make_data: impl FnMut(usize, u64) -> Vec<u8>,
    mut prepare: P,
    mut run: R,
) -> Sweep
where
    P: FnMut(&mut Kernel, &str, &mut DetRng, usize),
    R: FnMut(&mut Kernel, &str, Option<&SledsTable>),
{
    let mut sweep = Sweep {
        elapsed_with: Series::new("with SLEDs"),
        elapsed_without: Series::new("without SLEDs"),
        faults_with: Series::new("with SLEDs"),
        faults_without: Series::new("without SLEDs"),
    };
    for mb in sizes_mb {
        let bytes = (mb << 20) as usize;
        let data = make_data(bytes, seed ^ mb);
        for use_sleds in [false, true] {
            let env_seed = seed
                .wrapping_mul(31)
                .wrapping_add(mb)
                .wrapping_add(use_sleds as u64);
            let mut env = if table3_machine {
                Env::table3(fs, env_seed)
            } else {
                Env::table2(fs, env_seed)
            };
            let path = env.install("testfile", &data);
            // Workload preparation (e.g. match placement) must be identical
            // across the two modes so they are compared on the same inputs:
            // seed by size only.
            let mut rng = DetRng::new(seed.wrapping_mul(7919).wrapping_add(mb) ^ 0xfeed);
            let table = use_sleds.then_some(env.table.clone());
            // Warm-up run, discarded (run index 0).
            prepare(&mut env.kernel, &path, &mut rng, 0);
            run(&mut env.kernel, &path, table.as_ref());
            // Measured runs.
            let mut elapsed = Vec::with_capacity(RUNS);
            let mut faults = Vec::with_capacity(RUNS);
            for r in 0..RUNS {
                prepare(&mut env.kernel, &path, &mut rng, r + 1);
                let j = env.kernel.start_job();
                run(&mut env.kernel, &path, table.as_ref());
                let rep = env.kernel.finish_job(&j);
                elapsed.push(rep.elapsed_secs());
                faults.push(rep.usage.major_faults as f64);
            }
            let (es, fs_) = if use_sleds {
                (&mut sweep.elapsed_with, &mut sweep.faults_with)
            } else {
                (&mut sweep.elapsed_without, &mut sweep.faults_without)
            };
            es.push(mb as f64, &elapsed);
            fs_.push(mb as f64, &faults);
        }
    }
    sweep
}

// ---------------------------------------------------------------------
// Figures 7-15
// ---------------------------------------------------------------------

/// Figures 7 and 8: wc over NFS, elapsed time and speedup vs file size.
pub fn fig7_8() -> (Figure, Figure) {
    let s = sweep(
        FsKind::Nfs,
        (8..=128).step_by(8),
        false,
        7,
        |n, seed| text_corpus(n, 0, seed),
        |_, _, _, _| {},
        |k, path, table| {
            wc(k, path, table).expect("wc");
        },
    );
    let f7 = Figure {
        id: "fig7",
        title: "Time for NFS wc with/without SLEDs (warm cache)".into(),
        x_name: "file size (MB)".into(),
        y_name: "execution time (s)".into(),
        series: vec![s.elapsed_with.clone(), s.elapsed_without.clone()],
    };
    let f8 = Figure {
        id: "fig8",
        title: "wc time ratio (speedup) over NFS".into(),
        x_name: "file size (MB)".into(),
        y_name: "improvement ratio".into(),
        series: vec![s.ratio()],
    };
    (f7, f8)
}

/// Figure 9: wc page faults on CD-ROM vs file size.
pub fn fig9() -> Figure {
    let s = sweep(
        FsKind::CdRom,
        (24..=96).step_by(8),
        false,
        9,
        |n, seed| text_corpus(n, 0, seed),
        |_, _, _, _| {},
        |k, path, table| {
            wc(k, path, table).expect("wc");
        },
    );
    Figure {
        id: "fig9",
        title: "Page faults for CD-ROM wc with/without SLEDs (warm cache)".into(),
        x_name: "file size (MB)".into(),
        y_name: "page faults".into(),
        series: vec![s.faults_with, s.faults_without],
    }
}

/// Figure 10: grep (all matches) on CD-ROM, elapsed time vs file size.
pub fn fig10() -> Figure {
    let re = Regex::new(&String::from_utf8_lossy(NEEDLE)).expect("pattern");
    let s = sweep(
        FsKind::CdRom,
        (24..=96).step_by(8),
        false,
        10,
        // Small match percentage: one matching line in ~400.
        |n, seed| text_corpus(n, 400, seed),
        |_, _, _, _| {},
        move |k, path, table| {
            grep(k, path, &re, &GrepOptions::default(), table).expect("grep");
        },
    );
    Figure {
        id: "fig10",
        title: "Time for CD-ROM grep, all matches, with/without SLEDs".into(),
        x_name: "file size (MB)".into(),
        y_name: "execution time (s)".into(),
        series: vec![s.elapsed_with, s.elapsed_without],
    }
}

/// Shared runner for the first-match experiments.
///
/// `per_run_placement` selects the protocol: Figures 11/12 place the single
/// match once per test file (so the discarded warm-up run leaves the match
/// region cached, and the SLEDs runs find it without any physical I/O —
/// the paper's "ideal benchmark"); Figure 13's CDF moves the match to a
/// fresh random position before every run.
fn first_match_sweep(
    fs: FsKind,
    sizes: impl IntoIterator<Item = u64>,
    seed: u64,
    per_run_placement: bool,
) -> Sweep {
    let re = Regex::new(&String::from_utf8_lossy(NEEDLE)).expect("pattern");
    let mut prev_pos: Option<u64> = None;
    sweep(
        fs,
        sizes,
        false,
        seed,
        |n, s| text_corpus(n, 0, s),
        move |k, path, rng, run_idx| {
            let len = k.stat(path).expect("stat").size as usize;
            if run_idx == 0 {
                // Fresh test file for this size/mode: plant the match.
                let pos = needle_position(rng, len);
                k.poke_file(path, pos, NEEDLE).expect("poke");
                prev_pos = Some(pos);
            } else if per_run_placement {
                if let Some(p) = prev_pos {
                    k.poke_file(path, p, b"aaaaaa").expect("unpoke");
                }
                let pos = needle_position(rng, len);
                k.poke_file(path, pos, NEEDLE).expect("poke");
                prev_pos = Some(pos);
            }
            // Fixed placement: measured runs keep the warm-up's needle.
        },
        move |k, path, table| {
            grep(
                k,
                path,
                &re,
                &GrepOptions {
                    first_match_only: true,
                },
                table,
            )
            .expect("grep -q");
        },
    )
}

/// Figures 11 and 12: grep first match on ext2, elapsed and speedup.
pub fn fig11_12() -> (Figure, Figure) {
    let s = first_match_sweep(FsKind::Ext2, (8..=128).step_by(8), 11, false);
    let f11 = Figure {
        id: "fig11",
        title: "Time for ext2 grep with one match, with/without SLEDs".into(),
        x_name: "file size (MB)".into(),
        y_name: "execution time (s)".into(),
        series: vec![s.elapsed_with.clone(), s.elapsed_without.clone()],
    };
    let f12 = Figure {
        id: "fig12",
        title: "Ratio of mean execution time, ext2 grep one match".into(),
        x_name: "file size (MB)".into(),
        y_name: "improvement ratio".into(),
        series: vec![s.ratio()],
    };
    (f11, f12)
}

/// Figure 13: CDF of grep first-match times, NFS, 64 MB file.
pub fn fig13() -> Figure {
    let re = Regex::new(&String::from_utf8_lossy(NEEDLE)).expect("pattern");
    let n_runs = 100;
    let bytes = 64usize << 20;
    let mut series = Vec::new();
    for use_sleds in [true, false] {
        let mut env = Env::table2(FsKind::Nfs, 13 + use_sleds as u64);
        let data = text_corpus(bytes, 0, 1313);
        let path = env.install("testfile", &data);
        let table = use_sleds.then_some(env.table.clone());
        // Same placement sequence in both modes: fair comparison.
        let mut rng = DetRng::new(777);
        let mut prev: Option<u64> = None;
        let mut samples = Vec::with_capacity(n_runs);
        for i in 0..=n_runs {
            if let Some(p) = prev {
                env.kernel.poke_file(&path, p, b"aaaaaa").expect("unpoke");
            }
            let pos = needle_position(&mut rng, bytes);
            env.kernel.poke_file(&path, pos, NEEDLE).expect("poke");
            prev = Some(pos);
            let j = env.kernel.start_job();
            grep(
                &mut env.kernel,
                &path,
                &re,
                &GrepOptions {
                    first_match_only: true,
                },
                table.as_ref(),
            )
            .expect("grep -q");
            let rep = env.kernel.finish_job(&j);
            if i > 0 {
                // First run warms the cache and is discarded.
                samples.push(rep.elapsed_secs());
            }
        }
        let ecdf = sleds_sim_core::stats::Ecdf::of(&samples).expect("samples");
        let mut s = Series::new(if use_sleds {
            "with SLEDs"
        } else {
            "without SLEDs"
        });
        for (x, frac) in ecdf.steps() {
            s.push(x, &[frac]);
        }
        series.push(s);
    }
    Figure {
        id: "fig13",
        title: "CDF of execution time, NFS grep one match, 64MB (warm cache)".into(),
        x_name: "time elapsed (s)".into(),
        y_name: "fraction of runs".into(),
        series,
    }
}

/// Figure 14: fimhisto elapsed time on ext2 (Table 3 machine).
pub fn fig14() -> (Figure, Figure) {
    let s = sweep(
        FsKind::Ext2,
        (8..=64).step_by(8),
        true,
        14,
        |n, seed| {
            let (w, h) = sleds_fits::gen::dimensions_for_bytes(n as u64, sleds_fits::Bitpix::I16);
            sleds_fits::generate_image_bytes(w, h, sleds_fits::Bitpix::I16, seed)
        },
        |_, _, _, _| {},
        |k, path, table| {
            let out = "/data/fimhisto.out.fits";
            fimhisto(k, path, out, DEFAULT_BINS, table).expect("fimhisto");
        },
    );
    let elapsed = Figure {
        id: "fig14",
        title: "Elapsed time for FIMHISTO with/without SLEDs (ext2, warm cache)".into(),
        x_name: "file size (MB)".into(),
        y_name: "execution time (s)".into(),
        series: vec![s.elapsed_with.clone(), s.elapsed_without.clone()],
    };
    let faults = Figure {
        id: "fig14-faults",
        title: "Page faults for FIMHISTO with/without SLEDs".into(),
        x_name: "file size (MB)".into(),
        y_name: "page faults".into(),
        series: vec![s.faults_with, s.faults_without],
    };
    (elapsed, faults)
}

/// Figure 15: fimgbin elapsed time on ext2, 4x and 16x data reduction.
pub fn fig15() -> Vec<Figure> {
    let mut figs = Vec::new();
    for (factor, reduction) in [(2usize, 4u32), (4, 16)] {
        let s = sweep(
            FsKind::Ext2,
            (8..=64).step_by(8),
            true,
            15 + factor as u64,
            |n, seed| {
                let (w, h) =
                    sleds_fits::gen::dimensions_for_bytes(n as u64, sleds_fits::Bitpix::I16);
                sleds_fits::generate_image_bytes(w, h, sleds_fits::Bitpix::I16, seed)
            },
            |_, _, _, _| {},
            move |k, path, table| {
                let out = "/data/fimgbin.out.fits";
                fimgbin(k, path, out, factor, table).expect("fimgbin");
            },
        );
        figs.push(Figure {
            id: if factor == 2 { "fig15" } else { "fig15-16x" },
            title: format!("Elapsed time for FIMGBIN with/without SLEDs ({reduction}x reduction)"),
            x_name: "file size (MB)".into(),
            y_name: "execution time (s)".into(),
            series: vec![s.elapsed_with, s.elapsed_without],
        });
    }
    figs
}

// ---------------------------------------------------------------------
// HSM extension (section 5's "gains may be much greater with HSM")
// ---------------------------------------------------------------------

/// The HSM prediction: total delivery estimates let `find -latency` prune
/// tape-resident files; returns (pruned walk seconds, full walk seconds).
pub fn hsm_prune_demo() -> (f64, f64) {
    use sleds_apps::find::{find, FindOptions};
    let mut env = Env::table2(FsKind::Hsm, 99);
    let file_bytes = 4 << 20;
    let mut paths = Vec::new();
    for i in 0..6 {
        let data = text_corpus(file_bytes, 50, 500 + i);
        paths.push(env.install(&format!("file{i}.dat"), &data));
    }
    // Migrate half the files to tape.
    for p in paths.iter().step_by(2) {
        env.kernel.hsm_migrate(p, true).expect("migrate");
    }
    let table = env.table.clone();
    let re = Regex::new(&String::from_utf8_lossy(NEEDLE)).expect("pattern");

    // Pruned: only files deliverable in under 10 s get grepped.
    let j = env.kernel.start_job();
    let hits = find(
        &mut env.kernel,
        "/hsm",
        &FindOptions {
            latency: Some(sleds::LatencyPredicate::parse("-10").expect("pred")),
            ..Default::default()
        },
        Some(&table),
    )
    .expect("find");
    for h in &hits {
        grep(
            &mut env.kernel,
            &h.path,
            &re,
            &GrepOptions::default(),
            Some(&table),
        )
        .expect("grep");
    }
    let pruned = env.kernel.finish_job(&j).elapsed_secs();

    // Unpruned: grep everything, staging tape files in.
    let j = env.kernel.start_job();
    let hits = find(&mut env.kernel, "/hsm", &FindOptions::default(), None).expect("find");
    for h in &hits {
        if env.kernel.stat(&h.path).expect("stat").kind == sleds_fs::FileKind::File {
            grep(&mut env.kernel, &h.path, &re, &GrepOptions::default(), None).expect("grep");
        }
    }
    let full = env.kernel.finish_job(&j).elapsed_secs();
    (pruned, full)
}

/// gmc's report on an HSM file before and after migration — the paper's
/// reporting use case where estimates span many orders of magnitude.
pub fn gmc_hsm_report() -> String {
    use std::fmt::Write;
    let mut env = Env::table2(FsKind::Hsm, 98);
    let data = text_corpus(8 << 20, 0, 42);
    let path = env.install("archive.dat", &data);
    let table = env.table.clone();
    let mut out = String::new();
    let online = sleds_apps::gmc::properties_panel(&mut env.kernel, &table, &path).expect("panel");
    writeln!(out, "online (disk-resident):\n{online}").expect("fmt");
    env.kernel.hsm_migrate(&path, true).expect("migrate");
    let offline = sleds_apps::gmc::properties_panel(&mut env.kernel, &table, &path).expect("panel");
    writeln!(out, "offline (tape-resident):\n{offline}").expect("fmt");
    writeln!(
        out,
        "estimate ratio offline/online: {:.0}x",
        offline.best_secs / online.best_secs.max(1e-12)
    )
    .expect("fmt");
    out
}

/// The §5.2 source-tree story: a repeated `find -exec grep` with and
/// without SLEDs ordering. Returns formatted text.
pub fn tree_demo() -> String {
    use sleds_apps::treegrep::{tree_grep, TreeGrepOptions};
    use std::fmt::Write;
    let mut env = Env::table2(FsKind::Ext2, 55);
    // A "source tree": 24 files of 4 MiB; the routine we're looking for is
    // in the last file in scan order.
    let nfiles = 24;
    for i in 0..nfiles {
        let mut data = text_corpus(4 << 20, 0, 900 + i as u64);
        if i == nfiles - 1 {
            let p = data.len() * 2 / 3;
            data[p..p + NEEDLE.len()].copy_from_slice(NEEDLE);
        }
        env.install(&format!("file{i:02}.c"), &data);
    }
    let table = env.table.clone();
    let re = Regex::new(&String::from_utf8_lossy(NEEDLE)).expect("pattern");
    let opts = TreeGrepOptions {
        name_glob: Some("*.c".into()),
        stop_after_first: true,
    };

    let mut out = String::new();
    writeln!(
        out,
        "Repeated source-tree search (24 x 4 MiB files, match in the last)"
    )
    .expect("fmt");
    // First search, baseline order (this is the one that warms the tail).
    let j = env.kernel.start_job();
    let first = tree_grep(&mut env.kernel, "/data", &re, &opts, None).expect("tree grep");
    let rep = env.kernel.finish_job(&j);
    writeln!(
        out,
        "  initial search:            {:>8}  ({} files scanned)",
        rep.elapsed, first.files_searched
    )
    .expect("fmt");
    // Repeat, baseline: full rescan.
    let j = env.kernel.start_job();
    let naive = tree_grep(&mut env.kernel, "/data", &re, &opts, None).expect("tree grep");
    let naive_rep = env.kernel.finish_job(&j);
    writeln!(
        out,
        "  repeat, find-order:        {:>8}  ({} files scanned, {} faults)",
        naive_rep.elapsed, naive.files_searched, naive_rep.usage.major_faults
    )
    .expect("fmt");
    // Repeat, SLEDs: cache first.
    let j = env.kernel.start_job();
    let smart = tree_grep(&mut env.kernel, "/data", &re, &opts, Some(&table)).expect("tree grep");
    let smart_rep = env.kernel.finish_job(&j);
    writeln!(
        out,
        "  repeat, SLEDs cheap-first: {:>8}  ({} files scanned, {} faults)",
        smart_rep.elapsed, smart.files_searched, smart_rep.usage.major_faults
    )
    .expect("fmt");
    writeln!(
        out,
        "  advantage: {:.0}x",
        naive_rep.elapsed.as_secs_f64() / smart_rep.elapsed.as_secs_f64().max(1e-9)
    )
    .expect("fmt");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_trace_matches_paper_claims() {
        let (text, linear, sleds) = fig3();
        assert_eq!(linear, 0, "LRU second linear pass gets nothing");
        assert_eq!(sleds, 3, "SLEDs order hits the cached tail");
        assert!(text.contains("first pass"));
    }

    #[test]
    fn fig4_shows_adjusted_edges() {
        let text = fig4();
        assert!(text.contains("before"));
        assert!(text.contains("after"));
        // Adjusted offsets land just past a separator: offset % 7 == 0.
        assert!(text.contains("(offset % 7 == 0)"));
    }

    #[test]
    fn table4_counts_marker_regions() {
        let rows = table4();
        assert_eq!(rows.len(), 6);
        let grep_row = rows.iter().find(|r| r.app == "grep").unwrap();
        let find_row = rows.iter().find(|r| r.app == "find").unwrap();
        assert!(
            grep_row.sleds_lines > find_row.sleds_lines,
            "grep port is the most invasive, as in the paper"
        );
        for r in &rows {
            assert!(r.sleds_lines > 0, "{} has no marked region", r.app);
            assert!(r.sleds_lines < r.total_lines);
        }
    }
}
