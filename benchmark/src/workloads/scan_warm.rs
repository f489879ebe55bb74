//! `scan_warm`: the paper's warm-cache protocol (Figs 7–13) on the Table 2
//! machine. A text corpus at two sizes — `fit`, inside the page cache, and
//! `spill`, larger than it — is scanned by `wc` over NFS, `wc` and
//! all-matches `grep` on CD-ROM, and `grep -q` on ext2; each pass runs
//! baseline then SLEDs, a discarded warm-up run then one measured run.
//!
//! The read data path does nearly all the work here. `fit` is the bypass
//! case: the whole file is resident after the warm-up, so SLEDs has nothing
//! to reorder and the predicted speed-up is 1 with zero major faults.

use sleds::SledsTable;
use sleds_apps::grep::{grep, GrepOptions};
use sleds_apps::wc::wc;
use sleds_devices::{CdRomDevice, DiskDevice, NfsDevice};
use sleds_fs::{Kernel, MachineConfig};
use sleds_lmbench::fill_table;
use sleds_sim_core::units::MIB;
use sleds_sim_core::{ByteSize, DetRng};
use sleds_textmatch::Regex;

use crate::check::{text_truth, Misses};
use crate::inputs::{jittered_len, text_corpus, HIT, NEEDLE};
use crate::metrics;
use crate::probes;
use crate::spans::Recorder;
use crate::workloads::{FitSpill, ModeTimes, Rep, RepCfg, Tally};

/// Device service-time jitter, as in the paper-figure drivers: background
/// activity is where the paper's error bars come from.
const JITTER: f64 = 0.04;

fn sizes(smoke: bool) -> FitSpill {
    if smoke {
        FitSpill {
            ram: ByteSize::mib(4),
            fit: MIB,
            spill: 4 * MIB,
        }
    } else {
        FitSpill {
            ram: ByteSize::mib(16),
            fit: 2 * MIB,
            spill: 12 * MIB,
        }
    }
}

struct Corpus {
    name: &'static str,
    data: Vec<u8>,
}

struct Env {
    k: Kernel,
    table: SledsTable,
    corpora: Vec<Corpus>,
    fill_virtual_s: f64,
}

#[derive(Clone, Copy, PartialEq)]
enum App {
    Wc,
    GrepAll,
    GrepQ,
}

const PASSES: [(App, &str, &str); 4] = [
    (App::Wc, "/nfs", "apps.wc"),
    (App::Wc, "/cdrom", "apps.wc"),
    (App::GrepAll, "/cdrom", "apps.grep_all"),
    (App::GrepQ, "/data", "apps.grep_q"),
];

fn setup(cfg: RepCfg, rec: &mut Recorder) -> Result<Env, String> {
    let sz = sizes(cfg.smoke);
    let rng = DetRng::new(cfg.seed).derive(0x5ca9);
    let mut k = Kernel::new(MachineConfig {
        ram: sz.ram,
        ..MachineConfig::table2()
    });
    let e = |e: sleds_sim_core::SimError| e.to_string();
    for d in ["/data", "/cdrom", "/nfs"] {
        k.mkdir(d).map_err(e)?;
    }
    let md = k
        .mount_disk(
            "/data",
            DiskDevice::table2_disk("hda").with_jitter(rng.derive(1), JITTER),
        )
        .map_err(e)?;
    let mc = k
        .mount_cdrom(
            "/cdrom",
            CdRomDevice::table2_drive("cd0").with_jitter(rng.derive(2), JITTER),
        )
        .map_err(e)?;
    let mn = k
        .mount_nfs(
            "/nfs",
            NfsDevice::table2_mount("nfs0").with_jitter(rng.derive(3), JITTER),
        )
        .map_err(e)?;

    let span = rec.begin("lmbench.fill_table");
    let t0 = k.now();
    let table = fill_table(&mut k, &[("/data", md), ("/cdrom", mc), ("/nfs", mn)]).map_err(e)?;
    let fill_virtual_s = (k.now() - t0).as_secs_f64();
    rec.end(span, 1.0);

    let mut text_rng = rng.derive(4);
    let mut corpora = Vec::new();
    for (name, nominal) in [("fit", sz.fit), ("spill", sz.spill)] {
        let len = jittered_len(&mut text_rng, nominal) as usize;
        // The needle sits mid-file, give or take one percent, so `grep -q`
        // does about the same work on every seed.
        let (data, _) = text_corpus(&mut text_rng, len, (len * 49 / 100, len * 51 / 100));
        for dir in ["/data", "/cdrom", "/nfs"] {
            k.install_file(&format!("{dir}/{name}"), &data).map_err(e)?;
        }
        corpora.push(Corpus { name, data });
    }
    k.drop_caches().map_err(e)?;
    k.reset_counters();
    Ok(Env {
        k,
        table,
        corpora,
        fill_virtual_s,
    })
}

/// What one app run returned, reduced to what the checker compares.
#[derive(PartialEq, Debug)]
enum Answer {
    Wc(u64, u64, u64),
    Lines(Vec<u64>),
}

fn run_app(
    k: &mut Kernel,
    app: App,
    path: &str,
    table: Option<&SledsTable>,
    hit: &Regex,
    needle: &Regex,
) -> Result<Answer, sleds_sim_core::SimError> {
    match app {
        App::Wc => wc(k, path, table).map(|r| Answer::Wc(r.lines, r.words, r.bytes)),
        App::GrepAll => grep(k, path, hit, &GrepOptions::default(), table)
            .map(|r| Answer::Lines(r.matches.iter().map(|m| m.offset).collect())),
        App::GrepQ => grep(
            k,
            path,
            needle,
            &GrepOptions {
                first_match_only: true,
            },
            table,
        )
        .map(|r| Answer::Lines(r.matches.iter().map(|m| m.offset).collect())),
    }
}

pub fn rep(cfg: RepCfg, rec: &mut Recorder) -> Result<Rep, String> {
    let mut out = Rep::default();
    let phase = rec.phase("setup");
    let mut env = setup(cfg, rec)?;
    out.setup_ns = rec.end(phase, 1.0);

    // The reference answers are the benchmark's own cost: outside both timed phases.
    let truths: Vec<_> = env.corpora.iter().map(|c| text_truth(&c.data)).collect();
    let hit = Regex::new(&String::from_utf8_lossy(HIT)).map_err(|e| e.to_string())?;
    let needle = Regex::new(&String::from_utf8_lossy(NEEDLE)).map_err(|e| e.to_string())?;
    let mut misses = Misses::default();
    let mut times = ModeTimes::default();
    let mut grep_bytes = 0u64;

    let k = &mut env.k;
    if cfg.observe {
        k.enable_tracing_with_capacity(1 << 12);
    }
    let measured = rec.phase("measured");
    for (app, dir, span_name) in PASSES {
        for (si, corpus) in env.corpora.iter().enumerate() {
            let path = format!("{dir}/{}", corpus.name);
            let truth = &truths[si];
            let mib = corpus.data.len() as f64 / MIB as f64;
            let want = match app {
                App::Wc => Answer::Wc(truth.lines, truth.words, truth.bytes),
                App::GrepAll => Answer::Lines(truth.hit_lines.clone()),
                App::GrepQ => Answer::Lines(truth.needle_line.into_iter().collect()),
            };
            for (mi, table) in [None, Some(&env.table)].into_iter().enumerate() {
                rec.next_pass();
                k.drop_caches().map_err(|e| e.to_string())?;
                // Warm-up run (discarded), then the measured run, same mode.
                for measured_run in [false, true] {
                    let before = k.usage();
                    let job = k.start_job();
                    let s = rec.begin(span_name);
                    let got = run_app(k, app, &path, table, &hit, &needle);
                    rec.end(s, mib);
                    let report = k.finish_job(&job);
                    out.ops += mib;
                    if app != App::Wc {
                        grep_bytes += k.usage().since(&before).bytes_read;
                    }
                    match got {
                        Ok(got) => misses.equal(&got, &want, &format!("{span_name} {path}")),
                        Err(e) => {
                            out.failed_ops += mib;
                            misses.failed(format!("{span_name} {path}: {e}"));
                        }
                    }
                    if measured_run {
                        times.note(si, mi, &report);
                    }
                }
            }
        }
    }
    out.host_ns = rec.end(measured, out.ops);

    let mut tally = Tally::default();
    tally.kernel(k);
    let v = &mut tally.virt;
    times.put(v);
    metrics::put(v, "textmatch.bytes", grep_bytes as f64);
    metrics::put(v, "lmbench.fill_table.virtual_s", env.fill_virtual_s);
    // One FSLEDS_GET per SLEDs-mode app run (warm-up and measured).
    metrics::put(
        v,
        "core.fsleds_get.calls",
        (PASSES.len() * env.corpora.len() * 2) as f64,
    );
    tally.finish(&mut out);
    out.misses = misses.missed;
    out.checks = misses.checked;

    if rec.enabled() {
        let spill = &env.corpora[1];
        probes::core(k, &env.table, "/cdrom/spill", rec, &mut out.virt)?;
        probes::trace_export(k, rec);
        probes::fs(k, "/data", rec)?;
        probes::regex(&hit, &spill.data, rec);
    }
    Ok(out)
}
