//! `fits_rw`: Figs 14–15 on the Table 3 machine. I16 FITS images at a
//! `fit` and a `spill` size on ext2; `fimhisto` (three passes: copy,
//! range, histogram + append) and `fimgbin` (2x2 boxcar); each baseline
//! then SLEDs, a discarded warm-up run then one measured run.
//!
//! The same page-cache, disk and `fs` layers as `scan_warm`, used
//! differently: writes, dirty evictions and writeback sit beside the
//! reads, so a read-path gain that costs the write path shows here.
//! No text is matched.

use sleds::SledsTable;
use sleds_apps::fimgbin::fimgbin;
use sleds_apps::fimhisto::{fimhisto, read_back_histogram, DEFAULT_BINS};
use sleds_devices::DiskDevice;
use sleds_fits::FitsReader;
use sleds_fs::{Kernel, MachineConfig};
use sleds_lmbench::fill_table;
use sleds_sim_core::units::MIB;
use sleds_sim_core::{ByteSize, DetRng, SimError, PAGE_SIZE};

use crate::check::{histogram_truth, rebin_truth, Misses};
use crate::inputs::{fits_image, FitsImage};
use crate::metrics;
use crate::probes;
use crate::spans::Recorder;
use crate::workloads::{FitSpill, ModeTimes, Rep, RepCfg, Tally};

const JITTER: f64 = 0.04;

/// Image rows are this many I16 pixels: one page per row.
const WIDTH: usize = PAGE_SIZE as usize / 2;

const BIN_FACTOR: usize = 2;

fn sizes(smoke: bool) -> FitSpill {
    if smoke {
        FitSpill {
            ram: ByteSize::mib(4),
            fit: MIB,
            spill: 3 * MIB,
        }
    } else {
        FitSpill {
            ram: ByteSize::mib(16),
            fit: 3 * MIB,
            spill: 12 * MIB,
        }
    }
}

struct Env {
    k: Kernel,
    table: SledsTable,
    images: Vec<(&'static str, FitsImage)>,
    fill_virtual_s: f64,
}

fn setup(cfg: RepCfg, rec: &mut Recorder) -> Result<Env, String> {
    let sz = sizes(cfg.smoke);
    let rng = DetRng::new(cfg.seed).derive(0xf175);
    let e = |e: SimError| e.to_string();
    let mut k = Kernel::new(MachineConfig {
        ram: sz.ram,
        ..MachineConfig::table3()
    });
    k.mkdir("/data").map_err(e)?;
    let m = k
        .mount_disk(
            "/data",
            DiskDevice::table3_disk("hda").with_jitter(rng.derive(1), JITTER),
        )
        .map_err(e)?;
    let span = rec.begin("lmbench.fill_table");
    let t0 = k.now();
    let table = fill_table(&mut k, &[("/data", m)]).map_err(e)?;
    let fill_virtual_s = (k.now() - t0).as_secs_f64();
    rec.end(span, 1.0);

    let mut img_rng = rng.derive(2);
    let mut images = Vec::new();
    for (name, nominal) in [("fit", sz.fit), ("spill", sz.spill)] {
        // Seed-chosen height: up to 15 rows (pages) short of nominal, and
        // even so the 2x2 boxcar has no ragged edge to discard.
        let rows = (nominal / PAGE_SIZE - img_rng.range_u64(0, 8) * 2) as usize;
        let img = fits_image(&mut img_rng, WIDTH, rows);
        k.install_file(&format!("/data/{name}.fits"), &img.bytes)
            .map_err(e)?;
        images.push((name, img));
    }
    k.drop_caches().map_err(e)?;
    k.reset_counters();
    Ok(Env {
        k,
        table,
        images,
        fill_virtual_s,
    })
}

/// Reads a finished I16 image back, pixel for pixel, a row at a time.
fn read_image(k: &mut Kernel, path: &str) -> Result<(Vec<usize>, Vec<i16>), SimError> {
    let r = FitsReader::open(k, path)?;
    let axes = r.header().axes()?;
    let total = r.pixel_count();
    let mut px = Vec::with_capacity(total as usize);
    while (px.len() as u64) < total {
        let row = r.read_pixels_at(k, px.len() as u64, WIDTH)?;
        px.extend(row.iter().map(|&v| v as i16));
    }
    k.close(r.fd())?;
    Ok((axes, px))
}

pub fn rep(cfg: RepCfg, rec: &mut Recorder) -> Result<Rep, String> {
    let mut out = Rep::default();
    let phase = rec.phase("setup");
    let mut env = setup(cfg, rec)?;
    out.setup_ns = rec.end(phase, 1.0);

    let truths: Vec<_> = env
        .images
        .iter()
        .map(|(_, img)| {
            (
                histogram_truth(img, DEFAULT_BINS),
                rebin_truth(img, BIN_FACTOR),
            )
        })
        .collect();
    let mut misses = Misses::default();
    let mut times = ModeTimes::default();
    // Outputs of the last measured run of each (app, size, mode), checked
    // after the clock stops.
    let mut outputs: Vec<(bool, usize, String)> = Vec::new();

    let k = &mut env.k;
    if cfg.observe {
        k.enable_tracing_with_capacity(1 << 12);
    }
    let measured = rec.phase("measured");
    for (histo, span_name) in [(true, "apps.fimhisto"), (false, "apps.fimgbin")] {
        for (si, (name, img)) in env.images.iter().enumerate() {
            let input = format!("/data/{name}.fits");
            let mib = img.bytes.len() as f64 / MIB as f64;
            for (mi, table) in [None, Some(&env.table)].into_iter().enumerate() {
                rec.next_pass();
                k.drop_caches().map_err(|e| e.to_string())?;
                let output = format!("/data/{name}.{span_name}.{mi}.out");
                for measured_run in [false, true] {
                    let job = k.start_job();
                    let s = rec.begin(span_name);
                    let got = if histo {
                        fimhisto(k, &input, &output, DEFAULT_BINS, table).map(|_| ())
                    } else {
                        fimgbin(k, &input, &output, BIN_FACTOR, table).map(|_| ())
                    };
                    rec.end(s, mib);
                    let report = k.finish_job(&job);
                    out.ops += mib;
                    if let Err(e) = got {
                        out.failed_ops += mib;
                        misses.failed(format!("{span_name} {input}: {e}"));
                    }
                    if measured_run {
                        times.note(si, mi, &report);
                    }
                }
                outputs.push((histo, si, output));
            }
        }
    }
    out.host_ns = rec.end(measured, out.ops);

    let mut tally = Tally::default();
    tally.kernel(k);
    let v = &mut tally.virt;
    times.put(v);
    metrics::put(v, "lmbench.fill_table.virtual_s", env.fill_virtual_s);
    // fimhisto asks for SLEDs twice per run (passes 2 and 3), fimgbin once.
    metrics::put(
        v,
        "core.fsleds_get.calls",
        (env.images.len() * 2 * 3) as f64,
    );
    tally.finish(&mut out);

    // Baseline and SLEDs outputs are each compared with the host-side
    // reference, which also makes them identical to each other.
    for (histo, si, output) in &outputs {
        let (want_hist, (ow, oh, want_px)) = &truths[*si];
        if *histo {
            match read_back_histogram(k, output) {
                Ok(got) => misses.expect(&got == want_hist, || {
                    format!("{output}: histogram differs from the host-computed one")
                }),
                Err(e) => misses.failed(format!("{output}: {e}")),
            }
            match read_image(k, output) {
                Ok((_, px)) => misses.expect(px == env.images[*si].1.pixels, || {
                    format!("{output}: copied pixels differ from the input")
                }),
                Err(e) => misses.failed(format!("{output}: {e}")),
            }
        } else {
            match read_image(k, output) {
                Ok((axes, px)) => misses.expect(axes == [*ow, *oh] && &px == want_px, || {
                    format!("{output}: rebinned image differs from the host-side boxcar")
                }),
                Err(e) => misses.failed(format!("{output}: {e}")),
            }
        }
    }
    out.misses = misses.missed;
    out.checks = misses.checked;

    if rec.enabled() {
        probes::core(k, &env.table, "/data/spill.fits", rec, &mut out.virt)?;
        probes::trace_export(k, rec);
        probes::fs(k, "/data", rec)?;
    }
    Ok(out)
}
