//! Two-clock benchmark of the SLEDs simulator.
//!
//! ```text
//! sleds-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--out DIR]       one run of one workload
//! sleds-benchmark manifest                    print BENCHMARK.json
//! sleds-benchmark report DIR [DIR2]           print, self-test and compare sets of runs
//! ```
//!
//! One run is one process and one thread: a warm-up repetition with the
//! kernel's observers armed (its host times are discarded, its virtual
//! figures are not), then measured repetitions with them off for
//! `--seconds` of wall time (at least three), each rebuilding its
//! environment from the seed. A repetition takes a second or two, so a run
//! is a median over a dozen or more. The reference work (`reference.rs`)
//! is timed between repetitions, and the end-to-end host times are stated
//! in reference seconds. `--trace 1` adds one more repetition with the
//! harness's span recorder on, for the per-layer figures. Every virtual
//! figure must be bit-identical across all of them.

mod check;
mod hostclock;
mod inputs;
mod metrics;
mod probes;
mod reference;
mod report;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

use hostclock::HostClock;
use metrics::{Clock, Values, END_TO_END, PER_LAYER};
use reference::Reference;
use spans::{Fold, Recorder};
use workloads::{Rep, RepCfg};

/// Measured repetitions per run: at least this many however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            a.workload
        ));
    }
    Ok(a)
}

fn syscall_quantiles(rep: &Rep, into: &mut Values) -> u64 {
    let buckets = &rep.syscall_buckets;
    metrics::put(
        into,
        "virtual_syscall_p50_ns",
        metrics::bucket_quantile(buckets, 0.50),
    );
    metrics::put(
        into,
        "virtual_syscall_p99_ns",
        metrics::bucket_quantile(buckets, 0.99),
    );
    buckets.values().sum()
}

/// Host per-layer figures from the traced repetition's spans. A metric
/// named `<span>.host_ns_per_<unit>` is that span's self time per unit.
fn host_layers(fold: &BTreeMap<&'static str, Fold>, out: &mut Values) {
    let per_unit = |span: &str| fold.get(span).map_or(0.0, Fold::ns_per_unit);
    let total_ns = |span: &str| fold.get(span).map_or(0.0, |f| f.total_ns as f64);
    for d in PER_LAYER.iter().filter(|d| d.clock == Clock::Host) {
        if let Some((span, _)) = d.name.split_once(".host_ns_per_") {
            metrics::put(out, d.name, per_unit(span));
        }
    }
    metrics::put(
        out,
        "lmbench.fill_table.host_s",
        total_ns("lmbench.fill_table") / 1e9,
    );
    let naive_ns = total_ns("tree.naive");
    metrics::put(
        out,
        "fs.prog.pushdown_over_naive_host_x",
        if naive_ns > 0.0 {
            total_ns("tree.pushdown") / naive_ns
        } else {
            0.0
        },
    );
    // The door probe reads warm preads twice, kernel tracer off then on.
    metrics::put(
        out,
        "trace.host_overhead_ns_per_syscall",
        per_unit("fs.pread_warm_traced") - per_unit("fs.pread_warm"),
    );
    // tenant_replay's traced repetition repeats its live phase with only
    // the flight recorder armed.
    let capture = match (
        fold.get("tenant.live_plain"),
        fold.get("tenant.live_recorder"),
    ) {
        (Some(plain), Some(recorder)) => {
            (recorder.total_ns as f64 - plain.total_ns as f64) / plain.units.max(1.0)
        }
        _ => 0.0,
    };
    metrics::put(out, "fs.capture.host_overhead_ns_per_op", capture);
}

fn json_metrics(defs: &[metrics::Def], values: &Values) -> Result<String, String> {
    let mut parts = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *values
            .get(d.name)
            .ok_or(format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(parts.join(", "))
}

/// What a run accumulates over its repetitions.
#[derive(Default)]
struct Totals {
    misses: Vec<String>,
    checks: u64,
    ops: f64,
    failed_ops: f64,
    /// Off for smoke runs, which print no timing.
    log_times: bool,
}

impl Totals {
    /// Logs the repetition and folds in its checks. Every repetition after
    /// the first must reproduce the first one's virtual figures exactly.
    fn take(&mut self, w: &str, label: &str, rep: &Rep, first: Option<&Rep>) -> Result<(), String> {
        if self.log_times {
            eprintln!(
                "{w}: {label}: setup {:.3} s, measured {:.3} s (host clock, raw)",
                rep.setup_ns as f64 / 1e9,
                rep.host_ns as f64 / 1e9
            );
        }
        if let Some(first) = first {
            if let Some(name) = metrics::first_difference(&first.virt, &rep.virt) {
                return Err(format!(
                    "determinism: virtual metric {name} differs between the warm-up and {label} \
                     ({:?} vs {:?})",
                    first.virt[name], rep.virt[name]
                ));
            }
            if !rep.syscall_buckets.is_empty() && rep.syscall_buckets != first.syscall_buckets {
                return Err(format!(
                    "determinism: syscall latency histogram differs between the warm-up and {label}"
                ));
            }
        }
        self.misses.extend(rep.misses.iter().cloned());
        self.checks += rep.checks;
        self.ops += rep.ops;
        self.failed_ops += rep.failed_ops;
        Ok(())
    }
}

fn run(args: &Args) -> Result<(), String> {
    let clock = HostClock::new();
    let mut rec = Recorder::new(clock);
    let w = args.workload.as_str();
    let plain = RepCfg {
        seed: args.seed,
        smoke: args.smoke,
        observe: false,
    };
    let observed = RepCfg {
        observe: true,
        ..plain
    };
    let mut totals = Totals {
        log_times: !args.smoke,
        ..Totals::default()
    };

    // Warm-up: faults in the heap and, with the kernel's observers armed,
    // yields the syscall histogram. Host times discarded.
    let first = workloads::run(w, observed, &mut rec)?;
    totals.take(w, "warm-up", &first, None)?;

    let reference = Reference::new();
    let wall0 = clock.now_ns();
    let cpu0 = hostclock::oncpu_ns();
    let mut reps: Vec<Rep> = Vec::new();
    // How slow the box was around each repetition: the mean of the
    // reference work timed just before its set-up and just after its
    // measured phase.
    let mut slowness: Vec<f64> = Vec::new();
    let mut slow_before = reference.slowness(&clock);
    let mut peak_rss = 0.0;
    let (min_reps, budget_ns) = if args.smoke {
        (1, 0.0)
    } else {
        (MIN_REPS, args.seconds * 1e9)
    };
    // The budget is wall time, set-up included, so a run ends on time
    // however slow the box is that minute.
    while reps.len() < min_reps || ((clock.now_ns() - wall0) as f64) < budget_ns {
        let r = workloads::run(w, plain, &mut rec)?;
        totals.take(
            w,
            &format!("repetition {}", reps.len() + 1),
            &r,
            Some(&first),
        )?;
        reps.push(r);
        let slow_after = reference.slowness(&clock);
        slowness.push((slow_before + slow_after) / 2.0);
        slow_before = slow_after;
        // Read after a fixed number of repetitions: the heap creeps up a
        // few percent as repetitions go by, and how many fit in a run
        // depends on the box.
        if reps.len() == min_reps {
            peak_rss = hostclock::peak_rss_mib().unwrap_or(0.0);
        }
    }
    let wall_ns = (clock.now_ns() - wall0) as f64;
    let oncpu_share = match (cpu0, hostclock::oncpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / wall_ns,
        _ => 0.0,
    };

    // Raw host seconds, for the harness's own diagnostics, and reference
    // seconds, for the end-to-end figures.
    let raw_s: Vec<f64> = reps.iter().map(|r| r.host_ns as f64 / 1e9).collect();
    let raw_med = metrics::median(&raw_s);
    let in_ref_s = |ns: fn(&Rep) -> u64| -> Vec<f64> {
        reps.iter()
            .zip(&slowness)
            .map(|(r, slow)| ns(r) as f64 / 1e9 / slow)
            .collect()
    };
    let host_s = in_ref_s(|r| r.host_ns);
    let host_med = metrics::median(&host_s);

    let mut values: Values = first.virt.clone();
    let samples = syscall_quantiles(&first, &mut values);
    metrics::put(
        &mut values,
        "setup_s",
        metrics::median(&in_ref_s(|r| r.setup_ns)),
    );
    metrics::put(&mut values, "host_s", host_med);
    metrics::put(&mut values, "host_ns_per_op", host_med * 1e9 / first.ops);
    metrics::put(&mut values, "peak_rss_mb", peak_rss);

    if args.trace {
        rec.enable();
        let traced = workloads::run(w, observed, &mut rec)?;
        totals.take(w, "traced repetition", &traced, Some(&first))?;
        probes::isolated(&traced.drive, &mut rec);

        values.extend(traced.virt.iter().map(|(n, v)| (*n, *v)));
        // A layer the workload never enters reports zero work.
        for d in PER_LAYER {
            values.entry(d.name).or_insert(0.0);
        }
        host_layers(&rec.fold(), &mut values);
        let v = &mut values;
        metrics::put(v, "harness.reps", reps.len() as f64);
        metrics::put(v, "harness.oncpu_share", oncpu_share);
        metrics::put(v, "harness.box_slowness_x", metrics::median(&slowness));
        metrics::put(v, "harness.host_s_iqr_share", metrics::iqr_share(&host_s));
        metrics::put(
            v,
            "harness.trace_overhead_share",
            traced.host_ns as f64 / (raw_med * 1e9) - 1.0,
        );
        metrics::put(
            v,
            "harness.failed_ops_share",
            totals.failed_ops / totals.ops,
        );
        if !args.smoke {
            std::fs::create_dir_all(&args.out)
                .map_err(|e| format!("{}: {e}", args.out.display()))?;
            let path = args.out.join(format!("trace_{w}.json"));
            std::fs::write(&path, rec.chrome_json(w))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        if rec.dropped() > 0 {
            eprintln!("{w}: span recorder dropped {} spans", rec.dropped());
        }
    }

    for m in &totals.misses {
        eprintln!("{w}: MISS {m}");
    }
    let verdict = if totals.misses.is_empty() {
        Ok(())
    } else {
        Err(format!("{} output checks missed", totals.misses.len()))
    };
    // A smoke run checks outputs only; its tiny sizes time nothing.
    if args.smoke {
        println!("{w}: smoke: {} output checks made", totals.checks);
        return verdict;
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        println!("{w} {} {:?} {}", d.name, values[d.name], d.unit);
    }
    if !args.trace {
        println!("{w} virtual_syscall_samples {samples} count");
    }
    report::write_run(&args.out, w, args.trace, defs, &values)?;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        totals.misses.is_empty(),
        totals.ops.ceil().max(1.0) as u64,
        totals.failed_ops.ceil() as u64,
        json_metrics(defs, &values)?
    );
    verdict
}

fn main() -> Result<(), String> {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(())
        }
        Some("report") => {
            let dirs: Vec<PathBuf> = argv.skip(1).map(PathBuf::from).collect();
            report::report(&dirs)
        }
        _ => run(&parse_args(argv)?),
    }
}
