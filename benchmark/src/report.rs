//! Run files, the manifest, and the report over one or two sets of runs:
//! the metric table, the bypass-prediction self-test, and — given two
//! sets — the agreement check.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::metrics::{Clock, Def, Values, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::workloads;

fn clock_name(c: Clock) -> &'static str {
    match c {
        Clock::Virtual => "virtual",
        Clock::Host => "host",
    }
}

fn run_file(dir: &Path, workload: &str, trace: bool) -> PathBuf {
    dir.join(format!("{workload}.trace{}.tsv", u8::from(trace)))
}

/// Writes one run's figures as `name<TAB>value<TAB>unit<TAB>clock` lines.
/// Values are written with every digit, so a virtual figure can be
/// compared as text.
pub fn write_run(
    out: &Path,
    workload: &str,
    trace: bool,
    defs: &[Def],
    values: &Values,
) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut text = String::new();
    for d in defs {
        let v = values.get(d.name).copied().unwrap_or(0.0);
        text.push_str(&format!(
            "{}\t{v:?}\t{}\t{}\n",
            d.name,
            d.unit,
            clock_name(d.clock)
        ));
    }
    let path = run_file(out, workload, trace);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCHMARK.json`, generated from the metric tables.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads::NAMES
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{w}\", \"why\": \"{}\"}}",
                workloads::why(w)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let better = |d: &Def| if d.higher { "higher" } else { "lower" };
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                better(d),
                d.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                better(d)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// One metric of one run, value kept as written.
struct Row {
    text: String,
    value: f64,
    unit: String,
    clock: String,
}

/// One set of runs: `[workload][metric]`, end-to-end and per-layer merged.
type Set = BTreeMap<String, BTreeMap<String, Row>>;

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    for w in workloads::NAMES {
        let rows = set.entry(w.to_string()).or_default();
        for trace in [false, true] {
            let path = run_file(dir, w, trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            for line in text.lines() {
                let f: Vec<&str> = line.split('\t').collect();
                let [name, value, unit, clock] = f[..] else {
                    return Err(format!("{}: malformed line {line:?}", path.display()));
                };
                rows.insert(
                    name.to_string(),
                    Row {
                        text: value.to_string(),
                        value: value
                            .parse()
                            .map_err(|e| format!("{}: {name}: {e}", path.display()))?,
                        unit: unit.to_string(),
                        clock: clock.to_string(),
                    },
                );
            }
        }
    }
    Ok(set)
}

fn value(set: &Set, workload: &str, metric: &str) -> f64 {
    set.get(workload)
        .and_then(|rows| rows.get(metric))
        .map_or(0.0, |r| r.value)
}

/// `results.json` for one set: every metric of every workload, with unit
/// and clock, plus whatever `meta.tsv` (written by `run.sh`) records about
/// the machine.
fn results_json(dir: &Path, set: &Set) -> String {
    let mut s = String::from("{\n  \"schema\": \"sleds-twoclock-v1\",\n");
    if let Ok(meta) = std::fs::read_to_string(dir.join("meta.tsv")) {
        for line in meta.lines() {
            if let Some((k, v)) = line.split_once('\t') {
                s.push_str(&format!("  \"{k}\": \"{}\",\n", v.replace('"', "'")));
            }
        }
    }
    s.push_str("  \"workloads\": {\n");
    let blocks: Vec<String> = set
        .iter()
        .map(|(w, rows)| {
            let lines: Vec<String> = rows
                .iter()
                .map(|(name, r)| {
                    format!(
                        "      \"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"clock\": \"{}\"}}",
                        r.text, r.unit, r.clock
                    )
                })
                .collect();
            format!("    \"{w}\": {{\n{}\n    }}", lines.join(",\n"))
        })
        .collect();
    s.push_str(&blocks.join(",\n"));
    s.push_str("\n  }\n}\n");
    s
}

/// A layer's work counter, the workload it is at home on, and the
/// workloads built to bypass it. The counter must be at least ten times
/// larger at home than on any bypass workload (zero there, in practice).
const BYPASS: &[(&str, &str, &[&str])] = &[
    (
        "fs.queue.wait_s",
        "tenant_replay",
        &["scan_warm", "fits_rw", "tree_walk"],
    ),
    (
        "faults.injected",
        "tenant_replay",
        &["scan_warm", "fits_rw", "tree_walk"],
    ),
    (
        "fs.volume.hedges",
        "tenant_replay",
        &["scan_warm", "fits_rw", "tree_walk"],
    ),
    (
        "fs.capture.ops",
        "tenant_replay",
        &["scan_warm", "fits_rw", "tree_walk"],
    ),
    (
        "devices.tape.cmds",
        "tenant_replay",
        &["scan_warm", "fits_rw", "tree_walk"],
    ),
    (
        "textmatch.bytes",
        "scan_warm",
        &["fits_rw", "tree_walk", "tenant_replay"],
    ),
    ("devices.cdrom.cmds", "scan_warm", &["fits_rw", "tree_walk"]),
    (
        "pagecache.dirty_evictions",
        "fits_rw",
        &["scan_warm", "tree_walk"],
    ),
    (
        "fits.bytes_written_per_byte_read",
        "fits_rw",
        &["scan_warm", "tree_walk"],
    ),
    (
        "fs.ring.enters",
        "tree_walk",
        &["scan_warm", "fits_rw", "tenant_replay"],
    ),
    (
        "fs.prog.evals",
        "tree_walk",
        &["scan_warm", "fits_rw", "tenant_replay"],
    ),
];

/// Checks the predictions written down before measuring: each layer's
/// work shows on its home workload and not on the ones built to bypass
/// it, and SLEDs buys nothing when the file fits the cache.
fn bypass_self_test(set: &Set) -> Vec<String> {
    let mut failed = Vec::new();
    for &(metric, home, bypasses) in BYPASS {
        let at_home = value(set, home, metric);
        for b in bypasses {
            let away = value(set, b, metric);
            if !(at_home > 0.0 && at_home >= 10.0 * away) {
                failed.push(format!(
                    "{metric}: {at_home} on {home} is not 10x its {away} on {b}"
                ));
            }
        }
    }
    for w in ["scan_warm", "fits_rw"] {
        let fit = value(set, w, "apps.sleds_speedup_fit_x");
        let spill = value(set, w, "apps.sleds_speedup_spill_x");
        if (fit - 1.0).abs() > 0.05 {
            failed.push(format!(
                "{w}: apps.sleds_speedup_fit_x = {fit}, predicted within 5 % of 1"
            ));
        }
        if spill <= 1.0 {
            failed.push(format!(
                "{w}: apps.sleds_speedup_spill_x = {spill}, predicted above 1"
            ));
        }
    }
    failed
}

/// Two sets of runs of the same code and seed agree when every virtual
/// figure is identical and every host end-to-end median is within its
/// bound of the other set's.
fn disagreements(a: &Set, b: &Set) -> Vec<String> {
    let mut out = Vec::new();
    for (w, rows) in a {
        for (name, ra) in rows {
            let Some(rb) = b.get(w).and_then(|r| r.get(name)) else {
                out.push(format!("{w} {name}: missing from the second set"));
                continue;
            };
            if ra.clock == "virtual" {
                if ra.text != rb.text {
                    out.push(format!(
                        "{w} {name}: virtual figure differs ({} vs {})",
                        ra.text, rb.text
                    ));
                }
            } else if let Some(d) = END_TO_END.iter().find(|d| d.name == name) {
                let rel = (rb.value - ra.value).abs() / ra.value.min(rb.value);
                if rel > d.bound {
                    out.push(format!(
                        "{w} {name}: host medians {} and {} differ by {:.1} %, bound {:.0} % \
                         (harness.oncpu_share {} and {})",
                        ra.text,
                        rb.text,
                        rel * 100.0,
                        d.bound * 100.0,
                        value(a, w, "harness.oncpu_share"),
                        value(b, w, "harness.oncpu_share"),
                    ));
                }
            }
        }
    }
    out
}

/// `report DIR [DIR2]`: prints every metric of the first set, writes its
/// `results.json`, runs the self-test, and with a second set checks that
/// the two agree.
pub fn report(dirs: &[PathBuf]) -> Result<(), String> {
    let [first, rest @ ..] = dirs else {
        return Err("report needs a directory of run files".to_string());
    };
    let set = load_set(first)?;
    for (w, rows) in &set {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(r) = rows.get(d.name) {
                println!("{w} {} {} {}", d.name, r.text, r.unit);
            }
        }
    }
    let path = first.join("results.json");
    std::fs::write(&path, results_json(first, &set))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());

    let mut problems = bypass_self_test(&set);
    if problems.is_empty() {
        println!(
            "bypass predictions: ok ({} layer counters, 2 fit/spill pairs)",
            BYPASS.len()
        );
    }
    if let Some(second) = rest.first() {
        let other = load_set(second)?;
        std::fs::write(second.join("results.json"), results_json(second, &other))
            .map_err(|e| format!("{}: {e}", second.display()))?;
        let diffs = disagreements(&set, &other);
        if diffs.is_empty() {
            println!("agreement: ok");
        }
        problems.extend(diffs);
    }
    for p in &problems {
        println!("FAILED {p}");
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!("{} checks failed", problems.len()))
    }
}
