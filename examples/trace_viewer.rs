//! Trace a mixed-device workload and audit the SLEDs predictions.
//!
//! Builds one machine with four storage levels (local disk, CD-ROM, NFS,
//! HSM with a tape back end), turns on the virtual-clock tracer, runs
//! `grep --sleds` / `wc --sleds` / `find -latency` over it, and then asks
//! the trace three questions:
//!
//! * what happened? — Chrome `trace_event` JSON (`results/TRACE_grep.json`,
//!   load it in `chrome://tracing` or Perfetto) plus a folded-stack summary
//!   (`results/TRACE_flame.folded`, feed it to any flamegraph renderer);
//! * how much of it? — per-layer counters and latency histograms via the
//!   `FSLEDS_STAT` metrics snapshot;
//! * were the predictions right? — the accuracy audit pairs every
//!   `sleds_total_delivery_time` estimate with the traced actual virtual
//!   delivery time and reports per-device-class error distributions to
//!   `results/AUDIT_accuracy.json`.
//!
//! ```text
//! cargo run --release --example trace_viewer
//! ```

use sleds_repro::apps::find::{find, FindOptions};
use sleds_repro::apps::grep::{grep, GrepOptions};
use sleds_repro::apps::wc::wc;
use sleds_repro::fs::OpenFlags;
use sleds_repro::lmbench::fill_table;
use sleds_repro::replay::build_kernel;
use sleds_repro::scenarios;
use sleds_repro::sim_core::{DetRng, PAGE_SIZE};
use sleds_repro::sleds::LatencyPredicate;
use sleds_repro::textmatch::Regex;
use sleds_repro::trace::{audit_accuracy, chrome_trace_json, folded_stacks};

/// Deterministic text with enough newlines and words to exercise grep/wc.
fn random_text(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        match rng.range_u64(0, 12) {
            0 => out.extend_from_slice(b"\n"),
            1 => out.extend_from_slice(b"needle "),
            2 | 3 => out.push(b' '),
            _ => out.push(b'a' + rng.range_u64(0, 26) as u8),
        }
    }
    out.truncate(n);
    out
}

fn main() {
    // One machine, four storage levels, calibrated before the corpus goes
    // in: the probes move each mount's allocator.
    let dirs = ["/data", "/cdrom", "/nfs", "/hsm"];
    let mut k = build_kernel(&scenarios::four_levels(0, 0)).expect("build kernel");
    let mounts = dirs.map(|dir| (dir, k.find_mount(dir).expect("mount")));
    let table = fill_table(&mut k, &mounts).expect("lmbench calibration");

    let text = random_text(96 * PAGE_SIZE as usize, 7);
    for dir in dirs {
        k.install_file(&format!("{dir}/corpus.txt"), &text)
            .expect("install");
    }
    k.hsm_migrate("/hsm/corpus.txt", true).expect("migrate");
    // Warm a middle slice of the disk copy so the pick order is genuinely
    // scrambled and the cache layer has hits to report.
    let fd = k.open("/data/corpus.txt", OpenFlags::RDONLY).expect("open");
    k.lseek(fd, 24 * PAGE_SIZE as i64, sleds_repro::fs::Whence::Set)
        .expect("lseek");
    k.read(fd, 16 * PAGE_SIZE as usize).expect("warm");
    k.close(fd).expect("close");

    // Everything from here on is observed. The tracer never advances the
    // virtual clock, so these runs cost exactly what untraced runs would.
    k.enable_tracing_with_capacity(1 << 17);

    let re = Regex::new("needle").expect("regex");
    for path in ["/data/corpus.txt", "/cdrom/corpus.txt", "/nfs/corpus.txt"] {
        let hits = grep(&mut k, path, &re, &GrepOptions::default(), Some(&table)).expect("grep");
        println!("grep --sleds {path}: {} matches", hits.matches.len());
    }
    let counts = wc(&mut k, "/data/corpus.txt", Some(&table)).expect("wc");
    println!(
        "wc --sleds /data/corpus.txt: {} lines, {} words, {} bytes",
        counts.lines, counts.words, counts.bytes
    );
    // `find -latency` estimates every file, including the tape-resident
    // one, but prunes it without reading — the audit reports it as an
    // unread prediction.
    let cheap = find(
        &mut k,
        "/",
        &FindOptions {
            latency: Some(LatencyPredicate::parse("-60").expect("pred")),
            ..Default::default()
        },
        Some(&table),
    )
    .expect("find");
    println!(
        "find / -latency -60: {} of 4 copies retrievable in under a minute",
        cheap.len()
    );
    // Read the tape copy too so the tape class shows up in the audit with
    // an actual delivery time.
    let tape_hits = grep(
        &mut k,
        "/hsm/corpus.txt",
        &re,
        &GrepOptions::default(),
        Some(&table),
    )
    .expect("grep hsm");
    println!(
        "grep --sleds /hsm/corpus.txt: {} matches (staged from tape)",
        tape_hits.matches.len()
    );

    let events = k.trace_events();
    let dropped = k.trace_dropped();
    let metrics = k.metrics().cloned().expect("tracing is on");
    k.disable_tracing();

    println!(
        "\ntraced {} events ({} dropped), {} resident pages ({} dirty)\n",
        events.len(),
        dropped,
        k.cache_resident_pages(),
        k.cache_dirty_pages(),
    );
    println!("{}", metrics.render_text());

    let dir = sleds_repro::results_dir();
    std::fs::create_dir_all(&dir).expect("mkdir results");

    let chrome = chrome_trace_json(&events, dropped);
    assert_eq!(
        chrome.matches('{').count(),
        chrome.matches('}').count(),
        "exported JSON must be balanced"
    );
    let chrome_path = dir.join("TRACE_grep.json");
    std::fs::write(&chrome_path, &chrome).expect("write chrome trace");
    println!("-> {}", chrome_path.display());

    let folded = folded_stacks(&events);
    let folded_path = dir.join("TRACE_flame.folded");
    std::fs::write(&folded_path, &folded).expect("write folded stacks");
    println!("-> {}", folded_path.display());

    let audit = audit_accuracy(&events);
    assert!(
        !audit.samples.is_empty(),
        "the workload must produce audited predictions"
    );
    assert!(
        audit.classes.len() >= 2,
        "expected several device classes in the audit, got {}",
        audit.classes.len()
    );
    println!("\n{}", audit.render_text());
    let audit_path = dir.join("AUDIT_accuracy.json");
    std::fs::write(
        &audit_path,
        audit.to_json("cargo run --release --example trace_viewer"),
    )
    .expect("write audit");
    println!("-> {}", audit_path.display());
}
