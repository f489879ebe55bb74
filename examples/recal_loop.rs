//! Close the loop: run, audit, recalibrate from what was observed, re-run.
//!
//! The paper fills the sleds table once at boot from lmbench-style probes
//! and acknowledges the numbers drift from what the devices actually
//! deliver. This example demonstrates the repair: a traced workload over
//! four storage levels (disk, CD-ROM, NFS, HSM-with-tape) produces
//! per-class first-byte and effective-bandwidth observations; `FSLEDS_RECAL`
//! rebuilds the table from them; the same workload re-runs under the
//! refreshed table; and the prediction-accuracy audit compares the error
//! per device class before and after. The loop only counts as closed if
//! the post-recalibration error is strictly lower for every class the
//! workload exercised — the example asserts exactly that, and writes the
//! before/after table to `results/AUDIT_recal.json`.
//!
//! ```text
//! cargo run --release --example recal_loop
//! ```

use sleds_repro::fs::{Kernel, OpenFlags};
use sleds_repro::lmbench::fill_table;
use sleds_repro::replay::build_kernel;
use sleds_repro::scenarios;
use sleds_repro::sim_core::PAGE_SIZE;
use sleds_repro::sleds::{recalibrate, total_delivery_time, AttackPlan, SledsTable};
use sleds_repro::trace::{audit_accuracy, summarize_class, AccuracySample, ClassAccuracy};

/// Files per storage level — at least three, so every exercised class
/// clears the recalibrator's sample floor.
const FILES_PER_MOUNT: usize = 3;
const PAGES_PER_FILE: usize = 12;

/// The four storage levels' mount points.
const DIRS: [&str; 4] = ["/data", "/cdrom", "/nfs", "/hsm"];

/// Every file the workload reads, in a fixed order.
fn corpus() -> Vec<String> {
    let mut paths = Vec::new();
    for dir in DIRS {
        for i in 0..FILES_PER_MOUNT {
            paths.push(format!("{dir}/f{i}"));
        }
    }
    paths
}

/// One pass over the corpus: estimate (emitting a `sleds.predict` marker
/// tagged with the table's generation when tracing is on), then read the
/// whole file linearly, then close.
fn run_pass(k: &mut Kernel, table: &SledsTable) {
    let bytes = PAGES_PER_FILE * PAGE_SIZE as usize;
    for path in corpus() {
        let fd = k.open(&path, OpenFlags::RDONLY).expect("open");
        total_delivery_time(k, table, fd, AttackPlan::Linear).expect("estimate");
        k.read(fd, bytes).expect("read");
        k.close(fd).expect("close");
    }
}

/// Returns the machine to the same cold-client state both passes start
/// from: client cache empty, HSM files back on tape. Server-side state
/// (NFS server cache, tape mount, head/sled positions) deliberately
/// persists — the warmup pass set it, so both measured passes see it.
fn reset_client_state(k: &mut Kernel) {
    k.drop_caches().expect("drop_caches");
    for i in 0..FILES_PER_MOUNT {
        k.hsm_migrate(&format!("/hsm/f{i}"), true).expect("migrate");
    }
}

/// Per-class accuracy rows for the samples tagged with one generation.
fn classes_at(samples: &[AccuracySample], generation: u64) -> Vec<ClassAccuracy> {
    let mut out = Vec::new();
    for class in 0..5u64 {
        let subset: Vec<AccuracySample> = samples
            .iter()
            .filter(|s| s.generation == generation && s.class == class)
            .copied()
            .collect();
        if let Some(c) = summarize_class(class, &subset) {
            out.push(c);
        }
    }
    out
}

fn main() {
    let spec = scenarios::four_levels(FILES_PER_MOUNT, PAGES_PER_FILE);
    let mut k = build_kernel(&spec).expect("build kernel");

    // Boot-time table: lmbench-style probes, generation 0.
    let mounts = DIRS.map(|dir| (dir, k.find_mount(dir).expect("mount")));
    let table = fill_table(&mut k, &mounts).expect("lmbench calibration");
    assert_eq!(table.generation(), 0);

    // Untraced warmup: one full pass so slow-moving device state (NFS
    // server cache, tape mount, head positions) reaches its steady state.
    // Both measured passes then start from the same conditions, which is
    // what makes their error distributions comparable.
    run_pass(&mut k, &table);
    reset_client_state(&mut k);

    k.enable_tracing_with_capacity(1 << 17);

    // Pass 1: predictions priced from the boot-time table (generation 0).
    run_pass(&mut k, &table);

    // Recalibrate: FSLEDS_RECAL bumps the kernel's sleds epoch, fences the
    // audit, and returns the metrics snapshot the new table is a pure
    // function of.
    let fd = k.open("/data/f0", OpenFlags::RDONLY).expect("open");
    let outcome = recalibrate(&mut k, &table, fd).expect("recal");
    k.close(fd).expect("close");
    println!(
        "recalibrated {} device rows ({} skipped for lack of samples):",
        outcome.refreshed.len(),
        outcome.skipped.len()
    );
    for o in &outcome.refreshed {
        println!(
            "  dev{} class {}: latency {:.6}s bandwidth {:.0} B/s ({} samples)",
            o.dev.0, o.class, o.latency, o.bandwidth, o.samples
        );
    }
    let table_recal = outcome.table;
    assert_eq!(table_recal.generation(), 1);
    assert!(
        !outcome.refreshed.is_empty(),
        "the workload must refresh at least one device row"
    );

    // Pass 2: same workload, same starting state, predictions priced from
    // the refreshed table (generation 1).
    reset_client_state(&mut k);
    run_pass(&mut k, &table_recal);

    let events = k.trace_events();
    let audit = audit_accuracy(&events);
    k.disable_tracing();
    assert_eq!(
        audit.cross_generation, 0,
        "every prediction must pair with reads under its own generation"
    );

    let before = classes_at(&audit.samples, 0);
    let after = classes_at(&audit.samples, 1);
    assert!(
        !before.is_empty() && before.len() == after.len(),
        "both passes must exercise the same classes"
    );

    println!("\nprediction error by class (mean |predicted-actual|/actual):");
    let mut rows = String::new();
    for (b, a) in before.iter().zip(after.iter()) {
        assert_eq!(b.class, a.class, "phase class sets must line up");
        println!(
            "  {:>8}: before {:.4} (n={})  after {:.4} (n={})",
            b.label, b.mean_abs_rel_err, b.n, a.mean_abs_rel_err, a.n
        );
        assert!(
            a.mean_abs_rel_err < b.mean_abs_rel_err,
            "{}: recalibration must strictly reduce mean error ({:.4} -> {:.4})",
            b.label,
            b.mean_abs_rel_err,
            a.mean_abs_rel_err
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"class\": \"{}\", \"n_before\": {}, \"err_before\": {:.4}, \"n_after\": {}, \"err_after\": {:.4}}}",
            b.label, b.n, b.mean_abs_rel_err, a.n, a.mean_abs_rel_err
        ));
    }

    // House results-JSON style: hand-rolled, fixed precision, so identical
    // runs serialize identically and check.sh can diff against the
    // committed copy as an accuracy-regression gate.
    let json = format!(
        "{{\n  \"audit\": \"recalibration loop: prediction error before vs after FSLEDS_RECAL\",\n  \"regenerate\": \"cargo run --release --example recal_loop\",\n  \"units\": {{\"errors\": \"mean |predicted-actual|/actual\"}},\n  \"generation_before\": 0,\n  \"generation_after\": 1,\n  \"refreshed_devices\": {},\n  \"skipped_devices\": {},\n  \"classes\": [\n{}\n  ]\n}}\n",
        outcome.refreshed.len(),
        outcome.skipped.len(),
        rows
    );
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    let dir = sleds_repro::results_dir();
    std::fs::create_dir_all(&dir).expect("mkdir results");
    let path = dir.join("AUDIT_recal.json");
    std::fs::write(&path, &json).expect("write audit");
    println!("-> {}", path.display());
}
