//! Redundancy under a seeded fault storm: availability, tail latency, and
//! the price of redundant work, written to `results/REDUNDANCY_report.json`
//! (diff-gated).
//!
//! One storm — a seeded mix of transient/degraded/offline windows on the
//! device named `primary`, plus one explicit 8x-degraded window and one
//! explicit offline window — is driven against four configurations of the
//! same workload:
//!
//! * `flat` — an unreplicated disk: the baseline that *shows* the storm
//!   (reads inside offline windows fail with I/O errors);
//! * `mirror-retry` — a two-way mirror with hedging disabled: the outage
//!   is masked (offline primary reroutes, zero app errors) but degraded
//!   windows are served at degraded speed;
//! * `mirror-hedged` — the same mirror with the default hedge policy:
//!   a degraded pick triggers a redundant request priced by live fault
//!   epochs, the predicted loser is cancelled and charged exactly
//!   `cancel_cost`, and the faulted-window tail collapses;
//! * `coded` — a (2, 3) erasure code across the disk and two geo NFS
//!   links: every read needs any 2 of 3 fragments, so the storm on the
//!   primary never surfaces and redundant bytes stay near zero.
//!
//! Asserted here (not just reported): mirrored and coded configurations
//! complete 100% of reads with zero app-visible errors under the same
//! storm that fails the flat baseline; hedging strictly improves the p99
//! of reads issued inside fault windows over retry-only; hedge accounting
//! is exact (`hedge_wait == hedges x cancel_cost`); per-tenant rusage
//! rows sum exactly to the global counters and each tenant's elapsed
//! virtual time is exactly `cpu + io_wait`; and the whole run replays
//! byte-identically from the same seed.
//!
//! ```text
//! cargo run --release --example redundancy_report
//! ```

use sleds_repro::devices::{FaultPlan, FaultState};
use sleds_repro::fs::{HedgePolicy, OpenFlags, Rusage, TenantId, VolumeLayout};
use sleds_repro::replay::{build_kernel, WorkloadSpec};
use sleds_repro::scenarios;
use sleds_repro::sim_core::stats::Ecdf;
use sleds_repro::sim_core::{SimDuration, SimTime, PAGE_SIZE, SECTOR_SIZE};

const STORM_SEED: u64 = 0x5EED5;
const FILES: usize = 6;
const PAGES: usize = 6;
const PASSES: usize = 12;
const THINK_SECS: u64 = 2;

fn secs(s: u64) -> SimTime {
    SimTime::from_nanos(s * 1_000_000_000)
}

/// The one storm every configuration faces: 60 s of seeded mixed windows
/// on `primary`, then an explicit 8x-degraded window (60–90 s) and an
/// explicit offline window (95–120 s), so both behaviors are exercised
/// for every seed.
fn storm() -> FaultPlan {
    FaultPlan::seeded_storm(STORM_SEED, &["primary"], SimDuration::from_secs(60))
        .degraded("primary", secs(60), secs(90), 8.0)
        .offline("primary", secs(95), secs(120), SimDuration::from_millis(1))
}

#[derive(Clone, Copy, PartialEq)]
enum Config {
    Flat,
    Mirror,
    Coded,
}

impl Config {
    fn layout(&self) -> &'static str {
        match self {
            Config::Flat => "single disk",
            Config::Mirror => "mirrored x2 (disk + disk)",
            Config::Coded => "coded (2,3) (disk + nfs-metro + nfs-regional)",
        }
    }
}

/// Everything one configuration's run produces.
struct Outcome {
    reads_total: u64,
    reads_ok: u64,
    reads_err: u64,
    all_ns: Vec<u64>,
    faulted_ns: Vec<u64>,
    usage: Rusage,
    redundant_bytes: u64,
    virtual_ns: u64,
}

/// Nearest-rank percentile of a set of nanosecond latencies; 0 for none.
fn percentile(samples: &[u64], q: f64) -> u64 {
    let ns: Vec<f64> = samples.iter().map(|&n| n as f64).collect();
    Ecdf::of(&ns).map_or(0, |e| e.quantile(q) as u64)
}

/// Drives the workload through the storm on one configuration. Two
/// tenants alternate reads so the attribution law has cross-tenant rows
/// to sum; pacing (2 s of think time per read) marches the virtual clock
/// through every storm window.
fn run_config(cfg: Config, hedged: bool) -> Outcome {
    let primary = ("table2_disk", "primary");
    let machine = match cfg {
        Config::Flat => scenarios::disks(&[("/vol", "primary")], FILES, PAGES),
        Config::Mirror => {
            let members = [primary, ("table2_disk", "replica1")];
            scenarios::volume(VolumeLayout::Mirrored, &members, FILES, PAGES)
        }
        Config::Coded => {
            let members = [
                primary,
                ("nfs_metro", "replica1"),
                ("nfs_regional", "replica2"),
            ];
            scenarios::volume(VolumeLayout::Coded { k: 2 }, &members, FILES, PAGES)
        }
    };
    let spec = WorkloadSpec {
        fault_plan: storm(),
        hedge: if hedged {
            HedgePolicy::default()
        } else {
            HedgePolicy::disabled()
        },
        ..machine
    };
    let mut k = build_kernel(&spec).expect("build kernel");
    // A volume's members, or the one disk of the flat mount.
    let m = k.find_mount("/vol").expect("mount");
    let mut members = k.volume_members(m);
    if members.is_empty() {
        members.extend(k.device_of_mount(m));
    }
    let bytes = PAGES * PAGE_SIZE as usize;

    let tenants: Vec<TenantId> = (0..2)
        .map(|t| k.tenant_register(&format!("tenant-{t}")))
        .collect();
    let mut out = Outcome {
        reads_total: 0,
        reads_ok: 0,
        reads_err: 0,
        all_ns: Vec::new(),
        faulted_ns: Vec::new(),
        usage: Rusage::default(),
        redundant_bytes: 0,
        virtual_ns: 0,
    };
    for _pass in 0..PASSES {
        for i in 0..FILES {
            k.tenant_switch(tenants[i % tenants.len()]).expect("switch");
            let in_fault = members
                .iter()
                .any(|&d| !matches!(k.device_fault_state(d), Some(FaultState::Healthy) | None));
            let fd = k
                .open(&format!("/vol/f{i}"), OpenFlags::RDONLY)
                .expect("open");
            let t0 = k.now();
            let res = k.read(fd, bytes);
            let took = (k.now() - t0).as_nanos();
            k.close(fd).expect("close");
            out.reads_total += 1;
            match res {
                Ok(data) => {
                    assert!(data.iter().all(|&b| b == i as u8), "data survived intact");
                    out.reads_ok += 1;
                }
                Err(_) => out.reads_err += 1,
            }
            out.all_ns.push(took);
            if in_fault {
                out.faulted_ns.push(took);
            }
            // Think time: the pacing that walks the clock through the
            // storm's windows (12 passes x 6 reads x 2 s spans ~144 s,
            // past the last explicit window).
            k.charge_cpu(SimDuration::from_secs(THINK_SECS));
        }
        k.tenant_switch(TenantId(0)).expect("switch");
        k.drop_caches().expect("drop_caches");
    }

    // The attribution law, per tenant and in aggregate: rows sum exactly
    // to the global counters, and each tenant's elapsed virtual time is
    // exactly its cpu + io_wait (hedge cancels included — a cancelled
    // loser charges its waiter, nobody else).
    let mut total = Rusage::default();
    for t in 0..k.tenant_count() {
        let id = TenantId(t as u64);
        let u = k.tenant_usage(id).expect("tenant usage");
        let elapsed = k.tenant_elapsed(id).expect("tenant elapsed");
        assert_eq!(
            elapsed,
            u.cpu + u.io_wait,
            "tenant {t}: elapsed must equal cpu + io_wait exactly"
        );
        total.accumulate(&u);
        // Tenant timelines are concurrent (the kernel clock rewinds on a
        // switch), so the run's virtual extent is the sum of per-tenant
        // elapsed time, not the final clock reading.
        out.virtual_ns += elapsed.as_nanos();
    }
    out.usage = k.usage();
    assert_eq!(
        total, out.usage,
        "per-tenant rusage rows must sum exactly to the global counters"
    );
    assert_eq!(
        out.usage.hedge_wait.as_nanos(),
        out.usage.hedges * k.hedge_policy().cancel_cost.as_nanos(),
        "hedge overhead is exactly one cancel charge per loser"
    );

    // Redundant work in bytes: everything the members moved beyond what
    // the application was actually delivered.
    let moved: u64 = members
        .iter()
        .map(|&d| k.device_stats(d).expect("stats").sectors_read * SECTOR_SIZE)
        .sum();
    out.redundant_bytes = moved.saturating_sub(out.reads_ok * bytes as u64);
    out
}

fn volume_json(name: &str, layout: &str, o: &Outcome) -> String {
    format!(
        "    {{\"name\": \"{name}\", \"layout\": \"{layout}\", \
         \"reads_total\": {}, \"reads_ok\": {}, \"reads_err\": {}, \
         \"availability\": {:.4},\n     \
         \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {},\n     \
         \"faulted\": {{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}},\n     \
         \"hedges\": {}, \"hedge_wins\": {}, \"hedge_losses\": {}, \"hedge_wait_ns\": {}, \
         \"io_retries\": {}, \"redundant_bytes\": {}}}",
        o.reads_total,
        o.reads_ok,
        o.reads_err,
        o.reads_ok as f64 / o.reads_total as f64,
        percentile(&o.all_ns, 0.50),
        percentile(&o.all_ns, 0.99),
        percentile(&o.all_ns, 0.999),
        o.faulted_ns.len(),
        percentile(&o.faulted_ns, 0.50),
        percentile(&o.faulted_ns, 0.99),
        percentile(&o.faulted_ns, 0.999),
        o.usage.hedges,
        o.usage.hedge_wins,
        o.usage.hedges - o.usage.hedge_wins,
        o.usage.hedge_wait.as_nanos(),
        o.usage.io_retries,
        o.redundant_bytes,
    )
}

fn main() {
    let flat = run_config(Config::Flat, false);
    let retry = run_config(Config::Mirror, false);
    let hedged = run_config(Config::Mirror, true);
    let coded = run_config(Config::Coded, true);

    // Determinism: the hedged run is a pure function of the seed.
    let again = run_config(Config::Mirror, true);
    assert_eq!(hedged.all_ns, again.all_ns, "latencies must replay");
    assert_eq!(hedged.usage, again.usage, "usage must replay");
    assert_eq!(hedged.virtual_ns, again.virtual_ns, "clock must replay");

    // The storm is real: the unreplicated baseline loses reads in the
    // offline window. Redundancy masks it completely.
    assert!(flat.reads_err > 0, "the flat baseline must show the outage");
    for (name, o) in [
        ("mirror-retry", &retry),
        ("mirror-hedged", &hedged),
        ("coded", &coded),
    ] {
        assert_eq!(
            o.reads_ok, o.reads_total,
            "{name}: redundancy must complete 100% of reads with no Eio"
        );
    }

    // Hedging collapses the faulted-window tail relative to retry-only.
    let p99_retry = percentile(&retry.faulted_ns, 0.99);
    let p99_hedged = percentile(&hedged.faulted_ns, 0.99);
    assert!(
        (p99_hedged as f64) < 0.8 * p99_retry as f64,
        "hedged p99 during fault windows ({p99_hedged} ns) must beat retry-only ({p99_retry} ns)"
    );
    assert!(hedged.usage.hedges > 0, "the storm must trigger hedges");
    assert!(hedged.usage.hedge_wins > 0, "some hedges must win");
    assert_eq!(retry.usage.hedges, 0, "retry-only never hedges");

    let speedup = p99_retry as f64 / p99_hedged as f64;
    println!(
        "storm {STORM_SEED:#x}: flat {}/{} ok; mirror-retry p99(faulted) {p99_retry} ns; \
         mirror-hedged p99(faulted) {p99_hedged} ns ({speedup:.2}x); \
         coded {}/{} ok, {} redundant bytes",
        flat.reads_ok, flat.reads_total, coded.reads_ok, coded.reads_total, coded.redundant_bytes
    );
    println!(
        "hedges: {} issued, {} won, {} lost, {} ns cancel overhead",
        hedged.usage.hedges,
        hedged.usage.hedge_wins,
        hedged.usage.hedges - hedged.usage.hedge_wins,
        hedged.usage.hedge_wait.as_nanos()
    );

    // The four runs' virtual extent: every tenant's elapsed time, summed.
    let virtual_ns: u64 = flat.virtual_ns + retry.virtual_ns + hedged.virtual_ns + coded.virtual_ns;

    // House results-JSON style: hand-rolled, fixed precision, virtual
    // quantities only, so identical runs serialize identically and
    // check.sh can diff against the committed copy.
    let json = format!(
        "{{\n  \"audit\": \"redundant volumes under a seeded fault storm: availability, \
         faulted-window tails, hedge accounting, redundant work\",\n  \
         \"regenerate\": \"cargo run --release --example redundancy_report\",\n  \
         \"storm\": {{\"seed\": {STORM_SEED}, \"seeded_horizon_s\": 60, \
         \"explicit_degraded_s\": [60, 90], \"explicit_offline_s\": [95, 120]}},\n  \
         \"workload\": {{\"files\": {FILES}, \"pages_per_file\": {PAGES}, \
         \"passes\": {PASSES}, \"tenants\": 2}},\n  \
         \"virtual_ns\": {virtual_ns},\n  \
         \"volumes\": [\n{},\n{},\n{},\n{}\n  ],\n  \
         \"hedge_gain\": {{\"p99_faulted_retry_ns\": {p99_retry}, \
         \"p99_faulted_hedged_ns\": {p99_hedged}, \"speedup\": {speedup:.2}}},\n  \
         \"attribution\": {{\"tenants_sum_to_global\": true, \
         \"elapsed_equals_cpu_plus_io_wait\": true}}\n}}\n",
        volume_json("flat", Config::Flat.layout(), &flat),
        volume_json("mirror-retry", Config::Mirror.layout(), &retry),
        volume_json("mirror-hedged", Config::Mirror.layout(), &hedged),
        volume_json("coded", Config::Coded.layout(), &coded),
    );
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    let dir = sleds_repro::results_dir();
    std::fs::create_dir_all(&dir).expect("mkdir results");
    let path = dir.join("REDUNDANCY_report.json");
    std::fs::write(&path, &json).expect("write report");
    println!("-> {}", path.display());
}
