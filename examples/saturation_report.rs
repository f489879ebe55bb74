//! Multi-tenant saturation observatory: hundreds of tenants interleaved on
//! shared disk, NFS, and tape, with per-tenant latency attribution and
//! bully identification.
//!
//! The driver is the deterministic virtual-clock submitter from
//! `sim-core`: every tenant is a lane with a ready time on its own
//! timeline, the earliest lane runs next, and each request is one cold
//! `pread` against the tenant's own sparse file — so every request is
//! real device traffic and the whole interleave replays byte-identically.
//!
//! Four properties, asserted and summarized in
//! `results/SATURATION_report.json`:
//!
//! 1. **Determinism** — the full interleave (hundreds of tenants, three
//!    device classes) rerun from scratch produces a byte-identical report.
//! 2. **Exact attribution** — per tenant, own-service + queue-wait equals
//!    the observed device time, cross-tenant waits sum to the total queue
//!    wait, and per-tenant rusage rows sum to the global counters.
//! 3. **Bully identification** — the two bulk tenants hammering the disk
//!    with zero think time are flagged as bullies on a saturated device;
//!    the light tenants are not.
//! 4. **Zero-cost observer** — the traced run (which also exports a
//!    tenant-lane Chrome trace) produces the same report as the untraced
//!    run.
//!
//! ```text
//! cargo run --release --example saturation_report
//! ```

use sleds_repro::devices::{DiskDevice, NfsDevice, TapeDevice};
use sleds_repro::fs::{Fd, Kernel, OpenFlags, Rusage, SaturationReport, TenantId};
use sleds_repro::sim_core::{SimDuration, VirtualSubmitter};
use sleds_repro::trace::chrome_trace_json_named;

fn fold(checksum: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(checksum, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64))
}

/// One tenant's request stream: `requests` cold preads of `req_bytes`,
/// marching through its own sparse file, with `think` between requests.
struct TenantSpec {
    id: TenantId,
    fd: Fd,
    req_bytes: usize,
    requests: u64,
    issued: u64,
    offset: u64,
    think: SimDuration,
}

const BULLIES: usize = 2;
const LIGHT_DISK: usize = 192;
const NFS_TENANTS: usize = 20;
const TAPE_TENANTS: usize = 6;

/// Builds the machine and tenant population, runs the interleave to
/// completion, and returns the report plus replay signature.
fn run(traced: bool) -> (SaturationReport, Rusage, Vec<Rusage>, u64, Kernel) {
    let mut k = Kernel::table2();
    if traced {
        k.enable_tracing_with_capacity(1 << 13);
    }
    for dir in ["/disk", "/nfs", "/hsm"] {
        k.mkdir(dir).expect("mkdir");
    }
    k.mount_disk("/disk", DiskDevice::table2_disk("hda"))
        .expect("mount disk");
    k.mount_nfs("/nfs", NfsDevice::table2_mount("nfs0"))
        .expect("mount nfs");
    k.mount_hsm(
        "/hsm",
        DiskDevice::table2_disk("hdb"),
        Box::new(TapeDevice::dlt("tape0")),
        16,
    )
    .expect("mount hsm");

    // Population: 2 bulk tenants that hammer the disk with zero think
    // time, a crowd of light disk tenants, an NFS group, and a tape group
    // whose reads stage chunks back through the HSM.
    let mut specs: Vec<TenantSpec> = Vec::new();
    let mut plan: Vec<(String, String, u64, usize, u64, SimDuration)> = Vec::new();
    for b in 0..BULLIES {
        plan.push((
            format!("bulk-{b}"),
            format!("/disk/bulk{b}"),
            128 << 20,
            2 << 20,
            48,
            SimDuration::ZERO,
        ));
    }
    for i in 0..LIGHT_DISK {
        plan.push((
            format!("web-{i}"),
            format!("/disk/web{i}"),
            1 << 20,
            16 << 10,
            4,
            SimDuration::from_millis(1 + (i as u64 % 17)),
        ));
    }
    for i in 0..NFS_TENANTS {
        plan.push((
            format!("nfs-{i}"),
            format!("/nfs/client{i}"),
            1 << 20,
            16 << 10,
            6,
            SimDuration::from_millis(1 + (i as u64 % 5)),
        ));
    }
    for i in 0..TAPE_TENANTS {
        plan.push((
            format!("archive-{i}"),
            format!("/hsm/vault{i}"),
            1 << 20,
            64 << 10,
            2,
            SimDuration::from_millis(2),
        ));
    }
    for (_, path, size, ..) in &plan {
        k.install_sparse_file(path, *size).expect("install");
        if path.starts_with("/hsm/") {
            k.hsm_migrate(path, true).expect("migrate to tape");
        }
    }
    k.drop_caches().expect("drop_caches");

    // Register tenants and open each one's file on its own timeline.
    let mut sub = VirtualSubmitter::new();
    for (name, path, _, req_bytes, requests, think) in &plan {
        let id = k.tenant_register(name);
        k.tenant_switch(id).expect("switch");
        let fd = k.open(path, OpenFlags::RDONLY).expect("open");
        let lane = sub.add(k.now());
        assert_eq!(lane, specs.len(), "lanes mirror the spec order");
        specs.push(TenantSpec {
            id,
            fd,
            req_bytes: *req_bytes,
            requests: *requests,
            issued: 0,
            offset: 0,
            think: *think,
        });
    }

    // The interleave: always run the lane whose ready time is earliest.
    let mut checksum = 0u64;
    while let Some(lane) = sub.next() {
        let ready = sub.ready_at(lane).expect("live lane");
        let spec = &mut specs[lane];
        k.tenant_switch(spec.id).expect("switch");
        let now = k.now();
        if ready > now {
            // Think time: the tenant computes until its next request.
            k.charge_cpu(ready.duration_since(now));
        }
        let data = k
            .pread(spec.fd, spec.offset, spec.req_bytes)
            .expect("pread");
        // The replay signature folds in contents *and* the virtual clock
        // after every request, so any divergence in the schedule — not
        // just in bytes — breaks the checksum.
        checksum = fold(checksum, &data);
        checksum = fold(checksum, &k.now().as_nanos().to_le_bytes());
        checksum = fold(checksum, &(lane as u64).to_le_bytes());
        spec.issued += 1;
        spec.offset += spec.req_bytes as u64;
        if spec.issued == spec.requests {
            k.close(spec.fd).expect("close");
            sub.finish(lane);
        } else {
            sub.reschedule(lane, k.now() + spec.think);
        }
    }
    k.tenant_switch(TenantId(0)).expect("switch back");

    let per: Vec<Rusage> = (0..k.tenant_count())
        .map(|i| k.tenant_usage(TenantId(i as u64)).expect("usage"))
        .collect();
    let report = k.saturation_report();
    (report, k.usage(), per, checksum, k)
}

/// Property 2: the attribution identities hold exactly, not approximately.
fn assert_exact(report: &SaturationReport, global: &Rusage, per: &[Rusage]) {
    let mut sum = Rusage::default();
    for u in per {
        sum.accumulate(u);
    }
    assert_eq!(
        &sum, global,
        "per-tenant rusage rows must sum exactly to the global counters"
    );
    // Own service + queue wait == observed, and a device's shares sum to
    // its totals, hold by construction (one `CostRow` each); the wait
    // attribution is the identity left to check.
    for t in &report.tenants {
        let waited: u64 = t.waited_on.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(
            waited, t.queue_wait_ns,
            "tenant {}: cross-tenant waits must sum to its queue wait",
            t.name
        );
    }
}

fn latency_json(s: &sleds_repro::fs::LatencySummary) -> String {
    format!(
        "{{\"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
        s.p50_ns, s.p90_ns, s.p99_ns, s.p999_ns
    )
}

fn render_report_json(report: &SaturationReport, checksum: u64, tenant_count: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"audit\": \"multi-tenant saturation: queue telemetry, latency attribution, bullies\",\n",
    );
    out.push_str("  \"regenerate\": \"cargo run --release --example saturation_report\",\n");
    out.push_str(&format!("  \"tenants\": {tenant_count},\n"));
    out.push_str(&format!("  \"checksum\": \"{checksum:#018x}\",\n"));
    out.push_str("  \"devices\": [\n");
    for (i, d) in report.devices.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"class\": {}, \"window_ns\": {}, \"busy_ns\": {}, \
             \"queue_wait_ns\": {}, \"utilization_ppm\": {}, \"commands\": {}, \"bytes\": {}, \
             \"throughput_bytes_per_sec\": {}, \"depth_high_water\": {}, \"saturated\": {}, \
             \"service_latency\": {}, \"queue_wait_latency\": {}, \
             \"top_shares\": [",
            d.name,
            d.class_code,
            d.window_ns,
            d.cost.service_ns,
            d.cost.queue_wait_ns,
            d.utilization_ppm,
            d.cost.commands,
            d.cost.bytes,
            d.throughput_bytes_per_sec,
            d.depth_high_water,
            d.saturated,
            latency_json(&d.service_latency),
            latency_json(&d.queue_wait_latency),
        ));
        // Top demand shares, descending, ties broken by tenant id.
        let mut shares = d.shares.clone();
        shares.sort_by(|a, b| {
            b.demand_share_ppm
                .cmp(&a.demand_share_ppm)
                .then(a.tenant.cmp(&b.tenant))
        });
        for (j, s) in shares.iter().take(4).enumerate() {
            let name = report
                .tenants
                .iter()
                .find(|t| t.tenant == s.tenant)
                .map_or("?", |t| t.name.as_str());
            out.push_str(&format!(
                "{}{{\"tenant\": \"{}\", \"share_ppm\": {}, \"bully\": {}}}",
                if j > 0 { ", " } else { "" },
                name,
                s.demand_share_ppm,
                s.bully,
            ));
        }
        out.push_str(&format!(
            "]}}{}\n",
            if i + 1 < report.devices.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    let bully_names: Vec<&str> = report
        .bullies()
        .into_iter()
        .filter_map(|id| report.tenants.iter().find(|t| t.tenant == id))
        .map(|t| t.name.as_str())
        .collect();
    out.push_str(&format!(
        "  \"bullies\": [{}],\n",
        bully_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    // The tenants that paid the most queue wait, and who they paid it to.
    let mut victims: Vec<_> = report.tenants.iter().collect();
    victims.sort_by(|a, b| {
        b.queue_wait_ns
            .cmp(&a.queue_wait_ns)
            .then(a.tenant.cmp(&b.tenant))
    });
    out.push_str("  \"top_victims\": [\n");
    let top: Vec<_> = victims
        .iter()
        .filter(|t| t.queue_wait_ns > 0)
        .take(8)
        .collect();
    for (i, t) in top.iter().enumerate() {
        let offender = t
            .waited_on
            .first()
            .and_then(|&(owner, ns)| {
                report
                    .tenants
                    .iter()
                    .find(|o| o.tenant == owner)
                    .map(|o| (o.name.as_str(), ns))
            })
            .map_or("null".to_string(), |(name, ns)| {
                format!("{{\"tenant\": \"{name}\", \"behind_ns\": {ns}}}")
            });
        out.push_str(&format!(
            "    {{\"tenant\": \"{}\", \"own_service_ns\": {}, \"queue_wait_ns\": {}, \
             \"observed_ns\": {}, \"worst_offender\": {}}}{}\n",
            t.name,
            t.own_service_ns,
            t.queue_wait_ns,
            t.observed_ns,
            offender,
            if i + 1 < top.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    // Property 1: determinism — the full interleave reruns byte-identically.
    let (rep1, global1, per1, sum1, _) = run(false);
    let (rep2, global2, per2, sum2, _) = run(false);
    assert_eq!(sum1, sum2, "contents must replay identically");
    assert_eq!(global1, global2, "global usage must replay identically");
    assert_eq!(per1, per2, "per-tenant usage must replay identically");
    assert_eq!(rep1, rep2, "saturation report must replay identically");

    // Property 2: exact attribution.
    assert_exact(&rep1, &global1, &per1);

    // Property 3: heavy hitters — and only heavy hitters — are bullies.
    // The bulk tenants must be flagged on the shared disk; the archive
    // group may legitimately be flagged too (six tenants splitting a
    // saturated tape all hold large shares). No light tenant ever is.
    let bullies = rep1.bullies();
    assert!(!bullies.is_empty(), "the disk bullies must be flagged");
    let bully_names: Vec<&str> = bullies
        .iter()
        .filter_map(|id| rep1.tenants.iter().find(|t| t.tenant == *id))
        .map(|t| t.name.as_str())
        .collect();
    assert!(
        bully_names.iter().any(|n| n.starts_with("bulk-")),
        "the bulk tenants must be among the bullies, got {bully_names:?}"
    );
    for name in &bully_names {
        assert!(
            !name.starts_with("web-") && !name.starts_with("nfs-"),
            "light tenants must never be bullies, got {name}"
        );
    }
    let disk = rep1
        .devices
        .iter()
        .find(|d| d.name == "hda")
        .expect("disk row");
    assert!(disk.saturated, "the shared disk must be saturated");
    assert!(disk.depth_high_water > 0, "commands must have queued");

    // Property 4: zero-cost observer — the traced run matches, and exports
    // the tenant-lane Chrome trace.
    let (rep3, global3, per3, sum3, k) = run(true);
    assert_eq!(sum1, sum3, "tracing must not change contents");
    assert_eq!(global1, global3, "tracing must not change usage");
    assert_eq!(per1, per3, "tracing must not change per-tenant usage");
    assert_eq!(rep1, rep3, "tracing must not change the report");
    let chrome = chrome_trace_json_named(
        &k.trace_events(),
        k.trace_dropped(),
        k.trace_high_water(),
        &k.tenant_names(),
    );
    assert!(
        chrome.contains("\"process_name\""),
        "tenant lanes are named"
    );
    assert!(chrome.contains("bulk-0"), "bully lane is labeled");

    let tenant_count = rep1.tenants.len();
    let json = render_report_json(&rep1, sum1, tenant_count);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());

    println!(
        "{} tenants over {} devices; disk utilization {} ppm, {} bullies: {:?}",
        tenant_count,
        rep1.devices.len(),
        disk.utilization_ppm,
        bullies.len(),
        bullies
            .iter()
            .filter_map(|id| rep1.tenants.iter().find(|t| t.tenant == *id))
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
    );
    for d in &rep1.devices {
        println!(
            "  {}: util {} ppm, {} commands, wait {} ns, depth high-water {}, saturated {}",
            d.name,
            d.utilization_ppm,
            d.cost.commands,
            d.cost.queue_wait_ns,
            d.depth_high_water,
            d.saturated
        );
    }

    let dir = sleds_repro::results_dir();
    std::fs::create_dir_all(&dir).expect("mkdir results");
    let path = dir.join("SATURATION_report.json");
    std::fs::write(&path, &json).expect("write report");
    println!("-> {}", path.display());
    let trace_path = dir.join("TRACE_saturation.json");
    std::fs::write(&trace_path, &chrome).expect("write trace");
    println!("-> {}", trace_path.display());
}
