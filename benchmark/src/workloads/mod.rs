//! The four workloads and the plumbing they share: one repetition builds
//! its environment from the seed (`setup_s`), runs the measured phase
//! (`host_s`), reads every virtual counter the kernels kept, and — on the
//! traced repetition — probes single layers.

use sleds_devices::DeviceClass;
use sleds_fs::{DeviceId, JobReport, Kernel};
use sleds_sim_core::ByteSize;

use crate::metrics::{self, Buckets, Values};
use crate::spans::Recorder;

pub mod fits_rw;
pub mod scan_warm;
pub mod tenant_replay;
pub mod tree_walk;

pub const NAMES: [&str; 4] = ["scan_warm", "fits_rw", "tree_walk", "tenant_replay"];

/// Why each workload exists, one line each (also the `why` in
/// `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "scan_warm" => {
            "paper warm-cache text scans (wc, grep) on NFS, CD-ROM and ext2 at 2 MiB (fits the \
             10.5 MiB cache) and 12 MiB (spills it); op = MiB presented; read data path only"
        }
        "fits_rw" => {
            "fimhisto and fimgbin on 3 and 12 MiB FITS images on ext2; op = MiB of input; same \
             cache and disk layers, but with writes, dirty evictions and writeback"
        }
        "tree_walk" => {
            "find -latency and grep -q over a sparse 4 KiB-file tree, naive / ring-batched / \
             pushed-down; op = file presented to a mode; metadata path, almost no data moved"
        }
        "tenant_replay" => {
            "224 closed-loop tenants on shared disk, NFS, tape and a faulted mirror, then \
             capture, parse, identity and what-if replay; op = tenant request; queueing sets p99"
        }
        _ => "",
    }
}

/// What kind of repetition to run.
#[derive(Clone, Copy)]
pub struct RepCfg {
    pub seed: u64,
    /// Tiny sizes, for `run.sh --smoke`.
    pub smoke: bool,
    /// Arm the kernel's own observers (tracer + metrics) for the measured
    /// phase. They must not move any virtual figure.
    pub observe: bool,
}

/// One repetition's results.
#[derive(Default)]
pub struct Rep {
    pub setup_ns: u64,
    pub host_ns: u64,
    /// Units of work in the measured phase (the workload's op).
    pub ops: f64,
    /// Ops whose app or request returned an error.
    pub failed_ops: f64,
    /// Every virtual figure this repetition could read.
    pub virt: Values,
    /// Pooled `Metrics.syscall_latency` buckets (observed repetitions only).
    pub syscall_buckets: Buckets,
    /// Output-check misses; any entry fails the run.
    pub misses: Vec<String>,
    /// Output checks made.
    pub checks: u64,
    /// Exact work counts for the isolated layer drives.
    pub drive: DriveCounts,
}

/// What the workload's counters say the layers beneath `Kernel` did, so
/// the isolated drives can repeat the same amount of work.
#[derive(Default, Clone)]
pub struct DriveCounts {
    pub cache_pages: usize,
    pub cache_lookups: u64,
    pub cache_inserts: u64,
    /// Per class: (commands, mean sectors per command).
    pub dev_cmds: [(u64, u64); 4],
    pub submitter_lanes: usize,
    pub submitter_picks: u64,
}

/// Machine and file sizes of the two paper-protocol workloads: `fit` lies
/// inside the page cache, `spill` does not.
pub struct FitSpill {
    pub ram: ByteSize,
    pub fit: u64,
    pub spill: u64,
}

/// Virtual results of the paper's protocol over the measured app runs, per
/// size (0 = fit, 1 = spill) and mode (0 = baseline, 1 = SLEDs).
#[derive(Default)]
pub struct ModeTimes {
    elapsed_s: [[f64; 2]; 2],
    faults: [u64; 2],
}

impl ModeTimes {
    pub fn note(&mut self, size: usize, mode: usize, report: &JobReport) {
        self.elapsed_s[size][mode] += report.elapsed_secs();
        self.faults[mode] += report.usage.major_faults;
    }

    /// The `apps.*` virtual figures and `virtual_elapsed_s`.
    pub fn put(&self, v: &mut Values) {
        let [fit, spill] = self.elapsed_s;
        let (base, with) = (fit[0] + spill[0], fit[1] + spill[1]);
        metrics::put(v, "virtual_elapsed_s", base + with);
        metrics::put(v, "apps.elapsed_baseline_s", base);
        metrics::put(v, "apps.elapsed_sleds_s", with);
        metrics::put(v, "apps.sleds_speedup_x", base / with);
        metrics::put(v, "apps.sleds_speedup_fit_x", fit[0] / fit[1]);
        metrics::put(v, "apps.sleds_speedup_spill_x", spill[0] / spill[1]);
        metrics::put(v, "apps.faults_baseline", self.faults[0] as f64);
        metrics::put(v, "apps.faults_sleds", self.faults[1] as f64);
    }
}

pub fn run(name: &str, cfg: RepCfg, rec: &mut Recorder) -> Result<Rep, String> {
    match name {
        "scan_warm" => scan_warm::rep(cfg, rec),
        "fits_rw" => fits_rw::rep(cfg, rec),
        "tree_walk" => tree_walk::rep(cfg, rec),
        "tenant_replay" => tenant_replay::rep(cfg, rec),
        other => Err(format!("unknown workload {other:?}")),
    }
}

pub fn class_index(class: DeviceClass) -> Option<usize> {
    match class {
        DeviceClass::Memory => None,
        DeviceClass::Disk => Some(0),
        DeviceClass::CdRom => Some(1),
        DeviceClass::Network => Some(2),
        DeviceClass::Tape => Some(3),
    }
}

/// `devices.<class>.<field>` names, `[class][field]`, fields in the order
/// cmds, bytes, busy_s, repositions, service_p99_ns.
const DEV_NAMES: [[&str; 5]; 4] = [
    [
        "devices.disk.cmds",
        "devices.disk.bytes",
        "devices.disk.busy_s",
        "devices.disk.repositions",
        "devices.disk.service_p99_ns",
    ],
    [
        "devices.cdrom.cmds",
        "devices.cdrom.bytes",
        "devices.cdrom.busy_s",
        "devices.cdrom.repositions",
        "devices.cdrom.service_p99_ns",
    ],
    [
        "devices.network.cmds",
        "devices.network.bytes",
        "devices.network.busy_s",
        "devices.network.repositions",
        "devices.network.service_p99_ns",
    ],
    [
        "devices.tape.cmds",
        "devices.tape.bytes",
        "devices.tape.busy_s",
        "devices.tape.repositions",
        "devices.tape.service_p99_ns",
    ],
];

/// Accumulates the virtual counters of every kernel a repetition used.
/// Counters are read after `reset_counters()` at the end of set-up, so
/// they cover exactly the measured phase.
#[derive(Default)]
pub struct Tally {
    pub virt: Values,
    syscall_buckets: Buckets,
    service: [Buckets; 4],
    queue_wait: Buckets,
    sectors: [u64; 4],
    /// Sum and count of the rolling prediction-error windows.
    abs_rel_err: (f64, u64),
    cache_pages: usize,
    cache_inserts: u64,
    ring_ops: u64,
    bytes_read: u64,
    bytes_written: u64,
}

impl Tally {
    /// Folds in one kernel's counters.
    pub fn kernel(&mut self, k: &Kernel) {
        let v = &mut self.virt;
        let u = k.usage();
        metrics::add(v, "virtual_cpu_s", u.cpu.as_secs_f64());
        metrics::add(v, "major_faults", u.major_faults as f64);
        metrics::add(v, "fs.syscalls", u.syscalls as f64);
        metrics::add(v, "fs.crossings", u.syscall_crossings as f64);
        metrics::add(
            v,
            "fs.crossing_cpu_s",
            u.syscall_crossings as f64 * k.config().syscall_cpu.as_secs_f64(),
        );
        metrics::add(v, "fs.ring.enters", k.ring_enters() as f64);
        self.ring_ops += k.ring_ops_serviced();
        self.bytes_read += u.bytes_read;
        self.bytes_written += u.bytes_written;
        metrics::add(v, "fs.queue.wait_s", u.queue_wait.as_secs_f64());
        metrics::add(v, "fs.volume.hedges", u.hedges as f64);
        metrics::add(v, "fs.volume.hedge_wins", u.hedge_wins as f64);
        metrics::add(v, "fs.volume.hedge_wait_s", u.hedge_wait.as_secs_f64());
        metrics::add(v, "faults.retries", u.io_retries as f64);
        metrics::add(v, "faults.backoff_s", u.retry_backoff.as_secs_f64());

        let c = k.cache_stats();
        metrics::add(v, "pagecache.hits", c.hits as f64);
        metrics::add(v, "pagecache.misses", c.misses as f64);
        metrics::add(v, "pagecache.evictions", c.evictions as f64);
        metrics::add(v, "pagecache.dirty_evictions", c.dirty_evictions as f64);
        self.cache_inserts += c.insertions;
        self.cache_pages = self.cache_pages.max(k.cache_capacity_pages());

        for d in 0..k.device_count() {
            let dev = DeviceId(d);
            let Some(ci) = k.device_class(dev).and_then(class_index) else {
                continue;
            };
            let (Some(s), Some(q)) = (k.device_stats(dev), k.device_queue(dev)) else {
                continue;
            };
            let names = &DEV_NAMES[ci];
            let sectors = s.sectors_read + s.sectors_written;
            metrics::add(v, names[0], (s.reads + s.writes) as f64);
            metrics::add(v, names[1], (sectors * sleds_sim_core::SECTOR_SIZE) as f64);
            metrics::add(v, names[2], s.busy.as_secs_f64());
            metrics::add(v, names[3], s.repositions as f64);
            self.sectors[ci] += sectors;
            metrics::pool_buckets(&mut self.service[ci], q.service_hist().nonzero_buckets());
            metrics::pool_buckets(&mut self.queue_wait, q.queue_wait_hist().nonzero_buckets());
            let high = v.entry("fs.queue.depth_high_water").or_insert(0.0);
            *high = high.max(q.depth_high_water() as f64);
            if ci == 0 {
                let util = v.entry("fs.queue.disk_util_ppm").or_insert(0.0);
                *util = util.max(q.utilization_ppm() as f64);
            }
        }
        metrics::add(
            v,
            "fs.queue.bullies",
            k.saturation_report().bullies().len() as f64,
        );

        if let Some(m) = k.metrics() {
            metrics::pool_buckets(
                &mut self.syscall_buckets,
                m.syscall_latency.nonzero_buckets(),
            );
            metrics::add(v, "fs.prog.evals", m.prog_evals as f64);
            metrics::add(v, "faults.injected", m.faults_injected as f64);
            metrics::add(v, "trace.dropped", k.trace_dropped() as f64);
            metrics::add(
                v,
                "trace.events",
                (k.trace_dropped() + k.trace_events().len() as u64) as f64,
            );
            for class in &m.device {
                if let Some(e) = class.accuracy.mean_abs_rel_err() {
                    self.abs_rel_err.0 += e * class.accuracy.len() as f64;
                    self.abs_rel_err.1 += class.accuracy.len() as u64;
                }
            }
        }
    }

    /// Finishes the derived figures and hands the counters to `rep`.
    pub fn finish(mut self, rep: &mut Rep) {
        let v = &mut self.virt;
        let get = |v: &Values, n: &str| v.get(n).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let enters = get(v, "fs.ring.enters");
        metrics::put(
            v,
            "fs.ring.ops_per_enter",
            ratio(self.ring_ops as f64, enters),
        );
        metrics::put(
            v,
            "fits.bytes_written_per_byte_read",
            ratio(self.bytes_written as f64, self.bytes_read as f64),
        );
        let (hits, misses) = (get(v, "pagecache.hits"), get(v, "pagecache.misses"));
        metrics::put(v, "pagecache.hit_ratio", ratio(hits, hits + misses));
        for (ci, names) in DEV_NAMES.iter().enumerate() {
            metrics::put(
                v,
                names[4],
                metrics::bucket_quantile(&self.service[ci], 0.99),
            );
            let cmds = get(v, names[0]) as u64;
            rep.drive.dev_cmds[ci] = (cmds, self.sectors[ci].checked_div(cmds).unwrap_or(0));
        }
        metrics::put(
            v,
            "fs.queue.wait_p99_ns",
            metrics::bucket_quantile(&self.queue_wait, 0.99),
        );
        if !self.syscall_buckets.is_empty() {
            let (sum, n) = self.abs_rel_err;
            metrics::put(v, "core.predict.abs_rel_err", ratio(sum, n as f64));
        }
        rep.drive.cache_pages = self.cache_pages;
        rep.drive.cache_lookups = (hits + misses) as u64;
        rep.drive.cache_inserts = self.cache_inserts;
        rep.syscall_buckets = self.syscall_buckets;
        rep.virt.append(&mut self.virt);
    }
}
