//! The kernel: syscalls, mounts, the read/write path, and the SLED hook.
//!
//! Cost model of the read path (the part every experiment depends on):
//!
//! * each `read(2)` pays a fixed syscall CPU cost plus a memory-copy cost
//!   for the bytes delivered (the Table 2 "memory" row);
//! * pages already in the buffer cache are **minor faults**: no device work;
//! * missing pages are **major faults**: contiguous runs of missing pages
//!   (same device, adjacent sectors) are clustered into one device command,
//!   so a cold sequential scan is bandwidth-limited while scattered misses
//!   pay positioning per run — exactly the latency/bandwidth split a SLED
//!   describes;
//! * pages brought in are inserted into the cache; dirty pages evicted to
//!   make room are written back to their home device at the caller's
//!   expense, which is how a write-heavy job (fimhisto) interferes with its
//!   own read caching.
//!
//! HSM mounts add one more step: a missing page whose home is the tape
//! device is *staged* — a chunk of pages is read from tape, written to the
//! staging disk, and the file's page map is rewritten to point at the disk
//! copy — before the read proceeds. The tape home is remembered so a later
//! purge can drop the disk copy without copying data back.

use sleds_devices::{BlockDevice, DevStats, DeviceClass, FaultPlan, FaultState};
use sleds_pagecache::{Evicted, PageCache, PageKey};
use sleds_sim_core::{
    index, DetRng, Errno, IdTable, IdWindow, Pages, RetryPolicy, Sectors, SimDuration, SimError,
    SimResult, SimTime, TenantId,
};
use sleds_trace::{span, DeviceCost, Layer, Metrics, TraceEvent, Tracer, Wait};

use crate::capture::{Capture, PayloadFold, WorkloadRecorder};
use crate::inode::{FileKind, FileNode, Ino, Inode, InodeBody, PageMap, PagePlace, Stat};
use crate::machine::MachineConfig;
use crate::payload::Payload;
use crate::prog::{prog_inputs, PickProgram, ProgInputs, ProgOrder, WalkEntry};
use crate::queue::{self, CmdQueue, SaturationReport};
use crate::ring::{RingCompletion, SubmissionRing};
use crate::rusage::{JobReport, JobTimer, Rusage};
use crate::sled::{self, Sled, SledsTable};
use crate::syscall::{self as sys, Entry, Syscall, SyscallRet};
use crate::volume::{HedgePolicy, VolumeLayout};

mod boundary;
mod cost;
mod namei;

use cost::{Attempt, Ledger};

pub use crate::inode::SECTORS_PER_PAGE;
pub use crate::syscall::{Fd, OpenFlags, Whence};

/// Seed for the kernel's retry-backoff jitter stream. A fixed constant so
/// two kernels running the same workload under the same fault plan back
/// off identically.
const RETRY_JITTER_SEED: u64 = 0x5EED_FA17;

const ONE_PAGE: Pages = Pages::new(1);

/// Boundary row shared by both `FSLEDS_GET` extent walks: one span name,
/// one poison label.
const IOCTL_FSLEDS_GET: Entry = Entry {
    name: "ioctl.page_extents",
    ..Entry::ioctl("ioctl.fsleds_get")
};

/// Delivery-time estimate in integer nanoseconds for trace marks:
/// `u64::MAX` stands in for non-finite (offline) estimates.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a float-to-integer `as` saturates, so an estimate past u64 nanoseconds reads as offline"
)]
fn estimate_ns(secs: f64) -> u64 {
    if secs.is_finite() {
        (secs * 1e9) as u64
    } else {
        u64::MAX
    }
}

/// Identifies a device registered with the kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

/// Identifies a mount.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MountId(pub usize);

/// Where one page of an open file currently lives — the kernel half of the
/// `FSLEDS_GET` ioctl. The `sleds` crate turns a vector of these plus the
/// calibrated device table into the SLED vector applications see.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageLocation {
    /// Resident in the buffer cache.
    Memory,
    /// On a device, at the given first sector.
    Device {
        /// Home device.
        dev: DeviceId,
        /// First sector of the page.
        sector: u64,
    },
}

/// One run of consecutive pages of an open file sharing a location — the
/// run-length form of the `FSLEDS_GET` answer. For a `Device` location,
/// `location.sector` is the sector of `first_page`; subsequent pages follow
/// at `SECTORS_PER_PAGE` intervals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageExtent {
    /// First file page of the extent.
    pub first_page: u64,
    /// Number of pages in the extent.
    pub pages: u64,
    /// Where those pages live.
    pub location: PageLocation,
}

impl PageExtent {
    /// First file page past the extent.
    pub fn end_page(&self) -> u64 {
        self.first_page + self.pages
    }
}

/// One alternative copy (or coded fragment) of a redundant extent: the
/// member device holding it and the sector of the extent's first page
/// there.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplicaPlace {
    /// Member device holding the copy.
    pub dev: DeviceId,
    /// First sector of the extent's first page on that device.
    pub sector: u64,
}

/// A [`PageExtent`] together with every other place that can serve it —
/// the kernel half of `FSLEDS_GET` on a redundant volume. For mirrored
/// files each alternative is a full copy; for a (k, n)-coded file the
/// primary plus alternatives are the n fragment homes and `coded_k`
/// carries the k needed to reconstruct. Memory-resident extents and
/// unreplicated files have no alternatives.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RedundantExtent {
    /// The extent, located at its primary home (or in memory).
    pub extent: PageExtent,
    /// Non-primary places holding the same pages, in member order.
    pub alternatives: Vec<ReplicaPlace>,
    /// `Some(k)` when the volume is (k, n)-coded: delivery needs any k
    /// of the n places, so the extent prices as the k-th cheapest.
    pub coded_k: Option<u32>,
}

/// Optional file-layout fragmentation for a mount.
#[derive(Clone, Debug)]
struct FragConfig {
    chunk_pages: Pages,
    gap_pages: u64,
    rng: DetRng,
}

/// HSM configuration of a mount.
#[derive(Clone, Copy, Debug)]
struct HsmConfig {
    tape: DeviceId,
    stage_chunk_pages: Pages,
    tape_next_sector: Sectors,
}

/// Redundant-volume state of a mount: the member devices and their
/// allocation cursors. The mount's `dev` is always `devices[0]` (the
/// primary); the extra members hold mirrors, stripes or coded fragments
/// depending on the layout.
#[derive(Debug)]
struct VolumeState {
    layout: VolumeLayout,
    /// Member devices; index 0 is the mount's primary device.
    devices: Vec<DeviceId>,
    /// Allocation cursor per non-primary member (the primary allocates
    /// through `Mount::next_sector` as on any mount).
    replica_next: Vec<Sectors>,
    /// Round-robin cursor for striped allocation.
    stripe_cursor: usize,
}

/// A mounted file system.
#[derive(Debug)]
struct Mount {
    dev: DeviceId,
    next_sector: Sectors,
    read_only: bool,
    frag: Option<FragConfig>,
    hsm: Option<HsmConfig>,
    volume: Option<VolumeState>,
}

/// An open file description.
#[derive(Clone, Copy, Debug)]
struct OpenFile {
    ino: Ino,
    pos: u64,
    flags: OpenFlags,
}

/// One registered tenant: its own timeline and accumulated usage.
///
/// The kernel runs one tenant at a time; [`Kernel::tenant_switch`] parks
/// the active tenant's clock here and resumes the target's. Per-tenant
/// usage is maintained by snapshot-diff against the global counters at
/// switch points, so the per-tenant rows always sum exactly to the global
/// [`Rusage`] — every charge site feeds both without knowing tenants exist.
#[derive(Clone, Debug)]
struct TenantState {
    name: String,
    /// Where this tenant's timeline is parked while it is not active.
    clock_at: SimTime,
    /// Virtual instant the tenant was registered; its elapsed time is
    /// measured from here.
    registered_at: SimTime,
    /// Usage accumulated over the tenant's past active slices.
    usage: Rusage,
}

/// The simulated kernel.
pub struct Kernel {
    cfg: MachineConfig,
    /// The virtual clock and the `Rusage` it is billed to, as one value.
    ledger: Ledger,
    cache: PageCache,
    devices: Vec<Box<dyn BlockDevice>>,
    mounts: Vec<Mount>,
    /// Slot = inode number. `alloc_ino` issues 1, 2, 3, … and never
    /// reuses one, so the table is dense; `unlink` leaves an empty slot.
    inodes: IdTable<Inode>,
    next_ino: u64,
    /// Open descriptors, keyed by fd number. Fds are issued in increasing
    /// order and never reused (captures record them), so the window holds
    /// the span from the oldest open fd to the newest issued.
    fds: IdWindow<OpenFile>,
    next_fd: u64,
    root: Ino,
    tracer: Tracer,
    /// Count of `FSLEDS_RECAL` calls. Folded into [`Kernel::sled_generation`]
    /// so every SLED vector stamped with it goes stale the moment the sleds
    /// table is recalibrated, without its holder knowing recalibration
    /// exists.
    sleds_epoch: u64,
    /// How hard `device_command` tries again; always the default.
    retry: RetryPolicy,
    /// Jitter stream for retry backoff; only consumed when a command
    /// actually fails, so fault-free runs never draw from it.
    retry_rng: DetRng,
    /// Lifetime count of `ring_enter` batches serviced (cheap stat for
    /// benches; crossings proper live in rusage).
    ring_enters: u64,
    /// Lifetime count of ring operations serviced.
    ring_ops: u64,
    /// Completion tag of the ring submission being dispatched; `Some`
    /// exactly while `ring_enter` services one. The boundary reads it to
    /// charge in-kernel dispatch instead of a trap and to file the call
    /// under the enclosing batch.
    ring_slot: Option<u64>,
    /// One bounded command queue per attached device (same index as
    /// `devices`): queue-wait pricing and saturation telemetry.
    queues: Vec<CmdQueue>,
    /// Registered tenants; index 0 is the implicit main tenant every
    /// kernel boots with, so single-tenant workloads never see this layer.
    tenants: Vec<TenantState>,
    /// Index into `tenants` of the tenant whose timeline `clock` is.
    active_tenant: usize,
    /// Global usage at the last tenant switch; the delta since is the
    /// active tenant's not-yet-flushed share.
    tenant_snapshot: Rusage,
    /// Armed flight recorder, when a capture is in progress. Unlike the
    /// trace ring it is lossless: any kernel entry it cannot record
    /// poisons the capture instead of being dropped.
    recorder: Option<WorkloadRecorder>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now())
            .field("mounts", &self.mounts.len())
            .field("inodes", &self.inodes.len())
            .field("cache", &self.cache)
            .finish()
    }
}

impl Kernel {
    /// Boots a machine: empty root directory, no mounts.
    pub fn new(cfg: MachineConfig) -> Self {
        let cache = PageCache::new(cfg.cache_pages(), cfg.policy);
        let root = Ino(1);
        let mut inodes = IdTable::new();
        inodes.insert(
            root.0,
            Inode {
                ino: root,
                mount: None,
                body: InodeBody::Dir(Default::default()),
                mtime: SimTime::ZERO,
            },
        );
        Kernel {
            cfg,
            ledger: Ledger::default(),
            cache,
            devices: Vec::new(),
            mounts: Vec::new(),
            inodes,
            next_ino: 2,
            fds: IdWindow::new(),
            next_fd: 3, // 0..2 reserved, as tradition demands
            root,
            tracer: Tracer::disabled(),
            sleds_epoch: 0,
            retry: RetryPolicy::default(),
            retry_rng: DetRng::new(RETRY_JITTER_SEED),
            ring_enters: 0,
            ring_ops: 0,
            ring_slot: None,
            queues: Vec::new(),
            tenants: vec![TenantState {
                name: "main".to_string(),
                clock_at: SimTime::ZERO,
                registered_at: SimTime::ZERO,
                usage: Rusage::default(),
            }],
            active_tenant: 0,
            tenant_snapshot: Rusage::default(),
            recorder: None,
        }
    }

    /// Boots the paper's Table 2 machine.
    pub fn table2() -> Self {
        Kernel::new(MachineConfig::table2())
    }

    /// Boots the paper's Table 3 machine.
    pub fn table3() -> Self {
        Kernel::new(MachineConfig::table3())
    }

    // ------------------------------------------------------------------
    // Time, usage, stats
    // ------------------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ledger.now()
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Cumulative resource usage.
    pub fn usage(&self) -> Rusage {
        self.ledger.usage()
    }

    /// Page-cache counters.
    pub fn cache_stats(&self) -> sleds_pagecache::CacheStats {
        self.cache.stats()
    }

    /// Number of pages currently resident.
    pub fn cache_resident_pages(&self) -> usize {
        self.cache.len()
    }

    /// Number of resident pages that are dirty — the writeback debt the
    /// trace viewer reports next to residency.
    pub fn cache_dirty_pages(&self) -> u64 {
        self.cache.dirty_count()
    }

    /// Page-cache capacity in pages.
    pub fn cache_capacity_pages(&self) -> usize {
        self.cache.capacity()
    }

    // ------------------------------------------------------------------
    // Tenants: interleaved timelines on shared devices
    // ------------------------------------------------------------------

    /// Registers a new tenant named `name`; its timeline starts at the
    /// current virtual time. Returns its id. Tenant 0 ("main") always
    /// exists — it is the tenant every kernel boots as.
    pub fn tenant_register(&mut self, name: &str) -> TenantId {
        // Registration cannot fail: the id is the row the body pushes.
        let id = TenantId(self.tenants.len() as u64);
        let make = || Syscall::TenantRegister {
            name: name.to_string(),
        };
        let _ = self.sys(&sys::TENANT_REGISTER, [0; 3], make, |k| {
            let now = k.now();
            k.tenants.push(TenantState {
                name: name.to_string(),
                clock_at: now,
                registered_at: now,
                usage: Rusage::default(),
            });
            Ok(SyscallRet::Tenant(id))
        });
        id
    }

    /// Makes `t` the active tenant: parks the current tenant's clock and
    /// usage share, and resumes `t`'s timeline where it left off. The
    /// virtual clock may move *backward* across a switch — tenants are
    /// concurrent processes, each with its own monotone timeline — but a
    /// device's command queue keeps every device's schedule monotone, so
    /// queue waits (and only queue waits) reflect the interleaving.
    pub fn tenant_switch(&mut self, t: TenantId) -> SimResult<()> {
        let idx = index(t.0);
        if idx >= self.tenants.len() {
            return Err(SimError::new(
                Errno::Einval,
                format!("tenant_switch: no tenant {}", t.0),
            ));
        }
        if idx == self.active_tenant {
            return Ok(());
        }
        // Flush the outgoing tenant's usage share and park its clock.
        let usage = self.usage();
        let delta = usage.since(&self.tenant_snapshot);
        self.tenants[self.active_tenant].usage.accumulate(&delta);
        self.tenant_snapshot = usage;
        let resume_at = self.tenants[idx].clock_at;
        self.tenants[self.active_tenant].clock_at = self.ledger.switch_timeline(resume_at);
        self.active_tenant = idx;
        self.tracer.set_tenant(t.0);
        Ok(())
    }

    /// The tenant whose timeline the kernel clock currently is.
    pub fn active_tenant(&self) -> TenantId {
        TenantId(self.active_tenant as u64)
    }

    /// Number of registered tenants (including the implicit main tenant).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// `(id, name)` rows for every registered tenant, ascending by id —
    /// the shape the Chrome exporter's lane labeling takes.
    pub fn tenant_names(&self) -> Vec<(u64, String)> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s.name.clone()))
            .collect()
    }

    /// A tenant's accumulated resource usage, including the active
    /// tenant's not-yet-flushed share. Per-tenant rows sum exactly to
    /// [`Kernel::usage`].
    pub fn tenant_usage(&self, t: TenantId) -> Option<Rusage> {
        let idx = index(t.0);
        self.tenants.get(idx).map(|s| {
            let mut u = s.usage;
            if idx == self.active_tenant {
                u.accumulate(&self.usage().since(&self.tenant_snapshot));
            }
            u
        })
    }

    /// Where a tenant's timeline currently stands (the kernel clock for
    /// the active tenant, its parked clock otherwise).
    pub fn tenant_now(&self, t: TenantId) -> Option<SimTime> {
        let idx = index(t.0);
        self.tenants.get(idx).map(|s| {
            if idx == self.active_tenant {
                self.now()
            } else {
                s.clock_at
            }
        })
    }

    /// Virtual time elapsed on a tenant's timeline since it registered.
    pub fn tenant_elapsed(&self, t: TenantId) -> Option<SimDuration> {
        let idx = index(t.0);
        let registered = self.tenants.get(idx)?.registered_at;
        self.tenant_now(t).map(|now| now.duration_since(registered))
    }

    // ------------------------------------------------------------------
    // Tracing: a zero-cost observer of the virtual clock
    // ------------------------------------------------------------------

    /// Enables event tracing with the default ring capacity.
    ///
    /// The tracer is a pure observer: it never advances the clock and never
    /// touches rusage, so a traced run produces virtual-time results
    /// byte-identical to an untraced one.
    pub fn enable_tracing(&mut self) {
        self.tracer = Tracer::enabled();
    }

    /// Enables tracing with an explicit ring capacity, in events.
    pub fn enable_tracing_with_capacity(&mut self, capacity: usize) {
        self.tracer = Tracer::with_capacity(capacity);
    }

    /// Disables tracing, discarding any buffered events and metrics.
    pub fn disable_tracing(&mut self) {
        self.tracer = Tracer::disabled();
    }

    /// Whether tracing is on.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Snapshot of the trace ring, oldest event first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.tracer.events()
    }

    /// Events dropped to ring overflow since tracing was enabled.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// Trace-ring retention high-water mark (most events held at once).
    pub fn trace_high_water(&self) -> u64 {
        self.tracer.high_water()
    }

    /// Per-layer metrics accumulated since tracing was enabled; `None`
    /// while tracing is off.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.tracer.metrics()
    }

    // ------------------------------------------------------------------
    // Workload capture: the flight recorder
    // ------------------------------------------------------------------

    /// Arms the flight recorder: every subsequent kernel entry is
    /// recorded losslessly (up to `budget` ops — overflowing the budget
    /// marks the capture incomplete, never drops silently) until
    /// [`Kernel::stop_capture`]. Replaces any capture in progress.
    pub fn start_capture(&mut self, budget: usize) {
        self.recorder = Some(WorkloadRecorder::new(budget, self.now().as_nanos()));
    }

    /// Disarms the recorder and returns the capture; `None` when no
    /// capture was armed.
    pub fn stop_capture(&mut self) -> Option<Capture> {
        self.recorder.take().map(WorkloadRecorder::into_capture)
    }

    /// Sum of every attached device's fault epoch at `now` — the "which
    /// fault windows are live" stamp each captured op carries.
    pub fn fault_epoch_total(&self) -> u64 {
        let now = self.now();
        self.devices.iter().map(|d| d.fault_epoch(now)).sum()
    }

    /// Poisons an in-progress capture: `name` charged the clock (or
    /// mutated state) in a way the replayer cannot reproduce.
    pub(crate) fn rec_unsupported(&mut self, name: &str) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.unsupported(name);
        }
    }

    /// The `FSLEDS_STAT` ioctl: a snapshot of the per-layer counters and
    /// latency histograms. Charges one syscall; all-zero when tracing is
    /// off (the counters simply never ran).
    pub fn fsleds_stat(&mut self, fd: Fd) -> SimResult<Metrics> {
        self.ioctl(&Entry::ioctl("ioctl.fsleds_stat"), [fd.0, 0, 0], |k| {
            k.openfile(fd)
                .map(|_| k.tracer.metrics_snapshot().unwrap_or_default())
        })
    }

    /// The `FSLEDS_RECAL` ioctl: marks a sleds-table recalibration point.
    /// Bumps the kernel's sleds epoch — moving [`Kernel::sled_generation`]
    /// for every file, so every stamped SLED vector goes stale — emits a
    /// `sleds.recal` marker so the accuracy audit can fence prediction
    /// pairs at the boundary, and returns the metrics snapshot the caller
    /// recalibrates from. Charges one syscall. The epoch bump happens
    /// whether or not tracing is on (untraced callers get empty metrics),
    /// so traced and untraced runs stay byte-identical.
    pub fn fsleds_recal(&mut self, fd: Fd) -> SimResult<Metrics> {
        self.ioctl(&Entry::ioctl("ioctl.fsleds_recal"), [fd.0, 0, 0], |k| {
            k.openfile(fd).map(|_| {
                k.sleds_epoch += 1;
                let snap = k.tracer.metrics_snapshot().unwrap_or_default();
                let now = k.now();
                k.tracer.recal(now, k.sleds_epoch);
                snap
            })
        })
    }

    /// Number of `FSLEDS_RECAL` calls so far — the generation new
    /// predictions should be tagged with after a recalibration.
    pub fn sleds_epoch(&self) -> u64 {
        self.sleds_epoch
    }

    /// The command queue (and its saturation telemetry) of a device.
    pub fn device_queue(&self, dev: DeviceId) -> Option<&CmdQueue> {
        self.queues.get(dev.0)
    }

    /// Builds the saturation/attribution report from the per-device queue
    /// telemetry: per-device utilization and per-tenant demand shares
    /// (bullies flagged), and per-tenant latency attribution whose
    /// own-service + queue-wait sums exactly to the observed device time.
    /// Pure query: charges nothing, and a capture stays complete across it.
    pub fn saturation_report(&self) -> SaturationReport {
        let devices = self.devices.iter().map(|d| (d.name(), d.class().code()));
        queue::saturation_report(
            self.queues
                .iter()
                .zip(devices)
                .map(|(q, (name, class))| (q, name, class)),
            self.tenants.iter().map(|t| t.name.as_str()),
        )
    }

    /// Runs `body` inside an application-level span (e.g. one `grep`
    /// invocation) that nests every syscall traced within it. The span is
    /// closed however `body` ends: a `?` inside it returns from the
    /// closure, not past the end.
    pub fn trace_app<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Kernel) -> T) -> T {
        span(self, Layer::App, name, [0; 3], body)
    }

    /// Records a delivery-time prediction for an open file — the trace half
    /// of the accuracy audit. The prediction is tagged with the class of
    /// the device the file's data would come from (tape when any page of an
    /// HSM file is still offline, the home mount device otherwise), and
    /// paired by the audit with the durations of later reads on the fd.
    /// `table_generation` is the generation of the sleds table the
    /// estimate was priced from; the audit discards pairs whose reads
    /// happened under a different table.
    pub fn trace_predict(
        &mut self,
        fd: Fd,
        predicted: SimDuration,
        table_generation: u64,
    ) -> SimResult<()> {
        if !self.tracer.is_enabled() {
            return Ok(());
        }
        let of = self.openfile(fd)?;
        let class = self.serving_class_of(of.ino)?;
        let now = self.now();
        self.tracer.predict(
            now,
            fd.0,
            predicted.as_nanos(),
            class.code(),
            table_generation,
        );
        Ok(())
    }

    /// The numeric device-class code (as used in trace events and the
    /// per-class metrics arrays) that would serve a cold read of this open
    /// file. Pure query: charges nothing.
    pub fn serving_class_code(&self, fd: Fd) -> SimResult<u64> {
        let of = self.openfile(fd)?;
        Ok(self.serving_class_of(of.ino)?.code())
    }

    /// The device class that would serve a cold read of this file: the tape
    /// class while any page is HSM-offline, the home mount device otherwise
    /// (memory for mountless files).
    fn serving_class_of(&self, ino: Ino) -> SimResult<DeviceClass> {
        let node = self.inode(ino)?;
        let f = node
            .as_file()
            .ok_or_else(|| SimError::new(Errno::Eisdir, "predict on directory"))?;
        let mount = match node.mount {
            Some(m) => m,
            None => return Ok(DeviceClass::Memory),
        };
        let n = f.page_count();
        if let Some(h) = self.mounts[mount.0].hsm {
            let runs = f.pages.runs_in(Pages::ZERO, n - ONE_PAGE);
            if n > Pages::ZERO && runs.iter().any(|r| r.dev == h.tape) {
                return Ok(self.devices[h.tape.0].class());
            }
        }
        Ok(self.devices[self.mounts[mount.0].dev.0].class())
    }

    /// Per-device counters.
    pub fn device_stats(&self, dev: DeviceId) -> Option<DevStats> {
        self.devices.get(dev.0).map(|d| d.stats())
    }

    /// The class of a device.
    pub fn device_class(&self, dev: DeviceId) -> Option<DeviceClass> {
        self.devices.get(dev.0).map(|d| d.class())
    }

    /// Number of attached devices; ids `0..count` are all valid.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The nominal profile of a device.
    pub fn device_profile(&self, dev: DeviceId) -> Option<sleds_devices::DeviceProfile> {
        self.devices.get(dev.0).map(|d| d.profile())
    }

    /// Capacity of a device in sectors.
    pub fn device_capacity(&self, dev: DeviceId) -> Option<u64> {
        self.devices.get(dev.0).map(|d| d.capacity_sectors())
    }

    /// The device's self-reported performance zones.
    pub fn device_zone_map(&self, dev: DeviceId) -> Option<Vec<sleds_devices::ZoneSpan>> {
        self.devices.get(dev.0).map(|d| d.zone_map())
    }

    /// Asks a device for its dynamic `(latency, bandwidth)` report for
    /// `sector` — the client/server SLEDs channel. `None` when the device
    /// has nothing to report.
    pub fn device_probe(&self, dev: DeviceId, sector: u64) -> Option<(f64, f64)> {
        self.devices
            .get(dev.0)
            .and_then(|d| d.dynamic_probe(sector))
    }

    /// Raw (uncached) device read, bypassing the file system — the kind of
    /// access lmbench's device probes perform. Charges the I/O time, outside
    /// any syscall, so it poisons an armed capture.
    pub fn raw_device_read(&mut self, dev: DeviceId, sector: u64, sectors: u64) -> SimResult<()> {
        self.rec_unsupported("raw_device_read");
        if dev.0 >= self.devices.len() {
            return Err(SimError::new(Errno::Einval, format!("no device {dev:?}")));
        }
        self.device_command(dev, Sectors::new(sector), Sectors::new(sectors), false)
    }

    // ------------------------------------------------------------------
    // Fault injection and retry
    // ------------------------------------------------------------------

    /// Installs `plan`'s injectors on every attached device whose name has
    /// an entry in the plan; devices without one are left untouched.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        self.rec_unsupported("apply_fault_plan");
        for d in &mut self.devices {
            if let Some(injector) = plan.injector_for(d.name()) {
                d.set_fault_injector(injector);
            }
        }
    }

    /// Coarse health of a device at the current virtual time. Pure query:
    /// charges nothing.
    pub fn device_fault_state(&self, dev: DeviceId) -> Option<FaultState> {
        let now = self.now();
        self.devices.get(dev.0).map(|d| d.fault_state(now))
    }

    /// Issues one device command under the default [`RetryPolicy`]: one
    /// [`Kernel::submit`] per number in [`RetryPolicy::attempts`] — a
    /// finite range, so the retry is bounded by its type. `submit` has
    /// already charged an attempt failed by an injected fault (it held the
    /// bus). Errors the policy deems transient are reissued after an
    /// exponentially growing, deterministically jittered backoff on the
    /// virtual clock — mirrored into `io_retries`/`retry_backoff` in
    /// rusage and `io.retry` trace marks — until the attempts run out
    /// (`EIO`) or the policy timeout elapses (`ETIMEDOUT`). Non-retryable
    /// errors propagate unchanged, so fault-free runs behave exactly as if
    /// this layer did not exist.
    fn device_command(
        &mut self,
        dev: DeviceId,
        sector: Sectors,
        sectors: Sectors,
        write: bool,
    ) -> SimResult<()> {
        let policy = self.retry;
        let first_try = self.now();
        let mut failed: Option<SimError> = None;
        for attempt in policy.attempts() {
            if let Some(err) = failed.take() {
                // The previous submission failed transiently: abandon the
                // command on the policy timeout, else back off before this one.
                if self.now().duration_since(first_try) >= policy.timeout {
                    let name = self.devices[dev.0].name();
                    let why = format!("{name}: retries timed out ({err})");
                    return Err(SimError::new(Errno::Etimedout, why));
                }
                let retry = attempt - 1;
                let backoff = policy.backoff_for(retry, &mut self.retry_rng);
                self.charge_io(backoff);
                let counts = &mut self.ledger.counts;
                counts.io_retries += 1;
                counts.retry_backoff = counts.retry_backoff.saturating_add(backoff);
                let class = self.devices[dev.0].class().code();
                let (now, nth) = (self.now(), u64::from(retry));
                self.tracer.io_retry(now, class, nth, backoff.as_nanos());
            }
            failed = match self.submit(dev, sector, sectors, write, attempt, Wait::Serial) {
                Attempt::Served(_) => return Ok(()),
                Attempt::Refused(err) => return Err(err),
                Attempt::Faulted(err) if !RetryPolicy::retryable(err.errno) => return Err(err),
                Attempt::Faulted(err) => Some(err),
            };
        }
        let name = self.devices[dev.0].name();
        let tries = *policy.attempts().end();
        let cause = failed.map(|err| format!(" ({err})")).unwrap_or_default();
        let why = format!("{name}: gave up after {tries} attempts{cause}");
        Err(SimError::new(Errno::Eio, why))
    }

    /// The mount `stat(path)` would report, found without entering the
    /// kernel: charges nothing, so a setup that looks its mounts up moves
    /// no later timestamp. `None` for a missing path or one on no mount.
    pub fn find_mount(&self, path: &str) -> Option<MountId> {
        self.inode(self.resolve(path).ok()?).ok()?.mount
    }

    /// The device a mount allocates from.
    pub fn device_of_mount(&self, m: MountId) -> Option<DeviceId> {
        self.mounts.get(m.0).map(|mt| mt.dev)
    }

    /// The tape device of an HSM mount.
    pub fn tape_of_mount(&self, m: MountId) -> Option<DeviceId> {
        self.mounts.get(m.0).and_then(|mt| mt.hsm).map(|h| h.tape)
    }

    /// Charges application CPU time (computation between I/O calls).
    pub fn charge_cpu(&mut self, d: SimDuration) {
        self.ledger.cpu(d);
    }

    /// Non-perturbing cache residency probe by raw page key.
    pub fn cache_probe(&self, key: PageKey) -> bool {
        self.cache.contains(key)
    }

    /// Starts a measured job.
    pub fn start_job(&mut self) -> JobTimer {
        JobTimer {
            started: self.now(),
            usage: self.usage(),
        }
    }

    /// Finishes a measured job, returning elapsed time and usage deltas.
    pub fn finish_job(&mut self, t: &JobTimer) -> JobReport {
        JobReport {
            elapsed: self.now() - t.started,
            usage: self.usage().since(&t.usage),
        }
    }

    fn charge_memcpy(&mut self, bytes: u64) {
        self.charge_cpu(self.cfg.mem_latency + self.cfg.mem_bandwidth.transfer_time(bytes));
    }

    pub(crate) fn charge_io(&mut self, d: SimDuration) {
        self.ledger.io(d);
    }

    // ------------------------------------------------------------------
    // Devices and mounts
    // ------------------------------------------------------------------

    fn add_device(&mut self, dev: Box<dyn BlockDevice>) -> DeviceId {
        self.devices.push(dev);
        self.queues.push(CmdQueue::new(self.cfg.cmd_queue_capacity));
        DeviceId(self.devices.len() - 1)
    }

    /// Mounts `device` at `path` (the directory must already exist, or be
    /// `/`). Returns the mount id.
    pub fn mount_device(
        &mut self,
        path: &str,
        device: Box<dyn BlockDevice>,
        read_only: bool,
    ) -> SimResult<MountId> {
        let dir = self.resolve(path)?;
        let node = self.inode(dir)?;
        if node.kind() != FileKind::Dir {
            return Err(SimError::new(Errno::Enotdir, format!("mount({path})")));
        }
        if node.mount.is_some() {
            return Err(SimError::new(Errno::Eexist, format!("mount({path}): busy")));
        }
        let dev = self.add_device(device);
        let id = MountId(self.mounts.len());
        self.mounts.push(Mount {
            dev,
            // Leave the first megabyte for "metadata", like a real fs.
            next_sector: Sectors::new(2048),
            read_only,
            frag: None,
            hsm: None,
            volume: None,
        });
        self.inode_mut(dir)?.mount = Some(id);
        Ok(id)
    }

    /// Mounts a disk file system (ext2-like) at `path`.
    pub fn mount_disk(
        &mut self,
        path: &str,
        disk: sleds_devices::DiskDevice,
    ) -> SimResult<MountId> {
        self.mount_device(path, Box::new(disk), false)
    }

    /// Mounts a CD-ROM (ISO9660-like, read-only) at `path`.
    pub fn mount_cdrom(
        &mut self,
        path: &str,
        cd: sleds_devices::CdRomDevice,
    ) -> SimResult<MountId> {
        self.mount_device(path, Box::new(cd), true)
    }

    /// Mounts an NFS export at `path`.
    pub fn mount_nfs(&mut self, path: &str, nfs: sleds_devices::NfsDevice) -> SimResult<MountId> {
        self.mount_device(path, Box::new(nfs), false)
    }

    /// Mounts a hierarchical storage manager at `path`: a staging disk in
    /// front of a tape device (drive or jukebox). Files live on disk until
    /// migrated; offline pages are staged back in `stage_chunk_pages` units.
    pub fn mount_hsm(
        &mut self,
        path: &str,
        disk: Box<dyn BlockDevice>,
        tape: Box<dyn BlockDevice>,
        stage_chunk_pages: u64,
    ) -> SimResult<MountId> {
        let id = self.mount_device(path, disk, false)?;
        let tape_id = self.add_device(tape);
        self.mounts[id.0].hsm = Some(HsmConfig {
            tape: tape_id,
            stage_chunk_pages: Pages::new(stage_chunk_pages.max(1)),
            tape_next_sector: Sectors::ZERO,
        });
        Ok(id)
    }

    /// Mounts a redundant volume at `path`: one mount spanning several
    /// member devices under `layout`. The first device is the primary
    /// (the mount's allocator device); the rest hold mirrors, stripes or
    /// coded fragments. Files created or installed on the mount get the
    /// layout automatically; reads reroute and hedge across members per
    /// the machine's [`HedgePolicy`].
    pub fn mount_volume(
        &mut self,
        path: &str,
        layout: VolumeLayout,
        mut members: Vec<Box<dyn BlockDevice>>,
    ) -> SimResult<MountId> {
        if members.len() < layout.min_devices() {
            return Err(SimError::new(
                Errno::Einval,
                format!(
                    "mount_volume({path}): {} layout needs at least {} devices, got {}",
                    layout.name(),
                    layout.min_devices(),
                    members.len()
                ),
            ));
        }
        if let VolumeLayout::Coded { k } = layout {
            if k == 0 {
                return Err(SimError::new(
                    Errno::Einval,
                    format!("mount_volume({path}): coded layout needs k >= 1"),
                ));
            }
        }
        let rest = members.split_off(1);
        let primary = members.pop().ok_or_else(|| {
            SimError::new(Errno::Einval, format!("mount_volume({path}): no devices"))
        })?;
        let id = self.mount_device(path, primary, false)?;
        let mut devices = vec![self.mounts[id.0].dev];
        let mut replica_next = Vec::new();
        for d in rest {
            devices.push(self.add_device(d));
            // Same metadata reservation as the primary allocator.
            replica_next.push(Sectors::new(2048));
        }
        self.mounts[id.0].volume = Some(VolumeState {
            layout,
            devices,
            replica_next,
            stripe_cursor: 0,
        });
        Ok(id)
    }

    /// The layout of a volume mount, or `None` for ordinary mounts.
    pub fn volume_layout(&self, m: MountId) -> Option<VolumeLayout> {
        self.mounts.get(m.0)?.volume.as_ref().map(|v| v.layout)
    }

    /// Member devices of a volume mount (primary first); empty for
    /// ordinary mounts.
    pub fn volume_members(&self, m: MountId) -> Vec<DeviceId> {
        self.mounts
            .get(m.0)
            .and_then(|mt| mt.volume.as_ref())
            .map(|v| v.devices.clone())
            .unwrap_or_default()
    }

    /// Replaces the machine's hedged-read policy. Setup mutation: not
    /// capturable mid-recording.
    pub fn set_hedge_policy(&mut self, policy: HedgePolicy) {
        self.rec_unsupported("set_hedge_policy");
        self.cfg.hedge = policy;
    }

    /// The hedged-read policy in force.
    pub fn hedge_policy(&self) -> HedgePolicy {
        self.cfg.hedge
    }

    /// Makes future allocations on `mount` fragmented: files are laid out
    /// in `chunk_pages`-page runs separated by gaps of up to `gap_pages`.
    /// Setup mutation: not capturable mid-recording.
    pub fn set_fragmentation(
        &mut self,
        mount: MountId,
        chunk_pages: u64,
        gap_pages: u64,
        seed: u64,
    ) {
        self.rec_unsupported("set_fragmentation");
        if let Some(m) = self.mounts.get_mut(mount.0) {
            m.frag = Some(FragConfig {
                chunk_pages: Pages::new(chunk_pages.max(1)),
                gap_pages,
                rng: DetRng::new(seed),
            });
        }
    }

    // ------------------------------------------------------------------
    // Directory syscalls
    // ------------------------------------------------------------------

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> SimResult<()> {
        let make = || Syscall::Mkdir {
            path: path.to_string(),
        };
        self.sys(&sys::MKDIR, [0; 3], make, |k| {
            let (parent, name) = k.resolve_parent(path)?;
            let mount = k.inode(parent)?.mount;
            let parent_dir = k
                .inode(parent)?
                .as_dir()
                .ok_or_else(|| SimError::new(Errno::Enotdir, format!("mkdir({path})")))?;
            if parent_dir.contains_key(name) {
                return Err(SimError::new(Errno::Eexist, format!("mkdir({path})")));
            }
            let ino = k.alloc_ino();
            let now = k.now();
            k.inodes.insert(
                ino.0,
                Inode {
                    ino,
                    mount,
                    body: InodeBody::Dir(Default::default()),
                    mtime: now,
                },
            );
            let name = name.to_string();
            k.dir_of_mut(parent)?.insert(name, ino);
            Ok(SyscallRet::Unit)
        })
        .map(|_| ())
    }

    /// Lists a directory's entries in name order.
    pub fn readdir(&mut self, path: &str) -> SimResult<Vec<String>> {
        let make = || Syscall::Readdir {
            path: path.to_string(),
        };
        self.sys(&sys::READDIR, [0; 3], make, |k| {
            let ino = k.resolve(path)?;
            let node = k.inode(ino)?;
            let dir = node
                .as_dir()
                .ok_or_else(|| SimError::new(Errno::Enotdir, format!("readdir({path})")))?;
            Ok(SyscallRet::Names(dir.keys().cloned().collect()))
        })?
        .names()
    }

    /// Returns metadata for a path.
    pub fn stat(&mut self, path: &str) -> SimResult<Stat> {
        let make = || Syscall::Stat {
            path: path.to_string(),
        };
        self.sys(&sys::STAT, [0; 3], make, |k| {
            let ino = k.resolve(path)?;
            k.stat_ino(ino).map(SyscallRet::Stat)
        })?
        .stat()
    }

    fn stat_ino(&self, ino: Ino) -> SimResult<Stat> {
        let node = self.inode(ino)?;
        Ok(Stat {
            ino,
            kind: node.kind(),
            size: node.as_file().map(|f| f.size()).unwrap_or(0),
            mount: node.mount,
            dev: node.mount.and_then(|m| self.mounts.get(m.0)).map(|m| m.dev),
            mtime: node.mtime,
        })
    }

    /// Returns metadata for an open file.
    pub fn fstat(&mut self, fd: Fd) -> SimResult<Stat> {
        let make = || Syscall::Fstat { fd };
        self.sys(&sys::FSTAT, [0; 3], make, |k| {
            let of = k.openfile(fd)?;
            k.stat_ino(of.ino).map(SyscallRet::Stat)
        })?
        .stat()
    }

    /// Removes a file, dropping its cached pages.
    pub fn unlink(&mut self, path: &str) -> SimResult<()> {
        let make = || Syscall::Unlink {
            path: path.to_string(),
        };
        self.sys(&sys::UNLINK, [0; 3], make, |k| {
            let (parent, name) = k.resolve_parent(path)?;
            let ino = {
                let dir = k
                    .inode(parent)?
                    .as_dir()
                    .ok_or_else(|| SimError::new(Errno::Enotdir, format!("unlink({path})")))?;
                *dir.get(name)
                    .ok_or_else(|| SimError::new(Errno::Enoent, format!("unlink({path})")))?
            };
            if k.inode(ino)?.kind() == FileKind::Dir {
                return Err(SimError::new(Errno::Eisdir, format!("unlink({path})")));
            }
            let name = name.to_string();
            k.dir_of_mut(parent)?.remove(&name);
            k.inodes.remove(ino.0);
            k.cache.remove_file(ino.0);
            Ok(SyscallRet::Unit)
        })
        .map(|_| ())
    }

    // ------------------------------------------------------------------
    // File descriptor syscalls
    // ------------------------------------------------------------------

    fn openfile(&self, fd: Fd) -> SimResult<OpenFile> {
        self.fds
            .get(fd.0)
            .copied()
            .ok_or_else(|| SimError::new(Errno::Ebadf, format!("fd {}", fd.0)))
    }

    fn openfile_mut(&mut self, fd: Fd) -> SimResult<&mut OpenFile> {
        self.fds
            .get_mut(fd.0)
            .ok_or_else(|| SimError::new(Errno::Ebadf, format!("fd {}", fd.0)))
    }

    /// Opens (and possibly creates) a file.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> SimResult<Fd> {
        let make = || Syscall::Open {
            path: path.to_string(),
            flags,
        };
        self.sys(&sys::OPEN, [0; 3], make, |k| {
            let ino = match k.resolve(path) {
                Ok(i) => {
                    if k.inode(i)?.kind() == FileKind::Dir && (flags.write || flags.truncate) {
                        return Err(SimError::new(Errno::Eisdir, format!("open({path})")));
                    }
                    if flags.truncate {
                        k.check_writable_mount(i, path)?;
                        let node = k.inode_mut(i)?;
                        if let Some(f) = node.as_file_mut() {
                            f.truncate();
                        }
                        k.cache.remove_file(i.0);
                    }
                    i
                }
                Err(e) if e.errno == Errno::Enoent && flags.create => {
                    let (parent, name) = k.resolve_parent(path)?;
                    let mount = k.inode(parent)?.mount.ok_or_else(|| {
                        SimError::new(Errno::Erofs, format!("open({path}): no mount here"))
                    })?;
                    if k.mounts[mount.0].read_only {
                        return Err(SimError::new(Errno::Erofs, format!("open({path})")));
                    }
                    let ino = k.alloc_ino();
                    let now = k.now();
                    k.inodes.insert(
                        ino.0,
                        Inode {
                            ino,
                            mount: Some(mount),
                            body: InodeBody::File(FileNode::default()),
                            mtime: now,
                        },
                    );
                    let name = name.to_string();
                    k.inode_mut(parent)?
                        .as_dir_mut()
                        .ok_or_else(|| SimError::new(Errno::Enotdir, format!("open({path})")))?
                        .insert(name, ino);
                    ino
                }
                Err(e) => return Err(e),
            };
            if flags.write {
                k.check_writable_mount(ino, path)?;
            }
            let fd = Fd(k.next_fd);
            k.next_fd += 1;
            k.fds.insert(fd.0, OpenFile { ino, pos: 0, flags });
            Ok(SyscallRet::Fd(fd))
        })?
        .fd()
    }

    fn check_writable_mount(&self, ino: Ino, path: &str) -> SimResult<()> {
        let node = self.inode(ino)?;
        if let Some(m) = node.mount {
            if self.mounts[m.0].read_only {
                return Err(SimError::new(Errno::Erofs, format!("open({path})")));
            }
        }
        Ok(())
    }

    /// Closes a file descriptor.
    pub fn close(&mut self, fd: Fd) -> SimResult<()> {
        let make = || Syscall::Close { fd };
        self.sys(&sys::CLOSE, [fd.0, 0, 0], make, |k| {
            k.fds
                .remove(fd.0)
                .map(|_| SyscallRet::Unit)
                .ok_or_else(|| SimError::new(Errno::Ebadf, format!("close({})", fd.0)))
        })
        .map(|_| ())
    }

    /// Repositions a file offset.
    pub fn lseek(&mut self, fd: Fd, offset: i64, whence: Whence) -> SimResult<u64> {
        let make = || Syscall::Lseek { fd, offset, whence };
        self.sys(&sys::LSEEK, [fd.0, offset as u64, 0], make, |k| {
            let of = k.openfile(fd)?;
            let size = k.inode(of.ino)?.as_file().map(|f| f.size()).unwrap_or(0);
            let base = match whence {
                Whence::Set => 0i64,
                Whence::Cur => of.pos as i64,
                Whence::End => size as i64,
            };
            let new = base
                .checked_add(offset)
                .filter(|&n| n >= 0)
                .ok_or_else(|| SimError::new(Errno::Einval, format!("lseek({}, {offset})", fd.0)))?
                as u64;
            k.openfile_mut(fd)?.pos = new;
            Ok(SyscallRet::Count(new))
        })?
        .count()
    }

    /// Reads up to `len` bytes at the current offset.
    ///
    /// Returns the bytes actually read (shorter at end of file, empty at or
    /// past it), advancing the offset.
    pub fn read(&mut self, fd: Fd, len: usize) -> SimResult<Payload> {
        let make = || Syscall::Read { fd, len };
        self.sys(&sys::READ, [fd.0, len as u64, 0], make, |k| {
            k.do_read_fd(fd, None, len).map(SyscallRet::Bytes)
        })?
        .bytes()
    }

    /// Positioned read: `pread(2)`. Does not move the file offset.
    pub fn pread(&mut self, fd: Fd, pos: u64, len: usize) -> SimResult<Payload> {
        let make = || Syscall::Pread { fd, pos, len };
        self.sys(&sys::PREAD, [fd.0, len as u64, pos], make, |k| {
            k.do_read_fd(fd, Some(pos), len).map(SyscallRet::Bytes)
        })?
        .bytes()
    }

    /// The single fd-level read path `read` and `pread` (trapped or ring
    /// submitted) charge through: permission check, fault accounting via
    /// [`Kernel::do_read`], offset advance (sequential reads only) and
    /// `bytes_read`. `pos` is `None` for a sequential read at the file
    /// offset, `Some` for a positioned read that must not move it.
    fn do_read_fd(&mut self, fd: Fd, pos: Option<u64>, len: usize) -> SimResult<Payload> {
        let of = self.openfile(fd)?;
        if !of.flags.read {
            let name = if pos.is_some() { "pread" } else { "read" };
            return Err(SimError::new(
                Errno::Ebadf,
                format!("{name} on write-only fd"),
            ));
        }
        let data = self.do_read(of.ino, pos.unwrap_or(of.pos), len)?;
        if pos.is_none() {
            self.openfile_mut(fd)?.pos += data.len() as u64;
        }
        self.ledger.counts.bytes_read += data.len() as u64;
        Ok(data)
    }

    /// Writes `buf` at the current offset (or the end with `O_APPEND`),
    /// extending the file as needed. Returns bytes written.
    pub fn write(&mut self, fd: Fd, buf: &[u8]) -> SimResult<usize> {
        let make = || Syscall::Write {
            fd,
            data: buf.to_vec(),
        };
        self.sys(&sys::WRITE, [fd.0, buf.len() as u64, 0], make, |k| {
            let of = k.openfile(fd)?;
            if !of.flags.write {
                return Err(SimError::new(Errno::Ebadf, "write on read-only fd"));
            }
            let pos = if of.flags.append {
                k.inode(of.ino)?.as_file().map(|f| f.size()).unwrap_or(0)
            } else {
                of.pos
            };
            k.do_write(of.ino, pos, buf)?;
            k.openfile_mut(fd)?.pos = pos + buf.len() as u64;
            k.ledger.counts.bytes_written += buf.len() as u64;
            Ok(SyscallRet::Count(buf.len() as u64))
        })?
        .count()
        .map(index)
    }

    /// Flushes an open file's dirty pages to its device.
    pub fn fsync(&mut self, fd: Fd) -> SimResult<()> {
        let make = || Syscall::Fsync { fd };
        self.sys(&sys::FSYNC, [fd.0, 0, 0], make, |k| {
            let of = k.openfile(fd)?;
            let dirty = k.cache.dirty_pages_of(of.ino.0);
            for key in dirty {
                k.writeback(key)?;
                k.cache.mark_clean(key);
            }
            Ok(SyscallRet::Unit)
        })
        .map(|_| ())
    }

    /// Drops the entire page cache, writing dirty pages back first. Used by
    /// experiments that need a cold cache.
    pub fn drop_caches(&mut self) -> SimResult<()> {
        self.rec_unsupported("drop_caches");
        // The cache's own dirty set, in (inode, page) order. Every dirty
        // page belongs to a live inode: `unlink` and `O_TRUNC` drop a
        // file's pages when they drop the file.
        for key in self.cache.dirty_pages() {
            self.writeback(key)?;
            self.cache.mark_clean(key);
        }
        self.cache.clear();
        Ok(())
    }

    // ------------------------------------------------------------------
    // The read path
    // ------------------------------------------------------------------

    fn do_read(&mut self, ino: Ino, pos: u64, len: usize) -> SimResult<Payload> {
        let size = self
            .inode(ino)?
            .as_file()
            .ok_or_else(|| SimError::new(Errno::Eisdir, "read on directory"))?
            .size();
        if pos >= size || len == 0 {
            return Ok(Payload::zeros(0));
        }
        // Saturation intended: a request past u64::MAX still just reads to
        // end-of-file.
        let end = size.min(pos.saturating_add(len as u64));
        self.fault_in(ino, Pages::containing(pos), Pages::containing(end - 1))?;

        // Copy out to the caller. Sparse installs have no materialized
        // contents past `data.len()`; holes read as zeros. A read that finds
        // no stored bytes — most reads: the drivers' files are sparse —
        // builds no buffer, and under capture its digest comes from the
        // recorder's zero-page table. One that finds some fills one
        // allocation and, under capture, folds each piece while it is still
        // in cache from its copy, not read back whole by the recorder.
        let bytes = end - pos;
        self.charge_memcpy(bytes);
        let folds = self
            .recorder
            .as_ref()
            .is_some_and(|rec| rec.folds_payload());
        let f = self.file_of(ino)?;
        let len = f.data.len() as u64;
        let stored = &f.data[index(pos.min(len))..index(end.min(len))];
        let hole = index(bytes) - stored.len();
        let (out, fold) = if stored.is_empty() {
            let rec = self.recorder.as_mut().filter(|_| folds);
            (Payload::zeros(hole), rec.map(|rec| rec.fold_zeros(bytes)))
        } else {
            let mut out = Vec::with_capacity(index(bytes));
            let fold = if folds {
                let mut fold = PayloadFold::new();
                fold.copy_into(&mut out, stored);
                fold.zeros_into(&mut out, hole);
                Some(fold.finish())
            } else {
                out.extend_from_slice(stored);
                out.resize(index(bytes), 0);
                None
            };
            (Payload::from(out), fold)
        };
        if let (Some(fold), Some(rec)) = (fold, self.recorder.as_mut()) {
            rec.note_payload(bytes, fold);
        }
        Ok(out)
    }

    /// Ensures pages `[first, last]` of `ino` are resident, charging faults.
    fn fault_in(&mut self, ino: Ino, first_page: Pages, last_page: Pages) -> SimResult<()> {
        let mut p = first_page;
        while p <= last_page {
            let key = PageKey::new(ino.0, p.get());
            if self.cache.lookup(key) {
                self.ledger.counts.minor_faults += 1;
                let now = self.now();
                self.tracer.cache_hit(now, p.get(), ino.0);
                p += ONE_PAGE;
                continue;
            }
            // A missing run starts here. Stage the first page if it is
            // offline (this may remap part of the layout), then bound the
            // device command by three O(log runs) queries — demand window
            // end, next resident page, end of the maximal device-contiguous
            // layout run — instead of probing page by page.
            let run_start = p;
            let start_place = self.stage_if_offline(ino, p)?;
            let layout_end = self.layout_run_end(ino, p)?;
            let cache_end = Pages::new(self.cache.next_boundary(ino.0, p.get()));
            let run_end = (last_page + ONE_PAGE).min(layout_end).min(cache_end);
            let run_len = run_end - run_start;
            // Readahead: extend the device command past the demand window
            // while pages stay missing and device-contiguous. Prefetched
            // pages are inserted but are not major faults — touching them
            // later is a cache hit, as in a real kernel.
            let mut ra_len = Pages::ZERO;
            if self.cfg.readahead_pages > 0 && run_end > last_page {
                let file_pages = self
                    .inode(ino)?
                    .as_file()
                    .map(|f| f.page_count())
                    .unwrap_or_default();
                let ra_cap = (run_end + Pages::new(self.cfg.readahead_pages))
                    .min(file_pages)
                    .min(layout_end)
                    .min(cache_end);
                ra_len = ra_cap - run_end;
            }
            // One clustered device command for the run (plus readahead),
            // routed and hedged across volume members when the file is
            // redundant.
            let now = self.now();
            self.tracer
                .cache_miss(now, run_start.get(), run_len.get(), ino.0);
            self.redundant_read(ino, start_place, run_start, run_len + ra_len)?;
            self.ledger.counts.major_faults += run_len.get();
            self.charge_cpu(self.cfg.fault_cpu * run_len.get());
            self.cache_insert_run(ino, run_start, run_len + ra_len, false)?;
            p = run_end;
        }
        Ok(())
    }

    fn place_of(&self, ino: Ino, page: Pages) -> SimResult<PagePlace> {
        let f = self
            .inode(ino)?
            .as_file()
            .ok_or_else(|| SimError::new(Errno::Eisdir, "place_of on directory"))?;
        f.pages
            .place_of(page)
            .ok_or_else(|| SimError::new(Errno::Eio, format!("page {page} beyond mapping")))
    }

    /// First page past `page` at which the file's layout stops being
    /// device-contiguous with `page` — the end of its maximal layout run.
    fn layout_run_end(&self, ino: Ino, page: Pages) -> SimResult<Pages> {
        let f = self
            .inode(ino)?
            .as_file()
            .ok_or_else(|| SimError::new(Errno::Eisdir, "layout walk on directory"))?;
        f.pages
            .contiguous_end(page)
            .ok_or_else(|| SimError::new(Errno::Eio, format!("page {page} beyond mapping")))
    }

    fn is_offline(&self, ino: Ino, page: Pages) -> SimResult<bool> {
        let node = self.inode(ino)?;
        let mount = match node.mount {
            Some(m) => m,
            None => return Ok(false),
        };
        let hsm = match self.mounts[mount.0].hsm {
            Some(h) => h,
            None => return Ok(false),
        };
        Ok(self.place_of(ino, page)?.dev == hsm.tape)
    }

    /// If page `p` of `ino` lives on tape, stages a chunk around it onto the
    /// staging disk and remaps the staged pages. Returns the (possibly new)
    /// place of page `p`.
    fn stage_if_offline(&mut self, ino: Ino, p: Pages) -> SimResult<PagePlace> {
        if !self.is_offline(ino, p)? {
            return self.place_of(ino, p);
        }
        let mount = self
            .inode(ino)?
            .mount
            .ok_or_else(|| SimError::new(Errno::Eio, "offline page on an unmounted inode"))?;
        let hsm = self.mounts[mount.0]
            .hsm
            .ok_or_else(|| SimError::new(Errno::Eio, "offline page on a non-HSM mount"))?;
        let page_count = self.file_of(ino)?.page_count();
        let chunk = hsm.stage_chunk_pages;
        let chunk_start = Pages::new(p.get() / chunk.get() * chunk.get());
        let chunk_end = (chunk_start + chunk).min(page_count);

        // Walk the layout runs inside the chunk: each tape-resident run
        // (clipped to the chunk) is staged with one tape read plus one disk
        // write, then remapped to the disk copy. Pages already staged are
        // skipped a whole run at a time.
        let mut q = chunk_start;
        while q < chunk_end {
            let run = self
                .file_of(ino)?
                .pages
                .run_of(q)
                .ok_or_else(|| SimError::new(Errno::Eio, format!("page {q} beyond mapping")))?;
            let run_end = run.end_page().min(chunk_end);
            if run.dev != hsm.tape {
                q = run_end;
                continue;
            }
            let first = run.place_of(q);
            let run_len = run_end - q;
            // Tape read.
            self.device_command(first.dev, first.sector, run_len.sectors(), false)?;
            // Disk write of the staged copy.
            let staged_at = self.allocate_sectors(mount, run_len)?;
            let disk = self.mounts[mount.0].dev;
            self.device_command(disk, staged_at, run_len.sectors(), true)?;
            // Remap, remembering the tape home.
            let f = self.file_of_mut(ino)?;
            if f.tape_home.is_none() {
                f.tape_home = Some(f.pages.clone());
            }
            f.pages.remap_run(q, run_len, disk, staged_at);
            q = run_end;
        }
        self.place_of(ino, p)
    }

    // ------------------------------------------------------------------
    // Redundant reads: reroute, hedging, coded fan-out
    // ------------------------------------------------------------------

    /// The volume layout governing `ino`, if its mount is a volume.
    fn volume_of(&self, ino: Ino) -> Option<VolumeLayout> {
        let mount = self.inodes.get(ino.0)?.mount?;
        self.mounts.get(mount.0)?.volume.as_ref().map(|v| v.layout)
    }

    /// Every place that can serve pages starting at `first_page` of `ino`:
    /// `(member index, device, first sector)`, primary first.
    fn replica_candidates(
        &self,
        ino: Ino,
        primary: PagePlace,
        first_page: Pages,
    ) -> SimResult<Vec<(usize, DeviceId, Sectors)>> {
        let f = self.file_of(ino)?;
        let mut out = vec![(0usize, primary.dev, primary.sector)];
        for (i, map) in f.replicas.iter().enumerate() {
            if let Some(p) = map.place_of(first_page) {
                out.push((i + 1, p.dev, p.sector));
            }
        }
        Ok(out)
    }

    /// Healthy-profile service estimate for moving `bytes` off `dev` —
    /// the SLED-predicted deadline basis for hedging.
    fn nominal_estimate(&self, dev: DeviceId, bytes: u64) -> SimDuration {
        let p = self.devices[dev.0].profile();
        p.nominal_latency + p.nominal_bandwidth.transfer_time(bytes)
    }

    /// Live fault-priced completion prediction for a command of `bytes`
    /// submitted to `dev` at `now`: queue wait plus the profile estimate
    /// inflated by the device's current fault state.
    fn predicted_completion(&self, dev: DeviceId, bytes: u64, now: SimTime) -> SimDuration {
        let qwait = self.queues[dev.0].queue_wait(now);
        let est = self.nominal_estimate(dev, bytes);
        let est = match self.devices[dev.0].fault_state(now) {
            FaultState::Degraded(m) => SimDuration::from_secs_f64(est.as_secs_f64() * m),
            _ => est,
        };
        qwait + est
    }

    /// Issues the device read(s) for one missing run, routing across the
    /// file's volume members. Unreplicated and striped files issue the
    /// single primary command they always did; mirrored files pick the
    /// cheapest available copy (with hedging and failover); coded files
    /// fan out to the k cheapest fragments.
    fn redundant_read(
        &mut self,
        ino: Ino,
        primary: PagePlace,
        first_page: Pages,
        pages: Pages,
    ) -> SimResult<()> {
        match self.volume_of(ino) {
            Some(VolumeLayout::Mirrored) => self.mirrored_read(ino, primary, first_page, pages),
            Some(VolumeLayout::Coded { k }) => self.coded_read(ino, primary, first_page, pages, k),
            _ => self.device_command(primary.dev, primary.sector, pages.sectors(), false),
        }
    }

    /// A mirrored read: pick the cheapest *available* copy by healthy
    /// profile (offline members reroute instead of erroring), hedge a
    /// redundant request when the pick sits in a fault window or its
    /// queue wait alone exceeds the SLED-predicted deadline, and fail
    /// over to the remaining copies if the winner's device gives up.
    fn mirrored_read(
        &mut self,
        ino: Ino,
        primary: PagePlace,
        first_page: Pages,
        pages: Pages,
    ) -> SimResult<()> {
        let sectors = pages.sectors();
        let bytes = sectors.bytes();
        let now = self.now();
        let mut cands = self.replica_candidates(ino, primary, first_page)?;
        // Cheapest healthy-profile copy first; member order breaks ties,
        // keeping the primary preferred among equals.
        cands.sort_by(|a, b| {
            self.nominal_estimate(a.1, bytes)
                .cmp(&self.nominal_estimate(b.1, bytes))
                .then(a.0.cmp(&b.0))
        });
        let available: Vec<(usize, DeviceId, Sectors)> = cands
            .iter()
            .copied()
            .filter(|&(_, dev, _)| {
                !matches!(self.devices[dev.0].fault_state(now), FaultState::Offline)
            })
            .collect();
        if available.is_empty() {
            return Err(SimError::new(
                Errno::Eio,
                "mirrored volume: all replicas offline",
            ));
        }
        let chosen = available[0];
        let policy = self.cfg.hedge;
        let qwait = self.queues[chosen.1 .0].queue_wait(now);
        let deadline = SimDuration::from_secs_f64(
            self.nominal_estimate(chosen.1, bytes).as_secs_f64() * policy.deadline_mult,
        );
        let in_fault_window = matches!(
            self.devices[chosen.1 .0].fault_state(now),
            FaultState::Degraded(_)
        );
        // Every redundant request is either the winner or cancelled below.
        let mut contenders = vec![chosen];
        if in_fault_window || qwait > deadline {
            let extra = policy.extra(available.len());
            contenders.extend(available.iter().skip(1).take(extra).copied());
        }
        let mut winner_at = 0usize;
        for i in 1..contenders.len() {
            if self.predicted_completion(contenders[i].1, bytes, now)
                < self.predicted_completion(contenders[winner_at].1, bytes, now)
            {
                winner_at = i;
            }
        }
        let winner = contenders[winner_at];
        let winner_class = self.devices[winner.1 .0].class().code();
        for (i, &(_, dev, sector)) in contenders.iter().enumerate() {
            if i == winner_at {
                continue;
            }
            // The loser is issued and revoked: `CostOutcome::Cancelled`.
            let loser = policy.cancelled(self.cost_at_submit(dev, sector, sectors), winner_class);
            self.post(&loser);
        }
        if winner.0 != chosen.0 {
            self.ledger.counts.hedge_wins += 1;
        }
        // Winner first, then the remaining available copies as failover
        // targets; bounded by the member count.
        let mut last_err: Option<SimError> = None;
        let order =
            std::iter::once(winner).chain(available.iter().copied().filter(|c| c.0 != winner.0));
        for (_, dev, sector) in order {
            match self.device_command(dev, sector, sectors, false) {
                Ok(_) => return Ok(()),
                Err(e) if matches!(e.errno, Errno::Eio | Errno::Etimedout) => {
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            SimError::new(Errno::Eio, "mirrored volume: no replica could serve")
        }))
    }

    /// A (k, n)-coded read: fan out to the k cheapest available fragment
    /// homes (fault-priced), let them run concurrently, and charge the
    /// caller to the straggler's completion — the k-th cheapest fragment,
    /// exactly the SLED the pricing layer quotes. A fragment failed by an
    /// injected fault is excluded and replaced by the next-cheapest
    /// member (bounded by the member count); fewer than k available
    /// members is the only hard failure.
    fn coded_read(
        &mut self,
        ino: Ino,
        primary: PagePlace,
        first_page: Pages,
        pages: Pages,
        k: u32,
    ) -> SimResult<()> {
        let k = (k.max(1)) as usize;
        let frag_sectors = Sectors::new(pages.sectors().get().div_ceil(k as u64));
        let frag_bytes = frag_sectors.bytes();
        let cands = self.replica_candidates(ino, primary, first_page)?;
        // Members already used: served (their events are in `done`, and
        // survive re-picks) or excluded by a fault.
        let mut used: Vec<usize> = Vec::new();
        let mut done: Vec<DeviceCost> = Vec::new();
        // Every pass either finishes the k fragments or uses up at least
        // one more member, so one pass per member (and a last one that
        // finds none left) is all there can be.
        for _ in 0..=cands.len() {
            if done.len() == k {
                break;
            }
            let now = self.now();
            let mut avail: Vec<(usize, DeviceId, Sectors)> = cands
                .iter()
                .copied()
                .filter(|&(m, dev, _)| {
                    !used.contains(&m)
                        && !matches!(self.devices[dev.0].fault_state(now), FaultState::Offline)
                })
                .collect();
            let have = avail.len() + done.len();
            if have < k {
                let why = format!("coded volume: only {have} of {k} fragments available");
                return Err(SimError::new(Errno::Eio, why));
            }
            avail.sort_by(|a, b| {
                self.predicted_completion(a.1, frag_bytes, now)
                    .cmp(&self.predicted_completion(b.1, frag_bytes, now))
                    .then(a.0.cmp(&b.0))
            });
            let need = k - done.len();
            for &(m, dev, sector) in avail.iter().take(need) {
                used.push(m);
                match self.submit(dev, sector, frag_sectors, false, 1, Wait::Overlapped) {
                    Attempt::Served(ev) => done.push(ev),
                    Attempt::Refused(err) => return Err(err),
                    // Posted and paid for serially like any faulted attempt;
                    // the member stays excluded and the pick is repeated.
                    Attempt::Faulted(_) => break,
                }
            }
        }
        // Charge to the straggler: the fan-out completes when its slowest
        // chosen fragment does (the first such, on a tie). Split the
        // straggler's own queue wait out of the I/O charge so queue-wait
        // accounting stays meaningful.
        if let Some(ev) = done.iter().rev().max_by_key(|ev| ev.complete()) {
            let gap = ev.complete().duration_since(self.now());
            let qpart = ev.queue_wait.min(gap);
            self.ledger.queue_wait(qpart);
            self.ledger.io(gap - qpart);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The write path
    // ------------------------------------------------------------------

    fn do_write(&mut self, ino: Ino, pos: u64, buf: &[u8]) -> SimResult<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let mount = self
            .inode(ino)?
            .mount
            .ok_or_else(|| SimError::new(Errno::Erofs, "write outside any mount"))?;
        if self.mounts[mount.0].read_only {
            return Err(SimError::new(Errno::Erofs, "write on read-only mount"));
        }
        let end = pos
            .checked_add(buf.len() as u64)
            .ok_or_else(|| SimError::new(Errno::Efbig, "write end offset overflows u64"))?;
        // Grow the mapping first, run by run (fragmentation decides the
        // allocation chunking; `append_run` merges contiguous chunks).
        let old_pages = {
            let f = self
                .inode(ino)?
                .as_file()
                .ok_or_else(|| SimError::new(Errno::Eisdir, "write on directory"))?;
            f.pages.page_count()
        };
        let new_pages = Pages::spanning(end);
        if new_pages > old_pages {
            let added = new_pages - old_pages;
            // `layout_pages` respects fragmentation chunks and volume
            // striping alike; fold its runs onto the tail of the map
            // (`append_run` merges contiguous chunks).
            let added_map = self.layout_pages(mount, added)?;
            let runs = added_map.runs_in(Pages::ZERO, added - ONE_PAGE);
            let f = self.file_of_mut(ino)?;
            for run in &runs {
                f.pages.append_run(run.dev, run.sector, run.pages);
            }
            // Grow every replica in lockstep so mirrored and coded files
            // stay fully covered on all members.
            let members = match self.mounts[mount.0].volume.as_ref() {
                Some(v)
                    if matches!(
                        v.layout,
                        VolumeLayout::Mirrored | VolumeLayout::Coded { .. }
                    ) =>
                {
                    v.devices.len()
                }
                _ => 0,
            };
            for member in 1..members {
                let (dev, first) = self.allocate_member(mount, member, added)?;
                let f = self.file_of_mut(ino)?;
                while f.replicas.len() < member {
                    f.replicas.push(PageMap::new());
                }
                f.replicas[member - 1].append_run(dev, first, added);
            }
        }

        // Partial first/last pages that exist on stable storage need
        // read-modify-write if not cached.
        let first_page = Pages::containing(pos);
        let last_page = Pages::containing(end - 1);
        let old_size = self.file_of(ino)?.size();
        for page in [first_page, last_page] {
            let page_start = page.bytes();
            // Saturation intended: a ragged final page at the top of the
            // offset space still counts as not fully covered.
            let page_end = (page + ONE_PAGE).bytes();
            let covered = pos <= page_start && end >= page_end;
            let has_old_data = page_start < old_size;
            if !covered && has_old_data && !self.cache.contains(PageKey::new(ino.0, page.get())) {
                // Fault the page in for the partial overwrite.
                self.fault_in(ino, page, page)?;
            }
        }

        // Memory copy of the written bytes.
        self.charge_memcpy(buf.len() as u64);

        // Store contents and dirty the pages.
        {
            let now = self.now();
            let node = self.inode_mut(ino)?;
            node.mtime = now;
            let f = node
                .as_file_mut()
                .ok_or_else(|| SimError::new(Errno::Eisdir, "write on directory"))?;
            if f.data.len() < index(end) {
                f.data.resize(index(end), 0);
            }
            f.data[index(pos)..index(end)].copy_from_slice(buf);
            if end > f.size() {
                f.set_size(end);
            }
        }
        self.cache_insert_run(ino, first_page, last_page - first_page + ONE_PAGE, true)
    }

    fn allocate_sectors(&mut self, mount: MountId, pages: Pages) -> SimResult<Sectors> {
        let m = &mut self.mounts[mount.0];
        // Fragmentation: skip a random gap before each chunk.
        if let Some(frag) = &mut m.frag {
            let gap = Pages::new(frag.rng.range_u64(0, frag.gap_pages + 1));
            // Saturation intended: a saturated cursor fails the capacity
            // check below as "device full" instead of wrapping.
            m.next_sector += gap.sectors();
        }
        let first = m.next_sector;
        let cap = Sectors::new(self.devices[m.dev.0].capacity_sectors());
        let end = first
            .checked_add(pages.sectors())
            .filter(|&end| end <= cap)
            .ok_or_else(|| {
                SimError::new(
                    Errno::Enospc,
                    format!("device {} full", self.devices[m.dev.0].name()),
                )
            })?;
        let m = &mut self.mounts[mount.0];
        m.next_sector = end;
        Ok(first)
    }

    /// Brings pages `first .. first + pages` of `ino` into the cache, one
    /// [`PageCache::insert_run`] per stretch that ends in a dirty victim:
    /// every victim is traced, and a dirty one is written back — at the
    /// clock and cache state it left at — before the next page goes in.
    fn cache_insert_run(
        &mut self,
        ino: Ino,
        first: Pages,
        pages: Pages,
        dirty: bool,
    ) -> SimResult<()> {
        // A run of one — every read of a one-page file — has at most one
        // victim and needs no list to hold it.
        if pages == ONE_PAGE {
            return match self.cache.insert(PageKey::new(ino.0, first.get()), dirty) {
                Some(ev) => self.evicted(ev),
                None => Ok(()),
            };
        }
        let mut victims = Vec::new();
        let mut done = Pages::ZERO;
        while done < pages {
            let (at, left) = ((first + done).get(), (pages - done).get());
            done += Pages::new(self.cache.insert_run(ino.0, at, left, dirty, &mut victims));
            for ev in victims.drain(..) {
                // Only the last victim of a stretch can be dirty.
                self.evicted(ev)?;
            }
        }
        Ok(())
    }

    /// Traces one eviction and writes the page back if it was dirty.
    fn evicted(&mut self, ev: Evicted) -> SimResult<()> {
        let now = self.now();
        self.tracer
            .cache_evict(now, ev.key.index, u64::from(ev.dirty), ev.key.inode);
        if ev.dirty {
            self.writeback(ev.key)?;
        }
        Ok(())
    }

    fn writeback(&mut self, key: PageKey) -> SimResult<()> {
        // The inode may already be gone (unlink with dirty pages).
        let (place, extras, frag_sectors, needed) = {
            let node = match self.inodes.get(key.inode) {
                Some(n) => n,
                None => return Ok(()),
            };
            let f = match node.as_file() {
                Some(f) => f,
                None => return Ok(()),
            };
            let page = Pages::new(key.index);
            let place = match f.pages.place_of(page) {
                Some(p) => p,
                None => return Ok(()),
            };
            let layout = node
                .mount
                .and_then(|m| self.mounts.get(m.0))
                .and_then(|m| m.volume.as_ref())
                .map(|v| v.layout);
            match layout {
                Some(VolumeLayout::Mirrored) | Some(VolumeLayout::Coded { .. }) => {
                    let extras: Vec<PagePlace> = f
                        .replicas
                        .iter()
                        .filter_map(|map| map.place_of(page))
                        .collect();
                    let (frag, needed) = match layout {
                        Some(VolumeLayout::Coded { k }) => {
                            let k = u64::from(k.max(1));
                            let frag = ONE_PAGE.sectors().get().div_ceil(k);
                            (Sectors::new(frag), index(k))
                        }
                        _ => (ONE_PAGE.sectors(), 1),
                    };
                    (place, extras, frag, needed)
                }
                _ => (place, Vec::new(), ONE_PAGE.sectors(), 1),
            }
        };
        let now = self.now();
        self.tracer.cache_writeback(now, key.index, key.inode);
        if extras.is_empty() {
            return self.device_command(place.dev, place.sector, frag_sectors, true);
        }
        // Redundant volume: write every member's copy/fragment, but
        // tolerate member failures while enough copies land (one for a
        // mirror, k fragments for a (k, n) code) — degraded redundancy,
        // not an application-visible error.
        let mut ok = 0usize;
        let mut last_err: Option<SimError> = None;
        for p in std::iter::once(place).chain(extras) {
            match self.device_command(p.dev, p.sector, frag_sectors, true) {
                Ok(_) => ok += 1,
                Err(e) if matches!(e.errno, Errno::Eio | Errno::Etimedout) => {
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        if ok >= needed {
            return Ok(());
        }
        Err(last_err.unwrap_or_else(|| {
            SimError::new(
                Errno::Eio,
                "redundant writeback: no member accepted the page",
            )
        }))
    }

    // ------------------------------------------------------------------
    // SLEDs kernel hook and HSM administration
    // ------------------------------------------------------------------

    fn charge_page_walk(&mut self, extents: u64, pages: Pages) {
        self.charge_cpu(self.cfg.page_walk_cost(extents, pages.get()));
    }

    /// The residency walk itself: merges the cache's resident extents with
    /// the file's layout runs and collects what `make` turns each into.
    /// Cost is proportional to the number of extents emitted, not the
    /// number of pages; no per-page map is ever materialized.
    fn extents_of<T>(
        &self,
        ino: Ino,
        mut make: impl FnMut(&FileNode, PageExtent) -> T,
    ) -> SimResult<Vec<T>> {
        let f = self
            .inode(ino)?
            .as_file()
            .ok_or_else(|| SimError::new(Errno::Eisdir, "FSLEDS_GET on directory"))?;
        let n = f.page_count();
        let mut out = Vec::new();
        let mut p = Pages::ZERO;
        while p < n {
            let boundary = Pages::new(self.cache.next_boundary(ino.0, p.get())).min(n);
            if self.cache.contains(PageKey::new(ino.0, p.get())) {
                let extent = PageExtent {
                    first_page: p.get(),
                    pages: (boundary - p).get(),
                    location: PageLocation::Memory,
                };
                out.push(make(f, extent));
            } else {
                // A non-resident span: split it by layout runs so each
                // extent is device-contiguous.
                for r in f.pages.runs_in(p, boundary - ONE_PAGE) {
                    let extent = PageExtent {
                        first_page: r.start_page.get(),
                        pages: r.pages.get(),
                        location: PageLocation::Device {
                            dev: r.dev,
                            sector: r.sector.get(),
                        },
                    };
                    out.push(make(f, extent));
                }
            }
            p = boundary;
        }
        Ok(out)
    }

    /// The bare extents, for callers that price nothing.
    fn page_extents_of(&self, ino: Ino) -> SimResult<Vec<PageExtent>> {
        self.extents_of(ino, |_, extent| extent)
    }

    /// The kernel half of `FSLEDS_GET`, run-length form: where does each
    /// extent of this open file live right now? Cost is one probe per
    /// extent plus a per-page floor — O(runs), not O(pages).
    pub fn page_extents(&mut self, fd: Fd) -> SimResult<Vec<PageExtent>> {
        self.ioctl(&IOCTL_FSLEDS_GET, [fd.0, 0, 0], |k| {
            let of = k.openfile(fd)?;
            let out = k.page_extents_of(of.ino)?;
            let pages = out.last().map(|e| e.end_page()).unwrap_or(0);
            k.charge_page_walk(out.len() as u64, Pages::new(pages));
            Ok(out)
        })
    }

    /// The redundancy-aware half of `FSLEDS_GET`: every extent of the open
    /// file, each carrying the replica places that could serve it too.
    /// Extents of unreplicated files come back with no alternatives and
    /// cost exactly what [`Kernel::page_extents`] costs; redundant extents
    /// pay one extra probe per alternative. The pricing layer
    /// ([`sled::fold`]) turns each alternative into a fault-priced
    /// candidate and quotes the min-cost *available* one (the k-th
    /// cheapest for a coded layout).
    pub fn redundant_extents(&mut self, fd: Fd) -> SimResult<Vec<RedundantExtent>> {
        self.ioctl(&IOCTL_FSLEDS_GET, [fd.0, 1, 0], |k| {
            let of = k.openfile(fd)?;
            k.redundant_extents_of(of.ino)
        })
    }

    /// The walk behind [`Kernel::redundant_extents`], charged: one probe
    /// per extent and per alternative, plus the per-page floor.
    fn redundant_extents_of(&mut self, ino: Ino) -> SimResult<Vec<RedundantExtent>> {
        let volume_k = self.volume_of(ino).and_then(|l| l.coded_k());
        let mut probes = 0u64;
        let out = self.extents_of(ino, |f, extent| {
            // Memory extents need no alternative: they are already the
            // cheapest possible source.
            let alternatives: Vec<ReplicaPlace> =
                if matches!(extent.location, PageLocation::Device { .. }) {
                    f.replicas
                        .iter()
                        .filter_map(|map| map.place_of(Pages::new(extent.first_page)))
                        .map(|p| ReplicaPlace {
                            dev: p.dev,
                            sector: p.sector.get(),
                        })
                        .collect()
                } else {
                    Vec::new()
                };
            probes += alternatives.len() as u64;
            let coded_k = volume_k.filter(|_| !alternatives.is_empty());
            RedundantExtent {
                extent,
                alternatives,
                coded_k,
            }
        })?;
        let pages = out.last().map(|e| e.extent.end_page()).unwrap_or(0);
        self.charge_page_walk(out.len() as u64 + probes, Pages::new(pages));
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Submission ring and in-kernel pick programs
    // ------------------------------------------------------------------

    /// Ring batches serviced so far (one boundary crossing each).
    pub fn ring_enters(&self) -> u64 {
        self.ring_enters
    }

    /// Ring operations serviced so far, across all batches.
    pub fn ring_ops_serviced(&self) -> u64 {
        self.ring_ops
    }

    /// `ring_enter`: services the ring's queued submissions in **one**
    /// boundary crossing. Charges `syscall_cpu` once for the crossing and
    /// `ring_op_cpu` per serviced op; each op then performs exactly the
    /// same work (and faulting/memcpy/device accounting) as its sequential
    /// twin. Stops early when the completion queue fills — the leftovers
    /// stay queued for the next enter. Returns the number serviced.
    pub fn ring_enter(&mut self, ring: &mut SubmissionRing) -> SimResult<usize> {
        // The ring's ops run on (and are charged to) the ring owner's
        // timeline, whoever drives the enter — asynchronous submission:
        // the driver's own clock does not advance for the batch.
        let prev = self.active_tenant();
        self.tenant_switch(ring.tenant())?;
        let submitted = ring.sq_len() as u64;
        let capacity = ring.capacity();
        let make = || Syscall::RingEnter {
            capacity,
            ops: Vec::new(),
        };
        let r = self.sys(&sys::RING_ENTER, [submitted, 0, 0], make, |k| {
            k.ring_enters += 1;
            let mut serviced = 0u64;
            while ring.cq_has_room() {
                let Some((user_data, op)) = ring.pop_op() else {
                    break;
                };
                k.ring_slot = Some(user_data);
                let result = k.syscall(&op);
                k.ring_slot = None;
                ring.complete(RingCompletion { user_data, result });
                serviced += 1;
            }
            let now = k.now();
            k.tracer.ring_submit(now, submitted, serviced);
            Ok(SyscallRet::Count(serviced))
        });
        self.tenant_switch(prev)?;
        r?.count().map(index)
    }

    /// Reaps every pending completion. The queues live in user-mapped
    /// memory, so reaping crosses nothing and charges nothing.
    pub fn ring_reap(&mut self, ring: &mut SubmissionRing) -> Vec<RingCompletion> {
        let out = ring.drain_completions();
        let now = self.now();
        self.tracer.ring_reap(now, out.len() as u64);
        out
    }

    /// `FSLEDS_GET` below the boundary: the SLED vector of `ino` priced
    /// from the table that crossed with the call. Charges the extent walk
    /// (the work), not the two syscall traps the sequential `fstat` +
    /// `FSLEDS_GET` pair pays.
    fn sleds_of(&mut self, ino: Ino, table: &SledsTable) -> SimResult<Vec<Sled>> {
        sled::memory_row(table)?;
        let size = self.stat_ino(ino)?.size;
        let extents = self.redundant_extents_of(ino)?;
        sled::fold(self, table, size, &extents)
    }

    /// Prices `ino` and runs `prog` over it: the evaluation step behind
    /// every file of a walk.
    fn eval_prog(
        &mut self,
        ino: Ino,
        prog: &PickProgram,
        table: &SledsTable,
    ) -> SimResult<(bool, ProgInputs)> {
        let mem = sled::memory_row(table)?;
        let sleds = self.sleds_of(ino, table)?;
        // Interpretation is charged at the certified worst-case bound, not
        // the path actually taken: the price of running a program is fixed
        // at admission, so accounting cannot depend on file contents or
        // verdicts.
        self.charge_cpu(SimDuration::from_nanos(prog.cert().worst_ns));
        let inputs = prog_inputs(&sleds, mem);
        let matched = prog.matches(&inputs);
        let now = self.now();
        self.tracer.prog_eval(
            now,
            prog.len() as u64,
            u64::from(matched),
            estimate_ns(inputs.delivery_time),
        );
        Ok((matched, inputs))
    }

    /// A program-driven directory walk (`fsleds_walk`): visits the tree
    /// under `root` depth-first in name order — the order `find` visits —
    /// pricing every regular file against the pushed table and evaluating
    /// `prog` over it, all inside **one** boundary crossing. Per-file
    /// pricing failures (say, a device with no table row) are captured in
    /// the entry's `error` and the walk continues, like `find`'s
    /// diagnostics. Honors [`ProgOrder::CachedFirst`] (matched files
    /// first, most-cached first, stable; everything else after in file
    /// order) and `first_match_exit` (stop at the first matching file).
    pub fn fsleds_walk(
        &mut self,
        root: &str,
        prog: &PickProgram,
        table: &SledsTable,
    ) -> SimResult<Vec<WalkEntry>> {
        self.ioctl(&Entry::ioctl("ioctl.fsleds_walk"), [0; 3], |k| {
            let ino = k.resolve(root)?;
            let mut out: Vec<(WalkEntry, f64)> = Vec::new();
            let mut done = false;
            let mut path = root.to_string();
            k.walk_node(&mut path, ino, prog, table, &mut out, &mut done)?;
            if prog.order == ProgOrder::CachedFirst {
                // Matched files first, most-cached first; stable, so ties
                // and the unmatched tail keep file order.
                out.sort_by(|a, b| match (a.0.matched, b.0.matched) {
                    (true, true) => b.1.total_cmp(&a.1),
                    (a_hit, b_hit) => b_hit.cmp(&a_hit),
                });
            }
            Ok(out.into_iter().map(|(e, _)| e).collect())
        })
    }

    /// One node of the walk. `path` is the node's own path on entry and
    /// again on `Ok` return; a directory extends it in place for each child,
    /// so the only allocation per file is the `path` of the entry it emits.
    fn walk_node(
        &mut self,
        path: &mut String,
        ino: Ino,
        prog: &PickProgram,
        table: &SledsTable,
        out: &mut Vec<(WalkEntry, f64)>,
        done: &mut bool,
    ) -> SimResult<()> {
        if *done {
            return Ok(());
        }
        let stat = self.stat_ino(ino)?;
        // Per-entry in-kernel dispatch work, priced like a ring op. The
        // program interpretation itself is charged separately below, from
        // the cost certificate stamped at admission.
        let d = self.cfg.ring_op_cpu;
        self.charge_cpu(d);
        if stat.kind == FileKind::File {
            let (entry, cached) = match self.eval_prog(ino, prog, table) {
                Ok((matched, inputs)) => {
                    if matched && prog.first_match_exit {
                        *done = true;
                    }
                    (
                        WalkEntry {
                            path: path.clone(),
                            kind: stat.kind,
                            size: stat.size,
                            estimate_secs: Some(inputs.delivery_time),
                            matched,
                            error: None,
                        },
                        inputs.cached_fraction,
                    )
                }
                Err(e) => (
                    WalkEntry {
                        path: path.clone(),
                        kind: stat.kind,
                        size: stat.size,
                        estimate_secs: None,
                        matched: false,
                        error: Some(e),
                    },
                    0.0,
                ),
            };
            out.push((entry, cached));
            return Ok(());
        }
        out.push((
            WalkEntry {
                path: path.clone(),
                kind: stat.kind,
                size: stat.size,
                estimate_secs: None,
                matched: false,
                error: None,
            },
            0.0,
        ));
        // The directory cannot stay borrowed across the recursion, so its
        // names are copied once: one arena string plus each name's end.
        let mut names = String::new();
        let mut children: Vec<(usize, Ino)> = Vec::new();
        {
            let node = self.inode(ino)?;
            let dir = node
                .as_dir()
                .ok_or_else(|| SimError::new(Errno::Enotdir, format!("fsleds_walk({path})")))?;
            children.reserve(dir.len());
            for (name, &child) in dir {
                names.push_str(name);
                children.push((names.len(), child));
            }
        }
        let own_len = path.len();
        if path != "/" {
            path.push('/');
        }
        let stem_len = path.len();
        let mut start = 0;
        for (end, child) in children {
            if *done {
                break;
            }
            path.push_str(&names[start..end]);
            self.walk_node(path, child, prog, table, out, done)?;
            path.truncate(stem_len);
            start = end;
        }
        path.truncate(own_len);
        Ok(())
    }

    /// The per-page form of [`Kernel::page_extents`]: one [`PageLocation`]
    /// per file page, produced by expanding the extent walk. Same O(runs)
    /// probe cost (the expansion is covered by the per-page floor).
    pub fn page_locations(&mut self, fd: Fd) -> SimResult<Vec<PageLocation>> {
        self.ioctl(&Entry::query("page_locations"), [0; 3], |k| {
            let of = k.openfile(fd)?;
            let extents = k.page_extents_of(of.ino)?;
            let pages = extents.last().map(|e| e.end_page()).unwrap_or(0);
            k.charge_page_walk(extents.len() as u64, Pages::new(pages));
            let mut out = Vec::with_capacity(index(pages));
            for e in extents {
                match e.location {
                    PageLocation::Memory => out.extend((0..e.pages).map(|_| PageLocation::Memory)),
                    PageLocation::Device { dev, sector } => {
                        for i in 0..e.pages {
                            out.push(PageLocation::Device {
                                dev,
                                sector: (Sectors::new(sector) + Pages::new(i).sectors()).get(),
                            });
                        }
                    }
                }
            }
            Ok(out)
        })
    }

    /// The original per-page residency walk, kept as a test oracle:
    /// materializes the whole per-page map and probes the cache once per
    /// page, charging the per-page walk cost. The equivalence suites check
    /// the extent walk's answers and its price against this.
    pub fn page_locations_per_page_reference(&mut self, fd: Fd) -> SimResult<Vec<PageLocation>> {
        self.ioctl(&Entry::query("page_locations"), [0; 3], |k| {
            let of = k.openfile(fd)?;
            let f = k
                .inode(of.ino)?
                .as_file()
                .ok_or_else(|| SimError::new(Errno::Eisdir, "FSLEDS_GET on directory"))?;
            let n = f.page_count().get();
            // The old implementation cloned the per-page map; reproduce that
            // allocation by expanding the runs.
            let places: Vec<PagePlace> = (0..n)
                .filter_map(|p| f.pages.place_of(Pages::new(p)))
                .collect();
            k.charge_cpu(k.cfg.page_walk_cost_per_page(n));
            let mut out = Vec::with_capacity(index(n));
            for (i, place) in places.iter().enumerate().take(index(n)) {
                if k.cache.contains(PageKey::new(of.ino.0, i as u64)) {
                    out.push(PageLocation::Memory);
                } else {
                    out.push(PageLocation::Device {
                        dev: place.dev,
                        sector: place.sector.get(),
                    });
                }
            }
            Ok(out)
        })
    }

    /// A version stamp for an open file's SLED vector: changes whenever the
    /// file's cache residency, layout, or size changes — or any device
    /// enters or leaves a fault window — and never repeats.
    /// `FSLEDS_GET` callers memoize their last vector against this stamp
    /// and skip the walk while it holds. Charges only the syscall cost —
    /// that is the point.
    pub fn sled_generation(&mut self, fd: Fd) -> SimResult<u64> {
        self.ioctl(&Entry::query("sled_generation"), [0; 3], |k| {
            let of = k.openfile(fd)?;
            let layout = k
                .inode(of.ino)?
                .as_file()
                .ok_or_else(|| SimError::new(Errno::Eisdir, "sled_generation on directory"))?
                .pages
                .generation();
            // All four counters are monotone, so their sum is a valid version:
            // any change to any one strictly increases it. The device fault
            // epochs invalidate stamped vectors the moment the clock crosses
            // a fault-window boundary anywhere in the stack.
            Ok(k.cache.generation(of.ino.0) + layout + k.sleds_epoch + k.fault_epoch_total())
        })
    }

    /// Number of resident extents the cache tracks for an open file — the
    /// `runs` term of the walk cost; exposed for tests.
    pub fn resident_extents(&self, fd: Fd) -> SimResult<usize> {
        let of = self.openfile(fd)?;
        Ok(self.cache.resident_run_count(of.ino.0))
    }

    /// For each page of an open file: how many cache insertions could
    /// happen before that page is evicted under the current replacement
    /// policy (`None` for non-resident pages or unpredictable policies).
    /// The kernel half of the paper's "predict which pages of a file would
    /// be flushed from cache" extension; charges the page-walk cost.
    pub fn page_eviction_ranks(&mut self, fd: Fd) -> SimResult<Vec<Option<usize>>> {
        self.ioctl(&Entry::query("page_eviction_ranks"), [0; 3], |k| {
            let of = k.openfile(fd)?;
            let n = k
                .inode(of.ino)?
                .as_file()
                .ok_or_else(|| SimError::new(Errno::Eisdir, "eviction ranks on directory"))?
                .page_count()
                .get();
            k.charge_cpu(k.cfg.page_walk_cost_per_page(n));
            Ok(k.cache.eviction_ranks(of.ino.0, n))
        })
    }

    /// Migrates a file on an HSM mount to tape, freeing its disk residence
    /// and cached pages. Charges the tape write unless `free` is set (used
    /// by experiment setup).
    pub fn hsm_migrate(&mut self, path: &str, free: bool) -> SimResult<()> {
        self.rec_unsupported("hsm_migrate");
        let ino = self.resolve(path)?;
        let mount = self
            .inode(ino)?
            .mount
            .ok_or_else(|| SimError::new(Errno::Einval, format!("hsm_migrate({path})")))?;
        let hsm = self.mounts[mount.0].hsm.ok_or_else(|| {
            SimError::new(
                Errno::Einval,
                format!("hsm_migrate({path}): not an HSM mount"),
            )
        })?;
        let pages = {
            let f = self
                .inode(ino)?
                .as_file()
                .ok_or_else(|| SimError::new(Errno::Eisdir, format!("hsm_migrate({path})")))?;
            f.page_count()
        };
        if pages == Pages::ZERO {
            return Ok(());
        }
        // Allocate a contiguous tape region.
        let sectors = pages.sectors();
        let first = {
            let h = self.mounts[mount.0].hsm.as_mut().ok_or_else(|| {
                SimError::new(
                    Errno::Einval,
                    format!("hsm_migrate({path}): not an HSM mount"),
                )
            })?;
            let first = h.tape_next_sector;
            h.tape_next_sector = first
                .checked_add(sectors)
                .ok_or_else(|| SimError::new(Errno::Enospc, format!("hsm_migrate({path})")))?;
            first
        };
        if !free {
            self.device_command(hsm.tape, first, sectors, true)?;
        }
        let f = self.file_of_mut(ino)?;
        let mapped = f.pages.page_count();
        f.pages.remap_run(Pages::ZERO, mapped, hsm.tape, first);
        f.tape_home = None;
        self.cache.remove_file(ino.0);
        Ok(())
    }

    /// True when any page of the file is tape-resident (the classic HSM
    /// "offline" bit that Windows 2000 / TOPS-20 / RASH exposed).
    pub fn hsm_is_offline(&self, path: &str) -> SimResult<bool> {
        let ino = self.resolve(path)?;
        let f = self
            .inode(ino)?
            .as_file()
            .ok_or_else(|| SimError::new(Errno::Eisdir, format!("hsm_is_offline({path})")))?;
        for p in 0..f.page_count().get() {
            if self.is_offline(ino, Pages::new(p))? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    // ------------------------------------------------------------------
    // Experiment setup helpers (zero-cost, not part of the syscall API)
    // ------------------------------------------------------------------

    /// Allocates `pages` contiguous pages on volume member `member` of
    /// `mount` and returns `(device, first sector)`. Member 0 is the
    /// primary and goes through the mount's ordinary allocator (honoring
    /// fragmentation); replica members use their own bump cursor —
    /// replicas are laid out contiguously, the simulation's stand-in for
    /// a freshly synced copy.
    fn allocate_member(
        &mut self,
        mount: MountId,
        member: usize,
        pages: Pages,
    ) -> SimResult<(DeviceId, Sectors)> {
        if member == 0 {
            let first = self.allocate_sectors(mount, pages)?;
            return Ok((self.mounts[mount.0].dev, first));
        }
        let (dev, first) = {
            let v = self.mounts[mount.0].volume.as_ref().ok_or_else(|| {
                SimError::new(Errno::Einval, "replica allocation on non-volume mount")
            })?;
            let dev = *v.devices.get(member).ok_or_else(|| {
                SimError::new(Errno::Einval, format!("volume has no member {member}"))
            })?;
            (dev, v.replica_next[member - 1])
        };
        let cap = Sectors::new(self.devices[dev.0].capacity_sectors());
        let end = first
            .checked_add(pages.sectors())
            .filter(|&end| end <= cap)
            .ok_or_else(|| {
                SimError::new(
                    Errno::Enospc,
                    format!("device {} full", self.devices[dev.0].name()),
                )
            })?;
        if let Some(v) = self.mounts[mount.0].volume.as_mut() {
            v.replica_next[member - 1] = end;
        }
        Ok((dev, first))
    }

    /// Lays out `pages` pages on `mount` by its allocator, honoring
    /// fragmentation, without charging any time. On a striped volume the
    /// chunks round-robin across the members instead.
    fn layout_pages(&mut self, mount: MountId, pages: Pages) -> SimResult<PageMap> {
        let striped = match self.mounts[mount.0].volume.as_ref() {
            Some(v) => match v.layout {
                VolumeLayout::Striped { stripe_pages } => {
                    Some((Pages::new(stripe_pages.max(1)), v.devices.len()))
                }
                _ => None,
            },
            None => None,
        };
        let mut map = PageMap::new();
        let mut left = pages;
        while left > Pages::ZERO {
            if let Some((stripe, n)) = striped {
                let take = stripe.min(left);
                let member = {
                    let v = self.mounts[mount.0]
                        .volume
                        .as_mut()
                        .ok_or_else(|| SimError::new(Errno::Einval, "volume vanished"))?;
                    let m = v.stripe_cursor % n;
                    v.stripe_cursor = (v.stripe_cursor + 1) % n;
                    m
                };
                let (dev, first) = self.allocate_member(mount, member, take)?;
                map.append_run(dev, first, take);
                left = left - take;
            } else {
                let take = match &self.mounts[mount.0].frag {
                    Some(f) => f.chunk_pages.min(left),
                    None => left,
                };
                let first = self.allocate_sectors(mount, take)?;
                let dev = self.mounts[mount.0].dev;
                map.append_run(dev, first, take);
                left = left - take;
            }
        }
        Ok(map)
    }

    /// Lays out the replica page maps for a `pages`-page file on `mount`:
    /// one full-size map per non-primary member for mirrored and coded
    /// volumes, empty otherwise. Coded replicas reserve the full page
    /// range too — a simulation simplification standing in for fragment
    /// placement, so every member can serve any page of the file.
    fn layout_replicas(&mut self, mount: MountId, pages: Pages) -> SimResult<Vec<PageMap>> {
        let members = match self.mounts[mount.0].volume.as_ref() {
            Some(v)
                if matches!(
                    v.layout,
                    VolumeLayout::Mirrored | VolumeLayout::Coded { .. }
                ) =>
            {
                v.devices.len()
            }
            _ => return Ok(Vec::new()),
        };
        let mut out = Vec::new();
        for member in 1..members {
            let mut map = PageMap::new();
            if pages > Pages::ZERO {
                let (dev, first) = self.allocate_member(mount, member, pages)?;
                map.append_run(dev, first, pages);
            }
            out.push(map);
        }
        Ok(out)
    }

    fn install_node(&mut self, path: &str, size: u64, data: Vec<u8>) -> SimResult<Ino> {
        let (parent, name) = self.resolve_parent(path)?;
        let mount = self.inode(parent)?.mount.ok_or_else(|| {
            SimError::new(Errno::Einval, format!("install_file({path}): no mount"))
        })?;
        let page_count = Pages::spanning(size);
        let pages = self.layout_pages(mount, page_count)?;
        let replicas = self.layout_replicas(mount, page_count)?;
        let mut file = FileNode::default();
        file.data = data;
        file.pages = pages;
        file.replicas = replicas;
        file.set_size(size);
        let ino = self.alloc_ino();
        let now = self.now();
        self.inodes.insert(
            ino.0,
            Inode {
                ino,
                mount: Some(mount),
                body: InodeBody::File(file),
                mtime: now,
            },
        );
        let name = name.to_string();
        self.inode_mut(parent)?
            .as_dir_mut()
            .ok_or_else(|| SimError::new(Errno::Enotdir, format!("install_file({path})")))?
            .insert(name, ino);
        Ok(ino)
    }

    /// Installs a file with the given contents at `path` without charging
    /// any time and without touching the page cache. The file is laid out
    /// by the mount's allocator exactly as a normal write would lay it out.
    pub fn install_file(&mut self, path: &str, data: &[u8]) -> SimResult<()> {
        self.rec_unsupported("install_file");
        self.install_node(path, data.len() as u64, data.to_vec())
            .map(|_| ())
    }

    /// Installs a file of `size` bytes whose *contents* are never
    /// materialized — only the layout exists. Reads through the normal
    /// path return zero bytes for the holes; the point of a sparse install
    /// is layout- and residency-level experiments (`page_extents`,
    /// `fsleds_get`, `warm_file_pages`) on files far larger than host
    /// memory could hold.
    pub fn install_sparse_file(&mut self, path: &str, size: u64) -> SimResult<()> {
        self.rec_unsupported("install_sparse_file");
        self.install_node(path, size, Vec::new()).map(|_| ())
    }

    /// Marks pages `[first_page, first_page + pages)` of `path` resident,
    /// with zero cost and no device traffic — experiment setup for
    /// preparing an arbitrary cache state. Evictions this forces drop
    /// their dirty state silently (setup, not a syscall). Fails if the
    /// range lies beyond the file.
    pub fn warm_file_pages(&mut self, path: &str, first_page: u64, pages: u64) -> SimResult<()> {
        self.rec_unsupported("warm_file_pages");
        let ino = self.resolve(path)?;
        let n = self
            .inode(ino)?
            .as_file()
            .ok_or_else(|| SimError::new(Errno::Eisdir, format!("warm_file_pages({path})")))?
            .page_count()
            .get();
        let end = first_page.saturating_add(pages);
        if end > n {
            return Err(SimError::new(
                Errno::Einval,
                format!("warm_file_pages({path}): {end} beyond {n} pages"),
            ));
        }
        let mut victims = Vec::new();
        let mut done = first_page;
        while done < end {
            done += self
                .cache
                .insert_run(ino.0, done, end - done, false, &mut victims);
        }
        Ok(())
    }

    /// Overwrites bytes of an installed file in place, without charging any
    /// time or touching cache state. Experiment setup only: this is how the
    /// harness moves the random match around between grep runs (the paper
    /// regenerated test files; content placement does not affect timing, so
    /// an in-place poke is equivalent and keeps the cache state intact).
    ///
    /// The range must lie within the file's *stored* bytes: the hole of a
    /// sparse install has no contents to overwrite and is not materialized
    /// for a poke, so a range reaching into it is `EINVAL` like one past the
    /// end.
    pub fn poke_file(&mut self, path: &str, offset: u64, data: &[u8]) -> SimResult<()> {
        self.rec_unsupported("poke_file");
        let ino = self.resolve(path)?;
        let f = self
            .inode_mut(ino)?
            .as_file_mut()
            .ok_or_else(|| SimError::new(Errno::Eisdir, format!("poke_file({path})")))?;
        let stored = f.data.len() as u64;
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= stored)
            .ok_or_else(|| {
                let size = f.size();
                let why = format!("range beyond the {stored} stored bytes (size {size})");
                SimError::new(Errno::Einval, format!("poke_file({path}): {why}"))
            })?;
        f.data[index(offset)..index(end)].copy_from_slice(data);
        Ok(())
    }

    /// Advances a mount's allocator by `pages` pages without creating any
    /// file — experiment setup for placing subsequent files deep into a
    /// device (e.g. in an inner disk zone) without materializing filler.
    pub fn advance_allocator(&mut self, mount: MountId, pages: u64) -> SimResult<()> {
        self.rec_unsupported("advance_allocator");
        self.allocate_sectors(mount, Pages::new(pages)).map(|_| ())
    }

    /// Resets cache, usage, tenant, and queue-telemetry counters (not
    /// residency, positions, or device schedules); used between a warm-up
    /// run and measured runs.
    pub fn reset_counters(&mut self) {
        self.cache.reset_stats();
        self.ledger.reset_usage();
        self.tenant_snapshot = Rusage::default();
        for t in &mut self.tenants {
            t.usage = Rusage::default();
        }
        for q in &mut self.queues {
            q.reset_telemetry();
        }
        for d in &mut self.devices {
            d.reset_stats();
        }
    }
}

fn device_event_name(class: DeviceClass, write: bool) -> &'static str {
    match (class, write) {
        (DeviceClass::Memory, false) => "memory.read",
        (DeviceClass::Memory, true) => "memory.write",
        (DeviceClass::Disk, false) => "disk.read",
        (DeviceClass::Disk, true) => "disk.write",
        (DeviceClass::CdRom, false) => "cdrom.read",
        (DeviceClass::CdRom, true) => "cdrom.write",
        (DeviceClass::Network, false) => "nfs.read",
        (DeviceClass::Network, true) => "nfs.write",
        (DeviceClass::Tape, false) => "tape.read",
        (DeviceClass::Tape, true) => "tape.write",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_devices::DiskDevice;
    use sleds_sim_core::PAGE_SIZE;

    fn kernel_with_disk() -> Kernel {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        k.mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        k
    }

    #[test]
    fn mkdir_open_write_read_roundtrip() {
        let mut k = kernel_with_disk();
        let fd = k.open("/data/f", OpenFlags::CREATE).unwrap();
        assert_eq!(k.write(fd, b"hello world").unwrap(), 11);
        k.close(fd).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        assert_eq!(k.read(fd, 5).unwrap(), b"hello");
        assert_eq!(k.read(fd, 100).unwrap(), b" world");
        assert_eq!(k.read(fd, 100).unwrap(), b"");
        k.close(fd).unwrap();
    }

    #[test]
    fn lseek_whence_semantics() {
        let mut k = kernel_with_disk();
        k.install_file("/data/f", b"0123456789").unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        assert_eq!(k.lseek(fd, 4, Whence::Set).unwrap(), 4);
        assert_eq!(k.read(fd, 2).unwrap(), b"45");
        assert_eq!(k.lseek(fd, -1, Whence::Cur).unwrap(), 5);
        assert_eq!(k.lseek(fd, -2, Whence::End).unwrap(), 8);
        assert_eq!(k.read(fd, 10).unwrap(), b"89");
        assert!(k.lseek(fd, -100, Whence::Cur).is_err());
    }

    #[test]
    fn read_counts_major_then_minor_faults() {
        let mut k = kernel_with_disk();
        let data = vec![7u8; 8 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.read(fd, data.len()).unwrap();
        let u1 = k.usage();
        assert_eq!(u1.major_faults, 8);
        assert_eq!(u1.minor_faults, 0);
        k.lseek(fd, 0, Whence::Set).unwrap();
        k.read(fd, data.len()).unwrap();
        let u2 = k.usage();
        assert_eq!(u2.major_faults, 8, "warm re-read must not fault");
        assert_eq!(u2.minor_faults, 8);
    }

    #[test]
    fn contiguous_misses_cluster_into_one_device_command() {
        let mut k = kernel_with_disk();
        let data = vec![1u8; 16 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.read(fd, data.len()).unwrap();
        let u = k.usage();
        assert_eq!(u.device_reads, 1, "one clustered command expected");
        assert_eq!(u.major_faults, 16);
    }

    #[test]
    fn cold_sequential_faster_than_cold_random() {
        let mut k = kernel_with_disk();
        let pages = 64usize;
        let data = vec![2u8; pages * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let t = k.start_job();
        k.read(fd, data.len()).unwrap();
        let seq = k.finish_job(&t).elapsed;
        k.drop_caches().unwrap();
        let t = k.start_job();
        // Same pages in a scattered order (i * 37 mod 64 visits every page
        // once, hopping around the track so each read pays rotation).
        for i in 0..pages {
            let p = (i * 37) % pages;
            k.lseek(fd, (p as i64) * PAGE_SIZE as i64, Whence::Set)
                .unwrap();
            k.read(fd, PAGE_SIZE as usize).unwrap();
        }
        let rand = k.finish_job(&t).elapsed;
        assert!(
            rand.as_secs_f64() > 3.0 * seq.as_secs_f64(),
            "scattered ({rand}) should be much slower than sequential ({seq})"
        );
    }

    #[test]
    fn writes_dirty_pages_and_fsync_flushes() {
        let mut k = kernel_with_disk();
        let fd = k.open("/data/f", OpenFlags::CREATE).unwrap();
        let buf = vec![3u8; 4 * PAGE_SIZE as usize];
        k.write(fd, &buf).unwrap();
        assert_eq!(k.usage().device_writes, 0, "writes buffer in cache");
        k.fsync(fd).unwrap();
        assert!(k.usage().device_writes > 0, "fsync must hit the device");
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let mut cfg = MachineConfig::table2();
        cfg.ram = sleds_sim_core::ByteSize::mib(1); // 168-page cache
        cfg.cache_fraction = 0.66;
        let mut k = Kernel::new(cfg);
        k.mkdir("/data").unwrap();
        k.mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let fd = k.open("/data/f", OpenFlags::CREATE).unwrap();
        // Write 2 MiB: far beyond the cache, forcing dirty eviction.
        let chunk = vec![4u8; 64 * 1024];
        for _ in 0..32 {
            k.write(fd, &chunk).unwrap();
        }
        assert!(
            k.usage().device_writes > 0,
            "dirty evictions must write back"
        );
    }

    #[test]
    fn page_locations_reflect_cache_state() {
        let mut k = kernel_with_disk();
        let data = vec![5u8; 4 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let locs = k.page_locations(fd).unwrap();
        assert_eq!(locs.len(), 4);
        assert!(locs
            .iter()
            .all(|l| matches!(l, PageLocation::Device { .. })));
        // Read the middle two pages.
        k.lseek(fd, PAGE_SIZE as i64, Whence::Set).unwrap();
        k.read(fd, 2 * PAGE_SIZE as usize).unwrap();
        let locs = k.page_locations(fd).unwrap();
        assert!(matches!(locs[0], PageLocation::Device { .. }));
        assert_eq!(locs[1], PageLocation::Memory);
        assert_eq!(locs[2], PageLocation::Memory);
        assert!(matches!(locs[3], PageLocation::Device { .. }));
    }

    #[test]
    fn install_file_lays_out_contiguously() {
        let mut k = kernel_with_disk();
        let data = vec![6u8; 4 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let locs = k.page_locations(fd).unwrap();
        let sectors: Vec<u64> = locs
            .iter()
            .map(|l| match l {
                PageLocation::Device { sector, .. } => *sector,
                PageLocation::Memory => panic!("expected device"),
            })
            .collect();
        for w in sectors.windows(2) {
            assert_eq!(w[1], w[0] + SECTORS_PER_PAGE);
        }
    }

    #[test]
    fn fragmentation_breaks_contiguity() {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        k.set_fragmentation(m, 4, 64, 99);
        let data = vec![6u8; 16 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let locs = k.page_locations(fd).unwrap();
        let sectors: Vec<u64> = locs
            .iter()
            .map(|l| match l {
                PageLocation::Device { sector, .. } => *sector,
                PageLocation::Memory => panic!("expected device"),
            })
            .collect();
        let gaps = sectors
            .windows(2)
            .filter(|w| w[1] != w[0] + SECTORS_PER_PAGE)
            .count();
        assert!(gaps >= 2, "expected fragmentation gaps, got {gaps}");
    }

    #[test]
    fn unlink_removes_file_and_cache() {
        let mut k = kernel_with_disk();
        k.install_file("/data/f", &vec![0u8; PAGE_SIZE as usize])
            .unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.read(fd, PAGE_SIZE as usize).unwrap();
        k.close(fd).unwrap();
        k.unlink("/data/f").unwrap();
        assert_eq!(k.cache_resident_pages(), 0);
        assert!(k.open("/data/f", OpenFlags::RDONLY).is_err());
    }

    #[test]
    fn readdir_and_stat() {
        let mut k = kernel_with_disk();
        k.install_file("/data/a", b"xy").unwrap();
        k.install_file("/data/b", b"z").unwrap();
        k.mkdir("/data/sub").unwrap();
        let mut names = k.readdir("/data").unwrap();
        names.sort();
        assert_eq!(names, vec!["a", "b", "sub"]);
        let st = k.stat("/data/a").unwrap();
        assert_eq!(st.size, 2);
        assert_eq!(st.kind, FileKind::File);
        assert_eq!(k.stat("/data/sub").unwrap().kind, FileKind::Dir);
        assert_eq!(k.stat("/nope").unwrap_err().errno, Errno::Enoent);
    }

    #[test]
    fn errors_bad_fd_and_modes() {
        let mut k = kernel_with_disk();
        k.install_file("/data/f", b"abc").unwrap();
        assert_eq!(k.read(Fd(77), 1).unwrap_err().errno, Errno::Ebadf);
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        assert_eq!(k.write(fd, b"x").unwrap_err().errno, Errno::Ebadf);
        let wfd = k.open("/data/g", OpenFlags::CREATE).unwrap();
        assert_eq!(k.read(wfd, 1).unwrap_err().errno, Errno::Ebadf);
    }

    #[test]
    fn read_only_mount_rejects_writes() {
        let mut k = Kernel::table2();
        k.mkdir("/cdrom").unwrap();
        k.mount_cdrom("/cdrom", sleds_devices::CdRomDevice::table2_drive("cd0"))
            .unwrap();
        assert_eq!(
            k.open("/cdrom/x", OpenFlags::CREATE).unwrap_err().errno,
            Errno::Erofs
        );
    }

    #[test]
    fn append_mode_writes_at_end() {
        let mut k = kernel_with_disk();
        let fd = k.open("/data/log", OpenFlags::CREATE).unwrap();
        k.write(fd, b"one").unwrap();
        k.close(fd).unwrap();
        let mut fl = OpenFlags::RDWR;
        fl.append = true;
        let fd = k.open("/data/log", fl).unwrap();
        k.write(fd, b"two").unwrap();
        k.lseek(fd, 0, Whence::Set).unwrap();
        assert_eq!(k.read(fd, 10).unwrap(), b"onetwo");
    }

    #[test]
    fn partial_page_overwrite_faults_in_old_page() {
        let mut k = kernel_with_disk();
        let data = vec![9u8; 2 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDWR).unwrap();
        // Overwrite 10 bytes in the middle of page 0: needs RMW fault.
        k.lseek(fd, 100, Whence::Set).unwrap();
        k.write(fd, b"0123456789").unwrap();
        assert_eq!(k.usage().major_faults, 1);
        // Contents merged correctly.
        k.lseek(fd, 98, Whence::Set).unwrap();
        let got = k.read(fd, 14).unwrap();
        assert_eq!(got, b"\x09\x090123456789\x09\x09");
    }

    #[test]
    fn hsm_offline_stage_and_reread() {
        let mut k = Kernel::table2();
        k.mkdir("/hsm").unwrap();
        k.mount_hsm(
            "/hsm",
            Box::new(DiskDevice::table2_disk("hda")),
            Box::new(sleds_devices::TapeDevice::dlt("st0")),
            256,
        )
        .unwrap();
        let data = vec![8u8; 16 * PAGE_SIZE as usize];
        k.install_file("/hsm/f", &data).unwrap();
        assert!(!k.hsm_is_offline("/hsm/f").unwrap());
        k.hsm_migrate("/hsm/f", true).unwrap();
        assert!(k.hsm_is_offline("/hsm/f").unwrap());

        let fd = k.open("/hsm/f", OpenFlags::RDONLY).unwrap();
        let t = k.start_job();
        let got = k.read(fd, data.len()).unwrap();
        let rep = k.finish_job(&t);
        assert_eq!(got, data, "staged data must be intact");
        // Mount (40s) dominates.
        assert!(
            rep.elapsed >= SimDuration::from_secs(40),
            "{:?}",
            rep.elapsed
        );
        assert!(!k.hsm_is_offline("/hsm/f").unwrap(), "file now staged");

        // Second read: cached, fast.
        k.lseek(fd, 0, Whence::Set).unwrap();
        let t = k.start_job();
        k.read(fd, data.len()).unwrap();
        let rep = k.finish_job(&t);
        assert!(
            rep.elapsed < SimDuration::from_millis(50),
            "{:?}",
            rep.elapsed
        );
    }

    #[test]
    fn truncate_resets_file() {
        let mut k = kernel_with_disk();
        k.install_file("/data/f", &vec![1u8; 3 * PAGE_SIZE as usize])
            .unwrap();
        let fd = k.open("/data/f", OpenFlags::CREATE).unwrap();
        assert_eq!(k.fstat(fd).unwrap().size, 0);
        k.write(fd, b"new").unwrap();
        assert_eq!(k.fstat(fd).unwrap().size, 3);
    }

    #[test]
    fn job_reports_are_deltas() {
        let mut k = kernel_with_disk();
        k.install_file("/data/f", &vec![0u8; PAGE_SIZE as usize])
            .unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.read(fd, 10).unwrap();
        let t = k.start_job();
        k.lseek(fd, 0, Whence::Set).unwrap();
        k.read(fd, 10).unwrap();
        let rep = k.finish_job(&t);
        assert_eq!(rep.usage.major_faults, 0, "page already cached");
        assert_eq!(rep.usage.minor_faults, 1);
        assert!(rep.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn readahead_converts_majors_to_hits() {
        let mut cfg = MachineConfig::table2();
        cfg.readahead_pages = 8;
        let mut k = Kernel::new(cfg);
        k.mkdir("/data").unwrap();
        k.mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let data = vec![1u8; 32 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        // Page-at-a-time sequential reads.
        for _ in 0..32 {
            k.read(fd, PAGE_SIZE as usize).unwrap();
        }
        let u = k.usage();
        assert!(
            u.major_faults < 8,
            "readahead should absorb most faults, got {}",
            u.major_faults
        );
        assert!(u.minor_faults > 24);

        // Without readahead every page is a major fault.
        let mut k2 = kernel_with_disk();
        k2.install_file("/data/f", &data).unwrap();
        let fd = k2.open("/data/f", OpenFlags::RDONLY).unwrap();
        for _ in 0..32 {
            k2.read(fd, PAGE_SIZE as usize).unwrap();
        }
        assert_eq!(k2.usage().major_faults, 32);
    }

    #[test]
    fn zero_length_read_is_empty() {
        let mut k = kernel_with_disk();
        k.install_file("/data/f", b"abc").unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        assert_eq!(k.read(fd, 0).unwrap(), b"");
        assert_eq!(k.pread(fd, 0, 0).unwrap(), b"");
    }

    #[test]
    fn pread_does_not_move_offset() {
        let mut k = kernel_with_disk();
        k.install_file("/data/f", b"0123456789").unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        assert_eq!(k.pread(fd, 4, 3).unwrap(), b"456");
        assert_eq!(k.read(fd, 3).unwrap(), b"012");
    }

    #[test]
    fn tracing_is_a_zero_cost_observer() {
        let run = |traced: bool| {
            let mut k = kernel_with_disk();
            if traced {
                k.enable_tracing();
            }
            let data = vec![7u8; 8 * PAGE_SIZE as usize];
            k.install_file("/data/f", &data).unwrap();
            let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
            let t = k.start_job();
            k.read(fd, data.len()).unwrap();
            k.lseek(fd, 0, Whence::Set).unwrap();
            k.read(fd, data.len()).unwrap();
            k.close(fd).unwrap();
            let rep = k.finish_job(&t);
            (rep.elapsed, rep.usage, k.trace_events())
        };
        let (e1, u1, ev1) = run(false);
        let (e2, u2, ev2) = run(true);
        assert_eq!(e1, e2, "tracing must not move the virtual clock");
        assert_eq!(u1, u2, "tracing must not perturb rusage");
        assert!(ev1.is_empty());
        assert!(!ev2.is_empty());
    }

    #[test]
    fn traced_syscall_spans_balance_and_nest_device_work() {
        use sleds_trace::EventPhase;
        let mut k = kernel_with_disk();
        k.enable_tracing();
        let data = vec![1u8; 4 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.read(fd, data.len()).unwrap();
        k.close(fd).unwrap();
        let evs = k.trace_events();
        let begins = evs.iter().filter(|e| e.phase == EventPhase::Begin).count();
        let ends = evs.iter().filter(|e| e.phase == EventPhase::End).count();
        assert_eq!(begins, ends, "all spans closed");
        // The cold read's one clustered device command, with dur matching
        // the io_wait it charged.
        let io: SimDuration = evs
            .iter()
            .filter(|e| {
                e.layer == Layer::Device && e.phase == EventPhase::Complete && e.args[1] > 0
            })
            .map(|e| e.dur)
            .sum();
        assert_eq!(io, k.usage().io_wait, "device spans account for io_wait");
        // The read End span carries the fd for the audit.
        let read_end = evs
            .iter()
            .find(|e| e.phase == EventPhase::End && e.name == "read")
            .expect("read span");
        assert_eq!(read_end.args[0], fd.0);
    }

    #[test]
    fn fsleds_stat_snapshots_metrics() {
        let mut k = kernel_with_disk();
        k.enable_tracing();
        let data = vec![2u8; 4 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.read(fd, data.len()).unwrap();
        k.lseek(fd, 0, Whence::Set).unwrap();
        k.read(fd, data.len()).unwrap();
        let m = k.fsleds_stat(fd).unwrap();
        assert!(
            m.syscalls >= 4,
            "open+read+lseek+read traced: {}",
            m.syscalls
        );
        assert_eq!(m.cache_misses, 1, "one clustered miss run");
        assert_eq!(m.cache_hits, 4, "warm re-read hits every page");
        assert_eq!(m.device[1].reads, 1, "one disk command");
        assert!(m.device[1].service.sum() > 0);
        // Disabled tracing yields all-zero counters, not an error.
        let mut k2 = kernel_with_disk();
        k2.install_file("/data/f", b"x").unwrap();
        let fd2 = k2.open("/data/f", OpenFlags::RDONLY).unwrap();
        let m2 = k2.fsleds_stat(fd2).unwrap();
        assert_eq!(m2, Metrics::default());
    }

    #[test]
    fn fsleds_recal_bumps_epoch_and_generation() {
        let mut k = kernel_with_disk();
        k.enable_tracing();
        let data = vec![3u8; 2 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.read(fd, data.len()).unwrap();
        assert_eq!(k.sleds_epoch(), 0);
        let g0 = k.sled_generation(fd).unwrap();
        let snap = k.fsleds_recal(fd).unwrap();
        assert_eq!(k.sleds_epoch(), 1);
        assert!(snap.device[1].reads >= 1, "snapshot sees the disk read");
        // The epoch bump invalidates every memoized SLED vector: the
        // generation stamp strictly advances even though the file's cache
        // residency and layout are untouched.
        let g1 = k.sled_generation(fd).unwrap();
        assert_eq!(g1, g0 + 1);
        // The recal fence is in the event stream for the audit.
        assert!(k
            .trace_events()
            .iter()
            .any(|e| e.name == "sleds.recal" && e.args[0] == 1));
        // Untraced: empty metrics, but the epoch still bumps so traced
        // and untraced runs stay in lockstep.
        let mut k2 = kernel_with_disk();
        k2.install_file("/data/f", b"x").unwrap();
        let fd2 = k2.open("/data/f", OpenFlags::RDONLY).unwrap();
        let m2 = k2.fsleds_recal(fd2).unwrap();
        assert_eq!(m2, Metrics::default());
        assert_eq!(k2.sleds_epoch(), 1);
    }

    #[test]
    fn predict_reads_pairs_feed_accuracy_window() {
        let mut k = kernel_with_disk();
        k.enable_tracing();
        let data = vec![4u8; 2 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        k.trace_predict(fd, SimDuration::from_nanos(1_000_000), 0)
            .unwrap();
        k.read(fd, data.len()).unwrap();
        k.close(fd).unwrap();
        let fd2 = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let m = k.fsleds_stat(fd2).unwrap();
        assert_eq!(m.device[1].accuracy.len(), 1, "one audited pair");
        assert_eq!(m.accuracy_cross_generation, 0);
    }

    #[test]
    fn max_attempts_zero_submits_once_exactly_like_one() {
        // A cold one-page read off a disk that bounces every submission.
        let run = |max_attempts: u32| {
            let mut k = kernel_with_disk();
            k.retry = RetryPolicy {
                max_attempts,
                ..RetryPolicy::default()
            };
            k.enable_tracing();
            k.install_file("/data/f", &vec![1u8; PAGE_SIZE as usize])
                .unwrap();
            let horizon = k.now() + SimDuration::from_secs(3600);
            let cost = SimDuration::from_millis(2);
            k.apply_fault_plan(&FaultPlan::new().transient("hda", k.now(), horizon, 8, cost));
            let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
            let err = k.read(fd, PAGE_SIZE as usize).unwrap_err();
            let marks = |name: &str| k.trace_events().iter().filter(|e| e.name == name).count();
            let faulted = marks("fault.inject");
            assert_eq!(marks("io.retry"), 0);
            (err.errno, err.to_string(), faulted, k.usage(), k.now())
        };
        let (zero, one) = (run(0), run(1));
        assert_eq!(zero, one);
        let (errno, why, faulted, usage, _) = zero;
        assert_eq!(errno, Errno::Eio);
        assert!(why.contains("gave up after 1 attempts"), "{why}");
        assert_eq!(faulted, 1, "submitted once, not never");
        assert_eq!((usage.io_retries, usage.device_reads), (0, 0));
        assert_eq!(usage.retry_backoff, SimDuration::ZERO);
    }

    #[test]
    fn trace_app_closes_its_span_when_the_body_bails_out() {
        let mut k = kernel_with_disk();
        k.enable_tracing();
        let r: SimResult<Fd> = k.trace_app("wc", |k| {
            let fd = k.open("/data/missing", OpenFlags::RDONLY)?;
            k.close(fd)?;
            Ok(fd)
        });
        assert_eq!(r.unwrap_err().errno, Errno::Enoent);
        let shape: Vec<_> = k
            .trace_events()
            .iter()
            .map(|e| (e.phase, e.layer, e.name))
            .collect();
        use sleds_trace::EventPhase::{Begin, End};
        assert_eq!(
            shape,
            [
                (Begin, Layer::App, "wc"),
                (Begin, Layer::Syscall, "open"),
                (End, Layer::Syscall, "open"),
                (End, Layer::App, "wc"),
            ]
        );
        // Balanced: the next span opens at depth zero, not inside "wc".
        k.trace_app("grep", |_| ());
        assert_eq!(k.metrics().unwrap().app_spans, 2);
    }
}
