//! The kernel: its types, the [`Kernel`] struct, and the accessors that
//! charge nothing. The work lives in child modules, each a seam of the one
//! `impl Kernel`:
//!
//! * `boundary` — the one door every entry passes, and the submission ring;
//! * `cost` — the clock's ledger and the one device-command spine;
//! * `namei` — inodes and the path walk;
//! * `file` — the directory and file-descriptor syscalls;
//! * `io` — the read and write paths, writeback and the retry loop;
//! * `volume` — redundant volumes: layout and read routing;
//! * `hsm` — tape staging behind a disk;
//! * `sleds` — the `FSLEDS_*` ioctls and the residency walks;
//! * `tenant` — interleaved timelines and the saturation report;
//! * `setup` — devices, mounts and the zero-cost experiment helpers.

use std::collections::BTreeMap;
use std::sync::Weak;

use sleds_devices::{BlockDevice, DevStats, DeviceClass, FaultState};
use sleds_pagecache::{PageCache, PageKey};
use sleds_sim_core::{
    DetRng, Errno, IdTable, IdWindow, Pages, Sectors, SimDuration, SimError, SimResult, SimTime,
};
use sleds_trace::{span, Layer, Mark, Metrics, TraceEvent, Tracer};

use crate::capture::{Capture, WorkloadRecorder};
use crate::inode::{Ino, Inode, InodeBody};
use crate::machine::MachineConfig;
use crate::queue::CmdQueue;
use crate::rusage::{JobReport, JobTimer, Rusage};
use crate::volume::VolumeLayout;

mod boundary;
mod cost;
mod file;
mod hsm;
mod io;
mod namei;
mod setup;
mod sleds;
mod tenant;
mod volume;

use cost::Ledger;

pub use crate::inode::SECTORS_PER_PAGE;
pub use crate::syscall::{Fd, OpenFlags, Whence};

/// Seed for the kernel's retry-backoff jitter stream. A fixed constant so
/// two kernels running the same workload under the same fault plan back
/// off identically.
const RETRY_JITTER_SEED: u64 = 0x5EED_FA17;

const ONE_PAGE: Pages = Pages::new(1);

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
    /// The latest buffer `install_file` stored for each length, while any
    /// file or payload still holds it: an install of equal bytes shares it
    /// instead of storing another copy (`Kernel::intern`).
    installed: BTreeMap<usize, Weak<Vec<u8>>>,
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
            installed: BTreeMap::new(),
            fds: IdWindow::new(),
            next_fd: 3, // 0..2 reserved, as tradition demands
            root,
            tracer: Tracer::disabled(),
            sleds_epoch: 0,
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
    // Tracing: a zero-cost observer of the virtual clock
    // ------------------------------------------------------------------

    /// Enables event tracing with the default ring capacity.
    ///
    /// The tracer is a pure observer: it never advances the clock and never
    /// touches rusage, so a traced run produces virtual-time results
    /// byte-identical to an untraced one.
    pub fn enable_tracing(&mut self) {
        self.install_tracer(Tracer::enabled());
    }

    /// Enables tracing with an explicit ring capacity, in events.
    pub fn enable_tracing_with_capacity(&mut self, capacity: usize) {
        self.install_tracer(Tracer::with_capacity(capacity));
    }

    /// Disables tracing, discarding any buffered events and metrics.
    pub fn disable_tracing(&mut self) {
        self.install_tracer(Tracer::disabled());
    }

    /// Swaps in `tracer`, stamping the active tenant: a fresh tracer
    /// starts at tenant 0, and would otherwise name it until the next
    /// [`tenant_switch`](Self::tenant_switch).
    fn install_tracer(&mut self, mut tracer: Tracer) {
        tracer.set_tenant(self.active_tenant as u64);
        self.tracer = tracer;
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

    /// The command queue (and its saturation telemetry) of a device.
    pub fn device_queue(&self, dev: DeviceId) -> Option<&CmdQueue> {
        self.queues.get(dev.0)
    }

    /// Runs `body` inside an application-level span (e.g. one `grep`
    /// invocation) that nests every syscall traced within it. The span is
    /// closed however `body` ends: a `?` inside it returns from the
    /// closure, not past the end.
    pub fn trace_app<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Kernel) -> T) -> T {
        span(self, Layer::App, name, [0; 3], body)
    }

    /// Records `mark` at the current virtual instant.
    fn mark(&mut self, mark: Mark) {
        let now = self.now();
        self.tracer.mark(now, mark);
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
        let class = self.serving_class_of(of.ino)?.code();
        self.mark(Mark::Predict {
            fd: fd.0,
            predicted_ns: predicted.as_nanos(),
            class,
            generation: table_generation,
        });
        Ok(())
    }

    /// The numeric device-class code (as used in trace events and the
    /// per-class metrics arrays) that would serve a cold read of this open
    /// file. Pure query: charges nothing.
    pub fn serving_class_code(&self, fd: Fd) -> SimResult<u64> {
        let of = self.openfile(fd)?;
        Ok(self.serving_class_of(of.ino)?.code())
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

    /// Coarse health of a device at the current virtual time. Pure query:
    /// charges nothing.
    pub fn device_fault_state(&self, dev: DeviceId) -> Option<FaultState> {
        let now = self.now();
        self.devices.get(dev.0).map(|d| d.fault_state(now))
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

    pub(crate) fn charge_io(&mut self, d: SimDuration) {
        self.ledger.io(d);
    }

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
}

#[cfg(test)]
mod tests;
