//! The SLED library: the one place a file's SLED vector is built, estimated
//! and planned from.
//!
//! The paper's construction (its implementation section): `FSLEDS_GET` walks
//! an open file's pages, assigns each the `(latency, bandwidth)` of the
//! level it currently lives at — the memory row for a buffer-cache page,
//! the device's row otherwise, both from the one table `FSLEDS_FILL`
//! loaded — and coalesces consecutive pages with identical estimates into
//! one SLED. Everything above it (`sleds_pick_*`,
//! `sleds_total_delivery_time`, `find -latency`) consumes that vector.
//!
//! Here the walk is run-length: the kernel reports residency extents
//! ([`RedundantExtent`]) and [`fold`] prices them, so a device extent
//! splits only where the table actually changes (a zone-row boundary) and
//! the cost is proportional to residency runs and zone crossings, not
//! pages. The one deliberately per-page arm is dynamic device self-reports
//! ([`SledsTable::trust_device_reports`]), where a server's cache state
//! can differ page by page. An extent on a redundant volume is priced at
//! the copy the kernel's read routing would pick ([`select_min_cost`]).
//!
//! Both sides of the syscall boundary call this module with the one
//! [`SledsTable`]: the library's sequential `fsleds_get` with its own, the
//! ring ops and pick programs that build SLEDs below the boundary with the
//! copy that crossed with them. Zone rows and device self-reports push
//! down like flat rows, so the two sides cannot drift. The `SLEDS_BEST`
//! estimate ([`best_estimate`]) and the pick planner ([`plan_chunks`]) live
//! here for the same reason: a pushed-down predicate or plan is only useful
//! if it sees exactly what the un-pushed one sees.

use std::collections::BTreeMap;

use sleds_devices::FaultState;
use sleds_sim_core::{index, Errno, SimDuration, SimError, SimResult, PAGE_SIZE};

use crate::inode::SECTORS_PER_PAGE;
use crate::kernel::{DeviceId, Kernel, PageLocation, RedundantExtent};

/// A Storage Latency Estimation Descriptor.
///
/// Describes one contiguous byte range of a file whose pages share retrieval
/// characteristics: `latency` seconds to the first byte, then `bandwidth`
/// bytes per second. The paper stores both estimates as C `float`s because
/// the value range (sub-microsecond memory to hundreds-of-seconds tape)
/// overflows integers; we use `f64` for the same reason with less rounding.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sled {
    /// Byte offset of this segment within the file.
    pub offset: u64,
    /// Length of this segment in bytes.
    pub length: u64,
    /// Estimated latency to the segment's first byte, in seconds.
    pub latency: f64,
    /// Estimated delivery bandwidth once flowing, in bytes per second.
    pub bandwidth: f64,
}

impl Sled {
    /// End offset (exclusive) of the segment.
    pub fn end(&self) -> u64 {
        // Saturation intended: a segment at the top of the offset space
        // still reports a well-ordered end.
        self.offset.saturating_add(self.length)
    }

    /// Estimated time to deliver this whole segment, in seconds.
    pub fn delivery_time(&self) -> f64 {
        if self.length == 0 {
            return 0.0;
        }
        if self.bandwidth <= 0.0 {
            return f64::INFINITY;
        }
        self.latency + self.length as f64 / self.bandwidth
    }

    /// True when this segment is currently unreachable: its device is in
    /// an offline fault window, so `FSLEDS_GET` priced it at infinite
    /// latency and zero bandwidth. [`delivery_time`](Sled::delivery_time)
    /// is infinite and pick plans defer or prune it.
    pub fn unavailable(&self) -> bool {
        self.length > 0 && (self.bandwidth <= 0.0 || !self.latency.is_finite())
    }

    /// The performance level this segment was priced at.
    pub fn level(&self) -> SledsEntry {
        SledsEntry {
            latency: self.latency,
            bandwidth: self.bandwidth,
        }
    }

    /// True when two SLEDs report the same performance estimates
    /// ([`SledsEntry::same_level`]).
    pub fn same_level(&self, other: &Sled) -> bool {
        self.level().same_level(&other.level())
    }
}

/// One row of the sleds table: the `(latency, bandwidth)` of one storage
/// level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SledsEntry {
    /// Latency to the first byte, in seconds.
    pub latency: f64,
    /// Streaming bandwidth, in bytes per second.
    pub bandwidth: f64,
}

impl SledsEntry {
    /// What an extent no device can currently serve is priced at.
    pub const UNAVAILABLE: SledsEntry = SledsEntry {
        latency: f64::INFINITY,
        bandwidth: 0.0,
    };

    /// Creates an entry.
    pub fn new(latency: f64, bandwidth: f64) -> Self {
        SledsEntry { latency, bandwidth }
    }

    /// True when two rows carry the same estimates.
    ///
    /// Bit identity, not float equality: levels are "same" only when they
    /// carry the exact same reported values, and NaN reports stay grouped
    /// with themselves instead of splitting every level. Coalescing, the
    /// `SLEDS_BEST` grouping and the cached-fraction test all mean this.
    pub fn same_level(&self, other: &SledsEntry) -> bool {
        self.latency.to_bits() == other.latency.to_bits()
            && self.bandwidth.to_bits() == other.bandwidth.to_bits()
    }
}

/// The kernel's per-device performance table (`FSLEDS_FILL`): the one
/// price source of every SLED, above the boundary and below it.
///
/// The paper keeps this table in the kernel, filled once at boot by a
/// script that runs lmbench and issues `FSLEDS_FILL` — one
/// `(latency, bandwidth)` entry per storage device plus one for primary
/// memory; `sleds-lmbench` plays the boot script here. The paper keeps a
/// single entry per device and lists per-zone entries ("the different
/// bandwidths of different disk zones") as future work; this table supports
/// both. When a device has zone rows they take precedence over its flat
/// row, so one file can yield SLEDs with different bandwidths for its
/// outer-zone and inner-zone extents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SledsTable {
    memory: Option<SledsEntry>,
    /// Flat device rows, sorted by device: a one-disk table clones with
    /// one small allocation, which a ring op carrying it pays per file.
    devices: Vec<(DeviceId, SledsEntry)>,
    /// Per-device zone rows: `(first sector, entry)`, sorted by sector.
    zones: BTreeMap<DeviceId, Vec<(u64, SledsEntry)>>,
    /// When set, [`fold`] asks devices for dynamic self-reports
    /// (`BlockDevice::dynamic_probe`) before falling back to table rows —
    /// the client/server SLEDs channel of the paper's section 6.
    trust_device_reports: bool,
    /// Table generation: 0 for a boot-time fill, bumped by each
    /// recalibration. Predictions are tagged with it so the accuracy
    /// audit can tell which table priced each estimate.
    generation: u64,
    /// Measured cost of one kernel boundary crossing, in seconds —
    /// the `lat_syscall` row. Batched submission amortizes exactly this.
    crossing_cpu: Option<f64>,
}

impl SledsTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SledsTable::default()
    }

    /// Fills the primary-memory row.
    pub fn fill_memory(&mut self, entry: SledsEntry) {
        self.memory = Some(entry);
    }

    /// Fills (or replaces) a device row.
    pub fn fill_device(&mut self, dev: DeviceId, entry: SledsEntry) {
        match self.devices.binary_search_by_key(&dev, |&(d, _)| d) {
            Ok(i) => self.devices[i].1 = entry,
            Err(i) => self.devices.insert(i, (dev, entry)),
        }
    }

    /// The memory row, if filled.
    pub fn memory(&self) -> Option<SledsEntry> {
        self.memory
    }

    /// The row for `dev`, if filled.
    pub fn device(&self, dev: DeviceId) -> Option<SledsEntry> {
        let i = self.devices.binary_search_by_key(&dev, |&(d, _)| d).ok()?;
        Some(self.devices[i].1)
    }

    /// Fills per-zone rows for a device (`rows` as `(first sector, entry)`;
    /// sorted internally). Zone rows take precedence over the flat row.
    pub fn fill_device_zones(&mut self, dev: DeviceId, mut rows: Vec<(u64, SledsEntry)>) {
        rows.sort_by_key(|(s, _)| *s);
        self.zones.insert(dev, rows);
    }

    /// The entry governing `sector` of `dev`: the zone row containing it if
    /// zone rows exist, otherwise the flat device row.
    pub fn entry_at(&self, dev: DeviceId, sector: u64) -> Option<SledsEntry> {
        if let Some(rows) = self.zones.get(&dev) {
            let idx = rows.partition_point(|(s, _)| *s <= sector);
            if idx > 0 {
                return Some(rows[idx - 1].1);
            }
        }
        self.device(dev)
    }

    /// True when `dev` has per-zone rows.
    pub fn has_zones(&self, dev: DeviceId) -> bool {
        self.zones.contains_key(&dev)
    }

    /// The first sector strictly after `sector` at which the governing entry
    /// of `dev` may change — i.e. the start of the next zone row. `None`
    /// when the entry is constant from `sector` to the end of the device
    /// (no zone rows, or `sector` is in the last zone). Lets an
    /// extent-granular walk split a device extent only where the table
    /// actually changes instead of probing every page.
    pub fn zone_end(&self, dev: DeviceId, sector: u64) -> Option<u64> {
        let rows = self.zones.get(&dev)?;
        let idx = rows.partition_point(|(s, _)| *s <= sector);
        rows.get(idx).map(|(s, _)| *s)
    }

    /// Enables consulting device dynamic self-reports in [`fold`].
    pub fn set_trust_device_reports(&mut self, trust: bool) {
        self.trust_device_reports = trust;
    }

    /// Whether device dynamic self-reports are consulted.
    pub fn trust_device_reports(&self) -> bool {
        self.trust_device_reports
    }

    /// The table's generation (0 = boot-time fill).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stamps the table's generation; recalibration sets it to the
    /// kernel's sleds epoch.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Fills the boundary-crossing row (seconds per crossing).
    pub fn fill_crossing(&mut self, seconds: f64) {
        self.crossing_cpu = Some(seconds);
    }

    /// Measured seconds per kernel boundary crossing, if calibrated.
    pub fn crossing_cpu(&self) -> Option<f64> {
        self.crossing_cpu
    }

    /// Drops a device's per-zone rows, so its flat row governs again.
    /// Recalibration uses this: the observed class-wide rates replace the
    /// boot-time zone survey, which no longer reflects what was measured.
    pub fn clear_device_zones(&mut self, dev: DeviceId) {
        self.zones.remove(&dev);
    }

    /// Number of device rows.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// True once the memory row is present — the minimum for `fsleds_get`
    /// to be usable at all.
    pub fn is_filled(&self) -> bool {
        self.memory.is_some()
    }

    /// Iterates device rows in ascending `DeviceId` order.
    pub fn iter_devices(&self) -> impl Iterator<Item = (DeviceId, SledsEntry)> + '_ {
        self.devices.iter().copied()
    }
}

/// Folds a device's current fault state into a table entry: a degraded
/// window inflates latency and deflates bandwidth by its multiplier, and
/// an offline window prices the extent unavailable (infinite latency,
/// zero bandwidth), which every downstream estimate and predicate treats
/// as an infinite delivery time.
pub fn degrade(entry: SledsEntry, state: FaultState) -> SledsEntry {
    match state {
        FaultState::Healthy => entry,
        FaultState::Degraded(m) => SledsEntry {
            latency: entry.latency * m,
            bandwidth: entry.bandwidth / m,
        },
        FaultState::Offline => SledsEntry::UNAVAILABLE,
    }
}

/// Estimated seconds to deliver `length` bytes priced by `entry` — the
/// comparison key for replica selection.
fn delivery(entry: &SledsEntry, length: u64) -> f64 {
    if entry.bandwidth <= 0.0 {
        return f64::INFINITY;
    }
    entry.latency + length as f64 / entry.bandwidth
}

/// The entry `FSLEDS_GET` quotes for a redundant extent of `length` bytes
/// servable by `candidates` (each a table entry plus the device's live
/// fault state), following the kernel's read routing.
///
/// `coded_k: None` is a mirror: any one available member serves the whole
/// extent, so the cheapest available (non-offline) member wins — an offline
/// member reroutes, it is excluded rather than priced infinite.
/// `coded_k: Some(k)` is a (k, n) code: the k-th cheapest available member
/// wins, because the read is as slow as the slowest of the k fragments it
/// must gather. Degraded members are priced up by their multiplier before
/// comparison, exactly as single-device extents are. Returns `None` when
/// the extent cannot currently be served at all — every member offline, or
/// fewer than k available — which callers price as unavailable.
pub fn select_min_cost(
    candidates: &[(SledsEntry, FaultState)],
    coded_k: Option<u32>,
    length: u64,
) -> Option<SledsEntry> {
    let mut available: Vec<SledsEntry> = candidates
        .iter()
        .filter(|(_, state)| !matches!(state, FaultState::Offline))
        .map(|&(entry, state)| degrade(entry, state))
        .collect();
    available.sort_by(|a, b| delivery(a, length).total_cmp(&delivery(b, length)));
    match coded_k {
        None => available.first().copied(),
        Some(k) => {
            let k = (k.max(1)) as usize;
            if available.len() < k {
                return None;
            }
            available.get(k - 1).copied()
        }
    }
}

/// The memory row, or the `EINVAL` every SLED construction answers when the
/// boot-time fill never ran.
pub fn memory_row(table: &SledsTable) -> SimResult<SledsEntry> {
    table.memory().ok_or_else(|| {
        SimError::new(
            Errno::Einval,
            "FSLEDS_GET: sleds table not filled (no memory row)",
        )
    })
}

/// Builds the SLED vector of a `size`-byte file from the residency extents
/// its caller walked (and charged for).
///
/// Returns one SLED per run of bytes sharing `(latency, bandwidth)`; the
/// last is clipped to the file size, so the vector covers the file's bytes
/// exactly, and an empty file yields an empty vector. Every device price
/// has the device's live fault state folded in ([`degrade`]); an extent
/// with alternatives is priced at the min-cost *available* candidate
/// ([`select_min_cost`]) and unavailable only when no candidate set can
/// serve it. Reads the kernel's fault windows and device self-reports and
/// charges nothing.
///
/// # Errors
///
/// `EINVAL` when `table` has no memory row or no row for a device the
/// file touches.
pub fn fold(
    kernel: &Kernel,
    table: &SledsTable,
    size: u64,
    extents: &[RedundantExtent],
) -> SimResult<Vec<Sled>> {
    let mem = memory_row(table)?;
    let state_of = |dev| {
        kernel
            .device_fault_state(dev)
            .unwrap_or(FaultState::Healthy)
    };
    let row = |dev, sector| {
        table.entry_at(dev, sector).ok_or_else(|| {
            SimError::new(
                Errno::Einval,
                format!("FSLEDS_GET: no sleds table row for device {dev:?}"),
            )
        })
    };
    // The last extent's last page may run past the end of the file.
    let clip = |offset: u64, length: u64| length.min(size.saturating_sub(offset));
    let mut out: Vec<Sled> = Vec::new();
    // Appends `length` bytes at `offset`, clipped to the file and coalesced
    // into the previous SLED when the level is the same.
    let mut push = |offset: u64, length: u64, entry: SledsEntry| {
        let length = clip(offset, length);
        if length == 0 {
            return;
        }
        match out.last_mut() {
            Some(last) if last.level().same_level(&entry) => last.length += length,
            _ => out.push(Sled {
                offset,
                length,
                latency: entry.latency,
                bandwidth: entry.bandwidth,
            }),
        }
    };
    for re in extents {
        let e = &re.extent;
        let ext_off = e.first_page * PAGE_SIZE;
        match e.location {
            PageLocation::Memory => push(ext_off, e.pages * PAGE_SIZE, mem),
            PageLocation::Device { dev, sector } if !re.alternatives.is_empty() => {
                // Redundant extent: price every candidate whole-extent and
                // quote the one the kernel's routing would pick.
                let length = clip(ext_off, e.pages * PAGE_SIZE);
                let mut cands = Vec::with_capacity(1 + re.alternatives.len());
                cands.push((row(dev, sector)?, state_of(dev)));
                for alt in &re.alternatives {
                    cands.push((row(alt.dev, alt.sector)?, state_of(alt.dev)));
                }
                let chosen =
                    select_min_cost(&cands, re.coded_k, length).unwrap_or(SledsEntry::UNAVAILABLE);
                push(ext_off, length, chosen);
            }
            PageLocation::Device { dev, sector } if table.trust_device_reports() => {
                // Dynamic device self-report (client/server SLEDs): the
                // server's cache state can differ page by page, so this
                // channel probes each page of the extent.
                let state = state_of(dev);
                for i in 0..e.pages {
                    let s = sector + i * SECTORS_PER_PAGE;
                    let entry = match kernel.device_probe(dev, s) {
                        Some((latency, bandwidth)) => SledsEntry { latency, bandwidth },
                        None => row(dev, s)?,
                    };
                    push(ext_off + i * PAGE_SIZE, PAGE_SIZE, degrade(entry, state));
                }
            }
            PageLocation::Device { dev, sector } => {
                // Static rows: constant between zone boundaries, so one
                // lookup covers every page up to the next boundary.
                let state = state_of(dev);
                let mut p = 0;
                while p < e.pages {
                    let s = sector + p * SECTORS_PER_PAGE;
                    let span = match table.zone_end(dev, s) {
                        Some(z) => (z - s).div_ceil(SECTORS_PER_PAGE).min(e.pages - p),
                        None => e.pages - p,
                    };
                    push(
                        ext_off + p * PAGE_SIZE,
                        span * PAGE_SIZE,
                        degrade(row(dev, s)?, state),
                    );
                    p += span;
                }
            }
        }
    }
    Ok(out)
}

/// The `SLEDS_BEST` estimate: seconds to deliver the whole vector by a
/// reordered read that drains each storage level in one streaming pass.
/// Levels group by [`same_level`](Sled::same_level) in first-appearance
/// order; each pays its latency once and streams its total bytes, summed
/// in that order.
pub fn best_estimate(sleds: &[Sled]) -> f64 {
    let mut levels: Vec<Sled> = Vec::new();
    for s in sleds {
        match levels.iter_mut().find(|l| l.same_level(s)) {
            Some(l) => l.length += s.length,
            None => levels.push(*s),
        }
    }
    levels.iter().map(Sled::delivery_time).sum()
}

/// Per-chunk CPU cost of planning (sorting the pick order).
const PLAN_NS_PER_CHUNK: u64 = 120;

/// The CPU a planner is charged for ordering `chunks` chunks; the sort is
/// the dominant term.
pub fn plan_cost(chunks: usize) -> SimDuration {
    SimDuration::from_nanos(PLAN_NS_PER_CHUNK * chunks as u64)
}

/// Splits SLEDs into `preferred`-size chunks and orders them
/// lowest-latency-first, lowest-offset among equals. Unavailable SLEDs
/// are pruned when `skip_unavailable` is set; otherwise their infinite
/// latency sorts them behind every reachable chunk (defer).
pub fn plan_chunks(sleds: &[Sled], preferred: usize, skip_unavailable: bool) -> Vec<(u64, usize)> {
    let mut chunks: Vec<(u64, usize, f64)> = Vec::new();
    for s in sleds {
        if skip_unavailable && s.unavailable() {
            continue;
        }
        let mut off = s.offset;
        while off < s.end() {
            let len = index((s.end() - off).min(preferred as u64));
            chunks.push((off, len, s.latency));
            off += len as u64;
        }
    }
    // Chunks are generated in ascending offset within each SLED, but SLEDs
    // of equal latency may interleave, so sort by offset explicitly.
    chunks.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
    chunks.into_iter().map(|(o, l, _)| (o, l)).collect()
}
