//! The client side of a network file service.
//!
//! The paper measured its NFS mount at 270 ms to the first byte and 1 MB/s
//! of streaming bandwidth (Table 2) — a shared departmental server over
//! late-1990s ethernet. The paper gives no decomposition of that 270 ms, so
//! the model takes the measured pair as parameters: a discontiguous access
//! pays the first-byte penalty (request queueing at the busy server, its own
//! disk positioning, protocol round trips), while back-to-back sequential
//! reads are pipelined by read-ahead on the server and run at link
//! bandwidth.

use sleds_pagecache::{PageCache, PageKey};
use sleds_sim_core::{Bandwidth, DetRng, SimDuration, SimTime, SECTOR_SIZE};

use crate::disk::{Disk, DiskGeometry};
use crate::{jitter_factor, Device, DeviceClass, DeviceProfile, Mechanism, PhaseKind, PhaseLog};

/// Timing parameters for an NFS mount.
#[derive(Clone, Copy, Debug)]
pub struct NfsParams {
    /// Cost of the first byte of a discontiguous access.
    pub first_byte: SimDuration,
    /// Streaming bandwidth once a sequential run is established.
    pub bandwidth: Bandwidth,
    /// Per-RPC client-side overhead (charged on every command).
    pub per_op: SimDuration,
}

impl Default for NfsParams {
    fn default() -> Self {
        NfsParams {
            first_byte: SimDuration::from_millis(265),
            bandwidth: Bandwidth::mb_per_sec(1.03),
            per_op: SimDuration::from_micros(800),
        }
    }
}

/// A remote file service reached over the network: the [`NfsLink`]
/// mechanism in the device shell.
pub type NfsDevice = Device<NfsLink>;

impl NfsDevice {
    /// A 2 GiB export tuned to Table 2 (270 ms, 1.0 MB/s).
    pub fn table2_mount(name: impl Into<String>) -> Self {
        NfsLink::device(name, 2 << 30, NfsParams::default())
    }

    /// A replica link to a metro-area site: low RPC latency, a fat pipe.
    /// The geo-topology model for redundant volumes is exactly this —
    /// each remote member is an NFS export whose link parameters encode
    /// the site distance.
    pub fn metro_link(name: impl Into<String>) -> Self {
        NfsLink::device(
            name,
            4 << 30,
            NfsParams {
                first_byte: SimDuration::from_millis(2),
                bandwidth: Bandwidth::mb_per_sec(20.0),
                per_op: SimDuration::from_micros(200),
            },
        )
    }

    /// A replica link to a regional site (same coast): tens of
    /// milliseconds of RPC latency, a moderate pipe.
    pub fn regional_link(name: impl Into<String>) -> Self {
        NfsLink::device(
            name,
            4 << 30,
            NfsParams {
                first_byte: SimDuration::from_millis(15),
                bandwidth: Bandwidth::mb_per_sec(8.0),
                per_op: SimDuration::from_micros(500),
            },
        )
    }

    /// A replica link to a continental site (cross-country): the RPC
    /// latency dominates small reads, the thin pipe dominates large ones.
    pub fn continental_link(name: impl Into<String>) -> Self {
        NfsLink::device(
            name,
            4 << 30,
            NfsParams {
                first_byte: SimDuration::from_millis(80),
                bandwidth: Bandwidth::mb_per_sec(2.5),
                per_op: SimDuration::from_micros(1500),
            },
        )
    }

    /// Enables multiplicative jitter on the first-byte penalty, representing
    /// varying server load.
    pub fn with_jitter(mut self, rng: DetRng, amplitude: f64) -> Self {
        self.mechanism_mut().jitter = Some((rng, amplitude));
        self
    }
}

/// An NFS mount's mechanics: the measured pair and the sequential run.
#[derive(Clone, Debug)]
pub struct NfsLink {
    params: NfsParams,
    capacity: u64,
    /// Sector just past the last transfer; sequential runs continue here.
    next_sequential: u64,
    jitter: Option<(DetRng, f64)>,
}

impl NfsLink {
    /// A link to an export of `capacity_bytes`.
    pub fn new(capacity_bytes: u64, params: NfsParams) -> Self {
        NfsLink {
            params,
            capacity: capacity_bytes / SECTOR_SIZE,
            next_sequential: u64::MAX,
            jitter: None,
        }
    }

    fn device(name: impl Into<String>, capacity_bytes: u64, params: NfsParams) -> NfsDevice {
        Device::from_mechanism(name, NfsLink::new(capacity_bytes, params))
    }
}

impl Mechanism for NfsLink {
    const CLASS: DeviceClass = DeviceClass::Network;

    fn capacity_sectors(&self) -> u64 {
        self.capacity
    }

    fn profile(&self) -> DeviceProfile {
        DeviceProfile {
            class: Self::CLASS,
            nominal_latency: self.params.first_byte,
            nominal_bandwidth: self.params.bandwidth,
        }
    }

    /// One RPC, the first-byte penalty unless the command continues the
    /// sequential run, then the payload over the link.
    fn service(
        &mut self,
        start: u64,
        sectors: u64,
        _write: bool,
        _now: SimTime,
        phases: &mut PhaseLog,
    ) -> (SimDuration, u64) {
        phases.add(PhaseKind::Rpc, self.params.per_op);
        let mut t = self.params.per_op;
        let repositioned = start != self.next_sequential;
        if repositioned {
            let jf = jitter_factor(&mut self.jitter);
            let first = SimDuration::from_secs_f64(self.params.first_byte.as_secs_f64() * jf);
            phases.add(PhaseKind::FirstByte, first);
            t += first;
        }
        let link = self.params.bandwidth.transfer_time(sectors * SECTOR_SIZE);
        phases.add(PhaseKind::Link, link);
        t += link;
        self.next_sequential = start + sectors;
        (t, u64::from(repositioned))
    }
}

/// Parameters for a modeled NFS *server* (as opposed to the flat
/// measured-pair [`NfsDevice`]).
#[derive(Clone, Copy, Debug)]
pub struct NfsServerParams {
    /// Network round trip charged on each discontiguous request.
    pub rtt: SimDuration,
    /// Link bandwidth.
    pub link: Bandwidth,
    /// Per-RPC client overhead.
    pub per_op: SimDuration,
    /// Server buffer-cache size in (4 KiB) pages.
    pub server_cache_pages: usize,
}

impl Default for NfsServerParams {
    fn default() -> Self {
        // A LAN server: fast link, so the server's own cache state is what
        // decides performance.
        NfsServerParams {
            rtt: SimDuration::from_millis(2),
            link: Bandwidth::mb_per_sec(10.0),
            per_op: SimDuration::from_micros(500),
            server_cache_pages: 6 << 10, // 24 MiB
        }
    }
}

/// An NFS server with its own disk and buffer cache: the [`NfsServer`]
/// mechanism in the device shell.
///
/// Unlike [`NfsDevice`] (a flat latency/bandwidth pair, as the paper
/// measured its departmental mount), this models the server side: requests
/// that hit the server's cache cost a round trip plus link transfer;
/// misses add the server disk's positional costs. Its
/// [`BlockDevice::dynamic_probe`](crate::BlockDevice::dynamic_probe)
/// reports which is which — the client/server SLEDs vocabulary the paper
/// proposes.
pub type NfsServerDevice = Device<NfsServer>;

impl NfsServerDevice {
    /// A LAN mount backed by the Table 2 disk.
    pub fn lan_mount(name: impl Into<String>) -> Self {
        let disk = Disk::new(DiskGeometry::table2());
        Device::from_mechanism(name, NfsServer::new(disk, NfsServerParams::default()))
    }
}

/// An NFS server's mechanics: its disk, its page cache and the client's
/// sequential run.
pub struct NfsServer {
    params: NfsServerParams,
    disk: Disk,
    cache: PageCache,
    next_sequential: u64,
}

impl std::fmt::Debug for NfsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfsServer")
            .field("cached_pages", &self.cache.len())
            .finish()
    }
}

/// Sectors per server-cache page.
const SRV_PAGE_SECTORS: u64 = 8;

impl NfsServer {
    /// A server around `disk`.
    pub fn new(disk: Disk, params: NfsServerParams) -> Self {
        NfsServer {
            cache: PageCache::lru(params.server_cache_pages.max(1)),
            params,
            disk,
            next_sequential: u64::MAX,
        }
    }

    /// Whether `sector` is currently in the server's cache.
    pub fn server_cached(&self, sector: u64) -> bool {
        self.cache
            .contains(PageKey::new(0, sector / SRV_PAGE_SECTORS))
    }

    /// The server disk's service time for a command at `now`. Its own
    /// phases stay on the server's side: the client sees one `ServerDisk`
    /// phase.
    fn disk_time(&mut self, start: u64, sectors: u64, write: bool, now: SimTime) -> SimDuration {
        let mut server_side = PhaseLog::default();
        let (t, _) = self
            .disk
            .service(start, sectors, write, now, &mut server_side);
        t
    }

    /// A read: the RPC, a round trip unless sequential, the server disk for
    /// each run of pages its cache misses, then the link.
    fn read(
        &mut self,
        start: u64,
        sectors: u64,
        now: SimTime,
        phases: &mut PhaseLog,
    ) -> SimDuration {
        phases.add(PhaseKind::Rpc, self.params.per_op);
        let mut t = self.params.per_op;
        if start != self.next_sequential {
            phases.add(PhaseKind::Rpc, self.params.rtt);
            t += self.params.rtt;
        }
        self.next_sequential = start + sectors;
        // Server-side: fault missing pages from the server disk.
        let first_page = start / SRV_PAGE_SECTORS;
        let last_page = (start + sectors - 1) / SRV_PAGE_SECTORS;
        let mut p = first_page;
        while p <= last_page {
            if self.cache.lookup(PageKey::new(0, p)) {
                p += 1;
                continue;
            }
            // Cluster the miss run.
            let run_start = p;
            let mut run_len = 1u64;
            while run_start + run_len <= last_page
                && !self.cache.contains(PageKey::new(0, run_start + run_len))
            {
                run_len += 1;
            }
            let disk_t = self.disk_time(
                run_start * SRV_PAGE_SECTORS,
                run_len * SRV_PAGE_SECTORS,
                false,
                now + t,
            );
            phases.add(PhaseKind::ServerDisk, disk_t);
            t += disk_t;
            for i in 0..run_len {
                self.cache.insert(PageKey::new(0, run_start + i), false);
            }
            p = run_start + run_len;
        }
        // Link transfer of the payload.
        let link = self.params.link.transfer_time(sectors * SECTOR_SIZE);
        phases.add(PhaseKind::Link, link);
        t + link
    }

    /// A write: write-through, link then disk, leaving clean copies in the
    /// server cache (the server commits before replying, as NFSv2 did).
    fn write(
        &mut self,
        start: u64,
        sectors: u64,
        now: SimTime,
        phases: &mut PhaseLog,
    ) -> SimDuration {
        phases.add(PhaseKind::Rpc, self.params.per_op + self.params.rtt);
        let mut t = self.params.per_op + self.params.rtt;
        let link = self.params.link.transfer_time(sectors * SECTOR_SIZE);
        phases.add(PhaseKind::Link, link);
        t += link;
        let disk_t = self.disk_time(start, sectors, true, now + t);
        phases.add(PhaseKind::ServerDisk, disk_t);
        t += disk_t;
        let first_page = start / SRV_PAGE_SECTORS;
        let last_page = (start + sectors - 1) / SRV_PAGE_SECTORS;
        for p in first_page..=last_page {
            self.cache.insert(PageKey::new(0, p), false);
        }
        self.next_sequential = start + sectors;
        t
    }
}

impl Mechanism for NfsServer {
    const CLASS: DeviceClass = DeviceClass::Network;

    fn capacity_sectors(&self) -> u64 {
        self.disk.capacity_sectors()
    }

    fn profile(&self) -> DeviceProfile {
        let disk = self.disk.profile();
        DeviceProfile {
            class: Self::CLASS,
            nominal_latency: self.params.rtt + disk.nominal_latency,
            nominal_bandwidth: Bandwidth::bytes_per_sec(
                self.params
                    .link
                    .as_bytes_per_sec()
                    .min(disk.nominal_bandwidth.as_bytes_per_sec()),
            ),
        }
    }

    fn dynamic_probe(&self, sector: u64) -> Option<(f64, f64)> {
        let link = self.params.link.as_bytes_per_sec();
        if self.server_cached(sector) {
            Some((self.params.rtt.as_secs_f64(), link))
        } else {
            let disk = self.disk.profile();
            Some((
                self.params.rtt.as_secs_f64() + disk.nominal_latency.as_secs_f64(),
                link.min(disk.nominal_bandwidth.as_bytes_per_sec()),
            ))
        }
    }

    /// Counts no repositionings: the server's disk is behind its cache.
    fn service(
        &mut self,
        start: u64,
        sectors: u64,
        write: bool,
        now: SimTime,
        phases: &mut PhaseLog,
    ) -> (SimDuration, u64) {
        let t = if write {
            self.write(start, sectors, now, phases)
        } else {
            self.read(start, sectors, now, phases)
        };
        (t, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockDevice;

    #[test]
    fn first_access_pays_first_byte() {
        let mut nfs = NfsDevice::table2_mount("srv:/export");
        let t = nfs.read(0, 8, SimTime::ZERO).unwrap();
        assert!(t >= SimDuration::from_millis(260), "first access {t}");
    }

    #[test]
    fn sequential_run_is_bandwidth_limited() {
        let mut nfs = NfsDevice::table2_mount("srv:/export");
        nfs.read(0, 128, SimTime::ZERO).unwrap();
        let t = nfs.read(128, 128, SimTime::ZERO).unwrap();
        // 64 KiB at ~1 MB/s is ~64 ms; no first-byte penalty.
        assert!(t < SimDuration::from_millis(80), "sequential read {t}");
        assert!(t > SimDuration::from_millis(50), "sequential read {t}");
    }

    #[test]
    fn streaming_bandwidth_near_table2() {
        let mut nfs = NfsDevice::table2_mount("srv:/export");
        let mut total = SimDuration::ZERO;
        let cmds = (8u64 << 20) / (64 << 10);
        for i in 0..cmds {
            total += nfs.read(i * 128, 128, SimTime::ZERO).unwrap();
        }
        let bw = (8u64 << 20) as f64 / total.as_secs_f64() / 1e6;
        assert!((0.9..1.15).contains(&bw), "NFS streams at {bw} MB/s");
    }

    #[test]
    fn writes_work_and_pay_same_costs() {
        let mut nfs = NfsDevice::table2_mount("srv:/export");
        let t = nfs.write(1000, 8, SimTime::ZERO).unwrap();
        assert!(t >= SimDuration::from_millis(260));
        let t2 = nfs.write(1008, 8, SimTime::ZERO).unwrap();
        assert!(t2 < SimDuration::from_millis(20));
    }

    #[test]
    fn server_cache_splits_costs() {
        let mut srv = NfsServerDevice::lan_mount("lan0");
        // Cold read: RTT + disk + link.
        let cold = srv.read(0, 128, SimTime::ZERO).unwrap();
        assert!(cold >= SimDuration::from_millis(10), "cold read {cold}");
        // Same range again: server cache hit, RTT + link only.
        let warm = srv.read(0, 128, SimTime::ZERO).unwrap();
        assert!(warm < SimDuration::from_millis(12), "warm read {warm}");
        assert!(warm < cold);
        assert!(srv.server_cached(0));
        assert!(!srv.server_cached(1 << 20));
    }

    #[test]
    fn server_probe_reports_dynamic_state() {
        let mut srv = NfsServerDevice::lan_mount("lan0");
        srv.read(0, 128, SimTime::ZERO).unwrap();
        let (hot_lat, hot_bw) = srv.dynamic_probe(0).unwrap();
        let (cold_lat, cold_bw) = srv.dynamic_probe(1 << 20).unwrap();
        assert!(
            hot_lat < cold_lat,
            "cached range is cheaper: {hot_lat} vs {cold_lat}"
        );
        assert!(hot_bw >= cold_bw);
        // Hot latency is just the round trip.
        assert!((hot_lat - 0.002).abs() < 1e-9);
    }

    #[test]
    fn server_writes_are_write_through_and_cache() {
        let mut srv = NfsServerDevice::lan_mount("lan0");
        let t = srv.write(256, 8, SimTime::ZERO).unwrap();
        assert!(t >= SimDuration::from_millis(2), "write pays rtt+disk: {t}");
        assert!(srv.server_cached(256), "written data is hot on the server");
    }

    #[test]
    fn phases_split_rpc_firstbyte_link_and_server_disk() {
        let mut nfs = NfsDevice::table2_mount("srv:/export");
        let t = nfs.read(0, 128, SimTime::ZERO).unwrap();
        let total: SimDuration = nfs.last_phases().iter().map(|p| p.dur).sum();
        assert_eq!(total, t);
        let kinds: Vec<PhaseKind> = nfs.last_phases().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![PhaseKind::Rpc, PhaseKind::FirstByte, PhaseKind::Link]
        );

        let mut srv = NfsServerDevice::lan_mount("lan0");
        let cold = srv.read(0, 128, SimTime::ZERO).unwrap();
        let total: SimDuration = srv.last_phases().iter().map(|p| p.dur).sum();
        assert_eq!(total, cold);
        assert!(srv
            .last_phases()
            .iter()
            .any(|p| p.kind == PhaseKind::ServerDisk));
        // Warm hit: no server-disk phase.
        srv.read(0, 128, SimTime::ZERO).unwrap();
        assert!(!srv
            .last_phases()
            .iter()
            .any(|p| p.kind == PhaseKind::ServerDisk));
    }

    #[test]
    fn flat_nfs_device_has_no_dynamic_probe() {
        let nfs = NfsDevice::table2_mount("srv:/x");
        assert!(nfs.dynamic_probe(0).is_none());
    }

    #[test]
    fn jitter_varies_first_byte() {
        let mut nfs = NfsDevice::table2_mount("srv:/export").with_jitter(DetRng::new(5), 0.2);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..8 {
            // Alternate far-apart offsets so each read repositions.
            let t = nfs.read(i * 100_000, 8, SimTime::ZERO).unwrap();
            seen.insert(t.as_nanos());
        }
        assert!(seen.len() > 1, "jitter should vary the penalty");
    }
}
