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

use sleds_sim_core::{Bandwidth, DetRng, SimDuration, SimTime, SECTOR_SIZE};

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
    fn phases_split_rpc_firstbyte_and_link() {
        let mut nfs = NfsDevice::table2_mount("srv:/export");
        let t = nfs.read(0, 128, SimTime::ZERO).unwrap();
        let total: SimDuration = nfs.last_phases().iter().map(|p| p.dur).sum();
        assert_eq!(total, t);
        let kinds: Vec<PhaseKind> = nfs.last_phases().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![PhaseKind::Rpc, PhaseKind::FirstByte, PhaseKind::Link]
        );
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
