//! A CLV CD-ROM drive model.
//!
//! Constant-linear-velocity drives read at a fixed media rate, but seeking
//! is expensive: the sled must move and the spindle must change angular
//! velocity to keep the linear velocity constant at the new radius. The
//! model therefore charges a distance-dependent seek plus a fixed
//! re-synchronization settle for any discontiguous access, and nothing but
//! transfer time for sequential ones.
//!
//! Default parameters measure (via `sleds-lmbench`) to roughly Table 2's
//! 130 ms latency and 2.8 MB/s bandwidth.

use sleds_sim_core::{Bandwidth, DetRng, SimDuration, SimTime, SECTOR_SIZE};

use crate::{jitter_factor, Device, DeviceClass, DeviceProfile, Mechanism, PhaseKind, PhaseLog};

/// Timing parameters for a CD-ROM drive.
#[derive(Clone, Copy, Debug)]
pub struct CdRomParams {
    /// Media transfer rate (CLV, so constant across the disc).
    pub media_rate: Bandwidth,
    /// Fixed component of any seek (sled start/stop, focus).
    pub seek_base: SimDuration,
    /// Distance-dependent seek component for a full-stroke move.
    pub seek_full: SimDuration,
    /// Spindle re-synchronization after any seek.
    pub settle: SimDuration,
    /// Per-command controller overhead.
    pub overhead: SimDuration,
}

impl Default for CdRomParams {
    fn default() -> Self {
        CdRomParams {
            media_rate: Bandwidth::mb_per_sec(2.95),
            seek_base: SimDuration::from_millis(70),
            seek_full: SimDuration::from_millis(110),
            settle: SimDuration::from_millis(22),
            overhead: SimDuration::from_micros(600),
        }
    }
}

/// A CD-ROM drive: the [`CdRom`] mechanism in the device shell.
pub type CdRomDevice = Device<CdRom>;

impl CdRomDevice {
    /// A 650 MB disc in a drive tuned to Table 2 (130 ms, 2.8 MB/s).
    pub fn table2_drive(name: impl Into<String>) -> Self {
        Device::from_mechanism(name, CdRom::new(650 << 20, CdRomParams::default()))
    }

    /// Enables multiplicative jitter on seek times.
    pub fn with_jitter(mut self, rng: DetRng, amplitude: f64) -> Self {
        self.mechanism_mut().jitter = Some((rng, amplitude));
        self
    }
}

/// A CD-ROM drive's mechanics: the laser position over read-only media.
#[derive(Clone, Debug)]
pub struct CdRom {
    params: CdRomParams,
    capacity: u64,
    /// Sector just past the last one transferred; the laser tracks here.
    position: u64,
    jitter: Option<(DetRng, f64)>,
}

impl CdRom {
    /// A drive holding a disc of `capacity_bytes`.
    pub fn new(capacity_bytes: u64, params: CdRomParams) -> Self {
        CdRom {
            params,
            capacity: capacity_bytes / SECTOR_SIZE,
            position: 0,
            jitter: None,
        }
    }

    /// Current laser position (sector just past the last transfer).
    pub fn position(&self) -> u64 {
        self.position
    }
}

impl Mechanism for CdRom {
    const CLASS: DeviceClass = DeviceClass::CdRom;
    const READ_ONLY: bool = true;

    fn capacity_sectors(&self) -> u64 {
        self.capacity
    }

    fn profile(&self) -> DeviceProfile {
        let lat = SimDuration::from_secs_f64(
            self.params.seek_base.as_secs_f64()
                + self.params.seek_full.as_secs_f64() / 3.0
                + self.params.settle.as_secs_f64(),
        );
        DeviceProfile {
            class: Self::CLASS,
            nominal_latency: lat,
            nominal_bandwidth: self.params.media_rate,
        }
    }

    /// Seeks and resynchronizes unless the command starts at the laser,
    /// then transfers at the media rate.
    fn service(
        &mut self,
        start: u64,
        sectors: u64,
        _write: bool,
        _now: SimTime,
        phases: &mut PhaseLog,
    ) -> (SimDuration, u64) {
        phases.add(PhaseKind::Overhead, self.params.overhead);
        let mut t = self.params.overhead;
        let repositioned = start != self.position;
        if repositioned {
            let dist_frac = start.abs_diff(self.position) as f64 / self.capacity.max(1) as f64;
            let seek_secs = self.params.seek_base.as_secs_f64()
                + dist_frac * self.params.seek_full.as_secs_f64()
                + self.params.settle.as_secs_f64();
            let jf = jitter_factor(&mut self.jitter);
            let seek = SimDuration::from_secs_f64(seek_secs * jf);
            phases.add(PhaseKind::Seek, seek);
            t += seek;
        }
        let xfer = self.params.media_rate.transfer_time(sectors * SECTOR_SIZE);
        phases.add(PhaseKind::Transfer, xfer);
        t += xfer;
        self.position = start + sectors;
        (t, u64::from(repositioned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockDevice;

    #[test]
    fn phases_cover_overhead_seek_transfer() {
        let mut cd = CdRomDevice::table2_drive("cd0");
        cd.read(1000, 8, SimTime::ZERO).unwrap();
        let t = cd.read(0, 8, SimTime::ZERO).unwrap();
        let total: SimDuration = cd.last_phases().iter().map(|p| p.dur).sum();
        assert_eq!(total, t);
        let kinds: Vec<PhaseKind> = cd.last_phases().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![PhaseKind::Overhead, PhaseKind::Seek, PhaseKind::Transfer]
        );
    }

    #[test]
    fn sequential_reads_skip_seek() {
        let mut cd = CdRomDevice::table2_drive("cd0");
        let t1 = cd.read(0, 128, SimTime::ZERO).unwrap();
        let t2 = cd.read(128, 128, SimTime::ZERO).unwrap();
        // First read seeks (position starts at 0 but the read begins there,
        // so actually no seek); second is contiguous.
        assert_eq!(t1, t2);
        let t3 = cd.read(0, 128, SimTime::ZERO).unwrap();
        assert!(
            t3 > t2 + SimDuration::from_millis(50),
            "backward seek is slow"
        );
    }

    #[test]
    fn streaming_bandwidth_near_table2() {
        let mut cd = CdRomDevice::table2_drive("cd0");
        let mut total = SimDuration::ZERO;
        let cmds = (16u64 << 20) / (64 << 10);
        for i in 0..cmds {
            total += cd.read(i * 128, 128, SimTime::ZERO).unwrap();
        }
        let bw = (16u64 << 20) as f64 / total.as_secs_f64() / 1e6;
        assert!((2.5..3.2).contains(&bw), "CD streams at {bw} MB/s");
    }

    #[test]
    fn random_latency_near_table2() {
        let mut cd = CdRomDevice::table2_drive("cd0");
        let mut rng = DetRng::new(7);
        let cap = cd.capacity_sectors();
        let n = 100;
        let mut total = 0.0;
        for _ in 0..n {
            let s = rng.range_u64(0, cap - 8);
            total += cd.read(s, 8, SimTime::ZERO).unwrap().as_secs_f64();
        }
        let avg_ms = total / n as f64 * 1e3;
        assert!(
            (100.0..170.0).contains(&avg_ms),
            "CD random latency {avg_ms} ms"
        );
    }

    #[test]
    fn writes_rejected() {
        let mut cd = CdRomDevice::table2_drive("cd0");
        let err = cd.write(0, 1, SimTime::ZERO).unwrap_err();
        assert_eq!(err.errno, sleds_sim_core::Errno::Erofs);
    }

    #[test]
    fn position_advances() {
        let mut cd = CdRomDevice::table2_drive("cd0");
        cd.read(100, 28, SimTime::ZERO).unwrap();
        assert_eq!(cd.position(), 128);
        assert_eq!(cd.stats().repositions, 1);
    }
}
