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

use sleds_sim_core::{Bandwidth, DetRng, SimDuration, SimResult, SimTime, SECTOR_SIZE};

use crate::{
    apply_fault_overheads, check_range, fault_gate, BlockDevice, DevStats, DeviceClass,
    DeviceProfile, FaultInjector, FaultState, PhaseKind, PhaseLog, ServicePhase,
};

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

/// A CD-ROM drive with laser-position state.
#[derive(Clone, Debug)]
pub struct CdRomDevice {
    name: String,
    params: CdRomParams,
    capacity: u64,
    /// Sector just past the last one transferred; the laser tracks here.
    position: u64,
    stats: DevStats,
    phases: PhaseLog,
    jitter: Option<(DetRng, f64)>,
    faults: Option<FaultInjector>,
}

impl CdRomDevice {
    /// Creates a CD-ROM of `capacity_bytes` with the given parameters.
    pub fn new(name: impl Into<String>, capacity_bytes: u64, params: CdRomParams) -> Self {
        CdRomDevice {
            name: name.into(),
            params,
            capacity: capacity_bytes / SECTOR_SIZE,
            position: 0,
            stats: DevStats::default(),
            phases: PhaseLog::default(),
            jitter: None,
            faults: None,
        }
    }

    /// A 650 MB disc in a drive tuned to Table 2 (130 ms, 2.8 MB/s).
    pub fn table2_drive(name: impl Into<String>) -> Self {
        CdRomDevice::new(name, 650 << 20, CdRomParams::default())
    }

    /// Enables multiplicative jitter on positioning costs.
    pub fn with_jitter(mut self, rng: DetRng, amplitude: f64) -> Self {
        self.jitter = Some((rng, amplitude));
        self
    }

    /// Current laser position (sector just past the last transfer).
    pub fn position(&self) -> u64 {
        self.position
    }

    fn jitter_factor(&mut self) -> f64 {
        match &mut self.jitter {
            Some((rng, amp)) => {
                let amp = *amp;
                rng.jitter(amp)
            }
            None => 1.0,
        }
    }

    fn service(&mut self, start: u64, sectors: u64) -> (SimDuration, bool) {
        self.phases.add(PhaseKind::Overhead, self.params.overhead);
        let mut t = self.params.overhead;
        let repositioned = start != self.position;
        if repositioned {
            let dist_frac = start.abs_diff(self.position) as f64 / self.capacity.max(1) as f64;
            let seek_secs = self.params.seek_base.as_secs_f64()
                + dist_frac * self.params.seek_full.as_secs_f64()
                + self.params.settle.as_secs_f64();
            let jf = self.jitter_factor();
            let seek = SimDuration::from_secs_f64(seek_secs * jf);
            self.phases.add(PhaseKind::Seek, seek);
            t += seek;
        }
        let xfer = self.params.media_rate.transfer_time(sectors * SECTOR_SIZE);
        self.phases.add(PhaseKind::Transfer, xfer);
        t += xfer;
        self.position = start + sectors;
        (t, repositioned)
    }
}

impl BlockDevice for CdRomDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> DeviceClass {
        DeviceClass::CdRom
    }

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
            class: DeviceClass::CdRom,
            nominal_latency: lat,
            nominal_bandwidth: self.params.media_rate,
        }
    }

    fn read(&mut self, start: u64, sectors: u64, now: SimTime) -> SimResult<SimDuration> {
        self.phases.clear();
        check_range(&self.name, self.capacity, start, sectors)?;
        let (mult, resume) = fault_gate(&mut self.faults, &mut self.phases, &self.name, now)?;
        let (t, repo) = self.service(start, sectors);
        let t = apply_fault_overheads(&mut self.phases, t, mult, resume);
        self.stats.note_read(sectors, t, repo);
        Ok(t)
    }

    fn write(&mut self, _start: u64, _sectors: u64, _now: SimTime) -> SimResult<SimDuration> {
        self.phases.clear();
        Err(sleds_sim_core::SimError::new(
            sleds_sim_core::Errno::Erofs,
            format!("{}: CD-ROM is read-only", self.name),
        ))
    }

    fn stats(&self) -> DevStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DevStats::default();
    }

    fn last_phases(&self) -> &[ServicePhase] {
        self.phases.as_slice()
    }

    fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    fn fault_epoch(&self, now: SimTime) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.epoch(now))
    }

    fn fault_state(&self, now: SimTime) -> FaultState {
        self.faults
            .as_ref()
            .map_or(FaultState::Healthy, |f| f.state(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
