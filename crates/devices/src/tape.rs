//! A serpentine tape drive model.
//!
//! Follows the spirit of Hillyer & Silberschatz's DLT characterization as
//! simplified by Sandsta & Midstraum: data is recorded in longitudinal
//! *wraps* that alternate direction, locates move the tape at a search speed
//! that is a multiple of the read speed, and every locate pays a fixed
//! minimum (ramp up, head settle). Mounting an unloaded cartridge pays a
//! load-and-thread time; unloading rewinds first.
//!
//! This is the device that gives hierarchical storage its "eleven orders of
//! magnitude" dynamic range in the paper's introduction: microseconds for
//! cached data versus minutes once a mount and a long locate are involved.

use sleds_sim_core::{Bandwidth, SimDuration, SimTime, SECTOR_SIZE};

use crate::{Device, DeviceClass, DeviceProfile, Mechanism, PhaseKind, PhaseLog};

/// Timing and geometry parameters for a tape drive + cartridge.
#[derive(Clone, Copy, Debug)]
pub struct TapeParams {
    /// Cartridge capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of serpentine wraps (tracks along the tape).
    pub wraps: u32,
    /// Load-and-thread time when mounting.
    pub load: SimDuration,
    /// Full-length rewind time (scaled by position when unloading).
    pub rewind_full: SimDuration,
    /// Fixed minimum cost of any locate.
    pub locate_base: SimDuration,
    /// Search speed as a multiple of streaming read speed.
    pub search_speedup: f64,
    /// Cost of changing wraps during a locate (head step + direction turn).
    pub wrap_change: SimDuration,
    /// Streaming rate.
    pub rate: Bandwidth,
    /// Stop/start penalty to resume streaming after any repositioning.
    pub stop_start: SimDuration,
}

impl Default for TapeParams {
    fn default() -> Self {
        // A late-1990s DLT-class drive: 20 GB native, 5 MB/s.
        TapeParams {
            capacity_bytes: 20 << 30,
            wraps: 52,
            load: SimDuration::from_secs(40),
            rewind_full: SimDuration::from_secs(90),
            locate_base: SimDuration::from_secs(2),
            search_speedup: 3.0,
            wrap_change: SimDuration::from_millis(1500),
            rate: Bandwidth::mb_per_sec(5.0),
            stop_start: SimDuration::from_millis(500),
        }
    }
}

/// Longitudinal coordinates of a sector on a serpentine tape.
#[derive(Clone, Copy, Debug, PartialEq)]
struct TapePos {
    wrap: u32,
    /// Physical position along the tape as a fraction of its length, 0 at
    /// the load point.
    long_frac: f64,
}

/// A tape drive with one (possibly unloaded) cartridge: the [`Tape`]
/// mechanism in the device shell.
pub type TapeDevice = Device<Tape>;

impl TapeDevice {
    /// A default DLT-class drive.
    pub fn dlt(name: impl Into<String>) -> Self {
        Device::from_mechanism(name, Tape::new(TapeParams::default()))
    }
}

/// A tape drive's mechanics: the cartridge's load state and head position.
#[derive(Clone, Debug)]
pub struct Tape {
    params: TapeParams,
    capacity: u64,
    sectors_per_wrap: u64,
    loaded: bool,
    /// Sector just past the head's position, if positioned.
    position: Option<u64>,
}

impl Tape {
    /// A drive with an unloaded cartridge.
    ///
    /// # Panics
    ///
    /// Panics if `wraps == 0`; parameters are construction-time config.
    pub fn new(params: TapeParams) -> Self {
        assert!(params.wraps > 0, "tape needs at least one wrap");
        let capacity = params.capacity_bytes / SECTOR_SIZE;
        Tape {
            sectors_per_wrap: (capacity / params.wraps as u64).max(1),
            params,
            capacity,
            loaded: false,
            position: None,
        }
    }

    /// Mounts the cartridge if necessary; returns time spent.
    pub(crate) fn ensure_loaded(&mut self) -> SimDuration {
        if self.loaded {
            SimDuration::ZERO
        } else {
            self.loaded = true;
            self.position = Some(0);
            self.params.load
        }
    }

    /// Rewinds and unloads; returns time spent.
    pub(crate) fn unload(&mut self) -> SimDuration {
        if !self.loaded {
            return SimDuration::ZERO;
        }
        let frac = self
            .position
            .map(|s| {
                self.coords(s.min(self.capacity.saturating_sub(1)))
                    .long_frac
            })
            .unwrap_or(0.0);
        self.loaded = false;
        self.position = None;
        SimDuration::from_secs_f64(self.params.rewind_full.as_secs_f64() * frac.max(0.05))
    }

    fn coords(&self, sector: u64) -> TapePos {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "clamped to wraps - 1 which is u32"
        )]
        let wrap = (sector / self.sectors_per_wrap).min(self.params.wraps as u64 - 1) as u32;
        let within = sector - wrap as u64 * self.sectors_per_wrap;
        let frac = within as f64 / self.sectors_per_wrap as f64;
        // Even wraps run forward, odd wraps run backward.
        let long_frac = if wrap.is_multiple_of(2) {
            frac
        } else {
            1.0 - frac
        };
        TapePos { wrap, long_frac }
    }

    /// Time for one full pass of the tape at streaming speed.
    fn pass_time(&self) -> f64 {
        let wrap_bytes = self.sectors_per_wrap * SECTOR_SIZE;
        self.params.rate.transfer_time(wrap_bytes).as_secs_f64()
    }

    /// Locate from sector `from` to a different `target` sector.
    fn locate(&self, from: u64, target: u64) -> SimDuration {
        let a = self.coords(from.min(self.capacity - 1));
        let b = self.coords(target);
        let long_dist = (a.long_frac - b.long_frac).abs();
        let wraps_crossed = a.wrap.abs_diff(b.wrap) as f64;
        let secs = self.params.locate_base.as_secs_f64()
            + long_dist * self.pass_time() / self.params.search_speedup.max(1.0)
            + (wraps_crossed.min(1.0)) * self.params.wrap_change.as_secs_f64()
            + self.params.stop_start.as_secs_f64();
        SimDuration::from_secs_f64(secs)
    }
}

impl Mechanism for Tape {
    const CLASS: DeviceClass = DeviceClass::Tape;

    fn capacity_sectors(&self) -> u64 {
        self.capacity
    }

    fn profile(&self) -> DeviceProfile {
        // Nominal: a mount plus an average locate (third of a pass at search
        // speed) — the tape's "first byte" cost when cold.
        let lat = self.params.load.as_secs_f64()
            + self.params.locate_base.as_secs_f64()
            + self.pass_time() / (3.0 * self.params.search_speedup.max(1.0));
        DeviceProfile {
            class: Self::CLASS,
            nominal_latency: SimDuration::from_secs_f64(lat),
            nominal_bandwidth: self.params.rate,
        }
    }

    /// Mounts if unloaded, locates unless the head is at `start`, then
    /// streams. The mount and the locate count one repositioning each.
    fn service(
        &mut self,
        start: u64,
        sectors: u64,
        _write: bool,
        _now: SimTime,
        phases: &mut PhaseLog,
    ) -> (SimDuration, u64) {
        let mut repositions = u64::from(!self.loaded);
        let mount = self.ensure_loaded();
        phases.add(PhaseKind::Mount, mount);
        let mut t = mount;
        // ensure_loaded positions a fresh mount at sector 0.
        let from = self.position.unwrap_or(0);
        if from != start {
            let locate = self.locate(from, start);
            phases.add(PhaseKind::Locate, locate);
            t += locate;
            repositions += 1;
        }
        let stream = self.params.rate.transfer_time(sectors * SECTOR_SIZE);
        phases.add(PhaseKind::Stream, stream);
        t += stream;
        self.position = Some(start + sectors);
        (t, repositions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockDevice;

    #[test]
    fn first_read_pays_mount() {
        let mut t = TapeDevice::dlt("st0");
        let d = t.read(0, 8, SimTime::ZERO).unwrap();
        assert!(d >= SimDuration::from_secs(40), "mount not charged: {d}");
        let mounts = |t: &TapeDevice| t.last_phases().iter().any(|p| p.kind == PhaseKind::Mount);
        assert!(mounts(&t), "the first read loads the cartridge");
        t.read(8, 8, SimTime::ZERO).unwrap();
        assert!(!mounts(&t), "the cartridge stays loaded");
    }

    #[test]
    fn sequential_streaming_after_mount() {
        let mut t = TapeDevice::dlt("st0");
        t.read(0, 8, SimTime::ZERO).unwrap();
        // 1 MiB contiguous at 5 MB/s ~ 0.21 s, no locate.
        let d = t.read(8, 2048, SimTime::ZERO).unwrap();
        let secs = d.as_secs_f64();
        assert!((0.15..0.3).contains(&secs), "streaming read {secs}");
    }

    #[test]
    fn far_locate_costs_seconds_but_less_than_reading_through() {
        let mut t = TapeDevice::dlt("st0");
        t.read(0, 8, SimTime::ZERO).unwrap();
        let cap = t.capacity_sectors();
        let d = t.read(cap / 2, 8, SimTime::ZERO).unwrap();
        let secs = d.as_secs_f64();
        assert!(secs > 2.0, "far locate too cheap: {secs}");
        // Reading halfway through the tape at 5 MB/s would take ~2000 s.
        assert!(secs < 120.0, "far locate too expensive: {secs}");
    }

    #[test]
    fn unload_scales_with_position() {
        let mut t = Tape::new(TapeParams::default());
        let mut phases = PhaseLog::default();
        t.service(0, 8, false, SimTime::ZERO, &mut phases);
        let near = t.unload();
        // The middle of a wrap is longitudinally farthest from the load
        // point (serpentine wraps start and end near it).
        let mid_wrap = t.sectors_per_wrap / 2;
        t.service(mid_wrap, 8, false, SimTime::ZERO, &mut phases);
        let far = t.unload();
        assert!(
            far > near,
            "rewind from mid-tape ({far}) should exceed ({near})"
        );
        // Unloaded: the next command loads the cartridge again.
        let mut phases = PhaseLog::default();
        t.service(0, 8, false, SimTime::ZERO, &mut phases);
        assert!(phases.as_slice().iter().any(|p| p.kind == PhaseKind::Mount));
    }

    /// A cold read at sector 0 is one mount; a later locate adds one; a
    /// streaming continuation adds none.
    #[test]
    fn tape_counts_each_mount_and_locate_once() {
        let mut t = TapeDevice::dlt("st0");
        t.read(0, 8, SimTime::ZERO).unwrap();
        assert_eq!(t.stats().repositions, 1, "cold mount");
        t.read(1_000_000, 8, SimTime::ZERO).unwrap();
        assert_eq!(t.stats().repositions, 2, "one locate");
        t.read(1_000_008, 8, SimTime::ZERO).unwrap();
        assert_eq!(t.stats().repositions, 2, "streaming");
        // A cold read elsewhere is a mount and a locate.
        let mut cold = TapeDevice::dlt("st1");
        cold.read(1_000_000, 8, SimTime::ZERO).unwrap();
        assert_eq!(cold.stats().repositions, 2);
    }

    #[test]
    fn serpentine_coords_alternate_direction() {
        let t = TapeDevice::dlt("st0");
        let spw = t.sectors_per_wrap;
        let end_w0 = t.coords(spw - 1);
        let start_w1 = t.coords(spw);
        // End of wrap 0 and start of wrap 1 are physically adjacent.
        assert_eq!(end_w0.wrap, 0);
        assert_eq!(start_w1.wrap, 1);
        assert!((end_w0.long_frac - 1.0).abs() < 1e-3);
        assert!((start_w1.long_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adjacent_wrap_locate_is_cheap() {
        let mut t = TapeDevice::dlt("st0");
        let spw = t.sectors_per_wrap;
        t.read(spw - 8, 8, SimTime::ZERO).unwrap(); // end of wrap 0
        let d = t.read(spw, 8, SimTime::ZERO).unwrap(); // start of wrap 1
        let secs = d.as_secs_f64();
        // locate_base + wrap change + stop/start, no longitudinal motion.
        assert!(secs < 6.0, "adjacent-wrap locate {secs}");
    }

    #[test]
    fn phases_cover_mount_locate_stream() {
        let mut t = TapeDevice::dlt("st0");
        let cap = t.capacity_sectors();
        let d = t.read(cap / 2, 8, SimTime::ZERO).unwrap();
        let phases = t.last_phases();
        let total: SimDuration = phases.iter().map(|p| p.dur).sum();
        assert_eq!(total, d);
        let kinds: Vec<PhaseKind> = phases.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![PhaseKind::Mount, PhaseKind::Locate, PhaseKind::Stream]
        );
        // Sequential continuation: stream only.
        let d = t.read(cap / 2 + 8, 8, SimTime::ZERO).unwrap();
        assert_eq!(t.last_phases().len(), 1);
        assert_eq!(t.last_phases()[0].kind, PhaseKind::Stream);
        assert_eq!(t.last_phases()[0].dur, d);
    }

    #[test]
    fn range_checked() {
        let mut t = TapeDevice::dlt("st0");
        let cap = t.capacity_sectors();
        assert!(t.read(cap, 1, SimTime::ZERO).is_err());
    }
}
