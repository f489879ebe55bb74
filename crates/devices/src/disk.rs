//! A zoned hard-disk model in the style of Ruemmler and Wilkes.
//!
//! The model tracks the head's cylinder and derives the rotational angle
//! from absolute virtual time (the platter never stops spinning), so service
//! time for a command is:
//!
//! ```text
//! controller overhead
//!   + seek(|current cylinder - target cylinder|)
//!   + rotational wait to the target sector
//!   + transfer (per-track rate of the zone, plus head/cylinder switches)
//! ```
//!
//! Zoned recording gives outer cylinders more sectors per track and thus
//! higher bandwidth — which is why the paper's future-work section wants
//! per-zone rows in the sleds table, and why our SLED generator can produce
//! different bandwidths for different parts of one file.
//!
//! The seek curve is the standard three-point fit: square-root shaped for
//! short distances, linear beyond one third of the stroke (see Ruemmler &
//! Wilkes, "An introduction to disk drive modeling", IEEE Computer 1994).

use sleds_sim_core::{Bandwidth, DetRng, SimDuration, SimTime, SECTOR_SIZE};

use crate::{
    jitter_factor, Device, DeviceClass, DeviceProfile, Mechanism, PhaseKind, PhaseLog, ZoneSpan,
};

/// A recording zone: a contiguous run of cylinders with uniform
/// sectors-per-track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Zone {
    /// Number of cylinders in this zone.
    pub cylinders: u32,
    /// Sectors per track within the zone.
    pub sectors_per_track: u32,
}

/// Geometry and timing parameters of a disk.
#[derive(Clone, Debug)]
pub struct DiskGeometry {
    /// Number of recording surfaces (heads).
    pub heads: u32,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Zones, ordered from the outermost (LBA 0) inward.
    pub zones: Vec<Zone>,
    /// Single-cylinder seek time.
    pub track_to_track: SimDuration,
    /// Average (one-third stroke) seek time.
    pub average_seek: SimDuration,
    /// Full-stroke seek time.
    pub full_stroke: SimDuration,
    /// Head-switch (surface change) time.
    pub head_switch: SimDuration,
    /// Fixed per-command controller overhead.
    pub controller_overhead: SimDuration,
}

impl DiskGeometry {
    /// Total cylinders across all zones.
    pub fn cylinders(&self) -> u32 {
        self.zones.iter().map(|z| z.cylinders).sum()
    }

    /// Total capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.zones
            .iter()
            .map(|z| z.cylinders as u64 * self.heads as u64 * z.sectors_per_track as u64)
            .sum()
    }

    /// One full revolution.
    pub fn rotation_period(&self) -> SimDuration {
        SimDuration::from_secs_f64(60.0 / self.rpm as f64)
    }

    /// The geometry of [`DiskDevice::table2_disk`].
    pub(crate) fn table2() -> Self {
        DiskGeometry {
            heads: 4,
            rpm: 5400,
            zones: vec![
                Zone {
                    cylinders: 4000,
                    sectors_per_track: 260,
                },
                Zone {
                    cylinders: 4000,
                    sectors_per_track: 220,
                },
                Zone {
                    cylinders: 4000,
                    sectors_per_track: 170,
                },
            ],
            track_to_track: SimDuration::from_micros(1_800),
            average_seek: SimDuration::from_millis(12),
            full_stroke: SimDuration::from_millis(22),
            head_switch: SimDuration::from_micros(900),
            controller_overhead: SimDuration::from_micros(200),
        }
    }

    /// The geometry of [`DiskDevice::table3_disk`].
    fn table3() -> Self {
        DiskGeometry {
            heads: 4,
            rpm: 5400,
            zones: vec![
                Zone {
                    cylinders: 4000,
                    sectors_per_track: 200,
                },
                Zone {
                    cylinders: 4000,
                    sectors_per_track: 170,
                },
                Zone {
                    cylinders: 4000,
                    sectors_per_track: 130,
                },
            ],
            track_to_track: SimDuration::from_micros(1_700),
            average_seek: SimDuration::from_micros(10_500),
            full_stroke: SimDuration::from_millis(20),
            head_switch: SimDuration::from_micros(900),
            controller_overhead: SimDuration::from_micros(200),
        }
    }
}

/// Physical location of a sector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Chs {
    zone: usize,
    cylinder: u32,
    head: u32,
    sector: u32,
}

/// A hard disk: the [`Disk`] mechanism in the device shell.
pub type DiskDevice = Device<Disk>;

impl DiskDevice {
    /// The disk used for the Unix-utility experiments: measures to roughly
    /// Table 2's 18 ms latency and 9 MB/s streaming bandwidth.
    pub fn table2_disk(name: impl Into<String>) -> Self {
        Device::from_mechanism(name, Disk::new(DiskGeometry::table2()))
    }

    /// The disk used for the LHEASOFT experiments: measures to roughly
    /// Table 3's 16.5 ms latency and 7 MB/s streaming bandwidth.
    pub fn table3_disk(name: impl Into<String>) -> Self {
        Device::from_mechanism(name, Disk::new(DiskGeometry::table3()))
    }

    /// Enables multiplicative jitter on seek times, representing
    /// background activity. `amplitude` is a fraction, e.g. `0.05` for ±5%.
    pub fn with_jitter(mut self, rng: DetRng, amplitude: f64) -> Self {
        self.mechanism_mut().jitter = Some((rng, amplitude));
        self
    }
}

/// A disk's mechanics: geometry, head position and the seek curve.
#[derive(Clone, Debug)]
pub struct Disk {
    geom: DiskGeometry,
    capacity: u64,
    current_cylinder: u32,
    /// Sector just past the last transfer. A command starting here streams
    /// out of the drive's read-ahead buffer: no seek, no rotational wait.
    next_sequential: u64,
    jitter: Option<(DetRng, f64)>,
    // Seek-curve coefficients, fitted once at construction.
    seek_sqrt_a: f64,
    seek_sqrt_b: f64,
    seek_lin_c: f64,
    seek_lin_f: f64,
    seek_knee: f64,
}

impl Disk {
    /// A disk from a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no zones or a zero-sector zone; geometry is
    /// construction-time configuration, not runtime input.
    pub fn new(geom: DiskGeometry) -> Self {
        assert!(!geom.zones.is_empty(), "disk needs at least one zone");
        assert!(
            geom.zones
                .iter()
                .all(|z| z.sectors_per_track > 0 && z.cylinders > 0),
            "zones must be non-empty"
        );
        let capacity = geom.capacity_sectors();
        let cyls = geom.cylinders() as f64;
        let knee = (cyls / 3.0).max(2.0);
        let t2t = geom.track_to_track.as_secs_f64();
        let avg = geom.average_seek.as_secs_f64();
        let full = geom.full_stroke.as_secs_f64();
        // Square-root segment through (1, t2t) and (knee, avg).
        let b = (avg - t2t) / (knee.sqrt() - 1.0);
        let a = t2t - b;
        // Linear segment through (knee, avg) and (cyls-1, full).
        let f = (full - avg) / ((cyls - 1.0) - knee).max(1.0);
        let c = avg - f * knee;
        Disk {
            geom,
            capacity,
            current_cylinder: 0,
            next_sequential: u64::MAX,
            jitter: None,
            seek_sqrt_a: a,
            seek_sqrt_b: b,
            seek_lin_c: c,
            seek_lin_f: f,
            seek_knee: knee,
        }
    }

    /// The cylinder the head currently rests on.
    pub fn current_cylinder(&self) -> u32 {
        self.current_cylinder
    }

    /// Seek time for a cylinder distance `d`.
    pub fn seek_time(&self, d: u32) -> SimDuration {
        if d == 0 {
            return SimDuration::ZERO;
        }
        let d = d as f64;
        let secs = if d <= self.seek_knee {
            self.seek_sqrt_a + self.seek_sqrt_b * d.sqrt()
        } else {
            self.seek_lin_c + self.seek_lin_f * d
        };
        SimDuration::from_secs_f64(secs.max(0.0))
    }

    /// Bandwidth of the zone containing `sector` (sustained, including the
    /// head-switch dead time between tracks).
    pub fn zone_bandwidth(&self, sector: u64) -> Bandwidth {
        let chs = self.locate(sector);
        let spt = self.geom.zones[chs.zone].sectors_per_track;
        let track_bytes = spt as f64 * SECTOR_SIZE as f64;
        let track_time =
            self.geom.rotation_period().as_secs_f64() + self.geom.head_switch.as_secs_f64();
        Bandwidth::bytes_per_sec(track_bytes / track_time)
    }

    #[expect(
        clippy::unreachable,
        reason = "every caller range-checks sector < capacity, and capacity is the sum of all zone_sectors"
    )]
    fn locate(&self, sector: u64) -> Chs {
        debug_assert!(sector < self.capacity);
        let mut remaining = sector;
        let mut cyl_base = 0u32;
        for (zi, z) in self.geom.zones.iter().enumerate() {
            let per_cyl = self.geom.heads as u64 * z.sectors_per_track as u64;
            let zone_sectors = z.cylinders as u64 * per_cyl;
            if remaining < zone_sectors {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "quotient < z.cylinders which is u32"
                )]
                let cyl_in_zone = (remaining / per_cyl) as u32;
                let within = remaining % per_cyl;
                return Chs {
                    zone: zi,
                    cylinder: cyl_base + cyl_in_zone,
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "quotient < geom.heads which is u32"
                    )]
                    head: (within / z.sectors_per_track as u64) as u32,
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "remainder < sectors_per_track which is u32"
                    )]
                    sector: (within % z.sectors_per_track as u64) as u32,
                };
            }
            remaining -= zone_sectors;
            cyl_base += z.cylinders;
        }
        unreachable!("sector {sector} beyond capacity {}", self.capacity);
    }

    /// Angular position of the platter (fraction of a revolution) at `t`.
    fn angle_at(&self, t: SimTime) -> f64 {
        let period = self.geom.rotation_period().as_nanos();
        (t.as_nanos() % period) as f64 / period as f64
    }
}

impl Mechanism for Disk {
    const CLASS: DeviceClass = DeviceClass::Disk;

    fn capacity_sectors(&self) -> u64 {
        self.capacity
    }

    fn profile(&self) -> DeviceProfile {
        // Nominal latency: average seek plus half a revolution.
        let lat = self.geom.average_seek + self.geom.rotation_period() / 2;
        DeviceProfile {
            class: Self::CLASS,
            nominal_latency: lat,
            nominal_bandwidth: self.zone_bandwidth(0),
        }
    }

    fn zone_map(&self) -> Vec<ZoneSpan> {
        let mut spans = Vec::with_capacity(self.geom.zones.len());
        let mut sector = 0u64;
        for z in &self.geom.zones {
            let sectors = z.cylinders as u64 * self.geom.heads as u64 * z.sectors_per_track as u64;
            spans.push(ZoneSpan {
                start_sector: sector,
                sectors,
                bandwidth: self.zone_bandwidth(sector),
            });
            sector += sectors;
        }
        spans
    }

    /// Seeks and rotates unless the command continues the last one, then
    /// transfers across track and cylinder boundaries. A command that ends
    /// on another cylinder counts one repositioning.
    fn service(
        &mut self,
        start: u64,
        sectors: u64,
        _write: bool,
        now: SimTime,
        phases: &mut PhaseLog,
    ) -> (SimDuration, u64) {
        let before = self.current_cylinder;
        let target = self.locate(start);
        let period = self.geom.rotation_period();
        let sequential = start == self.next_sequential;
        phases.add(PhaseKind::Overhead, self.geom.controller_overhead);
        let mut elapsed = self.geom.controller_overhead;
        if !sequential {
            // Random access: seek, then wait for the target sector to pass
            // under the head.
            let distance = self.current_cylinder.abs_diff(target.cylinder);
            let jf = jitter_factor(&mut self.jitter);
            let seek = SimDuration::from_secs_f64(self.seek_time(distance).as_secs_f64() * jf);
            phases.add(PhaseKind::Seek, seek);
            elapsed += seek;
            let spt = self.geom.zones[target.zone].sectors_per_track;
            let target_angle = target.sector as f64 / spt as f64;
            let angle = self.angle_at(now + elapsed);
            let mut wait = target_angle - angle;
            if wait < 0.0 {
                wait += 1.0;
            }
            let rotation = SimDuration::from_secs_f64(wait * period.as_secs_f64());
            phases.add(PhaseKind::Rotation, rotation);
            elapsed += rotation;
        }
        // A sequential continuation streams out of the drive's read-ahead
        // buffer; the head keeps up with the media rate by construction.
        self.next_sequential = start + sectors;

        // Transfer, walking track and cylinder boundaries.
        let mut pos = target;
        let mut left = sectors;
        loop {
            let spt = self.geom.zones[pos.zone].sectors_per_track;
            let on_track = (spt - pos.sector) as u64;
            let take = on_track.min(left);
            let frac = take as f64 / spt as f64;
            let xfer = SimDuration::from_secs_f64(frac * period.as_secs_f64());
            phases.add(PhaseKind::Transfer, xfer);
            elapsed += xfer;
            left -= take;
            if left == 0 {
                // Head ends within (or just past) this track.
                self.current_cylinder = pos.cylinder;
                break;
            }
            // Advance to the next track: same cylinder next head, or next
            // cylinder head 0. Track skew is assumed to absorb the switch
            // time rotationally, so only the switch cost itself is added.
            if pos.head + 1 < self.geom.heads {
                pos.head += 1;
                phases.add(PhaseKind::HeadSwitch, self.geom.head_switch);
                elapsed += self.geom.head_switch;
            } else {
                pos.head = 0;
                pos.cylinder += 1;
                phases.add(PhaseKind::TrackSwitch, self.geom.track_to_track);
                elapsed += self.geom.track_to_track;
                // Did we cross into the next zone?
                pos.zone = self.locate(start + (sectors - left)).zone;
            }
            pos.sector = 0;
        }
        (elapsed, u64::from(before != self.current_cylinder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockDevice, FaultState};

    fn small_disk() -> DiskDevice {
        Device::from_mechanism(
            "hda",
            Disk::new(DiskGeometry {
                heads: 2,
                rpm: 6000, // 10 ms/rev
                zones: vec![
                    Zone {
                        cylinders: 100,
                        sectors_per_track: 100,
                    },
                    Zone {
                        cylinders: 100,
                        sectors_per_track: 50,
                    },
                ],
                track_to_track: SimDuration::from_millis(1),
                average_seek: SimDuration::from_millis(8),
                full_stroke: SimDuration::from_millis(16),
                head_switch: SimDuration::from_micros(500),
                controller_overhead: SimDuration::from_micros(100),
            }),
        )
    }

    #[test]
    fn geometry_capacity() {
        let d = small_disk();
        // 100 cyl * 2 heads * 100 spt + 100 * 2 * 50.
        assert_eq!(d.capacity_sectors(), 20_000 + 10_000);
        assert_eq!(d.locate(d.capacity_sectors() - 1).cylinder, 199);
    }

    #[test]
    fn locate_maps_zones_correctly() {
        let d = small_disk();
        let c = d.locate(0);
        assert_eq!((c.zone, c.cylinder, c.head, c.sector), (0, 0, 0, 0));
        let c = d.locate(100); // second track of cylinder 0
        assert_eq!((c.zone, c.cylinder, c.head, c.sector), (0, 0, 1, 0));
        let c = d.locate(200); // cylinder 1
        assert_eq!((c.zone, c.cylinder, c.head, c.sector), (0, 1, 0, 0));
        let c = d.locate(20_000); // first sector of zone 1
        assert_eq!((c.zone, c.cylinder, c.head, c.sector), (1, 100, 0, 0));
        let c = d.locate(29_999); // last sector
        assert_eq!((c.zone, c.cylinder, c.head, c.sector), (1, 199, 1, 49));
    }

    #[test]
    fn seek_curve_hits_calibration_points() {
        let d = small_disk();
        assert_eq!(d.seek_time(0), SimDuration::ZERO);
        let t2t = d.seek_time(1).as_secs_f64();
        assert!((t2t - 0.001).abs() < 1e-9, "t2t = {t2t}");
        let full = d.seek_time(199).as_secs_f64();
        assert!((full - 0.016).abs() < 1e-6, "full = {full}");
        // Monotone non-decreasing.
        let mut prev = 0.0;
        for dist in 0..200 {
            let t = d.seek_time(dist).as_secs_f64();
            assert!(t >= prev - 1e-12, "seek not monotone at {dist}");
            prev = t;
        }
    }

    #[test]
    fn sequential_reads_are_transfer_limited() {
        let mut d = small_disk();
        let mut now = SimTime::ZERO;
        // Warm up: position at sector 0.
        now += d.read(0, 1, now).unwrap();
        // Read a full track's worth sequentially in 10-sector commands.
        let mut total = SimDuration::ZERO;
        for i in 0..9 {
            let t = d.read(1 + i * 10, 10, now).unwrap();
            now += t;
            total += t;
        }
        // 90 sectors at 100 spt and 10ms/rev: pure transfer would be 9 ms.
        // Rotational waits for perfectly sequential requests should be ~0
        // because each request starts where the last ended.
        let secs = total.as_secs_f64();
        assert!(secs < 0.012, "sequential total {secs}s too slow");
        assert!(secs >= 0.009, "sequential total {secs}s impossibly fast");
    }

    #[test]
    fn random_read_pays_seek_and_rotation() {
        let mut d = small_disk();
        let mut now = SimTime::ZERO;
        now += d.read(0, 1, now).unwrap();
        // Far-away single sector: cylinder 199 distance, ~full stroke.
        let t = d.read(29_999, 1, now).unwrap();
        let secs = t.as_secs_f64();
        assert!(secs > 0.016, "expected seek+rotation, got {secs}");
        assert!(secs < 0.016 + 0.010 + 0.001, "too slow: {secs}");
    }

    #[test]
    fn zone_bandwidth_decreases_inward() {
        let d = small_disk();
        let outer = d.zone_bandwidth(0).as_bytes_per_sec();
        let inner = d.zone_bandwidth(25_000).as_bytes_per_sec();
        assert!(outer > inner);
        // Outer: 100 sectors * 512 B per 10.5 ms (rev + head switch).
        let expect = 100.0 * 512.0 / 0.0105;
        assert!((outer - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn table2_disk_meets_its_targets() {
        let mut d = DiskDevice::table2_disk("hda");
        // Streaming: read 16 MiB in 64 KiB commands from sector 0.
        let mut now = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        let cmds = (16 << 20) / (64 << 10);
        for i in 0..cmds {
            let t = d.read(i * 128, 128, now).unwrap();
            now += t;
            total += t;
        }
        let bw = (16u64 << 20) as f64 / total.as_secs_f64() / 1e6;
        assert!(
            (9.5..12.5).contains(&bw),
            "table2 disk streams at {bw} MB/s"
        );

        // Random 4 KiB: average latency near 18 ms.
        let mut rng = sleds_sim_core::DetRng::new(42);
        let cap = d.capacity_sectors();
        let mut lat_total = 0.0;
        let n = 200;
        for _ in 0..n {
            let s = rng.range_u64(0, cap - 8);
            let t = d.read(s, 8, now).unwrap();
            now += t;
            lat_total += t.as_secs_f64();
        }
        let avg_ms = lat_total / n as f64 * 1e3;
        assert!(
            (14.0..22.0).contains(&avg_ms),
            "table2 disk random 4K latency {avg_ms} ms"
        );
    }

    #[test]
    fn zone_map_reports_every_zone() {
        let d = small_disk();
        let spans = d.zone_map();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start_sector, 0);
        assert_eq!(spans[0].sectors, 20_000);
        assert_eq!(spans[1].start_sector, 20_000);
        assert_eq!(spans[1].sectors, 10_000);
        assert!(
            spans[0].bandwidth.as_bytes_per_sec() > spans[1].bandwidth.as_bytes_per_sec(),
            "outer zone is faster"
        );
        let total: u64 = spans.iter().map(|s| s.sectors).sum();
        assert_eq!(total, d.capacity_sectors());
    }

    #[test]
    fn reads_update_head_position() {
        let mut d = small_disk();
        d.read(29_999, 1, SimTime::ZERO).unwrap();
        assert_eq!(d.current_cylinder(), 199);
        assert_eq!(d.stats().repositions, 1);
    }

    #[test]
    fn range_checks() {
        let mut d = small_disk();
        assert!(d.read(30_000, 1, SimTime::ZERO).is_err());
        assert!(d.write(29_999, 2, SimTime::ZERO).is_err());
        assert!(d.read(0, 0, SimTime::ZERO).is_err());
    }

    #[test]
    fn phase_breakdown_sums_to_service_time() {
        let mut d = small_disk();
        d.read(0, 1, SimTime::ZERO).unwrap();
        let t = d.read(29_999, 1, SimTime::from_nanos(50_000_000)).unwrap();
        let phases = d.last_phases();
        let total: SimDuration = phases.iter().map(|p| p.dur).sum();
        assert_eq!(total, t, "phases must account for all service time");
        let kinds: Vec<PhaseKind> = phases.iter().map(|p| p.kind).collect();
        assert!(kinds.contains(&PhaseKind::Overhead));
        assert!(kinds.contains(&PhaseKind::Seek));
        assert!(kinds.contains(&PhaseKind::Transfer));
        // A long transfer reports head/track switches too.
        let t = d.read(0, 250, SimTime::from_nanos(1_000_000_000)).unwrap();
        let total: SimDuration = d.last_phases().iter().map(|p| p.dur).sum();
        assert_eq!(total, t);
        let kinds: Vec<PhaseKind> = d.last_phases().iter().map(|p| p.kind).collect();
        assert!(kinds.contains(&PhaseKind::HeadSwitch));
        assert!(kinds.contains(&PhaseKind::TrackSwitch));
    }

    #[test]
    fn multi_track_transfer_crosses_boundaries() {
        let mut d = small_disk();
        // 250 sectors from sector 0: track 0 (100), head switch, track 1
        // (100), cylinder switch, 50 more.
        let t = d.read(0, 250, SimTime::ZERO).unwrap().as_secs_f64();
        // Overhead 0.1 ms puts the platter 0.01 rev past sector 0, so the
        // head waits 0.99 rev (9.9 ms); then 2.5 revs of transfer (25 ms),
        // one head switch (0.5 ms) and one track-to-track seek (1 ms).
        let expect = 0.0001 + 0.0099 + 0.025 + 0.0005 + 0.001;
        assert!((t - expect).abs() < 2e-4, "got {t}, expected ~{expect}");
        assert_eq!(d.current_cylinder(), 1);
    }

    #[test]
    fn injected_faults_keep_phase_sums_exact() {
        use crate::FaultPlan;
        use sleds_sim_core::Errno;
        let fail_cost = SimDuration::from_millis(3);
        let plan = FaultPlan::new()
            .transient(
                "hda",
                SimTime::ZERO,
                SimTime::from_nanos(1 << 40),
                1,
                fail_cost,
            )
            .degraded(
                "hda",
                SimTime::from_nanos(1 << 41),
                SimTime::from_nanos(1 << 42),
                3.0,
            );
        let mut d = small_disk();
        d.set_fault_injector(plan.injector_for("hda").unwrap());

        // First submission fails EAGAIN; the span is exactly the fail cost.
        let err = d.read(0, 8, SimTime::ZERO).unwrap_err();
        assert_eq!(err.errno, Errno::Eagain);
        let phases = d.last_phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].kind, PhaseKind::Fault);
        assert_eq!(phases[0].dur, fail_cost);

        // The retried submission succeeds, pays the Retry resume overhead,
        // and its phases still sum to the returned service time.
        let t = d.read(0, 8, SimTime::ZERO).unwrap();
        let total: SimDuration = d.last_phases().iter().map(|p| p.dur).sum();
        assert_eq!(total, t);
        let retry: SimDuration = d
            .last_phases()
            .iter()
            .filter(|p| p.kind == PhaseKind::Retry)
            .map(|p| p.dur)
            .sum();
        assert_eq!(retry, fail_cost / 2);

        // Inside the degraded window the surplus lands in a Fault phase and
        // the command takes ~3x a clean one.
        let mut clean = small_disk();
        clean.read(0, 8, SimTime::ZERO).unwrap();
        let t_clean = clean.read(20_000, 8, SimTime::from_nanos(1 << 41)).unwrap();
        d.read(0, 8, SimTime::from_nanos(1 << 40)).unwrap(); // re-sync head state
        let t_deg = d.read(20_000, 8, SimTime::from_nanos(1 << 41)).unwrap();
        let total: SimDuration = d.last_phases().iter().map(|p| p.dur).sum();
        assert_eq!(total, t_deg);
        let ratio = t_deg.as_secs_f64() / t_clean.as_secs_f64();
        assert!((2.5..3.5).contains(&ratio), "degraded ratio {ratio}");
        assert_eq!(
            d.fault_state(SimTime::from_nanos(1 << 41)),
            FaultState::Degraded(3.0)
        );
        assert!(d.fault_epoch(SimTime::from_nanos(1 << 42)) > d.fault_epoch(SimTime::ZERO));
    }
}
