//! Positional storage device models for the SLEDs simulator.
//!
//! The paper characterizes each storage level by a `(latency, bandwidth)`
//! pair measured with lmbench (Tables 2 and 3). This crate provides the
//! devices those measurements are taken *of*: models that carry enough
//! dynamic state (head position, rotation phase, tape position, mounted
//! cartridges) that sequential access is cheap, discontiguous access pays
//! positioning costs, and the measured pairs emerge rather than being wired
//! in.
//!
//! Every device is one [`Device`] shell around a model's [`Mechanism`],
//! and the shell is the crate's one [`BlockDevice`]: a sector-addressed
//! read/write interface that takes the current virtual time and returns how
//! long the operation takes. The shell owns what every device shares (name,
//! stats, phase log, range check, fault gate); the mechanism keeps only its
//! positional state and service times. Devices never touch the clock
//! themselves — the kernel owns it — so a device is an ordinary
//! deterministic state machine.

// Kernel path (DESIGN §5c): fail with a typed `SimError`, never abort the
// simulation; a narrowing cast names the bound that makes it lossless.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::cast_possible_truncation
    )
)]

pub mod cdrom;
pub mod disk;
pub mod jukebox;
pub mod nfs;
mod shell;
pub mod tape;

use sleds_sim_core::{Bandwidth, DetRng, SimDuration, SimResult, SimTime};

pub use cdrom::CdRomDevice;
pub use disk::{DiskDevice, DiskGeometry, Zone};
pub use jukebox::Jukebox;
pub use nfs::NfsDevice;
pub use shell::{Device, Mechanism};
pub use sleds_faults::{Decision, FaultInjector, FaultPlan, FaultState, FaultWindow};
pub use tape::TapeDevice;

/// The broad class a device belongs to, mirroring the storage levels in the
/// paper's Tables 2 and 3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceClass {
    /// Primary memory (the file system buffer cache lives here).
    Memory,
    /// A local hard disk.
    Disk,
    /// A CD-ROM drive.
    CdRom,
    /// A network file service (client side of NFS).
    Network,
    /// A tape drive or tape library.
    Tape,
}

impl DeviceClass {
    /// Human-readable name matching the rows of Table 2.
    pub fn label(self) -> &'static str {
        match self {
            DeviceClass::Memory => "memory",
            DeviceClass::Disk => "hard disk",
            DeviceClass::CdRom => "CD-ROM",
            DeviceClass::Network => "NFS",
            DeviceClass::Tape => "tape",
        }
    }

    /// Stable numeric code carried in trace-event payloads and the
    /// per-class metrics arrays (`sleds_trace::class_label` is its
    /// inverse). Declaration order, starting at 0.
    pub fn code(self) -> u64 {
        match self {
            DeviceClass::Memory => 0,
            DeviceClass::Disk => 1,
            DeviceClass::CdRom => 2,
            DeviceClass::Network => 3,
            DeviceClass::Tape => 4,
        }
    }
}

/// Nominal performance characteristics of a device.
///
/// These are the *designed* numbers; the sleds table that applications see is
/// filled from lmbench-style measurement (`sleds-lmbench`), exactly as the
/// paper fills its kernel table from a boot-time script.
#[derive(Clone, Copy, Debug)]
pub struct DeviceProfile {
    /// Device class.
    pub class: DeviceClass,
    /// Typical latency to the first byte of a random access.
    pub nominal_latency: SimDuration,
    /// Typical streaming bandwidth.
    pub nominal_bandwidth: Bandwidth,
}

/// Per-device operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DevStats {
    /// Number of read commands issued.
    pub reads: u64,
    /// Number of write commands issued.
    pub writes: u64,
    /// Total sectors read.
    pub sectors_read: u64,
    /// Total sectors written.
    pub sectors_written: u64,
    /// Total time the device spent servicing commands.
    pub busy: SimDuration,
    /// Repositionings the served commands made, each counted once, as the
    /// model's [`Mechanism::service`] reports them: a disk command that
    /// ends on another cylinder, a CD-ROM seek, an NFS link's first-byte
    /// penalty, each tape mount and locate, and each jukebox robot
    /// exchange and locate.
    pub repositions: u64,
}

impl DevStats {
    /// Records a served command of `sectors` sectors taking `took`.
    pub(crate) fn note(&mut self, write: bool, sectors: u64, took: SimDuration, repositions: u64) {
        if write {
            self.writes += 1;
            self.sectors_written += sectors;
        } else {
            self.reads += 1;
            self.sectors_read += sectors;
        }
        self.busy += took;
        self.repositions += repositions;
    }
}

/// One mechanical component of a device's service time.
///
/// Devices decompose each command's duration into phases (seek vs.
/// rotation vs. transfer, locate vs. stream, RPC vs. link) so the tracing
/// layer can attribute virtual time *inside* a device, not just to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// Fixed per-command overhead (controller, protocol setup).
    Overhead,
    /// Disk arm or CD-ROM pickup movement.
    Seek,
    /// Rotational wait for the target sector.
    Rotation,
    /// Media or bus data movement.
    Transfer,
    /// Head-switch time between tracks of one cylinder.
    HeadSwitch,
    /// Track-to-track repositioning during a multi-track transfer.
    TrackSwitch,
    /// Cartridge load (tape mount, jukebox load).
    Mount,
    /// Longitudinal tape positioning.
    Locate,
    /// Streaming tape transfer.
    Stream,
    /// Network RPC round-trip overhead.
    Rpc,
    /// Server-side wait for the first byte after a reposition.
    FirstByte,
    /// Network link transfer.
    Link,
    /// Jukebox robot arm movement.
    RobotMove,
    /// Virtual time burned by an injected fault (a failed submission's
    /// cost, or the surplus of a degraded-window command).
    Fault,
    /// Resubmission overhead paid by the first success after a transient
    /// failure.
    Retry,
}

impl PhaseKind {
    /// Short lowercase label, stable for trace output.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Overhead => "overhead",
            PhaseKind::Seek => "seek",
            PhaseKind::Rotation => "rotation",
            PhaseKind::Transfer => "transfer",
            PhaseKind::HeadSwitch => "head_switch",
            PhaseKind::TrackSwitch => "track_switch",
            PhaseKind::Mount => "mount",
            PhaseKind::Locate => "locate",
            PhaseKind::Stream => "stream",
            PhaseKind::Rpc => "rpc",
            PhaseKind::FirstByte => "first_byte",
            PhaseKind::Link => "link",
            PhaseKind::RobotMove => "robot_move",
            PhaseKind::Fault => "fault",
            PhaseKind::Retry => "retry",
        }
    }

    /// Whether the device spends this phase moving data rather than
    /// positioning for it: the bandwidth half of the first-byte/bandwidth
    /// split the recalibrator rebuilds SLED rows from.
    pub fn is_transfer(self) -> bool {
        matches!(
            self,
            PhaseKind::Transfer | PhaseKind::Stream | PhaseKind::Link
        )
    }
}

/// A phase and how long it took within one command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServicePhase {
    /// Which mechanical component.
    pub kind: PhaseKind,
    /// Time spent in it.
    pub dur: SimDuration,
}

/// Per-command phase accumulator, kept by the [`Device`] shell and filled
/// by its [`Mechanism`].
///
/// Cleared at the start of every command; repeated contributions of one
/// kind (e.g. head switches during a long transfer) accumulate into a
/// single entry, so the log stays bounded by the number of phase kinds and
/// its order is the deterministic first-occurrence order.
#[derive(Clone, Debug, Default)]
pub struct PhaseLog {
    phases: Vec<ServicePhase>,
}

impl PhaseLog {
    /// Empties the log for a new command.
    pub(crate) fn clear(&mut self) {
        self.phases.clear();
    }

    /// Adds `dur` to the `kind` phase (no-op for zero durations).
    pub fn add(&mut self, kind: PhaseKind, dur: SimDuration) {
        if dur.is_zero() {
            return;
        }
        for p in &mut self.phases {
            if p.kind == kind {
                p.dur += dur;
                return;
            }
        }
        self.phases.push(ServicePhase { kind, dur });
    }

    /// The recorded phases in first-occurrence order.
    pub fn as_slice(&self) -> &[ServicePhase] {
        &self.phases
    }

    /// Sum of all recorded phase durations.
    pub fn total(&self) -> SimDuration {
        self.phases.iter().map(|p| p.dur).sum()
    }
}

/// A contiguous sector span with uniform performance — one row of a
/// device's self-characterization.
///
/// The paper's future-work section asks for "entries which account for the
/// different bandwidths of different disk zones" and proposes that "devices
/// or subsystems could be engineered to report their own performance
/// characteristics"; [`BlockDevice::zone_map`] is that reporting interface,
/// and the zoned sleds table consumes it.
#[derive(Clone, Copy, Debug)]
pub struct ZoneSpan {
    /// First sector of the span.
    pub start_sector: u64,
    /// Number of sectors.
    pub sectors: u64,
    /// Sustained bandwidth within the span.
    pub bandwidth: Bandwidth,
}

/// A sector-addressed storage device with positional state.
///
/// `read`/`write` return the service time for the command; the caller (the
/// simulated kernel) advances the clock. Implementations update their
/// positional state assuming the command completes at `now + returned
/// duration`. In this crate the one implementation is [`Device`].
pub trait BlockDevice {
    /// Short device name, e.g. `"hda"`.
    fn name(&self) -> &str;

    /// The device's class.
    fn class(&self) -> DeviceClass;

    /// Total capacity in sectors.
    fn capacity_sectors(&self) -> u64;

    /// Nominal performance characteristics.
    fn profile(&self) -> DeviceProfile;

    /// Reads `sectors` sectors starting at `start`, returning service time.
    fn read(&mut self, start: u64, sectors: u64, now: SimTime) -> SimResult<SimDuration>;

    /// Writes `sectors` sectors starting at `start`, returning service time.
    fn write(&mut self, start: u64, sectors: u64, now: SimTime) -> SimResult<SimDuration>;

    /// Operation counters.
    fn stats(&self) -> DevStats;

    /// Resets operation counters (positional state is preserved).
    fn reset_stats(&mut self);

    /// Self-characterization: the device's performance zones, so a
    /// zone-aware sleds table can assign different bandwidths to different
    /// parts of one file — the paper's "future version" extension.
    fn zone_map(&self) -> Vec<ZoneSpan>;

    /// Mechanical breakdown of the most recent `read`/`write` service time,
    /// in service order; empty after a command refused before the device
    /// moved.
    fn last_phases(&self) -> &[ServicePhase];

    /// Installs a fault injector the device consults on every command.
    fn set_fault_injector(&mut self, injector: FaultInjector);

    /// The device's fault epoch at `now`: how many fault-window boundaries
    /// have passed. Monotone; the kernel folds it into `sled_generation` so
    /// cached SLED vectors invalidate when the health regime changes.
    fn fault_epoch(&self, now: SimTime) -> u64;

    /// Coarse health at `now`, for SLED pricing. Pure: never consumes
    /// transient fault budget.
    fn fault_state(&self, now: SimTime) -> FaultState;
}

/// Validates a sector range against a device capacity. The shell empties
/// its phase log *before* calling this, so a refused command reports no
/// phases instead of its predecessor's.
pub(crate) fn check_range(name: &str, capacity: u64, start: u64, sectors: u64) -> SimResult<()> {
    use sleds_sim_core::{Errno, SimError};
    let end = start.checked_add(sectors);
    match end {
        Some(end) if end <= capacity && sectors > 0 => Ok(()),
        _ => Err(SimError::new(
            Errno::Einval,
            format!("{name}: sector range {start}+{sectors} exceeds capacity {capacity}"),
        )),
    }
}

/// The multiplier for one positioning cost of a jittered model: `1.0`
/// without jitter, else one draw within `±amplitude`, representing
/// background activity.
pub(crate) fn jitter_factor(jitter: &mut Option<(DetRng, f64)>) -> f64 {
    match jitter {
        Some((rng, amplitude)) => rng.jitter(*amplitude),
        None => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels() {
        assert_eq!(DeviceClass::Memory.label(), "memory");
        assert_eq!(DeviceClass::Network.label(), "NFS");
    }

    #[test]
    fn check_range_accepts_and_rejects() {
        assert!(check_range("d", 100, 0, 100).is_ok());
        assert!(check_range("d", 100, 99, 1).is_ok());
        assert!(check_range("d", 100, 99, 2).is_err());
        assert!(check_range("d", 100, 0, 0).is_err());
        assert!(check_range("d", 100, u64::MAX, 2).is_err());
    }

    /// A command refused before the device moves (bounds, read-only
    /// media) right after an injected fault must not inherit that fault's
    /// phase or cost.
    #[test]
    fn refused_command_after_injected_fault_reports_no_phases_and_no_cost() {
        use sleds_sim_core::Errno;
        let cost = SimDuration::from_millis(2);
        let devices: Vec<Box<dyn BlockDevice>> = vec![
            Box::new(DiskDevice::table2_disk("d")),
            Box::new(CdRomDevice::table2_drive("d")),
            Box::new(NfsDevice::table2_mount("d")),
            Box::new(TapeDevice::dlt("d")),
            Box::new(Jukebox::new("d", 2, 1, Default::default())),
        ];
        let end = SimTime::from_nanos(u64::MAX);
        let plan = FaultPlan::new().transient("d", SimTime::ZERO, end, 1, cost);
        for mut dev in devices {
            let class = dev.class();
            dev.set_fault_injector(plan.injector_for("d").expect("planned"));
            let err = dev.read(0, 8, SimTime::ZERO).unwrap_err();
            assert_eq!(err.errno, Errno::Eagain, "{class:?}");
            assert_eq!(err.fault_cost(), Some(cost), "{class:?}");
            let fault = ServicePhase {
                kind: PhaseKind::Fault,
                dur: cost,
            };
            assert_eq!(dev.last_phases(), [fault], "{class:?}");

            let cap = dev.capacity_sectors();
            let err = dev.read(cap, 8, SimTime::ZERO).unwrap_err();
            assert_eq!(err.errno, Errno::Einval, "{class:?}");
            assert_eq!(err.fault_cost(), None, "{class:?}");
            assert!(dev.last_phases().is_empty(), "{class:?}: stale phases");
        }
        // Read-only media refuses writes the same way.
        let mut cd = CdRomDevice::table2_drive("d");
        cd.read(0, 8, SimTime::ZERO).unwrap();
        let err = cd.write(0, 8, SimTime::ZERO).unwrap_err();
        assert_eq!((err.errno, err.fault_cost()), (Errno::Erofs, None));
        assert!(cd.last_phases().is_empty());
    }

    #[test]
    fn phase_log_accumulates_by_kind_in_first_occurrence_order() {
        let mut log = PhaseLog::default();
        log.add(PhaseKind::Seek, SimDuration::from_micros(10));
        log.add(PhaseKind::Transfer, SimDuration::from_micros(5));
        log.add(PhaseKind::Rotation, SimDuration::ZERO); // elided
        log.add(PhaseKind::Seek, SimDuration::from_micros(2));
        let phases = log.as_slice();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].kind, PhaseKind::Seek);
        assert_eq!(phases[0].dur, SimDuration::from_micros(12));
        assert_eq!(phases[1].kind, PhaseKind::Transfer);
        assert_eq!(log.total(), SimDuration::from_micros(17));
        log.clear();
        assert!(log.as_slice().is_empty());
    }

    #[test]
    fn devstats_accumulate() {
        let mut s = DevStats::default();
        s.note(false, 8, SimDuration::from_millis(5), 1);
        s.note(true, 4, SimDuration::from_millis(2), 0);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.sectors_read, 8);
        assert_eq!(s.sectors_written, 4);
        assert_eq!(s.repositions, 1);
        assert_eq!(s.busy, SimDuration::from_millis(7));
    }
}
