//! The device shell: what every device shares, written once.
//!
//! A [`Device`] pairs a name with a model's [`Mechanism`] and owns the
//! stats, the phase log and the fault injector. Its one command path runs
//! the same steps for every model, so no model can skip the fault gate,
//! forget to clear its phases or bill its own stats.

use std::ops::Deref;

use sleds_sim_core::{Errno, SimDuration, SimError, SimResult, SimTime};

use crate::{
    check_range, BlockDevice, Decision, DevStats, DeviceClass, DeviceProfile, FaultInjector,
    FaultState, PhaseKind, PhaseLog, ServicePhase, ZoneSpan,
};

/// What stays model-specific: positional state and the service time of a
/// command that has passed the shell's checks.
pub trait Mechanism {
    /// The device's class.
    const CLASS: DeviceClass;

    /// Whether the medium refuses every write. The shell answers such a
    /// write `EROFS` before it checks the range.
    const READ_ONLY: bool = false;

    /// Total capacity in sectors.
    fn capacity_sectors(&self) -> u64;

    /// Nominal performance characteristics.
    fn profile(&self) -> DeviceProfile;

    /// Performance zones (see [`BlockDevice::zone_map`]). The default is a
    /// single span at the nominal bandwidth; zoned models override it.
    fn zone_map(&self) -> Vec<ZoneSpan> {
        vec![ZoneSpan {
            start_sector: 0,
            sectors: self.capacity_sectors(),
            bandwidth: self.profile().nominal_bandwidth,
        }]
    }

    /// Refuses an in-range command the model cannot serve, before the
    /// fault gate; `name` is the device's, for the error context. The
    /// default admits every command.
    fn admit(&self, _name: &str, _start: u64, _sectors: u64) -> SimResult<()> {
        Ok(())
    }

    /// Serves an admitted, in-range command submitted at `now`: moves the
    /// positional state, logs each phase into `phases` and returns the
    /// service time with the number of repositionings (seeks, locates,
    /// mounts, robot exchanges) the command made. The phases sum exactly to
    /// the returned time.
    fn service(
        &mut self,
        start: u64,
        sectors: u64,
        write: bool,
        now: SimTime,
        phases: &mut PhaseLog,
    ) -> (SimDuration, u64);
}

/// A named device: one shell around a model's [`Mechanism`], and the only
/// [`BlockDevice`] in this crate. It reads through to the mechanism's own
/// accessors (head position, mounted cartridges, ...).
///
/// A new device model is one `Mechanism` impl:
///
/// ```
/// use sleds_devices::{
///     BlockDevice, Device, DeviceClass, DeviceProfile, Mechanism, PhaseKind, PhaseLog,
/// };
/// use sleds_sim_core::{Bandwidth, SimDuration, SimTime};
///
/// /// Every command costs one millisecond of transfer.
/// struct Flat;
///
/// impl Mechanism for Flat {
///     const CLASS: DeviceClass = DeviceClass::Disk;
///     fn capacity_sectors(&self) -> u64 {
///         1 << 20
///     }
///     fn profile(&self) -> DeviceProfile {
///         DeviceProfile {
///             class: Self::CLASS,
///             nominal_latency: SimDuration::ZERO,
///             nominal_bandwidth: Bandwidth::mb_per_sec(4.0),
///         }
///     }
///     fn service(
///         &mut self,
///         _start: u64,
///         _sectors: u64,
///         _write: bool,
///         _now: SimTime,
///         phases: &mut PhaseLog,
///     ) -> (SimDuration, u64) {
///         let t = SimDuration::from_millis(1);
///         phases.add(PhaseKind::Transfer, t);
///         (t, 0)
///     }
/// }
///
/// let mut d = Device::from_mechanism("flat", Flat);
/// assert_eq!(d.read(0, 8, SimTime::ZERO).unwrap(), SimDuration::from_millis(1));
/// assert!(d.read(1 << 20, 8, SimTime::ZERO).is_err());
/// assert_eq!(d.stats().reads, 1);
/// ```
///
/// The stats and the fault injector are the shell's alone. A mechanism
/// sees only itself and the phase log, and nothing outside the shell can
/// bill a command or take the injector away:
///
/// ```compile_fail
/// use sleds_devices::DiskDevice;
///
/// let mut d = DiskDevice::table2_disk("hda");
/// d.stats.reads += 1;
/// ```
///
/// ```compile_fail
/// use sleds_devices::DiskDevice;
///
/// let mut d = DiskDevice::table2_disk("hda");
/// d.faults = None;
/// ```
#[derive(Clone, Debug)]
pub struct Device<M> {
    name: String,
    mech: M,
    stats: DevStats,
    phases: PhaseLog,
    faults: Option<FaultInjector>,
}

impl<M: Mechanism> Device<M> {
    /// A device called `name` around `mech`, with no fault injector.
    pub fn from_mechanism(name: impl Into<String>, mech: M) -> Self {
        Device {
            name: name.into(),
            mech,
            stats: DevStats::default(),
            phases: PhaseLog::default(),
            faults: None,
        }
    }

    /// The mechanism, for a model's own construction-time settings.
    pub(crate) fn mechanism_mut(&mut self) -> &mut M {
        &mut self.mech
    }

    /// The one command path: refusals, then the fault gate, then the
    /// mechanism, then the fault overheads and the stats.
    fn command(
        &mut self,
        start: u64,
        sectors: u64,
        write: bool,
        now: SimTime,
    ) -> SimResult<SimDuration> {
        self.phases.clear();
        if write && M::READ_ONLY {
            return Err(SimError::new(
                Errno::Erofs,
                format!("{}: read-only medium", self.name),
            ));
        }
        check_range(&self.name, self.mech.capacity_sectors(), start, sectors)?;
        self.mech.admit(&self.name, start, sectors)?;
        let decision = match self.faults.as_mut() {
            Some(inj) => inj.decide(now),
            None => Decision::CLEAN,
        };
        let (multiplier, resume) = match decision {
            // The failed submission's span is one `Fault` phase carrying the
            // burned cost, and the error carries the same cost, so callers
            // never infer it from the log.
            Decision::Fail { errno, cost } => {
                self.phases.add(PhaseKind::Fault, cost);
                let context = format!("{}: injected fault", self.name);
                return Err(SimError::injected(errno, context, cost));
            }
            Decision::Proceed { multiplier, resume } => (multiplier, resume),
        };
        let (t, repositions) = self
            .mech
            .service(start, sectors, write, now, &mut self.phases);
        // A degraded window's surplus lands in a `Fault` phase and the
        // resubmission overhead in a `Retry` phase, so the phases still sum
        // exactly to the returned time.
        let mut total = t;
        if multiplier > 1.0 {
            let surplus = SimDuration::from_secs_f64(t.as_secs_f64() * (multiplier - 1.0));
            self.phases.add(PhaseKind::Fault, surplus);
            total += surplus;
        }
        self.phases.add(PhaseKind::Retry, resume);
        total += resume;
        self.stats.note(write, sectors, total, repositions);
        Ok(total)
    }
}

impl<M> Deref for Device<M> {
    type Target = M;

    fn deref(&self) -> &M {
        &self.mech
    }
}

impl<M: Mechanism> BlockDevice for Device<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> DeviceClass {
        M::CLASS
    }

    fn capacity_sectors(&self) -> u64 {
        self.mech.capacity_sectors()
    }

    fn profile(&self) -> DeviceProfile {
        self.mech.profile()
    }

    fn read(&mut self, start: u64, sectors: u64, now: SimTime) -> SimResult<SimDuration> {
        self.command(start, sectors, false, now)
    }

    fn write(&mut self, start: u64, sectors: u64, now: SimTime) -> SimResult<SimDuration> {
        self.command(start, sectors, true, now)
    }

    fn stats(&self) -> DevStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DevStats::default();
    }

    fn zone_map(&self) -> Vec<ZoneSpan> {
        self.mech.zone_map()
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
