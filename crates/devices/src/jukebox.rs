//! A tape autochanger (jukebox).
//!
//! A jukebox holds many cartridges and a few drives; a robot arm exchanges
//! cartridges between slots and drives. Its address space is the
//! concatenation of its cartridges, so the HSM file system can treat the
//! whole library as one very large, very slow block device. The dynamic
//! state the paper cares about — *which tapes are mounted right now* — lives
//! here: a read that hits a mounted cartridge skips tens of seconds of robot
//! and load time.

use sleds_sim_core::{index, SimDuration, SimResult, SimTime};

use crate::tape::{no_medium, TapeDevice, TapeParams};
use crate::{
    apply_fault_overheads, check_range, fault_gate, BlockDevice, DevStats, DeviceClass,
    DeviceProfile, FaultInjector, FaultState, PhaseKind, PhaseLog, ServicePhase,
};

/// Robot timing for a jukebox.
#[derive(Clone, Copy, Debug)]
pub struct JukeboxParams {
    /// Time for the robot to move a cartridge between a slot and a drive.
    pub robot_move: SimDuration,
    /// Per-cartridge tape parameters.
    pub tape: TapeParams,
}

impl Default for JukeboxParams {
    fn default() -> Self {
        JukeboxParams {
            robot_move: SimDuration::from_secs(12),
            tape: TapeParams::default(),
        }
    }
}

/// A tape library: `cartridges` tapes, `drives` drives, one robot.
#[derive(Clone, Debug)]
pub struct Jukebox {
    name: String,
    params: JukeboxParams,
    cartridges: Vec<TapeDevice>,
    /// `drive_of[c] = Some(d)` when cartridge `c` is in drive `d`.
    drive_of: Vec<Option<usize>>,
    /// `in_drive[d] = Some(c)` when drive `d` holds cartridge `c`.
    in_drive: Vec<Option<usize>>,
    /// LRU order of drives (front = least recently used).
    drive_lru: Vec<usize>,
    cart_sectors: u64,
    stats: DevStats,
    phases: PhaseLog,
    faults: Option<FaultInjector>,
}

impl Jukebox {
    /// Creates a jukebox with `cartridges` tapes and `drives` drives.
    ///
    /// # Panics
    ///
    /// Panics if `cartridges == 0` or `drives == 0`.
    pub fn new(
        name: impl Into<String>,
        cartridges: usize,
        drives: usize,
        params: JukeboxParams,
    ) -> Self {
        assert!(cartridges > 0, "jukebox needs cartridges");
        assert!(drives > 0, "jukebox needs drives");
        let name = name.into();
        let tapes = (0..cartridges)
            .map(|i| TapeDevice::new(format!("{name}.tape{i}"), params.tape))
            .collect::<Vec<_>>();
        let cart_sectors = tapes[0].capacity_sectors();
        Jukebox {
            name,
            params,
            cartridges: tapes,
            drive_of: vec![None; cartridges],
            in_drive: vec![None; drives],
            drive_lru: (0..drives).collect(),
            cart_sectors,
            stats: DevStats::default(),
            phases: PhaseLog::default(),
            faults: None,
        }
    }

    /// Number of cartridges.
    pub fn cartridge_count(&self) -> usize {
        self.cartridges.len()
    }

    /// Number of drives.
    pub fn drive_count(&self) -> usize {
        self.in_drive.len()
    }

    /// Capacity of a single cartridge, in sectors.
    pub fn cartridge_sectors(&self) -> u64 {
        self.cart_sectors
    }

    /// Whether cartridge `c` is currently mounted in some drive.
    pub fn is_mounted(&self, c: usize) -> bool {
        self.drive_of.get(c).copied().flatten().is_some()
    }

    /// The cartridge that holds `sector`.
    pub fn cartridge_of(&self, sector: u64) -> usize {
        index(sector / self.cart_sectors)
    }

    fn touch_drive(&mut self, d: usize) {
        self.drive_lru.retain(|&x| x != d);
        self.drive_lru.push(d);
    }

    /// Ensures cartridge `c` is mounted; returns (drive, time spent).
    fn mount(&mut self, c: usize) -> SimResult<(usize, SimDuration)> {
        if c >= self.cartridges.len() {
            return Err(no_medium(&self.name));
        }
        if let Some(d) = self.drive_of[c] {
            self.touch_drive(d);
            return Ok((d, SimDuration::ZERO));
        }
        let mut spent = SimDuration::ZERO;
        // Pick the least recently used drive; empty drives come first.
        let d = self
            .in_drive
            .iter()
            .position(|slot| slot.is_none())
            .unwrap_or_else(|| self.drive_lru[0]);
        if let Some(old) = self.in_drive[d] {
            let unload = self.cartridges[old].unload();
            self.phases.add(PhaseKind::Mount, unload);
            spent += unload;
            self.phases
                .add(PhaseKind::RobotMove, self.params.robot_move);
            spent += self.params.robot_move; // drive -> slot
            self.drive_of[old] = None;
        }
        self.phases
            .add(PhaseKind::RobotMove, self.params.robot_move);
        spent += self.params.robot_move; // slot -> drive
        let load = self.cartridges[c].ensure_loaded();
        self.phases.add(PhaseKind::Mount, load);
        spent += load;
        self.in_drive[d] = Some(c);
        self.drive_of[c] = Some(d);
        self.touch_drive(d);
        self.stats.repositions += 1;
        Ok((d, spent))
    }

    fn service(
        &mut self,
        start: u64,
        sectors: u64,
        now: SimTime,
        write: bool,
    ) -> SimResult<SimDuration> {
        self.phases.clear();
        check_range(&self.name, self.capacity_sectors(), start, sectors)?;
        let c = self.cartridge_of(start);
        let end_cart = self.cartridge_of(start + sectors - 1);
        if c != end_cart {
            return Err(sleds_sim_core::SimError::new(
                sleds_sim_core::Errno::Einval,
                format!("{}: transfer crosses cartridge boundary", self.name),
            ));
        }
        let (mult, resume) = fault_gate(&mut self.faults, &mut self.phases, &self.name, now)?;
        let (_, mut t) = self.mount(c)?;
        let local = start - c as u64 * self.cart_sectors;
        t += if write {
            self.cartridges[c].write(local, sectors, now)?
        } else {
            self.cartridges[c].read(local, sectors, now)?
        };
        // Fold the cartridge's own breakdown (locate, stream) into ours so
        // `last_phases` covers the full service time.
        for i in 0..self.cartridges[c].last_phases().len() {
            let p = self.cartridges[c].last_phases()[i];
            self.phases.add(p.kind, p.dur);
        }
        let t = apply_fault_overheads(&mut self.phases, t, mult, resume);
        Ok(t)
    }
}

impl BlockDevice for Jukebox {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> DeviceClass {
        DeviceClass::Tape
    }

    fn capacity_sectors(&self) -> u64 {
        self.cart_sectors * self.cartridges.len() as u64
    }

    fn profile(&self) -> DeviceProfile {
        // Cold access: robot exchange plus the tape's own mount + locate.
        let tape_profile = self.cartridges[0].profile();
        DeviceProfile {
            class: DeviceClass::Tape,
            nominal_latency: tape_profile.nominal_latency + self.params.robot_move * 2,
            nominal_bandwidth: tape_profile.nominal_bandwidth,
        }
    }

    fn read(&mut self, start: u64, sectors: u64, now: SimTime) -> SimResult<SimDuration> {
        let t = self.service(start, sectors, now, false)?;
        self.stats.note_read(sectors, t, false);
        Ok(t)
    }

    fn write(&mut self, start: u64, sectors: u64, now: SimTime) -> SimResult<SimDuration> {
        let t = self.service(start, sectors, now, true)?;
        self.stats.note_write(sectors, t, false);
        Ok(t)
    }

    fn stats(&self) -> DevStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DevStats::default();
        for t in &mut self.cartridges {
            t.reset_stats();
        }
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

    fn small_jukebox(drives: usize) -> Jukebox {
        Jukebox::new("jb0", 4, drives, JukeboxParams::default())
    }

    #[test]
    fn first_access_mounts_cartridge() {
        let mut jb = small_jukebox(1);
        assert!(!jb.is_mounted(0));
        let t = jb.read(0, 8, SimTime::ZERO).unwrap();
        // Robot move + load.
        assert!(t >= SimDuration::from_secs(50), "cold mount {t}");
        assert!(jb.is_mounted(0));
    }

    #[test]
    fn mounted_cartridge_skips_robot() {
        let mut jb = small_jukebox(1);
        jb.read(0, 8, SimTime::ZERO).unwrap();
        let t = jb.read(8, 8, SimTime::ZERO).unwrap();
        assert!(t < SimDuration::from_secs(1), "warm read {t}");
    }

    #[test]
    fn second_cartridge_evicts_lru_with_one_drive() {
        let mut jb = small_jukebox(1);
        let cart = jb.cartridge_sectors();
        jb.read(0, 8, SimTime::ZERO).unwrap();
        let t = jb.read(cart, 8, SimTime::ZERO).unwrap();
        // Unload (rewind) + two robot moves + load.
        assert!(t >= SimDuration::from_secs(60), "exchange {t}");
        assert!(!jb.is_mounted(0));
        assert!(jb.is_mounted(1));
    }

    #[test]
    fn two_drives_keep_both_mounted() {
        let mut jb = small_jukebox(2);
        let cart = jb.cartridge_sectors();
        jb.read(0, 8, SimTime::ZERO).unwrap();
        jb.read(cart, 8, SimTime::ZERO).unwrap();
        assert!(jb.is_mounted(0));
        assert!(jb.is_mounted(1));
        // Alternating reads now stay cheap.
        let t0 = jb.read(8, 8, SimTime::ZERO).unwrap();
        let t1 = jb.read(cart + 8, 8, SimTime::ZERO).unwrap();
        assert!(t0 < SimDuration::from_secs(1));
        assert!(t1 < SimDuration::from_secs(1));
    }

    #[test]
    fn lru_drive_is_victim() {
        let mut jb = small_jukebox(2);
        let cart = jb.cartridge_sectors();
        jb.read(0, 8, SimTime::ZERO).unwrap(); // cart 0 -> drive
        jb.read(cart, 8, SimTime::ZERO).unwrap(); // cart 1 -> drive
        jb.read(8, 8, SimTime::ZERO).unwrap(); // touch cart 0
        jb.read(2 * cart, 8, SimTime::ZERO).unwrap(); // cart 2 evicts cart 1
        assert!(jb.is_mounted(0));
        assert!(!jb.is_mounted(1));
        assert!(jb.is_mounted(2));
    }

    #[test]
    fn phases_cover_robot_mount_and_tape_time() {
        let mut jb = small_jukebox(1);
        let cart = jb.cartridge_sectors();
        let t = jb.read(cart + 1000, 8, SimTime::ZERO).unwrap();
        let total: SimDuration = jb.last_phases().iter().map(|p| p.dur).sum();
        assert_eq!(total, t);
        let kinds: Vec<PhaseKind> = jb.last_phases().iter().map(|p| p.kind).collect();
        assert!(kinds.contains(&PhaseKind::RobotMove));
        assert!(kinds.contains(&PhaseKind::Mount));
        assert!(kinds.contains(&PhaseKind::Locate));
        assert!(kinds.contains(&PhaseKind::Stream));
        // A warm sequential read is pure streaming.
        let t2 = jb.read(cart + 1008, 8, SimTime::ZERO).unwrap();
        let kinds2: Vec<PhaseKind> = jb.last_phases().iter().map(|p| p.kind).collect();
        assert_eq!(kinds2, vec![PhaseKind::Stream]);
        let total2: SimDuration = jb.last_phases().iter().map(|p| p.dur).sum();
        assert_eq!(total2, t2);
    }

    #[test]
    fn cross_cartridge_transfer_rejected() {
        let mut jb = small_jukebox(1);
        let cart = jb.cartridge_sectors();
        assert!(jb.read(cart - 4, 8, SimTime::ZERO).is_err());
    }

    #[test]
    fn capacity_is_sum_of_cartridges() {
        let jb = small_jukebox(1);
        assert_eq!(jb.capacity_sectors(), jb.cartridge_sectors() * 4);
        assert_eq!(jb.cartridge_of(jb.cartridge_sectors() * 3), 3);
    }
}
