//! A tape autochanger (jukebox).
//!
//! A jukebox holds many cartridges and a few drives; a robot arm exchanges
//! cartridges between slots and drives. Its address space is the
//! concatenation of its cartridges, so the HSM file system can treat the
//! whole library as one very large, very slow block device. The dynamic
//! state the paper cares about — *which tapes are mounted right now* — lives
//! here: a read that hits a mounted cartridge skips tens of seconds of robot
//! and load time.

use sleds_sim_core::{index, Errno, SimDuration, SimError, SimResult, SimTime};

use crate::tape::{Tape, TapeParams};
use crate::{Device, DeviceClass, DeviceProfile, Mechanism, PhaseKind, PhaseLog};

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

/// A tape library: the [`TapeLibrary`] mechanism in the device shell.
pub type Jukebox = Device<TapeLibrary>;

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
        let tapes = vec![Tape::new(params.tape); cartridges];
        let library = TapeLibrary {
            cart_sectors: tapes[0].capacity_sectors(),
            params,
            cartridges: tapes,
            drive_of: vec![None; cartridges],
            in_drive: vec![None; drives],
            drive_lru: (0..drives).collect(),
        };
        Device::from_mechanism(name, library)
    }
}

/// A jukebox's mechanics: `cartridges` tapes, `drives` drives, one robot.
#[derive(Clone, Debug)]
pub struct TapeLibrary {
    params: JukeboxParams,
    cartridges: Vec<Tape>,
    /// `drive_of[c] = Some(d)` when cartridge `c` is in drive `d`.
    drive_of: Vec<Option<usize>>,
    /// `in_drive[d] = Some(c)` when drive `d` holds cartridge `c`.
    in_drive: Vec<Option<usize>>,
    /// LRU order of drives (front = least recently used).
    drive_lru: Vec<usize>,
    cart_sectors: u64,
}

impl TapeLibrary {
    /// The cartridge that holds `sector`.
    pub fn cartridge_of(&self, sector: u64) -> usize {
        index(sector / self.cart_sectors)
    }

    fn touch_drive(&mut self, d: usize) {
        self.drive_lru.retain(|&x| x != d);
        self.drive_lru.push(d);
    }

    /// Ensures cartridge `c` is mounted; returns the time spent and whether
    /// the robot exchanged a cartridge for it.
    fn mount(&mut self, c: usize, phases: &mut PhaseLog) -> (SimDuration, bool) {
        if let Some(d) = self.drive_of[c] {
            self.touch_drive(d);
            return (SimDuration::ZERO, false);
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
            phases.add(PhaseKind::Mount, unload);
            spent += unload;
            phases.add(PhaseKind::RobotMove, self.params.robot_move);
            spent += self.params.robot_move; // drive -> slot
            self.drive_of[old] = None;
        }
        phases.add(PhaseKind::RobotMove, self.params.robot_move);
        spent += self.params.robot_move; // slot -> drive
        let load = self.cartridges[c].ensure_loaded();
        phases.add(PhaseKind::Mount, load);
        spent += load;
        self.in_drive[d] = Some(c);
        self.drive_of[c] = Some(d);
        self.touch_drive(d);
        (spent, true)
    }
}

impl Mechanism for TapeLibrary {
    const CLASS: DeviceClass = DeviceClass::Tape;

    fn capacity_sectors(&self) -> u64 {
        self.cart_sectors * self.cartridges.len() as u64
    }

    fn profile(&self) -> DeviceProfile {
        // Cold access: robot exchange plus the tape's own mount + locate.
        let tape_profile = self.cartridges[0].profile();
        DeviceProfile {
            class: Self::CLASS,
            nominal_latency: tape_profile.nominal_latency + self.params.robot_move * 2,
            nominal_bandwidth: tape_profile.nominal_bandwidth,
        }
    }

    /// A transfer must stay on one cartridge.
    fn admit(&self, name: &str, start: u64, sectors: u64) -> SimResult<()> {
        if self.cartridge_of(start) == self.cartridge_of(start + sectors - 1) {
            Ok(())
        } else {
            Err(SimError::new(
                Errno::Einval,
                format!("{name}: transfer crosses cartridge boundary"),
            ))
        }
    }

    /// Exchanges the cartridge in if it is not mounted, then lets its tape
    /// locate and stream. The exchange and the locate count one
    /// repositioning each.
    fn service(
        &mut self,
        start: u64,
        sectors: u64,
        write: bool,
        now: SimTime,
        phases: &mut PhaseLog,
    ) -> (SimDuration, u64) {
        let c = self.cartridge_of(start);
        let (exchange, exchanged) = self.mount(c, phases);
        let local = start - c as u64 * self.cart_sectors;
        let (tape, locates) = self.cartridges[c].service(local, sectors, write, now, phases);
        (exchange + tape, u64::from(exchanged) + locates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockDevice;

    fn small_jukebox(drives: usize) -> Jukebox {
        Jukebox::new("jb0", 4, drives, JukeboxParams::default())
    }

    /// Sectors per cartridge of [`small_jukebox`].
    fn cartridge(jb: &Jukebox) -> u64 {
        jb.capacity_sectors() / 4
    }

    /// Reads 8 sectors at `sector`; true when that command loaded a
    /// cartridge, i.e. the one holding `sector` was not in a drive.
    fn loads(jb: &mut Jukebox, sector: u64) -> bool {
        jb.read(sector, 8, SimTime::ZERO).unwrap();
        jb.last_phases().iter().any(|p| p.kind == PhaseKind::Mount)
    }

    #[test]
    fn first_access_mounts_cartridge() {
        let mut jb = small_jukebox(1);
        let t = jb.read(0, 8, SimTime::ZERO).unwrap();
        // Robot move + load.
        assert!(t >= SimDuration::from_secs(50), "cold mount {t}");
        assert!(jb.last_phases().iter().any(|p| p.kind == PhaseKind::Mount));
        assert!(!loads(&mut jb, 8), "cartridge 0 stays mounted");
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
        let cart = cartridge(&jb);
        jb.read(0, 8, SimTime::ZERO).unwrap();
        let t = jb.read(cart, 8, SimTime::ZERO).unwrap();
        // Unload (rewind) + two robot moves + load.
        assert!(t >= SimDuration::from_secs(60), "exchange {t}");
        assert!(!loads(&mut jb, cart + 8), "cartridge 1 is mounted");
        assert!(loads(&mut jb, 8), "cartridge 0 was unloaded");
    }

    #[test]
    fn two_drives_keep_both_mounted() {
        let mut jb = small_jukebox(2);
        let cart = cartridge(&jb);
        jb.read(0, 8, SimTime::ZERO).unwrap();
        jb.read(cart, 8, SimTime::ZERO).unwrap();
        // Alternating reads now load nothing and stay cheap.
        assert!(!loads(&mut jb, 8));
        let t0: SimDuration = jb.last_phases().iter().map(|p| p.dur).sum();
        assert!(!loads(&mut jb, cart + 8));
        let t1: SimDuration = jb.last_phases().iter().map(|p| p.dur).sum();
        assert!(t0 < SimDuration::from_secs(1));
        assert!(t1 < SimDuration::from_secs(1));
    }

    #[test]
    fn lru_drive_is_victim() {
        let mut jb = small_jukebox(2);
        let cart = cartridge(&jb);
        jb.read(0, 8, SimTime::ZERO).unwrap(); // cart 0 -> drive
        jb.read(cart, 8, SimTime::ZERO).unwrap(); // cart 1 -> drive
        jb.read(8, 8, SimTime::ZERO).unwrap(); // touch cart 0
        jb.read(2 * cart, 8, SimTime::ZERO).unwrap(); // cart 2 evicts cart 1
        assert!(!loads(&mut jb, 16), "cartridge 0 is mounted");
        assert!(!loads(&mut jb, 2 * cart + 8), "cartridge 2 is mounted");
        assert!(loads(&mut jb, cart + 8), "cartridge 1 was the victim");
    }

    #[test]
    fn phases_cover_robot_mount_and_tape_time() {
        let mut jb = small_jukebox(1);
        let cart = cartridge(&jb);
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
        let cart = cartridge(&jb);
        assert!(jb.read(cart - 4, 8, SimTime::ZERO).is_err());
    }

    /// A cold read is one robot exchange, plus one locate when it does not
    /// start at the cartridge's load point; streaming adds nothing.
    #[test]
    fn jukebox_counts_each_exchange_and_locate_once() {
        let mut jb = small_jukebox(1);
        let cart = cartridge(&jb);
        jb.read(0, 8, SimTime::ZERO).unwrap();
        assert_eq!(jb.stats().repositions, 1, "exchange at the load point");
        jb.read(8, 8, SimTime::ZERO).unwrap();
        assert_eq!(jb.stats().repositions, 1, "streaming");
        jb.read(cart + 1000, 8, SimTime::ZERO).unwrap();
        assert_eq!(jb.stats().repositions, 3, "exchange plus locate");
        jb.read(cart + 5000, 8, SimTime::ZERO).unwrap();
        assert_eq!(jb.stats().repositions, 4, "locate on the mounted tape");
    }

    #[test]
    fn capacity_is_sum_of_cartridges() {
        let jb = small_jukebox(1);
        let cart = Tape::new(JukeboxParams::default().tape).capacity_sectors();
        assert_eq!(jb.capacity_sectors(), cart * 4);
        assert_eq!(jb.cartridge_of(cart * 3 - 1), 2);
        assert_eq!(jb.cartridge_of(cart * 3), 3);
    }
}
