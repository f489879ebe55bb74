//! Experiment environments: a booted machine with one mounted file system,
//! a calibrated sleds table, and an installed test file.

use sleds::SledsTable;
use sleds_devices::{CdRomDevice, DiskDevice, NfsDevice, TapeDevice};
use sleds_fs::{Kernel, MachineConfig, MountId};
use sleds_lmbench::fill_table;
use sleds_sim_core::DetRng;

/// Which file system the experiment runs against — the three the paper
/// measured, plus the HSM it predicts the biggest wins for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsKind {
    /// Local disk (ext2 in the paper).
    Ext2,
    /// CD-ROM (ISO9660).
    CdRom,
    /// NFS mount.
    Nfs,
    /// Hierarchical storage manager: staging disk + tape.
    Hsm,
}

impl FsKind {
    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            FsKind::Ext2 => "ext2",
            FsKind::CdRom => "cdrom",
            FsKind::Nfs => "nfs",
            FsKind::Hsm => "hsm",
        }
    }
}

/// A ready-to-measure environment.
pub struct Env {
    /// The booted kernel.
    pub kernel: Kernel,
    /// Calibrated table (the boot script already ran).
    pub table: SledsTable,
    /// The data mount.
    pub mount: MountId,
    /// Directory of the data mount.
    pub dir: &'static str,
}

impl Env {
    /// Builds an environment on the Table 2 machine (Unix utilities).
    ///
    /// `seed` drives device jitter (background-activity variability, which
    /// is where the paper's error bars come from).
    pub fn table2(fs: FsKind, seed: u64) -> Env {
        Env::build(MachineConfig::table2(), fs, seed, false)
    }

    /// Builds an environment on the Table 3 machine (LHEASOFT), whose disk
    /// is the slightly slower 16.5 ms / 7 MB/s model.
    pub fn table3(fs: FsKind, seed: u64) -> Env {
        Env::build(MachineConfig::table3(), fs, seed, true)
    }

    fn build(cfg: MachineConfig, fs: FsKind, seed: u64, lheasoft_disk: bool) -> Env {
        let rng = DetRng::new(seed);
        let mut kernel = Kernel::new(cfg);
        let jitter = 0.04;
        let (dir, mount) = match fs {
            FsKind::Ext2 => {
                kernel.mkdir("/data").expect("mkdir /data");
                let disk = if lheasoft_disk {
                    DiskDevice::table3_disk("hda")
                } else {
                    DiskDevice::table2_disk("hda")
                }
                .with_jitter(rng.derive(1), jitter);
                (
                    "/data",
                    kernel.mount_disk("/data", disk).expect("mount disk"),
                )
            }
            FsKind::CdRom => {
                kernel.mkdir("/cdrom").expect("mkdir /cdrom");
                let cd = CdRomDevice::table2_drive("cd0").with_jitter(rng.derive(1), jitter);
                (
                    "/cdrom",
                    kernel.mount_cdrom("/cdrom", cd).expect("mount cd"),
                )
            }
            FsKind::Nfs => {
                kernel.mkdir("/nfs").expect("mkdir /nfs");
                let nfs = NfsDevice::table2_mount("srv:/export").with_jitter(rng.derive(1), jitter);
                ("/nfs", kernel.mount_nfs("/nfs", nfs).expect("mount nfs"))
            }
            FsKind::Hsm => {
                kernel.mkdir("/hsm").expect("mkdir /hsm");
                let disk = DiskDevice::table2_disk("hda").with_jitter(rng.derive(1), jitter);
                let tape = TapeDevice::dlt("st0");
                (
                    "/hsm",
                    kernel
                        .mount_hsm("/hsm", Box::new(disk), Box::new(tape), 512)
                        .expect("mount hsm"),
                )
            }
        };
        let table = fill_table(&mut kernel, &[(dir, mount)]).expect("lmbench calibration");
        kernel.reset_counters();
        Env {
            kernel,
            table,
            mount,
            dir,
        }
    }

    /// Installs the test file and returns its path.
    pub fn install(&mut self, name: &str, data: &[u8]) -> String {
        let path = format!("{}/{name}", self.dir);
        self.kernel
            .install_file(&path, data)
            .expect("install test file");
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_environments_boot_and_calibrate() {
        for fs in [FsKind::Ext2, FsKind::CdRom, FsKind::Nfs, FsKind::Hsm] {
            let env = Env::table2(fs, 1);
            assert!(env.table.memory().is_some(), "{fs:?} table unfilled");
            let dev = env.kernel.device_of_mount(env.mount).unwrap();
            assert!(env.table.device(dev).is_some(), "{fs:?} missing device row");
        }
    }

    #[test]
    fn calibrations_order_sensibly() {
        let ext2 = Env::table2(FsKind::Ext2, 2);
        let nfs = Env::table2(FsKind::Nfs, 2);
        let d_ext2 = ext2.kernel.device_of_mount(ext2.mount).unwrap();
        let d_nfs = nfs.kernel.device_of_mount(nfs.mount).unwrap();
        let l_ext2 = ext2.table.device(d_ext2).unwrap().latency;
        let l_nfs = nfs.table.device(d_nfs).unwrap().latency;
        assert!(l_ext2 < l_nfs, "disk {l_ext2} should beat NFS {l_nfs}");
    }

    #[test]
    fn install_places_file_in_mount() {
        let mut env = Env::table2(FsKind::Ext2, 3);
        let path = env.install("f.dat", b"hello");
        assert_eq!(env.kernel.stat(&path).unwrap().size, 5);
    }
}
