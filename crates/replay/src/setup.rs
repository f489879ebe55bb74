//! The reproducible environment half of a capture: machine, mounts,
//! files, tenants-to-be, faults.
//!
//! A capture records what the workload *did*; this module records what
//! the workload *ran on*, as data. Device models are named (a registry
//! of the factory constructors the examples use), so the same setup can
//! be rebuilt for the identity replay and rebuilt *differently* — other
//! queue capacity, other fault plan, other machine table — for a
//! what-if replay.

use std::sync::Arc;

use sleds_devices::{BlockDevice, CdRomDevice, DeviceClass, DiskDevice, NfsDevice, TapeDevice};
use sleds_faults::FaultPlan;
use sleds_fs::{HedgePolicy, Kernel, MachineConfig, VolumeLayout};

/// The device-model registry: builds model `model` named `name`. Disks are
/// `table2_disk` and `table3_disk`; NFS exports `table2_mount` and the geo
/// links `nfs_metro`, `nfs_regional` and `nfs_continental`; the CD-ROM
/// `table2_drive`; the tape `dlt`. A step accepts only the classes its
/// mount takes (see [`SetupStep`]), so `mount_disk` of `"dlt"` is refused.
fn build_device(model: &str, name: &str) -> Result<Box<dyn BlockDevice>, String> {
    Ok(match model {
        "table2_disk" => Box::new(DiskDevice::table2_disk(name)),
        "table3_disk" => Box::new(DiskDevice::table3_disk(name)),
        "table2_mount" => Box::new(NfsDevice::table2_mount(name)),
        "nfs_metro" => Box::new(NfsDevice::metro_link(name)),
        "nfs_regional" => Box::new(NfsDevice::regional_link(name)),
        "nfs_continental" => Box::new(NfsDevice::continental_link(name)),
        "table2_drive" => Box::new(CdRomDevice::table2_drive(name)),
        "dlt" => Box::new(TapeDevice::dlt(name)),
        other => return Err(format!("unknown device model {other:?}")),
    })
}

/// One declarative environment-construction step, applied in order by
/// [`build_kernel`]. Steps are the setup helpers they mirror, so their
/// costs are too: `mkdir` charges its trap, and `HsmMigrate { free: false }`
/// charges the tape write; every other step charges nothing. Model names
/// are the registry's; a step refuses a model of a class it does not mount.
#[derive(Clone, Debug, PartialEq)]
pub enum SetupStep {
    /// `mkdir(path)`, issued before any capture is armed.
    Mkdir {
        /// Absolute path.
        path: String,
    },
    /// Mount a disk model at `path`.
    MountDisk {
        /// Mount point.
        path: String,
        /// Disk model name.
        model: String,
        /// Device name (matches fault-plan entries).
        name: String,
    },
    /// Mount an NFS model at `path`.
    MountNfs {
        /// Mount point.
        path: String,
        /// NFS model name.
        model: String,
        /// Device name.
        name: String,
    },
    /// Mount a read-only CD-ROM model at `path`.
    MountCdrom {
        /// Mount point.
        path: String,
        /// CD-ROM model name.
        model: String,
        /// Device name.
        name: String,
    },
    /// Mount an HSM (staging disk + tape) at `path`.
    MountHsm {
        /// Mount point.
        path: String,
        /// Staging-disk model name.
        disk_model: String,
        /// Staging-disk device name.
        disk_name: String,
        /// Tape model name (`"dlt"`).
        tape_model: String,
        /// Tape device name.
        tape_name: String,
        /// Stage-back chunk, in pages.
        chunk_pages: u64,
    },
    /// Mount a redundant volume: a layout over named member models. The
    /// first member is the primary.
    MountVolume {
        /// Mount point.
        path: String,
        /// Redundancy layout.
        layout: VolumeLayout,
        /// `(model, name)` per member: disk or NFS models.
        members: Vec<(String, String)>,
    },
    /// Install a file with explicit contents.
    InstallFile {
        /// Absolute path.
        path: String,
        /// File bytes, shared with every copy of the spec.
        data: Arc<[u8]>,
    },
    /// Install a sized file with empty (zero) contents.
    InstallSparseFile {
        /// Absolute path.
        path: String,
        /// Size in bytes.
        size: u64,
    },
    /// Pre-load a page run into the cache.
    WarmFilePages {
        /// Absolute path.
        path: String,
        /// First page index.
        first_page: u64,
        /// Page count.
        pages: u64,
    },
    /// Migrate a file to tape (optionally freeing the disk copy).
    HsmMigrate {
        /// Absolute path.
        path: String,
        /// Drop the staged disk copy.
        free: bool,
    },
    /// Drop the page cache.
    DropCaches,
}

/// The environment a capture ran in, as rebuildable data.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Machine table name: `"table2"` or `"table3"`.
    pub machine: String,
    /// Per-device command-queue telemetry retention
    /// (`MachineConfig::cmd_queue_capacity`).
    pub cmd_queue_capacity: usize,
    /// Environment steps, applied in order before the first captured op.
    pub setup: Vec<SetupStep>,
    /// Fault schedule installed after the mounts.
    pub fault_plan: FaultPlan,
    /// Hedged-read policy in force during the capture. Part of the spec
    /// because hedging changes which devices serve which reads — replay
    /// must rebuild it exactly to stay byte-identical.
    pub hedge: HedgePolicy,
}

impl WorkloadSpec {
    /// A spec on the named machine with default queue retention and an
    /// empty fault plan.
    pub fn new(machine: &str) -> WorkloadSpec {
        WorkloadSpec {
            machine: machine.to_string(),
            cmd_queue_capacity: sleds_fs::CMD_QUEUE_CAPACITY,
            setup: Vec::new(),
            fault_plan: FaultPlan::new(),
            hedge: HedgePolicy::default(),
        }
    }

    /// The machine config this spec names.
    pub fn machine_config(&self) -> Result<MachineConfig, String> {
        let mut cfg = match self.machine.as_str() {
            "table2" => MachineConfig::table2(),
            "table3" => MachineConfig::table3(),
            other => return Err(format!("unknown machine table {other:?}")),
        };
        cfg.cmd_queue_capacity = self.cmd_queue_capacity;
        cfg.hedge = self.hedge;
        Ok(cfg)
    }
}

/// What a what-if replay changes relative to the captured spec. `None`
/// fields keep the captured value; the identity replay is the all-`None`
/// candidate.
#[derive(Clone, Debug, Default)]
pub struct CandidateConfig {
    /// Replace the machine table (`"table2"`/`"table3"` — a different
    /// SLED pricing table).
    pub machine: Option<String>,
    /// Replace the per-device command-queue telemetry retention.
    pub cmd_queue_capacity: Option<usize>,
    /// Replace the fault schedule.
    pub fault_plan: Option<FaultPlan>,
    /// Replace the hedged-read policy (e.g. `HedgePolicy::disabled()`
    /// asks "what if we had not hedged?").
    pub hedge: Option<HedgePolicy>,
}

impl CandidateConfig {
    /// The identity candidate: replay against exactly the captured spec.
    pub fn identity() -> CandidateConfig {
        CandidateConfig::default()
    }

    /// The captured spec with this candidate's overrides applied.
    pub fn apply(&self, spec: &WorkloadSpec) -> WorkloadSpec {
        let mut out = spec.clone();
        if let Some(m) = &self.machine {
            out.machine = m.clone();
        }
        if let Some(c) = self.cmd_queue_capacity {
            out.cmd_queue_capacity = c;
        }
        if let Some(p) = &self.fault_plan {
            out.fault_plan = p.clone();
        }
        if let Some(h) = self.hedge {
            out.hedge = h;
        }
        out
    }
}

/// Boots a kernel and applies every setup step plus the fault plan, in
/// spec order. Deterministic: the same spec always yields a kernel in
/// the same state at the same virtual time. Fault plans, reports and
/// what-if candidates address devices by name, so two steps that create
/// devices of one name are refused (a fault on it would land on both), and
/// so is a plan that names a device no step creates: it would fault
/// nothing, and a what-if built on a mistyped name would quietly replay
/// the identity.
pub fn build_kernel(spec: &WorkloadSpec) -> Result<Kernel, String> {
    let mut created: Vec<&str> = Vec::new();
    for (_, name, _) in spec.setup.iter().flat_map(SetupStep::devices) {
        if created.contains(&name) {
            return Err(format!("setup creates two devices named {name:?}"));
        }
        created.push(name);
    }
    if let Some(dev) = spec
        .fault_plan
        .device_names()
        .find(|dev| !created.contains(dev))
    {
        return Err(format!(
            "fault plan names device {dev:?}, which no setup step creates"
        ));
    }
    let cfg = spec.machine_config()?;
    let mut k = Kernel::new(cfg);
    for step in &spec.setup {
        apply_step(&mut k, step).map_err(|e| format!("setup {step:?}: {e}"))?;
    }
    k.apply_fault_plan(&spec.fault_plan);
    Ok(k)
}

impl SetupStep {
    /// `(model, name, classes the step mounts)` for every device this step
    /// creates, in the order the mount takes them.
    fn devices(&self) -> Vec<(&str, &str, &'static [DeviceClass])> {
        use DeviceClass::{CdRom, Disk, Network, Tape};
        match self {
            SetupStep::MountDisk { model, name, .. } => vec![(model, name, &[Disk])],
            SetupStep::MountNfs { model, name, .. } => vec![(model, name, &[Network])],
            SetupStep::MountCdrom { model, name, .. } => vec![(model, name, &[CdRom])],
            SetupStep::MountHsm {
                disk_model,
                disk_name,
                tape_model,
                tape_name,
                ..
            } => vec![
                (disk_model, disk_name, &[Disk]),
                (tape_model, tape_name, &[Tape]),
            ],
            SetupStep::MountVolume { members, .. } => members
                .iter()
                .map(|(model, name)| (model.as_str(), name.as_str(), &[Disk, Network][..]))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// A step's devices as the fixed count its mount takes.
fn exactly<const N: usize>(
    devices: Vec<Box<dyn BlockDevice>>,
) -> Result<[Box<dyn BlockDevice>; N], String> {
    let got = devices.len();
    devices
        .try_into()
        .map_err(|_| format!("the mount takes {N} devices, the step names {got}"))
}

fn apply_step(k: &mut Kernel, step: &SetupStep) -> Result<(), String> {
    let mut devices = Vec::new();
    for (model, name, classes) in step.devices() {
        let dev = build_device(model, name)?;
        if !classes.contains(&dev.class()) {
            let class = dev.class().label();
            return Err(format!("model {model:?} is a {class} device"));
        }
        devices.push(dev);
    }
    let applied = match step {
        SetupStep::Mkdir { path } => k.mkdir(path),
        SetupStep::MountDisk { path, .. }
        | SetupStep::MountNfs { path, .. }
        | SetupStep::MountCdrom { path, .. } => {
            let [dev] = exactly(devices)?;
            let read_only = dev.class() == DeviceClass::CdRom;
            k.mount_device(path, dev, read_only).map(drop)
        }
        SetupStep::MountHsm {
            path, chunk_pages, ..
        } => {
            let [disk, tape] = exactly(devices)?;
            k.mount_hsm(path, disk, tape, *chunk_pages).map(drop)
        }
        SetupStep::MountVolume { path, layout, .. } => {
            k.mount_volume(path, *layout, devices).map(drop)
        }
        SetupStep::InstallFile { path, data } => k.install_file(path, data),
        SetupStep::InstallSparseFile { path, size } => k.install_sparse_file(path, *size),
        SetupStep::WarmFilePages {
            path,
            first_page,
            pages,
        } => k.warm_file_pages(path, *first_page, *pages),
        SetupStep::HsmMigrate { path, free } => k.hsm_migrate(path, *free),
        SetupStep::DropCaches => k.drop_caches(),
    };
    applied.map_err(|e| e.to_string())
}
