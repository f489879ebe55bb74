//! The reproducible environment half of a capture: machine, mounts,
//! files, tenants-to-be, faults.
//!
//! A capture records what the workload *did*; this module records what
//! the workload *ran on*, as data. Device models are named (a registry
//! of the factory constructors the examples use), so the same setup can
//! be rebuilt for the identity replay and rebuilt *differently* — other
//! queue capacity, other fault plan, other machine table — for a
//! what-if replay.

use sleds_devices::{BlockDevice, CdRomDevice, DiskDevice, NfsDevice, TapeDevice};
use sleds_faults::FaultPlan;
use sleds_fs::{HedgePolicy, Kernel, MachineConfig, VolumeLayout};

/// Disk model names [`build_disk`] accepts.
pub const DISK_MODELS: &[&str] = &["table2_disk", "table3_disk"];

/// Builds a named disk model.
pub fn build_disk(model: &str, name: &str) -> Result<DiskDevice, String> {
    match model {
        "table2_disk" => Ok(DiskDevice::table2_disk(name)),
        "table3_disk" => Ok(DiskDevice::table3_disk(name)),
        other => Err(format!("unknown disk model {other:?}")),
    }
}

/// Builds a named volume-member model: every disk model plus the NFS
/// exports (the geo links are how a volume spans sites).
pub fn build_member(model: &str, name: &str) -> Result<Box<dyn BlockDevice>, String> {
    Ok(match model {
        "table2_disk" => Box::new(DiskDevice::table2_disk(name)),
        "table3_disk" => Box::new(DiskDevice::table3_disk(name)),
        "table2_mount" => Box::new(NfsDevice::table2_mount(name)),
        "nfs_metro" => Box::new(NfsDevice::metro_link(name)),
        "nfs_regional" => Box::new(NfsDevice::regional_link(name)),
        "nfs_continental" => Box::new(NfsDevice::continental_link(name)),
        other => return Err(format!("unknown member model {other:?}")),
    })
}

/// One declarative environment-construction step. Applied in order by
/// [`build_kernel`]; every step is zero-virtual-cost, exactly like the
/// setup helpers it mirrors.
#[derive(Clone, Debug, PartialEq)]
pub enum SetupStep {
    /// `mkdir(path)` before capture (zero-cost: issued outside capture).
    Mkdir {
        /// Absolute path.
        path: String,
    },
    /// Mount a disk model at `path`.
    MountDisk {
        /// Mount point.
        path: String,
        /// Model name (see [`DISK_MODELS`]).
        model: String,
        /// Device name (matches fault-plan entries).
        name: String,
    },
    /// Mount an NFS model at `path`.
    MountNfs {
        /// Mount point.
        path: String,
        /// Model name (`"table2_mount"`).
        model: String,
        /// Device name.
        name: String,
    },
    /// Mount a CD-ROM model at `path`.
    MountCdrom {
        /// Mount point.
        path: String,
        /// Model name (`"table2_drive"`).
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
        /// `(model, name)` per member (see [`build_member`]).
        members: Vec<(String, String)>,
    },
    /// Install a file with explicit contents.
    InstallFile {
        /// Absolute path.
        path: String,
        /// File bytes.
        data: Vec<u8>,
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
/// the same state at the same virtual time (zero — setup charges
/// nothing). A plan that names a device no step creates is refused: it
/// would fault nothing, and a what-if built on a mistyped name would
/// quietly replay the identity.
pub fn build_kernel(spec: &WorkloadSpec) -> Result<Kernel, String> {
    let created: Vec<&str> = spec.setup.iter().flat_map(SetupStep::devices).collect();
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
    /// The names of the devices this step creates.
    fn devices(&self) -> Vec<&str> {
        match self {
            SetupStep::MountDisk { name, .. }
            | SetupStep::MountNfs { name, .. }
            | SetupStep::MountCdrom { name, .. } => vec![name],
            SetupStep::MountHsm {
                disk_name,
                tape_name,
                ..
            } => vec![disk_name, tape_name],
            SetupStep::MountVolume { members, .. } => {
                members.iter().map(|(_, name)| name.as_str()).collect()
            }
            _ => Vec::new(),
        }
    }
}

fn apply_step(k: &mut Kernel, step: &SetupStep) -> Result<(), String> {
    let fail = |e: sleds_sim_core::SimError| e.to_string();
    match step {
        SetupStep::Mkdir { path } => k.mkdir(path).map_err(fail),
        SetupStep::MountDisk { path, model, name } => k
            .mount_disk(path, build_disk(model, name)?)
            .map(|_| ())
            .map_err(fail),
        SetupStep::MountNfs { path, model, name } => match model.as_str() {
            "table2_mount" => k
                .mount_nfs(path, NfsDevice::table2_mount(name.as_str()))
                .map(|_| ())
                .map_err(fail),
            other => Err(format!("unknown nfs model {other:?}")),
        },
        SetupStep::MountCdrom { path, model, name } => match model.as_str() {
            "table2_drive" => k
                .mount_cdrom(path, CdRomDevice::table2_drive(name.as_str()))
                .map(|_| ())
                .map_err(fail),
            other => Err(format!("unknown cdrom model {other:?}")),
        },
        SetupStep::MountHsm {
            path,
            disk_model,
            disk_name,
            tape_model,
            tape_name,
            chunk_pages,
        } => {
            let disk = build_disk(disk_model, disk_name)?;
            let tape: Box<dyn sleds_devices::BlockDevice> = match tape_model.as_str() {
                "dlt" => Box::new(TapeDevice::dlt(tape_name.as_str())),
                other => return Err(format!("unknown tape model {other:?}")),
            };
            k.mount_hsm(path, disk, tape, *chunk_pages)
                .map(|_| ())
                .map_err(fail)
        }
        SetupStep::MountVolume {
            path,
            layout,
            members,
        } => {
            let mut devs: Vec<Box<dyn BlockDevice>> = Vec::new();
            for (model, name) in members {
                devs.push(build_member(model, name)?);
            }
            k.mount_volume(path, *layout, devs)
                .map(|_| ())
                .map_err(fail)
        }
        SetupStep::InstallFile { path, data } => k.install_file(path, data).map_err(fail),
        SetupStep::InstallSparseFile { path, size } => {
            k.install_sparse_file(path, *size).map_err(fail)
        }
        SetupStep::WarmFilePages {
            path,
            first_page,
            pages,
        } => k.warm_file_pages(path, *first_page, *pages).map_err(fail),
        SetupStep::HsmMigrate { path, free } => k.hsm_migrate(path, *free).map_err(fail),
        SetupStep::DropCaches => k.drop_caches().map_err(fail),
    }
}
