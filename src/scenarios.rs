//! The examples' machines, as data.
//!
//! Each function returns the [`WorkloadSpec`] an example boots with
//! [`build_kernel`](crate::replay::build_kernel) before it runs its driver,
//! so each of those machines goes through the capture codec and can be
//! captured, replayed and what-if'd the way `replay_whatif`'s is. An example
//! adds the fault plan and hedge policy its experiment needs.
//!
//! Steps run in the order listed, and the order is part of the machine: a
//! `mkdir` charges a trap and an install moves its mount's allocator, so
//! swapping two steps moves every later timestamp or layout. For the same
//! reason `lmbench::fill_table`, which installs and unlinks a 16 MiB sparse
//! probe on every mount it calibrates, runs after `build_kernel`: a file
//! that must be laid out after calibration (`trace_viewer`'s corpus) is
//! installed by the example, not by its spec.
//!
//! A spec that fills its mounts installs `n` files `dir/f0`, `dir/f1`, … of
//! `pages` pages on each, file `i` of the `d`-th mount holding byte
//! `d × n + i` throughout, so no two files of one machine read alike.

use crate::fs::VolumeLayout;
use crate::replay::{SetupStep, WorkloadSpec};
use crate::sim_core::PAGE_SIZE;

/// The disk, NFS and HSM machine of `saturation_report` and
/// `replay_whatif`: disk `hda` at `/disk`, NFS export `nfs0` at `/nfs`, and
/// at `/hsm` an HSM staging through disk `hdb` from DLT tape `tape0` in
/// 16-page chunks. Each `(path, size)` of `files` is installed sparse, in
/// order, and one under `/hsm` is migrated to tape as soon as it is
/// installed. Caches are dropped last.
pub fn disk_nfs_hsm(files: &[(String, u64)]) -> WorkloadSpec {
    let mut setup = vec![
        mkdir("/disk"),
        mkdir("/nfs"),
        mkdir("/hsm"),
        disk("/disk", "hda"),
        SetupStep::MountNfs {
            path: "/nfs".into(),
            model: "table2_mount".into(),
            name: "nfs0".into(),
        },
        hsm("tape0", 16),
    ];
    for (path, size) in files {
        setup.push(SetupStep::InstallSparseFile {
            path: path.clone(),
            size: *size,
        });
        if path.starts_with("/hsm/") {
            setup.push(SetupStep::HsmMigrate {
                path: path.clone(),
                free: true,
            });
        }
    }
    setup.push(SetupStep::DropCaches);
    table2(setup)
}

/// The four-level machine of `trace_viewer` and `recal_loop`: disk `hda`
/// at `/data`, CD-ROM `cd0` at `/cdrom`, NFS export `srv:/export` at
/// `/nfs`, and at `/hsm` an HSM staging through disk `hdb` from DLT tape
/// `st0` in 256-page chunks. Then each mount in that order is filled with
/// `per_mount` files of `pages` pages, and every file under `/hsm` is
/// migrated to tape.
pub fn four_levels(per_mount: usize, pages: usize) -> WorkloadSpec {
    let dirs = ["/data", "/cdrom", "/nfs", "/hsm"];
    let mut setup = Vec::from(dirs.map(mkdir));
    setup.extend([
        disk("/data", "hda"),
        SetupStep::MountCdrom {
            path: "/cdrom".into(),
            model: "table2_drive".into(),
            name: "cd0".into(),
        },
        SetupStep::MountNfs {
            path: "/nfs".into(),
            model: "table2_mount".into(),
            name: "srv:/export".into(),
        },
        hsm("st0", 256),
    ]);
    for (d, dir) in dirs.iter().enumerate() {
        setup.extend(filled(dir, d, per_mount, pages));
    }
    setup.extend((0..per_mount).map(|i| SetupStep::HsmMigrate {
        path: format!("/hsm/f{i}"),
        free: true,
    }));
    table2(setup)
}

/// The plain-disk machines of `fault_storm` and `redundancy_report`: for
/// each `(dir, name)` in turn, `dir` is made, a disk named `name` mounted
/// on it and filled with `per_mount` files of `pages` pages. Caches are
/// dropped last.
pub fn disks(mounts: &[(&str, &str)], per_mount: usize, pages: usize) -> WorkloadSpec {
    let mut setup = Vec::new();
    for (d, &(dir, name)) in mounts.iter().enumerate() {
        setup.extend([mkdir(dir), disk(dir, name)]);
        setup.extend(filled(dir, d, per_mount, pages));
    }
    setup.push(SetupStep::DropCaches);
    table2(setup)
}

/// The redundant-volume machines of `fault_storm` and `redundancy_report`:
/// a `layout` volume at `/vol` over `(model, name)` `members`, primary
/// first, filled with `files` files of `pages` pages. Caches are dropped
/// last.
pub fn volume(
    layout: VolumeLayout,
    members: &[(&str, &str)],
    files: usize,
    pages: usize,
) -> WorkloadSpec {
    let members = members.iter().map(|&(m, n)| (m.into(), n.into()));
    let mut setup = vec![
        mkdir("/vol"),
        SetupStep::MountVolume {
            path: "/vol".into(),
            layout,
            members: members.collect(),
        },
    ];
    setup.extend(filled("/vol", 0, files, pages));
    setup.push(SetupStep::DropCaches);
    table2(setup)
}

/// The `n` files of the `d`-th mount, `dir`, as the module docs lay out.
fn filled(dir: &str, d: usize, n: usize, pages: usize) -> impl Iterator<Item = SetupStep> + '_ {
    (0..n).map(move |i| SetupStep::InstallFile {
        path: format!("{dir}/f{i}"),
        data: vec![(d * n + i) as u8; pages * PAGE_SIZE as usize].into(),
    })
}

fn table2(setup: Vec<SetupStep>) -> WorkloadSpec {
    WorkloadSpec {
        setup,
        ..WorkloadSpec::new("table2")
    }
}

fn mkdir(path: &str) -> SetupStep {
    SetupStep::Mkdir { path: path.into() }
}

fn disk(path: &str, name: &str) -> SetupStep {
    SetupStep::MountDisk {
        path: path.into(),
        model: "table2_disk".into(),
        name: name.into(),
    }
}

/// An HSM at `/hsm`: staging disk `hdb` in front of DLT tape `tape`.
fn hsm(tape: &str, chunk_pages: u64) -> SetupStep {
    SetupStep::MountHsm {
        path: "/hsm".into(),
        disk_model: "table2_disk".into(),
        disk_name: "hdb".into(),
        tape_model: "dlt".into(),
        tape_name: tape.into(),
        chunk_pages,
    }
}
