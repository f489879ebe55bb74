//! Hierarchical storage management: a staging disk in front of a tape.
//!
//! HSM mounts add one more step: a missing page whose home is the tape
//! device is *staged* — a chunk of pages is read from tape, written to the
//! staging disk, and the file's page map is rewritten to point at the disk
//! copy — before the read proceeds. The tape home is remembered so a later
//! purge can drop the disk copy without copying data back.

use sleds_devices::{BlockDevice, DeviceClass};
use sleds_sim_core::{Errno, Pages, Sectors, SimError, SimResult};

use super::{DeviceId, HsmConfig, Kernel, MountId, ONE_PAGE};
use crate::inode::{FileNode, Ino, PagePlace};

impl Kernel {
    /// The device class that would serve a cold read of this file: the tape
    /// class while any page is HSM-offline, the home mount device otherwise
    /// (memory for mountless files).
    pub(super) fn serving_class_of(&self, ino: Ino) -> SimResult<DeviceClass> {
        let f = self.file_of(ino)?;
        let Some(mount) = self.inode(ino)?.mount else {
            return Ok(DeviceClass::Memory);
        };
        if let Some((_, h)) = self.hsm_of(Some(mount)).filter(|(_, h)| on_tape(f, h.tape)) {
            return Ok(self.devices[h.tape.0].class());
        }
        Ok(self.devices[self.mounts[mount.0].dev.0].class())
    }

    /// The HSM mount `mount` names, with its configuration: `None` for no
    /// mount or one with no tape behind it. The one reader of `Mount::hsm`.
    fn hsm_of(&self, mount: Option<MountId>) -> Option<(MountId, HsmConfig)> {
        let m = mount?;
        Some((m, self.mounts.get(m.0)?.hsm?))
    }

    /// The tape device of an HSM mount.
    pub fn tape_of_mount(&self, m: MountId) -> Option<DeviceId> {
        self.hsm_of(Some(m)).map(|(_, h)| h.tape)
    }

    /// Mounts a hierarchical storage manager at `path`: a staging disk in
    /// front of a tape device (drive or jukebox). Files live on disk until
    /// migrated; offline pages are staged back in `stage_chunk_pages` units.
    pub fn mount_hsm(
        &mut self,
        path: &str,
        disk: Box<dyn BlockDevice>,
        tape: Box<dyn BlockDevice>,
        stage_chunk_pages: u64,
    ) -> SimResult<MountId> {
        let id = self.mount_device(path, disk, false)?;
        let tape_id = self.add_device(tape);
        self.mounts[id.0].hsm = Some(HsmConfig {
            tape: tape_id,
            stage_chunk_pages: Pages::new(stage_chunk_pages.max(1)),
            tape_next_sector: Sectors::ZERO,
        });
        Ok(id)
    }

    /// If page `p` of `ino` lives on tape, stages a chunk around it onto the
    /// staging disk and remaps the staged pages. Returns the (possibly new)
    /// place of page `p`.
    pub(super) fn stage_if_offline(&mut self, ino: Ino, p: Pages) -> SimResult<PagePlace> {
        let place = self.place_of(ino, p)?;
        let offline = self.hsm_of(self.inode(ino)?.mount);
        let Some((mount, hsm)) = offline.filter(|(_, h)| h.tape == place.dev) else {
            return Ok(place);
        };
        let page_count = self.file_of(ino)?.page_count();
        let chunk = hsm.stage_chunk_pages;
        let chunk_start = Pages::new(p.get() / chunk.get() * chunk.get());
        let chunk_end = (chunk_start + chunk).min(page_count);

        // Walk the layout runs inside the chunk: each tape-resident run
        // (clipped to the chunk) is staged with one tape read plus one disk
        // write, then remapped to the disk copy. Pages already staged are
        // skipped a whole run at a time.
        let mut q = chunk_start;
        while q < chunk_end {
            let run = self
                .file_of(ino)?
                .pages
                .run_of(q)
                .ok_or_else(|| SimError::new(Errno::Eio, format!("page {q} beyond mapping")))?;
            let run_end = run.end_page().min(chunk_end);
            if run.dev != hsm.tape {
                q = run_end;
                continue;
            }
            let first = run.place_of(q);
            let run_len = run_end - q;
            // Tape read.
            self.device_command(first.dev, first.sector, run_len.sectors(), false)?;
            // Disk write of the staged copy.
            let staged_at = self.allocate_sectors(mount, run_len)?;
            let disk = self.mounts[mount.0].dev;
            self.device_command(disk, staged_at, run_len.sectors(), true)?;
            // Remap, remembering the tape home.
            let f = self.file_of_mut(ino)?;
            if f.tape_home.is_none() {
                f.tape_home = Some(f.pages.clone());
            }
            f.pages.remap_run(q, run_len, disk, staged_at);
            q = run_end;
        }
        self.place_of(ino, p)
    }

    /// Migrates a file on an HSM mount to tape, freeing its disk residence
    /// and cached pages. Charges the tape write unless `free` is set (used
    /// by experiment setup).
    pub fn hsm_migrate(&mut self, path: &str, free: bool) -> SimResult<()> {
        self.rec_unsupported("hsm_migrate");
        let ino = self.resolve(path)?;
        let (mount, hsm) = self.hsm_of(self.inode(ino)?.mount).ok_or_else(|| {
            SimError::new(
                Errno::Einval,
                format!("hsm_migrate({path}): not an HSM mount"),
            )
        })?;
        let pages = self.file_of(ino)?.page_count();
        if pages == Pages::ZERO {
            return Ok(());
        }
        // Allocate a contiguous tape region.
        let sectors = pages.sectors();
        let first = hsm.tape_next_sector;
        let tape_next_sector = first
            .checked_add(sectors)
            .ok_or_else(|| SimError::new(Errno::Enospc, format!("hsm_migrate({path})")))?;
        self.mounts[mount.0].hsm = Some(HsmConfig {
            tape_next_sector,
            ..hsm
        });
        if !free {
            self.device_command(hsm.tape, first, sectors, true)?;
        }
        let f = self.file_of_mut(ino)?;
        let mapped = f.pages.page_count();
        f.pages.remap_run(Pages::ZERO, mapped, hsm.tape, first);
        f.tape_home = None;
        self.cache.remove_file(ino.0);
        Ok(())
    }

    /// True when any page of the file is tape-resident (the classic HSM
    /// "offline" bit that Windows 2000 / TOPS-20 / RASH exposed).
    pub fn hsm_is_offline(&self, path: &str) -> SimResult<bool> {
        let ino = self.resolve(path)?;
        let f = self.file_of(ino)?;
        let hsm = self.hsm_of(self.inode(ino)?.mount);
        Ok(hsm.is_some_and(|(_, h)| on_tape(f, h.tape)))
    }
}

/// Whether any page of `f` lies on `tape`: one look per layout run.
fn on_tape(f: &FileNode, tape: DeviceId) -> bool {
    let n = f.page_count();
    n > Pages::ZERO
        && f.pages
            .runs_in(Pages::ZERO, n - ONE_PAGE)
            .iter()
            .any(|r| r.dev == tape)
}
