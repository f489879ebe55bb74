//! Machine setup: attaching devices and mounts, fault plans, and the
//! experiment helpers that install files and shape the cache without
//! charging time (not part of the syscall API).

use std::sync::Arc;

use sleds_devices::{BlockDevice, FaultPlan};
use sleds_sim_core::{index, DetRng, Errno, Pages, Sectors, SimError, SimResult};

use super::{DeviceId, FragConfig, Kernel, Mount, MountId};
use crate::inode::{FileKind, FileNode, Ino, InodeBody};
use crate::queue::CmdQueue;
use crate::rusage::Rusage;

impl Kernel {
    /// Installs `plan`'s injectors on every attached device whose name has
    /// an entry in the plan; devices without one are left untouched.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        self.rec_unsupported("apply_fault_plan");
        for d in &mut self.devices {
            if let Some(injector) = plan.injector_for(d.name()) {
                d.set_fault_injector(injector);
            }
        }
    }

    pub(super) fn add_device(&mut self, dev: Box<dyn BlockDevice>) -> DeviceId {
        self.devices.push(dev);
        self.queues.push(CmdQueue::new(self.cfg.cmd_queue_capacity));
        DeviceId(self.devices.len() - 1)
    }

    /// Mounts `device` at `path` (the directory must already exist, or be
    /// `/`). Returns the mount id.
    pub fn mount_device(
        &mut self,
        path: &str,
        device: Box<dyn BlockDevice>,
        read_only: bool,
    ) -> SimResult<MountId> {
        let dir = self.resolve(path)?;
        let node = self.inode(dir)?;
        if node.kind() != FileKind::Dir {
            return Err(SimError::new(Errno::Enotdir, format!("mount({path})")));
        }
        if node.mount.is_some() {
            return Err(SimError::new(Errno::Eexist, format!("mount({path}): busy")));
        }
        let dev = self.add_device(device);
        let id = MountId(self.mounts.len());
        self.mounts.push(Mount {
            dev,
            // Leave the first megabyte for "metadata", like a real fs.
            next_sector: Sectors::new(2048),
            read_only,
            frag: None,
            hsm: None,
            volume: None,
        });
        self.inode_mut(dir)?.mount = Some(id);
        Ok(id)
    }

    /// Mounts a disk file system (ext2-like) at `path`.
    pub fn mount_disk(
        &mut self,
        path: &str,
        disk: sleds_devices::DiskDevice,
    ) -> SimResult<MountId> {
        self.mount_device(path, Box::new(disk), false)
    }

    /// Mounts a CD-ROM (ISO9660-like, read-only) at `path`.
    pub fn mount_cdrom(
        &mut self,
        path: &str,
        cd: sleds_devices::CdRomDevice,
    ) -> SimResult<MountId> {
        self.mount_device(path, Box::new(cd), true)
    }

    /// Mounts an NFS export at `path`.
    pub fn mount_nfs(&mut self, path: &str, nfs: sleds_devices::NfsDevice) -> SimResult<MountId> {
        self.mount_device(path, Box::new(nfs), false)
    }

    /// Makes future allocations on `mount` fragmented: files are laid out
    /// in `chunk_pages`-page runs separated by gaps of up to `gap_pages`.
    /// Setup mutation: not capturable mid-recording.
    pub fn set_fragmentation(
        &mut self,
        mount: MountId,
        chunk_pages: u64,
        gap_pages: u64,
        seed: u64,
    ) {
        self.rec_unsupported("set_fragmentation");
        if let Some(m) = self.mounts.get_mut(mount.0) {
            m.frag = Some(FragConfig {
                chunk_pages: Pages::new(chunk_pages.max(1)),
                gap_pages,
                rng: DetRng::new(seed),
            });
        }
    }

    /// Installs a file of `size` bytes whose first `data.len()` bytes are
    /// stored; a sparse install stores none.
    fn install_node(&mut self, path: &str, size: u64, data: &[u8]) -> SimResult<Ino> {
        let (parent, name) = self.resolve_parent(path)?;
        let mount = self.inode(parent)?.mount.ok_or_else(|| {
            SimError::new(Errno::Einval, format!("install_file({path}): no mount"))
        })?;
        let page_count = Pages::spanning(size);
        let mut file = FileNode::default();
        file.pages = self.layout_pages(mount, page_count)?;
        let mut replicas = Vec::new();
        self.grow_replicas(mount, &mut replicas, page_count)?;
        file.set_replicas(replicas);
        if !data.is_empty() {
            file.set_stored(self.intern(data));
        }
        file.set_size(size);
        self.link_new(parent, name, Some(mount), InodeBody::File(file))
    }

    /// The buffer to store `data` in: the live buffer of the latest install
    /// of this length if its bytes are equal, else a new copy, which then
    /// stands for this length. Sharing is safe because a file's bytes are
    /// copy-on-write ([`FileNode::stored_mut`]); a write to a buffer held
    /// only by its file moves it out from under the weak reference, so a
    /// changed buffer is never handed to a later install.
    fn intern(&mut self, data: &[u8]) -> Arc<Vec<u8>> {
        let latest = self.installed.entry(data.len()).or_default();
        if let Some(live) = latest.upgrade().filter(|b| b.as_slice() == data) {
            return live;
        }
        let bytes = Arc::new(data.to_vec());
        *latest = Arc::downgrade(&bytes);
        bytes
    }

    /// Installs a file with the given contents at `path` without charging
    /// any time and without touching the page cache. The file is laid out
    /// by the mount's allocator exactly as a normal write would lay it out.
    /// Files installed with equal contents share one stored buffer until
    /// one of them is written: installing one corpus on three mounts
    /// stores it once.
    pub fn install_file(&mut self, path: &str, data: &[u8]) -> SimResult<()> {
        self.rec_unsupported("install_file");
        self.install_node(path, data.len() as u64, data).map(|_| ())
    }

    /// Installs a file of `size` bytes whose *contents* are never
    /// materialized — only the layout exists. Reads through the normal
    /// path return zero bytes for the holes; the point of a sparse install
    /// is layout- and residency-level experiments (`redundant_extents`,
    /// `fsleds_get`, `warm_file_pages`) on files far larger than host
    /// memory could hold.
    pub fn install_sparse_file(&mut self, path: &str, size: u64) -> SimResult<()> {
        self.rec_unsupported("install_sparse_file");
        self.install_node(path, size, &[]).map(|_| ())
    }

    /// Marks pages `[first_page, first_page + pages)` of `path` resident,
    /// with zero cost and no device traffic — experiment setup for
    /// preparing an arbitrary cache state. Evictions this forces drop
    /// their dirty state silently (setup, not a syscall). Fails if the
    /// range lies beyond the file.
    pub fn warm_file_pages(&mut self, path: &str, first_page: u64, pages: u64) -> SimResult<()> {
        self.rec_unsupported("warm_file_pages");
        let ino = self.resolve(path)?;
        let n = self.file_of(ino)?.page_count().get();
        let end = first_page.saturating_add(pages);
        if end > n {
            return Err(SimError::new(
                Errno::Einval,
                format!("warm_file_pages({path}): {end} beyond {n} pages"),
            ));
        }
        let mut victims = Vec::new();
        let mut done = first_page;
        while done < end {
            done += self
                .cache
                .insert_run(ino.0, done, end - done, false, &mut victims);
        }
        Ok(())
    }

    /// Overwrites bytes of an installed file in place, without charging any
    /// time or touching cache state. Experiment setup only: this is how the
    /// harness moves the random match around between grep runs (the paper
    /// regenerated test files; content placement does not affect timing, so
    /// an in-place poke is equivalent and keeps the cache state intact).
    ///
    /// The range must lie within the file's *stored* bytes: the hole of a
    /// sparse install has no contents to overwrite and is not materialized
    /// for a poke, so a range reaching into it is `EINVAL` like one past the
    /// end.
    pub fn poke_file(&mut self, path: &str, offset: u64, data: &[u8]) -> SimResult<()> {
        self.rec_unsupported("poke_file");
        let ino = self.resolve(path)?;
        let f = self.file_of_mut(ino)?;
        let stored = f.stored_len();
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= stored)
            .ok_or_else(|| {
                let size = f.size();
                let why = format!("range beyond the {stored} stored bytes (size {size})");
                SimError::new(Errno::Einval, format!("poke_file({path}): {why}"))
            })?;
        f.stored_mut()[index(offset)..index(end)].copy_from_slice(data);
        Ok(())
    }

    /// Advances a mount's allocator by `pages` pages without creating any
    /// file — experiment setup for placing subsequent files deep into a
    /// device (e.g. in an inner disk zone) without materializing filler.
    pub fn advance_allocator(&mut self, mount: MountId, pages: u64) -> SimResult<()> {
        self.rec_unsupported("advance_allocator");
        self.allocate_sectors(mount, Pages::new(pages)).map(|_| ())
    }

    /// Resets cache, usage, tenant, and queue-telemetry counters (not
    /// residency, positions, or device schedules); used between a warm-up
    /// run and measured runs.
    pub fn reset_counters(&mut self) {
        self.cache.reset_stats();
        self.ledger.reset_usage();
        self.tenant_snapshot = Rusage::default();
        for t in &mut self.tenants {
            t.usage = Rusage::default();
        }
        for q in &mut self.queues {
            q.reset_telemetry();
        }
        for d in &mut self.devices {
            d.reset_stats();
        }
    }
}
