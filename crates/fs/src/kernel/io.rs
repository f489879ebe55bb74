//! The read and write paths: `read` faults a file's pages in, `write`
//! grows its layout and dirties its pages, and writeback flushes them.
//!
//! Cost model of the read path (the part every experiment depends on):
//!
//! * each `read(2)` pays a fixed syscall CPU cost plus a memory-copy cost
//!   for the bytes delivered (the Table 2 "memory" row);
//! * pages already in the buffer cache are **minor faults**: no device work;
//! * missing pages are **major faults**: contiguous runs of missing pages
//!   (same device, adjacent sectors) are clustered into one device command,
//!   so a cold sequential scan is bandwidth-limited while scattered misses
//!   pay positioning per run — exactly the latency/bandwidth split a SLED
//!   describes;
//! * pages brought in are inserted into the cache; dirty pages evicted to
//!   make room are written back to their home device at the caller's
//!   expense, which is how a write-heavy job (fimhisto) interferes with its
//!   own read caching.

use std::sync::Arc;

use sleds_pagecache::{Evicted, PageKey};
use sleds_sim_core::{index, retry, Errno, Pages, Sectors, SimError, SimResult};
use sleds_trace::{Mark, Wait};

use super::cost::Attempt;
use super::{DeviceId, Kernel, MountId, ONE_PAGE};
use crate::capture::fold_bytes;
use crate::inode::{Ino, Inode, PagePlace};
use crate::machine::FAULT_CPU;
use crate::payload::Payload;
use crate::syscall::Fd;

impl Kernel {
    /// Raw (uncached) device read, bypassing the file system — the kind of
    /// access lmbench's device probes perform. Charges the I/O time, outside
    /// any syscall, so it poisons an armed capture.
    pub fn raw_device_read(&mut self, dev: DeviceId, sector: u64, sectors: u64) -> SimResult<()> {
        self.rec_unsupported("raw_device_read");
        if dev.0 >= self.devices.len() {
            return Err(SimError::new(Errno::Einval, format!("no device {dev:?}")));
        }
        self.device_command(dev, Sectors::new(sector), Sectors::new(sectors), false)
    }

    /// Issues one device command: one [`Kernel::submit`] per number in
    /// [`retry::attempts`] — a finite range, so the retry is bounded by its
    /// type. `submit` has already charged an attempt failed by an injected
    /// fault (it held the bus). Transient errors ([`retry::retryable`]) are
    /// reissued after an exponentially growing, deterministically jittered
    /// backoff on the virtual clock — mirrored into
    /// `io_retries`/`retry_backoff` in rusage and `io.retry` trace marks —
    /// until the attempts run out (`EIO`) or [`retry::RETRY_TIMEOUT`]
    /// elapses (`ETIMEDOUT`). Non-retryable errors propagate unchanged, so
    /// fault-free runs behave exactly as if this layer did not exist.
    pub(super) fn device_command(
        &mut self,
        dev: DeviceId,
        sector: Sectors,
        sectors: Sectors,
        write: bool,
    ) -> SimResult<()> {
        let first_try = self.now();
        let mut failed: Option<SimError> = None;
        for attempt in retry::attempts() {
            if let Some(err) = failed.take() {
                // The previous submission failed transiently: abandon the
                // command on the timeout, else back off before this one.
                if self.now().duration_since(first_try) >= retry::RETRY_TIMEOUT {
                    let name = self.devices[dev.0].name();
                    let why = format!("{name}: retries timed out ({err})");
                    return Err(SimError::new(Errno::Etimedout, why));
                }
                let nth = attempt - 1;
                let backoff = retry::backoff_for(nth, &mut self.retry_rng);
                self.charge_io(backoff);
                let counts = &mut self.ledger.counts;
                counts.io_retries += 1;
                counts.retry_backoff = counts.retry_backoff.saturating_add(backoff);
                self.mark(Mark::IoRetry {
                    class: self.devices[dev.0].class().code(),
                    attempt: u64::from(nth),
                    backoff_ns: backoff.as_nanos(),
                });
            }
            failed = match self.submit(dev, sector, sectors, write, attempt, Wait::Serial) {
                Attempt::Served(_) => return Ok(()),
                Attempt::Refused(err) => return Err(err),
                Attempt::Faulted(err) if !retry::retryable(err.errno) => return Err(err),
                Attempt::Faulted(err) => Some(err),
            };
        }
        let name = self.devices[dev.0].name();
        let cause = failed.map(|err| format!(" ({err})")).unwrap_or_default();
        let why = format!(
            "{name}: gave up after {} attempts{cause}",
            retry::MAX_ATTEMPTS
        );
        Err(SimError::new(Errno::Eio, why))
    }

    fn charge_memcpy(&mut self, bytes: u64) {
        self.charge_cpu(self.cfg.mem_latency + self.cfg.mem_bandwidth.transfer_time(bytes));
    }

    /// The single fd-level read path `read` and `pread` (trapped or ring
    /// submitted) charge through: permission check, fault accounting via
    /// [`Kernel::do_read`], offset advance (sequential reads only) and
    /// `bytes_read`. `pos` is `None` for a sequential read at the file
    /// offset, `Some` for a positioned read that must not move it.
    pub(super) fn do_read_fd(
        &mut self,
        fd: Fd,
        pos: Option<u64>,
        len: usize,
    ) -> SimResult<Payload> {
        let of = self.openfile(fd)?;
        if !of.flags.read {
            let name = if pos.is_some() { "pread" } else { "read" };
            return Err(SimError::new(
                Errno::Ebadf,
                format!("{name} on write-only fd"),
            ));
        }
        let data = self.do_read(of.ino, pos.unwrap_or(of.pos), len)?;
        if pos.is_none() {
            self.openfile_mut(fd)?.pos += data.len() as u64;
        }
        self.ledger.counts.bytes_read += data.len() as u64;
        Ok(data)
    }

    // ------------------------------------------------------------------
    // The read path
    // ------------------------------------------------------------------

    fn do_read(&mut self, ino: Ino, pos: u64, len: usize) -> SimResult<Payload> {
        let size = self.file_of(ino)?.size();
        if pos >= size || len == 0 {
            return Ok(Payload::zeros(0));
        }
        // Saturation intended: a request past u64::MAX still just reads to
        // end-of-file.
        let end = size.min(pos.saturating_add(len as u64));
        self.fault_in(ino, Pages::containing(pos), Pages::containing(end - 1))?;

        // Copy out to the caller — in virtual time. Sparse installs have
        // no materialized contents past the stored bytes; holes read as
        // zeros. A read that finds no stored bytes — most reads: the
        // drivers' files are sparse — builds no buffer, and under capture
        // its digest comes from the recorder's zero-page table. One that
        // finds only stored bytes shares them: the payload is the file's
        // own buffer and a range of it, and a capture folds that range in
        // place. Only one that runs from stored bytes into the hole, or
        // into the write payloads the file keeps after its buffer, fills a
        // buffer, and a capture folds it once it is built.
        let bytes = end - pos;
        self.charge_memcpy(bytes);
        let folds = self
            .recorder
            .as_ref()
            .is_some_and(|rec| rec.folds_payload());
        let f = self.file_of(ino)?;
        let len = f.stored_len();
        let range = index(pos.min(len))..index(end.min(len));
        let hole = index(bytes) - range.len();
        let (out, fold) = if range.is_empty() {
            let rec = self.recorder.as_mut().filter(|_| folds);
            (Payload::zeros(hole), rec.map(|rec| rec.fold_zeros(bytes)))
        } else if let Some(buf) = f.shared().filter(|b| hole == 0 && range.end <= b.len()) {
            let fold = folds.then(|| fold_bytes(&buf[range.clone()]));
            (Payload::shared(Arc::clone(buf), range), fold)
        } else {
            let mut out = Vec::with_capacity(index(bytes));
            f.copy_stored(range, &mut out);
            out.resize(index(bytes), 0);
            let fold = folds.then(|| fold_bytes(&out));
            (Payload::from(out), fold)
        };
        if let (Some(fold), Some(rec)) = (fold, self.recorder.as_mut()) {
            rec.note_payload(bytes, fold);
        }
        Ok(out)
    }

    /// Ensures pages `[first, last]` of `ino` are resident, charging faults.
    fn fault_in(&mut self, ino: Ino, first_page: Pages, last_page: Pages) -> SimResult<()> {
        let mut p = first_page;
        while p <= last_page {
            let key = PageKey::new(ino.0, p.get());
            if self.cache.lookup(key) {
                self.ledger.counts.minor_faults += 1;
                let (page, ino) = (p.get(), ino.0);
                self.mark(Mark::CacheHit { page, ino });
                p += ONE_PAGE;
                continue;
            }
            // A missing run starts here. Stage the first page if it is
            // offline (this may remap part of the layout), then bound the
            // device command by three O(log runs) queries — demand window
            // end, next resident page, end of the maximal device-contiguous
            // layout run — instead of probing page by page.
            let run_start = p;
            let start_place = self.stage_if_offline(ino, p)?;
            let layout_end = self.layout_run_end(ino, p)?;
            let cache_end = Pages::new(self.cache.next_boundary(ino.0, p.get()));
            let run_end = (last_page + ONE_PAGE).min(layout_end).min(cache_end);
            let run_len = run_end - run_start;
            // Readahead: extend the device command past the demand window
            // while pages stay missing and device-contiguous. Prefetched
            // pages are inserted but are not major faults — touching them
            // later is a cache hit, as in a real kernel.
            let mut ra_len = Pages::ZERO;
            if self.cfg.readahead_pages > 0 && run_end > last_page {
                let file_pages = self.file_of(ino)?.page_count();
                let ra_cap = (run_end + Pages::new(self.cfg.readahead_pages))
                    .min(file_pages)
                    .min(layout_end)
                    .min(cache_end);
                ra_len = ra_cap - run_end;
            }
            // One clustered device command for the run (plus readahead),
            // routed and hedged across volume members when the file is
            // redundant.
            self.mark(Mark::CacheMiss {
                page: run_start.get(),
                pages: run_len.get(),
                ino: ino.0,
            });
            self.redundant_read(ino, start_place, run_start, run_len + ra_len)?;
            self.ledger.counts.major_faults += run_len.get();
            self.charge_cpu(FAULT_CPU * run_len.get());
            self.cache_insert_run(ino, run_start, run_len + ra_len, false)?;
            p = run_end;
        }
        Ok(())
    }

    pub(super) fn place_of(&self, ino: Ino, page: Pages) -> SimResult<PagePlace> {
        self.file_of(ino)?
            .pages
            .place_of(page)
            .ok_or_else(|| SimError::new(Errno::Eio, format!("page {page} beyond mapping")))
    }

    /// First page past `page` at which the file's layout stops being
    /// device-contiguous with `page` — the end of its maximal layout run.
    fn layout_run_end(&self, ino: Ino, page: Pages) -> SimResult<Pages> {
        self.file_of(ino)?
            .pages
            .contiguous_end(page)
            .ok_or_else(|| SimError::new(Errno::Eio, format!("page {page} beyond mapping")))
    }

    // ------------------------------------------------------------------
    // The write path
    // ------------------------------------------------------------------

    /// Writes `buf` at `pos`. `kept`, when the caller has one, holds the
    /// same bytes and may be kept: an append at the end of the stored
    /// bytes stores it by reference instead of copying `buf`.
    pub(super) fn do_write(
        &mut self,
        ino: Ino,
        pos: u64,
        buf: &[u8],
        kept: Option<&Arc<[u8]>>,
    ) -> SimResult<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let mount = self
            .inode(ino)?
            .mount
            .ok_or_else(|| SimError::new(Errno::Erofs, "write outside any mount"))?;
        if self.mounts[mount.0].read_only {
            return Err(SimError::new(Errno::Erofs, "write on read-only mount"));
        }
        let end = pos
            .checked_add(buf.len() as u64)
            .ok_or_else(|| SimError::new(Errno::Efbig, "write end offset overflows u64"))?;
        // Grow the mapping first, run by run (fragmentation decides the
        // allocation chunking; `append_run` merges contiguous chunks).
        let old_pages = self.file_of(ino)?.pages.page_count();
        let new_pages = Pages::spanning(end);
        if new_pages > old_pages {
            let added = new_pages - old_pages;
            // `layout_pages` respects fragmentation chunks and volume
            // striping alike; fold its runs onto the tail of the map
            // (`append_run` merges contiguous chunks).
            let added_map = self.layout_pages(mount, added)?;
            let f = self.file_of_mut(ino)?;
            for run in added_map.runs() {
                f.pages.append_run(run.dev, run.sector, run.pages);
            }
            // Grow every replica in lockstep so mirrored and coded files
            // stay fully covered on all members.
            let mut replicas = f.take_replicas();
            let grown = self.grow_replicas(mount, &mut replicas, added);
            self.file_of_mut(ino)?.set_replicas(replicas);
            grown?;
        }

        // Partial first/last pages that exist on stable storage need
        // read-modify-write if not cached.
        let first_page = Pages::containing(pos);
        let last_page = Pages::containing(end - 1);
        let old_size = self.file_of(ino)?.size();
        for page in [first_page, last_page] {
            let page_start = page.bytes();
            // Saturation intended: a ragged final page at the top of the
            // offset space still counts as not fully covered.
            let page_end = (page + ONE_PAGE).bytes();
            let covered = pos <= page_start && end >= page_end;
            let has_old_data = page_start < old_size;
            if !covered && has_old_data && !self.cache.contains(PageKey::new(ino.0, page.get())) {
                // Fault the page in for the partial overwrite.
                self.fault_in(ino, page, page)?;
            }
        }

        // Memory copy of the written bytes.
        self.charge_memcpy(buf.len() as u64);

        // Store contents and dirty the pages.
        {
            let now = self.now();
            self.inode_mut(ino)?.mtime = now;
            let f = self.file_of_mut(ino)?;
            match kept {
                Some(bytes) if pos == f.stored_len() => f.keep(Arc::clone(bytes)),
                _ => {
                    let data = f.stored_mut();
                    if data.len() < index(end) {
                        data.resize(index(end), 0);
                    }
                    data[index(pos)..index(end)].copy_from_slice(buf);
                }
            }
            if end > f.size() {
                f.set_size(end);
            }
        }
        self.cache_insert_run(ino, first_page, last_page - first_page + ONE_PAGE, true)
    }

    pub(super) fn allocate_sectors(&mut self, mount: MountId, pages: Pages) -> SimResult<Sectors> {
        let m = &mut self.mounts[mount.0];
        // Fragmentation: skip a random gap before each chunk.
        if let Some(frag) = &mut m.frag {
            let gap = Pages::new(frag.rng.range_u64(0, frag.gap_pages + 1));
            // Saturation intended: a saturated cursor fails the capacity
            // check below as "device full" instead of wrapping.
            m.next_sector += gap.sectors();
        }
        let (dev, first) = (m.dev, m.next_sector);
        self.mounts[mount.0].next_sector = self.allocation_end(dev, first, pages)?;
        Ok(first)
    }

    /// Where `pages` pages allocated at `first` on `dev` end: `ENOSPC` when
    /// they would run past the device's capacity.
    pub(super) fn allocation_end(
        &self,
        dev: DeviceId,
        first: Sectors,
        pages: Pages,
    ) -> SimResult<Sectors> {
        let cap = Sectors::new(self.devices[dev.0].capacity_sectors());
        first
            .checked_add(pages.sectors())
            .filter(|&end| end <= cap)
            .ok_or_else(|| {
                let name = self.devices[dev.0].name();
                SimError::new(Errno::Enospc, format!("device {name} full"))
            })
    }

    /// Brings pages `first .. first + pages` of `ino` into the cache, one
    /// [`PageCache::insert_run`] per stretch that ends in a dirty victim:
    /// every victim is traced, and a dirty one is written back — at the
    /// clock and cache state it left at — before the next page goes in.
    fn cache_insert_run(
        &mut self,
        ino: Ino,
        first: Pages,
        pages: Pages,
        dirty: bool,
    ) -> SimResult<()> {
        // A run of one — every read of a one-page file — has at most one
        // victim and needs no list to hold it.
        if pages == ONE_PAGE {
            return match self.cache.insert(PageKey::new(ino.0, first.get()), dirty) {
                Some(ev) => self.evicted(ev),
                None => Ok(()),
            };
        }
        let mut victims = Vec::new();
        let mut done = Pages::ZERO;
        while done < pages {
            let (at, left) = ((first + done).get(), (pages - done).get());
            done += Pages::new(self.cache.insert_run(ino.0, at, left, dirty, &mut victims));
            for ev in victims.drain(..) {
                // Only the last victim of a stretch can be dirty.
                self.evicted(ev)?;
            }
        }
        Ok(())
    }

    /// Traces one eviction and writes the page back if it was dirty.
    fn evicted(&mut self, ev: Evicted) -> SimResult<()> {
        let (page, dirty, ino) = (ev.key.index, ev.dirty, ev.key.inode);
        self.mark(Mark::CacheEvict { page, dirty, ino });
        if ev.dirty {
            self.writeback(ev.key)?;
        }
        Ok(())
    }

    pub(super) fn writeback(&mut self, key: PageKey) -> SimResult<()> {
        // The inode may already be gone (unlink with dirty pages).
        let Some(f) = self.inodes.get(key.inode).and_then(Inode::as_file) else {
            return Ok(());
        };
        let page = Pages::new(key.index);
        let Some(place) = f.pages.place_of(page) else {
            return Ok(());
        };
        // Only mirrored and coded files keep replica maps.
        let extras: Vec<PagePlace> = f
            .replicas()
            .iter()
            .filter_map(|map| map.place_of(page))
            .collect();
        let layout = self.volume_of(Ino(key.inode));
        let frag_sectors = layout.map_or(ONE_PAGE.sectors(), |l| l.fragment(ONE_PAGE.sectors()));
        let needed = layout.map_or(1, |l| l.quorum());
        let (page, ino) = (key.index, key.inode);
        self.mark(Mark::CacheWriteback { page, ino });
        if extras.is_empty() {
            return self.device_command(place.dev, place.sector, frag_sectors, true);
        }
        // Redundant volume: write every member's copy/fragment, but
        // tolerate member failures while enough copies land (one for a
        // mirror, k fragments for a (k, n) code) — degraded redundancy,
        // not an application-visible error.
        let mut ok = 0usize;
        let mut last_err: Option<SimError> = None;
        for p in std::iter::once(place).chain(extras) {
            match self.device_command(p.dev, p.sector, frag_sectors, true) {
                Ok(_) => ok += 1,
                Err(e) if matches!(e.errno, Errno::Eio | Errno::Etimedout) => {
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        if ok >= needed {
            return Ok(());
        }
        Err(last_err.unwrap_or_else(|| {
            SimError::new(
                Errno::Eio,
                "redundant writeback: no member accepted the page",
            )
        }))
    }
}
