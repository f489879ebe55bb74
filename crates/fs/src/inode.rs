//! Inodes: files and directories.
//!
//! File layout is kept run-length encoded: a [`PageMap`] stores maximal
//! `(start_page, pages, dev, sector)` runs instead of one `PagePlace` per
//! page, so layout queries cost O(log runs) and the SLED page walk can move
//! extent by extent instead of page by page. The map also carries a
//! generation counter, bumped on every layout or size change, which the
//! kernel combines with the page cache's per-inode residency generation to
//! version SLED vectors.
//!
//! A directory is a [`Dir`]: a `BTreeMap` keyed by each name's first eight
//! bytes as one big-endian integer, so a lookup walks the tree with integer
//! compares and touches the name's bytes only to confirm a hit.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use sleds_sim_core::{Pages, Sectors, SimTime};

use crate::kernel::{DeviceId, MountId};

pub use sleds_sim_core::SECTORS_PER_PAGE;

/// An inode number, unique across the whole kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Ino(pub u64);

/// What kind of object an inode is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    /// A regular file.
    File,
    /// A directory.
    Dir,
}

/// Where one page of a file lives on stable storage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PagePlace {
    /// The device holding the page.
    pub dev: DeviceId,
    /// First sector of the page on that device.
    pub sector: Sectors,
}

/// One run of a file's layout: `pages` consecutive file pages starting at
/// `start_page`, stored device-contiguously starting at `sector` on `dev`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LayoutRun {
    /// First file page of the run.
    pub start_page: Pages,
    /// Number of pages in the run.
    pub pages: Pages,
    /// The device holding the run.
    pub dev: DeviceId,
    /// First sector of `start_page` on that device.
    pub sector: Sectors,
}

impl LayoutRun {
    /// First file page past the run.
    pub fn end_page(&self) -> Pages {
        // Saturation intended: a run at the top of the page space still
        // compares correctly as "ends at the end".
        self.start_page + self.pages
    }

    /// Sector of `page` on the run's device. `page` must not precede the run.
    fn sector_of(&self, page: Pages) -> Sectors {
        self.sector + (page - self.start_page).sectors()
    }

    /// Where `page` lives. `page` must lie inside the run.
    pub fn place_of(&self, page: Pages) -> PagePlace {
        debug_assert!(self.start_page <= page && page < self.end_page());
        PagePlace {
            dev: self.dev,
            sector: self.sector_of(page),
        }
    }

    /// Extends this run by `next` when `next` continues it on the device,
    /// file page for file page; false, and no change, when it does not.
    fn absorb(&mut self, next: LayoutRun) -> bool {
        let continues = self.dev == next.dev
            && self.end_page() == next.start_page
            && self.sector + self.pages.sectors() == next.sector;
        if continues {
            self.pages += next.pages;
        }
        continues
    }
}

/// A file's stable-storage layout as sorted, maximal runs.
///
/// Invariants: runs are sorted by `start_page` and tile `[0, page_count)`
/// contiguously (files are always fully mapped); adjacent runs that are
/// device-contiguous are merged, so each run is maximal and the run count
/// equals the number of genuine layout discontinuities plus one. Most
/// files are one run, held inline: the map allocates only from its second
/// run on.
#[derive(Clone, Debug, Default)]
pub struct PageMap {
    runs: Runs,
    /// Bumped on every mutation (append, remap, clear) and by
    /// [`FileNode::set_size`] on size changes; never reset, so
    /// `(residency gen, layout gen)` pairs version SLED vectors without ABA.
    gen: u64,
}

/// The runs of a [`PageMap`], by how many there are.
#[derive(Clone, Debug, Default)]
enum Runs {
    /// Nothing mapped.
    #[default]
    None,
    /// One run, which starts at page 0.
    One(LayoutRun),
    /// Two or more runs.
    Many(Vec<LayoutRun>),
}

impl PageMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        PageMap::default()
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> Pages {
        self.runs().last().map_or(Pages::ZERO, LayoutRun::end_page)
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        matches!(self.runs, Runs::None)
    }

    /// The layout generation: changes whenever the mapping changes.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Bumps the generation without changing the mapping: the file *size*
    /// changed within the already-mapped pages (a ragged tail growing),
    /// which changes SLED lengths.
    fn bump_generation(&mut self) {
        self.gen += 1;
    }

    /// All runs, ascending by `start_page`.
    pub fn runs(&self) -> &[LayoutRun] {
        match &self.runs {
            Runs::None => &[],
            Runs::One(r) => std::slice::from_ref(r),
            Runs::Many(v) => v,
        }
    }

    /// The run containing `page`, if mapped.
    pub fn run_of(&self, page: Pages) -> Option<LayoutRun> {
        let runs = self.runs();
        // Runs tile [0, page_count), so the last run starting at or before
        // `page` contains it if anything does.
        let idx = runs.partition_point(|r| r.start_page <= page);
        runs[..idx].last().filter(|r| page < r.end_page()).copied()
    }

    /// Where `page` lives, if mapped. O(log runs).
    pub fn place_of(&self, page: Pages) -> Option<PagePlace> {
        self.run_of(page).map(|r| r.place_of(page))
    }

    /// First page past `page` at which the layout stops being
    /// device-contiguous with `page` — the end of its (maximal) run.
    pub fn contiguous_end(&self, page: Pages) -> Option<Pages> {
        self.run_of(page).map(|r| r.end_page())
    }

    /// The runs overlapping `first..=last`, clipped to it, ascending.
    pub fn runs_in(&self, first: Pages, last: Pages) -> impl Iterator<Item = LayoutRun> + '_ {
        let runs = self.runs();
        let start = runs.partition_point(|r| r.end_page() <= first);
        let end = last + Pages::new(1);
        runs[start..]
            .iter()
            .take_while(move |r| first <= last && r.start_page <= last)
            .map(move |r| {
                let s = r.start_page.max(first);
                LayoutRun {
                    start_page: s,
                    pages: r.end_page().min(end) - s,
                    dev: r.dev,
                    sector: r.sector_of(s),
                }
            })
    }

    fn push_coalescing(out: &mut Vec<LayoutRun>, r: LayoutRun) {
        if r.pages == Pages::ZERO {
            return;
        }
        if let Some(last) = out.last_mut() {
            if last.absorb(r) {
                return;
            }
        }
        out.push(r);
    }

    /// Appends `pages` pages at the end of the mapping, starting at
    /// `sector` on `dev`; merges with the final run when contiguous.
    pub fn append_run(&mut self, dev: DeviceId, sector: Sectors, pages: Pages) {
        if pages == Pages::ZERO {
            return;
        }
        let r = LayoutRun {
            start_page: self.page_count(),
            pages,
            dev,
            sector,
        };
        match &mut self.runs {
            Runs::None => self.runs = Runs::One(r),
            Runs::One(only) => {
                if !only.absorb(r) {
                    self.runs = Runs::Many(vec![*only, r]);
                }
            }
            Runs::Many(v) => Self::push_coalescing(v, r),
        }
        self.gen += 1;
    }

    /// Remaps pages `[start_page, start_page + pages)` — which must already
    /// be mapped — to a device-contiguous run starting at `sector` on `dev`.
    /// Used by HSM staging (tape run → disk copy) and migration.
    pub fn remap_run(&mut self, start_page: Pages, pages: Pages, dev: DeviceId, sector: Sectors) {
        if pages == Pages::ZERO {
            return;
        }
        let end = start_page + pages;
        assert!(end <= self.page_count(), "remap_run beyond mapping");
        let runs = self.runs();
        let mut out: Vec<LayoutRun> = Vec::with_capacity(runs.len() + 2);
        let new_run = LayoutRun {
            start_page,
            pages,
            dev,
            sector,
        };
        let mut inserted = false;
        for &r in runs {
            if r.end_page() <= start_page {
                Self::push_coalescing(&mut out, r);
                continue;
            }
            if r.start_page >= end {
                if !inserted {
                    Self::push_coalescing(&mut out, new_run);
                    inserted = true;
                }
                Self::push_coalescing(&mut out, r);
                continue;
            }
            // Overlap: keep the head before the remapped range...
            if r.start_page < start_page {
                Self::push_coalescing(
                    &mut out,
                    LayoutRun {
                        start_page: r.start_page,
                        pages: start_page - r.start_page,
                        dev: r.dev,
                        sector: r.sector,
                    },
                );
            }
            if !inserted {
                Self::push_coalescing(&mut out, new_run);
                inserted = true;
            }
            // ...and the tail after it.
            if r.end_page() > end {
                Self::push_coalescing(
                    &mut out,
                    LayoutRun {
                        start_page: end,
                        pages: r.end_page() - end,
                        dev: r.dev,
                        sector: r.sector_of(end),
                    },
                );
            }
        }
        if !inserted {
            Self::push_coalescing(&mut out, new_run);
        }
        self.runs = match *out {
            [only] => Runs::One(only),
            _ => Runs::Many(out),
        };
        self.gen += 1;
    }

    /// Unmaps everything (truncate). The generation keeps counting.
    pub fn clear(&mut self) {
        self.runs = Runs::None;
        self.gen += 1;
    }
}

/// A regular file's metadata and contents.
#[derive(Clone, Debug, Default)]
pub struct FileNode {
    /// Logical size in bytes. Private: [`FileNode::set_size`] is the only
    /// writer, so a size change cannot skip the layout generation.
    size: u64,
    /// The stored contents' buffer: the simulator holds real bytes so
    /// applications compute real answers (devices only model cost). The
    /// write payloads kept after it ([`OtherHomes::tail`]) are stored
    /// bytes too; bytes past the end of both, up to `size`, are a hole and
    /// read as zeros. A file with none stored holds `None` and allocates
    /// nothing. Shared: a read that finds only buffer bytes hands out a
    /// clone of the `Arc` and a range ([`crate::Payload`]), files
    /// installed with equal bytes hold one buffer
    /// ([`crate::Kernel::install_file`]), and every writer but a kept
    /// append goes through [`FileNode::stored_mut`], which copies the
    /// bytes first while any other payload or file still holds them — so
    /// a payload keeps the bytes it was given, and a write to one file
    /// leaves the others alone.
    data: Option<Arc<Vec<u8>>>,
    /// Stable-storage layout, run-length encoded. Covers at least
    /// [`FileNode::page_count`] pages.
    pub pages: PageMap,
    /// The layouts besides `pages`, which only files on mirrored or coded
    /// volumes have, and the write payloads kept after `data`, which only
    /// files appended to with a payload the kernel may keep have: `None`
    /// for every other file, so it pays one pointer.
    other_homes: Option<Box<OtherHomes>>,
}

/// What a file has besides its buffer and its primary layout.
#[derive(Clone, Debug, Default)]
struct OtherHomes {
    /// For files on redundant volumes: one full replica layout per
    /// non-primary member device (mirrored and coded layouts). Each map
    /// covers the same page range as `pages`, placed on its own device.
    /// Empty for unreplicated and striped files.
    replicas: Vec<PageMap>,
    /// Stored bytes after `data`, in order: payloads appended at the end of
    /// the stored bytes ([`FileNode::keep`]), held by reference instead of
    /// copied into the buffer. Folded into the buffer, one copy, before
    /// any other change to the bytes ([`FileNode::stored_mut`]).
    tail: Vec<Arc<[u8]>>,
    /// Total length of `tail`.
    tail_len: usize,
}

impl FileNode {
    /// Logical size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Sets the logical size. A change versions the layout — SLED lengths
    /// follow the size even when no page is mapped or unmapped — so every
    /// SLED vector memoized under the old size goes stale with it.
    pub fn set_size(&mut self, size: u64) {
        if size != self.size {
            self.size = size;
            self.pages.bump_generation();
        }
    }

    /// Number of bytes stored; short of `size` by the hole at the end.
    pub(crate) fn stored_len(&self) -> u64 {
        let buffer = self.data.as_ref().map_or(0, |d| d.len());
        (buffer + self.other_homes.as_ref().map_or(0, |o| o.tail_len)) as u64
    }

    /// The shared buffer the stored bytes start with, if it holds any.
    pub(crate) fn shared(&self) -> Option<&Arc<Vec<u8>>> {
        self.data.as_ref()
    }

    /// Appends the stored bytes `range` to `out`: the buffer's, then the
    /// kept payloads'. `range` must lie within [`FileNode::stored_len`].
    pub(crate) fn copy_stored(&self, range: Range<usize>, out: &mut Vec<u8>) {
        let buffer = self.data.as_deref().map_or(&[][..], Vec::as_slice);
        let mut at = 0;
        for piece in std::iter::once(buffer).chain(self.kept().iter().map(|p| &p[..])) {
            let (lo, hi) = (range.start.max(at), range.end.min(at + piece.len()));
            if lo < hi {
                out.extend_from_slice(&piece[lo - at..hi - at]);
            }
            at += piece.len();
            if at >= range.end {
                break;
            }
        }
    }

    /// The write payloads stored after the buffer by reference, in order.
    pub(crate) fn kept(&self) -> &[Arc<[u8]>] {
        self.other_homes.as_ref().map_or(&[], |o| &o.tail)
    }

    /// Stores `bytes` after the stored bytes by reference: no copy. The
    /// caller has checked that they were written at [`FileNode::stored_len`].
    pub(crate) fn keep(&mut self, bytes: Arc<[u8]>) {
        let o = self.other_homes.get_or_insert_with(Box::default);
        o.tail_len += bytes.len();
        o.tail.push(bytes);
    }

    /// The stored bytes, to change: the one way to write them but a kept
    /// append. Folds the kept payloads into the buffer first, and copies
    /// the buffer first if a payload read earlier, or another file
    /// installed with the same bytes, still shares it.
    pub(crate) fn stored_mut(&mut self) -> &mut Vec<u8> {
        let data = Arc::make_mut(self.data.get_or_insert_with(Arc::default));
        if let Some(o) = self.other_homes.as_deref_mut() {
            data.reserve(o.tail_len);
            for piece in std::mem::take(&mut o.tail) {
                data.extend_from_slice(&piece);
            }
            o.tail_len = 0;
        }
        data
    }

    /// Stores `bytes`, which other files may share.
    pub(crate) fn set_stored(&mut self, bytes: Arc<Vec<u8>>) {
        self.data = Some(bytes);
    }

    /// Empties the file (`O_TRUNC`): no bytes, no kept payloads, no pages,
    /// no replica maps. Unmapping the pages versions the layout once, which
    /// covers the size change too. A payload read earlier keeps the bytes.
    pub(crate) fn truncate(&mut self) {
        self.size = 0;
        self.data = None;
        self.pages.clear();
        self.other_homes = None;
    }

    /// One replica layout per non-primary member of the file's mirrored
    /// or coded volume, in member order; empty for every other file.
    pub fn replicas(&self) -> &[PageMap] {
        self.other_homes.as_ref().map_or(&[], |o| &o.replicas)
    }

    /// Takes the replica maps out, to grow them while the file is not
    /// borrowed; [`FileNode::set_replicas`] puts them back.
    pub(crate) fn take_replicas(&mut self) -> Vec<PageMap> {
        self.other_homes
            .as_mut()
            .map(|o| std::mem::take(&mut o.replicas))
            .unwrap_or_default()
    }

    /// Sets the replica maps. An empty set on a file with no other layout
    /// allocates nothing.
    pub(crate) fn set_replicas(&mut self, replicas: Vec<PageMap>) {
        if !replicas.is_empty() || self.other_homes.is_some() {
            self.other_homes.get_or_insert_with(Box::default).replicas = replicas;
        }
    }

    /// Number of pages the file spans.
    pub fn page_count(&self) -> Pages {
        Pages::spanning(self.size)
    }
}

/// One directory entry: a name and the inode it links to.
type DirEntry = (Box<str>, Ino);

/// The entries of a [`Dir`] whose names share one key.
#[derive(Clone, Debug)]
enum Slot {
    /// The only name with this key, when the key holds all of it (see
    /// [`Dir::fits`]): its bytes are the key's, kept here so iteration can
    /// lend them, and no string is allocated.
    Short { name: [u8; 8], ino: Ino },
    /// One longer name, or two or more names with this key (they share
    /// their first eight bytes, or differ only in trailing NULs within
    /// them), sorted by name. Boxed as a slice so a slot stays as narrow
    /// as `Short`: 125,000 names cost no more memory than string-keyed
    /// entries would.
    Heap(Box<[DirEntry]>),
}

impl Slot {
    /// The slot holding only `name`, whose key is `key`.
    fn new(key: u64, name: &str, ino: Ino) -> Slot {
        if Dir::fits(name) {
            Slot::Short {
                name: key.to_be_bytes(),
                ino,
            }
        } else {
            Slot::Heap(Box::new([(name.into(), ino)]))
        }
    }

    /// The slot holding `entries`: sorted, non-empty, one key.
    fn of(entries: Vec<DirEntry>) -> Slot {
        match &*entries {
            [(name, ino)] => Slot::new(Dir::key(name), name, *ino),
            _ => Slot::Heap(entries.into_boxed_slice()),
        }
    }

    /// The slot's entries with owned names, sorted: what an insert or a
    /// remove that meets a second name edits.
    fn into_entries(self) -> Vec<DirEntry> {
        match self {
            Slot::Short { name, ino } => vec![(short_name(&name).into(), ino)],
            Slot::Heap(v) => v.into_vec(),
        }
    }

    /// The slot's `(name, inode)`s, sorted.
    fn iter(&self) -> impl Iterator<Item = (&str, Ino)> + '_ {
        let (short, heap) = match self {
            Slot::Short { name, ino } => (Some((short_name(name), *ino)), &[][..]),
            Slot::Heap(v) => (None, &v[..]),
        };
        short
            .into_iter()
            .chain(heap.iter().map(|(n, ino)| (&**n, *ino)))
    }
}

/// The name a [`Slot::Short`] holds: its bytes up to the trailing NULs.
fn short_name(bytes: &[u8; 8]) -> &str {
    let len = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    // The bytes of a `&str` cut at its end, so never an error.
    std::str::from_utf8(&bytes[..len]).unwrap_or_default()
}

/// The index of `name` among sorted `entries`, or where it would go.
fn find(entries: &[DirEntry], name: &str) -> Result<usize, usize> {
    entries.binary_search_by(|(n, _)| (**n).cmp(name))
}

/// A directory: names to inodes, iterated in byte order of the names.
///
/// The map is keyed by a name's first eight bytes read big-endian and
/// zero-padded. A smaller key always means a smaller name, so walking the
/// keys in order and each slot's sorted names in order visits every name
/// in byte order: `readdir`'s contract, with no hashing. A lookup descends
/// the tree with integer compares; on a hit it compares lengths and, for a
/// name longer than eight bytes, the bytes past the key. A name of up to
/// eight bytes alone under its key is stored in the slot, allocating
/// nothing. Names that share a key share a slot, sorted, so a directory
/// whose names mostly share their first eight bytes pays a binary search
/// per lookup and a copy of that slot per insert or remove.
#[derive(Clone, Debug, Default)]
pub struct Dir {
    slots: BTreeMap<u64, Slot>,
    len: usize,
}

impl Dir {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Dir::default()
    }

    /// A name's first eight bytes, big-endian, zero-padded: keys order as
    /// the names' bytes do, and equal keys mean names equal up to trailing
    /// NULs within those eight bytes.
    fn key(name: &str) -> u64 {
        let mut key = 0;
        for (i, &b) in name.as_bytes().iter().take(8).enumerate() {
            key |= u64::from(b) << (56 - 8 * i);
        }
        key
    }

    /// True when `name`'s key holds all of it: at most eight bytes, no
    /// trailing NUL. Two such names are equal exactly when their keys are.
    fn fits(name: &str) -> bool {
        name.len() <= 8 && !name.ends_with('\0')
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The inode `name` links to, if any.
    pub fn get(&self, name: &str) -> Option<Ino> {
        match self.slots.get(&Self::key(name))? {
            Slot::Short { ino, .. } => Self::fits(name).then_some(*ino),
            Slot::Heap(v) => Some(v[find(v, name).ok()?].1),
        }
    }

    /// Links `name` to `ino`, returning the inode it linked to before.
    pub fn insert(&mut self, name: &str, ino: Ino) -> Option<Ino> {
        let key = Self::key(name);
        let slot = match self.slots.entry(key) {
            Entry::Vacant(v) => {
                v.insert(Slot::new(key, name, ino));
                self.len += 1;
                return None;
            }
            Entry::Occupied(o) => o.into_mut(),
        };
        match slot {
            Slot::Short { ino: old, .. } if Self::fits(name) => {
                return Some(std::mem::replace(old, ino))
            }
            Slot::Heap(v) => {
                if let Ok(i) = find(v, name) {
                    return Some(std::mem::replace(&mut v[i].1, ino));
                }
            }
            Slot::Short { .. } => {}
        }
        let mut entries = std::mem::replace(slot, Slot::Heap(Box::default())).into_entries();
        let (Ok(i) | Err(i)) = find(&entries, name);
        entries.insert(i, (name.into(), ino));
        *slot = Slot::of(entries);
        self.len += 1;
        None
    }

    /// Unlinks `name`, returning the inode it linked to.
    pub fn remove(&mut self, name: &str) -> Option<Ino> {
        let key = Self::key(name);
        let slot = self.slots.get_mut(&key)?;
        let ino = match slot {
            Slot::Short { ino, .. } => {
                let ino = Self::fits(name).then_some(*ino)?;
                self.slots.remove(&key);
                ino
            }
            Slot::Heap(v) => {
                let i = find(v, name).ok()?;
                let mut rest = std::mem::take(v).into_vec();
                let (_, ino) = rest.remove(i);
                if rest.is_empty() {
                    self.slots.remove(&key);
                } else {
                    *slot = Slot::of(rest);
                }
                ino
            }
        };
        self.len -= 1;
        Some(ino)
    }

    /// Every `(name, inode)`, in byte order of the names.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Ino)> + '_ {
        self.slots.values().flat_map(Slot::iter)
    }
}

/// The body of an inode.
#[derive(Clone, Debug)]
pub enum InodeBody {
    /// A regular file.
    File(FileNode),
    /// A directory: name -> child inode.
    Dir(Dir),
}

/// An inode.
#[derive(Clone, Debug)]
pub struct Inode {
    /// This inode's number.
    pub ino: Ino,
    /// The mount the inode belongs to, if any. The root directory tree
    /// outside any mount has `None`; files can only exist inside a mount.
    pub mount: Option<MountId>,
    /// File or directory payload.
    pub body: InodeBody,
    /// Last modification time.
    pub mtime: SimTime,
}

impl Inode {
    /// What kind of object this is.
    pub fn kind(&self) -> FileKind {
        match self.body {
            InodeBody::File(_) => FileKind::File,
            InodeBody::Dir(_) => FileKind::Dir,
        }
    }

    /// The file payload, if this is a file.
    pub fn as_file(&self) -> Option<&FileNode> {
        match &self.body {
            InodeBody::File(f) => Some(f),
            InodeBody::Dir(_) => None,
        }
    }

    /// Mutable file payload, if this is a file.
    pub fn as_file_mut(&mut self) -> Option<&mut FileNode> {
        match &mut self.body {
            InodeBody::File(f) => Some(f),
            InodeBody::Dir(_) => None,
        }
    }

    /// The directory payload, if this is a directory.
    pub fn as_dir(&self) -> Option<&Dir> {
        match &self.body {
            InodeBody::Dir(d) => Some(d),
            InodeBody::File(_) => None,
        }
    }

    /// Mutable directory payload, if this is a directory.
    pub fn as_dir_mut(&mut self) -> Option<&mut Dir> {
        match &mut self.body {
            InodeBody::Dir(d) => Some(d),
            InodeBody::File(_) => None,
        }
    }
}

/// The result of `stat(2)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: Ino,
    /// Object kind.
    pub kind: FileKind,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Owning mount, if any.
    pub mount: Option<MountId>,
    /// Device the data lives on, if any.
    pub dev: Option<DeviceId>,
    /// Last modification time.
    pub mtime: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleds_sim_core::PAGE_SIZE;

    fn pg(n: u64) -> Pages {
        Pages::new(n)
    }

    fn sec(n: u64) -> Sectors {
        Sectors::new(n)
    }

    #[test]
    fn file_page_count_rounds_up() {
        let mut f = FileNode::default();
        assert_eq!(f.page_count(), pg(0));
        f.set_size(1);
        assert_eq!(f.page_count(), pg(1));
        f.set_size(PAGE_SIZE);
        assert_eq!(f.page_count(), pg(1));
        f.set_size(PAGE_SIZE + 1);
        assert_eq!(f.page_count(), pg(2));
    }

    #[test]
    fn a_size_change_versions_the_layout_and_a_no_op_does_not() {
        let mut f = FileNode::default();
        f.pages.append_run(DeviceId(0), sec(0), pg(2));
        let g0 = f.pages.generation();
        f.set_size(PAGE_SIZE + 7);
        let g1 = f.pages.generation();
        assert!(g1 > g0, "growing the ragged tail versions the layout");
        f.set_size(PAGE_SIZE + 7);
        assert_eq!(f.pages.generation(), g1, "same size, same version");
        f.set_size(7);
        let g2 = f.pages.generation();
        assert!(g2 > g1, "so does shrinking it");
        f.truncate();
        assert_eq!(f.pages.generation(), g2 + 1, "truncation versions once");
        assert_eq!((f.size(), f.pages.page_count()), (0, pg(0)));
    }

    #[test]
    fn inode_accessors_match_kind() {
        let f = Inode {
            ino: Ino(1),
            mount: None,
            body: InodeBody::File(FileNode::default()),
            mtime: SimTime::ZERO,
        };
        assert_eq!(f.kind(), FileKind::File);
        assert!(f.as_file().is_some());
        assert!(f.as_dir().is_none());

        let d = Inode {
            ino: Ino(2),
            mount: None,
            body: InodeBody::Dir(Dir::new()),
            mtime: SimTime::ZERO,
        };
        assert_eq!(d.kind(), FileKind::Dir);
        assert!(d.as_dir().is_some());
        assert!(d.as_file().is_none());
    }

    #[test]
    fn a_file_costs_what_it_uses() {
        // `tree_walk` installs 125,000 one-page files: each is one inode
        // slot, one inline run and no other layout.
        use std::mem::size_of;
        assert_eq!(size_of::<PageMap>(), 48);
        assert_eq!(size_of::<FileNode>(), 72);
        assert_eq!(size_of::<Inode>(), 104);
        let mut f = FileNode::default();
        f.pages.append_run(DeviceId(0), sec(0), pg(1));
        f.pages
            .append_run(DeviceId(0), sec(SECTORS_PER_PAGE), pg(1));
        assert!(matches!(f.pages.runs, Runs::One(_)), "{:?}", f.pages);
        f.set_replicas(Vec::new());
        assert!(f.other_homes.is_none(), "no other layout, no box");
        assert!(f.replicas().is_empty());
    }

    #[test]
    fn a_map_goes_back_inline_when_a_remap_heals_it() {
        let mut m = PageMap::new();
        assert!(matches!(m.runs, Runs::None));
        m.append_run(D0, sec(0), pg(4));
        m.remap_run(pg(1), pg(2), D1, sec(0));
        assert!(matches!(m.runs, Runs::Many(_)));
        m.remap_run(pg(1), pg(2), D0, sec(SECTORS_PER_PAGE));
        assert!(matches!(m.runs, Runs::One(_)), "{m:?}");
        m.clear();
        assert!(matches!(m.runs, Runs::None));
    }

    #[test]
    fn short_names_are_held_in_their_slot() {
        let mut d = Dir::new();
        for name in ["", "f001", "abcdefgh", "a\0b"] {
            d.insert(name, Ino(1));
            assert!(
                matches!(d.slots[&Dir::key(name)], Slot::Short { .. }),
                "{name:?}"
            );
        }
        for name in ["abcdefghi", "x\0"] {
            d.insert(name, Ino(1));
            assert!(
                matches!(d.slots[&Dir::key(name)], Slot::Heap(_)),
                "{name:?}"
            );
        }
        // A second name under a short name's key moves both to the heap,
        // and removing it brings the short one back inline.
        d.insert("f001\0", Ino(2));
        assert!(matches!(d.slots[&Dir::key("f001")], Slot::Heap(_)));
        d.remove("f001\0");
        assert!(matches!(d.slots[&Dir::key("f001")], Slot::Short { .. }));
        assert_eq!(d.get("f001"), Some(Ino(1)));
    }

    #[test]
    fn a_dir_slot_is_no_wider_than_a_string_keyed_entry() {
        // Peak RSS at the `tree_walk` scale rides on this: 125,000 slots.
        assert_eq!(
            std::mem::size_of::<(u64, Slot)>(),
            std::mem::size_of::<(String, Ino)>()
        );
    }

    const D0: DeviceId = DeviceId(0);
    const D1: DeviceId = DeviceId(1);

    #[test]
    fn append_run_merges_contiguous_allocations() {
        let mut m = PageMap::new();
        m.append_run(D0, sec(2048), pg(4));
        m.append_run(D0, sec(2048 + 4 * SECTORS_PER_PAGE), pg(4));
        assert_eq!(m.runs().len(), 1, "contiguous appends must merge");
        assert_eq!(m.page_count(), pg(8));
        // A gap breaks the run.
        m.append_run(D0, sec(9000), pg(2));
        assert_eq!(m.runs().len(), 2);
        assert_eq!(m.page_count(), pg(10));
        // A different device always breaks the run.
        m.append_run(D1, sec(9000 + 2 * SECTORS_PER_PAGE), pg(1));
        assert_eq!(m.runs().len(), 3);
    }

    #[test]
    fn place_of_matches_per_page_expansion() {
        let mut m = PageMap::new();
        m.append_run(D0, sec(2048), pg(4));
        m.append_run(D0, sec(9000), pg(3));
        for (page, want) in [
            (0u64, (D0, 2048)),
            (3, (D0, 2048 + 3 * SECTORS_PER_PAGE)),
            (4, (D0, 9000)),
            (6, (D0, 9000 + 2 * SECTORS_PER_PAGE)),
        ] {
            let p = m.place_of(pg(page)).unwrap();
            assert_eq!((p.dev, p.sector.get()), want, "page {page}");
        }
        assert!(m.place_of(pg(7)).is_none(), "beyond the mapping");
    }

    #[test]
    fn contiguous_end_is_run_end() {
        let mut m = PageMap::new();
        m.append_run(D0, sec(2048), pg(4));
        m.append_run(D0, sec(9000), pg(3));
        assert_eq!(m.contiguous_end(pg(0)), Some(pg(4)));
        assert_eq!(m.contiguous_end(pg(3)), Some(pg(4)));
        assert_eq!(m.contiguous_end(pg(4)), Some(pg(7)));
        assert_eq!(m.contiguous_end(pg(7)), None);
    }

    #[test]
    fn runs_in_clips() {
        let mut m = PageMap::new();
        m.append_run(D0, sec(2048), pg(4)); // pages 0..4
        m.append_run(D0, sec(9000), pg(4)); // pages 4..8
        let clipped: Vec<LayoutRun> = m.runs_in(pg(2), pg(5)).collect();
        assert_eq!(clipped.len(), 2);
        assert_eq!(clipped[0].start_page, pg(2));
        assert_eq!(clipped[0].pages, pg(2));
        assert_eq!(clipped[0].sector, sec(2048 + 2 * SECTORS_PER_PAGE));
        assert_eq!(clipped[1].start_page, pg(4));
        assert_eq!(clipped[1].pages, pg(2));
        assert_eq!(clipped[1].sector, sec(9000));
        assert_eq!(m.runs_in(pg(8), pg(20)).count(), 0);
        assert_eq!(m.runs_in(pg(5), pg(2)).count(), 0);
    }

    #[test]
    fn remap_run_splits_and_coalesces() {
        let mut m = PageMap::new();
        m.append_run(D0, sec(2048), pg(8)); // pages 0..8 on disk
        let g0 = m.generation();
        // Stage pages 2..5 somewhere else.
        m.remap_run(pg(2), pg(3), D1, sec(100));
        assert!(m.generation() > g0);
        assert_eq!(m.page_count(), pg(8));
        assert_eq!(m.runs().len(), 3);
        assert_eq!(
            m.place_of(pg(1)).unwrap().sector,
            sec(2048 + SECTORS_PER_PAGE)
        );
        assert_eq!(
            m.place_of(pg(2)).unwrap(),
            PagePlace {
                dev: D1,
                sector: sec(100)
            }
        );
        assert_eq!(
            m.place_of(pg(4)).unwrap(),
            PagePlace {
                dev: D1,
                sector: sec(100 + 2 * SECTORS_PER_PAGE)
            }
        );
        assert_eq!(
            m.place_of(pg(5)).unwrap(),
            PagePlace {
                dev: D0,
                sector: sec(2048 + 5 * SECTORS_PER_PAGE)
            }
        );
        // Remapping back to the original location re-coalesces to one run.
        m.remap_run(pg(2), pg(3), D0, sec(2048 + 2 * SECTORS_PER_PAGE));
        assert_eq!(m.runs().len(), 1);
    }

    #[test]
    fn remap_whole_mapping_replaces_it() {
        let mut m = PageMap::new();
        m.append_run(D0, sec(2048), pg(4));
        m.append_run(D0, sec(9000), pg(4));
        m.remap_run(pg(0), pg(8), D1, sec(0));
        assert_eq!(m.runs().len(), 1);
        assert_eq!(m.place_of(pg(7)).unwrap().dev, D1);
    }

    #[test]
    fn clear_keeps_generation_counting() {
        let mut m = PageMap::new();
        m.append_run(D0, sec(2048), pg(4));
        let g = m.generation();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.page_count(), pg(0));
        assert!(m.generation() > g, "clear must advance the generation");
        m.append_run(D0, sec(4096), pg(1));
        assert_eq!(m.place_of(pg(0)).unwrap().sector, sec(4096));
    }
}
