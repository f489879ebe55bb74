//! Inodes: files and directories.
//!
//! File layout is kept run-length encoded: a [`PageMap`] stores maximal
//! `(start_page, pages, dev, sector)` runs instead of one `PagePlace` per
//! page, so layout queries cost O(log runs) and the SLED page walk can move
//! extent by extent instead of page by page. The map also carries a
//! generation counter, bumped on every layout or size change, which the
//! kernel combines with the page cache's per-inode residency generation to
//! version SLED vectors.

use std::collections::BTreeMap;
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
}

/// A file's stable-storage layout as sorted, maximal runs.
///
/// Invariants: runs are sorted by `start_page` and tile `[0, page_count)`
/// contiguously (files are always fully mapped); adjacent runs that are
/// device-contiguous are merged, so each run is maximal and the run count
/// equals the number of genuine layout discontinuities plus one.
#[derive(Clone, Debug, Default)]
pub struct PageMap {
    runs: Vec<LayoutRun>,
    pages: Pages,
    /// Bumped on every mutation (append, remap, clear) and by
    /// [`FileNode::set_size`] on size changes; never reset, so
    /// `(residency gen, layout gen)` pairs version SLED vectors without ABA.
    gen: u64,
}

impl PageMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        PageMap::default()
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> Pages {
        self.pages
    }

    /// True when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.pages == Pages::ZERO
    }

    /// Number of layout runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
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
        &self.runs
    }

    fn run_index_of(&self, page: Pages) -> Option<usize> {
        if page >= self.pages {
            return None;
        }
        // Runs tile [0, pages), so the last run starting at or before `page`
        // contains it.
        let idx = self.runs.partition_point(|r| r.start_page <= page);
        debug_assert!(idx > 0);
        Some(idx - 1)
    }

    /// The run containing `page`, if mapped.
    pub fn run_of(&self, page: Pages) -> Option<LayoutRun> {
        self.run_index_of(page).map(|i| self.runs[i])
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
    pub fn runs_in(&self, first: Pages, last: Pages) -> Vec<LayoutRun> {
        if first > last {
            return Vec::new();
        }
        let start = self.runs.partition_point(|r| r.end_page() <= first);
        let mut out = Vec::new();
        for r in &self.runs[start..] {
            if r.start_page > last {
                break;
            }
            let s = r.start_page.max(first);
            let e = r.end_page().min(last + Pages::new(1));
            out.push(LayoutRun {
                start_page: s,
                pages: e - s,
                dev: r.dev,
                sector: r.sector_of(s),
            });
        }
        out
    }

    fn push_coalescing(out: &mut Vec<LayoutRun>, r: LayoutRun) {
        if r.pages == Pages::ZERO {
            return;
        }
        if let Some(last) = out.last_mut() {
            if last.dev == r.dev
                && last.end_page() == r.start_page
                && last.sector + last.pages.sectors() == r.sector
            {
                last.pages += r.pages;
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
            start_page: self.pages,
            pages,
            dev,
            sector,
        };
        Self::push_coalescing(&mut self.runs, r);
        self.pages += pages;
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
        assert!(end <= self.pages, "remap_run beyond mapping");
        let mut out: Vec<LayoutRun> = Vec::with_capacity(self.runs.len() + 2);
        let new_run = LayoutRun {
            start_page,
            pages,
            dev,
            sector,
        };
        let mut inserted = false;
        for &r in &self.runs {
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
        self.runs = out;
        self.gen += 1;
    }

    /// Unmaps everything (truncate). The generation keeps counting.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.pages = Pages::ZERO;
        self.gen += 1;
    }
}

/// A regular file's metadata and contents.
#[derive(Clone, Debug, Default)]
pub struct FileNode {
    /// Logical size in bytes. Private: [`FileNode::set_size`] is the only
    /// writer, so a size change cannot skip the layout generation.
    size: u64,
    /// The stored contents: the simulator holds real bytes so applications
    /// compute real answers (devices only model cost). Bytes past their
    /// end, up to `size`, are a hole and read as zeros; a file with none
    /// stored holds `None` and allocates nothing. Shared: a read that
    /// finds only stored bytes hands out a clone of the `Arc` and a range
    /// ([`crate::Payload`]), and every writer goes through
    /// [`FileNode::stored_mut`], which copies the bytes first while any
    /// such payload is still alive — so a payload keeps the bytes it was
    /// given.
    data: Option<Arc<Vec<u8>>>,
    /// Stable-storage layout, run-length encoded. Covers at least
    /// [`FileNode::page_count`] pages.
    pub pages: PageMap,
    /// For HSM files: the tape-home layout, kept while pages are staged on
    /// disk so the staged copy can be discarded without copying back.
    pub tape_home: Option<PageMap>,
    /// For files on redundant volumes: one full replica layout per
    /// non-primary member device (mirrored and coded layouts). Each map
    /// covers the same page range as `pages`, placed on its own device.
    /// Empty for unreplicated and striped files.
    pub replicas: Vec<PageMap>,
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

    /// The stored bytes; shorter than `size` by the hole at the end.
    pub fn stored(&self) -> &[u8] {
        self.data.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The shared buffer behind [`FileNode::stored`], if any byte is stored.
    pub(crate) fn shared(&self) -> Option<&Arc<Vec<u8>>> {
        self.data.as_ref()
    }

    /// The stored bytes, to change: the one way to write them. Copies
    /// them first if a payload read earlier still shares them.
    pub(crate) fn stored_mut(&mut self) -> &mut Vec<u8> {
        Arc::make_mut(self.data.get_or_insert_with(Arc::default))
    }

    /// Empties the file (`O_TRUNC`): no bytes, no pages, no tape home, no
    /// replica maps. Unmapping the pages versions the layout once, which
    /// covers the size change too. A payload read earlier keeps the bytes.
    pub(crate) fn truncate(&mut self) {
        self.size = 0;
        self.data = None;
        self.pages.clear();
        self.tape_home = None;
        self.replicas.clear();
    }

    /// Number of pages the file spans.
    pub fn page_count(&self) -> Pages {
        Pages::spanning(self.size)
    }
}

/// The body of an inode.
#[derive(Clone, Debug)]
pub enum InodeBody {
    /// A regular file.
    File(FileNode),
    /// A directory: name -> child inode.
    Dir(BTreeMap<String, Ino>),
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
    pub fn as_dir(&self) -> Option<&BTreeMap<String, Ino>> {
        match &self.body {
            InodeBody::Dir(d) => Some(d),
            InodeBody::File(_) => None,
        }
    }

    /// Mutable directory payload, if this is a directory.
    pub fn as_dir_mut(&mut self) -> Option<&mut BTreeMap<String, Ino>> {
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
            body: InodeBody::Dir(BTreeMap::new()),
            mtime: SimTime::ZERO,
        };
        assert_eq!(d.kind(), FileKind::Dir);
        assert!(d.as_dir().is_some());
        assert!(d.as_file().is_none());
    }

    const D0: DeviceId = DeviceId(0);
    const D1: DeviceId = DeviceId(1);

    #[test]
    fn append_run_merges_contiguous_allocations() {
        let mut m = PageMap::new();
        m.append_run(D0, sec(2048), pg(4));
        m.append_run(D0, sec(2048 + 4 * SECTORS_PER_PAGE), pg(4));
        assert_eq!(m.run_count(), 1, "contiguous appends must merge");
        assert_eq!(m.page_count(), pg(8));
        // A gap breaks the run.
        m.append_run(D0, sec(9000), pg(2));
        assert_eq!(m.run_count(), 2);
        assert_eq!(m.page_count(), pg(10));
        // A different device always breaks the run.
        m.append_run(D1, sec(9000 + 2 * SECTORS_PER_PAGE), pg(1));
        assert_eq!(m.run_count(), 3);
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
        let clipped = m.runs_in(pg(2), pg(5));
        assert_eq!(clipped.len(), 2);
        assert_eq!(clipped[0].start_page, pg(2));
        assert_eq!(clipped[0].pages, pg(2));
        assert_eq!(clipped[0].sector, sec(2048 + 2 * SECTORS_PER_PAGE));
        assert_eq!(clipped[1].start_page, pg(4));
        assert_eq!(clipped[1].pages, pg(2));
        assert_eq!(clipped[1].sector, sec(9000));
        assert!(m.runs_in(pg(8), pg(20)).is_empty());
        assert!(m.runs_in(pg(5), pg(2)).is_empty());
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
        assert_eq!(m.run_count(), 3);
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
        assert_eq!(m.run_count(), 1);
    }

    #[test]
    fn remap_whole_mapping_replaces_it() {
        let mut m = PageMap::new();
        m.append_run(D0, sec(2048), pg(4));
        m.append_run(D0, sec(9000), pg(4));
        m.remap_run(pg(0), pg(8), D1, sec(0));
        assert_eq!(m.run_count(), 1);
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
