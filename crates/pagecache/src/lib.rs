//! The file system buffer cache.
//!
//! The paper's central observation (its Figure 3) is about this component:
//! with LRU replacement and a file larger than the cache, a second linear
//! pass over the file gets *zero* hits, because the tail of the file keeps
//! evicting the head just before the reader arrives. An application that
//! knows which pages are resident — via SLEDs — can read the cached tail
//! first and turn most of the second pass into hits.
//!
//! [`PageCache`] tracks page residency and dirty state under one of five
//! replacement policies ([`PolicyKind`]); the default is LRU, matching
//! Linux 2.2's approximation. Clock, FIFO, MRU and 2Q are provided for the
//! ablation benchmarks. The cache stores no data bytes — the simulator
//! models *cost*, and file contents live with the file system — only
//! residency metadata.
//!
//! Residency and dirty state are stored per inode as sorted run-length
//! extents ([`ExtentSet`]), so the SLED construction path can ask for the
//! resident runs of a byte range ([`PageCache::resident_runs`]) or the next
//! residency transition ([`PageCache::next_boundary`]) in O(log runs)
//! instead of probing every page. Each inode also carries a **generation
//! counter**, bumped whenever its residency changes, which lets callers
//! memoize derived results (like a SLED vector) and revalidate them in
//! O(1).
//!
//! The per-page path touches no tree. The per-inode entries sit in a dense
//! table indexed by inode number ([`IdTable`]: the kernel issues inode
//! numbers 1, 2, 3, …), each entry holds a slot table indexed by page
//! number, and a slot names the page's node in the replacement order
//! ([`policy`]): [`PageCache::contains`] is two array indexes and
//! [`PageCache::lookup`] adds a list splice. Cache-wide operations
//! ([`PageCache::clear`], [`PageCache::dirty_pages`],
//! [`PageCache::dirty_count`]) answer from running counters or stop as
//! soon as they have visited what is cached.

// Kernel path (DESIGN §5c): fail with a typed `SimError`, never abort the
// simulation; a narrowing cast names the bound that makes it lossless.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::cast_possible_truncation
    )
)]

pub mod extent;
pub mod policy;
#[cfg(test)]
mod reference;

use std::ops::RangeInclusive;

use sleds_sim_core::{index, IdTable};

use extent::Residency;
use policy::{NodeId, Recency};

pub use extent::ExtentSet;
pub use policy::PolicyKind;

/// Identifies one page: an inode number and a page index within the file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PageKey {
    /// Inode number (unique per mounted file system tree in the simulator).
    pub inode: u64,
    /// Page index: byte offset divided by the page size.
    pub index: u64,
}

impl PageKey {
    /// Creates a page key.
    pub fn new(inode: u64, index: u64) -> Self {
        PageKey { inode, index }
    }
}

/// Counters describing cache behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the page resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Pages inserted.
    pub insertions: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Evicted pages that were dirty (required writeback).
    pub dirty_evictions: u64,
}

/// A page evicted to make room, with whether it needs writeback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The page that was dropped.
    pub key: PageKey,
    /// True when the page was dirty and must be written to its device.
    pub dirty: bool,
}

/// Per-inode bookkeeping: the resident set with its generation, the dirty
/// set, and where each resident page sits in the replacement order.
#[derive(Clone, Debug, Default)]
struct InodeIndex {
    resident: Residency,
    dirty: ExtentSet,
    /// `slots[page]` is the page's node id plus one, 0 when the page is not
    /// resident: `slots[p] != 0` exactly when `resident` contains `p`. Four
    /// bytes per page up to the highest one resident since the file last
    /// left the cache; an inode with nothing resident holds no slots.
    slots: Vec<u32>,
}

impl InodeIndex {
    /// The node of `page`, if resident. Any `u64` is a valid probe.
    fn node(&self, page: u64) -> Option<NodeId> {
        let slot = *self.slots.get(usize::try_from(page).ok()?)?;
        slot.checked_sub(1)
    }
}

/// Consecutive pages of one inode whose change of residency the inode's
/// extents have not been told yet. [`PageCache::insert_pages`] keeps two —
/// the pages it has brought in and the victims that made room — and hands
/// each to the extents as one range ([`PageCache::settle`]).
#[derive(Clone, Copy, Debug, Default)]
struct Owed {
    inode: u64,
    first: u64,
    len: u64,
}

impl Owed {
    /// Takes `key` on when the stretch is empty or `key` is its next page.
    fn extend(&mut self, key: PageKey) -> bool {
        if self.len == 0 {
            *self = Owed {
                inode: key.inode,
                first: key.index,
                len: 1,
            };
            true
        } else if key.inode == self.inode && key.index == self.first + self.len {
            self.len += 1;
            true
        } else {
            false
        }
    }

    fn holds(&self, key: PageKey) -> bool {
        key.inode == self.inode && key.index.wrapping_sub(self.first) < self.len
    }
}

/// The buffer cache: residency + dirty metadata under a replacement policy.
pub struct PageCache {
    capacity: usize,
    len: usize,
    /// Dirty pages across all inodes: `Σ dirty.page_count()`.
    dirty_len: u64,
    /// Extent index per inode, slot = inode number: eight bytes per inode
    /// number up to the largest ever cached, plus one boxed entry per inode
    /// ever cached. Entries are kept once created (even when emptied) so
    /// generation counters never restart.
    index: IdTable<Box<InodeIndex>>,
    /// Every resident page, in replacement order.
    recency: Recency,
    stats: CacheStats,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("capacity", &self.capacity)
            .field("resident", &self.len)
            .field("policy", &self.policy_name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl PageCache {
    /// Creates a cache holding at most `capacity` pages under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`: a zero-page buffer cache cannot satisfy
    /// any read and indicates a misconfigured simulation. Panics if
    /// `capacity` does not leave room for a 32-bit node id per page.
    pub fn new(capacity: usize, policy: PolicyKind) -> Self {
        assert!(capacity > 0, "page cache needs at least one page");
        assert!(
            capacity < u32::MAX as usize,
            "page cache node ids are 32 bits"
        );
        PageCache {
            capacity,
            len: 0,
            dirty_len: 0,
            index: IdTable::new(),
            recency: Recency::new(policy, capacity),
            stats: CacheStats::default(),
        }
    }

    /// Creates an LRU cache, the simulator default.
    pub fn lru(capacity: usize) -> Self {
        PageCache::new(capacity, PolicyKind::Lru)
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current number of dirty resident pages across all inodes — the
    /// writeback debt a cache-state report shows next to residency. O(1).
    pub fn dirty_count(&self) -> u64 {
        self.dirty_len
    }

    /// The replacement policy's name, for reports.
    pub fn policy_name(&self) -> &'static str {
        self.recency.kind().name()
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (residency is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The node of a resident page: two array indexes, no allocation.
    fn node_of(&self, key: PageKey) -> Option<NodeId> {
        self.index.get(key.inode)?.node(key.index)
    }

    /// Non-perturbing residency probe — the cache-side half of `mincore(2)`.
    ///
    /// Does not touch the replacement policy or the hit/miss counters: this
    /// is what the kernel's SLED walk uses, and observing state must not
    /// change it.
    pub fn contains(&self, key: PageKey) -> bool {
        self.node_of(key).is_some()
    }

    /// Looks a page up on behalf of a read. Returns true on a hit (and
    /// informs the policy); counts a miss otherwise.
    pub fn lookup(&mut self, key: PageKey) -> bool {
        match self.node_of(key) {
            Some(id) => {
                self.recency.hit(id);
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Inserts a page (clean unless `dirty`), evicting if necessary.
    ///
    /// Returns the evicted page, if any, so the caller can charge a
    /// writeback for dirty victims. Inserting an already-resident page just
    /// refreshes it (and ORs the dirty bit). This is
    /// [`PageCache::insert_run`] with `n = 1`.
    ///
    /// `key.inode` must be an inode number a kernel has issued (they are
    /// dense from 1): the index grows by one eight-byte slot per inode
    /// number up to the largest inserted. Likewise `key.index` must lie
    /// inside the file's page map (the kernel clamps reads to the file size
    /// and grows the map before a write): the inode's slot table grows by
    /// four bytes per page up to the largest index inserted. Reads take any
    /// number and allocate nothing.
    pub fn insert(&mut self, key: PageKey, dirty: bool) -> Option<Evicted> {
        let mut evicted = None;
        self.insert_pages(key.inode, key.index, 1, dirty, |ev| evicted = Some(ev));
        evicted
    }

    /// Inserts pages `first .. first + n` of `inode`, in order, as
    ///
    /// ```text
    /// for i in 0..n {
    ///     inserted += 1;
    ///     if let Some(ev) = insert(PageKey::new(inode, first + i), dirty) {
    ///         victims.push(ev);
    ///         if ev.dirty { break }
    ///     }
    /// }
    /// ```
    ///
    /// would, and returns `inserted`: the same victims in the same order,
    /// the same replacement order, counters and generations afterwards.
    /// It stops after the insert whose victim was dirty so the caller can
    /// write that page back before the cache changes again; call it again
    /// from `first + inserted` for the rest. A run that displaces
    /// consecutive pages of one file costs its extents one splice for what
    /// came in and one for what went out, not two tree walks per page.
    pub fn insert_run(
        &mut self,
        inode: u64,
        first: u64,
        n: u64,
        dirty: bool,
        victims: &mut Vec<Evicted>,
    ) -> u64 {
        self.insert_pages(inode, first, n, dirty, |ev| victims.push(ev))
    }

    /// The one insertion path. Per page it does what cannot wait — the
    /// replacement order, the slot tables, the dirty bit of a victim, the
    /// counters, all O(1) — and owes the extents the two stretches of
    /// consecutive pages that are building up: `entered` (pages of `inode`
    /// brought in) and `left` (victims). A page that does not continue its
    /// stretch settles both first, as does one that would cross the other
    /// stretch (a run longer than the cache evicting its own head, a victim
    /// coming back later in the same run), so the extents are never asked
    /// about a page they are behind on. Nothing reads them in between.
    fn insert_pages(
        &mut self,
        inode: u64,
        first: u64,
        n: u64,
        dirty: bool,
        mut evicted: impl FnMut(Evicted),
    ) -> u64 {
        let (mut entered, mut left) = (Owed::default(), Owed::default());
        let mut inserted = 0;
        while inserted < n {
            let key = PageKey::new(inode, first + inserted);
            inserted += 1;
            if let Some(id) = self.node_of(key) {
                if dirty {
                    self.mark_dirty(key);
                }
                self.recency.hit(id);
                continue;
            }
            let mut victim_was_dirty = false;
            if self.len >= self.capacity {
                if let Some(id) = self.recency.victim() {
                    let victim = self.recency.key(id);
                    if entered.holds(victim) || !left.extend(victim) {
                        self.settle(&mut entered, &mut left, dirty);
                        left.extend(victim);
                    }
                    victim_was_dirty = self.unlink(victim, id);
                    self.stats.evictions += 1;
                    self.stats.dirty_evictions += u64::from(victim_was_dirty);
                    evicted(Evicted {
                        key: victim,
                        dirty: victim_was_dirty,
                    });
                }
            }
            if left.holds(key) || !entered.extend(key) {
                self.settle(&mut entered, &mut left, dirty);
                entered.extend(key);
            }
            let id = self.recency.insert(key);
            let ix = self.index.get_or_insert_with(inode, Box::default);
            let page = index(key.index);
            if page >= ix.slots.len() {
                ix.slots.resize(page + 1, 0);
            }
            debug_assert_eq!(ix.slots[page], 0, "a page without a node had a slot");
            ix.slots[page] = id + 1;
            self.len += 1;
            self.stats.insertions += 1;
            if victim_was_dirty {
                break;
            }
        }
        self.settle(&mut entered, &mut left, dirty);
        inserted
    }

    /// Pays the extents what they are owed: `entered` joins its inode's
    /// resident set (and dirty set, when the pages came in `dirty`), `left`
    /// leaves its inode's, each as one range stamping the generation by its
    /// length. `entered` goes first, so an inode that lost its old pages to
    /// its own new ones is not taken for empty.
    #[inline]
    fn settle(&mut self, entered: &mut Owed, left: &mut Owed, dirty: bool) {
        let (entered, left) = (std::mem::take(entered), std::mem::take(left));
        if let Some(ix) = self
            .index
            .get_mut(entered.inode)
            .filter(|_| entered.len > 0)
        {
            let new = ix.resident.insert_range(entered.first, entered.len);
            debug_assert_eq!(new, entered.len, "a page without a slot was resident");
            if dirty {
                self.dirty_len += ix.dirty.insert_range(entered.first, entered.len);
            }
        }
        if let Some(ix) = self.index.get_mut(left.inode).filter(|_| left.len > 0) {
            let gone = ix.resident.remove_range(left.first, left.len);
            debug_assert_eq!(gone, left.len, "a page with a slot was not resident");
            if ix.resident.extents().is_empty() {
                ix.slots = Vec::new();
            }
        }
    }

    /// Takes a resident page out of everything but the extents (the caller
    /// owes them that): its slot, dirty bit, node and the counts.
    /// Returns whether it was dirty.
    #[inline]
    fn unlink(&mut self, key: PageKey, id: NodeId) -> bool {
        let mut dirty = false;
        if let Some(ix) = self.index.get_mut(key.inode) {
            ix.slots[index(key.index)] = 0;
            dirty = ix.dirty.remove(key.index);
        }
        self.dirty_len -= u64::from(dirty);
        self.recency.remove(id);
        self.len -= 1;
        dirty
    }

    /// How many evictions until `key` would be chosen (0 = next out), when
    /// the policy can predict it: LRU, MRU and FIFO can, Clock and 2Q
    /// depend on future references and answer `None`. Costs O(rank); see
    /// [`PageCache::eviction_ranks`] for a whole file.
    pub fn eviction_rank(&self, key: PageKey) -> Option<usize> {
        let id = self.node_of(key)?;
        self.recency.eviction_order()?.position(|n| n == id)
    }

    /// [`PageCache::eviction_rank`] for each of the first `npages` pages of
    /// `inode`, in one walk of the replacement order: O(cache + `npages`).
    /// This feeds the SLED *forecast* extension (the paper's "predict which
    /// pages of a file would be flushed from cache based on current page
    /// replacement algorithms").
    pub fn eviction_ranks(&self, inode: u64, npages: u64) -> Vec<Option<usize>> {
        let mut ranks = vec![None; index(npages)];
        if let Some(order) = self.recency.eviction_order() {
            for (rank, id) in order.enumerate() {
                let key = self.recency.key(id);
                if key.inode == inode {
                    if let Some(r) = ranks.get_mut(index(key.index)) {
                        *r = Some(rank);
                    }
                }
            }
        }
        ranks
    }

    /// Marks a resident page dirty. No-op if the page is not resident.
    pub fn mark_dirty(&mut self, key: PageKey) {
        if let Some(ix) = self.index.get_mut(key.inode) {
            if ix.node(key.index).is_some() && ix.dirty.insert(key.index) {
                self.dirty_len += 1;
            }
        }
    }

    /// True if the page is resident and dirty.
    pub fn is_dirty(&self, key: PageKey) -> bool {
        self.index
            .get(key.inode)
            .is_some_and(|ix| ix.dirty.contains(key.index))
    }

    /// Drops a page without writeback accounting (e.g. truncate). Returns
    /// whether it was dirty, or `None` when it was not resident. An inode
    /// whose last page leaves gives its slot table back and keeps its
    /// generation.
    pub fn remove(&mut self, key: PageKey) -> Option<bool> {
        let id = self.node_of(key)?;
        let dirty = self.unlink(key, id);
        let mut left = Owed::default();
        left.extend(key);
        self.settle(&mut Owed::default(), &mut left, false);
        Some(dirty)
    }

    /// Drops every page of `inode`, returning the dirty ones (the caller
    /// decides whether they must be flushed first, as `fsync` would).
    ///
    /// Costs O(pages of this inode), not O(cache): the extent index knows
    /// exactly which pages belong to the file.
    pub fn remove_file(&mut self, inode: u64) -> Vec<PageKey> {
        let Some(ix) = self.index.get(inode) else {
            return Vec::new();
        };
        let pages: Vec<u64> = ix.resident.extents().iter_pages().collect();
        let mut dirty = Vec::new();
        for p in pages {
            let k = PageKey::new(inode, p);
            if self.remove(k) == Some(true) {
                dirty.push(k);
            }
        }
        dirty
    }

    /// Returns the dirty pages of `inode` without removing them (`fsync`).
    pub fn dirty_pages_of(&self, inode: u64) -> Vec<PageKey> {
        self.index
            .get(inode)
            .map(|ix| {
                ix.dirty
                    .iter_pages()
                    .map(|p| PageKey::new(inode, p))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Every dirty page in the cache, in (inode, page) order — what a
    /// cache-wide writeback flushes. An all-clean cache answers in O(1);
    /// otherwise the walk stops at the last dirty inode.
    pub fn dirty_pages(&self) -> Vec<PageKey> {
        let mut out = Vec::with_capacity(index(self.dirty_len));
        for (inode, ix) in self.index.iter() {
            if out.len() as u64 == self.dirty_len {
                break;
            }
            out.extend(ix.dirty.iter_pages().map(|p| PageKey::new(inode, p)));
        }
        out
    }

    /// Marks a page clean after writeback.
    pub fn mark_clean(&mut self, key: PageKey) {
        if let Some(ix) = self.index.get_mut(key.inode) {
            if ix.dirty.remove(key.index) {
                self.dirty_len -= 1;
            }
        }
    }

    /// The resident runs of `inode` overlapping `range` (page indices,
    /// inclusive), clipped to it, ascending. O(log runs + runs-in-range).
    pub fn resident_runs(
        &self,
        inode: u64,
        range: RangeInclusive<u64>,
    ) -> Vec<RangeInclusive<u64>> {
        self.index
            .get(inode)
            .map(|ix| ix.resident.extents().runs_in(range))
            .unwrap_or_default()
    }

    /// The first page index `> page` where `inode`'s residency state flips,
    /// or `u64::MAX` when it never does. O(log runs).
    pub fn next_boundary(&self, inode: u64, page: u64) -> u64 {
        self.index
            .get(inode)
            .map(|ix| ix.resident.extents().next_boundary(page))
            .unwrap_or(u64::MAX)
    }

    /// Number of resident runs for `inode` (0 when nothing is cached).
    pub fn resident_run_count(&self, inode: u64) -> usize {
        self.index
            .get(inode)
            .map(|ix| ix.resident.extents().run_count())
            .unwrap_or(0)
    }

    /// The residency generation of `inode`: bumped whenever a page of the
    /// file enters or leaves the cache. Starts at 0 for never-cached files
    /// and never restarts, so `(inode, generation)` uniquely identifies a
    /// residency state for memoization.
    pub fn generation(&self, inode: u64) -> u64 {
        self.index
            .get(inode)
            .map(|ix| ix.resident.generation())
            .unwrap_or(0)
    }

    /// Drops everything (unmount without writeback; test helper).
    ///
    /// Equivalent to [`PageCache::remove`] on every resident page — each
    /// inode's generation moves by the number of pages it loses, and the
    /// replacement order is left empty — but extents, slot tables and the
    /// node slab are dropped whole: a scan of the index up to the last
    /// inode holding pages, not a tree operation per page.
    pub fn clear(&mut self) {
        let mut left = self.len as u64;
        for (_, ix) in self.index.iter_mut() {
            if left == 0 {
                break;
            }
            debug_assert_eq!(
                ix.slots.iter().filter(|&&s| s != 0).count() as u64,
                ix.resident.extents().page_count(),
                "slot table and resident set disagree"
            );
            left -= ix.resident.clear();
            ix.dirty.clear();
            ix.slots = Vec::new();
        }
        self.len = 0;
        self.dirty_len = 0;
        self.recency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PageKey {
        PageKey::new(1, i)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = PageCache::lru(2);
        assert!(!c.lookup(key(0)));
        c.insert(key(0), false);
        assert!(c.lookup(key(0)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn dirty_count_tracks_writeback_debt() {
        let mut c = PageCache::lru(8);
        assert_eq!(c.dirty_count(), 0);
        c.insert(key(0), true);
        c.insert(key(1), false);
        c.insert(PageKey::new(2, 0), true);
        assert_eq!(c.dirty_count(), 2);
        c.mark_clean(key(0));
        assert_eq!(c.dirty_count(), 1);
        c.remove(PageKey::new(2, 0));
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn dirty_pages_lists_the_whole_dirty_set_in_inode_page_order() {
        let mut c = PageCache::lru(16);
        assert_eq!(c.dirty_pages(), vec![]);
        c.insert(PageKey::new(7, 4), true);
        c.insert(PageKey::new(2, 9), true);
        c.insert(PageKey::new(2, 1), true);
        c.insert(PageKey::new(5, 0), false);
        c.insert(PageKey::new(0, 3), true);
        let all = [(0, 3), (2, 1), (2, 9), (7, 4)].map(|(i, p)| PageKey::new(i, p));
        assert_eq!(c.dirty_pages(), all);
        assert_eq!(c.dirty_count(), 4);
        c.mark_clean(PageKey::new(2, 9));
        c.mark_clean(PageKey::new(2, 9));
        c.mark_dirty(PageKey::new(5, 0));
        c.mark_dirty(PageKey::new(5, 0));
        c.mark_dirty(PageKey::new(6, 0)); // not resident: stays clean
        let all = [(0, 3), (2, 1), (5, 0), (7, 4)].map(|(i, p)| PageKey::new(i, p));
        assert_eq!(c.dirty_pages(), all);
        assert_eq!(c.dirty_count(), 4);
    }

    #[test]
    fn reads_of_a_never_cached_inode_return_defaults_at_any_number() {
        let mut c = PageCache::lru(4);
        c.insert(PageKey::new(3, 0), true);
        let probes = [0, 2, 4, 1 << 40, u64::MAX].map(|inode| PageKey::new(inode, 0));
        // The cached inode answers the same way past its slot table.
        let beyond = [1, 1 << 40, u64::MAX - 1].map(|page| PageKey::new(3, page));
        for k in probes.into_iter().chain(beyond) {
            assert!(!c.contains(k) && !c.is_dirty(k) && !c.lookup(k));
            assert_eq!(c.remove(k), None);
            assert_eq!(c.eviction_rank(k), None);
            c.mark_dirty(k);
        }
        assert_eq!((c.len(), c.dirty_count(), c.generation(3)), (1, 1, 1));
        for inode in probes.map(|k| k.inode) {
            assert_eq!(c.generation(inode), 0);
            assert_eq!(c.next_boundary(inode, 0), u64::MAX);
            assert_eq!(c.resident_runs(inode, 0..=u64::MAX), vec![]);
            assert_eq!(c.resident_run_count(inode), 0);
            assert_eq!(c.dirty_pages_of(inode), vec![]);
            assert_eq!(c.remove_file(inode), vec![]);
        }
        assert_eq!(c.len(), 1);
    }

    /// `clear` must be indistinguishable from removing every resident page
    /// one at a time — generations (which `sled_generation` folds), counters
    /// and whatever each policy does next — for every policy.
    #[test]
    fn clear_equals_removing_every_page() {
        use sleds_sim_core::DetRng;
        for kind in PolicyKind::all() {
            let mut rng = DetRng::new(0xC1EA2).derive(kind as u64);
            let mut a = PageCache::new(24, kind);
            let mut b = PageCache::new(24, kind);
            for round in 0..6 {
                for _ in 0..rng.range_usize(0, 120) {
                    let key = PageKey::new(rng.range_u64(0, 5), rng.range_u64(0, 16));
                    let dirty = rng.chance(0.3);
                    match rng.range_u64(0, 4) {
                        0 => assert_eq!(a.lookup(key), b.lookup(key)),
                        _ => assert_eq!(
                            a.insert(key, dirty),
                            b.insert(key, dirty),
                            "{}: eviction diverged in round {round}",
                            kind.name()
                        ),
                    }
                }
                a.clear();
                for inode in 0..5 {
                    for page in 0..16 {
                        b.remove(PageKey::new(inode, page));
                    }
                }
                assert!(a.is_empty() && b.is_empty());
                assert_eq!((a.dirty_count(), b.dirty_count()), (0, 0));
                for inode in 0..5 {
                    assert_eq!(a.generation(inode), b.generation(inode), "{}", kind.name());
                    assert_eq!(a.resident_run_count(inode), 0);
                }
            }
        }
    }

    #[test]
    fn generation_bumps_only_when_residency_actually_changes() {
        // Regression for the detach() restructure: removing a page that is
        // not resident must be a pure probe — no generation bump — while a
        // real removal bumps exactly once. The old code mutated the extent
        // set before discovering the page was absent on some paths; the set
        // and its stamp now sit behind `Residency`, which has no such path.
        let mut c = PageCache::lru(8);
        c.insert(key(3), true);
        let after_insert = c.generation(1);
        assert!(after_insert > 0, "insert must bump the generation");

        assert_eq!(c.remove(key(7)), None, "absent page: nothing to drop");
        assert_eq!(
            c.generation(1),
            after_insert,
            "failed probe must not bump the generation"
        );
        assert_eq!(c.remove(PageKey::new(9, 0)), None);
        assert_eq!(c.generation(9), 0, "unknown inode stays at generation 0");

        assert_eq!(c.remove(key(3)), Some(true), "resident dirty page drops");
        assert_eq!(
            c.generation(1),
            after_insert + 1,
            "real removal bumps exactly once"
        );
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut c = PageCache::lru(3);
        for i in 0..10 {
            c.insert(key(i), false);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 7);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = PageCache::lru(3);
        c.insert(key(0), false);
        c.insert(key(1), false);
        c.insert(key(2), false);
        c.lookup(key(0)); // 0 is now most recent
        let ev = c.insert(key(3), false).expect("must evict");
        assert_eq!(ev.key, key(1));
    }

    #[test]
    fn dirty_pages_reported_on_eviction() {
        let mut c = PageCache::lru(1);
        c.insert(key(0), true);
        let ev = c.insert(key(1), false).unwrap();
        assert!(ev.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn reinsert_ors_dirty_bit() {
        let mut c = PageCache::lru(2);
        c.insert(key(0), false);
        c.insert(key(0), true);
        assert!(c.is_dirty(key(0)));
        c.insert(key(0), false);
        assert!(
            c.is_dirty(key(0)),
            "dirty bit must not be cleared by clean reinsert"
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn contains_does_not_perturb() {
        let mut c = PageCache::lru(2);
        c.insert(key(0), false);
        c.insert(key(1), false);
        // Probing page 0 must NOT make it recently used.
        for _ in 0..10 {
            assert!(c.contains(key(0)));
        }
        let ev = c.insert(key(2), false).unwrap();
        assert_eq!(ev.key, key(0), "contains() must not refresh LRU position");
        let s = c.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn figure3_two_linear_passes_zero_hits() {
        // The paper's Figure 3: five-block file, three-block LRU cache.
        // A second linear pass gets no benefit from the first.
        let mut c = PageCache::lru(3);
        for pass in 0..2 {
            for i in 0..5 {
                if !c.lookup(key(i)) {
                    c.insert(key(i), false);
                }
            }
            if pass == 0 {
                assert_eq!(c.stats().hits, 0);
            }
        }
        assert_eq!(c.stats().hits, 0, "LRU gives a second linear pass nothing");
        assert_eq!(c.stats().misses, 10);
    }

    #[test]
    fn figure3_sleds_order_hits_cached_tail() {
        // Same setup, but the second pass reads the cached tail {2,3,4}
        // first, as the SLEDs pick library would order it.
        let mut c = PageCache::lru(3);
        for i in 0..5 {
            if !c.lookup(key(i)) {
                c.insert(key(i), false);
            }
        }
        c.reset_stats();
        for i in [2u64, 3, 4, 0, 1] {
            if !c.lookup(key(i)) {
                c.insert(key(i), false);
            }
        }
        let s = c.stats();
        assert_eq!(s.hits, 3, "the cached tail should all hit");
        assert_eq!(s.misses, 2, "only the evicted head re-reads");
    }

    #[test]
    fn remove_file_returns_dirty_pages() {
        let mut c = PageCache::lru(8);
        c.insert(PageKey::new(1, 0), true);
        c.insert(PageKey::new(1, 1), false);
        c.insert(PageKey::new(2, 0), true);
        let dirty = c.remove_file(1);
        assert_eq!(dirty, vec![PageKey::new(1, 0)]);
        assert_eq!(c.len(), 1);
        assert!(c.contains(PageKey::new(2, 0)));
    }

    #[test]
    fn residency_bitmap() {
        let mut c = PageCache::lru(8);
        c.insert(PageKey::new(1, 0), false);
        c.insert(PageKey::new(1, 2), false);
        assert_eq!(c.resident_runs(1, 0..=3), vec![0..=0, 2..=2]);
        assert!((0..4)
            .map(|p| c.contains(PageKey::new(1, p)))
            .eq([true, false, true, false]));
    }

    #[test]
    fn dirty_tracking_and_fsync_flow() {
        let mut c = PageCache::lru(8);
        c.insert(PageKey::new(1, 0), false);
        c.mark_dirty(PageKey::new(1, 0));
        c.insert(PageKey::new(1, 1), true);
        assert_eq!(c.dirty_pages_of(1).len(), 2);
        c.mark_clean(PageKey::new(1, 0));
        assert_eq!(c.dirty_pages_of(1), vec![PageKey::new(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_panics() {
        let _ = PageCache::lru(0);
    }

    #[test]
    fn resident_runs_coalesce_and_clip() {
        let mut c = PageCache::lru(32);
        for i in [0u64, 1, 2, 3, 10, 11, 30] {
            c.insert(key(i), false);
        }
        assert_eq!(c.resident_runs(1, 0..=63), vec![0..=3, 10..=11, 30..=30]);
        assert_eq!(c.resident_runs(1, 2..=10), vec![2..=3, 10..=10]);
        assert_eq!(c.resident_runs(2, 0..=63), Vec::<_>::new());
        assert_eq!(c.resident_run_count(1), 3);
    }

    #[test]
    fn next_boundary_tracks_residency_flips() {
        let mut c = PageCache::lru(32);
        for i in [4u64, 5, 6] {
            c.insert(key(i), false);
        }
        assert_eq!(c.next_boundary(1, 0), 4);
        assert_eq!(c.next_boundary(1, 4), 7);
        assert_eq!(c.next_boundary(1, 7), u64::MAX);
        assert_eq!(c.next_boundary(99, 0), u64::MAX, "unknown inode: no flips");
    }

    #[test]
    fn generation_bumps_on_residency_changes_only() {
        let mut c = PageCache::lru(4);
        assert_eq!(c.generation(1), 0);
        c.insert(key(0), false);
        let g1 = c.generation(1);
        assert!(g1 > 0);
        // Re-insert, dirty: no residency change, no bump.
        c.insert(key(0), true);
        c.mark_dirty(key(0));
        c.mark_clean(key(0));
        assert_eq!(c.generation(1), g1);
        // Removal bumps.
        c.remove(key(0));
        assert!(c.generation(1) > g1);
    }

    #[test]
    fn generation_survives_full_eviction() {
        let mut c = PageCache::lru(2);
        c.insert(key(0), false);
        c.insert(key(1), false);
        let g = c.generation(1);
        c.remove_file(1);
        assert!(c.is_empty());
        assert!(
            c.generation(1) > g,
            "generation must keep counting after the file leaves the cache"
        );
    }

    #[test]
    fn eviction_bumps_victims_generation() {
        let mut c = PageCache::lru(1);
        c.insert(PageKey::new(1, 0), false);
        let g = c.generation(1);
        c.insert(PageKey::new(2, 0), false); // evicts inode 1's page
        assert!(c.generation(1) > g);
    }
}
