//! Model-based property tests: every replacement policy against a naive
//! `Vec`-backed model that must agree on the exact eviction order, and
//! structural invariants for every policy.
//!
//! Runs under the in-repo `check` harness; case count scales with
//! `SLEDS_CHECK_CASES`.

use sleds_pagecache::{Evicted, PageCache, PageKey, PolicyKind};
use sleds_sim_core::{check, DetRng};

/// Operations the model exercises.
#[derive(Clone, Debug)]
enum Op {
    Lookup(u64),
    Insert(u64),
    Remove(u64),
    Clear,
}

fn random_op(rng: &mut DetRng) -> Op {
    let k = rng.range_u64(0, 32);
    match rng.range_u64(0, 10) {
        0..=2 => Op::Lookup(k),
        3..=5 => Op::Insert(k),
        6..=8 => Op::Remove(k),
        _ => Op::Clear,
    }
}

/// A trivially-correct LRU cache: Vec ordered oldest-first.
#[derive(Default)]
struct ModelLru {
    order: Vec<u64>, // resident, oldest first
    capacity: usize,
}

impl ModelLru {
    fn touch(&mut self, k: u64) {
        self.order.retain(|&x| x != k);
        self.order.push(k);
    }

    fn lookup(&mut self, k: u64) -> bool {
        if self.order.contains(&k) {
            self.touch(k);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, k: u64) -> Option<u64> {
        if self.order.contains(&k) {
            self.touch(k);
            return None;
        }
        let evicted = (self.order.len() >= self.capacity).then(|| self.order.remove(0));
        self.order.push(k);
        evicted
    }

    fn remove(&mut self, k: u64) {
        self.order.retain(|&x| x != k);
    }

    fn resident(&self) -> std::collections::BTreeSet<u64> {
        self.order.iter().copied().collect()
    }
}

/// The real LRU cache and the reference model agree on residency after
/// any op sequence (evictions compared implicitly through residency), the
/// cache never holds more than its capacity, and the residency generation
/// moves by exactly the number of pages that entered or left the model's
/// resident set — never on a no-op, never by less than the change.
#[test]
fn lru_matches_reference_model() {
    check::run("lru_matches_reference_model", |rng| {
        let capacity = 8;
        let mut real = PageCache::lru(capacity);
        let mut model = ModelLru {
            capacity,
            ..Default::default()
        };
        let nops = rng.range_usize(0, 200);
        for _ in 0..nops {
            let (before, stamp) = (model.resident(), real.generation(1));
            let op = random_op(rng);
            match op.clone() {
                Op::Lookup(k) => {
                    let r = real.lookup(PageKey::new(1, k));
                    let m = model.lookup(k);
                    assert_eq!(r, m, "lookup({k})");
                }
                Op::Insert(k) => {
                    real.insert(PageKey::new(1, k), false);
                    model.insert(k);
                }
                Op::Remove(k) => {
                    real.remove(PageKey::new(1, k));
                    model.remove(k);
                }
                Op::Clear => {
                    real.clear();
                    model.order.clear();
                }
            }
            assert!(real.len() <= capacity, "{op:?}: overflowed");
            // Residency must agree exactly.
            for k in 0u64..32 {
                assert_eq!(
                    real.contains(PageKey::new(1, k)),
                    model.order.contains(&k),
                    "residency of {k} diverged"
                );
            }
            let changed = before.symmetric_difference(&model.resident()).count() as u64;
            assert_eq!(
                real.generation(1) - stamp,
                changed,
                "{op:?}: generation must move by the pages that entered or left"
            );
        }
    });
}

/// A way for [`Model::insert_run`] to be wrong, to show the comparison
/// below would catch the cache being wrong the same way.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Flaw {
    None,
    /// The inserting inode's generation moves once for a whole run.
    StampsOncePerRun,
    /// One more page goes in after the dirty victim.
    StopsOneInsertLate,
}

/// One resident page of [`Model`].
#[derive(Clone, Copy, Debug)]
struct Page {
    key: PageKey,
    dirty: bool,
    /// Clock's reference bit.
    referenced: bool,
}

/// Any of the five policies, written the obvious way: queues are `Vec`s
/// with the oldest page first, every operation searches them.
struct Model {
    kind: PolicyKind,
    capacity: usize,
    /// The queue (LRU, MRU, FIFO, Clock) or 2Q's probation queue.
    a1: Vec<Page>,
    /// 2Q's main queue.
    am: Vec<Page>,
    /// Pages that have entered or left, per inode.
    generation: std::collections::BTreeMap<u64, u64>,
}

impl Model {
    fn new(kind: PolicyKind, capacity: usize) -> Self {
        Model {
            kind,
            capacity,
            a1: Vec::new(),
            am: Vec::new(),
            generation: Default::default(),
        }
    }

    fn pages(&self) -> impl Iterator<Item = &Page> {
        self.a1.iter().chain(&self.am)
    }

    fn page(&self, key: PageKey) -> Option<&Page> {
        self.pages().find(|p| p.key == key)
    }

    fn page_mut(&mut self, key: PageKey) -> Option<&mut Page> {
        self.a1
            .iter_mut()
            .chain(&mut self.am)
            .find(|p| p.key == key)
    }

    fn len(&self) -> usize {
        self.pages().count()
    }

    /// Takes a resident page out of whichever queue holds it.
    fn take(&mut self, key: PageKey) -> Option<Page> {
        for queue in [&mut self.a1, &mut self.am] {
            if let Some(i) = queue.iter().position(|p| p.key == key) {
                return Some(queue.remove(i));
            }
        }
        None
    }

    fn stamp(&mut self, inode: u64) {
        *self.generation.entry(inode).or_default() += 1;
    }

    fn hit(&mut self, key: PageKey) {
        match self.kind {
            PolicyKind::Lru | PolicyKind::Mru => {
                let page = self.take(key).unwrap();
                self.a1.push(page);
            }
            PolicyKind::Fifo => {}
            PolicyKind::Clock => self.page_mut(key).unwrap().referenced = true,
            PolicyKind::TwoQ => {
                let page = self.take(key).unwrap();
                self.am.push(page);
            }
        }
    }

    fn lookup(&mut self, key: PageKey) -> bool {
        let hit = self.page(key).is_some();
        if hit {
            self.hit(key);
        }
        hit
    }

    /// The page the policy gives up next.
    fn victim(&mut self) -> Option<PageKey> {
        let a1_target = (self.capacity / 4).max(1);
        match self.kind {
            PolicyKind::Lru | PolicyKind::Fifo => self.a1.first().map(|p| p.key),
            PolicyKind::Mru => self.a1.last().map(|p| p.key),
            PolicyKind::Clock => {
                while self.a1.first()?.referenced {
                    let mut spared = self.a1.remove(0);
                    spared.referenced = false;
                    self.a1.push(spared);
                }
                self.a1.first().map(|p| p.key)
            }
            PolicyKind::TwoQ if self.a1.len() >= a1_target || self.am.is_empty() => {
                self.a1.first().map(|p| p.key)
            }
            PolicyKind::TwoQ => self.am.first().map(|p| p.key),
        }
    }

    fn insert(&mut self, key: PageKey, dirty: bool) -> Option<Evicted> {
        if let Some(page) = self.page_mut(key) {
            page.dirty |= dirty;
            self.hit(key);
            return None;
        }
        let mut evicted = None;
        if self.len() >= self.capacity {
            if let Some(victim) = self.victim() {
                let page = self.take(victim).unwrap();
                self.stamp(victim.inode);
                evicted = Some(Evicted {
                    key: victim,
                    dirty: page.dirty,
                });
            }
        }
        self.a1.push(Page {
            key,
            dirty,
            referenced: false,
        });
        self.stamp(key.inode);
        evicted
    }

    /// `insert_run` by its definition: the loop over `insert` that collects
    /// the victims and stops after the insert whose victim was dirty — or,
    /// under a [`Flaw`], not quite that.
    fn insert_run(
        &mut self,
        (inode, first, n): (u64, u64, u64),
        dirty: bool,
        flaw: Flaw,
    ) -> (Vec<Evicted>, u64) {
        let mut victims = Vec::new();
        let (mut inserted, mut entered) = (0, 0u64);
        let mut inserts_left = n;
        while inserts_left > 0 {
            inserts_left -= 1;
            let key = PageKey::new(inode, first + inserted);
            inserted += 1;
            entered += u64::from(self.page(key).is_none());
            if let Some(ev) = self.insert(key, dirty) {
                victims.push(ev);
                if ev.dirty {
                    inserts_left = inserts_left.min(u64::from(flaw == Flaw::StopsOneInsertLate));
                }
            }
        }
        if flaw == Flaw::StampsOncePerRun {
            *self.generation.entry(inode).or_default() -= entered.saturating_sub(1);
        }
        (victims, inserted)
    }

    fn remove(&mut self, key: PageKey) -> Option<bool> {
        let page = self.take(key)?;
        self.stamp(key.inode);
        Some(page.dirty)
    }

    /// Drops a file's pages, returning the dirty ones in page order.
    fn remove_file(&mut self, inode: u64) -> Vec<PageKey> {
        let mut pages: Vec<PageKey> = self.pages().map(|p| p.key).collect();
        pages.retain(|k| k.inode == inode);
        pages.sort();
        pages.retain(|&k| self.remove(k) == Some(true));
        pages
    }

    fn clear(&mut self) {
        let pages: Vec<PageKey> = self.pages().map(|p| p.key).collect();
        for key in pages {
            self.remove(key);
        }
    }

    fn eviction_rank(&self, key: PageKey) -> Option<usize> {
        let at = self.a1.iter().position(|p| p.key == key)?;
        match self.kind {
            PolicyKind::Lru | PolicyKind::Fifo => Some(at),
            PolicyKind::Mru => Some(self.a1.len() - 1 - at),
            PolicyKind::Clock | PolicyKind::TwoQ => None,
        }
    }
}

/// Every policy agrees with its model on everything the cache reports,
/// after every step: what a lookup returns, which page an insert evicts
/// and whether it was dirty, what a run of inserts evicts and where it
/// stops, each page's rank, the counters, and each inode's generation; and
/// the cache never holds more than its capacity.
/// Three files share the cache, pages are removed one at a time, a file at
/// a time and all at once, and come back. One case in eight is a 512-page
/// cache under runs of up to 600 pages; the rest are caches of 1–13 pages
/// under runs of up to 30, so most runs are longer than the cache, evict
/// their own head and meet pages that are already resident.
fn order_exact(rng: &mut DetRng, flaw: Flaw) {
    const INODES: std::ops::Range<u64> = 1..4;
    let kind = PolicyKind::all()[rng.range_usize(0, 5)];
    let big = rng.range_u64(0, 8) == 0;
    let (capacity, pages, max_run, steps) = if big {
        (512, 700, 600, rng.range_usize(0, 40))
    } else {
        (rng.range_usize(1, 14), 24, 30, rng.range_usize(0, 400))
    };
    let mut real = PageCache::new(capacity, kind);
    let mut model = Model::new(kind, capacity);
    for step in 0..steps {
        let key = PageKey::new(
            rng.range_u64(INODES.start, INODES.end),
            rng.range_u64(0, pages),
        );
        let at = || format!("{} of {capacity}, step {step}, {key:?}", kind.name());
        match rng.range_u64(0, 84) {
            0..=24 => assert_eq!(real.lookup(key), model.lookup(key), "{}", at()),
            25..=44 => {
                let dirty = rng.chance(0.3);
                assert_eq!(
                    real.insert(key, dirty),
                    model.insert(key, dirty),
                    "{}",
                    at()
                );
            }
            45..=64 => {
                // As the kernel calls it: again from where it stopped,
                // until the whole run is in.
                let n = rng.range_u64(0, max_run.min(pages - key.index) + 1);
                let dirty = rng.chance(0.3);
                let mut done = 0;
                loop {
                    let run = (key.inode, key.index + done, n - done);
                    let mut victims = Vec::new();
                    let inserted = real.insert_run(run.0, run.1, run.2, dirty, &mut victims);
                    let want = model.insert_run(run, dirty, flaw);
                    assert_eq!((victims, inserted), want, "{}: run {run:?}", at());
                    done += inserted;
                    if done >= n {
                        break;
                    }
                }
            }
            65..=76 => assert_eq!(real.remove(key), model.remove(key), "{}", at()),
            77..=81 => assert_eq!(
                real.remove_file(key.inode),
                model.remove_file(key.inode),
                "{}",
                at()
            ),
            _ => {
                real.clear();
                model.clear();
            }
        }
        assert_eq!(real.len(), model.len(), "{}", at());
        assert!(real.len() <= capacity, "{}: overflowed", at());
        let dirty = model.pages().filter(|p| p.dirty).count();
        assert_eq!(real.dirty_count(), dirty as u64, "{}", at());
        let want: std::collections::BTreeMap<PageKey, (Page, Option<usize>)> = model
            .pages()
            .map(|p| (p.key, (*p, model.eviction_rank(p.key))))
            .collect();
        for inode in INODES {
            let stamp = model.generation.get(&inode).copied().unwrap_or(0);
            assert_eq!(real.generation(inode), stamp, "{}", at());
            // The slot table (`contains`) and the extents agree.
            let mut from_runs = vec![false; pages as usize];
            for page in real
                .resident_runs(inode, 0..=u64::MAX - 1)
                .into_iter()
                .flatten()
            {
                from_runs[page as usize] = true;
            }
            let ranks = real.eviction_ranks(inode, pages);
            for page in 0..pages {
                let k = PageKey::new(inode, page);
                let (want, rank) = want.get(&k).map_or((None, None), |(p, r)| (Some(p), *r));
                assert_eq!(real.contains(k), want.is_some(), "{}: {k:?}", at());
                assert_eq!(from_runs[page as usize], want.is_some(), "{}: {k:?}", at());
                assert_eq!(real.is_dirty(k), want.is_some_and(|p| p.dirty));
                assert_eq!(ranks[page as usize], rank, "{}: {k:?}", at());
                if !big {
                    assert_eq!(real.eviction_rank(k), rank, "{}: {k:?}", at());
                }
            }
        }
    }
}

#[test]
fn every_policy_matches_its_order_exact_model() {
    check::run("every_policy_matches_its_order_exact_model", |rng| {
        order_exact(rng, Flaw::None);
    });
}

/// The comparison is sharp enough to catch the two ways a run-granular
/// insert goes wrong quietly: a generation that counts calls instead of
/// pages, and a stop that comes one page after the dirty victim.
#[test]
fn the_model_comparison_catches_a_flawed_insert_run() {
    for flaw in [Flaw::StampsOncePerRun, Flaw::StopsOneInsertLate] {
        let caught = std::panic::catch_unwind(|| {
            check::run("the_model_comparison_catches_a_flawed_insert_run", |rng| {
                order_exact(rng, flaw);
            });
        });
        assert!(caught.is_err(), "{flaw:?} must fail the comparison");
    }
}

/// Structural invariants hold for every policy: capacity is respected,
/// stats add up, and reads after insert always hit.
#[test]
fn all_policies_respect_capacity_and_stats() {
    check::run("all_policies_respect_capacity_and_stats", |rng| {
        let kind = PolicyKind::all()[rng.range_usize(0, 5)];
        let capacity = 10;
        let mut cache = PageCache::new(capacity, kind);
        let nkeys = rng.range_usize(1, 300);
        let keys: Vec<u64> = (0..nkeys).map(|_| rng.range_u64(0, 64)).collect();
        for &k in &keys {
            let key = PageKey::new(1, k);
            if !cache.lookup(key) {
                cache.insert(key, false);
            }
            assert!(
                cache.contains(key),
                "{}: just-inserted page missing",
                kind.name()
            );
            assert!(cache.len() <= capacity, "{} overflowed", kind.name());
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, keys.len() as u64);
        assert_eq!(s.insertions, s.misses);
        assert!(s.evictions <= s.insertions);
    });
}

/// Dirty accounting: every dirty page is either still resident and
/// dirty, was evicted as dirty, or was explicitly cleaned/removed.
#[test]
fn dirty_pages_are_never_silently_lost() {
    check::run("dirty_pages_are_never_silently_lost", |rng| {
        let mut cache = PageCache::lru(4);
        let mut dirty_evicted = 0u64;
        let mut dirtied = std::collections::BTreeSet::new();
        let nops = rng.range_usize(1, 200);
        for _ in 0..nops {
            let k = rng.range_u64(0, 16);
            let dirty = rng.chance(0.5);
            let key = PageKey::new(1, k);
            if let Some(ev) = cache.insert(key, dirty) {
                if ev.dirty {
                    dirty_evicted += 1;
                    dirtied.remove(&ev.key.index);
                }
            }
            if dirty {
                dirtied.insert(k);
            }
            assert_eq!(cache.dirty_count(), dirtied.len() as u64);
        }
        let still_dirty = (0u64..16)
            .filter(|&k| cache.is_dirty(PageKey::new(1, k)))
            .count() as u64;
        assert_eq!(cache.stats().dirty_evictions, dirty_evicted);
        assert_eq!(still_dirty, dirtied.len() as u64);
    });
}

/// The extent index agrees with per-page `contains` on every inode after
/// arbitrary op sequences, and `next_boundary` marks true state changes.
#[test]
fn extent_index_matches_per_page_probes() {
    check::run("extent_index_matches_per_page_probes", |rng| {
        let mut cache = PageCache::lru(12);
        let nops = rng.range_usize(0, 250);
        for _ in 0..nops {
            match random_op(rng) {
                Op::Lookup(k) => {
                    cache.lookup(PageKey::new(1, k));
                }
                Op::Insert(k) => {
                    cache.insert(PageKey::new(1, k), rng.chance(0.3));
                }
                Op::Remove(k) => {
                    cache.remove(PageKey::new(1, k));
                }
                Op::Clear => cache.clear(),
            }
            // The running dirty counter is the sum over inodes, always.
            assert_eq!(
                cache.dirty_count(),
                cache.dirty_pages_of(1).len() as u64,
                "dirty_len drifted from the dirty extents"
            );
            assert_eq!(cache.dirty_pages(), cache.dirty_pages_of(1));
        }
        // Runs reported by the extent index must exactly tile the set of
        // pages that per-page probes report resident.
        let mut from_runs = [false; 40];
        for run in cache.resident_runs(1, 0..=39) {
            for p in run.clone() {
                assert!(!from_runs[p as usize], "overlapping runs at page {p}");
                from_runs[p as usize] = true;
            }
        }
        for k in 0u64..40 {
            assert_eq!(
                from_runs[k as usize],
                cache.contains(PageKey::new(1, k)),
                "extent/per-page disagreement at page {k}"
            );
        }
        // next_boundary always lands on a residency flip (or past the probe).
        for k in 0u64..40 {
            let b = cache.next_boundary(1, k);
            assert!(b > k, "boundary {b} not past probe {k}");
            let here = cache.contains(PageKey::new(1, k));
            for p in k..b.min(40) {
                assert_eq!(
                    cache.contains(PageKey::new(1, p)),
                    here,
                    "state flipped before boundary at {p}"
                );
            }
        }
    });
}
