//! Model-based property tests: the LRU policy against a straightforward
//! reference implementation, and structural invariants for every policy.
//!
//! Runs under the in-repo `check` harness; enable with
//! `cargo test -p sleds-pagecache --features proptests`.

use sleds_pagecache::{PageCache, PageKey, PolicyKind};
use sleds_sim_core::{check, DetRng};

/// Operations the model exercises.
#[derive(Clone, Debug)]
enum Op {
    Lookup(u64),
    Insert(u64),
    Remove(u64),
    Pin(u64),
    Unpin(u64),
    Clear,
}

fn random_op(rng: &mut DetRng) -> Op {
    let k = rng.range_u64(0, 32);
    match rng.range_u64(0, 16) {
        0..=2 => Op::Lookup(k),
        3..=5 => Op::Insert(k),
        6..=8 => Op::Remove(k),
        9..=11 => Op::Pin(k),
        12..=14 => Op::Unpin(k),
        _ => Op::Clear,
    }
}

/// A trivially-correct LRU cache: Vec ordered oldest-first.
#[derive(Default)]
struct ModelLru {
    order: Vec<u64>, // resident, oldest first
    pinned: std::collections::BTreeSet<u64>,
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
        let mut evicted = None;
        if self.order.len() >= self.capacity {
            // Oldest unpinned page goes; pinned pages are skipped but keep
            // their refreshed position (mirroring the real cache, which
            // reinserts skipped pins at MRU).
            if let Some(idx) = self.order.iter().position(|x| !self.pinned.contains(x)) {
                let victim = self.order.remove(idx);
                let skipped: Vec<u64> = self.order.drain(..idx.min(self.order.len())).collect();
                for s in skipped {
                    self.order.push(s);
                }
                evicted = Some(victim);
            }
        }
        self.order.push(k);
        evicted
    }

    fn remove(&mut self, k: u64) {
        self.order.retain(|&x| x != k);
        self.pinned.remove(&k);
    }

    fn resident(&self) -> std::collections::BTreeSet<u64> {
        self.order.iter().copied().collect()
    }
}

/// The real LRU cache and the reference model agree on residency after
/// any op sequence (evictions compared implicitly through residency), and
/// the residency generation moves by exactly the number of pages that
/// entered or left the model's resident set — never on a no-op, never by
/// less than the change.
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
                Op::Pin(k) => {
                    let r = real.pin(PageKey::new(1, k));
                    if r {
                        model.pinned.insert(k);
                    }
                    assert_eq!(r, model.order.contains(&k));
                }
                Op::Unpin(k) => {
                    real.unpin(PageKey::new(1, k));
                    model.pinned.remove(&k);
                }
                Op::Clear => {
                    real.clear();
                    model.order.clear();
                    model.pinned.clear();
                }
            }
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

/// Structural invariants hold for every policy: capacity is respected
/// (absent pins), stats add up, and reads after insert always hit.
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
                Op::Pin(k) => {
                    cache.pin(PageKey::new(1, k));
                }
                Op::Unpin(k) => {
                    cache.unpin(PageKey::new(1, k));
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
        let mut from_runs = vec![false; 40];
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
