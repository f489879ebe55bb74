//! The recency bookkeeping this crate used before the node slab — two
//! B-trees, key → stamp and stamp → key — kept as the oracle for LRU and
//! MRU: the slab must pick the same victim at the same step on every op
//! sequence, or a virtual metric somewhere moves.

use std::collections::{BTreeMap, BTreeSet};

use sleds_sim_core::DetRng;

use crate::{Evicted, PageCache, PageKey, PolicyKind};

#[derive(Default)]
struct RecencyList {
    seq: u64,
    by_key: BTreeMap<PageKey, u64>,
    by_seq: BTreeMap<u64, PageKey>,
}

impl RecencyList {
    fn touch(&mut self, key: PageKey) {
        if let Some(old) = self.by_key.insert(key, self.seq) {
            self.by_seq.remove(&old);
        }
        self.by_seq.insert(self.seq, key);
        self.seq += 1;
    }

    fn remove(&mut self, key: PageKey) -> bool {
        match self.by_key.remove(&key) {
            Some(s) => self.by_seq.remove(&s).is_some(),
            None => false,
        }
    }

    fn oldest(&mut self) -> Option<PageKey> {
        let (_, k) = self.by_seq.pop_first()?;
        self.by_key.remove(&k);
        Some(k)
    }

    fn newest(&mut self) -> Option<PageKey> {
        let (_, k) = self.by_seq.pop_last()?;
        self.by_key.remove(&k);
        Some(k)
    }

    fn rank_from_oldest(&self, key: PageKey) -> Option<usize> {
        let seq = *self.by_key.get(&key)?;
        Some(self.by_seq.range(..seq).count())
    }

    fn rank_from_newest(&self, key: PageKey) -> Option<usize> {
        let seq = *self.by_key.get(&key)?;
        Some(self.by_seq.range(seq + 1..).count())
    }
}

/// The old cache, reduced to what decides a victim: the list and the
/// dirty bits it reports.
struct TwoMapCache {
    mru: bool,
    capacity: usize,
    list: RecencyList,
    dirty: BTreeSet<PageKey>,
}

impl TwoMapCache {
    fn new(capacity: usize, mru: bool) -> Self {
        TwoMapCache {
            mru,
            capacity,
            list: RecencyList::default(),
            dirty: BTreeSet::new(),
        }
    }

    fn len(&self) -> usize {
        self.list.by_key.len()
    }

    fn contains(&self, key: PageKey) -> bool {
        self.list.by_key.contains_key(&key)
    }

    fn lookup(&mut self, key: PageKey) -> bool {
        let hit = self.contains(key);
        if hit {
            self.list.touch(key);
        }
        hit
    }

    fn insert(&mut self, key: PageKey, dirty: bool) -> Option<Evicted> {
        let mut evicted = None;
        if !self.contains(key) && self.len() >= self.capacity {
            let victim = if self.mru {
                self.list.newest()
            } else {
                self.list.oldest()
            };
            evicted = victim.map(|v| Evicted {
                key: v,
                dirty: self.dirty.remove(&v),
            });
        }
        self.list.touch(key);
        if dirty {
            self.dirty.insert(key);
        }
        evicted
    }

    /// `insert_run` as `PageCache` defines it: the loop over `insert`.
    fn insert_run(&mut self, inode: u64, first: u64, n: u64, dirty: bool) -> (Vec<Evicted>, u64) {
        let mut victims = Vec::new();
        for i in 0..n {
            if let Some(ev) = self.insert(PageKey::new(inode, first + i), dirty) {
                victims.push(ev);
                if ev.dirty {
                    return (victims, i + 1);
                }
            }
        }
        (victims, n)
    }

    fn remove(&mut self, key: PageKey) -> Option<bool> {
        if !self.list.remove(key) {
            return None;
        }
        Some(self.dirty.remove(&key))
    }

    fn eviction_rank(&self, key: PageKey) -> Option<usize> {
        if self.mru {
            self.list.rank_from_newest(key)
        } else {
            self.list.rank_from_oldest(key)
        }
    }

    fn clear(&mut self) {
        *self = TwoMapCache::new(self.capacity, self.mru);
    }
}

/// 10⁵ seeded ops per policy: every answer the two caches give — hit or
/// miss, the victim and its dirty bit, the victims of a run of inserts and
/// where it stopped, ranks, counts — is the same at every step.
#[test]
fn lru_and_mru_evict_as_the_two_map_list_did() {
    for (kind, mru) in [(PolicyKind::Lru, false), (PolicyKind::Mru, true)] {
        let mut rng = DetRng::new(0x2_3A9).derive(kind as u64);
        let mut new = PageCache::new(48, kind);
        let mut old = TwoMapCache::new(48, mru);
        let mut evictions = 0u64;
        for step in 0..100_000 {
            let inode = rng.range_u64(1, 5);
            let key = PageKey::new(inode, rng.range_u64(0, 40));
            let at = || format!("{} step {step}: {key:?}", kind.name());
            match rng.range_u64(0, 910) {
                0..=399 => assert_eq!(new.lookup(key), old.lookup(key), "{}", at()),
                400..=719 => {
                    let dirty = rng.chance(0.3);
                    let ev = new.insert(key, dirty);
                    assert_eq!(ev, old.insert(key, dirty), "{}", at());
                    evictions += u64::from(ev.is_some());
                }
                720..=799 => {
                    // Up to 60 pages into a 48-page cache, from `key` on.
                    let (n, dirty) = (rng.range_u64(1, 61), rng.chance(0.2));
                    let mut victims = Vec::new();
                    let inserted = new.insert_run(inode, key.index, n, dirty, &mut victims);
                    evictions += victims.len() as u64;
                    let want = old.insert_run(inode, key.index, n, dirty);
                    assert_eq!((victims, inserted), want, "{}: run of {n}", at());
                }
                800..=899 => assert_eq!(new.remove(key), old.remove(key), "{}", at()),
                900..=907 => {
                    let mut dirty = new.remove_file(inode);
                    dirty.sort();
                    let pages: Vec<PageKey> = old
                        .list
                        .by_key
                        .keys()
                        .copied()
                        .filter(|k| k.inode == inode)
                        .collect();
                    let was_dirty: Vec<PageKey> = pages
                        .into_iter()
                        .filter(|&k| old.remove(k) == Some(true))
                        .collect();
                    assert_eq!(dirty, was_dirty, "{}", at());
                }
                _ => {
                    new.clear();
                    old.clear();
                }
            }
            let probe = PageKey::new(rng.range_u64(1, 5), rng.range_u64(0, 40));
            assert_eq!(
                new.eviction_rank(probe),
                old.eviction_rank(probe),
                "{}",
                at()
            );
            assert_eq!(new.contains(probe), old.contains(probe), "{}", at());
            assert_eq!(new.len(), old.len(), "{}", at());
            assert_eq!(new.dirty_count(), old.dirty.len() as u64, "{}", at());
        }
        assert!(evictions > 10_000, "{}: {evictions}", kind.name());
    }
}
