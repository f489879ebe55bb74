//! Replacement policies for the buffer cache.
//!
//! LRU is the default (and what the paper's Figure 3 assumes). The others
//! exist for the ablation benchmarks: Clock approximates LRU the way real
//! kernels do, FIFO ignores recency, MRU is the pathological-for-scans
//! opposite, and 2Q resists exactly the sequential-flood behaviour SLEDs
//! exploits — making it an interesting counterfactual.

use std::collections::{BTreeMap, VecDeque};

use crate::PageKey;

/// A page replacement policy: told about insertions/hits, asked for victims.
///
/// The cache guarantees `evict` is only called when at least one page is
/// tracked, and `on_insert` is never called for an already-tracked page.
pub trait ReplacementPolicy {
    /// A new page became resident.
    fn on_insert(&mut self, key: PageKey);
    /// A resident page was referenced.
    fn on_hit(&mut self, key: PageKey);
    /// Chooses a page to discard.
    fn evict(&mut self) -> Option<PageKey>;
    /// A page was removed outside the eviction path (truncate, unmount).
    fn on_remove(&mut self, key: PageKey);
    /// Every page was removed at once: leaves the policy exactly as
    /// `on_remove` for each tracked page would, in one step.
    fn clear(&mut self);
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// How many evictions until this page would be chosen, if the policy
    /// can predict it (0 = next out). Recency/queue policies can; Clock and
    /// 2Q depend on future references and return `None`. This feeds the
    /// SLED *forecast* extension (the paper's "predict which pages of a
    /// file would be flushed from cache based on current page replacement
    /// algorithms").
    fn eviction_rank(&self, _key: PageKey) -> Option<usize> {
        None
    }
}

/// Selects a policy implementation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// Least recently used (simulator default).
    Lru,
    /// Clock / second chance.
    Clock,
    /// First in, first out.
    Fifo,
    /// Most recently used.
    Mru,
    /// Two-queue (Johnson & Shasha's simplified 2Q).
    TwoQ,
}

impl PolicyKind {
    /// Instantiates the policy for a cache of `capacity` pages.
    pub fn build(self, capacity: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicy::new()),
            PolicyKind::Clock => Box::new(ClockPolicy::new()),
            PolicyKind::Fifo => Box::new(FifoPolicy::new()),
            PolicyKind::Mru => Box::new(MruPolicy::new()),
            PolicyKind::TwoQ => Box::new(TwoQPolicy::new(capacity)),
        }
    }

    /// All kinds, for ablation sweeps.
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::Lru,
            PolicyKind::Clock,
            PolicyKind::Fifo,
            PolicyKind::Mru,
            PolicyKind::TwoQ,
        ]
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Clock => "clock",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Mru => "mru",
            PolicyKind::TwoQ => "2q",
        }
    }
}

/// Recency-ordered bookkeeping shared by LRU and MRU.
#[derive(Debug, Default)]
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

    fn remove(&mut self, key: PageKey) {
        if let Some(s) = self.by_key.remove(&key) {
            self.by_seq.remove(&s);
        }
    }

    fn clear(&mut self) {
        self.by_key.clear();
        self.by_seq.clear();
    }

    fn oldest(&mut self) -> Option<PageKey> {
        let (&s, &k) = self.by_seq.iter().next()?;
        self.by_seq.remove(&s);
        self.by_key.remove(&k);
        Some(k)
    }

    fn newest(&mut self) -> Option<PageKey> {
        let (&s, &k) = self.by_seq.iter().next_back()?;
        self.by_seq.remove(&s);
        self.by_key.remove(&k);
        Some(k)
    }

    /// Position from the oldest entry (0 = oldest). O(log n + rank).
    fn rank_from_oldest(&self, key: PageKey) -> Option<usize> {
        let seq = *self.by_key.get(&key)?;
        Some(self.by_seq.range(..seq).count())
    }

    /// Position from the newest entry (0 = newest).
    fn rank_from_newest(&self, key: PageKey) -> Option<usize> {
        let seq = *self.by_key.get(&key)?;
        Some(self.by_seq.range(seq + 1..).count())
    }
}

/// Least recently used.
#[derive(Debug, Default)]
pub struct LruPolicy {
    list: RecencyList,
}

impl LruPolicy {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        LruPolicy::default()
    }
}

impl ReplacementPolicy for LruPolicy {
    fn on_insert(&mut self, key: PageKey) {
        self.list.touch(key);
    }
    fn on_hit(&mut self, key: PageKey) {
        self.list.touch(key);
    }
    fn evict(&mut self) -> Option<PageKey> {
        self.list.oldest()
    }
    fn on_remove(&mut self, key: PageKey) {
        self.list.remove(key);
    }
    fn clear(&mut self) {
        self.list.clear();
    }
    fn name(&self) -> &'static str {
        "lru"
    }
    fn eviction_rank(&self, key: PageKey) -> Option<usize> {
        self.list.rank_from_oldest(key)
    }
}

/// Most recently used — evicts the page touched last. Pathological for most
/// workloads but optimal for cyclic scans slightly larger than the cache,
/// which is exactly the regime of the paper's experiments.
#[derive(Debug, Default)]
pub struct MruPolicy {
    list: RecencyList,
}

impl MruPolicy {
    /// Creates an empty MRU policy.
    pub fn new() -> Self {
        MruPolicy::default()
    }
}

impl ReplacementPolicy for MruPolicy {
    fn on_insert(&mut self, key: PageKey) {
        self.list.touch(key);
    }
    fn on_hit(&mut self, key: PageKey) {
        self.list.touch(key);
    }
    fn evict(&mut self) -> Option<PageKey> {
        self.list.newest()
    }
    fn on_remove(&mut self, key: PageKey) {
        self.list.remove(key);
    }
    fn clear(&mut self) {
        self.list.clear();
    }
    fn name(&self) -> &'static str {
        "mru"
    }
    fn eviction_rank(&self, key: PageKey) -> Option<usize> {
        self.list.rank_from_newest(key)
    }
}

/// First in, first out: eviction order is insertion order, hits are ignored.
#[derive(Debug, Default)]
// sledlint::allow(D009, mirrors cache contents; the cache's page budget is the bound)
pub struct FifoPolicy {
    queue: VecDeque<PageKey>,
    present: BTreeMap<PageKey, ()>,
}

impl FifoPolicy {
    /// Creates an empty FIFO policy.
    pub fn new() -> Self {
        FifoPolicy::default()
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn on_insert(&mut self, key: PageKey) {
        self.queue.push_back(key);
        self.present.insert(key, ());
    }
    fn on_hit(&mut self, _key: PageKey) {}
    fn evict(&mut self) -> Option<PageKey> {
        while let Some(k) = self.queue.pop_front() {
            if self.present.remove(&k).is_some() {
                return Some(k);
            }
        }
        None
    }
    fn on_remove(&mut self, key: PageKey) {
        // Lazy removal: leave the stale queue entry; evict() skips it.
        self.present.remove(&key);
    }
    fn clear(&mut self) {
        // Stale queue entries stay, as `on_remove` leaves them.
        self.present.clear();
    }
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn eviction_rank(&self, key: PageKey) -> Option<usize> {
        if !self.present.contains_key(&key) {
            return None;
        }
        let mut rank = 0;
        for k in &self.queue {
            if *k == key {
                return Some(rank);
            }
            if self.present.contains_key(k) {
                rank += 1;
            }
        }
        None
    }
}

/// Clock (second chance): a FIFO ring whose entries get a reference bit;
/// the hand skips (and clears) referenced pages once before evicting.
#[derive(Debug, Default)]
pub struct ClockPolicy {
    ring: VecDeque<PageKey>,
    referenced: BTreeMap<PageKey, bool>,
}

impl ClockPolicy {
    /// Creates an empty Clock policy.
    pub fn new() -> Self {
        ClockPolicy::default()
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn on_insert(&mut self, key: PageKey) {
        self.ring.push_back(key);
        self.referenced.insert(key, false);
    }
    fn on_hit(&mut self, key: PageKey) {
        if let Some(r) = self.referenced.get_mut(&key) {
            *r = true;
        }
    }
    fn evict(&mut self) -> Option<PageKey> {
        // Each lap either finds a victim or clears a referenced bit, so this
        // terminates: bits only get cleared here.
        while let Some(k) = self.ring.pop_front() {
            match self.referenced.get_mut(&k) {
                None => continue, // removed out-of-band
                Some(r) if *r => {
                    *r = false;
                    self.ring.push_back(k);
                }
                Some(_) => {
                    self.referenced.remove(&k);
                    return Some(k);
                }
            }
        }
        None
    }
    fn on_remove(&mut self, key: PageKey) {
        self.referenced.remove(&key);
    }
    fn clear(&mut self) {
        self.referenced.clear();
    }
    fn name(&self) -> &'static str {
        "clock"
    }
}

/// Simplified 2Q: newcomers enter a FIFO probation queue (`a1`, a quarter of
/// the cache); pages re-referenced while on probation are promoted to the
/// LRU main queue (`am`). Victims come from a too-long probation queue
/// first, otherwise from the main queue's cold end.
#[derive(Debug)]
pub struct TwoQPolicy {
    a1_target: usize,
    a1: VecDeque<PageKey>,
    a1_set: BTreeMap<PageKey, ()>,
    am: RecencyList,
    am_len: usize,
}

impl TwoQPolicy {
    /// Creates a 2Q policy for a cache of `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        TwoQPolicy {
            a1_target: (capacity / 4).max(1),
            a1: VecDeque::new(),
            a1_set: BTreeMap::new(),
            am: RecencyList::default(),
            am_len: 0,
        }
    }

    fn pop_a1(&mut self) -> Option<PageKey> {
        while let Some(k) = self.a1.pop_front() {
            if self.a1_set.remove(&k).is_some() {
                return Some(k);
            }
        }
        None
    }
}

impl ReplacementPolicy for TwoQPolicy {
    fn on_insert(&mut self, key: PageKey) {
        self.a1.push_back(key);
        self.a1_set.insert(key, ());
    }
    fn on_hit(&mut self, key: PageKey) {
        if self.a1_set.remove(&key).is_some() {
            // Promote out of probation; stale a1 queue entry skipped later.
            self.am.touch(key);
            self.am_len += 1;
        } else if self.am.by_key.contains_key(&key) {
            self.am.touch(key);
        }
    }
    fn evict(&mut self) -> Option<PageKey> {
        if self.a1_set.len() >= self.a1_target {
            if let Some(k) = self.pop_a1() {
                return Some(k);
            }
        }
        if let Some(k) = self.am.oldest() {
            self.am_len -= 1;
            return Some(k);
        }
        self.pop_a1()
    }
    fn on_remove(&mut self, key: PageKey) {
        if self.a1_set.remove(&key).is_none() && self.am.by_key.contains_key(&key) {
            self.am.remove(key);
            self.am_len -= 1;
        }
    }
    fn clear(&mut self) {
        self.a1_set.clear();
        self.am.clear();
        self.am_len = 0;
    }
    fn name(&self) -> &'static str {
        "2q"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PageKey {
        PageKey::new(9, i)
    }

    #[test]
    fn lru_order() {
        let mut p = LruPolicy::new();
        p.on_insert(key(0));
        p.on_insert(key(1));
        p.on_insert(key(2));
        p.on_hit(key(0));
        assert_eq!(p.evict(), Some(key(1)));
        assert_eq!(p.evict(), Some(key(2)));
        assert_eq!(p.evict(), Some(key(0)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn mru_order() {
        let mut p = MruPolicy::new();
        p.on_insert(key(0));
        p.on_insert(key(1));
        p.on_insert(key(2));
        assert_eq!(p.evict(), Some(key(2)));
        p.on_hit(key(0));
        assert_eq!(p.evict(), Some(key(0)));
        assert_eq!(p.evict(), Some(key(1)));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = FifoPolicy::new();
        p.on_insert(key(0));
        p.on_insert(key(1));
        p.on_hit(key(0));
        p.on_hit(key(0));
        assert_eq!(p.evict(), Some(key(0)));
    }

    #[test]
    fn fifo_skips_removed() {
        let mut p = FifoPolicy::new();
        p.on_insert(key(0));
        p.on_insert(key(1));
        p.on_remove(key(0));
        assert_eq!(p.evict(), Some(key(1)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = ClockPolicy::new();
        p.on_insert(key(0));
        p.on_insert(key(1));
        p.on_hit(key(0));
        // 0 is referenced: hand clears it and takes 1.
        assert_eq!(p.evict(), Some(key(1)));
        // Next eviction takes 0 (bit now cleared).
        assert_eq!(p.evict(), Some(key(0)));
    }

    #[test]
    fn clock_handles_out_of_band_removal() {
        let mut p = ClockPolicy::new();
        p.on_insert(key(0));
        p.on_insert(key(1));
        p.on_remove(key(0));
        assert_eq!(p.evict(), Some(key(1)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn twoq_promotes_on_probation_hit() {
        let mut p = TwoQPolicy::new(8); // a1 target = 2
        p.on_insert(key(0));
        p.on_insert(key(1));
        p.on_hit(key(0)); // promoted to Am
        p.on_insert(key(2));
        // a1 = {1, 2} at target; evict from probation FIFO.
        assert_eq!(p.evict(), Some(key(1)));
        // Probation is now below target, so the main queue yields next.
        assert_eq!(p.evict(), Some(key(0)));
        // Fallback drains the remaining probation page.
        assert_eq!(p.evict(), Some(key(2)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn twoq_scan_resistance() {
        // A hot page that is re-referenced survives a long sequential scan.
        let mut p = TwoQPolicy::new(4); // a1 target 1
        p.on_insert(key(100));
        p.on_hit(key(100)); // hot, promoted
        for i in 0..64 {
            p.on_insert(key(i));
            let v = p.evict().unwrap();
            assert_ne!(v, key(100), "scan must not evict the hot page");
        }
    }

    #[test]
    fn eviction_ranks_predict_order() {
        let mut p = LruPolicy::new();
        for i in 0..5 {
            p.on_insert(key(i));
        }
        p.on_hit(key(0)); // 0 becomes newest
        assert_eq!(p.eviction_rank(key(1)), Some(0));
        assert_eq!(p.eviction_rank(key(0)), Some(4));
        assert_eq!(p.eviction_rank(key(9)), None);
        // The rank-0 page is indeed the next victim.
        assert_eq!(p.evict(), Some(key(1)));

        let mut f = FifoPolicy::new();
        f.on_insert(key(0));
        f.on_insert(key(1));
        f.on_insert(key(2));
        f.on_remove(key(0));
        assert_eq!(f.eviction_rank(key(1)), Some(0));
        assert_eq!(f.eviction_rank(key(2)), Some(1));
        assert_eq!(f.eviction_rank(key(0)), None);

        let mut m = MruPolicy::new();
        m.on_insert(key(0));
        m.on_insert(key(1));
        assert_eq!(m.eviction_rank(key(1)), Some(0));
        assert_eq!(m.eviction_rank(key(0)), Some(1));

        // Clock cannot predict without knowing future references.
        let mut c = ClockPolicy::new();
        c.on_insert(key(0));
        assert_eq!(c.eviction_rank(key(0)), None);
    }

    #[test]
    fn kind_builds_matching_names() {
        for kind in PolicyKind::all() {
            let p = kind.build(16);
            assert_eq!(p.name(), kind.name());
        }
    }
}
