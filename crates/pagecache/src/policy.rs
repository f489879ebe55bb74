//! Replacement policies for the buffer cache, as list disciplines over one
//! node slab.
//!
//! LRU is the default (and what the paper's Figure 3 assumes). The others
//! exist for the ablation benchmarks: Clock approximates LRU the way real
//! kernels do, FIFO ignores recency, MRU is the pathological-for-scans
//! opposite, and 2Q resists exactly the sequential-flood behaviour SLEDs
//! exploits — making it an interesting counterfactual.
//!
//! Every resident page is one `Node` in a `Vec`, linked by index into a
//! doubly linked list; the cache's per-inode slot table maps a page to its
//! node id, so a hit is a splice and never a search. A removed page is
//! unlinked on the spot, so a queue holds exactly the resident pages: no
//! stale entry can bring a page back at the position it had before it left.
//! The policies differ only in what a hit does to the list and which end a
//! victim comes from:
//!
//! | kind  | hit                         | victim                                   |
//! |-------|-----------------------------|------------------------------------------|
//! | LRU   | move to tail                | head                                     |
//! | MRU   | move to tail                | tail                                     |
//! | FIFO  | nothing                     | head                                     |
//! | Clock | set the reference bit       | first unreferenced from the head; the hand clears bits and re-queues as it passes |
//! | 2Q    | move to the tail of `am`    | head of `a1` while it is at its target length, else head of `am`, else head of `a1` |
//!
//! Eviction order is list order. Nothing is iterated by address or hash, so
//! the victim sequence is a pure function of the operation sequence.

use crate::PageKey;

/// Selects a replacement policy.
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

/// Index of a node in the slab.
pub(crate) type NodeId = u32;

/// "No node": list ends and the empty free list.
const NIL: NodeId = NodeId::MAX;

/// Node flag, Clock: referenced since the hand last passed.
const REFERENCED: u8 = 1;
/// Node flag, 2Q: on the main list `am` rather than on probation in `a1`.
const MAIN: u8 = 2;

/// One resident page. A free node keeps its slot in the slab and is
/// chained through `next`.
#[derive(Clone, Copy, Debug)]
struct Node {
    key: PageKey,
    prev: NodeId,
    next: NodeId,
    flags: u8,
}

/// One doubly linked list threaded through the slab.
#[derive(Clone, Copy, Debug)]
struct List {
    head: NodeId,
    tail: NodeId,
    len: usize,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
    len: 0,
};

/// The resident pages in replacement order.
///
/// Memory is one 32-byte node per page of the cache's high-water mark; a
/// node freed by an eviction is the next one handed out.
#[derive(Debug)]
pub(crate) struct Recency {
    kind: PolicyKind,
    /// 2Q: the probation queue gives up victims once it is this long (a
    /// quarter of the cache).
    a1_target: usize,
    nodes: Vec<Node>,
    free: NodeId,
    /// `[a1, am]`. Only 2Q uses `am`; the other four keep one list.
    lists: [List; 2],
}

impl Recency {
    /// An empty order for a cache of `capacity` pages under `kind`.
    pub(crate) fn new(kind: PolicyKind, capacity: usize) -> Self {
        Recency {
            kind,
            a1_target: (capacity / 4).max(1),
            nodes: Vec::new(),
            free: NIL,
            lists: [EMPTY; 2],
        }
    }

    pub(crate) fn kind(&self) -> PolicyKind {
        self.kind
    }

    pub(crate) fn key(&self, id: NodeId) -> PageKey {
        self.nodes[id as usize].key
    }

    fn unlink(&mut self, id: NodeId) {
        let Node {
            prev, next, flags, ..
        } = self.nodes[id as usize];
        let list = &mut self.lists[usize::from(flags & MAIN != 0)];
        list.len -= 1;
        match prev {
            NIL => list.head = next,
            _ => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => list.tail = prev,
            _ => self.nodes[next as usize].prev = prev,
        }
    }

    /// Links an unlinked node at the tail of `a1` (`flag == 0`) or `am`
    /// (`flag == MAIN`).
    fn push_back(&mut self, id: NodeId, flag: u8) {
        let list = &mut self.lists[usize::from(flag != 0)];
        let tail = std::mem::replace(&mut list.tail, id);
        list.len += 1;
        match tail {
            NIL => list.head = id,
            _ => self.nodes[tail as usize].next = id,
        }
        let node = &mut self.nodes[id as usize];
        node.prev = tail;
        node.next = NIL;
        node.flags = (node.flags & !MAIN) | flag;
    }

    fn move_to_tail(&mut self, id: NodeId, flag: u8) {
        // A node is the tail of a list only while it is on that list.
        if self.lists[usize::from(flag != 0)].tail != id {
            self.unlink(id);
            self.push_back(id, flag);
        }
    }

    /// A page became resident: a node for it, at the newest end.
    pub(crate) fn insert(&mut self, key: PageKey) -> NodeId {
        let node = Node {
            key,
            prev: NIL,
            next: NIL,
            flags: 0,
        };
        let id = match self.free {
            NIL => {
                let id = NodeId::try_from(self.nodes.len()).unwrap_or(NIL);
                assert!(id != NIL, "page cache holds at most u32::MAX - 1 pages");
                self.nodes.push(node);
                id
            }
            id => {
                self.free = self.nodes[id as usize].next;
                self.nodes[id as usize] = node;
                id
            }
        };
        self.push_back(id, 0);
        id
    }

    /// A resident page was referenced.
    pub(crate) fn hit(&mut self, id: NodeId) {
        match self.kind {
            PolicyKind::Lru | PolicyKind::Mru => self.move_to_tail(id, 0),
            PolicyKind::Fifo => {}
            PolicyKind::Clock => self.nodes[id as usize].flags |= REFERENCED,
            // Out of probation on the first re-reference, refreshed after.
            PolicyKind::TwoQ => self.move_to_tail(id, MAIN),
        }
    }

    /// The page the policy would discard next, still linked; the caller
    /// [`Recency::remove`]s it. `None` only when nothing is resident.
    pub(crate) fn victim(&mut self) -> Option<NodeId> {
        let [a1, am] = self.lists;
        let id = match self.kind {
            PolicyKind::Lru | PolicyKind::Fifo => a1.head,
            PolicyKind::Mru => a1.tail,
            PolicyKind::Clock => loop {
                // Each step finds a victim or clears a bit, and bits are
                // only set by hits, so the hand stops within two laps.
                let head = self.lists[0].head;
                if head == NIL || self.nodes[head as usize].flags & REFERENCED == 0 {
                    break head;
                }
                self.nodes[head as usize].flags &= !REFERENCED;
                self.move_to_tail(head, 0);
            },
            PolicyKind::TwoQ if a1.len >= self.a1_target || am.head == NIL => a1.head,
            PolicyKind::TwoQ => am.head,
        };
        (id != NIL).then_some(id)
    }

    /// A page left the cache, by eviction or otherwise.
    pub(crate) fn remove(&mut self, id: NodeId) {
        self.unlink(id);
        self.nodes[id as usize].next = self.free;
        self.free = id;
    }

    /// Every page left at once.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.lists = [EMPTY; 2];
    }

    /// The resident pages from the next victim on, when the order does not
    /// depend on future references: LRU, MRU and FIFO. Clock and 2Q cannot
    /// say and return `None`.
    pub(crate) fn eviction_order(&self) -> Option<impl Iterator<Item = NodeId> + '_> {
        let backward = match self.kind {
            PolicyKind::Lru | PolicyKind::Fifo => false,
            PolicyKind::Mru => true,
            PolicyKind::Clock | PolicyKind::TwoQ => return None,
        };
        let first = if backward {
            self.lists[0].tail
        } else {
            self.lists[0].head
        };
        Some(std::iter::successors(
            (first != NIL).then_some(first),
            move |&id| {
                let node = &self.nodes[id as usize];
                let after = if backward { node.prev } else { node.next };
                (after != NIL).then_some(after)
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageCache;

    fn key(i: u64) -> PageKey {
        PageKey::new(9, i)
    }

    /// A `kind` cache of `capacity` pages holding pages `0..capacity`,
    /// inserted in that order.
    fn full(kind: PolicyKind, capacity: u64) -> PageCache {
        let mut c = PageCache::new(capacity as usize, kind);
        for i in 0..capacity {
            assert_eq!(c.insert(key(i), false), None);
        }
        c
    }

    /// Inserts a page not seen before and returns the page that made room.
    fn push_out(c: &mut PageCache, fresh: u64) -> u64 {
        let ev = c.insert(key(fresh), false).expect("cache is full");
        assert_eq!(ev.key.inode, 9);
        ev.key.index
    }

    #[test]
    fn lru_order() {
        let mut c = full(PolicyKind::Lru, 3);
        assert!(c.lookup(key(0)));
        assert_eq!(push_out(&mut c, 10), 1);
        assert_eq!(push_out(&mut c, 11), 2);
        assert_eq!(push_out(&mut c, 12), 0);
        assert_eq!(push_out(&mut c, 13), 10);
    }

    #[test]
    fn mru_order() {
        let mut c = full(PolicyKind::Mru, 3);
        assert_eq!(push_out(&mut c, 10), 2);
        assert!(c.lookup(key(0)));
        assert_eq!(push_out(&mut c, 11), 0);
        // Left: 11 (newest), 10, and 1, the oldest, last out.
        assert_eq!(c.eviction_rank(key(1)), Some(2));
        assert_eq!(push_out(&mut c, 12), 11);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut c = full(PolicyKind::Fifo, 2);
        assert!(c.lookup(key(0)));
        assert!(c.lookup(key(0)));
        assert_eq!(push_out(&mut c, 10), 0);
    }

    #[test]
    fn fifo_skips_removed() {
        let mut c = full(PolicyKind::Fifo, 2);
        assert_eq!(c.remove(key(0)), Some(false));
        assert_eq!(c.insert(key(10), false), None, "the removal made room");
        assert_eq!(push_out(&mut c, 11), 1);
        assert_eq!(push_out(&mut c, 12), 10);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut c = full(PolicyKind::Clock, 2);
        assert!(c.lookup(key(0)));
        // 0 is referenced: hand clears it and takes 1.
        assert_eq!(push_out(&mut c, 10), 1);
        // Next eviction takes 0 (bit now cleared).
        assert_eq!(push_out(&mut c, 11), 0);
    }

    #[test]
    fn clock_handles_out_of_band_removal() {
        let mut c = full(PolicyKind::Clock, 2);
        assert!(c.lookup(key(0)));
        assert_eq!(c.remove(key(0)), Some(false));
        assert_eq!(c.insert(key(10), false), None);
        assert_eq!(push_out(&mut c, 11), 1);
        // A page that comes back starts unreferenced, at the tail.
        assert_eq!(c.insert(key(0), false).map(|e| e.key), Some(key(10)));
        assert_eq!(push_out(&mut c, 12), 11);
        assert_eq!(push_out(&mut c, 13), 0);
    }

    #[test]
    fn twoq_promotes_on_probation_hit() {
        let mut c = full(PolicyKind::TwoQ, 8); // a1 target = 2
        for i in 0..7 {
            assert!(c.lookup(key(i))); // promoted to Am
        }
        // a1 = {7} is below target, so the main queue's cold end yields.
        assert_eq!(push_out(&mut c, 10), 0);
        // a1 = {7, 10} at target; evict from probation FIFO.
        assert_eq!(push_out(&mut c, 11), 7);
        assert_eq!(push_out(&mut c, 12), 10);
        // A main-queue hit refreshes: 1 is no longer the cold end.
        assert!(c.lookup(key(1)));
        assert!(c.lookup(key(11)) && c.lookup(key(12)));
        assert_eq!(push_out(&mut c, 13), 2);
        // With probation emptied by a promotion the main queue yields again.
        assert!(c.lookup(key(13)));
        assert_eq!(push_out(&mut c, 14), 3);
    }

    #[test]
    fn twoq_scan_resistance() {
        // A hot page that is re-referenced survives a long sequential scan.
        let mut c = PageCache::new(4, PolicyKind::TwoQ); // a1 target 1
        c.insert(key(100), false);
        assert!(c.lookup(key(100))); // hot, promoted
        for i in 0..64 {
            let ev = c.insert(key(i), false);
            assert_ne!(
                ev.map(|e| e.key),
                Some(key(100)),
                "scan must not evict the hot page"
            );
        }
        assert!(c.contains(key(100)));
        assert_eq!(c.stats().evictions, 61);
    }

    #[test]
    fn eviction_ranks_predict_order() {
        let mut c = full(PolicyKind::Lru, 5);
        c.lookup(key(0)); // 0 becomes newest
        assert_eq!(c.eviction_rank(key(1)), Some(0));
        assert_eq!(c.eviction_rank(key(0)), Some(4));
        assert_eq!(c.eviction_rank(key(9)), None);
        // One walk gives the whole file's ranks, and only that file's.
        c.remove(key(3));
        c.insert(PageKey::new(4, 2), false);
        assert_eq!(
            c.eviction_ranks(9, 7),
            [Some(3), Some(0), Some(1), None, Some(2), None, None]
        );
        assert_eq!(c.eviction_ranks(9, 2), [Some(3), Some(0)]);
        assert_eq!(c.eviction_ranks(4, 3), [None, None, Some(4)]);
        assert_eq!(c.eviction_ranks(5, 2), [None, None]);
        // The rank-0 page is indeed the next victim.
        assert_eq!(push_out(&mut c, 10), 1);

        let mut f = full(PolicyKind::Fifo, 3);
        f.remove(key(0));
        f.lookup(key(1));
        assert_eq!(f.eviction_rank(key(1)), Some(0));
        assert_eq!(f.eviction_rank(key(2)), Some(1));
        assert_eq!(f.eviction_rank(key(0)), None);
        assert_eq!(f.eviction_ranks(9, 3), [None, Some(0), Some(1)]);

        let m = full(PolicyKind::Mru, 2);
        assert_eq!(m.eviction_rank(key(1)), Some(0));
        assert_eq!(m.eviction_rank(key(0)), Some(1));
        assert_eq!(m.eviction_ranks(9, 2), [Some(1), Some(0)]);

        // Clock and 2Q cannot predict without knowing future references.
        for kind in [PolicyKind::Clock, PolicyKind::TwoQ] {
            let c = full(kind, 1);
            assert_eq!(c.eviction_rank(key(0)), None);
            assert_eq!(c.eviction_ranks(9, 1), [None]);
        }
    }

    #[test]
    fn kind_builds_matching_names() {
        for kind in PolicyKind::all() {
            assert_eq!(PageCache::new(16, kind).policy_name(), kind.name());
        }
    }

    /// A page that left the cache and came back queues as a new page: it
    /// is not evicted from the position it held before it left. (FIFO,
    /// Clock and 2Q once kept the departed page's queue entry and evicted
    /// the returning page through it.)
    #[test]
    fn a_returning_page_queues_as_new() {
        for kind in PolicyKind::all() {
            // MRU takes the newest page either way; the others the oldest.
            let mru = kind == PolicyKind::Mru;

            let mut c = full(kind, 3);
            c.clear();
            for i in [2, 1, 0] {
                c.insert(key(i), false);
            }
            let want = if mru { 0 } else { 2 };
            assert_eq!(push_out(&mut c, 9), want, "{}: after clear", kind.name());

            let mut c = full(kind, 3);
            c.remove(key(0));
            c.insert(key(0), false);
            let want = if mru { 0 } else { 1 };
            assert_eq!(push_out(&mut c, 9), want, "{}: after remove", kind.name());
        }
    }

    /// Freed nodes are reused, so the slab stays at the cache's high-water
    /// mark however many pages pass through, with or without `clear`.
    #[test]
    fn the_slab_is_bounded_by_the_high_water_mark() {
        for kind in PolicyKind::all() {
            let mut r = Recency::new(kind, 4);
            for round in 0..50u64 {
                let ids: Vec<NodeId> = (0..4).map(|i| r.insert(key(round * 4 + i))).collect();
                r.hit(ids[1]);
                if round % 7 == 0 {
                    r.clear();
                    continue;
                }
                while let Some(id) = r.victim() {
                    r.remove(id);
                }
            }
            assert!(r.nodes.len() <= 4, "{}: {}", kind.name(), r.nodes.len());
            assert_eq!((r.lists[0].len, r.lists[1].len), (0, 0));
        }
    }
}
