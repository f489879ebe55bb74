//! Run-length extent sets over page indices.
//!
//! The residency index the paper's `FSLEDS_GET` path needs: membership of a
//! set of pages stored as sorted, coalesced `(start, length)` runs in a
//! `BTreeMap`, so range queries cost O(log runs + runs-in-range) instead of
//! one probe per page. This is the same shape real kernels use for the page
//! cache (radix tree / xarray ranges) and what log-structured systems keep
//! for allocation maps.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// A set of page indices stored as disjoint, non-adjacent runs.
///
/// Invariant: for consecutive runs `(s1, l1)` and `(s2, l2)`,
/// `s1 + l1 < s2` — adjacent runs are always coalesced on insert.
#[derive(Clone, Debug, Default)]
pub struct ExtentSet {
    /// `start -> length` (pages), keys sorted, runs disjoint and separated.
    runs: BTreeMap<u64, u64>,
    /// Total pages across runs.
    pages: u64,
}

impl ExtentSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ExtentSet::default()
    }

    /// True when no page is in the set.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of runs (level transitions / 2, roughly).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of pages in the set.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// The run containing `page`, if any.
    fn run_of(&self, page: u64) -> Option<(u64, u64)> {
        self.runs
            .range(..=page)
            .next_back()
            .map(|(&s, &l)| (s, l))
            .filter(|&(s, l)| page - s < l)
    }

    /// Membership probe: O(log runs).
    pub fn contains(&self, page: u64) -> bool {
        self.run_of(page).is_some()
    }

    /// Inserts `page`, coalescing with adjacent runs. Returns true when the
    /// page was not already present.
    pub fn insert(&mut self, page: u64) -> bool {
        self.insert_range(page, 1) == 1
    }

    /// Inserts pages `first .. first + n`, coalescing with every run they
    /// touch or overlap. Returns how many were not already present.
    /// O(log runs) plus the runs swallowed whole.
    pub fn insert_range(&mut self, first: u64, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        assert!(
            n <= u64::MAX - first,
            "u64::MAX is reserved as the no-boundary sentinel"
        );
        let end = first + n;
        // Runs starting inside `(first, end]` are swallowed; the last one
        // may reach past `end`.
        let (mut new_end, mut had) = (end, 0);
        while let Some((&s, &l)) = self.runs.range(first + 1..=end).next() {
            self.runs.remove(&s);
            had += (s + l).min(end) - s;
            new_end = new_end.max(s + l);
        }
        // A run starting at or before `first` that reaches it grows in
        // place; otherwise the range is a run of its own.
        match self.runs.range_mut(..=first).next_back() {
            Some((&s, l)) if s + *l >= first => {
                had += (s + *l).min(end) - first;
                *l = new_end.max(s + *l) - s;
            }
            _ => {
                self.runs.insert(first, new_end - first);
            }
        }
        self.pages += n - had;
        n - had
    }

    /// Removes `page`, splitting its run if needed. Returns true when the
    /// page was present.
    pub fn remove(&mut self, page: u64) -> bool {
        self.remove_range(page, 1) == 1
    }

    /// Removes pages `first .. first + n`, trimming or splitting the runs
    /// at either edge. Returns how many were present. O(log runs) plus the
    /// runs dropped whole.
    pub fn remove_range(&mut self, first: u64, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let end = first.saturating_add(n);
        let mut had = 0;
        // What a run reaching past `end` keeps.
        let mut tail = None;
        // The run `first` falls in keeps whatever lies before `first`.
        if let Some((s, l)) = self.run_of(first) {
            had += (s + l).min(end) - first;
            tail = (s + l > end).then(|| (end, s + l - end));
            if s == first {
                self.runs.remove(&s);
            } else if let Some(l) = self.runs.get_mut(&s) {
                *l = first - s;
            }
        }
        // Runs starting inside `(first, end)` go; the last may keep a tail.
        while tail.is_none() && n > 1 {
            let Some((&s, &l)) = self.runs.range(first.saturating_add(1)..end).next() else {
                break;
            };
            self.runs.remove(&s);
            had += (s + l).min(end) - s;
            tail = (s + l > end).then(|| (end, s + l - end));
        }
        if let Some((s, l)) = tail {
            self.runs.insert(s, l);
        }
        self.pages -= had;
        had
    }

    /// The first page index `> page` whose membership differs from `page`'s,
    /// or `u64::MAX` when membership never changes again.
    ///
    /// This is the primitive a run-length scan is built on: from any page,
    /// one O(log runs) query says how far the current state extends.
    pub fn next_boundary(&self, page: u64) -> u64 {
        if let Some((s, l)) = self.run_of(page) {
            return s + l; // inside a run: state flips where the run ends
        }
        // In a gap: state flips at the next run's start.
        match page.checked_add(1) {
            Some(n) => self
                .runs
                .range(n..)
                .next()
                .map(|(&s, _)| s)
                .unwrap_or(u64::MAX),
            None => u64::MAX,
        }
    }

    /// The runs overlapping `range`, clipped to it, in ascending order.
    pub fn runs_in(&self, range: RangeInclusive<u64>) -> Vec<RangeInclusive<u64>> {
        let (lo, hi) = (*range.start(), *range.end());
        if lo > hi {
            return Vec::new();
        }
        let mut out = Vec::new();
        // The run containing `lo`, if any, starts at or before `lo`.
        if let Some((s, l)) = self.run_of(lo) {
            out.push(lo..=(s + l - 1).min(hi));
        }
        if let Some(next) = lo.checked_add(1).filter(|&n| n <= hi) {
            for (&s, &l) in self.runs.range(next..=hi) {
                out.push(s..=(s + l - 1).min(hi));
            }
        }
        out
    }

    /// All member pages, ascending.
    pub fn iter_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|(&s, &l)| s..s + l)
    }

    /// Removes every page.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.pages = 0;
    }
}

/// One inode's resident set together with the generation that versions
/// it. A SLED vector priced from the set is valid only while the
/// generation stands, so the two move together or not at all: both fields
/// are private to this module, the three mutators below are the only code
/// that can change the set, and each stamps the generation by exactly the
/// number of pages that entered or left. Reads go through
/// [`Residency::extents`], which hands out `&ExtentSet` and never `&mut`.
///
/// The type exists because of a real bug: `PageCache::detach` once
/// returned between removing the page and bumping the counter, and a
/// memoized SLED vector outlived the eviction it should have seen. With
/// the set behind this type that function cannot be written: mutate
/// `resident`, skip the bump, and the compiler stops at the first private
/// field —
///
/// ```compile_fail
/// use sleds_pagecache::{PageCache, PageKey};
///
/// let mut cache = PageCache::lru(4);
/// cache.insert(PageKey::new(1, 0), false);
/// // No path leads to the extents that does not stamp the generation.
/// cache.index.get_mut(1).unwrap().resident.extents.remove(0);
/// ```
///
/// — while the legal form moves both:
///
/// ```
/// use sleds_pagecache::{PageCache, PageKey};
///
/// let mut cache = PageCache::lru(4);
/// cache.insert(PageKey::new(1, 0), false);
/// assert_eq!(cache.generation(1), 1);
/// cache.remove(PageKey::new(1, 0));
/// assert!(!cache.contains(PageKey::new(1, 0)));
/// assert_eq!(cache.generation(1), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub(crate) struct Residency {
    extents: ExtentSet,
    /// Never reset, so `(inode, generation)` names one residency state.
    /// Dirty transitions do not move it: they do not change which storage
    /// level a byte would be served from.
    generation: u64,
}

impl Residency {
    /// The resident pages, read-only.
    pub(crate) fn extents(&self) -> &ExtentSet {
        &self.extents
    }

    /// Pages that have entered or left the set so far.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Makes pages `first .. first + n` resident. Returns how many were
    /// not already.
    pub(crate) fn insert_range(&mut self, first: u64, n: u64) -> u64 {
        let entered = self.extents.insert_range(first, n);
        self.generation += entered;
        entered
    }

    /// Drops pages `first .. first + n`. Returns how many were resident.
    pub(crate) fn remove_range(&mut self, first: u64, n: u64) -> u64 {
        let left = self.extents.remove_range(first, n);
        self.generation += left;
        left
    }

    /// Drops every page, returning how many there were.
    pub(crate) fn clear(&mut self) -> u64 {
        let dropped = self.extents.page_count();
        self.extents.clear();
        self.generation += dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(s: &ExtentSet) -> Vec<(u64, u64)> {
        s.runs.iter().map(|(&s, &l)| (s, l)).collect()
    }

    #[test]
    fn insert_coalesces_neighbors() {
        let mut s = ExtentSet::new();
        assert!(s.insert(5));
        assert!(s.insert(7));
        assert_eq!(runs(&s), vec![(5, 1), (7, 1)]);
        // Filling the hole merges all three into one run.
        assert!(s.insert(6));
        assert_eq!(runs(&s), vec![(5, 3)]);
        assert!(!s.insert(6), "double insert reports already-present");
        assert_eq!(s.page_count(), 3);
    }

    #[test]
    fn remove_splits_runs() {
        let mut s = ExtentSet::new();
        for p in 10..20 {
            s.insert(p);
        }
        assert_eq!(s.run_count(), 1);
        assert!(s.remove(14));
        assert_eq!(runs(&s), vec![(10, 4), (15, 5)]);
        // Removing run edges shrinks without splitting.
        assert!(s.remove(10));
        assert!(s.remove(19));
        assert_eq!(runs(&s), vec![(11, 3), (15, 4)]);
        assert!(!s.remove(10), "absent page reports absent");
        assert_eq!(s.page_count(), 7);
    }

    #[test]
    fn contains_matches_runs() {
        let mut s = ExtentSet::new();
        for p in [1u64, 2, 3, 9, 10, 40] {
            s.insert(p);
        }
        for p in 0..50 {
            assert_eq!(
                s.contains(p),
                [1u64, 2, 3, 9, 10, 40].contains(&p),
                "page {p}"
            );
        }
    }

    #[test]
    fn next_boundary_flags_state_changes() {
        let mut s = ExtentSet::new();
        for p in [4u64, 5, 6, 10, 11] {
            s.insert(p);
        }
        assert_eq!(s.next_boundary(0), 4, "gap ends at first run");
        assert_eq!(s.next_boundary(4), 7, "run ends past its last page");
        assert_eq!(s.next_boundary(6), 7);
        assert_eq!(s.next_boundary(7), 10);
        assert_eq!(s.next_boundary(11), 12);
        assert_eq!(s.next_boundary(12), u64::MAX, "no further changes");
        assert_eq!(s.next_boundary(u64::MAX), u64::MAX);
    }

    #[test]
    fn runs_in_clips_to_range() {
        let mut s = ExtentSet::new();
        for p in [0u64, 1, 2, 3, 8, 9, 20, 21, 22] {
            s.insert(p);
        }
        assert_eq!(s.runs_in(2..=20), vec![2..=3, 8..=9, 20..=20]);
        assert_eq!(s.runs_in(4..=7), Vec::<RangeInclusive<u64>>::new());
        assert_eq!(s.runs_in(0..=100), vec![0..=3, 8..=9, 20..=22]);
        // An inverted (empty) range must yield nothing, not panic.
        #[expect(
            clippy::reversed_empty_ranges,
            reason = "the inverted range is the input under test"
        )]
        let inverted = 9..=8;
        assert_eq!(s.runs_in(inverted), Vec::<RangeInclusive<u64>>::new());
    }

    #[test]
    fn iter_pages_ascending() {
        let mut s = ExtentSet::new();
        for p in [7u64, 3, 4, 12] {
            s.insert(p);
        }
        assert_eq!(s.iter_pages().collect::<Vec<_>>(), vec![3, 4, 7, 12]);
    }

    #[test]
    fn clear_empties() {
        let mut s = ExtentSet::new();
        s.insert(1);
        s.insert(2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.page_count(), 0);
        assert_eq!(s.next_boundary(0), u64::MAX);
    }

    #[test]
    fn residency_generation_counts_the_pages_that_changed() {
        let mut r = Residency::default();
        assert_eq!(r.insert_range(3, 2) + r.insert_range(9, 1), 3);
        assert_eq!(r.generation(), 3);
        // A no-op leaves the stamp alone: nothing a SLED priced has moved.
        assert_eq!(r.insert_range(4, 1), 0);
        assert_eq!(r.remove_range(7, 1), 0);
        assert_eq!(r.generation(), 3);
        assert_eq!(r.remove_range(4, 1), 1);
        assert_eq!(r.generation(), 4);
        assert_eq!(runs(r.extents()), vec![(3, 1), (9, 1)]);
        // A range stamps once per page that changed, not once per call.
        assert_eq!(r.insert_range(2, 9), 7);
        assert_eq!(r.generation(), 11);
        assert_eq!(r.remove_range(0, 5), 3);
        assert_eq!(r.generation(), 14);
        assert_eq!(runs(r.extents()), vec![(5, 6)]);
        assert_eq!(r.clear(), 6);
        assert_eq!(r.generation(), 20, "clear stamps once per page dropped");
        assert!(r.extents().is_empty());
        assert_eq!(r.clear(), 0);
        assert_eq!(r.generation(), 20);
    }

    /// Every range operation against one page at a time on a bitmap, from
    /// every state three runs can be in.
    #[test]
    fn range_operations_equal_the_per_page_loop() {
        const SPAN: u64 = 14;
        for state in 0u32..1 << SPAN {
            // Skip states with more than three runs to keep this fast.
            if ((state & !(state << 1)).count_ones()) > 3 {
                continue;
            }
            let mut base = ExtentSet::new();
            for p in (0..SPAN).filter(|p| state >> p & 1 == 1) {
                base.insert(p);
            }
            for first in 0..SPAN {
                for n in [0, 1, 2, 5, SPAN - first] {
                    if first + n > SPAN {
                        continue;
                    }
                    let mask = ((1u32 << n) - 1) << first;
                    let mut grown = base.clone();
                    assert_eq!(
                        grown.insert_range(first, n),
                        u64::from((mask & !state).count_ones())
                    );
                    let mut shrunk = base.clone();
                    assert_eq!(
                        shrunk.remove_range(first, n),
                        u64::from((mask & state).count_ones())
                    );
                    for (set, want) in [(&grown, state | mask), (&shrunk, state & !mask)] {
                        let pages: Vec<u64> = (0..SPAN).filter(|p| want >> p & 1 == 1).collect();
                        assert_eq!(set.iter_pages().collect::<Vec<_>>(), pages);
                        assert_eq!(set.page_count(), pages.len() as u64);
                        // Coalesced: no run touches the next.
                        let runs = runs(set);
                        assert!(
                            runs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0),
                            "{runs:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn extreme_indices_do_not_overflow() {
        let mut s = ExtentSet::new();
        s.insert(u64::MAX - 1);
        assert!(s.contains(u64::MAX - 1));
        assert_eq!(s.next_boundary(u64::MAX - 1), u64::MAX);
        s.remove(u64::MAX - 1);
        assert!(s.is_empty());
    }
}
