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
        assert!(
            page < u64::MAX,
            "u64::MAX is reserved as the no-boundary sentinel"
        );
        if self.contains(page) {
            return false;
        }
        // Merge with a run ending exactly at `page`...
        let left = self
            .runs
            .range(..page)
            .next_back()
            .map(|(&s, &l)| (s, l))
            .filter(|&(s, l)| s + l == page);
        // ...and/or a run starting exactly at `page + 1`.
        let right = page
            .checked_add(1)
            .and_then(|n| self.runs.get(&n).map(|&l| (n, l)));
        match (left, right) {
            (Some((ls, ll)), Some((rs, rl))) => {
                self.runs.remove(&rs);
                self.runs.insert(ls, ll + 1 + rl);
            }
            (Some((ls, ll)), None) => {
                self.runs.insert(ls, ll + 1);
            }
            (None, Some((rs, rl))) => {
                self.runs.remove(&rs);
                self.runs.insert(page, rl + 1);
            }
            (None, None) => {
                self.runs.insert(page, 1);
            }
        }
        self.pages += 1;
        true
    }

    /// Removes `page`, splitting its run if needed. Returns true when the
    /// page was present.
    pub fn remove(&mut self, page: u64) -> bool {
        let Some((s, l)) = self.run_of(page) else {
            return false;
        };
        self.runs.remove(&s);
        if page > s {
            self.runs.insert(s, page - s);
        }
        let tail = s + l - (page + 1);
        if tail > 0 {
            self.runs.insert(page + 1, tail);
        }
        self.pages -= 1;
        true
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

    /// All runs as `(start, length)` pairs, ascending.
    pub fn iter_runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().map(|(&s, &l)| (s, l))
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
/// the set behind this type that function cannot be written; sledlint's
/// old `d010_violating.rs` (`drop_page`: mutate `resident`, skip the
/// bump), transliterated, stops at the first private field —
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
    /// Dirty and pin transitions do not move it: they do not change which
    /// storage level a byte would be served from.
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

    /// Makes `page` resident. Returns true when it was not already.
    pub(crate) fn insert(&mut self, page: u64) -> bool {
        let entered = self.extents.insert(page);
        self.generation += u64::from(entered);
        entered
    }

    /// Drops `page`. Returns true when it was resident.
    pub(crate) fn remove(&mut self, page: u64) -> bool {
        let left = self.extents.remove(page);
        self.generation += u64::from(left);
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
        s.iter_runs().collect()
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
        #[allow(clippy::reversed_empty_ranges)]
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
        assert!(r.insert(3) && r.insert(4) && r.insert(9));
        assert_eq!(r.generation(), 3);
        // A no-op leaves the stamp alone: nothing a SLED priced has moved.
        assert!(!r.insert(4));
        assert!(!r.remove(7));
        assert_eq!(r.generation(), 3);
        assert!(r.remove(4));
        assert_eq!(r.generation(), 4);
        assert_eq!(runs(r.extents()), vec![(3, 1), (9, 1)]);
        assert_eq!(r.clear(), 2);
        assert_eq!(r.generation(), 6, "clear stamps once per page dropped");
        assert!(r.extents().is_empty());
        assert_eq!(r.clear(), 0);
        assert_eq!(r.generation(), 6);
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
