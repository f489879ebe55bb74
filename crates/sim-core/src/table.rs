//! Tables keyed by small integer ids: array-indexed stand-ins for a
//! `BTreeMap<u64, T>` whose keys the simulator issues itself.
//!
//! Inode numbers and file descriptors are handed out as 1, 2, 3, … and
//! never reused, so a lookup by id can be an index instead of a tree
//! descent. Both tables iterate in ascending id order — the order the
//! `BTreeMap` they replace gave — so nothing that walks one depends on
//! host state (the reason `clippy.toml` bans hash maps is iteration
//! order, not the container).
//!
//! * [`IdTable`] keeps one slot per id from 0 to the largest id ever
//!   inserted. Right for ids that stay live (inodes, the page cache's
//!   per-inode index).
//! * [`IdWindow`] keeps one slot per id from the smallest *live* id to the
//!   largest id ever inserted, and slides forward as old ids are removed.
//!   Right for ids that are issued in increasing order and retired soon
//!   after (file descriptors).

use std::collections::VecDeque;

/// A dense table: slot `id` of a `Vec`.
///
/// Memory is one `Option<T>` per id up to the largest ever inserted,
/// whether or not the id is still live — callers insert only ids drawn
/// from a dense allocator. Reads accept any `u64` and allocate nothing.
#[derive(Debug)]
pub struct IdTable<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> IdTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        IdTable::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry at `id`, if live.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(usize::try_from(id).ok()?)?.as_ref()
    }

    /// The entry at `id`, mutably, if live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.slots.get_mut(usize::try_from(id).ok()?)?.as_mut()
    }

    /// The slot for `id`, growing the table to reach it.
    fn slot(&mut self, id: u64) -> &mut Option<T> {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    /// Stores `value` at `id`, returning the entry it replaced.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        let old = self.slot(id).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The entry at `id`, created by `make` first when not live.
    pub fn get_or_insert_with(&mut self, id: u64, make: impl FnOnce() -> T) -> &mut T {
        if self.get(id).is_none() {
            self.len += 1;
        }
        self.slot(id).get_or_insert_with(make)
    }

    /// Removes and returns the entry at `id`. The slot stays, empty.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let old = self.slots.get_mut(usize::try_from(id).ok()?)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i as u64, s.as_ref()?)))
    }

    /// Live entries, mutably, in ascending id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| Some((i as u64, s.as_mut()?)))
    }
}

/// A sliding-window table for ids issued in increasing order.
///
/// Holds one slot per id in `[oldest live id, largest id ever inserted]`:
/// [`IdWindow::span`] slots, never more. Removing the oldest live id slides
/// the window past every dead id behind the next live one, so a workload
/// that retires ids soon after issuing them holds a handful of slots
/// however many ids it has issued; one long-lived low id holds the window
/// open across everything issued since. The backing `VecDeque` keeps the
/// capacity of the widest span it has held.
///
/// Any id may be inserted (the window grows toward it in either
/// direction), so the table is a total map; only the footprint assumes
/// increasing ids.
#[derive(Debug)]
pub struct IdWindow<T> {
    /// Id of `slots[0]`; meaningful only while `slots` is non-empty.
    base: u64,
    slots: VecDeque<Option<T>>,
    len: usize,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }
}

impl<T> IdWindow<T> {
    /// Creates an empty window.
    pub fn new() -> Self {
        IdWindow::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots currently held: the distance from the oldest live id to the
    /// largest id inserted since the window was last empty, inclusive.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    fn index_of(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// The entry at `id`, if live.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.index_of(id)?)?.as_ref()
    }

    /// The entry at `id`, mutably, if live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.index_of(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Stores `value` at `id`, returning the entry it replaced.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id;
        }
        while id < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let i = (id - self.base) as usize;
        while self.slots.len() <= i {
            self.slots.push_back(None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the entry at `id`, then slides the window up to
    /// the oldest id still live.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.index_of(id)?;
        let old = self.slots.get_mut(i)?.take()?;
        self.len -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            // Wraps only when the window empties at `u64::MAX`, and an
            // empty window's base is reset by the next insert.
            self.base = self.base.wrapping_add(1);
        }
        Some(old)
    }

    /// Live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| Some((base + i as u64, s.as_ref()?)))
    }
}
