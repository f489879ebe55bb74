//! The SLEDs kernel hook: the `FSLEDS_*` ioctls, the residency walks
//! behind `FSLEDS_GET`, and the program-driven directory walk.

use sleds_pagecache::{PageCache, PageKey};
use sleds_sim_core::{index, Errno, Pages, SimDuration, SimError, SimResult};
use sleds_trace::{Mark, Metrics};

use super::{Kernel, PageExtent, PageLocation, RedundantExtent, ReplicaPlace};
use crate::inode::{FileKind, FileNode, Ino, Inode, PagePlace};
use crate::machine::RING_OP_CPU;
use crate::prog::{prog_inputs, PickProgram, ProgInputs, ProgOrder, WalkEntry};
use crate::sled::{self, Sled, SledsTable};
use crate::syscall::{Entry, Fd};

/// Delivery-time estimate in integer nanoseconds for trace marks:
/// `u64::MAX` stands in for non-finite (offline) estimates.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a float-to-integer `as` saturates, so an estimate past u64 nanoseconds reads as offline"
)]
fn estimate_ns(secs: f64) -> u64 {
    if secs.is_finite() {
        (secs * 1e9) as u64
    } else {
        u64::MAX
    }
}

/// The residency walk behind every `FSLEDS_GET` form: merges the cache's
/// resident extents with the file's layout runs, in page order. A resident
/// span is one extent; a non-resident span is split at layout-run edges so
/// each extent is device-contiguous. Cost is proportional to the extents
/// yielded, not to pages, and nothing is allocated.
struct Extents<'k> {
    cache: &'k PageCache,
    ino: u64,
    file: &'k FileNode,
    /// First page not yet yielded.
    next: Pages,
    /// End of the residency span `next` lies in, once entered.
    span_end: Pages,
}

impl Iterator for Extents<'_> {
    type Item = PageExtent;

    fn next(&mut self) -> Option<PageExtent> {
        let n = self.file.page_count();
        while self.next < n {
            let p = self.next;
            if p >= self.span_end {
                self.span_end = Pages::new(self.cache.next_boundary(self.ino, p.get())).min(n);
                if self.cache.contains(PageKey::new(self.ino, p.get())) {
                    self.next = self.span_end;
                    return Some(PageExtent {
                        first_page: p.get(),
                        pages: (self.span_end - p).get(),
                        location: PageLocation::Memory,
                    });
                }
            }
            let Some(run) = self.file.pages.run_of(p) else {
                // Unmapped to the end of the span: nothing to report.
                self.next = self.span_end;
                continue;
            };
            let end = run.end_page().min(self.span_end);
            self.next = end;
            return Some(PageExtent {
                first_page: p.get(),
                pages: (end - p).get(),
                location: PageLocation::Device {
                    dev: run.dev,
                    sector: run.place_of(p).sector.get(),
                },
            });
        }
        None
    }
}

/// What a redundancy-aware walk is charged for: one probe per extent and
/// per alternative, and the last extent (the per-page floor's end).
fn probes<'e>(walk: impl IntoIterator<Item = &'e RedundantExtent>) -> (u64, Option<PageExtent>) {
    walk.into_iter().fold((0, None), |(probes, _), e| {
        (probes + 1 + e.alternatives.len() as u64, Some(e.extent))
    })
}

/// What a program-driven walk has visited, in file order.
#[derive(Default)]
pub(super) struct Walk {
    /// Every entry.
    pub(super) entries: Vec<WalkEntry>,
    /// Each entry's cached fraction, the [`ProgOrder::CachedFirst`] key:
    /// 0 for directories and for files the walk could not price.
    pub(super) cached: Vec<f64>,
}

/// Reorders a walk's entries for [`ProgOrder::CachedFirst`]: matched files
/// first, most-cached first, with ties and the unmatched tail in file
/// order. Stably sorts compact `(matched, cached, index)` keys, then moves
/// the entries into their order in place, so none is copied.
fn cached_first(entries: &mut [WalkEntry], cached: &[f64]) {
    let mut keys: Vec<(bool, f64, usize)> = entries
        .iter()
        .zip(cached)
        .enumerate()
        .map(|(i, (e, &c))| (e.matched, c, i))
        .collect();
    keys.sort_by(|a, b| match (a.0, b.0) {
        (true, true) => b.1.total_cmp(&a.1),
        (a_hit, b_hit) => b_hit.cmp(&a_hit),
    });
    // Position `i` takes the entry that started at `from[i]`. Positions are
    // filled front to back, each by one swap; an entry a swap moved out of
    // an earlier position went where that position's `from` now points.
    // The sources run forward through each run of equal keys, so the swaps
    // stream through the entries instead of chasing the cycles at random.
    let mut from: Vec<usize> = keys.into_iter().map(|(_, _, i)| i).collect();
    for i in 0..from.len() {
        let mut src = from[i];
        while src < i {
            src = from[src];
        }
        from[i] = src;
        entries.swap(i, src);
    }
}

impl Kernel {
    /// The `FSLEDS_STAT` ioctl: a snapshot of the per-layer counters and
    /// latency histograms. Charges one syscall; all-zero when tracing is
    /// off (the counters simply never ran).
    pub fn fsleds_stat(&mut self, fd: Fd) -> SimResult<Metrics> {
        self.ioctl(&Entry::ioctl("ioctl.fsleds_stat"), [fd.0, 0, 0], |k| {
            k.openfile(fd)
                .map(|_| k.tracer.metrics_snapshot().unwrap_or_default())
        })
    }

    /// The `FSLEDS_RECAL` ioctl: marks a sleds-table recalibration point.
    /// Bumps the kernel's sleds epoch — moving [`Kernel::sled_generation`]
    /// for every file, so every stamped SLED vector goes stale — emits a
    /// `sleds.recal` marker so the accuracy audit can fence prediction
    /// pairs at the boundary, and returns the metrics snapshot the caller
    /// recalibrates from. Charges one syscall. The epoch bump happens
    /// whether or not tracing is on (untraced callers get empty metrics),
    /// so traced and untraced runs stay byte-identical.
    pub fn fsleds_recal(&mut self, fd: Fd) -> SimResult<Metrics> {
        self.ioctl(&Entry::ioctl("ioctl.fsleds_recal"), [fd.0, 0, 0], |k| {
            k.openfile(fd).map(|_| {
                k.sleds_epoch += 1;
                let snap = k.tracer.metrics_snapshot().unwrap_or_default();
                let generation = k.sleds_epoch;
                k.mark(Mark::Recal { generation });
                snap
            })
        })
    }

    /// Number of `FSLEDS_RECAL` calls so far — the generation new
    /// predictions should be tagged with after a recalibration.
    pub fn sleds_epoch(&self) -> u64 {
        self.sleds_epoch
    }

    /// Charges a walk of `probes` probes whose extents end with `last`:
    /// one probe each plus the per-page floor up to the last page.
    fn charge_page_walk(&mut self, probes: u64, last: Option<&PageExtent>) {
        let pages = last.map_or(0, PageExtent::end_page);
        self.charge_cpu(self.cfg.page_walk_cost(probes, pages));
    }

    /// The residency walk of `ino`: its extents in page order.
    fn extents(&self, ino: Ino) -> SimResult<Extents<'_>> {
        Ok(Extents {
            cache: &self.cache,
            ino: ino.0,
            file: self.file_of(ino)?,
            next: Pages::ZERO,
            span_end: Pages::ZERO,
        })
    }

    /// The residency walk with each extent's replica places, the
    /// `(k, n)` of a coded volume attached to the extents that have them.
    fn redundant_walk(&self, ino: Ino) -> SimResult<impl Iterator<Item = RedundantExtent> + '_> {
        let volume_k = self.volume_of(ino).and_then(|l| l.coded_k());
        let walk = self.extents(ino)?;
        let file = walk.file;
        Ok(walk.map(move |extent| {
            // Memory extents need no alternative: they are already the
            // cheapest possible source.
            let alternatives: Vec<ReplicaPlace> =
                if matches!(extent.location, PageLocation::Device { .. }) {
                    file.replicas()
                        .iter()
                        .filter_map(|map| map.place_of(Pages::new(extent.first_page)))
                        .map(|p| ReplicaPlace {
                            dev: p.dev,
                            sector: p.sector.get(),
                        })
                        .collect()
                } else {
                    Vec::new()
                };
            let coded_k = volume_k.filter(|_| !alternatives.is_empty());
            RedundantExtent {
                extent,
                alternatives,
                coded_k,
            }
        }))
    }

    /// The kernel half of `FSLEDS_GET`: where does each extent of this
    /// open file live right now, and which replica places could serve it
    /// too? Cost is one probe per extent plus a per-page floor — O(runs),
    /// not O(pages) — and one extra probe per alternative; extents of
    /// unreplicated files come back with none. The pricing layer
    /// ([`sled::fold`]) turns each alternative into a fault-priced
    /// candidate and quotes the min-cost *available* one (the k-th
    /// cheapest for a coded layout).
    pub fn redundant_extents(&mut self, fd: Fd) -> SimResult<Vec<RedundantExtent>> {
        self.ioctl(&Entry::ioctl("ioctl.fsleds_get"), [fd.0, 1, 0], |k| {
            let of = k.openfile(fd)?;
            let out: Vec<RedundantExtent> = k.redundant_walk(of.ino)?.collect();
            let (probes, last) = probes(&out);
            k.charge_page_walk(probes, last.as_ref());
            Ok(out)
        })
    }

    /// `FSLEDS_GET` below the boundary: the SLED vector of `ino` priced
    /// from the table that crossed with the call. Charges the extent walk
    /// (the work), not the two syscall traps the sequential `fstat` +
    /// `FSLEDS_GET` pair pays. The walk's first extent is held inline and
    /// only the rest are collected, so a one-extent file allocates nothing
    /// before [`sled::fold`]. The charge comes first: pricing reads fault
    /// windows at the clock it leaves.
    pub(super) fn sleds_of(&mut self, ino: Ino, table: &SledsTable) -> SimResult<Vec<Sled>> {
        sled::memory_row(table)?;
        let size = self.file_of(ino)?.size();
        let mut walk = self.redundant_walk(ino)?;
        let first = walk.next();
        let rest: Vec<RedundantExtent> = walk.collect();
        let (probes, last) = probes(first.iter().chain(&rest));
        self.charge_page_walk(probes, last.as_ref());
        sled::fold(self, table, size, first.iter().chain(&rest))
    }

    /// Prices `ino` and runs `prog` over it: the evaluation step behind
    /// every file of a walk.
    fn eval_prog(
        &mut self,
        ino: Ino,
        prog: &PickProgram,
        table: &SledsTable,
    ) -> SimResult<(bool, ProgInputs)> {
        let mem = sled::memory_row(table)?;
        let sleds = self.sleds_of(ino, table)?;
        // Interpretation is charged from the certificate, not metered: the
        // price of running a program is fixed at admission, so accounting
        // cannot depend on file contents or verdicts.
        self.charge_cpu(SimDuration::from_nanos(prog.cert().worst_ns));
        let inputs = prog_inputs(&sleds, mem);
        let matched = prog.matches(&inputs);
        self.mark(Mark::ProgEval {
            len: prog.len() as u64,
            matched,
            estimate_ns: estimate_ns(inputs.delivery_time),
        });
        Ok((matched, inputs))
    }

    /// A program-driven directory walk (`fsleds_walk`): visits the tree
    /// under `root` depth-first in name order — the order `find` visits —
    /// pricing every regular file against the pushed table and evaluating
    /// `prog` over it, all inside **one** boundary crossing. Per-file
    /// pricing failures (say, a device with no table row) are captured in
    /// the entry's `error` and the walk continues, like `find`'s
    /// diagnostics. Honors [`ProgOrder::CachedFirst`] (matched files
    /// first, most-cached first, stable; everything else after in file
    /// order).
    pub fn fsleds_walk(
        &mut self,
        root: &str,
        prog: &PickProgram,
        table: &SledsTable,
    ) -> SimResult<Vec<WalkEntry>> {
        self.ioctl(&Entry::ioctl("ioctl.fsleds_walk"), [0; 3], |k| {
            let mut walk = k.walk_tree(root, prog, table)?;
            if prog.order == ProgOrder::CachedFirst {
                cached_first(&mut walk.entries, &walk.cached);
            }
            Ok(walk.entries)
        })
    }

    /// The walk behind [`Kernel::fsleds_walk`], before any reordering:
    /// every entry under `root` in file order, each with its cached
    /// fraction.
    pub(super) fn walk_tree(
        &mut self,
        root: &str,
        prog: &PickProgram,
        table: &SledsTable,
    ) -> SimResult<Walk> {
        let ino = self.resolve(root)?;
        let len = self.subtree_len(ino);
        let mut walk = Walk {
            entries: Vec::with_capacity(len),
            cached: Vec::with_capacity(len),
        };
        let mut path = root.to_string();
        self.walk_node(&mut path, ino, prog, table, &mut walk)?;
        Ok(walk)
    }

    /// How many entries a walk from `ino` emits: the node and every node
    /// under it. Sizes the walk's vectors once, so they never regrow.
    fn subtree_len(&self, ino: Ino) -> usize {
        match self.inodes.get(ino.0).and_then(Inode::as_dir) {
            Some(dir) => 1 + dir.iter().map(|(_, c)| self.subtree_len(c)).sum::<usize>(),
            None => 1,
        }
    }

    /// One node of the walk. `path` is the node's own path on entry and
    /// again on `Ok` return; a directory extends it in place for each child,
    /// so the only allocation per file is the `path` of the entry it emits.
    fn walk_node(
        &mut self,
        path: &mut String,
        ino: Ino,
        prog: &PickProgram,
        table: &SledsTable,
        walk: &mut Walk,
    ) -> SimResult<()> {
        let stat = self.stat_ino(ino)?;
        // Per-entry in-kernel dispatch work, priced like a ring op. The
        // program interpretation itself is charged separately below, from
        // the cost certificate stamped at admission.
        self.charge_cpu(RING_OP_CPU);
        let mut entry = WalkEntry {
            path: path.clone(),
            kind: stat.kind,
            size: stat.size,
            estimate_secs: None,
            matched: false,
            error: None,
        };
        if stat.kind == FileKind::File {
            let cached = match self.eval_prog(ino, prog, table) {
                Ok((matched, inputs)) => {
                    entry.estimate_secs = Some(inputs.delivery_time);
                    entry.matched = matched;
                    inputs.cached_fraction
                }
                Err(e) => {
                    entry.error = Some(Box::new(e));
                    0.0
                }
            };
            walk.entries.push(entry);
            walk.cached.push(cached);
            return Ok(());
        }
        walk.entries.push(entry);
        walk.cached.push(0.0);
        // The directory cannot stay borrowed across the recursion, so its
        // names are copied once: one arena string plus each name's end.
        let mut names = String::new();
        let mut children: Vec<(usize, Ino)> = Vec::new();
        {
            let node = self.inode(ino)?;
            let dir = node
                .as_dir()
                .ok_or_else(|| SimError::new(Errno::Enotdir, format!("fsleds_walk({path})")))?;
            children.reserve(dir.len());
            for (name, child) in dir.iter() {
                names.push_str(name);
                children.push((names.len(), child));
            }
        }
        let own_len = path.len();
        if path != "/" {
            path.push('/');
        }
        let stem_len = path.len();
        let mut start = 0;
        for (end, child) in children {
            path.push_str(&names[start..end]);
            self.walk_node(path, child, prog, table, walk)?;
            path.truncate(stem_len);
            start = end;
        }
        path.truncate(own_len);
        Ok(())
    }

    /// The original per-page residency walk, kept as a test oracle:
    /// materializes the whole per-page map and probes the cache once per
    /// page, charging the per-page walk cost. The equivalence suites check
    /// the extent walk's answers and its price against this.
    pub fn page_locations_per_page_reference(&mut self, fd: Fd) -> SimResult<Vec<PageLocation>> {
        self.ioctl(&Entry::query("page_locations"), [0; 3], |k| {
            let of = k.openfile(fd)?;
            let f = k.file_of(of.ino)?;
            let n = f.page_count().get();
            // The old implementation cloned the per-page map; reproduce that
            // allocation by expanding the runs.
            let places: Vec<PagePlace> = (0..n)
                .filter_map(|p| f.pages.place_of(Pages::new(p)))
                .collect();
            k.charge_cpu(k.cfg.page_walk_cost_per_page(n));
            let mut out = Vec::with_capacity(index(n));
            for (i, place) in places.iter().enumerate().take(index(n)) {
                if k.cache.contains(PageKey::new(of.ino.0, i as u64)) {
                    out.push(PageLocation::Memory);
                } else {
                    out.push(PageLocation::Device {
                        dev: place.dev,
                        sector: place.sector.get(),
                    });
                }
            }
            Ok(out)
        })
    }

    /// A version stamp for an open file's SLED vector: changes whenever the
    /// file's cache residency, layout, or size changes — or any device
    /// enters or leaves a fault window — and never repeats. Every input
    /// `FSLEDS_GET` prices from is one of those, so the vector is a
    /// function of the stamp and the table: two `FSLEDS_GET` calls under
    /// the same stamp and table return bit-identical vectors, and a caller
    /// may memoize its last vector against the stamp and skip the walk
    /// while it holds. Charges only the syscall cost — that is the point.
    pub fn sled_generation(&mut self, fd: Fd) -> SimResult<u64> {
        self.ioctl(&Entry::query("sled_generation"), [0; 3], |k| {
            let of = k.openfile(fd)?;
            let layout = k.file_of(of.ino)?.pages.generation();
            // All four counters are monotone, so their sum is a valid version:
            // any change to any one strictly increases it. The device fault
            // epochs invalidate stamped vectors the moment the clock crosses
            // a fault-window boundary anywhere in the stack.
            Ok(k.cache.generation(of.ino.0) + layout + k.sleds_epoch + k.fault_epoch_total())
        })
    }

    /// For each page of an open file: how many cache insertions could
    /// happen before that page is evicted under the current replacement
    /// policy (`None` for non-resident pages or unpredictable policies).
    /// The kernel half of the paper's "predict which pages of a file would
    /// be flushed from cache" extension; charges the page-walk cost.
    pub fn page_eviction_ranks(&mut self, fd: Fd) -> SimResult<Vec<Option<usize>>> {
        self.ioctl(&Entry::query("page_eviction_ranks"), [0; 3], |k| {
            let of = k.openfile(fd)?;
            let n = k.file_of(of.ino)?.page_count().get();
            k.charge_cpu(k.cfg.page_walk_cost_per_page(n));
            Ok(k.cache.eviction_ranks(of.ino.0, n))
        })
    }
}
