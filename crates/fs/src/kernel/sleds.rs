//! The SLEDs kernel hook: the `FSLEDS_*` ioctls, the residency walks
//! behind `FSLEDS_GET`, and the program-driven directory walk.

use sleds_pagecache::PageKey;
use sleds_sim_core::{index, Errno, Pages, Sectors, SimDuration, SimError, SimResult};
use sleds_trace::Metrics;

use super::{Kernel, PageExtent, PageLocation, RedundantExtent, ReplicaPlace, ONE_PAGE};
use crate::inode::{FileKind, FileNode, Ino, PagePlace};
use crate::prog::{prog_inputs, PickProgram, ProgInputs, ProgOrder, WalkEntry};
use crate::sled::{self, Sled, SledsTable};
use crate::syscall::{Entry, Fd};

/// Boundary row shared by both `FSLEDS_GET` extent walks: one span name,
/// one poison label.
const IOCTL_FSLEDS_GET: Entry = Entry {
    name: "ioctl.page_extents",
    ..Entry::ioctl("ioctl.fsleds_get")
};

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
                let now = k.now();
                k.tracer.recal(now, k.sleds_epoch);
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

    /// The residency walk itself: merges the cache's resident extents with
    /// the file's layout runs and collects what `make` turns each into.
    /// Cost is proportional to the number of extents emitted, not the
    /// number of pages; no per-page map is ever materialized.
    fn extents_of<T>(
        &self,
        ino: Ino,
        mut make: impl FnMut(&FileNode, PageExtent) -> T,
    ) -> SimResult<Vec<T>> {
        let f = self.file_of(ino)?;
        let n = f.page_count();
        let mut out = Vec::new();
        let mut p = Pages::ZERO;
        while p < n {
            let boundary = Pages::new(self.cache.next_boundary(ino.0, p.get())).min(n);
            if self.cache.contains(PageKey::new(ino.0, p.get())) {
                let extent = PageExtent {
                    first_page: p.get(),
                    pages: (boundary - p).get(),
                    location: PageLocation::Memory,
                };
                out.push(make(f, extent));
            } else {
                // A non-resident span: split it by layout runs so each
                // extent is device-contiguous.
                for r in f.pages.runs_in(p, boundary - ONE_PAGE) {
                    let extent = PageExtent {
                        first_page: r.start_page.get(),
                        pages: r.pages.get(),
                        location: PageLocation::Device {
                            dev: r.dev,
                            sector: r.sector.get(),
                        },
                    };
                    out.push(make(f, extent));
                }
            }
            p = boundary;
        }
        Ok(out)
    }

    /// The bare extents, for callers that price nothing, charged: one
    /// probe per extent plus the per-page floor.
    fn page_extents_of(&mut self, ino: Ino) -> SimResult<Vec<PageExtent>> {
        let out = self.extents_of(ino, |_, extent| extent)?;
        self.charge_page_walk(out.len() as u64, out.last());
        Ok(out)
    }

    /// The kernel half of `FSLEDS_GET`, run-length form: where does each
    /// extent of this open file live right now? Cost is one probe per
    /// extent plus a per-page floor — O(runs), not O(pages).
    pub fn page_extents(&mut self, fd: Fd) -> SimResult<Vec<PageExtent>> {
        self.ioctl(&IOCTL_FSLEDS_GET, [fd.0, 0, 0], |k| {
            let of = k.openfile(fd)?;
            k.page_extents_of(of.ino)
        })
    }

    /// The redundancy-aware half of `FSLEDS_GET`: every extent of the open
    /// file, each carrying the replica places that could serve it too.
    /// Extents of unreplicated files come back with no alternatives and
    /// cost exactly what [`Kernel::page_extents`] costs; redundant extents
    /// pay one extra probe per alternative. The pricing layer
    /// ([`sled::fold`]) turns each alternative into a fault-priced
    /// candidate and quotes the min-cost *available* one (the k-th
    /// cheapest for a coded layout).
    pub fn redundant_extents(&mut self, fd: Fd) -> SimResult<Vec<RedundantExtent>> {
        self.ioctl(&IOCTL_FSLEDS_GET, [fd.0, 1, 0], |k| {
            let of = k.openfile(fd)?;
            k.redundant_extents_of(of.ino)
        })
    }

    /// The walk behind [`Kernel::redundant_extents`], charged: one probe
    /// per extent and per alternative, plus the per-page floor.
    fn redundant_extents_of(&mut self, ino: Ino) -> SimResult<Vec<RedundantExtent>> {
        let volume_k = self.volume_of(ino).and_then(|l| l.coded_k());
        let mut probes = 0u64;
        let out = self.extents_of(ino, |f, extent| {
            // Memory extents need no alternative: they are already the
            // cheapest possible source.
            let alternatives: Vec<ReplicaPlace> =
                if matches!(extent.location, PageLocation::Device { .. }) {
                    f.replicas
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
            probes += alternatives.len() as u64;
            let coded_k = volume_k.filter(|_| !alternatives.is_empty());
            RedundantExtent {
                extent,
                alternatives,
                coded_k,
            }
        })?;
        self.charge_page_walk(out.len() as u64 + probes, out.last().map(|e| &e.extent));
        Ok(out)
    }

    /// `FSLEDS_GET` below the boundary: the SLED vector of `ino` priced
    /// from the table that crossed with the call. Charges the extent walk
    /// (the work), not the two syscall traps the sequential `fstat` +
    /// `FSLEDS_GET` pair pays.
    pub(super) fn sleds_of(&mut self, ino: Ino, table: &SledsTable) -> SimResult<Vec<Sled>> {
        sled::memory_row(table)?;
        let size = self.stat_ino(ino)?.size;
        let extents = self.redundant_extents_of(ino)?;
        sled::fold(self, table, size, &extents)
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
        // Interpretation is charged at the certified worst-case bound, not
        // the path actually taken: the price of running a program is fixed
        // at admission, so accounting cannot depend on file contents or
        // verdicts.
        self.charge_cpu(SimDuration::from_nanos(prog.cert().worst_ns));
        let inputs = prog_inputs(&sleds, mem);
        let matched = prog.matches(&inputs);
        let now = self.now();
        self.tracer.prog_eval(
            now,
            prog.len() as u64,
            u64::from(matched),
            estimate_ns(inputs.delivery_time),
        );
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
    /// order) and `first_match_exit` (stop at the first matching file).
    pub fn fsleds_walk(
        &mut self,
        root: &str,
        prog: &PickProgram,
        table: &SledsTable,
    ) -> SimResult<Vec<WalkEntry>> {
        self.ioctl(&Entry::ioctl("ioctl.fsleds_walk"), [0; 3], |k| {
            let ino = k.resolve(root)?;
            let mut out: Vec<(WalkEntry, f64)> = Vec::new();
            let mut done = false;
            let mut path = root.to_string();
            k.walk_node(&mut path, ino, prog, table, &mut out, &mut done)?;
            if prog.order == ProgOrder::CachedFirst {
                // Matched files first, most-cached first; stable, so ties
                // and the unmatched tail keep file order.
                out.sort_by(|a, b| match (a.0.matched, b.0.matched) {
                    (true, true) => b.1.total_cmp(&a.1),
                    (a_hit, b_hit) => b_hit.cmp(&a_hit),
                });
            }
            Ok(out.into_iter().map(|(e, _)| e).collect())
        })
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
        out: &mut Vec<(WalkEntry, f64)>,
        done: &mut bool,
    ) -> SimResult<()> {
        if *done {
            return Ok(());
        }
        let stat = self.stat_ino(ino)?;
        // Per-entry in-kernel dispatch work, priced like a ring op. The
        // program interpretation itself is charged separately below, from
        // the cost certificate stamped at admission.
        let d = self.cfg.ring_op_cpu;
        self.charge_cpu(d);
        if stat.kind == FileKind::File {
            let (entry, cached) = match self.eval_prog(ino, prog, table) {
                Ok((matched, inputs)) => {
                    if matched && prog.first_match_exit {
                        *done = true;
                    }
                    (
                        WalkEntry {
                            path: path.clone(),
                            kind: stat.kind,
                            size: stat.size,
                            estimate_secs: Some(inputs.delivery_time),
                            matched,
                            error: None,
                        },
                        inputs.cached_fraction,
                    )
                }
                Err(e) => (
                    WalkEntry {
                        path: path.clone(),
                        kind: stat.kind,
                        size: stat.size,
                        estimate_secs: None,
                        matched: false,
                        error: Some(e),
                    },
                    0.0,
                ),
            };
            out.push((entry, cached));
            return Ok(());
        }
        out.push((
            WalkEntry {
                path: path.clone(),
                kind: stat.kind,
                size: stat.size,
                estimate_secs: None,
                matched: false,
                error: None,
            },
            0.0,
        ));
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
            for (name, &child) in dir {
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
            if *done {
                break;
            }
            path.push_str(&names[start..end]);
            self.walk_node(path, child, prog, table, out, done)?;
            path.truncate(stem_len);
            start = end;
        }
        path.truncate(own_len);
        Ok(())
    }

    /// The per-page form of [`Kernel::page_extents`]: one [`PageLocation`]
    /// per file page, produced by expanding the extent walk. Same O(runs)
    /// probe cost (the expansion is covered by the per-page floor).
    pub fn page_locations(&mut self, fd: Fd) -> SimResult<Vec<PageLocation>> {
        self.ioctl(&Entry::query("page_locations"), [0; 3], |k| {
            let of = k.openfile(fd)?;
            let extents = k.page_extents_of(of.ino)?;
            let pages = extents.last().map_or(0, PageExtent::end_page);
            let mut out = Vec::with_capacity(index(pages));
            for e in extents {
                match e.location {
                    PageLocation::Memory => out.extend((0..e.pages).map(|_| PageLocation::Memory)),
                    PageLocation::Device { dev, sector } => {
                        for i in 0..e.pages {
                            out.push(PageLocation::Device {
                                dev,
                                sector: (Sectors::new(sector) + Pages::new(i).sectors()).get(),
                            });
                        }
                    }
                }
            }
            Ok(out)
        })
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
    /// enters or leaves a fault window — and never repeats.
    /// `FSLEDS_GET` callers memoize their last vector against this stamp
    /// and skip the walk while it holds. Charges only the syscall cost —
    /// that is the point.
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

    /// Number of resident extents the cache tracks for an open file — the
    /// `runs` term of the walk cost; exposed for tests.
    pub fn resident_extents(&self, fd: Fd) -> SimResult<usize> {
        let of = self.openfile(fd)?;
        Ok(self.cache.resident_run_count(of.ino.0))
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
