//! Machine configuration: RAM, cache share, CPU cost parameters.

use sleds_pagecache::PolicyKind;
use sleds_sim_core::{index, Bandwidth, ByteSize, SimDuration, PAGE_SIZE};

use crate::volume::HedgePolicy;

/// Fraction of RAM available to the page cache.
const CACHE_FRACTION: f64 = 0.66;

/// CPU cost of servicing one already-submitted ring operation. A ring
/// batch pays `syscall_cpu` once to enter the kernel, then this much per
/// operation — the dispatch-table hop that remains when the boundary
/// crossing is amortized away.
pub const RING_OP_CPU: SimDuration = SimDuration::from_nanos(150);

/// CPU cost of handling one page fault (kernel path, not the I/O).
pub(crate) const FAULT_CPU: SimDuration = SimDuration::from_micros(2);

/// CPU cost per *extent probe* of the SLED residency walk. With the
/// run-length residency index the walk performs one probe per extent it
/// emits rather than one per page; this is the probe's cost (it was the
/// per-page cost before the index existed, and still is for the per-page
/// reference walk the tests use as an oracle).
const PAGE_WALK_CPU: SimDuration = SimDuration::from_nanos(250);

/// Per-page floor of the SLED residency walk: copying the result out and
/// bookkeeping still touch every page's worth of output, so even a
/// one-extent walk over a huge file is not free.
const PAGE_WALK_FLOOR_CPU: SimDuration = SimDuration::from_nanos(1);

/// Static configuration of the simulated machine.
///
/// The defaults reproduce the paper's testbed: 64 MiB of RAM of which
/// roughly two thirds is available to cache file pages ("roughly three times
/// the size of the portion of memory available to cache file pages" is how
/// the paper describes its 128 MB upper test size; the fraction is a
/// constant, 0.66), LRU replacement, and the memory latency/bandwidth of
/// Table 2. The CPU costs of a ring op, a fault and the residency walk are
/// constants beside it.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Physical memory size.
    pub ram: ByteSize,
    /// Page replacement policy.
    pub policy: PolicyKind,
    /// Latency of a memory access (Table 2/3 "memory" row).
    pub mem_latency: SimDuration,
    /// Copy bandwidth of memory (Table 2/3 "memory" row).
    pub mem_bandwidth: Bandwidth,
    /// Fixed CPU cost of entering and leaving a system call — the price of
    /// one kernel boundary crossing.
    pub syscall_cpu: SimDuration,
    /// Pages to prefetch beyond a demand-miss run (0 disables readahead).
    ///
    /// Off by default: the paper's measured fault counts scale with file
    /// pages, i.e. per-page accounting. The ablation benches turn this on
    /// to show how readahead changes fault counts but not the SLEDs story.
    pub readahead_pages: u64,
    /// Per-device command-queue retention bound: how many occupancy
    /// segments and depth samples each [`crate::queue::CmdQueue`] keeps
    /// (drop-oldest beyond it). This bounds *telemetry*, not admission —
    /// completion times never depend on it — so shrinking it degrades
    /// queue-wait attribution fidelity and depth sampling, which is
    /// exactly the trade the replay harness lets a candidate config
    /// explore. Defaults to [`crate::queue::CMD_QUEUE_CAPACITY`].
    pub cmd_queue_capacity: usize,
    /// Hedged-read policy for redundant volumes: when the kernel issues a
    /// redundant request and what a cancelled loser costs. The default
    /// hedges at most once per command; `HedgePolicy::disabled()` gives
    /// retry-only behavior.
    pub hedge: HedgePolicy,
}

impl MachineConfig {
    /// The machine the Unix-utility experiments ran on (Table 2).
    pub fn table2() -> Self {
        MachineConfig {
            ram: ByteSize::mib(64),
            policy: PolicyKind::Lru,
            mem_latency: SimDuration::from_nanos(175),
            mem_bandwidth: Bandwidth::mb_per_sec(48.0),
            syscall_cpu: SimDuration::from_micros(5),
            readahead_pages: 0,
            cmd_queue_capacity: crate::queue::CMD_QUEUE_CAPACITY,
            hedge: HedgePolicy::default(),
        }
    }

    /// The machine the LHEASOFT experiments ran on (Table 3).
    pub fn table3() -> Self {
        MachineConfig {
            mem_latency: SimDuration::from_nanos(210),
            mem_bandwidth: Bandwidth::mb_per_sec(87.0),
            ..MachineConfig::table2()
        }
    }

    /// CPU cost of a SLED residency walk that emitted `extents` extents
    /// covering `pages` pages: one probe per extent plus the per-page
    /// floor. O(runs) with a per-page floor — the extent-index cost model.
    pub fn page_walk_cost(&self, extents: u64, pages: u64) -> SimDuration {
        SimDuration::from_nanos(
            PAGE_WALK_CPU.as_nanos() * extents + PAGE_WALK_FLOOR_CPU.as_nanos() * pages,
        )
    }

    /// CPU cost of a walk that probes each of `pages` pages: the
    /// eviction-rank query, and the per-page reference walk the
    /// equivalence tests use as their oracle.
    pub fn page_walk_cost_per_page(&self, pages: u64) -> SimDuration {
        SimDuration::from_nanos(PAGE_WALK_CPU.as_nanos() * pages)
    }

    /// Number of pages the page cache may hold.
    pub fn cache_pages(&self) -> usize {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "at most the u64 RAM size, the fraction being below 1.0"
        )]
        let bytes = (self.ram.as_u64() as f64 * CACHE_FRACTION) as u64;
        index((bytes / PAGE_SIZE).max(1))
    }

    /// Bytes the page cache may hold.
    pub fn cache_bytes(&self) -> ByteSize {
        ByteSize::bytes(self.cache_pages() as u64 * PAGE_SIZE)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_cache_is_about_42mib() {
        let m = MachineConfig::table2();
        let mib = m.cache_bytes().as_u64() as f64 / (1 << 20) as f64;
        assert!((40.0..44.0).contains(&mib), "cache {mib} MiB");
    }

    #[test]
    fn cache_pages_never_zero() {
        let mut m = MachineConfig::table2();
        m.ram = ByteSize::bytes(100);
        assert!(m.cache_pages() >= 1);
    }

    #[test]
    fn table3_differs_only_in_memory() {
        let (a, b) = (MachineConfig::table2(), MachineConfig::table3());
        assert_eq!(a.ram, b.ram);
        assert_ne!(a.mem_latency, b.mem_latency);
        assert_ne!(
            a.mem_bandwidth.as_bytes_per_sec(),
            b.mem_bandwidth.as_bytes_per_sec()
        );
    }
}
