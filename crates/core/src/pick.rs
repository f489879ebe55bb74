//! The SLEDs pick library: advice on what to read next.
//!
//! Mirrors the paper's three-call API (Table 1): `sleds_pick_init` retrieves
//! the SLEDs for an open file and plans an access order,
//! `sleds_pick_next_read` repeatedly returns `(offset, size)` advice, and
//! `sleds_pick_finish` ends the session. The plan visits every byte of the
//! file exactly once, lowest latency first, lowest offset among equals —
//! so in the cold-cache disk case it degenerates to a linear scan, exactly
//! as the paper notes.
//!
//! In record-oriented mode (an argument to `sleds_pick_init` names the
//! separator byte), the edges of low-latency SLEDs are pulled in to record
//! boundaries and the cut-off fragments pushed to the neighbouring
//! higher-latency SLEDs (the paper's Figure 4), so a consumer never drags a
//! cheap read across into expensive storage just to finish a record. The
//! boundary probing performs real (cheap, cached) reads through the kernel,
//! as the paper's library does.

use std::collections::VecDeque;

use sleds_fs::sled::{plan_chunks, plan_cost};
use sleds_fs::{Fd, Kernel};
use sleds_sim_core::{index, SimDuration, SimResult, PAGE_SIZE};

use crate::get::fsleds_get;
use crate::table::SledsTable;
use crate::Sled;

/// Per-byte CPU cost of scanning for record separators in the library.
const SCAN_NS_PER_BYTE: u64 = 3;

/// What a pick plan does with [unavailable](Sled::unavailable) SLEDs —
/// extents whose device is inside an offline fault window at plan time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UnavailablePolicy {
    /// Plan them last (their infinite latency already sorts them behind
    /// every reachable chunk), hoping the device recovers by the time the
    /// consumer gets there.
    #[default]
    Defer,
    /// Prune them from the plan entirely — the paper's behavior for
    /// consumers that would rather deliver partial data now than block on
    /// an offline device.
    Skip,
}

/// Configuration for [`PickSession::init`].
#[derive(Clone, Copy, Debug)]
pub struct PickConfig {
    /// Preferred chunk size; advice never exceeds it.
    pub preferred_size: usize,
    /// Record separator for record-oriented mode (e.g. `Some(b'\n')`).
    pub record_separator: Option<u8>,
    /// Skip-or-defer handling of extents on offline devices.
    pub unavailable: UnavailablePolicy,
}

impl PickConfig {
    /// Byte-oriented picking with the given buffer size.
    pub fn bytes(preferred_size: usize) -> Self {
        PickConfig {
            preferred_size,
            record_separator: None,
            unavailable: UnavailablePolicy::Defer,
        }
    }

    /// Record-oriented picking (the paper's example separator is linefeed).
    pub fn records(preferred_size: usize, separator: u8) -> Self {
        PickConfig {
            preferred_size,
            record_separator: Some(separator),
            unavailable: UnavailablePolicy::Defer,
        }
    }

    /// Prunes unavailable extents from the plan instead of deferring them.
    pub fn skip_unavailable(mut self) -> Self {
        self.unavailable = UnavailablePolicy::Skip;
        self
    }
}

/// An active pick session (`sleds_pick_init` .. `sleds_pick_finish`).
#[derive(Debug)]
pub struct PickSession {
    plan: VecDeque<(u64, usize)>,
    planned_chunks: usize,
    sleds: Vec<Sled>,
    /// What [`PickSession::refresh`] does with extents gone offline.
    unavailable: UnavailablePolicy,
}

impl PickSession {
    /// `sleds_pick_init`: retrieves SLEDs for `fd` and plans the access
    /// order. The SLEDs are retrieved once, here — the paper notes that
    /// refreshing them mid-run is possible future work (see
    /// [`PickSession::refresh`]).
    pub fn init(
        kernel: &mut Kernel,
        table: &SledsTable,
        fd: Fd,
        cfg: PickConfig,
    ) -> SimResult<PickSession> {
        let mut sleds = fsleds_get(kernel, fd, table)?;
        if let Some(sep) = cfg.record_separator {
            adjust_to_records(kernel, fd, &mut sleds, sep)?;
        }
        let skip = cfg.unavailable == UnavailablePolicy::Skip;
        let plan = plan_chunks(&sleds, cfg.preferred_size.max(1), skip);
        kernel.charge_cpu(plan_cost(plan.len()));
        // A pick plan drains each level in one streaming pass, which is
        // exactly the `SLEDS_BEST` estimate; record it for the accuracy
        // audit when tracing is on. A skipping plan is priced over the
        // chunks it will actually deliver; a deferring plan over an
        // offline extent has an infinite estimate, which is not a
        // prediction worth auditing.
        if kernel.tracing_enabled() {
            let est = if skip {
                let priced: Vec<Sled> =
                    sleds.iter().filter(|s| !s.unavailable()).copied().collect();
                crate::estimate::estimate_seconds(&priced, crate::estimate::AttackPlan::Best)
            } else {
                crate::estimate::estimate_seconds(&sleds, crate::estimate::AttackPlan::Best)
            };
            if est.is_finite() {
                kernel.trace_predict(fd, SimDuration::from_secs_f64(est), table.generation())?;
            }
        }
        Ok(PickSession {
            planned_chunks: plan.len(),
            plan: plan.into(),
            sleds,
            unavailable: cfg.unavailable,
        })
    }

    /// `sleds_pick_next_read`: the next `(offset, size)` the application
    /// should read, or `None` when every chunk has been handed out.
    pub fn next_read(&mut self) -> Option<(u64, usize)> {
        self.plan.pop_front()
    }

    /// Chunks not yet handed out.
    pub fn remaining(&self) -> usize {
        self.plan.len()
    }

    /// Total chunks planned at init.
    pub fn planned_chunks(&self) -> usize {
        self.planned_chunks
    }

    /// The (possibly record-adjusted) SLEDs the plan was built from.
    pub fn sleds(&self) -> &[Sled] {
        &self.sleds
    }

    /// Re-retrieves SLEDs and replans the not-yet-returned portion of the
    /// file under the session's [`UnavailablePolicy`]: a skipping session
    /// prunes chunks whose extent has gone offline since `init`. This is
    /// the "refreshing the state of those SLEDs occasionally" extension the
    /// paper sketches; the ablation benches measure it.
    pub fn refresh(&mut self, kernel: &mut Kernel, table: &SledsTable, fd: Fd) -> SimResult<()> {
        let fresh = fsleds_get(kernel, fd, table)?;
        let skip = self.unavailable == UnavailablePolicy::Skip;
        // Bytes already handed out stay handed out; replan the rest.
        let pending: Vec<(u64, usize)> = self.plan.drain(..).collect();
        let mut chunks: Vec<(u64, usize, f64)> = Vec::new();
        for (off, len) in pending {
            // Find the SLED this byte range has *now*.
            let now = fresh.iter().find(|s| s.offset <= off && off < s.end());
            if skip && now.is_some_and(Sled::unavailable) {
                continue;
            }
            chunks.push((off, len, now.map_or(f64::MAX, |s| s.latency)));
        }
        chunks.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
        kernel.charge_cpu(plan_cost(chunks.len()));
        self.plan = chunks.into_iter().map(|(o, l, _)| (o, l)).collect();
        Ok(())
    }

    /// `sleds_pick_finish`: ends the session.
    pub fn finish(self) {}
}

/// Figure 4: pulls the edges of low-latency SLEDs in to record boundaries,
/// pushing the leading/trailing record fragments out to the neighbouring
/// higher-latency SLEDs.
fn adjust_to_records(kernel: &mut Kernel, fd: Fd, sleds: &mut Vec<Sled>, sep: u8) -> SimResult<()> {
    if sleds.len() < 2 {
        return Ok(());
    }
    // Work on (start, end) pairs so neighbour adjustments compose.
    let mut bounds: Vec<(u64, u64)> = sleds.iter().map(|s| (s.offset, s.end())).collect();
    for i in 0..sleds.len() {
        let (start, end) = bounds[i];
        if start >= end {
            continue;
        }
        // Leading edge: previous SLED is slower, so the record straddling
        // our start belongs to it.
        if i > 0 && sleds[i - 1].latency > sleds[i].latency {
            match find_forward(kernel, fd, start, end, sep)? {
                Some(pos) => {
                    let new_start = pos + 1; // first byte after the separator
                    bounds[i - 1].1 = new_start;
                    bounds[i].0 = new_start.min(bounds[i].1);
                }
                None => {
                    // No boundary inside: the whole SLED is one record
                    // fragment; give it all to the slower neighbour.
                    bounds[i - 1].1 = end;
                    bounds[i].0 = end;
                }
            }
        }
        // Trailing edge: next SLED is slower.
        let (start, end) = bounds[i];
        if start < end && i + 1 < sleds.len() && sleds[i + 1].latency > sleds[i].latency {
            match find_backward(kernel, fd, start, end, sep)? {
                Some(pos) if pos + 1 > start => {
                    let new_end = pos + 1;
                    bounds[i + 1].0 = new_end;
                    bounds[i].1 = new_end;
                }
                _ => {
                    bounds[i + 1].0 = start;
                    bounds[i].1 = start;
                }
            }
        }
    }
    for (s, (start, end)) in sleds.iter_mut().zip(&bounds) {
        s.offset = *start;
        s.length = end.saturating_sub(*start);
    }
    sleds.retain(|s| s.length > 0);
    Ok(())
}

/// Finds the first `sep` in `[start, end)`, reading page-sized probes.
fn find_forward(
    kernel: &mut Kernel,
    fd: Fd,
    start: u64,
    end: u64,
    sep: u8,
) -> SimResult<Option<u64>> {
    let mut pos = start;
    while pos < end {
        let len = (end - pos).min(PAGE_SIZE) as usize;
        let buf = kernel.pread(fd, pos, len)?;
        if buf.is_empty() {
            break;
        }
        kernel.charge_cpu(SimDuration::from_nanos(SCAN_NS_PER_BYTE * buf.len() as u64));
        if let Some(i) = buf.iter().position(|&b| b == sep) {
            return Ok(Some(pos + i as u64));
        }
        pos += buf.len() as u64;
    }
    Ok(None)
}

/// Finds the last `sep` in `[start, end)`, reading page-sized probes
/// backwards from the end.
fn find_backward(
    kernel: &mut Kernel,
    fd: Fd,
    start: u64,
    end: u64,
    sep: u8,
) -> SimResult<Option<u64>> {
    let mut hi = end;
    while hi > start {
        let lo = hi.saturating_sub(PAGE_SIZE).max(start);
        let buf = kernel.pread(fd, lo, index(hi - lo))?;
        kernel.charge_cpu(SimDuration::from_nanos(SCAN_NS_PER_BYTE * buf.len() as u64));
        if let Some(i) = buf.iter().rposition(|&b| b == sep) {
            return Ok(Some(lo + i as u64));
        }
        hi = lo;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{SledsEntry, SledsTable};
    use sleds_devices::DiskDevice;
    use sleds_fs::{OpenFlags, Whence};

    fn setup() -> (Kernel, SledsTable) {
        let mut k = Kernel::table2();
        k.mkdir("/data").unwrap();
        let m = k
            .mount_disk("/data", DiskDevice::table2_disk("hda"))
            .unwrap();
        let dev = k.device_of_mount(m).unwrap();
        let mut t = SledsTable::new();
        t.fill_memory(SledsEntry::new(175e-9, 48e6));
        t.fill_device(dev, SledsEntry::new(0.018, 9e6));
        (k, t)
    }

    fn warm_range(k: &mut Kernel, fd: Fd, pages: std::ops::Range<u64>) {
        k.lseek(fd, (pages.start * PAGE_SIZE) as i64, Whence::Set)
            .unwrap();
        k.read(fd, ((pages.end - pages.start) * PAGE_SIZE) as usize)
            .unwrap();
    }

    #[test]
    fn cached_chunks_come_first() {
        let (mut k, t) = setup();
        let data = vec![0u8; 10 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        warm_range(&mut k, fd, 6..10);
        let mut p =
            PickSession::init(&mut k, &t, fd, PickConfig::bytes(PAGE_SIZE as usize)).unwrap();
        // First four picks: the cached tail, in offset order.
        for expect in [6u64, 7, 8, 9] {
            let (off, len) = p.next_read().unwrap();
            assert_eq!(off, expect * PAGE_SIZE);
            assert_eq!(len, PAGE_SIZE as usize);
        }
        // Then the cold head, linearly.
        for expect in [0u64, 1, 2, 3, 4, 5] {
            let (off, _) = p.next_read().unwrap();
            assert_eq!(off, expect * PAGE_SIZE);
        }
        assert!(p.next_read().is_none());
    }

    #[test]
    fn cold_cache_degenerates_to_linear() {
        let (mut k, t) = setup();
        let data = vec![0u8; 8 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let mut p =
            PickSession::init(&mut k, &t, fd, PickConfig::bytes(2 * PAGE_SIZE as usize)).unwrap();
        let mut expected = 0u64;
        while let Some((off, len)) = p.next_read() {
            assert_eq!(off, expected);
            expected += len as u64;
        }
        assert_eq!(expected, data.len() as u64);
    }

    #[test]
    fn every_byte_exactly_once() {
        let (mut k, t) = setup();
        let n = 13 * PAGE_SIZE as usize + 777;
        k.install_file("/data/f", &vec![1u8; n]).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        warm_range(&mut k, fd, 3..7);
        let mut p = PickSession::init(&mut k, &t, fd, PickConfig::bytes(10_000)).unwrap();
        let mut covered = vec![0u32; n];
        while let Some((off, len)) = p.next_read() {
            for b in &mut covered[off as usize..off as usize + len] {
                *b += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "every byte exactly once");
    }

    #[test]
    fn chunks_respect_preferred_size() {
        let (mut k, t) = setup();
        k.install_file("/data/f", &vec![0u8; 5 * PAGE_SIZE as usize])
            .unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let mut p = PickSession::init(&mut k, &t, fd, PickConfig::bytes(3000)).unwrap();
        while let Some((_, len)) = p.next_read() {
            assert!(len <= 3000);
        }
    }

    #[test]
    fn record_mode_aligns_sled_edges() {
        let (mut k, t) = setup();
        // 4 pages of 8-byte records: "AAAAAAA\n" repeated.
        let rec = b"AAAAAAA\n";
        let n = 4 * PAGE_SIZE as usize;
        let data: Vec<u8> = rec.iter().copied().cycle().take(n).collect();
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        // Cache page 1 only. Page size 4096 = 512 records exactly, so the
        // natural boundary is already aligned; shift by installing records
        // of length 7 instead to make edges ragged.
        k.unlink("/data/f").unwrap();
        let rec7 = b"BBBBBB\n";
        let data: Vec<u8> = rec7.iter().copied().cycle().take(n).collect();
        k.install_file("/data/f", &data).unwrap();
        let fd2 = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let _ = fd;
        warm_range(&mut k, fd2, 1..2);
        let p = PickSession::init(
            &mut k,
            &t,
            fd2,
            PickConfig::records(PAGE_SIZE as usize, b'\n'),
        )
        .unwrap();
        let sleds = p.sleds();
        assert_eq!(sleds.len(), 3);
        let low = &sleds[1];
        // The low SLED must start right after a separator and end right
        // after one.
        assert_eq!(data[low.offset as usize - 1], b'\n');
        assert_eq!(data[low.end() as usize - 1], b'\n');
        // And its page-boundary edges moved inward.
        assert!(low.offset >= PAGE_SIZE);
        assert!(low.end() <= 2 * PAGE_SIZE);
        // Coverage still exact.
        let total: u64 = sleds.iter().map(|s| s.length).sum();
        assert_eq!(total, n as u64);
        assert_eq!(sleds[0].end(), sleds[1].offset);
        assert_eq!(sleds[1].end(), sleds[2].offset);
    }

    #[test]
    fn record_mode_without_separator_merges_sled() {
        let (mut k, t) = setup();
        // No separators at all: the cached SLED collapses into neighbours.
        let n = 3 * PAGE_SIZE as usize;
        k.install_file("/data/f", &vec![b'x'; n]).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        warm_range(&mut k, fd, 1..2);
        let p = PickSession::init(
            &mut k,
            &t,
            fd,
            PickConfig::records(PAGE_SIZE as usize, b'\n'),
        )
        .unwrap();
        // All bytes still covered exactly once.
        let total: u64 = p.sleds().iter().map(|s| s.length).sum();
        assert_eq!(total, n as u64);
        // And the plan is purely linear (no cheap region survived).
        let mut q = p;
        let mut expected = 0u64;
        while let Some((off, len)) = q.next_read() {
            assert_eq!(off, expected);
            expected += len as u64;
        }
    }

    #[test]
    fn refresh_reorders_pending_chunks() {
        let (mut k, t) = setup();
        let data = vec![0u8; 12 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        let mut p =
            PickSession::init(&mut k, &t, fd, PickConfig::bytes(PAGE_SIZE as usize)).unwrap();
        // Everything cold: plan is linear. Consume two chunks.
        assert_eq!(p.next_read().unwrap().0, 0);
        assert_eq!(p.next_read().unwrap().0, PAGE_SIZE);
        // Someone else warms the tail.
        warm_range(&mut k, fd, 8..12);
        p.refresh(&mut k, &t, fd).unwrap();
        // Now the cached tail jumps the queue.
        assert_eq!(p.next_read().unwrap().0, 8 * PAGE_SIZE);
    }

    #[test]
    fn defer_plans_offline_extents_last_and_skip_prunes_them() {
        use sleds_devices::FaultPlan;
        use sleds_sim_core::SimTime;
        let (mut k, t) = setup();
        let data = vec![0u8; 8 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        // Pages 0..4 cached, 4..8 still on a disk that then goes offline.
        warm_range(&mut k, fd, 0..4);
        let plan = FaultPlan::new().offline(
            "hda",
            SimTime::ZERO,
            SimTime::from_nanos(u64::MAX),
            SimDuration::from_millis(1),
        );
        k.apply_fault_plan(&plan);
        let cfg = PickConfig::bytes(PAGE_SIZE as usize);

        // Defer (default): every chunk is planned, the offline tail last.
        let mut defer = PickSession::init(&mut k, &t, fd, cfg).unwrap();
        assert_eq!(defer.planned_chunks(), 8);
        for expect in [0u64, 1, 2, 3, 4, 5, 6, 7] {
            assert_eq!(defer.next_read().unwrap().0, expect * PAGE_SIZE);
        }

        // Skip: the offline tail is pruned from the plan entirely.
        let mut skip = PickSession::init(&mut k, &t, fd, cfg.skip_unavailable()).unwrap();
        assert_eq!(skip.planned_chunks(), 4);
        let mut max_off = 0;
        while let Some((off, _)) = skip.next_read() {
            max_off = max_off.max(off);
        }
        assert!(max_off < 4 * PAGE_SIZE);
    }

    #[test]
    fn refresh_prunes_what_went_offline_under_skip_and_defers_it_otherwise() {
        use sleds_devices::FaultPlan;
        use sleds_sim_core::SimTime;
        let (mut k, t) = setup();
        let data = vec![0u8; 8 * PAGE_SIZE as usize];
        k.install_file("/data/f", &data).unwrap();
        let fd = k.open("/data/f", OpenFlags::RDONLY).unwrap();
        warm_range(&mut k, fd, 0..4);
        let cfg = PickConfig::bytes(PAGE_SIZE as usize);
        let mut skip = PickSession::init(&mut k, &t, fd, cfg.skip_unavailable()).unwrap();
        let mut defer = PickSession::init(&mut k, &t, fd, cfg).unwrap();
        assert_eq!((skip.planned_chunks(), defer.planned_chunks()), (8, 8));
        // The disk behind pages 4..8 goes offline after both plans exist.
        k.apply_fault_plan(&FaultPlan::new().offline(
            "hda",
            SimTime::ZERO,
            SimTime::from_nanos(u64::MAX),
            SimDuration::from_millis(1),
        ));
        skip.refresh(&mut k, &t, fd).unwrap();
        defer.refresh(&mut k, &t, fd).unwrap();
        assert_eq!(skip.remaining(), 4, "the offline tail is pruned");
        assert_eq!(defer.remaining(), 8, "the offline tail is kept, last");
        while let Some((off, _)) = skip.next_read() {
            assert!(off < 4 * PAGE_SIZE);
        }
    }

    #[test]
    fn empty_file_plans_nothing() {
        let (mut k, t) = setup();
        k.install_file("/data/empty", b"").unwrap();
        let fd = k.open("/data/empty", OpenFlags::RDONLY).unwrap();
        let mut p = PickSession::init(&mut k, &t, fd, PickConfig::bytes(4096)).unwrap();
        assert!(p.next_read().is_none());
        assert_eq!(p.planned_chunks(), 0);
    }
}
